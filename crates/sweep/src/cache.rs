//! Persistent, content-addressed memoization of sweep results.
//!
//! Every [`SweepCell`] is a pure function of its fully-resolved
//! descriptor — experiment, policy, DPM setting, benchmark mix, trace
//! seed, derived policy seed, simulated duration and thermal grid — so
//! a `RunResult` computed once is valid forever *for the same engine
//! version*. This module derives a stable [`CellKey`] from that
//! descriptor and persists results in a [`CacheStore`]: an
//! append-friendly, line-oriented store under a cache directory.
//!
//! # Layout
//!
//! A cache directory holds one file, `results.tsv`, with one entry per
//! line:
//!
//! ```text
//! therm3d-cache-v1 <TAB> <key-hex> <TAB> <descriptor> <TAB> <result fields...> <TAB> <checksum>
//! ```
//!
//! Floats are written in Rust's shortest round-trip form, so a decoded
//! `RunResult` is bit-identical to the one simulated — reports built
//! from cache hits are byte-identical to cold runs. The trailing
//! checksum (FNV-64 of everything before it) rejects *any* partial or
//! bit-flipped line, including truncation inside the final numeric
//! field, which plain field counting would miss.
//!
//! # Key derivation and invalidation
//!
//! The key is a 64-bit FNV-1a hash of the canonical descriptor string,
//! which embeds [`ENGINE_VERSION`] as a salt. Invalidation rules:
//!
//! * changing any axis value, the benchmark mix, `sim_seconds` or the
//!   grid changes the descriptor, hence the key — a grown spec only
//!   misses on its new cells;
//! * bumping [`ENGINE_VERSION`] (required whenever simulator semantics
//!   change) changes every descriptor, so stale results are never
//!   served — old lines simply stop matching and are ignored;
//! * a corrupted or truncated line is counted in
//!   [`CacheStats::corrupt`] and treated as a miss (the cell re-runs
//!   and appends a fresh entry);
//! * on lookup the stored descriptor must match exactly, so even an
//!   (astronomically unlikely) hash collision cannot serve the wrong
//!   cell's numbers.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::{Path, PathBuf};

use therm3d::metrics::PerformanceStats;
use therm3d::RunResult;
use therm3d_floorplan::Experiment;

use crate::error::SweepError;
use crate::matrix::SweepCell;
use crate::spec::SweepSpec;

/// Cache-format + simulation-semantics version salt. Bump whenever the
/// simulator, trace generator or policy implementations change observed
/// numbers; every existing cache entry is invalidated by the bump.
/// (v2: the default thermal integrator switched from explicit RK4 to
/// the pre-factored implicit scheme, which perturbs every trajectory.
/// v3: the scenario axes — stack order, TSV/interlayer variant, sensor
/// profile — joined the cell descriptor, and noisy sensor seeds are now
/// derived from the per-cell trace seed; v2 entries miss cleanly.
/// v4: networks of 2 048 nodes or more factor through the scalar
/// numeric phase instead of the blocked supernodal one, which changes
/// their results by rounding; smaller grids keep their bytes.
/// v5: implicit networks of at most 128 nodes apply each tick as one
/// precomputed propagator instead of three sparse TR-BDF2 substeps,
/// which changes their results by rounding.)
pub const ENGINE_VERSION: &str = "therm3d-sweep-cache/v5";

/// FNV-64 fingerprint of [`ENGINE_VERSION`] plus the source text of the
/// cell-descriptor serialization region below (the `lint:
/// region(fingerprint: cell-descriptor)` block in
/// [`cell_key_salted`]). `therm3d_lint`'s `cache-salt-drift` rule
/// recomputes it on every run: editing the descriptor without bumping
/// the salt — which would serve stale cache entries for new semantics —
/// makes the lint (and CI) fail until both constants are updated
/// together. The lint's error message prints the new value.
pub const DESCRIPTOR_FINGERPRINT: u64 = 0x2150_6a51_ae2b_e003;

/// File name of the result store inside a cache directory.
pub const STORE_FILE: &str = "results.tsv";

const LINE_TAG: &str = "therm3d-cache-v1";

/// The content-addressed identity of one sweep cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellKey {
    hash: u64,
    descriptor: String,
}

impl CellKey {
    /// The 16-hex-digit key (the report's `cell_key` column).
    #[must_use]
    pub fn hex(&self) -> String {
        format!("{:016x}", self.hash)
    }

    /// The canonical descriptor the key hashes.
    #[must_use]
    pub fn descriptor(&self) -> &str {
        &self.descriptor
    }
}

/// 64-bit FNV-1a over `bytes` (stable across platforms and builds; the
/// std hasher is neither).
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Derives the content-addressed key for `cell` of `spec` under the
/// current [`ENGINE_VERSION`].
#[must_use]
pub fn cell_key(spec: &SweepSpec, cell: &SweepCell) -> CellKey {
    cell_key_salted(spec, cell, ENGINE_VERSION)
}

/// [`cell_key`] with an explicit engine-version salt. Exposed so tests
/// (and future migration tooling) can demonstrate that a version bump
/// invalidates every entry; production code uses [`cell_key`].
#[must_use]
pub fn cell_key_salted(spec: &SweepSpec, cell: &SweepCell, salt: &str) -> CellKey {
    let benchmarks: Vec<&str> = spec.benchmarks.iter().map(|b| b.name()).collect();
    // Everything the simulation depends on, fully resolved — including
    // the scenario (stack order, TSV variant, sensor profile; the
    // sensor noise seed is a pure function of the trace seed, so it is
    // implied). The spec name, thread count and cell index are
    // deliberately absent, so renaming or reordering a campaign still
    // reuses its cells.
    // lint: region(fingerprint: cell-descriptor)
    let descriptor = format!(
        "engine={salt};experiment={};stack_order={};tsv={};sensor={};integrator={};policy={};\
         dpm={};benchmarks={};trace_seed={};policy_seed={};sim_seconds={:?};grid={}x{}",
        cell.experiment,
        cell.stack_order,
        cell.tsv,
        cell.sensor,
        cell.integrator,
        cell.policy.label(),
        cell.dpm,
        benchmarks.join(","),
        cell.trace_seed,
        cell.policy_seed,
        spec.sim_seconds,
        spec.grid.0,
        spec.grid.1,
    );
    // lint: end-region
    CellKey { hash: fnv1a64(descriptor.as_bytes()), descriptor }
}

/// Hit/miss/write counters for one [`CacheStore`] session.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups served from the store.
    pub hits: u64,
    /// Lookups that found no matching entry.
    pub misses: u64,
    /// Results appended this session.
    pub inserted: u64,
    /// Lines skipped while loading (corrupted/truncated/foreign).
    pub corrupt: u64,
}

/// A persistent store of `RunResult`s keyed by [`CellKey`].
#[derive(Debug)]
pub struct CacheStore {
    path: PathBuf,
    entries: BTreeMap<u64, (String, RunResult)>,
    stats: CacheStats,
    /// Append handle, opened once on first insert and reused (a cold
    /// 500-cell sweep should not open the file 500 times).
    appender: Option<std::fs::File>,
    /// A crashed writer can leave the file without a trailing newline;
    /// appending straight onto that partial line would corrupt the next
    /// entry too, so the first insert of this session starts fresh.
    needs_leading_newline: bool,
}

impl CacheStore {
    /// Opens (creating if needed) the store under `dir`, loading every
    /// intact entry of `dir/results.tsv`.
    ///
    /// # Errors
    ///
    /// Returns [`SweepError::Cache`] when the directory cannot be
    /// created or the store file exists but cannot be read.
    pub fn open(dir: &Path) -> Result<Self, SweepError> {
        let io_err = |path: &Path, e: &std::io::Error| SweepError::Cache {
            path: path.display().to_string(),
            cause: e.to_string(),
        };
        std::fs::create_dir_all(dir).map_err(|e| io_err(dir, &e))?;
        let path = dir.join(STORE_FILE);
        let mut entries = BTreeMap::new();
        let mut stats = CacheStats::default();
        let mut needs_leading_newline = false;
        match std::fs::read_to_string(&path) {
            Ok(text) => {
                needs_leading_newline = !text.is_empty() && !text.ends_with('\n');
                for line in text.lines() {
                    if line.is_empty() {
                        continue;
                    }
                    match decode_entry(line) {
                        // Later lines win: a re-inserted cell (e.g. after
                        // an interrupted write) shadows its older entry.
                        Some((hash, descriptor, result)) => {
                            entries.insert(hash, (descriptor, result));
                        }
                        None => stats.corrupt += 1,
                    }
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(io_err(&path, &e)),
        }
        Ok(Self { path, entries, stats, appender: None, needs_leading_newline })
    }

    /// Looks up `key`, counting a hit or miss. A stored entry only hits
    /// when its full descriptor matches (collision-proof).
    pub fn lookup(&mut self, key: &CellKey) -> Option<RunResult> {
        match self.entries.get(&key.hash) {
            Some((descriptor, result)) if *descriptor == key.descriptor => {
                self.stats.hits += 1;
                Some(result.clone())
            }
            _ => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Appends `result` under `key` (durable immediately: the line goes
    /// out in one `write_all` before the call returns). The append
    /// handle is opened once and reused across inserts.
    ///
    /// # Errors
    ///
    /// Returns [`SweepError::Cache`] when the store file cannot be
    /// opened or appended to.
    pub fn insert(&mut self, key: &CellKey, result: &RunResult) -> Result<(), SweepError> {
        let io_err = |path: &Path, e: &std::io::Error| SweepError::Cache {
            path: path.display().to_string(),
            cause: e.to_string(),
        };
        if self.appender.is_none() {
            self.appender = Some(
                std::fs::OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(&self.path)
                    .map_err(|e| io_err(&self.path, &e))?,
            );
        }
        let lead = if std::mem::take(&mut self.needs_leading_newline) { "\n" } else { "" };
        let line = format!("{lead}{}\n", encode_entry(key, result));
        let file = self.appender.as_mut().expect("appender opened above");
        file.write_all(line.as_bytes()).map_err(|e| io_err(&self.path, &e))?;
        self.entries.insert(key.hash, (key.descriptor.clone(), result.clone()));
        self.stats.inserted += 1;
        Ok(())
    }

    /// Counters for this session (loading, lookups, inserts).
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// One human-readable counters line, shared by every surface that
    /// reports cache activity (the CLI's `--cache-stats`, the figure
    /// binaries' stderr note) so the formats cannot drift.
    #[must_use]
    pub fn summary(&self) -> String {
        self.summary_for(crate::shard::ShardSpec::FULL)
    }

    /// [`summary`](Self::summary) tagged with the shard that produced
    /// the counters: `cache[1/3]: ...` for shard 1 of 3, plain
    /// `cache: ...` for the full matrix. Shard campaigns interleave the
    /// stderr of N processes into one log; the tag keeps every counters
    /// line attributable.
    #[must_use]
    pub fn summary_for(&self, shard: crate::shard::ShardSpec) -> String {
        let s = self.stats;
        let tag = if shard.is_full() { String::new() } else { format!("[{shard}]") };
        format!(
            "cache{tag}: {} hits, {} misses, {} inserted, {} corrupt ({})",
            s.hits,
            s.misses,
            s.inserted,
            s.corrupt,
            self.path.display()
        )
    }

    /// Unions `src`'s entries into this store (the shard-cache merge:
    /// each shard of a distributed campaign appends to its own store,
    /// and this recombines them). Entries whose (key, descriptor) are
    /// already present are skipped; the rest are appended through
    /// [`insert`](Self::insert), so the merged store is immediately
    /// durable and append-friendly like any other. Source stores are
    /// never modified. Entries are absorbed in key order, so merging
    /// the same shards always writes the same store, whatever the
    /// directory order of the caller.
    ///
    /// Duplicate keys *inside* one store (re-inserted cells) were
    /// already collapsed newest-wins by [`open`](Self::open); run
    /// [`compact`](Self::compact) afterwards to also drop the shadowed
    /// lines from disk.
    ///
    /// # Errors
    ///
    /// Returns [`SweepError::Cache`] when this store cannot be
    /// appended to.
    pub fn merge_from(&mut self, src: &CacheStore) -> Result<MergeStats, SweepError> {
        let mut stats = MergeStats::default();
        // BTreeMap iterates in ascending key order, so the appended
        // lines are deterministic regardless of the source's history.
        for (&hash, (descriptor, result)) in &src.entries {
            if self.entries.get(&hash).is_some_and(|(d, _)| d == descriptor) {
                stats.skipped += 1;
                continue;
            }
            let key = CellKey { hash, descriptor: descriptor.clone() };
            self.insert(&key, result)?;
            stats.appended += 1;
        }
        Ok(stats)
    }

    /// Number of distinct entries currently loaded.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when the store holds no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The store file's path (`<dir>/results.tsv`).
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Rewrites `results.tsv` keeping only the newest entry per cell
    /// key and dropping lines salted with an engine version other than
    /// the current [`ENGINE_VERSION`] (stale entries can never hit
    /// again) as well as corrupted lines. The rewrite is atomic (temp
    /// file + rename) and the in-memory store is reloaded from the
    /// compacted file, so lookups after compaction serve exactly what
    /// survived.
    ///
    /// Long-lived caches grow one appended line per simulated cell
    /// forever — across engine bumps and re-runs most of those lines
    /// are dead weight this reclaims.
    ///
    /// **Do not compact while another process is appending to the same
    /// store.** The rename replaces the file under the writer's open
    /// append handle, so its subsequent inserts land in the orphaned
    /// old inode and are lost when it exits. Compact between
    /// campaigns (e.g. after merging distributed-sweep shards), never
    /// concurrently with one.
    ///
    /// # Errors
    ///
    /// Returns [`SweepError::Cache`] when the store file cannot be
    /// read, the temp file cannot be written, or the rename fails.
    pub fn compact(&mut self) -> Result<CompactStats, SweepError> {
        let io_err = |path: &Path, e: &std::io::Error| SweepError::Cache {
            path: path.display().to_string(),
            cause: e.to_string(),
        };
        let text = match std::fs::read_to_string(&self.path) {
            Ok(text) => text,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => String::new(),
            Err(e) => return Err(io_err(&self.path, &e)),
        };

        let mut stats = CompactStats::default();
        let current_salt = format!("engine={ENGINE_VERSION};");
        // Newest-wins per key, preserving first-seen order so compaction
        // output is deterministic and diffs stay small.
        let mut order: Vec<u64> = Vec::new();
        let mut newest: BTreeMap<u64, (String, RunResult)> = BTreeMap::new();
        for line in text.lines().filter(|l| !l.is_empty()) {
            match decode_entry(line) {
                Some((hash, descriptor, result)) => {
                    if newest.insert(hash, (descriptor, result)).is_some() {
                        stats.dropped_shadowed += 1;
                    } else {
                        order.push(hash);
                    }
                }
                None => stats.dropped_corrupt += 1,
            }
        }

        let mut out = String::new();
        for &hash in &order {
            let (descriptor, result) = &newest[&hash];
            if !descriptor.starts_with(&current_salt) {
                stats.dropped_stale += 1;
                continue;
            }
            let key = CellKey { hash, descriptor: descriptor.clone() };
            out.push_str(&encode_entry(&key, result));
            out.push('\n');
            stats.kept += 1;
        }

        let tmp = self.path.with_extension("tsv.compact");
        std::fs::write(&tmp, &out).map_err(|e| io_err(&tmp, &e))?;
        std::fs::rename(&tmp, &self.path).map_err(|e| io_err(&self.path, &e))?;

        // The old append handle points at the replaced inode; drop it so
        // the next insert reopens the compacted file, and reload the
        // entry map to exactly what survived.
        self.appender = None;
        self.needs_leading_newline = false;
        self.entries = newest
            .into_iter()
            .filter(|(_, (descriptor, _))| descriptor.starts_with(&current_salt))
            .collect();
        Ok(stats)
    }
}

/// What [`CacheStore::merge_from`] absorbed from one source store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MergeStats {
    /// Entries appended to the destination store.
    pub appended: u64,
    /// Entries skipped because an identical (key, descriptor) pair was
    /// already present.
    pub skipped: u64,
}

impl std::ops::AddAssign for MergeStats {
    fn add_assign(&mut self, rhs: Self) {
        self.appended += rhs.appended;
        self.skipped += rhs.skipped;
    }
}

impl std::fmt::Display for MergeStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "appended {}, skipped {} already present", self.appended, self.skipped)
    }
}

/// What [`CacheStore::compact`] kept and dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CompactStats {
    /// Entries surviving compaction (newest per key, current salt).
    pub kept: u64,
    /// Older duplicates shadowed by a newer entry for the same key.
    pub dropped_shadowed: u64,
    /// Entries salted with a non-current engine version.
    pub dropped_stale: u64,
    /// Corrupted/truncated/foreign lines discarded.
    pub dropped_corrupt: u64,
}

impl std::fmt::Display for CompactStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "kept {}, dropped {} shadowed, {} stale-salt, {} corrupt",
            self.kept, self.dropped_shadowed, self.dropped_stale, self.dropped_corrupt
        )
    }
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\t' => out.push_str("\\t"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            c => out.push(c),
        }
    }
    out
}

fn unescape(s: &str) -> Option<String> {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next()? {
            '\\' => out.push('\\'),
            't' => out.push('\t'),
            'n' => out.push('\n'),
            'r' => out.push('\r'),
            _ => return None,
        }
    }
    Some(out)
}

/// Serializes one entry line. Floats use `{:?}` (shortest form that
/// parses back to the identical bits), so decode ∘ encode is identity.
/// The trailing field is an FNV-64 checksum of everything before it:
/// field counting alone cannot detect a line truncated *inside* its
/// final number, and serving such an entry would silently report a
/// wrong value.
fn encode_entry(key: &CellKey, r: &RunResult) -> String {
    let body = encode_body(key, r);
    format!("{body}\t{:016x}", fnv1a64(body.as_bytes()))
}

fn encode_body(key: &CellKey, r: &RunResult) -> String {
    format!(
        "{LINE_TAG}\t{}\t{}\t{}\t{}\t{:?}\t{:?}\t{:?}\t{:?}\t{:?}\t{:?}\t{:?}\t{}\t{:?}\t{:?}\t{:?}\t{:?}\t{:?}\t{}\t{}",
        key.hex(),
        escape(&key.descriptor),
        escape(&r.policy),
        r.experiment,
        r.duration_s,
        r.hotspot_pct,
        r.gradient_pct,
        r.cycle_pct,
        r.vertical_peak_c,
        r.vertical_mean_c,
        r.peak_temp_c,
        r.perf.completed,
        r.perf.mean_turnaround_s,
        r.perf.max_turnaround_s,
        r.perf.total_turnaround_s,
        r.energy_j,
        r.mean_power_w,
        r.migrations,
        r.unfinished,
    )
}

/// Parses one entry line; `None` for anything malformed, partial or
/// bit-flipped (the trailing checksum must match the body).
fn decode_entry(line: &str) -> Option<(u64, String, RunResult)> {
    let (body, checksum) = line.rsplit_once('\t')?;
    if u64::from_str_radix(checksum, 16) != Ok(fnv1a64(body.as_bytes())) {
        return None;
    }
    let fields: Vec<&str> = body.split('\t').collect();
    let [tag, key_hex, descriptor, policy, experiment, rest @ ..] = &fields[..] else {
        return None;
    };
    if *tag != LINE_TAG || rest.len() != 15 {
        return None;
    }
    let hash = u64::from_str_radix(key_hex, 16).ok()?;
    let descriptor = unescape(descriptor)?;
    if hash != fnv1a64(descriptor.as_bytes()) {
        return None; // truncated/edited line
    }
    let f = |i: usize| rest[i].parse::<f64>().ok();
    let result = RunResult {
        policy: unescape(policy)?,
        experiment: experiment.parse::<Experiment>().ok()?,
        duration_s: f(0)?,
        hotspot_pct: f(1)?,
        gradient_pct: f(2)?,
        cycle_pct: f(3)?,
        vertical_peak_c: f(4)?,
        vertical_mean_c: f(5)?,
        peak_temp_c: f(6)?,
        perf: PerformanceStats {
            completed: rest[7].parse().ok()?,
            mean_turnaround_s: f(8)?,
            max_turnaround_s: f(9)?,
            total_turnaround_s: f(10)?,
        },
        energy_j: f(11)?,
        mean_power_w: f(12)?,
        migrations: rest[13].parse().ok()?,
        unfinished: rest[14].parse().ok()?,
    };
    Some((hash, descriptor, result))
}

/// Serializes one `(key, result)` pair as a store line (no trailing
/// newline) — the exact bytes [`CacheStore`] appends to `results.tsv`,
/// ending in an FNV-64 checksum of the body. This is also the campaign
/// service's result transport: a `therm3d work` process encodes each
/// finished cell with this codec and the coordinator verifies and
/// stores the line, so network results inherit the cache's corruption
/// detection and byte-exactness for free.
#[must_use]
pub fn encode_line(key: &CellKey, result: &RunResult) -> String {
    encode_entry(key, result)
}

/// Parses a line produced by [`encode_line`], reconstructing the full
/// [`CellKey`] (hash and verified descriptor). `None` for anything
/// malformed, truncated or bit-flipped — same acceptance rules as the
/// store loader.
#[must_use]
pub fn decode_line(line: &str) -> Option<(CellKey, RunResult)> {
    let (hash, descriptor, result) = decode_entry(line)?;
    Some((CellKey { hash, descriptor }, result))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::expand;
    use therm3d_floorplan::Experiment;
    use therm3d_policies::PolicyKind;
    use therm3d_workload::Benchmark;

    fn spec() -> SweepSpec {
        SweepSpec::new("cache-unit")
            .with_experiments(&[Experiment::Exp1, Experiment::Exp2])
            .with_policies(&[PolicyKind::Default, PolicyKind::Adapt3d])
            .with_benchmarks(&[Benchmark::Gzip, Benchmark::WebMed])
            .with_sim_seconds(4.0)
            .with_grid(4, 4)
    }

    fn result(policy: &str) -> RunResult {
        RunResult {
            policy: policy.to_owned(),
            experiment: Experiment::Exp2,
            duration_s: 4.0 + f64::EPSILON,
            hotspot_pct: 0.1 + 0.2, // deliberately non-representable (0.30000000000000004)
            gradient_pct: 3.0,
            cycle_pct: 1e-17,
            vertical_peak_c: 4.5,
            vertical_mean_c: 2.25,
            peak_temp_c: 91.125,
            perf: PerformanceStats::from_turnarounds(&[0.5, 0.7, 1.9]),
            energy_j: 1234.5678901234567,
            mean_power_w: 51.3,
            migrations: 42,
            unfinished: 1,
        }
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("therm3d_cache_unit_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn keys_are_stable_and_axis_sensitive() {
        let spec = spec();
        let cells = expand(&spec);
        let a = cell_key(&spec, &cells[0]);
        assert_eq!(a, cell_key(&spec, &cells[0]), "same cell, same key");
        // Every cell of the matrix gets a distinct key.
        let mut seen = std::collections::BTreeSet::new();
        for c in &cells {
            assert!(seen.insert(cell_key(&spec, c).hex()), "duplicate key for {c:?}");
        }
        // Non-physical spec fields do not change the key…
        let mut renamed = spec.clone().with_threads(7);
        renamed.name = "other-name".into();
        assert_eq!(a, cell_key(&renamed, &cells[0]));
        // …but every physical knob does.
        for changed in [
            spec.clone().with_sim_seconds(5.0),
            spec.clone().with_grid(8, 8),
            spec.clone().with_benchmarks(&[Benchmark::Gzip]),
        ] {
            assert_ne!(a, cell_key(&changed, &cells[0]), "{changed:?}");
        }
    }

    #[test]
    fn version_salt_invalidates_keys() {
        let spec = spec();
        let cell = &expand(&spec)[0];
        assert_ne!(
            cell_key_salted(&spec, cell, ENGINE_VERSION),
            cell_key_salted(&spec, cell, "therm3d-sweep-cache/v0"),
        );
    }

    #[test]
    fn entry_round_trip_is_bit_exact() {
        let spec = spec();
        let key = cell_key(&spec, &expand(&spec)[0]);
        let r = result("Adapt3D&DVFS_TT+DPM");
        let (hash, descriptor, decoded) = decode_entry(&encode_entry(&key, &r)).unwrap();
        assert_eq!(hash, key.hash);
        assert_eq!(descriptor, key.descriptor);
        assert_eq!(decoded, r, "every f64 must survive exactly");
    }

    #[test]
    fn truncation_inside_the_final_number_is_rejected() {
        // Field counting alone would accept "…\t12" cut from "…\t1234";
        // the trailing checksum must catch it.
        let spec = spec();
        let key = cell_key(&spec, &expand(&spec)[0]);
        let mut r = result("Default");
        r.unfinished = 1234;
        let line = encode_entry(&key, &r);
        assert!(decode_entry(&line).is_some());
        // Rebuild a "crashed mid-append" line: drop the checksum field
        // and two digits of the last number, then re-count fields.
        let body = line.rsplit_once('\t').unwrap().0;
        let cut = &body[..body.len() - 2];
        assert!(decode_entry(cut).is_none(), "truncated body must not decode");
        // Even re-attaching a stale checksum fails (checksum of the
        // original body, body now shorter).
        let stale = format!("{cut}\t{}", line.rsplit_once('\t').unwrap().1);
        assert!(decode_entry(&stale).is_none());
    }

    #[test]
    fn summary_reports_all_counters_and_the_path() {
        let dir = tmp_dir("summary");
        let spec = spec();
        let key = cell_key(&spec, &expand(&spec)[0]);
        let mut store = CacheStore::open(&dir).unwrap();
        assert_eq!(store.lookup(&key), None);
        store.insert(&key, &result("Default")).unwrap();
        let _ = store.lookup(&key);
        let line = store.summary();
        assert!(line.starts_with("cache: 1 hits, 1 misses, 1 inserted, 0 corrupt"), "{line}");
        assert!(line.contains(STORE_FILE), "{line}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn summary_is_tagged_with_a_non_full_shard() {
        use crate::shard::ShardSpec;
        let dir = tmp_dir("shard_summary");
        let store = CacheStore::open(&dir).unwrap();
        assert!(store.summary_for(ShardSpec::FULL).starts_with("cache: "), "full stays plain");
        let tagged = store.summary_for(ShardSpec { index: 1, count: 3 });
        assert!(tagged.starts_with("cache[1/3]: "), "{tagged}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn merge_from_unions_shard_stores() {
        let spec = spec();
        let cells = expand(&spec);
        let dirs: Vec<PathBuf> = (0..3).map(|k| tmp_dir(&format!("merge_src{k}"))).collect();
        // Three "shard" stores with disjoint entries, one key shared by
        // two stores (a cell simulated twice, e.g. a retried shard).
        for (k, dir) in dirs.iter().enumerate() {
            let mut store = CacheStore::open(dir).unwrap();
            store.insert(&cell_key(&spec, &cells[k]), &result("Default")).unwrap();
            if k == 2 {
                store.insert(&cell_key(&spec, &cells[0]), &result("Default")).unwrap();
            }
        }
        let out_dir = tmp_dir("merge_out");
        let mut out = CacheStore::open(&out_dir).unwrap();
        let mut total = MergeStats::default();
        for dir in &dirs {
            total += out.merge_from(&CacheStore::open(dir).unwrap()).unwrap();
        }
        assert_eq!(total, MergeStats { appended: 3, skipped: 1 }, "{total}");
        assert_eq!(out.len(), 3);
        // The merged store is durable and serves every shard's cells
        // after a reopen; merging again is a no-op.
        let mut reopened = CacheStore::open(&out_dir).unwrap();
        for cell in &cells[..3] {
            assert!(reopened.lookup(&cell_key(&spec, cell)).is_some(), "{}", cell.describe());
        }
        let again = reopened.merge_from(&CacheStore::open(&dirs[0]).unwrap()).unwrap();
        assert_eq!(again, MergeStats { appended: 0, skipped: 1 });
        for dir in dirs.iter().chain([&out_dir]) {
            let _ = std::fs::remove_dir_all(dir);
        }
    }

    #[test]
    fn store_round_trip_and_stats() {
        let dir = tmp_dir("roundtrip");
        let spec = spec();
        let cells = expand(&spec);
        let key = cell_key(&spec, &cells[0]);
        let r = result("Default");
        {
            let mut store = CacheStore::open(&dir).unwrap();
            assert!(store.is_empty());
            assert_eq!(store.lookup(&key), None);
            store.insert(&key, &r).unwrap();
            assert_eq!(store.lookup(&key), Some(r.clone()));
            assert_eq!(store.stats(), CacheStats { hits: 1, misses: 1, inserted: 1, corrupt: 0 });
        }
        // Re-opened store serves the persisted entry.
        let mut store = CacheStore::open(&dir).unwrap();
        assert_eq!(store.len(), 1);
        assert_eq!(store.lookup(&key), Some(r));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupted_lines_are_skipped_not_served() {
        let dir = tmp_dir("corrupt");
        let spec = spec();
        let cells = expand(&spec);
        let (k0, k1) = (cell_key(&spec, &cells[0]), cell_key(&spec, &cells[1]));
        {
            let mut store = CacheStore::open(&dir).unwrap();
            store.insert(&k0, &result("Default")).unwrap();
            store.insert(&k1, &result("Adapt3D")).unwrap();
        }
        // Truncate the second entry mid-line (a crashed writer).
        let path = dir.join(STORE_FILE);
        let text = std::fs::read_to_string(&path).unwrap();
        let keep = text.lines().next().unwrap();
        let half = &text.lines().nth(1).unwrap()[..40];
        std::fs::write(&path, format!("{keep}\n{half}\n")).unwrap();

        let mut store = CacheStore::open(&dir).unwrap();
        assert_eq!(store.stats().corrupt, 1);
        assert!(store.lookup(&k0).is_some(), "intact entry still hits");
        assert!(store.lookup(&k1).is_none(), "truncated entry is a miss");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn engine_version_bump_turns_hits_into_misses() {
        let dir = tmp_dir("version");
        let spec = spec();
        let cell = &expand(&spec)[0];
        let old = cell_key_salted(&spec, cell, "therm3d-sweep-cache/v0");
        let mut store = CacheStore::open(&dir).unwrap();
        store.insert(&old, &result("Default")).unwrap();
        // The same physical cell under the current version misses.
        assert_eq!(store.lookup(&cell_key(&spec, cell)), None);
        assert_eq!(store.stats().misses, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compact_keeps_newest_drops_stale_and_shadowed() {
        let dir = tmp_dir("compact");
        let spec = spec();
        let cells = expand(&spec);
        let (k0, k1) = (cell_key(&spec, &cells[0]), cell_key(&spec, &cells[1]));
        let stale = cell_key_salted(&spec, &cells[2], "therm3d-sweep-cache/v2");
        let mut store = CacheStore::open(&dir).unwrap();
        store.insert(&k0, &result("Old")).unwrap();
        store.insert(&k1, &result("Adapt3D")).unwrap();
        store.insert(&stale, &result("Stale")).unwrap();
        store.insert(&k0, &result("New")).unwrap(); // shadows the first line
                                                    // Plus one corrupted line a crashed writer left behind.
        drop(store);
        let path = dir.join(STORE_FILE);
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.push_str("therm3d-cache-v1\tgarbage\n");
        std::fs::write(&path, text).unwrap();

        let mut store = CacheStore::open(&dir).unwrap();
        let stats = store.compact().unwrap();
        assert_eq!(
            stats,
            CompactStats { kept: 2, dropped_shadowed: 1, dropped_stale: 1, dropped_corrupt: 1 },
            "{stats}"
        );
        // The file holds exactly the survivors, newest value wins, and
        // the store still serves them — before and after a reopen.
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 2, "{text}");
        assert_eq!(store.lookup(&k0).unwrap().policy, "New");
        assert!(store.lookup(&k1).is_some());
        assert_eq!(store.lookup(&cell_key(&spec, &cells[2])), None, "stale salt gone");
        // Inserts after compaction land in the new file, not the old inode.
        store.insert(&cell_key(&spec, &cells[3]), &result("Fresh")).unwrap();
        let mut reopened = CacheStore::open(&dir).unwrap();
        assert_eq!(reopened.len(), 3);
        assert_eq!(reopened.stats().corrupt, 0, "compacted store is fully clean");
        assert_eq!(reopened.lookup(&k0).unwrap().policy, "New");
        // A second compaction is a no-op.
        let again = reopened.compact().unwrap();
        assert_eq!(again, CompactStats { kept: 3, ..CompactStats::default() });
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compact_on_a_missing_store_is_empty_not_an_error() {
        let dir = tmp_dir("compact_empty");
        let mut store = CacheStore::open(&dir).unwrap();
        assert_eq!(store.compact().unwrap(), CompactStats::default());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn scenario_axes_are_in_the_descriptor_and_split_keys() {
        let spec = spec();
        let cells = expand(&spec);
        let base = cell_key(&spec, &cells[0]);
        for part in ["stack_order=cores-far", "tsv=paper", "sensor=ideal"] {
            assert!(base.descriptor().contains(part), "{}", base.descriptor());
        }
        // Each scenario dimension alone changes the key.
        let mut near = cells[0].clone();
        near.stack_order = therm3d_floorplan::StackOrder::CoresNearSink;
        let mut dense = cells[0].clone();
        dense.tsv = therm3d_thermal::TsvVariant::Dense1Pct;
        let mut noisy = cells[0].clone();
        noisy.sensor = therm3d::SensorProfile::Noisy1C;
        for twin in [&near, &dense, &noisy] {
            assert_ne!(base, cell_key(&spec, twin));
        }
    }

    #[test]
    fn escape_round_trips_awkward_strings() {
        for s in ["plain", "tab\there", "line\nbreak", "back\\slash", "cr\rlf", ""] {
            assert_eq!(unescape(&escape(s)).as_deref(), Some(s));
        }
        assert_eq!(unescape("bad\\x"), None);
        assert_eq!(unescape("trailing\\"), None);
    }
}
