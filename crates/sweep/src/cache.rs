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
//! # What a load checks
//!
//! One pass over each line hashes its body and notes where its 20 tabs
//! are. The line then loads only when
//!
//! * the text after the 20th tab is the hex FNV-64 of the body before
//!   it (a 21st tab lands in that text and fails the parse, so the
//!   count of fields is checked too);
//! * the first field is the format tag;
//! * the key field is the hex FNV-64 of the unescaped descriptor;
//! * the policy unescapes and every other field parses.
//!
//! Escaped text is copied a run of plain characters at a time, so an
//! intact line costs two allocations: its descriptor and its policy.
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
use std::fmt::Write as _;
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
/// which changes their results by rounding.
/// v6: those networks step in their eigenbasis instead, one decay and
/// gain per mode, which again changes their results by rounding.)
pub const ENGINE_VERSION: &str = "therm3d-sweep-cache/v6";

/// FNV-64 fingerprint of [`ENGINE_VERSION`] plus the source text of the
/// cell-descriptor serialization region below (the
/// `region(fingerprint: cell-descriptor)` block in
/// [`cell_key_salted`]). The workspace's `tests/source_invariants.rs`
/// recomputes it: editing the descriptor without bumping the salt —
/// which would serve stale cache entries for new semantics — fails the
/// test until both constants are updated together. The failure prints
/// the new value.
pub const DESCRIPTOR_FINGERPRINT: u64 = 0x91b7_57f2_9bda_0a12;

/// File name of the result store inside a cache directory.
pub const STORE_FILE: &str = "results.tsv";

const LINE_TAG: &str = "therm3d-cache-v1";

/// Tab-separated fields of a store line: tag, key, descriptor, policy,
/// experiment, the 15 numbers of a `RunResult`, and the checksum.
const LINE_FIELDS: usize = 21;

/// The widest a number field of a store line can be: a float's `{:?}`
/// form takes at most 24 bytes (`-2.2250738585072014e-308`), a count at
/// most 20 digits, and the experiment's label 5 (`EXP-1`).
const NUMBER_FIELDS_MAX_LEN: usize = 12 * 24 + 3 * 20 + 5;

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

/// FNV-1a's 64-bit offset basis: the hash of no bytes.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds one byte into a running FNV-1a hash. [`fnv1a64`] and the line
/// decoder's scan both hash through it, so the two cannot drift.
fn fnv1a64_step(h: u64, byte: u8) -> u64 {
    (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
}

/// 64-bit FNV-1a over `bytes` (stable across platforms and builds; the
/// std hasher is neither).
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h = fnv1a64_step(h, b);
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
    // region(fingerprint: cell-descriptor)
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
    // end-region
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

    /// Whether `key` is stored (descriptor included), without counting
    /// a hit or miss.
    #[must_use]
    pub fn contains(&self, key: &CellKey) -> bool {
        self.entries.get(&key.hash).is_some_and(|(descriptor, _)| *descriptor == key.descriptor)
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
        let lead = std::mem::take(&mut self.needs_leading_newline);
        let mut line = String::with_capacity(
            usize::from(lead) + entry_len_bound(&key.descriptor, &result.policy) + 1,
        );
        if lead {
            line.push('\n');
        }
        write_entry(&mut line, key.hash, &key.descriptor, result);
        line.push('\n');
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
        let s = self.stats;
        format!(
            "cache: {} hits, {} misses, {} inserted, {} corrupt ({})",
            s.hits,
            s.misses,
            s.inserted,
            s.corrupt,
            self.path.display()
        )
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
    /// campaigns, never concurrently with one.
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
            write_entry(&mut out, hash, descriptor, result);
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

/// Whether the line codec escapes `b`: the field and line separators,
/// a carriage return (which `str::lines` would strip) and the escape
/// character itself.
fn needs_escape(b: u8) -> bool {
    matches!(b, b'\\' | b'\t' | b'\n' | b'\r')
}

/// The length of `s` once escaped.
fn escaped_len(s: &str) -> usize {
    s.len() + s.bytes().filter(|&b| needs_escape(b)).count()
}

/// Appends `s` to `out` escaped, copying each run of plain characters
/// whole.
fn escape_into(out: &mut String, mut s: &str) {
    while let Some(i) = s.bytes().position(needs_escape) {
        out.push_str(&s[..i]);
        out.push_str(match s.as_bytes()[i] {
            b'\\' => "\\\\",
            b'\t' => "\\t",
            b'\n' => "\\n",
            _ => "\\r",
        });
        s = &s[i + 1..];
    }
    out.push_str(s);
}

/// Reverses [`escape_into`], copying each run of plain characters
/// whole; `None` when a backslash starts no escape.
fn unescape(mut s: &str) -> Option<String> {
    let mut out = String::with_capacity(s.len());
    while let Some(i) = s.find('\\') {
        out.push_str(&s[..i]);
        out.push(match s.as_bytes().get(i + 1)? {
            b'\\' => '\\',
            b't' => '\t',
            b'n' => '\n',
            b'r' => '\r',
            _ => return None,
        });
        // The escape is two ASCII bytes, so the rest starts on a char.
        s = &s[i + 2..];
    }
    out.push_str(s);
    Some(out)
}

/// The most bytes [`write_entry`] appends for a descriptor and policy:
/// their escaped lengths exactly, every number at its widest. A buffer
/// of this capacity never grows while the line is written.
fn entry_len_bound(descriptor: &str, policy: &str) -> usize {
    // The tag, the 16-digit key and checksum, and the tabs between fields.
    let fixed = LINE_TAG.len() + 2 * 16 + (LINE_FIELDS - 1);
    fixed + escaped_len(descriptor) + escaped_len(policy) + NUMBER_FIELDS_MAX_LEN
}

/// Appends one entry line (no newline) to `out`. Floats use `{:?}`
/// (shortest form that parses back to the identical bits), so decode ∘
/// encode is identity. The trailing field is an FNV-64 checksum of
/// everything before it: field counting alone cannot detect a line
/// truncated *inside* its final number, and serving such an entry
/// would silently report a wrong value.
fn write_entry(out: &mut String, hash: u64, descriptor: &str, r: &RunResult) {
    let start = out.len();
    let _ = write!(out, "{LINE_TAG}\t{hash:016x}\t");
    escape_into(out, descriptor);
    out.push('\t');
    escape_into(out, &r.policy);
    let _ = write!(
        out,
        "\t{}\t{:?}\t{:?}\t{:?}\t{:?}\t{:?}\t{:?}\t{:?}\t{}\t{:?}\t{:?}\t{:?}\t{:?}\t{:?}\t{}\t{}",
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
    );
    let checksum = fnv1a64(&out.as_bytes()[start..]);
    let _ = write!(out, "\t{checksum:016x}");
}

/// Parses one entry line; `None` for anything malformed, partial or
/// bit-flipped (the module doc lists the checks).
fn decode_entry(line: &str) -> Option<(u64, String, RunResult)> {
    // One pass hashes the body, everything before the last tab, and
    // notes each tab. It stops at the last tab a line may hold: any
    // later one is left in the checksum field, which then fails to
    // parse as hex.
    let mut tabs = [0usize; LINE_FIELDS - 1];
    let (mut found, mut body_hash) = (0, FNV_OFFSET);
    for (i, &b) in line.as_bytes().iter().enumerate() {
        if b == b'\t' {
            tabs[found] = i;
            found += 1;
            if found == tabs.len() {
                break;
            }
        }
        body_hash = fnv1a64_step(body_hash, b);
    }
    if found != tabs.len() {
        return None;
    }
    let checksum = &line[tabs[tabs.len() - 1] + 1..];
    if u64::from_str_radix(checksum, 16) != Ok(body_hash) {
        return None;
    }
    // Field `k` ends at tab `k` and starts after the one before it.
    let field = |k: usize| {
        let start = if k == 0 { 0 } else { tabs[k - 1] + 1 };
        &line[start..tabs[k]]
    };
    if field(0) != LINE_TAG {
        return None;
    }
    let hash = u64::from_str_radix(field(1), 16).ok()?;
    let descriptor = unescape(field(2))?;
    if hash != fnv1a64(descriptor.as_bytes()) {
        return None; // truncated/edited line
    }
    let f = |k: usize| field(k).parse::<f64>().ok();
    let result = RunResult {
        policy: unescape(field(3))?,
        experiment: field(4).parse::<Experiment>().ok()?,
        duration_s: f(5)?,
        hotspot_pct: f(6)?,
        gradient_pct: f(7)?,
        cycle_pct: f(8)?,
        vertical_peak_c: f(9)?,
        vertical_mean_c: f(10)?,
        peak_temp_c: f(11)?,
        perf: PerformanceStats {
            completed: field(12).parse().ok()?,
            mean_turnaround_s: f(13)?,
            max_turnaround_s: f(14)?,
            total_turnaround_s: f(15)?,
        },
        energy_j: f(16)?,
        mean_power_w: f(17)?,
        migrations: field(18).parse().ok()?,
        unfinished: field(19).parse().ok()?,
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
    let mut line = String::with_capacity(entry_len_bound(&key.descriptor, &result.policy));
    write_entry(&mut line, key.hash, &key.descriptor, result);
    line
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
            perf: PerformanceStats::from_accumulated(3, 0.5 + 0.7 + 1.9, 1.9),
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
        let (hash, descriptor, decoded) = decode_entry(&encode_line(&key, &r)).unwrap();
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
        let line = encode_line(&key, &r);
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
            let mut escaped = String::new();
            escape_into(&mut escaped, s);
            assert_eq!(escaped.len(), escaped_len(s));
            assert_eq!(unescape(&escaped).as_deref(), Some(s));
        }
        assert_eq!(unescape("bad\\x"), None);
        assert_eq!(unescape("trailing\\"), None);
    }

    #[test]
    fn the_widest_numbers_fit_the_line_bound() {
        // The widest `{:?}` forms: 17 significant digits in exponent
        // form with a negative sign and exponent (24 bytes), and the
        // longest plain decimals, just above 1e-4 and just below 1e16.
        let widest =
            [-f64::MIN_POSITIVE, f64::MIN, -1.000_000_000_000_000_2e-4, -9.999_999_999_999_998e15];
        assert_eq!(widest.map(|x| format!("{x:?}").len()), [24, 23, 23, 19]);
        for x in widest {
            let r = RunResult {
                policy: "\\\t\n\r".to_owned(),
                experiment: Experiment::Exp4,
                duration_s: x,
                hotspot_pct: x,
                gradient_pct: x,
                cycle_pct: x,
                vertical_peak_c: x,
                vertical_mean_c: x,
                peak_temp_c: x,
                perf: PerformanceStats {
                    completed: usize::MAX,
                    mean_turnaround_s: x,
                    max_turnaround_s: x,
                    total_turnaround_s: x,
                },
                energy_j: x,
                mean_power_w: x,
                migrations: u64::MAX,
                unfinished: usize::MAX,
            };
            let spec = spec();
            let key = cell_key_salted(&spec, &expand(&spec)[0], "salt\twith\\escapes");
            let bound = entry_len_bound(&key.descriptor, &r.policy);
            let line = encode_line(&key, &r);
            assert!(line.len() <= bound, "{} > {bound}: {line}", line.len());
            assert_eq!(line, oracle::encode_entry(&key, &r));
        }
    }

    /// The reference codec: each field escaped into a string of its
    /// own, the body formatted and then hashed, and a decode that splits
    /// the line into a vector of fields. The production codec must match
    /// it byte for byte and verdict for verdict.
    mod oracle {
        use therm3d::metrics::PerformanceStats;
        use therm3d::RunResult;
        use therm3d_floorplan::Experiment;

        use super::super::{fnv1a64, CellKey, LINE_TAG};

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

        pub fn encode_entry(key: &CellKey, r: &RunResult) -> String {
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

        pub fn decode_entry(line: &str) -> Option<(u64, String, RunResult)> {
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
                return None;
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
    }

    mod matches_the_oracle {
        use proptest::prelude::*;

        use super::*;

        /// Policy names and key salts: plain, empty, and every character
        /// the line codec must escape (those of `tests/codec_props.rs`).
        const TEXT: [&str; 10] = [
            "Default",
            "Adapt3D-DVFS-TT",
            "",
            "tab\there",
            "new\nline",
            "cr\r",
            "back\\slash",
            "\\t",
            "µs é",
            "\u{1}",
        ];

        /// Field texts spliced into lines: the tag, numbers and
        /// near-numbers, experiment names, hex with and without a sign,
        /// and escapes good and bad.
        const PIECES: [&str; 24] = [
            LINE_TAG,
            "",
            "0",
            "1.5",
            "-0.0",
            "NaN",
            "inf",
            "1e400",
            "+7",
            "-3",
            "18446744073709551616",
            "EXP-2",
            "exp9",
            "3",
            "Default",
            "a\\tb",
            "bad\\q",
            "end\\",
            "\\\\",
            "é",
            "ffffffffffffffff",
            "+ff",
            "0x10",
            " 1",
        ];

        /// The key of cell `cell` of [`spec`] under salt `TEXT[salt]`.
        fn key(cell: usize, salt: usize) -> CellKey {
            let spec = spec();
            let cells = expand(&spec);
            cell_key_salted(&spec, &cells[cell % cells.len()], TEXT[salt])
        }

        /// Random results: any policy text, any experiment, any finite
        /// floats (subnormals and signed zeros included) and any counts.
        fn results() -> impl Strategy<Value = RunResult> {
            let finite = |bits: u64| {
                let x = f64::from_bits(bits);
                if x.is_finite() {
                    x
                } else {
                    f64::from_bits(bits & !(0x7ff << 52))
                }
            };
            (
                0usize..TEXT.len(),
                0usize..Experiment::ALL.len(),
                prop::collection::vec(0u64..u64::MAX, 12),
                (0u64..u64::MAX, 0u64..u64::MAX, 0u64..u64::MAX),
            )
                .prop_map(
                    move |(policy, experiment, bits, (completed, migrations, unfinished))| {
                        let f: Vec<f64> = bits.into_iter().map(finite).collect();
                        RunResult {
                            policy: TEXT[policy].to_owned(),
                            experiment: Experiment::ALL[experiment],
                            duration_s: f[0],
                            hotspot_pct: f[1],
                            gradient_pct: f[2],
                            cycle_pct: f[3],
                            vertical_peak_c: f[4],
                            vertical_mean_c: f[5],
                            peak_temp_c: f[6],
                            perf: PerformanceStats {
                                completed: completed as usize,
                                mean_turnaround_s: f[7],
                                max_turnaround_s: f[8],
                                total_turnaround_s: f[9],
                            },
                            energy_j: f[10],
                            mean_power_w: f[11],
                            migrations,
                            unfinished: unfinished as usize,
                        }
                    },
                )
        }

        /// A decode with every float as bits, so that `0.0` and `-0.0`
        /// differ and a NaN equals itself.
        type Decoded = Option<(u64, String, String, Experiment, Vec<u64>, [u64; 3])>;

        fn bits(decoded: Option<(u64, String, RunResult)>) -> Decoded {
            decoded.map(|(hash, descriptor, r)| {
                let floats = [
                    r.duration_s,
                    r.hotspot_pct,
                    r.gradient_pct,
                    r.cycle_pct,
                    r.vertical_peak_c,
                    r.vertical_mean_c,
                    r.peak_temp_c,
                    r.perf.mean_turnaround_s,
                    r.perf.max_turnaround_s,
                    r.perf.total_turnaround_s,
                    r.energy_j,
                    r.mean_power_w,
                ];
                let counts = [r.perf.completed as u64, r.migrations, r.unfinished as u64];
                (
                    hash,
                    descriptor,
                    r.policy,
                    r.experiment,
                    floats.map(f64::to_bits).to_vec(),
                    counts,
                )
            })
        }

        /// Applies `(op, position, value)` damage to `line`'s bytes: flip
        /// bit `value % 8` of a byte, truncate, or insert a tab. Flips
        /// can break UTF-8; the result is read back lossily.
        fn damage(line: &str, edits: &[(usize, usize, u64)]) -> String {
            let mut bytes = line.as_bytes().to_vec();
            for &(op, pos, value) in edits {
                match op {
                    0 if !bytes.is_empty() => {
                        let at = pos % bytes.len();
                        bytes[at] ^= 1 << (value % 8);
                    }
                    1 => bytes.truncate(pos % (bytes.len() + 1)),
                    _ => bytes.insert(pos % (bytes.len() + 1), b'\t'),
                }
            }
            String::from_utf8_lossy(&bytes).into_owned()
        }

        /// Lines whose fields were replaced, dropped or added from
        /// [`PIECES`]. Three in four are sealed with their body's
        /// checksum, and one in four of those is re-keyed to its
        /// descriptor, so that the checks past those two run too.
        fn spliced_lines() -> impl Strategy<Value = String> {
            (
                results(),
                (0usize..8, 0usize..TEXT.len()),
                prop::collection::vec(
                    (0usize..3, 0usize..LINE_FIELDS + 1, 0usize..PIECES.len()),
                    1..4,
                ),
                (0usize..4, 0usize..PIECES.len()),
            )
                .prop_map(|(result, (cell, salt), edits, (seal, piece))| {
                    let line = encode_line(&key(cell, salt), &result);
                    let mut fields: Vec<String> = line.split('\t').map(str::to_owned).collect();
                    fields.pop();
                    for (op, at, edit) in edits {
                        let at = at % (fields.len() + 1);
                        match op {
                            0 if at < fields.len() => fields[at] = PIECES[edit].to_owned(),
                            1 if at < fields.len() => drop(fields.remove(at)),
                            _ => fields.insert(at, PIECES[edit].to_owned()),
                        }
                    }
                    if seal == 3 && fields.len() > 2 {
                        if let Some(descriptor) = unescape(&fields[2]) {
                            fields[1] = format!("{:016x}", fnv1a64(descriptor.as_bytes()));
                        }
                    }
                    let body = fields.join("\t");
                    let checksum = match seal {
                        0 => PIECES[piece].to_owned(),
                        _ => format!("{:016x}", fnv1a64(body.as_bytes())),
                    };
                    format!("{body}\t{checksum}")
                })
        }

        proptest! {
            #![proptest_config(ProptestConfig { cases: 5_000, ..ProptestConfig::default() })]

            #[test]
            fn encodings_and_their_decodes_match(
                result in results(),
                (cell, salt) in (0usize..8, 0usize..TEXT.len()),
            ) {
                let key = key(cell, salt);
                let line = encode_line(&key, &result);
                prop_assert_eq!(&line, &oracle::encode_entry(&key, &result));
                prop_assert!(line.len() <= entry_len_bound(&key.descriptor, &result.policy));
                let decoded = bits(decode_entry(&line));
                prop_assert!(decoded.is_some(), "{:?}", line);
                prop_assert_eq!(decoded, bits(oracle::decode_entry(&line)));
            }

            #[test]
            fn damaged_lines_decode_as_the_oracle_does(
                result in results(),
                (cell, salt) in (0usize..8, 0usize..TEXT.len()),
                edits in prop::collection::vec((0usize..3, 0usize..4096, 0u64..8), 1..4),
            ) {
                let damaged = damage(&encode_line(&key(cell, salt), &result), &edits);
                prop_assert_eq!(
                    bits(decode_entry(&damaged)),
                    bits(oracle::decode_entry(&damaged)),
                    "{:?}",
                    damaged
                );
            }

            #[test]
            fn spliced_lines_decode_as_the_oracle_does(line in spliced_lines()) {
                prop_assert_eq!(
                    bits(decode_entry(&line)),
                    bits(oracle::decode_entry(&line)),
                    "{:?}",
                    line
                );
            }
        }
    }
}
