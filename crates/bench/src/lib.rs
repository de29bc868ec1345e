//! Shared experiment driver for the figure/table regeneration binaries,
//! built on the [`therm3d_sweep`] engine.
//!
//! Every figure of the paper is regenerated by a binary in `src/bin/`:
//!
//! | Binary | Regenerates |
//! |---|---|
//! | `table1` | Table I (workload characteristics) |
//! | `table2` | Table II (thermal model parameters) |
//! | `fig2`   | Figure 2 (TSV density vs interface resistivity) |
//! | `fig3`   | Figure 3 (hot spots without DPM + performance) |
//! | `fig4`   | Figure 4 (hot spots with DPM) |
//! | `fig5`   | Figure 5 (spatial gradients with DPM) |
//! | `fig6`   | Figure 6 (thermal cycles with DPM) |
//!
//! The simulation-driving figures (`fig3`..`fig6`) expand to a sweep
//! spec and execute their (experiment × policy) grids in parallel via
//! [`therm3d_sweep::run`]; one figure is one sweep. Their stdout tables
//! are unchanged from the serial driver — same cells, same seeds, same
//! numbers — the runs just land on all cores.
//!
//! Ablation and diagnostic binaries: `alpha_study` (static vs runtime vs
//! uniform thermal indices), `beta_sweep` (β and history-window
//! sensitivity), `cutoff_sweep` (the backlog-guard trade-off),
//! `orientation_study` (which die bonds to the spreader),
//! `model_fidelity` (block-level vs grid networks, both stepped by the
//! one `ThermalModel`), `sensor_noise_study` (policy robustness to
//! imperfect sensors) and `calibrate` (package parameter search).
//! `orientation_study` and `sensor_noise_study` delegate all looping to
//! the sweep engine's scenario axes (`stack_orders` / `sensors`) via
//! [`run_sweep_cached_or_die`], so their cells are memoized under
//! `THERM3D_CACHE_DIR` exactly like the figures'.
//!
//! The binaries print aligned text tables (one row per policy, one column
//! group per experiment) mirroring the paper's bar charts. Durations of
//! the figures and of every ablation but `model_fidelity` and
//! `calibrate` (which fix theirs) scale with the `THERM3D_SIM_SECONDS`
//! environment variable (default 240 s of simulated time per run; the
//! paper replays 30-minute traces — longer runs sharpen the statistics
//! but do not change the ranking), parsed by
//! [`therm3d_sweep::sim_seconds_from_env`]; a malformed value aborts with
//! the parse error instead of silently simulating the default.
//!
//! Setting `THERM3D_CACHE_DIR` points the figure sweeps at a persistent
//! [`therm3d_sweep::CacheStore`]: rerunning a figure (or running fig4
//! after fig5, which share cells) only simulates what the cache has not
//! seen, and the printed tables are byte-identical either way.
//!
//! The performance harness is `perfbench/`, a workspace of its own.
//! This crate's release-gated tests hold the scaling asserts:
//! `tests/solver_scale.rs` (solver pipelines and per-tick integrator
//! ratios) and `tests/throughput_scale.rs` (heap high-water and
//! allocations over long simulations).

use std::path::PathBuf;

use therm3d::RunResult;
use therm3d_floorplan::Experiment;
use therm3d_policies::PolicyKind;
use therm3d_sweep::{sim_seconds_from_env, CacheStore, SweepSpec};
use therm3d_workload::Benchmark;

/// Environment variable naming the figure binaries' result-cache
/// directory; unset means no caching.
pub const CACHE_DIR_ENV: &str = "THERM3D_CACHE_DIR";

/// [`sim_seconds_from_env`] for binary entry points: a malformed
/// `THERM3D_SIM_SECONDS` exits with the parse error (status 2) instead
/// of silently running the default duration.
#[must_use]
pub fn sim_seconds_or_die(default_s: f64) -> f64 {
    sim_seconds_from_env(default_s).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    })
}

/// The one cache-aware sweep execution path shared by the figure and
/// ablation binaries: opens the store when a directory is given, runs
/// the spec, and prints the `cache:` hit/miss summary to stderr.
/// Callers only differ in how they surface errors.
///
/// # Errors
///
/// [`therm3d_sweep::SweepError`] from opening the store or running the
/// sweep (invalid spec, exploding cell, cache I/O).
pub fn run_sweep_with_cache_dir(
    spec: &SweepSpec,
    cache_dir: Option<&std::path::Path>,
) -> Result<therm3d_sweep::SweepReport, therm3d_sweep::SweepError> {
    let mut store = match cache_dir {
        Some(dir) => Some(CacheStore::open(dir)?),
        None => None,
    };
    let report = therm3d_sweep::run_with_cache(spec, store.as_mut())?;
    if let Some(store) = &store {
        eprintln!("{}", store.summary());
    }
    Ok(report)
}

/// Runs a sweep spec for an ablation binary, honouring
/// `THERM3D_CACHE_DIR` exactly like the figure binaries: cells already
/// cached are served from the store (hit/miss summary on stderr), and
/// any failure — unreadable cache, invalid spec, exploding cell — exits
/// tidily with the error instead of panicking.
#[must_use]
pub fn run_sweep_cached_or_die(spec: &SweepSpec) -> therm3d_sweep::SweepReport {
    let cache_dir = std::env::var_os(CACHE_DIR_ENV).map(PathBuf::from);
    run_sweep_with_cache_dir(spec, cache_dir.as_deref()).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    })
}

/// [`FigureConfig::paper_default`] for binary entry points, with the
/// environment applied: `THERM3D_SIM_SECONDS` sets the duration (a
/// malformed value exits tidily with the parse error) and
/// `THERM3D_CACHE_DIR` attaches the result cache. This is the *only*
/// place the figure configuration reads the environment — the builder
/// itself stays pure so library users and tests are never surprised by
/// ambient state.
#[must_use]
pub fn figure_config_or_die() -> FigureConfig {
    let mut cfg = FigureConfig::paper_default();
    cfg.sim_seconds = sim_seconds_or_die(cfg.sim_seconds);
    cfg.cache_dir = std::env::var_os(CACHE_DIR_ENV).map(PathBuf::from);
    cfg
}

/// Configuration shared by all figure experiments.
#[derive(Debug, Clone)]
pub struct FigureConfig {
    /// Simulated seconds per (experiment, policy) run.
    pub sim_seconds: f64,
    /// Trace generator seed.
    pub trace_seed: u64,
    /// Policy (LFSR) seed.
    pub policy_seed: u16,
    /// Thermal grid resolution.
    pub grid: (usize, usize),
    /// The benchmark schedule; each gets an equal share of the duration.
    pub benchmarks: Vec<Benchmark>,
    /// Worker threads for figure sweeps (`0` = one per available CPU).
    pub threads: usize,
    /// Persistent result-cache directory for figure sweeps (`None` =
    /// simulate everything).
    pub cache_dir: Option<PathBuf>,
}

impl FigureConfig {
    /// The default figure configuration: the full Table I benchmark
    /// rotation (each of the eight workloads gets an equal share of the
    /// duration, averaging ≈37 % offered utilization as in the paper's
    /// trace collection), 240 simulated seconds, 8×8 grid.
    ///
    /// Does *not* consult the environment: binary entry points apply
    /// `THERM3D_SIM_SECONDS` / `THERM3D_CACHE_DIR` via
    /// [`figure_config_or_die`], so a malformed variable is a reported
    /// error there and never a surprise (or a panic) in library code
    /// that overrides these fields anyway.
    #[must_use]
    pub fn paper_default() -> Self {
        Self {
            sim_seconds: 240.0,
            trace_seed: 2009,
            policy_seed: 0xACE1,
            grid: (8, 8),
            benchmarks: Benchmark::ALL.to_vec(),
            threads: 0,
            cache_dir: None,
        }
    }

    /// A fast variant for smoke tests (4×4 grid, short runs, no cache).
    #[must_use]
    pub fn quick() -> Self {
        let mut cfg = Self::paper_default();
        cfg.sim_seconds = 20.0;
        cfg.grid = (4, 4);
        cfg
    }

    /// The sweep spec equivalent to this figure configuration, covering
    /// `experiments` × [`PolicyKind::ALL`] × one DPM setting.
    #[must_use]
    pub fn to_sweep_spec(&self, experiments: &[Experiment], dpm: bool) -> SweepSpec {
        SweepSpec::new("figure")
            .with_experiments(experiments)
            .with_policies(&PolicyKind::ALL)
            .with_dpm(&[dpm])
            .with_benchmarks(&self.benchmarks)
            .with_seeds(&[self.trace_seed])
            .with_sim_seconds(self.sim_seconds)
            .with_grid(self.grid.0, self.grid.1)
            .with_policy_seed(self.policy_seed)
            .with_threads(self.threads)
    }
}

impl Default for FigureConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// Runs one (experiment, policy, DPM) cell of a figure through the
/// sweep engine's single cell-execution path.
#[must_use]
pub fn run_cell(
    cfg: &FigureConfig,
    experiment: Experiment,
    kind: PolicyKind,
    dpm: bool,
) -> RunResult {
    let spec = cfg.to_sweep_spec(&[experiment], dpm).with_policies(&[kind]);
    let cell = therm3d_sweep::expand(&spec).remove(0);
    therm3d_sweep::run_cell(&spec, &cell)
}

/// Runs a whole figure — `experiments` × all eleven policies — as one
/// parallel sweep, returning per-experiment result vectors in
/// [`PolicyKind::ALL`] order. The cells, seeds and numbers are
/// identical to the historical serial driver; only the scheduling is
/// parallel.
///
/// When `cfg.cache_dir` is set (the `THERM3D_CACHE_DIR` environment
/// variable), cells already in the cache are served from it, fresh
/// cells are written back, and a hit/miss summary goes to stderr; the
/// returned numbers are bit-identical either way.
///
/// # Panics
///
/// Panics if the figure configuration expands to an invalid sweep spec
/// (e.g. an empty experiment list), if the cache directory cannot be
/// opened, or if a cell's simulation panics.
#[must_use]
pub fn run_figure(
    cfg: &FigureConfig,
    experiments: &[Experiment],
    dpm: bool,
) -> Vec<(Experiment, Vec<RunResult>)> {
    let spec = cfg.to_sweep_spec(experiments, dpm);
    let report = run_sweep_with_cache_dir(&spec, cfg.cache_dir.as_deref())
        .unwrap_or_else(|e| panic!("figure sweep failed: {e}"));
    experiments
        .iter()
        .map(|&exp| {
            let runs: Vec<RunResult> = report.group(exp, dpm, 0).into_iter().cloned().collect();
            debug_assert_eq!(runs.len(), PolicyKind::ALL.len());
            (exp, runs)
        })
        .collect()
}

/// Formats one figure's worth of results: rows = policies, column groups
/// = experiments, plus normalized performance when `with_perf`.
#[must_use]
pub fn format_figure(
    title: &str,
    metric_name: &str,
    metric: impl Fn(&RunResult) -> f64,
    results: &[(Experiment, Vec<RunResult>)],
    with_perf: bool,
) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "{title}");
    let _ = write!(out, "{:<20}", "policy");
    for (exp, _) in results {
        let _ = write!(out, " {:>9}", format!("{exp}"));
    }
    if with_perf {
        for (exp, _) in results {
            let _ = write!(out, " {:>10}", format!("perf:{exp}"));
        }
    }
    let _ = writeln!(out);
    for (row, kind) in PolicyKind::ALL.iter().enumerate() {
        let _ = write!(out, "{:<20}", kind.label());
        for (_, runs) in results {
            let _ = write!(out, " {:>9.2}", metric(&runs[row]));
        }
        if with_perf {
            for (_, runs) in results {
                let norm = runs[row].normalized_performance_vs(&runs[0]);
                let _ = write!(out, " {:>10.3}", norm);
            }
        }
        let _ = writeln!(out);
    }
    let _ = writeln!(out, "({metric_name})");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use therm3d_sweep::expand;

    #[test]
    fn quick_config_runs_one_cell() {
        let cfg = FigureConfig::quick();
        let r = run_cell(&cfg, Experiment::Exp1, PolicyKind::Default, false);
        assert!(r.duration_s >= cfg.sim_seconds);
        assert!(r.perf.completed > 0);
    }

    #[test]
    fn format_figure_has_all_policies() {
        let cfg = FigureConfig::quick();
        let runs: Vec<RunResult> = PolicyKind::ALL
            .iter()
            .take(2)
            .map(|&k| run_cell(&cfg, Experiment::Exp1, k, false))
            .collect();
        // Pad with clones so the formatter sees all 11 rows.
        let mut all = runs.clone();
        while all.len() < PolicyKind::ALL.len() {
            all.push(runs[0].clone());
        }
        let s = format_figure("test", "%", |r| r.hotspot_pct, &[(Experiment::Exp1, all)], true);
        for kind in PolicyKind::ALL {
            assert!(s.contains(kind.label()), "{s}");
        }
    }

    #[test]
    fn figure_spec_matches_the_serial_driver_cells() {
        let cfg = FigureConfig::quick();
        let spec = cfg.to_sweep_spec(&[Experiment::Exp1, Experiment::Exp3], true);
        let cells = expand(&spec);
        assert_eq!(cells.len(), 2 * PolicyKind::ALL.len());
        for cell in &cells {
            assert_eq!(cell.trace_seed, cfg.trace_seed);
            assert_eq!(cell.policy_seed, cfg.policy_seed, "seed 0 must match the paper seed");
            assert!(cell.dpm);
        }
    }

    #[test]
    fn cached_figure_sweep_stores_every_cell_and_reruns_warm() {
        let mut cfg = FigureConfig::quick();
        cfg.sim_seconds = 3.0;
        cfg.benchmarks = vec![Benchmark::Gzip];
        let spec = cfg.to_sweep_spec(&[Experiment::Exp1], false).with_policies(&[
            PolicyKind::Default,
            PolicyKind::CGate,
            PolicyKind::Adapt3d,
        ]);
        let dir = std::env::temp_dir().join(format!("therm3d_bench_cache_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cold = run_sweep_with_cache_dir(&spec, Some(&dir)).unwrap();
        // Every cell was appended to the store under its own key.
        let mut store = therm3d_sweep::CacheStore::open(&dir).unwrap();
        assert_eq!(store.len(), 3);
        for row in &cold.rows {
            assert!(store.lookup(&therm3d_sweep::cell_key(&spec, &row.cell)).is_some());
        }
        drop(store);
        // The warm rerun gives the same CSV, byte for byte, and appends
        // nothing.
        let warm = run_sweep_with_cache_dir(&spec, Some(&dir)).unwrap();
        assert_eq!(warm.csv(), cold.csv());
        let stored = std::fs::read_to_string(dir.join(therm3d_sweep::cache::STORE_FILE)).unwrap();
        assert_eq!(stored.lines().count(), 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sweep_engine_reproduces_the_direct_cell() {
        // A single cell run on its own must produce the very numbers the
        // same cell gets inside a full policy-grid sweep.
        let mut cfg = FigureConfig::quick();
        cfg.sim_seconds = 4.0;
        cfg.benchmarks = vec![Benchmark::Gzip];
        let direct = run_cell(&cfg, Experiment::Exp1, PolicyKind::CGate, false);
        let figure = run_figure(&cfg, &[Experiment::Exp1], false);
        assert_eq!(direct, figure[0].1[1]);
    }
}
