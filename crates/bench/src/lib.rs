//! Table and ablation binaries for therm3d, built on the
//! [`therm3d_sweep`] engine.
//!
//! | Binary | Regenerates |
//! |---|---|
//! | `table1` | Table I (workload characteristics) |
//! | `table2` | Table II (thermal model parameters) |
//! | `fig2`   | Figure 2 (TSV density vs interface resistivity) |
//!
//! These three simulate nothing. The simulated Figures 3–6 are sweep
//! specs, not binaries: `therm3d sweep examples/paper_fig3.toml` prints
//! Figure 3 and `therm3d sweep examples/paper_fig4_6.toml` Figures 4–6
//! (each spec's header comment says which column is which figure).
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
//! `THERM3D_CACHE_DIR`.
//!
//! The ablations print aligned text tables (one row per policy or
//! variant). Durations of every ablation but `model_fidelity` and
//! `calibrate` (which fix theirs) scale with the `THERM3D_SIM_SECONDS`
//! environment variable, parsed by
//! [`therm3d_sweep::sim_seconds_from_env`]; a malformed value aborts with
//! the parse error instead of silently simulating the default.
//!
//! The performance harness is `perfbench/`, a workspace of its own.
//! This crate's release-gated tests hold the scaling asserts:
//! `tests/solver_scale.rs` (solver pipelines and per-tick integrator
//! ratios) and `tests/throughput_scale.rs` (heap high-water and
//! allocations over long simulations).

use therm3d_sweep::{sim_seconds_from_env, CacheStore, SweepReport, SweepSpec};

/// Environment variable naming the ablation binaries' result-cache
/// directory; unset means no caching.
pub const CACHE_DIR_ENV: &str = "THERM3D_CACHE_DIR";

/// The value, or the error on stderr and exit status 2: binaries end
/// tidily instead of panicking.
fn or_die<T>(result: Result<T, impl std::fmt::Display>) -> T {
    result.unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    })
}

/// [`sim_seconds_from_env`] for binary entry points: a malformed
/// `THERM3D_SIM_SECONDS` exits with the parse error (status 2) instead
/// of silently running the default duration.
#[must_use]
pub fn sim_seconds_or_die(default_s: f64) -> f64 {
    or_die(sim_seconds_from_env(default_s))
}

/// Runs a sweep spec for an ablation binary. With `THERM3D_CACHE_DIR`
/// set, cells already cached are served from that store and the
/// `cache:` hit/miss summary goes to stderr. Any failure — unreadable
/// cache, invalid spec, exploding cell — exits with the error (status
/// 2).
#[must_use]
pub fn run_sweep_cached_or_die(spec: &SweepSpec) -> SweepReport {
    let mut store = std::env::var_os(CACHE_DIR_ENV)
        .map(|dir| or_die(CacheStore::open(std::path::Path::new(&dir))));
    let report = or_die(therm3d_sweep::run_with_cache(spec, store.as_mut()));
    if let Some(store) = &store {
        eprintln!("{}", store.summary());
    }
    report
}
