//! Shared helpers for the integration tests and examples of the
//! `therm3d` reproduction of "Dynamic Thermal Management in 3D Multicore
//! Architectures" (Coskun et al., DATE 2009).
//!
//! The heavy lifting lives in the workspace crates re-exported by
//! [`therm3d`]; this thin facade adds the conveniences the runnable
//! examples and the cross-crate test suite share: a one-call experiment
//! runner, a per-tick temperature recorder, and small text plotting
//! utilities.
//!
//! # Examples
//!
//! ```
//! use therm3d_repro::quick_run;
//! use therm3d_floorplan::Experiment;
//! use therm3d_policies::PolicyKind;
//! use therm3d_workload::Benchmark;
//!
//! let r = quick_run(Experiment::Exp1, PolicyKind::Adapt3d, Benchmark::Gcc, 5.0, false);
//! assert!(r.perf.completed > 0);
//! ```

// Stdout carries the reports: a library writes diagnostics to stderr.
#![warn(clippy::print_stdout)]

pub mod recorder;
pub mod textplot;

pub use recorder::{CycleHistogram, TempHistory};
pub use textplot::{bar, sparkline};

use therm3d::{RunResult, SimConfig, Simulator};
use therm3d_floorplan::Experiment;
use therm3d_policies::PolicyKind;
use therm3d_workload::{Benchmark, TraceConfig};

/// Runs one (experiment, policy, benchmark) cell with the fast (4×4 grid)
/// configuration and fixed seeds — the workhorse of the test suite.
///
/// The run is exactly reproducible: same arguments, same result.
#[must_use]
pub fn quick_run(
    experiment: Experiment,
    kind: PolicyKind,
    benchmark: Benchmark,
    sim_seconds: f64,
    dpm: bool,
) -> RunResult {
    let stack = experiment.stack();
    let policy = kind.build_with_dpm(&stack, 0xACE1, dpm);
    let jobs = TraceConfig::new(benchmark, stack.num_cores(), sim_seconds).with_seed(2009).stream();
    let mut sim = Simulator::new(SimConfig::fast(experiment), policy);
    sim.run_source(jobs, sim_seconds)
}

/// Runs one cell while recording the per-tick temperature history.
#[must_use]
pub fn quick_run_recorded(
    experiment: Experiment,
    kind: PolicyKind,
    benchmark: Benchmark,
    sim_seconds: f64,
    dpm: bool,
) -> (RunResult, TempHistory) {
    let stack = experiment.stack();
    let policy = kind.build_with_dpm(&stack, 0xACE1, dpm);
    let jobs = TraceConfig::new(benchmark, stack.num_cores(), sim_seconds).with_seed(2009).stream();
    let mut sim = Simulator::new(SimConfig::fast(experiment), policy);
    let mut history = TempHistory::new(stack.num_cores());
    let result = sim.run_source_with_observer(jobs, sim_seconds, |s| history.record(s));
    (result, history)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_is_reproducible() {
        let a = quick_run(Experiment::Exp1, PolicyKind::Default, Benchmark::Gzip, 4.0, false);
        let b = quick_run(Experiment::Exp1, PolicyKind::Default, Benchmark::Gzip, 4.0, false);
        assert_eq!(a, b);
    }

    #[test]
    fn recorded_run_matches_plain_run() {
        let (r, h) = quick_run_recorded(
            Experiment::Exp2,
            PolicyKind::Adapt3d,
            Benchmark::WebMed,
            4.0,
            false,
        );
        let plain = quick_run(Experiment::Exp2, PolicyKind::Adapt3d, Benchmark::WebMed, 4.0, false);
        assert_eq!(r, plain, "the observer must not perturb the simulation");
        assert!(h.len() >= 40, "4 s at 100 ms ticks records ≥40 samples");
    }
}
