//! The benchmark workloads: which campaign each one runs, how it is
//! executed, and the reference output it is checked against.

use therm3d_floorplan::Experiment;
use therm3d_policies::PolicyKind;
use therm3d_sweep::SweepSpec;
use therm3d_workload::Benchmark;

/// The trace seed the stored reference CSVs were produced with (the
/// repository's default trace seed).
pub const REFERENCE_SEED: u64 = 2009;

/// The scenario-axes campaign, read from the repository's example spec.
const SCENARIOS_TOML: &str = include_str!("../../examples/sweep_scenarios.toml");

/// How a workload's cold campaign is executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// In this process through the sweep runner.
    InProcess,
    /// Served by an in-process coordinator over loopback to `nproc`
    /// in-process `work()` clients with one runner thread each.
    Served,
}

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `examples/sweep_scenarios.toml`: 16 EXP-1 cells on a 4×4 grid.
    Scenarios,
    /// 88 short cells (4 experiments × 11 policies × DPM) served by the
    /// campaign coordinator.
    CampaignService,
}

impl Workload {
    /// Every workload, in the order the benchmark documents them.
    pub const ALL: [Workload; 2] = [Workload::Scenarios, Workload::CampaignService];

    /// The workload's command-line name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::Scenarios => "scenarios",
            Workload::CampaignService => "campaign-service",
        }
    }

    /// Parses a command-line name.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Simulated seconds per cell.
    #[must_use]
    pub fn sim_seconds(self) -> f64 {
        match self {
            Workload::Scenarios => 30.0,
            Workload::CampaignService => 5.0,
        }
    }

    /// How the timed cold campaign runs.
    #[must_use]
    pub fn mode(self) -> Mode {
        match self {
            Workload::Scenarios => Mode::InProcess,
            Workload::CampaignService => Mode::Served,
        }
    }

    /// The campaign for trace seed `seed`, with the runner on `threads`
    /// threads.
    ///
    /// # Panics
    ///
    /// Panics if the example spec the `scenarios` workload reads no
    /// longer parses.
    #[must_use]
    pub fn spec(self, seed: u64, threads: usize) -> SweepSpec {
        let spec = match self {
            Workload::Scenarios => therm3d_sweep::from_toml(SCENARIOS_TOML)
                .expect("examples/sweep_scenarios.toml parses"),
            Workload::CampaignService => SweepSpec::new("campaign-service")
                .with_experiments(&Experiment::ALL)
                .with_policies(&PolicyKind::ALL)
                .with_dpm(&[false, true])
                .with_benchmarks(&[Benchmark::WebMed, Benchmark::Gzip])
                .with_grid(4, 4),
        };
        spec.with_sim_seconds(self.sim_seconds()).with_seeds(&[seed]).with_threads(threads)
    }

    /// The stored reference CSV: this workload's campaign at
    /// [`REFERENCE_SEED`] as the commit that introduced the benchmark
    /// rendered it.
    #[must_use]
    pub fn reference_csv(self) -> &'static str {
        match self {
            Workload::Scenarios => include_str!("../reference/scenarios.csv"),
            Workload::CampaignService => include_str!("../reference/campaign-service.csv"),
        }
    }
}

/// Distinct thermal models (model fingerprints) among `spec`'s cells.
#[cfg(test)]
pub fn model_count(spec: &SweepSpec) -> usize {
    let cells = therm3d_sweep::expand(spec);
    let models: std::collections::BTreeSet<_> =
        cells.iter().map(|cell| therm3d_sweep::model_fingerprint(spec, cell)).collect();
    models.len()
}

/// Worker threads this machine offers.
#[must_use]
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

#[cfg(test)]
mod tests {
    use super::*;
    use therm3d_sweep::expand;
    use therm3d_workload::{stream_mix, JobSource};

    #[test]
    fn workloads_expand_to_their_stated_cells_and_models() {
        for (w, cells, models) in [
            (Workload::Scenarios, 16, 4),
            (Workload::CampaignService, 88, 4),
        ] {
            let spec = w.spec(REFERENCE_SEED, 1);
            assert_eq!(expand(&spec).len(), cells, "{}", w.name());
            assert_eq!(model_count(&spec), models, "{}", w.name());
        }
    }

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert_eq!(Workload::from_name("nope"), None);
    }

    #[test]
    fn a_different_seed_changes_the_traces_but_not_the_cell_counts() {
        for w in Workload::ALL {
            let (a, b) = (w.spec(REFERENCE_SEED, 1), w.spec(7, 1));
            assert_eq!(expand(&a).len(), expand(&b).len(), "{}", w.name());
            assert_eq!(model_count(&a), model_count(&b), "{}", w.name());
            let (ca, cb) = (&expand(&a)[0], &expand(&b)[0]);
            assert_ne!(ca.trace_seed, cb.trace_seed, "{}", w.name());
            let cores = ca.experiment.num_cores();
            let mut sa = stream_mix(&a.benchmarks, cores, a.sim_seconds, ca.trace_seed);
            let mut sb = stream_mix(&b.benchmarks, cores, b.sim_seconds, cb.trace_seed);
            let first = |s: &mut dyn JobSource| {
                (0..8)
                    .filter_map(|_| s.next_job())
                    .map(|j| j.arrival_s.to_bits())
                    .collect::<Vec<_>>()
            };
            assert_ne!(first(&mut sa), first(&mut sb), "{}: traces must differ", w.name());
        }
    }

    #[test]
    fn the_scenarios_workload_overrides_only_duration_seed_and_threads() {
        let file = therm3d_sweep::from_toml(SCENARIOS_TOML).unwrap();
        let mut spec = Workload::Scenarios.spec(5, 3);
        assert_eq!((spec.seeds.clone(), spec.threads), (vec![5], 3));
        spec.sim_seconds = file.sim_seconds;
        spec.seeds.clone_from(&file.seeds);
        spec.threads = file.threads;
        assert_eq!(therm3d_sweep::to_toml(&spec), therm3d_sweep::to_toml(&file));
    }
}
