//! Campaign steps shared by the end-to-end and the traced run: the
//! reference probe, the set-up measurement and scratch cache
//! directories.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use therm3d::Simulator;
use therm3d_sweep::{expand, model_fingerprint, sim_config, SweepReport, SweepSpec};
use therm3d_thermal::FactorShare;

use crate::reference;
use crate::workloads::{Workload, REFERENCE_SEED};

/// Cells attempted and cells that failed or mismatched.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Records `cells` attempted cells of which `failed` failed.
    pub fn add(&mut self, cells: u64, failed: u64) {
        self.attempted += cells;
        self.failed += failed;
    }

    /// Records `cells` cells that all pass when `ok`, all fail otherwise.
    pub fn all_or_nothing(&mut self, cells: usize, ok: bool) {
        self.add(cells as u64, if ok { 0 } else { cells as u64 });
    }
}

/// Runs `w` in process at [`REFERENCE_SEED`] and checks its CSV against
/// the stored reference, then returns the in-process report at `seed`
/// (the same run when `seed` is the reference seed). Later runs are
/// checked byte for byte against this report.
///
/// # Errors
///
/// The campaign at `seed` fails, so there is nothing to check against.
pub fn probe(
    w: Workload,
    seed: u64,
    nproc: usize,
    tally: &mut Tally,
) -> Result<SweepReport, String> {
    let reference = therm3d_sweep::run(&w.spec(REFERENCE_SEED, nproc));
    let csv = reference.as_ref().map(SweepReport::csv).unwrap_or_default();
    let (cells, failed) = reference::compare(w.reference_csv(), &csv);
    tally.add(cells, failed);
    if failed > 0 {
        eprintln!("perfbench: {failed} of {cells} cells differ from the stored reference");
    }
    match reference {
        Ok(report) if seed == REFERENCE_SEED => Ok(report),
        _ => therm3d_sweep::run(&w.spec(seed, nproc))
            .map_err(|e| format!("{} at seed {seed}: {e}", w.name())),
    }
}

/// Builds every cell's [`Simulator`] the way the sweep runner does (one
/// [`FactorShare`] per model fingerprint, single thread) and returns
/// the wall time in seconds: stack, policy, RC network, ordering,
/// symbolic analysis, steady-state factor and solve.
#[must_use]
pub fn setup_all(spec: &SweepSpec) -> f64 {
    let cells = expand(spec);
    let start = Instant::now();
    let mut shares: BTreeMap<String, FactorShare> = BTreeMap::new();
    let sims: Vec<Simulator> = cells
        .iter()
        .map(|cell| {
            let share = shares.entry(model_fingerprint(spec, cell)).or_default().clone();
            let stack = cell.experiment.stack_with_order(cell.stack_order);
            let policy = cell.policy.build_with_dpm(&stack, cell.policy_seed, cell.dpm);
            Simulator::with_factor_share(sim_config(spec, cell), policy, Some(share))
        })
        .collect();
    let seconds = start.elapsed().as_secs_f64();
    drop(std::hint::black_box(sims));
    seconds
}

/// Empties (or creates) the directory at `path`.
///
/// # Errors
///
/// The directory cannot be removed or created.
pub fn fresh_dir(path: &Path) -> Result<(), String> {
    if path.exists() {
        std::fs::remove_dir_all(path)
            .map_err(|e| format!("cannot clear {}: {e}", path.display()))?;
    }
    std::fs::create_dir_all(path).map_err(|e| format!("cannot create {}: {e}", path.display()))
}
