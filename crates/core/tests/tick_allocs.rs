//! The engine's tick loop allocates nothing once warm: under the
//! counting allocator, every tick after the first cycle window makes
//! zero heap allocations on every experiment under both integrators,
//! on the propagator path of small networks and on the sparse path of
//! larger ones.
//!
//! The policy here returns an empty `ControlDecision`, which allocates
//! nothing. A real policy's decision is an owned value that may carry
//! two vectors; that is the one per-tick allocation left, and it is the
//! policy's, not the engine's. Run queues grow while a backlog builds
//! (an overloaded trace's ramp), so the trace here is one that keeps
//! up.
//!
//! The test binary installs [`CountingAllocator`] process-wide, so
//! everything lives in ONE `#[test]`: a second concurrent test would
//! pollute the counter.

use therm3d::{SimConfig, Simulator};
use therm3d_floorplan::{CoreId, Experiment};
use therm3d_policies::{ControlDecision, Observation, Policy, QueueHint};
use therm3d_telemetry::alloc::allocation_count;
use therm3d_telemetry::CountingAllocator;
use therm3d_thermal::Integrator;
use therm3d_workload::{Benchmark, Job, TraceConfig};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// Simulated seconds per run.
const SECONDS: f64 = 20.0;

/// Places every job on the least-loaded core and never changes a core's
/// setting.
struct LeastLoaded;

impl Policy for LeastLoaded {
    fn name(&self) -> &str {
        "least-loaded"
    }

    fn place_job(&mut self, _job: &Job, _obs: &Observation<'_>, hint: &QueueHint<'_>) -> CoreId {
        hint.least_loaded()
    }

    fn control(&mut self, _obs: &Observation<'_>) -> ControlDecision {
        ControlDecision::default()
    }
}

/// Allocations made by the ticks after warm-up, and the counts of warm
/// and of all ticks. Warm-up is the first cycle window: the first tick
/// builds the implicit solver state and sizes the engine's buffers,
/// each core's cycle window grows until it holds a full window, and
/// each run queue grows with its first jobs.
fn warm_allocations(cfg: SimConfig) -> (usize, usize, usize) {
    let warm_up = cfg.cycle_window;
    let cores = cfg.experiment.num_cores();
    let trace = TraceConfig::new(Benchmark::WebMed, cores, SECONDS).with_seed(3).generate();
    let mut sim = Simulator::new(cfg, Box::new(LeastLoaded));
    let (mut ticks, mut warm_allocs) = (0usize, 0usize);
    let mut last = allocation_count();
    let result = sim.run_with_observer(&trace, SECONDS, |_| {
        if ticks >= warm_up {
            warm_allocs += allocation_count() - last;
        }
        ticks += 1;
        last = allocation_count();
    });
    assert!(result.perf.completed > 100, "the run must execute jobs: {}", result.perf.completed);
    (warm_allocs, ticks.saturating_sub(warm_up), ticks)
}

#[test]
fn warm_engine_ticks_allocate_nothing() {
    let mut cases: Vec<(Experiment, usize, Integrator)> = Experiment::ALL
        .into_iter()
        .flat_map(|exp| Integrator::ALL.into_iter().map(move |integ| (exp, 4, integ)))
        .collect();
    // 130 nodes: past the propagator's size limit, on the sparse path.
    cases.push((Experiment::Exp2, 8, Integrator::ImplicitCn));
    for (exp, grid, integrator) in cases {
        let mut cfg = SimConfig::fast(exp).with_integrator(integrator);
        cfg.thermal = cfg.thermal.with_grid(grid, grid);
        let (allocs, warm, ticks) = warm_allocations(cfg);
        assert!(warm >= 100, "{exp} {grid}x{grid} / {integrator}: {warm} warm of {ticks} ticks");
        assert_eq!(
            allocs, 0,
            "{exp} {grid}x{grid} / {integrator}: {allocs} allocations in {warm} warm ticks"
        );
    }
}
