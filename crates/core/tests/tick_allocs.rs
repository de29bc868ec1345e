//! The engine's tick loop allocates nothing once warm: under the
//! counting allocator, every tick after the first cycle window makes
//! zero heap allocations on every experiment under both integrators,
//! on the modal path of small networks and on the sparse path of
//! larger ones.
//!
//! The policy here returns an empty `ControlDecision`, which allocates
//! nothing. A real policy's decision is an owned value that may carry
//! two vectors; that is the one per-tick allocation left, and it is the
//! policy's, not the engine's. Run queues grow while a backlog builds
//! (an overloaded trace's ramp), so the trace here is one that keeps
//! up. Its jobs come from a stream, as in every run, so the count
//! covers the generator's per-job work too.
//!
//! The test binary installs [`CountingAllocator`] process-wide, so
//! everything lives in ONE `#[test]`: a second concurrent test would
//! pollute the counter. The test harness's own thread still allocates a
//! few times while the test starts; an engine that really allocates
//! does so on every run of the same case, so each case runs twice and
//! the smaller count must be zero.

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

/// Allocations made by the ticks after warm-up (the smaller count of
/// two identical runs), and the counts of warm and of all ticks.
/// Warm-up is the first cycle window: the first tick builds the
/// implicit solver state and sizes the engine's buffers, each core's
/// cycle window grows until it holds a full window, and each run queue
/// grows with its first jobs.
fn warm_allocations(cfg: &SimConfig) -> (usize, usize, usize) {
    let warm_up = cfg.cycle_window;
    let cores = cfg.experiment.num_cores();
    let trace = TraceConfig::new(Benchmark::WebMed, cores, SECONDS).with_seed(3);
    let mut readings = [(0, 0); 2];
    for reading in &mut readings {
        let mut sim = Simulator::new(cfg.clone(), Box::new(LeastLoaded));
        let jobs = trace.stream();
        let (mut ticks, mut warm_allocs) = (0usize, 0usize);
        let mut last = allocation_count();
        let result = sim.run_source_with_observer(jobs, SECONDS, |_| {
            if ticks >= warm_up {
                warm_allocs += allocation_count() - last;
            }
            ticks += 1;
            last = allocation_count();
        });
        assert!(
            result.perf.completed > 100,
            "the run must execute jobs: {}",
            result.perf.completed
        );
        *reading = (warm_allocs, ticks);
    }
    assert_eq!(readings[0].1, readings[1].1, "a run is deterministic");
    let ticks = readings[0].1;
    (readings[0].0.min(readings[1].0), ticks.saturating_sub(warm_up), ticks)
}

#[test]
fn warm_engine_ticks_allocate_nothing() {
    let mut cases: Vec<(Experiment, usize, Integrator)> = Experiment::ALL
        .into_iter()
        .flat_map(|exp| Integrator::ALL.into_iter().map(move |integ| (exp, 4, integ)))
        .collect();
    // 130 nodes: past the modal path's size limit, on the sparse path.
    cases.push((Experiment::Exp2, 8, Integrator::ImplicitCn));
    for (exp, grid, integrator) in cases {
        let mut cfg = SimConfig::fast(exp).with_integrator(integrator);
        cfg.thermal = cfg.thermal.with_grid(grid, grid);
        let (allocs, warm, ticks) = warm_allocations(&cfg);
        assert!(warm >= 100, "{exp} {grid}x{grid} / {integrator}: {warm} warm of {ticks} ticks");
        assert_eq!(
            allocs, 0,
            "{exp} {grid}x{grid} / {integrator}: {allocs} allocations in {warm} warm ticks"
        );
    }
}
