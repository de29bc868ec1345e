//! Bounded-memory assertions for long simulations: a long cell's heap
//! high-water mark must match a short one's, because traces stream
//! from the generator and the engine folds metrics online instead of
//! accumulating histories. A run over several thermal models must peak
//! like a run over one, because the runner frees each model's stack,
//! network and factors after the last cell that uses them.
//!
//! The test binary installs [`CountingAllocator`] process-wide, so
//! everything lives in ONE `#[test]` — a second concurrent test would
//! pollute the counters. Debug builds shrink the durations (the memory
//! claim is duration-independent, so it holds in any profile); CI runs
//! this file under `--release` with the real 60 s vs 3600 s split.

use therm3d_floorplan::{Experiment, StackOrder};
use therm3d_policies::PolicyKind;
use therm3d_sweep::{SweepCell, SweepSpec};
use therm3d_telemetry::alloc::{allocation_count, high_water_bytes, reset_high_water};
use therm3d_telemetry::CountingAllocator;
use therm3d_thermal::TsvVariant;
use therm3d_workload::Benchmark;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

const RELEASE: bool = !cfg!(debug_assertions);

fn durations() -> (f64, f64) {
    if RELEASE {
        (60.0, 3600.0)
    } else {
        (5.0, 50.0)
    }
}

fn spec(sim_seconds: f64) -> SweepSpec {
    SweepSpec::new("throughput-scale")
        .with_experiments(&[Experiment::Exp1])
        .with_policies(&[PolicyKind::Adapt3d])
        .with_benchmarks(&[Benchmark::Gzip])
        .with_sim_seconds(sim_seconds)
        .with_grid(4, 4)
        .with_threads(1)
}

fn cell(spec: &SweepSpec) -> SweepCell {
    therm3d_sweep::expand(spec).remove(0)
}

/// Runs one cell and returns (heap high-water delta, allocs, result).
fn measure(sim_seconds: f64) -> (usize, usize, therm3d::RunResult) {
    let spec = spec(sim_seconds);
    let cell = cell(&spec);
    let base = reset_high_water();
    let allocs0 = allocation_count();
    let result = therm3d_sweep::run_cell(&spec, &cell);
    let hw = high_water_bytes().saturating_sub(base);
    (hw, allocation_count() - allocs0, result)
}

/// Two EXP-1 cells (two policies) per seed and thermal-model
/// fingerprint, one fingerprint per stack order and TSV variant, on one
/// thread, at the paper's 8×8 grid.
fn retention_spec(seeds: &[u64], orders: &[StackOrder], tsv: &[TsvVariant]) -> SweepSpec {
    spec(durations().0)
        .with_grid(8, 8)
        .with_policies(&[PolicyKind::Default, PolicyKind::Adapt3d])
        .with_seeds(seeds)
        .with_stack_orders(orders)
        .with_tsv(tsv)
}

/// The heap high-water delta of one uncached run of `spec`.
fn run_high_water(spec: &SweepSpec) -> usize {
    let base = reset_high_water();
    let report = therm3d_sweep::run(spec).expect("the run succeeds");
    let hw = high_water_bytes().saturating_sub(base);
    assert_eq!(report.rows.len(), spec.cell_count());
    hw
}

#[test]
fn streaming_heap_high_water_is_duration_independent() {
    let (short_s, long_s) = durations();

    // Warm-up run, so the measured runs see steady-state allocator
    // pools.
    let warm = spec(short_s);
    let _ = therm3d_sweep::run_cell(&warm, &cell(&warm));

    let (hw_short, allocs_short, short_result) = measure(short_s);
    let (hw_long, allocs_long, long_result) = measure(long_s);
    assert!(short_result.perf.completed > 0, "short run must simulate work");
    assert!(
        long_result.perf.completed > short_result.perf.completed,
        "the long run simulates more jobs ({} vs {})",
        long_result.perf.completed,
        short_result.perf.completed
    );

    // The acceptance bound: simulating 60x the duration may not grow
    // the heap high-water mark beyond 25%. With streamed traces and
    // online metric folds the usual reading is a ratio of exactly 1.
    let ratio = hw_long as f64 / hw_short.max(1) as f64;
    assert!(
        ratio <= 1.25,
        "heap high-water must be duration-independent: \
         {hw_short} B at {short_s} sim-s vs {hw_long} B at {long_s} sim-s (ratio {ratio:.3})"
    );

    // Bounded retention: a run keeps no group's stack, network or
    // factors once the group's last cell is done, so four fingerprint
    // groups in one thread peak like one group of the same size, also
    // when each group's cells spread over two seeds.
    for seeds in [&[2009][..], &[2009, 2010]] {
        let one = retention_spec(seeds, &[StackOrder::CoresFarFromSink], &[TsvVariant::Paper]);
        let four =
            retention_spec(seeds, &StackOrder::ALL, &[TsvVariant::Paper, TsvVariant::Dense1Pct]);
        let (hw_one, hw_four) = (run_high_water(&one), run_high_water(&four));
        eprintln!("retention, seeds {seeds:?}: {hw_one} B for one group, {hw_four} B for four");
        let ratio = hw_four as f64 / hw_one.max(1) as f64;
        assert!(
            ratio <= 1.1,
            "finished groups must release their models (seeds {seeds:?}): \
             {hw_one} B for one group vs {hw_four} B for four (ratio {ratio:.3})"
        );
    }

    // Allocation-count sanity: the tick loop is allocation-free, so the
    // extra simulated seconds cost far less than one allocation per
    // tick (10 ticks per simulated second).
    let allocs_per_sim_s = (allocs_long as f64 - allocs_short as f64) / (long_s - short_s);
    assert!(
        allocs_per_sim_s < 1000.0,
        "tick-loop allocations regressed: {allocs_per_sim_s:.1} allocs per simulated second \
         ({allocs_short} at {short_s} s, {allocs_long} at {long_s} s)"
    );
}
