//! Sweep-engine throughput bench emitting a `BENCH_sweep.json`
//! trajectory file (not a paper figure).
//!
//! Times the three phases a campaign spends its wall-clock in — matrix
//! expansion, parallel execution, report rendering — over a fixed
//! 4-cell spec, and writes the result as a
//! [`therm3d_telemetry::MetricsSnapshot`]: per-iteration timings land
//! in `bench.<phase>_us` histograms (the trajectory), medians in
//! `<phase>.median_us` gauges, and the context (`name`, `smoke`,
//! `engine` = the cache salt [`therm3d_sweep::ENGINE_VERSION`],
//! `samples`) in `meta`. CI archives the file per commit, so regressions
//! show up as a step in the gauge series under a stable schema.
//!
//! A second axis tracks solver scaling: the per-100 ms-tick cost of
//! the implicit and explicit-RK4 integrators on the two-die stack at
//! grid resolutions 8×8 → 64×64 lands in `grid{G}.implicit_tick_us` /
//! `grid{G}.rk4_tick_us` gauges (medians; per-sample timings in
//! `bench.grid{G}_*_us` histograms). CI asserts the ≥10× implicit
//! advantage at 64×64 from these gauges.
//!
//! A third axis measures throughput: one cell at a short and a long
//! simulated duration under the installed [`CountingAllocator`],
//! recording wall-us-per-simulated-second and the heap high-water mark
//! of each (`throughput.*` gauges). Because traces stream and metrics
//! fold online, the high-water ratio stays ≈1 however long the
//! simulation runs — CI asserts `throughput.heap_hw_ratio ≤ 1.25`.
//!
//! A fourth axis profiles allocations the way alligator-style fuzzing
//! harnesses do: seeded-random small workload configs, with the
//! allocation *count* of each phase (materialized generation, stream
//! setup, stream drain, simulation) recorded as a distribution. The
//! tripwire is `alloc.stream_drain_max`: draining a job stream after
//! setup must allocate exactly nothing (the `job-advance` lint region's
//! claim, enforced at runtime), so CI fails the bench if it ever rises
//! above zero.
//!
//! Usage: `bench_sweep [OUT.json]` (default `BENCH_sweep.json`);
//! `THERM3D_BENCH_SMOKE` shrinks the run to 3 samples, recorded in the
//! `smoke` meta key so smoke and full trajectories are never conflated.

use std::time::Instant;

use rand::{Rng, SeedableRng};
use therm3d_floorplan::Experiment;
use therm3d_policies::PolicyKind;
use therm3d_sweep::{SweepSpec, ENGINE_VERSION};
use therm3d_telemetry::{elapsed_us, CountingAllocator, Registry};
use therm3d_thermal::{Integrator, ThermalConfig, ThermalModel};
use therm3d_workload::{Benchmark, JobSource, TraceConfig};

// The whole point of this binary's memory axes: every reading below
// comes from the process's own allocator.
#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

fn bench_spec() -> SweepSpec {
    SweepSpec::new("bench-sweep")
        .with_experiments(&[Experiment::Exp1])
        .with_policies(&[PolicyKind::Default, PolicyKind::Adapt3d])
        .with_benchmarks(&[Benchmark::Gzip])
        .with_dpm(&[false, true])
        .with_sim_seconds(2.0)
        .with_grid(4, 4)
        .with_threads(2)
}

fn median(samples: &mut [u64]) -> u64 {
    samples.sort_unstable();
    samples[samples.len() / 2]
}

/// The solver-scaling axis: median per-tick cost of each integrator at
/// grid resolutions up to the 10⁴-node regime, on the two-die EXP-2
/// stack under the bench power pattern.
fn grid_axis(registry: &Registry, samples: usize) {
    let stack = Experiment::Exp2.stack();
    let powers: Vec<f64> = stack
        .sites()
        .iter()
        .map(|s| match s.kind {
            therm3d_floorplan::UnitKind::Core => 3.0,
            therm3d_floorplan::UnitKind::L2Cache => 1.28,
            _ => 2.0,
        })
        .collect();
    for g in [8usize, 16, 32, 64] {
        for (integ, label) in
            [(Integrator::ImplicitCn, "implicit"), (Integrator::ExplicitRk4, "rk4")]
        {
            let cfg = ThermalConfig::paper_default().with_grid(g, g).with_integrator(integ);
            let mut model = ThermalModel::new(&stack, cfg);
            model.set_block_powers(&powers);
            // Warm up: the implicit path analyzes and factors on first use.
            model.step(0.1);
            let mut tick_us = Vec::with_capacity(samples);
            for _ in 0..samples {
                let t0 = Instant::now();
                model.step(0.1);
                tick_us.push(elapsed_us(t0));
            }
            for &us in &tick_us {
                registry.histogram_us(&format!("bench.grid{g}_{label}_us")).record(us);
            }
            let med = median(&mut tick_us);
            #[allow(clippy::cast_precision_loss)]
            registry.gauge(&format!("grid{g}.{label}_tick_us")).set(med as f64);
            println!("bench_sweep/grid{g}.{label}: median {med} us ({samples} samples)");
        }
    }
}

/// The throughput axis: one cell at a short and a long simulated
/// duration, measuring wall time per simulated second and the heap
/// high-water mark of each run. Traces stream and metrics fold
/// online, so the long run's high-water mark must match the short
/// run's; the `throughput.heap_hw_ratio` gauge is CI's tripwire.
fn throughput_axis(registry: &Registry, smoke: bool) {
    let (short_s, long_s) = if smoke { (5.0, 50.0) } else { (60.0, 3600.0) };
    let mut readings: Vec<(f64, usize, usize)> = Vec::new();
    for (label, sim_s) in [("short", short_s), ("long", long_s)] {
        let spec = bench_spec().with_sim_seconds(sim_s);
        let cell = therm3d_sweep::expand(&spec).remove(0);
        let base = therm3d_telemetry::alloc::reset_high_water();
        let allocs0 = therm3d_telemetry::alloc::allocation_count();
        let t0 = Instant::now();
        let result = therm3d_sweep::run_cell(&spec, &cell);
        let wall_us = elapsed_us(t0);
        let hw = therm3d_telemetry::alloc::high_water_bytes().saturating_sub(base);
        let allocs = therm3d_telemetry::alloc::allocation_count() - allocs0;
        assert!(result.perf.completed > 0, "the cell must simulate work");
        #[allow(clippy::cast_precision_loss)]
        {
            registry.gauge(&format!("throughput.{label}_heap_hw_bytes")).set(hw as f64);
            registry.gauge(&format!("throughput.{label}_allocs")).set(allocs as f64);
            registry.gauge(&format!("throughput.{label}_us_per_sim_s")).set(wall_us as f64 / sim_s);
        }
        println!(
            "bench_sweep/throughput.{label}: {sim_s} sim-s, heap high-water {hw} B, \
             {allocs} allocs, {:.0} us/sim-s",
            wall_us as f64 / sim_s
        );
        readings.push((sim_s, hw, allocs));
    }
    let (short, long) = (readings[0], readings[1]);
    #[allow(clippy::cast_precision_loss)]
    let ratio = long.1 as f64 / short.1.max(1) as f64;
    registry.gauge("throughput.heap_hw_ratio").set(ratio);
    // Allocations the extra simulated seconds cost: with an
    // allocation-free tick loop this is amortized queue growth only,
    // far below one allocation per tick (10 ticks per simulated second).
    #[allow(clippy::cast_precision_loss)]
    let allocs_per_sim_s = (long.2 as f64 - short.2 as f64) / (long.0 - short.0);
    registry.gauge("throughput.allocs_per_sim_s").set(allocs_per_sim_s);
    println!(
        "bench_sweep/throughput: heap ratio {ratio:.3} ({} sim-s vs {} sim-s), \
         {allocs_per_sim_s:.2} allocs/sim-s",
        long.0, short.0
    );
}

/// The alloc-profile axis: seeded-random small workload configs, each
/// phase's allocation count recorded as a distribution. Streams must
/// drain without a single allocation (the `job-advance` alloc-free
/// region, enforced here at runtime on randomized inputs, not just on
/// the lint's static token scan).
fn alloc_profile_axis(registry: &Registry, samples: usize) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xA110_CA7E);
    let mut drain_max = 0usize;
    let mut gen_counts = Vec::with_capacity(samples);
    for _ in 0..samples {
        let bench = Benchmark::ALL[rng.gen_range(0..Benchmark::ALL.len())];
        let cores = rng.gen_range(2usize..16);
        let seconds = rng.gen_range(2.0f64..8.0);
        let seed = rng.gen_range(0u64..1 << 48);
        let cfg = TraceConfig::new(bench, cores, seconds).with_seed(seed);

        let a0 = therm3d_telemetry::alloc::allocation_count();
        let trace = cfg.generate();
        let gen_allocs = therm3d_telemetry::alloc::allocation_count() - a0;

        let a0 = therm3d_telemetry::alloc::allocation_count();
        let mut stream = cfg.stream();
        let setup_allocs = therm3d_telemetry::alloc::allocation_count() - a0;

        let a0 = therm3d_telemetry::alloc::allocation_count();
        let mut jobs = 0usize;
        while let Some(job) = stream.next_job() {
            jobs += 1;
            std::hint::black_box(job);
        }
        let drain_allocs = therm3d_telemetry::alloc::allocation_count() - a0;

        assert_eq!(jobs, trace.len(), "stream and materialized job counts agree");
        drain_max = drain_max.max(drain_allocs);
        gen_counts.push(gen_allocs as u64);
        registry.histogram_us("alloc.gen_allocs").record(gen_allocs as u64);
        registry.histogram_us("alloc.stream_setup_allocs").record(setup_allocs as u64);
        registry.histogram_us("alloc.stream_drain_allocs").record(drain_allocs as u64);
    }
    #[allow(clippy::cast_precision_loss)]
    registry.gauge("alloc.stream_drain_max").set(drain_max as f64);
    let med = median(&mut gen_counts);
    #[allow(clippy::cast_precision_loss)]
    registry.gauge("alloc.gen_allocs_median").set(med as f64);
    println!(
        "bench_sweep/alloc: gen median {med} allocs, stream drain max {drain_max} allocs \
         ({samples} samples)"
    );
}

fn main() {
    let out_path = std::env::args().nth(1).unwrap_or_else(|| "BENCH_sweep.json".into());
    let smoke = std::env::var_os("THERM3D_BENCH_SMOKE").is_some();
    let samples = therm3d_bench::smoke_samples(15);
    let spec = bench_spec();
    let registry = Registry::new(true);

    let mut expand_us = Vec::with_capacity(samples);
    let mut run_us = Vec::with_capacity(samples);
    let mut render_us = Vec::with_capacity(samples);
    for _ in 0..samples {
        let t0 = Instant::now();
        let cells = therm3d_sweep::expand(&spec);
        expand_us.push(elapsed_us(t0));
        assert_eq!(cells.len(), 4, "the bench matrix is fixed");

        let t0 = Instant::now();
        let report = therm3d_sweep::run(&spec).unwrap_or_else(|e| {
            eprintln!("error: bench sweep failed: {e}");
            std::process::exit(1);
        });
        run_us.push(elapsed_us(t0));

        let t0 = Instant::now();
        let csv = report.csv();
        render_us.push(elapsed_us(t0));
        assert_eq!(csv.lines().count(), 1 + 4, "header plus one row per cell");
    }

    registry.set_meta("name", "sweep");
    registry.set_meta("smoke", if smoke { "true" } else { "false" });
    registry.set_meta("engine", ENGINE_VERSION);
    registry.set_meta("samples", &samples.to_string());
    for (phase, timings) in
        [("expand", &mut expand_us), ("run", &mut run_us), ("render", &mut render_us)]
    {
        for &us in timings.iter() {
            registry.histogram_us(&format!("bench.{phase}_us")).record(us);
        }
        let med = median(timings);
        #[allow(clippy::cast_precision_loss)]
        registry.gauge(&format!("{phase}.median_us")).set(med as f64);
        println!("bench_sweep/{phase}: median {med} us ({samples} samples)");
    }

    grid_axis(&registry, samples);
    throughput_axis(&registry, smoke);
    alloc_profile_axis(&registry, samples);

    let snapshot = registry.snapshot();
    if let Err(e) = std::fs::write(&out_path, snapshot.to_json()) {
        eprintln!("error: cannot write `{out_path}`: {e}");
        std::process::exit(1);
    }
    println!("bench_sweep: wrote {out_path}");
}
