//! The result-line codec allocates only what its output owns: decoding
//! an intact line allocates twice (the descriptor and the policy name
//! of the result), and encoding a result once (the line). Every warm
//! re-run decodes each stored line, and every served result is encoded
//! by its worker and decoded by the coordinator.
//!
//! The test binary installs [`CountingAllocator`] process-wide, so
//! everything lives in ONE `#[test]`: a second concurrent test would
//! pollute the counter. The test harness's own thread still allocates a
//! few times while the test starts, which can only add to a count; a
//! codec that really allocates does so on every call, so each case is
//! counted twice and the smaller count must meet the budget exactly.

use therm3d::metrics::PerformanceStats;
use therm3d::RunResult;
use therm3d_floorplan::Experiment;
use therm3d_policies::PolicyKind;
use therm3d_sweep::cache::cell_key_salted;
use therm3d_sweep::{
    cell_key, decode_line, encode_line, expand, CellKey, SweepSpec, ENGINE_VERSION,
};
use therm3d_telemetry::alloc::allocation_count;
use therm3d_telemetry::CountingAllocator;
use therm3d_workload::Benchmark;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// Allocations made by `f`: the smaller count of two calls.
fn allocations<T>(mut f: impl FnMut() -> T) -> usize {
    let mut counts = [0; 2];
    for count in &mut counts {
        let before = allocation_count();
        let out = std::hint::black_box(f());
        *count = allocation_count() - before;
        drop(out);
    }
    counts[0].min(counts[1])
}

/// A result as a simulated cell reports it: floats that need all 17
/// digits, and the policy's label.
fn result(policy: &str) -> RunResult {
    RunResult {
        policy: policy.to_owned(),
        experiment: Experiment::Exp3,
        duration_s: 2.0,
        hotspot_pct: 0.1 + 0.2,
        gradient_pct: 3.571_428_571_428_571,
        cycle_pct: 0.0,
        vertical_peak_c: 4.512_345_678_901_234,
        vertical_mean_c: 2.250_000_000_000_001,
        peak_temp_c: 81.123_456_789_012_34,
        perf: PerformanceStats::from_accumulated(57, 0.5 + 0.7 + 1.9, 1.9),
        energy_j: 1_234.567_890_123_456_7,
        mean_power_w: 51.3,
        migrations: 42,
        unfinished: 3,
    }
}

#[test]
fn the_codec_allocates_only_what_its_output_owns() {
    let spec = SweepSpec::new("codec-allocs")
        .with_experiments(&Experiment::ALL)
        .with_policies(&PolicyKind::ALL)
        .with_dpm(&[false, true])
        .with_benchmarks(&[Benchmark::WebMed, Benchmark::Gzip])
        .with_sim_seconds(2.0)
        .with_grid(4, 4);
    let cells = expand(&spec);
    // The cell of the longest descriptor, and ones whose salt or policy
    // text the codec must escape.
    let cases: Vec<(CellKey, RunResult)> = [
        (ENGINE_VERSION, "Adapt3D&DVFS_TT+DPM"),
        (ENGINE_VERSION, "tab\there, new\nline"),
        ("salt\\with\tescapes", "Default"),
    ]
    .into_iter()
    .map(|(salt, policy)| {
        let cell = cells
            .iter()
            .max_by_key(|cell| cell_key(&spec, cell).descriptor().len())
            .expect("cells");
        (cell_key_salted(&spec, cell, salt), result(policy))
    })
    .collect();
    for (key, result) in &cases {
        let line = encode_line(key, result);
        assert_eq!(decode_line(&line).as_ref(), Some(&(key.clone(), result.clone())));
        assert_eq!(allocations(|| encode_line(key, result)), 1, "encoding {line:?}");
        assert_eq!(allocations(|| decode_line(&line)), 2, "decoding {line:?}");
    }
}
