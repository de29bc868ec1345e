//! Draining a job stream allocates nothing: under the counting
//! allocator, once a stream is built, every `next_job` call up to
//! exhaustion makes zero heap allocations. This is the runtime check
//! behind the `job-advance` alloc-free regions in
//! `crates/workload/src/source.rs`, whose source the workspace's
//! `tests/source_invariants.rs` checks.
//!
//! Both stream kinds the engine consumes are drained: a single
//! benchmark's `TraceConfig::stream()` and `stream_mix`, which is what
//! every sweep cell feeds its simulator (a mix hands its Zipf sampler
//! from slot to slot, so slot changes must not allocate either). The
//! configurations are seeded and span small to large core counts.
//!
//! The test binary installs [`CountingAllocator`] process-wide, so
//! everything lives in ONE `#[test]`: a second concurrent test would
//! pollute the counter. The test harness's own thread still allocates a
//! few times while the test starts; a drain that really allocates does
//! so every time the same stream is drained, so each stream is drained
//! twice and the smaller count must be zero.

use therm3d_telemetry::alloc::allocation_count;
use therm3d_telemetry::CountingAllocator;
use therm3d_workload::{stream_mix, Benchmark, JobSource, TraceConfig};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// Simulated seconds per stream.
const SECONDS: f64 = 30.0;

const CORES: [usize; 4] = [2, 8, 16, 32];

const SEEDS: [u64; 5] = [0, 1, 2, 3, 4];

/// Jobs in a stream built by `make`, and the allocations made while
/// draining it after it is built (the smaller count of two drains).
fn drain<S: JobSource>(make: impl Fn() -> S) -> (usize, usize) {
    let mut readings = [(0, 0); 2];
    for reading in &mut readings {
        let mut source = make();
        let before = allocation_count();
        let mut jobs = 0usize;
        while let Some(job) = source.next_job() {
            jobs += 1;
            std::hint::black_box(job);
        }
        *reading = (jobs, allocation_count() - before);
    }
    assert_eq!(readings[0].0, readings[1].0, "a stream is deterministic");
    (readings[0].0, readings[0].1.min(readings[1].1))
}

#[test]
fn draining_a_job_stream_allocates_nothing() {
    let mut streams = 0usize;
    for cores in CORES {
        for seed in SEEDS {
            for bench in Benchmark::ALL {
                let cfg = TraceConfig::new(bench, cores, SECONDS).with_seed(seed);
                let (jobs, allocs) = drain(|| cfg.stream());
                assert!(jobs > 0, "{bench} on {cores} cores, seed {seed}: an empty stream");
                assert_eq!(
                    allocs, 0,
                    "{bench} on {cores} cores, seed {seed}: {allocs} allocations over {jobs} jobs"
                );
                streams += 1;
            }
            let (jobs, allocs) = drain(|| stream_mix(&Benchmark::ALL, cores, SECONDS, seed));
            assert!(jobs > 0, "mix on {cores} cores, seed {seed}: an empty stream");
            assert_eq!(
                allocs, 0,
                "mix on {cores} cores, seed {seed}: {allocs} allocations over {jobs} jobs"
            );
            streams += 1;
        }
    }
    assert_eq!(streams, CORES.len() * SEEDS.len() * (Benchmark::ALL.len() + 1));
}
