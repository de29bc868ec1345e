//! Property tests for the streaming trace path: for *any* trace
//! configuration, lazily draining a [`JobSource`] must yield exactly the
//! jobs that `generate()` materializes — same count, same order, same
//! bits. `generate()` collects the same stream and then sorts it by
//! arrival (`JobTrace::new`), so equality proves the stream already
//! arrives in order — the contract the engine's one-job lookahead
//! relies on.

use proptest::prelude::*;

use therm3d_workload::{generate_mix, stream_mix, Benchmark, Job, JobSource, TraceConfig};

fn any_benchmark() -> impl Strategy<Value = Benchmark> {
    prop::sample::select(Benchmark::ALL.to_vec())
}

/// Drains a [`JobSource`] to completion into a vector.
fn drain(mut source: impl JobSource) -> Vec<Job> {
    let mut jobs = Vec::new();
    while let Some(job) = source.next_job() {
        jobs.push(job);
    }
    jobs
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn stream_yields_exactly_the_materialized_jobs(
        bench in any_benchmark(),
        seed in 0u64..1000,
        n_cores in 1usize..32,
        duration in 2.0f64..45.0,
    ) {
        let cfg = TraceConfig::new(bench, n_cores, duration).with_seed(seed);
        let materialized = cfg.generate();
        let streamed = drain(cfg.stream());
        prop_assert_eq!(
            streamed.as_slice(),
            materialized.jobs(),
            "stream must replay the generator bit for bit"
        );
    }

    #[test]
    fn mix_stream_yields_exactly_the_materialized_mix(
        benchmarks in prop::collection::vec(any_benchmark(), 1..4),
        seed in 0u64..500,
        n_cores in 1usize..24,
        duration in 2.0f64..30.0,
    ) {
        let materialized = generate_mix(&benchmarks, n_cores, duration, seed);
        let streamed = drain(stream_mix(&benchmarks, n_cores, duration, seed));
        prop_assert_eq!(
            streamed.as_slice(),
            materialized.jobs(),
            "mix stream must match the merged materialized trace"
        );
    }
}
