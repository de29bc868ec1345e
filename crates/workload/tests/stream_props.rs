//! The stream contract, checked for any trace configuration and any
//! benchmark mix: arrivals are non-decreasing and fall within the
//! duration, ids run `0..n` in order, two streams of one configuration
//! yield the same jobs, and a drained stream stays exhausted.
//!
//! Nothing downstream re-sorts jobs: the engine's one-job lookahead and
//! `therm3d trace --csv` consume a stream in the order it emits.

use proptest::prelude::*;

use therm3d_workload::{stream_mix, Benchmark, Job, JobSource, TraceConfig};

fn any_benchmark() -> impl Strategy<Value = Benchmark> {
    prop::sample::select(Benchmark::ALL.to_vec())
}

/// Drains `source`, then checks that it stays exhausted.
fn drain(mut source: impl JobSource) -> Vec<Job> {
    let jobs: Vec<Job> = std::iter::from_fn(|| source.next_job()).collect();
    for _ in 0..3 {
        prop_assert!(source.next_job().is_none(), "a drained stream must stay exhausted");
    }
    jobs
}

/// Arrival order within `[0, duration_s)` and ids `0..n` in order.
fn assert_ordered(jobs: &[Job], duration_s: f64) {
    let mut last = 0.0;
    for (i, job) in jobs.iter().enumerate() {
        prop_assert_eq!(job.id, i as u64, "ids must run 0..n in order");
        prop_assert!(job.arrival_s >= last, "job {i} arrives at {} before {last}", job.arrival_s);
        prop_assert!(job.arrival_s < duration_s, "job {i} arrives at {}", job.arrival_s);
        last = job.arrival_s;
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn trace_stream_keeps_the_contract(
        bench in any_benchmark(),
        seed in 0u64..1000,
        n_cores in 1usize..32,
        duration in 2.0f64..45.0,
        burstiness in 0.0f64..0.95,
    ) {
        let cfg =
            TraceConfig::new(bench, n_cores, duration).with_seed(seed).with_burstiness(burstiness);
        let jobs = drain(cfg.stream());
        assert_ordered(&jobs, duration);
        prop_assert_eq!(drain(cfg.stream()), jobs, "two streams of one config must agree");
    }

    #[test]
    fn mix_stream_keeps_the_contract(
        benchmarks in prop::collection::vec(any_benchmark(), 1..5),
        seed in 0u64..500,
        n_cores in 1usize..24,
        duration in 2.0f64..30.0,
    ) {
        let jobs = drain(stream_mix(&benchmarks, n_cores, duration, seed));
        assert_ordered(&jobs, duration);
        prop_assert_eq!(
            drain(stream_mix(&benchmarks, n_cores, duration, seed)),
            jobs,
            "two streams of one mix must agree"
        );
    }
}
