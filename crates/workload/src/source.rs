//! Streaming job sources: lazy, seeded generators that yield
//! arrival-ordered jobs on demand at O(1) memory in the trace duration.
//!
//! [`TraceStream`] is the trace generator itself: a state machine over
//! the modulated-Poisson arrival walk that emits one job per call
//! without ever holding the trace. [`MixStream`] chains one stream per
//! benchmark slot, moving a single [`ZipfSampler`] between slots
//! instead of rebuilding the CDF per slot. Jobs exist only in this
//! form: a consumer that needs a count or a total folds over the
//! stream, and one that replays the same jobs builds a fresh stream.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::benchmark::Benchmark;
use crate::gen::{hash_benchmark, sample_exp, sample_lognormal, TraceConfig, ZipfSampler};
use crate::job::Job;

/// A source of arrival-ordered jobs.
///
/// Implementations must yield jobs with non-decreasing `arrival_s`; the
/// engine consumes them through a one-job peek ([`SourceCursor`]) and
/// never looks further ahead, which is what keeps memory O(1) in the
/// simulated duration.
pub trait JobSource {
    /// The next job in arrival order, or `None` once the source is
    /// exhausted (sources stay exhausted: further calls keep returning
    /// `None`).
    fn next_job(&mut self) -> Option<Job>;
}

/// One-job lookahead over a [`JobSource`], answering the engine's two
/// per-tick queries: are arrivals pending, and hand me everything due
/// by `now`.
#[derive(Debug, Clone)]
pub struct SourceCursor<S> {
    source: S,
    peeked: Option<Job>,
    exhausted: bool,
}

impl<S: JobSource> SourceCursor<S> {
    /// Wraps a source.
    pub fn new(source: S) -> Self {
        Self { source, peeked: None, exhausted: false }
    }

    // region(alloc-free: job-advance)
    fn fill(&mut self) {
        if self.peeked.is_none() && !self.exhausted {
            self.peeked = self.source.next_job();
            if self.peeked.is_none() {
                self.exhausted = true;
            }
        }
    }

    /// Pops the next job if it has arrived by `now_s`; call in a loop to
    /// drain all arrivals due this tick.
    pub fn next_until(&mut self, now_s: f64) -> Option<Job> {
        self.fill();
        match self.peeked {
            Some(job) if job.arrival_s <= now_s => {
                self.peeked = None;
                Some(job)
            }
            _ => None,
        }
    }

    /// `true` while undelivered jobs remain (pulls the lookahead job on
    /// demand; the generator's RNG is independent of simulation state,
    /// so eager pulls cannot perturb the stream).
    pub fn has_pending(&mut self) -> bool {
        self.fill();
        self.peeked.is_some()
    }
    // end-region
}

/// The synthetic trace generator: the modulated-Poisson arrival walk
/// carried as stream state, one job materialized per
/// [`next_job`](JobSource::next_job) call.
///
/// # Examples
///
/// ```
/// use therm3d_workload::{Benchmark, JobSource, TraceConfig};
///
/// let cfg = TraceConfig::new(Benchmark::WebMed, 8, 30.0).with_seed(7);
/// let mut stream = cfg.stream();
/// let mut last = 0.0;
/// while let Some(job) = stream.next_job() {
///     assert!(job.arrival_s >= last && job.arrival_s < 30.0);
///     last = job.arrival_s;
/// }
/// ```
#[derive(Debug, Clone)]
pub struct TraceStream {
    config: TraceConfig,
    rng: StdRng,
    base_rate: f64,
    mu: f64,
    mem: f64,
    threads: ZipfSampler,
    t: f64,
    id: u64,
    phase_high: bool,
    phase_end: f64,
    done: bool,
}

impl TraceStream {
    /// Builds the stream (and its thread sampler) for a configuration.
    #[must_use]
    pub fn new(config: &TraceConfig) -> Self {
        Self::with_sampler(config.clone(), ZipfSampler::new(config.n_threads(), config.zipf_s))
    }

    /// Builds the stream around a caller-provided sampler so consecutive
    /// streams over the same thread population (e.g. [`MixStream`]'s
    /// slots) skip the CDF rebuild.
    ///
    /// # Panics
    ///
    /// Panics if `threads` was built for a different population size.
    #[must_use]
    pub fn with_sampler(config: TraceConfig, threads: ZipfSampler) -> Self {
        assert_eq!(threads.len(), config.n_threads(), "sampler population mismatch");
        let stats = config.benchmark.stats();
        let mut rng = StdRng::seed_from_u64(config.seed ^ hash_benchmark(config.benchmark));
        // Offered load = λ · E[S] = U · N  ⇒  λ = U·N / E[S].
        let base_rate = stats.avg_utilization * config.n_cores as f64 / config.mean_job_s;
        let mu = config.mean_job_s.ln() - config.job_sigma * config.job_sigma / 2.0;
        let mem = stats.memory_intensity();
        let phase_high = rng.gen_bool(0.5);
        let phase_end = sample_exp(&mut rng, 1.0 / config.phase_mean_s);
        Self {
            config,
            rng,
            base_rate,
            mu,
            mem,
            threads,
            t: 0.0,
            id: 0,
            phase_high,
            phase_end,
            done: false,
        }
    }

    /// Recovers the sampler for reuse by a successor stream.
    #[must_use]
    pub fn into_sampler(self) -> ZipfSampler {
        self.threads
    }
}

impl JobSource for TraceStream {
    // region(alloc-free: job-advance)
    fn next_job(&mut self) -> Option<Job> {
        if self.done {
            return None;
        }
        loop {
            let rate = if self.phase_high {
                self.base_rate * (1.0 + self.config.burstiness)
            } else {
                self.base_rate * (1.0 - self.config.burstiness)
            };
            // With a (near-)zero rate, skip straight to the next phase.
            let dt = if rate > 1e-12 { sample_exp(&mut self.rng, rate) } else { f64::INFINITY };
            if self.t + dt > self.phase_end {
                self.t = self.phase_end;
                if self.t >= self.config.duration_s {
                    self.done = true;
                    return None;
                }
                self.phase_high = !self.phase_high;
                self.phase_end = self.t + sample_exp(&mut self.rng, 1.0 / self.config.phase_mean_s);
                continue;
            }
            self.t += dt;
            if self.t >= self.config.duration_s {
                self.done = true;
                return None;
            }
            let work =
                sample_lognormal(&mut self.rng, self.mu, self.config.job_sigma).clamp(0.005, 30.0);
            let mem_jitter = (self.mem + self.rng.gen_range(-0.05..0.05)).clamp(0.0, 1.0);
            let thread = self.threads.sample(&mut self.rng) as u64;
            let job = Job::new(self.id, self.t, work, mem_jitter, self.config.benchmark)
                .with_thread(thread);
            self.id += 1;
            return Some(job);
        }
    }
    // end-region
}

/// Benchmarks chained over equal duration slots: each slot's jobs are
/// shifted to the slot's start and re-numbered across the mix, with the
/// Zipf sampler handed from slot to slot (every slot shares the same
/// thread population).
#[derive(Debug, Clone)]
pub struct MixStream {
    benchmarks: Vec<Benchmark>,
    n_cores: usize,
    slot_s: f64,
    seed: u64,
    slot: usize,
    current: Option<TraceStream>,
    next_id: u64,
}

impl MixStream {
    /// Builds the stream over `benchmarks`, each given an equal share
    /// of `duration_s`; slot `i` is seeded with `seed + i`.
    ///
    /// # Panics
    ///
    /// Panics if `benchmarks` is empty or the base config is invalid.
    #[must_use]
    pub fn new(benchmarks: &[Benchmark], n_cores: usize, duration_s: f64, seed: u64) -> Self {
        assert!(!benchmarks.is_empty(), "need at least one benchmark");
        let slot_s = duration_s / benchmarks.len() as f64;
        let first = TraceConfig::new(benchmarks[0], n_cores, slot_s).with_seed(seed);
        Self {
            benchmarks: benchmarks.to_vec(),
            n_cores,
            slot_s,
            seed,
            slot: 0,
            current: Some(TraceStream::new(&first)),
            next_id: 0,
        }
    }
}

impl JobSource for MixStream {
    // region(alloc-free: job-advance)
    fn next_job(&mut self) -> Option<Job> {
        loop {
            let stream = self.current.as_mut()?;
            if let Some(j) = stream.next_job() {
                let i = self.slot;
                let job = Job::new(
                    self.next_id,
                    j.arrival_s + i as f64 * self.slot_s,
                    j.work_s,
                    j.memory_intensity,
                    j.benchmark,
                )
                // Keep per-benchmark thread populations disjoint.
                .with_thread(j.thread_id + ((i as u64) << 32));
                self.next_id += 1;
                return Some(job);
            }
            // Slot drained: hand the sampler to the next slot's stream.
            let sampler = self.current.take().map(TraceStream::into_sampler)?;
            self.slot += 1;
            if self.slot >= self.benchmarks.len() {
                return None;
            }
            let cfg = TraceConfig::new(self.benchmarks[self.slot], self.n_cores, self.slot_s)
                .with_seed(self.seed.wrapping_add(self.slot as u64));
            self.current = Some(TraceStream::with_sampler(cfg, sampler));
        }
    }
    // end-region
}

/// A [`MixStream`] over `benchmarks` (see [`MixStream::new`]).
///
/// # Panics
///
/// Panics if `benchmarks` is empty or the base config is invalid.
#[must_use]
pub fn stream_mix(
    benchmarks: &[Benchmark],
    n_cores: usize,
    duration_s: f64,
    seed: u64,
) -> MixStream {
    MixStream::new(benchmarks, n_cores, duration_s, seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(mut s: impl JobSource) -> Vec<Job> {
        std::iter::from_fn(|| s.next_job()).collect()
    }

    #[test]
    fn single_benchmark_mix_is_the_plain_trace() {
        // A one-slot mix re-times by zero and re-numbers from zero, so
        // it yields the plain stream's jobs bit for bit.
        for b in [Benchmark::WebMed, Benchmark::Gzip, Benchmark::Database] {
            for seed in [1u64, 2009, 0xDEAD_BEEF] {
                let plain = TraceConfig::new(b, 16, 30.0).with_seed(seed).stream();
                assert_eq!(drain(stream_mix(&[b], 16, 30.0, seed)), drain(plain), "{b} {seed}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "sampler population mismatch")]
    fn wrong_sampler_population_rejected() {
        let cfg = TraceConfig::new(Benchmark::Database, 8, 30.0);
        let zipf_s = cfg.zipf_s;
        let _ = TraceStream::with_sampler(cfg, ZipfSampler::new(3, zipf_s));
    }

    #[test]
    fn source_cursor_delivers_arrivals_in_tick_batches() {
        let cfg = TraceConfig::new(Benchmark::WebHigh, 8, 12.0).with_seed(4);
        let jobs = drain(cfg.stream());
        let mut cursor = SourceCursor::new(cfg.stream());
        let (mut taken, mut now) = (0, 0.0);
        while now < 14.0 {
            let due = jobs.iter().filter(|j| j.arrival_s <= now).count();
            while let Some(job) = cursor.next_until(now) {
                assert_eq!(job, jobs[taken]);
                taken += 1;
            }
            assert_eq!(taken, due, "batch mismatch at t={now}");
            now += 0.1;
        }
        assert!(!cursor.has_pending());
    }
}
