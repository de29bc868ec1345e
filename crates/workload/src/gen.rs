//! Synthetic trace generation matched to the Table I characteristics.
//!
//! **Substitution note (DESIGN.md §4):** the paper replays half-hour
//! `mpstat`/DTrace traces recorded on real UltraSPARC T1 hardware; those
//! traces are not distributable. This module generates statistically
//! matched job streams instead: a two-state (burst/calm) modulated Poisson
//! arrival process whose offered load equals the benchmark's Table I
//! average utilization, with lognormal service demands and the benchmark's
//! memory intensity. The policies, power model and thermal model consume
//! the same quantities either way — time-varying per-core utilization and
//! memory traffic — so every code path the paper exercises is exercised
//! here.

use rand::rngs::StdRng;
use rand::Rng;

use crate::benchmark::Benchmark;

/// Configuration for synthetic trace generation.
///
/// # Examples
///
/// ```
/// use therm3d_workload::{Benchmark, JobSource, TraceConfig};
///
/// let mut jobs = TraceConfig::new(Benchmark::WebMed, 8, 600.0).with_seed(7).stream();
/// let mut work_s = 0.0;
/// while let Some(job) = jobs.next_job() {
///     work_s += job.work_s;
/// }
/// let offered = work_s / (600.0 * 8.0);
/// assert!((offered - 0.5312).abs() < 0.12, "offered load tracks Table I: {offered}");
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TraceConfig {
    /// The benchmark whose Table I statistics to match.
    pub benchmark: Benchmark,
    /// Number of cores the load targets (8 for EXP-1/2, 16 for EXP-3/4;
    /// the paper duplicates the 8-core workload for 16-core systems).
    pub n_cores: usize,
    /// Trace duration in seconds (the paper uses 30-minute traces).
    pub duration_s: f64,
    /// RNG seed; identical configurations generate identical traces.
    pub seed: u64,
    /// Mean CPU demand per job in seconds.
    pub mean_job_s: f64,
    /// Lognormal shape parameter for job sizes (0 = deterministic).
    pub job_sigma: f64,
    /// Arrival-rate modulation depth in `[0, 1)`: the burst phase runs at
    /// `(1+b)·λ`, the calm phase at `(1−b)·λ`.
    pub burstiness: f64,
    /// Mean phase duration of the burst/calm alternation, seconds.
    pub phase_mean_s: f64,
    /// Number of persistent OS threads generating the bursts, as a
    /// multiple of the core count (a web server runs 20–40 threads on the
    /// 8-core T1). Affinity dispatchers key on thread identity.
    pub threads_per_core: f64,
    /// Zipf exponent of thread popularity: a few hot threads produce most
    /// bursts, creating the load imbalance real dispatchers exhibit.
    pub zipf_s: f64,
}

impl TraceConfig {
    /// Creates a configuration with the default stochastic shape
    /// (0.5 s mean jobs, σ = 0.8, burstiness 0.6, 10 s phases, seed 42).
    ///
    /// # Panics
    ///
    /// Panics if `n_cores` is zero or `duration_s` is not positive.
    #[must_use]
    pub fn new(benchmark: Benchmark, n_cores: usize, duration_s: f64) -> Self {
        assert!(n_cores > 0, "need at least one core");
        assert!(duration_s > 0.0 && duration_s.is_finite(), "duration must be positive");
        Self {
            benchmark,
            n_cores,
            duration_s,
            seed: 42,
            mean_job_s: 0.5,
            job_sigma: 0.8,
            burstiness: 0.6,
            phase_mean_s: 10.0,
            threads_per_core: 3.0,
            zipf_s: 1.1,
        }
    }

    /// Sets the RNG seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the burstiness (arrival-rate modulation depth) in `[0, 1)`.
    ///
    /// # Panics
    ///
    /// Panics if `burstiness` is outside `[0, 1)`.
    #[must_use]
    pub fn with_burstiness(mut self, burstiness: f64) -> Self {
        assert!((0.0..1.0).contains(&burstiness), "burstiness must be in [0,1)");
        self.burstiness = burstiness;
        self
    }

    /// The thread-population size the Zipf dispatcher draws from.
    #[must_use]
    pub fn n_threads(&self) -> usize {
        ((self.n_cores as f64 * self.threads_per_core).round() as usize).max(1)
    }

    /// A lazy, arrival-ordered stream of this configuration's jobs at
    /// O(1) memory in the trace duration. See
    /// [`TraceStream`](crate::source::TraceStream).
    #[must_use]
    pub fn stream(&self) -> crate::source::TraceStream {
        crate::source::TraceStream::new(self)
    }
}

/// Inverse-transform sampler over a Zipf thread-popularity law.
///
/// The CDF is built once and reused across every draw — and, via
/// [`MixStream`](crate::source::MixStream), across the benchmark slots
/// of a mix.
#[derive(Debug, Clone, PartialEq)]
pub struct ZipfSampler {
    cdf: Vec<f64>,
}

impl ZipfSampler {
    /// Builds the sampler for a Zipf law with exponent `s` over `n`
    /// threads.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    #[must_use]
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "need at least one thread");
        Self { cdf: zipf_cdf(n, s) }
    }

    /// The population size the sampler was built for.
    #[must_use]
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// Always false: the population is non-empty by construction.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.cdf.is_empty()
    }

    /// Draws a thread index in `0..len()`, allocation-free.
    pub fn sample(&self, rng: &mut StdRng) -> usize {
        sample_cdf(rng, &self.cdf)
    }
}

pub(crate) fn hash_benchmark(b: Benchmark) -> u64 {
    // Stable per-benchmark stream separation so that the same seed gives
    // independent traces per benchmark.
    0x9e37_79b9_7f4a_7c15u64.wrapping_mul(b.table_index() as u64)
}

/// Cumulative distribution of a Zipf law with exponent `s` over `n`
/// items.
fn zipf_cdf(n: usize, s: f64) -> Vec<f64> {
    let mut cdf = Vec::with_capacity(n);
    let mut acc = 0.0;
    for k in 1..=n {
        acc += 1.0 / (k as f64).powf(s);
        cdf.push(acc);
    }
    let total = acc;
    for c in &mut cdf {
        *c /= total;
    }
    cdf
}

/// Samples an index from a CDF via inverse transform.
fn sample_cdf(rng: &mut StdRng, cdf: &[f64]) -> usize {
    let u: f64 = rng.gen_range(0.0..1.0);
    cdf.partition_point(|&c| c < u).min(cdf.len() - 1)
}

/// Exponential variate with rate `lambda` via inverse transform.
pub(crate) fn sample_exp(rng: &mut StdRng, lambda: f64) -> f64 {
    let u: f64 = rng.gen_range(f64::EPSILON..1.0);
    -u.ln() / lambda
}

/// Lognormal variate `exp(N(mu, sigma))` via Box–Muller.
pub(crate) fn sample_lognormal(rng: &mut StdRng, mu: f64, sigma: f64) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
    (mu + sigma * z).exp()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::Job;
    use crate::source::{stream_mix, JobSource};

    fn drain(mut source: impl JobSource) -> Vec<Job> {
        std::iter::from_fn(|| source.next_job()).collect()
    }

    fn total_work_s(cfg: &TraceConfig) -> f64 {
        drain(cfg.stream()).iter().map(|j| j.work_s).sum()
    }

    #[test]
    fn different_seeds_differ() {
        let a = drain(TraceConfig::new(Benchmark::WebMed, 8, 30.0).with_seed(1).stream());
        let b = drain(TraceConfig::new(Benchmark::WebMed, 8, 30.0).with_seed(2).stream());
        assert_ne!(a, b);
    }

    #[test]
    fn offered_load_matches_table_i() {
        // Long trace so the law of large numbers applies.
        for b in [Benchmark::WebMed, Benchmark::WebHigh, Benchmark::Database, Benchmark::Gzip] {
            let cfg = TraceConfig::new(b, 8, 600.0).with_seed(11);
            let offered = total_work_s(&cfg) / (600.0 * 8.0);
            let target = b.stats().avg_utilization;
            assert!(
                (offered - target).abs() < 0.12 * target.max(0.1),
                "{b}: offered {offered:.3} vs target {target:.3}"
            );
        }
    }

    #[test]
    fn memory_intensity_tracks_benchmark() {
        let avg = |b: Benchmark| {
            let jobs = drain(TraceConfig::new(b, 8, 60.0).stream());
            jobs.iter().map(|j| j.memory_intensity).sum::<f64>() / jobs.len().max(1) as f64
        };
        assert!(avg(Benchmark::WebHigh) > avg(Benchmark::Gzip) + 0.3);
    }

    #[test]
    fn sixteen_core_trace_scales_load() {
        let w8 = total_work_s(&TraceConfig::new(Benchmark::WebMed, 8, 300.0));
        let w16 = total_work_s(&TraceConfig::new(Benchmark::WebMed, 16, 300.0));
        assert!(w16 > 1.5 * w8, "16-core work {w16} should be ~2x 8-core {w8}");
    }

    #[test]
    fn mix_concatenates_time_slots() {
        let mix = drain(stream_mix(&[Benchmark::Gzip, Benchmark::WebHigh], 8, 40.0, 3));
        let early: Vec<_> =
            mix.iter().filter(|j| j.arrival_s < 20.0).map(|j| j.benchmark).collect();
        let late: Vec<_> =
            mix.iter().filter(|j| j.arrival_s >= 20.0).map(|j| j.benchmark).collect();
        assert!(early.iter().all(|&b| b == Benchmark::Gzip));
        assert!(late.iter().all(|&b| b == Benchmark::WebHigh));
    }

    #[test]
    fn thread_population_is_bounded_and_skewed() {
        let cfg = TraceConfig::new(Benchmark::WebHigh, 8, 120.0).with_seed(9);
        let jobs = drain(cfg.stream());
        let n_threads = (8.0 * cfg.threads_per_core) as u64;
        let mut counts = std::collections::BTreeMap::new();
        for j in &jobs {
            assert!(j.thread_id < n_threads, "thread {} out of range", j.thread_id);
            *counts.entry(j.thread_id).or_insert(0usize) += 1;
        }
        // Zipf skew: the most popular thread produces several times the
        // mean number of bursts.
        let max = counts.values().copied().max().unwrap();
        let mean = jobs.len() as f64 / counts.len() as f64;
        assert!(max as f64 > 2.0 * mean, "max {max} vs mean {mean:.1}");
    }

    #[test]
    fn zipf_cdf_is_normalized_and_monotonic() {
        let cdf = zipf_cdf(10, 1.1);
        assert_eq!(cdf.len(), 10);
        assert!((cdf[9] - 1.0).abs() < 1e-12);
        for w in cdf.windows(2) {
            assert!(w[1] > w[0]);
        }
        assert!(cdf[0] > 0.2, "head item carries Zipf mass");
    }

    #[test]
    #[should_panic(expected = "at least one core")]
    fn zero_cores_rejected() {
        let _ = TraceConfig::new(Benchmark::Gcc, 0, 10.0);
    }

    #[test]
    #[should_panic(expected = "burstiness")]
    fn bad_burstiness_rejected() {
        let _ = TraceConfig::new(Benchmark::Gcc, 8, 10.0).with_burstiness(1.0);
    }
}
