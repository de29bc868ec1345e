//! Jobs: the schedulable threads a trace delivers.

use std::fmt;

use crate::benchmark::Benchmark;

/// A unit of schedulable work: one thread burst extracted from (or
/// synthesized to match) the utilization traces.
///
/// `work_s` is CPU time at the default frequency; running at a scaled
/// frequency `f` stretches it to `work_s / f` of wall time. Completion
/// times against arrival times give the performance metric of Section V-A.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Job {
    /// Unique, monotonically increasing id within a trace.
    pub id: u64,
    /// Arrival time in seconds from trace start.
    pub arrival_s: f64,
    /// CPU demand in seconds at the default V/f setting.
    pub work_s: f64,
    /// Memory intensity in `[0, 1]` (from the benchmark's L2 miss rates).
    pub memory_intensity: f64,
    /// The benchmark this job belongs to.
    pub benchmark: Benchmark,
    /// Identity of the OS thread this burst belongs to. Affinity-based
    /// dispatchers (the Solaris default) send recurring threads back to
    /// the core they last ran on; defaults to `id` (every burst its own
    /// thread) unless set via [`with_thread`](Self::with_thread).
    pub thread_id: u64,
}

impl Job {
    /// Creates a job.
    ///
    /// # Panics
    ///
    /// Panics if `arrival_s` is negative, `work_s` is not strictly
    /// positive, or `memory_intensity` is outside `[0, 1]`.
    #[must_use]
    pub fn new(
        id: u64,
        arrival_s: f64,
        work_s: f64,
        memory_intensity: f64,
        benchmark: Benchmark,
    ) -> Self {
        assert!(arrival_s >= 0.0 && arrival_s.is_finite(), "arrival must be non-negative");
        assert!(work_s > 0.0 && work_s.is_finite(), "work must be positive");
        assert!(
            (0.0..=1.0).contains(&memory_intensity),
            "memory intensity must be in [0,1], got {memory_intensity}"
        );
        Self { id, arrival_s, work_s, memory_intensity, benchmark, thread_id: id }
    }

    /// Returns the job tagged as belonging to OS thread `thread_id`.
    #[must_use]
    pub fn with_thread(mut self, thread_id: u64) -> Self {
        self.thread_id = thread_id;
        self
    }
}

impl fmt::Display for Job {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "job#{} [{}] t={:.3}s work={:.3}s",
            self.id, self.benchmark, self.arrival_s, self.work_s
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "work must be positive")]
    fn zero_work_rejected() {
        let _ = Job::new(0, 0.0, 0.0, 0.5, Benchmark::Gcc);
    }

    #[test]
    #[should_panic(expected = "memory intensity")]
    fn bad_memory_intensity_rejected() {
        let _ = Job::new(0, 0.0, 1.0, 1.5, Benchmark::Gcc);
    }
}
