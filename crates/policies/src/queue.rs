//! Multi-queue scheduler state: per-core dispatch queues, execution
//! accounting and job migration — the OS-level substrate of Section IV-D.
//!
//! Modern OSes (the paper cites Solaris on the Niagara-1) keep one
//! dispatch queue per hardware context; the job scheduler enqueues
//! arriving threads per the active policy and each core executes its
//! queue in order. Migration moves the currently running job between
//! queues at a fixed cost (1 ms per migration, measured by the authors on
//! real hardware).

use std::collections::VecDeque;
use std::fmt;

use therm3d_floorplan::CoreId;
use therm3d_workload::Job;

/// Default migration cost in seconds (paper Section V-A: 1 ms).
pub const MIGRATION_COST_S: f64 = 1.0e-3;

/// A job resident on a core, with its remaining CPU demand.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResidentJob {
    /// The underlying job.
    pub job: Job,
    /// Remaining CPU seconds at the default frequency.
    pub remaining_s: f64,
    /// Pending non-progress stall from migrations, seconds of wall time.
    pub stall_s: f64,
}

/// Per-core FIFO dispatch queues plus an online fold of completions
/// (count, total and maximum turnaround): memory stays O(1) in the
/// number of jobs executed.
///
/// # Examples
///
/// ```
/// use therm3d_floorplan::CoreId;
/// use therm3d_policies::queue::MultiQueue;
/// use therm3d_workload::{Benchmark, Job};
///
/// let mut mq = MultiQueue::new(2);
/// mq.enqueue(CoreId(0), Job::new(0, 0.0, 0.05, 0.3, Benchmark::Gcc));
/// // Run core 0 at full speed for a 100 ms tick: the job finishes.
/// let busy = mq.execute(CoreId(0), 0.1, 1.0, 0.1);
/// assert!(busy > 0.0);
/// assert_eq!(mq.completed_count(), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct MultiQueue {
    queues: Vec<VecDeque<ResidentJob>>,
    migrations: u64,
    completed_count: usize,
    turnaround_total_s: f64,
    turnaround_max_s: f64,
}

impl MultiQueue {
    /// Creates queues for `n_cores` cores.
    #[must_use]
    pub fn new(n_cores: usize) -> Self {
        Self {
            queues: (0..n_cores).map(|_| VecDeque::new()).collect(),
            migrations: 0,
            completed_count: 0,
            turnaround_total_s: 0.0,
            turnaround_max_s: 0.0,
        }
    }

    /// Number of cores.
    #[must_use]
    pub fn n_cores(&self) -> usize {
        self.queues.len()
    }

    /// Enqueues a job at the back of `core`'s queue.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn enqueue(&mut self, core: CoreId, job: Job) {
        self.queues[core.0].push_back(ResidentJob { job, remaining_s: job.work_s, stall_s: 0.0 });
    }

    /// Number of jobs queued on `core` (including the running one).
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    #[must_use]
    pub fn queue_len(&self, core: CoreId) -> usize {
        self.queues[core.0].len()
    }

    /// Remaining CPU demand queued on `core`, seconds.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    #[must_use]
    pub fn queued_work_s(&self, core: CoreId) -> f64 {
        self.queues[core.0].iter().map(|r| r.remaining_s + r.stall_s).sum()
    }

    /// The job currently at the head of `core`'s queue, if any.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    #[must_use]
    pub fn running(&self, core: CoreId) -> Option<&ResidentJob> {
        self.queues[core.0].front()
    }

    /// Memory intensity of the head job (0 when idle); feeds the power
    /// model's crossbar term.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    #[must_use]
    pub fn memory_intensity(&self, core: CoreId) -> f64 {
        self.queues[core.0].front().map_or(0.0, |r| r.job.memory_intensity)
    }

    /// Executes `core` for `wall_dt` seconds of wall time at relative
    /// frequency `freq_scale` (0 models a stalled/gated core). Jobs that
    /// finish leave the queue and fold into the turnaround statistics,
    /// with completion times interpolated within the tick starting at
    /// `tick_start_s`. The returned value is the busy wall time in
    /// `[0, wall_dt]` (the core's utilization for this tick is
    /// `busy / wall_dt`).
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range, `wall_dt` is not positive, or
    /// `freq_scale` is outside `[0, 1]`.
    pub fn execute(
        &mut self,
        core: CoreId,
        wall_dt: f64,
        freq_scale: f64,
        tick_start_s: f64,
    ) -> f64 {
        assert!(wall_dt > 0.0 && wall_dt.is_finite(), "wall_dt must be positive");
        assert!((0.0..=1.0).contains(&freq_scale), "freq scale must be in [0,1], got {freq_scale}");
        let q = &mut self.queues[core.0];
        let mut t = 0.0;
        while t < wall_dt - 1e-12 {
            let Some(front) = q.front_mut() else { break };
            // Pay any pending migration stall first (wall time, no
            // progress).
            if front.stall_s > 0.0 {
                let pay = front.stall_s.min(wall_dt - t);
                front.stall_s -= pay;
                t += pay;
                continue;
            }
            if freq_scale == 0.0 {
                // Stalled core: time passes, nothing progresses, but the
                // core is "busy" holding the job.
                t = wall_dt;
                break;
            }
            let wall_needed = front.remaining_s / freq_scale;
            let run = wall_needed.min(wall_dt - t);
            front.remaining_s -= run * freq_scale;
            t += run;
            if front.remaining_s <= 1e-12 {
                let done = q.pop_front().expect("front exists");
                let turnaround = (tick_start_s + t) - done.job.arrival_s;
                self.completed_count += 1;
                self.turnaround_total_s += turnaround;
                self.turnaround_max_s = self.turnaround_max_s.max(turnaround);
            }
        }
        t.min(wall_dt)
    }

    /// Migrates the running job of `from` to `to`, swapping with `to`'s
    /// running job when `to` is busy (the paper's swap rule). Both moved
    /// jobs incur [`MIGRATION_COST_S`]. No-op if `from` is idle or
    /// `from == to`.
    ///
    /// Returns `true` if a migration happened.
    ///
    /// # Panics
    ///
    /// Panics if either core is out of range.
    pub fn migrate(&mut self, from: CoreId, to: CoreId) -> bool {
        if from == to {
            return false;
        }
        let Some(mut moving) = self.queues[from.0].pop_front() else {
            return false;
        };
        moving.stall_s += MIGRATION_COST_S;
        self.migrations += 1;
        if let Some(mut swapped) = self.queues[to.0].pop_front() {
            swapped.stall_s += MIGRATION_COST_S;
            self.migrations += 1;
            self.queues[from.0].push_front(swapped);
        }
        self.queues[to.0].push_front(moving);
        true
    }

    /// Number of jobs completed.
    #[must_use]
    pub fn completed_count(&self) -> usize {
        self.completed_count
    }

    /// Sum of turnaround times (completion − arrival) over all
    /// completions, in completion order, seconds.
    #[must_use]
    pub fn turnaround_total_s(&self) -> f64 {
        self.turnaround_total_s
    }

    /// Maximum turnaround time over all completions, seconds (0 before
    /// the first completion).
    #[must_use]
    pub fn turnaround_max_s(&self) -> f64 {
        self.turnaround_max_s
    }

    /// Total migrations performed.
    #[must_use]
    pub fn migration_count(&self) -> u64 {
        self.migrations
    }

    /// Jobs still resident across all queues.
    #[must_use]
    pub fn in_flight(&self) -> usize {
        self.queues.iter().map(VecDeque::len).sum()
    }

    /// Index of the core with the least queued work (ties broken by lower
    /// index) — the default load-balancing target.
    #[must_use]
    pub fn least_loaded(&self) -> CoreId {
        let mut best = 0;
        let mut best_w = f64::INFINITY;
        for c in 0..self.queues.len() {
            let w = self.queued_work_s(CoreId(c));
            if w < best_w {
                best_w = w;
                best = c;
            }
        }
        CoreId(best)
    }
}

impl fmt::Display for MultiQueue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "MultiQueue[{} cores, {} in flight, {} done, {} migrations]",
            self.n_cores(),
            self.in_flight(),
            self.completed_count,
            self.migrations
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use therm3d_workload::Benchmark;

    fn job(id: u64, work: f64) -> Job {
        Job::new(id, 0.0, work, 0.5, Benchmark::WebMed)
    }

    #[test]
    fn fifo_execution_and_completion() {
        let mut mq = MultiQueue::new(1);
        mq.enqueue(CoreId(0), job(0, 0.05));
        mq.enqueue(CoreId(0), job(1, 0.03));
        let busy = mq.execute(CoreId(0), 0.1, 1.0, 0.0);
        assert!((busy - 0.08).abs() < 1e-9);
        // Both arrived at 0: they finish at 0.05 and 0.08.
        assert_eq!(mq.completed_count(), 2);
        assert!((mq.turnaround_total_s() - 0.13).abs() < 1e-9);
        assert!((mq.turnaround_max_s() - 0.08).abs() < 1e-9);
        assert_eq!(mq.in_flight(), 0);
    }

    #[test]
    fn partial_progress_carries_over() {
        let mut mq = MultiQueue::new(1);
        mq.enqueue(CoreId(0), job(0, 0.25));
        let busy = mq.execute(CoreId(0), 0.1, 1.0, 0.0);
        assert!((busy - 0.1).abs() < 1e-12);
        assert!((mq.queued_work_s(CoreId(0)) - 0.15).abs() < 1e-9);
        mq.execute(CoreId(0), 0.1, 1.0, 0.1);
        let busy = mq.execute(CoreId(0), 0.1, 1.0, 0.2);
        assert!((busy - 0.05).abs() < 1e-9);
        assert_eq!(mq.completed_count(), 1);
        assert!((mq.turnaround_max_s() - 0.25).abs() < 1e-9);
    }

    #[test]
    fn frequency_scaling_stretches_execution() {
        let mut mq = MultiQueue::new(1);
        mq.enqueue(CoreId(0), job(0, 0.085));
        // At 85 % frequency, 0.085 s of work takes 0.1 s of wall time.
        let busy = mq.execute(CoreId(0), 0.1, 0.85, 0.0);
        assert!((busy - 0.1).abs() < 1e-9);
        assert_eq!(mq.completed_count(), 1);
    }

    #[test]
    fn gated_core_makes_no_progress() {
        let mut mq = MultiQueue::new(1);
        mq.enqueue(CoreId(0), job(0, 0.05));
        let busy = mq.execute(CoreId(0), 0.1, 0.0, 0.0);
        assert!((busy - 0.1).abs() < 1e-12, "stalled but occupied");
        assert_eq!(mq.completed_count(), 0);
        assert!((mq.queued_work_s(CoreId(0)) - 0.05).abs() < 1e-12);
    }

    #[test]
    fn idle_core_reports_zero_busy() {
        let mut mq = MultiQueue::new(2);
        assert_eq!(mq.execute(CoreId(1), 0.1, 1.0, 0.0), 0.0);
    }

    #[test]
    fn migration_moves_and_stalls() {
        let mut mq = MultiQueue::new(2);
        mq.enqueue(CoreId(0), job(0, 0.05));
        assert!(mq.migrate(CoreId(0), CoreId(1)));
        assert_eq!(mq.queue_len(CoreId(0)), 0);
        assert_eq!(mq.queue_len(CoreId(1)), 1);
        assert_eq!(mq.migration_count(), 1);
        // The 1 ms stall delays completion: 0.05 work + 0.001 stall.
        let busy = mq.execute(CoreId(1), 0.1, 1.0, 0.0);
        assert!((busy - 0.051).abs() < 1e-9);
        assert!((mq.turnaround_max_s() - 0.051).abs() < 1e-9);
    }

    #[test]
    fn migration_swaps_when_target_busy() {
        let mut mq = MultiQueue::new(2);
        mq.enqueue(CoreId(0), job(0, 0.05));
        mq.enqueue(CoreId(1), job(1, 0.07));
        assert!(mq.migrate(CoreId(0), CoreId(1)));
        assert_eq!(mq.migration_count(), 2, "swap costs two migrations");
        assert_eq!(mq.running(CoreId(0)).unwrap().job.id, 1);
        assert_eq!(mq.running(CoreId(1)).unwrap().job.id, 0);
    }

    #[test]
    fn migrate_idle_or_self_is_noop() {
        let mut mq = MultiQueue::new(2);
        assert!(!mq.migrate(CoreId(0), CoreId(1)));
        mq.enqueue(CoreId(0), job(0, 0.05));
        assert!(!mq.migrate(CoreId(0), CoreId(0)));
        assert_eq!(mq.migration_count(), 0);
    }

    #[test]
    fn least_loaded_picks_minimum_work() {
        let mut mq = MultiQueue::new(3);
        mq.enqueue(CoreId(0), job(0, 0.5));
        mq.enqueue(CoreId(2), job(1, 0.1));
        assert_eq!(mq.least_loaded(), CoreId(1));
        mq.enqueue(CoreId(1), job(2, 0.9));
        assert_eq!(mq.least_loaded(), CoreId(2));
    }

    #[test]
    fn memory_intensity_follows_head_job() {
        let mut mq = MultiQueue::new(1);
        assert_eq!(mq.memory_intensity(CoreId(0)), 0.0);
        mq.enqueue(CoreId(0), Job::new(0, 0.0, 1.0, 0.9, Benchmark::WebHigh));
        assert!((mq.memory_intensity(CoreId(0)) - 0.9).abs() < 1e-12);
    }

    #[test]
    fn turnaround_accounts_arrival() {
        let mut mq = MultiQueue::new(1);
        mq.enqueue(CoreId(0), Job::new(0, 1.0, 0.05, 0.5, Benchmark::Gcc));
        mq.execute(CoreId(0), 0.1, 1.0, 1.2);
        assert_eq!(mq.completed_count(), 1);
        assert!((mq.turnaround_total_s() - 0.25).abs() < 1e-9);
    }
}
