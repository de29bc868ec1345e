//! Performance accounting (Section V-A): average delay in job completion
//! times relative to the baseline policy, plus energy integration.

/// Summary statistics over job turnaround times.
///
/// # Examples
///
/// ```
/// use therm3d_metrics::PerformanceStats;
///
/// // Three completions with turnarounds of 1, 2 and 3 s.
/// let stats = PerformanceStats::from_accumulated(3, 6.0, 3.0);
/// assert_eq!(stats.completed, 3);
/// assert!((stats.mean_turnaround_s - 2.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PerformanceStats {
    /// Number of completed jobs.
    pub completed: usize,
    /// Mean turnaround (completion − arrival), seconds.
    pub mean_turnaround_s: f64,
    /// Maximum turnaround, seconds.
    pub max_turnaround_s: f64,
    /// Sum of turnarounds, seconds.
    pub total_turnaround_s: f64,
}

impl PerformanceStats {
    /// Builds statistics from an online fold over turnaround times: a
    /// count, `total += t` and `max = max.max(t)` (seeded at 0.0),
    /// accumulated in completion order, as the run queues keep them.
    #[must_use]
    pub fn from_accumulated(completed: usize, total_s: f64, max_s: f64) -> Self {
        Self {
            completed,
            mean_turnaround_s: if completed == 0 { 0.0 } else { total_s / completed as f64 },
            max_turnaround_s: max_s,
            total_turnaround_s: total_s,
        }
    }

    /// Performance normalized to a baseline: `baseline_mean / self_mean`
    /// (1.0 = as fast as the baseline, smaller = slower), the quantity on
    /// Figure 3's right axis.
    ///
    /// Returns 1.0 when either mean is degenerate (no completions).
    #[must_use]
    pub fn normalized_vs(&self, baseline: &PerformanceStats) -> f64 {
        if self.mean_turnaround_s <= 0.0 || baseline.mean_turnaround_s <= 0.0 {
            1.0
        } else {
            baseline.mean_turnaround_s / self.mean_turnaround_s
        }
    }

    /// Average delay relative to a baseline as a percentage
    /// (`(self − baseline) / baseline`), Section V-A's metric.
    #[must_use]
    pub fn delay_percent_vs(&self, baseline: &PerformanceStats) -> f64 {
        if baseline.mean_turnaround_s <= 0.0 {
            0.0
        } else {
            (self.mean_turnaround_s - baseline.mean_turnaround_s) / baseline.mean_turnaround_s
                * 100.0
        }
    }
}

/// Streaming energy integrator: `E = Σ P·Δt`.
///
/// # Examples
///
/// ```
/// use therm3d_metrics::EnergyMeter;
///
/// let mut e = EnergyMeter::new();
/// e.add(50.0, 0.1); // 50 W for 100 ms
/// e.add(30.0, 0.1);
/// assert!((e.joules() - 8.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EnergyMeter {
    joules: f64,
    seconds: f64,
}

impl EnergyMeter {
    /// Creates an empty meter.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Accumulates `power_w` applied for `dt_s` seconds.
    ///
    /// # Panics
    ///
    /// Panics if `power_w` is negative or `dt_s` is not positive.
    pub fn add(&mut self, power_w: f64, dt_s: f64) {
        assert!(power_w >= 0.0, "power must be non-negative");
        assert!(dt_s > 0.0, "dt must be positive");
        self.joules += power_w * dt_s;
        self.seconds += dt_s;
    }

    /// Total energy in joules.
    #[must_use]
    pub fn joules(&self) -> f64 {
        self.joules
    }

    /// Total integration time in seconds.
    #[must_use]
    pub fn seconds(&self) -> f64 {
        self.seconds
    }

    /// Mean power over the integration, W.
    #[must_use]
    pub fn mean_power_w(&self) -> f64 {
        if self.seconds == 0.0 {
            0.0
        } else {
            self.joules / self.seconds
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_turnarounds() {
        let s = PerformanceStats::from_accumulated(0, 0.0, 0.0);
        assert_eq!(s.completed, 0);
        assert_eq!(s.mean_turnaround_s, 0.0);
        assert_eq!(s.normalized_vs(&s), 1.0);
    }

    #[test]
    fn normalization_direction() {
        let base = PerformanceStats::from_accumulated(2, 2.0, 1.0);
        let slower = PerformanceStats::from_accumulated(2, 4.0, 2.0);
        assert!((slower.normalized_vs(&base) - 0.5).abs() < 1e-12);
        assert!((slower.delay_percent_vs(&base) - 100.0).abs() < 1e-12);
        assert!((base.normalized_vs(&base) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn energy_meter_mean_power() {
        let mut e = EnergyMeter::new();
        e.add(10.0, 1.0);
        e.add(20.0, 1.0);
        assert!((e.mean_power_w() - 15.0).abs() < 1e-12);
        assert!((e.seconds() - 2.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "power must be non-negative")]
    fn negative_power_rejected() {
        EnergyMeter::new().add(-1.0, 0.1);
    }
}
