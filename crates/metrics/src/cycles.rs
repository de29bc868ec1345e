//! Temporal thermal cycles (Section V-D, Figure 6): the frequency of
//! temperature fluctuations larger than 20 °C, computed over a sliding
//! window and averaged over all cores.
//!
//! JEDEC's failure models make cycle magnitude devastating: at equal cycle
//! frequency, raising ΔT from 10 to 20 °C multiplies the failure rate of
//! metallic structures by ~16×, which is why the paper tracks the
//! frequency of ΔT > 20 °C events specifically.

use std::collections::VecDeque;

/// Streaming per-core sliding-window ΔT tracker.
///
/// Every [`record`](Self::record) pushes one temperature sample per core;
/// once a core's window is full, the window's `max − min` is its current
/// ΔT. The reported metric is the fraction of (core, interval) samples
/// whose ΔT exceeds the threshold — Figure 6's "Thermal Cycles
/// (% > 20 C)".
///
/// # Examples
///
/// ```
/// use therm3d_metrics::ThermalCycleTracker;
///
/// let mut tc = ThermalCycleTracker::new(20.0, 3, 2);
/// tc.record(&[50.0, 50.0]);
/// tc.record(&[75.0, 52.0]);
/// tc.record(&[50.0, 51.0]); // core 0 swings 25 °C within the window
/// assert!(tc.percent() > 0.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ThermalCycleTracker {
    threshold_c: f64,
    window: usize,
    histories: Vec<VecDeque<f64>>,
    exceed: u64,
    total: u64,
    peak_delta: f64,
    sum_delta: f64,
}

impl ThermalCycleTracker {
    /// Creates a tracker for `n_cores` cores with the given ΔT threshold
    /// (paper: 20 °C) and sliding window length in samples.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero or `n_cores` is zero.
    #[must_use]
    pub fn new(threshold_c: f64, window: usize, n_cores: usize) -> Self {
        assert!(window > 0, "window must be non-empty");
        assert!(n_cores > 0, "need at least one core");
        Self {
            threshold_c,
            window,
            histories: vec![VecDeque::with_capacity(window); n_cores],
            exceed: 0,
            total: 0,
            peak_delta: 0.0,
            sum_delta: 0.0,
        }
    }

    /// The ΔT threshold in °C.
    #[must_use]
    pub fn threshold_c(&self) -> f64 {
        self.threshold_c
    }

    /// The window length in samples.
    #[must_use]
    pub fn window(&self) -> usize {
        self.window
    }

    /// Records one interval's per-core temperatures.
    ///
    /// # Panics
    ///
    /// Panics if `core_temps_c.len()` differs from the construction core
    /// count.
    pub fn record(&mut self, core_temps_c: &[f64]) {
        assert_eq!(core_temps_c.len(), self.histories.len(), "core count changed mid-run");
        for (h, &t) in self.histories.iter_mut().zip(core_temps_c) {
            if h.len() == self.window {
                h.pop_front();
            }
            h.push_back(t);
            if h.len() == self.window {
                let (lo, hi) = window_extrema(h);
                let delta = hi - lo;
                self.total += 1;
                self.sum_delta += delta;
                if delta > self.threshold_c {
                    self.exceed += 1;
                }
                if delta > self.peak_delta {
                    self.peak_delta = delta;
                }
            }
        }
    }

    /// Fraction of (core, interval) samples whose window ΔT exceeds the
    /// threshold.
    #[must_use]
    pub fn fraction(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.exceed as f64 / self.total as f64
        }
    }

    /// [`fraction`](Self::fraction) as a percentage — Figure 6's y-axis.
    #[must_use]
    pub fn percent(&self) -> f64 {
        self.fraction() * 100.0
    }

    /// Mean window ΔT over all samples, °C.
    #[must_use]
    pub fn mean_delta_c(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum_delta / self.total as f64
        }
    }

    /// Largest window ΔT observed, °C.
    #[must_use]
    pub fn peak_delta_c(&self) -> f64 {
        self.peak_delta
    }
}

/// The minimum and maximum of a window in one pass, each folded over
/// four independent lanes by compare-and-select, which compiles to
/// packed min/max instructions (`f64::min` does not). For samples that
/// are neither NaN nor signed zeros, min and max do not depend on
/// order, so this equals two serial `f64::min`/`f64::max` folds bit for
/// bit; a NaN sample is skipped by both.
fn window_extrema(window: &VecDeque<f64>) -> (f64, f64) {
    let mut lo = [f64::INFINITY; 4];
    let mut hi = [f64::NEG_INFINITY; 4];
    let (front, back) = window.as_slices();
    for part in [front, back] {
        let chunks = part.chunks_exact(4);
        for &t in chunks.remainder() {
            lo[0] = if t < lo[0] { t } else { lo[0] };
            hi[0] = if t > hi[0] { t } else { hi[0] };
        }
        for chunk in chunks {
            for k in 0..4 {
                lo[k] = if chunk[k] < lo[k] { chunk[k] } else { lo[k] };
                hi[k] = if chunk[k] > hi[k] { chunk[k] } else { hi[k] };
            }
        }
    }
    (lo.into_iter().fold(f64::INFINITY, f64::min), hi.into_iter().fold(f64::NEG_INFINITY, f64::max))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_pass_extrema_match_two_folds_on_wrapped_windows() {
        // xorshift64: random temperatures in [40, 100) °C.
        let mut state = 0x9E37_79B9_7F4A_7C15_u64;
        let mut sample = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            40.0 + (state >> 11) as f64 / (1u64 << 53) as f64 * 60.0
        };
        for window in [1, 2, 3, 4, 5, 7, 8, 9, 16, 100] {
            let mut h = VecDeque::with_capacity(window);
            let mut wrapped = false;
            for step in 0..10 * window + 10 {
                if h.len() == window {
                    h.pop_front();
                }
                h.push_back(sample());
                wrapped |= !h.as_slices().1.is_empty();
                let lo = h.iter().copied().fold(f64::INFINITY, f64::min);
                let hi = h.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                let (l, u) = window_extrema(&h);
                assert_eq!(
                    (l.to_bits(), u.to_bits()),
                    (lo.to_bits(), hi.to_bits()),
                    "window {window}, step {step}"
                );
            }
            assert!(wrapped || window == 1, "window {window} never wrapped around");
        }
    }

    #[test]
    fn constant_temperature_never_cycles() {
        let mut tc = ThermalCycleTracker::new(20.0, 5, 2);
        for _ in 0..50 {
            tc.record(&[70.0, 80.0]);
        }
        assert_eq!(tc.fraction(), 0.0);
        assert_eq!(tc.mean_delta_c(), 0.0);
    }

    #[test]
    fn detects_large_swings() {
        let mut tc = ThermalCycleTracker::new(20.0, 4, 1);
        // Square wave 50↔75: ΔT = 25 within any 4-sample window.
        for i in 0..40 {
            tc.record(&[if i % 4 < 2 { 50.0 } else { 75.0 }]);
        }
        assert!(tc.fraction() > 0.9, "fraction {}", tc.fraction());
        assert!((tc.peak_delta_c() - 25.0).abs() < 1e-12);
    }

    #[test]
    fn small_swings_below_threshold_ignored() {
        let mut tc = ThermalCycleTracker::new(20.0, 4, 1);
        for i in 0..40 {
            tc.record(&[if i % 4 < 2 { 60.0 } else { 70.0 }]);
        }
        assert_eq!(tc.fraction(), 0.0);
        assert!((tc.peak_delta_c() - 10.0).abs() < 1e-12);
    }

    #[test]
    fn warmup_samples_not_counted() {
        let mut tc = ThermalCycleTracker::new(20.0, 10, 1);
        for _ in 0..9 {
            tc.record(&[50.0]);
        }
        assert_eq!(tc.fraction(), 0.0);
        assert_eq!(tc.mean_delta_c(), 0.0, "window not yet full");
    }

    #[test]
    fn per_core_independence() {
        let mut tc = ThermalCycleTracker::new(20.0, 2, 2);
        // Core 0 swings wildly, core 1 steady.
        for i in 0..20 {
            tc.record(&[if i % 2 == 0 { 50.0 } else { 80.0 }, 70.0]);
        }
        // Half the (core, interval) samples exceed.
        assert!((tc.fraction() - 0.5).abs() < 0.1, "fraction {}", tc.fraction());
    }

    #[test]
    #[should_panic(expected = "window must be non-empty")]
    fn zero_window_rejected() {
        let _ = ThermalCycleTracker::new(20.0, 0, 1);
    }
}
