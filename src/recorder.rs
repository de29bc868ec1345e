//! Per-tick recording of simulator state: temperature histories and
//! thermal-cycle histograms, built on the [`therm3d::TickSample`]
//! observer hook.

use therm3d::TickSample;

/// A per-core temperature history sampled every tick.
///
/// # Examples
///
/// ```
/// use therm3d_repro::quick_run_recorded;
/// use therm3d_floorplan::Experiment;
/// use therm3d_policies::PolicyKind;
/// use therm3d_workload::Benchmark;
///
/// let (_r, history) =
///     quick_run_recorded(Experiment::Exp1, PolicyKind::Default, Benchmark::Gcc, 3.0, false);
/// assert!(history.peak_c() > history.mean_c());
/// ```
#[derive(Debug, Clone, Default)]
pub struct TempHistory {
    n_cores: usize,
    times_s: Vec<f64>,
    /// Row-major `[sample][core]` temperatures, °C.
    temps_c: Vec<f64>,
}

impl TempHistory {
    /// An empty history for `n_cores` cores.
    #[must_use]
    pub fn new(n_cores: usize) -> Self {
        Self { n_cores, times_s: Vec::new(), temps_c: Vec::new() }
    }

    /// Appends one tick sample.
    ///
    /// # Panics
    ///
    /// Panics if the sample's core count differs from the recorder's.
    pub fn record(&mut self, sample: &TickSample<'_>) {
        assert_eq!(sample.core_temps_c.len(), self.n_cores, "core count mismatch");
        self.times_s.push(sample.now_s);
        self.temps_c.extend_from_slice(sample.core_temps_c);
    }

    /// Number of recorded samples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.times_s.len()
    }

    /// `true` when nothing has been recorded yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.times_s.is_empty()
    }

    /// Number of cores per sample.
    #[must_use]
    pub fn n_cores(&self) -> usize {
        self.n_cores
    }

    /// Sample timestamps, seconds.
    #[must_use]
    pub fn times_s(&self) -> &[f64] {
        &self.times_s
    }

    /// The temperatures of sample `i`, one entry per core.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    #[must_use]
    pub fn sample(&self, i: usize) -> &[f64] {
        &self.temps_c[i * self.n_cores..(i + 1) * self.n_cores]
    }

    /// The temperature series of one core across all samples, °C.
    ///
    /// # Panics
    ///
    /// Panics if `core >= n_cores()`.
    #[must_use]
    pub fn core_series(&self, core: usize) -> Vec<f64> {
        assert!(core < self.n_cores, "core {core} out of range");
        (0..self.len()).map(|i| self.sample(i)[core]).collect()
    }

    /// The series of the hottest core temperature at each sample, °C.
    #[must_use]
    pub fn max_series(&self) -> Vec<f64> {
        (0..self.len())
            .map(|i| self.sample(i).iter().copied().fold(f64::NEG_INFINITY, f64::max))
            .collect()
    }

    /// Hottest temperature ever recorded, °C (`-inf` when empty).
    #[must_use]
    pub fn peak_c(&self) -> f64 {
        self.temps_c.iter().copied().fold(f64::NEG_INFINITY, f64::max)
    }

    /// Mean of all recorded core temperatures, °C (NaN when empty).
    #[must_use]
    pub fn mean_c(&self) -> f64 {
        let n = self.temps_c.len();
        self.temps_c.iter().sum::<f64>() / n as f64
    }
}

/// A histogram of per-core temperature swings (ΔT over a sliding window),
/// the quantity whose tail drives thermal-cycling failures (JEDEC's
/// Coffin–Manson exponent makes 20 °C swings ~16× as damaging as 10 °C
/// ones).
#[derive(Debug, Clone)]
pub struct CycleHistogram {
    bin_width_c: f64,
    window: usize,
    /// Per-core ring buffers of the last `window` temperatures.
    recent: Vec<Vec<f64>>,
    counts: Vec<u64>,
    total: u64,
}

impl CycleHistogram {
    /// A histogram with `bin_width_c`-wide bins over a `window`-sample
    /// sliding window for `n_cores` cores.
    ///
    /// # Panics
    ///
    /// Panics if `bin_width_c` is not positive or `window` is zero.
    #[must_use]
    pub fn new(bin_width_c: f64, window: usize, n_cores: usize) -> Self {
        assert!(bin_width_c > 0.0, "bin width must be positive");
        assert!(window > 0, "window must be non-empty");
        Self {
            bin_width_c,
            window,
            recent: vec![Vec::new(); n_cores],
            counts: Vec::new(),
            total: 0,
        }
    }

    /// Appends one tick sample; once a core's window is full, the window
    /// ΔT (max − min) is binned.
    pub fn record(&mut self, sample: &TickSample<'_>) {
        for (core, &t) in sample.core_temps_c.iter().enumerate() {
            let buf = &mut self.recent[core];
            buf.push(t);
            if buf.len() > self.window {
                buf.remove(0);
            }
            if buf.len() == self.window {
                let hi = buf.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                let lo = buf.iter().copied().fold(f64::INFINITY, f64::min);
                let bin = ((hi - lo) / self.bin_width_c).floor() as usize;
                if bin >= self.counts.len() {
                    self.counts.resize(bin + 1, 0);
                }
                self.counts[bin] += 1;
                self.total += 1;
            }
        }
    }

    /// The bin counts; bin `i` covers `[i·w, (i+1)·w)` °C.
    #[must_use]
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Total number of binned ΔT observations.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Fraction of observations with ΔT at or above `threshold_c`.
    #[must_use]
    pub fn tail_fraction(&self, threshold_c: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let first_bin = (threshold_c / self.bin_width_c).floor() as usize;
        let tail: u64 = self.counts.iter().skip(first_bin).sum();
        tail as f64 / self.total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample<'a>(
        now: f64,
        temps: &'a [f64],
        layers: &'a [usize],
        util: &'a [f64],
    ) -> TickSample<'a> {
        TickSample {
            now_s: now,
            tick_s: 0.1,
            core_temps_c: temps,
            block_temps_c: temps,
            layer_of_block: layers,
            utilization: util,
            chip_power_w: 10.0,
            vf_index: &[0, 0],
            asleep: &[false, false],
        }
    }

    #[test]
    fn history_accumulates_and_summarizes() {
        let mut h = TempHistory::new(2);
        let layers = [0usize, 0];
        let util = [1.0, 0.5];
        h.record(&sample(0.0, &[50.0, 60.0], &layers, &util));
        h.record(&sample(0.1, &[55.0, 70.0], &layers, &util));
        assert_eq!(h.len(), 2);
        assert_eq!(h.n_cores(), 2);
        assert_eq!(h.peak_c(), 70.0);
        assert_eq!(h.core_series(1), vec![60.0, 70.0]);
        assert_eq!(h.max_series(), vec![60.0, 70.0]);
        assert!((h.mean_c() - 58.75).abs() < 1e-12);
    }

    #[test]
    fn histogram_bins_window_deltas() {
        let mut hist = CycleHistogram::new(5.0, 2, 1);
        let layers = [0usize];
        let util = [1.0];
        hist.record(&sample(0.0, &[50.0], &layers, &util)); // window not full
        hist.record(&sample(0.1, &[57.0], &layers, &util)); // ΔT = 7 → bin 1
        hist.record(&sample(0.2, &[57.0], &layers, &util)); // ΔT = 0 → bin 0
        assert_eq!(hist.total(), 2);
        assert_eq!(hist.counts(), &[1, 1]);
        assert!((hist.tail_fraction(5.0) - 0.5).abs() < 1e-12);
        assert_eq!(hist.tail_fraction(10.0), 0.0);
    }

    #[test]
    #[should_panic(expected = "bin width must be positive")]
    fn zero_bin_width_rejected() {
        let _ = CycleHistogram::new(0.0, 2, 1);
    }

    #[test]
    fn empty_history_is_empty() {
        let h = TempHistory::new(4);
        assert!(h.is_empty());
        assert_eq!(h.len(), 0);
    }
}
