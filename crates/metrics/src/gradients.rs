//! Spatial temperature gradients (Section V-C, Figure 5): the percentage
//! of time the maximum per-layer gradient exceeds 15 °C, the point where
//! clock skew and circuit-delay impact set in (Ajami et al.).

/// Maximum within-layer spread: for each layer, hottest − coolest unit;
/// return the maximum over layers.
///
/// `layer_of_block[i]` gives the layer index of `temps_c[i]`. This is the
/// paper's spatial-distribution quantity: per-layer gradients only,
/// ignoring inter-layer (vertical) differences, which Section V-C reports
/// as limited to a few degrees.
///
/// # Panics
///
/// Panics if the slices' lengths differ.
///
/// # Examples
///
/// ```
/// use therm3d_metrics::max_layer_gradient;
///
/// // Two layers: [60, 80] and [70, 75] → gradients 20 and 5 → max 20.
/// let g = max_layer_gradient(&[60.0, 80.0, 70.0, 75.0], &[0, 0, 1, 1]);
/// assert!((g - 20.0).abs() < 1e-12);
/// ```
#[must_use]
pub fn max_layer_gradient(temps_c: &[f64], layer_of_block: &[usize]) -> f64 {
    assert_eq!(temps_c.len(), layer_of_block.len(), "one layer id per temperature");
    let n_layers = layer_of_block.iter().copied().max().map_or(0, |m| m + 1);
    // One pass per layer: a stack has a handful of layers, and this
    // runs every tick, so it allocates nothing.
    (0..n_layers)
        .map(|layer| {
            let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
            for (&t, _) in temps_c.iter().zip(layer_of_block).filter(|(_, &l)| l == layer) {
                if t < lo {
                    lo = t;
                }
                if t > hi {
                    hi = t;
                }
            }
            (lo, hi)
        })
        .filter(|(lo, _)| lo.is_finite())
        .map(|(lo, hi)| hi - lo)
        .fold(0.0, f64::max)
}

/// Streaming tracker for large spatial gradients.
///
/// # Examples
///
/// ```
/// use therm3d_metrics::SpatialGradientTracker;
///
/// let mut sg = SpatialGradientTracker::new(15.0);
/// sg.record(20.0);
/// sg.record(10.0);
/// assert!((sg.percent() - 50.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SpatialGradientTracker {
    threshold_c: f64,
    exceed: u64,
    total: u64,
    peak: f64,
    sum: f64,
}

impl SpatialGradientTracker {
    /// Creates a tracker with the given gradient threshold (paper: 15 °C).
    #[must_use]
    pub fn new(threshold_c: f64) -> Self {
        Self { threshold_c, exceed: 0, total: 0, peak: 0.0, sum: 0.0 }
    }

    /// The threshold in °C.
    #[must_use]
    pub fn threshold_c(&self) -> f64 {
        self.threshold_c
    }

    /// Records one interval's maximum per-layer gradient.
    pub fn record(&mut self, gradient_c: f64) {
        self.total += 1;
        self.sum += gradient_c;
        if gradient_c > self.threshold_c {
            self.exceed += 1;
        }
        if gradient_c > self.peak {
            self.peak = gradient_c;
        }
    }

    /// Fraction of intervals with a gradient above the threshold.
    #[must_use]
    pub fn fraction(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.exceed as f64 / self.total as f64
        }
    }

    /// [`fraction`](Self::fraction) as a percentage — Figure 5's y-axis.
    #[must_use]
    pub fn percent(&self) -> f64 {
        self.fraction() * 100.0
    }

    /// Mean gradient over all intervals, °C.
    #[must_use]
    pub fn mean_c(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum / self.total as f64
        }
    }

    /// Largest gradient observed, °C.
    #[must_use]
    pub fn peak_c(&self) -> f64 {
        self.peak
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gradient_over_single_layer() {
        let g = max_layer_gradient(&[50.0, 72.0, 61.0], &[0, 0, 0]);
        assert!((g - 22.0).abs() < 1e-12);
    }

    #[test]
    fn picks_worst_layer() {
        let temps = [50.0, 55.0, 40.0, 80.0];
        let layers = [0, 0, 1, 1];
        assert!((max_layer_gradient(&temps, &layers) - 40.0).abs() < 1e-12);
    }

    #[test]
    fn empty_input_is_zero() {
        assert_eq!(max_layer_gradient(&[], &[]), 0.0);
    }

    #[test]
    fn vertical_differences_ignored() {
        // Layer 0 uniformly 50, layer 1 uniformly 90: huge vertical
        // difference, zero per-layer gradient.
        let temps = [50.0, 50.0, 90.0, 90.0];
        let layers = [0, 0, 1, 1];
        assert_eq!(max_layer_gradient(&temps, &layers), 0.0);
    }

    #[test]
    fn tracker_statistics() {
        let mut sg = SpatialGradientTracker::new(15.0);
        for g in [5.0, 16.0, 25.0, 10.0] {
            sg.record(g);
        }
        assert!((sg.fraction() - 0.5).abs() < 1e-12);
        assert!((sg.mean_c() - 14.0).abs() < 1e-12);
        assert!((sg.peak_c() - 25.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "one layer id per temperature")]
    fn mismatched_lengths_rejected() {
        let _ = max_layer_gradient(&[1.0, 2.0], &[0]);
    }
}
