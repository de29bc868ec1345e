//! Order statistics and sampling helpers for timings.

use std::time::{Duration, Instant};

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `samples`, interpolating linearly
/// between closest ranks; `NaN` for an empty set.
#[must_use]
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    #[allow(clippy::cast_precision_loss)]
    let pos = q * (sorted.len() - 1) as f64;
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    #[allow(clippy::cast_precision_loss)]
    let frac = pos - lo as f64;
    sorted[lo] + (sorted[hi] - sorted[lo]) * frac
}

/// The median of `samples`.
#[must_use]
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Arithmetic mean (`NaN` for an empty set).
#[must_use]
pub fn mean(samples: &[f64]) -> f64 {
    #[allow(clippy::cast_precision_loss)]
    let n = samples.len() as f64;
    samples.iter().sum::<f64>() / n
}

/// Elapsed time since `start`, in the given unit scale (e.g. `1e9` for ns).
#[must_use]
pub fn since(start: Instant, per_second: f64) -> f64 {
    start.elapsed().as_secs_f64() * per_second
}

/// Calls `sample` until it has produced `min` samples or `budget` has
/// passed, whichever comes first; always at least once.
pub fn repeat(min: usize, budget: Duration, mut sample: impl FnMut() -> f64) -> Vec<f64> {
    let start = Instant::now();
    let mut out = Vec::with_capacity(min);
    loop {
        out.push(sample());
        if out.len() >= min || start.elapsed() >= budget {
            return out;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(median(&v), 3.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 5.0);
        assert_eq!(quantile(&v, 0.25), 2.0);
        assert_eq!(quantile(&[1.0, 2.0], 0.5), 1.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn repeat_stops_at_the_sample_floor() {
        let mut calls = 0;
        let v = repeat(7, Duration::from_secs(60), || {
            calls += 1;
            1.0
        });
        assert_eq!((v.len(), calls), (7, 7));
    }
}
