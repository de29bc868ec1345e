//! Monotonic-clock span timing.
//!
//! `Span::enter("factor_numeric")` starts a scope timer; dropping the
//! span records the elapsed microseconds into a histogram of the same
//! name. Spans nest naturally (each is an independent value) and cost
//! one relaxed atomic load when the target registry is disabled — no
//! clock read, no allocation — which is what lets them live inside the
//! engine's allocation-free tick loop.

use std::sync::Arc;
use std::time::Instant;

use crate::metrics::Histogram;
use crate::registry::{global, Registry};

/// An RAII scope timer; see the module docs.
#[derive(Debug)]
#[must_use = "a span records on drop; binding it to `_` drops it immediately"]
pub struct Span {
    start: Option<Instant>,
    hist: Option<Arc<Histogram>>,
}

impl Span {
    /// A span recording into the [`global()`] registry — for
    /// instrumentation points (thermal factorization, engine ticks)
    /// that cannot thread a registry handle through their call chain.
    /// Inert while the global registry is disabled.
    pub fn enter(name: &str) -> Self {
        Self::enter_in(global(), name)
    }

    /// A span recording into `registry`, inert when it is disabled.
    #[allow(
        clippy::disallowed_methods,
        reason = "span timings feed the metrics snapshot, never a report"
    )]
    pub fn enter_in(registry: &Registry, name: &str) -> Self {
        if !registry.enabled() {
            return Self { start: None, hist: None };
        }
        Self { start: Some(Instant::now()), hist: Some(registry.histogram_us(name)) }
    }

    /// Elapsed microseconds so far (0 for an inert span).
    #[must_use]
    pub fn elapsed_us(&self) -> u64 {
        self.start.map_or(0, elapsed_us)
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let (Some(start), Some(hist)) = (self.start, self.hist.take()) {
            hist.record(elapsed_us(start));
        }
    }
}

/// Microseconds since `start`, saturating (a 584-millennium span would
/// otherwise overflow).
#[must_use]
pub fn elapsed_us(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enabled_spans_record_and_nest() {
        let r = Registry::new(true);
        {
            let _outer = Span::enter_in(&r, "outer");
            let inner = Span::enter_in(&r, "inner");
            assert!(inner.start.is_some());
            drop(inner);
            let again = Span::enter_in(&r, "inner");
            drop(again);
        }
        let snap = r.snapshot();
        assert_eq!(snap.histograms["outer"].count, 1);
        assert_eq!(snap.histograms["inner"].count, 2);
    }

    #[test]
    fn disabled_spans_do_nothing() {
        let r = Registry::new(false);
        let span = Span::enter_in(&r, "noop");
        assert!(span.start.is_none() && span.hist.is_none());
        assert_eq!(span.elapsed_us(), 0);
        drop(span);
        assert!(r.snapshot().histograms.is_empty());
    }
}
