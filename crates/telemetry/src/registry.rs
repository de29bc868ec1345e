//! The name-keyed metrics registry.
//!
//! A [`Registry`] maps metric names to shared atomic primitives. The
//! maps are behind an `RwLock`, but the lock is only taken to *resolve*
//! a name — callers hold `Arc`s to the primitives and update them with
//! plain relaxed atomics, so steady-state recording never contends.
//!
//! Two usage modes coexist:
//!
//! - [`global()`] — one process-wide registry, **disabled by default**,
//!   used by spans buried inside the thermal solver and the engine tick
//!   loop that cannot thread a handle through their call chain. While
//!   disabled, [`crate::Span::enter`] is a single relaxed load.
//! - Private instances ([`Registry::new`]) — the sweep runner gives
//!   each run its own registry so parallel runs (and parallel tests)
//!   never interleave counts, and so snapshots stay deterministic.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock};

use crate::metrics::{Counter, Gauge, Histogram};
use crate::snapshot::{CellMetrics, MetricsSnapshot};

/// A registry of named counters, gauges, histograms, per-cell records
/// and free-form metadata.
#[derive(Debug, Default)]
pub struct Registry {
    enabled: AtomicBool,
    counters: RwLock<BTreeMap<String, Arc<Counter>>>,
    gauges: RwLock<BTreeMap<String, Arc<Gauge>>>,
    histograms: RwLock<BTreeMap<String, Arc<Histogram>>>,
    meta: Mutex<BTreeMap<String, String>>,
    cells: Mutex<Vec<CellMetrics>>,
}

impl Registry {
    #[must_use]
    pub fn new(enabled: bool) -> Self {
        let r = Self::default();
        r.enabled.store(enabled, Ordering::Relaxed);
        r
    }

    /// Whether spans and recorders attached to this registry should do
    /// any work at all.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    pub fn set_enabled(&self, enabled: bool) {
        self.enabled.store(enabled, Ordering::Relaxed);
    }

    /// The counter named `name`, created on first use.
    #[must_use]
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        if let Some(c) = self.counters.read().expect("lock poisoned").get(name) {
            return Arc::clone(c);
        }
        let mut map = self.counters.write().expect("lock poisoned");
        Arc::clone(map.entry(name.to_owned()).or_default())
    }

    /// The gauge named `name`, created on first use.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        if let Some(g) = self.gauges.read().expect("lock poisoned").get(name) {
            return Arc::clone(g);
        }
        let mut map = self.gauges.write().expect("lock poisoned");
        Arc::clone(map.entry(name.to_owned()).or_default())
    }

    /// The microsecond histogram named `name`, created on first use
    /// with the default 1-2-5 edge ladder.
    #[must_use]
    pub fn histogram_us(&self, name: &str) -> Arc<Histogram> {
        if let Some(h) = self.histograms.read().expect("lock poisoned").get(name) {
            return Arc::clone(h);
        }
        let mut map = self.histograms.write().expect("lock poisoned");
        Arc::clone(map.entry(name.to_owned()).or_insert_with(|| Arc::new(Histogram::new_us())))
    }

    /// Sets a metadata entry (sweep name, engine version, …).
    pub fn set_meta(&self, key: &str, value: &str) {
        self.meta.lock().expect("lock poisoned").insert(key.to_owned(), value.to_owned());
    }

    /// Appends one per-cell cost record.
    pub fn record_cell(&self, cell: CellMetrics) {
        self.cells.lock().expect("lock poisoned").push(cell);
    }

    /// A deterministic snapshot: BTree-ordered maps, cells sorted by
    /// canonical index.
    #[must_use]
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot {
            meta: self.meta.lock().expect("lock poisoned").clone(),
            ..MetricsSnapshot::default()
        };
        for (name, c) in self.counters.read().expect("lock poisoned").iter() {
            snap.counters.insert(name.clone(), c.get());
        }
        for (name, g) in self.gauges.read().expect("lock poisoned").iter() {
            snap.gauges.insert(name.clone(), g.get());
        }
        for (name, h) in self.histograms.read().expect("lock poisoned").iter() {
            snap.histograms.insert(name.clone(), h.snapshot());
        }
        snap.cells = self.cells.lock().expect("lock poisoned").clone();
        snap.cells.sort_by(|a, b| a.index.cmp(&b.index).then_with(|| a.key.cmp(&b.key)));
        snap
    }
}

/// The process-wide registry used by in-engine spans. Disabled until
/// an embedder (the CLI's telemetry flags, a bench binary) turns it on.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::default)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_resolve_to_shared_instances() {
        let r = Registry::new(true);
        r.counter("a").inc();
        r.counter("a").add(2);
        r.counter("b").inc();
        assert_eq!(r.counter("a").get(), 3);
        assert_eq!(r.counter("b").get(), 1);
        r.gauge("g").set(2.5);
        assert_eq!(r.gauge("g").get(), 2.5);
        r.histogram_us("h").record(10);
        assert_eq!(r.histogram_us("h").count(), 1);
    }

    #[test]
    fn snapshot_is_ordered_and_complete() {
        let r = Registry::new(true);
        r.counter("z").inc();
        r.counter("a").inc();
        r.set_meta("sweep", "demo");
        r.record_cell(CellMetrics { index: 2, ..CellMetrics::default() });
        r.record_cell(CellMetrics { index: 0, ..CellMetrics::default() });
        let snap = r.snapshot();
        assert_eq!(snap.counters.keys().collect::<Vec<_>>(), ["a", "z"]);
        assert_eq!(snap.meta["sweep"], "demo");
        assert_eq!(snap.cells.iter().map(|c| c.index).collect::<Vec<_>>(), [0, 2]);
    }

    #[test]
    fn global_registry_starts_disabled() {
        // Other tests may enable it; only assert it exists and that a
        // fresh private registry honors the constructor flag.
        let _ = global();
        assert!(!Registry::new(false).enabled());
        assert!(Registry::new(true).enabled());
    }
}
