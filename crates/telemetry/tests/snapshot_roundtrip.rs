//! Property test: a [`MetricsSnapshot`] survives its own JSON —
//! `from_json(to_json(s)) == s` for arbitrary metric names (including
//! quotes and non-ASCII), full-range `u64` counters, histograms built
//! from random samples, and per-cell records. This is the contract the
//! `--metrics-out` files and any future snapshot-merging coordinator
//! rely on.

use std::collections::BTreeMap;

use proptest::prelude::*;
use therm3d_telemetry::{CellMetrics, Histogram, MetricsSnapshot};

/// Metric-name alphabet exercising the string escaper.
const NAMES: [&str; 8] = [
    "cell.wall_us",
    "sweep cache hits",
    "q\"uote",
    "back\\slash",
    "tabs\tand\nnewlines",
    "uni·códe µs",
    "",
    "sweep.cells_total",
];

fn name(i: usize) -> String {
    // Suffix keeps generated names unique per slot so map sizes are
    // predictable even when two slots draw the same alphabet entry.
    format!("{}#{i}", NAMES[i % NAMES.len()])
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn metrics_snapshot_json_round_trips(
        counters in prop::collection::vec((0usize..8, 0u64..u64::MAX), 0..6),
        gauges in prop::collection::vec((0usize..8, -1_000_000i64..1_000_000, 1i64..1_000), 0..6),
        samples in prop::collection::vec(0u64..20_000_000, 0..50),
        cells in prop::collection::vec((0u64..64, 0u64..10_000_000, 0u64..2), 0..8),
        meta_n in 0usize..4,
    ) {
        let mut snap = MetricsSnapshot::default();
        for i in 0..meta_n {
            snap.meta.insert(name(i), NAMES[(i + 3) % NAMES.len()].to_owned());
        }
        for (slot, (i, v)) in counters.iter().enumerate() {
            snap.counters.insert(name(i + slot), *v);
        }
        for (slot, (i, num, den)) in gauges.iter().enumerate() {
            snap.gauges.insert(name(i + slot), *num as f64 / *den as f64);
        }
        let hist = Histogram::with_edges(&[10, 1_000, 100_000]);
        for s in &samples {
            hist.record(*s);
        }
        snap.histograms.insert("cell.wall_us".to_owned(), hist.snapshot());
        snap.histograms.insert("empty".to_owned(), Histogram::new_us().snapshot());
        for (slot, (index, wall_us, cached)) in cells.iter().enumerate() {
            snap.cells.push(CellMetrics {
                index: *index,
                key: format!("{:016x}", index.wrapping_mul(0x9e37_79b9_7f4a_7c15)),
                cached: *cached == 1,
                wall_us: *wall_us,
                phases: BTreeMap::from([("simulate".to_owned(), *wall_us / 2)]),
                counters: BTreeMap::from([("factor_numeric".to_owned(), slot as u64)]),
            });
        }
        // Snapshots keep cells index-sorted; normalize the way
        // Registry::snapshot does before comparing.
        snap.cells.sort_by(|a, b| a.index.cmp(&b.index).then_with(|| a.key.cmp(&b.key)));

        let text = snap.to_json();
        let back = MetricsSnapshot::from_json(&text)
            .unwrap_or_else(|e| panic!("parse failed: {e}\n{text}"));
        prop_assert_eq!(&back, &snap);
        // Serialization is deterministic.
        prop_assert_eq!(back.to_json(), text);
    }
}
