//! Deterministic, serializable snapshots of a [`crate::Registry`].
//!
//! A [`MetricsSnapshot`] is plain data ordered by `BTreeMap`, so two
//! snapshots of the same campaign state render to byte-identical JSON
//! regardless of thread count or registration order. The schema backs
//! `sweep --metrics-out`, and it parses back via
//! [`MetricsSnapshot::from_json`] — no serde in the workspace.

use std::collections::BTreeMap;

use crate::json::Json;
use crate::metrics::HistogramSnapshot;

/// Per-cell cost breakdown for one sweep cell: wall time, per-phase
/// timings and deterministic work counters (numeric factorizations,
/// symbolic analyses). Cached cells report their lookup cost and
/// `cached: true`.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct CellMetrics {
    /// Canonical cell index in the sweep matrix.
    pub index: u64,
    /// The cell's content-addressed cache key (hex).
    pub key: String,
    /// Whether the result came from the cache instead of a simulation.
    pub cached: bool,
    /// End-to-end wall time for producing this cell's result, µs.
    pub wall_us: u64,
    /// Phase name → µs (e.g. `setup`, `simulate`, `cache_lookup`).
    pub phases: BTreeMap<String, u64>,
    /// Deterministic per-cell work counters (e.g. `factor_numeric`).
    pub counters: BTreeMap<String, u64>,
}

impl CellMetrics {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("cell".to_owned(), Json::u64(self.index)),
            ("key".to_owned(), Json::Str(self.key.clone())),
            ("cached".to_owned(), Json::Bool(self.cached)),
            ("wall_us".to_owned(), Json::u64(self.wall_us)),
            ("phases".to_owned(), u64_map_to_json(&self.phases)),
            ("counters".to_owned(), u64_map_to_json(&self.counters)),
        ])
    }

    fn from_json(v: &Json) -> Result<Self, String> {
        Ok(Self {
            index: field_u64(v, "cell")?,
            key: field_str(v, "key")?,
            cached: v.get("cached").and_then(Json::as_bool).unwrap_or(false),
            wall_us: field_u64(v, "wall_us")?,
            phases: u64_map_from_json(v.get("phases"), "phases")?,
            counters: u64_map_from_json(v.get("counters"), "counters")?,
        })
    }
}

/// A complete, deterministic copy of a registry's state.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct MetricsSnapshot {
    /// Free-form context: sweep name, engine version, …
    pub meta: BTreeMap<String, String>,
    pub counters: BTreeMap<String, u64>,
    pub gauges: BTreeMap<String, f64>,
    pub histograms: BTreeMap<String, HistogramSnapshot>,
    /// Per-cell breakdowns, sorted by canonical cell index.
    pub cells: Vec<CellMetrics>,
}

impl MetricsSnapshot {
    /// Folds `other` into `self`: counters add, gauges take `other`'s
    /// value, histograms merge bucket-wise, cells append and re-sort,
    /// meta entries from `other` win.
    ///
    /// # Errors
    ///
    /// Returns a message when two same-named histograms disagree on
    /// bucket edges.
    pub fn merge(&mut self, other: &Self) -> Result<(), String> {
        for (k, v) in &other.meta {
            self.meta.insert(k.clone(), v.clone());
        }
        for (k, v) in &other.counters {
            let slot = self.counters.entry(k.clone()).or_insert(0);
            *slot = slot.saturating_add(*v);
        }
        for (k, v) in &other.gauges {
            self.gauges.insert(k.clone(), *v);
        }
        for (k, h) in &other.histograms {
            match self.histograms.get_mut(k) {
                Some(mine) => mine.merge(h).map_err(|e| format!("{k}: {e}"))?,
                None => {
                    self.histograms.insert(k.clone(), h.clone());
                }
            }
        }
        self.cells.extend(other.cells.iter().cloned());
        self.cells.sort_by(|a, b| a.index.cmp(&b.index).then_with(|| a.key.cmp(&b.key)));
        Ok(())
    }

    /// Renders the snapshot as indented JSON (deterministic: BTree
    /// ordering everywhere, shortest-round-trip floats).
    #[must_use]
    pub fn to_json(&self) -> String {
        let meta =
            self.meta.iter().map(|(k, v)| (k.clone(), Json::Str(v.clone()))).collect::<Vec<_>>();
        let counters =
            self.counters.iter().map(|(k, v)| (k.clone(), Json::u64(*v))).collect::<Vec<_>>();
        let gauges =
            self.gauges.iter().map(|(k, v)| (k.clone(), Json::f64(*v))).collect::<Vec<_>>();
        let histograms =
            self.histograms.iter().map(|(k, h)| (k.clone(), hist_to_json(h))).collect::<Vec<_>>();
        let cells = self.cells.iter().map(CellMetrics::to_json).collect();
        Json::Obj(vec![
            ("meta".to_owned(), Json::Obj(meta)),
            ("counters".to_owned(), Json::Obj(counters)),
            ("gauges".to_owned(), Json::Obj(gauges)),
            ("histograms".to_owned(), Json::Obj(histograms)),
            ("cells".to_owned(), Json::Arr(cells)),
        ])
        .pretty()
    }

    /// Parses a snapshot previously produced by [`Self::to_json`].
    ///
    /// # Errors
    ///
    /// Returns a message for malformed JSON or a shape that does not
    /// match the snapshot schema.
    pub fn from_json(src: &str) -> Result<Self, String> {
        let doc = Json::parse(src)?;
        let mut snap = Self::default();
        if let Some(fields) = doc.get("meta").and_then(Json::as_obj) {
            for (k, v) in fields {
                let s = v.as_str().ok_or_else(|| format!("meta.{k}: expected string"))?;
                snap.meta.insert(k.clone(), s.to_owned());
            }
        }
        if let Some(fields) = doc.get("counters").and_then(Json::as_obj) {
            for (k, v) in fields {
                let n = v.as_u64().ok_or_else(|| format!("counters.{k}: expected u64"))?;
                snap.counters.insert(k.clone(), n);
            }
        }
        if let Some(fields) = doc.get("gauges").and_then(Json::as_obj) {
            for (k, v) in fields {
                // `to_json` spells a non-finite gauge `null`, so a literal
                // that overflows `f64` is no gauge it could have written.
                let n = v
                    .as_f64()
                    .filter(|n| n.is_finite())
                    .ok_or_else(|| format!("gauges.{k}: expected finite number"))?;
                snap.gauges.insert(k.clone(), n);
            }
        }
        if let Some(fields) = doc.get("histograms").and_then(Json::as_obj) {
            for (k, v) in fields {
                snap.histograms
                    .insert(k.clone(), hist_from_json(v).map_err(|e| format!("{k}: {e}"))?);
            }
        }
        if let Some(items) = doc.get("cells").and_then(Json::as_arr) {
            for item in items {
                snap.cells.push(CellMetrics::from_json(item)?);
            }
        }
        Ok(snap)
    }
}

fn u64_map_to_json(map: &BTreeMap<String, u64>) -> Json {
    Json::Obj(map.iter().map(|(k, v)| (k.clone(), Json::u64(*v))).collect())
}

fn u64_map_from_json(v: Option<&Json>, what: &str) -> Result<BTreeMap<String, u64>, String> {
    let mut out = BTreeMap::new();
    if let Some(fields) = v.and_then(Json::as_obj) {
        for (k, v) in fields {
            let n = v.as_u64().ok_or_else(|| format!("{what}.{k}: expected u64"))?;
            out.insert(k.clone(), n);
        }
    }
    Ok(out)
}

fn hist_to_json(h: &HistogramSnapshot) -> Json {
    let nums = |vals: &[u64]| Json::Arr(vals.iter().map(|&v| Json::u64(v)).collect());
    Json::Obj(vec![
        ("edges".to_owned(), nums(&h.edges)),
        ("buckets".to_owned(), nums(&h.buckets)),
        ("count".to_owned(), Json::u64(h.count)),
        ("sum".to_owned(), Json::u64(h.sum)),
        ("min".to_owned(), Json::u64(h.min)),
        ("max".to_owned(), Json::u64(h.max)),
    ])
}

fn hist_from_json(v: &Json) -> Result<HistogramSnapshot, String> {
    let nums = |key: &str| -> Result<Vec<u64>, String> {
        v.get(key)
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("{key}: expected array"))?
            .iter()
            .map(|n| n.as_u64().ok_or_else(|| format!("{key}: expected u64 entries")))
            .collect()
    };
    let h = HistogramSnapshot {
        edges: nums("edges")?,
        buckets: nums("buckets")?,
        count: field_u64(v, "count")?,
        sum: field_u64(v, "sum")?,
        min: field_u64(v, "min")?,
        max: field_u64(v, "max")?,
    };
    if h.buckets.len() != h.edges.len() + 1 {
        return Err(format!(
            "{} edges need {} buckets, got {}",
            h.edges.len(),
            h.edges.len() + 1,
            h.buckets.len()
        ));
    }
    Ok(h)
}

fn field_u64(v: &Json, key: &str) -> Result<u64, String> {
    v.get(key).and_then(Json::as_u64).ok_or_else(|| format!("{key}: expected u64"))
}

fn field_str(v: &Json, key: &str) -> Result<String, String> {
    Ok(v.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| format!("{key}: expected string"))?
        .to_owned())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Histogram;

    fn sample() -> MetricsSnapshot {
        let h = Histogram::with_edges(&[10, 100]);
        h.record(7);
        h.record(70);
        h.record(700);
        let mut snap = MetricsSnapshot::default();
        snap.meta.insert("sweep".to_owned(), "ti\"ny".to_owned());
        snap.counters.insert("sweep.cache_hits".to_owned(), 3);
        snap.counters.insert("huge".to_owned(), u64::MAX);
        snap.gauges.insert("expand_us".to_owned(), 12.25);
        snap.histograms.insert("cell.wall_us".to_owned(), h.snapshot());
        snap.cells.push(CellMetrics {
            index: 1,
            key: "00ff00ff00ff00ff".to_owned(),
            cached: true,
            wall_us: 42,
            phases: BTreeMap::from([("cache_lookup".to_owned(), 42)]),
            counters: BTreeMap::new(),
        });
        snap
    }

    #[test]
    fn json_round_trips_exactly() {
        let snap = sample();
        let text = snap.to_json();
        assert_eq!(MetricsSnapshot::from_json(&text).unwrap(), snap);
        // Deterministic: rendering twice is byte-identical.
        assert_eq!(snap.to_json(), text);
    }

    #[test]
    fn empty_snapshot_round_trips() {
        let text = MetricsSnapshot::default().to_json();
        assert_eq!(MetricsSnapshot::from_json(&text).unwrap(), MetricsSnapshot::default());
    }

    #[test]
    fn merge_adds_counters_and_histograms() {
        let mut a = sample();
        let b = sample();
        a.merge(&b).unwrap();
        assert_eq!(a.counters["sweep.cache_hits"], 6);
        assert_eq!(a.histograms["cell.wall_us"].count, 6);
        assert_eq!(a.cells.len(), 2);
        // Mismatched edges refuse to merge.
        let mut c = sample();
        let other = Histogram::with_edges(&[1]).snapshot();
        let mut d = MetricsSnapshot::default();
        d.histograms.insert("cell.wall_us".to_owned(), other);
        assert!(c.merge(&d).is_err());
    }

    #[test]
    fn malformed_shapes_are_rejected() {
        assert!(MetricsSnapshot::from_json("[]").is_ok()); // no sections: empty snapshot
        assert!(MetricsSnapshot::from_json("{\"counters\":{\"a\":-1}}").is_err());
        assert!(MetricsSnapshot::from_json("{\"meta\":{\"a\":1}}").is_err());
        assert!(MetricsSnapshot::from_json("{\"gauges\":{\"g\":1e999}}").is_err());
        assert!(MetricsSnapshot::from_json("{\"histograms\":{\"h\":{\"edges\":[1],\"buckets\":[1],\"count\":1,\"sum\":1,\"min\":1,\"max\":1}}}").is_err());
        assert!(MetricsSnapshot::from_json("not json").is_err());
    }
}
