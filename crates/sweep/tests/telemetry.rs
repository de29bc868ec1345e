//! End-to-end telemetry invariants of the sweep runner: the metrics
//! snapshot's deterministic subset is identical for any thread count,
//! the JSONL event stream covers every cell with `cell_start` strictly
//! before `cell_finish`, cached cells are reported as such on a warm
//! rerun, and — the invariant everything else rides on — the report
//! itself is byte-identical with telemetry on or off.

use std::io::Write;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

use therm3d_floorplan::Experiment;
use therm3d_policies::PolicyKind;
use therm3d_sweep::{run_with_cache, run_with_telemetry, CacheStore, RunTelemetry, SweepSpec};
use therm3d_telemetry::{EventSink, Json};
use therm3d_workload::Benchmark;

fn tiny_spec(threads: usize) -> SweepSpec {
    SweepSpec::new("telemetry-e2e")
        .with_experiments(&[Experiment::Exp1])
        .with_policies(&[PolicyKind::Default, PolicyKind::Adapt3d])
        .with_benchmarks(&[Benchmark::Gzip])
        .with_dpm(&[false, true])
        .with_sim_seconds(2.0)
        .with_grid(4, 4)
        .with_threads(threads)
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("therm3d_telemetry_e2e_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A `Write` handle into a shared byte buffer, for capturing the JSONL
/// event stream in-process.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl SharedBuf {
    fn text(&self) -> String {
        String::from_utf8(self.0.lock().unwrap().clone()).unwrap()
    }
}

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[test]
fn snapshot_deterministic_subset_is_thread_count_invariant() {
    let tel1 = RunTelemetry::new();
    let tel8 = RunTelemetry::new();
    let r1 = run_with_telemetry(&tiny_spec(1), None, Some(&tel1)).unwrap();
    let r8 = run_with_telemetry(&tiny_spec(8), None, Some(&tel8)).unwrap();
    assert_eq!(r1, r8, "reports are bit-identical across thread counts");

    let (s1, s8) = (tel1.snapshot(), tel8.snapshot());
    // Counters (cells, hits/misses, simulated, factorization totals)
    // are fully deterministic; only the thread-count meta differs.
    assert_eq!(s1.counters, s8.counters);
    assert_eq!(s1.counters["sweep.cells_total"], 4);
    assert_eq!(s1.counters["sweep.cells_simulated"], 4);
    assert!(!s1.counters.contains_key("sweep.cache_misses"), "no cache attached: nothing to miss");
    assert!(s1.counters["thermal.factor_numeric"] >= 1);
    assert!(s1.counters["thermal.symbolic_analyses"] >= 1);
    assert_eq!(s1.meta["threads"], "1");
    // Per-cell records line up: same cells, same keys, same cached
    // flags, same solver counters, same phase names — only the µs vary.
    assert_eq!(s1.cells.len(), 4);
    assert_eq!(s1.cells.len(), s8.cells.len());
    for (a, b) in s1.cells.iter().zip(&s8.cells) {
        assert_eq!((a.index, &a.key, a.cached), (b.index, &b.key, b.cached));
        assert_eq!(a.counters, b.counters);
        assert_eq!(a.phases.keys().collect::<Vec<_>>(), b.phases.keys().collect::<Vec<_>>());
    }
    // Aggregate histograms saw every cell.
    assert_eq!(s1.histograms["cell.wall_us"].count, 4);
    assert_eq!(s8.histograms["cell.wall_us"].count, 4);
    // And the snapshot round-trips through its JSON form.
    let back = therm3d_telemetry::MetricsSnapshot::from_json(&s1.to_json()).unwrap();
    assert_eq!(back, s1);
}

#[test]
fn factor_share_dedupes_solver_work_across_cells() {
    let tel = RunTelemetry::new();
    let report = run_with_telemetry(&tiny_spec(4), None, Some(&tel)).unwrap();
    let snap = tel.snapshot();
    // All four cells differ only in policy/DPM, so they resolve to one
    // thermal model …
    assert_eq!(snap.counters["sweep.thermal_models"], 1);
    // … which pays for exactly one network build, one symbolic analysis
    // and one factor set, however many cells and worker threads the
    // sweep used.
    assert_eq!(snap.counters["thermal.network_builds"], 1);
    assert_eq!(snap.counters["thermal.symbolic_analyses"], 1);
    let computed = snap.counters["thermal.factor_numeric"];
    let per_cell: Vec<u64> =
        report.rows.iter().map(|r| r.timing.as_ref().unwrap().counters["factor_numeric"]).collect();
    // Per-cell counters keep their "ensured" semantics (adopting a
    // shared factor counts like computing it), so each cell reports the
    // same work it would have done alone …
    assert!(per_cell.iter().all(|&c| c == per_cell[0]), "{per_cell:?}");
    assert!((1..=per_cell[0]).contains(&computed), "computed {computed} of {}", per_cell[0]);
    // … while the run-level total splits exactly into one computation
    // per distinct factor plus share hits for everything else.
    let hits = snap.counters["sweep.factor_share_hits"];
    assert_eq!(hits + computed, per_cell.iter().sum::<u64>());
    assert!(hits >= 3 * per_cell[0], "3 of 4 cells adopt every factor: {hits}");
}

#[test]
fn events_cover_every_cell_with_start_before_finish() {
    let buf = SharedBuf::default();
    let tel = RunTelemetry::new().with_events(EventSink::to_writer(Box::new(buf.clone())));
    let report = run_with_telemetry(&tiny_spec(4), None, Some(&tel)).unwrap();

    let text = buf.text();
    let docs: Vec<Json> = text.lines().map(|l| Json::parse(l).unwrap()).collect();
    let field = |d: &Json, k: &str| d.get(k).unwrap().as_u64().unwrap();
    let tag = |d: &Json| d.get("ev").unwrap().as_str().unwrap().to_owned();

    // Per cell: exactly one start and one finish, in that order.
    for row in &report.rows {
        let idx = row.cell.index as u64;
        let of_cell: Vec<usize> = docs
            .iter()
            .enumerate()
            .filter(|(_, d)| field(d, "cell") == idx)
            .map(|(i, _)| i)
            .collect();
        assert_eq!(of_cell.len(), 2, "cell {idx} has start+finish");
        assert_eq!(tag(&docs[of_cell[0]]), "cell_start");
        assert_eq!(tag(&docs[of_cell[1]]), "cell_finish");
        assert_eq!(docs[of_cell[0]].get("key").unwrap().as_str(), Some(row.key.as_str()));
        assert_eq!(docs[of_cell[1]].get("cached").unwrap().as_bool(), Some(false));
        assert!(docs[of_cell[0]].get("shard").is_none(), "events carry no shard label");
    }
    assert_eq!(docs.len(), 2 * report.rows.len());
}

#[test]
fn warm_cache_run_reports_hits_and_cached_timings() {
    let dir = tmp_dir("warm");
    let mut store = CacheStore::open(&dir).unwrap();
    let cold = run_with_cache(&tiny_spec(2), Some(&mut store)).unwrap();

    let buf = SharedBuf::default();
    let tel = RunTelemetry::new().with_events(EventSink::to_writer(Box::new(buf.clone())));
    let mut store = CacheStore::open(&dir).unwrap();
    let warm = run_with_telemetry(&tiny_spec(2), Some(&mut store), Some(&tel)).unwrap();
    assert_eq!(warm, cold, "telemetry and cache hits leave the report untouched");

    let snap = tel.snapshot();
    assert_eq!(snap.counters["sweep.cache_hits"], 4);
    assert_eq!(snap.counters["sweep.cache_misses"], 0);
    assert!(!snap.counters.contains_key("sweep.cells_simulated"));
    assert!(snap.cells.iter().all(|c| c.cached && c.phases.contains_key("cache_lookup")));
    // Rows carry the same records.
    for row in &warm.rows {
        let timing = row.timing.as_ref().expect("telemetered run attaches timing");
        assert!(timing.cached);
        assert_eq!(timing.key, row.key);
    }
    // Event stream: every cell appears as cache_hit then cell_finish
    // with cached=true.
    let text = buf.text();
    let docs: Vec<Json> = text.lines().map(|l| Json::parse(l).unwrap()).collect();
    let tags: Vec<_> =
        docs.iter().map(|d| d.get("ev").unwrap().as_str().unwrap().to_owned()).collect();
    assert_eq!(tags.iter().filter(|t| *t == "cache_hit").count(), 4);
    assert_eq!(tags.iter().filter(|t| *t == "cell_finish").count(), 4);
    assert!(docs
        .iter()
        .filter(|d| d.get("ev").unwrap().as_str() == Some("cell_finish"))
        .all(|d| d.get("cached").unwrap().as_bool() == Some(true)));

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn untelemetered_rows_carry_no_timing() {
    let spec = tiny_spec(1).with_policies(&[PolicyKind::Default]).with_dpm(&[false]);
    let report = run_with_cache(&spec, None).unwrap();
    assert!(report.rows.iter().all(|r| r.timing.is_none()));

    let tel = RunTelemetry::new();
    let telemetered = run_with_telemetry(&spec, None, Some(&tel)).unwrap();
    for row in &telemetered.rows {
        let timing = row.timing.as_ref().expect("timing attached");
        assert!(!timing.cached);
        assert!(timing.phases.contains_key("setup") && timing.phases.contains_key("simulate"));
        // The paper's implicit integrator factors a handful of times
        // per model; the per-cell counter makes that observable.
        assert!(timing.counters["factor_numeric"] >= 1, "{:?}", timing.counters);
        assert!(timing.counters["symbolic_analyses"] >= 1);
    }
    // Timing differences never affect row equality.
    assert_eq!(report.rows, telemetered.rows);
}
