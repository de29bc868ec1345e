//! End-to-end correctness of the content-addressed result cache: cold
//! vs warm identity, grown-spec incremental reuse, corruption recovery,
//! engine-version invalidation, and determinism across thread counts
//! and hit/miss mixes.

use std::path::PathBuf;

use therm3d_floorplan::Experiment;
use therm3d_policies::PolicyKind;
use therm3d_sweep::{cache, expand, run, run_with_cache, CacheStore, SweepSpec};
use therm3d_workload::Benchmark;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("therm3d_cache_e2e_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn small_spec(policies: &[PolicyKind], threads: usize) -> SweepSpec {
    SweepSpec::new("cache-e2e")
        .with_experiments(&[Experiment::Exp1, Experiment::Exp2])
        .with_policies(policies)
        .with_dpm(&[false, true])
        .with_benchmarks(&[Benchmark::Gzip])
        .with_sim_seconds(3.0)
        .with_grid(4, 4)
        .with_threads(threads)
}

#[test]
fn cold_run_misses_then_warm_run_hits_everything() {
    let dir = tmp_dir("hit_miss");
    let spec = small_spec(&[PolicyKind::Default, PolicyKind::Adapt3d], 2);
    let n = spec.cell_count() as u64;

    let mut store = CacheStore::open(&dir).unwrap();
    let cold = run_with_cache(&spec, Some(&mut store)).unwrap();
    let s = store.stats();
    assert_eq!((s.hits, s.misses, s.inserted), (0, n, n), "cold run simulates every cell");

    let mut store = CacheStore::open(&dir).unwrap();
    let warm = run_with_cache(&spec, Some(&mut store)).unwrap();
    let s = store.stats();
    assert_eq!((s.hits, s.misses, s.inserted), (n, 0, 0), "warm run simulates nothing");

    assert_eq!(cold.csv(), warm.csv(), "cache hits must be bit-identical");
    assert_eq!(cold.json(), warm.json());
    assert_eq!(cold.render(), warm.render());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn grown_spec_only_simulates_new_cells() {
    let dir = tmp_dir("grown");
    let seeded = small_spec(&[PolicyKind::Default, PolicyKind::Adapt3d], 2);
    let mut store = CacheStore::open(&dir).unwrap();
    run_with_cache(&seeded, Some(&mut store)).unwrap();
    let old_cells = seeded.cell_count() as u64;

    // Grow the policy axis: the old cells must all hit, only the new
    // policy's cells simulate.
    let grown = small_spec(&[PolicyKind::Default, PolicyKind::Adapt3d, PolicyKind::CGate], 2);
    let mut store = CacheStore::open(&dir).unwrap();
    let mixed = run_with_cache(&grown, Some(&mut store)).unwrap();
    let s = store.stats();
    let new_cells = grown.cell_count() as u64 - old_cells;
    assert_eq!((s.hits, s.misses, s.inserted), (old_cells, new_cells, new_cells));

    // Byte-identical to a cold full run of the grown spec.
    let cold = run(&grown).unwrap();
    assert_eq!(mixed.csv(), cold.csv(), "mixed hit/miss report must equal a cold run");
    assert_eq!(mixed.json(), cold.json());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn determinism_across_cache_states_and_thread_counts() {
    let dir = tmp_dir("threads");
    let policies = [PolicyKind::Default, PolicyKind::CGate];

    // Pre-warm with a subset so the threaded runs see a hit/miss mix.
    let mut store = CacheStore::open(&dir).unwrap();
    run_with_cache(&small_spec(&policies[..1], 2), Some(&mut store)).unwrap();

    let uncached_t1 = run(&small_spec(&policies, 1)).unwrap();
    let uncached_t8 = run(&small_spec(&policies, 8)).unwrap();
    let mut store = CacheStore::open(&dir).unwrap();
    let mixed_t8 = run_with_cache(&small_spec(&policies, 8), Some(&mut store)).unwrap();
    let mut store = CacheStore::open(&dir).unwrap();
    let warm_t1 = run_with_cache(&small_spec(&policies, 1), Some(&mut store)).unwrap();
    assert_eq!(store.stats().hits, small_spec(&policies, 1).cell_count() as u64);

    let reference = uncached_t1.csv();
    for (label, report) in
        [("t8 uncached", &uncached_t8), ("t8 mixed", &mixed_t8), ("t1 warm", &warm_t1)]
    {
        assert_eq!(report.csv(), reference, "{label} diverged");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupted_entries_recover_by_resimulating() {
    let dir = tmp_dir("corrupt");
    let spec = small_spec(&[PolicyKind::Default], 1);
    let n = spec.cell_count() as u64;
    let mut store = CacheStore::open(&dir).unwrap();
    let cold = run_with_cache(&spec, Some(&mut store)).unwrap();

    // Vandalize the store: truncate the first line, smash the last
    // line's delimiters, and drop the trailing newline (what a writer
    // crash mid-append leaves behind).
    let path = dir.join(cache::STORE_FILE);
    let text = std::fs::read_to_string(&path).unwrap();
    let mut lines: Vec<String> = text.lines().map(str::to_owned).collect();
    let first = lines[0].clone();
    lines[0] = first[..first.len() - 5].to_owned(); // truncated
    let last = lines.last().unwrap().clone();
    *lines.last_mut().unwrap() = last.replace('\t', " "); // delimiter smashed
    std::fs::write(&path, lines.join("\n")).unwrap();

    let mut store = CacheStore::open(&dir).unwrap();
    assert_eq!(store.stats().corrupt, 2, "both vandalized lines detected");
    let healed = run_with_cache(&spec, Some(&mut store)).unwrap();
    let s = store.stats();
    assert_eq!(s.corrupt + s.hits + s.misses, 2 + n);
    assert_eq!(s.misses, s.inserted, "every corrupted entry re-simulates and re-persists");
    assert_eq!(healed.csv(), cold.csv(), "recovery is invisible in the report");

    // And the store is whole again afterwards.
    let mut store = CacheStore::open(&dir).unwrap();
    run_with_cache(&spec, Some(&mut store)).unwrap();
    assert_eq!(store.stats().misses, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn engine_version_bump_invalidates_the_whole_store() {
    let dir = tmp_dir("engine_bump");
    let spec = small_spec(&[PolicyKind::Default], 1);
    // Persist every cell under a *previous* engine version.
    let mut store = CacheStore::open(&dir).unwrap();
    let report = run(&spec).unwrap();
    for row in &report.rows {
        let old_key = cache::cell_key_salted(&spec, &row.cell, "therm3d-sweep-cache/v0");
        store.insert(&old_key, &row.result).unwrap();
    }
    // Under the current version nothing hits: stale semantics are never
    // served.
    let mut store = CacheStore::open(&dir).unwrap();
    assert_eq!(store.len(), spec.cell_count());
    run_with_cache(&spec, Some(&mut store)).unwrap();
    let s = store.stats();
    assert_eq!(s.hits, 0, "version bump must invalidate every entry");
    assert_eq!(s.misses, spec.cell_count() as u64);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn v3_salted_entries_miss_under_the_v4_engine() {
    // Networks past 2 048 nodes moved from the blocked to the scalar
    // numeric phase, which changes their results by rounding:
    // ENGINE_VERSION moved from v3 to v4, and anything a pre-bump
    // binary persisted must be dead on arrival.
    assert_eq!(cache::ENGINE_VERSION, "therm3d-sweep-cache/v4");
    let dir = tmp_dir("v3_salt");
    let spec = small_spec(&[PolicyKind::Default, PolicyKind::Adapt3d], 1);
    let report = run(&spec).unwrap();
    let mut store = CacheStore::open(&dir).unwrap();
    for row in &report.rows {
        let old_key = cache::cell_key_salted(&spec, &row.cell, "therm3d-sweep-cache/v3");
        store.insert(&old_key, &row.result).unwrap();
    }
    drop(store);

    let mut store = CacheStore::open(&dir).unwrap();
    assert_eq!(store.len(), spec.cell_count(), "old entries load intact...");
    let warm = run_with_cache(&spec, Some(&mut store)).unwrap();
    let s = store.stats();
    assert_eq!(s.hits, 0, "...but the v3 salt must never satisfy a v4 lookup");
    assert_eq!(s.misses, spec.cell_count() as u64);
    assert_eq!(s.inserted, spec.cell_count() as u64, "fresh v4 entries are written back");
    assert_eq!(warm.csv(), report.csv(), "re-simulation reproduces the uncached report");

    // A third run is fully warm under the new salt, and compaction
    // reclaims exactly the dead v3 lines.
    let mut store = CacheStore::open(&dir).unwrap();
    run_with_cache(&spec, Some(&mut store)).unwrap();
    assert_eq!(store.stats().misses, 0);
    let stats = store.compact().unwrap();
    assert_eq!(stats.kept, spec.cell_count() as u64);
    assert_eq!(stats.dropped_stale, spec.cell_count() as u64, "every v3 line is dropped");
    let mut store = CacheStore::open(&dir).unwrap();
    run_with_cache(&spec, Some(&mut store)).unwrap();
    assert_eq!(store.stats().misses, 0, "compaction keeps the live entries hot");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A spec exercising every scenario axis at once, including a noisy
/// sensor (whose stream is derived from the per-cell seed — the
/// reproducibility fix this PR makes).
fn scenario_spec(threads: usize) -> SweepSpec {
    use therm3d::SensorProfile;
    use therm3d_floorplan::StackOrder;
    use therm3d_thermal::TsvVariant;
    SweepSpec::new("scenario-cache")
        .with_experiments(&[Experiment::Exp1])
        .with_stack_orders(&StackOrder::ALL)
        .with_tsv(&[TsvVariant::Paper, TsvVariant::Dense1Pct])
        .with_sensors(&[SensorProfile::Ideal, SensorProfile::Noisy1C])
        .with_policies(&[PolicyKind::Default, PolicyKind::DvfsTt])
        .with_benchmarks(&[Benchmark::Gzip])
        .with_sim_seconds(3.0)
        .with_grid(4, 4)
        .with_threads(threads)
}

#[test]
fn scenario_axes_are_cold_warm_deterministic_across_thread_counts() {
    let dir = tmp_dir("scenario");
    let spec = scenario_spec(1);
    let n = spec.cell_count() as u64;
    assert_eq!(n, 2 * 2 * 2 * 2, "all three scenario axes in play");

    let mut store = CacheStore::open(&dir).unwrap();
    let cold_t1 = run_with_cache(&spec, Some(&mut store)).unwrap();
    let s = store.stats();
    assert_eq!((s.hits, s.misses, s.inserted), (0, n, n));

    // Warm rerun on eight threads: zero cells simulate and the report
    // is byte-identical — noisy sensor cells included, because their
    // noise stream is a pure function of the cell, not of the run.
    let mut store = CacheStore::open(&dir).unwrap();
    let warm_t8 = run_with_cache(&scenario_spec(8), Some(&mut store)).unwrap();
    let s = store.stats();
    assert_eq!((s.hits, s.misses, s.inserted), (n, 0, 0), "warm rerun simulates nothing");
    assert_eq!(cold_t1.csv(), warm_t8.csv());
    assert_eq!(cold_t1.json(), warm_t8.json());
    assert_eq!(cold_t1.render(), warm_t8.render());

    // An uncached eight-thread run agrees too (scheduling-independent).
    let uncached_t8 = run(&scenario_spec(8)).unwrap();
    assert_eq!(uncached_t8.csv(), cold_t1.csv());

    // The scenario actually bites: cells differing only in a scenario
    // axis produce different keys AND different physics.
    let by_key: std::collections::BTreeMap<&str, &therm3d::RunResult> =
        cold_t1.rows.iter().map(|r| (r.key.as_str(), &r.result)).collect();
    assert_eq!(by_key.len(), n as usize, "every cell has a distinct key");
    let far = &cold_t1.rows[0]; // cores-far, paper, ideal, Default
    let near = cold_t1
        .rows
        .iter()
        .find(|r| {
            r.cell.stack_order == therm3d_floorplan::StackOrder::CoresNearSink
                && r.cell.tsv == far.cell.tsv
                && r.cell.sensor == far.cell.sensor
                && r.cell.policy == far.cell.policy
        })
        .unwrap();
    assert_ne!(
        far.result.peak_temp_c, near.result.peak_temp_c,
        "bonding the cores to the spreader must change the thermal profile"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cell_keys_distinguish_integrators() {
    // The descriptor embeds the integrator axis: an RK4 golden-reference
    // cell can never be served an implicit cell's numbers or vice versa.
    use therm3d_thermal::Integrator;
    let spec = small_spec(&[PolicyKind::Default], 1)
        .with_integrators(&[Integrator::ImplicitCn, Integrator::ExplicitRk4]);
    let cells = expand(&spec);
    let twin = cells
        .iter()
        .find(|c| {
            c.integrator == Integrator::ExplicitRk4
                && c.experiment == cells[0].experiment
                && c.policy == cells[0].policy
                && c.dpm == cells[0].dpm
                && c.trace_seed == cells[0].trace_seed
        })
        .expect("an RK4 twin of the first cell exists");
    let a = cache::cell_key(&spec, &cells[0]);
    let b = cache::cell_key(&spec, twin);
    assert_ne!(a.hex(), b.hex());
    assert!(a.descriptor().contains("integrator=implicit-cn"), "{}", a.descriptor());
    assert!(b.descriptor().contains("integrator=explicit-rk4"), "{}", b.descriptor());
}

#[test]
fn report_key_column_matches_cell_key_derivation() {
    let dir = tmp_dir("key_column");
    let spec = small_spec(&[PolicyKind::Default], 1);
    let mut store = CacheStore::open(&dir).unwrap();
    let report = run_with_cache(&spec, Some(&mut store)).unwrap();
    for (row, cell) in report.rows.iter().zip(expand(&spec)) {
        assert_eq!(row.key, cache::cell_key(&spec, &cell).hex());
    }
    // The provenance column is identical on a cache-less run.
    let uncached = run(&spec).unwrap();
    assert_eq!(uncached.csv(), report.csv());
    let _ = std::fs::remove_dir_all(&dir);
}
