//! Parallel execution of a sweep's run matrix, with optional
//! content-addressed result caching.
//!
//! Each worker builds its own [`Simulator`] per cell and streams the
//! cell's job mix straight from the generator ([`stream_mix`]), so no
//! simulation state crosses threads, the aggregated results are
//! bit-identical for any thread count, and trace memory is O(1) in
//! `sim_seconds`. Cells of one thermal model take their stack, RC
//! network and solver products from one [`FactorShare`], which is
//! emptied as soon as the last of them is done.
//!
//! With a [`CacheStore`] attached ([`run_with_cache`]), every cell is
//! looked up by its [`cell_key`] *before* any
//! simulator is built: hits skip simulation entirely, misses execute
//! and are written back in canonical order. Because a cached result is
//! decoded bit-exactly and rows are assembled in matrix order either
//! way, the report is byte-identical for any hit/miss mix and any
//! thread count.
//!
//! A cell whose simulation panics no longer aborts the whole campaign
//! via a poisoned `expect`: the panic is caught on the worker, and the
//! run returns [`SweepError::CellFailed`] naming the first failed cell
//! in canonical order. A freshly simulated result that fails
//! [`RunResult::check`] fails its cell the same way. Failed cells are
//! never written to the cache; cache hits are not re-checked.

use std::collections::{BTreeMap, BTreeSet};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::Instant;

use therm3d::{RunResult, ScenarioConfig, SimConfig, Simulator};
use therm3d_telemetry::span::elapsed_us;
use therm3d_telemetry::{CellMetrics, Event, Span};
use therm3d_thermal::{FactorShare, ThermalConfig};
use therm3d_workload::stream_mix;

use crate::cache::{cell_key, CacheStore, ENGINE_VERSION};
use crate::error::SweepError;
use crate::matrix::{expand, SweepCell};
use crate::report::{SweepReport, SweepRow};
use crate::spec::SweepSpec;
use crate::telemetry::RunTelemetry;

/// The simulator configuration for one cell of `spec`: paper defaults
/// plus the cell's scenario (stack order, TSV variant, sensor profile —
/// with the noise seed derived from the cell's trace seed), grid and
/// integrator.
#[must_use]
pub fn sim_config(spec: &SweepSpec, cell: &SweepCell) -> SimConfig {
    let scenario = ScenarioConfig::paper_default()
        .with_stack_order(cell.stack_order)
        .with_tsv(cell.tsv)
        .with_sensor(cell.sensor)
        .with_sensor_seed(cell.sensor_seed());
    let mut cfg = SimConfig::paper_default(cell.experiment).with_scenario(scenario);
    cfg.thermal = cfg.thermal.with_grid(spec.grid.0, spec.grid.1).with_integrator(cell.integrator);
    cfg
}

/// The resolved thermal-model identity of one cell: every axis that
/// changes the stack, the RC network, its ordering or its factors —
/// experiment, stack order, effective TSV variant, grid, integrator and
/// the tick the implicit substep sizes derive from. Cells with equal
/// fingerprints simulate one stack and bit-identical conductance
/// systems, so the runner hands them one [`FactorShare`] and the whole
/// group builds one stack and one network and pays for one symbolic
/// analysis and one factor set.
///
/// The TSV variant only reaches the network when the thermal config
/// keeps the paper's interlayer (the rule of
/// [`SimConfig::resolved_thermal`]); a custom interlayer folds the
/// variant out of the fingerprint instead of splitting identical models
/// apart.
#[must_use]
pub fn model_fingerprint(spec: &SweepSpec, cell: &SweepCell) -> String {
    let cfg = sim_config(spec, cell);
    let tsv = if cfg.thermal.interlayer == ThermalConfig::paper_default().interlayer {
        format!("{:?}", cell.tsv)
    } else {
        "custom-interlayer".to_owned()
    };
    format!(
        "{}|{:?}|{tsv}|{}x{}|{:?}|{:016x}",
        cell.experiment,
        cell.stack_order,
        spec.grid.0,
        spec.grid.1,
        cell.integrator,
        cfg.tick_s.to_bits()
    )
}

/// Runs a single cell in isolation, without cache or factor sharing
/// (the figure binaries' one-off cells). Same result as the cell's row
/// in a [`run`] of `spec`.
#[must_use]
pub fn run_cell(spec: &SweepSpec, cell: &SweepCell) -> RunResult {
    run_cell_costed(spec, cell, sim_config(spec, cell), &FactorShare::new()).0
}

/// The cost of simulating one cell: wall-clock split by phase plus the
/// thermal solver's deterministic work counters. A handful of clock
/// reads per *cell* (not per tick), so it is recorded unconditionally.
#[derive(Clone, Copy, Debug)]
struct CellCost {
    wall_us: u64,
    setup_us: u64,
    simulate_us: u64,
    factor_numeric: u64,
    symbolic_analyses: u64,
}

/// Simulates one cell under `cfg`, its [`sim_config`], streaming its
/// job mix from the generator.
fn run_cell_costed(
    spec: &SweepSpec,
    cell: &SweepCell,
    cfg: SimConfig,
    share: &FactorShare,
) -> (RunResult, CellCost) {
    #[allow(
        clippy::disallowed_methods,
        reason = "per-cell cost accounting only: never feeds results"
    )]
    let t_wall = Instant::now();
    // The policy must see the same stack the engine simulates (Adapt3D's
    // thermal indices depend on which layer each core sits on), so it
    // takes the stack from the share too.
    let (stack, _) = share.model(cfg.experiment, cfg.scenario.stack_order, &cfg.resolved_thermal());
    let policy = cell.policy.build_with_dpm(&stack, cell.policy_seed, cell.dpm);
    let mut sim = Simulator::with_factor_share(cfg, policy, Some(share.clone()));
    let setup_us = elapsed_us(t_wall);
    #[allow(
        clippy::disallowed_methods,
        reason = "per-cell cost accounting only: never feeds results"
    )]
    let t_sim = Instant::now();
    let source = stream_mix(
        &spec.benchmarks,
        cell.experiment.num_cores(),
        spec.sim_seconds,
        cell.trace_seed,
    );
    let result = sim.run_source(source, spec.sim_seconds);
    let cost = CellCost {
        wall_us: elapsed_us(t_wall),
        setup_us,
        simulate_us: elapsed_us(t_sim),
        factor_numeric: sim.factorization_count() as u64,
        symbolic_analyses: sim.symbolic_analysis_count() as u64,
    };
    (result, cost)
}

/// [`run_cell_costed`] with panics and unphysical results (see
/// [`RunResult::check`]) converted to an error message, so one
/// exploding cell reports itself instead of killing its worker or
/// entering the cache.
fn try_run_cell(
    spec: &SweepSpec,
    cell: &SweepCell,
    share: &FactorShare,
) -> Result<(RunResult, CellCost), String> {
    let cfg = sim_config(spec, cell);
    let ambient_c = cfg.thermal.ambient_c;
    let (result, cost) =
        std::panic::catch_unwind(AssertUnwindSafe(|| run_cell_costed(spec, cell, cfg, share)))
            .map_err(|payload| panic_message(payload.as_ref()))?;
    result.check(ambient_c).map_err(|violation| format!("unphysical result: {violation}"))?;
    Ok((result, cost))
}

/// [`try_run_cell`] bracketed by telemetry: a `cell_start` event before
/// the simulation, `cell_finish`/`cell_panic` and a progress bump after.
fn run_cell_observed(
    spec: &SweepSpec,
    cell: &SweepCell,
    share: &FactorShare,
    key_hex: &str,
    telemetry: Option<&RunTelemetry>,
) -> Result<(RunResult, CellCost), String> {
    let Some(tel) = telemetry else { return try_run_cell(spec, cell, share) };
    if let Some(events) = &tel.events {
        events.emit(&Event::CellStart { cell: cell.index, key: key_hex });
    }
    let outcome = try_run_cell(spec, cell, share);
    if let Some(events) = &tel.events {
        match &outcome {
            Ok((_, cost)) => events.emit(&Event::CellFinish {
                cell: cell.index,
                key: key_hex,
                wall_us: cost.wall_us,
                cached: false,
            }),
            Err(cause) => events.emit(&Event::CellPanic { cell: cell.index, key: key_hex, cause }),
        }
    }
    if let Some(progress) = &tel.progress {
        progress.cell_done(false);
    }
    outcome
}

/// Extracts the human-readable message from a panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        format!("simulation panicked: {s}")
    } else if let Some(s) = payload.downcast_ref::<String>() {
        format!("simulation panicked: {s}")
    } else {
        "simulation panicked (non-string payload)".to_owned()
    }
}

/// Resolves the effective worker count for `jobs` cells.
#[must_use]
pub fn effective_threads(requested: usize, jobs: usize) -> usize {
    let auto = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let t = if requested == 0 { auto } else { requested };
    t.clamp(1, jobs.max(1))
}

/// Expands `spec` and executes every cell across worker threads,
/// returning rows in canonical matrix order.
///
/// # Errors
///
/// [`SweepError::InvalidSpec`] for a spec that fails validation, or
/// [`SweepError::CellFailed`] when a cell's simulation panics or yields
/// an unphysical result.
pub fn run(spec: &SweepSpec) -> Result<SweepReport, SweepError> {
    run_with_cache(spec, None)
}

/// [`run`] with an optional persistent result cache: cells whose key is
/// already in `cache` skip simulation, the rest execute in parallel and
/// are written back. The report (rows, CSV, JSON, tables) is
/// byte-identical whatever the hit/miss mix or thread count.
///
/// # Errors
///
/// [`SweepError::InvalidSpec`] for a spec that fails validation,
/// [`SweepError::CellFailed`] when a cell's simulation panics or yields
/// an unphysical result (the failed cell is named; nothing is cached
/// for it), or
/// [`SweepError::Cache`] when the store cannot be appended to.
pub fn run_with_cache(
    spec: &SweepSpec,
    cache: Option<&mut CacheStore>,
) -> Result<SweepReport, SweepError> {
    run_with_telemetry(spec, cache, None)
}

/// [`run_with_cache`] with optional observability: when `telemetry` is
/// given, the run feeds its private metrics registry (aggregate
/// counters/histograms plus one [`CellMetrics`] record per cell),
/// streams cell-lifecycle events and drives the live progress
/// reporter. Telemetry writes only to the sinks inside
/// [`RunTelemetry`] — rows, CSV and JSON stay byte-identical with
/// telemetry on or off, which CI guards by diffing the two.
///
/// # Errors
///
/// Exactly as [`run_with_cache`].
pub fn run_with_telemetry(
    spec: &SweepSpec,
    cache: Option<&mut CacheStore>,
    telemetry: Option<&RunTelemetry>,
) -> Result<SweepReport, SweepError> {
    run_selected(spec, None, cache, telemetry)
}

/// [`run_with_telemetry`] restricted to an explicit set of canonical
/// cell indices — the campaign coordinator's entry point: a
/// `therm3d work` process runs exactly the cells of its lease through
/// the full runner (cache lookup, factor sharing, worker threads,
/// telemetry) and nothing else. Indices refer to the canonical
/// expansion, the same numbering as [`SweepCell::index`] and report
/// rows; seeds and keys are selection-independent, so any partition of
/// a matrix across workers reassembles byte-identically.
///
/// # Errors
///
/// As [`run_with_telemetry`], plus [`SweepError::InvalidSpec`] when an
/// index is at or past the spec's cell count.
pub fn run_cells_with_telemetry(
    spec: &SweepSpec,
    indices: &[usize],
    cache: Option<&mut CacheStore>,
    telemetry: Option<&RunTelemetry>,
) -> Result<SweepReport, SweepError> {
    let total = spec.cell_count();
    if let Some(&bad) = indices.iter().find(|&&i| i >= total) {
        return Err(SweepError::InvalidSpec(format!(
            "cell index {bad} out of range: '{}' expands to {total} cell(s)",
            spec.name
        )));
    }
    let selection: BTreeSet<usize> = indices.iter().copied().collect();
    run_selected(spec, Some(&selection), cache, telemetry)
}

fn run_selected(
    spec: &SweepSpec,
    selection: Option<&BTreeSet<usize>>,
    mut cache: Option<&mut CacheStore>,
    telemetry: Option<&RunTelemetry>,
) -> Result<SweepReport, SweepError> {
    spec.validate().map_err(SweepError::InvalidSpec)?;
    // An explicit selection (a coordinator lease) narrows the work list
    // by canonical index. Cells keep their indices and derived seeds, so
    // everything below — keys, seeds, write-back, report rows — is the
    // same whichever cells run together.
    #[allow(
        clippy::disallowed_methods,
        reason = "expansion-phase telemetry only: never feeds results"
    )]
    let t_expand = Instant::now();
    let mut cells = {
        let _span = Span::enter("sweep.expand_us");
        expand(spec)
    };
    if let Some(sel) = selection {
        cells.retain(|cell| sel.contains(&cell.index));
    }
    let keys: Vec<_> = cells.iter().map(|cell| cell_key(spec, cell)).collect();
    let expand_us = elapsed_us(t_expand);

    // Lookup-before-simulate: hits fill their slot immediately, misses
    // form the pending work list for the workers. Each lookup is timed
    // only for the telemetry that reports it.
    let mut results: Vec<Option<Result<RunResult, String>>> = vec![None; cells.len()];
    let mut lookup_us: Vec<u64> = Vec::new();
    let cache_attached = cache.is_some();
    if let Some(store) = cache.as_deref_mut() {
        let _span = Span::enter("cache.lookup_us");
        for (slot, key) in results.iter_mut().zip(&keys) {
            #[allow(
                clippy::disallowed_methods,
                reason = "cache-lookup telemetry only: never feeds results"
            )]
            let t = telemetry.map(|_| Instant::now());
            *slot = store.lookup(key).map(Ok);
            if let Some(t) = t {
                lookup_us.push(elapsed_us(t));
            }
        }
    }
    let pending: Vec<usize> = (0..cells.len()).filter(|&i| results[i].is_none()).collect();
    let threads = effective_threads(spec.threads, pending.len());
    // One group per distinct thermal-model fingerprint among the pending
    // cells: every cell whose model resolves identically adopts the
    // group's stack, network, symbolic analysis and factors instead of
    // rebuilding them. Cached cells never build a model, so they join
    // no group. Cells run group by group, in canonical order within
    // each, so a group's share empties after its last cell even where
    // its cells spread over the canonical order (the seed axis varies
    // slowest): `work` holds `(group, position)` pairs in run order.
    let mut groups: Vec<Group> = Vec::new();
    let mut by_fingerprint: BTreeMap<String, usize> = BTreeMap::new();
    let mut work: Vec<(usize, usize)> = pending
        .iter()
        .map(|&i| {
            let g =
                *by_fingerprint.entry(model_fingerprint(spec, &cells[i])).or_insert_with(|| {
                    groups.push(Group::default());
                    groups.len() - 1
                });
            *groups[g].left.get_mut() += 1;
            (g, i)
        })
        .collect();
    work.sort_unstable();

    if let Some(tel) = telemetry {
        let reg = &tel.registry;
        reg.set_meta("sweep", &spec.name);
        reg.set_meta("engine", ENGINE_VERSION);
        reg.set_meta("threads", &threads.to_string());
        reg.gauge("sweep.expand_us").set(expand_us as f64);
        reg.counter("sweep.cells_total").add(cells.len() as u64);
        // Hit/miss accounting only means something with a store attached
        // — an uncached run is not "all misses".
        if cache_attached {
            reg.counter("sweep.cache_hits").add((cells.len() - pending.len()) as u64);
            reg.counter("sweep.cache_misses").add(pending.len() as u64);
        }
        if let Some(progress) = &tel.progress {
            progress.begin(cells.len(), threads);
        }
        // Cache hits resolve before any worker starts: announce them
        // now so progress and the event stream cover every cell.
        for (i, slot) in results.iter().enumerate() {
            if slot.is_none() {
                continue;
            }
            if let Some(events) = &tel.events {
                let key = keys[i].hex();
                let us = lookup_us[i];
                let cell = cells[i].index;
                events.emit(&Event::CacheHit { cell, key: &key, lookup_us: us });
                events.emit(&Event::CellFinish { cell, key: &key, wall_us: us, cached: true });
            }
            if let Some(progress) = &tel.progress {
                progress.cell_done(true);
            }
        }
    }

    // Runs the cell at position `i` in group `g`, and empties the
    // group's share once its last cell is done.
    let run_in_group = |g: usize, i: usize| {
        let group = &groups[g];
        let outcome = run_cell_observed(spec, &cells[i], &group.share, &keys[i].hex(), telemetry);
        group.cell_done();
        outcome
    };

    let mut costs: Vec<Option<CellCost>> = vec![None; cells.len()];
    if threads == 1 {
        for &(g, i) in &work {
            let outcome = run_in_group(g, i);
            results[i] = Some(match outcome {
                Ok((result, cost)) => {
                    costs[i] = Some(cost);
                    Ok(result)
                }
                Err(cause) => Err(cause),
            });
        }
    } else {
        let next = AtomicUsize::new(0);
        type CellOutcome = (usize, Result<RunResult, String>, Option<CellCost>);
        let (tx, rx) = mpsc::channel::<CellOutcome>();
        let (next, work, run_in_group) = (&next, &work, &run_in_group);
        #[allow(
            clippy::disallowed_methods,
            reason = "the sweep runner owns cell-level parallelism: each cell lands in its canonical slot, so the thread count never changes a report"
        )]
        std::thread::scope(|scope| {
            for _ in 0..threads {
                let tx = tx.clone();
                scope.spawn(move || loop {
                    let slot = next.fetch_add(1, Ordering::Relaxed);
                    let Some(&(g, i)) = work.get(slot) else { break };
                    let outcome = run_in_group(g, i);
                    let (result, cost) = match outcome {
                        Ok((result, cost)) => (Ok(result), Some(cost)),
                        Err(cause) => (Err(cause), None),
                    };
                    if tx.send((i, result, cost)).is_err() {
                        break;
                    }
                });
            }
            drop(tx);
            for (i, result, cost) in rx {
                results[i] = Some(result);
                costs[i] = cost;
            }
        });
    }
    if let Some(progress) = telemetry.and_then(|tel| tel.progress.as_ref()) {
        progress.finish();
    }

    // Run-level solver totals come from the shares, not by summing the
    // per-cell counters: a shared network or factor was *built* once
    // however many cells used it, so these are the deduplicated work
    // totals (and they are scheduling-independent — build-under-lock
    // makes the split between built and adopted exact, not racy). A
    // fully cached run builds no models and reports no solver work.
    if let Some(tel) = telemetry {
        if !groups.is_empty() {
            let (mut networks, mut analyses, mut factors, mut hits) = (0u64, 0u64, 0u64, 0u64);
            for Group { share, .. } in &groups {
                networks += share.network_builds() as u64;
                analyses += share.symbolic_analyses() as u64;
                factors += share.factorizations() as u64;
                hits += share.hits() as u64;
            }
            let reg = &tel.registry;
            reg.counter("sweep.thermal_models").add(groups.len() as u64);
            reg.counter("sweep.factor_share_hits").add(hits);
            reg.counter("thermal.network_builds").add(networks);
            reg.counter("thermal.symbolic_analyses").add(analyses);
            reg.counter("thermal.factor_numeric").add(factors);
        }
        // Heap accounting from the counting allocator, when the binary
        // installs one (benches, memory tests); inert zeros otherwise.
        // Traces stream, so the high-water mark does not scale with
        // `sim_seconds`.
        let reg = &tel.registry;
        reg.gauge("sweep.heap_live_bytes").set(therm3d_telemetry::alloc::live_bytes() as f64);
        reg.gauge("sweep.heap_high_water_bytes")
            .set(therm3d_telemetry::alloc::high_water_bytes() as f64);
    }

    // Write-back and assembly in canonical order. A failed cell makes
    // the run fail with the *first* failure (deterministic by matrix
    // order), but only after every successfully simulated cell has been
    // written back — one poisoned cell in a long campaign must not
    // discard hours of good work from the cache.
    let mut rows = Vec::with_capacity(cells.len());
    let mut first_failure: Option<SweepError> = None;
    // Positions in the (possibly selected) work list, NOT canonical
    // cell indices — the two coincide only for the full matrix.
    let pending_set: std::collections::BTreeSet<usize> = pending.into_iter().collect();
    for (position, ((cell, key), slot)) in cells.into_iter().zip(keys).zip(results).enumerate() {
        let fresh = pending_set.contains(&position);
        let result = match slot {
            Some(Ok(result)) => result,
            Some(Err(cause)) => {
                if let Some(tel) = telemetry {
                    tel.registry.counter("sweep.cells_failed").inc();
                }
                first_failure
                    .get_or_insert(SweepError::CellFailed { cell: cell.describe(), cause });
                continue;
            }
            None => {
                if let Some(tel) = telemetry {
                    tel.registry.counter("sweep.cells_failed").inc();
                }
                first_failure.get_or_insert(SweepError::CellFailed {
                    cell: cell.describe(),
                    cause: "worker thread died before reporting a result".to_owned(),
                });
                continue;
            }
        };
        if fresh {
            if let Some(store) = cache.as_deref_mut() {
                let _span = Span::enter("cache.insert_us");
                store.insert(&key, &result)?;
            }
        }
        let timing = telemetry.map(|tel| {
            let metrics = cell_metrics(&cell, &key.hex(), costs[position], lookup_us.get(position));
            record_cell_metrics(&tel.registry, &metrics);
            metrics
        });
        rows.push(SweepRow { key: key.hex(), cell, result, timing });
    }
    match first_failure {
        Some(failure) => Err(failure),
        None => Ok(SweepReport { name: spec.name.clone(), rows }),
    }
}

/// The pending cells of one thermal-model fingerprint: their share, and
/// how many of them are yet to finish.
#[derive(Default)]
struct Group {
    share: FactorShare,
    left: AtomicUsize,
}

impl Group {
    /// Counts one cell of the group done. After the last, nothing reads
    /// the share's model or factors again, so the share keeps only its
    /// counters and the run stops holding the group's model.
    fn cell_done(&self) {
        // Each cell's decrement releases its use of the share, and the
        // last one acquires them all, so every use happens before
        // `release`.
        if self.left.fetch_sub(1, Ordering::AcqRel) == 1 {
            self.share.release();
        }
    }
}

/// The per-cell cost record for one finished cell: simulated cells
/// carry their phase split and solver counters, cached cells their
/// lookup time.
fn cell_metrics(
    cell: &SweepCell,
    key_hex: &str,
    cost: Option<CellCost>,
    lookup_us: Option<&u64>,
) -> CellMetrics {
    let mut metrics =
        CellMetrics { index: cell.index as u64, key: key_hex.to_owned(), ..CellMetrics::default() };
    if let Some(cost) = cost {
        metrics.wall_us = cost.wall_us;
        metrics.phases.insert("setup".to_owned(), cost.setup_us);
        metrics.phases.insert("simulate".to_owned(), cost.simulate_us);
        metrics.counters.insert("factor_numeric".to_owned(), cost.factor_numeric);
        metrics.counters.insert("symbolic_analyses".to_owned(), cost.symbolic_analyses);
    } else {
        let us = lookup_us.copied().unwrap_or(0);
        metrics.cached = true;
        metrics.wall_us = us;
        metrics.phases.insert("cache_lookup".to_owned(), us);
    }
    metrics
}

/// Folds one cell's record into the run-local aggregates. The solver
/// counters stay per-cell only: the run-level `thermal.*` totals are
/// derived from the factor shares (deduplicated computed work), not by
/// summing the cells' "ensured" counts.
fn record_cell_metrics(registry: &therm3d_telemetry::Registry, metrics: &CellMetrics) {
    registry.histogram_us("cell.wall_us").record(metrics.wall_us);
    for (phase, us) in &metrics.phases {
        registry.histogram_us(&format!("cell.{phase}_us")).record(*us);
    }
    if !metrics.cached {
        registry.counter("sweep.cells_simulated").inc();
    }
    registry.record_cell(metrics.clone());
}

#[cfg(test)]
mod tests {
    use super::*;
    use therm3d_floorplan::Experiment;
    use therm3d_policies::PolicyKind;
    use therm3d_workload::Benchmark;

    fn tiny_spec(threads: usize) -> SweepSpec {
        SweepSpec::new("tiny")
            .with_experiments(&[Experiment::Exp1])
            .with_policies(&[PolicyKind::Default, PolicyKind::Adapt3d])
            .with_benchmarks(&[Benchmark::Gzip])
            .with_sim_seconds(4.0)
            .with_grid(4, 4)
            .with_threads(threads)
    }

    #[test]
    fn rows_come_back_in_matrix_order() {
        let report = run(&tiny_spec(2)).unwrap();
        assert_eq!(report.rows.len(), 2);
        assert_eq!(report.rows[0].cell.policy, PolicyKind::Default);
        assert_eq!(report.rows[1].cell.policy, PolicyKind::Adapt3d);
        for (i, row) in report.rows.iter().enumerate() {
            assert_eq!(row.cell.index, i);
            assert_eq!(row.result.experiment, Experiment::Exp1);
            assert_eq!(row.key.len(), 16, "cell_key is 16 hex digits: {}", row.key);
        }
    }

    #[test]
    fn selected_runs_union_to_the_full_report() {
        let spec = tiny_spec(2).with_dpm(&[false, true]);
        let full = run(&spec).unwrap();
        assert_eq!(full.rows.len(), 4);
        // Three disjoint selections, in scrambled order, as a coordinator
        // might lease them to three workers.
        let mut union: Vec<SweepRow> = Vec::new();
        for selection in [&[3, 0][..], &[2], &[1]] {
            let part =
                run_cells_with_telemetry(&spec.clone().with_threads(1), selection, None, None)
                    .unwrap();
            let indices: Vec<usize> = part.rows.iter().map(|r| r.cell.index).collect();
            let mut expected = selection.to_vec();
            expected.sort_unstable();
            assert_eq!(indices, expected, "exactly the selected cells, in canonical order");
            union.extend(part.rows);
        }
        union.sort_by_key(|r| r.cell.index);
        // Same cells, same keys, same numbers — the selection only moves
        // work between processes.
        assert_eq!(union, full.rows);
        // An index past the matrix is an invalid spec, not an empty report.
        let err = run_cells_with_telemetry(&spec, &[1, 4], None, None).unwrap_err();
        assert!(matches!(err, SweepError::InvalidSpec(_)), "{err}");
        assert!(err.to_string().contains("cell index 4"), "{err}");
    }

    #[test]
    fn a_share_holding_another_model_fails_the_cell() {
        let spec = tiny_spec(1);
        let cell = &expand(&spec)[0];
        let share = FactorShare::new();
        let other = sim_config(&spec, cell).resolved_thermal().with_grid(8, 8);
        let _ = share.model(cell.experiment, cell.stack_order, &other);
        let cause = try_run_cell(&spec, cell, &share).unwrap_err();
        assert!(cause.contains("factor share holds the model of EXP-1"), "{cause}");
        assert!(cause.contains("grid_rows: 8") && cause.contains("grid_rows: 4"), "{cause}");
    }

    #[test]
    fn invalid_spec_is_reported() {
        let err = run(&tiny_spec(1).with_policies(&[])).unwrap_err();
        assert!(matches!(err, SweepError::InvalidSpec(_)), "{err}");
        assert!(err.to_string().contains("policies"), "{err}");
    }

    #[test]
    fn effective_threads_clamps() {
        assert_eq!(effective_threads(8, 3), 3);
        assert_eq!(effective_threads(2, 100), 2);
        assert!(effective_threads(0, 100) >= 1);
        assert_eq!(effective_threads(1, 0), 1);
    }

    #[test]
    fn panic_payloads_become_messages() {
        let caught = std::panic::catch_unwind(|| panic!("boom at t={:.1}", 3.0)).unwrap_err();
        assert_eq!(panic_message(caught.as_ref()), "simulation panicked: boom at t=3.0");
        let caught = std::panic::catch_unwind(|| panic!("plain")).unwrap_err();
        assert_eq!(panic_message(caught.as_ref()), "simulation panicked: plain");
        let caught = std::panic::catch_unwind(|| std::panic::panic_any(7u32)).unwrap_err();
        assert!(panic_message(caught.as_ref()).contains("non-string payload"));
    }
}
