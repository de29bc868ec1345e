//! The traced run: per-layer timings and counts, measured from outside
//! the program by wrapping calls to each crate's public functions.
//!
//! Each cell is driven through the same public calls the sweep runner
//! makes (`sim_config`, `PolicyKind::build_with_dpm`,
//! `Simulator::with_factor_share`, `run_source_with_observer` over
//! `stream_mix`). The policy is wrapped in [`TimedPolicy`], so
//! `control` and `place_job` are timed inside the real loop; tick
//! boundaries come from the observer, whose own time and allocations
//! are excluded from the tick they follow. Sensor, power, thermal and
//! metric folds are then timed by replaying the recorded per-tick
//! stream through their public functions; the metric replay must
//! reproduce the cell's reported metrics exactly.
//!
//! Calls shorter than a microsecond (sensor read, metric fold, job
//! generation, disabled span) are timed in batches of [`BATCH`]
//! consecutive calls, so the clock read does not dominate them.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use therm3d::{RunResult, SimConfig, Simulator, TickSample};
use therm3d_coord::wire::{decode_frame, encode_frame, Msg};
use therm3d_coord::{default_lease_cells, Campaign, Grant};
use therm3d_floorplan::{CoreId, Experiment, Stack3d};
use therm3d_metrics::{
    max_layer_gradient, max_vertical_gradient, HotSpotTracker, SpatialGradientTracker,
    ThermalCycleTracker, VerticalGradientTracker,
};
use therm3d_policies::{ControlDecision, Observation, Policy, PolicyKind, QueueHint};
use therm3d_power::{CorePowerInput, PowerModel};
use therm3d_sweep::{
    cell_key, encode_line, expand, model_fingerprint, run_with_cache, sim_config, CacheStore,
    SweepCell, SweepReport, SweepSpec,
};
use therm3d_telemetry::{alloc, Span};
use therm3d_thermal::sparse::factor::analyze;
use therm3d_thermal::{FactorShare, Integrator, RcNetwork, ThermalConfig, ThermalModel};
use therm3d_workload::{stream_mix, Job, JobSource};

use crate::campaign::{fresh_dir, probe, Tally};
use crate::coordinator::serve;
use crate::stats::{mean, median, quantile, repeat, since};
use crate::workloads::Workload;
use crate::{Metric, Outcome};

/// Consecutive sub-microsecond calls timed as one sample.
const BATCH: usize = 4;
/// Samples each timing aims for: enough for a p90 with ten samples
/// beyond it.
const MIN_SAMPLES: usize = 100;
/// Time budget of one micro-measurement that has not reached
/// [`MIN_SAMPLES`] yet.
const BUDGET: Duration = Duration::from_secs(2);
/// Memory intensity the power replay feeds every core (the engine's
/// per-queue value is not observable from outside).
const REPLAY_MEMORY_INTENSITY: f64 = 0.5;

/// Timed layers: `(name, unit)`. Each reports `<name>.p50` and
/// `<name>.p90`.
pub const TIMINGS: [(&str, &str); 33] = [
    ("engine.tick_ns", "ns"),
    ("policy.control_ns", "ns"),
    ("policy.place_ns", "ns"),
    ("power.block_powers_ns", "ns"),
    ("sensor.read_ns", "ns"),
    ("metrics.record_ns", "ns"),
    ("thermal.step_us", "us"),
    ("thermal.read_temps_ns", "ns"),
    ("thermal.network_build_ms", "ms"),
    ("thermal.model_new_ms", "ms"),
    ("thermal.steady_init_ms", "ms"),
    ("thermal.first_step_ms", "ms"),
    ("thermal.model_new_32x32_ms", "ms"),
    ("thermal.step_32x32_us", "us"),
    ("sparse.analyze_ms", "ms"),
    ("sparse.numeric_ms", "ms"),
    ("sparse.solve_us", "us"),
    ("workload.next_job_ns", "ns"),
    ("workload.stream_setup_us", "us"),
    ("floorplan.stack_us", "us"),
    ("sweep.expand_us", "us"),
    ("sweep.cell_key_us", "us"),
    ("sweep.cell_setup_us", "us"),
    ("sweep.cell_simulate_ms", "ms"),
    ("cache.open_ms", "ms"),
    ("cache.lookup_us", "us"),
    ("cache.insert_us", "us"),
    ("report.csv_us", "us"),
    ("wire.encode_us", "us"),
    ("wire.decode_us", "us"),
    ("campaign.lease_ns", "ns"),
    ("campaign.complete_us", "us"),
    ("telemetry.span_off_ns", "ns"),
];

/// Counts and ratios: `(name, unit)`.
pub const COUNTS: [(&str, &str); 15] = [
    ("engine.ticks", "count"),
    ("engine.allocs_per_tick", "count"),
    ("engine.unattributed_frac", "ratio"),
    ("policy.allocs_per_control", "count"),
    ("power.allocs_per_call", "count"),
    ("sparse.nnz_l", "count"),
    ("sparse.nnz_l_64x64", "count"),
    ("thermal.symbolic_analyses", "count"),
    ("thermal.factorizations", "count"),
    ("thermal.share_hits", "count"),
    ("sweep.parallel_efficiency", "ratio"),
    ("coord.leases", "count"),
    ("coord.reissues", "count"),
    ("coord.overhead_ms", "ms"),
    ("trace.overhead_frac", "ratio"),
];

/// Every per-layer metric name with its unit, in reporting order.
#[cfg(test)]
pub fn metric_names() -> Vec<(String, &'static str)> {
    TIMINGS
        .iter()
        .flat_map(|&(name, unit)| [(format!("{name}.p50"), unit), (format!("{name}.p90"), unit)])
        .chain(COUNTS.iter().map(|&(name, unit)| (name.to_owned(), unit)))
        .collect()
}

/// Timing samples by layer, each in the layer's own unit.
#[derive(Default)]
struct Samples(BTreeMap<&'static str, Vec<f64>>);

impl Samples {
    fn push(&mut self, name: &'static str, value: f64) {
        self.0.entry(name).or_default().push(value);
    }

    fn extend(&mut self, name: &'static str, values: impl IntoIterator<Item = f64>) {
        self.0.entry(name).or_default().extend(values);
    }

    fn mean(&self, name: &str) -> f64 {
        self.0.get(name).map_or(f64::NAN, |v| mean(v))
    }
}

/// Nanoseconds per call of `call(i)` for `i in 0..n`, one sample per
/// [`BATCH`] consecutive calls.
fn batched(n: usize, mut call: impl FnMut(usize)) -> Vec<f64> {
    let mut out = Vec::with_capacity(n.div_ceil(BATCH));
    let mut i = 0;
    while i < n {
        let end = (i + BATCH).min(n);
        let start = Instant::now();
        for k in i..end {
            call(k);
        }
        #[allow(clippy::cast_precision_loss)]
        out.push(since(start, 1e9) / (end - i) as f64);
        i = end;
    }
    out
}

/// What the policy wrapper saw. Sample vectors are reserved before each
/// cell runs and never grow inside the loop, so the wrapper allocates
/// nothing in the ticks it measures.
#[derive(Default)]
struct PolicyProbe {
    control_ns: Vec<f64>,
    place_ns: Vec<f64>,
    controls: u64,
    control_allocs: u64,
    places: u64,
}

fn push_reserved(v: &mut Vec<f64>, x: f64) {
    if v.len() < v.capacity() {
        v.push(x);
    }
}

/// A [`Policy`] that times the policy it wraps and counts the
/// allocations its `control` makes.
struct TimedPolicy {
    inner: Box<dyn Policy>,
    probe: Arc<Mutex<PolicyProbe>>,
}

impl Policy for TimedPolicy {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn place_job(&mut self, job: &Job, obs: &Observation<'_>, hint: &QueueHint<'_>) -> CoreId {
        let start = Instant::now();
        let core = self.inner.place_job(job, obs, hint);
        let ns = since(start, 1e9);
        let mut probe = self.probe.lock().expect("policy probe lock");
        probe.places += 1;
        push_reserved(&mut probe.place_ns, ns);
        core
    }

    fn control(&mut self, obs: &Observation<'_>) -> ControlDecision {
        let allocs = alloc::allocation_count();
        let start = Instant::now();
        let decision = self.inner.control(obs);
        let ns = since(start, 1e9);
        let allocs = alloc::allocation_count() - allocs;
        let mut probe = self.probe.lock().expect("policy probe lock");
        probe.controls += 1;
        probe.control_allocs += allocs as u64;
        push_reserved(&mut probe.control_ns, ns);
        decision
    }
}

/// The per-tick stream one cell produced, flattened.
struct TickLog {
    cores: usize,
    blocks: usize,
    temps: Vec<f64>,
    core: Vec<f64>,
    util: Vec<f64>,
    vf: Vec<usize>,
    asleep: Vec<bool>,
}

impl TickLog {
    fn new(cores: usize, blocks: usize) -> Self {
        Self {
            cores,
            blocks,
            temps: vec![],
            core: vec![],
            util: vec![],
            vf: vec![],
            asleep: vec![],
        }
    }

    fn record(&mut self, s: &TickSample<'_>) {
        self.temps.extend_from_slice(s.block_temps_c);
        self.core.extend_from_slice(s.core_temps_c);
        self.util.extend_from_slice(s.utilization);
        self.vf.extend_from_slice(s.vf_index);
        self.asleep.extend_from_slice(s.asleep);
    }

    fn ticks(&self) -> usize {
        self.core.len() / self.cores
    }

    /// Block temperatures after tick `k`.
    fn temps(&self, k: usize) -> &[f64] {
        &self.temps[k * self.blocks..(k + 1) * self.blocks]
    }

    /// Core temperatures after tick `k`.
    fn core(&self, k: usize) -> &[f64] {
        &self.core[k * self.cores..(k + 1) * self.cores]
    }

    /// The power model's inputs during tick `k`.
    fn inputs(&self, k: usize, out: &mut Vec<CorePowerInput>) {
        let range = k * self.cores..(k + 1) * self.cores;
        out.clear();
        out.extend(
            self.util[range.clone()]
                .iter()
                .zip(&self.vf[range.clone()])
                .zip(&self.asleep[range])
                .map(|((&utilization, &vf_index), &asleep)| CorePowerInput {
                    utilization,
                    vf_index,
                    gated: false,
                    asleep,
                    memory_intensity: REPLAY_MEMORY_INTENSITY,
                }),
        );
    }
}

/// Deterministic counts of one pass over the workload's cells.
#[derive(Default)]
struct PassCounts {
    ticks: u64,
    steady_ticks: u64,
    tick_allocs: u64,
    controls: u64,
    control_allocs: u64,
    places: u64,
    power_calls: u64,
    power_allocs: u64,
    symbolic_analyses: u64,
    factorizations: u64,
    share_hits: u64,
    /// Wall time of the traced `run_source_with_observer` calls.
    traced_run_s: f64,
}

/// The thermal configuration the engine builds for `cfg` (the scenario's
/// TSV variant applies unless the interlayer was overridden).
fn thermal_config(cfg: &SimConfig) -> ThermalConfig {
    if cfg.thermal.interlayer == ThermalConfig::paper_default().interlayer {
        cfg.thermal.clone().with_tsv(cfg.scenario.tsv)
    } else {
        cfg.thermal.clone()
    }
}

/// Jobs `cell` receives over `spec.sim_seconds`.
fn job_count(spec: &SweepSpec, cell: &SweepCell) -> usize {
    let mut source = stream_mix(
        &spec.benchmarks,
        cell.experiment.num_cores(),
        spec.sim_seconds,
        cell.trace_seed,
    );
    std::iter::from_fn(|| source.next_job()).count()
}

/// Drives one cell through the traced loop, then replays its tick
/// stream through the concrete layers. Returns the cell's result.
fn drive_cell(
    spec: &SweepSpec,
    cell: &SweepCell,
    share: FactorShare,
    lay: &mut Samples,
    counts: &mut PassCounts,
    tally: &mut Tally,
) -> RunResult {
    let cfg = sim_config(spec, cell);
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let max_ticks = ((spec.sim_seconds + cfg.drain_max_s) / cfg.tick_s).ceil() as usize + 2;
    let probe = Arc::new(Mutex::new(PolicyProbe::default()));
    {
        let mut p = probe.lock().expect("policy probe lock");
        p.control_ns.reserve(max_ticks);
        p.place_ns.reserve(job_count(spec, cell) + 1);
    }

    let start = Instant::now();
    let stack = cell.experiment.stack_with_order(cell.stack_order);
    let inner = cell.policy.build_with_dpm(&stack, cell.policy_seed, cell.dpm);
    let policy = Box::new(TimedPolicy { inner, probe: Arc::clone(&probe) });
    let mut sim = Simulator::with_factor_share(cfg.clone(), policy, Some(share));
    lay.push("sweep.cell_setup_us", since(start, 1e6));

    let mut log = TickLog::new(stack.num_cores(), stack.num_blocks());
    let mut tick_ns = Vec::with_capacity(max_ticks);
    let (mut ticks, mut tick_allocs) = (0u64, 0u64);
    let source = stream_mix(
        &spec.benchmarks,
        cell.experiment.num_cores(),
        spec.sim_seconds,
        cell.trace_seed,
    );
    let run_start = Instant::now();
    let mut last = run_start;
    let mut last_allocs = alloc::allocation_count();
    let result = sim.run_source_with_observer(source, spec.sim_seconds, |sample| {
        let now = Instant::now();
        let allocs = alloc::allocation_count();
        // The first tick also pays the run's prologue; it is warm-up.
        if ticks > 0 {
            tick_ns.push((now - last).as_secs_f64() * 1e9);
            tick_allocs += (allocs - last_allocs) as u64;
        }
        ticks += 1;
        log.record(sample);
        last_allocs = alloc::allocation_count();
        last = Instant::now();
    });
    counts.traced_run_s += run_start.elapsed().as_secs_f64();
    counts.ticks += ticks;
    counts.steady_ticks += ticks.saturating_sub(1);
    counts.tick_allocs += tick_allocs;
    lay.extend("engine.tick_ns", tick_ns);
    {
        let mut p = probe.lock().expect("policy probe lock");
        counts.controls += p.controls;
        counts.control_allocs += p.control_allocs;
        counts.places += p.places;
        lay.extend("policy.control_ns", std::mem::take(&mut p.control_ns));
        lay.extend("policy.place_ns", std::mem::take(&mut p.place_ns));
    }

    let faithful = replay(&cfg, &stack, &log, &result, lay, counts);
    if !faithful {
        eprintln!("perfbench: the metric replay of cell {} disagrees with its result", cell.index);
    }
    tally.all_or_nothing(1, faithful);
    result
}

/// Replays a cell's tick stream through the sensor, power, thermal and
/// metric layers. Returns whether the metric folds reproduced `result`.
fn replay(
    cfg: &SimConfig,
    stack: &Stack3d,
    log: &TickLog,
    result: &RunResult,
    lay: &mut Samples,
    counts: &mut PassCounts,
) -> bool {
    let n = log.ticks();
    let before = |k: usize| log.temps(k.saturating_sub(1));

    // Sensor: the policy's view of the core temperatures before each tick.
    let mut sensor = cfg.scenario.sensor_model();
    let mut readings = Vec::with_capacity(log.cores);
    let core_before = |k: usize| log.core(k.saturating_sub(1));
    lay.extend("sensor.read_ns", batched(n, |k| sensor.read_into(core_before(k), &mut readings)));
    black_box(&readings);

    // Metric folds: the four trackers and the two gradient maxima.
    let layer_of_block: Vec<usize> = stack.sites().iter().map(|s| s.layer).collect();
    let pairs = stack.vertical_adjacency();
    let mut hot = HotSpotTracker::new(cfg.hotspot_threshold_c);
    let mut grad = SpatialGradientTracker::new(cfg.gradient_threshold_c);
    let mut vert = VerticalGradientTracker::new(cfg.vertical_threshold_c);
    let mut cycles = ThermalCycleTracker::new(cfg.cycle_threshold_c, cfg.cycle_window, log.cores);
    lay.extend(
        "metrics.record_ns",
        batched(n, |k| {
            hot.record(log.core(k));
            grad.record(max_layer_gradient(log.temps(k), &layer_of_block));
            vert.record(max_vertical_gradient(log.temps(k), &pairs));
            cycles.record(log.core(k));
        }),
    );
    // The folds are deterministic, so the replay must match bit for bit.
    #[allow(clippy::float_cmp)]
    let faithful = hot.percent() == result.hotspot_pct
        && hot.peak_c() == result.peak_temp_c
        && grad.percent() == result.gradient_pct
        && vert.peak_c() == result.vertical_peak_c
        && cycles.percent() == result.cycle_pct;

    // Power: block powers from the recorded core states at the
    // temperatures before each tick.
    let power = PowerModel::new(stack, cfg.power.clone(), cfg.vf.clone());
    let mut inputs = Vec::with_capacity(log.cores);
    let mut powers = Vec::with_capacity(n);
    for k in 0..n {
        log.inputs(k, &mut inputs);
        let allocs = alloc::allocation_count();
        let start = Instant::now();
        let p = power.block_powers(&inputs, before(k));
        let ns = since(start, 1e9);
        counts.power_allocs += (alloc::allocation_count() - allocs) as u64;
        counts.power_calls += 1;
        lay.push("power.block_powers_ns", ns);
        powers.push(p);
    }

    // Thermal: a fresh model built, initialized and stepped as the
    // engine does, under the replayed powers.
    let tcfg = thermal_config(cfg);
    let start = Instant::now();
    black_box(RcNetwork::build(stack, &tcfg));
    lay.push("thermal.network_build_ms", since(start, 1e3));
    let start = Instant::now();
    let mut model = ThermalModel::new(stack, tcfg.clone());
    lay.push("thermal.model_new_ms", since(start, 1e3));
    let idle = power
        .block_powers(&vec![CorePowerInput::idle(); log.cores], &vec![tcfg.ambient_c; log.blocks]);
    let start = Instant::now();
    black_box(model.initialize_steady_state(&idle));
    lay.push("thermal.steady_init_ms", since(start, 1e3));
    let mut temps = Vec::with_capacity(log.blocks);
    for (k, p) in powers.iter().enumerate() {
        let start = Instant::now();
        model.set_block_powers(p);
        model.step(cfg.tick_s);
        if k == 0 {
            lay.push("thermal.first_step_ms", since(start, 1e3));
        } else {
            lay.push("thermal.step_us", since(start, 1e6));
        }
        let start = Instant::now();
        model.block_temperatures_c_into(&mut temps);
        lay.push("thermal.read_temps_ns", since(start, 1e9));
    }
    black_box(&temps);
    faithful
}

/// One traced pass over every cell, sharing factors per model
/// fingerprint as the runner does. Checks each result against the
/// in-process report.
fn drive_pass(
    spec: &SweepSpec,
    cells: &[SweepCell],
    expected: &SweepReport,
    lay: &mut Samples,
    tally: &mut Tally,
) -> (PassCounts, Vec<RunResult>) {
    let mut counts = PassCounts::default();
    let mut shares: BTreeMap<String, FactorShare> = BTreeMap::new();
    let mut results = Vec::with_capacity(cells.len());
    for (cell, row) in cells.iter().zip(&expected.rows) {
        let share = shares.entry(model_fingerprint(spec, cell)).or_default().clone();
        let result = drive_cell(spec, cell, share, lay, &mut counts, tally);
        tally.all_or_nothing(1, result == row.result);
        results.push(result);
    }
    for share in shares.values() {
        counts.symbolic_analyses += share.symbolic_analyses() as u64;
        counts.factorizations += share.factorizations() as u64;
        counts.share_hits += share.hits() as u64;
    }
    (counts, results)
}

/// The same cells without the observer or the policy wrapper: per-cell
/// simulate time and the untraced total.
fn plain_pass(
    spec: &SweepSpec,
    cells: &[SweepCell],
    traced: &[RunResult],
    lay: &mut Samples,
    tally: &mut Tally,
) -> f64 {
    let mut shares: BTreeMap<String, FactorShare> = BTreeMap::new();
    let mut total = 0.0;
    for (cell, want) in cells.iter().zip(traced) {
        let share = shares.entry(model_fingerprint(spec, cell)).or_default().clone();
        let stack = cell.experiment.stack_with_order(cell.stack_order);
        let policy = cell.policy.build_with_dpm(&stack, cell.policy_seed, cell.dpm);
        let mut sim = Simulator::with_factor_share(sim_config(spec, cell), policy, Some(share));
        let source = stream_mix(
            &spec.benchmarks,
            cell.experiment.num_cores(),
            spec.sim_seconds,
            cell.trace_seed,
        );
        let start = Instant::now();
        let result = sim.run_source(source, spec.sim_seconds);
        let seconds = start.elapsed().as_secs_f64();
        total += seconds;
        lay.push("sweep.cell_simulate_ms", seconds * 1e3);
        tally.all_or_nothing(1, &result == want);
    }
    total
}

/// One EXP-2 cell at `grid`×`grid` under the implicit integrator: the
/// model the solver-scale measurements use.
fn exp2_spec(grid: usize) -> SweepSpec {
    SweepSpec::new("solver-scale")
        .with_experiments(&[Experiment::Exp2])
        .with_policies(&[PolicyKind::Default])
        .with_dpm(&[false])
        .with_integrators(&[Integrator::ImplicitCn])
        .with_grid(grid, grid)
}

/// nnz(L) of `factor::analyze` on the conductance matrix of the EXP-2
/// model at 64×64 (8 194 nodes), the size the solver targets are
/// stated at. A count, so every traced run reports it.
fn nnz_l_64x64() -> f64 {
    let spec = exp2_spec(64);
    let cell = &expand(&spec)[0];
    let stack = cell.experiment.stack_with_order(cell.stack_order);
    let network = RcNetwork::build(&stack, &thermal_config(&sim_config(&spec, cell)));
    #[allow(clippy::cast_precision_loss)]
    let nnz = analyze(network.conductance()).nnz_l() as f64;
    nnz
}

/// Builds the EXP-2 model at 32×32 (2 050 nodes, past the 2 048-node
/// switch to nested dissection and the blocked numeric phase) and
/// steps it under idle power: the solver path the workloads' 4×4
/// models never take.
fn nd_model_layer(lay: &mut Samples) {
    let spec = exp2_spec(32);
    let cell = &expand(&spec)[0];
    let cfg = sim_config(&spec, cell);
    let stack = cell.experiment.stack_with_order(cell.stack_order);
    let tcfg = thermal_config(&cfg);
    lay.extend(
        "thermal.model_new_32x32_ms",
        repeat(MIN_SAMPLES, BUDGET, || {
            let start = Instant::now();
            black_box(ThermalModel::new(&stack, tcfg.clone()));
            since(start, 1e3)
        }),
    );
    let power = PowerModel::new(&stack, cfg.power.clone(), cfg.vf.clone());
    let idle = power.block_powers(
        &vec![CorePowerInput::idle(); stack.num_cores()],
        &vec![tcfg.ambient_c; stack.num_blocks()],
    );
    let mut model = ThermalModel::new(&stack, tcfg);
    black_box(model.initialize_steady_state(&idle));
    model.set_block_powers(&idle);
    // The first step builds the step factor; it is warm-up.
    model.step(cfg.tick_s);
    lay.extend(
        "thermal.step_32x32_us",
        repeat(MIN_SAMPLES, BUDGET, || {
            let start = Instant::now();
            model.step(cfg.tick_s);
            since(start, 1e6)
        }),
    );
}

/// Solver phases on the conductance matrix of each distinct model;
/// returns nnz(L) of the first model in canonical order.
fn sparse_layer(spec: &SweepSpec, cells: &[SweepCell], lay: &mut Samples) -> f64 {
    let mut seen = std::collections::BTreeSet::new();
    let mut nnz_l = None;
    for cell in cells {
        if !seen.insert(model_fingerprint(spec, cell)) {
            continue;
        }
        let cfg = sim_config(spec, cell);
        let stack = cell.experiment.stack_with_order(cell.stack_order);
        let model = ThermalModel::new(&stack, thermal_config(&cfg));
        let g = model.network().conductance();
        lay.extend(
            "sparse.analyze_ms",
            repeat(MIN_SAMPLES, BUDGET, || {
                let start = Instant::now();
                black_box(analyze(g));
                since(start, 1e3)
            }),
        );
        let symbolic = analyze(g);
        let mut factor = None;
        lay.extend(
            "sparse.numeric_ms",
            repeat(MIN_SAMPLES, BUDGET, || {
                let start = Instant::now();
                let f = symbolic.factor_numeric(g).expect("the conductance matrix is SPD");
                let ms = since(start, 1e3);
                factor = Some(f);
                ms
            }),
        );
        let factor = factor.expect("factored at least once");
        #[allow(clippy::cast_precision_loss)]
        nnz_l.get_or_insert(factor.nnz_l() as f64);
        let rhs = vec![1.0; g.dim()];
        let (mut scratch, mut x) = (Vec::new(), vec![0.0; g.dim()]);
        lay.extend(
            "sparse.solve_us",
            repeat(MIN_SAMPLES, BUDGET, || {
                let start = Instant::now();
                factor.solve_into(&rhs, &mut scratch, &mut x);
                since(start, 1e6)
            }),
        );
        black_box(&x);
    }
    nnz_l.expect("a workload has at least one model")
}

/// Job generation, stack construction, expansion and cell keys.
fn front_layers(spec: &SweepSpec, cells: &[SweepCell], lay: &mut Samples) {
    let mut i = 0;
    let mut next = || {
        let cell = &cells[i % cells.len()];
        i += 1;
        cell
    };
    let mut next_job_ns = Vec::new();
    let stream_setup_us = repeat(MIN_SAMPLES, BUDGET, || {
        let cell = next();
        let start = Instant::now();
        let mut source = stream_mix(
            &spec.benchmarks,
            cell.experiment.num_cores(),
            spec.sim_seconds,
            cell.trace_seed,
        );
        let us = since(start, 1e6);
        // Drain in batches: the per-job cost is tens of nanoseconds.
        let mut done = false;
        while !done {
            let start = Instant::now();
            let mut got = 0;
            for _ in 0..BATCH {
                match source.next_job() {
                    Some(job) => {
                        black_box(job);
                        got += 1;
                    }
                    None => {
                        done = true;
                        break;
                    }
                }
            }
            if got > 0 {
                next_job_ns.push(since(start, 1e9) / f64::from(got));
            }
        }
        us
    });
    lay.extend("workload.stream_setup_us", stream_setup_us);
    lay.extend("workload.next_job_ns", next_job_ns);
    lay.extend(
        "floorplan.stack_us",
        repeat(MIN_SAMPLES, BUDGET, || {
            let cell = next();
            let start = Instant::now();
            black_box(cell.experiment.stack_with_order(cell.stack_order));
            since(start, 1e6)
        }),
    );
    lay.extend(
        "sweep.expand_us",
        repeat(MIN_SAMPLES, BUDGET, || {
            let start = Instant::now();
            black_box(expand(spec));
            since(start, 1e6)
        }),
    );
    lay.extend(
        "sweep.cell_key_us",
        repeat(MIN_SAMPLES, BUDGET, || {
            let cell = next();
            let start = Instant::now();
            black_box(cell_key(spec, cell));
            since(start, 1e6)
        }),
    );
}

/// Cache store open, insert and lookup, and CSV rendering, on the
/// workload's own results.
fn cache_layers(
    spec: &SweepSpec,
    report: &SweepReport,
    work: &Path,
    lay: &mut Samples,
) -> Result<(), String> {
    let dir = work.join("layers-cache");
    let keys: Vec<_> = report.rows.iter().map(|row| cell_key(spec, &row.cell)).collect();
    let err = |e: therm3d_sweep::SweepError| e.to_string();
    while lay.0.get("cache.insert_us").map_or(0, Vec::len) < MIN_SAMPLES {
        fresh_dir(&dir)?;
        let mut store = CacheStore::open(&dir).map_err(err)?;
        for (key, row) in keys.iter().zip(&report.rows) {
            let start = Instant::now();
            store.insert(key, &row.result).map_err(err)?;
            lay.push("cache.insert_us", since(start, 1e6));
        }
    }
    lay.extend(
        "cache.open_ms",
        repeat(MIN_SAMPLES, BUDGET, || {
            let start = Instant::now();
            black_box(CacheStore::open(&dir).map_or(0, |store| store.len()));
            since(start, 1e3)
        }),
    );
    let mut store = CacheStore::open(&dir).map_err(err)?;
    let mut i = 0;
    let lookups = repeat(MIN_SAMPLES, BUDGET, || {
        let (key, row) = (&keys[i % keys.len()], &report.rows[i % keys.len()]);
        i += 1;
        let start = Instant::now();
        let hit = store.lookup(key);
        let us = since(start, 1e6);
        assert_eq!(hit.as_ref(), Some(&row.result), "a cache hit decodes the stored result");
        us
    });
    lay.extend("cache.lookup_us", lookups);
    std::fs::remove_dir_all(&dir).map_err(|e| format!("cannot remove {}: {e}", dir.display()))?;
    lay.extend(
        "report.csv_us",
        repeat(MIN_SAMPLES, BUDGET, || {
            let start = Instant::now();
            black_box(report.csv());
            since(start, 1e6)
        }),
    );
    Ok(())
}

/// Wire codec and lease state machine over the workload's result lines.
fn coord_codec_layers(
    spec: &SweepSpec,
    report: &SweepReport,
    lay: &mut Samples,
    tally: &mut Tally,
) {
    let lines: Vec<(usize, String)> = report
        .rows
        .iter()
        .map(|row| (row.cell.index, encode_line(&cell_key(spec, &row.cell), &row.result)))
        .collect();
    let lease_cells = default_lease_cells(lines.len());
    let batches: Vec<Msg> = lines
        .chunks(lease_cells)
        .zip(1u64..)
        .map(|(chunk, lease_id)| Msg::ResultBatch {
            lease_id,
            rows: chunk.iter().map(|(i, line)| (*i as u64, line.clone())).collect(),
        })
        .collect();
    let mut round_trips_ok = true;
    while lay.0.get("wire.encode_us").map_or(0, Vec::len) < MIN_SAMPLES {
        for msg in &batches {
            let start = Instant::now();
            let frame = encode_frame(msg).expect("a result batch fits in a frame");
            lay.push("wire.encode_us", since(start, 1e6));
            let start = Instant::now();
            let decoded = decode_frame(&frame);
            lay.push("wire.decode_us", since(start, 1e6));
            round_trips_ok &= decoded.is_ok_and(|(back, used)| back == *msg && used == frame.len());
        }
    }
    tally.all_or_nothing(lines.len(), round_trips_ok);

    let mut complete_ok = true;
    while lay.0.get("campaign.lease_ns").map_or(0, Vec::len) < MIN_SAMPLES {
        let mut campaign = Campaign::new(lines.len(), lease_cells, 30_000);
        for now_ms in 0u64.. {
            let start = Instant::now();
            let grant = campaign.lease("w1", now_ms);
            lay.push("campaign.lease_ns", since(start, 1e9));
            let Grant::Range { lease_id, start: first, len } = grant else { break };
            let rows = lines[first..first + len].to_vec();
            let start = Instant::now();
            complete_ok &= campaign.complete(lease_id, rows, now_ms) == Ok(len);
            lay.push("campaign.complete_us", since(start, 1e6));
        }
        complete_ok &= campaign.is_complete();
    }
    tally.all_or_nothing(lines.len(), complete_ok);
}

/// Served cold campaign against the in-process cold campaign at the
/// same worker count. Returns `(leases, reissues, overhead_ms)`.
fn served_layer(
    w: Workload,
    seed: u64,
    nproc: usize,
    expected: &str,
    work: &Path,
    tally: &mut Tally,
) -> Result<(f64, f64, f64), String> {
    let (served_dir, local_dir) = (work.join("served"), work.join("local"));
    let mut first = None;
    let mut overhead_ms = Vec::new();
    let start = Instant::now();
    while overhead_ms.len() < 3 && (overhead_ms.is_empty() || start.elapsed() < BUDGET * 3) {
        fresh_dir(&served_dir)?;
        let mut store = CacheStore::open(&served_dir).map_err(|e| e.to_string())?;
        let t = Instant::now();
        let served = serve(&w.spec(seed, 1), &mut store, nproc)?;
        let served_s = t.elapsed().as_secs_f64();
        fresh_dir(&local_dir)?;
        let mut store = CacheStore::open(&local_dir).map_err(|e| e.to_string())?;
        let t = Instant::now();
        let local = run_with_cache(&w.spec(seed, nproc), Some(&mut store));
        let local_s = t.elapsed().as_secs_f64();
        let cells = served.report.rows.len();
        tally.all_or_nothing(cells, served.report.csv() == expected);
        tally.all_or_nothing(cells, local.is_ok_and(|r| r.csv() == expected));
        overhead_ms.push((served_s - local_s) * 1e3);
        first.get_or_insert((served.leases, cells.div_ceil(served.lease_cells)));
    }
    for dir in [&served_dir, &local_dir] {
        std::fs::remove_dir_all(dir)
            .map_err(|e| format!("cannot remove {}: {e}", dir.display()))?;
    }
    let (leases, needed) = first.expect("served at least once");
    #[allow(clippy::cast_precision_loss)]
    Ok((leases as f64, leases.saturating_sub(needed) as f64, median(&overhead_ms)))
}

/// `T(1 thread) / (nproc × T(nproc threads))` for the in-process
/// campaign: medians of alternating serial and parallel runs.
fn parallel_efficiency(
    w: Workload,
    seed: u64,
    nproc: usize,
    expected: &str,
    tally: &mut Tally,
) -> f64 {
    let mut timed = |spec: &SweepSpec| {
        let start = Instant::now();
        let report = therm3d_sweep::run(spec);
        let seconds = start.elapsed().as_secs_f64();
        tally.all_or_nothing(expand(spec).len(), report.is_ok_and(|r| r.csv() == expected));
        seconds
    };
    let (serial_spec, parallel_spec) = (w.spec(seed, 1), w.spec(seed, nproc));
    let (mut serial, mut parallel) = (Vec::new(), Vec::new());
    let start = Instant::now();
    while serial.len() < 3 || (serial.len() < MIN_SAMPLES / 4 && start.elapsed() < BUDGET) {
        serial.push(timed(&serial_spec));
        parallel.push(timed(&parallel_spec));
    }
    #[allow(clippy::cast_precision_loss)]
    let efficiency = median(&serial) / (nproc as f64 * median(&parallel));
    efficiency
}

/// Cost of a disabled span (`Span::enter` plus drop) in ns.
fn span_off(lay: &mut Samples) {
    assert!(!therm3d_telemetry::global().enabled(), "the global registry must stay disabled");
    lay.extend(
        "telemetry.span_off_ns",
        repeat(MIN_SAMPLES * 2, BUDGET, || {
            const CALLS: u32 = 1000;
            let start = Instant::now();
            for _ in 0..CALLS {
                drop(black_box(Span::enter("engine.tick_us")));
            }
            since(start, 1e9) / f64::from(CALLS)
        }),
    );
}

/// Runs the traced measurement of `w` at trace seed `seed`; the engine
/// passes repeat for `seconds`, the other layers run once.
///
/// # Errors
///
/// Scratch directories or the cache store cannot be created, the
/// coordinator cannot bind, or the campaign at `seed` fails outright.
pub fn run(
    w: Workload,
    seed: u64,
    seconds: f64,
    nproc: usize,
    work: &Path,
) -> Result<Outcome, String> {
    let mut tally = Tally::default();
    let expected = probe(w, seed, nproc, &mut tally)?;
    let expected_csv = expected.csv();
    let spec = w.spec(seed, 1);
    let cells = expand(&spec);
    let mut lay = Samples::default();

    // Counts come from the first pass; timings and the traced/untraced
    // totals accumulate over alternating passes until the deadline.
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let (counts, traced) = drive_pass(&spec, &cells, &expected, &mut lay, &mut tally);
    let mut traced_run_s = counts.traced_run_s;
    let mut plain_run_s = plain_pass(&spec, &cells, &traced, &mut lay, &mut tally);
    let mut passes = 1;
    while Instant::now() < deadline {
        traced_run_s += drive_pass(&spec, &cells, &expected, &mut lay, &mut tally).0.traced_run_s;
        plain_run_s += plain_pass(&spec, &cells, &traced, &mut lay, &mut tally);
        passes += 1;
    }

    let nnz_l = sparse_layer(&spec, &cells, &mut lay);
    nd_model_layer(&mut lay);
    front_layers(&spec, &cells, &mut lay);
    cache_layers(&spec, &expected, work, &mut lay)?;
    coord_codec_layers(&spec, &expected, &mut lay, &mut tally);
    let (leases, reissues, overhead_ms) =
        served_layer(w, seed, nproc, &expected_csv, work, &mut tally)?;
    let efficiency = parallel_efficiency(w, seed, nproc, &expected_csv, &mut tally);
    span_off(&mut lay);

    #[allow(clippy::cast_precision_loss)]
    let per = |num: u64, den: u64| num as f64 / den.max(1) as f64;
    let staged_ns = lay.mean("sensor.read_ns")
        + lay.mean("policy.control_ns")
        + per(counts.places, counts.controls) * lay.mean("policy.place_ns")
        + lay.mean("power.block_powers_ns")
        + lay.mean("thermal.step_us") * 1e3
        + 2.0 * lay.mean("thermal.read_temps_ns")
        + lay.mean("metrics.record_ns");
    #[allow(clippy::cast_precision_loss)]
    let count_values: [f64; 15] = [
        counts.ticks as f64,
        per(counts.tick_allocs, counts.steady_ticks),
        1.0 - staged_ns / lay.mean("engine.tick_ns"),
        per(counts.control_allocs, counts.controls),
        per(counts.power_allocs, counts.power_calls),
        nnz_l,
        nnz_l_64x64(),
        counts.symbolic_analyses as f64,
        counts.factorizations as f64,
        counts.share_hits as f64,
        efficiency,
        leases,
        reissues,
        overhead_ms,
        traced_run_s / plain_run_s - 1.0,
    ];

    let mut metrics = Vec::new();
    let mut notes = vec![format!("{passes} traced passes over {} cells", cells.len())];
    for &(name, unit) in &TIMINGS {
        let samples = lay
            .0
            .get(name)
            .filter(|v| !v.is_empty())
            .ok_or_else(|| format!("no samples for {name}"))?;
        notes.push(format!("{name}: {} samples", samples.len()));
        for (suffix, q) in [("p50", 0.5), ("p90", 0.9)] {
            metrics.push(Metric {
                name: format!("{name}.{suffix}"),
                value: quantile(samples, q),
                unit,
            });
        }
    }
    for (&(name, unit), value) in COUNTS.iter().zip(count_values) {
        metrics.push(Metric { name: name.to_owned(), value, unit });
    }
    Ok(Outcome { metrics, tally, notes })
}
