//! The coupled simulation engine: workload → policy → scheduler → power
//! (with leakage feedback) → thermal → sensors → policy, at the paper's
//! 100 ms sampling interval (Section IV-D).

use std::sync::Arc;

use therm3d_floorplan::{CoreId, Stack3d};
use therm3d_metrics::{
    max_layer_gradient, max_vertical_gradient, EnergyMeter, HotSpotTracker, PerformanceStats,
    SpatialGradientTracker, ThermalCycleTracker, VerticalGradientTracker,
};
use therm3d_policies::{MultiQueue, Observation, Policy, QueueHint};
use therm3d_power::{CorePowerInput, PowerModel};
use therm3d_telemetry::Span;
use therm3d_thermal::{FactorShare, ThermalModel};
use therm3d_workload::{JobSource, SourceCursor};

use crate::config::SimConfig;
use crate::result::RunResult;

/// The integrated 3D-DTM simulator.
///
/// Owns the thermal and power models, the multi-queue scheduler and
/// the policy under evaluation;
/// [`run_source`](Self::run_source) drives them tick by tick over a
/// stream of jobs and aggregates the paper's metrics.
///
/// # Examples
///
/// ```
/// use therm3d::{SimConfig, Simulator};
/// use therm3d_floorplan::Experiment;
/// use therm3d_policies::PolicyKind;
/// use therm3d_workload::{Benchmark, TraceConfig};
///
/// let cfg = SimConfig::fast(Experiment::Exp1);
/// let stack = Experiment::Exp1.stack();
/// let policy = PolicyKind::Adapt3d.build(&stack, 7);
/// let jobs = TraceConfig::new(Benchmark::Gzip, 8, 5.0).stream();
/// let mut sim = Simulator::new(cfg, policy);
/// let result = sim.run_source(jobs, 5.0);
/// assert!(result.perf.completed > 0);
/// ```
pub struct Simulator {
    config: SimConfig,
    thermal: ThermalModel,
    power: PowerModel,
    queues: MultiQueue,
    policy: Box<dyn Policy>,
    /// The simulated stack, shared with every cell of its model: the
    /// tick reads each block's layer (for the gradient metric) and the
    /// vertically adjacent block pairs (for the TSV-stress
    /// vertical-gradient metric of Section V-C) from it.
    stack: Arc<Stack3d>,
    /// Global block index of each core, by `CoreId`.
    core_sites: Vec<usize>,
    /// Per-core utilization over the previous tick.
    utilization: Vec<f64>,
    /// Per-core continuous idle time, seconds.
    idle_time: Vec<f64>,
    /// Current simulated time, seconds.
    now_s: f64,
    /// Sensor imperfection state (noise stream).
    sensor: crate::sensor::SensorModel,
}

impl Simulator {
    /// Builds the simulator and initializes the thermal state to the
    /// steady state of an idle system (the paper initializes HotSpot with
    /// steady-state values).
    ///
    /// # Panics
    ///
    /// Panics if `config` is inconsistent (see [`SimConfig::validate`]).
    #[must_use]
    pub fn new(config: SimConfig, policy: Box<dyn Policy>) -> Self {
        Self::with_factor_share(config, policy, None)
    }

    /// Like [`new`](Self::new), but takes the die stack, the RC network
    /// and every solver product from `share` ([`FactorShare::model`],
    /// [`ThermalModel::from_share`]), so cells of a sweep that resolve
    /// to the same thermal model build one stack and one network and
    /// reuse one symbolic analysis and one factor set. Results are
    /// bit-identical with or without a share; only the redundant work
    /// disappears. `None` gives the simulator a share of its own.
    ///
    /// # Panics
    ///
    /// Panics if `config` is inconsistent (see [`SimConfig::validate`]),
    /// or if `share` holds the model of another experiment, stack order
    /// or thermal configuration.
    #[must_use]
    pub fn with_factor_share(
        config: SimConfig,
        policy: Box<dyn Policy>,
        share: Option<FactorShare>,
    ) -> Self {
        config.validate();
        let share = share.unwrap_or_default();
        let (experiment, order) = (config.experiment, config.scenario.stack_order);
        let thermal_cfg = config.resolved_thermal();
        let (stack, _) = share.model(experiment, order, &thermal_cfg);
        let mut thermal = ThermalModel::from_share(share, experiment, order, &thermal_cfg);
        let power = PowerModel::new(&stack, config.power.clone(), config.vf.clone());
        let n_cores = stack.num_cores();
        let core_sites: Vec<usize> = stack.core_ids().map(|c| stack.core_block_index(c)).collect();

        // Idle-system steady state with leakage feedback: fixed-point
        // iterate power(T) → steady(T) a few times. Cells of one share
        // and one power model pass through the same powers, so after
        // the first such cell each steady state is copied from the
        // share.
        let idle = vec![CorePowerInput::idle(); n_cores];
        let mut temps = vec![config.thermal.ambient_c; stack.num_blocks()];
        let mut powers = Vec::with_capacity(stack.num_blocks());
        for _ in 0..3 {
            power.block_powers_into(&idle, &temps, &mut powers);
            temps = thermal.initialize_steady_state(&powers);
        }

        Self {
            // The queue folds turnarounds online and keeps no completion
            // log, so memory stays O(1) in the number of jobs executed.
            queues: MultiQueue::new(n_cores),
            utilization: vec![0.0; n_cores],
            idle_time: vec![0.0; n_cores],
            now_s: 0.0,
            sensor: config.scenario.sensor_model(),
            config,
            thermal,
            power,
            stack,
            core_sites,
            policy,
        }
    }

    /// Numeric LDLᵀ factorizations performed by the thermal model so
    /// far — surfaced so sweeps can report the "factor once per
    /// (model, h)" guarantee per cell instead of only test-asserting it.
    #[must_use]
    pub fn factorization_count(&self) -> usize {
        self.thermal.factorization_count()
    }

    /// Symbolic sparse analyses performed by the thermal model so far.
    #[must_use]
    pub fn symbolic_analysis_count(&self) -> usize {
        self.thermal.symbolic_analysis_count()
    }

    /// Runs `source` for `duration_s` of simulated time, then drains
    /// remaining jobs (up to the configured drain cap), returning the
    /// aggregated metrics. The engine holds at most one job of
    /// lookahead, so memory is O(1) in the simulated duration.
    pub fn run_source(&mut self, source: impl JobSource, duration_s: f64) -> RunResult {
        self.run_source_with_observer(source, duration_s, |_| {})
    }

    /// Like [`run_source`](Self::run_source), but invokes `observer` once
    /// per sampling interval with the post-step state — the hook used by
    /// the examples to record temperature histories and by the
    /// reliability analyses.
    pub fn run_source_with_observer(
        &mut self,
        source: impl JobSource,
        duration_s: f64,
        mut observer: impl FnMut(&TickSample<'_>),
    ) -> RunResult {
        assert!(duration_s > 0.0, "duration must be positive");
        let tick = self.config.tick_s;
        let n_cores = self.core_sites.len();

        let mut hotspots = HotSpotTracker::new(self.config.hotspot_threshold_c);
        let mut gradients = SpatialGradientTracker::new(self.config.gradient_threshold_c);
        let mut cycles = ThermalCycleTracker::new(
            self.config.cycle_threshold_c,
            self.config.cycle_window,
            n_cores,
        );
        let mut vertical = VerticalGradientTracker::new(self.config.vertical_threshold_c);
        let mut energy = EnergyMeter::new();

        let mut cursor = SourceCursor::new(source);
        let deadline = duration_s + self.config.drain_max_s;
        let stack = Arc::clone(&self.stack);
        let (layer_of_block, vertical_pairs) = (stack.layer_of_block(), stack.vertical_pairs());

        // Persistent per-tick buffers: the loop below runs ten times per
        // simulated second for minutes of simulated time, so the hot
        // path reuses these instead of allocating each tick. The block
        // temperatures are read once here and then once per tick, after
        // the step: that buffer becomes the next tick's pre-step one.
        let mut temps_c: Vec<f64> = Vec::new();
        self.thermal.block_temperatures_c_into(&mut temps_c);
        let mut core_true: Vec<f64> = Vec::with_capacity(n_cores);
        let mut core_temps: Vec<f64> = Vec::with_capacity(n_cores);
        let mut commands: Vec<therm3d_policies::CoreCommand> = Vec::with_capacity(n_cores);
        let mut queue_len: Vec<usize> = Vec::with_capacity(n_cores);
        let mut queued_work: Vec<f64> = Vec::with_capacity(n_cores);
        let mut inputs: Vec<CorePowerInput> = Vec::with_capacity(n_cores);
        let mut powers: Vec<f64> = Vec::new();
        let mut temps_after: Vec<f64> = Vec::new();
        let mut core_after: Vec<f64> = Vec::with_capacity(n_cores);
        let mut vf_index: Vec<usize> = Vec::with_capacity(n_cores);
        let mut asleep: Vec<bool> = Vec::with_capacity(n_cores);

        // region(alloc-free: engine-tick)
        while self.now_s < duration_s
            || (self.queues.in_flight() > 0 && self.now_s < deadline)
            || (cursor.has_pending() && self.now_s < deadline)
        {
            // Inert (one relaxed load, no allocation) unless the global
            // telemetry registry was enabled by an embedder, so the
            // alloc-free property of this loop holds in the default path.
            let _tick_span = Span::enter("engine.tick_us");
            // 1. Sensor readings + scheduler statistics for the policy.
            // The policy sees *sensor* readings; metrics use true temps.
            core_true.clear();
            core_true.extend(self.core_sites.iter().map(|&s| temps_c[s]));
            self.sensor.read_into(&core_true, &mut core_temps);
            queue_len.clear();
            queue_len.extend((0..n_cores).map(|c| self.queues.queue_len(CoreId(c))));
            queued_work.clear();
            queued_work.extend((0..n_cores).map(|c| self.queues.queued_work_s(CoreId(c))));

            // 2. Control decision from the policy.
            let decision = {
                let obs = Observation {
                    now_s: self.now_s,
                    tick_s: tick,
                    core_temps_c: &core_temps,
                    utilization: &self.utilization,
                    queue_len: &queue_len,
                    queued_work_s: &queued_work,
                    idle_time_s: &self.idle_time,
                };
                self.policy.control(&obs)
            };
            commands.clear();
            if decision.commands.is_empty() {
                commands.resize(n_cores, therm3d_policies::CoreCommand::run());
            } else {
                commands.extend_from_slice(&decision.commands);
            }
            assert_eq!(commands.len(), n_cores, "policy returned wrong command count");

            // 3. Migrations requested by the policy.
            for &(from, to) in &decision.migrations {
                self.queues.migrate(from, to);
            }

            // 4. Job arrivals, placed one at a time with fresh queue state
            // (each enqueue changes the statistics, so the buffers are
            // refilled per job, still without reallocating; `Job` is
            // `Copy`, and the cursor holds at most one job of lookahead
            // whatever the source).
            while let Some(job) = cursor.next_until(self.now_s) {
                queued_work.clear();
                queued_work.extend((0..n_cores).map(|c| self.queues.queued_work_s(CoreId(c))));
                queue_len.clear();
                queue_len.extend((0..n_cores).map(|c| self.queues.queue_len(CoreId(c))));
                let target = {
                    let obs = Observation {
                        now_s: self.now_s,
                        tick_s: tick,
                        core_temps_c: &core_temps,
                        utilization: &self.utilization,
                        queue_len: &queue_len,
                        queued_work_s: &queued_work,
                        idle_time_s: &self.idle_time,
                    };
                    let hint = QueueHint { queued_work_s: &queued_work, queue_len: &queue_len };
                    self.policy.place_job(&job, &obs, &hint)
                };
                assert!(target.0 < n_cores, "policy placed a job on core {target}");
                self.queues.enqueue(target, job);
            }

            // 5. Wake-on-work: a sleeping core with queued jobs wakes this
            // tick (sleep-state entry/exit latencies are far below the
            // 100 ms sampling interval).
            for (c, cmd) in commands.iter_mut().enumerate() {
                if cmd.asleep && self.queues.queue_len(CoreId(c)) > 0 {
                    cmd.asleep = false;
                }
            }

            // 6. Execute each core for the tick.
            inputs.clear();
            for (c, &cmd) in commands.iter().enumerate() {
                let freq = if cmd.asleep || cmd.gated {
                    0.0
                } else {
                    self.config.vf.level(cmd.vf_index).freq_scale
                };
                let busy = self.queues.execute(CoreId(c), tick, freq, self.now_s);
                let util = (busy / tick).clamp(0.0, 1.0);
                self.utilization[c] = util;
                if self.queues.queue_len(CoreId(c)) == 0 && busy == 0.0 {
                    self.idle_time[c] += tick;
                } else {
                    self.idle_time[c] = 0.0;
                }
                inputs.push(CorePowerInput {
                    utilization: util,
                    vf_index: cmd.vf_index,
                    gated: cmd.gated,
                    asleep: cmd.asleep,
                    memory_intensity: self.queues.memory_intensity(CoreId(c)),
                });
            }

            // 7. Power with leakage feedback at current temperatures, then
            // advance the thermal solution.
            self.power.block_powers_into(&inputs, &temps_c, &mut powers);
            let chip_power_w: f64 = powers.iter().sum();
            energy.add(chip_power_w, tick);
            self.thermal.set_block_powers(&powers);
            self.thermal.step(tick);

            // 8. Metrics on the post-step temperature field.
            self.thermal.block_temperatures_c_into(&mut temps_after);
            core_after.clear();
            core_after.extend(self.core_sites.iter().map(|&s| temps_after[s]));
            hotspots.record(&core_after);
            gradients.record(max_layer_gradient(&temps_after, layer_of_block));
            vertical.record(max_vertical_gradient(&temps_after, vertical_pairs));
            cycles.record(&core_after);

            vf_index.clear();
            vf_index.extend(commands.iter().map(|c| c.vf_index));
            asleep.clear();
            asleep.extend(commands.iter().map(|c| c.asleep));
            observer(&TickSample {
                now_s: self.now_s,
                tick_s: tick,
                core_temps_c: &core_after,
                block_temps_c: &temps_after,
                layer_of_block,
                utilization: &self.utilization,
                chip_power_w,
                vf_index: &vf_index,
                asleep: &asleep,
            });

            std::mem::swap(&mut temps_c, &mut temps_after);
            self.now_s += tick;
        }
        // end-region

        RunResult {
            policy: self.policy.name().to_owned(),
            experiment: self.config.experiment,
            duration_s: self.now_s,
            hotspot_pct: hotspots.percent(),
            gradient_pct: gradients.percent(),
            cycle_pct: cycles.percent(),
            vertical_peak_c: vertical.peak_c(),
            vertical_mean_c: vertical.mean_c(),
            peak_temp_c: hotspots.peak_c(),
            perf: PerformanceStats::from_accumulated(
                self.queues.completed_count(),
                self.queues.turnaround_total_s(),
                self.queues.turnaround_max_s(),
            ),
            energy_j: energy.joules(),
            mean_power_w: energy.mean_power_w(),
            migrations: self.queues.migration_count(),
            unfinished: self.queues.in_flight(),
        }
    }
}

/// Post-step state of one sampling interval, handed to
/// [`Simulator::run_source_with_observer`] observers.
///
/// All slices are indexed by core id except `block_temps_c` and
/// `layer_of_block`, which cover every block in the stack.
#[derive(Debug, Clone)]
pub struct TickSample<'a> {
    /// Simulation time at the start of the tick, seconds.
    pub now_s: f64,
    /// Tick length, seconds.
    pub tick_s: f64,
    /// Per-core temperatures after the thermal step, °C.
    pub core_temps_c: &'a [f64],
    /// All block temperatures after the thermal step, °C.
    pub block_temps_c: &'a [f64],
    /// The layer each block sits on (parallel to `block_temps_c`).
    pub layer_of_block: &'a [usize],
    /// Per-core utilization over the tick, `[0, 1]`.
    pub utilization: &'a [f64],
    /// Total chip power over the tick, W.
    pub chip_power_w: f64,
    /// V/f level index each core ran at.
    pub vf_index: &'a [usize],
    /// Whether each core slept through the tick.
    pub asleep: &'a [bool],
}

#[cfg(test)]
mod tests {
    use super::*;
    use therm3d_floorplan::Experiment;
    use therm3d_policies::PolicyKind;
    use therm3d_workload::{Benchmark, TraceConfig};

    fn run_policy(kind: PolicyKind, bench: Benchmark, secs: f64) -> RunResult {
        let cfg = SimConfig::fast(Experiment::Exp1);
        let stack = Experiment::Exp1.stack();
        let policy = kind.build(&stack, 0xBEEF);
        let jobs = TraceConfig::new(bench, 8, secs).with_seed(3).stream();
        Simulator::new(cfg, policy).run_source(jobs, secs)
    }

    #[test]
    fn default_policy_completes_all_jobs() {
        let r = run_policy(PolicyKind::Default, Benchmark::Gzip, 10.0);
        assert_eq!(r.unfinished, 0, "light load must drain fully");
        assert!(r.perf.completed > 0);
        assert!(r.energy_j > 0.0);
        assert!(r.peak_temp_c > 45.0);
    }

    #[test]
    fn deterministic_runs() {
        let a = run_policy(PolicyKind::Adapt3d, Benchmark::Gcc, 6.0);
        let b = run_policy(PolicyKind::Adapt3d, Benchmark::Gcc, 6.0);
        assert_eq!(a, b);
    }

    #[test]
    fn busy_system_heats_up() {
        let r = run_policy(PolicyKind::Default, Benchmark::WebHigh, 15.0);
        assert!(r.peak_temp_c > 60.0, "heavy load heats the chip: {:.1}", r.peak_temp_c);
    }

    #[test]
    fn every_policy_runs_on_every_experiment() {
        for exp in Experiment::ALL {
            let stack = exp.stack();
            for kind in [PolicyKind::Default, PolicyKind::Adapt3d, PolicyKind::Adapt3dDvfsTt] {
                let cfg = SimConfig::fast(exp);
                let policy = kind.build(&stack, 1);
                let jobs = TraceConfig::new(Benchmark::Gcc, stack.num_cores(), 3.0).stream();
                let r = Simulator::new(cfg, policy).run_source(jobs, 3.0);
                assert!(r.duration_s >= 3.0, "{exp}/{kind}");
            }
        }
    }

    #[test]
    fn dpm_reduces_energy_on_light_load() {
        let cfg = || SimConfig::fast(Experiment::Exp1);
        let stack = Experiment::Exp1.stack();
        let trace = TraceConfig::new(Benchmark::MPlayer, 8, 20.0).with_seed(5);
        let base = Simulator::new(cfg(), PolicyKind::Default.build_with_dpm(&stack, 1, false))
            .run_source(trace.stream(), 20.0);
        let dpm = Simulator::new(cfg(), PolicyKind::Default.build_with_dpm(&stack, 1, true))
            .run_source(trace.stream(), 20.0);
        assert!(
            dpm.energy_j < base.energy_j * 0.95,
            "DPM {:.0} J vs base {:.0} J",
            dpm.energy_j,
            base.energy_j
        );
    }

    #[test]
    fn migration_policy_migrates_under_load() {
        let r = run_policy(PolicyKind::Migr, Benchmark::WebHigh, 15.0);
        // Whether migrations trigger depends on crossing 85 °C; at minimum
        // the run must be well-formed.
        assert!(r.perf.completed > 0);
    }

    #[test]
    fn simulators_on_one_share_start_bit_identical_and_solve_the_idle_state_once() {
        let bits = |v: Vec<f64>| v.into_iter().map(f64::to_bits).collect::<Vec<_>>();
        // 34 and 258 nodes: a modal and a sparse model.
        for (exp, grid) in [(Experiment::Exp1, 4), (Experiment::Exp3, 8)] {
            let stack = exp.stack();
            let mut cfg = SimConfig::fast(exp);
            cfg.thermal = cfg.thermal.with_grid(grid, grid);
            let policy = || PolicyKind::Default.build(&stack, 1);

            // Reference: a thermal model with no share, so no memo,
            // driven through the same three power → steady iterations.
            let mut lone = ThermalModel::new(&stack, cfg.resolved_thermal());
            let power = PowerModel::new(&stack, cfg.power.clone(), cfg.vf.clone());
            let idle = vec![CorePowerInput::idle(); stack.num_cores()];
            let mut temps = vec![cfg.thermal.ambient_c; stack.num_blocks()];
            for _ in 0..3 {
                temps = lone.initialize_steady_state(&power.block_powers(&idle, &temps));
            }

            let share = FactorShare::new();
            let first = Simulator::with_factor_share(cfg.clone(), policy(), Some(share.clone()));
            assert_eq!(share.steady_solves(), 3, "{exp}: one per iteration");
            let second = Simulator::with_factor_share(cfg.clone(), policy(), Some(share.clone()));
            assert_eq!(share.steady_solves(), 3, "{exp}: the second copies all three");
            assert_eq!(share.hits(), 1, "{exp}: the second still adopts the steady factor");
            for sim in [&first, &second] {
                let t = &sim.thermal;
                assert_eq!(bits(t.block_temperatures_c()), bits(lone.block_temperatures_c()));
                assert_eq!(bits(t.node_temperatures_k()), bits(lone.node_temperatures_k()));
                assert_eq!(t.factorization_count(), lone.factorization_count());
            }
        }
    }

    #[test]
    fn metrics_are_percentages() {
        let r = run_policy(PolicyKind::Default, Benchmark::WebMed, 8.0);
        for v in [r.hotspot_pct, r.gradient_pct, r.cycle_pct] {
            assert!((0.0..=100.0).contains(&v), "{v}");
        }
    }
}
