//! End-to-end simulation configuration.

use therm3d_floorplan::Experiment;
use therm3d_power::{PowerParams, VfTable};
use therm3d_thermal::{Integrator, ThermalConfig};

use crate::scenario::ScenarioConfig;

/// Default seed for the noisy sensor profiles when no sweep cell
/// supplies one (the paper-reproduction trace seed, reused).
pub const DEFAULT_SENSOR_SEED: u64 = 2009;

/// Everything that defines one simulation run except the policy and the
/// workload trace.
///
/// The physical/sensing scenario — stack orientation, TSV/interlayer
/// variant, sensor fidelity — lives in [`scenario`](Self::scenario);
/// the engine builds the die stack, the RC network's interlayer
/// material and the policy-facing sensor from it, so
/// `thermal.interlayer` is derived from `scenario.tsv` at simulator
/// construction.
///
/// # Examples
///
/// ```
/// use therm3d::SimConfig;
/// use therm3d_floorplan::Experiment;
///
/// let cfg = SimConfig::paper_default(Experiment::Exp1);
/// assert_eq!(cfg.tick_s, 0.1);
/// assert_eq!(cfg.hotspot_threshold_c, 85.0);
/// assert!(cfg.scenario.is_paper_default());
/// ```
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Which 3D system to simulate.
    pub experiment: Experiment,
    /// The physical/sensing scenario: stack orientation, TSV/interlayer
    /// variant and sensor-fidelity profile.
    pub scenario: ScenarioConfig,
    /// Thermal sampling / scheduling interval, seconds (paper: 100 ms).
    pub tick_s: f64,
    /// Thermal model parameters (Table II). The interlayer material is
    /// resolved from `scenario.tsv` when the simulator is built, unless
    /// it was explicitly customized via `ThermalConfig::with_interlayer`
    /// — combining a custom interlayer with a non-default `scenario.tsv`
    /// fails [`validate`](Self::validate).
    pub thermal: ThermalConfig,
    /// Power model parameters (Section IV-B).
    pub power: PowerParams,
    /// DVFS table (three levels in the paper).
    pub vf: VfTable,
    /// Hot-spot threshold, °C (Figures 3–4: 85 °C).
    pub hotspot_threshold_c: f64,
    /// Spatial-gradient threshold, °C (Figure 5: 15 °C).
    pub gradient_threshold_c: f64,
    /// Thermal-cycle ΔT threshold, °C (Figure 6: 20 °C).
    pub cycle_threshold_c: f64,
    /// Vertical (inter-layer) gradient threshold, °C — the TSV-stress
    /// level Section V-C checks against. The paper observes vertical
    /// gradients stay "limited to a few degrees"; 10 °C marks the level
    /// where TSV thermo-mechanical stress would become a concern.
    pub vertical_threshold_c: f64,
    /// Sliding-window length for cycle detection, in ticks (100 ticks =
    /// 10 s at the default sampling interval — long enough to span DPM
    /// sleep/wake episodes and the die-level time constants where
    /// policy-controllable cycling lives, short enough not to be
    /// dominated by benchmark-segment macro swings no scheduler can
    /// remove).
    pub cycle_window: usize,
    /// Cap on post-trace drain time, seconds: the run ends when the trace
    /// is exhausted and the queues are empty, or after this much extra
    /// simulated time.
    pub drain_max_s: f64,
}

impl SimConfig {
    /// The paper's configuration for `experiment`: 100 ms sampling,
    /// Table II thermal parameters with an 8×8 grid, Section IV-B power
    /// parameters, 85/15/20 °C thresholds.
    #[must_use]
    pub fn paper_default(experiment: Experiment) -> Self {
        Self {
            experiment,
            scenario: ScenarioConfig::paper_default(),
            tick_s: 0.1,
            thermal: ThermalConfig::paper_default(),
            power: PowerParams::paper_default(),
            vf: VfTable::paper_default(),
            hotspot_threshold_c: 85.0,
            gradient_threshold_c: 15.0,
            cycle_threshold_c: 20.0,
            vertical_threshold_c: 10.0,
            cycle_window: 100,
            drain_max_s: 30.0,
        }
    }

    /// A reduced-resolution configuration (4×4 thermal grid) for fast
    /// tests; thresholds and physics are unchanged.
    #[must_use]
    pub fn fast(experiment: Experiment) -> Self {
        let mut cfg = Self::paper_default(experiment);
        cfg.thermal = cfg.thermal.with_grid(4, 4);
        cfg
    }

    /// Returns the configuration with a different thermal transient
    /// integrator (shorthand for setting `thermal.integrator`; the
    /// default is the pre-factored implicit scheme, with
    /// [`Integrator::ExplicitRk4`] retained as the golden reference).
    #[must_use]
    pub fn with_integrator(mut self, integrator: Integrator) -> Self {
        self.thermal = self.thermal.with_integrator(integrator);
        self
    }

    /// Returns the configuration with a different physical/sensing
    /// scenario (stack orientation, TSV variant, sensor profile).
    #[must_use]
    pub fn with_scenario(mut self, scenario: ScenarioConfig) -> Self {
        self.scenario = scenario;
        self
    }

    /// The thermal configuration the engine builds its RC network from:
    /// `thermal` with the scenario's TSV variant as the interlayer,
    /// unless `thermal.interlayer` was explicitly overridden. A custom
    /// material combined with a non-default TSV variant fails
    /// [`validate`](Self::validate), so the two sources never silently
    /// fight.
    #[must_use]
    pub fn resolved_thermal(&self) -> ThermalConfig {
        if self.thermal.interlayer == ThermalConfig::paper_default().interlayer {
            self.thermal.clone().with_tsv(self.scenario.tsv)
        } else {
            self.thermal.clone()
        }
    }

    /// Validates cross-field consistency.
    ///
    /// # Panics
    ///
    /// Panics on inconsistent parameters (non-positive tick, zero cycle
    /// window, gradient/cycle thresholds that are not positive).
    pub fn validate(&self) {
        assert!(self.tick_s > 0.0 && self.tick_s.is_finite(), "tick must be positive");
        assert!(self.cycle_window > 0, "cycle window must be non-empty");
        assert!(self.hotspot_threshold_c > 0.0, "hot-spot threshold must be positive");
        assert!(self.gradient_threshold_c > 0.0, "gradient threshold must be positive");
        assert!(self.cycle_threshold_c > 0.0, "cycle threshold must be positive");
        assert!(self.vertical_threshold_c > 0.0, "vertical threshold must be positive");
        assert!(self.drain_max_s >= 0.0, "drain cap must be non-negative");
        // A hand-set interlayer (`ThermalConfig::with_interlayer`) and a
        // non-default scenario TSV variant are two competing sources for
        // the same physical parameter; refuse the ambiguity instead of
        // letting one silently clobber the other in the engine.
        assert!(
            self.scenario.tsv == therm3d_thermal::TsvVariant::default()
                || self.thermal.interlayer == ThermalConfig::paper_default().interlayer,
            "conflicting interlayer: both `thermal.with_interlayer(..)` and a non-default \
             `scenario.tsv` are set; pick one source for the interlayer material"
        );
        self.thermal.validate();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_validates() {
        for exp in Experiment::ALL {
            SimConfig::paper_default(exp).validate();
            SimConfig::fast(exp).validate();
        }
    }

    #[test]
    fn fast_uses_smaller_grid() {
        let cfg = SimConfig::fast(Experiment::Exp1);
        assert_eq!((cfg.thermal.grid_rows, cfg.thermal.grid_cols), (4, 4));
        assert_eq!(cfg.hotspot_threshold_c, 85.0, "thresholds unchanged");
    }

    #[test]
    fn with_integrator_threads_through_to_the_thermal_config() {
        let cfg = SimConfig::fast(Experiment::Exp1).with_integrator(Integrator::ExplicitRk4);
        assert_eq!(cfg.thermal.integrator, Integrator::ExplicitRk4);
        assert_eq!(
            SimConfig::paper_default(Experiment::Exp1).thermal.integrator,
            Integrator::ImplicitCn,
            "the implicit solver is the workspace-wide default"
        );
    }

    #[test]
    fn with_scenario_carries_every_dimension() {
        use therm3d_floorplan::StackOrder;
        use therm3d_thermal::TsvVariant;

        let scenario = ScenarioConfig::paper_default()
            .with_stack_order(StackOrder::CoresNearSink)
            .with_tsv(TsvVariant::Dense2Pct)
            .with_sensor(crate::sensor::SensorProfile::Quantized1C);
        let cfg = SimConfig::fast(Experiment::Exp3).with_scenario(scenario);
        assert_eq!(cfg.scenario, scenario);
        cfg.validate();
        // The default scenario is the paper's.
        assert!(SimConfig::paper_default(Experiment::Exp1).scenario.is_paper_default());
    }

    #[test]
    fn custom_interlayer_is_allowed_only_with_the_default_tsv_variant() {
        use therm3d_thermal::{Material, TsvVariant};
        let custom = Material::from_resistivity(0.8, 4.0e6);
        // Custom interlayer alone: fine (pre-scenario behaviour kept).
        let mut cfg = SimConfig::fast(Experiment::Exp1);
        cfg.thermal = cfg.thermal.with_interlayer(custom);
        cfg.validate();
        // Scenario TSV variant alone: fine.
        SimConfig::fast(Experiment::Exp1)
            .with_scenario(ScenarioConfig::paper_default().with_tsv(TsvVariant::Dense1Pct))
            .validate();
        // Both at once is ambiguous and must be refused.
        let mut both = SimConfig::fast(Experiment::Exp1)
            .with_scenario(ScenarioConfig::paper_default().with_tsv(TsvVariant::Dense1Pct));
        both.thermal = both.thermal.with_interlayer(custom);
        let err = std::panic::catch_unwind(|| both.validate()).unwrap_err();
        let msg = err
            .downcast_ref::<&str>()
            .map(|s| (*s).to_owned())
            .or_else(|| err.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        assert!(msg.contains("conflicting interlayer"), "{msg}");
    }

    #[test]
    #[should_panic(expected = "tick must be positive")]
    fn bad_tick_rejected() {
        let mut cfg = SimConfig::paper_default(Experiment::Exp1);
        cfg.tick_s = 0.0;
        cfg.validate();
    }
}
