//! The declarative description of a scenario sweep: which axes to cross,
//! how long to simulate, and how to seed each cell.

use therm3d::SensorProfile;
use therm3d_floorplan::{Experiment, StackOrder};
use therm3d_policies::PolicyKind;
use therm3d_thermal::{Integrator, TsvVariant};
use therm3d_workload::Benchmark;

/// Default simulated seconds per cell (the figure binaries' default).
pub const DEFAULT_SIM_SECONDS: f64 = 240.0;

/// Default trace seed (the paper-reproduction seed used everywhere).
pub const DEFAULT_TRACE_SEED: u64 = 2009;

/// Default policy (LFSR) seed.
pub const DEFAULT_POLICY_SEED: u16 = 0xACE1;

/// A declarative scenario sweep: the cross-product of every axis below
/// is expanded into one deterministic run matrix (see
/// [`expand`](crate::expand)).
///
/// # Examples
///
/// ```
/// use therm3d_sweep::SweepSpec;
/// use therm3d_floorplan::Experiment;
/// use therm3d_policies::PolicyKind;
///
/// let spec = SweepSpec::new("demo")
///     .with_experiments(&[Experiment::Exp1, Experiment::Exp2])
///     .with_policies(&[PolicyKind::Default, PolicyKind::Adapt3d])
///     .with_dpm(&[false, true])
///     .with_sim_seconds(10.0);
/// assert_eq!(therm3d_sweep::expand(&spec).len(), 8);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SweepSpec {
    /// Human-readable sweep name (used in reports and file headers).
    pub name: String,
    /// 3D systems to simulate (EXP-1..4).
    pub experiments: Vec<Experiment>,
    /// Stack-orientation axis: which die bonds to the spreader in the
    /// split configurations (default: the paper's `cores-far` only).
    pub stack_orders: Vec<StackOrder>,
    /// TSV/interlayer-variant axis: the named via population and
    /// interface material the RC network is built from (default: the
    /// paper's 1024-via joint interlayer only).
    pub tsv: Vec<TsvVariant>,
    /// Sensor-fidelity axis: the imperfection profile the policies
    /// observe through (default: ideal sensors only). Noisy profiles
    /// seed their stream from the per-cell trace seed, so noisy cells
    /// are reproducible and cacheable.
    pub sensors: Vec<SensorProfile>,
    /// Thermal transient integrators to run (default: the implicit
    /// pre-factored scheme only; add `explicit-rk4` to sweep the golden
    /// reference alongside it, e.g. for accuracy/performance studies).
    pub integrators: Vec<Integrator>,
    /// DTM policies to evaluate.
    pub policies: Vec<PolicyKind>,
    /// Dynamic power management on/off axis.
    pub dpm: Vec<bool>,
    /// The benchmark rotation; each run replays this mix with equal
    /// time shares (as the figure binaries do).
    pub benchmarks: Vec<Benchmark>,
    /// Trace-seed axis: one full (experiment × dpm × policy) grid is run
    /// per seed. All policies within one (experiment, seed) cell group
    /// replay the *same* trace, so policies stay comparable.
    pub seeds: Vec<u64>,
    /// Simulated seconds per cell.
    pub sim_seconds: f64,
    /// Thermal grid resolution per layer (rows, cols).
    pub grid: (usize, usize),
    /// Base policy (LFSR) seed; per-cell seeds are derived from it (see
    /// [`SweepCell::policy_seed`](crate::SweepCell)).
    pub policy_seed: u16,
    /// Worker threads; `0` means one per available CPU.
    pub threads: usize,
}

impl SweepSpec {
    /// Creates a spec with the paper defaults: all four experiments, all
    /// eleven policies, DPM off, the full Table I benchmark rotation,
    /// trace seed 2009, 240 s per cell on an 8×8 grid.
    ///
    /// The builder itself does *not* consult the environment; callers
    /// that want `THERM3D_SIM_SECONDS` (the CLI spec loader, the figure
    /// binaries) apply [`sim_seconds_from_env`] explicitly so a
    /// malformed value is a reported error, not a silent fallback.
    #[must_use]
    pub fn new(name: &str) -> Self {
        Self {
            name: name.to_owned(),
            experiments: Experiment::ALL.to_vec(),
            stack_orders: vec![StackOrder::default()],
            tsv: vec![TsvVariant::default()],
            sensors: vec![SensorProfile::default()],
            integrators: vec![Integrator::default()],
            policies: PolicyKind::ALL.to_vec(),
            dpm: vec![false],
            benchmarks: Benchmark::ALL.to_vec(),
            seeds: vec![DEFAULT_TRACE_SEED],
            sim_seconds: DEFAULT_SIM_SECONDS,
            grid: (8, 8),
            policy_seed: DEFAULT_POLICY_SEED,
            threads: 0,
        }
    }

    /// Sets the experiment axis.
    #[must_use]
    pub fn with_experiments(mut self, experiments: &[Experiment]) -> Self {
        self.experiments = experiments.to_vec();
        self
    }

    /// Sets the stack-orientation axis.
    #[must_use]
    pub fn with_stack_orders(mut self, stack_orders: &[StackOrder]) -> Self {
        self.stack_orders = stack_orders.to_vec();
        self
    }

    /// Sets the TSV/interlayer-variant axis.
    #[must_use]
    pub fn with_tsv(mut self, tsv: &[TsvVariant]) -> Self {
        self.tsv = tsv.to_vec();
        self
    }

    /// Sets the sensor-fidelity axis.
    #[must_use]
    pub fn with_sensors(mut self, sensors: &[SensorProfile]) -> Self {
        self.sensors = sensors.to_vec();
        self
    }

    /// Sets the integrator axis.
    #[must_use]
    pub fn with_integrators(mut self, integrators: &[Integrator]) -> Self {
        self.integrators = integrators.to_vec();
        self
    }

    /// Sets the policy axis.
    #[must_use]
    pub fn with_policies(mut self, policies: &[PolicyKind]) -> Self {
        self.policies = policies.to_vec();
        self
    }

    /// Sets the DPM axis (e.g. `&[false, true]` to sweep both).
    #[must_use]
    pub fn with_dpm(mut self, dpm: &[bool]) -> Self {
        self.dpm = dpm.to_vec();
        self
    }

    /// Sets the benchmark rotation.
    #[must_use]
    pub fn with_benchmarks(mut self, benchmarks: &[Benchmark]) -> Self {
        self.benchmarks = benchmarks.to_vec();
        self
    }

    /// Sets the trace-seed axis.
    #[must_use]
    pub fn with_seeds(mut self, seeds: &[u64]) -> Self {
        self.seeds = seeds.to_vec();
        self
    }

    /// Sets the simulated duration per cell, seconds.
    #[must_use]
    pub fn with_sim_seconds(mut self, sim_seconds: f64) -> Self {
        self.sim_seconds = sim_seconds;
        self
    }

    /// Sets the thermal grid resolution per layer.
    #[must_use]
    pub fn with_grid(mut self, rows: usize, cols: usize) -> Self {
        self.grid = (rows, cols);
        self
    }

    /// Sets the base policy (LFSR) seed.
    #[must_use]
    pub fn with_policy_seed(mut self, policy_seed: u16) -> Self {
        self.policy_seed = policy_seed;
        self
    }

    /// Sets the worker-thread count (`0` = one per available CPU).
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Number of cells the spec expands to.
    #[must_use]
    pub fn cell_count(&self) -> usize {
        self.experiments.len()
            * self.stack_orders.len()
            * self.tsv.len()
            * self.sensors.len()
            * self.integrators.len()
            * self.policies.len()
            * self.dpm.len()
            * self.seeds.len()
    }

    /// Validates the spec.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending field when an axis is
    /// empty, an axis contains duplicates, the duration is not positive,
    /// or the grid is degenerate.
    pub fn validate(&self) -> Result<(), String> {
        fn no_dupes<T: PartialEq + std::fmt::Debug>(axis: &[T], name: &str) -> Result<(), String> {
            if axis.is_empty() {
                return Err(format!("`{name}` axis must not be empty"));
            }
            for (i, a) in axis.iter().enumerate() {
                if axis[..i].contains(a) {
                    return Err(format!("`{name}` axis repeats {a:?}"));
                }
            }
            Ok(())
        }
        // The TOML subset has no string escapes, so a quote (or line
        // break) in the name would break the to_toml/from_toml
        // round-trip guarantee.
        if self.name.contains('"') || self.name.contains('\n') || self.name.contains('\r') {
            return Err(format!("`name` must not contain quotes or line breaks: {:?}", self.name));
        }
        no_dupes(&self.experiments, "experiments")?;
        no_dupes(&self.stack_orders, "stack_orders")?;
        no_dupes(&self.tsv, "tsv")?;
        no_dupes(&self.sensors, "sensors")?;
        no_dupes(&self.integrators, "integrators")?;
        no_dupes(&self.policies, "policies")?;
        no_dupes(&self.dpm, "dpm")?;
        no_dupes(&self.seeds, "seeds")?;
        if self.benchmarks.is_empty() {
            return Err("`benchmarks` must not be empty".into());
        }
        if !(self.sim_seconds > 0.0 && self.sim_seconds.is_finite()) {
            return Err(format!("`sim_seconds` must be positive and finite: {}", self.sim_seconds));
        }
        if self.grid.0 == 0 || self.grid.1 == 0 {
            return Err(format!("`grid` must be at least 1x1: {:?}", self.grid));
        }
        Ok(())
    }
}

/// Reads `THERM3D_SIM_SECONDS`: unset means `Ok(default_s)`, a valid
/// positive finite number means `Ok(that value)`, and anything else —
/// unparsable text, zero, negative, NaN or infinite — is a hard error.
///
/// The old behaviour silently fell back to the default, which meant a
/// typo'd duration quietly simulated (and *cached*, now that results
/// are memoized by a key that embeds the resolved duration) something
/// other than what the operator asked for.
///
/// # Errors
///
/// A message naming the variable and the offending value.
///
/// # Examples
///
/// ```
/// let s = therm3d_sweep::sim_seconds_from_env(240.0).unwrap();
/// assert!(s > 0.0);
/// ```
pub fn sim_seconds_from_env(default_s: f64) -> Result<f64, String> {
    parse_sim_seconds(std::env::var("THERM3D_SIM_SECONDS").ok().as_deref(), default_s)
}

/// The pure core of [`sim_seconds_from_env`]: `raw` is the variable's
/// value, `None` when unset.
///
/// # Errors
///
/// See [`sim_seconds_from_env`].
pub fn parse_sim_seconds(raw: Option<&str>, default_s: f64) -> Result<f64, String> {
    let Some(raw) = raw else {
        return Ok(default_s);
    };
    let reject = |why: &str| {
        Err(format!(
            "THERM3D_SIM_SECONDS must be a positive, finite number of simulated seconds, \
             got `{}` ({why})",
            raw.trim()
        ))
    };
    match raw.trim().parse::<f64>() {
        Err(_) => reject("not a number"),
        Ok(s) if s.is_nan() => reject("NaN"),
        Ok(s) if s.is_infinite() => reject("infinite"),
        Ok(s) if s <= 0.0 => reject("not positive"),
        Ok(s) => Ok(s),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_cover_the_paper_grid() {
        let spec = SweepSpec::new("paper");
        assert_eq!(spec.experiments.len(), 4);
        assert_eq!(spec.policies.len(), 11);
        assert_eq!(spec.cell_count(), 44);
        spec.validate().unwrap();
    }

    #[test]
    fn integrator_axis_multiplies_cells_and_rejects_duplicates() {
        let spec = SweepSpec::new("x")
            .with_integrators(&[Integrator::ImplicitCn, Integrator::ExplicitRk4]);
        assert_eq!(spec.cell_count(), 2 * 44);
        spec.validate().unwrap();
        let dup =
            SweepSpec::new("x").with_integrators(&[Integrator::ImplicitCn, Integrator::ImplicitCn]);
        assert!(dup.validate().unwrap_err().contains("integrators"));
    }

    #[test]
    fn scenario_axes_multiply_cells_and_reject_duplicates() {
        let spec = SweepSpec::new("scenario")
            .with_stack_orders(&StackOrder::ALL)
            .with_tsv(&[TsvVariant::Paper, TsvVariant::Dense1Pct, TsvVariant::Epoxy])
            .with_sensors(&[SensorProfile::Ideal, SensorProfile::Noisy1C]);
        assert_eq!(spec.cell_count(), 2 * 3 * 2 * 44);
        spec.validate().unwrap();
        for (bad, field) in [
            (SweepSpec::new("x").with_stack_orders(&[]), "stack_orders"),
            (SweepSpec::new("x").with_tsv(&[TsvVariant::Bare, TsvVariant::Bare]), "tsv"),
            (SweepSpec::new("x").with_sensors(&[SensorProfile::Ideal; 2]), "sensors"),
        ] {
            assert!(bad.validate().unwrap_err().contains(field), "{field}");
        }
    }

    #[test]
    fn empty_axis_rejected() {
        let spec = SweepSpec::new("x").with_policies(&[]);
        assert!(spec.validate().unwrap_err().contains("policies"));
    }

    #[test]
    fn duplicate_axis_value_rejected() {
        let spec = SweepSpec::new("x").with_seeds(&[1, 2, 1]);
        assert!(spec.validate().unwrap_err().contains("seeds"));
    }

    #[test]
    fn bad_duration_rejected() {
        let spec = SweepSpec::new("x").with_sim_seconds(0.0);
        assert!(spec.validate().unwrap_err().contains("sim_seconds"));
    }

    #[test]
    fn env_parsing_accepts_only_sane_durations() {
        // The pure core is tested exhaustively; no mutation of the real
        // environment (tests run in parallel).
        assert_eq!(parse_sim_seconds(None, 123.0), Ok(123.0));
        assert_eq!(parse_sim_seconds(Some("20"), 123.0), Ok(20.0));
        assert_eq!(parse_sim_seconds(Some("  0.5 "), 123.0), Ok(0.5));
        for bad in ["abc", "0", "0.0", "-3", "NaN", "nan", "inf", "-inf", ""] {
            let err = parse_sim_seconds(Some(bad), 123.0).unwrap_err();
            assert!(err.contains("THERM3D_SIM_SECONDS"), "{bad}: {err}");
            assert!(err.contains(bad.trim()), "{bad}: {err}");
        }
    }

    #[test]
    fn env_wrapper_matches_the_pure_core() {
        // Whatever THERM3D_SIM_SECONDS holds right now, the wrapper and
        // the pure parser must agree.
        let raw = std::env::var("THERM3D_SIM_SECONDS").ok();
        assert_eq!(sim_seconds_from_env(77.0), parse_sim_seconds(raw.as_deref(), 77.0));
    }
}
