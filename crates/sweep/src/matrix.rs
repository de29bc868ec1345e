//! Deterministic expansion of a [`SweepSpec`] into a run matrix.
//!
//! The canonical cell order is row-major over the axes as listed in the
//! spec: seeds (outermost), then experiments, then the scenario axes
//! (stack orders, then TSV variants, then sensor profiles), then
//! integrators, then DPM, then policies (innermost). Every cell is a
//! *pure function* of the spec — its seeds are derived from the axis
//! values, never from scheduling order — so a sweep produces identical
//! results whatever the thread count.

use therm3d::SensorProfile;
use therm3d_floorplan::{Experiment, StackOrder};
use therm3d_policies::PolicyKind;
use therm3d_thermal::{Integrator, TsvVariant};

use crate::spec::SweepSpec;

/// One fully-determined run of the matrix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepCell {
    /// Position in the canonical order (also the CSV `cell` column).
    pub index: usize,
    /// Position of this cell's trace seed on the seed axis.
    pub seed_index: usize,
    /// The 3D system.
    pub experiment: Experiment,
    /// Which die bonds to the spreader in the split configurations.
    pub stack_order: StackOrder,
    /// The TSV/interlayer variant the RC network is built from.
    pub tsv: TsvVariant,
    /// The sensor-fidelity profile the policy observes through.
    pub sensor: SensorProfile,
    /// The thermal transient integrator this cell simulates with.
    pub integrator: Integrator,
    /// The DTM policy.
    pub policy: PolicyKind,
    /// Whether the policy is wrapped in fixed-timeout DPM.
    pub dpm: bool,
    /// Trace-generator seed: the seed-axis value itself, shared by every
    /// policy in the same (experiment, seed) group so that all policies
    /// replay the same workload.
    pub trace_seed: u64,
    /// Policy (LFSR) seed, derived from the spec's base seed and the
    /// seed-axis position; seed-axis position 0 uses the base seed
    /// unchanged so single-seed sweeps match the paper figures exactly.
    pub policy_seed: u16,
}

impl SweepCell {
    /// A one-line human-readable descriptor, used by error reports to
    /// name the exact cell that failed.
    #[must_use]
    pub fn describe(&self) -> String {
        format!(
            "cell #{} ({}, {}, {}, tsv={}, sensor={}, {}, dpm={}, trace_seed={})",
            self.index,
            self.experiment,
            self.stack_order,
            self.integrator,
            self.tsv,
            self.sensor,
            self.policy.label(),
            self.dpm,
            self.trace_seed,
        )
    }

    /// The sensor noise seed this cell's noisy profiles draw from: a
    /// pure function of the trace seed (see [`derive_sensor_seed`]), so
    /// every policy in one (experiment, seed) group reads through the
    /// *same* imperfect sensor — policies stay comparable, and a cached
    /// noisy cell reproduces bit-identically.
    #[must_use]
    pub fn sensor_seed(&self) -> u64 {
        derive_sensor_seed(self.trace_seed)
    }
}

/// Derives the per-cell policy seed. Pure: depends only on the base
/// seed and the seed-axis position, not on scheduling.
#[must_use]
pub fn derive_policy_seed(base: u16, seed_index: usize) -> u16 {
    // Golden-ratio stride keeps replica streams well separated; the
    // LFSR remaps an accidental 0 internally.
    base ^ (seed_index as u16).wrapping_mul(0x9E37)
}

/// Derives the sensor noise seed from a cell's trace seed (splitmix64
/// finalizer over a domain-separated input, so sensor and trace streams
/// never correlate even though one seeds the other). Pure and
/// scheduling-independent, like every other per-cell seed.
#[must_use]
pub fn derive_sensor_seed(trace_seed: u64) -> u64 {
    let mut z = trace_seed ^ 0x5E45_0E5E_ED00_2009; // "sensor seed" domain tag
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Expands `spec` into its canonical run matrix.
///
/// # Examples
///
/// ```
/// use therm3d_sweep::{expand, SweepSpec};
///
/// let spec = SweepSpec::new("demo").with_dpm(&[false, true]);
/// let cells = expand(&spec);
/// assert_eq!(cells.len(), spec.cell_count());
/// assert!(cells.iter().enumerate().all(|(i, c)| c.index == i));
/// ```
#[must_use]
pub fn expand(spec: &SweepSpec) -> Vec<SweepCell> {
    let mut cells = Vec::with_capacity(spec.cell_count());
    for (seed_index, &trace_seed) in spec.seeds.iter().enumerate() {
        let policy_seed = derive_policy_seed(spec.policy_seed, seed_index);
        for &experiment in &spec.experiments {
            for &stack_order in &spec.stack_orders {
                for &tsv in &spec.tsv {
                    for &sensor in &spec.sensors {
                        for &integrator in &spec.integrators {
                            for &dpm in &spec.dpm {
                                for &policy in &spec.policies {
                                    cells.push(SweepCell {
                                        index: cells.len(),
                                        seed_index,
                                        experiment,
                                        stack_order,
                                        tsv,
                                        sensor,
                                        integrator,
                                        policy,
                                        dpm,
                                        trace_seed,
                                        policy_seed,
                                    });
                                }
                            }
                        }
                    }
                }
            }
        }
    }
    cells
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expansion_is_the_full_cross_product() {
        let spec = SweepSpec::new("x")
            .with_experiments(&[Experiment::Exp1, Experiment::Exp3])
            .with_policies(&[PolicyKind::Default, PolicyKind::CGate, PolicyKind::Adapt3d])
            .with_dpm(&[false, true])
            .with_seeds(&[7, 8]);
        let cells = expand(&spec);
        assert_eq!(cells.len(), 2 * 3 * 2 * 2);
        // Innermost axis is the policy: the first three cells share
        // everything but the policy.
        assert_eq!(cells[0].policy, PolicyKind::Default);
        assert_eq!(cells[1].policy, PolicyKind::CGate);
        assert_eq!(cells[2].policy, PolicyKind::Adapt3d);
        assert!(cells[..3]
            .iter()
            .all(|c| { c.experiment == Experiment::Exp1 && !c.dpm && c.trace_seed == 7 }));
        // Outermost axis is the seed: the second half uses seed 8.
        assert!(cells[12..].iter().all(|c| c.trace_seed == 8));
    }

    #[test]
    fn integrator_axis_expands_between_experiments_and_dpm() {
        let spec = SweepSpec::new("x")
            .with_experiments(&[Experiment::Exp1])
            .with_integrators(&[Integrator::ImplicitCn, Integrator::ExplicitRk4])
            .with_policies(&[PolicyKind::Default, PolicyKind::Adapt3d])
            .with_dpm(&[false, true]);
        let cells = expand(&spec);
        assert_eq!(cells.len(), 2 * 2 * 2);
        // First half is the implicit default, second half RK4.
        assert!(cells[..4].iter().all(|c| c.integrator == Integrator::ImplicitCn));
        assert!(cells[4..].iter().all(|c| c.integrator == Integrator::ExplicitRk4));
        // The descriptor names the integrator, so failures are traceable.
        assert!(cells[4].describe().contains("explicit-rk4"), "{}", cells[4].describe());
    }

    #[test]
    fn indices_are_sequential() {
        let cells = expand(&SweepSpec::new("x").with_dpm(&[false, true]));
        for (i, c) in cells.iter().enumerate() {
            assert_eq!(c.index, i);
        }
    }

    #[test]
    fn scenario_axes_expand_between_experiments_and_integrators() {
        let spec = SweepSpec::new("x")
            .with_experiments(&[Experiment::Exp1])
            .with_stack_orders(&StackOrder::ALL)
            .with_tsv(&[TsvVariant::Paper, TsvVariant::Dense1Pct])
            .with_sensors(&[SensorProfile::Ideal, SensorProfile::Noisy1C])
            .with_policies(&[PolicyKind::Default]);
        let cells = expand(&spec);
        assert_eq!(cells.len(), 2 * 2 * 2);
        // Sensor is the innermost of the scenario axes…
        assert_eq!(cells[0].sensor, SensorProfile::Ideal);
        assert_eq!(cells[1].sensor, SensorProfile::Noisy1C);
        // …then TSV…
        assert!(cells[..2].iter().all(|c| c.tsv == TsvVariant::Paper));
        assert!(cells[2..4].iter().all(|c| c.tsv == TsvVariant::Dense1Pct));
        // …then the stack order outermost of the three.
        assert!(cells[..4].iter().all(|c| c.stack_order == StackOrder::CoresFarFromSink));
        assert!(cells[4..].iter().all(|c| c.stack_order == StackOrder::CoresNearSink));
        // The descriptor names every scenario dimension.
        let d = cells[7].describe();
        assert!(
            d.contains("cores-near")
                && d.contains("tsv=dense-1pct")
                && d.contains("sensor=noisy-1c"),
            "{d}"
        );
    }

    #[test]
    fn sensor_seeds_are_derived_not_scheduled() {
        let spec = SweepSpec::new("x").with_seeds(&[5, 6]);
        let cells = expand(&spec);
        for c in &cells {
            assert_eq!(c.sensor_seed(), derive_sensor_seed(c.trace_seed));
        }
        // Distinct trace seeds give decorrelated sensor streams; the
        // derivation itself never collides with the trace seed.
        assert_ne!(derive_sensor_seed(5), derive_sensor_seed(6));
        assert_ne!(derive_sensor_seed(5), 5);
    }

    #[test]
    fn seed_zero_matches_base_policy_seed() {
        let spec = SweepSpec::new("x");
        for c in expand(&spec) {
            assert_eq!(c.policy_seed, spec.policy_seed);
        }
    }

    #[test]
    fn replica_seeds_differ_but_are_stable() {
        let spec = SweepSpec::new("x").with_seeds(&[1, 2, 3]);
        let a = expand(&spec);
        let b = expand(&spec);
        assert_eq!(a, b, "expansion must be deterministic");
        assert_ne!(derive_policy_seed(0xACE1, 0), derive_policy_seed(0xACE1, 1));
        // Growing an unrelated axis must not shift existing seeds.
        let grown = expand(&spec.clone().with_dpm(&[false, true]));
        let seeds_a: std::collections::BTreeSet<u16> = a.iter().map(|c| c.policy_seed).collect();
        let seeds_b: std::collections::BTreeSet<u16> =
            grown.iter().map(|c| c.policy_seed).collect();
        assert_eq!(seeds_a, seeds_b);
    }

    #[test]
    fn policies_share_traces_within_a_group() {
        let spec = SweepSpec::new("x").with_seeds(&[5, 6]);
        let cells = expand(&spec);
        for c in &cells {
            assert_eq!(c.trace_seed, spec.seeds[c.seed_index]);
        }
    }
}
