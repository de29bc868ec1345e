//! The per-block power model: dynamic + leakage power for every block in
//! a 3D stack given the cores' scheduling state and current temperatures.

use therm3d_floorplan::{Stack3d, UnitKind};

use crate::leakage::LeakageModel;
use crate::vf::VfTable;

/// Static power parameters (Section IV-B of the paper).
///
/// # Examples
///
/// ```
/// use therm3d_power::PowerParams;
///
/// let p = PowerParams::paper_default();
/// assert_eq!(p.core_active_w, 3.0);
/// assert_eq!(p.l2_w, 1.28);
/// assert_eq!(p.core_sleep_w, 0.02);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PowerParams {
    /// Dynamic power of a fully utilized core at the default V/f, W
    /// (paper: 3 W, from the UltraSPARC T1 measurements).
    pub core_active_w: f64,
    /// Dynamic power of an idle (clocked but unloaded) core, W.
    /// The paper does not quote this number; 15 % of active power is a
    /// typical clock-tree floor and is documented as our assumption in
    /// DESIGN.md.
    pub core_idle_w: f64,
    /// Power in the sleep state, W (paper: 0.02 W).
    pub core_sleep_w: f64,
    /// Per-L2-bank power, W (paper: 1.28 W from CACTI).
    pub l2_w: f64,
    /// Crossbar power with all cores active and memory-heavy traffic, W
    /// (scaled by active-core count and memory intensity per Section
    /// IV-B; the T1 crossbar accounts for a few percent of chip power).
    pub crossbar_max_w: f64,
    /// Constant power of each `Other` block, W. The non-core, non-L2
    /// logic of a Niagara-1 (FPU, memory controllers, I/O, buffers) burns
    /// a substantial share of the 63 W chip budget; 3 W per `other`
    /// template block lands the simulated chip in that neighbourhood.
    pub other_w: f64,
    /// Leakage model applied to core blocks.
    pub leakage: LeakageModel,
}

impl PowerParams {
    /// The paper's parameterization.
    #[must_use]
    pub fn paper_default() -> Self {
        Self {
            core_active_w: 3.0,
            core_idle_w: 0.45,
            core_sleep_w: 0.02,
            l2_w: 1.28,
            crossbar_max_w: 2.0,
            other_w: 3.0,
            leakage: LeakageModel::paper_default(),
        }
    }
}

impl Default for PowerParams {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// Per-core scheduling state consumed by the power model each sampling
/// interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CorePowerInput {
    /// Fraction of the interval the core executed instructions, `[0, 1]`.
    pub utilization: f64,
    /// Index into the [`VfTable`] (0 = default/fastest).
    pub vf_index: usize,
    /// Clock gated: dynamic power suppressed, leakage remains.
    pub gated: bool,
    /// Sleep state (DPM): everything off except `core_sleep_w`.
    pub asleep: bool,
    /// Memory intensity of the running workload in `[0, 1]` (drives the
    /// crossbar's traffic-dependent component).
    pub memory_intensity: f64,
}

impl CorePowerInput {
    /// An idle, full-speed, awake core.
    #[must_use]
    pub fn idle() -> Self {
        Self { utilization: 0.0, vf_index: 0, gated: false, asleep: false, memory_intensity: 0.0 }
    }

    /// A fully busy core at the default V/f.
    #[must_use]
    pub fn busy() -> Self {
        Self { utilization: 1.0, vf_index: 0, gated: false, asleep: false, memory_intensity: 0.5 }
    }
}

impl Default for CorePowerInput {
    fn default() -> Self {
        Self::idle()
    }
}

/// Computes per-block power for a stack from core states and block
/// temperatures.
///
/// # Examples
///
/// ```
/// use therm3d_floorplan::Experiment;
/// use therm3d_power::{CorePowerInput, PowerModel, PowerParams, VfTable};
///
/// let stack = Experiment::Exp1.stack();
/// let model = PowerModel::new(&stack, PowerParams::paper_default(), VfTable::paper_default());
/// let cores = vec![CorePowerInput::busy(); stack.num_cores()];
/// let temps = vec![60.0; stack.num_blocks()];
/// let powers = model.block_powers(&cores, &temps);
/// assert_eq!(powers.len(), stack.num_blocks());
/// assert!(powers.iter().sum::<f64>() > 24.0, "8 busy cores dissipate well over 3 W each");
/// ```
#[derive(Debug, Clone)]
pub struct PowerModel {
    params: PowerParams,
    vf: VfTable,
    /// For each global block site: kind, area, and (for cores) the core
    /// index.
    sites: Vec<SiteInfo>,
    num_cores: usize,
}

#[derive(Debug, Clone, Copy)]
struct SiteInfo {
    kind: UnitKind,
    area_mm2: f64,
    core_index: Option<usize>,
}

impl PowerModel {
    /// Builds the model for `stack`.
    #[must_use]
    pub fn new(stack: &Stack3d, params: PowerParams, vf: VfTable) -> Self {
        let mut core_counter = 0usize;
        let sites = stack
            .sites()
            .iter()
            .map(|s| {
                let core_index = if s.kind == UnitKind::Core {
                    let i = core_counter;
                    core_counter += 1;
                    Some(i)
                } else {
                    None
                };
                SiteInfo { kind: s.kind, area_mm2: s.area_mm2, core_index }
            })
            .collect();
        Self { params, vf, sites, num_cores: core_counter }
    }

    /// The V/f table in use.
    #[must_use]
    pub fn vf_table(&self) -> &VfTable {
        &self.vf
    }

    /// The static parameters in use.
    #[must_use]
    pub fn params(&self) -> &PowerParams {
        &self.params
    }

    /// Number of cores the model expects input for.
    #[must_use]
    pub fn num_cores(&self) -> usize {
        self.num_cores
    }

    /// Number of blocks the model produces power for.
    #[must_use]
    pub fn num_blocks(&self) -> usize {
        self.sites.len()
    }

    /// Computes the power of every block (W), indexed like
    /// [`Stack3d::sites`].
    ///
    /// `temps_c` are the current block temperatures (for the leakage
    /// feedback); pass the previous interval's thermal solution.
    ///
    /// # Panics
    ///
    /// Panics if `cores.len() != num_cores()`,
    /// `temps_c.len() != num_blocks()`, a utilization or memory intensity
    /// is outside `[0, 1]`, or a `vf_index` is out of table range.
    #[must_use]
    pub fn block_powers(&self, cores: &[CorePowerInput], temps_c: &[f64]) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.sites.len());
        self.block_powers_into(cores, temps_c, &mut out);
        out
    }

    /// In-place variant of [`block_powers`](Self::block_powers): clears
    /// and refills `out`, so a tick loop can reuse one buffer with zero
    /// per-tick allocation.
    ///
    /// # Panics
    ///
    /// As [`block_powers`](Self::block_powers).
    pub fn block_powers_into(&self, cores: &[CorePowerInput], temps_c: &[f64], out: &mut Vec<f64>) {
        assert_eq!(cores.len(), self.num_cores, "expected one input per core");
        assert_eq!(temps_c.len(), self.sites.len(), "expected one temperature per block");

        // Crossbar load: fraction of cores active, weighted by their
        // memory intensity (Section IV-B: "scaling the average power value
        // according to the number of active cores and the memory access
        // statistics").
        let mut active_frac = 0.0;
        let mut mem_frac = 0.0;
        for c in cores {
            assert!(
                (0.0..=1.0).contains(&c.utilization),
                "utilization {} out of [0,1]",
                c.utilization
            );
            assert!(
                (0.0..=1.0).contains(&c.memory_intensity),
                "memory intensity {} out of [0,1]",
                c.memory_intensity
            );
            assert!(c.vf_index < self.vf.len(), "vf index {} out of range", c.vf_index);
            if !c.asleep && !c.gated {
                active_frac += c.utilization;
                mem_frac += c.utilization * c.memory_intensity;
            }
        }
        active_frac /= self.num_cores as f64;
        mem_frac /= self.num_cores as f64;
        let crossbar_w =
            self.params.crossbar_max_w * (0.5 * active_frac + 0.5 * mem_frac).clamp(0.0, 1.0);

        out.clear();
        out.extend(self.sites.iter().enumerate().map(|(site, info)| match info.kind {
            UnitKind::Core => {
                let c = &cores[info.core_index.expect("core site has core index")];
                self.core_power(c, temps_c[site], info.area_mm2)
            }
            UnitKind::L2Cache => self.params.l2_w,
            UnitKind::Crossbar => crossbar_w,
            UnitKind::Other => self.params.other_w,
        }));
    }

    /// Power of a single core given its state and temperature (W).
    #[must_use]
    pub fn core_power(&self, c: &CorePowerInput, temp_c: f64, area_mm2: f64) -> f64 {
        if c.asleep {
            return self.params.core_sleep_w;
        }
        let level = self.vf.level(c.vf_index);
        let dynamic = if c.gated {
            0.0
        } else {
            (c.utilization * self.params.core_active_w
                + (1.0 - c.utilization) * self.params.core_idle_w)
                * level.dynamic_scale()
        };
        let leakage = self.params.leakage.power_w(area_mm2, temp_c, level.leakage_scale());
        dynamic + leakage
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use therm3d_floorplan::Experiment;

    fn model(exp: Experiment) -> (Stack3d, PowerModel) {
        let stack = exp.stack();
        let m = PowerModel::new(&stack, PowerParams::paper_default(), VfTable::paper_default());
        (stack, m)
    }

    #[test]
    fn busy_core_power_exceeds_idle() {
        let (stack, m) = model(Experiment::Exp1);
        let temps = vec![60.0; stack.num_blocks()];
        let busy = m.block_powers(&vec![CorePowerInput::busy(); 8], &temps);
        let idle = m.block_powers(&vec![CorePowerInput::idle(); 8], &temps);
        for c in stack.core_ids() {
            let i = stack.core_block_index(c);
            assert!(busy[i] > idle[i] + 2.0, "busy {} vs idle {}", busy[i], idle[i]);
        }
    }

    #[test]
    fn sleep_power_is_paper_value() {
        let (stack, m) = model(Experiment::Exp1);
        let temps = vec![90.0; stack.num_blocks()];
        let mut c = CorePowerInput::busy();
        c.asleep = true;
        let p = m.block_powers(&vec![c; 8], &temps);
        for core in stack.core_ids() {
            assert!((p[stack.core_block_index(core)] - 0.02).abs() < 1e-12);
        }
    }

    #[test]
    fn gating_kills_dynamic_but_not_leakage() {
        let (stack, m) = model(Experiment::Exp1);
        let temps = vec![85.0; stack.num_blocks()];
        let mut gated = CorePowerInput::busy();
        gated.gated = true;
        let pg = m.block_powers(&vec![gated; 8], &temps);
        let site = stack.core_block_index(therm3d_floorplan::CoreId(0));
        let leak_only = m.params().leakage.power_w(10.0, 85.0, 1.0);
        assert!((pg[site] - leak_only).abs() < 1e-9);
        assert!(pg[site] > 0.5, "leakage at 85 °C is substantial");
    }

    #[test]
    fn dvfs_reduces_power() {
        let (stack, m) = model(Experiment::Exp2);
        let temps = vec![70.0; stack.num_blocks()];
        let mut slow = CorePowerInput::busy();
        slow.vf_index = 2;
        let p_fast = m.block_powers(&vec![CorePowerInput::busy(); 8], &temps);
        let p_slow = m.block_powers(&vec![slow; 8], &temps);
        for c in stack.core_ids() {
            let i = stack.core_block_index(c);
            assert!(p_slow[i] < p_fast[i]);
        }
    }

    #[test]
    fn leakage_feedback_raises_power_with_temperature() {
        let (stack, m) = model(Experiment::Exp1);
        let cool = vec![50.0; stack.num_blocks()];
        let hot = vec![95.0; stack.num_blocks()];
        let inputs = vec![CorePowerInput::busy(); 8];
        let pc = m.block_powers(&inputs, &cool);
        let ph = m.block_powers(&inputs, &hot);
        let total_cool: f64 = pc.iter().sum();
        let total_hot: f64 = ph.iter().sum();
        assert!(total_hot > total_cool + 1.0, "{total_hot} vs {total_cool}");
    }

    #[test]
    fn crossbar_scales_with_activity() {
        let (stack, m) = model(Experiment::Exp1);
        let temps = vec![60.0; stack.num_blocks()];
        let xbar_site = stack
            .sites()
            .iter()
            .position(|s| s.kind == UnitKind::Crossbar)
            .expect("EXP-1 has a crossbar");
        let busy = m.block_powers(&vec![CorePowerInput::busy(); 8], &temps);
        let idle = m.block_powers(&vec![CorePowerInput::idle(); 8], &temps);
        assert!(busy[xbar_site] > idle[xbar_site]);
        assert!(idle[xbar_site] >= 0.0);
        assert!(busy[xbar_site] <= m.params().crossbar_max_w + 1e-12);
    }

    #[test]
    fn l2_power_constant() {
        let (stack, m) = model(Experiment::Exp1);
        let temps = vec![60.0; stack.num_blocks()];
        let p = m.block_powers(&vec![CorePowerInput::busy(); 8], &temps);
        for (site, info) in stack.sites().iter().enumerate() {
            if info.kind == UnitKind::L2Cache {
                assert!((p[site] - 1.28).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn total_chip_power_in_plausible_range() {
        // Fully loaded EXP-1 should land in the neighbourhood of a real
        // Niagara-1 (63 W typical, 72 W max) once leakage is included.
        let (stack, m) = model(Experiment::Exp1);
        let temps = vec![80.0; stack.num_blocks()];
        let p = m.block_powers(&vec![CorePowerInput::busy(); 8], &temps);
        let total: f64 = p.iter().sum();
        assert!(total > 30.0 && total < 90.0, "total {total} W");
    }

    #[test]
    #[should_panic(expected = "one input per core")]
    fn wrong_core_count_rejected() {
        let (stack, m) = model(Experiment::Exp1);
        let temps = vec![60.0; stack.num_blocks()];
        let _ = m.block_powers(&[CorePowerInput::busy(); 4], &temps);
    }

    #[test]
    #[should_panic(expected = "utilization")]
    fn bad_utilization_rejected() {
        let (stack, m) = model(Experiment::Exp1);
        let temps = vec![60.0; stack.num_blocks()];
        let mut c = CorePowerInput::busy();
        c.utilization = 1.5;
        let _ = m.block_powers(&vec![c; 8], &temps);
    }
}
