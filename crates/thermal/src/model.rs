//! The transient/steady-state thermal model: the public face of this
//! crate.

use std::f64::consts::SQRT_2;
use std::sync::Arc;

use therm3d_floorplan::Stack3d;
use therm3d_telemetry::Span;

use crate::config::{Integrator, ThermalConfig};
use crate::network::RcNetwork;
use crate::share::FactorShare;
use crate::sparse::factor::{analyze, analyze_with_perm, LdlFactor, Symbolic};
use crate::sparse::CsrMatrix;
use crate::units::{celsius_from_kelvin, kelvin_from_celsius};

/// Safety factor applied to the explicit-RK4 stability limit.
const RK4_SAFETY: f64 = 0.9;
/// RK4 real-axis stability interval.
const RK4_STABILITY: f64 = 2.78;
/// Largest implicit substep, seconds: a 100 ms paper tick runs as three
/// TR-BDF2 substeps (six triangular solves against one cached factor).
/// Empirically the sweet spot on the paper's stacks — trajectories stay
/// within ~0.01 °C of the RK4 reference under worst-case per-tick power
/// swings while a tick remains ≥15× cheaper than RK4's ~70–80
/// stability-bounded substeps; one substep per tick would be ~2× faster
/// but drifts by ~0.8 °C on mid-frequency (tens-of-ms) thermal modes.
pub(crate) const MAX_IMPLICIT_STEP_S: f64 = 0.035;
/// Network size at which the symbolic analysis switches from the exact
/// minimum-degree ordering (quadratic-plus in the node count) to the
/// geometric nested-dissection order (near-linear on the grid).
const ND_MIN_DIM: usize = 2048;
/// Cap on simultaneously cached implicit factorizations, evicted LRU
/// (each distinct substep size needs one; real drivers use one or two).
const MAX_CACHED_FACTORS: usize = 8;
/// TR-BDF2 with γ = 2 − √2: both stages share the system
/// `(shift/h)·C + G` with shift = 2/γ = 2 + √2.
pub(crate) const TRBDF2_SHIFT: f64 = 2.0 + SQRT_2;
/// Stage-2 state blend `c1·T_γ − c2·T_n`, c1 = 1/(γ(2−γ)) = (√2+1)/2.
pub(crate) const TRBDF2_C1: f64 = (SQRT_2 + 1.0) / 2.0;
/// c2 = (1−γ)²/(γ(2−γ)) = (√2−1)/2.
pub(crate) const TRBDF2_C2: f64 = (SQRT_2 - 1.0) / 2.0;

/// A transient 3D thermal simulator for a die stack.
///
/// `ThermalModel` owns the RC network built from a [`Stack3d`] and a
/// [`ThermalConfig`], the current temperature state, and the current
/// per-block power assignment. Typical use alternates
/// [`set_block_powers`](Self::set_block_powers) and [`step`](Self::step)
/// at the thermal sampling interval (100 ms in the paper), reading back
/// [`block_temperatures_c`](Self::block_temperatures_c) for the policies.
///
/// # Examples
///
/// ```
/// use therm3d_floorplan::Experiment;
/// use therm3d_thermal::{ThermalConfig, ThermalModel};
///
/// let stack = Experiment::Exp1.stack();
/// let mut model = ThermalModel::new(&stack, ThermalConfig::paper_default().with_grid(4, 4));
///
/// // Run every core at 3 W for one second of simulated time.
/// let mut powers = vec![0.0; stack.num_blocks()];
/// for core in stack.core_ids() {
///     powers[stack.core_block_index(core)] = 3.0;
/// }
/// model.set_block_powers(&powers);
/// for _ in 0..10 {
///     model.step(0.1);
/// }
/// let temps = model.block_temperatures_c();
/// assert!(temps.iter().all(|&t| t > 45.0), "everything heated above ambient");
/// ```
#[derive(Debug, Clone)]
pub struct ThermalModel {
    network: RcNetwork,
    /// Node temperatures in kelvin.
    temps_k: Vec<f64>,
    /// Current per-node power injection in W.
    node_power: Vec<f64>,
    /// Current per-block power in W (kept for diagnostics).
    block_power: Vec<f64>,
    /// Fixed stable substep for explicit integration, seconds.
    stable_dt: f64,
    /// The transient scheme [`step`](Self::step) uses.
    integrator: Integrator,
    /// Scratch buffers for RK4.
    scratch: Rk4Scratch,
    /// Cached factorizations and buffers for the implicit path.
    implicit: ImplicitState,
}

/// One cached factorization of `(TRBDF2_SHIFT/h)·C + G`.
#[derive(Debug, Clone)]
struct StepCache {
    /// Exact bit pattern of the substep size `h` this factor serves.
    h_bits: u64,
    factor: Arc<LdlFactor>,
}

/// Which shared-factor slot a factorization request targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FactorKey {
    /// The conductance matrix `G` (steady-state solves).
    Steady,
    /// `(TRBDF2_SHIFT/h)·C + G` for the substep with these `h` bits.
    Step(u64),
}

/// Lazily built direct-solver state: factorization caches plus reusable
/// dense work vectors (the per-tick hot path allocates nothing).
#[derive(Debug, Clone, Default)]
struct ImplicitState {
    /// Per-substep-size factorizations, most recently created last.
    caches: Vec<StepCache>,
    /// Factorization of `G` alone, for direct steady-state solves.
    steady: Option<Arc<LdlFactor>>,
    /// Shared symbolic analysis: the pattern of `α·C + G` is
    /// α-independent (C is diagonal, G has a full structural diagonal)
    /// and equals the pattern of `G` itself, so the ordering,
    /// elimination tree and fill counts are computed once and every
    /// factorization after the first runs only its numeric phase.
    symbolic: Option<Arc<Symbolic>>,
    /// Optional cross-model share (sweep cells with one fingerprint).
    share: Option<FactorShare>,
    /// Nested-dissection ordering hint for large networks, where the
    /// exact minimum-degree search is intractable.
    perm_hint: Option<Vec<usize>>,
    /// Factorizations *ensured* over the model's lifetime — computed
    /// locally or adopted ready-made from the attached share; the count
    /// is identical either way, so it is scheduling-independent (tests
    /// assert cache reuse through [`ThermalModel::factorization_count`]).
    factor_count: usize,
    /// Symbolic analyses ensured (same semantics; see
    /// [`ThermalModel::symbolic_analysis_count`]).
    symbolic_count: usize,
    rhs: Vec<f64>,
    stage: Vec<f64>,
    solve_scratch: Vec<f64>,
}

impl ImplicitState {
    /// Runs the symbolic analysis for `a`, under the nested-dissection
    /// hint when the network is large enough to carry one.
    fn analyze_for(a: &CsrMatrix, perm_hint: Option<&Vec<usize>>) -> Symbolic {
        let _span = Span::enter("thermal.symbolic_analyze_us");
        match perm_hint {
            Some(p) if p.len() == a.dim() => analyze_with_perm(a, p.clone()),
            _ => analyze(a),
        }
    }

    /// Runs the numeric phase of `a` against `symbolic`.
    fn numeric_phase(symbolic: &Symbolic, a: &CsrMatrix, what: &str) -> LdlFactor {
        let _span = Span::enter("thermal.factor_numeric_us");
        symbolic.factor_numeric(a).unwrap_or_else(|e| panic!("{what} must be SPD: {e}"))
    }

    /// Ensures a factorization of `a` for `key`: reuses (or lazily
    /// computes) the shared symbolic analysis, and — when a
    /// [`FactorShare`] is attached — adopts the factor from the share
    /// or computes it exactly once *under the share lock*. Falls back
    /// to a fresh analysis if `a`'s pattern size ever diverges from the
    /// analyzed one (cannot happen for one RC network's systems, but
    /// corruption-proof beats a panic deep inside the solver).
    fn factor_shared(&mut self, a: &CsrMatrix, what: &str, key: FactorKey) -> Arc<LdlFactor> {
        // LDLᵀ without pivoting assumes symmetry; an asymmetric system
        // here means the RC assembly upstream is broken.
        debug_assert!(a.is_symmetric(1e-9), "{what} must be symmetric for LDL^T");
        let locally_compatible = self
            .symbolic
            .as_ref()
            .is_some_and(|s| s.dim() == a.dim() && s.pattern_nnz() == a.nnz());

        let Some(share) = self.share.clone() else {
            // Unshared path: the pre-share behaviour, unchanged.
            if !locally_compatible {
                self.symbolic = Some(Arc::new(Self::analyze_for(a, self.perm_hint.as_ref())));
                self.symbolic_count += 1;
            }
            let symbolic = self.symbolic.as_ref().expect("analyzed above");
            let factored = Arc::new(Self::numeric_phase(symbolic, a, what));
            self.factor_count += 1;
            return factored;
        };

        let mut state = share.lock();
        if !locally_compatible {
            let share_compatible = state
                .symbolic
                .as_ref()
                .is_some_and(|s| s.dim() == a.dim() && s.pattern_nnz() == a.nnz());
            if !share_compatible {
                state.symbolic = Some(Arc::new(Self::analyze_for(a, self.perm_hint.as_ref())));
                state.symbolic_analyses += 1;
            }
            self.symbolic = state.symbolic.clone();
            // Ensured semantics: adopting counts exactly like computing,
            // so per-model counters stay scheduling-independent.
            self.symbolic_count += 1;
        }
        let existing = match key {
            FactorKey::Steady => state.steady.clone(),
            FactorKey::Step(h) => {
                state.steps.iter().find(|(hb, _)| *hb == h).map(|(_, f)| Arc::clone(f))
            }
        };
        let factored = if let Some(f) = existing {
            state.hits += 1;
            f
        } else {
            let symbolic = self.symbolic.as_ref().expect("ensured above");
            let f = Arc::new(Self::numeric_phase(symbolic, a, what));
            match key {
                FactorKey::Steady => state.steady = Some(Arc::clone(&f)),
                FactorKey::Step(h) => state.steps.push((h, Arc::clone(&f))),
            }
            state.factorizations += 1;
            f
        };
        self.factor_count += 1;
        factored
    }
}

#[derive(Debug, Clone)]
struct Rk4Scratch {
    k1: Vec<f64>,
    k2: Vec<f64>,
    k3: Vec<f64>,
    k4: Vec<f64>,
    tmp: Vec<f64>,
    gt: Vec<f64>,
}

impl Rk4Scratch {
    fn new(n: usize) -> Self {
        Self {
            k1: vec![0.0; n],
            k2: vec![0.0; n],
            k3: vec![0.0; n],
            k4: vec![0.0; n],
            tmp: vec![0.0; n],
            gt: vec![0.0; n],
        }
    }
}

impl ThermalModel {
    /// Builds the model and initializes every node at the ambient
    /// temperature (the zero-power steady state).
    ///
    /// # Panics
    ///
    /// Panics if `config` is invalid (see [`ThermalConfig::validate`]).
    #[must_use]
    pub fn new(stack: &Stack3d, config: ThermalConfig) -> Self {
        let network = RcNetwork::build(stack, &config);
        let n = network.node_count();
        let temps_k = vec![network.ambient_k(); n];
        let stable_dt = RK4_SAFETY * RK4_STABILITY / network.stiffness_bound();
        let implicit = ImplicitState {
            perm_hint: (n >= ND_MIN_DIM).then(|| network.nested_dissection_perm()),
            ..ImplicitState::default()
        };
        Self {
            temps_k,
            node_power: vec![0.0; n],
            block_power: vec![0.0; network.block_count()],
            scratch: Rk4Scratch::new(n),
            stable_dt,
            integrator: config.integrator,
            implicit,
            network,
        }
    }

    /// Attaches a cross-model [`FactorShare`]: factorizations this
    /// model needs are adopted from the share when present and computed
    /// into it (exactly once, under the share lock) when not. Attach
    /// before the first factorization — typically right after
    /// construction — so nothing is computed twice.
    pub fn set_factor_share(&mut self, share: FactorShare) {
        self.implicit.share = Some(share);
    }

    /// The transient integration scheme this model steps with.
    #[must_use]
    pub fn integrator(&self) -> Integrator {
        self.integrator
    }

    /// Numeric sparse factorizations *ensured* so far (steady-state plus
    /// one per distinct implicit substep size). Stepping repeatedly at
    /// the same `dt` — or at any recently seen `dt` — must not grow
    /// this: factors are cached per substep size with LRU eviction, so
    /// only a driver cycling through more than `MAX_CACHED_FACTORS` (8)
    /// distinct step sizes ever re-factorizes. With a [`FactorShare`]
    /// attached, a factor adopted ready-made counts exactly like one
    /// computed locally, so the number is identical with or without
    /// sharing (and independent of which sibling cell computed first);
    /// the share's own [`FactorShare::factorizations`] counts actual
    /// computations.
    #[must_use]
    pub fn factorization_count(&self) -> usize {
        self.implicit.factor_count
    }

    /// Symbolic analyses (fill-reducing ordering + elimination tree +
    /// fill counts) ensured so far. The pattern of `α·C + G` is
    /// α-independent and matches `G`'s, so however many step sizes and
    /// steady solves a driver mixes, this stays at **1**: only numeric
    /// phases repeat. Same ensured semantics under sharing as
    /// [`factorization_count`](Self::factorization_count).
    #[must_use]
    pub fn symbolic_analysis_count(&self) -> usize {
        self.implicit.symbolic_count
    }

    /// The underlying RC network (for inspection and metrics).
    #[must_use]
    pub fn network(&self) -> &RcNetwork {
        &self.network
    }

    /// Number of floorplan blocks the model exposes temperatures for.
    #[must_use]
    pub fn block_count(&self) -> usize {
        self.network.block_count()
    }

    /// The explicit-integration substep the RK4 path uses internally, in
    /// seconds; [`step`](Self::step) transparently subdivides larger
    /// steps. (The implicit default is unconditionally stable and uses
    /// substeps of up to 100 ms instead.)
    #[must_use]
    pub fn stable_dt(&self) -> f64 {
        self.stable_dt
    }

    /// Sets the per-block power dissipation (W) applied from now on.
    ///
    /// # Panics
    ///
    /// Panics if `powers.len() != block_count()` or any entry is negative
    /// or not finite.
    pub fn set_block_powers(&mut self, powers: &[f64]) {
        self.network.node_power_into(powers, &mut self.node_power);
        self.block_power.copy_from_slice(powers);
    }

    /// The most recently applied per-block powers (W).
    #[must_use]
    pub fn block_powers(&self) -> &[f64] {
        &self.block_power
    }

    /// Advances the transient solution by `dt` seconds.
    ///
    /// Under the default [`Integrator::ImplicitCn`], the interval is
    /// subdivided into equal TR-BDF2 substeps of at most 35 ms (a 100 ms
    /// paper tick is three substeps, i.e. six triangular solves against
    /// one cached factorization of `(2+√2)/h·C + G` — see
    /// `MAX_IMPLICIT_STEP_S` for the accuracy/cost trade-off). The
    /// factorization for each distinct substep size is computed once and
    /// reused with LRU eviction; stepping again at the same (or any
    /// recently seen) `dt` never re-factorizes. Under
    /// [`Integrator::ExplicitRk4`], classic RK4 with stability-bounded
    /// substeps integrates the interval.
    ///
    /// # Panics
    ///
    /// Panics if `dt` is not strictly positive and finite.
    pub fn step(&mut self, dt: f64) {
        assert!(dt.is_finite() && dt > 0.0, "dt must be positive, got {dt}");
        match self.integrator {
            Integrator::ExplicitRk4 => {
                let substeps = (dt / self.stable_dt).ceil().max(1.0) as usize;
                let h = dt / substeps as f64;
                for _ in 0..substeps {
                    self.rk4_substep(h);
                }
            }
            Integrator::ImplicitCn => {
                let substeps = (dt / MAX_IMPLICIT_STEP_S).ceil().max(1.0) as usize;
                let h = dt / substeps as f64;
                let cache = self.ensure_step_factor(h);
                for _ in 0..substeps {
                    self.trbdf2_substep(h, cache);
                }
            }
        }
    }

    /// Returns the cache slot holding the factorization of
    /// `(TRBDF2_SHIFT/h)·C + G`, factoring only on a miss.
    fn ensure_step_factor(&mut self, h: f64) -> usize {
        let h_bits = h.to_bits();
        if let Some(i) = self.implicit.caches.iter().position(|c| c.h_bits == h_bits) {
            // Move the hit to the back: eviction takes the front, so the
            // cache is LRU and cycling through a handful of step sizes
            // keeps the hot factors resident.
            let hit = self.implicit.caches.remove(i);
            self.implicit.caches.push(hit);
            return self.implicit.caches.len() - 1;
        }
        let system = self.network.shifted_system(TRBDF2_SHIFT / h);
        let factored = self.implicit.factor_shared(
            &system,
            "implicit thermal system",
            FactorKey::Step(h_bits),
        );
        if self.implicit.caches.len() >= MAX_CACHED_FACTORS {
            self.implicit.caches.remove(0);
        }
        self.implicit.caches.push(StepCache { h_bits, factor: factored });
        self.implicit.caches.len() - 1
    }

    /// One TR-BDF2 step of size `h` against the cached factor in `slot`.
    ///
    /// Stage 1 (trapezoidal over γh): `M·T_γ = (α·C − G)·T_n + 2b`;
    /// stage 2 (BDF2): `M·T_{n+1} = α·C·(c1·T_γ − c2·T_n) + b`, where
    /// `M = α·C + G`, `α = (2+√2)/h` and `b = P + g_amb·T_amb`. With
    /// γ = 2−√2 both stages share `M`, so one factorization serves the
    /// whole step.
    fn trbdf2_substep(&mut self, h: f64, slot: usize) {
        let n = self.temps_k.len();
        let alpha = TRBDF2_SHIFT / h;
        let amb = self.network.ambient_k();
        let cap = self.network.capacitance();
        let g_amb = self.network.ambient_conductance();
        let ImplicitState { caches, rhs, stage, solve_scratch, .. } = &mut self.implicit;
        let factored = &caches[slot].factor;
        rhs.resize(n, 0.0);
        stage.resize(n, 0.0);

        // Stage 1 right-hand side: α·C·T − G·T + 2b.
        let gt = &mut self.scratch.gt;
        self.network.conductance().mul_into(&self.temps_k, gt);
        for i in 0..n {
            let b = self.node_power[i] + g_amb[i] * amb;
            rhs[i] = alpha * cap[i] * self.temps_k[i] - gt[i] + 2.0 * b;
        }
        factored.solve_into(rhs, solve_scratch, stage);

        // Stage 2 right-hand side: α·C·(c1·T_γ − c2·T_n) + b.
        for i in 0..n {
            let b = self.node_power[i] + g_amb[i] * amb;
            rhs[i] = alpha * cap[i] * (TRBDF2_C1 * stage[i] - TRBDF2_C2 * self.temps_k[i]) + b;
        }
        factored.solve_into(rhs, solve_scratch, &mut self.temps_k);
    }

    fn rk4_substep(&mut self, h: f64) {
        let n = self.temps_k.len();
        // k1 = f(T)
        Self::deriv(
            &self.network,
            &self.node_power,
            &self.temps_k,
            &mut self.scratch.gt,
            &mut self.scratch.k1,
        );
        // k2 = f(T + h/2 k1)
        for i in 0..n {
            self.scratch.tmp[i] = self.temps_k[i] + 0.5 * h * self.scratch.k1[i];
        }
        Self::deriv(
            &self.network,
            &self.node_power,
            &self.scratch.tmp,
            &mut self.scratch.gt,
            &mut self.scratch.k2,
        );
        // k3 = f(T + h/2 k2)
        for i in 0..n {
            self.scratch.tmp[i] = self.temps_k[i] + 0.5 * h * self.scratch.k2[i];
        }
        Self::deriv(
            &self.network,
            &self.node_power,
            &self.scratch.tmp,
            &mut self.scratch.gt,
            &mut self.scratch.k3,
        );
        // k4 = f(T + h k3)
        for i in 0..n {
            self.scratch.tmp[i] = self.temps_k[i] + h * self.scratch.k3[i];
        }
        Self::deriv(
            &self.network,
            &self.node_power,
            &self.scratch.tmp,
            &mut self.scratch.gt,
            &mut self.scratch.k4,
        );
        for i in 0..n {
            self.temps_k[i] += h / 6.0
                * (self.scratch.k1[i]
                    + 2.0 * self.scratch.k2[i]
                    + 2.0 * self.scratch.k3[i]
                    + self.scratch.k4[i]);
        }
    }

    /// `out = C⁻¹ · (P + g_amb·T_amb − G·T)`.
    fn deriv(net: &RcNetwork, power: &[f64], temps: &[f64], gt: &mut [f64], out: &mut [f64]) {
        net.conductance().mul_into(temps, gt);
        let amb = net.ambient_k();
        let g_amb = net.ambient_conductance();
        let cap = net.capacitance();
        for i in 0..out.len() {
            out[i] = (power[i] + g_amb[i] * amb - gt[i]) / cap[i];
        }
    }

    /// Solves for the steady-state temperatures under the given per-block
    /// powers and **sets the model state** to that solution (the paper
    /// initializes HotSpot with steady-state values).
    ///
    /// The solve is direct: the conductance matrix is LDLᵀ-factored once
    /// (lazily, cached for the model's lifetime) and every subsequent
    /// call is two triangular sweeps — there is no iterative solver left
    /// to fail to converge.
    ///
    /// Returns the per-block steady-state temperatures in °C.
    ///
    /// # Panics
    ///
    /// Panics if `powers` is malformed (see
    /// [`set_block_powers`](Self::set_block_powers)) or if the
    /// conductance matrix is not positive definite (indicates a
    /// non-physical configuration).
    pub fn initialize_steady_state(&mut self, powers: &[f64]) -> Vec<f64> {
        self.set_block_powers(powers);
        let amb = self.network.ambient_k();
        if self.implicit.steady.is_none() {
            // `G` shares the shifted systems' pattern (full structural
            // diagonal), so this also reuses the one symbolic analysis.
            let factored = self.implicit.factor_shared(
                self.network.conductance(),
                "conductance matrix",
                FactorKey::Steady,
            );
            self.implicit.steady = Some(factored);
        }
        let ImplicitState { steady, rhs, solve_scratch, .. } = &mut self.implicit;
        rhs.clear();
        rhs.extend(
            self.node_power
                .iter()
                .zip(self.network.ambient_conductance())
                .map(|(&p, &g)| p + g * amb),
        );
        steady.as_ref().expect("factored above").solve_into(rhs, solve_scratch, &mut self.temps_k);
        self.block_temperatures_c()
    }

    /// Per-block temperatures in °C (area-weighted over the block's
    /// cells), indexed like [`Stack3d::sites`].
    #[must_use]
    pub fn block_temperatures_c(&self) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.network.block_count());
        self.block_temperatures_c_into(&mut out);
        out
    }

    /// In-place variant of
    /// [`block_temperatures_c`](Self::block_temperatures_c): clears and
    /// refills `out`, so a tick loop can reuse one buffer with zero
    /// per-tick allocation.
    pub fn block_temperatures_c_into(&self, out: &mut Vec<f64>) {
        out.clear();
        out.extend(
            (0..self.network.block_count()).map(|site| {
                celsius_from_kelvin(self.network.block_temperature(site, &self.temps_k))
            }),
        );
    }

    /// Temperature of a single block in °C.
    ///
    /// # Panics
    ///
    /// Panics if `site` is out of range.
    #[must_use]
    pub fn block_temperature_c(&self, site: usize) -> f64 {
        celsius_from_kelvin(self.network.block_temperature(site, &self.temps_k))
    }

    /// Heat-sink temperature in °C.
    #[must_use]
    pub fn sink_temperature_c(&self) -> f64 {
        celsius_from_kelvin(self.temps_k[self.network.sink_node()])
    }

    /// Heat-spreader temperature in °C.
    #[must_use]
    pub fn spreader_temperature_c(&self) -> f64 {
        celsius_from_kelvin(self.temps_k[self.network.spreader_node()])
    }

    /// Raw node temperatures in kelvin (cells first, then spreader, sink).
    #[must_use]
    pub fn node_temperatures_k(&self) -> &[f64] {
        &self.temps_k
    }

    /// Overrides the state to a uniform temperature in °C (useful for
    /// tests and for restarting experiments).
    pub fn reset_uniform(&mut self, celsius: f64) {
        let k = kelvin_from_celsius(celsius);
        self.temps_k.fill(k);
    }

    /// Total power currently injected, in W.
    #[must_use]
    pub fn total_power(&self) -> f64 {
        self.block_power.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use therm3d_floorplan::Experiment;

    fn small_model(exp: Experiment) -> (Stack3d, ThermalModel) {
        let stack = exp.stack();
        let cfg = ThermalConfig::paper_default().with_grid(4, 4);
        let model = ThermalModel::new(&stack, cfg);
        (stack, model)
    }

    fn core_power_vector(stack: &Stack3d, watts: f64) -> Vec<f64> {
        let mut p = vec![0.0; stack.num_blocks()];
        for c in stack.core_ids() {
            p[stack.core_block_index(c)] = watts;
        }
        p
    }

    #[test]
    fn starts_at_ambient() {
        let (_, model) = small_model(Experiment::Exp1);
        for t in model.block_temperatures_c() {
            assert!((t - 45.0).abs() < 1e-9);
        }
    }

    #[test]
    fn steady_state_energy_balance() {
        // In steady state, all injected power leaves through the sink:
        // (T_sink − T_amb) / R_conv = P_total.
        let (stack, mut model) = small_model(Experiment::Exp1);
        let p = core_power_vector(&stack, 3.0);
        model.initialize_steady_state(&p);
        let p_total: f64 = p.iter().sum();
        let flux = (model.sink_temperature_c() - 45.0) / 0.1;
        assert!(
            (flux - p_total).abs() < 1e-6 * p_total.max(1.0),
            "flux {flux} vs injected {p_total}"
        );
    }

    #[test]
    fn transient_relaxes_to_steady_state() {
        let (stack, mut model) = small_model(Experiment::Exp1);
        let p = core_power_vector(&stack, 3.0);
        let steady = {
            let mut m2 = model.clone();
            m2.initialize_steady_state(&p)
        };
        model.set_block_powers(&p);
        // March the transient long enough for the die (not the 140 J/K
        // sink) to settle: compare die temperature *rise above the sink*.
        for _ in 0..600 {
            model.step(0.1);
        }
        let now = model.block_temperatures_c();
        let sink_now = model.sink_temperature_c();
        // Steady sink temperature from energy balance.
        let sink_steady = 45.0 + 0.1 * p.iter().sum::<f64>();
        for (i, (a, b)) in now.iter().zip(&steady).enumerate() {
            let rise_now = a - sink_now;
            let rise_steady = b - sink_steady;
            assert!(
                (rise_now - rise_steady).abs() < 0.5,
                "block {i}: transient rise {rise_now:.3} vs steady rise {rise_steady:.3}"
            );
        }
    }

    #[test]
    fn hotter_blocks_are_the_powered_ones() {
        let (stack, mut model) = small_model(Experiment::Exp1);
        let mut p = vec![0.0; stack.num_blocks()];
        let hot_core = stack.core_block_index(therm3d_floorplan::CoreId(0));
        p[hot_core] = 5.0;
        model.initialize_steady_state(&p);
        let temps = model.block_temperatures_c();
        let max_site =
            (0..temps.len()).max_by(|&a, &b| temps[a].total_cmp(&temps[b])).expect("non-empty");
        assert_eq!(max_site, hot_core, "the powered core must be the hottest block");
    }

    #[test]
    fn upper_layer_cores_run_hotter_exp2() {
        // Same power on every core: cores on the layer far from the sink
        // must end up hotter — the 3D asymmetry central to the paper.
        let (stack, mut model) = small_model(Experiment::Exp2);
        let p = core_power_vector(&stack, 3.0);
        model.initialize_steady_state(&p);
        let temps = model.block_temperatures_c();
        let mut layer0 = Vec::new();
        let mut layer1 = Vec::new();
        for c in stack.core_ids() {
            let site = stack.core_block_index(c);
            if stack.core_layer(c) == 0 {
                layer0.push(temps[site]);
            } else {
                layer1.push(temps[site]);
            }
        }
        let avg0: f64 = layer0.iter().sum::<f64>() / layer0.len() as f64;
        let avg1: f64 = layer1.iter().sum::<f64>() / layer1.len() as f64;
        assert!(avg1 > avg0 + 0.1, "upper layer {avg1:.2} vs sink-side layer {avg0:.2}");
    }

    #[test]
    fn four_layers_hotter_than_two() {
        // EXP-3 doubles the stacked power over the same footprint; peak
        // temperature must exceed EXP-1's.
        let (s1, mut m1) = small_model(Experiment::Exp1);
        let (s3, mut m3) = small_model(Experiment::Exp3);
        m1.initialize_steady_state(&core_power_vector(&s1, 3.0));
        m3.initialize_steady_state(&core_power_vector(&s3, 3.0));
        let max1 = m1.block_temperatures_c().into_iter().fold(f64::MIN, f64::max);
        let max3 = m3.block_temperatures_c().into_iter().fold(f64::MIN, f64::max);
        assert!(max3 > max1 + 1.0, "EXP-3 peak {max3:.2} vs EXP-1 peak {max1:.2}");
    }

    #[test]
    fn step_subdivides_large_dt() {
        let (stack, mut model) = small_model(Experiment::Exp1);
        model.set_block_powers(&core_power_vector(&stack, 3.0));
        let coarse = {
            let mut m = model.clone();
            m.step(0.5);
            m.block_temperatures_c()
        };
        let fine = {
            let mut m = model.clone();
            for _ in 0..50 {
                m.step(0.01);
            }
            m.block_temperatures_c()
        };
        for (a, b) in coarse.iter().zip(&fine) {
            assert!((a - b).abs() < 0.05, "coarse {a} vs fine {b}");
        }
    }

    #[test]
    fn temperatures_never_drop_below_ambient() {
        let (stack, mut model) = small_model(Experiment::Exp4);
        model.set_block_powers(&core_power_vector(&stack, 2.0));
        for _ in 0..100 {
            model.step(0.1);
            for t in model.block_temperatures_c() {
                assert!(t >= 45.0 - 1e-6, "temperature {t} below ambient");
            }
        }
    }

    #[test]
    fn reset_uniform_sets_state() {
        let (_, mut model) = small_model(Experiment::Exp1);
        model.reset_uniform(80.0);
        for t in model.block_temperatures_c() {
            assert!((t - 80.0).abs() < 1e-9);
        }
    }

    #[test]
    #[should_panic(expected = "dt must be positive")]
    fn zero_dt_rejected() {
        let (_, mut model) = small_model(Experiment::Exp1);
        model.step(0.0);
    }

    #[test]
    fn symbolic_analysis_runs_once_across_step_sizes_and_steady() {
        let (stack, mut model) = small_model(Experiment::Exp3);
        let p = core_power_vector(&stack, 2.0);
        model.initialize_steady_state(&p);
        for dt in [0.1, 0.05, 0.07] {
            model.step(dt); // substeps of ~33.3, 25 and 35 ms — three distinct h
        }
        assert_eq!(
            model.factorization_count(),
            4,
            "steady + one numeric factorization per distinct substep size"
        );
        assert_eq!(
            model.symbolic_analysis_count(),
            1,
            "the alpha-independent pattern must be analyzed exactly once"
        );
        // Repeating known step sizes grows neither counter.
        model.step(0.1);
        model.initialize_steady_state(&p);
        assert_eq!(model.factorization_count(), 4);
        assert_eq!(model.symbolic_analysis_count(), 1);
    }

    #[test]
    fn factor_share_computes_once_and_adoption_is_bit_identical() {
        let stack = Experiment::Exp3.stack();
        let cfg = ThermalConfig::paper_default().with_grid(4, 4);
        let p = {
            let mut p = vec![0.0; stack.num_blocks()];
            for c in stack.core_ids() {
                p[stack.core_block_index(c)] = 2.0;
            }
            p
        };
        // Reference: an unshared model.
        let mut lone = ThermalModel::new(&stack, cfg.clone());
        lone.initialize_steady_state(&p);
        lone.step(0.1);
        lone.step(0.05);

        let share = crate::share::FactorShare::new();
        let mut first = ThermalModel::new(&stack, cfg.clone());
        first.set_factor_share(share.clone());
        let mut second = ThermalModel::new(&stack, cfg);
        second.set_factor_share(share.clone());
        for m in [&mut first, &mut second] {
            m.initialize_steady_state(&p);
            m.step(0.1);
            m.step(0.05);
        }

        // One analysis and one factor per key across BOTH models …
        assert_eq!(share.symbolic_analyses(), 1);
        assert_eq!(share.factorizations(), 3, "steady + two distinct substep sizes");
        assert_eq!(share.factors_cached(), 3);
        // … the second model adopted all three.
        assert_eq!(share.hits(), 3);
        // Ensured per-model counters are identical to the unshared ones.
        for m in [&first, &second] {
            assert_eq!(m.factorization_count(), lone.factorization_count());
            assert_eq!(m.symbolic_analysis_count(), lone.symbolic_analysis_count());
        }
        // Adoption changes nothing numerically: bit-identical state.
        let reference = lone.node_temperatures_k();
        for m in [&first, &second] {
            for (a, b) in m.node_temperatures_k().iter().zip(reference) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn total_power_tracks_assignment() {
        let (stack, mut model) = small_model(Experiment::Exp2);
        let p = core_power_vector(&stack, 1.5);
        model.set_block_powers(&p);
        assert!((model.total_power() - 12.0).abs() < 1e-9);
    }
}
