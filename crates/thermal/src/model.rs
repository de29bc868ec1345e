//! The transient/steady-state thermal model: the public face of this
//! crate.

use std::f64::consts::SQRT_2;
use std::sync::Arc;

use therm3d_floorplan::{Experiment, Stack3d, StackOrder};
use therm3d_telemetry::Span;

use crate::config::{Integrator, ThermalConfig};
use crate::modal::{self, Eigenbasis};
use crate::network::RcNetwork;
use crate::share::{FactorShare, ShareState};
use crate::sparse::factor::{analyze, analyze_with_perm, LdlFactor, Symbolic};
use crate::sparse::CsrMatrix;
use crate::units::{celsius_from_kelvin, kelvin_from_celsius};

/// Safety factor applied to the explicit-RK4 stability limit.
const RK4_SAFETY: f64 = 0.9;
/// RK4 real-axis stability interval.
const RK4_STABILITY: f64 = 2.78;
/// Largest implicit substep, seconds: a 100 ms paper tick is three
/// TR-BDF2 substeps. Empirically the sweet spot on the paper's stacks —
/// trajectories stay within ~0.01 °C of the RK4 reference under
/// worst-case per-tick power swings, while a sparse tick (two
/// triangular solves per substep) remains ≥15× cheaper than RK4's
/// ~70–80 stability-bounded substeps; one substep per tick would halve
/// the sparse tick but drifts by ~0.8 °C on mid-frequency (tens-of-ms)
/// thermal modes. Networks of at most `MODAL_MAX_DIM` nodes step in
/// their eigenbasis, where the substeps of a tick collapse into one
/// decay factor per mode, so there the substep count costs nothing per
/// tick.
const MAX_IMPLICIT_STEP_S: f64 = 0.035;
/// Network size at which the symbolic analysis switches from the exact
/// minimum-degree ordering (quadratic in the node count) to the
/// geometric nested-dissection order (near-linear on the grid).
const ND_MIN_DIM: usize = 2048;
/// Largest network whose implicit tick runs in its eigenbasis; larger
/// networks run the sparse TR-BDF2 substeps every tick. At 130 nodes
/// (the paper's 8×8 grids) a modal tick would still take 0.9–1.0 µs
/// against 12–13 µs for the substeps (2 vCPU, release), and its
/// n·(blocks + 3) stored doubles stay near 2.5 K, but the dense
/// decomposition on the first step grows as n³: 0.07–0.14 ms at 34
/// nodes, 0.2–0.6 ms at 66, about 1 ms at 130 and 5.5–6 ms at 258.
const MODAL_MAX_DIM: usize = 128;
/// Cap on simultaneously cached step factors or per-`dt` modal gains,
/// each evicted LRU (each distinct step size needs one; real drivers
/// use one or two).
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
/// `ThermalModel` holds an RC network — the cell grid [`new`](Self::new)
/// builds from a [`Stack3d`] and a [`ThermalConfig`], the one a
/// [`FactorShare`] holds ([`from_share`](Self::from_share)), or any
/// network handed to [`from_network`](Self::from_network), such as the
/// block network of [`RcNetwork::build_blocks`] — and owns the current
/// temperature state and the current per-block power assignment. Both
/// kinds of network step, solve and read back through the same code.
/// Typical use alternates
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
    /// The RC network, adopted from the share when one is attached.
    network: Arc<RcNetwork>,
    /// Node temperatures in kelvin; stale while `modes` holds the
    /// state.
    temps_k: Vec<f64>,
    /// The drive `b = P + g_amb·T_amb` of the current powers, per node
    /// in W: the right-hand side RK4, the sparse substeps and the
    /// steady solve read. A modal step does not read it, so on networks
    /// that step modally only the steady solve fills it.
    drive: Vec<f64>,
    /// Current per-block power in W.
    block_power: Vec<f64>,
    /// Fixed stable substep for explicit integration, seconds.
    stable_dt: f64,
    /// The transient scheme [`step`](Self::step) uses.
    integrator: Integrator,
    /// Scratch buffers for RK4 (empty under the implicit integrator).
    scratch: Rk4Scratch,
    /// Cached factorizations, eigenbasis and buffers for the implicit
    /// path.
    implicit: ImplicitState,
    /// The state of a network stepped in its eigenbasis.
    modes: ModalState,
}

/// The state of a network stepped in its eigenbasis. Before its first
/// step a model holds node temperatures, and each of them is the
/// steady state under some injection `Wᵀ·p₀ + q·e_sink` (`new`:
/// nothing; `initialize_steady_state`: the block powers; `reset_uniform`:
/// the current the sink passes to ambient at that temperature), so the
/// first step converts it to amplitudes without the eigenvectors.
#[derive(Debug, Clone)]
struct ModalState {
    /// Whether `amplitudes` rather than the node temperatures hold the
    /// state: from the first modal step until the next steady or
    /// uniform reset.
    active: bool,
    /// The modal amplitudes `x`.
    amplitudes: Vec<f64>,
    /// Block temperature rise over ambient, `Bᵀ·x`, after the last
    /// step.
    rise: Vec<f64>,
    /// Block powers `p₀` of the steady state the node temperatures hold.
    origin_powers: Vec<f64>,
    /// Sink injection `q` of that steady state, W.
    origin_sink_w: f64,
}

/// Which shared-factor slot a factorization request targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FactorKey {
    /// The conductance matrix `G` (steady-state solves).
    Steady,
    /// `(TRBDF2_SHIFT/h)·C + G` for the substep with these `h` bits.
    Step(u64),
}

/// Solver products keyed by the exact bit pattern of a step size, most
/// recently used last; past `MAX_CACHED_FACTORS` entries the least
/// recently used is evicted.
#[derive(Debug, Clone)]
struct Lru<T>(Vec<(u64, T)>);

impl<T> Default for Lru<T> {
    fn default() -> Self {
        Self(Vec::new())
    }
}

impl<T> Lru<T> {
    /// The slot of `key`, moved to the back so that cycling through a
    /// handful of step sizes keeps them all resident.
    fn touch(&mut self, key: u64) -> Option<usize> {
        let i = self.0.iter().position(|(k, _)| *k == key)?;
        let hit = self.0.remove(i);
        self.0.push(hit);
        Some(self.0.len() - 1)
    }

    /// Inserts `value` as the most recent entry and returns its slot.
    fn insert(&mut self, key: u64, value: T) -> usize {
        if self.0.len() >= MAX_CACHED_FACTORS {
            self.0.remove(0);
        }
        self.0.push((key, value));
        self.0.len() - 1
    }

    fn get(&self, slot: usize) -> &T {
        &self.0[slot].1
    }
}

/// Lazily built direct-solver state: factorization caches, the
/// eigenbasis and its per-`dt` gains, plus reusable dense work vectors
/// (the per-tick hot path allocates nothing).
#[derive(Debug, Clone, Default)]
struct ImplicitState {
    /// Factorizations of `(TRBDF2_SHIFT/h)·C + G` by substep size `h`
    /// (networks above `MODAL_MAX_DIM` nodes).
    steps: Lru<Arc<LdlFactor>>,
    /// The eigenbasis of a network of at most `MODAL_MAX_DIM` nodes,
    /// one for every `dt`.
    basis: Option<Arc<Eigenbasis>>,
    /// Per-mode decay and gain of a tick, by tick length `dt`.
    gains: Lru<Vec<(f64, f64)>>,
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
    /// Factorizations *ensured* over the model's lifetime — computed
    /// locally or adopted ready-made from the attached share; the count
    /// is identical either way, so it is scheduling-independent (tests
    /// assert cache reuse through [`ThermalModel::factorization_count`]).
    /// The eigenbasis counts as one.
    factor_count: usize,
    /// Symbolic analyses ensured (same semantics; see
    /// [`ThermalModel::symbolic_analysis_count`]).
    symbolic_count: usize,
    /// Work vectors of the sparse substeps and of every sparse solve.
    work: SubstepWork,
}

impl ImplicitState {
    /// Runs the symbolic analysis for `a`, a system of `network`: in
    /// the network's nested-dissection order from `ND_MIN_DIM` nodes on,
    /// where the exact minimum-degree search is intractable.
    fn analyze_for(a: &CsrMatrix, network: &RcNetwork) -> Symbolic {
        let _span = Span::enter("thermal.symbolic_analyze_us");
        let perm = if a.dim() >= ND_MIN_DIM { network.nested_dissection_perm() } else { None };
        match perm {
            Some(p) if p.len() == a.dim() => analyze_with_perm(a, p),
            _ => analyze(a),
        }
    }

    /// Makes `self.symbolic` an analysis of `a`'s pattern: keeps a
    /// compatible local one, else adopts the share's (`state`) or
    /// computes one — into the share when one is attached. Falls back
    /// to a fresh analysis if `a`'s pattern size ever diverges from the
    /// analyzed one (cannot happen for one RC network's systems, but
    /// corruption-proof beats a panic deep inside the solver).
    fn ensure_symbolic(
        &mut self,
        a: &CsrMatrix,
        network: &RcNetwork,
        state: Option<&mut ShareState>,
    ) {
        let fits = |s: &Option<Arc<Symbolic>>| {
            s.as_ref().is_some_and(|s| s.dim() == a.dim() && s.pattern_nnz() == a.nnz())
        };
        if fits(&self.symbolic) {
            return;
        }
        self.symbolic = Some(match state {
            None => Arc::new(Self::analyze_for(a, network)),
            Some(state) => {
                if !fits(&state.symbolic) {
                    state.symbolic = Some(Arc::new(Self::analyze_for(a, network)));
                    state.symbolic_analyses += 1;
                }
                Arc::clone(state.symbolic.as_ref().expect("ensured above"))
            }
        });
        // Ensured semantics: adopting counts exactly like computing, so
        // per-model counters stay scheduling-independent.
        self.symbolic_count += 1;
    }

    /// Runs the numeric phase of `a` against the ensured analysis.
    fn numeric_phase(&self, a: &CsrMatrix, what: &str) -> LdlFactor {
        let _span = Span::enter("thermal.factor_numeric_us");
        let symbolic = self.symbolic.as_ref().expect("analysis ensured before the numeric phase");
        symbolic.factor_numeric(a).unwrap_or_else(|e| panic!("{what} must be SPD: {e}"))
    }

    /// Ensures one solver product: when a [`FactorShare`] is attached,
    /// adopts it from the share (`lookup`) or makes it exactly once
    /// *under the share lock* (`make`, filed by `store`), so a sibling
    /// cell waits and adopts instead of making it again.
    fn ensure_shared<T>(
        &mut self,
        lookup: impl FnOnce(&ShareState) -> Option<Arc<T>>,
        make: impl FnOnce(&Self) -> T,
        store: impl FnOnce(&mut ShareState, &Arc<T>),
    ) -> Arc<T> {
        self.factor_count += 1;
        let Some(share) = self.share.clone() else {
            return Arc::new(make(self));
        };
        let mut state = share.lock();
        if let Some(found) = lookup(&state) {
            state.hits += 1;
            return found;
        }
        let made = Arc::new(make(self));
        store(&mut state, &made);
        state.factorizations += 1;
        made
    }

    /// Ensures the factorization of `a`, a system of `network`, for
    /// `key`, reusing (or lazily computing) the shared symbolic analysis.
    fn factor_shared(
        &mut self,
        a: &CsrMatrix,
        network: &RcNetwork,
        what: &str,
        key: FactorKey,
    ) -> Arc<LdlFactor> {
        // LDLᵀ without pivoting assumes symmetry; an asymmetric system
        // here means the RC assembly upstream is broken.
        debug_assert!(a.is_symmetric(1e-9), "{what} must be symmetric for LDL^T");
        let share = self.share.clone();
        let mut state = share.as_ref().map(FactorShare::lock);
        self.ensure_symbolic(a, network, state.as_deref_mut());
        drop(state);
        self.ensure_shared(
            |state| match key {
                FactorKey::Steady => state.steady.clone(),
                FactorKey::Step(h) => {
                    state.steps.iter().find(|(hb, _)| *hb == h).map(|(_, f)| Arc::clone(f))
                }
            },
            |this| this.numeric_phase(a, what),
            |state, f| match key {
                FactorKey::Steady => state.steady = Some(Arc::clone(f)),
                FactorKey::Step(h) => state.steps.push((h, Arc::clone(f))),
            },
        )
    }
}

/// Work vectors of one TR-BDF2 substep; `solve` also serves every other
/// sparse solve.
#[derive(Debug, Clone, Default)]
struct SubstepWork {
    gt: Vec<f64>,
    rhs: Vec<f64>,
    stage: Vec<f64>,
    solve: Vec<f64>,
}

/// One TR-BDF2 step of size `h` of the temperatures `t` under the drive
/// `b`, against `factor` of `M = α·C + G`.
///
/// Stage 1 (trapezoidal over γh): `M·T_γ = (α·C − G)·T_n + 2b`;
/// stage 2 (BDF2): `M·T_{n+1} = α·C·(c1·T_γ − c2·T_n) + b`, where
/// `α = (2+√2)/h` and `b = P + g_amb·T_amb`. With γ = 2−√2 both stages
/// share `M`, so one factorization serves the whole step.
fn trbdf2_substep(
    network: &RcNetwork,
    factor: &LdlFactor,
    h: f64,
    drive: &[f64],
    t: &mut [f64],
    work: &mut SubstepWork,
) {
    let n = t.len();
    let alpha = TRBDF2_SHIFT / h;
    let cap = network.capacitance();
    let SubstepWork { gt, rhs, stage, solve } = work;
    gt.resize(n, 0.0);
    rhs.resize(n, 0.0);
    stage.resize(n, 0.0);

    // Stage 1 right-hand side: α·C·T − G·T + 2b.
    network.conductance().mul_into(t, gt);
    for i in 0..n {
        rhs[i] = alpha * cap[i] * t[i] - gt[i] + 2.0 * drive[i];
    }
    factor.solve_into(rhs, solve, stage);

    // Stage 2 right-hand side: α·C·(c1·T_γ − c2·T_n) + b.
    for i in 0..n {
        rhs[i] = alpha * cap[i] * (TRBDF2_C1 * stage[i] - TRBDF2_C2 * t[i]) + drive[i];
    }
    factor.solve_into(rhs, solve, t);
}

/// Scratch buffers for RK4.
#[derive(Debug, Clone, Default)]
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
    /// Builds the model over the grid network of `stack` (see
    /// [`RcNetwork::build`]) and initializes every node at the ambient
    /// temperature (the zero-power steady state).
    ///
    /// # Panics
    ///
    /// Panics if `config` is invalid (see [`ThermalConfig::validate`]).
    #[must_use]
    pub fn new(stack: &Stack3d, config: ThermalConfig) -> Self {
        Self::from_network(RcNetwork::build(stack, &config), config.integrator)
    }

    /// Builds the model over an assembled `network` — a grid network or
    /// a block network ([`RcNetwork::build_blocks`]) — stepping with
    /// `integrator`, and initializes every node at the ambient
    /// temperature (the zero-power steady state).
    #[must_use]
    pub fn from_network(network: RcNetwork, integrator: Integrator) -> Self {
        Self::with_network(Arc::new(network), integrator, None)
    }

    /// The model of `experiment`'s stack in `order` under `config`, as
    /// [`new`](Self::new) builds it, but over the network `share` holds
    /// (see [`FactorShare::model`]): the symbolic analysis, the factors
    /// and the eigenbasis this model needs are adopted from the share
    /// when present and computed into it (exactly once, under the share
    /// lock) when not. Results are bit-identical to an unshared model's.
    ///
    /// # Panics
    ///
    /// Panics if `share` holds another model, or if `config` is invalid
    /// (see [`ThermalConfig::validate`]).
    #[must_use]
    pub fn from_share(
        share: FactorShare,
        experiment: Experiment,
        order: StackOrder,
        config: &ThermalConfig,
    ) -> Self {
        let (_, network) = share.model(experiment, order, config);
        Self::with_network(network, config.integrator, Some(share))
    }

    fn with_network(
        network: Arc<RcNetwork>,
        integrator: Integrator,
        share: Option<FactorShare>,
    ) -> Self {
        let (n, blocks) = (network.node_count(), network.block_count());
        let stable_dt = RK4_SAFETY * RK4_STABILITY / network.stiffness_bound();
        let implicit = ImplicitState { share, ..ImplicitState::default() };
        let scratch = match integrator {
            Integrator::ExplicitRk4 => Rk4Scratch::new(n),
            Integrator::ImplicitCn => Rk4Scratch::default(),
        };
        let mut model = Self {
            temps_k: vec![network.ambient_k(); n],
            drive: vec![0.0; n],
            block_power: vec![0.0; blocks],
            scratch,
            stable_dt,
            integrator,
            implicit,
            modes: ModalState {
                active: false,
                amplitudes: Vec::with_capacity(n),
                rise: vec![0.0; blocks],
                origin_powers: vec![0.0; blocks],
                origin_sink_w: 0.0,
            },
            network,
        };
        model.fill_drive(&vec![0.0; blocks]);
        model
    }

    /// The transient integration scheme this model steps with.
    #[must_use]
    pub fn integrator(&self) -> Integrator {
        self.integrator
    }

    /// Numeric sparse factorizations *ensured* so far: the steady-state
    /// factor plus one per distinct implicit substep size, or, on
    /// networks of at most 128 nodes, one eigenbasis that serves every
    /// `dt`. Stepping repeatedly at the same `dt` — or at any recently
    /// seen `dt` — must not grow this: factors are cached with LRU
    /// eviction, so only a driver cycling through more than
    /// `MAX_CACHED_FACTORS` (8) distinct step sizes ever re-factorizes.
    /// With a [`FactorShare`] attached, a factor or eigenbasis adopted
    /// ready-made counts exactly like one computed locally, so the
    /// number is identical with or without sharing (and independent of
    /// which sibling cell computed first); the share's own
    /// [`FactorShare::factorizations`] counts actual computations.
    #[must_use]
    pub fn factorization_count(&self) -> usize {
        self.implicit.factor_count
    }

    /// Symbolic analyses (fill-reducing ordering + elimination tree +
    /// fill counts) ensured so far. The pattern of `α·C + G` is
    /// α-independent and matches `G`'s, so however many step sizes and
    /// steady solves a driver mixes, this stays at **1**: only numeric
    /// phases repeat. The eigenbasis needs none, so a small network
    /// that never solves for a steady state keeps this at 0. Same
    /// ensured semantics under sharing as
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

    /// Whether [`step`](Self::step) runs in the eigenbasis.
    fn steps_modally(&self) -> bool {
        self.integrator == Integrator::ImplicitCn && self.temps_k.len() <= MODAL_MAX_DIM
    }

    /// Sets the per-block power dissipation (W) applied from now on.
    ///
    /// # Panics
    ///
    /// Panics if `powers.len() != block_count()` or any entry is negative
    /// or not finite.
    pub fn set_block_powers(&mut self, powers: &[f64]) {
        if self.steps_modally() {
            self.network.check_block_powers(powers);
        } else {
            self.fill_drive(powers);
        }
        self.block_power.copy_from_slice(powers);
    }

    /// Makes `drive` the drive of `powers`.
    fn fill_drive(&mut self, powers: &[f64]) {
        self.network.node_power_into(powers, &mut self.drive);
        let amb = self.network.ambient_k();
        for (b, &g) in self.drive.iter_mut().zip(self.network.ambient_conductance()) {
            *b += g * amb;
        }
    }

    /// The most recently applied per-block powers (W).
    #[must_use]
    pub fn block_powers(&self) -> &[f64] {
        &self.block_power
    }

    /// Advances the transient solution by `dt` seconds.
    ///
    /// Under the default [`Integrator::ImplicitCn`], the interval is
    /// integrated by equal TR-BDF2 substeps of at most 35 ms (a 100 ms
    /// paper tick is three; see `MAX_IMPLICIT_STEP_S` for the
    /// accuracy/cost trade-off). Networks of at most 128 nodes step in
    /// their eigenbasis `C^-1/2·G·C^-1/2 = V·Λ·Vᵀ`, decomposed once, on
    /// the first step, for every `dt`: the substeps of a tick map each
    /// mode `x_k` to `r_k·x_k + s_k·(B_k·p)`, where `r_k` is their
    /// stability function at `λ_k`, `s_k = (1 − r_k)/λ_k` and
    /// `B = Vᵀ·C^-1/2·Wᵀ` injects the block powers `p`. A tick is one
    /// pass over the n × blocks matrix `B` that also yields the block
    /// temperatures, and agrees with the substeps to rounding. On
    /// larger networks each substep is two triangular solves against a
    /// cached factorization of `(2+√2)/h·C + G`, cached per step size
    /// with LRU eviction; stepping again at the same (or any recently
    /// seen) `dt` never re-factorizes. Under
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
                if self.steps_modally() {
                    self.modal_step(dt, h, substeps);
                } else {
                    let slot = self.ensure_step_factor(h);
                    let ImplicitState { steps, work, .. } = &mut self.implicit;
                    for _ in 0..substeps {
                        let factor = steps.get(slot);
                        trbdf2_substep(
                            &self.network,
                            factor,
                            h,
                            &self.drive,
                            &mut self.temps_k,
                            work,
                        );
                    }
                }
            }
        }
    }

    /// Returns the cache slot holding the factorization of
    /// `(TRBDF2_SHIFT/h)·C + G`, factoring only on a miss.
    fn ensure_step_factor(&mut self, h: f64) -> usize {
        let h_bits = h.to_bits();
        if let Some(slot) = self.implicit.steps.touch(h_bits) {
            return slot;
        }
        let system = self.network.shifted_system(TRBDF2_SHIFT / h);
        let factored = self.implicit.factor_shared(
            &system,
            &self.network,
            "implicit thermal system",
            FactorKey::Step(h_bits),
        );
        self.implicit.steps.insert(h_bits, factored)
    }

    /// Ensures the factor of `G` the steady solves use.
    fn ensure_steady_factor(&mut self) {
        if self.implicit.steady.is_none() {
            // `G` shares the shifted systems' pattern (full structural
            // diagonal), so this also reuses the one symbolic analysis.
            let factored = self.implicit.factor_shared(
                self.network.conductance(),
                &self.network,
                "conductance matrix",
                FactorKey::Steady,
            );
            self.implicit.steady = Some(factored);
        }
    }

    /// Ensures the eigenbasis, adopted from the share or built (once,
    /// under the share lock) on the first modal step.
    fn ensure_eigenbasis(&mut self) {
        if self.implicit.basis.is_none() {
            let network = &self.network;
            let basis = self.implicit.ensure_shared(
                |state| state.eigenbasis.clone(),
                |_| {
                    let _span = Span::enter("thermal.eigenbasis_build_us");
                    Eigenbasis::build(network)
                },
                |state, basis| state.eigenbasis = Some(Arc::clone(basis)),
            );
            self.implicit.basis = Some(basis);
        }
    }

    /// One `dt` tick of `substeps` substeps of size `h` in the
    /// eigenbasis; the first converts the held steady state to modal
    /// amplitudes.
    fn modal_step(&mut self, dt: f64, h: f64, substeps: usize) {
        self.ensure_eigenbasis();
        let ImplicitState { basis, gains, .. } = &mut self.implicit;
        let basis = basis.as_deref().expect("ensured above");
        let dt_bits = dt.to_bits();
        let slot = match gains.touch(dt_bits) {
            Some(slot) => slot,
            None => gains.insert(dt_bits, basis.gains(h, substeps)),
        };
        let modes = &mut self.modes;
        if !modes.active {
            basis.steady_amplitudes_into(
                &modes.origin_powers,
                modes.origin_sink_w,
                &mut modes.amplitudes,
            );
            modes.active = true;
        }
        basis.tick(gains.get(slot), &self.block_power, &mut modes.amplitudes, &mut modes.rise);
    }

    fn rk4_substep(&mut self, h: f64) {
        let n = self.temps_k.len();
        // k1 = f(T)
        Self::deriv(
            &self.network,
            &self.drive,
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
            &self.drive,
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
            &self.drive,
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
            &self.drive,
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

    /// `out = C⁻¹ · (b − G·T)`.
    fn deriv(net: &RcNetwork, drive: &[f64], temps: &[f64], gt: &mut [f64], out: &mut [f64]) {
        net.conductance().mul_into(temps, gt);
        let cap = net.capacitance();
        for i in 0..out.len() {
            out[i] = (drive[i] - gt[i]) / cap[i];
        }
    }

    /// Solves for the steady-state temperatures under the given per-block
    /// powers and **sets the model state** to that solution (the paper
    /// initializes HotSpot with steady-state values).
    ///
    /// The solve is direct: the conductance matrix is LDLᵀ-factored once
    /// (lazily, cached for the model's lifetime) and every subsequent
    /// call is two triangular sweeps — there is no iterative solver left
    /// to fail to converge. With a [`FactorShare`] attached, a steady
    /// state the share already solved under the same powers is copied
    /// from it instead (see [`FactorShare`]).
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
        self.fill_drive(powers);
        self.block_power.copy_from_slice(powers);
        self.ensure_steady_factor();
        let ImplicitState { steady, work, share, .. } = &mut self.implicit;
        let steady = steady.as_ref().expect("ensured above");
        let drive = &self.drive;
        let mut solve = |temps: &mut [f64]| steady.solve_into(drive, &mut work.solve, temps);
        match share {
            Some(share) => share.steady_state(powers, &mut self.temps_k, solve),
            None => solve(&mut self.temps_k),
        }
        let modes = &mut self.modes;
        modes.origin_powers.copy_from_slice(powers);
        modes.origin_sink_w = 0.0;
        modes.active = false;
        self.block_temperatures_c()
    }

    /// Per-block temperatures in °C (area-weighted over the block's
    /// nodes), indexed like [`Stack3d::sites`].
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
        if self.modes.active {
            let amb = self.network.ambient_k();
            out.extend(self.modes.rise.iter().map(|&rise| celsius_from_kelvin(amb + rise)));
        } else {
            out.extend((0..self.network.block_count()).map(|site| {
                celsius_from_kelvin(self.network.block_temperature(site, &self.temps_k))
            }));
        }
    }

    /// The eigenbasis while it holds the state.
    fn active_basis(&self) -> Option<&Eigenbasis> {
        self.implicit.basis.as_deref().filter(|_| self.modes.active)
    }

    /// Heat-sink temperature in °C.
    #[must_use]
    pub fn sink_temperature_c(&self) -> f64 {
        celsius_from_kelvin(match self.active_basis() {
            Some(basis) => self.network.ambient_k() + basis.sink_rise(&self.modes.amplitudes),
            None => self.temps_k[self.network.sink_node()],
        })
    }

    /// Heat-spreader temperature in °C.
    #[must_use]
    pub fn spreader_temperature_c(&self) -> f64 {
        celsius_from_kelvin(match self.active_basis() {
            Some(basis) => self.network.ambient_k() + basis.spreader_rise(&self.modes.amplitudes),
            None => self.temps_k[self.network.spreader_node()],
        })
    }

    /// Node temperatures in kelvin (silicon nodes first, then spreader,
    /// sink).
    ///
    /// A diagnostic: once a network of at most 128 nodes has stepped,
    /// its state is modal, and every call reconstructs the node
    /// temperatures by running the whole eigendecomposition again.
    #[must_use]
    pub fn node_temperatures_k(&self) -> Vec<f64> {
        if !self.modes.active {
            return self.temps_k.clone();
        }
        let amb = self.network.ambient_k();
        let rise = modal::node_rise(&self.network, &self.modes.amplitudes);
        rise.into_iter().map(|r| amb + r).collect()
    }

    /// Overrides the state to a uniform temperature in °C (useful for
    /// tests and for restarting experiments).
    pub fn reset_uniform(&mut self, celsius: f64) {
        let k = kelvin_from_celsius(celsius);
        self.temps_k.fill(k);
        // G·(k·1) differs from G·(T_amb·1) only by the ambient current
        // through the sink.
        let sink = self.network.sink_node();
        let sink_w = self.network.ambient_conductance()[sink] * (k - self.network.ambient_k());
        self.modes.origin_powers.fill(0.0);
        self.modes.origin_sink_w = sink_w;
        self.modes.active = false;
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

    /// The model of `exp`'s block network under the paper's package.
    fn block_model(exp: Experiment, integrator: Integrator) -> (Stack3d, ThermalModel) {
        let stack = exp.stack();
        let network = RcNetwork::build_blocks(&stack, &ThermalConfig::paper_default());
        (stack, ThermalModel::from_network(network, integrator))
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
        let models =
            [small_model(Experiment::Exp1), block_model(Experiment::Exp2, Integrator::ImplicitCn)];
        for (stack, mut model) in models {
            let p = core_power_vector(&stack, 3.0);
            let temps = model.initialize_steady_state(&p);
            assert!(temps.iter().all(|&t| t > 45.0 && t < 150.0), "{temps:?}");
            let p_total: f64 = p.iter().sum();
            let flux = (model.sink_temperature_c() - 45.0) / 0.1;
            assert!(
                (flux - p_total).abs() < 1e-6 * p_total.max(1.0),
                "flux {flux} vs injected {p_total}"
            );
        }
    }

    #[test]
    fn one_cell_grid_matches_the_closed_form_slab() {
        // With one cell per layer the network is a series chain, top
        // cell → … → cell 0 → spreader → sink → ambient, whose steady
        // state follows from the config alone: each link's rise is the
        // power that crosses it times its resistance.
        let cfg = ThermalConfig::paper_default().with_grid(1, 1);
        let k_si = cfg.silicon.conductivity;
        for exp in Experiment::ALL {
            let stack = exp.stack();
            let mut model = ThermalModel::new(&stack, cfg.clone());
            let mut draw = uniform(0x51AB ^ exp as u64);
            let powers: Vec<f64> = (0..stack.num_blocks()).map(|_| 4.0 * draw()).collect();
            let temps = model.initialize_steady_state(&powers);

            let outline = stack.layer(0).outline();
            let area = outline.width * outline.height * 1e-6;
            let mut layer_power = vec![0.0; stack.layer_count()];
            for (site, &p) in stack.sites().iter().zip(&powers) {
                layer_power[site.layer] += p;
            }
            let total: f64 = layer_power.iter().sum();
            let t_sink = cfg.ambient_c + total * cfg.convection_resistance_kw;
            let t_spreader = t_sink + total * cfg.spreader_to_sink_resistance_kw;
            let r_below = (cfg.die_thickness_m / (2.0 * k_si)
                + cfg.tim_thickness_m * cfg.tim.resistivity()
                + cfg.spreader_thickness_m / cfg.spreader.conductivity)
                / area;
            let r_between = (cfg.die_thickness_m / k_si
                + cfg.interlayer_thickness_m * cfg.interlayer.resistivity())
                / area;
            let mut layer_t = vec![t_spreader + total * r_below];
            for l in 1..stack.layer_count() {
                let crossing: f64 = layer_power[l..].iter().sum();
                layer_t.push(layer_t[l - 1] + crossing * r_between);
            }

            let check = |what: &str, got: f64, want: f64| {
                let bound = 1e-9 * (want - cfg.ambient_c);
                assert!((got - want).abs() <= bound, "{exp} {what}: {got} °C vs {want} °C");
            };
            check("sink", model.sink_temperature_c(), t_sink);
            check("spreader", model.spreader_temperature_c(), t_spreader);
            for (site, (s, &t)) in stack.sites().iter().zip(&temps).enumerate() {
                check(&format!("block {site}"), t, layer_t[s.layer]);
            }
        }
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
    fn block_network_agrees_with_the_8x8_grid_within_a_few_degrees() {
        // The headline fidelity check: block vs 8×8 grid steady states.
        for exp in [Experiment::Exp1, Experiment::Exp3] {
            let stack = exp.stack();
            let powers: Vec<f64> = stack
                .sites()
                .iter()
                .map(|s| match s.kind {
                    therm3d_floorplan::UnitKind::Core => 3.0,
                    therm3d_floorplan::UnitKind::L2Cache => 1.28,
                    _ => 2.0,
                })
                .collect();
            let mut grid = ThermalModel::new(&stack, ThermalConfig::paper_default());
            let (_, mut block) = block_model(exp, Integrator::ImplicitCn);
            let tg = grid.initialize_steady_state(&powers);
            let tb = block.initialize_steady_state(&powers);
            for (i, (a, b)) in tg.iter().zip(&tb).enumerate() {
                assert!(
                    (a - b).abs() < 6.0,
                    "{exp} block {i}: grid {a:.1} vs block network {b:.1}"
                );
            }
        }
    }

    #[test]
    fn block_network_runs_hotter_with_more_power() {
        let (stack, mut model) = block_model(Experiment::Exp4, Integrator::ImplicitCn);
        let lo = model.initialize_steady_state(&vec![0.5; stack.num_blocks()]);
        let hi = model.initialize_steady_state(&vec![1.5; stack.num_blocks()]);
        for (a, b) in lo.iter().zip(&hi) {
            assert!(b > a);
        }
    }

    #[test]
    fn block_network_transient_settles_on_the_direct_steady_state() {
        for exp in [Experiment::Exp1, Experiment::Exp3] {
            let (stack, mut direct) = block_model(exp, Integrator::ImplicitCn);
            let powers: Vec<f64> = (0..stack.num_blocks()).map(|i| 0.3 + 0.1 * i as f64).collect();
            let steady = direct.initialize_steady_state(&powers);
            let (_, mut transient) = block_model(exp, Integrator::ImplicitCn);
            transient.reset_uniform(45.0);
            transient.set_block_powers(&powers);
            for _ in 0..4000 {
                transient.step(0.1);
            }
            for (a, b) in steady.iter().zip(&transient.block_temperatures_c()) {
                assert!((a - b).abs() < 1e-6, "{exp}: steady {a} vs transient {b}");
            }
        }
    }

    #[test]
    fn block_network_implicit_trajectory_tracks_rk4() {
        let (stack, mut implicit) = block_model(Experiment::Exp2, Integrator::ImplicitCn);
        let (_, mut explicit) = block_model(Experiment::Exp2, Integrator::ExplicitRk4);
        let powers: Vec<f64> =
            (0..stack.num_blocks()).map(|i| 0.5 + 0.2 * (i % 4) as f64).collect();
        for m in [&mut implicit, &mut explicit] {
            m.reset_uniform(45.0);
            m.set_block_powers(&powers);
        }
        for tick in 0..200 {
            implicit.step(0.1);
            explicit.step(0.1);
            if tick % 40 == 0 {
                let reference = explicit.block_temperatures_c();
                for (i, (a, b)) in
                    implicit.block_temperatures_c().iter().zip(&reference).enumerate()
                {
                    assert!(
                        (a - b).abs() < 0.05,
                        "tick {tick} block {i}: implicit {a:.3} vs RK4 {b:.3}"
                    );
                }
            }
        }
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
    #[should_panic(expected = "one power entry per block")]
    fn block_network_rejects_a_wrong_power_length() {
        let (_, mut model) = block_model(Experiment::Exp1, Integrator::ImplicitCn);
        model.set_block_powers(&[1.0]);
    }

    #[test]
    #[should_panic(expected = "must be non-negative")]
    fn modal_models_still_reject_negative_powers() {
        let (stack, mut model) = small_model(Experiment::Exp1);
        let mut p = core_power_vector(&stack, 1.0);
        p[0] = -1.0;
        model.set_block_powers(&p);
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
            2,
            "steady + one eigenbasis that serves every step size"
        );
        assert_eq!(
            model.symbolic_analysis_count(),
            1,
            "the alpha-independent pattern must be analyzed exactly once"
        );
        // Repeating known step sizes grows neither counter.
        model.step(0.1);
        model.initialize_steady_state(&p);
        assert_eq!(model.factorization_count(), 2);
        assert_eq!(model.symbolic_analysis_count(), 1);
    }

    #[test]
    fn factor_share_computes_once_and_adoption_is_bit_identical() {
        let stack = Experiment::Exp3.stack();
        let cfg = ThermalConfig::paper_default().with_grid(4, 4);
        let p = core_power_vector(&stack, 2.0);
        // Reference: an unshared model.
        let mut lone = ThermalModel::new(&stack, cfg.clone());
        lone.initialize_steady_state(&p);
        lone.step(0.1);
        lone.step(0.05);

        let share = FactorShare::new();
        let order = StackOrder::default();
        let mut first = ThermalModel::from_share(share.clone(), Experiment::Exp3, order, &cfg);
        let mut second = ThermalModel::from_share(share.clone(), Experiment::Exp3, order, &cfg);
        for m in [&mut first, &mut second] {
            m.initialize_steady_state(&p);
            m.step(0.1);
            m.step(0.05);
        }

        // One network, one analysis, one steady factor and one
        // eigenbasis across BOTH models …
        assert!(std::ptr::eq(first.network(), second.network()), "one network for both");
        assert_eq!(share.network_builds(), 1);
        assert_eq!(share.symbolic_analyses(), 1);
        assert_eq!(share.factorizations(), 2, "steady + one eigenbasis for both step sizes");
        assert_eq!(share.factors_cached(), 2);
        // … the second model adopted both factors; adopting the network
        // is not a factor hit.
        assert_eq!(share.hits(), 2);
        // Ensured per-model counters are identical to the unshared ones.
        for m in [&first, &second] {
            assert_eq!(m.factorization_count(), lone.factorization_count());
            assert_eq!(m.symbolic_analysis_count(), lone.symbolic_analysis_count());
        }
        // The second model copied the steady state the first solved.
        assert_eq!(share.steady_solves(), 1);
        // Adoption changes nothing numerically: bit-identical state.
        let reference = lone.node_temperatures_k();
        for m in [&first, &second] {
            for (a, b) in m.node_temperatures_k().iter().zip(&reference) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }

        // Releasing keeps the counters and drops the model: the next
        // model builds its network again.
        share.release();
        assert_eq!((share.factors_cached(), share.network_builds(), share.hits()), (0, 1, 2));
        let third = ThermalModel::from_share(share.clone(), Experiment::Exp3, order, &cfg);
        assert!(!std::ptr::eq(third.network(), first.network()));
        assert_eq!(share.network_builds(), 2);
    }

    #[test]
    fn the_steady_state_memo_is_bounded_and_emptied_by_release() {
        use crate::share::MAX_STEADY_STATES;

        let share = FactorShare::new();
        let cfg = ThermalConfig::paper_default().with_grid(4, 4);
        let order = StackOrder::default();
        let mut model = ThermalModel::from_share(share.clone(), Experiment::Exp1, order, &cfg);
        let blocks = model.block_count();
        let powers = |w: usize| vec![0.25 * w as f64; blocks];
        for w in 0..10 {
            model.initialize_steady_state(&powers(w));
            assert!(share.lock().steady_states.len() <= MAX_STEADY_STATES);
        }
        assert_eq!(share.steady_solves(), 10);
        // The newest states stay, the oldest went first.
        model.initialize_steady_state(&powers(9));
        assert_eq!(share.steady_solves(), 10, "the newest is copied");
        model.initialize_steady_state(&powers(0));
        assert_eq!(share.steady_solves(), 11, "the oldest was evicted");
        // Powers are matched bit for bit: -0 W is not 0 W.
        model.initialize_steady_state(&vec![-0.0; blocks]);
        assert_eq!(share.steady_solves(), 12);

        share.release();
        assert!(share.lock().steady_states.is_empty(), "release empties the memo");
        assert_eq!(share.steady_solves(), 12, "release keeps the counter");
    }

    /// The message of the panic `ask` raises on a share that holds the
    /// 4×4 EXP-1 model.
    fn mismatch_message(ask: impl FnOnce(&FactorShare)) -> String {
        let share = FactorShare::new();
        let cfg = ThermalConfig::paper_default().with_grid(4, 4);
        let _ = share.model(Experiment::Exp1, StackOrder::CoresFarFromSink, &cfg);
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| ask(&share)))
            .expect_err("a share asked for another model must panic");
        payload.downcast_ref::<String>().cloned().expect("a formatted message")
    }

    #[test]
    fn a_share_asked_for_another_model_panics_naming_both() {
        let grid = |g| ThermalConfig::paper_default().with_grid(g, g);
        let far = StackOrder::CoresFarFromSink;
        let msg = mismatch_message(|share| {
            let _ = share.model(Experiment::Exp1, far, &grid(8));
        });
        assert!(msg.contains("grid_rows: 4") && msg.contains("grid_rows: 8"), "{msg}");
        let msg = mismatch_message(|share| {
            let _ = ThermalModel::from_share(share.clone(), Experiment::Exp2, far, &grid(4));
        });
        assert!(msg.contains("EXP-1") && msg.contains("EXP-2"), "{msg}");
        let msg = mismatch_message(|share| {
            let _ = share.model(Experiment::Exp1, StackOrder::CoresNearSink, &grid(4));
        });
        assert!(msg.contains("cores-far") && msg.contains("cores-near"), "{msg}");
        let msg = mismatch_message(|share| {
            let rk4 = grid(4).with_integrator(Integrator::ExplicitRk4);
            let _ = share.model(Experiment::Exp1, far, &rk4);
        });
        assert!(msg.contains("ImplicitCn") && msg.contains("ExplicitRk4"), "{msg}");
    }

    /// xorshift64 stream of uniform samples in `[0, 1)`.
    fn uniform(seed: u64) -> impl FnMut() -> f64 {
        let mut state = seed;
        move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        }
    }

    /// A 100 ms tick as the model's sparse TR-BDF2 substeps, computed
    /// independently of the model's caches and state: node temperatures
    /// and the drive the test itself derives from the block powers.
    struct Substeps {
        network: RcNetwork,
        factor: LdlFactor,
        h: f64,
        substeps: usize,
        temps_k: Vec<f64>,
        work: SubstepWork,
    }

    impl Substeps {
        fn new(network: &RcNetwork, temps_k: Vec<f64>) -> Self {
            let substeps = (0.1 / MAX_IMPLICIT_STEP_S).ceil() as usize;
            let h = 0.1 / substeps as f64;
            let system = network.shifted_system(TRBDF2_SHIFT / h);
            let factor = crate::sparse::factor::factor(&system).expect("SPD");
            let network = network.clone();
            Self { network, factor, h, substeps, temps_k, work: SubstepWork::default() }
        }

        fn tick(&mut self, powers: &[f64]) {
            let net = &self.network;
            let drive: Vec<f64> = net
                .node_power(powers)
                .iter()
                .zip(net.ambient_conductance())
                .map(|(&p, &g)| p + g * net.ambient_k())
                .collect();
            for _ in 0..self.substeps {
                trbdf2_substep(
                    net,
                    &self.factor,
                    self.h,
                    &drive,
                    &mut self.temps_k,
                    &mut self.work,
                );
            }
        }

        /// The largest gap, K, between the model's block, sink and
        /// spreader temperatures and the substeps'.
        fn gap(&self, model: &ThermalModel) -> f64 {
            let net = &self.network;
            let kelvin = |c: f64| kelvin_from_celsius(c);
            let mut worst =
                (kelvin(model.sink_temperature_c()) - self.temps_k[net.sink_node()]).abs().max(
                    (kelvin(model.spreader_temperature_c()) - self.temps_k[net.spreader_node()])
                        .abs(),
                );
            for (site, t) in model.block_temperatures_c().into_iter().enumerate() {
                let want = net.block_temperature(site, &self.temps_k);
                worst = worst.max((kelvin(t) - want).abs());
            }
            worst
        }

        /// The largest gap, K, between the model's reconstructed node
        /// temperatures and the substeps'.
        fn node_gap(&self, model: &ThermalModel) -> f64 {
            let nodes = model.node_temperatures_k();
            nodes.iter().zip(&self.temps_k).fold(0.0, |m, (a, b)| m.max((a - b).abs()))
        }
    }

    #[test]
    fn modal_tick_matches_the_substeps_it_composes() {
        for exp in Experiment::ALL {
            let stack = exp.stack();
            let cfg = ThermalConfig::paper_default();
            let grid = |g: usize| RcNetwork::build(&stack, &cfg.clone().with_grid(g, g));
            let networks = [
                ("4x4", 4, grid(4)),
                ("6x6", 6, grid(6)),
                ("blocks", 0xB10C, RcNetwork::build_blocks(&stack, &cfg)),
            ];
            for (label, seed, network) in networks {
                let mut model = ThermalModel::from_network(network, Integrator::ImplicitCn);
                let mut powers = vec![0.5; stack.num_blocks()];
                model.initialize_steady_state(&powers);
                let mut reference = Substeps::new(&model.network, model.node_temperatures_k());
                let mut draw = uniform(0x5EED ^ seed);
                let (mut worst, mut worst_node): (f64, f64) = (0.0, 0.0);
                for tick in 1..=3000 {
                    powers.iter_mut().for_each(|p| *p = 4.0 * draw());
                    model.set_block_powers(&powers);
                    model.step(0.1);
                    reference.tick(&powers);
                    worst = worst.max(reference.gap(&model));
                    if tick % 1000 == 0 {
                        worst_node = worst_node.max(reference.node_gap(&model));
                    }
                }
                assert!(worst <= 1e-9, "{exp} {label}: the tick is {worst:e} K off");
                assert!(worst_node <= 1e-9, "{exp} {label}: nodes are {worst_node:e} K off");
            }
        }
    }

    #[test]
    fn modal_state_starts_from_ambient_steady_and_uniform_states() {
        for exp in Experiment::ALL {
            let (stack, mut model) = small_model(exp);
            let mut draw = uniform(0xF1257 ^ exp as u64);
            let mut powers = vec![0.0; stack.num_blocks()];
            let steady = core_power_vector(&stack, 2.5);
            // Ambient after `new`, a steady state, and a uniform 80 °C,
            // each entered after modal steps have run.
            for start in 0..3 {
                match start {
                    0 => {}
                    1 => {
                        model.initialize_steady_state(&steady);
                    }
                    _ => model.reset_uniform(80.0),
                }
                assert!(!model.modes.active, "{exp}: the node state is held until a step");
                let mut reference = Substeps::new(&model.network, model.node_temperatures_k());
                let mut worst: f64 = 0.0;
                for _ in 0..50 {
                    powers.iter_mut().for_each(|p| *p = 4.0 * draw());
                    model.set_block_powers(&powers);
                    model.step(0.1);
                    reference.tick(&powers);
                    worst = worst.max(reference.gap(&model));
                }
                worst = worst.max(reference.node_gap(&model));
                assert!(worst <= 1e-9, "{exp} start {start}: {worst:e} K off the substeps");
            }
        }
    }

    #[test]
    fn eigenbasis_is_built_on_the_first_step_and_only_for_small_networks() {
        let stack = Experiment::Exp2.stack();
        let p = core_power_vector(&stack, 2.0);
        for (grid, modal) in [(4, true), (8, false)] {
            let cfg = ThermalConfig::paper_default().with_grid(grid, grid);
            let mut model = ThermalModel::new(&stack, cfg);
            assert_eq!(model.network.node_count() <= MODAL_MAX_DIM, modal);
            assert!(model.implicit.basis.is_none(), "{grid}x{grid}: built by new");
            model.initialize_steady_state(&p);
            assert!(model.implicit.basis.is_none(), "{grid}x{grid}: built by the steady solve");
            for dt in [0.1, 0.1, 0.05] {
                model.step(dt);
            }
            let (built, factors) = (model.implicit.basis.is_some(), model.implicit.steps.0.len());
            if modal {
                assert!(built && model.modes.active, "the first step builds the eigenbasis");
                assert_eq!(factors, 0, "no step factor on the modal path");
                assert_eq!(model.implicit.gains.0.len(), 2, "one set of gains per distinct dt");
                assert_eq!(model.factorization_count(), 2, "steady + one eigenbasis for both dt");
            } else {
                assert!(!built, "130 nodes stay on the sparse substeps");
                assert_eq!(factors, 2);
                assert_eq!(model.factorization_count(), 3, "steady + one factor per dt");
            }
        }
        // The explicit integrator never builds one either.
        let cfg = ThermalConfig::paper_default().with_grid(4, 4);
        let mut rk4 = ThermalModel::new(&stack, cfg.with_integrator(Integrator::ExplicitRk4));
        rk4.set_block_powers(&p);
        rk4.step(0.1);
        assert!(rk4.implicit.basis.is_none() && rk4.implicit.steady.is_none());
        assert!(!rk4.modes.active);
    }
}
