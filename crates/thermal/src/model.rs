//! The transient/steady-state thermal model: the public face of this
//! crate.

use std::borrow::Cow;
use std::f64::consts::SQRT_2;
use std::sync::Arc;

use therm3d_floorplan::Stack3d;
use therm3d_telemetry::Span;

use crate::config::{Integrator, ThermalConfig};
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
/// thermal modes. Networks of at most `PROPAGATOR_MAX_DIM` nodes
/// compose the substeps once into a [`Propagator`], so there the
/// substep count costs nothing per tick.
pub(crate) const MAX_IMPLICIT_STEP_S: f64 = 0.035;
/// Network size at which the symbolic analysis switches from the exact
/// minimum-degree ordering (quadratic-plus in the node count) to the
/// geometric nested-dissection order (near-linear on the grid).
const ND_MIN_DIM: usize = 2048;
/// Largest network whose implicit tick applies a precomputed
/// [`Propagator`]; larger networks run the sparse TR-BDF2 substeps every
/// tick. Per 100 ms tick the propagator beat the substeps 3.8× at 34
/// nodes and 3.3–3.6× at 66–74 (2 vCPU, release), and would still win
/// 2.3–2.4× at 130–146. But its build — 3n sparse substeps on the first
/// step at each `dt` — grows from 0.2 ms at 34 nodes to 4–7 ms at
/// 130–146, and its n(n+1)/2 stored entries from 4.8 KB to 68–86 KB per
/// model, so the paper's 8×8 grids stay on the sparse path.
const PROPAGATOR_MAX_DIM: usize = 128;
/// Cap on simultaneously cached step factors or propagators, each
/// evicted LRU (each distinct step size needs one; real drivers use one
/// or two).
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
    /// The drive `b = P + g_amb·T_amb` of the current powers, per node
    /// in W: the right-hand side every integrator and the steady solve
    /// read.
    drive: Vec<f64>,
    /// Current per-block power in W (kept for diagnostics).
    block_power: Vec<f64>,
    /// Fixed stable substep for explicit integration, seconds.
    stable_dt: f64,
    /// The transient scheme [`step`](Self::step) uses.
    integrator: Integrator,
    /// Scratch buffers for RK4 (empty under the implicit integrator).
    scratch: Rk4Scratch,
    /// Cached factorizations, propagators and buffers for the implicit
    /// path.
    implicit: ImplicitState,
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
#[derive(Debug)]
struct Lru<T>(Vec<(u64, Arc<T>)>);

impl<T> Default for Lru<T> {
    fn default() -> Self {
        Self(Vec::new())
    }
}

impl<T> Clone for Lru<T> {
    fn clone(&self) -> Self {
        Self(self.0.clone())
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
    fn insert(&mut self, key: u64, value: Arc<T>) -> usize {
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

/// Lazily built direct-solver state: factorization and propagator
/// caches plus reusable dense work vectors (the per-tick hot path
/// allocates nothing).
#[derive(Debug, Clone, Default)]
struct ImplicitState {
    /// Factorizations of `(TRBDF2_SHIFT/h)·C + G` by substep size `h`
    /// (networks above `PROPAGATOR_MAX_DIM` nodes).
    steps: Lru<LdlFactor>,
    /// Tick propagators by tick length `dt` (networks of at most
    /// `PROPAGATOR_MAX_DIM` nodes).
    propagators: Lru<Propagator>,
    /// Factorization of `G` alone, for direct steady-state solves and
    /// the propagator's steady target.
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
    /// A propagator counts as the one step factorization it is built
    /// from.
    factor_count: usize,
    /// Symbolic analyses ensured (same semantics; see
    /// [`ThermalModel::symbolic_analysis_count`]).
    symbolic_count: usize,
    /// Work vectors of the sparse substeps and of every sparse solve.
    work: SubstepWork,
    /// The propagator tick's steady target `T*`, swapped with the
    /// temperatures once the tick is applied.
    target: Vec<f64>,
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

    /// Makes `self.symbolic` an analysis of `a`'s pattern: keeps a
    /// compatible local one, else adopts the share's (`state`) or
    /// computes one — into the share when one is attached. Falls back
    /// to a fresh analysis if `a`'s pattern size ever diverges from the
    /// analyzed one (cannot happen for one RC network's systems, but
    /// corruption-proof beats a panic deep inside the solver).
    fn ensure_symbolic(&mut self, a: &CsrMatrix, state: Option<&mut ShareState>) {
        let fits = |s: &Option<Arc<Symbolic>>| {
            s.as_ref().is_some_and(|s| s.dim() == a.dim() && s.pattern_nnz() == a.nnz())
        };
        if fits(&self.symbolic) {
            return;
        }
        self.symbolic = Some(match state {
            None => Arc::new(Self::analyze_for(a, self.perm_hint.as_ref())),
            Some(state) => {
                if !fits(&state.symbolic) {
                    state.symbolic = Some(Arc::new(Self::analyze_for(a, self.perm_hint.as_ref())));
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

    /// Ensures one solver product made from the factorization of `a`:
    /// reuses (or lazily computes) the shared symbolic analysis, and —
    /// when a [`FactorShare`] is attached — adopts the product from the
    /// share (`lookup`) or makes it exactly once *under the share lock*
    /// (`finish` turns the numeric factor into the product, `store`
    /// files it), so a sibling cell waits and adopts instead of making
    /// it again.
    fn ensure_shared<T>(
        &mut self,
        a: Cow<'_, CsrMatrix>,
        what: &str,
        lookup: impl FnOnce(&ShareState) -> Option<Arc<T>>,
        finish: impl FnOnce(LdlFactor) -> T,
        store: impl FnOnce(&mut ShareState, &Arc<T>),
    ) -> Arc<T> {
        // LDLᵀ without pivoting assumes symmetry; an asymmetric system
        // here means the RC assembly upstream is broken.
        debug_assert!(a.is_symmetric(1e-9), "{what} must be symmetric for LDL^T");
        self.factor_count += 1;
        let Some(share) = self.share.clone() else {
            self.ensure_symbolic(&a, None);
            return self.make(a, what, finish);
        };
        let mut state = share.lock();
        self.ensure_symbolic(&a, Some(&mut state));
        if let Some(found) = lookup(&state) {
            state.hits += 1;
            return found;
        }
        let made = self.make(a, what, finish);
        store(&mut state, &made);
        state.factorizations += 1;
        made
    }

    /// Factors `a` and turns the factor into the product, dropping an
    /// assembled system before `finish` runs: building a propagator
    /// needs only the factor.
    fn make<T>(
        &self,
        a: Cow<'_, CsrMatrix>,
        what: &str,
        finish: impl FnOnce(LdlFactor) -> T,
    ) -> Arc<T> {
        let factor = self.numeric_phase(&a, what);
        drop(a);
        Arc::new(finish(factor))
    }

    /// Ensures the factorization of `a` for `key`.
    fn factor_shared(
        &mut self,
        a: Cow<'_, CsrMatrix>,
        what: &str,
        key: FactorKey,
    ) -> Arc<LdlFactor> {
        self.ensure_shared(
            a,
            what,
            |state| match key {
                FactorKey::Steady => state.steady.clone(),
                FactorKey::Step(h) => {
                    state.steps.iter().find(|(hb, _)| *hb == h).map(|(_, f)| Arc::clone(f))
                }
            },
            |factor| factor,
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

/// One whole implicit tick of a small network, precomputed.
///
/// The power is held for the tick, so its TR-BDF2 substeps map the node
/// temperatures affinely: `T ← T* + Φ·(T − T*)`, where `T* = G⁻¹·b` is
/// the steady state under the tick's drive (a fixed point of every
/// substep) and `Φ` composes the substeps. Stored is `P = Φ·C⁻¹`, which
/// is symmetric because every stage is a rational function of `C⁻¹G`,
/// so only its lower triangle is kept; a tick applies
/// `T ← T* + P·(C ⊙ (T − T*))`.
#[derive(Debug)]
pub(crate) struct Propagator {
    /// The lower triangle by rows: `P[i][0..=i]` starts at `i(i+1)/2`.
    packed: Vec<f64>,
}

impl Propagator {
    /// Builds `P` for `substeps` TR-BDF2 substeps of size `h` against
    /// `factor`: the substeps applied to a unit vector under zero drive
    /// give one column of `Φ`.
    fn build(network: &RcNetwork, factor: &LdlFactor, h: f64, substeps: usize) -> Self {
        let n = network.node_count();
        let cap = network.capacitance();
        let zero_drive = vec![0.0; n];
        let mut work = SubstepWork::default();
        let mut column = vec![0.0; n];
        let mut packed = vec![0.0; n * (n + 1) / 2];
        for j in 0..n {
            column.fill(0.0);
            column[j] = 1.0;
            for _ in 0..substeps {
                trbdf2_substep(network, factor, h, &zero_drive, &mut column, &mut work);
            }
            for i in j..n {
                packed[i * (i + 1) / 2 + j] = column[i] / cap[j];
            }
        }
        Self { packed }
    }

    /// `y += P·x`: row `i` of the stored triangle is both the start of
    /// row `i` and the top of column `i` of the symmetric matrix, so
    /// each stored entry is read once for both of its positions.
    // lint: region(alloc-free: propagator-apply)
    fn mul_add(&self, x: &[f64], y: &mut [f64]) {
        let mut rest = self.packed.as_slice();
        for (i, &xi) in x.iter().enumerate() {
            let (row, tail) = rest.split_at(i + 1);
            rest = tail;
            let mut dot = row[i] * xi;
            for ((&p, &xj), yj) in row[..i].iter().zip(x).zip(y.iter_mut()) {
                dot += p * xj;
                *yj += p * xi;
            }
            y[i] += dot;
        }
    }
    // lint: end-region
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
        let scratch = match config.integrator {
            Integrator::ExplicitRk4 => Rk4Scratch::new(n),
            Integrator::ImplicitCn => Rk4Scratch::default(),
        };
        let mut model = Self {
            temps_k,
            drive: vec![0.0; n],
            block_power: vec![0.0; network.block_count()],
            scratch,
            stable_dt,
            integrator: config.integrator,
            implicit,
            network,
        };
        model.set_block_powers(&vec![0.0; model.block_count()]);
        model
    }

    /// Attaches a cross-model [`FactorShare`]: factorizations and tick
    /// propagators this model needs are adopted from the share when
    /// present and computed into it (exactly once, under the share
    /// lock) when not. Attach before the first factorization — typically
    /// right after construction — so nothing is computed twice.
    pub fn set_factor_share(&mut self, share: FactorShare) {
        self.implicit.share = Some(share);
    }

    /// The transient integration scheme this model steps with.
    #[must_use]
    pub fn integrator(&self) -> Integrator {
        self.integrator
    }

    /// Numeric sparse factorizations *ensured* so far (steady-state plus
    /// one per distinct implicit substep size, or on networks of at
    /// most 128 nodes one per distinct tick length, whose factor builds
    /// the tick propagator). Stepping repeatedly at the same `dt` — or
    /// at any recently seen `dt` — must not grow this: factors and
    /// propagators are cached with LRU eviction, so only a driver
    /// cycling through more than `MAX_CACHED_FACTORS` (8) distinct step
    /// sizes ever re-factorizes. With a [`FactorShare`] attached, a
    /// factor or propagator adopted ready-made counts exactly like one
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
        self.network.node_power_into(powers, &mut self.drive);
        let amb = self.network.ambient_k();
        for (b, &g) in self.drive.iter_mut().zip(self.network.ambient_conductance()) {
            *b += g * amb;
        }
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
    /// integrated by equal TR-BDF2 substeps of at most 35 ms (a 100 ms
    /// paper tick is three; see `MAX_IMPLICIT_STEP_S` for the
    /// accuracy/cost trade-off). On networks of at most 128 nodes the
    /// substeps of each distinct `dt` are composed once, on the first
    /// step at that `dt`, into a tick propagator `P = Φ·C⁻¹` (the
    /// factor of `(2+√2)/h·C + G` it is built from is then dropped); a
    /// tick is one steady solve `T* = G⁻¹·b` against the cached factor
    /// of `G` plus `T ← T* + P·(C ⊙ (T − T*))`, a dense symmetric
    /// matvec, and agrees with the substeps to rounding. On larger
    /// networks each substep is two triangular solves against a cached
    /// factorization of `(2+√2)/h·C + G`. Factors and
    /// propagators are cached per step size with LRU eviction; stepping
    /// again at the same (or any recently seen) `dt` never
    /// re-factorizes. Under [`Integrator::ExplicitRk4`], classic RK4
    /// with stability-bounded substeps integrates the interval.
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
                if self.temps_k.len() <= PROPAGATOR_MAX_DIM {
                    let slot = self.ensure_propagator(dt, h, substeps);
                    self.propagate(slot);
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
            Cow::Owned(system),
            "implicit thermal system",
            FactorKey::Step(h_bits),
        );
        self.implicit.steps.insert(h_bits, factored)
    }

    /// Ensures the factor of `G` the steady solves and the propagator
    /// tick use.
    fn ensure_steady_factor(&mut self) {
        if self.implicit.steady.is_none() {
            // `G` shares the shifted systems' pattern (full structural
            // diagonal), so this also reuses the one symbolic analysis.
            let factored = self.implicit.factor_shared(
                Cow::Borrowed(self.network.conductance()),
                "conductance matrix",
                FactorKey::Steady,
            );
            self.implicit.steady = Some(factored);
        }
    }

    /// Returns the cache slot holding the propagator of a `dt` tick
    /// (`substeps` substeps of size `h`), building it on a miss from a
    /// factorization of `(TRBDF2_SHIFT/h)·C + G` that is dropped once
    /// the propagator exists. Also ensures the steady factor the tick
    /// needs.
    fn ensure_propagator(&mut self, dt: f64, h: f64, substeps: usize) -> usize {
        let dt_bits = dt.to_bits();
        if let Some(slot) = self.implicit.propagators.touch(dt_bits) {
            return slot;
        }
        self.ensure_steady_factor();
        let network = &self.network;
        let system = network.shifted_system(TRBDF2_SHIFT / h);
        let built = self.implicit.ensure_shared(
            Cow::Owned(system),
            "implicit thermal system",
            |state| {
                state.propagators.iter().find(|(k, _)| *k == dt_bits).map(|(_, p)| Arc::clone(p))
            },
            |factor| {
                let _span = Span::enter("thermal.propagator_build_us");
                Propagator::build(network, &factor, h, substeps)
            },
            |state, p| state.propagators.push((dt_bits, Arc::clone(p))),
        );
        self.implicit.propagators.insert(dt_bits, built)
    }

    /// One tick through the propagator in `slot`:
    /// `T ← T* + P·(C ⊙ (T − T*))` with `T* = G⁻¹·b`.
    fn propagate(&mut self, slot: usize) {
        let n = self.temps_k.len();
        let cap = self.network.capacitance();
        let ImplicitState { propagators, steady, work, target, .. } = &mut self.implicit;
        target.resize(n, 0.0);
        let steady = steady.as_ref().expect("ensured with the propagator");
        steady.solve_into(&self.drive, &mut work.solve, target);
        for ((t, &s), &c) in self.temps_k.iter_mut().zip(target.iter()).zip(cap) {
            *t = c * (*t - s);
        }
        propagators.get(slot).mul_add(&self.temps_k, target);
        std::mem::swap(&mut self.temps_k, target);
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
        self.ensure_steady_factor();
        let ImplicitState { steady, work, .. } = &mut self.implicit;
        let steady = steady.as_ref().expect("ensured above");
        steady.solve_into(&self.drive, &mut work.solve, &mut self.temps_k);
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

    /// The factor of a 100 ms tick's substep system, its substep size
    /// and count, computed independently of the model's caches.
    fn tick_substeps(model: &ThermalModel) -> (LdlFactor, f64, usize) {
        let substeps = (0.1 / MAX_IMPLICIT_STEP_S).ceil() as usize;
        let h = 0.1 / substeps as f64;
        let system = model.network.shifted_system(TRBDF2_SHIFT / h);
        (crate::sparse::factor::factor(&system).expect("SPD"), h, substeps)
    }

    #[test]
    fn propagator_tick_matches_the_substeps_it_composes() {
        for exp in Experiment::ALL {
            for grid in [4, 6] {
                let stack = exp.stack();
                let cfg = ThermalConfig::paper_default().with_grid(grid, grid);
                let mut model = ThermalModel::new(&stack, cfg);
                model.initialize_steady_state(&vec![0.5; stack.num_blocks()]);
                let (factor, h, substeps) = tick_substeps(&model);
                let mut reference = model.temps_k.clone();
                let mut work = SubstepWork::default();
                let mut draw = uniform(0x5EED ^ grid as u64);
                let mut powers = vec![0.0; stack.num_blocks()];
                let mut worst: f64 = 0.0;
                for _ in 0..3000 {
                    powers.iter_mut().for_each(|p| *p = 4.0 * draw());
                    model.set_block_powers(&powers);
                    model.step(0.1);
                    for _ in 0..substeps {
                        let drive = &model.drive;
                        trbdf2_substep(
                            &model.network,
                            &factor,
                            h,
                            drive,
                            &mut reference,
                            &mut work,
                        );
                    }
                    for (a, b) in model.temps_k.iter().zip(&reference) {
                        worst = worst.max((a - b).abs());
                    }
                }
                assert!(worst <= 1e-9, "{exp} {grid}x{grid}: the tick is {worst:e} K off");
            }
        }
    }

    #[test]
    fn propagator_is_the_lower_triangle_of_a_symmetric_matrix() {
        for exp in Experiment::ALL {
            let (_, model) = small_model(exp);
            let (net, n) = (&model.network, model.network.node_count());
            let (factor, h, substeps) = tick_substeps(&model);
            // Column j of Φ·C⁻¹: the substeps applied to e_j, over C_j.
            let (zero, mut work) = (vec![0.0; n], SubstepWork::default());
            let mut full = vec![vec![0.0; n]; n];
            for j in 0..n {
                let mut column = vec![0.0; n];
                column[j] = 1.0;
                for _ in 0..substeps {
                    trbdf2_substep(net, &factor, h, &zero, &mut column, &mut work);
                }
                for (i, &phi) in column.iter().enumerate() {
                    full[i][j] = phi / net.capacitance()[j];
                }
            }
            let scale = full.iter().flatten().fold(0.0_f64, |m, &a| m.max(a.abs()));
            for (i, row) in full.iter().enumerate() {
                for (j, &a) in row[..i].iter().enumerate() {
                    let b = full[j][i];
                    assert!((a - b).abs() <= 1e-12 * scale, "{exp}: P[{i}][{j}] = {a:e} vs {b:e}");
                }
            }
            // The stored triangle is exactly the lower half, row by row.
            let built = Propagator::build(net, &factor, h, substeps);
            let lower: Vec<u64> = full
                .iter()
                .enumerate()
                .flat_map(|(i, row)| &row[..=i])
                .map(|a| a.to_bits())
                .collect();
            let packed: Vec<u64> = built.packed.iter().map(|p| p.to_bits()).collect();
            assert_eq!(packed, lower, "{exp}");
        }
    }

    #[test]
    fn propagator_is_built_on_the_first_step_and_only_for_small_networks() {
        let stack = Experiment::Exp2.stack();
        let p = core_power_vector(&stack, 2.0);
        for (grid, propagated) in [(4, true), (8, false)] {
            let cfg = ThermalConfig::paper_default().with_grid(grid, grid);
            let mut model = ThermalModel::new(&stack, cfg);
            assert_eq!(model.network.node_count() <= PROPAGATOR_MAX_DIM, propagated);
            model.initialize_steady_state(&p);
            assert!(model.implicit.propagators.0.is_empty(), "{grid}x{grid}: built before a step");
            for dt in [0.1, 0.1, 0.05] {
                model.step(dt);
            }
            let (built, factors) =
                (model.implicit.propagators.0.len(), model.implicit.steps.0.len());
            if propagated {
                assert_eq!(built, 2, "one propagator per distinct dt");
                assert_eq!(factors, 0, "step factors are released once their propagator exists");
            } else {
                assert_eq!((built, factors), (0, 2), "130 nodes stay on the sparse substeps");
            }
            assert_eq!(model.factorization_count(), 3, "{grid}x{grid}: steady + one per dt");
        }
        // The explicit integrator never builds one either.
        let cfg = ThermalConfig::paper_default().with_grid(4, 4);
        let mut rk4 = ThermalModel::new(&stack, cfg.with_integrator(Integrator::ExplicitRk4));
        rk4.set_block_powers(&p);
        rk4.step(0.1);
        assert!(rk4.implicit.propagators.0.is_empty() && rk4.implicit.steady.is_none());
    }

    #[test]
    fn total_power_tracks_assignment() {
        let (stack, mut model) = small_model(Experiment::Exp2);
        let p = core_power_vector(&stack, 1.5);
        model.set_block_powers(&p);
        assert!((model.total_power() - 12.0).abs() < 1e-9);
    }
}
