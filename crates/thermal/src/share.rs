//! Run-scoped sharing of one thermal model across the sweep cells that
//! simulate it: the die stack, the assembled RC network, the symbolic
//! analysis, the numeric factors and, on small networks, the
//! eigenbasis.
//!
//! A sweep routinely runs hundreds of cells whose thermal models are
//! *identical* — same experiment, stack order, TSV variant, grid and
//! integrator — differing only in policies, sensors or seeds, none of
//! which touch the RC network. Without sharing, every such cell builds
//! the same stack and network and redoes the same symbolic analysis,
//! the same numeric factorizations and, on small networks, the same
//! eigendecomposition.
//! A [`FactorShare`] is a lock-light, clonable handle the sweep runner
//! creates per distinct model fingerprint. The first cell to ask it for
//! the model ([`FactorShare::model`]) builds the stack and the network
//! *under the share lock*, and every sibling adopts both as `Arc`s. Each
//! cell's [`ThermalModel`](crate::ThermalModel) receives the share at
//! construction ([`ThermalModel::from_share`](crate::ThermalModel::from_share))
//! and treats the analysis, each factor and the eigenbasis the same
//! way: the first model to need one computes it under the lock (so it
//! is computed exactly once, regardless of scheduling), and every other
//! model waits and adopts the finished `Arc`. Steady states are shared
//! the same way: the share memoizes the node temperatures of the last
//! few steady solves, keyed by the exact bits of their block powers, so
//! the idle steady state every cell of a group starts from is solved
//! once per group and copied into every later cell.
//!
//! The lock is held only to adopt or to compute a missing entry; after
//! warm-up each cell takes it a handful of times total (once per
//! distinct factor key), so contention is negligible next to the
//! simulation work. Determinism is unaffected: adopted networks,
//! factors and eigenbases are bit-identical to what the adopting model
//! would have computed itself, because the assembly, the numeric phases
//! and the decomposition are deterministic functions of the model's
//! inputs, and so are the memoized steady states.
//! [`FactorShare::release`] drops all of it once the last cell of a
//! group is done, keeping only the counters.

use std::sync::{Arc, Mutex, MutexGuard};

use therm3d_floorplan::{Experiment, Stack3d, StackOrder};

use crate::config::ThermalConfig;
use crate::modal::Eigenbasis;
use crate::network::RcNetwork;
use crate::sparse::factor::{LdlFactor, Symbolic};

/// Steady states a share memoizes at most, oldest evicted first. A
/// simulator's idle initialization solves three, one per power →
/// temperature iteration, and every cell of a group solves the same
/// three.
pub(crate) const MAX_STEADY_STATES: usize = 4;

/// Shared model state for one thermal-model fingerprint. Cloning the
/// handle shares the underlying state (it is an `Arc` internally).
#[derive(Debug, Clone, Default)]
pub struct FactorShare {
    inner: Arc<Mutex<ShareState>>,
}

/// The guarded state: the model, one symbolic analysis, the
/// steady-state factor of `G`, and one factor per distinct implicit
/// substep size or, on small networks, the one eigenbasis that serves
/// every tick length.
#[derive(Debug, Default)]
pub(crate) struct ShareState {
    /// The stack and network, with what they were built from.
    model: Option<HeldModel>,
    pub(crate) symbolic: Option<Arc<Symbolic>>,
    pub(crate) steady: Option<Arc<LdlFactor>>,
    /// `(h_bits, factor)` per distinct substep size, insertion order.
    pub(crate) steps: Vec<(u64, Arc<LdlFactor>)>,
    /// The eigenbasis of a network of at most 128 nodes.
    pub(crate) eigenbasis: Option<Arc<Eigenbasis>>,
    /// Memoized steady states, oldest first.
    pub(crate) steady_states: Vec<SteadyState>,
    /// Steady states solved (not copied from the memo) through this
    /// share.
    steady_solves: usize,
    /// Networks built (not adopted) through this share — exactly 1 once
    /// any cell has asked for the model.
    network_builds: usize,
    /// Symbolic analyses actually computed (not adopted) through this
    /// share — exactly 1 once any model has factored.
    pub(crate) symbolic_analyses: usize,
    /// Numeric factorizations actually computed through this share —
    /// exactly one per distinct factor key, the eigenbasis counting as
    /// one.
    pub(crate) factorizations: usize,
    /// Factor and eigenbasis adoptions served from the share instead of
    /// recomputed.
    pub(crate) hits: usize,
}

/// A steady state a share memoizes.
#[derive(Debug)]
pub(crate) struct SteadyState {
    /// The bits of the block powers it was solved under.
    power_bits: Box<[u64]>,
    /// The node temperatures, K.
    temps_k: Box<[f64]>,
}

/// The model a share holds and the inputs that fix it.
#[derive(Debug)]
struct HeldModel {
    experiment: Experiment,
    order: StackOrder,
    config: ThermalConfig,
    stack: Arc<Stack3d>,
    network: Arc<RcNetwork>,
}

impl FactorShare {
    /// A fresh, empty share.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Locks the state. A cell that panicked mid-factor (the sweep
    /// runner catches unwinds) must not wedge every sibling cell, so a
    /// poisoned lock is recovered rather than propagated.
    pub(crate) fn lock(&self) -> MutexGuard<'_, ShareState> {
        self.inner.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// The stack of `experiment` in `order` and its grid network under
    /// `config` ([`RcNetwork::build`]). The first call builds both under
    /// the share lock; every later one adopts them.
    ///
    /// # Panics
    ///
    /// Panics, naming both models, if the share holds the model of
    /// another experiment, stack order or thermal configuration; also
    /// if `config` is invalid (see [`ThermalConfig::validate`]).
    #[must_use]
    pub fn model(
        &self,
        experiment: Experiment,
        order: StackOrder,
        config: &ThermalConfig,
    ) -> (Arc<Stack3d>, Arc<RcNetwork>) {
        let mut state = self.lock();
        let state = &mut *state;
        let held = state.model.get_or_insert_with(|| {
            let stack = experiment.stack_with_order(order);
            let network = RcNetwork::build(&stack, config);
            state.network_builds += 1;
            HeldModel {
                experiment,
                order,
                config: config.clone(),
                stack: Arc::new(stack),
                network: Arc::new(network),
            }
        });
        if (held.experiment, held.order, &held.config) != (experiment, order, config) {
            let (held_exp, held_order, held_config) = (held.experiment, held.order, &held.config);
            panic!(
                "factor share holds the model of {held_exp} ({held_order}, {held_config:?}) \
                 but was asked for {experiment} ({order}, {config:?})"
            );
        }
        (Arc::clone(&held.stack), Arc::clone(&held.network))
    }

    /// Fills `temps` with the steady node temperatures under `powers`.
    /// They are copied when the share holds a steady state solved under
    /// the same powers, bit for bit; else `solve` computes them under
    /// the share lock, and the share memoizes them.
    pub(crate) fn steady_state(
        &self,
        powers: &[f64],
        temps: &mut [f64],
        solve: impl FnOnce(&mut [f64]),
    ) {
        let mut state = self.lock();
        let bits = || powers.iter().map(|p| p.to_bits());
        if let Some(memo) =
            state.steady_states.iter().find(|m| m.power_bits.iter().copied().eq(bits()))
        {
            temps.copy_from_slice(&memo.temps_k);
            return;
        }
        solve(temps);
        state.steady_solves += 1;
        if state.steady_states.len() == MAX_STEADY_STATES {
            state.steady_states.remove(0);
        }
        state
            .steady_states
            .push(SteadyState { power_bits: bits().collect(), temps_k: temps.into() });
    }

    /// Drops the model, every solver product and every memoized steady
    /// state the share holds, keeping its counters: the sweep runner
    /// calls it once the last cell of the share's group is done. A later
    /// [`model`](Self::model) builds afresh.
    pub fn release(&self) {
        let mut state = self.lock();
        *state = ShareState {
            network_builds: state.network_builds,
            symbolic_analyses: state.symbolic_analyses,
            factorizations: state.factorizations,
            hits: state.hits,
            steady_solves: state.steady_solves,
            ..ShareState::default()
        };
    }

    /// Networks built through this share: 1 once any cell has asked for
    /// the model, and one more for each model asked for after a
    /// [`release`](Self::release).
    #[must_use]
    pub fn network_builds(&self) -> usize {
        self.lock().network_builds
    }

    /// Symbolic analyses computed through this share (1 once warm).
    #[must_use]
    pub fn symbolic_analyses(&self) -> usize {
        self.lock().symbolic_analyses
    }

    /// Numeric factorizations computed through this share (one per
    /// distinct steady or substep-size key, plus one eigenbasis).
    #[must_use]
    pub fn factorizations(&self) -> usize {
        self.lock().factorizations
    }

    /// Factor and eigenbasis requests served by adoption instead of
    /// recomputation. Adopting the stack, the network or a memoized
    /// steady state is not one.
    #[must_use]
    pub fn hits(&self) -> usize {
        self.lock().hits
    }

    /// Steady states solved through this share; a steady state copied
    /// from the share's memo is not one.
    #[must_use]
    pub fn steady_solves(&self) -> usize {
        self.lock().steady_solves
    }

    /// Distinct factors and eigenbases currently held (steady, one per
    /// step size, and the eigenbasis).
    #[must_use]
    pub fn factors_cached(&self) -> usize {
        let s = self.lock();
        s.steps.len() + usize::from(s.eigenbasis.is_some()) + usize::from(s.steady.is_some())
    }
}
