//! Run-scoped sharing of symbolic analyses, numeric factors and tick
//! propagators across thermal models.
//!
//! A sweep routinely runs hundreds of cells whose thermal models are
//! *identical* — same experiment, stack order, TSV variant, grid and
//! integrator — differing only in policies, sensors or seeds, none of
//! which touch the RC network. Without sharing, every such cell redoes
//! the same symbolic analysis, the same numeric factorizations and, on
//! small networks, the same tick-propagator builds.
//! A [`FactorShare`] is a lock-light, clonable handle the sweep runner
//! creates per distinct model fingerprint and attaches to every
//! matching cell's model ([`crate::ThermalModel::set_factor_share`]):
//! the first model to need the analysis, a factor or a propagator
//! computes it *under the share lock* (so it is computed exactly once,
//! regardless of scheduling), and every other model waits and adopts
//! the finished `Arc`.
//!
//! The lock is held only to adopt or to compute a missing entry; after
//! warm-up each cell takes it a handful of times total (once per
//! distinct factor key), so contention is negligible next to the
//! simulation work. Determinism is unaffected: adopted factors and
//! propagators are bit-identical to what the adopting model would have
//! computed itself, because the numeric phases and the propagator
//! builds are deterministic functions of the (identical) assembled
//! systems.

use std::sync::{Arc, Mutex, MutexGuard};

use crate::model::Propagator;
use crate::sparse::factor::{LdlFactor, Symbolic};

/// Shared factor state for one thermal-model fingerprint. Cloning the
/// handle shares the underlying state (it is an `Arc` internally).
#[derive(Debug, Clone, Default)]
pub struct FactorShare {
    inner: Arc<Mutex<ShareState>>,
}

/// The guarded state: one symbolic analysis, the steady-state factor
/// of `G`, and one factor per distinct implicit substep size or, on
/// small networks, one tick propagator per distinct tick length.
#[derive(Debug, Default)]
pub(crate) struct ShareState {
    pub(crate) symbolic: Option<Arc<Symbolic>>,
    pub(crate) steady: Option<Arc<LdlFactor>>,
    /// `(h_bits, factor)` per distinct substep size, insertion order.
    pub(crate) steps: Vec<(u64, Arc<LdlFactor>)>,
    /// `(dt_bits, propagator)` per distinct tick length, insertion
    /// order. The step factor each was built from is not kept.
    pub(crate) propagators: Vec<(u64, Arc<Propagator>)>,
    /// Symbolic analyses actually computed (not adopted) through this
    /// share — exactly 1 once any model has factored.
    pub(crate) symbolic_analyses: usize,
    /// Numeric factorizations actually computed through this share —
    /// exactly one per distinct factor or propagator key.
    pub(crate) factorizations: usize,
    /// Factor and propagator adoptions served from the share instead of
    /// recomputed.
    pub(crate) hits: usize,
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

    /// Symbolic analyses computed through this share (1 once warm).
    #[must_use]
    pub fn symbolic_analyses(&self) -> usize {
        self.lock().symbolic_analyses
    }

    /// Numeric factorizations computed through this share (one per
    /// distinct steady, substep-size or tick-length key).
    #[must_use]
    pub fn factorizations(&self) -> usize {
        self.lock().factorizations
    }

    /// Factor and propagator requests served by adoption instead of
    /// recomputation.
    #[must_use]
    pub fn hits(&self) -> usize {
        self.lock().hits
    }

    /// Distinct factors and propagators currently held (steady plus
    /// one per step size).
    #[must_use]
    pub fn factors_cached(&self) -> usize {
        let s = self.lock();
        s.steps.len() + s.propagators.len() + usize::from(s.steady.is_some())
    }
}
