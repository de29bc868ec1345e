//! Dynamic thermal management policies for 3D multicore systems — the
//! behavioural heart of the `therm3d` reproduction of
//! "Dynamic Thermal Management in 3D Multicore Architectures"
//! (Coskun et al., DATE 2009).
//!
//! The crate provides:
//!
//! - the multi-queue scheduler substrate ([`queue::MultiQueue`]) with
//!   1 ms-cost job migration,
//! - the [`Policy`] trait (placement + per-tick control),
//! - every policy the paper evaluates: [`DefaultPolicy`] (load
//!   balancing), [`CGate`], [`DvfsTt`], [`DvfsUtil`], [`DvfsFlp`],
//!   [`Migration`], [`AdaptivePolicy::adapt_rand`],
//!   [`AdaptivePolicy::adapt3d`] (the paper's contribution), the
//!   [`HybridPolicy`] combinations, and the [`DpmWrapper`] fixed-timeout
//!   sleep layer,
//! - a [`PolicyKind`] registry keyed by the labels of Figures 3–6.
//!
//! # Quick start
//!
//! ```
//! use therm3d_floorplan::Experiment;
//! use therm3d_policies::PolicyKind;
//!
//! let stack = Experiment::Exp3.stack();
//! let mut policy = PolicyKind::Adapt3d.build(&stack, 0xACE1);
//! assert_eq!(policy.name(), "Adapt3D");
//! ```

// Stdout carries the reports: a library writes diagnostics to stderr.
#![warn(clippy::print_stdout)]

pub mod adaptive;
pub mod baseline;
pub mod dpm;
pub mod dvfs;
pub mod hybrid;
pub mod lfsr;
pub mod migration;
pub mod policy;
pub mod queue;
pub mod registry;

pub use adaptive::{AdaptiveConfig, AdaptivePolicy};
pub use baseline::DefaultPolicy;
pub use dpm::DpmWrapper;
pub use dvfs::{CGate, DvfsFlp, DvfsTt, DvfsUtil, DEFAULT_THRESHOLD_C};
pub use hybrid::HybridPolicy;
pub use lfsr::Lfsr16;
pub use migration::Migration;
pub use policy::{ControlDecision, CoreCommand, Observation, Policy, QueueHint};
pub use queue::{MultiQueue, ResidentJob, MIGRATION_COST_S};
pub use registry::{ParsePolicyError, PolicyKind};

impl Policy for Box<dyn Policy> {
    fn name(&self) -> &str {
        (**self).name()
    }

    fn place_job(
        &mut self,
        job: &therm3d_workload::Job,
        obs: &Observation<'_>,
        queue_hint: &QueueHint<'_>,
    ) -> therm3d_floorplan::CoreId {
        (**self).place_job(job, obs, queue_hint)
    }

    fn control(&mut self, obs: &Observation<'_>) -> ControlDecision {
        (**self).control(obs)
    }
}
