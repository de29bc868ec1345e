//! Power, leakage, DVFS and DPM models for the `therm3d` reproduction of
//! "Dynamic Thermal Management in 3D Multicore Architectures"
//! (Coskun et al., DATE 2009).
//!
//! The crate converts scheduling state (per-core utilization, V/f level,
//! clock gating, sleep) plus the current temperature field into per-block
//! power for the thermal simulator, using the paper's Section IV-B
//! parameterization: 3 W active cores, 1.28 W L2 banks, `P ∝ f·V²` DVFS
//! scaling over three levels (100 %/95 %/85 %), activity-scaled crossbar
//! power, 0.02 W sleep state, and the second-order temperature-dependent
//! leakage model with a 0.5 W/mm² base density at 383 K.
//!
//! # Quick start
//!
//! ```
//! use therm3d_floorplan::Experiment;
//! use therm3d_power::{CorePowerInput, PowerModel, PowerParams, VfTable};
//!
//! let stack = Experiment::Exp1.stack();
//! let model = PowerModel::new(&stack, PowerParams::paper_default(), VfTable::paper_default());
//! let cores = vec![CorePowerInput::busy(); stack.num_cores()];
//! let temps = vec![70.0; stack.num_blocks()];
//! let watts = model.block_powers(&cores, &temps);
//! println!("total chip power: {:.1} W", watts.iter().sum::<f64>());
//! ```

// Stdout carries the reports: a library writes diagnostics to stderr.
#![warn(clippy::print_stdout)]

pub mod leakage;
pub mod model;
pub mod vf;

pub use leakage::LeakageModel;
pub use model::{CorePowerInput, PowerModel, PowerParams};
pub use vf::{VfLevel, VfTable};
