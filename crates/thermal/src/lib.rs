//! A from-scratch 3D RC thermal simulator in the style of HotSpot v4.2's
//! grid model, built for the `therm3d` reproduction of
//! "Dynamic Thermal Management in 3D Multicore Architectures"
//! (Coskun et al., DATE 2009).
//!
//! The crate turns a [`therm3d_floorplan::Stack3d`] into an RC network:
//! each silicon layer becomes a grid of thermal cells with lateral and
//! vertical conductances, inter-die heat flows through the TSV-adjusted
//! interface material, and the package (TIM, copper spreader, heat sink,
//! convection to ambient) closes the path using the paper's Table II
//! parameters. Steady states are solved directly through a sparse LDLᵀ
//! factorization of the conductance matrix; transients default to an
//! implicit pre-factored integrator ([`Integrator::ImplicitCn`]) that
//! advances a full 100 ms tick in a few triangular solves — on small
//! networks one steady solve plus a precomputed dense propagator — with
//! stability-controlled explicit RK4 retained as the golden reference
//! ([`Integrator::ExplicitRk4`]).
//!
//! # Quick start
//!
//! ```
//! use therm3d_floorplan::Experiment;
//! use therm3d_thermal::{ThermalConfig, ThermalModel};
//!
//! let stack = Experiment::Exp2.stack();
//! let mut model = ThermalModel::new(&stack, ThermalConfig::paper_default().with_grid(4, 4));
//! let mut powers = vec![0.0; stack.num_blocks()];
//! for core in stack.core_ids() {
//!     powers[stack.core_block_index(core)] = 3.0; // active SPARC core
//! }
//! let steady = model.initialize_steady_state(&powers);
//! assert!(steady.iter().cloned().fold(f64::MIN, f64::max) > 45.0);
//! ```

pub mod block_model;
pub mod config;
pub mod grid;
pub mod material;
pub mod model;
pub mod network;
pub mod share;
pub mod sparse;
pub mod tsv;
pub mod units;

pub use block_model::BlockThermalModel;
pub use config::{Integrator, ThermalConfig};
pub use material::Material;
pub use model::ThermalModel;
pub use network::RcNetwork;
pub use share::FactorShare;
pub use tsv::{TsvSpec, TsvVariant};
