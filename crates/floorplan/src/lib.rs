//! Floorplan geometry and 3D stack construction for the `therm3d` dynamic
//! thermal management simulator.
//!
//! This crate models the *spatial* side of the DATE 2009 paper
//! "Dynamic Thermal Management in 3D Multicore Architectures"
//! (Coskun et al.): rectangles, named functional blocks, validated
//! single-layer floorplans, stacked 3D systems, and the four experimental
//! configurations (EXP-1..EXP-4) derived from the UltraSPARC T1.
//!
//! # Quick start
//!
//! ```
//! use therm3d_floorplan::Experiment;
//!
//! let stack = Experiment::Exp1.stack();
//! assert_eq!(stack.num_cores(), 8);
//! for site in stack.sites() {
//!     println!("{} is a {:?} of {:.1} mm²", site.global_name, site.kind, site.area_mm2);
//! }
//! ```
//!
//! Lengths are millimetres throughout (matching the paper's Table II); the
//! thermal crate converts to SI units internally.

// Stdout carries the reports: a library writes diagnostics to stderr.
#![warn(clippy::print_stdout)]

pub mod block;
pub mod experiment;
pub mod floorplan;
pub mod geom;
pub mod niagara;
pub mod stack;

pub use block::{Block, UnitKind};
pub use experiment::{Experiment, ParseExperimentError, StackOrder};
pub use floorplan::{BuildFloorplanError, Floorplan};
pub use geom::Rect;
pub use stack::{BlockSite, CoreId, Stack3d};
