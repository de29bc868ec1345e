//! Thermal reliability and performance metrics for the `therm3d`
//! reproduction of "Dynamic Thermal Management in 3D Multicore
//! Architectures" (Coskun et al., DATE 2009).
//!
//! One streaming tracker per evaluation quantity:
//!
//! - [`HotSpotTracker`] — % of core-time above 85 °C (Figures 3–4),
//! - [`SpatialGradientTracker`] + [`max_layer_gradient`] — % of time the
//!   worst per-layer gradient exceeds 15 °C (Figure 5),
//! - [`ThermalCycleTracker`] — % of sliding-window ΔT samples above 20 °C
//!   (Figure 6),
//! - [`PerformanceStats`] — job turnaround and delay vs the baseline
//!   (Section V-A), and [`EnergyMeter`] for DPM energy accounting,
//! - [`VerticalGradientTracker`] + [`max_vertical_gradient`] — the
//!   inter-layer (TSV-stress) gradients Section V-C investigates.
//!
//! The crate is dependency-free; the simulation engine feeds it plain
//! slices each sampling interval.

// Stdout carries the reports: a library writes diagnostics to stderr.
#![warn(clippy::print_stdout)]

pub mod cycles;
pub mod gradients;
pub mod hotspots;
pub mod performance;
pub mod vertical;

pub use cycles::ThermalCycleTracker;
pub use gradients::{max_layer_gradient, SpatialGradientTracker};
pub use hotspots::HotSpotTracker;
pub use performance::{EnergyMeter, PerformanceStats};
pub use vertical::{max_vertical_gradient, VerticalGradientTracker};
