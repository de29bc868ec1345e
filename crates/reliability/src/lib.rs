//! Temperature-driven reliability models for the `therm3d` reproduction
//! of "Dynamic Thermal Management in 3D Multicore Architectures"
//! (Coskun et al., DATE 2009).
//!
//! The paper motivates dynamic thermal management with the failure
//! mechanisms of JEDEC JEP122C \[13\]: hot spots accelerate
//! **electromigration**, stress migration and dielectric breakdown;
//! temperature **cycling** fatigues metallic structures (a ΔT increase
//! from 10 °C to 20 °C makes failures 16× more frequent); and sustained
//! high temperature degrades devices through **NBTI**. The paper itself
//! stops at the thermal metrics; this crate closes the loop by turning a
//! simulated temperature history into the standard reliability figures:
//!
//! - [`ArrheniusModel`] / [`BlackModel`] — steady-temperature
//!   acceleration factors and electromigration MTTF ratios,
//! - [`rainflow_half_cycles`] + [`CoffinManson`] — cycle extraction and
//!   fatigue damage (Miner's rule) from a temperature series,
//! - [`NbtiModel`] — threshold-shift proxy for timing degradation,
//! - [`ReliabilityReport`] — the per-core roll-up the examples print.
//!
//! All models report **relative** factors against a reference operating
//! point rather than absolute lifetimes, which is how architecture-level
//! studies (RAMP \[24\]) use them.
//!
//! # Quick start
//!
//! ```
//! use therm3d_reliability::ReliabilityReport;
//!
//! // A core cycling between 60 and 90 °C every 20 samples (0.1 s each).
//! let series: Vec<f64> =
//!     (0..2000).map(|i| if (i / 20) % 2 == 0 { 60.0 } else { 90.0 }).collect();
//! let report = ReliabilityReport::from_series(&series, 0.1);
//! assert!(report.em_acceleration > 1.0, "hot core ages faster than the 60 °C reference");
//! assert!(report.cycling_damage_per_hour > 0.0);
//! ```

// Stdout carries the reports: a library writes diagnostics to stderr.
#![warn(clippy::print_stdout)]

pub mod arrhenius;
pub mod cycling;
pub mod nbti;
pub mod report;

pub use arrhenius::{ArrheniusModel, BlackModel};
pub use cycling::{rainflow_half_cycles, CoffinManson, HalfCycle};
pub use nbti::NbtiModel;
pub use report::ReliabilityReport;

/// Boltzmann constant in eV/K, used by every Arrhenius-type model.
pub const BOLTZMANN_EV_PER_K: f64 = 8.617_333_262e-5;

/// Converts °C to kelvin.
#[must_use]
pub fn kelvin(celsius: f64) -> f64 {
    celsius + 273.15
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kelvin_offset() {
        assert!((kelvin(0.0) - 273.15).abs() < 1e-12);
        assert!((kelvin(85.0) - 358.15).abs() < 1e-12);
    }
}
