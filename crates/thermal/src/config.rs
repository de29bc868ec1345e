//! Thermal model configuration (paper Table II plus HotSpot-like package
//! defaults).

use std::fmt;
use std::str::FromStr;

use crate::material::Material;
use crate::tsv::TsvSpec;

/// Transient time-integration scheme for [`ThermalModel::step`].
///
/// [`ThermalModel::step`]: crate::ThermalModel::step
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Integrator {
    /// Implicit Crank–Nicolson-based stepping (the default): the
    /// one-step TR-BDF2 composite — a trapezoidal (CN) stage followed
    /// by a BDF2 stage — whose two stages share one pre-factored
    /// `α·C + G` system per step size. L-stable, second order, and
    /// O(nnz) per tick however stiff the RC network is; networks of at
    /// most 128 nodes apply a tick's substeps mode by mode in their
    /// eigenbasis (see [`ThermalModel::step`](crate::ThermalModel::step)).
    #[default]
    ImplicitCn,
    /// Classic explicit RK4 with stability-bounded substeps — thousands
    /// of substeps per 100 ms tick on the paper's stacks. Retained as
    /// the golden reference the implicit path is cross-checked against.
    ExplicitRk4,
}

impl Integrator {
    /// Every supported integrator, in canonical order.
    pub const ALL: [Integrator; 2] = [Integrator::ImplicitCn, Integrator::ExplicitRk4];

    /// Canonical name, as accepted by [`FromStr`] and written by sweep
    /// specs (`implicit-cn`, `explicit-rk4`).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Integrator::ImplicitCn => "implicit-cn",
            Integrator::ExplicitRk4 => "explicit-rk4",
        }
    }
}

impl fmt::Display for Integrator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for Integrator {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "implicit-cn" | "implicit" | "cn" => Ok(Integrator::ImplicitCn),
            "explicit-rk4" | "rk4" | "explicit" => Ok(Integrator::ExplicitRk4),
            other => {
                Err(format!("unknown integrator `{other}` (expected implicit-cn or explicit-rk4)"))
            }
        }
    }
}

/// Parameters of the RC thermal model.
///
/// Defaults reproduce the paper's Table II and the HotSpot v4.2 default
/// package the authors used:
///
/// | Parameter | Value |
/// |---|---|
/// | Die thickness (one stack) | 0.15 mm |
/// | Interlayer material thickness | 0.02 mm |
/// | Interlayer material resistivity | 0.25 m·K/W (0.23 joint with TSVs) |
/// | Convection resistance | 0.1 K/W |
/// | Convection capacitance | 140 J/K |
///
/// # Examples
///
/// ```
/// use therm3d_thermal::ThermalConfig;
///
/// let cfg = ThermalConfig::paper_default();
/// assert_eq!(cfg.grid_rows, 8);
/// assert!((cfg.convection_resistance_kw - 0.1).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ThermalConfig {
    /// Ambient air temperature in °C (HotSpot default: 45 °C).
    pub ambient_c: f64,
    /// Thickness of each silicon die in metres (Table II: 0.15 mm).
    pub die_thickness_m: f64,
    /// Silicon properties.
    pub silicon: Material,
    /// Thickness of the inter-die interface material in metres
    /// (Table II: 0.02 mm).
    pub interlayer_thickness_m: f64,
    /// Interface material including the TSV contribution (joint
    /// resistivity 0.23 m·K/W for the paper's 1024-via configuration).
    pub interlayer: Material,
    /// Thermal-interface-material thickness between the bottom die and
    /// the heat spreader, in metres (HotSpot v4.2 default: 20 µm).
    pub tim_thickness_m: f64,
    /// TIM properties.
    pub tim: Material,
    /// Heat spreader edge length in metres (HotSpot default: 30 mm).
    pub spreader_side_m: f64,
    /// Heat spreader thickness in metres (HotSpot default: 1 mm).
    pub spreader_thickness_m: f64,
    /// Spreader (and sink) material.
    pub spreader: Material,
    /// Lumped resistance from the spreader node into the sink body, in
    /// K/W: spreader→sink constriction plus the sink's own conduction.
    /// 0.2 K/W reproduces the junction-to-ambient resistance (≈ 0.3 K/W
    /// with the Table II convection term) of the modest server package
    /// HotSpot's defaults describe, putting loaded 3D stacks in the
    /// neighbourhood of the paper's 85 °C threshold.
    pub spreader_to_sink_resistance_kw: f64,
    /// Convection resistance from sink to ambient, in K/W (Table II: 0.1).
    pub convection_resistance_kw: f64,
    /// Convection (sink) capacitance in J/K (Table II: 140).
    pub convection_capacitance_jk: f64,
    /// Grid rows per layer for the spatial discretization.
    pub grid_rows: usize,
    /// Grid columns per layer.
    pub grid_cols: usize,
    /// Transient integration scheme (default: pre-factored implicit).
    pub integrator: Integrator,
}

impl ThermalConfig {
    /// The exact configuration used for the paper's experiments: Table II
    /// values, the 1024-via joint interlayer resistivity of 0.23 m·K/W,
    /// and an 8×8 grid per layer.
    #[must_use]
    pub fn paper_default() -> Self {
        Self {
            ambient_c: 45.0,
            die_thickness_m: 0.15e-3,
            silicon: Material::SILICON,
            interlayer_thickness_m: 0.02e-3,
            interlayer: TsvSpec::paper_default().joint_material(),
            tim_thickness_m: 20.0e-6,
            // HotSpot's default interface thickness with a slightly
            // stiffer k = 2 W/(m·K) (2009-era filled epoxies); this sets
            // the per-cell junction-to-spreader constriction.
            tim: Material::new(2.0, 4.0e6),
            spreader_side_m: 30.0e-3,
            spreader_thickness_m: 1.0e-3,
            spreader: Material::COPPER,
            spreader_to_sink_resistance_kw: 0.2,
            convection_resistance_kw: 0.1,
            convection_capacitance_jk: 140.0,
            grid_rows: 8,
            grid_cols: 8,
            integrator: Integrator::default(),
        }
    }

    /// Returns the configuration with a different grid resolution
    /// (accuracy/performance trade-off; the figures use 8×8).
    ///
    /// # Panics
    ///
    /// Panics if `rows` or `cols` is zero.
    #[must_use]
    pub fn with_grid(mut self, rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "grid must have at least one cell");
        self.grid_rows = rows;
        self.grid_cols = cols;
        self
    }

    /// Returns the configuration with a different interlayer material
    /// (e.g. from a custom [`TsvSpec`]).
    #[must_use]
    pub fn with_interlayer(mut self, interlayer: Material) -> Self {
        self.interlayer = interlayer;
        self
    }

    /// Returns the configuration with the interlayer material resolved
    /// from a named [`TsvVariant`](crate::tsv::TsvVariant) — the hook the scenario sweep axes
    /// use to rebuild the RC network per variant instead of the
    /// hard-coded paper joint material.
    #[must_use]
    pub fn with_tsv(self, variant: crate::tsv::TsvVariant) -> Self {
        self.with_interlayer(variant.joint_material())
    }

    /// Returns the configuration with a different transient integrator
    /// (e.g. [`Integrator::ExplicitRk4`] for golden-reference runs).
    #[must_use]
    pub fn with_integrator(mut self, integrator: Integrator) -> Self {
        self.integrator = integrator;
        self
    }

    /// Validates parameter sanity; called by the network builder.
    ///
    /// # Panics
    ///
    /// Panics with a descriptive message on non-physical parameters.
    pub fn validate(&self) {
        assert!(self.die_thickness_m > 0.0, "die thickness must be positive");
        assert!(self.interlayer_thickness_m > 0.0, "interlayer thickness must be positive");
        assert!(self.tim_thickness_m > 0.0, "TIM thickness must be positive");
        assert!(self.spreader_side_m > 0.0, "spreader side must be positive");
        assert!(self.spreader_thickness_m > 0.0, "spreader thickness must be positive");
        assert!(
            self.spreader_to_sink_resistance_kw > 0.0,
            "spreader-to-sink resistance must be positive"
        );
        assert!(self.convection_resistance_kw > 0.0, "convection resistance must be positive");
        assert!(self.convection_capacitance_jk > 0.0, "convection capacitance must be positive");
        assert!(self.grid_rows > 0 && self.grid_cols > 0, "grid must have at least one cell");
        assert!(self.ambient_c.is_finite(), "ambient temperature must be finite");
    }
}

impl Default for ThermalConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_matches_table_ii() {
        let c = ThermalConfig::paper_default();
        assert!((c.die_thickness_m - 0.15e-3).abs() < 1e-12);
        assert!((c.interlayer_thickness_m - 0.02e-3).abs() < 1e-12);
        assert!((c.convection_resistance_kw - 0.1).abs() < 1e-12);
        assert!((c.convection_capacitance_jk - 140.0).abs() < 1e-12);
        // Joint interlayer resistivity ≈ 0.23 m·K/W with the 1024-via spec.
        assert!((c.interlayer.resistivity() - 0.23).abs() < 0.005);
        c.validate();
    }

    #[test]
    fn with_grid_overrides() {
        let c = ThermalConfig::paper_default().with_grid(4, 6);
        assert_eq!((c.grid_rows, c.grid_cols), (4, 6));
    }

    #[test]
    #[should_panic(expected = "at least one cell")]
    fn zero_grid_rejected() {
        let _ = ThermalConfig::paper_default().with_grid(0, 4);
    }

    #[test]
    fn default_is_paper_default() {
        assert_eq!(ThermalConfig::default(), ThermalConfig::paper_default());
    }

    #[test]
    fn with_tsv_resolves_the_interlayer_from_the_variant() {
        use crate::tsv::TsvVariant;
        // The paper variant is exactly the hard-coded default.
        let cfg = ThermalConfig::paper_default().with_tsv(TsvVariant::Paper);
        assert_eq!(cfg, ThermalConfig::paper_default());
        // Other variants change only the interlayer material.
        let bare = ThermalConfig::paper_default().with_tsv(TsvVariant::Bare);
        assert!((bare.interlayer.resistivity() - 0.25).abs() < 1e-12);
        assert_eq!(bare.with_interlayer(cfg.interlayer), cfg);
    }

    #[test]
    fn implicit_is_the_default_integrator() {
        assert_eq!(ThermalConfig::paper_default().integrator, Integrator::ImplicitCn);
        let rk4 = ThermalConfig::paper_default().with_integrator(Integrator::ExplicitRk4);
        assert_eq!(rk4.integrator, Integrator::ExplicitRk4);
    }

    #[test]
    fn integrator_names_round_trip() {
        for integ in Integrator::ALL {
            assert_eq!(integ.name().parse::<Integrator>(), Ok(integ));
            assert_eq!(integ.to_string(), integ.name());
        }
        // Short aliases are accepted case-insensitively.
        assert_eq!("RK4".parse::<Integrator>(), Ok(Integrator::ExplicitRk4));
        assert_eq!("Implicit".parse::<Integrator>(), Ok(Integrator::ImplicitCn));
        assert!("euler".parse::<Integrator>().unwrap_err().contains("euler"));
    }
}
