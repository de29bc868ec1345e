//! Aggregated results of one simulation run.

use std::fmt;

use therm3d_floorplan::Experiment;
use therm3d_metrics::PerformanceStats;

/// The hottest peak a [`RunResult`] may report, °C: silicon melts at
/// 1 414 °C, so a hotter peak can only come from a diverged simulation.
pub const PEAK_CEILING_C: f64 = 1414.0;

/// Everything a figure needs from one (experiment, policy, workload) run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Policy name (figure label).
    pub policy: String,
    /// The simulated 3D system.
    pub experiment: Experiment,
    /// Simulated wall time, seconds.
    pub duration_s: f64,
    /// % of core-time above the hot-spot threshold (Figures 3–4).
    pub hotspot_pct: f64,
    /// % of intervals with a per-layer gradient above threshold (Fig. 5).
    pub gradient_pct: f64,
    /// % of sliding-window ΔT samples above threshold (Figure 6).
    pub cycle_pct: f64,
    /// Worst vertical (inter-layer) gradient seen, °C (Section V-C's
    /// TSV-stress check; the paper reports "a few degrees only").
    pub vertical_peak_c: f64,
    /// Mean vertical gradient, °C.
    pub vertical_mean_c: f64,
    /// Hottest core temperature seen, °C.
    pub peak_temp_c: f64,
    /// Job completion statistics.
    pub perf: PerformanceStats,
    /// Total energy, joules.
    pub energy_j: f64,
    /// Mean chip power, W.
    pub mean_power_w: f64,
    /// Total job migrations performed.
    pub migrations: u64,
    /// Jobs left unfinished when the run ended (should be 0 unless the
    /// drain cap was hit).
    pub unfinished: usize,
}

impl RunResult {
    /// Checks that the result is physical for a chip simulated at
    /// `ambient_c`: every float is finite, the three percentages lie in
    /// [0, 100], `peak_temp_c` lies between ambient and
    /// [`PEAK_CEILING_C`], `0 ≤ vertical_mean_c ≤ vertical_peak_c`, the
    /// energy, power and turnarounds are not negative, and
    /// `duration_s` is positive.
    ///
    /// # Errors
    ///
    /// Names the first field that breaks a rule, with its value.
    pub fn check(&self, ambient_c: f64) -> Result<(), String> {
        let perf = &self.perf;
        let floats = [
            ("duration_s", self.duration_s),
            ("hotspot_pct", self.hotspot_pct),
            ("gradient_pct", self.gradient_pct),
            ("cycle_pct", self.cycle_pct),
            ("vertical_peak_c", self.vertical_peak_c),
            ("vertical_mean_c", self.vertical_mean_c),
            ("peak_temp_c", self.peak_temp_c),
            ("mean_turnaround_s", perf.mean_turnaround_s),
            ("max_turnaround_s", perf.max_turnaround_s),
            ("total_turnaround_s", perf.total_turnaround_s),
            ("energy_j", self.energy_j),
            ("mean_power_w", self.mean_power_w),
        ];
        if let Some((name, value)) = floats.iter().find(|(_, v)| !v.is_finite()) {
            return Err(format!("{name} is {value}, not finite"));
        }
        let percentages = [
            ("hotspot_pct", self.hotspot_pct),
            ("gradient_pct", self.gradient_pct),
            ("cycle_pct", self.cycle_pct),
        ];
        if let Some((name, value)) = percentages.iter().find(|(_, v)| !(0.0..=100.0).contains(v)) {
            return Err(format!("{name} is {value}, outside [0, 100]"));
        }
        if !(ambient_c..=PEAK_CEILING_C).contains(&self.peak_temp_c) {
            return Err(format!(
                "peak_temp_c is {}, outside ambient {ambient_c} to {PEAK_CEILING_C} °C",
                self.peak_temp_c
            ));
        }
        if !(0.0 <= self.vertical_mean_c && self.vertical_mean_c <= self.vertical_peak_c) {
            return Err(format!(
                "vertical_mean_c is {}, outside 0 to vertical_peak_c {}",
                self.vertical_mean_c, self.vertical_peak_c
            ));
        }
        let non_negative = [
            ("energy_j", self.energy_j),
            ("mean_power_w", self.mean_power_w),
            ("mean_turnaround_s", perf.mean_turnaround_s),
            ("max_turnaround_s", perf.max_turnaround_s),
            ("total_turnaround_s", perf.total_turnaround_s),
        ];
        if let Some((name, value)) = non_negative.iter().find(|(_, v)| *v < 0.0) {
            return Err(format!("{name} is {value}, negative"));
        }
        if self.duration_s <= 0.0 {
            return Err(format!("duration_s is {}, not positive", self.duration_s));
        }
        Ok(())
    }

    /// Throughput-normalized performance against a baseline run
    /// (1.0 = same speed; Figure 3's right axis).
    #[must_use]
    pub fn normalized_performance_vs(&self, baseline: &RunResult) -> f64 {
        self.perf.normalized_vs(&baseline.perf)
    }

    /// A fixed-width table row (used by the figure binaries).
    #[must_use]
    pub fn table_row(&self) -> String {
        format!(
            "{:<18} {:>8.2} {:>8.2} {:>8.2} {:>8.1} {:>9.3} {:>10.0} {:>7}",
            self.policy,
            self.hotspot_pct,
            self.gradient_pct,
            self.cycle_pct,
            self.peak_temp_c,
            self.perf.mean_turnaround_s,
            self.energy_j,
            self.migrations,
        )
    }

    /// The header matching [`table_row`](Self::table_row).
    #[must_use]
    pub fn table_header() -> String {
        format!(
            "{:<18} {:>8} {:>8} {:>8} {:>8} {:>9} {:>10} {:>7}",
            "policy", "hot%", "grad%", "cycle%", "peakC", "turn_s", "energy_J", "migr"
        )
    }
}

impl fmt::Display for RunResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} on {}: hot {:.2}%, grad {:.2}%, cycles {:.2}%, peak {:.1} °C, \
             {} jobs done (mean {:.3} s), {:.0} J",
            self.policy,
            self.experiment,
            self.hotspot_pct,
            self.gradient_pct,
            self.cycle_pct,
            self.peak_temp_c,
            self.perf.completed,
            self.perf.mean_turnaround_s,
            self.energy_j
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(policy: &str, mean_turn: f64) -> RunResult {
        RunResult {
            policy: policy.to_owned(),
            experiment: Experiment::Exp1,
            duration_s: 60.0,
            hotspot_pct: 10.0,
            gradient_pct: 5.0,
            cycle_pct: 2.0,
            vertical_peak_c: 4.0,
            vertical_mean_c: 2.0,
            peak_temp_c: 92.0,
            perf: PerformanceStats::from_accumulated(1, mean_turn, mean_turn),
            energy_j: 3600.0,
            mean_power_w: 60.0,
            migrations: 4,
            unfinished: 0,
        }
    }

    #[test]
    fn normalized_performance() {
        let base = result("Default", 1.0);
        let slow = result("CGate", 1.25);
        assert!((slow.normalized_performance_vs(&base) - 0.8).abs() < 1e-12);
    }

    #[test]
    fn table_row_alignment() {
        let r = result("Adapt3D", 0.5);
        assert_eq!(
            RunResult::table_header().split_whitespace().count(),
            r.table_row().split_whitespace().count()
        );
    }

    #[test]
    fn a_physical_result_passes_the_check() {
        assert_eq!(result("Default", 1.0).check(45.0), Ok(()));
    }

    /// The check's verdict on `result("Default", 1.0)` after `edit`.
    fn checked(edit: impl FnOnce(&mut RunResult)) -> Result<(), String> {
        let mut r = result("Default", 1.0);
        edit(&mut r);
        r.check(45.0)
    }

    #[test]
    fn every_float_must_be_finite() {
        let edits: [fn(&mut RunResult); 12] = [
            |r| r.duration_s = f64::INFINITY,
            |r| r.hotspot_pct = f64::NAN,
            |r| r.gradient_pct = f64::NAN,
            |r| r.cycle_pct = f64::NAN,
            |r| r.vertical_peak_c = f64::INFINITY,
            |r| r.vertical_mean_c = f64::NAN,
            |r| r.peak_temp_c = f64::NAN,
            |r| r.perf.mean_turnaround_s = f64::NAN,
            |r| r.perf.max_turnaround_s = f64::INFINITY,
            |r| r.perf.total_turnaround_s = f64::NAN,
            |r| r.energy_j = f64::NEG_INFINITY,
            |r| r.mean_power_w = f64::NAN,
        ];
        for edit in edits {
            let err = checked(edit).expect_err("a non-finite field must fail");
            assert!(err.contains("not finite"), "{err}");
        }
    }

    #[test]
    fn percentages_lie_between_0_and_100() {
        for edit in [
            |r: &mut RunResult| r.hotspot_pct = -0.1,
            |r: &mut RunResult| r.gradient_pct = 100.5,
            |r: &mut RunResult| r.cycle_pct = -1.0,
        ] {
            let err = checked(edit).expect_err("an out-of-range percentage must fail");
            assert!(err.contains("outside [0, 100]"), "{err}");
        }
        assert_eq!(checked(|r| r.hotspot_pct = 100.0), Ok(()));
        assert_eq!(checked(|r| r.cycle_pct = 0.0), Ok(()));
    }

    #[test]
    fn peak_lies_between_ambient_and_the_ceiling() {
        assert!(checked(|r| r.peak_temp_c = 44.9).is_err(), "below ambient");
        assert!(checked(|r| r.peak_temp_c = PEAK_CEILING_C + 1.0).is_err(), "above the ceiling");
        assert_eq!(checked(|r| r.peak_temp_c = 45.0), Ok(()));
        assert_eq!(checked(|r| r.peak_temp_c = PEAK_CEILING_C), Ok(()));
    }

    #[test]
    fn vertical_mean_lies_between_0_and_the_peak() {
        assert!(checked(|r| r.vertical_mean_c = -0.5).is_err(), "negative mean");
        assert!(checked(|r| r.vertical_mean_c = r.vertical_peak_c + 0.1).is_err(), "above peak");
        assert_eq!(checked(|r| r.vertical_mean_c = r.vertical_peak_c), Ok(()));
    }

    #[test]
    fn energy_power_and_turnarounds_are_not_negative() {
        let edits: [fn(&mut RunResult); 5] = [
            |r| r.energy_j = -1.0,
            |r| r.mean_power_w = -0.1,
            |r| r.perf.mean_turnaround_s = -1.0,
            |r| r.perf.max_turnaround_s = -1.0,
            |r| r.perf.total_turnaround_s = -1.0,
        ];
        for edit in edits {
            let err = checked(edit).expect_err("a negative quantity must fail");
            assert!(err.contains("negative"), "{err}");
        }
    }

    #[test]
    fn duration_must_be_positive() {
        assert!(checked(|r| r.duration_s = 0.0).is_err());
        assert!(checked(|r| r.duration_s = -1.0).is_err());
    }

    #[test]
    fn display_mentions_key_fields() {
        let r = result("Migr", 0.5);
        let s = r.to_string();
        assert!(s.contains("Migr") && s.contains("EXP-1"));
    }
}
