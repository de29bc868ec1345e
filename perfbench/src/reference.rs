//! The reference check behind `failed`: a campaign's CSV against the
//! stored reference.
//!
//! A CSV byte-identical to the reference passes outright. Otherwise it
//! is compared row by row, so that an engine change which only moves
//! rounding (a new fill-reducing ordering, say) still passes:
//!
//! - identity columns (cell, seeds, axes, policy, experiment, DPM) must
//!   match exactly; `cell_key` is skipped, since it carries the engine
//!   salt and changes with every `ENGINE_VERSION` bump;
//! - temperatures may differ by [`TEMP_TOL_C`] (the RK4-parity
//!   tolerance);
//! - percentages by [`PCT_TOL`] percentage points;
//! - `mean_turnaround_s` and `energy_j` by the relative [`REL_TOL`];
//! - counts (`migrations`, `unfinished`) by [`COUNT_TOL`].
//!
//! A row outside any tolerance counts as one failed cell; a CSV whose
//! header or row count differs fails every cell.

/// Temperature tolerance, °C.
pub const TEMP_TOL_C: f64 = 0.1;
/// Percentage tolerance, percentage points.
pub const PCT_TOL: f64 = 1.0;
/// Relative tolerance on turnaround and energy.
pub const REL_TOL: f64 = 1e-3;
/// Absolute tolerance on counts.
pub const COUNT_TOL: f64 = 1.0;

/// How one column is compared.
#[derive(Clone, Copy)]
enum Rule {
    Exact,
    Skip,
    Abs(f64),
    Rel(f64),
}

/// The rule for a column of `therm3d_sweep::sweep_csv_header()`.
fn rule(column: &str) -> Rule {
    match column {
        "cell_key" => Rule::Skip,
        "peak_c" | "vertical_peak_c" => Rule::Abs(TEMP_TOL_C),
        "hot_pct" | "grad_pct" | "cycle_pct" => Rule::Abs(PCT_TOL),
        "mean_turnaround_s" | "energy_j" => Rule::Rel(REL_TOL),
        "migrations" | "unfinished" => Rule::Abs(COUNT_TOL),
        _ => Rule::Exact,
    }
}

fn field_matches(rule: Rule, want: &str, got: &str) -> bool {
    let num = |s: &str| s.parse::<f64>().ok();
    match rule {
        Rule::Skip => true,
        Rule::Exact => want == got,
        Rule::Abs(tol) => match (num(want), num(got)) {
            (Some(a), Some(b)) => (a - b).abs() <= tol,
            _ => false,
        },
        Rule::Rel(tol) => match (num(want), num(got)) {
            (Some(a), Some(b)) => {
                (a - b).abs() <= tol * a.abs().max(b.abs()).max(f64::MIN_POSITIVE)
            }
            _ => false,
        },
    }
}

/// Compares a campaign CSV against its reference; returns
/// `(cells, failed cells)`, where `cells` is the reference's row count.
#[must_use]
pub fn compare(reference: &str, got: &str) -> (u64, u64) {
    let want_rows: Vec<&str> = reference.lines().skip(1).collect();
    let cells = want_rows.len() as u64;
    if reference == got {
        return (cells, 0);
    }
    let (Some(want_header), Some(got_header)) = (reference.lines().next(), got.lines().next())
    else {
        return (cells, cells);
    };
    let got_rows: Vec<&str> = got.lines().skip(1).collect();
    if want_header != got_header || want_rows.len() != got_rows.len() {
        return (cells, cells);
    }
    let rules: Vec<Rule> = want_header.split(',').map(rule).collect();
    let failed = want_rows
        .iter()
        .zip(&got_rows)
        .filter(|(want, got)| {
            let (w, g): (Vec<&str>, Vec<&str>) =
                (want.split(',').collect(), got.split(',').collect());
            w.len() != rules.len()
                || g.len() != rules.len()
                || !rules.iter().zip(w.iter().zip(&g)).all(|(&r, (a, b))| field_matches(r, a, b))
        })
        .count() as u64;
    (cells, failed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::Workload;

    /// Rewrites column `column` of data row `row` through `f`.
    fn perturb(csv: &str, row: usize, column: &str, f: impl Fn(f64) -> String) -> String {
        perturb_text(csv, row, column, |s| f(s.parse().unwrap()))
    }

    fn perturb_text(csv: &str, row: usize, column: &str, f: impl Fn(&str) -> String) -> String {
        let header: Vec<&str> = csv.lines().next().unwrap().split(',').collect();
        let col = header.iter().position(|c| *c == column).unwrap();
        let mut lines: Vec<String> = csv.lines().map(str::to_owned).collect();
        let mut fields: Vec<String> = lines[row + 1].split(',').map(str::to_owned).collect();
        fields[col] = f(&fields[col]);
        lines[row + 1] = fields.join(",");
        lines.join("\n") + "\n"
    }

    #[test]
    fn byte_identical_output_passes() {
        for w in Workload::ALL {
            let csv = w.reference_csv();
            let cells = csv.lines().count() as u64 - 1;
            assert_eq!(compare(csv, csv), (cells, 0), "{}", w.name());
        }
    }

    #[test]
    fn a_row_perturbed_by_two_tenths_of_a_degree_fails() {
        let csv = Workload::Scenarios.reference_csv();
        let hot = perturb(csv, 3, "peak_c", |t| format!("{:.2}", t + 0.2));
        assert_eq!(compare(csv, &hot), (16, 1));
        let vertical = perturb(csv, 0, "vertical_peak_c", |t| format!("{:.2}", t - 0.2));
        assert_eq!(compare(csv, &vertical), (16, 1));
    }

    #[test]
    fn rounding_level_drift_and_a_new_engine_salt_pass() {
        let csv = Workload::Scenarios.reference_csv();
        let drift = perturb(csv, 2, "peak_c", |t| format!("{:.2}", t + 0.05));
        let drift = perturb(&drift, 2, "energy_j", |e| format!("{:.1}", e * (1.0 + 1e-4)));
        let drift = perturb_text(&drift, 5, "cell_key", |_| "0123456789abcdef".to_owned());
        assert_ne!(drift, csv);
        assert_eq!(compare(csv, &drift), (16, 0));
    }

    #[test]
    fn identity_and_shape_mismatches_fail() {
        let csv = Workload::Scenarios.reference_csv();
        let renamed = csv.replacen("Adapt3D", "Default", 1);
        assert_eq!(compare(csv, &renamed).1, 1);
        let short: String = csv.lines().take(5).map(|l| format!("{l}\n")).collect();
        assert_eq!(compare(csv, &short), (16, 16));
        assert_eq!(compare(csv, ""), (16, 16));
    }
}
