//! Typed aggregation of sweep results with CSV/JSON export and
//! paper-style text rendering.
//!
//! This module is the single source of truth for `RunResult`
//! serialization: the CLI's `run --csv` output and the sweep exports
//! share [`csv_header`]/[`csv_row`].

use std::fmt::Write as _;

use therm3d::RunResult;
use therm3d_floorplan::Experiment;

use crate::matrix::SweepCell;

/// The per-result CSV columns shared by every exporter in the workspace.
pub const CSV_HEADER: &str = "policy,experiment,dpm,hot_pct,grad_pct,cycle_pct,peak_c,vertical_peak_c,mean_turnaround_s,energy_j,migrations,unfinished";

/// CSV header matching [`csv_row`].
#[must_use]
pub fn csv_header() -> &'static str {
    CSV_HEADER
}

/// The full per-cell header of [`SweepReport::csv`]: the cell
/// provenance columns, then [`CSV_HEADER`].
#[must_use]
pub fn sweep_csv_header() -> String {
    format!("cell,trace_seed,integrator,stack_order,tsv,sensor,cell_key,{CSV_HEADER}")
}

/// One CSV row for a run result.
#[must_use]
pub fn csv_row(r: &RunResult, dpm: bool) -> String {
    format!(
        "{},{},{},{:.4},{:.4},{:.4},{:.2},{:.2},{:.4},{:.1},{},{}",
        r.policy,
        r.experiment,
        dpm,
        r.hotspot_pct,
        r.gradient_pct,
        r.cycle_pct,
        r.peak_temp_c,
        r.vertical_peak_c,
        r.perf.mean_turnaround_s,
        r.energy_j,
        r.migrations,
        r.unfinished
    )
}

/// One executed cell with its result.
#[derive(Debug, Clone)]
pub struct SweepRow {
    /// Content-addressed provenance: the 16-hex-digit
    /// [`cell_key`](crate::cache::cell_key) this cell resolves to in a
    /// result cache. Deterministic for a given spec — identical whether
    /// the row was simulated or served from cache.
    pub key: String,
    /// The cell descriptor (axes + derived seeds).
    pub cell: SweepCell,
    /// The simulation outcome.
    pub result: RunResult,
    /// Per-cell cost breakdown, present only on telemetered runs
    /// ([`run_with_telemetry`](crate::run_with_telemetry)). Wall-clock
    /// data — deliberately excluded from `PartialEq`, the CSV/JSON
    /// exports and the cache codec, so telemetry can never perturb the
    /// byte-identical-report invariant.
    pub timing: Option<therm3d_telemetry::CellMetrics>,
}

/// Equality covers the deterministic payload (key, cell, result) and
/// ignores `timing`: selection-union and warm-vs-cold tests compare rows
/// across runs whose wall-clock costs legitimately differ.
impl PartialEq for SweepRow {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key && self.cell == other.cell && self.result == other.result
    }
}

/// Aggregated results of one sweep, in canonical matrix order.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepReport {
    /// The sweep's name (from the spec).
    pub name: String,
    /// One row per cell, ordered by `cell.index` (canonical matrix
    /// indices — a partial selection's rows keep their indices, they
    /// are not renumbered).
    pub rows: Vec<SweepRow>,
}

impl SweepReport {
    /// The results for one (experiment, dpm, seed-axis position) group,
    /// in the spec's policy order — the shape one figure column needs.
    ///
    /// Rows of every integrator **and every scenario combination**
    /// (stack order × TSV variant × sensor profile) on the spec's axes
    /// are included: the figure sweeps all use single-valued scenario
    /// and integrator axes, and multi-scenario campaigns (like the
    /// ported ablation binaries) filter `rows` directly — calling
    /// `group` on such a report would interleave scenarios into one
    /// column.
    #[must_use]
    pub fn group(&self, experiment: Experiment, dpm: bool, seed_index: usize) -> Vec<&RunResult> {
        self.rows
            .iter()
            .filter(|r| {
                r.cell.experiment == experiment
                    && r.cell.dpm == dpm
                    && r.cell.seed_index == seed_index
            })
            .map(|r| &r.result)
            .collect()
    }

    /// CSV export: [`sweep_csv_header`], one line per cell in canonical
    /// order. Identical for every thread count and for any cache
    /// hit/miss mix (`cell_key` is derived from the spec, not from how
    /// the row was obtained).
    #[must_use]
    pub fn csv(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{}", sweep_csv_header());
        for row in &self.rows {
            let _ = writeln!(
                out,
                "{},{},{},{},{},{},{},{}",
                row.cell.index,
                row.cell.trace_seed,
                row.cell.integrator,
                row.cell.stack_order,
                row.cell.tsv,
                row.cell.sensor,
                row.key,
                csv_row(&row.result, row.cell.dpm)
            );
        }
        out
    }

    /// JSON export: `{"name": .., "rows": [{..}, ..]}` with one object
    /// per cell. Hand-rolled (the offline dependency set has no serde);
    /// policy labels and names are escaped as JSON strings.
    #[must_use]
    pub fn json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"name\": {},", json_string(&self.name));
        out.push_str("  \"rows\": [\n");
        for (i, row) in self.rows.iter().enumerate() {
            let r = &row.result;
            let _ = write!(
                out,
                "    {{\"cell\": {}, \"cell_key\": {}, \"experiment\": {}, \"policy\": {}, \
                 \"dpm\": {}, \"integrator\": {}, \
                 \"stack_order\": {}, \"tsv\": {}, \"sensor\": {}, \
                 \"trace_seed\": {}, \"hotspot_pct\": {}, \"gradient_pct\": {}, \
                 \"cycle_pct\": {}, \"peak_temp_c\": {}, \"vertical_peak_c\": {}, \
                 \"mean_turnaround_s\": {}, \"completed\": {}, \"energy_j\": {}, \
                 \"mean_power_w\": {}, \"migrations\": {}, \"unfinished\": {}}}",
                row.cell.index,
                json_string(&row.key),
                json_string(&r.experiment.to_string()),
                json_string(&r.policy),
                row.cell.dpm,
                json_string(row.cell.integrator.name()),
                json_string(row.cell.stack_order.name()),
                json_string(row.cell.tsv.name()),
                json_string(row.cell.sensor.name()),
                row.cell.trace_seed,
                json_f64(r.hotspot_pct),
                json_f64(r.gradient_pct),
                json_f64(r.cycle_pct),
                json_f64(r.peak_temp_c),
                json_f64(r.vertical_peak_c),
                json_f64(r.perf.mean_turnaround_s),
                r.perf.completed,
                json_f64(r.energy_j),
                json_f64(r.mean_power_w),
                r.migrations,
                r.unfinished
            );
            out.push_str(if i + 1 < self.rows.len() { ",\n" } else { "\n" });
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Paper-style text rendering: one fixed-width table per
    /// (experiment, scenario, integrator, DPM, seed) group, rows in the
    /// spec's policy order, with throughput normalized to each group's
    /// first policy. Scenario and integrator qualifiers appear in the
    /// group heading only when the respective axis actually varies, so
    /// single-scenario sweeps render exactly as before.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "sweep '{}': {} cells", self.name, self.rows.len());
        let first = match self.rows.first() {
            Some(row) => &row.cell,
            None => return out,
        };
        let multi_integrator = self.rows.iter().any(|r| r.cell.integrator != first.integrator);
        let multi_order = self.rows.iter().any(|r| r.cell.stack_order != first.stack_order);
        let multi_tsv = self.rows.iter().any(|r| r.cell.tsv != first.tsv);
        let multi_sensor = self.rows.iter().any(|r| r.cell.sensor != first.sensor);
        type GroupKey = (
            Experiment,
            therm3d_floorplan::StackOrder,
            therm3d_thermal::TsvVariant,
            therm3d::SensorProfile,
            therm3d_thermal::Integrator,
            bool,
            usize,
            u64,
        );
        let mut groups: Vec<GroupKey> = Vec::new();
        for row in &self.rows {
            let key = (
                row.cell.experiment,
                row.cell.stack_order,
                row.cell.tsv,
                row.cell.sensor,
                row.cell.integrator,
                row.cell.dpm,
                row.cell.seed_index,
                row.cell.trace_seed,
            );
            if !groups.contains(&key) {
                groups.push(key);
            }
        }
        for (experiment, stack_order, tsv, sensor, integrator, dpm, seed_index, trace_seed) in
            groups
        {
            let runs: Vec<&RunResult> = self
                .rows
                .iter()
                .filter(|r| {
                    r.cell.experiment == experiment
                        && r.cell.stack_order == stack_order
                        && r.cell.tsv == tsv
                        && r.cell.sensor == sensor
                        && r.cell.integrator == integrator
                        && r.cell.dpm == dpm
                        && r.cell.seed_index == seed_index
                })
                .map(|r| &r.result)
                .collect();
            let mut qualifiers = String::new();
            if multi_order {
                let _ = write!(qualifiers, " {stack_order}");
            }
            if multi_tsv {
                let _ = write!(qualifiers, " tsv={tsv}");
            }
            if multi_sensor {
                let _ = write!(qualifiers, " sensor={sensor}");
            }
            if multi_integrator {
                let _ = write!(qualifiers, " {integrator}");
            }
            if !qualifiers.is_empty() {
                qualifiers = format!(" [{}]", qualifiers.trim_start());
            }
            let _ = writeln!(
                out,
                "\n== {experiment}{}{qualifiers} (trace seed {trace_seed})",
                if dpm { " +DPM" } else { "" },
            );
            let _ = writeln!(out, "{}", RunResult::table_header());
            let baseline = runs.first().copied();
            for r in runs {
                let norm = baseline.map_or(1.0, |b| r.normalized_performance_vs(b));
                let _ = writeln!(out, "{}  perf={norm:.3}", r.table_row());
            }
        }
        out
    }
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.6}")
    } else {
        "null".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::expand;
    use crate::spec::SweepSpec;
    use therm3d::metrics::PerformanceStats;
    use therm3d_policies::PolicyKind;

    fn fake_result(policy: &str, experiment: Experiment) -> RunResult {
        RunResult {
            policy: policy.to_owned(),
            experiment,
            duration_s: 10.0,
            hotspot_pct: 12.5,
            gradient_pct: 3.0,
            cycle_pct: 1.0,
            vertical_peak_c: 4.0,
            vertical_mean_c: 2.0,
            peak_temp_c: 91.0,
            perf: PerformanceStats::from_accumulated(2, 0.5 + 0.7, 0.7),
            energy_j: 500.0,
            mean_power_w: 50.0,
            migrations: 3,
            unfinished: 0,
        }
    }

    fn fake_report() -> SweepReport {
        let spec = SweepSpec::new("fake")
            .with_experiments(&[Experiment::Exp1])
            .with_policies(&[PolicyKind::Default, PolicyKind::Adapt3d])
            .with_dpm(&[false, true]);
        let rows = expand(&spec)
            .into_iter()
            .map(|cell| SweepRow {
                key: crate::cache::cell_key(&spec, &cell).hex(),
                result: fake_result(cell.policy.label(), cell.experiment),
                cell,
                timing: None,
            })
            .collect();
        SweepReport { name: spec.name, rows }
    }

    #[test]
    fn csv_has_header_and_one_line_per_cell() {
        let report = fake_report();
        let csv = report.csv();
        let mut lines = csv.lines();
        assert_eq!(lines.next(), Some("cell,trace_seed,integrator,stack_order,tsv,sensor,cell_key,policy,experiment,dpm,hot_pct,grad_pct,cycle_pct,peak_c,vertical_peak_c,mean_turnaround_s,energy_j,migrations,unfinished"));
        assert_eq!(lines.count(), report.rows.len());
        // Every data row carries its scenario columns and its
        // 16-hex-digit provenance key.
        for (line, row) in csv.lines().skip(1).zip(&report.rows) {
            assert_eq!(line.split(',').nth(2), Some("implicit-cn"), "{line}");
            assert_eq!(line.split(',').nth(3), Some("cores-far"), "{line}");
            assert_eq!(line.split(',').nth(4), Some("paper"), "{line}");
            assert_eq!(line.split(',').nth(5), Some("ideal"), "{line}");
            assert_eq!(line.split(',').nth(6), Some(row.key.as_str()), "{line}");
        }
    }

    #[test]
    fn render_qualifies_groups_only_when_a_scenario_axis_varies() {
        use therm3d::SensorProfile;
        use therm3d_floorplan::StackOrder;

        // Single-scenario report: headings carry no qualifier block.
        let plain = fake_report().render();
        assert!(!plain.contains('['), "{plain}");

        // A report whose stack-order and sensor axes vary names them.
        let spec = SweepSpec::new("multi")
            .with_experiments(&[Experiment::Exp1])
            .with_stack_orders(&StackOrder::ALL)
            .with_sensors(&[SensorProfile::Ideal, SensorProfile::Noisy1C])
            .with_policies(&[PolicyKind::Default]);
        let rows = expand(&spec)
            .into_iter()
            .map(|cell| SweepRow {
                key: crate::cache::cell_key(&spec, &cell).hex(),
                result: fake_result(cell.policy.label(), cell.experiment),
                cell,
                timing: None,
            })
            .collect();
        let text = SweepReport { name: spec.name, rows }.render();
        assert!(text.contains("[cores-near sensor=noisy-1c]"), "{text}");
        assert!(!text.contains("tsv="), "single-valued axes stay silent: {text}");
    }

    #[test]
    fn csv_row_field_count_matches_header() {
        let r = fake_result("Adapt3D", Experiment::Exp2);
        assert_eq!(csv_row(&r, true).split(',').count(), csv_header().split(',').count());
    }

    #[test]
    fn json_is_balanced_and_mentions_every_policy() {
        let json = fake_report().json();
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert!(json.contains("\"Adapt3D\""));
        assert!(json.contains("\"dpm\": true"));
    }

    #[test]
    fn render_groups_by_experiment_and_dpm() {
        let text = fake_report().render();
        assert!(text.contains("== EXP-1 (trace seed"));
        assert!(text.contains("== EXP-1 +DPM"));
        assert!(text.contains("Adapt3D"));
        assert!(text.contains("perf="));
    }

    #[test]
    fn group_preserves_policy_order() {
        let report = fake_report();
        let group = report.group(Experiment::Exp1, false, 0);
        assert_eq!(group.len(), 2);
        assert_eq!(group[0].policy, "Default");
        assert_eq!(group[1].policy, "Adapt3D");
    }
}
