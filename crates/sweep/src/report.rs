//! Typed aggregation of sweep results with CSV/JSON export and
//! paper-style text rendering.
//!
//! This module is the single source of truth for `RunResult`
//! serialization: the CLI's `run --csv` output and the sweep exports
//! share [`csv_header`]/[`csv_row`].

use std::fmt::Write as _;

use therm3d::RunResult;
use therm3d_floorplan::Experiment;
use therm3d_telemetry::Json;

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
    /// per cell. Laid out by hand (the offline dependency set has no
    /// serde); strings go through telemetry's [`Json`] escaper and
    /// floats keep six fixed decimals.
    #[must_use]
    pub fn json(&self) -> String {
        let string = |s: &str| Json::Str(s.to_owned()).compact();
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"name\": {},", string(&self.name));
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
                string(&row.key),
                string(&r.experiment.to_string()),
                string(&r.policy),
                row.cell.dpm,
                string(row.cell.integrator.name()),
                string(row.cell.stack_order.name()),
                string(row.cell.tsv.name()),
                string(row.cell.sensor.name()),
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
    fn json_escapes_the_name_as_before_and_parses_back() {
        let mut report = fake_report();
        report.name = "q\"b\\n\nt\tr\r\u{1}é".to_owned();
        let json = report.json();
        assert_eq!(json.lines().nth(1), Some(r#"  "name": "q\"b\\n\nt\tr\r\u0001é","#));
        let parsed = Json::parse(&json).unwrap();
        assert_eq!(parsed.get("name").and_then(Json::as_str), Some(report.name.as_str()));
    }

    /// The formatter of the deleted `fig3`..`fig6` binaries, verbatim: the
    /// oracle for the figure values [`SweepReport::render`] prints.
    fn format_figure(
        title: &str,
        metric_name: &str,
        metric: impl Fn(&RunResult) -> f64,
        results: &[(Experiment, Vec<RunResult>)],
        with_perf: bool,
    ) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "{title}");
        let _ = write!(out, "{:<20}", "policy");
        for (exp, _) in results {
            let _ = write!(out, " {:>9}", format!("{exp}"));
        }
        if with_perf {
            for (exp, _) in results {
                let _ = write!(out, " {:>10}", format!("perf:{exp}"));
            }
        }
        let _ = writeln!(out);
        for (row, kind) in PolicyKind::ALL.iter().enumerate() {
            let _ = write!(out, "{:<20}", kind.label());
            for (_, runs) in results {
                let _ = write!(out, " {:>9.2}", metric(&runs[row]));
            }
            if with_perf {
                for (_, runs) in results {
                    let norm = runs[row].normalized_performance_vs(&runs[0]);
                    let _ = write!(out, " {:>10.3}", norm);
                }
            }
            let _ = writeln!(out);
        }
        let _ = writeln!(out, "({metric_name})");
        out
    }

    /// xorshift64, so the figure test draws its values without a
    /// dependency.
    fn next(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    /// A value in [0, `below`) with `decimals` decimals, or next to the
    /// rounding edge halfway between two such values.
    fn edge_value(state: &mut u64, decimals: u32, below: u64) -> f64 {
        let steps = below * 10_u64.pow(decimals);
        let step = 1.0 / 10_u64.pow(decimals) as f64;
        (next(state) % steps) as f64 * step
            + match next(state) % 4 {
                0 => 0.0,
                1 => step / 2.0,
                2 => step / 2.0 - 1e-9,
                _ => step / 2.0 + 1e-9,
            }
    }

    /// One group of a rendered table: its heading's experiment and DPM
    /// flag, then each row's `hot%`, `grad%`, `cycle%` and `perf=` cells.
    type Group = (String, bool, Vec<[String; 4]>);

    fn table_cells(text: &str) -> Vec<Group> {
        let mut groups: Vec<Group> = Vec::new();
        for line in text.lines() {
            let words: Vec<&str> = line.split_whitespace().collect();
            if let Some(head) = line.strip_prefix("== ") {
                let mut head = head.split_whitespace();
                let experiment = head.next().unwrap().to_owned();
                groups.push((experiment, head.next() == Some("+DPM"), Vec::new()));
            } else if let (Some(group), [_, hot, grad, cycle, .., perf]) =
                (groups.last_mut(), words.as_slice())
            {
                if let Some(perf) = perf.strip_prefix("perf=") {
                    group.2.push([hot, grad, cycle, &perf].map(|s| (*s).to_owned()));
                }
            }
        }
        groups
    }

    #[test]
    fn table_report_prints_every_value_of_the_figure_binaries() {
        let spec = SweepSpec::new("figures")
            .with_experiments(&Experiment::ALL)
            .with_policies(&PolicyKind::ALL)
            .with_dpm(&[false, true]);
        let mut compared = 0;
        for seed in 1..=8_u64 {
            let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let mut baseline_turnaround = 1.0;
            let rows = expand(&spec)
                .into_iter()
                .map(|cell| {
                    let dpm = if cell.dpm { "+DPM" } else { "" };
                    let label = format!("{}{dpm}", cell.policy.label());
                    let mut result = fake_result(&label, cell.experiment);
                    result.hotspot_pct = edge_value(&mut state, 2, 100);
                    result.gradient_pct = edge_value(&mut state, 2, 100);
                    result.cycle_pct = edge_value(&mut state, 2, 100);
                    // Perf is the group's first (Default) turnaround over
                    // this row's, so draw the ratio on a rounding edge.
                    if cell.policy == PolicyKind::Default {
                        baseline_turnaround = 0.5 + edge_value(&mut state, 2, 10);
                    }
                    let ratio = edge_value(&mut state, 3, 2);
                    result.perf = if ratio > 0.0 {
                        let turnaround = baseline_turnaround / ratio;
                        PerformanceStats::from_accumulated(1, turnaround, turnaround)
                    } else {
                        PerformanceStats::from_accumulated(0, 0.0, 0.0)
                    };
                    SweepRow {
                        key: crate::cache::cell_key(&spec, &cell).hex(),
                        result,
                        cell,
                        timing: None,
                    }
                })
                .collect();
            let report = SweepReport { name: spec.name.clone(), rows };
            let table = table_cells(&report.render());
            assert_eq!(table.len(), 8, "one group per experiment and DPM setting");
            assert!(table.iter().all(|group| group.2.len() == PolicyKind::ALL.len()));
            for dpm in [false, true] {
                let results: Vec<(Experiment, Vec<RunResult>)> = Experiment::ALL
                    .iter()
                    .map(|&exp| {
                        let runs = report
                            .rows
                            .iter()
                            .filter(|r| r.cell.experiment == exp && r.cell.dpm == dpm);
                        (exp, runs.map(|r| r.result.clone()).collect())
                    })
                    .collect();
                // Columns 0, 1 and 2: hot spots, gradients and cycles.
                for column in 0..3 {
                    let metric =
                        |r: &RunResult| [r.hotspot_pct, r.gradient_pct, r.cycle_pct][column];
                    let figure = format_figure("figure", "metric", metric, &results, true);
                    let mut lines = figure.lines().skip(1);
                    let header: Vec<&str> =
                        lines.next().unwrap().split_whitespace().skip(1).collect();
                    for (row, line) in lines.take(PolicyKind::ALL.len()).enumerate() {
                        let words: Vec<&str> = line.split_whitespace().collect();
                        assert_eq!(words[0], PolicyKind::ALL[row].label());
                        for (name, value) in header.iter().zip(&words[1..]) {
                            let (exp, column) = match name.strip_prefix("perf:") {
                                Some(exp) => (exp, 3),
                                None => (*name, column),
                            };
                            let group = table.iter().find(|g| g.0 == exp && g.1 == dpm).unwrap();
                            assert_eq!(
                                group.2[row][column], *value,
                                "seed {seed}, {name}, dpm={dpm}, {}",
                                words[0]
                            );
                            compared += 1;
                        }
                    }
                }
            }
        }
        // 8 seeds x 2 DPM settings x 3 metrics x 11 policies x (4
        // metric + 4 perf columns).
        assert_eq!(compared, 8 * 2 * 3 * 11 * 8);
    }
}
