//! End-to-end determinism of the sweep engine: the aggregated exports
//! must be bit-identical whatever the worker-thread count, and spec →
//! matrix expansion must be stable.

use therm3d_floorplan::Experiment;
use therm3d_policies::PolicyKind;
use therm3d_sweep::{expand, from_toml, to_toml, SweepSpec};
use therm3d_workload::Benchmark;

/// ≥2 experiments × ≥3 policies × {DPM on, off}, kept fast with a 4×4
/// grid and short traces (the acceptance-criteria scenario).
fn acceptance_spec(threads: usize) -> SweepSpec {
    SweepSpec::new("acceptance")
        .with_experiments(&[Experiment::Exp1, Experiment::Exp2])
        .with_policies(&[PolicyKind::Default, PolicyKind::CGate, PolicyKind::Adapt3d])
        .with_dpm(&[false, true])
        .with_benchmarks(&[Benchmark::Gzip, Benchmark::WebMed])
        .with_sim_seconds(4.0)
        .with_grid(4, 4)
        .with_threads(threads)
}

#[test]
fn csv_identical_across_one_and_two_threads() {
    let serial = therm3d_sweep::run(&acceptance_spec(1)).unwrap();
    let parallel = therm3d_sweep::run(&acceptance_spec(2)).unwrap();
    assert_eq!(serial.rows.len(), 2 * 3 * 2);
    assert_eq!(serial.csv(), parallel.csv(), "thread count must not change results");
    assert_eq!(serial.json(), parallel.json());
    assert_eq!(serial.render(), parallel.render());
}

#[test]
fn csv_identical_with_oversubscribed_threads() {
    // More threads than cells exercises the clamp and the job queue tail.
    let few = therm3d_sweep::run(&acceptance_spec(2)).unwrap();
    let many = therm3d_sweep::run(&acceptance_spec(64)).unwrap();
    assert_eq!(few.csv(), many.csv());
}

#[test]
fn matrix_expansion_matches_cell_count_and_order() {
    let spec = acceptance_spec(1);
    let cells = expand(&spec);
    assert_eq!(cells.len(), spec.cell_count());
    for (i, cell) in cells.iter().enumerate() {
        assert_eq!(cell.index, i);
    }
    // Same spec, same matrix — including derived seeds.
    assert_eq!(cells, expand(&acceptance_spec(1)));
    // Policy axis is innermost: three consecutive cells per group.
    assert_eq!(cells[0].policy, PolicyKind::Default);
    assert_eq!(cells[1].policy, PolicyKind::CGate);
    assert_eq!(cells[2].policy, PolicyKind::Adapt3d);
}

#[test]
fn toml_round_trip_preserves_the_acceptance_spec() {
    let spec = acceptance_spec(2);
    let parsed = from_toml(&to_toml(&spec)).unwrap();
    assert_eq!(parsed, spec);
    // And the parsed spec expands to the identical matrix.
    assert_eq!(expand(&parsed), expand(&spec));
}

#[test]
fn report_groups_follow_policy_order() {
    let report = therm3d_sweep::run(&acceptance_spec(2)).unwrap();
    for &exp in &[Experiment::Exp1, Experiment::Exp2] {
        for &dpm in &[false, true] {
            let labels: Vec<&str> = report
                .rows
                .iter()
                .filter(|r| r.cell.experiment == exp && r.cell.dpm == dpm)
                .map(|r| r.result.policy.as_str())
                .collect();
            // The engine suffixes "+DPM" onto the policy label when DPM
            // wraps the policy; the order must match the spec's.
            let expected: Vec<String> = ["Default", "CGate", "Adapt3D"]
                .iter()
                .map(|l| if dpm { format!("{l}+DPM") } else { (*l).to_owned() })
                .collect();
            assert_eq!(labels, expected, "{exp} dpm={dpm}");
        }
    }
}
