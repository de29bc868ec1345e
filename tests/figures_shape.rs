//! Figure-shape regression tests: the qualitative relationships the
//! paper's evaluation reports must hold when the experiment harness runs
//! at reduced scale (shorter traces, 4×4 grid). These tests pin the
//! *ordering* so refactors cannot silently break the reproduction; no
//! record of the paper-scale numbers (8×8, 240 s) exists yet, and
//! ROADMAP item 2 plans one. The paper-scale runs are the spec files
//! `examples/paper_fig3.toml` and `examples/paper_fig4_6.toml`; the
//! last test pins them to the figures' cells.

use therm3d::{RunResult, SimConfig, Simulator};
use therm3d_floorplan::Experiment;
use therm3d_policies::PolicyKind;
use therm3d_sweep::{cell_key, expand, from_toml, sim_seconds_from_env, SweepSpec};
use therm3d_workload::{stream_mix, Benchmark};

const SECS: f64 = 60.0;

fn cell(exp: Experiment, kind: PolicyKind, dpm: bool) -> RunResult {
    let stack = exp.stack();
    let policy = kind.build_with_dpm(&stack, 0xACE1, dpm);
    let jobs = stream_mix(&Benchmark::ALL, exp.num_cores(), SECS, 2009);
    Simulator::new(SimConfig::fast(exp), policy).run_source(jobs, SECS)
}

#[test]
fn fig3_hot_spots_grow_with_layer_count() {
    // The paper's central architectural observation: stacking more active
    // layers raises thermal stress. Peak temperatures must order
    // 2-layer < 4-layer for the baseline policy.
    let p1 = cell(Experiment::Exp1, PolicyKind::Default, false);
    let p3 = cell(Experiment::Exp3, PolicyKind::Default, false);
    assert!(
        p3.peak_temp_c > p1.peak_temp_c + 10.0,
        "EXP-3 must run much hotter than EXP-1: {:.1} vs {:.1}",
        p3.peak_temp_c,
        p1.peak_temp_c
    );
    assert!(p3.hotspot_pct > p1.hotspot_pct, "and spend more time above 85 °C");

    let p2 = cell(Experiment::Exp2, PolicyKind::Default, false);
    let p4 = cell(Experiment::Exp4, PolicyKind::Default, false);
    assert!(p4.peak_temp_c > p2.peak_temp_c + 10.0);
    assert!(p4.hotspot_pct >= p2.hotspot_pct);
}

#[test]
fn fig3_hybrids_are_the_most_successful_policies() {
    // "The most successful policies are the hybrid policies" (Section
    // V-B) — on the stressed 4-layer systems, Adapt3D+DVFS_TT must beat
    // both its components.
    for exp in [Experiment::Exp3, Experiment::Exp4] {
        let base = cell(exp, PolicyKind::Default, false);
        let dvfs = cell(exp, PolicyKind::DvfsTt, false);
        let alloc = cell(exp, PolicyKind::Adapt3d, false);
        let hybrid = cell(exp, PolicyKind::Adapt3dDvfsTt, false);
        assert!(
            hybrid.hotspot_pct <= dvfs.hotspot_pct + 0.5,
            "{exp}: hybrid {:.2}% must not lose to DVFS {:.2}%",
            hybrid.hotspot_pct,
            dvfs.hotspot_pct
        );
        assert!(
            hybrid.hotspot_pct < alloc.hotspot_pct,
            "{exp}: hybrid {:.2}% must beat allocation alone {:.2}%",
            hybrid.hotspot_pct,
            alloc.hotspot_pct
        );
        assert!(
            hybrid.hotspot_pct < base.hotspot_pct * 0.8,
            "{exp}: hybrid {:.2}% must clearly beat the baseline {:.2}%",
            hybrid.hotspot_pct,
            base.hotspot_pct
        );
    }
}

#[test]
fn fig3_dvfs_reduces_hot_spots_at_a_performance_price() {
    let exp = Experiment::Exp3;
    let base = cell(exp, PolicyKind::Default, false);
    let dvfs = cell(exp, PolicyKind::DvfsTt, false);
    assert!(dvfs.hotspot_pct < base.hotspot_pct);
    let norm = dvfs.normalized_performance_vs(&base);
    assert!(norm < 1.0, "throttling cannot be free: {norm:.3}");
    assert!(norm > 0.5, "but must not halve throughput either: {norm:.3}");
}

#[test]
fn fig4_dpm_reduces_hot_spot_occurrence() {
    // "a significant reduction in the occurrence of thermal hot spots is
    // achieved" with DPM (Section V-B, Figure 4 vs Figure 3).
    for exp in [Experiment::Exp3, Experiment::Exp4] {
        let without = cell(exp, PolicyKind::Default, false);
        let with = cell(exp, PolicyKind::Default, true);
        assert!(
            with.hotspot_pct <= without.hotspot_pct + 0.25,
            "{exp}: DPM must not worsen hot spots: {:.2}% vs {:.2}%",
            with.hotspot_pct,
            without.hotspot_pct
        );
        assert!(with.energy_j < without.energy_j, "{exp}: sleep states save energy");
    }
}

#[test]
fn fig5_adaptive_scheduling_tames_spatial_gradients() {
    // "Adaptive scheduling policies, which balance out the temperature on
    // the chip, outperform the other techniques by large in reducing the
    // gradients" (Section V-C). EXP-3 (split layers) shows the largest
    // gradients in our reproduction. The gradient metric needs the full
    // 8×8 grid — the 4×4 test grid blurs within-layer spreads.
    // Gradients also need the steering to settle, so this test runs the
    // full 160 s figure duration rather than the reduced test length.
    let exp = Experiment::Exp3;
    let paper_cell = |kind: PolicyKind| {
        let stack = exp.stack();
        let policy = kind.build_with_dpm(&stack, 0xACE1, true);
        let jobs = stream_mix(&Benchmark::ALL, exp.num_cores(), 160.0, 2009);
        Simulator::new(SimConfig::paper_default(exp), policy).run_source(jobs, 160.0)
    };
    let base = paper_cell(PolicyKind::Default);
    let adapt = paper_cell(PolicyKind::Adapt3d);
    let hybrid = paper_cell(PolicyKind::Adapt3dDvfsTt);
    assert!(
        adapt.gradient_pct <= base.gradient_pct,
        "Adapt3D {:.2}% must not exceed Default {:.2}%",
        adapt.gradient_pct,
        base.gradient_pct
    );
    assert!(
        hybrid.gradient_pct <= base.gradient_pct,
        "hybrid {:.2}% must not exceed Default {:.2}%",
        hybrid.gradient_pct,
        base.gradient_pct
    );
}

#[test]
fn fig6_thermal_cycles_are_worse_on_four_layers() {
    // "In complex 3D architectures with four layers, such as EXP3, large
    // thermal cycles occur more often" (Section V-D).
    let c1 = cell(Experiment::Exp1, PolicyKind::Default, true);
    let c3 = cell(Experiment::Exp3, PolicyKind::Default, true);
    assert!(
        c3.cycle_pct >= c1.cycle_pct,
        "EXP-3 cycles {:.2}% must be at least EXP-1's {:.2}%",
        c3.cycle_pct,
        c1.cycle_pct
    );
}

#[test]
fn fig6_management_reduces_large_cycles() {
    // The managed policies must not amplify thermal cycling relative to
    // the baseline on the stressed system (paper: Adapt3D cuts the
    // frequency of large cycles; our queueing scheduler reproduces the
    // reduction for the hybrid).
    let exp = Experiment::Exp3;
    let base = cell(exp, PolicyKind::Default, true);
    let hybrid = cell(exp, PolicyKind::Adapt3dDvfsTt, true);
    assert!(
        hybrid.cycle_pct <= base.cycle_pct + 0.5,
        "hybrid cycles {:.2}% vs baseline {:.2}%",
        hybrid.cycle_pct,
        base.cycle_pct
    );
}

#[test]
fn perf_line_adaptive_cheaper_than_gating() {
    // Figure 3's performance line: stall-based management (CGate) costs
    // more than allocation-based management.
    let exp = Experiment::Exp3;
    let base = cell(exp, PolicyKind::Default, false);
    let gate = cell(exp, PolicyKind::CGate, false);
    let adapt = cell(exp, PolicyKind::Adapt3d, false);
    let gate_norm = gate.normalized_performance_vs(&base);
    let adapt_norm = adapt.normalized_performance_vs(&base);
    assert!(
        adapt_norm > gate_norm,
        "Adapt3D ({adapt_norm:.3}) must outperform CGate ({gate_norm:.3})"
    );
}

#[test]
fn all_eleven_policies_complete_the_figure_workload() {
    // Smoke test over the full figure matrix at reduced duration: every
    // (experiment, policy, dpm) cell must finish its jobs.
    for exp in Experiment::ALL {
        let stack = exp.stack();
        for kind in PolicyKind::ALL {
            for dpm in [false, true] {
                let policy = kind.build_with_dpm(&stack, 0xACE1, dpm);
                let jobs = stream_mix(&Benchmark::ALL, exp.num_cores(), 12.0, 2009);
                let r = Simulator::new(SimConfig::fast(exp), policy).run_source(jobs, 12.0);
                assert!(r.perf.completed > 0, "{exp}/{kind}/dpm={dpm}");
                assert_eq!(r.unfinished, 0, "{exp}/{kind}/dpm={dpm} left jobs");
                assert!(r.hotspot_pct.is_finite() && (0.0..=100.0).contains(&r.hotspot_pct));
            }
        }
    }
}

/// The spec the `fig3`–`fig6` binaries ran for one DPM setting (8×8,
/// the Table I rotation, trace seed 2009, policy seed 0xACE1), at the
/// duration a spec file without `sim_seconds` resolves to. Matching
/// cell keys let caches those binaries wrote serve the spec files.
fn figure_binary_spec(dpm: bool) -> SweepSpec {
    SweepSpec::new("figure")
        .with_experiments(&Experiment::ALL)
        .with_policies(&PolicyKind::ALL)
        .with_dpm(&[dpm])
        .with_benchmarks(&Benchmark::ALL)
        .with_seeds(&[2009])
        .with_sim_seconds(sim_seconds_from_env(240.0).unwrap())
        .with_grid(8, 8)
        .with_policy_seed(0xACE1)
        .with_threads(0)
}

#[test]
fn paper_specs_expand_to_the_figure_cells() {
    for (text, dpm) in [
        (include_str!("../examples/paper_fig3.toml"), false),
        (include_str!("../examples/paper_fig4_6.toml"), true),
    ] {
        let file = from_toml(text).unwrap();
        let binary = figure_binary_spec(dpm);
        let (cells, binary_cells) = (expand(&file), expand(&binary));
        assert_eq!((cells.len(), binary_cells.len()), (44, 44));
        for (cell, binary_cell) in cells.iter().zip(&binary_cells) {
            assert_eq!(cell, binary_cell, "dpm={dpm}");
            assert_eq!(cell_key(&file, cell), cell_key(&binary, cell), "cell {}", cell.index);
        }
        // Nothing but the name tells the two specs apart.
        assert_eq!(SweepSpec { name: binary.name.clone(), ..file }, binary);
    }
}
