//! Simulation → reliability pipeline: the JEP122C models must respond to
//! the thermal differences the DTM policies create.

use therm3d::{SimConfig, Simulator};
use therm3d_floorplan::Experiment;
use therm3d_policies::PolicyKind;
use therm3d_reliability::{CoffinManson, ReliabilityReport};
use therm3d_repro::TempHistory;
use therm3d_workload::{stream_mix, Benchmark};

fn history(kind: PolicyKind, dpm: bool, secs: f64) -> TempHistory {
    let exp = Experiment::Exp3;
    let stack = exp.stack();
    let policy = kind.build_with_dpm(&stack, 0xACE1, dpm);
    let jobs = stream_mix(&Benchmark::ALL, exp.num_cores(), secs, 2009);
    let mut sim = Simulator::new(SimConfig::fast(exp), policy);
    let mut h = TempHistory::new(stack.num_cores());
    sim.run_source_with_observer(jobs, secs, |s| h.record(s));
    h
}

fn worst_core_report(h: &TempHistory) -> ReliabilityReport {
    (0..h.n_cores())
        .map(|c| ReliabilityReport::from_series(&h.core_series(c), 0.1))
        .max_by(|a, b| a.em_acceleration.total_cmp(&b.em_acceleration))
        .expect("at least one core")
}

#[test]
fn thermal_management_buys_back_em_lifetime() {
    let base = worst_core_report(&history(PolicyKind::Default, false, 40.0));
    let hybrid = worst_core_report(&history(PolicyKind::Adapt3dDvfsTt, false, 40.0));
    assert!(
        hybrid.em_acceleration < base.em_acceleration,
        "the hybrid must age the worst core slower: {:.2} vs {:.2}",
        hybrid.em_acceleration,
        base.em_acceleration
    );
    assert!(hybrid.em_relative_mttf > base.em_relative_mttf);
}

#[test]
fn dpm_increases_cycling_damage() {
    // Section V-D: "switching to sleep state causes cycles large enough
    // to degrade reliability" — the fatigue model must see it.
    let cm = CoffinManson::jep122c();
    let without = history(PolicyKind::Default, false, 40.0);
    let with = history(PolicyKind::Default, true, 40.0);
    let damage = |h: &TempHistory| {
        (0..h.n_cores()).map(|c| cm.damage_per_hour(&h.core_series(c), 0.1)).sum::<f64>()
    };
    let d_without = damage(&without);
    let d_with = damage(&with);
    assert!(
        d_with > d_without,
        "sleep transitions must add fatigue damage: {d_without:.2} vs {d_with:.2}"
    );
}

#[test]
fn hotter_stacks_age_faster() {
    let exp2 = {
        let stack = Experiment::Exp2.stack();
        let policy = PolicyKind::Default.build(&stack, 0xACE1);
        let jobs = stream_mix(&Benchmark::ALL, 8, 30.0, 2009);
        let mut sim = Simulator::new(SimConfig::fast(Experiment::Exp2), policy);
        let mut h = TempHistory::new(8);
        sim.run_source_with_observer(jobs, 30.0, |s| h.record(s));
        worst_core_report(&h)
    };
    let exp3 = worst_core_report(&history(PolicyKind::Default, false, 30.0));
    assert!(
        exp3.em_acceleration > exp2.em_acceleration * 1.5,
        "the 4-layer stack must age much faster: {:.2} vs {:.2}",
        exp3.em_acceleration,
        exp2.em_acceleration
    );
    assert!(exp3.nbti_relative_lifetime < exp2.nbti_relative_lifetime);
}

#[test]
fn report_is_deterministic() {
    let a = worst_core_report(&history(PolicyKind::Adapt3d, true, 15.0));
    let b = worst_core_report(&history(PolicyKind::Adapt3d, true, 15.0));
    assert_eq!(a, b);
}
