//! Reliability assessment: from thermal metrics to lifetime numbers.
//!
//! The paper motivates DTM with JEDEC's failure mechanisms — hot spots
//! accelerate electromigration, large ΔT swings fatigue metal (16× more
//! failures when ΔT goes from 10 to 20 °C), and sustained heat consumes
//! NBTI timing margin — but reports only the thermal metrics. This
//! example closes the loop: it runs the 4-tier EXP-3 system under a
//! server mix with four policies, feeds every core's temperature history
//! into the `therm3d-reliability` models, and prints per-policy
//! electromigration acceleration, cycling damage and NBTI lifetime.
//!
//! Run with: `cargo run --example reliability_assessment`

use therm3d::{SimConfig, Simulator};
use therm3d_floorplan::Experiment;
use therm3d_policies::PolicyKind;
use therm3d_reliability::{CoffinManson, ReliabilityReport};
use therm3d_repro::TempHistory;
use therm3d_workload::{stream_mix, Benchmark};

const SIM_SECONDS: f64 = 120.0;

fn assess(kind: PolicyKind, dpm: bool) -> (ReliabilityReport, f64) {
    let exp = Experiment::Exp3;
    let stack = exp.stack();
    let policy = kind.build_with_dpm(&stack, 0xACE1, dpm);
    let jobs = stream_mix(&Benchmark::ALL, exp.num_cores(), SIM_SECONDS, 2009);
    let mut sim = Simulator::new(SimConfig::paper_default(exp), policy);
    let mut history = TempHistory::new(stack.num_cores());
    sim.run_source_with_observer(jobs, SIM_SECONDS, |s| history.record(s));

    // Worst core = reliability-limiting component. Assess every core and
    // keep the one with the highest electromigration acceleration.
    let mut worst: Option<ReliabilityReport> = None;
    let mut total_damage = 0.0;
    let cm = CoffinManson::jep122c();
    for core in 0..history.n_cores() {
        let series = history.core_series(core);
        let report = ReliabilityReport::from_series(&series, 0.1);
        total_damage += cm.damage_per_hour(&series, 0.1);
        if worst.as_ref().is_none_or(|w| report.em_acceleration > w.em_acceleration) {
            worst = Some(report);
        }
    }
    (worst.expect("at least one core"), total_damage / history.n_cores() as f64)
}

fn main() {
    println!(
        "reliability assessment on EXP-3 (4 tiers, 16 cores), {SIM_SECONDS:.0} s server mix\n"
    );
    println!("worst-core figures vs a 60 °C reference die:");
    println!("{}", ReliabilityReport::table_header());

    let policies = [
        (PolicyKind::Default, false),
        (PolicyKind::Default, true),
        (PolicyKind::DvfsTt, false),
        (PolicyKind::Adapt3d, false),
        (PolicyKind::Adapt3dDvfsTt, false),
        (PolicyKind::Adapt3dDvfsTt, true),
    ];

    let mut chip_damage = Vec::new();
    for (kind, dpm) in policies {
        let label = format!("{}{}", kind.label(), if dpm { "+DPM" } else { "" });
        let (report, mean_damage) = assess(kind, dpm);
        println!("{}", report.table_row(&label));
        chip_damage.push((label, mean_damage));
    }

    println!("\nchip-mean thermal-cycling damage (equivalent 10 °C cycles per hour):");
    let max = chip_damage.iter().map(|d| d.1).fold(1e-12, f64::max);
    for (label, damage) in &chip_damage {
        let width = (damage / max * 40.0).round() as usize;
        println!("  {label:<22} {} {damage:8.2}", "#".repeat(width.min(40)));
    }

    println!(
        "\nreading: management that trims hot spots (DVFS, the hybrid) buys back \
         electromigration lifetime on the worst core; DPM trades some of that for \
         extra cycling damage — the paper's Section V-D trade-off expressed in \
         JEP122C units."
    );
}
