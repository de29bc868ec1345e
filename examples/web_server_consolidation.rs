//! Web-server consolidation: the workload the paper's introduction
//! motivates — a Niagara-class chip hosting web serving plus a database —
//! evaluated at two consolidation densities.
//!
//! A data-center operator consolidating a web tier (Web-high) and a
//! database (Web&DB) onto one 3D chip must pick (a) how many tiers to
//! stack (EXP-2's 2-layer, 8-core system vs EXP-4's 4-layer, 16-core
//! system) and (b) a DTM policy. This example sweeps both choices and
//! prints the hot-spot and gradient numbers plus the hottest-core trace
//! for the interesting policies, using the
//! [`therm3d_repro::TempHistory`] observer.
//!
//! Run with: `cargo run --example web_server_consolidation`

use therm3d::{RunResult, SimConfig, Simulator};
use therm3d_floorplan::Experiment;
use therm3d_policies::PolicyKind;
use therm3d_repro::textplot::downsample;
use therm3d_repro::{bar, sparkline, TempHistory};
use therm3d_workload::{stream_mix, Benchmark, MixStream};

const SIM_SECONDS: f64 = 90.0;

/// The consolidation mix: one busy web tier plus the mixed web/database
/// benchmark of Table I.
fn consolidation_jobs(experiment: Experiment) -> MixStream {
    stream_mix(&[Benchmark::WebHigh, Benchmark::WebDb], experiment.num_cores(), SIM_SECONDS, 7)
}

fn run(experiment: Experiment, kind: PolicyKind) -> (RunResult, TempHistory) {
    let stack = experiment.stack();
    let policy = kind.build(&stack, 0xACE1);
    let jobs = consolidation_jobs(experiment);
    let mut sim = Simulator::new(SimConfig::paper_default(experiment), policy);
    let mut history = TempHistory::new(stack.num_cores());
    let result = sim.run_source_with_observer(jobs, SIM_SECONDS, |s| history.record(s));
    (result, history)
}

fn main() {
    let policies = [
        PolicyKind::Default,
        PolicyKind::Migr,
        PolicyKind::AdaptRand,
        PolicyKind::Adapt3d,
        PolicyKind::Adapt3dDvfsTt,
    ];

    println!(
        "web-server consolidation: 2-tier vs 4-tier stacking ({SIM_SECONDS:.0} s simulated)\n"
    );
    println!("workload: Web-high (92.9 % util) + Web&DB (75.1 % util), Table I statistics\n");

    for experiment in [Experiment::Exp2, Experiment::Exp4] {
        let arrangement = if experiment.layer_count() == 2 {
            "2 tiers, 8 cores: thermally safe but half the throughput"
        } else {
            "4 tiers, 16 cores: double density, double the thermal stress"
        };
        println!("── {experiment}: {arrangement} ──");
        println!(
            "{:<20} {:>7} {:>7} {:>7} {:>7}  hottest-core trace",
            "policy", "hot%", "grad%", "peak°C", "perf"
        );

        let mut baseline: Option<RunResult> = None;
        for kind in policies {
            let (result, history) = run(experiment, kind);
            let perf = baseline.as_ref().map_or(1.0, |b| result.normalized_performance_vs(b));
            let trace = downsample(&history.max_series(), 40);
            println!(
                "{:<20} {:>7.2} {:>7.2} {:>7.1} {:>7.3}  {}",
                kind.label(),
                result.hotspot_pct,
                result.gradient_pct,
                result.peak_temp_c,
                perf,
                sparkline(&trace),
            );
            if baseline.is_none() {
                baseline = Some(result);
            }
        }
        println!();
    }

    // Summary bar chart across the arrangements for the paper's policy.
    println!("hot-spot residency, Adapt3D vs Default (shorter is better):");
    let mut rows = Vec::new();
    for experiment in [Experiment::Exp2, Experiment::Exp4] {
        for kind in [PolicyKind::Default, PolicyKind::Adapt3d] {
            let (result, _) = run(experiment, kind);
            rows.push((format!("{experiment} {}", kind.label()), result.hotspot_pct));
        }
    }
    let max = rows.iter().map(|r| r.1).fold(1e-9, f64::max);
    for (label, pct) in rows {
        println!("  {label:<22} {} {pct:5.2}%", bar(pct, max, 30));
    }
}
