//! Quickstart: simulate one 3D multicore system under two scheduling
//! policies and compare their thermal profiles.
//!
//! This is the smallest end-to-end use of the public API: build a stack
//! (EXP-3, the 4-tier, 16-core system where 3D thermal stress is most
//! visible), stream a Table I workload, run the OS default load
//! balancer and the paper's Adapt3D+DVFS hybrid, and print the hot-spot
//! / gradient / cycle metrics of Figures 3–6.
//!
//! Run with: `cargo run --example quickstart`

use therm3d::{RunResult, SimConfig, Simulator};
use therm3d_floorplan::Experiment;
use therm3d_policies::PolicyKind;
use therm3d_workload::{Benchmark, JobSource, TraceConfig};

fn run(kind: PolicyKind, sim_seconds: f64) -> RunResult {
    let experiment = Experiment::Exp3;
    let stack = experiment.stack();

    // Deterministic policy + workload: same seeds, same numbers.
    let policy = kind.build(&stack, 0xACE1);
    let trace = TraceConfig::new(Benchmark::WebHigh, stack.num_cores(), sim_seconds).with_seed(42);
    let (mut jobs, mut work_s) = (0, 0.0);
    let mut stream = trace.stream();
    while let Some(job) = stream.next_job() {
        jobs += 1;
        work_s += job.work_s;
    }
    println!(
        "  {jobs} jobs over {sim_seconds:.0} s (offered load {:.0} %)",
        100.0 * (work_s / (sim_seconds * stack.num_cores() as f64))
    );

    // A fresh stream replays the same jobs.
    let mut sim = Simulator::new(SimConfig::paper_default(experiment), policy);
    sim.run_source(trace.stream(), sim_seconds)
}

fn main() {
    let sim_seconds = 60.0;
    println!("therm3d quickstart: EXP-3 (4 tiers, 16 cores), Web-high workload\n");

    println!("running {} ...", PolicyKind::Default.label());
    let base = run(PolicyKind::Default, sim_seconds);
    println!("running {} ...", PolicyKind::Adapt3dDvfsTt.label());
    let adapt = run(PolicyKind::Adapt3dDvfsTt, sim_seconds);

    println!("\n{}", RunResult::table_header());
    println!("{}", base.table_row());
    println!("{}", adapt.table_row());

    println!(
        "\nAdapt3D&DVFS_TT vs Default: hot spots {:.2}% → {:.2}%, \
         gradients {:.2}% → {:.2}%, performance {:.3}× (1.0 = no cost)",
        base.hotspot_pct,
        adapt.hotspot_pct,
        base.gradient_pct,
        adapt.gradient_pct,
        adapt.normalized_performance_vs(&base),
    );
}
