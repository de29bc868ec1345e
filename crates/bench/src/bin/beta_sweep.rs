//! Ablation: sensitivity of Adapt3D to its β constants and history
//! window. The paper fixes β_inc = 0.01, β_dec = 0.1 and a 10-sample
//! window but notes "other β and history window length values can be
//! set, depending on the system and applications" — this sweep shows how
//! flat the neighbourhood is.

use therm3d::{SimConfig, Simulator};
use therm3d_floorplan::Experiment;
use therm3d_policies::{AdaptiveConfig, AdaptivePolicy};
use therm3d_workload::{stream_mix, Benchmark};

fn run(exp: Experiment, cfg: AdaptiveConfig, sim_seconds: f64) -> therm3d::RunResult {
    let stack = exp.stack();
    let policy =
        Box::new(AdaptivePolicy::adapt3d_with_config(stack.default_thermal_indices(), cfg, 0xACE1));
    let jobs = stream_mix(&Benchmark::ALL, exp.num_cores(), sim_seconds, 2009);
    Simulator::new(SimConfig::paper_default(exp), policy).run_source(jobs, sim_seconds)
}

fn main() {
    let sim_seconds = therm3d_bench::sim_seconds_or_die(160.0);
    let exp = Experiment::Exp3;
    println!("Adapt3D β / history-window sweep on {exp} ({sim_seconds:.0} s per cell)\n");

    println!("β sweep (history window fixed at the paper's 10 samples):");
    println!("{:>8} {:>8} {:>7} {:>7} {:>8}", "β_inc", "β_dec", "hot%", "grad%", "turn_s");
    for (bi, bd) in [(0.005, 0.05), (0.01, 0.1), (0.02, 0.2), (0.05, 0.5), (0.1, 0.1)] {
        let cfg = AdaptiveConfig { beta_inc: bi, beta_dec: bd, ..AdaptiveConfig::paper_default() };
        let r = run(exp, cfg, sim_seconds);
        println!(
            "{bi:>8.3} {bd:>8.3} {:>7.2} {:>7.2} {:>8.2}",
            r.hotspot_pct, r.gradient_pct, r.perf.mean_turnaround_s
        );
    }

    println!("\nhistory-window sweep (β at the paper's 0.01/0.1):");
    println!("{:>8} {:>7} {:>7} {:>8}", "window", "hot%", "grad%", "turn_s");
    for window in [1usize, 5, 10, 20, 50] {
        let cfg = AdaptiveConfig { history_window: window, ..AdaptiveConfig::paper_default() };
        let r = run(exp, cfg, sim_seconds);
        println!(
            "{window:>8} {:>7.2} {:>7.2} {:>8.2}",
            r.hotspot_pct, r.gradient_pct, r.perf.mean_turnaround_s
        );
    }
}
