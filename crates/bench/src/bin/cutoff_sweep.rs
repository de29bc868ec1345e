//! Ablation: the Adapt3D dispatcher's backlog-cutoff guard trades thermal
//! steering strength against queueing delay. Sweeps the cutoff on the
//! 4-layer systems and prints hot-spot residency and mean turnaround so
//! the knee of the curve can be chosen (DESIGN.md documents the default).

use therm3d::{SimConfig, Simulator};
use therm3d_floorplan::Experiment;
use therm3d_policies::{AdaptiveConfig, AdaptivePolicy};
use therm3d_workload::{stream_mix, Benchmark};

fn main() {
    let sim_seconds = therm3d_bench::sim_seconds_or_die(160.0);
    for exp in [Experiment::Exp3, Experiment::Exp4] {
        println!("{exp} (Adapt3D, backlog-cutoff sweep, {sim_seconds:.0} s):");
        let stack = exp.stack();
        for cutoff in [0.5, 1.0, 2.0, 4.0, 8.0, f64::INFINITY] {
            let cfg =
                AdaptiveConfig { backlog_cutoff_s: cutoff, ..AdaptiveConfig::paper_default() };
            let policy = Box::new(AdaptivePolicy::adapt3d_with_config(
                stack.default_thermal_indices(),
                cfg,
                0xACE1,
            ));
            let jobs = stream_mix(&Benchmark::ALL, exp.num_cores(), sim_seconds, 2009);
            let r =
                Simulator::new(SimConfig::paper_default(exp), policy).run_source(jobs, sim_seconds);
            println!(
                "  cutoff {cutoff:>4.1}s: hot={:5.2}%  turn={:5.2}s  peak={:5.1}  unfin={}",
                r.hotspot_pct, r.perf.mean_turnaround_s, r.peak_temp_c, r.unfinished
            );
        }
    }
}
