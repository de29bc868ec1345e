//! Ablation: static (offline) vs runtime-calibrated vs uniform thermal
//! indices for Adapt3D — the experiment behind the paper's remark that
//! "we experimented with both static and dynamic selection, and set the
//! αi values offline, as the results were very similar for both options"
//! (Section III-B).

use therm3d::{SimConfig, Simulator};
use therm3d_floorplan::Experiment;
use therm3d_policies::{AdaptivePolicy, Policy};
use therm3d_workload::{stream_mix, Benchmark};

fn main() {
    let sim_seconds = therm3d_bench::sim_seconds_or_die(240.0);
    println!("Adapt3D thermal-index ablation ({sim_seconds:.0} s per cell)\n");
    println!(
        "{:<8} {:<22} {:>7} {:>7} {:>7} {:>8}",
        "config", "alpha source", "hot%", "grad%", "cyc%", "turn_s"
    );

    for exp in [Experiment::Exp3, Experiment::Exp4] {
        let stack = exp.stack();
        let variants: Vec<(&str, Box<dyn Policy>)> = vec![
            (
                "offline (geometry)",
                Box::new(AdaptivePolicy::adapt3d(stack.default_thermal_indices(), 0xACE1)),
            ),
            (
                "runtime (measured)",
                // Recalibrate every minute of simulated time (600 ticks).
                Box::new(AdaptivePolicy::adapt3d_runtime_alpha(stack.num_cores(), 600, 0xACE1)),
            ),
            (
                "uniform (ablated)",
                Box::new(AdaptivePolicy::adapt3d(vec![0.5; stack.num_cores()], 0xACE1)),
            ),
        ];
        for (label, policy) in variants {
            let jobs = stream_mix(&Benchmark::ALL, exp.num_cores(), sim_seconds, 2009);
            let mut sim = Simulator::new(SimConfig::paper_default(exp), policy);
            let r = sim.run_source(jobs, sim_seconds);
            println!(
                "{:<8} {:<22} {:>7.2} {:>7.2} {:>7.2} {:>8.2}",
                exp.to_string(),
                label,
                r.hotspot_pct,
                r.gradient_pct,
                r.cycle_pct,
                r.perf.mean_turnaround_s
            );
        }
    }
    println!(
        "\nexpectation (paper): offline and runtime indices land close together; \
         the uniform ablation shows what the location awareness contributes."
    );
}
