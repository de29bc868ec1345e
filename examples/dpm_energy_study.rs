//! DPM energy study: sleep states save energy but create thermal cycles.
//!
//! Section V-D of the paper reports the central tension of dynamic power
//! management on 3D chips: fixed-timeout DPM cuts energy on light loads
//! (multimedia playback here), yet switching cores in and out of the
//! 0.02 W sleep state produces exactly the large ΔT swings that drive
//! thermal-cycling failures — and the effect compounds on 4-layer stacks.
//! Adapt3D recovers most of the cycle reduction without giving up the
//! energy win.
//!
//! This example runs an MPlayer-style light workload on EXP-2 and EXP-3
//! with DPM off/on, for the Default and Adapt3D policies, and prints the
//! energy / thermal-cycle trade-off plus a ΔT histogram built with
//! [`therm3d_repro::CycleHistogram`].
//!
//! Run with: `cargo run --example dpm_energy_study`

use therm3d::{RunResult, SimConfig, Simulator};
use therm3d_floorplan::Experiment;
use therm3d_policies::PolicyKind;
use therm3d_repro::CycleHistogram;
use therm3d_workload::{stream_mix, Benchmark};

const SIM_SECONDS: f64 = 120.0;

fn run(experiment: Experiment, kind: PolicyKind, dpm: bool) -> (RunResult, CycleHistogram) {
    let stack = experiment.stack();
    let policy = kind.build_with_dpm(&stack, 0xACE1, dpm);
    let jobs = stream_mix(
        &[Benchmark::MPlayer, Benchmark::MPlayerWeb],
        experiment.num_cores(),
        SIM_SECONDS,
        11,
    );
    let mut sim = Simulator::new(SimConfig::paper_default(experiment), policy);
    // 5 °C bins over a 5 s (50-tick) sliding window, as in Figure 6.
    let mut hist = CycleHistogram::new(5.0, 50, stack.num_cores());
    let result = sim.run_source_with_observer(jobs, SIM_SECONDS, |s| hist.record(s));
    (result, hist)
}

fn main() {
    println!("DPM energy/reliability study: multimedia workload, {SIM_SECONDS:.0} s simulated\n");

    for experiment in [Experiment::Exp2, Experiment::Exp3] {
        println!(
            "── {experiment} ({} layers, {} cores) ──",
            experiment.layer_count(),
            experiment.num_cores()
        );
        println!(
            "{:<22} {:>9} {:>9} {:>8} {:>9}",
            "configuration", "energy J", "mean W", "cycle%", "ΔT>20°C"
        );

        for kind in [PolicyKind::Default, PolicyKind::Adapt3d] {
            for dpm in [false, true] {
                let (result, hist) = run(experiment, kind, dpm);
                let label = format!("{}{}", kind.label(), if dpm { "+DPM" } else { "" });
                println!(
                    "{:<22} {:>9.0} {:>9.2} {:>8.2} {:>8.1}%",
                    label,
                    result.energy_j,
                    result.mean_power_w,
                    result.cycle_pct,
                    100.0 * hist.tail_fraction(20.0),
                );
            }
        }

        // ΔT distribution for the default policy with DPM — the shape that
        // motivates Figure 6 (sleep transitions fatten the tail).
        let (_, hist) = run(experiment, PolicyKind::Default, true);
        println!("\n  ΔT histogram, Default+DPM (5 °C bins over a 5 s window):");
        let total = hist.total().max(1);
        for (i, &count) in hist.counts().iter().enumerate() {
            if count == 0 {
                continue;
            }
            let pct = 100.0 * count as f64 / total as f64;
            let bar_len = (pct / 2.0).round() as usize;
            println!(
                "    {:>2}-{:<2} °C {:>5.1}% {}",
                i * 5,
                (i + 1) * 5,
                pct,
                "#".repeat(bar_len.min(50))
            );
        }
        println!();
    }

    println!(
        "reading: DPM cuts energy on light load; the cost is a fatter ΔT tail \
         (more >20 °C cycles), worst on the 4-layer stack. Adapt3D keeps the \
         energy saving while flattening the cycle distribution."
    );
}
