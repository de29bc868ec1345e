//! Four-layer stack design exploration: how the number of layers and the
//! logic/memory arrangement interact with the DTM policy.
//!
//! The paper's headline architectural result is that 3D-aware scheduling
//! matters *more* as the stack grows: on the 4-tier systems (EXP-3/4) the
//! Adapt3D+DVFS hybrids cut hot spots 20–40 % below DVFS alone, while on
//! 2 tiers the gap is small. This example reproduces that design study:
//! it runs a mixed server workload on all four configurations, prints the
//! per-layer steady temperatures an architect would look at first, and
//! then compares DVFS-only against the hybrid on each stack.
//!
//! Run with: `cargo run --example four_layer_stack_design`

use therm3d::{SimConfig, Simulator};
use therm3d_floorplan::{Experiment, UnitKind};
use therm3d_policies::PolicyKind;
use therm3d_power::{CorePowerInput, PowerModel, PowerParams, VfTable};
use therm3d_thermal::{ThermalConfig, ThermalModel};
use therm3d_workload::{stream_mix, Benchmark};

const SIM_SECONDS: f64 = 60.0;

/// Steady-state per-layer mean core temperature with every core active —
/// the static design-time view (no scheduling).
fn steady_layer_profile(experiment: Experiment) -> Vec<(usize, f64, usize)> {
    let stack = experiment.stack();
    let mut thermal = ThermalModel::new(&stack, ThermalConfig::paper_default());
    let power = PowerModel::new(&stack, PowerParams::paper_default(), VfTable::paper_default());

    let busy = vec![CorePowerInput::busy(); stack.num_cores()];
    let mut temps = vec![45.0; stack.num_blocks()];
    // Fixed-point iterate the leakage/temperature loop.
    for _ in 0..4 {
        let powers = power.block_powers(&busy, &temps);
        temps = thermal.initialize_steady_state(&powers);
    }

    (0..stack.layer_count())
        .map(|layer| {
            let cores: Vec<f64> = stack
                .sites()
                .iter()
                .enumerate()
                .filter(|(_, s)| s.layer == layer && s.kind == UnitKind::Core)
                .map(|(i, _)| temps[i])
                .collect();
            let mean = if cores.is_empty() {
                let all: Vec<f64> = stack
                    .sites()
                    .iter()
                    .enumerate()
                    .filter(|(_, s)| s.layer == layer)
                    .map(|(i, _)| temps[i])
                    .collect();
                all.iter().sum::<f64>() / all.len() as f64
            } else {
                cores.iter().sum::<f64>() / cores.len() as f64
            };
            (layer, mean, cores.len())
        })
        .collect()
}

fn hotspot_pct(experiment: Experiment, kind: PolicyKind) -> f64 {
    let stack = experiment.stack();
    let policy = kind.build(&stack, 0xACE1);
    let jobs = stream_mix(
        &[Benchmark::WebHigh, Benchmark::WebMed, Benchmark::WebDb],
        experiment.num_cores(),
        SIM_SECONDS,
        2009,
    );
    let mut sim = Simulator::new(SimConfig::paper_default(experiment), policy);
    sim.run_source(jobs, SIM_SECONDS).hotspot_pct
}

fn main() {
    println!("3D stack design study: 2 vs 4 layers, split vs mixed ({SIM_SECONDS:.0} s runs)\n");

    println!("static view — all-cores-busy steady state, °C per layer");
    println!("(layer 0 touches the heat spreader; higher layers cool worse)\n");
    for experiment in Experiment::ALL {
        let profile = steady_layer_profile(experiment);
        print!(
            "  {experiment} ({} layers, {} cores): ",
            experiment.layer_count(),
            experiment.num_cores()
        );
        let rows: Vec<String> = profile
            .iter()
            .map(|(layer, mean, n)| {
                if *n > 0 {
                    format!("L{layer} {mean:.1}°C ({n} cores)")
                } else {
                    format!("L{layer} {mean:.1}°C (memory)")
                }
            })
            .collect();
        println!("{}", rows.join(", "));
    }

    println!("\ndynamic view — hot-spot residency under a web/DB server mix");
    println!("{:<8} {:>10} {:>16} {:>10}", "config", "DVFS_TT %", "Adapt3D+DVFS %", "reduction");
    for experiment in Experiment::ALL {
        let dvfs = hotspot_pct(experiment, PolicyKind::DvfsTt);
        let hybrid = hotspot_pct(experiment, PolicyKind::Adapt3dDvfsTt);
        let reduction = if dvfs > 0.0 { 100.0 * (dvfs - hybrid) / dvfs } else { 0.0 };
        println!(
            "{:<8} {:>10.2} {:>16.2} {:>9.0}%",
            experiment.to_string(),
            dvfs,
            hybrid,
            reduction
        );
    }

    println!(
        "\nreading: the hybrid's advantage grows with the layer count — the paper \
         reports 20–40 % fewer hot spots than DVFS alone on EXP-3/4, and only a \
         limited benefit on EXP-1."
    );
}
