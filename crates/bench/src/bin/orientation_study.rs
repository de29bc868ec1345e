//! Ablation: which die bonds to the heat spreader in the split
//! (core/cache) configurations? The paper's Figure 1 is ambiguous; this
//! study quantifies the choice that DESIGN.md documents.
//!
//! The dynamic comparison is one declarative sweep over the engine's
//! `stack_orders` axis (experiments × orientations), executed in
//! parallel and memoized under `THERM3D_CACHE_DIR`.

use therm3d_floorplan::{Experiment, StackOrder};
use therm3d_policies::PolicyKind;
use therm3d_power::{CorePowerInput, PowerModel, PowerParams, VfTable};
use therm3d_sweep::SweepSpec;
use therm3d_thermal::{ThermalConfig, ThermalModel};

fn busy_peak(exp: Experiment, order: StackOrder) -> f64 {
    let stack = exp.stack_with_order(order);
    let mut model = ThermalModel::new(&stack, ThermalConfig::paper_default());
    let power = PowerModel::new(&stack, PowerParams::paper_default(), VfTable::paper_default());
    let busy = vec![CorePowerInput::busy(); stack.num_cores()];
    let mut temps = vec![45.0; stack.num_blocks()];
    for _ in 0..4 {
        let p = power.block_powers(&busy, &temps);
        temps = model.initialize_steady_state(&p);
    }
    stack.core_ids().map(|c| temps[stack.core_block_index(c)]).fold(f64::NEG_INFINITY, f64::max)
}

fn main() {
    let sim_seconds = therm3d_bench::sim_seconds_or_die(120.0);
    println!("stack-orientation study: which die touches the spreader?\n");
    println!("all-cores-busy steady peak core temperature, °C:");
    println!("{:>8} {:>16} {:>16} {:>8}", "config", "cores far (dflt)", "cores near sink", "delta");
    for exp in [Experiment::Exp1, Experiment::Exp3] {
        let far = busy_peak(exp, StackOrder::CoresFarFromSink);
        let near = busy_peak(exp, StackOrder::CoresNearSink);
        println!("{:>8} {far:>16.1} {near:>16.1} {:>8.1}", exp.to_string(), far - near);
    }

    // Dynamic comparison: one sweep, the orientation as an axis. The
    // cells, seeds and numbers match the old hand-rolled loop exactly
    // (paper defaults: trace seed 2009, policy seed 0xACE1, 8×8 grid,
    // full Table I rotation).
    let spec = SweepSpec::new("orientation-study")
        .with_experiments(&[Experiment::Exp1, Experiment::Exp3])
        .with_stack_orders(&StackOrder::ALL)
        .with_policies(&[PolicyKind::Default])
        .with_sim_seconds(sim_seconds);
    let report = therm3d_bench::run_sweep_cached_or_die(&spec);

    println!("\ndynamic comparison (Default policy, Table I rotation):");
    println!(
        "{:>8} {:>12} {:>10} {:>10} {:>12}",
        "config", "orientation", "hot%", "peak°C", "vert_peak°C"
    );
    for row in &report.rows {
        let label = match row.cell.stack_order {
            StackOrder::CoresFarFromSink => "far",
            StackOrder::CoresNearSink => "near",
        };
        println!(
            "{:>8} {label:>12} {:>10.2} {:>10.1} {:>12.1}",
            row.cell.experiment.to_string(),
            row.result.hotspot_pct,
            row.result.peak_temp_c,
            row.result.vertical_peak_c
        );
    }

    println!(
        "\nreading: bonding the logic die to the spreader buys several degrees on \
         the cores — the trade-off a 3D floorplanner weighs against the memory \
         die's testability and wire-length constraints (Section IV-A)."
    );
}
