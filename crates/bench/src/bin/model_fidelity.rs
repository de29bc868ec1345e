//! Ablation: block-level vs grid thermal model — accuracy and cost.
//!
//! The paper uses HotSpot's grid model (Section IV-C); HotSpot also
//! offers a block-granularity model. Both are RC networks stepped by the
//! one [`ThermalModel`]: the grid rows over [`RcNetwork::build`] at
//! increasing resolution, the block-level row over
//! [`RcNetwork::build_blocks`]. This study quantifies what the grid
//! resolution buys: per-block steady-state disagreement with a 16×16
//! reference and wall-clock cost per 100 ms transient step.

use std::time::Instant;

use therm3d_floorplan::{Experiment, UnitKind};
use therm3d_thermal::{RcNetwork, ThermalConfig, ThermalModel};

fn block_powers(exp: Experiment) -> Vec<f64> {
    exp.stack()
        .sites()
        .iter()
        .map(|s| match s.kind {
            UnitKind::Core => 3.0,
            UnitKind::L2Cache => 1.28,
            UnitKind::Crossbar => 1.0,
            UnitKind::Other => 3.0,
        })
        .collect()
}

fn main() {
    for exp in [Experiment::Exp1, Experiment::Exp3] {
        let stack = exp.stack();
        let powers = block_powers(exp);
        println!("── {exp} ({} blocks) ──", stack.num_blocks());

        // Reference: 16×16 grid.
        let mut reference =
            ThermalModel::new(&stack, ThermalConfig::paper_default().with_grid(16, 16));
        let t_ref = reference.initialize_steady_state(&powers);
        let peak_ref = t_ref.iter().copied().fold(f64::NEG_INFINITY, f64::max);

        println!(
            "{:<14} {:>7} {:>9} {:>10} {:>12}",
            "model", "nodes", "peak °C", "maxerr °C", "µs per step"
        );
        for grid in [4usize, 8, 12] {
            let cfg = ThermalConfig::paper_default().with_grid(grid, grid);
            let mut m = ThermalModel::new(&stack, cfg);
            let t = m.initialize_steady_state(&powers);
            let peak = t.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            let maxerr = t.iter().zip(&t_ref).map(|(a, b)| (a - b).abs()).fold(0.0, f64::max);
            m.set_block_powers(&powers);
            #[allow(
                clippy::disallowed_methods,
                reason = "the table's per-tick cost column: never feeds the temperatures"
            )]
            let t0 = Instant::now();
            for _ in 0..200 {
                m.step(0.1);
            }
            let us = t0.elapsed().as_micros() as f64 / 200.0;
            println!(
                "{:<14} {:>7} {:>9.1} {:>10.2} {:>12.1}",
                format!("grid {grid}x{grid}"),
                m.network().node_count(),
                peak,
                maxerr,
                us
            );
        }

        let cfg = ThermalConfig::paper_default();
        let mut b =
            ThermalModel::from_network(RcNetwork::build_blocks(&stack, &cfg), cfg.integrator);
        let t = b.initialize_steady_state(&powers);
        let peak = t.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let maxerr = t.iter().zip(&t_ref).map(|(a, c)| (a - c).abs()).fold(0.0, f64::max);
        b.set_block_powers(&powers);
        #[allow(
            clippy::disallowed_methods,
            reason = "the table's per-tick cost column: never feeds the temperatures"
        )]
        let t0 = Instant::now();
        for _ in 0..200 {
            b.step(0.1);
        }
        let us = t0.elapsed().as_micros() as f64 / 200.0;
        println!(
            "{:<14} {:>7} {:>9.1} {:>10.2} {:>12.1}",
            "block-level",
            b.network().node_count(),
            peak,
            maxerr,
            us
        );
        println!("  (reference peak {peak_ref:.1} °C at 16x16)\n");
    }
}
