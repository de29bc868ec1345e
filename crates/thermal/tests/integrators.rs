//! Cross-checks between the implicit (pre-factored TR-BDF2) default
//! integrator and the explicit RK4 golden reference, plus the caching
//! and performance contracts the implicit path promises.

use std::time::Instant;

use therm3d_floorplan::{Experiment, Stack3d};
use therm3d_thermal::sparse::factor::factor;
use therm3d_thermal::{Integrator, ThermalConfig, ThermalModel};

/// Trajectory agreement tolerance between the two integrators, °C.
/// Measured worst-case divergence under 5× per-tick power swings is
/// ~0.011 °C on the two-layer stacks and ~0.05 °C on the four-layer
/// ones (three TR-BDF2 substeps per 100 ms tick); 0.1 °C leaves
/// headroom without hiding regressions.
const TRAJ_TOL_C: f64 = 0.1;

fn model(exp: Experiment, grid: usize, integrator: Integrator) -> (Stack3d, ThermalModel) {
    let stack = exp.stack();
    let cfg = ThermalConfig::paper_default().with_grid(grid, grid).with_integrator(integrator);
    let model = ThermalModel::new(&stack, cfg);
    (stack, model)
}

fn core_powers(stack: &Stack3d, watts: f64) -> Vec<f64> {
    let mut p = vec![0.0; stack.num_blocks()];
    for c in stack.core_ids() {
        p[stack.core_block_index(c)] = watts;
    }
    p
}

#[test]
fn implicit_matches_rk4_across_experiments_and_grids() {
    for exp in Experiment::ALL {
        for grid in [4usize, 8] {
            let (stack, mut rk4) = model(exp, grid, Integrator::ExplicitRk4);
            let (_, mut imp) = model(exp, grid, Integrator::ImplicitCn);
            let idle = vec![0.4; stack.num_blocks()];
            rk4.initialize_steady_state(&idle);
            imp.initialize_steady_state(&idle);
            let base = core_powers(&stack, 3.0);
            let mut worst: f64 = 0.0;
            // 3 s of 100 ms ticks with a harsh 5× power square wave —
            // worse than any real workload's per-tick swing.
            for t in 0..30 {
                let scale: f64 = if (t / 5) % 2 == 0 { 1.0 } else { 0.2 };
                let p: Vec<f64> = base.iter().map(|&w| (w * scale).max(0.3)).collect();
                rk4.set_block_powers(&p);
                imp.set_block_powers(&p);
                rk4.step(0.1);
                imp.step(0.1);
                for (a, b) in rk4.block_temperatures_c().iter().zip(imp.block_temperatures_c()) {
                    worst = worst.max((a - b).abs());
                }
            }
            assert!(
                worst < TRAJ_TOL_C,
                "{exp} {grid}x{grid}: integrators diverge by {worst:.4} C (tolerance {TRAJ_TOL_C})"
            );
        }
    }
}

#[test]
fn steady_state_is_a_fixed_point_of_the_implicit_step() {
    for exp in Experiment::ALL {
        let (stack, mut imp) = model(exp, 4, Integrator::ImplicitCn);
        let p = core_powers(&stack, 3.0);
        let steady = imp.initialize_steady_state(&p);
        for _ in 0..10 {
            imp.step(0.1);
        }
        for (i, (now, then)) in imp.block_temperatures_c().iter().zip(&steady).enumerate() {
            assert!(
                (now - then).abs() < 1e-6,
                "{exp} block {i}: steady state drifted from {then:.9} to {now:.9}"
            );
        }
    }
}

#[test]
fn repeated_and_smaller_dt_reuse_cached_factorizations() {
    let (stack, mut imp) = model(Experiment::Exp2, 4, Integrator::ImplicitCn);
    imp.set_block_powers(&core_powers(&stack, 2.0));
    assert_eq!(imp.factorization_count(), 0, "construction must not factor anything");

    imp.step(0.1);
    let after_first = imp.factorization_count();
    assert_eq!(after_first, 1, "first step factors exactly once");
    for _ in 0..20 {
        imp.step(0.1);
    }
    assert_eq!(imp.factorization_count(), after_first, "same dt must reuse the cached factor");

    // A smaller dt needs one new factorization, then both sizes hit.
    imp.step(0.05);
    let after_small = imp.factorization_count();
    assert_eq!(after_small, after_first + 1, "new substep size factors once");
    imp.step(0.1);
    imp.step(0.05);
    imp.step(0.1);
    assert_eq!(
        imp.factorization_count(),
        after_small,
        "alternating previously seen dts must never re-factorize"
    );
    // However many step sizes the driver cycles through, the symbolic
    // analysis (ordering + elimination tree + fill counts) of the
    // α-independent pattern runs exactly once — only numeric phases
    // repeat (ROADMAP follow-up from the implicit-solver PR).
    assert_eq!(imp.symbolic_analysis_count(), 1);
    imp.initialize_steady_state(&core_powers(&stack, 1.0));
    assert_eq!(
        imp.symbolic_analysis_count(),
        1,
        "the steady-state system shares the pattern, hence the analysis"
    );
}

#[test]
fn steady_state_reuses_one_factorization() {
    let (stack, mut imp) = model(Experiment::Exp1, 4, Integrator::ImplicitCn);
    let p = core_powers(&stack, 3.0);
    imp.initialize_steady_state(&p);
    assert_eq!(imp.factorization_count(), 1);
    // Leakage-style fixed-point iteration re-solves, never re-factors.
    for w in [2.0, 4.0, 3.0] {
        imp.initialize_steady_state(&core_powers(&stack, w));
    }
    assert_eq!(imp.factorization_count(), 1, "steady-state factor is cached for the model's life");
}

#[test]
fn rk4_path_never_factorizes() {
    let (stack, mut rk4) = model(Experiment::Exp1, 4, Integrator::ExplicitRk4);
    rk4.set_block_powers(&core_powers(&stack, 3.0));
    for _ in 0..5 {
        rk4.step(0.1);
    }
    assert_eq!(rk4.factorization_count(), 0, "explicit stepping needs no factorization");
    assert_eq!(rk4.integrator(), Integrator::ExplicitRk4);
}

#[test]
fn implicit_tick_is_at_least_10x_faster_than_rk4_on_exp2() {
    // The acceptance-criteria comparison: one 100 ms tick on EXP-2 at
    // the paper-default grid. Warm both models first so the implicit
    // factorization (a one-time cost) is excluded, exactly as in a real
    // sweep where thousands of ticks amortize it.
    let (stack, mut rk4) = model(Experiment::Exp2, 8, Integrator::ExplicitRk4);
    let (_, mut imp) = model(Experiment::Exp2, 8, Integrator::ImplicitCn);
    let p = core_powers(&stack, 3.0);
    rk4.set_block_powers(&p);
    imp.set_block_powers(&p);
    rk4.step(0.1);
    imp.step(0.1);

    let rk4_ticks = 20;
    let start = Instant::now();
    for _ in 0..rk4_ticks {
        rk4.step(0.1);
    }
    let rk4_per_tick = start.elapsed().as_secs_f64() / f64::from(rk4_ticks);

    let imp_ticks = 400;
    let start = Instant::now();
    for _ in 0..imp_ticks {
        imp.step(0.1);
    }
    let imp_per_tick = start.elapsed().as_secs_f64() / f64::from(imp_ticks);

    let speedup = rk4_per_tick / imp_per_tick;
    assert!(
        speedup >= 10.0,
        "implicit must be >=10x faster per tick: rk4 {:.3} ms vs implicit {:.3} ms ({speedup:.1}x)",
        rk4_per_tick * 1e3,
        imp_per_tick * 1e3,
    );
}

#[test]
fn both_integrators_relax_to_the_same_steady_state() {
    for integ in Integrator::ALL {
        let (stack, mut m) = model(Experiment::Exp3, 4, integ);
        let p = core_powers(&stack, 3.0);
        let steady = {
            let mut s = m.clone();
            s.initialize_steady_state(&p)
        };
        m.set_block_powers(&p);
        for _ in 0..600 {
            m.step(0.1);
        }
        let sink_rise_now = m.sink_temperature_c();
        let sink_steady = 45.0 + 0.1 * p.iter().sum::<f64>();
        for (a, b) in m.block_temperatures_c().iter().zip(&steady) {
            let rise_now = a - sink_rise_now;
            let rise_steady = b - sink_steady;
            assert!(
                (rise_now - rise_steady).abs() < 0.5,
                "{integ}: rise {rise_now:.3} vs steady rise {rise_steady:.3}"
            );
        }
    }
}

#[test]
fn large_grid_steady_state_matches_the_minimum_degree_factor() {
    // 32×32 on the two-die stack is the smallest paper grid past the
    // 2 048-node switch, so the model orders its system by nested
    // dissection; an independent minimum-degree factorization of the
    // same conductance matrix must reach the same steady state.
    let (stack, mut model) = model(Experiment::Exp2, 32, Integrator::ImplicitCn);
    let p = core_powers(&stack, 3.0);
    let net = model.network();
    assert_eq!(net.node_count(), 2050, "EXP-2 at 32x32: 2 x 32 x 32 cells + spreader + sink");
    let rhs: Vec<f64> = net
        .node_power(&p)
        .iter()
        .zip(net.ambient_conductance())
        .map(|(&w, &g)| w + g * net.ambient_k())
        .collect();
    let reference = factor(net.conductance()).expect("G is SPD").solve(&rhs);

    model.initialize_steady_state(&p);
    for (i, (got, want)) in model.node_temperatures_k().iter().zip(&reference).enumerate() {
        assert!(
            (got - want).abs() <= 1e-9 * want.abs(),
            "node {i}: nested dissection {got} K vs minimum degree {want} K"
        );
    }
}
