//! Cross-crate physics integration tests: the RC thermal model, the power
//! model and the floorplans must compose into a physically sensible
//! system (conservation, monotonicity, convergence, stacking effects).

use therm3d_floorplan::{Experiment, StackOrder};
use therm3d_power::{CorePowerInput, PowerModel, PowerParams, VfTable};
use therm3d_thermal::{ThermalConfig, ThermalModel};

fn fast_thermal() -> ThermalConfig {
    ThermalConfig::paper_default().with_grid(4, 4)
}

/// All-busy steady state with leakage feedback, returning block temps.
fn busy_steady(exp: Experiment) -> Vec<f64> {
    let stack = exp.stack();
    let mut model = ThermalModel::new(&stack, fast_thermal());
    let power = PowerModel::new(&stack, PowerParams::paper_default(), VfTable::paper_default());
    let busy = vec![CorePowerInput::busy(); stack.num_cores()];
    let mut temps = vec![45.0; stack.num_blocks()];
    for _ in 0..4 {
        let p = power.block_powers(&busy, &temps);
        temps = model.initialize_steady_state(&p);
    }
    temps
}

fn peak(temps: &[f64]) -> f64 {
    temps.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

#[test]
fn steady_state_sits_above_ambient() {
    for exp in Experiment::ALL {
        let temps = busy_steady(exp);
        for (i, &t) in temps.iter().enumerate() {
            assert!(t > 45.0, "{exp}: block {i} at {t} °C is below ambient");
            assert!(t < 150.0, "{exp}: block {i} at {t} °C is non-physical");
        }
    }
}

#[test]
fn more_power_means_hotter_everywhere() {
    let stack = Experiment::Exp2.stack();
    let mut model = ThermalModel::new(&stack, fast_thermal());
    let lo = vec![1.0; stack.num_blocks()];
    let hi = vec![2.0; stack.num_blocks()];
    let t_lo = model.initialize_steady_state(&lo);
    let t_hi = model.initialize_steady_state(&hi);
    for (a, b) in t_lo.iter().zip(&t_hi) {
        assert!(b > a, "doubling power must raise every block: {a} vs {b}");
    }
}

#[test]
fn steady_state_scales_linearly_in_power() {
    // The RC network without leakage feedback is linear: temperature rise
    // above ambient doubles when power doubles.
    let stack = Experiment::Exp1.stack();
    let mut model = ThermalModel::new(&stack, fast_thermal());
    let p1 = vec![0.5; stack.num_blocks()];
    let p2 = vec![1.0; stack.num_blocks()];
    let t1 = model.initialize_steady_state(&p1);
    let t2 = model.initialize_steady_state(&p2);
    for (a, b) in t1.iter().zip(&t2) {
        let rise1 = a - 45.0;
        let rise2 = b - 45.0;
        assert!(
            (rise2 - 2.0 * rise1).abs() < 0.02 * rise2.abs().max(1e-9),
            "linearity violated: {rise1} vs {rise2}"
        );
    }
}

#[test]
fn sink_temperature_reflects_total_power() {
    // At steady state all heat leaves through the convection resistance:
    // T_sink − T_ambient = P_total · R_conv (Table II: 0.1 K/W).
    let stack = Experiment::Exp3.stack();
    let mut model = ThermalModel::new(&stack, fast_thermal());
    let powers = vec![1.5; stack.num_blocks()];
    let total: f64 = powers.iter().sum();
    model.initialize_steady_state(&powers);
    let expected = 45.0 + total * 0.1;
    let sink = model.sink_temperature_c();
    assert!(
        (sink - expected).abs() < 0.05,
        "sink at {sink} °C, conservation predicts {expected} °C"
    );
}

#[test]
fn transient_converges_to_steady_state() {
    let stack = Experiment::Exp2.stack();
    let mut steady_model = ThermalModel::new(&stack, fast_thermal());
    let powers: Vec<f64> = (0..stack.num_blocks()).map(|i| 0.5 + 0.1 * i as f64).collect();
    let steady = steady_model.initialize_steady_state(&powers);

    let mut transient = ThermalModel::new(&stack, fast_thermal());
    transient.reset_uniform(45.0);
    transient.set_block_powers(&powers);
    // March far past the package time constant (R·C ≈ 14 s).
    for _ in 0..3000 {
        transient.step(0.1);
    }
    let reached = transient.block_temperatures_c();
    for (i, (a, b)) in steady.iter().zip(&reached).enumerate() {
        assert!((a - b).abs() < 0.3, "block {i}: transient {b} °C never reached steady {a} °C");
    }
}

#[test]
fn step_size_does_not_change_the_answer() {
    // The adaptive RK4 integrator must give the same trajectory whether
    // the caller asks for one 1 s step or ten 100 ms steps.
    let stack = Experiment::Exp1.stack();
    let powers = vec![1.0; stack.num_blocks()];
    let run = |dt: f64, n: usize| {
        let mut m = ThermalModel::new(&stack, fast_thermal());
        m.reset_uniform(50.0);
        m.set_block_powers(&powers);
        for _ in 0..n {
            m.step(dt);
        }
        m.block_temperatures_c()
    };
    let coarse = run(1.0, 10);
    let fine = run(0.1, 100);
    for (a, b) in coarse.iter().zip(&fine) {
        assert!((a - b).abs() < 0.05, "step-size sensitivity: {a} vs {b}");
    }
}

#[test]
fn four_layer_stacks_run_hotter_than_two_layer() {
    let p2 = peak(&busy_steady(Experiment::Exp2));
    let p4 = peak(&busy_steady(Experiment::Exp4));
    assert!(p4 > p2 + 10.0, "stacking four active layers must cost well over 10 °C: {p2} vs {p4}");
    let p1 = peak(&busy_steady(Experiment::Exp1));
    let p3 = peak(&busy_steady(Experiment::Exp3));
    assert!(p3 > p1 + 10.0, "split config: {p1} vs {p3}");
}

#[test]
fn upper_core_layer_is_hotter_than_lower() {
    // EXP-3 has core layers at 1 and 3 (default order); the one further
    // from the sink must run hotter under identical load.
    let exp = Experiment::Exp3;
    let stack = exp.stack();
    let temps = busy_steady(exp);
    let mean_core_temp = |layer: usize| {
        let cores: Vec<f64> = stack
            .sites()
            .iter()
            .enumerate()
            .filter(|(_, s)| s.layer == layer && s.kind == therm3d_floorplan::UnitKind::Core)
            .map(|(i, _)| temps[i])
            .collect();
        assert!(!cores.is_empty(), "layer {layer} should hold cores");
        cores.iter().sum::<f64>() / cores.len() as f64
    };
    let lower = mean_core_temp(1);
    let upper = mean_core_temp(3);
    assert!(
        upper > lower + 1.0,
        "core layer far from sink must be hotter: L1 {lower} vs L3 {upper}"
    );
}

#[test]
fn core_orientation_changes_the_thermal_picture() {
    // Bonding the core die to the spreader (CoresNearSink) must cool the
    // cores relative to the default orientation.
    let far = Experiment::Exp1.stack_with_order(StackOrder::CoresFarFromSink);
    let near = Experiment::Exp1.stack_with_order(StackOrder::CoresNearSink);
    let run = |stack: &therm3d_floorplan::Stack3d| {
        let mut model = ThermalModel::new(stack, fast_thermal());
        let power = PowerModel::new(stack, PowerParams::paper_default(), VfTable::paper_default());
        let busy = vec![CorePowerInput::busy(); stack.num_cores()];
        let temps = vec![45.0; stack.num_blocks()];
        let p = power.block_powers(&busy, &temps);
        let t = model.initialize_steady_state(&p);
        stack.core_ids().map(|c| t[stack.core_block_index(c)]).fold(f64::NEG_INFINITY, f64::max)
    };
    let hot_far = run(&far);
    let hot_near = run(&near);
    assert!(
        hot_far > hot_near + 1.0,
        "cores far from the sink must be hotter: {hot_far} vs {hot_near}"
    );
}

#[test]
fn leakage_feedback_raises_steady_temperatures() {
    let stack = Experiment::Exp3.stack();
    let no_leak = {
        let mut params = PowerParams::paper_default();
        params.leakage = therm3d_power::LeakageModel::disabled();
        let power = PowerModel::new(&stack, params, VfTable::paper_default());
        let mut model = ThermalModel::new(&stack, fast_thermal());
        let busy = vec![CorePowerInput::busy(); stack.num_cores()];
        let temps = vec![45.0; stack.num_blocks()];
        let p = power.block_powers(&busy, &temps);
        peak(&model.initialize_steady_state(&p))
    };
    let with_leak = peak(&busy_steady(Experiment::Exp3));
    assert!(
        with_leak > no_leak + 2.0,
        "temperature-dependent leakage must add several degrees: {no_leak} vs {with_leak}"
    );
}

#[test]
fn finer_grids_converge() {
    // 8×8 vs 12×12 peak temperatures agree within a degree — the figure
    // resolution is converged.
    let stack = Experiment::Exp2.stack();
    let powers: Vec<f64> = stack
        .sites()
        .iter()
        .map(|s| if s.kind == therm3d_floorplan::UnitKind::Core { 3.0 } else { 1.0 })
        .collect();
    let peak_at = |rows, cols| {
        let mut m = ThermalModel::new(&stack, ThermalConfig::paper_default().with_grid(rows, cols));
        peak(&m.initialize_steady_state(&powers))
    };
    let p8 = peak_at(8, 8);
    let p12 = peak_at(12, 12);
    assert!((p8 - p12).abs() < 1.0, "grid sensitivity too high: {p8} vs {p12}");
}

#[test]
fn tsv_density_lowers_interface_resistivity() {
    use therm3d_thermal::tsv::joint_resistivity_for_overhead;
    // Figure 2: joint resistivity falls monotonically with via density
    // from the bulk 0.25 m·K/W.
    let mut last = joint_resistivity_for_overhead(0.0);
    assert!((last - 0.25).abs() < 1e-9, "zero vias = bulk interface material");
    for pct in [0.002, 0.005, 0.01, 0.02, 0.05] {
        let r = joint_resistivity_for_overhead(pct);
        assert!(r < last, "resistivity must fall with density: {r} at {pct}");
        last = r;
    }
    // Copper-limited asymptote stays positive.
    assert!(joint_resistivity_for_overhead(0.9) > 0.0);
}

#[test]
fn mirrored_layers_do_not_change_totals() {
    // Anti-aligned bonding is a pure in-plane transform: same block
    // count, same total power, same steady-state *average* temperature
    // within a few tenths of a degree (only the spatial pattern shifts).
    let aligned = therm3d_floorplan::niagara::mixed_layer();
    let mirrored = aligned.mirrored_y();
    assert_eq!(aligned.len(), mirrored.len());
    let area_a: f64 = aligned.blocks().iter().map(|b| b.area()).sum();
    let area_m: f64 = mirrored.blocks().iter().map(|b| b.area()).sum();
    assert!((area_a - area_m).abs() < 1e-9);
    for b in aligned.blocks() {
        let m = mirrored.block(b.name()).expect("mirroring keeps names");
        assert_eq!(b.kind(), m.kind());
        assert!((b.area() - m.area()).abs() < 1e-12);
    }
}

#[test]
fn vertical_gradients_stay_within_a_few_degrees() {
    // Section V-C: "the vertical gradients between adjacent layers are
    // limited to a few degrees only, due to the fact that the interlayer
    // material is thin and has sufficient conductivity." Run the most
    // stressed system under heavy load and check the claim end to end.
    use therm3d::{SimConfig, Simulator};
    use therm3d_policies::PolicyKind;
    use therm3d_workload::{Benchmark, TraceConfig};

    let exp = Experiment::Exp3;
    let stack = exp.stack();
    let jobs = TraceConfig::new(Benchmark::WebHigh, stack.num_cores(), 20.0).with_seed(7).stream();
    let policy = PolicyKind::Default.build(&stack, 1);
    let r = Simulator::new(SimConfig::paper_default(exp), policy).run_source(jobs, 20.0);
    assert!(r.vertical_peak_c > 0.0, "vertically adjacent blocks cannot be isothermal");
    assert!(
        r.vertical_peak_c < 10.0,
        "vertical gradients must stay at a few degrees: {:.2} °C",
        r.vertical_peak_c
    );
    assert!(r.vertical_mean_c <= r.vertical_peak_c);
}
