//! Package calibration search (diagnostic; not a paper figure).
//!
//! The paper fixes the Table II parameters (die/interlayer geometry,
//! convection R/C) but not the remaining package and power unknowns:
//! ambient at the sink, non-core logic power, spreader→sink constriction,
//! die-attach TIM thickness. This tool grid-searches those four free
//! parameters for the all-cores-busy steady-state peak that best matches
//! the operating regime the paper reports (2-layer systems borderline at
//! the 85 °C threshold, 4-layer clearly above it), printing the best fit
//! to paste into the `paper_default` constructors.

use therm3d_floorplan::Experiment;
use therm3d_power::{CorePowerInput, PowerModel, PowerParams, VfTable};
use therm3d_thermal::{ThermalConfig, ThermalModel};

/// All-busy steady-state peak block temperature for one configuration.
fn busy_peak(exp: Experiment, thermal: &ThermalConfig, power: &PowerParams) -> f64 {
    let stack = exp.stack();
    let mut model = ThermalModel::new(&stack, thermal.clone());
    let pm = PowerModel::new(&stack, power.clone(), VfTable::paper_default());
    let busy = vec![CorePowerInput::busy(); stack.num_cores()];
    let mut temps = vec![thermal.ambient_c; stack.num_blocks()];
    for _ in 0..4 {
        let p = pm.block_powers(&busy, &temps);
        temps = model.initialize_steady_state(&p);
    }
    temps.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

fn main() {
    // Operating-regime targets (°C, all-busy peak): EXP-1/2 borderline at
    // the 85 °C emergency threshold, EXP-3 well above it, EXP-4 worst.
    let targets = [88.0, 88.0, 100.0, 104.0];
    let weights = [2.0, 2.0, 1.0, 1.0];

    let ambients = [62.0];
    let others = [3.0];
    let s2s = [0.2, 0.25];
    // (thickness m, conductivity W/(m·K)); the first entry is HotSpot
    // v4.2's default interface material (20 µm, k = 4).
    let tims = [(20.0e-6, 2.0)];

    // (ambient °C, other-block W, spreader-to-sink K/W, (TIM m, TIM W/(m·K)))
    type Candidate = (f64, f64, f64, (f64, f64));
    let mut best: Option<(f64, [f64; 4], Candidate)> = None;
    for &ambient in &ambients {
        for &other_w in &others {
            for &r in &s2s {
                for &tim in &tims {
                    let mut tc = ThermalConfig::paper_default();
                    tc.ambient_c = ambient;
                    tc.spreader_to_sink_resistance_kw = r;
                    tc.tim_thickness_m = tim.0;
                    tc.tim = therm3d_thermal::Material::new(tim.1, 4.0e6);
                    tc = tc.with_grid(8, 8);
                    let mut pp = PowerParams::paper_default();
                    pp.other_w = other_w;
                    let peaks = [
                        busy_peak(Experiment::Exp1, &tc, &pp),
                        busy_peak(Experiment::Exp2, &tc, &pp),
                        busy_peak(Experiment::Exp3, &tc, &pp),
                        busy_peak(Experiment::Exp4, &tc, &pp),
                    ];
                    let err: f64 = peaks
                        .iter()
                        .zip(&targets)
                        .zip(&weights)
                        .map(|((p, t), w)| w * (p - t) * (p - t))
                        .sum();
                    if true {
                        if best.as_ref().is_none_or(|(e, _, _)| err < *e) {
                            best = Some((err, peaks, (ambient, other_w, r, tim)));
                        }
                        println!(
                            "err {err:8.1}  peaks {:5.1} {:5.1} {:5.1} {:5.1}  ambient={ambient} other_w={other_w} r_s2s={r} tim={:.0}µm k={}",
                            peaks[0], peaks[1], peaks[2], peaks[3], tim.0 * 1e6, tim.1
                        );
                    }
                }
            }
        }
    }
    let (err, peaks, (a, o, r, t)) = best.expect("grid is non-empty");
    println!("\nbest: err {err:.1}");
    println!(
        "  peaks: EXP1 {:.1}  EXP2 {:.1}  EXP3 {:.1}  EXP4 {:.1}",
        peaks[0], peaks[1], peaks[2], peaks[3]
    );
    println!("  ambient_c = {a}");
    println!("  other_w = {o}");
    println!("  spreader_to_sink_resistance_kw = {r}");
    println!("  tim = {:.0} µm, k = {} W/(m·K)", t.0 * 1e6, t.1);

    // Phase 2: dynamic validation of hand-picked candidates.
    use therm3d::{SimConfig, Simulator};
    use therm3d_policies::PolicyKind;
    use therm3d_workload::{stream_mix, Benchmark};

    let candidates: [(f64, f64, f64, (f64, f64)); 1] = [(45.0, 3.0, 0.2, (20.0e-6, 2.0))];
    let sim_seconds = 160.0;
    let benches = Benchmark::ALL;
    for (amb, ow, rr, tim) in candidates {
        println!(
            "\n=== dynamic: ambient={amb} other_w={ow} r_s2s={rr} tim={:.0}µm k={} ===",
            tim.0 * 1e6,
            tim.1
        );
        for exp in [Experiment::Exp3, Experiment::Exp4] {
            println!("  {exp}:");
            for kind in [
                PolicyKind::Default,
                PolicyKind::Migr,
                PolicyKind::AdaptRand,
                PolicyKind::Adapt3d,
                PolicyKind::DvfsTt,
                PolicyKind::Adapt3dDvfsTt,
            ] {
                let stack = exp.stack();
                let mut cfg = SimConfig::paper_default(exp);
                cfg.thermal.ambient_c = amb;
                cfg.thermal.spreader_to_sink_resistance_kw = rr;
                cfg.thermal.tim_thickness_m = tim.0;
                cfg.thermal.tim = therm3d_thermal::Material::new(tim.1, 4.0e6);
                cfg.power.other_w = ow;
                let policy = kind.build_with_dpm(&stack, 0xACE1, true);
                let jobs = stream_mix(&benches, exp.num_cores(), sim_seconds, 2009);
                let r = Simulator::new(cfg, policy).run_source(jobs, sim_seconds);
                println!("    {:<18} hot={:5.1}% grad={:5.1}% cyc={:5.1}% pk={:5.1} turn={:5.2}s migr={} unfin={}", kind.label(), r.hotspot_pct, r.gradient_pct, r.cycle_pct, r.peak_temp_c, r.perf.mean_turnaround_s, r.migrations, r.unfinished);
            }
            println!();
        }
    }
}

// ---------------------------------------------------------------------
// Phase 2 (appended by the calibration workflow): dynamic validation of
// candidate operating points — measured hot-spot residency under the
// figure workload for the policies whose ordering the paper reports.
