//! Release-profile scaling assertions for the thermal solver:
//! - at 64×64 the nested-dissection (ND) pipeline — ordering, scalar
//!   numeric phase and serial triangular solves — beats the same
//!   pipeline under the exact minimum-degree (MD) ordering, at no more
//!   than 1.5× its fill;
//! - at 64×64 the implicit integrator holds a ≥10× per-tick advantage
//!   over explicit RK4 on the two-die stack (EXP-2) and on the four-die
//!   one (EXP-3), both on the sparse substeps under the ND ordering;
//! - at 4×4, where the implicit tick runs in the network's eigenbasis,
//!   that advantage is ≥50×.
//!
//! Wall-clock assertions only mean something with optimizations on, so
//! debug builds (the default `cargo test`) shrink the grids and tick
//! counts and keep the *correctness* halves of each test (the two
//! pipelines' solutions agree, the fill bound, sane temperatures) while
//! skipping the speed asserts; CI runs this file under `--release` for
//! the real numbers.
#![allow(
    clippy::disallowed_methods,
    reason = "the speed asserts time the solver on the wall clock"
)]

use std::time::Instant;

use therm3d_floorplan::Experiment;
use therm3d_thermal::sparse::factor::{analyze_with_perm, min_degree_order};
use therm3d_thermal::sparse::CsrMatrix;
use therm3d_thermal::{Integrator, RcNetwork, ThermalConfig, ThermalModel};

/// Release asserts the paper-scale grid; debug only exercises the
/// machinery (wall-clock comparisons are meaningless unoptimized).
const RELEASE: bool = !cfg!(debug_assertions);

fn grid_side() -> usize {
    if RELEASE {
        64
    } else {
        16
    }
}

fn big_network() -> RcNetwork {
    let g = grid_side();
    let stack = Experiment::Exp2.stack();
    RcNetwork::build(&stack, &ThermalConfig::paper_default().with_grid(g, g))
}

fn uniform_rhs(n: usize) -> Vec<f64> {
    (0..n).map(|i| 1.0 + ((i * 13) % 7) as f64 * 0.25).collect()
}

/// Wall time of each phase of one solver pipeline, seconds, and the
/// fill its ordering produced.
struct Phases {
    nnz_l: usize,
    ordering: f64,
    symbolic: f64,
    numeric: f64,
    solves: f64,
}

impl Phases {
    fn total(&self) -> f64 {
        self.ordering + self.symbolic + self.numeric + self.solves
    }

    fn describe(&self, solves: usize) -> String {
        format!(
            "nnz(L) {}, ordering {:.1} ms, symbolic {:.1} ms, numeric {:.1} ms, \
             {solves} solves {:.1} ms, total {:.1} ms",
            self.nnz_l,
            self.ordering * 1e3,
            self.symbolic * 1e3,
            self.numeric * 1e3,
            self.solves * 1e3,
            self.total() * 1e3
        )
    }
}

/// Times one pipeline phase by phase: the fill-reducing `ordering`,
/// the symbolic analysis under it, the scalar numeric phase and
/// `solves` serial triangular solves of `b`. Returns the last solution.
fn time_pipeline(
    a: &CsrMatrix,
    ordering: impl FnOnce() -> Vec<usize>,
    b: &[f64],
    solves: usize,
) -> (Phases, Vec<f64>) {
    let t0 = Instant::now();
    let perm = ordering();
    let t1 = Instant::now();
    let symbolic = analyze_with_perm(a, perm);
    let t2 = Instant::now();
    let factor = symbolic.factor_numeric(a).unwrap();
    let t3 = Instant::now();
    let mut x = vec![0.0; a.dim()];
    let mut scratch = vec![0.0; a.dim()];
    for _ in 0..solves {
        factor.solve_into(b, &mut scratch, &mut x);
    }
    let phases = Phases {
        nnz_l: symbolic.nnz_l(),
        ordering: (t1 - t0).as_secs_f64(),
        symbolic: (t2 - t1).as_secs_f64(),
        numeric: (t3 - t2).as_secs_f64(),
        solves: t3.elapsed().as_secs_f64(),
    };
    (phases, x)
}

#[test]
fn nested_dissection_pipeline_beats_minimum_degree_at_scale() {
    let net = big_network();
    let a = net.conductance();
    let n = a.dim();
    if RELEASE {
        assert!(n > 8000, "64x64 on the two-die stack passes 10^4/2 nodes: {n}");
    }
    let b = uniform_rhs(n);
    // A sweep tick does 4 triangular solves (two TR-BDF2 stages of a
    // forward+backward pair); 40 solves ≈ a 10-tick working set.
    let solves = 40;
    // Warm-up round so the ND pipeline pays no first-touch costs; the
    // MD pipeline is dominated by its deterministic ordering pass,
    // which a warm-up would only run twice.
    let _ = time_pipeline(a, || net.nested_dissection_perm().expect("grid network"), &b, 1);
    let (md, xm) = time_pipeline(a, || min_degree_order(a), &b, solves);
    let (nd, xn) =
        time_pipeline(a, || net.nested_dissection_perm().expect("grid network"), &b, solves);

    // Correctness in every profile: both are factorizations of A (under
    // different orderings, so only the solutions can be compared).
    for (i, (m, d)) in xm.iter().zip(&xn).enumerate() {
        let scale = m.abs().max(d.abs()).max(1.0);
        assert!((m - d).abs() <= 1e-7 * scale, "x[{i}]: min-degree {m} vs nested dissection {d}");
    }
    println!("solver_scale: n={n} minimum degree: {}", md.describe(solves));
    println!("solver_scale: n={n} nested dissection: {}", nd.describe(solves));
    // Fill is deterministic, so this holds in every profile: nested
    // dissection trades some fill for a near-linear ordering pass, but
    // never more than half again minimum degree's.
    let fill_ratio = nd.nnz_l as f64 / md.nnz_l as f64;
    assert!(
        fill_ratio <= 1.5,
        "nested-dissection fill {} is {fill_ratio:.2}x minimum degree's {} at {n} nodes",
        nd.nnz_l,
        md.nnz_l
    );
    if RELEASE {
        assert!(
            nd.total() < md.total(),
            "the nested-dissection pipeline ({:.3}s) must beat the minimum-degree one \
             ({:.3}s) at {n} nodes",
            nd.total(),
            md.total()
        );
    }
}

/// An implicit and an RK4 model of `exp` at `g`×`g` under a fixed
/// power pattern (3 W per core, 1.28 W per L2 cache, 2 W for every
/// other block), both warmed: the implicit path builds its solver state
/// (symbolic analysis and factors, or the eigenbasis on small
/// networks) on its first tick, and the explicit path touches its
/// buffers with one deliberately tiny step — a full warm-up tick would
/// double the most expensive measurement in the file.
fn warm_models(exp: Experiment, g: usize) -> (ThermalModel, ThermalModel) {
    let stack = exp.stack();
    let powers: Vec<f64> = stack
        .sites()
        .iter()
        .map(|s| match s.kind {
            therm3d_floorplan::UnitKind::Core => 3.0,
            therm3d_floorplan::UnitKind::L2Cache => 1.28,
            _ => 2.0,
        })
        .collect();
    let cfg = ThermalConfig::paper_default().with_grid(g, g);
    let mut implicit =
        ThermalModel::new(&stack, cfg.clone().with_integrator(Integrator::ImplicitCn));
    let mut rk4 = ThermalModel::new(&stack, cfg.with_integrator(Integrator::ExplicitRk4));
    implicit.set_block_powers(&powers);
    rk4.set_block_powers(&powers);
    implicit.step(0.1);
    rk4.step(rk4.stable_dt());
    (implicit, rk4)
}

/// Wall time of one 100 ms tick, seconds (ns resolution: a modal tick
/// takes about a microsecond).
fn time_tick(model: &mut ThermalModel) -> f64 {
    let t0 = Instant::now();
    model.step(0.1);
    t0.elapsed().as_secs_f64()
}

fn median(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// Both transients stay physically sane. The two integrators advanced
/// different simulated spans here, so their agreement is asserted by
/// the thermal crate's own tests, not by this timing harness.
fn assert_sane(label: &str, models: [&ThermalModel; 2]) {
    for model in models {
        for (i, t) in model.block_temperatures_c().iter().enumerate() {
            assert!(t.is_finite() && *t > 40.0 && *t < 150.0, "{label} block {i}: {t}");
        }
    }
}

#[test]
fn implicit_tick_holds_a_10x_advantage_over_rk4_at_scale() {
    let g = grid_side();
    for exp in [Experiment::Exp2, Experiment::Exp3] {
        let (mut implicit, mut rk4) = warm_models(exp, g);
        // Mean over the ticks, so a cost paid on only some of them (a
        // refactorization every few ticks, say) still counts.
        let ticks = if RELEASE { 10 } else { 2 };
        let implicit_tick_s =
            (0..ticks).map(|_| time_tick(&mut implicit)).sum::<f64>() / ticks as f64;
        // One full 100 ms RK4 tick: thousands of stability-bounded
        // substeps at this resolution, so one is plenty to time.
        let rk4_tick_s = time_tick(&mut rk4);
        println!(
            "solver_scale: {exp} {g}x{g} implicit tick {:.1} us vs rk4 tick {:.1} us ({:.0}x)",
            implicit_tick_s * 1e6,
            rk4_tick_s * 1e6,
            rk4_tick_s / implicit_tick_s
        );
        assert_sane(&format!("{exp} {g}x{g}"), [&implicit, &rk4]);
        if RELEASE {
            assert!(
                rk4_tick_s >= 10.0 * implicit_tick_s,
                "implicit must hold a >=10x per-tick advantage on {exp} at {g}x{g}: \
                 implicit {implicit_tick_s:.4}s vs rk4 {rk4_tick_s:.4}s"
            );
        }
    }
}

#[test]
fn modal_tick_holds_a_50x_advantage_over_rk4_at_4x4() {
    // 34 nodes: the implicit tick is one pass over the network's modes,
    // about 170x cheaper than RK4. Sparse substeps would be about 20x
    // and an eigenbasis rebuilt every tick far less, so 50x catches
    // either fallback.
    let (mut implicit, mut rk4) = warm_models(Experiment::Exp2, 4);
    // Alternate the two integrators so that a noisy neighbour slows
    // both medians alike.
    let ticks = if RELEASE { 200 } else { 20 };
    let (mut implicit_s, mut rk4_s) = (Vec::with_capacity(ticks), Vec::with_capacity(ticks));
    for _ in 0..ticks {
        implicit_s.push(time_tick(&mut implicit));
        rk4_s.push(time_tick(&mut rk4));
    }
    let (implicit_tick_s, rk4_tick_s) = (median(implicit_s), median(rk4_s));
    println!(
        "solver_scale: EXP-2 4x4 implicit tick {:.2} us vs rk4 tick {:.1} us ({:.0}x, medians \
         of {ticks})",
        implicit_tick_s * 1e6,
        rk4_tick_s * 1e6,
        rk4_tick_s / implicit_tick_s
    );
    assert_sane("EXP-2 4x4", [&implicit, &rk4]);
    if RELEASE {
        assert!(
            rk4_tick_s >= 50.0 * implicit_tick_s,
            "the modal tick must hold a >=50x advantage at 4x4: \
             implicit {implicit_tick_s:.2e}s vs rk4 {rk4_tick_s:.2e}s"
        );
    }
}
