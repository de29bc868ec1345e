//! The eigenbasis of a small RC network, in which a whole implicit tick
//! is diagonal.
//!
//! With the node temperatures written as `T = T_amb + C^-1/2·V·x`, where
//! `A = C^-1/2·G·C^-1/2 = V·Λ·Vᵀ`, the network `C·dT/dt = −G·T + b`
//! decouples into one scalar equation per mode:
//! `dx_k/dt = −λ_k·x_k + B_k·p`, with `B = Vᵀ·C^-1/2·Wᵀ` mapping block
//! powers onto modes (`W` averages node temperatures over each block,
//! `Wᵀ` spreads block powers onto nodes). The block temperature rise
//! over ambient is `Bᵀ·x`. Every TR-BDF2 substep of size `h` maps a mode
//! by its stability function `r(λ_k·h)` about the steady amplitude
//! `B_k·p / λ_k`, so `m` substeps under held power are
//! `x_k ← r_k·x_k + s_k·(B_k·p)` with `r_k = r(λ_k·h)^m` and
//! `s_k = (1 − r_k)/λ_k`: exactly the substeps, up to rounding.
//!
//! The decomposition is Householder tridiagonalisation followed by the
//! implicit QL iteration (the tred2/tql2 pair of Wilkinson & Reinsch).
//! `V` itself is never formed: each reflection and each QL rotation is
//! applied only to the right-hand side `C^-1/2·[Wᵀ | e_sink | e_spreader]`,
//! which leaves `B` and the two probe rows `z_sink`, `z_spreader` that read
//! the sink and spreader temperatures.

use crate::model::{TRBDF2_C1, TRBDF2_C2, TRBDF2_SHIFT};
use crate::network::RcNetwork;

/// QL sweeps allowed per eigenvalue; each converges in two or three.
const MAX_QL_SWEEPS: usize = 60;

/// The modes of one network: `λ`, `B` and the two probe rows.
#[derive(Debug)]
pub(crate) struct Eigenbasis {
    /// `λ_k`, in 1/s, unsorted.
    lambda: Vec<f64>,
    /// Row `k` holds `B_k` (one entry per block), then `z_sink[k]` and
    /// `z_spreader[k]`.
    modes: Vec<f64>,
    /// Number of blocks, so a row is `blocks + 2` long.
    blocks: usize,
}

impl Eigenbasis {
    /// Decomposes `network`.
    ///
    /// # Panics
    ///
    /// Panics with "conductance matrix must be SPD" if the QL iteration
    /// does not converge or an eigenvalue is not finite and positive.
    pub(crate) fn build(network: &RcNetwork) -> Self {
        let blocks = network.block_count();
        let stride = blocks + 2;
        let mut rhs = vec![0.0; network.node_count() * stride];
        for b in 0..blocks {
            for &(node, w) in network.block_nodes(b) {
                rhs[node * stride + b] += w;
            }
        }
        rhs[network.sink_node() * stride + blocks] = 1.0;
        rhs[network.spreader_node() * stride + blocks + 1] = 1.0;
        let (lambda, modes) = decompose(network, rhs, stride);
        Self { lambda, modes, blocks }
    }

    fn rows(&self) -> std::slice::ChunksExact<'_, f64> {
        self.modes.chunks_exact(self.blocks + 2)
    }

    /// The decay `r_k` and gain `s_k` of every mode over one tick of
    /// `substeps` TR-BDF2 substeps of size `h`.
    pub(crate) fn gains(&self, h: f64, substeps: usize) -> Vec<(f64, f64)> {
        // Past 2³¹ substeps every decay is zero to the last bit anyway.
        let m = i32::try_from(substeps).unwrap_or(i32::MAX);
        self.lambda
            .iter()
            .map(|&lambda| {
                let z = lambda * h;
                let trapezoid = (TRBDF2_SHIFT - z) / (TRBDF2_SHIFT + z);
                let substep =
                    TRBDF2_SHIFT * (TRBDF2_C1 * trapezoid - TRBDF2_C2) / (TRBDF2_SHIFT + z);
                let r = substep.powi(m);
                (r, (1.0 - r) / lambda)
            })
            .collect()
    }

    /// The amplitudes of the steady state under block powers `powers`
    /// plus `sink_injection` watts into the sink node:
    /// `x = Λ⁻¹·(B·p + q·z_sink)`.
    pub(crate) fn steady_amplitudes_into(
        &self,
        powers: &[f64],
        sink_injection: f64,
        x: &mut Vec<f64>,
    ) {
        x.clear();
        x.extend(self.rows().zip(&self.lambda).map(|(row, &lambda)| {
            let (b, probes) = row.split_at(self.blocks);
            (dot(b, powers) + sink_injection * probes[0]) / lambda
        }));
    }

    /// One tick under block powers `powers`: `x ← r⊙x + s⊙(B·p)`, and
    /// `rise` becomes the block temperature rise `Bᵀ·x` over ambient,
    /// in one pass over `B`.
    // region(alloc-free: modal-tick)
    pub(crate) fn tick(
        &self,
        gains: &[(f64, f64)],
        powers: &[f64],
        x: &mut [f64],
        rise: &mut [f64],
    ) {
        rise.fill(0.0);
        for ((row, xk), &(r, s)) in self.rows().zip(x.iter_mut()).zip(gains) {
            let b = &row[..self.blocks];
            *xk = r * *xk + s * dot(b, powers);
            for (y, &bj) in rise.iter_mut().zip(b) {
                *y += *xk * bj;
            }
        }
    }
    // end-region

    /// The sink's temperature rise over ambient, `z_sink·x`.
    pub(crate) fn sink_rise(&self, x: &[f64]) -> f64 {
        self.rows().zip(x).map(|(row, &xk)| row[self.blocks] * xk).sum()
    }

    /// The spreader's temperature rise over ambient, `z_spreader·x`.
    pub(crate) fn spreader_rise(&self, x: &[f64]) -> f64 {
        self.rows().zip(x).map(|(row, &xk)| row[self.blocks + 1] * xk).sum()
    }
}

/// `a·b` over four running sums, so a mode's injection does not wait on
/// one long chain of additions.
// region(alloc-free: modal-dot)
fn dot(a: &[f64], b: &[f64]) -> f64 {
    let (a4, a_rest) = a.as_chunks::<4>();
    let (b4, b_rest) = b[..a.len()].as_chunks::<4>();
    let mut lanes = [0.0; 4];
    for (x, y) in a4.iter().zip(b4) {
        for ((lane, &x), &y) in lanes.iter_mut().zip(x).zip(y) {
            *lane += x * y;
        }
    }
    let rest: f64 = a_rest.iter().zip(b_rest).map(|(x, y)| x * y).sum();
    (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]) + rest
}
// end-region

/// Every node's temperature rise over ambient, `C^-1/2·V·x`, for the
/// amplitudes `x` of `network`'s eigenbasis. A diagnostic: it runs the
/// whole decomposition again, with the right-hand side `C^-1/2`, whose
/// `n` columns give `Vᵀ·C^-1/2`.
pub(crate) fn node_rise(network: &RcNetwork, x: &[f64]) -> Vec<f64> {
    let n = network.node_count();
    let mut identity = vec![0.0; n * n];
    identity.iter_mut().step_by(n + 1).for_each(|d| *d = 1.0);
    let (_, projected) = decompose(network, identity, n);
    let mut rise = vec![0.0; n];
    for (row, &xk) in projected.chunks_exact(n).zip(x) {
        for (t, &v) in rise.iter_mut().zip(row) {
            *t += v * xk;
        }
    }
    rise
}

/// Eigendecomposes `A = C^-1/2·G·C^-1/2 = V·Λ·Vᵀ` of `network` and
/// returns `λ` together with `Vᵀ·C^-1/2·X`, where `rhs` holds `X` row
/// major with `m` columns (one row per node).
fn decompose(network: &RcNetwork, mut rhs: Vec<f64>, m: usize) -> (Vec<f64>, Vec<f64>) {
    let n = network.node_count();
    let scale: Vec<f64> = network.capacitance().iter().map(|c| c.sqrt().recip()).collect();
    for (row, &s) in rhs.chunks_exact_mut(m).zip(&scale) {
        row.iter_mut().for_each(|v| *v *= s);
    }
    // The lower triangle of A by rows: A[i][0..=i] starts at i(i+1)/2.
    let mut a = vec![0.0; n * (n + 1) / 2];
    for i in 0..n {
        for (j, g) in network.conductance().row(i).filter(|&(j, _)| j <= i) {
            a[i * (i + 1) / 2 + j] = g * scale[i] * scale[j];
        }
    }
    let (mut lambda, mut off) = tridiagonalize(&mut a, &mut rhs, m);
    drop(a);
    diagonalize(&mut lambda, &mut off, &mut rhs, m);
    (lambda, rhs)
}

/// Reduces the symmetric matrix whose packed lower triangle is `a` to a
/// tridiagonal `Qᵀ·A·Q` by Householder reflections, last row first, and
/// applies `Qᵀ` to the row-major `rhs` (`m` columns) on the way. Returns
/// the diagonal and the off-diagonal, `off[i]` coupling `i` and `i + 1`
/// (`off[n − 1]` is zero).
fn tridiagonalize(a: &mut [f64], rhs: &mut [f64], m: usize) -> (Vec<f64>, Vec<f64>) {
    let n = rhs.len() / m;
    let mut diag = vec![0.0; n];
    let mut off = vec![0.0; n];
    let mut q = vec![0.0; n];
    let mut w = vec![0.0; m];
    for i in (1..n).rev() {
        let (lead, rest) = a.split_at_mut(i * (i + 1) / 2);
        diag[i] = rest[i];
        // Reflect row i's part left of the diagonal onto its last entry.
        let u = &mut rest[..i];
        let last = u[i - 1];
        let tail: f64 = u[..i - 1].iter().map(|v| v * v).sum();
        if tail == 0.0 {
            off[i - 1] = last;
            continue;
        }
        let norm = (tail + last * last).sqrt();
        let alpha = if last > 0.0 { -norm } else { norm };
        off[i - 1] = alpha;
        u[i - 1] = last - alpha;
        // H = I − u·uᵀ/h with h = uᵀu/2.
        let h = norm * norm - alpha * last;
        // The leading block S becomes H·S·H = S − u·qᵀ − q·uᵀ, where
        // q = S·u/h − (uᵀ·S·u)/(2h²)·u.
        let q = &mut q[..i];
        symmetric_mul(lead, u, q);
        let k = u.iter().zip(q.iter()).map(|(u, q)| u * q).sum::<f64>() / (2.0 * h * h);
        for (qj, &uj) in q.iter_mut().zip(u.iter()) {
            *qj = *qj / h - k * uj;
        }
        let mut rows = &mut lead[..];
        for j in 0..i {
            let (row, next) = std::mem::take(&mut rows).split_at_mut(j + 1);
            rows = next;
            for ((s, &uc), &qc) in row.iter_mut().zip(u.iter()).zip(q.iter()) {
                *s -= u[j] * qc + q[j] * uc;
            }
        }
        // rhs ← H·rhs on rows 0..i.
        w.fill(0.0);
        for (row, &uj) in rhs.chunks_exact(m).zip(u.iter()) {
            for (wc, &r) in w.iter_mut().zip(row) {
                *wc += uj * r;
            }
        }
        for (row, &uj) in rhs.chunks_exact_mut(m).zip(u.iter()) {
            let f = uj / h;
            for (r, &wc) in row.iter_mut().zip(&w) {
                *r -= f * wc;
            }
        }
    }
    diag[0] = a[0];
    (diag, off)
}

/// `y = S·x` for the symmetric `S` whose packed lower triangle is `s`.
fn symmetric_mul(s: &[f64], x: &[f64], y: &mut [f64]) {
    y.fill(0.0);
    let mut rest = s;
    for (i, &xi) in x.iter().enumerate() {
        let (row, tail) = rest.split_at(i + 1);
        rest = tail;
        let mut dot = row[i] * xi;
        for ((&a, &xj), yj) in row[..i].iter().zip(x).zip(y.iter_mut()) {
            dot += a * xj;
            *yj += a * xi;
        }
        y[i] += dot;
    }
}

/// Diagonalises the symmetric tridiagonal matrix (`diag`, `off`) by the
/// implicit QL iteration with Wilkinson shifts, leaving the eigenvalues
/// in `diag` and applying every rotation's transpose to rows `i, i + 1`
/// of the row-major `rhs` (`m` columns). After the reflections of
/// [`tridiagonalize`], row `k` of `rhs` thus ends up as `v_kᵀ` times
/// the original right-hand side, `v_k` being eigenvector `k` of the
/// original matrix.
///
/// # Panics
///
/// Panics with "conductance matrix must be SPD" if an eigenvalue needs
/// more than `MAX_QL_SWEEPS` sweeps or is not finite and positive.
fn diagonalize(diag: &mut [f64], off: &mut [f64], rhs: &mut [f64], m: usize) {
    let n = diag.len();
    let mut shift = 0.0;
    let mut scale: f64 = 0.0;
    for l in 0..n {
        scale = scale.max(diag[l].abs() + off[l].abs());
        let mut sweeps = 0;
        loop {
            // The block l..=end is unreduced; off[end] is negligible.
            let end = (l..n - 1).find(|&i| off[i].abs() <= f64::EPSILON * scale).unwrap_or(n - 1);
            if end == l {
                break;
            }
            sweeps += 1;
            assert!(
                sweeps <= MAX_QL_SWEEPS,
                "conductance matrix must be SPD: the QL iteration did not converge"
            );
            // Shift by the eigenvalue of the leading 2×2 block nearer
            // diag[l].
            let g = diag[l];
            let p = (diag[l + 1] - g) / (2.0 * off[l]);
            let r = p.hypot(1.0).copysign(p);
            diag[l] = off[l] / (p + r);
            diag[l + 1] = off[l] * (p + r);
            let next = diag[l + 1];
            let h = g - diag[l];
            diag[l + 2..].iter_mut().for_each(|d| *d -= h);
            shift += h;
            // One QL sweep, bottom to top, chasing the bulge.
            let mut p = diag[end];
            let (mut c, mut c2, mut c3) = (1.0, 1.0, 1.0);
            let (mut s, mut s2) = (0.0, 0.0);
            let below = off[l + 1];
            for i in (l..end).rev() {
                c3 = c2;
                c2 = c;
                s2 = s;
                let g = c * off[i];
                let h = c * p;
                let r = p.hypot(off[i]);
                off[i + 1] = s * r;
                s = off[i] / r;
                c = p / r;
                p = c * diag[i] - s * g;
                diag[i + 1] = h + s * (c * g + s * diag[i]);
                let (upper, lower) = rhs[i * m..(i + 2) * m].split_at_mut(m);
                for (a, b) in upper.iter_mut().zip(lower) {
                    let t = *b;
                    *b = s * *a + c * t;
                    *a = c * *a - s * t;
                }
            }
            let p = -s * s2 * c3 * below * off[l] / next;
            off[l] = s * p;
            diag[l] = c * p;
        }
        diag[l] += shift;
        off[l] = 0.0;
    }
    assert!(
        diag.iter().all(|&l| l.is_finite() && l > 0.0),
        "conductance matrix must be SPD: eigenvalues {diag:?}"
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sparse::factor::factor;
    use crate::ThermalConfig;
    use therm3d_floorplan::Experiment;

    fn network(exp: Experiment) -> RcNetwork {
        RcNetwork::build(&exp.stack(), &ThermalConfig::paper_default().with_grid(4, 4))
    }

    #[test]
    fn eigenpairs_solve_the_generalized_problem_and_are_orthonormal() {
        for exp in Experiment::ALL {
            let net = network(exp);
            let n = net.node_count();
            let mut identity = vec![0.0; n * n];
            identity.iter_mut().step_by(n + 1).for_each(|d| *d = 1.0);
            // Row k is w_kᵀ = v_kᵀ·C^-1/2, so G·w_k = λ_k·C·w_k and the
            // v_k = C^1/2·w_k are orthonormal.
            let (lambda, w) = decompose(&net, identity, n);
            let (g, cap) = (net.conductance(), net.capacitance());
            let g_norm =
                (0..n).map(|i| g.row(i).map(|(_, v)| v.abs()).sum::<f64>()).fold(0.0, f64::max);
            let norm = |v: &[f64]| v.iter().map(|a| a * a).sum::<f64>().sqrt();
            for (k, (wk, &lk)) in w.chunks_exact(n).zip(&lambda).enumerate() {
                let gw = g.mul(wk);
                let residual: Vec<f64> =
                    gw.iter().zip(wk).zip(cap).map(|((gw, w), c)| gw - lk * c * w).collect();
                let relative = norm(&residual) / (g_norm * norm(wk));
                assert!(relative <= 1e-10, "{exp} mode {k}: residual {relative:e}");
            }
            let v: Vec<Vec<f64>> = w
                .chunks_exact(n)
                .map(|wk| wk.iter().zip(cap).map(|(w, c)| w * c.sqrt()).collect())
                .collect();
            for (j, vj) in v.iter().enumerate() {
                for (k, vk) in v.iter().enumerate() {
                    let dot: f64 = vj.iter().zip(vk).map(|(a, b)| a * b).sum();
                    let want = if j == k { 1.0 } else { 0.0 };
                    assert!((dot - want).abs() <= 1e-10, "{exp}: v{j}·v{k} = {dot:e}");
                }
            }
        }
    }

    #[test]
    fn modal_steady_response_matches_the_sparse_factor() {
        for exp in Experiment::ALL {
            let net = network(exp);
            let basis = Eigenbasis::build(&net);
            let blocks = net.block_count();
            // W·G⁻¹·Wᵀ, one block column at a time, from the LDLᵀ factor.
            let g = factor(net.conductance()).expect("G is SPD");
            let reference: Vec<Vec<f64>> = (0..blocks)
                .map(|b| {
                    let mut unit = vec![0.0; blocks];
                    unit[b] = 1.0;
                    let t = g.solve(&net.node_power(&unit));
                    (0..blocks).map(|a| net.block_temperature(a, &t)).collect()
                })
                .collect();
            let scale = reference.iter().flatten().fold(0.0_f64, |m, v| m.max(v.abs()));
            // Bᵀ·Λ⁻¹·B, from the modes alone.
            for (b, column) in reference.iter().enumerate() {
                let mut unit = vec![0.0; blocks];
                unit[b] = 1.0;
                let mut x = Vec::new();
                basis.steady_amplitudes_into(&unit, 0.0, &mut x);
                for (a, want) in column.iter().enumerate() {
                    let got: f64 = basis.rows().zip(&x).map(|(row, xk)| row[a] * xk).sum();
                    assert!(
                        (got - want).abs() <= 1e-10 * scale,
                        "{exp}: response of block {a} to block {b}: {got:e} vs {want:e}"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "conductance matrix must be SPD")]
    fn an_indefinite_matrix_is_rejected() {
        // [[1, 2], [2, 1]] has eigenvalues 3 and −1.
        diagonalize(&mut [1.0, 1.0], &mut [2.0, 0.0], &mut [], 0);
    }

    #[test]
    #[should_panic(expected = "conductance matrix must be SPD")]
    fn a_diverging_iteration_is_rejected() {
        diagonalize(&mut [f64::NAN, 1.0, 1.0], &mut [1.0, 1.0, 0.0], &mut [], 0);
    }
}
