//! Minimal sparse linear algebra: symmetric CSR matrices, a
//! Jacobi-preconditioned conjugate-gradient solver, and a sparse LDLᵀ
//! direct factorization ([`factor`]).
//!
//! The thermal network's conductance matrix is a weighted graph Laplacian
//! plus positive diagonal terms for the ambient connection, hence symmetric
//! positive definite — exactly the setting where CG and Cholesky-style
//! factorizations shine and an external linear-algebra dependency would be
//! overkill. Iterative CG remains available for huge or one-off systems;
//! the [`factor`] module provides the pre-factored direct path the
//! transient integrator leans on.

pub mod factor;

use std::fmt;

/// Builder accumulating matrix entries as coordinate triplets.
///
/// Duplicate `(row, col)` entries are summed when compiled to CSR, which
/// makes assembling a conductance Laplacian (`add_conductance`) a one-liner
/// per edge.
#[derive(Debug, Clone, Default)]
pub struct TripletMatrix {
    n: usize,
    entries: Vec<(usize, usize, f64)>,
}

impl TripletMatrix {
    /// Creates an empty `n × n` builder.
    #[must_use]
    pub fn new(n: usize) -> Self {
        Self { n, entries: Vec::new() }
    }

    /// Dimension of the (square) matrix.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Adds `value` to entry `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if `row` or `col` is out of bounds or `value` is not finite.
    pub fn add(&mut self, row: usize, col: usize, value: f64) {
        assert!(row < self.n && col < self.n, "index ({row},{col}) out of bounds for n={}", self.n);
        assert!(value.is_finite(), "matrix entry must be finite");
        self.entries.push((row, col, value));
    }

    /// Adds a thermal conductance `g` between nodes `a` and `b`: `+g` on
    /// both diagonals, `−g` on both off-diagonals (Laplacian stencil).
    ///
    /// # Panics
    ///
    /// Panics if `a == b`, if either index is out of bounds, or if `g` is
    /// negative or not finite.
    pub fn add_conductance(&mut self, a: usize, b: usize, g: f64) {
        assert!(a != b, "conductance needs two distinct nodes");
        assert!(g.is_finite() && g >= 0.0, "conductance must be non-negative, got {g}");
        if g == 0.0 {
            return;
        }
        self.add(a, a, g);
        self.add(b, b, g);
        self.add(a, b, -g);
        self.add(b, a, -g);
    }

    /// Adds a conductance from node `a` to an implicit fixed-temperature
    /// node (ambient): only the diagonal term appears in the matrix.
    ///
    /// # Panics
    ///
    /// Panics if `a` is out of bounds or `g` is negative or not finite.
    pub fn add_grounded_conductance(&mut self, a: usize, g: f64) {
        assert!(g.is_finite() && g >= 0.0, "conductance must be non-negative, got {g}");
        if g > 0.0 {
            self.add(a, a, g);
        }
    }

    /// Compiles the triplets into a CSR matrix, summing duplicates.
    #[must_use]
    pub fn to_csr(&self) -> CsrMatrix {
        CsrMatrix::from_triplets(self.n, &self.entries)
    }
}

/// A compressed-sparse-row matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    n: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    values: Vec<f64>,
}

impl CsrMatrix {
    /// Builds a CSR matrix from coordinate triplets (any order, duplicates
    /// summed).
    #[must_use]
    pub fn from_triplets(n: usize, entries: &[(usize, usize, f64)]) -> Self {
        let mut sorted: Vec<(usize, usize, f64)> = entries.to_vec();
        sorted.sort_unstable_by_key(|a| (a.0, a.1));

        let mut row_ptr = vec![0usize; n + 1];
        let mut col_idx: Vec<usize> = Vec::with_capacity(sorted.len());
        let mut values: Vec<f64> = Vec::with_capacity(sorted.len());
        let mut cur: Option<(usize, usize)> = None;
        for (r, c, v) in sorted {
            if cur == Some((r, c)) {
                *values.last_mut().expect("entry exists") += v;
            } else {
                col_idx.push(c);
                values.push(v);
                row_ptr[r + 1] += 1;
                cur = Some((r, c));
            }
        }
        for i in 0..n {
            row_ptr[i + 1] += row_ptr[i];
        }
        Self { n, row_ptr, col_idx, values }
    }

    /// Matrix dimension.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Number of stored non-zeros.
    #[must_use]
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Computes `out = A·x`.
    ///
    /// # Panics
    ///
    /// Panics if `x` or `out` have the wrong length.
    pub fn mul_into(&self, x: &[f64], out: &mut [f64]) {
        assert_eq!(x.len(), self.n, "x length mismatch");
        assert_eq!(out.len(), self.n, "out length mismatch");
        for (r, slot) in out.iter_mut().enumerate() {
            let mut acc = 0.0;
            for k in self.row_ptr[r]..self.row_ptr[r + 1] {
                acc += self.values[k] * x[self.col_idx[k]];
            }
            *slot = acc;
        }
    }

    /// Returns `A·x` as a new vector.
    ///
    /// # Panics
    ///
    /// Panics if `x` has the wrong length.
    #[must_use]
    pub fn mul(&self, x: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; self.n];
        self.mul_into(x, &mut out);
        out
    }

    /// The diagonal of the matrix (zero where no entry is stored).
    #[must_use]
    pub fn diagonal(&self) -> Vec<f64> {
        let mut d = vec![0.0; self.n];
        for (r, slot) in d.iter_mut().enumerate() {
            for k in self.row_ptr[r]..self.row_ptr[r + 1] {
                if self.col_idx[k] == r {
                    *slot += self.values[k];
                }
            }
        }
        d
    }

    /// Iterates the stored entries of row `r` as `(col, value)` pairs,
    /// in ascending column order.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of bounds.
    pub fn row(&self, r: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        assert!(r < self.n, "row {r} out of bounds for n={}", self.n);
        self.col_idx[self.row_ptr[r]..self.row_ptr[r + 1]]
            .iter()
            .zip(&self.values[self.row_ptr[r]..self.row_ptr[r + 1]])
            .map(|(&c, &v)| (c, v))
    }

    /// Returns `self + diag(d)` as a new matrix with the same pattern
    /// (used to assemble the implicit integrator's shifted systems
    /// `α·C + G`). Built on a copy of `self`, so assembling a system
    /// costs one matrix of memory, not a sorted triplet list.
    ///
    /// # Panics
    ///
    /// Panics if `d.len() != dim()`, any entry is not finite, or a row
    /// stores no diagonal entry (every RC conductance matrix stores
    /// all of them).
    #[must_use]
    pub fn with_added_diagonal(&self, d: &[f64]) -> CsrMatrix {
        assert_eq!(d.len(), self.n, "diagonal length mismatch");
        let mut out = self.clone();
        for (i, &v) in d.iter().enumerate() {
            assert!(v.is_finite(), "diagonal entry {i} must be finite, got {v}");
            let k = (out.row_ptr[i]..out.row_ptr[i + 1])
                .find(|&k| out.col_idx[k] == i)
                .unwrap_or_else(|| panic!("row {i} stores no diagonal entry"));
            out.values[k] += v;
        }
        out
    }

    /// Entry `(row, col)` (zero if not stored).
    #[must_use]
    pub fn get(&self, row: usize, col: usize) -> f64 {
        if row >= self.n {
            return 0.0;
        }
        let mut acc = 0.0;
        for k in self.row_ptr[row]..self.row_ptr[row + 1] {
            if self.col_idx[k] == col {
                acc += self.values[k];
            }
        }
        acc
    }

    /// Checks symmetry to within `tol` (debugging aid; O(nnz·log)).
    #[must_use]
    pub fn is_symmetric(&self, tol: f64) -> bool {
        for r in 0..self.n {
            for k in self.row_ptr[r]..self.row_ptr[r + 1] {
                let c = self.col_idx[k];
                if (self.get(r, c) - self.get(c, r)).abs() > tol {
                    return false;
                }
            }
        }
        true
    }
}

impl fmt::Display for CsrMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "CsrMatrix {}x{} ({} nnz)", self.n, self.n, self.nnz())
    }
}

/// Outcome of a conjugate-gradient solve.
#[derive(Debug, Clone, PartialEq)]
pub struct CgSolution {
    /// The solution vector.
    pub x: Vec<f64>,
    /// Iterations performed.
    pub iterations: usize,
    /// Final residual 2-norm relative to the right-hand side norm.
    pub relative_residual: f64,
    /// Whether the tolerance was reached before the iteration cap.
    pub converged: bool,
}

/// Solves `A·x = b` for symmetric positive-definite `A` using
/// Jacobi-preconditioned conjugate gradients.
///
/// `x0` seeds the iteration (pass the previous solution when solving a
/// sequence of similar systems).
///
/// # Panics
///
/// Panics if dimensions disagree or the matrix has a non-positive diagonal
/// entry (not SPD).
#[must_use]
pub fn solve_cg(a: &CsrMatrix, b: &[f64], x0: &[f64], tol: f64, max_iter: usize) -> CgSolution {
    let n = a.dim();
    assert_eq!(b.len(), n, "rhs length mismatch");
    assert_eq!(x0.len(), n, "x0 length mismatch");
    let diag = a.diagonal();
    for (i, &d) in diag.iter().enumerate() {
        assert!(d > 0.0, "diagonal entry {i} is {d}; matrix not SPD");
    }
    let inv_diag: Vec<f64> = diag.iter().map(|&d| 1.0 / d).collect();

    let b_norm = norm2(b);
    if b_norm == 0.0 {
        return CgSolution {
            x: vec![0.0; n],
            iterations: 0,
            relative_residual: 0.0,
            converged: true,
        };
    }

    let mut x = x0.to_vec();
    let mut r = vec![0.0; n];
    a.mul_into(&x, &mut r);
    for i in 0..n {
        r[i] = b[i] - r[i];
    }
    let mut z: Vec<f64> = r.iter().zip(&inv_diag).map(|(ri, di)| ri * di).collect();
    let mut p = z.clone();
    let mut rz = dot(&r, &z);
    let mut ap = vec![0.0; n];

    for it in 0..max_iter {
        let res = norm2(&r) / b_norm;
        if res <= tol {
            return CgSolution { x, iterations: it, relative_residual: res, converged: true };
        }
        a.mul_into(&p, &mut ap);
        let alpha = rz / dot(&p, &ap);
        for i in 0..n {
            x[i] += alpha * p[i];
            r[i] -= alpha * ap[i];
        }
        for i in 0..n {
            z[i] = r[i] * inv_diag[i];
        }
        let rz_new = dot(&r, &z);
        let beta = rz_new / rz;
        rz = rz_new;
        for i in 0..n {
            p[i] = z[i] + beta * p[i];
        }
    }
    let res = norm2(&r) / b_norm;
    CgSolution { x, iterations: max_iter, relative_residual: res, converged: res <= tol }
}

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

fn norm2(v: &[f64]) -> f64 {
    dot(v, v).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn laplacian_chain(n: usize, g: f64, g_amb: f64) -> CsrMatrix {
        let mut t = TripletMatrix::new(n);
        for i in 0..n - 1 {
            t.add_conductance(i, i + 1, g);
        }
        t.add_grounded_conductance(0, g_amb);
        t.to_csr()
    }

    #[test]
    fn triplets_sum_duplicates() {
        let mut t = TripletMatrix::new(2);
        t.add(0, 0, 1.0);
        t.add(0, 0, 2.0);
        t.add(1, 1, 4.0);
        let m = t.to_csr();
        assert_eq!(m.get(0, 0), 3.0);
        assert_eq!(m.get(1, 1), 4.0);
        assert_eq!(m.get(0, 1), 0.0);
        assert_eq!(m.nnz(), 2);
    }

    #[test]
    fn conductance_stencil() {
        let mut t = TripletMatrix::new(3);
        t.add_conductance(0, 2, 5.0);
        let m = t.to_csr();
        assert_eq!(m.get(0, 0), 5.0);
        assert_eq!(m.get(2, 2), 5.0);
        assert_eq!(m.get(0, 2), -5.0);
        assert_eq!(m.get(2, 0), -5.0);
        assert!(m.is_symmetric(1e-12));
    }

    #[test]
    fn zero_conductance_is_noop() {
        let mut t = TripletMatrix::new(2);
        t.add_conductance(0, 1, 0.0);
        assert_eq!(t.to_csr().nnz(), 0);
    }

    #[test]
    fn matvec_matches_dense() {
        let m = laplacian_chain(3, 2.0, 1.0);
        // Rows: [3, -2, 0; -2, 4, -2; 0, -2, 2]
        let y = m.mul(&[1.0, 2.0, 3.0]);
        assert_eq!(y, vec![3.0 - 4.0, -2.0 + 8.0 - 6.0, -4.0 + 6.0]);
    }

    #[test]
    fn cg_solves_chain() {
        // Physical reading: 4-node rod, node 0 tied to ground through
        // g_amb=1; inject 1 W at the far end. Exact solution: T3 − T2 =
        // 1/g, etc.; T0 = 1.0.
        let n = 4;
        let m = laplacian_chain(n, 2.0, 1.0);
        let mut b = vec![0.0; n];
        b[3] = 1.0;
        let sol = solve_cg(&m, &b, &vec![0.0; n], 1e-12, 200);
        assert!(sol.converged, "CG must converge on SPD chain");
        let expect = [1.0, 1.5, 2.0, 2.5];
        for (xi, ei) in sol.x.iter().zip(expect) {
            assert!((xi - ei).abs() < 1e-9, "{sol:?}");
        }
    }

    #[test]
    fn cg_zero_rhs_short_circuits() {
        let m = laplacian_chain(3, 1.0, 1.0);
        let sol = solve_cg(&m, &[0.0; 3], &[5.0; 3], 1e-10, 10);
        assert_eq!(sol.x, vec![0.0; 3]);
        assert_eq!(sol.iterations, 0);
    }

    #[test]
    fn cg_warm_start_converges_faster() {
        let n = 50;
        let m = laplacian_chain(n, 3.0, 0.5);
        let b: Vec<f64> = (0..n).map(|i| (i % 7) as f64 * 0.1).collect();
        let cold = solve_cg(&m, &b, &vec![0.0; n], 1e-10, 10_000);
        let warm = solve_cg(&m, &b, &cold.x, 1e-10, 10_000);
        assert!(warm.iterations <= 1, "warm start from exact solution");
    }

    #[test]
    #[should_panic(expected = "not SPD")]
    fn cg_rejects_zero_diagonal() {
        let t = TripletMatrix::new(2);
        let m = t.to_csr();
        let _ = solve_cg(&m, &[1.0, 1.0], &[0.0, 0.0], 1e-10, 10);
    }

    #[test]
    fn diagonal_extraction() {
        let m = laplacian_chain(3, 2.0, 1.0);
        assert_eq!(m.diagonal(), vec![3.0, 4.0, 2.0]);
    }
}
