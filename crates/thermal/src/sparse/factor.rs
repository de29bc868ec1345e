//! Sparse LDLᵀ (square-root-free Cholesky) factorization of symmetric
//! positive-definite CSR matrices, with a fill-reducing minimum-degree
//! ordering and forward/backward triangular solves.
//!
//! This is the direct-solver backbone of the implicit transient
//! integrator: the thermal network's matrices (`G` for steady state,
//! `α·C + G` for the implicit step) never change after assembly, so one
//! [`factor`] call up front turns every subsequent solve into two
//! triangular sweeps plus a diagonal scale — `O(nnz(L))` instead of a
//! CG iteration per solve.
//!
//! The implementation is the classic up-looking algorithm (elimination
//! tree → per-row symbolic pattern → numeric row of L), in the style of
//! Davis's `LDL` package, preceded by a greedy exact minimum-degree
//! ordering on the adjacency graph (George & Liu, "The evolution of the
//! minimum degree ordering algorithm", *SIAM Review* 31(1), 1989). The
//! ordering keeps the elimination graph as one bitset row per node, so
//! eliminating a node is one word-wise union per neighbour. Each step
//! still scans every node for the least degree, so the search grows as
//! the square of the node count: about 40 ms at 8 194 nodes (64×64 on
//! two dies, 2 vCPU, release), where the thermal model has long since
//! switched to nested dissection (from 2 048 nodes on).
//! Everything is deterministic: the ordering breaks ties by node index
//! and the numeric phase is sequential, so repeated factorizations of
//! the same matrix are bit-identical (a property the sweep cache's
//! byte-identical-report guarantee relies on).
//!
//! # Examples
//!
//! ```
//! use therm3d_thermal::sparse::{factor::factor, TripletMatrix};
//!
//! // 1D rod with one grounded end: SPD tridiagonal.
//! let mut t = TripletMatrix::new(3);
//! t.add_conductance(0, 1, 2.0);
//! t.add_conductance(1, 2, 2.0);
//! t.add_grounded_conductance(0, 1.0);
//! let f = factor(&t.to_csr()).expect("SPD");
//! let x = f.solve(&[0.0, 0.0, 1.0]);
//! // 1 W injected at the far end: T0 = 1, each link adds 1/2.
//! assert!((x[0] - 1.0).abs() < 1e-12);
//! assert!((x[2] - 2.0).abs() < 1e-12);
//! ```

use std::fmt;

use super::CsrMatrix;

/// Why a factorization attempt was rejected.
#[derive(Debug, Clone, PartialEq)]
pub struct FactorError {
    /// Pivot position (in elimination order) where breakdown occurred.
    pub row: usize,
    /// The offending pivot value (`D[row]`).
    pub pivot: f64,
}

impl fmt::Display for FactorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "matrix is not positive definite: pivot {} at elimination step {} of the LDL^T \
             factorization",
            self.pivot, self.row
        )
    }
}

impl std::error::Error for FactorError {}

/// A pre-computed `P·A·Pᵀ = L·D·Lᵀ` factorization of an SPD matrix.
///
/// `L` is unit lower triangular (implicit diagonal) stored by columns;
/// `D` is the positive pivot diagonal; `P` is the fill-reducing
/// permutation. [`solve`](Self::solve) /
/// [`solve_into`](Self::solve_into) apply
/// `x = Pᵀ·L⁻ᵀ·D⁻¹·L⁻¹·P·b`.
#[derive(Debug, Clone, PartialEq)]
pub struct LdlFactor {
    n: usize,
    /// `perm[new] = old`: row/column `new` of the permuted matrix is
    /// row/column `old` of the original.
    perm: Vec<usize>,
    /// Column pointers of L (strictly-lower part, unit diagonal implicit).
    col_ptr: Vec<usize>,
    /// Row indices of L's stored entries.
    row_idx: Vec<usize>,
    /// Values of L's stored entries.
    values: Vec<f64>,
    /// The pivot diagonal D (all positive).
    d: Vec<f64>,
}

impl LdlFactor {
    /// Matrix dimension.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Stored non-zeros of `L` including the unit diagonal — the cost of
    /// one triangular solve is proportional to this.
    #[must_use]
    pub fn nnz_l(&self) -> usize {
        self.values.len() + self.n
    }

    /// The fill-reducing permutation (`perm[new] = old`).
    #[must_use]
    pub fn permutation(&self) -> &[usize] {
        &self.perm
    }

    /// Solves `A·x = b`, allocating the result.
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != dim()`.
    #[must_use]
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        let mut x = vec![0.0; self.n];
        let mut scratch = Vec::new();
        self.solve_into(b, &mut scratch, &mut x);
        x
    }

    /// Solves `A·x = b` into `x`, reusing `scratch` for the permuted
    /// intermediate (no allocation once `scratch` has warmed up).
    ///
    /// # Panics
    ///
    /// Panics if `b.len()` or `x.len()` differ from `dim()`.
    // region(alloc-free: ldlt-solve)
    pub fn solve_into(&self, b: &[f64], scratch: &mut Vec<f64>, x: &mut [f64]) {
        assert_eq!(b.len(), self.n, "rhs length mismatch");
        assert_eq!(x.len(), self.n, "solution length mismatch");
        scratch.resize(self.n, 0.0);
        let z = &mut scratch[..];
        for (zi, &old) in z.iter_mut().zip(&self.perm) {
            *zi = b[old];
        }
        // Forward: L·y = P·b.
        for j in 0..self.n {
            let zj = z[j];
            for p in self.col_ptr[j]..self.col_ptr[j + 1] {
                z[self.row_idx[p]] -= self.values[p] * zj;
            }
        }
        // Diagonal: D·w = y.
        for (zi, &di) in z.iter_mut().zip(&self.d) {
            *zi /= di;
        }
        // Backward: Lᵀ·v = w.
        for j in (0..self.n).rev() {
            let mut zj = z[j];
            for p in self.col_ptr[j]..self.col_ptr[j + 1] {
                zj -= self.values[p] * z[self.row_idx[p]];
            }
            z[j] = zj;
        }
        // Un-permute: x = Pᵀ·v.
        for (zi, &old) in z.iter().zip(&self.perm) {
            x[old] = *zi;
        }
    }
    // end-region
}

/// The value-independent half of an LDLᵀ factorization: fill-reducing
/// permutation, elimination tree and column pointers of `L`.
///
/// The analysis depends only on the matrix's *sparsity pattern*, so one
/// `Symbolic` serves every matrix with that pattern — in particular all
/// shifted systems `α·C + G` of one RC network (`C` is diagonal and `G`
/// has a full structural diagonal, so the pattern is α-independent) and
/// `G` itself. [`Symbolic::factor_numeric`] runs only the numeric
/// phase against a cached analysis.
#[derive(Debug, Clone, PartialEq)]
pub struct Symbolic {
    n: usize,
    /// Stored-entry count of the analyzed matrix (cheap guard that a
    /// numeric refactorization is using the same pattern).
    nnz: usize,
    /// `perm[new] = old` fill-reducing permutation.
    perm: Vec<usize>,
    /// Inverse permutation.
    iperm: Vec<usize>,
    /// Elimination-tree parent per node (`usize::MAX` = root).
    parent: Vec<usize>,
    /// Column pointers of L (strictly-lower part).
    col_ptr: Vec<usize>,
}

impl Symbolic {
    /// Matrix dimension this analysis was computed for.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Predicted stored non-zeros of `L` including the unit diagonal.
    #[must_use]
    pub fn nnz_l(&self) -> usize {
        self.col_ptr[self.n] + self.n
    }

    /// Stored-entry count of the matrix this analysis was computed from
    /// (callers use it to check pattern compatibility up front).
    #[must_use]
    pub fn pattern_nnz(&self) -> usize {
        self.nnz
    }

    /// Runs the numeric phase against this analysis: computes `L` and
    /// `D` for `a`, which must have the **same sparsity pattern** as the
    /// matrix [`analyze`] saw (same dimension and stored-entry count are
    /// asserted; the RC-network systems this crate factors satisfy the
    /// stronger pattern-equality requirement by construction).
    ///
    /// # Errors
    ///
    /// [`FactorError`] when a pivot is not strictly positive.
    ///
    /// # Panics
    ///
    /// Panics if `a`'s dimension or stored-entry count differ from the
    /// analyzed matrix's.
    pub fn factor_numeric(&self, a: &CsrMatrix) -> Result<LdlFactor, FactorError> {
        let n = self.n;
        assert_eq!(a.dim(), n, "numeric phase on a different-sized matrix");
        assert_eq!(a.nnz(), self.nnz, "numeric phase on a different sparsity pattern");
        let Symbolic { perm, iperm, parent, col_ptr, .. } = self;

        // Numeric phase (up-looking): compute row j of L against the
        // already finished columns, in elimination-tree topological order.
        let total = col_ptr[n];
        let mut row_idx = vec![0usize; total];
        let mut values = vec![0.0f64; total];
        let mut filled = vec![0usize; n];
        let mut d = vec![0.0f64; n];
        let mut y = vec![0.0f64; n];
        let mut pattern = vec![0usize; n];
        let mut path = vec![0usize; n];
        let mut flag = vec![usize::MAX; n];
        for j in 0..n {
            let mut top = n;
            flag[j] = j;
            y[j] = 0.0;
            for (c_old, v) in a.row(perm[j]) {
                let i = iperm[c_old];
                if i > j {
                    continue;
                }
                y[i] += v;
                let mut len = 0;
                let mut k = i;
                while flag[k] != j {
                    path[len] = k;
                    len += 1;
                    flag[k] = j;
                    k = parent[k];
                }
                while len > 0 {
                    len -= 1;
                    top -= 1;
                    pattern[top] = path[len];
                }
            }
            let mut dj = y[j];
            y[j] = 0.0;
            for &k in &pattern[top..n] {
                let yk = y[k];
                y[k] = 0.0;
                let p0 = col_ptr[k];
                for p in p0..p0 + filled[k] {
                    y[row_idx[p]] -= values[p] * yk;
                }
                let ljk = yk / d[k];
                dj -= ljk * yk;
                let p = p0 + filled[k];
                row_idx[p] = j;
                values[p] = ljk;
                filled[k] += 1;
            }
            if !(dj > 0.0 && dj.is_finite()) {
                return Err(FactorError { row: j, pivot: dj });
            }
            d[j] = dj;
        }
        // Hard assert (O(n), negligible next to the factorization): a
        // matrix whose pattern differs from the analyzed one — possible
        // despite the dim/nnz guard above — would have written fill
        // into the wrong column slots, and release builds must not
        // return silently wrong factors.
        assert!(
            (0..n).all(|j| filled[j] == col_ptr[j + 1] - col_ptr[j]),
            "matrix pattern differs from the analyzed pattern (symbolic/numeric fill mismatch)"
        );
        Ok(LdlFactor { n, perm: perm.clone(), col_ptr: col_ptr.clone(), row_idx, values, d })
    }
}

/// Computes the symbolic analysis of `a` under the minimum-degree
/// ordering ([`min_degree_order`]): ordering, elimination tree and
/// per-column fill counts. Value-independent — reuse the result across
/// every matrix sharing `a`'s pattern via [`Symbolic::factor_numeric`].
#[must_use]
pub fn analyze(a: &CsrMatrix) -> Symbolic {
    analyze_with_perm(a, min_degree_order(a))
}

/// [`analyze`] with a caller-supplied elimination order (`perm[new] =
/// old`). This is how geometry-aware orderings (e.g. the RC network's
/// nested-dissection order, which is near-linear to compute where the
/// minimum-degree search scans every node per step) plug into the same
/// symbolic/numeric machinery.
///
/// # Panics
///
/// Panics if `perm` is not a permutation of `0..a.dim()`.
#[must_use]
pub fn analyze_with_perm(a: &CsrMatrix, perm: Vec<usize>) -> Symbolic {
    let n = a.dim();
    assert_eq!(perm.len(), n, "permutation length mismatch");
    let mut iperm = vec![usize::MAX; n];
    for (new, &old) in perm.iter().enumerate() {
        assert!(old < n && iperm[old] == usize::MAX, "perm is not a permutation");
        iperm[old] = new;
    }

    // Elimination tree + per-column non-zero counts of L, from the
    // pattern of the permuted matrix's lower triangle.
    let mut parent = vec![usize::MAX; n];
    let mut flag = vec![usize::MAX; n];
    let mut lnz = vec![0usize; n];
    for j in 0..n {
        flag[j] = j;
        for (c_old, _) in a.row(perm[j]) {
            let mut k = iperm[c_old];
            if k >= j {
                continue;
            }
            while flag[k] != j {
                if parent[k] == usize::MAX {
                    parent[k] = j;
                }
                lnz[k] += 1;
                flag[k] = j;
                k = parent[k];
            }
        }
    }
    let mut col_ptr = vec![0usize; n + 1];
    for j in 0..n {
        col_ptr[j + 1] = col_ptr[j] + lnz[j];
    }
    Symbolic { n, nnz: a.nnz(), perm, iperm, parent, col_ptr }
}

/// Factors `a` under the minimum-degree ordering (one-shot:
/// symbolic analysis plus numeric phase; callers factoring several
/// matrices with one pattern should [`analyze`] once and reuse it).
///
/// # Errors
///
/// [`FactorError`] when a pivot is not strictly positive (the matrix is
/// not positive definite, e.g. a floating Laplacian with no ground).
///
/// # Panics
///
/// Panics if `a` is structurally unsymmetric (debug builds assert the
/// pattern; values are taken from the lower triangle).
pub fn factor(a: &CsrMatrix) -> Result<LdlFactor, FactorError> {
    analyze(a).factor_numeric(a)
}

/// Greedy exact minimum-degree ordering of `a`'s adjacency graph: each
/// step eliminates the remaining node of least degree, ties broken by
/// smallest index (fully deterministic), and joins its neighbours into
/// a clique.
///
/// The elimination graph is one bitset row of `⌈n/64⌉` words per node
/// (`n²/8` bytes) plus a degree array. Eliminating `v` sets each
/// neighbour's row to `(row_u | row_v)` minus `u` and `v`, touching only
/// the words where `row_v` has bits.
#[must_use]
pub fn min_degree_order(a: &CsrMatrix) -> Vec<usize> {
    let n = a.dim();
    let words = n.div_ceil(64);
    let mut rows = vec![0u64; n * words];
    for r in 0..n {
        for (c, _) in a.row(r) {
            if c != r {
                rows[r * words + c / 64] |= 1 << (c % 64);
                rows[c * words + r / 64] |= 1 << (r % 64);
            }
        }
    }
    // Degree of each remaining node; an eliminated one reads `usize::MAX`.
    let mut degree: Vec<usize> = (0..n)
        .map(|u| rows[u * words..(u + 1) * words].iter().map(|w| w.count_ones() as usize).sum())
        .collect();
    let mut perm = Vec::with_capacity(n);
    // The non-zero words of the eliminated node's row, by word index.
    let mut clique: Vec<(usize, u64)> = Vec::new();
    for _ in 0..n {
        let (mut v, mut least) = (0, usize::MAX);
        for (u, &d) in degree.iter().enumerate() {
            if d < least {
                (v, least) = (u, d);
            }
        }
        perm.push(v);
        degree[v] = usize::MAX;
        let row_v = &mut rows[v * words..(v + 1) * words];
        clique.clear();
        clique.extend(row_v.iter().copied().enumerate().filter(|&(_, bits)| bits != 0));
        row_v.fill(0);
        for &(word, bits) in &clique {
            let mut rest = bits;
            while rest != 0 {
                let u = word * 64 + rest.trailing_zeros() as usize;
                rest &= rest - 1;
                let row_u = &mut rows[u * words..(u + 1) * words];
                let mut gained = 0;
                for &(w, clique_bits) in &clique {
                    gained += (clique_bits & !row_u[w]).count_ones() as usize;
                    row_u[w] |= clique_bits;
                }
                row_u[u / 64] &= !(1 << (u % 64));
                row_u[v / 64] &= !(1 << (v % 64));
                // `gained` counted `u` itself, and `v` left the row.
                degree[u] = degree[u] + gained - 2;
            }
        }
    }
    perm
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use super::*;
    use crate::sparse::cg::solve_cg;
    use crate::sparse::TripletMatrix;

    fn laplacian_chain(n: usize, g: f64, g_amb: f64) -> CsrMatrix {
        let mut t = TripletMatrix::new(n);
        for i in 0..n - 1 {
            t.add_conductance(i, i + 1, g);
        }
        t.add_grounded_conductance(0, g_amb);
        t.to_csr()
    }

    /// A 2D grid Laplacian with every node weakly grounded (SPD, and
    /// produces real fill under elimination).
    fn grid_laplacian(rows: usize, cols: usize) -> CsrMatrix {
        let idx = |r: usize, c: usize| r * cols + c;
        let mut t = TripletMatrix::new(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                if c + 1 < cols {
                    t.add_conductance(idx(r, c), idx(r, c + 1), 1.0 + (r + c) as f64 * 0.1);
                }
                if r + 1 < rows {
                    t.add_conductance(idx(r, c), idx(r + 1, c), 2.0 + c as f64 * 0.1);
                }
                t.add_grounded_conductance(idx(r, c), 0.01);
            }
        }
        t.to_csr()
    }

    #[test]
    fn solves_match_cg_on_a_grid() {
        let a = grid_laplacian(7, 9);
        let n = a.dim();
        let b: Vec<f64> = (0..n).map(|i| ((i * 37) % 11) as f64 * 0.25 - 1.0).collect();
        let f = factor(&a).expect("SPD grid");
        let x = f.solve(&b);
        let cg = solve_cg(&a, &b, &vec![0.0; n], 1e-13, 100_000);
        assert!(cg.converged);
        for (xi, ci) in x.iter().zip(&cg.x) {
            assert!((xi - ci).abs() < 1e-7, "{xi} vs {ci}");
        }
        // Residual check against the matrix itself.
        let r = a.mul(&x);
        for (ri, bi) in r.iter().zip(&b) {
            assert!((ri - bi).abs() < 1e-9, "residual {ri} vs {bi}");
        }
    }

    mod random_systems {
        use proptest::prelude::*;

        use super::*;

        proptest! {
            #[test]
            fn ldl_agrees_with_cg_on_random_spd_systems(
                diag in prop::collection::vec(0.5f64..5.0, 3..10),
                seed in 0u64..100,
            ) {
                // A random symmetric diagonally dominant matrix (hence
                // SPD), built the way the thermal network is:
                // conductances between node pairs plus grounded terms.
                let n = diag.len();
                let mut t = TripletMatrix::new(n);
                let mut s = seed;
                let mut next = || {
                    s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    (s >> 33) as f64 / (1u64 << 31) as f64
                };
                for i in 0..n {
                    for j in (i + 1)..n {
                        if next() > 0.5 {
                            t.add_conductance(i, j, 0.1 + next());
                        }
                    }
                }
                for (i, &d) in diag.iter().enumerate() {
                    t.add_grounded_conductance(i, d);
                }
                let a = t.to_csr();
                let b: Vec<f64> = (0..n).map(|_| next() * 2.0 - 1.0).collect();
                let cg = solve_cg(&a, &b, &vec![0.0; n], 1e-10, 500);
                for (ri, bi) in a.mul(&cg.x).iter().zip(&b) {
                    prop_assert!((ri - bi).abs() < 1e-6, "CG residual too large");
                }
                let direct = factor(&a).expect("random SPD system factors").solve(&b);
                for (xi, yi) in direct.iter().zip(&cg.x) {
                    prop_assert!((xi - yi).abs() < 1e-5, "direct {xi} vs CG {yi}");
                }
            }
        }
    }

    /// The factor of `a` in its own (natural) order.
    fn natural_factor(a: &CsrMatrix) -> LdlFactor {
        analyze_with_perm(a, (0..a.dim()).collect()).factor_numeric(a).unwrap()
    }

    #[test]
    fn natural_and_min_degree_agree() {
        let a = grid_laplacian(5, 5);
        let b: Vec<f64> = (0..a.dim()).map(|i| i as f64 * 0.1).collect();
        let xm = factor(&a).unwrap().solve(&b);
        let xn = natural_factor(&a).solve(&b);
        for (m, n) in xm.iter().zip(&xn) {
            assert!((m - n).abs() < 1e-9);
        }
    }

    #[test]
    fn min_degree_reduces_fill_on_grids() {
        let a = grid_laplacian(12, 12);
        let md = factor(&a).unwrap();
        let nat = natural_factor(&a);
        assert!(
            md.nnz_l() < nat.nnz_l(),
            "min-degree fill {} must beat natural fill {}",
            md.nnz_l(),
            nat.nnz_l()
        );
    }

    #[test]
    fn chain_solution_is_exact() {
        let n = 6;
        let a = laplacian_chain(n, 2.0, 1.0);
        let mut b = vec![0.0; n];
        b[n - 1] = 1.0;
        let x = factor(&a).unwrap().solve(&b);
        // 1 W through every link of resistance 1/2, node 0 at 1 K.
        for (i, xi) in x.iter().enumerate() {
            let expect = 1.0 + 0.5 * i as f64;
            assert!((xi - expect).abs() < 1e-12, "node {i}: {xi} vs {expect}");
        }
    }

    #[test]
    fn indefinite_matrix_is_rejected() {
        // A floating Laplacian (no ground) is singular: pivot hits zero.
        let mut t = TripletMatrix::new(3);
        t.add_conductance(0, 1, 1.0);
        t.add_conductance(1, 2, 1.0);
        let err = factor(&t.to_csr()).unwrap_err();
        assert!(err.to_string().contains("not positive definite"), "{err}");
    }

    #[test]
    fn factorization_is_deterministic() {
        let a = grid_laplacian(6, 8);
        let f1 = factor(&a).unwrap();
        let f2 = factor(&a).unwrap();
        assert_eq!(f1, f2, "same matrix, bit-identical factors");
    }

    #[test]
    fn solve_into_reuses_buffers() {
        let a = grid_laplacian(4, 4);
        let f = factor(&a).unwrap();
        let b = vec![1.0; a.dim()];
        let mut scratch = Vec::new();
        let mut x = vec![0.0; a.dim()];
        f.solve_into(&b, &mut scratch, &mut x);
        let direct = f.solve(&b);
        assert_eq!(x, direct);
        let cap = scratch.capacity();
        f.solve_into(&b, &mut scratch, &mut x);
        assert_eq!(scratch.capacity(), cap, "second solve must not reallocate");
    }

    #[test]
    fn symbolic_analysis_is_reusable_across_shifts() {
        // α·C + G for any α shares G's pattern (full structural
        // diagonal): one analysis must serve every shift bit-exactly.
        let g = grid_laplacian(6, 6);
        let symbolic = analyze(&g);
        let b: Vec<f64> = (0..g.dim()).map(|i| (i % 7) as f64 - 3.0).collect();
        for alpha in [0.5, 12.25, 341.0] {
            let diag: Vec<f64> = (0..g.dim()).map(|i| alpha * (1.0 + i as f64 * 0.01)).collect();
            let shifted = g.with_added_diagonal(&diag);
            let reused = symbolic.factor_numeric(&shifted).unwrap();
            let fresh = factor(&shifted).unwrap();
            // Same ordering (pattern-only input), so factors are
            // bit-identical, not merely numerically close.
            assert_eq!(reused, fresh, "alpha={alpha}");
            assert_eq!(reused.solve(&b), fresh.solve(&b));
        }
        assert_eq!(symbolic.nnz_l(), factor(&g).unwrap().nnz_l());
    }

    #[test]
    #[should_panic(expected = "different sparsity pattern")]
    fn symbolic_rejects_a_different_pattern() {
        let symbolic = analyze(&grid_laplacian(4, 4));
        let other = laplacian_chain(16, 1.0, 1.0);
        let _ = symbolic.factor_numeric(&other);
    }

    #[test]
    #[should_panic(expected = "not a permutation")]
    fn analyze_with_perm_rejects_duplicates() {
        let a = grid_laplacian(3, 3);
        let mut perm: Vec<usize> = (0..a.dim()).collect();
        perm[0] = 1;
        let _ = analyze_with_perm(&a, perm);
    }

    /// The reference the bitset search must reproduce: the same greedy
    /// exact minimum degree with the elimination cliques held as
    /// ordered sets.
    fn min_degree_order_oracle(a: &CsrMatrix) -> Vec<usize> {
        let n = a.dim();
        let mut adj: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); n];
        for r in 0..n {
            for (c, _) in a.row(r) {
                if c != r {
                    adj[r].insert(c);
                    adj[c].insert(r);
                }
            }
        }
        let mut eliminated = vec![false; n];
        let mut perm = Vec::with_capacity(n);
        for _ in 0..n {
            let v = (0..n)
                .filter(|&i| !eliminated[i])
                .min_by_key(|&i| (adj[i].len(), i))
                .expect("uneliminated node remains");
            perm.push(v);
            eliminated[v] = true;
            let neighbours: Vec<usize> = adj[v].iter().copied().collect();
            for &u in &neighbours {
                adj[u].remove(&v);
            }
            for (i, &u) in neighbours.iter().enumerate() {
                for &w in &neighbours[i + 1..] {
                    adj[u].insert(w);
                    adj[w].insert(u);
                }
            }
            adj[v].clear();
        }
        perm
    }

    #[test]
    fn min_degree_order_matches_the_oracle_on_every_thermal_network() {
        use therm3d_floorplan::{Experiment, StackOrder};

        use crate::{RcNetwork, ThermalConfig};

        let cfg = ThermalConfig::paper_default();
        for exp in Experiment::ALL {
            for order in StackOrder::ALL {
                let stack = exp.stack_with_order(order);
                let blocks = RcNetwork::build_blocks(&stack, &cfg);
                let grids =
                    (1..=16).map(|g| RcNetwork::build(&stack, &cfg.clone().with_grid(g, g)));
                for (label, network) in std::iter::once(blocks).chain(grids).enumerate() {
                    let g = network.conductance();
                    assert_eq!(
                        min_degree_order(g),
                        min_degree_order_oracle(g),
                        "{exp} {order}: network {label} (0 = blocks, else the grid side)"
                    );
                }
            }
        }
    }

    mod random_patterns {
        use proptest::prelude::*;

        use super::*;

        proptest! {
            #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]
            #[test]
            fn min_degree_order_matches_the_oracle(
                n in prop::sample::select(vec![1usize, 2, 63, 64, 65, 128, 129]),
                components in 1usize..4,
                isolated in 0.0f64..0.3,
                density in 0.0f64..0.25,
                seed in 0u64..1 << 40,
            ) {
                // A random symmetric pattern: each node is isolated or
                // joins one of `components` interleaved groups, and
                // edges only join nodes of one group, so the graph is
                // disconnected whenever two groups are populated.
                let mut s = seed;
                let mut next = || {
                    s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                    (s >> 11) as f64 / (1u64 << 53) as f64
                };
                let group: Vec<Option<usize>> =
                    (0..n).map(|i| (next() >= isolated).then_some(i % components)).collect();
                let mut t = TripletMatrix::new(n);
                for i in 0..n {
                    t.add_grounded_conductance(i, 1.0);
                    for j in (i + 1)..n {
                        if group[i].is_some() && group[i] == group[j] && next() < density {
                            t.add_conductance(i, j, 1.0);
                        }
                    }
                }
                let a = t.to_csr();
                let perm = min_degree_order(&a);
                prop_assert_eq!(&perm, &min_degree_order_oracle(&a), "n = {}", n);
            }
        }
    }

    #[test]
    fn permutation_is_a_permutation() {
        let a = grid_laplacian(5, 7);
        let f = factor(&a).unwrap();
        let mut seen = vec![false; a.dim()];
        for &p in f.permutation() {
            assert!(!seen[p], "index {p} repeated");
            seen[p] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }
}
