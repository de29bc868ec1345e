//! Assembly of the 3D RC thermal network from a die stack.
//!
//! Every silicon layer is discretized into grid cells (one thermal node
//! each). Vertical heat flow passes through the inter-die interface
//! material (with the TSV-adjusted joint resistivity) between stacked
//! layers, and through the TIM, heat spreader and heat sink below layer 0.
//! The sink convects into a fixed-temperature ambient through the
//! Table II convection resistance.
//!
//! ```text
//!   layer L-1 cells          (top of stack, adiabatic above)
//!      ║ interface (joint ρ)
//!   …
//!      ║ interface (joint ρ)
//!   layer 0 cells
//!      ║ TIM
//!   spreader node ── sink node ──(R_conv)── ambient (fixed)
//! ```

use therm3d_floorplan::Stack3d;

use crate::config::ThermalConfig;
use crate::grid::LayerGrid;
use crate::sparse::{CsrMatrix, TripletMatrix};
use crate::units::kelvin_from_celsius;

const MM_TO_M: f64 = 1e-3;

/// The assembled RC network: conductance matrix, per-node heat capacities,
/// ambient coupling, and the block ↔ node mapping.
#[derive(Debug, Clone)]
pub struct RcNetwork {
    conductance: CsrMatrix,
    /// Heat capacity per node, J/K.
    capacitance: Vec<f64>,
    /// Conductance to the fixed ambient per node, W/K (non-zero only at
    /// the sink).
    ambient_conductance: Vec<f64>,
    /// Ambient temperature in kelvin.
    ambient_k: f64,
    /// Per-layer grids (all identical geometry, one per silicon layer).
    grids: Vec<LayerGrid>,
    /// For each global block site: the `(node, weight)` cells it covers;
    /// weights sum to 1 per block.
    block_nodes: Vec<Vec<(usize, f64)>>,
    num_cell_nodes: usize,
    spreader_node: usize,
    sink_node: usize,
}

impl RcNetwork {
    /// Builds the network for `stack` under `config`.
    ///
    /// # Panics
    ///
    /// Panics if `config` fails [`ThermalConfig::validate`].
    #[must_use]
    pub fn build(stack: &Stack3d, config: &ThermalConfig) -> Self {
        config.validate();
        let layers = stack.layer_count();
        let grids: Vec<LayerGrid> = (0..layers)
            .map(|l| LayerGrid::new(*stack.layer(l).outline(), config.grid_rows, config.grid_cols))
            .collect();
        let cells_per_layer = grids[0].num_cells();
        let num_cell_nodes = cells_per_layer * layers;
        let spreader_node = num_cell_nodes;
        let sink_node = num_cell_nodes + 1;
        let n = num_cell_nodes + 2;

        let cell_w = grids[0].cell_width_mm() * MM_TO_M;
        let cell_h = grids[0].cell_height_mm() * MM_TO_M;
        let cell_area = cell_w * cell_h;
        let t_die = config.die_thickness_m;
        let k_si = config.silicon.conductivity;

        let mut g = TripletMatrix::new(n);
        let mut cap = vec![0.0; n];
        let mut g_amb = vec![0.0; n];

        // Per-cell silicon heat capacity, plus half the adjacent interface
        // material's capacity lumped into each neighbouring cell.
        let c_cell_si = config.silicon.volume_capacitance(cell_area * t_die);
        let c_half_interface =
            config.interlayer.volume_capacitance(cell_area * config.interlayer_thickness_m) / 2.0;

        // Lateral conductances within each layer.
        let g_lat_x = k_si * (t_die * cell_h) / cell_w;
        let g_lat_y = k_si * (t_die * cell_w) / cell_h;
        for (l, grid) in grids.iter().enumerate() {
            let base = l * cells_per_layer;
            for r in 0..grid.rows() {
                for c in 0..grid.cols() {
                    let i = base + grid.cell_index(r, c);
                    cap[i] += c_cell_si;
                    if c + 1 < grid.cols() {
                        g.add_conductance(i, base + grid.cell_index(r, c + 1), g_lat_x);
                    }
                    if r + 1 < grid.rows() {
                        g.add_conductance(i, base + grid.cell_index(r + 1, c), g_lat_y);
                    }
                }
            }
        }

        // Vertical conductances between stacked layers: half-die silicon,
        // joint interface, half-die silicon — all per cell column.
        let r_vert = (t_die / k_si
            + config.interlayer_thickness_m * config.interlayer.resistivity())
            / cell_area;
        let g_vert = 1.0 / r_vert;
        for l in 0..layers.saturating_sub(1) {
            for cell in 0..cells_per_layer {
                let lo = l * cells_per_layer + cell;
                let hi = (l + 1) * cells_per_layer + cell;
                g.add_conductance(lo, hi, g_vert);
                cap[lo] += c_half_interface;
                cap[hi] += c_half_interface;
            }
        }

        // Layer 0 into the spreader through the TIM, per cell column:
        // half-die silicon + TIM slab + spreader thickness over the cell
        // footprint.
        let r_to_spreader = (t_die / 2.0 / k_si
            + config.tim_thickness_m * config.tim.resistivity()
            + config.spreader_thickness_m / config.spreader.conductivity)
            / cell_area;
        let g_to_spreader = 1.0 / r_to_spreader;
        for cell in 0..cells_per_layer {
            g.add_conductance(cell, spreader_node, g_to_spreader);
        }

        // Package: spreader body capacity, lumped spreader→sink resistance,
        // sink capacity and convection to ambient (Table II).
        cap[spreader_node] = config.spreader.volume_capacitance(
            config.spreader_side_m * config.spreader_side_m * config.spreader_thickness_m,
        );
        cap[sink_node] = config.convection_capacitance_jk;
        g.add_conductance(spreader_node, sink_node, 1.0 / config.spreader_to_sink_resistance_kw);
        g_amb[sink_node] = 1.0 / config.convection_resistance_kw;
        g.add_grounded_conductance(sink_node, g_amb[sink_node]);

        // Block → node coverage, per global site.
        let mut block_nodes = Vec::with_capacity(stack.num_blocks());
        for (l, fp) in stack.layers().iter().enumerate() {
            let base = l * cells_per_layer;
            for cover in grids[l].block_coverage(fp) {
                block_nodes
                    .push(cover.into_iter().map(|(cell, w)| (base + cell, w)).collect::<Vec<_>>());
            }
        }
        debug_assert_eq!(block_nodes.len(), stack.num_blocks());

        let conductance = g.to_csr();
        // The RC system is only well-posed if G is symmetric (every
        // conductance added pairwise) and every node has thermal mass;
        // the implicit integrator's SPD factorization relies on both.
        debug_assert!(
            conductance.is_symmetric(1e-9),
            "conductance matrix must be symmetric (pairwise-added conductances)"
        );
        debug_assert!(
            cap.iter().all(|&c| c > 0.0),
            "every node needs positive heat capacity for the RC system to be SPD"
        );

        Self {
            conductance,
            capacitance: cap,
            ambient_conductance: g_amb,
            ambient_k: kelvin_from_celsius(config.ambient_c),
            grids,
            block_nodes,
            num_cell_nodes,
            spreader_node,
            sink_node,
        }
    }

    /// The conductance (Laplacian + ambient diagonal) matrix.
    #[must_use]
    pub fn conductance(&self) -> &CsrMatrix {
        &self.conductance
    }

    /// Per-node heat capacities in J/K.
    #[must_use]
    pub fn capacitance(&self) -> &[f64] {
        &self.capacitance
    }

    /// Per-node conductance to ambient in W/K.
    #[must_use]
    pub fn ambient_conductance(&self) -> &[f64] {
        &self.ambient_conductance
    }

    /// Ambient temperature in kelvin.
    #[must_use]
    pub fn ambient_k(&self) -> f64 {
        self.ambient_k
    }

    /// Total number of nodes (cells + spreader + sink).
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.capacitance.len()
    }

    /// Number of silicon cell nodes.
    #[must_use]
    pub fn cell_node_count(&self) -> usize {
        self.num_cell_nodes
    }

    /// Node index of the heat spreader.
    #[must_use]
    pub fn spreader_node(&self) -> usize {
        self.spreader_node
    }

    /// Node index of the heat sink.
    #[must_use]
    pub fn sink_node(&self) -> usize {
        self.sink_node
    }

    /// Number of silicon layers.
    #[must_use]
    pub fn layer_count(&self) -> usize {
        self.grids.len()
    }

    /// The grid of layer `l`.
    ///
    /// # Panics
    ///
    /// Panics if `l` is out of range.
    #[must_use]
    pub fn grid(&self, l: usize) -> &LayerGrid {
        &self.grids[l]
    }

    /// `(node, weight)` coverage of global block `site` (weights sum to 1).
    ///
    /// # Panics
    ///
    /// Panics if `site` is out of range.
    #[must_use]
    pub fn block_nodes(&self, site: usize) -> &[(usize, f64)] {
        &self.block_nodes[site]
    }

    /// Number of mapped blocks.
    #[must_use]
    pub fn block_count(&self) -> usize {
        self.block_nodes.len()
    }

    /// Distributes per-block powers (W) onto nodes, returning a per-node
    /// power vector.
    ///
    /// # Panics
    ///
    /// Panics if `block_powers.len() != block_count()` or any power is
    /// negative/not finite.
    #[must_use]
    pub fn node_power(&self, block_powers: &[f64]) -> Vec<f64> {
        let mut p = vec![0.0; self.node_count()];
        self.node_power_into(block_powers, &mut p);
        p
    }

    /// In-place variant of [`Self::node_power`].
    ///
    /// # Panics
    ///
    /// See [`Self::node_power`]; additionally panics if `out` has the
    /// wrong length.
    pub fn node_power_into(&self, block_powers: &[f64], out: &mut [f64]) {
        assert_eq!(
            block_powers.len(),
            self.block_nodes.len(),
            "expected one power entry per block"
        );
        assert_eq!(out.len(), self.node_count(), "output length mismatch");
        out.fill(0.0);
        for (bi, &pw) in block_powers.iter().enumerate() {
            assert!(pw.is_finite() && pw >= 0.0, "block {bi} power {pw} must be non-negative");
            for &(node, w) in &self.block_nodes[bi] {
                out[node] += pw * w;
            }
        }
    }

    /// Area-weighted average temperature of a block given node
    /// temperatures (kelvin in, kelvin out).
    ///
    /// # Panics
    ///
    /// Panics if `site` is out of range or `node_temps` has the wrong
    /// length.
    #[must_use]
    pub fn block_temperature(&self, site: usize, node_temps: &[f64]) -> f64 {
        assert_eq!(node_temps.len(), self.node_count(), "node temperature length mismatch");
        self.block_nodes[site].iter().map(|&(n, w)| node_temps[n] * w).sum()
    }

    /// Assembles the shifted system `α·C + G` (as a fresh CSR matrix)
    /// — the left-hand side of one implicit integration stage with
    /// `α = shift/h`. SPD for any `α ≥ 0` since `G` is and every
    /// capacitance is positive.
    ///
    /// # Panics
    ///
    /// Panics if `alpha` is negative or not finite.
    #[must_use]
    pub fn shifted_system(&self, alpha: f64) -> CsrMatrix {
        assert!(alpha.is_finite() && alpha >= 0.0, "shift must be non-negative, got {alpha}");
        let diag: Vec<f64> = self.capacitance.iter().map(|&c| alpha * c).collect();
        self.conductance.with_added_diagonal(&diag)
    }

    /// A conservative upper bound on the stiffest eigenvalue of
    /// `C⁻¹·G` (Gershgorin), used to pick a stable explicit step.
    #[must_use]
    pub fn stiffness_bound(&self) -> f64 {
        let diag = self.conductance.diagonal();
        diag.iter().zip(&self.capacitance).map(|(&d, &c)| 2.0 * d / c).fold(0.0, f64::max)
    }

    /// A geometric nested-dissection elimination order for this
    /// network (`perm[new] = old`), exploiting the known
    /// layers × rows × cols box structure: recursively bisect the box
    /// along its largest dimension, order each half first and the
    /// one-cell separator slab after both, and put the spreader and
    /// sink — the only non-grid nodes, and the densest rows — last.
    ///
    /// Near-linear to compute, where the exact minimum-degree search in
    /// [`crate::sparse::factor::min_degree_order`] is quadratic-plus —
    /// the difference between milliseconds and minutes at 64×64 per
    /// layer, with comparable fill on these grid Laplacians.
    /// [`crate::ThermalModel`] orders every network of 2 048 nodes or
    /// more this way.
    #[must_use]
    pub fn nested_dissection_perm(&self) -> Vec<usize> {
        let cells_per_layer = self.grids[0].num_cells();
        let mut perm = Vec::with_capacity(self.node_count());
        self.nd_order(
            &mut perm,
            cells_per_layer,
            (0, self.grids.len()),
            (0, self.grids[0].rows()),
            (0, self.grids[0].cols()),
        );
        debug_assert_eq!(perm.len(), self.num_cell_nodes);
        perm.push(self.spreader_node);
        perm.push(self.sink_node);
        perm
    }

    /// Recursive step of [`Self::nested_dissection_perm`] over the cell
    /// box `layers × rows × cols` (half-open ranges).
    fn nd_order(
        &self,
        out: &mut Vec<usize>,
        cells_per_layer: usize,
        (l0, l1): (usize, usize),
        (r0, r1): (usize, usize),
        (c0, c1): (usize, usize),
    ) {
        const LEAF_MAX: usize = 8;
        let (dl, dr, dc) = (l1 - l0, r1 - r0, c1 - c0);
        if dl * dr * dc <= LEAF_MAX {
            for l in l0..l1 {
                for r in r0..r1 {
                    for c in c0..c1 {
                        out.push(l * cells_per_layer + self.grids[l].cell_index(r, c));
                    }
                }
            }
            return;
        }
        // Bisect the largest dimension (ties: rows, then cols, then
        // layers — fully deterministic), separator slab ordered last.
        if dr >= dc && dr >= dl {
            let m = r0 + dr / 2;
            self.nd_order(out, cells_per_layer, (l0, l1), (r0, m), (c0, c1));
            self.nd_order(out, cells_per_layer, (l0, l1), (m + 1, r1), (c0, c1));
            self.nd_order(out, cells_per_layer, (l0, l1), (m, m + 1), (c0, c1));
        } else if dc >= dl {
            let m = c0 + dc / 2;
            self.nd_order(out, cells_per_layer, (l0, l1), (r0, r1), (c0, m));
            self.nd_order(out, cells_per_layer, (l0, l1), (r0, r1), (m + 1, c1));
            self.nd_order(out, cells_per_layer, (l0, l1), (r0, r1), (m, m + 1));
        } else {
            let m = l0 + dl / 2;
            self.nd_order(out, cells_per_layer, (l0, m), (r0, r1), (c0, c1));
            self.nd_order(out, cells_per_layer, (m + 1, l1), (r0, r1), (c0, c1));
            self.nd_order(out, cells_per_layer, (m, m + 1), (r0, r1), (c0, c1));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use therm3d_floorplan::Experiment;

    fn net(exp: Experiment, rows: usize, cols: usize) -> RcNetwork {
        let stack = exp.stack();
        let cfg = ThermalConfig::paper_default().with_grid(rows, cols);
        RcNetwork::build(&stack, &cfg)
    }

    #[test]
    fn node_counts() {
        let n = net(Experiment::Exp1, 4, 4);
        assert_eq!(n.node_count(), 2 * 16 + 2);
        assert_eq!(n.cell_node_count(), 32);
        assert_eq!(n.spreader_node(), 32);
        assert_eq!(n.sink_node(), 33);
    }

    #[test]
    fn conductance_matrix_is_symmetric() {
        let n = net(Experiment::Exp2, 4, 4);
        assert!(n.conductance().is_symmetric(1e-9));
    }

    #[test]
    fn all_capacitances_positive() {
        let n = net(Experiment::Exp3, 4, 4);
        for (i, &c) in n.capacitance().iter().enumerate() {
            assert!(c > 0.0, "node {i} capacitance {c}");
        }
    }

    #[test]
    fn sink_capacitance_matches_table_ii() {
        let n = net(Experiment::Exp1, 4, 4);
        assert!((n.capacitance()[n.sink_node()] - 140.0).abs() < 1e-9);
        assert!((n.ambient_conductance()[n.sink_node()] - 10.0).abs() < 1e-9);
    }

    #[test]
    fn block_power_distribution_conserves_total() {
        let stack = Experiment::Exp1.stack();
        let cfg = ThermalConfig::paper_default().with_grid(6, 6);
        let n = RcNetwork::build(&stack, &cfg);
        let powers: Vec<f64> = (0..stack.num_blocks()).map(|i| i as f64 * 0.3).collect();
        let node_p = n.node_power(&powers);
        let total_in: f64 = powers.iter().sum();
        let total_out: f64 = node_p.iter().sum();
        assert!((total_in - total_out).abs() < 1e-9);
    }

    #[test]
    fn block_temperature_of_uniform_field_is_uniform() {
        let n = net(Experiment::Exp4, 4, 4);
        let temps = vec![320.0; n.node_count()];
        for site in 0..n.block_count() {
            assert!((n.block_temperature(site, &temps) - 320.0).abs() < 1e-9);
        }
    }

    #[test]
    #[should_panic(expected = "must be non-negative")]
    fn negative_power_rejected() {
        let n = net(Experiment::Exp1, 2, 2);
        let mut powers = vec![0.0; n.block_count()];
        powers[0] = -1.0;
        let _ = n.node_power(&powers);
    }

    #[test]
    fn stiffness_bound_is_positive_and_finite() {
        let n = net(Experiment::Exp3, 8, 8);
        let s = n.stiffness_bound();
        assert!(s.is_finite() && s > 0.0);
        // With the paper geometry the stiffest time constant is around a
        // millisecond; the bound should sit in a physically plausible range.
        assert!(s > 100.0 && s < 1e6, "stiffness bound {s}");
    }

    #[test]
    fn shifted_system_adds_scaled_capacitance_to_the_diagonal() {
        let n = net(Experiment::Exp1, 4, 4);
        let alpha = 34.142;
        let shifted = n.shifted_system(alpha);
        assert_eq!(shifted.dim(), n.node_count());
        let g_diag = n.conductance().diagonal();
        for (i, d) in shifted.diagonal().iter().enumerate() {
            let expect = g_diag[i] + alpha * n.capacitance()[i];
            assert!((d - expect).abs() < 1e-9 * expect.abs().max(1.0), "node {i}");
        }
        // Off-diagonals are untouched.
        assert!((shifted.get(0, 1) - n.conductance().get(0, 1)).abs() < 1e-12);
        assert!(shifted.is_symmetric(1e-9));
    }

    #[test]
    fn nested_dissection_perm_is_a_permutation_with_package_last() {
        let n = net(Experiment::Exp2, 8, 8);
        let perm = n.nested_dissection_perm();
        assert_eq!(perm.len(), n.node_count());
        let mut seen = vec![false; n.node_count()];
        for &p in &perm {
            assert!(!seen[p], "index {p} repeated");
            seen[p] = true;
        }
        assert!(seen.iter().all(|&s| s));
        assert_eq!(perm[n.node_count() - 2], n.spreader_node());
        assert_eq!(perm[n.node_count() - 1], n.sink_node());
    }

    #[test]
    fn nested_dissection_fill_is_competitive_and_solves_agree() {
        use crate::sparse::factor::{analyze_with, analyze_with_perm, FillOrdering};
        let n = net(Experiment::Exp2, 16, 16);
        let g = n.conductance();
        let nd = analyze_with_perm(g, n.nested_dissection_perm());
        let natural = analyze_with(g, FillOrdering::Natural);
        assert!(
            nd.nnz_l() < natural.nnz_l(),
            "nested dissection fill {} must beat natural fill {}",
            nd.nnz_l(),
            natural.nnz_l()
        );
        let b: Vec<f64> = (0..g.dim()).map(|i| (i % 9) as f64 * 0.5).collect();
        let x_nd = nd.factor_numeric(g).unwrap().solve(&b);
        let x_nat = natural.factor_numeric(g).unwrap().solve(&b);
        for (a, b) in x_nd.iter().zip(&x_nat) {
            assert!((a - b).abs() < 1e-7 * a.abs().max(1.0));
        }
    }

    #[test]
    fn laplacian_row_sums_equal_ambient_coupling() {
        // G·1 should be zero everywhere except the ambient-connected sink.
        let n = net(Experiment::Exp2, 4, 4);
        let ones = vec![1.0; n.node_count()];
        let y = n.conductance().mul(&ones);
        for (i, yi) in y.iter().enumerate() {
            let expect = n.ambient_conductance()[i];
            assert!((yi - expect).abs() < 1e-9, "row {i}: {yi} vs {expect}");
        }
    }
}
