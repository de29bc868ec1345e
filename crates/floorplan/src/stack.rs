//! 3D die stacks: ordered layers of floorplans plus global block/core
//! indexing.

use std::fmt;
use std::sync::OnceLock;

use crate::block::UnitKind;
use crate::floorplan::Floorplan;

/// Identifier of a processing core within a [`Stack3d`], dense in
/// `0..num_cores()`.
///
/// Core ids are assigned layer by layer starting from the layer nearest the
/// heat sink, in floorplan block order, so they are stable and reproducible
/// for a given stack construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CoreId(pub usize);

impl fmt::Display for CoreId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "C{}", self.0)
    }
}

/// Location of one block within the stack, with a globally unique name of
/// the form `L{layer}.{block-name}`.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockSite {
    /// Layer index; 0 is the layer adjacent to the heat spreader/sink.
    pub layer: usize,
    /// Block index within that layer's floorplan.
    pub block: usize,
    /// Globally unique name, e.g. `L1.core3`.
    pub global_name: String,
    /// The block's functional role.
    pub kind: UnitKind,
    /// Block area in mm².
    pub area_mm2: f64,
}

/// A stack of die layers forming a 3D multicore system.
///
/// Layer 0 is the silicon layer **closest to the heat spreader and sink**;
/// higher indices are further away and therefore cool less efficiently —
/// the asymmetry that motivates the paper's Adapt3D policy.
///
/// # Examples
///
/// ```
/// use therm3d_floorplan::{niagara, Stack3d};
///
/// let stack = Stack3d::new(vec![
///     ("cores".to_owned(), niagara::core_layer()),
///     ("caches".to_owned(), niagara::cache_layer()),
/// ]);
/// assert_eq!(stack.layer_count(), 2);
/// assert_eq!(stack.num_cores(), 8);
/// ```
#[derive(Debug, Clone)]
pub struct Stack3d {
    layers: Vec<Floorplan>,
    layer_names: Vec<String>,
    sites: Vec<BlockSite>,
    /// Global site index of each layer's first block: layer `l` holds
    /// the sites `layer_start[l]..layer_start[l] + layers[l].len()`.
    layer_start: Vec<usize>,
    /// Layer of each block, by global site index.
    layer_of_block: Vec<usize>,
    /// Global site index of each core, ordered by `CoreId`.
    core_sites: Vec<usize>,
    /// [`Stack3d::vertical_pairs`], scanned on first use.
    vertical_pairs: OnceLock<Vec<(usize, usize)>>,
}

impl Stack3d {
    /// Assembles a stack from named layers, ordered bottom (heat-sink side)
    /// to top.
    ///
    /// # Panics
    ///
    /// Panics if `layers` is empty or if two layers have different die
    /// outlines (3D stacking requires congruent dies).
    #[must_use]
    pub fn new(layers: Vec<(String, Floorplan)>) -> Self {
        assert!(!layers.is_empty(), "a stack needs at least one layer");
        let outline = *layers[0].1.outline();
        for (name, fp) in &layers {
            assert!(
                (fp.outline().width - outline.width).abs() < 1e-9
                    && (fp.outline().height - outline.height).abs() < 1e-9,
                "layer `{name}` outline differs from the first layer"
            );
        }
        let (layer_names, layers): (Vec<_>, Vec<_>) = layers.into_iter().unzip();
        let mut sites = Vec::new();
        let mut layer_start = Vec::with_capacity(layers.len());
        let mut core_sites = Vec::new();
        for (li, fp) in layers.iter().enumerate() {
            layer_start.push(sites.len());
            for (bi, b) in fp.blocks().iter().enumerate() {
                if b.kind() == UnitKind::Core {
                    core_sites.push(sites.len());
                }
                sites.push(BlockSite {
                    layer: li,
                    block: bi,
                    global_name: format!("L{li}.{}", b.name()),
                    kind: b.kind(),
                    area_mm2: b.area(),
                });
            }
        }
        let layer_of_block = sites.iter().map(|s| s.layer).collect();
        Self {
            layers,
            layer_names,
            sites,
            layer_start,
            layer_of_block,
            core_sites,
            vertical_pairs: OnceLock::new(),
        }
    }

    /// Number of silicon layers.
    #[must_use]
    pub fn layer_count(&self) -> usize {
        self.layers.len()
    }

    /// The floorplan of layer `layer`.
    ///
    /// # Panics
    ///
    /// Panics if `layer >= layer_count()`.
    #[must_use]
    pub fn layer(&self, layer: usize) -> &Floorplan {
        &self.layers[layer]
    }

    /// The name given to layer `layer` at construction.
    ///
    /// # Panics
    ///
    /// Panics if `layer >= layer_count()`.
    #[must_use]
    pub fn layer_name(&self, layer: usize) -> &str {
        &self.layer_names[layer]
    }

    /// All layers, bottom first.
    #[must_use]
    pub fn layers(&self) -> &[Floorplan] {
        &self.layers
    }

    /// Every block in the stack with its global index equal to the slice
    /// position.
    #[must_use]
    pub fn sites(&self) -> &[BlockSite] {
        &self.sites
    }

    /// Total number of blocks across all layers.
    #[must_use]
    pub fn num_blocks(&self) -> usize {
        self.sites.len()
    }

    /// Global site index of the block at `(layer, block)`.
    #[must_use]
    pub fn site_index(&self, layer: usize, block: usize) -> Option<usize> {
        let in_range = block < self.layers.get(layer)?.len();
        in_range.then(|| self.layer_start[layer] + block)
    }

    /// The layer of every block, indexed like [`sites`](Self::sites).
    #[must_use]
    pub fn layer_of_block(&self) -> &[usize] {
        &self.layer_of_block
    }

    /// Number of processing cores in the stack.
    #[must_use]
    pub fn num_cores(&self) -> usize {
        self.core_sites.len()
    }

    /// Iterates over core ids.
    pub fn core_ids(&self) -> impl Iterator<Item = CoreId> {
        (0..self.num_cores()).map(CoreId)
    }

    /// Global site index of core `core`.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    #[must_use]
    pub fn core_site(&self, core: CoreId) -> &BlockSite {
        &self.sites[self.core_sites[core.0]]
    }

    /// Global block index of core `core`.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    #[must_use]
    pub fn core_block_index(&self, core: CoreId) -> usize {
        self.core_sites[core.0]
    }

    /// The layer a core sits on.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    #[must_use]
    pub fn core_layer(&self, core: CoreId) -> usize {
        self.core_site(core).layer
    }

    /// Pairs of global block indices that overlap in plan view on
    /// **adjacent layers** — the vertically coupled block pairs whose
    /// temperature difference stresses the TSVs between them (the
    /// quantity Section V-C of the paper investigates).
    ///
    /// Pairs are ordered `(lower, upper)` and each pair appears once.
    /// A copy of [`vertical_pairs`](Self::vertical_pairs).
    ///
    /// # Examples
    ///
    /// ```
    /// use therm3d_floorplan::Experiment;
    ///
    /// let stack = Experiment::Exp1.stack();
    /// let pairs = stack.vertical_adjacency();
    /// assert!(!pairs.is_empty());
    /// for (lo, hi) in pairs {
    ///     assert_eq!(stack.sites()[hi].layer, stack.sites()[lo].layer + 1);
    /// }
    /// ```
    #[must_use]
    pub fn vertical_adjacency(&self) -> Vec<(usize, usize)> {
        self.vertical_pairs().to_vec()
    }

    /// The pairs of [`vertical_adjacency`](Self::vertical_adjacency),
    /// borrowed: the plan-view overlap scan, quadratic in the blocks per
    /// layer, runs once per stack, on the first call.
    #[must_use]
    pub fn vertical_pairs(&self) -> &[(usize, usize)] {
        self.vertical_pairs.get_or_init(|| {
            let mut pairs = Vec::new();
            for upper in 1..self.layer_count() {
                let lower = upper - 1;
                for (bi_lo, b_lo) in self.layers[lower].blocks().iter().enumerate() {
                    for (bi_hi, b_hi) in self.layers[upper].blocks().iter().enumerate() {
                        if b_lo.rect().intersection_area(b_hi.rect()) > 1e-9 {
                            pairs.push((
                                self.layer_start[lower] + bi_lo,
                                self.layer_start[upper] + bi_hi,
                            ));
                        }
                    }
                }
            }
            pairs
        })
    }

    /// Default per-core thermal indices `α_i ∈ (0, 1)` for the Adapt3D
    /// policy: higher means more prone to hot spots.
    ///
    /// The paper sets the indices offline from the steady-state temperatures
    /// of cores under typical workloads, which are determined by (a) the
    /// layer's distance from the heat sink and (b) the core's centrality
    /// within its layer. This helper scores exactly those two factors:
    ///
    /// ```text
    /// score_i = 0.15 + 0.60 · layer/(L−1) + 0.20 · centrality
    /// ```
    ///
    /// (with the layer term zero for single-layer stacks), then normalizes
    /// the scores so their **mean is 0.5**, clamped to `[0.05, 0.95]`.
    /// Normalization keeps the Adapt3D increase/decrease dynamics balanced
    /// regardless of where the cores happen to sit — on a stack whose
    /// cores all share one layer (EXP-1), the index degenerates to a
    /// centrality ranking around 0.5, which is why the paper observes
    /// Adapt3D ≈ Adaptive-Random there. Callers calibrating against a
    /// specific thermal model can instead measure steady-state
    /// temperatures and pass their own indices to the policy.
    #[must_use]
    pub fn default_thermal_indices(&self) -> Vec<f64> {
        let denom = (self.layer_count().saturating_sub(1)).max(1) as f64;
        let scores: Vec<f64> = self
            .core_ids()
            .map(|c| {
                let site = self.core_site(c);
                let layer_frac =
                    if self.layer_count() > 1 { site.layer as f64 / denom } else { 0.0 };
                let centrality = self.layers[site.layer].centrality(site.block);
                0.15 + 0.60 * layer_frac + 0.20 * centrality
            })
            .collect();
        let mean: f64 = scores.iter().sum::<f64>() / scores.len().max(1) as f64;
        scores.iter().map(|s| (0.5 * s / mean).clamp(0.05, 0.95)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::niagara;

    fn two_layer() -> Stack3d {
        Stack3d::new(vec![
            ("cores".to_owned(), niagara::core_layer()),
            ("caches".to_owned(), niagara::cache_layer()),
        ])
    }

    #[test]
    fn global_indexing_is_dense_and_consistent() {
        let s = two_layer();
        assert_eq!(s.num_blocks(), s.layer(0).len() + s.layer(1).len());
        for (i, site) in s.sites().iter().enumerate() {
            assert_eq!(s.site_index(site.layer, site.block), Some(i));
            assert_eq!(s.layer_of_block()[i], site.layer);
        }
        assert_eq!(s.site_index(0, s.layer(0).len()), None, "block past its layer");
        assert_eq!(s.site_index(2, 0), None, "layer past the stack");
    }

    /// The overlap scan run afresh, without the stack's cache.
    fn scanned_pairs(s: &Stack3d) -> Vec<(usize, usize)> {
        let mut pairs = Vec::new();
        for (lo, a) in s.sites().iter().enumerate() {
            for (hi, b) in s.sites().iter().enumerate() {
                let (ra, rb) = (
                    s.layer(a.layer).blocks()[a.block].rect(),
                    s.layer(b.layer).blocks()[b.block].rect(),
                );
                if b.layer == a.layer + 1 && ra.intersection_area(rb) > 1e-9 {
                    pairs.push((lo, hi));
                }
            }
        }
        pairs
    }

    #[test]
    fn cached_vertical_pairs_equal_a_fresh_scan() {
        for exp in crate::Experiment::ALL {
            for order in crate::StackOrder::ALL {
                let s = exp.stack_with_order(order);
                let fresh = scanned_pairs(&s);
                assert!(!fresh.is_empty(), "{exp} {order}");
                assert_eq!(s.vertical_pairs(), fresh, "{exp} {order}: first call");
                assert_eq!(s.vertical_adjacency(), fresh, "{exp} {order}: cached");
                assert_eq!(s.clone().vertical_pairs(), fresh, "{exp} {order}: a clone");
            }
        }
    }

    #[test]
    fn core_enumeration() {
        let s = two_layer();
        assert_eq!(s.num_cores(), 8);
        for c in s.core_ids() {
            assert_eq!(s.core_site(c).kind, UnitKind::Core);
            assert_eq!(s.core_layer(c), 0, "all cores are on layer 0 in EXP-1");
        }
    }

    #[test]
    fn global_names_are_unique() {
        let s = Stack3d::new(vec![
            ("a".to_owned(), niagara::mixed_layer()),
            ("b".to_owned(), niagara::mixed_layer()),
        ]);
        let mut names: Vec<_> = s.sites().iter().map(|x| x.global_name.clone()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), s.num_blocks());
    }

    #[test]
    fn thermal_indices_increase_with_layer() {
        let s = Stack3d::new(vec![
            ("a".to_owned(), niagara::mixed_layer()),
            ("b".to_owned(), niagara::mixed_layer()),
        ]);
        let alpha = s.default_thermal_indices();
        assert_eq!(alpha.len(), 8);
        // Cores 0..4 on layer 0, 4..8 on layer 1; layer-1 cores hotter.
        for i in 0..4 {
            assert!(
                alpha[i + 4] > alpha[i],
                "core {} on upper layer should have larger α ({} vs {})",
                i + 4,
                alpha[i + 4],
                alpha[i]
            );
        }
        for a in alpha {
            assert!(a > 0.0 && a < 1.0);
        }
    }

    #[test]
    #[should_panic(expected = "at least one layer")]
    fn empty_stack_rejected() {
        let _ = Stack3d::new(vec![]);
    }

    #[test]
    fn layer_accessors() {
        let s = two_layer();
        assert_eq!(s.layer_name(0), "cores");
        assert_eq!(s.layer_name(1), "caches");
        assert_eq!(s.layers().len(), 2);
        assert_eq!(s.layer(1).cores().count(), 0);
    }
}
