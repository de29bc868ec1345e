//! A single-layer floorplan: a validated set of non-overlapping blocks.

use std::fmt;

use crate::block::{Block, UnitKind};
use crate::geom::Rect;

/// Error produced when assembling a [`Floorplan`].
#[derive(Debug, Clone, PartialEq)]
pub enum BuildFloorplanError {
    /// Two blocks have the same name.
    DuplicateName(String),
    /// Two blocks overlap with positive area.
    Overlap {
        /// Name of the first overlapping block.
        first: String,
        /// Name of the second overlapping block.
        second: String,
        /// Overlap area in mm².
        area: f64,
    },
    /// A block extends beyond the die outline.
    OutOfBounds {
        /// Name of the offending block.
        name: String,
    },
    /// The floorplan has no blocks.
    Empty,
}

impl fmt::Display for BuildFloorplanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildFloorplanError::DuplicateName(n) => {
                write!(f, "duplicate block name `{n}`")
            }
            BuildFloorplanError::Overlap { first, second, area } => {
                write!(f, "blocks `{first}` and `{second}` overlap by {area:.4} mm²")
            }
            BuildFloorplanError::OutOfBounds { name } => {
                write!(f, "block `{name}` extends beyond the die outline")
            }
            BuildFloorplanError::Empty => f.write_str("floorplan has no blocks"),
        }
    }
}

impl std::error::Error for BuildFloorplanError {}

/// A validated planar floorplan for one die layer.
///
/// Invariants enforced at construction:
/// - at least one block,
/// - unique block names,
/// - no two blocks overlap,
/// - every block lies within the die outline.
///
/// Blocks need not tile the outline completely; uncovered silicon behaves
/// like [`UnitKind::Other`] with zero power in the thermal model.
///
/// # Examples
///
/// ```
/// use therm3d_floorplan::{Block, Floorplan, UnitKind, geom::Rect};
///
/// # fn main() -> Result<(), therm3d_floorplan::BuildFloorplanError> {
/// let fp = Floorplan::new(
///     Rect::new(0.0, 0.0, 10.0, 10.0),
///     vec![
///         Block::new("core0", UnitKind::Core, Rect::new(0.0, 0.0, 5.0, 10.0)),
///         Block::new("l2_0", UnitKind::L2Cache, Rect::new(5.0, 0.0, 5.0, 10.0)),
///     ],
/// )?;
/// assert_eq!(fp.cores().count(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Floorplan {
    outline: Rect,
    blocks: Vec<Block>,
}

impl Floorplan {
    /// Builds and validates a floorplan.
    ///
    /// # Errors
    ///
    /// Returns [`BuildFloorplanError`] if the block list is empty, contains
    /// duplicate names, overlapping blocks, or blocks outside `outline`.
    pub fn new(outline: Rect, blocks: Vec<Block>) -> Result<Self, BuildFloorplanError> {
        if blocks.is_empty() {
            return Err(BuildFloorplanError::Empty);
        }
        for (i, b) in blocks.iter().enumerate() {
            if blocks[..i].iter().any(|earlier| earlier.name() == b.name()) {
                return Err(BuildFloorplanError::DuplicateName(b.name().to_owned()));
            }
            if !b.rect().contained_in(&outline) {
                return Err(BuildFloorplanError::OutOfBounds { name: b.name().to_owned() });
            }
        }
        for i in 0..blocks.len() {
            for j in (i + 1)..blocks.len() {
                if blocks[i].rect().overlaps(blocks[j].rect()) {
                    return Err(BuildFloorplanError::Overlap {
                        first: blocks[i].name().to_owned(),
                        second: blocks[j].name().to_owned(),
                        area: blocks[i].rect().intersection_area(blocks[j].rect()),
                    });
                }
            }
        }
        Ok(Self { outline, blocks })
    }

    /// The die outline.
    #[must_use]
    pub fn outline(&self) -> &Rect {
        &self.outline
    }

    /// The floorplan mirrored about the outline's horizontal midline
    /// (every block's `y` is reflected; names, kinds and areas are kept).
    ///
    /// 3D stacks bond alternate dies **anti-aligned** so that high-power
    /// blocks of one layer sit above low-power blocks of the next (the
    /// A-B / B-A letter alternation of the paper's Figure 1); this is the
    /// transform the stack builders apply to odd layers.
    #[must_use]
    pub fn mirrored_y(&self) -> Floorplan {
        let blocks = self
            .blocks
            .iter()
            .map(|b| {
                let r = b.rect();
                let y = self.outline.y + (self.outline.top() - r.top());
                Block::new(b.name(), b.kind(), Rect::new(r.x, y, r.width, r.height))
            })
            .collect();
        Floorplan::new(self.outline, blocks)
            .expect("mirroring preserves containment and disjointness")
    }

    /// All blocks, in insertion order.
    #[must_use]
    pub fn blocks(&self) -> &[Block] {
        &self.blocks
    }

    /// Iterates over the blocks that are processing cores.
    pub fn cores(&self) -> impl Iterator<Item = (usize, &Block)> {
        self.blocks.iter().enumerate().filter(|(_, b)| b.kind() == UnitKind::Core)
    }

    /// Looks up a block index by name (a linear scan: a layer holds a
    /// dozen blocks or so).
    #[must_use]
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.blocks.iter().position(|b| b.name() == name)
    }

    /// Looks up a block by name.
    #[must_use]
    pub fn block(&self, name: &str) -> Option<&Block> {
        self.index_of(name).map(|i| &self.blocks[i])
    }

    /// Number of blocks.
    #[must_use]
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// Returns `true` if the floorplan has no blocks (never true for a
    /// constructed floorplan; provided for API completeness).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// Total area of all blocks in mm².
    #[must_use]
    pub fn covered_area(&self) -> f64 {
        self.blocks.iter().map(Block::area).sum()
    }

    /// Fraction of the die outline covered by blocks, in `[0, 1]`.
    #[must_use]
    pub fn coverage(&self) -> f64 {
        self.covered_area() / self.outline.area()
    }

    /// Index of the block containing the point `(x, y)`, if any.
    ///
    /// Uses the half-open membership convention of
    /// [`Rect::contains_point`], so tiling blocks partition the die.
    #[must_use]
    pub fn block_at(&self, x: f64, y: f64) -> Option<usize> {
        self.blocks.iter().position(|b| b.rect().contains_point(x, y))
    }

    /// Normalized distance of a block's centre from the die centre, in
    /// `[0, 1]` (0 = dead centre, 1 = corner).
    ///
    /// Used by floorplan-aware policies ([`DVFS_FLP`] in the paper): central
    /// blocks run hotter than peripheral ones in a 2D layer.
    ///
    /// [`DVFS_FLP`]: https://doi.org/10.1109/DATE.2009.5090721
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    #[must_use]
    pub fn centrality(&self, index: usize) -> f64 {
        let (bx, by) = self.blocks[index].rect().center();
        let (cx, cy) = self.outline.center();
        let dx = (bx - cx) / (self.outline.width / 2.0);
        let dy = (by - cy) / (self.outline.height / 2.0);
        let d = (dx * dx + dy * dy).sqrt() / std::f64::consts::SQRT_2;
        // 1.0 at centre, 0.0 at the far corner.
        1.0 - d.min(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outline() -> Rect {
        Rect::new(0.0, 0.0, 10.0, 10.0)
    }

    fn core(name: &str, x: f64) -> Block {
        Block::new(name, UnitKind::Core, Rect::new(x, 0.0, 2.0, 2.0))
    }

    #[test]
    fn valid_floorplan() {
        let fp = Floorplan::new(outline(), vec![core("c0", 0.0), core("c1", 2.0)]).unwrap();
        assert_eq!(fp.len(), 2);
        assert_eq!(fp.cores().count(), 2);
        assert_eq!(fp.index_of("c1"), Some(1));
        assert!(fp.block("missing").is_none());
        assert!((fp.covered_area() - 8.0).abs() < 1e-12);
        assert!((fp.coverage() - 0.08).abs() < 1e-12);
    }

    #[test]
    fn rejects_empty() {
        assert_eq!(Floorplan::new(outline(), vec![]), Err(BuildFloorplanError::Empty));
    }

    #[test]
    fn rejects_duplicate_names() {
        let err = Floorplan::new(outline(), vec![core("c0", 0.0), core("c0", 5.0)]).unwrap_err();
        assert_eq!(err, BuildFloorplanError::DuplicateName("c0".into()));
    }

    #[test]
    fn rejects_overlap() {
        let err = Floorplan::new(outline(), vec![core("c0", 0.0), core("c1", 1.0)]).unwrap_err();
        match err {
            BuildFloorplanError::Overlap { first, second, area } => {
                assert_eq!((first.as_str(), second.as_str()), ("c0", "c1"));
                assert!((area - 2.0).abs() < 1e-12);
            }
            other => panic!("expected overlap, got {other:?}"),
        }
    }

    #[test]
    fn rejects_out_of_bounds() {
        let err = Floorplan::new(outline(), vec![core("c0", 9.0)]).unwrap_err();
        assert_eq!(err, BuildFloorplanError::OutOfBounds { name: "c0".into() });
    }

    #[test]
    fn edge_touching_blocks_allowed() {
        let fp = Floorplan::new(outline(), vec![core("c0", 0.0), core("c1", 2.0)]);
        assert!(fp.is_ok());
    }

    #[test]
    fn block_at_point() {
        let fp = Floorplan::new(outline(), vec![core("c0", 0.0), core("c1", 2.0)]).unwrap();
        assert_eq!(fp.block_at(1.0, 1.0), Some(0));
        assert_eq!(fp.block_at(2.0, 1.0), Some(1), "boundary belongs to right block");
        assert_eq!(fp.block_at(9.0, 9.0), None);
    }

    #[test]
    fn centrality_ordering() {
        let center = Block::new("mid", UnitKind::Core, Rect::new(4.0, 4.0, 2.0, 2.0));
        let corner = Block::new("corner", UnitKind::Core, Rect::new(0.0, 0.0, 2.0, 2.0));
        let fp = Floorplan::new(outline(), vec![center, corner]).unwrap();
        assert!(fp.centrality(0) > fp.centrality(1));
        assert!((fp.centrality(0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn error_display_strings() {
        let s = format!("{}", BuildFloorplanError::DuplicateName("x".into()));
        assert!(s.contains('x'));
        let s = format!(
            "{}",
            BuildFloorplanError::Overlap { first: "a".into(), second: "b".into(), area: 1.0 }
        );
        assert!(s.contains('a') && s.contains('b'));
    }
}
