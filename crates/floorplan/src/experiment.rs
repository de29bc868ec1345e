//! The four 3D system configurations evaluated in the paper (Figure 1).

use std::fmt;
use std::str::FromStr;

use crate::niagara;
use crate::stack::Stack3d;

/// Vertical orientation of the split (core/cache) configurations: which
/// die bonds to the heat-spreader side of the stack.
///
/// The paper's Figure 1 does not disambiguate the orientation. The
/// default, [`CoresFarFromSink`](StackOrder::CoresFarFromSink), bonds the
/// memory die to the package — the arrangement whose thermal stress
/// matches the evaluation the paper reports (hot spots on every
/// configuration) — while [`CoresNearSink`](StackOrder::CoresNearSink)
/// gives the logic the best cooling path and is provided for
/// design-space exploration.
///
/// Orders have canonical names (`cores-far`, `cores-near`) accepted by
/// [`FromStr`] and written by sweep specs, so the orientation is a
/// first-class sweep axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
pub enum StackOrder {
    /// Cache layers bond to the spreader; core layers stack above
    /// (the default; see [`Experiment::stack`]).
    #[default]
    CoresFarFromSink,
    /// Core layers bond to the spreader; cache layers stack above.
    CoresNearSink,
}

impl StackOrder {
    /// Both orientations, default first.
    pub const ALL: [StackOrder; 2] = [StackOrder::CoresFarFromSink, StackOrder::CoresNearSink];

    /// Canonical name, as accepted by [`FromStr`] and written by sweep
    /// specs (`cores-far`, `cores-near`).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            StackOrder::CoresFarFromSink => "cores-far",
            StackOrder::CoresNearSink => "cores-near",
        }
    }
}

impl fmt::Display for StackOrder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for StackOrder {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "cores-far" | "far" | "cores-far-from-sink" => Ok(StackOrder::CoresFarFromSink),
            "cores-near" | "near" | "cores-near-sink" => Ok(StackOrder::CoresNearSink),
            other => {
                Err(format!("unknown stack order `{other}` (expected cores-far or cores-near)"))
            }
        }
    }
}

/// One of the paper's four experimental 3D configurations.
///
/// | Config | Layers | Cores | Arrangement |
/// |---|---|---|---|
/// | `Exp1` | 2 | 8 | core layer + cache layer (logic/memory split) |
/// | `Exp2` | 2 | 8 | two mixed layers (4 cores + 2 L2 each) |
/// | `Exp3` | 4 | 16 | EXP-1 duplicated: alternating core/cache layers |
/// | `Exp4` | 4 | 16 | EXP-2 duplicated: four mixed layers |
///
/// Layer 0 is always adjacent to the heat spreader/sink. For the split
/// configurations the default [`StackOrder`] places the **cache layers
/// nearer the sink** (cores at layers 1, 3); use
/// [`stack_with_order`](Self::stack_with_order) for the other bonding.
///
/// # Examples
///
/// ```
/// use therm3d_floorplan::Experiment;
///
/// let stack = Experiment::Exp3.stack();
/// assert_eq!(stack.layer_count(), 4);
/// assert_eq!(stack.num_cores(), 16);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Experiment {
    /// Two layers: 8-core logic layer plus cache layer.
    Exp1,
    /// Two homogeneous layers with 4 cores + 2 L2 banks each.
    Exp2,
    /// Four layers: EXP-1 duplicated (16 cores).
    Exp3,
    /// Four layers: EXP-2 duplicated (16 cores).
    Exp4,
}

impl Experiment {
    /// All four configurations in paper order.
    pub const ALL: [Experiment; 4] =
        [Experiment::Exp1, Experiment::Exp2, Experiment::Exp3, Experiment::Exp4];

    /// Builds the 3D stack for this configuration with the default
    /// [`StackOrder`].
    #[must_use]
    pub fn stack(self) -> Stack3d {
        self.stack_with_order(StackOrder::default())
    }

    /// Builds the 3D stack with an explicit vertical orientation for the
    /// split (EXP-1/EXP-3) configurations; EXP-2/EXP-4 are unaffected by
    /// `order` since every layer holds the same mixed floorplan.
    ///
    /// For the mixed configurations, odd layers are bonded
    /// **anti-aligned** ([`Floorplan::mirrored_y`]): the cores of one
    /// layer sit above the cache/`other` bands of the next, matching the
    /// A-B / B-A letter alternation of the paper's Figure 1 and avoiding
    /// core-over-core thermal columns.
    ///
    /// [`Floorplan::mirrored_y`]: crate::Floorplan::mirrored_y
    #[must_use]
    pub fn stack_with_order(self, order: StackOrder) -> Stack3d {
        let core = || niagara::core_layer();
        let cache = || niagara::cache_layer();
        let mixed = |layer: usize| {
            let fp = niagara::mixed_layer();
            if layer % 2 == 1 {
                fp.mirrored_y()
            } else {
                fp
            }
        };
        let split_pair = |idx: &str| match order {
            StackOrder::CoresFarFromSink => {
                vec![(format!("caches{idx}"), cache()), (format!("cores{idx}"), core())]
            }
            StackOrder::CoresNearSink => {
                vec![(format!("cores{idx}"), core()), (format!("caches{idx}"), cache())]
            }
        };
        match self {
            Experiment::Exp1 => Stack3d::new(split_pair("")),
            Experiment::Exp2 => {
                Stack3d::new(vec![("mixed0".to_owned(), mixed(0)), ("mixed1".to_owned(), mixed(1))])
            }
            Experiment::Exp3 => {
                let mut layers = split_pair("0");
                layers.extend(split_pair("1"));
                Stack3d::new(layers)
            }
            Experiment::Exp4 => Stack3d::new(vec![
                ("mixed0".to_owned(), mixed(0)),
                ("mixed1".to_owned(), mixed(1)),
                ("mixed2".to_owned(), mixed(2)),
                ("mixed3".to_owned(), mixed(3)),
            ]),
        }
    }

    /// Number of silicon layers in this configuration.
    #[must_use]
    pub fn layer_count(self) -> usize {
        match self {
            Experiment::Exp1 | Experiment::Exp2 => 2,
            Experiment::Exp3 | Experiment::Exp4 => 4,
        }
    }

    /// Number of schedulable cores in this configuration.
    #[must_use]
    pub fn num_cores(self) -> usize {
        match self {
            Experiment::Exp1 | Experiment::Exp2 => 8,
            Experiment::Exp3 | Experiment::Exp4 => 16,
        }
    }

    /// `true` for the configurations that separate logic and memory layers.
    #[must_use]
    pub fn has_split_layers(self) -> bool {
        matches!(self, Experiment::Exp1 | Experiment::Exp3)
    }
}

impl fmt::Display for Experiment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Experiment::Exp1 => "EXP-1",
            Experiment::Exp2 => "EXP-2",
            Experiment::Exp3 => "EXP-3",
            Experiment::Exp4 => "EXP-4",
        };
        f.write_str(s)
    }
}

/// Error returned when parsing an [`Experiment`] from a string fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseExperimentError(String);

impl fmt::Display for ParseExperimentError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown experiment `{}` (expected exp1..exp4)", self.0)
    }
}

impl std::error::Error for ParseExperimentError {}

impl FromStr for Experiment {
    type Err = ParseExperimentError;

    /// Accepts `exp1`..`exp4` or `1`..`4`, in any case and with hyphens
    /// anywhere (`EXP-1`, the `Display` form). Matches in place: every
    /// result line the sweep cache loads parses one.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        // The longest accepted name has four bytes besides hyphens.
        let mut name = [0u8; 4];
        let mut len = 0;
        for b in s.bytes().filter(|&b| b != b'-') {
            let Some(slot) = name.get_mut(len) else {
                return Err(ParseExperimentError(s.to_owned()));
            };
            *slot = b.to_ascii_lowercase();
            len += 1;
        }
        match &name[..len] {
            b"exp1" | b"1" => Ok(Experiment::Exp1),
            b"exp2" | b"2" => Ok(Experiment::Exp2),
            b"exp3" | b"3" => Ok(Experiment::Exp3),
            b"exp4" | b"4" => Ok(Experiment::Exp4),
            _ => Err(ParseExperimentError(s.to_owned())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::UnitKind;

    #[test]
    fn stacks_match_metadata() {
        for exp in Experiment::ALL {
            let s = exp.stack();
            assert_eq!(s.layer_count(), exp.layer_count(), "{exp}");
            assert_eq!(s.num_cores(), exp.num_cores(), "{exp}");
        }
    }

    #[test]
    fn exp1_default_order_puts_cores_away_from_sink() {
        let s = Experiment::Exp1.stack();
        assert_eq!(s.layer(0).cores().count(), 0);
        assert_eq!(s.layer(1).cores().count(), 8);
    }

    #[test]
    fn exp1_near_sink_order_flips_the_pair() {
        let s = Experiment::Exp1.stack_with_order(StackOrder::CoresNearSink);
        assert_eq!(s.layer(0).cores().count(), 8);
        assert_eq!(s.layer(1).cores().count(), 0);
    }

    #[test]
    fn exp3_alternates_core_and_cache_layers() {
        let s = Experiment::Exp3.stack();
        assert_eq!(s.layer(0).cores().count(), 0);
        assert_eq!(s.layer(1).cores().count(), 8);
        assert_eq!(s.layer(2).cores().count(), 0);
        assert_eq!(s.layer(3).cores().count(), 8);
        let near = Experiment::Exp3.stack_with_order(StackOrder::CoresNearSink);
        assert_eq!(near.layer(0).cores().count(), 8);
        assert_eq!(near.layer(1).cores().count(), 0);
    }

    #[test]
    fn order_does_not_affect_mixed_configs() {
        for exp in [Experiment::Exp2, Experiment::Exp4] {
            let far = exp.stack_with_order(StackOrder::CoresFarFromSink);
            let near = exp.stack_with_order(StackOrder::CoresNearSink);
            for l in 0..far.layer_count() {
                assert_eq!(far.layer(l).cores().count(), near.layer(l).cores().count());
            }
        }
    }

    #[test]
    fn mixed_layers_stack_anti_aligned() {
        // Odd layers are mirrored, so no core of layer 1 may overlap (in
        // plan view) a core of layer 0.
        for exp in [Experiment::Exp2, Experiment::Exp4] {
            let s = exp.stack();
            for upper in 1..s.layer_count() {
                let lower = upper - 1;
                for (_, cu) in s.layer(upper).cores() {
                    for (_, cl) in s.layer(lower).cores() {
                        assert!(
                            cu.rect().intersection_area(cl.rect()) < 1e-9,
                            "{exp}: core column L{lower}/{} under L{upper}/{}",
                            cl.name(),
                            cu.name()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn exp4_has_cores_on_every_layer() {
        let s = Experiment::Exp4.stack();
        for l in 0..4 {
            assert_eq!(s.layer(l).cores().count(), 4, "layer {l}");
        }
    }

    #[test]
    fn total_l2_area_constant_across_configs() {
        // All configs implement the same logical system (per 8 cores: 4 L2
        // banks), so L2 area per 8 cores is identical.
        for exp in Experiment::ALL {
            let s = exp.stack();
            let l2: f64 =
                s.sites().iter().filter(|b| b.kind == UnitKind::L2Cache).map(|b| b.area_mm2).sum();
            let per8 = l2 / (s.num_cores() as f64 / 8.0);
            assert!((per8 - 76.0).abs() < 1e-9, "{exp}: {per8}");
        }
    }

    #[test]
    fn parse_round_trip() {
        for exp in Experiment::ALL {
            let parsed: Experiment = exp.to_string().parse().unwrap();
            assert_eq!(parsed, exp);
        }
        assert!("exp9".parse::<Experiment>().is_err());
    }

    #[test]
    fn stack_order_names_round_trip() {
        for order in StackOrder::ALL {
            assert_eq!(order.name().parse::<StackOrder>(), Ok(order));
            assert_eq!(order.to_string(), order.name());
        }
        assert_eq!("near".parse::<StackOrder>(), Ok(StackOrder::CoresNearSink));
        assert_eq!("FAR".parse::<StackOrder>(), Ok(StackOrder::CoresFarFromSink));
        assert!("sideways".parse::<StackOrder>().unwrap_err().contains("sideways"));
    }

    #[test]
    fn split_layer_flag() {
        assert!(Experiment::Exp1.has_split_layers());
        assert!(!Experiment::Exp2.has_split_layers());
        assert!(Experiment::Exp3.has_split_layers());
        assert!(!Experiment::Exp4.has_split_layers());
    }

    /// The reference the in-place match must reproduce: the accepted
    /// names matched against a lowercased copy with its hyphens removed.
    fn from_str_oracle(s: &str) -> Result<Experiment, ParseExperimentError> {
        match s.to_ascii_lowercase().replace('-', "").as_str() {
            "exp1" | "1" => Ok(Experiment::Exp1),
            "exp2" | "2" => Ok(Experiment::Exp2),
            "exp3" | "3" => Ok(Experiment::Exp3),
            "exp4" | "4" => Ok(Experiment::Exp4),
            _ => Err(ParseExperimentError(s.to_owned())),
        }
    }

    mod parse_names {
        use proptest::prelude::*;

        use super::*;

        /// Every character an accepted name uses, in both cases, and a
        /// few that none uses, one of them outside ASCII.
        const ALPHABET: [char; 16] =
            ['e', 'E', 'x', 'X', 'p', 'P', '-', '0', '1', '2', '3', '4', '5', '9', 'é', ' '];

        /// Strings near an accepted name: `exp` (or nothing) in some
        /// case, a digit, and up to two inserted characters, half of
        /// them hyphens.
        fn near_names() -> impl Strategy<Value = String> {
            let digits = 7usize..14; // '0'..='9' in ALPHABET
            (
                0usize..2,
                0usize..8,
                digits,
                prop::collection::vec((0usize..6, 0usize..2 * ALPHABET.len()), 0..3),
            )
                .prop_map(|(prefixed, upper, digit, inserts)| {
                    let mut name: Vec<char> = "exp"
                        .chars()
                        .take(3 * prefixed)
                        .enumerate()
                        .map(|(i, c)| if upper >> i & 1 == 1 { c.to_ascii_uppercase() } else { c })
                        .collect();
                    name.push(ALPHABET[digit]);
                    for (at, pick) in inserts {
                        let c = ALPHABET.get(pick).copied().unwrap_or('-');
                        name.insert(at % (name.len() + 1), c);
                    }
                    name.into_iter().collect()
                })
        }

        proptest! {
            #![proptest_config(ProptestConfig { cases: 4_000, ..ProptestConfig::default() })]
            #[test]
            fn from_str_matches_the_oracle(
                near in near_names(),
                random in prop::collection::vec(0usize..ALPHABET.len(), 0..9),
            ) {
                let random: String = random.into_iter().map(|i| ALPHABET[i]).collect();
                for s in [near, random] {
                    prop_assert_eq!(s.parse::<Experiment>(), from_str_oracle(&s), "{:?}", s);
                }
            }
        }

        #[test]
        fn near_names_reach_every_outcome() {
            // Without accepted inputs the property would compare errors
            // only; count what the strategy draws.
            let mut rng = proptest::TestRng::new(7);
            let mut accepted = [0usize; 4];
            let mut rejected = 0;
            for _ in 0..4_000 {
                match near_names().generate(&mut rng).parse::<Experiment>() {
                    Ok(exp) => accepted[exp as usize] += 1,
                    Err(_) => rejected += 1,
                }
            }
            assert!(
                accepted.iter().all(|&n| n > 100) && rejected > 1_000,
                "{accepted:?} {rejected}"
            );
        }
    }
}
