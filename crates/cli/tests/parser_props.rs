//! Fuzzes the two hand-rolled parsers a user feeds directly: the
//! command line (`therm3d_cli::parse`) and the sweep-spec TOML subset
//! (`therm3d_sweep::from_toml`). Bad input must come back as a typed
//! error, never a panic, and every spec that parses must survive a
//! `to_toml` round trip unchanged.

use proptest::prelude::*;
use therm3d_cli::parse;
use therm3d_sweep::{from_toml, to_toml};

/// CLI tokens: every subcommand and flag, including the removed
/// static-sharding surface, plus good and bad values for them.
const VOCAB: [&str; 62] = [
    "run",
    "sweep",
    "check",
    "serve",
    "work",
    "steady",
    "trace",
    "reliability",
    "cache",
    "compact",
    "help",
    "merge",
    "shard-plan",
    "--exp",
    "--policy",
    "--benchmark",
    "-t",
    "--seconds",
    "--seed",
    "--grid",
    "--integrator",
    "--stack-order",
    "--tsv",
    "--sensor",
    "--cores",
    "--threads",
    "--format",
    "--cache-dir",
    "--no-cache",
    "--cache-stats",
    "--progress",
    "--trace-out",
    "--metrics-out",
    "--listen",
    "--connect",
    "--lease",
    "--lease-timeout",
    "--throttle-ms",
    "--port-file",
    "--dpm",
    "--csv",
    "--shard",
    "--count",
    "--serve",
    "--help",
    "--shard=1/3",
    "--exp=exp2",
    "=",
    "",
    "s.toml",
    "exp1",
    "exp9",
    "Adapt3D",
    "gzip",
    "0",
    "-1",
    "1.5",
    "nan",
    "3/3",
    "csv",
    "rk4",
    "127.0.0.1:0",
];

/// Spec-text fragments inserted by the TOML edits: syntax characters,
/// hostile numbers, removed keys, aliases and duplicate sections.
const FRAGMENTS: [&str; 28] = [
    "[",
    "]",
    "\"",
    "=",
    "#",
    ",",
    "\n",
    " ",
    "\t",
    "0",
    "-1",
    "1e400",
    "NaN",
    "18446744073709551616",
    "true",
    "é",
    "µs",
    "\"exp9\"",
    "[sweep]\n",
    "[other]\n",
    "shard = \"0/1\"\n",
    "streaming = true\n",
    "sensor = \"noisy-3c\"\n",
    "seeds = []\n",
    "grid = 0\n",
    "sim_seconds = 1e-300\n",
    "policy_seed = 65536\n",
    "policies = [\"Default\", \"Default\"]\n",
];

const SPEC: &str = include_str!("../../../examples/sweep_scenarios.toml");

/// Applies `(op, position, fragment, length)` edits to `text`, working
/// on chars so no edit splits a UTF-8 sequence.
fn edit(text: &str, edits: &[(usize, usize, usize, usize)]) -> String {
    let mut chars: Vec<char> = text.chars().collect();
    for &(op, pos, fragment, len) in edits {
        let at = pos % (chars.len() + 1);
        match op {
            // Delete a short run.
            0 => {
                let end = (at + len).min(chars.len());
                chars.drain(at..end);
            }
            // Insert a fragment.
            1 => {
                chars.splice(at..at, FRAGMENTS[fragment].chars());
            }
            // Duplicate the line the position falls in.
            2 => {
                let start = chars[..at].iter().rposition(|&c| c == '\n').map_or(0, |i| i + 1);
                let end =
                    chars[at..].iter().position(|&c| c == '\n').map_or(chars.len(), |i| at + i);
                let mut line = chars[start..end].to_vec();
                line.push('\n');
                chars.splice(start..start, line);
            }
            // Truncate.
            _ => chars.truncate(at),
        }
    }
    chars.into_iter().collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 20_000, ..ProptestConfig::default() })]

    #[test]
    fn any_token_sequence_parses_or_fails_with_a_message(
        picks in prop::collection::vec(0usize..VOCAB.len(), 0..9),
    ) {
        let tokens: Vec<String> = picks.iter().map(|&i| VOCAB[i].to_owned()).collect();
        let parsed = parse(tokens.clone());
        if let Err(e) = &parsed {
            prop_assert!(!e.0.is_empty(), "{tokens:?}");
        }
        // The removed static-sharding commands fail whatever follows.
        let removed = match (tokens.first().map(String::as_str), tokens.get(1).map(String::as_str)) {
            (Some(sub @ ("merge" | "shard-plan")), _) => Some(format!("unknown subcommand `{sub}`")),
            (Some("cache"), Some("merge")) => Some("unknown cache verb `merge`".to_owned()),
            _ => None,
        };
        if let Some(expected) = removed {
            let err = parsed.expect_err("a removed command must not parse").0;
            prop_assert!(err.contains(&expected), "{tokens:?}: {err}");
        }
    }

    #[test]
    fn edited_specs_parse_or_fail_and_round_trip(
        edits in prop::collection::vec(
            (0usize..4, 0usize..4096, 0usize..FRAGMENTS.len(), 1usize..8),
            1..5,
        ),
    ) {
        let text = edit(SPEC, &edits);
        match from_toml(&text) {
            Ok(spec) => {
                let back = from_toml(&to_toml(&spec));
                prop_assert_eq!(back, Ok(spec), "edited spec:\n{}", text);
            }
            Err(e) => prop_assert!(!e.is_empty(), "{text}"),
        }
    }
}

#[test]
fn the_unedited_example_parses() {
    assert!(from_toml(SPEC).is_ok());
}
