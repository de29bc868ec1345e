//! Fuzzes the telemetry JSON reader: [`Json::parse`] and
//! [`MetricsSnapshot::from_json`]. Random token sequences and random
//! edits of a real snapshot must come back as `Ok` or as an `Err` with a
//! message, never as a panic or a stack overflow. Every `Ok` value must
//! survive its own `compact()` and `pretty()` renderings, and every
//! parsed snapshot must survive `to_json()`.

use std::collections::BTreeMap;

use proptest::prelude::*;
use therm3d_telemetry::{CellMetrics, Histogram, Json, MetricsSnapshot};

/// JSON tokens: syntax, the snapshot schema's keys, edge-case numbers,
/// literals, escapes (good and bad) and runs of brackets deep enough to
/// reach the parser's nesting cap.
const TOKENS: [&str; 52] = [
    "{",
    "}",
    "[",
    "]",
    ",",
    ":",
    " ",
    "\n",
    "\"a\"",
    "\"\"",
    "\"meta\"",
    "\"counters\"",
    "\"gauges\"",
    "\"histograms\"",
    "\"cells\"",
    "\"edges\"",
    "\"buckets\"",
    "\"count\"",
    "\"sum\"",
    "\"min\"",
    "\"max\"",
    "\"cell\"",
    "\"key\"",
    "\"cached\"",
    "\"wall_us\"",
    "\"phases\"",
    "0",
    "-1",
    "1.5e3",
    "-0",
    "18446744073709551615",
    "18446744073709551616",
    "1e999",
    "-",
    "1.",
    "1e",
    "01",
    "null",
    "true",
    "false",
    "nul",
    "\"\\u00e9\"",
    "\"\\ud83d\\ude00\"",
    "\"\\ud83d\"",
    "\"\\udc00\"",
    "\"\\x\"",
    "\"tab\\t\\\"q\\\"\"",
    "\"",
    "\\",
    "é",
    "[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[",
    "]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]]",
];

/// A snapshot exercising every section of the schema.
fn sample() -> MetricsSnapshot {
    let h = Histogram::with_edges(&[10, 100]);
    h.record(7);
    h.record(700);
    let mut snap = MetricsSnapshot::default();
    snap.meta.insert("sweep".to_owned(), "ti\"ny µs".to_owned());
    snap.counters.insert("sweep.cache_hits".to_owned(), 3);
    snap.gauges.insert("expand_us".to_owned(), 12.25);
    snap.histograms.insert("cell.wall_us".to_owned(), h.snapshot());
    snap.cells.push(CellMetrics {
        index: 1,
        key: "00ff00ff00ff00ff".to_owned(),
        cached: true,
        wall_us: 42,
        phases: BTreeMap::from([("cache_lookup".to_owned(), 42)]),
        counters: BTreeMap::from([("factor_numeric".to_owned(), 1)]),
    });
    snap
}

/// Applies `(op, position, token)` edits to `text` on chars, so no edit
/// splits a UTF-8 sequence: delete a char, insert a token, or truncate.
fn edit(text: &str, edits: &[(usize, usize, usize)]) -> String {
    let mut chars: Vec<char> = text.chars().collect();
    for &(op, pos, token) in edits {
        let at = pos % (chars.len() + 1);
        match op {
            0 if at < chars.len() => {
                chars.remove(at);
            }
            1 => {
                chars.splice(at..at, TOKENS[token].chars());
            }
            2 => chars.truncate(at),
            _ => {}
        }
    }
    chars.into_iter().collect()
}

/// `from_json` never panics, and every `Ok` snapshot renders back to
/// itself.
fn check_snapshot(text: &str) {
    match MetricsSnapshot::from_json(text) {
        Ok(snap) => assert_eq!(MetricsSnapshot::from_json(&snap.to_json()), Ok(snap), "{text}"),
        Err(e) => assert!(!e.is_empty(), "{text}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 20_000, ..ProptestConfig::default() })]

    #[test]
    fn token_sequences_parse_or_fail_and_round_trip(
        picks in prop::collection::vec(0usize..TOKENS.len(), 0..24),
    ) {
        let text: String = picks.iter().map(|&i| TOKENS[i]).collect();
        match Json::parse(&text) {
            Ok(value) => {
                prop_assert_eq!(Json::parse(&value.compact()), Ok(value.clone()), "{}", text);
                prop_assert_eq!(Json::parse(&value.pretty()), Ok(value), "{}", text);
            }
            Err(e) => prop_assert!(!e.is_empty(), "{text}"),
        }
        check_snapshot(&text);
    }

    #[test]
    fn edited_snapshots_parse_or_fail(
        edits in prop::collection::vec((0usize..3, 0usize..4096, 0usize..TOKENS.len()), 1..4),
    ) {
        check_snapshot(&edit(&sample().to_json(), &edits));
    }
}

#[test]
fn the_unedited_sample_round_trips() {
    let snap = sample();
    assert_eq!(MetricsSnapshot::from_json(&snap.to_json()), Ok(snap));
}
