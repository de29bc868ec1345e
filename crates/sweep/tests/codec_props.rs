//! Fuzzes the result cache's line codec and its store loader. The TSV
//! lines of `results.tsv` are also the campaign service's result
//! transport, so both a crashed writer and a bad network peer feed
//! them. A damaged line (bit flips, truncation, inserted tabs) must
//! decode to `None` or to exactly the pair that was encoded, never
//! panic; every finite `RunResult` must round-trip bit for bit; and
//! opening a store over a file of random lines must never panic.

use proptest::prelude::*;
use therm3d::metrics::PerformanceStats;
use therm3d::RunResult;
use therm3d_floorplan::Experiment;
use therm3d_policies::PolicyKind;
use therm3d_sweep::cache::{cell_key_salted, STORE_FILE};
use therm3d_sweep::{decode_line, encode_line, expand, CacheStore, CellKey, SweepSpec};
use therm3d_workload::Benchmark;

/// Policy names and key salts: plain, empty, and every character the
/// line codec must escape.
const TEXT: [&str; 10] = [
    "Default",
    "Adapt3D-DVFS-TT",
    "",
    "tab\there",
    "new\nline",
    "cr\r",
    "back\\slash",
    "\\t",
    "µs é",
    "\u{1}",
];

/// Cells in [`spec`]'s expansion.
const CELLS: usize = 8;

fn spec() -> SweepSpec {
    SweepSpec::new("codec-props")
        .with_experiments(&Experiment::ALL)
        .with_policies(&[PolicyKind::Default, PolicyKind::Adapt3d])
        .with_benchmarks(&[Benchmark::Gzip])
        .with_sim_seconds(1.0)
        .with_grid(4, 4)
}

/// The key of cell `cell` of [`spec`] under salt `TEXT[salt]`; the
/// salt is part of the descriptor, so odd salts exercise its escaping.
fn key(cell: usize, salt: usize) -> CellKey {
    let spec = spec();
    cell_key_salted(&spec, &expand(&spec)[cell], TEXT[salt])
}

/// A finite float from raw bits: an infinity or NaN pattern has its
/// exponent cleared.
fn finite(bits: u64) -> f64 {
    let x = f64::from_bits(bits);
    if x.is_finite() {
        x
    } else {
        f64::from_bits(bits & !(0x7ff << 52))
    }
}

/// Random results: any policy text, any experiment, any finite floats
/// (subnormals and signed zeros included) and any counts.
fn results() -> impl Strategy<Value = RunResult> {
    (
        0usize..TEXT.len(),
        0usize..Experiment::ALL.len(),
        prop::collection::vec(0u64..u64::MAX, 12),
        (0u64..u64::MAX, 0u64..u64::MAX, 0u64..u64::MAX),
    )
        .prop_map(|(policy, experiment, bits, (completed, migrations, unfinished))| {
            let f: Vec<f64> = bits.into_iter().map(finite).collect();
            RunResult {
                policy: TEXT[policy].to_owned(),
                experiment: Experiment::ALL[experiment],
                duration_s: f[0],
                hotspot_pct: f[1],
                gradient_pct: f[2],
                cycle_pct: f[3],
                vertical_peak_c: f[4],
                vertical_mean_c: f[5],
                peak_temp_c: f[6],
                perf: PerformanceStats {
                    completed: completed as usize,
                    mean_turnaround_s: f[7],
                    max_turnaround_s: f[8],
                    total_turnaround_s: f[9],
                },
                energy_j: f[10],
                mean_power_w: f[11],
                migrations,
                unfinished: unfinished as usize,
            }
        })
}

/// Every float of `r`, as bits: `==` on floats would equate 0.0 and -0.0.
fn float_bits(r: &RunResult) -> [u64; 12] {
    [
        r.duration_s,
        r.hotspot_pct,
        r.gradient_pct,
        r.cycle_pct,
        r.vertical_peak_c,
        r.vertical_mean_c,
        r.peak_temp_c,
        r.perf.mean_turnaround_s,
        r.perf.max_turnaround_s,
        r.perf.total_turnaround_s,
        r.energy_j,
        r.mean_power_w,
    ]
    .map(f64::to_bits)
}

/// Applies `(op, position, value)` damage to `line`'s bytes: flip bit
/// `value % 8` of a byte, truncate, or insert a tab. Flips can break
/// UTF-8; the result is read back lossily, as a damaged file would be.
fn damage(line: &str, edits: &[(usize, usize, u64)]) -> String {
    let mut bytes = line.as_bytes().to_vec();
    for &(op, pos, value) in edits {
        match op {
            0 if !bytes.is_empty() => {
                let at = pos % bytes.len();
                bytes[at] ^= 1 << (value % 8);
            }
            1 => bytes.truncate(pos % (bytes.len() + 1)),
            _ => bytes.insert(pos % (bytes.len() + 1), b'\t'),
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 5_000, ..ProptestConfig::default() })]

    #[test]
    fn finite_results_round_trip_bit_for_bit(
        result in results(),
        (cell, salt) in (0usize..CELLS, 0usize..TEXT.len()),
    ) {
        let key = key(cell, salt);
        let line = encode_line(&key, &result);
        let (back_key, back) = decode_line(&line).expect("an intact line decodes");
        prop_assert_eq!(&back_key, &key);
        prop_assert_eq!(float_bits(&back), float_bits(&result));
        prop_assert_eq!(&back, &result);
        prop_assert_eq!(encode_line(&back_key, &back), line);
    }

    #[test]
    fn damaged_lines_decode_to_nothing_or_the_original(
        result in results(),
        (cell, salt) in (0usize..CELLS, 0usize..TEXT.len()),
        edits in prop::collection::vec((0usize..3, 0usize..4096, 0u64..8), 1..4),
    ) {
        let key = key(cell, salt);
        let line = encode_line(&key, &result);
        let damaged = damage(&line, &edits);
        if let Some((back_key, back)) = decode_line(&damaged) {
            // Only damage the codec cannot see gets through: a hex
            // digit's case, or a truncation at the very end.
            prop_assert_eq!(&back_key, &key, "{:?}", damaged);
            prop_assert_eq!(float_bits(&back), float_bits(&result));
            prop_assert_eq!(encode_line(&back_key, &back), line);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 300, ..ProptestConfig::default() })]

    #[test]
    fn a_store_of_random_lines_opens_without_panicking(
        entries in prop::collection::vec(
            (0usize..4, results(), (0usize..CELLS, 0usize..TEXT.len()), (0usize..4096, 0u64..8)),
            0..10,
        ),
    ) {
        let dir = std::env::temp_dir()
            .join(format!("therm3d_codec_props_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut text = String::new();
        for (kind, result, (cell, salt), (pos, value)) in &entries {
            let line = encode_line(&key(*cell, *salt), result);
            match kind {
                0 => text.push_str(&line),
                1 => text.push_str(&damage(&line, &[(0, *pos, *value)])),
                2 => text.push_str(&damage(&line, &[(1, *pos, 0)])),
                _ => text.push_str(TEXT[*pos % TEXT.len()]),
            }
            // A missing final newline is part of the damage too.
            if value % 4 != 0 {
                text.push('\n');
            }
        }
        std::fs::write(dir.join(STORE_FILE), &text).unwrap();
        let store = CacheStore::open(&dir).expect("a readable store opens");
        // Every line that decodes is loaded, and every other non-empty
        // line is counted as corrupt.
        let mut corrupt = 0;
        for line in text.lines().filter(|l| !l.is_empty()) {
            match decode_line(line) {
                Some((key, _)) => prop_assert!(store.contains(&key), "{:?}", line),
                None => corrupt += 1,
            }
        }
        prop_assert_eq!(store.stats().corrupt, corrupt, "{:?}", text);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
