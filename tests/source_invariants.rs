//! Source invariants that clippy cannot express. `clippy.toml` and the
//! workspace lints hold the rest: ordered iteration, no wall clock, no
//! stray threads, no stdout in libraries, a reason on every `#[allow]`.
//!
//! Library sources under `crates/*/src` mark regions with two line
//! comments, each on a line of its own:
//!
//! ```text
//! // region(<kind>: <label>)
//! ...
//! // end-region
//! ```
//!
//! - `alloc-free` regions (the engine tick, the modal tick and dot
//!   product, the LDLᵀ solve, the job streams' advance) must not name an
//!   allocating call outside comments and string literals.
//!   `crates/core/tests/tick_allocs.rs` and `stream_allocs.rs` count the
//!   allocations at run time; this test names the line.
//! - a `fingerprint` region is a serialized format. Its lines, salted
//!   with a version constant, must hash to a recorded fingerprint, so
//!   the format cannot change without a version bump.

use std::path::{Path, PathBuf};

use therm3d_sweep::fnv1a64;

/// Calls that allocate (or clone, which usually allocates).
const ALLOC_TOKENS: [&str; 9] = [
    "Vec::new",
    "vec![",
    "format!",
    ".to_string()",
    ".to_owned()",
    ".collect",
    "Box::new",
    "String::new",
    ".clone()",
];

/// Every alloc-free region, by file and label: one that disappears
/// fails the test as surely as one that allocates.
const ALLOC_FREE: [(&str, &str); 7] = [
    ("crates/core/src/engine.rs", "engine-tick"),
    ("crates/thermal/src/modal.rs", "modal-tick"),
    ("crates/thermal/src/modal.rs", "modal-dot"),
    ("crates/thermal/src/sparse/factor.rs", "ldlt-solve"),
    ("crates/workload/src/source.rs", "job-advance"),
    ("crates/workload/src/source.rs", "job-advance"),
    ("crates/workload/src/source.rs", "job-advance"),
];

/// A fingerprinted format: its region, its version constant (the salt)
/// and its recorded fingerprint.
struct Format {
    file: &'static str,
    label: &'static str,
    salt: (&'static str, &'static str),
    recorded: (&'static str, u64),
}

/// Every fingerprinted format. A new on-disk or wire format gets a row.
const FORMATS: [Format; 2] = [
    Format {
        file: "crates/sweep/src/cache.rs",
        label: "cell-descriptor",
        salt: ("ENGINE_VERSION", therm3d_sweep::ENGINE_VERSION),
        recorded: ("DESCRIPTOR_FINGERPRINT", therm3d_sweep::DESCRIPTOR_FINGERPRINT),
    },
    Format {
        file: "crates/coord/src/wire.rs",
        label: "wire-protocol",
        salt: ("PROTOCOL_VERSION", therm3d_coord::wire::PROTOCOL_VERSION),
        recorded: ("WIRE_FINGERPRINT", therm3d_coord::wire::WIRE_FINGERPRINT),
    },
];

/// A marked region: `kind`, `label`, and its content lines
/// `start..end` (0-indexed, markers excluded).
#[derive(Debug)]
struct Region {
    kind: String,
    label: String,
    start: usize,
    end: usize,
}

/// The regions marked in `source`, or the first malformed, unknown,
/// nested, stray or unclosed marker.
fn regions(source: &str) -> Result<Vec<Region>, String> {
    let mut out = Vec::new();
    let mut open: Option<(String, String, usize)> = None;
    for (i, line) in source.lines().enumerate() {
        let at = |msg: String| format!("line {}: {msg}", i + 1);
        let Some(text) = line.trim_start().strip_prefix("//") else { continue };
        let text = text.trim();
        if text.starts_with("end-region") {
            if text != "end-region" {
                return Err(at(format!("malformed marker `{text}`")));
            }
            let (kind, label, start) =
                open.take().ok_or_else(|| at("stray `end-region`".into()))?;
            out.push(Region { kind, label, start, end: i });
        } else if let Some(args) = text.strip_prefix("region(") {
            let parsed = args.strip_suffix(')').and_then(|a| a.split_once(':'));
            let Some((kind, label)) = parsed else {
                return Err(at(format!("malformed marker `{text}`")));
            };
            let (kind, label) = (kind.trim(), label.trim());
            if !matches!(kind, "alloc-free" | "fingerprint") || label.is_empty() {
                return Err(at(format!("unknown region `{kind}: {label}`")));
            }
            if let Some((kind, label, _)) = &open {
                return Err(at(format!("regions do not nest: `{kind}: {label}` is open")));
            }
            open = Some((kind.to_owned(), label.to_owned(), i + 1));
        }
    }
    match open {
        Some((kind, label, start)) => {
            Err(format!("line {start}: `{kind}: {label}` is never closed"))
        }
        None => Ok(out),
    }
}

/// `source` line for line, with comments and the contents of string
/// and char literals blanked.
fn code_lines(source: &str) -> Vec<String> {
    #[derive(Clone, Copy, PartialEq)]
    enum State {
        Code,
        LineComment,
        Block(usize),
        Str,
        Raw(usize),
    }
    let chars: Vec<char> = source.chars().collect();
    let at = |i: usize| chars.get(i).copied();
    let (mut lines, mut code, mut state, mut i) = (Vec::new(), String::new(), State::Code, 0);
    while let Some(c) = at(i) {
        if c == '\n' {
            lines.push(std::mem::take(&mut code));
            if state == State::LineComment {
                state = State::Code;
            }
            i += 1;
            continue;
        }
        let next = at(i + 1);
        i += match state {
            State::LineComment => 1,
            State::Block(depth) => match (c, next) {
                ('/', Some('*')) => {
                    state = State::Block(depth + 1);
                    2
                }
                ('*', Some('/')) => {
                    state = if depth == 1 { State::Code } else { State::Block(depth - 1) };
                    code.push(' ');
                    2
                }
                _ => 1,
            },
            State::Str => match c {
                // An escaped newline still ends a line.
                '\\' if next != Some('\n') => 2,
                '"' => {
                    state = State::Code;
                    code.push('"');
                    1
                }
                _ => 1,
            },
            State::Raw(hashes) => {
                if c == '"' && (1..=hashes).all(|k| at(i + k) == Some('#')) {
                    state = State::Code;
                    code.push('"');
                    1 + hashes
                } else {
                    1
                }
            }
            State::Code => match (c, next) {
                ('/', Some('/')) => {
                    state = State::LineComment;
                    2
                }
                ('/', Some('*')) => {
                    state = State::Block(1);
                    2
                }
                ('"', _) => {
                    state = raw_hashes(&code).map_or(State::Str, State::Raw);
                    code.push('"');
                    1
                }
                // A char literal, escaped or plain; otherwise a lifetime.
                ('\'', Some('\\')) => {
                    code.push(' ');
                    let close = (i + 3..chars.len()).find(|&j| chars[j] == '\'');
                    close.map_or(1, |j| j + 1 - i)
                }
                ('\'', _) if at(i + 2) == Some('\'') => {
                    code.push(' ');
                    3
                }
                _ => {
                    code.push(c);
                    1
                }
            },
        };
    }
    lines.push(code);
    lines
}

/// The `#` count when `code` ends in a raw-string prefix (`r`, `br`,
/// `r#`, ...), so the quote that follows opens a raw string.
fn raw_hashes(code: &str) -> Option<usize> {
    let rest = code.trim_end_matches('#');
    let hashes = code.len() - rest.len();
    let rest = rest.strip_suffix('r')?;
    let rest = rest.strip_suffix('b').unwrap_or(rest);
    let starts_ident = !rest.ends_with(|c: char| c.is_alphanumeric() || c == '_');
    starts_ident.then_some(hashes)
}

/// Whether `code` holds `token` as a whole token: where the token
/// begins or ends with an identifier character, so must the match
/// (`format!` is not `eformat!`, `Vec::new` is not `Vec::new_in`).
fn has_token(code: &str, token: &str) -> bool {
    let ident = |c: char| c.is_alphanumeric() || c == '_';
    let (first, last) = (token.starts_with(ident), token.ends_with(ident));
    code.match_indices(token).any(|(at, _)| {
        let (before, after) = (&code[..at], &code[at + token.len()..]);
        let joined = (first && before.ends_with(ident)) || (last && after.starts_with(ident));
        !joined
    })
}

/// `label: line: token` for each allocating call in an alloc-free
/// region of `source`.
fn allocations(source: &str, regions: &[Region]) -> Vec<String> {
    let code = code_lines(source);
    let mut found = Vec::new();
    for region in regions.iter().filter(|r| r.kind == "alloc-free") {
        for (i, line) in code.iter().enumerate().take(region.end).skip(region.start) {
            for token in ALLOC_TOKENS.iter().filter(|t| has_token(line, t)) {
                found.push(format!("{}: line {}: `{token}`", region.label, i + 1));
            }
        }
    }
    found
}

/// FNV-64 of the salt, then each content line of `region`, trimmed at
/// the end and led by `\n`.
fn fingerprint(salt: &str, source: &str, region: &Region) -> u64 {
    let mut text = salt.to_owned();
    for line in source.lines().take(region.end).skip(region.start) {
        text.push('\n');
        text.push_str(line.trim_end());
    }
    fnv1a64(text.as_bytes())
}

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let entries =
        std::fs::read_dir(dir).unwrap_or_else(|e| panic!("cannot read {}: {e}", dir.display()));
    for entry in entries {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            out.push(path);
        }
    }
}

/// Every library source under `crates/*/src`, as (workspace-relative
/// path with `/` separators, source text, regions).
fn library_sources() -> Vec<(String, String, Vec<Region>)> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    for krate in std::fs::read_dir(root.join("crates")).expect("crates/ exists") {
        let src = krate.expect("directory entry").path().join("src");
        if src.is_dir() {
            rust_files(&src, &mut files);
        }
    }
    files.sort();
    files
        .into_iter()
        .map(|path| {
            let source = std::fs::read_to_string(&path).expect("readable source");
            let rel = path.strip_prefix(root).expect("under the workspace");
            let rel = rel.iter().map(|c| c.to_string_lossy()).collect::<Vec<_>>().join("/");
            let regions = regions(&source).unwrap_or_else(|e| panic!("{rel}: {e}"));
            (rel, source, regions)
        })
        .collect()
}

#[test]
fn alloc_free_regions_do_not_allocate() {
    let mut seen = Vec::new();
    let mut found = Vec::new();
    for (file, source, regions) in library_sources() {
        for region in regions.iter().filter(|r| r.kind == "alloc-free") {
            seen.push((file.clone(), region.label.clone()));
        }
        found.extend(allocations(&source, &regions).into_iter().map(|f| format!("{file}: {f}")));
    }
    let mut expected: Vec<_> =
        ALLOC_FREE.iter().map(|&(file, label)| (file.to_owned(), label.to_owned())).collect();
    expected.sort();
    seen.sort();
    assert_eq!(seen, expected, "the alloc-free regions moved: update ALLOC_FREE");
    assert!(
        found.is_empty(),
        "allocating calls in alloc-free regions (reuse a buffer built before the loop):\n{}",
        found.join("\n")
    );
}

#[test]
fn fingerprinted_formats_match_their_recorded_constants() {
    let (mut seen, mut drifted) = (Vec::new(), Vec::new());
    for (file, source, regions) in library_sources() {
        for region in regions.iter().filter(|r| r.kind == "fingerprint") {
            let format = FORMATS.iter().find(|f| f.file == file && f.label == region.label);
            let Some(format) = format else {
                drifted.push(format!(
                    "{file}: `fingerprint: {}` is not in FORMATS: add its version and \
                     fingerprint constants",
                    region.label
                ));
                continue;
            };
            seen.push(format.label);
            let actual = fingerprint(format.salt.1, &source, region);
            if actual != format.recorded.1 {
                drifted.push(format!(
                    "{file}: `fingerprint: {}` hashes to {actual:#018x} under {} {:?}, not to \
                     {} {:#018x}: bump {} and set {} to the value this test then prints",
                    region.label,
                    format.salt.0,
                    format.salt.1,
                    format.recorded.0,
                    format.recorded.1,
                    format.salt.0,
                    format.recorded.0
                ));
            }
        }
    }
    for format in &FORMATS {
        assert!(
            seen.contains(&format.label),
            "{}: no `region(fingerprint: {})`",
            format.file,
            format.label
        );
    }
    assert!(drifted.is_empty(), "{}", drifted.join("\n"));
}

#[test]
fn the_checks_flag_what_they_guard() {
    let source = "fn tick() {\n\
                  \x20   // region(alloc-free: fixture)\n\
                  \x20   let a = vec![0; 4]; // vec![ in a comment\n\
                  \x20   let b = \"vec![ in a string .clone()\";\n\
                  \x20   let c = r#\"Box::new(\"x\")\"#;\n\
                  \x20   let d = ('\\'', 'x', a.len()); /* .to_owned() */\n\
                  \x20   let e: &'static str = b.into();\n\
                  \x20   let f = d.clone();\n\
                  \x20   // end-region\n\
                  \x20   let g = Vec::new();\n\
                  }\n";
    let found = allocations(source, &regions(source).unwrap());
    assert_eq!(found, ["fixture: line 3: `vec![`", "fixture: line 8: `.clone()`"]);
    assert!(has_token("x.collect::<Vec<_>>()", ".collect"));
    assert!(!has_token("eformat!(x)", "format!"));
    assert!(!has_token("Vec::new_in(a)", "Vec::new"));

    let unclosed = "// region(alloc-free: a)\nfn f() {}\n";
    assert!(regions(unclosed).unwrap_err().contains("never closed"));
    assert!(regions("// end-region\n").unwrap_err().contains("stray"));
    assert!(regions("// region(alloc_free: a)\n// end-region\n").unwrap_err().contains("unknown"));
    assert!(regions("// region(alloc-free)\n// end-region\n").unwrap_err().contains("malformed"));
    let nested =
        "// region(alloc-free: a)\n// region(alloc-free: b)\n// end-region\n// end-region\n";
    assert!(regions(nested).unwrap_err().contains("nest"));

    // The live descriptor: any edit to its lines moves the fingerprint.
    let format = &FORMATS[0];
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(format.file);
    let source = std::fs::read_to_string(path).expect("readable source");
    let region = regions(&source).unwrap().into_iter().find(|r| r.label == format.label).unwrap();
    let fp = fingerprint(format.salt.1, &source, &region);
    let edited: Vec<String> = source
        .lines()
        .enumerate()
        .map(|(i, line)| if i == region.start { format!("{line} // edited") } else { line.into() })
        .collect();
    assert_ne!(fingerprint(format.salt.1, &edited.join("\n"), &region), fp);
}
