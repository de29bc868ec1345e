//! `therm3d_lint`: workspace-specific static analysis for the therm3d
//! DATE 2009 reproduction.
//!
//! The repo's reproduction guarantees — bit-identical sweep output at
//! any thread or worker count, an allocation-free engine tick loop, and a
//! cache salt that must be bumped whenever the cell descriptor changes
//! — were previously enforced only by runtime CI greps and reviewer
//! vigilance. This crate machine-checks them: a small lexer strips
//! comments and string/char literals from every `crates/*/src/**/*.rs`
//! file (line numbers preserved), and a rule engine reports
//! deterministic [`Diagnostic`]s. Run it as `cargo run -p therm3d_lint`
//! from the workspace root; a clean tree exits 0.
//!
//! # Rule catalog
//!
//! | rule | scope | forbids |
//! |------|-------|---------|
//! | `no-nondeterministic-iteration` | `sweep`, `metrics`, `floorplan`, `policies`, `workload` | iterating a `HashMap`/`HashSet` (output-reaching crates must use ordered containers) |
//! | `no-wall-clock` | everywhere except `telemetry`, `bench` | `Instant::now` / `SystemTime` (simulation results must be a pure function of the spec) |
//! | `alloc-free-region` | inside `region(alloc-free: …)` markers | `Vec::new`, `vec![`, `format!`, `.to_string()`, `.to_owned()`, `.collect`, `Box::new`, `String::new`, `.clone()` |
//! | `stdout-hygiene` | library crates (everywhere except `cli`, `bench`, `lint`) | `println!` / `print!` (stdout byte-identity is CI-guarded; diagnostics belong on stderr) |
//! | `no-thread-spawn` | everywhere except `crates/sweep/src/runner.rs` | `thread::spawn` / `thread::scope` (cell-level parallelism lives in the sweep runner alone, so thread count can never change simulation output or defeat run-scoped factor sharing) |
//! | `cache-salt-drift` | every [`FINGERPRINT_TARGETS`] row (the cache's cell descriptor in `crates/sweep/src/cache.rs`, the coordinator wire protocol in `crates/coord/src/wire.rs`) | editing a fingerprinted serialization region without updating its recorded fingerprint (which requires a version-salt bump, since the salt is part of the hash) |
//! | `lint-directive` | everywhere | malformed/unknown `// lint:` markers and reason-less suppressions |
//!
//! # Markers and suppressions
//!
//! Inline directives are ordinary line comments:
//!
//! * `// lint: region(<kind>: <label>) … // lint: end-region` marks a
//!   named region. Regions of kind `alloc-free` are checked by the
//!   `alloc-free-region` rule; regions of kind `fingerprint` named in
//!   [`FINGERPRINT_TARGETS`] (the cache's cell descriptor, the
//!   coordinator's wire protocol) are hashed by `cache-salt-drift`.
//! * `// lint: allow(<rule>): <reason>` suppresses `<rule>` on the same
//!   line, or — when the comment stands alone — on the next line that
//!   holds code. The reason is **mandatory**: a reason-less `allow` is
//!   itself a diagnostic, so "zero diagnostics" implies "zero
//!   unexplained suppressions".

use std::collections::BTreeMap;
use std::path::Path;

/// Forbid `HashMap`/`HashSet` iteration in output-reaching crates.
pub const RULE_NONDET_ITER: &str = "no-nondeterministic-iteration";
/// Forbid `Instant::now`/`SystemTime` outside `telemetry` and `bench`.
pub const RULE_WALL_CLOCK: &str = "no-wall-clock";
/// Forbid allocating calls inside `region(alloc-free: …)` markers.
pub const RULE_ALLOC_FREE: &str = "alloc-free-region";
/// Forbid `println!`/`print!` in library crates.
pub const RULE_STDOUT: &str = "stdout-hygiene";
/// Forbid `thread::spawn`/`thread::scope` outside the sweep runner.
pub const RULE_THREAD_SPAWN: &str = "no-thread-spawn";
/// Fail when a fingerprinted serialization region (cell descriptor,
/// wire protocol — see [`FINGERPRINT_TARGETS`]) drifts from its
/// recorded fingerprint.
pub const RULE_SALT_DRIFT: &str = "cache-salt-drift";
/// Malformed or unknown `// lint:` directives, reason-less `allow`s.
pub const RULE_DIRECTIVE: &str = "lint-directive";

/// Every suppressible rule name (what `allow(<rule>)` may name).
pub const RULES: &[&str] = &[
    RULE_NONDET_ITER,
    RULE_WALL_CLOCK,
    RULE_ALLOC_FREE,
    RULE_STDOUT,
    RULE_THREAD_SPAWN,
    RULE_SALT_DRIFT,
];

/// Crates whose output reaches CSV/JSON/cache files, where hash-order
/// iteration would make reports nondeterministic.
const OUTPUT_REACHING_CRATES: &[&str] = &["sweep", "metrics", "floorplan", "policies", "workload"];
/// Crates allowed to read the wall clock (observability and benches).
const WALL_CLOCK_CRATES: &[&str] = &["telemetry", "bench"];
/// Crates whose `src` holds binary entry points that legitimately own
/// stdout (the CLI report, bench tables, this lint's own output).
const STDOUT_CRATES: &[&str] = &["cli", "bench", "lint"];
/// The one file allowed to spawn OS threads: the sweep runner owns all
/// cell-level parallelism (its worker pool is what makes thread count
/// output-invariant and what run-scoped factor sharing is keyed to).
const THREAD_SPAWN_FILES: &[&str] = &["crates/sweep/src/runner.rs"];

/// One finding, anchored to a file and 1-indexed line.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Diagnostic {
    /// Workspace-relative path (`crates/<crate>/src/...`).
    pub file: String,
    /// 1-indexed line number.
    pub line: usize,
    /// Rule name (one of the `RULE_*` constants).
    pub rule: String,
    /// Human-readable explanation with the offending token named.
    pub message: String,
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}: {}: {}", self.file, self.line, self.rule, self.message)
    }
}

/// 64-bit FNV-1a (the same stable hash the sweep cache keys use).
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

// ---------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------

/// One source line after lexing: `code` is the line with comments and
/// string/char-literal *contents* blanked (delimiters kept, line count
/// preserved); `comment` is the text of a `//` comment, if any.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Line {
    /// Code with comments and literal contents removed.
    pub code: String,
    /// Trailing `//` comment text, leading `/`/`!` and whitespace
    /// stripped (`/// docs` → `docs`).
    pub comment: Option<String>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LexState {
    Normal,
    /// Nested block comment, with depth.
    Block(usize),
    /// Regular (possibly multi-line) string literal.
    Str,
    /// Raw string literal with this many `#`s.
    RawStr(usize),
}

/// Does `code` (the lexed line so far) end with a raw-string prefix
/// (`r`, `br`, `r#`, …)? Returns the hash count when it does.
fn raw_string_prefix(code: &str) -> Option<usize> {
    let chars: Vec<char> = code.chars().collect();
    let mut i = chars.len();
    let mut hashes = 0;
    while i > 0 && chars[i - 1] == '#' {
        hashes += 1;
        i -= 1;
    }
    if i == 0 || chars[i - 1] != 'r' {
        return None;
    }
    i -= 1;
    // `br"…"` byte raw strings.
    if i > 0 && chars[i - 1] == 'b' {
        i -= 1;
    }
    // The `r` must start an identifier, not end one (`var"` is not raw).
    let is_ident = |c: char| c.is_alphanumeric() || c == '_';
    if i > 0 && is_ident(chars[i - 1]) {
        return None;
    }
    Some(hashes)
}

/// Lexes `source` into per-line code/comment views. Comments (line and
/// nested block) and the contents of string/char literals are removed
/// from `code`; directives are read from line comments only.
#[must_use]
pub fn strip(source: &str) -> Vec<Line> {
    let mut out = Vec::new();
    let mut state = LexState::Normal;
    for raw in source.lines() {
        let chars: Vec<char> = raw.chars().collect();
        let mut code = String::new();
        let mut comment = None;
        let mut i = 0;
        while i < chars.len() {
            match state {
                LexState::Block(depth) => {
                    if chars[i] == '/' && chars.get(i + 1) == Some(&'*') {
                        state = LexState::Block(depth + 1);
                        i += 2;
                    } else if chars[i] == '*' && chars.get(i + 1) == Some(&'/') {
                        state =
                            if depth == 1 { LexState::Normal } else { LexState::Block(depth - 1) };
                        if state == LexState::Normal {
                            code.push(' ');
                        }
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
                LexState::Str => {
                    if chars[i] == '\\' {
                        i += 2;
                    } else if chars[i] == '"' {
                        code.push('"');
                        state = LexState::Normal;
                        i += 1;
                    } else {
                        i += 1;
                    }
                }
                LexState::RawStr(hashes) => {
                    if chars[i] == '"'
                        && chars[i + 1..].iter().take_while(|c| **c == '#').count() >= hashes
                    {
                        code.push('"');
                        state = LexState::Normal;
                        i += 1 + hashes;
                    } else {
                        i += 1;
                    }
                }
                LexState::Normal => {
                    let c = chars[i];
                    if c == '/' && chars.get(i + 1) == Some(&'/') {
                        let mut j = i + 2;
                        while j < chars.len() && (chars[j] == '/' || chars[j] == '!') {
                            j += 1;
                        }
                        comment = Some(chars[j..].iter().collect::<String>().trim().to_owned());
                        break;
                    }
                    if c == '/' && chars.get(i + 1) == Some(&'*') {
                        state = LexState::Block(1);
                        i += 2;
                        continue;
                    }
                    if c == '"' {
                        state = match raw_string_prefix(&code) {
                            Some(hashes) => LexState::RawStr(hashes),
                            None => LexState::Str,
                        };
                        code.push('"');
                        i += 1;
                        continue;
                    }
                    if c == '\'' {
                        // Char literal vs lifetime: escaped (`'\n'`),
                        // plain (`'x'`), otherwise a lifetime tick.
                        if chars.get(i + 1) == Some(&'\\') {
                            let mut j = i + 3; // past the backslash and escaped char
                            while j < chars.len() && chars[j] != '\'' {
                                j += 1;
                            }
                            code.push(' ');
                            i = j + 1;
                            continue;
                        }
                        if chars.get(i + 2) == Some(&'\'') {
                            code.push(' ');
                            i += 3;
                            continue;
                        }
                        code.push('\'');
                        i += 1;
                        continue;
                    }
                    code.push(c);
                    i += 1;
                }
            }
        }
        out.push(Line { code, comment });
    }
    out
}

// ---------------------------------------------------------------------
// Directives and regions
// ---------------------------------------------------------------------

/// A parsed `// lint:` directive.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Directive {
    /// `allow(<rule>): <reason>` — suppress `rule` (reason mandatory).
    Allow {
        /// The rule being suppressed.
        rule: String,
        /// Why the suppression is sound; `None` is itself a diagnostic.
        reason: Option<String>,
    },
    /// `region(<name>)` — open a named region.
    Region {
        /// Region name with whitespace removed (`alloc-free:engine-tick`).
        name: String,
    },
    /// `end-region` — close the innermost open region.
    EndRegion,
}

/// Parses one comment as a directive: `None` for ordinary comments,
/// `Some(Err(..))` for text that starts with `lint:` but is malformed.
pub fn parse_directive(comment: &str) -> Option<Result<Directive, String>> {
    let rest = comment.trim().strip_prefix("lint:")?.trim();
    if rest == "end-region" {
        return Some(Ok(Directive::EndRegion));
    }
    if let Some(args) = rest.strip_prefix("allow(") {
        let Some((rule, tail)) = args.split_once(')') else {
            return Some(Err(format!("unclosed `allow(` in `lint: {rest}`")));
        };
        let tail = tail.trim();
        let reason =
            tail.strip_prefix(':').map(str::trim).filter(|r| !r.is_empty()).map(str::to_owned);
        if !tail.is_empty() && reason.is_none() {
            return Some(Err(format!("expected `allow({rule}): <reason>`, got `lint: {rest}`")));
        }
        return Some(Ok(Directive::Allow { rule: rule.trim().to_owned(), reason }));
    }
    if let Some(args) = rest.strip_prefix("region(") {
        let Some((name, tail)) = args.split_once(')') else {
            return Some(Err(format!("unclosed `region(` in `lint: {rest}`")));
        };
        if !tail.trim().is_empty() {
            return Some(Err(format!("trailing text after `region(...)`: `lint: {rest}`")));
        }
        let name: String = name.chars().filter(|c| !c.is_whitespace()).collect();
        if name.is_empty() {
            return Some(Err("empty region name".to_owned()));
        }
        return Some(Ok(Directive::Region { name }));
    }
    Some(Err(format!(
        "unknown lint directive `{rest}` (expected `allow(<rule>): <reason>`, \
         `region(<name>)` or `end-region`)"
    )))
}

/// A marked source region: content lines `start..end` (0-indexed, the
/// marker lines themselves excluded).
#[derive(Debug, Clone, PartialEq, Eq)]
struct Region {
    /// Whitespace-stripped name, e.g. `alloc-free:engine-tick`.
    name: String,
    /// First content line (0-indexed).
    start: usize,
    /// One past the last content line (0-indexed).
    end: usize,
}

impl Region {
    /// The part before the first `:` (`alloc-free`, `fingerprint`).
    fn kind(&self) -> &str {
        self.name.split(':').next().unwrap_or("")
    }
}

/// Per-file directive analysis: regions, suppression map, and the
/// diagnostics the markers themselves produce.
struct Markers {
    regions: Vec<Region>,
    /// target line (0-indexed) → rules with a *reasoned* allow there.
    allows: BTreeMap<usize, Vec<String>>,
    diags: Vec<(usize, String)>,
}

fn analyze_markers(lines: &[Line]) -> Markers {
    let mut regions = Vec::new();
    let mut allows: BTreeMap<usize, Vec<String>> = BTreeMap::new();
    let mut diags = Vec::new();
    let mut stack: Vec<(String, usize)> = Vec::new();
    for (i, line) in lines.iter().enumerate() {
        let Some(comment) = &line.comment else { continue };
        match parse_directive(comment) {
            None => {}
            Some(Err(msg)) => diags.push((i, msg)),
            Some(Ok(Directive::Region { name })) => stack.push((name, i)),
            Some(Ok(Directive::EndRegion)) => match stack.pop() {
                Some((name, start)) => regions.push(Region { name, start: start + 1, end: i }),
                None => diags.push((i, "`end-region` without an open region".to_owned())),
            },
            Some(Ok(Directive::Allow { rule, reason })) => {
                if !RULES.contains(&rule.as_str()) {
                    diags.push((i, format!("`allow({rule})` names an unknown rule")));
                    continue;
                }
                if reason.is_none() {
                    diags.push((
                        i,
                        format!(
                            "suppression without a reason: write \
                             `// lint: allow({rule}): <why this is sound>`"
                        ),
                    ));
                    continue;
                }
                // A stand-alone comment covers the next code line; a
                // trailing comment covers its own line.
                let target = if line.code.trim().is_empty() {
                    lines[i + 1..]
                        .iter()
                        .position(|l| !l.code.trim().is_empty())
                        .map_or(i, |off| i + 1 + off)
                } else {
                    i
                };
                allows.entry(target).or_default().push(rule);
            }
        }
    }
    for (name, start) in stack {
        diags.push((start, format!("region `{name}` is never closed (missing `end-region`)")));
    }
    Markers { regions, allows, diags }
}

// ---------------------------------------------------------------------
// Token helpers
// ---------------------------------------------------------------------

fn is_ident_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Finds `pat` in `code` with identifier boundaries on whichever ends
/// of the pattern are identifier characters (so `println!` does not
/// match inside `eprintln!`).
fn find_token(code: &str, pat: &str) -> Option<usize> {
    let first_is_ident = pat.chars().next().is_some_and(is_ident_char);
    let last_is_ident = pat.chars().next_back().is_some_and(is_ident_char);
    let mut from = 0;
    while let Some(off) = code[from..].find(pat) {
        let start = from + off;
        let end = start + pat.len();
        let ok_before =
            !first_is_ident || !code[..start].chars().next_back().is_some_and(is_ident_char);
        let ok_after = !last_is_ident || !code[end..].chars().next().is_some_and(is_ident_char);
        if ok_before && ok_after {
            return Some(start);
        }
        from = start + 1;
    }
    None
}

fn has_token(code: &str, pat: &str) -> bool {
    find_token(code, pat).is_some()
}

/// The identifier ending exactly at `text`'s end (empty if none).
fn trailing_ident(text: &str) -> &str {
    let start = text
        .char_indices()
        .rev()
        .take_while(|(_, c)| is_ident_char(*c))
        .last()
        .map_or(text.len(), |(i, _)| i);
    &text[start..]
}

// ---------------------------------------------------------------------
// Rules 1–4
// ---------------------------------------------------------------------

/// Iteration methods whose order is the hash order of the container.
const HASH_ITER_METHODS: &[&str] = &[
    ".iter()",
    ".iter_mut()",
    ".keys()",
    ".values()",
    ".values_mut()",
    ".into_iter()",
    ".into_keys()",
    ".into_values()",
    ".drain(",
    ".retain(",
];

/// Identifiers declared with a `HashMap`/`HashSet` type in this file
/// (fields, lets, params — a deliberately file-local approximation).
fn hash_container_idents(lines: &[Line]) -> Vec<String> {
    let mut idents = Vec::new();
    let mut track = |name: &str| {
        if !name.is_empty() && !idents.iter().any(|n| n == name) {
            idents.push(name.to_owned());
        }
    };
    for line in lines {
        let code = &line.code;
        for ty in ["HashMap", "HashSet"] {
            let Some(pos) = find_token(code, ty) else { continue };
            // `name: HashMap<...>` (field, param, typed let), with an
            // optional `std::collections::`-style path prefix.
            let mut before = code[..pos].trim_end();
            while let Some(stripped) = before.strip_suffix("::") {
                let segment = trailing_ident(stripped);
                before = stripped[..stripped.len() - segment.len()].trim_end();
            }
            if let Some(before) = before.strip_suffix(':') {
                track(trailing_ident(before.trim_end()));
            }
            // `let [mut] name = ...HashMap...` (any constructor form).
            if let Some(let_pos) = find_token(code, "let") {
                if let_pos < pos {
                    let after_let = code[let_pos + 3..].trim_start();
                    let after_let = after_let.strip_prefix("mut ").unwrap_or(after_let);
                    let name =
                        after_let.chars().take_while(|c| is_ident_char(*c)).collect::<String>();
                    if code[let_pos..pos].contains('=') {
                        track(&name);
                    }
                }
            }
        }
    }
    idents
}

fn check_nondet_iteration(lines: &[Line], out: &mut Vec<(usize, String)>) {
    let tracked = hash_container_idents(lines);
    if tracked.is_empty() {
        return;
    }
    let flag = |out: &mut Vec<(usize, String)>, i: usize, name: &str, how: &str| {
        out.push((
            i,
            format!(
                "`{name}` is a HashMap/HashSet and this crate's output reaches \
                 CSV/JSON/cache files; {how} iterates in nondeterministic hash order \
                 (use BTreeMap/BTreeSet, or collect and sort first)"
            ),
        ));
    };
    for (i, line) in lines.iter().enumerate() {
        let code = &line.code;
        for method in HASH_ITER_METHODS {
            let mut from = 0;
            while let Some(off) = code[from..].find(method) {
                let pos = from + off;
                let receiver = trailing_ident(&code[..pos]);
                if tracked.iter().any(|t| t == receiver) {
                    flag(out, i, receiver, &format!("`{receiver}{method}..`"));
                }
                from = pos + method.len();
            }
        }
        // `for x in [&[mut]] path.to.tracked {`
        let trimmed = code.trim_start();
        if let Some(rest) = trimmed.strip_prefix("for ") {
            if let Some((_, expr)) = rest.split_once(" in ") {
                let expr = expr.trim().trim_end_matches('{').trim_end();
                let expr = expr.trim_start_matches('&');
                let expr = expr.strip_prefix("mut ").unwrap_or(expr).trim();
                let last = trailing_ident(expr);
                if !last.is_empty() && tracked.iter().any(|t| t == last) {
                    flag(out, i, last, &format!("`for .. in {expr}`"));
                }
            }
        }
    }
}

fn check_wall_clock(lines: &[Line], out: &mut Vec<(usize, String)>) {
    for (i, line) in lines.iter().enumerate() {
        for pat in ["Instant::now", "SystemTime"] {
            if has_token(&line.code, pat) {
                out.push((
                    i,
                    format!(
                        "`{pat}` outside `telemetry`/`bench`: simulation results must be \
                         a pure function of the spec (route timing through therm3d_telemetry, \
                         or suppress with a reason if this is cost accounting)"
                    ),
                ));
            }
        }
    }
}

/// Tokens that allocate (or clone, which usually allocates) — banned
/// inside `region(alloc-free: …)` markers.
const ALLOC_TOKENS: &[&str] = &[
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

fn check_alloc_free(lines: &[Line], regions: &[Region], out: &mut Vec<(usize, String)>) {
    for region in regions.iter().filter(|r| r.kind() == "alloc-free") {
        let end = region.end.min(lines.len());
        for (i, line) in lines.iter().enumerate().take(end).skip(region.start) {
            for pat in ALLOC_TOKENS {
                if has_token(&line.code, pat) {
                    out.push((
                        i,
                        format!(
                            "`{pat}` allocates inside alloc-free region `{}` \
                             (reuse a pre-allocated buffer instead)",
                            region.name
                        ),
                    ));
                }
            }
        }
    }
}

fn check_thread_spawn(lines: &[Line], out: &mut Vec<(usize, String)>) {
    for (i, line) in lines.iter().enumerate() {
        for pat in ["thread::spawn", "thread::scope", "thread::Builder"] {
            if has_token(&line.code, pat) {
                out.push((
                    i,
                    format!(
                        "`{pat}` outside the sweep runner: all cell-level parallelism \
                         belongs to `crates/sweep/src/runner.rs`, so thread count can \
                         never change simulation output or bypass run-scoped factor \
                         sharing (route work through the runner, or suppress with a \
                         reason for an opt-in pool that never runs inside sweep cells)"
                    ),
                ));
            }
        }
    }
}

fn check_stdout_hygiene(lines: &[Line], out: &mut Vec<(usize, String)>) {
    for (i, line) in lines.iter().enumerate() {
        for pat in ["println!", "print!"] {
            if has_token(&line.code, pat) {
                out.push((
                    i,
                    format!(
                        "`{pat}` in a library crate: stdout byte-identity is CI-guarded, \
                         diagnostics belong on stderr (`eprintln!`) or a sidecar file"
                    ),
                ));
            }
        }
    }
}

// ---------------------------------------------------------------------
// Per-file engine
// ---------------------------------------------------------------------

/// Lints one file's source. `crate_name` decides rule scope (the
/// directory under `crates/`); `file` labels the diagnostics.
#[must_use]
pub fn lint_source(crate_name: &str, file: &str, source: &str) -> Vec<Diagnostic> {
    let lines = strip(source);
    let markers = analyze_markers(&lines);

    let mut raw: Vec<(usize, &str, String)> = Vec::new();
    let mut findings: Vec<(usize, String)> = Vec::new();
    if OUTPUT_REACHING_CRATES.contains(&crate_name) {
        check_nondet_iteration(&lines, &mut findings);
        raw.extend(findings.drain(..).map(|(i, m)| (i, RULE_NONDET_ITER, m)));
    }
    if !WALL_CLOCK_CRATES.contains(&crate_name) {
        check_wall_clock(&lines, &mut findings);
        raw.extend(findings.drain(..).map(|(i, m)| (i, RULE_WALL_CLOCK, m)));
    }
    check_alloc_free(&lines, &markers.regions, &mut findings);
    raw.extend(findings.drain(..).map(|(i, m)| (i, RULE_ALLOC_FREE, m)));
    if !STDOUT_CRATES.contains(&crate_name) {
        check_stdout_hygiene(&lines, &mut findings);
        raw.extend(findings.drain(..).map(|(i, m)| (i, RULE_STDOUT, m)));
    }
    if !THREAD_SPAWN_FILES.contains(&file) {
        check_thread_spawn(&lines, &mut findings);
        raw.extend(findings.drain(..).map(|(i, m)| (i, RULE_THREAD_SPAWN, m)));
    }

    let mut diags: Vec<Diagnostic> = markers
        .diags
        .into_iter()
        .map(|(i, message)| Diagnostic {
            file: file.to_owned(),
            line: i + 1,
            rule: RULE_DIRECTIVE.to_owned(),
            message,
        })
        .collect();
    for (i, rule, message) in raw {
        let allowed = markers.allows.get(&i).is_some_and(|rules| rules.iter().any(|r| r == rule));
        if !allowed {
            diags.push(Diagnostic {
                file: file.to_owned(),
                line: i + 1,
                rule: rule.to_owned(),
                message,
            });
        }
    }
    diags.sort();
    diags
}

// ---------------------------------------------------------------------
// Rule 5: fingerprint drift (cache salt, wire protocol, ...)
// ---------------------------------------------------------------------

/// The file the cache-descriptor fingerprint target covers.
pub const CACHE_FILE: &str = "crates/sweep/src/cache.rs";
/// The cache target's region name (whitespace-stripped).
pub const DESCRIPTOR_REGION: &str = "fingerprint:cell-descriptor";
/// The file the wire-protocol fingerprint target covers.
pub const WIRE_FILE: &str = "crates/coord/src/wire.rs";
/// The wire target's region name (whitespace-stripped).
pub const WIRE_REGION: &str = "fingerprint:wire-protocol";

/// One versioned on-disk/on-wire format the drift rule guards: a
/// `// lint: region(fingerprint: …)` block whose source text, salted
/// with a version-string constant, must hash to a recorded fingerprint
/// constant. Editing the region without bumping the version fails the
/// lint — the generalization of the original cache-salt rule, so every
/// new serialized format gets the same protection by adding a row to
/// [`FINGERPRINT_TARGETS`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FingerprintTarget {
    /// Workspace-relative file the target lives in.
    pub file: &'static str,
    /// Region name as written in the marker, whitespace-stripped.
    pub region: &'static str,
    /// Identifier of the `&str` version constant (the salt).
    pub salt_ident: &'static str,
    /// Identifier of the `u64` recorded-fingerprint constant.
    pub fp_ident: &'static str,
    /// What the region serializes, for diagnostics.
    pub what: &'static str,
    /// Why unsalted drift is dangerous, for diagnostics.
    pub consequence: &'static str,
}

/// Every fingerprinted format in the workspace. Each row is checked on
/// every [`lint_workspace`] run, and a missing file is a diagnostic —
/// a target can move but never silently vanish.
pub const FINGERPRINT_TARGETS: &[FingerprintTarget] = &[
    FingerprintTarget {
        file: CACHE_FILE,
        region: DESCRIPTOR_REGION,
        salt_ident: "ENGINE_VERSION",
        fp_ident: "DESCRIPTOR_FINGERPRINT",
        what: "the cell-descriptor serialization",
        consequence: "Old cache entries would be served for new semantics",
    },
    FingerprintTarget {
        file: WIRE_FILE,
        region: WIRE_REGION,
        salt_ident: "PROTOCOL_VERSION",
        fp_ident: "WIRE_FINGERPRINT",
        what: "the coordinator wire protocol",
        consequence: "Mixed-version coordinators and workers would mis-parse each other's frames",
    },
];

/// What [`fingerprint_status`] extracted from a target's source.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SaltStatus {
    /// The version-constant string literal (the salt).
    pub salt: String,
    /// FNV-64 of salt + the fingerprinted region's source text.
    pub actual: u64,
    /// The checked-in fingerprint-constant value.
    pub recorded: u64,
    /// 1-indexed line the fingerprinted region starts on.
    pub region_line: usize,
}

/// Hashes `target`'s fingerprinted region in `source` and extracts the
/// checked-in expectation.
///
/// # Errors
///
/// Returns a message when the region markers, the salt constant or the
/// fingerprint constant cannot be found or parsed.
pub fn fingerprint_status(target: &FingerprintTarget, source: &str) -> Result<SaltStatus, String> {
    let lines = strip(source);
    let markers = analyze_markers(&lines);
    let region = markers
        .regions
        .iter()
        .find(|r| r.name == target.region)
        .ok_or_else(|| format!("no `lint: region({})` marker found", target.region))?;
    let raw: Vec<&str> = source.lines().collect();

    let salt_ident = target.salt_ident;
    let salt_line = lines
        .iter()
        .position(|l| has_token(&l.code, salt_ident) && l.code.contains("&str"))
        .ok_or_else(|| format!("no `{salt_ident}: &str` declaration found"))?;
    let salt_raw = raw[salt_line];
    let first =
        salt_raw.find('"').ok_or_else(|| format!("{salt_ident} value is not on its own line"))?;
    let last = salt_raw
        .rfind('"')
        .filter(|l| *l > first)
        .ok_or_else(|| format!("unterminated {salt_ident}"))?;
    let salt = salt_raw[first + 1..last].to_owned();

    let fp_ident = target.fp_ident;
    let fp_line = lines
        .iter()
        .position(|l| has_token(&l.code, fp_ident) && l.code.contains("u64"))
        .ok_or_else(|| {
            format!("no `{fp_ident}: u64` declaration found (add it next to {salt_ident})")
        })?;
    let fp_raw = raw[fp_line];
    let hex_start =
        fp_raw.find("0x").ok_or_else(|| format!("{fp_ident} must be a `0x...` literal"))?;
    let hex: String = fp_raw[hex_start + 2..]
        .chars()
        .take_while(|c| c.is_ascii_hexdigit() || *c == '_')
        .filter(|c| *c != '_')
        .collect();
    let recorded = u64::from_str_radix(&hex, 16)
        .map_err(|e| format!("cannot parse {fp_ident} hex `{hex}`: {e}"))?;

    let mut input = String::new();
    input.push_str(&salt);
    for line in &raw[region.start..region.end.min(raw.len())] {
        input.push('\n');
        input.push_str(line.trim_end());
    }
    Ok(SaltStatus {
        salt,
        actual: fnv1a64(input.as_bytes()),
        recorded,
        region_line: region.start + 1,
    })
}

/// [`fingerprint_status`] for the cache-descriptor target (the original
/// rule 5; kept as the stable entry point for the fixture corpus and
/// the live-coupling tests).
///
/// # Errors
///
/// As [`fingerprint_status`].
pub fn cache_salt_status(source: &str) -> Result<SaltStatus, String> {
    fingerprint_status(&FINGERPRINT_TARGETS[0], source)
}

/// Runs the drift rule for one fingerprint target over its source.
#[must_use]
pub fn check_fingerprint(target: &FingerprintTarget, file: &str, source: &str) -> Vec<Diagnostic> {
    match fingerprint_status(target, source) {
        Err(message) => vec![Diagnostic {
            file: file.to_owned(),
            line: 1,
            rule: RULE_SALT_DRIFT.to_owned(),
            message,
        }],
        Ok(status) if status.actual != status.recorded => {
            // Honor a reasoned allow targeting the region's first line,
            // like every other rule (e.g. for a staged two-PR migration).
            let lines = strip(source);
            let markers = analyze_markers(&lines);
            let allowed = markers
                .allows
                .get(&(status.region_line - 1))
                .is_some_and(|rules| rules.iter().any(|r| r == RULE_SALT_DRIFT));
            if allowed {
                return Vec::new();
            }
            vec![Diagnostic {
                file: file.to_owned(),
                line: status.region_line,
                rule: RULE_SALT_DRIFT.to_owned(),
                message: format!(
                    "{} changed: fingerprint {:#018x} != recorded {} {:#018x}. {} — bump {} \
                     (currently `{}`) and set {} to the new fingerprint",
                    target.what,
                    status.actual,
                    target.fp_ident,
                    status.recorded,
                    target.consequence,
                    target.salt_ident,
                    status.salt,
                    target.fp_ident
                ),
            }]
        }
        Ok(_) => Vec::new(),
    }
}

/// Runs the drift rule over `cache.rs` source text (the
/// cache-descriptor target of [`FINGERPRINT_TARGETS`]).
#[must_use]
pub fn check_cache_salt(file: &str, source: &str) -> Vec<Diagnostic> {
    check_fingerprint(&FINGERPRINT_TARGETS[0], file, source)
}

// ---------------------------------------------------------------------
// Workspace walk
// ---------------------------------------------------------------------

/// Everything one `lint_workspace` pass produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkspaceReport {
    /// All findings, sorted by (file, line, rule).
    pub diagnostics: Vec<Diagnostic>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
}

fn rust_files_under(dir: &Path, out: &mut Vec<std::path::PathBuf>) -> Result<(), String> {
    let mut entries: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| format!("cannot read `{}`: {e}", dir.display()))?
        .collect::<Result<_, _>>()
        .map_err(|e| format!("cannot read `{}`: {e}", dir.display()))?;
    entries.sort_by_key(std::fs::DirEntry::file_name);
    for entry in entries {
        let path = entry.path();
        if path.is_dir() {
            rust_files_under(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Lints every `crates/*/src/**/*.rs` file under `root` (the workspace
/// root) and runs the fingerprint-drift check over every
/// [`FINGERPRINT_TARGETS`] row.
///
/// Library sources only: `tests/`, `examples/` and `benches/` trees are
/// not shipped simulation code and stay out of scope.
///
/// # Errors
///
/// Returns a message when `root` has no `crates` directory or a source
/// file cannot be read.
pub fn lint_workspace(root: &Path) -> Result<WorkspaceReport, String> {
    let crates_dir = root.join("crates");
    if !crates_dir.is_dir() {
        return Err(format!(
            "`{}` has no crates/ directory (run from the workspace root or pass --root)",
            root.display()
        ));
    }
    let mut crate_dirs: Vec<_> = std::fs::read_dir(&crates_dir)
        .map_err(|e| format!("cannot read `{}`: {e}", crates_dir.display()))?
        .collect::<Result<_, _>>()
        .map_err(|e| format!("cannot read `{}`: {e}", crates_dir.display()))?;
    crate_dirs.sort_by_key(std::fs::DirEntry::file_name);

    let mut diagnostics = Vec::new();
    let mut files_scanned = 0;
    for dir in crate_dirs {
        let crate_name = dir.file_name().to_string_lossy().into_owned();
        let src = dir.path().join("src");
        if !src.is_dir() {
            continue;
        }
        let mut files = Vec::new();
        rust_files_under(&src, &mut files)?;
        for path in files {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .components()
                .map(|c| c.as_os_str().to_string_lossy())
                .collect::<Vec<_>>()
                .join("/");
            let source = std::fs::read_to_string(&path)
                .map_err(|e| format!("cannot read `{}`: {e}", path.display()))?;
            diagnostics.extend(lint_source(&crate_name, &rel, &source));
            for target in FINGERPRINT_TARGETS {
                if rel == target.file {
                    diagnostics.extend(check_fingerprint(target, &rel, &source));
                }
            }
            files_scanned += 1;
        }
    }
    // A fingerprint check must not silently vanish with its file.
    for target in FINGERPRINT_TARGETS {
        if !root.join(target.file).is_file() {
            diagnostics.push(Diagnostic {
                file: target.file.to_owned(),
                line: 1,
                rule: RULE_SALT_DRIFT.to_owned(),
                message: format!(
                    "expected fingerprinted file is missing; move the `{}` region and update \
                     therm3d_lint::FINGERPRINT_TARGETS",
                    target.region
                ),
            });
        }
    }
    diagnostics.sort();
    Ok(WorkspaceReport { diagnostics, files_scanned })
}

// ---------------------------------------------------------------------
// JSON report
// ---------------------------------------------------------------------

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Renders a deterministic JSON report (the CI artifact).
#[must_use]
pub fn report_json(report: &WorkspaceReport) -> String {
    let mut out = String::from("{\n  \"diagnostics\": [");
    for (i, d) in report.diagnostics.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{\"file\": \"{}\", \"line\": {}, \"rule\": \"{}\", \"message\": \"{}\"}}",
            json_escape(&d.file),
            d.line,
            json_escape(&d.rule),
            json_escape(&d.message)
        ));
    }
    if !report.diagnostics.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str(&format!(
        "],\n  \"total\": {},\n  \"files_scanned\": {}\n}}\n",
        report.diagnostics.len(),
        report.files_scanned
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lexer_strips_comments_and_literals_but_keeps_lines() {
        let src = "let a = 1; // trailing\nlet s = \"HashMap.iter()\";\n/* block\nstill */ let b = 2;\nlet c = 'x';\nlet l: &'static str = r#\"raw \"quote\" here\"#;";
        let lines = strip(src);
        assert_eq!(lines.len(), 6);
        assert_eq!(lines[0].code.trim_end(), "let a = 1;");
        assert_eq!(lines[0].comment.as_deref(), Some("trailing"));
        assert!(!lines[1].code.contains("HashMap"), "{:?}", lines[1]);
        assert!(lines[2].code.trim().is_empty());
        assert_eq!(lines[3].code.trim(), "let b = 2;");
        assert!(!lines[4].code.contains('x'));
        assert!(lines[5].code.contains("&'static str"), "{:?}", lines[5]);
        assert!(!lines[5].code.contains("quote"), "{:?}", lines[5]);
    }

    #[test]
    fn lexer_handles_escaped_quotes_and_char_edge_cases() {
        let lines = strip("let q = '\\''; let s = \"a\\\"b\"; let t = \"end\"; done();");
        assert!(lines[0].code.contains("done()"), "{:?}", lines[0]);
        assert!(!lines[0].code.contains('a'), "{:?}", lines[0]);
        // Multi-line strings carry state across lines.
        let lines = strip("let s = \"line one\nprintln!(still a string)\nend\"; code();");
        assert!(lines[1].code.trim().is_empty(), "{:?}", lines[1]);
        assert!(lines[2].code.contains("code()"), "{:?}", lines[2]);
    }

    #[test]
    fn directive_parsing_covers_all_forms() {
        assert_eq!(parse_directive("ordinary comment"), None);
        assert_eq!(
            parse_directive("lint: allow(no-wall-clock): cost accounting"),
            Some(Ok(Directive::Allow {
                rule: "no-wall-clock".into(),
                reason: Some("cost accounting".into())
            }))
        );
        assert_eq!(
            parse_directive("lint: allow(no-wall-clock)"),
            Some(Ok(Directive::Allow { rule: "no-wall-clock".into(), reason: None }))
        );
        assert_eq!(
            parse_directive("lint: region(alloc-free: engine-tick)"),
            Some(Ok(Directive::Region { name: "alloc-free:engine-tick".into() }))
        );
        assert_eq!(parse_directive("lint: end-region"), Some(Ok(Directive::EndRegion)));
        assert!(matches!(parse_directive("lint: frobnicate"), Some(Err(_))));
        assert!(matches!(parse_directive("lint: allow(broken"), Some(Err(_))));
    }

    #[test]
    fn find_token_respects_identifier_boundaries() {
        assert!(has_token("println!(x)", "println!"));
        assert!(!has_token("eprintln!(x)", "println!"));
        assert!(has_token("let t = Instant::now();", "Instant::now"));
        assert!(!has_token("MyInstant::nowhere()", "Instant::now"));
    }

    #[test]
    fn json_report_is_valid_and_escaped() {
        let report = WorkspaceReport {
            diagnostics: vec![Diagnostic {
                file: "crates/x/src/lib.rs".into(),
                line: 3,
                rule: RULE_STDOUT.into(),
                message: "say \"no\"".into(),
            }],
            files_scanned: 7,
        };
        let json = report_json(&report);
        assert!(json.contains("\"say \\\"no\\\"\""), "{json}");
        assert!(json.contains("\"total\": 1"), "{json}");
        assert!(json.contains("\"files_scanned\": 7"), "{json}");
        let empty = report_json(&WorkspaceReport { diagnostics: vec![], files_scanned: 0 });
        assert!(empty.contains("\"diagnostics\": []"), "{empty}");
    }
}
