//! TOML (de)serialization for [`SweepSpec`] — a hand-rolled subset
//! parser, since the offline dependency set has no `toml` crate.
//!
//! Supported syntax: `# comments`, one optional `[sweep]` section
//! header, and `key = value` lines where the value is a string, number,
//! boolean, or a single-line array of those. Every spec produced by
//! [`to_toml`] parses back to an equal spec (round-trip property).
//!
//! # Spec file reference
//!
//! ```toml
//! [sweep]                      # optional section header
//! name = "quick"
//! experiments = ["exp1", "exp3"]           # exp1..exp4
//! stack_orders = ["cores-far", "cores-near"]  # split-config orientation
//! tsv = ["paper", "dense-1pct"]            # TSV/interlayer variants
//! sensors = ["ideal", "noisy-1c"]          # sensor-fidelity profiles
//! integrators = ["implicit-cn"]            # or explicit-rk4 (golden reference)
//! policies = ["Default", "Adapt3D"]        # figure labels
//! dpm = [false, true]
//! benchmarks = ["web-med", "gzip"]         # Table I names
//! seeds = [2009, 2010]
//! sim_seconds = 20.0
//! grid = [4, 4]                # or a single integer for square grids
//! policy_seed = 44257
//! threads = 0                  # 0 = one per CPU
//! shard = "0/1"                # run shard K of N ("0/1" = full matrix)
//! ```
//!
//! Omitted keys keep the [`SweepSpec::new`] defaults. Note that when
//! `sim_seconds` is omitted, [`from_toml`] honours the
//! `THERM3D_SIM_SECONDS` environment variable (falling back to 240 s;
//! a malformed value is a parse error, never a silent fallback), so a
//! spec that pins its duration should set `sim_seconds` explicitly.

use std::str::FromStr;

use therm3d::SensorProfile;
use therm3d_floorplan::{Experiment, StackOrder};
use therm3d_policies::PolicyKind;
use therm3d_thermal::{Integrator, TsvVariant};
use therm3d_workload::Benchmark;

use crate::shard::ShardSpec;
use crate::spec::SweepSpec;

/// One parsed scalar. Non-negative integers keep their exact `u64`
/// value (a float detour would corrupt trace seeds above 2^53).
#[derive(Debug, Clone, PartialEq)]
enum Scalar {
    Str(String),
    Int(u64),
    Num(f64),
    Bool(bool),
}

impl Scalar {
    fn type_name(&self) -> &'static str {
        match self {
            Scalar::Str(_) => "string",
            Scalar::Int(_) => "integer",
            Scalar::Num(_) => "number",
            Scalar::Bool(_) => "boolean",
        }
    }
}

/// A value: scalar or single-line array of scalars.
#[derive(Debug, Clone, PartialEq)]
enum Value {
    Scalar(Scalar),
    Array(Vec<Scalar>),
}

fn parse_scalar(raw: &str, line_no: usize) -> Result<Scalar, String> {
    let raw = raw.trim();
    if let Some(stripped) = raw.strip_prefix('"') {
        let Some(inner) = stripped.strip_suffix('"') else {
            return Err(format!("line {line_no}: unterminated string {raw}"));
        };
        if inner.contains('"') {
            return Err(format!("line {line_no}: escaped quotes are not supported: {raw}"));
        }
        return Ok(Scalar::Str(inner.to_owned()));
    }
    match raw {
        "true" => return Ok(Scalar::Bool(true)),
        "false" => return Ok(Scalar::Bool(false)),
        _ => {}
    }
    if let Ok(n) = raw.parse::<u64>() {
        return Ok(Scalar::Int(n));
    }
    raw.parse::<f64>()
        .map(Scalar::Num)
        .map_err(|_| format!("line {line_no}: cannot parse value `{raw}`"))
}

fn parse_value(raw: &str, line_no: usize) -> Result<Value, String> {
    let raw = raw.trim();
    if let Some(stripped) = raw.strip_prefix('[') {
        let Some(inner) = stripped.strip_suffix(']') else {
            return Err(format!("line {line_no}: arrays must open and close on one line: `{raw}`"));
        };
        let inner = inner.trim();
        if inner.is_empty() {
            return Ok(Value::Array(Vec::new()));
        }
        let items = inner
            .split(',')
            .map(|item| parse_scalar(item, line_no))
            .collect::<Result<Vec<_>, _>>()?;
        return Ok(Value::Array(items));
    }
    parse_scalar(raw, line_no).map(Value::Scalar)
}

/// Strips a `#` comment, respecting `"` quoting.
fn strip_comment(line: &str) -> &str {
    let mut in_string = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_string = !in_string,
            '#' if !in_string => return &line[..i],
            _ => {}
        }
    }
    line
}

fn typed<T: FromStr>(s: &Scalar, key: &str) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    let Scalar::Str(s) = s else {
        return Err(format!("`{key}` expects strings, got a {}", s.type_name()));
    };
    s.parse().map_err(|e| format!("`{key}`: {e}"))
}

fn numeric(s: &Scalar, key: &str) -> Result<f64, String> {
    match s {
        Scalar::Num(n) => Ok(*n),
        Scalar::Int(n) => Ok(*n as f64),
        other => Err(format!("`{key}` expects numbers, got a {}", other.type_name())),
    }
}

fn integer(s: &Scalar, key: &str) -> Result<u64, String> {
    match s {
        Scalar::Int(n) => Ok(*n),
        // Negative, fractional and > 2^64−1 values all land here (they
        // parse as floats); name the value so "out of range" is
        // distinguishable from a type mismatch.
        Scalar::Num(n) => Err(format!(
            "`{key}` expects integers in 0..=18446744073709551615, got {n} \
             (out of range or not an integer)"
        )),
        other => Err(format!(
            "`{key}` expects non-negative integers that fit in 64 bits, got a {}",
            other.type_name()
        )),
    }
}

fn scalar_list(value: &Value) -> Vec<Scalar> {
    match value {
        Value::Scalar(s) => vec![s.clone()],
        Value::Array(items) => items.clone(),
    }
}

/// Parses a sweep spec from TOML text.
///
/// Unknown keys are rejected (typos must not silently drop an axis).
/// Omitted keys keep the [`SweepSpec::new`] defaults.
///
/// # Errors
///
/// Returns a message with the offending line or key on malformed
/// syntax, unknown keys/sections, type mismatches, or a spec that fails
/// [`SweepSpec::validate`].
pub fn from_toml(text: &str) -> Result<SweepSpec, String> {
    let mut spec = SweepSpec::new("sweep");
    let mut seen: Vec<String> = Vec::new();
    let mut seen_section = false;
    for (i, raw_line) in text.lines().enumerate() {
        let line_no = i + 1;
        let line = strip_comment(raw_line).trim();
        if line.is_empty() {
            continue;
        }
        if let Some(section) = line.strip_prefix('[') {
            let section = section.strip_suffix(']').map(str::trim);
            match section {
                // Real TOML rejects a repeated table header; a second
                // `[sweep]` is a sign of a careless concatenation.
                Some("sweep") if seen_section => {
                    return Err(format!("line {line_no}: duplicate `[sweep]` section"));
                }
                Some("sweep") => {
                    seen_section = true;
                    continue;
                }
                Some(other) => return Err(format!("line {line_no}: unknown section `[{other}]`")),
                None => return Err(format!("line {line_no}: malformed section `{line}`")),
            }
        }
        let Some((key, raw_value)) = line.split_once('=') else {
            return Err(format!("line {line_no}: expected `key = value`, got `{line}`"));
        };
        let key = key.trim();
        // `sensor` is accepted as an alias for `sensors` (and likewise
        // for the singular of the other scenario axes); canonicalize
        // before the duplicate check so an alias cannot smuggle a
        // second value past it.
        let key = match key {
            "sensor" => "sensors",
            "stack_order" => "stack_orders",
            other => other,
        };
        // Real TOML rejects duplicate keys; silently letting the last
        // one win would drop an axis the user believes is in effect.
        if seen.iter().any(|k| k == key) {
            return Err(format!("line {line_no}: duplicate key `{key}`"));
        }
        seen.push(key.to_owned());
        let value = parse_value(raw_value, line_no)?;
        apply_key(&mut spec, key, &value).map_err(|e| format!("line {line_no}: {e}"))?;
    }
    // A spec that omits its duration honours THERM3D_SIM_SECONDS; a
    // malformed value must fail the parse (a silent fallback would
    // simulate — and cache — a different duration than requested).
    if !seen.iter().any(|k| k == "sim_seconds") {
        spec.sim_seconds = crate::spec::sim_seconds_from_env(crate::spec::DEFAULT_SIM_SECONDS)?;
    }
    spec.validate()?;
    Ok(spec)
}

fn apply_key(spec: &mut SweepSpec, key: &str, value: &Value) -> Result<(), String> {
    match key {
        "name" => match value {
            Value::Scalar(Scalar::Str(s)) => spec.name.clone_from(s),
            other => return Err(format!("`name` expects a string, got {other:?}")),
        },
        "experiments" => {
            spec.experiments = scalar_list(value)
                .iter()
                .map(|s| typed::<Experiment>(s, key))
                .collect::<Result<_, _>>()?;
        }
        "stack_orders" => {
            spec.stack_orders = scalar_list(value)
                .iter()
                .map(|s| typed::<StackOrder>(s, key))
                .collect::<Result<_, _>>()?;
        }
        "tsv" => {
            spec.tsv = scalar_list(value)
                .iter()
                .map(|s| typed::<TsvVariant>(s, key))
                .collect::<Result<_, _>>()?;
        }
        "sensors" => {
            spec.sensors = scalar_list(value)
                .iter()
                .map(|s| typed::<SensorProfile>(s, key))
                .collect::<Result<_, _>>()?;
        }
        "integrators" => {
            spec.integrators = scalar_list(value)
                .iter()
                .map(|s| typed::<Integrator>(s, key))
                .collect::<Result<_, _>>()?;
        }
        "policies" => {
            spec.policies = scalar_list(value)
                .iter()
                .map(|s| typed::<PolicyKind>(s, key))
                .collect::<Result<_, _>>()?;
        }
        "benchmarks" => {
            spec.benchmarks = scalar_list(value)
                .iter()
                .map(|s| typed::<Benchmark>(s, key))
                .collect::<Result<_, _>>()?;
        }
        "dpm" => {
            spec.dpm = scalar_list(value)
                .iter()
                .map(|s| match s {
                    Scalar::Bool(b) => Ok(*b),
                    other => Err(format!("`dpm` expects booleans, got a {}", other.type_name())),
                })
                .collect::<Result<_, _>>()?;
        }
        "seeds" => {
            spec.seeds =
                scalar_list(value).iter().map(|s| integer(s, key)).collect::<Result<_, _>>()?;
        }
        "sim_seconds" => match value {
            Value::Scalar(s) => spec.sim_seconds = numeric(s, key)?,
            Value::Array(_) => return Err("`sim_seconds` expects one number".into()),
        },
        "grid" => match value {
            Value::Scalar(s) => {
                let n = integer(s, key)? as usize;
                spec.grid = (n, n);
            }
            Value::Array(items) => {
                let dims = items
                    .iter()
                    .map(|s| integer(s, key).map(|n| n as usize))
                    .collect::<Result<Vec<_>, _>>()?;
                let [rows, cols] = dims[..] else {
                    return Err(format!("`grid` expects [rows, cols], got {} items", dims.len()));
                };
                spec.grid = (rows, cols);
            }
        },
        "policy_seed" => match value {
            Value::Scalar(s) => {
                let n = integer(s, key)?;
                spec.policy_seed = u16::try_from(n)
                    .map_err(|_| format!("`policy_seed` must fit in 16 bits, got {n}"))?;
            }
            Value::Array(_) => return Err("`policy_seed` expects one integer".into()),
        },
        "threads" => match value {
            Value::Scalar(s) => spec.threads = integer(s, key)? as usize,
            Value::Array(_) => return Err("`threads` expects one integer".into()),
        },
        "shard" => match value {
            Value::Scalar(s) => spec.shard = typed::<ShardSpec>(s, key)?,
            Value::Array(_) => return Err("`shard` expects one \"K/N\" string".into()),
        },
        other => return Err(format!("unknown key `{other}`")),
    }
    Ok(())
}

/// Serializes a spec to canonical TOML (parses back to an equal spec).
#[must_use]
pub fn to_toml(spec: &SweepSpec) -> String {
    use std::fmt::Write as _;
    fn string_array<T, F: Fn(&T) -> String>(items: &[T], f: F) -> String {
        let quoted: Vec<String> = items.iter().map(|x| format!("\"{}\"", f(x))).collect();
        format!("[{}]", quoted.join(", "))
    }
    let mut out = String::new();
    let _ = writeln!(out, "[sweep]");
    let _ = writeln!(out, "name = \"{}\"", spec.name);
    let _ = writeln!(
        out,
        "experiments = {}",
        string_array(&spec.experiments, |e| e.to_string().to_ascii_lowercase())
    );
    let _ = writeln!(
        out,
        "stack_orders = {}",
        string_array(&spec.stack_orders, |o| o.name().to_owned())
    );
    let _ = writeln!(out, "tsv = {}", string_array(&spec.tsv, |v| v.name().to_owned()));
    let _ = writeln!(out, "sensors = {}", string_array(&spec.sensors, |s| s.name().to_owned()));
    let _ =
        writeln!(out, "integrators = {}", string_array(&spec.integrators, |i| i.name().to_owned()));
    let _ = writeln!(out, "policies = {}", string_array(&spec.policies, |p| p.label().to_owned()));
    let _ = writeln!(
        out,
        "dpm = [{}]",
        spec.dpm.iter().map(ToString::to_string).collect::<Vec<_>>().join(", ")
    );
    let _ =
        writeln!(out, "benchmarks = {}", string_array(&spec.benchmarks, |b| b.name().to_owned()));
    let _ = writeln!(
        out,
        "seeds = [{}]",
        spec.seeds.iter().map(ToString::to_string).collect::<Vec<_>>().join(", ")
    );
    let _ = writeln!(out, "sim_seconds = {:?}", spec.sim_seconds);
    let _ = writeln!(out, "grid = [{}, {}]", spec.grid.0, spec.grid.1);
    let _ = writeln!(out, "policy_seed = {}", spec.policy_seed);
    let _ = writeln!(out, "threads = {}", spec.threads);
    let _ = writeln!(out, "shard = \"{}\"", spec.shard);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_full_spec() {
        let spec = from_toml(
            r#"
            # a quick sweep
            [sweep]
            name = "quick"           # inline comment
            experiments = ["exp1", "exp3"]
            policies = ["Default", "CGate", "Adapt3D"]
            dpm = [false, true]
            benchmarks = ["gzip"]
            seeds = [2009, 2010]
            sim_seconds = 20.0
            grid = 4
            threads = 2
            "#,
        )
        .unwrap();
        assert_eq!(spec.name, "quick");
        assert_eq!(spec.experiments, vec![Experiment::Exp1, Experiment::Exp3]);
        assert_eq!(spec.policies.len(), 3);
        assert_eq!(spec.dpm, vec![false, true]);
        assert_eq!(spec.seeds, vec![2009, 2010]);
        assert_eq!(spec.grid, (4, 4));
        assert_eq!(spec.threads, 2);
        assert_eq!(spec.cell_count(), 2 * 3 * 2 * 2);
    }

    #[test]
    fn omitted_keys_keep_defaults() {
        let spec = from_toml("name = \"tiny\"\n").unwrap();
        assert_eq!(spec.policies.len(), 11);
        assert_eq!(spec.experiments.len(), 4);
        assert_eq!(spec.seeds, vec![crate::spec::DEFAULT_TRACE_SEED]);
        assert_eq!(spec.stack_orders, vec![StackOrder::CoresFarFromSink]);
        assert_eq!(spec.tsv, vec![TsvVariant::Paper]);
        assert_eq!(spec.sensors, vec![SensorProfile::Ideal]);
    }

    #[test]
    fn scenario_axes_parse_and_round_trip() {
        let spec = from_toml(
            r#"
            [sweep]
            name = "scenario"
            experiments = ["exp1"]
            stack_orders = ["cores-far", "cores-near"]
            tsv = ["paper", "dense-1pct", "epoxy"]
            sensors = ["ideal", "noisy-1c", "offset-cool-3c"]
            policies = ["Default"]
            sim_seconds = 5.0
            "#,
        )
        .unwrap();
        assert_eq!(spec.stack_orders, StackOrder::ALL.to_vec());
        assert_eq!(spec.tsv, vec![TsvVariant::Paper, TsvVariant::Dense1Pct, TsvVariant::Epoxy]);
        assert_eq!(
            spec.sensors,
            vec![SensorProfile::Ideal, SensorProfile::Noisy1C, SensorProfile::OffsetCool3C]
        );
        assert_eq!(spec.cell_count(), 2 * 3 * 3);
        let round = from_toml(&to_toml(&spec)).unwrap();
        assert_eq!(round, spec);
    }

    #[test]
    fn singular_scenario_aliases_are_accepted_and_duplicate_checked() {
        let spec = from_toml("sensor = [\"noisy-3c\"]\nstack_order = \"cores-near\"\n").unwrap();
        assert_eq!(spec.sensors, vec![SensorProfile::Noisy3C]);
        assert_eq!(spec.stack_orders, vec![StackOrder::CoresNearSink]);
        // The alias maps onto the canonical key, so mixing both forms
        // is a duplicate, not a silent overwrite.
        let err = from_toml("sensors = [\"ideal\"]\nsensor = [\"noisy-1c\"]\n").unwrap_err();
        assert!(err.contains("duplicate key `sensors`"), "{err}");
    }

    #[test]
    fn bad_scenario_values_are_errors() {
        let err = from_toml("tsv = [\"liquid-cooled\"]\n").unwrap_err();
        assert!(err.contains("liquid-cooled"), "{err}");
        let err = from_toml("sensors = [\"psychic\"]\n").unwrap_err();
        assert!(err.contains("psychic"), "{err}");
        let err = from_toml("stack_orders = [\"sideways\"]\n").unwrap_err();
        assert!(err.contains("sideways"), "{err}");
    }

    #[test]
    fn shard_key_parses_validates_and_round_trips() {
        let spec = from_toml("shard = \"1/3\"\nsim_seconds = 1.0\n").unwrap();
        assert_eq!(spec.shard, ShardSpec { index: 1, count: 3 });
        assert_eq!(from_toml(&to_toml(&spec)).unwrap(), spec);
        // Omitted means the full matrix.
        assert_eq!(from_toml("sim_seconds = 1.0\n").unwrap().shard, ShardSpec::FULL);
        // Out-of-range shards fail the parse with the range named, same
        // as the CLI flag — never an empty report.
        let err = from_toml("shard = \"3/3\"\n").unwrap_err();
        assert!(err.contains("0/3..=2/3"), "{err}");
        let err = from_toml("shard = \"0/0\"\n").unwrap_err();
        assert!(err.contains("at least 1"), "{err}");
        let err = from_toml("shard = \"whole\"\n").unwrap_err();
        assert!(err.contains("K/N"), "{err}");
        let err = from_toml("shard = 3\n").unwrap_err();
        assert!(err.contains("shard"), "{err}");
    }

    #[test]
    fn unknown_key_is_an_error() {
        let err = from_toml("polices = [\"Default\"]\n").unwrap_err();
        assert!(err.contains("unknown key"), "{err}");
        // Traces always stream, so `streaming` is not a key either.
        let err = from_toml("streaming = true\nsim_seconds = 1.0\n").unwrap_err();
        assert!(err.contains("unknown key `streaming`"), "{err}");
    }

    #[test]
    fn bad_policy_name_is_an_error() {
        let err = from_toml("policies = [\"NotAPolicy\"]\n").unwrap_err();
        assert!(err.contains("NotAPolicy"), "{err}");
    }

    #[test]
    fn type_mismatch_is_an_error() {
        let err = from_toml("dpm = [1, 0]\n").unwrap_err();
        assert!(err.contains("boolean"), "{err}");
        let err = from_toml("seeds = [\"abc\"]\n").unwrap_err();
        assert!(err.contains("seeds"), "{err}");
    }

    #[test]
    fn invalid_expanded_spec_is_an_error() {
        let err = from_toml("policies = []\n").unwrap_err();
        assert!(err.contains("policies"), "{err}");
    }

    #[test]
    fn comments_inside_strings_survive() {
        let spec = from_toml("name = \"a # not a comment\"\n").unwrap();
        assert_eq!(spec.name, "a # not a comment");
    }

    #[test]
    fn duplicate_keys_are_rejected() {
        let err = from_toml("policies = [\"Default\", \"CGate\"]\npolicies = [\"Adapt3D\"]\n")
            .unwrap_err();
        assert!(err.contains("duplicate key `policies`"), "{err}");
        assert!(err.contains("line 2"), "{err}");
    }

    #[test]
    fn duplicate_section_is_rejected() {
        let err = from_toml("[sweep]\nname = \"a\"\n[sweep]\nthreads = 2\n").unwrap_err();
        assert!(err.contains("duplicate `[sweep]` section"), "{err}");
        assert!(err.contains("line 3"), "{err}");
    }

    #[test]
    fn out_of_range_seeds_are_hard_errors() {
        // Negative: must not wrap to a huge unsigned seed.
        let err = from_toml("seeds = [-1]\n").unwrap_err();
        assert!(err.contains("seeds") && err.contains("-1"), "{err}");
        // Fractional: must not truncate.
        let err = from_toml("seeds = [1.5]\n").unwrap_err();
        assert!(err.contains("seeds") && err.contains("1.5"), "{err}");
        // policy_seed beyond 16 bits: must not wrap.
        let err = from_toml("policy_seed = 70000\n").unwrap_err();
        assert!(err.contains("policy_seed") && err.contains("70000"), "{err}");
    }

    #[test]
    fn canonical_toml_has_no_duplicate_keys() {
        // to_toml output must always satisfy the duplicate-key check it
        // is parsed back through (the round-trip guarantee's other half).
        let text = to_toml(&SweepSpec::new("dup-check").with_sim_seconds(1.0));
        let mut keys: Vec<&str> =
            text.lines().filter_map(|l| l.split_once('=').map(|(k, _)| k.trim())).collect();
        let n = keys.len();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), n, "{text}");
    }

    #[test]
    fn extreme_seeds_round_trip() {
        let spec = SweepSpec::new("extremes")
            .with_seeds(&[0, 1, u64::MAX])
            .with_sim_seconds(1.0)
            .with_policy_seed(u16::MAX);
        let parsed = from_toml(&to_toml(&spec)).unwrap();
        assert_eq!(parsed, spec);
    }

    #[test]
    fn large_seeds_survive_exactly() {
        // Above 2^53 an f64 detour would silently corrupt the seed.
        let big = (1u64 << 53) + 1;
        let spec = from_toml(&format!("seeds = [{big}]\n")).unwrap();
        assert_eq!(spec.seeds, vec![big]);
        let round = from_toml(&to_toml(&spec)).unwrap();
        assert_eq!(round.seeds, vec![big]);
        // 2^64 does not fit and must error, not saturate.
        let err = from_toml("seeds = [18446744073709551616]\n").unwrap_err();
        assert!(err.contains("seeds"), "{err}");
    }

    #[test]
    fn quoted_name_is_rejected_not_corrupted() {
        // The subset has no string escapes; a quote in the name would
        // break the round-trip, so validation refuses it up front.
        let spec = SweepSpec::new("a").with_sim_seconds(1.0);
        let mut bad = spec;
        bad.name = "a \"quick\" check".into();
        assert!(bad.validate().unwrap_err().contains("name"));
    }

    #[test]
    fn round_trip_preserves_the_spec() {
        let spec = SweepSpec::new("round-trip")
            .with_experiments(&[Experiment::Exp2, Experiment::Exp4])
            .with_stack_orders(&[StackOrder::CoresNearSink])
            .with_tsv(&[TsvVariant::Dense2Pct, TsvVariant::Bare])
            .with_sensors(&[SensorProfile::NoisyQuantized, SensorProfile::Ideal])
            .with_policies(&[PolicyKind::Adapt3dDvfsTt, PolicyKind::Migr])
            .with_dpm(&[true])
            .with_benchmarks(&[Benchmark::WebHigh, Benchmark::MPlayerWeb])
            .with_seeds(&[1, 2, 3])
            .with_sim_seconds(12.5)
            .with_grid(6, 8)
            .with_policy_seed(0xBEEF)
            .with_threads(3);
        let text = to_toml(&spec);
        let parsed = from_toml(&text).unwrap();
        assert_eq!(parsed, spec, "{text}");
    }
}
