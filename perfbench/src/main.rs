//! `perfbench`: the therm3d campaign benchmark.
//!
//! The cost a user of therm3d pays is host time per simulated second of
//! one cell, summed over a campaign. This binary measures it on two
//! workloads (see [`workloads`]) and checks every output:
//!
//! - with `--trace 0`, the end-to-end metrics ([`e2e`]): µs of host
//!   time per simulated second of the cold campaign, set-up time of
//!   every cell's simulator, warm re-run time per cell over the
//!   campaign's own cache, and the cold campaign's heap high-water
//!   mark (the warm time is the tenth percentile of the run's samples,
//!   the others their median);
//! - with `--trace 1`, the per-layer metrics ([`layers`]), timed from
//!   outside by wrapping calls to each crate's public functions.
//!
//! Run from the repository root:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload scenarios --seed 2009 --seconds 10 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`; `failed` counts the
//! cells that failed or disagreed with the stored reference (see
//! [`reference`]). The line before it records the run's metadata.
//! `--print-reference <workload>` prints the workload's campaign CSV at
//! the reference seed, for refreshing `perfbench/reference/` after an
//! intended change of results.

mod campaign;
mod coordinator;
mod e2e;
mod layers;
mod reference;
mod stats;
mod workloads;

use std::path::PathBuf;

use therm3d_telemetry::{CountingAllocator, Json};

use workloads::{nproc, Workload, REFERENCE_SEED};

// Heap high-water and allocation counts come from the process's own
// allocator.
#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

const USAGE: &str = "usage: perfbench --workload <scenarios|campaign-service> \
[--seed N] [--seconds S] [--trace 0|1]\n       perfbench --print-reference <workload>";

/// One reported metric.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// What a run measured and how many cells it checked.
pub struct Outcome {
    pub metrics: Vec<Metric>,
    pub tally: campaign::Tally,
    /// Sample counts and other context, printed to standard error.
    pub notes: Vec<String>,
}

/// Parsed command line.
#[derive(Debug, PartialEq)]
enum Command {
    Measure { workload: Workload, seed: u64, seconds: f64, trace: bool },
    PrintReference(Workload),
}

fn parse_args(args: &[String]) -> Result<Command, String> {
    let workload =
        |name: &str| Workload::from_name(name).ok_or_else(|| format!("unknown workload `{name}`"));
    let (mut wl, mut seed, mut seconds, mut trace) = (None, REFERENCE_SEED, 10.0, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("`{flag}` needs a value"));
        match flag.as_str() {
            "--workload" => wl = Some(workload(value()?)?),
            "--print-reference" => return Ok(Command::PrintReference(workload(value()?)?)),
            "--seed" => {
                seed = value()?.parse().map_err(|_| "`--seed` takes an unsigned integer")?
            }
            "--seconds" => {
                seconds = value()?.parse().map_err(|_| "`--seconds` takes a number")?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("`--seconds` must be in (0, 600]".to_owned());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("`--trace` takes 0 or 1, not `{other}`")),
                };
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let workload = wl.ok_or("`--workload` is required")?;
    Ok(Command::Measure { workload, seed, seconds, trace })
}

/// The commit the checkout was made from, when it is a git checkout.
fn git_commit() -> String {
    let read = |path: &str| std::fs::read_to_string(path).ok().map(|s| s.trim().to_owned());
    let Some(head) = read(".git/HEAD") else { return "unknown".to_owned() };
    let Some(reference) = head.strip_prefix("ref: ") else { return head };
    read(&format!(".git/{reference}"))
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find_map(|line| line.strip_suffix(reference)?.strip_suffix(' ').map(str::to_owned))
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Everything a result depends on besides the code under test.
fn metadata(workload: Workload, seed: u64, seconds: f64, trace: bool) -> Json {
    let s = |v: &str| Json::Str(v.to_owned());
    Json::Obj(vec![
        ("workload".into(), s(workload.name())),
        ("seed".into(), Json::u64(seed)),
        ("seconds".into(), Json::f64(seconds)),
        ("trace".into(), Json::Bool(trace)),
        ("sim_seconds".into(), Json::f64(workload.sim_seconds())),
        ("nproc".into(), Json::u64(nproc() as u64)),
        ("rustc".into(), s(env!("PERFBENCH_RUSTC"))),
        ("profile".into(), s(if cfg!(debug_assertions) { "debug" } else { "release" })),
        ("engine".into(), s(therm3d_sweep::ENGINE_VERSION)),
        ("protocol".into(), s(therm3d_coord::PROTOCOL_VERSION)),
        ("commit".into(), s(&git_commit())),
    ])
}

/// Scratch space for cache stores, inside the build directory.
fn work_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("perfbench/target"), PathBuf::from)
        .join("perfbench-work")
        .join(std::process::id().to_string())
}

fn measure(workload: Workload, seed: u64, seconds: f64, trace: bool) -> Result<Json, String> {
    let work = work_dir();
    campaign::fresh_dir(&work)?;
    let outcome = if trace {
        layers::run(workload, seed, seconds, nproc(), &work)
    } else {
        e2e::run(workload, seed, seconds, nproc(), &work)
    };
    std::fs::remove_dir_all(&work).map_err(|e| format!("cannot remove {}: {e}", work.display()))?;
    // The shared parent goes too once no other run is using it.
    if let Some(parent) = work.parent() {
        let _ = std::fs::remove_dir(parent);
    }
    let Outcome { metrics, tally, notes } = outcome?;
    for note in &notes {
        eprintln!("perfbench: {note}");
    }
    let mut fields = Vec::with_capacity(metrics.len());
    for Metric { name, value, unit } in metrics {
        if !value.is_finite() {
            return Err(format!("{name} is not a finite number ({value})"));
        }
        println!("{name} = {value} {unit}");
        let metric = Json::Obj(vec![
            ("value".into(), Json::f64(value)),
            ("unit".into(), Json::Str(unit.into())),
        ]);
        fields.push((name, metric));
    }
    #[allow(clippy::cast_precision_loss)]
    let failed_frac = tally.failed as f64 / tally.attempted.max(1) as f64;
    println!("failed_frac = {failed_frac} ratio ({} of {} cells)", tally.failed, tally.attempted);
    println!("meta {}", metadata(workload, seed, seconds, trace).compact());
    Ok(Json::Obj(vec![
        ("correct".into(), Json::Bool(tally.failed == 0 && tally.attempted > 0)),
        ("attempted".into(), Json::u64(tally.attempted)),
        ("failed".into(), Json::u64(tally.failed)),
        ("metrics".into(), Json::Obj(fields)),
    ]))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = parse_args(&args).unwrap_or_else(|e| {
        eprintln!("perfbench: {e}\n{USAGE}");
        std::process::exit(2);
    });
    match command {
        Command::PrintReference(workload) => {
            match therm3d_sweep::run(&workload.spec(REFERENCE_SEED, nproc())) {
                Ok(report) => print!("{}", report.csv()),
                Err(e) => {
                    eprintln!("perfbench: {e}");
                    std::process::exit(1);
                }
            }
        }
        Command::Measure { workload, seed, seconds, trace } => {
            match measure(workload, seed, seconds, trace) {
                Ok(result) => println!("{}", result.compact()),
                Err(e) => {
                    eprintln!("perfbench: {e}");
                    std::process::exit(1);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    fn names_in(json: &Json, key: &str) -> Vec<(String, String)> {
        json.get(key)
            .and_then(Json::as_arr)
            .expect("array")
            .iter()
            .map(|m| {
                let field =
                    |k: &str| m.get(k).and_then(Json::as_str).unwrap_or_default().to_owned();
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn every_metric_name_is_well_formed_and_unique() {
        let mut all: Vec<String> = e2e::METRICS.iter().map(|(n, _)| (*n).to_owned()).collect();
        all.extend(layers::metric_names().into_iter().map(|(n, _)| n));
        for name in &all {
            let ok = !name.is_empty()
                && name.len() <= 64
                && name.starts_with(|c: char| c.is_ascii_alphanumeric())
                && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c));
            assert!(ok, "metric name `{name}` must match [A-Za-z0-9_.-]+");
        }
        let unique: std::collections::BTreeSet<_> = all.iter().collect();
        assert_eq!(unique.len(), all.len(), "metric names are unique");
    }

    #[test]
    fn benchmark_json_lists_exactly_what_the_binary_reports() {
        let text = include_str!("../../BENCHMARK.json");
        let json = Json::parse(text).expect("BENCHMARK.json parses");
        let e2e: Vec<_> =
            e2e::METRICS.iter().map(|(n, u)| ((*n).to_owned(), (*u).to_owned())).collect();
        assert_eq!(names_in(&json, "end_to_end"), e2e);
        let per_layer: Vec<_> =
            layers::metric_names().into_iter().map(|(n, u)| (n, u.to_owned())).collect();
        assert_eq!(names_in(&json, "per_layer"), per_layer);
        let workloads: Vec<String> = json
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads")
            .iter()
            .filter_map(|w| w.get("name").and_then(Json::as_str).map(str::to_owned))
            .collect();
        assert_eq!(workloads, Workload::ALL.map(|w| w.name().to_owned()));
    }

    #[test]
    fn arguments_parse_with_defaults_and_reject_junk() {
        assert_eq!(
            parse_args(&args("--workload campaign-service")),
            Ok(Command::Measure {
                workload: Workload::CampaignService,
                seed: 2009,
                seconds: 10.0,
                trace: false
            })
        );
        assert_eq!(
            parse_args(&args("--workload scenarios --seed 7 --seconds 3 --trace 1")),
            Ok(Command::Measure {
                workload: Workload::Scenarios,
                seed: 7,
                seconds: 3.0,
                trace: true
            })
        );
        assert_eq!(
            parse_args(&args("--print-reference campaign-service")),
            Ok(Command::PrintReference(Workload::CampaignService))
        );
        for bad in [
            "",
            "--workload nope",
            "--workload scenarios --trace 2",
            "--seed -1 --workload scenarios",
            "--workload",
        ] {
            assert!(parse_args(&args(bad)).is_err(), "`{bad}` must be rejected");
        }
    }
}
