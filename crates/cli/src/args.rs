//! Hand-rolled argument parsing for the `therm3d` binary.

use std::fmt;

use therm3d::SensorProfile;
use therm3d_floorplan::{Experiment, StackOrder};
use therm3d_policies::PolicyKind;
use therm3d_sweep::ShardSpec;
use therm3d_thermal::{Integrator, TsvVariant};
use therm3d_workload::Benchmark;

/// Options shared by the simulation-driving subcommands.
#[derive(Debug, Clone, PartialEq)]
pub struct SimOptions {
    /// 3D configuration (default EXP-3, the thermally stressed system).
    pub exp: Experiment,
    /// Simulated seconds (default 60).
    pub seconds: f64,
    /// A single Table I benchmark, or `None` for the 8-benchmark rotation.
    pub benchmark: Option<Benchmark>,
    /// Wrap the policy in fixed-timeout DPM.
    pub dpm: bool,
    /// Workload seed.
    pub seed: u64,
    /// Thermal grid resolution per layer (N×N).
    pub grid: usize,
    /// Thermal transient integrator (default: pre-factored implicit).
    pub integrator: Integrator,
    /// Stack orientation of the split configurations (`--stack-order`).
    pub stack_order: StackOrder,
    /// TSV/interlayer variant the RC network is built from (`--tsv`).
    pub tsv: TsvVariant,
    /// Sensor-fidelity profile the policy observes through (`--sensor`).
    pub sensor: SensorProfile,
}

impl Default for SimOptions {
    fn default() -> Self {
        Self {
            exp: Experiment::Exp3,
            seconds: 60.0,
            benchmark: None,
            dpm: false,
            seed: 2009,
            grid: 8,
            integrator: Integrator::default(),
            stack_order: StackOrder::default(),
            tsv: TsvVariant::default(),
            sensor: SensorProfile::default(),
        }
    }
}

/// Output format for sweep-spec reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SweepFormat {
    /// Paper-style fixed-width text tables.
    #[default]
    Table,
    /// The shared CSV schema (`therm3d_sweep::csv_header`).
    Csv,
    /// Hand-rolled JSON export.
    Json,
}

impl std::str::FromStr for SweepFormat {
    type Err = ParseCliError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "table" | "text" => Ok(SweepFormat::Table),
            "csv" => Ok(SweepFormat::Csv),
            "json" => Ok(SweepFormat::Json),
            other => Err(ParseCliError(format!(
                "unknown format `{other}` (expected table, csv or json)"
            ))),
        }
    }
}

/// A parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Simulate one (experiment, policy, workload) cell.
    Run { sim: SimOptions, policy: PolicyKind, csv: bool },
    /// Run all eleven policies on one experiment and tabulate.
    Sweep { sim: SimOptions, csv: bool },
    /// Execute a declarative sweep spec (TOML) on the parallel engine,
    /// optionally memoizing results in a persistent cache directory.
    SweepFile {
        path: String,
        threads: Option<usize>,
        format: SweepFormat,
        /// Result-cache directory (`--cache-dir`); `None` = no cache.
        cache_dir: Option<String>,
        /// Print hit/miss counters to stderr (`--cache-stats`).
        cache_stats: bool,
        /// Run only shard K of N of the matrix (`--shard K/N`);
        /// overrides the spec's `shard` key. `None` keeps the spec's.
        shard: Option<ShardSpec>,
        /// Live progress line on stderr (`--progress`).
        progress: bool,
        /// JSONL cell-lifecycle event stream path (`--trace-out`).
        trace_out: Option<String>,
        /// Metrics-snapshot JSON path (`--metrics-out`).
        metrics_out: Option<String>,
    },
    /// Validate a sweep spec and print a preflight report — expansion
    /// count, per-axis summary, shard balance and a cache warm/cold
    /// estimate — without simulating anything
    /// (`therm3d check SPEC.toml [--cache-dir DIR]`).
    Check {
        /// Sweep-spec path.
        path: String,
        /// Cache directory to estimate warm/cold cells against.
        cache_dir: Option<String>,
    },
    /// Print ready-to-run command lines splitting a spec over N shards
    /// (`therm3d shard-plan SPEC.toml --count N`), or — with `--serve`
    /// — the serve/work lines of a leased campaign over N workers.
    ShardPlan {
        /// Sweep-spec path (validated before the plan is printed).
        path: String,
        /// Number of shards (or, with `--serve`, workers).
        count: usize,
        /// Per-shard cache directories `DIR-K` in the printed lines
        /// (with `--serve`, the coordinator's single cache directory).
        cache_dir: Option<String>,
        /// `--threads` forwarded to every printed shard command.
        threads: Option<usize>,
        /// Emit `therm3d serve` + N `therm3d work` lines instead of the
        /// static `--shard K/N` split (`--serve`).
        serve: bool,
    },
    /// Coordinate a leased campaign over TCP
    /// (`therm3d serve SPEC.toml --listen ADDR`).
    Serve {
        /// Sweep-spec path; the coordinator owns the canonical expansion.
        path: String,
        /// Listen address, e.g. `127.0.0.1:7103` (port 0 = OS-assigned).
        listen: String,
        /// Cells per lease (`--lease N`); `None` = auto from the
        /// expansion size.
        lease: Option<usize>,
        /// Seconds a lease may go silent before its range is re-issued
        /// (`--lease-timeout SECS`); `None` = 30 s.
        lease_timeout: Option<f64>,
        /// Single canonical result cache fed by all workers' results.
        cache_dir: Option<String>,
        /// Report format for the merged campaign report on stdout.
        format: SweepFormat,
        /// Live progress line on stderr (`--progress`).
        progress: bool,
        /// Write the bound address to this file once listening
        /// (`--port-file FILE`) — how scripts discover a port-0 bind.
        port_file: Option<String>,
    },
    /// Join a leased campaign as a worker
    /// (`therm3d work --connect ADDR`).
    Work {
        /// Coordinator address, e.g. `127.0.0.1:7103`.
        connect: String,
        /// Worker-thread override for leased cells (`--threads N`).
        threads: Option<usize>,
        /// Optional worker-local result cache.
        cache_dir: Option<String>,
        /// Test/ops knob: compute one cell at a time, sleeping this many
        /// milliseconds between cells (`--throttle-ms N`).
        throttle_ms: u64,
    },
    /// Merge shard CSV reports back into the canonical unsharded CSV
    /// (`therm3d merge OUT.csv SHARD.csv ...`).
    Merge {
        /// Output path the merged canonical CSV is written to.
        out: String,
        /// Shard report paths (any order; disjointness/completeness is
        /// verified).
        inputs: Vec<String>,
    },
    /// Union shard cache directories into one store
    /// (`therm3d cache merge --cache-dir OUT SHARD_DIR ...`).
    CacheMerge {
        /// Destination cache directory (created if needed).
        dir: String,
        /// Source cache directories (read-only).
        sources: Vec<String>,
    },
    /// Print the all-cores-busy steady-state profile.
    Steady { exp: Experiment, grid: usize },
    /// Generate and dump a workload trace.
    Trace { benchmark: Benchmark, cores: usize, seconds: f64, seed: u64, csv: bool },
    /// Run one cell and print per-core reliability reports.
    Reliability { sim: SimOptions, policy: PolicyKind },
    /// Rewrite a result cache's `results.tsv`, keeping only the newest
    /// entry per cell key and dropping stale-salt/corrupt lines.
    CacheCompact { dir: String },
    /// Print usage.
    Help,
}

/// Error produced when the command line cannot be parsed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseCliError(pub String);

impl fmt::Display for ParseCliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ParseCliError {}

/// The usage text printed by `therm3d help`.
pub const USAGE: &str = "\
therm3d — 3D multicore dynamic thermal management simulator (DATE 2009 reproduction)

USAGE:
  therm3d run         [--exp E] [--policy P] [--benchmark B] [-t SECS] [--dpm] [--seed N] [--grid N]
                      [--integrator I] [--stack-order O] [--tsv V] [--sensor S] [--csv]
  therm3d sweep       [--exp E] [-t SECS] [--dpm] [--seed N] [--grid N]
                      [--integrator I] [--stack-order O] [--tsv V] [--sensor S] [--csv]
  therm3d sweep       SPEC.toml [--threads N] [--format table|csv|json] [--csv]
                      [--cache-dir DIR] [--no-cache] [--cache-stats] [--shard K/N]
                      [--progress] [--trace-out FILE] [--metrics-out FILE]
  therm3d check       SPEC.toml [--cache-dir DIR]
  therm3d shard-plan  SPEC.toml --count N [--cache-dir DIR] [--threads N] [--serve]
  therm3d serve       SPEC.toml --listen ADDR [--lease N] [--lease-timeout SECS]
                      [--cache-dir DIR] [--format table|csv|json] [--csv]
                      [--progress] [--port-file FILE]
  therm3d work        --connect ADDR [--threads N] [--cache-dir DIR] [--throttle-ms N]
  therm3d merge       OUT.csv SHARD.csv [SHARD.csv ...]
  therm3d steady      [--exp E] [--grid N]
  therm3d trace       [--benchmark B] [--cores N] [-t SECS] [--seed N] [--csv]
  therm3d reliability [--exp E] [--policy P] [-t SECS] [--dpm] [--seed N] [--grid N]
                      [--integrator I] [--stack-order O] [--tsv V] [--sensor S]
  therm3d cache       compact --cache-dir DIR
  therm3d cache       merge --cache-dir OUT_DIR SHARD_DIR [SHARD_DIR ...]
  therm3d help

  E = exp1..exp4   P = figure label (Default, CGate, DVFS_TT, Adapt3D, ...)
  I = implicit-cn (pre-factored implicit transient solver, the default)
      or explicit-rk4 (the stability-bounded golden reference)
  O = cores-far (paper default) or cores-near (logic die on the spreader)
  V = paper, bare, dense-1pct, dense-2pct, epoxy, epoxy-dense-1pct
  S = ideal, noisy-1c, noisy-3c, quantized-1c, noisy-2c-quant-1c, offset-cool-3c
  B = Table I name (web-med, web-high, database, web-db, gcc, gzip, mplayer, mplayer-web)

  With a SPEC.toml, `sweep` expands the spec's experiment x scenario
  (stack_orders x tsv x sensors) x integrator x policy x DPM x seed
  cross-product and executes it on all cores (deterministic for any
  --threads). Keys: name, experiments, stack_orders, tsv, sensors,
  integrators, policies, dpm, benchmarks, seeds, sim_seconds, grid,
  policy_seed, threads.

  `check` is the dry-run preflight for a campaign: it validates the
  spec, prints the canonical expansion count, a per-axis summary, the
  shard balance, and — with --cache-dir — how many cells would hit the
  cache vs. simulate, all without running anything.

  --cache-dir DIR memoizes results by content-addressed cell key:
  re-running a grown spec only simulates the new cells, and the report
  is byte-identical to a cold run. --no-cache ignores --cache-dir;
  --cache-stats prints a `cache:` counters line to stderr.
  `cache compact` rewrites DIR/results.tsv keeping only the newest
  entry per cell key and dropping stale-salt and corrupt lines.

  --shard K/N runs only shard K (zero-based) of an N-way split of the
  matrix — round-robin over the canonical cell order, so shards are
  balanced and disjoint. Each shard's CSV carries a leading `shard`
  provenance column; `therm3d merge` recombines shard CSVs into the
  canonical report (byte-identical to an unsharded run) and `cache
  merge` unions shard cache directories (follow with `cache compact`
  to drop shadowed lines). `shard-plan` prints the N command lines
  (plus merge hints) that execute such a split, one shard per line;
  with --serve it prints the serve/work lines of a leased campaign
  over N workers instead.

  `serve` + `work` run a campaign as a service with work stealing:
  the coordinator owns the canonical expansion and leases cell ranges
  over TCP; workers request leases, simulate through the ordinary
  cached runner, and stream verified results back. A worker that dies
  or goes silent past --lease-timeout has its range re-issued, so the
  campaign always completes, and the merged report/CSV is
  byte-identical to a single-process `therm3d sweep` of the same spec
  for any number of workers. --port-file writes the bound address
  (useful with port 0) once the coordinator is listening.

  Observability (stderr/sidecar only; stdout stays byte-identical):
  --progress redraws a throttled cells/s + hit-rate + ETA line on
  stderr; --trace-out FILE streams one JSON object per cell lifecycle
  event (cell_start, cache_hit, cell_finish, cell_panic) to FILE;
  --metrics-out FILE writes the final metrics snapshot (per-phase
  timing histograms, cache hit/miss and factorization counters, one
  record per cell) as pretty-printed JSON to FILE.

  Every simulation streams its jobs from the generator straight into
  the engine, so peak memory is independent of the simulated duration.";

struct Tokens {
    items: Vec<String>,
    pos: usize,
}

impl Tokens {
    fn next_value(&mut self, key: &str) -> Result<String, ParseCliError> {
        self.pos += 1;
        self.items
            .get(self.pos)
            .cloned()
            .ok_or_else(|| ParseCliError(format!("missing value for `{key}`")))
    }
}

fn parse_num<T: std::str::FromStr>(key: &str, raw: &str) -> Result<T, ParseCliError>
where
    T::Err: fmt::Display,
{
    raw.parse().map_err(|e| ParseCliError(format!("invalid `{key}` value `{raw}`: {e}")))
}

/// Parses a full argument vector (without the program name).
///
/// # Errors
///
/// Returns [`ParseCliError`] on an unknown subcommand, unknown flag,
/// missing value or unparsable value.
pub fn parse<I: IntoIterator<Item = String>>(argv: I) -> Result<Command, ParseCliError> {
    // Normalize --key=value into --key value.
    let mut items = Vec::new();
    for a in argv {
        if let Some((k, v)) = a.split_once('=') {
            if k.starts_with("--") {
                items.push(k.to_owned());
                items.push(v.to_owned());
                continue;
            }
        }
        items.push(a);
    }
    let Some(sub) = items.first().cloned() else {
        return Ok(Command::Help);
    };
    // `cache` takes a verb: `therm3d cache compact --cache-dir DIR` or
    // `therm3d cache merge --cache-dir OUT_DIR SHARD_DIR ...`.
    let mut cache_verb: Option<&'static str> = None;
    if sub == "cache" {
        match items.get(1).map(String::as_str) {
            Some("compact") => {
                cache_verb = Some("compact");
                items.remove(1);
            }
            Some("merge") => {
                cache_verb = Some("merge");
                items.remove(1);
            }
            Some(other) => {
                return Err(ParseCliError(format!(
                    "unknown cache verb `{other}` (expected `compact` or `merge`)"
                )));
            }
            None => {
                return Err(ParseCliError(
                    "`cache` needs a verb: `therm3d cache compact --cache-dir DIR` or \
                     `therm3d cache merge --cache-dir OUT_DIR SHARD_DIR ...`"
                        .into(),
                ));
            }
        }
    }
    // `merge` and `cache merge` take positional paths anywhere among
    // their flags; pull them out so the flag loop below sees only flags.
    let mut positionals: Vec<String> = Vec::new();
    if sub == "merge" || cache_verb == Some("merge") {
        let mut i = 1;
        while i < items.len() {
            if items[i].starts_with('-') {
                i += if items[i] == "--cache-dir" { 2 } else { 1 };
            } else {
                positionals.push(items.remove(i));
            }
        }
    }
    // `sweep`, `shard-plan`, `check` and `serve` take an optional
    // positional spec file anywhere among their flags; skip over tokens
    // that are values of value-taking flags.
    let mut spec_path: Option<String> = None;
    if sub == "sweep" || sub == "shard-plan" || sub == "check" || sub == "serve" {
        let takes_value = |flag: &str| {
            matches!(
                flag,
                "--exp"
                    | "--policy"
                    | "--benchmark"
                    | "-t"
                    | "--seconds"
                    | "--seed"
                    | "--grid"
                    | "--integrator"
                    | "--stack-order"
                    | "--tsv"
                    | "--sensor"
                    | "--cores"
                    | "--threads"
                    | "--format"
                    | "--cache-dir"
                    | "--shard"
                    | "--count"
                    | "--trace-out"
                    | "--metrics-out"
                    | "--listen"
                    | "--connect"
                    | "--lease"
                    | "--lease-timeout"
                    | "--throttle-ms"
                    | "--port-file"
            )
        };
        let mut i = 1;
        while i < items.len() {
            let token = &items[i];
            if token.starts_with('-') {
                i += if takes_value(token) { 2 } else { 1 };
            } else {
                spec_path = Some(items.remove(i));
                break;
            }
        }
    }
    let mut t = Tokens { items, pos: 0 };

    let mut sim = SimOptions::default();
    let mut policy = PolicyKind::Adapt3d;
    let mut csv = false;
    let mut cores = 8usize;
    let mut benchmark = Benchmark::Gcc;
    let mut threads: Option<usize> = None;
    let mut format: Option<SweepFormat> = None;
    let mut cache_dir: Option<String> = None;
    let mut no_cache = false;
    let mut cache_stats = false;
    let mut shard: Option<ShardSpec> = None;
    let mut count: Option<usize> = None;
    let mut progress = false;
    let mut trace_out: Option<String> = None;
    let mut metrics_out: Option<String> = None;
    let mut listen: Option<String> = None;
    let mut connect: Option<String> = None;
    let mut lease: Option<usize> = None;
    let mut lease_timeout: Option<f64> = None;
    let mut throttle_ms: Option<u64> = None;
    let mut port_file: Option<String> = None;
    let mut serve_plan = false;
    let mut sim_flags: Vec<String> = Vec::new();

    while t.pos + 1 < t.items.len() {
        t.pos += 1;
        let key = t.items[t.pos].clone();
        // Flags that configure an ad-hoc simulation; a spec file owns
        // these settings, so the two must not be mixed silently.
        if matches!(
            key.as_str(),
            "--exp"
                | "--policy"
                | "--benchmark"
                | "-t"
                | "--seconds"
                | "--seed"
                | "--grid"
                | "--integrator"
                | "--stack-order"
                | "--tsv"
                | "--sensor"
                | "--cores"
                | "--dpm"
        ) {
            sim_flags.push(key.clone());
        }
        match key.as_str() {
            "--exp" => sim.exp = parse_num("--exp", &t.next_value("--exp")?)?,
            "--policy" => policy = parse_num("--policy", &t.next_value("--policy")?)?,
            "--benchmark" => {
                let b: Benchmark = parse_num("--benchmark", &t.next_value("--benchmark")?)?;
                sim.benchmark = Some(b);
                benchmark = b;
            }
            "-t" | "--seconds" => sim.seconds = parse_num(&key, &t.next_value(&key)?)?,
            "--seed" => sim.seed = parse_num("--seed", &t.next_value("--seed")?)?,
            "--grid" => sim.grid = parse_num("--grid", &t.next_value("--grid")?)?,
            "--integrator" => {
                sim.integrator = parse_num("--integrator", &t.next_value("--integrator")?)?;
            }
            "--stack-order" => {
                sim.stack_order = parse_num("--stack-order", &t.next_value("--stack-order")?)?;
            }
            "--tsv" => sim.tsv = parse_num("--tsv", &t.next_value("--tsv")?)?,
            "--sensor" => sim.sensor = parse_num("--sensor", &t.next_value("--sensor")?)?,
            "--cores" => cores = parse_num("--cores", &t.next_value("--cores")?)?,
            "--threads" => threads = Some(parse_num("--threads", &t.next_value("--threads")?)?),
            "--format" => format = Some(parse_num("--format", &t.next_value("--format")?)?),
            "--cache-dir" => cache_dir = Some(t.next_value("--cache-dir")?),
            "--no-cache" => no_cache = true,
            "--cache-stats" => cache_stats = true,
            // ShardSpec::from_str validates the range, so `3/3` and
            // `0/0` die here at parse time with the valid range named.
            "--shard" => shard = Some(parse_num("--shard", &t.next_value("--shard")?)?),
            "--count" => count = Some(parse_num("--count", &t.next_value("--count")?)?),
            "--progress" => progress = true,
            "--trace-out" => trace_out = Some(t.next_value("--trace-out")?),
            "--metrics-out" => metrics_out = Some(t.next_value("--metrics-out")?),
            "--listen" => listen = Some(t.next_value("--listen")?),
            "--connect" => connect = Some(t.next_value("--connect")?),
            "--lease" => lease = Some(parse_num("--lease", &t.next_value("--lease")?)?),
            "--lease-timeout" => {
                lease_timeout =
                    Some(parse_num("--lease-timeout", &t.next_value("--lease-timeout")?)?);
            }
            "--throttle-ms" => {
                throttle_ms = Some(parse_num("--throttle-ms", &t.next_value("--throttle-ms")?)?);
            }
            "--port-file" => port_file = Some(t.next_value("--port-file")?),
            "--serve" => serve_plan = true,
            "--dpm" => sim.dpm = true,
            "--csv" => csv = true,
            other => return Err(ParseCliError(format!("unknown flag `{other}`"))),
        }
    }
    if sim.seconds <= 0.0 {
        return Err(ParseCliError("`--seconds` must be positive".into()));
    }
    if sim.grid == 0 {
        return Err(ParseCliError("`--grid` must be at least 1".into()));
    }
    let spec_sweep = sub == "sweep" && spec_path.is_some();
    let shard_plan = sub == "shard-plan";
    let serve_cmd = sub == "serve";
    let work_cmd = sub == "work";
    // Only a spec-file sweep consumes these; reject them anywhere else
    // rather than dropping them silently. `shard-plan` forwards
    // `--threads` into the lines it prints; `serve` renders a report
    // (`--format`) and `work` runs leased cells (`--threads`).
    if (threads.is_some() && !(spec_sweep || shard_plan || work_cmd))
        || (format.is_some() && !(spec_sweep || serve_cmd))
    {
        return Err(ParseCliError(
            "`--threads` and `--format` only apply to `sweep SPEC.toml` \
             (`shard-plan` and `work` also take `--threads`; `serve` also takes `--format`)"
                .into(),
        ));
    }
    if (progress && !(spec_sweep || serve_cmd))
        || ((trace_out.is_some() || metrics_out.is_some()) && !spec_sweep)
    {
        return Err(ParseCliError(
            "`--progress`, `--trace-out` and `--metrics-out` only apply to `sweep SPEC.toml` \
             (`serve` also takes `--progress`)"
                .into(),
        ));
    }
    if count.is_some() && !shard_plan {
        return Err(ParseCliError("`--count` only applies to `shard-plan SPEC.toml`".into()));
    }
    if serve_plan && !shard_plan {
        return Err(ParseCliError("`--serve` only applies to `shard-plan SPEC.toml`".into()));
    }
    if (listen.is_some() || lease.is_some() || lease_timeout.is_some() || port_file.is_some())
        && !serve_cmd
    {
        return Err(ParseCliError(
            "`--listen`, `--lease`, `--lease-timeout` and `--port-file` only apply to \
             `serve SPEC.toml`"
                .into(),
        ));
    }
    if (connect.is_some() || throttle_ms.is_some()) && !work_cmd {
        return Err(ParseCliError("`--connect` and `--throttle-ms` only apply to `work`".into()));
    }
    if (cache_dir.is_some()
        && !(spec_sweep || shard_plan || serve_cmd || work_cmd || sub == "cache" || sub == "check"))
        || ((no_cache || cache_stats) && !spec_sweep)
    {
        return Err(ParseCliError(
            "`--cache-dir` only applies to `sweep SPEC.toml`, `shard-plan`, `check`, `serve`, \
             `work`, `cache compact` and `cache merge`; `--no-cache` and `--cache-stats` only \
             apply to `sweep SPEC.toml`"
                .into(),
        ));
    }
    // `--no-cache` wins over `--cache-dir` (handy for forcing a
    // re-simulation without editing a shell alias), but stats over a
    // disabled cache would always read 0/0 — reject the combination.
    if no_cache {
        cache_dir = None;
    }
    if cache_stats && cache_dir.is_none() {
        return Err(ParseCliError(if no_cache {
            "`--cache-stats` is meaningless with `--no-cache`".into()
        } else {
            "`--cache-stats` requires `--cache-dir DIR`".into()
        }));
    }
    if shard.is_some() && !spec_sweep {
        return Err(ParseCliError("`--shard` only applies to `sweep SPEC.toml`".into()));
    }
    if format.is_some() && csv && spec_path.is_some() {
        return Err(ParseCliError(
            "`--csv` is shorthand for `--format csv`; pass one or the other, not both".into(),
        ));
    }

    match sub.as_str() {
        "run" => Ok(Command::Run { sim, policy, csv }),
        "sweep" => match spec_path {
            Some(path) => {
                if !sim_flags.is_empty() {
                    return Err(ParseCliError(format!(
                        "{} cannot be combined with a spec file: set {} in `{path}` instead \
                         (a spec-file sweep only takes --threads, --format and --csv)",
                        sim_flags.join(", "),
                        if sim_flags.len() == 1 { "it" } else { "them" },
                    )));
                }
                Ok(Command::SweepFile {
                    path,
                    threads,
                    // `--csv` is shorthand for `--format csv`.
                    format: format.unwrap_or(if csv {
                        SweepFormat::Csv
                    } else {
                        SweepFormat::Table
                    }),
                    cache_dir,
                    cache_stats,
                    shard,
                    progress,
                    trace_out,
                    metrics_out,
                })
            }
            None => Ok(Command::Sweep { sim, csv }),
        },
        "check" => {
            let Some(path) = spec_path else {
                return Err(ParseCliError(
                    "`check` needs a spec file: `therm3d check SPEC.toml [--cache-dir DIR]`".into(),
                ));
            };
            if !sim_flags.is_empty() || csv {
                return Err(ParseCliError(format!(
                    "`check` only takes `--cache-dir DIR`; set the matrix in `{path}` instead"
                )));
            }
            Ok(Command::Check { path, cache_dir })
        }
        "shard-plan" => {
            let Some(path) = spec_path else {
                return Err(ParseCliError(
                    "`shard-plan` needs a spec file: `therm3d shard-plan SPEC.toml --count N`"
                        .into(),
                ));
            };
            if !sim_flags.is_empty() || csv {
                return Err(ParseCliError(format!(
                    "`shard-plan` only takes `--count N`, `--cache-dir DIR`, `--threads N` and \
                     `--serve`; set the matrix in `{path}` instead"
                )));
            }
            let Some(count) = count else {
                return Err(ParseCliError("`shard-plan` requires `--count N`".into()));
            };
            if count == 0 {
                return Err(ParseCliError("`--count` must be at least 1".into()));
            }
            Ok(Command::ShardPlan { path, count, cache_dir, threads, serve: serve_plan })
        }
        "serve" => {
            let Some(path) = spec_path else {
                return Err(ParseCliError(
                    "`serve` needs a spec file: `therm3d serve SPEC.toml --listen ADDR`".into(),
                ));
            };
            if !sim_flags.is_empty() {
                return Err(ParseCliError(format!(
                    "`serve` does not take simulation flags; set the matrix in `{path}` instead"
                )));
            }
            let Some(listen) = listen else {
                return Err(ParseCliError(
                    "`serve` requires `--listen ADDR` (use port 0 for an OS-assigned port)".into(),
                ));
            };
            if lease == Some(0) {
                return Err(ParseCliError("`--lease` must be at least 1 cell".into()));
            }
            if lease_timeout.is_some_and(|t| t <= 0.0) {
                return Err(ParseCliError("`--lease-timeout` must be positive".into()));
            }
            Ok(Command::Serve {
                path,
                listen,
                lease,
                lease_timeout,
                cache_dir,
                // `--csv` is shorthand for `--format csv`, as on sweep.
                format: format.unwrap_or(if csv { SweepFormat::Csv } else { SweepFormat::Table }),
                progress,
                port_file,
            })
        }
        "work" => {
            if !sim_flags.is_empty() || csv {
                return Err(ParseCliError(
                    "`work` only takes `--connect ADDR`, `--threads N`, `--cache-dir DIR` and \
                     `--throttle-ms N` — the coordinator's spec owns everything else"
                        .into(),
                ));
            }
            let Some(connect) = connect else {
                return Err(ParseCliError("`work` requires `--connect ADDR`".into()));
            };
            Ok(Command::Work { connect, threads, cache_dir, throttle_ms: throttle_ms.unwrap_or(0) })
        }
        "steady" | "trace" => {
            // These subcommands cannot honor the scenario flags; reject
            // them instead of silently profiling the paper default.
            let dropped: Vec<&String> = sim_flags
                .iter()
                .filter(|f| matches!(f.as_str(), "--stack-order" | "--tsv" | "--sensor"))
                .collect();
            if let Some(flag) = dropped.first() {
                return Err(ParseCliError(format!(
                    "`{flag}` only applies to simulation subcommands (run, sweep, reliability); \
                     `{sub}` would silently ignore it"
                )));
            }
            if sub == "steady" {
                Ok(Command::Steady { exp: sim.exp, grid: sim.grid })
            } else {
                Ok(Command::Trace { benchmark, cores, seconds: sim.seconds, seed: sim.seed, csv })
            }
        }
        "reliability" => Ok(Command::Reliability { sim, policy }),
        "merge" => {
            if !sim_flags.is_empty() || csv {
                return Err(ParseCliError(
                    "`merge` only takes paths: `therm3d merge OUT.csv SHARD.csv ...`".into(),
                ));
            }
            let mut paths = positionals;
            if paths.len() < 2 {
                return Err(ParseCliError(
                    "`merge` needs an output and at least one shard report: \
                     `therm3d merge OUT.csv SHARD.csv ...`"
                        .into(),
                ));
            }
            let out = paths.remove(0);
            Ok(Command::Merge { out, inputs: paths })
        }
        "cache" => {
            let verb = cache_verb.unwrap_or("compact");
            if !sim_flags.is_empty() || csv {
                return Err(ParseCliError(format!(
                    "`cache {verb}` only takes `--cache-dir DIR`{}",
                    if verb == "merge" { " and source directories" } else { "" }
                )));
            }
            let Some(dir) = cache_dir else {
                return Err(ParseCliError(format!("`cache {verb}` requires `--cache-dir DIR`")));
            };
            match verb {
                "merge" => {
                    if positionals.is_empty() {
                        return Err(ParseCliError(
                            "`cache merge` needs at least one source directory: \
                             `therm3d cache merge --cache-dir OUT_DIR SHARD_DIR ...`"
                                .into(),
                        ));
                    }
                    Ok(Command::CacheMerge { dir, sources: positionals })
                }
                _ => Ok(Command::CacheCompact { dir }),
            }
        }
        "help" | "--help" | "-h" => Ok(Command::Help),
        other => Err(ParseCliError(format!("unknown subcommand `{other}`"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn empty_argv_is_help() {
        assert_eq!(parse(argv("")), Ok(Command::Help));
        assert_eq!(parse(argv("help")), Ok(Command::Help));
        assert_eq!(parse(argv("--help")), Ok(Command::Help));
    }

    #[test]
    fn run_with_defaults() {
        let cmd = parse(argv("run")).unwrap();
        assert_eq!(
            cmd,
            Command::Run { sim: SimOptions::default(), policy: PolicyKind::Adapt3d, csv: false }
        );
    }

    #[test]
    fn run_with_everything() {
        let cmd = parse(argv(
            "run --exp exp4 --policy DVFS_TT --benchmark web-high -t 30 --dpm --seed 7 --grid 4 --csv",
        ))
        .unwrap();
        match cmd {
            Command::Run { sim, policy, csv } => {
                assert_eq!(sim.exp, Experiment::Exp4);
                assert_eq!(policy, PolicyKind::DvfsTt);
                assert_eq!(sim.benchmark, Some(Benchmark::WebHigh));
                assert_eq!(sim.seconds, 30.0);
                assert!(sim.dpm);
                assert_eq!(sim.seed, 7);
                assert_eq!(sim.grid, 4);
                assert!(csv);
            }
            other => panic!("wrong command: {other:?}"),
        }
    }

    #[test]
    fn integrator_flag_parses_and_defaults() {
        assert_eq!(
            parse(argv("run")).map(|c| match c {
                Command::Run { sim, .. } => sim.integrator,
                other => panic!("wrong command: {other:?}"),
            }),
            Ok(Integrator::ImplicitCn)
        );
        let cmd = parse(argv("run --integrator explicit-rk4")).unwrap();
        assert!(matches!(
            cmd,
            Command::Run { sim: SimOptions { integrator: Integrator::ExplicitRk4, .. }, .. }
        ));
        // Short aliases work, garbage is rejected with the flag named.
        let cmd = parse(argv("sweep --integrator rk4")).unwrap();
        assert!(matches!(
            cmd,
            Command::Sweep { sim: SimOptions { integrator: Integrator::ExplicitRk4, .. }, .. }
        ));
        assert!(parse(argv("run --integrator euler")).unwrap_err().0.contains("--integrator"));
        // A spec file owns the integrator axis; the ad-hoc flag must not
        // silently apply to it.
        let err = parse(argv("sweep s.toml --integrator rk4")).unwrap_err().0;
        assert!(err.contains("--integrator") && err.contains("s.toml"), "{err}");
    }

    #[test]
    fn scenario_flags_parse_and_default() {
        let cmd = parse(argv("run")).unwrap();
        match cmd {
            Command::Run { sim, .. } => {
                assert_eq!(sim.stack_order, StackOrder::CoresFarFromSink);
                assert_eq!(sim.tsv, TsvVariant::Paper);
                assert_eq!(sim.sensor, SensorProfile::Ideal);
            }
            other => panic!("wrong command: {other:?}"),
        }
        let cmd = parse(argv(
            "run --exp exp1 --stack-order cores-near --tsv dense-1pct --sensor noisy-1c",
        ))
        .unwrap();
        match cmd {
            Command::Run { sim, .. } => {
                assert_eq!(sim.stack_order, StackOrder::CoresNearSink);
                assert_eq!(sim.tsv, TsvVariant::Dense1Pct);
                assert_eq!(sim.sensor, SensorProfile::Noisy1C);
            }
            other => panic!("wrong command: {other:?}"),
        }
        // Garbage names the flag; a spec file owns the scenario axes.
        assert!(parse(argv("run --tsv liquid")).unwrap_err().0.contains("--tsv"));
        assert!(parse(argv("run --sensor psychic")).unwrap_err().0.contains("--sensor"));
        let err = parse(argv("sweep s.toml --stack-order cores-near")).unwrap_err().0;
        assert!(err.contains("--stack-order") && err.contains("s.toml"), "{err}");
        // Subcommands that cannot honor a scenario reject the flags
        // instead of silently profiling the paper default.
        for line in ["steady --exp exp1 --tsv epoxy", "trace --sensor noisy-1c"] {
            let err = parse(argv(line)).unwrap_err().0;
            assert!(err.contains("silently ignore"), "{line}: {err}");
        }
    }

    #[test]
    fn shard_flag_parses_and_is_validated_at_parse_time() {
        let cmd = parse(argv("sweep s.toml --shard 1/3")).unwrap();
        assert!(
            matches!(cmd, Command::SweepFile { shard: Some(ShardSpec { index: 1, count: 3 }), .. }),
            "{cmd:?}"
        );
        // Without the flag the spec's own `shard` key stays in charge.
        let cmd = parse(argv("sweep s.toml")).unwrap();
        assert!(matches!(cmd, Command::SweepFile { shard: None, .. }), "{cmd:?}");
        // index == count and 0/0 die at parse time, naming the valid
        // range — never an empty report.
        let err = parse(argv("sweep s.toml --shard 3/3")).unwrap_err().0;
        assert!(err.contains("--shard") && err.contains("0/3..=2/3"), "{err}");
        let err = parse(argv("sweep s.toml --shard 0/0")).unwrap_err().0;
        assert!(err.contains("at least 1"), "{err}");
        let err = parse(argv("sweep s.toml --shard whole")).unwrap_err().0;
        assert!(err.contains("K/N"), "{err}");
        // The flag only means something on a spec-file sweep.
        for line in ["run --shard 0/2", "sweep --shard 0/2", "trace --shard 1/2"] {
            let err = parse(argv(line)).unwrap_err().0;
            assert!(err.contains("sweep SPEC.toml"), "{line}: {err}");
        }
        // The positional scan must not mistake the shard value for the
        // spec path.
        let cmd = parse(argv("sweep --shard 2/4 s.toml")).unwrap();
        assert!(
            matches!(&cmd, Command::SweepFile { path, shard: Some(ShardSpec { index: 2, count: 4 }), .. } if path == "s.toml"),
            "{cmd:?}"
        );
    }

    #[test]
    fn merge_parses_out_and_inputs() {
        assert_eq!(
            parse(argv("merge out.csv a.csv b.csv c.csv")).unwrap(),
            Command::Merge {
                out: "out.csv".into(),
                inputs: vec!["a.csv".into(), "b.csv".into(), "c.csv".into()]
            }
        );
        // One input is the N=1 pass-through; zero inputs is an error.
        assert!(parse(argv("merge out.csv a.csv")).is_ok());
        assert!(parse(argv("merge out.csv")).unwrap_err().0.contains("at least one"), "need input");
        assert!(parse(argv("merge")).unwrap_err().0.contains("at least one"));
        // Stray flags are rejected, not dropped.
        assert!(parse(argv("merge out.csv a.csv --csv")).is_err());
        assert!(parse(argv("merge out.csv a.csv --exp exp1")).is_err());
    }

    #[test]
    fn cache_merge_parses_dir_and_sources() {
        assert_eq!(
            parse(argv("cache merge --cache-dir /tmp/out /tmp/s0 /tmp/s1")).unwrap(),
            Command::CacheMerge {
                dir: "/tmp/out".into(),
                sources: vec!["/tmp/s0".into(), "/tmp/s1".into()]
            }
        );
        // Sources may precede the flag (the scan skips the flag value).
        assert_eq!(
            parse(argv("cache merge /tmp/s0 --cache-dir /tmp/out /tmp/s1")).unwrap(),
            Command::CacheMerge {
                dir: "/tmp/out".into(),
                sources: vec!["/tmp/s0".into(), "/tmp/s1".into()]
            }
        );
        let err = parse(argv("cache merge --cache-dir /tmp/out")).unwrap_err().0;
        assert!(err.contains("source"), "{err}");
        let err = parse(argv("cache merge /tmp/s0")).unwrap_err().0;
        assert!(err.contains("--cache-dir"), "{err}");
        assert!(parse(argv("cache merge --cache-dir /tmp/out /tmp/s0 --csv")).is_err());
    }

    #[test]
    fn cache_compact_parses_and_requires_a_dir() {
        assert_eq!(
            parse(argv("cache compact --cache-dir /tmp/c")).unwrap(),
            Command::CacheCompact { dir: "/tmp/c".into() }
        );
        assert!(parse(argv("cache compact")).unwrap_err().0.contains("--cache-dir"));
        assert!(parse(argv("cache")).unwrap_err().0.contains("verb"));
        assert!(parse(argv("cache evict --cache-dir /tmp/c")).unwrap_err().0.contains("evict"));
        // Unrelated flags are rejected, not dropped.
        assert!(parse(argv("cache compact --cache-dir /tmp/c --exp exp1")).is_err());
        assert!(parse(argv("cache compact --cache-dir /tmp/c --csv")).is_err());
    }

    #[test]
    fn key_equals_value_form() {
        let cmd = parse(argv("sweep --exp=exp2 --seconds=15")).unwrap();
        match cmd {
            Command::Sweep { sim, csv } => {
                assert_eq!(sim.exp, Experiment::Exp2);
                assert_eq!(sim.seconds, 15.0);
                assert!(!csv);
            }
            other => panic!("wrong command: {other:?}"),
        }
    }

    #[test]
    fn trace_options() {
        let cmd = parse(argv("trace --benchmark gzip --cores 16 -t 10 --csv")).unwrap();
        assert_eq!(
            cmd,
            Command::Trace {
                benchmark: Benchmark::Gzip,
                cores: 16,
                seconds: 10.0,
                seed: 2009,
                csv: true
            }
        );
    }

    #[test]
    fn sweep_without_spec_keeps_the_policy_tabulation() {
        let cmd = parse(argv("sweep --exp exp2 -t 15")).unwrap();
        assert!(matches!(cmd, Command::Sweep { .. }), "{cmd:?}");
        // `--csv` is honored (not dropped) on the flag form too.
        let cmd = parse(argv("sweep --exp exp2 -t 15 --csv")).unwrap();
        assert!(matches!(cmd, Command::Sweep { csv: true, .. }), "{cmd:?}");
    }

    #[test]
    fn sweep_with_spec_file() {
        let cmd = parse(argv("sweep campaign.toml --threads 4 --format json")).unwrap();
        assert_eq!(
            cmd,
            Command::SweepFile {
                path: "campaign.toml".into(),
                threads: Some(4),
                format: SweepFormat::Json,
                cache_dir: None,
                cache_stats: false,
                shard: None,
                progress: false,
                trace_out: None,
                metrics_out: None,
            }
        );
    }

    #[test]
    fn sweep_spec_file_can_follow_flags() {
        // The positional is found anywhere, not only at position one —
        // and flag values ("4", "json") are not mistaken for it.
        let cmd = parse(argv("sweep --threads 4 --format json campaign.toml")).unwrap();
        assert_eq!(
            cmd,
            Command::SweepFile {
                path: "campaign.toml".into(),
                threads: Some(4),
                format: SweepFormat::Json,
                cache_dir: None,
                cache_stats: false,
                shard: None,
                progress: false,
                trace_out: None,
                metrics_out: None,
            }
        );
        let cmd = parse(argv("sweep --threads 2 campaign.toml --csv")).unwrap();
        assert_eq!(
            cmd,
            Command::SweepFile {
                path: "campaign.toml".into(),
                threads: Some(2),
                format: SweepFormat::Csv,
                cache_dir: None,
                cache_stats: false,
                shard: None,
                progress: false,
                trace_out: None,
                metrics_out: None,
            }
        );
    }

    #[test]
    fn sweep_spec_defaults_and_csv_shorthand() {
        let cmd = parse(argv("sweep campaign.toml")).unwrap();
        assert_eq!(
            cmd,
            Command::SweepFile {
                path: "campaign.toml".into(),
                threads: None,
                format: SweepFormat::Table,
                cache_dir: None,
                cache_stats: false,
                shard: None,
                progress: false,
                trace_out: None,
                metrics_out: None,
            }
        );
        let cmd = parse(argv("sweep campaign.toml --csv")).unwrap();
        assert_eq!(
            cmd,
            Command::SweepFile {
                path: "campaign.toml".into(),
                threads: None,
                format: SweepFormat::Csv,
                cache_dir: None,
                cache_stats: false,
                shard: None,
                progress: false,
                trace_out: None,
                metrics_out: None,
            }
        );
    }

    #[test]
    fn sweep_format_errors_are_descriptive() {
        assert!(parse(argv("sweep s.toml --format yaml")).unwrap_err().0.contains("yaml"));
        assert!(parse(argv("sweep s.toml --threads x")).unwrap_err().0.contains("--threads"));
    }

    #[test]
    fn sweep_only_flags_are_rejected_elsewhere() {
        // `--threads`/`--format` are only consumed by a spec-file sweep;
        // anywhere else they would be silently dropped.
        for line in ["run --format json", "sweep --threads 8", "trace --format csv"] {
            let err = parse(argv(line)).unwrap_err().0;
            assert!(err.contains("sweep SPEC.toml"), "{line}: {err}");
        }
    }

    #[test]
    fn cache_flags_parse_on_spec_file_sweeps() {
        let cmd = parse(argv("sweep s.toml --cache-dir /tmp/c --cache-stats")).unwrap();
        match cmd {
            Command::SweepFile { cache_dir, cache_stats, .. } => {
                assert_eq!(cache_dir.as_deref(), Some("/tmp/c"));
                assert!(cache_stats);
            }
            other => panic!("wrong command: {other:?}"),
        }
        // The positional scan must not mistake the directory for the spec.
        let cmd = parse(argv("sweep --cache-dir cachedir s.toml")).unwrap();
        assert!(matches!(&cmd, Command::SweepFile { path, .. } if path == "s.toml"), "{cmd:?}");
    }

    #[test]
    fn no_cache_overrides_cache_dir() {
        let cmd = parse(argv("sweep s.toml --cache-dir /tmp/c --no-cache")).unwrap();
        assert!(matches!(&cmd, Command::SweepFile { cache_dir: None, .. }), "{cmd:?}");
    }

    #[test]
    fn cache_flag_misuse_is_rejected() {
        // Cache flags outside `sweep SPEC.toml` would be silently dropped.
        for line in ["run --cache-dir /tmp/c", "sweep --no-cache", "trace --cache-stats"] {
            let err = parse(argv(line)).unwrap_err().0;
            assert!(err.contains("sweep SPEC.toml"), "{line}: {err}");
        }
        // Stats over a disabled or absent cache always read zero.
        let err = parse(argv("sweep s.toml --cache-stats")).unwrap_err().0;
        assert!(err.contains("--cache-dir"), "{err}");
        let err =
            parse(argv("sweep s.toml --cache-dir /tmp/c --no-cache --cache-stats")).unwrap_err().0;
        assert!(err.contains("--no-cache"), "{err}");
    }

    #[test]
    fn conflicting_format_and_csv_are_rejected() {
        let err = parse(argv("sweep s.toml --format json --csv")).unwrap_err().0;
        assert!(err.contains("shorthand"), "{err}");
        // Each alone is fine.
        assert!(parse(argv("sweep s.toml --format json")).is_ok());
        assert!(parse(argv("sweep s.toml --csv")).is_ok());
    }

    #[test]
    fn sweep_spec_rejects_sim_flags_instead_of_dropping_them() {
        // `-t`/`--grid`/... configure ad-hoc runs; silently ignoring
        // them next to a spec file would run something else entirely.
        let err = parse(argv("sweep s.toml -t 60 --grid 4")).unwrap_err().0;
        assert!(err.contains("-t") && err.contains("--grid") && err.contains("s.toml"), "{err}");
        // The allowed companions still parse.
        assert!(parse(argv("sweep s.toml --threads 2 --format csv")).is_ok());
    }

    #[test]
    fn telemetry_flags_parse_on_spec_file_sweeps() {
        let cmd = parse(argv(
            "sweep s.toml --progress --trace-out events.jsonl --metrics-out metrics.json",
        ))
        .unwrap();
        match cmd {
            Command::SweepFile { progress, trace_out, metrics_out, .. } => {
                assert!(progress);
                assert_eq!(trace_out.as_deref(), Some("events.jsonl"));
                assert_eq!(metrics_out.as_deref(), Some("metrics.json"));
            }
            other => panic!("wrong command: {other:?}"),
        }
        // The positional scan must not mistake a sink path for the spec.
        let cmd = parse(argv("sweep --trace-out ev.jsonl s.toml")).unwrap();
        assert!(matches!(&cmd, Command::SweepFile { path, .. } if path == "s.toml"), "{cmd:?}");
        // Off by default.
        let cmd = parse(argv("sweep s.toml")).unwrap();
        assert!(
            matches!(
                cmd,
                Command::SweepFile { progress: false, trace_out: None, metrics_out: None, .. }
            ),
            "{cmd:?}"
        );
        // Anywhere else the flags would be silently dropped.
        for line in ["run --progress", "sweep --trace-out x.jsonl", "trace --metrics-out m.json"] {
            let err = parse(argv(line)).unwrap_err().0;
            assert!(err.contains("sweep SPEC.toml"), "{line}: {err}");
        }
    }

    #[test]
    fn shard_plan_parses_and_validates() {
        assert_eq!(
            parse(argv("shard-plan s.toml --count 4")).unwrap(),
            Command::ShardPlan {
                path: "s.toml".into(),
                count: 4,
                cache_dir: None,
                threads: None,
                serve: false
            }
        );
        // Forwarded flags ride along; the positional may follow them.
        assert_eq!(
            parse(argv("shard-plan --count 3 --cache-dir /tmp/c --threads 2 s.toml")).unwrap(),
            Command::ShardPlan {
                path: "s.toml".into(),
                count: 3,
                cache_dir: Some("/tmp/c".into()),
                threads: Some(2),
                serve: false
            }
        );
        // `--serve` switches the plan to serve/work lines.
        assert_eq!(
            parse(argv("shard-plan s.toml --count 3 --serve")).unwrap(),
            Command::ShardPlan {
                path: "s.toml".into(),
                count: 3,
                cache_dir: None,
                threads: None,
                serve: true
            }
        );
        // ... and means nothing elsewhere.
        assert!(parse(argv("sweep s.toml --serve")).unwrap_err().0.contains("shard-plan"));
        // Missing pieces and misuse are named, not silently defaulted.
        assert!(parse(argv("shard-plan s.toml")).unwrap_err().0.contains("--count"));
        assert!(parse(argv("shard-plan --count 4")).unwrap_err().0.contains("spec file"));
        assert!(parse(argv("shard-plan s.toml --count 0")).unwrap_err().0.contains("at least 1"));
        let err = parse(argv("shard-plan s.toml --count 4 --csv")).unwrap_err().0;
        assert!(err.contains("only takes"), "{err}");
        let err = parse(argv("shard-plan s.toml --count 4 --exp exp1")).unwrap_err().0;
        assert!(err.contains("s.toml"), "{err}");
        // `--count` means nothing elsewhere.
        assert!(parse(argv("sweep s.toml --count 4")).unwrap_err().0.contains("shard-plan"));
    }

    #[test]
    fn check_parses_and_validates() {
        assert_eq!(
            parse(argv("check s.toml")).unwrap(),
            Command::Check { path: "s.toml".into(), cache_dir: None }
        );
        // The positional may follow the flags.
        assert_eq!(
            parse(argv("check --cache-dir /tmp/c s.toml")).unwrap(),
            Command::Check { path: "s.toml".into(), cache_dir: Some("/tmp/c".into()) }
        );
        assert!(parse(argv("check")).unwrap_err().0.contains("spec file"));
        let err = parse(argv("check s.toml --exp exp1")).unwrap_err().0;
        assert!(err.contains("s.toml"), "{err}");
        let err = parse(argv("check s.toml --csv")).unwrap_err().0;
        assert!(err.contains("only takes"), "{err}");
        // Run-only flags stay rejected here.
        assert!(parse(argv("check s.toml --threads 2")).unwrap_err().0.contains("--threads"));
        assert!(parse(argv("check s.toml --shard 0/2")).unwrap_err().0.contains("--shard"));
    }

    #[test]
    fn serve_parses_and_validates() {
        assert_eq!(
            parse(argv("serve s.toml --listen 127.0.0.1:0")).unwrap(),
            Command::Serve {
                path: "s.toml".into(),
                listen: "127.0.0.1:0".into(),
                lease: None,
                lease_timeout: None,
                cache_dir: None,
                format: SweepFormat::Table,
                progress: false,
                port_file: None,
            }
        );
        // Everything at once; the positional may follow the flags, and
        // `--csv` is the usual shorthand.
        assert_eq!(
            parse(argv(
                "serve --listen 0.0.0.0:7103 --lease 4 --lease-timeout 2.5 --cache-dir /tmp/c \
                 --csv --progress --port-file /tmp/port s.toml"
            ))
            .unwrap(),
            Command::Serve {
                path: "s.toml".into(),
                listen: "0.0.0.0:7103".into(),
                lease: Some(4),
                lease_timeout: Some(2.5),
                cache_dir: Some("/tmp/c".into()),
                format: SweepFormat::Csv,
                progress: true,
                port_file: Some("/tmp/port".into()),
            }
        );
        // Missing pieces and misuse are named, not silently defaulted.
        assert!(parse(argv("serve s.toml")).unwrap_err().0.contains("--listen"));
        assert!(parse(argv("serve --listen :0")).unwrap_err().0.contains("spec file"));
        assert!(parse(argv("serve s.toml --listen :0 --lease 0")).unwrap_err().0.contains("lease"));
        let err = parse(argv("serve s.toml --listen :0 --lease-timeout 0")).unwrap_err().0;
        assert!(err.contains("positive"), "{err}");
        let err = parse(argv("serve s.toml --listen :0 --exp exp1")).unwrap_err().0;
        assert!(err.contains("s.toml"), "{err}");
        let err = parse(argv("serve s.toml --listen :0 --format json --csv")).unwrap_err().0;
        assert!(err.contains("shorthand"), "{err}");
        // Serve-only flags mean nothing elsewhere.
        for line in ["run --listen :0", "sweep s.toml --port-file p", "check s.toml --lease 2"] {
            let err = parse(argv(line)).unwrap_err().0;
            assert!(err.contains("serve SPEC.toml"), "{line}: {err}");
        }
    }

    #[test]
    fn work_parses_and_validates() {
        assert_eq!(
            parse(argv("work --connect 127.0.0.1:7103")).unwrap(),
            Command::Work {
                connect: "127.0.0.1:7103".into(),
                threads: None,
                cache_dir: None,
                throttle_ms: 0
            }
        );
        assert_eq!(
            parse(argv(
                "work --connect host:7103 --threads 2 --cache-dir /tmp/w --throttle-ms 250"
            ))
            .unwrap(),
            Command::Work {
                connect: "host:7103".into(),
                threads: Some(2),
                cache_dir: Some("/tmp/w".into()),
                throttle_ms: 250
            }
        );
        assert!(parse(argv("work")).unwrap_err().0.contains("--connect"));
        let err = parse(argv("work --connect host:1 --csv")).unwrap_err().0;
        assert!(err.contains("coordinator"), "{err}");
        // Work-only flags mean nothing elsewhere.
        for line in ["run --connect host:1", "sweep s.toml --throttle-ms 9"] {
            let err = parse(argv(line)).unwrap_err().0;
            assert!(err.contains("`work`"), "{line}: {err}");
        }
    }

    #[test]
    fn errors_are_descriptive() {
        assert!(parse(argv("frobnicate")).unwrap_err().0.contains("unknown subcommand"));
        assert!(parse(argv("run --policy nope")).unwrap_err().0.contains("--policy"));
        assert!(parse(argv("run --exp")).unwrap_err().0.contains("missing value"));
        assert!(parse(argv("run --wat 3")).unwrap_err().0.contains("unknown flag"));
        assert!(parse(argv("run -t 0")).unwrap_err().0.contains("positive"));
        assert!(parse(argv("run --grid 0")).unwrap_err().0.contains("at least 1"));
    }

    #[test]
    fn policy_labels_parse_like_figures() {
        for kind in PolicyKind::ALL {
            let cmd = parse(vec!["run".into(), "--policy".into(), kind.label().into()]).unwrap();
            match cmd {
                Command::Run { policy, .. } => assert_eq!(policy, kind),
                other => panic!("wrong command: {other:?}"),
            }
        }
    }
}
