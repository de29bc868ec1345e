//! Command execution for the `therm3d` binary: each subcommand renders
//! its report to a `String` so tests can assert on output without
//! spawning processes.

use std::fmt::Write as _;

use therm3d::{RunResult, SimConfig, Simulator};
use therm3d_floorplan::Experiment;
use therm3d_policies::PolicyKind;
use therm3d_power::{CorePowerInput, PowerModel, PowerParams, VfTable};
use therm3d_reliability::ReliabilityReport;
use therm3d_thermal::{ThermalConfig, ThermalModel};
use therm3d_workload::{stream_mix, Benchmark, MixStream, TraceConfig};

use crate::args::{Command, SimOptions, SweepFormat, USAGE};

impl SimOptions {
    fn config(&self) -> SimConfig {
        let scenario = therm3d::ScenarioConfig::paper_default()
            .with_stack_order(self.stack_order)
            .with_tsv(self.tsv)
            .with_sensor(self.sensor)
            .with_sensor_seed(therm3d_sweep::derive_sensor_seed(self.seed));
        let mut cfg = SimConfig::paper_default(self.exp).with_scenario(scenario);
        cfg.thermal = cfg.thermal.with_grid(self.grid, self.grid).with_integrator(self.integrator);
        cfg
    }

    /// The simulator running `kind` on this scenario, and the jobs it
    /// replays. The policy is built on the stack the engine simulates
    /// (Adapt3D's thermal indices depend on which layer each core sits
    /// on), so every subcommand drives one system.
    fn simulator(&self, kind: PolicyKind) -> (Simulator, MixStream) {
        let stack = self.exp.stack_with_order(self.stack_order);
        let policy = kind.build_with_dpm(&stack, 0xACE1, self.dpm);
        let benchmarks = match &self.benchmark {
            Some(b) => std::slice::from_ref(b),
            None => &Benchmark::ALL,
        };
        let jobs = stream_mix(benchmarks, self.exp.num_cores(), self.seconds, self.seed);
        (Simulator::new(self.config(), policy), jobs)
    }

    fn run(&self, kind: PolicyKind) -> RunResult {
        let (mut sim, jobs) = self.simulator(kind);
        sim.run_source(jobs, self.seconds)
    }
}

/// CSV header matching [`csv_row`] (the workspace-wide schema owned by
/// [`therm3d_sweep::report`]).
#[must_use]
pub fn csv_header() -> &'static str {
    therm3d_sweep::csv_header()
}

/// One CSV row for a run result (delegates to the sweep crate's single
/// source of truth for result serialization).
#[must_use]
pub fn csv_row(r: &RunResult, dpm: bool) -> String {
    therm3d_sweep::csv_row(r, dpm)
}

/// Observability sinks a spec-file sweep can opt into; the invariant
/// they all honor is that stdout — the report — stays byte-identical
/// whether or not any of them is active.
#[derive(Debug, Clone, Default)]
struct SweepTelemetryOpts<'a> {
    /// Throttled live progress line on stderr (`--progress`).
    progress: bool,
    /// JSONL cell-lifecycle event stream path (`--trace-out`).
    trace_out: Option<&'a str>,
    /// Metrics-snapshot JSON path (`--metrics-out`).
    metrics_out: Option<&'a str>,
}

impl SweepTelemetryOpts<'_> {
    fn any(&self) -> bool {
        self.progress || self.trace_out.is_some() || self.metrics_out.is_some()
    }
}

/// Loads, expands and executes a sweep-spec file, rendering the report
/// in the requested format. With a cache directory, results are
/// memoized by content-addressed cell key — the rendered report is
/// byte-identical whatever the hit/miss mix. With `cache_stats`, one
/// `cache:` counters line goes to *stderr* (never stdout: the CSV and
/// JSON streams must stay machine-parseable). Telemetry sinks likewise
/// write only to stderr and sidecar files.
///
/// Returns `(report, Option<stats line>)` so tests can assert on the
/// counters without capturing stderr; [`execute`] routes them.
fn run_sweep_file(
    path: &str,
    threads: Option<usize>,
    format: SweepFormat,
    cache_dir: Option<&str>,
    cache_stats: bool,
    shard: Option<therm3d_sweep::ShardSpec>,
    telemetry_opts: &SweepTelemetryOpts<'_>,
) -> Result<(String, Option<String>), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
    let mut spec =
        therm3d_sweep::from_toml(&text).map_err(|e| format!("invalid sweep spec `{path}`: {e}"))?;
    if let Some(threads) = threads {
        spec = spec.with_threads(threads);
    }
    if let Some(shard) = shard {
        spec = spec.with_shard(shard);
    }
    let mut store = match cache_dir {
        Some(dir) => {
            Some(therm3d_sweep::CacheStore::open(std::path::Path::new(dir)).map_err(String::from)?)
        }
        None => None,
    };
    let telemetry = if telemetry_opts.any() {
        let mut tel = therm3d_sweep::RunTelemetry::new();
        if let Some(out) = telemetry_opts.trace_out {
            tel = tel.with_events(
                therm3d_telemetry::EventSink::to_path(std::path::Path::new(out))
                    .map_err(|e| format!("cannot open `--trace-out {out}`: {e}"))?,
            );
        }
        if telemetry_opts.progress {
            tel = tel.with_progress(therm3d_telemetry::Progress::stderr());
        }
        // Turn on the process-wide registry so the in-engine spans
        // (LDLᵀ factorization, tick loop) land in `--metrics-out` too.
        therm3d_telemetry::global().set_enabled(true);
        Some(tel)
    } else {
        None
    };
    let report = therm3d_sweep::run_with_telemetry(&spec, store.as_mut(), telemetry.as_ref())
        .map_err(|e| format!("sweep failed: {e}"))?;
    let out = {
        // Report rendering is part of the per-run timing story.
        let _span = therm3d_telemetry::Span::enter("report.render_us");
        match format {
            SweepFormat::Table => report.render(),
            SweepFormat::Csv => report.csv(),
            SweepFormat::Json => report.json(),
        }
    };
    if let Some(out_path) = telemetry_opts.metrics_out {
        // The run-local snapshot (deterministic counters + per-cell
        // records) merged with the global one (in-engine span
        // histograms) is the full picture.
        let mut snap = telemetry.as_ref().expect("metrics_out implies telemetry").snapshot();
        snap.merge(&therm3d_telemetry::global().snapshot())
            .map_err(|e| format!("cannot merge engine metrics: {e}"))?;
        std::fs::write(out_path, snap.to_json())
            .map_err(|e| format!("cannot write `--metrics-out {out_path}`: {e}"))?;
    }
    // The counters line carries the shard id (`cache[1/3]: ...`) so N
    // shards logging to one stream stay attributable.
    let stats = match (&store, cache_stats) {
        (Some(store), true) => Some(store.summary_for(spec.shard)),
        _ => None,
    };
    Ok((out, stats))
}

/// Renders the `check` preflight report: spec validity, canonical
/// expansion count, per-axis summary, shard balance and — with a cache
/// directory — how many cells would hit the cache vs. simulate.
/// Nothing is simulated and nothing is written (the cache is only
/// probed), so preflighting a week-long campaign costs milliseconds.
fn check_spec(path: &str, cache_dir: Option<&str>) -> Result<String, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
    let spec =
        therm3d_sweep::from_toml(&text).map_err(|e| format!("invalid sweep spec `{path}`: {e}"))?;
    let cells = therm3d_sweep::expand(&spec);
    let total = cells.len();

    fn axis<T>(items: &[T], label: impl Fn(&T) -> String) -> String {
        items.iter().map(label).collect::<Vec<_>>().join(", ")
    }

    let mut out = String::new();
    let _ = writeln!(out, "sweep '{}': `{path}` is valid", spec.name);
    let _ = writeln!(
        out,
        "  cells: {total} = {} experiment(s) x {} stack order(s) x {} tsv x {} sensor(s) \
         x {} integrator(s) x {} policy(ies) x {} dpm x {} seed(s)",
        spec.experiments.len(),
        spec.stack_orders.len(),
        spec.tsv.len(),
        spec.sensors.len(),
        spec.integrators.len(),
        spec.policies.len(),
        spec.dpm.len(),
        spec.seeds.len(),
    );
    let _ = writeln!(out, "  experiments:  {}", axis(&spec.experiments, |e| e.to_string()));
    let _ = writeln!(out, "  stack orders: {}", axis(&spec.stack_orders, |o| o.to_string()));
    let _ = writeln!(out, "  tsv variants: {}", axis(&spec.tsv, |v| v.to_string()));
    let _ = writeln!(out, "  sensors:      {}", axis(&spec.sensors, |s| s.to_string()));
    let _ = writeln!(out, "  integrators:  {}", axis(&spec.integrators, |i| i.to_string()));
    let _ = writeln!(out, "  policies:     {}", axis(&spec.policies, |p| p.label().to_owned()));
    let _ = writeln!(
        out,
        "  dpm:          {}",
        axis(&spec.dpm, |d| if *d { "on".to_owned() } else { "off".to_owned() })
    );
    let _ = writeln!(out, "  seeds:        {}", axis(&spec.seeds, u64::to_string));
    let _ = writeln!(
        out,
        "  benchmarks:   {} (rotation within each cell, not an axis)",
        axis(&spec.benchmarks, |b| b.name().to_owned())
    );
    let _ = writeln!(
        out,
        "  sim: {} s per cell on a {}x{} grid, policy seed {:#06x}",
        spec.sim_seconds, spec.grid.0, spec.grid.1, spec.policy_seed
    );
    // Cells that agree on the RC network and integrator share one
    // symbolic analysis and one factor set at run time, so the distinct
    // count is the campaign's real solver-setup cost.
    let models = cells
        .iter()
        .map(|cell| therm3d_sweep::model_fingerprint(&spec, cell))
        .collect::<std::collections::BTreeSet<_>>()
        .len();
    let _ = writeln!(
        out,
        "  thermal models: {models} distinct across {total} cell(s) \
         (each analyzed and factored once per run)"
    );
    // What `therm3d serve` would lease out, so a campaign can be sized
    // before any worker connects.
    let lease = therm3d_coord::default_lease_cells(total);
    let _ = writeln!(
        out,
        "  coordinator: {total} cells, lease size {lease} (override with `serve --lease N`)"
    );

    if spec.shard.is_full() {
        let _ = writeln!(out, "  shard: full matrix (split with --shard K/N or `shard-plan`)");
    } else {
        // Round-robin balance: every shard of the split, this one marked.
        let count = spec.shard.count;
        let balance = (0..count)
            .map(|k| {
                let cells = total / count + usize::from(k < total % count);
                if k == spec.shard.index {
                    format!("[{k}:{cells}]")
                } else {
                    format!("{k}:{cells}")
                }
            })
            .collect::<Vec<_>>()
            .join(" ");
        let _ = writeln!(
            out,
            "  shard {}: {} of {total} cells (balance {balance})",
            spec.shard,
            spec.shard.cell_count(total)
        );
    }

    if let Some(dir) = cache_dir {
        // Probe the store with the same content-addressed keys a run
        // would use; lookups only touch in-memory stats, never the disk.
        let mut store =
            therm3d_sweep::CacheStore::open(std::path::Path::new(dir)).map_err(String::from)?;
        let run_cells = therm3d_sweep::expand_shard(&spec);
        let warm = run_cells
            .iter()
            .filter(|cell| store.lookup(&therm3d_sweep::cell_key(&spec, cell)).is_some())
            .count();
        let cold = run_cells.len() - warm;
        let pct =
            if run_cells.is_empty() { 100.0 } else { 100.0 * warm as f64 / run_cells.len() as f64 };
        let _ = writeln!(
            out,
            "  cache `{dir}`: {warm} warm, {cold} cold of {} cell(s) ({pct:.1}% warm, \
             {} entries in store)",
            run_cells.len(),
            store.len()
        );
    }
    Ok(out)
}

/// Renders the `shard-plan` output: one ready-to-run `therm3d sweep`
/// line per shard plus `#`-commented context and merge hints, so the
/// whole block can be pasted into a shell (or an sbatch template)
/// as-is. With `serve`, prints the serve/work lines of a leased
/// campaign instead of the static `--shard K/N` split.
fn shard_plan(
    path: &str,
    count: usize,
    cache_dir: Option<&str>,
    threads: Option<usize>,
    serve: bool,
) -> Result<String, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
    let spec =
        therm3d_sweep::from_toml(&text).map_err(|e| format!("invalid sweep spec `{path}`: {e}"))?;
    let total = therm3d_sweep::expand(&spec).len();
    if count > total {
        return Err(format!(
            "`--count {count}` exceeds the matrix: `{path}` expands to {total} cell{}",
            if total == 1 { "" } else { "s" }
        ));
    }
    let mut out = String::new();
    if serve {
        // One coordinator, N workers, one shared address. Leases do the
        // splitting, so there is no per-worker shard index and the
        // merged CSV needs no `therm3d merge` step.
        const ADDR: &str = "127.0.0.1:7103";
        let lease = therm3d_coord::default_lease_cells(total);
        let _ = writeln!(
            out,
            "# campaign '{}': {total} cells over {count} worker{} (leased, lease size {lease}; \
             any assignment is byte-identical)",
            spec.name,
            if count == 1 { "" } else { "s" }
        );
        let cache_arg = cache_dir.map(|d| format!(" --cache-dir {d}")).unwrap_or_default();
        let _ = writeln!(
            out,
            "therm3d serve {path} --listen {ADDR}{cache_arg} --format csv \
             > {}.csv  # coordinator, {total} cell{}",
            spec.name,
            if total == 1 { "" } else { "s" }
        );
        let threads_arg = threads.map(|n| format!(" --threads {n}")).unwrap_or_default();
        for k in 1..=count {
            let _ = writeln!(out, "therm3d work --connect {ADDR}{threads_arg}  # worker {k}");
        }
        return Ok(out);
    }
    let _ = writeln!(
        out,
        "# sweep '{}': {total} cells over {count} shard{} (round-robin, disjoint)",
        spec.name,
        if count == 1 { "" } else { "s" }
    );
    let threads_arg = threads.map(|n| format!(" --threads {n}")).unwrap_or_default();
    for k in 0..count {
        // Round-robin over the canonical order: shard k takes cells
        // k, k+count, k+2*count, ...
        let cells = total / count + usize::from(k < total % count);
        let cache_arg = cache_dir.map(|d| format!(" --cache-dir {d}-{k}")).unwrap_or_default();
        let _ = writeln!(
            out,
            "therm3d sweep {path} --shard {k}/{count}{threads_arg}{cache_arg} --format csv \
             > {}-shard-{k}.csv  # {cells} cell{}",
            spec.name,
            if cells == 1 { "" } else { "s" }
        );
    }
    let shards: Vec<String> = (0..count).map(|k| format!("{}-shard-{k}.csv", spec.name)).collect();
    let _ = writeln!(out, "# merge: therm3d merge {}.csv {}", spec.name, shards.join(" "));
    if let Some(dir) = cache_dir {
        let dirs: Vec<String> = (0..count).map(|k| format!("{dir}-{k}")).collect();
        let _ = writeln!(
            out,
            "# caches: therm3d cache merge --cache-dir {dir} {} && \
             therm3d cache compact --cache-dir {dir}",
            dirs.join(" ")
        );
    }
    Ok(out)
}

/// Merges shard CSV reports into the canonical CSV and writes it to
/// `out` — byte-identical to what one unsharded run would print.
fn merge_reports(out: &str, inputs: &[String]) -> Result<String, String> {
    let texts: Vec<(String, String)> = inputs
        .iter()
        .map(|path| {
            std::fs::read_to_string(path)
                .map(|text| (path.clone(), text))
                .map_err(|e| format!("cannot read `{path}`: {e}"))
        })
        .collect::<Result<_, _>>()?;
    let borrowed: Vec<(&str, &str)> =
        texts.iter().map(|(name, text)| (name.as_str(), text.as_str())).collect();
    let merged = therm3d_sweep::merge_csv(&borrowed)?;
    let cells = merged.lines().count() - 1;
    std::fs::write(out, &merged).map_err(|e| format!("cannot write `{out}`: {e}"))?;
    Ok(format!("merged {} shard report{} ({cells} cells) -> {out}\n", inputs.len(), {
        if inputs.len() == 1 {
            ""
        } else {
            "s"
        }
    }))
}

fn steady_report(exp: Experiment, grid: usize) -> String {
    let stack = exp.stack();
    let mut model = ThermalModel::new(&stack, ThermalConfig::paper_default().with_grid(grid, grid));
    let power = PowerModel::new(&stack, PowerParams::paper_default(), VfTable::paper_default());
    let busy = vec![CorePowerInput::busy(); stack.num_cores()];
    let mut temps = vec![45.0; stack.num_blocks()];
    for _ in 0..4 {
        let p = power.block_powers(&busy, &temps);
        temps = model.initialize_steady_state(&p);
    }
    let mut out = String::new();
    let _ = writeln!(out, "{exp}: all-cores-busy steady state ({grid}x{grid} grid)");
    for layer in 0..stack.layer_count() {
        let blocks: Vec<(usize, &therm3d_floorplan::BlockSite)> =
            stack.sites().iter().enumerate().filter(|(_, s)| s.layer == layer).collect();
        let peak = blocks.iter().map(|(i, _)| temps[*i]).fold(f64::NEG_INFINITY, f64::max);
        let _ = writeln!(out, "  layer {layer} ({}): peak {peak:.1} °C", stack.layer_name(layer));
        for (i, site) in blocks {
            let _ = writeln!(
                out,
                "    {:<14} {:<9} {:6.1} °C",
                site.global_name,
                site.kind.to_string(),
                temps[i]
            );
        }
    }
    let _ = writeln!(
        out,
        "  spreader {:.1} °C, sink {:.1} °C",
        model.spreader_temperature_c(),
        model.sink_temperature_c()
    );
    out
}

/// Executes a parsed command and returns its report.
///
/// # Errors
///
/// Returns a message (without an `error:` prefix) when a sweep-spec
/// file cannot be read, parsed or validated; the other subcommands are
/// infallible once parsed.
pub fn execute(cmd: &Command) -> Result<String, String> {
    let mut out = String::new();
    match cmd {
        Command::Help => out.push_str(USAGE),
        Command::Run { sim, policy, csv } => {
            let r = sim.run(*policy);
            if *csv {
                let _ = writeln!(out, "{}", csv_header());
                let _ = writeln!(out, "{}", csv_row(&r, sim.dpm));
            } else {
                let _ = writeln!(out, "{r}");
                let _ = writeln!(out, "{}", RunResult::table_header());
                let _ = writeln!(out, "{}", r.table_row());
            }
        }
        Command::Sweep { sim, csv } => {
            if *csv {
                let _ = writeln!(out, "{}", csv_header());
            } else {
                let _ = writeln!(
                    out,
                    "policy sweep on {}{}, {:.0} s, grid {}x{}",
                    sim.exp,
                    if sim.dpm { " +DPM" } else { "" },
                    sim.seconds,
                    sim.grid,
                    sim.grid
                );
                let _ = writeln!(out, "{}", RunResult::table_header());
            }
            let mut baseline: Option<RunResult> = None;
            for kind in PolicyKind::ALL {
                let r = sim.run(kind);
                if *csv {
                    let _ = writeln!(out, "{}", csv_row(&r, sim.dpm));
                } else {
                    let norm = baseline.as_ref().map_or(1.0, |b| r.normalized_performance_vs(b));
                    let _ = writeln!(out, "{}  perf={norm:.3}", r.table_row());
                }
                if baseline.is_none() {
                    baseline = Some(r);
                }
            }
        }
        Command::SweepFile {
            path,
            threads,
            format,
            cache_dir,
            cache_stats,
            shard,
            progress,
            trace_out,
            metrics_out,
        } => {
            let telemetry_opts = SweepTelemetryOpts {
                progress: *progress,
                trace_out: trace_out.as_deref(),
                metrics_out: metrics_out.as_deref(),
            };
            let (report, stats) = run_sweep_file(
                path,
                *threads,
                *format,
                cache_dir.as_deref(),
                *cache_stats,
                *shard,
                &telemetry_opts,
            )?;
            out.push_str(&report);
            if let Some(stats) = stats {
                eprintln!("{stats}");
            }
        }
        Command::Check { path, cache_dir } => {
            out.push_str(&check_spec(path, cache_dir.as_deref())?);
        }
        Command::ShardPlan { path, count, cache_dir, threads, serve } => {
            out.push_str(&shard_plan(path, *count, cache_dir.as_deref(), *threads, *serve)?);
        }
        Command::Serve {
            path,
            listen,
            lease,
            lease_timeout,
            cache_dir,
            format,
            progress,
            port_file,
        } => {
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
            let spec = therm3d_sweep::from_toml(&text)
                .map_err(|e| format!("invalid sweep spec `{path}`: {e}"))?;
            let opts = therm3d_coord::ServeOptions {
                lease_cells: *lease,
                // Sub-millisecond timeouts round up: 0 means "default".
                lease_timeout_ms: lease_timeout
                    .map_or(0, |secs| ((secs * 1000.0).round() as u64).max(1)),
            };
            let server = therm3d_coord::Server::bind(&spec, listen, &opts)?;
            if let Some(file) = port_file {
                // Written only once the socket is bound, so scripts can
                // poll this file to learn an OS-assigned (port 0) address.
                std::fs::write(file, format!("{}\n", server.local_addr()))
                    .map_err(|e| format!("cannot write `--port-file {file}`: {e}"))?;
            }
            let mut store = match cache_dir {
                Some(dir) => Some(
                    therm3d_sweep::CacheStore::open(std::path::Path::new(dir))
                        .map_err(String::from)?,
                ),
                None => None,
            };
            let reporter = progress.then(therm3d_telemetry::Progress::stderr);
            let report = server.run(store.as_mut(), reporter)?;
            out.push_str(&match format {
                SweepFormat::Table => report.render(),
                SweepFormat::Csv => report.csv(),
                SweepFormat::Json => report.json(),
            });
        }
        Command::Work { connect, threads, cache_dir, throttle_ms } => {
            let opts = therm3d_coord::WorkOptions {
                threads: *threads,
                cache_dir: cache_dir.as_ref().map(std::path::PathBuf::from),
                throttle_ms: *throttle_ms,
            };
            let summary = therm3d_coord::work(connect, &opts)?;
            let _ = writeln!(
                out,
                "work: {} cell(s) over {} lease(s) from {connect}",
                summary.cells, summary.leases
            );
        }
        Command::Merge { out: merged_path, inputs } => {
            out.push_str(&merge_reports(merged_path, inputs)?);
        }
        Command::CacheCompact { dir } => {
            let mut store =
                therm3d_sweep::CacheStore::open(std::path::Path::new(dir)).map_err(String::from)?;
            let stats = store.compact().map_err(String::from)?;
            let _ = writeln!(out, "cache compact: {stats} ({})", store.path().display());
        }
        Command::CacheMerge { dir, sources } => {
            // Sources are read-only and must actually hold a store: a
            // mistyped directory must not be silently created/treated
            // as empty (that would drop a shard's entries with exit 0).
            for src in sources {
                let store_file = std::path::Path::new(src).join(therm3d_sweep::cache::STORE_FILE);
                if !store_file.is_file() {
                    return Err(format!(
                        "cache merge source `{src}` has no {} (wrong path?)",
                        therm3d_sweep::cache::STORE_FILE
                    ));
                }
            }
            let mut dest =
                therm3d_sweep::CacheStore::open(std::path::Path::new(dir)).map_err(String::from)?;
            let mut total = therm3d_sweep::MergeStats::default();
            for src in sources {
                let src_store = therm3d_sweep::CacheStore::open(std::path::Path::new(src))
                    .map_err(String::from)?;
                let stats = dest.merge_from(&src_store).map_err(String::from)?;
                let _ = writeln!(out, "cache merge: {stats} from {src}");
                total += stats;
            }
            let _ = writeln!(
                out,
                "cache merge: {total} total, {} entries ({})",
                dest.len(),
                dest.path().display()
            );
        }
        Command::Steady { exp, grid } => out.push_str(&steady_report(*exp, *grid)),
        Command::Trace { benchmark, cores, seconds, seed, csv } => {
            let trace = TraceConfig::new(*benchmark, *cores, *seconds).with_seed(*seed).generate();
            if *csv {
                let _ = writeln!(out, "id,arrival_s,work_s,memory_intensity,thread");
                for j in trace.jobs() {
                    let _ = writeln!(
                        out,
                        "{},{:.3},{:.4},{:.3},{}",
                        j.id, j.arrival_s, j.work_s, j.memory_intensity, j.thread_id
                    );
                }
            } else {
                let _ = writeln!(
                    out,
                    "{benchmark}: {} jobs over {seconds:.0} s, {:.1} CPU-seconds, offered {:.1} % of {cores} cores",
                    trace.len(),
                    trace.total_work_s(),
                    100.0 * trace.offered_utilization(*cores, *seconds)
                );
            }
        }
        Command::Reliability { sim, policy } => {
            let (mut simulator, jobs) = sim.simulator(*policy);
            let mut series: Vec<Vec<f64>> = vec![Vec::new(); simulator.stack().num_cores()];
            simulator.run_source_with_observer(jobs, sim.seconds, |s| {
                for (acc, &t) in series.iter_mut().zip(s.core_temps_c) {
                    acc.push(t);
                }
            });
            let _ = writeln!(
                out,
                "per-core reliability, {} on {}{} ({:.0} s):",
                policy.label(),
                sim.exp,
                if sim.dpm { " +DPM" } else { "" },
                sim.seconds
            );
            let _ = writeln!(out, "{}", ReliabilityReport::table_header());
            for (core, s) in series.iter().enumerate() {
                let r = ReliabilityReport::from_series(s, 0.1);
                let _ = writeln!(out, "{}", r.table_row(&format!("core {core}")));
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::parse;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn help_prints_usage() {
        let out = execute(&Command::Help).unwrap();
        assert!(out.contains("USAGE"));
        assert!(out.contains("therm3d run"));
    }

    #[test]
    fn run_csv_has_header_and_row() {
        let cmd = parse(argv("run --exp exp1 --benchmark gzip -t 5 --grid 4 --csv")).unwrap();
        let out = execute(&cmd).unwrap();
        let mut lines = out.lines();
        assert_eq!(lines.next(), Some(csv_header()));
        let row = lines.next().expect("one data row");
        assert!(row.starts_with("Adapt3D,EXP-1,false,"), "{row}");
        assert_eq!(row.split(',').count(), csv_header().split(',').count());
    }

    #[test]
    fn steady_lists_every_layer() {
        let cmd = parse(argv("steady --exp exp4 --grid 4")).unwrap();
        let out = execute(&cmd).unwrap();
        for layer in 0..4 {
            assert!(out.contains(&format!("layer {layer}")), "{out}");
        }
        assert!(out.contains("sink"));
    }

    #[test]
    fn trace_csv_row_count_matches_summary() {
        let csv =
            execute(&parse(argv("trace --benchmark gcc --cores 4 -t 8 --csv")).unwrap()).unwrap();
        let plain = execute(&parse(argv("trace --benchmark gcc --cores 4 -t 8")).unwrap()).unwrap();
        let rows = csv.lines().count() - 1; // minus header
        let reported: usize = plain
            .split(':')
            .nth(1)
            .and_then(|s| s.trim().split(' ').next())
            .and_then(|s| s.parse().ok())
            .expect("summary starts with the job count");
        assert_eq!(rows, reported);
    }

    #[test]
    fn plain_sweep_honors_csv() {
        let cmd = parse(argv("sweep --exp exp1 --benchmark gzip -t 3 --grid 4 --csv")).unwrap();
        let out = execute(&cmd).unwrap();
        let mut lines = out.lines();
        assert_eq!(lines.next(), Some(csv_header()));
        assert_eq!(lines.count(), PolicyKind::ALL.len());
    }

    #[test]
    fn check_preflights_without_simulating() {
        let dir = std::env::temp_dir().join("therm3d_cli_check_test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let spec_path = dir.join("spec.toml");
        std::fs::write(
            &spec_path,
            "name = \"check-test\"\n\
             experiments = [\"exp1\"]\n\
             policies = [\"Default\", \"Adapt3D\"]\n\
             dpm = [false, true]\n\
             benchmarks = [\"gzip\"]\n\
             sim_seconds = 2.0\n\
             grid = 4\n\
             threads = 1\n",
        )
        .unwrap();
        let spec_path = spec_path.to_str().unwrap().to_owned();
        let cache = dir.join("cache").to_str().unwrap().to_owned();

        // Preflight against an empty cache: everything is cold, and the
        // probe must not create store contents that later count as warm.
        let out = check_spec(&spec_path, Some(&cache)).unwrap();
        assert!(out.contains("`check-test`") || out.contains("'check-test'"), "{out}");
        assert!(out.contains("cells: 4 = 1 experiment(s)"), "{out}");
        assert!(out.contains("policies:     Default, Adapt3D"), "{out}");
        assert!(out.contains("dpm:          off, on"), "{out}");
        assert!(out.contains("full matrix"), "{out}");
        // 2 policies x 2 dpm only differ in control, never in the RC
        // network: one thermal model serves all four cells.
        assert!(out.contains("thermal models: 1 distinct across 4 cell(s)"), "{out}");
        assert!(out.contains("0 warm, 4 cold"), "{out}");

        // Simulate the campaign into the cache, then the same preflight
        // reports everything warm.
        execute(&Command::SweepFile {
            path: spec_path.clone(),
            threads: None,
            format: SweepFormat::Csv,
            cache_dir: Some(cache.clone()),
            cache_stats: false,
            shard: None,
            progress: false,
            trace_out: None,
            metrics_out: None,
        })
        .unwrap();
        let out = check_spec(&spec_path, Some(&cache)).unwrap();
        assert!(out.contains("4 warm, 0 cold"), "{out}");
        assert!(out.contains("100.0% warm"), "{out}");

        // A sharded spec reports its share and the full balance.
        let sharded = dir.join("sharded.toml");
        std::fs::write(
            &sharded,
            "name = \"check-test\"\n\
             experiments = [\"exp1\"]\n\
             policies = [\"Default\", \"Adapt3D\"]\n\
             dpm = [false, true]\n\
             benchmarks = [\"gzip\"]\n\
             sim_seconds = 2.0\n\
             grid = 4\n\
             shard = \"1/3\"\n",
        )
        .unwrap();
        let out = check_spec(sharded.to_str().unwrap(), Some(&cache)).unwrap();
        assert!(out.contains("shard 1/3: 1 of 4 cells"), "{out}");
        assert!(out.contains("balance 0:2 [1:1] 2:1"), "{out}");
        assert!(out.contains("1 warm, 0 cold"), "{out}");

        // Errors are reported, not panicked.
        assert!(check_spec("/nonexistent/spec.toml", None).unwrap_err().contains("cannot read"));
        let bad = dir.join("bad.toml");
        std::fs::write(&bad, "name = \"x\"\nsim_seconds = -1.0\n").unwrap();
        assert!(check_spec(bad.to_str().unwrap(), None).unwrap_err().contains("invalid"));

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sweep_file_runs_a_tiny_campaign_in_every_format() {
        let path = std::env::temp_dir().join("therm3d_cli_sweep_test.toml");
        std::fs::write(
            &path,
            "name = \"cli-test\"\n\
             experiments = [\"exp1\"]\n\
             policies = [\"Default\", \"Adapt3D\"]\n\
             dpm = [false, true]\n\
             benchmarks = [\"gzip\"]\n\
             sim_seconds = 3.0\n\
             grid = 4\n\
             threads = 2\n",
        )
        .unwrap();
        let path = path.to_str().unwrap().to_owned();

        let table = execute(&Command::SweepFile {
            path: path.clone(),
            threads: None,
            format: SweepFormat::Table,
            cache_dir: None,
            cache_stats: false,
            shard: None,
            progress: false,
            trace_out: None,
            metrics_out: None,
        })
        .unwrap();
        assert!(table.contains("sweep 'cli-test': 4 cells"), "{table}");
        assert!(table.contains("== EXP-1 +DPM"), "{table}");

        let csv = execute(&Command::SweepFile {
            path: path.clone(),
            threads: Some(1),
            format: SweepFormat::Csv,
            cache_dir: None,
            cache_stats: false,
            shard: None,
            progress: false,
            trace_out: None,
            metrics_out: None,
        })
        .unwrap();
        let mut lines = csv.lines();
        assert_eq!(
            lines.next(),
            Some(
                format!(
                    "cell,trace_seed,integrator,stack_order,tsv,sensor,cell_key,{}",
                    csv_header()
                )
                .as_str()
            )
        );
        assert_eq!(lines.count(), 4);

        let json = execute(&Command::SweepFile {
            path,
            threads: Some(2),
            format: SweepFormat::Json,
            cache_dir: None,
            cache_stats: false,
            shard: None,
            progress: false,
            trace_out: None,
            metrics_out: None,
        })
        .unwrap();
        assert!(json.contains("\"name\": \"cli-test\""), "{json}");
        assert_eq!(json.matches("\"cell\":").count(), 4);
    }

    #[test]
    fn sweep_file_cached_rerun_simulates_nothing_and_matches() {
        let spec_path = std::env::temp_dir().join("therm3d_cli_cached_sweep.toml");
        std::fs::write(
            &spec_path,
            "name = \"cli-cache\"\n\
             experiments = [\"exp1\"]\n\
             policies = [\"Default\", \"Adapt3D\"]\n\
             benchmarks = [\"gzip\"]\n\
             sim_seconds = 3.0\n\
             grid = 4\n",
        )
        .unwrap();
        let cache_dir =
            std::env::temp_dir().join(format!("therm3d_cli_cache_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&cache_dir);
        let cached = || {
            run_sweep_file(
                spec_path.to_str().unwrap(),
                Some(2),
                SweepFormat::Csv,
                Some(cache_dir.to_str().unwrap()),
                true,
                None,
                &SweepTelemetryOpts::default(),
            )
            .unwrap()
        };

        let (cold, cold_stats) = cached();
        assert!(cold_stats.unwrap().starts_with("cache: 0 hits, 2 misses, 2 inserted"));
        let (warm, warm_stats) = cached();
        assert!(warm_stats.unwrap().starts_with("cache: 2 hits, 0 misses, 0 inserted"));

        // The stdout report never carries the stats line and is
        // byte-identical across cold, warm and uncached runs.
        assert_eq!(cold, warm);
        assert!(!cold.contains("cache:"), "{cold}");
        let uncached = execute(&Command::SweepFile {
            path: spec_path.to_str().unwrap().into(),
            threads: Some(1),
            format: SweepFormat::Csv,
            cache_dir: None,
            cache_stats: false,
            shard: None,
            progress: false,
            trace_out: None,
            metrics_out: None,
        })
        .unwrap();
        assert_eq!(uncached, warm);
        let _ = std::fs::remove_dir_all(&cache_dir);
    }

    #[test]
    fn sweep_file_with_scenario_axes_runs_and_caches() {
        let spec_path = std::env::temp_dir().join("therm3d_cli_scenario_sweep.toml");
        std::fs::write(
            &spec_path,
            "name = \"cli-scenario\"\n\
             experiments = [\"exp1\"]\n\
             stack_orders = [\"cores-far\", \"cores-near\"]\n\
             tsv = [\"paper\", \"dense-1pct\"]\n\
             sensors = [\"ideal\", \"noisy-1c\"]\n\
             policies = [\"Default\"]\n\
             benchmarks = [\"gzip\"]\n\
             sim_seconds = 2.0\n\
             grid = 4\n",
        )
        .unwrap();
        let cache_dir =
            std::env::temp_dir().join(format!("therm3d_cli_scenario_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&cache_dir);
        let run = || {
            run_sweep_file(
                spec_path.to_str().unwrap(),
                Some(2),
                SweepFormat::Csv,
                Some(cache_dir.to_str().unwrap()),
                true,
                None,
                &SweepTelemetryOpts::default(),
            )
            .unwrap()
        };
        let (cold, cold_stats) = run();
        assert!(cold_stats.unwrap().starts_with("cache: 0 hits, 8 misses, 8 inserted"));
        assert_eq!(cold.lines().count(), 1 + 8, "2x2x2 scenario cells");
        assert!(cold.contains("cores-near") && cold.contains("dense-1pct"), "{cold}");
        // Warm rerun simulates nothing — noisy sensor cells included.
        let (warm, warm_stats) = run();
        assert!(warm_stats.unwrap().starts_with("cache: 8 hits, 0 misses, 0 inserted"));
        assert_eq!(cold, warm);
        // `cache compact` over the fresh store keeps all 8 entries.
        let out =
            execute(&Command::CacheCompact { dir: cache_dir.to_str().unwrap().into() }).unwrap();
        assert!(
            out.starts_with("cache compact: kept 8, dropped 0 shadowed, 0 stale-salt, 0 corrupt"),
            "{out}"
        );
        let (after, after_stats) = run();
        assert!(after_stats.unwrap().starts_with("cache: 8 hits, 0 misses"), "still warm");
        assert_eq!(after, cold);
        let _ = std::fs::remove_dir_all(&cache_dir);
    }

    #[test]
    fn sharded_sweep_merge_is_byte_identical_and_merged_cache_serves_warm() {
        use therm3d_sweep::ShardSpec;
        let base = std::env::temp_dir().join(format!("therm3d_cli_shard_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&base);
        std::fs::create_dir_all(&base).unwrap();
        let spec_path = base.join("spec.toml");
        std::fs::write(
            &spec_path,
            "name = \"cli-shard\"\n\
             experiments = [\"exp1\"]\n\
             policies = [\"Default\", \"Adapt3D\"]\n\
             dpm = [false, true]\n\
             benchmarks = [\"gzip\"]\n\
             sim_seconds = 3.0\n\
             grid = 4\n",
        )
        .unwrap();
        let p = |path: &std::path::Path| path.to_str().unwrap().to_owned();

        let (full, _) = run_sweep_file(
            &p(&spec_path),
            Some(2),
            SweepFormat::Csv,
            None,
            false,
            None,
            &SweepTelemetryOpts::default(),
        )
        .unwrap();

        // Run the campaign as 3 shards, each with its own cache dir and
        // CSV; the stats line is tagged with the shard id.
        let mut shard_paths = Vec::new();
        for k in 0..3 {
            let shard = ShardSpec { index: k, count: 3 };
            let cache = base.join(format!("cache-{k}"));
            let (csv, stats) = run_sweep_file(
                &p(&spec_path),
                Some(1),
                SweepFormat::Csv,
                Some(&p(&cache)),
                true,
                Some(shard),
                &SweepTelemetryOpts::default(),
            )
            .unwrap();
            assert!(stats.unwrap().starts_with(&format!("cache[{k}/3]: 0 hits")), "shard {k}");
            let out = base.join(format!("shard-{k}.csv"));
            std::fs::write(&out, &csv).unwrap();
            shard_paths.push(p(&out));
        }

        // `therm3d merge` reassembles the canonical CSV byte-identically
        // (shard order must not matter).
        shard_paths.reverse();
        let merged_path = base.join("merged.csv");
        let note =
            execute(&Command::Merge { out: p(&merged_path), inputs: shard_paths.clone() }).unwrap();
        assert!(note.starts_with("merged 3 shard reports (4 cells)"), "{note}");
        assert_eq!(std::fs::read_to_string(&merged_path).unwrap(), full);

        // `therm3d cache merge` unions the shard stores; a warm full run
        // over the merged store simulates nothing.
        let merged_cache = base.join("cache-all");
        let out = execute(&Command::CacheMerge {
            dir: p(&merged_cache),
            sources: (0..3).map(|k| p(&base.join(format!("cache-{k}")))).collect(),
        })
        .unwrap();
        assert!(out.contains("appended 4"), "{out}");
        let (warm, stats) = run_sweep_file(
            &p(&spec_path),
            Some(2),
            SweepFormat::Csv,
            Some(&p(&merged_cache)),
            true,
            None,
            &SweepTelemetryOpts::default(),
        )
        .unwrap();
        assert!(stats.unwrap().starts_with("cache: 4 hits, 0 misses, 0 inserted"), "fully warm");
        assert_eq!(warm, full);

        // A mistyped source is an error (and is not created on disk) —
        // a silent empty merge would drop a shard's entries with exit 0.
        let typo = base.join("cache-typo");
        let err = execute(&Command::CacheMerge { dir: p(&merged_cache), sources: vec![p(&typo)] })
            .unwrap_err();
        assert!(err.contains("cache-typo") && err.contains("results.tsv"), "{err}");
        assert!(!typo.exists(), "rejected sources must stay untouched");

        // A dropped shard is a named error, not a silently short CSV.
        let err =
            execute(&Command::Merge { out: p(&merged_path), inputs: shard_paths[..2].to_vec() })
                .unwrap_err();
        assert!(err.contains("missing cell"), "{err}");
        let _ = std::fs::remove_dir_all(&base);
    }

    #[test]
    fn sweep_file_telemetry_sidecars_leave_stdout_untouched() {
        let base =
            std::env::temp_dir().join(format!("therm3d_cli_telemetry_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&base);
        std::fs::create_dir_all(&base).unwrap();
        let spec_path = base.join("spec.toml");
        std::fs::write(
            &spec_path,
            "name = \"cli-telemetry\"\n\
             experiments = [\"exp1\"]\n\
             policies = [\"Default\", \"Adapt3D\"]\n\
             dpm = [false, true]\n\
             benchmarks = [\"gzip\"]\n\
             sim_seconds = 2.0\n\
             grid = 4\n\
             threads = 2\n",
        )
        .unwrap();
        let spec = spec_path.to_str().unwrap();

        let (plain, _) = run_sweep_file(
            spec,
            None,
            SweepFormat::Csv,
            None,
            false,
            None,
            &SweepTelemetryOpts::default(),
        )
        .unwrap();

        let events_path = base.join("events.jsonl");
        let metrics_path = base.join("metrics.json");
        let opts = SweepTelemetryOpts {
            progress: false, // stderr redraws are covered by the telemetry crate's own tests
            trace_out: Some(events_path.to_str().unwrap()),
            metrics_out: Some(metrics_path.to_str().unwrap()),
        };
        let (telemetered, _) =
            run_sweep_file(spec, None, SweepFormat::Csv, None, false, None, &opts).unwrap();
        assert_eq!(plain, telemetered, "sidecar sinks must not touch stdout");

        // The event stream covers all 4 cells, two events each.
        let events = std::fs::read_to_string(&events_path).unwrap();
        let docs: Vec<therm3d_telemetry::Json> =
            events.lines().map(|l| therm3d_telemetry::Json::parse(l).unwrap()).collect();
        assert_eq!(docs.len(), 8, "{events}");
        let finishes =
            docs.iter().filter(|d| d.get("ev").unwrap().as_str() == Some("cell_finish")).count();
        assert_eq!(finishes, 4);

        // The metrics snapshot parses, covers every cell and carries
        // the per-phase and solver counters the flags promise.
        let metrics = std::fs::read_to_string(&metrics_path).unwrap();
        let snap = therm3d_telemetry::MetricsSnapshot::from_json(&metrics).unwrap();
        assert_eq!(snap.counters["sweep.cells_total"], 4);
        assert_eq!(snap.cells.len(), 4);
        for cell in &snap.cells {
            assert!(cell.phases.contains_key("setup") && cell.phases.contains_key("simulate"));
            assert!(cell.counters["factor_numeric"] >= 1);
        }
        assert!(snap.histograms.contains_key("cell.wall_us"), "{metrics}");
        // The global registry's in-engine spans were merged in.
        assert!(snap.histograms.contains_key("thermal.factor_numeric_us"), "{metrics}");
        assert!(snap.histograms.contains_key("engine.tick_us"), "{metrics}");
        let _ = std::fs::remove_dir_all(&base);
    }

    #[test]
    fn shard_plan_prints_runnable_lines_and_merge_hints() {
        let spec_path = std::env::temp_dir().join("therm3d_cli_shard_plan.toml");
        std::fs::write(
            &spec_path,
            "name = \"plan\"\n\
             experiments = [\"exp1\"]\n\
             policies = [\"Default\", \"Adapt3D\"]\n\
             dpm = [false, true]\n\
             benchmarks = [\"gzip\"]\n\
             sim_seconds = 2.0\n\
             grid = 4\n",
        )
        .unwrap();
        let spec = spec_path.to_str().unwrap();
        let out = execute(&Command::ShardPlan {
            path: spec.into(),
            count: 3,
            cache_dir: Some("/tmp/plan-cache".into()),
            threads: Some(2),
            serve: false,
        })
        .unwrap();
        assert!(out.starts_with("# sweep 'plan': 4 cells over 3 shards"), "{out}");

        // Every non-comment line is a `therm3d sweep` invocation our own
        // parser accepts, with balanced round-robin cell counts.
        let mut cells_seen = 0;
        let mut shard_lines = 0;
        for line in out.lines().filter(|l| !l.starts_with('#')) {
            shard_lines += 1;
            let (cmd, annotation) = line.split_once(" > ").expect("redirects to a CSV");
            let argv: Vec<String> = cmd.split_whitespace().skip(1).map(str::to_owned).collect();
            let parsed = crate::args::parse(argv).unwrap();
            assert!(
                matches!(&parsed, Command::SweepFile { path, threads: Some(2), shard: Some(_), .. } if path == spec),
                "{line}: {parsed:?}"
            );
            cells_seen += annotation
                .split_once("# ")
                .and_then(|(_, c)| c.split(' ').next())
                .and_then(|c| c.parse::<usize>().ok())
                .expect("cell-count comment");
        }
        assert_eq!(shard_lines, 3);
        assert_eq!(cells_seen, 4, "shards partition the matrix");
        assert!(out.contains("--cache-dir /tmp/plan-cache-2"), "{out}");
        assert!(out.contains("# merge: therm3d merge plan.csv plan-shard-0.csv"), "{out}");
        assert!(out.contains("cache merge --cache-dir /tmp/plan-cache /tmp/plan-cache-0"), "{out}");

        // A plan with more shards than cells names the problem.
        let err = execute(&Command::ShardPlan {
            path: spec.into(),
            count: 9,
            cache_dir: None,
            threads: None,
            serve: false,
        })
        .unwrap_err();
        assert!(err.contains("expands to 4 cells"), "{err}");
        // Without `--cache-dir` no cache hint is printed.
        let out = execute(&Command::ShardPlan {
            path: spec.into(),
            count: 2,
            cache_dir: None,
            threads: None,
            serve: false,
        })
        .unwrap();
        assert!(!out.contains("cache"), "{out}");
    }

    #[test]
    fn shard_plan_serve_prints_runnable_serve_and_work_lines() {
        let spec_path = std::env::temp_dir().join("therm3d_cli_serve_plan.toml");
        std::fs::write(
            &spec_path,
            "name = \"plan\"\n\
             experiments = [\"exp1\"]\n\
             policies = [\"Default\", \"Adapt3D\"]\n\
             dpm = [false, true]\n\
             benchmarks = [\"gzip\"]\n\
             sim_seconds = 2.0\n\
             grid = 4\n",
        )
        .unwrap();
        let spec = spec_path.to_str().unwrap();
        let out = execute(&Command::ShardPlan {
            path: spec.into(),
            count: 3,
            cache_dir: Some("/tmp/plan-cache".into()),
            threads: Some(2),
            serve: true,
        })
        .unwrap();
        assert!(out.starts_with("# campaign 'plan': 4 cells over 3 workers (leased"), "{out}");

        // Every non-comment line is an invocation our own parser
        // accepts: one coordinator, then `--count` workers.
        let lines: Vec<&str> = out.lines().filter(|l| !l.starts_with('#')).collect();
        assert_eq!(lines.len(), 1 + 3, "{out}");
        let (serve_cmd, _) = lines[0].split_once(" > ").expect("coordinator redirects to a CSV");
        let argv: Vec<String> = serve_cmd.split_whitespace().skip(1).map(str::to_owned).collect();
        let parsed = crate::args::parse(argv).unwrap();
        assert!(
            matches!(&parsed, Command::Serve { path, cache_dir: Some(dir), format: SweepFormat::Csv, .. }
                if path == spec && dir == "/tmp/plan-cache"),
            "{parsed:?}"
        );
        for worker_line in &lines[1..] {
            let cmd = worker_line.split_once("  #").map_or(*worker_line, |(c, _)| c);
            let argv: Vec<String> = cmd.split_whitespace().skip(1).map(str::to_owned).collect();
            let parsed = crate::args::parse(argv).unwrap();
            assert!(
                matches!(&parsed, Command::Work { connect, threads: Some(2), .. }
                    if connect == "127.0.0.1:7103"),
                "{worker_line}: {parsed:?}"
            );
        }
        // Serve and work lines point at the same address, and leases
        // replace shards — no `--shard`, no merge hint.
        assert!(!out.contains("--shard") && !out.contains("# merge"), "{out}");
    }

    #[test]
    fn cache_compact_on_a_missing_dir_creates_an_empty_store() {
        let dir =
            std::env::temp_dir().join(format!("therm3d_cli_compact_fresh_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let out = execute(&Command::CacheCompact { dir: dir.to_str().unwrap().into() }).unwrap();
        assert!(out.contains("kept 0"), "{out}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sweep_file_failures_are_errors() {
        let err = execute(&Command::SweepFile {
            path: "/nonexistent/spec.toml".into(),
            threads: None,
            format: SweepFormat::Table,
            cache_dir: None,
            cache_stats: false,
            shard: None,
            progress: false,
            trace_out: None,
            metrics_out: None,
        })
        .unwrap_err();
        assert!(err.starts_with("cannot read"), "{err}");

        let bad = std::env::temp_dir().join("therm3d_cli_bad_spec.toml");
        std::fs::write(&bad, "policies = []\n").unwrap();
        let err = execute(&Command::SweepFile {
            path: bad.to_str().unwrap().into(),
            threads: None,
            format: SweepFormat::Table,
            cache_dir: None,
            cache_stats: false,
            shard: None,
            progress: false,
            trace_out: None,
            metrics_out: None,
        })
        .unwrap_err();
        assert!(err.starts_with("invalid sweep spec"), "{err}");
    }

    #[test]
    fn reliability_reports_every_core() {
        let cmd = parse(argv("reliability --exp exp1 --benchmark gzip -t 5 --grid 4")).unwrap();
        let out = execute(&cmd).unwrap();
        for core in 0..8 {
            assert!(out.contains(&format!("core {core}")), "{out}");
        }
    }

    #[test]
    fn reliability_simulates_the_ordered_stack() {
        // `--stack-order` reorders the dies the engine simulates; the
        // policy must be built on that same stack, or Adapt3D steers by
        // the default layer map while the heat follows the ordered one.
        let cmd = parse(argv(
            "reliability --exp exp3 --policy Adapt3D --stack-order cores-near \
             --benchmark web-high -t 20 --grid 4",
        ))
        .unwrap();
        let Command::Reliability { sim, policy } = &cmd else { panic!("{cmd:?}") };
        let stack = sim.exp.stack_with_order(sim.stack_order);
        let n = stack.num_cores();
        let mut engine = Simulator::new(sim.config(), policy.build_with_dpm(&stack, 0xACE1, false));
        let trace =
            TraceConfig::new(Benchmark::WebHigh, n, sim.seconds).with_seed(sim.seed).generate();
        let mut series: Vec<Vec<f64>> = vec![Vec::new(); n];
        engine.run_with_observer(&trace, sim.seconds, |s| {
            for (acc, &t) in series.iter_mut().zip(s.core_temps_c) {
                acc.push(t);
            }
        });
        let out = execute(&cmd).unwrap();
        for (core, s) in series.iter().enumerate() {
            let row = ReliabilityReport::from_series(s, 0.1).table_row(&format!("core {core}"));
            assert!(out.contains(&row), "core {core}: expected `{row}` in\n{out}");
        }
    }
}
