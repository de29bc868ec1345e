//! Command execution for the `therm3d` binary: each subcommand renders
//! its report to a `String` so tests can assert on output without
//! spawning processes.

use std::fmt::Write as _;

use therm3d::{RunResult, Simulator};
use therm3d_floorplan::Experiment;
use therm3d_policies::PolicyKind;
use therm3d_power::{CorePowerInput, PowerModel, PowerParams, VfTable};
use therm3d_reliability::ReliabilityReport;
use therm3d_sweep::{csv_header, csv_row, expand, sim_config, SweepReport, SweepSpec};
use therm3d_thermal::{ThermalConfig, ThermalModel};
use therm3d_workload::{stream_mix, Benchmark, JobSource, TraceConfig};

use crate::args::{Command, SimOptions, SweepFormat, USAGE};

impl SimOptions {
    /// The one-experiment sweep these options describe, over
    /// `policies`. `run`, `sweep` and `reliability` simulate its cells
    /// through the sweep engine, whose defaults (policy seed `0xACE1`)
    /// are the options' own.
    fn spec(&self, policies: &[PolicyKind]) -> SweepSpec {
        let benchmarks = match &self.benchmark {
            Some(b) => std::slice::from_ref(b),
            None => &Benchmark::ALL,
        };
        SweepSpec::new("therm3d")
            .with_experiments(&[self.exp])
            .with_stack_orders(&[self.stack_order])
            .with_tsv(&[self.tsv])
            .with_sensors(&[self.sensor])
            .with_integrators(&[self.integrator])
            .with_policies(policies)
            .with_dpm(&[self.dpm])
            .with_benchmarks(benchmarks)
            .with_seeds(&[self.seed])
            .with_sim_seconds(self.seconds)
            .with_grid(self.grid, self.grid)
    }
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
    telemetry_opts: &SweepTelemetryOpts<'_>,
) -> Result<(String, Option<String>), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
    let mut spec =
        therm3d_sweep::from_toml(&text).map_err(|e| format!("invalid sweep spec `{path}`: {e}"))?;
    if let Some(threads) = threads {
        spec = spec.with_threads(threads);
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
        render(&report, format)
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
    let stats = match (&store, cache_stats) {
        (Some(store), true) => Some(store.summary()),
        _ => None,
    };
    Ok((out, stats))
}

/// A sweep report in the format `sweep` and `serve` were asked for.
fn render(report: &SweepReport, format: SweepFormat) -> String {
    match format {
        SweepFormat::Table => report.render(),
        SweepFormat::Csv => report.csv(),
        SweepFormat::Json => report.json(),
    }
}

/// Renders the `check` preflight report: spec validity, canonical
/// expansion count, per-axis summary, lease size and — with a cache
/// directory — how many cells would hit the cache vs. simulate (which
/// is also what a `serve` over that cache would lease out).
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
    // stack, one network, one symbolic analysis and one factor set at
    // run time, so the distinct count is the campaign's real model
    // set-up cost.
    let models = cells
        .iter()
        .map(|cell| therm3d_sweep::model_fingerprint(&spec, cell))
        .collect::<std::collections::BTreeSet<_>>()
        .len();
    let _ = writeln!(
        out,
        "  thermal models: {models} distinct across {total} cell(s) \
         (each built, analyzed and factored once per run)"
    );
    // What `therm3d serve` would lease out, so a campaign can be sized
    // before any worker connects.
    let lease = therm3d_coord::default_lease_cells(total);
    let _ = writeln!(
        out,
        "  coordinator: {total} cells, lease size {lease} (override with `serve --lease N`)"
    );

    if let Some(dir) = cache_dir {
        // Probe the store with the same content-addressed keys a run
        // would use; lookups only touch in-memory stats, never the disk.
        let mut store =
            therm3d_sweep::CacheStore::open(std::path::Path::new(dir)).map_err(String::from)?;
        let warm = cells
            .iter()
            .filter(|cell| store.lookup(&therm3d_sweep::cell_key(&spec, cell)).is_some())
            .count();
        let cold = total - warm;
        let pct = if total == 0 { 100.0 } else { 100.0 * warm as f64 / total as f64 };
        let _ = writeln!(
            out,
            "  cache `{dir}`: {warm} warm, {cold} cold of {total} cell(s) ({pct:.1}% warm, \
             {} entries in store)",
            store.len()
        );
        // `serve` answers warm cells from its own cache before leasing.
        let _ = writeln!(out, "  serve --cache-dir {dir}: would lease {cold} cell(s)");
    }
    Ok(out)
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
            let spec = sim.spec(&[*policy]);
            let r = therm3d_sweep::run_cell(&spec, &expand(&spec)[0]);
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
            let report = therm3d_sweep::run(&sim.spec(&PolicyKind::ALL))
                .map_err(|e| format!("sweep failed: {e}"))?;
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
            let baseline = &report.rows[0].result;
            for row in &report.rows {
                let r = &row.result;
                if *csv {
                    let _ = writeln!(out, "{}", csv_row(r, sim.dpm));
                } else {
                    let norm = r.normalized_performance_vs(baseline);
                    let _ = writeln!(out, "{}  perf={norm:.3}", r.table_row());
                }
            }
        }
        Command::SweepFile {
            path,
            threads,
            format,
            cache_dir,
            cache_stats,
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
            out.push_str(&render(&report, *format));
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
        Command::CacheCompact { dir } => {
            let mut store =
                therm3d_sweep::CacheStore::open(std::path::Path::new(dir)).map_err(String::from)?;
            let stats = store.compact().map_err(String::from)?;
            let _ = writeln!(out, "cache compact: {stats} ({})", store.path().display());
        }
        Command::Steady { exp, grid } => out.push_str(&steady_report(*exp, *grid)),
        Command::Trace { benchmark, cores, seconds, seed, csv } => {
            let mut jobs = TraceConfig::new(*benchmark, *cores, *seconds).with_seed(*seed).stream();
            if *csv {
                let _ = writeln!(out, "id,arrival_s,work_s,memory_intensity,thread");
                while let Some(j) = jobs.next_job() {
                    let _ = writeln!(
                        out,
                        "{},{:.3},{:.4},{:.3},{}",
                        j.id, j.arrival_s, j.work_s, j.memory_intensity, j.thread_id
                    );
                }
            } else {
                let (mut n, mut work_s) = (0, 0.0);
                while let Some(j) = jobs.next_job() {
                    n += 1;
                    work_s += j.work_s;
                }
                let _ = writeln!(
                    out,
                    "{benchmark}: {n} jobs over {seconds:.0} s, {work_s:.1} CPU-seconds, offered {:.1} % of {cores} cores",
                    100.0 * (work_s / (*seconds * *cores as f64))
                );
            }
        }
        Command::Reliability { sim, policy } => {
            let spec = sim.spec(&[*policy]);
            let cell = &expand(&spec)[0];
            // The policy must see the stack the engine simulates
            // (Adapt3D's thermal indices depend on each core's layer).
            let stack = cell.experiment.stack_with_order(cell.stack_order);
            let dtm = cell.policy.build_with_dpm(&stack, cell.policy_seed, cell.dpm);
            let mut simulator = Simulator::new(sim_config(&spec, cell), dtm);
            let jobs = stream_mix(
                &spec.benchmarks,
                cell.experiment.num_cores(),
                spec.sim_seconds,
                cell.trace_seed,
            );
            let mut series: Vec<Vec<f64>> = vec![Vec::new(); stack.num_cores()];
            simulator.run_source_with_observer(jobs, spec.sim_seconds, |s| {
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
        assert!(out.contains("coordinator: 4 cells, lease size 1"), "{out}");
        // 2 policies x 2 dpm only differ in control, never in the RC
        // network: one thermal model serves all four cells.
        assert!(out.contains("thermal models: 1 distinct across 4 cell(s)"), "{out}");
        assert!(out.contains("0 warm, 4 cold"), "{out}");
        assert!(out.contains("would lease 4 cell(s)"), "{out}");

        // Simulate the campaign into the cache, then the same preflight
        // reports everything warm.
        execute(&Command::SweepFile {
            path: spec_path.clone(),
            threads: None,
            format: SweepFormat::Csv,
            cache_dir: Some(cache.clone()),
            cache_stats: false,
            progress: false,
            trace_out: None,
            metrics_out: None,
        })
        .unwrap();
        let out = check_spec(&spec_path, Some(&cache)).unwrap();
        assert!(out.contains("4 warm, 0 cold"), "{out}");
        assert!(out.contains("100.0% warm"), "{out}");
        assert!(out.contains("would lease 0 cell(s)"), "{out}");

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
            run_sweep_file(spec, None, SweepFormat::Csv, None, false, &opts).unwrap();
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
        let spec = sim.spec(&[*policy]);
        let config = sim_config(&spec, &expand(&spec)[0]);
        let mut engine = Simulator::new(config, policy.build_with_dpm(&stack, 0xACE1, false));
        let jobs =
            TraceConfig::new(Benchmark::WebHigh, n, sim.seconds).with_seed(sim.seed).stream();
        let mut series: Vec<Vec<f64>> = vec![Vec::new(); n];
        engine.run_source_with_observer(jobs, sim.seconds, |s| {
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
