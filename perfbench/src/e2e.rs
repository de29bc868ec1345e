//! The end-to-end run (tracing off): set-up time, then cold and warm
//! campaigns repeated for the measured duration, every output checked.

use std::path::Path;
use std::time::{Duration, Instant};

use therm3d_sweep::{expand, run_with_cache, CacheStore, SweepReport, SweepSpec};
use therm3d_telemetry::alloc;

use crate::campaign::{fresh_dir, probe, setup_all, Tally};
use crate::coordinator::serve;
use crate::stats::{median, quantile};
use crate::workloads::{Mode, Workload};
use crate::{Metric, Outcome};

/// Rounds measured at least, however short `--seconds` is. A round is
/// set-ups, one cold campaign and warm re-runs, so all three metrics
/// sample the same stretches of the run.
const MIN_ROUNDS: usize = 3;
/// Wall time each round spends at least on set-ups and, separately, on
/// warm re-runs (one of each is always made). Both are short, so a
/// round repeats them to keep their medians steady.
const SHARE: Duration = Duration::from_millis(25);
/// The quantile of a run's warm re-run times that is reported: an
/// estimate of their cost on a quiet host. A warm re-run is a
/// single-threaded ~0.1 ms of file reads and lookups; on a shared host,
/// neighbours slow it for stretches of 5 to 40 s, and the share of a
/// run they cover varies from run to run, which moves the median with
/// it (run-to-run spread 0.14–0.24 of the median, against 0.08 for the
/// tenth percentile). Cold campaigns last 25–300 ms on several threads;
/// their own spread dominates, and their median is the steadier figure.
/// The p10, quartiles and p90 of both go to standard error.
const WARM_QUANTILE: f64 = 0.1;

/// The end-to-end metrics, in the order `BENCHMARK.json` lists them.
pub const METRICS: [(&str, &str); 4] = [
    ("us_per_sim_s", "us"),
    ("setup_s", "s"),
    ("warm_us_per_cell", "us"),
    ("heap_peak_mib", "MiB"),
];

/// Calls `f` at least once and until [`SHARE`] has passed.
fn for_share(mut f: impl FnMut()) {
    let start = Instant::now();
    loop {
        f();
        if start.elapsed() >= SHARE {
            return;
        }
    }
}

/// Runs the cold campaign once; `Err` when any cell failed.
fn cold_run(
    w: Workload,
    spec: &SweepSpec,
    store: &mut CacheStore,
    nproc: usize,
) -> Result<SweepReport, String> {
    match w.mode() {
        Mode::InProcess => run_with_cache(spec, Some(store)).map_err(|e| e.to_string()),
        Mode::Served => serve(spec, store, nproc).map(|served| served.report),
    }
}

/// Measures `w` at trace seed `seed` for `seconds`.
///
/// # Errors
///
/// Scratch directories or the cache store cannot be created, or the
/// reference campaign at `seed` fails outright.
pub fn run(
    w: Workload,
    seed: u64,
    seconds: f64,
    nproc: usize,
    work: &Path,
) -> Result<Outcome, String> {
    let mut tally = Tally::default();
    let expected = probe(w, seed, nproc, &mut tally)?.csv();

    let spec = w.spec(seed, nproc);
    let cells = expand(&spec).len();

    let (mut setup_s, mut cold_s, mut warm_s, mut heap_bytes) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let dir = work.join("cache");
    while cold_s.len() < MIN_ROUNDS || Instant::now() < deadline {
        for_share(|| setup_s.push(setup_all(&spec)));
        fresh_dir(&dir)?;
        let mut store = CacheStore::open(&dir).map_err(|e| e.to_string())?;
        let base = alloc::reset_high_water();
        let start = Instant::now();
        let cold = cold_run(w, &spec, &mut store, nproc);
        cold_s.push(start.elapsed().as_secs_f64());
        #[allow(clippy::cast_precision_loss)]
        heap_bytes.push(alloc::high_water_bytes().saturating_sub(base) as f64);
        drop(store);
        let cold_csv = match cold {
            Ok(report) => report.csv(),
            Err(e) => {
                eprintln!("perfbench: cold campaign failed: {e}");
                String::new()
            }
        };
        let mut ok = cold_csv == expected;
        for_share(|| {
            let start = Instant::now();
            let warm = CacheStore::open(&dir).map_err(|e| e.to_string()).and_then(|mut store| {
                run_with_cache(&spec, Some(&mut store)).map_err(|e| e.to_string())
            });
            warm_s.push(start.elapsed().as_secs_f64());
            ok &= warm.is_ok_and(|report| report.csv() == cold_csv);
        });
        if !ok {
            eprintln!(
                "perfbench: a cold or warm campaign disagreed with the in-process reference run"
            );
        }
        tally.all_or_nothing(cells, ok);
    }
    std::fs::remove_dir_all(&dir).map_err(|e| format!("cannot remove {}: {e}", dir.display()))?;

    #[allow(clippy::cast_precision_loss)]
    let (cells_f, sim_s) = (cells as f64, w.sim_seconds());
    let values = [
        median(&cold_s) * 1e6 / (cells_f * sim_s),
        median(&setup_s),
        quantile(&warm_s, WARM_QUANTILE) * 1e6 / cells_f,
        median(&heap_bytes) / f64::from(1 << 20),
    ];
    let metrics = METRICS
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| Metric { name: name.to_owned(), value, unit })
        .collect();
    let spread = |name: &str, v: &[f64]| {
        let q = |p: f64| quantile(v, p) * 1e6;
        format!(
            "{name}: {} samples, us p10 {:.1} p25 {:.1} p50 {:.1} p75 {:.1} p90 {:.1}",
            v.len(),
            q(0.1),
            q(0.25),
            q(0.5),
            q(0.75),
            q(0.9)
        )
    };
    let notes = vec![
        format!("{cells} cells x {sim_s} sim-s per campaign"),
        spread("cold campaign", &cold_s),
        spread("warm re-run", &warm_s),
        spread("set-up", &setup_s),
    ];
    Ok(Outcome { metrics, tally, notes })
}
