//! Loopback integration tests for the campaign service: a coordinator
//! and in-process workers on 127.0.0.1 must reproduce the
//! byte-identical report of a single-process sweep — including when a
//! worker takes a lease and dies or hangs without ever reporting.
//! Threads are ordered with channels, never with sleeps.
#![allow(
    clippy::disallowed_methods,
    reason = "the loopback tests run a coordinator and its workers on threads of one process"
)]

use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::sync::mpsc;
use std::thread;
use std::time::Duration;

use therm3d_coord::wire::{read_msg, write_msg, Msg, PROTOCOL_VERSION};
use therm3d_coord::{work, ServeOptions, Server, WorkOptions};
use therm3d_floorplan::Experiment;
use therm3d_policies::PolicyKind;
use therm3d_sweep::{
    cell_key, encode_line, run_cells_with_telemetry, to_toml, CacheStore, SweepSpec, ENGINE_VERSION,
};
use therm3d_telemetry::Progress;
use therm3d_workload::Benchmark;

fn spec(name: &str) -> SweepSpec {
    SweepSpec::new(name)
        .with_experiments(&[Experiment::Exp1])
        .with_policies(&[PolicyKind::Default, PolicyKind::Adapt3d])
        .with_dpm(&[false, true])
        .with_benchmarks(&[Benchmark::Gzip])
        .with_sim_seconds(2.0)
        .with_grid(4, 4)
        .with_threads(1)
}

/// Cells in [`spec`]'s expansion.
const CELLS: usize = 4;

/// Handshakes with the coordinator at `addr` and takes one lease,
/// returning the open connection, the lease id and the granted
/// `(start, len)`.
fn take_lease(addr: &str) -> (TcpStream, u64, (u64, u64)) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    write_msg(
        &mut stream,
        &Msg::Hello { protocol: PROTOCOL_VERSION.into(), engine: ENGINE_VERSION.into() },
    )
    .expect("hello");
    assert!(matches!(read_msg(&mut stream).expect("welcome"), Msg::Welcome { .. }));
    write_msg(&mut stream, &Msg::LeaseRequest).expect("lease request");
    match read_msg(&mut stream).expect("grant") {
        Msg::LeaseGrant { lease_id, start, len } => (stream, lease_id, (start, len)),
        other => panic!("expected a lease grant, got {other:?}"),
    }
}

/// A progress sink that fires `tx` on its first write, which the
/// coordinator makes when the first result arrives.
struct FirstWrite(Option<mpsc::Sender<()>>);

impl Write for FirstWrite {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        if let Some(tx) = self.0.take() {
            let _ = tx.send(());
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[test]
fn leased_campaign_matches_single_process_run_byte_for_byte() {
    let spec = spec("coord-loopback");
    let single = therm3d_sweep::run(&spec).expect("single-process run").csv();

    // Lease size 1 forces every cell through a separate grant, so the
    // two workers genuinely interleave.
    let opts = ServeOptions { lease_cells: Some(1), lease_timeout_ms: 60_000 };
    let server = Server::bind(&spec, "127.0.0.1:0", &opts).expect("bind");
    let addr = server.local_addr().to_string();
    let workers: Vec<_> = (0..2)
        .map(|_| {
            let addr = addr.clone();
            thread::spawn(move || work(&addr, &WorkOptions::default()))
        })
        .collect();
    let report = server.run(None, None).expect("campaign");
    let summaries: Vec<_> =
        workers.into_iter().map(|h| h.join().expect("worker thread").expect("worker")).collect();

    assert_eq!(report.csv(), single, "any worker assignment must be byte-identical");
    let cells: usize = summaries.iter().map(|s| s.cells).sum();
    assert_eq!(cells, CELLS, "workers computed every cell exactly once: {summaries:?}");
}

#[test]
fn dead_worker_lease_is_reissued_and_campaign_completes() {
    let spec = spec("coord-deserter");
    let single = therm3d_sweep::run(&spec).expect("single-process run").csv();

    let opts = ServeOptions { lease_cells: Some(2), lease_timeout_ms: 60_000 };
    let server = Server::bind(&spec, "127.0.0.1:0", &opts).expect("bind");
    let addr = server.local_addr().to_string();

    // A deserter: handshakes, takes a lease, and drops the connection
    // without reporting a single row. Its range must be re-issued via
    // the EOF path (the timeout is far beyond the test's runtime, so
    // only abandonment can save the campaign). The honest worker
    // starts only once the deserter holds its grant.
    let (granted_tx, granted_rx) = mpsc::channel();
    let deserter = {
        let addr = addr.clone();
        thread::spawn(move || {
            let (stream, _, (_, len)) = take_lease(&addr);
            assert!(len > 0, "deserter should get a real range");
            granted_tx.send(()).expect("signal the honest worker");
            drop(stream); // The crash.
        })
    };
    let worker = thread::spawn(move || {
        granted_rx.recv().expect("deserter took its lease");
        work(&addr, &WorkOptions::default())
    });
    let report = server.run(None, None).expect("campaign");
    deserter.join().expect("deserter thread");
    let summary = worker.join().expect("worker thread").expect("worker");

    assert_eq!(report.csv(), single, "re-issued cells must not change a byte");
    assert_eq!(summary.cells, CELLS, "the survivor computed everything: {summary:?}");
}

#[test]
fn hung_worker_lease_expires_to_a_blocked_lease_request() {
    let spec = spec("coord-hung");
    let single = therm3d_sweep::run(&spec).expect("single-process run").csv();

    // One lease covers the whole campaign, so once the hung worker
    // holds it the honest worker's LeaseRequest has nothing to take
    // and must block until the lease expires.
    let opts = ServeOptions { lease_cells: Some(CELLS), lease_timeout_ms: 300 };
    let server = Server::bind(&spec, "127.0.0.1:0", &opts).expect("bind");
    let addr = server.local_addr().to_string();

    // The hung worker keeps its connection open and never reports, so
    // only deadline expiry can re-issue its range.
    let (granted_tx, granted_rx) = mpsc::channel();
    let (release_tx, release_rx) = mpsc::channel::<()>();
    let hung = {
        let addr = addr.clone();
        thread::spawn(move || {
            let (stream, _, range) = take_lease(&addr);
            assert_eq!(range, (0, CELLS as u64));
            granted_tx.send(()).expect("signal the honest worker");
            let _ = release_rx.recv();
            drop(stream);
        })
    };
    let honest = thread::spawn(move || {
        granted_rx.recv().expect("hung worker took its lease");
        work(&addr, &WorkOptions::default())
    });
    let report = server.run(None, None).expect("campaign");
    let summary = honest.join().expect("honest thread").expect("honest worker");
    release_tx.send(()).expect("release the hung worker");
    hung.join().expect("hung thread");

    assert_eq!(report.csv(), single, "expired and re-issued cells must not change a byte");
    assert_eq!(summary.cells, CELLS, "the re-issued range went to the honest worker");
}

#[test]
fn a_worker_waiting_for_a_lease_is_drained_cleanly() {
    let spec = spec("coord-drain");
    let single = therm3d_sweep::run(&spec).expect("single-process run").csv();

    // One lease is the whole campaign: the first worker takes it, the
    // second waits in its LeaseRequest until the campaign completes.
    let opts = ServeOptions { lease_cells: Some(CELLS), lease_timeout_ms: 60_000 };
    let server = Server::bind(&spec, "127.0.0.1:0", &opts).expect("bind");
    let addr = server.local_addr().to_string();

    // The holder streams one cell at a time with a pause between
    // cells; the waiter starts once the first cell has arrived, while
    // the holder still owns the other three.
    let (first_cell_tx, first_cell_rx) = mpsc::channel();
    let progress =
        Progress::with_writer(Box::new(FirstWrite(Some(first_cell_tx))), Duration::from_secs(3600));
    let holder = {
        let addr = addr.clone();
        thread::spawn(move || {
            work(&addr, &WorkOptions { throttle_ms: 100, ..WorkOptions::default() })
        })
    };
    let waiter = thread::spawn(move || {
        first_cell_rx.recv().expect("the holder reported its first cell");
        work(&addr, &WorkOptions::default())
    });
    let report = server.run(None, Some(progress)).expect("campaign");
    let holder = holder.join().expect("holder thread").expect("holder must be drained, not reset");
    let waiter = waiter.join().expect("waiter thread").expect("waiter must be drained, not reset");

    assert_eq!(report.csv(), single);
    assert_eq!((holder.cells, holder.leases), (CELLS, 1), "{holder:?}");
    assert_eq!((waiter.cells, waiter.leases), (0, 0), "{waiter:?}");
}

#[test]
fn a_checksummed_nan_row_is_rejected_and_never_stored() {
    let spec = spec("coord-nan");
    let single = therm3d_sweep::run(&spec).expect("single-process run");

    let opts = ServeOptions { lease_cells: Some(1), lease_timeout_ms: 60_000 };
    let server = Server::bind(&spec, "127.0.0.1:0", &opts).expect("bind");
    let addr = server.local_addr().to_string();

    // A broken worker reports its cell with a NaN peak under the right
    // key and a valid checksum, so only the result check can catch it;
    // then it hangs up and its lease is re-issued. The honest worker
    // starts once the broken one has its answer.
    let (reply_tx, reply_rx) = mpsc::channel();
    let broken = {
        let (addr, spec, rows) = (addr.clone(), spec.clone(), single.rows.clone());
        thread::spawn(move || {
            let (mut stream, lease_id, (start, _)) = take_lease(&addr);
            let row = &rows[usize::try_from(start).expect("small index")];
            let mut result = row.result.clone();
            result.peak_temp_c = f64::NAN;
            let line = encode_line(&cell_key(&spec, &row.cell), &result);
            write_msg(&mut stream, &Msg::ResultBatch { lease_id, rows: vec![(start, line)] })
                .expect("result batch");
            reply_tx.send(read_msg(&mut stream).expect("reply")).expect("hand over the reply");
        })
    };
    let honest = thread::spawn(move || {
        let reply = reply_rx.recv().expect("the broken worker got an answer");
        (reply, work(&addr, &WorkOptions::default()))
    });
    let dir = std::env::temp_dir().join(format!("therm3d-coord-nan-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut store = CacheStore::open(&dir).expect("open cache");
    let report = server.run(Some(&mut store), None).expect("campaign");
    broken.join().expect("broken thread");
    let (reply, summary) = honest.join().expect("honest thread");
    summary.expect("honest worker");

    match reply {
        Msg::Reject { reason } => {
            assert!(reason.contains("unphysical") && reason.contains("not finite"), "{reason}");
        }
        other => panic!("expected the batch to be rejected, got {other:?}"),
    }
    assert_eq!(report.csv(), single.csv(), "the NaN row never reached the report");
    drop(store);
    let stored =
        std::fs::read_to_string(dir.join(therm3d_sweep::cache::STORE_FILE)).expect("store");
    assert_eq!(stored.lines().count(), CELLS, "one stored line per cell, none of them the NaN row");
    assert!(!stored.contains("NaN"), "{stored}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Lines in the store file under `dir`.
fn stored_lines(dir: &std::path::Path) -> usize {
    std::fs::read_to_string(dir.join(therm3d_sweep::cache::STORE_FILE))
        .expect("store")
        .lines()
        .count()
}

#[test]
fn serve_answers_cached_cells_and_leases_only_the_rest() {
    let spec = spec("coord-warm");
    let single = therm3d_sweep::run(&spec).expect("single-process run").csv();
    let dir = std::env::temp_dir().join(format!("therm3d-coord-warm-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // Half the cells are already in the coordinator's cache.
    let mut store = CacheStore::open(&dir).expect("open cache");
    run_cells_with_telemetry(&spec, &[1, 3], Some(&mut store), None).expect("pre-fill");
    assert_eq!(stored_lines(&dir), CELLS / 2);

    let server = Server::bind(&spec, "127.0.0.1:0", &ServeOptions::default()).expect("bind");
    assert_eq!(server.lease_cells(), 1);
    let addr = server.local_addr().to_string();
    let worker = thread::spawn(move || work(&addr, &WorkOptions::default()));
    let report = server.run(Some(&mut store), None).expect("half-warm campaign");
    let summary = worker.join().expect("worker thread").expect("worker");
    assert_eq!(report.csv(), single, "cached and leased cells assemble byte-identically");
    assert_eq!(summary.cells, CELLS / 2, "only the missing cells were leased: {summary:?}");
    drop(store);
    assert_eq!(stored_lines(&dir), CELLS, "one stored line per cell");

    // Over the now-full cache the campaign completes with no worker at
    // all and appends nothing.
    let mut store = CacheStore::open(&dir).expect("reopen cache");
    let server = Server::bind(&spec, "127.0.0.1:0", &ServeOptions::default()).expect("bind");
    let report = server.run(Some(&mut store), None).expect("warm campaign");
    assert_eq!(report.csv(), single);
    drop(store);
    assert_eq!(stored_lines(&dir), CELLS, "a warm serve appends nothing");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_cached_cell_inside_a_lease_range_is_not_simulated_again() {
    let spec = spec("coord-split");
    let single = therm3d_sweep::run(&spec).expect("single-process run").csv();
    let dir = std::env::temp_dir().join(format!("therm3d-coord-split-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // One lease would cover the whole campaign, but cell 1 is cached.
    let mut store = CacheStore::open(&dir).expect("open cache");
    run_cells_with_telemetry(&spec, &[1], Some(&mut store), None).expect("pre-fill");
    let opts = ServeOptions { lease_cells: Some(CELLS), lease_timeout_ms: 60_000 };
    let server = Server::bind(&spec, "127.0.0.1:0", &opts).expect("bind");
    let addr = server.local_addr().to_string();
    let worker = thread::spawn(move || work(&addr, &WorkOptions::default()));
    let report = server.run(Some(&mut store), None).expect("campaign");
    let summary = worker.join().expect("worker thread").expect("worker");
    assert_eq!(report.csv(), single);
    // The range is split around the cached cell: 0..1, then 2..4.
    assert_eq!((summary.cells, summary.leases), (CELLS - 1, 2), "{summary:?}");
    drop(store);
    assert_eq!(stored_lines(&dir), CELLS, "one stored line per cell");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_worker_rejects_a_spec_with_a_shard_key() {
    // A coordinator from before static shards were removed still sends
    // `shard = "0/1"` in its Welcome; the worker fails with a typed
    // error instead of guessing.
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("address").to_string();
    let coordinator = thread::spawn(move || {
        let (mut stream, _) = listener.accept().expect("accept");
        assert!(matches!(read_msg(&mut stream).expect("hello"), Msg::Hello { .. }));
        let spec_toml = format!("{}shard = \"0/1\"\n", to_toml(&spec("coord-old")));
        let welcome = Msg::Welcome { spec_toml, total_cells: CELLS as u64, lease_cells: 1 };
        write_msg(&mut stream, &welcome).expect("welcome");
    });
    let err = work(&addr, &WorkOptions::default()).expect_err("an unknown key must fail");
    coordinator.join().expect("coordinator thread");
    assert!(err.contains("coordinator sent a bad spec") && err.contains("`shard`"), "{err}");
}

#[test]
fn serve_rejects_version_skew() {
    // A worker speaking a different engine version must be rejected at
    // handshake — mixing cache salts would poison the merged results.
    let server =
        Server::bind(&spec("coord-skew"), "127.0.0.1:0", &ServeOptions::default()).expect("bind");
    let addr = server.local_addr().to_string();
    let probe = thread::spawn(move || {
        let mut stream = TcpStream::connect(&addr).expect("connect");
        write_msg(
            &mut stream,
            &Msg::Hello { protocol: PROTOCOL_VERSION.into(), engine: "stale-engine/v0".into() },
        )
        .expect("hello");
        match read_msg(&mut stream).expect("reply") {
            Msg::Reject { reason } => assert!(reason.contains("version mismatch"), "{reason}"),
            other => panic!("expected rejection, got {other:?}"),
        }
    });
    // The handshake happens on a handler thread, and only `run`
    // accepts connections, so run a tiny campaign with a real worker
    // alongside the probe.
    let addr2 = server.local_addr().to_string();
    let worker = thread::spawn(move || work(&addr2, &WorkOptions::default()));
    server.run(None, None).expect("campaign");
    probe.join().expect("probe thread");
    worker.join().expect("worker thread").expect("worker");
}
