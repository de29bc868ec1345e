//! Loopback integration tests for the campaign service: a coordinator
//! and in-process workers on 127.0.0.1 must reproduce the
//! byte-identical report of a single-process sweep — including when a
//! worker takes a lease and dies or hangs without ever reporting.
//! Threads are ordered with channels, never with sleeps.
//! (`tests/` is outside the workspace lint's thread-spawn scope; the
//! product code keeps cell execution in worker processes.)

use std::io::Write;
use std::net::TcpStream;
use std::sync::mpsc;
use std::thread;
use std::time::Duration;

use therm3d_coord::wire::{read_msg, write_msg, Msg, PROTOCOL_VERSION};
use therm3d_coord::{work, ServeOptions, Server, WorkOptions};
use therm3d_floorplan::Experiment;
use therm3d_policies::PolicyKind;
use therm3d_sweep::{SweepSpec, ENGINE_VERSION};
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
/// returning the open connection and the granted `(start, len)`.
fn take_lease(addr: &str) -> (TcpStream, (u64, u64)) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    write_msg(
        &mut stream,
        &Msg::Hello { protocol: PROTOCOL_VERSION.into(), engine: ENGINE_VERSION.into() },
    )
    .expect("hello");
    assert!(matches!(read_msg(&mut stream).expect("welcome"), Msg::Welcome { .. }));
    write_msg(&mut stream, &Msg::LeaseRequest).expect("lease request");
    match read_msg(&mut stream).expect("grant") {
        Msg::LeaseGrant { start, len, .. } => (stream, (start, len)),
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
            let (stream, (_, len)) = take_lease(&addr);
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
            let (stream, range) = take_lease(&addr);
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
fn serve_rejects_sharded_specs_and_version_skew() {
    let sharded = spec("coord-sharded").with_shard(therm3d_sweep::ShardSpec { index: 0, count: 2 });
    let err = match Server::bind(&sharded, "127.0.0.1:0", &ServeOptions::default()) {
        Err(e) => e,
        Ok(_) => panic!("sharded spec must not bind"),
    };
    assert!(err.contains("sharded"), "{err}");

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
