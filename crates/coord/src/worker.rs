//! The campaign worker: connects to a coordinator, leases cell ranges
//! and runs them through the ordinary sweep runner.
//!
//! The worker owns no scheduling decisions — it asks, computes, and
//! reports, in a strict request/response loop. While other workers
//! hold every remaining range, the coordinator answers a lease request
//! only once a range is re-queued or the campaign drains, so the worker
//! never retries on a timer. Each leased range is
//! executed with [`therm3d_sweep::run_cells_with_telemetry`], i.e. the
//! exact cache-lookup/factor-sharing/thread-pool path a local sweep
//! uses, and each finished cell is shipped back as the cache codec's
//! checksummed line ([`therm3d_sweep::encode_line`]), so the
//! coordinator can verify every byte against the canonical expansion.

use std::net::TcpStream;
use std::path::PathBuf;
use std::time::Duration;

use therm3d_sweep::{
    cell_key, encode_line, from_toml, run_cells_with_telemetry, CacheStore, SweepReport, SweepSpec,
    ENGINE_VERSION,
};

use crate::wire::{read_msg, write_msg, Msg, PROTOCOL_VERSION};

/// Worker-side knobs.
#[derive(Debug, Clone, Default)]
pub struct WorkOptions {
    /// Worker-thread override for the leased cells' runner (`None` =
    /// the spec's own `threads`).
    pub threads: Option<usize>,
    /// Optional local result cache (lookups and write-backs as in a
    /// local sweep).
    pub cache_dir: Option<PathBuf>,
    /// Test/ops knob: with a value > 0 the worker computes its lease
    /// one cell at a time, streaming each result immediately and
    /// sleeping this many milliseconds (with a heartbeat) between
    /// cells — slow enough for CI to kill a worker *mid-lease*
    /// deterministically.
    pub throttle_ms: u64,
}

/// What a finished worker did, for logging and tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkSummary {
    /// Cells computed and acknowledged by the coordinator.
    pub cells: usize,
    /// Leases this worker completed work under.
    pub leases: usize,
}

fn send_expect_ack(stream: &mut TcpStream, msg: &Msg) -> Result<(), String> {
    write_msg(stream, msg).map_err(|e| format!("send failed: {e}"))?;
    match read_msg(stream).map_err(|e| format!("coordinator went away: {e}"))? {
        Msg::Ack => Ok(()),
        Msg::Reject { reason } => Err(format!("coordinator rejected: {reason}")),
        other => Err(format!("expected ack, got {other:?}")),
    }
}

/// Runs the cells of one lease and streams the encoded rows back.
/// Returns how many cells were shipped.
fn run_lease(
    stream: &mut TcpStream,
    spec: &SweepSpec,
    cache: &mut Option<CacheStore>,
    opts: &WorkOptions,
    lease_id: u64,
    indices: &[usize],
) -> Result<usize, String> {
    let encode_rows = |report: &SweepReport| -> Vec<(u64, String)> {
        report
            .rows
            .iter()
            .map(|row| {
                let key = cell_key(spec, &row.cell);
                (row.cell.index as u64, encode_line(&key, &row.result))
            })
            .collect()
    };
    if opts.throttle_ms == 0 {
        let report = run_cells_with_telemetry(spec, indices, cache.as_mut(), None)
            .map_err(|e| e.to_string())?;
        let rows = encode_rows(&report);
        let shipped = rows.len();
        send_expect_ack(stream, &Msg::ResultBatch { lease_id, rows })?;
        return Ok(shipped);
    }
    // Throttled: one cell per batch, heartbeat + pause between cells.
    let mut shipped = 0;
    for (k, &index) in indices.iter().enumerate() {
        if k > 0 {
            send_expect_ack(stream, &Msg::Heartbeat { lease_id })?;
            std::thread::sleep(Duration::from_millis(opts.throttle_ms));
        }
        let report = run_cells_with_telemetry(spec, &[index], cache.as_mut(), None)
            .map_err(|e| e.to_string())?;
        let rows = encode_rows(&report);
        shipped += rows.len();
        send_expect_ack(stream, &Msg::ResultBatch { lease_id, rows })?;
    }
    Ok(shipped)
}

/// Connects to a coordinator at `connect` and works until drained:
/// handshake, then lease → compute → report until the coordinator says
/// the campaign is complete.
///
/// # Errors
///
/// Connection/protocol failures, a coordinator rejection (version
/// mismatch, bad rows), an unparseable spec, or a cell whose
/// simulation fails.
pub fn work(connect: &str, opts: &WorkOptions) -> Result<WorkSummary, String> {
    let mut stream =
        TcpStream::connect(connect).map_err(|e| format!("cannot connect to {connect}: {e}"))?;
    let _ = stream.set_nodelay(true);
    write_msg(
        &mut stream,
        &Msg::Hello { protocol: PROTOCOL_VERSION.into(), engine: ENGINE_VERSION.into() },
    )
    .map_err(|e| format!("handshake send failed: {e}"))?;
    let (spec_toml, total_cells, lease_cells) =
        match read_msg(&mut stream).map_err(|e| format!("handshake read failed: {e}"))? {
            Msg::Welcome { spec_toml, total_cells, lease_cells } => {
                (spec_toml, total_cells, lease_cells)
            }
            Msg::Reject { reason } => return Err(format!("coordinator rejected: {reason}")),
            other => return Err(format!("expected welcome, got {other:?}")),
        };
    let mut spec =
        from_toml(&spec_toml).map_err(|e| format!("coordinator sent a bad spec: {e}"))?;
    if let Some(threads) = opts.threads {
        spec.threads = threads;
    }
    let mut cache = match &opts.cache_dir {
        Some(dir) => Some(CacheStore::open(dir).map_err(|e| e.to_string())?),
        None => None,
    };
    eprintln!(
        "work: joined campaign '{}' at {connect} — {total_cells} cells, lease size {lease_cells}",
        spec.name
    );
    let mut summary = WorkSummary { cells: 0, leases: 0 };
    loop {
        write_msg(&mut stream, &Msg::LeaseRequest)
            .map_err(|e| format!("lease request failed: {e}"))?;
        match read_msg(&mut stream).map_err(|e| format!("coordinator went away: {e}"))? {
            Msg::LeaseGrant { lease_id, start, len } => {
                let start =
                    usize::try_from(start).map_err(|_| format!("lease start {start} overflows"))?;
                let end = usize::try_from(len)
                    .ok()
                    .and_then(|len| start.checked_add(len))
                    .filter(|&end| end > start)
                    .ok_or_else(|| format!("lease {lease_id} has a bad length {len}"))?;
                let indices: Vec<usize> = (start..end).collect();
                eprintln!("work: lease {lease_id}: cells {start}..{end}");
                summary.cells +=
                    run_lease(&mut stream, &spec, &mut cache, opts, lease_id, &indices)?;
                summary.leases += 1;
            }
            Msg::Drain => break,
            Msg::Reject { reason } => return Err(format!("coordinator rejected: {reason}")),
            other => return Err(format!("unexpected message: {other:?}")),
        }
    }
    eprintln!("work: drained — {} cell(s) over {} lease(s)", summary.cells, summary.leases);
    Ok(summary)
}
