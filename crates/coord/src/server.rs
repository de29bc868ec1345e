//! The campaign coordinator: owns the canonical expansion, leases cell
//! ranges to connected workers, and reassembles the byte-identical
//! report.
//!
//! A blocking accept thread hands each connection to a handler thread
//! of its own, which speaks the strict request/response protocol of
//! [`crate::wire`]. All bookkeeping — the [`Campaign`] and the count of
//! live connections — sits behind one mutex with one condition
//! variable that every change signals, so the protocol threads are
//! plain executors with no scheduling logic and nothing on the
//! coordinator polls:
//!
//! * a `LeaseRequest` with nothing to lease blocks until a range is
//!   re-queued or the campaign drains, then answers `LeaseGrant` or
//!   `Drain`;
//! * [`Server::run`] waits until the campaign completes or the earliest
//!   lease deadline ([`Campaign::next_deadline`]) passes, so a lease
//!   expires at its deadline;
//! * after completion, `run` waits at most 200 ms for the workers to
//!   collect their `Drain` and hang up, then closes what is left open.
//!
//! Dead workers are detected two ways: a dropped connection abandons
//! its leases immediately (the SIGKILL case), and a lease whose
//! deadline passes without results or heartbeats expires (the hung
//! case). Both re-queue the range and wake the blocked lease requests.
//!
//! Determinism contract: cells keep their canonical indices, derived
//! seeds and cache keys no matter which worker computes them, so the
//! assembled [`SweepReport`] — and its CSV — is byte-identical to a
//! single-process `therm3d sweep` of the same spec. CI kills a worker
//! mid-campaign and diffs exactly that.

use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use therm3d_sweep::shard::ShardSpec;
use therm3d_sweep::{
    cell_key, decode_line, expand, to_toml, CacheStore, SweepCell, SweepReport, SweepRow,
    ENGINE_VERSION,
};
use therm3d_telemetry::Progress;

use crate::campaign::{default_lease_cells, Campaign, Grant};
use crate::wire::{read_msg, write_msg, Msg, WireError, PROTOCOL_VERSION};

/// Coordinator tuning knobs (the spec itself arrives separately).
#[derive(Debug, Clone, Default)]
pub struct ServeOptions {
    /// Cells per lease; `None` = [`default_lease_cells`] of the
    /// expansion size.
    pub lease_cells: Option<usize>,
    /// Milliseconds a lease may go without results or heartbeats
    /// before its range is re-issued. `0` = the 30 s default.
    pub lease_timeout_ms: u64,
}

const DEFAULT_LEASE_TIMEOUT_MS: u64 = 30_000;
/// Longest wait after completion for workers to collect their `Drain`
/// and hang up; connections still open then are closed.
const DRAIN_GRACE_MS: u64 = 200;
const LOCK: &str = "coordinator state lock poisoned by a panicked handler";

/// Everything that changes during a campaign. It sits behind one mutex,
/// and [`Shared::changed`] is signalled after every change.
struct State {
    campaign: Campaign,
    /// Connections accepted so far; the next one is `w{accepted + 1}`.
    accepted: usize,
    /// Handler threads still running.
    live: usize,
    /// Why the accept thread stopped before the campaign completed.
    accept_error: Option<String>,
}

/// Everything the accept and handler threads share.
struct Shared {
    state: Mutex<State>,
    changed: Condvar,
    /// Expected `CellKey::hex()` per canonical index — incoming result
    /// lines are verified against these before they are accepted.
    expected_hex: Vec<String>,
    spec_toml: String,
    total: u64,
    lease_cells: u64,
    progress: Option<Progress>,
    epoch: Instant,
}

impl Shared {
    /// Campaign-relative wall time for lease deadlines.
    fn now_ms(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_millis()).unwrap_or(u64::MAX)
    }

    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().expect(LOCK)
    }

    /// Applies `f` under the lock, then wakes every waiter to re-check
    /// its condition.
    fn update<R>(&self, f: impl FnOnce(&mut State) -> R) -> R {
        let out = f(&mut self.lock());
        self.changed.notify_all();
        out
    }
}

/// A connection's handler thread and a second handle on its socket, so
/// [`Server::run`] can close a connection that outlives the campaign.
type Handler = (TcpStream, JoinHandle<()>);

/// A bound coordinator, ready to [`run`](Server::run). Binding is
/// separate from running so callers (the CLI's `--port-file`, the
/// loopback tests) can learn the OS-assigned address before any worker
/// connects.
pub struct Server {
    listener: TcpListener,
    local_addr: SocketAddr,
    spec_name: String,
    cells: Vec<SweepCell>,
    shared: Arc<Shared>,
}

impl Server {
    /// Validates `spec`, expands the canonical matrix and binds the
    /// listening socket (use port 0 for an OS-assigned port).
    ///
    /// # Errors
    ///
    /// An invalid or sharded spec (the coordinator owns the split —
    /// leases replace `--shard`), an empty expansion, or a bind
    /// failure.
    pub fn bind(
        spec: &therm3d_sweep::SweepSpec,
        listen: &str,
        opts: &ServeOptions,
    ) -> Result<Self, String> {
        spec.validate()?;
        if !spec.shard.is_full() {
            return Err(format!(
                "'{}' is sharded ({}); `serve` owns the whole matrix — remove the shard and let \
                 leases do the splitting",
                spec.name, spec.shard
            ));
        }
        let cells = expand(spec);
        if cells.is_empty() {
            return Err(format!("'{}' expands to zero cells", spec.name));
        }
        let total = cells.len();
        let lease_cells =
            opts.lease_cells.unwrap_or_else(|| default_lease_cells(total)).clamp(1, total);
        let timeout_ms = if opts.lease_timeout_ms == 0 {
            DEFAULT_LEASE_TIMEOUT_MS
        } else {
            opts.lease_timeout_ms
        };
        let expected_hex = cells.iter().map(|cell| cell_key(spec, cell).hex()).collect();
        let listener =
            TcpListener::bind(listen).map_err(|e| format!("cannot listen on {listen}: {e}"))?;
        let local_addr =
            listener.local_addr().map_err(|e| format!("cannot read bound address: {e}"))?;
        // lint: allow(no-wall-clock): lease-deadline bookkeeping only — results stay a pure function of the spec
        let epoch = Instant::now();
        Ok(Self {
            listener,
            local_addr,
            spec_name: spec.name.clone(),
            shared: Arc::new(Shared {
                state: Mutex::new(State {
                    campaign: Campaign::new(total, lease_cells, timeout_ms),
                    accepted: 0,
                    live: 0,
                    accept_error: None,
                }),
                changed: Condvar::new(),
                expected_hex,
                spec_toml: to_toml(spec),
                total: total as u64,
                lease_cells: lease_cells as u64,
                progress: None,
                epoch,
            }),
            cells,
        })
    }

    /// The bound address (resolves port 0).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Cells per lease this coordinator grants.
    #[must_use]
    pub fn lease_cells(&self) -> usize {
        self.shared.lease_cells as usize
    }

    /// Runs the campaign to completion: accepts workers, leases ranges,
    /// expires each lease at its deadline, and — once every cell has a
    /// verified result and the workers have been drained — assembles
    /// the canonical [`SweepReport`] (inserting each result into
    /// `cache` when one is attached, so a warm re-run simulates
    /// nothing).
    ///
    /// # Errors
    ///
    /// Socket errors on the listener, or a corrupt stored result line
    /// (which the arrival-time verification makes unreachable short of
    /// memory corruption).
    pub fn run(
        mut self,
        cache: Option<&mut CacheStore>,
        progress: Option<Progress>,
    ) -> Result<SweepReport, String> {
        if let Some(p) = &progress {
            p.begin(self.cells.len(), 1);
        }
        // Publish the progress reporter to the handler threads. No
        // handler exists yet, so the Arc has exactly one owner here.
        Arc::get_mut(&mut self.shared).expect("no handlers yet").progress = progress;
        let listener =
            self.listener.try_clone().map_err(|e| format!("cannot share the listener: {e}"))?;
        eprintln!(
            "coord: '{}' listening on {} — {} cells, lease size {}",
            self.spec_name, self.local_addr, self.shared.total, self.shared.lease_cells
        );
        let shared = Arc::clone(&self.shared);
        // lint: allow(no-thread-spawn): the blocking accept loop is protocol I/O — cells run in worker processes via the sweep runner
        let acceptor = std::thread::spawn(move || accept_loop(&listener, &shared));
        self.wait_for_completion()?;
        if let Some(p) = &self.shared.progress {
            p.finish();
        }
        // The accept thread is blocked in `accept`: a connection of our
        // own wakes it, it sees the finished campaign and returns.
        let handlers = match TcpStream::connect(wake_addr(self.local_addr)) {
            Ok(_) => acceptor.join().map_err(|_| "the accept thread panicked".to_owned())?,
            Err(e) => {
                eprintln!("coord: cannot wake the accept thread ({e}); leaving it detached");
                Vec::new()
            }
        };
        self.drain(handlers);
        self.assemble(cache)
    }

    /// Blocks until every cell has a verified result, expiring each
    /// lease once its deadline passes.
    fn wait_for_completion(&self) -> Result<(), String> {
        let shared = &self.shared;
        let mut state = shared.lock();
        loop {
            let now = shared.now_ms();
            let expired = state.campaign.expire(now);
            for lease in &expired {
                eprintln!(
                    "coord: lease {} (cells {}..{}) for {} expired; range re-issued",
                    lease.id,
                    lease.start,
                    lease.start + lease.len,
                    lease.worker
                );
            }
            if !expired.is_empty() {
                // Blocked lease requests can take the re-queued ranges.
                shared.changed.notify_all();
            }
            if state.campaign.is_complete() {
                eprintln!(
                    "coord: campaign complete — {} cells from {} worker(s), {} lease(s) re-issued",
                    shared.total,
                    state.accepted,
                    state.campaign.reissue_count()
                );
                return Ok(());
            }
            if let Some(e) = state.accept_error.take() {
                return Err(e);
            }
            state = match state.campaign.next_deadline() {
                // `expire` retires a lease once the clock is past its
                // deadline, hence the extra millisecond.
                Some(deadline) => {
                    let wait =
                        Duration::from_millis(deadline.saturating_sub(now).saturating_add(1));
                    shared.changed.wait_timeout(state, wait).expect(LOCK).0
                }
                None => shared.changed.wait(state).expect(LOCK),
            };
        }
    }

    /// Gives the workers up to [`DRAIN_GRACE_MS`] to collect their
    /// `Drain` and hang up, closes the connections still open after
    /// that, and joins every handler.
    fn drain(&self, handlers: Vec<Handler>) {
        let grace = Duration::from_millis(DRAIN_GRACE_MS);
        drop(self.shared.changed.wait_timeout_while(self.shared.lock(), grace, |s| s.live > 0));
        for (socket, handler) in handlers {
            // Unblocks the read of a handler whose worker is still
            // connected; a no-op for one that already hung up.
            let _ = socket.shutdown(Shutdown::Both);
            if handler.join().is_err() {
                eprintln!("coord: a connection handler panicked");
            }
        }
    }

    /// Decodes the stored result lines back into rows in canonical
    /// order — the byte-identical single-process report.
    fn assemble(&self, mut cache: Option<&mut CacheStore>) -> Result<SweepReport, String> {
        let state = self.shared.lock();
        let done = state.campaign.done_rows();
        let mut rows = Vec::with_capacity(self.cells.len());
        for (i, cell) in self.cells.iter().enumerate() {
            let line = done.get(&i).ok_or_else(|| format!("internal: cell {i} has no result"))?;
            let (key, result) =
                decode_line(line).ok_or_else(|| format!("internal: cell {i} line corrupt"))?;
            if let Some(store) = cache.as_deref_mut() {
                store.insert(&key, &result).map_err(|e| e.to_string())?;
            }
            rows.push(SweepRow { key: key.hex(), cell: cell.clone(), result, timing: None });
        }
        Ok(SweepReport { name: self.spec_name.clone(), shard: ShardSpec::FULL, rows })
    }
}

/// Where [`Server::run`] connects to wake its own accept thread: the
/// bound address, with an unspecified IP (`0.0.0.0`, `::`) mapped to
/// loopback.
fn wake_addr(bound: SocketAddr) -> SocketAddr {
    let mut addr = bound;
    if addr.ip().is_unspecified() {
        addr.set_ip(match addr {
            SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }
    addr
}

/// Accepts connections until the campaign is complete, starting one
/// handler thread per connection. An accept failure is recorded for
/// [`Server::run`] to report.
fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) -> Vec<Handler> {
    let mut handlers = Vec::new();
    loop {
        let accepted =
            listener.accept().and_then(|(stream, peer)| Ok((stream.try_clone()?, stream, peer)));
        let (socket, stream, peer) = match accepted {
            Ok(conn) => conn,
            Err(e) => {
                shared.update(|s| s.accept_error = Some(format!("accept failed: {e}")));
                return handlers;
            }
        };
        let worker = {
            let mut state = shared.lock();
            // The wake-up connection from `run`, or a worker too late
            // to help: either way the campaign is over.
            if state.campaign.is_complete() {
                return handlers;
            }
            state.accepted += 1;
            state.live += 1;
            format!("w{}", state.accepted)
        };
        eprintln!("coord: {worker} connected from {peer}");
        let shared = Arc::clone(shared);
        // lint: allow(no-thread-spawn): protocol I/O threads — cell execution happens in worker processes via the sweep runner
        let handler = std::thread::spawn(move || handle_worker(stream, &worker, &shared));
        handlers.push((socket, handler));
    }
}

/// Converts and verifies one incoming result batch: indices in range,
/// lines that decode under the cache codec, keys matching the
/// canonical expansion. Any failure rejects the whole batch — a worker
/// sending wrong keys is running different semantics and must not
/// contribute.
fn verify_rows(shared: &Shared, rows: &[(u64, String)]) -> Result<Vec<(usize, String)>, String> {
    let mut out = Vec::with_capacity(rows.len());
    for (raw_index, line) in rows {
        let index = usize::try_from(*raw_index).map_err(|_| format!("cell index {raw_index}"))?;
        let expected = shared
            .expected_hex
            .get(index)
            .ok_or_else(|| format!("cell index {index} out of range"))?;
        let (key, _) =
            decode_line(line).ok_or_else(|| format!("cell {index}: corrupt result line"))?;
        if key.hex() != *expected {
            return Err(format!(
                "cell {index}: key {} does not match canonical {expected} — engine mismatch?",
                key.hex()
            ));
        }
        out.push((index, line.clone()));
    }
    Ok(out)
}

/// Runs one worker connection to its end, then abandons whatever leases
/// the worker still holds so they are re-issued.
fn handle_worker(mut stream: TcpStream, worker: &str, shared: &Shared) {
    converse(&mut stream, worker, shared);
    let lost = shared.update(|s| {
        s.live -= 1;
        s.campaign.abandon_worker(worker)
    });
    for lease in lost {
        eprintln!(
            "coord: {worker} died holding lease {} (cells {}..{}); range re-issued",
            lease.id,
            lease.start,
            lease.start + lease.len
        );
    }
}

/// Speaks the protocol with one worker: handshake, then the lease loop,
/// until the peer disconnects, the campaign drains, or an error.
fn converse(stream: &mut TcpStream, worker: &str, shared: &Shared) {
    let _ = stream.set_nodelay(true);
    match read_msg(stream) {
        Ok(Msg::Hello { protocol, engine }) => {
            if protocol != PROTOCOL_VERSION || engine != ENGINE_VERSION {
                let reason = format!(
                    "version mismatch: coordinator speaks {PROTOCOL_VERSION} / {ENGINE_VERSION}, \
                     worker speaks {protocol} / {engine}"
                );
                eprintln!("coord: {worker} rejected — {reason}");
                let _ = write_msg(stream, &Msg::Reject { reason });
                return;
            }
        }
        Ok(_) | Err(_) => {
            let _ = write_msg(
                stream,
                &Msg::Reject { reason: "expected hello as the first message".into() },
            );
            return;
        }
    }
    let welcome = Msg::Welcome {
        spec_toml: shared.spec_toml.clone(),
        total_cells: shared.total,
        lease_cells: shared.lease_cells,
    };
    if write_msg(stream, &welcome).is_err() {
        return;
    }
    loop {
        let reply = match read_msg(stream) {
            Ok(Msg::LeaseRequest) => lease_blocking(worker, shared),
            Ok(Msg::ResultBatch { lease_id, rows }) => match verify_rows(shared, &rows) {
                Ok(verified) => {
                    let now = shared.now_ms();
                    match shared.update(|s| s.campaign.complete(lease_id, verified, now)) {
                        Ok(fresh) => {
                            if let Some(p) = &shared.progress {
                                for _ in 0..fresh {
                                    p.cell_done(false);
                                }
                            }
                            Msg::Ack
                        }
                        Err(reason) => Msg::Reject { reason },
                    }
                }
                Err(reason) => {
                    eprintln!("coord: {worker} batch rejected — {reason}");
                    Msg::Reject { reason }
                }
            },
            Ok(Msg::Heartbeat { lease_id }) => {
                let now = shared.now_ms();
                shared.update(|s| s.campaign.heartbeat(lease_id, now));
                Msg::Ack
            }
            Ok(other) => {
                let _ = write_msg(
                    stream,
                    &Msg::Reject { reason: format!("unexpected message: {other:?}") },
                );
                return;
            }
            Err(WireError::Closed) => return,
            Err(e) => {
                eprintln!("coord: {worker} connection error: {e}");
                return;
            }
        };
        if write_msg(stream, &reply).is_err() {
            return;
        }
    }
}

/// Answers a `LeaseRequest`: the next range, or `Drain` once every cell
/// is done. While other workers hold all the remaining ranges the
/// request waits until one is re-queued or the campaign completes.
fn lease_blocking(worker: &str, shared: &Shared) -> Msg {
    let mut state = shared.lock();
    loop {
        match state.campaign.lease(worker, shared.now_ms()) {
            Grant::Range { lease_id, start, len } => {
                drop(state);
                // The new lease's deadline may be the one `run` waits for.
                shared.changed.notify_all();
                eprintln!("coord: lease {lease_id} -> {worker}: cells {start}..{}", start + len);
                return Msg::LeaseGrant { lease_id, start: start as u64, len: len as u64 };
            }
            Grant::Drain => return Msg::Drain,
            Grant::Wait => state = shared.changed.wait(state).expect(LOCK),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wake_addr_maps_unspecified_ips_to_loopback() {
        let wake = |bound: &str| wake_addr(bound.parse().expect("socket address")).to_string();
        assert_eq!(wake("0.0.0.0:7103"), "127.0.0.1:7103");
        assert_eq!(wake("[::]:7103"), "[::1]:7103");
        assert_eq!(wake("10.0.0.5:7103"), "10.0.0.5:7103", "a specific IP is kept");
    }
}
