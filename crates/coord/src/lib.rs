//! `therm3d_coord`: the campaign service — a coordinator that owns one
//! canonical sweep expansion and leases cell ranges to networked
//! workers, with work stealing via lease expiry and re-issue.
//!
//! This crate is the one place that decides how a campaign's cells map
//! to machines. Leases are dynamic: a fast worker takes more ranges, a
//! slow or dead one forfeits only what it holds, and every machine only
//! needs to reach the coordinator's TCP port:
//!
//! * [`wire`] — a length-prefixed, FNV-checksummed frame codec and
//!   the protocol's nine messages
//!   (hello/welcome/lease-request/lease-grant/result-batch/heartbeat/
//!   drain/ack/reject). The on-wire layout is fingerprinted
//!   ([`wire::WIRE_FINGERPRINT`]) and checked by the workspace's
//!   `tests/source_invariants.rs`, exactly like the sweep cache's cell
//!   descriptor.
//! * [`campaign`] — the pure lease state machine ([`Campaign`]):
//!   deadline-based expiry with an injected mock-testable clock (and
//!   the earliest deadline, [`Campaign::next_deadline`], for the server
//!   to wait on), immediate abandonment of a dead connection's leases,
//!   first-write dedup of duplicated results.
//! * [`server`] — `therm3d serve SPEC.toml --listen ADDR`: accepts
//!   workers on a blocking accept thread and grants leases; a lease
//!   request with nothing to lease blocks until a range is re-queued or
//!   the campaign drains. It expires each lease at its deadline,
//!   verifies every returned line against the canonical cell keys,
//!   gives workers a bounded wait to collect their drain, and
//!   assembles the final [`SweepReport`] in canonical order. With a
//!   `CacheStore` attached it answers the cells the store holds before
//!   leasing any, and adds the rest to it. Nothing on it polls or
//!   sleeps: every wait is on one condition variable.
//! * [`worker`] — `therm3d work --connect ADDR`: runs leased ranges
//!   through the ordinary sweep runner (cache, factor sharing,
//!   threads) and streams encoded rows back.
//!
//! **Determinism contract.** Seeds and content-addressed cell keys are
//! assignment-independent (PRs 2/5), so *any* schedule of cells onto
//! workers — including kills, expiries and double computation —
//! reproduces the byte-identical CSV of a single-process run. CI
//! SIGKILLs a worker mid-campaign and diffs exactly that.
//!
//! [`SweepReport`]: therm3d_sweep::SweepReport

// Stdout carries the reports: a library writes diagnostics to stderr.
#![warn(clippy::print_stdout)]

pub mod campaign;
pub mod server;
pub mod wire;
pub mod worker;

pub use campaign::{default_lease_cells, Campaign, Grant, Lease};
pub use server::{ServeOptions, Server};
pub use wire::{Msg, WireError, MAX_FRAME, PROTOCOL_VERSION, WIRE_DESCRIPTOR, WIRE_FINGERPRINT};
pub use worker::{work, WorkOptions, WorkSummary};
