//! `therm3d_coord`: the campaign service — a coordinator that owns one
//! canonical sweep expansion and leases cell ranges to networked
//! workers, with work stealing via lease expiry and re-issue.
//!
//! PR 5's static `--shard K/N` split assumes homogeneous machines: one
//! slow or dead worker straggles the whole campaign. This crate
//! replaces the static split with dynamic leases over TCP:
//!
//! * [`wire`] — a zero-dependency, length-prefixed, FNV-checksummed
//!   frame codec and the protocol's nine messages
//!   (hello/welcome/lease-request/lease-grant/result-batch/heartbeat/
//!   drain/ack/reject). The on-wire layout is fingerprinted
//!   ([`wire::WIRE_FINGERPRINT`]) and guarded by `therm3d_lint`'s
//!   salt-drift rule, exactly like the sweep cache's cell descriptor.
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
//!   assembles the final [`SweepReport`] (and optionally a single
//!   `CacheStore`) in canonical order. Nothing on it polls or sleeps:
//!   every wait is on one condition variable.
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

pub mod campaign;
pub mod server;
pub mod wire;
pub mod worker;

pub use campaign::{default_lease_cells, Campaign, Grant, Lease};
pub use server::{ServeOptions, Server};
pub use wire::{Msg, WireError, MAX_FRAME, PROTOCOL_VERSION, WIRE_DESCRIPTOR, WIRE_FINGERPRINT};
pub use worker::{work, WorkOptions, WorkSummary};
