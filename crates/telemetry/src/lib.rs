//! `therm3d_telemetry`: observability primitives for the therm3d
//! DATE 2009 reproduction — a lock-light metrics registry, a span-timing
//! API for the simulation hot path, and sinks that stream campaign
//! progress without touching stdout.
//!
//! The crate exists to open up the sweep engine's black box (PRs 1–5
//! built a distributed, cache-backed campaign runner whose only runtime
//! signal was a single stderr cache line) while preserving the two
//! invariants the rest of the workspace is built on:
//!
//! 1. **stdout is sacred.** Every sink here writes to stderr or to a
//!    sidecar file the caller names explicitly. Report CSV/JSON on
//!    stdout stays byte-identical whether telemetry is on or off — CI
//!    diffs the two.
//! 2. **Disabled means free.** A disabled [`Registry`] turns
//!    [`Span::enter`] into one relaxed atomic load: no clock read, no
//!    allocation, nothing in the engine's allocation-free tick loop.
//!
//! The pieces:
//!
//! - [`Counter`] / [`Gauge`] / [`Histogram`] — atomic metric
//!   primitives; histograms use fixed microsecond bucket edges so
//!   snapshots from different processes merge exactly.
//! - [`Registry`] — a name-keyed store of those primitives. Reads take
//!   a shared lock only on first lookup per name; updates are pure
//!   atomics. [`global()`] is the process-wide instance used by
//!   in-engine spans; embedders (the sweep runner) create private
//!   registries so parallel runs do not interleave.
//! - [`Span`] — monotonic-clock scope timing
//!   (`Span::enter("factor_numeric")`), nestable, recorded into a
//!   histogram on drop.
//! - [`MetricsSnapshot`] — a deterministic (BTree-ordered) snapshot
//!   with hand-rolled JSON serialization *and* parsing, so
//!   `--metrics-out` files round-trip without serde.
//! - [`EventSink`] — a JSONL stream of per-cell lifecycle events
//!   (start / cache-hit / finish / panic) for `--trace-out`.
//! - [`Progress`] — a throttled, single-line stderr progress reporter
//!   for `--progress` (cells done/total, cells/s, hit rate, ETA).
//! - [`CountingAllocator`] — an opt-in, per-binary counting global
//!   allocator (live / high-water bytes, allocation counts) backing the
//!   throughput-mode memory gauges and the allocation-count tests; its
//!   readers are inert zeros when not installed.

// Stdout carries the reports: a library writes diagnostics to stderr.
#![warn(clippy::print_stdout)]

pub mod alloc;
pub mod events;
pub mod json;
pub mod metrics;
pub mod progress;
pub mod registry;
pub mod snapshot;
pub mod span;

pub use alloc::CountingAllocator;
pub use events::{Event, EventSink};
pub use json::Json;
pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot, DEFAULT_US_EDGES};
pub use progress::Progress;
pub use registry::{global, Registry};
pub use snapshot::{CellMetrics, MetricsSnapshot};
pub use span::{elapsed_us, Span};
