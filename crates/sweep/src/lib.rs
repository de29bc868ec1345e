//! `therm3d_sweep`: declarative, parallel scenario-sweep orchestration
//! for the therm3d DATE 2009 reproduction.
//!
//! The paper evaluates every policy × experiment × DPM × workload
//! combination by replaying traces and comparing hot-spot, gradient and
//! cycling metrics. This crate turns that combinatorial pattern into a
//! subsystem:
//!
//! 1. [`SweepSpec`] — a declarative scenario description (builder API,
//!    or a TOML file via [`from_toml`]/[`to_toml`]) with axes over
//!    experiments, stack orders, TSV/interlayer variants,
//!    sensor-fidelity profiles, integrators, policies, DPM, benchmarks
//!    and trace seeds;
//! 2. [`expand`] — deterministic cross-product expansion into a run
//!    matrix of [`SweepCell`]s, each a pure function of the spec (seeds
//!    derived per cell, never from scheduling order);
//! 3. [`run`] — parallel execution across worker threads, one
//!    `Simulator` per cell, each fed by its own fresh job stream
//!    ([`stream_mix`](therm3d_workload::stream_mix)) through
//!    `Simulator::run_source`;
//! 4. [`SweepReport`] — typed aggregation with CSV/JSON export and
//!    paper-style text tables; results are bit-identical for any thread
//!    count;
//! 5. [`cache`] — persistent, content-addressed memoization: every cell
//!    resolves to a stable [`cell_key`] (FNV-64 of its fully-resolved
//!    descriptor plus an engine-version salt), and [`run_with_cache`]
//!    looks results up in a [`CacheStore`] before simulating, so
//!    re-running a grown spec only simulates the new cells. Reports are
//!    byte-identical for any hit/miss mix; see the [`cache`] module
//!    docs for the store layout and invalidation rules.
//!
//! Splitting one matrix across machines is `therm3d_coord`'s job: its
//! coordinator leases canonical cell ranges to workers, which run them
//! through [`run_cells_with_telemetry`].
//!
//! Failures are typed ([`SweepError`]): an invalid spec, a cell whose
//! simulation panicked (named, instead of poisoning the whole
//! campaign), or a cache I/O problem.
//!
//! The `therm3d` CLI (`sweep`, `check`, `serve`) and the ablation
//! binaries are thin layers over this crate. The paper's Figures 3–6
//! are two spec files, `examples/paper_fig3.toml` and
//! `examples/paper_fig4_6.toml`.
//!
//! # Quick start
//!
//! ```
//! use therm3d_floorplan::Experiment;
//! use therm3d_policies::PolicyKind;
//! use therm3d_sweep::SweepSpec;
//! use therm3d_workload::Benchmark;
//!
//! let spec = SweepSpec::new("quickstart")
//!     .with_experiments(&[Experiment::Exp1])
//!     .with_policies(&[PolicyKind::Default, PolicyKind::Adapt3d])
//!     .with_benchmarks(&[Benchmark::Gzip])
//!     .with_sim_seconds(4.0)
//!     .with_grid(4, 4);
//! let report = therm3d_sweep::run(&spec).unwrap();
//! assert_eq!(report.rows.len(), 2);
//! println!("{}", report.render());
//! ```

// Stdout carries the reports: a library writes diagnostics to stderr.
#![warn(clippy::print_stdout)]

pub mod cache;
pub mod error;
pub mod matrix;
pub mod report;
pub mod runner;
pub mod spec;
pub mod telemetry;
pub mod toml;

pub use cache::{
    cell_key, decode_line, encode_line, fnv1a64, CacheStats, CacheStore, CellKey, CompactStats,
    DESCRIPTOR_FINGERPRINT, ENGINE_VERSION,
};
pub use error::SweepError;
pub use matrix::{derive_policy_seed, derive_sensor_seed, expand, SweepCell};
pub use report::{csv_header, csv_row, sweep_csv_header, SweepReport, SweepRow, CSV_HEADER};
pub use runner::{
    effective_threads, model_fingerprint, run, run_cell, run_cells_with_telemetry, run_with_cache,
    run_with_telemetry, sim_config,
};
pub use spec::{parse_sim_seconds, sim_seconds_from_env, SweepSpec};
pub use telemetry::RunTelemetry;
pub use toml::{from_toml, to_toml};
