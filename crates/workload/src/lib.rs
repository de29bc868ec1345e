//! Workload characterization and synthetic trace generation for the
//! `therm3d` reproduction of "Dynamic Thermal Management in 3D Multicore
//! Architectures" (Coskun et al., DATE 2009).
//!
//! The crate encodes the paper's Table I benchmark statistics (average
//! utilization, L2 miss rates, FP mix of eight real server/desktop
//! workloads measured on an UltraSPARC T1) and generates statistically
//! matched synthetic job traces: modulated-Poisson arrivals with lognormal
//! CPU demands whose offered load equals the benchmark's measured average
//! utilization. A trace exists only as a lazy [`JobSource`] stream:
//! the generator emits one arrival-ordered job per call and never holds
//! the trace.
//!
//! # Quick start
//!
//! ```
//! use therm3d_workload::{Benchmark, JobSource, TraceConfig};
//!
//! // One minute of Web-med load for an 8-core system.
//! let mut jobs = TraceConfig::new(Benchmark::WebMed, 8, 60.0).stream();
//! let (mut n, mut work_s) = (0, 0.0);
//! while let Some(job) = jobs.next_job() {
//!     n += 1;
//!     work_s += job.work_s;
//! }
//! println!("{n} jobs, {work_s:.1} CPU-seconds");
//! ```

// Stdout carries the reports: a library writes diagnostics to stderr.
#![warn(clippy::print_stdout)]

pub mod benchmark;
pub mod gen;
pub mod job;
pub mod source;

pub use benchmark::{Benchmark, ParseBenchmarkError, WorkloadStats};
pub use gen::{TraceConfig, ZipfSampler};
pub use job::Job;
pub use source::{stream_mix, JobSource, MixStream, SourceCursor, TraceStream};
