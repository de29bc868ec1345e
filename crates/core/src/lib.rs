//! `therm3d`: a simulator for dynamic thermal management in 3D multicore
//! architectures — a from-scratch Rust reproduction of Coskun, Ayala,
//! Atienza, Rosing & Leblebici, "Dynamic Thermal Management in 3D
//! Multicore Architectures", DATE 2009.
//!
//! The crate couples five substrates into the paper's experimental loop:
//!
//! 1. [`therm3d_floorplan`] — UltraSPARC T1-derived 3D stacks (EXP-1..4),
//! 2. [`therm3d_thermal`] — a HotSpot-style RC grid thermal solver,
//! 3. [`therm3d_power`] — state-based power with DVFS and leakage feedback,
//! 4. [`therm3d_workload`] — Table I benchmarks and synthetic job traces,
//! 5. [`therm3d_policies`] — all eleven DTM policies including Adapt3D.
//!
//! Every 100 ms tick the [`Simulator`] reads the thermal sensors, lets the
//! policy steer placement/DVFS/gating/sleep, executes the dispatch queues,
//! evaluates power (leakage at current temperature), and advances the RC
//! thermal network; [`therm3d_metrics`] trackers accumulate the hot-spot,
//! gradient, cycle and performance numbers of Figures 3–6.
//!
//! # Quick start
//!
//! ```
//! use therm3d::{SimConfig, Simulator};
//! use therm3d_floorplan::Experiment;
//! use therm3d_policies::PolicyKind;
//! use therm3d_workload::{Benchmark, TraceConfig};
//!
//! let exp = Experiment::Exp2;
//! let stack = exp.stack();
//! let policy = PolicyKind::Adapt3d.build(&stack, 0xACE1);
//! let trace = TraceConfig::new(Benchmark::WebMed, stack.num_cores(), 5.0).generate();
//! let mut sim = Simulator::new(SimConfig::fast(exp), policy);
//! let result = sim.run(&trace, 5.0);
//! println!("{result}");
//! ```

pub mod config;
pub mod engine;
pub mod result;
pub mod scenario;
pub mod sensor;

pub use config::{SimConfig, DEFAULT_SENSOR_SEED};
pub use engine::{Simulator, TickSample};
pub use result::RunResult;
pub use scenario::ScenarioConfig;
pub use sensor::{SensorModel, SensorProfile};

pub use therm3d_floorplan as floorplan;
pub use therm3d_metrics as metrics;
pub use therm3d_policies as policies;
pub use therm3d_power as power;
pub use therm3d_thermal as thermal;
pub use therm3d_workload as workload;
