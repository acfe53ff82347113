//! `tpi` — hardware-supported, compiler-directed cache coherence, end to
//! end.
//!
//! This crate is the public facade of the reproduction of Choi & Yew,
//! *"Compiler and Hardware Support for Cache Coherence in Large-Scale
//! Multiprocessors"* (ISCA 1996). It wires the layers together:
//!
//! 1. a parallel program (one of the six Perfect-Club-like kernels from
//!    [`tpi_workloads`], or your own [`tpi_ir`] program),
//! 2. the Polaris-style stale-reference marking pass ([`tpi_compiler`]),
//! 3. execution-driven trace generation ([`tpi_trace`]),
//! 4. a coherence engine — BASE / SC / TPI / full-map directory /
//!    LimitLess ([`tpi_proto`]) — timed by the multiprocessor simulator
//!    ([`tpi_sim`]) over a Kruskal–Snir network model ([`tpi_net`]).
//!
//! # Quickstart
//!
//! ```
//! use tpi::Runner;
//! use tpi_proto::{registry, SchemeId};
//! use tpi_workloads::{Kernel, Scale};
//!
//! // The Runner compiles and traces the kernel once, then simulates both
//! // schemes from the shared trace (in parallel on a multicore host).
//! let runner = Runner::new();
//! let grid = runner
//!     .grid()
//!     .kernel(Kernel::Flo52)
//!     .scale(Scale::Test)
//!     .schemes([SchemeId::TPI, SchemeId::FULL_MAP])
//!     .run()?;
//! let tpi = grid.get(Kernel::Flo52, SchemeId::TPI);
//! let hw = grid.get(Kernel::Flo52, SchemeId::FULL_MAP);
//! println!(
//!     "TPI: {} cycles ({:.2}% miss), HW: {} cycles ({:.2}% miss)",
//!     tpi.sim.total_cycles,
//!     100.0 * tpi.sim.miss_rate(),
//!     hw.sim.total_cycles,
//!     100.0 * hw.sim.miss_rate(),
//! );
//! # Ok::<(), tpi_trace::TraceError>(())
//! ```
//!
//! One-off machine variations go through [`ExperimentConfig::builder`],
//! which validates the machine description before anything runs:
//!
//! ```
//! use tpi::{run_kernel, ExperimentConfig};
//! use tpi_workloads::{Kernel, Scale};
//!
//! let cfg = ExperimentConfig::builder()
//!     .procs(32)
//!     .tag_bits(4)
//!     .build()
//!     .expect("a valid machine");
//! let r = run_kernel(Kernel::Ocean, Scale::Test, &cfg)?;
//! assert!(r.sim.total_cycles > 0);
//! # Ok::<(), tpi_trace::TraceError>(())
//! ```

#![warn(missing_docs)]

pub mod cli;
pub mod config;
pub mod experiment;
pub mod lru;
pub mod prof;
pub mod report;
pub mod runner;
pub mod stepper;
pub mod sync;
pub mod tables;

pub use cli::CliError;
pub use config::{ConfigBuilder, ConfigError, ExperimentConfig};
pub use experiment::{run_kernel, run_program, ExperimentResult};
pub use lru::Lru;
pub use prof::{ProfileReport, Profiler, StageProfile};
pub use runner::{
    CacheStats, CellGrid, CellId, GridBuilder, GridOutcome, GridResult, PreparedCell,
    ProgramSource, RunSpec, Runner, RunnerStats, StageCache,
};
pub use stepper::EngineStepper;
pub use sync::{
    catch_cell_panic, into_inner_unpoisoned, lock_unpoisoned, panic_message,
    wait_timeout_unpoisoned, wait_unpoisoned,
};
pub use tables::{BarChart, Table};

// Re-export the layer crates so downstream users need only one dependency.
pub use tpi_cache as cache;
pub use tpi_compiler as compiler;
pub use tpi_ir as ir;
pub use tpi_mem as mem;
pub use tpi_net as net;
pub use tpi_proto as proto;
pub use tpi_sim as sim;
pub use tpi_trace as trace;
pub use tpi_workloads as workloads;
