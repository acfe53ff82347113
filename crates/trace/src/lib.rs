//! Execution-driven memory-event generation for the TPI coherence study.
//!
//! The paper evaluates its coherence schemes with execution-driven
//! simulation (Poulsen & Yew's tools): the compiler-marked benchmark is
//! *executed* and instrumented to emit memory events, which a timing
//! simulator then replays against a machine model. This crate is that front
//! half: an interpreter over the `tpi-ir` program representation that
//!
//! * schedules DOALL iterations over `P` logical processors under several
//!   policies (static block/cyclic, dynamic self-scheduling, and the task
//!   migration model of the paper's Section 5),
//! * numbers runtime epochs with exactly the compiler's segmentation,
//! * attaches the compiler's per-reference marking to every load,
//! * tracks a global per-word version counter for freshness checking, and
//! * verifies DOALL race freedom (the execution model's precondition).
//!
//! # Example
//!
//! ```
//! use tpi_compiler::{mark_program, CompilerOptions};
//! use tpi_ir::{ProgramBuilder, subs};
//! use tpi_trace::{generate_trace, TraceOptions};
//!
//! let mut p = ProgramBuilder::new();
//! let a = p.shared("A", [64]);
//! let main = p.proc("main", |f| {
//!     f.doall(0, 63, |i, f| f.store(a.at(subs![i]), vec![], 1));
//!     f.doall(0, 63, |i, f| f.load(vec![a.at(subs![i])], 1));
//! });
//! let prog = p.finish(main).expect("valid");
//! let marking = mark_program(&prog, &CompilerOptions::default());
//! let trace = generate_trace(&prog, &marking, &TraceOptions::default())?;
//! assert_eq!(trace.epochs.len(), 2);
//! # Ok::<(), tpi_trace::TraceError>(())
//! ```

#![warn(missing_docs)]

pub mod event;
pub mod interp;
pub mod record;
pub mod sched;
pub mod truth;

pub use event::{EpochEvents, EpochExecKind, Event, InterpHostProfile, Trace, TraceStats};
pub use interp::{generate_trace, TraceError, TraceOptions, MAX_TRACE_BYTES};
pub use record::{Events, Record};
pub use sched::{assign, Assignment, SchedulePolicy};
pub use truth::{GroundTruth, Writer};
