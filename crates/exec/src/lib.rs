#![warn(missing_docs)]

//! # banger-exec — the large-grain parallel runtime
//!
//! Everything up to here *plans*; this crate *runs*. A flattened Banger
//! design plus a [`ProgramLibrary`](banger_calc::ProgramLibrary) of PITS
//! routines executes on real host threads: each task's interpreter run is
//! one large grain, values flow along the dataflow arcs, and precedence is
//! enforced with dependence counting — the shared-memory stand-in for the
//! paper's target message-passing machines (the code generators in
//! `banger-codegen` emit the true message-passing form).
//!
//! Two dispatch modes:
//!
//! * [`ExecMode::Greedy`] — work-conserving pool: any idle worker takes
//!   any ready task (what a dynamic runtime would do);
//! * [`ExecMode::Pinned`] — schedule-driven: processor *i* of a
//!   [`Schedule`](banger_sched::Schedule) executes exactly its placements
//!   in predicted start order, including duplicated copies, on whichever
//!   worker claims it, as trace row *i*. This is "run the Gantt chart".
//!
//! There is one executor lifecycle: a [`Session`] keeps the routing
//! tables, compiled programs, Vm frames and slab store allocated across
//! firings — parameter sweeps, convergence loops — and runs each firing
//! on the process's one pool of helper threads, and [`execute`], in
//! either mode, is a session opened, fired once and dropped, so the two
//! cannot disagree. The modes differ only in the loop a worker runs
//! ([`runner`] describes both); readiness counters, result buffers,
//! error handling and the one wait are shared.
//!
//! Setting [`ExecOptions::trace`] makes either mode record a [`Trace`]
//! of what actually happened — task spans per worker, queue waits, CoW
//! copy counts — which feeds the observed Gantt, the
//! predicted-vs-observed drift report, and the Chrome trace export (see
//! `banger_trace`). Task bodies run under a panic boundary: a panicking
//! body is reported as [`ExecError::WorkerPanic`] with the task's name,
//! never silently swallowed by a thread join.

pub mod runner;
pub mod session;

pub use banger_trace::{DriftReport, TaskRun, Trace, TraceEvent, TraceSummary};
pub use runner::{execute, ExecError, ExecMode, ExecOptions, ExecReport, DEFAULT_INLINE_BELOW};
pub use session::{live_sessions, Session};
