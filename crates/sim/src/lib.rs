#![warn(missing_docs)]

//! # banger-sim — discrete-event simulation of scheduled designs
//!
//! Banger promised "trial runs of tasks or entire programs". Single-task
//! trial runs live in `banger-calc`; *entire-program* trial runs are this
//! crate: a discrete-event simulator that executes a
//! [`Schedule`](banger_sched::Schedule) on the
//! four-parameter machine model with **link-accurate messaging** — every
//! message traverses its route hop by hop, queueing behind other traffic
//! on busy links.
//!
//! The simulator answers the question the paper's Figure 3 Gantt charts
//! raise: *does the predicted schedule survive contact with the network?*
//! [`SimResult::achieved`] is the as-executed timeline;
//! [`compare`](SimResult::compare) reports predicted-vs-achieved makespan.
//!
//! Processors execute their assigned task copies in schedule order
//! (static-schedule semantics); a task starts when its processor is free
//! and all of its input messages have arrived.

pub mod sim;

pub use sim::{simulate, MsgRecord, SimError, SimResult, SimStats};
