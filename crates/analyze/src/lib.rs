//! Design-time diagnostics for Banger.
//!
//! The paper's third principle is *instant feedback*: a non-programmer
//! wiring tasks together in the graph editor should learn about a mistake
//! while it is on screen, not from an opaque failure deep inside the
//! scheduler or runner. This crate is that feedback loop, packaged as a
//! library so the CLI (`banger check`), the project facade
//! (`Project::diagnose`) and tests all share one engine.
//!
//! The crate has no hierarchy walk of its own: every pass reads the
//! `Expanded` design of `banger_taskgraph::HierGraph::expand`, the walk
//! `Expanded::flatten` is the strict reading of, so the scheduler graph
//! and the diagnostics cannot disagree about what a design contains
//! ([`access`] maps the walk's binding problems to `B020`/`B021`).
//! [`diagnose_expanded`] is the entry for a caller that already holds
//! the `Expanded` — `Project` hands in the one its flat graph is
//! projected from — and [`diagnose`] walks for a caller that does not.
//!
//! Four pass families run over a hierarchical design:
//!
//! * **Storage races** — two tasks writing the same storage item with no
//!   precedence path between them (write/write, `B001`), and reads of
//!   multi-writer items that the rest of the graph does not order against
//!   every write (`B002`). Both are computed by reachability on the
//!   flattened graph.
//! * **PITL/PITS interface cross-checks** — arc variable labels against
//!   each task program's declared `in`/`out` variables, plus per-program
//!   body lints (declared outputs never assigned, inputs never read,
//!   implicit locals) with calc-parser spans (`B01x`).
//! * **Graph hygiene** — unbound compound ports, cycles with a named
//!   path, isolated tasks, bad weights and dead storage (`B02x`/`B03x`).
//! * **Body safety** — interval-domain abstract interpretation of every
//!   task program: reads of unassigned variables, provably out-of-bounds
//!   indices, definite domain errors, variantless `while` loops and dead
//!   assignments (`B04x`), with storage declarations seeding array
//!   lengths.
//!
//! Findings are [`Diagnostic`] values with a stable [`Code`], a
//! [`Severity`] and a [`Location`]; render them with [`render_report`]
//! (human text) or [`render_json`].
//!
//! ```
//! use banger_analyze::{diagnose, has_errors, Code};
//! use banger_calc::ProgramLibrary;
//! use banger_taskgraph::HierGraph;
//!
//! let mut g = HierGraph::new("racy");
//! let a = g.add_task("a", 1.0);
//! let b = g.add_task("b", 1.0);
//! let s = g.add_storage("total", 1.0);
//! g.add_flow(a, s).unwrap();
//! g.add_flow(b, s).unwrap();
//! let diags = diagnose(&g, &ProgramLibrary::new());
//! assert!(has_errors(&diags));
//! assert_eq!(diags[0].code, Code::B001);
//! ```

#![warn(missing_docs)]

pub mod absint;
pub mod access;
pub mod diag;
pub mod passes;

pub use absint::program_diagnostics;
pub use diag::{
    has_errors, render_json, render_report, render_text, sort_diagnostics, Code, Diagnostic,
    Location, Severity,
};
pub use passes::{diagnose, diagnose_expanded};
