#![warn(missing_docs)]

//! # banger — the environment facade
//!
//! A faithful, headless re-implementation of **Banger** (Lewis, ICPP
//! 1994): a large-grain parallel programming environment for
//! non-programmers. The paper's four-step workflow maps directly onto
//! this crate:
//!
//! 1. **Draw a hierarchical dataflow graph** —
//!    [`banger_taskgraph::HierGraph`], wrapped in a [`Project`];
//! 2. **Define a target machine** — [`banger_machine::Machine`], via
//!    [`Project::set_machine`];
//! 3. **Specify algorithms as small sequential tasks** — PITS programs in
//!    the project's [`banger_calc::ProgramLibrary`], written by hand or by
//!    pressing calculator-panel buttons;
//! 4. **Generate the code** — [`Project::generate_rust`] /
//!    [`Project::generate_c`]; or skip codegen and [`Project::run`] the
//!    design directly on host threads.
//!
//! Instant feedback comes from [`Project::trial_run`] (single task),
//! [`Project::simulate`] (whole program, message-accurate),
//! [`Project::gantt`] and the speedup charts.
//!
//! The [`figures`] module regenerates each figure of the paper; see
//! EXPERIMENTS.md at the workspace root for the paper-vs-measured record.
//!
//! ## Quickstart
//!
//! ```
//! use banger::figures;
//! use banger::project::Project;
//! use banger_machine::{Machine, MachineParams, Topology};
//!
//! // The paper's running example: LU decomposition of a 3x3 system.
//! let project = figures::lu_project(
//!     3,
//!     Machine::new(Topology::hypercube(2), MachineParams::default()),
//! );
//! let schedule = project.schedule("MH").unwrap();
//! println!("{}", project.gantt(&schedule).unwrap());
//! ```

pub mod advisor;
pub mod animate;
pub mod chart;
pub mod document;
pub mod figures;
pub mod gantt;
pub mod lu;
pub mod project;
pub mod serve;
pub mod svg;

pub use banger_analyze as analyze;
pub use banger_trace as trace;
pub use chart::{speedup_chart, SpeedupPoint};
pub use document::{parse_project, print_project, DocError};
pub use project::{render_weight_table, weight_rows_json, Project, ProjectError, WeightRow};
