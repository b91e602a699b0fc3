//! Graph-rewrite optimizer for Banger designs.
//!
//! The paper's environment asks non-programmers to draw task graphs at
//! whatever granularity is natural to *describe* the computation. That
//! granularity is usually wrong for *executing* it: overhead-bound
//! designs spend more time in per-task dispatch than in arithmetic, and
//! fixed-size templates cannot express "one task per tile" data
//! parallelism. This crate closes the gap with three rewrite passes over
//! the flattened task graph:
//!
//! - [`dce::eliminate_dead`] — drops arcs whose label feeds no program
//!   input, duplicate-label arcs the binding rule shadows anyway, and
//!   input declarations no statement ever reads. Outcome-preserving
//!   (values *and* total interpreter ops are byte-identical).
//! - [`fuse::fuse`] — lifts the scheduler's grain-packing decision
//!   ([`banger_sched::grain::pack`]) from an edge-zeroing cost model
//!   into an actual graph transform: the PITS programs of the tasks in
//!   one cluster are spliced into a single program (via
//!   [`banger_calc::transform::splice_programs`]) and the cluster
//!   becomes one task. Outcome-preserving; clusters where fusion cannot
//!   be proven safe are left unfused rather than transformed unsoundly.
//! - [`expand::expand_dense_lu`] — the inverse direction: recognises a
//!   dense-LU template task and expands it in place into a tiled
//!   right-looking block-LU compound with one task per tile step.
//!   Value-preserving (the factorisation is bit-identical because the
//!   per-element operation sequence is unchanged) but not ops-preserving
//!   (scatter/gather copies cost extra ops by construction).
//!
//! [`rebuild::flat_to_design`] turns an optimised
//! [`Flattened`](banger_taskgraph::hierarchy::Flattened) graph back into
//! a flat [`banger_taskgraph::HierGraph`] so the rest of the toolchain
//! (diagnose, schedule, execute, trace) needs no new code paths.
//!
//! # Soundness contract
//!
//! A rewrite is *Outcome-preserving* when, for every external binding,
//! the optimised design produces byte-identical output values and the
//! same total operation count as the original on both execution engines.
//! `fuse` and `eliminate_dead` are Outcome-preserving; `expand` preserves
//! values only. The property suite in `tests/prop_fuse.rs` checks this
//! differentially on randomly generated designs.

use banger_taskgraph::GraphError;

pub mod dce;
pub mod expand;
pub mod fuse;
pub mod rebuild;

pub use dce::{eliminate_dead, DceStats};
pub use expand::{dense_lu_program, expand_dense_lu, ExpandStats};
pub use fuse::{fuse, fuse_with, FuseStats};
pub use rebuild::flat_to_design;

/// Errors from the optimizer passes.
#[derive(Debug, Clone, PartialEq)]
pub enum OptError {
    /// A graph-structural operation failed (cycle, duplicate arc, ...).
    Graph(GraphError),
    /// A task references a program the library does not contain.
    UnknownProgram(String),
    /// A named task does not exist in the design.
    UnknownTask(String),
    /// The task named for expansion is not a recognised template.
    NotATemplate(String),
    /// The requested tiling does not divide the template's problem size.
    BadTiling {
        /// Template problem size (matrix dimension `n`).
        n: usize,
        /// Requested tile count per dimension.
        tiles: usize,
    },
}

impl std::fmt::Display for OptError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OptError::Graph(e) => write!(f, "graph error: {e}"),
            OptError::UnknownProgram(p) => write!(f, "unknown program {p:?}"),
            OptError::UnknownTask(t) => write!(f, "unknown task {t:?}"),
            OptError::NotATemplate(t) => write!(
                f,
                "task {t:?} is not a recognised data-parallel template \
                 (expected the dense-LU shape; see banger_opt::dense_lu_program)"
            ),
            OptError::BadTiling { n, tiles } => write!(
                f,
                "cannot tile an n={n} template into {tiles}x{tiles} blocks: \
                 tiles must be >= 2 and divide n"
            ),
        }
    }
}

impl std::error::Error for OptError {}

impl From<GraphError> for OptError {
    fn from(e: GraphError) -> Self {
        OptError::Graph(e)
    }
}
