#![warn(missing_docs)]

//! # banger-machine — target machine descriptions
//!
//! Banger separates the parallel program from the target machine; the
//! machine side of that contract is this crate. A [`Machine`] combines:
//!
//! * an interconnection [`topology::Topology`] — the paper's Figure 2
//!   supports hypercubes, meshes, trees, stars and fully-connected
//!   networks (we add rings, tori and arbitrary graphs);
//! * the paper's **four-parameter cost model**: processor speed, process
//!   startup time, message-passing startup time, and message transmission
//!   speed ([`machine::MachineParams`]);
//! * a [`routing::RoutingTable`] of shortest paths, used both for
//!   hop-sensitive communication estimates in the scheduler and for
//!   link-level contention in the discrete-event simulator.
//!
//! ## Example
//!
//! ```
//! use banger_machine::{Machine, MachineParams, Topology};
//!
//! let m = Machine::new(Topology::hypercube(3), MachineParams::default());
//! assert_eq!(m.processors(), 8);
//! // Communication between adjacent processors is cheaper than across
//! // the full cube diameter.
//! let near = m.comm_time(0.into(), 1.into(), 100.0);
//! let far = m.comm_time(0.into(), 7.into(), 100.0);
//! assert!(near < far);
//! ```

pub mod machine;
pub mod routing;
pub mod topology;

pub use machine::{Machine, MachineParams, SwitchingMode};
pub use routing::{LinkId, RoutingTable};
pub use topology::{ProcId, Topology, TopologyError, MAX_PROCESSORS};
