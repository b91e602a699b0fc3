//! Dead-arc and dead-port elimination.
//!
//! Three kinds of dead structure accumulate in hand-drawn designs and in
//! the output of other rewrites:
//!
//! 1. **Dead arcs** — an arc whose label matches no input of the
//!    consumer's program. Nothing reads it; it only inflates the
//!    scheduler's communication model.
//! 2. **Shadowed arcs** — a second arc into the same task with the same
//!    label; the first one binds the input.
//! 3. **Dead declarations** — program inputs and locals that no
//!    statement references. Input binding is free at run time, so
//!    removing them changes neither values nor operation counts, but it
//!    shrinks the design's external surface and the scheduler's edge
//!    set.
//!
//! The first two are an edge's role under the binding rule
//! ([`banger_taskgraph::binding`]), which this pass reads rather than
//! re-derives.
//!
//! All removals are Outcome-preserving: output values, print output and
//! the total interpreter operation count are exactly unchanged.

use std::collections::BTreeMap;
use std::sync::Arc;

use banger_calc::ast::{Facts, Program};
use banger_calc::library::ProgramLibrary;
use banger_taskgraph::binding::{Bindings, EdgeRole, Source};
use banger_taskgraph::hierarchy::{ExternalPort, Flattened};
use banger_taskgraph::{EdgeId, TaskGraph, TaskId};

use crate::OptError;

/// What [`eliminate_dead`] removed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DceStats {
    /// Arcs dropped (dead label or shadowed duplicate).
    pub arcs_removed: usize,
    /// Input declarations removed from programs.
    pub inputs_trimmed: usize,
    /// Local declarations removed from programs.
    pub locals_trimmed: usize,
    /// External input ports that lost all their readers.
    pub ports_removed: usize,
    /// Library programs no task references (not carried over).
    pub programs_dropped: usize,
}

impl DceStats {
    /// True when the pass found nothing to remove.
    pub fn is_noop(&self) -> bool {
        *self == DceStats::default()
    }
}

/// Returns `prog` with never-referenced inputs and locals removed.
/// A declaration survives if any statement reads *or* writes it (the
/// body's [`Facts`] name it in `reads`, `assigned` or `stored`), or if
/// it is also an output. Removal is free: unreferenced variables cost no
/// operations to bind and hold value `0` forever.
fn trim_program(prog: &Program, stats: &mut DceStats) -> Program {
    let facts = Facts::of(&prog.body);
    let live = |v: &String| facts.reads.contains_key(v.as_str()) || facts.written(v).is_some();
    let mut out = prog.clone();
    out.inputs.retain(|v| live(v) || prog.outputs.contains(v));
    out.locals.retain(live);
    stats.inputs_trimmed += prog.inputs.len() - out.inputs.len();
    stats.locals_trimmed += prog.locals.len() - out.locals.len();
    for v in prog.inputs.iter().chain(&prog.locals) {
        if !out.declares(v) {
            out.decl_pos.remove(v);
        }
    }
    out
}

/// Runs dead-arc/dead-port elimination over a flattened design.
///
/// Returns the rewritten design, a fresh library holding (only) the
/// trimmed programs the design still references, and removal statistics.
/// Task ids, task order and the relative order of surviving arcs are
/// preserved, so the rewritten design resolves to the same bindings.
pub fn eliminate_dead(
    flat: &Flattened,
    lib: &ProgramLibrary,
) -> Result<(Flattened, ProgramLibrary, DceStats), OptError> {
    let g = &flat.graph;
    let mut stats = DceStats::default();

    // Trim each referenced program once (programs may be shared by many
    // tasks; the trim is a function of the body alone, so it is uniform
    // across all users).
    let mut trimmed: BTreeMap<String, Program> = BTreeMap::new();
    for (_, task) in g.tasks() {
        if let Some(name) = task.program.as_deref() {
            if !trimmed.contains_key(name) {
                let prog = lib
                    .get(name)
                    .ok_or_else(|| OptError::UnknownProgram(name.to_string()))?;
                trimmed.insert(name.to_string(), trim_program(prog, &mut stats));
            }
        }
    }
    stats.programs_dropped = lib.len() - trimmed.len();

    // The fate of every edge is its role under the binding rule, read
    // against the *trimmed* interfaces: an edge survives when it binds a
    // still-declared input, or when its consumer has no program (nothing
    // known about its reads — keep).
    let bindings = Bindings::resolve(flat, |name| trimmed.get(name).map(Program::interface));
    let keep = |e: EdgeId| !matches!(bindings.role(e), EdgeRole::Dead | EdgeRole::Shadowed);
    stats.arcs_removed = g.edge_ids().filter(|&e| !keep(e)).count();

    // Rebuild the graph: same tasks in the same order (ids are stable),
    // surviving edges in their original order.
    let mut out = TaskGraph::new(g.name());
    for (_, task) in g.tasks() {
        let t = out.add_task(task.name.clone(), task.weight);
        if let Some(p) = &task.program {
            out.set_program(t, p.clone()).map_err(OptError::Graph)?;
        }
    }
    for (e, edge) in g.edges() {
        if keep(e) {
            out.add_edge(edge.src, edge.dst, edge.volume, edge.label.clone())
                .map_err(OptError::Graph)?;
        }
    }

    // Input ports keep only readers whose program still declares the
    // variable and still receives it externally. Ports with no readers
    // left disappear.
    let mut inputs: Vec<ExternalPort> = Vec::new();
    for port in &flat.inputs {
        let reads_externally = |t: TaskId| {
            let (Some(name), Some(row)) = (g.task(t).program.as_deref(), bindings.row(t)) else {
                return true;
            };
            let mut sources = trimmed[name].inputs.iter().zip(row);
            sources.any(|(v, source)| *v == port.var && matches!(source, Source::External(_)))
        };
        let readers: Vec<TaskId> = port
            .tasks
            .iter()
            .copied()
            .filter(|&t| reads_externally(t))
            .collect();
        if readers.is_empty() {
            stats.ports_removed += 1;
        } else {
            inputs.push(ExternalPort {
                var: port.var.clone(),
                tasks: readers,
            });
        }
    }

    let mut new_lib = ProgramLibrary::new();
    for prog in trimmed.into_values() {
        new_lib.add(prog);
    }

    Ok((
        Flattened {
            graph: Arc::new(out),
            inputs,
            outputs: flat.outputs.clone(),
        },
        new_lib,
        stats,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use banger_calc::parser::parse_program;

    fn lib_of(sources: &[&str]) -> ProgramLibrary {
        let mut lib = ProgramLibrary::new();
        for s in sources {
            lib.add(parse_program(s).unwrap());
        }
        lib
    }

    /// p --(x)--> c with an extra dead arc labelled `junk` and a shadowed
    /// duplicate of `x`.
    fn fixture() -> (Flattened, ProgramLibrary) {
        let lib = lib_of(&[
            "task P in a out x, junk begin x := a + 1 junk := 0 end",
            "task C in x out y begin y := x * 2 end",
        ]);
        let mut g = TaskGraph::new("d");
        let p = g.add_task("p", 1.0);
        let c = g.add_task("c", 1.0);
        let q = g.add_task("q", 1.0);
        g.set_program(p, "P").unwrap();
        g.set_program(c, "C").unwrap();
        g.set_program(q, "P").unwrap();
        g.add_edge(p, c, 1.0, "x").unwrap();
        g.add_edge(p, c, 1.0, "junk").unwrap();
        g.add_edge(q, c, 1.0, "x").unwrap();
        let flat = Flattened {
            graph: Arc::new(g),
            inputs: vec![ExternalPort {
                var: "a".into(),
                tasks: vec![p, q],
            }],
            outputs: vec![ExternalPort {
                var: "y".into(),
                tasks: vec![c],
            }],
        };
        (flat, lib)
    }

    #[test]
    fn dead_and_shadowed_arcs_are_removed() {
        let (flat, lib) = fixture();
        let (out, _, stats) = eliminate_dead(&flat, &lib).unwrap();
        assert_eq!(stats.arcs_removed, 2);
        assert_eq!(out.graph.edge_count(), 1);
        let (_, e) = out.graph.edges().next().unwrap();
        assert_eq!(e.label, "x");
        // Output port untouched.
        assert_eq!(out.outputs, flat.outputs);
    }

    #[test]
    fn unreferenced_input_decl_is_trimmed_and_port_dropped() {
        let lib = lib_of(&["task T in a, unused out y begin y := a end"]);
        let mut g = TaskGraph::new("d");
        let t = g.add_task("t", 1.0);
        g.set_program(t, "T").unwrap();
        let flat = Flattened {
            graph: Arc::new(g),
            inputs: vec![
                ExternalPort {
                    var: "a".into(),
                    tasks: vec![t],
                },
                ExternalPort {
                    var: "unused".into(),
                    tasks: vec![t],
                },
            ],
            outputs: vec![ExternalPort {
                var: "y".into(),
                tasks: vec![t],
            }],
        };
        let (out, new_lib, stats) = eliminate_dead(&flat, &lib).unwrap();
        assert_eq!(stats.inputs_trimmed, 1);
        assert_eq!(stats.ports_removed, 1);
        assert_eq!(out.inputs.len(), 1);
        assert_eq!(out.inputs[0].var, "a");
        assert_eq!(new_lib.get("T").unwrap().inputs, vec!["a".to_string()]);
    }

    #[test]
    fn clean_design_is_a_noop() {
        let lib = lib_of(&[
            "task P in a out x begin x := a + 1 end",
            "task C in x out y begin y := x * 2 end",
        ]);
        let mut g = TaskGraph::new("d");
        let p = g.add_task("p", 1.0);
        let c = g.add_task("c", 1.0);
        g.set_program(p, "P").unwrap();
        g.set_program(c, "C").unwrap();
        g.add_edge(p, c, 1.0, "x").unwrap();
        let flat = Flattened {
            graph: Arc::new(g.clone()),
            inputs: vec![ExternalPort {
                var: "a".into(),
                tasks: vec![p],
            }],
            outputs: vec![ExternalPort {
                var: "y".into(),
                tasks: vec![c],
            }],
        };
        let (out, _, stats) = eliminate_dead(&flat, &lib).unwrap();
        assert!(stats.is_noop(), "{stats:?}");
        assert_eq!(*out.graph, g);
    }
}
