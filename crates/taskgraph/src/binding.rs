//! The binding rule: how the variables drawn on arcs become the inputs
//! of PITS programs.
//!
//! The paper's arcs are "labelled with the variables that flow along
//! them". This module owns the one reading of those labels:
//!
//! * a declared `in` of a task's program takes the **first in-edge
//!   carrying its name**, from the producer's `out` of that name;
//! * a declared `in` no in-edge carries is **external** — valued per
//!   firing, from a densified slot;
//! * any other in-edge is **dead** (its label is no input of the
//!   consumer) or **shadowed** (an earlier in-edge already carries the
//!   label): precedence only, its value is never read;
//! * a design output port is the **first** task writing it, at the
//!   port variable's position among that task's program's outputs.
//!
//! [`Bindings::resolve`] applies the rule to a whole [`Flattened`] once.
//! The executor's router, both code generators and the optimizer's `dce`
//! and `fuse` passes read the table instead of matching labels
//! themselves (DESIGN.md §17 has the consumer table). The analyzer's
//! interface lints (B011/B012/B016) stay apart on purpose: they report on
//! designs that do not flatten and on *every* label, shadowed ones
//! included.
//!
//! Resolution is tolerant, the way `HierGraph::expand` is: it always
//! returns a table, and keeps whatever defeats a complete one in the
//! order the executor reports it. [`Bindings::check`] is the strict
//! reading: the first such problem. The crate knows nothing of
//! PITS, so a program's interface arrives through a closure from the
//! program's name to its declared inputs and outputs.

use crate::graph::{EdgeId, TaskId};
use crate::hierarchy::Flattened;
use std::collections::BTreeMap;
use std::ops::Range;

/// A program's declared `(inputs, outputs)`, each in declaration order.
pub type Interface<'a> = (&'a [String], &'a [String]);

/// Where one declared input of a task takes its value from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// The first in-edge labelled with the input's name.
    /// [`Bindings::out_index`] of the edge is the producer-side half.
    Arc {
        /// The binding edge.
        edge: EdgeId,
        /// Its producer.
        src: TaskId,
    },
    /// No in-edge carries the name: external slot
    /// [`Bindings::externals`]`[i]`.
    External(usize),
}

/// What an edge means to the task it enters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeRole {
    /// Supplies the consumer's declared input of this index.
    Binds(usize),
    /// Carries a declared input's name, after the edge that binds it.
    Shadowed,
    /// Carries a name the consumer's program does not declare `in`.
    Dead,
    /// The consumer has no program the library holds: nothing is known
    /// about what it reads.
    Unknown,
}

/// One external input of the design, as the programs see it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExternalSlot {
    /// The variable a firing must supply.
    pub var: String,
    /// The first task (in task order) that reads it — the one an
    /// unsupplied value is attributed to.
    pub first_reader: TaskId,
}

/// What keeps a design from resolving completely.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BindError {
    /// The named task carries no program name.
    NoProgram(String),
    /// A task names this program and the library does not hold it.
    UnknownProgram(String),
    /// A binding edge or an output port wants a variable its producer's
    /// program does not declare `out`.
    MissingOutput {
        /// Producer task name.
        producer: String,
        /// The variable.
        var: String,
    },
}

/// The resolved arc → variable table of one flattened design.
#[derive(Debug, Clone, PartialEq)]
pub struct Bindings {
    /// Every task's sources end to end; `rows[t]` is task `t`'s stretch.
    sources: Vec<Source>,
    rows: Vec<Option<Range<usize>>>,
    externals: Vec<ExternalSlot>,
    roles: Vec<EdgeRole>,
    out_index: Vec<Option<usize>>,
    ports: Vec<Option<(TaskId, usize)>>,
    problems: Vec<BindError>,
}

impl Bindings {
    /// Applies the binding rule to `flat`; `interface` maps a program
    /// name to the program's declared inputs and outputs, `None` for a
    /// name the library does not hold.
    pub fn resolve<'a>(
        flat: &Flattened,
        interface: impl Fn(&str) -> Option<Interface<'a>>,
    ) -> Bindings {
        let g = &flat.graph;
        let mut problems = Vec::new();

        // Every task names a program the library holds — reported for
        // all tasks before any binding, as the executor always has.
        let interfaces: Vec<Option<Interface<'a>>> = g
            .tasks()
            .map(|(_, task)| {
                let Some(name) = task.program.as_deref() else {
                    problems.push(BindError::NoProgram(task.name.clone()));
                    return None;
                };
                let found = interface(name);
                if found.is_none() {
                    problems.push(BindError::UnknownProgram(name.to_string()));
                }
                found
            })
            .collect();
        let position = |t: TaskId, var: &str| {
            let (_, outputs) = interfaces[t.index()]?;
            outputs.iter().position(|o| o == var)
        };
        let missing = |t: TaskId, var: &str| BindError::MissingOutput {
            producer: g.task(t).name.clone(),
            var: var.to_string(),
        };

        let out_index: Vec<Option<usize>> = g
            .edges()
            .map(|(_, edge)| position(edge.src, &edge.label))
            .collect();

        let mut roles = vec![EdgeRole::Unknown; g.edge_count()];
        let mut externals: Vec<ExternalSlot> = Vec::new();
        let mut slot_of: BTreeMap<&'a str, usize> = BTreeMap::new();
        let mut sources = Vec::new();
        let mut rows = Vec::with_capacity(g.task_count());
        for t in g.task_ids() {
            let Some((inputs, _)) = interfaces[t.index()] else {
                rows.push(None);
                continue;
            };
            let in_edges = g.in_edges(t);
            for &e in in_edges {
                roles[e.index()] = EdgeRole::Dead;
            }
            let start = sources.len();
            for (i, var) in inputs.iter().enumerate() {
                let mut carrying = in_edges.iter().filter(|e| g.edge(**e).label == *var);
                sources.push(match carrying.next() {
                    Some(&edge) => {
                        let src = g.edge(edge).src;
                        // `Dead` here means "not yet claimed": the first
                        // edge carrying the name binds, the rest are
                        // shadowed.
                        if roles[edge.index()] == EdgeRole::Dead {
                            roles[edge.index()] = EdgeRole::Binds(i);
                        }
                        for later in carrying {
                            if roles[later.index()] == EdgeRole::Dead {
                                roles[later.index()] = EdgeRole::Shadowed;
                            }
                        }
                        // A producer without a program is already a problem.
                        if out_index[edge.index()].is_none() && interfaces[src.index()].is_some() {
                            problems.push(missing(src, var));
                        }
                        Source::Arc { edge, src }
                    }
                    None => Source::External(*slot_of.entry(var.as_str()).or_insert_with(|| {
                        externals.push(ExternalSlot {
                            var: var.clone(),
                            first_reader: t,
                        });
                        externals.len() - 1
                    })),
                });
            }
            rows.push(Some(start..sources.len()));
        }

        let ports = flat
            .outputs
            .iter()
            .map(|port| {
                let &t = port.tasks.first()?;
                let k = position(t, &port.var);
                if k.is_none() && interfaces[t.index()].is_some() {
                    problems.push(missing(t, &port.var));
                }
                Some((t, k?))
            })
            .collect();

        Bindings {
            sources,
            rows,
            externals,
            roles,
            out_index,
            ports,
            problems,
        }
    }

    /// The strict reading: the first thing that keeps the design from
    /// running, in the executor's order — every task's program, then
    /// every binding edge's producer in task and declaration order, then
    /// the output ports. After `Ok`, every [`row`](Self::row) and
    /// [`port`](Self::port) is `Some` and every binding edge has an
    /// [`out_index`](Self::out_index).
    pub fn check(&self) -> Result<(), &BindError> {
        self.problems.first().map_or(Ok(()), Err)
    }

    /// The source of each declared input of `t`, in declaration order;
    /// `None` when `t` has no program the library holds.
    pub fn row(&self, t: TaskId) -> Option<&[Source]> {
        let row = self.rows[t.index()].clone()?;
        Some(&self.sources[row])
    }

    /// What edge `e` means to its consumer.
    pub fn role(&self, e: EdgeId) -> EdgeRole {
        self.roles[e.index()]
    }

    /// Position of `e`'s label among its producer's declared outputs —
    /// the value the edge carries; `None` for a label the producer does
    /// not emit (or a producer without a program): such an edge is
    /// precedence only, and a [`BindError::MissingOutput`] if it binds.
    pub fn out_index(&self, e: EdgeId) -> Option<usize> {
        self.out_index[e.index()]
    }

    /// The external inputs, in first-reference order (task order, then
    /// declaration order).
    pub fn externals(&self) -> &[ExternalSlot] {
        &self.externals
    }

    /// Design output port `i` (an index into `Flattened::outputs`): the
    /// first task writing it and the port variable's position among that
    /// task's declared outputs.
    pub fn port(&self, i: usize) -> Option<(TaskId, usize)> {
        self.ports[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::TaskGraph;
    use crate::hierarchy::ExternalPort;

    type Library = BTreeMap<&'static str, (Vec<String>, Vec<String>)>;

    fn library(programs: &[(&'static str, &[&str], &[&str])]) -> Library {
        let owned = |names: &[&str]| names.iter().map(|n| n.to_string()).collect();
        programs
            .iter()
            .map(|&(name, ins, outs)| (name, (owned(ins), owned(outs))))
            .collect()
    }

    fn resolve(flat: &Flattened, lib: &Library) -> Bindings {
        Bindings::resolve(flat, |name| {
            lib.get(name).map(|(i, o)| (i.as_slice(), o.as_slice()))
        })
    }

    fn flat(graph: TaskGraph, outputs: &[(&str, &[TaskId])]) -> Flattened {
        Flattened {
            graph: std::sync::Arc::new(graph),
            inputs: Vec::new(),
            outputs: outputs
                .iter()
                .map(|&(var, tasks)| ExternalPort {
                    var: var.to_string(),
                    tasks: tasks.to_vec(),
                })
                .collect(),
        }
    }

    fn task(g: &mut TaskGraph, name: &str, program: &str) -> TaskId {
        let t = g.add_task(name, 1.0);
        g.set_program(t, program).unwrap();
        t
    }

    /// Two producers of `x` (at output positions 1 and 0), a consumer
    /// reading `x` and `k` that also receives a label it never declared.
    fn two_producers() -> (Flattened, Library, [TaskId; 3], [EdgeId; 3]) {
        let lib = library(&[
            ("P", &["a"], &["y", "x"]),
            ("Q", &["a"], &["x"]),
            ("C", &["k", "x"], &["r"]),
        ]);
        let mut g = TaskGraph::new("d");
        let p = task(&mut g, "p", "P");
        let q = task(&mut g, "q", "Q");
        let c = task(&mut g, "c", "C");
        let first = g.add_edge(p, c, 1.0, "x").unwrap();
        let junk = g.add_edge(p, c, 1.0, "junk").unwrap();
        let second = g.add_edge(q, c, 1.0, "x").unwrap();
        (
            flat(g, &[("r", &[c])]),
            lib,
            [p, q, c],
            [first, junk, second],
        )
    }

    #[test]
    fn the_first_edge_carrying_a_name_binds_it_and_later_ones_are_shadowed() {
        let (design, lib, [p, _, c], [first, _, second]) = two_producers();
        let b = resolve(&design, &lib);
        assert_eq!(b.check(), Ok(()));
        let row = b.row(c).unwrap();
        assert_eq!(
            row[1],
            Source::Arc {
                edge: first,
                src: p
            }
        );
        assert_eq!(b.role(first), EdgeRole::Binds(1));
        assert_eq!(b.out_index(first), Some(1), "x is P's second output");
        assert_eq!(b.role(second), EdgeRole::Shadowed);
        assert_eq!(b.out_index(second), Some(0), "defined for unread edges too");
    }

    #[test]
    fn a_label_the_consumer_does_not_declare_is_dead() {
        let (design, lib, _, [_, junk, _]) = two_producers();
        let b = resolve(&design, &lib);
        assert_eq!(b.role(junk), EdgeRole::Dead);
        assert_eq!(b.out_index(junk), None, "and P emits no such value");
        assert_eq!(
            b.check(),
            Ok(()),
            "a dead edge wants nothing of its producer"
        );
    }

    #[test]
    fn external_slots_are_in_first_reference_order_with_the_first_reader() {
        let (design, lib, [p, q, c], _) = two_producers();
        let b = resolve(&design, &lib);
        let slots: Vec<(&str, TaskId)> = b
            .externals()
            .iter()
            .map(|s| (s.var.as_str(), s.first_reader))
            .collect();
        // `a` is read by p and q: one slot, attributed to p. `k` has no
        // arc although its task receives others.
        assert_eq!(slots, [("a", p), ("k", c)]);
        assert_eq!(b.row(p).unwrap(), [Source::External(0)]);
        assert_eq!(b.row(q).unwrap(), [Source::External(0)]);
        assert_eq!(b.row(c).unwrap()[0], Source::External(1));
    }

    #[test]
    fn a_binding_edge_whose_producer_lacks_the_output_is_missing_output() {
        let (mut design, mut lib, [_, _, c], [first, ..]) = two_producers();
        lib.get_mut("P").unwrap().1 = vec!["y".to_string()];
        design.outputs[0].var = "nope".to_string();
        let b = resolve(&design, &lib);
        let missing = |producer: &str, var: &str| BindError::MissingOutput {
            producer: producer.to_string(),
            var: var.to_string(),
        };
        // The edge still binds — the consumer side of the rule does not
        // depend on the producer — but carries nothing; ports come last.
        assert_eq!(b.role(first), EdgeRole::Binds(1));
        assert_eq!(b.out_index(first), None);
        assert_eq!(b.problems, [missing("p", "x"), missing("c", "nope")]);
        assert_eq!(b.check(), Err(&missing("p", "x")));
        assert_eq!(b.port(0), None);
        assert!(b.row(c).is_some());
    }

    #[test]
    fn program_problems_come_first_and_leave_the_task_unknown() {
        let (mut design, lib, [p, _, c], [first, ..]) = two_producers();
        let g = std::sync::Arc::make_mut(&mut design.graph);
        let bare = g.add_task("bare", 1.0);
        let into_bare = g.add_edge(c, bare, 1.0, "r").unwrap();
        g.set_program(p, "Gone").unwrap();
        let b = resolve(&design, &lib);
        assert_eq!(
            b.problems,
            [
                BindError::UnknownProgram("Gone".to_string()),
                BindError::NoProgram("bare".to_string()),
            ],
            "an edge from a task without a program adds no second problem"
        );
        assert_eq!(b.row(p), None);
        assert_eq!(b.row(bare), None);
        assert_eq!(b.role(into_bare), EdgeRole::Unknown);
        assert_eq!(b.role(first), EdgeRole::Binds(1));
        assert_eq!(b.out_index(first), None);
    }

    #[test]
    fn a_duplicated_output_port_binds_its_first_writer() {
        let (mut design, lib, [p, q, c], _) = two_producers();
        // `x` written by q and p (in that order), and `r` listed twice.
        design.outputs = flat(
            TaskGraph::new(""),
            &[("x", &[q, p]), ("r", &[c]), ("r", &[c])],
        )
        .outputs;
        let b = resolve(&design, &lib);
        assert_eq!(b.check(), Ok(()));
        assert_eq!(b.port(0), Some((q, 0)));
        assert_eq!(b.port(1), Some((c, 0)));
        assert_eq!(b.port(2), Some((c, 0)));
    }
}
