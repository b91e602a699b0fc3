//! Hierarchical PITL dataflow graphs — the user-facing design
//! representation of Banger's graph editor (paper Figure 1).
//!
//! A [`HierGraph`] contains three kinds of nodes:
//!
//! * **Task** — a primitive sequential node (oval in the paper) with a
//!   computational weight and, optionally, the name of the PITS program
//!   that implements it;
//! * **Storage** — a named data item (open rectangle) with a size in
//!   abstract data units; arcs in/out of storage model reads and writes;
//! * **Compound** — a bold-lined node that expands into a lower-level
//!   [`HierGraph`]. Arcs crossing a compound boundary are connected to
//!   inner nodes through explicit *port bindings* keyed by the arc label.
//!
//! [`HierGraph::expand`] is the one walk over the hierarchy: it expands
//! compounds, routes arcs through port bindings and merges aliased storage
//! into an [`Expanded`] design, listing what it could not route instead of
//! failing. [`Expanded::flatten`] reads that strictly and eliminates
//! storage nodes, producing the flat weighted [`TaskGraph`] consumed by the
//! scheduler, plus the design's external inputs and outputs (storage items
//! with no producer / no consumer); `banger-analyze` reads the same
//! [`Expanded`] tolerantly — a `Project` hands both the one value — so both
//! see one set of tasks, arcs and classes.

use crate::error::GraphError;
use crate::graph::{TaskGraph, TaskId};
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashSet};
use std::fmt;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::Arc;

/// Identifier of a node within one level of a [`HierGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct HierNodeId(pub u32);

impl HierNodeId {
    /// Dense index of the node at its level.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for HierNodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "N{}", self.0)
    }
}

/// What a hierarchical node is.
#[derive(Debug, Clone, PartialEq)]
pub enum NodeKind {
    /// A primitive sequential task.
    Task {
        /// Computational weight in abstract operations.
        weight: f64,
        /// Name of the PITS program implementing the task, if any.
        program: Option<String>,
    },
    /// A named data item of the given size (abstract units).
    Storage {
        /// Data size; becomes the volume of the flattened arcs through it.
        size: f64,
    },
    /// A node that expands into a lower-level dataflow graph.
    Compound {
        /// The lower-level design.
        expansion: Box<HierGraph>,
        /// For each externally visible input variable: the inner nodes that
        /// receive it.
        inputs: BTreeMap<String, Vec<HierNodeId>>,
        /// For each externally visible output variable: the inner nodes
        /// that produce it.
        outputs: BTreeMap<String, Vec<HierNodeId>>,
    },
}

/// One node of a hierarchical design.
#[derive(Debug, Clone, PartialEq)]
pub struct HierNode {
    /// Display name (`fan1`, `A`, `LUD`, ...).
    pub name: String,
    /// The node kind.
    pub kind: NodeKind,
}

/// A directed arc at one hierarchy level.
#[derive(Debug, Clone, PartialEq)]
pub struct HierArc {
    /// Source node.
    pub src: HierNodeId,
    /// Destination node.
    pub dst: HierNodeId,
    /// Variable name drawn on the arc; used to select compound port
    /// bindings.
    pub label: String,
    /// Data volume carried by the arc when it connects two tasks directly.
    /// Arcs through storage use the storage size instead.
    pub volume: f64,
}

/// An external port of a flattened design: a storage item with no producer
/// (input) or no consumer (output), together with the flat tasks touching
/// it.
#[derive(Debug, Clone, PartialEq)]
pub struct ExternalPort {
    /// Variable (storage) name.
    pub var: String,
    /// Tasks that read (for inputs) or write (for outputs) the variable.
    pub tasks: Vec<TaskId>,
}

/// Result of flattening a hierarchical design.
#[derive(Debug, Clone, PartialEq)]
pub struct Flattened {
    /// The flat weighted DAG for the scheduler. Shared, so an executor
    /// session holds the graph it was built from without copying it.
    pub graph: Arc<TaskGraph>,
    /// External inputs: storage read but never written inside the design.
    pub inputs: Vec<ExternalPort>,
    /// External outputs: storage written but never read inside the design.
    pub outputs: Vec<ExternalPort>,
}

/// A hierarchical PITL dataflow design.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HierGraph {
    name: String,
    nodes: Vec<HierNode>,
    arcs: Vec<HierArc>,
    /// [`arc_hash`] of every arc: `add_arc` scans `arcs` for a duplicate
    /// only when the new arc's hash is already here. Eight bytes an arc,
    /// where a set of the keys themselves would hold every label twice.
    arc_hashes: HashSet<u64, BuildHasherDefault<Prehashed>>,
}

fn arc_hash(src: HierNodeId, dst: HierNodeId, label: &str) -> u64 {
    let mut h = DefaultHasher::new();
    (src, dst, label).hash(&mut h);
    h.finish()
}

/// The hasher of `arc_hashes`, whose keys are [`arc_hash`] outputs
/// already: it passes a `u64` through instead of hashing it a second time.
#[derive(Default)]
struct Prehashed(u64);

impl Hasher for Prehashed {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = self.0.rotate_left(8) ^ u64::from(b);
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = n;
    }
}

impl HierGraph {
    /// Creates an empty design with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        HierGraph {
            name: name.into(),
            nodes: Vec::new(),
            arcs: Vec::new(),
            arc_hashes: HashSet::default(),
        }
    }

    /// The design name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of nodes at this level.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of arcs at this level.
    pub fn arc_count(&self) -> usize {
        self.arcs.len()
    }

    /// Adds a primitive task node.
    pub fn add_task(&mut self, name: impl Into<String>, weight: f64) -> HierNodeId {
        self.push(HierNode {
            name: name.into(),
            kind: NodeKind::Task {
                weight,
                program: None,
            },
        })
    }

    /// Adds a primitive task node with an attached PITS program name.
    pub fn add_task_with_program(
        &mut self,
        name: impl Into<String>,
        weight: f64,
        program: impl Into<String>,
    ) -> HierNodeId {
        self.push(HierNode {
            name: name.into(),
            kind: NodeKind::Task {
                weight,
                program: Some(program.into()),
            },
        })
    }

    /// Adds a storage node (named data item).
    pub fn add_storage(&mut self, name: impl Into<String>, size: f64) -> HierNodeId {
        self.push(HierNode {
            name: name.into(),
            kind: NodeKind::Storage { size },
        })
    }

    /// Adds a compound node expanding into `expansion`. Port bindings are
    /// attached afterwards with [`HierGraph::bind_input`] /
    /// [`HierGraph::bind_output`].
    pub fn add_compound(&mut self, name: impl Into<String>, expansion: HierGraph) -> HierNodeId {
        self.push(HierNode {
            name: name.into(),
            kind: NodeKind::Compound {
                expansion: Box::new(expansion),
                inputs: BTreeMap::new(),
                outputs: BTreeMap::new(),
            },
        })
    }

    fn push(&mut self, node: HierNode) -> HierNodeId {
        let id = HierNodeId(self.nodes.len() as u32);
        self.nodes.push(node);
        id
    }

    /// Declares that variable `label` entering compound `c` is received by
    /// inner node `inner` (an id in the compound's expansion).
    pub fn bind_input(
        &mut self,
        c: HierNodeId,
        label: impl Into<String>,
        inner: HierNodeId,
    ) -> Result<(), GraphError> {
        match &mut self.node_mut(c)?.kind {
            NodeKind::Compound { inputs, .. } => {
                inputs.entry(label.into()).or_default().push(inner);
                Ok(())
            }
            _ => Err(GraphError::BadExpansion(format!(
                "node {c} is not a compound node"
            ))),
        }
    }

    /// Declares that variable `label` leaving compound `c` is produced by
    /// inner node `inner`.
    pub fn bind_output(
        &mut self,
        c: HierNodeId,
        label: impl Into<String>,
        inner: HierNodeId,
    ) -> Result<(), GraphError> {
        match &mut self.node_mut(c)?.kind {
            NodeKind::Compound { outputs, .. } => {
                outputs.entry(label.into()).or_default().push(inner);
                Ok(())
            }
            _ => Err(GraphError::BadExpansion(format!(
                "node {c} is not a compound node"
            ))),
        }
    }

    /// Adds an arc between two nodes at this level. `volume` applies only
    /// to direct task-to-task (or compound-boundary) arcs; arcs through
    /// storage take the storage size.
    pub fn add_arc(
        &mut self,
        src: HierNodeId,
        dst: HierNodeId,
        label: impl Into<String>,
        volume: f64,
    ) -> Result<(), GraphError> {
        if src.index() >= self.nodes.len() {
            return Err(GraphError::UnknownNode(src.0));
        }
        if dst.index() >= self.nodes.len() {
            return Err(GraphError::UnknownNode(dst.0));
        }
        if src == dst {
            return Err(GraphError::SelfLoopNamed(
                self.nodes[src.index()].name.clone(),
            ));
        }
        if !volume.is_finite() || volume < 0.0 {
            return Err(GraphError::BadWeight(volume));
        }
        if matches!(self.nodes[src.index()].kind, NodeKind::Storage { .. })
            && matches!(self.nodes[dst.index()].kind, NodeKind::Storage { .. })
        {
            return Err(GraphError::BadExpansion(
                "storage-to-storage arcs are not allowed; route through a task".into(),
            ));
        }
        let label = label.into();
        if !self.arc_hashes.insert(arc_hash(src, dst, &label))
            && self
                .arcs
                .iter()
                .any(|a| a.src == src && a.dst == dst && a.label == label)
        {
            return Err(GraphError::DuplicateArc {
                src: self.nodes[src.index()].name.clone(),
                dst: self.nodes[dst.index()].name.clone(),
                label,
            });
        }
        self.arcs.push(HierArc {
            src,
            dst,
            label,
            volume,
        });
        Ok(())
    }

    /// Convenience: arc whose label is the destination/source storage name
    /// and volume comes from the storage node.
    pub fn add_flow(&mut self, src: HierNodeId, dst: HierNodeId) -> Result<(), GraphError> {
        let label = match (&self.nodes[src.index()].kind, &self.nodes[dst.index()].kind) {
            (_, NodeKind::Storage { .. }) => self.nodes[dst.index()].name.clone(),
            (NodeKind::Storage { .. }, _) => self.nodes[src.index()].name.clone(),
            _ => format!(
                "{}_{}",
                self.nodes[src.index()].name,
                self.nodes[dst.index()].name
            ),
        };
        self.add_arc(src, dst, label, 0.0)
    }

    /// The node record for `id`.
    pub fn node(&self, id: HierNodeId) -> Option<&HierNode> {
        self.nodes.get(id.index())
    }

    fn node_mut(&mut self, id: HierNodeId) -> Result<&mut HierNode, GraphError> {
        let raw = id.0;
        self.nodes
            .get_mut(id.index())
            .ok_or(GraphError::UnknownNode(raw))
    }

    /// Iterates over nodes with ids.
    pub fn nodes(&self) -> impl Iterator<Item = (HierNodeId, &HierNode)> {
        self.nodes
            .iter()
            .enumerate()
            .map(|(i, n)| (HierNodeId(i as u32), n))
    }

    /// Iterates over arcs at this level.
    pub fn arcs(&self) -> impl Iterator<Item = &HierArc> {
        self.arcs.iter()
    }

    /// Replaces a *task* node in place with a compound node expanding into
    /// `expansion`, keeping the node id (so existing arcs remain attached)
    /// and installing the given port bindings. Used by design transforms
    /// such as data-parallel expansion. Fails when `id` is not a task.
    pub fn replace_task_with_compound(
        &mut self,
        id: HierNodeId,
        expansion: HierGraph,
        inputs: BTreeMap<String, Vec<HierNodeId>>,
        outputs: BTreeMap<String, Vec<HierNodeId>>,
    ) -> Result<(), GraphError> {
        let node = self.node_mut(id)?;
        if !matches!(node.kind, NodeKind::Task { .. }) {
            return Err(GraphError::BadExpansion(format!(
                "node {id} is not a task; only tasks can be expanded"
            )));
        }
        node.kind = NodeKind::Compound {
            expansion: Box::new(expansion),
            inputs,
            outputs,
        };
        Ok(())
    }

    /// Maximum nesting depth: 1 for a design with no compound nodes.
    pub fn depth(&self) -> usize {
        1 + self
            .nodes
            .iter()
            .filter_map(|n| match &n.kind {
                NodeKind::Compound { expansion, .. } => Some(expansion.depth()),
                _ => None,
            })
            .max()
            .unwrap_or(0)
    }

    /// Total number of primitive tasks across all levels.
    pub fn leaf_task_count(&self) -> usize {
        self.nodes
            .iter()
            .map(|n| match &n.kind {
                NodeKind::Task { .. } => 1,
                NodeKind::Compound { expansion, .. } => expansion.leaf_task_count(),
                NodeKind::Storage { .. } => 0,
            })
            .sum()
    }

    /// Recursively expands compounds into the design's leaf tasks, storage
    /// nodes, routed arcs and alias-merged storage classes. The walk never
    /// fails: an arc that cannot cross a compound boundary is dropped and
    /// listed in [`Expanded::problems`], so one pass serves the strict
    /// [`Expanded::flatten`] and the diagnostics that must still report
    /// everything else wrong with the design.
    pub fn expand(&self) -> Expanded {
        let mut walk = Walk::default();
        walk.out.name = self.name.clone();
        let top = expand_level(self, "", &mut walk);
        route_arcs(self, &top, &mut walk);
        walk.finish()
    }

    /// Expands compounds and eliminates storage: [`expand`](Self::expand)
    /// followed by its strict reading, [`Expanded::flatten`].
    pub fn flatten(&self) -> Result<Flattened, GraphError> {
        self.expand().flatten()
    }
}

impl Expanded {
    /// Eliminates storage, producing the flat scheduler graph plus the
    /// design's external ports: the strict reading of the walk, in which
    /// the first binding problem, a bad weight or a cycle is an error.
    pub fn flatten(&self) -> Result<Flattened, GraphError> {
        if let Some(problem) = self.problems.first() {
            return Err(GraphError::BadExpansion(problem.to_string()));
        }
        // Task ids are indices into `Expanded::tasks`.
        let mut graph = TaskGraph::new(self.name.clone());
        for task in &self.tasks {
            let t = graph.try_add_task(task.name.clone(), task.weight)?;
            if let Some(p) = &task.program {
                graph.set_program(t, p.clone())?;
            }
        }
        let mut add_edge = |s: usize, d: usize, label: &str, vol: f64| {
            if s == d {
                // A task both writing and reading the same storage collapses
                // to nothing after elimination.
                return Ok(());
            }
            match graph.add_edge(TaskId(s as u32), TaskId(d as u32), vol, label) {
                Ok(_) | Err(GraphError::DuplicateEdge { .. }) => Ok(()),
                Err(e) => Err(e),
            }
        };
        for arc in &self.arcs {
            add_edge(arc.src, arc.dst, &arc.label, arc.volume)?;
        }
        let port = |class: &StorageClass, tasks: &[usize]| ExternalPort {
            var: class.base.clone(),
            tasks: tasks.iter().map(|&t| TaskId(t as u32)).collect(),
        };
        let mut inputs = Vec::new();
        let mut outputs = Vec::new();
        for class in &self.classes {
            match (class.writers.is_empty(), class.readers.is_empty()) {
                (true, true) => {} // isolated storage: ignored
                (true, false) => inputs.push(port(class, &class.readers)),
                (false, true) => outputs.push(port(class, &class.writers)),
                (false, false) => {
                    for &w in &class.writers {
                        for &r in &class.readers {
                            add_edge(w, r, &class.base, class.size)?;
                        }
                    }
                }
            }
        }
        graph.topo_order()?;
        Ok(Flattened {
            graph: Arc::new(graph),
            inputs,
            outputs,
        })
    }
}

/// A leaf task of an expanded design.
#[derive(Debug, Clone, PartialEq)]
pub struct FlatTask {
    /// Hierarchy-qualified name (`Factor.fl21`).
    pub name: String,
    /// Computational weight as drawn.
    pub weight: f64,
    /// PITS program implementing the task, if any.
    pub program: Option<String>,
}

/// A storage node of an expanded design.
#[derive(Debug, Clone, PartialEq)]
pub struct FlatStorage {
    /// Hierarchy-qualified name.
    pub name: String,
    /// The unqualified name: the variable arcs through the node carry.
    pub base: String,
    /// Declared size.
    pub size: f64,
}

/// A direct task-to-task arc of an expanded design.
#[derive(Debug, Clone, PartialEq)]
pub struct FlatArc {
    /// Producer, an index into [`Expanded::tasks`].
    pub src: usize,
    /// Consumer, an index into [`Expanded::tasks`].
    pub dst: usize,
    /// Variable drawn on the arc.
    pub label: String,
    /// Data volume the arc carries.
    pub volume: f64,
}

/// One storage *class*: the storage nodes that alias one data item across
/// compound boundaries (an outer storage bound to an inner one).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StorageClass {
    /// Base name of the first member; this is the variable arcs through
    /// the class carry.
    pub base: String,
    /// Indices into [`Expanded::storages`], ascending.
    pub members: Vec<usize>,
    /// Largest declared size across the members (the aliases describe the
    /// same item, sizes should agree).
    pub size: f64,
    /// Tasks writing the item, one entry per routed arc, in route order
    /// (the edge ids [`Expanded::flatten`] hands out follow it).
    pub writers: Vec<usize>,
    /// Tasks reading the item, one entry per routed arc, in route order.
    pub readers: Vec<usize>,
}

/// Why an arc could not cross a compound boundary. `Display` is the text
/// [`Expanded::flatten`] fails with.
#[derive(Debug, Clone, PartialEq)]
pub struct BindingProblem {
    /// What is missing.
    pub fault: BindingFault,
    /// The compound at fault: its name at its own level for
    /// [`BindingFault::Unbound`], its hierarchy-qualified name otherwise.
    pub compound: String,
    /// The label of the arc or of the binding.
    pub label: String,
}

/// The kinds of [`BindingProblem`].
#[derive(Debug, Clone, PartialEq)]
pub enum BindingFault {
    /// An arc enters or leaves a compound that binds no inner node to the
    /// arc's label.
    Unbound {
        /// The compound's id at its level.
        node: HierNodeId,
        /// Name of the graph that level belongs to.
        level: String,
        /// True when the arc enters the compound.
        incoming: bool,
    },
    /// A binding names a nested compound that itself has no binding for
    /// the label.
    NestedUnbound,
    /// A binding names this inner node, which does not exist.
    MissingInner(HierNodeId),
}

impl fmt::Display for BindingProblem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (compound, label) = (&self.compound, &self.label);
        match &self.fault {
            BindingFault::Unbound {
                node,
                level,
                incoming,
            } => write!(
                f,
                "compound node {node} in {level:?} has no {} binding for variable {label:?}",
                if *incoming { "input" } else { "output" },
            ),
            BindingFault::NestedUnbound => {
                write!(f, "nested compound lacks a binding for {label:?}")
            }
            BindingFault::MissingInner(inner) => write!(
                f,
                "binding for {label:?} in compound {compound:?} names missing inner node {inner}"
            ),
        }
    }
}

/// A design with its compounds expanded and its storage still in place —
/// what [`HierGraph::expand`] returns.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Expanded {
    /// Name of the design that was expanded.
    pub name: String,
    /// Leaf tasks; an index here is the task's [`TaskId`] after
    /// [`flatten`](Self::flatten).
    pub tasks: Vec<FlatTask>,
    /// Every storage node, in walk order.
    pub storages: Vec<FlatStorage>,
    /// Direct task-to-task arcs in route order (duplicates included).
    pub arcs: Vec<FlatArc>,
    /// Storage classes after alias merging.
    pub classes: Vec<StorageClass>,
    /// Arcs that were dropped, in walk order.
    pub problems: Vec<BindingProblem>,
}

/// Where a task or storage node of some level sits in the expansion.
#[derive(Debug, Clone, Copy)]
enum Flat {
    Task(usize),
    Storage(usize),
}

/// How a hierarchical node at some level is reached by that level's arcs.
enum Repr<'a> {
    Simple(Flat),
    Compound {
        inputs: BTreeMap<&'a str, Vec<Flat>>,
        outputs: BTreeMap<&'a str, Vec<Flat>>,
    },
}

/// State of one [`HierGraph::expand`] walk.
#[derive(Default)]
struct Walk {
    out: Expanded,
    /// `(storage, task)` of every routed write and read arc.
    writes: Vec<(usize, usize)>,
    reads: Vec<(usize, usize)>,
    aliases: UnionFind,
}

fn expand_level<'a>(g: &'a HierGraph, prefix: &str, walk: &mut Walk) -> Vec<Repr<'a>> {
    let mut level = Vec::with_capacity(g.nodes.len());
    for node in &g.nodes {
        let name = if prefix.is_empty() {
            node.name.clone()
        } else {
            format!("{prefix}.{}", node.name)
        };
        level.push(match &node.kind {
            NodeKind::Task { weight, program } => {
                walk.out.tasks.push(FlatTask {
                    name,
                    weight: *weight,
                    program: program.clone(),
                });
                Repr::Simple(Flat::Task(walk.out.tasks.len() - 1))
            }
            NodeKind::Storage { size } => {
                walk.out.storages.push(FlatStorage {
                    name,
                    base: node.name.clone(),
                    size: *size,
                });
                Repr::Simple(Flat::Storage(walk.aliases.add()))
            }
            NodeKind::Compound {
                expansion,
                inputs,
                outputs,
            } => {
                let child = expand_level(expansion, &name, walk);
                route_arcs(expansion, &child, walk);
                let mut resolve = |bindings: &'a BTreeMap<String, Vec<HierNodeId>>, incoming| {
                    let mut ports = BTreeMap::new();
                    for (label, ids) in bindings {
                        let mut ends = Vec::new();
                        for &inner in ids {
                            let fault = match child.get(inner.index()) {
                                Some(Repr::Simple(flat)) => {
                                    ends.push(*flat);
                                    continue;
                                }
                                // Binding to a nested compound passes
                                // through the same label.
                                Some(Repr::Compound { inputs, outputs }) => {
                                    let ports = if incoming { inputs } else { outputs };
                                    if let Some(nested) = ports.get(label.as_str()) {
                                        ends.extend(nested);
                                        continue;
                                    }
                                    BindingFault::NestedUnbound
                                }
                                None => BindingFault::MissingInner(inner),
                            };
                            walk.out.problems.push(BindingProblem {
                                fault,
                                compound: name.clone(),
                                label: label.clone(),
                            });
                        }
                        ports.insert(label.as_str(), ends);
                    }
                    ports
                };
                Repr::Compound {
                    inputs: resolve(inputs, true),
                    outputs: resolve(outputs, false),
                }
            }
        });
    }
    level
}

/// The expanded nodes an arc labelled `label` reaches through `id`;
/// nothing, and a problem, when `id` is a compound without that port.
fn endpoints<'l>(
    g: &HierGraph,
    level: &'l [Repr],
    id: HierNodeId,
    label: &str,
    incoming: bool,
    problems: &mut Vec<BindingProblem>,
) -> &'l [Flat] {
    match &level[id.index()] {
        Repr::Simple(flat) => std::slice::from_ref(flat),
        Repr::Compound { inputs, outputs } => {
            match (if incoming { inputs } else { outputs }).get(label) {
                Some(ends) => ends,
                None => {
                    problems.push(BindingProblem {
                        fault: BindingFault::Unbound {
                            node: id,
                            level: g.name.clone(),
                            incoming,
                        },
                        compound: g.nodes[id.index()].name.clone(),
                        label: label.to_string(),
                    });
                    &[]
                }
            }
        }
    }
}

fn route_arcs(g: &HierGraph, level: &[Repr], walk: &mut Walk) {
    for arc in &g.arcs {
        let problems = &mut walk.out.problems;
        let srcs = endpoints(g, level, arc.src, &arc.label, false, problems);
        let dsts = endpoints(g, level, arc.dst, &arc.label, true, problems);
        for &s in srcs {
            for &d in dsts {
                match (s, d) {
                    (Flat::Task(src), Flat::Task(dst)) => walk.out.arcs.push(FlatArc {
                        src,
                        dst,
                        label: arc.label.clone(),
                        volume: arc.volume,
                    }),
                    (Flat::Task(t), Flat::Storage(s)) => walk.writes.push((s, t)),
                    (Flat::Storage(s), Flat::Task(t)) => walk.reads.push((s, t)),
                    // Storage-to-storage arcs only arise from compound port
                    // bindings: the two nodes are aliases of one data item.
                    (Flat::Storage(a), Flat::Storage(b)) => walk.aliases.union(a, b),
                }
            }
        }
    }
}

/// Union-find over storage indices, used to merge storage nodes that are
/// aliases of the same data item (an outer storage bound to an inner one
/// across a compound boundary).
#[derive(Default)]
struct UnionFind {
    parent: Vec<usize>,
}

impl UnionFind {
    fn add(&mut self) -> usize {
        self.parent.push(self.parent.len());
        self.parent.len() - 1
    }

    fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] != x {
            self.parent[x] = self.parent[self.parent[x]];
            x = self.parent[x];
        }
        x
    }

    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            self.parent[rb] = ra;
        }
    }
}

impl Walk {
    /// Groups the storage nodes into classes, in representative order, and
    /// hands every write and read to its class: one pass per list (a scan
    /// of every node per class made a 32,000-task chain through storage
    /// take five seconds).
    fn finish(mut self) -> Expanded {
        let storages = &self.out.storages;
        let mut classes = vec![StorageClass::default(); storages.len()];
        for (s, storage) in storages.iter().enumerate() {
            let class = &mut classes[self.aliases.find(s)];
            class.members.push(s);
            if storage.size > class.size {
                class.size = storage.size;
            }
            if class.base.is_empty() {
                class.base = storage.base.clone();
            }
        }
        for (s, t) in self.writes {
            classes[self.aliases.find(s)].writers.push(t);
        }
        for (s, t) in self.reads {
            classes[self.aliases.find(s)].readers.push(t);
        }
        // Only a representative has members: itself, at least.
        classes.retain(|class| !class.members.is_empty());
        self.out.classes = classes;
        self.out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A one-level design: A --(a)--> sqrt --(x)--> X
    fn simple() -> HierGraph {
        let mut g = HierGraph::new("sqrtprog");
        let a = g.add_storage("a", 1.0);
        let t = g.add_task_with_program("sqrt", 10.0, "sqrt_body");
        let x = g.add_storage("x", 1.0);
        g.add_flow(a, t).unwrap();
        g.add_flow(t, x).unwrap();
        g
    }

    #[test]
    fn flatten_simple() {
        let f = simple().flatten().unwrap();
        assert_eq!(f.graph.task_count(), 1);
        assert_eq!(f.graph.edge_count(), 0);
        assert_eq!(f.inputs.len(), 1);
        assert_eq!(f.inputs[0].var, "a");
        assert_eq!(f.outputs.len(), 1);
        assert_eq!(f.outputs[0].var, "x");
        let t = f.graph.find_task("sqrt").unwrap();
        assert_eq!(f.graph.task(t).program.as_deref(), Some("sqrt_body"));
    }

    #[test]
    fn storage_between_tasks_becomes_edge() {
        let mut g = HierGraph::new("pipe");
        let p = g.add_task("produce", 5.0);
        let s = g.add_storage("buf", 64.0);
        let c = g.add_task("consume", 3.0);
        g.add_flow(p, s).unwrap();
        g.add_flow(s, c).unwrap();
        let f = g.flatten().unwrap();
        assert_eq!(f.graph.task_count(), 2);
        assert_eq!(f.graph.edge_count(), 1);
        let (_, e) = f.graph.edges().next().unwrap();
        assert_eq!(e.volume, 64.0);
        assert_eq!(e.label, "buf");
        assert!(f.inputs.is_empty());
        assert!(f.outputs.is_empty());
    }

    #[test]
    fn fan_out_fan_in_through_storage() {
        let mut g = HierGraph::new("fan");
        let w1 = g.add_task("w1", 1.0);
        let w2 = g.add_task("w2", 1.0);
        let s = g.add_storage("s", 8.0);
        let r1 = g.add_task("r1", 1.0);
        let r2 = g.add_task("r2", 1.0);
        g.add_flow(w1, s).unwrap();
        g.add_flow(w2, s).unwrap();
        g.add_flow(s, r1).unwrap();
        g.add_flow(s, r2).unwrap();
        let f = g.flatten().unwrap();
        // Cross product: 2 writers x 2 readers = 4 edges.
        assert_eq!(f.graph.edge_count(), 4);
    }

    #[test]
    fn compound_expansion() {
        // Inner: in storage "v" -> double -> out storage "w"
        let mut inner = HierGraph::new("inner");
        let iv = inner.add_storage("v", 4.0);
        let t = inner.add_task("double", 2.0);
        let iw = inner.add_storage("w", 4.0);
        inner.add_flow(iv, t).unwrap();
        inner.add_flow(t, iw).unwrap();

        // Outer: gen -> [C] -> use, bound through v/w.
        let mut outer = HierGraph::new("outer");
        let gen = outer.add_task("gen", 1.0);
        let c = outer.add_compound("C", inner);
        let use_ = outer.add_task("use", 1.0);
        outer.bind_input(c, "v", iv).unwrap();
        outer.bind_output(c, "w", iw).unwrap();
        outer.add_arc(gen, c, "v", 4.0).unwrap();
        outer.add_arc(c, use_, "w", 4.0).unwrap();

        let f = outer.flatten().unwrap();
        assert_eq!(f.graph.task_count(), 3);
        assert_eq!(f.graph.edge_count(), 2);
        let names: Vec<String> = f.graph.tasks().map(|(_, t)| t.name.clone()).collect();
        assert!(names.contains(&"C.double".to_string()), "{names:?}");
        // gen -> C.double and C.double -> use must exist
        let gen_t = f.graph.find_task("gen").unwrap();
        let dbl = f.graph.find_task("C.double").unwrap();
        let use_t = f.graph.find_task("use").unwrap();
        assert_eq!(f.graph.successors(gen_t).collect::<Vec<_>>(), vec![dbl]);
        assert_eq!(f.graph.successors(dbl).collect::<Vec<_>>(), vec![use_t]);
        assert!(f.graph.is_dag());
    }

    #[test]
    fn compound_binding_directly_to_inner_task() {
        let mut inner = HierGraph::new("inner");
        let t = inner.add_task("work", 2.0);

        let mut outer = HierGraph::new("outer");
        let gen = outer.add_task("gen", 1.0);
        let c = outer.add_compound("C", inner);
        outer.bind_input(c, "d", t).unwrap();
        outer.add_arc(gen, c, "d", 3.0).unwrap();

        let f = outer.flatten().unwrap();
        assert_eq!(f.graph.edge_count(), 1);
        let (_, e) = f.graph.edges().next().unwrap();
        assert_eq!(e.volume, 3.0);
        assert_eq!(e.label, "d");
    }

    #[test]
    fn missing_binding_is_an_error() {
        let inner = HierGraph::new("inner");
        let mut outer = HierGraph::new("outer");
        let gen = outer.add_task("gen", 1.0);
        let c = outer.add_compound("C", inner);
        outer.add_arc(gen, c, "d", 3.0).unwrap();
        let err = outer.flatten().unwrap_err();
        assert!(matches!(err, GraphError::BadExpansion(_)), "{err:?}");
    }

    #[test]
    fn two_level_nesting() {
        let mut leaf = HierGraph::new("leaf");
        let lt = leaf.add_task("w", 1.0);

        let mut mid = HierGraph::new("mid");
        let mc = mid.add_compound("L", leaf);
        mid.bind_input(mc, "x", lt).unwrap();

        let mut top = HierGraph::new("top");
        let gen = top.add_task("gen", 1.0);
        let tc = top.add_compound("M", mid);
        // Binding to a nested compound resolves through its own binding.
        top.bind_input(tc, "x", mc).unwrap();
        top.add_arc(gen, tc, "x", 2.0).unwrap();

        let f = top.flatten().unwrap();
        assert_eq!(f.graph.task_count(), 2);
        assert_eq!(f.graph.edge_count(), 1);
        assert!(f.graph.find_task("M.L.w").is_some());
        assert_eq!(top.depth(), 3);
        assert_eq!(top.leaf_task_count(), 2);
    }

    #[test]
    fn storage_to_storage_rejected() {
        let mut g = HierGraph::new("ss");
        let a = g.add_storage("a", 1.0);
        let b = g.add_storage("b", 1.0);
        assert!(g.add_arc(a, b, "x", 1.0).is_err());
    }

    #[test]
    fn bind_on_non_compound_rejected() {
        let mut g = HierGraph::new("bn");
        let t = g.add_task("t", 1.0);
        assert!(g.bind_input(t, "x", HierNodeId(0)).is_err());
        assert!(g.bind_output(t, "x", HierNodeId(0)).is_err());
    }

    #[test]
    fn task_reading_and_writing_same_storage_no_self_loop() {
        let mut g = HierGraph::new("rw");
        let t = g.add_task("t", 1.0);
        let s = g.add_storage("s", 4.0);
        let u = g.add_task("u", 1.0);
        g.add_flow(t, s).unwrap();
        g.add_flow(s, t).unwrap(); // t updates s in place
        g.add_flow(s, u).unwrap();
        let f = g.flatten().unwrap();
        // Only t -> u survives; the t -> t edge is dropped.
        assert_eq!(f.graph.edge_count(), 1);
        assert!(f.graph.is_dag());
    }

    #[test]
    fn flatten_cycle_detected() {
        let mut g = HierGraph::new("cyc");
        let a = g.add_task("a", 1.0);
        let b = g.add_task("b", 1.0);
        g.add_arc(a, b, "x", 1.0).unwrap();
        g.add_arc(b, a, "y", 1.0).unwrap();
        assert!(matches!(g.flatten(), Err(GraphError::Cycle(_))));
    }

    #[test]
    fn self_loop_rejected_with_node_name() {
        let mut g = HierGraph::new("sl");
        let t = g.add_task("worker", 1.0);
        let err = g.add_arc(t, t, "x", 1.0).unwrap_err();
        assert_eq!(err, GraphError::SelfLoopNamed("worker".into()));
        assert!(err.to_string().contains("worker"));
        let err2 = g.add_flow(t, t).unwrap_err();
        assert_eq!(err2, GraphError::SelfLoopNamed("worker".into()));
    }

    #[test]
    fn duplicate_arc_rejected_with_node_names() {
        let mut g = HierGraph::new("dup");
        let a = g.add_task("producer", 1.0);
        let b = g.add_task("consumer", 1.0);
        g.add_arc(a, b, "x", 1.0).unwrap();
        let err = g.add_arc(a, b, "x", 2.0).unwrap_err();
        assert_eq!(
            err,
            GraphError::DuplicateArc {
                src: "producer".into(),
                dst: "consumer".into(),
                label: "x".into(),
            }
        );
        assert!(err.to_string().contains("producer"), "{err}");
        // A different label between the same nodes is still fine.
        g.add_arc(a, b, "y", 1.0).unwrap();
    }

    #[test]
    fn hundred_thousand_chained_arcs_build_in_linear_time() {
        const N: usize = 100_000;
        let mut g = HierGraph::new("chain");
        let ids: Vec<_> = (0..=N).map(|i| g.add_task(format!("t{i}"), 1.0)).collect();
        let started = std::time::Instant::now();
        for w in ids.windows(2) {
            g.add_arc(w[0], w[1], "x", 1.0).unwrap();
        }
        let took = started.elapsed();
        assert_eq!(g.arc_count(), N);
        assert!(matches!(
            g.add_arc(ids[N / 2], ids[N / 2 + 1], "x", 1.0),
            Err(GraphError::DuplicateArc { .. })
        ));
        // A scan of every arc per call took 4.6 s here in release; an
        // unoptimised build gets ten times the budget.
        let budget = if cfg!(debug_assertions) { 10.0 } else { 1.0 };
        assert!(
            took.as_secs_f64() < budget,
            "{N} add_arc calls took {took:?}"
        );
    }

    #[test]
    fn storage_chain_of_32k_tasks_flattens_in_linear_time() {
        // t0 -> s1 -> t1 -> s2 -> ... : the idiom `.bang` files use, one
        // storage class per arc.
        const N: usize = 32_000;
        let mut g = HierGraph::new("chain");
        let mut prev = g.add_task("t0", 1.0);
        for i in 1..N {
            let s = g.add_storage(format!("s{i}"), 1.0);
            let t = g.add_task(format!("t{i}"), 1.0);
            g.add_flow(prev, s).unwrap();
            g.add_flow(s, t).unwrap();
            prev = t;
        }
        let started = std::time::Instant::now();
        let f = g.flatten().unwrap();
        let took = started.elapsed();
        assert_eq!(f.graph.task_count(), N);
        assert_eq!(f.graph.edge_count(), N - 1);
        assert!(f.inputs.is_empty() && f.outputs.is_empty());
        // A scan of every node per storage class took 5.2 s here in
        // release; an unoptimised build gets ten times the budget.
        let budget = if cfg!(debug_assertions) { 10.0 } else { 1.0 };
        assert!(took.as_secs_f64() < budget, "flatten took {took:?}");
    }

    #[test]
    fn duplicate_flow_rejected() {
        let mut g = HierGraph::new("dupf");
        let t = g.add_task("t", 1.0);
        let s = g.add_storage("s", 4.0);
        g.add_flow(t, s).unwrap();
        assert!(matches!(
            g.add_flow(t, s),
            Err(GraphError::DuplicateArc { .. })
        ));
    }
}
