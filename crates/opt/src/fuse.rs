//! Task fusion: materialising the grain packer's clusters as real tasks.
//!
//! [`banger_sched::grain::pack`] decides which tasks *should* run as one
//! grain by zeroing edges in a cost model — but until now the decision
//! only informed the schedule; the executor still paid per-task dispatch
//! for every original task. This pass rewrites the graph itself: the
//! PITS programs of the tasks in one cluster are renamed apart and
//! spliced into a single program
//! ([`banger_calc::transform::splice_programs`]), and the cluster
//! becomes one task whose weight is the exact sum of its members'.
//!
//! # Soundness
//!
//! Fusion is Outcome-preserving: for any external binding the fused
//! design produces byte-identical outputs and the same total operation
//! count. This holds because input binding and output collection are
//! free (0 ops) in the interpreter, statement costs are position
//! independent, and the splice keeps every statement. The safety
//! planner rejects any cluster where the variable-merge could change
//! values:
//!
//! - a member without a program, or with `print` statements (fusing
//!   would re-attribute console output);
//! - two members importing the same variable name from *different*
//!   sources (the fused program has one input slot per name);
//! - two members exporting the same pinned output name;
//! - a pinned input name colliding with a pinned output name (PITS
//!   programs may not declare a variable as both);
//! - a member that assigns one of its inputs whose merged variable has
//!   other readers (the original semantics give each consumer a private
//!   copy; the splice would leak the mutation).
//!
//! Rejected clusters are left as their original singleton tasks —
//! fusion degrades to a no-op rather than an unsound rewrite.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use banger_calc::ast::{Facts, Program};
use banger_calc::library::ProgramLibrary;
use banger_calc::transform::{rename_vars, splice_programs};
use banger_sched::grain;
use banger_taskgraph::binding::{Bindings, Source};
use banger_taskgraph::hierarchy::{ExternalPort, Flattened};
use banger_taskgraph::{TaskGraph, TaskId};

use crate::OptError;

/// What [`fuse`] did.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FuseStats {
    /// Task count before fusion.
    pub tasks_before: usize,
    /// Task count after fusion.
    pub tasks_after: usize,
    /// Clusters of two or more tasks that were fused.
    pub clusters_fused: usize,
    /// Clusters the safety planner rejected (left unfused).
    pub clusters_rejected: usize,
    /// Grain-model parallel-time estimate of the input graph.
    pub estimated_pt_before: f64,
    /// Grain-model parallel-time estimate of the fused graph.
    pub estimated_pt_after: f64,
}

/// A fused cluster ready to be installed in the rewritten graph.
struct Plan {
    members: Vec<TaskId>,
    /// Spliced program; its `name` is finalised at registration time.
    program: Program,
    /// Pinned input name -> its required producer (`None` = external).
    pinned_inputs: BTreeMap<String, Option<TaskId>>,
}

/// Plans the fusion of one cluster, or returns `None` when any safety
/// rule fails. `members` must be in topological order of `g`.
fn plan_cluster(
    g: &TaskGraph,
    lib: &ProgramLibrary,
    bindings: &Bindings,
    members: &[TaskId],
    in_cluster: &dyn Fn(TaskId) -> bool,
    outputs: &[ExternalPort],
) -> Option<Plan> {
    let progs: Vec<&Program> = members
        .iter()
        .map(|&m| lib.get(g.task(m).program.as_deref()?))
        .collect::<Option<Vec<_>>>()?;
    let facts: Vec<Facts> = progs.iter().map(|p| Facts::of(&p.body)).collect();
    if facts.iter().any(|f| f.prints) {
        return None;
    }
    // Each member's declared inputs beside where the binding rule takes
    // them from.
    let sources = |k: usize| {
        let row = bindings.row(members[k]).expect("the member has a program");
        progs[k].inputs.iter().zip(row.iter().copied())
    };
    let imports_externally = |k: usize, var: &String| {
        sources(k).any(|(v, src)| v == var && matches!(src, Source::External(_)))
    };

    let is_output_port =
        |t: TaskId, var: &str| outputs.iter().any(|p| p.var == var && p.tasks.contains(&t));
    let out_label_count = |t: TaskId, var: &str| {
        g.out_edges(t)
            .iter()
            .filter(|&&e| g.edge(e).label == var)
            .count()
    };

    // Pinned inputs: variables the cluster imports from outside. Two
    // members may share a pinned name only when it denotes the same
    // value (identical source).
    let mut pinned_inputs: BTreeMap<String, Option<TaskId>> = BTreeMap::new();
    let mut pinned_input_order: Vec<String> = Vec::new();
    for k in 0..members.len() {
        for (v, src) in sources(k) {
            let boundary = match src {
                Source::External(_) => None,
                Source::Arc { src: p, .. } => {
                    if in_cluster(p) {
                        continue;
                    }
                    Some(p)
                }
            };
            match pinned_inputs.get(v) {
                Some(prev) if *prev != boundary => return None,
                Some(_) => {}
                None => {
                    pinned_inputs.insert(v.clone(), boundary);
                    pinned_input_order.push(v.clone());
                }
            }
        }
    }

    // Pinned outputs: variables consumed outside the cluster (by arcs
    // to foreign tasks or by design output ports). Each pinned name may
    // have exactly one producer among the members.
    let mut pinned_outputs: BTreeMap<String, TaskId> = BTreeMap::new();
    let mut pinned_output_order: Vec<String> = Vec::new();
    for (&m, prog) in members.iter().zip(&progs) {
        for o in &prog.outputs {
            let consumed = is_output_port(m, o)
                || g.out_edges(m)
                    .iter()
                    .any(|&e| g.edge(e).label == *o && !in_cluster(g.edge(e).dst));
            if consumed {
                if pinned_outputs.insert(o.clone(), m).is_some() {
                    return None;
                }
                pinned_output_order.push(o.clone());
            }
        }
    }
    if pinned_output_order
        .iter()
        .any(|o| pinned_inputs.contains_key(o))
    {
        return None;
    }

    // Mutation hazards: a member writing an input variable (assigning
    // it or storing into it) mutates the merged variable in place; reject
    // when the original value had any other observer.
    for (k, facts) in facts.iter().enumerate() {
        for (v, src) in sources(k) {
            if facts.written(v).is_none() {
                continue;
            }
            let mut others = (0..members.len()).filter(|&k2| k2 != k);
            let hazard = match src {
                Source::External(_) => others.any(|k2| imports_externally(k2, v)),
                Source::Arc { src: p, .. } if in_cluster(p) => {
                    out_label_count(p, v) > 1 || is_output_port(p, v)
                }
                Source::Arc { .. } => others.any(|k2| progs[k2].inputs.contains(v)),
            };
            if hazard {
                return None;
            }
        }
    }

    // Rename members apart. Pinned names are claimed up front; every
    // internal producer-consumer pair unifies on the producer's spliced
    // output name.
    let mut claimed: BTreeSet<String> = pinned_inputs.keys().cloned().collect();
    claimed.extend(pinned_output_order.iter().cloned());
    let fresh = |base: &str, claimed: &mut BTreeSet<String>| -> String {
        if claimed.insert(base.to_string()) {
            return base.to_string();
        }
        let mut k = 2usize;
        loop {
            let cand = format!("{base}__{k}");
            if claimed.insert(cand.clone()) {
                return cand;
            }
            k += 1;
        }
    };
    let mut spliced_name: BTreeMap<(TaskId, String), String> = BTreeMap::new();
    let mut renamed: Vec<Program> = Vec::with_capacity(members.len());
    for (k, (&m, prog)) in members.iter().zip(&progs).enumerate() {
        let mut map: BTreeMap<String, String> = BTreeMap::new();
        for (v, src) in sources(k) {
            match src {
                Source::Arc { src: p, .. } if in_cluster(p) => {
                    map.insert(v.clone(), spliced_name[&(p, v.clone())].clone());
                }
                _ => {
                    map.insert(v.clone(), v.clone());
                }
            }
        }
        for o in &prog.outputs {
            let name = if pinned_outputs.get(o) == Some(&m) {
                o.clone()
            } else {
                fresh(o, &mut claimed)
            };
            spliced_name.insert((m, o.clone()), name.clone());
            map.insert(o.clone(), name);
        }
        for l in &prog.locals {
            map.insert(l.clone(), fresh(l, &mut claimed));
        }
        renamed.push(rename_vars(prog, &map));
    }

    let parts: Vec<&Program> = renamed.iter().collect();
    let program = splice_programs("Fused", &parts, pinned_input_order, pinned_output_order);
    Some(Plan {
        members: members.to_vec(),
        program,
        pinned_inputs,
    })
}

/// Fuses tasks along the clustering chosen by the grain packer.
///
/// Equivalent to `fuse_with(flat, lib, &pack(graph).cluster_of)`.
pub fn fuse(
    flat: &Flattened,
    lib: &ProgramLibrary,
) -> Result<(Flattened, ProgramLibrary, FuseStats), OptError> {
    let packing = grain::pack(&flat.graph).map_err(OptError::Graph)?;
    fuse_with(flat, lib, &packing.cluster_of)
}

/// Fuses tasks along an explicit clustering (`cluster_of[t] = cluster id`
/// for each task index, as produced by [`grain::pack`]).
///
/// Clusters the safety planner rejects stay unfused. The returned
/// library contains the surviving original programs plus one spliced
/// program per fused cluster (named `Fused<k>`, de-collided against
/// existing names).
pub fn fuse_with(
    flat: &Flattened,
    lib: &ProgramLibrary,
    cluster_of: &[usize],
) -> Result<(Flattened, ProgramLibrary, FuseStats), OptError> {
    let g = &flat.graph;
    assert_eq!(
        cluster_of.len(),
        g.task_count(),
        "cluster_of must cover every task"
    );
    let topo = g.topo_order().map_err(OptError::Graph)?;
    let mut stats = FuseStats {
        tasks_before: g.task_count(),
        ..FuseStats::default()
    };
    let trivial: Vec<usize> = (0..g.task_count()).collect();
    stats.estimated_pt_before = grain::estimate_pt(g, &trivial).map_err(OptError::Graph)?;

    // Group members in topological order, then plan each multi-member
    // cluster; rejected clusters dissolve back into singletons.
    let mut members_of: BTreeMap<usize, Vec<TaskId>> = BTreeMap::new();
    for &t in &topo {
        members_of.entry(cluster_of[t.index()]).or_default().push(t);
    }
    let bindings = Bindings::resolve(flat, |name| lib.interface(name));
    let mut plans: BTreeMap<usize, Plan> = BTreeMap::new();
    for (&c, members) in &members_of {
        if members.len() < 2 {
            continue;
        }
        let in_cluster = |t: TaskId| cluster_of[t.index()] == c;
        match plan_cluster(g, lib, &bindings, members, &in_cluster, &flat.outputs) {
            Some(plan) => {
                plans.insert(c, plan);
                stats.clusters_fused += 1;
            }
            None => {
                stats.clusters_rejected += 1;
            }
        }
    }

    // Final grouping: members of planned clusters share a group; every
    // other task is a singleton. Groups are numbered densely by first
    // appearance in topological order.
    let mut group: Vec<usize> = vec![usize::MAX; g.task_count()];
    let mut group_members: Vec<Vec<TaskId>> = Vec::new();
    for &t in &topo {
        if group[t.index()] != usize::MAX {
            continue;
        }
        let gid = group_members.len();
        match plans.get(&cluster_of[t.index()]) {
            Some(plan) => {
                for &m in &plan.members {
                    group[m.index()] = gid;
                }
                group_members.push(plan.members.clone());
            }
            None => {
                group[t.index()] = gid;
                group_members.push(vec![t]);
            }
        }
    }

    // Build the fused graph and its library.
    let mut new_lib = ProgramLibrary::new();
    let mut out = TaskGraph::new(g.name());
    let mut fused_plan: Vec<Option<&Plan>> = vec![None; group_members.len()];
    for (gid, members) in group_members.iter().enumerate() {
        if members.len() == 1 {
            let task = g.task(members[0]);
            let t = out.add_task(task.name.clone(), task.weight);
            if let Some(p) = &task.program {
                out.set_program(t, p.clone()).map_err(OptError::Graph)?;
                if new_lib.get(p).is_none() {
                    let prog = lib
                        .get(p)
                        .ok_or_else(|| OptError::UnknownProgram(p.clone()))?;
                    new_lib.add(prog.clone());
                }
            }
        } else {
            let plan = &plans[&cluster_of[members[0].index()]];
            fused_plan[gid] = Some(plan);
            let weight: f64 = members.iter().map(|&m| g.task(m).weight).sum();
            let t = out.add_task(format!("fuse{gid}_{}", members.len()), weight);
            let mut pname = format!("Fused{gid}");
            let mut k = 2usize;
            while lib.get(&pname).is_some() || new_lib.get(&pname).is_some() {
                pname = format!("Fused{gid}_{k}");
                k += 1;
            }
            let mut prog = plan.program.clone();
            prog.name = pname.clone();
            new_lib.add(prog);
            out.set_program(t, pname).map_err(OptError::Graph)?;
        }
    }

    // Inter-group edges, deduplicated by (src, dst, label) with the
    // maximum volume, in first-occurrence order (which preserves the
    // binding rule's first-edge-wins for unfused consumers). Edges
    // into a fused group survive only when they carry one of its pinned
    // internal inputs from the planned producer's group — anything else
    // (dead labels, shadowed duplicates) would hijack a binding.
    let mut order: Vec<(TaskId, TaskId, String)> = Vec::new();
    let mut volume: BTreeMap<(TaskId, TaskId, String), f64> = BTreeMap::new();
    for (_, edge) in g.edges() {
        let gs = group[edge.src.index()];
        let gd = group[edge.dst.index()];
        if gs == gd {
            continue;
        }
        if let Some(plan) = fused_plan[gd] {
            let wanted = matches!(
                plan.pinned_inputs.get(&edge.label),
                Some(Some(p)) if group[p.index()] == gs
            );
            if !wanted {
                continue;
            }
        }
        let key = (TaskId(gs as u32), TaskId(gd as u32), edge.label.clone());
        match volume.get_mut(&key) {
            Some(v) => *v = v.max(edge.volume),
            None => {
                volume.insert(key.clone(), edge.volume);
                order.push(key);
            }
        }
    }
    for key in order {
        let vol = volume[&key];
        out.add_edge(key.0, key.1, vol, key.2.clone())
            .map_err(OptError::Graph)?;
    }

    // Ports. An input port's readers are the groups that still import
    // the variable externally; output ports map each writer to its
    // group (the pinned name survives by construction).
    let mut inputs: Vec<ExternalPort> = Vec::new();
    for port in &flat.inputs {
        let mut tasks: Vec<TaskId> = Vec::new();
        for &t in &port.tasks {
            let gid = group[t.index()];
            let reads = match fused_plan[gid] {
                None => true,
                Some(plan) => matches!(plan.pinned_inputs.get(&port.var), Some(None)),
            };
            let id = TaskId(gid as u32);
            if reads && !tasks.contains(&id) {
                tasks.push(id);
            }
        }
        if !tasks.is_empty() {
            inputs.push(ExternalPort {
                var: port.var.clone(),
                tasks,
            });
        }
    }
    let mut outputs: Vec<ExternalPort> = Vec::new();
    for port in &flat.outputs {
        let mut tasks: Vec<TaskId> = Vec::new();
        for &t in &port.tasks {
            let id = TaskId(group[t.index()] as u32);
            if !tasks.contains(&id) {
                tasks.push(id);
            }
        }
        outputs.push(ExternalPort {
            var: port.var.clone(),
            tasks,
        });
    }

    stats.tasks_after = out.task_count();
    let trivial_after: Vec<usize> = (0..out.task_count()).collect();
    stats.estimated_pt_after = grain::estimate_pt(&out, &trivial_after).map_err(OptError::Graph)?;

    Ok((
        Flattened {
            graph: Arc::new(out),
            inputs,
            outputs,
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

    /// a ->(ext) P --x--> C --y--> (port y); P also keeps a side output.
    fn chain() -> (Flattened, ProgramLibrary) {
        let lib = lib_of(&[
            "task P in a out x begin x := a + 1 end",
            "task C in x out y begin y := x * 2 end",
        ]);
        let mut g = TaskGraph::new("d");
        let p = g.add_task("p", 3.0);
        let c = g.add_task("c", 4.0);
        g.set_program(p, "P").unwrap();
        g.set_program(c, "C").unwrap();
        g.add_edge(p, c, 1.0, "x").unwrap();
        let flat = Flattened {
            graph: Arc::new(g),
            inputs: vec![ExternalPort {
                var: "a".into(),
                tasks: vec![p],
            }],
            outputs: vec![ExternalPort {
                var: "y".into(),
                tasks: vec![c],
            }],
        };
        (flat, lib)
    }

    #[test]
    fn chain_fuses_to_one_task_with_summed_weight() {
        let (flat, lib) = chain();
        let (out, new_lib, stats) = fuse_with(&flat, &lib, &[0, 0]).unwrap();
        assert_eq!(stats.clusters_fused, 1);
        assert_eq!(out.graph.task_count(), 1);
        let (_, task) = out.graph.tasks().next().unwrap();
        assert_eq!(task.weight, 7.0);
        let prog = new_lib.get(task.program.as_deref().unwrap()).unwrap();
        assert_eq!(prog.inputs, vec!["a".to_string()]);
        assert_eq!(prog.outputs, vec!["y".to_string()]);
        // Ports follow the fused task.
        assert_eq!(out.inputs[0].tasks, vec![TaskId(0)]);
        assert_eq!(out.outputs[0].tasks, vec![TaskId(0)]);
    }

    #[test]
    fn fused_outcome_matches_original_exactly() {
        use banger_exec::{execute, ExecOptions};
        let (flat, lib) = fuse_fixture();
        let (fused, fused_lib, stats) = fuse_with(&flat, &lib, &[0, 0, 0, 1]).unwrap();
        assert_eq!(stats.clusters_fused, 1);
        let mut ext = std::collections::BTreeMap::new();
        ext.insert("a".to_string(), banger_calc::Value::Num(5.0));
        let opts = ExecOptions::default();
        let before = execute(&flat, &lib, &ext, &opts).unwrap();
        let after = execute(&fused, &fused_lib, &ext, &opts).unwrap();
        assert_eq!(before.outputs, after.outputs);
        assert_eq!(before.total_ops(), after.total_ops());
    }

    /// Diamond: P feeds L and R; J joins them; J stays out of the cluster.
    fn fuse_fixture() -> (Flattened, ProgramLibrary) {
        let lib = lib_of(&[
            "task P in a out x begin x := a * a end",
            "task L in x out u begin u := x + 1 end",
            "task R in x out v begin v := x - 1 end",
            "task J in u, v out w begin w := u * v end",
        ]);
        let mut g = TaskGraph::new("d");
        let p = g.add_task("p", 1.0);
        let l = g.add_task("l", 1.0);
        let r = g.add_task("r", 1.0);
        let j = g.add_task("j", 1.0);
        for (t, n) in [(p, "P"), (l, "L"), (r, "R"), (j, "J")] {
            g.set_program(t, n).unwrap();
        }
        g.add_edge(p, l, 1.0, "x").unwrap();
        g.add_edge(p, r, 1.0, "x").unwrap();
        g.add_edge(l, j, 1.0, "u").unwrap();
        g.add_edge(r, j, 1.0, "v").unwrap();
        let flat = Flattened {
            graph: Arc::new(g),
            inputs: vec![ExternalPort {
                var: "a".into(),
                tasks: vec![p],
            }],
            outputs: vec![ExternalPort {
                var: "w".into(),
                tasks: vec![j],
            }],
        };
        (flat, lib)
    }

    #[test]
    fn print_members_are_rejected() {
        let lib = lib_of(&[
            "task P in a out x begin x := a + 1 print x end",
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
            inputs: vec![],
            outputs: vec![ExternalPort {
                var: "y".into(),
                tasks: vec![c],
            }],
        };
        let (out, _, stats) = fuse_with(&flat, &lib, &[0, 0]).unwrap();
        assert_eq!(stats.clusters_rejected, 1);
        assert_eq!(out.graph.task_count(), 2);
        assert_eq!(*out.graph, g);
    }

    #[test]
    fn input_mutation_with_other_readers_is_rejected() {
        // M mutates its input x, which P also sends to S (another
        // reader): fusing {P, M} would leak the mutation to S.
        let lib = lib_of(&[
            "task P in a out x begin x := a + 1 end",
            "task M in x out y begin x := x * 2 y := x end",
            "task S in x out z begin z := x + 10 end",
        ]);
        let mut g = TaskGraph::new("d");
        let p = g.add_task("p", 1.0);
        let m = g.add_task("m", 1.0);
        let s = g.add_task("s", 1.0);
        for (t, n) in [(p, "P"), (m, "M"), (s, "S")] {
            g.set_program(t, n).unwrap();
        }
        g.add_edge(p, m, 1.0, "x").unwrap();
        g.add_edge(p, s, 1.0, "x").unwrap();
        let flat = Flattened {
            graph: Arc::new(g),
            inputs: vec![ExternalPort {
                var: "a".into(),
                tasks: vec![p],
            }],
            outputs: vec![
                ExternalPort {
                    var: "y".into(),
                    tasks: vec![m],
                },
                ExternalPort {
                    var: "z".into(),
                    tasks: vec![s],
                },
            ],
        };
        let (out, _, stats) = fuse_with(&flat, &lib, &[0, 0, 1]).unwrap();
        assert_eq!(stats.clusters_rejected, 1);
        assert_eq!(out.graph.task_count(), 3);
    }

    #[test]
    fn default_clustering_comes_from_grain_pack() {
        let (flat, lib) = chain();
        // Whatever pack decides, the result must stay a DAG with total
        // weight preserved.
        let (out, _, stats) = fuse(&flat, &lib).unwrap();
        assert!(out.graph.is_dag());
        assert!((out.graph.total_weight() - flat.graph.total_weight()).abs() < 1e-9);
        assert!(stats.tasks_after <= stats.tasks_before);
    }
}
