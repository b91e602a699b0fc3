//! The analysis passes: storage races, PITL/PITS interface cross-checks
//! and graph hygiene.
//!
//! Nothing here walks a PITS body: the per-program checks (B013–B015) are
//! predicates over [`banger_calc::ast::Facts`] — which variables a body
//! reads, assigns and index-stores, and where first — and the B04x checks
//! come from the abstract interpreter through `crate::absint`.

use crate::access::{adjacency, binding_diagnostic, distinct};
use crate::diag::{sort_diagnostics, Code, Diagnostic, Location};
use banger_calc::ast::Facts;
use banger_calc::{Program, ProgramLibrary};
use banger_taskgraph::hierarchy::Expanded;
use banger_taskgraph::HierGraph;
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet};

/// Runs every pass over `design` (checked against `library`) and returns
/// the findings in stable presentation order: [`diagnose_expanded`] on a
/// walk of its own, for a caller that keeps none.
pub fn diagnose(design: &HierGraph, library: &ProgramLibrary) -> Vec<Diagnostic> {
    diagnose_expanded(&design.expand(), library)
}

/// Runs every pass over an already expanded design. `Project` calls this
/// with the `Expanded` its scheduler graph is projected from, so one
/// snapshot walks its hierarchy once.
pub fn diagnose_expanded(view: &Expanded, library: &ProgramLibrary) -> Vec<Diagnostic> {
    let mut diags = view.problems.iter().map(binding_diagnostic).collect();
    races(view, &mut diags);
    interfaces(view, library, &mut diags);
    crate::absint::body_safety(view, library, &mut diags);
    hygiene(view, &mut diags);
    sort_diagnostics(&mut diags);
    diags
}

/// Reachability rows for the tasks in `sources` only: `rows[&a][b]` is
/// true when a precedence path leads from `a` to `b`. One DFS per
/// source, correct on cyclic graphs too. The race passes ask about
/// writers and readers of multi-writer storage, a handful of tasks; a
/// row per *task* is n^2 bytes, 10 GB at 100k tasks.
fn reachability(
    adj: &[Vec<usize>],
    sources: impl IntoIterator<Item = usize>,
) -> BTreeMap<usize, Vec<bool>> {
    let mut rows = BTreeMap::new();
    let mut stack = Vec::new();
    for start in sources {
        let Entry::Vacant(slot) = rows.entry(start) else {
            continue; // a task that both reads and writes, or writes twice
        };
        let mut row = vec![false; adj.len()];
        stack.push(start);
        while let Some(v) = stack.pop() {
            for &w in &adj[v] {
                if !row[w] {
                    row[w] = true;
                    stack.push(w);
                }
            }
        }
        slot.insert(row);
    }
    rows
}

/// B001 (write/write race) and B002 (racy read).
fn races(view: &Expanded, diags: &mut Vec<Diagnostic>) {
    // Only storage with two writers or more can race; most designs have
    // none, and then no reachability is computed at all.
    let contested = || view.classes.iter().filter(|sc| sc.writers.len() >= 2);
    if contested().next().is_none() {
        return;
    }
    let full = reachability(
        &adjacency(view, None),
        contested().flat_map(|sc| sc.writers.iter().copied()),
    );
    let ordered = |r: &BTreeMap<usize, Vec<bool>>, a: usize, b: usize| r[&a][b] || r[&b][a];

    for (si, sc) in view.classes.iter().enumerate() {
        if sc.writers.len() < 2 {
            continue;
        }
        // The walk lists a task once per routed arc; pair each up once.
        let (writers, readers) = (distinct(&sc.writers), distinct(&sc.readers));
        if writers.len() < 2 {
            continue;
        }
        // Write/write: two writers with no precedence path either way.
        for (i, &w1) in writers.iter().enumerate() {
            for &w2 in &writers[i + 1..] {
                if !ordered(&full, w1, w2) {
                    diags.push(
                        Diagnostic::error(
                            Code::B001,
                            Location::nodes(vec![
                                view.tasks[w1].name.clone(),
                                view.tasks[w2].name.clone(),
                            ]),
                            format!(
                                "tasks `{}` and `{}` both write storage `{}` with no \
                                 ordering between them",
                                view.tasks[w1].name, view.tasks[w2].name, sc.base,
                            ),
                        )
                        .with_help(
                            "add an arc (directly or through another task) so one writer \
                             always runs before the other, or split the storage item",
                        ),
                    );
                }
            }
        }
        // Racy read: with this storage's own dataflow edges set aside, is
        // every read still ordered against every write by the rest of the
        // graph? A single-writer storage is an ordinary dataflow token, so
        // this only applies to multi-writer items.
        let rest = reachability(
            &adjacency(view, Some(si)),
            readers.iter().chain(&writers).copied(),
        );
        for &r in &readers {
            for &w in &writers {
                if r != w && !ordered(&rest, r, w) {
                    diags.push(
                        Diagnostic::warning(
                            Code::B002,
                            Location::nodes(vec![
                                view.tasks[r].name.clone(),
                                view.tasks[w].name.clone(),
                            ]),
                            format!(
                                "task `{}` reads multi-writer storage `{}` but nothing \
                                 outside the storage itself orders it against writer `{}`",
                                view.tasks[r].name, sc.base, view.tasks[w].name,
                            ),
                        )
                        .with_help(
                            "the value observed depends on scheduling; order the read \
                             against every writer explicitly",
                        ),
                    );
                }
            }
        }
    }
}

/// Per-program checks that do not depend on the design (B013/B014/B015),
/// each a predicate over the body's [`Facts`]. An indexed store updates one
/// element and the rest of the array flows through, so it counts as a
/// write (B013, B015) *and* as a read (B014).
fn program_body_checks(prog: &Program, diags: &mut Vec<Diagnostic>) {
    let facts = Facts::of(&prog.body);

    for out in &prog.outputs {
        if facts.written(out).is_none() {
            diags.push(
                Diagnostic::error(
                    Code::B013,
                    Location::program(prog.name.clone(), prog.decl_pos.get(out).copied()),
                    format!(
                        "program `{}` declares `out {out}` but never assigns it",
                        prog.name,
                    ),
                )
                .with_help("assign the variable in the body, or drop the declaration"),
            );
        }
    }
    for inp in &prog.inputs {
        let inp = inp.as_str();
        if !facts.reads.contains_key(inp) && !facts.stored.contains_key(inp) {
            diags.push(
                Diagnostic::warning(
                    Code::B014,
                    Location::program(prog.name.clone(), prog.decl_pos.get(inp).copied()),
                    format!(
                        "program `{}` declares `in {inp}` but never reads it",
                        prog.name,
                    ),
                )
                .with_help("drop the declaration (and the arc feeding it) if it is unused"),
            );
        }
    }
    let mut written: BTreeSet<&str> = facts.assigned.keys().copied().collect();
    written.extend(facts.stored.keys().copied());
    for var in written {
        if !prog.declares(var) {
            diags.push(
                Diagnostic::warning(
                    Code::B015,
                    Location::program(prog.name.clone(), facts.written(var)),
                    format!(
                        "program `{}` assigns `{var}` without declaring it (implicit local)",
                        prog.name,
                    ),
                )
                .with_help(format!("declare it: `local {var}`")),
            );
        }
    }
}

/// B010/B011/B012/B016 plus the per-program body checks, across every
/// task in the flattened view.
fn interfaces(view: &Expanded, library: &ProgramLibrary, diags: &mut Vec<Diagnostic>) {
    let n = view.tasks.len();
    // Labels arriving at / leaving each task: direct edge labels plus the
    // base names of storage classes the task reads/writes.
    let mut incoming: Vec<BTreeSet<String>> = vec![BTreeSet::new(); n];
    let mut outgoing: Vec<BTreeSet<String>> = vec![BTreeSet::new(); n];
    for arc in &view.arcs {
        outgoing[arc.src].insert(arc.label.clone());
        incoming[arc.dst].insert(arc.label.clone());
    }
    for sc in &view.classes {
        for &w in &sc.writers {
            outgoing[w].insert(sc.base.clone());
        }
        for &r in &sc.readers {
            incoming[r].insert(sc.base.clone());
        }
    }

    // Body checks once per distinct program actually used by the design.
    let mut checked = BTreeSet::new();

    for (t, task) in view.tasks.iter().enumerate() {
        let Some(pname) = &task.program else { continue };
        let Some(prog) = library.get(pname) else {
            diags.push(
                Diagnostic::error(
                    Code::B010,
                    Location {
                        nodes: vec![task.name.clone()],
                        program: Some(pname.clone()),
                        ..Default::default()
                    },
                    format!(
                        "task `{}` names program `{pname}`, which is not in the library",
                        task.name,
                    ),
                )
                .with_help("add the program to the library or fix the task's program name"),
            );
            continue;
        };
        if checked.insert(pname.clone()) {
            program_body_checks(prog, diags);
        }
        for label in &incoming[t] {
            if !prog.inputs.iter().any(|v| v == label) {
                diags.push(
                    Diagnostic::warning(
                        Code::B011,
                        Location {
                            nodes: vec![task.name.clone()],
                            program: Some(pname.clone()),
                            span: prog.decl_pos.get(label).copied(),
                            ..Default::default()
                        },
                        format!(
                            "task `{}` receives `{label}` but program `{pname}` does not \
                             declare it `in`; the value is ignored",
                            task.name,
                        ),
                    )
                    .with_help(format!("declare `in {label}` or remove the arc")),
                );
            }
        }
        for label in &outgoing[t] {
            if !prog.outputs.iter().any(|v| v == label) {
                diags.push(
                    Diagnostic::error(
                        Code::B012,
                        Location {
                            nodes: vec![task.name.clone()],
                            program: Some(pname.clone()),
                            span: prog.decl_pos.get(label).copied(),
                            ..Default::default()
                        },
                        format!(
                            "task `{}` must emit `{label}` but program `{pname}` does not \
                             declare it `out`; execution would fail with a missing arc value",
                            task.name,
                        ),
                    )
                    .with_help(format!("declare `out {label}` and assign it in the body")),
                );
            }
        }
        // Entry tasks read everything from the external input map; only
        // flag unsupplied inputs on tasks that already receive arcs.
        if !incoming[t].is_empty() {
            for inp in &prog.inputs {
                if !incoming[t].contains(inp) {
                    diags.push(
                        Diagnostic::warning(
                            Code::B016,
                            Location {
                                nodes: vec![task.name.clone()],
                                program: Some(pname.clone()),
                                span: prog.decl_pos.get(inp).copied(),
                                ..Default::default()
                            },
                            format!(
                                "no arc supplies `in {inp}` of task `{}`; the value will \
                                 be read from the external inputs at run time",
                                task.name,
                            ),
                        )
                        .with_help(format!(
                            "wire an arc labelled `{inp}` into the task, or supply it with \
                             `-i {inp}=...` when running",
                        )),
                    );
                }
            }
        }
    }
}

/// B030 cycle (named path), B031 isolated tasks, B032 bad weights/sizes,
/// B033 dead storage.
fn hygiene(view: &Expanded, diags: &mut Vec<Diagnostic>) {
    for task in &view.tasks {
        if !task.weight.is_finite() || task.weight < 0.0 {
            diags.push(Diagnostic::error(
                Code::B032,
                Location::node(task.name.clone()),
                format!("task weight {} is negative or non-finite", task.weight),
            ));
        } else if task.weight == 0.0 {
            diags.push(
                Diagnostic::warning(
                    Code::B032,
                    Location::node(task.name.clone()),
                    "task weight is zero; the scheduler treats it as free".to_string(),
                )
                .with_help(
                    "give the task a positive weight, take the static estimate from \
                     `banger check --weights`, or calibrate from a trial run",
                ),
            );
        }
    }
    for storage in &view.storages {
        if !storage.size.is_finite() || storage.size < 0.0 {
            diags.push(Diagnostic::error(
                Code::B032,
                Location::node(storage.name.clone()),
                format!("storage size {} is negative or non-finite", storage.size),
            ));
        }
    }

    // Connectivity counts storage traffic too.
    let mut touched = vec![false; view.tasks.len()];
    for arc in &view.arcs {
        touched[arc.src] = true;
        touched[arc.dst] = true;
    }
    for sc in &view.classes {
        for &t in sc.writers.iter().chain(&sc.readers) {
            touched[t] = true;
        }
    }
    if view.tasks.len() > 1 {
        for (t, task) in view.tasks.iter().enumerate() {
            if !touched[t] {
                diags.push(
                    Diagnostic::warning(
                        Code::B031,
                        Location::node(task.name.clone()),
                        format!(
                            "task `{}` is connected to nothing (no arcs in or out)",
                            task.name,
                        ),
                    )
                    .with_help("wire it into the design or delete it"),
                );
            }
        }
    }

    for sc in &view.classes {
        if sc.writers.is_empty() && sc.readers.is_empty() {
            diags.push(
                Diagnostic::warning(
                    Code::B033,
                    Location::node(view.storages[sc.members[0]].name.clone()),
                    format!("storage `{}` has no arcs; it holds nothing", sc.base),
                )
                .with_help("wire it into the design or delete it"),
            );
        }
    }

    if let Some(path) = find_cycle(&adjacency(view, None)) {
        let names: Vec<&str> = path.iter().map(|&t| view.tasks[t].name.as_str()).collect();
        diags.push(
            Diagnostic::error(
                Code::B030,
                Location::nodes(names.iter().map(|s| s.to_string()).collect()),
                format!("the design contains a cycle: {}", names.join(" -> "),),
            )
            .with_help("dataflow designs must be acyclic; break the loop or fold it into one task"),
        );
    }
}

/// Finds one cycle and returns it as a task-index path `a -> ... -> a`.
fn find_cycle(adj: &[Vec<usize>]) -> Option<Vec<usize>> {
    // Colors: 0 = unvisited, 1 = on stack, 2 = done.
    let n = adj.len();
    let mut color = vec![0u8; n];
    let mut parent = vec![usize::MAX; n];
    for start in 0..n {
        if color[start] != 0 {
            continue;
        }
        // Iterative DFS keeping an explicit edge iterator per frame.
        let mut stack = vec![(start, 0usize)];
        color[start] = 1;
        while let Some(&mut (v, ref mut i)) = stack.last_mut() {
            if *i < adj[v].len() {
                let w = adj[v][*i];
                *i += 1;
                match color[w] {
                    0 => {
                        color[w] = 1;
                        parent[w] = v;
                        stack.push((w, 0));
                    }
                    1 => {
                        // Found a back edge v -> w: reconstruct w .. v, w.
                        let mut path = vec![w];
                        let mut cur = v;
                        let mut rev = Vec::new();
                        while cur != w {
                            rev.push(cur);
                            cur = parent[cur];
                        }
                        rev.reverse();
                        path.extend(rev);
                        path.push(w);
                        return Some(path);
                    }
                    _ => {}
                }
            } else {
                color[v] = 2;
                stack.pop();
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::Severity;

    fn lib_of(srcs: &[&str]) -> ProgramLibrary {
        let mut lib = ProgramLibrary::new();
        for s in srcs {
            lib.add_source(s).unwrap();
        }
        lib
    }

    fn codes(diags: &[Diagnostic]) -> Vec<Code> {
        diags.iter().map(|d| d.code).collect()
    }

    #[test]
    fn write_write_race_is_b001() {
        let mut g = HierGraph::new("race");
        let a = g.add_task("a", 1.0);
        let b = g.add_task("b", 1.0);
        let s = g.add_storage("s", 1.0);
        let c = g.add_task("c", 1.0);
        g.add_flow(a, s).unwrap();
        g.add_flow(b, s).unwrap();
        g.add_flow(s, c).unwrap();
        let diags = diagnose(&g, &ProgramLibrary::new());
        let b001: Vec<_> = diags.iter().filter(|d| d.code == Code::B001).collect();
        assert_eq!(b001.len(), 1, "{diags:?}");
        assert_eq!(b001[0].severity, Severity::Error);
        assert!(b001[0].message.contains("`a`"), "{}", b001[0].message);
        assert!(b001[0].message.contains("`b`"), "{}", b001[0].message);
        assert!(b001[0].message.contains("`s`"), "{}", b001[0].message);
        // The unordered reads are also flagged.
        assert!(diags.iter().any(|d| d.code == Code::B002), "{diags:?}");
    }

    /// The walk lists a writer once per routed arc; a task that reaches a
    /// storage item by two arcs is still one writer.
    #[test]
    fn a_task_writing_by_two_arcs_does_not_race_with_itself() {
        let mut inner = HierGraph::new("inner");
        let t = inner.add_task("t", 1.0);
        let mut g = HierGraph::new("outer");
        let c = g.add_compound("C", inner);
        g.bind_output(c, "x", t).unwrap();
        g.bind_output(c, "y", t).unwrap();
        let s = g.add_storage("s", 1.0);
        g.add_arc(c, s, "x", 1.0).unwrap();
        g.add_arc(c, s, "y", 1.0).unwrap();
        assert_eq!(g.expand().classes[0].writers, vec![0, 0]);
        let diags = diagnose(&g, &ProgramLibrary::new());
        assert!(!codes(&diags).contains(&Code::B001), "{diags:?}");

        // A second writer races with it once.
        let w = g.add_task("w", 1.0);
        g.add_flow(w, s).unwrap();
        let diags = diagnose(&g, &ProgramLibrary::new());
        let b001 = codes(&diags).iter().filter(|&&c| c == Code::B001).count();
        assert_eq!(b001, 1, "{diags:?}");
    }

    #[test]
    fn fifty_thousand_task_chain_diagnoses_clean() {
        // t0 -> t1 -> ... -> t49999.
        const N: usize = 50_000;
        let mut g = HierGraph::new("chain");
        let ids: Vec<_> = (0..N).map(|i| g.add_task(format!("t{i}"), 1.0)).collect();
        for w in ids.windows(2) {
            g.add_arc(w[0], w[1], "x", 1.0).unwrap();
        }
        // With no multi-writer storage the race pass computes no
        // reachability at all (a row per task would be 2.5 GB here).
        let diags = diagnose(&g, &ProgramLibrary::new());
        assert!(diags.is_empty(), "{:?}", &diags[..diags.len().min(5)]);

        // Both ends of the chain write `s` and the middle reads it: the
        // writers are ordered by the chain (no B001), and so is the read
        // against each of them (no B002). Three DFS rows, not 50,000.
        let s = g.add_storage("s", 1.0);
        g.add_flow(ids[0], s).unwrap();
        g.add_flow(ids[N - 1], s).unwrap();
        g.add_flow(s, ids[N / 2]).unwrap();
        let diags = diagnose(&g, &ProgramLibrary::new());
        assert!(
            !diags
                .iter()
                .any(|d| matches!(d.code, Code::B001 | Code::B002)),
            "{:?}",
            &diags[..diags.len().min(5)]
        );

        // The same length through storage, t0 -> s1 -> t1 -> ..., the way
        // `.bang` files chain tasks: 31,999 storage classes, grouped in
        // one pass (a scan of every node per class took 5.2 s in release).
        const M: usize = 32_000;
        let mut g = HierGraph::new("storage-chain");
        let mut prev = g.add_task("t0", 1.0);
        for i in 1..M {
            let s = g.add_storage(format!("s{i}"), 1.0);
            let t = g.add_task(format!("t{i}"), 1.0);
            g.add_flow(prev, s).unwrap();
            g.add_flow(s, t).unwrap();
            prev = t;
        }
        let started = std::time::Instant::now();
        let diags = diagnose(&g, &ProgramLibrary::new());
        let took = started.elapsed();
        assert!(diags.is_empty(), "{:?}", &diags[..diags.len().min(5)]);
        let budget = if cfg!(debug_assertions) { 10.0 } else { 1.0 };
        assert!(took.as_secs_f64() < budget, "diagnose took {took:?}");
    }

    #[test]
    fn ordered_writers_do_not_race() {
        // a -> b directly, both write s, c reads: ordered, no B001; and the
        // read is ordered after b via ... wait, c is ordered only through s.
        let mut g = HierGraph::new("ok");
        let a = g.add_task("a", 1.0);
        let b = g.add_task("b", 1.0);
        let s = g.add_storage("s", 1.0);
        let c = g.add_task("c", 1.0);
        g.add_arc(a, b, "go", 1.0).unwrap();
        g.add_flow(a, s).unwrap();
        g.add_flow(b, s).unwrap();
        g.add_flow(s, c).unwrap();
        g.add_arc(b, c, "done", 1.0).unwrap();
        let diags = diagnose(&g, &ProgramLibrary::new());
        assert!(!diags.iter().any(|d| d.code == Code::B001), "{diags:?}");
        // c is ordered after b (direct arc) and after a (a -> b -> c), with
        // the storage edges set aside — so no racy read either.
        assert!(!diags.iter().any(|d| d.code == Code::B002), "{diags:?}");
    }

    #[test]
    fn single_writer_storage_is_clean_dataflow() {
        let mut g = HierGraph::new("tok");
        let a = g.add_task("a", 1.0);
        let s = g.add_storage("s", 1.0);
        let b = g.add_task("b", 1.0);
        g.add_flow(a, s).unwrap();
        g.add_flow(s, b).unwrap();
        let diags = diagnose(&g, &ProgramLibrary::new());
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn missing_program_is_b010() {
        let mut g = HierGraph::new("m");
        let t = g.add_task_with_program("t", 1.0, "Nope");
        let s = g.add_storage("s", 1.0);
        g.add_flow(t, s).unwrap();
        let diags = diagnose(&g, &ProgramLibrary::new());
        assert!(codes(&diags).contains(&Code::B010), "{diags:?}");
    }

    #[test]
    fn undeclared_incoming_var_is_b011() {
        let lib = lib_of(&["task P\n in x\n out y\nbegin\n y := x\nend\n"]);
        let mut g = HierGraph::new("i");
        let a = g.add_task("src", 1.0);
        let b = g.add_task_with_program("dst", 1.0, "P");
        g.add_arc(a, b, "z", 1.0).unwrap();
        let diags = diagnose(&g, &lib);
        let b011: Vec<_> = diags.iter().filter(|d| d.code == Code::B011).collect();
        assert_eq!(b011.len(), 1, "{diags:?}");
        assert_eq!(b011[0].severity, Severity::Warning);
        // B016: x is declared in but unsupplied on a task that has arcs.
        assert!(codes(&diags).contains(&Code::B016), "{diags:?}");
    }

    #[test]
    fn unproduced_outgoing_var_is_b012() {
        let lib = lib_of(&["task P\n in x\n out y\nbegin\n y := x\nend\n"]);
        let mut g = HierGraph::new("o");
        let a = g.add_task_with_program("src", 1.0, "P");
        let b = g.add_task("dst", 1.0);
        g.add_arc(a, b, "w", 1.0).unwrap();
        let diags = diagnose(&g, &lib);
        let b012: Vec<_> = diags.iter().filter(|d| d.code == Code::B012).collect();
        assert_eq!(b012.len(), 1, "{diags:?}");
        assert_eq!(b012[0].severity, Severity::Error);
    }

    #[test]
    fn body_checks_cover_b013_b014_b015() {
        let lib = lib_of(&["task P\n in a, b\n out r, unset\nbegin\n r := a\n \
             for i := 1 to a do\n  r := r + i\n end\n tmp := 1\n tmp := 2\nend\n"]);
        let mut g = HierGraph::new("b");
        let t = g.add_task_with_program("t", 1.0, "P");
        let s = g.add_storage("r", 1.0);
        g.add_flow(t, s).unwrap();
        let diags = diagnose(&g, &lib);
        let cs = codes(&diags);
        assert!(cs.contains(&Code::B013), "{diags:?}"); // unset never assigned
        assert!(cs.contains(&Code::B014), "{diags:?}"); // b never read
        assert!(cs.contains(&Code::B015), "{diags:?}"); // i, tmp undeclared

        // B013 carries the declaration span from the parser.
        let b013 = diags.iter().find(|d| d.code == Code::B013).unwrap();
        assert!(b013.location.span.is_some(), "{b013:?}");
        assert_eq!(b013.location.span.unwrap().line, 3);
        // B015 points at the first write, and a `for` header is one.
        let b015: Vec<_> = diags.iter().filter(|d| d.code == Code::B015).collect();
        let text: Vec<String> = b015.iter().map(|d| crate::render_text(d)).collect();
        assert_eq!(text.len(), 2, "{text:?}");
        assert!(text[0].contains("assigns `i`"), "{}", text[0]);
        assert!(text[0].contains("at program `P` at 6:2"), "{}", text[0]);
        assert!(text[1].contains("assigns `tmp`"), "{}", text[1]);
        assert!(text[1].contains("at program `P` at 9:2"), "{}", text[1]);
        let json = crate::render_json(&diags);
        assert!(json.contains("\"line\":6,\"col\":2"), "{json}");
        assert!(json.contains("\"line\":9,\"col\":2"), "{json}");
    }

    #[test]
    fn isolated_task_is_b031() {
        let mut g = HierGraph::new("iso");
        let a = g.add_task("a", 1.0);
        let b = g.add_task("b", 1.0);
        g.add_task("loner", 1.0);
        g.add_arc(a, b, "x", 1.0).unwrap();
        let diags = diagnose(&g, &ProgramLibrary::new());
        let b031: Vec<_> = diags.iter().filter(|d| d.code == Code::B031).collect();
        assert_eq!(b031.len(), 1, "{diags:?}");
        assert!(b031[0].message.contains("loner"));
    }

    #[test]
    fn zero_and_negative_weights_are_b032() {
        let mut g = HierGraph::new("w");
        let a = g.add_task("zero", 0.0);
        let b = g.add_task("neg", -1.0);
        g.add_arc(a, b, "x", 1.0).unwrap();
        let diags = diagnose(&g, &ProgramLibrary::new());
        let b032: Vec<_> = diags.iter().filter(|d| d.code == Code::B032).collect();
        assert_eq!(b032.len(), 2, "{diags:?}");
        assert!(b032.iter().any(|d| d.severity == Severity::Error));
        assert!(b032.iter().any(|d| d.severity == Severity::Warning));
    }

    #[test]
    fn dead_storage_is_b033() {
        let mut g = HierGraph::new("d");
        let a = g.add_task("a", 1.0);
        let b = g.add_task("b", 1.0);
        g.add_arc(a, b, "x", 1.0).unwrap();
        g.add_storage("ghost", 1.0);
        let diags = diagnose(&g, &ProgramLibrary::new());
        let b033: Vec<_> = diags.iter().filter(|d| d.code == Code::B033).collect();
        assert_eq!(b033.len(), 1, "{diags:?}");
        assert!(b033[0].message.contains("ghost"));
    }

    #[test]
    fn cycle_is_b030_with_named_path() {
        let mut g = HierGraph::new("cyc");
        let a = g.add_task("first", 1.0);
        let b = g.add_task("second", 1.0);
        let c = g.add_task("third", 1.0);
        g.add_arc(a, b, "x", 1.0).unwrap();
        g.add_arc(b, c, "y", 1.0).unwrap();
        g.add_arc(c, a, "z", 1.0).unwrap();
        let diags = diagnose(&g, &ProgramLibrary::new());
        let b030: Vec<_> = diags.iter().filter(|d| d.code == Code::B030).collect();
        assert_eq!(b030.len(), 1, "{diags:?}");
        let msg = &b030[0].message;
        assert!(msg.contains("first -> second -> third -> first"), "{msg}");
    }

    #[test]
    fn diagnose_is_deterministic() {
        let mut g = HierGraph::new("det");
        let a = g.add_task("a", 1.0);
        let b = g.add_task("b", 1.0);
        let s = g.add_storage("s", 1.0);
        g.add_flow(a, s).unwrap();
        g.add_flow(b, s).unwrap();
        g.add_task("iso", 0.0);
        let d1 = diagnose(&g, &ProgramLibrary::new());
        let d2 = diagnose(&g, &ProgramLibrary::new());
        assert_eq!(d1, d2);
        assert!(!d1.is_empty());
    }
}
