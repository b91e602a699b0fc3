//! The request handler: every `banger` verb is rendered here, once.
//!
//! [`handle`] takes a [`Request`] and a [`ProjectStore`] and returns a
//! [`Response`]; it is the same call whether a daemon made it for a
//! client on its socket or the `banger` binary made it in its own
//! process on a store it just created, so the two answer alike because
//! there is nothing else to answer with.
//!
//! Every verb is one row of [`VERBS`]: its name, its `banger help`
//! summary and its handler. [`handle`] finds the row and calls it; the
//! `banger` binary reads the same rows for `banger help`, to refuse an
//! unknown subcommand, and to know which verbs only a daemon can answer.
//! A new verb is one row, one `op_*` function and one invocation in
//! `tests/cli.rs::every_verb`, whose local/daemon differential covers it.
//!
//! Which verb takes which option is one table too, [`OPTIONS`]: a row
//! holds the flag, the wire key, the request field it sets and the verbs
//! whose handler reads that field. The binary parses its arguments and
//! prints its options by the rows, and the protocol writes and accepts
//! exactly the keys of the request's verb, so a handler never sees a
//! field its verb does not take set by a client.
//!
//! The handler reads one file — the project, through
//! [`ProjectStore::snapshot`] — and writes none. What a verb would put in
//! a file (`svg -o`, `save-schedule -o`, `run --trace`, `optimize
//! --emit`) it returns in [`Response::files`] for the front end to
//! write; what it would read from one (`verify -s`) arrives in the
//! request. A verb that rewrites the design (`parallelize`, `--expand`,
//! `--optimize`, `--optimized`) works on a copy, so the cached project —
//! and with it every other response — is untouched.
//!
//! Deterministic text goes in [`Response::output`]; what varies from run
//! to run (timings, optimizer statistics) and the design's warnings go
//! in [`Response::notes`]; a failure is [`Response::error`].
//! [`Response::cached`] reports whether the answer came from a warm
//! cache without recomputation.

use super::protocol::{Request, Response};
use super::store::{Fault, ProjectStore, Snapshot};
use crate::analyze;
use crate::project::{short_name, OptimizeStats, Project, ProjectError};
use banger_calc::Value;
use banger_exec::{ExecError, ExecMode, ExecOptions, ExecReport};
use banger_machine::{Topology, MAX_PROCESSORS};
use banger_taskgraph::hierarchy::Flattened;
use std::collections::BTreeMap;
use std::sync::atomic::Ordering;
use std::time::Duration;

/// What a verb answers: a response, or the message of a failure.
type Answer = Result<Response, String>;

/// The handler of a verb on one project.
type ProjectOp = fn(&Snapshot, &Request, &ProjectStore) -> Answer;

/// One verb: its name as typed after `banger`, its one-line summary in
/// `banger help`, and its handler, which is one of four kinds. All but
/// [`Verb::Daemon`] take a project path as their first operand.
pub enum Verb {
    /// A verb on one project: it reads the snapshot built from the file's
    /// current bytes, with no store lock held. The design's warnings lead
    /// the notes of its answer.
    Project(&'static str, &'static str, ProjectOp),
    /// A project verb whose output is the design's findings, warnings
    /// among them (`check`), so its notes do not repeat them.
    Findings(&'static str, &'static str, ProjectOp),
    /// A verb on the daemon's cached state for one project file. Like
    /// [`Verb::Daemon`], it has no local answer.
    Entry(
        &'static str,
        &'static str,
        fn(&ProjectStore, &str) -> Response,
    ),
    /// A verb on the daemon itself. It reads no project, so a front end
    /// with no daemon to ask has no answer of its own for it.
    Daemon(&'static str, &'static str, fn(&ProjectStore) -> Response),
}

impl Verb {
    /// The subcommand, as typed after `banger`.
    pub fn name(&self) -> &'static str {
        self.name_and_help().0
    }

    /// The subcommand and its `banger help` summary.
    pub fn name_and_help(&self) -> (&'static str, &'static str) {
        match *self {
            Verb::Project(name, help, _)
            | Verb::Findings(name, help, _)
            | Verb::Entry(name, help, _)
            | Verb::Daemon(name, help, _) => (name, help),
        }
    }

    /// Whether only a daemon can answer the verb: a front end with none
    /// to ask has no fallback.
    pub fn on_daemon(&self) -> bool {
        matches!(self, Verb::Entry(..) | Verb::Daemon(..))
    }

    /// Whether the verb's first operand is a project path.
    pub fn takes_path(&self) -> bool {
        !matches!(self, Verb::Daemon(..))
    }
}

/// Every verb, in `banger help` order: the project verbs, then the daemon
/// ones.
pub const VERBS: &[Verb] = &[
    Verb::Findings(
        "check",
        "static analysis: races, interfaces, hygiene, body safety (B0xx); --weights for cost bounds",
        op_check,
    ),
    Verb::Project("show", "design statistics + DOT rendering", op_show),
    Verb::Project("gantt", "schedule + ASCII Gantt chart", op_schedule),
    Verb::Project(
        "compare",
        "run every scheduling heuristic, sorted by makespan",
        op_compare,
    ),
    Verb::Project(
        "simulate",
        "message-accurate simulation: predicted vs achieved",
        op_simulate,
    ),
    Verb::Project("animate", "frame-by-frame schedule replay", op_animate),
    Verb::Project("advise", "bottleneck analysis + suggestions", op_advise),
    Verb::Project(
        "recommend",
        "rank standard machines for the design",
        op_recommend,
    ),
    Verb::Project("svg", "write gantt/speedup/utilization SVG charts", op_svg),
    Verb::Project(
        "save-schedule",
        "persist a schedule to a file",
        op_save_schedule,
    ),
    Verb::Project("verify", "validate + replay a saved schedule", op_verify),
    Verb::Project(
        "run",
        "execute the design on host threads (--repeat N for a warm session)",
        op_run,
    ),
    Verb::Project(
        "trial",
        "trial-run one PITS program with explicit inputs",
        op_trial,
    ),
    Verb::Project(
        "speedup",
        "speedup prediction sweep over topologies",
        op_speedup,
    ),
    Verb::Project(
        "codegen",
        "emit generated Rust or C code to stdout",
        op_codegen,
    ),
    Verb::Project(
        "parallelize",
        "split a reduction task n ways and rewrite the document",
        op_parallelize,
    ),
    Verb::Project(
        "optimize",
        "graph-rewrite optimizer: dead arcs, map expansion (--expand), fusion (--fuse)",
        op_optimize,
    ),
    Verb::Project(
        "graph",
        "flattened task-graph statistics (--optimized first; --dot for Graphviz)",
        op_graph,
    ),
    Verb::Project(
        "schedule",
        "alias of gantt (the daemon client grammar's name for it)",
        op_schedule,
    ),
    Verb::Daemon("ping", "answer pong when a daemon is up", |_| {
        Response::success("pong\n")
    }),
    Verb::Daemon("stats", "the daemon's request and cache counters", op_stats),
    Verb::Entry("evict", "drop one <file.bang>'s cached state", op_evict),
    // The server answers this one before dispatch; the handler answers a
    // caller that is not a server (a unit test).
    Verb::Daemon("shutdown", "stop the daemon", |_| {
        Response::success("shutting down\n")
    }),
];

/// The row of the verb called `name`.
pub fn verb(name: &str) -> Option<&'static Verb> {
    VERBS.iter().find(|verb| verb.name() == name)
}

/// Why a front end or the wire refuses `name`: it names no verb.
pub fn unknown_verb(name: &str) -> String {
    format!("unknown subcommand {name:?} (run `banger help` for the list)")
}

/// Why a front end or the wire refuses `what` — a flag, an operand or a
/// wire key — on `verb`.
pub fn does_not_take(verb: &str, what: &str) -> String {
    format!("{verb} does not take {what:?}")
}

/// The reader and the writer of one [`Request`] field.
type Get<T> = fn(&Request) -> &T;
type Set<T> = fn(&mut Request) -> &mut T;

/// Where an option's value lives in a [`Request`], and so how the command
/// line reads it and the wire carries it.
#[derive(Clone, Copy)]
pub enum Kind {
    /// A word with a default, always sent: `-H`, `--format`.
    Word(Get<String>, Set<String>),
    /// Text, sent when given.
    Text(Get<Option<String>>, Set<Option<String>>),
    /// The text of the file the flag names: the front end reads it, so the
    /// handler opens nothing but the project. Text on the wire.
    File(Get<Option<String>>, Set<Option<String>>),
    /// A switch, sent when given, as `true`.
    Flag(Get<bool>, Set<bool>),
    /// A whole number, sent when given.
    Count(Get<Option<u32>>, Set<Option<u32>>),
    /// `var=value` pairs, one per flag, values scalars or `[1,2,3]`; an
    /// object on the wire, sent when there are any.
    Inputs(Get<BTreeMap<String, Value>>, Set<BTreeMap<String, Value>>),
    /// The operands after the path; an array on the wire, sent when there
    /// are any.
    Args(Get<Vec<String>>, Set<Vec<String>>),
}

/// One option of the command line and the wire alike. The `banger`
/// binary parses its arguments by these rows and prints them in `banger
/// help`; [`Request::to_json`] writes, and [`Request::from_json`]
/// accepts, exactly the keys of the rows that name the request's verb.
/// A new option is one row here and one field of [`Request`].
pub struct Opt {
    /// The flag and the placeholder of its value, as `banger help` shows
    /// them: `-H <heuristic>`, `--weights`. Empty for the operands.
    pub usage: &'static str,
    /// What the flag is said to need when its value is missing.
    pub needs: &'static str,
    /// The wire key: the name of the request field the option sets.
    pub key: &'static str,
    /// That field.
    pub kind: Kind,
    /// The verbs whose handler reads the field.
    pub verbs: &'static [&'static str],
    /// The rest of the option's `banger help` line, after its verbs; each
    /// `\n` continues it on the next line.
    pub help: &'static str,
}

impl Opt {
    /// The flag as typed: `usage` without its placeholder.
    pub fn flag(&self) -> &'static str {
        self.usage
            .split_once(' ')
            .map_or(self.usage, |(flag, _)| flag)
    }
}

/// `opt!(usage, needs, Kind(field), [verbs], help)`: a row of [`OPTIONS`]
/// whose key is the field's name.
macro_rules! opt {
    ($usage:literal, $needs:literal, $kind:ident($field:ident), [$($verb:literal),*], $help:literal) => {
        Opt {
            usage: $usage,
            needs: $needs,
            key: stringify!($field),
            kind: Kind::$kind(|r| &r.$field, |r| &mut r.$field),
            verbs: &[$($verb),*],
            help: $help,
        }
    };
}

/// Every option, in `banger help` order, and last the operands after the
/// path. Two flags may share a key (`-o`, `--trace` and `--emit` all set
/// `out`), but never on one verb.
#[rustfmt::skip]
pub const OPTIONS: &[Opt] = &[
    opt!("-H <heuristic>", "a heuristic name", Word(heuristic),
        ["gantt", "schedule", "simulate", "animate", "advise", "svg", "save-schedule", "run", "codegen"],
        "serial naive HLFET MCP ETF DLS MH DSH\n(default MH)"),
    opt!("-i var=value", "var=value", Inputs(inputs), ["check", "run", "trial", "codegen"],
        "inputs; arrays as [1,2,3]"),
    opt!("-t spec,spec,...", "spec,spec,...", Text(topologies), ["speedup"],
        "topologies, e.g. single,hypercube:1,hypercube:2"),
    opt!("-p <procs>", "a processor budget", Count(procs), ["recommend"],
        "processor budget (default 16)"),
    opt!("-s <path>", "a schedule file", File(schedule), ["verify"], "saved schedule file"),
    opt!("-o <path>", "an output location", Text(out), ["svg", "save-schedule"], "output location"),
    opt!("--format <fmt>", "text or json", Word(format), ["check"], "text (default) or json"),
    opt!("--weights", "", Flag(weights), ["check"],
        "per-task weight report — drawn weight vs the\n\
         abstract interpreter's static cost bounds; with -i\n\
         inputs and a clean design, also runs it and shows\n\
         measured ops per task"),
    opt!("--reference", "", Flag(reference), ["trial"],
        "use the tree-walking reference interpreter"),
    opt!("--repeat <n>", "a count (e.g. --repeat 1000)", Count(repeat), ["run"],
        "fire the design n times through one persistent\n\
         session (warm worker pool; prints per-firing stats)"),
    opt!("--trace <path>", "an output path (e.g. --trace out.json)", Text(out), ["run"],
        "execute pinned to the -H schedule with tracing,\n\
         write Chrome trace JSON (chrome://tracing, Perfetto)\n\
         and print the observed-vs-predicted drift report"),
    opt!("--optimize", "", Flag(optimize), ["run", "gantt", "schedule"],
        "apply dead-arc elimination + task\n\
         fusion to the design first (Outcome-preserving)"),
    opt!("--fuse", "", Flag(fuse), ["optimize"],
        "fuse grain-packed clusters into single tasks"),
    opt!("--expand t:n", "task:tiles (e.g. --expand fact:16)", Text(expand), ["optimize"],
        "expand dense-LU template task t into an\n\
         n x n tiled block-LU (bit-identical results)"),
    opt!("--emit <path>", "an output path ('-' for stdout)", Text(out), ["optimize"],
        "write the rewritten document ('-' = stdout)"),
    opt!("--optimized", "", Flag(optimize), ["graph"],
        "optimize (with fusion) before reporting"),
    opt!("--dot", "", Flag(dot), ["graph"], "print Graphviz DOT of the flattened graph"),
    opt!("", "", Args(args), ["trial", "codegen", "parallelize"], ""),
];

/// The options `verb` takes, in table order.
pub fn options(verb: &str) -> impl Iterator<Item = &'static Opt> + '_ {
    OPTIONS.iter().filter(move |opt| opt.verbs.contains(&verb))
}

/// Dispatches one request against the store. Panics are *not* caught
/// here — the server wraps this call in `catch_unwind` and poisons the
/// affected project's snapshot (see [`super::server`]).
pub fn handle(store: &ProjectStore, req: &Request) -> Response {
    store.counters.requests.fetch_add(1, Ordering::Relaxed);
    if let Some(Fault::Handler) = store.fault() {
        panic!("injected fault: the handler panics");
    }
    let Some(verb) = verb(&req.cmd) else {
        return Response::failure(unknown_verb(&req.cmd));
    };
    match (verb, &req.path) {
        (Verb::Project(_, _, op), Some(path)) => on_snapshot(store, path, req, *op, true),
        (Verb::Findings(_, _, op), Some(path)) => on_snapshot(store, path, req, *op, false),
        (Verb::Entry(_, _, op), Some(path)) => op(store, path),
        (Verb::Daemon(_, _, op), _) => op(store),
        (_, None) => Response::failure(format!("{} needs a \"path\"", req.cmd)),
    }
}

/// The store's counters, then the executor's live sessions and pool
/// threads. Those two are process-wide, so they stay out of
/// [`CacheStats`](super::CacheStats), a per-store snapshot.
fn op_stats(store: &ProjectStore) -> Response {
    Response::success(format!(
        "{}  sessions {}  pool threads {}\n",
        store.stats().render(),
        banger_exec::live_sessions(),
        banger_exec::live_pool_threads()
    ))
}

/// Drops the daemon's cached state for the project at `path`.
fn op_evict(store: &ProjectStore, path: &str) -> Response {
    if store.evict(path) {
        Response::success("evicted\n")
    } else {
        Response::success("not cached\n")
    }
}

/// Runs `op` on the snapshot of the project at `path` built from its
/// current bytes. With `warnings`, the design's warnings go in front of
/// the answer's notes.
fn on_snapshot(
    store: &ProjectStore,
    path: &str,
    req: &Request,
    op: ProjectOp,
    warnings: bool,
) -> Response {
    let snap = match store.snapshot(path) {
        Ok(snap) => snap,
        Err(e) => return Response::failure(e),
    };
    let mut resp = op(&snap, req, store).unwrap_or_else(Response::failure);
    if warnings && !snap.warnings.is_empty() {
        let own = std::mem::replace(&mut resp.notes, snap.warnings.clone());
        resp = resp.with_notes(own);
    }
    resp
}

/// With `wanted` (`--optimize`, `--optimized`), a copy of `project` after
/// dead-arc elimination and fusion for the verb to work on, and the
/// optimizer's statistics as a note.
fn optimized(project: &Project, wanted: bool) -> Result<(Option<Project>, String), String> {
    if !wanted {
        return Ok((None, String::new()));
    }
    let mut scratch = project.clone();
    let stats = scratch.optimize(true)?;
    Ok((Some(scratch), render_opt_stats(&stats)))
}

fn render_opt_stats(stats: &OptimizeStats) -> String {
    let mut out = format!(
        "dce: removed {} arcs, {} input decls, {} locals, {} ports; dropped {} programs",
        stats.dce.arcs_removed,
        stats.dce.inputs_trimmed,
        stats.dce.locals_trimmed,
        stats.dce.ports_removed,
        stats.dce.programs_dropped,
    );
    if let Some(f) = &stats.fuse {
        out.push_str(&format!(
            "\nfuse: {} -> {} tasks ({} clusters fused, {} rejected), est. parallel time {:.1} -> {:.1}",
            f.tasks_before,
            f.tasks_after,
            f.clusters_fused,
            f.clusters_rejected,
            f.estimated_pt_before,
            f.estimated_pt_after,
        ));
    }
    out
}

/// The two lines `show` and `graph` print about the flattened design.
fn flat_summary(f: &Flattened) -> String {
    let stats = banger_taskgraph::analysis::stats(&f.graph);
    format!(
        "flattened: {} tasks, {} arcs, width {}, depth {}, cp {:.2}, avg parallelism {:.2}\n\
         inputs: {:?}  outputs: {:?}\n",
        stats.tasks,
        stats.edges,
        stats.width,
        stats.depth,
        stats.cp_length,
        stats.average_parallelism,
        f.inputs.iter().map(|p| p.var.as_str()).collect::<Vec<_>>(),
        f.outputs.iter().map(|p| p.var.as_str()).collect::<Vec<_>>()
    )
}

/// `check [--format text|json] [--weights [-i var=value]...]`. Plain
/// check prints the diagnostics (JSON: a bare array) and is memoized per
/// format. `--weights` appends the per-task weight report; with inputs
/// and an error-free design the design also runs once, so the report
/// shows measured ops next to the static bounds (JSON: one object with
/// `diagnostics` and `weights` keys).
fn op_check(snap: &Snapshot, req: &Request, _: &ProjectStore) -> Answer {
    let json = match req.format.as_str() {
        "text" => false,
        "json" => true,
        other => {
            return Err(format!(
                "unknown {} format {other:?} (want text or json)",
                req.cmd
            ))
        }
    };
    if !req.weights {
        let memo = snap.checks.lock().get(&req.format).cloned();
        if let Some((output, errors)) = memo {
            return Ok(check_response(output, errors).cached(true));
        }
    }
    let diags = snap.project.diagnose();
    let errors = diags
        .iter()
        .filter(|d| d.severity == analyze::Severity::Error)
        .count();
    let report = if json {
        analyze::render_json(diags)
    } else {
        analyze::render_report(diags)
    };
    if !req.weights {
        let output = format!("{report}\n");
        snap.checks
            .lock()
            .insert(req.format.clone(), (output.clone(), errors));
        return Ok(check_response(output, errors));
    }
    let measured = if !req.inputs.is_empty() && errors == 0 {
        Some(snap.project.run(&req.inputs)?)
    } else {
        None
    };
    let rows = snap.project.weight_report(measured.as_ref())?;
    let output = if json {
        let rows = crate::weight_rows_json(&rows);
        format!("{{\"diagnostics\": {report},\n\"weights\": {rows}}}\n")
    } else {
        format!("{report}\n{}\n", crate::render_weight_table(&rows))
    };
    Ok(check_response(output, errors))
}

/// `check` on a design with error-severity findings still *ran*: `ok`
/// with exit code 1, and their count on stderr.
fn check_response(output: String, errors: usize) -> Response {
    let resp = Response::success(output);
    if errors == 0 {
        return resp;
    }
    resp.with_exit(1).with_notes(format!(
        "banger: design has {errors} error-severity diagnostic{}",
        if errors == 1 { "" } else { "s" }
    ))
}

/// `show` — design statistics and the hierarchy as DOT.
fn op_show(snap: &Snapshot, _req: &Request, _: &ProjectStore) -> Answer {
    let p = &snap.project;
    let mut out = format!(
        "project {} — design depth {}, {} leaf tasks, {} programs\nmachine: {}\n",
        p.name(),
        p.design().depth(),
        p.expanded().tasks.len(),
        p.library().len(),
        p.machine()
            .map_or("(none defined)".to_string(), |m| m.describe())
    );
    out.push_str(&flat_summary(p.flatten()?));
    out.push_str(&format!(
        "\n{}\n",
        banger_taskgraph::dot::hiergraph_to_dot(p.design())
    ));
    Ok(Response::success(out))
}

/// Schedules with `heuristic` and renders the Gantt chart plus the
/// summary line: the stdout of `gantt`.
fn render_schedule(project: &Project, heuristic: &str) -> Result<String, String> {
    let s = project.schedule(heuristic)?;
    let gantt = project.gantt(&s)?;
    let m = project.machine().ok_or("project has no machine")?;
    let g = &project.flatten()?.graph;
    Ok(format!(
        "{gantt}\nmakespan {:.3}, speedup {:.2}x, efficiency {:.0}%, {} of {} processors used\n",
        s.makespan(),
        s.speedup(g, m),
        100.0 * s.efficiency(g, m),
        s.processors_used(),
        m.processors()
    ))
}

/// `gantt` / `schedule [-H h] [--optimize]`; the rendered chart is
/// memoized per heuristic inside the snapshot.
fn op_schedule(snap: &Snapshot, req: &Request, _: &ProjectStore) -> Answer {
    let (scratch, notes) = optimized(&snap.project, req.optimize)?;
    if let Some(scratch) = &scratch {
        let output = render_schedule(scratch, &req.heuristic)?;
        return Ok(Response::success(output).with_notes(notes));
    }
    let memo = snap.schedules.lock().get(&req.heuristic).cloned();
    if let Some(output) = memo {
        return Ok(Response::success(output).cached(true));
    }
    let output = render_schedule(&snap.project, &req.heuristic)?;
    snap.schedules
        .lock()
        .insert(req.heuristic.clone(), output.clone());
    Ok(Response::success(output))
}

/// `compare` — every heuristic, sorted by makespan.
fn op_compare(snap: &Snapshot, _req: &Request, _: &ProjectStore) -> Answer {
    let mut out = format!(
        "{:<14} {:>10} {:>9} {:>11} {:>7}\n",
        "heuristic", "makespan", "speedup", "efficiency", "procs"
    );
    for r in snap.project.compare_heuristics()? {
        out.push_str(&format!(
            "{:<14} {:>10.3} {:>8.2}x {:>10.0}% {:>7}\n",
            r.heuristic,
            r.makespan,
            r.speedup,
            100.0 * r.efficiency,
            r.processors_used
        ));
    }
    Ok(Response::success(out))
}

/// `simulate [-H h]` — predicted vs achieved on the message-accurate
/// simulator.
fn op_simulate(snap: &Snapshot, req: &Request, _: &ProjectStore) -> Answer {
    let s = snap.project.schedule(&req.heuristic)?;
    let r = snap.project.simulate(&s)?;
    Ok(Response::success(format!(
        "{}: predicted {:.3}, achieved {:.3} (ratio {:.3})\n\
         traffic: {} messages, {} link hops, {:.3} time units queueing\n",
        req.heuristic,
        r.predicted_makespan,
        r.achieved_makespan(),
        r.compare(),
        r.stats.messages,
        r.stats.hops,
        r.stats.queue_delay
    )))
}

/// `animate [-H h]` — frame-by-frame replay of the simulated schedule.
fn op_animate(snap: &Snapshot, req: &Request, _: &ProjectStore) -> Answer {
    let p = &snap.project;
    let s = p.schedule(&req.heuristic)?;
    let r = p.simulate(&s)?;
    let procs = p.machine().ok_or("project has no machine")?.processors();
    let frames = crate::animate::animate(
        &p.flatten()?.graph,
        procs,
        &r,
        crate::animate::AnimateOptions::default(),
    );
    Ok(Response::success(format!("{frames}\n")))
}

/// `advise [-H h]` — bottleneck analysis and suggestions.
fn op_advise(snap: &Snapshot, req: &Request, _: &ProjectStore) -> Answer {
    let p = &snap.project;
    let s = p.schedule(&req.heuristic)?;
    let m = p.machine().ok_or("project has no machine")?;
    let g = &p.flatten()?.graph;
    let advice = crate::advisor::advise(g, m, &s);
    Ok(Response::success(format!(
        "{}\n",
        crate::advisor::render(g, &advice)
    )))
}

/// `recommend [-p procs]` — the standard machine candidates (MH on
/// each), ranked by makespan.
fn op_recommend(snap: &Snapshot, req: &Request, _: &ProjectStore) -> Answer {
    let max_procs = req.procs.unwrap_or(16) as usize;
    if max_procs == 0 {
        return Err("processor budget must be at least 1".to_string());
    }
    if max_procs > MAX_PROCESSORS {
        return Err(format!("processor budget must be at most {MAX_PROCESSORS}"));
    }
    let p = &snap.project;
    let params = p.machine().map(|m| *m.params()).unwrap_or_default();
    let choices = p.recommend_machine(max_procs, params)?;
    Ok(Response::success(format!(
        "machine search — {} (budget {max_procs})\n{}",
        p.name(),
        crate::advisor::render_machine_search(&choices)
    )))
}

/// `svg [-H h] [-o dir]` — `gantt.svg`, `speedup.svg` and
/// `utilization.svg`, returned as files under `dir` (default: the front
/// end's current directory).
fn op_svg(snap: &Snapshot, req: &Request, _: &ProjectStore) -> Answer {
    let p = &snap.project;
    let s = p.schedule(&req.heuristic)?;
    let m = p.machine().ok_or("project has no machine")?;
    let topologies = [
        Topology::single(),
        Topology::hypercube(1),
        Topology::hypercube(2),
        Topology::hypercube(3),
    ];
    let points = p.predict_speedup(&topologies, *m.params())?;
    let title = format!("{} — predicted speedup", p.name());
    let dir = req.out.as_deref().unwrap_or(".");
    Ok(Response::success("")
        .with_file(
            format!("{dir}/gantt.svg"),
            crate::svg::gantt_svg(&s, m.processors(), &p.flatten()?.graph),
        )
        .with_file(
            format!("{dir}/utilization.svg"),
            crate::svg::utilization_svg(&s, m.processors()),
        )
        .with_file(
            format!("{dir}/speedup.svg"),
            crate::svg::speedup_svg(&title, &points),
        ))
}

/// `save-schedule [-H h] [-o path]` — the schedule in its text format,
/// on stdout or as a file.
fn op_save_schedule(snap: &Snapshot, req: &Request, _: &ProjectStore) -> Answer {
    let s = snap.project.schedule(&req.heuristic)?;
    let text = banger_sched::textfmt::to_text(&s);
    Ok(match &req.out {
        Some(path) => Response::success("")
            .with_file(path, text)
            .with_notes(format!("{} placements", s.placements().len())),
        None => Response::success(text),
    })
}

/// `verify -s schedule` — validates a saved schedule against the design
/// and machine, then replays it on the simulator.
fn op_verify(snap: &Snapshot, req: &Request, _: &ProjectStore) -> Answer {
    let text = req
        .schedule
        .as_deref()
        .ok_or_else(|| format!("{} needs -s <schedule file>", req.cmd))?;
    let s = banger_sched::textfmt::from_text(text)?;
    let p = &snap.project;
    let m = p.machine().ok_or("project has no machine")?;
    s.validate(&p.flatten()?.graph, m)
        .map_err(|e| format!("INVALID: {e}"))?;
    let r = p.simulate(&s)?;
    Ok(Response::success(format!(
        "VALID: {} placements, makespan {:.3}; simulation achieves {:.3} (ratio {:.3})\n",
        s.placements().len(),
        s.makespan(),
        r.achieved_makespan(),
        r.compare()
    )))
}

/// The stdout of a run — prints, then outputs — and after `notes` the
/// wall-clock line.
fn render_run(report: &ExecReport, notes: String) -> Response {
    let mut out = String::new();
    for (task, line) in &report.prints {
        out.push_str(&format!("[{task}] {line}\n"));
    }
    for (var, value) in &report.outputs {
        out.push_str(&format!("{var} = {value}\n"));
    }
    Response::success(out).with_notes(notes).with_notes(format!(
        "({} task runs, wall {:?})",
        report.runs.len(),
        report.wall
    ))
}

/// `run [-i var=value]... [--optimize] [--repeat n | --trace out [-H h]]`.
/// A run fires through a [`Session`](banger_exec::Session): the
/// snapshot's warm one, whose lock it holds for its firings (`cached`
/// reports its reuse), or a private one for an optimized copy. `--repeat`
/// fires it n times and prints the last firing's outputs with per-firing
/// latency notes. Only a worker the warm session lost drops it, so the
/// next request rebuilds the pool; a session starts every firing clean,
/// so any other failure leaves it warm.
fn op_run(snap: &Snapshot, req: &Request, store: &ProjectStore) -> Answer {
    let (scratch, notes) = optimized(&snap.project, req.optimize)?;
    let project = scratch.as_ref().unwrap_or(&snap.project);
    if let Some(Fault::Task(task)) = store.fault() {
        // Executor fault injection takes a one-off pool: options are
        // fixed at pool construction and must not contaminate the warm
        // one.
        let opts = ExecOptions {
            inject_panic: Some(task),
            ..Default::default()
        };
        return Ok(render_run(&project.run_with(&req.inputs, &opts)?, notes));
    }
    if let Some(out) = &req.out {
        if req.repeat.is_some() {
            return Err("--repeat and --trace are mutually exclusive".to_string());
        }
        return traced_run(project, req, out, notes);
    }
    let firings = req.repeat.unwrap_or(1);
    if firings == 0 {
        return Err("--repeat needs a count of at least 1".to_string());
    }
    let mut warm_slot = (!req.optimize).then(|| snap.session.lock());
    let warm = warm_slot.as_ref().is_some_and(|slot| slot.is_some());
    let mut private;
    let session = match warm_slot.as_deref_mut() {
        Some(Some(session)) => session,
        Some(slot) => slot.insert(project.session(&ExecOptions::default())?),
        None => {
            private = project.session(&ExecOptions::default())?;
            &mut private
        }
    };
    let (mut total, mut best, mut last) = (Duration::ZERO, Duration::MAX, None);
    for _ in 0..firings {
        match session.run(&req.inputs) {
            Ok(r) => {
                total += r.wall;
                best = best.min(r.wall);
                last = Some(r);
            }
            Err(e) => {
                if let (Some(slot), ExecError::WorkerLost(_)) = (warm_slot.as_deref_mut(), &e) {
                    // The pool lost workers; rebuild it next time.
                    *slot = None;
                }
                return Err(ProjectError::from(e).into());
            }
        }
    }
    let report = last.ok_or("the run produced no firing report")?;
    let mut resp = render_run(&report, notes).cached(warm);
    if req.repeat.is_some() {
        let workers = session.workers();
        let plural = if workers == 1 { "" } else { "s" };
        resp = resp.with_notes(format!(
            "({firings} firings on {workers} warm worker{plural}: total {total:?}, mean {:?}, \
             best {best:?})",
            total / firings,
        ));
    }
    Ok(resp)
}

/// `run --trace out [-H h]` — runs pinned to the `-H` schedule with
/// event tracing on: the Chrome trace JSON is returned as the file
/// `out`; the predicted and observed Gantt charts and the per-task drift
/// report follow the outputs, and the trace counters join the notes.
fn traced_run(project: &Project, req: &Request, out: &str, notes: String) -> Answer {
    let h = &req.heuristic;
    let schedule = project.schedule(h)?;
    let options = ExecOptions {
        mode: ExecMode::pinned(schedule.clone()),
        trace: true,
        ..Default::default()
    };
    let report = project.run_with(&req.inputs, &options)?;
    let trace = report
        .trace
        .as_ref()
        .ok_or("traced run recorded no trace")?;
    let graph = &project.flatten()?.graph;
    let name_of = |t| short_name(&graph.task(t).name);
    let mut resp = render_run(&report, notes).with_file(out, trace.chrome_json(name_of));
    resp.output.push_str(&format!(
        "\npredicted ({h}):\n{}\nobserved:\n{}\n{}\n",
        project.gantt(&schedule)?,
        project.observed_gantt(trace)?,
        project.drift_report(&schedule, trace)?.render(name_of)
    ));
    Ok(resp.with_notes(trace.summary().render()))
}

/// `trial <program> [-i var=value]... [--reference]` — runs one PITS
/// program through the compiled VM, or the tree-walking reference
/// interpreter; both produce identical outcomes.
fn op_trial(snap: &Snapshot, req: &Request, _: &ProjectStore) -> Answer {
    let program = req
        .args
        .first()
        .ok_or_else(|| format!("{} needs a <program> name", req.cmd))?;
    let config = banger_calc::InterpConfig {
        reference: req.reference,
        ..Default::default()
    };
    let outcome = snap.project.trial_run_with(program, &req.inputs, config)?;
    let mut out = String::new();
    for line in &outcome.prints {
        out.push_str(&format!("{line}\n"));
    }
    for (var, value) in &outcome.outputs {
        out.push_str(&format!("{var} = {value}\n"));
    }
    Ok(Response::success(out).with_notes(format!(
        "({} ops, {} engine)",
        outcome.ops,
        if req.reference { "reference" } else { "vm" }
    )))
}

/// `speedup [-t spec,spec,...]` — speedup prediction chart.
fn op_speedup(snap: &Snapshot, req: &Request, _: &ProjectStore) -> Answer {
    let specs = req
        .topologies
        .as_deref()
        .unwrap_or("single,hypercube:1,hypercube:2,hypercube:3");
    let mut topos = Vec::new();
    for spec in specs.split(',') {
        topos.push(Topology::parse(spec.trim()).map_err(|e| e.to_string())?);
    }
    let p = &snap.project;
    let params = p.machine().map(|m| *m.params()).unwrap_or_default();
    let points = p.predict_speedup(&topos, params)?;
    let title = format!("predicted speedup — {}", p.name());
    Ok(Response::success(format!(
        "{}\n",
        crate::speedup_chart(&title, &points, 40)
    )))
}

/// `codegen [rust|c] [-H h] [-i var=value]...` — generated code on
/// stdout.
fn op_codegen(snap: &Snapshot, req: &Request, _: &ProjectStore) -> Answer {
    let s = snap.project.schedule(&req.heuristic)?;
    let code = match req.args.first().map_or("rust", String::as_str) {
        "rust" => snap.project.generate_rust(&s, &req.inputs)?,
        "c" => snap.project.generate_c(&s, &req.inputs)?,
        other => return Err(format!("unknown language {other:?} (rust|c)")),
    };
    Ok(Response::success(code))
}

/// `parallelize <task> <chunks>` — splits a reduction task and prints
/// the rewritten document.
fn op_parallelize(snap: &Snapshot, req: &Request, _: &ProjectStore) -> Answer {
    let task = req
        .args
        .first()
        .ok_or_else(|| format!("{} needs a task name", req.cmd))?;
    let chunks: usize = req
        .args
        .get(1)
        .ok_or_else(|| format!("{} needs a chunk count", req.cmd))?
        .parse()
        .map_err(|_| "bad chunk count")?;
    let mut scratch = snap.project.clone();
    let names = scratch.parallelize_task(task, chunks)?;
    Ok(
        Response::success(crate::document::print_project(&scratch)).with_notes(format!(
            "expanded {task:?} into {} chunks: {names:?}",
            names.len()
        )),
    )
}

/// `optimize [--expand task:tiles] [--fuse] [--emit out]`. Map expansion
/// runs first (it creates the task-parallel structure), then dead-arc
/// elimination and — with `--fuse` — task fusion. The statistics are
/// notes; the rewritten document is returned as the file `out`, or on
/// stdout when `out` is `-`.
fn op_optimize(snap: &Snapshot, req: &Request, _: &ProjectStore) -> Answer {
    let mut scratch = snap.project.clone();
    let mut resp = Response::success("");
    if let Some(spec) = &req.expand {
        let (task, tiles) = spec
            .split_once(':')
            .ok_or_else(|| format!("bad --expand {spec:?} (want task:tiles)"))?;
        let tiles: usize = tiles
            .parse()
            .map_err(|_| format!("bad tile count {tiles:?}"))?;
        let st = scratch.expand_task(task, tiles)?;
        resp = resp.with_notes(format!(
            "expanded {task:?} into {0}x{0} tiles of {1}x{1} ({2} tasks, {3} programs added)",
            st.tiles, st.block, st.tasks_added, st.programs_added
        ));
    }
    let stats = scratch.optimize(req.fuse)?;
    let graph = &scratch.flatten()?.graph;
    resp = resp
        .with_notes(render_opt_stats(&stats))
        .with_notes(format!(
            "optimized design: {} tasks, {} arcs",
            graph.task_count(),
            graph.edge_count()
        ));
    Ok(match req.out.as_deref() {
        None => resp,
        Some("-") => Response {
            output: crate::document::print_project(&scratch),
            ..resp
        },
        Some(path) => resp.with_file(path, crate::document::print_project(&scratch)),
    })
}

/// `graph [--optimized] [--dot]` — the *flattened* task graph (what the
/// scheduler and router see), unlike `show`, which renders the
/// hierarchy.
fn op_graph(snap: &Snapshot, req: &Request, _: &ProjectStore) -> Answer {
    let (scratch, notes) = optimized(&snap.project, req.optimize)?;
    let project = scratch.as_ref().unwrap_or(&snap.project);
    let f = project.flatten()?;
    let out = if req.dot {
        format!("{}\n", banger_taskgraph::dot::taskgraph_to_dot(&f.graph))
    } else {
        flat_summary(f)
    };
    Ok(Response::success(out).with_notes(notes))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write as _;
    use std::path::PathBuf;

    fn temp_bang(name: &str, body: &str) -> PathBuf {
        let path =
            std::env::temp_dir().join(format!("banger-ops-{}-{name}.bang", std::process::id()));
        let mut f = std::fs::File::create(&path).unwrap();
        f.write_all(body.as_bytes()).unwrap();
        path
    }

    fn lu3_source() -> String {
        let root = env!("CARGO_MANIFEST_DIR");
        std::fs::read_to_string(format!("{root}/../../examples/projects/lu3.bang")).unwrap()
    }

    #[test]
    fn schedule_is_cached_and_stable() {
        let path = temp_bang("sched", &lu3_source());
        let store = ProjectStore::new();
        let mut req = Request::for_path("schedule", path.to_str().unwrap());
        req.heuristic = "ETF".into();
        let cold = handle(&store, &req);
        assert!(cold.ok, "{}", cold.error);
        assert!(!cold.cached);
        assert!(cold.output.contains("makespan"), "{}", cold.output);
        let warm = handle(&store, &req);
        assert!(warm.cached);
        assert_eq!(cold.output, warm.output);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn check_and_unknown_heuristic() {
        let path = temp_bang("check", &lu3_source());
        let store = ProjectStore::new();
        let resp = handle(&store, &Request::for_path("check", path.to_str().unwrap()));
        assert!(resp.ok, "{}", resp.error);
        assert_eq!(resp.exit, 0);
        let mut bad = Request::for_path("schedule", path.to_str().unwrap());
        bad.heuristic = "NOPE".into();
        let resp = handle(&store, &bad);
        assert!(!resp.ok);
        assert!(resp.error.contains("unknown heuristic"), "{}", resp.error);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn run_reuses_the_session() {
        let path = temp_bang("run", &lu3_source());
        let store = ProjectStore::new();
        let mut req = Request::for_path("run", path.to_str().unwrap());
        // A = identity, b = [1,2,3] -> x = [1,2,3].
        req.inputs.insert(
            "A".into(),
            banger_calc::Value::array(vec![1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0]),
        );
        req.inputs
            .insert("b".into(), banger_calc::Value::array(vec![1.0, 2.0, 3.0]));
        let first = handle(&store, &req);
        assert!(first.ok, "{}", first.error);
        assert!(!first.cached, "first run builds the pool");
        assert!(first.output.contains("x = [1, 2, 3]"), "{}", first.output);
        let second = handle(&store, &req);
        assert!(second.cached, "second run reuses the warm pool");
        assert_eq!(first.output, second.output);
        std::fs::remove_file(&path).ok();
    }

    /// A firing that fails for any reason but a lost worker leaves the
    /// warm pool in place: an input the run lacks fires nothing at all.
    #[test]
    fn a_failed_firing_keeps_the_warm_session() {
        let path = temp_bang("keep", &lu3_source());
        let store = ProjectStore::new();
        let mut req = Request::for_path("run", path.to_str().unwrap());
        req.inputs.insert(
            "A".into(),
            banger_calc::Value::array(vec![1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0]),
        );
        let b = banger_calc::Value::array(vec![1.0, 2.0, 3.0]);
        req.inputs.insert("b".into(), b.clone());
        let first = handle(&store, &req);
        assert!(first.ok && !first.cached, "{}", first.error);
        req.inputs.remove("b");
        let missing = handle(&store, &req);
        assert!(
            !missing.ok && missing.error.contains(r#"input "b" has no producer"#),
            "{}",
            missing.error
        );
        req.inputs.insert("b".into(), b);
        let again = handle(&store, &req);
        assert!(again.ok, "{}", again.error);
        assert!(again.cached, "a missing input cost the warm pool");
        assert_eq!(again.output, first.output);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn executor_panic_is_attributed_and_contained() {
        let path = temp_bang("inject", &lu3_source());
        let store = ProjectStore::new();
        let mut req = Request::for_path("run", path.to_str().unwrap());
        req.inputs.insert(
            "A".into(),
            banger_calc::Value::array(vec![1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0]),
        );
        req.inputs
            .insert("b".into(), banger_calc::Value::array(vec![1.0, 2.0, 3.0]));
        store.inject(Some(Fault::Task("Factor.fan1".into())));
        let resp = handle(&store, &req);
        assert!(!resp.ok);
        assert!(resp.error.contains("Factor.fan1"), "{}", resp.error);
        // The entry survives: a clean run on the same store succeeds.
        store.inject(None);
        let resp = handle(&store, &req);
        assert!(resp.ok, "{}", resp.error);
        std::fs::remove_file(&path).ok();
    }

    /// Verbs with a file product return it; a verb that rewrites the
    /// design leaves the cached project, and so later answers, alone.
    #[test]
    fn file_products_come_back_and_rewrites_stay_private() {
        let path = temp_bang("files", &lu3_source());
        let store = ProjectStore::new();
        let plain = Request::for_path("graph", path.to_str().unwrap());
        let before = handle(&store, &plain);
        assert!(before.ok, "{}", before.error);

        let mut svg = Request::for_path("svg", path.to_str().unwrap());
        svg.out = Some("charts".into());
        let resp = handle(&store, &svg);
        let names: Vec<&str> = resp.files.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(
            names,
            [
                "charts/gantt.svg",
                "charts/utilization.svg",
                "charts/speedup.svg"
            ]
        );
        assert!(resp.files.iter().all(|(_, body)| body.starts_with("<svg")));
        assert!(!std::path::Path::new("charts").exists());

        let mut emit = Request::for_path("optimize", path.to_str().unwrap());
        emit.fuse = true;
        emit.out = Some("o.bang".into());
        let resp = handle(&store, &emit);
        assert!(resp.ok, "{}", resp.error);
        assert_eq!(resp.output, "");
        assert_eq!(resp.files[0].0, "o.bang");
        assert!(crate::parse_project(&resp.files[0].1).is_ok());
        emit.out = Some("-".into());
        let to_stdout = handle(&store, &emit);
        assert_eq!(to_stdout.output, resp.files[0].1);
        assert!(to_stdout.files.is_empty());

        assert_eq!(handle(&store, &plain).output, before.output);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn ping_stats_evict() {
        let store = ProjectStore::new();
        assert_eq!(handle(&store, &Request::new("ping")).output, "pong\n");
        let resp = handle(&store, &Request::new("stats"));
        assert!(resp.output.starts_with("requests 2"), "{}", resp.output);
        let resp = handle(&store, &Request::for_path("evict", "/nonexistent.bang"));
        assert_eq!(resp.output, "not cached\n");
        assert!(!handle(&store, &Request::new("nonsense")).ok);
    }
}
