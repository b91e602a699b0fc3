//! The Banger *project*: one design + its PITS programs + a target
//! machine, with every environment operation (schedule, trial-run,
//! simulate, execute, predict, generate) hanging off it.
//!
//! This is the programmatic equivalent of the four-step workflow the paper
//! describes: *"draw a hierarchical dataflow graph ... define a target
//! machine ... specify algorithms as small sequential tasks ... generate
//! the code."*
//!
//! # The derivation chain
//!
//! Three facts are derived from the design and library, each computed at
//! most once per edit behind `&self` (in `OnceLock`s): the one hierarchy
//! walk ([`Project::expanded`]), then its strict reading
//! ([`Project::flatten`]) and its tolerant one ([`Project::diagnose`]).
//! Only the six methods that change an input take `&mut self`, and those
//! that change the design or library go through one private accessor that
//! drops all three facts — the only reset there is (DESIGN.md §18).

use crate::chart::SpeedupPoint;
use crate::gantt;
use banger_analyze::Diagnostic;
use banger_calc::{interp, InterpConfig, Outcome, ProgramLibrary, RunError, Value};
use banger_codegen::CodegenError;
use banger_exec::{execute, ExecError, ExecMode, ExecOptions, ExecReport, Session};
use banger_machine::{Machine, MachineParams, Topology};
use banger_sched::{Schedule, ScheduleSummary};
use banger_sim::{simulate, SimError, SimResult};
use banger_taskgraph::hierarchy::{Expanded, Flattened};
use banger_taskgraph::parallel::parallel_map;
use banger_taskgraph::{GraphError, HierGraph};
use banger_trace::{DriftReport, Trace};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::OnceLock;

/// Project-level errors.
#[derive(Debug)]
pub enum ProjectError {
    /// No target machine has been defined yet.
    NoMachine,
    /// The design failed to flatten.
    Graph(GraphError),
    /// Unknown heuristic name.
    UnknownHeuristic(String),
    /// A trial run failed.
    Trial(RunError),
    /// Unknown program name for a trial run.
    UnknownProgram(String),
    /// Simulation failure.
    Sim(SimError),
    /// Execution failure.
    Exec(ExecError),
    /// Code generation failure.
    Codegen(CodegenError),
    /// The design failed static analysis with error-severity diagnostics
    /// (see [`Project::diagnose`]); carries every finding, warnings
    /// included.
    Invalid(Vec<Diagnostic>),
    /// A graph-rewrite pass failed (see [`Project::optimize`] and
    /// [`Project::expand_task`]).
    Opt(banger_opt::OptError),
}

impl fmt::Display for ProjectError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProjectError::NoMachine => write!(f, "no target machine defined (use set_machine)"),
            ProjectError::Graph(e) => write!(f, "design error: {e}"),
            ProjectError::UnknownHeuristic(h) => write!(f, "unknown heuristic {h:?}"),
            ProjectError::Trial(e) => write!(f, "trial run failed: {e}"),
            ProjectError::UnknownProgram(p) => write!(f, "no program named {p:?}"),
            ProjectError::Sim(e) => write!(f, "simulation failed: {e}"),
            ProjectError::Exec(e) => write!(f, "execution failed: {e}"),
            ProjectError::Codegen(e) => write!(f, "code generation failed: {e}"),
            ProjectError::Invalid(diags) => {
                writeln!(f, "the design failed static analysis:")?;
                write!(f, "{}", banger_analyze::render_report(diags))
            }
            ProjectError::Opt(e) => write!(f, "optimizer error: {e}"),
        }
    }
}

impl std::error::Error for ProjectError {}

/// The message a front end shows: lets the request handlers, whose
/// failures are messages, use `?` on project operations.
impl From<ProjectError> for String {
    fn from(e: ProjectError) -> String {
        e.to_string()
    }
}

impl From<GraphError> for ProjectError {
    fn from(e: GraphError) -> Self {
        ProjectError::Graph(e)
    }
}
impl From<SimError> for ProjectError {
    fn from(e: SimError) -> Self {
        ProjectError::Sim(e)
    }
}
impl From<ExecError> for ProjectError {
    fn from(e: ExecError) -> Self {
        ProjectError::Exec(e)
    }
}
impl From<CodegenError> for ProjectError {
    fn from(e: CodegenError) -> Self {
        ProjectError::Codegen(e)
    }
}
impl From<banger_opt::OptError> for ProjectError {
    fn from(e: banger_opt::OptError) -> Self {
        ProjectError::Opt(e)
    }
}

/// What [`Project::optimize`] changed, pass by pass.
#[derive(Debug, Clone, PartialEq)]
pub struct OptimizeStats {
    /// Dead-arc / dead-port elimination counts.
    pub dce: banger_opt::DceStats,
    /// Fusion counts, when fusion was requested.
    pub fuse: Option<banger_opt::FuseStats>,
}

/// One row of [`Project::weight_report`]: how a task's drawn scheduling
/// weight compares with the static estimate of its attached program and,
/// when a run report is supplied, with the measured operation count.
#[derive(Debug, Clone, PartialEq)]
pub struct WeightRow {
    /// Qualified task name in the flattened graph (e.g. `Factor.fan1`).
    pub task: String,
    /// Name of the attached PITS program, when the node has one.
    pub program: Option<String>,
    /// The weight drawn on the design node.
    pub drawn: f64,
    /// Static cost bounds inferred for the program by the abstract
    /// interpreter; `None` when the task has no program or the name is
    /// not in the library.
    pub cost: Option<banger_calc::absint::StaticCost>,
    /// Operation count measured by a real execution, when one was given.
    pub measured: Option<f64>,
}

/// Renders weight rows as the aligned text table behind
/// `banger check --weights`.
pub fn render_weight_table(rows: &[WeightRow]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<24} {:<12} {:>10} {:>12} {:>22} {:>10}\n",
        "task", "program", "drawn", "static est", "static bounds", "measured"
    ));
    for r in rows {
        let (est, bounds) = match &r.cost {
            Some(c) => {
                let hi = if c.ops_hi.is_finite() {
                    format!("{}", c.ops_hi)
                } else {
                    "inf".to_string()
                };
                let mark = if c.exact { " (exact)" } else { "" };
                (format!("{}", c.est), format!("[{}, {hi}]{mark}", c.ops_lo))
            }
            None => ("-".to_string(), "-".to_string()),
        };
        let measured = match r.measured {
            Some(m) => format!("{m}"),
            None => "-".to_string(),
        };
        out.push_str(&format!(
            "{:<24} {:<12} {:>10} {:>12} {:>22} {:>10}\n",
            r.task,
            r.program.as_deref().unwrap_or("-"),
            r.drawn,
            est,
            bounds,
            measured
        ));
    }
    out
}

/// Renders weight rows as a JSON array under the stable schema used by
/// `banger check --weights --format json`: one object per task with
/// `task`, `program`, `drawn`, `static` (`est`/`ops_lo`/`ops_hi`/`exact`,
/// `ops_hi` null when unbounded) and `measured`; absent pieces are null.
pub fn weight_rows_json(rows: &[WeightRow]) -> String {
    use banger_taskgraph::json::quote;
    fn num(x: f64) -> String {
        if x.is_finite() {
            format!("{x}")
        } else {
            "null".to_string()
        }
    }
    let mut out = String::from("[");
    for (i, r) in rows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n  {");
        out.push_str(&format!("\"task\": {}, ", quote(&r.task)));
        match &r.program {
            Some(p) => out.push_str(&format!("\"program\": {}, ", quote(p))),
            None => out.push_str("\"program\": null, "),
        }
        out.push_str(&format!("\"drawn\": {}, ", num(r.drawn)));
        match &r.cost {
            Some(c) => out.push_str(&format!(
                "\"static\": {{\"est\": {}, \"ops_lo\": {}, \"ops_hi\": {}, \"exact\": {}}}, ",
                num(c.est),
                num(c.ops_lo),
                num(c.ops_hi),
                c.exact
            )),
            None => out.push_str("\"static\": null, "),
        }
        match r.measured {
            Some(m) => out.push_str(&format!("\"measured\": {}", num(m))),
            None => out.push_str("\"measured\": null"),
        }
        out.push('}');
    }
    out.push_str(if rows.is_empty() { "]" } else { "\n]" });
    out
}

/// What a [`Project`] derives from its design and library, in dependency
/// order: the walk, then its strict and its tolerant reading. Each is
/// filled on first use; [`Project::edit`] drops all three.
#[derive(Debug, Clone, Default)]
struct Derived {
    expanded: OnceLock<Expanded>,
    flattened: OnceLock<Result<Flattened, GraphError>>,
    diagnostics: OnceLock<Vec<Diagnostic>>,
}

/// A Banger project.
#[derive(Debug, Clone)]
pub struct Project {
    name: String,
    design: HierGraph,
    library: ProgramLibrary,
    machine: Option<Machine>,
    derived: Derived,
}

impl Project {
    /// Creates a project around a design.
    pub fn new(name: impl Into<String>, design: HierGraph) -> Self {
        Project {
            name: name.into(),
            design,
            library: ProgramLibrary::new(),
            machine: None,
            derived: Derived::default(),
        }
    }

    /// Project name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The hierarchical design.
    pub fn design(&self) -> &HierGraph {
        &self.design
    }

    /// The PITS program library.
    pub fn library(&self) -> &ProgramLibrary {
        &self.library
    }

    /// The one way to the design and the library for anything that
    /// changes them: every derived fact is dropped first, so none can
    /// outlive the inputs it was computed from.
    fn edit(&mut self) -> (&mut HierGraph, &mut ProgramLibrary) {
        self.derived = Derived::default();
        (&mut self.design, &mut self.library)
    }

    /// Mutable design access; drops every derived fact.
    pub fn design_mut(&mut self) -> &mut HierGraph {
        self.edit().0
    }

    /// Mutable program library access; drops every derived fact.
    pub fn library_mut(&mut self) -> &mut ProgramLibrary {
        self.edit().1
    }

    /// Defines the target machine (paper step 2). Nothing derived reads
    /// the machine — schedules, charts and simulations are computed per
    /// call, not kept — so nothing is dropped.
    pub fn set_machine(&mut self, machine: Machine) {
        self.machine = Some(machine);
    }

    /// The current machine.
    pub fn machine(&self) -> Option<&Machine> {
        self.machine.as_ref()
    }

    fn machine_ref(&self) -> Result<&Machine, ProjectError> {
        self.machine.as_ref().ok_or(ProjectError::NoMachine)
    }

    /// The design with its compounds expanded: the one hierarchy walk
    /// [`flatten`](Self::flatten) and [`diagnose`](Self::diagnose) both
    /// read, kept until the design or library changes.
    pub fn expanded(&self) -> &Expanded {
        self.derived.expanded.get_or_init(|| self.design.expand())
    }

    /// The flattened design, kept until the design or library changes. A
    /// design that does not flatten fails with the analyzer's named
    /// findings ([`ProjectError::Invalid`]) whenever it has any, so every
    /// verb reports an unbound port or a cycle the way `check` does.
    pub fn flatten(&self) -> Result<&Flattened, ProjectError> {
        let strict = || self.expanded().flatten();
        match self.derived.flattened.get_or_init(strict) {
            Ok(flat) => Ok(flat),
            Err(e) => {
                self.gate()?;
                Err(e.clone().into())
            }
        }
    }

    /// Runs static analysis over the design and library (see
    /// [`banger_analyze::diagnose`]) and returns the findings, kept
    /// until the design or library changes.
    pub fn diagnose(&self) -> &[Diagnostic] {
        let passes = || banger_analyze::diagnose_expanded(self.expanded(), &self.library);
        self.derived.diagnostics.get_or_init(passes)
    }

    /// Refuses to proceed on error-severity diagnostics. Warnings do not
    /// stop anything and are not printed here: whoever talks to the user
    /// reads them from [`diagnose`](Self::diagnose) (the request handler
    /// puts them in its response's notes).
    /// Called by [`schedule`](Self::schedule), [`run`](Self::run),
    /// [`run_scheduled`](Self::run_scheduled), the code generators, and by
    /// [`flatten`](Self::flatten) on a design that does not flatten.
    fn gate(&self) -> Result<(), ProjectError> {
        let diags = self.diagnose();
        if banger_analyze::has_errors(diags) {
            return Err(ProjectError::Invalid(diags.to_vec()));
        }
        Ok(())
    }

    /// Runs a named scheduling heuristic (see
    /// [`banger_sched::HEURISTIC_NAMES`]).
    /// The design must pass [`diagnose`](Self::diagnose) with no errors.
    pub fn schedule(&self, heuristic: &str) -> Result<Schedule, ProjectError> {
        // Report the missing machine before any design diagnostics: it is
        // the first thing the user must fix to get a schedule at all.
        let m = self.machine_ref()?;
        let g = &self.flatten()?.graph;
        self.gate()?;
        banger_sched::run_heuristic(heuristic, g, m)
            .ok_or_else(|| ProjectError::UnknownHeuristic(heuristic.to_string()))
    }

    /// Renders a schedule as an ASCII Gantt chart (paper Figure 3, left).
    pub fn gantt(&self, schedule: &Schedule) -> Result<String, ProjectError> {
        let procs = self.machine_ref()?.processors();
        let g = &self.flatten()?.graph;
        Ok(gantt::render(schedule, procs, |t| {
            short_name(&g.task(t).name)
        }))
    }

    /// Trial-runs one named PITS program with explicit inputs (paper
    /// Figure 4's "trial run" of a single node). Executes the library's
    /// compile-once bytecode form.
    pub fn trial_run(
        &self,
        program: &str,
        inputs: &BTreeMap<String, Value>,
    ) -> Result<Outcome, ProjectError> {
        self.trial_run_with(program, inputs, InterpConfig::default())
    }

    /// [`trial_run`](Self::trial_run) with explicit interpreter
    /// configuration: step budget, and `reference: true` to use the
    /// tree-walking reference interpreter instead of the compiled VM
    /// (`banger trial --reference`). Both produce identical outcomes.
    pub fn trial_run_with(
        &self,
        program: &str,
        inputs: &BTreeMap<String, Value>,
        config: InterpConfig,
    ) -> Result<Outcome, ProjectError> {
        if config.reference {
            let prog = self
                .library
                .get(program)
                .ok_or_else(|| ProjectError::UnknownProgram(program.to_string()))?;
            interp::run_with(prog, inputs, config).map_err(ProjectError::Trial)
        } else {
            let compiled = self
                .library
                .get_compiled(program)
                .ok_or_else(|| ProjectError::UnknownProgram(program.to_string()))?;
            banger_calc::vm::run_compiled(&compiled, inputs, config).map_err(ProjectError::Trial)
        }
    }

    /// One [`WeightRow`] per task in the flattened design, comparing the
    /// drawn weight with the abstract interpreter's static cost of the
    /// attached program and, when `measured` is supplied, with the
    /// operation counts of that execution (max over task copies). This is
    /// the data behind `banger check --weights`.
    pub fn weight_report(
        &self,
        measured: Option<&ExecReport>,
    ) -> Result<Vec<WeightRow>, ProjectError> {
        let g = &self.flatten()?.graph;
        let meas = measured.map(|r| r.measured_weights(g.task_count()));
        Ok(g.tasks()
            .map(|(t, task)| WeightRow {
                task: task.name.clone(),
                program: task.program.clone(),
                drawn: task.weight,
                cost: task
                    .program
                    .as_deref()
                    .and_then(|p| self.library.static_cost(p)),
                measured: meas.as_ref().map(|m| m[t.index()]),
            })
            .collect())
    }

    /// Simulates a schedule on the machine (trial run of the *entire
    /// program*, message-accurate).
    pub fn simulate(&self, schedule: &Schedule) -> Result<SimResult, ProjectError> {
        let g = &self.flatten()?.graph;
        let m = self.machine_ref()?;
        Ok(simulate(g, m, schedule)?)
    }

    /// Executes the design for real on host threads (greedy pool).
    /// The design must pass [`diagnose`](Self::diagnose) with no errors.
    pub fn run(&self, inputs: &BTreeMap<String, Value>) -> Result<ExecReport, ProjectError> {
        self.run_with(inputs, &ExecOptions::default())
    }

    /// Executes the design pinned to a schedule (worker *i* = processor
    /// *i*).
    pub fn run_scheduled(
        &self,
        schedule: &Schedule,
        inputs: &BTreeMap<String, Value>,
    ) -> Result<ExecReport, ProjectError> {
        self.run_with(
            inputs,
            &ExecOptions {
                mode: ExecMode::pinned(schedule.clone()),
                ..ExecOptions::default()
            },
        )
    }

    /// Executes the design with full [`ExecOptions`] control — mode,
    /// interpreter configuration, and [`ExecOptions::trace`] to record
    /// the event stream consumed by [`observed_gantt`](Self::observed_gantt)
    /// and [`drift_report`](Self::drift_report).
    /// The design must pass [`diagnose`](Self::diagnose) with no errors.
    pub fn run_with(
        &self,
        inputs: &BTreeMap<String, Value>,
        options: &ExecOptions,
    ) -> Result<ExecReport, ProjectError> {
        self.gate()?;
        Ok(execute(self.flatten()?, &self.library, inputs, options)?)
    }

    /// Opens a persistent [`Session`] on the design: routing tables,
    /// compiled programs, the slab store, and a parked worker pool all
    /// survive across [`Session::run`] firings, so repeated executions
    /// (parameter sweeps, convergence loops, `banger run --repeat N`)
    /// pay the setup once. Greedy mode only.
    /// The design must pass [`diagnose`](Self::diagnose) with no errors.
    pub fn session(&self, options: &ExecOptions) -> Result<Session, ProjectError> {
        self.gate()?;
        Ok(Session::new(self.flatten()?, &self.library, options)?)
    }

    /// Renders a traced execution's *observed* timeline as an ASCII
    /// Gantt chart — same renderer and task labels as the predicted
    /// [`gantt`](Self::gantt), rows are worker threads, time is
    /// wall-clock seconds.
    pub fn observed_gantt(&self, trace: &Trace) -> Result<String, ProjectError> {
        let g = &self.flatten()?.graph;
        let observed = trace.observed_schedule(g.task_count());
        Ok(gantt::render(&observed, trace.workers, |t| {
            short_name(&g.task(t).name)
        }))
    }

    /// Joins a predicted schedule against a traced execution: the
    /// prediction is refined through the message-accurate simulator when
    /// possible (falling back to the schedule's own placements), and the
    /// [`DriftReport`] compares per-task start/finish times and the
    /// makespan under a global unit fit (see `banger_trace`).
    pub fn drift_report(
        &self,
        schedule: &Schedule,
        trace: &Trace,
    ) -> Result<DriftReport, ProjectError> {
        let predicted = match self.simulate(schedule) {
            Ok(sim) => sim.achieved,
            Err(_) => schedule.clone(),
        };
        Ok(DriftReport::new(&predicted, trace))
    }

    /// Predicts speedup of the design across machines built from the given
    /// topologies with the supplied parameters (paper Figure 3, right).
    /// Uses the MH scheduler (PPSE's flagship). The per-topology runs are
    /// independent and fan out across worker threads
    /// ([`parallel_map`]); results are identical to the sequential loop
    /// and come back in `topologies` order. Each worker builds its machine
    /// and drops it with the run, so however long the list, no more
    /// machines are alive at once than there are workers.
    pub fn predict_speedup(
        &self,
        topologies: &[Topology],
        params: MachineParams,
    ) -> Result<Vec<SpeedupPoint>, ProjectError> {
        let g = &self.flatten()?.graph;
        Ok(parallel_map(topologies, |_, topo| {
            let m = Machine::new(topo.clone(), params);
            SpeedupPoint {
                processors: m.processors(),
                speedup: banger_sched::mh::mh(g, &m).speedup(g, &m),
            }
        }))
    }

    /// Runs every heuristic and summarises the results, sorted best-first.
    /// The runs fan out across worker threads with a shared graph analysis;
    /// the table is identical to the sequential loop's.
    pub fn compare_heuristics(&self) -> Result<Vec<ScheduleSummary>, ProjectError> {
        let g = &self.flatten()?.graph;
        let m = self.machine_ref()?;
        let names = &banger_sched::HEURISTIC_NAMES;
        let mut rows = Vec::with_capacity(names.len());
        for (name, s) in names
            .iter()
            .zip(banger_sched::sweep::sweep_heuristics(names, g, m))
        {
            let s = s.ok_or_else(|| ProjectError::UnknownHeuristic(name.to_string()))?;
            rows.push(s.summarize(g, m));
        }
        rows.sort_by(|a, b| a.makespan.total_cmp(&b.makespan));
        Ok(rows)
    }

    /// Machine-space search (guidance for the paper's "define a target
    /// machine" step): evaluates the design on the standard candidate
    /// machines up to `max_procs` processors — all Figure 2 topologies —
    /// and returns the outcomes best-first. The candidates are scheduled
    /// in parallel; the ranking is deterministic.
    pub fn recommend_machine(
        &self,
        max_procs: usize,
        params: MachineParams,
    ) -> Result<Vec<crate::advisor::MachineChoice>, ProjectError> {
        let g = &self.flatten()?.graph;
        let candidates = crate::advisor::standard_candidates(max_procs, params);
        Ok(crate::advisor::search_machines(g, &candidates))
    }

    /// Expands a top-level reduction task into `chunks` parallel chunk
    /// tasks plus a combiner — the paper's "machine-independent
    /// data-parallel constructs" future work. The task's program must
    /// match the reduction shape recognised by
    /// [`banger_calc::transform::parallelize_reduction`]; the design node
    /// is replaced in place (arcs stay attached) and the new programs are
    /// registered in the library. Returns the names of the chunk programs.
    pub fn parallelize_task(
        &mut self,
        task_name: &str,
        chunks: usize,
    ) -> Result<Vec<String>, ProjectError> {
        use banger_taskgraph::NodeKind;
        // Find the top-level task node and its program.
        let (node_id, weight, prog_name) = self
            .design
            .nodes()
            .find_map(|(id, n)| match &n.kind {
                NodeKind::Task {
                    weight,
                    program: Some(p),
                } if n.name == task_name => Some((id, *weight, p.clone())),
                _ => None,
            })
            .ok_or_else(|| ProjectError::UnknownProgram(task_name.to_string()))?;
        let prog = self
            .library
            .get(&prog_name)
            .ok_or_else(|| ProjectError::UnknownProgram(prog_name.clone()))?
            .clone();
        let split = banger_calc::transform::parallelize_reduction(&prog, chunks).map_err(|e| {
            ProjectError::Graph(banger_taskgraph::GraphError::BadExpansion(format!(
                "cannot parallelize {task_name:?}: {e}"
            )))
        })?;

        // Build the expansion: chunk tasks feeding a combiner.
        let mut inner = HierGraph::new(format!("{task_name}-par"));
        let combine_name = split.combine.name.clone();
        let combine_id = inner.add_task_with_program(
            "combine",
            (weight / chunks as f64).max(1.0),
            combine_name.clone(),
        );
        let mut chunk_ids = Vec::with_capacity(chunks);
        let mut chunk_names = Vec::with_capacity(chunks);
        for (c, chunk) in split.chunks.iter().enumerate() {
            let id = inner.add_task_with_program(
                format!("chunk{c}"),
                weight / chunks as f64,
                chunk.name.clone(),
            );
            inner
                .add_arc(id, combine_id, split.partials[c].clone(), 1.0)
                .map_err(ProjectError::Graph)?;
            chunk_ids.push(id);
            chunk_names.push(chunk.name.clone());
        }

        // Port bindings: every incoming arc label feeds all chunks (and
        // the combiner when it consumes the input, e.g. for the init or
        // postlude); every outgoing arc label leaves the combiner.
        let mut inputs: std::collections::BTreeMap<String, Vec<banger_taskgraph::HierNodeId>> =
            std::collections::BTreeMap::new();
        let mut outputs: std::collections::BTreeMap<String, Vec<banger_taskgraph::HierNodeId>> =
            std::collections::BTreeMap::new();
        for arc in self.design.arcs() {
            if arc.dst == node_id {
                let mut sinks = chunk_ids.clone();
                if split.combine.inputs.iter().any(|v| v == &arc.label) {
                    sinks.push(combine_id);
                }
                inputs.insert(arc.label.clone(), sinks);
            }
            if arc.src == node_id {
                outputs.insert(arc.label.clone(), vec![combine_id]);
            }
        }

        let (design, library) = self.edit();
        design
            .replace_task_with_compound(node_id, inner, inputs, outputs)
            .map_err(ProjectError::Graph)?;

        // Register the generated programs.
        for chunk in split.chunks {
            library.add(chunk);
        }
        library.add(split.combine);
        Ok(chunk_names)
    }

    /// Runs the graph-rewrite optimizer over the design: dead-arc /
    /// dead-port elimination always, task fusion when `fuse` is set.
    ///
    /// The design must pass [`diagnose`](Self::diagnose) with no errors
    /// first — the rewrites assume the router bindings the analyzer
    /// checks for. On success the project's design is *replaced* by the
    /// optimised, flattened-out equivalent (storage sizes carried over
    /// from the original) and the library by the rewritten programs.
    /// Both passes preserve Outcomes exactly: output values, print
    /// output and total interpreter operation counts are unchanged.
    pub fn optimize(&mut self, fuse: bool) -> Result<OptimizeStats, ProjectError> {
        self.gate()?;
        let flat = self.flatten()?;

        let (after_dce, lib, dce) = banger_opt::eliminate_dead(flat, &self.library)?;
        let (flat, lib, fuse_stats) = if fuse {
            let (f, l, s) = banger_opt::fuse(&after_dce, &lib)?;
            (f, l, Some(s))
        } else {
            (after_dce, lib, None)
        };

        // Carry the drawn storage sizes over to the rebuilt design so
        // the scheduler's communication model is unchanged.
        let mut sizes = BTreeMap::new();
        for storage in &self.expanded().storages {
            sizes.entry(storage.base.clone()).or_insert(storage.size);
        }

        let rebuilt = banger_opt::flat_to_design(&self.name, &flat, &sizes)?;
        let (design, library) = self.edit();
        *design = rebuilt;
        *library = lib;
        // The rewritten design must re-pass the analyzer; a failure here
        // is an optimizer bug and is surfaced loudly rather than hidden.
        self.gate()?;
        Ok(OptimizeStats {
            dce,
            fuse: fuse_stats,
        })
    }

    /// Expands a dense-LU template task into a tiled block-LU compound
    /// with `tiles`×`tiles` blocks (see
    /// [`banger_opt::expand_dense_lu`]). The replacement is
    /// value-preserving: every floating-point operation runs in the same
    /// order on the same operands, so the factor is bit-identical.
    pub fn expand_task(
        &mut self,
        task: &str,
        tiles: usize,
    ) -> Result<banger_opt::ExpandStats, ProjectError> {
        let (design, library) = self.edit();
        Ok(banger_opt::expand_dense_lu(design, task, library, tiles)?)
    }

    /// Generates a self-contained Rust message-passing program for the
    /// scheduled design with concrete inputs.
    pub fn generate_rust(
        &self,
        schedule: &Schedule,
        inputs: &BTreeMap<String, Value>,
    ) -> Result<String, ProjectError> {
        self.gate()?;
        let f = self.flatten()?;
        Ok(banger_codegen::generate_rust(
            f,
            &self.library,
            schedule,
            inputs,
        )?)
    }

    /// Generates an MPI-style C program for the scheduled design.
    pub fn generate_c(
        &self,
        schedule: &Schedule,
        inputs: &BTreeMap<String, Value>,
    ) -> Result<String, ProjectError> {
        self.gate()?;
        let f = self.flatten()?;
        Ok(banger_codegen::generate_c(
            f,
            &self.library,
            schedule,
            inputs,
        )?)
    }
}

/// Shortens a qualified task name for Gantt labels (`Factor.fan1` ->
/// `fan1`).
pub fn short_name(qualified: &str) -> String {
    qualified
        .rsplit('.')
        .next()
        .unwrap_or(qualified)
        .to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lu::{lu_inputs, lu_program_library, solve_reference, test_system};
    use banger_taskgraph::generators;

    fn lu_project(n: usize) -> Project {
        let mut p = Project::new(format!("lu{n}"), generators::lu_hierarchical(n));
        *p.library_mut() = lu_program_library(n);
        p.set_machine(Machine::new(
            Topology::hypercube(2),
            MachineParams::default(),
        ));
        p
    }

    #[test]
    fn full_workflow() {
        let p = lu_project(3);
        // Step 1+3 done (design + programs); step 2: machine set.
        let s = p.schedule("MH").unwrap();
        let g = p.flatten().unwrap().graph.clone();
        s.validate(&g, p.machine().unwrap()).unwrap();
        // Gantt renders.
        let gantt = p.gantt(&s).unwrap();
        assert!(gantt.contains("P0"));
        assert!(gantt.contains("fan1"), "{gantt}");
        // Simulation runs.
        let sim = p.simulate(&s).unwrap();
        assert!(sim.achieved_makespan() > 0.0);
        // Real execution solves the system.
        let (a, b) = test_system(3);
        let report = p.run(&lu_inputs(&a, &b)).unwrap();
        let got = report.outputs["x"].as_array("x").unwrap();
        let want = solve_reference(&a, &b);
        for (g, w) in got.iter().zip(&want) {
            assert!((g - w).abs() < 1e-9);
        }
    }

    #[test]
    fn scheduled_execution_matches_greedy() {
        let p = lu_project(3);
        let s = p.schedule("ETF").unwrap();
        let (a, b) = test_system(3);
        let greedy = p.run(&lu_inputs(&a, &b)).unwrap();
        let pinned = p.run_scheduled(&s, &lu_inputs(&a, &b)).unwrap();
        assert_eq!(greedy.outputs, pinned.outputs);
    }

    #[test]
    fn trial_run_single_task() {
        let p = lu_project(3);
        let (a, _) = test_system(3);
        let out = p
            .trial_run(
                "fan1",
                &[("A".to_string(), Value::array(a))].into_iter().collect(),
            )
            .unwrap();
        assert!(out.outputs.contains_key("l1"));
        assert!(out.ops > 0);
        assert!(matches!(
            p.trial_run("nosuch", &BTreeMap::new()),
            Err(ProjectError::UnknownProgram(_))
        ));
    }

    #[test]
    fn trial_run_reference_mode_matches_vm() {
        let p = lu_project(3);
        let (a, _) = test_system(3);
        let inputs: BTreeMap<String, Value> =
            [("A".to_string(), Value::array(a))].into_iter().collect();
        let vm = p.trial_run("fan1", &inputs).unwrap();
        let tree = p
            .trial_run_with(
                "fan1",
                &inputs,
                InterpConfig {
                    reference: true,
                    ..Default::default()
                },
            )
            .unwrap();
        assert_eq!(vm, tree, "engines must agree outcome-for-outcome");
    }

    #[test]
    fn no_machine_error() {
        let p = Project::new("x", generators::lu_hierarchical(2));
        assert!(matches!(p.schedule("MH"), Err(ProjectError::NoMachine)));
    }

    #[test]
    fn unknown_heuristic_error() {
        let p = lu_project(2);
        assert!(matches!(
            p.schedule("MAGIC"),
            Err(ProjectError::UnknownHeuristic(_))
        ));
    }

    #[test]
    fn speedup_prediction_monotone_for_lu() {
        let p = lu_project(4);
        let pts = p
            .predict_speedup(
                &[
                    Topology::single(),
                    Topology::hypercube(1),
                    Topology::hypercube(2),
                    Topology::hypercube(3),
                ],
                MachineParams {
                    msg_startup: 0.2,
                    transmission_rate: 8.0,
                    ..MachineParams::default()
                },
            )
            .unwrap();
        assert_eq!(pts.len(), 4);
        assert_eq!(pts[0].processors, 1);
        assert!((pts[0].speedup - 1.0).abs() < 1e-9);
        for w in pts.windows(2) {
            assert!(w[1].speedup >= w[0].speedup - 1e-9, "{:?}", pts);
        }
    }

    #[test]
    fn heuristic_comparison_sorted() {
        let p = lu_project(4);
        let rows = p.compare_heuristics().unwrap();
        assert_eq!(rows.len(), 8);
        for w in rows.windows(2) {
            assert!(w[0].makespan <= w[1].makespan);
        }
        // serial must be in the list and never the best on 4 procs for LU.
        assert!(rows.iter().any(|r| r.heuristic == "serial"));
    }

    #[test]
    fn machine_recommendation_ranked() {
        let p = lu_project(4);
        let rows = p
            .recommend_machine(
                8,
                MachineParams {
                    msg_startup: 0.2,
                    transmission_rate: 8.0,
                    ..MachineParams::default()
                },
            )
            .unwrap();
        assert!(rows.len() > 4);
        for w in rows.windows(2) {
            assert!(w[0].makespan <= w[1].makespan + 1e-12);
        }
        // A parallel machine must beat the single processor for LU-4.
        assert!(rows[0].processors > 1, "{rows:?}");
    }

    #[test]
    fn optimize_preserves_lu_outcomes_exactly() {
        let (a, b) = test_system(4);
        let inputs = lu_inputs(&a, &b);
        let base = lu_project(4);
        let want = base.run(&inputs).unwrap();

        let mut fused = lu_project(4);
        let stats = fused.optimize(true).unwrap();
        assert!(stats.fuse.is_some());
        let got = fused.run(&inputs).unwrap();
        assert_eq!(want.outputs, got.outputs);
        assert_eq!(
            want.total_ops(),
            got.total_ops(),
            "fusion must preserve operation counts exactly"
        );

        // The optimised design still schedules and pins.
        let s = fused.schedule("ETF").unwrap();
        let pinned = fused.run_scheduled(&s, &inputs).unwrap();
        assert_eq!(want.outputs, pinned.outputs);
    }

    /// A single dense-LU template task: storage `a` -> task -> storage `lu`.
    fn dense_lu_project(n: usize) -> Project {
        let mut design = HierGraph::new("dense");
        let s_in = design.add_storage("a", (n * n) as f64);
        let t = design.add_task_with_program("fact", (n * n * n) as f64, "DenseLU");
        let s_out = design.add_storage("lu", (n * n) as f64);
        design.add_flow(s_in, t).unwrap();
        design.add_flow(t, s_out).unwrap();
        let mut p = Project::new("dense", design);
        p.library_mut()
            .add(banger_opt::dense_lu_program("DenseLU", "a", "lu", n));
        p.set_machine(Machine::new(
            Topology::hypercube(2),
            MachineParams::default(),
        ));
        p
    }

    #[test]
    fn expand_task_is_bit_identical_end_to_end() {
        let n = 8;
        let (a, _) = test_system(n);
        let inputs: BTreeMap<String, Value> =
            [("a".to_string(), Value::array(a))].into_iter().collect();

        let dense = dense_lu_project(n);
        let want = dense.run(&inputs).unwrap();

        let mut tiled = dense_lu_project(n);
        let stats = tiled.expand_task("fact", 2).unwrap();
        assert_eq!(stats.tiles, 2);
        tiled.optimize(false).unwrap();
        assert!(tiled.flatten().unwrap().graph.task_count() > 10);
        let got = tiled.run(&inputs).unwrap();

        let w = want.outputs["lu"].as_array("lu").unwrap();
        let g = got.outputs["lu"].as_array("lu").unwrap();
        assert_eq!(w.len(), g.len());
        for (x, y) in w.iter().zip(g.iter()) {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "tiled factor must be bit-identical"
            );
        }
    }

    /// A one-task serial design computing pi by quadrature.
    fn serial_pi_project() -> Project {
        let mut design = HierGraph::new("pi");
        let n = design.add_storage("n", 1.0);
        let t = design.add_task_with_program("quad", 800.0, "Pi");
        let out = design.add_storage("p", 1.0);
        design.add_flow(n, t).unwrap();
        design.add_flow(t, out).unwrap();
        let mut p = Project::new("pi", design);
        p.library_mut()
            .add_source(
                "task Pi
                   in n
                   out p
                   local i, x, h
                 begin
                   h := 1 / n
                   p := 0
                   for i := 1 to n do
                     x := (i - 0.5) * h
                     p := p + 4 / (1 + x * x)
                   end
                   p := p * h
                 end",
            )
            .unwrap();
        p.set_machine(Machine::new(
            Topology::fully_connected(8),
            MachineParams::default(),
        ));
        p
    }

    #[test]
    fn parallelize_task_preserves_results_and_gains_speedup() {
        let inputs: BTreeMap<String, Value> = [("n".to_string(), Value::Num(10_000.0))]
            .into_iter()
            .collect();

        let serial = serial_pi_project();
        let serial_ms = serial.schedule("MH").unwrap().makespan();
        let serial_out = serial.run(&inputs).unwrap().outputs["p"].clone();

        let mut par = serial_pi_project();
        let chunk_names = par.parallelize_task("quad", 8).unwrap();
        assert_eq!(chunk_names.len(), 8);
        assert_eq!(par.design().depth(), 2, "task became a compound");

        // Same numeric answer.
        let par_out = par.run(&inputs).unwrap().outputs["p"].clone();
        let (s, q) = (
            serial_out.as_num("p").unwrap(),
            par_out.as_num("p").unwrap(),
        );
        assert!((s - q).abs() < 1e-9, "{s} vs {q}");
        assert!((q - std::f64::consts::PI).abs() < 1e-6);

        // The scheduler can now spread the chunks: much shorter makespan.
        let par_sched = par.schedule("MH").unwrap();
        let g = par.flatten().unwrap().graph.clone();
        par_sched.validate(&g, par.machine().unwrap()).unwrap();
        assert!(
            par_sched.makespan() < 0.3 * serial_ms,
            "parallel {} vs serial {serial_ms}",
            par_sched.makespan()
        );
    }

    #[test]
    fn parallelize_task_errors() {
        let mut p = serial_pi_project();
        assert!(matches!(
            p.parallelize_task("nosuch", 4),
            Err(ProjectError::UnknownProgram(_))
        ));
        // Non-reduction task is rejected with a graph error.
        p.library_mut()
            .add_source("task Plain in n out p begin p := n end")
            .unwrap();
        let t = p.design_mut().add_task_with_program("plain", 5.0, "Plain");
        let _ = t;
        assert!(matches!(
            p.parallelize_task("plain", 4),
            Err(ProjectError::Graph(_))
        ));
    }

    #[test]
    fn traced_run_drives_observed_gantt_and_drift() {
        let p = lu_project(3);
        let s = p.schedule("MH").unwrap();
        let (a, b) = test_system(3);
        let report = p
            .run_with(
                &lu_inputs(&a, &b),
                &ExecOptions {
                    mode: ExecMode::pinned(s.clone()),
                    trace: true,
                    ..ExecOptions::default()
                },
            )
            .unwrap();
        // Same answer as the untraced path.
        let got = report.outputs["x"].as_array("x").unwrap().to_vec();
        let want = solve_reference(&a, &b);
        for (g, w) in got.iter().zip(&want) {
            assert!((g - w).abs() < 1e-9);
        }
        let trace = report.trace.expect("trace recorded");
        let observed = p.observed_gantt(&trace).unwrap();
        assert!(observed.contains("P0"), "{observed}");
        // Task labels appear iff their bars are wide enough — timing
        // dependent, so only assert the chart's observed header.
        assert!(observed.contains("observed"), "{observed}");
        let drift = p.drift_report(&s, &trace).unwrap();
        assert_eq!(
            drift.tasks.len(),
            p.flatten().unwrap().graph.task_count(),
            "every task has a drift row"
        );
        assert!(drift.predicted_makespan > 0.0);
        assert!(drift.observed_makespan > 0.0);
        let text = drift.render(|t| format!("t{}", t.0));
        assert!(text.contains("makespan"), "{text}");
    }

    #[test]
    fn codegen_paths() {
        let p = lu_project(2);
        let s = p.schedule("MH").unwrap();
        let (a, b) = test_system(2);
        let rust = p.generate_rust(&s, &lu_inputs(&a, &b)).unwrap();
        assert!(rust.contains("fn main()"));
        let c = p.generate_c(&s, &lu_inputs(&a, &b)).unwrap();
        assert!(c.contains("MPI_Init"));
    }

    #[test]
    fn weight_report_compares_static_and_measured() {
        let p = lu_project(3);
        let (a, b) = test_system(3);
        let report = p.run(&lu_inputs(&a, &b)).unwrap();
        let rows = p.weight_report(Some(&report)).unwrap();
        assert_eq!(rows.len(), p.flatten().unwrap().graph.task_count());
        for r in &rows {
            let c = r.cost.as_ref().expect("every LU task has a program");
            let m = r.measured.expect("every LU task ran");
            assert!(
                c.ops_lo <= m && (c.ops_hi.is_infinite() || m <= c.ops_hi),
                "{}: measured {m} outside [{}, {}]",
                r.task,
                c.ops_lo,
                c.ops_hi
            );
            // LU bodies are straight loops over literal bounds: the
            // abstract interpreter must predict the trial count exactly.
            assert!(c.exact, "{}: {c:?}", r.task);
            assert_eq!(c.est, m, "{}: static {} vs measured {m}", r.task, c.est);
        }
        // Without a report the measured column is absent.
        let rows = p.weight_report(None).unwrap();
        assert!(rows.iter().all(|r| r.measured.is_none()));
    }

    #[test]
    fn weight_rendering() {
        let rows = vec![
            WeightRow {
                task: "Factor.fan1".to_string(),
                program: Some("fan1".to_string()),
                drawn: 9.0,
                cost: Some(banger_calc::absint::StaticCost {
                    ops_lo: 115.0,
                    ops_hi: 115.0,
                    est: 115.0,
                    exact: true,
                }),
                measured: Some(115.0),
            },
            WeightRow {
                task: "sink".to_string(),
                program: None,
                drawn: 1.0,
                cost: None,
                measured: None,
            },
        ];
        let text = render_weight_table(&rows);
        assert!(text.contains("Factor.fan1"), "{text}");
        assert!(text.contains("(exact)"), "{text}");
        let json = weight_rows_json(&rows);
        assert!(json.contains("\"task\": \"Factor.fan1\""), "{json}");
        assert!(json.contains("\"exact\": true"), "{json}");
        assert!(json.contains("\"static\": null"), "{json}");
        assert!(json.contains("\"measured\": null"), "{json}");
        // Unbounded upper bounds serialize as null, not inf.
        let unbounded = vec![WeightRow {
            task: "t".to_string(),
            program: Some("p".to_string()),
            drawn: 1.0,
            cost: Some(banger_calc::absint::StaticCost {
                ops_lo: 2.0,
                ops_hi: f64::INFINITY,
                est: 32.0,
                exact: false,
            }),
            measured: None,
        }];
        let json = weight_rows_json(&unbounded);
        assert!(json.contains("\"ops_hi\": null"), "{json}");
        assert_eq!(weight_rows_json(&[]), "[]");
    }

    /// What a project says about itself, in comparable form: the flat
    /// graph, the findings (without program spans: a generated program
    /// has none until it is printed and parsed back), the ETF schedule
    /// and a run's outputs, prints and operation count.
    fn facts(p: &Project, inputs: &BTreeMap<String, Value>) -> [String; 4] {
        let said = |e: ProjectError| e.to_string();
        let findings: Vec<_> = p
            .diagnose()
            .iter()
            .map(|d| (d.code, d.severity, &d.location.nodes, &d.message))
            .collect();
        let run = p.run(inputs).map(|r| (r.total_ops(), r.outputs, r.prints));
        [
            format!("{:?}", p.flatten().map_err(said)),
            format!("{findings:?}"),
            format!("{:?}", p.schedule("ETF").map_err(said)),
            format!("{:?}", run.map_err(said)),
        ]
    }

    /// Appends an assignment to the body of the first program a task of
    /// `p` runs: one more operation and an implicit-local warning.
    fn edit_a_program(p: &mut Project) {
        let used = p.expanded().tasks.iter().find_map(|t| t.program.clone());
        let text = banger_calc::pretty::print_program(p.library().get(&used.unwrap()).unwrap());
        let end = text.rfind("end").unwrap();
        let edited = format!("{}stale_probe := 1\n{}", &text[..end], &text[end..]);
        p.library_mut().add_source(&edited).unwrap();
    }

    #[test]
    fn no_edit_leaves_a_stale_fact() {
        use crate::document::{parse_project, print_project};
        let bundled = |name: &str| {
            let root = env!("CARGO_MANIFEST_DIR");
            let path = format!("{root}/../../examples/projects/{name}.bang");
            parse_project(&std::fs::read_to_string(path).unwrap()).unwrap()
        };
        let (a3, b3) = test_system(3);
        let (a8, _) = test_system(8);
        let subjects: Vec<(Project, BTreeMap<String, Value>)> = vec![
            (bundled("lu3"), lu_inputs(&a3, &b3)),
            (
                bundled("heat_probe"),
                [
                    ("left".to_string(), Value::Num(100.0)),
                    ("right".to_string(), Value::Num(0.0)),
                ]
                .into(),
            ),
            (
                serial_pi_project(),
                [("n".to_string(), Value::Num(100.0))].into(),
            ),
            (
                dense_lu_project(8),
                [("a".to_string(), Value::array(a8))].into(),
            ),
        ];
        // Each returns whether it changed the project.
        type Mutator = fn(&mut Project) -> bool;
        let mutators: [(&str, Mutator); 6] = [
            ("design_mut", |p| {
                p.design_mut().add_task("stale_probe", 3.0);
                true
            }),
            ("library_mut", |p| {
                edit_a_program(p);
                true
            }),
            ("set_machine", |p| {
                p.set_machine(Machine::new(Topology::ring(3), MachineParams::default()));
                true
            }),
            ("parallelize_task", |p| {
                p.parallelize_task("quad", 4).is_ok()
            }),
            ("optimize", |p| p.optimize(true).is_ok()),
            ("expand_task", |p| p.expand_task("fact", 2).is_ok()),
        ];
        for (name, mutate) in mutators {
            let mut changed = 0;
            for (subject, inputs) in &subjects {
                let mut p = subject.clone();
                p.flatten().unwrap();
                p.diagnose();
                let before = facts(&p, inputs);
                if !mutate(&mut p) {
                    continue;
                }
                let fresh = parse_project(&print_project(&p)).unwrap();
                let after = facts(&p, inputs);
                assert_eq!(after, facts(&fresh, inputs), "{name} on {}", p.name());
                changed += usize::from(after != before);
            }
            assert!(changed > 0, "{name} changed no subject: nothing was tested");
        }
    }

    /// A design that does not flatten: the findings are those of its
    /// expansion, B020 and B021 among them, and `flatten` fails with them
    /// rather than with the bare graph error.
    #[test]
    fn a_design_that_does_not_flatten_still_diagnoses() {
        use banger_analyze::Code;
        let mut inner = HierGraph::new("inner");
        inner.add_task("w", 1.0);
        let mut design = HierGraph::new("outer");
        let c = design.add_compound("C", inner);
        design
            .bind_input(c, "x", banger_taskgraph::HierNodeId(7))
            .unwrap();
        let t = design.add_task("t", 1.0);
        design.add_arc(t, c, "x", 1.0).unwrap();
        design.add_arc(t, c, "y", 1.0).unwrap();
        let p = Project::new("unbound", design);

        let diags = p.diagnose();
        let of_expansion = banger_analyze::diagnose_expanded(&p.design().expand(), p.library());
        assert_eq!(diags, of_expansion);
        assert_eq!(diags, banger_analyze::diagnose(p.design(), p.library()));
        for code in [Code::B020, Code::B021] {
            assert!(diags.iter().any(|d| d.code == code), "{code:?}: {diags:?}");
        }
        assert!(p.design().flatten().is_err());
        match p.flatten() {
            Err(ProjectError::Invalid(findings)) => assert_eq!(findings, diags),
            other => panic!("expected the analyzer's findings, got {other:?}"),
        }
    }

    /// `Project` is shared by reference between a daemon's request
    /// handlers and cloned by every rewriting verb.
    #[test]
    fn project_is_clone_send_sync() {
        fn check<T: Clone + Send + Sync>() {}
        check::<Project>();
    }

    #[test]
    fn short_names() {
        assert_eq!(short_name("Factor.fan1"), "fan1");
        assert_eq!(short_name("plain"), "plain");
        assert_eq!(short_name("A.B.C.deep"), "deep");
    }
}
