//! The two workloads on a map-expanded tiled LU: `pipeline_large` drives
//! the whole local pipeline cold on its document, `exec_heavy` fires the
//! executor warm on a bigger one.

use crate::check::{self, Slot};
use crate::inputs::{self, Rng};
use crate::metrics::Layers;
use crate::spans::Spans;
use crate::workload::{self, expect_eq, Counts, Ctx, Inputs, OpOutcome, Workload};
use banger::{parse_project, print_project, Project};
use banger_calc::Value;
use banger_exec::Session;
use banger_machine::{Machine, MachineParams, Topology};
use std::path::PathBuf;
use std::time::Instant;

/// A dense-LU template of size `n` expanded to `tiles`×`tiles` tiles,
/// with a seeded matrix and its factors from the harness's native LU.
struct TiledLu {
    n: usize,
    project: Project,
    text: String,
    inputs: Inputs,
    want_lu: Vec<f64>,
    expand_ms: f64,
    expand_tasks: usize,
    expand_programs: usize,
}

fn tiled_lu(n: usize, tiles: usize, seed: u64) -> TiledLu {
    let mut project =
        parse_project(&inputs::dense_lu_doc(n)).expect("the dense LU document parses");
    let started = Instant::now();
    let stats = project
        .expand_task("fact", tiles)
        .expect("the dense LU template expands");
    let expand_ms = started.elapsed().as_secs_f64() * 1e3;
    let text = print_project(&project);
    let matrix = inputs::seeded_matrix(n, &mut Rng::new(seed));
    let mut want_lu = matrix.clone();
    check::native_lu(&mut want_lu, n);
    TiledLu {
        n,
        project,
        text,
        inputs: [("a".to_string(), Value::array(matrix))]
            .into_iter()
            .collect(),
        want_lu,
        expand_ms,
        expand_tasks: stats.tasks_added,
        expand_programs: stats.programs_added,
    }
}

impl TiledLu {
    /// The factors must equal the native LU's bit for bit.
    fn check_factors(&self, outputs: &Inputs) -> Result<(), String> {
        let got = outputs
            .get("lu")
            .and_then(|v| v.as_array("lu").ok())
            .ok_or("run produced no lu array")?;
        if got.len() != self.want_lu.len() {
            return Err(format!(
                "lu has {} elements, want {}",
                got.len(),
                self.want_lu.len()
            ));
        }
        match got
            .iter()
            .zip(&self.want_lu)
            .position(|(g, w)| g.to_bits() != w.to_bits())
        {
            None => Ok(()),
            Some(i) => Err(format!(
                "lu[{i}] = {:e}, native LU gives {:e}",
                got[i], self.want_lu[i]
            )),
        }
    }

    fn opt_metrics(&self, spans: &mut Spans, layers: &mut Layers) {
        layers.set("opt.expand_ms", self.expand_ms);
        layers.set("opt.expand_tasks", self.expand_tasks as f64);
        layers.set("opt.expand_programs", self.expand_programs as f64);
        // Fusion has no workload of its own; it is timed on the paper's
        // LU design at n = 9, where it folds 62 tasks into 7.
        let machine = Machine::new(Topology::hypercube(2), MachineParams::default());
        let mut after = 0;
        for _ in 0..3 {
            let mut lu9 = banger::figures::lu_project(9, machine.clone());
            after = spans.time("opt.fuse", || {
                lu9.optimize(true)
                    .expect("LU n=9 optimizes")
                    .fuse
                    .map_or(0, |f| f.tasks_after)
            });
        }
        layers.median_of(spans, "opt.fuse_ms", "opt.fuse", 1.0);
        layers.set("opt.fuse_tasks_after", after as f64);
    }
}

/// `pipeline_large`: n = 60 in 10×10 tiles of 6 — 586 tasks, a 126 KB
/// document. Small enough for 600 ops in a 20 s run, large enough that
/// parse, diagnose, ETF and run each hold a tenth of the op or more.
pub struct PipelineLarge {
    lu: TiledLu,
    doc: PathBuf,
    workers: usize,
    edges: Vec<(usize, usize)>,
    n_tasks: usize,
    counts: Counts,
}

const PIPELINE_N: usize = 60;
const PIPELINE_TILES: usize = 10;

impl PipelineLarge {
    pub fn setup(ctx: &Ctx) -> Self {
        let mut lu = tiled_lu(PIPELINE_N, PIPELINE_TILES, ctx.seed);
        let doc = ctx.dir.join("tiled_lu.bang");
        std::fs::write(&doc, &lu.text).expect("write the tiled LU document");
        let graph = &lu.project.flatten().expect("the expansion flattens").graph;
        let (edges, n_tasks) = (check::edges_of(graph), graph.task_count());
        PipelineLarge {
            lu,
            doc,
            workers: ctx.workers,
            edges,
            n_tasks,
            counts: Counts::new(),
        }
    }
}

/// What the timed part of a pipeline op hands to the untimed checks.
struct PipelineOut {
    tasks: usize,
    arcs: usize,
    diagnostics: usize,
    slots: Vec<Slot>,
    makespan: f64,
    arrival_probes: u64,
    slot_searches: u64,
    gantt: String,
    outputs: Inputs,
    total_ops: u64,
    messages: usize,
    achieved: f64,
}

impl PipelineLarge {
    fn timed(&self, spans: &mut Spans) -> Result<PipelineOut, String> {
        let text = std::fs::read_to_string(&self.doc).map_err(|e| e.to_string())?;
        let mut project = spans
            .time("document.parse", || parse_project(&text))
            .map_err(|e| e.to_string())?;
        let (tasks, arcs) = spans
            .time("taskgraph.flatten", || {
                project
                    .flatten()
                    .map(|f| (f.graph.task_count(), f.graph.edge_count()))
            })
            .map_err(|e| e.to_string())?;
        let diagnostics = spans.time("analyze.diagnose", || project.diagnose().len());
        let schedule = spans
            .time("sched.ETF", || project.schedule("ETF"))
            .map_err(|e| e.to_string())?;
        let gantt = spans
            .time("gantt.render", || project.gantt(&schedule))
            .map_err(|e| e.to_string())?;
        let report = spans
            .time("exec.cold_run", || {
                project.run_with(&self.lu.inputs, &workload::greedy(self.workers, false))
            })
            .map_err(|e| e.to_string())?;
        let sim = spans
            .time("sim.simulate", || project.simulate(&schedule))
            .map_err(|e| e.to_string())?;
        let stats = schedule.stats();
        Ok(PipelineOut {
            tasks,
            arcs,
            diagnostics,
            slots: check::slots_of(&schedule),
            makespan: schedule.makespan(),
            arrival_probes: stats.arrival_probes,
            slot_searches: stats.slot_searches,
            gantt,
            total_ops: report.total_ops(),
            outputs: report.outputs,
            messages: sim.messages.len(),
            achieved: sim.achieved_makespan(),
        })
    }

    fn check(&mut self, out: &PipelineOut) -> Result<(), String> {
        let want = |key: &str| inputs::expected(&format!("pipeline_large.{key}"));
        expect_eq("tasks", out.tasks as f64, want("tasks"))?;
        expect_eq("arcs", out.arcs as f64, want("arcs"))?;
        expect_eq("diagnostics", out.diagnostics as f64, want("diagnostics"))?;
        check::check_schedule(self.n_tasks, &self.edges, &out.slots)?;
        expect_eq("ETF makespan", out.makespan, want("etf_makespan"))?;
        expect_eq("gantt bytes", out.gantt.len() as f64, want("gantt_bytes"))?;
        self.lu.check_factors(&out.outputs)?;
        expect_eq("total_ops", out.total_ops as f64, want("total_ops"))?;
        expect_eq("sim messages", out.messages as f64, want("sim_messages"))?;
        if !(out.achieved.is_finite() && out.achieved >= out.makespan - 1e-6) {
            return Err(format!(
                "simulated makespan {} is below the predicted {}",
                out.achieved, out.makespan
            ));
        }
        let mut add = |name, v: f64| workload::add_count(&mut self.counts, name, v);
        add("taskgraph.tasks", out.tasks as f64);
        add("taskgraph.arcs", out.arcs as f64);
        add("analyze.diagnostics", out.diagnostics as f64);
        add("sched.arrival_probes", out.arrival_probes as f64);
        add("sched.slot_searches", out.slot_searches as f64);
        add("sched.makespan", out.makespan);
        add("sched.tasks", out.tasks as f64);
        add("sched.placements", out.slots.len() as f64);
        add("gantt.bytes", out.gantt.len() as f64);
        add("calc.vm_ops", out.total_ops as f64);
        add("sim.messages", out.messages as f64);
        add("document.bytes", self.lu.text.len() as f64);
        Ok(())
    }
}

impl Workload for PipelineLarge {
    fn warmup_ops(&self) -> u64 {
        2
    }

    fn traced_ops_per_second(&self) -> f64 {
        2.0
    }

    fn op(&mut self, _i: u64, spans: &mut Spans) -> OpOutcome {
        spans.enter("harness.op");
        let started = Instant::now();
        let out = self.timed(spans);
        let ns = started.elapsed().as_nanos() as u64;
        spans.exit();
        OpOutcome {
            ns,
            error: out.and_then(|o| self.check(&o)).err(),
        }
    }

    fn take_counts(&mut self) -> Counts {
        std::mem::take(&mut self.counts)
    }

    fn probes(&mut self, spans: &mut Spans, layers: &mut Layers) {
        let parse_ms = layers.median_of(spans, "document.parse_ms", "document.parse", 1.0);
        layers.set(
            "document.parse_mb_per_s",
            self.lu.text.len() as f64 / 1e6 / (parse_ms / 1e3),
        );
        layers.median_of(spans, "taskgraph.flatten_ms", "taskgraph.flatten", 1.0);
        layers.median_of(spans, "analyze.diagnose_ms", "analyze.diagnose", 1.0);
        let sched_ms = layers.median_of(spans, "sched.schedule_ms", "sched.ETF", 1.0);
        layers.set("sched.ns_per_task", sched_ms * 1e6 / self.n_tasks as f64);
        layers.median_of(spans, "gantt.render_us", "gantt.render", 1e3);
        layers.median_of(spans, "sim.simulate_ms", "sim.simulate", 1.0);

        workload::calc_probes(&self.lu.text, spans, layers);
        workload::vm_probe(
            &workload::program_sources(&inputs::dense_lu_doc(self.lu.n))[0],
            &self.lu.inputs,
            spans,
            layers,
        );
        workload::machine_probe(4, spans, layers);

        let project = &mut self.lu.project;
        let schedule = project.schedule("ETF").expect("ETF on the expansion");
        let machine = project
            .machine()
            .expect("the document names a machine")
            .clone();
        let graph = project.flatten().expect("flattens").graph.clone();
        for _ in 0..5 {
            spans.time("sched.validate", || {
                schedule
                    .validate(&graph, &machine)
                    .expect("the library accepts its own schedule")
            });
        }
        layers.median_of(spans, "sched.validate_ms", "sched.validate", 1.0);

        self.lu.opt_metrics(spans, layers);
        workload::exec_probes(
            &mut self.lu.project,
            &self.lu.inputs,
            self.workers,
            spans,
            layers,
        );
    }

    fn finish(self: Box<Self>) {}
}

/// `exec_heavy`: n = 128 in 8×8 tiles of 16, 13.7 million VM operations
/// a firing, on one executor worker.
///
/// One worker, not `min(nproc, 2)`: with two, a firing is as slow as the
/// slower of the host's two virtual CPUs, and runs of one build fell
/// into two groups, 29 ms and 38 ms, a quarter apart. The executor with
/// two workers is in the cold `run` of `pipeline_large` and, ungated, in
/// the `exec.*` probes.
pub struct ExecHeavy {
    lu: TiledLu,
    session: Session,
    /// Workers of the layer probes.
    workers: usize,
    counts: Counts,
}

const EXEC_N: usize = 128;
const EXEC_TILES: usize = 8;

impl ExecHeavy {
    pub fn setup(ctx: &Ctx) -> Self {
        let mut lu = tiled_lu(EXEC_N, EXEC_TILES, ctx.seed);
        let session = lu
            .project
            .session(&workload::greedy(1, false))
            .expect("bind the session");
        ExecHeavy {
            lu,
            session,
            workers: ctx.workers,
            counts: Counts::new(),
        }
    }
}

impl Workload for ExecHeavy {
    fn warmup_ops(&self) -> u64 {
        2
    }

    fn traced_ops_per_second(&self) -> f64 {
        2.0
    }

    fn op(&mut self, _i: u64, spans: &mut Spans) -> OpOutcome {
        spans.enter("harness.op");
        let started = Instant::now();
        let report = spans.time("exec.warm_fire", || self.session.run(&self.lu.inputs));
        let ns = started.elapsed().as_nanos() as u64;
        spans.exit();
        let error = report
            .map_err(|e| e.to_string())
            .and_then(|r| {
                self.lu.check_factors(&r.outputs)?;
                expect_eq(
                    "total_ops",
                    r.total_ops() as f64,
                    inputs::expected("exec_heavy.total_ops"),
                )?;
                workload::add_count(&mut self.counts, "calc.vm_ops", r.total_ops() as f64);
                Ok(())
            })
            .err();
        OpOutcome { ns, error }
    }

    fn take_counts(&mut self) -> Counts {
        std::mem::take(&mut self.counts)
    }

    fn probes(&mut self, spans: &mut Spans, layers: &mut Layers) {
        workload::vm_probe(
            &workload::program_sources(&inputs::dense_lu_doc(self.lu.n))[0],
            &self.lu.inputs,
            spans,
            layers,
        );
        self.lu.opt_metrics(spans, layers);
        workload::exec_probes(
            &mut self.lu.project,
            &self.lu.inputs,
            self.workers,
            spans,
            layers,
        );
    }

    fn finish(self: Box<Self>) {}
}

/// The `expected.txt` lines of the two tiled LU workloads. None of them
/// depends on the seed: the matrix decides no branch and no task count.
#[cfg(test)]
pub fn golden_numbers(ctx: &Ctx) -> String {
    let pipeline = PipelineLarge::setup(ctx);
    let out = pipeline
        .timed(&mut Spans::new(false))
        .expect("the pipeline runs on its own document");
    let mut exec = ExecHeavy::setup(ctx);
    let fired = exec
        .session
        .run(&exec.lu.inputs)
        .expect("the session fires");
    format!(
        "pipeline_large.tasks {}\npipeline_large.arcs {}\npipeline_large.diagnostics {}\n\
         pipeline_large.etf_makespan {}\npipeline_large.gantt_bytes {}\npipeline_large.total_ops {}\n\
         pipeline_large.sim_messages {}\nexec_heavy.total_ops {}\n",
        out.tasks,
        out.arcs,
        out.diagnostics,
        out.makespan,
        out.gantt.len(),
        out.total_ops,
        out.messages,
        fired.total_ops(),
    )
}
