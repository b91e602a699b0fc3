//! The threaded executor.
//!
//! ## Zero-copy dataflow
//!
//! All dataflow routing is resolved to dense integer indices before any
//! worker starts: a `Router` maps every `(task, input var)` pair to
//! either a producer's output port `(task index, output index)` or a
//! densified external-input slot, and every design output port to a
//! `(task, output index)` pair. At run time workers move [`Value`]s by
//! `clone()` — which, for arrays, is an `Arc` refcount bump (see
//! `banger_calc::value`) — through an indexed slab store
//! (`Vec<Option<Arc<Vec<Value>>>>`), never through name-keyed maps.
//! Fanning one array out to N consumers is N refcount bumps; the buffer
//! is copied only if a consumer actually writes to it (copy-on-write).
//! Each worker thread keeps one [`Vm`] frame and one input frame
//! (`Vec<Value>`) across all the task copies it executes, so the steady
//! state allocates nothing per task beyond what the programs themselves
//! compute. DESIGN.md §10 documents the routing tables and the CoW
//! contract.
//!
//! ## Two policies, one lifecycle
//!
//! Every firing is a [`Session`] firing (see [`crate::session`]); the
//! modes differ only in the loop a worker runs. A greedy firing with no
//! helper is the same loop, not a separate sequential path.
//!
//! Greedy mode has no coordinator thread and no channels. Each worker
//! owns a Chase–Lev deque ([`crossbeam::deque`]); completing a task
//! decrements successor in-degrees (atomics) and publishes newly ready
//! tasks straight into the completing worker's own deque, where idle
//! workers steal them FIFO. Ready tasks whose static weight falls below
//! [`ExecOptions::inline_below`] skip the deque entirely: they go onto
//! the worker's private stack and run on the same thread with no
//! publication and no wakeup — the small-grain regime the paper's
//! large-grain model degrades into pays no coordination at all. Workers
//! with nothing to run or steal park on a condvar behind a Dekker-style
//! `waiting` flag (`ws_park`), so publishers pay a fence plus one
//! relaxed load (no syscall) when nobody sleeps.
//!
//! Pinned mode (`pinned_run`) runs each processor's placements in start
//! order on whichever worker claims the processor, on the same plumbing:
//! the one per-firing state (`WsState`: slab, in-degree counters — the
//! first copy of a task to publish decrements its successors — sink and
//! first error), `ws_park` and the per-worker buffers. Every run and
//! trace event names the processor. DESIGN.md §12 documents the protocol.
//!
//! ## Tracing and error paths
//!
//! With [`ExecOptions::trace`] set, every mode records
//! [`TraceEvent`]s — each task copy's [`TaskRun`] with its CoW copy
//! counts and per-input byte volumes, queue/dependency waits, and
//! per-worker steal/inline counters — into per-worker buffers merged
//! into [`ExecReport::trace`]. With the flag off the hot path does no
//! trace work at all. Task bodies run under `catch_unwind` in every
//! mode, so a panicking body surfaces as [`ExecError::WorkerPanic`]
//! naming the task instead of killing the worker silently; a worker lost
//! with work in flight (an injected death) poisons the run and surfaces
//! as [`ExecError::WorkerLost`] rather than hanging the barrier. A failed
//! firing returns its first error and no report, so no trace records a
//! failure. DESIGN.md §11 documents the event model and the overhead
//! contract.

use crate::session::Session;
use banger_calc::compile::CompiledProgram;
use banger_calc::value::cow;
use banger_calc::vm::Vm;
use banger_calc::{interp, InterpConfig, Program, ProgramLibrary, RunError, Value};
use banger_sched::Schedule;
use banger_taskgraph::binding::{BindError, Bindings, Source};
use banger_taskgraph::hierarchy::Flattened;
use banger_taskgraph::parallel::panic_message;
use banger_taskgraph::{TaskGraph, TaskId};
use banger_trace::{TaskRun, Trace, TraceEvent};
use crossbeam::deque::{self, Steal};
use parking_lot::{Condvar, Mutex};
use std::collections::BTreeMap;
use std::fmt;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{fence, AtomicBool, AtomicU32, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Default [`ExecOptions::inline_below`]: ready tasks whose static
/// weight (ops estimate) is under this run on the publishing worker's
/// private stack instead of a stealable deque. Weights are in
/// interpreter ops (see DESIGN.md §9's ops-as-weight invariant), so
/// this says "don't pay cross-thread handoff for under ~1k ops".
pub const DEFAULT_INLINE_BELOW: f64 = 1024.0;

/// How tasks are dispatched to workers.
#[derive(Debug, Clone, PartialEq)]
pub enum ExecMode {
    /// Work-conserving pool with `workers` threads (0 = one per available
    /// core). A design with no stealable task runs on the caller's thread
    /// alone, whatever the count.
    Greedy {
        /// Thread count; 0 picks the host's core count
        /// ([`banger_taskgraph::parallel::host_cores`]).
        workers: usize,
    },
    /// Follow a schedule: each processor's placements run in predicted
    /// start order (duplicated copies included), and every run names its
    /// processor as its worker. The firing runs on at most one thread
    /// per processor used, capped by the host's cores. Shared by `Arc`
    /// so repeated executions of one schedule don't clone the placement
    /// lists.
    Pinned(Arc<Schedule>),
}

impl ExecMode {
    /// Pinned mode from an owned schedule.
    pub fn pinned(schedule: Schedule) -> Self {
        ExecMode::Pinned(Arc::new(schedule))
    }
}

/// Executor options.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecOptions {
    /// Dispatch mode.
    pub mode: ExecMode,
    /// Interpreter configuration for each task body.
    pub interp: InterpConfig,
    /// Record a [`Trace`] of the execution into [`ExecReport::trace`].
    /// Off by default; the untraced hot path performs no trace work.
    pub trace: bool,
    /// The weight a task needs to be worth a helper ([`Session::new`]
    /// gives a firing, greedy or pinned, helpers only if some task
    /// reaches it). Greedy mode also runs a ready task strictly below it
    /// on the publishing worker's private stack — no deque publication,
    /// no wakeup, no steal. `0.0` disables inlining (every ready task is
    /// stealable), which the differential suites use to force the
    /// cross-thread path.
    pub inline_below: f64,
    /// Fault injection for error-path tests: panic inside the body of
    /// the task with this exact name. Not part of the public contract.
    #[doc(hidden)]
    pub inject_panic: Option<String>,
    /// Fault injection for error-path tests: the worker that dequeues
    /// the task with this exact name leaves the run with the task
    /// unfinished, exercising the `WorkerLost` path. Not part of the
    /// public contract.
    #[doc(hidden)]
    pub inject_worker_death: Option<String>,
}

impl Default for ExecOptions {
    fn default() -> Self {
        ExecOptions {
            mode: ExecMode::Greedy { workers: 0 },
            interp: InterpConfig::default(),
            trace: false,
            inline_below: DEFAULT_INLINE_BELOW,
            inject_panic: None,
            inject_worker_death: None,
        }
    }
}

/// The result of executing a design.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecReport {
    /// Values of the design's external output ports.
    pub outputs: BTreeMap<String, Value>,
    /// Per-task-copy timing, in completion order.
    pub runs: Vec<TaskRun>,
    /// Threads the firing ran on, the caller included: at most
    /// [`Session::workers`], and 1 when it found the pool leased.
    pub workers: usize,
    /// Total wall-clock time.
    pub wall: Duration,
    /// `print` lines from all tasks, tagged with the producing task.
    pub prints: Vec<(TaskId, String)>,
    /// The recorded event stream, present iff [`ExecOptions::trace`] was
    /// set.
    pub trace: Option<Trace>,
}

impl ExecReport {
    /// Total interpreter operations across every task run — the "ops"
    /// half of an execution's observable outcome. Graph rewrites that
    /// claim semantic transparency (see `banger-opt`) must leave this
    /// exactly unchanged alongside [`ExecReport::outputs`].
    pub fn total_ops(&self) -> u64 {
        self.runs.iter().map(|r| r.ops).sum()
    }

    /// Measured operation count per task (max over copies), usable as
    /// calibrated weights for re-scheduling.
    pub fn measured_weights(&self, n_tasks: usize) -> Vec<f64> {
        let mut w = vec![0.0f64; n_tasks];
        for r in &self.runs {
            w[r.task.index()] = w[r.task.index()].max(r.ops as f64);
        }
        w
    }
}

/// Executor failures.
#[derive(Debug, Clone, PartialEq)]
pub enum ExecError {
    /// A task node carries no program name.
    NoProgram(String),
    /// A program name is not in the library.
    UnknownProgram(String),
    /// A program input has no producing arc and no external input.
    UnboundInput {
        /// Task name.
        task: String,
        /// The unbound variable.
        var: String,
    },
    /// A producing task does not declare the output an arc carries.
    MissingArcValue {
        /// Producer task name.
        producer: String,
        /// Arc label / variable.
        var: String,
    },
    /// The interpreter failed inside a task.
    Run {
        /// Task name.
        task: String,
        /// The underlying error.
        error: RunError,
    },
    /// The graph is cyclic.
    Cyclic,
    /// Pinned mode: the schedule does not cover the graph.
    BadSchedule(String),
    /// A task body panicked; caught and attributed instead of killing
    /// the worker thread silently.
    WorkerPanic {
        /// Task whose body panicked.
        task: String,
        /// The panic payload, if it was a string.
        message: String,
    },
    /// A worker was lost from the run with tasks still outstanding (its
    /// dequeued work never completed), so the run can no longer drain.
    /// Raised only by an injected death ([`ExecOptions::inject_worker_death`])
    /// or by a worker loop that unwinds outside a task body (a bug).
    WorkerLost(String),
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::NoProgram(t) => write!(f, "task {t:?} has no attached program"),
            ExecError::UnknownProgram(p) => write!(f, "program {p:?} not found in library"),
            ExecError::UnboundInput { task, var } => {
                write!(
                    f,
                    "task {task:?}: input {var:?} has no producer and no external value"
                )
            }
            ExecError::MissingArcValue { producer, var } => {
                write!(
                    f,
                    "task {producer:?} did not produce output {var:?} required by an arc"
                )
            }
            ExecError::Run { task, error } => write!(f, "task {task:?} failed: {error}"),
            ExecError::Cyclic => write!(f, "design graph is cyclic"),
            ExecError::BadSchedule(m) => write!(f, "bad schedule for pinned execution: {m}"),
            ExecError::WorkerPanic { task, message } => {
                write!(f, "task {task:?} panicked: {message}")
            }
            ExecError::WorkerLost(m) => write!(f, "executor workers lost: {m}"),
        }
    }
}

impl std::error::Error for ExecError {}

/// Published outputs of one task: values in the producing program's
/// `output_slots` (declaration) order, shared between workers by `Arc`.
type TaskOutputs = Arc<Vec<Value>>;

/// Where one task input comes from, resolved once at routing time.
#[derive(Debug, Clone, Copy)]
enum Feed {
    /// Output port `out` of task `src` (an index into its published
    /// output vector).
    Arc { src: TaskId, out: u32 },
    /// Densified external-input slot `idx` (bound per firing by
    /// [`Router::bind`]).
    External(u32),
}

/// Everything one task needs to run, with all names resolved away.
/// Owns `Arc` handles into the library (no borrows), so a [`Router`]
/// can outlive the `execute` call that built it — the persistent
/// [`crate::session::Session`] keeps one across thousands of firings.
struct TaskRoute {
    /// Pre-resolved bytecode (shared with the library; workers bump the
    /// refcount, never re-compile).
    compiled: Arc<CompiledProgram>,
    /// The AST, for reference-interpreter runs.
    prog: Arc<Program>,
    /// One feed per program input, in `input_slots` (declaration) order —
    /// the positional contract of [`Vm::run_dense`].
    feeds: Vec<Feed>,
}

/// Dense routing tables for a design: built once, read by every worker
/// across any number of firings. `(task, var)` string pairs are resolved
/// by [`Bindings::resolve`] and copied here beside the program handles;
/// structural failures (`Cyclic`, `NoProgram`, `MissingArcValue`)
/// surface at build time, and per-firing value failures
/// (`UnboundInput`) at [`Router::bind`] time — both before any task
/// runs.
pub(crate) struct Router {
    routes: Vec<TaskRoute>,
    /// External-input slots in first-reference order: `(variable, name
    /// of the first task that reads it)` — the task named by an
    /// `UnboundInput` error when a firing omits the variable.
    ext_slots: Vec<(String, String)>,
    /// Design output ports: `(port var, producing task, output index)`.
    out_ports: Vec<(String, TaskId, usize)>,
}

impl Router {
    pub(crate) fn build(design: &Flattened, lib: &ProgramLibrary) -> Result<Self, ExecError> {
        let g = &design.graph;
        if !g.is_dag() {
            return Err(ExecError::Cyclic);
        }
        // Which arc supplies which input is `taskgraph::binding`'s rule;
        // what is left here is the copy into dense feeds beside the
        // compiled-program handles.
        let bindings = Bindings::resolve(design, |name| lib.interface(name));
        bindings.check().map_err(|e| match e {
            BindError::NoProgram(task) => ExecError::NoProgram(task.clone()),
            BindError::UnknownProgram(name) => ExecError::UnknownProgram(name.clone()),
            BindError::MissingOutput { producer, var } => ExecError::MissingArcValue {
                producer: producer.clone(),
                var: var.clone(),
            },
        })?;
        const CHECKED: &str = "Bindings::check passed";

        let routes = g
            .tasks()
            .map(|(t, task)| {
                let name = task.program.as_deref().expect(CHECKED);
                let feeds = bindings
                    .row(t)
                    .expect(CHECKED)
                    .iter()
                    .map(|source| match *source {
                        Source::Arc { edge, src } => Feed::Arc {
                            src,
                            out: bindings.out_index(edge).expect(CHECKED) as u32,
                        },
                        Source::External(slot) => Feed::External(slot as u32),
                    });
                TaskRoute {
                    compiled: lib.get_compiled(name).expect(CHECKED),
                    prog: lib.get_shared(name).expect(CHECKED),
                    feeds: feeds.collect(),
                }
            })
            .collect();
        let ext_slots: Vec<(String, String)> = bindings
            .externals()
            .iter()
            .map(|slot| (slot.var.clone(), g.task(slot.first_reader).name.clone()))
            .collect();
        let out_ports = design
            .outputs
            .iter()
            .enumerate()
            .map(|(i, port)| {
                let (t, out) = bindings.port(i).expect(CHECKED);
                (port.var.clone(), t, out)
            })
            .collect();
        Ok(Router {
            routes,
            ext_slots,
            out_ports,
        })
    }

    /// Values for every external-input slot, in slot order, from one
    /// firing's `external` map; extra keys are ignored. Slots are looked
    /// up in first-reference order, so the first miss is `UnboundInput`
    /// naming the first omitted variable and the first task that reads it.
    pub(crate) fn bind(&self, external: &BTreeMap<String, Value>) -> Result<Vec<Value>, ExecError> {
        self.ext_slots
            .iter()
            .map(|(var, task)| {
                external
                    .get(var)
                    .cloned()
                    .ok_or_else(|| ExecError::UnboundInput {
                        task: task.clone(),
                        var: var.clone(),
                    })
            })
            .collect()
    }
}

/// Executes the flattened design. `external` supplies values for the
/// design's input ports (by variable name); the report's `outputs` carries
/// the output-port values. A run in either mode is a [`Session`] fired
/// once — the same worker loop, barrier and report every later firing
/// would get — so one-shot and persistent execution cannot disagree.
pub fn execute(
    design: &Flattened,
    lib: &ProgramLibrary,
    external: &BTreeMap<String, Value>,
    options: &ExecOptions,
) -> Result<ExecReport, ExecError> {
    Session::new(design, lib, options)?.run(external)
}

/// Everything a worker needs, bundled so dispatch code stays readable.
/// One `Ctx` lives for one firing; the session rebuilds it per firing
/// around its long-lived graph, router and state.
pub(crate) struct Ctx<'a> {
    pub(crate) g: &'a TaskGraph,
    pub(crate) router: &'a Router,
    pub(crate) options: &'a ExecOptions,
    pub(crate) ws: &'a WsState,
    /// This firing's external-input values, in `Router` slot order.
    pub(crate) externals: &'a [Value],
    pub(crate) epoch: Instant,
}

/// Runs one task copy with the panic boundary every mode shares: a
/// panicking task body (or a broken internal invariant inside
/// [`run_one`]) becomes [`ExecError::WorkerPanic`] naming the task,
/// instead of unwinding through the worker thread and taking it out of
/// the pool. `Ok` carries [`WsState::publish`]'s verdict: whether this
/// copy was the first of `t` to publish. The worker an
/// injected death ([`ExecOptions::inject_worker_death`]) picks leaves `t`
/// unfinished and reports it lost.
fn run_one_caught(ctx: &Ctx<'_>, w: &mut WsWorker, t: TaskId) -> Result<bool, ExecError> {
    let name = &ctx.g.task(t).name;
    if ctx.options.inject_worker_death.as_ref() == Some(name) {
        let lost = format!("worker {} died with task {name:?} in flight", w.me);
        return Err(ExecError::WorkerLost(lost));
    }
    std::panic::catch_unwind(AssertUnwindSafe(|| run_one(ctx, w, t))).unwrap_or_else(|payload| {
        Err(ExecError::WorkerPanic {
            task: name.clone(),
            message: panic_message(&*payload),
        })
    })
}

/// One worker executing one task copy; shared by both modes. `w.vm` is
/// the worker's own bytecode frame and `w.frame` its input staging vector,
/// both reused across every task copy it executes — programs come
/// pre-compiled via the router, inputs arrive as `Arc` bumps from the slab
/// store, so the steady state performs no compilation, no string handling,
/// and no per-task allocation. The run record and prints land in `w`'s
/// buffers, and a clone of the record in its trace; only when tracing
/// are input volumes and CoW counter deltas computed.
fn run_one(ctx: &Ctx<'_>, w: &mut WsWorker, t: TaskId) -> Result<bool, ExecError> {
    let route = &ctx.router.routes[t.index()];
    let tracing = ctx.options.trace;

    // Gather: one lock hold, one Arc bump per input.
    w.frame.clear();
    {
        let lock = ctx.ws.outputs.lock();
        for feed in &route.feeds {
            w.frame.push(match *feed {
                Feed::Arc { src, out } => {
                    let produced = lock[src.index()]
                        .as_ref()
                        .expect("predecessor must have completed");
                    produced[out as usize].clone()
                }
                Feed::External(i) => ctx.externals[i as usize].clone(),
            });
        }
    }

    if let Some(pat) = &ctx.options.inject_panic {
        if ctx.g.task(t).name == *pat {
            panic!("injected fault: inject_panic matched task {pat:?}");
        }
    }

    // Trace preamble: per-input byte volumes (an f64 element is 8 bytes)
    // and the worker thread's cumulative CoW counters, read again after
    // the body so the delta attributes copies to this task.
    let trace_pre = tracing.then(|| {
        let bytes_in: Vec<(String, u64)> = route
            .compiled
            .input_names()
            .zip(w.frame.iter())
            .map(|(n, v)| (n.to_string(), (v.volume() * 8.0) as u64))
            .collect();
        (bytes_in, cow::counters())
    });

    let start = ctx.epoch.elapsed();
    let (dense_outputs, prints, ops) = if ctx.options.interp.reference {
        // Reference engine: rebuild the name-keyed view the tree-walker
        // expects. Cold path by construction (`banger trial --reference`).
        let inputs: BTreeMap<String, Value> = route
            .compiled
            .input_names()
            .map(str::to_string)
            .zip(w.frame.iter().cloned())
            .collect();
        let mut outcome =
            interp::run_with(&route.prog, &inputs, ctx.options.interp).map_err(|error| {
                ExecError::Run {
                    task: ctx.g.task(t).name.clone(),
                    error,
                }
            })?;
        let dense = route
            .compiled
            .output_names()
            .map(|n| {
                outcome
                    .outputs
                    .remove(n)
                    .expect("interpreter returns every declared output")
            })
            .collect();
        (dense, outcome.prints, outcome.ops)
    } else {
        let outcome =
            w.vm.run_dense(&route.compiled, &w.frame, ctx.options.interp)
                .map_err(|error| ExecError::Run {
                    task: ctx.g.task(t).name.clone(),
                    error,
                })?;
        (outcome.outputs, outcome.prints, outcome.ops)
    };
    let run = TaskRun {
        task: t,
        worker: w.me,
        start,
        finish: ctx.epoch.elapsed(),
        ops,
    };
    let first = ctx.ws.publish(t, dense_outputs);
    if let Some((bytes_in, (copies0, elems0))) = trace_pre {
        let (copies1, elems1) = cow::counters();
        w.sink.events.push(TraceEvent::TaskFinish {
            run: run.clone(),
            cow_copies: copies1 - copies0,
            cow_bytes: (elems1 - elems0) * 8,
            bytes_in,
        });
    }
    w.sink.prints.extend(prints.into_iter().map(|s| (t, s)));
    w.sink.runs.push(run);
    Ok(first)
}

/// A ready task travelling through the work-stealing deques, stamped
/// with its publication time iff tracing (for `QueueWait` attribution;
/// inline tasks never queue, so they carry no stamp).
pub(crate) type WsItem = (TaskId, Option<Duration>);

/// Completed work: a worker's own buffers, appended at each flush to the
/// firing's shared sink ([`WsState`]), which [`WsState::finish`] takes.
#[derive(Default)]
struct WsSink {
    runs: Vec<TaskRun>,
    prints: Vec<(TaskId, String)>,
    events: Vec<TraceEvent>,
}

impl WsSink {
    fn is_empty(&self) -> bool {
        self.runs.is_empty() && self.prints.is_empty() && self.events.is_empty()
    }

    /// Moves `other`'s records to the end of this sink's; `other` keeps
    /// its allocations.
    fn append(&mut self, other: &mut WsSink) {
        self.runs.append(&mut other.runs);
        self.prints.append(&mut other.prints);
        self.events.append(&mut other.events);
    }
}

/// How a firing's workers find their tasks — the one thing the two
/// [`ExecMode`]s do differently.
pub(crate) enum Policy {
    /// Any worker runs any ready task: one stealer handle per worker
    /// deque, visible to every worker.
    Greedy(Vec<deque::Stealer<WsItem>>),
    /// Each processor's placements in start order, on whichever worker
    /// claims the processor.
    Pinned {
        queues: Queues,
        /// The next queue to claim this firing. It publishes nothing
        /// (the queues never change), so `Relaxed` suffices.
        next: AtomicUsize,
    },
}

/// A pinned firing's queues: `(processor, its placements' tasks in
/// predicted start order)` for each processor with a placement.
pub(crate) type Queues = Vec<(usize, Vec<TaskId>)>;

/// The queues of [`Policy::Pinned`] for `schedule`, refused as
/// `BadSchedule` naming the task with the lowest id when some task has no
/// placement.
pub(crate) fn pinned_queues(g: &TaskGraph, schedule: &Schedule) -> Result<Queues, ExecError> {
    let mut placed = vec![false; g.task_count()];
    let mut order = Vec::with_capacity(schedule.placements().len());
    for p in schedule.placements() {
        if let Some(seen) = placed.get_mut(p.task.index()) {
            *seen = true;
        }
        order.push((p.proc.index(), p.start, p.task));
    }
    if let Some(t) = g.task_ids().find(|t| !placed[t.index()]) {
        return Err(ExecError::BadSchedule(format!(
            "task {} is not placed",
            g.task(t).name
        )));
    }
    order.sort_by(|a, b| (a.0.cmp(&b.0).then(a.1.total_cmp(&b.1))).then(a.2.cmp(&b.2)));
    let queues = order.chunk_by(|a, b| a.0 == b.0);
    Ok(queues
        .map(|q| (q[0].0, q.iter().map(|p| p.2).collect()))
        .collect())
}

/// The executor's shared per-firing state, in both modes: the policy,
/// the slab of task outputs, readiness counters, the one wait/wake
/// protocol, the poison flag, the result sink and the first error. A
/// session keeps one for its whole lifetime and re-arms it per firing.
pub(crate) struct WsState {
    policy: Policy,
    /// Published task outputs, addressed as `outputs[task][output index]`
    /// via the [`Router`] — no string keys. `outputs[t]` is `Some` once
    /// any copy of `t` completed. Nobody waits on it: readiness is
    /// `indeg`.
    outputs: Mutex<Vec<Option<TaskOutputs>>>,
    /// Remaining-predecessor count per task; the `fetch_sub` that hits
    /// zero owns publication of that task.
    indeg: Vec<AtomicU32>,
    /// Tasks not yet completed this firing; zero ends a greedy firing.
    remaining: AtomicUsize,
    /// Workers inside `ws_park` — the Dekker flag publishers check
    /// (fence + relaxed load, no syscall) before touching the condvar.
    waiting: AtomicUsize,
    coord: Mutex<()>,
    cv: Condvar,
    /// Set by the first failure: every worker leaves the firing.
    poisoned: AtomicBool,
    first_error: Mutex<Option<ExecError>>,
    sink: Mutex<WsSink>,
}

impl WsState {
    pub(crate) fn new(g: &TaskGraph, policy: Policy) -> Self {
        WsState {
            policy,
            outputs: Mutex::new(vec![None; g.task_count()]),
            indeg: g
                .task_ids()
                .map(|t| AtomicU32::new(g.in_degree(t) as u32))
                .collect(),
            remaining: AtomicUsize::new(g.task_count()),
            waiting: AtomicUsize::new(0),
            coord: Mutex::new(()),
            cv: Condvar::new(),
            poisoned: AtomicBool::new(false),
            first_error: Mutex::new(None),
            sink: Mutex::new(WsSink::default()),
        }
    }

    /// Rearms per-firing state for session reuse: drops every published
    /// output (the slab keeps its allocation), re-counts in-degrees,
    /// un-poisons. The sink is empty already: [`WsState::finish`] took it.
    /// Callers must ensure every worker has left the previous firing first.
    pub(crate) fn reset(&self, g: &TaskGraph) {
        self.outputs.lock().fill(None);
        for t in g.task_ids() {
            self.indeg[t.index()].store(g.in_degree(t) as u32, Ordering::Relaxed);
        }
        self.remaining.store(g.task_count(), Ordering::SeqCst);
        if let Policy::Pinned { next, .. } = &self.policy {
            next.store(0, Ordering::Relaxed);
        }
        self.poisoned.store(false, Ordering::SeqCst);
        *self.first_error.lock() = None;
    }

    /// Publishes one copy's outputs; true iff it was the first copy of
    /// `t` to do so (pinned schedules may duplicate a task, and only the
    /// first publication may release its successors).
    fn publish(&self, t: TaskId, vals: Vec<Value>) -> bool {
        let mut slab = self.outputs.lock();
        let first = slab[t.index()].is_none();
        if first {
            slab[t.index()] = Some(Arc::new(vals));
        }
        first
    }

    /// Ends a firing once every worker has flushed: the first recorded
    /// error, or the caller-facing report — runs and prints in stable
    /// orders, output-port values out of the slab, wall clock, the
    /// `workers` it ran on, optional trace. The trace's rows are 1 + the
    /// highest worker index that ran or recorded anything: threads that
    /// participated, greedy, and processors, pinned, where the summary
    /// counts the `workers` threads instead.
    pub(crate) fn finish(&self, ctx: &Ctx<'_>, workers: usize) -> Result<ExecReport, ExecError> {
        let mut sink = std::mem::take(&mut *self.sink.lock());
        if let Some(e) = self.first_error.lock().take() {
            return Err(e);
        }
        sink.runs
            .sort_by(|a, b| a.finish.cmp(&b.finish).then(a.task.cmp(&b.task)));
        sink.prints.sort_by_key(|a| a.0);
        let mut outputs = BTreeMap::new();
        {
            let slab = self.outputs.lock();
            for (var, t, out) in &ctx.router.out_ports {
                let vals = slab[t.index()].as_ref().expect("all tasks completed");
                outputs.insert(var.clone(), vals[*out].clone());
            }
        }
        let wall = ctx.epoch.elapsed();
        let trace = ctx.options.trace.then(|| {
            let ran = sink.runs.iter().map(|r| r.worker);
            let hi = ran.chain(sink.events.iter().map(|e| e.worker())).max();
            let mut trace = Trace::from_events(sink.events, hi.unwrap_or(0) + 1, wall);
            if let Policy::Pinned { .. } = self.policy {
                trace.threads = workers;
            }
            trace
        });
        Ok(ExecReport {
            outputs,
            runs: sink.runs,
            workers,
            wall,
            prints: sink.prints,
            trace,
        })
    }
}

/// One worker's private half of the runtime: its deque, its unstealable
/// small-task stack, and its reusable Vm frame and buffers. A session
/// keeps these alive across firings so the warm path allocates nothing.
pub(crate) struct WsWorker {
    me: usize,
    dq: deque::Worker<WsItem>,
    /// Ready tasks below the inline threshold: run by this worker,
    /// LIFO, never published, never woken for.
    local: Vec<TaskId>,
    vm: Vm,
    frame: Vec<Value>,
    sink: WsSink,
    steals: u64,
    inlined: u64,
}

impl WsWorker {
    pub(crate) fn new(me: usize, dq: deque::Worker<WsItem>) -> Self {
        WsWorker {
            me,
            dq,
            local: Vec::new(),
            vm: Vm::new(),
            frame: Vec::new(),
            sink: WsSink::default(),
            steals: 0,
            inlined: 0,
        }
    }
}

/// Next task for `w`: own small-task stack (LIFO, counts as inline),
/// then own deque (LIFO), then steal FIFO from the others — retrying
/// the round while any victim reports a racing `Retry`.
fn ws_next(stealers: &[deque::Stealer<WsItem>], w: &mut WsWorker) -> Option<WsItem> {
    if let Some(t) = w.local.pop() {
        w.inlined += 1;
        return Some((t, None));
    }
    if let Some(item) = w.dq.pop() {
        return Some(item);
    }
    let n = stealers.len();
    loop {
        let mut retry = false;
        for k in 1..n {
            match stealers[(w.me + k) % n].steal() {
                Steal::Success(item) => {
                    w.steals += 1;
                    return Some(item);
                }
                Steal::Retry => retry = true,
                Steal::Empty => {}
            }
        }
        if !retry {
            return None;
        }
    }
}

/// Wakes parked workers if any might be sleeping. Pairs with
/// `ws_park`: the publisher orders its write (a deque push, an
/// in-degree or `remaining` decrement) before the `waiting` read, the
/// parker orders its `waiting` raise before re-checking — one of the two
/// must see the other.
fn ws_signal(ws: &WsState) {
    fence(Ordering::SeqCst);
    if ws.waiting.load(Ordering::Relaxed) > 0 {
        let _coord = ws.coord.lock();
        ws.cv.notify_all();
    }
}

/// The executor's one wait, for a worker with nothing to run: flushes
/// its records (so a stalled firing still shows them), then parks it on
/// the firing's condvar until the firing poisons (false) or `go` decides
/// — `Some(true)` there is something to do, `Some(false)` the firing is
/// over. `waiting` is raised under the coord lock and before the first
/// check; see [`ws_signal`] for the pairing.
fn ws_park(ctx: &Ctx<'_>, w: &mut WsWorker, go: impl Fn() -> Option<bool>) -> bool {
    ws_flush(ctx, w);
    let mut coord = ctx.ws.coord.lock();
    ctx.ws.waiting.fetch_add(1, Ordering::SeqCst);
    let decided = loop {
        if ctx.ws.poisoned.load(Ordering::SeqCst) {
            break false;
        }
        if let Some(decided) = go() {
            break decided;
        }
        ctx.ws.cv.wait(&mut coord);
    };
    ctx.ws.waiting.fetch_sub(1, Ordering::SeqCst);
    decided
}

/// True iff a ready task of static weight `weight` goes into a stealable
/// deque rather than onto the publishing worker's private stack: not
/// below [`ExecOptions::inline_below`]. [`ws_push`] follows this rule,
/// and [`Session::new`] gives a session helpers only if some task passes
/// it.
pub(crate) fn stealable(weight: f64, options: &ExecOptions) -> bool {
    weight.partial_cmp(&options.inline_below) != Some(std::cmp::Ordering::Less)
}

/// Hands the ready task `t` to `w`: into its own deque for thieves when
/// [`stealable`], else onto its private stack. True iff it became
/// stealable (the caller owes a [`ws_signal`] per batch).
fn ws_push(ctx: &Ctx<'_>, w: &mut WsWorker, t: TaskId) -> bool {
    let stealable = stealable(ctx.g.task(t).weight, ctx.options);
    if stealable {
        let stamp = ctx.options.trace.then(|| ctx.epoch.elapsed());
        w.dq.push((t, stamp));
    } else {
        w.local.push(t);
    }
    stealable
}

/// Records the first error, poisons the firing, and wakes everyone so
/// the firing unwinds instead of hanging.
fn ws_fail(ctx: &Ctx<'_>, e: ExecError) {
    ctx.ws.first_error.lock().get_or_insert(e);
    ctx.ws.poisoned.store(true, Ordering::SeqCst);
    let _coord = ctx.ws.coord.lock();
    ctx.ws.cv.notify_all();
}

/// Merges `w`'s buffered results into the shared sink and emits the
/// per-worker steal/inline counters as a [`TraceEvent::WorkerStats`]
/// when tracing. Called whenever the worker goes idle or exits, so
/// partially completed firings still surface their records.
fn ws_flush(ctx: &Ctx<'_>, w: &mut WsWorker) {
    if ctx.options.trace && (w.steals > 0 || w.inlined > 0) {
        w.sink.events.push(TraceEvent::WorkerStats {
            worker: w.me,
            at: ctx.epoch.elapsed(),
            steals: w.steals,
            inline_tasks: w.inlined,
        });
    }
    w.steals = 0;
    w.inlined = 0;
    if !w.sink.is_empty() {
        ctx.ws.sink.lock().append(&mut w.sink);
    }
}

/// One greedy worker's firing loop: run, publish, steal, park. Returns
/// when the firing completes or poisons; [`ws_fire`] cleans up whatever
/// private state is left behind.
fn ws_run(ctx: &Ctx<'_>, stealers: &[deque::Stealer<WsItem>], w: &mut WsWorker) {
    loop {
        if ctx.ws.poisoned.load(Ordering::SeqCst) {
            return;
        }
        let Some((t, enqueued)) = ws_next(stealers, w) else {
            let more = ws_park(ctx, w, || {
                if ctx.ws.remaining.load(Ordering::SeqCst) == 0 {
                    Some(false)
                } else {
                    stealers.iter().any(|s| !s.is_empty()).then_some(true)
                }
            });
            if !more {
                return;
            }
            continue;
        };
        if let Some(since) = enqueued {
            w.sink.events.push(TraceEvent::QueueWait {
                task: t,
                worker: w.me,
                since,
                until: ctx.epoch.elapsed(),
            });
        }
        match run_one_caught(ctx, w, t) {
            Ok(_) => {
                // Release successors: the decrement that hits zero owns
                // the task — one wakeup check per batch, no coordinator
                // round trip.
                let mut pushed = false;
                for s in ctx.g.successors(t) {
                    if ctx.ws.indeg[s.index()].fetch_sub(1, Ordering::AcqRel) == 1 {
                        pushed |= ws_push(ctx, w, s);
                    }
                }
                if pushed {
                    ws_signal(ctx.ws);
                }
                // Completion accounting, after publication so a zero
                // here means the firing is fully drained.
                if ctx.ws.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
                    ws_signal(ctx.ws);
                    return;
                }
            }
            Err(e) => {
                ws_fail(ctx, e);
                return;
            }
        }
    }
}

/// Seeds the roots into worker 0's private stack / deque before a greedy
/// firing starts; a pinned firing starts at its queues' heads.
pub(crate) fn ws_seed(ctx: &Ctx<'_>, w: &mut WsWorker) {
    if let Policy::Pinned { .. } = ctx.ws.policy {
        return;
    }
    let mut pushed = false;
    for t in ctx.g.task_ids() {
        if ctx.g.in_degree(t) == 0 {
            pushed |= ws_push(ctx, w, t);
        }
    }
    if pushed {
        ws_signal(ctx.ws);
    }
}

/// One worker's part in one firing, caller and helpers alike: the
/// policy's worker loop under a panic boundary, then flush and clean up.
/// An unwind (defence in depth: task bodies have their own boundary)
/// poisons the run here and never reaches the thread, so a pool thread
/// outlives it.
///
/// The clean-up is what keeps a poisoned firing from wedging the next
/// barrier: a task in flight when the run poisons finishes *late* and
/// pushes its successors into this worker's own deque after everyone
/// else has given up. Every worker therefore empties its own deque on
/// the way out — nobody else can be relied on to — so all deques are
/// empty once every worker has left the firing.
pub(crate) fn ws_fire(ctx: &Ctx<'_>, w: &mut WsWorker) {
    let died = std::panic::catch_unwind(AssertUnwindSafe(|| match &ctx.ws.policy {
        Policy::Greedy(stealers) => ws_run(ctx, stealers, w),
        Policy::Pinned { queues, next } => pinned_run(ctx, queues, next, w),
    }))
    .is_err();
    ws_flush(ctx, w);
    w.local.clear();
    while w.dq.pop().is_some() {}
    if died {
        ws_fail(
            ctx,
            ExecError::WorkerLost(format!("worker {} thread died mid-run", w.me)),
        );
    }
}

/// A processor a pinned worker has claimed: its placements not yet run,
/// head first.
struct Claim<'a> {
    proc: usize,
    rest: &'a [TaskId],
}

/// The pinned policy: `w` claims processors from the cursor `next` and
/// runs whichever claimed processor's head is ready, as that processor
/// (`w.me`). A head is ready when every predecessor task has published
/// (`indeg` at zero), and only the first copy of a task to publish
/// releases the successors. `w` claims another processor only when none
/// of its heads is ready, and parks only when, besides, none is left to
/// claim. When tracing, the time from finding no ready head until running
/// one is the worker's wait, recorded against the head it runs: a thread
/// waits once, however many of its processors are blocked meanwhile.
///
/// Readiness only grows, so a state in which no worker can run a head is
/// one in which a thread per processor would be blocked too: the firing
/// ends where a thread-per-processor run would, with any number of
/// workers, the caller alone included.
fn pinned_run(ctx: &Ctx<'_>, queues: &Queues, next: &AtomicUsize, w: &mut WsWorker) {
    let now = || ctx.options.trace.then(|| ctx.epoch.elapsed());
    let ready = |c: &Claim| ctx.ws.indeg[c.rest[0].index()].load(Ordering::SeqCst) == 0;
    let mut claims: Vec<Claim> = Vec::new();
    let mut idle = None;
    while !ctx.ws.poisoned.load(Ordering::SeqCst) {
        let Some(k) = claims.iter().position(ready) else {
            idle = idle.or_else(now);
            match queues.get(next.fetch_add(1, Ordering::Relaxed)) {
                Some((proc, rest)) => claims.push(Claim { proc: *proc, rest }),
                None if claims.is_empty() => return,
                None if !ws_park(ctx, w, || claims.iter().any(ready).then_some(true)) => return,
                None => {}
            }
            continue;
        };
        let claim = &mut claims[k];
        let t = claim.rest[0];
        w.me = claim.proc;
        if let Some(since) = idle.take() {
            let until = ctx.epoch.elapsed();
            if until > since {
                w.sink.events.push(TraceEvent::QueueWait {
                    task: t,
                    worker: w.me,
                    since,
                    until,
                });
            }
        }
        match run_one_caught(ctx, w, t) {
            Ok(first) => {
                let released =
                    |s: &TaskId| ctx.ws.indeg[s.index()].fetch_sub(1, Ordering::AcqRel) == 1;
                if first && ctx.g.successors(t).filter(released).count() > 0 {
                    ws_signal(ctx.ws);
                }
            }
            Err(e) => return ws_fail(ctx, e),
        }
        claim.rest = &claim.rest[1..];
        if claim.rest.is_empty() {
            claims.swap_remove(k);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::tests::pool_to_myself;
    use banger_machine::{Machine, MachineParams, Topology};
    use banger_taskgraph::hierarchy::HierGraph;

    /// A three-stage pipeline design:
    ///   a(in) -> double -> buf(storage) -> addone -> x(out)
    fn pipeline() -> (Flattened, ProgramLibrary) {
        let mut h = HierGraph::new("pipe");
        let a = h.add_storage("a", 1.0);
        let t1 = h.add_task_with_program("double", 2.0, "Double");
        let buf = h.add_storage("d", 1.0);
        let t2 = h.add_task_with_program("addone", 2.0, "AddOne");
        let x = h.add_storage("x", 1.0);
        h.add_flow(a, t1).unwrap();
        h.add_flow(t1, buf).unwrap();
        h.add_flow(buf, t2).unwrap();
        h.add_flow(t2, x).unwrap();
        let f = h.flatten().unwrap();
        let mut lib = ProgramLibrary::new();
        lib.add_source("task Double in a out d begin d := a * 2 end")
            .unwrap();
        lib.add_source("task AddOne in d out x begin x := d + 1 end")
            .unwrap();
        (f, lib)
    }

    fn ext(pairs: &[(&str, Value)]) -> BTreeMap<String, Value> {
        pairs
            .iter()
            .map(|(k, v)| (k.to_string(), v.clone()))
            .collect()
    }

    #[test]
    fn pipeline_computes() {
        let (f, lib) = pipeline();
        let report = execute(
            &f,
            &lib,
            &ext(&[("a", Value::Num(5.0))]),
            &ExecOptions::default(),
        )
        .unwrap();
        assert_eq!(report.outputs["x"], Value::Num(11.0));
        assert_eq!(report.runs.len(), 2);
        assert!(report.runs.iter().all(|r| r.ops > 0));
    }

    #[test]
    fn single_worker_matches_parallel() {
        let (f, lib) = pipeline();
        let one = execute(
            &f,
            &lib,
            &ext(&[("a", Value::Num(7.0))]),
            &ExecOptions {
                mode: ExecMode::Greedy { workers: 1 },
                ..ExecOptions::default()
            },
        )
        .unwrap();
        let many = execute(
            &f,
            &lib,
            &ext(&[("a", Value::Num(7.0))]),
            &ExecOptions {
                mode: ExecMode::Greedy { workers: 4 },
                ..ExecOptions::default()
            },
        )
        .unwrap();
        assert_eq!(one.outputs, many.outputs);
    }

    /// A wide fan: one source, N independent squarers, one summer.
    fn fan(n: usize) -> (Flattened, ProgramLibrary) {
        let mut h = HierGraph::new("fan");
        let a = h.add_storage("a", 1.0);
        let src = h.add_task_with_program("spread", 1.0, "Spread");
        h.add_flow(a, src).unwrap();
        let sum = h.add_task_with_program("collect", 1.0, "Collect");
        let x = h.add_storage("x", 1.0);
        h.add_flow(sum, x).unwrap();
        let mut lib = ProgramLibrary::new();
        lib.add_source("task Spread in a out s begin s := a end")
            .unwrap();
        // Each worker squares s then adds its index; Collect sums k inputs.
        let mut collect_ins = Vec::new();
        for i in 0..n {
            let w = h.add_task_with_program(format!("w{i}"), 5.0, format!("W{i}"));
            h.add_arc(src, w, "s", 1.0).unwrap();
            h.add_arc(w, sum, format!("r{i}"), 1.0).unwrap();
            lib.add_source(&format!(
                "task W{i} in s out r{i} begin r{i} := s * s + {i} end"
            ))
            .unwrap();
            collect_ins.push(format!("r{i}"));
        }
        let body: String = collect_ins
            .iter()
            .map(|v| format!("x := x + {v} "))
            .collect();
        lib.add_source(&format!(
            "task Collect in {} out x begin x := 0 {body} end",
            collect_ins.join(", ")
        ))
        .unwrap();
        (h.flatten().unwrap(), lib)
    }

    #[test]
    fn fan_out_fan_in_all_modes() {
        let (f, lib) = fan(8);
        let want = {
            // sum of (a^2 + i) for i in 0..8 with a = 3 => 8*9 + 28 = 100
            Value::Num(100.0)
        };
        for workers in [1, 2, 8] {
            let r = execute(
                &f,
                &lib,
                &ext(&[("a", Value::Num(3.0))]),
                &ExecOptions {
                    mode: ExecMode::Greedy { workers },
                    ..ExecOptions::default()
                },
            )
            .unwrap();
            assert_eq!(r.outputs["x"], want, "workers={workers}");
            assert_eq!(r.runs.len(), 10);
        }
    }

    #[test]
    fn pinned_mode_follows_schedule() {
        let _turn = pool_to_myself();
        let (f, lib) = fan(6);
        let m = Machine::new(Topology::fully_connected(3), MachineParams::default());
        let s = banger_sched::list::etf(&f.graph, &m);
        let r = execute(
            &f,
            &lib,
            &ext(&[("a", Value::Num(2.0))]),
            &ExecOptions {
                mode: ExecMode::pinned(s.clone()),
                inline_below: 0.0,
                ..ExecOptions::default()
            },
        )
        .unwrap();
        // 6*(4) + 15 = 39
        assert_eq!(r.outputs["x"], Value::Num(39.0));
        // Workers used match the schedule's processors.
        for run in &r.runs {
            let placed = s
                .placements_of(run.task)
                .iter()
                .map(|p| p.proc.index())
                .collect::<Vec<_>>();
            assert!(placed.contains(&run.worker), "task {}", run.task);
        }
    }

    #[test]
    fn pinned_mode_names_the_first_unplaced_task() {
        let _turn = pool_to_myself();
        let (f, lib) = fan(4);
        // Only the last task is placed; of the five missing, the error
        // names the one with the lowest id.
        let mut s = banger_sched::Schedule::new("partial", f.graph.task_count());
        let last = f.graph.task_ids().last().unwrap();
        s.place(last, banger_machine::ProcId(0), 0.0, 1.0, true);
        let err = execute(
            &f,
            &lib,
            &ext(&[("a", Value::Num(2.0))]),
            &ExecOptions {
                mode: ExecMode::pinned(s),
                ..ExecOptions::default()
            },
        )
        .unwrap_err();
        let first = f.graph.task_ids().next().unwrap();
        assert_eq!(
            err.to_string(),
            format!(
                "bad schedule for pinned execution: task {} is not placed",
                f.graph.task(first).name
            )
        );
    }

    #[test]
    fn pinned_mode_executes_duplicates() {
        let _turn = pool_to_myself();
        let (f, lib) = fan(4);
        let m = Machine::new(
            Topology::fully_connected(4),
            MachineParams {
                msg_startup: 5.0,
                ..MachineParams::default()
            },
        );
        let s = banger_sched::dsh::dsh(&f.graph, &m);
        let copies = s.placements().len();
        let r = execute(
            &f,
            &lib,
            &ext(&[("a", Value::Num(2.0))]),
            &ExecOptions {
                mode: ExecMode::pinned(s),
                inline_below: 0.0,
                ..ExecOptions::default()
            },
        )
        .unwrap();
        assert_eq!(r.runs.len(), copies);
        assert_eq!(r.outputs["x"], Value::Num(22.0)); // 4*4 + 6
    }

    #[test]
    fn missing_program_fails_fast() {
        let mut h = HierGraph::new("bad");
        h.add_task("orphan", 1.0); // no program attached
        let f = h.flatten().unwrap();
        let lib = ProgramLibrary::new();
        let err = execute(&f, &lib, &BTreeMap::new(), &ExecOptions::default()).unwrap_err();
        assert!(matches!(err, ExecError::NoProgram(_)), "{err}");
    }

    #[test]
    fn unknown_program_fails_fast() {
        let mut h = HierGraph::new("bad");
        h.add_task_with_program("t", 1.0, "NoSuch");
        let f = h.flatten().unwrap();
        let lib = ProgramLibrary::new();
        let err = execute(&f, &lib, &BTreeMap::new(), &ExecOptions::default()).unwrap_err();
        assert_eq!(err, ExecError::UnknownProgram("NoSuch".into()));
    }

    #[test]
    fn unbound_input_reported() {
        let (f, lib) = pipeline();
        let err = execute(&f, &lib, &BTreeMap::new(), &ExecOptions::default()).unwrap_err();
        assert!(
            matches!(err, ExecError::UnboundInput { ref var, .. } if var == "a"),
            "{err}"
        );
    }

    /// Three externals whose first-reference order — `z` (read first by
    /// `zed`), `m` (by `mid`), `a` (by `last`, which reads `z` too) — is
    /// not their name order. A firing that omits any subset of them is
    /// refused naming the first omitted one in reference order, with its
    /// first reader, whatever extra keys it adds; one that omits none runs.
    #[test]
    fn an_unbound_firing_names_the_first_omitted_external_in_reference_order() {
        let mut h = HierGraph::new("order");
        let [z, m, a] = ["z", "m", "a"].map(|v| h.add_storage(v, 1.0));
        let zed = h.add_task_with_program("zed", 1.0, "Zed");
        let mid = h.add_task_with_program("mid", 1.0, "Mid");
        let last = h.add_task_with_program("last", 1.0, "Last");
        let x = h.add_storage("x", 1.0);
        h.add_flow(z, zed).unwrap();
        h.add_arc(zed, mid, "p", 1.0).unwrap();
        h.add_flow(m, mid).unwrap();
        h.add_arc(mid, last, "q", 1.0).unwrap();
        h.add_flow(a, last).unwrap();
        h.add_flow(z, last).unwrap();
        h.add_flow(last, x).unwrap();
        let mut lib = ProgramLibrary::new();
        for src in [
            "task Zed in z out p begin p := z end",
            "task Mid in p, m out q begin q := p + m end",
            "task Last in q, a, z out x begin x := q + a + z end",
        ] {
            lib.add_source(src).unwrap();
        }
        let f = h.flatten().unwrap();
        let mut session = Session::new(&f, &lib, &ExecOptions::default()).unwrap();
        let slots = [("z", "zed", 1.0), ("m", "mid", 2.0), ("a", "last", 3.0)];
        for omitted in 0..8 {
            let mut external = ext(&[
                ("0", Value::Num(9.0)),
                ("b", Value::Num(9.0)),
                ("zz", Value::Num(9.0)),
            ]);
            let mut want = Ok(Value::Num(7.0)); // q = z + m = 3; x = q + a + z
            for (i, (var, reader, v)) in slots.into_iter().enumerate().rev() {
                if omitted & (1 << i) == 0 {
                    external.insert(var.to_string(), Value::Num(v));
                } else {
                    want = Err(ExecError::UnboundInput {
                        task: reader.to_string(),
                        var: var.to_string(),
                    });
                }
            }
            let got = session.run(&external).map(|r| r.outputs["x"].clone());
            assert_eq!(got, want, "omitting {omitted:03b} of [a, m, z]");
        }
    }

    #[test]
    fn arc_without_declared_output_fails_at_routing_time() {
        // `bad` promises `b` on its arc but its program never declares it:
        // the router must reject the binding before any task runs.
        let mut h = HierGraph::new("m");
        let t = h.add_task_with_program("bad", 1.0, "Bad");
        let u = h.add_task_with_program("after", 1.0, "After");
        let x = h.add_storage("x", 1.0);
        h.add_arc(t, u, "b", 1.0).unwrap();
        h.add_flow(u, x).unwrap();
        let mut lib = ProgramLibrary::new();
        lib.add_source("task Bad out c begin c := 1 end").unwrap();
        lib.add_source("task After in b out x begin x := b end")
            .unwrap();
        let err = execute(
            &h.flatten().unwrap(),
            &lib,
            &BTreeMap::new(),
            &ExecOptions::default(),
        )
        .unwrap_err();
        assert_eq!(
            err,
            ExecError::MissingArcValue {
                producer: "bad".into(),
                var: "b".into()
            }
        );
    }

    #[test]
    fn runtime_error_propagates_and_stops() {
        let mut h = HierGraph::new("boom");
        let a = h.add_storage("a", 1.0);
        let t = h.add_task_with_program("bad", 1.0, "Bad");
        let u = h.add_task_with_program("after", 1.0, "After");
        let x = h.add_storage("x", 1.0);
        h.add_flow(a, t).unwrap();
        h.add_arc(t, u, "b", 1.0).unwrap();
        h.add_flow(u, x).unwrap();
        let mut lib = ProgramLibrary::new();
        // Bad reads an undefined variable.
        lib.add_source("task Bad in a out b begin b := nodef end")
            .unwrap();
        lib.add_source("task After in b out x begin x := b end")
            .unwrap();
        let err = execute(
            &h.flatten().unwrap(),
            &lib,
            &ext(&[("a", Value::Num(1.0))]),
            &ExecOptions::default(),
        )
        .unwrap_err();
        assert!(
            matches!(err, ExecError::Run { ref task, .. } if task == "bad"),
            "{err}"
        );
    }

    #[test]
    fn step_limit_enforced_per_task() {
        let mut h = HierGraph::new("spin");
        let t = h.add_task_with_program("spin", 1.0, "Spin");
        let x = h.add_storage("x", 1.0);
        h.add_flow(t, x).unwrap();
        let mut lib = ProgramLibrary::new();
        lib.add_source("task Spin out x begin x := 0 while 1 do x := x + 1 end end")
            .unwrap();
        let err = execute(
            &h.flatten().unwrap(),
            &lib,
            &BTreeMap::new(),
            &ExecOptions {
                interp: InterpConfig {
                    max_steps: 5_000,
                    ..Default::default()
                },
                ..ExecOptions::default()
            },
        )
        .unwrap_err();
        assert!(
            matches!(
                err,
                ExecError::Run {
                    error: RunError::StepLimit(_),
                    ..
                }
            ),
            "{err}"
        );
    }

    #[test]
    fn measured_weights_returned() {
        let (f, lib) = fan(4);
        let r = execute(
            &f,
            &lib,
            &ext(&[("a", Value::Num(2.0))]),
            &ExecOptions::default(),
        )
        .unwrap();
        let w = r.measured_weights(f.graph.task_count());
        assert_eq!(w.len(), f.graph.task_count());
        assert!(w.iter().all(|&x| x > 0.0));
    }

    #[test]
    fn reference_interpreter_matches_vm_engine() {
        let (f, lib) = fan(6);
        let run = |reference: bool| {
            execute(
                &f,
                &lib,
                &ext(&[("a", Value::Num(3.0))]),
                &ExecOptions {
                    interp: InterpConfig {
                        reference,
                        ..Default::default()
                    },
                    ..ExecOptions::default()
                },
            )
            .unwrap()
        };
        let vm = run(false);
        let tree = run(true);
        assert_eq!(vm.outputs, tree.outputs);
        assert_eq!(vm.prints, tree.prints);
        // Measured weights (the scheduler's input) must be engine-independent.
        let n = f.graph.task_count();
        assert_eq!(vm.measured_weights(n), tree.measured_weights(n));
    }

    #[test]
    fn prints_tagged_by_task() {
        let mut h = HierGraph::new("p");
        let t = h.add_task_with_program("talker", 1.0, "Talk");
        let x = h.add_storage("x", 1.0);
        h.add_flow(t, x).unwrap();
        let mut lib = ProgramLibrary::new();
        lib.add_source("task Talk out x begin print 42 x := 1 end")
            .unwrap();
        let r = execute(
            &h.flatten().unwrap(),
            &lib,
            &BTreeMap::new(),
            &ExecOptions::default(),
        )
        .unwrap();
        assert_eq!(r.prints.len(), 1);
        assert_eq!(r.prints[0].1, "42");
    }

    #[test]
    fn fanned_array_is_shared_not_copied() {
        // One producer builds a big array; N consumers each read one
        // element. Every consumer's binding must share the producer's
        // buffer — verified end-to-end by routing the array back out and
        // checking the external output still shares with what a consumer
        // saw (all Arc bumps, zero copies on the read-only path).
        let mut h = HierGraph::new("share");
        let src = h.add_task_with_program("make", 1.0, "Make");
        let x = h.add_storage("big", 1.0);
        h.add_flow(src, x).unwrap();
        let mut lib = ProgramLibrary::new();
        lib.add_source("task Make out big begin big := fill(1000, 3) end")
            .unwrap();
        let mut readers = Vec::new();
        for i in 0..4 {
            let r = h.add_task_with_program(format!("read{i}"), 1.0, format!("Read{i}"));
            h.add_arc(src, r, "big", 1.0).unwrap();
            let o = h.add_storage(format!("o{i}"), 1.0);
            h.add_flow(r, o).unwrap();
            lib.add_source(&format!(
                "task Read{i} in big out o{i} begin o{i} := big[{}] end",
                i + 1
            ))
            .unwrap();
            readers.push(r);
        }
        let f = h.flatten().unwrap();
        let r1 = execute(&f, &lib, &BTreeMap::new(), &ExecOptions::default()).unwrap();
        for i in 0..4 {
            assert_eq!(r1.outputs[&format!("o{i}")], Value::Num(3.0));
        }
        // Running twice: the externally visible array is a fresh buffer
        // per run (produced by the task), but within one run all consumer
        // bindings shared it — sanity-checked via the output port value.
        let r2 = execute(&f, &lib, &BTreeMap::new(), &ExecOptions::default()).unwrap();
        assert_eq!(r1.outputs["big"], r2.outputs["big"]);
        assert!(
            !r1.outputs["big"].shares_buffer(&r2.outputs["big"]),
            "separate runs produce separate buffers"
        );
    }

    #[test]
    fn consumer_write_does_not_corrupt_sibling_reads() {
        // Producer fans an array to a mutating consumer and a reading
        // consumer; the mutation must never leak into the sibling.
        let mut h = HierGraph::new("cow");
        let src = h.add_task_with_program("make", 1.0, "Mk");
        let w = h.add_task_with_program("writer", 1.0, "Wr");
        let r = h.add_task_with_program("reader", 1.0, "Rd");
        let o1 = h.add_storage("wa", 1.0);
        let o2 = h.add_storage("ra", 1.0);
        h.add_arc(src, w, "v", 1.0).unwrap();
        h.add_arc(src, r, "v", 1.0).unwrap();
        h.add_flow(w, o1).unwrap();
        h.add_flow(r, o2).unwrap();
        let mut lib = ProgramLibrary::new();
        lib.add_source("task Mk out v begin v := fill(8, 1) end")
            .unwrap();
        lib.add_source("task Wr in v out wa begin v[1] := 99 wa := v[1] end")
            .unwrap();
        lib.add_source("task Rd in v out ra begin ra := v[1] end")
            .unwrap();
        let f = h.flatten().unwrap();
        // Race-free regardless of interleaving: run both orders many times.
        for workers in [1, 2, 4] {
            let rep = execute(
                &f,
                &lib,
                &BTreeMap::new(),
                &ExecOptions {
                    mode: ExecMode::Greedy { workers },
                    ..ExecOptions::default()
                },
            )
            .unwrap();
            assert_eq!(rep.outputs["wa"], Value::Num(99.0), "workers={workers}");
            assert_eq!(rep.outputs["ra"], Value::Num(1.0), "workers={workers}");
        }
    }

    #[test]
    fn worker_panic_reported_with_task_name_all_modes() {
        let _turn = pool_to_myself();
        let (f, lib) = fan(6);
        let m = Machine::new(Topology::fully_connected(3), MachineParams::default());
        let s = banger_sched::list::etf(&f.graph, &m);
        let modes = [
            ExecMode::Greedy { workers: 1 },
            ExecMode::Greedy { workers: 4 },
            ExecMode::pinned(s),
        ];
        for mode in modes {
            let err = execute(
                &f,
                &lib,
                &ext(&[("a", Value::Num(2.0))]),
                &ExecOptions {
                    mode: mode.clone(),
                    inline_below: 0.0,
                    inject_panic: Some("w3".into()),
                    ..ExecOptions::default()
                },
            )
            .unwrap_err();
            assert!(
                matches!(
                    err,
                    ExecError::WorkerPanic { ref task, ref message }
                        if task == "w3" && message.contains("injected fault")
                ),
                "mode {mode:?}: {err}"
            );
        }
    }

    #[test]
    fn greedy_error_with_outstanding_work_does_not_panic() {
        // A failing task in a wide fan leaves siblings outstanding when
        // the coordinator poisons; this used to hit the
        // `expect("workers alive")` coordinator panic in edge cases and
        // must now always return an error cleanly.
        let (f, lib) = fan(16);
        for _ in 0..20 {
            let err = execute(
                &f,
                &lib,
                &ext(&[("a", Value::Num(2.0))]),
                &ExecOptions {
                    mode: ExecMode::Greedy { workers: 4 },
                    inject_panic: Some("w0".into()),
                    ..ExecOptions::default()
                },
            )
            .unwrap_err();
            assert!(
                matches!(
                    err,
                    ExecError::WorkerPanic { .. } | ExecError::WorkerLost(_)
                ),
                "{err}"
            );
        }
    }

    #[test]
    fn traced_run_matches_untraced() {
        let (f, lib) = fan(8);
        let inputs = ext(&[("a", Value::Num(3.0))]);
        for workers in [1, 4] {
            let base = ExecOptions {
                mode: ExecMode::Greedy { workers },
                ..ExecOptions::default()
            };
            let plain = execute(&f, &lib, &inputs, &base).unwrap();
            let traced = execute(
                &f,
                &lib,
                &inputs,
                &ExecOptions {
                    trace: true,
                    ..base
                },
            )
            .unwrap();
            assert_eq!(plain.outputs, traced.outputs, "workers={workers}");
            assert_eq!(plain.prints, traced.prints);
            let n = f.graph.task_count();
            assert_eq!(plain.measured_weights(n), traced.measured_weights(n));
            assert!(plain.trace.is_none());
            let trace = traced.trace.expect("trace recorded");
            // Engaged-worker accounting: inlining may collapse the whole
            // firing onto fewer threads than the pool holds.
            assert!(
                (1..=workers).contains(&trace.workers),
                "engaged {} of {workers}",
                trace.workers
            );
            assert_eq!(trace.spans().len(), traced.runs.len());
            let summary = trace.summary();
            assert_eq!(summary.tasks, n);
            assert_eq!(summary.ops, traced.runs.iter().map(|r| r.ops).sum::<u64>());
        }
    }

    #[test]
    fn trace_records_cow_copy_with_bytes() {
        // Producer fans an array to a writer: the writer's index
        // assignment hits a shared buffer and must show up as exactly
        // one CoW copy of 8*len bytes attributed to that task.
        let mut h = HierGraph::new("cowtrace");
        let src = h.add_task_with_program("make", 1.0, "Mk");
        let w = h.add_task_with_program("writer", 1.0, "Wr");
        let r = h.add_task_with_program("reader", 1.0, "Rd");
        let o1 = h.add_storage("wa", 1.0);
        let o2 = h.add_storage("ra", 1.0);
        h.add_arc(src, w, "v", 1.0).unwrap();
        h.add_arc(src, r, "v", 1.0).unwrap();
        h.add_flow(w, o1).unwrap();
        h.add_flow(r, o2).unwrap();
        let mut lib = ProgramLibrary::new();
        lib.add_source("task Mk out v begin v := fill(64, 1) end")
            .unwrap();
        lib.add_source("task Wr in v out wa begin v[1] := 99 wa := v[1] end")
            .unwrap();
        lib.add_source("task Rd in v out ra begin ra := v[1] end")
            .unwrap();
        let f = h.flatten().unwrap();
        let rep = execute(
            &f,
            &lib,
            &BTreeMap::new(),
            &ExecOptions {
                mode: ExecMode::Greedy { workers: 1 },
                trace: true,
                ..ExecOptions::default()
            },
        )
        .unwrap();
        let trace = rep.trace.unwrap();
        let writer_finish = trace
            .events
            .iter()
            .find_map(|e| match e {
                TraceEvent::TaskFinish {
                    run,
                    cow_copies,
                    cow_bytes,
                    bytes_in,
                } if f.graph.task(run.task).name == "writer" => {
                    Some((*cow_copies, *cow_bytes, bytes_in.clone()))
                }
                _ => None,
            })
            .expect("writer traced");
        assert_eq!(writer_finish.0, 1, "one CoW copy");
        assert_eq!(writer_finish.1, 64 * 8, "copied the whole buffer");
        assert_eq!(writer_finish.2, vec![("v".to_string(), 64 * 8)]);
        let summary = trace.summary();
        assert_eq!(summary.cow_copies, 1);
        // Reader + writer each gathered the 64-element array.
        assert_eq!(summary.bytes_in, 2 * 64 * 8);
    }

    #[test]
    fn pinned_trace_observed_schedule_covers_all_copies() {
        let _turn = pool_to_myself();
        let (f, lib) = fan(6);
        let m = Machine::new(Topology::fully_connected(3), MachineParams::default());
        let s = banger_sched::list::etf(&f.graph, &m);
        let rep = execute(
            &f,
            &lib,
            &ext(&[("a", Value::Num(2.0))]),
            &ExecOptions {
                mode: ExecMode::pinned(s),
                inline_below: 0.0,
                trace: true,
                ..ExecOptions::default()
            },
        )
        .unwrap();
        let trace = rep.trace.unwrap();
        let obs = trace.observed_schedule(f.graph.task_count());
        assert_eq!(obs.placements().len(), rep.runs.len());
        for t in f.graph.task_ids() {
            assert!(obs.primary(t).is_some(), "task {t} has a primary span");
        }
        assert!(obs.makespan() > 0.0);
    }

    #[test]
    fn stealable_path_matches_inline_path() {
        let _turn = pool_to_myself();
        // inline_below: 0.0 forces every ready task through the deques
        // (cross-thread handoff path); results must match the default
        // all-inline collapse and the one-worker loop.
        let (f, lib) = fan(12);
        let inputs = ext(&[("a", Value::Num(3.0))]);
        let run = |workers: usize, inline_below: f64| {
            execute(
                &f,
                &lib,
                &inputs,
                &ExecOptions {
                    mode: ExecMode::Greedy { workers },
                    inline_below,
                    ..ExecOptions::default()
                },
            )
            .unwrap()
        };
        let one = run(1, DEFAULT_INLINE_BELOW);
        for workers in [2, 4] {
            let stealing = run(workers, 0.0);
            let inlined = run(workers, f64::INFINITY);
            assert_eq!(one.outputs, stealing.outputs, "workers={workers}");
            assert_eq!(one.outputs, inlined.outputs, "workers={workers}");
            let n = f.graph.task_count();
            assert_eq!(one.measured_weights(n), stealing.measured_weights(n));
            assert_eq!(one.measured_weights(n), inlined.measured_weights(n));
        }
    }

    #[test]
    fn trace_counts_inline_and_stolen_tasks() {
        let _turn = pool_to_myself();
        let (f, lib) = fan(10);
        let inputs = ext(&[("a", Value::Num(2.0))]);
        let traced = |inline_below: f64| {
            execute(
                &f,
                &lib,
                &inputs,
                &ExecOptions {
                    mode: ExecMode::Greedy { workers: 4 },
                    trace: true,
                    inline_below,
                    ..ExecOptions::default()
                },
            )
            .unwrap()
            .trace
            .unwrap()
            .summary()
        };
        // All weights are tiny, so the default threshold inlines every
        // task; nothing is ever stealable.
        let inlined = traced(DEFAULT_INLINE_BELOW);
        assert_eq!(inlined.inline_tasks, f.graph.task_count() as u64);
        assert_eq!(inlined.steals, 0);
        // Threshold 0 publishes everything; inline count must be zero.
        // (Steal count depends on scheduling luck — on a loaded host the
        // pool may drain everything from its own deques.)
        let stealing = traced(0.0);
        assert_eq!(stealing.inline_tasks, 0);
    }

    #[test]
    fn injected_worker_death_surfaces_as_worker_lost() {
        let _turn = pool_to_myself();
        let (f, lib) = fan(12);
        let inputs = ext(&[("a", Value::Num(2.0))]);
        for inline_below in [0.0, DEFAULT_INLINE_BELOW] {
            let err = execute(
                &f,
                &lib,
                &inputs,
                &ExecOptions {
                    mode: ExecMode::Greedy { workers: 4 },
                    inline_below,
                    inject_worker_death: Some("w5".into()),
                    ..ExecOptions::default()
                },
            )
            .unwrap_err();
            assert!(
                matches!(err, ExecError::WorkerLost(ref m) if m.contains("w5")),
                "inline_below={inline_below}: {err}"
            );
        }
    }

    #[test]
    fn external_array_fans_out_as_refcount_bumps() {
        // An external input array feeding several tasks is densified once
        // and bump-shared per consumer; results stay correct at any
        // worker count.
        let (f, lib) = {
            let mut h = HierGraph::new("extfan");
            let a = h.add_storage("v", 1.0);
            let mut lib = ProgramLibrary::new();
            for i in 0..3 {
                let t = h.add_task_with_program(format!("s{i}"), 1.0, format!("S{i}"));
                h.add_flow(a, t).unwrap();
                let o = h.add_storage(format!("x{i}"), 1.0);
                h.add_flow(t, o).unwrap();
                lib.add_source(&format!(
                    "task S{i} in v out x{i} begin x{i} := sum(v) + {i} end"
                ))
                .unwrap();
            }
            (h.flatten().unwrap(), lib)
        };
        let big = Value::array((0..512).map(f64::from).collect());
        let want: f64 = (0..512).map(f64::from).sum();
        let rep = execute(&f, &lib, &ext(&[("v", big)]), &ExecOptions::default()).unwrap();
        for i in 0..3 {
            assert_eq!(rep.outputs[&format!("x{i}")], Value::Num(want + i as f64));
        }
    }
}
