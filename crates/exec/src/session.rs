//! Persistent executions: one design, many firings, zero warm-up.
//!
//! A [`Session`] is the executor's one lifecycle. It hoists everything
//! firing-invariant out of the loop — the model SDFG-style systems use,
//! keeping the compiled dataflow "hot" and *invoking* it:
//!
//! * the [`Router`] (name resolution, `Arc<CompiledProgram>` handles,
//!   output-port bindings) is built once;
//! * the slab [`Store`] keeps its allocation and is cleared, not
//!   rebuilt, per firing;
//! * worker threads are spawned only if a task can be stolen, and then
//!   once, *parked* on the work-stealing runtime's condvar between
//!   firings. A pool thread only ever runs a task it stole, so a design
//!   whose tasks all fall below [`ExecOptions::inline_below`] gets none:
//!   it runs entirely on the caller's thread, as `workers: 1` does;
//! * the flat [`TaskGraph`] is shared with the [`Flattened`] design by
//!   `Arc`, not copied;
//! * each worker's [`Vm`](banger_calc::vm::Vm) frame, input staging
//!   vector, and deque survive across firings.
//!
//! Per firing, only the external-input values are re-bound
//! ([`Router::bind`]) and the per-firing counters re-armed.
//! [`execute`](crate::execute) in greedy mode is a session opened, fired
//! once and dropped, so a one-shot run and a warm firing cannot differ in
//! results, traces or error attribution — there is no second path.
//!
//! ```text
//! run(ext):  bind → reset(store, counters) → publish firing → seed
//!            roots → caller joins the pool → barrier (every pool worker
//!            parked again) → report
//! ```
//!
//! The end-of-firing barrier waits until `parked + dead` equals the
//! pool's thread count (zero when nothing is stealable):
//! workers park between firings under the coord lock (notifying the
//! barrier), and a worker thread killed by fault injection counts as
//! permanently parked, so worker loss surfaces as
//! [`ExecError::WorkerLost`] instead of a hang. Every worker empties its
//! own deque on leaving a firing (see `ws_fire`), and a parked worker
//! ignores work published by a poisoned firing, so a failed firing can
//! neither leak tasks into the next one nor keep the pool from parking.
//! Dropping the session sets the shutdown flag, wakes everyone, and joins
//! the threads. [`live_sessions`] and [`live_pool_threads`] count what
//! the process holds.

use crate::runner::{
    stealable, ws_fire, ws_park, ws_seed, Ctx, ExecError, ExecMode, ExecOptions, ExecReport,
    Router, Store, WsItem, WsState, WsWorker,
};
use banger_calc::{ProgramLibrary, Value};
use banger_sched::sweep::host_cores;
use banger_taskgraph::hierarchy::Flattened;
use banger_taskgraph::TaskGraph;
use crossbeam::deque;
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

static LIVE_SESSIONS: AtomicUsize = AtomicUsize::new(0);
static LIVE_POOL_THREADS: AtomicUsize = AtomicUsize::new(0);

/// [`Session`]s alive in this process, one-shot greedy runs included
/// while they fire.
pub fn live_sessions() -> usize {
    LIVE_SESSIONS.load(Ordering::Relaxed)
}

/// Pool threads those sessions hold, from spawn to join; the callers'
/// own threads are not counted.
pub fn live_pool_threads() -> usize {
    LIVE_POOL_THREADS.load(Ordering::Relaxed)
}

/// What changes between firings: the epoch all trace timestamps are
/// relative to, and the bound external-input values. Shared with pool
/// workers by `Arc` so a firing needs no borrows from the caller.
struct FiringShared {
    epoch: Instant,
    externals: Vec<Value>,
}

/// Everything firing-invariant, shared between the session handle and
/// its pool threads.
struct SessionCore {
    graph: Arc<TaskGraph>,
    router: Router,
    store: Store,
    ws: WsState,
    options: ExecOptions,
    firing: Mutex<Arc<FiringShared>>,
}

impl SessionCore {
    /// The worker-facing view of one firing over the long-lived state.
    fn ctx<'a>(&'a self, firing: &'a FiringShared) -> Ctx<'a> {
        Ctx {
            g: &self.graph,
            router: &self.router,
            options: &self.options,
            store: &self.store,
            externals: &firing.externals,
            epoch: firing.epoch,
        }
    }
}

/// A persistent executor for one flattened design: worker threads stay
/// parked, routing tables and slab storage stay allocated, and each
/// [`Session::run`] is one firing. See the module docs for the
/// lifecycle; `banger run --repeat N` and
/// [`Project::session`](https://docs.rs/banger-core) surface this.
pub struct Session {
    core: Arc<SessionCore>,
    caller: WsWorker,
    /// The pool: `workers - 1` threads, or none (the caller is worker 0).
    threads: Vec<JoinHandle<()>>,
}

impl Session {
    /// Builds the routing tables, allocates the store, and spawns the
    /// parked worker pool — only if some task is stealable, since a pool
    /// thread runs nothing else. Fails on the structural errors (`Cyclic`,
    /// `NoProgram`, `UnknownProgram`, `MissingArcValue`), and with
    /// `WorkerLost` if the host refuses a thread; per-firing value errors
    /// (`UnboundInput`) surface from [`Session::run`] instead. Only greedy
    /// mode persists — a pinned schedule is rejected as `BadSchedule`.
    /// This is the one place `workers: 0` becomes a count.
    pub fn new(
        design: &Flattened,
        lib: &ProgramLibrary,
        options: &ExecOptions,
    ) -> Result<Self, ExecError> {
        let workers = match options.mode {
            ExecMode::Greedy { workers: 0 } => host_cores(),
            ExecMode::Greedy { workers } => workers,
            ExecMode::Pinned(_) => {
                return Err(ExecError::BadSchedule(
                    "persistent sessions support greedy mode only".into(),
                ))
            }
        };
        let g = &design.graph;
        let workers = if g.tasks().any(|(_, task)| stealable(task.weight, options)) {
            workers
        } else {
            1
        };
        let router = Router::build(design, lib)?;
        let mut deques: Vec<deque::Worker<WsItem>> =
            (0..workers).map(|_| deque::Worker::new()).collect();
        let stealers = deques.iter().map(|d| d.stealer()).collect();
        let core = Arc::new(SessionCore {
            graph: Arc::clone(g),
            router,
            store: Store::new(g.task_count()),
            ws: WsState::new(g, stealers),
            options: options.clone(),
            firing: Mutex::new(Arc::new(FiringShared {
                epoch: Instant::now(),
                externals: Vec::new(),
            })),
        });
        let caller = WsWorker::new(0, deques.remove(0));
        LIVE_SESSIONS.fetch_add(1, Ordering::Relaxed);
        // From here on `Drop` owns the clean-up: a failed spawn returns
        // the error, and dropping the session joins the threads already
        // spawned.
        let mut session = Session {
            core,
            caller,
            threads: Vec::with_capacity(workers - 1),
        };
        for (i, dq) in deques.into_iter().enumerate() {
            let core = Arc::clone(&session.core);
            let thread = std::thread::Builder::new()
                .name(format!("banger-exec-{}", i + 1))
                .spawn(move || session_thread(core, i + 1, dq))
                .map_err(|e| {
                    ExecError::WorkerLost(format!("cannot spawn worker {}: {e}", i + 1))
                })?;
            LIVE_POOL_THREADS.fetch_add(1, Ordering::Relaxed);
            session.threads.push(thread);
        }
        Ok(session)
    }

    /// Worker threads in the session, including the caller's.
    pub fn workers(&self) -> usize {
        self.threads.len() + 1
    }

    /// One firing: binds `external`, re-arms the per-firing state, runs
    /// the design on the warm pool, and waits for every pool worker to
    /// park again. Errors (including injected panics) poison only their
    /// own firing, and the next `run` starts clean.
    pub fn run(&mut self, external: &BTreeMap<String, Value>) -> Result<ExecReport, ExecError> {
        let core = &self.core;
        let externals = core.router.bind(external)?;

        // All pool workers are parked here (barrier of the previous
        // firing / fresh construction) and left their deques empty, so
        // the reset can't race a running worker or a stale task.
        core.store.reset();
        core.ws.reset(&core.graph);

        let firing = Arc::new(FiringShared {
            epoch: Instant::now(),
            externals,
        });
        *core.firing.lock() = Arc::clone(&firing);
        let ctx = core.ctx(&firing);

        ws_seed(&ctx, &core.ws, &mut self.caller);
        ws_fire(&ctx, &core.ws, &mut self.caller);

        // End-of-firing barrier: every pool worker parked (or dead —
        // fault injection kills threads for real; they count as
        // permanently parked so loss can't hang the session).
        {
            let mut coord = core.ws.coord.lock();
            while coord.parked + coord.dead < self.threads.len() {
                core.ws.cv.wait(&mut coord);
            }
        }
        core.ws.finish(&ctx)
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        self.core.ws.shutdown.store(true, Ordering::SeqCst);
        {
            let _coord = self.core.ws.coord.lock();
            self.core.ws.cv.notify_all();
        }
        for t in self.threads.drain(..) {
            let _ = t.join();
            LIVE_POOL_THREADS.fetch_sub(1, Ordering::Relaxed);
        }
        LIVE_SESSIONS.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Pool thread body: park between firings, join each firing's
/// work-stealing loop, repeat until shutdown. `parked` is bumped under
/// the coord lock so the end-of-firing barrier sees us. Work left visible
/// by a poisoned firing is not a reason to wake: that firing is over, its
/// owner is about to discard the work, and joining it would only bounce
/// between parking and un-parking while the barrier starves.
fn session_thread(core: Arc<SessionCore>, me: usize, dq: deque::Worker<WsItem>) {
    let mut w = WsWorker::new(me, dq);
    loop {
        {
            let mut coord = core.ws.coord.lock();
            coord.parked += 1;
            core.ws.cv.notify_all(); // the barrier may be waiting on us
            let fire = ws_park(&core.ws, &mut coord, || {
                if core.ws.shutdown.load(Ordering::SeqCst) {
                    Some(false)
                } else {
                    let live = !core.store.poisoned.load(Ordering::SeqCst);
                    (live && core.ws.has_work()).then_some(true)
                }
            });
            if !fire {
                return;
            }
            coord.parked -= 1;
        }
        // Work is visible: snapshot the current firing and join it.
        let firing = core.firing.lock().clone();
        if ws_fire(&core.ctx(&firing), &core.ws, &mut w) {
            // Injected death: stay dead. The accounting below is what
            // lets the barrier (and future firings) proceed without us.
            let mut coord = core.ws.coord.lock();
            coord.dead += 1;
            core.ws.cv.notify_all();
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{execute, DEFAULT_INLINE_BELOW};
    use banger_taskgraph::hierarchy::HierGraph;

    /// source -> N squarers -> sum, with an external input `a`.
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
        let mut ins = Vec::new();
        for i in 0..n {
            let w = h.add_task_with_program(format!("w{i}"), 5.0, format!("W{i}"));
            h.add_arc(src, w, "s", 1.0).unwrap();
            h.add_arc(w, sum, format!("r{i}"), 1.0).unwrap();
            lib.add_source(&format!(
                "task W{i} in s out r{i} begin r{i} := s * s + {i} end"
            ))
            .unwrap();
            ins.push(format!("r{i}"));
        }
        let body: String = ins.iter().map(|v| format!("x := x + {v} ")).collect();
        lib.add_source(&format!(
            "task Collect in {} out x begin x := 0 {body} end",
            ins.join(", ")
        ))
        .unwrap();
        (h.flatten().unwrap(), lib)
    }

    fn ext(v: f64) -> BTreeMap<String, Value> {
        [("a".to_string(), Value::Num(v))].into_iter().collect()
    }

    #[test]
    fn repeated_firings_match_execute() {
        // `workers: 1` — a pool of zero threads — is the configuration
        // the benchmark's `exec_heavy` measures.
        let (f, lib) = fan(8);
        for (workers, inline_below) in [(4, 0.0), (4, DEFAULT_INLINE_BELOW), (1, 0.0)] {
            let opts = ExecOptions {
                mode: ExecMode::Greedy { workers },
                inline_below,
                ..ExecOptions::default()
            };
            let mut session = Session::new(&f, &lib, &opts).unwrap();
            for round in 0..50 {
                let a = f64::from(round);
                let warm = session.run(&ext(a)).unwrap();
                let cold = execute(&f, &lib, &ext(a), &opts).unwrap();
                assert_eq!(warm.outputs, cold.outputs, "round {round}");
                assert_eq!(warm.prints, cold.prints, "round {round}");
                let n = f.graph.task_count();
                assert_eq!(
                    warm.measured_weights(n),
                    cold.measured_weights(n),
                    "round {round}"
                );
            }
        }
    }

    fn greedy(workers: usize, inline_below: f64) -> ExecOptions {
        ExecOptions {
            mode: ExecMode::Greedy { workers },
            inline_below,
            ..ExecOptions::default()
        }
    }

    #[test]
    fn a_design_with_nothing_stealable_spawns_no_pool() {
        let (f, lib) = fan(8);
        let mut inline = Session::new(&f, &lib, &greedy(4, DEFAULT_INLINE_BELOW)).unwrap();
        assert_eq!(inline.workers(), 1, "every task is below the threshold");
        let mut stolen = Session::new(&f, &lib, &greedy(4, 0.0)).unwrap();
        assert_eq!(stolen.workers(), 4);
        let mut single = Session::new(&f, &lib, &greedy(1, 0.0)).unwrap();
        let n = f.graph.task_count();
        for a in [0.0, 1.5, 7.0] {
            let r = inline.run(&ext(a)).unwrap();
            for other in [stolen.run(&ext(a)).unwrap(), single.run(&ext(a)).unwrap()] {
                assert_eq!(r.outputs, other.outputs, "a={a}");
                assert_eq!(r.prints, other.prints, "a={a}");
                assert_eq!(r.measured_weights(n), other.measured_weights(n), "a={a}");
            }
        }
    }

    #[test]
    fn one_task_at_the_threshold_gets_the_whole_pool() {
        let (mut f, lib) = fan(4);
        let w2 = f
            .graph
            .task_ids()
            .find(|&t| f.graph.task(t).name == "w2")
            .unwrap();
        for (weight, workers) in [(DEFAULT_INLINE_BELOW - 0.5, 1), (DEFAULT_INLINE_BELOW, 4)] {
            Arc::make_mut(&mut f.graph).task_mut(w2).weight = weight;
            let mut session = Session::new(&f, &lib, &greedy(4, DEFAULT_INLINE_BELOW)).unwrap();
            assert_eq!(session.workers(), workers, "w2 weighs {weight}");
            let r = session.run(&ext(1.0)).unwrap();
            assert_eq!(r.outputs["x"], Value::Num(10.0));
        }
    }

    #[test]
    fn a_session_shares_the_flat_graph() {
        let (f, lib) = fan(4);
        let before = Arc::strong_count(&f.graph);
        let session = Session::new(&f, &lib, &greedy(4, 0.0)).unwrap();
        assert_eq!(Arc::strong_count(&f.graph), before + 1);
        drop(session);
        assert_eq!(Arc::strong_count(&f.graph), before);
    }

    #[test]
    fn per_firing_external_rebinding() {
        let (f, lib) = fan(4);
        let mut session = Session::new(&f, &lib, &ExecOptions::default()).unwrap();
        // sum of (a^2 + i) for i in 0..4 = 4a^2 + 6
        for a in [0.0, 1.0, 3.0, 10.0] {
            let r = session.run(&ext(a)).unwrap();
            assert_eq!(r.outputs["x"], Value::Num(4.0 * a * a + 6.0), "a={a}");
        }
        let err = session.run(&BTreeMap::new()).unwrap_err();
        assert!(
            matches!(err, ExecError::UnboundInput { ref var, .. } if var == "a"),
            "{err}"
        );
        // An unbound firing poisons nothing for the next one.
        let r = session.run(&ext(2.0)).unwrap();
        assert_eq!(r.outputs["x"], Value::Num(22.0));
    }

    #[test]
    fn failed_firing_does_not_poison_the_next() {
        let (f, lib) = fan(8);
        for inline_below in [0.0, DEFAULT_INLINE_BELOW] {
            let opts = ExecOptions {
                mode: ExecMode::Greedy { workers: 4 },
                inline_below,
                inject_panic: Some("w3".into()),
                ..ExecOptions::default()
            };
            let mut session = Session::new(&f, &lib, &opts).unwrap();
            let err = session.run(&ext(2.0)).unwrap_err();
            assert!(
                matches!(err, ExecError::WorkerPanic { ref task, .. } if task == "w3"),
                "inline_below={inline_below}: {err}"
            );
            // Same session object cannot clear inject_panic (options are
            // fixed), so recovery is exercised against a clean session
            // over the same warm design.
            drop(session);
            let clean = ExecOptions {
                inject_panic: None,
                ..opts
            };
            let mut session = Session::new(&f, &lib, &clean).unwrap();
            let r1 = session.run(&ext(2.0)).unwrap();
            let r2 = session.run(&ext(2.0)).unwrap();
            assert_eq!(r1.outputs, r2.outputs);
        }
    }

    #[test]
    fn worker_death_mid_session_leaves_it_usable() {
        let (f, lib) = fan(10);
        // Force the stealable path so a pool thread (not the caller) can
        // grab the victim task at least sometimes; either way the firing
        // must error, never hang, and later firings must still complete.
        let opts = ExecOptions {
            mode: ExecMode::Greedy { workers: 4 },
            inline_below: 0.0,
            inject_worker_death: Some("w5".into()),
            ..ExecOptions::default()
        };
        let mut session = Session::new(&f, &lib, &opts).unwrap();
        let err = session.run(&ext(2.0)).unwrap_err();
        assert!(matches!(err, ExecError::WorkerLost(_)), "{err}");
        drop(session);

        let clean = ExecOptions {
            inject_worker_death: None,
            ..opts
        };
        let mut session = Session::new(&f, &lib, &clean).unwrap();
        let r = session.run(&ext(3.0)).unwrap();
        // sum of (9 + i) for i in 0..10
        assert_eq!(r.outputs["x"], Value::Num(135.0));
    }

    #[test]
    fn traced_session_matches_untraced() {
        let (f, lib) = fan(6);
        let base = ExecOptions {
            mode: ExecMode::Greedy { workers: 2 },
            ..ExecOptions::default()
        };
        let mut plain = Session::new(&f, &lib, &base).unwrap();
        let mut traced = Session::new(
            &f,
            &lib,
            &ExecOptions {
                trace: true,
                ..base
            },
        )
        .unwrap();
        for a in [1.0, 2.0] {
            let p = plain.run(&ext(a)).unwrap();
            let t = traced.run(&ext(a)).unwrap();
            assert_eq!(p.outputs, t.outputs);
            assert!(p.trace.is_none());
            let trace = t.trace.expect("trace recorded");
            let summary = trace.summary();
            assert_eq!(summary.tasks, f.graph.task_count());
            assert_eq!(summary.errors, 0);
            // Default threshold inlines everything in this tiny design.
            assert_eq!(summary.inline_tasks, f.graph.task_count() as u64);
        }
    }

    #[test]
    fn pinned_mode_is_rejected() {
        use banger_machine::{Machine, MachineParams, Topology};
        let (f, lib) = fan(4);
        let m = Machine::new(Topology::fully_connected(2), MachineParams::default());
        let s = banger_sched::list::etf(&f.graph, &m);
        let err = Session::new(
            &f,
            &lib,
            &ExecOptions {
                mode: ExecMode::pinned(s),
                ..ExecOptions::default()
            },
        )
        .err()
        .expect("pinned session must be rejected");
        assert!(matches!(err, ExecError::BadSchedule(_)), "{err}");
    }

    /// `layers` x `width` independent chains of stealable (weight 5000)
    /// tasks `t{layer}_{chain}`, each a short loop.
    fn chains(layers: usize, width: usize) -> (Flattened, ProgramLibrary) {
        let mut h = HierGraph::new("chains");
        let mut lib = ProgramLibrary::new();
        let mut prev = vec![None; width];
        for l in 0..layers {
            for (c, prev) in prev.iter_mut().enumerate() {
                let node =
                    h.add_task_with_program(format!("t{l}_{c}"), 5000.0, format!("P{l}_{c}"));
                let input = match *prev {
                    Some(p) => {
                        h.add_arc(p, node, format!("o{}_{c}", l - 1), 1.0).unwrap();
                        format!("in o{}_{c}", l - 1)
                    }
                    None => String::new(),
                };
                lib.add_source(&format!(
                    "task P{l}_{c} {input} out o{l}_{c} local i begin o{l}_{c} := 0 \
                     for i := 1 to 50 do o{l}_{c} := o{l}_{c} + i end end"
                ))
                .unwrap();
                *prev = Some(node);
            }
        }
        (h.flatten().unwrap(), lib)
    }

    #[test]
    fn poisoned_firings_with_tasks_in_flight_never_wedge_the_barrier() {
        // A firing that poisons while a pool worker still has a task in
        // flight: that task finishes late and pushes its successors into
        // the worker's own deque. If nobody discards them, the parked
        // workers bounce between parking and un-parking forever and the
        // end-of-firing barrier never passes. The firing loop runs on its
        // own thread under a watchdog so a regression fails, not hangs.
        let (f, lib) = chains(8, 12);
        let opts = ExecOptions {
            mode: ExecMode::Greedy { workers: 4 },
            inline_below: 0.0,
            inject_panic: Some("t2_3".into()),
            ..ExecOptions::default()
        };
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            for round in 0..400 {
                let mut session = Session::new(&f, &lib, &opts).unwrap();
                for _ in 0..3 {
                    let err = session.run(&BTreeMap::new()).unwrap_err();
                    assert!(matches!(err, ExecError::WorkerPanic { .. }), "{err}");
                }
                tx.send(round).unwrap();
            }
        });
        for done in 0..400 {
            rx.recv_timeout(std::time::Duration::from_secs(20))
                .unwrap_or_else(|e| panic!("firing loop stalled after {done} sessions: {e:?}"));
        }
    }
}
