//! Persistent executions: one design, many firings, zero warm-up.
//!
//! A [`Session`] is the executor's one lifecycle: [`execute`](crate::execute)
//! is a session opened, fired once and dropped, in either mode, so a
//! one-shot run and a warm firing cannot differ. It keeps everything
//! firing-invariant — the `Router`, the slab `Store` (cleared, not
//! rebuilt), the flat [`TaskGraph`] (shared by `Arc`) and every worker's
//! deque, Vm frame and buffers (`WsWorker`) — and per firing re-binds
//! only the external inputs (`Router::bind`).
//!
//! A session keeps no thread: a firing borrows helpers from the process's
//! one pool ([`banger_taskgraph::parallel::lend`]), as every fan-out does.
//! One that finds the pool lent runs on its caller alone, which is exact:
//! outputs, prints and measured weights do not depend on the worker count
//! (a pinned worker plays every processor it claims). A design with no
//! stealable task, in either mode, has no seat and never asks.
//!
//! ```text
//! run(ext):  bind → reset → lend workers − 1 seats → seed → work as
//!            worker 0 → withdraw the free seats, wait for the seated
//!            helpers → report
//! ```
//!
//! The barrier waits only for helpers that took a seat, so a firing
//! never waits on a late wake-up. Every worker empties its own deque on
//! leaving a firing (`ws_fire`), so a failed firing leaks nothing into
//! the next, and an injected worker death poisons its firing as
//! [`ExecError::WorkerLost`] while the helper's thread stays in the pool.

use crate::runner::{
    pinned_queues, stealable, ws_fire, ws_seed, Ctx, ExecError, ExecMode, ExecOptions, ExecReport,
    Policy, Router, Store, WsItem, WsState, WsWorker,
};
use banger_calc::{ProgramLibrary, Value};
use banger_taskgraph::hierarchy::Flattened;
use banger_taskgraph::parallel::{host_cores, lend};
use banger_taskgraph::TaskGraph;
use crossbeam::deque;
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

static LIVE_SESSIONS: AtomicUsize = AtomicUsize::new(0);

/// [`Session`]s alive in this process, one-shot greedy runs included
/// while they fire.
pub fn live_sessions() -> usize {
    LIVE_SESSIONS.load(Ordering::Relaxed)
}

/// A persistent executor for one flattened design: routing tables, slab
/// storage and every worker's private state stay allocated, and each
/// [`Session::run`] is one firing. See the module docs for the
/// lifecycle; `banger run --repeat N` and
/// [`Project::session`](https://docs.rs/banger-core) surface this.
pub struct Session {
    graph: Arc<TaskGraph>,
    router: Router,
    store: Store,
    ws: WsState,
    options: ExecOptions,
    caller: WsWorker,
    /// The helper seats' private halves: seat `i` is worker `i + 1`.
    seats: Vec<Mutex<WsWorker>>,
}

impl Session {
    /// Builds the routing tables, allocates the store, and sets a helper
    /// seat per worker beyond the caller: pinned, a worker per processor
    /// the schedule uses, up to the host's cores; greedy, the workers
    /// asked for. In either mode there is none unless some task is
    /// stealable: no task below `inline_below` is worth a helper's
    /// wake-up, and a greedy helper runs nothing else. Fails on the
    /// structural errors (`Cyclic`, `NoProgram`, `UnknownProgram`,
    /// `MissingArcValue`, an unplaced task's `BadSchedule`); per-firing
    /// value errors (`UnboundInput`) surface from [`Session::run`]
    /// instead. This is the one place `workers: 0` becomes a count.
    pub fn new(
        design: &Flattened,
        lib: &ProgramLibrary,
        options: &ExecOptions,
    ) -> Result<Self, ExecError> {
        let g = &design.graph;
        let router = Router::build(design, lib)?;
        let stealing = || g.tasks().any(|(_, task)| stealable(task.weight, options));
        let (workers, pinned) = match &options.mode {
            ExecMode::Greedy { workers: 0 } => (host_cores(), None),
            ExecMode::Greedy { workers } => (*workers, None),
            ExecMode::Pinned(schedule) => {
                let queues = pinned_queues(g, schedule)?;
                (queues.len().clamp(1, host_cores()), Some(queues))
            }
        };
        let workers = if stealing() { workers } else { 1 };
        let mut deques: Vec<deque::Worker<WsItem>> =
            (0..workers).map(|_| deque::Worker::new()).collect();
        let policy = match pinned {
            Some(queues) => Policy::Pinned {
                queues,
                next: AtomicUsize::new(0),
            },
            None => Policy::Greedy(deques.iter().map(|d| d.stealer()).collect()),
        };
        let caller = WsWorker::new(0, deques.remove(0));
        let seats = (deques.into_iter().zip(1..)).map(|(dq, me)| Mutex::new(WsWorker::new(me, dq)));
        LIVE_SESSIONS.fetch_add(1, Ordering::Relaxed);
        Ok(Session {
            graph: Arc::clone(g),
            router,
            store: Store::new(g.task_count()),
            ws: WsState::new(g, policy),
            options: options.clone(),
            caller,
            seats: seats.collect(),
        })
    }

    /// Workers a firing runs on when it gets the pool, the caller
    /// included.
    pub fn workers(&self) -> usize {
        self.seats.len() + 1
    }

    /// One firing: binds `external`, re-arms the per-firing state, runs
    /// the design on the caller's thread and whichever helpers join, and
    /// waits for those to leave. Errors (including injected panics)
    /// poison only their own firing, and the next `run` starts clean.
    pub fn run(&mut self, external: &BTreeMap<String, Value>) -> Result<ExecReport, ExecError> {
        let externals = self.router.bind(external)?;

        // Every worker left the previous firing with its deque empty
        // (that firing's barrier), so the reset races no one.
        self.store.reset();
        self.ws.reset(&self.graph);

        let ctx = Ctx {
            g: &self.graph,
            router: &self.router,
            options: &self.options,
            store: &self.store,
            externals: &externals,
            epoch: Instant::now(),
        };
        let (ws, seats, caller) = (&self.ws, &self.seats, &mut self.caller);
        let help = |me: usize| ws_fire(&ctx, ws, &mut seats[me - 1].lock());
        let ((), helpers) = lend(seats.len(), &help, || {
            ws_seed(&ctx, ws, caller);
            ws_fire(&ctx, ws, caller);
        });
        ws.finish(&ctx, 1 + helpers)
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        LIVE_SESSIONS.fetch_sub(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::runner::{execute, DEFAULT_INLINE_BELOW};
    use banger_taskgraph::hierarchy::HierGraph;
    use banger_taskgraph::parallel::{live_pool_threads, parallel_map_on};
    use parking_lot::MutexGuard;

    /// Taken by every test in this binary whose firings can have helpers.
    /// The pool serves one firing at a time, and a firing that finds it
    /// leased runs on its caller alone: exact, but not the worker count
    /// the test asked for. Holding this, no other test leases the pool,
    /// so each of the holder's firings gets all its seats.
    pub(crate) fn pool_to_myself() -> MutexGuard<'static, ()> {
        static TURN: Mutex<()> = Mutex::new(());
        TURN.lock()
    }

    /// `body`'s result, computed while another thread holds the pool's
    /// lease: a two-worker fan-out whose one item waits on a channel
    /// until `body` has returned or unwound.
    fn while_the_pool_is_lent<R>(body: impl FnOnce() -> R) -> R {
        let (entered, inside) = std::sync::mpsc::channel();
        let (release, released) = std::sync::mpsc::channel::<()>();
        let released = Mutex::new(released);
        std::thread::scope(|s| {
            let _release = release;
            s.spawn(|| {
                parallel_map_on(2, &[()], |_, _| {
                    entered.send(()).unwrap();
                    released.lock().recv().ok();
                })
            });
            inside.recv().unwrap();
            body()
        })
    }

    /// True iff some task of the firing ran on a helper.
    pub(crate) fn helped(report: &ExecReport) -> bool {
        report.runs.iter().any(|r| r.worker >= 1)
    }

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
                "task W{i} in s out r{i} begin r{i} := s * s + {i} print r{i} end"
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
        let _turn = pool_to_myself();
        // `workers: 1` — a firing with no helper — is the configuration
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
        let _turn = pool_to_myself();
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
        let _turn = pool_to_myself();
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
        let _turn = pool_to_myself();
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
        let _turn = pool_to_myself();
        let (f, lib) = fan(10);
        // Force the stealable path so a helper (not the caller) can
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

    /// A pinned firing that finds the pool leased plays every processor
    /// on its caller, and computes what a firing with helpers and a
    /// one-worker greedy firing compute; each run still names a
    /// processor its task is placed on.
    #[test]
    fn a_pinned_firing_plays_every_processor_alone_while_the_pool_is_leased() {
        use banger_machine::{Machine, MachineParams, Topology};
        let _turn = pool_to_myself();
        let (f, lib) = fan(8);
        let m = Machine::new(Topology::fully_connected(4), MachineParams::default());
        let s = banger_sched::list::etf(&f.graph, &m);
        let pinned = ExecOptions {
            mode: ExecMode::pinned(s.clone()),
            inline_below: 0.0,
            ..ExecOptions::default()
        };
        let mut session = Session::new(&f, &lib, &pinned).unwrap();
        assert_eq!(session.workers(), s.processors_used().min(host_cores()));
        let alone = while_the_pool_is_lent(|| session.run(&ext(2.0)).unwrap());
        assert_eq!(alone.workers, 1);
        let unleased = session.run(&ext(2.0)).unwrap();
        let greedy = execute(&f, &lib, &ext(2.0), &greedy(1, DEFAULT_INLINE_BELOW)).unwrap();
        let n = f.graph.task_count();
        for other in [&unleased, &greedy] {
            assert_eq!(alone.outputs, other.outputs);
            assert_eq!(alone.prints, other.prints);
            assert_eq!(alone.measured_weights(n), other.measured_weights(n));
        }
        for report in [&alone, &unleased] {
            assert_eq!(report.runs.len(), s.placements().len());
            for run in &report.runs {
                let placed = s.placements_of(run.task);
                assert!(
                    placed.iter().any(|p| p.proc.index() == run.worker),
                    "{run:?}"
                );
            }
        }
    }

    /// A pinned design with no task worth a helper (all below
    /// `inline_below`) gets no seat, as a greedy one does, however many
    /// processors its schedule uses; with the threshold at 0 it gets a
    /// seat per processor
    /// (`a_pinned_firing_plays_every_processor_alone_while_the_pool_is_leased`).
    #[test]
    fn a_pinned_firing_with_nothing_stealable_has_no_seat() {
        use banger_machine::{Machine, MachineParams, Topology};
        let (f, lib) = fan(8);
        let m = Machine::new(Topology::fully_connected(4), MachineParams::default());
        let s = banger_sched::list::etf(&f.graph, &m);
        assert!(s.processors_used() >= 2);
        let pinned = ExecOptions {
            mode: ExecMode::pinned(s),
            ..ExecOptions::default()
        };
        let session = Session::new(&f, &lib, &pinned).unwrap();
        assert_eq!(session.workers(), 1, "every task is below the threshold");
    }

    /// A traced pinned firing's rows are the schedule's processors, but
    /// its summary counts the threads that played them: here one, the
    /// caller, since the pool is leased elsewhere.
    #[test]
    fn a_pinned_trace_summary_counts_threads_not_processors() {
        use banger_machine::{Machine, MachineParams, Topology};
        let _turn = pool_to_myself();
        let (f, lib) = fan(8);
        let m = Machine::new(Topology::fully_connected(8), MachineParams::default());
        let s = banger_sched::list::etf(&f.graph, &m);
        assert_eq!(s.processors_used(), 8);
        let pinned = ExecOptions {
            mode: ExecMode::pinned(s),
            inline_below: 0.0,
            trace: true,
            ..ExecOptions::default()
        };
        let mut session = Session::new(&f, &lib, &pinned).unwrap();
        let report = while_the_pool_is_lent(|| session.run(&ext(2.0)).unwrap());
        assert_eq!(report.workers, 1);
        let trace = report.trace.expect("trace recorded");
        assert_eq!(trace.workers, 8, "one row per processor");
        let summary = trace.summary();
        assert_eq!(summary.workers, 1);
        assert!(summary.utilization() > 0.0);
        let line = summary.render();
        assert!(line.contains(" 1 workers at "), "{line}");
    }

    /// A pinned firing's queue wait is its threads' wait, not its
    /// processors': one worker playing a chain whose tasks alternate
    /// between processors 0 and 1 always has a ready head after the first
    /// task, so it waits for a sliver of its busy time, though each
    /// processor's head waits out the other processor's whole run (which
    /// an account per processor sums, to nearly all of the busy time).
    #[test]
    fn a_pinned_worker_waits_only_while_it_has_no_ready_head() {
        use banger_machine::ProcId;
        use banger_sched::Schedule;
        let (f, lib) = chains(16, 1);
        let order = f.graph.topo_order().unwrap();
        let mut s = Schedule::new("alternating", order.len());
        for (i, &t) in order.iter().enumerate() {
            s.place(t, ProcId(i as u32 % 2), i as f64, i as f64 + 1.0, true);
        }
        let pinned = ExecOptions {
            mode: ExecMode::pinned(s),
            inline_below: f64::INFINITY,
            trace: true,
            ..ExecOptions::default()
        };
        let report = Session::new(&f, &lib, &pinned)
            .unwrap()
            .run(&BTreeMap::new())
            .unwrap();
        assert_eq!(report.workers, 1, "nothing is stealable");
        let summary = report.trace.expect("trace recorded").summary();
        assert!(
            summary.queue_wait * 4 < summary.busy,
            "a quarter of the busy time or more spent waiting: {summary:?}"
        );
        assert!(summary.queue_wait <= summary.wall, "{summary:?}");
    }

    /// `layers` x `width` independent chains of stealable (weight 5000)
    /// tasks `t{layer}_{chain}`, each a short loop that prints its sum.
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
                     for i := 1 to 50 do o{l}_{c} := o{l}_{c} + i end print o{l}_{c} end"
                ))
                .unwrap();
                *prev = Some(node);
            }
        }
        (h.flatten().unwrap(), lib)
    }

    #[test]
    fn poisoned_firings_with_tasks_in_flight_never_wedge_the_barrier() {
        let _turn = pool_to_myself();
        // A firing that poisons while a helper still has a task in
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

    /// The two paths of a firing, forced rather than left to timing: with
    /// the lease held elsewhere a firing runs on worker 0 alone; with it
    /// free, helpers join and (within a few firings) run tasks.
    #[test]
    fn a_firing_runs_alone_while_the_pool_is_leased() {
        let _turn = pool_to_myself();
        let (f, lib) = chains(4, 8);
        let mut session = Session::new(&f, &lib, &greedy(4, 0.0)).unwrap();
        let alone = while_the_pool_is_lent(|| session.run(&BTreeMap::new()).unwrap());
        assert!(alone.runs.iter().all(|r| r.worker == 0));
        assert_eq!(alone.workers, 1, "the report counts the caller alone");
        let with_helpers = (0..1000)
            .map(|_| session.run(&BTreeMap::new()).unwrap())
            .find(helped)
            .expect("a leased firing put a helper to work");
        assert!(with_helpers.workers > 1);
        assert!(live_pool_threads() >= 3, "the pool grew to the seats");
        let n = f.graph.task_count();
        assert_eq!(alone.outputs, with_helpers.outputs);
        assert_eq!(alone.measured_weights(n), with_helpers.measured_weights(n));
    }

    /// Two sessions firing at once: one leases the pool, the other runs
    /// alone, turn by turn, and every report is the one-worker report.
    #[test]
    fn two_sessions_firing_at_once_match_one_worker() {
        let _turn = pool_to_myself();
        let (f, lib) = chains(4, 8);
        let n = f.graph.task_count();
        let none = BTreeMap::new();
        let want = Session::new(&f, &lib, &greedy(1, 0.0))
            .unwrap()
            .run(&none)
            .unwrap();
        let helped_firings = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    let mut session = Session::new(&f, &lib, &greedy(4, 0.0)).unwrap();
                    for round in 0..500 {
                        let r = session.run(&none).unwrap();
                        assert_eq!(r.outputs, want.outputs, "round {round}");
                        assert_eq!(r.prints, want.prints, "round {round}");
                        assert_eq!(r.measured_weights(n), want.measured_weights(n));
                        if helped(&r) {
                            helped_firings.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                });
            }
        });
        assert!(helped_firings.into_inner() > 0, "no firing had helpers");
    }

    /// This process's pool threads, counted by the kernel once it counts
    /// `want` or 5 s have passed: a thread names itself as it starts, so
    /// one just spawned may not carry its name yet.
    fn pool_thread_names(want: usize) -> usize {
        let count = || {
            let tasks = std::fs::read_dir("/proc/self/task").expect("Linux /proc");
            tasks
                .filter_map(|t| std::fs::read_to_string(t.ok()?.path().join("comm")).ok())
                .filter(|name| name.starts_with("banger-pool-"))
                .count()
        };
        let deadline = Instant::now() + std::time::Duration::from_secs(5);
        while count() != want && Instant::now() < deadline {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        count()
    }

    /// A helper that dies (an injected fault) loses its firing, not its
    /// thread: the pool keeps its size and its helpers keep working.
    #[test]
    fn an_injected_death_leaves_the_pool_its_threads() {
        let _turn = pool_to_myself();
        let (f, lib) = chains(4, 8);
        let mut clean = Session::new(&f, &lib, &greedy(4, 0.0)).unwrap();
        clean.run(&BTreeMap::new()).unwrap();
        let size = live_pool_threads();
        assert_eq!(pool_thread_names(size), size);
        let dying = ExecOptions {
            inject_worker_death: Some("t1_3".into()),
            ..greedy(4, 0.0)
        };
        let mut session = Session::new(&f, &lib, &dying).unwrap();
        let helper_died = (0..2000).any(|_| match session.run(&BTreeMap::new()).unwrap_err() {
            ExecError::WorkerLost(m) => !m.starts_with("worker 0 "),
            other => panic!("{other}"),
        });
        assert!(helper_died, "no helper ever took the victim");
        assert_eq!(live_pool_threads(), size);
        assert_eq!(pool_thread_names(size), size);
        assert!((0..1000).any(|_| helped(&clean.run(&BTreeMap::new()).unwrap())));
    }
}
