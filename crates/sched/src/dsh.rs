//! DSH — Kruatrachue's *Duplication Scheduling Heuristic* (OSU PhD thesis,
//! 1987; summarised in Kruatrachue & Lewis, IEEE Software 1988).
//!
//! DSH extends list scheduling with **task duplication**: when a task's
//! start on its chosen processor is delayed waiting for a message, the
//! heuristic tries to copy the offending predecessor into the processor's
//! idle time instead, eliminating the message. Duplication attacks exactly
//! the startup/transmission costs the paper's machine model exposes, and
//! is the reason Banger's schedules stay efficient on high-latency
//! machines.
//!
//! The implementation places tasks in decreasing static-level order. For
//! each task it picks the earliest-finish processor, then repeatedly:
//!
//! 1. finds the predecessor message that currently determines the ready
//!    time,
//! 2. tentatively inserts a copy of that predecessor into idle time on the
//!    same processor (its own inputs priced with the analytic model over
//!    existing copies),
//! 3. keeps the copy only if the task's ready time strictly improves.
//!
//! Because a committed copy becomes visible to [`Engine::edge_arrival`],
//! duplication cascades naturally: after copying `p`, the next binding
//! message may be `p`'s own input, which the loop then attacks in turn.
//!
//! Both steps price a hypothetical copy of a placed predecessor `u` on a
//! processor by `ready_time(u, p)`, and `ReadyMemo` keeps that value
//! until it can move (DESIGN.md §14).

use crate::engine::{CommModel, Engine};
use crate::ready::ReadyQueue;
use crate::schedule::{Schedule, TIME_EPS};
use banger_machine::{Machine, ProcId};
use banger_taskgraph::analysis::ArcTable;
use banger_taskgraph::{TaskGraph, TaskId};

/// Maximum duplication attempts per task placement, a safety valve against
/// adversarial graphs (each attempt commits at most one extra copy).
/// Public so the test oracle's DSH stops where this one does.
pub const MAX_DUPES_PER_TASK: usize = 64;

/// Runs the Duplication Scheduling Heuristic. See module docs.
pub fn dsh(g: &TaskGraph, m: &Machine) -> Schedule {
    let arcs = &ArcTable::new(g);
    let mut eng = Engine::new("DSH", arcs, m, CommModel::Analytic);
    let mut queue = ReadyQueue::new(arcs, &g.analysis().static_level);
    let mut memo = ReadyMemo::new(arcs.task_count(), m.processors());

    while let Some(t) = queue.pop() {
        // Earliest-finish processor, where each candidate's finish time is
        // evaluated *with duplication applied* (Kruatrachue's DSH computes
        // the duplication-improved start during processor selection, not
        // after it — otherwise the no-communication processor always wins
        // and nothing is ever copied).
        let mut best = ProcId(0);
        let mut best_finish = f64::INFINITY;
        for p in m.proc_ids() {
            let start = estimate_start_with_duplication(&eng, &mut memo, t, p);
            let finish = start + eng.exec_time(t, p);
            if finish + TIME_EPS < best_finish {
                best_finish = finish;
                best = p;
            }
        }

        duplicate_binding_preds(&mut eng, &mut memo, t, best);
        eng.commit(t, best);
        queue.complete(arcs, t);
    }
    eng.finish()
}

/// `ready_time(u, p)` of placed tasks `u`, per `(u, p)` pair, each kept
/// from its first probe until it can move.
///
/// Under [`CommModel::Analytic`] a ready time depends on the committed
/// copies of `u`'s inputs and on nothing else — no timeline enters it.
/// Once `u` is placed, each input holds its primary copy, so the value
/// moves only when an input gains a duplicate; committing a duplicate of
/// `x` therefore forgets the rows of `x`'s consumers
/// ([`ReadyMemo::forget_consumers`]), and every other row stays exact.
struct ReadyMemo {
    procs: usize,
    /// At `u * procs + p`; [`UNKNOWN`] until probed. A ready time is the
    /// maximum of 0 and some arrivals, never NaN.
    ready: Vec<f64>,
}

/// A [`ReadyMemo`] entry not probed since it last could move.
const UNKNOWN: f64 = f64::NAN;

impl ReadyMemo {
    fn new(tasks: usize, procs: usize) -> Self {
        ReadyMemo {
            procs,
            ready: vec![UNKNOWN; tasks * procs],
        }
    }

    /// [`Engine::ready_time`] of the placed task `u` on `p`.
    fn ready_time(&mut self, eng: &Engine<'_>, u: TaskId, p: ProcId) -> f64 {
        debug_assert!(eng.placed(u), "only a placed task's ready time is kept");
        debug_assert!(
            eng.comm == CommModel::Analytic,
            "link timelines enter a ready time under contention"
        );
        let entry = &mut self.ready[u.index() * self.procs + p.index()];
        if entry.is_nan() {
            *entry = eng.ready_time(u, p);
        }
        *entry
    }

    /// Forgets the rows of `x`'s consumers: `x` has a new copy.
    fn forget_consumers(&mut self, arcs: &ArcTable, x: TaskId) {
        for &c in arcs.consumers(x) {
            let row = c.index() * self.procs;
            self.ready[row..row + self.procs].fill(UNKNOWN);
        }
    }
}

/// Estimates `t`'s start on `p` assuming the same one-level duplication
/// that [`duplicate_binding_preds`] would commit: for every input whose
/// message arrival exceeds the predecessor's locally-recomputed finish, use
/// the duplicated finish instead. A cheap upper-fidelity mirror of the
/// commit path — it does not mutate engine state.
fn estimate_start_with_duplication(
    eng: &Engine<'_>,
    memo: &mut ReadyMemo,
    t: TaskId,
    p: ProcId,
) -> f64 {
    let mut ready = 0.0f64;
    // Track the local occupancy consumed by hypothetical copies so two
    // copies do not claim the same idle slot.
    let mut local_extra = 0.0f64;
    for &(src, volume) in eng.arcs.inputs(t) {
        let msg_arrival = eng.edge_arrival(src, volume, p);
        let arrival = if eng.has_copy_on(src, p) {
            msg_arrival
        } else {
            // Hypothetical copy of the predecessor on p.
            let pred_ready = memo.ready_time(eng, src, p);
            let dur = eng.exec_time(src, p);
            let slot = eng.slot(p, pred_ready.max(local_extra), dur);
            let dup_finish = slot + dur;
            if dup_finish < msg_arrival {
                local_extra = dup_finish;
                dup_finish
            } else {
                msg_arrival
            }
        };
        ready = ready.max(arrival);
    }
    eng.slot(p, ready.max(local_extra), eng.exec_time(t, p))
}

/// Repeatedly copies the predecessor whose message currently bounds `t`'s
/// ready time onto `p`, while each copy strictly reduces that ready time.
fn duplicate_binding_preds(eng: &mut Engine<'_>, memo: &mut ReadyMemo, t: TaskId, p: ProcId) {
    for _ in 0..MAX_DUPES_PER_TASK {
        let ready = eng.ready_time(t, p);
        if ready <= TIME_EPS {
            return; // already starts at time zero
        }
        // Find the binding predecessor: the input with the latest arrival
        // that is NOT already satisfied by a local copy.
        let mut binding: Option<(TaskId, f64)> = None;
        for &(src, volume) in eng.arcs.inputs(t) {
            let arrival = eng.edge_arrival(src, volume, p);
            if (arrival - ready).abs() <= TIME_EPS && !eng.has_copy_on(src, p) {
                binding = Some((src, arrival));
            }
        }
        let Some((pred, old_arrival)) = binding else {
            return; // bound by local work or by an unimprovable input
        };

        // Would a local copy of `pred` help? Its own inputs arrive from
        // existing copies; it needs an idle slot ending before old_arrival.
        let pred_ready = memo.ready_time(eng, pred, p);
        let dur = eng.exec_time(pred, p);
        let start = eng.slot(p, pred_ready, dur);
        let local_finish = start + dur;
        if local_finish + TIME_EPS < old_arrival {
            eng.commit(pred, p); // duplicate copy (not primary)
            memo.forget_consumers(eng.arcs, pred);
        } else {
            return; // copying does not pay; stop
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::list::etf;
    use banger_machine::{MachineParams, Topology};
    use banger_taskgraph::generators;

    fn full(n: usize, msg_startup: f64) -> Machine {
        Machine::new(
            Topology::fully_connected(n),
            MachineParams {
                msg_startup,
                ..MachineParams::default()
            },
        )
    }

    #[test]
    fn valid_and_duplicates_on_heavy_fork() {
        // A cheap fork task feeding expensive children over heavy messages:
        // the textbook duplication win.
        let g = generators::fork_join(4, 2.0, 10.0, 2.0, 15.0);
        let m = full(4, 1.0);
        let s = dsh(&g, &m);
        s.validate(&g, &m).unwrap();
        let fork = g.find_task("fork").unwrap();
        assert!(
            s.placements_of(fork).len() > 1,
            "DSH should duplicate the fork task"
        );
    }

    #[test]
    fn dsh_beats_etf_on_communication_heavy_fork() {
        let g = generators::fork_join(4, 2.0, 10.0, 2.0, 15.0);
        let m = full(4, 1.0);
        let d = dsh(&g, &m);
        let e = etf(&g, &m);
        d.validate(&g, &m).unwrap();
        e.validate(&g, &m).unwrap();
        assert!(
            d.makespan() < e.makespan(),
            "DSH {} should beat ETF {}",
            d.makespan(),
            e.makespan()
        );
    }

    #[test]
    fn no_duplication_when_comm_free() {
        let g = generators::fork_join(4, 2.0, 10.0, 2.0, 0.0);
        let m = full(4, 0.0);
        let s = dsh(&g, &m);
        s.validate(&g, &m).unwrap();
        // With free communication there is nothing to save.
        for t in g.task_ids() {
            assert_eq!(
                s.placements_of(t).len(),
                1,
                "task {t} duplicated needlessly"
            );
        }
    }

    #[test]
    fn cascading_duplication_on_outtree() {
        // Each level of a broadcast tree repeats the win; DSH should
        // produce a valid schedule with copies at multiple levels.
        let g = generators::outtree(3, 2, 3.0, 12.0);
        let m = full(8, 1.0);
        let s = dsh(&g, &m);
        s.validate(&g, &m).unwrap();
        let copies: usize = g.task_ids().map(|t| s.placements_of(t).len()).sum();
        assert!(copies > g.task_count(), "expected some duplication");
        let e = etf(&g, &m);
        assert!(s.makespan() <= e.makespan() + TIME_EPS);
    }

    #[test]
    fn valid_on_gauss_and_random_topologies() {
        let g = generators::gauss_elimination(5, 2.0, 4.0);
        for topo in [
            Topology::hypercube(2),
            Topology::mesh(2, 2),
            Topology::star(4),
            Topology::ring(4),
        ] {
            let m = Machine::new(
                topo,
                MachineParams {
                    msg_startup: 0.5,
                    ..MachineParams::default()
                },
            );
            let s = dsh(&g, &m);
            s.validate(&g, &m)
                .unwrap_or_else(|e| panic!("{}: {e}", m.topology().name()));
        }
    }

    #[test]
    fn deterministic() {
        let g = generators::fork_join(6, 2.0, 8.0, 2.0, 10.0);
        let m = full(4, 1.0);
        assert_eq!(dsh(&g, &m), dsh(&g, &m));
    }

    #[test]
    fn single_processor_no_duplication() {
        let g = generators::fork_join(4, 2.0, 10.0, 2.0, 15.0);
        let m = Machine::new(Topology::single(), MachineParams::default());
        let s = dsh(&g, &m);
        s.validate(&g, &m).unwrap();
        for t in g.task_ids() {
            assert_eq!(s.placements_of(t).len(), 1);
        }
    }
}
