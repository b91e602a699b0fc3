//! The discrete-event engine.

use banger_machine::{LinkId, Machine, ProcId, SwitchingMode};
use banger_sched::Schedule;
use banger_taskgraph::{TaskGraph, TaskId};
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::fmt;

/// Safety valve: a simulation aborts with [`SimError::EventLimit`] after
/// this many events (runaway protection).
const MAX_EVENTS: u64 = 50_000_000;

/// Why a simulation failed.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// The schedule does not cover every task.
    Unplaced(TaskId),
    /// A message route does not exist (disconnected machine).
    NoRoute(ProcId, ProcId),
    /// The event budget was exhausted.
    EventLimit(u64),
    /// The simulation deadlocked: processors are idle but tasks remain.
    /// Indicates an inconsistent schedule (should be impossible for
    /// validated schedules).
    Deadlock,
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Unplaced(t) => write!(f, "schedule does not place task {t}"),
            SimError::NoRoute(a, b) => write!(f, "no route between {a} and {b}"),
            SimError::EventLimit(n) => write!(f, "event limit {n} exceeded"),
            SimError::Deadlock => write!(f, "simulation deadlocked"),
        }
    }
}

impl std::error::Error for SimError {}

/// Aggregate traffic statistics.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SimStats {
    /// Messages injected into the network (excludes local hand-offs).
    pub messages: u64,
    /// Total link traversals (sum of hops over all messages).
    pub hops: u64,
    /// Total time messages spent queueing for busy links.
    pub queue_delay: f64,
    /// Events processed.
    pub events: u64,
}

/// One simulated network message, for traces and animations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MsgRecord {
    /// Sending processor.
    pub src: ProcId,
    /// Receiving processor.
    pub dst: ProcId,
    /// When the producing task finished (message creation).
    pub inject: f64,
    /// When the message arrived at `dst`.
    pub arrival: f64,
    /// Data units carried.
    pub volume: f64,
}

/// The result of simulating a schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct SimResult {
    /// The as-executed timeline (same placement structure as the input
    /// schedule, with achieved start/finish times).
    pub achieved: Schedule,
    /// The input schedule's predicted makespan.
    pub predicted_makespan: f64,
    /// Traffic statistics.
    pub stats: SimStats,
    /// Every network message, in injection order (for animation replays).
    pub messages: Vec<MsgRecord>,
}

impl SimResult {
    /// Achieved makespan.
    pub fn achieved_makespan(&self) -> f64 {
        self.achieved.makespan()
    }

    /// `achieved / predicted` — 1.0 means the prediction was exact;
    /// above 1.0 means the network was more contended than the scheduler
    /// assumed.
    pub fn compare(&self) -> f64 {
        if self.predicted_makespan == 0.0 {
            1.0
        } else {
            self.achieved_makespan() / self.predicted_makespan
        }
    }
}

/// One task copy known to the simulator.
#[derive(Debug, Clone)]
struct CopyState {
    task: TaskId,
    proc: ProcId,
    primary: bool,
    /// Predicted start (used only to fix per-processor execution order).
    predicted_start: f64,
    /// Predicted finish (used to choose which copy feeds which consumer).
    predicted_finish: f64,
    /// Inputs not yet arrived at `proc`.
    missing_inputs: usize,
    /// Latest input arrival so far.
    ready_at: f64,
    started: bool,
}

/// Events, ordered by time then sequence for determinism.
#[derive(Debug, Clone, Copy)]
enum EventKind {
    /// A task copy finished executing.
    TaskDone { copy: usize },
    /// A message finished crossing one link and is ready for the next.
    MsgHop { msg: usize, hop: usize },
}

#[derive(Debug, Clone, Copy)]
struct Event {
    time: f64,
    seq: u64,
    kind: EventKind,
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for Event {}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Event {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert for earliest-first.
        other
            .time
            .total_cmp(&self.time)
            .then(other.seq.cmp(&self.seq))
    }
}

#[derive(Debug, Clone)]
struct Message<'a> {
    /// Directed links along the route, borrowed from the machine's routing
    /// table — the simulator allocates no per-message route storage.
    route: &'a [LinkId],
    src: ProcId,
    dst: ProcId,
    volume: f64,
    /// Destination copies whose input count this message satisfies.
    dst_copies: Vec<usize>,
    /// When the producing task finished.
    inject: f64,
}

/// Simulates `schedule` executing `g` on `m`. The schedule must cover all
/// tasks (it is re-checked here because simulation is often run on
/// schedules loaded from files).
///
/// ```
/// use banger_machine::{Machine, MachineParams, Topology};
/// use banger_sim::simulate;
/// use banger_taskgraph::generators;
/// let g = generators::gauss_elimination(4, 2.0, 1.0);
/// let m = Machine::new(Topology::hypercube(2), MachineParams::default());
/// let s = banger_sched::mh::mh(&g, &m);
/// let r = simulate(&g, &m, &s).unwrap();
/// assert!(r.compare() >= 0.99); // MH's prediction holds up
/// ```
pub fn simulate(g: &TaskGraph, m: &Machine, schedule: &Schedule) -> Result<SimResult, SimError> {
    simulate_within(g, m, schedule, MAX_EVENTS)
}

/// [`simulate`] with an event budget of `max_events`.
fn simulate_within(
    g: &TaskGraph,
    m: &Machine,
    schedule: &Schedule,
    max_events: u64,
) -> Result<SimResult, SimError> {
    // ---- Build copy table --------------------------------------------
    let mut copies: Vec<CopyState> = Vec::new();
    let mut copies_of: Vec<Vec<usize>> = vec![Vec::new(); g.task_count()];
    for p in schedule.placements() {
        copies_of[p.task.index()].push(copies.len());
        copies.push(CopyState {
            task: p.task,
            proc: p.proc,
            primary: p.primary,
            predicted_start: p.start,
            predicted_finish: p.finish,
            missing_inputs: g.in_degree(p.task),
            ready_at: 0.0,
            started: false,
        });
    }
    for t in g.task_ids() {
        if copies_of[t.index()].is_empty() {
            return Err(SimError::Unplaced(t));
        }
    }

    // ---- Wire producers to consumers ---------------------------------
    // For each consumer copy and each in-edge, pick the producer copy with
    // the cheapest predicted arrival; group messages per (producer copy,
    // destination processor) so a producer sends one message per distinct
    // destination per edge.
    // feeds[producer_copy] = list of (edge volume, dst proc, dst copies)
    #[derive(Clone)]
    struct Feed {
        volume: f64,
        dst: ProcId,
        dst_copies: Vec<usize>,
    }
    let mut feeds: Vec<Vec<Feed>> = vec![Vec::new(); copies.len()];
    for (ci, c) in copies.iter().enumerate() {
        for &e in g.in_edges(c.task) {
            let edge = g.edge(e);
            // Cheapest predicted source copy.
            let src_copy = copies_of[edge.src.index()]
                .iter()
                .copied()
                .min_by(|&a, &b| {
                    let pa = predicted_arrival(&copies[a], c.proc, edge.volume, m);
                    let pb = predicted_arrival(&copies[b], c.proc, edge.volume, m);
                    pa.total_cmp(&pb).then(a.cmp(&b))
                })
                .expect("every task has a copy");
            if copies[src_copy].proc == c.proc {
                continue; // local: handled at TaskDone with zero delay
            }
            if m.routing().hops(copies[src_copy].proc, c.proc).is_none() {
                return Err(SimError::NoRoute(copies[src_copy].proc, c.proc));
            }
            // Merge into an existing feed to the same destination with the
            // same volume class (one message per edge per destination).
            let fs = &mut feeds[src_copy];
            if let Some(f) = fs
                .iter_mut()
                .find(|f| f.dst == c.proc && f.volume == edge.volume && !f.dst_copies.contains(&ci))
            {
                f.dst_copies.push(ci);
            } else {
                fs.push(Feed {
                    volume: edge.volume,
                    dst: c.proc,
                    dst_copies: vec![ci],
                });
            }
        }
    }
    // Local hand-offs: consumer copies fed by a same-proc producer copy.
    // local_feeds[producer_copy] = consumer copies satisfied at finish.
    let mut local_feeds: Vec<Vec<usize>> = vec![Vec::new(); copies.len()];
    for (ci, c) in copies.iter().enumerate() {
        for &e in g.in_edges(c.task) {
            let edge = g.edge(e);
            let src_copy = copies_of[edge.src.index()]
                .iter()
                .copied()
                .min_by(|&a, &b| {
                    let pa = predicted_arrival(&copies[a], c.proc, edge.volume, m);
                    let pb = predicted_arrival(&copies[b], c.proc, edge.volume, m);
                    pa.total_cmp(&pb).then(a.cmp(&b))
                })
                .unwrap();
            if copies[src_copy].proc == c.proc {
                local_feeds[src_copy].push(ci);
            }
        }
    }

    // ---- Per-processor execution order (predicted start order) -------
    let nprocs = m.processors();
    let mut proc_queue: Vec<Vec<usize>> = vec![Vec::new(); nprocs];
    for (ci, c) in copies.iter().enumerate() {
        proc_queue[c.proc.index()].push(ci);
    }
    for q in &mut proc_queue {
        q.sort_by(|&a, &b| {
            copies[a]
                .predicted_start
                .total_cmp(&copies[b].predicted_start)
                .then(a.cmp(&b))
        });
    }
    let mut proc_next: Vec<usize> = vec![0; nprocs];
    let mut proc_free: Vec<f64> = vec![0.0; nprocs];

    // ---- Event loop ----------------------------------------------------
    let mut heap: BinaryHeap<Event> = BinaryHeap::new();
    let mut seq = 0u64;
    let mut stats = SimStats::default();
    let mut messages: Vec<Message<'_>> = Vec::new();
    let mut msg_records: Vec<MsgRecord> = Vec::new();
    // Dense per-link busy horizon, indexed by LinkId.
    let mut link_free: Vec<f64> = vec![0.0; m.routing().directed_links()];
    let mut achieved = Schedule::new(format!("{}+sim", schedule.heuristic()), g.task_count());
    let mut remaining = copies.len();

    let hop_extra = match m.params().switching {
        SwitchingMode::StoreAndForward => 0.0,
        SwitchingMode::CutThrough { hop_latency } => hop_latency,
    };

    // Try to start the next task(s) on processor `p` at time `now`.
    // Returns events to push.
    macro_rules! try_dispatch {
        ($p:expr, $now:expr) => {{
            let pi: usize = $p;
            loop {
                let Some(&ci) = proc_queue[pi].get(proc_next[pi]) else {
                    break;
                };
                let c = &copies[ci];
                if c.started || c.missing_inputs > 0 {
                    break; // schedule order: wait for this copy's inputs
                }
                let (task, primary, ready_at) = (c.task, c.primary, c.ready_at);
                let start = ready_at.max(proc_free[pi]).max($now);
                let dur = m.exec_time(g.task(task).weight, ProcId(pi as u32));
                let finish = start + dur;
                copies[ci].started = true;
                proc_next[pi] += 1;
                proc_free[pi] = finish;
                achieved.place(task, ProcId(pi as u32), start, finish, primary);
                seq += 1;
                heap.push(Event {
                    time: finish,
                    seq,
                    kind: EventKind::TaskDone { copy: ci },
                });
            }
        }};
    }

    for p in 0..nprocs {
        try_dispatch!(p, 0.0);
    }

    while let Some(ev) = heap.pop() {
        stats.events += 1;
        if stats.events > max_events {
            return Err(SimError::EventLimit(max_events));
        }
        match ev.kind {
            EventKind::TaskDone { copy } => {
                remaining -= 1;
                let finish = ev.time;
                let proc = copies[copy].proc;
                // Local hand-offs.
                for &dst in &local_feeds[copy].clone() {
                    let d = &mut copies[dst];
                    d.missing_inputs -= 1;
                    d.ready_at = d.ready_at.max(finish);
                }
                try_dispatch!(proc.index(), finish);
                // Inject network messages.
                for f in &feeds[copy] {
                    let route = m.routing().link_slice(proc, f.dst);
                    debug_assert!(!route.is_empty());
                    let msg_id = messages.len();
                    messages.push(Message {
                        route,
                        src: proc,
                        dst: f.dst,
                        volume: f.volume,
                        dst_copies: f.dst_copies.clone(),
                        inject: finish,
                    });
                    stats.messages += 1;
                    // The message enters the first link after the startup
                    // cost; MsgHop(hop=0) fires when the first link crossing
                    // completes.
                    let inject = finish + m.params().msg_startup;
                    let link = route[0];
                    let begin = inject.max(link_free[link.index()]);
                    stats.queue_delay += begin - inject;
                    let transfer = m.link_transfer_time(f.volume);
                    link_free[link.index()] = begin + transfer;
                    stats.hops += 1;
                    seq += 1;
                    heap.push(Event {
                        time: begin + transfer,
                        seq,
                        kind: EventKind::MsgHop {
                            msg: msg_id,
                            hop: 0,
                        },
                    });
                }
                // A finished task may unblock nothing locally but free the
                // processor for the next queued copy (handled above).
            }
            EventKind::MsgHop { msg, hop } => {
                let now = ev.time;
                let msgref = &messages[msg];
                if hop + 1 < msgref.route.len() {
                    // Cross the next link.
                    let link = msgref.route[hop + 1];
                    let depart = now + hop_extra;
                    let begin = depart.max(link_free[link.index()]);
                    stats.queue_delay += begin - depart;
                    let transfer = m.link_transfer_time(msgref.volume);
                    link_free[link.index()] = begin + transfer;
                    stats.hops += 1;
                    seq += 1;
                    heap.push(Event {
                        time: begin + transfer,
                        seq,
                        kind: EventKind::MsgHop { msg, hop: hop + 1 },
                    });
                } else {
                    // Arrived at the destination processor. The per-hop
                    // latency applies to every hop (matching
                    // Machine::comm_time), including the final one.
                    let arrival = now + hop_extra;
                    msg_records.push(MsgRecord {
                        src: msgref.src,
                        dst: msgref.dst,
                        inject: msgref.inject,
                        arrival,
                        volume: msgref.volume,
                    });
                    let dsts = msgref.dst_copies.clone();
                    let mut procs_to_poke: Vec<usize> = Vec::new();
                    for dst in dsts {
                        let d = &mut copies[dst];
                        d.missing_inputs -= 1;
                        d.ready_at = d.ready_at.max(arrival);
                        procs_to_poke.push(d.proc.index());
                    }
                    procs_to_poke.sort_unstable();
                    procs_to_poke.dedup();
                    for p in procs_to_poke {
                        try_dispatch!(p, arrival);
                    }
                }
            }
        }
    }

    if remaining > 0 {
        return Err(SimError::Deadlock);
    }

    msg_records.sort_by(|a, b| {
        a.inject
            .total_cmp(&b.inject)
            .then(a.arrival.total_cmp(&b.arrival))
    });
    Ok(SimResult {
        achieved,
        predicted_makespan: schedule.makespan(),
        stats,
        messages: msg_records,
    })
}

/// Predicted arrival of data from `src` copy to processor `dst` using the
/// analytic machine formula and the schedule's predicted times — used only
/// to choose which copy feeds which consumer.
fn predicted_arrival(src: &CopyState, dst: ProcId, volume: f64, m: &Machine) -> f64 {
    src.predicted_finish + m.comm_time(src.proc, dst, volume)
}

#[cfg(test)]
mod tests {
    use super::*;
    use banger_machine::{MachineParams, Topology};
    use banger_sched::{dsh::dsh, list, mh::mh};
    use banger_taskgraph::generators;

    fn sim(g: &TaskGraph, m: &Machine, s: &Schedule) -> SimResult {
        simulate(g, m, s).unwrap()
    }

    #[test]
    fn serial_schedule_simulates_exactly() {
        let g = generators::gauss_elimination(4, 2.0, 1.0);
        let m = Machine::new(Topology::single(), MachineParams::default());
        let s = list::serial(&g, &m);
        let r = sim(&g, &m, &s);
        assert!((r.compare() - 1.0).abs() < 1e-9, "ratio {}", r.compare());
        assert_eq!(r.stats.messages, 0);
        r.achieved.validate(&g, &m).unwrap();
    }

    #[test]
    fn contention_free_schedule_matches_prediction() {
        // Independent tasks: no messages, so ETF's analytic prediction is
        // exact.
        let g = generators::independent(8, 5.0);
        let m = Machine::new(Topology::fully_connected(4), MachineParams::default());
        let s = list::etf(&g, &m);
        let r = sim(&g, &m, &s);
        assert!((r.compare() - 1.0).abs() < 1e-9);
        assert_eq!(r.stats.messages, 0);
    }

    #[test]
    fn messages_counted_and_achieved_valid() {
        let g = generators::fork_join(4, 1.0, 6.0, 1.0, 3.0);
        let m = Machine::new(
            Topology::hypercube(2),
            MachineParams {
                msg_startup: 0.5,
                ..MachineParams::default()
            },
        );
        let s = list::etf(&g, &m);
        let r = sim(&g, &m, &s);
        if s.processors_used() > 1 {
            assert!(r.stats.messages > 0);
        }
        r.achieved.validate(&g, &m).unwrap();
        // Achieved can never beat the analytic prediction's physics.
        assert!(r.compare() >= 1.0 - 1e-9, "ratio {}", r.compare());
    }

    #[test]
    fn mh_prediction_tracks_simulation_closely() {
        // MH models hops and link contention, so its prediction should be
        // within a small factor of the simulated truth.
        let g = generators::gauss_elimination(6, 3.0, 4.0);
        for topo in [
            Topology::hypercube(2),
            Topology::mesh(2, 2),
            Topology::ring(4),
        ] {
            let m = Machine::new(
                topo,
                MachineParams {
                    msg_startup: 0.5,
                    ..MachineParams::default()
                },
            );
            let s = mh(&g, &m);
            let r = sim(&g, &m, &s);
            assert!(
                r.compare() < 1.5,
                "{}: achieved/predicted = {}",
                m.topology().name(),
                r.compare()
            );
        }
    }

    #[test]
    fn duplication_schedules_simulate() {
        let g = generators::fork_join(4, 2.0, 10.0, 2.0, 15.0);
        let m = Machine::new(
            Topology::fully_connected(4),
            MachineParams {
                msg_startup: 1.0,
                ..MachineParams::default()
            },
        );
        let s = dsh(&g, &m);
        let r = sim(&g, &m, &s);
        r.achieved.validate(&g, &m).unwrap();
        // Duplicates execute, so the achieved schedule has as many
        // placements as the input.
        assert_eq!(r.achieved.placements().len(), s.placements().len());
    }

    #[test]
    fn queue_delay_appears_under_contention() {
        // Two big messages must cross the same star hub link.
        let mut g = TaskGraph::new("clash");
        let a = g.add_task("a", 1.0);
        let b = g.add_task("b", 1.0);
        let c = g.add_task("c", 1.0);
        g.add_edge(a, c, 50.0, "m1").unwrap();
        g.add_edge(b, c, 50.0, "m2").unwrap();
        let m = Machine::new(Topology::star(4), MachineParams::default());
        // Force a bad manual placement: a on P1, b on P2, c on P3.
        let mut s = Schedule::new("manual", 3);
        s.place(a, ProcId(1), 0.0, 1.0, true);
        s.place(b, ProcId(2), 0.0, 1.0, true);
        // analytic comm = 2 hops * 50 = 100 => c may start at 101
        s.place(c, ProcId(3), 101.0, 102.0, true);
        s.validate(&g, &m).unwrap();
        let r = sim(&g, &m, &s);
        // Hub link P0->P3 is shared: second transfer queues 50 units.
        assert!(r.stats.queue_delay > 0.0);
        assert!(r.achieved_makespan() > s.makespan());
    }

    #[test]
    fn incomplete_schedule_rejected() {
        let mut g = TaskGraph::new("two");
        g.add_task("a", 1.0);
        let b = g.add_task("b", 1.0);
        let m = Machine::new(Topology::single(), MachineParams::default());
        let mut s = Schedule::new("partial", 2);
        s.place(TaskId(0), ProcId(0), 0.0, 1.0, true);
        assert_eq!(simulate(&g, &m, &s), Err(SimError::Unplaced(b)));
    }

    #[test]
    fn no_route_rejected() {
        let mut g = TaskGraph::new("pair");
        let a = g.add_task("a", 1.0);
        let b = g.add_task("b", 1.0);
        g.add_edge(a, b, 5.0, "x").unwrap();
        let t = Topology::from_edges("split", 2, &[]).unwrap();
        let m = Machine::new(t, MachineParams::default());
        let mut s = Schedule::new("manual", 2);
        s.place(a, ProcId(0), 0.0, 1.0, true);
        s.place(b, ProcId(1), 100.0, 101.0, true);
        assert_eq!(
            simulate(&g, &m, &s),
            Err(SimError::NoRoute(ProcId(0), ProcId(1)))
        );
    }

    #[test]
    fn cut_through_matches_analytic_when_uncontended() {
        // A single chain of cross-processor messages on a cut-through
        // machine: the simulated arrival must equal Machine::comm_time.
        let g = generators::chain(4, 2.0, 6.0);
        let m = Machine::new(
            Topology::linear(4),
            MachineParams {
                msg_startup: 0.5,
                transmission_rate: 3.0,
                switching: banger_machine::SwitchingMode::CutThrough { hop_latency: 0.25 },
                ..MachineParams::default()
            },
        );
        // Place each task on its own processor, spaced exactly at the
        // analytic arrival times.
        let mut s = Schedule::new("manual", 4);
        let mut start = 0.0;
        for i in 0..4u32 {
            let p = ProcId(i);
            let finish = start + m.exec_time(2.0, p);
            s.place(TaskId(i), p, start, finish, true);
            if i < 3 {
                start = finish + m.comm_time(p, ProcId(i + 1), 6.0);
            }
        }
        s.validate(&g, &m).unwrap();
        let r = simulate(&g, &m, &s).unwrap();
        assert!(
            (r.compare() - 1.0).abs() < 1e-9,
            "cut-through uncontended must be exact: {}",
            r.compare()
        );
        // Message records carry the right arrivals.
        for rec in &r.messages {
            let want = rec.inject + m.comm_time(rec.src, rec.dst, rec.volume);
            assert!((rec.arrival - want).abs() < 1e-9);
        }
    }

    #[test]
    fn event_limit_enforced() {
        let g = generators::gauss_elimination(6, 2.0, 1.0);
        let m = Machine::new(Topology::hypercube(2), MachineParams::default());
        let s = banger_sched::mh::mh(&g, &m);
        let err = simulate_within(&g, &m, &s, 3).unwrap_err();
        assert_eq!(err, SimError::EventLimit(3));
    }

    #[test]
    fn deterministic() {
        let g = generators::lattice(3, 3, 2.0, 3.0);
        let m = Machine::new(Topology::mesh(2, 2), MachineParams::default());
        let s = mh(&g, &m);
        let r1 = sim(&g, &m, &s);
        let r2 = sim(&g, &m, &s);
        assert_eq!(r1, r2);
    }

    #[test]
    fn all_heuristics_simulate_on_all_topologies() {
        let g = generators::gauss_elimination(5, 2.0, 2.0);
        for topo in [
            Topology::hypercube(2),
            Topology::mesh(2, 2),
            Topology::star(4),
            Topology::tree(2, 1),
            Topology::fully_connected(4),
            Topology::ring(4),
        ] {
            let m = Machine::new(
                topo,
                MachineParams {
                    msg_startup: 0.3,
                    process_startup: 0.1,
                    ..MachineParams::default()
                },
            );
            for name in banger_sched::HEURISTIC_NAMES {
                let s = banger_sched::run_heuristic(name, &g, &m).unwrap();
                let r = simulate(&g, &m, &s)
                    .unwrap_or_else(|e| panic!("{name} on {}: {e}", m.topology().name()));
                r.achieved
                    .validate(&g, &m)
                    .unwrap_or_else(|e| panic!("{name}: {e}"));
            }
        }
    }
}
