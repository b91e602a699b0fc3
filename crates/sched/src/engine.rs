//! Shared list-scheduling machinery: one run-coalesced timeline with
//! insertion-based slot search for processors and links alike,
//! data-arrival computation (analytic and link-contention models), and
//! the mutable engine state every heuristic drives.

use crate::schedule::{SchedStats, Schedule, TIME_EPS};
use banger_machine::{LinkId, Machine, ProcId, SwitchingMode};
use banger_taskgraph::analysis::ArcTable;
use banger_taskgraph::TaskId;

/// Busy intervals of one resource — a processor or a directed link —
/// with insertion-based slot search.
///
/// Both lists hold `(start, reach)` pairs sorted by start, where `reach`
/// is the latest finish of any interval starting at or before that
/// entry. `busy` has one entry per interval. `runs` keeps only the entry
/// that opens each maximal *run* — an interval starts a run when its
/// start lies beyond every earlier finish — and gives it the reach of the
/// run's last interval, so a saturated timeline of ten thousand abutting
/// intervals is one run. Link reservations may overlap freely (the
/// messages of one commit are costed independently), which is why the
/// lists carry the running maximum and not each interval's own finish:
/// it makes both columns sorted, whatever the overlaps.
#[derive(Debug, Clone, Default)]
pub struct Timeline {
    busy: Vec<(f64, f64)>,
    runs: Vec<(f64, f64)>,
}

/// The front-to-back slot scan over a `(start, reach)` list: the earliest
/// `candidate >= ready` with `candidate + dur <= start + TIME_EPS` at
/// some entry, pushed to the reach of every entry passed on the way; when
/// nothing fits, the later of `ready` and the last reach.
///
/// A binary search skips the prefix of entries that can neither host the
/// job (they end at or before `ready` and leave no usable gap) nor push
/// the candidate forward. Both conjuncts of the skip predicate are
/// monotone over a list sorted in both columns, and skipped entries leave
/// the scan state unchanged, so the result is that of the scan from the
/// front.
fn scan(list: &[(f64, f64)], ready: f64, dur: f64) -> f64 {
    let skip =
        list.partition_point(|&(start, reach)| reach <= ready && start + TIME_EPS < ready + dur);
    let mut candidate = ready;
    for &(start, reach) in &list[skip..] {
        if candidate + dur <= start + TIME_EPS {
            return candidate;
        }
        if reach > candidate {
            candidate = reach;
        }
    }
    candidate
}

impl Timeline {
    /// Earliest start `>= ready` of a free slot of length `dur`, using
    /// insertion between existing intervals (the classic insertion-based
    /// variant; an append-only policy falls out when gaps never fit).
    ///
    /// Inside a run every interval starts at or before the candidate the
    /// scan carries there, so it can host the job only if `candidate + dur
    /// <= start + TIME_EPS` with `candidate >= start`: `dur` within
    /// `TIME_EPS` plus the rounding of the two sums. A longer job can
    /// start only where a run starts, and scanning the runs gives the
    /// scan of the intervals bit for bit at a cost of `O(log runs + gaps
    /// that do not fit)`. The rest — zero-weight tasks, and times so large
    /// that an ulp exceeds `TIME_EPS` — scan the intervals.
    ///
    /// A probe at or past the last finish returns `ready` at once: every
    /// entry then has `start <= reach <= ready`, so the scan, its
    /// candidate still at `ready`, either returns `ready` before an entry
    /// or passes the entry without pushing the candidate.
    pub fn earliest_slot(&self, ready: f64, dur: f64) -> f64 {
        if ready >= self.last_finish() {
            return ready;
        }
        // Both sums round by at most half an ulp of a value below
        // `horizon + dur + TIME_EPS`; twice `f64::EPSILON` of that is four
        // times the bound the proof needs (DESIGN.md §14).
        let horizon = self.last_finish().max(ready);
        let only_run_starts_fit = dur - TIME_EPS > 2.0 * f64::EPSILON * (horizon + dur + TIME_EPS);
        let list = if only_run_starts_fit {
            &self.runs
        } else {
            &self.busy
        };
        scan(list, ready, dur)
    }

    /// True when `[start, finish]` overlaps neither neighbour by more than
    /// `TIME_EPS` — what a processor's timeline must hold for every
    /// reservation; a link's need not.
    fn is_free(&self, start: f64, finish: f64) -> bool {
        let idx = self.busy.partition_point(|&(s, _)| s < start);
        (idx == 0 || self.busy[idx - 1].1 <= start + TIME_EPS)
            && (idx == self.busy.len() || finish <= self.busy[idx].0 + TIME_EPS)
    }

    /// Commits the interval `[start, finish]`; overlaps are allowed.
    pub fn reserve(&mut self, start: f64, finish: f64) {
        let idx = self.busy.partition_point(|&(s, _)| s < start);
        let reach = match idx {
            0 => finish,
            _ => self.busy[idx - 1].1.max(finish),
        };
        self.busy.insert(idx, (start, reach));
        for later in &mut self.busy[idx + 1..] {
            if later.1 >= finish {
                break;
            }
            later.1 = finish;
        }

        // The runs the interval touches (a shared endpoint counts, as in
        // the scan) merge with it into one; with none, it is a run.
        let lo = self.runs.partition_point(|&(_, reach)| reach < start);
        let hi = self.runs.partition_point(|&(s, _)| s <= finish);
        if lo == hi {
            self.runs.insert(lo, (start, finish));
        } else {
            self.runs[lo] = (self.runs[lo].0.min(start), self.runs[hi - 1].1.max(finish));
            self.runs.drain(lo + 1..hi);
        }
    }

    /// Latest finish of any committed interval (0 when idle forever).
    pub fn last_finish(&self) -> f64 {
        self.runs.last().map_or(0.0, |&(_, reach)| reach)
    }
}

/// Busy intervals per directed link, for contention-aware estimates.
/// Timelines are held in a dense table indexed by [`LinkId`], sized for one
/// machine by [`LinkState::for_machine`].
#[derive(Debug, Clone)]
pub struct LinkState {
    links: Vec<Timeline>,
}

/// A tentative link reservation produced while costing a message route.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkReservation {
    /// The directed link's dense index.
    pub link: LinkId,
    /// Occupancy start.
    pub start: f64,
    /// Occupancy end.
    pub end: f64,
}

impl LinkState {
    /// An empty occupancy table covering every directed link of `m`.
    pub fn for_machine(m: &Machine) -> Self {
        LinkState {
            links: vec![Timeline::default(); m.routing().directed_links()],
        }
    }

    /// Commits a reservation.
    pub fn reserve(&mut self, r: LinkReservation) {
        self.links[r.link.index()].reserve(r.start, r.end);
    }

    /// Arrival time of a message of `volume` units departing at `depart`
    /// along the precomputed link `route` (see
    /// [`banger_machine::RoutingTable::link_slice`]) under store-and-forward
    /// link occupancy. Pure probe: allocates nothing and reserves nothing.
    /// An empty route means a local transfer and returns `depart` unchanged.
    ///
    /// The message startup cost is paid once at injection. Under
    /// [`SwitchingMode::CutThrough`] the per-hop transmission collapses to
    /// the hop latency plus a single transfer charged on every link
    /// simultaneously; we conservatively occupy each link for the full
    /// transfer time.
    pub fn route_arrival(&self, m: &Machine, route: &[LinkId], depart: f64, volume: f64) -> f64 {
        if route.is_empty() {
            return depart;
        }
        let transfer = m.link_transfer_time(volume);
        let hop_extra = match m.params().switching {
            SwitchingMode::StoreAndForward => 0.0,
            SwitchingMode::CutThrough { hop_latency } => hop_latency,
        };
        let mut t = depart + m.params().msg_startup;
        for &link in route {
            let start = self.links[link.index()].earliest_slot(t, transfer);
            t = start + transfer + hop_extra;
        }
        t
    }

    /// Like [`LinkState::route_arrival`], but also appends the per-hop
    /// reservations the transfer would make onto `out` (the caller's
    /// reusable scratch buffer), so a commit can reserve them.
    pub fn route_message(
        &self,
        m: &Machine,
        route: &[LinkId],
        depart: f64,
        volume: f64,
        out: &mut Vec<LinkReservation>,
    ) -> f64 {
        if route.is_empty() {
            return depart;
        }
        let transfer = m.link_transfer_time(volume);
        let hop_extra = match m.params().switching {
            SwitchingMode::StoreAndForward => 0.0,
            SwitchingMode::CutThrough { hop_latency } => hop_latency,
        };
        let mut t = depart + m.params().msg_startup;
        for &link in route {
            let start = self.links[link.index()].earliest_slot(t, transfer);
            let end = start + transfer;
            out.push(LinkReservation { link, start, end });
            t = end + hop_extra;
        }
        t
    }
}

/// How data-arrival times are estimated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommModel {
    /// The closed-form machine formula ([`Machine::comm_time`]); links are
    /// assumed contention-free.
    Analytic,
    /// Link-level store-and-forward occupancy tracked in a [`LinkState`]
    /// (the Mapping Heuristic's model).
    Contention,
}

/// One committed copy of a task.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Copy {
    /// The processor holding the copy.
    pub proc: ProcId,
    /// When the copy finishes.
    pub finish: f64,
}

/// Marks a task with no committed copy in [`Primary::proc`].
const UNPLACED: ProcId = ProcId(u32::MAX);
/// Marks a task with no duplicate in [`Primary::duplicates`].
const NO_DUPLICATES: u32 = u32::MAX;

/// A task's primary copy as the engine stores it, flat: one entry per
/// task, no allocation per commit. `duplicates` indexes the task's list in
/// [`Engine`]'s side table of duplicates, which only DSH fills.
#[derive(Debug, Clone, Copy)]
struct Primary {
    proc: ProcId,
    duplicates: u32,
    finish: f64,
}

/// Mutable state of a scheduling run.
pub struct Engine<'a> {
    /// The design being scheduled, as its flat arc table.
    pub arcs: &'a ArcTable,
    /// The target machine.
    pub m: &'a Machine,
    /// One timeline per processor.
    pub timelines: Vec<Timeline>,
    /// Link occupancy (only consulted under [`CommModel::Contention`]).
    pub links: LinkState,
    /// The communication model in force.
    pub comm: CommModel,
    /// Per task, its primary copy ([`UNPLACED`] until the first commit).
    primaries: Vec<Primary>,
    /// The duplicates of the tasks that have any, each list in commit
    /// order.
    duplicates: Vec<Vec<Copy>>,
    schedule: Schedule,
    /// Reusable buffer for commit-path link reservations, so probing and
    /// committing allocate nothing per `(task, proc)` evaluation.
    scratch: Vec<LinkReservation>,
    /// Reusable per-processor row for [`Engine::best_processor`].
    row: Vec<f64>,
    /// Per-run probe counters, embedded into the schedule by
    /// [`Engine::finish`] as [`SchedStats`]. Strictly per-run: concurrent
    /// sweep workers never share a counter, so every schedule reports
    /// exactly the probes its own run performed.
    arrival_probes: std::cell::Cell<u64>,
    slot_searches: std::cell::Cell<u64>,
}

impl<'a> Engine<'a> {
    /// Creates an engine for one heuristic run over the graph whose arcs
    /// are `arcs`.
    pub fn new(name: &str, arcs: &'a ArcTable, m: &'a Machine, comm: CommModel) -> Self {
        let n = arcs.task_count();
        Engine {
            arcs,
            m,
            timelines: vec![Timeline::default(); m.processors()],
            links: LinkState::for_machine(m),
            comm,
            primaries: vec![
                Primary {
                    proc: UNPLACED,
                    duplicates: NO_DUPLICATES,
                    finish: 0.0,
                };
                n
            ],
            duplicates: Vec::new(),
            schedule: Schedule::new(name, n),
            scratch: Vec::new(),
            row: vec![0.0; m.processors()],
            arrival_probes: std::cell::Cell::new(0),
            slot_searches: std::cell::Cell::new(0),
        }
    }

    /// The duplicates of `t`, in commit order.
    #[inline]
    fn duplicates_of(&self, t: TaskId) -> &[Copy] {
        match self.primaries[t.index()].duplicates {
            NO_DUPLICATES => &[],
            list => &self.duplicates[list as usize],
        }
    }

    /// True when some copy of `t` is committed on `p`.
    pub fn has_copy_on(&self, t: TaskId, p: ProcId) -> bool {
        self.primaries[t.index()].proc == p || self.duplicates_of(t).iter().any(|c| c.proc == p)
    }

    /// True once the task has at least one committed copy.
    pub fn placed(&self, t: TaskId) -> bool {
        self.primaries[t.index()].proc != UNPLACED
    }

    /// Arrival time at `p` of a message of `volume` sent by a copy on
    /// `from` finishing at `finish`, probe only.
    #[inline]
    fn copy_arrival(&self, from: ProcId, finish: f64, volume: f64, p: ProcId) -> f64 {
        if from == p {
            return finish;
        }
        match self.comm {
            CommModel::Analytic => finish + self.m.comm_time(from, p, volume),
            CommModel::Contention => {
                let route = self.m.routing().link_slice(from, p);
                if route.is_empty() {
                    // Distinct processors with no route: unreachable.
                    f64::INFINITY
                } else {
                    self.links.route_arrival(self.m, route, finish, volume)
                }
            }
        }
    }

    /// Earliest time the data of edge `pred -> t` can be present on `p`,
    /// taking the cheapest committed copy of the predecessor: the first
    /// copy with the strictly smallest arrival. Pure probe: allocates
    /// nothing. Panics if `pred` has not been placed yet — heuristics must
    /// respect topological readiness. [`Engine::commit`] re-derives the
    /// winning route's reservations when it actually places a task.
    pub fn edge_arrival(&self, pred: TaskId, volume: f64, p: ProcId) -> f64 {
        self.arrival_probes.set(self.arrival_probes.get() + 1);
        self.cheapest_copy(pred, volume, p).1
    }

    /// The copy of `pred` whose message reaches `p` first, if any arrives
    /// before infinity, and when.
    #[inline]
    fn cheapest_copy(&self, pred: TaskId, volume: f64, p: ProcId) -> (Option<Copy>, f64) {
        let primary = self.primaries[pred.index()];
        assert!(
            primary.proc != UNPLACED,
            "predecessor {pred} not yet placed"
        );
        let mut best = None;
        let mut arrival = f64::INFINITY;
        let first = self.copy_arrival(primary.proc, primary.finish, volume, p);
        if first < arrival {
            arrival = first;
            best = Some(Copy {
                proc: primary.proc,
                finish: primary.finish,
            });
        }
        for &c in self.duplicates_of(pred) {
            let a = self.copy_arrival(c.proc, c.finish, volume, p);
            if a < arrival {
                arrival = a;
                best = Some(c);
            }
        }
        (best, arrival)
    }

    /// Ready time of task `t` on processor `p`: the latest arrival over all
    /// inputs. Pure probe: allocates nothing. Panics if a predecessor has
    /// not been placed yet.
    pub fn ready_time(&self, t: TaskId, p: ProcId) -> f64 {
        let mut ready = 0.0f64;
        for &(src, volume) in self.arcs.inputs(t) {
            ready = ready.max(self.edge_arrival(src, volume, p));
        }
        ready
    }

    /// The ready time of `t` on every processor, into `row` (one entry per
    /// processor), in one pass over `t`'s inputs: each input's copies are
    /// read once and its arrival probed on every processor in turn.
    /// Each entry is [`Engine::ready_time`]'s, bit for bit — the same
    /// maxima over the same arrivals in the same order — and the probe
    /// count is the same.
    pub fn ready_times(&self, t: TaskId, row: &mut [f64]) {
        debug_assert_eq!(row.len(), self.m.processors());
        row.fill(0.0);
        let inputs = self.arcs.inputs(t);
        self.arrival_probes
            .set(self.arrival_probes.get() + (inputs.len() * row.len()) as u64);
        for &(src, volume) in inputs {
            for (p, ready) in self.m.proc_ids().zip(row.iter_mut()) {
                *ready = ready.max(self.cheapest_copy(src, volume, p).1);
            }
        }
    }

    /// Ready time plus every input's link reservations, appended onto `out`
    /// (the commit path's reusable scratch buffer).
    fn ready_time_with_reservations(
        &self,
        t: TaskId,
        p: ProcId,
        out: &mut Vec<LinkReservation>,
    ) -> f64 {
        let mut ready = 0.0f64;
        for &(src, volume) in self.arcs.inputs(t) {
            let (copy, arrival) = self.cheapest_copy(src, volume, p);
            if let Some(c) = copy.filter(|c| self.comm == CommModel::Contention && c.proc != p) {
                let route = self.m.routing().link_slice(c.proc, p);
                self.links
                    .route_message(self.m, route, c.finish, volume, out);
            }
            ready = ready.max(arrival);
        }
        ready
    }

    /// Timeline slot search on `p`, counted toward the probe totals — the
    /// entry point heuristics use instead of poking `timelines` directly.
    #[inline]
    pub fn slot(&self, p: ProcId, ready: f64, dur: f64) -> f64 {
        self.slot_searches.set(self.slot_searches.get() + 1);
        self.timelines[p.index()].earliest_slot(ready, dur)
    }

    /// Execution time of `t` on `p`.
    #[inline]
    pub fn exec_time(&self, t: TaskId, p: ProcId) -> f64 {
        self.m.exec_time(self.arcs.weight(t), p)
    }

    /// Earliest start of `t` on `p` given current state: ready time plus
    /// insertion slot search.
    pub fn earliest_start(&self, t: TaskId, p: ProcId) -> f64 {
        let ready = self.ready_time(t, p);
        self.slot(p, ready, self.exec_time(t, p))
    }

    /// Commits task `t` on processor `p` at the earliest feasible time,
    /// reserving links under the contention model. Returns the placement's
    /// `(start, finish)`. The first commit of a task is its primary copy;
    /// a later one is a duplicate.
    pub fn commit(&mut self, t: TaskId, p: ProcId) -> (f64, f64) {
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.clear();
        let ready = self.ready_time_with_reservations(t, p, &mut scratch);
        let dur = self.exec_time(t, p);
        let start = self.slot(p, ready, dur);
        let finish = start + dur;
        let timeline = &mut self.timelines[p.index()];
        debug_assert!(timeline.is_free(start, finish), "overlapping reservation");
        timeline.reserve(start, finish);
        for &r in &scratch {
            self.links.reserve(r);
        }
        scratch.clear();
        self.scratch = scratch;
        let entry = &mut self.primaries[t.index()];
        let primary = entry.proc == UNPLACED;
        if primary {
            entry.proc = p;
            entry.finish = finish;
        } else {
            if entry.duplicates == NO_DUPLICATES {
                entry.duplicates = self.duplicates.len() as u32;
                self.duplicates.push(Vec::new());
            }
            self.duplicates[entry.duplicates as usize].push(Copy { proc: p, finish });
        }
        self.schedule.place(t, p, start, finish, primary);
        (start, finish)
    }

    /// Consumes the engine, returning the accumulated schedule with this
    /// run's probe counters embedded as [`SchedStats`].
    pub fn finish(self) -> Schedule {
        let mut schedule = self.schedule;
        schedule.set_stats(SchedStats {
            arrival_probes: self.arrival_probes.get(),
            slot_searches: self.slot_searches.get(),
        });
        schedule
    }

    /// Selects the processor minimising the earliest start of `t`
    /// (ties broken toward lower processor ids), the proc-selection rule
    /// shared by HLFET and MCP. The ready times come from one
    /// [`Engine::ready_times`] pass.
    pub fn best_processor(&mut self, t: TaskId) -> ProcId {
        let mut row = std::mem::take(&mut self.row);
        self.ready_times(t, &mut row);
        let mut best = ProcId(0);
        let mut best_start = f64::INFINITY;
        for (p, &ready) in self.m.proc_ids().zip(&row) {
            let s = self.slot(p, ready, self.exec_time(t, p));
            if s < best_start - TIME_EPS {
                best_start = s;
                best = p;
            }
        }
        self.row = row;
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use banger_machine::{MachineParams, Topology};
    use banger_taskgraph::TaskGraph;
    use proptest::prelude::*;

    #[test]
    fn timeline_appends_and_inserts() {
        let mut tl = Timeline::default();
        assert_eq!(tl.earliest_slot(0.0, 5.0), 0.0);
        tl.reserve(0.0, 5.0);
        assert_eq!(tl.earliest_slot(0.0, 5.0), 5.0);
        tl.reserve(10.0, 15.0);
        // gap [5, 10) fits a 4-unit job
        assert_eq!(tl.earliest_slot(0.0, 4.0), 5.0);
        // but not a 6-unit job
        assert_eq!(tl.earliest_slot(0.0, 6.0), 15.0);
        // ready time inside the gap
        assert_eq!(tl.earliest_slot(6.0, 3.0), 6.0);
        assert_eq!(tl.last_finish(), 15.0);
    }

    #[test]
    fn reserve_keeps_order_and_merges_the_runs_it_touches() {
        let mut tl = Timeline::default();
        tl.reserve(10.0, 12.0);
        tl.reserve(0.0, 2.0);
        tl.reserve(5.0, 7.0);
        assert_eq!(tl.busy, vec![(0.0, 2.0), (5.0, 7.0), (10.0, 12.0)]);
        assert_eq!(tl.runs, tl.busy);
        // Abutting on the left only: the middle run grows.
        tl.reserve(7.0, 9.0);
        assert_eq!(tl.runs, vec![(0.0, 2.0), (5.0, 9.0), (10.0, 12.0)]);
        // Abutting on both sides: three runs become one.
        tl.reserve(2.0, 5.0);
        assert_eq!(tl.runs, vec![(0.0, 9.0), (10.0, 12.0)]);
        // A link's reservation may overlap anything; every later entry
        // learns its finish.
        tl.reserve(1.0, 11.0);
        assert_eq!(tl.runs, vec![(0.0, 12.0)]);
        assert_eq!(
            tl.busy,
            vec![
                (0.0, 2.0),
                (1.0, 11.0),
                (2.0, 11.0),
                (5.0, 11.0),
                (7.0, 11.0),
                (10.0, 12.0)
            ]
        );
    }

    #[test]
    fn a_job_within_time_eps_starts_inside_a_run() {
        // Two abutting intervals are one run, and a zero-length job fits
        // at their shared boundary: the run list alone would answer 10.
        let mut tl = Timeline::default();
        tl.reserve(0.0, 5.0);
        tl.reserve(5.0, 10.0);
        assert_eq!(tl.runs, vec![(0.0, 10.0)]);
        assert_eq!(tl.earliest_slot(3.0, 0.0), 5.0);
        assert_eq!(tl.earliest_slot(3.0, TIME_EPS), 5.0);
        assert_eq!(tl.earliest_slot(3.0, 1.0), 10.0);
        // At 1e12 an ulp is 1.2e-4: a job of two TIME_EPS vanishes in the
        // rounding of `candidate + dur` and fits at the boundary as well.
        let far = 1e12;
        let mut tl = Timeline::default();
        tl.reserve(far, far + 1.0);
        tl.reserve(far + 1.0, far + 2.0);
        assert_eq!(tl.earliest_slot(far + 0.5, 2.0 * TIME_EPS), far + 1.0);
        assert_eq!(tl.earliest_slot(far + 0.5, 1.0), far + 2.0);
    }

    /// The scan a [`Timeline`] must reproduce: front to back over every
    /// `(start, finish)` interval, no skip and no index — the slot search
    /// as it stood before either, verbatim.
    #[derive(Default)]
    struct FullScan(Vec<(f64, f64)>);

    impl FullScan {
        fn earliest_slot(&self, ready: f64, dur: f64) -> f64 {
            let mut candidate = ready;
            for &(s, f) in &self.0 {
                if candidate + dur <= s + TIME_EPS {
                    return candidate;
                }
                if f > candidate {
                    candidate = f;
                }
            }
            candidate
        }

        fn reserve(&mut self, start: f64, finish: f64) {
            let idx = self.0.partition_point(|&(s, _)| s < start);
            self.0.insert(idx, (start, finish));
        }
    }

    const DURS: [f64; 5] = [0.0, 1e-9, TIME_EPS, 2.0 * TIME_EPS, 1.0];
    /// How far a probe aimed at a boundary is pushed past the exact fit.
    const NUDGES: [f64; 4] = [0.0, 0.5 * TIME_EPS, TIME_EPS, 1.5 * TIME_EPS];

    /// One step of a random timeline history: where the probe is aimed,
    /// a position in `[0, 1)`, indices into `DURS` and `NUDGES`, and
    /// whether the probed slot is then reserved.
    type Step = (u8, f64, usize, usize, bool);

    fn steps() -> impl Strategy<Value = Vec<Step>> {
        prop::collection::vec(
            (
                0u8..6,
                0.0f64..1.0,
                0..DURS.len(),
                0..NUDGES.len(),
                prop::bool::ANY,
            ),
            1..120,
        )
    }

    /// Times start at one of these: at 1e9 an ulp is 1.2e-7, a tenth of
    /// `TIME_EPS`; at 1e12 it is a hundred times `TIME_EPS`.
    fn origin() -> impl Strategy<Value = f64> {
        prop_oneof![Just(0.0), Just(1e3), Just(1e9), Just(1e12)]
    }

    /// Drives `steps` through a [`Timeline`] and the [`FullScan`] side by
    /// side and compares every probe with `==`. As a processor, what is
    /// reserved is the slot the probe returned, so intervals abut exactly
    /// and overlap by at most `TIME_EPS`. As a link, several messages are
    /// costed against one state and all reserved afterwards, as
    /// `Engine::commit` does, so intervals overlap freely.
    fn drive(origin: f64, sparse: bool, link: bool, steps: &[Step]) -> Result<(), TestCaseError> {
        let mut tl = Timeline::default();
        let mut full = FullScan::default();
        if sparse {
            // Insertion-heavy: gaps of every width up to 4, filled out of
            // order, for later probes to land in.
            for i in [7, 2, 9, 0, 4, 11, 5, 1, 8, 3, 10, 6] {
                let start = origin + 6.0 * f64::from(i);
                let finish = start + 2.0 + f64::from(i % 5);
                tl.reserve(start, finish);
                full.reserve(start, finish);
            }
        }
        let mut pending: Vec<(f64, f64)> = Vec::new();
        for &(aim, x, d, n, reserve) in steps {
            let dur = DURS[d];
            let pick = |list: &[(f64, f64)]| list.get((x * list.len() as f64) as usize).copied();
            let ready = match (aim, pick(&full.0)) {
                (0, _) | (_, None) => origin,
                (1, _) => origin + 80.0 * x,
                // Just fitting, or just not, before an interval's start.
                (2, Some((s, _))) => s - dur + NUDGES[n],
                // Exactly at, or a nudge before, an interval's finish.
                (3, Some((_, f))) => f - NUDGES[n],
                (4, Some((s, _))) => s + NUDGES[n],
                _ => tl.last_finish(),
            };
            let got = tl.earliest_slot(ready, dur);
            let want = full.earliest_slot(ready, dur);
            prop_assert!(
                got == want,
                "ready={ready:e} dur={dur:e}: got {got:e}, want {want:e}\n intervals {:?}\n {tl:?}",
                full.0
            );
            if link {
                // Longer than any probe, so reservations bury each other.
                pending.push((got, got + dur + 3.0 * x));
                if reserve {
                    for (start, finish) in pending.drain(..) {
                        tl.reserve(start, finish);
                        full.reserve(start, finish);
                    }
                }
            } else if reserve {
                tl.reserve(got, got + dur);
                full.reserve(got, got + dur);
            }
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn processor_timeline_matches_the_full_scan(
            origin in origin(),
            sparse in prop::bool::ANY,
            steps in steps(),
        ) {
            drive(origin, sparse, false, &steps)?;
        }

        #[test]
        fn link_timeline_matches_the_full_scan(
            origin in origin(),
            sparse in prop::bool::ANY,
            steps in steps(),
        ) {
            drive(origin, sparse, true, &steps)?;
        }
    }

    #[test]
    fn link_routing_charges_per_hop() {
        let m = Machine::new(
            Topology::linear(3),
            MachineParams {
                msg_startup: 1.0,
                transmission_rate: 2.0,
                ..MachineParams::default()
            },
        );
        let links = LinkState::for_machine(&m);
        let route = m.routing().link_slice(ProcId(0), ProcId(2));
        // 4 units at rate 2 = 2 per link; 2 hops; startup 1.
        let mut res = Vec::new();
        let arrival = links.route_message(&m, route, 0.0, 4.0, &mut res);
        assert!((arrival - 5.0).abs() < 1e-12);
        assert_eq!(links.route_arrival(&m, route, 0.0, 4.0), arrival);
        assert_eq!(res.len(), 2);
        assert_eq!(
            m.routing().link_endpoints(res[0].link),
            (ProcId(0), ProcId(1))
        );
        assert!((res[0].start - 1.0).abs() < 1e-12);
        assert!((res[1].start - 3.0).abs() < 1e-12);
    }

    #[test]
    fn link_contention_delays_second_message() {
        let m = Machine::new(Topology::linear(2), MachineParams::default());
        let mut links = LinkState::for_machine(&m);
        let route = m.routing().link_slice(ProcId(0), ProcId(1));
        let mut r1 = Vec::new();
        let a1 = links.route_message(&m, route, 0.0, 10.0, &mut r1);
        assert_eq!(a1, 10.0);
        for r in r1 {
            links.reserve(r);
        }
        // Second message must queue behind the first on the only link.
        let a2 = links.route_arrival(&m, route, 0.0, 10.0);
        assert_eq!(a2, 20.0);
    }

    #[test]
    fn local_message_is_free() {
        let m = Machine::new(Topology::linear(2), MachineParams::default());
        let links = LinkState::for_machine(&m);
        let route = m.routing().link_slice(ProcId(1), ProcId(1));
        let mut res = Vec::new();
        let a = links.route_message(&m, route, 3.0, 100.0, &mut res);
        assert_eq!(a, 3.0);
        assert!(res.is_empty());
    }

    #[test]
    fn engine_commit_and_est() {
        let mut g = TaskGraph::new("p");
        let a = g.add_task("a", 4.0);
        let b = g.add_task("b", 4.0);
        g.add_edge(a, b, 6.0, "x").unwrap();
        let m = Machine::new(Topology::fully_connected(2), MachineParams::default());
        let arcs = ArcTable::new(&g);
        let mut eng = Engine::new("test", &arcs, &m, CommModel::Analytic);
        assert!(!eng.placed(a));
        eng.commit(a, ProcId(0));
        assert!(eng.placed(a));
        // same proc: start at 4; other proc: 4 + 6 comm = 10
        assert_eq!(eng.earliest_start(b, ProcId(0)), 4.0);
        assert_eq!(eng.earliest_start(b, ProcId(1)), 10.0);
        assert_eq!(eng.best_processor(b), ProcId(0));
        eng.commit(b, ProcId(0));
        let s = eng.finish();
        s.validate(&g, &m).unwrap();
        assert_eq!(s.makespan(), 8.0);
    }

    #[test]
    fn engine_duplicate_copy_reduces_arrival() {
        let mut g = TaskGraph::new("p");
        let a = g.add_task("a", 4.0);
        let b = g.add_task("b", 4.0);
        g.add_edge(a, b, 6.0, "x").unwrap();
        let m = Machine::new(Topology::fully_connected(2), MachineParams::default());
        let arcs = ArcTable::new(&g);
        let mut eng = Engine::new("test", &arcs, &m, CommModel::Analytic);
        eng.commit(a, ProcId(0));
        eng.commit(a, ProcId(1)); // duplicate
                                  // now b on P1 sees the local copy
        assert_eq!(eng.earliest_start(b, ProcId(1)), 4.0);
        eng.commit(b, ProcId(1));
        let s = eng.finish();
        s.validate(&g, &m).unwrap();
        // first copy is primary
        assert_eq!(s.primary(a).unwrap().proc, ProcId(0));
    }

    #[test]
    #[should_panic(expected = "not yet placed")]
    fn unplaced_pred_panics() {
        let mut g = TaskGraph::new("p");
        let a = g.add_task("a", 4.0);
        let b = g.add_task("b", 4.0);
        g.add_edge(a, b, 6.0, "x").unwrap();
        let m = Machine::new(Topology::fully_connected(2), MachineParams::default());
        let arcs = ArcTable::new(&g);
        let eng = Engine::new("test", &arcs, &m, CommModel::Analytic);
        let _ = eng.ready_time(b, ProcId(0));
    }
}
