//! Schedules: the output of every heuristic, the input of the Gantt-chart
//! renderer and of the discrete-event simulator.
//!
//! A [`Schedule`] is a set of [`Placement`]s — `(task, processor, start,
//! finish)` tuples. Duplication heuristics may place the *same* task on
//! several processors, so a task can own more than one placement; exactly
//! one per task is its **primary** copy (the one whose result the design's
//! consumers are wired to by default).
//!
//! [`Schedule::validate`] checks the three schedule invariants against a
//! graph and machine:
//!
//! 1. every task has at least one placement, and durations equal the
//!    machine's predicted execution time;
//! 2. placements on one processor never overlap;
//! 3. every placement starts no earlier than, for each predecessor arc,
//!    the finish of *some* copy of the predecessor plus the machine's
//!    communication time from that copy's processor.

use banger_machine::{Machine, ProcId};
use banger_taskgraph::{TaskGraph, TaskId};
use std::fmt;

/// One task copy on one processor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Placement {
    /// The task being executed.
    pub task: TaskId,
    /// The processor it runs on.
    pub proc: ProcId,
    /// Start time.
    pub start: f64,
    /// Finish time (start + machine execution time).
    pub finish: f64,
    /// True for the designated primary copy of the task.
    pub primary: bool,
}

/// Why a schedule failed validation.
#[derive(Debug, Clone, PartialEq)]
pub enum ScheduleError {
    /// A task has no placement at all.
    Unplaced(TaskId),
    /// A task has no primary placement (or more than one).
    BadPrimary(TaskId),
    /// Two placements overlap on the same processor.
    Overlap {
        /// The processor where the overlap occurs.
        proc: ProcId,
        /// First of the two overlapping tasks.
        a: TaskId,
        /// Second of the two overlapping tasks.
        b: TaskId,
    },
    /// A placement's duration disagrees with the machine's execution time.
    WrongDuration {
        /// The offending task.
        task: TaskId,
        /// The duration implied by the placement.
        got: f64,
        /// The duration the machine model predicts.
        want: f64,
    },
    /// A placement starts before its inputs can arrive.
    PrecedenceViolated {
        /// The consuming task.
        task: TaskId,
        /// The predecessor whose data arrives too late.
        pred: TaskId,
        /// The placement's start time.
        start: f64,
        /// The earliest possible arrival over all copies of `pred`.
        earliest_arrival: f64,
    },
    /// A placement references a processor outside the machine.
    UnknownProcessor(ProcId),
    /// A placement has a negative start or non-finite bounds.
    BadTimes(TaskId),
}

impl fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScheduleError::Unplaced(t) => write!(f, "task {t} was never placed"),
            ScheduleError::BadPrimary(t) => {
                write!(f, "task {t} must have exactly one primary placement")
            }
            ScheduleError::Overlap { proc, a, b } => {
                write!(f, "tasks {a} and {b} overlap on processor {proc}")
            }
            ScheduleError::WrongDuration { task, got, want } => write!(
                f,
                "task {task} has duration {got}, machine model predicts {want}"
            ),
            ScheduleError::PrecedenceViolated {
                task,
                pred,
                start,
                earliest_arrival,
            } => write!(
                f,
                "task {task} starts at {start} but data from {pred} cannot arrive before {earliest_arrival}"
            ),
            ScheduleError::UnknownProcessor(p) => write!(f, "unknown processor {p}"),
            ScheduleError::BadTimes(t) => write!(f, "task {t} has invalid start/finish times"),
        }
    }
}

impl std::error::Error for ScheduleError {}

/// Tolerance used when comparing times during validation.
pub const TIME_EPS: f64 = 1e-6;

/// Per-run engine work counters, produced by one scheduling run and
/// attached to its [`Schedule`]. These replace the old process-global
/// atomics: concurrent `sweep` runs each get their own
/// counts instead of interleaving into one shared total.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedStats {
    /// Number of [`crate::engine::Engine::edge_arrival`] probes issued.
    pub arrival_probes: u64,
    /// Number of timeline slot searches issued via
    /// [`crate::engine::Engine::slot`].
    pub slot_searches: u64,
}

/// A complete schedule produced by one heuristic.
#[derive(Debug, Clone)]
pub struct Schedule {
    heuristic: String,
    n_tasks: usize,
    placements: Vec<Placement>,
    stats: SchedStats,
}

/// Equality deliberately ignores [`Schedule::stats`]: the differential
/// suites compare optimized heuristics against their retained naive
/// references, whose *schedules* must be bit-identical while their probe
/// counts legitimately differ (fewer probes is the whole point).
impl PartialEq for Schedule {
    fn eq(&self, other: &Self) -> bool {
        self.heuristic == other.heuristic
            && self.n_tasks == other.n_tasks
            && self.placements == other.placements
    }
}

impl Schedule {
    /// Creates a schedule for a graph of `n_tasks` tasks.
    pub fn new(heuristic: impl Into<String>, n_tasks: usize) -> Self {
        Schedule {
            heuristic: heuristic.into(),
            n_tasks,
            placements: Vec::with_capacity(n_tasks),
            stats: SchedStats::default(),
        }
    }

    /// Name of the heuristic that produced this schedule.
    pub fn heuristic(&self) -> &str {
        &self.heuristic
    }

    /// Engine work counters of the run that produced this schedule
    /// (zero for schedules built by hand or replayed from a simulator).
    pub fn stats(&self) -> SchedStats {
        self.stats
    }

    /// Attaches the producing run's counters ([`crate::engine::Engine::finish`]).
    pub(crate) fn set_stats(&mut self, stats: SchedStats) {
        self.stats = stats;
    }

    /// Number of tasks the schedule covers.
    pub fn task_count(&self) -> usize {
        self.n_tasks
    }

    /// Adds a placement.
    pub fn place(&mut self, task: TaskId, proc: ProcId, start: f64, finish: f64, primary: bool) {
        self.placements.push(Placement {
            task,
            proc,
            start,
            finish,
            primary,
        });
    }

    /// All placements, in insertion order.
    pub fn placements(&self) -> &[Placement] {
        &self.placements
    }

    /// All placements of one task (primary first if present).
    pub fn placements_of(&self, task: TaskId) -> Vec<&Placement> {
        let mut v: Vec<&Placement> = self.placements.iter().filter(|p| p.task == task).collect();
        v.sort_by_key(|p| !p.primary);
        v
    }

    /// The primary placement of a task, if any.
    pub fn primary(&self, task: TaskId) -> Option<&Placement> {
        self.placements.iter().find(|p| p.task == task && p.primary)
    }

    /// Placements on a given processor, sorted by start time.
    pub fn on_processor(&self, proc: ProcId) -> Vec<&Placement> {
        let mut v: Vec<&Placement> = self.placements.iter().filter(|p| p.proc == proc).collect();
        v.sort_by(|a, b| a.start.total_cmp(&b.start));
        v
    }

    /// The schedule length: the latest finish over all placements.
    pub fn makespan(&self) -> f64 {
        self.placements
            .iter()
            .map(|p| p.finish)
            .fold(0.0f64, f64::max)
    }

    /// Number of distinct processors actually used.
    pub fn processors_used(&self) -> usize {
        let mut procs: Vec<ProcId> = self.placements.iter().map(|p| p.proc).collect();
        procs.sort_unstable();
        procs.dedup();
        procs.len()
    }

    /// Sum of busy time per processor, for load-balance reporting.
    pub fn busy_time(&self, proc: ProcId) -> f64 {
        self.placements
            .iter()
            .filter(|p| p.proc == proc)
            .map(|p| p.finish - p.start)
            .sum()
    }

    /// The time the whole design would take on the single fastest
    /// processor of `m` — the baseline for speedup.
    pub fn sequential_time(g: &TaskGraph, m: &Machine) -> f64 {
        let best = m
            .proc_ids()
            .max_by(|a, b| m.relative_speed(*a).total_cmp(&m.relative_speed(*b)))
            .expect("machine has at least one processor");
        g.tasks().map(|(_, t)| m.exec_time(t.weight, best)).sum()
    }

    /// Predicted speedup over the sequential baseline.
    pub fn speedup(&self, g: &TaskGraph, m: &Machine) -> f64 {
        let seq = Schedule::sequential_time(g, m);
        let ms = self.makespan();
        if ms == 0.0 {
            0.0
        } else {
            seq / ms
        }
    }

    /// Efficiency: speedup divided by the processor count of `m`.
    pub fn efficiency(&self, g: &TaskGraph, m: &Machine) -> f64 {
        self.speedup(g, m) / m.processors() as f64
    }

    /// Validates the schedule against the graph and machine (see module
    /// docs for the invariants). `check_duration` may be disabled for
    /// schedules replayed from a simulator, whose durations include
    /// queueing.
    pub fn validate(&self, g: &TaskGraph, m: &Machine) -> Result<(), ScheduleError> {
        self.validate_opts(g, m, true)
    }

    /// [`Schedule::validate`] with control over the duration check.
    ///
    /// Runs in `O(P + |placements| log |placements| + Σ_edges copies(src))`
    /// — one shared per-task index is built up front instead of rescanning
    /// the placement list per task ([`Schedule::placements_of`] is `O(n)`
    /// per call, which made the old validator quadratic and unusable on
    /// the 100k-task graphs the scale generators produce).
    pub fn validate_opts(
        &self,
        g: &TaskGraph,
        m: &Machine,
        check_duration: bool,
    ) -> Result<(), ScheduleError> {
        // Basic sanity per placement, plus the per-task index used by the
        // coverage and precedence passes below.
        let mut by_task: Vec<Vec<usize>> = vec![Vec::new(); g.task_count()];
        for (i, p) in self.placements.iter().enumerate() {
            if p.proc.index() >= m.processors() {
                return Err(ScheduleError::UnknownProcessor(p.proc));
            }
            if !(p.start.is_finite() && p.finish.is_finite())
                || p.start < -TIME_EPS
                || p.finish + TIME_EPS < p.start
            {
                return Err(ScheduleError::BadTimes(p.task));
            }
            if check_duration {
                let want = m.exec_time(g.task(p.task).weight, p.proc);
                let got = p.finish - p.start;
                if (got - want).abs() > TIME_EPS {
                    return Err(ScheduleError::WrongDuration {
                        task: p.task,
                        got,
                        want,
                    });
                }
            }
            if p.task.index() < by_task.len() {
                by_task[p.task.index()].push(i);
            }
        }

        // Coverage and primary uniqueness.
        for t in g.task_ids() {
            let copies = &by_task[t.index()];
            if copies.is_empty() {
                return Err(ScheduleError::Unplaced(t));
            }
            let primaries = copies
                .iter()
                .filter(|&&i| self.placements[i].primary)
                .count();
            if primaries != 1 {
                return Err(ScheduleError::BadPrimary(t));
            }
        }

        // Processor exclusivity: one sort of all placements by (proc,
        // start) replaces the per-processor rescans.
        let mut order: Vec<usize> = (0..self.placements.len()).collect();
        order.sort_unstable_by(|&a, &b| {
            let (pa, pb) = (&self.placements[a], &self.placements[b]);
            pa.proc.cmp(&pb.proc).then(pa.start.total_cmp(&pb.start))
        });
        for w in order.windows(2) {
            let (a, b) = (&self.placements[w[0]], &self.placements[w[1]]);
            if a.proc == b.proc && a.finish > b.start + TIME_EPS {
                return Err(ScheduleError::Overlap {
                    proc: a.proc,
                    a: a.task,
                    b: b.task,
                });
            }
        }

        // Precedence with communication. Every copy of a task must be able
        // to receive every input from *some* copy of the producer.
        for p in &self.placements {
            for &e in g.in_edges(p.task) {
                let edge = g.edge(e);
                let earliest = by_task[edge.src.index()]
                    .iter()
                    .map(|&i| {
                        let src = &self.placements[i];
                        src.finish + m.comm_time(src.proc, p.proc, edge.volume)
                    })
                    .fold(f64::INFINITY, f64::min);
                if p.start + TIME_EPS < earliest {
                    return Err(ScheduleError::PrecedenceViolated {
                        task: p.task,
                        pred: edge.src,
                        start: p.start,
                        earliest_arrival: earliest,
                    });
                }
            }
        }
        Ok(())
    }
}

/// Summary row for heuristic-comparison tables.
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduleSummary {
    /// Heuristic name.
    pub heuristic: String,
    /// Schedule length.
    pub makespan: f64,
    /// Speedup over the single-fastest-processor baseline.
    pub speedup: f64,
    /// Speedup / processors.
    pub efficiency: f64,
    /// Distinct processors used.
    pub processors_used: usize,
}

impl Schedule {
    /// Builds a [`ScheduleSummary`] for reporting.
    pub fn summarize(&self, g: &TaskGraph, m: &Machine) -> ScheduleSummary {
        ScheduleSummary {
            heuristic: self.heuristic.clone(),
            makespan: self.makespan(),
            speedup: self.speedup(g, m),
            efficiency: self.efficiency(g, m),
            processors_used: self.processors_used(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use banger_machine::{MachineParams, Topology};

    fn pair_graph() -> TaskGraph {
        let mut g = TaskGraph::new("pair");
        let a = g.add_task("a", 4.0);
        let b = g.add_task("b", 6.0);
        g.add_edge(a, b, 10.0, "x").unwrap();
        g
    }

    fn machine2() -> Machine {
        Machine::new(Topology::fully_connected(2), MachineParams::default())
    }

    #[test]
    fn valid_same_proc_schedule() {
        let g = pair_graph();
        let m = machine2();
        let mut s = Schedule::new("manual", 2);
        s.place(TaskId(0), ProcId(0), 0.0, 4.0, true);
        s.place(TaskId(1), ProcId(0), 4.0, 10.0, true);
        s.validate(&g, &m).unwrap();
        assert_eq!(s.makespan(), 10.0);
        assert_eq!(s.processors_used(), 1);
    }

    #[test]
    fn valid_cross_proc_schedule_pays_comm() {
        let g = pair_graph();
        let m = machine2();
        let mut s = Schedule::new("manual", 2);
        s.place(TaskId(0), ProcId(0), 0.0, 4.0, true);
        // comm = 10 units at rate 1 => b can start at 14 on the other proc.
        s.place(TaskId(1), ProcId(1), 14.0, 20.0, true);
        s.validate(&g, &m).unwrap();

        let mut bad = Schedule::new("manual", 2);
        bad.place(TaskId(0), ProcId(0), 0.0, 4.0, true);
        bad.place(TaskId(1), ProcId(1), 5.0, 11.0, true);
        assert!(matches!(
            bad.validate(&g, &m),
            Err(ScheduleError::PrecedenceViolated { .. })
        ));
    }

    #[test]
    fn overlap_detected() {
        let g = {
            let mut g = TaskGraph::new("two");
            g.add_task("a", 4.0);
            g.add_task("b", 4.0);
            g
        };
        let m = machine2();
        let mut s = Schedule::new("manual", 2);
        s.place(TaskId(0), ProcId(0), 0.0, 4.0, true);
        s.place(TaskId(1), ProcId(0), 2.0, 6.0, true);
        assert!(matches!(
            s.validate(&g, &m),
            Err(ScheduleError::Overlap { .. })
        ));
    }

    #[test]
    fn unplaced_detected() {
        let g = pair_graph();
        let m = machine2();
        let mut s = Schedule::new("manual", 2);
        s.place(TaskId(0), ProcId(0), 0.0, 4.0, true);
        assert_eq!(s.validate(&g, &m), Err(ScheduleError::Unplaced(TaskId(1))));
    }

    #[test]
    fn wrong_duration_detected() {
        let g = pair_graph();
        let m = machine2();
        let mut s = Schedule::new("manual", 2);
        s.place(TaskId(0), ProcId(0), 0.0, 5.0, true); // should be 4
        s.place(TaskId(1), ProcId(0), 5.0, 11.0, true);
        assert!(matches!(
            s.validate(&g, &m),
            Err(ScheduleError::WrongDuration { .. })
        ));
        // ... but passes when duration checking is off and precedence holds.
        s.validate_opts(&g, &m, false).unwrap();
    }

    #[test]
    fn duplication_satisfies_consumers() {
        // a feeds b; a is duplicated onto b's processor so b starts at 4
        // with no message.
        let g = pair_graph();
        let m = machine2();
        let mut s = Schedule::new("dup", 2);
        s.place(TaskId(0), ProcId(0), 0.0, 4.0, true);
        s.place(TaskId(0), ProcId(1), 0.0, 4.0, false); // duplicate
        s.place(TaskId(1), ProcId(1), 4.0, 10.0, true);
        s.validate(&g, &m).unwrap();
        assert_eq!(s.placements_of(TaskId(0)).len(), 2);
        assert!(s.primary(TaskId(0)).unwrap().proc == ProcId(0));
    }

    #[test]
    fn double_primary_rejected() {
        let g = pair_graph();
        let m = machine2();
        let mut s = Schedule::new("dup", 2);
        s.place(TaskId(0), ProcId(0), 0.0, 4.0, true);
        s.place(TaskId(0), ProcId(1), 0.0, 4.0, true);
        s.place(TaskId(1), ProcId(1), 14.0, 20.0, true);
        assert_eq!(
            s.validate(&g, &m),
            Err(ScheduleError::BadPrimary(TaskId(0)))
        );
    }

    #[test]
    fn bad_times_detected() {
        let g = pair_graph();
        let m = machine2();
        let mut s = Schedule::new("m", 2);
        s.place(TaskId(0), ProcId(0), -1.0, 3.0, true);
        s.place(TaskId(1), ProcId(0), 14.0, 20.0, true);
        assert_eq!(s.validate(&g, &m), Err(ScheduleError::BadTimes(TaskId(0))));
    }

    #[test]
    fn unknown_processor_detected() {
        let g = pair_graph();
        let m = machine2();
        let mut s = Schedule::new("m", 2);
        s.place(TaskId(0), ProcId(7), 0.0, 4.0, true);
        s.place(TaskId(1), ProcId(0), 14.0, 20.0, true);
        assert_eq!(
            s.validate(&g, &m),
            Err(ScheduleError::UnknownProcessor(ProcId(7)))
        );
    }

    #[test]
    fn speedup_and_efficiency() {
        let mut g = TaskGraph::new("ind");
        g.add_task("a", 10.0);
        g.add_task("b", 10.0);
        let m = machine2();
        let mut s = Schedule::new("m", 2);
        s.place(TaskId(0), ProcId(0), 0.0, 10.0, true);
        s.place(TaskId(1), ProcId(1), 0.0, 10.0, true);
        s.validate(&g, &m).unwrap();
        assert_eq!(Schedule::sequential_time(&g, &m), 20.0);
        assert_eq!(s.speedup(&g, &m), 2.0);
        assert_eq!(s.efficiency(&g, &m), 1.0);
        let sum = s.summarize(&g, &m);
        assert_eq!(sum.processors_used, 2);
        assert_eq!(sum.makespan, 10.0);
    }

    #[test]
    fn busy_time_per_processor() {
        let mut s = Schedule::new("m", 2);
        s.place(TaskId(0), ProcId(0), 0.0, 10.0, true);
        s.place(TaskId(1), ProcId(0), 12.0, 15.0, true);
        assert_eq!(s.busy_time(ProcId(0)), 13.0);
        assert_eq!(s.busy_time(ProcId(1)), 0.0);
    }
}
