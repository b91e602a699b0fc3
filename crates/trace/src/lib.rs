#![warn(missing_docs)]

//! # banger-trace — what the executor *actually did*
//!
//! The scheduler predicts a timeline; the simulator refines the
//! prediction; this crate records reality. When
//! `ExecOptions::trace` is on, both executor modes (greedy and pinned)
//! append [`TraceEvent`]s to per-worker buffers — task start/finish with
//! worker id, measured ops, copy-on-write copy counts, bytes gathered
//! per input arc, queue/dependency wait intervals, and error events —
//! and the merged, time-sorted stream becomes a [`Trace`].
//!
//! A trace has three consumers:
//!
//! 1. **Observed Gantt + drift.** [`Trace::observed_schedule`] replays
//!    the events as a [`Schedule`] in wall-clock seconds so the existing
//!    Gantt renderer draws what happened, and [`DriftReport`] joins the
//!    observation against a predicted timeline (the schedule itself, or
//!    the simulator's message-accurate replay of it) to show per-task
//!    start/finish drift and the makespan error.
//! 2. **Chrome trace export.** [`Trace::chrome_json`] emits the Trace
//!    Event Format JSON that `chrome://tracing` and Perfetto load
//!    directly (`banger run <file> --trace out.json`).
//! 3. **Aggregate counters.** [`Trace::summary`] reduces the stream to
//!    tasks/s, worker utilization, total queue wait, CoW copies and
//!    bytes moved — printed by the CLI and recorded by `bench_all`.
//!
//! The overhead contract: with tracing off the executor does no trace
//! work at all (no timestamps beyond the ones it always took, no
//! allocation, no atomics); with tracing on the cost is two buffer
//! pushes and one thread-local counter read per task — negligible
//! against large-grain task bodies. DESIGN.md §11 documents the event
//! model and the drift semantics.

use banger_machine::ProcId;
use banger_sched::Schedule;
use banger_taskgraph::json::quote;
use banger_taskgraph::TaskId;
use std::fmt::Write as _;
use std::time::Duration;

/// One recorded execution event. Times are offsets from the execution
/// epoch (the moment `execute` started).
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// A task copy began executing (inputs already gathered).
    TaskStart {
        /// The task.
        task: TaskId,
        /// Worker thread index.
        worker: usize,
        /// Offset from the execution epoch.
        at: Duration,
    },
    /// A task copy finished. Repeats the matching start time so every
    /// finish event is self-contained (consumers need no pairing pass).
    TaskFinish {
        /// The task.
        task: TaskId,
        /// Worker thread index.
        worker: usize,
        /// When this copy started executing.
        start: Duration,
        /// When it finished.
        finish: Duration,
        /// Interpreter operation count (the measured weight).
        ops: u64,
        /// Copy-on-write buffer copies the task body triggered.
        cow_copies: u64,
        /// Bytes those CoW copies moved.
        cow_bytes: u64,
        /// Bytes gathered per input arc, in declaration order:
        /// `(variable, bytes)`.
        bytes_in: Vec<(String, u64)>,
    },
    /// Time a worker spent waiting before a task could run: queue
    /// latency in greedy mode (ready-to-dequeue); in pinned mode, the
    /// time the worker thread had no ready head on any processor it
    /// claimed, ended by this task. A thread's pinned waits never
    /// overlap, so a firing's sum is at most its threads times its wall.
    QueueWait {
        /// The task that was waited for.
        task: TaskId,
        /// Worker thread index.
        worker: usize,
        /// When the wait began.
        since: Duration,
        /// When the wait ended.
        until: Duration,
    },
    /// A task failed (interpreter error, or a caught worker panic).
    TaskError {
        /// Name of the offending task.
        task: String,
        /// Worker thread index.
        worker: usize,
        /// When the failure surfaced.
        at: Duration,
        /// Human-readable failure description.
        message: String,
    },
    /// The coordinator lost its workers with work still outstanding.
    WorkerLost {
        /// When the loss was detected.
        at: Duration,
        /// What was outstanding.
        detail: String,
    },
    /// Work-stealing dispatch counters one worker accumulated since its
    /// previous flush (a worker may emit several per execution; consumers
    /// sum them). Attributes where the old coordinator queue wait went:
    /// tasks run straight off the private inline stack never queued at
    /// all, and steals mark the handoffs that did cross threads.
    WorkerStats {
        /// Worker thread index.
        worker: usize,
        /// When the counters were flushed.
        at: Duration,
        /// Successful steals from other workers' deques.
        steals: u64,
        /// Tasks executed from the private inline stack (below the
        /// inline threshold; never published to a stealable deque).
        inline_tasks: u64,
    },
}

impl TraceEvent {
    /// The event's primary timestamp, for stream ordering.
    pub fn at(&self) -> Duration {
        match self {
            TraceEvent::TaskStart { at, .. } => *at,
            TraceEvent::TaskFinish { finish, .. } => *finish,
            TraceEvent::QueueWait { until, .. } => *until,
            TraceEvent::TaskError { at, .. } => *at,
            TraceEvent::WorkerLost { at, .. } => *at,
            TraceEvent::WorkerStats { at, .. } => *at,
        }
    }

    /// The worker the event belongs to (coordinator events report 0).
    pub fn worker(&self) -> usize {
        match self {
            TraceEvent::TaskStart { worker, .. }
            | TraceEvent::TaskFinish { worker, .. }
            | TraceEvent::QueueWait { worker, .. }
            | TraceEvent::WorkerStats { worker, .. }
            | TraceEvent::TaskError { worker, .. } => *worker,
            TraceEvent::WorkerLost { .. } => 0,
        }
    }
}

/// One executed task copy, flattened from a [`TraceEvent::TaskFinish`].
#[derive(Debug, Clone, PartialEq)]
pub struct TaskSpan {
    /// The task.
    pub task: TaskId,
    /// Worker thread index.
    pub worker: usize,
    /// Start offset from the execution epoch.
    pub start: Duration,
    /// Finish offset from the execution epoch.
    pub finish: Duration,
    /// Measured operation count.
    pub ops: u64,
}

/// The merged event stream of one traced execution.
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    /// All events, sorted by [`TraceEvent::at`] then worker.
    pub events: Vec<TraceEvent>,
    /// Rows: a greedy run's worker threads, a pinned run's processors
    /// (each event's `worker` is below it).
    pub workers: usize,
    /// Threads that ran the execution, the caller included: the
    /// summary's worker count. `workers` unless a pinned run's threads
    /// played several processors each.
    pub threads: usize,
    /// Total wall-clock time of the execution.
    pub wall: Duration,
}

impl Trace {
    /// Builds a trace from raw per-worker event buffers, one thread per
    /// row: merges and time-sorts them.
    pub fn from_events(mut events: Vec<TraceEvent>, workers: usize, wall: Duration) -> Self {
        events.sort_by(|a, b| a.at().cmp(&b.at()).then(a.worker().cmp(&b.worker())));
        Trace {
            events,
            workers,
            threads: workers,
            wall,
        }
    }

    /// Every executed task copy, in finish order.
    pub fn spans(&self) -> Vec<TaskSpan> {
        self.events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::TaskFinish {
                    task,
                    worker,
                    start,
                    finish,
                    ops,
                    ..
                } => Some(TaskSpan {
                    task: *task,
                    worker: *worker,
                    start: *start,
                    finish: *finish,
                    ops: *ops,
                }),
                _ => None,
            })
            .collect()
    }

    /// The observed timeline as a [`Schedule`] over `n_tasks` tasks, in
    /// **microseconds** (processor *i* = worker *i*; µs keeps makespans
    /// of realistic large-grain runs in a readable numeric range, and
    /// matches the Chrome export's time unit). The earliest copy of each
    /// task is its primary; later copies (pinned-mode duplicates) are
    /// marked as duplicates, so the existing Gantt renderer draws them
    /// with the duplicate tick.
    pub fn observed_schedule(&self, n_tasks: usize) -> Schedule {
        let mut spans = self.spans();
        spans.sort_by(|a, b| a.start.cmp(&b.start).then(a.task.cmp(&b.task)));
        let mut seen = vec![false; n_tasks];
        let mut s = Schedule::new("observed", n_tasks);
        for sp in spans {
            let primary = !std::mem::replace(&mut seen[sp.task.index()], true);
            s.place(
                sp.task,
                ProcId(sp.worker as u32),
                sp.start.as_secs_f64() * 1e6,
                sp.finish.as_secs_f64() * 1e6,
                primary,
            );
        }
        s
    }

    /// Reduces the stream to aggregate counters.
    pub fn summary(&self) -> TraceSummary {
        let mut s = TraceSummary {
            workers: self.threads,
            wall: self.wall,
            ..TraceSummary::default()
        };
        for e in &self.events {
            match e {
                TraceEvent::TaskFinish {
                    start,
                    finish,
                    ops,
                    cow_copies,
                    cow_bytes,
                    bytes_in,
                    ..
                } => {
                    s.tasks += 1;
                    s.busy += finish.saturating_sub(*start);
                    s.ops += ops;
                    s.cow_copies += cow_copies;
                    s.cow_bytes += cow_bytes;
                    s.bytes_in += bytes_in.iter().map(|(_, b)| b).sum::<u64>();
                }
                TraceEvent::QueueWait { since, until, .. } => {
                    s.queue_wait += until.saturating_sub(*since);
                }
                TraceEvent::TaskError { .. } | TraceEvent::WorkerLost { .. } => s.errors += 1,
                TraceEvent::WorkerStats {
                    steals,
                    inline_tasks,
                    ..
                } => {
                    s.steals += steals;
                    s.inline_tasks += inline_tasks;
                }
                TraceEvent::TaskStart { .. } => {}
            }
        }
        s
    }

    /// Serialises the trace to Chrome trace-format JSON (the
    /// `traceEvents` object form), loadable in `chrome://tracing` and
    /// Perfetto. `name_of` maps tasks to display names. Timestamps are
    /// microseconds; each worker is one thread row; CoW copies also emit
    /// a cumulative counter track.
    pub fn chrome_json(&self, name_of: impl Fn(TaskId) -> String) -> String {
        let us = |d: &Duration| d.as_secs_f64() * 1e6;
        let mut out = String::from("{\n\"displayTimeUnit\": \"ms\",\n\"traceEvents\": [\n");
        let _ = write!(
            out,
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,\
             \"args\":{{\"name\":\"banger exec\"}}}}"
        );
        for w in 0..self.workers {
            let _ = write!(
                out,
                ",\n{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{w},\
                 \"args\":{{\"name\":\"worker {w}\"}}}}"
            );
        }
        let mut cow_total = 0u64;
        for e in &self.events {
            match e {
                TraceEvent::TaskStart { .. } => {} // the finish span covers it
                TraceEvent::TaskFinish {
                    task,
                    worker,
                    start,
                    finish,
                    ops,
                    cow_copies,
                    cow_bytes,
                    bytes_in,
                } => {
                    let mut args = format!(
                        "\"ops\":{ops},\"cow_copies\":{cow_copies},\"cow_bytes\":{cow_bytes}"
                    );
                    for (var, bytes) in bytes_in {
                        let _ = write!(args, ",{}:{bytes}", quote(&format!("in {var}")));
                    }
                    let _ = write!(
                        out,
                        ",\n{{\"name\":{},\"cat\":\"task\",\"ph\":\"X\",\"pid\":0,\
                         \"tid\":{worker},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{{args}}}}}",
                        quote(&name_of(*task)),
                        us(start),
                        us(&finish.saturating_sub(*start)),
                    );
                    cow_total += cow_copies;
                    let _ = write!(
                        out,
                        ",\n{{\"name\":\"cow_copies\",\"ph\":\"C\",\"pid\":0,\"ts\":{:.3},\
                         \"args\":{{\"copies\":{cow_total}}}}}",
                        us(finish),
                    );
                }
                TraceEvent::QueueWait {
                    task,
                    worker,
                    since,
                    until,
                } => {
                    let _ = write!(
                        out,
                        ",\n{{\"name\":{},\"cat\":\"wait\",\"ph\":\"X\",\"pid\":0,\
                         \"tid\":{worker},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{}}}}",
                        quote(&format!("wait {}", name_of(*task))),
                        us(since),
                        us(&until.saturating_sub(*since)),
                    );
                }
                TraceEvent::TaskError {
                    task,
                    worker,
                    at,
                    message,
                } => {
                    let _ = write!(
                        out,
                        ",\n{{\"name\":{},\"cat\":\"error\",\"ph\":\"i\",\"s\":\"g\",\
                         \"pid\":0,\"tid\":{worker},\"ts\":{:.3},\
                         \"args\":{{\"message\":{}}}}}",
                        quote(&format!("error {task}")),
                        us(at),
                        quote(message),
                    );
                }
                TraceEvent::WorkerLost { at, detail } => {
                    let _ = write!(
                        out,
                        ",\n{{\"name\":\"workers lost\",\"cat\":\"error\",\"ph\":\"i\",\"s\":\"g\",\
                         \"pid\":0,\"tid\":0,\"ts\":{:.3},\"args\":{{\"detail\":{}}}}}",
                        us(at),
                        quote(detail),
                    );
                }
                TraceEvent::WorkerStats {
                    worker,
                    at,
                    steals,
                    inline_tasks,
                } => {
                    let _ = write!(
                        out,
                        ",\n{{\"name\":\"dispatch\",\"ph\":\"C\",\"pid\":0,\"tid\":{worker},\
                         \"ts\":{:.3},\"args\":{{\"steals\":{steals},\
                         \"inline_tasks\":{inline_tasks}}}}}",
                        us(at),
                    );
                }
            }
        }
        out.push_str("\n]\n}\n");
        out
    }
}

/// Aggregate counters of one traced execution.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TraceSummary {
    /// Task copies executed.
    pub tasks: usize,
    /// Worker thread count.
    pub workers: usize,
    /// Wall-clock time.
    pub wall: Duration,
    /// Total time workers spent inside task bodies.
    pub busy: Duration,
    /// Total time workers spent waiting (queue latency + dependency
    /// stalls).
    pub queue_wait: Duration,
    /// Total interpreter operations.
    pub ops: u64,
    /// Copy-on-write buffer copies across all tasks.
    pub cow_copies: u64,
    /// Bytes those copies moved.
    pub cow_bytes: u64,
    /// Bytes gathered over all input arcs.
    pub bytes_in: u64,
    /// Error events (task failures, worker loss).
    pub errors: u64,
    /// Successful deque steals across all workers (work-stealing mode).
    pub steals: u64,
    /// Tasks executed inline off private stacks, never queued
    /// (work-stealing mode's small-task policy).
    pub inline_tasks: u64,
}

impl TraceSummary {
    /// Task throughput in tasks per second.
    pub fn tasks_per_sec(&self) -> f64 {
        let w = self.wall.as_secs_f64();
        if w > 0.0 {
            self.tasks as f64 / w
        } else {
            0.0
        }
    }

    /// Fraction of total worker time spent inside task bodies
    /// (`busy / (wall * workers)`), in `0.0..=1.0`.
    pub fn utilization(&self) -> f64 {
        let denom = self.wall.as_secs_f64() * self.workers as f64;
        if denom > 0.0 {
            (self.busy.as_secs_f64() / denom).min(1.0)
        } else {
            0.0
        }
    }

    /// One-line human rendering for CLI output.
    pub fn render(&self) -> String {
        format!(
            "trace: {} task runs in {:?} ({:.0} tasks/s), {} workers at {:.0}% utilization, \
             queue wait {:?}, {} inline / {} stolen, {} CoW copies ({} bytes), \
             {} input bytes moved",
            self.tasks,
            self.wall,
            self.tasks_per_sec(),
            self.workers,
            100.0 * self.utilization(),
            self.queue_wait,
            self.inline_tasks,
            self.steals,
            self.cow_copies,
            self.cow_bytes,
            self.bytes_in,
        )
    }
}

/// Predicted-vs-observed drift of one task (primary copies only).
/// Observed times are normalised into the prediction's abstract time
/// units (see [`DriftReport`]).
#[derive(Debug, Clone, PartialEq)]
pub struct TaskDrift {
    /// The task.
    pub task: TaskId,
    /// Predicted start, in schedule units.
    pub predicted_start: f64,
    /// Predicted finish, in schedule units.
    pub predicted_finish: f64,
    /// Observed start, normalised into schedule units.
    pub observed_start: f64,
    /// Observed finish, normalised into schedule units.
    pub observed_finish: f64,
}

impl TaskDrift {
    /// `observed_start - predicted_start` (positive = started late).
    pub fn start_drift(&self) -> f64 {
        self.observed_start - self.predicted_start
    }

    /// `observed_finish - predicted_finish` (positive = finished late).
    pub fn finish_drift(&self) -> f64 {
        self.observed_finish - self.predicted_finish
    }
}

/// Joins a predicted timeline (a schedule, or the simulator's
/// message-accurate replay of one) against a trace's observation.
///
/// Predictions live in abstract weight units, observations in seconds,
/// so the report fits one global conversion constant — `scale` units
/// per second, chosen so total predicted busy time equals total
/// observed busy time — and compares *shapes* under that fit: if the
/// scheduler's relative durations and orderings were right, every
/// normalised observation lands on its prediction and the makespan
/// error is zero; systematic drift (a task heavier than its weight, a
/// worker starved by queue waits) shows up per task.
#[derive(Debug, Clone, PartialEq)]
pub struct DriftReport {
    /// Per-task drift rows, in predicted start order.
    pub tasks: Vec<TaskDrift>,
    /// Fitted conversion: schedule units per observed second.
    pub scale: f64,
    /// The prediction's makespan, in schedule units.
    pub predicted_makespan: f64,
    /// The observed makespan, normalised into schedule units.
    pub observed_makespan: f64,
}

impl DriftReport {
    /// Builds the report from a predicted schedule and a trace of the
    /// same design. Tasks missing from either side (never executed, or
    /// unplaced) are skipped.
    pub fn new(predicted: &Schedule, trace: &Trace) -> Self {
        // Earliest observed copy of each task, keyed by task index.
        let mut observed: Vec<Option<TaskSpan>> = vec![None; predicted.task_count()];
        for sp in trace.spans() {
            if sp.task.index() >= observed.len() {
                continue;
            }
            let slot = &mut observed[sp.task.index()];
            if slot.as_ref().is_none_or(|cur| sp.start < cur.start) {
                *slot = Some(sp);
            }
        }

        // Fit the unit conversion over tasks present on both sides.
        let mut pred_busy = 0.0f64;
        let mut obs_busy = 0.0f64;
        let mut rows: Vec<(f64, TaskId, TaskSpan, f64, f64)> = Vec::new();
        for (i, sp) in observed.iter().enumerate() {
            let Some(sp) = sp else { continue };
            let Some(p) = predicted.primary(TaskId(i as u32)) else {
                continue;
            };
            pred_busy += p.finish - p.start;
            obs_busy += (sp.finish - sp.start).as_secs_f64();
            rows.push((p.start, sp.task, sp.clone(), p.start, p.finish));
        }
        let scale = if obs_busy > 0.0 {
            pred_busy / obs_busy
        } else {
            1.0
        };

        rows.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let mut observed_makespan = 0.0f64;
        let tasks: Vec<TaskDrift> = rows
            .into_iter()
            .map(|(_, task, sp, ps, pf)| {
                let of = sp.finish.as_secs_f64() * scale;
                observed_makespan = observed_makespan.max(of);
                TaskDrift {
                    task,
                    predicted_start: ps,
                    predicted_finish: pf,
                    observed_start: sp.start.as_secs_f64() * scale,
                    observed_finish: of,
                }
            })
            .collect();

        DriftReport {
            tasks,
            scale,
            predicted_makespan: predicted.makespan(),
            observed_makespan,
        }
    }

    /// `(observed - predicted) / predicted`, as a signed fraction
    /// (+0.1 = the run's shape was 10% longer than predicted).
    pub fn makespan_error(&self) -> f64 {
        if self.predicted_makespan > 0.0 {
            (self.observed_makespan - self.predicted_makespan) / self.predicted_makespan
        } else {
            0.0
        }
    }

    /// Renders the report as an aligned table. `name_of` maps tasks to
    /// display names.
    pub fn render(&self, name_of: impl Fn(TaskId) -> String) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "drift report — observed vs predicted ({:.3} schedule units per second)",
            self.scale
        );
        let _ = writeln!(
            out,
            "{:<16} {:>10} {:>10} {:>10} {:>10} {:>9} {:>9}",
            "task", "pred start", "pred fin", "obs start", "obs fin", "Δstart", "Δfinish"
        );
        for d in &self.tasks {
            let _ = writeln!(
                out,
                "{:<16} {:>10.3} {:>10.3} {:>10.3} {:>10.3} {:>+9.3} {:>+9.3}",
                name_of(d.task),
                d.predicted_start,
                d.predicted_finish,
                d.observed_start,
                d.observed_finish,
                d.start_drift(),
                d.finish_drift(),
            );
        }
        let _ = writeln!(
            out,
            "makespan: predicted {:.3}, observed {:.3} (error {:+.1}%)",
            self.predicted_makespan,
            self.observed_makespan,
            100.0 * self.makespan_error(),
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    fn finish(task: u32, worker: usize, start: u64, fin: u64, ops: u64, cow: u64) -> TraceEvent {
        TraceEvent::TaskFinish {
            task: TaskId(task),
            worker,
            start: ms(start),
            finish: ms(fin),
            ops,
            cow_copies: cow,
            cow_bytes: cow * 64,
            bytes_in: vec![("a".to_string(), 8)],
        }
    }

    fn two_task_trace() -> Trace {
        Trace::from_events(
            vec![
                finish(1, 1, 10, 30, 200, 1),
                TraceEvent::TaskStart {
                    task: TaskId(0),
                    worker: 0,
                    at: ms(0),
                },
                finish(0, 0, 0, 20, 100, 0),
                TraceEvent::QueueWait {
                    task: TaskId(1),
                    worker: 1,
                    since: ms(0),
                    until: ms(10),
                },
            ],
            2,
            ms(30),
        )
    }

    #[test]
    fn events_sorted_and_spans_extracted() {
        let t = two_task_trace();
        let ats: Vec<Duration> = t.events.iter().map(TraceEvent::at).collect();
        assert!(ats.windows(2).all(|w| w[0] <= w[1]), "{ats:?}");
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].task, TaskId(0));
        assert_eq!(spans[1].ops, 200);
    }

    #[test]
    fn summary_counts() {
        let s = two_task_trace().summary();
        assert_eq!(s.tasks, 2);
        assert_eq!(s.ops, 300);
        assert_eq!(s.cow_copies, 1);
        assert_eq!(s.cow_bytes, 64);
        assert_eq!(s.bytes_in, 16);
        assert_eq!(s.busy, ms(40));
        assert_eq!(s.queue_wait, ms(10));
        // busy 40ms over 2 workers * 30ms wall = 2/3.
        assert!((s.utilization() - 40.0 / 60.0).abs() < 1e-9);
        assert!((s.tasks_per_sec() - 2.0 / 0.030).abs() < 1e-6);
        let line = s.render();
        assert!(line.contains("2 task runs"), "{line}");
        assert!(line.contains("CoW"), "{line}");
    }

    #[test]
    fn observed_schedule_marks_duplicates() {
        let t = Trace::from_events(
            vec![finish(0, 0, 0, 10, 1, 0), finish(0, 1, 2, 12, 1, 0)],
            2,
            ms(12),
        );
        let s = t.observed_schedule(1);
        let copies = s.placements_of(TaskId(0));
        assert_eq!(copies.len(), 2);
        assert_eq!(copies.iter().filter(|p| p.primary).count(), 1);
        assert!(s.primary(TaskId(0)).unwrap().start < 0.001 + 1e-12);
    }

    #[test]
    fn chrome_json_is_valid_and_complete() {
        let mut t = two_task_trace();
        t.events.push(TraceEvent::TaskError {
            task: "bad \"task\"".to_string(),
            worker: 1,
            at: ms(30),
            message: "boom\nline2".to_string(),
        });
        let json = t.chrome_json(|t| format!("t{}", t.0));
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"name\":\"t0\""));
        assert!(json.contains("\"ops\":100"));
        assert!(json.contains("wait t1"));
        assert!(json.contains("bad \\\"task\\\""));
        assert!(json.contains("boom\\nline2"));
        // Structural sanity: balanced braces/brackets outside strings.
        let (mut depth, mut in_str, mut esc) = (0i64, false, false);
        for c in json.chars() {
            if in_str {
                if esc {
                    esc = false;
                } else if c == '\\' {
                    esc = true;
                } else if c == '"' {
                    in_str = false;
                }
                continue;
            }
            match c {
                '"' => in_str = true,
                '{' | '[' => depth += 1,
                '}' | ']' => depth -= 1,
                _ => {}
            }
            assert!(depth >= 0);
        }
        assert_eq!(depth, 0, "unbalanced JSON:\n{json}");
        assert!(!in_str);
    }

    #[test]
    fn drift_exact_when_shape_matches() {
        // Prediction: t0 on P0 0..10, t1 on P1 5..25 (units).
        let mut pred = Schedule::new("MH", 2);
        pred.place(TaskId(0), ProcId(0), 0.0, 10.0, true);
        pred.place(TaskId(1), ProcId(1), 5.0, 25.0, true);
        // Observation: identical shape at 1 unit = 2ms.
        let t = Trace::from_events(
            vec![finish(0, 0, 0, 20, 1, 0), finish(1, 1, 10, 50, 1, 0)],
            2,
            ms(50),
        );
        let d = DriftReport::new(&pred, &t);
        assert!((d.scale - 0.5 / 0.001).abs() < 1e-6, "scale {}", d.scale);
        for row in &d.tasks {
            assert!(row.start_drift().abs() < 1e-9, "{row:?}");
            assert!(row.finish_drift().abs() < 1e-9, "{row:?}");
        }
        assert!(d.makespan_error().abs() < 1e-9);
        let text = d.render(|t| format!("t{}", t.0));
        assert!(text.contains("makespan"), "{text}");
        assert!(text.contains("t0"), "{text}");
    }

    #[test]
    fn drift_detects_late_task() {
        let mut pred = Schedule::new("MH", 2);
        pred.place(TaskId(0), ProcId(0), 0.0, 10.0, true);
        pred.place(TaskId(1), ProcId(1), 0.0, 10.0, true);
        // t1 ran 3x longer than its equal-weight prediction claims.
        let t = Trace::from_events(
            vec![finish(0, 0, 0, 10, 1, 0), finish(1, 1, 0, 30, 1, 0)],
            2,
            ms(30),
        );
        let d = DriftReport::new(&pred, &t);
        // Total pred busy 20 units over 40ms observed => scale 500/s;
        // t1 finishes at 15 units vs 10 predicted.
        let t1 = d.tasks.iter().find(|r| r.task == TaskId(1)).unwrap();
        assert!(t1.finish_drift() > 4.9, "{t1:?}");
        assert!(d.makespan_error() > 0.49, "{}", d.makespan_error());
    }

    #[test]
    fn drift_skips_unmatched_tasks() {
        let mut pred = Schedule::new("MH", 3);
        pred.place(TaskId(0), ProcId(0), 0.0, 10.0, true);
        // Task 1 unplaced; task 2 placed but never observed.
        pred.place(TaskId(2), ProcId(0), 10.0, 20.0, true);
        let t = Trace::from_events(
            vec![finish(0, 0, 0, 10, 1, 0), finish(1, 0, 10, 20, 1, 0)],
            1,
            ms(20),
        );
        let d = DriftReport::new(&pred, &t);
        assert_eq!(d.tasks.len(), 1);
        assert_eq!(d.tasks[0].task, TaskId(0));
    }
}
