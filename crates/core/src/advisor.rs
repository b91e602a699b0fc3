//! The schedule advisor: explains *why* a schedule is as long as it is
//! and what a non-programmer could do about it — the kind of instant,
//! actionable feedback the paper argues is "a major contributor to early
//! defect removal".
//!
//! Given a design, machine and schedule, the advisor reports:
//!
//! * overall efficiency and per-processor utilisation;
//! * the **binding chain**: walking back from the last-finishing task,
//!   what each step was waiting on (a message, the processor, or nothing
//!   — pure computation);
//! * time lost to communication vs. computation along that chain;
//! * the heaviest individual messages;
//! * targeted suggestions (pack grains, duplicate, use fewer processors,
//!   upgrade the network) keyed on what actually dominates.

use banger_machine::{Machine, MachineParams, ProcId, Topology, MAX_PROCESSORS};
use banger_sched::{Placement, Schedule};
use banger_taskgraph::{TaskGraph, TaskId};
use std::fmt::Write as _;

/// Why a placement started when it did.
#[derive(Debug, Clone, PartialEq)]
pub enum StartReason {
    /// First work of the run: nothing constrained it.
    Free,
    /// Waiting for the processor to finish its previous task.
    Processor {
        /// The task occupying the processor until this one's start.
        previous: TaskId,
    },
    /// Waiting for data from a predecessor on another processor.
    Message {
        /// The producing task.
        from: TaskId,
        /// The producer's processor.
        proc: ProcId,
        /// The communication delay paid (arrival - producer finish).
        delay: f64,
    },
    /// Waiting for a same-processor predecessor to finish.
    LocalData {
        /// The producing task.
        from: TaskId,
    },
}

/// One step of the binding chain (latest-finishing placement backwards).
#[derive(Debug, Clone, PartialEq)]
pub struct ChainStep {
    /// The placement.
    pub placement: Placement,
    /// What it waited on.
    pub reason: StartReason,
}

/// The advisor's structured result.
#[derive(Debug, Clone, PartialEq)]
pub struct Advice {
    /// Speedup over the single-fastest-processor baseline.
    pub speedup: f64,
    /// Efficiency (speedup / processors).
    pub efficiency: f64,
    /// Per-processor busy fraction.
    pub utilization: Vec<f64>,
    /// The binding chain, last task first.
    pub chain: Vec<ChainStep>,
    /// Total communication delay on the chain.
    pub chain_comm: f64,
    /// Total computation on the chain.
    pub chain_compute: f64,
    /// Heaviest messages: `(src task, dst task, comm time)`.
    pub heavy_messages: Vec<(TaskId, TaskId, f64)>,
    /// Human-readable suggestions.
    pub suggestions: Vec<String>,
}

/// Analyses a schedule. The schedule must be valid for `g` on `m`.
pub fn advise(g: &TaskGraph, m: &Machine, s: &Schedule) -> Advice {
    let makespan = s.makespan().max(1e-12);
    let utilization: Vec<f64> = m.proc_ids().map(|p| s.busy_time(p) / makespan).collect();
    let speedup = s.speedup(g, m);
    let efficiency = s.efficiency(g, m);

    // --- binding chain -------------------------------------------------
    let mut chain = Vec::new();
    let mut chain_comm = 0.0;
    let mut chain_compute = 0.0;
    let mut cursor: Option<Placement> = s
        .placements()
        .iter()
        .max_by(|a, b| a.finish.total_cmp(&b.finish))
        .copied();
    let eps = 1e-6;
    while let Some(pl) = cursor {
        chain_compute += pl.finish - pl.start;
        // What bound the start time?
        let mut reason = StartReason::Free;
        let mut next: Option<Placement> = None;
        // Processor predecessor ending at exactly our start?
        if let Some(prev) = s
            .on_processor(pl.proc)
            .into_iter()
            .filter(|q| q.finish <= pl.start + eps && !(q.task == pl.task && q.start == pl.start))
            .max_by(|a, b| a.finish.total_cmp(&b.finish))
        {
            if (prev.finish - pl.start).abs() <= eps {
                reason = StartReason::Processor {
                    previous: prev.task,
                };
                next = Some(*prev);
            }
        }
        // A data arrival at exactly our start beats the processor reason
        // (it explains more: the processor may merely have been free).
        for &e in g.in_edges(pl.task) {
            let edge = g.edge(e);
            for src in s.placements_of(edge.src) {
                let arrival = src.finish + m.comm_time(src.proc, pl.proc, edge.volume);
                if (arrival - pl.start).abs() <= eps {
                    if src.proc == pl.proc {
                        reason = StartReason::LocalData { from: edge.src };
                    } else {
                        let delay = arrival - src.finish;
                        chain_comm += delay;
                        reason = StartReason::Message {
                            from: edge.src,
                            proc: src.proc,
                            delay,
                        };
                    }
                    next = Some(*src);
                    break;
                }
            }
            if !matches!(reason, StartReason::Free | StartReason::Processor { .. }) {
                break;
            }
        }
        chain.push(ChainStep {
            placement: pl,
            reason: reason.clone(),
        });
        if matches!(reason, StartReason::Free) || chain.len() > g.task_count() * 2 {
            break;
        }
        cursor = next;
    }

    // --- heavy messages --------------------------------------------------
    let mut heavy: Vec<(TaskId, TaskId, f64)> = Vec::new();
    for (_, edge) in g.edges() {
        if let (Some(sp), Some(dp)) = (s.primary(edge.src), s.primary(edge.dst)) {
            let cost = m.comm_time(sp.proc, dp.proc, edge.volume);
            if cost > 0.0 {
                heavy.push((edge.src, edge.dst, cost));
            }
        }
    }
    heavy.sort_by(|a, b| b.2.total_cmp(&a.2).then(a.0.cmp(&b.0)));
    heavy.truncate(5);

    // --- suggestions -------------------------------------------------------
    let mut suggestions = Vec::new();
    let used = s.processors_used();
    let avg_par = banger_taskgraph::analysis::average_parallelism(g);
    if (avg_par - speedup).abs() < 0.15 * avg_par {
        suggestions.push(format!(
            "the schedule is at the design's parallelism ceiling ({avg_par:.2}); \
             only restructuring the design (smaller grains, fewer chains) can go faster"
        ));
    }
    if used < m.processors() {
        suggestions.push(format!(
            "only {used} of {} processors are used — a smaller machine gives the \
             same makespan",
            m.processors()
        ));
    }
    let comm_share = chain_comm / makespan;
    if comm_share > 0.25 {
        suggestions.push(format!(
            "{:.0}% of the critical chain is communication — consider grain \
             packing, task duplication (DSH) or a better-connected topology",
            100.0 * comm_share
        ));
    }
    if m.params().process_startup > 0.0 {
        let mean_exec = g.total_weight() / g.task_count() as f64 / m.params().processor_speed;
        if m.params().process_startup > 0.5 * mean_exec {
            suggestions.push(format!(
                "process startup ({}) rivals mean task time ({mean_exec:.2}) — pack \
                 grains before scheduling",
                m.params().process_startup
            ));
        }
    }
    if suggestions.is_empty() {
        suggestions.push("no structural bottleneck detected; the schedule is compute-bound".into());
    }

    Advice {
        speedup,
        efficiency,
        utilization,
        chain,
        chain_comm,
        chain_compute,
        heavy_messages: heavy,
        suggestions,
    }
}

/// One candidate machine's outcome in a machine-space search.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineChoice {
    /// Topology name (e.g. `hypercube-3`).
    pub topology: String,
    /// Processor count.
    pub processors: usize,
    /// MH makespan of the design on this machine.
    pub makespan: f64,
    /// Speedup over the single-fastest-processor baseline.
    pub speedup: f64,
    /// Efficiency (speedup / processors).
    pub efficiency: f64,
}

/// The Figure 2 topology family up to `max_procs` (at most
/// [`MAX_PROCESSORS`]) processors — the candidate space a non-programmer
/// would shop from.
pub fn standard_candidates(max_procs: usize, params: MachineParams) -> Vec<Machine> {
    let max_procs = max_procs.min(MAX_PROCESSORS);
    let mut topos: Vec<Topology> = vec![Topology::single()];
    let mut dim = 1u32;
    while (1usize << dim) <= max_procs {
        topos.push(Topology::hypercube(dim));
        dim += 1;
    }
    for n in [4usize, 8, 16, 32, 64] {
        if n > max_procs {
            break;
        }
        topos.push(Topology::mesh(2, n / 2));
        topos.push(Topology::ring(n));
        topos.push(Topology::star(n));
        topos.push(Topology::fully_connected(n));
    }
    topos.into_iter().map(|t| Machine::new(t, params)).collect()
}

/// Machine-space search: schedules `g` with MH on every candidate machine
/// (fanned across worker threads via [`banger_sched::sweep`]) and ranks the
/// outcomes best-first — shortest makespan, then fewest processors, then
/// topology name. Deterministic: the ranking is a pure function of the
/// candidate list.
pub fn search_machines(g: &TaskGraph, candidates: &[Machine]) -> Vec<MachineChoice> {
    let schedules = banger_sched::sweep::sweep_machines("MH", g, candidates).expect("MH is known");
    let mut choices: Vec<MachineChoice> = candidates
        .iter()
        .zip(schedules)
        .map(|(m, s)| MachineChoice {
            topology: m.topology().name().to_string(),
            processors: m.processors(),
            makespan: s.makespan(),
            speedup: s.speedup(g, m),
            efficiency: s.efficiency(g, m),
        })
        .collect();
    choices.sort_by(|a, b| {
        a.makespan
            .total_cmp(&b.makespan)
            .then(a.processors.cmp(&b.processors))
            .then(a.topology.cmp(&b.topology))
    });
    choices
}

/// Renders a machine-space search as a table, best machine first.
pub fn render_machine_search(choices: &[MachineChoice]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<18} {:>6} {:>10} {:>8} {:>6}",
        "machine", "procs", "makespan", "speedup", "eff"
    );
    for c in choices {
        let _ = writeln!(
            out,
            "{:<18} {:>6} {:>10.2} {:>7.2}x {:>5.0}%",
            c.topology,
            c.processors,
            c.makespan,
            c.speedup,
            100.0 * c.efficiency
        );
    }
    out
}

/// Renders advice as a human-readable report.
pub fn render(g: &TaskGraph, advice: &Advice) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Advisor — speedup {:.2}x, efficiency {:.0}%",
        advice.speedup,
        100.0 * advice.efficiency
    );
    let _ = write!(out, "utilisation:");
    for (p, u) in advice.utilization.iter().enumerate() {
        let _ = write!(out, " P{p}={:.0}%", 100.0 * u);
    }
    out.push('\n');
    let _ = writeln!(
        out,
        "binding chain ({} steps, {:.1} compute + {:.1} communication):",
        advice.chain.len(),
        advice.chain_compute,
        advice.chain_comm
    );
    for step in &advice.chain {
        let name = crate::project::short_name(&g.task(step.placement.task).name);
        let why = match &step.reason {
            StartReason::Free => "started immediately".to_string(),
            StartReason::Processor { previous } => format!(
                "waited for processor (after {})",
                crate::project::short_name(&g.task(*previous).name)
            ),
            StartReason::Message { from, proc, delay } => format!(
                "waited {delay:.2} for message from {} (on {proc})",
                crate::project::short_name(&g.task(*from).name)
            ),
            StartReason::LocalData { from } => format!(
                "waited for local result of {}",
                crate::project::short_name(&g.task(*from).name)
            ),
        };
        let _ = writeln!(
            out,
            "  {name:<12} [{:.2}, {:.2}] on {} — {why}",
            step.placement.start, step.placement.finish, step.placement.proc
        );
    }
    if !advice.heavy_messages.is_empty() {
        let _ = writeln!(out, "heaviest messages:");
        for (src, dst, cost) in &advice.heavy_messages {
            let _ = writeln!(
                out,
                "  {} -> {}: {cost:.2}",
                crate::project::short_name(&g.task(*src).name),
                crate::project::short_name(&g.task(*dst).name)
            );
        }
    }
    let _ = writeln!(out, "suggestions:");
    for sug in &advice.suggestions {
        let _ = writeln!(out, "  * {sug}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use banger_machine::{MachineParams, Topology};
    use banger_taskgraph::generators;

    #[test]
    fn chain_walks_back_to_a_free_start() {
        let g = generators::gauss_elimination(5, 2.0, 1.0);
        let m = Machine::new(Topology::hypercube(2), MachineParams::default());
        let s = banger_sched::mh::mh(&g, &m);
        let a = advise(&g, &m, &s);
        assert!(!a.chain.is_empty());
        // The chain ends with a Free start (an entry task at t=0).
        assert_eq!(a.chain.last().unwrap().reason, StartReason::Free);
        assert!(a.chain.last().unwrap().placement.start.abs() < 1e-9);
        // Chain compute + comm accounts for (at least close to) the makespan.
        assert!(
            a.chain_compute + a.chain_comm >= 0.95 * s.makespan(),
            "{} + {} vs {}",
            a.chain_compute,
            a.chain_comm,
            s.makespan()
        );
    }

    #[test]
    fn serial_design_hits_parallelism_ceiling() {
        let g = generators::chain(6, 5.0, 1.0);
        let m = Machine::new(Topology::fully_connected(4), MachineParams::default());
        let s = banger_sched::list::etf(&g, &m);
        let a = advise(&g, &m, &s);
        assert!(
            a.suggestions.iter().any(|x| x.contains("ceiling")),
            "{:?}",
            a.suggestions
        );
        assert!(
            a.suggestions.iter().any(|x| x.contains("smaller machine")),
            "{:?}",
            a.suggestions
        );
    }

    #[test]
    fn comm_heavy_design_triggers_comm_advice() {
        let mut g = generators::fork_join(4, 1.0, 2.0, 1.0, 1.0);
        g.scale_volumes(30.0);
        let m = Machine::new(Topology::fully_connected(4), MachineParams::default());
        // Force a communicating schedule with the naive heuristic.
        let s = banger_sched::list::naive_no_comm(&g, &m);
        let a = advise(&g, &m, &s);
        assert!(
            a.suggestions
                .iter()
                .any(|x| x.contains("communication") || x.contains("ceiling")),
            "{:?}",
            a.suggestions
        );
        assert!(!a.heavy_messages.is_empty());
    }

    #[test]
    fn startup_advice_when_grains_tiny() {
        let g = generators::lattice(4, 4, 0.5, 0.1);
        let m = Machine::new(
            Topology::hypercube(2),
            MachineParams {
                process_startup: 2.0,
                ..MachineParams::default()
            },
        );
        let s = banger_sched::list::etf(&g, &m);
        let a = advise(&g, &m, &s);
        assert!(
            a.suggestions.iter().any(|x| x.contains("startup")),
            "{:?}",
            a.suggestions
        );
    }

    #[test]
    fn machine_search_is_ranked_and_deterministic() {
        let g = generators::gauss_elimination(6, 2.0, 3.0);
        let candidates = standard_candidates(
            8,
            MachineParams {
                msg_startup: 0.5,
                ..MachineParams::default()
            },
        );
        let choices = search_machines(&g, &candidates);
        assert_eq!(choices.len(), candidates.len());
        for w in choices.windows(2) {
            assert!(w[0].makespan <= w[1].makespan + 1e-12);
        }
        // Bit-identical to a second (and a sequential) evaluation.
        assert_eq!(choices, search_machines(&g, &candidates));
        for c in &choices {
            let m = candidates
                .iter()
                .find(|m| m.topology().name() == c.topology)
                .unwrap();
            let s = banger_sched::mh::mh(&g, m);
            assert_eq!(c.makespan, s.makespan(), "{}", c.topology);
        }
        let table = render_machine_search(&choices);
        assert!(table.contains("makespan"));
        assert!(table.contains("single"));
    }

    #[test]
    fn standard_candidates_respect_budget() {
        let cands = standard_candidates(8, MachineParams::default());
        assert!(cands.iter().all(|m| m.processors() <= 8));
        assert!(cands.iter().any(|m| m.processors() == 8));
        assert_eq!(cands[0].processors(), 1);
    }

    #[test]
    fn render_is_complete() {
        let g = generators::gauss_elimination(4, 2.0, 1.0);
        let m = Machine::new(Topology::hypercube(2), MachineParams::default());
        let s = banger_sched::mh::mh(&g, &m);
        let a = advise(&g, &m, &s);
        let text = render(&g, &a);
        assert!(text.contains("Advisor"));
        assert!(text.contains("utilisation"));
        assert!(text.contains("binding chain"));
        assert!(text.contains("suggestions:"));
    }
}
