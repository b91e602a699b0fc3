//! ASCII animation of a simulated run — the headless form of the paper's
//! "instant feedback to the user ... especially through graphical displays
//! and animations".
//!
//! The renderer samples the simulated timeline at a fixed number of
//! frames; each frame shows what every processor is doing (running a task
//! or idle) and which messages are in flight.

use crate::project::short_name;
use banger_machine::ProcId;
use banger_sim::SimResult;
use banger_taskgraph::TaskGraph;
use std::fmt::Write as _;

/// Animation options.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnimateOptions {
    /// Number of frames to render across the makespan.
    pub frames: usize,
    /// Maximum in-flight messages listed per frame.
    pub max_msgs: usize,
}

impl Default for AnimateOptions {
    fn default() -> Self {
        AnimateOptions {
            frames: 12,
            max_msgs: 4,
        }
    }
}

/// Renders the simulated run as a frame-by-frame text animation.
pub fn animate(
    g: &TaskGraph,
    processors: usize,
    result: &SimResult,
    options: AnimateOptions,
) -> String {
    let makespan = result.achieved_makespan();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Animation — {} ({} frames over {:.2} time units)",
        result.achieved.heuristic(),
        options.frames,
        makespan
    );
    if makespan <= 0.0 || options.frames == 0 {
        out.push_str("(nothing to animate)\n");
        return out;
    }
    // Column width: longest short task name, bounded.
    let width = g
        .tasks()
        .map(|(_, t)| short_name(&t.name).len())
        .max()
        .unwrap_or(4)
        .clamp(4, 12);

    for f in 0..options.frames {
        // Sample mid-frame so instant events are attributed sensibly.
        let t = makespan * (f as f64 + 0.5) / options.frames as f64;
        let _ = write!(out, "t={t:>8.2} |");
        for p in 0..processors {
            let running = result
                .achieved
                .on_processor(ProcId(p as u32))
                .into_iter()
                .find(|pl| pl.start <= t && t < pl.finish)
                .map(|pl| {
                    let mut n = short_name(&g.task(pl.task).name);
                    if !pl.primary {
                        n.push('\'');
                    }
                    n
                });
            match running {
                Some(name) => {
                    let _ = write!(out, " {name:<width$}");
                }
                None => {
                    let _ = write!(out, " {:<width$}", "·");
                }
            }
        }
        // In-flight messages.
        let mut flights: Vec<String> = result
            .messages
            .iter()
            .filter(|m| m.inject <= t && t < m.arrival)
            .map(|m| format!("{}→{}", m.src, m.dst))
            .collect();
        let extra = flights.len().saturating_sub(options.max_msgs);
        flights.truncate(options.max_msgs);
        if !flights.is_empty() {
            let _ = write!(out, " |✉ {}", flights.join(" "));
            if extra > 0 {
                let _ = write!(out, " (+{extra})");
            }
        }
        out.push('\n');
    }
    let _ = writeln!(
        out,
        "done: {} task runs, {} messages, makespan {:.2}",
        result.achieved.placements().len(),
        result.messages.len(),
        makespan
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use banger_machine::{Machine, MachineParams, Topology};
    use banger_sim::simulate;
    use banger_taskgraph::generators;

    fn simulate_lu() -> (TaskGraph, Machine, SimResult) {
        let g = std::sync::Arc::unwrap_or_clone(
            generators::lu_hierarchical(4).flatten().unwrap().graph,
        );
        let m = Machine::new(Topology::hypercube(2), crate::figures::figure3_params());
        let s = banger_sched::mh::mh(&g, &m);
        let r = simulate(&g, &m, &s).unwrap();
        (g, m, r)
    }

    #[test]
    fn frames_cover_the_run() {
        let (g, m, r) = simulate_lu();
        let text = animate(&g, m.processors(), &r, AnimateOptions::default());
        assert_eq!(
            text.lines().count(),
            1 + 12 + 1,
            "header + frames + footer:\n{text}"
        );
        assert!(text.contains("fan1"), "{text}");
        assert!(text.contains("t="));
        assert!(text.contains("done:"));
    }

    #[test]
    fn messages_appear_when_cross_processor() {
        let (g, m, r) = simulate_lu();
        if r.messages.is_empty() {
            return; // single-processor schedule: nothing to show
        }
        let text = animate(
            &g,
            m.processors(),
            &r,
            AnimateOptions {
                frames: 200,
                max_msgs: 8,
            },
        );
        assert!(text.contains('✉'), "{text}");
    }

    #[test]
    fn idle_marker_shown() {
        let (g, m, r) = simulate_lu();
        let text = animate(&g, m.processors(), &r, AnimateOptions::default());
        assert!(text.contains('·'), "some processor must idle:\n{text}");
    }

    #[test]
    fn empty_run() {
        let g = TaskGraph::new("empty");
        let m = Machine::new(Topology::single(), MachineParams::default());
        let s = banger_sched::list::serial(&g, &m);
        let r = simulate(&g, &m, &s).unwrap();
        let text = animate(&g, 1, &r, AnimateOptions::default());
        assert!(text.contains("nothing to animate"));
    }

    #[test]
    fn message_records_are_consistent() {
        let (_, m, r) = simulate_lu();
        for rec in &r.messages {
            assert!(rec.arrival > rec.inject);
            assert!(rec.src != rec.dst);
            assert!(rec.volume > 0.0);
            assert!(rec.src.index() < m.processors());
            assert!(rec.dst.index() < m.processors());
            // Arrival respects the machine's analytic minimum.
            let min = rec.inject + m.comm_time(rec.src, rec.dst, rec.volume);
            assert!(rec.arrival + 1e-9 >= min);
        }
        assert_eq!(r.messages.len() as u64, r.stats.messages);
    }
}
