//! Text serialisation for schedules, so a computed schedule can be saved
//! next to its `.bang` project and replayed later (simulation, pinned
//! execution, code generation) without re-running the heuristic.
//!
//! Format:
//!
//! ```text
//! schedule <heuristic> tasks <n>
//! place <task-id> <proc-id> <start> <finish> primary|copy
//! ```

use crate::schedule::Schedule;
use banger_machine::ProcId;
use banger_taskgraph::TaskId;
use std::fmt::Write as _;

/// Serialises a schedule.
pub fn to_text(s: &Schedule) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "schedule {} tasks {}", s.heuristic(), s.task_count());
    for p in s.placements() {
        let _ = writeln!(
            out,
            "place {} {} {} {} {}",
            p.task.0,
            p.proc.0,
            p.start,
            p.finish,
            if p.primary { "primary" } else { "copy" }
        );
    }
    out
}

/// Parses a schedule back. Errors are strings (one per offending line).
pub fn from_text(text: &str) -> Result<Schedule, String> {
    let mut schedule: Option<Schedule> = None;
    for (no, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        let ctx = |m: &str| format!("line {}: {m}", no + 1);
        match parts.next().unwrap() {
            "schedule" => {
                let heuristic = parts.next().ok_or_else(|| ctx("missing heuristic"))?;
                let kw = parts.next();
                if kw != Some("tasks") {
                    return Err(ctx("expected `tasks <n>`"));
                }
                let n: usize = parts
                    .next()
                    .ok_or_else(|| ctx("missing task count"))?
                    .parse()
                    .map_err(|_| ctx("bad task count"))?;
                schedule = Some(Schedule::new(heuristic.to_string(), n));
            }
            "place" => {
                let s = schedule
                    .as_mut()
                    .ok_or_else(|| ctx("place before header"))?;
                let mut num = |what: &str| -> Result<f64, String> {
                    parts
                        .next()
                        .ok_or_else(|| ctx(&format!("missing {what}")))?
                        .parse()
                        .map_err(|_| ctx(&format!("bad {what}")))
                };
                let task = num("task id")? as u32;
                let proc = num("proc id")? as u32;
                let start = num("start")?;
                let finish = num("finish")?;
                let primary = match parts.next() {
                    Some("primary") => true,
                    Some("copy") => false,
                    _ => return Err(ctx("expected `primary` or `copy`")),
                };
                s.place(TaskId(task), ProcId(proc), start, finish, primary);
            }
            other => return Err(ctx(&format!("unknown directive {other:?}"))),
        }
    }
    schedule.ok_or_else(|| "empty schedule document".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use banger_machine::{Machine, MachineParams, Topology};
    use banger_taskgraph::generators;

    #[test]
    fn round_trip_all_heuristics() {
        let g = generators::gauss_elimination(5, 2.0, 1.0);
        let m = Machine::new(
            Topology::hypercube(2),
            MachineParams {
                msg_startup: 0.5,
                ..MachineParams::default()
            },
        );
        for h in crate::HEURISTIC_NAMES {
            let s = crate::run_heuristic(h, &g, &m).unwrap();
            let text = to_text(&s);
            let back = from_text(&text).unwrap();
            assert_eq!(s, back, "{h}");
            back.validate(&g, &m).unwrap();
        }
    }

    #[test]
    fn duplicates_round_trip() {
        let g = generators::fork_join(4, 2.0, 10.0, 2.0, 15.0);
        let m = Machine::new(
            Topology::fully_connected(4),
            MachineParams {
                msg_startup: 1.0,
                ..MachineParams::default()
            },
        );
        let s = crate::dsh::dsh(&g, &m);
        let text = to_text(&s);
        assert!(text.contains("copy"), "DSH produces duplicates here");
        let back = from_text(&text).unwrap();
        assert_eq!(s, back);
    }

    #[test]
    fn parse_errors() {
        assert!(from_text("").is_err());
        assert!(from_text("place 0 0 0 1 primary").is_err(), "header first");
        assert!(from_text("schedule X tasks nope").is_err());
        assert!(from_text("schedule X tasks 1\nplace 0 0 0 1 maybe").is_err());
        assert!(from_text("schedule X tasks 1\nbogus").is_err());
        let err = from_text("schedule X tasks 1\nplace 0 0 zero 1 primary").unwrap_err();
        assert!(err.contains("line 2"), "{err}");
    }

    #[test]
    fn comments_ignored() {
        let s = from_text("# saved by banger\nschedule ETF tasks 1\nplace 0 0 0 2.5 primary\n")
            .unwrap();
        assert_eq!(s.heuristic(), "ETF");
        assert_eq!(s.makespan(), 2.5);
    }
}
