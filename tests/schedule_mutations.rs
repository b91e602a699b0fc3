//! Failure injection: take valid schedules, corrupt them in every way the
//! validator claims to detect, and check each corruption is caught with
//! the right error. Also checks benign transformations still validate —
//! the validator must be exactly as strict as the invariants.

use banger_machine::{Machine, MachineParams, ProcId, Topology};
use banger_sched::{Schedule, ScheduleError};
use banger_taskgraph::{generators, TaskGraph};

fn setup() -> (TaskGraph, Machine, Schedule) {
    let g = generators::gauss_elimination(5, 3.0, 2.0);
    let m = Machine::new(
        Topology::hypercube(2),
        MachineParams {
            msg_startup: 0.5,
            process_startup: 0.2,
            ..MachineParams::default()
        },
    );
    let s = banger_sched::mh::mh(&g, &m);
    s.validate(&g, &m).expect("baseline is valid");
    (g, m, s)
}

/// Rebuilds a schedule applying `f` to each placement.
fn map_schedule(
    s: &Schedule,
    mut f: impl FnMut(usize, &banger_sched::Placement) -> Option<banger_sched::Placement>,
) -> Schedule {
    let mut out = Schedule::new(s.heuristic().to_string(), s.task_count());
    for (i, p) in s.placements().iter().enumerate() {
        if let Some(q) = f(i, p) {
            out.place(q.task, q.proc, q.start, q.finish, q.primary);
        }
    }
    out
}

#[test]
fn dropping_a_task_is_caught() {
    let (g, m, s) = setup();
    let victim = s.placements()[3].task;
    let mutated = map_schedule(&s, |_, p| (p.task != victim).then_some(*p));
    assert_eq!(
        mutated.validate(&g, &m),
        Err(ScheduleError::Unplaced(victim))
    );
}

#[test]
fn starting_before_inputs_is_caught() {
    let (g, m, s) = setup();
    // Pick a task with predecessors and pull its start to zero.
    let victim = g
        .task_ids()
        .find(|&t| g.in_degree(t) > 0)
        .expect("gauss has dependent tasks");
    let mutated = map_schedule(&s, |_, p| {
        if p.task == victim {
            let dur = p.finish - p.start;
            Some(banger_sched::Placement {
                start: 0.0,
                finish: dur,
                ..*p
            })
        } else {
            Some(*p)
        }
    });
    match mutated.validate(&g, &m) {
        Err(ScheduleError::PrecedenceViolated { task, .. }) => assert_eq!(task, victim),
        Err(ScheduleError::Overlap { .. }) => {} // may trip overlap first
        other => panic!("expected violation, got {other:?}"),
    }
}

#[test]
fn overlapping_same_processor_is_caught() {
    let (g, m, s) = setup();
    // Find a processor with two placements and slide the second into the
    // first (keeping duration).
    let proc = m
        .proc_ids()
        .find(|&p| s.on_processor(p).len() >= 2)
        .expect("some processor runs two tasks");
    let second = *s.on_processor(proc)[1];
    let first = *s.on_processor(proc)[0];
    let mutated = map_schedule(&s, |_, p| {
        if p.task == second.task && p.proc == proc && p.start == second.start {
            let dur = p.finish - p.start;
            let new_start = first.start + 1e-3;
            Some(banger_sched::Placement {
                start: new_start,
                finish: new_start + dur,
                ..*p
            })
        } else {
            Some(*p)
        }
    });
    match mutated.validate(&g, &m) {
        Err(ScheduleError::Overlap { proc: p, .. }) => assert_eq!(p, proc),
        Err(ScheduleError::PrecedenceViolated { .. }) => {} // moving can trip this first
        other => panic!("expected overlap, got {other:?}"),
    }
}

#[test]
fn wrong_duration_is_caught() {
    let (g, m, s) = setup();
    let victim = s.placements()[0];
    let mutated = map_schedule(&s, |i, p| {
        if i == 0 {
            Some(banger_sched::Placement {
                finish: p.finish + 0.5,
                ..*p
            })
        } else {
            Some(*p)
        }
    });
    match mutated.validate(&g, &m) {
        Err(ScheduleError::WrongDuration { task, .. }) => assert_eq!(task, victim.task),
        Err(ScheduleError::Overlap { .. }) => {}
        other => panic!("expected duration error, got {other:?}"),
    }
}

#[test]
fn unknown_processor_is_caught() {
    let (g, m, s) = setup();
    let mutated = map_schedule(&s, |i, p| {
        Some(if i == 0 {
            banger_sched::Placement {
                proc: ProcId(99),
                ..*p
            }
        } else {
            *p
        })
    });
    assert_eq!(
        mutated.validate(&g, &m),
        Err(ScheduleError::UnknownProcessor(ProcId(99)))
    );
}

#[test]
fn negative_time_is_caught() {
    let (g, m, s) = setup();
    let mutated = map_schedule(&s, |i, p| {
        Some(if i == 0 {
            banger_sched::Placement {
                start: -1.0,
                finish: p.finish - p.start - 1.0,
                ..*p
            }
        } else {
            *p
        })
    });
    assert!(matches!(
        mutated.validate(&g, &m),
        Err(ScheduleError::BadTimes(_))
    ));
}

#[test]
fn demoting_the_primary_is_caught() {
    let (g, m, s) = setup();
    let victim = s.placements()[0].task;
    let mutated = map_schedule(&s, |_, p| {
        Some(if p.task == victim {
            banger_sched::Placement {
                primary: false,
                ..*p
            }
        } else {
            *p
        })
    });
    assert_eq!(
        mutated.validate(&g, &m),
        Err(ScheduleError::BadPrimary(victim))
    );
}

#[test]
fn uniform_time_shift_stays_valid() {
    let (g, m, s) = setup();
    let shifted = map_schedule(&s, |_, p| {
        Some(banger_sched::Placement {
            start: p.start + 10.0,
            finish: p.finish + 10.0,
            ..*p
        })
    });
    shifted
        .validate(&g, &m)
        .expect("uniform shift preserves all invariants");
    assert_eq!(shifted.makespan(), s.makespan() + 10.0);
}

#[test]
fn slack_stretch_stays_valid() {
    // Delaying only the very last task (by finish time) can never violate
    // precedence and cannot overlap anything after it.
    let (g, m, s) = setup();
    let last = s
        .placements()
        .iter()
        .max_by(|a, b| a.finish.total_cmp(&b.finish))
        .copied()
        .unwrap();
    let stretched = map_schedule(&s, |_, p| {
        Some(if p.task == last.task && p.start == last.start {
            banger_sched::Placement {
                start: p.start + 5.0,
                finish: p.finish + 5.0,
                ..*p
            }
        } else {
            *p
        })
    });
    stretched
        .validate(&g, &m)
        .expect("stretching the tail is benign");
}

#[test]
fn every_heuristic_rejects_tampering() {
    // Sweep: for each heuristic's schedule, deleting any single placement
    // must always be caught (either as unplaced or broken primary).
    let g = generators::fork_join(4, 2.0, 6.0, 2.0, 3.0);
    let m = Machine::new(Topology::fully_connected(4), MachineParams::default());
    for h in banger_sched::HEURISTIC_NAMES {
        let s = banger_sched::run_heuristic(h, &g, &m).unwrap();
        for skip in 0..s.placements().len() {
            if !s.placements()[skip].primary {
                // Deleting a redundant duplicate copy can be legitimately
                // harmless; only primaries are load-bearing by contract.
                continue;
            }
            let mutated = map_schedule(&s, |i, p| (i != skip).then_some(*p));
            assert!(
                mutated.validate(&g, &m).is_err(),
                "{h}: deleting placement {skip} went unnoticed"
            );
        }
    }
}
