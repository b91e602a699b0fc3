//! Deterministic parallel sweeps over independent scheduling runs.
//!
//! The environment's interactive tools — speedup prediction, heuristic
//! comparison, machine advice — all share one shape: schedule the *same*
//! task graph many times against different machines or with different
//! heuristics, then tabulate. Every run is independent, so the sweep is
//! embarrassingly parallel; what must NOT change is the answer. This
//! module provides [`parallel_map`], a work-claiming fan-out whose output
//! is **bit-identical to the sequential loop**: results are collected by
//! input index, never by completion order, and each run is a pure function
//! of its input.
//!
//! Worker count comes from [`host_cores`], capped by the number of items;
//! a single item (or a single hardware thread)
//! short-circuits to the plain sequential loop so tiny sweeps pay no
//! thread-spawn tax. A caller that must have a given number of threads
//! whatever the host offers (a test on a 1-CPU container) passes it to
//! [`parallel_map_on`].

use crate::schedule::Schedule;
use banger_machine::Machine;
use banger_taskgraph::TaskGraph;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, OnceLock};

/// Applies `f` to every item and returns the results **in input order**.
///
/// Items are claimed by worker threads from a shared atomic cursor, so a
/// slow item does not leave later items stranded behind it; each result is
/// sent home tagged with its index. Because `f` receives only the item (and
/// its index) and the collection is by index, the output `Vec` is exactly
/// what the sequential `items.iter().map(..)` loop would produce, whatever
/// the thread interleaving.
///
/// Panics in `f` propagate: the scope joins all workers, and a worker that
/// panicked poisons the join, re-raising on the caller's thread.
pub fn parallel_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    parallel_map_on(planned_workers(items.len()), items, f)
}

/// [`parallel_map`] on `workers` threads, whatever the host offers; one
/// or none is the plain sequential loop.
pub fn parallel_map_on<T, R, F>(workers: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    if workers <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }

    let cursor = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(usize, R)>();
    let mut out: Vec<Option<R>> = Vec::with_capacity(items.len());
    out.resize_with(items.len(), || None);

    std::thread::scope(|s| {
        for _ in 0..workers {
            let tx = tx.clone();
            let cursor = &cursor;
            let f = &f;
            s.spawn(move || loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= items.len() {
                    break;
                }
                // The receiver outlives the scope; send only fails if
                // the caller's thread already panicked, in which case
                // the result is moot.
                let _ = tx.send((i, f(i, &items[i])));
            });
        }
        drop(tx);
        for (i, r) in rx {
            out[i] = Some(r);
        }
    });

    out.into_iter()
        .map(|r| r.expect("worker claimed every index"))
        .collect()
}

/// The worker-thread count [`parallel_map`] will use for a sweep of
/// `items` items: [`host_cores`] capped by the item count, where `<= 1`
/// means the sweep runs as a plain sequential loop.
pub fn planned_workers(items: usize) -> usize {
    host_cores().min(items)
}

/// The host's core count, read once per process. On Linux
/// `available_parallelism` reads the cgroup files on every call, which a
/// cold executor run or a small sweep would otherwise pay each time; a
/// CPU quota or affinity changed after the first read is not seen.
pub fn host_cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Schedules `g` on every machine in `machines` with the named heuristic,
/// in parallel. Every run reads the one [`TaskGraph::analysis`] of `g`, so
/// the levels are computed at most once per sweep. Results are in
/// `machines` order. Returns `None` if `name` is unknown.
pub fn sweep_machines(name: &str, g: &TaskGraph, machines: &[Machine]) -> Option<Vec<Schedule>> {
    // Validate the name once, up front, so the fan-out can unwrap.
    if !crate::HEURISTIC_NAMES.contains(&name) {
        return None;
    }
    Some(parallel_map(machines, |_, m| {
        crate::run_heuristic(name, g, m).expect("name pre-validated")
    }))
}

/// Schedules `g` on `m` with every named heuristic, in parallel, all
/// reading the one [`TaskGraph::analysis`] of `g`. Results are in `names`
/// order; unknown names yield `None` in their slot.
pub fn sweep_heuristics(names: &[&str], g: &TaskGraph, m: &Machine) -> Vec<Option<Schedule>> {
    parallel_map(names, |_, name| crate::run_heuristic(name, g, m))
}

#[cfg(test)]
mod tests {
    use super::*;
    use banger_machine::{MachineParams, Topology};
    use banger_taskgraph::generators;

    #[test]
    fn parallel_map_preserves_order() {
        let items: Vec<usize> = (0..257).collect();
        let out = parallel_map(&items, |i, &x| {
            assert_eq!(i, x);
            x * 3 + 1
        });
        assert_eq!(out, items.iter().map(|&x| x * 3 + 1).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_map_handles_empty_and_single() {
        let none: Vec<u32> = vec![];
        assert!(parallel_map(&none, |_, &x| x).is_empty());
        assert_eq!(parallel_map(&[7u32], |_, &x| x + 1), vec![8]);
    }

    #[test]
    fn planned_workers_are_capped_by_the_items() {
        assert_eq!(planned_workers(0), 0);
        assert_eq!(planned_workers(1), 1);
        assert!((1..=100).contains(&planned_workers(100)));
    }

    #[test]
    fn four_workers_match_sequential() {
        // Forced, so the threaded path runs on a 1-CPU host too.
        let items: Vec<usize> = (0..64).collect();
        let out = parallel_map_on(4, &items, |_, &x| x * 2);
        assert_eq!(out, items.iter().map(|&x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn sweep_machines_matches_sequential() {
        let g = generators::gauss_elimination(5, 2.0, 3.0);
        let machines: Vec<Machine> = (0..=4)
            .map(|dim| {
                Machine::new(
                    Topology::hypercube(dim),
                    MachineParams {
                        msg_startup: 0.5,
                        ..MachineParams::default()
                    },
                )
            })
            .collect();
        let par = sweep_machines("MH", &g, &machines).unwrap();
        for (m, s) in machines.iter().zip(&par) {
            let seq = crate::mh::mh(&g, m);
            assert_eq!(*s, seq, "{}", m.topology().name());
        }
    }

    #[test]
    fn sweep_machines_rejects_unknown_heuristic() {
        let g = generators::fork_join(2, 1.0, 1.0, 1.0, 1.0);
        let machines = [Machine::new(Topology::single(), MachineParams::default())];
        assert!(sweep_machines("bogus", &g, &machines).is_none());
    }

    #[test]
    fn sweep_heuristics_matches_sequential() {
        let g = generators::lattice(4, 4, 3.0, 2.0);
        let m = Machine::new(Topology::mesh(2, 2), MachineParams::default());
        let mut names: Vec<&str> = crate::HEURISTIC_NAMES.to_vec();
        names.push("bogus");
        let par = sweep_heuristics(&names, &g, &m);
        for (name, s) in names.iter().zip(&par) {
            let seq = crate::run_heuristic(name, &g, &m);
            assert_eq!(*s, seq, "{name}");
        }
        assert!(par.last().unwrap().is_none());
    }
}
