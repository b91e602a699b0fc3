//! Deterministic fan-out over independent items.
//!
//! Several layers above this crate share one shape of work: many
//! independent runs whose answer must not depend on the thread
//! interleaving — the scheduler's sweeps over machines and heuristics,
//! the analyzer's seeded abstract interpretations, the executor's worker
//! count. [`parallel_map`] is that fan-out, a work-claiming loop whose
//! output is **bit-identical to the sequential loop**: results are
//! collected by input index, never by completion order, and each run is a
//! pure function of its input.
//!
//! Worker count comes from [`host_cores`], capped by the number of items;
//! a single item (or a single hardware thread) short-circuits to the plain
//! sequential loop so tiny fan-outs pay no thread-spawn tax. A caller that
//! must have a given number of threads whatever the host offers (a test on
//! a 1-CPU container) passes it to [`parallel_map_on`].

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::thread::Builder;

/// Applies `f` to every item and returns the results **in input order**.
///
/// Items are claimed from a shared atomic cursor by the calling thread and
/// the workers it spawns, so a slow item does not leave later items
/// stranded behind it; each result is kept tagged with its index. Because
/// `f` receives only the item (and its index) and the collection is by
/// index, the output `Vec` is exactly what the sequential
/// `items.iter().map(..)` loop would produce, whatever the thread
/// interleaving.
///
/// Panics in `f` propagate: the scope joins all workers, and a worker that
/// panicked re-raises its panic on the caller's thread.
pub fn parallel_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    parallel_map_on(planned_workers(items.len()), items, f)
}

/// [`parallel_map`] on `workers` threads, the caller's included, whatever
/// the host offers; one or none is the plain sequential loop. The caller
/// works rather than waits, so `workers` threads run at most, and only
/// `workers - 1` are spawned: each thread a process has had keeps its own
/// malloc arena, which a peak resident size counts.
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
    let claim = || {
        let mut done = Vec::new();
        loop {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            if i >= items.len() {
                return done;
            }
            done.push((i, f(i, &items[i])));
        }
    };
    let mut out: Vec<Option<R>> = Vec::with_capacity(items.len());
    out.resize_with(items.len(), || None);

    std::thread::scope(|s| {
        // A helper the host refuses leaves its share to the caller.
        let spawn = || Builder::new().stack_size(STACK_SIZE).spawn_scoped(s, claim);
        let helpers: Vec<_> = (1..workers).filter_map(|_| spawn().ok()).collect();
        let mut place = |done: Vec<(usize, R)>| {
            for (i, r) in done {
                out[i] = Some(r);
            }
        };
        place(claim());
        for helper in helpers {
            place(
                helper
                    .join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic)),
            );
        }
    });

    out.into_iter()
        .map(|r| r.expect("a thread claimed every index"))
        .collect()
}

/// The worker-thread count [`parallel_map`] will use for a sweep of
/// `items` items: [`host_cores`] capped by the item count, where `<= 1`
/// means the sweep runs as a plain sequential loop.
pub fn planned_workers(items: usize) -> usize {
    host_cores().min(items)
}

/// The stack of every thread Banger spawns: 8 MiB, the main thread's on
/// Linux. Each of them may walk user input recursively (parse, analyze,
/// compile, interpret), and a document's depth limits are measured
/// against this size, so a verb stops at the same depth on any thread.
pub const STACK_SIZE: usize = 8 << 20;

/// The host's core count, read once per process. On Linux
/// `available_parallelism` reads the cgroup files on every call, which a
/// cold executor run or a small sweep would otherwise pay each time; a
/// CPU quota or affinity changed after the first read is not seen.
pub fn host_cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn a_panic_on_any_thread_reaches_the_caller() {
        let items: Vec<usize> = (0..64).collect();
        for bad in [0, 63] {
            let run = || {
                parallel_map_on(
                    4,
                    &items,
                    |_, &x| if x == bad { panic!("item {x}") } else { x },
                )
            };
            let panic = std::panic::catch_unwind(run).expect_err("the panic propagates");
            assert_eq!(
                panic.downcast_ref::<String>().map(String::as_str),
                Some(&*format!("item {bad}"))
            );
        }
    }
}
