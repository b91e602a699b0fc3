//! Deterministic fan-out over independent items, on the process's one
//! pool of threads.
//!
//! Several layers above this crate share one shape of work: many
//! independent runs whose answer must not depend on the thread
//! interleaving — the scheduler's sweeps over machines and heuristics,
//! the analyzer's seeded abstract interpretations, the executor's
//! firings. [`parallel_map`] is that fan-out, a work-claiming loop whose
//! output is **bit-identical to the sequential loop**: results are
//! collected by input index, never by completion order, and each run is a
//! pure function of its input.
//!
//! Every fan-out and every executor firing borrows its helpers from the
//! process's one pool ([`lend`]), lent to one caller at a time; a caller
//! that finds it lent, a fan-out nested in a job included, runs alone.
//!
//! ```text
//! lend(n, job, mine):  lease (try_lock) → grow the pool to n → offer n
//!                      seats → mine() on the caller → withdraw the free
//!                      seats, wait for the seated helpers → re-raise the
//!                      first helper's panic
//! ```
//!
//! Worker count comes from [`host_cores`], capped by the number of items;
//! a single item (or a single hardware thread) is the plain sequential
//! loop. A caller that must have a given number of threads whatever the
//! host offers (a test on a 1-CPU container) passes it to
//! [`parallel_map_on`].

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock, PoisonError, TryLockError};

/// Applies `f` to every item and returns the results **in input order**.
///
/// Items are claimed from a shared atomic cursor by the calling thread and
/// the helpers it borrows, so a slow item does not leave later items
/// stranded behind it; each result is kept tagged with its index. Because
/// `f` receives only the item (and its index) and the collection is by
/// index, the output `Vec` is exactly what the sequential
/// `items.iter().map(..)` loop would produce, whatever the thread
/// interleaving.
///
/// Panics in `f` propagate: a helper's panic is re-raised on the caller's
/// thread once every helper has left.
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
/// works rather than waits, so it asks the pool for `workers - 1`
/// helpers, and runs alone when the pool is lent elsewhere.
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
    let done = Mutex::new(Vec::with_capacity(items.len()));
    let claim = |_seat: usize| {
        let mut mine = Vec::new();
        loop {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            let Some(item) = items.get(i) else { break };
            mine.push((i, f(i, item)));
        }
        lock(&done).append(&mut mine);
    };
    lend(workers - 1, &claim, || claim(0));
    let mut done = done.into_inner().unwrap_or_else(PoisonError::into_inner);
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, r)| r).collect()
}

/// Runs `mine` on the calling thread while up to `helpers` pool threads
/// each run `job` with their seat, `1..=helpers`; returns `mine`'s result
/// and the helpers seated, once all have left, also while `mine` unwinds.
/// A helper may join after `mine` returns, so `job` must then return at
/// once. A helper's panic is re-raised here. With the pool lent elsewhere
/// (another thread, or this one a fan-out up), `mine` runs alone.
pub fn lend<R>(
    helpers: usize,
    job: &(dyn Fn(usize) + Sync),
    mine: impl FnOnce() -> R,
) -> (R, usize) {
    if helpers == 0 {
        return (mine(), 0);
    }
    let _lease = match POOL.lease.try_lock() {
        Ok(held) => held,
        // A lease dropped by an unwinding caller guards nothing torn.
        Err(TryLockError::Poisoned(held)) => held.into_inner(),
        Err(TryLockError::WouldBlock) => return (mine(), 0),
    };
    let have = grow(helpers);
    let barrier = Barrier;
    // SAFETY: only the lifetime is erased. A helper reads `Seats::job`
    // only under the seats lock, in the same step that counts it in
    // `inside`, and `barrier`'s drop — which runs before this function
    // returns or unwinds, since it never leaves this frame — sets
    // `offered` to `taken`, waits for `inside == 0` and clears
    // `Seats::job`. So no helper can reach `job` once this call has
    // returned, which is all its borrow needs: the argument
    // `std::thread::scope` rests on, with the helpers joined by a count
    // instead of a handle.
    let job = unsafe { std::mem::transmute::<Job<'_>, Job<'static>>(job) };
    *lock(&POOL.seats) = Seats {
        job: Some(job),
        offered: helpers.min(have),
        ..IDLE
    };
    POOL.call.notify_all();
    let out = mine();
    drop(barrier);
    let mut seats = lock(&POOL.seats);
    if let Some(panic) = seats.panic.take() {
        drop(seats);
        resume_unwind(panic);
    }
    (out, seats.taken)
}

/// The size of the process pool: the largest number of helpers any
/// caller of [`lend`] has asked for, spawned and never joined. The
/// callers' own threads are not counted.
pub fn live_pool_threads() -> usize {
    POOL.threads.load(Ordering::Relaxed)
}

/// A helper's part of a lent fan-out, called with its seat.
type Job<'a> = &'a (dyn Fn(usize) + Sync + 'a);

/// The process's helper threads and the one job they may join.
struct Pool {
    /// Held by the caller the pool is lent to; only ever `try_lock`ed.
    lease: Mutex<()>,
    /// Helper threads spawned; grown only by the lease holder.
    threads: AtomicUsize,
    seats: Mutex<Seats>,
    /// Helpers wait here for a free seat.
    call: Condvar,
    /// The lease holder waits here for the seated helpers to leave.
    left: Condvar,
}

/// The lent job as the helpers see it.
struct Seats {
    job: Option<Job<'static>>,
    offered: usize,
    taken: usize,
    /// Helpers seated and not yet left.
    inside: usize,
    /// The first panic a seated helper's job raised, for the caller.
    panic: Option<Box<dyn Any + Send>>,
}

const IDLE: Seats = Seats {
    job: None,
    offered: 0,
    taken: 0,
    inside: 0,
    panic: None,
};

static POOL: Pool = Pool {
    lease: Mutex::new(()),
    threads: AtomicUsize::new(0),
    seats: Mutex::new(IDLE),
    call: Condvar::new(),
    left: Condvar::new(),
};

/// The end of a lent job, on the caller's thread whether `mine` returned
/// or unwound: withdraws the free seats, waits for the seated helpers to
/// leave and takes the job back.
struct Barrier;

impl Drop for Barrier {
    fn drop(&mut self) {
        let mut seats = lock(&POOL.seats);
        seats.offered = seats.taken;
        while seats.inside > 0 {
            seats = wait(&POOL.left, seats);
        }
        seats.job = None;
    }
}

/// Grows the pool to `want` threads under the lease and returns its size
/// — the one place a pool thread is spawned. A thread the host refuses
/// leaves the pool smaller, which costs speed, not results.
fn grow(want: usize) -> usize {
    let mut have = POOL.threads.load(Ordering::Relaxed);
    while have < want {
        let thread = std::thread::Builder::new().name(format!("banger-pool-{}", have + 1));
        if thread.stack_size(STACK_SIZE).spawn(help).is_err() {
            break;
        }
        have += 1;
        POOL.threads.store(have, Ordering::Relaxed);
    }
    have
}

/// A pool thread's body: take a free seat, run the job as that seat,
/// leave, wait for the next. A panic in the job is handed to the lease
/// holder, so the thread lives as long as the process.
fn help() {
    let mut seats = lock(&POOL.seats);
    loop {
        let Some(job) = seats.job.filter(|_| seats.taken < seats.offered) else {
            seats = wait(&POOL.call, seats);
            continue;
        };
        seats.taken += 1;
        seats.inside += 1;
        let me = seats.taken;
        drop(seats);
        let panicked = catch_unwind(AssertUnwindSafe(|| job(me))).err();
        seats = lock(&POOL.seats);
        seats.panic = seats.panic.take().or(panicked);
        seats.inside -= 1;
        if seats.inside == 0 {
            POOL.left.notify_all();
        }
    }
}

/// The message a caught panic carries: the text `panic!` was given,
/// or a placeholder for any other payload. The executor names it in a
/// task's `WorkerPanic`, the daemon in its refusal of a request.
pub fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// `m`'s guard, also after a holder panicked: no lock here is held
/// across a write a panic could leave half done.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Waits on `cv` and takes the seats back as [`lock`] does.
fn wait<'a>(cv: &Condvar, seats: MutexGuard<'a, Seats>) -> MutexGuard<'a, Seats> {
    cv.wait(seats).unwrap_or_else(PoisonError::into_inner)
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
    use std::collections::HashSet;
    use std::sync::mpsc;
    use std::thread::ThreadId;
    use std::time::Duration;

    #[test]
    fn a_panic_message_is_the_text_panic_was_given() {
        let caught = |f: fn()| catch_unwind(f).expect_err("it panics");
        assert_eq!(panic_message(&*caught(|| panic!("plain"))), "plain");
        assert_eq!(panic_message(&*caught(|| panic!("item {}", 7))), "item 7");
        let other = caught(|| std::panic::panic_any(7u8));
        assert_eq!(panic_message(&*other), "non-string panic payload");
    }

    /// Taken by every test here that fans out on more than one worker:
    /// the pool is lent to one caller at a time, and a caller that finds
    /// it lent runs alone — exact, but not what a test that needs a
    /// helper asked for.
    fn turn() -> MutexGuard<'static, ()> {
        static TURN: Mutex<()> = Mutex::new(());
        lock(&TURN)
    }

    /// The largest fan-out this binary asks for, the caller included:
    /// `parallel_map_on(4, ..)` or `parallel_map` on every core.
    fn widest() -> usize {
        4.max(host_cores())
    }

    /// True on one of the pool's threads.
    fn on_a_helper() -> bool {
        std::thread::current()
            .name()
            .is_some_and(|name| name.starts_with("banger-pool-"))
    }

    /// This process's pool threads, counted by the kernel once it counts
    /// `want` or 5 s have passed: a thread names itself as it starts, so
    /// one just spawned may not carry its name yet.
    fn pool_thread_names(want: usize) -> usize {
        let count = || {
            let tasks = std::fs::read_dir("/proc/self/task").expect("Linux /proc");
            tasks
                .filter_map(|t| std::fs::read_to_string(t.ok()?.path().join("comm")).ok())
                .filter(|name| name.starts_with("banger-pool-"))
                .count()
        };
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while count() != want && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        count()
    }

    /// An item slow enough that the helpers find some left to claim.
    fn slow<R>(r: R) -> R {
        std::thread::sleep(Duration::from_micros(50));
        r
    }

    /// Runs `body` on its own thread and fails, rather than hangs, if it
    /// has not returned within 20 s.
    fn within_watchdog(body: impl FnOnce() + Send + 'static) {
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            body();
            tx.send(()).unwrap();
        });
        rx.recv_timeout(Duration::from_secs(20))
            .expect("the fan-out finished in time");
    }

    #[test]
    fn parallel_map_preserves_order() {
        let _turn = turn();
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
        let _turn = turn();
        let items: Vec<usize> = (0..64).collect();
        let out = parallel_map_on(4, &items, |_, &x| x * 2);
        assert_eq!(out, items.iter().map(|&x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn a_panic_on_any_thread_reaches_the_caller() {
        let _turn = turn();
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

    /// A hundred fan-outs borrow the same threads: the caller and the
    /// pool's, never a thread per call.
    #[test]
    fn a_hundred_fan_outs_run_on_one_set_of_threads() {
        let _turn = turn();
        let items: Vec<usize> = (0..16).collect();
        let seen = Mutex::new(HashSet::<ThreadId>::new());
        for _ in 0..100 {
            let out = parallel_map_on(4, &items, |_, &x| {
                lock(&seen).insert(std::thread::current().id());
                slow(x + 1)
            });
            assert_eq!(out, (1..=16).collect::<Vec<_>>());
        }
        let seen = seen.into_inner().unwrap().len();
        assert!(seen <= widest(), "{seen} threads ran 100 fan-outs");
        assert!(seen <= 1 + live_pool_threads());
    }

    /// A helper's panic is handed to the caller after the barrier; the
    /// helper's thread stays in the pool and goes on helping.
    #[test]
    fn a_helpers_panic_reaches_the_caller_and_the_pool_keeps_its_thread() {
        let _turn = turn();
        let items: Vec<usize> = (0..32).collect();
        parallel_map_on(4, &items, |_, &x| x);
        let size = live_pool_threads();
        assert!(size >= 3, "the pool grew to the seats asked for");
        assert_eq!(pool_thread_names(size), size);
        let helper_panicked = (0..1000).any(|_| {
            let run = || {
                parallel_map_on(4, &items, |_, &x| {
                    if on_a_helper() {
                        panic!("item {x} on a helper");
                    }
                    slow(x)
                })
            };
            match std::panic::catch_unwind(run) {
                Ok(out) => {
                    assert_eq!(out, items);
                    false
                }
                Err(panic) => {
                    let text = panic.downcast_ref::<String>().expect("the item's message");
                    assert!(text.ends_with(" on a helper"), "{text}");
                    true
                }
            }
        });
        assert!(helper_panicked, "no helper ever claimed an item");
        assert_eq!(live_pool_threads(), size);
        assert_eq!(pool_thread_names(size), size);
        let helped = (0..1000).any(|_| {
            parallel_map_on(4, &items, |_, &x| slow(on_a_helper()) && x < 32).contains(&true)
        });
        assert!(helped, "no helper claimed an item after the panic");
    }

    /// A fan-out from inside a job finds the pool lent and runs on its
    /// own thread, on the caller and on a helper alike, with the
    /// sequential loop's answer.
    #[test]
    fn a_nested_fan_out_runs_alone_with_the_sequential_answer() {
        let _turn = turn();
        within_watchdog(|| {
            let outer: Vec<u64> = (0..16).collect();
            let inner: Vec<u64> = (0..8).collect();
            let want: Vec<u64> = outer
                .iter()
                .map(|&x| inner.iter().map(|&y| x * 100 + y).sum())
                .collect();
            let (mut on_caller, mut on_helper) = (false, false);
            for _ in 0..1000 {
                let got = parallel_map_on(4, &outer, |_, &x| {
                    let sums = parallel_map_on(4, &inner, |_, &y| slow(x * 100 + y));
                    (sums.iter().sum::<u64>(), on_a_helper())
                });
                assert_eq!(got.iter().map(|&(s, _)| s).collect::<Vec<_>>(), want);
                on_helper |= got.iter().any(|&(_, h)| h);
                on_caller |= got.iter().any(|&(_, h)| !h);
                if on_caller && on_helper {
                    return;
                }
            }
            panic!("nested fan-outs ran on caller {on_caller}, on a helper {on_helper}");
        });
    }
}
