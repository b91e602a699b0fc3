//! The process's one pool of helper threads, lent to one firing at a
//! time; [`crate::session`] describes the firing's side.

use crate::session::Firing;
use banger_taskgraph::parallel::STACK_SIZE;
use parking_lot::{Condvar, Mutex, MutexGuard};
use std::sync::atomic::{AtomicUsize, Ordering};

/// The size of the process pool: the largest `workers - 1` any firing
/// has asked for, spawned and never joined. The callers' own threads are
/// not counted.
pub fn live_pool_threads() -> usize {
    POOL.threads.load(Ordering::Relaxed)
}

/// The process's helper threads and the one firing they may join.
pub(crate) struct Pool {
    /// Held by the firing that has the pool; only ever `try_lock`ed.
    pub(crate) lease: Mutex<()>,
    /// Helper threads spawned; grown only by the lease holder.
    threads: AtomicUsize,
    seats: Mutex<Seats>,
    /// Helpers wait here for a free seat.
    call: Condvar,
    /// The lease holder waits here for the seated helpers to leave.
    left: Condvar,
}

/// The leased firing as the helpers see it.
struct Seats {
    firing: Option<Firing>,
    offered: usize,
    taken: usize,
    /// Helpers seated and not yet left.
    inside: usize,
}

pub(crate) static POOL: Pool = Pool {
    lease: Mutex::new(()),
    threads: AtomicUsize::new(0),
    seats: Mutex::new(Seats {
        firing: None,
        offered: 0,
        taken: 0,
        inside: 0,
    }),
    call: Condvar::new(),
    left: Condvar::new(),
};

/// The pool, held by one firing. Dropping it is the end-of-firing
/// barrier: it withdraws the free seats and waits for the seated helpers
/// to leave.
pub(crate) struct Lease {
    _held: MutexGuard<'static, ()>,
}

/// Leases the pool and offers `firing` `want` seats, first growing the pool
/// to `want` threads — the one place a pool thread is spawned; `None`
/// while another firing holds it. A thread the host refuses leaves the
/// pool smaller, which costs speed, not results.
pub(crate) fn lease(want: usize, firing: Firing) -> Option<Lease> {
    let held = POOL.lease.try_lock()?;
    let mut have = POOL.threads.load(Ordering::Relaxed);
    while have < want {
        let thread = std::thread::Builder::new().name(format!("banger-exec-{}", have + 1));
        if thread.stack_size(STACK_SIZE).spawn(help).is_err() {
            break;
        }
        have += 1;
        POOL.threads.store(have, Ordering::Relaxed);
    }
    *POOL.seats.lock() = Seats {
        firing: Some(firing),
        offered: want.min(have),
        taken: 0,
        inside: 0,
    };
    POOL.call.notify_all();
    Some(Lease { _held: held })
}

impl Lease {
    /// Withdraws the free seats and returns how many helpers took one;
    /// the drop that follows waits for them to leave.
    pub(crate) fn end(self) -> usize {
        let mut seats = POOL.seats.lock();
        seats.offered = seats.taken;
        seats.taken
    }
}

impl Drop for Lease {
    fn drop(&mut self) {
        let mut seats = POOL.seats.lock();
        seats.offered = seats.taken;
        while seats.inside > 0 {
            POOL.left.wait(&mut seats);
        }
        seats.firing = None;
    }
}

/// A pool thread's body: take a free seat, work that firing as the
/// seat's worker, leave, wait for the next. The thread lives as long as
/// the process.
fn help() {
    let mut seats = POOL.seats.lock();
    loop {
        let Some(firing) = seats.firing.clone().filter(|_| seats.taken < seats.offered) else {
            POOL.call.wait(&mut seats);
            continue;
        };
        seats.taken += 1;
        seats.inside += 1;
        let me = seats.taken;
        drop(seats);
        firing.work(me);
        seats = POOL.seats.lock();
        seats.inside -= 1;
        if seats.inside == 0 {
            POOL.left.notify_all();
        }
    }
}
