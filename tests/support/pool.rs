//! The turn every executor test that asks for helpers takes. A process
//! has one pool of helper threads and lends it to one firing at a time;
//! a firing that finds it lent runs on its caller alone. That is exact,
//! but it is not the worker count the test asked for, so such a test
//! holds [`turn`] for its whole run: no other test in its binary leases
//! the pool meanwhile, and each of its firings gets every seat it asks
//! for.

use std::sync::{Mutex, MutexGuard};

/// Holds the binary's pool until the guard drops. A test that failed
/// while holding it leaves it usable.
pub fn turn() -> MutexGuard<'static, ()> {
    static TURN: Mutex<()> = Mutex::new(());
    TURN.lock().unwrap_or_else(|e| e.into_inner())
}
