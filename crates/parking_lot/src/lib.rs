//! Offline stand-in for the `parking_lot` crate.
//!
//! The build container has no crates.io access, so this crate provides the
//! `Mutex` / `Condvar` subset the executor uses, with parking_lot's API shape
//! (infallible `lock()`, `Condvar::wait(&mut guard)`, `into_inner()` returning
//! the value directly) implemented on top of `std::sync`. Poisoned std locks
//! are transparently recovered — parking_lot has no poisoning, and the
//! executor relies on that.

use std::ops::{Deref, DerefMut};

pub struct Mutex<T: ?Sized> {
    inner: std::sync::Mutex<T>,
}

pub struct MutexGuard<'a, T: ?Sized> {
    // Option so Condvar::wait can temporarily take the std guard out.
    inner: Option<std::sync::MutexGuard<'a, T>>,
}

impl<T> Mutex<T> {
    pub const fn new(value: T) -> Self {
        Mutex {
            inner: std::sync::Mutex::new(value),
        }
    }

    pub fn into_inner(self) -> T {
        self.inner.into_inner().unwrap_or_else(|e| e.into_inner())
    }
}

impl<T: ?Sized> Mutex<T> {
    pub fn lock(&self) -> MutexGuard<'_, T> {
        MutexGuard {
            inner: Some(self.inner.lock().unwrap_or_else(|e| e.into_inner())),
        }
    }

    /// The guard, or `None` at once if another thread holds the lock.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        let inner = match self.inner.try_lock() {
            Ok(guard) => guard,
            Err(std::sync::TryLockError::Poisoned(e)) => e.into_inner(),
            Err(std::sync::TryLockError::WouldBlock) => return None,
        };
        Some(MutexGuard { inner: Some(inner) })
    }
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard present")
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard present")
    }
}

#[derive(Default)]
pub struct Condvar {
    inner: std::sync::Condvar,
}

impl Condvar {
    pub const fn new() -> Self {
        Condvar {
            inner: std::sync::Condvar::new(),
        }
    }

    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        let g = guard.inner.take().expect("guard present");
        let g = self.inner.wait(g).unwrap_or_else(|e| e.into_inner());
        guard.inner = Some(g);
    }

    pub fn notify_all(&self) {
        self.inner.notify_all();
    }

    pub fn notify_one(&self) {
        self.inner.notify_one();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn lock_and_mutate() {
        let m = Mutex::new(1);
        *m.lock() += 41;
        assert_eq!(*m.lock(), 42);
        assert_eq!(m.into_inner(), 42);
    }

    #[test]
    fn try_lock_fails_only_while_held() {
        let m = Mutex::new(());
        let held = m.try_lock().expect("free");
        assert!(m.try_lock().is_none());
        drop(held);
        assert!(m.try_lock().is_some());
    }

    #[test]
    fn condvar_handoff() {
        let state = Arc::new((Mutex::new(false), Condvar::new()));
        let s2 = Arc::clone(&state);
        let t = std::thread::spawn(move || {
            let (m, cv) = &*s2;
            let mut done = m.lock();
            while !*done {
                cv.wait(&mut done);
            }
        });
        {
            let (m, cv) = &*state;
            *m.lock() = true;
            cv.notify_all();
        }
        t.join().unwrap();
    }
}
