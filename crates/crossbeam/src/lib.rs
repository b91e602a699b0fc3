//! Offline stand-in for the `crossbeam` crate.
//!
//! The build container has no crates.io access, so this crate provides the
//! one piece the executor uses: `crossbeam::deque`, a Chase–Lev
//! work-stealing deque ([`deque::Worker`] / [`deque::Stealer`]), the
//! lock-free structure the work-stealing executor schedules ready tasks
//! through. One owner pushes and pops LIFO at the bottom; any number of
//! thieves steal FIFO from the top.

pub mod deque {
    //! A Chase–Lev work-stealing deque (Chase & Lev, *Dynamic Circular
    //! Work-Stealing Deque*, SPAA '05), with the memory orderings of Lê
    //! et al., *Correct and Efficient Work-Stealing for Weak Memory
    //! Models* (PPoPP '13).
    //!
    //! One [`Worker`] owns the bottom end: `push` and `pop` are
    //! uncontended single-thread operations in the common case and pay
    //! one fence each. Any number of [`Stealer`] handles take from the
    //! top end with a CAS. The only lock in the structure guards the
    //! retired-buffer list touched exclusively during growth; every
    //! push/pop/steal on the hot path is lock-free.
    //!
    //! Grown-out-of buffers are retired, not freed, until the deque
    //! drops: a thief that loaded the old buffer pointer may still be
    //! reading a slot from it, and its CAS on `top` decides whether that
    //! speculative read is kept or forgotten.

    use std::cell::UnsafeCell;
    use std::marker::PhantomData;
    use std::mem::MaybeUninit;
    use std::sync::atomic::{fence, AtomicIsize, AtomicPtr, Ordering};
    use std::sync::{Arc, Mutex};

    /// The result of a [`Stealer::steal`] attempt.
    #[derive(Debug)]
    pub enum Steal<T> {
        /// The deque was empty.
        Empty,
        /// Took the oldest item.
        Success(T),
        /// Lost a race with the owner or another thief; try again.
        Retry,
    }

    impl<T> Steal<T> {
        /// The stolen value, if the attempt succeeded.
        pub fn success(self) -> Option<T> {
            match self {
                Steal::Success(v) => Some(v),
                _ => None,
            }
        }

        /// True when the deque was observed empty.
        pub fn is_empty(&self) -> bool {
            matches!(self, Steal::Empty)
        }
    }

    /// Fixed-capacity circular slot array. Indexed by the *logical*
    /// position (monotonic), masked down to a physical slot.
    struct Buffer<T> {
        slots: Box<[UnsafeCell<MaybeUninit<T>>]>,
        mask: usize,
    }

    impl<T> Buffer<T> {
        fn alloc(cap: usize) -> *mut Buffer<T> {
            debug_assert!(cap.is_power_of_two());
            let slots = (0..cap)
                .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
                .collect::<Vec<_>>()
                .into_boxed_slice();
            Box::into_raw(Box::new(Buffer {
                slots,
                mask: cap - 1,
            }))
        }

        fn cap(&self) -> usize {
            self.slots.len()
        }

        /// Owner-only write of logical slot `i`.
        unsafe fn write(&self, i: isize, v: T) {
            let cell = &self.slots[i as usize & self.mask];
            (*cell.get()).write(v);
        }

        /// Owner read of logical slot `i` (slot known to be owned).
        unsafe fn read(&self, i: isize) -> T {
            let cell = &self.slots[i as usize & self.mask];
            (*cell.get()).assume_init_read()
        }

        /// Thief read: bitwise copy whose validity is only established
        /// by a subsequent successful CAS on `top`. Returned as
        /// `MaybeUninit` so a lost race discards bytes, not a `T`.
        unsafe fn read_speculative(&self, i: isize) -> MaybeUninit<T> {
            let cell = &self.slots[i as usize & self.mask];
            std::ptr::read(cell.get())
        }
    }

    struct Inner<T> {
        /// Next logical slot to steal from.
        top: AtomicIsize,
        /// Next logical slot the owner pushes to.
        bottom: AtomicIsize,
        buffer: AtomicPtr<Buffer<T>>,
        /// Buffers grown out of, kept alive until the deque drops (a
        /// thief may still hold a pointer into one). Touched only by the
        /// owner during growth and by `drop`.
        retired: Mutex<Vec<*mut Buffer<T>>>,
    }

    unsafe impl<T: Send> Send for Inner<T> {}
    unsafe impl<T: Send> Sync for Inner<T> {}

    impl<T> Drop for Inner<T> {
        fn drop(&mut self) {
            let t = *self.top.get_mut();
            let b = *self.bottom.get_mut();
            let buf = *self.buffer.get_mut();
            unsafe {
                for i in t..b {
                    drop((*buf).read(i));
                }
                drop(Box::from_raw(buf));
                for old in self
                    .retired
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .drain(..)
                {
                    drop(Box::from_raw(old));
                }
            }
        }
    }

    /// The owning end of the deque: single-threaded `push`/`pop` at the
    /// bottom. `!Sync` by construction — hand [`Worker::stealer`]s to
    /// other threads instead.
    pub struct Worker<T> {
        inner: Arc<Inner<T>>,
        /// Opts out of `Sync`: two threads pushing would race.
        _not_sync: PhantomData<std::cell::Cell<()>>,
    }

    unsafe impl<T: Send> Send for Worker<T> {}

    /// A thief's handle: `steal` takes the oldest item with one CAS.
    pub struct Stealer<T> {
        inner: Arc<Inner<T>>,
    }

    impl<T> Clone for Stealer<T> {
        fn clone(&self) -> Self {
            Stealer {
                inner: Arc::clone(&self.inner),
            }
        }
    }

    impl<T> Default for Worker<T> {
        fn default() -> Self {
            Worker::new()
        }
    }

    impl<T> Worker<T> {
        /// An empty deque with a small default capacity (grows as
        /// needed; old buffers are retired, never freed mid-flight).
        pub fn new() -> Self {
            Worker::with_capacity(64)
        }

        /// An empty deque sized for `cap` items up front (rounded up to
        /// a power of two), so a run of known size never grows.
        pub fn with_capacity(cap: usize) -> Self {
            let cap = cap.max(2).next_power_of_two();
            Worker {
                inner: Arc::new(Inner {
                    top: AtomicIsize::new(0),
                    bottom: AtomicIsize::new(0),
                    buffer: AtomicPtr::new(Buffer::alloc(cap)),
                    retired: Mutex::new(Vec::new()),
                }),
                _not_sync: PhantomData,
            }
        }

        /// A new thief handle for this deque.
        pub fn stealer(&self) -> Stealer<T> {
            Stealer {
                inner: Arc::clone(&self.inner),
            }
        }

        /// True when no items are visible (owner's view).
        pub fn is_empty(&self) -> bool {
            let b = self.inner.bottom.load(Ordering::Relaxed);
            let t = self.inner.top.load(Ordering::Relaxed);
            t >= b
        }

        /// Pushes an item at the bottom. Never blocks; grows the buffer
        /// when full.
        pub fn push(&self, v: T) {
            let b = self.inner.bottom.load(Ordering::Relaxed);
            let t = self.inner.top.load(Ordering::Acquire);
            let mut buf = self.inner.buffer.load(Ordering::Relaxed);
            unsafe {
                if b - t >= (*buf).cap() as isize {
                    buf = self.grow(buf, t, b);
                }
                (*buf).write(b, v);
            }
            // Publish the slot before publishing the new bottom.
            self.inner.bottom.store(b + 1, Ordering::Release);
        }

        /// Pops the most recently pushed item (LIFO). The race with
        /// thieves on the last item is resolved by a CAS on `top`.
        pub fn pop(&self) -> Option<T> {
            let b = self.inner.bottom.load(Ordering::Relaxed) - 1;
            let buf = self.inner.buffer.load(Ordering::Relaxed);
            self.inner.bottom.store(b, Ordering::Relaxed);
            // The store above and the load below must not reorder: a
            // thief must either see the reserved bottom or we must see
            // its advanced top (store-buffering pattern).
            fence(Ordering::SeqCst);
            let t = self.inner.top.load(Ordering::Relaxed);
            if t > b {
                // Already empty; restore.
                self.inner.bottom.store(b + 1, Ordering::Relaxed);
                return None;
            }
            if t == b {
                // Last item: win it against thieves or give it up.
                let won = self
                    .inner
                    .top
                    .compare_exchange(t, t + 1, Ordering::SeqCst, Ordering::Relaxed)
                    .is_ok();
                self.inner.bottom.store(b + 1, Ordering::Relaxed);
                return won.then(|| unsafe { (*buf).read(b) });
            }
            Some(unsafe { (*buf).read(b) })
        }

        /// Doubles the buffer, copying the live range `t..b`. The old
        /// buffer is retired, not freed: thieves may still read it.
        unsafe fn grow(&self, old: *mut Buffer<T>, t: isize, b: isize) -> *mut Buffer<T> {
            let new = Buffer::alloc((*old).cap() * 2);
            for i in t..b {
                (*new).write(i, (*old).read_speculative(i).assume_init());
            }
            self.inner.buffer.store(new, Ordering::Release);
            self.inner
                .retired
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .push(old);
            new
        }
    }

    impl<T> Stealer<T> {
        /// True when no items are visible to this thief.
        pub fn is_empty(&self) -> bool {
            let t = self.inner.top.load(Ordering::SeqCst);
            let b = self.inner.bottom.load(Ordering::SeqCst);
            t >= b
        }

        /// Attempts to steal the oldest item. [`Steal::Retry`] means a
        /// race was lost, not that the deque is empty.
        pub fn steal(&self) -> Steal<T> {
            let t = self.inner.top.load(Ordering::Acquire);
            fence(Ordering::SeqCst);
            let b = self.inner.bottom.load(Ordering::Acquire);
            if t >= b {
                return Steal::Empty;
            }
            // Speculative read; only a successful CAS on `top` makes the
            // bytes ours (a concurrent owner wrap-around can overwrite
            // the slot, but then `top` has moved and the CAS fails).
            let buf = self.inner.buffer.load(Ordering::Acquire);
            let v = unsafe { (*buf).read_speculative(t) };
            if self
                .inner
                .top
                .compare_exchange(t, t + 1, Ordering::SeqCst, Ordering::Relaxed)
                .is_err()
            {
                return Steal::Retry; // Discards bytes, not a live T.
            }
            Steal::Success(unsafe { v.assume_init() })
        }
    }
}

#[cfg(test)]
mod deque_tests {
    use super::deque::{Steal, Worker};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn lifo_pop_fifo_steal() {
        let w = Worker::new();
        let s = w.stealer();
        w.push(1);
        w.push(2);
        w.push(3);
        assert_eq!(w.pop(), Some(3), "owner pops newest");
        assert_eq!(s.steal().success(), Some(1), "thief steals oldest");
        assert_eq!(s.steal().success(), Some(2));
        assert!(w.pop().is_none());
        assert!(s.steal().is_empty());
    }

    #[test]
    fn grows_past_initial_capacity() {
        let w = Worker::with_capacity(2);
        let s = w.stealer();
        for i in 0..1000 {
            w.push(i);
        }
        // Interleave both ends; every item comes out exactly once.
        let mut got = vec![false; 1000];
        loop {
            match s.steal() {
                Steal::Success(i) => {
                    assert!(!std::mem::replace(&mut got[i as usize], true));
                }
                Steal::Empty => break,
                Steal::Retry => {}
            }
            if let Some(i) = w.pop() {
                assert!(!std::mem::replace(&mut got[i as usize], true));
            }
        }
        while let Some(i) = w.pop() {
            assert!(!std::mem::replace(&mut got[i as usize], true));
        }
        assert!(got.iter().all(|&g| g), "all items delivered exactly once");
    }

    #[test]
    fn concurrent_thieves_deliver_each_item_once() {
        const ITEMS: usize = 20_000;
        const THIEVES: usize = 3;
        let w = Worker::with_capacity(4);
        let taken = Arc::new(AtomicUsize::new(0));
        let sum = Arc::new(AtomicUsize::new(0));
        std::thread::scope(|scope| {
            for _ in 0..THIEVES {
                let s = w.stealer();
                let taken = Arc::clone(&taken);
                let sum = Arc::clone(&sum);
                scope.spawn(move || loop {
                    match s.steal() {
                        Steal::Success(v) => {
                            taken.fetch_add(1, Ordering::Relaxed);
                            sum.fetch_add(v, Ordering::Relaxed);
                        }
                        Steal::Retry => {}
                        Steal::Empty => {
                            if taken.load(Ordering::SeqCst) == ITEMS {
                                break;
                            }
                            std::thread::yield_now();
                        }
                    }
                });
            }
            // Owner pushes everything, popping now and then to fight
            // the thieves over the bottom end.
            for i in 0..ITEMS {
                w.push(i + 1);
                if i % 7 == 0 {
                    if let Some(v) = w.pop() {
                        taken.fetch_add(1, Ordering::Relaxed);
                        sum.fetch_add(v, Ordering::Relaxed);
                    }
                }
            }
            while let Some(v) = w.pop() {
                taken.fetch_add(1, Ordering::Relaxed);
                sum.fetch_add(v, Ordering::Relaxed);
            }
            // Thieves drain stragglers and observe the final count.
        });
        assert_eq!(taken.load(Ordering::SeqCst), ITEMS);
        assert_eq!(sum.load(Ordering::SeqCst), ITEMS * (ITEMS + 1) / 2);
    }

    #[test]
    fn drop_releases_undelivered_items() {
        let probe = Arc::new(());
        {
            let w = Worker::with_capacity(2);
            for _ in 0..40 {
                w.push(Arc::clone(&probe)); // forces growth + retirement
            }
            let _ = w.pop();
            let _ = w.stealer().steal();
            assert_eq!(Arc::strong_count(&probe), 39);
        }
        assert_eq!(Arc::strong_count(&probe), 1, "no leaks, no double drops");
    }
}
