//! A lightweight test-and-test-and-set spin mutex.
//!
//! The paper (§IV-D) replaces OpenMP for-loop barriers with node-level tasks
//! in ASYNC mode and notes that "a lightweight spin mutex works well in this
//! scenario and gives much less overhead comparing to for-loops barrier wait".
//! Critical sections guarded by this lock are tiny (a heap push/pop, a tree
//! node append), so spinning beats parking.

use std::cell::UnsafeCell;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

/// A spin lock protecting a value of type `T`.
///
/// Contended acquisitions optionally record their wait time into an external
/// counter (nanoseconds), which feeds the lock-contention line of
/// [`crate::ProfileReport`].
pub struct SpinMutex<T: ?Sized> {
    locked: AtomicBool,
    data: UnsafeCell<T>,
}

// SAFETY: the lock provides exclusive access to `data`; `T: Send` is required
// because the value may be dropped / accessed from any thread holding the lock.
unsafe impl<T: ?Sized + Send> Send for SpinMutex<T> {}
// SAFETY: as for `Send`: a shared `SpinMutex` reaches `data` only through a
// guard, and the lock lets one thread hold a guard at a time.
unsafe impl<T: ?Sized + Send> Sync for SpinMutex<T> {}

/// RAII guard releasing the [`SpinMutex`] on drop.
pub struct SpinMutexGuard<'a, T: ?Sized> {
    lock: &'a SpinMutex<T>,
}

impl<T> SpinMutex<T> {
    /// Creates a new unlocked spin mutex holding `value`.
    pub const fn new(value: T) -> Self {
        Self { locked: AtomicBool::new(false), data: UnsafeCell::new(value) }
    }

    /// Consumes the mutex and returns the inner value.
    pub fn into_inner(self) -> T {
        self.data.into_inner()
    }
}

impl<T: ?Sized> SpinMutex<T> {
    /// Acquires the lock, spinning until it is available.
    pub fn lock(&self) -> SpinMutexGuard<'_, T> {
        if self.try_acquire() {
            return SpinMutexGuard { lock: self };
        }
        self.lock_slow(None)
    }

    /// Acquires the lock and, if the acquisition had to spin, adds the wait
    /// duration in nanoseconds to `wait_ns`.
    pub fn lock_timed(&self, wait_ns: &AtomicU64) -> SpinMutexGuard<'_, T> {
        if self.try_acquire() {
            return SpinMutexGuard { lock: self };
        }
        self.lock_slow(Some(wait_ns))
    }

    /// Attempts to acquire the lock without blocking.
    pub fn try_lock(&self) -> Option<SpinMutexGuard<'_, T>> {
        if self.try_acquire() {
            Some(SpinMutexGuard { lock: self })
        } else {
            None
        }
    }

    /// Returns a mutable reference to the inner value (no locking needed:
    /// `&mut self` proves exclusivity).
    pub fn get_mut(&mut self) -> &mut T {
        self.data.get_mut()
    }

    #[inline]
    fn try_acquire(&self) -> bool {
        self.locked
            .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
            .is_ok()
    }

    #[cold]
    fn lock_slow(&self, wait_ns: Option<&AtomicU64>) -> SpinMutexGuard<'_, T> {
        let start = wait_ns.map(|_| Instant::now());
        loop {
            // Test-and-test-and-set: spin on a plain load to keep the cache
            // line shared until the lock looks free.
            while self.locked.load(Ordering::Relaxed) {
                std::hint::spin_loop();
            }
            if self.try_acquire() {
                if let (Some(counter), Some(start)) = (wait_ns, start) {
                    counter.fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
                }
                return SpinMutexGuard { lock: self };
            }
        }
    }
}

impl<T: Default> Default for SpinMutex<T> {
    fn default() -> Self {
        Self::new(T::default())
    }
}

impl<T: ?Sized + std::fmt::Debug> std::fmt::Debug for SpinMutex<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.try_lock() {
            Some(guard) => f.debug_tuple("SpinMutex").field(&&*guard).finish(),
            None => f.write_str("SpinMutex(<locked>)"),
        }
    }
}

impl<T: ?Sized> Deref for SpinMutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        // SAFETY: the guard holds the lock.
        unsafe { &*self.lock.data.get() }
    }
}

impl<T: ?Sized> DerefMut for SpinMutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        // SAFETY: the guard holds the lock exclusively.
        unsafe { &mut *self.lock.data.get() }
    }
}

impl<T: ?Sized> Drop for SpinMutexGuard<'_, T> {
    fn drop(&mut self) {
        self.lock.locked.store(false, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn lock_provides_exclusive_access() {
        let m = SpinMutex::new(0u32);
        *m.lock() += 5;
        assert_eq!(*m.lock(), 5);
    }

    #[test]
    fn try_lock_fails_while_held() {
        let m = SpinMutex::new(());
        let g = m.lock();
        assert!(m.try_lock().is_none());
        drop(g);
        assert!(m.try_lock().is_some());
    }

    #[test]
    fn into_inner_returns_value() {
        let m = SpinMutex::new(vec![1, 2, 3]);
        assert_eq!(m.into_inner(), vec![1, 2, 3]);
    }

    #[test]
    fn get_mut_bypasses_lock() {
        let mut m = SpinMutex::new(7);
        *m.get_mut() = 9;
        assert_eq!(*m.lock(), 9);
    }

    #[test]
    fn concurrent_increments_are_not_lost() {
        const THREADS: usize = 8;
        const ITERS: usize = 10_000;
        let m = Arc::new(SpinMutex::new(0u64));
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                let m = Arc::clone(&m);
                std::thread::spawn(move || {
                    for _ in 0..ITERS {
                        *m.lock() += 1;
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(*m.lock(), (THREADS * ITERS) as u64);
    }

    #[test]
    fn timed_lock_records_contention() {
        let m = Arc::new(SpinMutex::new(0u64));
        let wait = Arc::new(AtomicU64::new(0));
        let g = m.lock();
        let m2 = Arc::clone(&m);
        let w2 = Arc::clone(&wait);
        let h = std::thread::spawn(move || {
            let mut g = m2.lock_timed(&w2);
            *g += 1;
        });
        std::thread::sleep(std::time::Duration::from_millis(20));
        drop(g);
        h.join().unwrap();
        assert!(wait.load(Ordering::Relaxed) > 1_000_000, "expected >1ms recorded wait");
    }

    #[test]
    fn debug_formats_locked_and_unlocked() {
        let m = SpinMutex::new(3);
        assert!(format!("{m:?}").contains('3'));
        let _g = m.lock();
        assert!(format!("{m:?}").contains("locked"));
    }
}
