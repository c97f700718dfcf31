//! The counting global allocator of the footprint tests
//! (`setup_footprint.rs`, `train_footprint.rs`, `row_layout.rs`): tracks
//! live heap bytes and their peak, and counts the allocations of one watched
//! size. It is process-wide, which is why each of those files holds a
//! single `#[test]`.

// Each test binary compiles the module and calls a part of it.
#![allow(dead_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
/// The size [`allocs_of_size`] counts (0: none; no allocation has it).
static WATCHED: AtomicUsize = AtomicUsize::new(0);
static WATCHED_ANYWHERE: AtomicUsize = AtomicUsize::new(0);
static WATCHED_ON_CALLER: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Whether this thread is the one running [`allocs_of_size`]'s closure.
    static IS_CALLER: Cell<bool> = const { Cell::new(false) };
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counters are plain statistics.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` obligations pass straight through.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            let live = LIVE.fetch_add(layout.size(), Relaxed) + layout.size();
            PEAK.fetch_max(live, Relaxed);
            if layout.size() == WATCHED.load(Relaxed) {
                WATCHED_ANYWHERE.fetch_add(1, Relaxed);
                if IS_CALLER.get() {
                    WATCHED_ON_CALLER.fetch_add(1, Relaxed);
                }
            }
        }
        p
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Relaxed);
        // SAFETY: `p` came from `alloc` above, i.e. from `System`, with `layout`.
        unsafe { System.dealloc(p, layout) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Peak of live heap bytes during `f`, over what was live when it started.
pub fn peak_during<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = LIVE.load(Relaxed);
    PEAK.store(before, Relaxed);
    let out = f();
    (out, PEAK.load(Relaxed) - before)
}

/// Allocations of exactly `size` bytes during `f`: `(on any thread, on the
/// thread that called this)`.
pub fn allocs_of_size<T>(size: usize, f: impl FnOnce() -> T) -> (T, (usize, usize)) {
    WATCHED_ANYWHERE.store(0, Relaxed);
    WATCHED_ON_CALLER.store(0, Relaxed);
    WATCHED.store(size, Relaxed);
    IS_CALLER.set(true);
    let out = f();
    IS_CALLER.set(false);
    WATCHED.store(0, Relaxed);
    (out, (WATCHED_ANYWHERE.load(Relaxed), WATCHED_ON_CALLER.load(Relaxed)))
}
