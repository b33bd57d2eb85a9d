//! A counting global allocator for the harness binary.
//!
//! Counts heap allocations (and their bytes) made by any thread while a
//! traced step runs; outside one it is a relaxed load on top of the
//! system allocator. Each thread counts into a cache line of its own
//! with plain loads and stores, so counting an allocation costs a few
//! cycles rather than two locked read-modify-writes (`sph_knn` makes
//! 3.3 million allocations per step); threads past the table's capacity
//! share one overflow line and pay for the atomics.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering::Relaxed};

/// Threads with a line of their own; a run spawns a few hundred.
const STRIPES: usize = 1024;
/// The line every later thread shares.
const OVERFLOW: usize = STRIPES;

#[repr(align(64))]
struct Stripe {
    allocs: AtomicU64,
    bytes: AtomicU64,
}

static COUNTING: AtomicBool = AtomicBool::new(false);
static NEXT_STRIPE: AtomicUsize = AtomicUsize::new(0);
static STRIPE_TABLE: [Stripe; STRIPES + 1] =
    [const { Stripe { allocs: AtomicU64::new(0), bytes: AtomicU64::new(0) } }; STRIPES + 1];

thread_local! {
    // Const-initialised and destructor-free, so touching it from inside
    // the allocator neither allocates nor registers a TLS destructor.
    static MY_STRIPE: Cell<usize> = const { Cell::new(usize::MAX) };
}

fn note(size: usize) {
    if !COUNTING.load(Relaxed) {
        return;
    }
    let stripe = MY_STRIPE.with(|s| {
        if s.get() == usize::MAX {
            s.set(NEXT_STRIPE.fetch_add(1, Relaxed).min(OVERFLOW));
        }
        s.get()
    });
    let line = &STRIPE_TABLE[stripe];
    if stripe == OVERFLOW {
        line.allocs.fetch_add(1, Relaxed);
        line.bytes.fetch_add(size as u64, Relaxed);
    } else {
        // This thread is the line's only writer, so load-then-store
        // loses nothing; `totals` reads may lag by an allocation.
        line.allocs.store(line.allocs.load(Relaxed) + 1, Relaxed);
        line.bytes.store(line.bytes.load(Relaxed) + size as u64, Relaxed);
    }
}

/// The system allocator plus the counters above.
pub struct CountingAllocator;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; `note` only touches atomics
// and a const-initialised thread-local `Cell`, so it cannot allocate,
// unwind, or re-enter the allocator.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: `ptr`/`layout` describe a live block of this allocator
        // (which is `System`), as the caller vouched for.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr`/`layout` describe a live block of `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Allocation totals over one counted region.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AllocCount {
    /// Calls to `alloc`, `alloc_zeroed` and `realloc`, all threads.
    pub allocs: u64,
    /// Bytes those calls asked for.
    pub bytes: u64,
}

fn totals() -> AllocCount {
    // Lines never handed out are still zero: skip them, but always read
    // the overflow line.
    let assigned = NEXT_STRIPE.load(Relaxed).min(STRIPES);
    let lines = STRIPE_TABLE[..assigned].iter().chain([&STRIPE_TABLE[OVERFLOW]]);
    lines.fold(AllocCount::default(), |acc, s| AllocCount {
        allocs: acc.allocs + s.allocs.load(Relaxed),
        bytes: acc.bytes + s.bytes.load(Relaxed),
    })
}

/// Runs `f` with counting switched on when `enabled`, returning what
/// every thread allocated meanwhile. Not re-entrant: one counted region
/// at a time, opened from the harness's main thread.
pub fn counted<R>(enabled: bool, f: impl FnOnce() -> R) -> (R, AllocCount) {
    if !enabled {
        return (f(), AllocCount::default());
    }
    let before = totals();
    COUNTING.store(true, Relaxed);
    let r = f();
    COUNTING.store(false, Relaxed);
    let after = totals();
    (r, AllocCount { allocs: after.allocs - before.allocs, bytes: after.bytes - before.bytes })
}
