//! A counting global allocator for allocation-regression tests and
//! benchmark reports.
//!
//! The hot-loop guarantees of this engine (filter, probe and group-update
//! steady states allocate O(1) per batch, not O(rows)) are behavioural
//! claims about the *allocator*, not about wall-clock time — so they are
//! tested by counting allocations directly. [`CountingAlloc`] forwards to
//! the system allocator, bumps a process-global counter on every
//! `alloc`/`realloc`, and keeps the bytes currently allocated — what a
//! structure *holds*, as [`live_bytes`] before and after building it.
//!
//! This module only defines the type and the counter; nothing happens
//! unless a downstream **binary or integration-test crate** registers it:
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: mera_core::counting_alloc::CountingAlloc =
//!     mera_core::counting_alloc::CountingAlloc;
//! ```
//!
//! Registration is deliberately left to those leaf crates (a library must
//! not impose a global allocator on its users).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static LIVE_BYTES: AtomicU64 = AtomicU64::new(0);

/// Forwards to the system allocator, counting every `alloc`/`realloc` and
/// the bytes live.
pub struct CountingAlloc;

// SAFETY: defers entirely to `System`, which upholds the `GlobalAlloc`
// contract; the counter updates do not allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `layout` is the caller's, passed through unchanged; the
        // caller's obligations (nonzero size) are exactly `System`'s.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            LIVE_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: `ptr` was returned by `self.alloc`, which forwards to
        // `System`, so it is a `System` allocation with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as for `dealloc`; `new_size` obligations are forwarded
        // verbatim to the caller via the trait contract.
        let moved = unsafe { System.realloc(ptr, layout, new_size) };
        if !moved.is_null() {
            // the old block is gone and the new one is live
            LIVE_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
            LIVE_BYTES.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        }
        moved
    }
}

/// Total allocations made so far (0 if [`CountingAlloc`] is not the
/// registered global allocator).
pub fn allocation_count() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Bytes currently allocated through [`CountingAlloc`] (0 if it is not
/// the registered global allocator). Process-global, like
/// [`allocation_count`].
pub fn live_bytes() -> u64 {
    LIVE_BYTES.load(Ordering::Relaxed)
}

/// Allocations performed while running `f`.
///
/// Only meaningful single-threaded with [`CountingAlloc`] registered;
/// concurrent allocations from other threads are attributed to `f`.
pub fn allocations_during<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = allocation_count();
    let out = f();
    (allocation_count() - before, out)
}
