//! A counting global allocator for the `bench-alloc` feature.
//!
//! Wraps the system allocator and counts every `alloc`/`alloc_zeroed`/
//! `realloc` call in a relaxed atomic. `perfbench` installs it as the
//! global allocator to report allocations per layer, and the root
//! `tests/alloc_budget.rs` installs it to gate heap allocations per
//! simulation job — the direct check of the allocation-free hot loop.
//!
//! Counting is process-global, so readings are only meaningful while jobs
//! run one at a time on one thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// The counting allocator; a unit type suitable for `#[global_allocator]`.
pub struct CountingAllocator;

// SAFETY: delegates every operation to `System`; the only addition is a
// relaxed counter increment, which cannot violate allocator invariants.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

/// Total allocation calls since process start.
#[must_use]
pub fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}
