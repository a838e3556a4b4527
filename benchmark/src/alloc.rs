//! A counting allocator: every allocation of every thread is counted, so
//! the harness can report allocations per span and the high-water mark of
//! live heap bytes per repetition.
//!
//! The counters are instance fields, not globals: the benchmark bin
//! registers one instance as its `#[global_allocator]`, and the unit tests
//! drive a private instance directly, which is what makes exact counts
//! testable while libtest allocates on its own threads.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// `System`, with counters. All atomics are `Relaxed`: they are
/// statistics and publish no other data.
pub struct CountingAlloc {
    count: AtomicU64,
    bytes: AtomicU64,
    live: AtomicU64,
    peak: AtomicU64,
}

/// A reading of the cumulative counters; subtract two to get a span.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocSnapshot {
    /// Allocations made (a growing `realloc` counts as one).
    pub count: u64,
    /// Bytes requested by those allocations.
    pub bytes: u64,
}

impl AllocSnapshot {
    /// The allocations made between `earlier` and `self`.
    pub fn since(self, earlier: AllocSnapshot) -> AllocSnapshot {
        AllocSnapshot {
            count: self.count - earlier.count,
            bytes: self.bytes - earlier.bytes,
        }
    }
}

impl CountingAlloc {
    /// A fresh allocator with zeroed counters.
    pub const fn new() -> Self {
        CountingAlloc {
            count: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
            live: AtomicU64::new(0),
            peak: AtomicU64::new(0),
        }
    }

    /// Cumulative allocation count and bytes so far.
    pub fn snapshot(&self) -> AllocSnapshot {
        AllocSnapshot {
            count: self.count.load(Relaxed),
            bytes: self.bytes.load(Relaxed),
        }
    }

    /// Heap bytes live right now.
    pub fn live_bytes(&self) -> u64 {
        self.live.load(Relaxed)
    }

    /// High-water mark of live bytes since the last [`Self::reset_peak`].
    pub fn peak_bytes(&self) -> u64 {
        self.peak.load(Relaxed)
    }

    /// Restarts the high-water mark from the current live bytes.
    pub fn reset_peak(&self) {
        self.peak.store(self.live.load(Relaxed), Relaxed);
    }

    fn grew(&self, size: u64) {
        self.count.fetch_add(1, Relaxed);
        self.bytes.fetch_add(size, Relaxed);
        let live = self.live.fetch_add(size, Relaxed) + size;
        self.peak.fetch_max(live, Relaxed);
    }
}

impl Default for CountingAlloc {
    fn default() -> Self {
        CountingAlloc::new()
    }
}

// SAFETY: every method forwards the caller's layout and pointer unchanged
// to `System`, which upholds the `GlobalAlloc` contract; the counters are
// only updated around those calls and never touch the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller guarantees `layout` has non-zero size.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            self.grew(layout.size() as u64);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            self.grew(layout.size() as u64);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller guarantees `ptr` came from this allocator
        // (hence from `System`) with this `layout`.
        unsafe { System.dealloc(ptr, layout) };
        self.live.fetch_sub(layout.size() as u64, Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller guarantees `ptr` came from this allocator
        // with `layout`, and that `new_size` is a valid non-zero size.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            // The old block is gone and a new one of `new_size` is live.
            self.live.fetch_sub(layout.size() as u64, Relaxed);
            self.grew(new_size as u64);
        }
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layout(size: usize) -> Layout {
        Layout::from_size_align(size, 8).expect("valid layout")
    }

    #[test]
    fn counts_bytes_and_peak_exactly_across_threads() {
        let a = CountingAlloc::new();
        // SAFETY (all blocks below): each pointer is allocated by `a` with
        // the layout it is later reallocated/freed with, and is not used
        // after it is freed.
        unsafe {
            let p1 = a.alloc(layout(100));
            let p2 = a.alloc_zeroed(layout(50));
            assert_eq!(
                a.snapshot(),
                AllocSnapshot {
                    count: 2,
                    bytes: 150
                }
            );
            assert_eq!((a.live_bytes(), a.peak_bytes()), (150, 150));

            // realloc: one more allocation of the new size; the old block
            // leaves the live set.
            let p1 = a.realloc(p1, layout(100), 300);
            assert_eq!(
                a.snapshot(),
                AllocSnapshot {
                    count: 3,
                    bytes: 450
                }
            );
            assert_eq!((a.live_bytes(), a.peak_bytes()), (350, 350));

            a.dealloc(p2, layout(50));
            assert_eq!((a.live_bytes(), a.peak_bytes()), (300, 350));

            // A spawned thread's allocations land in the same counters.
            let before = a.snapshot();
            std::thread::scope(|s| {
                s.spawn(|| {
                    let q = a.alloc(layout(1_000));
                    a.dealloc(q, layout(1_000));
                })
                .join()
                .expect("allocating thread panicked");
            });
            assert_eq!(
                a.snapshot().since(before),
                AllocSnapshot {
                    count: 1,
                    bytes: 1_000
                }
            );
            assert_eq!((a.live_bytes(), a.peak_bytes()), (300, 1_300));

            // The high-water mark restarts from what is live now.
            a.reset_peak();
            assert_eq!(a.peak_bytes(), 300);
            a.dealloc(p1, layout(300));
            assert_eq!((a.live_bytes(), a.peak_bytes()), (0, 300));
        }
    }
}
