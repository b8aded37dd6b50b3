//! The benchmark's global allocator: the system allocator plus a
//! per-thread counter of the bytes a call leaves live on the heap,
//! switched on only around the calls it measures. Switched off it costs
//! one thread-local read per allocation.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts live bytes while [`retained`] runs on the allocating thread.
pub struct Counting;

thread_local! {
    // Const-initialized and free of destructors, so reading them never
    // allocates (which would re-enter the allocator).
    static ON: Cell<bool> = const { Cell::new(false) };
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

fn count(delta: i64) {
    if ON.try_with(Cell::get).unwrap_or(false) {
        let _ = LIVE.try_with(|live| live.set(live.get() + delta));
    }
}

fn size(layout: Layout) -> i64 {
    i64::try_from(layout.size()).unwrap_or(i64::MAX)
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counter only observes sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            count(size(layout));
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc_zeroed(layout);
        if !ptr.is_null() {
            count(size(layout));
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        count(-size(layout));
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new = System.realloc(ptr, layout, new_size);
        if !new.is_null() {
            count(i64::try_from(new_size).unwrap_or(i64::MAX) - size(layout));
        }
        new
    }
}

/// Runs `f` and returns its value with the heap bytes this thread
/// allocated during the call and still holds after it: what the returned
/// value keeps.
pub fn retained<T>(f: impl FnOnce() -> T) -> (T, i64) {
    LIVE.with(|live| live.set(0));
    ON.with(|on| on.set(true));
    let value = f();
    ON.with(|on| on.set(false));
    (value, LIVE.with(Cell::get))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retained_counts_what_the_value_keeps_and_not_temporaries() {
        let (kept, bytes) = retained(|| {
            let scratch = vec![0u8; 4096];
            drop(scratch);
            vec![0u64; 1000]
        });
        assert_eq!(kept.len(), 1000);
        assert_eq!(bytes, 8000);
    }
}
