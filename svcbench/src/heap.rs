//! Live heap bytes of the whole process, counted by the global allocator
//! (installed in `main.rs`), and their peak since the last reading.
//!
//! The benchmark reads the peak once per query, from its submit to its
//! result. Unlike the peak RSS, it leaves out memory the allocator keeps
//! after a free: the socket workload's `VmHWM` read ≈27 MB in some runs of
//! one seed and ≈36 MB in others, while its per-query heap peaks repeat
//! within 2%.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

pub struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
    PEAK.fetch_max(live, Relaxed);
}

fn shrink(bytes: usize) {
    LIVE.fetch_sub(bytes, Relaxed);
}

// SAFETY: every call is forwarded to `System` unchanged; only the byte
// counts are added.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        shrink(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            if new_size > layout.size() {
                grow(new_size - layout.size());
            } else {
                shrink(layout.size() - new_size);
            }
        }
        p
    }
}

/// The most bytes live at once since the last call, in MB; the next peak
/// starts from the bytes live now.
pub fn take_peak_mb() -> f64 {
    PEAK.swap(LIVE.load(Relaxed), Relaxed) as f64 / (1024.0 * 1024.0)
}
