//! Planning's memory bound: the peak live heap while planning the
//! 13-parameter paper grid stays within 5x the bytes of the returned plan.
//! A test binary of its own, because it installs a counting global
//! allocator.

use acic::space::SpacePoint;
use acic::Trainer;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

/// The system allocator, counting live bytes and their high-water mark.
/// `realloc` keeps its default (allocate, copy, free), so a reallocation
/// counts the old and the new block together, the most a copy can need.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

// SAFETY: both methods forward their arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters never touch the memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's obligations on `layout` carry over unchanged.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            let live = LIVE.fetch_add(layout.size(), Relaxed) + layout.size();
            PEAK.fetch_max(live, Relaxed);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by `alloc` above, i.e. by `System`,
        // for this `layout`.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Relaxed);
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

#[test]
fn planning_13_dims_peaks_within_5x_the_plan() {
    let trainer = Trainer::with_paper_ranking(20131117);
    let before = LIVE.load(Relaxed);
    PEAK.store(before, Relaxed);
    let plan = trainer.sample_points(13);
    let peak = PEAK.load(Relaxed) - before;
    let bytes = plan.len() * std::mem::size_of::<SpacePoint>();
    assert_eq!(plan.len(), 38_304);
    assert!(
        peak <= 5 * bytes,
        "planning peaked at {peak} live heap bytes, {:.1}x the plan's {bytes}",
        peak as f64 / bytes as f64
    );
}
