//! Steady-state DIPRS allocates only the `Vec` it returns.
//!
//! Its own test binary because it installs a counting global allocator;
//! counts are per thread, so the harness's other threads cannot disturb
//! them.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use alaya_index::roargraph::{RoarGraph, RoarGraphParams};
use alaya_query::diprs::{diprs, diprs_filtered, DiprsParams};
use alaya_vector::rng::{gaussian_store, seeded};

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static LIVE_BYTES: Cell<i64> = const { Cell::new(0) };
}

struct Counting;

impl Counting {
    fn record(allocations: u64, bytes: i64) {
        // `try_with`: the allocator also runs while a thread's locals are
        // being torn down.
        let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + allocations));
        let _ = LIVE_BYTES.try_with(|c| c.set(c.get() + bytes));
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the bookkeeping touches only
// const-initialized thread locals and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::record(1, layout.size() as i64);
        // SAFETY: the caller's `layout` is passed through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        Self::record(0, -(layout.size() as i64));
        // SAFETY: `ptr` was returned by `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::record(1, new_size as i64 - layout.size() as i64);
        // SAFETY: `ptr`/`layout` describe a live `System` block and the
        // caller guarantees `new_size` is valid for it.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// `(allocations, live-byte growth)` of this thread across `f`.
fn measure(f: impl FnOnce()) -> (u64, i64) {
    let before = (ALLOCATIONS.get(), LIVE_BYTES.get());
    f();
    (ALLOCATIONS.get() - before.0, LIVE_BYTES.get() - before.1)
}

#[test]
fn steady_state_diprs_allocates_only_its_result() {
    let mut rng = seeded(120);
    let base = gaussian_store(&mut rng, 1500, 16, 1.0);
    let train = gaussian_store(&mut rng, 500, 16, 1.0);
    let queries = gaussian_store(&mut rng, 8, 16, 1.0);
    let params = RoarGraphParams {
        threads: 1,
        ..Default::default()
    };
    let graph = RoarGraph::build(&base, &train, params).into_graph();
    let params = DiprsParams {
        beta: 2.0,
        l0: 64,
        max_visits: usize::MAX,
    };
    let cut = 900u32;
    let run = |qi: usize| {
        let q = queries.row(qi % queries.len());
        let plain = diprs(&graph, &base, q, &params, None);
        let filtered = diprs_filtered(&graph, &base, q, &params, Some(1.0), |id| id < cut);
        assert!(!plain.tokens.is_empty() && !filtered.tokens.is_empty());
    };

    // Warm-up grows the thread's scratch to this graph's working set.
    (0..queries.len()).for_each(run);

    const CALLS: usize = 1000;
    let (allocations, growth) = measure(|| (0..CALLS).for_each(run));
    // Two traversals per `run`, one returned `Vec` each.
    assert!(
        allocations <= 2 * CALLS as u64,
        "{allocations} allocations over {} traversals",
        2 * CALLS
    );
    assert_eq!(
        growth, 0,
        "live bytes grew across {CALLS} steady-state calls"
    );
}
