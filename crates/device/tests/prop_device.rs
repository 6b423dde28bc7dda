//! Property tests for memory-budget accounting.

use alaya_device::memory::MemoryTracker;
use proptest::prelude::*;

proptest! {
    /// Tracker algebra: any sequence of allocations/drops keeps
    /// `in_use <= budget`, `peak >= in_use`, and ends balanced at zero.
    #[test]
    fn tracker_invariants(
        budget in 1u64..10_000,
        requests in prop::collection::vec((1u64..2_000, prop::bool::ANY), 1..40),
    ) {
        let t = MemoryTracker::new(budget);
        let mut held = Vec::new();
        for (bytes, drop_one) in requests {
            match t.alloc(bytes) {
                Ok(g) => held.push(g),
                Err(e) => {
                    prop_assert_eq!(e.budget, budget);
                    prop_assert!(e.in_use + e.requested > budget);
                }
            }
            if drop_one {
                held.pop();
            }
            prop_assert!(t.in_use() <= budget);
            prop_assert!(t.peak() >= t.in_use());
            prop_assert_eq!(t.available(), budget - t.in_use());
        }
        drop(held);
        prop_assert_eq!(t.in_use(), 0);
    }

    /// `would_fit` agrees with `alloc` outcomes.
    #[test]
    fn would_fit_is_consistent(budget in 1u64..10_000, first in 0u64..10_000, second in 0u64..10_000) {
        let t = MemoryTracker::new(budget);
        let fits = t.would_fit(first);
        let g = t.alloc(first);
        prop_assert_eq!(fits, g.is_ok());
        if g.is_ok() {
            let fits2 = t.would_fit(second);
            prop_assert_eq!(fits2, t.alloc(second).is_ok());
        }
    }
}
