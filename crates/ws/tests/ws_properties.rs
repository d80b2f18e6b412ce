//! Property tests for the shared-queue pool.
//!
//! 1. **Exactly once** — under a stress-scaled worker count and uneven
//!    item costs, every item must be invoked exactly once (a per-item
//!    invocation counter, so an item that runs twice is caught even when
//!    its duplicate result would be identical) and the results must come
//!    back in input order.
//! 2. **Serial equivalence** — `parallel_map_with` must equal serial
//!    iteration for any worker and item count.

use dagsched_ws::parallel_map_with;
use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn every_item_runs_exactly_once_in_input_order(
        // Per item: how many times it yields, so some items take longer
        // than others and the workers interleave unevenly.
        yields in proptest::collection::vec(0u8..3, 0..=200),
        // TASKBENCH_STRESS amplifies the worker count for sanitizer runs.
        workers in 1usize..=3 * dagsched_obs::env::stress_factor(),
    ) {
        let n = yields.len();
        let calls: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        let items: Vec<(usize, u8)> = yields.into_iter().enumerate().collect();
        let out = parallel_map_with(workers, items, |(i, y)| {
            // relaxed-ok: a per-item tally read only after the pool has
            // joined, and the join orders every worker's writes before it.
            calls[i].fetch_add(1, Ordering::Relaxed);
            for _ in 0..y {
                std::thread::yield_now();
            }
            i
        });
        for (i, c) in calls.iter().enumerate() {
            // relaxed-ok: read after the join, as above.
            prop_assert_eq!(c.load(Ordering::Relaxed), 1, "item {} invocations", i);
        }
        prop_assert_eq!(out, (0..n).collect::<Vec<_>>());
    }

    // The order-preserving map is equivalent to serial iteration for any
    // worker count and any item count (including 0 and 1).
    #[test]
    fn parallel_map_matches_serial(
        items in proptest::collection::vec(0u64..1000, 0..=60),
        workers in 1usize..=6,
    ) {
        let serial: Vec<u64> = items.iter().map(|&x| x.wrapping_mul(2654435761) >> 3).collect();
        let mapped = parallel_map_with(workers, items, |x| x.wrapping_mul(2654435761) >> 3);
        prop_assert_eq!(mapped, serial);
    }
}
