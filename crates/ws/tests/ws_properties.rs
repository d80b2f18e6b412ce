//! Property tests for the work-stealing substrate.
//!
//! Two layers of assurance:
//!
//! 1. **Sequential oracle** — arbitrary scripted push/pop/steal sequences
//!    against a plain `VecDeque` (push_back / pop_back / pop_front). The
//!    `WsDeque` must agree on every returned value and on its length after
//!    every operation.
//! 2. **Concurrent exactly-once** — an owner running a scripted push/pop
//!    interleaving while spawned stealer threads hammer `steal`
//!    concurrently; afterwards, the union of everything popped, stolen and
//!    left in the deque must be exactly the pushed multiset (nothing lost,
//!    nothing duplicated). End to end, `parallel_map_with` must equal
//!    serial iteration for any worker and item count.

use dagsched_ws::{parallel_map_with, WsDeque};
use proptest::prelude::*;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

/// One scripted op: `kind % 3` → 0 = push (next fresh value), 1 = pop,
/// 2 = steal.
type Op = u8;

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(0u8..3, 1..=200)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    // Layer 1: sequential semantics against the VecDeque oracle.
    #[test]
    fn matches_sequential_oracle(ops in arb_ops()) {
        let deque = WsDeque::new();
        let mut oracle: VecDeque<u64> = VecDeque::new();
        let mut next = 0u64;
        for op in ops {
            match op % 3 {
                0 => {
                    deque.push(next);
                    oracle.push_back(next);
                    next += 1;
                }
                1 => prop_assert_eq!(deque.pop(), oracle.pop_back()),
                _ => prop_assert_eq!(deque.steal(), oracle.pop_front()),
            }
            prop_assert_eq!(deque.len(), oracle.len());
            prop_assert_eq!(deque.is_empty(), oracle.is_empty());
        }
    }

    // Layer 2a: owner interleaving + concurrent stealers lose and duplicate
    // nothing.
    #[test]
    fn concurrent_steals_take_each_item_exactly_once(
        ops in arb_ops(),
        // TASKBENCH_STRESS amplifies the stealer count for sanitizer runs.
        stealers in 1usize..=3 * dagsched_obs::env::stress_factor(),
    ) {
        let deque = WsDeque::new();
        let done = AtomicBool::new(false);
        let taken = Mutex::new(Vec::<u64>::new());
        let mut pushed = 0u64;
        std::thread::scope(|scope| {
            for _ in 0..stealers {
                scope.spawn(|| {
                    let mut got = Vec::new();
                    while !done.load(Ordering::Acquire) {
                        match deque.steal() {
                            Some(v) => got.push(v),
                            None => std::thread::yield_now(),
                        }
                    }
                    // Final sweep: nothing the owner left behind may be lost.
                    while let Some(v) = deque.steal() {
                        got.push(v);
                    }
                    taken.lock().unwrap().extend(got);
                });
            }
            let mut owner_got = Vec::new();
            for op in &ops {
                match op % 3 {
                    0 => {
                        deque.push(pushed);
                        pushed += 1;
                    }
                    // Owner pops and steals race the thieves; both are fine.
                    1 => owner_got.extend(deque.pop()),
                    _ => owner_got.extend(deque.steal()),
                }
            }
            done.store(true, Ordering::Release);
            taken.lock().unwrap().extend(owner_got);
        });
        let mut all = taken.into_inner().unwrap();
        all.sort_unstable();
        let expect: Vec<u64> = (0..pushed).collect();
        prop_assert_eq!(all, expect, "every pushed item taken exactly once");
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
