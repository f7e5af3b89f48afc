//! Property tests pinning [`WheelQueue`]'s pop order to the seed
//! [`ReferenceQueue`] (the PR 2 oracle pattern: the replaced
//! implementation survives as the equivalence baseline).
//!
//! Both queues order by (time, push-sequence); these tests drive both
//! through identical push/pop interleavings and require identical pop
//! sequences, covering the regimes the wheel handles differently:
//! dense equal-time bursts inside one bucket, events beyond the wheel
//! horizon (overflow parking + promotion on cursor advance), cursor
//! jumps across many empty horizons, and pushes behind the cursor.

use proptest::prelude::*;

use dsp_sim::{Event, ReferenceQueue, WheelQueue};

/// Wheel horizon (mirrors `WHEEL_SLOTS` in the implementation): the
/// strategies below straddle it deliberately.
const HORIZON: u64 = 4096;

#[derive(Clone, Copy, Debug)]
enum Op {
    /// Push at `last_pushed_time + delta` (simulator-like monotone-ish
    /// pushes when deltas are small, far-future when large).
    Push { delta: u64, tag: usize },
    /// Pop one event from both queues and compare.
    Pop,
}

fn op_strategy(max_delta: u64) -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..=max_delta, 0usize..1_000_000).prop_map(|(delta, tag)| Op::Push { delta, tag }),
        (0..=max_delta, 0usize..1_000_000).prop_map(|(delta, tag)| Op::Push { delta, tag }),
        Just(Op::Pop),
    ]
}

/// Replays `ops` against both queues, anchoring push times to the last
/// *popped* time plus the op's delta (like the simulator scheduling
/// from `now`), and asserts every `pop_entry` — the call the
/// simulator's run loop makes — matches, sequence included. Returns
/// how many pops produced an event.
fn check_equivalence(ops: &[Op]) -> usize {
    let mut wheel = WheelQueue::new();
    let mut heap = ReferenceQueue::new();
    let mut now = 0u64;
    let mut popped = 0usize;
    for op in ops {
        match *op {
            Op::Push { delta, tag } => {
                let time = now.saturating_add(delta);
                wheel.push(time, Event::Complete { req: tag });
                heap.push(time, Event::Complete { req: tag });
            }
            Op::Pop => {
                let a = wheel.pop_entry();
                let b = heap.pop_entry();
                assert_eq!(a, b, "pop diverged after {popped} agreeing pops");
                if let Some((t, _, _)) = a {
                    now = t;
                    popped += 1;
                }
            }
        }
        assert_eq!(wheel.len(), heap.len());
        assert_eq!(wheel.is_empty(), heap.is_empty());
        wheel.counters().assert_reconciled();
    }
    // Drain both: the full residual order must agree too.
    loop {
        let a = wheel.pop_entry();
        let b = heap.pop_entry();
        assert_eq!(a, b, "drain diverged");
        if a.is_none() {
            break;
        }
        popped += 1;
    }
    wheel.counters().assert_reconciled();
    popped
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Simulator-like schedules: deltas within the protocol's latency
    /// range, always inside the wheel horizon.
    #[test]
    fn near_horizon_schedules_match(ops in proptest::collection::vec(op_strategy(500), 1..600)) {
        check_equivalence(&ops);
    }

    /// Dense equal-time bursts: many pushes with delta 0 land in the
    /// same bucket and must drain in push order.
    #[test]
    fn equal_time_bursts_match(ops in proptest::collection::vec(op_strategy(2), 1..600)) {
        check_equivalence(&ops);
    }

    /// Deltas straddling the horizon: events park in the overflow heap
    /// and must promote into the wheel in (time, seq) order as the
    /// cursor advances.
    #[test]
    fn far_future_promotion_matches(
        ops in proptest::collection::vec(op_strategy(HORIZON * 3), 1..400)
    ) {
        check_equivalence(&ops);
    }

    /// Sparse, huge jumps: the wheel empties repeatedly and the cursor
    /// leaps across many whole horizons.
    #[test]
    fn sparse_horizon_jumps_match(
        ops in proptest::collection::vec(op_strategy(HORIZON * 1000), 1..200)
    ) {
        check_equivalence(&ops);
    }
}

/// Deterministic interleaving that forces every wheel regime in one
/// run: warmup misses at dense times, a far-future tail, then drain.
#[test]
fn mixed_regimes_fixed_trace() {
    let mut ops = Vec::new();
    for i in 0..200usize {
        ops.push(Op::Push {
            delta: (i as u64 * 37) % 90,
            tag: i,
        });
        if i % 3 == 0 {
            ops.push(Op::Pop);
        }
        if i % 11 == 0 {
            ops.push(Op::Push {
                delta: HORIZON + (i as u64 * 131) % (HORIZON * 4),
                tag: 10_000 + i,
            });
        }
    }
    let popped = check_equivalence(&ops);
    assert!(popped > 200, "trace exercised both levels ({popped} pops)");
}
