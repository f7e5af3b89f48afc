//! The scheduling core: simulation events and the queues that order
//! them.
//!
//! Every simulated miss flows through half a dozen queued events, so
//! the event queue is — after the coherence tracker and the crossbar —
//! the last per-miss hot path. The production queue is
//! [`WheelQueue`], a hierarchical timing wheel: a near-horizon array of
//! per-nanosecond slot buckets (FIFO within a slot, found by a bitmap
//! scan instead of heap sifting) backed by an overflow binary heap for
//! far-future events, which are promoted into the wheel as the cursor
//! approaches them. The seed `BinaryHeap` implementation survives as
//! [`ReferenceQueue`] — the oracle for the pop-order equivalence
//! property tests in `tests/queue_equivalence.rs`.
//!
//! Both queues pop in identical order: time, then push sequence (FIFO
//! among equal times). [`crate::System`] drives the wheel one event at
//! a time — [`WheelQueue::pop_entry`], then dispatch — and that
//! per-event loop is the simulator's only run loop.

mod reference;
mod wheel;

pub use reference::ReferenceQueue;
pub use wheel::WheelQueue;

/// Cheap occupancy counters a [`WheelQueue`] maintains over its
/// lifetime, surfaced by `perfbench`'s `sim.queue_*` metrics so
/// queue-pressure changes (like the lazy-training fan-out removal) are
/// visible without re-profiling.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QueueCounters {
    /// Events pushed (wheel buckets and overflow heap combined).
    pub pushed: u64,
    /// Events popped.
    pub popped: u64,
    /// Events still pending when the counters were read — a finished
    /// run leaves the events scheduled after its last completion
    /// undrained, so `pushed == popped + remaining` is the
    /// reconciliation every consumer asserts.
    pub remaining: u64,
    /// Far-future events promoted from the overflow heap into the
    /// wheel as the cursor advanced.
    pub promoted: u64,
}

impl QueueCounters {
    /// Accumulates another queue's counters (for summing across runs).
    pub fn merge(&mut self, other: &QueueCounters) {
        self.pushed += other.pushed;
        self.popped += other.popped;
        self.remaining += other.remaining;
        self.promoted += other.promoted;
    }

    /// Asserts the push/pop/remaining books balance.
    ///
    /// # Panics
    ///
    /// Panics if `pushed != popped + remaining` — an event was lost or
    /// double-counted somewhere in the scheduling core.
    pub fn assert_reconciled(&self) {
        assert_eq!(
            self.pushed,
            self.popped + self.remaining,
            "queue counters must reconcile: {self:?}"
        );
    }
}

/// Events driving the simulation. `req` indexes the pending-request
/// table; `node` is a node index.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Event {
    /// A node is ready to issue its next miss (subject to its window).
    CpuIssue {
        /// Node index.
        node: usize,
    },
    /// The L2 detected the miss; the request enters the interconnect.
    Inject {
        /// Pending-request index.
        req: usize,
    },
    /// A request (attempt `attempt`) passed the ordering point.
    Ordered {
        /// Pending-request index.
        req: usize,
        /// 1 = initial multicast, 2 = first reissue, 3 = broadcast.
        attempt: u8,
    },
    /// A request-class message arrived at a node (predictor training).
    RequestArrive {
        /// Pending-request index.
        req: usize,
        /// Receiving node.
        node: usize,
        /// Whether this was a directory reissue.
        retry: bool,
    },
    /// The home directory is ready to forward / respond / reissue.
    HomeReady {
        /// Pending-request index.
        req: usize,
        /// Attempt being processed.
        attempt: u8,
    },
    /// The cache owner is ready to inject the data response.
    OwnerReady {
        /// Pending-request index.
        req: usize,
        /// The owner node injecting the response.
        owner: usize,
    },
    /// The data (or upgrade ack) arrived at the requester.
    Complete {
        /// Pending-request index.
        req: usize,
    },
}
