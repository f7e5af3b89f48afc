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
//! among equal times).

mod reference;
mod wheel;

pub use reference::ReferenceQueue;
pub use wheel::WheelQueue;

/// The queue driving [`crate::System`]'s event loop.
pub type EventQueue = WheelQueue;

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

impl Event {
    /// The event's kind tag (the lane it batches into).
    #[inline]
    pub fn kind(&self) -> EventKind {
        match self {
            Event::CpuIssue { .. } => EventKind::CpuIssue,
            Event::Inject { .. } => EventKind::Inject,
            Event::Ordered { .. } => EventKind::Ordered,
            Event::RequestArrive { .. } => EventKind::RequestArrive,
            Event::HomeReady { .. } => EventKind::HomeReady,
            Event::OwnerReady { .. } => EventKind::OwnerReady,
            Event::Complete { .. } => EventKind::Complete,
        }
    }
}

/// Payload-free tag identifying an [`Event`] variant: the lane key of
/// [`EventBatch`] and the kind column of the dispatch-order logs the
/// batched/per-event equivalence tests compare.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum EventKind {
    /// [`Event::CpuIssue`].
    CpuIssue,
    /// [`Event::Inject`].
    Inject,
    /// [`Event::Ordered`].
    Ordered,
    /// [`Event::RequestArrive`].
    RequestArrive,
    /// [`Event::HomeReady`].
    HomeReady,
    /// [`Event::OwnerReady`].
    OwnerReady,
    /// [`Event::Complete`].
    Complete,
}

/// Outcome of [`WheelQueue::pop_slot`]: how the earliest pending
/// timestamp was delivered.
///
/// Most timestamps hold exactly one event (measured ~79 % of slots on
/// the paper's 16-node OLTP runs), and for those the struct-of-arrays
/// round-trip through an [`EventBatch`] is pure overhead — so the
/// singleton case hands the event back by value, untouched by the
/// batch, and only genuinely plural slots pay for lane formation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SlotDrain {
    /// The queue was empty; the batch is cleared.
    Empty,
    /// The earliest timestamp held exactly one event, returned here as
    /// `(time, seq, event)`; the batch is cleared and untouched.
    Single(u64, u64, Event),
    /// The earliest timestamp held two or more events, drained into
    /// the batch in sequence order.
    Batch,
}

/// One drained wheel slot in struct-of-arrays layout: every event of a
/// single timestamp, split into one lane per [`EventKind`] with the
/// payload fields as parallel columns, plus a run list recording the
/// maximal same-kind runs in push-sequence order.
///
/// The batched event loop walks the run list and dispatches each run
/// with a tight per-kind loop over the lane columns — the `(time, seq)`
/// dispatch order is exactly the per-event pop order, because lanes are
/// appended in pop order and runs never reorder across kinds. Events
/// pushed *while* a batch dispatches carry later sequence numbers and
/// land in a subsequent batch (the wheel slot they join is re-drained),
/// which is precisely where the per-event loop would pop them.
///
/// Buffers retain capacity across [`WheelQueue::pop_batch`] calls, so
/// a steady-state simulation batches without allocating.
#[derive(Debug, Default)]
pub struct EventBatch {
    /// Timestamp shared by every event in the batch.
    pub time: u64,
    /// Maximal same-kind runs in sequence order: `(kind, length)`.
    pub runs: Vec<(EventKind, u32)>,
    /// `CpuIssue` lane: push sequence.
    pub cpu_seq: Vec<u64>,
    /// `CpuIssue` lane: issuing node.
    pub cpu_node: Vec<u32>,
    /// `Inject` lane: push sequence.
    pub inject_seq: Vec<u64>,
    /// `Inject` lane: pending-request index.
    pub inject_req: Vec<u32>,
    /// `Ordered` lane: push sequence.
    pub ordered_seq: Vec<u64>,
    /// `Ordered` lane: pending-request index.
    pub ordered_req: Vec<u32>,
    /// `Ordered` lane: attempt number.
    pub ordered_attempt: Vec<u8>,
    /// `RequestArrive` lane: push sequence.
    pub arrive_seq: Vec<u64>,
    /// `RequestArrive` lane: pending-request index.
    pub arrive_req: Vec<u32>,
    /// `RequestArrive` lane: receiving node.
    pub arrive_node: Vec<u32>,
    /// `RequestArrive` lane: whether the arrival was a directory
    /// reissue.
    pub arrive_retry: Vec<bool>,
    /// `HomeReady` lane: push sequence.
    pub home_seq: Vec<u64>,
    /// `HomeReady` lane: pending-request index.
    pub home_req: Vec<u32>,
    /// `HomeReady` lane: attempt number.
    pub home_attempt: Vec<u8>,
    /// `OwnerReady` lane: push sequence.
    pub owner_seq: Vec<u64>,
    /// `OwnerReady` lane: pending-request index.
    pub owner_req: Vec<u32>,
    /// `OwnerReady` lane: responding owner node.
    pub owner_owner: Vec<u32>,
    /// `Complete` lane: push sequence.
    pub complete_seq: Vec<u64>,
    /// `Complete` lane: pending-request index.
    pub complete_req: Vec<u32>,
}

impl EventBatch {
    /// An empty batch.
    pub fn new() -> Self {
        EventBatch::default()
    }

    /// Number of events in the batch.
    pub fn len(&self) -> usize {
        self.runs.iter().map(|&(_, n)| n as usize).sum()
    }

    /// Whether the batch holds no events.
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    /// Empties every populated lane, retaining capacity.
    ///
    /// The run list names exactly the kinds with populated lanes, so
    /// only those columns are touched — every column of a named kind,
    /// always: the columns of a lane fill in lockstep, and clearing a
    /// subset would desynchronize them into stale payloads. (Batches
    /// are small — a handful of runs — so this is a few length resets,
    /// not seventeen.)
    pub fn clear(&mut self) {
        for i in 0..self.runs.len() {
            match self.runs[i].0 {
                EventKind::CpuIssue => {
                    self.cpu_seq.clear();
                    self.cpu_node.clear();
                }
                EventKind::Inject => {
                    self.inject_seq.clear();
                    self.inject_req.clear();
                }
                EventKind::Ordered => {
                    self.ordered_seq.clear();
                    self.ordered_req.clear();
                    self.ordered_attempt.clear();
                }
                EventKind::RequestArrive => {
                    self.arrive_seq.clear();
                    self.arrive_req.clear();
                    self.arrive_node.clear();
                    self.arrive_retry.clear();
                }
                EventKind::HomeReady => {
                    self.home_seq.clear();
                    self.home_req.clear();
                    self.home_attempt.clear();
                }
                EventKind::OwnerReady => {
                    self.owner_seq.clear();
                    self.owner_req.clear();
                    self.owner_owner.clear();
                }
                EventKind::Complete => {
                    self.complete_seq.clear();
                    self.complete_req.clear();
                }
            }
        }
        self.runs.clear();
    }

    /// Appends `event` (with push sequence `seq`) to its lane,
    /// extending the current run or opening a new one.
    #[inline]
    pub fn push(&mut self, seq: u64, event: Event) {
        let kind = event.kind();
        match self.runs.last_mut() {
            Some((last, n)) if *last == kind => *n += 1,
            _ => self.runs.push((kind, 1)),
        }
        match event {
            Event::CpuIssue { node } => {
                self.cpu_seq.push(seq);
                self.cpu_node.push(node as u32);
            }
            Event::Inject { req } => {
                self.inject_seq.push(seq);
                self.inject_req.push(req as u32);
            }
            Event::Ordered { req, attempt } => {
                self.ordered_seq.push(seq);
                self.ordered_req.push(req as u32);
                self.ordered_attempt.push(attempt);
            }
            Event::RequestArrive { req, node, retry } => {
                self.arrive_seq.push(seq);
                self.arrive_req.push(req as u32);
                self.arrive_node.push(node as u32);
                self.arrive_retry.push(retry);
            }
            Event::HomeReady { req, attempt } => {
                self.home_seq.push(seq);
                self.home_req.push(req as u32);
                self.home_attempt.push(attempt);
            }
            Event::OwnerReady { req, owner } => {
                self.owner_seq.push(seq);
                self.owner_req.push(req as u32);
                self.owner_owner.push(owner as u32);
            }
            Event::Complete { req } => {
                self.complete_seq.push(seq);
                self.complete_req.push(req as u32);
            }
        }
    }

    /// Reconstructs the batch's events in dispatch (= push-sequence)
    /// order, as `(time, seq, event)` — the flattened view the batch
    /// equivalence tests compare against per-event pops.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64, Event)> + '_ {
        let mut cursors = [0usize; 7];
        self.runs
            .iter()
            .flat_map(move |&(kind, n)| {
                let lane = kind as usize;
                let start = cursors[lane];
                cursors[lane] += n as usize;
                (start..start + n as usize).map(move |i| (kind, i))
            })
            .map(|(kind, i)| {
                let (seq, event) = match kind {
                    EventKind::CpuIssue => (
                        self.cpu_seq[i],
                        Event::CpuIssue {
                            node: self.cpu_node[i] as usize,
                        },
                    ),
                    EventKind::Inject => (
                        self.inject_seq[i],
                        Event::Inject {
                            req: self.inject_req[i] as usize,
                        },
                    ),
                    EventKind::Ordered => (
                        self.ordered_seq[i],
                        Event::Ordered {
                            req: self.ordered_req[i] as usize,
                            attempt: self.ordered_attempt[i],
                        },
                    ),
                    EventKind::RequestArrive => (
                        self.arrive_seq[i],
                        Event::RequestArrive {
                            req: self.arrive_req[i] as usize,
                            node: self.arrive_node[i] as usize,
                            retry: self.arrive_retry[i],
                        },
                    ),
                    EventKind::HomeReady => (
                        self.home_seq[i],
                        Event::HomeReady {
                            req: self.home_req[i] as usize,
                            attempt: self.home_attempt[i],
                        },
                    ),
                    EventKind::OwnerReady => (
                        self.owner_seq[i],
                        Event::OwnerReady {
                            req: self.owner_req[i] as usize,
                            owner: self.owner_owner[i] as usize,
                        },
                    ),
                    EventKind::Complete => (
                        self.complete_seq[i],
                        Event::Complete {
                            req: self.complete_req[i] as usize,
                        },
                    ),
                };
                (self.time, seq, event)
            })
    }
}
