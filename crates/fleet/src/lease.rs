//! The lease state machine: which worker owns which cells, with
//! work-stealing and expiry.
//!
//! Pure and clock-free: every transition takes `now` (milliseconds, any
//! monotonic origin) as an explicit argument, so the machine can be
//! property-tested over arbitrary grant/steal/expire/complete
//! interleavings with simulated time. The coordinator supplies real
//! wall-clock offsets; tests supply whatever adversarial schedule they
//! like.
//!
//! Each cell is always in exactly one state — pending, leased to
//! exactly one lease, or done — and the transitions preserve the churn
//! ledger invariant checked by
//! [`FleetCounters::reconciled`]: every grant event ends in either a
//! completion under that grant or a reassignment (steal / expiry
//! requeue), never both, never neither.
//!
//! Results from a lease that no longer holds a cell are **rejected**
//! ([`CellReport::Stale`]), not merged: outputs are deterministic, so
//! re-running the cell under its new lease produces identical bytes and
//! nothing is lost — while accepting them would let one cell's result
//! enter the master journal from two workers, which is exactly what the
//! reconciliation check forbids.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use dsp_bench::engine::{CellId, JournalTail};

use crate::stats::{FleetCounters, LeaseInfo};

/// One cell's position in the machine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum CellState {
    /// Waiting to be granted (initially, or again after a requeue).
    Pending,
    /// Owned by the lease with this id.
    Leased(u64),
    /// Completed exactly once; terminal.
    Done,
}

/// An active lease.
#[derive(Clone, Debug)]
pub struct Lease {
    /// Lease id (monotonic).
    pub id: u64,
    /// Holding worker.
    pub worker: String,
    /// Outstanding cells in plan order — the order the worker runs
    /// them, so stealing from the *back* takes the cells the holder
    /// would reach last.
    pub cells: Vec<CellId>,
    /// Cells completed under this lease.
    pub done: usize,
    /// Last liveness evidence (protocol message or journal growth).
    pub last_alive: u64,
    /// Last observed journal size, for growth detection.
    pub journal_tail: JournalTail,
}

/// What [`LeaseLedger::grant`] produced.
#[derive(Clone, Debug)]
pub enum GrantOutcome {
    /// A new lease.
    Granted {
        /// The lease id.
        lease: u64,
        /// Its cells, in plan order.
        cells: Vec<CellId>,
        /// Whether the cells were stolen from a straggler's tail
        /// rather than drawn from the pending queue.
        stolen: bool,
    },
    /// Nothing grantable right now: everything is leased out in tails
    /// too short to steal. Poll again — an expiry may free work.
    Wait,
    /// Every cell is done; the worker should exit.
    Finished,
}

/// Verdict on one reported cell completion.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CellReport {
    /// First completion: record the output.
    Accepted,
    /// The cell was already done; identical by determinism, drop it.
    Duplicate,
    /// The reporter no longer holds the cell (lease expired or the
    /// cell was stolen); drop it — its current owner will complete it.
    Stale,
}

/// The coordinator's authoritative record of cell ownership.
#[derive(Debug)]
pub struct LeaseLedger {
    /// Every cell id, in plan order.
    order: Vec<CellId>,
    /// Id → plan index.
    index: HashMap<CellId, usize>,
    /// Per-cell state, by plan index.
    state: Vec<CellState>,
    /// Plan indices awaiting a grant (BTreeSet keeps plan order).
    pending: BTreeSet<usize>,
    /// Active leases by id (BTreeMap for deterministic iteration).
    active: BTreeMap<u64, Lease>,
    next_lease: u64,
    /// Churn ledger.
    pub counters: FleetCounters,
}

impl LeaseLedger {
    /// A ledger over `cells` (the plan's `CellId::assign` manifest, in
    /// plan order; ids are unique within a plan by construction).
    pub fn new(cells: Vec<CellId>) -> Self {
        let index = cells.iter().enumerate().map(|(i, &id)| (id, i)).collect();
        let pending = (0..cells.len()).collect();
        LeaseLedger {
            state: vec![CellState::Pending; cells.len()],
            index,
            pending,
            active: BTreeMap::new(),
            next_lease: 1,
            counters: FleetCounters::default(),
            order: cells,
        }
    }

    /// Cells in the plan.
    pub fn total(&self) -> usize {
        self.order.len()
    }

    /// Cells completed so far.
    pub fn completed(&self) -> usize {
        self.state
            .iter()
            .filter(|s| matches!(s, CellState::Done))
            .count()
    }

    /// Cells awaiting a grant.
    pub fn pending(&self) -> usize {
        self.pending.len()
    }

    /// Cells held by active leases.
    pub fn outstanding(&self) -> usize {
        self.active.values().map(|l| l.cells.len()).sum()
    }

    /// Whether every cell is done.
    pub fn is_complete(&self) -> bool {
        self.completed() == self.total()
    }

    /// The active lease with id `lease`.
    pub fn lease(&self, lease: u64) -> Option<&Lease> {
        self.active.get(&lease)
    }

    /// Status-snapshot rows for every active lease.
    pub fn lease_infos(&self) -> Vec<LeaseInfo> {
        self.active
            .values()
            .map(|l| LeaseInfo {
                lease: l.id,
                worker: l.worker.clone(),
                outstanding: l.cells.len(),
                done: l.done,
            })
            .collect()
    }

    /// One cell's state, for results pages: `(id, state-name, holder)`
    /// where `holder` is the owning lease for leased cells.
    pub fn cell_view(&self, index: usize) -> Option<(CellId, &'static str, Option<u64>)> {
        let id = *self.order.get(index)?;
        Some(match self.state[index] {
            CellState::Pending => (id, "pending", None),
            CellState::Leased(lease) => (id, "leased", Some(lease)),
            CellState::Done => (id, "done", None),
        })
    }

    /// Grants up to `max_cells` cells to `worker`: from the pending
    /// queue in plan order, or — when the queue is empty — by stealing
    /// the back half of the largest straggler lease (the cells its
    /// holder would reach last). Single-cell leases are never stolen
    /// from, so two idle workers cannot ping-pong one cell; a wedged
    /// single-cell lease is recovered by expiry instead.
    pub fn grant(&mut self, worker: &str, now: u64, max_cells: usize) -> GrantOutcome {
        if self.is_complete() {
            return GrantOutcome::Finished;
        }
        let max_cells = max_cells.max(1);
        let mut take: Vec<usize> = Vec::new();
        while take.len() < max_cells {
            match self.pending.pop_first() {
                Some(i) => take.push(i),
                None => break,
            }
        }
        let mut stolen = false;
        if take.is_empty() {
            // Steal: largest outstanding tail wins, oldest lease on
            // ties (deterministic under the BTreeMap ordering).
            let victim = self
                .active
                .values()
                .filter(|l| l.cells.len() >= 2)
                .max_by_key(|l| (l.cells.len(), std::cmp::Reverse(l.id)))
                .map(|l| l.id);
            let Some(victim) = victim else {
                return GrantOutcome::Wait;
            };
            let lease = self.active.get_mut(&victim).expect("victim is active");
            let steal = (lease.cells.len() / 2).min(max_cells);
            let tail = lease.cells.split_off(lease.cells.len() - steal);
            self.counters.cells_stolen += tail.len() as u64;
            take = tail.iter().map(|id| self.index[id]).collect();
            stolen = true;
        }
        let id = self.next_lease;
        self.next_lease += 1;
        let cells: Vec<CellId> = take.iter().map(|&i| self.order[i]).collect();
        for &i in &take {
            self.state[i] = CellState::Leased(id);
        }
        self.counters.leases_granted += 1;
        self.counters.cells_granted += cells.len() as u64;
        self.active.insert(
            id,
            Lease {
                id,
                worker: worker.to_string(),
                cells: cells.clone(),
                done: 0,
                last_alive: now,
                journal_tail: JournalTail::default(),
            },
        );
        GrantOutcome::Granted {
            lease: id,
            cells,
            stolen,
        }
    }

    /// Marks a pending cell done without a lease: crash recovery adopts
    /// every cell the fleet directory's journals already hold. An
    /// adoption counts as one grant, one completion and one recovery,
    /// so [`FleetCounters::reconciled`] holds unchanged. Returns `false`,
    /// changing nothing, for an unknown or non-pending cell.
    pub fn adopt(&mut self, cell: CellId) -> bool {
        let Some(&idx) = self.index.get(&cell) else {
            return false;
        };
        if !self.pending.remove(&idx) {
            return false;
        }
        self.state[idx] = CellState::Done;
        self.counters.cells_granted += 1;
        self.counters.cells_completed += 1;
        self.counters.cells_recovered += 1;
        true
    }

    /// Makes every later lease id exceed `lease`, so a recovered
    /// coordinator never reuses a lease id (and with it a journal name)
    /// from the run it replaces.
    pub fn skip_leases_through(&mut self, lease: u64) {
        self.next_lease = self.next_lease.max(lease + 1);
    }

    /// Records protocol-level liveness. Returns `false` for an unknown
    /// (expired) lease.
    pub fn heartbeat(&mut self, lease: u64, now: u64) -> bool {
        match self.active.get_mut(&lease) {
            Some(l) => {
                l.last_alive = now;
                true
            }
            None => false,
        }
    }

    /// Records a journal-size observation: growth counts as liveness,
    /// so a worker making durable progress is never expired just
    /// because its messages are delayed.
    pub fn observe_journal(&mut self, lease: u64, tail: JournalTail, now: u64) {
        if let Some(l) = self.active.get_mut(&lease) {
            if tail.bytes > l.journal_tail.bytes || tail.lines > l.journal_tail.lines {
                l.journal_tail = tail;
                l.last_alive = now;
            }
        }
    }

    /// Judges one reported cell completion; see [`CellReport`]. Only
    /// the cell's *current* leaseholder may complete it.
    pub fn complete_cell(&mut self, lease: u64, cell: CellId, now: u64) -> CellReport {
        let Some(&idx) = self.index.get(&cell) else {
            self.counters.stale_reports += 1;
            return CellReport::Stale;
        };
        match self.state[idx] {
            CellState::Done => {
                self.heartbeat(lease, now);
                CellReport::Duplicate
            }
            CellState::Leased(holder) if holder == lease && self.active.contains_key(&lease) => {
                self.state[idx] = CellState::Done;
                let l = self.active.get_mut(&lease).expect("checked");
                l.last_alive = now;
                l.done += 1;
                l.cells.retain(|c| *c != cell);
                self.counters.cells_completed += 1;
                CellReport::Accepted
            }
            _ => {
                self.counters.stale_reports += 1;
                self.heartbeat(lease, now);
                CellReport::Stale
            }
        }
    }

    /// Retires a lease whose holder reported every cell. Returns
    /// `false` (and keeps the lease) if cells are still outstanding —
    /// the holder is confused, and expiry will reclaim the rest.
    pub fn complete_lease(&mut self, lease: u64) -> bool {
        match self.active.get(&lease) {
            Some(l) if l.cells.is_empty() => {
                self.active.remove(&lease);
                self.counters.leases_completed += 1;
                true
            }
            _ => false,
        }
    }

    /// Leases with no liveness evidence within `timeout_ms` of `now`.
    /// The caller harvests each one's journal (crediting its durable
    /// completions via [`complete_cell`](Self::complete_cell)) before
    /// calling [`expire`](Self::expire).
    pub fn stale_leases(&self, now: u64, timeout_ms: u64) -> Vec<u64> {
        self.active
            .values()
            .filter(|l| now.saturating_sub(l.last_alive) > timeout_ms)
            .map(|l| l.id)
            .collect()
    }

    /// Kills a lease: outstanding cells return to the pending queue
    /// (counted as reassigned — they will be granted again). Returns
    /// how many cells were requeued.
    pub fn expire(&mut self, lease: u64) -> usize {
        let Some(l) = self.active.remove(&lease) else {
            return 0;
        };
        self.counters.leases_expired += 1;
        self.counters.cells_stolen += l.cells.len() as u64;
        let requeued = l.cells.len();
        for cell in l.cells {
            let idx = self.index[&cell];
            debug_assert_eq!(self.state[idx], CellState::Leased(lease));
            self.state[idx] = CellState::Pending;
            self.pending.insert(idx);
        }
        requeued
    }
}

/// How many cells the next grant holds: the configured lease size,
/// but never more than half of what is still queued (rounded up, at
/// least one), so the endgame stays fine-grained enough to steal.
pub(crate) fn grant_size(lease_cells: usize, pending: usize) -> usize {
    lease_cells.min(pending.div_ceil(2)).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(n: usize) -> Vec<CellId> {
        (0..n)
            .map(|i| CellId::from_hex(&format!("{:016x}", 0x1000 + i as u64)).expect("hex"))
            .collect()
    }

    fn granted(outcome: GrantOutcome) -> (u64, Vec<CellId>, bool) {
        match outcome {
            GrantOutcome::Granted {
                lease,
                cells,
                stolen,
            } => (lease, cells, stolen),
            other => panic!("expected a grant, got {other:?}"),
        }
    }

    #[test]
    fn happy_path_reconciles() {
        let cells = ids(5);
        let mut ledger = LeaseLedger::new(cells.clone());
        let (l1, c1, s1) = granted(ledger.grant("w1", 0, 3));
        assert_eq!(c1, cells[..3]);
        assert!(!s1);
        let (l2, c2, _) = granted(ledger.grant("w2", 0, 3));
        assert_eq!(c2, cells[3..]);
        for &c in &c1 {
            assert_eq!(ledger.complete_cell(l1, c, 10), CellReport::Accepted);
        }
        for &c in &c2 {
            assert_eq!(ledger.complete_cell(l2, c, 10), CellReport::Accepted);
        }
        assert!(ledger.complete_lease(l1));
        assert!(ledger.complete_lease(l2));
        assert!(ledger.is_complete());
        assert!(matches!(ledger.grant("w1", 20, 3), GrantOutcome::Finished));
        assert!(ledger.counters.reconciled(5));
        assert_eq!(ledger.counters.leases_completed, 2);
    }

    #[test]
    fn steal_takes_the_tail_of_the_largest_lease() {
        let cells = ids(6);
        let mut ledger = LeaseLedger::new(cells.clone());
        let (l1, c1, _) = granted(ledger.grant("w1", 0, 6));
        assert_eq!(c1.len(), 6);
        // Queue is empty; an idle worker steals the back half.
        let (l2, c2, stolen) = granted(ledger.grant("w2", 5, 4));
        assert!(stolen);
        assert_eq!(c2, cells[3..]);
        assert_eq!(ledger.lease(l1).expect("active").cells, cells[..3]);
        assert_eq!(ledger.counters.cells_stolen, 3);
        // The victim reporting a stolen cell is rejected...
        assert_eq!(ledger.complete_cell(l1, cells[5], 6), CellReport::Stale);
        // ...the stealer completing it is accepted.
        assert_eq!(ledger.complete_cell(l2, cells[5], 7), CellReport::Accepted);
        // Drain the rest.
        for &c in &cells[..3] {
            assert_eq!(ledger.complete_cell(l1, c, 8), CellReport::Accepted);
        }
        for &c in &cells[3..5] {
            assert_eq!(ledger.complete_cell(l2, c, 8), CellReport::Accepted);
        }
        assert!(ledger.is_complete());
        assert!(ledger.counters.reconciled(6));
        assert_eq!(ledger.counters.stale_reports, 1);
    }

    #[test]
    fn expiry_requeues_and_the_cells_complete_elsewhere() {
        let cells = ids(4);
        let mut ledger = LeaseLedger::new(cells.clone());
        let (l1, _, _) = granted(ledger.grant("w1", 0, 4));
        assert_eq!(
            ledger.complete_cell(l1, cells[0], 100),
            CellReport::Accepted
        );
        // No liveness after t=100; stale only strictly past t=100+timeout.
        assert_eq!(ledger.stale_leases(5_101, 5_000), vec![l1]);
        assert!(ledger.stale_leases(5_100, 5_000).is_empty());
        assert_eq!(ledger.expire(l1), 3);
        assert_eq!(ledger.pending(), 3);
        // A late report from the dead lease is rejected.
        assert_eq!(ledger.complete_cell(l1, cells[1], 6_000), CellReport::Stale);
        let (l2, c2, stolen) = granted(ledger.grant("w2", 6_000, 8));
        assert!(!stolen, "requeued cells come from the pending queue");
        assert_eq!(c2, cells[1..]);
        for &c in &c2 {
            assert_eq!(ledger.complete_cell(l2, c, 6_500), CellReport::Accepted);
        }
        assert!(ledger.is_complete());
        assert!(ledger.counters.reconciled(4));
        assert_eq!(ledger.counters.leases_expired, 1);
        assert_eq!(ledger.counters.cells_stolen, 3);
    }

    #[test]
    fn journal_growth_counts_as_liveness() {
        let cells = ids(2);
        let mut ledger = LeaseLedger::new(cells);
        let (l1, _, _) = granted(ledger.grant("w1", 0, 2));
        ledger.observe_journal(
            l1,
            JournalTail {
                bytes: 100,
                lines: 2,
            },
            900,
        );
        assert!(ledger.stale_leases(1_800, 1_000).is_empty());
        // Same size again: no growth, no liveness.
        ledger.observe_journal(
            l1,
            JournalTail {
                bytes: 100,
                lines: 2,
            },
            1_700,
        );
        assert_eq!(ledger.stale_leases(2_000, 1_000), vec![l1]);
    }

    #[test]
    fn grant_size_is_the_lease_size_capped_by_half_the_queue() {
        assert_eq!(grant_size(8, 64), 8, "a long queue: the lease size");
        assert_eq!(grant_size(8, 6), 3, "6 pending → ceil(6/2) = 3");
        assert_eq!(grant_size(8, 1), 1, "1 pending → ceil(1/2) = 1");
        assert_eq!(grant_size(8, 0), 1, "floor at one cell");
    }

    #[test]
    fn duplicates_and_single_cell_leases() {
        let cells = ids(1);
        let mut ledger = LeaseLedger::new(cells.clone());
        let (l1, _, _) = granted(ledger.grant("w1", 0, 4));
        // A single-cell lease cannot be stolen from.
        assert!(matches!(ledger.grant("w2", 1, 4), GrantOutcome::Wait));
        assert_eq!(ledger.complete_cell(l1, cells[0], 2), CellReport::Accepted);
        assert_eq!(ledger.complete_cell(l1, cells[0], 3), CellReport::Duplicate);
        assert_eq!(ledger.counters.cells_completed, 1);
        assert!(ledger.counters.reconciled(1));
    }
}
