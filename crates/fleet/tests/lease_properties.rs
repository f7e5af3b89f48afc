//! Property tests for the lease state machine: under arbitrary
//! interleavings of grants, completions, stale reports, heartbeats,
//! and expiries, the ledger never double-completes a cell, never loses
//! one, and always terminates with every cell completed exactly once
//! and the churn counters reconciled — including when a crashed
//! coordinator's successor starts a fresh ledger that adopts whatever
//! the journals hold and drains the rest.

use std::collections::HashSet;

use dsp_bench::engine::CellId;
use dsp_fleet::{CellReport, GrantOutcome, LeaseLedger};
use proptest::prelude::*;

fn ids(n: usize) -> Vec<CellId> {
    (0..n)
        .map(|i| CellId::from_hex(&format!("{:016x}", 0xbeef_0000 + i as u64)).expect("hex"))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The core fleet safety and liveness argument, as a property: a
    /// random adversarial schedule followed by a deterministic drain
    /// always ends with `is_complete`, every cell accepted exactly
    /// once, and `cells_granted == cells_completed + cells_stolen`.
    #[test]
    fn random_interleavings_reconcile(
        total in 1usize..24,
        ops in proptest::collection::vec((0usize..6, 0usize..8, 1usize..5), 0usize..120),
    ) {
        let cells = ids(total);
        let mut ledger = LeaseLedger::new(cells.clone());
        // The model: the set of cells whose completion was Accepted.
        // A second Accepted for any member is the double-complete bug
        // this test exists to rule out.
        let mut accepted: HashSet<CellId> = HashSet::new();
        let mut now: u64 = 0;
        for (op, pick, size) in ops {
            now += 7;
            match op {
                // A worker asks for work.
                0 => {
                    let _ = ledger.grant(&format!("w{pick}"), now, size);
                }
                // An active lease's holder reports its next cell (or,
                // with nothing outstanding, retires the lease).
                1 => {
                    let leases = ledger.lease_infos();
                    if !leases.is_empty() {
                        let lease = leases[pick % leases.len()].lease;
                        let next = ledger.lease(lease).and_then(|l| l.cells.first().copied());
                        match next {
                            Some(cell) => {
                                let verdict = ledger.complete_cell(lease, cell, now);
                                prop_assert_eq!(verdict, CellReport::Accepted);
                                prop_assert!(accepted.insert(cell), "cell accepted twice");
                            }
                            None => {
                                let _ = ledger.complete_lease(lease);
                            }
                        }
                    }
                }
                // A report from a lease that was never granted must
                // never be accepted.
                2 => {
                    let bogus = pick as u64 + 1_000;
                    let verdict = ledger.complete_cell(bogus, cells[pick % total], now);
                    prop_assert_ne!(verdict, CellReport::Accepted);
                }
                // Heartbeats for arbitrary (possibly dead) leases.
                3 => {
                    let _ = ledger.heartbeat(pick as u64, now);
                }
                // A lease dies; its outstanding cells requeue.
                4 => {
                    let leases = ledger.lease_infos();
                    if !leases.is_empty() {
                        ledger.expire(leases[pick % leases.len()].lease);
                    }
                }
                // A repeat report for an already-done cell is a
                // Duplicate no matter which lease claims it.
                _ => {
                    if let Some(&cell) = accepted.iter().next() {
                        let verdict = ledger.complete_cell(pick as u64, cell, now);
                        prop_assert_eq!(verdict, CellReport::Duplicate);
                    }
                }
            }
            // No cell is ever lost or duplicated across the three
            // states, and the ledger's completion count tracks the
            // model exactly.
            prop_assert_eq!(
                ledger.pending() + ledger.outstanding() + ledger.completed(),
                total
            );
            prop_assert_eq!(ledger.completed(), accepted.len());
            prop_assert_eq!(ledger.counters.cells_completed as usize, accepted.len());
        }

        // Deterministic drain: grant, complete, retire; expire anything
        // wedged. This must terminate with the plan fully complete.
        let mut guard = 0;
        loop {
            guard += 1;
            prop_assert!(guard < 10_000, "drain did not terminate");
            now += 11;
            match ledger.grant("drain", now, 3) {
                GrantOutcome::Finished => break,
                GrantOutcome::Wait => {
                    // Nothing pending and nothing stealable: only
                    // wedged leases remain. Expiry recovers them.
                    let leases = ledger.lease_infos();
                    prop_assert!(!leases.is_empty(), "Wait with no active leases");
                    ledger.expire(leases[0].lease);
                }
                GrantOutcome::Granted {
                    lease,
                    cells: granted,
                    ..
                } => {
                    for cell in granted {
                        let verdict = ledger.complete_cell(lease, cell, now);
                        prop_assert_eq!(verdict, CellReport::Accepted);
                        prop_assert!(accepted.insert(cell), "cell accepted twice");
                    }
                    prop_assert!(ledger.complete_lease(lease));
                }
            }
        }
        prop_assert!(ledger.is_complete());
        prop_assert_eq!(accepted.len(), total);
        prop_assert!(
            ledger.counters.reconciled(total as u64),
            "unreconciled counters: {:?}",
            ledger.counters
        );
    }

    /// Coordinator crash recovery, as a property: a random schedule
    /// runs against a live ledger until the coordinator crashes at an
    /// arbitrary point. The journals then hold every completed cell
    /// plus a random subset of the cells that were leased but never
    /// reported (a worker journals before it reports). A fresh ledger
    /// adopts them in journal order — master first, then lease
    /// journals, which repeat reported cells — and drains the rest.
    /// Only the first sighting of a cell may adopt it, a leased cell
    /// can never be adopted, and every cell ends adopted or completed
    /// exactly once with the counters reconciled.
    #[test]
    fn recovery_from_journals_at_any_crash_point_reconciles(
        total in 1usize..20,
        ops in proptest::collection::vec((0usize..4, 0usize..8, 1usize..5), 0usize..90),
        crash in 0usize..90,
        journaled in proptest::collection::vec(any::<bool>(), 20),
    ) {
        let cells = ids(total);
        let mut ledger = LeaseLedger::new(cells.clone());
        let mut reported: Vec<CellId> = Vec::new();
        let mut ever_leased: Vec<CellId> = Vec::new();
        let mut now: u64 = 0;
        for &(op, pick, size) in ops.iter().take(crash) {
            now += 7;
            match op {
                0 => {
                    if let GrantOutcome::Granted { cells, .. } =
                        ledger.grant(&format!("w{pick}"), now, size)
                    {
                        ever_leased.extend(cells);
                    }
                }
                1 => {
                    let leases = ledger.lease_infos();
                    if !leases.is_empty() {
                        let lease = leases[pick % leases.len()].lease;
                        match ledger.lease(lease).and_then(|l| l.cells.first().copied()) {
                            Some(cell) => {
                                let verdict = ledger.complete_cell(lease, cell, now);
                                prop_assert_eq!(verdict, CellReport::Accepted);
                                reported.push(cell);
                            }
                            None => {
                                let _ = ledger.complete_lease(lease);
                            }
                        }
                    }
                }
                2 => {
                    let _ = ledger.heartbeat(pick as u64, now);
                }
                _ => {
                    let leases = ledger.lease_infos();
                    if !leases.is_empty() {
                        ledger.expire(leases[pick % leases.len()].lease);
                    }
                }
            }
        }

        // Crash. The successor reads the master journal, then every
        // lease journal.
        let on_disk: Vec<CellId> = ever_leased
            .iter()
            .copied()
            .filter(|c| {
                let index = cells.iter().position(|x| x == c).expect("plan cell");
                reported.contains(c) || journaled[index]
            })
            .collect();
        let mut recovered = LeaseLedger::new(cells.clone());
        recovered.skip_leases_through(ledger.counters.leases_granted);
        let mut adopted: HashSet<CellId> = HashSet::new();
        for &cell in reported.iter().chain(&on_disk) {
            let first = !adopted.contains(&cell);
            prop_assert_eq!(recovered.adopt(cell), first, "only a first sighting adopts");
            adopted.insert(cell);
        }
        prop_assert!(!recovered.adopt(CellId::from_hex("00000000deadbeef").expect("hex")));
        prop_assert_eq!(recovered.counters.cells_recovered as usize, adopted.len());

        // Drain the rest through the live grant/steal/expire path.
        let mut completed: HashSet<CellId> = HashSet::new();
        let mut guard = 0;
        loop {
            guard += 1;
            prop_assert!(guard < 10_000, "recovery drain did not terminate");
            now += 11;
            match recovered.grant("drain", now, 3) {
                GrantOutcome::Finished => break,
                GrantOutcome::Wait => {
                    let leases = recovered.lease_infos();
                    prop_assert!(!leases.is_empty(), "Wait with no active leases");
                    recovered.expire(leases[0].lease);
                }
                GrantOutcome::Granted { lease, cells: granted, .. } => {
                    prop_assert!(lease > ledger.counters.leases_granted, "lease id reused");
                    prop_assert!(!recovered.adopt(granted[0]), "a leased cell was adopted");
                    for cell in granted {
                        let verdict = recovered.complete_cell(lease, cell, now);
                        prop_assert_eq!(verdict, CellReport::Accepted);
                        prop_assert!(!adopted.contains(&cell), "adopted cell re-run");
                        prop_assert!(completed.insert(cell), "cell accepted twice in drain");
                    }
                    prop_assert!(recovered.complete_lease(lease));
                }
            }
        }
        prop_assert!(recovered.is_complete());
        prop_assert_eq!(adopted.len() + completed.len(), total);
        prop_assert!(
            recovered.counters.reconciled(total as u64),
            "unreconciled counters after recovery: {:?}",
            recovered.counters
        );
    }
}
