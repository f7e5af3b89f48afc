//! Golden check: experiment output is byte-identical to the
//! pre-refactor (PR 2) outputs — through every execution mode.
//!
//! The goldens under `tests/goldens/` were captured at `--scale quick`
//! immediately before the scheduling-core rebuild (timing-wheel event
//! queue, shared open-addressing table family, 256-bit `DestSet`), so
//! these tests prove the refactors since — queue, tables, set widening,
//! the trace-generator storage swap, the streaming session API with
//! its serde round-trip through checkpoint journals, and now the
//! interconnect topology/fault-injection layer wrapped around the
//! crossbar — are
//! observationally invisible to every table and figure they touch: the
//! trace-driven Table 2 and Figure 5 paths and the timing-simulated
//! Figure 7/8 paths.
//!
//! Each artifact is checked several ways against the same golden bytes:
//!
//! 1. the batch path (`SweepRunner`, a single-shard in-memory session),
//!    under both the lazy (default) and eager training-delivery modes,
//!    with an explicitly-empty toxic chain on the explicit crossbar
//!    topology (the fault-injection layer's identity gate), and — for
//!    timing-sim plans — under the explicit wide `DestSet<4>`
//!    monomorphization as well;
//! 2. a 2-shard run — two sessions journaling to JSONL, then
//!    `merge_journals`;
//! 3. a crash-then-resume run — a full journal truncated mid-file, a
//!    resumed session completing it, then a merge of the healed file;
//! 4. (implicitly, by 2 and 3) the serde round-trip of every cell
//!    output through the journal.
//!
//! Compiled only into release test runs (CI's `cargo test --release
//! --workspace`): the quick-scale timing simulations behind fig7/fig8
//! are release-speed workloads, and a byte-identity check on debug
//! builds would add minutes to the tier-1 loop without adding coverage.

#![cfg(not(debug_assertions))]

use std::path::PathBuf;

use dsp_bench::engine::{merge_journals, Cell, ShardSpec, SweepRunner, SweepSession};
use dsp_bench::{experiments, Scale};
use dsp_sim::{SetWidth, TopologySpec, ToxicSpec, TrainingMode};

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dsp-golden-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir
}

fn check(name: &str, golden: &str) {
    let scale = Scale::quick();

    // 1. Batch path (single-shard in-memory session), under BOTH
    //    training-delivery modes: the lazy per-node inboxes (the
    //    default) and the eager per-arrival reference events must
    //    render byte-identical tables — to each other and to the
    //    pre-refactor golden. The eager re-run only happens for plans
    //    with timing-sim cells (fig7/fig8): trace-driven experiments
    //    never touch the simulator, so both modes would execute
    //    identical code there. This is the whole-experiment end of
    //    the eager/lazy equivalence argument; the per-call end lives
    //    in `dsp-sim/tests/train_equivalence.rs`.
    let plan = experiments::plan_for(name, &scale).expect("known experiment");
    let table = SweepRunner::new().run(&plan);
    assert_eq!(
        table.to_csv(),
        golden,
        "{name} batch output (lazy training) diverged from the pre-refactor golden"
    );
    // The fault-injection layer's identity gate: an EXPLICIT empty
    // toxic chain on the explicit crossbar topology must be
    // indistinguishable from never having mentioned either — the
    // no-toxic fast path delegates to the untouched crossbar, so the
    // golden bytes cannot move. (Run 1 above already pins the
    // defaults; this pins the spelled-out form.)
    let clean_plan = experiments::plan_for(name, &scale)
        .expect("known experiment")
        .toxics(ToxicSpec::none())
        .topology(TopologySpec::Crossbar);
    assert_eq!(
        SweepRunner::new().run(&clean_plan).to_csv(),
        golden,
        "{name} output with an explicit empty toxic chain on the explicit crossbar \
         diverged from the golden"
    );

    if plan.cells.iter().any(|c| matches!(c, Cell::Runtime { .. })) {
        let eager_plan = experiments::plan_for(name, &scale)
            .expect("known experiment")
            .training(TrainingMode::Eager);
        assert_eq!(
            SweepRunner::new().run(&eager_plan).to_csv(),
            golden,
            "{name} batch output (eager training) diverged from the pre-refactor golden"
        );

        // The compile-time set width is a pure performance
        // representation: the explicit wide (`DestSet<4>`)
        // monomorphization must render byte-identical tables. (The
        // default — auto width, i.e. `DestSet<1>` at these 16-node
        // configs — is what run 1 above already pinned.) The wide plan
        // forces only the timing simulations; the trace-driven cells
        // always pick their width from the node count, and their
        // `DestSet<4>` path is pinned by the `narrow_and_wide_paths_agree`
        // unit tests in `crates/analysis/src/{tradeoff,characterize}.rs`.
        let wide_plan = experiments::plan_for(name, &scale)
            .expect("known experiment")
            .width(SetWidth::Wide);
        assert_eq!(
            SweepRunner::new().run(&wide_plan).to_csv(),
            golden,
            "{name} batch output (wide DestSet) diverged from the pre-refactor golden"
        );
    }

    let dir = tmpdir(name);

    // 2. Two shards journaled to disk, then merged.
    let shard_paths: Vec<PathBuf> = (0..2).map(|i| dir.join(format!("s{i}.jsonl"))).collect();
    for (i, path) in shard_paths.iter().enumerate() {
        SweepSession::new(&plan)
            .shard(ShardSpec::new(i, 2))
            .threads(4)
            .checkpoint(path)
            .run(&mut [])
            .expect("shard session");
    }
    let merged = merge_journals(&plan, &shard_paths).expect("merge");
    assert_eq!(
        merged.to_csv(),
        golden,
        "{name} 2-shard merged output diverged from the golden"
    );

    // 3. Crash after the first journaled cell, then resume.
    let crash_path = dir.join("crash.jsonl");
    SweepSession::new(&plan)
        .checkpoint(&crash_path)
        .run(&mut [])
        .expect("full journaling run");
    let text = std::fs::read_to_string(&crash_path).expect("read journal");
    // Keep the header, the first record, and a torn fragment of the
    // second — the on-disk state of a process killed mid-write.
    let mut kept: Vec<&str> = text.lines().take(2).collect();
    let torn = text.lines().nth(2).expect("at least two records");
    kept.push(&torn[..torn.len() / 2]);
    std::fs::write(&crash_path, kept.join("\n")).expect("truncate journal");
    let resumed = SweepSession::new(&plan)
        .checkpoint(&crash_path)
        .resume(true)
        .run(&mut [])
        .expect("resumed session");
    assert_eq!(resumed.replayed, 1, "{name}: one intact record replays");
    assert_eq!(resumed.executed, plan.len() - 1);
    let healed = merge_journals(&plan, &[crash_path]).expect("merge healed journal");
    assert_eq!(
        healed.to_csv(),
        golden,
        "{name} crash-then-resumed output diverged from the golden"
    );

    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn table2_matches_pre_refactor_golden() {
    check("table2", include_str!("goldens/table2.csv"));
}

#[test]
fn fig5_matches_pre_refactor_golden() {
    check("fig5", include_str!("goldens/fig5.csv"));
}

#[test]
fn fig7_matches_pre_refactor_golden() {
    check("fig7", include_str!("goldens/fig7.csv"));
}

#[test]
fn fig8_matches_pre_refactor_golden() {
    check("fig8", include_str!("goldens/fig8.csv"));
}
