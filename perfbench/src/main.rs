//! Benchmark of the destination-set prediction workspace.
//!
//! ```text
//! perfbench --workload <tradeoff|timing|fleet> [--seed N]
//!           [--seconds S] [--trace 0|1]
//! perfbench --write-expected
//! ```
//!
//! With `--trace 0` the run measures the end-to-end metrics with no
//! timers inside any layer; with `--trace 1` it runs the traced pass
//! and reports per-layer metrics. Every run checks its own outputs and
//! also reproduces the quick-scale goldens; any failure makes the run
//! exit non-zero. The last line of standard output is one JSON
//! object; the full record is written under `out/` beside this
//! package's manifest. See README.md for the workloads and metrics.

mod fleet;
mod report;
mod traced;
mod workloads;

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use dsp_bench::engine::{CellOutput, CellRecord, CellSink, ExperimentPlan, SweepRunner};
use dsp_bench::{experiments, Scale};

use report::{
    expected_for, median_of, nproc, peak_rss_mb, Counter, Expected, Host, Metric, Outcome,
    RunRecord, Sampled, SCHEMA_VERSION,
};
use traced::{Layers, Spans};
use workloads::{cell_misses, output_digest, panic_message, single_pass, Inputs, Kind};

/// The seed held out from development; its reference values are
/// recorded beside the default seed's.
const HELD_OUT_SEED: u64 = 20_031;

/// Fewest measurement rounds a run makes, however long they take.
const MIN_ROUNDS: usize = 3;

/// Quick-scale goldens every run must reproduce.
const GOLDENS: [(&str, &str); 4] = [
    (
        "table2",
        include_str!("../../crates/bench/tests/goldens/table2.csv"),
    ),
    (
        "fig5",
        include_str!("../../crates/bench/tests/goldens/fig5.csv"),
    ),
    (
        "fig7",
        include_str!("../../crates/bench/tests/goldens/fig7.csv"),
    ),
    (
        "fig8",
        include_str!("../../crates/bench/tests/goldens/fig8.csv"),
    ),
];

/// Counters that describe the modelled design rather than the
/// simulator's implementation: a change to any of them is a behaviour
/// change and fails the run.
const MODEL_COUNTERS: [&str; 12] = [
    "engine.cells",
    "engine.misses",
    "trace.records",
    "core.sufficient_first_ratio",
    "interconnect.messages_per_miss",
    "sim.runtime_ns",
    "sim.avg_miss_latency_ns",
    "sim.bytes_per_miss",
    "sim.indirection_pct",
    "sim.retries_per_miss",
    "analysis.request_msgs_per_miss",
    "analysis.indirection_pct",
];

struct Args {
    workload: Option<Kind>,
    seed: u64,
    seconds: f64,
    trace: bool,
    write_expected: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: experiments::SEED,
        seconds: 10.0,
        trace: false,
        write_expected: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--write-expected" {
            args.write_expected = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                args.workload =
                    Some(Kind::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?)
            }
            "--seed" => args.seed = value.parse().map_err(|_| format!("bad seed {value:?}"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0)
                    .ok_or_else(|| format!("bad seconds {value:?}"))?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    if args.workload.is_none() && !args.write_expected {
        return Err("--workload is required".to_string());
    }
    Ok(args)
}

/// Directory every file the benchmark writes goes to.
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Attempted and failed cells, with one line per failure.
#[derive(Debug, Default)]
struct Gate {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Gate {
    fn fail(&mut self, cells: u64, message: String) {
        self.failed += cells;
        self.failures.push(message);
    }

    /// Counts `outputs` as attempted and fails the ones that panicked.
    fn check_ran(&mut self, name: &str, outputs: &[Result<CellOutput, String>]) {
        self.attempted += outputs.len() as u64;
        for (i, out) in outputs.iter().enumerate() {
            if let Err(e) = out {
                self.fail(1, format!("{name} cell {i} panicked: {e}"));
            }
        }
    }
}

/// Renders a plan's table from outputs that all succeeded.
fn render(plan: &ExperimentPlan, outputs: &[Result<CellOutput, String>]) -> Option<String> {
    let ok: Option<Vec<CellOutput>> = outputs.iter().map(|o| o.as_ref().ok().cloned()).collect();
    ok.map(|outs| plan.render_outputs(&outs).to_csv())
}

fn digests(outputs: &[Result<CellOutput, String>]) -> Vec<String> {
    outputs
        .iter()
        .map(|o| {
            o.as_ref()
                .map_or_else(|_| "panicked".to_string(), output_digest)
        })
        .collect()
}

/// A cold sweep of every plan through one fresh runner.
fn sweep(
    plans: &[(&str, ExperimentPlan)],
    runner: &SweepRunner,
) -> Vec<Vec<Result<CellOutput, String>>> {
    plans
        .iter()
        .map(
            |(_, plan)| match catch_unwind(AssertUnwindSafe(|| runner.run_cells(plan))) {
                Ok(outs) => outs.into_iter().map(Ok).collect(),
                Err(e) => {
                    let msg = panic_message(e);
                    plan.cells.iter().map(|_| Err(msg.clone())).collect()
                }
            },
        )
        .collect()
}

/// Requires the single-thread pass and the parallel sweep to agree
/// cell by cell and table by table.
fn compare(
    gate: &mut Gate,
    name: &str,
    plan: &ExperimentPlan,
    single: &[Result<CellOutput, String>],
    parallel: &[Result<CellOutput, String>],
) {
    gate.check_ran(name, single);
    gate.check_ran(name, parallel);
    for (i, (a, b)) in digests(single).iter().zip(digests(parallel)).enumerate() {
        if *a != b && a != "panicked" && b != "panicked" {
            gate.fail(
                1,
                format!("{name} cell {i}: single-thread and sweep outputs differ"),
            );
        }
    }
    if let (Some(a), Some(b)) = (render(plan, single), render(plan, parallel)) {
        if a != b {
            gate.fail(1, format!("{name}: single-thread and sweep tables differ"));
        }
    }
}

/// Reproduces the quick-scale goldens through the single-thread pass
/// and the parallel sweep.
fn self_test(gate: &mut Gate) {
    for (name, golden) in GOLDENS {
        let plan = experiments::plan_for(name, &Scale::quick()).expect("golden experiment");
        let inputs = Inputs::build([&plan]);
        let single = single_pass(&plan, &inputs);
        let parallel = sweep(&[(name, plan)], &SweepRunner::new()).remove(0);
        let plan = experiments::plan_for(name, &Scale::quick()).expect("golden experiment");
        compare(gate, name, &plan, &single, &parallel);
        if render(&plan, &single).as_deref() != Some(golden) {
            gate.fail(
                1,
                format!("self-test: {name} does not reproduce its golden"),
            );
        }
    }
}

/// Compares digests with the recorded reference, cell by cell.
fn check_expected(gate: &mut Gate, expected: Option<&Expected>, digests: &[String]) {
    let Some(expected) = expected else { return };
    if expected.digests.len() != digests.len() {
        gate.fail(
            1,
            format!(
                "reference holds {} cells, the run {}",
                expected.digests.len(),
                digests.len()
            ),
        );
        return;
    }
    for (i, (want, got)) in expected.digests.iter().zip(digests).enumerate() {
        if want != got {
            gate.fail(
                1,
                format!("cell {i}: digest {got} differs from reference {want}"),
            );
        }
    }
}

fn metric(metrics: &mut BTreeMap<String, Metric>, name: &str, value: f64, unit: &str) {
    metrics.insert(
        name.to_string(),
        Metric {
            value,
            unit: unit.to_string(),
        },
    );
}

/// Set-ups per measurement round; the round keeps the fastest.
const SETUP_REPEATS: usize = 5;

/// What the untraced run measured.
struct Measured {
    /// Every sample, for the run record.
    timings: Vec<Sampled>,
    /// The reported values: (name, value, unit).
    reported: Vec<(&'static str, f64, &'static str)>,
    rounds: usize,
    digests: Vec<String>,
}

/// The untraced run: set-up, cold sweep and single-thread pass, round
/// after round for `seconds`.
///
/// On a shared host other tenants add time in bursts that last seconds
/// to minutes, so a round's fastest sample swings with them and the
/// median over rounds is the steadier figure. `sweep_s` is the median
/// cold sweep and `misses_per_s` divides by the median single-thread
/// pass (for the fleet, the median post-set-up sweep). `setup_s` is
/// the median over rounds of each round's fastest of [`SETUP_REPEATS`]
/// set-ups.
/// `peak_rss_mb` is read after the first round's set-up and
/// single-thread pass, before any parallel sweep, whose peak depends
/// on which cells the threads happen to overlap.
fn measure(kind: Kind, seed: u64, seconds: f64, gate: &mut Gate) -> Measured {
    let plans = kind.plans(seed);
    let expected = expected_for(kind.name(), seed);
    let misses: u64 = plans
        .iter()
        .flat_map(|(_, p)| p.cells.iter().map(move |c| cell_misses(c, p)))
        .sum();
    let (mut setup, mut sweep_s, mut compute_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut first_digests = Vec::new();
    let mut serial_csv = None;
    let mut peak_rss = None;
    let start = Instant::now();
    while setup.len() < MIN_ROUNDS || start.elapsed().as_secs_f64() < seconds {
        let round = setup.len();
        let mut input_s = f64::INFINITY;
        let mut inputs = Inputs::default();
        for _ in 0..SETUP_REPEATS {
            let t = Instant::now();
            inputs = Inputs::build(plans.iter().map(|(_, p)| p));
            input_s = input_s.min(t.elapsed().as_secs_f64());
        }

        let singles: Vec<_>;
        if kind == Kind::Fleet {
            let dir = out_dir().join(format!("fleet-{}-{round}", std::process::id()));
            let (_, plan) = &plans[0];
            // The serial reference is computed once; every round's
            // fleet table must equal it.
            if round == 0 {
                let single = single_pass(plan, &inputs);
                peak_rss = peak_rss_mb();
                gate.check_ran("fleet serial", &single);
                serial_csv = render(plan, &single);
                singles = vec![single];
            } else {
                singles = Vec::new();
            }
            gate.attempted += plan.cells.len() as u64;
            match fleet::run(seed, &dir, false) {
                Ok(run) => {
                    setup.push(input_s + run.join_s);
                    sweep_s.push(run.sweep_s);
                    compute_s.push(run.sweep_s - run.join_s);
                    if serial_csv.as_deref() != Some(run.report.csv.as_str()) {
                        gate.fail(
                            plan.cells.len() as u64,
                            "fleet table differs from serial".into(),
                        );
                    }
                    if !run.report.reconciled {
                        gate.fail(1, "fleet ledger did not reconcile".into());
                    }
                }
                Err(e) => {
                    gate.fail(plan.cells.len() as u64, e);
                    break;
                }
            }
        } else {
            let t = Instant::now();
            singles = plans.iter().map(|(_, p)| single_pass(p, &inputs)).collect();
            compute_s.push(t.elapsed().as_secs_f64());
            if round == 0 {
                peak_rss = peak_rss_mb();
            }
            let t = Instant::now();
            let parallel = sweep(&plans, &SweepRunner::new());
            sweep_s.push(t.elapsed().as_secs_f64());
            setup.push(input_s);
            for ((name, plan), (single, par)) in plans.iter().zip(singles.iter().zip(&parallel)) {
                compare(gate, name, plan, single, par);
            }
        }
        if round == 0 {
            first_digests = singles.iter().flat_map(|s| digests(s)).collect();
            check_expected(gate, expected.as_ref(), &first_digests);
        }
    }
    let rounds = setup.len();
    let peak_rss = peak_rss.unwrap_or_else(|| {
        gate.fail(1, "VmHWM unavailable".into());
        0.0
    });
    let reported = vec![
        ("sweep_s", median_of(&sweep_s), "s"),
        ("setup_s", median_of(&setup), "s"),
        ("misses_per_s", misses as f64 / median_of(&compute_s), "1/s"),
        ("peak_rss_mb", peak_rss, "MiB"),
    ];
    let timings = vec![
        Sampled::new("sweep_s", "s", sweep_s),
        Sampled::new("setup_s", "s", setup),
        Sampled::new("compute_s", "s", compute_s),
    ];
    Measured {
        timings,
        reported,
        rounds,
        digests: first_digests,
    }
}

/// Stamps each finished cell with the time since the session began.
struct Stamps {
    start: Instant,
    at: Vec<f64>,
}

impl CellSink for Stamps {
    fn on_cell(&mut self, _plan: &ExperimentPlan, _record: &CellRecord) {
        self.at.push(self.start.elapsed().as_secs_f64());
    }
}

/// Cold serial session over every plan, timing cells through a sink.
/// Returns (total seconds, per-cell ms, inputs the runner cached).
fn serial_cells(plans: &[(&str, ExperimentPlan)]) -> (f64, Vec<f64>, usize) {
    let runner = SweepRunner::serial();
    let mut cell_ms = Vec::new();
    let t = Instant::now();
    for (_, plan) in plans {
        let mut stamps = Stamps {
            start: Instant::now(),
            at: Vec::new(),
        };
        runner
            .session(plan)
            .run(&mut [&mut stamps])
            .expect("in-memory session");
        let mut last = 0.0;
        for at in stamps.at {
            cell_ms.push((at - last) * 1e3);
            last = at;
        }
    }
    let total = t.elapsed().as_secs_f64();
    (
        total,
        cell_ms,
        runner.cached_traces() + runner.cached_partitions(),
    )
}

/// One traced pass over every plan; returns its layers.
fn traced_pass(
    plans: &[(&str, ExperimentPlan)],
    inputs: &Inputs,
    untimed: &[workloads::PassOutputs],
    spans: &mut Spans,
    gate: &mut Gate,
) -> Layers {
    let mut layers = Layers::default();
    for ((name, plan), untimed) in plans.iter().zip(untimed) {
        for failure in traced::trace_plan(plan, name, inputs, untimed, &mut layers, spans) {
            gate.fail(1, failure);
        }
    }
    if layers.counts.sims == 0 {
        let span = spans.open("replay", "layer costs on the traces".into(), None);
        let mut failures = Vec::new();
        traced::replay_traces(inputs, &mut layers, &mut failures);
        for failure in failures {
            gate.fail(1, failure);
        }
        spans.close(span);
    }
    layers
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The exact work counters of a traced pass.
fn counters(l: &Layers, records: u64) -> Vec<Counter> {
    let c = &l.counts;
    let sims = c.sim_measured as f64;
    let pred = c.predictor_measured as f64;
    [
        ("engine.cells", c.cells as f64),
        ("engine.misses", c.misses as f64),
        ("trace.records", records as f64),
        ("coherence.tracked_blocks", c.tracked_blocks as f64),
        (
            "core.train_events_per_miss",
            ratio(c.train_events as f64, c.predictor_misses as f64),
        ),
        (
            "core.sufficient_first_ratio",
            ratio(pred - c.insufficient_first as f64, pred),
        ),
        (
            "interconnect.messages_per_miss",
            ratio(c.messages as f64, sims),
        ),
        (
            "sim.events_per_miss",
            ratio(c.events as f64, c.sim_misses as f64),
        ),
        ("sim.queue_promoted", c.promoted as f64),
        ("sim.runtime_ns", c.runtime_ns as f64),
        ("sim.avg_miss_latency_ns", ratio(c.latency_ns as f64, sims)),
        ("sim.bytes_per_miss", ratio(c.bytes as f64, sims)),
        (
            "sim.indirection_pct",
            100.0 * ratio(c.sim_indirections as f64, sims),
        ),
        ("sim.retries_per_miss", ratio(c.retries as f64, sims)),
        (
            "analysis.request_msgs_per_miss",
            ratio(c.request_messages as f64, pred),
        ),
        (
            "analysis.indirection_pct",
            100.0 * ratio(c.indirections as f64, pred),
        ),
    ]
    .into_iter()
    .map(|(name, value)| Counter {
        name: name.to_string(),
        value,
    })
    .collect()
}

/// Generator throughput over every input the plans draw: each trace,
/// and for partitioned inputs as many records as the partition holds.
fn generator_rate(plans: &[(&str, ExperimentPlan)]) -> f64 {
    let mut records = 0u64;
    let mut seconds = 0.0;
    let mut seen = Vec::new();
    for (_, plan) in plans {
        for cell in &plan.cells {
            let spec = workloads::cell_spec(cell, plan);
            let s = &plan.scale;
            let len = if matches!(cell, dsp_bench::engine::Cell::Runtime { .. }) {
                spec.num_nodes() * (s.sim_warmup + s.sim_measured)
            } else {
                s.trace_warmup + s.trace_measured
            };
            let key = (spec.name().to_string(), spec.num_nodes(), len);
            if seen.contains(&key) {
                continue;
            }
            seen.push(key);
            let t = Instant::now();
            let n = spec.generator(plan.seed).take(len).count();
            seconds += t.elapsed().as_secs_f64();
            records += n as u64;
        }
    }
    records as f64 / seconds
}

/// What the traced run measured.
struct Traced {
    metrics: BTreeMap<String, Metric>,
    counters: Vec<Counter>,
    digests: Vec<String>,
    spans: Vec<report::Span>,
    passes: usize,
}

/// The traced run: per-layer metrics, counters and spans.
fn trace_run(kind: Kind, seed: u64, seconds: f64, gate: &mut Gate) -> Traced {
    let plans = kind.plans(seed);
    let inputs = Inputs::build(plans.iter().map(|(_, p)| p));
    let records_per_s = generator_rate(&plans);

    let t = Instant::now();
    let untimed: Vec<_> = plans.iter().map(|(_, p)| single_pass(p, &inputs)).collect();
    let untraced_s = t.elapsed().as_secs_f64();
    for ((name, _), outs) in plans.iter().zip(&untimed) {
        gate.check_ran(name, outs);
    }
    let digests: Vec<String> = untimed.iter().flat_map(|o| digests(o)).collect();

    let mut spans = Spans::new();
    let mut passes = Vec::new();
    let start = Instant::now();
    while passes.is_empty() || start.elapsed().as_secs_f64() < seconds {
        passes.push(traced_pass(&plans, &inputs, &untimed, &mut spans, gate));
    }
    let samples = passes.len();
    passes.sort_by_key(|l| l.traced_ns);
    let l = &passes[samples / 2];

    let (serial_s, cell_ms, cached) = serial_cells(&plans);
    let t = Instant::now();
    let _ = sweep(&plans, &SweepRunner::new());
    let parallel_s = t.elapsed().as_secs_f64();

    // Every per-call span also holds one clock read; subtract its
    // calibrated cost from each layer and report it as its own share.
    let clock_ns = traced::clock_cost_ns();
    let net = |acc: traced::Acc| (acc.ns as f64 - acc.calls as f64 * clock_ns).max(0.0);
    let per = |acc: traced::Acc, ops: u64| ratio(net(acc), ops as f64);
    let mut m = BTreeMap::new();
    let traced = l.traced_ns as f64;
    let core_ns = net(l.predict) + net(l.train);
    let timed_calls =
        l.predict.calls + l.train.calls + l.classify.calls + l.access.calls + l.evaluate.calls;
    // Tracker time: exact spans of trace-driven cells plus the estimate
    // inside simulations. Per-call figures come from the exact spans
    // when the workload has trace-driven cells, else from the replay.
    let coherence_ns = net(l.classify) + net(l.access) + net(l.evaluate) + l.est_tracker_ns;
    let exact = l.access.calls > 0;
    for (name, spans, replay) in [
        ("coherence.classify_ns", l.classify, l.replay.classify),
        ("coherence.access_ns", l.access, l.replay.access),
        ("coherence.evaluate_ns", l.evaluate, l.replay.evaluate),
    ] {
        let value = if exact {
            per(spans, spans.calls)
        } else {
            replay.per_call()
        };
        metric(&mut m, name, value, "ns");
    }
    let shares = [
        ("coherence.share", coherence_ns / traced),
        ("core.share", core_ns / traced),
        ("interconnect.share", l.est_interconnect_ns / traced),
        ("sim.queue_share", l.est_queue_ns / traced),
        ("cache.share", l.est_cache_ns / traced),
        ("sim.build_share", l.sim_build.ns as f64 / traced),
        (
            "engine.tracing_share",
            timed_calls as f64 * clock_ns / traced,
        ),
    ];
    let attributed: f64 = shares.iter().map(|(_, s)| s).sum();
    for (name, share) in shares {
        metric(&mut m, name, share, "ratio");
    }
    metric(&mut m, "sim.unattributed_share", 1.0 - attributed, "ratio");
    metric(&mut m, "engine.clock_ns", clock_ns, "ns");
    metric(&mut m, "trace.records_per_s", records_per_s, "1/s");
    metric(&mut m, "trace.partition_s", inputs.partition_s, "s");
    metric(
        &mut m,
        "core.predict_ns",
        per(l.predict, l.predict.calls),
        "ns",
    );
    metric(
        &mut m,
        "core.train_ns",
        per(l.train, l.counts.train_events),
        "ns",
    );
    metric(
        &mut m,
        "interconnect.send_ns",
        l.replay.send.per_call(),
        "ns",
    );
    metric(&mut m, "sim.queue_op_ns", l.replay.queue.per_call(), "ns");
    metric(&mut m, "cache.op_ns", l.replay.cache.per_call(), "ns");
    metric(&mut m, "sim.build_s", l.sim_build.ns as f64 / 1e9, "s");
    let counters = counters(l, inputs.records);
    for c in &counters {
        let unit = match c.name.as_str() {
            "sim.runtime_ns" | "sim.avg_miss_latency_ns" => "ns",
            "sim.bytes_per_miss" => "B",
            "sim.indirection_pct" | "analysis.indirection_pct" => "%",
            "core.sufficient_first_ratio" => "ratio",
            _ => "count",
        };
        if !matches!(
            c.name.as_str(),
            "engine.cells" | "engine.misses" | "trace.records"
        ) {
            metric(&mut m, &c.name, c.value, unit);
        }
    }
    metric(&mut m, "engine.traced_s", traced / 1e9, "s");
    metric(&mut m, "engine.untraced_s", untraced_s, "s");
    metric(
        &mut m,
        "engine.tracing_overhead_s",
        traced / 1e9 - untraced_s,
        "s",
    );
    metric(&mut m, "engine.cell_p50_ms", median_of(&cell_ms), "ms");
    metric(
        &mut m,
        "engine.cell_max_ms",
        cell_ms.iter().copied().fold(0.0, f64::max),
        "ms",
    );
    metric(
        &mut m,
        "engine.parallel_efficiency",
        serial_s / (nproc() as f64 * parallel_s),
        "ratio",
    );
    metric(&mut m, "engine.cached_traces", cached as f64, "count");

    let fleet_metrics = if kind == Kind::Fleet {
        let dir = out_dir().join(format!("fleet-{}-traced", std::process::id()));
        match fleet::run(seed, &dir, true) {
            Ok(run) => {
                let (_, plan) = &plans[0];
                gate.attempted += plan.cells.len() as u64;
                if render(plan, &untimed[0]).as_deref() != Some(run.report.csv.as_str()) {
                    gate.fail(
                        plan.cells.len() as u64,
                        "fleet table differs from serial".into(),
                    );
                }
                if !run.report.reconciled {
                    gate.fail(1, "fleet ledger did not reconcile".into());
                }
                let c = run.report.counters;
                [
                    c.leases_granted as f64,
                    c.cells_stolen as f64,
                    c.leases_expired as f64,
                    median_of(&run.status_ms),
                    serial_s / run.sweep_s,
                    run.journal_bytes as f64,
                ]
            }
            Err(e) => {
                gate.fail(1, e);
                [0.0; 6]
            }
        }
    } else {
        [0.0; 6]
    };
    for ((name, unit), value) in [
        ("fleet.leases_granted", "count"),
        ("fleet.cells_stolen", "count"),
        ("fleet.leases_expired", "count"),
        ("fleet.status_p50_ms", "ms"),
        ("fleet.speedup_vs_serial", "ratio"),
        ("fleet.journal_bytes", "B"),
    ]
    .into_iter()
    .zip(fleet_metrics)
    {
        metric(&mut m, name, value, unit);
    }
    Traced {
        metrics: m,
        counters,
        digests,
        spans: spans.spans,
        passes: samples,
    }
}

/// Compares counters with the recorded reference; returns the names
/// that changed.
fn check_counters(
    gate: &mut Gate,
    expected: Option<&Expected>,
    counters: &[Counter],
) -> Vec<String> {
    let Some(expected) = expected else {
        return Vec::new();
    };
    let mut changed = Vec::new();
    for want in &expected.counters {
        let got = counters.iter().find(|c| c.name == want.name);
        if got.map(|c| c.value.to_bits()) == Some(want.value.to_bits()) {
            continue;
        }
        let got = got.map_or(f64::NAN, |c| c.value);
        changed.push(want.name.clone());
        let message = format!(
            "behaviour change: {} = {got}, reference {}",
            want.name, want.value
        );
        if MODEL_COUNTERS.contains(&want.name.as_str()) {
            gate.fail(1, message);
        } else {
            println!("  {message}");
        }
    }
    changed
}

fn write_expected() -> Result<(), String> {
    let mut all = Vec::new();
    for kind in Kind::ALL {
        for seed in [experiments::SEED, HELD_OUT_SEED] {
            let mut gate = Gate::default();
            let traced = trace_run(kind, seed, 0.0, &mut gate);
            if gate.failed > 0 {
                return Err(format!("{} seed {seed}: {:?}", kind.name(), gate.failures));
            }
            all.push(Expected {
                workload: kind.name().to_string(),
                seed,
                digests: traced.digests,
                counters: traced.counters,
            });
        }
    }
    // The file the gate compiles in; rebuild to check against it.
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("expected.json");
    let text = serde_json::to_string_pretty(&all).map_err(|e| e.to_string())?;
    std::fs::write(&path, text + "\n").map_err(|e| e.to_string())?;
    println!("wrote {}", path.display());
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.write_expected {
        return match write_expected() {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let kind = args.workload.expect("checked in parse_args");
    if let Err(e) = std::fs::create_dir_all(out_dir()) {
        eprintln!("perfbench: cannot create {}: {e}", out_dir().display());
        return ExitCode::FAILURE;
    }
    let host = Host::probe();
    let mut gate = Gate::default();

    let mut metrics = BTreeMap::new();
    let (timings, samples, counters, changed, digests, spans);
    if args.trace {
        let traced = trace_run(kind, args.seed, args.seconds, &mut gate);
        let expected = expected_for(kind.name(), args.seed);
        check_expected(&mut gate, expected.as_ref(), &traced.digests);
        changed = check_counters(&mut gate, expected.as_ref(), &traced.counters);
        metrics = traced.metrics;
        (counters, digests, spans, samples) =
            (traced.counters, traced.digests, traced.spans, traced.passes);
        timings = Vec::new();
    } else {
        let measured = measure(kind, args.seed, args.seconds, &mut gate);
        for (name, value, unit) in &measured.reported {
            metric(&mut metrics, name, *value, unit);
        }
        (timings, samples, digests) = (measured.timings, measured.rounds, measured.digests);
        (counters, changed, spans) = (Vec::new(), Vec::new(), Vec::new());
    }

    // After measuring, so its allocations stay out of `peak_rss_mb`.
    self_test(&mut gate);
    let error_rate = gate.failed as f64 / gate.attempted.max(1) as f64;
    println!(
        "workload {}  seed {}  {} run  {} samples  nproc {}",
        kind.name(),
        args.seed,
        if args.trace { "traced" } else { "untraced" },
        samples,
        host.nproc
    );
    for (name, m) in &metrics {
        println!("  {name:<32} {:>16.6} {}", m.value, m.unit);
    }
    println!(
        "  {:<32} {:>16.6} ratio  ({} of {} cells failed)",
        "error_rate", error_rate, gate.failed, gate.attempted
    );
    for failure in &gate.failures {
        println!("  FAILED: {failure}");
    }
    let record = RunRecord {
        schema_version: SCHEMA_VERSION,
        host,
        workload: kind.name().to_string(),
        seed: args.seed,
        scale: kind.scale_info(),
        traced: args.trace,
        samples,
        correct: gate.failed == 0,
        attempted: gate.attempted,
        failed: gate.failed,
        error_rate,
        failures: gate.failures.clone(),
        timings,
        metrics: metrics.clone(),
        counters,
        changed_counters: changed,
        digests,
        spans,
    };
    let path = out_dir().join(format!(
        "{}-seed{}-{}.json",
        kind.name(),
        args.seed,
        if args.trace { "traced" } else { "untraced" }
    ));
    if let Err(e) = record.write(&path) {
        eprintln!("perfbench: cannot write {}: {e}", path.display());
        gate.failed += 1;
    }
    let outcome = Outcome {
        correct: gate.failed == 0,
        attempted: gate.attempted,
        failed: gate.failed,
        metrics,
    };
    println!(
        "{}",
        serde_json::to_string(&outcome).expect("outcome serializes")
    );
    if gate.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
