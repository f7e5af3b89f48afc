//! The traced run: the same cells as the untraced pass, with timers
//! placed around the public calls into each layer.
//!
//! * Trace-driven cells replay `TradeoffEvaluator::run` /
//!   `run_baselines` call by call, timing every tracker, policy and
//!   predictor call; the replayed point must equal the untimed one.
//! * Timing-sim cells build each `System` themselves, wrap every node's
//!   predictor in a timer through `System::instrument_predictors`, and
//!   run with `run_with_queue_stats`; the aggregated `SimReport`s must
//!   equal the untimed ones.
//! * Layers the simulator calls internally — the tracker, the
//!   interconnect, the timing wheel, the L2 caches — cannot be timed
//!   from outside. Their cost per operation is measured by replaying
//!   each layer's public API on a stream derived from the cell's own
//!   partition, then multiplied by the run's operation counts. These
//!   figures are estimates and are labelled so.
//!
//! Per-call timings are accumulated in memory as a count and a total
//! per layer; cells and simulations are recorded as individual spans.

use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use dsp_analysis::{RuntimePoint, TradeoffPoint};
use dsp_bench::engine::{Cell, ExperimentPlan};
use dsp_cache::SetAssocCache;
use dsp_coherence::{multicast, CoherenceTracker, MissInfo};
use dsp_core::{DestSetPredictor, PredictQuery, PredictorConfig, TrainEvent};
use dsp_interconnect::{Arrivals, Message, Topology, TopologySpec, ToxicSpec};
use dsp_sim::{
    Event, ProtocolKind, QueueCounters, SimConfig, SimReport, System, TargetSystem, TracePartition,
    WheelQueue,
};
use dsp_trace::{TraceRecord, WorkloadSpec};
use dsp_types::{DestSet, LineState, MessageClass, Owner, ReqType, SystemConfig};

use crate::report::Span;
use crate::workloads::{cell_spec, Inputs, PassOutputs};

/// Calls into one layer: how many, and their total duration.
#[derive(Clone, Copy, Debug, Default)]
pub struct Acc {
    /// Calls timed.
    pub calls: u64,
    /// Total ns inside them.
    pub ns: u64,
}

impl Acc {
    fn add(&mut self, since: Instant) {
        self.calls += 1;
        self.ns += since.elapsed().as_nanos() as u64;
    }

    /// Mean ns per call (0 with no calls).
    pub fn per_call(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.ns as f64 / self.calls as f64
        }
    }
}

/// Times one call into a layer.
fn timed<T>(acc: &mut Acc, call: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let out = call();
    acc.add(t);
    out
}

/// Times `ops` operations run in one loop (no clock inside the loop).
fn bulk<T>(acc: &mut Acc, ops: u64, run: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let out = run();
    acc.ns += t.elapsed().as_nanos() as u64;
    acc.calls += ops;
    out
}

/// The clock overhead inside one per-call span: the fastest mean of
/// batches of empty spans.
pub fn clock_cost_ns() -> f64 {
    (0..5)
        .map(|_| {
            let mut acc = Acc::default();
            for _ in 0..100_000 {
                timed(&mut acc, || ());
            }
            acc.per_call()
        })
        .fold(f64::INFINITY, f64::min)
}

/// Per-operation costs measured by replaying, in bulk, the layers the
/// simulator calls internally (estimates when applied to a simulation).
#[derive(Clone, Copy, Debug, Default)]
pub struct ReplayCost {
    /// `CoherenceTracker::classify`.
    pub classify: Acc,
    /// `CoherenceTracker::access`.
    pub access: Acc,
    /// `multicast::evaluate`.
    pub evaluate: Acc,
    /// `CoherenceTracker::state`.
    pub state: Acc,
    /// `CoherenceTracker::evict` (one per L2 victim).
    pub evict: Acc,
    /// `SetAssocCache::fill`, `set_state` and `invalidate`.
    pub cache: Acc,
    /// `Topology::send_into`.
    pub send: Acc,
    /// Destinations the replayed sends reached.
    pub deliveries: u64,
    /// `WheelQueue::push` and `pop`.
    pub queue: Acc,
    /// Misses replayed.
    pub misses: u64,
    /// Blocks the replayed tracker ends up tracking.
    pub tracked_blocks: u64,
}

impl ReplayCost {
    /// Estimated tracker ns for `misses` simulated misses (`access`,
    /// `state` and the L2 victims' `evict`, plus one `classify` per
    /// attempt when multicast).
    fn tracker_ns(&self, misses: f64, attempts: f64, multicast: bool) -> f64 {
        let evict_per_miss = self.evict.ns as f64 / self.misses.max(1) as f64;
        let classify = if multicast {
            attempts * self.classify.per_call()
        } else {
            0.0
        };
        misses * (self.access.per_call() + self.state.per_call() + evict_per_miss) + classify
    }

    fn cache_ns(&self, misses: f64) -> f64 {
        misses * self.cache.ns as f64 / self.misses.max(1) as f64
    }

    fn send_ns(&self, deliveries: f64) -> f64 {
        deliveries * self.send.ns as f64 / self.deliveries.max(1) as f64
    }
}

/// Everything the traced run accumulates across a workload's cells.
#[derive(Debug, Default)]
pub struct Layers {
    /// Exact spans (trace-driven cells): tracker classify.
    pub classify: Acc,
    /// Exact spans: tracker access.
    pub access: Acc,
    /// Exact spans: protocol accounting (`multicast::*`).
    pub evaluate: Acc,
    /// Predictor `predict` calls (exact: spans or the sim wrapper).
    pub predict: Acc,
    /// Predictor training calls (exact: spans or the sim wrapper).
    pub train: Acc,
    /// `System::with_partition`.
    pub sim_build: Acc,
    /// Replayed per-operation costs, summed over cells.
    pub replay: ReplayCost,
    /// Estimated tracker ns inside simulations.
    pub est_tracker_ns: f64,
    /// Estimated L2 ns inside simulations.
    pub est_cache_ns: f64,
    /// Estimated interconnect ns inside simulations.
    pub est_interconnect_ns: f64,
    /// Estimated timing-wheel ns inside simulations.
    pub est_queue_ns: f64,
    /// Traced compute ns: every replayed cell (trace-driven) or every
    /// system build plus run (timing sim).
    pub traced_ns: u64,
    /// Exact work counts.
    pub counts: Counts,
}

/// Exact, hardware-independent work counts of the traced run.
#[derive(Debug, Default)]
pub struct Counts {
    /// Cells executed.
    pub cells: u64,
    /// Misses processed, warm-up included.
    pub misses: u64,
    /// Misses processed by predictor cells or multicast simulations.
    pub predictor_misses: u64,
    /// Measured misses of predictor cells or multicast simulations.
    pub predictor_measured: u64,
    /// Training events the predictors received.
    pub train_events: u64,
    /// Of those, misses whose first destination set was insufficient.
    pub insufficient_first: u64,
    /// Request-class deliveries of predictor cells or multicast sims.
    pub request_messages: u64,
    /// Indirections of predictor cells or multicast sims.
    pub indirections: u64,
    /// Simulations run.
    pub sims: u64,
    /// Misses simulated, warm-up included.
    pub sim_misses: u64,
    /// Measured misses of every simulation.
    pub sim_measured: u64,
    /// Timing-wheel pops (events dispatched).
    pub events: u64,
    /// Far-future events promoted into the wheel.
    pub promoted: u64,
    /// Messages injected into the interconnect (measured window).
    pub messages: u64,
    /// Simulated runtime, summed over simulations (ns).
    pub runtime_ns: u64,
    /// Summed measured miss latency (simulated ns).
    pub latency_ns: u64,
    /// Endpoint bytes (measured window).
    pub bytes: u64,
    /// Indirections, every simulation.
    pub sim_indirections: u64,
    /// Retries, every simulation.
    pub retries: u64,
    /// Largest block table a tracker reached.
    pub tracked_blocks: u64,
}

/// Span recorder: spans measured from one origin.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    /// Recorded spans.
    pub spans: Vec<Span>,
}

impl Spans {
    /// A recorder whose times count from now.
    pub fn new() -> Self {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Opens a span and returns its index.
    pub fn open(&mut self, name: &str, detail: String, parent: Option<usize>) -> usize {
        let now = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name: name.to_string(),
            detail,
            parent,
            start_ns: now,
            end_ns: now,
        });
        self.spans.len() - 1
    }

    /// Closes span `index` and returns its duration in ns.
    pub fn close(&mut self, index: usize) -> u64 {
        let now = self.origin.elapsed().as_nanos() as u64;
        let span = &mut self.spans[index];
        span.end_ns = now;
        now - span.start_ns
    }
}

/// Replays every cell of `plan` with timers, checking each result
/// against the untimed output of the same cell. Returns one message
/// per mismatching cell.
pub fn trace_plan(
    plan: &ExperimentPlan,
    name: &str,
    inputs: &Inputs,
    untimed: &PassOutputs,
    layers: &mut Layers,
    spans: &mut Spans,
) -> Vec<String> {
    let mut failures = Vec::new();
    let plan_span = spans.open("plan", name.to_string(), None);
    for (i, cell) in plan.cells.iter().enumerate() {
        let expected = match &untimed[i] {
            Ok(output) => output,
            Err(_) => continue, // already counted as failed
        };
        let span = spans.open("cell", cell.summary(), Some(plan_span));
        let same = match cell {
            Cell::Baselines { config, .. } => {
                let got = replay_baselines(config, plan, inputs.trace(cell, plan), layers);
                let (s, d) = expected.baselines();
                (&got.0, &got.1) == (s, d)
            }
            Cell::Tradeoff {
                config, predictor, ..
            } => {
                let got =
                    replay_tradeoff(config, plan, inputs.trace(cell, plan), predictor, layers);
                &got == expected.tradeoff()
            }
            Cell::Runtime { .. } => {
                let got = trace_runtime(cell, plan, inputs, layers, spans, span, &mut failures);
                got == expected.runtime()
            }
            _ => {
                failures.push(format!("{name}: cell kind not traced: {}", cell.summary()));
                true
            }
        };
        let ns = spans.close(span);
        if !matches!(cell, Cell::Runtime { .. }) {
            layers.traced_ns += ns;
        }
        layers.counts.cells += 1;
        if !same {
            failures.push(format!(
                "{name}: traced result differs from untraced: {}",
                cell.summary()
            ));
        }
    }
    spans.close(plan_span);
    failures
}

fn empty_point(label: String) -> TradeoffPoint {
    TradeoffPoint {
        label,
        misses: 0,
        request_messages: 0,
        indirections: 0,
        insufficient_first: 0,
        cache_to_cache: 0,
        predictor_storage_bits: 0,
    }
}

/// `TradeoffEvaluator::run_baselines`, call by call.
fn replay_baselines(
    config: &SystemConfig,
    plan: &ExperimentPlan,
    trace: &[TraceRecord],
    l: &mut Layers,
) -> (TradeoffPoint, TradeoffPoint) {
    let n = config.num_nodes();
    let warmup = plan.scale.trace_warmup;
    let mut tracker: CoherenceTracker = CoherenceTracker::new(config);
    let mut snoop = empty_point("Broadcast Snooping".to_string());
    let mut dir = empty_point("Directory".to_string());
    for (i, rec) in trace.iter().enumerate() {
        let info = timed(&mut l.access, || {
            tracker.access(rec.requester, rec.request(), rec.block())
        });
        if i < warmup {
            continue;
        }
        let s = timed(&mut l.evaluate, || multicast::snooping(&info, n));
        let d = timed(&mut l.evaluate, || multicast::directory(&info));
        for (point, outcome) in [(&mut snoop, s), (&mut dir, d)] {
            point.misses += 1;
            point.request_messages += outcome.request_messages;
            point.indirections += u64::from(outcome.indirection);
            point.cache_to_cache += u64::from(info.is_cache_to_cache());
        }
    }
    l.counts.misses += trace.len() as u64;
    l.counts.tracked_blocks = l.counts.tracked_blocks.max(tracker.tracked_blocks() as u64);
    (snoop, dir)
}

/// `TradeoffEvaluator::run`, call by call.
fn replay_tradeoff(
    config: &SystemConfig,
    plan: &ExperimentPlan,
    trace: &[TraceRecord],
    predictor: &PredictorConfig,
    l: &mut Layers,
) -> TradeoffPoint {
    let n = config.num_nodes();
    let warmup = plan.scale.trace_warmup;
    let mut predictors: Vec<Box<dyn DestSetPredictor>> =
        (0..n).map(|_| predictor.build(config)).collect();
    let mut tracker: CoherenceTracker = CoherenceTracker::new(config);
    let mut point = empty_point(predictor.label());
    let trains_before = l.train.calls;
    for (i, rec) in trace.iter().enumerate() {
        let info = timed(&mut l.classify, || {
            tracker.classify(rec.requester, rec.request(), rec.block())
        });
        let query = PredictQuery {
            block: rec.block(),
            pc: rec.pc,
            requester: rec.requester,
            req: rec.request(),
            minimal: info.minimal_set(),
        };
        let requester = &mut predictors[rec.requester.index()];
        let predicted = timed(&mut l.predict, || requester.predict(&query));
        let outcome = timed(&mut l.evaluate, || multicast::evaluate(&info, predicted));
        if i >= warmup {
            point.misses += 1;
            point.request_messages += outcome.request_messages;
            point.indirections += u64::from(outcome.indirection);
            point.insufficient_first += u64::from(!outcome.sufficient_first);
            point.cache_to_cache += u64::from(info.is_cache_to_cache());
        }
        let mut delivered = (predicted | info.minimal_set()).without(rec.requester);
        if !outcome.sufficient_first {
            let corrected = info.sufficient_set();
            delivered |= corrected.without(info.home);
            let event = TrainEvent::Reissue {
                block: rec.block(),
                corrected,
            };
            let requester = &mut predictors[rec.requester.index()];
            timed(&mut l.train, || requester.train(&event));
        }
        let external = TrainEvent::OtherRequest {
            block: rec.block(),
            requester: rec.requester,
            req: rec.request(),
        };
        for node in delivered.without(rec.requester) {
            let observer = &mut predictors[node.index()];
            timed(&mut l.train, || observer.train(&external));
        }
        let response = TrainEvent::DataResponse {
            block: rec.block(),
            pc: rec.pc,
            responder: info.owner_before,
            req: rec.request(),
            minimal_sufficient: info.is_sufficient(info.minimal_set()),
        };
        let requester = &mut predictors[rec.requester.index()];
        timed(&mut l.train, || requester.train(&response));
        timed(&mut l.access, || {
            tracker.access(rec.requester, rec.request(), rec.block())
        });
    }
    point.predictor_storage_bits = predictors.iter().map(|p| p.storage_bits()).sum();
    let c = &mut l.counts;
    c.train_events += l.train.calls - trains_before;
    c.misses += trace.len() as u64;
    c.predictor_misses += trace.len() as u64;
    c.predictor_measured += point.misses;
    c.insufficient_first += point.insufficient_first;
    c.request_messages += point.request_messages;
    c.indirections += point.indirections;
    c.tracked_blocks = c.tracked_blocks.max(tracker.tracked_blocks() as u64);
    point
}

/// Shared tallies of every wrapped predictor in one traced run.
#[derive(Debug, Default)]
struct PredictorClock {
    predict_calls: AtomicU64,
    predict_ns: AtomicU64,
    train_calls: AtomicU64,
    train_events: AtomicU64,
    train_ns: AtomicU64,
}

/// A predictor wrapper that times every call and delegates unchanged.
#[derive(Debug)]
struct Timed<const W: usize> {
    inner: Box<dyn DestSetPredictor<W>>,
    clock: Arc<PredictorClock>,
}

impl<const W: usize> DestSetPredictor<W> for Timed<W> {
    fn predict(&mut self, query: &PredictQuery<W>) -> DestSet<W> {
        let t = Instant::now();
        let set = self.inner.predict(query);
        let ns = t.elapsed().as_nanos() as u64;
        self.clock.predict_ns.fetch_add(ns, Ordering::Relaxed);
        self.clock.predict_calls.fetch_add(1, Ordering::Relaxed);
        set
    }

    fn train(&mut self, event: &TrainEvent<W>) {
        let t = Instant::now();
        self.inner.train(event);
        let ns = t.elapsed().as_nanos() as u64;
        self.clock.train_ns.fetch_add(ns, Ordering::Relaxed);
        self.clock.train_calls.fetch_add(1, Ordering::Relaxed);
        self.clock.train_events.fetch_add(1, Ordering::Relaxed);
    }

    fn train_batch(&mut self, events: &[TrainEvent<W>]) {
        let t = Instant::now();
        self.inner.train_batch(events);
        let ns = t.elapsed().as_nanos() as u64;
        self.clock.train_ns.fetch_add(ns, Ordering::Relaxed);
        self.clock.train_calls.fetch_add(1, Ordering::Relaxed);
        self.clock
            .train_events
            .fetch_add(events.len() as u64, Ordering::Relaxed);
    }

    fn name(&self) -> String {
        self.inner.name()
    }

    fn entry_payload_bits(&self) -> u64 {
        self.inner.entry_payload_bits()
    }

    fn storage_bits(&self) -> u64 {
        self.inner.storage_bits()
    }
}

/// Builds, instruments and runs one simulation.
fn run_system<const W: usize>(
    config: &SystemConfig,
    target: TargetSystem,
    spec: &WorkloadSpec,
    sim: SimConfig,
    partition: TracePartition,
    clock: &Arc<PredictorClock>,
    l: &mut Layers,
) -> (SimReport, QueueCounters) {
    let uses_predictors = sim.protocol.uses_predictors();
    let t = Instant::now();
    let mut system = System::<W>::with_partition(config, target, spec, sim, partition);
    l.sim_build.add(t);
    if uses_predictors {
        system.instrument_predictors(|_, inner| {
            Box::new(Timed {
                inner,
                clock: Arc::clone(clock),
            })
        });
    }
    system.run_with_queue_stats()
}

/// The simulations a runtime cell runs, in `RuntimeEvaluator` order:
/// snooping, directory, then the cell's own protocols.
fn cell_protocols(cell: &Cell) -> Vec<ProtocolKind> {
    let Cell::Runtime { protocols, .. } = cell else {
        panic!("not a runtime cell: {}", cell.summary());
    };
    let mut all = vec![ProtocolKind::Snooping, ProtocolKind::Directory];
    all.extend(protocols.iter().copied());
    all
}

/// The machine a runtime cell simulates.
fn cell_target(cell: &Cell) -> TargetSystem {
    match cell {
        Cell::Runtime {
            target: Some(target),
            ..
        } => *target,
        _ => TargetSystem::isca03_default(),
    }
}

/// Repetition `run` of `protocol` in a runtime cell, configured as
/// `RuntimeEvaluator` configures it for the sweep engine.
fn sim_config(cell: &Cell, plan: &ExperimentPlan, protocol: ProtocolKind, run: usize) -> SimConfig {
    let Cell::Runtime {
        cpu,
        toxics,
        topology,
        ..
    } = cell
    else {
        unreachable!("runtime cell");
    };
    let scale = &plan.scale;
    SimConfig::new(protocol)
        .cpu(*cpu)
        .misses(scale.sim_warmup, scale.sim_measured)
        .seed(plan.seed + run as u64 * 7919)
        .training(plan.training)
        .width(plan.width)
        .dispatch(plan.dispatch)
        .toxics(toxics.clone().unwrap_or_else(|| plan.toxics.clone()))
        .topology(topology.unwrap_or(plan.topology))
}

/// Adds one repetition to a protocol's total, as `RuntimeEvaluator`
/// sums them.
fn accumulate(total: &mut SimReport, rep: &SimReport) {
    total.runtime_ns += rep.runtime_ns;
    total.measured_misses += rep.measured_misses;
    total.instructions += rep.instructions;
    total.traffic.merge(&rep.traffic);
    total.indirections += rep.indirections;
    total.retries += rep.retries;
    total.broadcast_fallbacks += rep.broadcast_fallbacks;
    total.cache_to_cache += rep.cache_to_cache;
    total.total_miss_latency_ns += rep.total_miss_latency_ns;
    total.latency_histogram.merge(&rep.latency_histogram);
    total.class_counts.merge(&rep.class_counts);
}

/// Normalizes per-protocol totals (snooping first, directory second)
/// into points, as `RuntimeEvaluator::run_partitioned` does.
fn runtime_points(reports: Vec<(String, SimReport)>) -> Vec<RuntimePoint> {
    let dir_runtime = reports[1].1.runtime_ns.max(1) as f64;
    let snoop_traffic = reports[0].1.bytes_per_miss().max(1e-9);
    reports
        .into_iter()
        .map(|(label, report)| RuntimePoint {
            normalized_runtime: 100.0 * report.runtime_ns as f64 / dir_runtime,
            normalized_traffic: 100.0 * report.bytes_per_miss() / snoop_traffic,
            label,
            report,
        })
        .collect()
}

fn deliveries(report: &SimReport) -> u64 {
    MessageClass::ALL
        .iter()
        .map(|&c| report.traffic.class(c).deliveries)
        .sum()
}

/// Runs one timing-sim cell with every simulation instrumented, and
/// returns its points for comparison with the untimed run.
fn trace_runtime(
    cell: &Cell,
    plan: &ExperimentPlan,
    inputs: &Inputs,
    l: &mut Layers,
    spans: &mut Spans,
    parent: usize,
    failures: &mut Vec<String>,
) -> Vec<RuntimePoint> {
    let Cell::Runtime {
        config,
        toxics,
        topology,
        ..
    } = cell
    else {
        unreachable!("runtime cell");
    };
    let scale = &plan.scale;
    let spec = cell_spec(cell, plan);
    let target = cell_target(cell);
    let toxics = toxics.clone().unwrap_or_else(|| plan.toxics.clone());
    let topology = topology.unwrap_or(plan.topology);
    let parts = inputs.partitions(cell, plan);
    let runs = parts.len();
    let nodes = config.num_nodes();
    let misses_per_run = (nodes * (scale.sim_warmup + scale.sim_measured)) as u64;

    // Layer costs, replayed on this cell's own partition.
    let replay_span = spans.open("replay", cell.summary(), Some(parent));
    let cost = if plan.width.words(nodes) == 1 {
        replay_layers::<1>(
            config, &target, &topology, &toxics, plan.seed, &parts[0], failures,
        )
    } else {
        replay_layers::<4>(
            config, &target, &topology, &toxics, plan.seed, &parts[0], failures,
        )
    };
    spans.close(replay_span);
    add_replay(&mut l.replay, &cost);
    l.counts.tracked_blocks = l.counts.tracked_blocks.max(cost.tracked_blocks);

    let protocols = cell_protocols(cell);
    let mut reports = Vec::with_capacity(protocols.len());
    for protocol in &protocols {
        let clock = Arc::new(PredictorClock::default());
        let mut total = SimReport::default();
        for (r, partition) in parts.iter().enumerate() {
            let sim = sim_config(cell, plan, *protocol, r);
            let span = spans.open("sim", protocol.label(), Some(parent));
            let (rep, queue) = if sim.width.words(nodes) == 1 {
                run_system::<1>(config, target, &spec, sim, partition.clone(), &clock, l)
            } else {
                run_system::<4>(config, target, &spec, sim, partition.clone(), &clock, l)
            };
            l.traced_ns += spans.close(span);
            if queue.pushed != queue.popped + queue.remaining {
                failures.push(format!("queue counters do not reconcile: {queue:?}"));
            }
            let multicast = matches!(protocol, ProtocolKind::Multicast(_));
            let measured = rep.measured_misses.max(1) as f64;
            let scale_up = misses_per_run as f64 / measured;
            let attempts = misses_per_run as f64 + rep.retries as f64 * scale_up;
            l.est_tracker_ns += cost.tracker_ns(misses_per_run as f64, attempts, multicast);
            l.est_cache_ns += cost.cache_ns(misses_per_run as f64);
            l.est_interconnect_ns += cost.send_ns(deliveries(&rep) as f64 * scale_up);
            l.est_queue_ns += (queue.pushed + queue.popped) as f64 * cost.queue.per_call();
            let c = &mut l.counts;
            c.sims += 1;
            c.misses += misses_per_run;
            c.sim_misses += misses_per_run;
            c.sim_measured += rep.measured_misses;
            c.events += queue.popped;
            c.promoted += queue.promoted;
            c.messages += rep.traffic.total_messages();
            c.runtime_ns += rep.runtime_ns;
            c.latency_ns += rep.total_miss_latency_ns;
            c.bytes += rep.traffic.total_bytes();
            c.sim_indirections += rep.indirections;
            c.retries += rep.retries;
            if multicast {
                c.predictor_misses += misses_per_run;
                c.predictor_measured += rep.measured_misses;
                c.insufficient_first += rep.retries - rep.broadcast_fallbacks;
                c.request_messages += rep.traffic.request_deliveries();
                c.indirections += rep.indirections;
            }
            accumulate(&mut total, &rep);
        }
        total.runtime_ns /= runs as u64;
        l.predict.calls += clock.predict_calls.load(Ordering::Relaxed);
        l.predict.ns += clock.predict_ns.load(Ordering::Relaxed);
        l.train.calls += clock.train_calls.load(Ordering::Relaxed);
        l.train.ns += clock.train_ns.load(Ordering::Relaxed);
        l.counts.train_events += clock.train_events.load(Ordering::Relaxed);
        reports.push((protocol.label(), total));
    }

    runtime_points(reports)
}

fn add_replay(sum: &mut ReplayCost, cost: &ReplayCost) {
    for (a, b) in [
        (&mut sum.classify, cost.classify),
        (&mut sum.access, cost.access),
        (&mut sum.evaluate, cost.evaluate),
        (&mut sum.state, cost.state),
        (&mut sum.evict, cost.evict),
        (&mut sum.cache, cost.cache),
        (&mut sum.send, cost.send),
        (&mut sum.queue, cost.queue),
    ] {
        a.calls += b.calls;
        a.ns += b.ns;
    }
    sum.deliveries += cost.deliveries;
    sum.misses += cost.misses;
}

/// The per-node programs interleaved round-robin: the order in which
/// an all-nodes-busy system would see their misses.
fn interleave(partition: &TracePartition) -> Vec<TraceRecord> {
    let programs = partition.per_node();
    let longest = programs.iter().map(Vec::len).max().unwrap_or(0);
    let mut stream = Vec::with_capacity(programs.iter().map(Vec::len).sum());
    for i in 0..longest {
        for program in programs {
            if let Some(rec) = program.get(i) {
                stream.push(*rec);
            }
        }
    }
    stream
}

/// Replays the tracker, L2, interconnect and timing-wheel APIs over a
/// miss stream in the simulator's per-miss pattern, one layer per
/// loop, timing each loop as a whole so no clock sits inside it:
/// classify and apply each miss, fill the requester's L2 and drop or
/// downgrade the other copies, multicast the request to its sufficient
/// set and return the data, and schedule and dispatch three events.
/// Checks link conservation and queue reconciliation at the end.
fn replay_stream<const W: usize>(
    config: &SystemConfig,
    target: &TargetSystem,
    topology: &TopologySpec,
    toxics: &ToxicSpec,
    seed: u64,
    stream: &[TraceRecord],
    failures: &mut Vec<String>,
) -> ReplayCost {
    let m = stream.len() as u64;
    let mut c = ReplayCost {
        misses: m,
        ..ReplayCost::default()
    };

    // Tracker: `access` alone, then `classify` + `access`; the
    // difference is `classify`.
    let mut tracker: CoherenceTracker<W> = CoherenceTracker::new(config);
    bulk(&mut c.access, m, || {
        for rec in stream {
            black_box(tracker.access(rec.requester, rec.request(), rec.block()));
        }
    });
    let mut tracker: CoherenceTracker<W> = CoherenceTracker::new(config);
    let mut both = Acc::default();
    let infos: Vec<MissInfo<W>> = bulk(&mut both, m, || {
        stream
            .iter()
            .map(|rec| {
                let info = tracker.classify(rec.requester, rec.request(), rec.block());
                tracker.access(rec.requester, rec.request(), rec.block());
                info
            })
            .collect()
    });
    c.classify = Acc {
        calls: m,
        ns: both.ns.saturating_sub(c.access.ns),
    };
    c.tracked_blocks = tracker.tracked_blocks() as u64;
    bulk(&mut c.state, m, || {
        for rec in stream {
            black_box(tracker.state(rec.block()));
        }
    });
    bulk(&mut c.evaluate, m, || {
        for info in &infos {
            black_box(multicast::evaluate(info, info.minimal_set()));
        }
    });

    // L2: fill the requester, invalidate or downgrade the other copies.
    let mut caches: Vec<SetAssocCache> = (0..config.num_nodes())
        .map(|_| SetAssocCache::new(target.l2))
        .collect();
    let mut victims = Vec::new();
    let t = Instant::now();
    let mut ops = 0u64;
    for info in &infos {
        let (requester, block) = (info.requester, info.block);
        let line = match info.req {
            ReqType::GetExclusive => LineState::Modified,
            ReqType::GetShared => LineState::Shared,
        };
        if let Some(victim) = caches[requester.index()].fill(block, line) {
            victims.push((requester, victim.block));
        }
        ops += 1;
        let owner = match info.owner_before {
            Owner::Node(o) if o != requester => Some(o),
            _ => None,
        };
        match info.req {
            ReqType::GetExclusive => {
                for node in info.sharers_before.into_iter().chain(owner) {
                    black_box(caches[node.index()].invalidate(block));
                    ops += 1;
                }
            }
            ReqType::GetShared => {
                if let Some(o) = owner {
                    black_box(caches[o.index()].set_state(block, LineState::Owned));
                    ops += 1;
                }
            }
        }
    }
    c.cache = Acc {
        calls: ops,
        ns: t.elapsed().as_nanos() as u64,
    };
    bulk(&mut c.evict, victims.len() as u64, || {
        for (node, block) in &victims {
            black_box(tracker.evict(*node, *block));
        }
    });

    // Interconnect: each miss's request multicast and data response,
    // injected in time order.
    let mut sends: Vec<(u64, Message<W>)> = Vec::with_capacity(2 * infos.len());
    for (i, info) in infos.iter().enumerate() {
        let now = 4 * i as u64;
        let dests = (info.sufficient_set() | info.minimal_set()).without(info.requester);
        let responder = match info.owner_before {
            Owner::Node(o) if o != info.requester => o,
            _ => info.home,
        };
        c.deliveries += dests.len() as u64 + 1;
        sends.push((
            now,
            Message {
                src: info.requester,
                dests,
                class: MessageClass::Request,
            },
        ));
        sends.push((
            now + 130,
            Message {
                src: responder,
                dests: DestSet::single(info.requester),
                class: MessageClass::DataResponse,
            },
        ));
    }
    sends.sort_by_key(|(at, _)| *at);
    let mut xbar = Topology::new(
        target.interconnect,
        config.num_nodes(),
        topology,
        toxics,
        seed,
    );
    let mut arrivals = Arrivals::new();
    bulk(&mut c.send, sends.len() as u64, || {
        for (at, message) in &sends {
            black_box(xbar.send_into(*at, message, &mut arrivals));
        }
    });
    if !xbar.link_stats().is_reconciled() {
        failures.push("replayed interconnect does not conserve messages".to_string());
    }

    // Timing wheel: three events per miss at L2-lookup, ordering and
    // completion offsets, dispatched as they come due.
    let mut queue = WheelQueue::new();
    bulk(&mut c.queue, 6 * m, || {
        for (i, rec) in stream.iter().enumerate() {
            let now = 4 * i as u64;
            let node = rec.requester.index();
            for at in [now + target.l2_access_ns, now + 50, now + 180] {
                queue.push(at, Event::CpuIssue { node });
            }
            for _ in 0..3 {
                black_box(queue.pop());
            }
        }
    });
    let q = queue.counters();
    if q.pushed != q.popped + q.remaining {
        failures.push(format!("replayed queue counters do not reconcile: {q:?}"));
    }
    c
}

fn replay_layers<const W: usize>(
    config: &SystemConfig,
    target: &TargetSystem,
    topology: &TopologySpec,
    toxics: &ToxicSpec,
    seed: u64,
    partition: &TracePartition,
    failures: &mut Vec<String>,
) -> ReplayCost {
    let stream = interleave(partition);
    replay_stream::<W>(config, target, topology, toxics, seed, &stream, failures)
}

/// Per-operation costs of the simulator-internal layers on a
/// trace-driven workload's own traces (16-node crossbar). The workload
/// never calls these layers, so their shares stay zero; the costs are
/// recorded so each layer has a per-operation figure on every workload.
pub fn replay_traces(inputs: &Inputs, l: &mut Layers, failures: &mut Vec<String>) {
    let config = SystemConfig::isca03();
    let target = TargetSystem::isca03_default();
    for trace in inputs.traces() {
        let cost = replay_stream::<1>(
            &config,
            &target,
            &TopologySpec::Crossbar,
            &ToxicSpec::none(),
            0,
            trace,
            failures,
        );
        add_replay(&mut l.replay, &cost);
    }
}
