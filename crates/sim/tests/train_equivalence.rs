//! Eager-vs-lazy training equivalence.
//!
//! The lazy training path (per-node inboxes drained before each
//! predictor observation) must be *observationally identical* to the
//! seed eager path (one queued `RequestArrive` event per destination):
//! training order only matters at the points where predictor state is
//! read. These tests machine-check that claim two ways:
//!
//! 1. **Prediction/training sequences**: every predictor is wrapped in
//!    a recording decorator; for each node, the full ordered sequence
//!    of `predict` calls (query + returned set) and `train` events must
//!    match between the two modes — including ties, where a buffered
//!    arrival and a queued event share a timestamp and the virtual
//!    sequence number decides.
//! 2. **Reports**: the measured `SimReport` (runtime, traffic,
//!    latencies, retries, ...) and the tracker statistics must be
//!    equal, so the experiment goldens cannot drift.
//!
//! The property tests sweep protocols (every policy family, both
//! multicast and predictive-directory), node counts from 4 to 256,
//! both set widths (`System<1>` at the paper's 16 nodes, as production
//! runs it; `System<4>` for the wide machines), CPU models, and seeds.

use std::sync::{Arc, Mutex};

use proptest::prelude::*;

use dsp_core::{Capacity, DestSetPredictor, Indexing, PredictQuery, PredictorConfig, TrainEvent};
use dsp_sim::{CpuModel, ProtocolKind, SimConfig, System, TargetSystem, TrainingMode};
use dsp_trace::{Workload, WorkloadSpec};
use dsp_types::{DestSet, SystemConfig};

/// One recorded predictor observation.
#[derive(Clone, Debug, PartialEq)]
enum Call<const W: usize> {
    Predict(PredictQuery<W>, DestSet<W>),
    Train(TrainEvent<W>),
}

/// One node's shared observation log.
type CallLog<const W: usize> = Arc<Mutex<Vec<Call<W>>>>;

/// Decorator that logs every call and delegates to the wrapped policy.
/// `train_batch` is inherited from the trait default, so batched drains
/// log exactly like the eager per-event calls they replace.
#[derive(Debug)]
struct Recorder<const W: usize> {
    inner: Box<dyn DestSetPredictor<W>>,
    log: CallLog<W>,
}

impl<const W: usize> DestSetPredictor<W> for Recorder<W> {
    fn predict(&mut self, query: &PredictQuery<W>) -> DestSet<W> {
        let result = self.inner.predict(query);
        self.log.lock().unwrap().push(Call::Predict(*query, result));
        result
    }

    fn train(&mut self, event: &TrainEvent<W>) {
        self.log.lock().unwrap().push(Call::Train(*event));
        self.inner.train(event);
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

/// Runs one simulation at set width `W` in `mode` with recording
/// predictors, returning the report and each node's observation
/// sequence.
fn run_recorded<const W: usize>(
    sys: &SystemConfig,
    spec: &WorkloadSpec,
    sim: SimConfig,
    mode: TrainingMode,
) -> (dsp_sim::SimReport, Vec<Vec<Call<W>>>) {
    let mut system = System::<W>::new(
        sys,
        TargetSystem::isca03_default(),
        spec,
        sim.training(mode),
    );
    let logs: Arc<Mutex<Vec<CallLog<W>>>> = Arc::default();
    {
        let logs = Arc::clone(&logs);
        system.instrument_predictors(move |_, inner| {
            let log = Arc::new(Mutex::new(Vec::new()));
            logs.lock().unwrap().push(Arc::clone(&log));
            Box::new(Recorder { inner, log })
        });
    }
    let report = system.run();
    let calls: Vec<Vec<Call<W>>> = logs
        .lock()
        .unwrap()
        .iter()
        .map(|l| l.lock().unwrap().clone())
        .collect();
    (report, calls)
}

/// Asserts both modes agree for one configuration at set width `W`.
fn check_equivalence<const W: usize>(sys: &SystemConfig, spec: &WorkloadSpec, sim: SimConfig) {
    let (eager_report, eager_calls) =
        run_recorded::<W>(sys, spec, sim.clone(), TrainingMode::Eager);
    let (lazy_report, lazy_calls) = run_recorded::<W>(sys, spec, sim.clone(), TrainingMode::Lazy);
    assert_eq!(
        eager_report, lazy_report,
        "reports diverged for {:?}",
        sim.protocol
    );
    assert_eq!(eager_calls.len(), lazy_calls.len());
    for (node, (eager, lazy)) in eager_calls.iter().zip(&lazy_calls).enumerate() {
        assert_eq!(eager.len(), lazy.len(), "node {node}: call count diverged");
        for (i, (a, b)) in eager.iter().zip(lazy).enumerate() {
            assert_eq!(
                a, b,
                "node {node}: observation {i} diverged under {:?}",
                sim.protocol
            );
        }
    }
}

fn predictor_strategy() -> impl Strategy<Value = PredictorConfig> {
    prop_oneof![
        Just(PredictorConfig::owner().indexing(Indexing::Macroblock { bytes: 1024 })),
        Just(PredictorConfig::group().indexing(Indexing::Macroblock { bytes: 1024 })),
        Just(PredictorConfig::owner_group().indexing(Indexing::Macroblock { bytes: 1024 })),
        Just(PredictorConfig::broadcast_if_shared()),
        Just(PredictorConfig::sticky_spatial(1)),
        Just(
            PredictorConfig::group()
                .indexing(Indexing::ProgramCounter)
                .entries(Capacity::Finite {
                    entries: 512,
                    ways: 2
                })
        ),
        Just(PredictorConfig::always_minimal()),
        Just(PredictorConfig::always_broadcast()),
        Just(PredictorConfig::random(0xdead_beef)),
    ]
}

fn protocol_strategy() -> impl Strategy<Value = ProtocolKind> {
    prop_oneof![
        predictor_strategy().prop_map(ProtocolKind::Multicast),
        predictor_strategy().prop_map(ProtocolKind::Multicast),
        predictor_strategy().prop_map(ProtocolKind::Multicast),
        predictor_strategy().prop_map(ProtocolKind::DirectoryPredicted),
    ]
}

fn workload_strategy() -> impl Strategy<Value = Workload> {
    prop_oneof![
        Just(Workload::Oltp),
        Just(Workload::Apache),
        Just(Workload::BarnesHut),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The paper's 16-node machine across protocols, policies,
    /// workloads, CPU models, and seeds, at the single-word width
    /// production runs it with.
    #[test]
    fn isca03_machines_match(
        protocol in protocol_strategy(),
        workload in workload_strategy(),
        seed in 1u64..1000,
        detailed in prop_oneof![Just(false), Just(true)],
        warmup in prop_oneof![Just(0usize), Just(30usize)],
    ) {
        let sys = SystemConfig::isca03();
        let spec = WorkloadSpec::preset(workload, &sys).scaled(1.0 / 256.0);
        let cpu = if detailed {
            CpuModel::Detailed { max_outstanding: 4 }
        } else {
            CpuModel::Simple
        };
        let sim = SimConfig::new(protocol).cpu(cpu).misses(warmup, 120).seed(seed);
        check_equivalence::<1>(&sys, &spec, sim);
    }

    /// Wide machines up to the 256-node scaling study: fan-out past
    /// one `DestSet` word, heavier inbox pressure (bursts spill past
    /// the inline ring).
    #[test]
    fn wide_machines_match(
        protocol in protocol_strategy(),
        nodes in prop_oneof![
            Just(4usize),
            Just(32usize),
            Just(64usize),
            Just(128usize),
            Just(256usize)
        ],
        seed in 1u64..500,
    ) {
        let sys = SystemConfig::builder().num_nodes(nodes).build().expect("valid");
        let spec = WorkloadSpec::preset(Workload::Oltp, &sys).scaled(1.0 / 256.0);
        // Recorded training grows with nodes × fan-out per miss, so
        // the 128- and 256-node machines run shorter windows.
        let (warmup, measured) = if nodes > 64 { (2, 5) } else { (10, 60) };
        let sim = SimConfig::new(protocol).misses(warmup, measured).seed(seed);
        check_equivalence::<4>(&sys, &spec, sim);
    }
}

/// The always-minimal multicast forces reissues and broadcast
/// fallbacks: the retained eager `Reissue` path must interleave with
/// drained `OtherRequest` records correctly.
#[test]
fn reissue_heavy_runs_match() {
    let sys = SystemConfig::isca03();
    let spec = WorkloadSpec::preset(Workload::Oltp, &sys).scaled(1.0 / 256.0);
    for seed in [3u64, 11, 42] {
        let sim = SimConfig::new(ProtocolKind::Multicast(PredictorConfig::always_minimal()))
            .misses(50, 300)
            .seed(seed);
        check_equivalence::<4>(&sys, &spec, sim);
    }
    // Sticky-Spatial is the one policy that trains on reissues.
    let sim = SimConfig::new(ProtocolKind::Multicast(PredictorConfig::sticky_spatial(1)))
        .misses(50, 300)
        .seed(7);
    check_equivalence::<4>(&sys, &spec, sim);
}

/// Protocols without predictors are untouched by the training mode.
#[test]
fn predictor_free_protocols_are_identical() {
    let sys = SystemConfig::isca03();
    let spec = WorkloadSpec::preset(Workload::Oltp, &sys).scaled(1.0 / 256.0);
    for protocol in [ProtocolKind::Snooping, ProtocolKind::Directory] {
        let mk = |mode| {
            let sim = SimConfig::new(protocol)
                .misses(50, 200)
                .seed(5)
                .training(mode);
            System::<4>::new(&sys, TargetSystem::isca03_default(), &spec, sim).run()
        };
        assert_eq!(mk(TrainingMode::Eager), mk(TrainingMode::Lazy));
    }
}
