//! Target-system parameters (paper Table 4) and simulation configuration.

use serde::{Deserialize, Serialize};

use dsp_cache::CacheConfig;
use dsp_core::PredictorConfig;
use dsp_interconnect::{InterconnectConfig, TopologySpec, ToxicSpec};

/// The simulated machine of paper Table 4: per-node latencies, link
/// parameters, cache geometry, and processor speed.
///
/// The paper derives three end-to-end latencies from these parameters,
/// which [`TargetSystem::memory_latency_ns`] and friends reproduce:
///
/// * 180 ns to obtain a block from memory (50 + 80 + 50),
/// * 112 ns for a direct cache-to-cache transfer (50 + 12 + 50),
/// * 242 ns for an indirected transfer (50 + 80 + 50 + 12 + 50).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct TargetSystem {
    /// Unified L2 access latency in ns (12 in Table 4).
    pub l2_access_ns: u64,
    /// Memory (and co-located directory) access latency in ns (80).
    pub mem_access_ns: u64,
    /// Crossbar link/traversal parameters.
    pub interconnect: InterconnectConfig,
    /// L2 cache geometry (4 MB, 4-way).
    pub l2: CacheConfig,
    /// Core clock in GHz (2.0).
    pub clock_ghz: f64,
    /// Sustained IPC between misses (2.0: "four billion instructions
    /// per second if the L1 caches were perfect" on a 2 GHz core).
    pub ipc: f64,
}

impl TargetSystem {
    /// The paper's target system.
    pub fn isca03_default() -> Self {
        TargetSystem {
            l2_access_ns: 12,
            mem_access_ns: 80,
            interconnect: InterconnectConfig::isca03(),
            l2: CacheConfig::isca03_l2(),
            clock_ghz: 2.0,
            ipc: 2.0,
        }
    }

    /// Nanoseconds to execute one instruction when not missing.
    pub fn ns_per_instruction(&self) -> f64 {
        1.0 / (self.clock_ghz * self.ipc)
    }

    /// Uncontended memory-fetch latency (~180 ns).
    pub fn memory_latency_ns(&self) -> u64 {
        self.interconnect.traversal_ns + self.mem_access_ns + self.interconnect.traversal_ns
    }

    /// Uncontended direct cache-to-cache latency (~112 ns): snooping and
    /// successful multicast requests.
    pub fn cache_direct_latency_ns(&self) -> u64 {
        self.interconnect.traversal_ns + self.l2_access_ns + self.interconnect.traversal_ns
    }

    /// Uncontended indirected cache-to-cache latency (~242 ns):
    /// directory 3-hop transfers and multicast reissues.
    pub fn cache_indirect_latency_ns(&self) -> u64 {
        self.interconnect.traversal_ns
            + self.mem_access_ns
            + self.interconnect.traversal_ns
            + self.l2_access_ns
            + self.interconnect.traversal_ns
    }
}

impl Default for TargetSystem {
    fn default() -> Self {
        TargetSystem::isca03_default()
    }
}

/// Processor model driving each node (paper §5.2).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum CpuModel {
    /// "Simple, in-order, blocking processor model": one outstanding
    /// miss at a time.
    Simple,
    /// Simplified dynamically-scheduled core: overlaps up to
    /// `max_outstanding` misses, standing in for the paper's TFsim
    /// configuration (64-entry ROB, 4-wide).
    Detailed {
        /// Maximum overlapped misses (miss-level parallelism).
        max_outstanding: usize,
    },
}

impl CpuModel {
    /// The issue window width this model permits.
    pub fn window(self) -> usize {
        match self {
            CpuModel::Simple => 1,
            CpuModel::Detailed { max_outstanding } => max_outstanding.max(1),
        }
    }
}

/// Which coherence protocol the system runs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ProtocolKind {
    /// MOSI broadcast snooping over the totally ordered crossbar.
    Snooping,
    /// Bandwidth-efficient MOSI directory protocol in the style of the
    /// AlphaServer GS320 (no explicit acks thanks to total order).
    Directory,
    /// Multicast snooping driven by the given destination-set predictor.
    Multicast(PredictorConfig),
    /// Directory protocol with owner prediction (the Acacio-style
    /// hybrid cited by the paper's introduction): the request is sent to
    /// the home *and* a predicted set; a covered owner replies directly,
    /// turning the 3-hop indirection into a 2-hop transfer.
    DirectoryPredicted(PredictorConfig),
}

impl ProtocolKind {
    /// Display label for reports.
    pub fn label(&self) -> String {
        match self {
            ProtocolKind::Snooping => "Broadcast Snooping".to_string(),
            ProtocolKind::Directory => "Directory".to_string(),
            ProtocolKind::Multicast(p) => format!("Multicast [{}]", p.label()),
            ProtocolKind::DirectoryPredicted(p) => {
                format!("Predictive Directory [{}]", p.label())
            }
        }
    }

    /// Whether nodes carry destination-set predictors under this
    /// protocol.
    pub fn uses_predictors(&self) -> bool {
        matches!(
            self,
            ProtocolKind::Multicast(_) | ProtocolKind::DirectoryPredicted(_)
        )
    }
}

/// How the simulator delivers request-arrival training to the
/// destination-set predictors.
///
/// Training is only *observable* at a predictor's next call (a
/// prediction, a response/reissue training, or end-of-run state), so
/// the two modes are behaviorally identical — property tests in
/// `tests/train_equivalence.rs` pin every predictor call sequence and
/// every report byte against each other.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum TrainingMode {
    /// The seed path: one queued [`crate::Event::RequestArrive`] per
    /// request destination, trained when the event fires. Kept as the
    /// reference implementation the equivalence tests compare against.
    Eager,
    /// The production path: request arrivals append to allocation-free
    /// per-node inboxes and are drained — in the exact (time, sequence)
    /// order the eager path would have applied — immediately before the
    /// node's next predictor observation. The event wheel carries
    /// O(misses) events instead of O(misses × destinations).
    #[default]
    Lazy,
}

/// Inert placeholder for the deleted event-dispatch knob.
///
/// The simulator has one run loop — pop one event, dispatch it — and
/// nothing branches on this type. It survives only because `perfbench`
/// still calls `.dispatch(plan.dispatch)`; the next benchmark change
/// (ROADMAP open item 1) deletes it together with
/// [`SimConfig::dispatch`], `RuntimeEvaluator::dispatch` and the
/// `ExperimentPlan::dispatch` field.
#[derive(Clone, Copy, Debug)]
pub struct DispatchMode;

/// Compile-time destination-set width selection for a timing
/// simulation.
///
/// The simulator is monomorphized over the [`dsp_types::DestSet`]
/// word count `W`: machines of at most 64 nodes fit every set in one
/// word (`DestSet<1>`), which removes the multi-word loops and the
/// upper-words-zero checks from the tracker, crossbar, and predictor
/// hot paths. Width is *observationally invisible* — the golden suite
/// pins every table byte-identical under both widths.
///
/// The [`SetWidth::Auto`] rule in [`SetWidth::words`] is also how the
/// trace-driven evaluators in `dsp_analysis` pick their width from the
/// node count; the `Narrow`/`Wide` overrides reach timing simulations
/// only.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SetWidth {
    /// Pick from the node count: ≤ 64 nodes runs `DestSet<1>`, larger
    /// machines `DestSet<4>`.
    #[default]
    Auto,
    /// Force the single-word monomorphization (requires ≤ 64 nodes).
    Narrow,
    /// Force the four-word monomorphization (any node count up to 256).
    Wide,
}

impl SetWidth {
    /// The `DestSet` word count this selection resolves to on a
    /// machine of `num_nodes` nodes.
    pub fn words(self, num_nodes: usize) -> usize {
        match self {
            SetWidth::Auto => {
                if num_nodes <= 64 {
                    1
                } else {
                    4
                }
            }
            SetWidth::Narrow => 1,
            SetWidth::Wide => 4,
        }
    }
}

/// One timing-simulation run: protocol, CPU model, and run lengths.
#[derive(Clone, Debug, PartialEq)]
pub struct SimConfig {
    /// Protocol to simulate.
    pub protocol: ProtocolKind,
    /// Processor model.
    pub cpu: CpuModel,
    /// Misses per node simulated before measurement starts (warms
    /// caches, coherence state, and predictors).
    pub warmup_misses_per_node: usize,
    /// Misses per node in the measurement window.
    pub measured_misses_per_node: usize,
    /// RNG seed (trace generation and computation-gap draws).
    pub seed: u64,
    /// Predictor-training delivery (lazy inboxes by default; the eager
    /// per-arrival events survive as the reference).
    pub training: TrainingMode,
    /// Destination-set width selection, honored by the width-dispatch
    /// entry points ([`crate::simulate`] and friends). `System::<W>`
    /// constructors ignore it — the turbofish already chose.
    pub width: SetWidth,
    /// Interconnect fault-injection chain (empty by default, which
    /// keeps the crossbar on its untouched fast path). Toxic streams
    /// are seeded from [`SimConfig::seed`], independently of the trace
    /// and gap-draw streams.
    pub toxics: ToxicSpec,
    /// Network shape (the paper's crossbar by default).
    pub topology: TopologySpec,
}

impl SimConfig {
    /// A reasonable default: simple CPU, snooping, 500 + 2000 misses per
    /// node.
    pub fn new(protocol: ProtocolKind) -> Self {
        SimConfig {
            protocol,
            cpu: CpuModel::Simple,
            warmup_misses_per_node: 500,
            measured_misses_per_node: 2000,
            seed: 1,
            training: TrainingMode::default(),
            width: SetWidth::default(),
            toxics: ToxicSpec::none(),
            topology: TopologySpec::Crossbar,
        }
    }

    /// Sets the CPU model.
    #[must_use]
    pub fn cpu(mut self, cpu: CpuModel) -> Self {
        self.cpu = cpu;
        self
    }

    /// Sets warmup and measured miss counts per node.
    #[must_use]
    pub fn misses(mut self, warmup: usize, measured: usize) -> Self {
        self.warmup_misses_per_node = warmup;
        self.measured_misses_per_node = measured;
        self
    }

    /// Sets the seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Selects the training-delivery mode.
    #[must_use]
    pub fn training(mut self, training: TrainingMode) -> Self {
        self.training = training;
        self
    }

    /// Returns `self` unchanged; see [`DispatchMode`].
    #[must_use]
    pub fn dispatch(self, _: DispatchMode) -> Self {
        self
    }

    /// Selects the destination-set width.
    #[must_use]
    pub fn width(mut self, width: SetWidth) -> Self {
        self.width = width;
        self
    }

    /// Sets the interconnect fault-injection chain.
    #[must_use]
    pub fn toxics(mut self, toxics: ToxicSpec) -> Self {
        self.toxics = toxics;
        self
    }

    /// Selects the network shape.
    #[must_use]
    pub fn topology(mut self, topology: TopologySpec) -> Self {
        self.topology = topology;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_latencies_match_paper() {
        let t = TargetSystem::isca03_default();
        assert_eq!(t.memory_latency_ns(), 180);
        assert_eq!(t.cache_direct_latency_ns(), 112);
        assert_eq!(t.cache_indirect_latency_ns(), 242);
    }

    #[test]
    fn instruction_rate_is_four_gips() {
        let t = TargetSystem::isca03_default();
        assert!((t.ns_per_instruction() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn cpu_windows() {
        assert_eq!(CpuModel::Simple.window(), 1);
        assert_eq!(CpuModel::Detailed { max_outstanding: 4 }.window(), 4);
        assert_eq!(CpuModel::Detailed { max_outstanding: 0 }.window(), 1);
    }

    #[test]
    fn protocol_labels() {
        assert_eq!(ProtocolKind::Snooping.label(), "Broadcast Snooping");
        assert_eq!(ProtocolKind::Directory.label(), "Directory");
        assert!(ProtocolKind::Multicast(PredictorConfig::group())
            .label()
            .contains("Group"));
    }

    #[test]
    fn sim_config_builder() {
        let c = SimConfig::new(ProtocolKind::Snooping)
            .cpu(CpuModel::Detailed { max_outstanding: 4 })
            .misses(100, 400)
            .seed(9);
        assert_eq!(c.warmup_misses_per_node, 100);
        assert_eq!(c.measured_misses_per_node, 400);
        assert_eq!(c.seed, 9);
        assert_eq!(c.cpu.window(), 4);
        assert_eq!(c.training, TrainingMode::Lazy, "lazy is the default");
        let c = c.training(TrainingMode::Eager);
        assert_eq!(c.training, TrainingMode::Eager);
    }
}
