//! The benchmark's workloads: their experiment plans, the inputs
//! set-up builds for them, and the single-thread pass that executes
//! their cells on those inputs through the same public calls the sweep
//! engine makes.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

use dsp_analysis::{characterize_trace, RuntimeEvaluator, TradeoffEvaluator};
use dsp_bench::engine::{Cell, CellOutput, ExperimentPlan};
use dsp_bench::{experiments, Scale};
use dsp_sim::TracePartition;
use dsp_trace::{TraceRecord, Workload, WorkloadSpec};
use dsp_types::SystemConfig;

use crate::report::{digest, ScaleInfo};

/// A benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Trace-driven Figures 5–6 sweep (tracker + predictor tables).
    Tradeoff,
    /// Figures 7–8 timing simulation on the 16-node crossbar.
    Timing,
    /// Quick-scale scaling-experiment cells swept by an in-process fleet.
    Fleet,
}

impl Kind {
    /// Every workload, in documentation order.
    pub const ALL: [Kind; 3] = [Kind::Tradeoff, Kind::Timing, Kind::Fleet];

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Tradeoff => "tradeoff",
            Kind::Timing => "timing",
            Kind::Fleet => "fleet",
        }
    }

    /// Run size. The tradeoff traces use the standard footprint, where
    /// the tracker's block table and the 16 nodes' 8192-entry predictor
    /// tables outgrow a 2 MiB per-core L2, at an eighth of the standard
    /// trace length so one sweep takes well under a second.
    pub fn scale(self) -> Scale {
        match self {
            Kind::Tradeoff => Scale {
                footprint: 1.0 / 8.0,
                trace_warmup: 12_000,
                trace_measured: 48_000,
                ..Scale::quick()
            },
            Kind::Timing => Scale {
                footprint: 1.0 / 8.0,
                sim_warmup: 200,
                sim_measured: 1_000,
                sim_runs: 1,
                ..Scale::quick()
            },
            Kind::Fleet => Scale::quick(),
        }
    }

    /// The workload's plans, named, with their seed set.
    pub fn plans(self, seed: u64) -> Vec<(&'static str, ExperimentPlan)> {
        let scale = self.scale();
        let plans = match self {
            Kind::Tradeoff => vec![
                ("fig5", experiments::fig5_plan(&scale)),
                ("fig6a", experiments::fig6a_plan(&scale)),
                ("fig6b", experiments::fig6b_plan(&scale)),
                ("fig6c", experiments::fig6c_plan(&scale)),
            ],
            Kind::Timing => vec![
                ("fig7", experiments::fig7_plan(&scale)),
                ("fig8", experiments::fig8_plan(&scale)),
            ],
            Kind::Fleet => vec![(FLEET_EXPERIMENT, fleet_plan(seed))],
        };
        plans
            .into_iter()
            .map(|(name, mut plan)| {
                plan.seed = seed;
                (name, plan)
            })
            .collect()
    }

    /// The run size as recorded in results.
    pub fn scale_info(self) -> ScaleInfo {
        let s = self.scale();
        ScaleInfo {
            footprint: s.footprint,
            trace_warmup: s.trace_warmup,
            trace_measured: s.trace_measured,
            sim_warmup: s.sim_warmup,
            sim_measured: s.sim_measured,
            sim_runs: s.sim_runs,
        }
    }
}

/// The named experiment the fleet sweeps: 27 quick-scale cells from 8
/// to 256 nodes, trace-driven and timing-simulated, of very unequal
/// size, so lease sizing and tail stealing decide the sweep time.
pub const FLEET_EXPERIMENT: &str = "scaling";
/// Scale preset name the fleet's workers are told.
pub const FLEET_SCALE: &str = "quick";

/// The fleet's plan: the scaling experiment at quick scale under
/// `seed`.
pub fn fleet_plan(seed: u64) -> ExperimentPlan {
    let mut plan = experiments::scaling_plan(&Scale::quick());
    plan.seed = seed;
    plan
}

/// Identity of one generated input: everything a trace or a partition
/// set depends on within one plan.
#[derive(Clone, Copy, Debug, PartialEq)]
struct InputKey {
    workload: Workload,
    config: SystemConfig,
    footprint_bits: u64,
    seed: u64,
    len: usize,
    runs: usize,
}

/// The prebuilt inputs of a set of plans.
#[derive(Debug, Default)]
pub struct Inputs {
    traces: Vec<(InputKey, Arc<[TraceRecord]>)>,
    partitions: Vec<(InputKey, Vec<TracePartition>)>,
    /// Seconds spent in `TracePartition::build`.
    pub partition_s: f64,
    /// Trace records generated (trace-driven inputs only).
    pub records: u64,
}

fn trace_key(cell: &Cell, plan: &ExperimentPlan) -> Option<InputKey> {
    let scale = &plan.scale;
    match cell {
        Cell::Characterize { config, workload }
        | Cell::Baselines { config, workload }
        | Cell::Tradeoff {
            config, workload, ..
        } => Some(InputKey {
            workload: *workload,
            config: *config,
            footprint_bits: scale.footprint.to_bits(),
            seed: plan.seed,
            len: scale.trace_warmup + scale.trace_measured,
            runs: 0,
        }),
        _ => None,
    }
}

fn partition_key(cell: &Cell, plan: &ExperimentPlan) -> Option<InputKey> {
    let scale = &plan.scale;
    match cell {
        Cell::Runtime {
            config, workload, ..
        } => Some(InputKey {
            workload: *workload,
            config: *config,
            footprint_bits: scale.footprint.to_bits(),
            seed: plan.seed,
            len: scale.sim_warmup + scale.sim_measured,
            runs: scale.sim_runs.max(1),
        }),
        _ => None,
    }
}

/// The evaluator of a runtime cell, configured as the sweep engine's
/// `execute_cell` configures it.
pub fn evaluator(cell: &Cell, plan: &ExperimentPlan) -> RuntimeEvaluator {
    let Cell::Runtime {
        config,
        cpu,
        target,
        toxics,
        topology,
        ..
    } = cell
    else {
        panic!("not a runtime cell: {}", cell.summary());
    };
    let scale = &plan.scale;
    let eval = RuntimeEvaluator::new(config)
        .cpu(*cpu)
        .misses(scale.sim_warmup, scale.sim_measured)
        .runs(scale.sim_runs)
        .seed(plan.seed)
        .training(plan.training)
        .width(plan.width)
        .dispatch(plan.dispatch)
        .toxics(toxics.clone().unwrap_or_else(|| plan.toxics.clone()))
        .topology(topology.unwrap_or(plan.topology));
    match target {
        Some(target) => eval.target(*target),
        None => eval,
    }
}

/// The workload spec a cell draws its misses from.
pub fn cell_spec(cell: &Cell, plan: &ExperimentPlan) -> WorkloadSpec {
    let workload = cell.workload().expect("trace or runtime cell");
    let config = cell.config().expect("trace or runtime cell");
    WorkloadSpec::preset(workload, &config).scaled(plan.scale.footprint)
}

impl Inputs {
    /// Generates every distinct trace and partition set `plans` need —
    /// the benchmark's set-up, timed by phase.
    pub fn build<'a>(plans: impl IntoIterator<Item = &'a ExperimentPlan>) -> Inputs {
        let mut inputs = Inputs::default();
        for plan in plans {
            for cell in &plan.cells {
                if let Some(key) = trace_key(cell, plan) {
                    if inputs.traces.iter().all(|(k, _)| *k != key) {
                        let spec = cell_spec(cell, plan);
                        let trace: Arc<[TraceRecord]> =
                            spec.generator(key.seed).take(key.len).collect();
                        inputs.records += trace.len() as u64;
                        inputs.traces.push((key, trace));
                    }
                }
                if let Some(key) = partition_key(cell, plan) {
                    if inputs.partitions.iter().all(|(k, _)| *k != key) {
                        let spec = cell_spec(cell, plan);
                        let t = Instant::now();
                        let parts = evaluator(cell, plan).partitions(&spec);
                        inputs.partition_s += t.elapsed().as_secs_f64();
                        inputs.partitions.push((key, parts));
                    }
                }
            }
        }
        inputs
    }

    /// The trace a trace-driven cell replays.
    pub fn trace(&self, cell: &Cell, plan: &ExperimentPlan) -> &[TraceRecord] {
        let key = trace_key(cell, plan).expect("trace-driven cell");
        self.traces
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, t)| &t[..])
            .expect("trace built in set-up")
    }

    /// The partitions a runtime cell replays, one per repetition.
    pub fn partitions(&self, cell: &Cell, plan: &ExperimentPlan) -> &[TracePartition] {
        let key = partition_key(cell, plan).expect("runtime cell");
        self.partitions
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, p)| &p[..])
            .expect("partitions built in set-up")
    }

    /// Every distinct trace, for the layer replays.
    pub fn traces(&self) -> impl Iterator<Item = &[TraceRecord]> {
        self.traces.iter().map(|(_, t)| &t[..])
    }
}

/// Misses one cell processes, warm-up included.
pub fn cell_misses(cell: &Cell, plan: &ExperimentPlan) -> u64 {
    let s = &plan.scale;
    match cell {
        Cell::Characterize { .. } | Cell::Baselines { .. } | Cell::Tradeoff { .. } => {
            (s.trace_warmup + s.trace_measured) as u64
        }
        Cell::Runtime {
            config, protocols, ..
        } => {
            let sims = 2 + protocols.len();
            (sims * s.sim_runs.max(1) * config.num_nodes() * (s.sim_warmup + s.sim_measured)) as u64
        }
        Cell::Verify { .. } => 0,
    }
}

/// Executes one cell on prebuilt inputs through the calls the sweep
/// engine's `execute_cell` makes.
pub fn execute(cell: &Cell, plan: &ExperimentPlan, inputs: &Inputs) -> CellOutput {
    let scale = &plan.scale;
    match cell {
        Cell::Characterize { config, .. } => {
            let spec = cell_spec(cell, plan);
            CellOutput::Characterization(Box::new(characterize_trace(
                inputs.trace(cell, plan).iter().copied(),
                spec.name(),
                spec.misses_per_kilo_instr(),
                config,
                scale.trace_warmup,
            )))
        }
        Cell::Baselines { config, .. } => {
            let eval = TradeoffEvaluator::new(config).warmup(scale.trace_warmup);
            let (snooping, directory) =
                eval.run_baselines(inputs.trace(cell, plan).iter().copied());
            CellOutput::Baselines {
                snooping,
                directory,
            }
        }
        Cell::Tradeoff {
            config, predictor, ..
        } => {
            let eval = TradeoffEvaluator::new(config).warmup(scale.trace_warmup);
            CellOutput::Tradeoff(eval.run(inputs.trace(cell, plan).iter().copied(), predictor))
        }
        Cell::Runtime { protocols, .. } => {
            let points = evaluator(cell, plan).run_partitioned(
                &cell_spec(cell, plan),
                protocols,
                inputs.partitions(cell, plan),
            );
            CellOutput::Runtime(points)
        }
        Cell::Verify { .. } => panic!("model-checking cells are not benchmarked"),
    }
}

/// One plan's outputs from the single-thread pass; a cell that
/// panicked holds its message instead.
pub type PassOutputs = Vec<Result<CellOutput, String>>;

/// Runs every cell of `plan` on one thread, in plan order.
pub fn single_pass(plan: &ExperimentPlan, inputs: &Inputs) -> PassOutputs {
    plan.cells
        .iter()
        .map(|cell| {
            catch_unwind(AssertUnwindSafe(|| execute(cell, plan, inputs))).map_err(panic_message)
        })
        .collect()
}

/// The text of a caught panic.
pub fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "panic".to_string())
}

/// Digest of one cell output's serialized form.
pub fn output_digest(output: &CellOutput) -> String {
    digest(
        serde_json::to_string(output)
            .expect("cell outputs serialize")
            .as_bytes(),
    )
}
