//! Workload characterization: paper Table 2 and Figures 2–4.

use std::collections::HashMap;

use serde::{Deserialize, Serialize};

use dsp_coherence::CoherenceTracker;
use dsp_sim::SetWidth;
use dsp_trace::{TraceRecord, WorkloadSpec};
use dsp_types::{DestSet, ReqType, SystemConfig};

/// Histogram of how many *other* processors must observe each miss
/// (paper Figure 2), split by read/write. Bins: 0, 1, 2, 3+.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SharingHistogram {
    /// Read (GETS) misses per bin.
    pub reads: [u64; 4],
    /// Write (GETX) misses per bin.
    pub writes: [u64; 4],
}

impl SharingHistogram {
    fn bin(observers: usize) -> usize {
        observers.min(3)
    }

    /// Total misses recorded.
    pub fn total(&self) -> u64 {
        self.reads.iter().sum::<u64>() + self.writes.iter().sum::<u64>()
    }

    /// Percentage of all misses in `bin` for reads / writes.
    pub fn percent(&self, bin: usize) -> (f64, f64) {
        let total = self.total().max(1) as f64;
        (
            100.0 * self.reads[bin] as f64 / total,
            100.0 * self.writes[bin] as f64 / total,
        )
    }
}

/// One entity's (block / macroblock / PC) cache-to-cache miss count,
/// used to build the locality CDFs of Figure 4.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct LocalityCdf {
    /// Cache-to-cache miss counts per entity, descending.
    counts: Vec<u64>,
    total: u64,
}

impl LocalityCdf {
    fn from_counts(mut counts: Vec<u64>) -> Self {
        counts.sort_unstable_by(|a, b| b.cmp(a));
        let total = counts.iter().sum();
        LocalityCdf { counts, total }
    }

    /// Number of distinct entities with at least one c2c miss.
    pub fn entities(&self) -> usize {
        self.counts.len()
    }

    /// Cumulative percentage of cache-to-cache misses covered by the
    /// hottest `k` entities (the y-value of Figure 4 at x = `k`).
    pub fn percent_covered_by(&self, k: usize) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let covered: u64 = self.counts.iter().take(k).sum();
        100.0 * covered as f64 / self.total as f64
    }
}

/// Everything the paper reports about a workload's sharing behavior
/// (Table 2 and Figures 2–4), measured over one generated trace.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct CharacterizationReport {
    /// Workload name.
    pub workload: String,
    /// Misses measured (post-warmup).
    pub misses: u64,
    /// Distinct 64 B blocks touched (Table 2 column 2).
    pub blocks_touched: u64,
    /// Distinct 1024 B macroblocks touched (column 3).
    pub macroblocks_touched: u64,
    /// Distinct miss PCs (column 4).
    pub static_pcs: u64,
    /// Misses per 1000 instructions (column 6; from the workload spec).
    pub misses_per_kilo_instr: f64,
    /// Misses that would indirect in a directory protocol (column 7).
    pub directory_indirections: u64,
    /// Misses whose data came from another cache.
    pub cache_to_cache: u64,
    /// Figure 2.
    pub sharing: SharingHistogram,
    /// Figure 3(a): blocks touched by exactly `d` processors
    /// (`degree_blocks[d]`, d in 1..=n).
    pub degree_blocks: Vec<u64>,
    /// Figure 3(b): misses to blocks touched by exactly `d` processors.
    pub degree_misses: Vec<u64>,
    /// Figure 4(a): c2c-miss locality over 64 B blocks.
    pub block_locality: LocalityCdf,
    /// Figure 4(b): over 1024 B macroblocks.
    pub macroblock_locality: LocalityCdf,
    /// Figure 4(c): over static instructions.
    pub pc_locality: LocalityCdf,
}

impl CharacterizationReport {
    /// Table 2 column 7 as a percentage.
    pub fn indirection_pct(&self) -> f64 {
        if self.misses == 0 {
            0.0
        } else {
            100.0 * self.directory_indirections as f64 / self.misses as f64
        }
    }

    /// Footprint in bytes at 64 B granularity.
    pub fn footprint_bytes(&self) -> u64 {
        self.blocks_touched * 64
    }
}

/// Generates `warmup + misses` records of `spec` and characterizes the
/// measured window, exactly as the paper instruments its traces ("We use
/// the first one million misses in the trace to warm up the caches").
pub fn characterize(
    spec: &WorkloadSpec,
    config: &SystemConfig,
    warmup: usize,
    misses: usize,
    seed: u64,
) -> CharacterizationReport {
    characterize_trace(
        spec.generator(seed).take(warmup + misses),
        spec.name(),
        spec.misses_per_kilo_instr(),
        config,
        warmup,
    )
}

/// Characterizes an already-materialized (or otherwise streamed) miss
/// trace: the first `warmup` records warm the coherence state without
/// being measured. [`characterize`] is this function over a freshly
/// seeded generator; sweep harnesses use this entry point directly so
/// one shared trace can feed many evaluators without regeneration.
///
/// The destination-set width follows the node count by the
/// [`SetWidth::Auto`] rule (one word up to 64 nodes, four beyond); the
/// report is identical at either width.
pub fn characterize_trace<I>(
    trace: I,
    workload: &str,
    misses_per_kilo_instr: f64,
    config: &SystemConfig,
    warmup: usize,
) -> CharacterizationReport
where
    I: IntoIterator<Item = TraceRecord>,
{
    match SetWidth::Auto.words(config.num_nodes()) {
        1 => characterize_width::<1, _>(trace, workload, misses_per_kilo_instr, config, warmup),
        _ => characterize_width::<4, _>(trace, workload, misses_per_kilo_instr, config, warmup),
    }
}

/// [`characterize_trace`] at destination-set width `W`.
fn characterize_width<const W: usize, I>(
    trace: I,
    workload: &str,
    misses_per_kilo_instr: f64,
    config: &SystemConfig,
    warmup: usize,
) -> CharacterizationReport
where
    I: IntoIterator<Item = TraceRecord>,
{
    let n = config.num_nodes();
    let mut tracker = CoherenceTracker::<W>::new(config);
    let mut blocks: HashMap<u64, (DestSet<W>, u64)> = HashMap::new(); // accessors, misses
    let mut macroblocks: HashMap<u64, u64> = HashMap::new(); // c2c per macroblock
    let mut block_c2c: HashMap<u64, u64> = HashMap::new();
    let mut pc_c2c: HashMap<u64, u64> = HashMap::new();
    let mut pcs: HashMap<u64, ()> = HashMap::new();
    let mut sharing = SharingHistogram::default();
    let mut measured = 0u64;
    let mut indirections = 0u64;
    let mut c2c = 0u64;
    for (i, rec) in trace.into_iter().enumerate() {
        let info = tracker.access(rec.requester, rec.request(), rec.block());
        if i < warmup {
            continue;
        }
        measured += 1;
        let entry = blocks.entry(rec.block().number()).or_default();
        entry.0.insert(rec.requester);
        entry.1 += 1;
        pcs.entry(rec.pc.raw()).or_insert(());
        let observers = info.required_observers().len();
        match rec.request() {
            ReqType::GetShared => sharing.reads[SharingHistogram::bin(observers)] += 1,
            ReqType::GetExclusive => sharing.writes[SharingHistogram::bin(observers)] += 1,
        }
        if info.is_directory_indirection() {
            indirections += 1;
        }
        if info.is_cache_to_cache() {
            c2c += 1;
            *block_c2c.entry(rec.block().number()).or_default() += 1;
            *macroblocks
                .entry(rec.block().macroblock(config.macroblock_bytes()).number())
                .or_default() += 1;
            *pc_c2c.entry(rec.pc.raw()).or_default() += 1;
        }
    }
    let mut degree_blocks = vec![0u64; n + 1];
    let mut degree_misses = vec![0u64; n + 1];
    let mut touched_macroblocks: HashMap<u64, ()> = HashMap::new();
    for (block, (accessors, miss_count)) in &blocks {
        let d = accessors.len().min(n);
        degree_blocks[d] += 1;
        degree_misses[d] += miss_count;
        let mb = dsp_types::BlockAddr::new(*block)
            .macroblock(config.macroblock_bytes())
            .number();
        touched_macroblocks.entry(mb).or_insert(());
    }
    CharacterizationReport {
        workload: workload.to_string(),
        misses: measured,
        blocks_touched: blocks.len() as u64,
        macroblocks_touched: touched_macroblocks.len() as u64,
        static_pcs: pcs.len() as u64,
        misses_per_kilo_instr,
        directory_indirections: indirections,
        cache_to_cache: c2c,
        sharing,
        degree_blocks,
        degree_misses,
        block_locality: LocalityCdf::from_counts(block_c2c.into_values().collect()),
        macroblock_locality: LocalityCdf::from_counts(macroblocks.into_values().collect()),
        pc_locality: LocalityCdf::from_counts(pc_c2c.into_values().collect()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsp_trace::Workload;

    fn report(w: Workload) -> CharacterizationReport {
        let config = SystemConfig::isca03();
        let spec = WorkloadSpec::preset(w, &config).scaled(1.0 / 64.0);
        characterize(&spec, &config, 5_000, 30_000, 42)
    }

    #[test]
    fn apache_indirections_near_table2() {
        let r = report(Workload::Apache);
        let pct = r.indirection_pct();
        assert!(
            (80.0..96.0).contains(&pct),
            "Apache indirections {pct}% vs paper 89%"
        );
    }

    #[test]
    fn slashcode_indirections_near_table2() {
        let r = report(Workload::Slashcode);
        let pct = r.indirection_pct();
        assert!(
            (27.0..45.0).contains(&pct),
            "Slashcode indirections {pct}% vs paper 35%"
        );
    }

    #[test]
    fn few_misses_need_many_observers() {
        // §2.4: "only about 10% of all requests need to be sent to more
        // than one other processor".
        let r = report(Workload::Oltp);
        let multi =
            r.sharing.reads[2] + r.sharing.reads[3] + r.sharing.writes[2] + r.sharing.writes[3];
        let pct = 100.0 * multi as f64 / r.misses as f64;
        assert!(pct < 25.0, "misses needing >1 observer: {pct}%");
    }

    #[test]
    fn most_blocks_private_most_misses_shared() {
        // Figure 3: degree-1 dominates per-block; high degrees dominate
        // per-miss for commercial workloads.
        let r = report(Workload::Oltp);
        let total_blocks: u64 = r.degree_blocks.iter().sum();
        assert!(
            r.degree_blocks[1] as f64 > 0.5 * total_blocks as f64,
            "most blocks touched by one processor"
        );
        let low: u64 = r.degree_misses[..=4].iter().sum();
        let high: u64 = r.degree_misses[5..].iter().sum();
        assert!(high > low, "most OLTP misses go to widely shared blocks");
    }

    #[test]
    fn ocean_misses_concentrate_on_low_degree() {
        let r = report(Workload::Ocean);
        let low: u64 = r.degree_misses[..=4].iter().sum();
        let high: u64 = r.degree_misses[5..].iter().sum();
        assert!(
            low > high,
            "Ocean misses concentrate on degree <= 4 (Fig 3b)"
        );
    }

    #[test]
    fn locality_cdfs_are_monotone_and_bounded() {
        let r = report(Workload::SpecJbb);
        let mut last = 0.0;
        for k in [10, 100, 1000, 10_000] {
            let v = r.block_locality.percent_covered_by(k);
            assert!(v >= last && v <= 100.0);
            last = v;
        }
        // Hot blocks dominate: top-1000 blocks should carry most c2c
        // misses (Fig. 4a shows ~80% for SPECjbb at full scale).
        assert!(
            r.block_locality.percent_covered_by(1000) > 50.0,
            "{}",
            r.block_locality.percent_covered_by(1000)
        );
    }

    #[test]
    fn macroblocks_localize_at_least_as_well_as_blocks() {
        let r = report(Workload::Oltp);
        let k = 500;
        assert!(
            r.macroblock_locality.percent_covered_by(k)
                >= r.block_locality.percent_covered_by(k) - 1e-9,
            "aggregating into macroblocks concentrates the distribution"
        );
    }

    #[test]
    fn histogram_percentages_sum_to_100() {
        let r = report(Workload::Apache);
        let mut total = 0.0;
        for bin in 0..4 {
            let (read, write) = r.sharing.percent(bin);
            total += read + write;
        }
        assert!((total - 100.0).abs() < 0.01, "{total}");
    }

    #[test]
    fn footprint_grows_with_trace_length() {
        let config = SystemConfig::isca03();
        let spec = WorkloadSpec::preset(Workload::Apache, &config).scaled(1.0 / 64.0);
        let short = characterize(&spec, &config, 0, 5_000, 1);
        let long = characterize(&spec, &config, 0, 40_000, 1);
        assert!(long.blocks_touched > short.blocks_touched);
        assert!(long.macroblocks_touched >= short.macroblocks_touched);
        assert_eq!(short.footprint_bytes(), short.blocks_touched * 64);
    }

    /// `characterize_trace` picks one word up to 64 nodes; the
    /// four-word instantiation must report identically there, since only
    /// 128- and 256-node machines reach it through dispatch.
    #[test]
    fn narrow_and_wide_paths_agree() {
        for nodes in [16, 64] {
            let config = SystemConfig::builder().num_nodes(nodes).build().unwrap();
            for w in [Workload::Oltp, Workload::Ocean] {
                let spec = WorkloadSpec::preset(w, &config).scaled(1.0 / 128.0);
                let t: Vec<TraceRecord> = spec.generator(5).take(6_000).collect();
                let narrow =
                    characterize_width::<1, _>(t.iter().copied(), spec.name(), 1.0, &config, 1_000);
                let wide =
                    characterize_width::<4, _>(t.iter().copied(), spec.name(), 1.0, &config, 1_000);
                assert_eq!(narrow, wide, "{nodes} nodes, {w:?}");
                assert_eq!(narrow.misses, 5_000);
            }
        }
    }

    #[test]
    fn empty_cdf_is_zero() {
        let cdf = LocalityCdf::from_counts(vec![]);
        assert_eq!(cdf.percent_covered_by(100), 0.0);
        assert_eq!(cdf.entities(), 0);
    }
}
