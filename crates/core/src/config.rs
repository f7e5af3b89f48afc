//! Builder-style predictor configuration.

use std::fmt;

use serde::{Deserialize, Serialize};

use dsp_types::SystemConfig;

use crate::index::Indexing;
use crate::policies::{
    AlwaysBroadcastPredictor, AlwaysMinimalPredictor, BroadcastIfSharedPredictor, GroupPredictor,
    OwnerGroupPredictor, OwnerPredictor, RandomPredictor, StickySpatialPredictor,
    TwoLevelOwnerPredictor,
};
use crate::table::Capacity;
use crate::DestSetPredictor;

/// Which prediction policy a [`PredictorConfig`] builds.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PolicyKind {
    /// [`OwnerPredictor`].
    Owner,
    /// [`BroadcastIfSharedPredictor`].
    BroadcastIfShared,
    /// [`GroupPredictor`].
    Group,
    /// [`OwnerGroupPredictor`].
    OwnerGroup,
    /// [`TwoLevelOwnerPredictor`] (related-work extension).
    TwoLevelOwner,
    /// [`StickySpatialPredictor`] with the given neighbor span.
    StickySpatial {
        /// Neighbor entries aggregated on each side (1 in prior work).
        span: usize,
    },
    /// [`AlwaysBroadcastPredictor`] (snooping endpoint).
    AlwaysBroadcast,
    /// [`AlwaysMinimalPredictor`] (directory endpoint).
    AlwaysMinimal,
    /// [`RandomPredictor`] — adversarial stress configuration.
    Random {
        /// Seed for reproducible chaos.
        seed: u64,
    },
}

/// Declarative description of a predictor: policy + indexing + capacity.
///
/// One `PredictorConfig` describes the predictor placed in *each* L2
/// controller; evaluation harnesses call [`PredictorConfig::build`] once
/// per node.
///
/// # Example
///
/// ```
/// use dsp_core::{Capacity, Indexing, PredictorConfig};
/// use dsp_types::SystemConfig;
///
/// let config = PredictorConfig::owner_group()
///     .indexing(Indexing::Macroblock { bytes: 1024 })
///     .entries(Capacity::ISCA03);
/// let predictor = config.build(&SystemConfig::isca03());
/// assert_eq!(predictor.name(), "Owner/Group");
/// assert!(config.label().contains("1024B macroblock"));
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct PredictorConfig {
    policy: PolicyKind,
    indexing: Indexing,
    capacity: Capacity,
}

impl PredictorConfig {
    /// An [`OwnerPredictor`] configuration (paper defaults: data-block
    /// indexing, 8192-entry 4-way table).
    pub fn owner() -> Self {
        Self::with_policy(PolicyKind::Owner)
    }

    /// A [`BroadcastIfSharedPredictor`] configuration.
    pub fn broadcast_if_shared() -> Self {
        Self::with_policy(PolicyKind::BroadcastIfShared)
    }

    /// A [`GroupPredictor`] configuration.
    pub fn group() -> Self {
        Self::with_policy(PolicyKind::Group)
    }

    /// An [`OwnerGroupPredictor`] configuration.
    pub fn owner_group() -> Self {
        Self::with_policy(PolicyKind::OwnerGroup)
    }

    /// A [`TwoLevelOwnerPredictor`] configuration (related-work
    /// extension: confidence-gated owner prediction).
    pub fn two_level_owner() -> Self {
        Self::with_policy(PolicyKind::TwoLevelOwner)
    }

    /// A [`StickySpatialPredictor`] configuration (prior work; untagged
    /// direct-mapped, so `ways` is ignored and `entries` is its size).
    pub fn sticky_spatial(span: usize) -> Self {
        PredictorConfig {
            policy: PolicyKind::StickySpatial { span },
            indexing: Indexing::DataBlock,
            capacity: Capacity::Finite {
                entries: 4096,
                ways: 1,
            },
        }
    }

    /// The broadcast-snooping endpoint.
    pub fn always_broadcast() -> Self {
        Self::with_policy(PolicyKind::AlwaysBroadcast)
    }

    /// The directory endpoint.
    pub fn always_minimal() -> Self {
        Self::with_policy(PolicyKind::AlwaysMinimal)
    }

    /// An adversarial random predictor (protocol stress testing only).
    pub fn random(seed: u64) -> Self {
        Self::with_policy(PolicyKind::Random { seed })
    }

    fn with_policy(policy: PolicyKind) -> Self {
        PredictorConfig {
            policy,
            indexing: Indexing::DataBlock,
            capacity: Capacity::ISCA03,
        }
    }

    /// Sets the indexing scheme.
    #[must_use]
    pub fn indexing(mut self, indexing: Indexing) -> Self {
        self.indexing = indexing;
        self
    }

    /// Sets the table capacity.
    #[must_use]
    pub fn entries(mut self, capacity: Capacity) -> Self {
        self.capacity = capacity;
        self
    }

    /// The configured policy.
    pub fn policy(&self) -> PolicyKind {
        self.policy
    }

    /// The configured indexing scheme.
    pub fn indexing_scheme(&self) -> Indexing {
        self.indexing
    }

    /// The configured capacity.
    pub fn capacity(&self) -> Capacity {
        self.capacity
    }

    /// Builds one predictor instance (one per node in a full system) at
    /// the four-word destination-set width, which covers every node
    /// count up to 256.
    ///
    /// # Panics
    ///
    /// Panics if a Sticky-Spatial configuration is given an unbounded or
    /// non-power-of-two capacity (the prior-work design is inherently a
    /// fixed direct-mapped array).
    pub fn build(&self, config: &SystemConfig) -> Box<dyn DestSetPredictor> {
        self.build_width::<4>(config)
    }

    /// Builds the configured predictor at an explicit destination-set
    /// word width `W` (the width-generic form of
    /// [`PredictorConfig::build`]; `build` is `build_width::<4>`).
    ///
    /// The timing simulator and the trace-driven evaluators
    /// (`dsp_analysis`) monomorphize their hot paths per width and call
    /// this with `W = 1` for ≤ 64-node systems, `W = 4` beyond.
    ///
    /// # Panics
    ///
    /// Panics on the same conditions as [`PredictorConfig::build`].
    pub fn build_width<const W: usize>(
        &self,
        config: &SystemConfig,
    ) -> Box<dyn DestSetPredictor<W>> {
        match self.policy {
            PolicyKind::Owner => {
                Box::new(OwnerPredictor::new(self.indexing, self.capacity, config))
            }
            PolicyKind::BroadcastIfShared => Box::new(BroadcastIfSharedPredictor::new(
                self.indexing,
                self.capacity,
                config,
            )),
            PolicyKind::Group => {
                Box::new(GroupPredictor::new(self.indexing, self.capacity, config))
            }
            PolicyKind::OwnerGroup => Box::new(OwnerGroupPredictor::new(
                self.indexing,
                self.capacity,
                config,
            )),
            PolicyKind::TwoLevelOwner => Box::new(TwoLevelOwnerPredictor::new(
                self.indexing,
                self.capacity,
                config,
            )),
            PolicyKind::StickySpatial { span } => {
                let entries = match self.capacity {
                    Capacity::Finite { entries, .. } => entries,
                    Capacity::Unbounded => {
                        panic!("Sticky-Spatial requires a finite capacity (it is untagged)")
                    }
                };
                Box::new(StickySpatialPredictor::new(entries, span, config))
            }
            PolicyKind::AlwaysBroadcast => Box::new(AlwaysBroadcastPredictor::new(config)),
            PolicyKind::AlwaysMinimal => Box::new(AlwaysMinimalPredictor::new()),
            PolicyKind::Random { seed } => Box::new(RandomPredictor::new(seed, config)),
        }
    }

    /// A descriptive label, e.g.
    /// `"Group, 1024B macroblock, 8192 entries"`.
    pub fn label(&self) -> String {
        let policy = match self.policy {
            PolicyKind::Owner => "Owner".to_string(),
            PolicyKind::BroadcastIfShared => "Broadcast-If-Shared".to_string(),
            PolicyKind::Group => "Group".to_string(),
            PolicyKind::OwnerGroup => "Owner/Group".to_string(),
            PolicyKind::TwoLevelOwner => "Two-Level Owner".to_string(),
            PolicyKind::StickySpatial { span } => format!("Sticky-Spatial({span})"),
            PolicyKind::AlwaysBroadcast => return "Broadcast Snooping".to_string(),
            PolicyKind::AlwaysMinimal => return "Directory".to_string(),
            PolicyKind::Random { seed } => return format!("Random(seed={seed})"),
        };
        let capacity = match self.capacity {
            Capacity::Unbounded => "unbounded".to_string(),
            Capacity::Finite { entries, .. } => format!("{entries} entries"),
        };
        format!("{policy}, {}, {capacity}", self.indexing.label())
    }
}

impl fmt::Display for PredictorConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_every_policy() {
        let sys = SystemConfig::isca03();
        let configs = [
            PredictorConfig::owner(),
            PredictorConfig::broadcast_if_shared(),
            PredictorConfig::group(),
            PredictorConfig::owner_group(),
            PredictorConfig::sticky_spatial(1),
            PredictorConfig::always_broadcast(),
            PredictorConfig::always_minimal(),
        ];
        for c in configs {
            let p = c.build(&sys);
            assert!(!p.name().is_empty());
        }
    }

    #[test]
    fn builder_chain() {
        let c = PredictorConfig::group()
            .indexing(Indexing::ProgramCounter)
            .entries(Capacity::Unbounded);
        assert_eq!(c.indexing_scheme(), Indexing::ProgramCounter);
        assert_eq!(c.capacity(), Capacity::Unbounded);
        assert_eq!(c.policy(), PolicyKind::Group);
    }

    #[test]
    fn labels() {
        assert_eq!(
            PredictorConfig::group().label(),
            "Group, 64B block, 8192 entries"
        );
        assert_eq!(
            PredictorConfig::always_broadcast().label(),
            "Broadcast Snooping"
        );
        assert_eq!(PredictorConfig::always_minimal().to_string(), "Directory");
        assert!(PredictorConfig::owner()
            .entries(Capacity::Unbounded)
            .label()
            .contains("unbounded"));
    }

    #[test]
    #[should_panic(expected = "finite capacity")]
    fn sticky_rejects_unbounded() {
        let _ = PredictorConfig::sticky_spatial(1)
            .entries(Capacity::Unbounded)
            .build(&SystemConfig::isca03());
    }

    #[test]
    fn default_capacity_is_isca03() {
        assert_eq!(PredictorConfig::group().capacity(), Capacity::ISCA03);
    }
}
