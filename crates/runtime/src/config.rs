//! Runtime configuration.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use seep_cloud::{ProviderConfig, ScalingPolicy, VmPoolConfig};
use seep_core::LogicalOpId;
use seep_store::StoreConfig;

use crate::reconfig::SplitPolicy;
use crate::recovery::RecoveryStrategy;

/// Output batch sizes on the data plane, per producing logical operator.
///
/// A producer's batch size is the number of output tuples grouped into one
/// envelope towards a downstream target before it ships. At size 1 — the
/// default — every output ships the moment it is produced, as a batch of
/// one; it is a value like any other, served by the same code. Larger sizes
/// amortise channel hops, dedup probes and clock updates; the
/// `batch_equivalence` suite pins every size to identical observable
/// behaviour.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BatchConfig {
    /// Batch size for every producer without an explicit override.
    pub default_size: usize,
    /// Per-producer overrides, keyed by the producing logical operator's raw
    /// id (the edge's upstream end).
    pub per_producer: BTreeMap<u32, usize>,
}

impl Default for BatchConfig {
    fn default() -> Self {
        BatchConfig {
            default_size: 1,
            per_producer: BTreeMap::new(),
        }
    }
}

impl BatchConfig {
    /// A uniform batch size for every edge.
    pub fn uniform(size: usize) -> Self {
        BatchConfig {
            default_size: size.max(1),
            per_producer: BTreeMap::new(),
        }
    }

    /// Override the batch size on the edges leaving `producer`.
    pub fn with_producer(mut self, producer: LogicalOpId, size: usize) -> Self {
        self.per_producer.insert(producer.0, size.max(1));
        self
    }

    /// The effective batch size for the edges leaving `producer`.
    pub fn size_for(&self, producer: LogicalOpId) -> usize {
        self.per_producer
            .get(&producer.0)
            .copied()
            .unwrap_or(self.default_size)
            .max(1)
    }
}

/// Where scale-out plans place the new partitions they create.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum PlacementPreference {
    /// Draw a fresh VM from the pool for every new partition — the paper's
    /// one-operator-per-VM deployment and the seed behaviour.
    #[default]
    FreshVm,
    /// Fill partially occupied VM slots before drawing fresh VMs: a new
    /// partition lands on an existing VM with a free slot when one exists,
    /// spreading the query over fewer machines.
    Pack,
}

/// Configuration of the SPS runtime.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RuntimeConfig {
    /// Checkpointing interval `c` in milliseconds (§3.2). The paper's default
    /// for the recovery experiments is 5 s.
    pub checkpoint_interval_ms: u64,
    /// Interval at which windowed operators are ticked, in milliseconds.
    pub tick_interval_ms: u64,
    /// Capacity (in messages) of each operator's inbound channel.
    pub channel_capacity: usize,
    /// Fault-tolerance strategy (R+SM, upstream backup or source replay).
    pub strategy: RecoveryStrategy,
    /// Scaling policy for the bottleneck detector (§5.1).
    pub scaling_policy: ScalingPolicy,
    /// Cloud provider behaviour (provisioning delay, VM limits).
    pub provider: ProviderConfig,
    /// VM pool configuration (§5.2).
    pub pool: VmPoolConfig,
    /// Record end-to-end latency samples at stateful operators as well as at
    /// sinks. Used by the state-management overhead experiments (§6.3), where
    /// the query's sink only receives window results but the per-tuple
    /// latency at the stateful operator is the quantity of interest.
    pub latency_probe_at_stateful: bool,
    /// Checkpoint-store subsystem configuration: which backend each upstream
    /// VM hosts for the checkpoints backed up to it.
    #[serde(default)]
    pub store: StoreConfig,
    /// How reconfiguration plans split key ranges: evenly (the default and
    /// the paper's behaviour) or distribution-guided from a load-weighted
    /// checkpoint sample when the sampled imbalance exceeds a threshold.
    #[serde(default)]
    pub split: SplitPolicy,
    /// Output batch sizes on the data plane (default 1: every output ships
    /// at once).
    #[serde(default)]
    pub batch: BatchConfig,
    /// OS threads `drain` may shard live workers across (0 counts as 1, the
    /// default). Workers are grouped by placement VM (`vm % threads`); when
    /// all of them fall into one group — always the case at 1 — the drain
    /// runs on the calling thread, otherwise each group gets a scoped thread
    /// and the drain quiesces to a barrier before anything the
    /// single-threaded world owns (ticks, checkpoints, reconfiguration
    /// plans, utilisation reports). The loop is the same either way.
    #[serde(default)]
    pub worker_threads: usize,
    /// Record one end-to-end latency sample per this many eligible tuples.
    /// 0 and 1 both stamp every tuple (the seed behaviour); larger values
    /// thin the histogram's input without shifting its quantiles. Thinning
    /// happens **at the stamp site**: tuples the sampler will discard skip
    /// the timestamp acquisition entirely (emit time 0) and every latency
    /// probe downstream records exactly the tuples that carry a stamp.
    #[serde(default)]
    pub latency_sample_every: u32,
    /// Where scale-out plans place new partitions: fresh VMs (the default,
    /// the seed behaviour) or packed onto partially filled VM slots.
    #[serde(default)]
    pub placement: PlacementPreference,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            checkpoint_interval_ms: 5_000,
            tick_interval_ms: 1_000,
            channel_capacity: 262_144,
            strategy: RecoveryStrategy::StateManagement,
            scaling_policy: ScalingPolicy::default(),
            provider: ProviderConfig::instant(),
            pool: VmPoolConfig::default(),
            latency_probe_at_stateful: false,
            store: StoreConfig::default(),
            split: SplitPolicy::default(),
            batch: BatchConfig::default(),
            worker_threads: 1,
            latency_sample_every: 1,
            placement: PlacementPreference::FreshVm,
        }
    }
}

impl RuntimeConfig {
    /// A configuration using the given checkpoint interval (milliseconds).
    pub fn with_checkpoint_interval(mut self, interval_ms: u64) -> Self {
        self.checkpoint_interval_ms = interval_ms;
        self
    }

    /// A configuration using the given recovery strategy.
    pub fn with_strategy(mut self, strategy: RecoveryStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// A configuration using the given checkpoint-store backend.
    pub fn with_store(mut self, store: StoreConfig) -> Self {
        self.store = store;
        self
    }

    /// A configuration using the given key-split policy for reconfiguration
    /// plans.
    pub fn with_split(mut self, split: SplitPolicy) -> Self {
        self.split = split;
        self
    }

    /// A configuration batching every producer's outputs into runs of `size`
    /// tuples per envelope (1 = every output ships at once).
    pub fn with_batch_size(mut self, size: usize) -> Self {
        self.batch = BatchConfig::uniform(size);
        self
    }

    /// A configuration draining the data plane across up to `threads` OS
    /// threads (1 = on the calling thread).
    pub fn with_worker_threads(mut self, threads: usize) -> Self {
        self.worker_threads = threads;
        self
    }

    /// A configuration recording one latency sample per `every` eligible
    /// tuples (1 = stamp every tuple, the seed behaviour).
    pub fn with_latency_sampling(mut self, every: u32) -> Self {
        self.latency_sample_every = every;
        self
    }

    /// A configuration using the given scale-out placement preference.
    pub fn with_placement(mut self, placement: PlacementPreference) -> Self {
        self.placement = placement;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_parameters() {
        let c = RuntimeConfig::default();
        assert_eq!(c.checkpoint_interval_ms, 5_000);
        assert_eq!(c.strategy, RecoveryStrategy::StateManagement);
        assert!(c.channel_capacity > 1_000);
        assert_eq!(c.store.backend, seep_store::StoreBackendKind::Mem);
        // Seed behaviour: even splits unless skew-awareness is opted into.
        assert_eq!(c.split, SplitPolicy::Even);
    }

    #[test]
    fn split_policy_is_configurable() {
        let c = RuntimeConfig::default().with_split(SplitPolicy::skew_aware());
        assert!(matches!(c.split, SplitPolicy::SkewAware { .. }));
    }

    #[test]
    fn store_backend_is_configurable() {
        let c = RuntimeConfig::default().with_store(StoreConfig::file("/tmp/seep-cfg-test"));
        assert_eq!(c.store.backend, seep_store::StoreBackendKind::File);
    }

    #[test]
    fn batch_sizes_default_to_per_tuple_and_resolve_overrides() {
        let c = RuntimeConfig::default();
        assert_eq!(c.batch, BatchConfig::default());
        assert_eq!(
            c.batch.size_for(LogicalOpId(3)),
            1,
            "batches of one by default"
        );

        let batch = BatchConfig::uniform(64).with_producer(LogicalOpId(2), 8);
        assert_eq!(batch.size_for(LogicalOpId(1)), 64);
        assert_eq!(batch.size_for(LogicalOpId(2)), 8);
        // Zero is clamped: a batch always carries at least one tuple.
        assert_eq!(BatchConfig::uniform(0).size_for(LogicalOpId(0)), 1);

        let c = RuntimeConfig::default().with_batch_size(128);
        assert_eq!(c.batch.size_for(LogicalOpId(9)), 128);
    }

    #[test]
    fn builder_helpers() {
        let c = RuntimeConfig::default()
            .with_checkpoint_interval(10_000)
            .with_strategy(RecoveryStrategy::UpstreamBackup);
        assert_eq!(c.checkpoint_interval_ms, 10_000);
        assert_eq!(c.strategy, RecoveryStrategy::UpstreamBackup);
    }

    #[test]
    fn placement_defaults_to_fresh_vms() {
        let c = RuntimeConfig::default();
        assert_eq!(c.placement, PlacementPreference::FreshVm);
        let c = c.with_placement(PlacementPreference::Pack);
        assert_eq!(c.placement, PlacementPreference::Pack);
    }

    #[test]
    fn parallelism_and_sampling_default_to_seed_behaviour() {
        let c = RuntimeConfig::default();
        assert_eq!(c.worker_threads, 1, "one thread by default");
        assert_eq!(c.latency_sample_every, 1, "full stamping by default");

        let c = RuntimeConfig::default()
            .with_worker_threads(4)
            .with_latency_sampling(16);
        assert_eq!(c.worker_threads, 4);
        assert_eq!(c.latency_sample_every, 16);
    }
}
