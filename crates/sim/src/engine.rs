//! The time-stepped simulation engine.
//!
//! Each simulated second the engine: (i) offers the workload's input rate to
//! the pipeline, (ii) lets every partition of every stage process as many
//! queued tuples as its VM's CPU budget allows (minus the checkpointing tax
//! for stateful operators), (iii) estimates end-to-end latency from queueing
//! delays, and (iv) every report interval feeds per-partition CPU utilisation
//! into the scaling policy, splitting bottleneck partitions onto VMs taken
//! from the pre-allocated pool (which refills asynchronously after the
//! provider's provisioning delay, §5.2).

use serde::{Deserialize, Serialize};

use seep_cloud::ScalingPolicy;

use crate::policy::BottleneckTracker;
use crate::spec::QuerySpec;
use crate::trace::{SimRecord, SimTrace};

/// CPU budget of one operator VM per second, in microseconds (1 EC2 compute
/// unit ≈ one core fully busy for one second).
const VM_BUDGET_US: f64 = 1_000_000.0;

/// Cost model of a checkpoint-store backend (`seep-store`), used to scale
/// the per-second checkpointing tax of stateful stages. The threaded runtime
/// measures these costs for real; the simulator only needs their shape: a
/// bandwidth factor relative to the configured checkpoint bandwidth (memory
/// copies are fast, the durable log pays disk write costs) and a fixed
/// per-checkpoint overhead (framing, fsync, segment bookkeeping).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimStoreProfile {
    /// Backend label ("mem", "file", "tiered").
    pub name: String,
    /// Multiplier on `SimConfig::checkpoint_bandwidth` (1.0 = memory speed).
    pub bandwidth_factor: f64,
    /// Fixed CPU overhead per checkpoint, in microseconds.
    pub fixed_overhead_us: f64,
}

impl SimStoreProfile {
    /// The in-memory backend: full bandwidth, no fixed overhead (the seed's
    /// behaviour).
    pub fn mem() -> Self {
        SimStoreProfile {
            name: "mem".into(),
            bandwidth_factor: 1.0,
            fixed_overhead_us: 0.0,
        }
    }

    /// The durable log-structured backend: sequential disk writes at a
    /// fraction of memory bandwidth plus per-record framing overhead.
    pub fn file() -> Self {
        SimStoreProfile {
            name: "file".into(),
            bandwidth_factor: 0.25,
            fixed_overhead_us: 500.0,
        }
    }

    /// The tiered backend: write-through to disk but restores served from
    /// memory; writes amortise close to the file backend, with a smaller
    /// fixed cost because the hot tier absorbs read-modify cycles.
    pub fn tiered() -> Self {
        SimStoreProfile {
            name: "tiered".into(),
            bandwidth_factor: 0.4,
            fixed_overhead_us: 200.0,
        }
    }
}

impl Default for SimStoreProfile {
    fn default() -> Self {
        SimStoreProfile::mem()
    }
}

/// Simulation configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SimConfig {
    /// The query pipeline.
    pub query: QuerySpec,
    /// Scaling policy (threshold δ, k, r) — the runtime's struct. The engine
    /// steps in seconds, so `report_interval_ms` is used in whole seconds;
    /// it always splits a bottleneck in two and derives no health states, so
    /// `partitions_per_action` and `backpressure_queue` are not read.
    pub policy: ScalingPolicy,
    /// Whether the bottleneck detector may scale stages out at runtime.
    /// When false, the initial parallelism is kept (manual allocation).
    pub dynamic_scaling: bool,
    /// Initial parallelism per stage (defaults to 1 everywhere when empty).
    pub initial_parallelism: Vec<usize>,
    /// Number of pre-allocated spare VMs in the pool (§5.2).
    pub vm_pool_size: usize,
    /// Provisioning delay for refilling the pool, in seconds.
    pub provisioning_delay_s: u64,
    /// Hard cap on operator VMs (None = unlimited).
    pub max_vms: Option<usize>,
    /// Open-loop workload: tuples beyond the per-partition queue cap are
    /// dropped instead of applying back-pressure.
    pub open_loop: bool,
    /// Queue capacity per partition (tuples) in open-loop mode.
    pub queue_cap: f64,
    /// Checkpointing interval in seconds (stateful stages only).
    pub checkpoint_interval_s: u64,
    /// Bandwidth available for writing checkpoints, bytes/s.
    pub checkpoint_bandwidth: f64,
    /// Cost profile of the checkpoint-store backend backing the deployment.
    #[serde(default)]
    pub store: SimStoreProfile,
    /// Fixed per-hop network/batching latency in milliseconds.
    pub network_hop_ms: f64,
    /// How many seconds a scale-out action disturbs latency (stream buffering
    /// and replay, §6.1 observes peaks of up to 4 s).
    pub scale_out_disruption_s: u64,
    /// Key-distribution skew: the fraction of each stage's input pinned to
    /// the partition owning the hot keys (LRB's expressway skew — a handful
    /// of hot segments). `0.0` (the default) is the uniform workload. An
    /// even key split cannot move hot keys, so the pinned share sticks to
    /// one partition through every scale out; only a distribution-guided
    /// **rebalance** (see [`ScalingPolicy::rebalance`]) spreads it.
    #[serde(default)]
    pub hot_fraction: f64,
    /// Operator slots per VM, mirroring the runtime placement layer's
    /// capacity (`VmPoolConfig::slots_per_vm`). With the default of 1 every
    /// partition owns a VM; above 1 a **consolidation** (see
    /// [`ScalingPolicy::consolidate`]) can pack an under-utilised stage's
    /// partitions onto shared VMs, whose compute the residents then share.
    #[serde(default = "default_slots_per_vm")]
    pub slots_per_vm: usize,
}

fn default_slots_per_vm() -> usize {
    1
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            query: crate::spec::lrb_query(),
            policy: ScalingPolicy::default(),
            dynamic_scaling: true,
            initial_parallelism: Vec::new(),
            vm_pool_size: 4,
            provisioning_delay_s: 90,
            max_vms: None,
            open_loop: false,
            queue_cap: 200_000.0,
            checkpoint_interval_s: 5,
            checkpoint_bandwidth: 100_000_000.0,
            store: SimStoreProfile::default(),
            network_hop_ms: 20.0,
            scale_out_disruption_s: 4,
            hot_fraction: 0.0,
            slots_per_vm: default_slots_per_vm(),
        }
    }
}

#[derive(Debug, Clone)]
struct Partition {
    queue: f64,
    busy_accum_us: f64,
}

#[derive(Debug, Clone)]
struct Stage {
    partitions: Vec<Partition>,
    /// VMs hosting this stage's partitions. Equal to the parallelism until a
    /// consolidation packs several partitions per VM; never exceeds it.
    vms: usize,
    /// Remaining seconds of post-scale-out disruption.
    disruption_s: u64,
    /// Extra latency (ms) added while the disruption lasts.
    disruption_ms: f64,
    /// Whether a distribution-guided rebalance has re-drawn this stage's key
    /// boundaries: once balanced, the configured hot fraction spreads evenly
    /// across the partitions instead of sticking to one.
    balanced: bool,
}

impl Stage {
    fn new(parallelism: usize) -> Self {
        Stage {
            partitions: (0..parallelism.max(1))
                .map(|_| Partition {
                    queue: 0.0,
                    busy_accum_us: 0.0,
                })
                .collect(),
            vms: parallelism.max(1),
            disruption_s: 0,
            disruption_ms: 0.0,
            balanced: false,
        }
    }

    fn parallelism(&self) -> usize {
        self.partitions.len()
    }

    fn total_queue(&self) -> f64 {
        self.partitions.iter().map(|p| p.queue).sum()
    }

    /// The share of one VM's compute each partition gets: 1.0 while every
    /// partition owns a VM, `vms / parallelism` once consolidated.
    fn vm_share(&self) -> f64 {
        (self.vms as f64 / self.partitions.len().max(1) as f64).min(1.0)
    }
}

/// The simulator.
pub struct SimEngine {
    config: SimConfig,
    stages: Vec<Stage>,
    tracker: BottleneckTracker,
    pool_available: usize,
    pool_pending: Vec<u64>,
    last_report_s: u64,
}

impl SimEngine {
    /// Create a simulator for the given configuration.
    pub fn new(config: SimConfig) -> Self {
        let stages: Vec<Stage> = config
            .query
            .stages
            .iter()
            .enumerate()
            .map(|(i, _)| {
                let p = config.initial_parallelism.get(i).copied().unwrap_or(1);
                Stage::new(p)
            })
            .collect();
        SimEngine {
            pool_available: config.vm_pool_size,
            pool_pending: Vec::new(),
            tracker: BottleneckTracker::new(),
            stages,
            last_report_s: 0,
            config,
        }
    }

    /// Number of VMs hosting operators (one per partition of every stage,
    /// fewer for consolidated stages whose partitions share VM slots).
    pub fn operator_vms(&self) -> usize {
        self.stages.iter().map(|s| s.vms).sum()
    }

    /// Current parallelism per stage.
    pub fn parallelism(&self) -> Vec<usize> {
        self.stages.iter().map(Stage::parallelism).collect()
    }

    /// Spare VMs currently ready in the pool.
    pub fn pool_available(&self) -> usize {
        self.pool_available
    }

    fn refill_pool(&mut self, t: u64) {
        // VMs whose provisioning finished become available.
        let ready: Vec<u64> = self
            .pool_pending
            .iter()
            .copied()
            .filter(|ready_at| *ready_at <= t)
            .collect();
        self.pool_pending.retain(|ready_at| *ready_at > t);
        self.pool_available += ready.len();
        // Keep requesting until the pool is back at its target size.
        while self.pool_available + self.pool_pending.len() < self.config.vm_pool_size {
            self.pool_pending.push(t + self.config.provisioning_delay_s);
        }
    }

    fn checkpoint_tax_us(&self, stage_idx: usize) -> f64 {
        let spec = &self.config.query.stages[stage_idx];
        if !spec.stateful || self.config.checkpoint_interval_s == 0 {
            return 0.0;
        }
        let bytes = spec.state_bytes_per_k_keys as f64;
        let bandwidth =
            self.config.checkpoint_bandwidth * self.config.store.bandwidth_factor.max(1e-9);
        let us_per_checkpoint = bytes / bandwidth * 1e6 + self.config.store.fixed_overhead_us;
        us_per_checkpoint / self.config.checkpoint_interval_s as f64
    }

    /// Advance the simulation by one second with the given offered input rate
    /// (tuples/s at the sources). Returns the record for this second.
    pub fn step(&mut self, t: u64, offered: f64) -> SimRecord {
        self.refill_pool(t);

        let mut input = offered;
        let mut dropped_total = 0.0;
        let mut latency_ms = 0.0;
        let mut max_util: f64 = 0.0;
        // Throughput is reported in *input-tuple equivalents*: the rate of
        // source tuples whose processing completed end-to-end this second
        // (operators change tuple counts through their selectivity, so the
        // sink's raw tuple rate is normalised back to the input scale, which
        // is what Figs 6 and 8 plot).
        let mut cumulative_selectivity = 1.0f64;
        let mut end_to_end_rate = f64::INFINITY;

        let taxes: Vec<f64> = (0..self.stages.len())
            .map(|i| self.checkpoint_tax_us(i))
            .collect();
        for (idx, stage) in self.stages.iter_mut().enumerate() {
            let spec = &self.config.query.stages[idx];
            let n = stage.partitions.len() as f64;
            let tax = taxes[idx];

            // Skewed input sticks to partition 0 (the owner of the hot keys)
            // until a rebalance re-draws the stage's key boundaries.
            let hot = if self.config.hot_fraction > 0.0 && !stage.balanced && n > 1.0 {
                self.config.hot_fraction.min(1.0)
            } else {
                0.0
            };
            let even_share = input * (1.0 - hot) / n;
            let mut stage_processed = 0.0;
            let mut stage_util: f64 = 0.0;
            // Consolidated partitions share their VM's compute with their
            // co-residents: each gets vms/π of a VM instead of a whole one.
            let vm_share = stage.vm_share();
            for (pidx, partition) in stage.partitions.iter_mut().enumerate() {
                let share = if pidx == 0 {
                    even_share + input * hot
                } else {
                    even_share
                };
                partition.queue += share;
                let budget_us = (VM_BUDGET_US * vm_share - tax).max(0.0);
                let capacity = budget_us / spec.cost_us.max(0.01);
                let processed = partition.queue.min(capacity);
                partition.queue -= processed;
                if self.config.open_loop && partition.queue > self.config.queue_cap {
                    dropped_total += partition.queue - self.config.queue_cap;
                    partition.queue = self.config.queue_cap;
                }
                let util = ((processed * spec.cost_us + tax) / VM_BUDGET_US).min(1.0);
                partition.busy_accum_us += util * VM_BUDGET_US;
                stage_processed += processed;
                stage_util = stage_util.max(util);
            }
            max_util = max_util.max(stage_util);

            // Latency contribution: service time plus queueing delay behind
            // the residual queue, plus a per-hop network/batching constant.
            // Aggregate compute is what the stage's VMs offer, not its
            // partition count — a consolidated stage drains more slowly.
            let stage_capacity = stage.vms as f64 * VM_BUDGET_US / spec.cost_us.max(0.01);
            let queue_delay_ms = if stage_capacity > 0.0 {
                (stage.total_queue() / stage_capacity) * 1_000.0
            } else {
                0.0
            };
            latency_ms += spec.cost_us / 1_000.0 + queue_delay_ms + self.config.network_hop_ms;
            if stage.disruption_s > 0 {
                latency_ms += stage.disruption_ms;
                stage.disruption_s -= 1;
            }

            if cumulative_selectivity > 0.0 {
                end_to_end_rate = end_to_end_rate.min(stage_processed / cumulative_selectivity);
            }
            cumulative_selectivity *= spec.selectivity;
            input = stage_processed * spec.selectivity;
        }
        let throughput = if end_to_end_rate.is_finite() {
            end_to_end_rate
        } else {
            0.0
        };

        // Scaling decisions at every report interval.
        let mut scaled_out = false;
        let mut scaled_in = false;
        let mut rebalanced = false;
        let mut consolidated = false;
        if t > 0 && t.saturating_sub(self.last_report_s) >= self.report_interval_s() {
            self.last_report_s = t;
            (scaled_out, scaled_in, rebalanced, consolidated) = self.evaluate_policy(t);
        }

        let p50 = latency_ms;
        let p95 = latency_ms * (1.0 + 3.0 * max_util * max_util);
        SimRecord {
            t,
            offered,
            throughput,
            dropped: dropped_total,
            vms: self.operator_vms(),
            latency_p50_ms: p50,
            latency_p95_ms: p95,
            stage_parallelism: self.parallelism(),
            scaled_out,
            scaled_in,
            rebalanced,
            consolidated,
        }
    }

    /// The policy's report interval in the engine's one-second steps (at
    /// least one: the engine cannot report more often than it steps).
    fn report_interval_s(&self) -> u64 {
        (self.config.policy.report_interval_ms / 1_000).max(1)
    }

    fn evaluate_policy(&mut self, t: u64) -> (bool, bool, bool, bool) {
        let interval_us = self.report_interval_s() as f64 * VM_BUDGET_US;
        let mut to_scale: Vec<usize> = Vec::new();
        // Stages with at least two partitions under the low watermark for the
        // full streak — the sim analogue of an adjacent idle sibling pair.
        let mut to_merge: Vec<usize> = Vec::new();
        // Skewed stages where a partition runs hot while the stage's mean
        // utilisation is fine: repartition by the key distribution instead of
        // consuming a VM (mirrors the runtime's rebalance plan).
        let mut to_rebalance: Vec<usize> = Vec::new();
        // Under-utilised stages whose partitions still spread over more VMs
        // than the slot capacity needs: pack them instead of merging, keeping
        // parallelism (mirrors the runtime's consolidate plan).
        let mut to_consolidate: Vec<usize> = Vec::new();
        let slots = self.config.slots_per_vm.max(1);
        for (idx, stage) in self.stages.iter_mut().enumerate() {
            let spec = &self.config.query.stages[idx];
            let mut low_triggered = 0usize;
            let mut hot_triggered = false;
            let mut util_sum = 0.0;
            for (pidx, partition) in stage.partitions.iter_mut().enumerate() {
                let utilization = (partition.busy_accum_us / interval_us).min(1.0);
                partition.busy_accum_us = 0.0;
                if !spec.scalable {
                    continue;
                }
                util_sum += utilization;
                if self
                    .tracker
                    .record(idx, pidx, utilization, &self.config.policy)
                {
                    hot_triggered = true;
                }
                if self
                    .tracker
                    .record_low(idx, pidx, utilization, &self.config.policy)
                {
                    low_triggered += 1;
                }
            }
            if hot_triggered {
                let mean = util_sum / stage.partitions.len().max(1) as f64;
                if self.config.policy.rebalance
                    && !stage.balanced
                    && stage.partitions.len() >= 2
                    && mean < self.config.policy.threshold
                {
                    to_rebalance.push(idx);
                } else if !to_scale.contains(&idx) {
                    to_scale.push(idx);
                }
            }
            if low_triggered >= 2 && stage.partitions.len() >= 2 {
                let packable = self.config.policy.consolidate
                    && slots >= 2
                    && stage.vms > stage.partitions.len().div_ceil(slots);
                if packable {
                    to_consolidate.push(idx);
                } else {
                    to_merge.push(idx);
                }
            }
        }
        if !self.config.dynamic_scaling {
            return (false, false, false, false);
        }
        let consolidated = self.consolidate_stages(&to_consolidate);
        let scaled_in = self.merge_stages(&to_merge);
        let rebalanced = self.rebalance_stages(&to_rebalance);
        let mut scaled = false;
        for idx in to_scale {
            if let Some(max) = self.config.max_vms {
                if self.operator_vms() >= max {
                    continue;
                }
            }
            if self.pool_available == 0 {
                // The pool is exhausted: the request waits for provisioning
                // (§5.2 discusses exactly this degradation).
                continue;
            }
            self.pool_available -= 1;
            self.pool_pending.push(t + self.config.provisioning_delay_s);
            let stage = &mut self.stages[idx];
            // Split the load: add one partition on its own fresh VM and
            // rebalance the queues.
            let total_queue = stage.total_queue();
            stage.partitions.push(Partition {
                queue: 0.0,
                busy_accum_us: 0.0,
            });
            stage.vms += 1;
            let n = stage.partitions.len() as f64;
            for partition in stage.partitions.iter_mut() {
                partition.queue = total_queue / n;
            }
            // Post-reconfiguration disruption: moving checkpointed state and
            // replaying buffered tuples shows up as a latency spike for a few
            // seconds (stateful operators move more state, so they disturb
            // longer; §6.1 reports peaks of up to 4 s).
            let spec = &self.config.query.stages[idx];
            let state_penalty_ms = if spec.stateful {
                500.0 + spec.state_bytes_per_k_keys as f64 / 1_000.0
            } else {
                150.0
            };
            let backlog_penalty_ms =
                (total_queue / n) * spec.cost_us / 1_000.0 / VM_BUDGET_US * 1_000.0 * 1_000.0;
            stage.disruption_s = self.config.scale_out_disruption_s;
            stage.disruption_ms = state_penalty_ms + backlog_penalty_ms;
            scaled = true;
        }
        (scaled, scaled_in, rebalanced, consolidated)
    }

    /// Consolidate under-utilised stages: pack the partitions onto
    /// `ceil(π / slots_per_vm)` VMs and return the emptied VMs to the spare
    /// pool. Parallelism and key boundaries are untouched — from now on
    /// co-resident partitions share their VM's compute — and the
    /// checkpoint-move restore shows up as a short disruption, like a
    /// scale-in's.
    fn consolidate_stages(&mut self, stages: &[usize]) -> bool {
        let slots = self.config.slots_per_vm.max(1);
        let mut consolidated = false;
        for &idx in stages {
            let stage = &mut self.stages[idx];
            let needed = stage.partitions.len().div_ceil(slots);
            if stage.vms <= needed {
                continue;
            }
            let freed = stage.vms - needed;
            stage.vms = needed;
            self.pool_available += freed;
            let spec = &self.config.query.stages[idx];
            let state_penalty_ms = if spec.stateful {
                250.0 + spec.state_bytes_per_k_keys as f64 / 2_000.0
            } else {
                75.0
            };
            stage.disruption_s = self.config.scale_out_disruption_s.div_ceil(2);
            stage.disruption_ms = stage.disruption_ms.max(state_penalty_ms);
            consolidated = true;
        }
        consolidated
    }

    /// Rebalance skewed stages: the key boundaries are re-drawn from the
    /// observed distribution (the runtime samples the backed-up checkpoint),
    /// so from now on the hot share spreads across the partitions. No VM is
    /// taken or returned; the queues even out and the restore shows up as a
    /// short disruption, like a scale-in's.
    fn rebalance_stages(&mut self, stages: &[usize]) -> bool {
        let mut rebalanced = false;
        for &idx in stages {
            let stage = &mut self.stages[idx];
            if stage.partitions.len() < 2 || stage.balanced {
                continue;
            }
            stage.balanced = true;
            let n = stage.partitions.len() as f64;
            let total_queue = stage.total_queue();
            for partition in stage.partitions.iter_mut() {
                partition.queue = total_queue / n;
            }
            let spec = &self.config.query.stages[idx];
            let state_penalty_ms = if spec.stateful {
                250.0 + spec.state_bytes_per_k_keys as f64 / 2_000.0
            } else {
                75.0
            };
            stage.disruption_s = self.config.scale_out_disruption_s.div_ceil(2);
            stage.disruption_ms = stage.disruption_ms.max(state_penalty_ms);
            rebalanced = true;
        }
        rebalanced
    }

    /// Merge one partition away from each of `stages` (scale in): the
    /// partition's queue is redistributed over the survivors and its VM goes
    /// back to the spare pool, ready for the next scale out. Moving the
    /// merged state disturbs latency like a scale out does, only shorter —
    /// the merge happens off the critical path at the backup VM and only the
    /// restore is visible.
    fn merge_stages(&mut self, stages: &[usize]) -> bool {
        let mut merged = false;
        for &idx in stages {
            let stage = &mut self.stages[idx];
            if stage.partitions.len() < 2 {
                continue;
            }
            let removed_idx = stage.partitions.len() - 1;
            let removed = stage.partitions.pop().expect("checked length");
            self.tracker.forget(idx, removed_idx);
            let n = stage.partitions.len() as f64;
            let total_queue = stage.total_queue() + removed.queue;
            for partition in stage.partitions.iter_mut() {
                partition.queue = total_queue / n;
            }
            // The victim's VM returns to the pool only when the merge empties
            // it — on a consolidated stage the slot is vacated but the VM
            // keeps hosting co-resident partitions.
            if stage.vms > stage.partitions.len() {
                stage.vms = stage.partitions.len();
                self.pool_available += 1;
            }
            let spec = &self.config.query.stages[idx];
            let state_penalty_ms = if spec.stateful {
                250.0 + spec.state_bytes_per_k_keys as f64 / 2_000.0
            } else {
                75.0
            };
            stage.disruption_s = self.config.scale_out_disruption_s.div_ceil(2);
            stage.disruption_ms = stage.disruption_ms.max(state_penalty_ms);
            merged = true;
        }
        merged
    }

    /// Run the simulation for `duration_s` seconds with the offered rate
    /// given by `rate_at` (tuples/s as a function of the simulated second).
    pub fn run(&mut self, duration_s: u64, rate_at: impl Fn(u64) -> f64) -> SimTrace {
        let mut trace = SimTrace::default();
        for t in 0..duration_s {
            let offered = rate_at(t);
            trace.push(self.step(t, offered));
        }
        trace
    }

    /// The configuration the engine runs with.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Amortised checkpoint CPU tax (µs per second) of a stage — exposed for
    /// the ablation benchmarks.
    pub fn stage_checkpoint_tax_us(&self, stage_idx: usize) -> f64 {
        self.checkpoint_tax_us(stage_idx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{lrb_query, mapreduce_query};
    use seep_workloads::lrb::aggregate_rate_at;

    fn lrb_config() -> SimConfig {
        SimConfig {
            query: lrb_query(),
            vm_pool_size: 6,
            provisioning_delay_s: 60,
            ..SimConfig::default()
        }
    }

    #[test]
    fn starts_with_one_vm_per_operator() {
        let engine = SimEngine::new(lrb_config());
        assert_eq!(engine.operator_vms(), 7);
        assert_eq!(engine.parallelism(), vec![1; 7]);
        assert_eq!(engine.pool_available(), 6);
    }

    #[test]
    fn closed_loop_lrb_scales_out_and_keeps_up() {
        // A compressed LRB run: L = 64 over 600 simulated seconds.
        let mut engine = SimEngine::new(lrb_config());
        let duration = 600;
        let trace = engine.run(duration, |t| {
            aggregate_rate_at(t as u32, duration as u32, 64)
        });
        let summary = trace.summary();
        assert!(summary.scale_out_actions > 0, "the system must scale out");
        assert!(summary.final_vms > 7, "more VMs than at deployment");
        // Throughput tracks the offered rate at the end of the run (within a
        // small backlog tolerance) — the closed-loop requirement.
        let last = trace.records.last().unwrap();
        assert!(
            last.throughput > last.offered * 0.5,
            "throughput {} vs offered {}",
            last.throughput,
            last.offered
        );
        // The toll calculator ends up as the most partitioned scalable stage.
        let parallelism = summary.final_parallelism;
        let toll_idx = engine.config().query.index_of("toll_calculator").unwrap();
        let max_parallelism = *parallelism.iter().max().unwrap();
        assert_eq!(parallelism[toll_idx], max_parallelism);
    }

    #[test]
    fn open_loop_drops_until_scaled() {
        let mut engine = SimEngine::new(SimConfig {
            query: mapreduce_query(),
            open_loop: true,
            queue_cap: 50_000.0,
            vm_pool_size: 8,
            provisioning_delay_s: 30,
            ..SimConfig::default()
        });
        let trace = engine.run(400, |_| 400_000.0);
        let first_half_dropped: f64 = trace.records[..200].iter().map(|r| r.dropped).sum();
        let last_quarter_dropped: f64 = trace.records[300..].iter().map(|r| r.dropped).sum();
        assert!(first_half_dropped > 0.0, "under-provisioned at the start");
        assert!(
            last_quarter_dropped < first_half_dropped,
            "after scaling out the drop rate must fall ({last_quarter_dropped} vs {first_half_dropped})"
        );
        let summary = trace.summary();
        assert!(summary.final_vms > 4);
    }

    #[test]
    fn higher_threshold_allocates_fewer_vms() {
        let duration = 600u64;
        let run_with = |threshold: f64| {
            let mut engine = SimEngine::new(SimConfig {
                policy: ScalingPolicy::default().with_threshold(threshold),
                ..lrb_config()
            });
            let trace = engine.run(duration, |t| {
                aggregate_rate_at(t as u32, duration as u32, 32)
            });
            trace.summary().final_vms
        };
        let low = run_with(0.10);
        let high = run_with(0.90);
        assert!(
            low >= high,
            "δ=10% should allocate at least as many VMs as δ=90% ({low} vs {high})"
        );
        assert!(low > 7, "a 10% threshold must scale out");
    }

    #[test]
    fn manual_allocation_does_not_scale() {
        let mut engine = SimEngine::new(SimConfig {
            dynamic_scaling: false,
            initial_parallelism: vec![1, 3, 8, 2, 1, 1, 1],
            ..lrb_config()
        });
        assert_eq!(engine.operator_vms(), 17);
        let trace = engine.run(300, |_| 50_000.0);
        let summary = trace.summary();
        assert_eq!(summary.scale_out_actions, 0);
        assert_eq!(summary.final_vms, 17);
    }

    #[test]
    fn scale_out_causes_latency_disruption() {
        let mut engine = SimEngine::new(lrb_config());
        let duration = 400;
        let trace = engine.run(duration, |t| {
            aggregate_rate_at(t as u32, duration as u32, 64)
        });
        // Find a scale-out second and compare its p95 latency with a quiet
        // second shortly before it.
        let scaled_at = trace
            .records
            .iter()
            .position(|r| r.scaled_out)
            .expect("at least one scale out");
        let spike: f64 = trace.records[scaled_at..(scaled_at + 3).min(trace.len())]
            .iter()
            .map(|r| r.latency_p95_ms)
            .fold(0.0, f64::max);
        let quiet = trace.records[scaled_at.saturating_sub(10)].latency_p95_ms;
        assert!(
            spike > quiet,
            "scale out must disturb tail latency (spike {spike} vs quiet {quiet})"
        );
    }

    #[test]
    fn pool_exhaustion_delays_scaling() {
        let mut no_pool = SimEngine::new(SimConfig {
            vm_pool_size: 0,
            ..lrb_config()
        });
        let duration = 300;
        let trace = no_pool.run(duration, |t| {
            aggregate_rate_at(t as u32, duration as u32, 64)
        });
        // Without any pool the system can never obtain a VM (refill only
        // happens up to the pool target), so no scale out can occur.
        assert_eq!(trace.summary().scale_out_actions, 0);
    }

    #[test]
    fn checkpoint_tax_applies_only_to_stateful_stages() {
        let engine = SimEngine::new(lrb_config());
        let q = engine.config().query.clone();
        let forwarder = q.index_of("forwarder").unwrap();
        let toll = q.index_of("toll_calculator").unwrap();
        assert_eq!(engine.stage_checkpoint_tax_us(forwarder), 0.0);
        assert!(engine.stage_checkpoint_tax_us(toll) > 0.0);
    }

    #[test]
    fn durable_store_profiles_raise_the_checkpoint_tax() {
        let mem = SimEngine::new(lrb_config());
        let file = SimEngine::new(SimConfig {
            store: SimStoreProfile::file(),
            ..lrb_config()
        });
        let tiered = SimEngine::new(SimConfig {
            store: SimStoreProfile::tiered(),
            ..lrb_config()
        });
        let toll = mem.config().query.index_of("toll_calculator").unwrap();
        let t_mem = mem.stage_checkpoint_tax_us(toll);
        let t_tiered = tiered.stage_checkpoint_tax_us(toll);
        let t_file = file.stage_checkpoint_tax_us(toll);
        assert!(t_mem < t_tiered && t_tiered < t_file);
        // Stateless stages pay nothing regardless of backend.
        let fwd = mem.config().query.index_of("forwarder").unwrap();
        assert_eq!(file.stage_checkpoint_tax_us(fwd), 0.0);
    }

    #[test]
    fn ramp_down_releases_vms_when_scale_in_enabled() {
        let config = SimConfig {
            policy: ScalingPolicy::default().with_scale_in(0.2),
            ..lrb_config()
        };
        let mut engine = SimEngine::new(config);
        let pool_before = engine.pool_available();
        // High load for 300 s (forces scale out), then a trickle for 300 s.
        let trace = engine.run(600, |t| if t < 300 { 120_000.0 } else { 500.0 });
        let summary = trace.summary();
        assert!(summary.scale_out_actions > 0, "the ramp must scale out");
        assert!(
            summary.scale_in_actions > 0,
            "idle partitions must be merged after the ramp down"
        );
        assert!(
            summary.final_vms < summary.peak_vms,
            "VMs released: {} final vs {} peak",
            summary.final_vms,
            summary.peak_vms
        );
        // Released VMs return to the spare pool, ready for the next burst.
        assert!(engine.pool_available() > pool_before);
        // Never below one partition per stage.
        assert!(summary.final_parallelism.iter().all(|p| *p >= 1));
    }

    #[test]
    fn ramp_down_consolidates_before_merging_with_multislot_vms() {
        let config = SimConfig {
            policy: ScalingPolicy::default()
                .with_scale_in(0.2)
                .with_consolidate(),
            slots_per_vm: 2,
            ..lrb_config()
        };
        let mut engine = SimEngine::new(config);
        let trace = engine.run(600, |t| if t < 300 { 120_000.0 } else { 500.0 });
        let summary = trace.summary();
        assert!(summary.scale_out_actions > 0, "the ramp must scale out");
        assert!(
            summary.consolidate_actions > 0,
            "idle partitions must be packed onto shared VMs"
        );
        assert!(
            summary.final_vms < summary.peak_vms,
            "consolidation must release VMs: {} final vs {} peak",
            summary.final_vms,
            summary.peak_vms
        );
        // VMs never undercount the slot maths: every stage keeps at least
        // ceil(π / slots) VMs.
        let last = trace.records.last().unwrap();
        for (stage, p) in last.stage_parallelism.iter().enumerate() {
            let _ = stage;
            assert!(*p >= 1);
        }
    }

    #[test]
    fn single_slot_vms_never_consolidate() {
        let config = SimConfig {
            policy: ScalingPolicy::default()
                .with_scale_in(0.2)
                .with_consolidate(),
            // slots_per_vm stays 1: there is nothing to pack onto.
            ..lrb_config()
        };
        let mut engine = SimEngine::new(config);
        let trace = engine.run(600, |t| if t < 300 { 120_000.0 } else { 500.0 });
        let summary = trace.summary();
        assert_eq!(summary.consolidate_actions, 0);
        assert!(summary.scale_in_actions > 0, "merge path still works");
    }

    #[test]
    fn scale_in_disabled_keeps_vms_after_ramp_down() {
        let mut engine = SimEngine::new(lrb_config());
        let trace = engine.run(600, |t| if t < 300 { 120_000.0 } else { 500.0 });
        let summary = trace.summary();
        assert_eq!(summary.scale_in_actions, 0);
        assert_eq!(
            summary.final_vms, summary.peak_vms,
            "without scale in the deployment stays at its peak"
        );
    }

    #[test]
    fn skewed_stage_rebalances_instead_of_hoarding_vms() {
        // 60 % of the traffic pinned to one partition's key range (the
        // expressway-skew shape). At 30 k tuples/s the toll calculator needs
        // two VMs in aggregate — but the hot partition alone overflows one,
        // so an even-split policy keeps splitting without relief, while a
        // rebalance-aware policy re-draws the boundary once and stops.
        let run = |rebalance: bool| {
            let policy = if rebalance {
                ScalingPolicy::default().with_rebalance()
            } else {
                ScalingPolicy::default()
            };
            let mut engine = SimEngine::new(SimConfig {
                hot_fraction: 0.6,
                policy,
                ..lrb_config()
            });
            engine.run(400, |_| 30_000.0).summary()
        };
        let plain = run(false);
        let balanced = run(true);
        assert_eq!(plain.rebalance_actions, 0);
        assert!(
            balanced.rebalance_actions > 0,
            "the skewed stage must be rebalanced"
        );
        assert!(
            balanced.final_vms < plain.final_vms,
            "rebalancing must save VMs ({} vs {})",
            balanced.final_vms,
            plain.final_vms
        );
        assert!(
            balanced.scale_out_actions < plain.scale_out_actions,
            "rebalancing must absorb scale-out pressure ({} vs {})",
            balanced.scale_out_actions,
            plain.scale_out_actions
        );
    }

    #[test]
    fn uniform_load_never_rebalances() {
        let mut engine = SimEngine::new(SimConfig {
            policy: ScalingPolicy::default().with_rebalance(),
            ..lrb_config()
        });
        let summary = engine.run(300, |_| 30_000.0).summary();
        assert_eq!(
            summary.rebalance_actions, 0,
            "no skew configured, nothing to rebalance"
        );
    }

    #[test]
    fn max_vms_caps_growth() {
        let mut engine = SimEngine::new(SimConfig {
            max_vms: Some(10),
            ..lrb_config()
        });
        let duration = 600;
        let trace = engine.run(duration, |t| {
            aggregate_rate_at(t as u32, duration as u32, 128)
        });
        assert!(trace.summary().peak_vms <= 10);
    }
}
