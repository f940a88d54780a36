//! Runtime metrics: processing latency, throughput, checkpoint cost, and
//! one list of committed reconfiguration plans ([`ReconfigRecord`]) — scale
//! out, scale in, rebalance, consolidate and recovery are entries of that
//! one list, told apart by their [`JournalKind`]; the per-kind accessors and
//! snapshot counts are filtered views of it.
//!
//! The paper reports processing latency percentiles (median, 95th, 99th),
//! throughput over time, recovery times and the number of allocated VMs; the
//! metrics registry collects exactly those so the benchmark harness can print
//! the same series.

use std::collections::HashMap;

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

use seep_core::{HistogramSnapshot, LatencyHistogram, LogicalOpId, OperatorId};

use crate::obs::JournalKind;

/// One checkpoint taken by the runtime.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CheckpointRecord {
    /// Operator checkpointed.
    pub operator: OperatorId,
    /// Virtual time at which it was taken (ms).
    pub at_ms: u64,
    /// Wall-clock cost of taking and backing up the checkpoint (µs).
    pub duration_us: u64,
    /// Size of the checkpoint (bytes).
    pub size_bytes: usize,
    /// Bytes actually written to the backup store (the framed record size
    /// for durable backends; a delta when the backup was incremental).
    #[serde(default)]
    pub stored_bytes: usize,
    /// Whether the backup was shipped as an incremental delta.
    #[serde(default)]
    pub incremental: bool,
}

/// Aggregate I/O counters of one checkpoint-store backend, as observed by
/// the runtime (write side: `backup-state`; restore side: recovery and scale
/// out retrievals).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct StoreIoRecord {
    /// Full-checkpoint writes.
    pub writes: u64,
    /// Incremental (delta) writes.
    pub incremental_writes: u64,
    /// Bytes written to the store.
    pub write_bytes: u64,
    /// Cumulative write latency (µs).
    pub write_us: u64,
    /// Checkpoints read back.
    pub restores: u64,
    /// Bytes read back.
    pub restore_bytes: u64,
    /// Cumulative restore latency (µs).
    pub restore_us: u64,
}

/// How the key range of a reconfigured operator was split.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum SplitKind {
    /// No split took place (e.g. a merge, or a serial π=1 replacement).
    #[default]
    None,
    /// Even key-space split (hash partitioning).
    Even,
    /// Distribution-guided split from a sampled checkpoint.
    Distribution,
}

impl SplitKind {
    /// Short label for experiment output.
    pub fn label(self) -> &'static str {
        match self {
            SplitKind::None => "none",
            SplitKind::Even => "even",
            SplitKind::Distribution => "distribution",
        }
    }
}

/// Wall-clock cost of one reconfiguration, broken down by plan phase, plus
/// the key-split decision the plan took. Carried by every
/// [`ReconfigRecord`] and journal event, so benches read reconfiguration
/// cost from the metrics registry instead of timing the runtime calls
/// externally.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct ReconfigTiming {
    /// Draining the reconfigured partitions' inbound queues (µs).
    pub drain_us: u64,
    /// Capturing state: checkpoints, backup retrieval, store-side merge (µs).
    pub checkpoint_us: u64,
    /// Rewriting the execution graph and choosing the key split (µs).
    pub rewrite_us: u64,
    /// Splitting or merging the captured checkpoint (µs).
    pub transform_us: u64,
    /// Creating workers and restoring state onto their VMs (µs).
    pub restore_us: u64,
    /// Storing the new partitions' initial backups and retiring the replaced
    /// instances (µs).
    pub commit_us: u64,
    /// Updating routing and replaying buffered tuples (µs).
    pub replay_us: u64,
    /// End-to-end wall-clock cost of the reconfiguration (µs), excluding
    /// catch-up processing.
    pub total_us: u64,
    /// How the key range was split.
    pub split: SplitKind,
    /// Post-split load imbalance over the sampled keys: largest per-partition
    /// share divided by the ideal equal share (1.0 = perfectly balanced,
    /// 0.0 = no sample was available).
    pub post_split_imbalance: f64,
}

/// One committed reconfiguration plan — the single record kind for scale
/// out, scale in, rebalance, consolidate and recovery.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReconfigRecord {
    /// Which plan ran. A recovery is recorded once, as a recovery.
    pub kind: JournalKind,
    /// The logical operator that was reconfigured.
    pub logical: LogicalOpId,
    /// Parallelism of that logical operator after the plan.
    pub parallelism: usize,
    /// Virtual time of the plan (ms).
    pub at_ms: u64,
    /// Wall-clock cost of the action (µs). Equals `timing.total_us` except
    /// for a recovery, where it runs to the end of the catch-up processing
    /// (restore + replay + re-processing of the replayed tuples).
    pub duration_us: u64,
    /// Tuples replayed from restored and upstream buffers (for a
    /// source-replay recovery, the source replay included).
    pub replayed_tuples: usize,
    /// VMs emptied by the plan and released to the provider.
    pub vms_released: usize,
    /// Per-phase cost and key-split decision of the plan (excluding any
    /// catch-up processing).
    pub timing: ReconfigTiming,
    /// Recovery only: the failed instance the plan replaced.
    pub failed: Option<OperatorId>,
    /// Label of the fault-tolerance strategy in force ("R+SM", "UB", "SR"):
    /// it decides what state the plan starts from and what a recovery
    /// replays.
    pub strategy: &'static str,
}

impl ReconfigRecord {
    /// [`duration_us`](Self::duration_us) in milliseconds — for a recovery,
    /// the paper's recovery time.
    pub fn duration_ms(&self) -> f64 {
        self.duration_us as f64 / 1_000.0
    }
}

#[derive(Debug, Default)]
struct MetricsInner {
    latencies_us: Vec<u64>,
    latency_hist: LatencyHistogram,
    sink_tuples: u64,
    processed: HashMap<OperatorId, u64>,
    checkpoints: Vec<CheckpointRecord>,
    checkpoint_failures: HashMap<OperatorId, u64>,
    reconfigs: Vec<ReconfigRecord>,
    dropped_sends: u64,
    store_io: HashMap<String, StoreIoRecord>,
}

/// Thread-safe metrics registry shared by the runtime and its workers.
#[derive(Debug, Default)]
pub struct Metrics {
    inner: Mutex<MetricsInner>,
}

/// A point-in-time copy of aggregate metrics.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Number of tuples that reached a sink.
    pub sink_tuples: u64,
    /// Total tuples processed across operators.
    pub total_processed: u64,
    /// Median end-to-end latency (ms).
    pub latency_p50_ms: f64,
    /// 95th percentile end-to-end latency (ms).
    pub latency_p95_ms: f64,
    /// 99th percentile end-to-end latency (ms).
    pub latency_p99_ms: f64,
    /// Number of checkpoints taken.
    pub checkpoints: usize,
    /// Number of recoveries performed.
    pub recoveries: usize,
    /// Number of scale-out actions performed.
    pub scale_outs: usize,
    /// Number of scale-in (merge) actions performed.
    #[serde(default)]
    pub scale_ins: usize,
    /// Number of rebalance (repartition-in-place) actions performed.
    #[serde(default)]
    pub rebalances: usize,
    /// Number of consolidation (partition bin-packing) actions performed.
    #[serde(default)]
    pub consolidates: usize,
    /// Sends that failed because the destination was disconnected.
    pub dropped_sends: u64,
    /// Bytes written to checkpoint stores (all backends).
    pub store_write_bytes: u64,
    /// Bytes read back from checkpoint stores (all backends).
    pub store_restore_bytes: u64,
}

impl Metrics {
    /// Create an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one end-to-end latency sample observed at a sink. The sample
    /// feeds both the exact nearest-rank percentiles and the fixed log-scale
    /// histogram the Prometheus exporter renders.
    pub fn record_latency_us(&self, us: u64) {
        let mut inner = self.inner.lock();
        inner.latencies_us.push(us);
        inner.latency_hist.record_us(us);
        inner.sink_tuples += 1;
    }

    /// Record that an operator processed `n` tuples.
    pub fn record_processed(&self, operator: OperatorId, n: u64) {
        *self.inner.lock().processed.entry(operator).or_insert(0) += n;
    }

    /// Record `n` tuples dropped by one batch send that failed because the
    /// destination is gone.
    pub fn record_dropped_sends(&self, n: u64) {
        self.inner.lock().dropped_sends += n;
    }

    /// Record a checkpoint.
    pub fn record_checkpoint(&self, record: CheckpointRecord) {
        self.inner.lock().checkpoints.push(record);
    }

    /// Record a periodic checkpoint of `operator` that failed: nothing was
    /// backed up and its upstream buffers were not trimmed.
    pub fn record_checkpoint_failure(&self, operator: OperatorId) {
        *self
            .inner
            .lock()
            .checkpoint_failures
            .entry(operator)
            .or_insert(0) += 1;
    }

    /// Record a committed reconfiguration plan.
    pub fn record_reconfig(&self, record: ReconfigRecord) {
        self.inner.lock().reconfigs.push(record);
    }

    /// Amend the most recent plan record — a recovery stretches its plan's
    /// entry to the end of the catch-up it owns. Returns the amended record.
    pub fn amend_last_reconfig(
        &self,
        amend: impl FnOnce(&mut ReconfigRecord),
    ) -> Option<ReconfigRecord> {
        let mut inner = self.inner.lock();
        let last = inner.reconfigs.last_mut()?;
        amend(last);
        Some(*last)
    }

    /// Record a checkpoint write against the store backend `backend`.
    pub fn record_store_write(&self, backend: &str, bytes: usize, us: u64, incremental: bool) {
        let mut inner = self.inner.lock();
        let entry = inner.store_io.entry(backend.to_string()).or_default();
        if incremental {
            entry.incremental_writes += 1;
        } else {
            entry.writes += 1;
        }
        entry.write_bytes += bytes as u64;
        entry.write_us += us;
    }

    /// Record a checkpoint restore (read-back) from the backend `backend`.
    pub fn record_store_restore(&self, backend: &str, bytes: usize, us: u64) {
        let mut inner = self.inner.lock();
        let entry = inner.store_io.entry(backend.to_string()).or_default();
        entry.restores += 1;
        entry.restore_bytes += bytes as u64;
        entry.restore_us += us;
    }

    /// The I/O counters of one store backend ("mem", "file", "tiered").
    pub fn store_io(&self, backend: &str) -> StoreIoRecord {
        self.inner
            .lock()
            .store_io
            .get(backend)
            .copied()
            .unwrap_or_default()
    }

    /// I/O counters of every backend that saw traffic, sorted by label.
    pub fn store_io_all(&self) -> Vec<(String, StoreIoRecord)> {
        let mut v: Vec<(String, StoreIoRecord)> = self
            .inner
            .lock()
            .store_io
            .iter()
            .map(|(k, r)| (k.clone(), *r))
            .collect();
        v.sort_by(|a, b| a.0.cmp(&b.0));
        v
    }

    /// The latency value at percentile `p` (0–100), in milliseconds.
    /// Returns 0 when no samples exist.
    pub fn latency_percentile_ms(&self, p: f64) -> f64 {
        let inner = self.inner.lock();
        percentile_us(&inner.latencies_us, p) / 1_000.0
    }

    /// Number of latency samples recorded.
    pub fn latency_samples(&self) -> usize {
        self.inner.lock().latencies_us.len()
    }

    /// Bucketed copy of the latency distribution: the fixed log-scale
    /// histogram backing the Prometheus `_bucket`/`_sum`/`_count` export.
    pub fn latency_histogram(&self) -> HistogramSnapshot {
        self.inner.lock().latency_hist.snapshot()
    }

    /// Tuples processed by a given operator.
    pub fn processed_by(&self, operator: OperatorId) -> u64 {
        self.inner
            .lock()
            .processed
            .get(&operator)
            .copied()
            .unwrap_or(0)
    }

    /// Periodic checkpoints of `operator` that failed so far.
    pub fn checkpoint_failures_of(&self, operator: OperatorId) -> u64 {
        self.inner
            .lock()
            .checkpoint_failures
            .get(&operator)
            .copied()
            .unwrap_or(0)
    }

    /// Every committed plan so far, in commit order.
    pub fn reconfigs(&self) -> Vec<ReconfigRecord> {
        self.inner.lock().reconfigs.clone()
    }

    /// The committed plans of one kind, in commit order.
    pub fn reconfigs_of(&self, kind: JournalKind) -> Vec<ReconfigRecord> {
        let inner = self.inner.lock();
        inner
            .reconfigs
            .iter()
            .filter(|r| r.kind == kind)
            .copied()
            .collect()
    }

    /// All checkpoint records so far.
    pub fn checkpoints(&self) -> Vec<CheckpointRecord> {
        self.inner.lock().checkpoints.clone()
    }

    /// The scale outs so far: [`reconfigs_of`](Self::reconfigs_of) under the
    /// name the repo benchmark reads (as are the next two).
    pub fn scale_outs(&self) -> Vec<ReconfigRecord> {
        self.reconfigs_of(JournalKind::ScaleOut)
    }

    /// The scale ins so far.
    pub fn scale_ins(&self) -> Vec<ReconfigRecord> {
        self.reconfigs_of(JournalKind::ScaleIn)
    }

    /// The recoveries so far.
    pub fn recoveries(&self) -> Vec<ReconfigRecord> {
        self.reconfigs_of(JournalKind::Recovery)
    }

    /// Clear latency samples (used between experiment phases so the measured
    /// percentiles cover only the phase of interest).
    pub fn reset_latencies(&self) {
        let mut inner = self.inner.lock();
        inner.latencies_us.clear();
        inner.latency_hist.reset();
    }

    /// Aggregate snapshot of the registry.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let inner = self.inner.lock();
        let count = |kind| inner.reconfigs.iter().filter(|r| r.kind == kind).count();
        MetricsSnapshot {
            sink_tuples: inner.sink_tuples,
            total_processed: inner.processed.values().sum(),
            latency_p50_ms: percentile_us(&inner.latencies_us, 50.0) / 1_000.0,
            latency_p95_ms: percentile_us(&inner.latencies_us, 95.0) / 1_000.0,
            latency_p99_ms: percentile_us(&inner.latencies_us, 99.0) / 1_000.0,
            checkpoints: inner.checkpoints.len(),
            recoveries: count(JournalKind::Recovery),
            scale_outs: count(JournalKind::ScaleOut),
            scale_ins: count(JournalKind::ScaleIn),
            rebalances: count(JournalKind::Rebalance),
            consolidates: count(JournalKind::Consolidate),
            dropped_sends: inner.dropped_sends,
            store_write_bytes: inner.store_io.values().map(|r| r.write_bytes).sum(),
            store_restore_bytes: inner.store_io.values().map(|r| r.restore_bytes).sum(),
        }
    }
}

/// Percentile of a sample set in µs (nearest-rank). 0 for an empty set.
fn percentile_us(samples: &[u64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let rank = ((p / 100.0) * (sorted.len() as f64 - 1.0)).round() as usize;
    sorted[rank.min(sorted.len() - 1)] as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_over_known_samples() {
        let m = Metrics::new();
        for i in 1..=100u64 {
            m.record_latency_us(i * 1_000); // 1..=100 ms
        }
        assert_eq!(m.latency_samples(), 100);
        assert!((m.latency_percentile_ms(50.0) - 50.0).abs() <= 1.0);
        assert!((m.latency_percentile_ms(95.0) - 95.0).abs() <= 1.0);
        assert!((m.latency_percentile_ms(99.0) - 99.0).abs() <= 1.0);
        let snap = m.snapshot();
        assert_eq!(snap.sink_tuples, 100);
        assert!(snap.latency_p99_ms >= snap.latency_p50_ms);
    }

    #[test]
    fn empty_metrics_are_zero() {
        let m = Metrics::new();
        assert_eq!(m.latency_percentile_ms(95.0), 0.0);
        let snap = m.snapshot();
        assert_eq!(snap.sink_tuples, 0);
        assert_eq!(snap.total_processed, 0);
    }

    #[test]
    fn counters_accumulate() {
        let m = Metrics::new();
        m.record_processed(OperatorId::new(1), 10);
        m.record_processed(OperatorId::new(1), 5);
        m.record_processed(OperatorId::new(2), 1);
        m.record_dropped_sends(1);
        assert_eq!(m.processed_by(OperatorId::new(1)), 15);
        assert_eq!(m.processed_by(OperatorId::new(9)), 0);
        assert_eq!(m.snapshot().total_processed, 16);
        assert_eq!(m.snapshot().dropped_sends, 1);
    }

    #[test]
    fn event_records_are_kept() {
        let m = Metrics::new();
        m.record_checkpoint(CheckpointRecord {
            operator: OperatorId::new(1),
            at_ms: 5_000,
            duration_us: 200,
            size_bytes: 1024,
            stored_bytes: 1100,
            incremental: false,
        });
        let timing = ReconfigTiming {
            drain_us: 1,
            checkpoint_us: 2,
            rewrite_us: 3,
            transform_us: 4,
            restore_us: 5,
            commit_us: 6,
            replay_us: 7,
            total_us: 28,
            split: SplitKind::Distribution,
            post_split_imbalance: 1.1,
        };
        let record = |kind, at_ms, replayed_tuples, timing| ReconfigRecord {
            kind,
            logical: LogicalOpId(2),
            parallelism: 2,
            at_ms,
            duration_us: 900,
            replayed_tuples,
            vms_released: 0,
            timing,
            failed: None,
            strategy: "R+SM",
        };
        m.record_reconfig(ReconfigRecord {
            failed: Some(OperatorId::new(1)),
            ..record(JournalKind::Recovery, 5_500, 100, ReconfigTiming::default())
        });
        m.record_reconfig(record(JournalKind::ScaleOut, 6_000, 0, timing));
        m.record_reconfig(record(
            JournalKind::ScaleIn,
            60_000,
            12,
            ReconfigTiming::default(),
        ));
        m.record_reconfig(record(JournalKind::Rebalance, 70_000, 4, timing));
        assert_eq!(m.checkpoints().len(), 1);
        assert_eq!(m.recoveries().len(), 1);
        assert_eq!(m.scale_outs().len(), 1);
        assert_eq!(m.scale_ins().len(), 1);
        assert_eq!(m.scale_ins()[0].replayed_tuples, 12);
        assert_eq!(m.reconfigs_of(JournalKind::Rebalance).len(), 1);
        assert_eq!(m.reconfigs().len(), 4, "one list, in commit order");
        assert_eq!(m.recoveries()[0].failed, Some(OperatorId::new(1)));
        assert_eq!(m.recoveries()[0].duration_ms(), 0.9);
        assert_eq!(m.scale_outs()[0].timing.split, SplitKind::Distribution);
        assert_eq!(m.scale_outs()[0].timing.split.label(), "distribution");
        assert!(m.scale_outs()[0].timing.post_split_imbalance > 1.0);
        let snap = m.snapshot();
        assert_eq!(snap.checkpoints, 1);
        assert_eq!(snap.recoveries, 1);
        assert_eq!(snap.scale_outs, 1);
        assert_eq!(snap.scale_ins, 1);
        assert_eq!(snap.rebalances, 1);
    }

    #[test]
    fn store_io_counters_accumulate_per_backend() {
        let m = Metrics::new();
        m.record_store_write("file", 1_000, 50, false);
        m.record_store_write("file", 200, 10, true);
        m.record_store_restore("file", 1_200, 80);
        m.record_store_write("mem", 500, 1, false);
        let file = m.store_io("file");
        assert_eq!(file.writes, 1);
        assert_eq!(file.incremental_writes, 1);
        assert_eq!(file.write_bytes, 1_200);
        assert_eq!(file.write_us, 60);
        assert_eq!(file.restores, 1);
        assert_eq!(file.restore_bytes, 1_200);
        assert_eq!(m.store_io("tiered"), StoreIoRecord::default());
        let all = m.store_io_all();
        assert_eq!(all.len(), 2);
        assert_eq!(all[0].0, "file");
        let snap = m.snapshot();
        assert_eq!(snap.store_write_bytes, 1_700);
        assert_eq!(snap.store_restore_bytes, 1_200);
    }

    #[test]
    fn reset_latencies_clears_samples_only() {
        let m = Metrics::new();
        m.record_latency_us(1_000);
        m.record_processed(OperatorId::new(1), 1);
        m.reset_latencies();
        assert_eq!(m.latency_samples(), 0);
        assert_eq!(m.latency_histogram().count, 0, "histogram follows");
        assert_eq!(m.processed_by(OperatorId::new(1)), 1);
    }

    #[test]
    fn latency_histogram_tracks_samples() {
        let m = Metrics::new();
        for i in 1..=100u64 {
            m.record_latency_us(i * 1_000);
        }
        let h = m.latency_histogram();
        assert_eq!(h.count, 100);
        assert_eq!(h.sum_us, (1..=100u64).map(|i| i * 1_000).sum::<u64>());
        assert_eq!(h.counts.iter().sum::<u64>(), 100);
        assert_eq!(*h.cumulative().last().unwrap(), h.count);
    }
}
