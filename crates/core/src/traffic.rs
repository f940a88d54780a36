//! Per-key traffic statistics for skew detection.
//!
//! The checkpoint sample used by distribution-guided key splits originally
//! weighted keys by their **state footprint** — a proxy that works for
//! windowed aggregations (hot keys accumulate more state) but misrepresents
//! operators whose per-key state is constant-size. [`TrafficStats`] carries
//! the signal directly: the worker counts the tuples it processes per key and
//! decays the counters exponentially at every utilisation report, so old hot
//! spots fade instead of pinning the boundaries forever. Checkpoints embed a
//! copy, which travels through backups, merges and partitioning like the rest
//! of the operator state, and [`crate::Checkpoint::sample_keys`] prefers it
//! over the footprint heuristic whenever counts are available.

use std::collections::HashMap;

use serde::{Deserialize, Serialize};

use crate::key::KeyRange;
use crate::tuple::Key;

/// Decayed per-key tuple counters observed by a worker.
///
/// Counts are kept in fixed-point (`count << 8`) so repeated halving keeps
/// resolution for lukewarm keys; entries that decay to zero are dropped.
/// The map is written once per processed tuple and merged into at every
/// checkpoint round, so it is a hash map; only sampling needs key order and
/// sorts for it.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TrafficStats {
    counts: HashMap<Key, u64>,
}

/// Fixed-point scale of one observed tuple.
const ONE: u64 = 1 << 8;

impl TrafficStats {
    /// Empty statistics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one processed tuple for `key`.
    pub fn record(&mut self, key: Key) {
        *self.counts.entry(key).or_insert(0) += ONE;
    }

    /// Halve every counter (one decay step), dropping entries that reach
    /// zero. Called once per utilisation-report interval, this gives a
    /// half-life of one interval: a key must keep receiving traffic to stay
    /// hot in the sample.
    pub fn decay(&mut self) {
        self.counts.retain(|_, c| {
            *c >>= 1;
            *c > 0
        });
    }

    /// Number of keys with a live counter.
    pub fn len(&self) -> usize {
        self.counts.len()
    }

    /// Whether no traffic has been recorded (or everything decayed away).
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    /// The decayed count (in tuple units, rounded down) for `key`.
    pub fn count(&self, key: Key) -> u64 {
        self.counts.get(&key).copied().unwrap_or(0) / ONE
    }

    /// Merge another partition's counters into this one (scale in and the
    /// pooled sample of an N-way rebalance).
    pub fn merge(&mut self, other: &TrafficStats) {
        for (k, c) in &other.counts {
            *self.counts.entry(*k).or_insert(0) += c;
        }
    }

    /// Split the counters into one `TrafficStats` per key range, mirroring
    /// [`crate::state::ProcessingState::partition_by_ranges`]: each key goes
    /// to the first range containing it, keys covered by none are dropped.
    pub fn partition_by_ranges(&self, ranges: &[KeyRange]) -> Vec<TrafficStats> {
        let mut parts: Vec<TrafficStats> = ranges.iter().map(|_| TrafficStats::new()).collect();
        for (key, count) in &self.counts {
            if let Some(idx) = ranges.iter().position(|r| r.contains(*key)) {
                parts[idx].counts.insert(*key, *count);
            }
        }
        parts
    }

    /// Apply one step of another counter set's history to this one.
    pub fn apply(&mut self, op: &TrafficOp) {
        match op {
            TrafficOp::Set(stats) => *self = stats.clone(),
            TrafficOp::Add(stats) => self.merge(stats),
            TrafficOp::Decay => self.decay(),
        }
    }

    /// A traffic-weighted key sample of at most `max` entries for
    /// [`KeyRange::split_by_distribution`], shaped like
    /// [`crate::state::ProcessingState::weighted_key_sample`]: every key
    /// appears at least once and hot keys are repeated in proportion to their
    /// share of the observed traffic. With more distinct keys than slots a
    /// uniform stride sub-sample is returned instead.
    ///
    /// [`KeyRange::split_by_distribution`]: crate::key::KeyRange::split_by_distribution
    pub fn weighted_sample(&self, max: usize) -> Vec<Key> {
        let mut pairs: Vec<(Key, u64)> = self.counts.iter().map(|(k, c)| (*k, *c)).collect();
        pairs.sort_unstable();
        crate::key::weighted_multiset_sample(&pairs, max)
    }
}

/// One step in the history of a worker's [`TrafficStats`]. An incremental
/// checkpoint carries the steps since its base, so the backed-up counters
/// follow the worker's exactly at a cost that follows the keys that saw
/// traffic, not the keys that have counters.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum TrafficOp {
    /// The counters are replaced wholesale (what a delta computed from two
    /// full checkpoints has to say, not knowing the steps between them).
    Set(TrafficStats),
    /// These counts were recorded.
    Add(TrafficStats),
    /// One decay step took place.
    Decay,
}

/// A worker's traffic counters, together with the steps taken since the
/// previous delta capture.
///
/// Until the first [`take_ops`](Self::take_ops) nothing is logged — a worker
/// that is never checkpointed incrementally pays nothing — and after a
/// [`restore`](Self::restore) logging stops again, so the first capture of
/// restored counters is a full one, like an operator's state.
#[derive(Debug, Clone, Default)]
pub struct TrafficLog {
    /// The counters as of the previous capture (or, while not logging, now).
    base: TrafficStats,
    /// What happened since; the last element is the `Add` being recorded
    /// into, if any.
    log: Vec<TrafficOp>,
    logging: bool,
}

impl TrafficLog {
    /// Record one processed tuple for `key`.
    pub fn record(&mut self, key: Key) {
        if !self.logging {
            return self.base.record(key);
        }
        if !matches!(self.log.last(), Some(TrafficOp::Add(_))) {
            self.log.push(TrafficOp::Add(TrafficStats::new()));
        }
        if let Some(TrafficOp::Add(recent)) = self.log.last_mut() {
            recent.record(key);
        }
    }

    /// One decay step ([`TrafficStats::decay`]).
    pub fn decay(&mut self) {
        if self.logging {
            self.log.push(TrafficOp::Decay);
        } else {
            self.base.decay();
        }
    }

    /// The counters as they are now.
    pub fn current(&self) -> TrafficStats {
        let mut stats = self.base.clone();
        for op in &self.log {
            stats.apply(op);
        }
        stats
    }

    /// The steps since the previous call, or `None` if they were not being
    /// logged (the first call, and the first after a restore): the caller
    /// then has to capture [`current`](Self::current) whole. Logging is on
    /// from here.
    pub fn take_ops(&mut self) -> Option<Vec<TrafficOp>> {
        if !std::mem::replace(&mut self.logging, true) {
            return None;
        }
        let ops = std::mem::take(&mut self.log);
        for op in &ops {
            self.base.apply(op);
        }
        Some(ops)
    }

    /// Replace the counters (restore from a checkpoint).
    pub fn restore(&mut self, stats: TrafficStats) {
        *self = TrafficLog {
            base: stats,
            ..TrafficLog::default()
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn logged_steps_replay_to_the_same_counters() {
        let mut worker = TrafficLog::default();
        worker.record(Key(1));
        worker.decay();
        assert_eq!(worker.take_ops(), None, "nothing was logged yet");
        let mut backup = worker.current();

        worker.record(Key(1));
        worker.record(Key(2));
        worker.decay();
        worker.record(Key(2));
        let ops = worker.take_ops().expect("logging since the first capture");
        assert_eq!(ops.len(), 3, "add, decay, add");
        for op in &ops {
            backup.apply(op);
        }
        assert_eq!(backup, worker.current());
        // 1: (128 + 256) / 2; 2: 256 / 2 + 256, in 1/256ths of a tuple.
        assert_eq!(backup.counts[&Key(1)], 192);
        assert_eq!(backup.counts[&Key(2)], 384);
        assert_eq!(worker.take_ops(), Some(Vec::new()));

        worker.restore(TrafficStats::new());
        worker.record(Key(3));
        assert_eq!(worker.take_ops(), None);
        assert_eq!(worker.current().count(Key(3)), 1);
    }

    fn stats_with(counts: &[(u64, u64)]) -> TrafficStats {
        let mut t = TrafficStats::new();
        for &(k, n) in counts {
            for _ in 0..n {
                t.record(Key(k));
            }
        }
        t
    }

    #[test]
    fn record_and_count() {
        let t = stats_with(&[(1, 3), (2, 1)]);
        assert_eq!(t.count(Key(1)), 3);
        assert_eq!(t.count(Key(2)), 1);
        assert_eq!(t.count(Key(9)), 0);
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    fn decay_halves_and_eventually_drops() {
        let mut t = stats_with(&[(1, 4), (2, 1)]);
        t.decay();
        assert_eq!(t.count(Key(1)), 2);
        // The fixed-point representation keeps sub-tuple residue alive for a
        // while, then drops the key entirely.
        for _ in 0..16 {
            t.decay();
        }
        assert!(t.is_empty(), "fully decayed keys are forgotten");
    }

    #[test]
    fn merge_sums_counters() {
        let mut a = stats_with(&[(1, 2), (2, 1)]);
        let b = stats_with(&[(2, 3), (3, 1)]);
        a.merge(&b);
        assert_eq!(a.count(Key(1)), 2);
        assert_eq!(a.count(Key(2)), 4);
        assert_eq!(a.count(Key(3)), 1);
    }

    #[test]
    fn partition_respects_ranges_and_drops_uncovered() {
        let t = stats_with(&[(1, 1), (50, 2), (200, 3)]);
        let parts = t.partition_by_ranges(&[KeyRange::new(0, 9), KeyRange::new(10, 99)]);
        assert_eq!(parts[0].count(Key(1)), 1);
        assert_eq!(parts[1].count(Key(50)), 2);
        assert_eq!(parts[0].len() + parts[1].len(), 2, "key 200 dropped");
    }

    #[test]
    fn weighted_sample_repeats_hot_keys() {
        let t = stats_with(&[(1, 90), (2, 5), (3, 5)]);
        let sample = t.weighted_sample(100);
        assert!(sample.len() <= 100);
        let hot = sample.iter().filter(|k| **k == Key(1)).count();
        let cold = sample.iter().filter(|k| **k == Key(2)).count();
        assert!(hot > cold * 5, "hot key under-sampled: {hot} vs {cold}");
        for k in [Key(1), Key(2), Key(3)] {
            assert!(sample.contains(&k), "every key appears at least once");
        }
        // Degenerate inputs.
        assert!(TrafficStats::new().weighted_sample(10).is_empty());
        assert!(t.weighted_sample(0).is_empty());
        // More distinct keys than slots: stride sub-sample, no duplicates.
        let mut wide = TrafficStats::new();
        for k in 0..500u64 {
            wide.record(Key(k));
        }
        let sub = wide.weighted_sample(64);
        assert!(sub.len() <= 64 && sub.len() >= 32);
        let mut dedup = sub.clone();
        dedup.dedup();
        assert_eq!(dedup.len(), sub.len());
    }

    #[test]
    fn serde_roundtrip() {
        let t = stats_with(&[(1, 2), (7, 9)]);
        let bytes = bincode::serialize(&t).unwrap();
        let back: TrafficStats = bincode::deserialize(&bytes).unwrap();
        assert_eq!(back, t);
    }
}
