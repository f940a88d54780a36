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
//!
//! **A bounded summary.** Only the heavy hitters matter to a split, so the
//! counters are a Misra–Gries summary of at most [`TrafficStats::CAPACITY`]
//! keys (Misra and Gries 1982; the merge rule is Agarwal et al.'s mergeable
//! summaries, PODS 2012). A key seen while the table is full takes one tuple
//! from every counter instead of getting its own, so `record` is amortised
//! O(1) and the table never grows past `CAPACITY`. No count exceeds the
//! key's true count, and between decays none falls short of it by more than
//! `N / (CAPACITY + 1)` tuples, `N` being the tuples recorded: any key with
//! more than that share of the traffic keeps a counter. The bound matters
//! because a worker whose input keys are all fresh — the word splitter's,
//! one per fragment — would otherwise take an entry per tuple, in its table,
//! in every checkpoint and in every logged [`TrafficOp::Add`].

use std::collections::hash_map::Entry;
use std::collections::HashMap;

use serde::{Deserialize, Deserializer, Serialize};

use crate::key::KeyRange;
use crate::tuple::Key;

/// Decayed per-key tuple counters observed by a worker: a Misra–Gries
/// summary of at most [`CAPACITY`](Self::CAPACITY) keys.
///
/// Counts are kept in fixed-point (`count << 8`) so repeated halving keeps
/// resolution for lukewarm keys; entries that decay to zero are dropped.
/// The map is written once per processed tuple and merged into at every
/// checkpoint round, so it is a hash map; only sampling needs key order and
/// sorts for it. It serialises as the key → count map it is.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize)]
pub struct TrafficStats {
    counts: HashMap<Key, u64>,
}

/// Fixed-point scale of one observed tuple.
const ONE: u64 = 1 << 8;

impl TrafficStats {
    /// Most keys the summary keeps a counter for. It is below the split
    /// sample size (`DEFAULT_SPLIT_SAMPLE`, 4 096, in `seep-runtime`), so a
    /// [`weighted_sample`](Self::weighted_sample) repeats hot keys instead of
    /// striding over distinct ones.
    pub const CAPACITY: usize = 1_024;

    /// Empty statistics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one processed tuple for `key`. On a full table a new key takes
    /// one tuple from every counter, its own included, and counters left at
    /// zero are dropped.
    pub fn record(&mut self, key: Key) {
        let full = self.counts.len() >= Self::CAPACITY;
        match self.counts.entry(key) {
            Entry::Occupied(mut count) => *count.get_mut() += ONE,
            Entry::Vacant(slot) if !full => {
                slot.insert(ONE);
            }
            Entry::Vacant(_) => self.counts.retain(|_, c| {
                *c = c.saturating_sub(ONE);
                *c > 0
            }),
        }
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

    /// Number of keys with a live counter, at most
    /// [`CAPACITY`](Self::CAPACITY).
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
    /// pooled sample of an N-way rebalance): the counts add up, and past
    /// [`CAPACITY`](Self::CAPACITY) keys the (`CAPACITY` + 1)-th largest
    /// count is taken from every counter, which keeps the error bound of
    /// the two summaries' combined traffic.
    pub fn merge(&mut self, other: &TrafficStats) {
        for (k, c) in &other.counts {
            let sum = self.counts.entry(*k).or_insert(0);
            *sum = sum.saturating_add(*c);
        }
        self.bound();
    }

    /// Cut the table to at most [`CAPACITY`](Self::CAPACITY) keys by taking
    /// the (`CAPACITY` + 1)-th largest count from every counter.
    fn bound(&mut self) {
        if self.counts.len() <= Self::CAPACITY {
            return;
        }
        let mut counts: Vec<u64> = self.counts.values().copied().collect();
        let (_, &mut cut, _) = counts.select_nth_unstable_by(Self::CAPACITY, |a, b| b.cmp(a));
        self.counts.retain(|_, c| {
            *c = c.saturating_sub(cut);
            *c > 0
        });
    }

    /// Split the counters into one `TrafficStats` per key range, mirroring
    /// [`crate::state::ProcessingState::split_by_ranges`]: each key goes to
    /// the first range containing it, keys covered by none are dropped. The
    /// summary holds at most [`CAPACITY`](Self::CAPACITY) keys, so this
    /// costs a bounded amount whatever the state's size.
    pub fn split_by_ranges(self, ranges: &[KeyRange]) -> Vec<TrafficStats> {
        let mut parts: Vec<TrafficStats> = ranges.iter().map(|_| TrafficStats::new()).collect();
        for (key, count) in self.counts {
            if let Some(idx) = ranges.iter().position(|r| r.contains(key)) {
                parts[idx].counts.insert(key, count);
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

/// Decodes the key → count map and bounds it, so a map written with more
/// than [`TrafficStats::CAPACITY`] keys comes back as a summary.
impl<'de> Deserialize<'de> for TrafficStats {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        #[derive(Deserialize)]
        struct Counts {
            counts: HashMap<Key, u64>,
        }
        let Counts { counts } = Counts::deserialize(d)?;
        let mut stats = TrafficStats { counts };
        stats.bound();
        Ok(stats)
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
        let parts = t.split_by_ranges(&[KeyRange::new(0, 9), KeyRange::new(10, 99)]);
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

    /// Ranks of a Zipf(1) law over `keys` keys, drawn by inverting its CDF.
    fn zipf_draws(keys: usize, draws: usize, seed: u64) -> Vec<u64> {
        let mut cdf = Vec::with_capacity(keys);
        let mut total = 0.0;
        for rank in 1..=keys {
            total += 1.0 / rank as f64;
            cdf.push(total);
        }
        let mut gen = proptest::Gen::new(seed);
        (0..draws)
            .map(|_| {
                let u = (gen.next_u64() >> 11) as f64 / (1u64 << 53) as f64 * total;
                cdf.partition_point(|&c| c < u).min(keys - 1) as u64
            })
            .collect()
    }

    #[test]
    fn zipf_heavy_hitters_are_tracked_within_the_bound() {
        const N: usize = 400_000;
        let draws = zipf_draws(100_000, N, 7);
        let mut exact: HashMap<u64, u64> = HashMap::new();
        let mut summary = TrafficStats::new();
        for &rank in &draws {
            *exact.entry(rank).or_default() += 1;
            summary.record(Key(rank));
        }
        assert!(summary.len() <= TrafficStats::CAPACITY);
        let slack = (N / (TrafficStats::CAPACITY + 1)) as u64;
        let mut top: Vec<(u64, u64)> = exact.iter().map(|(k, c)| (*c, *k)).collect();
        top.sort_unstable_by(|a, b| b.cmp(a));
        for &(count, rank) in &top[..10] {
            let kept = summary.count(Key(rank));
            assert!(kept > 0, "rank {rank} ({count} tuples) dropped");
            assert!(
                kept <= count && count - kept <= slack,
                "rank {rank}: kept {kept} of {count}, slack {slack}"
            );
        }
        // Every kept count is an underestimate, however cold the key.
        for (key, count) in &summary.counts {
            assert!(count / ONE <= exact[&key.0]);
        }
    }

    #[test]
    fn merged_summaries_keep_the_heavy_keys_of_both() {
        let mut a = TrafficStats::new();
        let mut b = TrafficStats::new();
        for k in 0..5_000u64 {
            a.record(Key(k));
            b.record(Key(1_000_000 + k));
        }
        for _ in 0..500 {
            a.record(Key(7));
            b.record(Key(1_000_007));
        }
        a.merge(&b);
        assert!(a.len() <= TrafficStats::CAPACITY);
        assert!(a.count(Key(7)) > 0 && a.count(Key(1_000_007)) > 0);
    }

    #[test]
    fn an_oversized_map_decodes_as_a_summary() {
        let wide = TrafficStats {
            counts: (0..3 * TrafficStats::CAPACITY as u64)
                .map(|k| (Key(k), ONE * (1 + k % 3)))
                .collect(),
        };
        let back: TrafficStats = bincode::deserialize(&bincode::serialize(&wide).unwrap()).unwrap();
        assert!(back.len() <= TrafficStats::CAPACITY);
        assert!(
            back.counts.values().all(|c| *c == ONE),
            "the cut was 2 tuples"
        );
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(32))]

        #[test]
        fn no_mix_of_steps_grows_past_the_capacity(
            steps in proptest::collection::vec(0u64..1_000, 20..120),
        ) {
            let mut log = TrafficLog::default();
            let mut other = TrafficStats::new();
            let mut key = 0u64;
            for step in steps {
                match step % 10 {
                    0 => log.decay(),
                    1 => {
                        let _ = log.take_ops();
                    }
                    2 => other.merge(&log.current()),
                    3 => other.apply(&TrafficOp::Add(log.current())),
                    4 => log.restore(other.clone()),
                    _ => {
                        // A burst of fresh keys and a few repeated ones.
                        for _ in 0..step * 2 {
                            key += 1;
                            log.record(Key(if key.is_multiple_of(5) { key % 13 } else { key }));
                        }
                    }
                }
                proptest::prop_assert!(log.current().len() <= TrafficStats::CAPACITY);
                proptest::prop_assert!(other.len() <= TrafficStats::CAPACITY);
            }
        }
    }

    #[test]
    fn serde_roundtrip() {
        let t = stats_with(&[(1, 2), (7, 9)]);
        let bytes = bincode::serialize(&t).unwrap();
        let back: TrafficStats = bincode::deserialize(&bytes).unwrap();
        assert_eq!(back, t);
    }
}
