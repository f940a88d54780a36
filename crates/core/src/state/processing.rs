//! Processing state: the operator's internal summary of processed tuples,
//! externalised as key/value pairs (§3.1).

use std::collections::BTreeMap;

use bytes::Bytes;
use serde::{Deserialize, Serialize};

use crate::key::KeyRange;
use crate::tuple::{Key, StreamId, Timestamp, TimestampVec};

/// The processing state θ_o of an operator as a set of key/value pairs, plus
/// the timestamp vector τ_o of the most recent input tuples reflected in it.
///
/// Keys correspond to tuple keys from the input streams; the value associated
/// with a key holds the portion of state the operator needs when processing
/// tuples with that key. Operators may use arbitrary internal data structures
/// and only translate to this representation when the SPS requests it.
///
/// The key/value structure is what makes state **partitionable**: to scale an
/// operator out, the SPS splits the key space into intervals and moves each
/// key's entry to the partition owning its interval
/// ([`ProcessingState::split_by_ranges`]).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ProcessingState {
    entries: BTreeMap<Key, Bytes>,
    ts: TimestampVec,
}

impl ProcessingState {
    /// An empty processing state (the state of a stateless operator).
    pub fn empty() -> Self {
        Self::default()
    }

    /// Build a processing state from key/value pairs and a timestamp vector.
    pub fn from_parts(entries: impl IntoIterator<Item = (Key, Bytes)>, ts: TimestampVec) -> Self {
        ProcessingState {
            entries: entries.into_iter().collect(),
            ts,
        }
    }

    /// Insert or replace the value for `key`, returning the value replaced.
    pub fn insert(&mut self, key: Key, value: impl Into<Bytes>) -> Option<Bytes> {
        self.entries.insert(key, value.into())
    }

    /// Insert a serde-serialisable value for `key`.
    pub fn insert_encoded<T: Serialize>(&mut self, key: Key, value: &T) -> crate::Result<()> {
        self.entries.insert(key, crate::tuple::encode_bytes(value)?);
        Ok(())
    }

    /// Get the raw value stored for `key`.
    pub fn get(&self, key: Key) -> Option<&Bytes> {
        self.entries.get(&key)
    }

    /// Decode the value stored for `key`.
    pub fn get_decoded<T: for<'de> Deserialize<'de>>(&self, key: Key) -> crate::Result<Option<T>> {
        match self.entries.get(&key) {
            None => Ok(None),
            Some(bytes) => Ok(Some(bincode::deserialize(bytes)?)),
        }
    }

    /// Remove the entry for `key`, returning its value if present.
    pub fn remove(&mut self, key: Key) -> Option<Bytes> {
        self.entries.remove(&key)
    }

    /// Number of key/value entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if there are no entries and no reflected timestamps.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty() && self.ts.is_empty()
    }

    /// Iterate over entries in key order.
    pub fn iter(&self) -> impl Iterator<Item = (Key, &Bytes)> + '_ {
        self.entries.iter().map(|(k, v)| (*k, v))
    }

    /// All keys currently present, in order. Useful as a sample for
    /// distribution-guided key splits.
    pub fn keys(&self) -> Vec<Key> {
        self.entries.keys().copied().collect()
    }

    /// A load-weighted key sample of at most `max` entries for
    /// distribution-guided splits ([`KeyRange::split_by_distribution`] treats
    /// its sample as a multiset).
    ///
    /// Each key appears at least once and hot keys — those with a larger
    /// state footprint, which in windowed operators tracks the traffic they
    /// receive — are repeated in proportion to their share of the state
    /// bytes **above the per-key minimum**: every serialised entry carries a
    /// fixed encoding overhead that says nothing about load, and on states
    /// with many barely-touched keys that common baseline would otherwise
    /// drown out the hot keys' signal. When the state holds more distinct
    /// keys than `max`, a uniform stride sub-sample of the distinct keys is
    /// returned instead (per-key weighting is meaningless below one slot per
    /// key).
    ///
    /// [`KeyRange::split_by_distribution`]: crate::key::KeyRange::split_by_distribution
    pub fn weighted_key_sample(&self, max: usize) -> Vec<Key> {
        let baseline = self.entries.values().map(Bytes::len).min().unwrap_or(0);
        let pairs: Vec<(Key, u64)> = self
            .entries
            .iter()
            .map(|(k, v)| (*k, (v.len() - baseline) as u64))
            .collect();
        crate::key::weighted_multiset_sample(&pairs, max)
    }

    /// The timestamp vector τ_o of the most recent reflected input tuples.
    pub fn timestamps(&self) -> &TimestampVec {
        &self.ts
    }

    /// Mutable access to the timestamp vector.
    pub fn timestamps_mut(&mut self) -> &mut TimestampVec {
        &mut self.ts
    }

    /// Record that tuples up to `ts` on `stream` are reflected in this state.
    pub fn advance_ts(&mut self, stream: StreamId, ts: Timestamp) {
        self.ts.advance(stream, ts);
    }

    /// Approximate serialised size in bytes (entries only), used by cost
    /// models and the checkpointing overhead experiments.
    pub fn size_bytes(&self) -> usize {
        self.entries
            .values()
            .map(|v| std::mem::size_of::<Key>() + v.len())
            .sum()
    }

    /// Split the state into one `ProcessingState` per key range
    /// (Algorithm 2, line 5: `θ_i ← {(k, v) ∈ θ : k_i ≤ k < k_{i+1}}`),
    /// moving the entries rather than copying them.
    ///
    /// Every entry is assigned to the **first** range that contains its key;
    /// entries whose key is covered by none of the ranges are dropped (the
    /// caller is expected to pass ranges covering the operator's whole key
    /// interval). The timestamp vector is copied into every partition
    /// (Algorithm 2, line 6), because each partition's state reflects input
    /// tuples up to the same point. The entry map is cut at the range
    /// boundaries, so the cost grows with the number of ranges, not of keys.
    pub fn split_by_ranges(self, ranges: &[KeyRange]) -> Vec<ProcessingState> {
        let ProcessingState { entries, ts } = self;
        crate::key::split_map_by_ranges(entries, ranges)
            .into_iter()
            .map(|entries| ProcessingState {
                entries,
                ts: ts.clone(),
            })
            .collect()
    }

    /// [`split_by_ranges`](Self::split_by_ranges) of a copy, for callers
    /// that keep the state.
    pub fn partition_by_ranges(&self, ranges: &[KeyRange]) -> Vec<ProcessingState> {
        self.clone().split_by_ranges(ranges)
    }

    /// Merge another state into this one (used for scale in, §3.3). Entries
    /// present in both keep `other`'s value — in practice merged partitions
    /// have disjoint key ranges so no collision occurs; the timestamp vectors
    /// are merged by maximum. The entry maps are joined in one bulk build
    /// (a move when either side is empty), not key by key.
    pub fn merge(&mut self, other: ProcessingState) {
        let ProcessingState { mut entries, ts } = other;
        self.entries.append(&mut entries);
        self.ts.merge_max(&ts);
    }

    /// Extract the entries whose value changed relative to `baseline`
    /// together with the keys that were removed since the baseline: the
    /// reference an operator's own [`StateDelta`](super::StateDelta) capture
    /// is tested against. It reads both states in full.
    pub fn diff_from(&self, baseline: &ProcessingState) -> (Vec<(Key, Bytes)>, Vec<Key>) {
        let mut changed = Vec::new();
        for (k, v) in &self.entries {
            match baseline.entries.get(k) {
                Some(old) if old == v => {}
                _ => changed.push((*k, v.clone())),
            }
        }
        let removed = baseline
            .entries
            .keys()
            .filter(|k| !self.entries.contains_key(*k))
            .copied()
            .collect();
        (changed, removed)
    }
}

impl FromIterator<(Key, Bytes)> for ProcessingState {
    fn from_iter<I: IntoIterator<Item = (Key, Bytes)>>(iter: I) -> Self {
        ProcessingState {
            entries: iter.into_iter().collect(),
            ts: TimestampVec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn state_with(keys: &[u64]) -> ProcessingState {
        let mut st = ProcessingState::empty();
        for &k in keys {
            st.insert(Key(k), vec![k as u8]);
        }
        st.advance_ts(StreamId(0), 10);
        st
    }

    #[test]
    fn insert_get_remove() {
        let mut st = ProcessingState::empty();
        assert!(st.is_empty());
        st.insert(Key(1), vec![1]);
        st.insert_encoded(Key(2), &"two".to_string()).unwrap();
        assert_eq!(st.len(), 2);
        assert_eq!(st.get(Key(1)).unwrap().as_ref(), &[1]);
        assert_eq!(
            st.get_decoded::<String>(Key(2)).unwrap().unwrap(),
            "two".to_string()
        );
        assert!(st.get_decoded::<String>(Key(9)).unwrap().is_none());
        assert!(st.remove(Key(1)).is_some());
        assert!(st.remove(Key(1)).is_none());
        assert_eq!(st.len(), 1);
    }

    #[test]
    fn word_count_example_from_paper() {
        // Fig. 2: θ_c1 = {('f', "first:1")} at τ_c1 = (1),
        //         θ_c2 = {('s', "second:1, set:2")} at τ_c2 = (4).
        let mut c1 = ProcessingState::empty();
        c1.insert(Key::from_str_key("f"), &b"first:1"[..]);
        c1.advance_ts(StreamId(0), 1);
        let mut c2 = ProcessingState::empty();
        c2.insert(Key::from_str_key("s"), &b"second:1, set:2"[..]);
        c2.advance_ts(StreamId(0), 4);
        assert_eq!(c1.timestamps().get(StreamId(0)), Some(1));
        assert_eq!(c2.timestamps().get(StreamId(0)), Some(4));
        assert_eq!(c1.len(), 1);
    }

    #[test]
    fn partition_assigns_each_key_once_and_copies_ts() {
        let st = state_with(&[1, 5, 10, 15, 20]);
        let ranges = [KeyRange::new(0, 9), KeyRange::new(10, u64::MAX)];
        let parts = st.partition_by_ranges(&ranges);
        assert_eq!(parts.len(), 2);
        assert_eq!(parts[0].len(), 2);
        assert_eq!(parts[1].len(), 3);
        for p in &parts {
            assert_eq!(p.timestamps().get(StreamId(0)), Some(10));
        }
        let total: usize = parts.iter().map(|p| p.len()).sum();
        assert_eq!(total, st.len());
    }

    /// The per-key model the by-value split must equal: every entry is
    /// copied to the first range containing its key, uncovered keys are
    /// dropped and the timestamp vector is copied to every part.
    fn split_per_key(st: &ProcessingState, ranges: &[KeyRange]) -> Vec<ProcessingState> {
        let mut parts: Vec<ProcessingState> = ranges
            .iter()
            .map(|_| ProcessingState {
                entries: BTreeMap::new(),
                ts: st.ts.clone(),
            })
            .collect();
        for (key, value) in &st.entries {
            if let Some(idx) = ranges.iter().position(|r| r.contains(*key)) {
                parts[idx].entries.insert(*key, value.clone());
            }
        }
        parts
    }

    /// Key-space points that put range bounds and keys on 0, `u64::MAX` and
    /// their neighbours as often as in the middle of the key space.
    fn anchor(i: u64) -> u64 {
        match i % 20 {
            0 => 0,
            1 => 1,
            18 => u64::MAX - 1,
            19 => u64::MAX,
            n => n * (u64::MAX / 18),
        }
    }

    #[test]
    fn split_moves_entries_for_sorted_unsorted_and_overlapping_ranges() {
        let st = state_with(&[0, 1, 5, 10, 15, 20, u64::MAX - 1, u64::MAX]);
        let lists: [&[KeyRange]; 5] = [
            &[KeyRange::new(0, 9), KeyRange::new(10, u64::MAX)],
            &[KeyRange::new(10, u64::MAX), KeyRange::new(0, 9)],
            &[KeyRange::new(5, 15), KeyRange::full(), KeyRange::new(0, 3)],
            &[KeyRange::new(1, 1), KeyRange::new(u64::MAX, u64::MAX)],
            &[KeyRange::full()],
        ];
        for ranges in lists {
            assert_eq!(
                st.clone().split_by_ranges(ranges),
                split_per_key(&st, ranges),
                "{ranges:?}"
            );
        }
        // One range over all of it hands the state over unchanged.
        assert_eq!(st.clone().split_by_ranges(&[KeyRange::full()]), vec![st]);
    }

    #[test]
    fn partition_drops_uncovered_keys() {
        let st = state_with(&[1, 100]);
        let parts = st.partition_by_ranges(&[KeyRange::new(0, 10)]);
        assert_eq!(parts[0].len(), 1);
    }

    #[test]
    fn merge_combines_entries_and_ts() {
        let mut a = state_with(&[1, 2]);
        let mut b = state_with(&[3]);
        b.advance_ts(StreamId(1), 99);
        a.merge(b);
        assert_eq!(a.len(), 3);
        assert_eq!(a.timestamps().get(StreamId(1)), Some(99));
        assert_eq!(a.timestamps().get(StreamId(0)), Some(10));
    }

    #[test]
    fn diff_detects_changes_and_removals() {
        let baseline = state_with(&[1, 2, 3]);
        let mut now = baseline.clone();
        now.insert(Key(2), vec![99]); // changed
        now.insert(Key(4), vec![4]); // added
        now.remove(Key(3)); // removed
        let (changed, removed) = now.diff_from(&baseline);
        let changed_keys: Vec<u64> = changed.iter().map(|(k, _)| k.0).collect();
        assert_eq!(changed_keys, vec![2, 4]);
        assert_eq!(removed, vec![Key(3)]);
    }

    #[test]
    fn weighted_sample_repeats_hot_keys_and_respects_max() {
        let mut st = ProcessingState::empty();
        st.insert(Key(1), vec![0u8; 900]); // hot: ~90 % of the state bytes
        st.insert(Key(2), vec![0u8; 50]);
        st.insert(Key(3), vec![0u8; 50]);
        let sample = st.weighted_key_sample(100);
        assert!(sample.len() <= 100);
        let hot = sample.iter().filter(|k| **k == Key(1)).count();
        let cold = sample.iter().filter(|k| **k == Key(2)).count();
        assert!(hot > cold * 5, "hot key under-sampled: {hot} vs {cold}");
        // Every key appears at least once.
        for k in [Key(1), Key(2), Key(3)] {
            assert!(sample.contains(&k));
        }
        // More distinct keys than slots: stride sub-sample of distinct keys.
        let mut wide = ProcessingState::empty();
        for k in 0..1_000u64 {
            wide.insert(Key(k), vec![0u8; 8]);
        }
        let sub = wide.weighted_key_sample(64);
        assert!(sub.len() <= 64 && sub.len() >= 32);
        let mut dedup = sub.clone();
        dedup.dedup();
        assert_eq!(dedup.len(), sub.len(), "stride sample has no duplicates");
        // Degenerate inputs.
        assert!(ProcessingState::empty().weighted_key_sample(10).is_empty());
        assert!(st.weighted_key_sample(0).is_empty());
    }

    #[test]
    fn size_bytes_counts_values() {
        let st = state_with(&[1, 2]);
        assert!(st.size_bytes() >= 2);
        assert!(ProcessingState::empty().size_bytes() == 0);
    }

    #[test]
    fn serde_roundtrip() {
        let st = state_with(&[1, 2, 3]);
        let bytes = bincode::serialize(&st).unwrap();
        let back: ProcessingState = bincode::deserialize(&bytes).unwrap();
        assert_eq!(back, st);
    }

    proptest! {
        /// Partitioning preserves the multiset of entries whenever the ranges
        /// cover the key domain used by the test.
        #[test]
        fn prop_partition_preserves_entries(
            keys in proptest::collection::btree_set(0u64..10_000, 0..100),
            parts in 1usize..8,
        ) {
            let mut st = ProcessingState::empty();
            for &k in &keys {
                st.insert(Key(k), k.to_le_bytes().to_vec());
            }
            let ranges = KeyRange::new(0, 9_999).split_even(parts).unwrap();
            let partitioned = st.partition_by_ranges(&ranges);
            let total: usize = partitioned.iter().map(|p| p.len()).sum();
            prop_assert_eq!(total, keys.len());
            // Re-merging recovers exactly the original entries.
            let mut merged = ProcessingState::empty();
            for p in partitioned {
                merged.merge(p);
            }
            for &k in &keys {
                prop_assert_eq!(
                    merged.get(Key(k)).map(|b| b.as_ref().to_vec()),
                    Some(k.to_le_bytes().to_vec())
                );
            }
        }

        /// The by-value split equals the per-key model for any list of
        /// ranges: as drawn (unsorted, overlapping, with gaps), sorted by
        /// lower bound, and an even split of the whole key space.
        #[test]
        fn prop_split_equals_the_per_key_model(
            key_points in proptest::collection::vec(0u64..20, 0..60),
            offsets in proptest::collection::vec(0u64..3, 60..61),
            bounds in proptest::collection::vec(0u64..20, 2..13),
            parts in 1usize..6,
        ) {
            let mut st = ProcessingState::empty();
            for (i, p) in key_points.iter().enumerate() {
                // Keys on, just below and just above each anchor.
                let key = match offsets[i] {
                    0 => anchor(*p),
                    1 => anchor(*p).saturating_sub(1),
                    _ => anchor(*p).saturating_add(1),
                };
                st.insert(Key(key), key.to_le_bytes().to_vec());
            }
            st.advance_ts(StreamId(3), 77);
            let mut drawn: Vec<KeyRange> = bounds
                .chunks_exact(2)
                .map(|b| {
                    let (x, y) = (anchor(b[0]), anchor(b[1]));
                    KeyRange::new(x.min(y), x.max(y))
                })
                .collect();
            let even = KeyRange::full().split_even(parts).unwrap();
            let mut lists = vec![drawn.clone(), even];
            drawn.sort_by_key(|r| r.lo);
            lists.push(drawn);
            for ranges in &lists {
                let split = st.clone().split_by_ranges(ranges);
                prop_assert_eq!(&split, &split_per_key(&st, ranges));
                prop_assert_eq!(split, st.partition_by_ranges(ranges));
            }
        }

        /// Each entry lands in the partition whose range contains its key.
        #[test]
        fn prop_partition_respects_ranges(
            keys in proptest::collection::btree_set(0u64..10_000, 1..100),
            parts in 2usize..6,
        ) {
            let mut st = ProcessingState::empty();
            for &k in &keys {
                st.insert(Key(k), vec![1]);
            }
            let ranges = KeyRange::new(0, 9_999).split_even(parts).unwrap();
            let partitioned = st.partition_by_ranges(&ranges);
            for (range, part) in ranges.iter().zip(&partitioned) {
                for (k, _) in part.iter() {
                    prop_assert!(range.contains(k));
                }
            }
        }
    }
}
