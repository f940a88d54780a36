//! Key ranges and key-space splitting.
//!
//! The routing state (§3.1) maps key intervals `[k_i, k_{i+1})` to partitioned
//! downstream operators. When a stateful operator scales out, its key interval
//! is split into π sub-intervals (Algorithm 2, lines 1–2), either evenly
//! (hash partitioning) or guided by the observed key distribution.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crate::error::{Error, Result};
use crate::tuple::Key;

/// An inclusive range `[lo, hi]` of the `u64` key space.
///
/// Inclusive bounds keep the full key space `[0, u64::MAX]` representable and
/// make splitting total: every key belongs to exactly one sub-range of a
/// split.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct KeyRange {
    /// Lowest key contained in the range.
    pub lo: u64,
    /// Highest key contained in the range.
    pub hi: u64,
}

impl KeyRange {
    /// The full key space.
    pub fn full() -> Self {
        KeyRange {
            lo: 0,
            hi: u64::MAX,
        }
    }

    /// A range covering `[lo, hi]`. Panics if `lo > hi`.
    pub fn new(lo: u64, hi: u64) -> Self {
        assert!(lo <= hi, "invalid key range [{lo}, {hi}]");
        KeyRange { lo, hi }
    }

    /// Whether the range contains `key`.
    pub fn contains(&self, key: Key) -> bool {
        self.lo <= key.0 && key.0 <= self.hi
    }

    /// Number of keys in the range (saturating at `u64::MAX` for the full range).
    pub fn width(&self) -> u64 {
        (self.hi - self.lo).saturating_add(1)
    }

    /// Whether two ranges overlap.
    pub fn overlaps(&self, other: &KeyRange) -> bool {
        self.lo <= other.hi && other.lo <= self.hi
    }

    /// Split the range into `parts` contiguous sub-ranges of (almost) equal
    /// width. The first `width % parts` sub-ranges are one key wider.
    ///
    /// This is the hash-partitioning split of Algorithm 2: because tuple keys
    /// are hashes, equal key-space width means (in expectation) equal load.
    pub fn split_even(&self, parts: usize) -> Result<Vec<KeyRange>> {
        if parts == 0 {
            return Err(Error::InvalidParallelism(0));
        }
        let parts_u = parts as u64;
        let width = self.width();
        if width != u64::MAX && width < parts_u {
            return Err(Error::InvalidKeySplit(format!(
                "cannot split range of width {width} into {parts} parts"
            )));
        }
        // Compute per-part widths without overflowing on the full range.
        let base = if width == u64::MAX {
            // Full range: u64::MAX + 1 keys; divide 2^64 by parts.
            (u128::from(u64::MAX) + 1) / u128::from(parts_u)
        } else {
            u128::from(width / parts_u)
        };
        let rem = if width == u64::MAX {
            ((u128::from(u64::MAX) + 1) % u128::from(parts_u)) as u64
        } else {
            width % parts_u
        };

        let mut out = Vec::with_capacity(parts);
        let mut lo = u128::from(self.lo);
        for i in 0..parts_u {
            let mut w = base;
            if i < u128::from(rem) as u64 {
                w += 1;
            }
            let hi = lo + w - 1;
            out.push(KeyRange {
                lo: lo as u64,
                hi: hi as u64,
            });
            lo = hi + 1;
        }
        debug_assert_eq!(out.last().unwrap().hi, self.hi);
        Ok(out)
    }

    /// Split the range into `parts` sub-ranges guided by an observed key
    /// sample so that each sub-range holds roughly the same number of sampled
    /// keys (distribution-guided split, §3.2 "the key distribution can be used
    /// to guide the split").
    ///
    /// The sample is treated as a **multiset**: a key that appears several
    /// times pulls the boundaries towards itself proportionally, so samples
    /// weighted by per-key load (e.g. [`crate::Checkpoint::sample_keys`],
    /// which repeats keys in proportion to their state footprint) produce an
    /// equi-*load* split rather than an equi-*key* split.
    ///
    /// Keys outside the range are ignored. Degenerate samples never error:
    /// an empty sample, an all-duplicates sample, or one with fewer distinct
    /// in-range keys than `parts` degrades to [`split_even`], as does any
    /// sample whose quantiles cannot supply `parts − 1` distinct boundaries
    /// above `lo`.
    ///
    /// [`split_even`]: KeyRange::split_even
    pub fn split_by_distribution(&self, parts: usize, sample: &[Key]) -> Result<Vec<KeyRange>> {
        if parts == 0 {
            return Err(Error::InvalidParallelism(0));
        }
        if parts == 1 {
            return Ok(vec![*self]);
        }
        let mut keys: Vec<u64> = sample
            .iter()
            .filter(|k| self.contains(**k))
            .map(|k| k.0)
            .collect();
        keys.sort_unstable();
        // Collapse the multiset into distinct keys with their multiplicity
        // and the cumulative mass strictly below each. A sample with fewer
        // distinct keys than parts (empty and all-duplicates included)
        // cannot yield `parts` distinct sub-ranges.
        let mut distinct: Vec<(u64, usize)> = Vec::new(); // (key, mass below it)
        for (below, &k) in keys.iter().enumerate() {
            match distinct.last() {
                Some((last, _)) if *last == k => {}
                _ => distinct.push((k, below)),
            }
        }
        if distinct.len() < parts {
            return self.split_even(parts);
        }
        // Pick boundaries at equi-depth quantiles of the weighted sample. A
        // boundary must fall *between* distinct keys (a boundary inside a hot
        // key's run would dump the whole run on one side), so for each
        // quantile target the candidate whose below-mass is closest to it is
        // chosen, keeping candidates strictly increasing.
        let total = keys.len();
        let mut boundaries = Vec::with_capacity(parts - 1);
        let mut j = 1usize; // boundary = distinct[j].0; distinct[j].1 mass below
        for i in 1..parts {
            if j >= distinct.len() {
                break;
            }
            let target = i * total / parts;
            while j + 1 < distinct.len()
                && distinct[j + 1].1.abs_diff(target) < distinct[j].1.abs_diff(target)
            {
                j += 1;
            }
            boundaries.push(distinct[j].0);
            j += 1;
        }
        if boundaries.len() < parts - 1 {
            return self.split_even(parts);
        }
        let mut out = Vec::with_capacity(parts);
        let mut lo = self.lo;
        for b in &boundaries {
            out.push(KeyRange::new(lo, b - 1));
            lo = *b;
        }
        out.push(KeyRange::new(lo, self.hi));
        Ok(out)
    }
}

/// Load imbalance of `ranges` over a sampled key population: the largest
/// per-range share of the sample divided by the ideal equal share
/// (`1.0` = perfectly balanced, `parts as f64` = everything on one range).
///
/// The sample is a multiset, so weighting keys by load (repeating hot keys)
/// measures load imbalance rather than distinct-key imbalance. Returns `1.0`
/// for an empty sample or empty range list, so callers comparing against a
/// skew threshold treat "no information" as "balanced".
pub fn sample_imbalance(ranges: &[KeyRange], sample: &[Key]) -> f64 {
    if ranges.is_empty() || sample.is_empty() {
        return 1.0;
    }
    let mut counts = vec![0usize; ranges.len()];
    let mut total = 0usize;
    for key in sample {
        if let Some(idx) = ranges.iter().position(|r| r.contains(*key)) {
            counts[idx] += 1;
            total += 1;
        }
    }
    if total == 0 {
        return 1.0;
    }
    let ideal = total as f64 / ranges.len() as f64;
    counts.into_iter().max().unwrap_or(0) as f64 / ideal
}

/// Draw a weighted multiset key sample of at most `max` entries from
/// key-ordered `(key, weight)` pairs — the one sampling algorithm behind
/// both `ProcessingState::weighted_key_sample` (weight = state bytes above
/// the per-key minimum) and `TrafficStats::weighted_sample` (weight =
/// decayed tuple count).
///
/// Every key gets one guaranteed slot; the spare slots are distributed in
/// proportion to each key's share of the total weight, so hot keys repeat
/// and [`KeyRange::split_by_distribution`] balances load rather than
/// distinct-key counts. When there are more distinct keys than slots, a
/// uniform stride sub-sample of the distinct keys is returned instead
/// (per-key weighting is meaningless below one slot per key).
pub(crate) fn weighted_multiset_sample(entries: &[(Key, u64)], max: usize) -> Vec<Key> {
    if max == 0 || entries.is_empty() {
        return Vec::new();
    }
    let distinct = entries.len();
    if distinct >= max {
        let stride = distinct.div_ceil(max);
        return entries
            .iter()
            .step_by(stride)
            .map(|(k, _)| *k)
            .take(max)
            .collect();
    }
    let total: u64 = entries.iter().map(|(_, w)| *w).sum();
    let spare = (max - distinct) as u64;
    let mut out = Vec::with_capacity(max);
    for (key, weight) in entries {
        let extra = (weight * spare).checked_div(total).unwrap_or(0);
        for _ in 0..=extra {
            out.push(*key);
        }
    }
    out.truncate(max);
    out
}

/// Move the entries of a key-ordered map into one map per range, without
/// copying a key or a value: each entry goes to the **first** range in
/// `ranges` that contains its key, and entries no range covers are dropped.
///
/// The first-range rule turns any list of ranges (unsorted, overlapping)
/// into disjoint key segments, each owned by one range. The map is cut at
/// the segment boundaries with [`BTreeMap::split_off`], so the cost is a
/// tree cut per segment — O(segments · log n) node work and a tree height of
/// allocations per cut — however many keys the map holds.
pub(crate) fn split_map_by_ranges<V>(
    mut map: BTreeMap<Key, V>,
    ranges: &[KeyRange],
) -> Vec<BTreeMap<Key, V>> {
    let mut parts: Vec<BTreeMap<Key, V>> = ranges.iter().map(|_| BTreeMap::new()).collect();
    // Highest segment first: every cut leaves `map` holding only keys below
    // the segment just taken.
    for (segment, owner) in first_range_segments(ranges).into_iter().rev() {
        if segment.hi < u64::MAX {
            // Keys above the segment that the higher segments did not take
            // lie in a gap no range covers.
            drop(map.split_off(&Key(segment.hi + 1)));
        }
        let mut piece = map.split_off(&Key(segment.lo));
        // A move when the part is still empty (the usual case: one segment
        // per range); a merge of two sorted runs otherwise.
        parts[owner].append(&mut piece);
    }
    parts
}

/// The disjoint key segments `ranges` cover, in ascending key order, each
/// paired with the index of the first range containing it. Adjacent
/// segments with the same owner are joined.
fn first_range_segments(ranges: &[KeyRange]) -> Vec<(KeyRange, usize)> {
    // Every range starts at a boundary and ends just before one, so between
    // two consecutive boundaries each range either covers all keys or none.
    let mut bounds: Vec<u128> = ranges
        .iter()
        .flat_map(|r| [u128::from(r.lo), u128::from(r.hi) + 1])
        .collect();
    bounds.sort_unstable();
    bounds.dedup();
    let mut segments: Vec<(KeyRange, usize)> = Vec::new();
    for pair in bounds.windows(2) {
        // Both bounds fit a u64 here: only the last can be 2^64.
        let (lo, hi) = (pair[0] as u64, (pair[1] - 1) as u64);
        let Some(owner) = ranges.iter().position(|r| r.contains(Key(lo))) else {
            continue;
        };
        match segments.last_mut() {
            Some((last, o)) if *o == owner && last.hi.checked_add(1) == Some(lo) => last.hi = hi,
            _ => segments.push((KeyRange::new(lo, hi), owner)),
        }
    }
    segments
}

impl std::fmt::Display for KeyRange {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{:#x}, {:#x}]", self.lo, self.hi)
    }
}

/// Strategy for splitting a key range during scale out.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum KeySplit {
    /// Split the key space evenly (hash partitioning).
    Even,
    /// Split so each part holds roughly the same number of the sampled keys.
    Distribution(Vec<Key>),
}

impl KeySplit {
    /// Apply the strategy to a range.
    pub fn apply(&self, range: &KeyRange, parts: usize) -> Result<Vec<KeyRange>> {
        match self {
            KeySplit::Even => range.split_even(parts),
            KeySplit::Distribution(sample) => range.split_by_distribution(parts, sample),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn full_range_contains_everything() {
        let full = KeyRange::full();
        assert!(full.contains(Key(0)));
        assert!(full.contains(Key(u64::MAX)));
        assert!(full.contains(Key(u64::MAX / 2)));
        assert_eq!(full.width(), u64::MAX); // saturated
    }

    #[test]
    fn split_even_covers_and_is_disjoint() {
        let full = KeyRange::full();
        for parts in [1usize, 2, 3, 7, 50] {
            let split = full.split_even(parts).unwrap();
            assert_eq!(split.len(), parts);
            assert_eq!(split[0].lo, 0);
            assert_eq!(split.last().unwrap().hi, u64::MAX);
            for w in split.windows(2) {
                assert_eq!(w[0].hi + 1, w[1].lo, "gap or overlap between parts");
            }
        }
    }

    #[test]
    fn split_even_small_range() {
        let r = KeyRange::new(10, 19);
        let split = r.split_even(3).unwrap();
        assert_eq!(split.len(), 3);
        let total: u64 = split.iter().map(|r| r.width()).sum();
        assert_eq!(total, 10);
        assert_eq!(split[0].lo, 10);
        assert_eq!(split[2].hi, 19);
    }

    #[test]
    fn split_zero_parts_is_error() {
        assert!(matches!(
            KeyRange::full().split_even(0),
            Err(Error::InvalidParallelism(0))
        ));
    }

    #[test]
    fn split_too_narrow_is_error() {
        let r = KeyRange::new(5, 6);
        assert!(r.split_even(3).is_err());
    }

    #[test]
    fn overlap_detection() {
        let a = KeyRange::new(0, 10);
        let b = KeyRange::new(10, 20);
        let c = KeyRange::new(11, 20);
        assert!(a.overlaps(&b));
        assert!(!a.overlaps(&c));
    }

    #[test]
    fn distribution_split_balances_skewed_sample() {
        // 90% of keys in a narrow band: the distribution split should put the
        // boundaries inside the band rather than at key-space midpoints.
        let mut sample = Vec::new();
        for i in 0..900u64 {
            sample.push(Key(1000 + i));
        }
        for i in 0..100u64 {
            sample.push(Key(1_000_000_000 + i * 1_000_000));
        }
        let split = KeyRange::full().split_by_distribution(2, &sample).unwrap();
        assert_eq!(split.len(), 2);
        // The boundary must fall inside the dense band + tail, far below the
        // even-split midpoint of the key space.
        assert!(split[0].hi < u64::MAX / 2);
        let count_first = sample.iter().filter(|k| split[0].contains(**k)).count();
        assert!(
            (350..=650).contains(&count_first),
            "unbalanced split: {count_first}/1000 keys in the first part"
        );
    }

    #[test]
    fn distribution_split_falls_back_on_small_sample() {
        let sample = vec![Key(5)];
        let split = KeyRange::full().split_by_distribution(4, &sample).unwrap();
        assert_eq!(split.len(), 4);
        // Fallback is the even split.
        assert_eq!(split, KeyRange::full().split_even(4).unwrap());
    }

    #[test]
    fn distribution_split_degrades_on_degenerate_samples() {
        let r = KeyRange::new(0, 999);
        let even = r.split_even(4).unwrap();
        // Empty sample.
        assert_eq!(r.split_by_distribution(4, &[]).unwrap(), even);
        // All-duplicate sample (one distinct key, heavily repeated).
        let dup = vec![Key(7); 500];
        assert_eq!(r.split_by_distribution(4, &dup).unwrap(), even);
        // Fewer distinct keys than parts, duplicates notwithstanding.
        let mut few = vec![Key(1); 100];
        few.extend(vec![Key(2); 100]);
        few.extend(vec![Key(3); 100]);
        assert_eq!(r.split_by_distribution(4, &few).unwrap(), even);
        // A sample made entirely of out-of-range keys is as good as empty.
        let outside = vec![Key(5_000), Key(6_000)];
        assert_eq!(r.split_by_distribution(4, &outside).unwrap(), even);
    }

    #[test]
    fn weighted_sample_pulls_boundaries_towards_hot_keys() {
        // One key at 100 carries 45 % of the sampled load and the rest sits
        // at 200..750: the even mid-point split dumps 75 % of the load on the
        // lower half, while the weighted quantile puts the boundary right
        // where the cumulative load crosses one half.
        let r = KeyRange::new(0, 999);
        let mut sample = vec![Key(100); 450];
        for k in 200..750u64 {
            sample.push(Key(k));
        }
        let split = r.split_by_distribution(2, &sample).unwrap();
        assert_eq!(split.len(), 2);
        let imb = sample_imbalance(&split, &sample);
        let even_imb = sample_imbalance(&r.split_even(2).unwrap(), &sample);
        assert!(
            (even_imb - 1.5).abs() < 1e-9,
            "even split imbalance {even_imb}"
        );
        assert!(
            imb < 1.1,
            "weighted split must be near-balanced ({imb} vs even {even_imb})"
        );
        // A boundary never lands inside a hot key's run: the hot key and the
        // cold mass straddling the quantile stay separable.
        assert!(split[0].contains(Key(100)) ^ split[1].contains(Key(100)));
    }

    #[test]
    fn sample_imbalance_measures_share_of_hottest_range() {
        let ranges = KeyRange::new(0, 99).split_even(2).unwrap();
        // Perfect balance.
        let balanced: Vec<Key> = (0..100).map(Key).collect();
        assert!((sample_imbalance(&ranges, &balanced) - 1.0).abs() < 1e-9);
        // Everything on the first range: imbalance = number of parts.
        let hot: Vec<Key> = (0..50).map(Key).collect();
        assert!((sample_imbalance(&ranges, &hot) - 2.0).abs() < 1e-9);
        // Degenerate inputs read as balanced.
        assert_eq!(sample_imbalance(&ranges, &[]), 1.0);
        assert_eq!(sample_imbalance(&[], &balanced), 1.0);
        assert_eq!(sample_imbalance(&ranges, &[Key(5_000)]), 1.0);
    }

    #[test]
    fn key_split_strategy_dispatch() {
        let r = KeyRange::new(0, 99);
        assert_eq!(KeySplit::Even.apply(&r, 2).unwrap().len(), 2);
        let sample: Vec<Key> = (0..100).map(Key).collect();
        assert_eq!(
            KeySplit::Distribution(sample).apply(&r, 4).unwrap().len(),
            4
        );
    }

    proptest! {
        /// Every key in a range belongs to exactly one part of an even split.
        #[test]
        fn prop_split_even_partitions_keys(
            lo in 0u64..1_000_000,
            width in 1u64..1_000_000,
            parts in 1usize..16,
            probe in 0u64..1_000_000,
        ) {
            let range = KeyRange::new(lo, lo + width);
            prop_assume!(range.width() >= parts as u64);
            let split = range.split_even(parts).unwrap();
            let key = Key(lo + (probe % (width + 1)));
            let owners = split.iter().filter(|r| r.contains(key)).count();
            prop_assert_eq!(owners, 1);
        }

        /// Distribution-guided splits also cover the range exactly once.
        #[test]
        fn prop_split_distribution_partitions_keys(
            sample in proptest::collection::vec(0u64..10_000, 0..200),
            parts in 1usize..8,
            probe in 0u64..10_000,
        ) {
            let range = KeyRange::new(0, 9_999);
            let sample_keys: Vec<Key> = sample.into_iter().map(Key).collect();
            let split = range.split_by_distribution(parts, &sample_keys).unwrap();
            prop_assert_eq!(split.len(), parts);
            let owners = split.iter().filter(|r| r.contains(Key(probe))).count();
            prop_assert_eq!(owners, 1);
            prop_assert_eq!(split[0].lo, 0);
            prop_assert_eq!(split.last().unwrap().hi, 9_999);
        }

        /// Heavily duplicated (weighted) samples — the shape real checkpoint
        /// sampling produces — never make the split error or lose coverage,
        /// whatever the duplication pattern.
        #[test]
        fn prop_weighted_samples_never_error(
            distinct in proptest::collection::vec(0u64..1_000, 0..20),
            copies in 1usize..50,
            parts in 1usize..6,
            probe in 0u64..1_000,
        ) {
            let range = KeyRange::new(0, 999);
            let mut sample = Vec::new();
            for (i, k) in distinct.iter().enumerate() {
                // Vary the weight per key so quantiles land unevenly.
                for _ in 0..(1 + (i * copies) % 50) {
                    sample.push(Key(*k));
                }
            }
            let split = range.split_by_distribution(parts, &sample).unwrap();
            prop_assert_eq!(split.len(), parts);
            let owners = split.iter().filter(|r| r.contains(Key(probe))).count();
            prop_assert_eq!(owners, 1);
            prop_assert!(sample_imbalance(&split, &sample) >= 1.0 - 1e-9);
        }
    }
}
