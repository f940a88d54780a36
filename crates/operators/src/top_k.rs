//! The stateful "reduce" of the map/reduce-style top-k query (§6.1, open-loop
//! workload): maintains a dictionary of the frequency of visited Wikipedia
//! language versions and outputs the ranking of the most visited ones every
//! reporting interval (30 s in the paper).

use serde::{Deserialize, Serialize};

use seep_core::{
    BatchOutput, Key, OutputTuple, ProcessingState, StateDelta, StatefulOperator, StreamId,
    TrackedMap, Tuple,
};

/// Reserved state key of the reporting-interval bookkeeping.
const INTERVAL_META: Key = Key(u64::MAX);

/// One ranking entry emitted at the end of a reporting interval.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RankingEntry {
    /// The counted item (e.g. a Wikipedia language code).
    pub item: String,
    /// Number of visits in the interval.
    pub count: u64,
    /// Rank (1 = most visited).
    pub rank: u32,
    /// Reporting interval sequence number.
    pub interval: u64,
}

/// A dictionary entry of the reducer's processing state: one counted item.
///
/// Public so that result aggregators (the paper's sink merges partial
/// rankings from the partitioned reducers) can decode the reducer's
/// checkpointable state entries directly.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ItemCount {
    /// The counted item (e.g. a Wikipedia language code).
    pub item: String,
    /// Number of visits so far in the current interval.
    pub count: u64,
}

/// Stateful top-k reducer.
pub struct TopKReducer {
    counts: TrackedMap<ItemCount>,
    k: usize,
    interval_ms: u64,
    last_emit_ms: u64,
    interval_seq: u64,
    /// An interval closed since the last delta capture.
    interval_meta_dirty: bool,
}

impl TopKReducer {
    /// Create a reducer reporting the top `k` items every `interval_ms`.
    pub fn new(k: usize, interval_ms: u64) -> Self {
        TopKReducer {
            counts: TrackedMap::new(),
            k: k.max(1),
            interval_ms: interval_ms.max(1),
            last_emit_ms: 0,
            interval_seq: 0,
            interval_meta_dirty: false,
        }
    }

    fn interval_meta(&self) -> bytes::Bytes {
        seep_core::encode_bytes(&(self.last_emit_ms, self.interval_seq))
            .expect("interval metadata serialises")
    }

    /// Number of distinct items tracked in the current interval.
    pub fn distinct_items(&self) -> usize {
        self.counts.len()
    }

    /// Current count of an item.
    pub fn count_of(&self, item: &str) -> Option<u64> {
        self.counts
            .values()
            .find(|c| c.item == item)
            .map(|c| c.count)
    }

    /// Compute the current ranking without closing the interval (used by the
    /// sink to aggregate partial results from partitioned reducers).
    pub fn current_top(&self) -> Vec<(String, u64)> {
        let mut items: Vec<(String, u64)> = self
            .counts
            .values()
            .map(|c| (c.item.clone(), c.count))
            .collect();
        items.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        items.truncate(self.k);
        items
    }
}

impl StatefulOperator for TopKReducer {
    fn process(&mut self, _stream: StreamId, tuple: &Tuple, _out: &mut Vec<OutputTuple>) {
        let Ok(item) = tuple.decode::<String>() else {
            return;
        };
        self.counts
            .get_or_insert_with(tuple.key, || ItemCount { item, count: 0 })
            .count += 1;
    }

    // Hand-rolled batch loop: reducing emits nothing until the interval
    // closes, so the batch is one tight increment pass. The payload only
    // matters the first time a key is seen (the dictionary is keyed by the
    // tuple key), so the decode is deferred to vacant entries.
    fn process_batch(&mut self, _stream: StreamId, tuples: &[Tuple], _out: &mut BatchOutput) {
        for tuple in tuples {
            match self.counts.get_mut(tuple.key) {
                Some(entry) => entry.count += 1,
                None => {
                    if let Ok(item) = tuple.decode::<String>() {
                        self.counts.insert(tuple.key, ItemCount { item, count: 1 });
                    }
                }
            }
        }
    }

    fn on_tick(&mut self, now_ms: u64, out: &mut Vec<OutputTuple>) {
        if now_ms < self.last_emit_ms + self.interval_ms {
            return;
        }
        for (rank, (item, count)) in self.current_top().into_iter().enumerate() {
            let entry = RankingEntry {
                rank: rank as u32 + 1,
                interval: self.interval_seq,
                item: item.clone(),
                count,
            };
            let key = Key::from_str_key(&item);
            if let Ok(t) = OutputTuple::encode(key, &entry) {
                out.push(t);
            }
        }
        self.counts.clear();
        self.last_emit_ms = now_ms;
        self.interval_seq += 1;
        self.interval_meta_dirty = true;
    }

    fn get_processing_state(&self) -> ProcessingState {
        let mut st = self.counts.snapshot();
        st.insert(INTERVAL_META, self.interval_meta());
        st
    }

    fn set_processing_state(&mut self, mut state: ProcessingState) {
        if let Ok(Some((last, seq))) = state.get_decoded::<(u64, u64)>(INTERVAL_META) {
            self.last_emit_ms = last;
            self.interval_seq = seq;
        }
        state.remove(INTERVAL_META);
        self.counts.restore_from(&state);
    }

    fn take_state_delta(&mut self) -> StateDelta {
        let meta_dirty = std::mem::take(&mut self.interval_meta_dirty);
        self.counts
            .take_delta()
            .with_entry(INTERVAL_META, self.interval_meta(), meta_dirty)
    }

    fn name(&self) -> &str {
        "top_k_reducer"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn visit(op: &mut TopKReducer, ts: u64, lang: &str) {
        let t = Tuple::encode(ts, Key::from_str_key(lang), &lang.to_string()).unwrap();
        let mut out = Vec::new();
        op.process(StreamId(0), &t, &mut out);
    }

    #[test]
    fn ranking_orders_by_count() {
        let mut op = TopKReducer::new(3, 30_000);
        for _ in 0..10 {
            visit(&mut op, 1, "en");
        }
        for _ in 0..5 {
            visit(&mut op, 2, "de");
        }
        visit(&mut op, 3, "fr");
        visit(&mut op, 4, "ja");

        let top = op.current_top();
        assert_eq!(top.len(), 3);
        assert_eq!(top[0], ("en".to_string(), 10));
        assert_eq!(top[1], ("de".to_string(), 5));
        assert_eq!(op.distinct_items(), 4);
        assert_eq!(op.count_of("en"), Some(10));
        assert_eq!(op.count_of("xx"), None);
    }

    #[test]
    fn interval_close_emits_ranked_entries_and_resets() {
        let mut op = TopKReducer::new(2, 30_000);
        for _ in 0..3 {
            visit(&mut op, 1, "en");
        }
        visit(&mut op, 2, "de");
        let mut out = Vec::new();
        op.on_tick(29_999, &mut out);
        assert!(out.is_empty());
        op.on_tick(30_000, &mut out);
        assert_eq!(out.len(), 2);
        let first: RankingEntry = out[0].clone().with_ts(0).decode().unwrap();
        assert_eq!(first.rank, 1);
        assert_eq!(first.item, "en");
        assert_eq!(first.interval, 0);
        assert_eq!(op.distinct_items(), 0);
    }

    #[test]
    fn ties_break_deterministically_by_name() {
        let mut op = TopKReducer::new(2, 1_000);
        visit(&mut op, 1, "zz");
        visit(&mut op, 2, "aa");
        let top = op.current_top();
        assert_eq!(top[0].0, "aa");
        assert_eq!(top[1].0, "zz");
    }

    #[test]
    fn state_roundtrip_and_partitioning() {
        use seep_core::KeyRange;
        let mut op = TopKReducer::new(5, 30_000);
        for lang in ["en", "de", "fr", "es", "ru", "ja", "zh"] {
            visit(&mut op, 1, lang);
        }
        let state = op.get_processing_state();
        // Restore into a fresh operator.
        let mut restored = TopKReducer::new(5, 30_000);
        restored.set_processing_state(state.clone());
        assert_eq!(restored.distinct_items(), 7);
        // Partition: counts are split, no language is lost or duplicated.
        let ranges = KeyRange::full().split_even(3).unwrap();
        let parts = state.partition_by_ranges(&ranges);
        let mut reducers: Vec<TopKReducer> = parts
            .iter()
            .map(|p| {
                let mut r = TopKReducer::new(5, 30_000);
                r.set_processing_state(p.clone());
                r
            })
            .collect();
        let total: usize = reducers.iter().map(|r| r.distinct_items()).sum();
        assert_eq!(total, 7);
        // The global top-1 can be reconstructed from the partial results.
        let best = reducers
            .iter_mut()
            .flat_map(|r| r.current_top())
            .max_by_key(|(_, c)| *c)
            .unwrap();
        assert_eq!(best.1, 1);
    }
}
