//! The windowed word-frequency counter (Fig. 2 and §6.2/§6.3).
//!
//! A stateful operator maintaining a dictionary of word → count over a
//! tumbling window (30 s in the paper). Its processing state is exactly that
//! dictionary, exposed as key/value pairs keyed by the word's tuple key — the
//! same representation the paper uses in Fig. 2
//! (`{'s': "second:1, set:2"}`).

use serde::{Deserialize, Serialize};

use seep_core::{
    BatchOutput, Key, OutputTuple, ProcessingState, StateDelta, StatefulOperator, StreamId,
    TrackedMap, Tuple,
};

/// Reserved state key of the window bookkeeping, outside the word key space
/// so it partitions with any key range that includes it; on restore each
/// partition gets a consistent window sequence.
const WINDOW_META: Key = Key(u64::MAX);

/// The per-key value stored in the processing state: the word text plus its
/// count in the current window. Keeping the word text allows human-readable
/// results and makes state entries a realistic size.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct WordEntry {
    /// The word.
    pub word: String,
    /// Occurrences within the current window.
    pub count: u64,
}

/// Output record emitted at the end of each window.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct WordFrequency {
    /// The word.
    pub word: String,
    /// Its frequency over the closed window.
    pub count: u64,
    /// Window sequence number (starting at 0).
    pub window: u64,
}

/// Stateful windowed word counter.
pub struct WindowedWordCount {
    counts: TrackedMap<WordEntry>,
    window_ms: u64,
    last_window_close_ms: u64,
    window_seq: u64,
    /// A window closed since the last delta capture.
    window_meta_dirty: bool,
}

impl WindowedWordCount {
    /// Create a counter with the given tumbling window length (the paper uses
    /// 30 s).
    pub fn new(window_ms: u64) -> Self {
        WindowedWordCount {
            counts: TrackedMap::new(),
            window_ms: window_ms.max(1),
            last_window_close_ms: 0,
            window_seq: 0,
            window_meta_dirty: false,
        }
    }

    /// Number of distinct words currently tracked.
    pub fn distinct_words(&self) -> usize {
        self.counts.len()
    }

    /// The current count of a word, if tracked.
    pub fn count_of(&self, word: &str) -> Option<u64> {
        self.counts
            .get(Key::from_str_key(&word.to_lowercase()))
            .map(|e| e.count)
    }

    /// Pre-populate the dictionary with synthetic entries. Used by the state
    /// management overhead experiments (§6.3), which vary the dictionary size
    /// between 10² and 10⁵ entries.
    pub fn prepopulate(&mut self, entries: usize) {
        for i in 0..entries {
            let word = format!("synthetic-word-{i:08}");
            // Stored under the tuple key the word would arrive with.
            let key = Key::from_str_key(&word);
            self.counts.insert(key, WordEntry { word, count: 1 });
        }
    }

    fn window_meta(&self) -> bytes::Bytes {
        seep_core::encode_bytes(&(self.last_window_close_ms, self.window_seq))
            .expect("window metadata serialises")
    }
}

impl StatefulOperator for WindowedWordCount {
    fn process(&mut self, _stream: StreamId, tuple: &Tuple, _out: &mut Vec<OutputTuple>) {
        let Ok(word) = tuple.decode::<String>() else {
            return;
        };
        self.counts
            .get_or_insert_with(tuple.key, || WordEntry { word, count: 0 })
            .count += 1;
    }

    // Hand-rolled batch loop: counting emits nothing, so the whole batch is
    // a tight increment pass with no per-tuple output bookkeeping. The
    // payload only matters the first time a key is seen (the dictionary is
    // keyed by the tuple key), so the decode is deferred to vacant entries —
    // at saturation almost every tuple hits an existing word.
    fn process_batch(&mut self, _stream: StreamId, tuples: &[Tuple], _out: &mut BatchOutput) {
        for tuple in tuples {
            match self.counts.get_mut(tuple.key) {
                Some(entry) => entry.count += 1,
                None => {
                    if let Ok(word) = tuple.decode::<String>() {
                        self.counts.insert(tuple.key, WordEntry { word, count: 1 });
                    }
                }
            }
        }
    }

    fn on_tick(&mut self, now_ms: u64, out: &mut Vec<OutputTuple>) {
        if now_ms < self.last_window_close_ms + self.window_ms {
            return;
        }
        // Close the window: emit every word's frequency and reset.
        for entry in self.counts.values() {
            let freq = WordFrequency {
                word: entry.word.clone(),
                count: entry.count,
                window: self.window_seq,
            };
            let key = Key::from_str_key(&entry.word);
            if let Ok(t) = OutputTuple::encode(key, &freq) {
                out.push(t);
            }
        }
        self.counts.clear();
        self.last_window_close_ms = now_ms;
        self.window_seq += 1;
        self.window_meta_dirty = true;
    }

    fn get_processing_state(&self) -> ProcessingState {
        let mut st = self.counts.snapshot();
        st.insert(WINDOW_META, self.window_meta());
        st
    }

    fn set_processing_state(&mut self, mut state: ProcessingState) {
        if let Ok(Some((close, seq))) = state.get_decoded::<(u64, u64)>(WINDOW_META) {
            self.last_window_close_ms = close;
            self.window_seq = seq;
        }
        state.remove(WINDOW_META);
        self.counts.restore_from(&state);
    }

    fn take_state_delta(&mut self) -> StateDelta {
        let meta_dirty = std::mem::take(&mut self.window_meta_dirty);
        self.counts
            .take_delta()
            .with_entry(WINDOW_META, self.window_meta(), meta_dirty)
    }

    fn name(&self) -> &str {
        "word_counter"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn word_tuple(ts: u64, word: &str) -> Tuple {
        Tuple::encode(ts, Key::from_str_key(word), &word.to_string()).unwrap()
    }

    fn feed(op: &mut WindowedWordCount, words: &[&str]) {
        let mut out = Vec::new();
        for (i, w) in words.iter().enumerate() {
            op.process(StreamId(0), &word_tuple(i as u64 + 1, w), &mut out);
        }
        assert!(
            out.is_empty(),
            "counting emits nothing until the window closes"
        );
    }

    #[test]
    fn counts_words_like_fig2() {
        let mut op = WindowedWordCount::new(30_000);
        feed(&mut op, &["first", "set", "second", "set", "third", "set"]);
        assert_eq!(op.count_of("set"), Some(3));
        assert_eq!(op.count_of("first"), Some(1));
        assert_eq!(op.count_of("missing"), None);
        assert_eq!(op.distinct_words(), 4);
    }

    #[test]
    fn window_close_emits_and_resets() {
        let mut op = WindowedWordCount::new(30_000);
        feed(&mut op, &["a", "b", "a"]);
        let mut out = Vec::new();
        op.on_tick(10_000, &mut out);
        assert!(out.is_empty(), "window not elapsed yet");
        op.on_tick(30_000, &mut out);
        assert_eq!(out.len(), 2);
        let mut freqs: Vec<WordFrequency> = out
            .iter()
            .map(|o| o.clone().with_ts(0).decode().unwrap())
            .collect();
        freqs.sort_by(|x, y| x.word.cmp(&y.word));
        assert_eq!(freqs[0].word, "a");
        assert_eq!(freqs[0].count, 2);
        assert_eq!(freqs[0].window, 0);
        // Window reset.
        assert_eq!(op.distinct_words(), 0);
        let mut out2 = Vec::new();
        op.on_tick(60_000, &mut out2);
        assert!(out2.is_empty(), "empty window emits nothing");
    }

    #[test]
    fn state_roundtrip_preserves_counts_and_window() {
        let mut op = WindowedWordCount::new(30_000);
        feed(&mut op, &["x", "y", "x"]);
        let mut tick_out = Vec::new();
        op.on_tick(30_000, &mut tick_out); // advance window bookkeeping
        feed(&mut op, &["z"]);
        let state = op.get_processing_state();

        let mut restored = WindowedWordCount::new(30_000);
        restored.set_processing_state(state);
        assert_eq!(restored.count_of("z"), Some(1));
        assert_eq!(restored.count_of("x"), None, "previous window was emitted");
        assert_eq!(restored.window_seq, 1);
        assert_eq!(restored.last_window_close_ms, 30_000);
    }

    #[test]
    fn state_partitions_by_word_key() {
        use seep_core::KeyRange;
        let mut op = WindowedWordCount::new(30_000);
        feed(&mut op, &["alpha", "beta", "gamma", "delta", "epsilon"]);
        let state = op.get_processing_state();
        let ranges = KeyRange::full().split_even(2).unwrap();
        let parts = state.partition_by_ranges(&ranges);
        // Entries (plus the metadata entry) are preserved across partitions.
        let total: usize = parts.iter().map(|p| p.len()).sum();
        assert_eq!(total, 5 + 1);
        // Each partition restores into a working counter holding only the
        // words whose key falls in its range.
        let mut c1 = WindowedWordCount::new(30_000);
        c1.set_processing_state(parts[0].clone());
        let mut c2 = WindowedWordCount::new(30_000);
        c2.set_processing_state(parts[1].clone());
        assert_eq!(c1.distinct_words() + c2.distinct_words(), 5);
    }

    #[test]
    fn prepopulate_creates_requested_dictionary_size() {
        let mut op = WindowedWordCount::new(30_000);
        op.prepopulate(10_000);
        assert_eq!(op.distinct_words(), 10_000);
        let size = op.get_processing_state().size_bytes();
        // ~10^4 entries is the paper's "medium" state (~200 KB).
        assert!(size > 100_000, "state unexpectedly small: {size}");
    }

    #[test]
    fn malformed_payloads_are_ignored() {
        let mut op = WindowedWordCount::new(1_000);
        let mut out = Vec::new();
        op.process(StreamId(0), &Tuple::new(1, Key(1), vec![0xff]), &mut out);
        assert_eq!(op.distinct_words(), 0);
    }
}
