//! The word splitter operator of the running example (Fig. 2) and of the
//! windowed word-frequency query used in the recovery experiments (§6.2).
//!
//! A stateless operator that tokenises a stream of sentence fragments into
//! words, keying each output tuple by the word so that downstream partitioned
//! word counters receive all occurrences of a given word.
//!
//! The same work is also available as a three-stage stateless chain —
//! [`SentenceTokenizer`] → [`EmptyTokenFilter`] → [`WordKeyer`] — whose
//! end-to-end outputs are identical to [`WordSplitter`]'s. The decomposed
//! form is what the throughput benchmark deploys: the physical-plan
//! compiler fuses the chain back into one unit, so the fused arm matches
//! the monolithic splitter's cost while the unfused arm pays two extra
//! channel hops per word.
//!
//! **Allocation budget.** Every stage reads its input as a `&str` lent out
//! of the payload, so decoding allocates nothing. A word costs one
//! exact-size payload allocation: the tokenizer's (or, in
//! [`WordSplitter`], the output's). After that a stage that passes a value
//! on unchanged passes its bytes on: the filter forwards its input payload,
//! and so does the keyer when the word is already lower case (ASCII with no
//! upper-case letter). Any other word is lower-cased with
//! [`str::to_lowercase`] and encoded afresh. `tests/alloc_budget.rs` holds
//! these counts.

use std::borrow::Cow;

use seep_core::{
    BatchOutput, Key, OutputTuple, ProcessingState, StatefulOperator, StreamId, Tuple,
};

/// Whether `word` is its own lower case by the ASCII check: no byte is
/// non-ASCII or an upper-case letter.
fn is_lower_ascii(word: &str) -> bool {
    word.bytes()
        .all(|b| b.is_ascii() && !b.is_ascii_uppercase())
}

/// One output per word: the lower-cased word, keyed by itself. A word that
/// [`is_lower_ascii`] is encoded as it is, any other lower-cased with
/// [`str::to_lowercase`] first.
fn keyed_word(word: &str) -> Option<OutputTuple> {
    let word = if is_lower_ascii(word) {
        Cow::Borrowed(word)
    } else {
        Cow::Owned(word.to_lowercase())
    };
    OutputTuple::encode(Key::from_str_key(&word), word.as_ref()).ok()
}

/// The alphanumeric words of `sentence`, in order.
fn words(sentence: &str) -> impl Iterator<Item = &str> {
    sentence
        .split(|c: char| !c.is_alphanumeric())
        .filter(|w| !w.is_empty())
}

/// Stateless word splitter: input payloads are `bincode`-encoded `String`s
/// (sentence fragments); each output tuple carries one lower-cased word, keyed
/// by the word.
#[derive(Debug, Default)]
pub struct WordSplitter {
    /// Number of words emitted (local metric, not part of managed state — the
    /// operator is stateless with respect to query semantics).
    emitted: u64,
}

impl WordSplitter {
    /// Create a splitter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of words emitted so far.
    pub fn emitted(&self) -> u64 {
        self.emitted
    }
}

impl StatefulOperator for WordSplitter {
    fn process(&mut self, _stream: StreamId, tuple: &Tuple, out: &mut Vec<OutputTuple>) {
        let Ok(sentence) = tuple.decode::<&str>() else {
            return;
        };
        for out_tuple in words(sentence).filter_map(keyed_word) {
            out.push(out_tuple);
            self.emitted += 1;
        }
    }

    // Hand-rolled batch loop: words go straight into the attributed output
    // set, skipping the per-tuple scratch vector the default would drain.
    fn process_batch(&mut self, _stream: StreamId, tuples: &[Tuple], out: &mut BatchOutput) {
        for (index, tuple) in tuples.iter().enumerate() {
            let Ok(sentence) = tuple.decode::<&str>() else {
                continue;
            };
            out.set_source(index);
            for out_tuple in words(sentence).filter_map(keyed_word) {
                out.push(out_tuple);
                self.emitted += 1;
            }
        }
    }

    fn get_processing_state(&self) -> ProcessingState {
        ProcessingState::empty()
    }

    fn set_processing_state(&mut self, _state: ProcessingState) {}

    fn is_stateful(&self) -> bool {
        false
    }

    fn name(&self) -> &str {
        "word_splitter"
    }
}

/// Stage 1 of the decomposed splitter chain: cut the `bincode`-encoded
/// `String` sentence into raw segments at every non-alphanumeric character.
/// Segments are emitted as-is — consecutive separators produce empty
/// segments, which the downstream [`EmptyTokenFilter`] drops — keyed by the
/// input tuple's key (the final per-word key is assigned by [`WordKeyer`]).
#[derive(Debug, Default)]
pub struct SentenceTokenizer;

impl SentenceTokenizer {
    /// Create a tokenizer.
    pub fn new() -> Self {
        Self
    }

    fn tokenize(tuple: &Tuple, mut emit: impl FnMut(OutputTuple)) {
        let Ok(sentence) = tuple.decode::<&str>() else {
            return;
        };
        for segment in sentence.split(|c: char| !c.is_alphanumeric()) {
            if let Ok(out_tuple) = OutputTuple::encode(tuple.key, segment) {
                emit(out_tuple);
            }
        }
    }
}

impl StatefulOperator for SentenceTokenizer {
    fn process(&mut self, _stream: StreamId, tuple: &Tuple, out: &mut Vec<OutputTuple>) {
        Self::tokenize(tuple, |t| out.push(t));
    }

    fn process_batch(&mut self, _stream: StreamId, tuples: &[Tuple], out: &mut BatchOutput) {
        for (index, tuple) in tuples.iter().enumerate() {
            out.set_source(index);
            Self::tokenize(tuple, |t| out.push(t));
        }
    }

    fn get_processing_state(&self) -> ProcessingState {
        ProcessingState::empty()
    }

    fn set_processing_state(&mut self, _state: ProcessingState) {}

    fn is_stateful(&self) -> bool {
        false
    }

    fn name(&self) -> &str {
        "sentence_tokenizer"
    }
}

/// Stage 2 of the decomposed splitter chain: drop the empty segments the
/// tokenizer produced between consecutive separators (and any malformed
/// payload); everything else passes through untouched.
#[derive(Debug, Default)]
pub struct EmptyTokenFilter;

impl EmptyTokenFilter {
    /// Create a filter.
    pub fn new() -> Self {
        Self
    }

    fn keeps(tuple: &Tuple) -> bool {
        matches!(tuple.decode::<&str>(), Ok(segment) if !segment.is_empty())
    }
}

impl StatefulOperator for EmptyTokenFilter {
    fn process(&mut self, _stream: StreamId, tuple: &Tuple, out: &mut Vec<OutputTuple>) {
        if Self::keeps(tuple) {
            out.push(OutputTuple::new(tuple.key, tuple.payload.clone()));
        }
    }

    fn process_batch(&mut self, _stream: StreamId, tuples: &[Tuple], out: &mut BatchOutput) {
        for (index, tuple) in tuples.iter().enumerate() {
            if Self::keeps(tuple) {
                out.set_source(index);
                out.push(OutputTuple::new(tuple.key, tuple.payload.clone()));
            }
        }
    }

    fn get_processing_state(&self) -> ProcessingState {
        ProcessingState::empty()
    }

    fn set_processing_state(&mut self, _state: ProcessingState) {}

    fn is_stateful(&self) -> bool {
        false
    }

    fn name(&self) -> &str {
        "empty_token_filter"
    }
}

/// Stage 3 of the decomposed splitter chain: lower-case the surviving token
/// and key the output by the word, exactly as [`WordSplitter`] keys its
/// outputs — downstream partitioned counters see the identical stream. A
/// word that is already lower case keeps its input payload.
#[derive(Debug, Default)]
pub struct WordKeyer;

impl WordKeyer {
    /// Create a keyer.
    pub fn new() -> Self {
        Self
    }

    fn rekey(tuple: &Tuple) -> Option<OutputTuple> {
        let word = tuple.decode::<&str>().ok()?;
        if is_lower_ascii(word) {
            return Some(OutputTuple::new(
                Key::from_str_key(word),
                tuple.payload.clone(),
            ));
        }
        keyed_word(word)
    }
}

impl StatefulOperator for WordKeyer {
    fn process(&mut self, _stream: StreamId, tuple: &Tuple, out: &mut Vec<OutputTuple>) {
        out.extend(Self::rekey(tuple));
    }

    fn process_batch(&mut self, _stream: StreamId, tuples: &[Tuple], out: &mut BatchOutput) {
        for (index, tuple) in tuples.iter().enumerate() {
            if let Some(out_tuple) = Self::rekey(tuple) {
                out.set_source(index);
                out.push(out_tuple);
            }
        }
    }

    fn get_processing_state(&self) -> ProcessingState {
        ProcessingState::empty()
    }

    fn set_processing_state(&mut self, _state: ProcessingState) {}

    fn is_stateful(&self) -> bool {
        false
    }

    fn name(&self) -> &str {
        "word_keyer"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn split(sentence: &str) -> Vec<String> {
        let mut op = WordSplitter::new();
        let t = Tuple::encode(1, Key(0), &sentence.to_string()).unwrap();
        let mut out = Vec::new();
        op.process(StreamId(0), &t, &mut out);
        out.iter()
            .map(|o| o.clone().with_ts(0).decode::<String>().unwrap())
            .collect()
    }

    #[test]
    fn splits_paper_example_sentences() {
        // Fig. 2 feeds " first set ", " second set ", " third set ".
        assert_eq!(split(" first set "), vec!["first", "set"]);
        assert_eq!(split(" second set "), vec!["second", "set"]);
        assert_eq!(split(" third set "), vec!["third", "set"]);
    }

    #[test]
    fn lowercases_and_strips_punctuation() {
        assert_eq!(split("Hello, WORLD!"), vec!["hello", "world"]);
        assert!(split("...").is_empty());
    }

    #[test]
    fn keys_are_per_word() {
        let mut op = WordSplitter::new();
        let t = Tuple::encode(1, Key(0), &"set first set".to_string()).unwrap();
        let mut out = Vec::new();
        op.process(StreamId(0), &t, &mut out);
        assert_eq!(out.len(), 3);
        assert_eq!(out[0].key, Key::from_str_key("set"));
        assert_eq!(out[2].key, Key::from_str_key("set"));
        assert_ne!(out[1].key, out[0].key);
        assert_eq!(op.emitted(), 3);
    }

    #[test]
    fn malformed_payload_is_dropped() {
        let mut op = WordSplitter::new();
        let mut out = Vec::new();
        op.process(
            StreamId(0),
            &Tuple::new(1, Key(0), vec![0xff, 0x01]),
            &mut out,
        );
        assert!(out.is_empty());
    }

    #[test]
    fn splitter_is_stateless() {
        let op = WordSplitter::new();
        assert!(!op.is_stateful());
        assert!(op.get_processing_state().is_empty());
        assert_eq!(op.name(), "word_splitter");
    }

    /// Run a sentence through the three-stage chain by hand, per-tuple.
    fn chain(sentence: &str) -> Vec<(Key, String)> {
        let t = Tuple::encode(1, Key(42), &sentence.to_string()).unwrap();
        let mut tokens = Vec::new();
        SentenceTokenizer::new().process(StreamId(0), &t, &mut tokens);
        let mut kept = Vec::new();
        for (ts, token) in tokens.into_iter().enumerate() {
            EmptyTokenFilter::new().process(StreamId(0), &token.with_ts(ts as u64 + 1), &mut kept);
        }
        let mut words = Vec::new();
        for (ts, token) in kept.into_iter().enumerate() {
            WordKeyer::new().process(StreamId(0), &token.with_ts(ts as u64 + 1), &mut words);
        }
        words
            .into_iter()
            .map(|o| {
                let key = o.key;
                (key, o.with_ts(0).decode::<String>().unwrap())
            })
            .collect()
    }

    #[test]
    fn decomposed_chain_is_equivalent_to_the_monolithic_splitter() {
        for sentence in [
            " first set ",
            "Hello, WORLD!",
            "set first set",
            "...",
            "a--b  c",
            "",
        ] {
            let mut splitter = WordSplitter::new();
            let t = Tuple::encode(1, Key(42), &sentence.to_string()).unwrap();
            let mut out = Vec::new();
            splitter.process(StreamId(0), &t, &mut out);
            let expected: Vec<(Key, String)> = out
                .into_iter()
                .map(|o| {
                    let key = o.key;
                    (key, o.with_ts(0).decode::<String>().unwrap())
                })
                .collect();
            assert_eq!(chain(sentence), expected, "sentence {sentence:?}");
        }
    }

    // -----------------------------------------------------------------------
    // The fast paths emit exactly what lower-casing and encoding afresh does.
    // -----------------------------------------------------------------------

    use proptest::prelude::*;
    use proptest::Gen;

    /// Sentences over an alphabet of separators, ASCII of both cases, letters
    /// whose lower case is context-dependent (`Σ`), longer (`İ`) or a
    /// different letter (`ǅ`), lower-case non-ASCII, and any other `char`.
    struct AnySentence;

    impl Strategy for AnySentence {
        type Value = String;

        fn generate(&self, gen: &mut Gen) -> String {
            const ALPHABET: [char; 16] = [
                'a', 'z', 'Q', '7', ' ', ',', '-', 'Σ', 'σ', 'ς', 'İ', 'ǅ', 'é', 'ß', 'Ω', 'ﬀ',
            ];
            let len = gen.next_u64() % 24;
            (0..len)
                .map(|_| match gen.next_u64() % 8 {
                    0 => char::from_u32((gen.next_u64() % 0x3_0000) as u32).unwrap_or('x'),
                    _ => ALPHABET[(gen.next_u64() % ALPHABET.len() as u64) as usize],
                })
                .collect()
        }
    }

    /// The reference: every word lower-cased with `str::to_lowercase`, keyed
    /// by itself and encoded afresh.
    fn reference(sentence: &str) -> Vec<(Key, Vec<u8>)> {
        words(sentence)
            .map(|w| {
                let lower = w.to_lowercase();
                (
                    Key::from_str_key(&lower),
                    bincode::serialize(&lower).unwrap(),
                )
            })
            .collect()
    }

    fn raw(outputs: impl IntoIterator<Item = OutputTuple>) -> Vec<(Key, Vec<u8>)> {
        outputs
            .into_iter()
            .map(|o| (o.key, o.payload.to_vec()))
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn every_path_emits_the_reference_bytes(sentence in AnySentence) {
            let expected = reference(&sentence);
            let input = Tuple::encode(1, Key(42), &sentence).unwrap();

            let mut out = Vec::new();
            WordSplitter::new().process(StreamId(0), &input, &mut out);
            prop_assert_eq!(raw(out), expected.clone(), "splitter on {:?}", sentence);

            let mut batch = BatchOutput::new();
            WordSplitter::new().process_batch(StreamId(0), std::slice::from_ref(&input), &mut batch);
            let batched = raw(batch.into_items().into_iter().map(|(_, o)| o));
            prop_assert_eq!(batched, expected.clone(), "batched splitter on {:?}", sentence);

            let mut keyed = Vec::new();
            for word in words(&sentence) {
                let t = Tuple::encode(1, Key(42), word).unwrap();
                WordKeyer::new().process(StreamId(0), &t, &mut keyed);
            }
            prop_assert_eq!(raw(keyed), expected.clone(), "keyer on {:?}", sentence);

            let chained: Vec<(Key, Vec<u8>)> = chain(&sentence)
                .into_iter()
                .map(|(key, word)| (key, bincode::serialize(&word).unwrap()))
                .collect();
            prop_assert_eq!(chained, expected, "chain on {:?}", sentence);
        }
    }

    #[test]
    fn chain_stages_are_stateless() {
        for op in [
            Box::new(SentenceTokenizer::new()) as Box<dyn StatefulOperator>,
            Box::new(EmptyTokenFilter::new()),
            Box::new(WordKeyer::new()),
        ] {
            assert!(!op.is_stateful(), "{}", op.name());
            assert!(op.get_processing_state().is_empty(), "{}", op.name());
        }
    }
}
