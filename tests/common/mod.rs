//! What the equivalence suites compare, and an expectation for it that is
//! recomputed from the injected sentences alone.
//!
//! Every configuration the suites run — any batch size, thread count or
//! fusion policy — goes through the same data-plane code, so agreeing with
//! each other proves little on its own. [`Oracle`] folds the generated
//! sentences directly into the window results, per-operator processed counts
//! and emit clocks a correct run must show, by arithmetic over sentences,
//! words and virtual time; each suite asserts its runs equal it.

#![allow(dead_code)] // each suite uses the subset its scenarios need

use std::collections::BTreeMap;

use seep::runtime::TICK_INTERVAL_MS;

/// Virtual time the suites advance per injected chunk.
pub const STEP_MS: u64 = 500;

/// Everything observable about one run, compared across configurations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fingerprint {
    /// `(word, count, window)` in sink arrival order.
    pub sink_outputs: Vec<(String, u64, u64)>,
    /// Tuples processed per logical operator, in chain order.
    pub processed: Vec<(String, u64)>,
    /// Emit-clock value per logical operator, in chain order.
    pub emit_clocks: Vec<(String, u64)>,
    /// End-to-end latency samples recorded (one per sink tuple).
    pub latency_samples: usize,
}

impl Fingerprint {
    /// The same run with the sink outputs in canonical order: arrival order
    /// follows the counter's state iteration, which the oracle does not model.
    pub fn sorted(mut self) -> Self {
        self.sink_outputs.sort();
        self
    }

    /// Occurrences per word summed over every window result at the sink.
    pub fn word_totals(&self) -> BTreeMap<String, u64> {
        let mut totals = BTreeMap::new();
        for (word, count, _) in &self.sink_outputs {
            *totals.entry(word.clone()).or_insert(0) += count;
        }
        totals
    }

    /// The emit clock of the named operator.
    pub fn emit_clock(&self, name: &str) -> u64 {
        let (_, clock) = self
            .emit_clocks
            .iter()
            .find(|(n, _)| n == name)
            .expect("operator in fingerprint");
        *clock
    }
}

/// Deterministic two-word sentences over a bounded vocabulary, `chunks[i]`
/// of them in the i-th chunk. `punctuated` wraps the words in separators so
/// a tokenizer splitting at every non-alphanumeric character also produces
/// empty segments.
pub fn sentence_chunks(chunks: &[usize], vocabulary: usize, punctuated: bool) -> Vec<Vec<String>> {
    let mut sequence = 0u64;
    chunks
        .iter()
        .map(|&chunk| {
            (0..chunk)
                .map(|_| {
                    let a = (sequence * 7 + 3) % vocabulary as u64;
                    let b = (sequence * 13 + 5) % vocabulary as u64;
                    sequence += 1;
                    if punctuated {
                        format!(" word{a}, word{b}!")
                    } else {
                        format!("word{a} word{b}")
                    }
                })
                .collect()
        })
        .collect()
}

/// The expectation recomputed from the input.
#[derive(Debug, Clone)]
pub struct Oracle {
    /// Sentences injected.
    pub sentences: u64,
    /// Segments between non-alphanumeric characters, empty ones included.
    pub segments: u64,
    /// Non-empty segments.
    pub words: u64,
    /// `(word, count, window)` of a never-reconfigured run, sorted.
    pub results: Vec<(String, u64, u64)>,
    /// Occurrences per word over the whole input.
    pub totals: BTreeMap<String, u64>,
}

impl Oracle {
    /// Fold `chunks` under the suites' schedule: per chunk, inject, advance
    /// virtual time by [`STEP_MS`] (which may tick), then drain — so a chunk
    /// is counted into the window open *after* that tick — and finally a
    /// jump of two windows that closes the last one. A tick happens when a
    /// tick interval has passed since the previous one; a tick closes the
    /// window when `window_ms` have passed since the previous close, emptying
    /// the counts into results stamped with the window's sequence number.
    pub fn fold(chunks: &[Vec<String>], window_ms: u64) -> Oracle {
        let mut oracle = Oracle {
            sentences: 0,
            segments: 0,
            words: 0,
            results: Vec::new(),
            totals: BTreeMap::new(),
        };
        let mut open: BTreeMap<String, u64> = BTreeMap::new();
        let (mut now, mut last_tick, mut last_close, mut window) = (0u64, 0u64, 0u64, 0u64);
        let mut advance = |now: u64, open: &mut BTreeMap<String, u64>, oracle: &mut Oracle| {
            if now - last_tick < TICK_INTERVAL_MS {
                return;
            }
            last_tick = now;
            if now >= last_close + window_ms {
                let closed = std::mem::take(open);
                oracle
                    .results
                    .extend(closed.into_iter().map(|(word, n)| (word, n, window)));
                last_close = now;
                window += 1;
            }
        };
        for chunk in chunks {
            now += STEP_MS;
            advance(now, &mut open, &mut oracle);
            for sentence in chunk {
                oracle.sentences += 1;
                for segment in sentence.split(|c: char| !c.is_alphanumeric()) {
                    oracle.segments += 1;
                    if !segment.is_empty() {
                        oracle.words += 1;
                        *open.entry(segment.to_string()).or_insert(0) += 1;
                        *oracle.totals.entry(segment.to_string()).or_insert(0) += 1;
                    }
                }
            }
        }
        now += 2 * window_ms;
        advance(now, &mut open, &mut oracle);
        assert!(open.is_empty(), "the final jump must close the last window");
        oracle.results.sort();
        oracle
    }

    /// Window results that reach the sink.
    pub fn result_count(&self) -> u64 {
        self.results.len() as u64
    }

    /// The sorted fingerprint of a never-reconfigured run over a chain whose
    /// stages are `(name, tuples processed, tuples emitted)`.
    pub fn fingerprint(&self, stages: &[(&str, u64, u64)]) -> Fingerprint {
        Fingerprint {
            sink_outputs: self.results.clone(),
            processed: stages
                .iter()
                .map(|(name, processed, _)| (name.to_string(), *processed))
                .collect(),
            emit_clocks: stages
                .iter()
                .map(|(name, _, emitted)| (name.to_string(), *emitted))
                .collect(),
            latency_samples: self.results.len(),
        }
    }
}
