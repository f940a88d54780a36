//! The job catalogue workers and coordinator agree on by name.
//!
//! Operator factories cannot travel over the wire, so a distributed
//! deployment needs both sides to resolve the same operator from a job name
//! (`--job`) and a logical operator name. The catalogue currently holds one
//! job, `wordfreq`: the paper's windowed word-frequency query (Fig. 2) as
//! `feed → count → results`. [`run_baseline`] executes the identical query
//! in-process through the standard [`seep_runtime::api::Job`] API — the
//! equivalence tests and the CI smoke job diff its rendered output against a
//! distributed run's.

use seep_core::{
    Key, OutputTuple, ProcessingState, QueryGraph, StateDelta, StatefulOperator, StatelessFn,
    StreamId, TrackedMap, Tuple,
};
use seep_operators::word_count::WordFrequency;
use seep_operators::WindowedWordCount;
use seep_runtime::api::Job;
use seep_runtime::RuntimeConfig;

/// Tumbling window of the word counter (ms of virtual time).
pub const WINDOW_MS: u64 = 1_000;
/// Vocabulary size of the deterministic feed.
pub const VOCAB: u64 = 64;
/// The job name both sides default to.
pub const DEFAULT_JOB: &str = "wordfreq";
/// Output batch size of every operator of the job, wherever it runs: the
/// in-process baseline's envelopes and a deployed worker's TCP frames carry
/// up to this many tuples.
pub const OUT_BATCH: usize = 64;

/// The logical query graph of the `wordfreq` job.
pub fn query() -> seep_core::Result<QueryGraph> {
    let mut b = QueryGraph::builder();
    let feed = b.source("feed");
    let count = b.stateful("count");
    let results = b.sink("results");
    b.connect(feed, count);
    b.connect(count, results);
    b.build()
}

/// Resolve an operator instance for `name` within `job`. `None` when either
/// the job or the operator name is unknown — the worker turns that into a
/// protocol error instead of panicking.
pub fn build_operator(job: &str, name: &str) -> Option<Box<dyn StatefulOperator>> {
    if job != DEFAULT_JOB {
        return None;
    }
    match name {
        "feed" => Some(Box::new(StatelessFn::new(
            "feed",
            |_, t: &Tuple, out: &mut Vec<OutputTuple>| {
                out.push(OutputTuple::new(t.key, t.payload.clone()));
            },
        ))),
        "count" => Some(Box::new(WindowedWordCount::new(WINDOW_MS))),
        "results" => Some(Box::new(FrequencySink::default())),
        _ => None,
    }
}

/// The sink of the `wordfreq` job: accumulates every [`WordFrequency`] the
/// counter emits, keyed by `(word, window)`, as checkpointable processing
/// state — so sink results survive failures exactly like operator state, and
/// the coordinator can collect them over the control plane at the end of a
/// run.
#[derive(Default)]
pub struct FrequencySink {
    freqs: TrackedMap<WordFrequency>,
}

impl FrequencySink {
    /// Composite state key for one `(word, window)` result cell.
    fn cell_key(word_key: Key, window: u64) -> Key {
        Key(word_key.0 ^ window.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// The accumulated frequencies, sorted by `(window, word)`.
    pub fn results(&self) -> Vec<WordFrequency> {
        sorted_results(self.freqs.values().cloned())
    }
}

/// Sort frequencies the way every renderer in this crate expects.
fn sorted_results(freqs: impl IntoIterator<Item = WordFrequency>) -> Vec<WordFrequency> {
    let mut out: Vec<WordFrequency> = freqs.into_iter().collect();
    out.sort_by(|a, b| (a.window, &a.word).cmp(&(b.window, &b.word)));
    out
}

impl StatefulOperator for FrequencySink {
    fn process(&mut self, _stream: StreamId, tuple: &Tuple, _out: &mut Vec<OutputTuple>) {
        let Ok(freq) = tuple.decode::<WordFrequency>() else {
            return;
        };
        self.freqs
            .insert(Self::cell_key(tuple.key, freq.window), freq);
    }

    fn get_processing_state(&self) -> ProcessingState {
        self.freqs.snapshot()
    }

    fn set_processing_state(&mut self, state: ProcessingState) {
        self.freqs.restore_from(&state);
    }

    fn take_state_delta(&mut self) -> StateDelta {
        self.freqs.take_delta()
    }

    fn name(&self) -> &str {
        "frequency_sink"
    }
}

/// Decode a collected sink [`ProcessingState`] back into sorted results.
pub fn decode_sink_state(state: &ProcessingState) -> Vec<WordFrequency> {
    sorted_results(
        state
            .iter()
            .filter_map(|(key, _)| state.get_decoded::<WordFrequency>(key).ok().flatten()),
    )
}

/// The words injected in round `round` — a deterministic LCG stream over a
/// `vocab`-word dictionary, identical for the baseline and the distributed
/// feeder.
pub fn round_words(round: u64, rate: u64, vocab: u64) -> Vec<String> {
    const MUL: u64 = 6364136223846793005;
    const INC: u64 = 1442695040888963407;
    let vocab = vocab.max(1);
    let mut x = round.wrapping_mul(MUL).wrapping_add(INC);
    (0..rate)
        .map(|_| {
            x = x.wrapping_mul(MUL).wrapping_add(INC);
            format!("word-{:03}", (x >> 33) % vocab)
        })
        .collect()
}

/// What a `wordfreq` run produced: the sink's accumulated results plus
/// per-logical-operator processed counts.
#[derive(Debug, Clone, PartialEq)]
pub struct RunOutcome {
    /// Sink results sorted by `(window, word)`.
    pub results: Vec<WordFrequency>,
    /// `(operator name, tuples processed)` in pipeline order.
    pub processed: Vec<(String, u64)>,
}

impl RunOutcome {
    /// Render as stable text: one `result <window> <word> <count>` line per
    /// frequency, then one `processed <operator> <count>` line per operator.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for f in &self.results {
            out.push_str(&format!("result {} {} {}\n", f.window, f.word, f.count));
        }
        for (name, n) in &self.processed {
            out.push_str(&format!("processed {name} {n}\n"));
        }
        out
    }

    /// Only the `result` lines of [`render`](Self::render) — what must match
    /// between a baseline and a run that went through a recovery (processed
    /// counters reset when an instance is replaced, results may not).
    pub fn render_results(&self) -> String {
        let mut out = String::new();
        for f in &self.results {
            out.push_str(&format!("result {} {} {}\n", f.window, f.word, f.count));
        }
        out
    }
}

/// Run the `wordfreq` job in-process: `rounds` rounds of `rate` words, one
/// window tick per round at `(round + 1) * 1000` ms of virtual time — the
/// exact schedule the distributed coordinator drives over TCP.
pub fn run_baseline(rounds: u64, rate: u64) -> seep_core::Result<RunOutcome> {
    let mut handle = Job::builder(RuntimeConfig::default().with_batch_size(OUT_BATCH))
        .source("feed", || {
            build_operator(DEFAULT_JOB, "feed").expect("catalogue has feed")
        })
        .then_stateful("count", || {
            build_operator(DEFAULT_JOB, "count").expect("catalogue has count")
        })
        .sink("results", || {
            build_operator(DEFAULT_JOB, "results").expect("catalogue has results")
        })
        .deploy()?;
    for round in 0..rounds {
        for word in round_words(round, rate, VOCAB) {
            handle.inject_encoded("feed", Key::from_str_key(&word), &word)?;
        }
        handle.drain();
        handle.advance_to((round + 1) * 1_000);
        handle.drain();
    }

    let sink = handle.partitions("results")[0];
    let state = handle
        .with_operator(sink, |op| op.get_processing_state())
        .ok_or_else(|| seep_core::Error::Invariant("sink worker is gone".into()))?;
    let results = decode_sink_state(&state);

    let processed = ["feed", "count", "results"]
        .into_iter()
        .map(|name| {
            let total: u64 = handle
                .partitions(name)
                .into_iter()
                .map(|p| handle.metrics().processed_by(p))
                .sum();
            (name.to_string(), total)
        })
        .collect();
    Ok(RunOutcome { results, processed })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn feed_is_deterministic_across_calls() {
        assert_eq!(round_words(3, 10, VOCAB), round_words(3, 10, VOCAB));
        assert_ne!(round_words(3, 10, VOCAB), round_words(4, 10, VOCAB));
        assert!(round_words(0, 5, VOCAB)
            .iter()
            .all(|w| w.starts_with("word-")));
    }

    #[test]
    fn sink_state_roundtrips() {
        let mut sink = FrequencySink::default();
        let mut out = Vec::new();
        for (word, window) in [("alpha", 0), ("beta", 0), ("alpha", 1)] {
            let freq = WordFrequency {
                word: word.into(),
                count: 2,
                window,
            };
            let t = Tuple::encode(window + 1, Key::from_str_key(word), &freq).unwrap();
            sink.process(StreamId(0), &t, &mut out);
        }
        assert_eq!(sink.results().len(), 3);

        let mut restored = FrequencySink::default();
        restored.set_processing_state(sink.get_processing_state());
        assert_eq!(restored.results(), sink.results());
        assert_eq!(
            decode_sink_state(&sink.get_processing_state()),
            sink.results()
        );

        // The first capture is the whole state, later ones only new cells.
        assert_eq!(
            sink.take_state_delta(),
            StateDelta::Full(sink.get_processing_state())
        );
        let freq = WordFrequency {
            word: "gamma".into(),
            count: 1,
            window: 1,
        };
        let t = Tuple::encode(9, Key::from_str_key("gamma"), &freq).unwrap();
        sink.process(StreamId(0), &t, &mut out);
        let StateDelta::Changes { changed, removed } = sink.take_state_delta() else {
            panic!("a tracked sink captures changes");
        };
        assert_eq!((changed.len(), removed.len()), (1, 0));
        assert_eq!(
            sink.get_processing_state().get(changed[0].0),
            Some(&changed[0].1)
        );
    }

    #[test]
    fn baseline_is_deterministic_and_counts_every_word() {
        let a = run_baseline(3, 20).unwrap();
        let b = run_baseline(3, 20).unwrap();
        assert_eq!(a, b);
        let counted: u64 = a.results.iter().map(|f| f.count).sum();
        assert_eq!(counted, 60, "every injected word lands in some window");
        let processed: std::collections::BTreeMap<&str, u64> =
            a.processed.iter().map(|(n, c)| (n.as_str(), *c)).collect();
        assert_eq!(processed["count"], 60);
        assert_eq!(processed["results"] as usize, a.results.len());
        assert!(a.render().contains("result 0 "));
        assert!(a.render().starts_with(&a.render_results()));
    }

    #[test]
    fn unknown_job_or_operator_resolves_to_none() {
        assert!(build_operator("wordfreq", "feed").is_some());
        assert!(build_operator("wordfreq", "nope").is_none());
        assert!(build_operator("other", "feed").is_none());
    }
}
