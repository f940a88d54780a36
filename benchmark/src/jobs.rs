//! The two queries the benchmark deploys, built through the public job API.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use seep_core::{OutputTuple, StatefulOperator, StatelessFn, Tuple};
use seep_operators::lrb::{BalanceAccount, Collector, Forwarder, TollAssessment, TollCalculator};
use seep_operators::word_count::{WordEntry, WordFrequency};
use seep_operators::{EmptyTokenFilter, SentenceTokenizer, WindowedWordCount, WordKeyer};
use seep_runtime::api::{Job, JobHandle};
use seep_runtime::RuntimeConfig;

/// Output batch size of every producer, in every workload.
pub const BATCH_SIZE: usize = 64;

/// Name of the source operator of both queries.
pub const SOURCE: &str = "data_feeder";
/// Name of the stateful counter of the word-frequency query.
pub const COUNTER: &str = "word_counter";

/// Prefix of the dictionary entries `WindowedWordCount::prepopulate` makes.
const SYNTHETIC_PREFIX: &str = "synthetic-word-";

/// The data feeder: forwards every injected tuple unchanged.
fn feeder() -> impl StatefulOperator {
    StatelessFn::new("feeder", |_, t: &Tuple, out: &mut Vec<OutputTuple>| {
        out.push(OutputTuple::new(t.key, t.payload.clone()));
    })
}

/// Per-word totals of every `WordFrequency` that reached the sink.
pub type WordTotals = Arc<Mutex<HashMap<String, u64>>>;

/// `data_feeder → tokenizer → word_filter → word_keyer → word_counter → sink`.
/// The sink adds every emitted frequency of an injected word into `emitted`.
pub fn wordfreq(
    config: RuntimeConfig,
    window_ms: u64,
    prepopulate: usize,
    emitted: &WordTotals,
) -> JobHandle {
    let emitted = emitted.clone();
    Job::builder(config.with_batch_size(BATCH_SIZE))
        .source(SOURCE, feeder)
        .then_stateless("tokenizer", SentenceTokenizer::new)
        .then_stateless("word_filter", EmptyTokenFilter::new)
        .then_stateless("word_keyer", WordKeyer::new)
        .then_stateful(COUNTER, move || {
            let mut counter = WindowedWordCount::new(window_ms);
            counter.prepopulate(prepopulate);
            counter
        })
        .sink("sink", move || {
            let emitted = emitted.clone();
            StatelessFn::new("sink", move |_, t: &Tuple, _: &mut Vec<OutputTuple>| {
                let Ok(freq) = t.decode::<WordFrequency>() else {
                    return;
                };
                // A closing window also emits the pre-populated entries;
                // they are not results of the injected stream.
                if !freq.word.starts_with(SYNTHETIC_PREFIX) {
                    *emitted
                        .lock()
                        .expect("sink totals lock")
                        .entry(freq.word)
                        .or_default() += freq.count;
                }
            })
        })
        .deploy()
        .expect("the word-frequency job is valid")
}

/// What the counter partitions still hold: per-word counts of the open
/// window, and how many pre-populated synthetic entries are present.
pub fn counter_residue(handle: &JobHandle) -> (HashMap<String, u64>, u64) {
    let mut words: HashMap<String, u64> = HashMap::new();
    let mut synthetic = 0;
    for instance in handle.partitions(COUNTER) {
        let state = handle
            .with_operator(instance, |op| op.get_processing_state())
            .expect("counter partition is live");
        for (key, _) in state.iter() {
            let Ok(Some(entry)) = state.get_decoded::<WordEntry>(key) else {
                continue; // the window bookkeeping entry
            };
            if entry.word.starts_with(SYNTHETIC_PREFIX) {
                synthetic += 1;
            } else {
                *words.entry(entry.word).or_default() += entry.count;
            }
        }
    }
    (words, synthetic)
}

/// The seven-operator Linear Road query of `tests/lrb_pipeline.rs`: fan-out
/// at the forwarder, fan-in at the toll assessment and at the collector.
/// `sink` is called with every tuple that reaches the sink.
pub fn lrb(
    config: RuntimeConfig,
    sink: impl Fn(&Tuple) + Clone + Send + Sync + 'static,
) -> JobHandle {
    Job::builder(config.with_batch_size(BATCH_SIZE))
        .source(SOURCE, feeder)
        .then_stateless("forwarder", Forwarder::new)
        .then_stateful("toll_calculator", TollCalculator::new)
        .branch("forwarder")
        .then_stateful("toll_assessment", TollAssessment::new)
        .connect("toll_calculator", "toll_assessment")
        .then_stateful("balance_account", BalanceAccount::new)
        .branch("toll_assessment")
        .then_stateless("collector", Collector::new)
        .connect("balance_account", "collector")
        .sink("sink", move || {
            let sink = sink.clone();
            StatelessFn::new("sink", move |_, t: &Tuple, _: &mut Vec<OutputTuple>| {
                sink(t)
            })
        })
        .deploy()
        .expect("the LRB job is valid")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs;
    use seep_core::Key;

    #[test]
    fn reference_word_count_equals_the_operator_chain() {
        let pool = inputs::fragments(11, 1_000);
        let emitted = WordTotals::default();
        let mut handle = wordfreq(RuntimeConfig::default(), 1_000, 3, &emitted);
        for (i, payload) in inputs::encode_all(&pool).into_iter().enumerate() {
            handle.inject(SOURCE, Key::from_u64(i as u64 + 1), payload);
        }
        handle.drain();
        // Still in the open window: everything is residual counter state.
        let (residue, synthetic) = counter_residue(&handle);
        assert_eq!(synthetic, 3);
        let expected = inputs::reference_counts(&pool, 1_000);
        assert_eq!(inputs::count_mismatch(&residue, &expected), 0);

        // Close the window: every injected word moves to the sink.
        handle.advance_to(1_000);
        handle.drain();
        let at_sink = emitted.lock().unwrap().clone();
        assert_eq!(inputs::count_mismatch(&at_sink, &expected), 0);
        assert!(counter_residue(&handle).0.is_empty());
    }
}
