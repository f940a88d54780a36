//! Latency sampling: every source emit is stamped, so every tuple that
//! reaches the sink records exactly one latency sample.

use seep::core::Key;
use seep::operators::word_count::WordFrequency;
use seep::operators::{WindowedWordCount, WordSplitter};
use seep::runtime::api::{passthrough, Job, JobHandle, SinkCollector};
use seep::runtime::RuntimeConfig;

/// Short tumbling window so sink output flows within a few virtual seconds.
const WINDOW_MS: u64 = 2_000;

/// Deploy the word-frequency chain and drive `sentences` two-word sentences
/// through it in chunks, closing every window, so the sink sees a stable,
/// deterministic number of tuples (each one a latency-probe candidate).
fn run(sentences: u64) -> (JobHandle, usize) {
    let results: SinkCollector<WordFrequency> = SinkCollector::new();
    let mut handle = Job::builder(RuntimeConfig::default())
        .source("feeder", passthrough("feeder"))
        .then_stateless("splitter", WordSplitter::new)
        .then_stateful("counter", || WindowedWordCount::new(WINDOW_MS))
        .sink_collect("sink", &results)
        .deploy()
        .expect("deploy");
    let mut now = handle.now_ms();
    for sequence in 0..sentences {
        let a = (sequence * 7 + 3) % 13;
        let b = (sequence * 13 + 5) % 13;
        let sentence = format!("word{a} word{b}");
        handle
            .inject_encoded("feeder", Key::from_str_key(&sentence), &sentence)
            .expect("inject");
        if sequence % 50 == 49 {
            now += 500;
            handle.advance_to(now);
            handle.drain();
        }
    }
    now += 2 * WINDOW_MS;
    handle.advance_to(now);
    handle.drain();
    let sink_tuples = results.take().len();
    (handle, sink_tuples)
}

#[test]
fn sampling_every_tuple_is_identical_to_the_default() {
    // The runtime stamps every tuple: one sample per sink tuple.
    let (handle, sink_tuples) = run(400);
    assert!(sink_tuples > 0);
    assert_eq!(handle.metrics().latency_samples(), sink_tuples);
    // Bucket contents are wall-clock dependent, but the histogram must hold
    // one sample for every sink tuple.
    assert_eq!(
        handle.metrics().latency_histogram().count,
        sink_tuples as u64
    );
}
