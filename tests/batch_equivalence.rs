//! Batch equivalence property suite: running the same query over the same
//! injected stream with any per-edge batch size must be observably identical
//! to the run at batch size 1 — same sink outputs in the same order, same
//! per-operator processed counts, same emit clocks and the same number of
//! per-tuple latency samples — and both must equal the expectation
//! recomputed from the injected sentences ([`common::Oracle`]): every batch
//! size runs the same data-plane code, so agreeing with each other is not
//! enough.
//!
//! Set `SEEP_STORE=file` to run the whole suite against the durable
//! `FileStore` checkpoint backend (CI does); the default is the in-memory
//! backend.

mod common;

use std::sync::atomic::{AtomicUsize, Ordering};

use proptest::prelude::*;

use common::{sentence_chunks, Fingerprint, Oracle, STEP_MS};

use seep::core::Key;
use seep::operators::word_count::WordFrequency;
use seep::operators::{WindowedWordCount, WordSplitter};
use seep::runtime::api::{passthrough, Job, SinkCollector};
use seep::runtime::{RuntimeConfig, StoreConfig};

/// Short tumbling window so sink output flows within a few virtual seconds.
const WINDOW_MS: u64 = 2_000;

/// Distinguishes the on-disk store directories of concurrent runs.
static RUN_TAG: AtomicUsize = AtomicUsize::new(0);

/// The checkpoint-store backend under test: `SEEP_STORE=file` selects the
/// durable log-structured backend, anything else the seed's in-memory one.
fn store_config() -> StoreConfig {
    match std::env::var("SEEP_STORE").as_deref() {
        Ok("file") => {
            let tag = RUN_TAG.fetch_add(1, Ordering::Relaxed);
            let dir = std::env::temp_dir().join(format!(
                "seep-batch-equivalence-{}-{tag}",
                std::process::id()
            ));
            let _ = std::fs::remove_dir_all(&dir);
            StoreConfig::file(dir)
        }
        _ => StoreConfig::mem(),
    }
}

/// Deploy feeder → splitter → `relays` pass-through stages → windowed word
/// counter → collecting sink, inject `chunks` of two-word sentences (one
/// drain and 500 ms of virtual time per chunk), close the final window and
/// fingerprint the run. `batch` sets the job-wide batch size;
/// `splitter_batch` optionally overrides the splitter's outbound edges.
fn run_chain(
    batch: usize,
    splitter_batch: Option<usize>,
    relays: usize,
    chunks: &[usize],
    vocabulary: usize,
) -> Fingerprint {
    let config = RuntimeConfig::default().with_store(store_config());
    let results: SinkCollector<WordFrequency> = SinkCollector::new();
    let mut names = vec!["feeder".to_string(), "splitter".to_string()];
    let mut builder = Job::builder(config)
        .source("feeder", passthrough("feeder"))
        .then_stateless("splitter", WordSplitter::new);
    for relay in 0..relays {
        let name = format!("relay{relay}");
        builder = builder.then_stateless(&name, passthrough(&name));
        names.push(name);
    }
    builder = builder
        .then_stateful("counter", || WindowedWordCount::new(WINDOW_MS))
        .sink_collect("sink", &results)
        .batch_size(batch);
    if let Some(size) = splitter_batch {
        builder = builder.batch_size_at("splitter", size);
    }
    names.push("counter".to_string());
    names.push("sink".to_string());
    let mut handle = builder.deploy().expect("deploy");

    let mut now = handle.now_ms();
    for chunk in sentence_chunks(chunks, vocabulary, false) {
        for sentence in chunk {
            handle
                .inject_encoded("feeder", Key::from_str_key(&sentence), &sentence)
                .expect("inject");
        }
        now += STEP_MS;
        handle.advance_to(now);
        handle.drain();
    }
    // Close the last window so every pending count reaches the sink.
    handle.advance_to(now + 2 * WINDOW_MS);
    handle.drain();

    let metrics = handle.metrics();
    let processed = names
        .iter()
        .map(|name| {
            let total = handle
                .partitions(name.as_str())
                .iter()
                .map(|id| metrics.processed_by(*id))
                .sum();
            (name.clone(), total)
        })
        .collect();
    let emit_clocks = names
        .iter()
        .map(|name| (name.clone(), handle.emit_clock(name.as_str())))
        .collect();
    Fingerprint {
        sink_outputs: results
            .take()
            .into_iter()
            .map(|f| (f.word, f.count, f.window))
            .collect(),
        processed,
        emit_clocks,
        latency_samples: metrics.latency_samples(),
    }
}

/// What any run of [`run_chain`] over the same input must fingerprint as,
/// up to sink arrival order: the feeder emits one tuple per sentence, the
/// splitter one per word, relays pass words through, the counter turns them
/// into window results and the sink consumes those. The planner fuses the
/// splitter and its relays into one unit and `processed_by` reads the
/// hosting instance's counter, so a relay reports what the unit took in —
/// sentences — while its emit clock is attributed per stage.
fn recomputed(relays: usize, chunks: &[usize], vocabulary: usize) -> Fingerprint {
    let oracle = Oracle::fold(&sentence_chunks(chunks, vocabulary, false), WINDOW_MS);
    let relay_names: Vec<String> = (0..relays).map(|relay| format!("relay{relay}")).collect();
    let mut stages = vec![
        ("feeder", 0, oracle.sentences),
        ("splitter", oracle.sentences, oracle.words),
    ];
    for name in &relay_names {
        stages.push((name.as_str(), oracle.sentences, oracle.words));
    }
    stages.push(("counter", oracle.words, oracle.result_count()));
    stages.push(("sink", oracle.result_count(), 0));
    oracle.fingerprint(&stages)
}

#[test]
fn common_batch_sizes_match_the_per_tuple_run() {
    let chunks = [12, 1, 30, 7, 19];
    let baseline = run_chain(1, None, 0, &chunks, 23);
    assert!(
        !baseline.sink_outputs.is_empty(),
        "windows must have closed: {baseline:?}"
    );
    assert_eq!(baseline.clone().sorted(), recomputed(0, &chunks, 23));
    for batch in [2, 3, 64, 256] {
        let batched = run_chain(batch, None, 0, &chunks, 23);
        assert_eq!(baseline, batched, "batch={batch} diverged");
    }
}

#[test]
fn per_edge_batch_override_matches_the_per_tuple_run() {
    let chunks = [20, 5, 33];
    let baseline = run_chain(1, None, 1, &chunks, 17);
    assert_eq!(baseline.clone().sorted(), recomputed(1, &chunks, 17));
    // Job-wide batch 8 with the splitter's (hottest) edges at 64.
    let mixed = run_chain(8, Some(64), 1, &chunks, 17);
    assert_eq!(baseline, mixed);
}

#[test]
fn latency_histogram_records_per_tuple_not_per_batch() {
    let chunks = [25, 25, 25];
    let per_tuple = run_chain(1, None, 0, &chunks, 11);
    let batched = run_chain(64, None, 0, &chunks, 11);
    assert!(
        per_tuple.latency_samples > 0,
        "sink tuples must produce latency samples"
    );
    assert_eq!(
        per_tuple.latency_samples, batched.latency_samples,
        "a batch of sink tuples must contribute one sample per tuple"
    );
    // One sample per sink tuple exactly.
    assert_eq!(per_tuple.latency_samples, batched.sink_outputs.len());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Any batch size, chain depth and injection interleaving produces the
    /// per-tuple run's outputs, counts and clocks.
    #[test]
    fn prop_batched_run_is_equivalent_to_per_tuple_run(
        batch in 1usize..257,
        relays in 0usize..3,
        chunks in proptest::collection::vec(1usize..40, 1..6),
        vocabulary in 5usize..40,
    ) {
        let baseline = run_chain(1, None, relays, &chunks, vocabulary);
        let batched = run_chain(batch, None, relays, &chunks, vocabulary);
        prop_assert_eq!(&baseline, &batched);
        prop_assert_eq!(baseline.sorted(), recomputed(relays, &chunks, vocabulary));
    }
}
