//! Thread-count equivalence suite: draining the same query over the same
//! injected stream across several worker threads (`worker_threads` ∈
//! {2, 4}) must be observably identical to draining it on the calling thread
//! (`worker_threads = 1`) — same sink outputs in the same order, same
//! per-operator processed counts, same emit clocks and the same number of
//! latency samples — including with reconfiguration plans of all five kinds
//! (scale out, rebalance, scale in, consolidate, recovery) executed
//! mid-stream between drains. Every thread count runs the same drain loop,
//! so the runs are also held to the expectation recomputed from the
//! injected sentences ([`common::Oracle`]): the whole fingerprint without
//! plans, and with plans what reconfiguration must leave invisible — every
//! word's total count and the unreconfigured operators' clocks.
//!
//! Set `SEEP_STORE=file` to run the whole suite against the durable
//! `FileStore` checkpoint backend (CI does); the default is the in-memory
//! backend. One test additionally pins the durable backend explicitly.

mod common;

use std::sync::atomic::{AtomicUsize, Ordering};

use proptest::prelude::*;

use common::{sentence_chunks, Fingerprint, Oracle, STEP_MS};

use seep::core::Key;
use seep::operators::word_count::WordFrequency;
use seep::operators::{WindowedWordCount, WordSplitter};
use seep::runtime::api::{passthrough, Job, JobHandle, SinkCollector};
use seep::runtime::{RuntimeConfig, StoreConfig};

/// Short tumbling window so sink output flows within a few virtual seconds.
const WINDOW_MS: u64 = 2_000;

/// Distinguishes the on-disk store directories of concurrent runs.
static RUN_TAG: AtomicUsize = AtomicUsize::new(0);

/// The checkpoint-store backend under test: `SEEP_STORE=file` selects the
/// durable log-structured backend, anything else the seed's in-memory one.
fn store_config() -> StoreConfig {
    match std::env::var("SEEP_STORE").as_deref() {
        Ok("file") => file_store(),
        _ => StoreConfig::mem(),
    }
}

/// A fresh on-disk store directory for one run.
fn file_store() -> StoreConfig {
    let tag = RUN_TAG.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "seep-parallel-equivalence-{}-{tag}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    StoreConfig::file(dir)
}

/// A reconfiguration plan applied after the chunk with the given 0-based
/// index, exercising the quiesce barrier between parallel drains.
#[derive(Debug, Clone, Copy)]
enum PlanStep {
    /// Scale the counter out to this parallelism.
    ScaleOutCounter(usize),
    /// Scale the splitter out to this parallelism (a *stateless* scale-out:
    /// its sibling partitions then share the emit gate under the pool).
    ScaleOutSplitter(usize),
    /// N-way rebalance of the counter's key ranges.
    RebalanceCounter,
    /// Merge the counter's first two partitions (scale in).
    ScaleInCounter,
    /// Pack the counter's partitions onto shared VM slots.
    ConsolidateCounter,
    /// Crash the first counter partition's VM and recover at this
    /// parallelism.
    FailAndRecoverCounter(usize),
}

fn apply(handle: &mut JobHandle, step: PlanStep) {
    match step {
        PlanStep::ScaleOutCounter(pi) => {
            let target = handle.partitions("counter")[0];
            handle.scale_out(target, pi).expect("scale out counter");
        }
        PlanStep::ScaleOutSplitter(pi) => {
            let target = handle.partitions("splitter")[0];
            handle.scale_out(target, pi).expect("scale out splitter");
        }
        PlanStep::RebalanceCounter => {
            handle.rebalance_operator("counter").expect("rebalance");
        }
        PlanStep::ScaleInCounter => {
            let parts = handle.partitions("counter");
            assert!(parts.len() >= 2, "scale in needs siblings");
            handle.scale_in(parts[0], parts[1]).expect("scale in");
        }
        PlanStep::ConsolidateCounter => {
            handle.consolidate("counter").expect("consolidate");
        }
        PlanStep::FailAndRecoverCounter(pi) => {
            let victim = handle.partitions("counter")[0];
            handle.fail_operator(victim);
            handle.recover(victim, pi).expect("recover");
        }
    }
}

/// Deploy feeder → splitter → windowed word counter → collecting sink,
/// inject `chunks` of two-word sentences (one drain and 500 ms of virtual
/// time per chunk), apply any due plans between chunks, close the final
/// window and fingerprint the run.
fn run_chain(
    worker_threads: usize,
    batch: usize,
    slots_per_vm: usize,
    store: StoreConfig,
    chunks: &[usize],
    vocabulary: usize,
    plans: &[(usize, PlanStep)],
) -> Fingerprint {
    let mut config = RuntimeConfig::default()
        .with_store(store)
        .with_batch_size(batch)
        .with_worker_threads(worker_threads);
    config.pool = config.pool.with_slots_per_vm(slots_per_vm);
    let results: SinkCollector<WordFrequency> = SinkCollector::new();
    let mut handle = Job::builder(config)
        .source("feeder", passthrough("feeder"))
        .then_stateless("splitter", WordSplitter::new)
        .then_stateful("counter", || WindowedWordCount::new(WINDOW_MS))
        .sink_collect("sink", &results)
        .deploy()
        .expect("deploy");
    let names = ["feeder", "splitter", "counter", "sink"];

    let mut now = handle.now_ms();
    for (index, chunk) in sentence_chunks(chunks, vocabulary, false)
        .into_iter()
        .enumerate()
    {
        for sentence in chunk {
            handle
                .inject_encoded("feeder", Key::from_str_key(&sentence), &sentence)
                .expect("inject");
        }
        now += STEP_MS;
        handle.advance_to(now);
        handle.drain();
        for &(after, step) in plans {
            if after == index {
                apply(&mut handle, step);
                handle.drain();
            }
        }
    }
    // Close the last window so every pending count reaches the sink.
    handle.advance_to(now + 2 * WINDOW_MS);
    handle.drain();

    let metrics = handle.metrics();
    let processed = names
        .iter()
        .map(|name| {
            let total = handle
                .partitions(*name)
                .iter()
                .map(|id| metrics.processed_by(*id))
                .sum();
            (name.to_string(), total)
        })
        .collect();
    let emit_clocks = names
        .iter()
        .map(|name| (name.to_string(), handle.emit_clock(*name)))
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

/// What a never-reconfigured run of [`run_chain`] over the same input must
/// fingerprint as, up to sink arrival order.
fn recomputed(oracle: &Oracle) -> Fingerprint {
    oracle.fingerprint(&[
        ("feeder", 0, oracle.sentences),
        ("splitter", oracle.sentences, oracle.words),
        ("counter", oracle.words, oracle.result_count()),
        ("sink", oracle.result_count(), 0),
    ])
}

/// What reconfiguration plans against the splitter and the counter must
/// leave invisible: every word counted exactly once overall, the feeder's
/// and the splitter's output clocks (scaling out shares the clock, it does
/// not restart it), and one latency sample per sink tuple.
fn assert_plans_were_invisible(run: &Fingerprint, chunks: &[usize], vocabulary: usize) {
    let oracle = Oracle::fold(&sentence_chunks(chunks, vocabulary, false), WINDOW_MS);
    assert_eq!(run.word_totals(), oracle.totals);
    assert_eq!(run.emit_clock("feeder"), oracle.sentences);
    assert_eq!(run.emit_clock("splitter"), oracle.words);
    assert_eq!(run.latency_samples, run.sink_outputs.len());
}

#[test]
fn worker_pool_matches_the_cooperative_stepper() {
    let chunks = [40, 25, 1, 33, 18];
    let oracle = Oracle::fold(&sentence_chunks(&chunks, 23, false), WINDOW_MS);
    for batch in [1, 64] {
        let baseline = run_chain(1, batch, 1, store_config(), &chunks, 23, &[]);
        assert!(
            !baseline.sink_outputs.is_empty(),
            "windows must have closed: {baseline:?}"
        );
        assert_eq!(baseline.clone().sorted(), recomputed(&oracle));
        for threads in [2, 4] {
            let pooled = run_chain(threads, batch, 1, store_config(), &chunks, 23, &[]);
            assert_eq!(baseline, pooled, "threads={threads} batch={batch} diverged");
        }
    }
}

#[test]
fn scaled_out_stages_match_under_the_pool() {
    // Both hot stages scaled out mid-stream: the splitter's sibling
    // partitions then emit concurrently onto the shared logical stream, the
    // exact scenario the emit gate exists for.
    let chunks = [30, 30, 30, 20];
    let plans = [
        (0, PlanStep::ScaleOutSplitter(2)),
        (1, PlanStep::ScaleOutCounter(3)),
    ];
    let baseline = run_chain(1, 64, 1, store_config(), &chunks, 17, &plans);
    assert!(!baseline.sink_outputs.is_empty());
    assert_plans_were_invisible(&baseline, &chunks, 17);
    for threads in [2, 4] {
        let pooled = run_chain(threads, 64, 1, store_config(), &chunks, 17, &plans);
        assert_eq!(baseline, pooled, "threads={threads} diverged");
    }
}

#[test]
fn all_five_plan_kinds_match_under_the_pool() {
    // Scale out → rebalance → crash-recovery → scale in → consolidate, each
    // between chunks of live traffic, on a pool with two VM slots so
    // consolidation packs surviving partitions onto shared VMs.
    let chunks = [30, 20, 20, 20, 20, 15];
    let plans = [
        (0, PlanStep::ScaleOutCounter(3)),
        (1, PlanStep::RebalanceCounter),
        (2, PlanStep::FailAndRecoverCounter(1)),
        (3, PlanStep::ScaleInCounter),
        (4, PlanStep::ConsolidateCounter),
    ];
    let baseline = run_chain(1, 64, 2, store_config(), &chunks, 29, &plans);
    assert!(!baseline.sink_outputs.is_empty());
    assert_plans_were_invisible(&baseline, &chunks, 29);
    for threads in [2, 4] {
        let pooled = run_chain(threads, 64, 2, store_config(), &chunks, 29, &plans);
        assert_eq!(baseline, pooled, "threads={threads} diverged");
    }
}

#[test]
fn durable_file_store_matches_under_the_pool() {
    // Pin the durable backend explicitly (independent of SEEP_STORE) with a
    // mid-stream scale-out, so checkpoints really hit the log-structured
    // store under the pool.
    let chunks = [25, 25, 20];
    let plans = [(0, PlanStep::ScaleOutCounter(2))];
    let baseline = run_chain(1, 64, 1, file_store(), &chunks, 19, &plans);
    assert!(!baseline.sink_outputs.is_empty());
    assert_plans_were_invisible(&baseline, &chunks, 19);
    let pooled = run_chain(4, 64, 1, file_store(), &chunks, 19, &plans);
    assert_eq!(baseline, pooled);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Any thread count, batch size and injection interleaving produces the
    /// cooperative stepper's outputs, counts and clocks.
    #[test]
    fn prop_pooled_run_is_equivalent_to_cooperative_run(
        threads in 2usize..5,
        batch in 1usize..129,
        chunks in proptest::collection::vec(1usize..40, 1..5),
        vocabulary in 5usize..30,
    ) {
        let baseline = run_chain(1, batch, 1, store_config(), &chunks, vocabulary, &[]);
        let pooled = run_chain(threads, batch, 1, store_config(), &chunks, vocabulary, &[]);
        prop_assert_eq!(&baseline, &pooled);
        let oracle = Oracle::fold(&sentence_chunks(&chunks, vocabulary, false), WINDOW_MS);
        prop_assert_eq!(baseline.sorted(), recomputed(&oracle));
    }
}
