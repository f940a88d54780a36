//! Fusion equivalence suite: compiling the decomposed word-frequency query
//! (feeder → tokenizer → empty-token filter → word keyer → counter → sink)
//! with the physical-plan compiler's fusion enabled must be observably
//! identical to deploying every stage as its own operator — same sink
//! outputs in the same order, same attributed per-logical-operator processed
//! counts and emit clocks, and the same number of latency samples — across
//! batch sizes and with reconfiguration plans of all five kinds (scale out,
//! rebalance, scale in, consolidate, recovery) executed mid-stream.
//!
//! The fused arm uses [`FusionPolicy::FuseKeepBatches`] so both arms run the
//! exact same per-edge batch sizes and only the fusion itself differs.
//!
//! Both arms share the data plane, so they are also held to the expectation
//! recomputed from the injected sentences ([`common::Oracle`]): the whole
//! fingerprint without plans, and with plans what reconfiguration must leave
//! invisible — every word's total count and the unreconfigured stages'
//! clocks.
//!
//! Set `SEEP_STORE=file` to run the whole suite against the durable
//! `FileStore` checkpoint backend (CI does); the default is the in-memory
//! backend. One test additionally pins the durable backend explicitly.

mod common;

use std::sync::atomic::{AtomicUsize, Ordering};

use common::{sentence_chunks, Fingerprint, Oracle, STEP_MS};
use seep::core::Key;
use seep::operators::word_count::WordFrequency;
use seep::operators::{EmptyTokenFilter, SentenceTokenizer, WindowedWordCount, WordKeyer};
use seep::runtime::api::{passthrough, Job, JobHandle, SinkCollector};
use seep::runtime::{FusionPolicy, RuntimeConfig, StoreConfig};

/// Short tumbling window so sink output flows within a few virtual seconds.
const WINDOW_MS: u64 = 2_000;

/// The logical operators of the query, in chain order.
const NAMES: [&str; 6] = [
    "feeder",
    "tokenizer",
    "word_filter",
    "word_keyer",
    "counter",
    "sink",
];

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
        "seep-fusion-equivalence-{}-{tag}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    StoreConfig::file(dir)
}

/// A reconfiguration plan applied after the chunk with the given 0-based
/// index. Steps addressing the chain go through the tokenizer's name: on the
/// fused arm that resolves to the fused unit, so the plan transparently
/// reconfigures all three stages at once.
#[derive(Debug, Clone, Copy)]
enum PlanStep {
    /// Scale the counter out to this parallelism.
    ScaleOutCounter(usize),
    /// Scale the splitter chain out to this parallelism (the fused unit on
    /// the fused arm, the bare tokenizer on the unfused arm).
    ScaleOutChain(usize),
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
        PlanStep::ScaleOutChain(pi) => {
            let target = handle.partitions("tokenizer")[0];
            handle.scale_out(target, pi).expect("scale out chain");
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

/// Deploy the decomposed chain under the given fusion policy, inject
/// `chunks` of punctuated two-word sentences (one drain and 500 ms of
/// virtual time per chunk — the punctuation makes the tokenizer emit empty
/// segments for the filter to drop), apply any due plans between chunks,
/// close the final window and fingerprint the run. Processed counts and emit
/// clocks go through the handle's attribution path, so on the fused arm they
/// are read back out of the fused unit's per-stage counters.
fn run_chain(
    fusion: FusionPolicy,
    batch: usize,
    slots_per_vm: usize,
    store: StoreConfig,
    chunks: &[usize],
    vocabulary: usize,
    plans: &[(usize, PlanStep)],
) -> Fingerprint {
    let mut config = RuntimeConfig::default()
        .with_store(store)
        .with_batch_size(batch);
    config.pool = config.pool.with_slots_per_vm(slots_per_vm);
    let results: SinkCollector<WordFrequency> = SinkCollector::new();
    let mut handle = Job::builder(config)
        .fusion(fusion)
        .source("feeder", passthrough("feeder"))
        .then_stateless("tokenizer", SentenceTokenizer::new)
        .then_stateless("word_filter", EmptyTokenFilter::new)
        .then_stateless("word_keyer", WordKeyer::new)
        .then_stateful("counter", || WindowedWordCount::new(WINDOW_MS))
        .sink_collect("sink", &results)
        .deploy()
        .expect("deploy");
    assert_eq!(
        handle.plan_manifest().has_fusion(),
        !matches!(fusion, FusionPolicy::Disabled),
        "the arm must exercise the policy it claims to"
    );

    let mut now = handle.now_ms();
    for (index, chunk) in sentence_chunks(chunks, vocabulary, true)
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
    Fingerprint {
        sink_outputs: results
            .take()
            .into_iter()
            .map(|f| (f.word, f.count, f.window))
            .collect(),
        processed: NAMES
            .iter()
            .map(|name| (name.to_string(), handle.processed_total(*name)))
            .collect(),
        emit_clocks: NAMES
            .iter()
            .map(|name| (name.to_string(), handle.emit_clock(*name)))
            .collect(),
        latency_samples: metrics.latency_samples(),
    }
}

/// What a never-reconfigured run of [`run_chain`] over the same input must
/// fingerprint as, up to sink arrival order: the tokenizer emits one segment
/// per gap between separators, the filter passes the non-empty ones and the
/// keyer re-keys them one for one.
fn recomputed(chunks: &[usize], vocabulary: usize) -> Fingerprint {
    let oracle = Oracle::fold(&sentence_chunks(chunks, vocabulary, true), WINDOW_MS);
    oracle.fingerprint(&[
        ("feeder", 0, oracle.sentences),
        ("tokenizer", oracle.sentences, oracle.segments),
        ("word_filter", oracle.segments, oracle.words),
        ("word_keyer", oracle.words, oracle.words),
        ("counter", oracle.words, oracle.result_count()),
        ("sink", oracle.result_count(), 0),
    ])
}

/// What reconfiguration plans against the chain's head and the counter must
/// leave invisible: every word counted exactly once overall, the output
/// clocks of the feeder and the chain (scaling out shares a clock, it does
/// not restart it), and one latency sample per sink tuple.
fn assert_plans_were_invisible(run: &Fingerprint, chunks: &[usize], vocabulary: usize) {
    let oracle = Oracle::fold(&sentence_chunks(chunks, vocabulary, true), WINDOW_MS);
    assert_eq!(run.word_totals(), oracle.totals);
    assert_eq!(run.emit_clock("feeder"), oracle.sentences);
    assert_eq!(run.emit_clock("tokenizer"), oracle.segments);
    assert_eq!(run.emit_clock("word_keyer"), oracle.words);
    assert_eq!(run.latency_samples, run.sink_outputs.len());
}

#[test]
fn fused_plan_matches_the_unfused_plan() {
    let chunks = [40, 25, 1, 33, 18];
    for batch in [1, 64] {
        let unfused = run_chain(
            FusionPolicy::Disabled,
            batch,
            1,
            store_config(),
            &chunks,
            23,
            &[],
        );
        assert!(
            !unfused.sink_outputs.is_empty(),
            "windows must have closed: {unfused:?}"
        );
        assert_eq!(unfused.clone().sorted(), recomputed(&chunks, 23));
        let fused = run_chain(
            FusionPolicy::FuseKeepBatches,
            batch,
            1,
            store_config(),
            &chunks,
            23,
            &[],
        );
        assert_eq!(unfused, fused, "batch={batch} diverged");
    }
}

#[test]
fn scaled_out_chain_matches() {
    // The fused unit itself scaled out mid-stream: on the fused arm one plan
    // repartitions all three chain stages at once; on the unfused arm the
    // same step scales only the tokenizer. Both must keep the stream's
    // observable behaviour (and the per-stage attribution) identical.
    let chunks = [30, 30, 30, 20];
    let plans = [
        (0, PlanStep::ScaleOutChain(2)),
        (1, PlanStep::ScaleOutCounter(3)),
    ];
    let unfused = run_chain(
        FusionPolicy::Disabled,
        64,
        1,
        store_config(),
        &chunks,
        17,
        &plans,
    );
    assert!(!unfused.sink_outputs.is_empty());
    assert_plans_were_invisible(&unfused, &chunks, 17);
    let fused = run_chain(
        FusionPolicy::FuseKeepBatches,
        64,
        1,
        store_config(),
        &chunks,
        17,
        &plans,
    );
    assert_eq!(unfused, fused);
}

#[test]
fn all_five_plan_kinds_match() {
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
    for batch in [1, 64] {
        let unfused = run_chain(
            FusionPolicy::Disabled,
            batch,
            2,
            store_config(),
            &chunks,
            29,
            &plans,
        );
        assert!(!unfused.sink_outputs.is_empty());
        assert_plans_were_invisible(&unfused, &chunks, 29);
        let fused = run_chain(
            FusionPolicy::FuseKeepBatches,
            batch,
            2,
            store_config(),
            &chunks,
            29,
            &plans,
        );
        assert_eq!(unfused, fused, "batch={batch} diverged");
    }
}

#[test]
fn durable_file_store_matches() {
    // Pin the durable backend explicitly (independent of SEEP_STORE) with a
    // mid-stream scale-out, so the counter's checkpoints really hit the
    // log-structured store on both arms.
    let chunks = [25, 25, 20];
    let plans = [(0, PlanStep::ScaleOutCounter(2))];
    let unfused = run_chain(
        FusionPolicy::Disabled,
        64,
        1,
        file_store(),
        &chunks,
        19,
        &plans,
    );
    assert!(!unfused.sink_outputs.is_empty());
    assert_plans_were_invisible(&unfused, &chunks, 19);
    let fused = run_chain(
        FusionPolicy::FuseKeepBatches,
        64,
        1,
        file_store(),
        &chunks,
        19,
        &plans,
    );
    assert_eq!(unfused, fused);
}

#[test]
fn default_policy_fuses_and_stays_equivalent() {
    // The builder's default policy (`Fuse`) additionally applies the planner's
    // batch heuristic to the fused unit's output edge when the job left every
    // batch size at the default. Batching never changes sink outputs, counts
    // or (at the default 1:1 sampling) latency sample counts — only arrival
    // granularity — so the default policy must still agree with the unfused
    // plan on the whole fingerprint.
    let chunks = [40, 25, 33];
    let unfused = run_chain(
        FusionPolicy::Disabled,
        1,
        1,
        store_config(),
        &chunks,
        23,
        &[],
    );
    let fused = run_chain(FusionPolicy::Fuse, 1, 1, store_config(), &chunks, 23, &[]);
    assert_eq!(unfused.sink_outputs, fused.sink_outputs);
    assert_eq!(unfused.processed, fused.processed);
    assert_eq!(unfused.emit_clocks, fused.emit_clocks);
    assert_eq!(unfused.latency_samples, fused.latency_samples);
}
