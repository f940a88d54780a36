//! The oracle for incremental checkpoints: a maintained answer must equal
//! recomputation after every update (Berkholz/Keppeler/Schweikardt, see
//! PAPERS.md). Here the maintained answer is the backup a checkpoint round
//! keeps up to date by shipping deltas, and recomputation is a fresh full
//! checkpoint of the same worker.
//!
//! * Runtime level: random interleavings of batches, window-closing ticks,
//!   checkpoint rounds, all five plan kinds and a failure with recovery, on
//!   the Mem, File and Tiered backends. After **every** round, what
//!   `backed_up_checkpoint` reads back for each operator the round
//!   checkpointed equals `full_checkpoint` of it — processing state,
//!   timestamps, emit clock, buffer and traffic counters.
//! * Worker and operator level: every captured delta, minus the entries
//!   whose application is a no-op, equals `IncrementalCheckpoint::diff` of
//!   the previous and the current full capture, for every operator that
//!   keeps dirty marks and for one that keeps none.
//! * Store level: a `FileStore` reopened after a crash tore its last delta
//!   recovers to the previous complete one.
//! * Round order: on the LRB fan-out/fan-in graph a round captures every
//!   upstream after its downstreams, so no backed-up buffer holds a tuple a
//!   downstream already reflected.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use proptest::prelude::*;

use seep::api::{discard, passthrough, Job, JobHandle};
use seep::core::{
    Checkpoint, IncrementalCheckpoint, Key, OperatorId, OutputTuple, ProcessingState, StateDelta,
    StatefulOperator, StreamId, Tuple,
};
use seep::operators::lrb::{
    BalanceAccount, Collector, Forwarder, LrbRecord, TollAssessment, TollCalculator,
};
use seep::operators::{
    EmptyTokenFilter, SentenceTokenizer, TopKReducer, WindowedWordCount, WordKeyer,
};
use seep::runtime::{RuntimeConfig, StoreConfig};
use seep::store::{CheckpointStore, FileStore};
use seep::workloads::{LrbConfig, LrbGenerator};
use seep_cloud::VmPoolConfig;

const CHECKPOINT_MS: u64 = 1_000;
const SOURCE: &str = "data_feeder";
const COUNTER: &str = "word_counter";

fn scratch_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "seep-delta-oracle-{tag}-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

// ---- runtime level --------------------------------------------------------

/// Assert the backup of every operator `advance_to(now)` just checkpointed
/// equals a fresh full checkpoint of it. `decayed` says the same advance
/// went on to a utilisation report, which decays the workers' traffic
/// counters after the round captured them. Returns how many backups were
/// compared and how many of those rounds shipped a delta.
fn assert_backups_match(
    handle: &JobHandle,
    now: u64,
    decayed: bool,
    context: &str,
) -> (usize, usize) {
    let runtime = handle.runtime();
    let (mut compared, mut deltas) = (0, 0);
    for record in handle.metrics().checkpoints() {
        if record.at_ms != now {
            continue;
        }
        let Some(fresh) = runtime.full_checkpoint(record.operator) else {
            continue; // retired by a plan later in the same instant
        };
        let mut backed_up = runtime
            .backed_up_checkpoint(record.operator)
            .unwrap_or_else(|e| panic!("{context}: no backup of {}: {e}", record.operator));
        if decayed {
            backed_up.traffic.decay();
        }
        assert_eq!(
            backed_up, fresh,
            "{context}: backup of {} diverged at {now} ms",
            record.operator
        );
        compared += 1;
        deltas += usize::from(record.incremental);
    }
    (compared, deltas)
}

/// One step of a generated scenario.
#[derive(Debug, Clone, Copy)]
enum Step {
    /// Inject this many sentences and drain.
    Batch(usize),
    /// Advance virtual time by this much (ticks, window closes and, once the
    /// interval has passed, a checkpoint round).
    Advance(u64),
    ScaleOut,
    Rebalance,
    Consolidate,
    ScaleIn,
    FailAndRecover,
}

fn step_of(code: u8, size: usize) -> Step {
    match code % 12 {
        0..=3 => Step::Batch(size),
        4 | 5 => Step::Advance(CHECKPOINT_MS),
        6 => Step::Advance(CHECKPOINT_MS / 2),
        7 => Step::ScaleOut,
        8 => Step::Rebalance,
        9 => Step::Consolidate,
        10 => Step::ScaleIn,
        _ => Step::FailAndRecover,
    }
}

/// Run `steps` on `store`, checking the oracle after every advance. Plans
/// that the current shape does not admit (a merge at π = 1, say) are
/// skipped. Returns (backups compared, deltas among them).
fn run_scenario(store: StoreConfig, steps: &[Step], label: &str) -> (usize, usize) {
    let config = RuntimeConfig {
        pool: VmPoolConfig::default().with_slots_per_vm(2),
        ..RuntimeConfig::default()
    }
    .with_checkpoint_interval(CHECKPOINT_MS)
    .with_batch_size(8)
    .with_store(store);
    let report_ms = config.scaling_policy.report_interval_ms;
    // The word-frequency query with a 40-word dictionary in place and a
    // 2 500 ms window, which closes on some advances and not on others.
    let mut handle = Job::builder(config)
        .source(SOURCE, passthrough("feeder"))
        .then_stateless("tokenizer", SentenceTokenizer::new)
        .then_stateless("word_filter", EmptyTokenFilter::new)
        .then_stateless("word_keyer", WordKeyer::new)
        .then_stateful(COUNTER, || {
            let mut counter = WindowedWordCount::new(2_500);
            counter.prepopulate(40);
            counter
        })
        .sink("sink", discard("collector"))
        .deploy()
        .expect("valid word-frequency job");
    let (mut sequence, mut now, mut last_report) = (0u64, 0u64, 0u64);
    let (mut compared, mut deltas) = (0, 0);
    let mut feed = |handle: &mut JobHandle, sentences: usize| {
        for _ in 0..sentences {
            let sentence = format!(
                "w{} w{} w{}",
                sequence % 23,
                (sequence * 5) % 41,
                sequence % 7
            );
            sequence += 1;
            let payload = bincode::serialize(&sentence).expect("sentence serialises");
            handle.inject(SOURCE, Key::from_str_key(&sentence), payload);
        }
        handle.drain();
    };
    let mut round = |handle: &mut JobHandle, by: u64, context: &str| {
        now += by;
        handle.advance_to(now);
        // The runtime's report schedule, which runs after the round.
        let decayed = now - last_report >= report_ms;
        if decayed {
            last_report = now;
        }
        let (c, d) = assert_backups_match(handle, now, decayed, context);
        compared += c;
        deltas += d;
        handle.drain();
    };
    for (index, step) in steps.iter().enumerate() {
        let context = format!("{label} step {index} {step:?}");
        let counter = handle.partitions(COUNTER);
        match *step {
            Step::Batch(size) => feed(&mut handle, size),
            Step::Advance(by) => round(&mut handle, by, &context),
            Step::ScaleOut if counter.len() < 4 => {
                handle.scale_out(counter[0], 2).expect(&context);
            }
            Step::Rebalance if counter.len() >= 2 => {
                handle.rebalance_operator(COUNTER).expect(&context);
            }
            Step::Consolidate if counter.len() >= 2 => {
                // Refused when the partitions are already packed.
                let _ = handle.consolidate(COUNTER);
            }
            Step::ScaleIn if counter.len() >= 2 => {
                let graph = handle.execution_graph();
                let mut by_range: Vec<_> = counter
                    .iter()
                    .map(|id| (graph.instance(*id).expect("live").key_range.lo, *id))
                    .collect();
                by_range.sort();
                handle
                    .scale_in(by_range[0].1, by_range[1].1)
                    .expect(&context);
            }
            Step::FailAndRecover => {
                // A VM crash takes every partition packed onto it along.
                handle.fail_operator(counter[0]);
                let failed: Vec<OperatorId> = handle
                    .health()
                    .into_iter()
                    .filter(|row| row.state == seep::runtime::HealthState::Failed)
                    .map(|row| row.operator)
                    .collect();
                assert!(failed.contains(&counter[0]));
                for id in failed {
                    handle.recover(id, 1).expect(&context);
                }
            }
            _ => {}
        }
        handle.drain();
    }
    // Two more rounds with traffic in between, so every scenario ends on
    // deltas whatever its last plan was.
    for _ in 0..2 {
        feed(&mut handle, 3);
        round(
            &mut handle,
            CHECKPOINT_MS,
            &format!("{label} closing round"),
        );
    }
    (compared, deltas)
}

fn backends(tag: &str) -> Vec<(&'static str, StoreConfig, Option<PathBuf>)> {
    let (file, tiered) = (
        scratch_dir(&format!("{tag}-file")),
        scratch_dir(&format!("{tag}-tiered")),
    );
    vec![
        ("mem", StoreConfig::mem(), None),
        ("file", StoreConfig::file(&file), Some(file)),
        ("tiered", StoreConfig::tiered(&tiered), Some(tiered)),
    ]
}

#[test]
fn every_plan_kind_keeps_the_backup_equal_to_a_fresh_checkpoint() {
    use Step::*;
    let steps = [
        Batch(30),
        Advance(1_000),
        Batch(20),
        Advance(1_000),
        ScaleOut,
        Batch(25),
        Advance(1_000),
        Batch(10),
        Advance(500),
        Rebalance,
        Batch(30),
        Advance(1_000),
        ScaleOut,
        Consolidate,
        Batch(15),
        Advance(1_000),
        Advance(1_000),
        ScaleIn,
        Batch(20),
        Advance(1_000),
        FailAndRecover,
        Batch(20),
        Advance(1_000),
        Batch(5),
        Advance(1_000),
    ];
    for (label, store, dir) in backends("plans") {
        let (compared, deltas) = run_scenario(store, &steps, label);
        assert!(compared >= 30, "{label}: only {compared} backups compared");
        assert!(deltas * 2 > compared, "{label}: {deltas}/{compared} deltas");
        if let Some(dir) = dir {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn random_interleavings_keep_the_backup_equal_to_a_fresh_checkpoint(
        codes in proptest::collection::vec(0u8..12, 8..28),
        sizes in proptest::collection::vec(1usize..40, 28..29),
    ) {
        let steps: Vec<Step> = codes
            .iter()
            .zip(&sizes)
            .map(|(code, size)| step_of(*code, *size))
            .collect();
        for (label, store, dir) in backends("random") {
            let (compared, deltas) = run_scenario(store, &steps, label);
            prop_assert!(compared >= 6 && deltas >= 3, "{label}: {deltas}/{compared}");
            if let Some(dir) = dir {
                let _ = std::fs::remove_dir_all(dir);
            }
        }
    }
}

// ---- operator and worker level --------------------------------------------

/// `inc` without the entries whose application to `base` changes nothing:
/// an entry rewritten to the value the base holds, a removed key the base
/// does not hold.
fn without_noops(mut inc: IncrementalCheckpoint, base: &Checkpoint) -> IncrementalCheckpoint {
    inc.changed
        .retain(|(key, value)| base.processing.get(*key) != Some(value));
    inc.removed
        .retain(|key| base.processing.get(*key).is_some());
    inc
}

/// Drives one operator through `events`, capturing a delta wherever the
/// script says so, and holds each capture against the diff of the full
/// states around it.
struct OperatorOracle {
    id: OperatorId,
    previous: Option<Checkpoint>,
    sequence: u64,
    deltas: usize,
}

impl OperatorOracle {
    fn new() -> Self {
        OperatorOracle {
            id: OperatorId::new(1),
            previous: None,
            sequence: 0,
            deltas: 0,
        }
    }

    fn full(&self, state: ProcessingState) -> Checkpoint {
        Checkpoint::new(self.id, self.sequence, state, Default::default())
    }

    fn capture(&mut self, op: &mut dyn StatefulOperator) {
        self.sequence += 1;
        let current = self.full(op.get_processing_state());
        match (op.take_state_delta(), &self.previous) {
            (StateDelta::Full(state), _) => assert_eq!(self.full(state), current),
            (StateDelta::Changes { .. }, None) => {
                panic!("{}: a first capture must be full", op.name())
            }
            (StateDelta::Changes { changed, removed }, Some(previous)) => {
                assert!(
                    changed.windows(2).all(|w| w[0].0 < w[1].0)
                        && removed.windows(2).all(|w| w[0] < w[1])
                        && removed
                            .iter()
                            .all(|k| changed.binary_search_by_key(k, |c| c.0).is_err()),
                    "{}: keys are sorted, unique and in one list only",
                    op.name()
                );
                let reference = IncrementalCheckpoint::diff(previous, &current);
                let captured = IncrementalCheckpoint {
                    changed,
                    removed,
                    ..reference.clone()
                };
                let mut applied = previous.clone();
                applied.apply_increment(&captured);
                assert_eq!(applied, current, "{}: base + delta", op.name());
                assert_eq!(
                    without_noops(captured, previous),
                    reference,
                    "{}: delta vs diff",
                    op.name()
                );
                self.deltas += 1;
            }
        }
        self.previous = Some(current);
    }

    /// After `set_processing_state` the operator cannot vouch for a delta.
    fn restore_roundtrip(&mut self, op: &mut dyn StatefulOperator) {
        op.set_processing_state(op.get_processing_state());
        self.previous = None;
    }
}

/// Feed `inputs` to `op` in script order: `script[i] % 16` decides what
/// happens after input `i` (mostly nothing; a capture, a tick that may close
/// a window, or now and then a restore).
fn drive_operator(
    op: &mut dyn StatefulOperator,
    inputs: &[Tuple],
    script: &[u8],
    tick_ms: u64,
) -> (Vec<OutputTuple>, usize) {
    let mut oracle = OperatorOracle::new();
    let mut out = Vec::new();
    let mut now = 0;
    oracle.capture(op);
    for (tuple, code) in inputs.iter().zip(script.iter().cycle()) {
        op.process(StreamId(0), tuple, &mut out);
        match code % 16 {
            0 | 1 => oracle.capture(op),
            2 | 3 => {
                now += tick_ms;
                op.on_tick(now, &mut out);
            }
            4 if code % 64 == 4 => oracle.restore_roundtrip(op),
            _ => {}
        }
    }
    oracle.capture(op);
    oracle.capture(op);
    (out, oracle.deltas)
}

fn word_tuples(n: u64, vocabulary: u64) -> Vec<Tuple> {
    (0..n)
        .map(|i| {
            let word = format!("w{}", (i * 7 + i / 5) % vocabulary);
            Tuple::encode(i + 1, Key::from_str_key(&word), &word).expect("word encodes")
        })
        .collect()
}

fn lrb_tuples(records: impl IntoIterator<Item = (Key, LrbRecord)>) -> Vec<Tuple> {
    records
        .into_iter()
        .enumerate()
        .map(|(i, (key, record))| Tuple::encode(i as u64 + 1, key, &record).expect("encodes"))
        .collect()
}

fn outputs_as_inputs(outputs: Vec<OutputTuple>) -> Vec<Tuple> {
    outputs
        .into_iter()
        .enumerate()
        .map(|(i, o)| o.with_ts(i as u64 + 1))
        .collect()
}

/// A user operator that keeps no dirty marks: the trait default applies.
#[derive(Default)]
struct Untracked(BTreeMap<Key, u64>);

impl StatefulOperator for Untracked {
    fn process(&mut self, _: StreamId, tuple: &Tuple, _: &mut Vec<OutputTuple>) {
        *self.0.entry(tuple.key).or_default() += 1;
    }
    fn get_processing_state(&self) -> ProcessingState {
        let mut state = ProcessingState::empty();
        for (key, count) in &self.0 {
            state.insert_encoded(*key, count).expect("count encodes");
        }
        state
    }
    fn set_processing_state(&mut self, state: ProcessingState) {
        self.0 = state
            .iter()
            .filter_map(|(k, _)| Some((k, state.get_decoded(k).ok()??)))
            .collect();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn captured_deltas_equal_the_diff_of_the_full_states_around_them(
        script in proptest::collection::vec(any::<u8>(), 16..64),
    ) {
        let words = word_tuples(400, 37);
        let (_, deltas) = drive_operator(&mut WindowedWordCount::new(3_000), &words, &script, 700);
        prop_assert!(deltas >= 2);
        let (_, deltas) = drive_operator(&mut TopKReducer::new(3, 3_000), &words, &script, 700);
        prop_assert!(deltas >= 2);
        let (_, deltas) = drive_operator(&mut Untracked::default(), &words, &script, 700);
        prop_assert_eq!(deltas, 0, "the default capture is always full");

        // The LRB chain: position reports and balance queries keyed as the
        // forwarder keys them, each operator fed what the previous emitted.
        let mut generator = LrbGenerator::new(LrbConfig {
            expressways: 1,
            duration_secs: 60,
            balance_query_fraction: 0.2,
            ..Default::default()
        });
        let records: Vec<LrbRecord> = (0..10).flat_map(|t| generator.generate_second(t)).collect();
        let reports = lrb_tuples(records.iter().filter_map(|r| match r {
            LrbRecord::Position(p) => Some((p.segment_key(), *r)),
            _ => None,
        }));
        let (tolls, deltas) = drive_operator(&mut TollCalculator::new(), &reports, &script, 700);
        prop_assert!(deltas >= 2);
        let mut to_assess = outputs_as_inputs(tolls);
        to_assess.extend(lrb_tuples(records.iter().filter_map(|r| match r {
            LrbRecord::Balance(q) => Some((q.vehicle_key(), *r)),
            _ => None,
        })));
        let (responses, deltas) =
            drive_operator(&mut TollAssessment::new(), &to_assess, &script, 700);
        prop_assert!(deltas >= 2);
        let (_, deltas) = drive_operator(
            &mut BalanceAccount::new(),
            &outputs_as_inputs(responses),
            &script,
            700,
        );
        prop_assert!(deltas >= 2);
    }
}

#[test]
fn a_worker_assembles_the_delta_around_its_operators_changes() {
    use seep::core::{LogicalOpId, RoutingState};
    use seep::net::Network;
    use seep::runtime::metrics::Metrics;
    use seep::runtime::worker::{Capture, SharedClock, WorkerCore};

    let network = Network::new(1_024);
    let metrics = Metrics::new();
    let epoch = std::time::Instant::now();
    let (id, downstream) = (OperatorId::new(1), OperatorId::new(2));
    let receiver = network.register(id);
    let _sink = network.register(downstream);
    let routing = BTreeMap::from([(LogicalOpId(9), RoutingState::single(downstream))]);
    let mut worker = WorkerCore::new(
        id,
        LogicalOpId(1),
        Box::new(WindowedWordCount::new(2_000)),
        receiver,
        routing,
        SharedClock::new(),
        false,
        true,
    );
    let mut previous: Option<Checkpoint> = None;
    let mut deltas = 0;
    for (round, tuple) in word_tuples(240, 61).into_iter().enumerate() {
        network
            .send_tuple(OperatorId::new(0), id, StreamId(0), tuple)
            .expect("worker registered");
        worker.step(&network, &metrics, epoch, 16);
        if round % 3 == 0 {
            worker.tick(round as u64 * 25, &network, &metrics, epoch); // closes windows
        }
        if round % 40 == 39 {
            worker.utilization(1_000); // a traffic decay step
        }
        if round % 7 != 0 {
            continue;
        }
        let sequence = round as u64 / 7 + 1;
        let current = worker.take_checkpoint(sequence);
        // Every third base is "lost": the capture must fall back to full.
        let base_held = previous.is_some() && round % 21 != 0;
        match (worker.take_delta(sequence, base_held), &previous) {
            // Also what a held base gets when most of the state changed
            // (right after a window close, here).
            (Capture::Full(checkpoint), _) => assert_eq!(checkpoint, current),
            (Capture::Delta(inc), Some(base)) => {
                assert!(base_held);
                let mut applied = base.clone();
                applied.apply_increment(&inc);
                assert_eq!(applied, current, "base + delta at round {round}");
                let reference = IncrementalCheckpoint {
                    traffic: inc.traffic.clone(), // steps, where the diff can only say "set"
                    ..IncrementalCheckpoint::diff(base, &current)
                };
                assert_eq!(without_noops(inc, base), reference, "round {round}");
                deltas += 1;
            }
            (Capture::Delta(_), None) => panic!("a first capture must be full"),
        }
        previous = Some(current);
    }
    assert!(deltas >= 8, "{deltas} deltas");
}

// ---- store level ----------------------------------------------------------

#[test]
fn a_filestore_reopened_after_a_torn_last_delta_recovers_the_previous_one() {
    let dir = scratch_dir("torn");
    let owner = OperatorId::new(6);
    let mut states = Vec::new();
    let mut log_lens = Vec::new();
    {
        let store = FileStore::open_dir(&dir).expect("open");
        let mut state = ProcessingState::empty();
        for key in 0..40u64 {
            state.insert(Key(key), vec![key as u8; 24]);
        }
        let mut previous = Checkpoint::new(owner, 1, state, Default::default());
        store.put(owner, previous.clone()).expect("put");
        for sequence in 2..=4u64 {
            let mut next = previous.clone();
            next.meta.sequence = sequence;
            next.processing.insert(Key(sequence), vec![0xEE; 24]);
            next.processing.remove(Key(30 + sequence));
            next.processing.advance_ts(StreamId(0), sequence * 10);
            let inc = IncrementalCheckpoint::diff(&previous, &next);
            store.apply_incremental(owner, &inc).expect("delta");
            states.push(next.clone());
            log_lens.push(store.log_bytes());
            previous = next;
        }
    }
    // The crash tore the third delta: only part of its frame hit the disk.
    let segment = dir.join("seg-00000000.log");
    let torn = log_lens[2] - 5;
    assert!(torn > log_lens[1]);
    std::fs::OpenOptions::new()
        .write(true)
        .open(&segment)
        .expect("segment exists")
        .set_len(torn)
        .expect("truncate");
    let store = FileStore::open_dir(&dir).expect("reopen");
    assert_eq!(store.latest_sequence(owner), Some(3));
    assert_eq!(store.latest(owner).expect("restore"), states[1]);
    assert_eq!(store.log_bytes(), log_lens[1], "the torn tail is truncated");
    // The chain continues from the last complete delta and survives a reopen.
    let mut next = states[1].clone();
    next.meta.sequence = 4;
    next.processing.insert(Key(99), vec![1; 8]);
    let inc = IncrementalCheckpoint::diff(&states[1], &next);
    store.apply_incremental(owner, &inc).expect("delta");
    drop(store);
    let store = FileStore::open_dir(&dir).expect("reopen");
    assert_eq!(store.latest(owner).expect("restore"), next);
    let _ = std::fs::remove_dir_all(dir);
}

// ---- round order ----------------------------------------------------------

#[test]
fn a_round_captures_every_upstream_after_its_downstreams_trimmed_it() {
    let mut handle = Job::builder(
        RuntimeConfig::default()
            .with_checkpoint_interval(5_000)
            .with_batch_size(16),
    )
    .source("data_feeder", passthrough("feeder"))
    .then_stateless("forwarder", Forwarder::new)
    .then_stateful("toll_calculator", TollCalculator::new)
    .branch("forwarder")
    .then_stateful("toll_assessment", TollAssessment::new)
    .connect("toll_calculator", "toll_assessment")
    .then_stateful("balance_account", BalanceAccount::new)
    .branch("toll_assessment")
    .then_stateless("collector", Collector::new)
    .connect("balance_account", "collector")
    .sink("sink", passthrough("sink"))
    .deploy()
    .expect("valid LRB job");
    let mut generator = LrbGenerator::new(LrbConfig {
        expressways: 2,
        duration_secs: 200,
        balance_query_fraction: 0.05,
        ..Default::default()
    });
    let mut rounds = 0;
    for t in 0..15u32 {
        for record in generator.generate_second(t) {
            let key = Key::from_u64(u64::from(record.time()) << 32 | u64::from(t));
            let payload = bincode::serialize(&record).expect("record serialises");
            handle.inject("data_feeder", key, payload);
        }
        handle.drain();
        // What each operator would have backed up had it gone first: a whole
        // interval of output nobody has acknowledged yet.
        let instances: Vec<OperatorId> =
            handle.execution_graph().instances().map(|i| i.id).collect();
        let untrimmed: BTreeMap<OperatorId, usize> = instances
            .iter()
            .map(|id| {
                let checkpoint = handle.runtime().full_checkpoint(*id).expect("live");
                (*id, checkpoint.buffer.size_bytes())
            })
            .collect();
        let now = handle.now_ms() + 1_000;
        handle.advance_to(now);
        let round: Vec<_> = handle
            .metrics()
            .checkpoints()
            .into_iter()
            .filter(|c| c.at_ms == now)
            .collect();
        if round.is_empty() {
            continue;
        }
        rounds += 1;
        let graph = handle.execution_graph();
        let mut upstreams_checked = 0;
        for record in &round {
            let downstreams = graph.downstream_instances(record.operator).expect("live");
            if downstreams.is_empty() {
                continue;
            }
            let logical = graph.instance(record.operator).expect("live").logical;
            let backed_up = handle
                .runtime()
                .backed_up_checkpoint(record.operator)
                .expect("backed up");
            for downstream in downstreams {
                let reflected = handle
                    .runtime()
                    .full_checkpoint(downstream)
                    .expect("live")
                    .timestamps()
                    .get(StreamId(logical.0))
                    .unwrap_or(0);
                assert!(
                    backed_up
                        .buffer
                        .iter_for(downstream)
                        .all(|tuple| tuple.ts > reflected),
                    "{} backed up tuples {downstream} had already reflected",
                    record.operator
                );
            }
            // Everything was drained before the round, so every downstream
            // had reflected the whole interval.
            assert!(backed_up.buffer.is_empty());
            assert!(
                untrimmed[&record.operator] > 0,
                "{} emitted",
                record.operator
            );
            if backed_up.processing.iter().next().is_none() {
                // Forwarder and collector hold nothing but their buffers.
                assert!(
                    record.stored_bytes < untrimmed[&record.operator],
                    "{}: stored {} bytes, its untrimmed buffer alone was {}",
                    record.operator,
                    record.stored_bytes,
                    untrimmed[&record.operator]
                );
            }
            upstreams_checked += 1;
        }
        assert_eq!(upstreams_checked, 5, "forwarder, three stateful, collector");
    }
    assert_eq!(rounds, 3);
}
