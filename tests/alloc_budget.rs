//! Allocation counts on the data plane, which repeat exactly from run to run
//! and from debug to release.
//!
//! A payload is one exact-size block, a decode borrows, and an operator that
//! passes a value on unchanged passes its bytes on: these tests count the
//! heap allocations the calling thread makes while a closure runs, with a
//! counting global allocator, and pin each count.

#[path = "codec/values.rs"]
mod values;

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use bytes::Bytes;
use seep_core::primitives::split_checkpoint;
use seep_core::state::{BufferState, ProcessingState};
use seep_core::{
    BatchOutput, Checkpoint, FusedFactory, Key, KeyRange, OperatorFactory, OperatorId, OutputTuple,
    StatefulOperator, StreamId, TrafficStats, Tuple,
};
use seep_operators::lrb::types::LrbRecord;
use seep_operators::lrb::Forwarder;
use seep_operators::{EmptyTokenFilter, SentenceTokenizer, WordKeyer, WordSplitter};

// ---------------------------------------------------------------------------
// The counter: allocations (and reallocations) this thread makes while armed.
// ---------------------------------------------------------------------------

struct Counting;

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static COUNT: Cell<u64> = const { Cell::new(0) };
}

fn note() {
    if ARMED.with(Cell::get) {
        COUNT.with(|c| c.set(c.get() + 1));
    }
}

// SAFETY: every call is passed unchanged to `System`, which upholds the
// `GlobalAlloc` contract; `note` only touches const-initialised thread
// locals, which never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Run `f`, returning its result and the allocations it made.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    COUNT.with(|c| c.set(0));
    ARMED.with(|a| a.set(true));
    let out = f();
    ARMED.with(|a| a.set(false));
    (out, COUNT.with(Cell::get))
}

fn allocations<T>(f: impl FnOnce() -> T) -> u64 {
    counted(f).1
}

// ---------------------------------------------------------------------------
// The codec.
// ---------------------------------------------------------------------------

#[test]
fn an_encoded_payload_is_one_allocation() {
    let word = "naïve".to_string();
    assert_eq!(
        allocations(|| OutputTuple::encode(Key(1), &word).unwrap()),
        1
    );
    assert_eq!(allocations(|| Tuple::encode(1, Key(1), &word).unwrap()), 1);
    for (name, record) in values::lrb_records() {
        let (out, n) = counted(|| OutputTuple::encode(Key(2), &record).unwrap());
        assert_eq!(n, 1, "{name}: OutputTuple::encode");
        assert_eq!(
            out.payload.to_vec(),
            bincode::serialize(&record).unwrap(),
            "{name}"
        );
        assert_eq!(
            allocations(|| Tuple::encode(3, Key(2), &record).unwrap()),
            1,
            "{name}: Tuple::encode"
        );
    }
}

#[test]
fn a_borrowed_string_decodes_without_allocating() {
    let tuple = Tuple::encode(1, Key(1), "lent out of the payload").unwrap();
    let (word, n) = counted(|| tuple.decode::<&str>().unwrap());
    assert_eq!(n, 0);
    assert_eq!(word, "lent out of the payload");
}

#[test]
fn a_decoded_byte_buffer_is_one_allocation() {
    let blob = Bytes::from(vec![7u8; 300]);
    let encoded = bincode::serialize(&blob).unwrap();
    let (back, n) = counted(|| bincode::deserialize::<Bytes>(&encoded).unwrap());
    assert_eq!(n, 1);
    assert_eq!(back, blob);
}

// ---------------------------------------------------------------------------
// The kernels.
// ---------------------------------------------------------------------------

#[test]
fn the_keyer_passes_a_lower_case_word_on_without_allocating() {
    let mut keyer = WordKeyer::new();
    let input = Tuple::encode(1, Key(9), "lowercase").unwrap();
    let mut out = Vec::with_capacity(1);
    assert_eq!(
        allocations(|| keyer.process(StreamId(0), &input, &mut out)),
        0
    );
    assert_eq!(out[0].key, Key::from_str_key("lowercase"));
    assert_eq!(out[0].payload.as_ptr(), input.payload.as_ptr());
}

#[test]
fn the_forwarder_allocates_nothing_per_record() {
    let records: Vec<Tuple> = values::lrb_records()
        .into_iter()
        .map(|(_, r)| r)
        .filter(|r| matches!(r, LrbRecord::Position(_) | LrbRecord::Balance(_)))
        .enumerate()
        .map(|(i, r)| Tuple::encode(i as u64 + 1, Key(0), &r).unwrap())
        .collect();
    assert_eq!(records.len(), 2);
    let mut forwarder = Forwarder::new();
    let mut out = Vec::with_capacity(records.len());
    let n = allocations(|| {
        for record in &records {
            forwarder.process(StreamId(0), record, &mut out);
        }
    });
    assert_eq!(n, 0);
    assert_eq!(forwarder.forwarded(), 2);
}

/// `fragments` fragments of `words` lower-case words each, one space apart —
/// the shape of the sentence generator's output.
fn fragments(fragments: usize, words: usize) -> Vec<Tuple> {
    (0..fragments)
        .map(|f| {
            let sentence: Vec<String> = (0..words)
                .map(|w| format!("word{:04}", f * 7 + w))
                .collect();
            Tuple::encode(f as u64 + 1, Key(f as u64), &sentence.join(" ")).unwrap()
        })
        .collect()
}

#[test]
fn the_fused_word_chain_costs_one_allocation_per_word() {
    const WORDS: usize = 13;
    let stages: Vec<(String, Arc<dyn OperatorFactory>)> = vec![
        ("tokenizer".into(), Arc::new(SentenceTokenizer::new)),
        ("word_filter".into(), Arc::new(EmptyTokenFilter::new)),
        ("word_keyer".into(), Arc::new(WordKeyer::new)),
    ];
    let mut chain = FusedFactory::new("fused", stages).build();
    for batch in [1, 8, 64] {
        let input = fragments(batch, WORDS);
        let mut out = BatchOutput::new();
        let n = allocations(|| chain.process_batch(StreamId(0), &input, &mut out));
        assert_eq!(out.len(), batch * WORDS);
        // One payload per word; the rest is the per-stage output vectors,
        // which grow by doubling: a handful per stage whatever the batch.
        let per_batch = n - (batch * WORDS) as u64;
        assert!(
            per_batch <= 48,
            "batch of {batch}: {n} allocations for {} words",
            batch * WORDS
        );
    }
}

#[test]
fn the_splitter_costs_one_allocation_per_word() {
    let input = fragments(64, 13);
    let mut splitter = WordSplitter::new();
    let mut out = BatchOutput::new();
    let n = allocations(|| splitter.process_batch(StreamId(0), &input, &mut out));
    assert_eq!(out.len(), 64 * 13);
    assert!(n - 64 * 13 <= 16, "{n} allocations for {} words", 64 * 13);
}

// ---------------------------------------------------------------------------
// The traffic summary.
// ---------------------------------------------------------------------------

/// A million distinct keys per round. The first round grows the table to
/// its final size; after that it records in place, however many fresh keys
/// arrive.
#[test]
fn the_traffic_summary_stays_bounded_and_stops_allocating() {
    let mut traffic = TrafficStats::new();
    for round in 0..3u64 {
        let n = allocations(|| {
            for k in 0..1_000_000u64 {
                traffic.record(Key((round << 32 | k).wrapping_mul(0x9e37_79b9_7f4a_7c15)));
                assert!(traffic.len() <= TrafficStats::CAPACITY);
            }
        });
        if round > 0 {
            assert_eq!(n, 0, "round {round}");
        }
    }
}

// ---------------------------------------------------------------------------
// The reconfiguration split.
// ---------------------------------------------------------------------------

/// Splitting a captured checkpoint (Algorithm 2) moves its entries: each new
/// part costs a tree cut and its own copy of the timestamp vector and the
/// bounded traffic summary, never an allocation per key.
#[test]
fn splitting_a_checkpoint_costs_allocations_per_part_not_per_key() {
    const KEYS: u64 = 200_000;
    let checkpoint = || {
        let mut state = ProcessingState::empty();
        let mut traffic = TrafficStats::new();
        for k in 0..KEYS {
            let key = Key(k.wrapping_mul(0x9e37_79b9_7f4a_7c15));
            state.insert(key, Bytes::from_static(b"counter"));
            traffic.record(key);
        }
        state.advance_ts(StreamId(0), KEYS);
        let owner = OperatorId::new(1);
        Checkpoint::new(owner, 7, state, BufferState::new()).with_traffic(traffic)
    };
    for parts in [1usize, 2, 4] {
        let ranges = KeyRange::full().split_even(parts).unwrap();
        let assignments: Vec<(OperatorId, KeyRange)> = ranges
            .iter()
            .enumerate()
            .map(|(i, r)| (OperatorId::new(10 + i as u64), *r))
            .collect();
        let captured = checkpoint();
        let (split, n) = counted(|| split_checkpoint(captured, &assignments).unwrap());
        let moved: usize = split.iter().map(|p| p.processing.len()).sum();
        assert_eq!(moved, KEYS as usize);
        assert!(n <= 32 * parts as u64, "{n} allocations for {parts} parts");
    }
}
