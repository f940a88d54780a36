//! The binary format is pinned byte for byte.
//!
//! `tests/codec/golden.txt` holds the bincode encodings of the values in
//! `tests/codec/values.rs`, and `tests/codec/filestore/` a `FileStore`
//! directory, both written by the `Value`-tree codec this workspace used
//! before the serde shim streamed. Every encoding must still come out the
//! same and decode back to the same value, the store must reopen, and no
//! corruption of a golden encoding may panic or make the decoder allocate
//! past what the input can justify — nor of a string or blob read through
//! the borrowed pulls.

#[path = "codec/values.rs"]
mod values;

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::fmt::Debug;
use std::path::Path;

use bytes::Bytes;
use serde::de::DeserializeOwned;
use serde::Serialize;

use seep_core::{Checkpoint, ExecutionGraph, IncrementalCheckpoint, Key, OperatorId, TrafficStats};
use seep_node::NodeMsg;
use seep_operators::lrb::types::LrbRecord;
use seep_operators::word_count::{WordEntry, WordFrequency};
use seep_store::{CheckpointStore, FileStore, StoreConfig};

// ---------------------------------------------------------------------------
// Allocation watch: the largest single allocation this thread makes while
// armed.
// ---------------------------------------------------------------------------

struct Watch;

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) {
    if ARMED.with(Cell::get) {
        LARGEST.with(|l| l.set(l.get().max(size)));
    }
}

// SAFETY: every call is passed unchanged to `System`, which upholds the
// `GlobalAlloc` contract; `note` only touches const-initialised thread
// locals, which never allocate.
unsafe impl GlobalAlloc for Watch {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Watch = Watch;

/// A collection reserves at most 4 KiB of elements before it has seen them;
/// past that it grows with the elements actually decoded. 16 KiB covers
/// that reserve and the fixed-size nodes of a B-tree. Anything else a
/// decoder allocates is a string or blob whose length was checked against
/// the input.
const ALLOC_FLOOR: usize = 16 * 1024;

/// Run `decode` on `bytes`, returning whether it succeeded and the largest
/// allocation made on the way.
fn decode_watched(bytes: &[u8], decode: impl FnOnce(&[u8]) -> bool) -> (bool, usize) {
    LARGEST.with(|l| l.set(0));
    ARMED.with(|a| a.set(true));
    let ok = decode(bytes);
    ARMED.with(|a| a.set(false));
    (ok, LARGEST.with(Cell::get))
}

fn assert_bounded<T: DeserializeOwned>(name: &str, bytes: &[u8], what: &str) -> bool {
    assert_bounded_by(name, bytes, what, |b| bincode::deserialize::<T>(b).is_ok())
}

fn assert_bounded_by(
    name: &str,
    bytes: &[u8],
    what: &str,
    decode: impl FnOnce(&[u8]) -> bool,
) -> bool {
    let (ok, largest) = decode_watched(bytes, decode);
    assert!(
        largest <= bytes.len().max(ALLOC_FLOOR),
        "{name}: {what}: allocated {largest} bytes from a {}-byte input",
        bytes.len()
    );
    ok
}

fn assert_rejected<T: DeserializeOwned>(name: &str, bytes: &[u8], what: &str) {
    assert!(
        !assert_bounded::<T>(name, bytes, what),
        "{name}: {what}: decoded"
    );
}

// ---------------------------------------------------------------------------
// The goldens.
// ---------------------------------------------------------------------------

fn goldens() -> BTreeMap<String, Vec<u8>> {
    include_str!("codec/golden.txt")
        .lines()
        .map(|line| {
            let (name, hex) = line.split_once(' ').expect("`name hex` line");
            let bytes = (0..hex.len())
                .step_by(2)
                .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).expect("hex digit"))
                .collect();
            (name.to_string(), bytes)
        })
        .collect()
}

fn golden(name: &str) -> Vec<u8> {
    goldens()
        .remove(name)
        .unwrap_or_else(|| panic!("no golden `{name}`"))
}

/// `serialize(value) == golden` and `deserialize(golden) == value`, with
/// equality judged by `same`.
fn check<T: Serialize + DeserializeOwned + Debug>(name: &str, value: &T, same: fn(&T, &T) -> bool) {
    let bytes = golden(name);
    assert_eq!(
        bincode::serialize(value).unwrap(),
        bytes,
        "{name}: encoding moved"
    );
    let back: T = bincode::deserialize(&bytes).unwrap();
    assert!(same(&back, value), "{name}: decoded {back:?}");
}

fn eq<T: PartialEq>(a: &T, b: &T) -> bool {
    a == b
}

/// `StoreConfig` has no `PartialEq`; its `Debug` lists every field.
fn same_debug<T: Debug>(a: &T, b: &T) -> bool {
    format!("{a:?}") == format!("{b:?}")
}

#[test]
fn every_lrb_record_variant_encodes_as_before() {
    for (name, record) in values::lrb_records() {
        check(name, &record, eq);
    }
}

#[test]
fn word_count_records_encode_as_before() {
    check("word_entry", &values::word_entry(), eq);
    check("word_frequency", &values::word_frequency(), eq);
}

#[test]
fn checkpoints_and_every_traffic_op_encode_as_before() {
    check("checkpoint", &values::checkpoint(), eq);
    for (name, inc) in values::incremental_checkpoints() {
        check(name, &inc, eq);
    }
}

#[test]
fn node_messages_carrying_bytes_encode_as_before() {
    for (name, msg) in values::node_msgs() {
        check(name, &msg, eq);
    }
}

#[test]
fn execution_graph_and_store_config_encode_as_before() {
    check("execution_graph", &values::execution_graph(), eq);
    check("store_config", &values::store_config(), same_debug);
}

#[test]
fn a_filestore_written_before_reopens_with_equal_checkpoints() {
    let dir = std::env::temp_dir().join(format!("seep-codec-golden-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let fixture = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/codec/filestore");
    for entry in std::fs::read_dir(fixture).unwrap() {
        let entry = entry.unwrap();
        std::fs::copy(entry.path(), dir.join(entry.file_name())).unwrap();
    }

    let store = FileStore::open_dir(&dir).unwrap();
    let mut expected = values::checkpoint();
    for (i, (_, mut inc)) in values::incremental_checkpoints().into_iter().enumerate() {
        inc.base_sequence = 41 + i as u64;
        inc.meta.sequence = 42 + i as u64;
        expected.apply_increment(&inc);
    }
    assert_eq!(store.latest_sequence(OperatorId(2)), Some(44));
    assert_eq!(store.latest(OperatorId(2)).unwrap(), expected);

    let mut traffic = TrafficStats::new();
    for k in 0..50u64 {
        for _ in 0..=k % 4 {
            traffic.record(Key(k * 7919));
        }
    }
    let other = Checkpoint::new(
        OperatorId(8),
        3,
        seep_core::ProcessingState::empty(),
        seep_core::BufferState::new(),
    )
    .with_emit_clock(12)
    .with_traffic(traffic);
    assert_eq!(store.latest(OperatorId(8)).unwrap(), other);
    drop(store);
    std::fs::remove_dir_all(&dir).unwrap();
}

// ---------------------------------------------------------------------------
// Corrupt-input sweep.
// ---------------------------------------------------------------------------

/// Truncation at every offset and trailing garbage must fail; every flip of
/// one bit or of a whole byte may decode or fail, but must not panic or
/// over-allocate.
fn sweep<T: DeserializeOwned>(name: &str) -> usize {
    let bytes = golden(name);
    assert!(assert_bounded::<T>(name, &bytes, "the golden itself"));
    for cut in 0..bytes.len() {
        assert_rejected::<T>(name, &bytes[..cut], &format!("truncated at {cut}"));
    }
    let mut trailing = bytes.clone();
    trailing.push(0);
    assert_rejected::<T>(name, &trailing, "trailing garbage");
    let mut rejected = 0;
    for at in 0..bytes.len() {
        for mask in (0..8).map(|bit| 1u8 << bit).chain([0xff]) {
            let mut flipped = bytes.clone();
            flipped[at] ^= mask;
            if !assert_bounded::<T>(name, &flipped, &format!("byte {at} xor {mask:#04x}")) {
                rejected += 1;
            }
        }
    }
    rejected
}

#[test]
fn corrupt_goldens_fail_cleanly() {
    let mut rejected = 0;
    for (name, _) in values::lrb_records() {
        rejected += sweep::<LrbRecord>(name);
    }
    rejected += sweep::<WordEntry>("word_entry");
    rejected += sweep::<WordFrequency>("word_frequency");
    rejected += sweep::<Checkpoint>("checkpoint");
    for (name, _) in values::incremental_checkpoints() {
        rejected += sweep::<IncrementalCheckpoint>(name);
    }
    for (name, _) in values::node_msgs() {
        rejected += sweep::<NodeMsg>(name);
    }
    rejected += sweep::<ExecutionGraph>("execution_graph");
    rejected += sweep::<StoreConfig>("store_config");
    // Most flips land in a tag, a name or a length and are caught; the rest
    // change a value into another valid one.
    assert!(rejected > 0);
}

/// The golden with the bytes after the first occurrence of `marker`
/// (skipping `skip` bytes) replaced by `with` for `len` bytes.
fn patched(name: &str, marker: &[u8], skip: usize, len: usize, with: &[u8]) -> Vec<u8> {
    let mut bytes = golden(name);
    let at = bytes
        .windows(marker.len())
        .position(|w| w == marker)
        .unwrap_or_else(|| panic!("{name}: marker not found"))
        + marker.len()
        + skip;
    bytes.splice(at..at + len, with.iter().copied());
    bytes
}

fn varint(mut v: u64) -> Vec<u8> {
    let mut out = Vec::new();
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
    out
}

#[test]
fn each_decoder_check_rejects_its_corruption() {
    // A string length prefix larger than the input (`word` → tag 6, len 6).
    let long_string = patched("word_entry", b"word", 1, 1, &varint(1 << 40));
    assert_rejected::<WordEntry>("word_entry", &long_string, "string longer than input");
    // A blob length prefix larger than the input (`batch` → tag 7, len 41).
    let long_blob = patched("node_inject_many", b"batch", 1, 1, &varint(u32::MAX.into()));
    assert_rejected::<NodeMsg>("node_inject_many", &long_blob, "blob longer than input");
    // A map count larger than the input (`instances` → tag 11, count 6).
    let long_map = patched("execution_graph", b"instances", 1, 1, &varint(1 << 62));
    assert_rejected::<ExecutionGraph>("execution_graph", &long_map, "map longer than input");
    // A field name whose length wraps the read position.
    let wrapping = patched("word_entry", &[0x0c, 0x02], 0, 1, &varint(u64::MAX));
    assert_rejected::<WordEntry>("word_entry", &wrapping, "wrapping field-name length");
    // A count the input could hold, of elements far larger in memory than
    // the one byte each would take: nothing is reserved for them up front.
    let mut many = vec![10];
    many.extend(varint(20_000));
    many.resize(many.len() + 20_000, 0);
    assert_rejected::<Vec<ExecutionGraph>>("many graphs", &many, "count of large elements");

    // Nesting: an unknown field holding `levels` nested options.
    let nested = |levels: usize| {
        let mut bytes = golden("word_entry");
        bytes[1] = 3;
        bytes.extend_from_slice(&[4, b'd', b'e', b'e', b'p']);
        bytes.extend(std::iter::repeat_n(9u8, levels));
        bytes.push(0);
        bytes
    };
    // The field's value sits at depth 1, the innermost unit at levels + 1.
    assert!(bincode::deserialize::<WordEntry>(&nested(127)).is_ok());
    assert_rejected::<WordEntry>("word_entry", &nested(128), "depth 129");

    // Invalid UTF-8 in a string (`naïve`'s `ï` is c3 af).
    let bad_utf8 = patched("word_entry", &[0xc3], 0, 1, &[0xff]);
    assert_rejected::<WordEntry>("word_entry", &bad_utf8, "invalid UTF-8");

    // A u8 field holding 300 (`speed` → tag 3, 63).
    let speed_300 = patched("lrb_position", b"speed", 1, 1, &varint(300));
    let err = bincode::deserialize::<LrbRecord>(&speed_300).unwrap_err();
    assert!(err.0.contains("out of range"), "{err}");

    // An unknown variant.
    let unknown = patched("lrb_position", b"Positio", 0, 1, b"m");
    let err = bincode::deserialize::<LrbRecord>(&unknown).unwrap_err();
    assert!(err.0.contains("unknown variant `Positiom`"), "{err}");

    // Trailing garbage after a whole value.
    let mut trailing = golden("checkpoint");
    trailing.extend_from_slice(&[0, 0]);
    let err = bincode::deserialize::<Checkpoint>(&trailing).unwrap_err();
    assert!(err.0.contains("trailing garbage"), "{err}");
}

// ---------------------------------------------------------------------------
// The borrowed pulls: `&str` lent out of the input, `Bytes` copied once.
// ---------------------------------------------------------------------------

fn decodes_str(bytes: &[u8]) -> bool {
    bincode::deserialize::<&str>(bytes).is_ok()
}

fn decodes_bytes(bytes: &[u8]) -> bool {
    bincode::deserialize::<Bytes>(bytes).is_ok()
}

/// Every truncation, trailing garbage and every tag but the right one are
/// rejected; every bit flip decodes or fails without over-allocating.
fn sweep_by(name: &str, bytes: &[u8], right_tag: u8, decode: fn(&[u8]) -> bool) {
    assert!(assert_bounded_by(
        name,
        bytes,
        "the encoding itself",
        decode
    ));
    for cut in 0..bytes.len() {
        let what = format!("truncated at {cut}");
        assert!(
            !assert_bounded_by(name, &bytes[..cut], &what, decode),
            "{name}: {what}"
        );
    }
    let mut trailing = bytes.to_vec();
    trailing.push(0);
    assert!(!assert_bounded_by(
        name,
        &trailing,
        "trailing garbage",
        decode
    ));
    for tag in (0..=u8::MAX).filter(|&t| t != right_tag) {
        let mut wrong = bytes.to_vec();
        wrong[0] = tag;
        let what = format!("tag {tag:#04x}");
        assert!(
            !assert_bounded_by(name, &wrong, &what, decode),
            "{name}: {what}"
        );
    }
    for at in 0..bytes.len() {
        for bit in 0..8 {
            let mut flipped = bytes.to_vec();
            flipped[at] ^= 1 << bit;
            assert_bounded_by(name, &flipped, &format!("byte {at} bit {bit}"), decode);
        }
    }
}

#[test]
fn corrupt_strings_and_blobs_fail_cleanly_through_the_borrowed_pulls() {
    let text = bincode::serialize("naïve words, lent").unwrap();
    assert_eq!(
        bincode::deserialize::<&str>(&text).unwrap(),
        "naïve words, lent"
    );
    sweep_by("str", &text, text[0], decodes_str);
    // `ï` is c3 af: a lone continuation byte is not UTF-8.
    let at = text.iter().position(|&b| b == 0xc3).unwrap();
    let mut broken = text.clone();
    broken[at] = 0xff;
    assert!(!assert_bounded_by(
        "str",
        &broken,
        "invalid UTF-8",
        decodes_str
    ));
    assert!(bincode::deserialize::<String>(&broken).is_err());

    let blob = Bytes::from((0..=255u8).cycle().take(600).collect::<Vec<_>>());
    let encoded = bincode::serialize(&blob).unwrap();
    assert_eq!(bincode::deserialize::<Bytes>(&encoded).unwrap(), blob);
    sweep_by("bytes", &encoded, encoded[0], decodes_bytes);
    // A blob length past the input is refused before anything is allocated.
    let mut long = vec![encoded[0]];
    long.extend(varint(u32::MAX.into()));
    long.extend_from_slice(&encoded[3..]);
    assert!(!assert_bounded_by(
        "bytes",
        &long,
        "blob longer than input",
        decodes_bytes
    ));
}

#[test]
fn the_value_path_still_decodes_strings_and_blobs() {
    use serde::Value;

    let owned: String = serde::from_value(Value::Str("tree".into())).unwrap();
    assert_eq!(owned, "tree");
    let blob: Bytes = serde::from_value(Value::Bytes(vec![1, 2, 3])).unwrap();
    assert_eq!(blob, Bytes::from(vec![1, 2, 3]));
    let ints = Value::Seq(vec![Value::U64(4), Value::U64(5)]);
    assert_eq!(
        serde::from_value::<Bytes>(ints).unwrap(),
        Bytes::from(vec![4, 5])
    );
    // A tree owns its strings, so it has none to lend.
    assert!(serde::from_value::<&str>(Value::Str("tree".into())).is_err());

    let json = serde_json::to_string(&(String::from("jsön"), Bytes::from(vec![0, 255]))).unwrap();
    let (text, bytes): (String, Bytes) = serde_json::from_str(&json).unwrap();
    assert_eq!((text.as_str(), &bytes[..]), ("jsön", &[0, 255][..]));
    assert!(serde_json::from_str::<&str>("\"json\"").is_err());
}
