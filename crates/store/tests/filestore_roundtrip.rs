//! Property tests: a checkpoint serialised into the `FileStore` log and
//! restored (directly, after a reopen, and through an incremental delta
//! chain) is always identical to the original.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use proptest::prelude::*;

use seep_core::checkpoint::{Checkpoint, IncrementalCheckpoint};
use seep_core::state::{BufferState, ProcessingState};
use seep_core::tuple::{Key, StreamId, Tuple};
use seep_core::OperatorId;
use seep_store::{CheckpointStore, FileStore};

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

fn fresh_dir() -> PathBuf {
    let n = DIR_SEQ.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("seep-filestore-prop-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn checkpoint_from(keys: &[u64], seq: u64, buffered: usize) -> Checkpoint {
    let mut state = ProcessingState::empty();
    for &k in keys {
        state.insert(Key(k), vec![(k & 0xff) as u8; (k % 17 + 1) as usize]);
    }
    state.advance_ts(StreamId(0), seq * 100);
    let mut buffer = BufferState::new();
    for i in 0..buffered {
        buffer.push(
            OperatorId::new(99),
            Tuple::new(i as u64 + 1, Key(i as u64), vec![i as u8]),
        );
    }
    Checkpoint::new(OperatorId::new(7), seq, state, buffer).with_emit_clock(seq * 7)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Full checkpoint: put → latest, and put → reopen (log scan) → latest.
    #[test]
    fn full_checkpoint_roundtrips_through_the_log(
        keys in proptest::collection::btree_set(0u64..100_000, 0..120),
        seq in 1u64..1_000,
        buffered in 0usize..20,
    ) {
        let keys: Vec<u64> = keys.into_iter().collect();
        let cp = checkpoint_from(&keys, seq, buffered);
        let dir = fresh_dir();
        {
            let store = FileStore::open_dir(&dir).unwrap();
            store.put(OperatorId::new(7), cp.clone()).unwrap();
            prop_assert_eq!(store.latest(OperatorId::new(7)).unwrap(), cp.clone());
        }
        // Crash-restart: rebuild the index by scanning the log.
        let store = FileStore::open_dir(&dir).unwrap();
        let restored = store.latest(OperatorId::new(7)).unwrap();
        prop_assert_eq!(restored.processing, cp.processing);
        prop_assert_eq!(restored.buffer, cp.buffer);
        prop_assert_eq!(restored.meta, cp.meta);
        prop_assert_eq!(restored.emit_clock, cp.emit_clock);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Incremental chain: base + random mutations shipped as deltas restore
    /// to exactly the mutated state, before and after a reopen.
    #[test]
    fn incremental_chain_roundtrips_through_the_log(
        base_keys in proptest::collection::btree_set(0u64..5_000, 1..80),
        added in proptest::collection::btree_set(5_000u64..10_000, 0..40),
        removed_picks in proptest::collection::vec(0usize..80, 0..20),
        steps in 1u64..4,
    ) {
        let base_keys: Vec<u64> = base_keys.into_iter().collect();
        let base = checkpoint_from(&base_keys, 1, 3);
        let dir = fresh_dir();
        let store = FileStore::open_dir(&dir).unwrap();
        store.put(OperatorId::new(7), base.clone()).unwrap();

        // Apply `steps` deltas, each adding some keys and removing others.
        let added: Vec<u64> = added.into_iter().collect();
        let mut prev = base;
        for step in 0..steps {
            let mut next = prev.clone();
            next.meta.sequence = prev.meta.sequence + 1;
            for (i, &k) in added.iter().enumerate() {
                if i as u64 % steps == step {
                    next.processing.insert(Key(k), vec![(step & 0xff) as u8; 9]);
                }
            }
            for &pick in &removed_picks {
                if pick as u64 % steps == step {
                    if let Some(&k) = base_keys.get(pick) {
                        next.processing.remove(Key(k));
                    }
                }
            }
            next.processing.advance_ts(StreamId(0), 100 + step * 10);
            let inc = IncrementalCheckpoint::diff(&prev, &next);
            store.apply_incremental(OperatorId::new(7), &inc).unwrap();
            prop_assert_eq!(
                store.latest(OperatorId::new(7)).unwrap().processing.clone(),
                next.processing.clone()
            );
            prev = next;
        }
        drop(store);

        // Reopen: the full record plus the delta chain replay to the same state.
        let store = FileStore::open_dir(&dir).unwrap();
        let restored = store.latest(OperatorId::new(7)).unwrap();
        prop_assert_eq!(restored.processing, prev.processing);
        prop_assert_eq!(restored.meta.sequence, prev.meta.sequence);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Key sampling through a `FileStore` delta chain: `latest` materialises the
/// full record plus every applied increment before sampling, so keys added
/// (or fattened) by deltas are visible to distribution-guided splits.
#[test]
fn sample_keys_sees_keys_added_by_the_delta_chain() {
    let dir = fresh_dir();
    let store = FileStore::open_dir(&dir).unwrap();
    let owner = OperatorId::new(7);
    let base = checkpoint_from(&[1, 2, 3], 1, 0);
    store.put(owner, base.clone()).unwrap();

    // A delta adds a hot key that dwarfs the base entries.
    let mut next = base.clone();
    next.meta.sequence = 2;
    next.processing.insert(Key(500), vec![0u8; 2_000]);
    let inc = IncrementalCheckpoint::diff(&base, &next);
    store.apply_incremental(owner, &inc).unwrap();

    let sample = store.latest(owner).unwrap().sample_keys(64);
    let hot = sample.iter().filter(|k| **k == Key(500)).count();
    assert!(hot > 0, "delta-added key missing from the sample");
    assert!(
        hot > sample.len() / 2,
        "hot delta key must dominate the weighted sample ({hot}/{})",
        sample.len()
    );
    // The base keys are still represented.
    for k in [1u64, 2, 3] {
        assert!(sample.contains(&Key(k)), "base key {k} missing");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
