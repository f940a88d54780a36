//! Recovery and reconfiguration of a pre-populated word count whose backups
//! live in a `FileStore` that fsyncs every record: the counter fails and is
//! recovered serially (π = 1), then scales out and back in, and its per-word
//! totals must equal those of a run that never failed or reconfigured.
//! Reopened from disk, the log must verify record by record, and the backup
//! written for the recovered instance must be the state it was restored
//! with.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use seep::core::{Checkpoint, Key, OperatorId};
use seep::operators::word_count::WordEntry;
use seep::runtime::{RuntimeConfig, StoreConfig};
use seep::store::{CheckpointStore, FileStore};
use seep_bench::harness::WordCountHarness;

const VOCABULARY: usize = 400;
const PREPOPULATED: usize = 2_000;
const RATE: u64 = 40;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("seep-filestore-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn deploy(store: StoreConfig) -> WordCountHarness {
    let config = RuntimeConfig::default().with_store(store);
    WordCountHarness::deploy(config, VOCABULARY, PREPOPULATED)
}

/// Count per word key across every partition of the counter.
fn per_word_totals(harness: &WordCountHarness) -> BTreeMap<Key, u64> {
    let mut totals = BTreeMap::new();
    for id in harness.handle.partitions(harness.counter) {
        harness.handle.with_operator(id, |op| {
            let state = op.get_processing_state();
            for (key, _) in state.iter().filter(|(k, _)| *k != Key(u64::MAX)) {
                if let Ok(Some(entry)) = state.get_decoded::<WordEntry>(key) {
                    *totals.entry(key).or_insert(0) += entry.count;
                }
            }
        });
    }
    totals
}

/// The per-backend store directories under `base`, each reopened from disk.
fn reopen_all(base: &Path) -> Vec<FileStore> {
    let mut dirs: Vec<PathBuf> = std::fs::read_dir(base)
        .expect("store directory exists")
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.is_dir())
        .collect();
    dirs.sort();
    dirs.iter()
        .map(|dir| FileStore::open_dir(dir).expect("log scan succeeds"))
        .collect()
}

/// The latest checkpoint of `owner`, read from the one store under `base`
/// that holds it.
fn latest_on_disk(base: &Path, owner: OperatorId) -> Checkpoint {
    let mut found: Vec<Checkpoint> = reopen_all(base)
        .iter()
        .filter_map(|store| store.latest(owner).ok())
        .collect();
    assert_eq!(found.len(), 1, "one store holds the backup of {owner}");
    found.remove(0)
}

/// Bytes of every segment file a store's directory holds.
fn bytes_on_disk(store: &FileStore) -> u64 {
    std::fs::read_dir(store.dir())
        .expect("segment directory")
        .flatten()
        .filter(|e| e.file_name().to_string_lossy().starts_with("seg-"))
        .map(|e| e.metadata().expect("segment metadata").len())
        .sum()
}

#[test]
fn filestore_recovery_and_reconfiguration_match_the_never_failed_run() {
    let baseline_dir = temp_dir("baseline");
    let mut baseline = deploy(StoreConfig::file(&baseline_dir).with_fsync_every(1));
    baseline.run_for(16, RATE);
    let expected = per_word_totals(&baseline);
    assert!(expected.len() > PREPOPULATED, "the run counted real words");

    let dir = temp_dir("recovered");
    let mut harness = deploy(StoreConfig::file(&dir).with_fsync_every(1));
    // Cross the 5 s checkpoint boundary so the counter has a backup on disk.
    harness.run_for(7, RATE);
    let victim = harness.counter_instance();
    harness.handle.fail_operator(victim);
    // What recovery restores: the failed instance's backup (its last full
    // record plus any deltas), read here from a fresh scan of the log.
    let restored = latest_on_disk(&dir, victim);
    harness
        .handle
        .recover(victim, 1)
        .expect("recovery succeeds");
    let recovered: OperatorId = harness.counter_instance();
    assert_ne!(recovered, victim);
    assert!(restored.processing.len() >= PREPOPULATED);
    // The commit stored the restored state as the new instance's backup.
    let backup = latest_on_disk(&dir, recovered);
    assert_eq!(backup.processing, restored.processing);
    assert_eq!(backup.buffer, restored.buffer);

    harness.run_for(3, RATE);
    harness
        .handle
        .scale_out(recovered, 2)
        .expect("scale out succeeds");
    harness.run_for(3, RATE);
    let parts = harness.handle.partitions(harness.counter);
    assert_eq!(parts.len(), 2);
    harness
        .handle
        .scale_in(parts[0], parts[1])
        .expect("scale in succeeds");
    harness.run_for(3, RATE);
    assert_eq!(harness.handle.parallelism(harness.counter), 1);
    assert_eq!(per_word_totals(&harness), expected);

    // The log reopens in full: the scan stops at the first frame that fails
    // its CRC, so it must consume every byte on disk, and every live owner's
    // chain reads back through its own CRC checks.
    let stores = reopen_all(&dir);
    assert!(!stores.is_empty());
    for store in &stores {
        assert_eq!(store.log_bytes(), bytes_on_disk(store), "{:?}", store.dir());
        for owner in store.owners() {
            store.latest(owner).expect("live record verifies");
        }
    }
    let _ = std::fs::remove_dir_all(&baseline_dir);
    let _ = std::fs::remove_dir_all(&dir);
}
