//! Fault-injection test proving checkpoint-store backend equivalence: the
//! same word-count recovery scenario run with `MemStore` and with
//! `FileStore` (including a process-visible on-disk log that survives the
//! simulated failure) produces identical final counts, and `FileStore`
//! recovers correctly from a log holding one full checkpoint plus several
//! incremental deltas.

use std::path::{Path, PathBuf};

use seep::core::Key;
use seep::runtime::{RuntimeConfig, StoreConfig};
use seep_bench::harness::WordCountHarness;

// The facade re-exports the store crate as `seep::store`.
use seep::store::{CheckpointStore, FileStore};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("seep-equivalence-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Drive the scenario: warm up, fail the counter mid-stream, recover, tail
/// traffic, return the final aggregated counts.
fn run_scenario(config: RuntimeConfig) -> u64 {
    let mut harness = WordCountHarness::deploy(config, 400, 0);
    harness.run_for(7, 40); // crosses the 5 s checkpoint boundary
    harness.fail_and_recover(1);
    harness.run_for(3, 40);
    harness.total_counted_words()
}

/// The scenario with a mid-stream kill: capture that the on-disk log exists
/// and survives while the victim VM is down.
fn run_file_scenario_checking_log(config: RuntimeConfig, base: &Path) -> u64 {
    let mut harness = WordCountHarness::deploy(config, 400, 0);
    harness.run_for(7, 40);
    // Kill the worker mid-stream (no recovery yet) and observe the log.
    let victim = harness.counter_instance();
    harness.handle.fail_operator(victim);
    let segments = find_segments(base);
    assert!(
        !segments.is_empty(),
        "the checkpoint log must be process-visible on disk while the VM is down"
    );
    assert!(
        segments.iter().all(|p| p.exists()),
        "segment files vanished with the failed VM"
    );
    // Now recover from disk and finish the run.
    harness
        .handle
        .recover(victim, 1)
        .expect("recovery succeeds");
    harness.run_for(3, 40);
    harness.total_counted_words()
}

fn find_segments(base: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let Ok(ops) = std::fs::read_dir(base) else {
        return out;
    };
    for op_dir in ops.flatten() {
        if let Ok(files) = std::fs::read_dir(op_dir.path()) {
            for f in files.flatten() {
                if f.file_name().to_string_lossy().starts_with("seg-") {
                    out.push(f.path());
                }
            }
        }
    }
    out
}

#[test]
fn mem_and_file_backends_produce_identical_final_counts() {
    let dir = temp_dir("mem-vs-file");
    let mem_counts = run_scenario(RuntimeConfig::default().with_store(StoreConfig::mem()));
    let file_counts = run_file_scenario_checking_log(
        RuntimeConfig::default().with_store(StoreConfig::file(&dir)),
        &dir,
    );
    assert!(mem_counts > 0);
    assert_eq!(
        mem_counts, file_counts,
        "backends diverged: mem={mem_counts} file={file_counts}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn tiered_backend_matches_mem_backend() {
    let dir = temp_dir("mem-vs-tiered");
    let mem_counts = run_scenario(RuntimeConfig::default().with_store(StoreConfig::mem()));
    let tiered_counts =
        run_scenario(RuntimeConfig::default().with_store(StoreConfig::tiered(&dir)));
    assert_eq!(mem_counts, tiered_counts);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn filestore_recovers_from_log_with_full_plus_incremental_deltas() {
    let dir = temp_dir("inc-log");
    let config = RuntimeConfig::default().with_store(StoreConfig::file(&dir));
    let counter_instance;
    let words_at_last_checkpoint;
    {
        let mut harness = WordCountHarness::deploy(config, 400, 0);
        // Cross three checkpoint boundaries (c = 5 s): first backup is a
        // full checkpoint, the following ones ship as deltas.
        harness.run_for(16, 30);
        counter_instance = harness.counter_instance();
        let io = harness.handle.metrics().store_io("file");
        assert!(io.writes >= 1, "expected at least one full backup: {io:?}");
        assert!(
            io.incremental_writes >= 2,
            "expected >= 2 incremental deltas: {io:?}"
        );
        // Take one more checkpoint with the pipeline fully drained so the
        // chain's tip reflects every processed tuple, then "crash".
        harness.handle.drain();
        let now = harness.handle.now_ms();
        harness.handle.advance_to(now + 5_000);
        words_at_last_checkpoint = harness.total_counted_words();
        // Simulated process crash: the runtime (and every in-memory store
        // handle) is dropped; only the log on disk remains.
    }
    // Recover by scanning the surviving logs with fresh FileStores: exactly
    // one upstream VM's log holds the counter's checkpoint chain.
    let segments = find_segments(&dir);
    assert!(!segments.is_empty(), "log must survive the process");
    let mut op_dirs: Vec<PathBuf> = segments
        .iter()
        .map(|p| p.parent().unwrap().to_path_buf())
        .collect();
    op_dirs.sort();
    op_dirs.dedup();
    let restored = op_dirs
        .iter()
        .find_map(|op_dir| {
            let store = FileStore::open_dir(op_dir).expect("log scan succeeds");
            store.latest(counter_instance).ok()
        })
        .expect("counter checkpoint recovered from full+delta chain");
    // The restored processing state carries the counts as of the last
    // checkpoint; with the pipeline drained at every virtual second, that is
    // exactly the live total when the process died.
    let restored_words: u64 = {
        let state = &restored.processing;
        state
            .iter()
            .filter(|(k, _)| *k != Key(u64::MAX))
            .filter_map(|(k, _)| {
                state
                    .get_decoded::<seep::operators::word_count::WordEntry>(k)
                    .ok()
                    .flatten()
                    .map(|e| e.count)
            })
            .sum()
    };
    assert_eq!(
        restored_words, words_at_last_checkpoint,
        "state restored from the delta chain must match the checkpointed counts"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
