//! Durable failure recovery: the windowed word-frequency query running with
//! the log-structured `FileStore` checkpoint backend. A worker VM is killed
//! mid-stream and recovered from the on-disk checkpoint log, printing the
//! recovery time and the bytes written/replayed along the way.
//!
//! Run with: `cargo run --release --example durable_recovery`

use seep::runtime::{RuntimeConfig, StoreConfig};
use seep_bench::harness::WordCountHarness;

fn main() {
    let dir = std::env::temp_dir().join(format!("seep-durable-recovery-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    println!("Durable recovery with the FileStore checkpoint backend");
    println!("(log directory: {})\n", dir.display());

    let config = RuntimeConfig::default().with_store(StoreConfig::file(&dir));
    let mut harness = WordCountHarness::deploy(config, 2_000, 0);

    // Warm up across several checkpoint intervals: the first backup per
    // operator is a full checkpoint, later ones ship as incremental deltas.
    println!("driving 12 s of traffic at 500 fragments/s …");
    harness.run_for(12, 500);
    let words_before = harness.total_counted_words();
    let io_before = harness.handle.metrics().store_io("file");
    println!(
        "  checkpoints so far: {} full + {} incremental, {} bytes appended to the log",
        io_before.writes, io_before.incremental_writes, io_before.write_bytes
    );

    // Kill the stateful word counter's VM: its memory is gone; the backup
    // lives in the upstream VM's on-disk log.
    let victim = harness.counter_instance();
    println!("\nkilling worker {victim} mid-stream …");
    harness.handle.fail_operator(victim);
    let log_files: usize = walk_segments(&dir);
    println!("  on-disk log survives the failure: {log_files} segment file(s) present");

    // Recover from disk.
    let record = harness
        .handle
        .recover(victim, 1)
        .expect("recovery succeeds");
    let io_after = harness.handle.metrics().store_io("file");
    println!("\nrecovered in {:.2} ms", record.duration_ms());
    println!(
        "  tuples replayed from upstream buffers: {}",
        record.replayed_tuples
    );
    println!(
        "  checkpoint bytes read back from the log: {}",
        io_after.restore_bytes
    );

    // Tail traffic and verify correctness.
    harness.run_for(3, 500);
    let words_after_tail = harness.total_counted_words();
    println!(
        "\nwords counted: {} before failure, {} after recovery + 3 s of tail traffic ({})",
        words_before,
        words_after_tail,
        if words_after_tail >= words_before {
            "ok"
        } else {
            "MISMATCH"
        }
    );
    println!(
        "\nUnlike the in-memory backend, the FileStore log outlives any process: a full \
         restart can rebuild every operator's state by scanning the segments."
    );
    let _ = std::fs::remove_dir_all(&dir);
}

fn walk_segments(dir: &std::path::Path) -> usize {
    let mut count = 0;
    if let Ok(ops) = std::fs::read_dir(dir) {
        for op in ops.flatten() {
            if let Ok(files) = std::fs::read_dir(op.path()) {
                count += files
                    .flatten()
                    .filter(|f| f.file_name().to_string_lossy().starts_with("seg-"))
                    .count();
            }
        }
    }
    count
}
