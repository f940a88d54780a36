//! Checkpoint-store backend comparison: the same word-count failure/recovery
//! scenario run against every `seep-store` backend (mem, file, file with
//! fsync, tiered), reporting recovery time and the store I/O each backend
//! paid — the honest version of the Fig. 11–15 recovery experiments once
//! durability is in the picture. `--smoke` also checks that a steady-state
//! round stores under a fifth of what the first, full checkpoint did.

use seep_bench::print_table;
use seep_bench::runtime_experiments::recovery_by_backend;

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (rate, warmup_s) = if smoke { (100, 9) } else { (500, 15) };
    let dir = std::env::temp_dir().join(format!("seep-store-backends-{}", std::process::id()));
    let rows = recovery_by_backend(rate, warmup_s, &dir);
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.backend.clone(),
                format!("{:.1}", r.recovery_ms),
                r.replayed.to_string(),
                r.write_bytes.to_string(),
                format!("{:.1}", r.write_us as f64 / 1_000.0),
                r.restore_bytes.to_string(),
                format!("{:.3}", r.mean_checkpoint_ms),
                r.full_checkpoint_bytes.to_string(),
                r.delta_bytes_per_round.to_string(),
                r.syncs.to_string(),
            ]
        })
        .collect();
    print_table(
        &format!(
            "Checkpoint-store backends — word-frequency query, rate {rate} tps, c=2s, \
             fail+recover"
        ),
        &[
            "backend",
            "recovery_ms",
            "replayed",
            "write_bytes",
            "write_ms_total",
            "restore_bytes",
            "mean_ckpt_ms",
            "full_ckpt_bytes",
            "delta_bytes",
            "syncs",
        ],
        &table,
    );
    println!(
        "\nmem keeps backups in VM memory (lost on VM failure of the backup host); \
         file pays disk writes per checkpoint but recovery survives process loss; \
         every backend takes a full checkpoint first and deltas of the changed keys after; \
         file+syncN trades the per-record fsync cost against at most N-1 records \
         lost to an OS crash (the crash scan truncates the unsynced tail); \
         tiered serves restores from memory while staying durable on disk"
    );
    let _ = std::fs::remove_dir_all(&dir);
    if smoke {
        for r in &rows {
            assert!(
                r.delta_bytes_per_round > 0
                    && r.delta_bytes_per_round * 5 < r.full_checkpoint_bytes,
                "{}: a steady-state round stored {} bytes, the full checkpoint {}",
                r.backend,
                r.delta_bytes_per_round,
                r.full_checkpoint_bytes
            );
        }
    }
}
