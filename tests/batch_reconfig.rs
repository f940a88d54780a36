//! Reconfiguration × batching: every whole-operator plan kind (scale out,
//! N-way rebalance, consolidation, scale in) and VM-crash recovery run with
//! a batched data plane, triggered **mid-batch** — tuples injected but not
//! yet drained, so partial output batches are pending inside the workers
//! when the plan starts. The executor must flush those partials into the
//! channels before drain/pause/capture, keeping the final counts identical
//! to a per-tuple run that never reconfigured.

use seep::core::Key;
use seep::runtime::{RuntimeConfig, StoreConfig};
use seep_bench::harness::WordCountHarness;
use seep_cloud::VmPoolConfig;

/// Batch size used by the batched arms: large enough that a second's worth
/// of injections always leaves a partial batch pending.
const BATCH: usize = 64;

fn batched(config: RuntimeConfig) -> RuntimeConfig {
    config.with_batch_size(BATCH)
}

fn two_slot_config() -> RuntimeConfig {
    RuntimeConfig {
        pool: VmPoolConfig::default().with_slots_per_vm(2),
        ..RuntimeConfig::default()
    }
}

/// Drive the word-count query for 8 virtual seconds at 37 deterministic
/// two-word fragments per second (37 is coprime to the batch size, so the
/// source always holds a partial batch when `action` runs). `action` is
/// called after each second's injections and **before** the drain — exactly
/// the mid-batch moment.
fn drive(config: RuntimeConfig, mut action: impl FnMut(&mut WordCountHarness, u64)) -> u64 {
    let mut harness = WordCountHarness::deploy(config, 300, 0);
    let start = harness.handle.now_ms();
    let mut sequence = 0u64;
    for s in 0..8u64 {
        for _ in 0..37 {
            let sentence = format!("alpha{} beta{}", sequence % 29, (sequence * 3) % 31);
            let payload = bincode::serialize(&sentence).expect("fragment serialises");
            harness
                .handle
                .inject(harness.source, Key::from_str_key(&sentence), payload);
            sequence += 1;
        }
        action(&mut harness, s);
        harness.handle.advance_to(start + (s + 1) * 1_000);
        harness.handle.drain();
    }
    harness.total_counted_words()
}

/// The never-reconfigured per-tuple run every scenario must reproduce.
fn baseline(config: RuntimeConfig) -> u64 {
    drive(config, |_, _| {})
}

#[test]
fn batched_runs_match_per_tuple_baseline_without_reconfiguration() {
    let expected = baseline(RuntimeConfig::default());
    assert!(expected > 0);
    assert_eq!(baseline(batched(RuntimeConfig::default())), expected);
}

#[test]
fn scale_out_mid_batch_flushes_partials_and_matches_baseline() {
    let expected = baseline(RuntimeConfig::default());
    let counted = drive(batched(RuntimeConfig::default()), |harness, s| {
        if s == 2 {
            let target = harness.handle.partitions(harness.counter)[0];
            harness.handle.scale_out(target, 4).expect("scale out");
        }
    });
    assert_eq!(counted, expected);
}

#[test]
fn rebalance_mid_batch_flushes_partials_and_matches_baseline() {
    let expected = baseline(RuntimeConfig::default());
    let counted = drive(batched(RuntimeConfig::default()), |harness, s| {
        if s == 2 {
            let target = harness.handle.partitions(harness.counter)[0];
            harness.handle.scale_out(target, 4).expect("scale out");
        }
        if s == 5 {
            harness
                .handle
                .rebalance_operator(harness.counter)
                .expect("rebalance");
            assert_eq!(harness.handle.parallelism(harness.counter), 4);
        }
    });
    assert_eq!(counted, expected);
}

#[test]
fn consolidate_and_scale_in_mid_batch_match_baseline() {
    let expected = baseline(two_slot_config());
    let counted = drive(batched(two_slot_config()), |harness, s| {
        if s == 2 {
            let target = harness.handle.partitions(harness.counter)[0];
            harness.handle.scale_out(target, 4).expect("scale out");
        }
        if s == 4 {
            let outcome = harness
                .handle
                .consolidate(harness.counter)
                .expect("consolidate");
            assert_eq!(outcome.released_vms.len(), 2, "4 partitions on 2 VMs");
        }
        if s == 6 {
            let parts = harness.handle.partitions(harness.counter);
            harness
                .handle
                .scale_in(parts[0], parts[1])
                .expect("scale in");
            assert_eq!(harness.handle.parallelism(harness.counter), 3);
        }
    });
    assert_eq!(counted, expected);
}

#[test]
fn vm_crash_recovery_mid_batch_matches_baseline() {
    let expected = baseline(RuntimeConfig::default());
    let counted = drive(batched(RuntimeConfig::default()), |harness, s| {
        // Crash the counter's VM with this second's injections still
        // pending as a partial source batch, past the 5 s checkpoint
        // boundary so recovery restores a checkpoint and replays the rest.
        if s == 6 {
            let victim = harness.counter_instance();
            harness.handle.fail_operator(victim);
            harness.handle.recover(victim, 1).expect("recovery");
        }
    });
    assert_eq!(counted, expected);
}

#[test]
fn recovering_a_producer_of_partitioned_downstreams_matches_baseline() {
    // The splitter chain feeds two counter partitions, so each of its output
    // batches towards one partition interleaves on the shared output clock
    // with batches towards the other. It crashes past the 5 s checkpoint and
    // re-emits, in ONE replayed step, what it first emitted over two drains:
    // the re-emissions must carry the timestamps of the originals, or the
    // partitions' duplicate filters count words twice or drop new ones.
    let expected = baseline(RuntimeConfig::default());
    for threads in [1, 2] {
        let config = batched(RuntimeConfig::default()).with_worker_threads(threads);
        let counted = drive(config, |harness, s| {
            if s == 1 {
                let target = harness.handle.partitions(harness.counter)[0];
                harness.handle.scale_out(target, 2).expect("scale out");
            }
            if s == 6 {
                let victim = harness.handle.partitions(harness.splitter)[0];
                harness.handle.fail_operator(victim);
                harness.handle.recover(victim, 1).expect("recovery");
            }
        });
        assert_eq!(counted, expected, "worker_threads={threads}");
    }
}

#[test]
fn batched_consolidate_with_durable_backend_matches_baseline() {
    let dir = std::env::temp_dir().join(format!("seep-batch-reconfig-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let expected = baseline(two_slot_config());
    let durable = RuntimeConfig {
        store: StoreConfig::file(&dir),
        ..two_slot_config()
    };
    let counted = drive(batched(durable), |harness, s| {
        if s == 2 {
            let target = harness.handle.partitions(harness.counter)[0];
            harness.handle.scale_out(target, 4).expect("scale out");
        }
        if s == 5 {
            harness
                .handle
                .consolidate(harness.counter)
                .expect("consolidate");
        }
    });
    assert_eq!(counted, expected);
    let _ = std::fs::remove_dir_all(&dir);
}
