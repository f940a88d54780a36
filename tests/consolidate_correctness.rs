//! Integration tests for the placement layer's whole-operator plans: an
//! N-way rebalance re-splits all π partitions in ONE `ReconfigPlan`, and a
//! consolidation packs light partitions onto shared VM slots and releases
//! the emptied VMs — in both cases the counts and sink deliveries must be
//! identical to a run that never reconfigured (no lost tuples, no
//! duplicates), and consolidation must provably stop billing on the
//! released VMs (mirroring `scale_in_correctness.rs`).

use seep::runtime::{JournalKind, RuntimeConfig, StoreConfig};
use seep_bench::harness::WordCountHarness;
use seep_cloud::VmPoolConfig;

fn two_slot_config() -> RuntimeConfig {
    RuntimeConfig {
        pool: VmPoolConfig::default().with_slots_per_vm(2),
        ..RuntimeConfig::default()
    }
}

/// Drive the word-count query for `seconds` at `rate` with no
/// reconfiguration: the equivalence baseline.
fn baseline(config: RuntimeConfig, seconds: u64, rate: u64) -> u64 {
    let mut harness = WordCountHarness::deploy(config, 300, 0);
    harness.run_for(seconds, rate);
    harness.total_counted_words()
}

#[test]
fn four_partition_rebalance_is_one_plan_and_matches_baseline() {
    let expected = baseline(RuntimeConfig::default(), 8, 40);

    let mut harness = WordCountHarness::deploy(RuntimeConfig::default(), 300, 0);
    for s in 0..8u64 {
        harness.run_for(1, 40);
        if s == 2 {
            let target = harness.handle.partitions(harness.counter)[0];
            harness.handle.scale_out(target, 4).expect("scale out");
            harness.handle.drain();
        }
        if s == 5 {
            let vms_before = harness.handle.vm_count();
            let outcome = harness
                .handle
                .rebalance_operator(harness.counter)
                .expect("N-way rebalance");
            harness.handle.drain();
            assert_eq!(
                outcome.new_operators.len(),
                4,
                "all four partitions re-split in one plan"
            );
            assert_eq!(harness.handle.vm_count(), vms_before, "no VM change");
            assert_eq!(harness.handle.parallelism(harness.counter), 4);
        }
    }
    assert_eq!(
        harness.total_counted_words(),
        expected,
        "counts after the 4-way rebalance must match the never-reconfigured run"
    );
    // Exactly one rebalance record covering all four partitions, with the
    // pooled sample's post-split imbalance prediction in the plan timing.
    let rebalances = harness
        .handle
        .metrics()
        .reconfigs_of(JournalKind::Rebalance);
    assert_eq!(rebalances.len(), 1);
    assert_eq!(rebalances[0].parallelism, 4);
    assert!(rebalances[0].timing.total_us > 0);
    assert!(
        rebalances[0].timing.post_split_imbalance > 0.0,
        "post-split imbalance must be reported in ReconfigTiming"
    );
}

#[test]
fn consolidate_matches_baseline_and_stops_billing_on_released_vms() {
    let expected = baseline(two_slot_config(), 8, 40);

    let mut harness = WordCountHarness::deploy(two_slot_config(), 300, 0);
    let mut released = Vec::new();
    for s in 0..8u64 {
        harness.run_for(1, 40);
        if s == 2 {
            let target = harness.handle.partitions(harness.counter)[0];
            harness.handle.scale_out(target, 4).expect("scale out");
            harness.handle.drain();
        }
        if s == 5 {
            let vms_before = harness.handle.vm_count();
            let outcome = harness
                .handle
                .consolidate(harness.counter)
                .expect("consolidate");
            harness.handle.drain();
            assert_eq!(outcome.new_operators.len(), 4, "parallelism kept");
            assert_eq!(outcome.released_vms.len(), 2, "4 partitions on 2 VMs");
            assert_eq!(harness.handle.vm_count(), vms_before - 2);
            released = outcome.released_vms.clone();
        }
    }
    // Equivalence: a subsequent drain already happened inside run_for; the
    // totals must match the never-reconfigured run exactly.
    assert_eq!(
        harness.total_counted_words(),
        expected,
        "counts after the consolidation must match the never-reconfigured run"
    );
    assert_eq!(harness.handle.parallelism(harness.counter), 4);

    // Billing provably stops on every released VM: terminated timestamps are
    // set and the provider's total only grows on the survivors' account.
    assert_eq!(released.len(), 2);
    for vm in &released {
        let vm = harness.handle.provider().vm(*vm).expect("on the books");
        assert!(!vm.is_running());
        assert!(vm.terminated_at_ms.is_some());
    }
    let now = harness.handle.now_ms();
    let cost_now = harness.handle.provider().total_cost(now);
    let cost_later = harness.handle.provider().total_cost(now + 3_600_000);
    let hourly = seep_cloud::VmSpec::small().hourly_cost;
    let still_running = harness.handle.vm_count() as f64;
    assert!(
        (cost_later - cost_now - still_running * hourly).abs() < 1e-6,
        "only the surviving VMs keep billing"
    );

    // New traffic still routes correctly to the packed partitions.
    let before = harness.total_counted_words();
    harness.run_for(1, 40);
    assert!(harness.total_counted_words() > before);
}

#[test]
fn consolidate_with_durable_backend_preserves_counts() {
    let dir = std::env::temp_dir().join(format!("seep-consolidate-e2e-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let durable = RuntimeConfig {
        store: StoreConfig::file(&dir),
        ..two_slot_config()
    };
    let expected = baseline(two_slot_config(), 6, 30);

    let mut harness = WordCountHarness::deploy(durable, 300, 0);
    for s in 0..6u64 {
        harness.run_for(1, 30);
        if s == 1 {
            let target = harness.handle.partitions(harness.counter)[0];
            harness.handle.scale_out(target, 4).expect("scale out");
            harness.handle.drain();
        }
        if s == 3 {
            harness
                .handle
                .consolidate(harness.counter)
                .expect("consolidate");
            harness.handle.drain();
        }
    }
    assert_eq!(harness.total_counted_words(), expected);
    // The packed partitions' state went through the on-disk log: the
    // consolidation read the four checkpoints back and re-stored the parts.
    let io = harness.handle.metrics().store_io("file");
    assert!(io.restore_bytes > 0, "consolidation restored from the log");
    assert!(io.write_bytes > 0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Consolidation composes with the rest of the elasticity machinery: after
/// packing, a merge of two co-resident partitions vacates a slot without
/// killing the shared VM, and a failure of the shared VM takes both
/// partitions down and recovers cleanly.
#[test]
fn consolidated_partitions_merge_and_recover() {
    let mut harness = WordCountHarness::deploy(two_slot_config(), 300, 0);
    harness.run_for(3, 40);
    let target = harness.handle.partitions(harness.counter)[0];
    harness.handle.scale_out(target, 4).expect("scale out");
    harness.handle.drain();
    harness.run_for(1, 40);
    harness
        .handle
        .consolidate(harness.counter)
        .expect("consolidate");
    harness.handle.drain();
    let words_before = harness.total_counted_words();

    // Merge the first adjacent pair: they share a VM after the packing, so
    // no VM is released — only a slot opens up.
    let vms_before = harness.handle.vm_count();
    let parts = harness.handle.partitions(harness.counter);
    let outcome = harness
        .handle
        .scale_in(parts[0], parts[1])
        .expect("scale in");
    harness.handle.drain();
    assert_eq!(harness.handle.parallelism(harness.counter), 3);
    assert!(
        outcome.released_vms.is_empty(),
        "merging co-residents vacates a slot, not a VM"
    );
    assert_eq!(harness.handle.vm_count(), vms_before);
    assert_eq!(harness.total_counted_words(), words_before);

    // Crash the VM hosting the merged operator and recover: counts survive.
    let merged = outcome.new_operators[0];
    harness.handle.fail_operator(merged);
    harness.handle.recover(merged, 1).expect("recovery");
    harness.handle.drain();
    assert_eq!(harness.total_counted_words(), words_before);
}
