//! Integration test: elastic scale out followed by scale in preserves query
//! semantics — after the round trip the merged operator's counts equal a run
//! that never scaled at all (no lost tuples, no duplicates), one VM has been
//! handed back to the provider, and the billing ledger stops charging for it.

use seep::runtime::{JournalKind, RecoveryStrategy, RuntimeConfig, StoreConfig};
use seep_bench::harness::WordCountHarness;

const SM: RecoveryStrategy = RecoveryStrategy::StateManagement;

/// Drive the word-count query under `strategy` for `seconds` at `rate`,
/// optionally splitting the counter at `scale_out_at` and merging it back at
/// `scale_in_at`.
fn run_round_trip(
    config: RuntimeConfig,
    strategy: RecoveryStrategy,
    seconds: u64,
    rate: u64,
    scale_out_at: Option<u64>,
    scale_in_at: Option<u64>,
) -> (u64, WordCountHarness) {
    let mut harness = WordCountHarness::deploy(config.with_strategy(strategy), 300, 0);
    for s in 0..seconds {
        harness.run_for(1, rate);
        if scale_out_at == Some(s) {
            let target = harness.handle.partitions(harness.counter)[0];
            harness.handle.scale_out(target, 2).expect("scale out");
            harness.handle.drain();
        }
        if scale_in_at == Some(s) {
            let parts = harness.handle.partitions(harness.counter);
            assert_eq!(parts.len(), 2, "round trip needs two partitions");
            harness
                .handle
                .scale_in(parts[0], parts[1])
                .expect("scale in");
            harness.handle.drain();
        }
    }
    (harness.total_counted_words(), harness)
}

/// Under R+SM, UB and SR alike: the live partitions hand their state over
/// at plan time, whatever the strategy keeps for replay. The merged
/// partition then fails and recovers to the same counts: under R+SM from
/// the backup the plan stored, under UB and SR, which keep no backups, from
/// empty state and a full replay. A backup written under SR would be
/// counted twice, since source replay re-sends the source's whole buffer
/// under fresh timestamps.
#[test]
fn scale_out_then_scale_in_matches_the_never_scaled_run() {
    for strategy in [
        SM,
        RecoveryStrategy::UpstreamBackup,
        RecoveryStrategy::SourceReplay,
    ] {
        let (baseline, _) = run_round_trip(RuntimeConfig::default(), strategy, 8, 40, None, None);
        let (round_trip, mut harness) =
            run_round_trip(RuntimeConfig::default(), strategy, 8, 40, Some(2), Some(5));
        assert!(baseline > 0);
        assert_eq!(
            round_trip, baseline,
            "{strategy:?}: counts after the round trip must match the never-scaled run"
        );
        assert_eq!(harness.handle.parallelism(harness.counter), 1);
        assert_eq!(harness.handle.metrics().scale_outs().len(), 1);
        assert_eq!(harness.handle.metrics().scale_ins().len(), 1);

        let merged = harness.handle.partitions(harness.counter)[0];
        harness.handle.fail_operator(merged);
        harness.handle.recover(merged, 1).expect("recovery");
        harness.handle.drain();
        assert_eq!(
            harness.total_counted_words(),
            baseline,
            "{strategy:?}: counts after recovering the merged partition"
        );
    }
}

#[test]
fn scale_in_releases_the_vm_and_stops_billing() {
    let mut harness = WordCountHarness::deploy(RuntimeConfig::default(), 300, 0);
    harness.run_for(3, 40);
    let target = harness.handle.partitions(harness.counter)[0];
    harness.handle.scale_out(target, 2).expect("scale out");
    harness.handle.drain();
    harness.run_for(2, 40);

    let vms_before = harness.handle.vm_count();
    let parts = harness.handle.partitions(harness.counter);
    let outcome = harness
        .handle
        .scale_in(parts[0], parts[1])
        .expect("scale in");
    assert_eq!(harness.handle.vm_count(), vms_before - 1);

    // The released VM stops accruing cost: its terminated timestamp is set
    // and the provider's total no longer grows on its account.
    let released_vm = *outcome
        .released_vms
        .first()
        .expect("a single-slot merge empties the victim's VM");
    let vm = harness
        .handle
        .provider()
        .vm(released_vm)
        .expect("released VM still on the books");
    assert!(!vm.is_running());
    assert!(vm.terminated_at_ms.is_some());
    let now = harness.handle.now_ms();
    let cost_now = harness.handle.provider().total_cost(now);
    let cost_later = harness.handle.provider().total_cost(now + 3_600_000);
    let hourly = seep_cloud::VmSpec::small().hourly_cost;
    let still_running = harness.handle.vm_count() as f64;
    assert!(
        (cost_later - cost_now - still_running * hourly).abs() < 1e-6,
        "only the surviving VMs keep billing"
    );
}

#[test]
fn round_trip_with_durable_backend_preserves_counts() {
    let dir = std::env::temp_dir().join(format!("seep-scale-in-e2e-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let durable = RuntimeConfig::default().with_store(StoreConfig::file(&dir));
    let (baseline, _) = run_round_trip(RuntimeConfig::default(), SM, 6, 30, None, None);
    let (round_trip, mut harness) = run_round_trip(durable, SM, 6, 30, Some(1), Some(4));
    assert_eq!(round_trip, baseline);
    // The merged operator's backup lives in the on-disk log: failing it and
    // recovering reads that backup back, and the counts come back whole.
    let merged = harness.handle.partitions(harness.counter)[0];
    harness.handle.fail_operator(merged);
    harness.handle.recover(merged, 1).expect("recovery");
    harness.handle.drain();
    assert_eq!(harness.total_counted_words(), baseline);
    let io = harness.handle.metrics().store_io("file");
    assert!(io.restore_bytes > 0, "recovery restored from the log");
    assert!(io.write_bytes > 0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The skewed-split round trip: even-split → rebalance (the key boundary is
/// re-drawn from the sampled key distribution, both VMs reused) → merge back
/// to one partition. The counts must equal the never-scaled run at every
/// step — a rebalance moves state between partitions without losing or
/// duplicating any of it — and the VM count must be unchanged by the
/// rebalance itself.
#[test]
fn even_split_rebalance_merge_round_trip_keeps_counts() {
    let (baseline, _) = run_round_trip(RuntimeConfig::default(), SM, 8, 40, None, None);

    let mut harness = WordCountHarness::deploy(RuntimeConfig::default(), 300, 0);
    for s in 0..8u64 {
        harness.run_for(1, 40);
        if s == 2 {
            let target = harness.handle.partitions(harness.counter)[0];
            harness.handle.scale_out(target, 2).expect("scale out");
            harness.handle.drain();
        }
        if s == 4 {
            let vms_before = harness.handle.vm_count();
            let outcome = harness
                .handle
                .rebalance_operator(harness.counter)
                .expect("rebalance");
            harness.handle.drain();
            assert_eq!(outcome.new_operators.len(), 2);
            assert_eq!(
                harness.handle.vm_count(),
                vms_before,
                "a rebalance neither acquires nor releases VMs"
            );
            assert_eq!(harness.handle.parallelism(harness.counter), 2);
        }
        if s == 6 {
            let parts = harness.handle.partitions(harness.counter);
            harness
                .handle
                .scale_in(parts[0], parts[1])
                .expect("scale in");
            harness.handle.drain();
        }
    }
    assert_eq!(
        harness.total_counted_words(),
        baseline,
        "counts after the even-split → rebalance → merge round trip must \
         match the never-scaled run"
    );
    assert_eq!(harness.handle.parallelism(harness.counter), 1);
    assert_eq!(harness.handle.metrics().scale_outs().len(), 1);
    assert_eq!(harness.handle.metrics().scale_ins().len(), 1);
    // The rebalance record carries the plan's split decision and timing.
    let rebalances = harness
        .handle
        .metrics()
        .reconfigs_of(JournalKind::Rebalance);
    assert_eq!(rebalances.len(), 1);
    let record = &rebalances[0];
    assert_eq!(record.parallelism, 2);
    assert!(record.timing.total_us > 0);
}

/// Regression: the merged checkpoint stored as the survivor's initial backup
/// must carry the merged emit clock. If the merged operator's VM fails
/// *before its first periodic checkpoint*, serial recovery resets the shared
/// logical clock from that backup — a zero clock would make the recovered
/// operator re-issue timestamps the downstream duplicate filters have
/// already seen, silently discarding genuinely new output.
#[test]
fn merged_backup_failing_before_next_checkpoint_recovers_with_live_clock() {
    let mut harness = WordCountHarness::deploy(RuntimeConfig::default(), 300, 0);
    harness.run_for(3, 40);
    let target = harness.handle.partitions(harness.counter)[0];
    harness.handle.scale_out(target, 2).expect("scale out");
    harness.handle.drain();
    harness.run_for(2, 40);

    let parts = harness.handle.partitions(harness.counter);
    harness
        .handle
        .scale_in(parts[0], parts[1])
        .expect("scale in");
    harness.handle.drain();
    let counted_before = harness.total_counted_words();

    // Fail the merged operator immediately — its only backup is the merged
    // checkpoint stored during the scale in — and recover serially.
    let merged = harness.handle.partitions(harness.counter)[0];
    harness.handle.fail_operator(merged);
    harness.handle.recover(merged, 1).expect("recovery");
    assert_eq!(harness.total_counted_words(), counted_before);

    // New traffic after the recovery must be counted: the reset clock must
    // not collide with timestamps the sink's duplicate filter already saw.
    harness.run_for(2, 40);
    assert!(
        harness.total_counted_words() > counted_before,
        "post-recovery output must not be dropped as duplicates"
    );
}

#[test]
fn repeated_round_trips_keep_counts_stable() {
    let mut harness = WordCountHarness::deploy(RuntimeConfig::default(), 300, 0);
    let mut expected = None;
    for _ in 0..3 {
        harness.run_for(2, 25);
        let target = harness.handle.partitions(harness.counter)[0];
        harness.handle.scale_out(target, 2).expect("scale out");
        harness.handle.drain();
        harness.run_for(1, 25);
        let parts = harness.handle.partitions(harness.counter);
        harness
            .handle
            .scale_in(parts[0], parts[1])
            .expect("scale in");
        harness.handle.drain();
        // Totals only ever grow by the injected tuples; a merge never loses
        // or duplicates state across iterations.
        let total = harness.total_counted_words();
        if let Some(prev) = expected {
            assert!(total > prev, "counts keep growing ({prev} -> {total})");
        }
        expected = Some(total);
    }
    assert_eq!(harness.handle.parallelism(harness.counter), 1);
    assert_eq!(harness.handle.metrics().scale_ins().len(), 3);
}
