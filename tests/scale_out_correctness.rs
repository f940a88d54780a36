//! Integration test: dynamic scale out of the stateful word counter preserves
//! query semantics — the counts across the partitioned operators always equal
//! the counts of an unpartitioned run, no matter when and how often the
//! operator is scaled out.

use proptest::prelude::*;
use seep::core::Key;
use seep::runtime::{RecoveryStrategy, RuntimeConfig};
use seep_bench::harness::WordCountHarness;

/// R+SM, UB and SR.
const STRATEGIES: [RecoveryStrategy; 3] = [
    RecoveryStrategy::StateManagement,
    RecoveryStrategy::UpstreamBackup,
    RecoveryStrategy::SourceReplay,
];

fn run_with_scale_outs(
    strategy: RecoveryStrategy,
    seconds: u64,
    rate: u64,
    scale_at: &[u64],
) -> (u64, usize) {
    let config = RuntimeConfig::default().with_strategy(strategy);
    let mut harness = WordCountHarness::deploy(config, 300, 0);
    let mut done = 0usize;
    for s in 0..seconds {
        harness.run_for(1, rate);
        if scale_at.contains(&s) {
            // Scale out the first partition of the counter by one extra VM.
            let target = harness.handle.partitions(harness.counter)[0];
            harness.handle.scale_out(target, 2).expect("scale out");
            harness.handle.drain();
            done += 1;
        }
    }
    (harness.total_counted_words(), done)
}

/// Under every strategy: a live target hands its state over at plan time,
/// so nothing depends on what the strategy keeps for replay — under SR no
/// intermediate buffer exists at all.
#[test]
fn single_scale_out_preserves_totals() {
    for strategy in STRATEGIES {
        let (baseline, _) = run_with_scale_outs(strategy, 6, 40, &[]);
        let (scaled, done) = run_with_scale_outs(strategy, 6, 40, &[3]);
        assert_eq!(done, 1);
        assert_eq!(baseline, scaled, "{strategy:?}");
        assert!(baseline > 0);
    }
}

/// Inject `fragments` sentence fragments without draining, then scale the
/// splitter chain out `scale_outs` times while its output still waits in
/// the counter's inbound channel, as when the scaling policy fires inside a
/// report. Returns the counted words and each plan's re-sent tuples.
fn scale_splitter_before_the_counter_drains(
    fragments: u64,
    scale_outs: usize,
) -> (u64, Vec<usize>) {
    let mut harness = WordCountHarness::deploy(RuntimeConfig::default(), 300, 0);
    for i in 0..fragments {
        let fragment = format!("word{} word{} word{}", i % 7, i % 11, i % 13);
        let payload = bincode::serialize(&fragment).expect("fragment serialises");
        harness
            .handle
            .inject(harness.source, Key::from_u64(i), payload);
    }
    let mut replayed = Vec::new();
    for _ in 0..scale_outs {
        let target = harness.handle.partitions(harness.splitter)[0];
        let outcome = harness.handle.scale_out(target, 2).expect("scale out");
        replayed.push(outcome.replayed_tuples);
    }
    harness.handle.drain();
    (harness.total_counted_words(), replayed)
}

/// A live plan re-sends nothing: the drained splitter already sent its
/// output to the counter, so its new partitions must not send it again.
/// Re-sending it queued a second copy behind the first in the counter's
/// bounded channel, and back-to-back plans filled it and wedged the drain.
#[test]
fn live_scale_outs_send_each_output_once() {
    let (baseline, _) = scale_splitter_before_the_counter_drains(500, 0);
    let (scaled, replayed) = scale_splitter_before_the_counter_drains(500, 3);
    assert_eq!(baseline, 1_500);
    assert_eq!(scaled, baseline);
    assert_eq!(replayed, vec![0, 0, 0], "tuples re-sent by each live plan");
}

#[test]
fn repeated_scale_out_grows_parallelism_and_preserves_totals() {
    let sm = RecoveryStrategy::StateManagement;
    let (baseline, _) = run_with_scale_outs(sm, 8, 30, &[]);
    let (scaled, done) = run_with_scale_outs(sm, 8, 30, &[2, 4, 6]);
    assert_eq!(done, 3);
    assert_eq!(baseline, scaled);

    // Parallelism grows by one partition per action (2-way split of one
    // existing partition each time).
    let mut harness = WordCountHarness::deploy(RuntimeConfig::default(), 300, 0);
    harness.run_for(1, 10);
    for _ in 0..3 {
        let target = harness.handle.partitions(harness.counter)[0];
        harness.handle.scale_out(target, 2).expect("scale out");
    }
    assert_eq!(harness.handle.parallelism(harness.counter), 4);
}

#[test]
fn scale_out_followed_by_failure_recovers_each_partition() {
    let mut harness = WordCountHarness::deploy(RuntimeConfig::default(), 300, 0);
    harness.run_for(4, 40);
    let target = harness.handle.partitions(harness.counter)[0];
    harness.handle.scale_out(target, 2).expect("scale out");
    harness.handle.drain();
    let before = harness.total_counted_words();

    // Checkpoint both partitions, then fail one of them and recover it.
    harness.handle.advance_to(harness.handle.now_ms() + 6_000);
    let victim = harness.handle.partitions(harness.counter)[1];
    harness.handle.fail_operator(victim);
    harness.handle.recover(victim, 1).expect("recovery");
    assert_eq!(harness.total_counted_words(), before);
    assert_eq!(harness.handle.parallelism(harness.counter), 2);
}

/// Plan equivalence: with the default (Even) split policy the plan-driven
/// `scale_out` produces exactly the seed behaviour's routing table — the
/// even key-space split, covering the full range — and records its per-phase
/// timings.
#[test]
fn plan_driven_even_split_matches_seed_routing() {
    use seep::core::KeyRange;

    let mut harness = WordCountHarness::deploy(RuntimeConfig::default(), 300, 0);
    harness.run_for(3, 40);
    let target = harness.handle.partitions(harness.counter)[0];
    harness.handle.scale_out(target, 2).expect("scale out");
    let graph = harness.handle.execution_graph();
    let mut ranges: Vec<KeyRange> = harness
        .handle
        .partitions(harness.counter)
        .iter()
        .map(|id| graph.instance(*id).unwrap().key_range)
        .collect();
    ranges.sort_by_key(|r| r.lo);
    assert_eq!(
        ranges,
        KeyRange::full().split_even(2).unwrap(),
        "the default policy must reproduce the seed's even split"
    );
    assert!(graph
        .routing(harness.counter)
        .unwrap()
        .covers_exactly(KeyRange::full()));
    // The plan recorded its split decision and phase timings.
    let record = &harness.handle.metrics().scale_outs()[0];
    assert_eq!(record.timing.split, seep::runtime::SplitKind::Even);
    assert!(record.timing.total_us > 0);
    assert!(record.timing.restore_us + record.timing.replay_us <= record.timing.total_us);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Scaling out at arbitrary points during a random workload never changes
    /// the aggregated word counts.
    #[test]
    fn prop_scale_out_preserves_counts(
        seconds in 4u64..8,
        rate in 5u64..20,
        scale_point in 1u64..3,
    ) {
        let sm = RecoveryStrategy::StateManagement;
        let (baseline, _) = run_with_scale_outs(sm, seconds, rate, &[]);
        let (scaled, done) = run_with_scale_outs(sm, seconds, rate, &[scale_point]);
        prop_assert_eq!(done, 1);
        prop_assert_eq!(baseline, scaled);
    }
}
