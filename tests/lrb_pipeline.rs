//! Integration test: the Linear Road Benchmark operators composed into the
//! full query of Fig. 5, fed by the synthetic LRB generator, produce
//! consistent results — and the stateful toll calculator can be scaled out
//! and recovered mid-run without breaking the accounting invariants.
//!
//! The query has fan-out (the forwarder feeds both the toll calculator and
//! the toll assessment) and fan-in (the collector merges assessment and
//! account output), so it exercises the job builder's `branch`/`connect`
//! path rather than the linear `then_*` chaining. It is also the only query
//! whose operators emit to several targets and merge several streams, so the
//! last test runs it batched, on one and on two worker threads, through a
//! scale-out and a recovery, and requires the sink to see exactly what a
//! never-reconfigured run sees.

use seep::api::{passthrough, Job, JobHandle, SinkCollector};
use seep::core::{Key, LogicalOpId};
use seep::operators::lrb::{
    BalanceAccount, Collector, Forwarder, LrbRecord, TollAssessment, TollCalculator,
};
use seep::runtime::RuntimeConfig;
use seep::workloads::{LrbConfig, LrbGenerator};

struct LrbHarness {
    handle: JobHandle,
    src: LogicalOpId,
    toll_calc: LogicalOpId,
    toll_assess: LogicalOpId,
    sink: SinkCollector<LrbRecord>,
}

fn deploy() -> LrbHarness {
    deploy_with(RuntimeConfig::default())
}

fn deploy_with(config: RuntimeConfig) -> LrbHarness {
    let sink = SinkCollector::new();
    let handle = Job::builder(config)
        .source("data_feeder", passthrough("feeder"))
        .then_stateless("forwarder", Forwarder::new)
        .then_stateful("toll_calculator", TollCalculator::new)
        .branch("forwarder")
        .then_stateful("toll_assessment", TollAssessment::new)
        .connect("toll_calculator", "toll_assessment") // fan-in at the assessment
        .then_stateful("balance_account", BalanceAccount::new)
        .branch("toll_assessment")
        .then_stateless("collector", Collector::new)
        .connect("balance_account", "collector") // fan-in at the collector
        .sink_collect("sink", &sink)
        .deploy()
        .expect("valid LRB job");
    let src = handle.op("data_feeder");
    let toll_calc = handle.op("toll_calculator");
    let toll_assess = handle.op("toll_assessment");
    LrbHarness {
        handle,
        src,
        toll_calc,
        toll_assess,
        sink,
    }
}

fn feed_seconds(h: &mut LrbHarness, generator: &mut LrbGenerator, seconds: u32) {
    feed_range(h, generator, 0..seconds);
}

/// Feed the given simulated seconds, one drain and one second of virtual
/// time each.
fn feed_range(h: &mut LrbHarness, generator: &mut LrbGenerator, seconds: std::ops::Range<u32>) {
    for t in seconds {
        for record in generator.generate_second(t) {
            let key = Key::from_u64(u64::from(record.time()) << 32 | t as u64);
            let payload = bincode::serialize(&record).expect("serialise");
            h.handle.inject(h.src, key, payload);
        }
        h.handle.advance_to(h.handle.now_ms() + 1_000);
        h.handle.drain();
    }
}

/// Toll notifications delivered to the sink so far, as `(vid, toll)`.
fn sink_tolls(h: &LrbHarness) -> Vec<(u32, u32)> {
    h.sink.with(|records| {
        records
            .iter()
            .filter_map(|r| match r {
                LrbRecord::Toll(n) => Some((n.vid, n.toll)),
                _ => None,
            })
            .collect()
    })
}

/// Balance responses delivered to the sink so far, as `(vid, balance)`.
fn sink_balances(h: &LrbHarness) -> Vec<(u32, u64)> {
    h.sink.with(|records| {
        records
            .iter()
            .filter_map(|r| match r {
                LrbRecord::BalanceResponse(b) => Some((b.vid, b.balance)),
                _ => None,
            })
            .collect()
    })
}

/// Sum of balances held by all toll-assessment partitions.
fn total_balance(h: &LrbHarness) -> u64 {
    h.handle
        .partitions(h.toll_assess)
        .iter()
        .filter_map(|id| {
            h.handle.with_operator(*id, |op| {
                let state = op.get_processing_state();
                state
                    .iter()
                    .filter_map(|(k, _)| {
                        state
                            .get_decoded::<(u64, u64, u64)>(k) // Account {balance, charges, queries}
                            .ok()
                            .flatten()
                            .map(|(balance, _, _)| balance)
                    })
                    .sum::<u64>()
            })
        })
        .sum()
}

#[test]
fn lrb_pipeline_produces_tolls_and_consistent_balances() {
    let mut h = deploy();
    let mut generator = LrbGenerator::new(LrbConfig {
        expressways: 2,
        duration_secs: 200,
        balance_query_fraction: 0.05,
        ..Default::default()
    });
    feed_seconds(&mut h, &mut generator, 12);

    let tolls = sink_tolls(&h);
    assert!(!tolls.is_empty(), "toll notifications must reach the sink");
    // Every toll charged at the sink is reflected in some account balance.
    let charged: u64 = tolls.iter().map(|(_, t)| u64::from(*t)).sum();
    assert_eq!(total_balance(&h), charged);

    assert!(
        !sink_balances(&h).is_empty(),
        "balance queries must be answered (query fraction 5%)"
    );
}

#[test]
fn toll_calculator_scale_out_and_recovery_keep_accounting_consistent() {
    let mut h = deploy();
    let mut generator = LrbGenerator::new(LrbConfig {
        expressways: 2,
        duration_secs: 200,
        ..Default::default()
    });
    feed_seconds(&mut h, &mut generator, 6);

    // Scale the toll calculator out to two partitions (checkpointed state is
    // split by segment key range).
    let target = h.handle.partitions(h.toll_calc)[0];
    h.handle.scale_out(target, 2).expect("scale out");
    assert_eq!(h.handle.parallelism(h.toll_calc), 2);
    feed_seconds(&mut h, &mut generator, 6);

    // Fail one partition and recover it; accounting stays consistent.
    h.handle.advance_to(h.handle.now_ms() + 6_000); // force a checkpoint round
    let victim = h.handle.partitions(h.toll_calc)[0];
    h.handle.fail_operator(victim);
    h.handle.recover(victim, 1).expect("recovery");
    feed_seconds(&mut h, &mut generator, 4);

    let charged: u64 = sink_tolls(&h).iter().map(|(_, t)| u64::from(*t)).sum();
    assert_eq!(
        total_balance(&h),
        charged,
        "sum of account balances must equal the tolls delivered to the sink"
    );
    assert_eq!(h.handle.parallelism(h.toll_calc), 2);
}

/// Toll notifications as `(vid, toll)` and balance responses as
/// `(vid, balance)`, both sorted.
type SinkContents = (Vec<(u32, u32)>, Vec<(u32, u64)>);

/// Everything the sink saw, order-insensitively: sibling partitions may
/// deliver in any order; what is delivered may not change.
fn sink_contents(h: &LrbHarness) -> SinkContents {
    let (mut tolls, mut balances) = (sink_tolls(h), sink_balances(h));
    tolls.sort_unstable();
    balances.sort_unstable();
    (tolls, balances)
}

/// Twenty seconds of traffic with balance queries, batched at 64. With
/// `reconfigure` the toll calculator is scaled out after second 6 and the
/// toll assessment — fed by the forwarder *and* by both calculator
/// partitions, feeding the balance account *and* the collector — crashes
/// after second 14 and is restored from its latest periodic checkpoint:
/// what both input streams sent since is replayed in batches (the
/// calculator siblings' merged by timestamp) and everything it emitted since
/// is re-emitted towards both targets. The scale out needs no preparatory
/// round: the calculator hands its live state over at plan time, so nothing
/// is replayed into the new partitions.
fn batched_run(worker_threads: usize, reconfigure: bool) -> SinkContents {
    let config = RuntimeConfig::default()
        .with_batch_size(64)
        .with_worker_threads(worker_threads);
    let mut h = deploy_with(config);
    let mut generator = LrbGenerator::new(LrbConfig {
        expressways: 2,
        duration_secs: 200,
        balance_query_fraction: 0.05,
        ..Default::default()
    });
    feed_range(&mut h, &mut generator, 0..6);
    if reconfigure {
        let target = h.handle.partitions(h.toll_calc)[0];
        h.handle.scale_out(target, 2).expect("scale out");
    }
    feed_range(&mut h, &mut generator, 6..14);
    if reconfigure {
        let victim = h.handle.partitions(h.toll_assess)[0];
        h.handle.fail_operator(victim);
        h.handle.recover(victim, 1).expect("recovery");
        h.handle.drain();
    }
    feed_range(&mut h, &mut generator, 14..20);
    let charged: u64 = sink_tolls(&h).iter().map(|(_, t)| u64::from(*t)).sum();
    assert_eq!(total_balance(&h), charged);
    sink_contents(&h)
}

#[test]
fn batched_fan_out_and_fan_in_survive_scale_out_and_recovery() {
    for worker_threads in [1, 2] {
        let (tolls, balances) = batched_run(worker_threads, false);
        assert!(!tolls.is_empty() && !balances.is_empty());
        let (tolls_reconfigured, balances_reconfigured) = batched_run(worker_threads, true);
        assert_eq!(
            tolls_reconfigured, tolls,
            "worker_threads={worker_threads}: toll notifications at the sink"
        );
        assert_eq!(
            balances_reconfigured, balances,
            "worker_threads={worker_threads}: balance responses at the sink"
        );
    }
}
