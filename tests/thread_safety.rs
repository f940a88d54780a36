//! Thread-safety audit of the shared control-plane state the parallel data
//! plane touches from worker threads: compile-time `Send`/`Sync` assertions
//! for every type that crosses a thread boundary, and an 8-thread stress of
//! the shared clock and the metrics registry with exact-total assertions —
//! a lost update anywhere shows up as a wrong count.

use seep::net::Network;
use seep::runtime::obs::ObsShared;
use seep::runtime::worker::SharedClock;
use seep::runtime::{Journal, Metrics, WorkerCore};

use seep::core::OperatorId;

/// The parallel executor moves workers to scoped threads (`Send`) and shares
/// the clock, metrics, network and journal across them (`Sync`). These
/// bounds are the whole safety argument, so assert them where a regression
/// turns into a compile error rather than a data race.
#[test]
fn shared_state_is_send_and_sync() {
    fn is_send<T: Send>() {}
    fn is_sync<T: Sync>() {}
    is_send::<WorkerCore>();
    is_send::<SharedClock>();
    is_sync::<SharedClock>();
    is_send::<Metrics>();
    is_sync::<Metrics>();
    is_send::<Network>();
    is_sync::<Network>();
    is_send::<Journal>();
    is_sync::<Journal>();
    is_send::<ObsShared>();
    is_sync::<ObsShared>();
}

const THREADS: u64 = 8;
const ITERATIONS: u64 = 5_000;

#[test]
fn clock_ticks_are_never_lost_across_eight_threads() {
    let clock = SharedClock::new();
    std::thread::scope(|scope| {
        for _ in 0..THREADS {
            scope.spawn(|| {
                for _ in 0..ITERATIONS {
                    // One single-timestamp and one 2-block reservation per
                    // iteration, mixing block sizes.
                    let single = clock.tick_many(1);
                    assert!(single > 0);
                    let first = clock.tick_many(2);
                    assert!(first > single);
                }
            });
        }
    });
    assert_eq!(
        clock.last(),
        THREADS * ITERATIONS * 3,
        "every tick must be represented exactly once"
    );
}

#[test]
fn metrics_totals_are_exact_across_eight_threads() {
    let metrics = Metrics::new();
    std::thread::scope(|scope| {
        for thread in 0..THREADS {
            let metrics = &metrics;
            scope.spawn(move || {
                let op = OperatorId::new(thread + 1);
                for i in 0..ITERATIONS {
                    metrics.record_processed(op, 1);
                    metrics.record_latency_us(i % 700);
                }
            });
        }
    });
    for thread in 0..THREADS {
        assert_eq!(
            metrics.processed_by(OperatorId::new(thread + 1)),
            ITERATIONS,
            "per-operator processed count must be exact"
        );
    }
    assert_eq!(
        metrics.latency_samples() as u64,
        THREADS * ITERATIONS,
        "every latency sample must be recorded exactly once"
    );
    assert_eq!(metrics.latency_histogram().count, THREADS * ITERATIONS);
}

#[test]
fn timestamp_blocks_reserved_concurrently_never_overlap() {
    // tick_many hands out contiguous blocks; concurrent reservations must
    // partition the timestamp space with no gaps and no overlaps.
    let clock = SharedClock::new();
    let blocks: Vec<Vec<(u64, u64)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                scope.spawn(|| {
                    (0..ITERATIONS)
                        .map(|i| {
                            let n = i % 7 + 1;
                            (clock.tick_many(n), n)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let mut starts: Vec<(u64, u64)> = blocks.into_iter().flatten().collect();
    starts.sort_unstable();
    let mut next_free = 1;
    for (first, n) in starts {
        assert_eq!(first, next_free, "blocks must tile the timestamp space");
        next_free = first + n;
    }
    assert_eq!(next_free - 1, clock.last());
}
