//! `lrb_paced`: the Linear Road query fed on a fixed schedule, open loop.
//!
//! 40 000 records/s arrive in 5 ms slots of 200 whether or not the job has
//! finished the previous slot. Every result is timed from the moment its
//! slot was *due*, so a stall is charged to every slot that had to wait
//! behind it. At ~40 % utilisation the per-slot fixed costs and the
//! checkpoint stalls set the latency, not kernel speed.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use seep_core::{Key, Tuple};
use seep_runtime::api::JobHandle;
use seep_runtime::RuntimeConfig;

use crate::inputs;
use crate::jobs::{self, SOURCE};
use crate::proc::own_peak_rss_mb;
use crate::report::Report;
use crate::runstats::{self, Counters, COUNTED_EPOCHS};
use crate::sched::SlotSchedule;
use crate::spec::{RunArgs, SETUPS};
use crate::stats::{median, percentile};
use crate::trace::Tracer;

const SLOT: Duration = Duration::from_millis(5);
const SLOT_RECORDS: usize = 200;
/// Slots per checkpoint interval: one second of them, a fifth of a second
/// in quick mode.
fn slots_per_interval(quick: bool) -> u64 {
    if quick {
        40
    } else {
        200
    }
}
const WARMUP_INTERVALS: u64 = 2;
/// Distinct records generated; the feed cycles through them.
const POOL: usize = 200_000;
/// Records per drain of the un-paced reference pass.
const REFERENCE_CHUNK: usize = 20_000;

/// What the benchmark's own sink keeps about the results it is handed.
#[derive(Default)]
struct SinkLog {
    /// Due time of the slot being drained, ns since the schedule started.
    due_ns: AtomicU64,
    /// `(slot due time ns, result latency ns)` per result.
    latencies: Mutex<Vec<(u64, u64)>>,
    results: AtomicU64,
    /// Order-independent checksum of the result payloads.
    checksum: AtomicU64,
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, b| {
        (hash ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

impl SinkLog {
    fn count(&self, tuple: &Tuple) {
        self.results.fetch_add(1, Ordering::Relaxed);
        self.checksum
            .fetch_add(fnv1a(&tuple.payload), Ordering::Relaxed);
    }
}

/// Deploy the query. With an `origin` the sink also times every result
/// against the due time of the slot being drained.
fn deploy(log: &Arc<SinkLog>, origin: Option<Instant>, checkpoint_ms: u64) -> JobHandle {
    let log = log.clone();
    jobs::lrb(
        RuntimeConfig::default().with_checkpoint_interval(checkpoint_ms),
        move |tuple| {
            log.count(tuple);
            if let Some(origin) = origin {
                let due = log.due_ns.load(Ordering::Relaxed);
                let now = origin.elapsed().as_nanos() as u64;
                log.latencies
                    .lock()
                    .expect("sink log lock")
                    .push((due, now.saturating_sub(due)));
            }
        },
    )
}

pub fn run(args: &RunArgs) -> Report {
    let mut report = Report::default();
    let pool_size = if args.quick { POOL / 10 } else { POOL };
    let slots_per_interval = slots_per_interval(args.quick);
    let interval_len = SLOT * slots_per_interval as u32;
    let checkpoint_ms = interval_len.as_millis() as u64;

    let (pool, log, origin, mut handle) = report.time_setups(args, SETUPS, || {
        let pool = inputs::encode_all(&inputs::lrb_records(args.seed, pool_size));
        let log = Arc::new(SinkLog::default());
        let origin = Instant::now();
        let handle = deploy(&log, Some(origin), checkpoint_ms);
        (pool, log, origin, handle)
    });

    // One more than the counted intervals, so the second counter reading
    // falls inside the run.
    let timed_intervals = (args.seconds.ceil() as u64).max(COUNTED_EPOCHS as u64 + 1);
    let intervals = WARMUP_INTERVALS + timed_intervals;
    let slots = intervals * slots_per_interval;
    let mut tracer = Tracer::new(args.trace);
    let mut lag_ms = Vec::with_capacity(slots as usize);
    let mut busy_s = vec![0.0f64; intervals as usize];
    let mut injected = 0u64;
    let mut backlog_max = 0usize;

    // The schedule starts now; `origin` (the sink's clock) started at
    // deploy, so due times are converted to its epoch.
    let schedule = SlotSchedule::new(Instant::now(), SLOT);
    let mut epoch_open = None;
    let mut counters = Vec::new();
    for slot in 0..slots {
        let interval = slot / slots_per_interval;
        if slot % slots_per_interval == 0 {
            if interval == WARMUP_INTERVALS {
                tracer.clear();
            }
            if interval == WARMUP_INTERVALS || interval == WARMUP_INTERVALS + COUNTED_EPOCHS as u64
            {
                counters.push(Counters::read(&handle));
            }
            tracer.set_epoch(interval as u32);
            epoch_open = Some(tracer.enter("epoch"));
        }
        let wait = tracer.enter("wait");
        let lag = schedule.wait_for(slot);
        tracer.exit(wait);
        lag_ms.push(lag.as_secs_f64() * 1e3);
        let due = schedule.due(slot);
        log.due_ns
            .store((due - origin).as_nanos() as u64, Ordering::Relaxed);

        let busy = Instant::now();
        let open = tracer.enter("inject");
        for _ in 0..SLOT_RECORDS {
            let payload = pool[(injected % pool.len() as u64) as usize].clone();
            injected += 1;
            handle.inject(SOURCE, Key::from_u64(injected), payload);
        }
        tracer.exit(open);
        backlog_max = backlog_max.max(handle.queued_tuples());
        let open = tracer.enter("drain");
        handle.drain();
        tracer.exit(open);
        let open = tracer.enter("advance");
        handle.advance_to((Instant::now() - schedule.due(0)).as_millis() as u64);
        tracer.exit(open);
        let open = tracer.enter("drain");
        handle.drain();
        tracer.exit(open);
        busy_s[interval as usize] += busy.elapsed().as_secs_f64();

        if (slot + 1) % slots_per_interval == 0 {
            tracer.exit(epoch_open.take().expect("epoch span is open"));
        }
    }
    report.put("peak_rss_mb", own_peak_rss_mb(), "MB");

    // Results by the checkpoint interval their slot was due in.
    let schedule_start_ns = (schedule.due(0) - origin).as_nanos() as u64;
    let mut by_interval: Vec<Vec<f64>> = vec![Vec::new(); intervals as usize];
    for (due_ns, latency_ns) in log.latencies.lock().expect("sink log lock").iter() {
        let interval = ((due_ns - schedule_start_ns) / interval_len.as_nanos() as u64) as usize;
        by_interval[interval.min(intervals as usize - 1)].push(*latency_ns as f64 / 1e6);
    }
    let timed = &by_interval[WARMUP_INTERVALS as usize..];
    let all: Vec<f64> = timed.iter().flatten().copied().collect();
    let peaks: Vec<f64> = timed
        .iter()
        .map(|interval| interval.iter().copied().fold(0.0, f64::max))
        .collect();
    report.put("latency_p50_ms", median(&all), "ms");
    report.put("latency_p50_ms.n", all.len() as f64, "count");
    report.put_median("latency_ckpt_peak_ms", &peaks, "ms");
    report.put("latency_p99_ms", percentile(&all, 99.0), "ms");
    report.put("latency_p999_ms", percentile(&all, 99.9), "ms");
    report.put(
        "latency_max_ms",
        peaks.iter().copied().fold(0.0, f64::max),
        "ms",
    );

    // Records per second of driver busy time: the capacity the fixed
    // schedule leaves unused shows up as head-room, not as a higher number.
    let per_interval = (slots_per_interval * SLOT_RECORDS as u64) as f64;
    let capacity: Vec<f64> = busy_s[WARMUP_INTERVALS as usize..]
        .iter()
        .map(|busy| per_interval / busy)
        .collect();
    report.put_median("throughput_tuples_per_s", &capacity, "tuples/s");
    report.put(
        "run.utilisation_pct",
        median(&busy_s[WARMUP_INTERVALS as usize..]) / interval_len.as_secs_f64() * 100.0,
        "%",
    );

    // Did the generator keep its schedule? Compare how late slots started
    // at the end of the run with the beginning.
    let timed_lag = &lag_ms[(WARMUP_INTERVALS * slots_per_interval) as usize..];
    let tenth = (timed_lag.len() / 10).max(1);
    let first = median(&timed_lag[..tenth]);
    let final_ = median(&timed_lag[timed_lag.len() - tenth..]);
    let unsustained = final_ > SLOT.as_secs_f64() * 1e3 && final_ > 10.0 * first;
    report.put("driver.generator_lag_p50_ms", median(timed_lag), "ms");
    report.put(
        "driver.generator_lag_p99_ms",
        percentile(timed_lag, 99.0),
        "ms",
    );
    report.put("driver.generator_lag_last_tenth_ms", final_, "ms");

    // The oracle: the same records through a fresh copy of the job, not
    // paced and not checkpointed, must give the same results.
    let reference_log = Arc::new(SinkLog::default());
    let mut reference = deploy(&reference_log, None, checkpoint_ms);
    let mut fed = 0u64;
    while fed < injected {
        for _ in 0..REFERENCE_CHUNK.min((injected - fed) as usize) {
            let payload = pool[(fed % pool.len() as u64) as usize].clone();
            fed += 1;
            reference.inject(SOURCE, Key::from_u64(fed), payload);
        }
        reference.drain();
    }
    let results = log.results.load(Ordering::Relaxed);
    let expected = reference_log.results.load(Ordering::Relaxed);
    let checksum_ok =
        log.checksum.load(Ordering::Relaxed) == reference_log.checksum.load(Ordering::Relaxed);
    let dropped = handle.metrics().snapshot().dropped_sends;
    report.attempted = injected;
    report.failed = if unsustained {
        injected
    } else {
        results.abs_diff(expected) + u64::from(!checksum_ok && results == expected) + dropped
    };
    report.put("oracle.results", results as f64, "count");
    report.put("oracle.reference_results", expected as f64, "count");
    report.put(
        "oracle.checksum_mismatch",
        f64::from(u8::from(!checksum_ok)),
        "count",
    );
    report.put("oracle.dropped_sends", dropped as f64, "count");
    report.put(
        "oracle.unsustained",
        f64::from(u8::from(unsustained)),
        "count",
    );

    runstats::put_counters(
        &mut report,
        &counters[0],
        &counters[1],
        COUNTED_EPOCHS as f64 * interval_len.as_secs_f64(),
    );
    report.put("runtime.backlog_max_tuples", backlog_max as f64, "count");
    report.put("driver.timed_epochs", timed_intervals as f64, "count");
    report.put(
        "driver.epoch_drift_pct",
        (capacity[0] / capacity[capacity.len() - 1] - 1.0) * 100.0,
        "%",
    );
    if args.trace {
        crate::write_trace(args, tracer.spans());
        runstats::put_span_shares(&mut report, tracer.spans());
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checksum_does_not_depend_on_order() {
        let tuple = |bytes: &[u8]| Tuple::new(1, Key(0), bytes.to_vec());
        let (a, b) = (tuple(&[1, 2, 3]), tuple(&[9]));
        let sum = |tuples: &[&Tuple]| {
            let log = SinkLog::default();
            tuples.iter().for_each(|t| log.count(t));
            (
                log.results.load(Ordering::Relaxed),
                log.checksum.load(Ordering::Relaxed),
            )
        };
        assert_eq!(sum(&[&a, &b]), sum(&[&b, &a]));
        assert_ne!(sum(&[&a, &b]), sum(&[&a, &a]));
    }
}
