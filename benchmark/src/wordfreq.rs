//! The in-process word-frequency workloads: saturation, durable
//! checkpointing, and the three reconfiguration kinds. All five drive the
//! same query through [`Driver`]; they differ in store, state size and what
//! one epoch does.

use std::time::{Duration, Instant};

use bytes::Bytes;
use seep_core::Key;
use seep_runtime::api::JobHandle;
use seep_runtime::{RuntimeConfig, StoreConfig};

use crate::inputs;
use crate::jobs::{self, WordTotals, COUNTER, SOURCE};
use crate::proc::{own_peak_rss_mb, ScratchDir};
use crate::report::Report;
use crate::runstats::{self, Counters, COUNTED_EPOCHS};
use crate::spec::{RunArgs, SETUPS};
use crate::stats::median;
use crate::trace::Tracer;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Saturate,
    Durable,
    ScaleOut,
    Recovery,
    ScaleIn,
}

impl Kind {
    pub fn from_workload(name: &str) -> Option<Kind> {
        Some(match name {
            "wordfreq_saturate" => Kind::Saturate,
            "wordfreq_durable" => Kind::Durable,
            "wordfreq_scale_out" => Kind::ScaleOut,
            "wordfreq_recovery" => Kind::Recovery,
            "wordfreq_scale_in" => Kind::ScaleIn,
            _ => return None,
        })
    }
}

/// Fragments injected between two `drain()` calls of the closed loops.
const CHUNK: usize = 1_000;
/// A window that never closes within a run.
const NEVER_MS: u64 = 3_600_000;

/// The sizes that define a workload. Frozen: `BENCHMARK.json` numbers are
/// only comparable while these stay as they are.
struct Shape {
    pool: usize,
    window_ms: u64,
    checkpoint_ms: u64,
    prepopulate: usize,
    durable: bool,
    /// Closed loops: chunks per epoch and chunks between `advance_to` calls
    /// of 1 000 virtual ms.
    chunks_per_epoch: usize,
    chunks_per_advance: usize,
    /// Reconfiguration workloads: fragments fed, with one checkpoint round,
    /// before the timed reconfiguration. Their epoch is one cycle.
    feed: usize,
    warmup_epochs: usize,
    /// Timed epochs every run has, however short `--seconds` is; a run goes
    /// on past them until the window is over.
    min_epochs: usize,
}

fn shape(kind: Kind, quick: bool) -> Shape {
    let scale = if quick { 10 } else { 1 };
    match kind {
        // One epoch = 50 000 fragments = 5 000 virtual ms = one checkpoint
        // round and one window close; three epochs go once round the pool.
        // State stays small (≤ 10 000 words).
        Kind::Saturate => Shape {
            pool: 150_000 / scale,
            window_ms: 5_000,
            checkpoint_ms: 5_000,
            prepopulate: 0,
            durable: false,
            chunks_per_epoch: 50 / scale,
            chunks_per_advance: 10 / scale,
            feed: 0,
            warmup_epochs: 2,
            min_epochs: COUNTED_EPOCHS,
        },
        // One epoch = 40 000 fragments = 2 000 virtual ms = two checkpoint
        // rounds of a 200 000-key dictionary (an 11 MB checkpoint) to a
        // FileStore that fsyncs every record. (A one-round epoch is
        // bimodal: every other round rolls a segment.)
        Kind::Durable => Shape {
            pool: 50_000 / scale,
            window_ms: NEVER_MS,
            checkpoint_ms: 1_000,
            prepopulate: 200_000 / scale,
            durable: true,
            chunks_per_epoch: 40 / scale,
            chunks_per_advance: 20 / scale,
            feed: 0,
            warmup_epochs: 1,
            min_epochs: COUNTED_EPOCHS,
        },
        // A reconfiguration time is a median over at least 22 cycles: the
        // calls are fsync-bound, and fewer samples leave the median at the
        // mercy of the shared disk.
        Kind::ScaleOut | Kind::Recovery | Kind::ScaleIn => Shape {
            pool: 50_000 / scale,
            window_ms: NEVER_MS,
            checkpoint_ms: 1_000,
            prepopulate: 40_000 / scale,
            durable: true,
            chunks_per_epoch: 0,
            chunks_per_advance: 0,
            feed: 5_000 / scale,
            warmup_epochs: 2,
            min_epochs: if quick { COUNTED_EPOCHS } else { 22 },
        },
    }
}

/// A deployed word-frequency job plus everything needed to drive and check
/// it. Field order matters: the job must be dropped before its store
/// directory is removed.
struct Deployed {
    handle: JobHandle,
    emitted: WordTotals,
    pool_text: Vec<String>,
    pool: Vec<Bytes>,
    _store_dir: Option<ScratchDir>,
}

fn deploy(kind: Kind, args: &RunArgs) -> Deployed {
    let shape = shape(kind, args.quick);
    let pool_text = inputs::fragments(args.seed, shape.pool);
    let pool = inputs::encode_all(&pool_text);

    let mut config = RuntimeConfig::default().with_checkpoint_interval(shape.checkpoint_ms);
    let store_dir = shape.durable.then(|| {
        ScratchDir::create(&args.out_dir, &args.workload).expect("create FileStore directory")
    });
    if let Some(dir) = &store_dir {
        config = config.with_store(StoreConfig::file(dir.path()).with_fsync_every(1));
    }
    let emitted = WordTotals::default();
    let handle = jobs::wordfreq(config, shape.window_ms, shape.prepopulate, &emitted);
    Deployed {
        handle,
        emitted,
        pool_text,
        pool,
        _store_dir: store_dir,
    }
}

/// Times every call into the job and keeps the oracle's books.
struct Driver {
    job: Deployed,
    tracer: Tracer,
    injected: u64,
    now_ms: u64,
    backlog_max: usize,
    reconfig_calls: u64,
    reconfig_errors: u64,
}

impl Driver {
    fn feed(&mut self, fragments: usize) {
        let open = self.tracer.enter("inject");
        let len = self.job.pool.len() as u64;
        for _ in 0..fragments {
            let payload = self.job.pool[(self.injected % len) as usize].clone();
            self.injected += 1;
            self.job
                .handle
                .inject(SOURCE, Key::from_u64(self.injected), payload);
        }
        self.tracer.exit(open);
        self.backlog_max = self.backlog_max.max(self.job.handle.queued_tuples());
    }

    fn drain(&mut self) {
        let open = self.tracer.enter("drain");
        self.job.handle.drain();
        self.tracer.exit(open);
    }

    fn advance(&mut self, by_ms: u64) {
        self.now_ms += by_ms;
        let open = self.tracer.enter("advance");
        self.job.handle.advance_to(self.now_ms);
        self.tracer.exit(open);
    }

    /// One reconfiguration call, timed until the catch-up drain has ended.
    fn reconfigure(
        &mut self,
        name: &'static str,
        call: impl FnOnce(&mut JobHandle) -> seep_core::Result<()>,
    ) -> Duration {
        let started = Instant::now();
        let open = self.tracer.enter(name);
        self.reconfig_calls += 1;
        if let Err(error) = call(&mut self.job.handle) {
            eprintln!("{name} failed: {error}");
            self.reconfig_errors += 1;
        }
        self.tracer.exit(open);
        self.drain();
        started.elapsed()
    }

    fn scale_out(&mut self) -> Duration {
        self.reconfigure("scale_out", |h| {
            let target = h.partitions(COUNTER)[0];
            h.scale_out(target, 2).map(|_| ())
        })
    }

    fn scale_in(&mut self) -> Duration {
        self.reconfigure("scale_in", |h| {
            let parts = h.partitions(COUNTER);
            h.scale_in(parts[0], parts[1]).map(|_| ())
        })
    }

    fn recover(&mut self) -> Duration {
        self.reconfigure("recovery", |h| {
            let victim = h.partitions(COUNTER)[0];
            h.fail_operator(victim);
            h.recover(victim, 1).map(|_| ())
        })
    }

    /// `fragments` fragments, one checkpoint round, and the drain that
    /// processes them: the state a reconfiguration then has to move.
    fn feed_round(&mut self, fragments: usize) {
        self.feed(fragments);
        self.advance(5_000);
        self.drain();
    }
}

/// What one epoch measured.
struct Epoch {
    wall: Duration,
    tuples: u64,
    /// Latency of each unit of work in the epoch, in ms: a chunk's
    /// inject-to-drained turn-around, or a reconfiguration's call-to-caught-up
    /// time.
    unit_ms: Vec<f64>,
    /// The slowest inject-to-drained turn-around in the epoch, in ms: the
    /// chunk (closed loops) or the feed round (reconfiguration workloads)
    /// that held a checkpoint round.
    peak_ms: f64,
}

fn run_epoch(kind: Kind, shape: &Shape, index: u32, d: &mut Driver) -> Epoch {
    d.tracer.set_epoch(index);
    let before = d.injected;
    let started = Instant::now();
    let open = d.tracer.enter("epoch");
    let mut unit_ms = Vec::new();
    let mut peak_ms = 0.0f64;
    let ms = |t: Duration| t.as_secs_f64() * 1e3;
    // Every cycle feeds once and ends on one partition, as it began.
    let mut feed_round = |d: &mut Driver| {
        let unit = Instant::now();
        d.feed_round(shape.feed);
        peak_ms = peak_ms.max(ms(unit.elapsed()));
    };
    match kind {
        Kind::ScaleOut => {
            feed_round(d);
            unit_ms.push(ms(d.scale_out()));
            d.scale_in();
        }
        Kind::Recovery => {
            feed_round(d);
            unit_ms.push(ms(d.recover()));
        }
        Kind::ScaleIn => {
            d.scale_out();
            feed_round(d);
            unit_ms.push(ms(d.scale_in()));
        }
        Kind::Saturate | Kind::Durable => {
            for chunk in 0..shape.chunks_per_epoch {
                let unit = Instant::now();
                d.feed(CHUNK);
                d.drain();
                if (chunk + 1) % shape.chunks_per_advance == 0 {
                    d.advance(1_000);
                    d.drain();
                }
                unit_ms.push(ms(unit.elapsed()));
            }
            peak_ms = unit_ms.iter().copied().fold(0.0, f64::max);
        }
    }
    d.tracer.exit(open);
    Epoch {
        wall: started.elapsed(),
        tuples: d.injected - before,
        unit_ms,
        peak_ms,
    }
}

pub fn run(kind: Kind, args: &RunArgs) -> Report {
    let shape = shape(kind, args.quick);
    let mut report = Report::default();

    let job = report.time_setups(args, SETUPS, || deploy(kind, args));
    let mut d = Driver {
        job,
        tracer: Tracer::new(args.trace),
        injected: 0,
        now_ms: 0,
        backlog_max: 0,
        reconfig_calls: 0,
        reconfig_errors: 0,
    };
    for _ in 0..shape.warmup_epochs {
        run_epoch(kind, &shape, 0, &mut d);
    }
    d.tracer.clear();
    d.backlog_max = 0;

    let window = Instant::now();
    let counters_before = Counters::read(&d.job.handle);
    let mut counted = None;
    let mut epochs = Vec::new();
    while epochs.len() < shape.min_epochs || window.elapsed().as_secs_f64() < args.seconds {
        epochs.push(run_epoch(kind, &shape, epochs.len() as u32 + 1, &mut d));
        if epochs.len() == COUNTED_EPOCHS {
            counted = Some((
                Counters::read(&d.job.handle),
                window.elapsed().as_secs_f64(),
            ));
        }
    }
    let window_s = window.elapsed().as_secs_f64();
    report.put("peak_rss_mb", own_peak_rss_mb(), "MB");

    // End-to-end numbers: medians over epochs, so a neighbour stealing the
    // CPU for one epoch does not move them.
    let epoch_s: Vec<f64> = epochs.iter().map(|e| e.wall.as_secs_f64()).collect();
    let tuples_per_epoch = epochs[0].tuples as f64;
    report.put(
        "throughput_tuples_per_s",
        tuples_per_epoch / median(&epoch_s),
        "tuples/s",
    );
    report.put_median("epoch_s", &epoch_s, "s");
    let units: Vec<f64> = epochs.iter().flat_map(|e| e.unit_ms.clone()).collect();
    report.put_median("latency_p50_ms", &units, "ms");
    let peaks: Vec<f64> = epochs.iter().map(|e| e.peak_ms).collect();
    report.put_median("latency_ckpt_peak_ms", &peaks, "ms");
    report.put(
        "latency_max_ms",
        units.iter().chain(&peaks).copied().fold(0.0, f64::max),
        "ms",
    );
    report.put("window_s", window_s, "s");
    report.put("driver.timed_epochs", epochs.len() as f64, "count");
    report.put(
        "driver.epoch_drift_pct",
        (epoch_s[epoch_s.len() - 1] / epoch_s[0] - 1.0) * 100.0,
        "%",
    );

    // The oracle: what the sink saw plus what the counters still hold must
    // equal a recount of everything injected.
    let (mut observed, synthetic) = jobs::counter_residue(&d.job.handle);
    for (word, count) in d.job.emitted.lock().expect("sink totals lock").iter() {
        *observed.entry(word.clone()).or_default() += count;
    }
    let expected = inputs::reference_counts(&d.job.pool_text, d.injected);
    let mismatch = inputs::count_mismatch(&observed, &expected);
    let lost_state = synthetic.abs_diff(shape.prepopulate as u64);
    let dropped = d.job.handle.metrics().snapshot().dropped_sends;
    report.attempted = d.injected + d.reconfig_calls;
    report.failed = mismatch + lost_state + dropped + d.reconfig_errors;
    report.put("oracle.word_mismatch", mismatch as f64, "count");
    report.put("oracle.lost_prepopulated", lost_state as f64, "count");
    report.put("oracle.dropped_sends", dropped as f64, "count");
    report.put("oracle.reconfig_errors", d.reconfig_errors as f64, "count");

    let (counters_after, counted_s) = counted.expect("at least COUNTED_EPOCHS epochs ran");
    runstats::put_counters(&mut report, &counters_before, &counters_after, counted_s);
    report.put("runtime.backlog_max_tuples", d.backlog_max as f64, "count");
    put_reconfig_phases(&mut report, kind, &d.job.handle);
    if args.trace {
        crate::write_trace(args, d.tracer.spans());
        runstats::put_span_shares(&mut report, d.tracer.spans());
    }
    report
}

/// The runtime's own phase timings of the reconfigurations this workload
/// timed (warm-up included), as medians.
fn put_reconfig_phases(report: &mut Report, kind: Kind, handle: &JobHandle) {
    let metrics = handle.metrics();
    let timings: Vec<_> = match kind {
        Kind::ScaleOut => metrics.scale_outs().iter().map(|r| r.timing).collect(),
        Kind::Recovery => metrics.recoveries().iter().map(|r| r.timing).collect(),
        Kind::ScaleIn => metrics.scale_ins().iter().map(|r| r.timing).collect(),
        Kind::Saturate | Kind::Durable => return,
    };
    runstats::put_phase_medians(report, "run.phase", &timings);
}
