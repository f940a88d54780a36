//! The per-layer probes: one fixed suite, run after the workload of every
//! traced run, that times each crate's public operations from outside on
//! inputs made from the seed.
//!
//! The suite is the same whichever workload preceded it, so every traced
//! run reports every per-layer metric as measured, and two commits compare
//! layer by layer without a workload's own variance in the way. What a
//! particular workload spent in each call is in its trace file and its
//! `run.*` lines.

use std::time::{Duration, Instant};

use seep_core::merge::merge_checkpoints;
use seep_core::primitives::{checkpoint_state, partition_checkpoint, restore_state};
use seep_core::{
    BatchOutput, BufferState, Checkpoint, DuplicateFilter, Key, KeyRange, OperatorId, RoutingState,
    StatefulOperator, StreamId, Tuple, TupleBatch,
};
use seep_net::{wire, DataChannel, Envelope, Message, TcpIngress, TcpTransport, Transport};
use seep_operators::lrb::{Forwarder, TollAssessment, TollCalculator};
use seep_operators::{EmptyTokenFilter, SentenceTokenizer, WindowedWordCount, WordKeyer};
use seep_runtime::{ReconfigTiming, RuntimeConfig, StoreConfig};
use seep_store::{CheckpointStore, FileStore, FileStoreConfig, MemStore};

use crate::dist;
use crate::inputs;
use crate::jobs::{self, WordTotals, BATCH_SIZE, COUNTER, SOURCE};
use crate::proc::ScratchDir;
use crate::report::Report;
use crate::runstats;
use crate::spec::RunArgs;
use crate::stats::median;
use crate::trace::Tracer;

const STREAM: StreamId = StreamId(0);
/// Dictionary entries of the state every state probe works on: the durable
/// workload's state size.
const STATE_KEYS: usize = 200_000;

/// Median of `reps` timings of `f`, in ms.
fn median_ms(reps: usize, mut f: impl FnMut() -> Duration) -> f64 {
    let samples: Vec<f64> = (0..reps).map(|_| f().as_secs_f64() * 1e3).collect();
    median(&samples)
}

fn timed<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let started = Instant::now();
    let result = std::hint::black_box(f());
    (result, started.elapsed())
}

/// Tuples with consecutive timestamps from already-encoded payloads.
fn tuples_from(payloads: &[bytes::Bytes]) -> Vec<Tuple> {
    payloads
        .iter()
        .enumerate()
        .map(|(i, p)| Tuple::new(i as u64 + 1, Key::from_u64(i as u64 + 1), p.clone()))
        .collect()
}

/// Push `input` through `op` in batches of the data plane's size. Returns
/// the outputs, re-stamped as the next operator's inputs, and the time
/// spent inside `process_batch`.
fn through(op: &mut dyn StatefulOperator, input: &[Tuple]) -> (Vec<Tuple>, Duration) {
    let mut outputs = Vec::new();
    let mut spent = Duration::ZERO;
    for batch in input.chunks(BATCH_SIZE) {
        let mut out = BatchOutput::new();
        let started = Instant::now();
        op.process_batch(STREAM, batch, &mut out);
        spent += started.elapsed();
        for (_, tuple) in out.into_items() {
            let ts = outputs.len() as u64 + 1;
            outputs.push(tuple.with_ts(ts));
        }
    }
    (outputs, spent)
}

fn ns_per(spent: Duration, items: usize) -> f64 {
    spent.as_nanos() as f64 / items.max(1) as f64
}

/// Kernel costs of the operators on the two queries' hot paths.
struct Kernels {
    splitter_ns_per_fragment: f64,
    word_count_ns_per_word: f64,
}

fn operators(report: &mut Report, seed: u64, n: usize) -> Kernels {
    let fragments = tuples_from(&inputs::encode_all(&inputs::fragments(seed, n)));
    let (segments, t1) = through(&mut SentenceTokenizer::new(), &fragments);
    let (tokens, t2) = through(&mut EmptyTokenFilter::new(), &segments);
    let (words, t3) = through(&mut WordKeyer::new(), &tokens);
    let splitter = ns_per(t1 + t2 + t3, fragments.len());
    report.put("operators.splitter_chain_ns_per_tuple", splitter, "ns");
    let (_, counting) = through(&mut WindowedWordCount::new(u64::MAX), &words);
    let word_count = ns_per(counting, words.len());
    report.put("operators.word_count_ns_per_tuple", word_count, "ns");

    let records = tuples_from(&inputs::encode_all(&inputs::lrb_records(seed, n)));
    let (routed, forwarding) = through(&mut Forwarder::new(), &records);
    report.put(
        "operators.forwarder_ns_per_tuple",
        ns_per(forwarding, records.len()),
        "ns",
    );
    let (tolls, calculating) = through(&mut TollCalculator::new(), &routed);
    report.put(
        "operators.toll_calculator_ns_per_tuple",
        ns_per(calculating, routed.len()),
        "ns",
    );
    // The assessment sees the calculator's notifications and, on its other
    // input, everything the forwarder routed.
    let mut assessment = TollAssessment::new();
    let (_, a) = through(&mut assessment, &tolls);
    let (_, b) = through(&mut assessment, &routed);
    report.put(
        "operators.toll_assessment_ns_per_tuple",
        ns_per(a + b, tolls.len() + routed.len()),
        "ns",
    );
    Kernels {
        splitter_ns_per_fragment: splitter,
        word_count_ns_per_word: word_count,
    }
}

/// The checkpoint every state probe works on: a counter with `keys`
/// dictionary entries and an output buffer of `buffered` tuples.
fn big_checkpoint(report: &mut Report, keys: usize, buffered: usize, reps: usize) -> Checkpoint {
    let mut counter = WindowedWordCount::new(u64::MAX);
    counter.prepopulate(keys);
    let downstream = OperatorId::new(2);
    let mut buffer = BufferState::new();
    buffer.add_downstream(downstream);
    let payload = bytes::Bytes::from(vec![7u8; 24]);
    let pushing = timed(|| {
        for i in 0..buffered {
            buffer.push(
                downstream,
                Tuple::new(i as u64 + 1, Key::from_u64(i as u64), payload.clone()),
            );
        }
    })
    .1;
    report.put(
        "core.buffer_push_ns_per_tuple",
        ns_per(pushing, buffered),
        "ns",
    );

    let state = timed(|| counter.get_processing_state()).0;
    report.put(
        "operators.word_count_get_state_ms",
        median_ms(reps, || timed(|| counter.get_processing_state()).1),
        "ms",
    );
    report.put(
        "operators.word_count_state_bytes",
        state.size_bytes() as f64,
        "bytes",
    );
    let mut target = WindowedWordCount::new(u64::MAX);
    report.put(
        "operators.word_count_set_state_ms",
        median_ms(reps, || {
            let copy = state.clone();
            timed(|| target.set_processing_state(copy)).1
        }),
        "ms",
    );

    let owner = OperatorId::new(1);
    report.put(
        "core.checkpoint_state_ms",
        median_ms(reps, || {
            timed(|| checkpoint_state(owner, 1, &counter, &buffer)).1
        }),
        "ms",
    );
    let checkpoint = checkpoint_state(owner, 1, &counter, &buffer);

    // Trim the buffer in eight steps, as acknowledged checkpoints would.
    let step = (buffered / 8).max(1) as u64;
    let trimming = timed(|| {
        for i in 1..=8 {
            buffer.trim(downstream, i * step);
        }
    })
    .1;
    report.put(
        "core.buffer_trim_ns_per_tuple",
        ns_per(trimming, buffered),
        "ns",
    );
    checkpoint
}

fn core(report: &mut Report, checkpoint: &Checkpoint, reps: usize) {
    let batches: Vec<Vec<Tuple>> = (0..1_000u64)
        .map(|b| {
            (0..BATCH_SIZE as u64)
                .map(|i| Tuple::new(b * BATCH_SIZE as u64 + i + 1, Key(i), bytes::Bytes::new()))
                .collect()
        })
        .collect();
    let mut filter = DuplicateFilter::new();
    let admitting = timed(|| {
        for batch in &batches {
            std::hint::black_box(filter.accept_batch(STREAM, batch));
        }
    })
    .1;
    report.put(
        "core.dedup_accept_batch_ns",
        ns_per(admitting, batches.len()),
        "ns",
    );

    let encoded = checkpoint.to_bytes().expect("checkpoint encodes");
    report.put(
        "core.checkpoint_encode_ms",
        median_ms(reps, || timed(|| checkpoint.to_bytes()).1),
        "ms",
    );
    report.put(
        "core.checkpoint_encoded_bytes",
        encoded.len() as f64,
        "bytes",
    );

    let halves = KeyRange::full().split_even(2).expect("two halves");
    let (left, right) = (OperatorId::new(11), OperatorId::new(12));
    let assignment = [(left, halves[0]), (right, halves[1])];
    report.put(
        "core.partition_checkpoint_ms",
        median_ms(reps, || {
            timed(|| partition_checkpoint(checkpoint, &assignment)).1
        }),
        "ms",
    );
    let parts = partition_checkpoint(checkpoint, &assignment).expect("partition");
    report.put(
        "core.merge_checkpoints_ms",
        median_ms(reps, || {
            let (a, b) = (parts[0].clone(), parts[1].clone());
            timed(|| merge_checkpoints(OperatorId::new(13), (a, halves[0]), (b, halves[1]))).1
        }),
        "ms",
    );
    let mut target = WindowedWordCount::new(u64::MAX);
    report.put(
        "core.restore_state_ms",
        median_ms(reps, || {
            let copy = checkpoint.clone();
            timed(|| restore_state(&mut target, copy, RoutingState::new())).1
        }),
        "ms",
    );
}

fn store(report: &mut Report, checkpoint: &Checkpoint, out_dir: &std::path::Path, reps: usize) {
    let owner = checkpoint.meta.operator;
    let scratch = ScratchDir::create(out_dir, "store-probe").expect("create store directory");
    let open = |label: &str, fsync: bool| {
        FileStore::open(FileStoreConfig {
            fsync,
            ..FileStoreConfig::new(scratch.path().join(label))
        })
        .expect("open FileStore")
    };
    let put_ms = |store: &dyn CheckpointStore| {
        median_ms(reps, || {
            let copy = checkpoint.clone();
            timed(|| store.put(owner, copy).expect("put")).1
        })
    };
    let durable = open("fsync", true);
    let file_put_ms = put_ms(&durable);
    report.put("store.file_put_ms", file_put_ms, "ms");
    report.put(
        "store.file_put_mb_per_s",
        checkpoint.size_bytes() as f64 / 1e6 / (file_put_ms / 1e3),
        "MB/s",
    );
    report.put(
        "store.file_put_nofsync_ms",
        put_ms(&open("nofsync", false)),
        "ms",
    );
    let mem = MemStore::new();
    report.put("store.mem_put_ms", put_ms(&mem), "ms");

    let latest_ms = |store: &dyn CheckpointStore| {
        median_ms(reps, || timed(|| store.latest(owner).expect("latest")).1)
    };
    report.put("store.file_latest_ms", latest_ms(&durable), "ms");
    report.put("store.mem_latest_ms", latest_ms(&mem), "ms");

    let halves = KeyRange::full().split_even(2).expect("two halves");
    let (left, right) = (OperatorId::new(11), OperatorId::new(12));
    let assignment = [(left, halves[0]), (right, halves[1])];
    report.put(
        "store.partition_for_scale_out_ms",
        median_ms(reps, || {
            timed(|| durable.partition_for_scale_out(owner, &assignment)).1
        }),
        "ms",
    );
    let parts = durable
        .partition_for_scale_out(owner, &assignment)
        .expect("partition");
    durable.put(left, parts[0].clone()).expect("put left");
    durable.put(right, parts[1].clone()).expect("put right");
    report.put(
        "store.merge_for_scale_in_ms",
        median_ms(reps, || {
            timed(|| {
                durable.merge_for_scale_in(
                    OperatorId::new(13),
                    (left, halves[0]),
                    (right, halves[1]),
                )
            })
            .1
        }),
        "ms",
    );
}

fn net(report: &mut Report, seed: u64, envelopes: usize) -> Result<(), String> {
    let words = tuples_from(&inputs::encode_all(&inputs::fragments(seed, BATCH_SIZE)));
    let mut batch = TupleBatch::with_capacity(BATCH_SIZE);
    for tuple in words {
        batch.push(tuple, 0);
    }
    let envelope = Envelope::new(
        OperatorId::new(1),
        OperatorId::new(2),
        Message::data_batch(STREAM, batch),
    );

    let (tx, rx) = DataChannel::new(envelopes + 1);
    let hop = timed(|| {
        for _ in 0..envelopes {
            tx.send(envelope.clone()).expect("channel send");
        }
        rx.drain().len()
    });
    report.put(
        "net.channel_hop_ns_per_envelope",
        ns_per(hop.1, envelopes),
        "ns",
    );

    let encoded = wire::encode(&envelope);
    let tuples = envelopes * BATCH_SIZE;
    let encoding = timed(|| {
        for _ in 0..envelopes {
            std::hint::black_box(wire::encode(&envelope));
        }
    })
    .1;
    report.put(
        "net.wire_encode_ns_per_tuple",
        ns_per(encoding, tuples),
        "ns",
    );
    let decoding = timed(|| {
        for _ in 0..envelopes {
            std::hint::black_box(wire::decode(&encoded).expect("wire decode"));
        }
    })
    .1;
    report.put(
        "net.wire_decode_ns_per_tuple",
        ns_per(decoding, tuples),
        "ns",
    );
    report.put(
        "net.wire_bytes_per_tuple",
        wire::encoded_size(&envelope) as f64 / BATCH_SIZE as f64,
        "bytes",
    );

    // One sender thread, this thread polling the listener, loopback TCP.
    // The transport outlives the polling: the listener discards what it has
    // buffered from a connection the moment the peer closes it.
    let mut ingress = TcpIngress::bind("127.0.0.1:0").map_err(|e| format!("tcp probe: {e}"))?;
    let addr = ingress.local_addr().to_string();
    let transport = TcpTransport::new();
    let started = Instant::now();
    let delivered = std::thread::scope(|scope| {
        let sender =
            scope.spawn(|| (0..envelopes).all(|_| transport.send(&addr, &envelope).is_ok()));
        let mut delivered = 0;
        while delivered < envelopes && started.elapsed() < Duration::from_secs(30) {
            delivered += ingress.poll(&mut |_| {});
        }
        sender.join().expect("tcp sender thread") && delivered == envelopes
    });
    let hop = started.elapsed();
    if !delivered {
        return Err("tcp probe: not every envelope arrived".into());
    }
    report.put(
        "net.tcp_hop_us_per_envelope",
        hop.as_secs_f64() * 1e6 / envelopes as f64,
        "us",
    );
    report.put(
        "net.tcp_mb_per_s",
        (encoded.len() * envelopes) as f64 / 1e6 / hop.as_secs_f64(),
        "MB/s",
    );
    Ok(())
}

fn generators(report: &mut Report, seed: u64, n: usize) {
    let fragments = timed(|| inputs::fragments(seed, n)).1;
    report.put(
        "workloads.gen_fragments_per_s",
        n as f64 / fragments.as_secs_f64(),
        "1/s",
    );
    let records = timed(|| inputs::lrb_records(seed, n)).1;
    report.put(
        "workloads.gen_lrb_records_per_s",
        n as f64 / records.as_secs_f64(),
        "1/s",
    );
}

/// The saturation pipeline on a small input: what `inject`, `drain` and
/// `advance_to` cost, and how much of a drain is not operator kernels.
fn runtime_plane(report: &mut Report, seed: u64, chunks: usize, kernels: &Kernels) {
    const CHUNK: usize = 1_000;
    let pool = inputs::encode_all(&inputs::fragments(seed, CHUNK * chunks));
    let emitted = WordTotals::default();
    let (mut handle, deploying) =
        timed(|| jobs::wordfreq(RuntimeConfig::default(), 5_000, 0, &emitted));
    report.put("runtime.deploy_ms", deploying.as_secs_f64() * 1e3, "ms");

    let (mut injecting, mut draining) = (Duration::ZERO, Duration::ZERO);
    let (mut idle_ns, mut tick_us, mut ckpt_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut now_ms = 0;
    for (index, chunk) in pool.chunks(CHUNK).enumerate() {
        injecting += timed(|| {
            for (i, payload) in chunk.iter().enumerate() {
                let seq = (index * CHUNK + i) as u64 + 1;
                handle.inject(SOURCE, Key::from_u64(seq), payload.clone());
            }
        })
        .1;
        draining += timed(|| handle.drain()).1;
        idle_ns.push(timed(|| handle.drain()).1.as_nanos() as f64);
        // 1 000 virtual ms per chunk: every fifth advance crosses the
        // 5 000 ms checkpoint interval, the others only a tick.
        now_ms += 1_000;
        let advancing = timed(|| handle.advance_to(now_ms)).1;
        if now_ms % 5_000 == 0 {
            ckpt_ms.push(advancing.as_secs_f64() * 1e3);
        } else {
            tick_us.push(advancing.as_secs_f64() * 1e6);
        }
        draining += timed(|| handle.drain()).1;
    }
    let fragments = pool.len();
    report.put(
        "runtime.inject_ns_per_tuple",
        ns_per(injecting, fragments),
        "ns",
    );
    let drain_ns = ns_per(draining, fragments);
    report.put("runtime.drain_ns_per_tuple", drain_ns, "ns");
    let words = handle.processed_total(COUNTER) as f64 / fragments as f64;
    report.put(
        "runtime.drain_self_ns_per_tuple",
        drain_ns - kernels.splitter_ns_per_fragment - kernels.word_count_ns_per_word * words,
        "ns",
    );
    report.put("runtime.drain_idle_ns", median(&idle_ns), "ns");
    report.put("runtime.advance_tick_us", median(&tick_us), "us");
    report.put("runtime.advance_ckpt_ms", median(&ckpt_ms), "ms");

    let counter = handle.partitions(COUNTER)[0];
    let records: Vec<_> = handle
        .metrics()
        .checkpoints()
        .into_iter()
        .filter(|c| c.operator == counter)
        .collect();
    let of = |f: fn(&seep_runtime::metrics::CheckpointRecord) -> f64| {
        median(&records.iter().map(f).collect::<Vec<_>>())
    };
    report.put(
        "runtime.ckpt_us_p50.word_counter",
        of(|c| c.duration_us as f64),
        "us",
    );
    report.put(
        "runtime.ckpt_stored_bytes.word_counter",
        of(|c| c.stored_bytes as f64),
        "bytes",
    );
}

/// The reconfiguration workloads' job, taken through scale out → failure
/// and recovery → scale in a few times, for the runtime's own phase timings.
fn runtime_reconfig(
    report: &mut Report,
    seed: u64,
    out_dir: &std::path::Path,
    keys: usize,
    cycles: usize,
) {
    const FEED: usize = 5_000;
    let scratch = ScratchDir::create(out_dir, "reconfig-probe").expect("create store directory");
    let pool = inputs::encode_all(&inputs::fragments(seed, FEED));
    let emitted = WordTotals::default();
    let config = RuntimeConfig::default()
        .with_checkpoint_interval(1_000)
        .with_store(StoreConfig::file(scratch.path()).with_fsync_every(1));
    let mut handle = jobs::wordfreq(config, 3_600_000, keys, &emitted);
    let (mut seq, mut now_ms) = (0u64, 0u64);
    let mut catchup: [Vec<f64>; 3] = Default::default();
    for _ in 0..cycles {
        for (step, drains) in catchup.iter_mut().enumerate() {
            for payload in &pool {
                seq += 1;
                handle.inject(SOURCE, Key::from_u64(seq), payload.clone());
            }
            now_ms += FEED as u64;
            handle.advance_to(now_ms);
            handle.drain();
            let parts = handle.partitions(COUNTER);
            let outcome = match step {
                0 => handle.scale_out(parts[0], 2).map(|_| ()),
                1 => {
                    handle.fail_operator(parts[1]);
                    handle.recover(parts[1], 1).map(|_| ())
                }
                _ => handle.scale_in(parts[0], parts[1]).map(|_| ()),
            };
            outcome.expect("reconfiguration probe");
            drains.push(timed(|| handle.drain()).1.as_secs_f64() * 1e3);
        }
    }
    let metrics = handle.metrics();
    let recoveries: Vec<ReconfigTiming> = metrics.recoveries().iter().map(|r| r.timing).collect();
    // A recovery is also recorded as the scale out it is executed as.
    let scale_outs: Vec<ReconfigTiming> = metrics
        .scale_outs()
        .iter()
        .map(|r| r.timing)
        .filter(|t| !recoveries.contains(t))
        .collect();
    let scale_ins: Vec<ReconfigTiming> = metrics.scale_ins().iter().map(|r| r.timing).collect();
    for (kind, timings, drains) in [
        ("scale_out", scale_outs, &catchup[0]),
        ("recovery", recoveries, &catchup[1]),
        ("scale_in", scale_ins, &catchup[2]),
    ] {
        runstats::put_phase_medians(report, &format!("runtime.{kind}"), &timings);
        report.put(
            format!("runtime.catchup_drain_ms.{kind}"),
            median(drains),
            "ms",
        );
    }
}

/// The wall time of a cluster run is `idle + rounds × (fixed + rate ×
/// per-tuple)`: an idle cluster and two short runs at different rates give
/// the fixed and the per-tuple cost of a distributed round. The in-process
/// baseline gives what the same job costs without the cluster.
fn node(report: &mut Report, args: &RunArgs) -> Result<(), String> {
    let scratch = ScratchDir::create(&args.out_dir, "node-probe").map_err(|e| e.to_string())?;
    let mut tracer = Tracer::new(false);
    let rounds = 3;
    let (low_rate, high_rate) = (dist::RATE / 10, dist::RATE);
    let mut cluster = |rounds: u64, rate: u64, observe: bool| {
        dist::run_cluster(
            &args.node_bin,
            scratch.path(),
            rounds,
            rate,
            observe,
            &mut tracer,
        )
    };
    let idle_ms = cluster(0, low_rate, false)?.wall.as_secs_f64() * 1e3;
    let low_ms = cluster(rounds, low_rate, false)?.wall.as_secs_f64() * 1e3;
    let high = cluster(rounds, high_rate, true)?;
    let high_ms = high.wall.as_secs_f64() * 1e3;
    let tuple_us = (high_ms - low_ms) * 1e3 / (rounds * (high_rate - low_rate)) as f64;
    report.put("node.tuple_us", tuple_us, "us");
    report.put(
        "node.round_fixed_ms",
        (low_ms - idle_ms) / rounds as f64 - tuple_us * low_rate as f64 / 1e3,
        "ms",
    );
    let baseline_rounds = 8;
    let (_, baseline) =
        dist::run_baseline(&args.node_bin, scratch.path(), baseline_rounds, high_rate)?;
    let baseline_rate = (baseline_rounds * high_rate) as f64 / baseline.as_secs_f64();
    report.put("node.baseline_tuples_per_s", baseline_rate, "tuples/s");
    let tuples = (rounds * high_rate) as f64;
    report.put(
        "node.dist_slowdown_x",
        baseline_rate / (tuples / ((high_ms - idle_ms) / 1e3)),
        "x",
    );
    report.put(
        "node.transport_bytes_per_tuple",
        high.transport_bytes() / tuples,
        "bytes",
    );
    report.put("node.checkpoints_total", high.checkpoints(), "count");
    Ok(())
}

/// Run the whole suite, adding its metrics to `report`.
pub fn run_all(args: &RunArgs, report: &mut Report) -> Result<(), String> {
    let scale = if args.quick { 10 } else { 1 };
    let reps = if args.quick { 1 } else { 2 };
    let started = Instant::now();
    let mut lap = Instant::now();
    let mut section = |report: &mut Report, name: &str| {
        report.put(
            format!("driver.probe_s.{name}"),
            lap.elapsed().as_secs_f64(),
            "s",
        );
        lap = Instant::now();
    };
    let kernels = operators(report, args.seed, 6_400 / scale);
    section(report, "operators");
    let checkpoint = big_checkpoint(report, STATE_KEYS / scale, 50_000 / scale, reps);
    core(report, &checkpoint, reps);
    section(report, "core");
    store(report, &checkpoint, &args.out_dir, reps);
    section(report, "store");
    net(report, args.seed, 1_000 / scale)?;
    generators(report, args.seed, 20_000 / scale);
    section(report, "net");
    runtime_plane(report, args.seed, 10, &kernels);
    runtime_reconfig(report, args.seed, &args.out_dir, 40_000 / scale, reps);
    section(report, "runtime");
    node(report, args)?;
    section(report, "node");
    report.put("driver.probe_suite_s", started.elapsed().as_secs_f64(), "s");
    Ok(())
}
