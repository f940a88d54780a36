//! Runtime-based experiments: Figs 11–15 (failure recovery and state
//! management overhead on the windowed word-frequency query).
//!
//! These run the real mechanisms — real operators, serialising channels,
//! checkpoints, backups, restore and replay — at the paper's input rates
//! (100–1000 tuples/s). Virtual time controls *when* checkpoints and the
//! failure happen; the reported recovery times and latencies are wall-clock
//! measurements of the actual work performed, so absolute values are
//! machine-dependent but the trends across strategies, intervals, rates and
//! state sizes are directly comparable with the paper's figures.

use serde::{Deserialize, Serialize};

use seep_runtime::{FusionPolicy, RecoveryStrategy, RuntimeConfig, ScalingPolicy, SplitPolicy};
use seep_workloads::LrbConfig;

use crate::harness::{LrbSkewHarness, WordCountHarness};

/// Default warm-up length before the failure is injected: one 30 s window,
/// as in §6.2.
pub const DEFAULT_WARMUP_S: u64 = 30;

/// One recovery measurement.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RecoveryMeasurement {
    /// Fault-tolerance strategy label ("R+SM", "UB", "SR").
    pub strategy: String,
    /// Input rate in tuples/s (sentence fragments per second).
    pub rate: u64,
    /// Checkpointing interval in seconds (0 = no checkpointing).
    pub checkpoint_interval_s: u64,
    /// Recovery parallelism (1 = serial).
    pub parallelism: usize,
    /// Measured recovery time in milliseconds.
    pub recovery_ms: f64,
    /// Tuples replayed during recovery.
    pub replayed: usize,
}

fn config_for(strategy: RecoveryStrategy, checkpoint_interval_s: u64) -> RuntimeConfig {
    let mut config = RuntimeConfig::default().with_strategy(strategy);
    config.checkpoint_interval_ms = checkpoint_interval_s.max(1) * 1_000;
    config
}

fn measure_recovery(
    strategy: RecoveryStrategy,
    rate: u64,
    checkpoint_interval_s: u64,
    warmup_s: u64,
    parallelism: usize,
) -> RecoveryMeasurement {
    let config = config_for(strategy, checkpoint_interval_s);
    let mut harness = WordCountHarness::deploy(config, 10_000, 0);
    harness.run_for(warmup_s, rate);
    // Fail just before the *next* checkpoint would fire, so the measurement
    // captures the worst case the paper describes ("in the worst case it must
    // replay c seconds worth of tuples"). Without this, a warm-up that is a
    // multiple of the interval would always fail right after a checkpoint and
    // under-state the replay cost of long intervals.
    if strategy.checkpoints() && checkpoint_interval_s > 1 {
        let elapsed_s = harness.handle.now_ms() / 1_000;
        let since_last = elapsed_s % checkpoint_interval_s;
        let extra = checkpoint_interval_s - 1 - since_last.min(checkpoint_interval_s - 1);
        if extra > 0 {
            harness.run_for(extra, rate);
        }
    }
    let words_before = harness.total_counted_words();
    let recovery_ms = harness.fail_and_recover(parallelism);
    let replayed = harness
        .handle
        .metrics()
        .recoveries()
        .last()
        .map(|r| r.replayed_tuples)
        .unwrap_or(0);
    // Sanity: recovery must restore the full word count.
    debug_assert_eq!(harness.total_counted_words(), words_before);
    let _ = words_before;
    RecoveryMeasurement {
        strategy: strategy.label().to_string(),
        rate,
        checkpoint_interval_s,
        parallelism,
        recovery_ms,
        replayed,
    }
}

/// Fig. 11: recovery time of R+SM (checkpoint interval 5 s) vs source replay
/// vs upstream backup, for the given input rates.
pub fn recovery_by_strategy(rates: &[u64], warmup_s: u64) -> Vec<RecoveryMeasurement> {
    let mut out = Vec::new();
    for &rate in rates {
        out.push(measure_recovery(
            RecoveryStrategy::StateManagement,
            rate,
            5,
            warmup_s,
            1,
        ));
        out.push(measure_recovery(
            RecoveryStrategy::SourceReplay,
            rate,
            0,
            warmup_s,
            1,
        ));
        out.push(measure_recovery(
            RecoveryStrategy::UpstreamBackup,
            rate,
            0,
            warmup_s,
            1,
        ));
    }
    out
}

/// Fig. 12: recovery time of R+SM as a function of the checkpointing interval
/// for each input rate.
pub fn recovery_by_interval(
    intervals_s: &[u64],
    rates: &[u64],
    warmup_s: u64,
) -> Vec<RecoveryMeasurement> {
    let mut out = Vec::new();
    for &rate in rates {
        for &interval in intervals_s {
            out.push(measure_recovery(
                RecoveryStrategy::StateManagement,
                rate,
                interval,
                warmup_s,
                1,
            ));
        }
    }
    out
}

/// Fig. 13: serial (π=1) vs parallel (π=2) recovery across checkpoint
/// intervals at a fixed rate (the paper uses 500 tuples/s).
pub fn parallel_recovery(
    intervals_s: &[u64],
    rate: u64,
    warmup_s: u64,
) -> Vec<RecoveryMeasurement> {
    let mut out = Vec::new();
    for &interval in intervals_s {
        out.push(measure_recovery(
            RecoveryStrategy::StateManagement,
            rate,
            interval,
            warmup_s,
            1,
        ));
        out.push(measure_recovery(
            RecoveryStrategy::StateManagement,
            rate,
            interval,
            warmup_s,
            2,
        ));
    }
    out
}

/// One latency-overhead measurement (Figs 14 and 15).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct OverheadMeasurement {
    /// Label for the state size ("small", "medium", "large", "none").
    pub state_size: String,
    /// Number of dictionary entries pre-populated in the word counter.
    pub entries: usize,
    /// Input rate in tuples/s.
    pub rate: u64,
    /// Checkpoint interval in seconds (0 = checkpointing disabled).
    pub checkpoint_interval_s: u64,
    /// Median per-tuple processing latency (ms), measured at the stateful
    /// operator.
    pub latency_p50_ms: f64,
    /// 95th-percentile per-tuple processing latency (ms).
    pub latency_p95_ms: f64,
    /// Mean checkpoint duration (ms) over the run.
    pub mean_checkpoint_ms: f64,
}

fn measure_overhead(
    entries: usize,
    label: &str,
    rate: u64,
    checkpoint_interval_s: u64,
    duration_s: u64,
) -> OverheadMeasurement {
    let mut config = if checkpoint_interval_s == 0 {
        RuntimeConfig::default().with_strategy(RecoveryStrategy::UpstreamBackup)
    } else {
        RuntimeConfig::default().with_checkpoint_interval(checkpoint_interval_s * 1_000)
    };
    config.latency_probe_at_stateful = true;
    let mut harness = WordCountHarness::deploy(config, 10_000, entries);
    harness.run_for(duration_s, rate);
    let metrics = harness.handle.metrics();
    let checkpoints = metrics.checkpoints();
    let mean_checkpoint_ms = if checkpoints.is_empty() {
        0.0
    } else {
        checkpoints
            .iter()
            .map(|c| c.duration_us as f64)
            .sum::<f64>()
            / checkpoints.len() as f64
            / 1_000.0
    };
    OverheadMeasurement {
        state_size: label.to_string(),
        entries,
        rate,
        checkpoint_interval_s,
        latency_p50_ms: metrics.latency_percentile_ms(50.0),
        latency_p95_ms: metrics.latency_percentile_ms(95.0),
        mean_checkpoint_ms,
    }
}

/// Fig. 14: 95th-percentile processing latency for small (10²), medium (10⁴)
/// and large (10⁵ entries) operator state at several input rates, with a 5 s
/// checkpoint interval, plus a no-checkpointing baseline.
pub fn state_size_overhead(rates: &[u64], duration_s: u64) -> Vec<OverheadMeasurement> {
    let sizes: [(usize, &str); 3] = [(100, "small"), (10_000, "medium"), (100_000, "large")];
    let mut out = Vec::new();
    for &rate in rates {
        for (entries, label) in sizes {
            out.push(measure_overhead(entries, label, rate, 5, duration_s));
        }
        out.push(measure_overhead(0, "none", rate, 0, duration_s));
    }
    out
}

/// A row of the latency / recovery-time trade-off (Fig. 15).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TradeoffRow {
    /// Checkpoint interval (s).
    pub checkpoint_interval_s: u64,
    /// 95th-percentile processing latency (ms).
    pub latency_p95_ms: f64,
    /// Recovery time (ms) after a failure with that interval.
    pub recovery_ms: f64,
}

/// Fig. 15: for each checkpoint interval, the processing-latency overhead and
/// the recovery time it buys (the paper uses 1000 tuples/s).
pub fn interval_tradeoff(intervals_s: &[u64], rate: u64, duration_s: u64) -> Vec<TradeoffRow> {
    intervals_s
        .iter()
        .map(|&interval| {
            let overhead = measure_overhead(10_000, "medium", rate, interval, duration_s);
            let recovery = measure_recovery(
                RecoveryStrategy::StateManagement,
                rate,
                interval,
                duration_s,
                1,
            );
            TradeoffRow {
                checkpoint_interval_s: interval,
                latency_p95_ms: overhead.latency_p95_ms,
                recovery_ms: recovery.recovery_ms,
            }
        })
        .collect()
}

/// One checkpoint-store backend comparison row: the same warm-up, failure
/// and recovery measured against a different `seep-store` backend.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BackendMeasurement {
    /// Backend label ("mem", "file", "tiered"), plus "+syncN" when records
    /// are fsynced.
    pub backend: String,
    /// Bytes the word counter's first, full checkpoint put into the store.
    pub full_checkpoint_bytes: u64,
    /// Median bytes one later round's delta put into the store.
    pub delta_bytes_per_round: u64,
    /// Measured recovery time in milliseconds.
    pub recovery_ms: f64,
    /// Tuples replayed during recovery.
    pub replayed: usize,
    /// Bytes written to the store by `backup-state` over the run.
    pub write_bytes: u64,
    /// Cumulative store write latency (µs).
    pub write_us: u64,
    /// Bytes read back from the store during recovery.
    pub restore_bytes: u64,
    /// Mean checkpoint duration (ms), including the backup write.
    pub mean_checkpoint_ms: f64,
    /// `sync_data` calls the backend issued (0 unless `fsync` was on; sync
    /// coalescing shrinks this without changing `write_bytes`).
    pub syncs: u64,
}

fn measure_backend(
    store: seep_runtime::StoreConfig,
    rate: u64,
    warmup_s: u64,
) -> BackendMeasurement {
    let mut label = store.label().to_string();
    if store.fsync {
        label.push_str(&format!("+sync{}", store.sync_every_n_frames.max(1)));
    }
    let backend_label = store.label();
    let mut config = RuntimeConfig::default().with_store(store);
    config.checkpoint_interval_ms = 2_000;
    // A dictionary that is large next to what one interval touches: the
    // case periodic checkpoints have to be cheap for.
    let mut harness = WordCountHarness::deploy(config, 10_000, 50_000);
    harness.run_for(warmup_s, rate);
    let counter = harness.counter_instance();
    let words_before = harness.total_counted_words();
    let recovery_ms = harness.fail_and_recover(1);
    assert_eq!(
        harness.total_counted_words(),
        words_before,
        "backend {label} lost state across recovery"
    );
    let metrics = harness.handle.metrics();
    let io = metrics.store_io(backend_label);
    let checkpoints = metrics.checkpoints();
    let mean_checkpoint_ms = if checkpoints.is_empty() {
        0.0
    } else {
        checkpoints
            .iter()
            .map(|c| c.duration_us as f64)
            .sum::<f64>()
            / checkpoints.len() as f64
            / 1_000.0
    };
    let replayed = metrics
        .recoveries()
        .last()
        .map(|r| r.replayed_tuples)
        .unwrap_or(0);
    let stored = |incremental: bool| -> Vec<u64> {
        checkpoints
            .iter()
            .filter(|c| c.operator == counter && c.incremental == incremental)
            .map(|c| c.stored_bytes as u64)
            .collect()
    };
    let mut deltas = stored(true);
    deltas.sort_unstable();
    BackendMeasurement {
        backend: label,
        full_checkpoint_bytes: stored(false).first().copied().unwrap_or(0),
        delta_bytes_per_round: deltas.get(deltas.len() / 2).copied().unwrap_or(0),
        recovery_ms,
        replayed,
        write_bytes: io.write_bytes,
        write_us: io.write_us,
        restore_bytes: io.restore_bytes,
        mean_checkpoint_ms,
        syncs: harness.handle.store_stats().syncs,
    }
}

/// Compare recovery and checkpoint I/O of the three checkpoint-store
/// backends (plus the file backend with per-record vs coalesced fsync) on
/// the same word-count failure scenario.
/// `dir` roots the on-disk backends' logs.
pub fn recovery_by_backend(
    rate: u64,
    warmup_s: u64,
    dir: &std::path::Path,
) -> Vec<BackendMeasurement> {
    use seep_runtime::StoreConfig;
    let _ = std::fs::remove_dir_all(dir);
    vec![
        measure_backend(StoreConfig::mem(), rate, warmup_s),
        measure_backend(StoreConfig::file(dir.join("file")), rate, warmup_s),
        measure_backend(
            StoreConfig::file(dir.join("file-sync1")).with_fsync_every(1),
            rate,
            warmup_s,
        ),
        measure_backend(
            StoreConfig::file(dir.join("file-sync8")).with_fsync_every(8),
            rate,
            warmup_s,
        ),
        measure_backend(StoreConfig::tiered(dir.join("tiered")), rate, warmup_s),
    ]
}

/// One leg of the skew-aware-repartitioning experiment: the LRB pipeline
/// under expressway skew, with the toll calculator split two ways by the
/// given strategy, measured after the reconfiguration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SkewMeasurement {
    /// Split strategy label ("even", "distribution", "rebalance").
    pub split: String,
    /// Tuples processed by each toll-calculator partition during the
    /// measurement window, in partition order.
    pub partition_tuples: Vec<u64>,
    /// Per-partition tuple imbalance: hottest partition's tuple count over
    /// the ideal equal share (1.0 = perfectly balanced).
    pub tuple_imbalance: f64,
    /// Imbalance the plan predicted from its checkpoint sample when it chose
    /// the split (0.0 when no sample was taken).
    pub predicted_imbalance: f64,
    /// 99th-percentile end-to-end latency (ms) over the measurement window.
    pub latency_p99_ms: f64,
    /// Reconfigurations taken (scale outs + rebalances).
    pub reconfigurations: usize,
    /// Wall-clock cost of the last reconfiguration (µs), from its plan
    /// timing.
    pub reconfig_us: u64,
}

fn tuple_imbalance(counts: &[u64]) -> f64 {
    if counts.is_empty() {
        return 1.0;
    }
    let total: u64 = counts.iter().sum();
    if total == 0 {
        return 1.0;
    }
    let ideal = total as f64 / counts.len() as f64;
    counts.iter().copied().max().unwrap_or(0) as f64 / ideal
}

/// The skewed LRB workload the experiment feeds: `l` expressways with 80 %
/// of the vehicles on expressway 0's first 8 inbound segments.
fn skewed_workload(l: u16, duration_s: u64) -> LrbConfig {
    LrbConfig {
        expressways: l,
        duration_secs: duration_s as u32,
        ..Default::default()
    }
    .with_skew(0.8, 8)
}

fn measure_skew_leg(
    label: &str,
    split: SplitPolicy,
    rebalance: bool,
    l: u16,
    warmup_s: u64,
    measure_s: u64,
) -> SkewMeasurement {
    let config = RuntimeConfig::default().with_split(split);
    let total_s = warmup_s + measure_s + if rebalance { warmup_s } else { 0 };
    let mut h = LrbSkewHarness::deploy(config, skewed_workload(l, total_s));
    // Warm up past at least one checkpoint so the split samples real state.
    h.run_for(warmup_s.max(6));
    let target = h.handle.partitions(h.calculator)[0];
    h.handle.scale_out(target, 2).expect("scale out");
    h.handle.drain();
    if rebalance {
        // Let the even split's skew manifest, then repartition in place.
        h.run_for(warmup_s.max(3));
        h.handle
            .rebalance_operator(h.calculator)
            .expect("rebalance");
        h.handle.drain();
    }
    h.handle.metrics().reset_latencies();
    let before: Vec<(seep_core::OperatorId, u64)> = h.calculator_processed();
    h.run_for(measure_s);
    let after = h.calculator_processed();
    let partition_tuples: Vec<u64> = after
        .iter()
        .map(|(id, n)| {
            let base = before
                .iter()
                .find(|(bid, _)| bid == id)
                .map(|(_, b)| *b)
                .unwrap_or(0);
            n - base
        })
        .collect();
    let metrics = h.handle.metrics();
    // The leg's plans are the scale out and, when asked for, the rebalance
    // after it: the last one drew the boundaries that were measured.
    let plans = metrics.reconfigs();
    let reconfigurations = plans.len();
    let last_timing = plans.last().map(|r| r.timing).unwrap_or_default();
    SkewMeasurement {
        split: label.to_string(),
        tuple_imbalance: tuple_imbalance(&partition_tuples),
        partition_tuples,
        predicted_imbalance: last_timing.post_split_imbalance,
        latency_p99_ms: metrics.latency_percentile_ms(99.0),
        reconfigurations,
        reconfig_us: last_timing.total_us,
    }
}

/// The skew experiment: split the toll calculator of an expressway-skewed
/// LRB run two ways — evenly (the seed behaviour), distribution-guided at
/// split time, and even-then-rebalanced — and compare per-partition tuple
/// imbalance, tail latency and reconfiguration cost.
pub fn skew_experiment(l: u16, warmup_s: u64, measure_s: u64) -> Vec<SkewMeasurement> {
    vec![
        measure_skew_leg("even", SplitPolicy::Even, false, l, warmup_s, measure_s),
        measure_skew_leg(
            "distribution",
            SplitPolicy::skew_aware(),
            false,
            l,
            warmup_s,
            measure_s,
        ),
        measure_skew_leg("rebalance", SplitPolicy::Even, true, l, warmup_s, measure_s),
    ]
}

/// One phase of the threaded-runtime elasticity run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RuntimeElasticityPhase {
    /// Phase label ("ramp-up", "plateau", "ramp-down", "tail").
    pub phase: String,
    /// VMs running at the end of the phase.
    pub end_vms: usize,
    /// Partitions of the stateful word counter at the end of the phase.
    pub end_parallelism: usize,
}

/// Result of driving the *threaded* runtime (not the simulator) through a
/// trapezoid load profile with the bidirectional scaling policy — the
/// wall-clock counterpart to `sim_experiments::elasticity`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RuntimeElasticityResult {
    /// Per-phase VM counts.
    pub phases: Vec<RuntimeElasticityPhase>,
    /// Scale-out actions taken.
    pub scale_outs: usize,
    /// Scale-in actions taken.
    pub scale_ins: usize,
    /// Mean wall-clock cost of a scale-out reconfiguration (µs), from the
    /// plans' phase timings.
    pub mean_scale_out_us: f64,
    /// Mean wall-clock cost of a scale-in reconfiguration (µs).
    pub mean_scale_in_us: f64,
    /// Peak VM count over the run.
    pub peak_vms: usize,
    /// VM count at the end of the run.
    pub final_vms: usize,
    /// Total VM-seconds billed over the run, from the provider's billing
    /// ledger (virtual time) — the pay-as-you-go figure the elasticity bin
    /// prints next to the reconfiguration counts.
    pub vm_seconds: f64,
    /// Median per-tuple processing latency over the whole run (ms), probed
    /// at the stateful word counter: the sink only receives window results,
    /// and the 30 s window outlasts a smoke run. `None` (JSON `null`) when no
    /// tuple was sampled — never a made-up 0.
    #[serde(default)]
    pub latency_p50_ms: Option<f64>,
    /// 95th-percentile processing latency (ms), as above.
    #[serde(default)]
    pub latency_p95_ms: Option<f64>,
    /// 99th-percentile processing latency (ms), as above.
    #[serde(default)]
    pub latency_p99_ms: Option<f64>,
}

/// Drive the threaded runtime's word-count query through a trapezoid rate
/// profile with auto-scaling in both directions, and report the wall-clock
/// reconfiguration costs measured by the plan executor. The utilisation
/// threshold is calibrated to wall-clock busy time per virtual second
/// (`threshold` ≈ the busy fraction a partition reaches at the peak rate on
/// the host machine), since the runtime measures real CPU cost against
/// virtual time.
pub fn runtime_elasticity(
    ramp_up_s: u64,
    plateau_s: u64,
    ramp_down_s: u64,
    tail_s: u64,
    base_rate: u64,
    peak_rate: u64,
    threshold: f64,
) -> RuntimeElasticityResult {
    use seep_workloads::RateSchedule;

    let mut policy = ScalingPolicy::default()
        .with_threshold(threshold)
        .with_scale_in(threshold / 2.5);
    policy.report_interval_ms = 1_000;
    policy.scale_in_reports = 3;
    let config = RuntimeConfig {
        scaling_policy: policy,
        latency_probe_at_stateful: true,
        ..RuntimeConfig::default()
    };
    // Fusion stays on but the planner's fused-edge batch heuristic is pinned
    // off: the utilisation threshold below is calibrated to per-tuple
    // dispatch cost, and a batched counter inlet would amortise that cost
    // under the watermark before the load ever looked hot.
    let mut h =
        WordCountHarness::deploy_with_fusion(config, 5_000, 0, FusionPolicy::FuseKeepBatches);
    h.handle.set_auto_scale(true);

    let profile = RateSchedule::Trapezoid {
        base: base_rate as f64,
        peak: peak_rate as f64,
        ramp_up_ms: ramp_up_s * 1_000,
        plateau_ms: plateau_s * 1_000,
        ramp_down_ms: ramp_down_s * 1_000,
    };
    let mut peak_vms = h.handle.vm_count();
    let mut phases = Vec::new();
    let bounds = [
        ("ramp-up", ramp_up_s),
        ("plateau", plateau_s),
        ("ramp-down", ramp_down_s),
        ("tail", tail_s),
    ];
    let mut elapsed = 0u64;
    for (label, len_s) in bounds {
        for _ in 0..len_s {
            let rate = profile.rate_at(elapsed * 1_000).round() as u64;
            h.run_for(1, rate);
            elapsed += 1;
            peak_vms = peak_vms.max(h.handle.vm_count());
        }
        phases.push(RuntimeElasticityPhase {
            phase: label.to_string(),
            end_vms: h.handle.vm_count(),
            end_parallelism: h.handle.parallelism(h.counter),
        });
    }
    let metrics = h.handle.metrics();
    let outs = metrics.scale_outs();
    let ins = metrics.scale_ins();
    let mean = |us: Vec<u64>| {
        if us.is_empty() {
            0.0
        } else {
            us.iter().sum::<u64>() as f64 / us.len() as f64
        }
    };
    let vm_seconds = h.handle.provider().total_vm_hours(h.handle.now_ms()) * 3_600.0;
    let percentile_ms =
        |p: f64| (metrics.latency_samples() > 0).then(|| metrics.latency_percentile_ms(p));
    RuntimeElasticityResult {
        phases,
        scale_outs: outs.len(),
        scale_ins: ins.len(),
        mean_scale_out_us: mean(outs.iter().map(|r| r.timing.total_us).collect()),
        mean_scale_in_us: mean(ins.iter().map(|r| r.timing.total_us).collect()),
        peak_vms,
        final_vms: h.handle.vm_count(),
        vm_seconds,
        latency_p50_ms: percentile_ms(50.0),
        latency_p95_ms: percentile_ms(95.0),
        latency_p99_ms: percentile_ms(99.0),
    }
}

/// Result of the threaded-runtime consolidation demo: a partitioned word
/// counter packed onto shared VM slots, with the billing effect measured.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RuntimeConsolidateResult {
    /// Partitions of the word counter (unchanged by the consolidation).
    pub parallelism: usize,
    /// VMs running before the consolidation.
    pub vms_before: usize,
    /// VMs running after the consolidation.
    pub vms_after: usize,
    /// VMs released by the packing.
    pub vms_released: usize,
    /// Wall-clock cost of the consolidation plan (µs).
    pub plan_us: u64,
    /// VM-seconds that one virtual hour of the pre-consolidation deployment
    /// would bill.
    pub vm_seconds_per_hour_before: f64,
    /// VM-seconds that one virtual hour bills after the consolidation —
    /// the released VMs' meters have stopped.
    pub vm_seconds_per_hour_after: f64,
    /// Words counted across all partitions after the consolidation and a
    /// catch-up drain (for the equivalence check against `expected_words`).
    pub counted_words: u64,
    /// Words counted by an identical run that never reconfigured.
    pub expected_words: u64,
}

/// Drive the threaded runtime's word-count query to four partitions, let the
/// load drop, consolidate the partitions onto two-slot VMs and report the
/// billing effect: the packed deployment keeps its parallelism while the
/// emptied VMs stop accruing VM-seconds. The word counts are compared with a
/// never-reconfigured run so the demo doubles as an equivalence check.
pub fn runtime_consolidate(seconds: u64, rate: u64) -> RuntimeConsolidateResult {
    let run = |consolidate: bool| -> (u64, Option<RuntimeConsolidateResult>) {
        let config = RuntimeConfig {
            pool: seep_cloud::VmPoolConfig::default().with_slots_per_vm(2),
            ..RuntimeConfig::default()
        };
        let mut h = WordCountHarness::deploy(config, 5_000, 0);
        let warmup = (seconds / 2).max(1);
        h.run_for(warmup, rate);
        if !consolidate {
            h.run_for(seconds - warmup, rate);
            return (h.total_counted_words(), None);
        }
        let target = h.counter_instance();
        h.handle.scale_out(target, 4).expect("scale out");
        h.handle.drain();
        let vms_before = h.handle.vm_count();
        let hours_before = h.handle.provider().total_vm_hours(h.handle.now_ms());
        let billed_before = {
            let now = h.handle.now_ms();
            (h.handle.provider().total_vm_hours(now + 3_600_000) - hours_before) * 3_600.0
        };
        let outcome = h.handle.consolidate(h.counter).expect("consolidate");
        h.handle.drain();
        let vms_after = h.handle.vm_count();
        let billed_after = {
            let now = h.handle.now_ms();
            (h.handle.provider().total_vm_hours(now + 3_600_000)
                - h.handle.provider().total_vm_hours(now))
                * 3_600.0
        };
        h.run_for(seconds - warmup, rate);
        (
            h.total_counted_words(),
            Some(RuntimeConsolidateResult {
                parallelism: h.handle.parallelism(h.counter),
                vms_before,
                vms_after,
                vms_released: outcome.released_vms.len(),
                plan_us: outcome.timing.total_us,
                vm_seconds_per_hour_before: billed_before,
                vm_seconds_per_hour_after: billed_after,
                counted_words: 0,
                expected_words: 0,
            }),
        )
    };
    let (expected_words, _) = run(false);
    let (counted_words, result) = run(true);
    let mut result = result.expect("consolidating run returns a result");
    result.counted_words = counted_words;
    result.expected_words = expected_words;
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recovery_by_strategy_returns_three_rows_per_rate() {
        // Warm up past the first checkpoint (5 s) so R+SM has a backup to
        // restore from; otherwise it degenerates to replaying everything.
        let rows = recovery_by_strategy(&[50], 6);
        assert_eq!(rows.len(), 3);
        let rsm = rows.iter().find(|r| r.strategy == "R+SM").unwrap();
        let ub = rows.iter().find(|r| r.strategy == "UB").unwrap();
        // R+SM replays at most the tuples since the last checkpoint; UB
        // replays everything buffered since the start of the window.
        assert!(rsm.replayed <= ub.replayed);
    }

    #[test]
    fn longer_checkpoint_interval_replays_more() {
        let rows = recovery_by_interval(&[1, 10], &[100], 10);
        assert_eq!(rows.len(), 2);
        let short = &rows[0];
        let long = &rows[1];
        assert!(short.checkpoint_interval_s < long.checkpoint_interval_s);
        assert!(
            short.replayed <= long.replayed,
            "short interval must replay fewer tuples ({} vs {})",
            short.replayed,
            long.replayed
        );
    }

    #[test]
    fn parallel_recovery_produces_both_parallelisms() {
        let rows = parallel_recovery(&[5], 50, 3);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].parallelism, 1);
        assert_eq!(rows[1].parallelism, 2);
    }

    #[test]
    fn overhead_measurement_records_latency_and_checkpoints() {
        let rows = state_size_overhead(&[100], 6);
        assert_eq!(rows.len(), 4);
        let large = rows.iter().find(|r| r.state_size == "large").unwrap();
        let none = rows.iter().find(|r| r.state_size == "none").unwrap();
        assert!(large.latency_p95_ms >= 0.0);
        assert_eq!(none.mean_checkpoint_ms, 0.0);
        assert!(large.mean_checkpoint_ms > 0.0);
    }

    #[test]
    fn tradeoff_rows_cover_requested_intervals() {
        let rows = interval_tradeoff(&[2, 8], 100, 4);
        assert_eq!(rows.len(), 2);
        assert!(rows.iter().all(|r| r.recovery_ms >= 0.0));
    }

    #[test]
    fn skew_experiment_distribution_and_rebalance_beat_even_split() {
        let rows = skew_experiment(2, 8, 8);
        assert_eq!(rows.len(), 3);
        let even = rows.iter().find(|r| r.split == "even").unwrap();
        let dist = rows.iter().find(|r| r.split == "distribution").unwrap();
        let reb = rows.iter().find(|r| r.split == "rebalance").unwrap();
        assert_eq!(even.partition_tuples.len(), 2);
        assert!(even.partition_tuples.iter().sum::<u64>() > 0);
        assert!(
            even.tuple_imbalance > 1.15,
            "the expressway skew must show up under an even split ({})",
            even.tuple_imbalance
        );
        assert!(
            dist.tuple_imbalance < even.tuple_imbalance,
            "distribution split must cut the imbalance ({} vs {})",
            dist.tuple_imbalance,
            even.tuple_imbalance
        );
        assert!(
            reb.tuple_imbalance < even.tuple_imbalance,
            "rebalancing must cut the imbalance ({} vs {})",
            reb.tuple_imbalance,
            even.tuple_imbalance
        );
        // The distribution leg actually sampled the checkpoint and measured
        // per-phase costs; the rebalance leg took one extra reconfiguration.
        assert!(dist.predicted_imbalance > 0.0);
        assert!(dist.reconfig_us > 0);
        assert_eq!(even.reconfigurations, 1);
        assert_eq!(reb.reconfigurations, 2);
    }

    #[test]
    fn runtime_elasticity_scales_both_ways_and_times_the_plans() {
        // The utilisation threshold is calibrated to wall-clock busy time
        // per virtual second: tiny, so the ~1000 tuples/s peak reliably
        // crosses it on any machine while the ~1 tuple/s tail sits far
        // below the (clamped) low watermark.
        let result = runtime_elasticity(6, 4, 6, 10, 1, 1_000, 0.001);
        assert!(result.scale_outs > 0, "the ramp up must scale out");
        assert!(result.scale_ins > 0, "the idle tail must scale in");
        assert!(result.peak_vms > result.final_vms, "VMs handed back");
        assert!(result.mean_scale_out_us > 0.0);
        assert!(result.mean_scale_in_us > 0.0);
        assert_eq!(result.phases.len(), 4);
        let plateau = &result.phases[1];
        let tail = &result.phases[3];
        assert!(plateau.end_parallelism > 1, "plateau runs partitioned");
        assert!(tail.end_parallelism < plateau.end_parallelism);
        // The word counter is probed: a run this short never closes a window,
        // so a sink-only probe would have nothing to report.
        assert!(result.latency_p50_ms.is_some(), "no latency samples");
        assert!(result.latency_p99_ms >= result.latency_p50_ms);
    }

    #[test]
    fn runtime_consolidate_keeps_counts_and_stops_billing_released_vms() {
        let result = runtime_consolidate(6, 40);
        assert_eq!(result.parallelism, 4, "consolidation keeps parallelism");
        assert_eq!(result.vms_released, 2, "four partitions pack onto two VMs");
        assert_eq!(result.vms_after, result.vms_before - 2);
        assert!(result.plan_us > 0);
        assert!(
            result.vm_seconds_per_hour_after + 2.0 * 3_600.0
                <= result.vm_seconds_per_hour_before + 1.0,
            "released VMs must stop accruing VM-seconds ({} vs {})",
            result.vm_seconds_per_hour_after,
            result.vm_seconds_per_hour_before
        );
        assert_eq!(
            result.counted_words, result.expected_words,
            "the consolidated run must count exactly what the never-reconfigured run counts"
        );
    }

    #[test]
    fn backend_comparison_covers_all_backends_and_writes_bytes() {
        let dir = std::env::temp_dir().join(format!("seep-bench-backends-{}", std::process::id()));
        let rows = recovery_by_backend(40, 7, &dir);
        assert_eq!(rows.len(), 5);
        let labels: Vec<&str> = rows.iter().map(|r| r.backend.as_str()).collect();
        assert_eq!(
            labels,
            vec!["mem", "file", "file+sync1", "file+sync8", "tiered"]
        );
        // Every backend recovered (asserted inside measure_backend) and every
        // backend actually wrote checkpoint bytes.
        assert!(rows.iter().all(|r| r.write_bytes > 0), "{rows:?}");
        // After the first round every backend takes deltas, a fraction of
        // the full checkpoint.
        for row in &rows {
            assert!(
                row.delta_bytes_per_round > 0
                    && row.delta_bytes_per_round * 5 < row.full_checkpoint_bytes,
                "{row:?}"
            );
        }
        let file = rows.iter().find(|r| r.backend == "file").unwrap();
        // Coalescing fsync every 8 frames issues strictly fewer syncs than
        // syncing every record, while the unsynced arms issue none.
        let sync1 = rows.iter().find(|r| r.backend == "file+sync1").unwrap();
        let sync8 = rows.iter().find(|r| r.backend == "file+sync8").unwrap();
        assert!(sync1.syncs > 0, "per-record fsync must sync");
        assert!(
            sync8.syncs < sync1.syncs,
            "coalesced {} vs per-record {}",
            sync8.syncs,
            sync1.syncs
        );
        assert_eq!(file.syncs, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
