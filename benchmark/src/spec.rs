//! The benchmark's contract: workload names and the metrics each kind of
//! run must report. `BENCHMARK.json` at the repo root says the same; a unit
//! test holds the two equal.

use std::path::PathBuf;

/// A metric a run must report, with the unit it must be reported in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Declared {
    pub name: &'static str,
    pub unit: &'static str,
}

impl Declared {
    pub const fn new(name: &'static str, unit: &'static str) -> Self {
        Declared { name, unit }
    }
}

pub const WORKLOADS: [&str; 7] = [
    "wordfreq_saturate",
    "lrb_paced",
    "wordfreq_durable",
    "wordfreq_scale_out",
    "wordfreq_recovery",
    "wordfreq_scale_in",
    "wordfreq_dist",
];

/// A metric a user of the system would see, with the direction that is
/// better and the share of the parent's median by which it may get worse.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    pub bound: f64,
    /// A difference smaller than this, in the metric's unit, never counts,
    /// whatever share of the median it is. `BENCHMARK.json` has no place
    /// for it; `selfcheck` applies it.
    pub floor: f64,
}

impl EndToEnd {
    /// Whether medians `a` and `b` of two sets of runs of the same code are
    /// further apart, either way, than this metric allows.
    pub fn differs(&self, a: f64, b: f64) -> bool {
        (b - a).abs() > (self.bound * a).max(self.floor)
    }

    pub fn bound_text(&self) -> String {
        let percent = format!("{:.0}%", self.bound * 100.0);
        if self.floor > 0.0 {
            format!("max({percent}, {} {})", self.floor, self.unit)
        } else {
            percent
        }
    }
}

/// The end-to-end metrics as plain declarations.
pub fn end_to_end_declared() -> [Declared; 5] {
    END_TO_END.map(|m| Declared::new(m.name, m.unit))
}

const fn lower(name: &'static str, unit: &'static str, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        higher_is_better: false,
        bound,
        floor: 0.0,
    }
}

/// Reported by every workload's untraced run. Each is defined on the
/// workload's own unit of work (see the README's table): a chunk, a slot's
/// results, a reconfiguration or a round.
pub const END_TO_END: [EndToEnd; 5] = [
    // A set-up takes 50–250 ms: a quarter of that is less than the machine
    // wanders by, so below a quarter of a second a difference is not one.
    EndToEnd {
        floor: 0.25,
        ..lower("setup_s", "s", 0.25)
    },
    EndToEnd {
        higher_is_better: true,
        ..lower("throughput_tuples_per_s", "tuples/s", 0.25)
    },
    lower("latency_p50_ms", "ms", 0.25),
    lower("latency_ckpt_peak_ms", "ms", 0.25),
    lower("peak_rss_mb", "MB", 0.1),
];

/// How many of [`PER_LAYER`], from the front, the probe suite measures.
pub const PROBE_METRICS: usize = 75;

/// Reported by every workload's traced run. The first [`PROBE_METRICS`]
/// come from the probe suite, which is the same after every workload; the
/// rest are read off the workload's own run: counts over its first three
/// timed epochs and shares of its timed window — for the cluster, counts of
/// the whole run as its scrape endpoint and output file show them.
pub const PER_LAYER: [Declared; 97] = [
    Declared::new("operators.splitter_chain_ns_per_tuple", "ns"),
    Declared::new("operators.word_count_ns_per_tuple", "ns"),
    Declared::new("operators.forwarder_ns_per_tuple", "ns"),
    Declared::new("operators.toll_calculator_ns_per_tuple", "ns"),
    Declared::new("operators.toll_assessment_ns_per_tuple", "ns"),
    Declared::new("operators.word_count_get_state_ms", "ms"),
    Declared::new("operators.word_count_set_state_ms", "ms"),
    Declared::new("operators.word_count_state_bytes", "bytes"),
    Declared::new("core.dedup_accept_batch_ns", "ns"),
    Declared::new("core.buffer_push_ns_per_tuple", "ns"),
    Declared::new("core.buffer_trim_ns_per_tuple", "ns"),
    Declared::new("core.checkpoint_state_ms", "ms"),
    Declared::new("core.checkpoint_encode_ms", "ms"),
    Declared::new("core.checkpoint_encoded_bytes", "bytes"),
    Declared::new("core.partition_checkpoint_ms", "ms"),
    Declared::new("core.merge_checkpoints_ms", "ms"),
    Declared::new("core.restore_state_ms", "ms"),
    Declared::new("store.file_put_ms", "ms"),
    Declared::new("store.file_put_mb_per_s", "MB/s"),
    Declared::new("store.file_put_nofsync_ms", "ms"),
    Declared::new("store.mem_put_ms", "ms"),
    Declared::new("store.file_latest_ms", "ms"),
    Declared::new("store.mem_latest_ms", "ms"),
    Declared::new("store.partition_for_scale_out_ms", "ms"),
    Declared::new("store.merge_for_scale_in_ms", "ms"),
    Declared::new("net.channel_hop_ns_per_envelope", "ns"),
    Declared::new("net.wire_encode_ns_per_tuple", "ns"),
    Declared::new("net.wire_decode_ns_per_tuple", "ns"),
    Declared::new("net.wire_bytes_per_tuple", "bytes"),
    Declared::new("net.tcp_hop_us_per_envelope", "us"),
    Declared::new("net.tcp_mb_per_s", "MB/s"),
    Declared::new("node.round_fixed_ms", "ms"),
    Declared::new("node.tuple_us", "us"),
    Declared::new("node.baseline_tuples_per_s", "tuples/s"),
    Declared::new("node.dist_slowdown_x", "x"),
    Declared::new("node.transport_bytes_per_tuple", "bytes"),
    Declared::new("node.checkpoints_total", "count"),
    Declared::new("workloads.gen_fragments_per_s", "1/s"),
    Declared::new("workloads.gen_lrb_records_per_s", "1/s"),
    Declared::new("runtime.deploy_ms", "ms"),
    Declared::new("runtime.inject_ns_per_tuple", "ns"),
    Declared::new("runtime.drain_ns_per_tuple", "ns"),
    Declared::new("runtime.drain_self_ns_per_tuple", "ns"),
    Declared::new("runtime.drain_idle_ns", "ns"),
    Declared::new("runtime.advance_tick_us", "us"),
    Declared::new("runtime.advance_ckpt_ms", "ms"),
    Declared::new("runtime.ckpt_us_p50.word_counter", "us"),
    Declared::new("runtime.ckpt_stored_bytes.word_counter", "bytes"),
    Declared::new("runtime.scale_out.drain_us", "us"),
    Declared::new("runtime.scale_out.checkpoint_us", "us"),
    Declared::new("runtime.scale_out.rewrite_us", "us"),
    Declared::new("runtime.scale_out.transform_us", "us"),
    Declared::new("runtime.scale_out.restore_us", "us"),
    Declared::new("runtime.scale_out.commit_us", "us"),
    Declared::new("runtime.scale_out.replay_us", "us"),
    Declared::new("runtime.scale_out.total_us", "us"),
    Declared::new("runtime.catchup_drain_ms.scale_out", "ms"),
    Declared::new("runtime.recovery.drain_us", "us"),
    Declared::new("runtime.recovery.checkpoint_us", "us"),
    Declared::new("runtime.recovery.rewrite_us", "us"),
    Declared::new("runtime.recovery.transform_us", "us"),
    Declared::new("runtime.recovery.restore_us", "us"),
    Declared::new("runtime.recovery.commit_us", "us"),
    Declared::new("runtime.recovery.replay_us", "us"),
    Declared::new("runtime.recovery.total_us", "us"),
    Declared::new("runtime.catchup_drain_ms.recovery", "ms"),
    Declared::new("runtime.scale_in.drain_us", "us"),
    Declared::new("runtime.scale_in.checkpoint_us", "us"),
    Declared::new("runtime.scale_in.rewrite_us", "us"),
    Declared::new("runtime.scale_in.transform_us", "us"),
    Declared::new("runtime.scale_in.restore_us", "us"),
    Declared::new("runtime.scale_in.commit_us", "us"),
    Declared::new("runtime.scale_in.replay_us", "us"),
    Declared::new("runtime.scale_in.total_us", "us"),
    Declared::new("runtime.catchup_drain_ms.scale_in", "ms"),
    // From the workload's own run.
    Declared::new("runtime.processed.total", "count"),
    Declared::new("runtime.checkpoints", "count"),
    Declared::new("runtime.backlog_max_tuples", "count"),
    Declared::new("runtime.drain_calls", "count"),
    Declared::new("store.puts", "count"),
    Declared::new("store.bytes_written", "bytes"),
    Declared::new("store.restores", "count"),
    Declared::new("store.bytes_restored", "bytes"),
    Declared::new("store.syncs", "count"),
    Declared::new("store.compactions", "count"),
    Declared::new("store.write_pct", "%"),
    Declared::new("store.restore_pct", "%"),
    Declared::new("cloud.pool_hits", "count"),
    Declared::new("cloud.pool_misses", "count"),
    Declared::new("driver.inject_pct", "%"),
    Declared::new("driver.drain_pct", "%"),
    Declared::new("driver.advance_pct", "%"),
    Declared::new("driver.reconfig_pct", "%"),
    Declared::new("driver.wait_pct", "%"),
    Declared::new("driver.self_share", "%"),
    Declared::new("driver.timed_epochs", "count"),
    Declared::new("driver.epoch_drift_pct", "%"),
];

/// How many times an in-process run sets up, to report the median. A
/// set-up takes 60–200 ms, so this costs a run a second or two. Set-ups
/// within a run agree to a few percent; more of them would not steady what
/// differs between runs, which is the machine's speed.
pub const SETUPS: usize = 9;

/// What one invocation was asked to do.
#[derive(Debug, Clone)]
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    /// Length of the timed window.
    pub seconds: f64,
    pub trace: bool,
    /// Tiny sizes for the package's own tests; results are labelled and
    /// never recorded.
    pub quick: bool,
    /// Where trace files and FileStore scratch directories go.
    pub out_dir: PathBuf,
    /// The `seep-node` executable (the distributed workload and the node
    /// probe drive it through its command line).
    pub node_bin: PathBuf,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_difference_counts_only_beyond_both_bound_and_floor() {
        let [setup, throughput, ..] = END_TO_END;
        // 56 ms → 81 ms is +43 %, but a fortieth of a second.
        assert!(!setup.differs(0.056, 0.081));
        assert!(!setup.differs(0.081, 0.056));
        assert!(setup.differs(1.0, 1.3));
        // No floor: either direction beyond a quarter of the first median.
        assert!(!throughput.differs(70_000.0, 60_000.0));
        assert!(throughput.differs(70_000.0, 50_000.0));
        assert!(throughput.differs(50_000.0, 70_000.0));
        assert_eq!(setup.bound_text(), "max(25%, 0.25 s)");
        assert_eq!(throughput.bound_text(), "25%");
    }
}
