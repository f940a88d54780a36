//! Prometheus text-format exposition (version 0.0.4).
//!
//! [`render_prometheus`] turns an [`ObsSnapshot`] — a point-in-time copy of
//! everything the runtime knows about itself — into the plain-text format a
//! Prometheus server scrapes: `# HELP`/`# TYPE` headers, escaped label
//! values, cumulative histogram buckets with a `+Inf` bound and matching
//! `_sum`/`_count` series. Rendering is a pure function of the snapshot, so
//! the exposition-correctness tests exercise it without any HTTP in the
//! loop; [`parse_exposition`] / [`validate_exposition`] implement the small
//! scrape-side parser those tests (and the CI smoke check) round-trip
//! through.

use std::collections::BTreeMap;

use seep_core::{HistogramSnapshot, LatencyHistogram};

use seep_cloud::PoolStats;

use crate::metrics::{Metrics, MetricsSnapshot, ReconfigRecord, StoreIoRecord};
use crate::obs::health::{HealthReport, OperatorHealth};
use crate::obs::journal::JournalKind;

/// Per-phase reconfiguration cost summed over all executed plans of one
/// kind, feeding the `seep_reconfig_phase_seconds_total` family.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReconfigPhaseTotals {
    /// Plan kind; its label is the `kind` label of the exported series.
    pub kind: JournalKind,
    /// Number of plans of this kind.
    pub count: u64,
    /// Summed drain phase cost (µs).
    pub drain_us: u64,
    /// Summed state-capture phase cost (µs).
    pub checkpoint_us: u64,
    /// Summed graph-rewrite phase cost (µs).
    pub rewrite_us: u64,
    /// Summed checkpoint split/merge phase cost (µs).
    pub transform_us: u64,
    /// Summed worker-creation and state-restore phase cost (µs).
    pub restore_us: u64,
    /// Summed commit phase cost (µs).
    pub commit_us: u64,
    /// Summed routing-update and replay phase cost (µs).
    pub replay_us: u64,
    /// Summed end-to-end plan cost (µs).
    pub total_us: u64,
}

impl ReconfigPhaseTotals {
    /// Per-kind totals over the registry's one plan list, in one pass. Kinds
    /// with no committed plan are left out; the rest come in kind order.
    pub fn from_records(records: &[ReconfigRecord]) -> Vec<Self> {
        let mut by_kind = std::collections::BTreeMap::new();
        for r in records {
            let totals = by_kind.entry(r.kind).or_insert(ReconfigPhaseTotals {
                kind: r.kind,
                count: 0,
                drain_us: 0,
                checkpoint_us: 0,
                rewrite_us: 0,
                transform_us: 0,
                restore_us: 0,
                commit_us: 0,
                replay_us: 0,
                total_us: 0,
            });
            totals.count += 1;
            totals.drain_us += r.timing.drain_us;
            totals.checkpoint_us += r.timing.checkpoint_us;
            totals.rewrite_us += r.timing.rewrite_us;
            totals.transform_us += r.timing.transform_us;
            totals.restore_us += r.timing.restore_us;
            totals.commit_us += r.timing.commit_us;
            totals.replay_us += r.timing.replay_us;
            totals.total_us += r.timing.total_us;
        }
        by_kind.into_values().collect()
    }
}

/// A point-in-time copy of everything the ops plane exports: metrics,
/// latency histogram, per-operator health, placement occupancy and the
/// VM/billing counters. Refreshed by the runtime after every state change
/// and read by the scrape endpoint, so rendering never touches the runtime.
#[derive(Debug, Clone)]
pub struct ObsSnapshot {
    /// Virtual time (ms).
    pub now_ms: u64,
    /// Aggregate metrics registry snapshot.
    pub metrics: MetricsSnapshot,
    /// Fixed log-scale latency histogram.
    pub latency: HistogramSnapshot,
    /// Per-backend checkpoint-store I/O counters, sorted by backend label.
    pub store_io: Vec<(String, StoreIoRecord)>,
    /// Per-kind summed reconfiguration phase costs.
    pub reconfig_phases: Vec<ReconfigPhaseTotals>,
    /// Per-instance health.
    pub health: Vec<OperatorHealth>,
    /// `(vm id, resident operators)` for every occupied VM.
    pub occupancy: Vec<(u64, usize)>,
    /// Operator slots per VM.
    pub slots_per_vm: usize,
    /// Running VMs at the provider.
    pub vms_running: usize,
    /// VMs still provisioning.
    pub vms_provisioning: usize,
    /// Accumulated VM time (seconds) across all VMs ever billed.
    pub vm_seconds: f64,
    /// Accumulated VM cost (dollars).
    pub vm_cost: f64,
    /// VM pool acquisition statistics.
    pub pool: PoolStats,
    /// Ready VMs in the pool.
    pub pool_ready: usize,
    /// VMs provisioning for the pool.
    pub pool_pending: usize,
    /// Pool target size.
    pub pool_target: usize,
    /// Reconfiguration events journalled over the runtime's lifetime.
    pub journal_events: u64,
    /// Per-connection transport traffic counters (empty for the pure
    /// in-process plane).
    pub transport: Vec<TransportConn>,
    /// `(worker name, heartbeat lag ms)` per connected worker process, as
    /// observed by the coordinator at snapshot time.
    pub heartbeat_lag: Vec<(String, f64)>,
    /// `(phase, seconds)`: wall time a `seep-node` coordinator has spent in
    /// each phase of its rounds (empty for the in-process plane).
    pub round_phases: Vec<(String, f64)>,
    /// `(verb, count)`: control commands a `seep-node` coordinator has sent
    /// to its workers (empty for the in-process plane).
    pub rpcs: Vec<(String, u64)>,
}

/// Traffic counters for one transport connection, as exported to the
/// scrape endpoint.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TransportConn {
    /// Peer address (`host:port`).
    pub peer: String,
    /// `"out"` for dialled connections, `"in"` for accepted ones.
    pub direction: String,
    /// Envelope payload bytes shipped (framing overhead excluded).
    pub bytes: u64,
    /// Complete frames shipped or reassembled.
    pub frames: u64,
    /// Data tuples carried.
    pub tuples: u64,
    /// Times the connection was re-dialled after a failure.
    pub reconnects: u64,
}

impl Default for ObsSnapshot {
    fn default() -> Self {
        ObsSnapshot {
            now_ms: 0,
            metrics: Metrics::new().snapshot(),
            latency: LatencyHistogram::new().snapshot(),
            store_io: Vec::new(),
            reconfig_phases: Vec::new(),
            health: Vec::new(),
            occupancy: Vec::new(),
            slots_per_vm: 1,
            vms_running: 0,
            vms_provisioning: 0,
            vm_seconds: 0.0,
            vm_cost: 0.0,
            pool: PoolStats::default(),
            pool_ready: 0,
            pool_pending: 0,
            pool_target: 0,
            journal_events: 0,
            transport: Vec::new(),
            heartbeat_lag: Vec::new(),
            round_phases: Vec::new(),
            rpcs: Vec::new(),
        }
    }
}

/// Escape a label value per the exposition format: backslash, double quote
/// and newline.
fn escape_label(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Escape a HELP text: backslash and newline (quotes stay literal).
fn escape_help(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

fn fmt_value(v: f64) -> String {
    if v.is_nan() {
        "NaN".into()
    } else if v == f64::INFINITY {
        "+Inf".into()
    } else if v == f64::NEG_INFINITY {
        "-Inf".into()
    } else {
        format!("{v}")
    }
}

struct Exporter {
    out: String,
}

impl Exporter {
    fn new() -> Self {
        Exporter {
            out: String::with_capacity(8 * 1024),
        }
    }

    fn family(&mut self, name: &str, kind: &str, help: &str) {
        self.out
            .push_str(&format!("# HELP {name} {}\n", escape_help(help)));
        self.out.push_str(&format!("# TYPE {name} {kind}\n"));
    }

    fn sample(&mut self, name: &str, labels: &[(&str, &str)], value: f64) {
        self.out.push_str(name);
        if !labels.is_empty() {
            self.out.push('{');
            for (i, (k, v)) in labels.iter().enumerate() {
                if i > 0 {
                    self.out.push(',');
                }
                self.out.push_str(&format!("{k}=\"{}\"", escape_label(v)));
            }
            self.out.push('}');
        }
        self.out.push(' ');
        self.out.push_str(&fmt_value(value));
        self.out.push('\n');
    }
}

/// Render a snapshot as Prometheus text exposition format 0.0.4. Every
/// family carries `# HELP`/`# TYPE`; the latency histogram is exported in
/// seconds with cumulative buckets, a `+Inf` bound and `_sum`/`_count`.
pub fn render_prometheus(s: &ObsSnapshot) -> String {
    let mut w = Exporter::new();
    let m = &s.metrics;

    w.family(
        "seep_virtual_time_milliseconds",
        "gauge",
        "Virtual time of the runtime (ms since deployment).",
    );
    w.sample("seep_virtual_time_milliseconds", &[], s.now_ms as f64);

    w.family(
        "seep_sink_tuples_total",
        "counter",
        "Tuples that reached a sink.",
    );
    w.sample("seep_sink_tuples_total", &[], m.sink_tuples as f64);
    w.family(
        "seep_processed_tuples_total",
        "counter",
        "Tuples processed across all operators.",
    );
    w.sample("seep_processed_tuples_total", &[], m.total_processed as f64);
    w.family(
        "seep_dropped_sends_total",
        "counter",
        "Sends dropped because the destination was disconnected.",
    );
    w.sample("seep_dropped_sends_total", &[], m.dropped_sends as f64);

    // End-to-end latency: fixed log-scale histogram, exported in seconds.
    w.family(
        "seep_latency_seconds",
        "histogram",
        "End-to-end tuple latency observed at sinks.",
    );
    let cumulative = s.latency.cumulative();
    for (i, le_us) in s.latency.bounds_us.iter().enumerate() {
        let le = fmt_value(*le_us as f64 / 1e6);
        w.sample(
            "seep_latency_seconds_bucket",
            &[("le", le.as_str())],
            cumulative.get(i).copied().unwrap_or(0) as f64,
        );
    }
    w.sample(
        "seep_latency_seconds_bucket",
        &[("le", "+Inf")],
        s.latency.count as f64,
    );
    w.sample(
        "seep_latency_seconds_sum",
        &[],
        s.latency.sum_us as f64 / 1e6,
    );
    w.sample("seep_latency_seconds_count", &[], s.latency.count as f64);

    w.family(
        "seep_latency_quantile_milliseconds",
        "gauge",
        "Exact nearest-rank latency percentiles (ms).",
    );
    for (q, v) in [
        ("0.5", m.latency_p50_ms),
        ("0.95", m.latency_p95_ms),
        ("0.99", m.latency_p99_ms),
    ] {
        w.sample("seep_latency_quantile_milliseconds", &[("quantile", q)], v);
    }

    for (name, help, value) in [
        (
            "seep_checkpoints_total",
            "Checkpoints taken.",
            m.checkpoints,
        ),
        (
            "seep_recoveries_total",
            "Failure recoveries performed.",
            m.recoveries,
        ),
        (
            "seep_scale_outs_total",
            "Scale-out actions performed (includes recovery re-deploys).",
            m.scale_outs,
        ),
        (
            "seep_scale_ins_total",
            "Scale-in (merge) actions performed.",
            m.scale_ins,
        ),
        (
            "seep_rebalances_total",
            "Rebalance (repartition-in-place) actions performed.",
            m.rebalances,
        ),
        (
            "seep_consolidates_total",
            "Consolidation (partition bin-packing) actions performed.",
            m.consolidates,
        ),
    ] {
        w.family(name, "counter", help);
        w.sample(name, &[], value as f64);
    }

    w.family(
        "seep_reconfig_plans_total",
        "counter",
        "Reconfiguration plans executed, by plan kind.",
    );
    for p in &s.reconfig_phases {
        w.sample(
            "seep_reconfig_plans_total",
            &[("kind", p.kind.label())],
            p.count as f64,
        );
    }
    w.family(
        "seep_reconfig_phase_seconds_total",
        "counter",
        "Wall-clock time spent in each reconfiguration phase, by plan kind.",
    );
    for p in &s.reconfig_phases {
        for (phase, us) in [
            ("drain", p.drain_us),
            ("checkpoint", p.checkpoint_us),
            ("rewrite", p.rewrite_us),
            ("transform", p.transform_us),
            ("restore", p.restore_us),
            ("commit", p.commit_us),
            ("replay", p.replay_us),
            ("total", p.total_us),
        ] {
            w.sample(
                "seep_reconfig_phase_seconds_total",
                &[("kind", p.kind.label()), ("phase", phase)],
                us as f64 / 1e6,
            );
        }
    }

    w.family(
        "seep_store_writes_total",
        "counter",
        "Checkpoint writes per store backend (kind: full or incremental).",
    );
    for (backend, io) in &s.store_io {
        w.sample(
            "seep_store_writes_total",
            &[("backend", backend), ("kind", "full")],
            io.writes as f64,
        );
        w.sample(
            "seep_store_writes_total",
            &[("backend", backend), ("kind", "incremental")],
            io.incremental_writes as f64,
        );
    }
    for (name, help, pick) in [
        (
            "seep_store_write_bytes_total",
            "Bytes written to the checkpoint store.",
            0,
        ),
        (
            "seep_store_write_seconds_total",
            "Cumulative checkpoint write latency.",
            1,
        ),
        (
            "seep_store_restores_total",
            "Checkpoints read back from the store.",
            2,
        ),
        (
            "seep_store_restore_bytes_total",
            "Bytes read back from the checkpoint store.",
            3,
        ),
        (
            "seep_store_restore_seconds_total",
            "Cumulative checkpoint restore latency.",
            4,
        ),
    ] {
        w.family(name, "counter", help);
        for (backend, io) in &s.store_io {
            let v = match pick {
                0 => io.write_bytes as f64,
                1 => io.write_us as f64 / 1e6,
                2 => io.restores as f64,
                3 => io.restore_bytes as f64,
                _ => io.restore_us as f64 / 1e6,
            };
            w.sample(name, &[("backend", backend)], v);
        }
    }

    w.family(
        "seep_operator_health",
        "gauge",
        "Per-operator health; the state label carries the derived state.",
    );
    for h in &s.health {
        let op = h.operator.raw().to_string();
        w.sample(
            "seep_operator_health",
            &[
                ("operator", op.as_str()),
                ("name", h.name.as_str()),
                ("state", h.state.label()),
            ],
            1.0,
        );
    }
    for (name, kind, help) in [
        (
            "seep_operator_queued_tuples",
            "gauge",
            "Inbound queue depth per operator instance.",
        ),
        (
            "seep_operator_utilization_ratio",
            "gauge",
            "Latest reported CPU utilisation per operator instance.",
        ),
        (
            "seep_operator_processed_tuples_total",
            "counter",
            "Tuples processed per operator instance.",
        ),
    ] {
        w.family(name, kind, help);
        for h in &s.health {
            let op = h.operator.raw().to_string();
            let labels = [("operator", op.as_str()), ("name", h.name.as_str())];
            let v = match name {
                "seep_operator_queued_tuples" => h.queued as f64,
                "seep_operator_utilization_ratio" => h.utilization,
                _ => h.processed as f64,
            };
            w.sample(name, &labels, v);
        }
    }

    w.family(
        "seep_checkpoint_failures_total",
        "counter",
        "Periodic checkpoints that failed, per operator instance.",
    );
    // One sample per instance: the rows of a fused instance share it.
    let mut instances: Vec<_> = s
        .health
        .iter()
        .map(|h| (h.operator.raw(), h.checkpoint_failures))
        .collect();
    instances.dedup_by_key(|(operator, _)| *operator);
    for (operator, failures) in instances {
        w.sample(
            "seep_checkpoint_failures_total",
            &[("operator", operator.to_string().as_str())],
            failures as f64,
        );
    }

    w.family(
        "seep_placement_vm_occupancy",
        "gauge",
        "Operators resident on each occupied VM.",
    );
    for (vm, residents) in &s.occupancy {
        let vm = vm.to_string();
        w.sample(
            "seep_placement_vm_occupancy",
            &[("vm", vm.as_str())],
            *residents as f64,
        );
    }
    w.family(
        "seep_placement_slots_per_vm",
        "gauge",
        "Operator slots per VM.",
    );
    w.sample("seep_placement_slots_per_vm", &[], s.slots_per_vm as f64);

    w.family("seep_vms_running", "gauge", "Running VMs at the provider.");
    w.sample("seep_vms_running", &[], s.vms_running as f64);
    w.family("seep_vms_provisioning", "gauge", "VMs still provisioning.");
    w.sample("seep_vms_provisioning", &[], s.vms_provisioning as f64);
    w.family(
        "seep_vm_seconds_total",
        "counter",
        "Accumulated VM time across all VMs ever billed.",
    );
    w.sample("seep_vm_seconds_total", &[], s.vm_seconds);
    w.family(
        "seep_vm_cost_dollars_total",
        "counter",
        "Accumulated VM cost.",
    );
    w.sample("seep_vm_cost_dollars_total", &[], s.vm_cost);

    w.family(
        "seep_pool_hits_total",
        "counter",
        "VM acquisitions served instantly from the pool.",
    );
    w.sample("seep_pool_hits_total", &[], s.pool.hits as f64);
    w.family(
        "seep_pool_misses_total",
        "counter",
        "VM acquisitions that found the pool exhausted.",
    );
    w.sample("seep_pool_misses_total", &[], s.pool.misses as f64);
    for (name, help, v) in [
        (
            "seep_pool_ready_vms",
            "Ready VMs in the pool.",
            s.pool_ready,
        ),
        (
            "seep_pool_pending_vms",
            "VMs provisioning for the pool.",
            s.pool_pending,
        ),
        ("seep_pool_target_vms", "Pool target size.", s.pool_target),
    ] {
        w.family(name, "gauge", help);
        w.sample(name, &[], v as f64);
    }

    w.family(
        "seep_journal_events_total",
        "counter",
        "Reconfiguration events journalled.",
    );
    w.sample("seep_journal_events_total", &[], s.journal_events as f64);

    if !s.transport.is_empty() {
        w.family(
            "seep_transport_bytes_total",
            "counter",
            "Envelope payload bytes shipped per transport connection.",
        );
        for c in &s.transport {
            w.sample(
                "seep_transport_bytes_total",
                &[("peer", &c.peer), ("dir", &c.direction)],
                c.bytes as f64,
            );
        }
        w.family(
            "seep_transport_frames_total",
            "counter",
            "Frames shipped or reassembled per transport connection.",
        );
        for c in &s.transport {
            w.sample(
                "seep_transport_frames_total",
                &[("peer", &c.peer), ("dir", &c.direction)],
                c.frames as f64,
            );
        }
        w.family(
            "seep_transport_tuples_total",
            "counter",
            "Data tuples carried per transport connection.",
        );
        for c in &s.transport {
            w.sample(
                "seep_transport_tuples_total",
                &[("peer", &c.peer), ("dir", &c.direction)],
                c.tuples as f64,
            );
        }
        w.family(
            "seep_transport_reconnects_total",
            "counter",
            "Connection re-dials after transport failures.",
        );
        for c in &s.transport {
            w.sample(
                "seep_transport_reconnects_total",
                &[("peer", &c.peer), ("dir", &c.direction)],
                c.reconnects as f64,
            );
        }
    }

    if !s.heartbeat_lag.is_empty() {
        w.family(
            "seep_heartbeat_lag_ms",
            "gauge",
            "Milliseconds since each worker's last heartbeat.",
        );
        for (worker, lag) in &s.heartbeat_lag {
            w.sample("seep_heartbeat_lag_ms", &[("worker", worker)], *lag);
        }
    }

    if !s.round_phases.is_empty() {
        w.family(
            "seep_node_round_phase_seconds_total",
            "counter",
            "Wall time the coordinator spent in each phase of its rounds.",
        );
        for (phase, seconds) in &s.round_phases {
            w.sample(
                "seep_node_round_phase_seconds_total",
                &[("phase", phase)],
                *seconds,
            );
        }
    }

    if !s.rpcs.is_empty() {
        w.family(
            "seep_node_rpcs_total",
            "counter",
            "Control commands the coordinator sent to its workers.",
        );
        for (verb, count) in &s.rpcs {
            w.sample("seep_node_rpcs_total", &[("verb", verb)], *count as f64);
        }
    }

    w.out
}

/// Render the `/health` endpoint document as JSON.
pub fn render_health_json(s: &ObsSnapshot) -> String {
    let report = HealthReport::new(s.now_ms, s.health.clone());
    serde_json::to_string(&report)
        .unwrap_or_else(|_| "{\"status\":\"error\",\"operators\":[]}".to_string())
}

// ---------------------------------------------------------------------------
// Scrape-side mini parser, used by the exposition-correctness tests and the
// CI smoke check.
// ---------------------------------------------------------------------------

/// One parsed sample line.
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedSample {
    /// Metric name (family name plus any `_bucket`/`_sum`/`_count` suffix).
    pub name: String,
    /// Label pairs in source order, unescaped.
    pub labels: Vec<(String, String)>,
    /// Sample value.
    pub value: f64,
}

impl ParsedSample {
    /// The label value for `key`, if present.
    pub fn label(&self, key: &str) -> Option<&str> {
        self.labels
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// The labels minus `except`, serialised to a canonical grouping key.
    fn group_key(&self, except: &str) -> String {
        let mut pairs: Vec<String> = self
            .labels
            .iter()
            .filter(|(k, _)| k != except)
            .map(|(k, v)| format!("{k}={v}"))
            .collect();
        pairs.sort();
        pairs.join("\u{1}")
    }
}

/// A parsed exposition: declared family types plus all samples.
#[derive(Debug, Clone, Default)]
pub struct Exposition {
    /// Family name → declared type (`counter`, `gauge`, `histogram`, ...).
    pub types: BTreeMap<String, String>,
    /// All samples in source order.
    pub samples: Vec<ParsedSample>,
}

impl Exposition {
    /// All samples of one metric name.
    pub fn of(&self, name: &str) -> Vec<&ParsedSample> {
        self.samples.iter().filter(|s| s.name == name).collect()
    }

    /// The single sample of `name` with no labels; error text otherwise.
    pub fn scalar(&self, name: &str) -> Result<f64, String> {
        let matches = self.of(name);
        match matches.as_slice() {
            [one] => Ok(one.value),
            other => Err(format!("{name}: expected 1 sample, found {}", other.len())),
        }
    }
}

fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

fn valid_label_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
}

fn parse_value(s: &str) -> Result<f64, String> {
    match s {
        "+Inf" | "Inf" => Ok(f64::INFINITY),
        "-Inf" => Ok(f64::NEG_INFINITY),
        "NaN" => Ok(f64::NAN),
        other => other
            .parse::<f64>()
            .map_err(|_| format!("bad sample value {other:?}")),
    }
}

/// Parse one `name{labels} value` line.
fn parse_sample_line(line: &str) -> Result<ParsedSample, String> {
    let (name_and_labels, value_str) = match line.find('{') {
        Some(brace) => {
            let close = line
                .rfind('}')
                .ok_or_else(|| format!("unclosed label block: {line:?}"))?;
            (
                (&line[..brace], Some(&line[brace + 1..close])),
                line[close + 1..].trim(),
            )
        }
        None => {
            let mut parts = line.splitn(2, ' ');
            let name = parts.next().unwrap_or("");
            let rest = parts.next().unwrap_or("").trim();
            ((name, None), rest)
        }
    };
    let (name, label_block) = name_and_labels;
    let name = name.trim();
    if !valid_metric_name(name) {
        return Err(format!("invalid metric name {name:?}"));
    }
    let mut labels = Vec::new();
    if let Some(block) = label_block {
        let mut chars = block.chars().peekable();
        loop {
            while matches!(chars.peek(), Some(',') | Some(' ')) {
                chars.next();
            }
            if chars.peek().is_none() {
                break;
            }
            let mut label_name = String::new();
            for c in chars.by_ref() {
                if c == '=' {
                    break;
                }
                label_name.push(c);
            }
            if !valid_label_name(label_name.trim()) {
                return Err(format!("invalid label name {label_name:?} in {line:?}"));
            }
            if chars.next() != Some('"') {
                return Err(format!("label value not quoted in {line:?}"));
            }
            let mut value = String::new();
            let mut closed = false;
            while let Some(c) = chars.next() {
                match c {
                    '\\' => match chars.next() {
                        Some('\\') => value.push('\\'),
                        Some('"') => value.push('"'),
                        Some('n') => value.push('\n'),
                        other => return Err(format!("bad escape {other:?} in {line:?}")),
                    },
                    '"' => {
                        closed = true;
                        break;
                    }
                    c => value.push(c),
                }
            }
            if !closed {
                return Err(format!("unterminated label value in {line:?}"));
            }
            labels.push((label_name.trim().to_string(), value));
        }
    }
    // The exposition format allows an optional timestamp after the value; we
    // never emit one, so reject anything beyond a single token.
    let mut value_parts = value_str.split_whitespace();
    let value = parse_value(
        value_parts
            .next()
            .ok_or_else(|| format!("missing value in {line:?}"))?,
    )?;
    if value_parts.next().is_some() {
        return Err(format!("unexpected trailing token in {line:?}"));
    }
    Ok(ParsedSample {
        name: name.to_string(),
        labels,
        value,
    })
}

/// Resolve the family a sample belongs to: the name itself, or — for a
/// declared histogram — the name with its `_bucket`/`_sum`/`_count` suffix
/// stripped.
fn family_of<'a>(name: &'a str, types: &BTreeMap<String, String>) -> Option<&'a str> {
    if types.contains_key(name) {
        return Some(name);
    }
    for suffix in ["_bucket", "_sum", "_count"] {
        if let Some(base) = name.strip_suffix(suffix) {
            if types.get(base).map(String::as_str) == Some("histogram") {
                return Some(base);
            }
        }
    }
    None
}

/// Parse an exposition document: syntax of every line, metric/label name
/// validity, and that every sample belongs to a `# TYPE`-declared family.
pub fn parse_exposition(text: &str) -> Result<Exposition, String> {
    let mut exp = Exposition::default();
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.trim_end();
        if line.is_empty() {
            continue;
        }
        let err = |msg: String| format!("line {}: {msg}", lineno + 1);
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.splitn(2, ' ');
            let name = parts.next().unwrap_or("").to_string();
            let kind = parts.next().unwrap_or("").trim().to_string();
            if !valid_metric_name(&name) {
                return Err(err(format!("invalid family name {name:?}")));
            }
            if !matches!(
                kind.as_str(),
                "counter" | "gauge" | "histogram" | "summary" | "untyped"
            ) {
                return Err(err(format!("invalid family type {kind:?}")));
            }
            if exp.types.insert(name.clone(), kind).is_some() {
                return Err(err(format!("duplicate # TYPE for {name}")));
            }
            continue;
        }
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let name = rest.split(' ').next().unwrap_or("");
            if !valid_metric_name(name) {
                return Err(err(format!("invalid family name {name:?}")));
            }
            continue;
        }
        if line.starts_with('#') {
            continue; // plain comment
        }
        let sample = parse_sample_line(line).map_err(err)?;
        if family_of(&sample.name, &exp.types).is_none() {
            return Err(format!(
                "line {}: sample {} has no # TYPE declaration",
                lineno + 1,
                sample.name
            ));
        }
        exp.samples.push(sample);
    }
    Ok(exp)
}

/// Parse and semantically validate an exposition: counters must be finite
/// and non-negative, and every histogram must have monotone cumulative
/// buckets ending in `+Inf`, with `_count` equal to the `+Inf` bucket and a
/// `_sum` series present for every label group.
pub fn validate_exposition(text: &str) -> Result<Exposition, String> {
    let exp = parse_exposition(text)?;
    for s in &exp.samples {
        let family = family_of(&s.name, &exp.types).expect("checked during parse");
        let kind = exp.types[family].as_str();
        if kind == "counter" && !(s.value.is_finite() && s.value >= 0.0) {
            return Err(format!("counter {} has value {}", s.name, s.value));
        }
    }
    for (family, kind) in &exp.types {
        if kind != "histogram" {
            continue;
        }
        // Group buckets by their labels minus `le`.
        let mut groups: BTreeMap<String, Vec<(f64, f64)>> = BTreeMap::new();
        for s in exp.of(&format!("{family}_bucket")) {
            let le = s
                .label("le")
                .ok_or_else(|| format!("{family}_bucket sample without le label"))?;
            let bound = parse_value(le).map_err(|e| format!("{family}: {e}"))?;
            groups
                .entry(s.group_key("le"))
                .or_default()
                .push((bound, s.value));
        }
        if groups.is_empty() {
            return Err(format!("histogram {family} has no buckets"));
        }
        for (key, mut buckets) in groups {
            buckets.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("le bounds are ordered"));
            let mut prev = -1.0;
            for (_, count) in &buckets {
                if *count < prev {
                    return Err(format!("histogram {family}{{{key}}} buckets not monotone"));
                }
                prev = *count;
            }
            let (last_bound, last_count) = *buckets.last().expect("non-empty");
            if last_bound != f64::INFINITY {
                return Err(format!("histogram {family}{{{key}}} missing +Inf bucket"));
            }
            let count_series: Vec<&ParsedSample> = exp
                .of(&format!("{family}_count"))
                .into_iter()
                .filter(|s| s.group_key("le") == key)
                .collect();
            match count_series.as_slice() {
                [one] if one.value == last_count => {}
                [one] => {
                    return Err(format!(
                        "histogram {family}: _count {} != +Inf bucket {}",
                        one.value, last_count
                    ));
                }
                _ => return Err(format!("histogram {family}: missing _count series")),
            }
            let sums = exp
                .of(&format!("{family}_sum"))
                .into_iter()
                .filter(|s| s.group_key("le") == key)
                .count();
            if sums != 1 {
                return Err(format!("histogram {family}: missing _sum series"));
            }
        }
    }
    Ok(exp)
}

#[cfg(test)]
mod tests {
    use super::*;
    use seep_core::{HealthState, LogicalOpId, OperatorId};

    fn snapshot_with_everything() -> ObsSnapshot {
        let metrics = Metrics::new();
        for i in 1..=50u64 {
            metrics.record_latency_us(i * 500);
        }
        metrics.record_store_write("tiered", 4_096, 120, false);
        metrics.record_store_write("tiered", 512, 15, true);
        metrics.record_store_restore("tiered", 4_608, 200);
        let mut s = ObsSnapshot {
            now_ms: 42_000,
            latency: {
                let mut h = LatencyHistogram::new();
                for i in 1..=50u64 {
                    h.record_us(i * 500);
                }
                h.snapshot()
            },
            metrics: metrics.snapshot(),
            store_io: metrics.store_io_all(),
            ..ObsSnapshot::default()
        };
        s.reconfig_phases = vec![ReconfigPhaseTotals {
            kind: JournalKind::ScaleOut,
            count: 2,
            drain_us: 10,
            checkpoint_us: 20,
            rewrite_us: 30,
            transform_us: 40,
            restore_us: 50,
            commit_us: 60,
            replay_us: 70,
            total_us: 280,
        }];
        s.health = vec![
            OperatorHealth {
                operator: OperatorId::new(7),
                logical: LogicalOpId(2),
                // Deliberately hostile name: quote, backslash and newline
                // must all round-trip through the label escaping.
                name: "count\"er\\one\nline".into(),
                state: HealthState::Backpressured,
                queued: 123,
                utilization: 0.83,
                processed: 4_567,
                checkpoint_failures: 2,
                vm: Some(3),
            },
            OperatorHealth {
                operator: OperatorId::new(8),
                logical: LogicalOpId(2),
                name: "counter[1]".into(),
                state: HealthState::Ok,
                queued: 0,
                utilization: 0.10,
                processed: 999,
                checkpoint_failures: 0,
                vm: Some(4),
            },
        ];
        s.occupancy = vec![(3, 2), (4, 1)];
        s.slots_per_vm = 2;
        s.vms_running = 5;
        s.vms_provisioning = 1;
        s.vm_seconds = 1_234.5;
        s.vm_cost = 0.42;
        s.pool = PoolStats { hits: 9, misses: 1 };
        s.pool_ready = 2;
        s.pool_pending = 1;
        s.pool_target = 3;
        s.journal_events = 6;
        s.transport = vec![
            TransportConn {
                peer: "127.0.0.1:7101".into(),
                direction: "out".into(),
                bytes: 10_240,
                frames: 64,
                tuples: 600,
                reconnects: 1,
            },
            TransportConn {
                peer: "127.0.0.1:52210".into(),
                direction: "in".into(),
                bytes: 8_192,
                frames: 50,
                tuples: 480,
                reconnects: 0,
            },
        ];
        s.heartbeat_lag = vec![("w1".into(), 120.0), ("w2".into(), 35.5)];
        s.round_phases = vec![("inject".into(), 0.25), ("quiesce".into(), 0.5)];
        s.rpcs = vec![("Probe".into(), 40), ("Tick".into(), 10)];
        s
    }

    #[test]
    fn exposition_parses_and_validates() {
        let s = snapshot_with_everything();
        let text = render_prometheus(&s);
        let exp = validate_exposition(&text).expect("exposition must be valid");
        assert!(exp.samples.len() > 40, "expected a rich exposition");
        // Every declared family name is well-formed.
        for name in exp.types.keys() {
            assert!(valid_metric_name(name), "bad family name {name}");
        }
    }

    /// Per-connection transport counters and heartbeat lag render as
    /// labelled families and survive the validator.
    #[test]
    fn transport_families_expose_per_connection_counters() {
        let s = snapshot_with_everything();
        let text = render_prometheus(&s);
        let exp = validate_exposition(&text).expect("exposition must stay valid");
        let bytes = exp.of("seep_transport_bytes_total");
        assert_eq!(bytes.len(), 2);
        let out = bytes
            .iter()
            .find(|p| p.label("dir") == Some("out"))
            .expect("outbound connection exported");
        assert_eq!(out.label("peer"), Some("127.0.0.1:7101"));
        assert_eq!(out.value, 10_240.0);
        assert_eq!(exp.of("seep_transport_frames_total").len(), 2);
        assert_eq!(exp.of("seep_transport_tuples_total").len(), 2);
        let reconnects = exp.of("seep_transport_reconnects_total");
        assert_eq!(reconnects.iter().map(|p| p.value).sum::<f64>(), 1.0);
        let lag = exp.of("seep_heartbeat_lag_ms");
        assert_eq!(lag.len(), 2);
        let w2 = lag
            .iter()
            .find(|p| p.label("worker") == Some("w2"))
            .expect("w2 exported");
        assert_eq!(w2.value, 35.5);
        let phases = exp.of("seep_node_round_phase_seconds_total");
        assert_eq!(phases.len(), 2);
        assert_eq!(phases[1].label("phase"), Some("quiesce"));
        assert_eq!(phases[1].value, 0.5);
        let rpcs = exp.of("seep_node_rpcs_total");
        assert_eq!(rpcs[0].label("verb"), Some("Probe"));
        assert_eq!(rpcs.iter().map(|p| p.value).sum::<f64>(), 50.0);
    }

    /// A snapshot with no transport traffic (the in-process plane) renders
    /// no transport families at all.
    #[test]
    fn transport_families_absent_without_connections() {
        let text = render_prometheus(&ObsSnapshot::default());
        assert!(!text.contains("seep_transport_"));
        assert!(!text.contains("seep_heartbeat_lag_ms"));
        assert!(!text.contains("seep_node_"));
        validate_exposition(&text).expect("default exposition stays valid");
    }

    #[test]
    fn hostile_label_values_roundtrip() {
        let s = snapshot_with_everything();
        let text = render_prometheus(&s);
        let exp = validate_exposition(&text).unwrap();
        let health = exp.of("seep_operator_health");
        assert_eq!(health.len(), 2);
        let hostile = health
            .iter()
            .find(|p| p.label("operator") == Some("7"))
            .expect("operator 7 exported");
        assert_eq!(hostile.label("name"), Some("count\"er\\one\nline"));
        assert_eq!(hostile.label("state"), Some("backpressured"));
        assert_eq!(hostile.value, 1.0);
        let failures = exp.of("seep_checkpoint_failures_total");
        let by_operator: Vec<_> = failures
            .iter()
            .map(|s| (s.label("operator"), s.value))
            .collect();
        assert_eq!(by_operator, vec![(Some("7"), 2.0), (Some("8"), 0.0)]);
    }

    #[test]
    fn histogram_buckets_are_cumulative_and_consistent() {
        let s = snapshot_with_everything();
        let text = render_prometheus(&s);
        let exp = validate_exposition(&text).unwrap();
        let buckets = exp.of("seep_latency_seconds_bucket");
        assert_eq!(buckets.len(), seep_core::LATENCY_BUCKET_BOUNDS_US.len() + 1);
        assert_eq!(exp.scalar("seep_latency_seconds_count").unwrap(), 50.0);
        let sum = exp.scalar("seep_latency_seconds_sum").unwrap();
        let expect = (1..=50u64).map(|i| i * 500).sum::<u64>() as f64 / 1e6;
        assert!((sum - expect).abs() < 1e-9, "{sum} vs {expect}");
    }

    #[test]
    fn counters_and_gauges_expose_expected_values() {
        let s = snapshot_with_everything();
        let text = render_prometheus(&s);
        let exp = validate_exposition(&text).unwrap();
        assert_eq!(
            exp.scalar("seep_virtual_time_milliseconds").unwrap(),
            42_000.0
        );
        assert_eq!(exp.scalar("seep_pool_hits_total").unwrap(), 9.0);
        assert_eq!(exp.scalar("seep_journal_events_total").unwrap(), 6.0);
        assert_eq!(exp.scalar("seep_placement_slots_per_vm").unwrap(), 2.0);
        let writes = exp.of("seep_store_writes_total");
        assert_eq!(writes.len(), 2, "full + incremental for one backend");
        let occ = exp.of("seep_placement_vm_occupancy");
        assert_eq!(occ.len(), 2);
        let phases = exp.of("seep_reconfig_phase_seconds_total");
        assert_eq!(phases.len(), 8, "eight phases for one kind");
        assert!(phases.iter().all(|p| p.label("kind") == Some("scale_out")));
    }

    #[test]
    fn default_snapshot_renders_validly() {
        // Pre-deployment scrape: no operators, no stores, empty histogram.
        let text = render_prometheus(&ObsSnapshot::default());
        let exp = validate_exposition(&text).expect("empty exposition still valid");
        assert_eq!(exp.scalar("seep_latency_seconds_count").unwrap(), 0.0);
        assert!(exp.of("seep_operator_health").is_empty());
    }

    #[test]
    fn parser_rejects_malformed_expositions() {
        // Sample without a TYPE declaration.
        assert!(parse_exposition("seep_x_total 1\n").is_err());
        // Invalid metric name.
        assert!(parse_exposition("# TYPE 9bad counter\n").is_err());
        // Unquoted label value.
        let bad = "# TYPE seep_x gauge\nseep_x{a=1} 1\n";
        assert!(parse_exposition(bad).is_err());
        // Histogram without +Inf.
        let no_inf = "# TYPE seep_h histogram\n\
                      seep_h_bucket{le=\"1\"} 1\nseep_h_sum 1\nseep_h_count 1\n";
        assert!(validate_exposition(no_inf).is_err());
        // Non-monotone buckets.
        let shrink = "# TYPE seep_h histogram\n\
                      seep_h_bucket{le=\"1\"} 5\nseep_h_bucket{le=\"+Inf\"} 3\n\
                      seep_h_sum 1\nseep_h_count 3\n";
        assert!(validate_exposition(shrink).is_err());
        // _count disagreeing with the +Inf bucket.
        let skew = "# TYPE seep_h histogram\n\
                    seep_h_bucket{le=\"+Inf\"} 3\nseep_h_sum 1\nseep_h_count 4\n";
        assert!(validate_exposition(skew).is_err());
        // Negative counter.
        let neg = "# TYPE seep_c counter\nseep_c -1\n";
        assert!(validate_exposition(neg).is_err());
    }

    #[test]
    fn health_json_reports_degraded_on_failure() {
        let mut s = snapshot_with_everything();
        let json = render_health_json(&s);
        assert!(json.contains("\"status\":\"ok\""), "{json}");
        s.health[1].state = HealthState::Failed;
        let json = render_health_json(&s);
        assert!(json.contains("\"status\":\"degraded\""), "{json}");
        assert!(json.contains("\"operators\""), "{json}");
    }
}
