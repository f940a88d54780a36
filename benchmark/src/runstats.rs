//! What a workload's own run says about the layers: the counters the job
//! keeps, and where the driver's time went according to the spans.

use seep_runtime::api::JobHandle;
use seep_runtime::ReconfigTiming;

use crate::report::Report;
use crate::stats::median;
use crate::trace::{self, Span};

/// Timed epochs the counters are taken over. Every run has at least this
/// many, so the counts do not depend on how many more the clock allowed —
/// two runs of the same code report the same counts.
pub const COUNTED_EPOCHS: usize = 3;

/// A reading of the cumulative counters a job exposes: through its handle
/// when it runs in this process, through the coordinator's scrape endpoint
/// and `--out` file when it runs as a cluster.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Counters {
    /// Tuples processed, summed over every operator instance there has been.
    pub processed: u64,
    pub checkpoints: u64,
    pub store_puts: u64,
    pub store_bytes_written: u64,
    pub store_write_us: u64,
    pub store_restores: u64,
    pub store_bytes_restored: u64,
    pub store_restore_us: u64,
    pub store_syncs: u64,
    pub store_compactions: u64,
    pub pool_hits: u64,
    pub pool_misses: u64,
}

impl Counters {
    pub fn read(handle: &JobHandle) -> Self {
        let store = handle.store_stats();
        let pool = handle.pool_stats();
        Counters {
            processed: handle.metrics().snapshot().total_processed,
            checkpoints: handle.metrics().checkpoints().len() as u64,
            store_puts: store.puts,
            store_bytes_written: store.bytes_written,
            store_write_us: store.write_us,
            store_restores: store.restores,
            store_bytes_restored: store.bytes_restored,
            store_restore_us: store.restore_us,
            store_syncs: store.syncs,
            store_compactions: store.compactions,
            pool_hits: pool.hits,
            pool_misses: pool.misses,
        }
    }
}

/// Report what the counters gained between two readings taken `wall_s`
/// apart.
pub fn put_counters(report: &mut Report, before: &Counters, after: &Counters, wall_s: f64) {
    let mut count = |name: &str, gained: u64, unit: &'static str| {
        report.put(name, gained as f64, unit);
    };
    count(
        "runtime.processed.total",
        after.processed - before.processed,
        "count",
    );
    count(
        "runtime.checkpoints",
        after.checkpoints - before.checkpoints,
        "count",
    );
    count("store.puts", after.store_puts - before.store_puts, "count");
    count(
        "store.bytes_written",
        after.store_bytes_written - before.store_bytes_written,
        "bytes",
    );
    count(
        "store.restores",
        after.store_restores - before.store_restores,
        "count",
    );
    count(
        "store.bytes_restored",
        after.store_bytes_restored - before.store_bytes_restored,
        "bytes",
    );
    count(
        "store.syncs",
        after.store_syncs - before.store_syncs,
        "count",
    );
    count(
        "store.compactions",
        after.store_compactions - before.store_compactions,
        "count",
    );
    count(
        "cloud.pool_hits",
        after.pool_hits - before.pool_hits,
        "count",
    );
    count(
        "cloud.pool_misses",
        after.pool_misses - before.pool_misses,
        "count",
    );
    let share = |us: u64| us as f64 / 1e6 / wall_s * 100.0;
    report.put(
        "store.write_pct",
        share(after.store_write_us - before.store_write_us),
        "%",
    );
    report.put(
        "store.restore_pct",
        share(after.store_restore_us - before.store_restore_us),
        "%",
    );
}

/// The driver-side classes every span name belongs to.
const CLASSES: [(&str, &[&str]); 5] = [
    ("inject", &["inject"]),
    ("drain", &["drain"]),
    ("advance", &["advance"]),
    ("reconfig", &["scale_out", "recovery", "scale_in"]),
    // Not inside a library call: waiting for a slot's due time, or for
    // child processes.
    ("wait", &["wait", "rounds", "reap"]),
];

/// Share of the timed window (the `epoch` spans) spent in each class of
/// call, the share that is the driver's own, and the number of drains.
pub fn put_span_shares(report: &mut Report, spans: &[Span]) {
    let totals = trace::totals_by_name(spans);
    let epoch = totals.get("epoch").copied().unwrap_or_default();
    let window_ns = epoch.total_ns.max(1) as f64;
    for (class, names) in CLASSES {
        let ns: u64 = names
            .iter()
            .filter_map(|name| totals.get(name))
            .map(|t| t.total_ns)
            .sum();
        report.put(
            format!("driver.{class}_pct"),
            ns as f64 / window_ns * 100.0,
            "%",
        );
    }
    report.put(
        "driver.self_share",
        epoch.self_ns as f64 / window_ns * 100.0,
        "%",
    );
    report.put(
        "runtime.drain_calls",
        totals.get("drain").map_or(0, |t| t.count) as f64,
        "count",
    );
    // Per-name detail, beside the classes.
    for (name, t) in &totals {
        if *name != "epoch" {
            report.put(
                format!("span.{name}_us_mean"),
                t.total_ns as f64 / 1e3 / t.count as f64,
                "us",
            );
        }
    }
}

/// Median of every phase of `timings` as `<prefix>.<phase>_us`.
pub fn put_phase_medians(report: &mut Report, prefix: &str, timings: &[ReconfigTiming]) {
    type Phase = fn(&ReconfigTiming) -> u64;
    let phases: [(&str, Phase); 8] = [
        ("drain", |t| t.drain_us),
        ("checkpoint", |t| t.checkpoint_us),
        ("rewrite", |t| t.rewrite_us),
        ("transform", |t| t.transform_us),
        ("restore", |t| t.restore_us),
        ("commit", |t| t.commit_us),
        ("replay", |t| t.replay_us),
        ("total", |t| t.total_us),
    ];
    for (phase, of) in phases {
        let values: Vec<f64> = timings.iter().map(|t| of(t) as f64).collect();
        report.put(format!("{prefix}.{phase}_us"), median(&values), "us");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_shares_cover_the_window() {
        let span = |name, start, end, parent| Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            epoch: 1,
        };
        let spans = vec![
            span("epoch", 0, 1_000, None),
            span("inject", 0, 100, Some(0)),
            span("drain", 100, 600, Some(0)),
            span("scale_in", 600, 900, Some(0)),
            span("drain", 900, 950, Some(0)),
        ];
        let mut report = Report::default();
        put_span_shares(&mut report, &spans);
        let close = |name: &str, want: f64| {
            let got = report.get(name).unwrap();
            assert!((got - want).abs() < 1e-9, "{name}: {got} != {want}");
        };
        close("driver.inject_pct", 10.0);
        close("driver.drain_pct", 55.0);
        close("driver.reconfig_pct", 30.0);
        close("driver.advance_pct", 0.0);
        close("driver.wait_pct", 0.0);
        close("driver.self_share", 5.0);
        close("runtime.drain_calls", 2.0);
    }
}
