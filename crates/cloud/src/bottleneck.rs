//! Bottleneck / under-utilisation detection and the bidirectional scaling
//! policy (§5.1, §3.3).
//!
//! Every `r` seconds the VMs hosting operators submit CPU utilisation
//! reports; when `k` consecutive reports of an operator exceed the threshold
//! δ, the operator is declared a bottleneck and the scale-out coordinator is
//! asked to parallelise it. The paper determines empirically that `r = 5 s`,
//! `k = 2` and `δ = 70 %` give appropriate scaling behaviour.
//!
//! The policy is bidirectional: the paper lists *merge* as the scale-in
//! counterpart of the partition primitives, releasing a VM when partitions of
//! a logical operator are under-utilised. Scale in triggers when
//! `scale_in_reports` consecutive reports of *both* partitions of an adjacent
//! sibling pair fall below the low-water threshold `low_threshold`. The low
//! watermark sits well under δ (hysteresis), so a freshly merged operator —
//! whose utilisation is roughly the sum of the two merged partitions — does
//! not immediately trip the bottleneck rule and flap back out.

use serde::{Deserialize, Serialize};

use seep_core::OperatorId;

use crate::monitor::CpuMonitor;

/// The scaling policy parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ScalingPolicy {
    /// CPU utilisation threshold δ in `[0, 1]` above which an operator is a
    /// scale-out candidate.
    pub threshold: f64,
    /// Number of consecutive reports above the threshold required (k).
    pub consecutive_reports: usize,
    /// Report interval r in milliseconds.
    pub report_interval_ms: u64,
    /// Low-water utilisation threshold in `[0, 1]` below which a partition is
    /// a scale-in candidate. Must stay below `threshold`; the gap is the
    /// hysteresis band that keeps the system from flapping between scale out
    /// and scale in. Ignored unless `scale_in` is enabled.
    pub low_threshold: f64,
    /// Consecutive reports below `low_threshold` required before two sibling
    /// partitions are merged. Defaults higher than `consecutive_reports`:
    /// releasing a VM too eagerly costs a re-partition minutes later, whereas
    /// holding it a little longer only costs VM-hours.
    pub scale_in_reports: usize,
    /// Whether the control loop may merge under-utilised partitions and
    /// release VMs. Off by default so experiments that only study scale out
    /// keep the original behaviour.
    pub scale_in: bool,
    /// Whether the control loop may **rebalance** instead of scaling out:
    /// when a partition is a bottleneck but its siblings are cold enough
    /// that the operator's mean utilisation sits below δ, the skew is in
    /// the key split rather than in aggregate demand, and the runtime
    /// re-draws all the boundaries from the observed key distribution
    /// without consuming a VM. Off by default.
    #[serde(default)]
    pub rebalance: bool,
    /// Whether the control loop may **consolidate** under-utilised
    /// partitions: pack them onto shared VM slots (first-fit-decreasing over
    /// [`crate::VmPoolConfig::slots_per_vm`]) and release the emptied
    /// VMs, keeping parallelism — the scale-in path that does not require
    /// adjacent siblings. Takes effect only together with `scale_in` and a
    /// multi-slot placement. Off by default.
    #[serde(default)]
    pub consolidate: bool,
}

impl Default for ScalingPolicy {
    fn default() -> Self {
        ScalingPolicy {
            threshold: 0.70,
            consecutive_reports: 2,
            report_interval_ms: 5_000,
            low_threshold: 0.20,
            scale_in_reports: 3,
            scale_in: false,
            rebalance: false,
            consolidate: false,
        }
    }
}

impl ScalingPolicy {
    /// A policy with a different utilisation threshold (used by the δ sweep
    /// of Fig. 9).
    pub fn with_threshold(mut self, threshold: f64) -> Self {
        self.threshold = threshold;
        self
    }

    /// Enable scale in with the given low-water threshold.
    pub fn with_scale_in(mut self, low_threshold: f64) -> Self {
        self.scale_in = true;
        self.low_threshold = low_threshold;
        self
    }

    /// Enable skew-driven rebalancing of hot/cold sibling partitions.
    pub fn with_rebalance(mut self) -> Self {
        self.rebalance = true;
        self
    }

    /// Enable consolidation of under-utilised partitions onto shared VM
    /// slots (effective only together with scale in and
    /// `pool.slots_per_vm >= 2`).
    pub fn with_consolidate(mut self) -> Self {
        self.consolidate = true;
        self
    }

    /// The low-water threshold actually used for scale-in decisions: clamped
    /// below the scale-out threshold so the two triggers can never overlap,
    /// whatever the caller configured. Merging two partitions at most doubles
    /// utilisation, so half of δ is the largest low watermark that cannot
    /// produce an immediate re-split; the clamp enforces it.
    pub fn effective_low_threshold(&self) -> f64 {
        self.low_threshold.min(self.threshold / 2.0)
    }

    /// The operators among `candidates` whose last `k` reports all exceed δ.
    pub fn bottlenecks(&self, monitor: &CpuMonitor, candidates: &[OperatorId]) -> Vec<OperatorId> {
        candidates
            .iter()
            .copied()
            .filter(|op| monitor.consecutive_above(*op, self.consecutive_reports, self.threshold))
            .collect()
    }

    /// The operators among `candidates` whose last `scale_in_reports` reports
    /// are all below the (hysteresis-clamped) low-water threshold. Empty when
    /// scale in is disabled. The caller is responsible for pairing adjacent
    /// siblings — under-utilisation alone does not make an operator mergeable.
    pub fn underutilized(
        &self,
        monitor: &CpuMonitor,
        candidates: &[OperatorId],
    ) -> Vec<OperatorId> {
        if !self.scale_in {
            return Vec::new();
        }
        let low = self.effective_low_threshold();
        candidates
            .iter()
            .copied()
            .filter(|op| monitor.consecutive_below(*op, self.scale_in_reports, low))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{UtilizationReport, VmId};

    fn report(op: u64, at: u64, util: f64) -> UtilizationReport {
        UtilizationReport {
            operator: OperatorId::new(op),
            vm: VmId(op),
            at_ms: at,
            utilization: util,
        }
    }

    #[test]
    fn default_policy_matches_paper() {
        let p = ScalingPolicy::default();
        assert!((p.threshold - 0.70).abs() < 1e-9);
        assert_eq!(p.consecutive_reports, 2);
        assert_eq!(p.report_interval_ms, 5_000);
        let p10 = p.with_threshold(0.10);
        assert!((p10.threshold - 0.10).abs() < 1e-9);
        assert!(!p.scale_in, "scale in is opt-in");
        assert!(!p.rebalance, "rebalancing is opt-in");
        assert!(!p.consolidate, "consolidation is opt-in");
        assert!(p.with_rebalance().rebalance);
        assert!(p.with_consolidate().consolidate);
        assert!(p.low_threshold < p.threshold);
        assert!(p.scale_in_reports > p.consecutive_reports);
    }

    #[test]
    fn low_threshold_is_clamped_for_hysteresis() {
        let p = ScalingPolicy::default().with_scale_in(0.9);
        assert!(p.scale_in);
        // Configured above δ, but the effective watermark stays at δ/2 so a
        // merged operator cannot immediately become a bottleneck again.
        assert!((p.effective_low_threshold() - 0.35).abs() < 1e-9);
        let sane = ScalingPolicy::default().with_scale_in(0.15);
        assert!((sane.effective_low_threshold() - 0.15).abs() < 1e-9);
    }

    #[test]
    fn detects_operator_with_k_consecutive_high_reports() {
        let monitor = CpuMonitor::new(16);
        let policy = ScalingPolicy::default();
        let ops = [OperatorId::new(1), OperatorId::new(2)];

        monitor.record(report(1, 0, 0.9));
        monitor.record(report(2, 0, 0.4));
        assert!(
            policy.bottlenecks(&monitor, &ops).is_empty(),
            "only one report"
        );

        monitor.record(report(1, 5_000, 0.85));
        monitor.record(report(2, 5_000, 0.5));
        assert_eq!(policy.bottlenecks(&monitor, &ops), vec![OperatorId::new(1)]);
    }

    #[test]
    fn dip_below_threshold_resets_detection() {
        let monitor = CpuMonitor::new(16);
        let policy = ScalingPolicy::default();
        let ops = [OperatorId::new(1)];
        monitor.record(report(1, 0, 0.9));
        monitor.record(report(1, 5_000, 0.6));
        monitor.record(report(1, 10_000, 0.9));
        assert!(policy.bottlenecks(&monitor, &ops).is_empty());
        assert_eq!(policy.consecutive_reports, 2);
    }

    #[test]
    fn underutilized_requires_scale_in_enabled_and_a_full_streak() {
        let monitor = CpuMonitor::new(16);
        let ops = [OperatorId::new(1), OperatorId::new(2)];
        for at in [0, 5_000, 10_000] {
            monitor.record(report(1, at, 0.05));
            monitor.record(report(2, at, 0.5));
        }
        let off = ScalingPolicy::default();
        assert!(off.underutilized(&monitor, &ops).is_empty(), "disabled");

        let on = ScalingPolicy::default().with_scale_in(0.2);
        assert_eq!(on.underutilized(&monitor, &ops), vec![OperatorId::new(1)]);

        // A busy report breaks the streak.
        monitor.record(report(1, 15_000, 0.6));
        monitor.record(report(1, 20_000, 0.05));
        assert!(on.underutilized(&monitor, &ops).is_empty());
    }

    #[test]
    fn an_operator_is_never_both_bottleneck_and_underutilized() {
        let monitor = CpuMonitor::new(16);
        let ops = [OperatorId::new(1)];
        // Even with a degenerate configuration (low watermark above δ) the
        // clamp keeps the two trigger bands disjoint.
        let policy = ScalingPolicy::default().with_scale_in(0.95);
        for at in [0, 5_000, 10_000, 15_000] {
            monitor.record(report(1, at, 0.5));
        }
        let hot = policy.bottlenecks(&monitor, &ops);
        let cold = policy.underutilized(&monitor, &ops);
        assert!(hot.is_empty() && cold.is_empty());
    }
}
