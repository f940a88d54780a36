//! The simulator's side of the scaling policy (§5.1): the per-partition
//! report streaks. The policy parameters themselves are the runtime's
//! [`ScalingPolicy`] — one struct, one set of defaults, one hysteresis clamp.
//!
//! Every report interval each partition's CPU utilisation over the interval
//! is reported; when `consecutive_reports` successive reports of a partition
//! exceed `threshold`, the partition is declared a bottleneck and split in
//! two (if a VM can be obtained from the pool). Symmetrically, when scale in
//! is enabled and `scale_in_reports` successive reports of *two* partitions
//! of a stage fall below the clamped low watermark, the stage merges one
//! partition away and the VM is returned — the paper's merge primitive
//! (§3.3). Which partitions are then picked differs from the runtime (any
//! two idle partitions here, an adjacent idle pair there) and lives in the
//! engine.

use std::collections::HashMap;

use seep_cloud::ScalingPolicy;

/// Tracks consecutive above-threshold and below-watermark reports per
/// partition.
#[derive(Debug, Default)]
pub struct BottleneckTracker {
    streaks: HashMap<(usize, usize), usize>,
    low_streaks: HashMap<(usize, usize), usize>,
}

impl BottleneckTracker {
    /// Create an empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a utilisation report for partition `(stage, partition)` and
    /// return whether it has now accumulated `k` consecutive reports above
    /// the threshold.
    pub fn record(
        &mut self,
        stage: usize,
        partition: usize,
        utilization: f64,
        policy: &ScalingPolicy,
    ) -> bool {
        let streak = self.streaks.entry((stage, partition)).or_insert(0);
        if utilization > policy.threshold {
            *streak += 1;
        } else {
            *streak = 0;
        }
        if *streak >= policy.consecutive_reports {
            *streak = 0; // reset after triggering so scaling is rate-limited
            true
        } else {
            false
        }
    }

    /// Record the same report against the low watermark and return whether
    /// the partition has now been under-utilised for `scale_in_reports`
    /// consecutive reports. Always `false` when scale in is disabled.
    pub fn record_low(
        &mut self,
        stage: usize,
        partition: usize,
        utilization: f64,
        policy: &ScalingPolicy,
    ) -> bool {
        if !policy.scale_in {
            return false;
        }
        let streak = self.low_streaks.entry((stage, partition)).or_insert(0);
        if utilization < policy.effective_low_threshold() {
            *streak += 1;
        } else {
            *streak = 0;
        }
        if *streak >= policy.scale_in_reports {
            *streak = 0; // reset after triggering so merging is rate-limited
            true
        } else {
            false
        }
    }

    /// Forget a partition's streaks (after it was replaced by a scale out or
    /// merged away by a scale in).
    pub fn forget(&mut self, stage: usize, partition: usize) {
        self.streaks.remove(&(stage, partition));
        self.low_streaks.remove(&(stage, partition));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn triggers_after_k_consecutive_high_reports() {
        let policy = ScalingPolicy::default();
        let mut tracker = BottleneckTracker::new();
        assert!(!tracker.record(0, 0, 0.9, &policy));
        assert!(tracker.record(0, 0, 0.8, &policy));
        // After triggering the streak resets.
        assert!(!tracker.record(0, 0, 0.9, &policy));
    }

    #[test]
    fn dip_resets_streak() {
        let policy = ScalingPolicy::default();
        let mut tracker = BottleneckTracker::new();
        assert!(!tracker.record(1, 0, 0.9, &policy));
        assert!(!tracker.record(1, 0, 0.3, &policy));
        assert!(!tracker.record(1, 0, 0.9, &policy));
        assert!(tracker.record(1, 0, 0.9, &policy));
    }

    #[test]
    fn partitions_are_tracked_independently_and_forgettable() {
        let policy = ScalingPolicy::default().with_threshold(0.5);
        let mut tracker = BottleneckTracker::new();
        assert!(!tracker.record(0, 0, 0.9, &policy));
        assert!(!tracker.record(0, 1, 0.9, &policy));
        tracker.forget(0, 0);
        assert!(
            !tracker.record(0, 0, 0.9, &policy),
            "forgotten streak restarts"
        );
        assert!(tracker.record(0, 1, 0.9, &policy));
    }

    #[test]
    fn low_watermark_triggers_only_when_enabled() {
        let off = ScalingPolicy::default();
        let mut tracker = BottleneckTracker::new();
        for _ in 0..10 {
            assert!(!tracker.record_low(0, 0, 0.01, &off));
        }

        let on = ScalingPolicy::default().with_scale_in(0.2);
        assert!(!tracker.record_low(0, 0, 0.05, &on));
        assert!(!tracker.record_low(0, 0, 0.05, &on));
        assert!(tracker.record_low(0, 0, 0.05, &on), "third low report");
        // Streak resets after triggering.
        assert!(!tracker.record_low(0, 0, 0.05, &on));
        // A busy report resets the streak too.
        assert!(!tracker.record_low(0, 1, 0.05, &on));
        assert!(!tracker.record_low(0, 1, 0.9, &on));
        assert!(!tracker.record_low(0, 1, 0.05, &on));
        assert!(!tracker.record_low(0, 1, 0.05, &on));
        assert!(tracker.record_low(0, 1, 0.05, &on));
    }

    #[test]
    fn effective_low_threshold_is_clamped() {
        let p = ScalingPolicy::default().with_scale_in(0.6);
        assert!((p.effective_low_threshold() - 0.35).abs() < 1e-9);
        let q = ScalingPolicy::default().with_scale_in(0.1);
        assert!((q.effective_low_threshold() - 0.1).abs() < 1e-9);
        // The tracker applies the clamped watermark, not the configured one:
        // 0.4 is under 0.6 but over δ/2, so it never builds a streak.
        let mut tracker = BottleneckTracker::new();
        for _ in 0..p.scale_in_reports {
            assert!(!tracker.record_low(0, 0, 0.4, &p));
        }
    }
}
