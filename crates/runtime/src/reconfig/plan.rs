//! Declarative reconfiguration plans.
//!
//! A [`ReconfigPlan`] names *what* should change — which physical instances
//! are replaced, by how many partitions, and how their key range is split —
//! while the executor owns *how*: the shared
//! drain → pause → checkpoint → rewrite → transform → restore → route →
//! replay choreography (see [`crate::reconfig`]). Scale out, scale in,
//! recovery and rebalancing are just four builders over the same plan shape.

use serde::{Deserialize, Serialize};

use seep_core::{sample_imbalance, Checkpoint, Key, KeyRange, LogicalOpId, OperatorId, Result};

use crate::metrics::SplitKind;

/// Default number of keys sampled from a checkpoint when deciding and
/// applying a distribution-guided split.
pub const DEFAULT_SPLIT_SAMPLE: usize = 4_096;

/// Default imbalance (hottest partition share over ideal share) above which
/// a skew-aware plan prefers a distribution-guided split over an even one.
pub const DEFAULT_IMBALANCE_THRESHOLD: f64 = 1.2;

/// How a plan splits the key range it reconfigures.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub enum SplitPolicy {
    /// Always split the key space evenly (hash partitioning — the paper's
    /// default, and the seed behaviour).
    #[default]
    Even,
    /// Sample hot keys from the captured checkpoint and use
    /// [`KeyRange::split_by_distribution`] when the even split's sampled
    /// imbalance exceeds the threshold; fall back to the even split
    /// otherwise (and whenever the sample is too degenerate to supply
    /// distinct boundaries).
    SkewAware {
        /// Even-split imbalance above which the distribution split is used.
        imbalance_threshold: f64,
        /// Maximum keys sampled from the checkpoint.
        max_sample: usize,
    },
}

impl SplitPolicy {
    /// A skew-aware policy with the default threshold and sample size.
    pub fn skew_aware() -> Self {
        SplitPolicy::SkewAware {
            imbalance_threshold: DEFAULT_IMBALANCE_THRESHOLD,
            max_sample: DEFAULT_SPLIT_SAMPLE,
        }
    }

    /// Choose the sub-ranges that split `range` into `parts`, consulting a
    /// load-weighted key sample of `checkpoint` when skew-aware. `parts == 1`
    /// trivially returns the range itself.
    pub fn choose(
        &self,
        range: &KeyRange,
        parts: usize,
        checkpoint: &Checkpoint,
    ) -> Result<SplitDecision> {
        if parts == 1 {
            return Ok(SplitDecision {
                ranges: vec![*range],
                kind: SplitKind::None,
                post_split_imbalance: 0.0,
            });
        }
        let even = range.split_even(parts)?;
        match self {
            SplitPolicy::Even => Ok(SplitDecision {
                ranges: even,
                kind: SplitKind::Even,
                post_split_imbalance: 0.0,
            }),
            SplitPolicy::SkewAware {
                imbalance_threshold,
                max_sample,
            } => {
                let sample: Vec<Key> = checkpoint.sample_keys(*max_sample);
                if sample.is_empty() {
                    // No state to sample: 0.0 marks "no prediction", per the
                    // ReconfigTiming contract.
                    return Ok(SplitDecision {
                        ranges: even,
                        kind: SplitKind::Even,
                        post_split_imbalance: 0.0,
                    });
                }
                let even_imbalance = sample_imbalance(&even, &sample);
                if even_imbalance <= *imbalance_threshold {
                    return Ok(SplitDecision {
                        post_split_imbalance: even_imbalance,
                        ranges: even,
                        kind: SplitKind::Even,
                    });
                }
                let guided = range.split_by_distribution(parts, &sample)?;
                let kind = if guided == even {
                    SplitKind::Even // the sample degraded to the even split
                } else {
                    SplitKind::Distribution
                };
                Ok(SplitDecision {
                    post_split_imbalance: sample_imbalance(&guided, &sample),
                    ranges: guided,
                    kind,
                })
            }
        }
    }
}

/// The outcome of a split decision: the chosen ranges, how they were chosen,
/// and the load imbalance the sampled keys predict for them.
#[derive(Debug, Clone)]
pub struct SplitDecision {
    /// The sub-ranges, in key order, covering the reconfigured range.
    pub ranges: Vec<KeyRange>,
    /// Which strategy produced them.
    pub kind: SplitKind,
    /// Sampled post-split imbalance (1.0 = balanced; 0.0 = no sample).
    pub post_split_imbalance: f64,
}

/// The shape of a reconfiguration: which instances are replaced and by what.
///
/// Recovery carries no shape of its own — it is a [`ScaleOut`] of the failed
/// operator (the paper's central point: fault tolerance and elasticity are
/// the same state-management mechanism), run by [`crate::Runtime::recover`]
/// under the kind [`crate::obs::JournalKind::Recovery`] with
/// strategy-specific replay and catch-up. That fieldless kind, not this
/// enum, is what the journal, the metrics records and the exposition name
/// a plan by.
///
/// [`ScaleOut`]: ReconfigKind::ScaleOut
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ReconfigKind {
    /// Replace one instance (live or failed) by `partitions` new partitions
    /// on fresh VMs, splitting its key range.
    ScaleOut {
        /// The instance being replaced.
        target: OperatorId,
        /// Number of new partitions (π).
        partitions: usize,
    },
    /// Merge two adjacent sibling partitions onto `target`'s VM and release
    /// `victim`'s VM back to the provider (when the merge empties it).
    ScaleIn {
        /// The partition whose VM hosts the merged operator.
        target: OperatorId,
        /// The partition whose VM is vacated.
        victim: OperatorId,
    },
    /// Re-split **all π partitions** of a logical operator by the observed
    /// key distribution in one plan: every partition's state is captured,
    /// the pooled (traffic- or footprint-weighted) key sample of the merged
    /// capture chooses π new weighted-quantile boundaries, and each new
    /// partition is restored onto the VM that owned that slice of the key
    /// space — a repartition that neither grows nor shrinks the deployment.
    Rebalance {
        /// The logical operator whose partitions are re-split.
        logical: LogicalOpId,
    },
    /// Consolidate the partitions of a logical operator onto fewer VMs: the
    /// key ranges are untouched, but each partition is checkpoint-moved onto
    /// a shared VM chosen by first-fit-decreasing bin packing over the VMs'
    /// slot capacity, and the VMs left empty are released to the cloud pool.
    /// Scale-in without losing parallelism — and without requiring adjacent
    /// siblings.
    Consolidate {
        /// The logical operator whose partitions are packed.
        logical: LogicalOpId,
    },
}

/// A declarative reconfiguration: the shape plus the key-split policy.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ReconfigPlan {
    /// What is reconfigured.
    pub kind: ReconfigKind,
    /// How the reconfigured key range is split.
    pub split: SplitPolicy,
}

impl ReconfigPlan {
    /// Scale `target` out into `partitions` new instances.
    pub fn scale_out(target: OperatorId, partitions: usize, split: SplitPolicy) -> Self {
        ReconfigPlan {
            kind: ReconfigKind::ScaleOut { target, partitions },
            split,
        }
    }

    /// Recover a failed operator: the same plan as a scale out of the failed
    /// instance (serial at `partitions == 1`, parallel above).
    pub fn recover(failed: OperatorId, partitions: usize, split: SplitPolicy) -> Self {
        Self::scale_out(failed, partitions, split)
    }

    /// Merge `victim` into `target`, releasing `victim`'s VM.
    pub fn scale_in(target: OperatorId, victim: OperatorId) -> Self {
        ReconfigPlan {
            kind: ReconfigKind::ScaleIn { target, victim },
            // A merge produces a single range; no split decision is taken.
            split: SplitPolicy::Even,
        }
    }

    /// Rebalance all partitions of `logical` by the observed key
    /// distribution. The threshold is 1.0 — any measurable improvement over
    /// the even boundaries is taken, since the caller has already decided the
    /// operator is skewed.
    pub fn rebalance(logical: LogicalOpId) -> Self {
        ReconfigPlan {
            kind: ReconfigKind::Rebalance { logical },
            split: SplitPolicy::SkewAware {
                imbalance_threshold: 1.0,
                max_sample: DEFAULT_SPLIT_SAMPLE,
            },
        }
    }

    /// Pack the partitions of `logical` onto as few VMs as their slot
    /// capacity allows, releasing the emptied VMs. Key ranges are untouched,
    /// so no split decision is taken.
    pub fn consolidate(logical: LogicalOpId) -> Self {
        ReconfigPlan {
            kind: ReconfigKind::Consolidate { logical },
            split: SplitPolicy::Even,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seep_core::{BufferState, ProcessingState};

    fn checkpoint_with_weights(weights: &[(u64, usize)]) -> Checkpoint {
        let mut st = ProcessingState::empty();
        for (k, bytes) in weights {
            st.insert(Key(*k), vec![0u8; *bytes]);
        }
        Checkpoint::new(OperatorId::new(1), 1, st, BufferState::new())
    }

    #[test]
    fn even_policy_never_samples() {
        let cp = checkpoint_with_weights(&[(10, 1_000), (900, 10)]);
        let d = SplitPolicy::Even
            .choose(&KeyRange::new(0, 999), 2, &cp)
            .unwrap();
        assert_eq!(d.kind, SplitKind::Even);
        assert_eq!(d.ranges, KeyRange::new(0, 999).split_even(2).unwrap());
        assert_eq!(d.post_split_imbalance, 0.0);
    }

    #[test]
    fn skew_aware_switches_to_distribution_above_threshold() {
        // 95 % of the state bytes on one key in the lower half: the even
        // split is heavily imbalanced, the guided split separates the key.
        let cp = checkpoint_with_weights(&[(100, 5_000), (600, 100), (900, 100)]);
        let policy = SplitPolicy::skew_aware();
        let d = policy.choose(&KeyRange::new(0, 999), 2, &cp).unwrap();
        assert_eq!(d.kind, SplitKind::Distribution);
        assert!(d.post_split_imbalance >= 1.0);
        assert!(d.ranges[0].hi < 600, "hot key separated: {:?}", d.ranges);
    }

    #[test]
    fn skew_aware_keeps_even_split_for_balanced_state() {
        let weights: Vec<(u64, usize)> = (0..100).map(|k| (k * 10, 16)).collect();
        let cp = checkpoint_with_weights(&weights);
        let d = SplitPolicy::skew_aware()
            .choose(&KeyRange::new(0, 999), 2, &cp)
            .unwrap();
        assert_eq!(d.kind, SplitKind::Even);
        assert!(d.post_split_imbalance >= 1.0 && d.post_split_imbalance < 1.2);
    }

    #[test]
    fn skew_aware_falls_back_on_empty_checkpoints() {
        let cp = Checkpoint::empty(OperatorId::new(1));
        let d = SplitPolicy::skew_aware()
            .choose(&KeyRange::full(), 4, &cp)
            .unwrap();
        assert_eq!(d.kind, SplitKind::Even);
        assert_eq!(d.ranges, KeyRange::full().split_even(4).unwrap());
        assert_eq!(d.post_split_imbalance, 0.0, "no sample means no prediction");
    }

    #[test]
    fn single_partition_is_a_trivial_split() {
        let cp = checkpoint_with_weights(&[(5, 100)]);
        let d = SplitPolicy::skew_aware()
            .choose(&KeyRange::full(), 1, &cp)
            .unwrap();
        assert_eq!(d.kind, SplitKind::None);
        assert_eq!(d.ranges, vec![KeyRange::full()]);
    }

    #[test]
    fn builders_produce_the_expected_shapes() {
        let a = OperatorId::new(1);
        let b = OperatorId::new(2);
        let plan = ReconfigPlan::scale_out(a, 3, SplitPolicy::Even);
        assert!(matches!(
            plan.kind,
            ReconfigKind::ScaleOut { partitions: 3, .. }
        ));
        let plan = ReconfigPlan::recover(a, 1, SplitPolicy::Even);
        assert!(matches!(
            plan.kind,
            ReconfigKind::ScaleOut { partitions: 1, .. }
        ));
        let plan = ReconfigPlan::scale_in(a, b);
        assert!(matches!(plan.kind, ReconfigKind::ScaleIn { .. }));
        let plan = ReconfigPlan::rebalance(LogicalOpId(3));
        assert!(matches!(
            plan.kind,
            ReconfigKind::Rebalance {
                logical: LogicalOpId(3)
            }
        ));
        assert!(matches!(
            plan.split,
            SplitPolicy::SkewAware { imbalance_threshold, .. } if imbalance_threshold == 1.0
        ));
        let plan = ReconfigPlan::consolidate(LogicalOpId(3));
        assert!(matches!(
            plan.kind,
            ReconfigKind::Consolidate {
                logical: LogicalOpId(3)
            }
        ));
    }
}
