//! Per-operator health derivation.
//!
//! The runtime does not store a health state anywhere — health is *derived*
//! on demand from facts it already tracks: worker failure flags, inbound
//! queue depth against the runtime's `BACKPRESSURE_QUEUE` watermark
//! (10 000 tuples), the latest CPU utilisation report, and whether a
//! reconfiguration plan committed at the current virtual instant. That keeps
//! the state machine impossible to desynchronise from reality.
//!
//! Precedence, highest first: `Failed` (the worker's failure flag is set),
//! `Recovering` (a recovery plan committed at the current instant),
//! `Reconfiguring` (any other plan committed at the current instant),
//! `Backpressured` (inbound queue at or above the watermark), `Ok`.

use serde::{Deserialize, Serialize};

use seep_core::{HealthState, LogicalOpId, OperatorId};

use crate::obs::journal::JournalKind;

/// The state an operator reports while a plan of `kind` committed at the
/// current virtual instant: `Recovering` iff the plan was a recovery.
pub(crate) fn plan_state(kind: JournalKind) -> HealthState {
    match kind {
        JournalKind::Recovery => HealthState::Recovering,
        _ => HealthState::Reconfiguring,
    }
}

/// Health of one operator instance, as reported by
/// [`crate::JobHandle::health`] and the `/health` endpoint.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OperatorHealth {
    /// Physical instance id.
    pub operator: OperatorId,
    /// Logical operator the instance partitions.
    pub logical: LogicalOpId,
    /// Logical operator name.
    pub name: String,
    /// Derived health state.
    pub state: HealthState,
    /// Inbound queue depth (tuples) at derivation time.
    pub queued: usize,
    /// Latest reported CPU utilisation in `[0, 1]` (0 when no report yet).
    pub utilization: f64,
    /// Tuples processed by the instance so far.
    pub processed: u64,
    /// Periodic checkpoints of the instance that failed so far. While they
    /// keep failing the instance's backup goes stale and its upstream
    /// buffers grow.
    #[serde(default)]
    pub checkpoint_failures: u64,
    /// Hosting VM, when placed.
    pub vm: Option<u64>,
}

/// The `/health` endpoint document: overall status plus the per-operator
/// breakdown.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HealthReport {
    /// `"ok"` when no operator is `Failed`, `"degraded"` otherwise.
    pub status: String,
    /// Virtual time of the snapshot (ms).
    pub now_ms: u64,
    /// Per-instance health.
    pub operators: Vec<OperatorHealth>,
}

impl HealthReport {
    /// Build a report; status is `"degraded"` iff any instance is `Failed`.
    pub fn new(now_ms: u64, operators: Vec<OperatorHealth>) -> Self {
        let degraded = operators.iter().any(|o| o.state == HealthState::Failed);
        HealthReport {
            status: if degraded { "degraded" } else { "ok" }.to_string(),
            now_ms,
            operators,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn op(id: u64, state: HealthState) -> OperatorHealth {
        OperatorHealth {
            operator: OperatorId::new(id),
            logical: LogicalOpId(1),
            name: "counter".into(),
            state,
            queued: 0,
            utilization: 0.0,
            processed: 0,
            checkpoint_failures: 0,
            vm: Some(id),
        }
    }

    #[test]
    fn activity_maps_to_states() {
        assert_eq!(
            plan_state(JournalKind::ScaleOut),
            HealthState::Reconfiguring
        );
        assert_eq!(
            plan_state(JournalKind::Consolidate),
            HealthState::Reconfiguring
        );
        assert_eq!(plan_state(JournalKind::Recovery), HealthState::Recovering);
    }

    #[test]
    fn report_degrades_only_on_failed_instances() {
        let ok = HealthReport::new(5, vec![op(1, HealthState::Ok)]);
        assert_eq!(ok.status, "ok");
        let busy = HealthReport::new(
            5,
            vec![op(1, HealthState::Backpressured), op(2, HealthState::Ok)],
        );
        assert_eq!(busy.status, "ok", "backpressure is not an outage");
        let bad = HealthReport::new(5, vec![op(1, HealthState::Failed)]);
        assert_eq!(bad.status, "degraded");
        assert_eq!(bad.now_ms, 5);
    }
}
