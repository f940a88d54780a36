//! CPU utilisation reports (§5.1).
//!
//! Every `r` seconds, VMs hosting operators submit CPU utilisation reports —
//! the user plus system CPU time consumed by each operator during the report
//! interval, which also accounts for CPU time "stolen" by other VMs sharing
//! the physical host. The bottleneck detector scales an operator out when `k`
//! consecutive reports exceed the threshold δ.
//!
//! The monitor here is the collection side: it stores recent reports per
//! operator and answers the "k consecutive reports above δ" query. The policy
//! that reads it is [`crate::ScalingPolicy`], shared by `seep-runtime` and
//! `seep-sim`.

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, VecDeque};

use seep_core::OperatorId;

use crate::vm::VmId;

/// One CPU utilisation report for an operator hosted on a VM.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct UtilizationReport {
    /// The operator the report is about.
    pub operator: OperatorId,
    /// The VM hosting the operator.
    pub vm: VmId,
    /// Time the report was taken (ms).
    pub at_ms: u64,
    /// CPU utilisation of the operator over the report interval, in `[0, 1]`
    /// of the VM's CPU time slice (user + system, accounting for steal).
    pub utilization: f64,
}

/// Collects utilisation reports and answers threshold queries.
#[derive(Debug, Default)]
pub struct CpuMonitor {
    history: Mutex<HashMap<OperatorId, VecDeque<UtilizationReport>>>,
    /// Maximum reports retained per operator.
    capacity: usize,
}

impl CpuMonitor {
    /// Create a monitor retaining up to `capacity` reports per operator.
    pub fn new(capacity: usize) -> Self {
        CpuMonitor {
            history: Mutex::new(HashMap::new()),
            capacity: capacity.max(1),
        }
    }

    /// Record a report.
    pub fn record(&self, report: UtilizationReport) {
        let mut history = self.history.lock();
        let q = history.entry(report.operator).or_default();
        q.push_back(report);
        while q.len() > self.capacity {
            q.pop_front();
        }
    }

    /// Whether the last `k` reports for `operator` all exceed `threshold`.
    /// Returns `false` when fewer than `k` reports exist.
    pub fn consecutive_above(&self, operator: OperatorId, k: usize, threshold: f64) -> bool {
        let history = self.history.lock();
        let Some(q) = history.get(&operator) else {
            return false;
        };
        if q.len() < k || k == 0 {
            return false;
        }
        q.iter().rev().take(k).all(|r| r.utilization > threshold)
    }

    /// Whether the last `k` reports for `operator` are all strictly below
    /// `threshold` (the scale-in counterpart of
    /// [`consecutive_above`](Self::consecutive_above)). Returns `false` when
    /// fewer than `k` reports exist, so freshly deployed operators are never
    /// merged before they have a utilisation history.
    pub fn consecutive_below(&self, operator: OperatorId, k: usize, threshold: f64) -> bool {
        let history = self.history.lock();
        let Some(q) = history.get(&operator) else {
            return false;
        };
        if q.len() < k || k == 0 {
            return false;
        }
        q.iter().rev().take(k).all(|r| r.utilization < threshold)
    }

    /// The most recent report for `operator`.
    pub fn latest(&self, operator: OperatorId) -> Option<UtilizationReport> {
        self.history
            .lock()
            .get(&operator)
            .and_then(|q| q.back().copied())
    }

    /// Average utilisation over the retained reports of `operator`.
    pub fn average(&self, operator: OperatorId) -> Option<f64> {
        let history = self.history.lock();
        let q = history.get(&operator)?;
        if q.is_empty() {
            return None;
        }
        Some(q.iter().map(|r| r.utilization).sum::<f64>() / q.len() as f64)
    }

    /// Operators that have submitted at least one report.
    pub fn operators(&self) -> Vec<OperatorId> {
        let mut ops: Vec<OperatorId> = self.history.lock().keys().copied().collect();
        ops.sort();
        ops
    }

    /// Drop the history for an operator (after it is removed from the graph).
    pub fn forget(&self, operator: OperatorId) {
        self.history.lock().remove(&operator);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(op: u64, at: u64, util: f64) -> UtilizationReport {
        UtilizationReport {
            operator: OperatorId::new(op),
            vm: VmId(op),
            at_ms: at,
            utilization: util,
        }
    }

    #[test]
    fn consecutive_above_requires_k_reports() {
        let m = CpuMonitor::new(10);
        let op = OperatorId::new(1);
        m.record(report(1, 0, 0.9));
        assert!(!m.consecutive_above(op, 2, 0.7), "only one report so far");
        m.record(report(1, 5_000, 0.8));
        assert!(m.consecutive_above(op, 2, 0.7));
        assert!(!m.consecutive_above(op, 2, 0.85));
        assert!(!m.consecutive_above(op, 0, 0.5), "k = 0 is never a trigger");
        assert!(!m.consecutive_above(OperatorId::new(9), 1, 0.1));
    }

    #[test]
    fn a_dip_resets_the_streak() {
        let m = CpuMonitor::new(10);
        let op = OperatorId::new(1);
        m.record(report(1, 0, 0.9));
        m.record(report(1, 5_000, 0.5)); // dip below threshold
        m.record(report(1, 10_000, 0.9));
        assert!(!m.consecutive_above(op, 2, 0.7));
        m.record(report(1, 15_000, 0.95));
        assert!(m.consecutive_above(op, 2, 0.7));
    }

    #[test]
    fn consecutive_below_mirrors_above() {
        let m = CpuMonitor::new(10);
        let op = OperatorId::new(1);
        m.record(report(1, 0, 0.1));
        assert!(!m.consecutive_below(op, 2, 0.2), "only one report so far");
        m.record(report(1, 5_000, 0.15));
        assert!(!m.consecutive_below(op, 2, 0.1), "reports not below 0.1");
        assert!(m.consecutive_below(op, 2, 0.2));
        m.record(report(1, 10_000, 0.9)); // spike resets the streak
        assert!(!m.consecutive_below(op, 2, 0.2));
        assert!(!m.consecutive_below(op, 0, 0.2), "k = 0 is never a trigger");
        assert!(!m.consecutive_below(OperatorId::new(9), 1, 0.9));
    }

    #[test]
    fn history_is_bounded() {
        let m = CpuMonitor::new(3);
        for i in 0..10 {
            m.record(report(1, i * 1000, 0.1 * i as f64));
        }
        let avg = m.average(OperatorId::new(1)).unwrap();
        // Only the last 3 reports (0.7, 0.8, 0.9) are retained.
        assert!((avg - 0.8).abs() < 1e-9);
        assert_eq!(m.latest(OperatorId::new(1)).unwrap().utilization, 0.9);
    }

    #[test]
    fn forget_drops_history() {
        let m = CpuMonitor::new(3);
        m.record(report(1, 0, 0.9));
        assert_eq!(m.operators().len(), 1);
        m.forget(OperatorId::new(1));
        assert!(m.operators().is_empty());
        assert!(m.average(OperatorId::new(1)).is_none());
    }
}
