//! The ops plane: Prometheus exposition, the reconfiguration event journal,
//! and per-operator health.
//!
//! Three pieces, deliberately decoupled from the data path:
//!
//! * [`prometheus`] renders an [`ObsSnapshot`] as Prometheus text format and
//!   ships the scrape-side parser the correctness tests round-trip through.
//! * [`journal`] records every executed reconfiguration plan — kind,
//!   trigger, per-phase timings, placement delta, VM churn — in a bounded
//!   ring with an optional JSONL sink and a replay pretty-printer.
//! * [`health`] derives per-operator health states from worker queue depth,
//!   utilisation reports and in-flight plans.
//!
//! The runtime refreshes one shared snapshot ([`ObsShared`]) after every
//! state change; the [`ObsServer`] scrape endpoint renders from that
//! snapshot on demand, so observation never blocks reconfiguration.

pub mod health;
pub mod journal;
pub mod prometheus;
pub mod server;

pub use health::{HealthReport, OperatorHealth};
pub use journal::{Journal, JournalEvent, JournalKind, PlanTrigger, SlotBinding};
pub use prometheus::{
    parse_exposition, render_health_json, render_prometheus, validate_exposition, Exposition,
    ObsSnapshot, ParsedSample, ReconfigPhaseTotals, TransportConn,
};
pub use server::ObsServer;

use parking_lot::Mutex;

/// The snapshot cell shared between the runtime (writer) and the scrape
/// endpoint (reader).
#[derive(Debug, Default)]
pub struct ObsShared {
    snapshot: Mutex<ObsSnapshot>,
}

impl ObsShared {
    /// Replace the published snapshot.
    pub fn update(&self, snapshot: ObsSnapshot) {
        *self.snapshot.lock() = snapshot;
    }

    /// A copy of the current snapshot.
    pub fn snapshot(&self) -> ObsSnapshot {
        self.snapshot.lock().clone()
    }

    /// Render the current snapshot as Prometheus text format.
    pub fn render_prometheus(&self) -> String {
        render_prometheus(&self.snapshot.lock())
    }

    /// Render the current snapshot as the `/health` JSON document.
    pub fn render_health_json(&self) -> String {
        render_health_json(&self.snapshot.lock())
    }
}
