//! # seep-runtime
//!
//! The stream processing system (SPS) itself: it deploys a query graph onto
//! simulated cloud VMs, hosts the operators, checkpoints and backs up their
//! state, detects bottlenecks and failures, and performs the paper's
//! integrated scale out / recovery (Algorithm 3) using the state-management
//! primitives of `seep-core`.
//!
//! Queries are described and deployed through the typed job facade in
//! [`api`]: [`api::Job::builder`] fuses the dataflow topology with the
//! operator factories (each node takes its factory at declaration) and
//! [`api::Job::deploy`] returns an [`api::JobHandle`] that drives the
//! deployment by operator name. The handle wraps the low-level layer —
//! [`runtime::Runtime::deploy`] over a hand-built
//! [`seep_core::QueryGraph`] plus factory map — which remains public.
//!
//! The runtime is **controller-driven**: the experiment harness (or an
//! example binary) owns a [`runtime::Runtime`], injects source tuples,
//! advances virtual time with [`runtime::Runtime::advance_to`] (which triggers
//! checkpoints, window ticks, utilisation reports and the scaling policy) and
//! drains the data plane with [`runtime::Runtime::drain`]. Tuples really flow
//! through bounded [`seep_net`] channels and operators really execute, so
//! wall-clock measurements of checkpoint cost, processing latency and
//! recovery time are meaningful; virtual time only controls *when* periodic
//! actions happen, which lets experiments with 30-second windows and
//! multi-minute failure schedules run in seconds.
//!
//! Three recovery strategies are provided for the comparison in Fig. 11:
//! the paper's checkpoint-based recovery (R+SM), upstream backup (UB) and
//! source replay (SR).

#![warn(missing_docs)]

pub mod api;
pub mod config;
pub mod metrics;
pub mod obs;
mod parallel;
pub mod placement;
pub mod plan;
pub mod reconfig;
pub mod recovery;
pub mod runtime;
pub mod worker;

pub use api::{Job, JobBuilder, JobHandle, SinkCollector};
pub use config::{BatchConfig, PlacementPreference, RuntimeConfig};
pub use metrics::{
    Metrics, MetricsSnapshot, ReconfigRecord, ReconfigTiming, SplitKind, StoreIoRecord,
};
pub use obs::{
    HealthReport, Journal, JournalEvent, JournalKind, ObsServer, ObsSnapshot, OperatorHealth,
    PlanTrigger,
};
pub use placement::Placement;
pub use plan::{FusionPolicy, PhysicalPlan, PlanManifest};
pub use reconfig::{ReconfigKind, ReconfigOutcome, ReconfigPlan, SplitPolicy};
pub use recovery::RecoveryStrategy;
pub use runtime::Runtime;
pub use worker::{WorkerCore, STEP_BUDGET};

// Re-exported so experiment drivers can configure the checkpoint-store
// subsystem without depending on `seep-store` directly.
pub use seep_store::{StoreBackendKind, StoreConfig, StoreStats};
// Re-exported so ops-plane consumers read health states and pool statistics
// without depending on the lower crates directly.
pub use seep_cloud::PoolStats;
// The scaling policy lives beside the `CpuMonitor` it reads, so the simulator
// shares it; re-exported here because `RuntimeConfig` carries one.
pub use seep_cloud::ScalingPolicy;
pub use seep_core::HealthState;
