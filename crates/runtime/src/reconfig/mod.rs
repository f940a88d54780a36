//! The unified reconfiguration-plan engine.
//!
//! The paper's central claim is that fault tolerance, scale out and scale in
//! are **one mechanism**: checkpointed operator state that can be split,
//! merged and restored. This module makes that literal. Every
//! reconfiguration — scaling an operator out, merging two partitions in,
//! recovering a failed instance, rebalancing all of an operator's
//! partitions, or consolidating them onto shared VM slots — is a
//! declarative [`ReconfigPlan`] handed to one executor that owns the shared
//! choreography:
//!
//! ```text
//!  drain ─ pause ─ checkpoint ─ graph-rewrite ─ state split/merge
//!                                        │
//!            replay ─ route ─ restore ◀──┘
//! ```
//!
//! with fail-before-rewrite semantics (every fallible state acquisition runs
//! before the execution graph is touched, so a rejected plan leaves the
//! runtime exactly as it was) and per-phase wall-clock metrics
//! ([`crate::metrics::ReconfigTiming`]).
//!
//! There is **one way to run a plan and one way to remember it**
//! (`entry.rs`): [`reconfigure`]`(cluster, plan, kind)` is the only caller
//! of the executor, and the only place that journals the commit or the
//! rejection, tells the cluster the plan committed and records the plan — as
//! one
//! [`ReconfigRecord`](crate::metrics::ReconfigRecord) whose
//! [`JournalKind`](crate::obs::JournalKind) is the one name of the plan kind
//! everywhere. [`Runtime::scale_out`], [`Runtime::scale_in`],
//! [`Runtime::rebalance_operator`] and [`Runtime::consolidate`] are plan
//! builders of a few lines returning its [`ReconfigOutcome`];
//! [`Runtime::recover`] is the scale-out plan of the failed instance run as
//! kind `Recovery`, plus the source replay and catch-up drain it owns. VM
//! slots are resolved through the [placement layer](crate::placement).
//!
//! The executor runs over **either cluster backend** (`cluster.rs`): it
//! acts on instances only through [`InstanceStep`]s, which the in-process
//! [`Runtime`](crate::Runtime) applies to its workers directly and
//! `seep-node`'s coordinator ships to the worker processes, and it leaves to
//! the [`ClusterBackend`] only where a new instance is hosted, how a
//! replaced one is retired and what releasing a VM means. The checkpoint
//! round, [`checkpoint_operator`], is shared the same way.
//!
//! The plan's split phase is **skew-aware**: with
//! [`SplitPolicy::SkewAware`], the executor samples hot keys from the
//! captured checkpoint (weighted by observed per-key traffic when the
//! checkpoint carries [`seep_core::TrafficStats`], by state footprint
//! otherwise — see [`seep_core::Checkpoint::sample_keys`]) and switches
//! from the even key-space split to
//! [`seep_core::KeyRange::split_by_distribution`] when the sampled
//! imbalance exceeds the configured threshold.
//!
//! [`Runtime::scale_out`]: crate::Runtime::scale_out
//! [`Runtime::scale_in`]: crate::Runtime::scale_in
//! [`Runtime::recover`]: crate::Runtime::recover
//! [`Runtime::rebalance_operator`]: crate::Runtime::rebalance_operator
//! [`Runtime::consolidate`]: crate::Runtime::consolidate

mod cluster;
mod entry;
mod executor;
mod plan;

pub use cluster::{checkpoint_operator, ClusterBackend, InstanceStep, PlanContext, StepReply};
pub use entry::reconfigure;
pub use executor::ReconfigOutcome;
pub use plan::{
    ReconfigKind, ReconfigPlan, SplitDecision, SplitPolicy, DEFAULT_IMBALANCE_THRESHOLD,
    DEFAULT_SPLIT_SAMPLE,
};
