//! The seam between the reconfiguration executor and the cluster it runs
//! over.
//!
//! The executor, the entry point that journals and records a plan, and the
//! checkpoint round ([`checkpoint_operator`]) are written once, against
//! [`ClusterBackend`]. Everything they do to an operator instance is an
//! [`InstanceStep`], which [`WorkerCore::apply`](crate::WorkerCore::apply)
//! carries out and answers with a [`StepReply`]: the in-process
//! [`Runtime`](crate::Runtime) calls `apply` on its worker directly, and
//! `seep-node`'s coordinator ships the step to the worker process hosting the
//! instance, which calls the same `apply`. A step names instances and
//! timestamps, never tuple payloads, except for the state a capture returns
//! and a restore installs.
//!
//! What stays backend-specific is only what differs in kind: where a new
//! instance is hosted (a VM from the pool, or a live worker with a free
//! slot), how a replaced one is retired, and what releasing an emptied VM
//! means. The bookkeeping both backends keep — the execution graph, the
//! [`Placement`], the [`BackupCoordinator`] holding one checkpoint store per
//! instance, the metrics and the journal — is the same types on both sides.

use std::time::Instant;

use serde::{Deserialize, Serialize};

use seep_cloud::VmId;
use seep_core::graph::OperatorInstance;
use seep_core::{
    Checkpoint, Error, ExecutionGraph, LogicalOpId, OperatorId, Result, RoutingState, StreamId,
    Timestamp, TimestampVec,
};
use seep_store::BackupCoordinator;

use crate::metrics::{CheckpointRecord, Metrics};
use crate::obs::{Journal, JournalKind, PlanTrigger};
use crate::placement::Placement;
use crate::recovery::RecoveryStrategy;
use crate::worker::Capture;

/// One thing the executor or a checkpoint round does to one operator
/// instance. Serialisable, so a remote backend ships it as it is.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum InstanceStep {
    /// Ship every partially filled output batch.
    Flush,
    /// Process everything queued on the inbound channel.
    Drain,
    /// Stop or resume processing.
    Pause {
        /// `true` to stop, `false` to resume.
        on: bool,
    },
    /// Capture the state for a checkpoint round ([`StepReply::Captured`]).
    Capture {
        /// The checkpoint's sequence number.
        sequence: u64,
        /// Whether the backup holds sequence `sequence - 1`, so a delta
        /// suffices.
        base_held: bool,
    },
    /// Trim the output buffer towards `downstream` up to and including `ts`
    /// (Algorithm 1, line 4).
    TrimBuffer {
        /// The downstream instance the buffer feeds.
        downstream: OperatorId,
        /// The timestamp the downstream's checkpoint reflects.
        ts: Timestamp,
    },
    /// Install a (partitioned) checkpoint.
    Restore {
        /// The state to install.
        checkpoint: Checkpoint,
        /// Also reset the logical operator's emit clock to the checkpoint's:
        /// only when no sibling partition is emitting on it.
        reset_clock: bool,
    },
    /// Replace the routing towards a logical downstream operator.
    SetRouting {
        /// The logical downstream operator.
        downstream: LogicalOpId,
        /// Its new key-range routing.
        routing: RoutingState,
    },
    /// The downstream instances the output buffer holds tuples for
    /// ([`StepReply::Targets`]).
    Targets,
    /// The reflected-timestamp vector ([`StepReply::Reflected`]).
    Reflected,
    /// Re-send to `target` every buffered tuple `reflected` does not cover
    /// ([`StepReply::Replayed`]).
    ReplayTo {
        /// The downstream instance.
        target: OperatorId,
        /// What it already reflects.
        reflected: TimestampVec,
    },
    /// Move the tuples buffered for the replaced instances `olds` to the
    /// partition of `downstream` now owning their key.
    Reroute {
        /// The reconfigured logical downstream operator.
        downstream: LogicalOpId,
        /// Its replaced instances.
        olds: Vec<OperatorId>,
    },
    /// The timestamps of the buffered tuples towards `target` that
    /// `reflected` does not cover, in buffer order
    /// ([`StepReply::Timestamps`]).
    Unreflected {
        /// The downstream instance.
        target: OperatorId,
        /// What it already reflects.
        reflected: TimestampVec,
    },
    /// Re-send to `target`, in timestamp order, the buffered tuples towards
    /// it stamped `first..=last`.
    Resend {
        /// The downstream instance.
        target: OperatorId,
        /// The first timestamp of the run.
        first: Timestamp,
        /// The last timestamp of the run.
        last: Timestamp,
    },
}

impl InstanceStep {
    /// The step's name — the `verb` label a remote backend counts it under.
    pub fn verb(&self) -> &'static str {
        match self {
            InstanceStep::Flush => "Flush",
            InstanceStep::Drain => "Drain",
            InstanceStep::Pause { .. } => "Pause",
            InstanceStep::Capture { .. } => "Capture",
            InstanceStep::TrimBuffer { .. } => "TrimBuffer",
            InstanceStep::Restore { .. } => "Restore",
            InstanceStep::SetRouting { .. } => "SetRouting",
            InstanceStep::Targets => "Targets",
            InstanceStep::Reflected => "Reflected",
            InstanceStep::ReplayTo { .. } => "ReplayTo",
            InstanceStep::Reroute { .. } => "Reroute",
            InstanceStep::Unreflected { .. } => "Unreflected",
            InstanceStep::Resend { .. } => "Resend",
        }
    }
}

/// What an [`InstanceStep`] answers.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum StepReply {
    /// The step is done and has nothing to report.
    Done,
    /// The capture of a checkpoint round.
    Captured(Capture),
    /// Downstream instances.
    Targets(Vec<OperatorId>),
    /// A reflected-timestamp vector.
    Reflected(TimestampVec),
    /// Tuple timestamps.
    Timestamps(Vec<Timestamp>),
    /// Tuples re-sent.
    Replayed(usize),
}

impl StepReply {
    fn unexpected(&self, wanted: &str) -> Error {
        Error::Invariant(format!("expected a {wanted} step reply, got {self:?}"))
    }

    /// The capture, or an error naming what came instead.
    pub(crate) fn into_capture(self) -> Result<Capture> {
        match self {
            StepReply::Captured(capture) => Ok(capture),
            other => Err(other.unexpected("Captured")),
        }
    }

    /// The downstream instances, or an error naming what came instead.
    pub(crate) fn into_targets(self) -> Result<Vec<OperatorId>> {
        match self {
            StepReply::Targets(targets) => Ok(targets),
            other => Err(other.unexpected("Targets")),
        }
    }

    /// The reflected vector, or an error naming what came instead.
    pub(crate) fn into_reflected(self) -> Result<TimestampVec> {
        match self {
            StepReply::Reflected(reflected) => Ok(reflected),
            other => Err(other.unexpected("Reflected")),
        }
    }

    /// The timestamps, or an error naming what came instead.
    pub(crate) fn into_timestamps(self) -> Result<Vec<Timestamp>> {
        match self {
            StepReply::Timestamps(timestamps) => Ok(timestamps),
            other => Err(other.unexpected("Timestamps")),
        }
    }

    /// The replay count, or an error naming what came instead.
    pub(crate) fn into_replayed(self) -> Result<usize> {
        match self {
            StepReply::Replayed(n) => Ok(n),
            other => Err(other.unexpected("Replayed")),
        }
    }
}

/// What a plan or a checkpoint is stamped with.
#[derive(Debug, Clone, Copy)]
pub struct PlanContext {
    /// Virtual time (ms).
    pub now_ms: u64,
    /// What initiates the plans being run.
    pub trigger: PlanTrigger,
    /// The fault-tolerance strategy in force.
    pub strategy: RecoveryStrategy,
    /// Label of the checkpoint-store backend.
    pub store: &'static str,
}

/// A cluster the executor can run plans over: the shared bookkeeping, the
/// one way to act on an instance ([`apply`](Self::apply)), and the few
/// operations that differ in kind between an in-process and a remote
/// cluster.
pub trait ClusterBackend {
    /// The execution graph.
    fn graph(&self) -> &ExecutionGraph;
    /// The execution graph, for the plan's rewrite.
    fn graph_mut(&mut self) -> &mut ExecutionGraph;
    /// Which VM slot hosts which instance.
    fn placement(&self) -> &Placement;
    /// The checkpoint stores, one per instance, and who backs up whom.
    fn backup(&self) -> &BackupCoordinator;
    /// The metrics registry.
    fn metrics(&self) -> &Metrics;
    /// The reconfiguration journal.
    fn journal(&self) -> &Journal;
    /// Time, trigger, strategy and store label.
    fn context(&self) -> PlanContext;

    /// Whether a worker for `op` exists, failed or not.
    fn hosts(&self, op: OperatorId) -> bool;
    /// Whether a worker for `op` exists and has not failed.
    fn is_live(&self, op: OperatorId) -> bool;
    /// Carry out `step` on the worker hosting `op`.
    fn apply(&mut self, op: OperatorId, step: InstanceStep) -> Result<StepReply>;

    /// Create the worker for a new `instance` and place it: on `vm`, or —
    /// when `None` — on a slot the backend acquires. `replaced` are the
    /// instances the same plan retires.
    fn deploy(
        &mut self,
        instance: &OperatorInstance,
        vm: Option<VmId>,
        replaced: &[OperatorId],
    ) -> Result<()>;
    /// Remove every trace of the replaced instances. Returns the VMs whose
    /// last slot they vacated.
    fn retire(&mut self, olds: &[OperatorId]) -> Vec<VmId>;
    /// Hand an emptied VM back.
    fn release_vm(&mut self, vm: VmId);

    /// Number the next checkpoint of `op`.
    fn next_checkpoint_seq(&mut self, op: OperatorId) -> u64;
    /// Note that `op` was just checkpointed.
    fn checkpoint_taken(&mut self, op: OperatorId);
    /// A plan of `kind` on `logical` committed.
    fn committed(&mut self, logical: LogicalOpId, kind: JournalKind);
    /// Publish the observability snapshot after a plan.
    fn publish(&self);
}

/// Take a checkpoint of `operator`, back it up to an upstream VM and trim
/// the upstream output buffers (§3.2, Algorithm 1).
///
/// What is captured and shipped is the delta since the operator's previous
/// checkpoint whenever the chosen backup operator still holds that
/// checkpoint, and the full state otherwise: on the first round, after the
/// backup moved, after a write that did not land, and for operators that do
/// not track changes.
pub fn checkpoint_operator<C: ClusterBackend + ?Sized>(
    cluster: &mut C,
    operator: OperatorId,
) -> Result<CheckpointRecord> {
    let started = Instant::now();
    let ctx = cluster.context();
    let seq = cluster.next_checkpoint_seq(operator);
    let upstreams = cluster.graph().upstream_instances(operator)?;
    let base_held = cluster.backup().holds_base(operator, &upstreams, seq - 1);
    let capture = cluster
        .apply(
            operator,
            InstanceStep::Capture {
                sequence: seq,
                base_held,
            },
        )?
        .into_capture()?;
    let size_bytes = capture.size_bytes();
    let mut stored_bytes = 0usize;
    let mut incremental = false;
    if !upstreams.is_empty() {
        let backup = cluster.backup();
        let outcome = match capture {
            Capture::Delta(inc) => backup.backup_increment(operator, &upstreams, &inc)?,
            Capture::Full(checkpoint) => backup.backup_state(operator, &upstreams, checkpoint)?,
        };
        stored_bytes = outcome.put.bytes_written;
        incremental = outcome.incremental;
        cluster.metrics().record_store_write(
            ctx.store,
            outcome.put.bytes_written,
            outcome.put.write_us,
            outcome.incremental,
        );
        // Trim upstream output buffers up to the reflected timestamps
        // (Algorithm 1, line 4).
        for up in upstreams {
            let up_logical = cluster.graph().instance(up)?.logical;
            if let Some(ts) = outcome.trim_to.get(StreamId(up_logical.0)) {
                if cluster.hosts(up) {
                    let trim = InstanceStep::TrimBuffer {
                        downstream: operator,
                        ts,
                    };
                    cluster.apply(up, trim)?;
                }
            }
        }
    }
    cluster.checkpoint_taken(operator);
    let record = CheckpointRecord {
        operator,
        at_ms: ctx.now_ms,
        duration_us: started.elapsed().as_micros() as u64,
        size_bytes,
        stored_bytes,
        incremental,
    };
    cluster.metrics().record_checkpoint(record);
    Ok(record)
}
