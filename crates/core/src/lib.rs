//! # seep-core
//!
//! Operator state management primitives for stateful stream processing, as
//! described in *"Integrating Scale Out and Fault Tolerance in Stream
//! Processing using Operator State Management"* (Castro Fernandez et al.,
//! SIGMOD 2013).
//!
//! The paper's key idea is to make the internal state of streaming operators
//! **explicit** to the stream processing system (SPS) and to manage it with a
//! small set of primitives:
//!
//! * [`primitives::checkpoint_state`] — take a consistent copy of an
//!   operator's processing state and output buffers,
//! * `backup-state` — back the checkpoint up to an upstream operator
//!   (selected by [`backup::select_backup_operator`]; the storage backends
//!   and the coordinator driving them live in the `seep-store` crate),
//! * [`primitives::restore_state`] — restore a checkpoint into a fresh
//!   operator instance,
//! * [`primitives::replay_buffer_state`] — replay unprocessed tuples from an
//!   upstream output buffer to bring restored state up to date,
//! * [`primitives::split_checkpoint`] — split a checkpoint's processing
//!   and buffer state across new partitioned operators for scale out
//!   (Algorithm 2 of the paper), moving its entries rather than copying them,
//! * [`merge::merge_checkpoints`] — the scale-in counterpart (§3.3): combine
//!   two adjacent partitions' checkpoints so one VM can be released.
//!
//! Both **dynamic scale out** and **failure recovery** are built on these
//! primitives: recovery is simply scale out with a parallelisation level of
//! one (see `seep-runtime`).
//!
//! The crate also defines the data model ([`mod@tuple`]), the operator model
//! ([`operator`]), the three kinds of operator state ([`state`]) and the
//! logical query / physical execution graphs ([`graph`]).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod backup;
pub mod batch;
pub mod checkpoint;
pub mod dedup;
pub mod error;
pub mod fused;
pub mod graph;
pub mod key;
pub mod merge;
pub mod obs;
pub mod operator;
pub mod primitives;
pub mod spill;
pub mod state;
pub mod traffic;
pub mod tuple;

pub use backup::select_backup_operator;
pub use batch::{BatchOutput, TupleBatch};
pub use checkpoint::{Checkpoint, CheckpointMeta, IncrementalCheckpoint};
pub use dedup::{BatchAdmission, DuplicateFilter};
pub use error::{Error, Result};
pub use fused::{FusedFactory, FusedOperator, FusionStageStats};
pub use graph::{ExecutionGraph, LogicalOpId, OperatorKind, QueryGraph, QueryGraphBuilder};
pub use key::{sample_imbalance, KeyRange, KeySplit};
pub use obs::{
    EventRing, HealthState, HistogramSnapshot, LatencyHistogram, LATENCY_BUCKET_BOUNDS_US,
};
pub use operator::{
    CloneFactory, IntoOperatorFactory, OperatorFactory, OperatorId, OutputTuple, StatefulOperator,
    StatelessFn,
};
pub use spill::{MemoryBudget, SpillPolicy, SpillStore};
pub use state::{BufferState, ProcessingState, RoutingState, StateDelta, TrackedMap};
pub use traffic::{TrafficLog, TrafficOp, TrafficStats};
pub use tuple::{encode_bytes, Key, StreamId, Timestamp, TimestampVec, Tuple};
