//! True multi-process distribution: the `seep-node` coordinator/worker
//! daemon.
//!
//! Everything below this crate simulates a cluster inside one process; this
//! crate deploys the same query over real OS processes. A **coordinator**
//! process owns the execution graph, placement, metrics, journal and the
//! checkpoint store; **worker** processes host [`seep_runtime::WorkerCore`]s,
//! stream data-plane batches peer-to-peer over [`seep_net::TcpTransport`],
//! and answer the coordinator's control commands ([`protocol::NodeMsg`]) on
//! a persistent TCP connection.
//!
//! The coordinator is the runtime's second cluster backend
//! ([`seep_runtime::reconfig::ClusterBackend`]): checkpoint rounds and
//! reconfiguration plans run through the runtime's own code, and what they
//! do to an instance travels to its worker as one step. Failure handling
//! follows the paper's recover-with-state-management path (§3.3): workers
//! heartbeat the coordinator; a missed heartbeat (or a dropped control
//! connection) surfaces as a VM failure through
//! [`seep_cloud::RemoteVmRegistry`], and the coordinator runs the runtime's
//! recovery plan through the runtime's executor — so a real `kill -9`
//! recovers by the same code as a simulated VM crash, journalled through the
//! same [`seep_runtime::Journal`].

#![warn(missing_docs)]

pub mod coordinator;
pub mod jobs;
pub mod protocol;
pub mod worker;

pub use coordinator::{run_coordinator, CoordinatorConfig};
pub use protocol::NodeMsg;
pub use worker::{run_worker, WorkerConfig};
