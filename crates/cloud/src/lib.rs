//! # seep-cloud
//!
//! A simulated infrastructure-as-a-service (IaaS) substrate standing in for
//! the Amazon EC2 deployment used in the paper's evaluation.
//!
//! The scale-out and recovery machinery of the SPS only interacts with the
//! cloud through a narrow interface: request a VM (which becomes available
//! after a provisioning delay of minutes on real IaaS platforms, §5.2),
//! release a VM, observe VM failures (crash-stop, §2.2), and read per-VM CPU
//! utilisation reports (§5.1). All of those are modelled here with explicit,
//! configurable parameters so the policies built on top behave exactly as
//! they would against a real provider — just against simulated time.
//!
//! Time is passed in explicitly (milliseconds since an arbitrary epoch), so
//! the same substrate serves both the threaded runtime (wall-clock
//! milliseconds) and the discrete-event simulator (virtual milliseconds).

#![warn(missing_docs)]

pub mod billing;
pub mod bottleneck;
pub mod failure;
pub mod monitor;
pub mod pool;
pub mod provider;
pub mod remote;
pub mod vm;

pub use billing::BillingLedger;
pub use bottleneck::ScalingPolicy;
pub use failure::FailureInjector;
pub use monitor::{CpuMonitor, UtilizationReport};
pub use pool::{PoolStats, VmPool, VmPoolConfig};
pub use provider::{CloudProvider, ProviderConfig};
pub use remote::{RegisterError, RemoteVm, RemoteVmRegistry};
pub use vm::{Vm, VmId, VmSpec, VmState};
