//! # seep-sim
//!
//! A time-stepped simulator of the cloud-hosted SPS, used for the experiments
//! that the paper ran on 20–60 EC2 VMs (Figs 6–10): dynamic scale out under
//! the Linear Road Benchmark at L=350, the open-loop map/reduce-style top-k
//! query, the scale-out-threshold sweep and the manual-vs-dynamic comparison.
//!
//! A laptop cannot execute 600 000 tuples/s across 50 VMs in real time, so
//! these experiments run against a simulation that keeps the *decision
//! making* identical to the real system — the same CPU-utilisation reports,
//! the same `k`-consecutive-reports-above-δ bottleneck rule, the same VM pool
//! masking minute-long provisioning delays, the same per-operator key-range
//! partitioning — while replacing tuple execution with per-operator cost
//! models (CPU microseconds per tuple, selectivity, state size). The
//! mechanisms themselves (checkpoint, backup, restore, partition) are
//! exercised for real in `seep-runtime`; the simulator reproduces the
//! *cluster-scale* behaviour built on top of them.
//!
//! The simulator advances in one-second steps, matching the granularity of
//! the figures in the paper.

#![warn(missing_docs)]

pub mod engine;
pub mod policy;
pub mod spec;
pub mod trace;

pub use engine::{SimConfig, SimEngine, SimStoreProfile};
// The policy parameters are the runtime's: one struct for both.
pub use seep_cloud::ScalingPolicy;
pub use spec::{lrb_query, mapreduce_query, word_count_query, QuerySpec, StageSpec};
pub use trace::{SimRecord, SimSummary, SimTrace};
