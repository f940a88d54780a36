//! Driving a deployed [`super::Job`]: the [`JobHandle`] facade over
//! [`Runtime`] and the typed [`SinkCollector`].

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;
use seep_core::operator::OperatorFactory;
use seep_core::{
    ExecutionGraph, Key, LogicalOpId, OperatorId, StatefulOperator, StatelessFn, Tuple,
};

use crate::metrics::{CheckpointRecord, Metrics, ReconfigRecord};
use crate::obs::{Journal, ObsServer, ObsSnapshot, OperatorHealth};
use crate::plan::{MemberRole, PlanManifest};
use crate::reconfig::ReconfigOutcome;
use crate::runtime::Runtime;

/// Selects a logical operator of a deployed job: either by the **name** it
/// was declared under in the builder (the ergonomic path) or by a raw
/// [`LogicalOpId`] (for code that already holds one).
pub trait OpSelector {
    /// Resolve against the handle's name table.
    ///
    /// # Panics
    /// Panics when a name does not refer to a declared operator — an
    /// operator name is a static property of the job, so a miss is a typo,
    /// not a runtime condition.
    fn resolve(&self, handle: &JobHandle) -> LogicalOpId;

    /// The logical operator *name* this selector carries, when it carries
    /// one. Name selection is what lets the handle attribute per-operator
    /// quantities (emit clocks, processed counts) to a logical operator
    /// that was fused into a larger physical unit; raw-id selectors address
    /// the physical operator itself and return `None`.
    fn member_name(&self) -> Option<&str> {
        None
    }
}

impl OpSelector for LogicalOpId {
    fn resolve(&self, _handle: &JobHandle) -> LogicalOpId {
        *self
    }
}

impl OpSelector for &str {
    fn resolve(&self, handle: &JobHandle) -> LogicalOpId {
        handle.try_op(self).unwrap_or_else(|| {
            panic!("job has no operator named {self:?}");
        })
    }

    fn member_name(&self) -> Option<&str> {
        Some(self)
    }
}

/// A deployed job: the [`Runtime`] plus the name table of the builder that
/// produced it.
///
/// Logical operators are addressed by name (or [`LogicalOpId`], via
/// [`OpSelector`]); physical operator instances — the unit failures,
/// scale-outs and merges act on — keep their [`OperatorId`] addressing,
/// obtained from [`partitions`](Self::partitions).
///
/// ```
/// use seep_core::{Key, OutputTuple, StatelessFn, Tuple};
/// use seep_runtime::api::{Job, SinkCollector};
/// use seep_runtime::RuntimeConfig;
///
/// let results: SinkCollector<u64> = SinkCollector::new();
/// let mut handle = Job::builder(RuntimeConfig::default())
///     .source("numbers", || {
///         StatelessFn::new("numbers", |_, t: &Tuple, out: &mut Vec<OutputTuple>| {
///             out.push(OutputTuple::new(t.key, t.payload.clone()));
///         })
///     })
///     .sink_collect("results", &results)
///     .deploy()
///     .expect("valid job");
///
/// handle.inject_encoded("numbers", Key(1), &41u64).unwrap();
/// handle.drain();
/// assert_eq!(results.take(), vec![41]);
/// ```
pub struct JobHandle {
    runtime: Runtime,
    names: HashMap<String, LogicalOpId>,
    manifest: PlanManifest,
    obs_server: Option<ObsServer>,
}

impl std::fmt::Debug for JobHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut names: Vec<&str> = self.names.keys().map(String::as_str).collect();
        names.sort_unstable();
        f.debug_struct("JobHandle")
            .field("operators", &names)
            .field("vms", &self.runtime.vm_count())
            .finish_non_exhaustive()
    }
}

impl JobHandle {
    pub(crate) fn new(runtime: Runtime, manifest: PlanManifest) -> Self {
        let names = manifest
            .members
            .iter()
            .map(|(name, info)| (name.clone(), info.unit))
            .collect();
        JobHandle {
            runtime,
            names,
            manifest,
            obs_server: None,
        }
    }

    /// The logical operator declared under `name`.
    ///
    /// # Panics
    /// Panics when no operator with that name exists (see [`OpSelector`]).
    pub fn op(&self, name: &str) -> LogicalOpId {
        name.resolve(self)
    }

    /// The logical operator declared under `name`, or `None`.
    pub fn try_op(&self, name: &str) -> Option<LogicalOpId> {
        self.names.get(name).copied()
    }

    /// Inject a source tuple, as the data feeder would.
    pub fn inject(&mut self, source: impl OpSelector, key: Key, payload: impl Into<bytes::Bytes>) {
        let source = source.resolve(self);
        self.runtime.inject(source, key, payload);
    }

    /// Inject a source tuple, serialising a typed payload.
    pub fn inject_encoded<T: serde::Serialize>(
        &mut self,
        source: impl OpSelector,
        key: Key,
        value: &T,
    ) -> seep_core::Result<()> {
        let payload = seep_core::encode_bytes(value)?;
        self.inject(source, key, payload);
        Ok(())
    }

    /// Process pending tuples until every worker's inbound channel is empty.
    /// Returns the total number of tuples processed.
    pub fn drain(&mut self) -> u64 {
        self.runtime.drain()
    }

    /// Advance virtual time, triggering window ticks, periodic checkpoints,
    /// utilisation reports and (when enabled) the auto-scaling policy.
    pub fn advance_to(&mut self, now_ms: u64) {
        self.runtime.advance_to(now_ms)
    }

    /// Fallible [`advance_to`](Self::advance_to): a broken placement
    /// invariant surfaces as an error instead of a panic.
    pub fn try_advance_to(&mut self, now_ms: u64) -> seep_core::Result<()> {
        self.runtime.try_advance_to(now_ms)
    }

    /// Current virtual time in milliseconds.
    pub fn now_ms(&self) -> u64 {
        self.runtime.now_ms()
    }

    /// Enable or disable automatic scale out / scale in / rebalancing driven
    /// by the bottleneck detector.
    pub fn set_auto_scale(&mut self, enabled: bool) {
        self.runtime.set_auto_scale(enabled)
    }

    /// The physical instances of a logical operator, in partition order.
    pub fn partitions(&self, op: impl OpSelector) -> Vec<OperatorId> {
        let op = op.resolve(self);
        self.runtime.partitions(op)
    }

    /// Current parallelisation level π of a logical operator.
    pub fn parallelism(&self, op: impl OpSelector) -> usize {
        let op = op.resolve(self);
        self.runtime.parallelism(op)
    }

    /// Scale out the physical instance `target` into `pi` partitions.
    pub fn scale_out(
        &mut self,
        target: OperatorId,
        pi: usize,
    ) -> seep_core::Result<ReconfigOutcome> {
        self.runtime.scale_out(target, pi)
    }

    /// Merge two adjacent partitions; `target` survives, `victim`'s VM is
    /// released.
    pub fn scale_in(
        &mut self,
        target: OperatorId,
        victim: OperatorId,
    ) -> seep_core::Result<ReconfigOutcome> {
        self.runtime.scale_in(target, victim)
    }

    /// Re-split **all π partitions** of a logical operator in one plan by
    /// the observed key distribution, reusing every VM (no deployment
    /// change).
    pub fn rebalance_operator(
        &mut self,
        op: impl OpSelector,
    ) -> seep_core::Result<ReconfigOutcome> {
        let op = op.resolve(self);
        self.runtime.rebalance_operator(op)
    }

    /// Pack the partitions of a logical operator onto as few VM slots as
    /// the pool's `slots_per_vm` allows (first-fit-decreasing by state
    /// size), releasing the emptied VMs — scale-in that keeps parallelism.
    pub fn consolidate(&mut self, op: impl OpSelector) -> seep_core::Result<ReconfigOutcome> {
        let op = op.resolve(self);
        self.runtime.consolidate(op)
    }

    /// Crash-stop the VM hosting `operator`.
    pub fn fail_operator(&mut self, operator: OperatorId) {
        self.runtime.fail_operator(operator)
    }

    /// Recover a failed operator with parallelism `pi`.
    pub fn recover(&mut self, failed: OperatorId, pi: usize) -> seep_core::Result<ReconfigRecord> {
        self.runtime.recover(failed, pi)
    }

    /// Checkpoint `operator` now, regardless of the periodic schedule.
    pub fn checkpoint_operator(
        &mut self,
        operator: OperatorId,
    ) -> seep_core::Result<CheckpointRecord> {
        self.runtime.checkpoint_operator(operator)
    }

    /// Run a closure against the operator hosted by `instance` (for result
    /// collection and assertions). Returns `None` if the worker is gone.
    pub fn with_operator<R>(
        &self,
        instance: OperatorId,
        f: impl FnOnce(&dyn StatefulOperator) -> R,
    ) -> Option<R> {
        self.runtime.with_operator(instance, f)
    }

    /// The metrics registry of the deployment.
    pub fn metrics(&self) -> &Metrics {
        self.runtime.metrics()
    }

    /// The execution graph (physical instances, partitions, routing).
    pub fn execution_graph(&self) -> &ExecutionGraph {
        self.runtime.execution_graph()
    }

    /// The cloud provider backing the deployment.
    pub fn provider(&self) -> &seep_cloud::CloudProvider {
        self.runtime.provider()
    }

    /// Number of VMs currently running.
    pub fn vm_count(&self) -> usize {
        self.runtime.vm_count()
    }

    /// Total tuples queued on worker inbound channels.
    pub fn queued_tuples(&self) -> usize {
        self.runtime.queued_tuples()
    }

    /// The last timestamp issued by the operator's shared output clock.
    /// Identical clock values across batched and per-tuple runs are part of
    /// the batch-equivalence contract.
    ///
    /// Logical operators fused into a larger physical unit keep reporting
    /// per-operator clocks when addressed **by name**: the chain's tail
    /// stage reads the unit's real output clock (its outputs *are* the
    /// unit's outputs), while head and interior stages read the cumulative
    /// emission counters the fused operator maintains per stage. Interior
    /// attribution is exact under every reconfiguration kind that drains
    /// before checkpointing; only a failure of the fused unit itself (which
    /// re-processes tuples replayed past the last periodic checkpoint) can
    /// make an interior stage's count run ahead of what the unfused chain
    /// would have reported.
    pub fn emit_clock(&self, op: impl OpSelector) -> u64 {
        if let Some(info) = op.member_name().and_then(|n| self.manifest.members.get(n)) {
            if matches!(info.role, MemberRole::Head | MemberRole::Interior) {
                if let Some(emitted) = &info.emitted {
                    return emitted.load(std::sync::atomic::Ordering::Relaxed);
                }
            }
        }
        let logical = op.resolve(self);
        self.runtime.emit_clock(logical)
    }

    /// Tuples processed by a logical operator, summed over its live
    /// partitions — attributed through the plan manifest, so fused members
    /// addressed by name keep their per-operator counts: the head stage
    /// processes exactly the unit's inputs, and every later stage processes
    /// exactly what the previous stage emitted (the chain runs in-stack,
    /// nothing is dropped between stages).
    pub fn processed_total(&self, op: impl OpSelector) -> u64 {
        if let Some(info) = op.member_name().and_then(|n| self.manifest.members.get(n)) {
            if matches!(info.role, MemberRole::Interior | MemberRole::Tail) {
                if let Some(upstream) = &info.upstream_emitted {
                    return upstream.load(std::sync::atomic::Ordering::Relaxed);
                }
            }
        }
        let logical = op.resolve(self);
        let metrics = self.runtime.metrics();
        self.runtime
            .partitions(logical)
            .into_iter()
            .map(|id| metrics.processed_by(id))
            .sum()
    }

    /// The plan manifest of the deployment: which physical unit hosts each
    /// logical operator, the fused chains, and the operators removed by
    /// dead-branch elimination.
    pub fn plan_manifest(&self) -> &PlanManifest {
        &self.manifest
    }

    /// Aggregate I/O counters of every checkpoint store in the deployment.
    pub fn store_stats(&self) -> seep_store::StoreStats {
        self.runtime.store_stats()
    }

    /// Label of the configured checkpoint-store backend.
    pub fn store_backend(&self) -> &'static str {
        self.runtime.store_backend()
    }

    /// VM pool acquisition statistics (hits, misses, hit rate).
    pub fn pool_stats(&self) -> seep_cloud::PoolStats {
        self.runtime.pool_stats()
    }

    /// Derived per-operator health: `Failed` > `Recovering` /
    /// `Reconfiguring` (a plan committed at the current virtual instant) >
    /// `Backpressured` (inbound queue at or above the runtime's
    /// `BACKPRESSURE_QUEUE` of 10 000 tuples) > `Ok`.
    pub fn health(&self) -> Vec<OperatorHealth> {
        self.runtime.health()
    }

    /// The reconfiguration event journal of the deployment.
    pub fn journal(&self) -> Arc<Journal> {
        self.runtime.journal()
    }

    /// Attach a JSONL sink at `path`: events already retained are written
    /// immediately and every future plan appends one line, replayable with
    /// [`Journal::replay_file`].
    pub fn journal_to_file(
        &self,
        path: impl AsRef<std::path::Path>,
    ) -> seep_core::Result<std::path::PathBuf> {
        self.runtime
            .journal()
            .attach_sink(path)
            .map_err(|e| seep_core::Error::Invariant(format!("cannot attach journal sink: {e}")))
    }

    /// A fresh observability snapshot (what a scrape would serve right now).
    pub fn obs_snapshot(&self) -> ObsSnapshot {
        self.runtime.obs_snapshot()
    }

    /// Start the scrape endpoint on `addr` (e.g. `"127.0.0.1:9184"`; port 0
    /// picks an ephemeral one). Serves `GET /metrics` (Prometheus text
    /// format 0.0.4) and `GET /health` (JSON) from a snapshot the runtime
    /// refreshes after every state change. Returns the bound address; a
    /// previous server, if any, is stopped first.
    pub fn serve_metrics(&mut self, addr: &str) -> seep_core::Result<std::net::SocketAddr> {
        self.stop_metrics();
        // Publish a first snapshot so a scrape racing the startup never
        // sees the empty default.
        self.runtime
            .obs_shared()
            .update(self.runtime.obs_snapshot());
        let server = ObsServer::start(addr, self.runtime.obs_shared()).map_err(|e| {
            seep_core::Error::Invariant(format!("cannot bind metrics endpoint {addr}: {e}"))
        })?;
        let bound = server.addr();
        self.obs_server = Some(server);
        Ok(bound)
    }

    /// Stop the scrape endpoint, if one is running. Returns whether one was.
    pub fn stop_metrics(&mut self) -> bool {
        match self.obs_server.take() {
            Some(mut server) => {
                server.stop();
                true
            }
            None => false,
        }
    }

    /// The scrape endpoint's bound address, while one is running.
    pub fn metrics_addr(&self) -> Option<std::net::SocketAddr> {
        self.obs_server.as_ref().map(ObsServer::addr)
    }

    /// The placement layer: which VM slot hosts which partition.
    pub fn placement(&self) -> &crate::placement::Placement {
        self.runtime.placement()
    }

    /// The wrapped [`Runtime`] — the documented low-level layer, for
    /// operations the facade does not cover.
    pub fn runtime(&self) -> &Runtime {
        &self.runtime
    }

    /// Mutable access to the wrapped [`Runtime`].
    pub fn runtime_mut(&mut self) -> &mut Runtime {
        &mut self.runtime
    }

    /// Unwrap into the underlying [`Runtime`].
    pub fn into_runtime(self) -> Runtime {
        self.runtime
    }
}

/// Typed collection of sink output: decodes every tuple that reaches the
/// sink into `T` and accumulates the values behind a shared, cloneable
/// handle.
///
/// Create one, register it with
/// [`JobBuilder::sink_collect`](super::JobBuilder::sink_collect) (or pass
/// [`factory`](Self::factory) to any sink declaration), deploy, and read the
/// results with [`take`](Self::take) or [`snapshot`](Self::snapshot) —
/// replacing the `Arc<Mutex<Vec<T>>>` + decoding-closure boilerplate every
/// harness used to carry.
pub struct SinkCollector<T> {
    items: Arc<Mutex<Vec<T>>>,
}

impl<T> Clone for SinkCollector<T> {
    fn clone(&self) -> Self {
        SinkCollector {
            items: self.items.clone(),
        }
    }
}

impl<T> Default for SinkCollector<T>
where
    T: for<'de> serde::Deserialize<'de> + Send + 'static,
{
    fn default() -> Self {
        Self::new()
    }
}

impl<T> SinkCollector<T>
where
    T: for<'de> serde::Deserialize<'de> + Send + 'static,
{
    /// Create an empty collector.
    pub fn new() -> Self {
        SinkCollector {
            items: Arc::new(Mutex::new(Vec::new())),
        }
    }

    /// An operator factory building sink operators that decode each tuple
    /// into `T` and push it into this collector. Tuples that fail to decode
    /// are ignored, mirroring the hand-written collector sinks.
    pub fn factory(&self) -> Arc<dyn OperatorFactory> {
        let items = self.items.clone();
        Arc::new(move || {
            let items = items.clone();
            StatelessFn::new(
                "collector",
                move |_, t: &Tuple, _out: &mut Vec<seep_core::OutputTuple>| {
                    if let Ok(value) = t.decode::<T>() {
                        items.lock().push(value);
                    }
                },
            )
        })
    }

    /// Remove and return everything collected so far.
    pub fn take(&self) -> Vec<T> {
        std::mem::take(&mut *self.items.lock())
    }

    /// Number of values collected so far.
    pub fn len(&self) -> usize {
        self.items.lock().len()
    }

    /// Whether nothing has been collected yet.
    pub fn is_empty(&self) -> bool {
        self.items.lock().is_empty()
    }

    /// Run a closure over the collected values without removing them.
    pub fn with<R>(&self, f: impl FnOnce(&[T]) -> R) -> R {
        f(&self.items.lock())
    }
}

impl<T> SinkCollector<T>
where
    T: for<'de> serde::Deserialize<'de> + Clone + Send + 'static,
{
    /// A copy of everything collected so far, leaving the collector intact.
    pub fn snapshot(&self) -> Vec<T> {
        self.items.lock().clone()
    }
}
