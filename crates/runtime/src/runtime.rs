//! The SPS runtime: deployment, the data-plane drain, virtual time (window
//! ticks, periodic checkpoints, utilisation reports, the scaling control
//! loop), checkpointing, failure injection and the observability snapshot.
//!
//! Reconfiguration lives in [`crate::reconfig`]: [`Runtime::scale_out`],
//! [`Runtime::scale_in`], [`Runtime::rebalance_operator`],
//! [`Runtime::consolidate`] and [`Runtime::recover`] are plan builders of a
//! few lines over one entry point, which alone runs the executor
//! (Algorithm 3 as a [`crate::reconfig::ReconfigPlan`]), journals the plan
//! and records it in [`Metrics`]. The control loop in
//! [`Runtime::try_advance_to`] calls only those five.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::Instant;

use seep_cloud::{CloudProvider, CpuMonitor, ProviderConfig, UtilizationReport, VmPool};
use seep_core::operator::OperatorFactory;
use seep_core::{
    Error, ExecutionGraph, Key, LogicalOpId, OperatorId, OperatorKind, QueryGraph, Result,
};
use seep_net::{Network, CHANNEL_CAPACITY};
use seep_store::{BackupCoordinator, StoreStats};

use crate::config::RuntimeConfig;
use crate::metrics::{CheckpointRecord, Metrics};
use crate::obs::health::plan_state;
use crate::obs::{
    Journal, JournalKind, ObsShared, ObsSnapshot, OperatorHealth, PlanTrigger, ReconfigPhaseTotals,
};
use crate::placement::Placement;
use crate::reconfig::{ClusterBackend, InstanceStep, PlanContext, StepReply};
use crate::worker::{SharedClock, WorkerCore};

/// The label of the checkpoint store an instance hosts, and of its directory
/// for on-disk backends.
fn store_label(id: OperatorId) -> String {
    format!("op-{}", id.raw())
}

/// Interval at which windowed operators are ticked, in milliseconds.
pub const TICK_INTERVAL_MS: u64 = 1_000;

/// Partitions the control loop splits a bottleneck into (the paper scales one
/// bottleneck operator at a time, splitting it in two).
const SCALE_OUT_PARTITIONS: usize = 2;

/// Inbound queue depth (tuples) at or above which an operator reports
/// `Backpressured` through the ops plane. A health watermark only: it
/// triggers no scaling action.
pub(crate) const BACKPRESSURE_QUEUE: usize = 10_000;

/// The stream processing system.
pub struct Runtime {
    pub(crate) config: RuntimeConfig,
    pub(crate) network: Network,
    graph: Option<ExecutionGraph>,
    factories: HashMap<LogicalOpId, Arc<dyn OperatorFactory>>,
    pub(crate) workers: BTreeMap<OperatorId, WorkerCore>,
    pub(crate) backup: BackupCoordinator,
    provider: Arc<CloudProvider>,
    pub(crate) pool: VmPool,
    pub(crate) monitor: CpuMonitor,
    pub(crate) metrics: Arc<Metrics>,
    pub(crate) clocks: HashMap<LogicalOpId, SharedClock>,
    /// Partition → VM-slot mapping (with per-VM capacity): the placement
    /// layer every reconfiguration plan resolves VMs through.
    pub(crate) placement: Placement,
    pub(crate) now_ms: u64,
    pub(crate) epoch: Instant,
    pub(crate) last_checkpoint_ms: HashMap<OperatorId, u64>,
    pub(crate) checkpoint_seq: HashMap<OperatorId, u64>,
    last_tick_ms: u64,
    last_report_ms: u64,
    auto_scale: bool,
    /// Logical operators the control loop has already rebalanced since their
    /// last topology change. One rebalance per shape mirrors the simulator's
    /// one-shot `balanced` flag: if re-drawing the boundary did not relieve
    /// the hot partition (e.g. a single mega-hot key), the next trigger must
    /// scale out instead of paying the same disruption every report
    /// interval. Any other committed plan on the operator re-arms it.
    pub(crate) rebalanced: std::collections::HashSet<LogicalOpId>,
    /// The reconfiguration event journal: every executed plan appends one
    /// event here (ops plane).
    pub(crate) journal: Arc<Journal>,
    /// Snapshot cell shared with the scrape endpoint; refreshed after every
    /// state change while a server holds the other reference.
    obs: Arc<ObsShared>,
    /// Logical operators with a plan of the given kind committed at the
    /// stamped virtual instant — the health derivation reports them
    /// `Reconfiguring` / `Recovering` until time advances past the stamp.
    pub(crate) activity: HashMap<LogicalOpId, (JournalKind, u64)>,
    /// What initiates the plans currently being built (`AutoScale` inside
    /// the control loop, `Manual` otherwise).
    pub(crate) plan_trigger: PlanTrigger,
}

impl Runtime {
    /// Create a runtime with the given configuration. The query is deployed
    /// separately with [`deploy`](Self::deploy).
    pub fn new(config: RuntimeConfig) -> Self {
        let provider = Arc::new(CloudProvider::new(ProviderConfig::instant()));
        let pool = VmPool::new(provider.clone(), config.pool.clone(), 0);
        Runtime {
            network: Network::new(CHANNEL_CAPACITY),
            graph: None,
            factories: HashMap::new(),
            workers: BTreeMap::new(),
            backup: BackupCoordinator::new(),
            provider,
            pool,
            monitor: CpuMonitor::new(32),
            metrics: Arc::new(Metrics::new()),
            clocks: HashMap::new(),
            placement: Placement::new(config.pool.slots_per_vm),
            now_ms: 0,
            epoch: Instant::now(),
            last_checkpoint_ms: HashMap::new(),
            checkpoint_seq: HashMap::new(),
            last_tick_ms: 0,
            last_report_ms: 0,
            auto_scale: false,
            rebalanced: std::collections::HashSet::new(),
            journal: Arc::new(Journal::default()),
            obs: Arc::new(ObsShared::default()),
            activity: HashMap::new(),
            plan_trigger: PlanTrigger::Manual,
            config,
        }
    }

    /// Enable or disable automatic scale out driven by the bottleneck
    /// detector (§5.1). Disabled by default so experiments can trigger scale
    /// out explicitly.
    pub fn set_auto_scale(&mut self, enabled: bool) {
        self.auto_scale = enabled;
    }

    /// Deploy a query: one VM and one worker per logical operator
    /// (parallelisation level 1, Fig. 3a). `factories` provides a fresh
    /// operator instance per logical operator, used both at deployment and
    /// whenever new partitions are created during scale out or recovery.
    ///
    /// This is the low-level layer: the query graph and the factory map are
    /// paired here, and a missing or mismatched pairing is rejected. The
    /// typed [`crate::api::Job`] builder constructs both together, making
    /// those mismatches unrepresentable.
    ///
    /// A runtime hosts at most one query: a second `deploy` returns
    /// [`Error::AlreadyDeployed`] instead of silently clobbering the running
    /// workers, clocks and execution graph.
    pub fn deploy(
        &mut self,
        query: QueryGraph,
        factories: HashMap<LogicalOpId, Arc<dyn OperatorFactory>>,
    ) -> Result<()> {
        if self.graph.is_some() {
            return Err(Error::AlreadyDeployed);
        }
        for op in query.operators() {
            if !factories.contains_key(&op.id) {
                return Err(Error::InvalidGraph(format!(
                    "no operator factory registered for {} ({})",
                    op.id, op.name
                )));
            }
        }
        // The reverse mismatch fails just as loudly: a factory keyed by an id
        // that is not in the query is a typo waiting to deploy the wrong
        // operator silently.
        for id in factories.keys() {
            if query.operator(*id).is_err() {
                return Err(Error::InvalidGraph(format!(
                    "operator factory registered for {id}, which is not in the query graph"
                )));
            }
        }
        let graph = ExecutionGraph::deploy(query)?;
        self.factories = factories;
        for logical in graph.query().operators().map(|o| o.id).collect::<Vec<_>>() {
            self.clocks.insert(logical, SharedClock::new());
        }
        let instances: Vec<_> = graph.instances().cloned().collect();
        self.graph = Some(graph);
        for instance in instances {
            self.create_worker(&instance)?;
        }
        Ok(())
    }

    /// The execution graph (for inspection by experiments).
    pub fn execution_graph(&self) -> &ExecutionGraph {
        self.graph()
    }

    /// The metrics registry.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// The cloud provider backing the deployment.
    pub fn provider(&self) -> &CloudProvider {
        &self.provider
    }

    /// Number of VMs currently running.
    pub fn vm_count(&self) -> usize {
        self.provider.running_count()
    }

    /// Current virtual time in milliseconds.
    pub fn now_ms(&self) -> u64 {
        self.now_ms
    }

    /// Current parallelisation level of a logical operator.
    pub fn parallelism(&self, logical: LogicalOpId) -> usize {
        self.graph().parallelism(logical)
    }

    /// The physical instances of a logical operator.
    pub fn partitions(&self, logical: LogicalOpId) -> Vec<OperatorId> {
        self.graph().partitions(logical).to_vec()
    }

    /// Run a closure against the operator hosted by `instance` (for result
    /// collection and assertions). Returns `None` if the worker is gone.
    pub fn with_operator<R>(
        &self,
        instance: OperatorId,
        f: impl FnOnce(&dyn seep_core::StatefulOperator) -> R,
    ) -> Option<R> {
        self.workers.get(&instance).map(|w| f(w.operator()))
    }

    /// A fresh full checkpoint of `instance` as it is now, numbered with its
    /// latest checkpoint sequence; what its backup must equal right after a
    /// checkpoint round, however that round shipped it. `None` if the worker
    /// is gone.
    pub fn full_checkpoint(&self, instance: OperatorId) -> Option<seep_core::Checkpoint> {
        let sequence = self.checkpoint_seq.get(&instance).copied().unwrap_or(0);
        self.workers
            .get(&instance)
            .map(|w| w.take_checkpoint(sequence))
    }

    /// The checkpoint currently backed up for `instance`, read back from the
    /// store of the upstream operator holding it.
    pub fn backed_up_checkpoint(&self, instance: OperatorId) -> Result<seep_core::Checkpoint> {
        self.backup.retrieve(instance)
    }

    /// Total tuples queued on worker inbound channels (0 when fully drained).
    pub fn queued_tuples(&self) -> usize {
        self.workers.values().map(WorkerCore::queued).sum()
    }

    /// The last timestamp issued by the shared output clock of `logical`
    /// (0 if the operator is unknown). Exposed so equivalence tests can
    /// assert batched and per-tuple runs issue identical clock sequences.
    pub fn emit_clock(&self, logical: LogicalOpId) -> u64 {
        self.clocks.get(&logical).map(|c| c.last()).unwrap_or(0)
    }

    pub(crate) fn create_worker(
        &mut self,
        instance: &seep_core::graph::OperatorInstance,
    ) -> Result<()> {
        let vm = self
            .pool
            .acquire(self.now_ms)
            .ok_or_else(|| Error::Invariant("VM pool exhausted".into()))?;
        self.create_worker_on(instance, vm, &[])
    }

    /// Create a worker for `instance` hosted on an already-running VM — used
    /// by scale in, rebalancing and consolidation, where the new operators
    /// take over slots on the replaced partitions' VMs instead of drawing
    /// fresh ones from the pool. `outgoing` names the instances the same
    /// plan is retiring, whose slots the placement may treat as free.
    pub(crate) fn create_worker_on(
        &mut self,
        instance: &seep_core::graph::OperatorInstance,
        vm: seep_cloud::VmId,
        outgoing: &[OperatorId],
    ) -> Result<()> {
        let receiver = self.network.register(instance.id);
        let factory = self
            .factories
            .get(&instance.logical)
            .ok_or(Error::UnknownLogicalOperator(instance.logical.0))?;
        let operator = factory.build();

        let graph = self.graph();
        let query = graph.query();
        let kind = query.operator(instance.logical)?.kind;
        let downstream = query.downstream(instance.logical);
        let is_sink = downstream.is_empty();
        let keep_buffers =
            self.config.strategy.intermediate_buffers() || kind == OperatorKind::Source;
        let mut routing = BTreeMap::new();
        for ld in downstream {
            routing.insert(ld, graph.routing(ld)?.clone());
        }
        let clock = self
            .clocks
            .get(&instance.logical)
            .cloned()
            .unwrap_or_default();
        let mut worker = WorkerCore::new(
            instance.id,
            instance.logical,
            operator,
            receiver,
            routing,
            clock,
            is_sink,
            keep_buffers,
        );
        if self.config.latency_probe_at_stateful && worker.stateful {
            worker.latency_probe = true;
        }
        worker.out_batch = self.config.batch.size_for(instance.logical);
        // Every VM hosts one checkpoint store of the configured backend for
        // the downstream operators that back up to it.
        let store = self.config.store.build(&store_label(instance.id))?;
        self.backup.register_store(instance.id, store);
        self.workers.insert(instance.id, worker);
        self.placement.assign(instance.id, vm, outgoing)?;
        self.checkpoint_seq.insert(instance.id, 0);
        self.last_checkpoint_ms.insert(instance.id, self.now_ms);
        Ok(())
    }

    /// Inject a source tuple into the (first partition of the) given source
    /// operator, as the data feeder would.
    pub fn inject(&mut self, source: LogicalOpId, key: Key, payload: impl Into<bytes::Bytes>) {
        let Some(&instance) = self.graph().partitions(source).first() else {
            return;
        };
        let network = self.network.clone();
        let metrics = self.metrics.clone();
        let epoch = self.epoch;
        if let Some(worker) = self.workers.get_mut(&instance) {
            worker.emit_source(key, payload, &network, &metrics, epoch);
        }
    }

    /// Process pending tuples until every worker's inbound channel is empty.
    /// Returns the total number of tuples processed.
    ///
    /// Live workers are sharded across `worker_threads` OS threads by
    /// placement VM and stepped in topological order until a full pass makes
    /// no progress (`parallel.rs`). The plane is quiescent when this returns,
    /// which is the barrier every checkpoint, tick and reconfiguration plan
    /// relies on.
    pub fn drain(&mut self) -> u64 {
        let order = self.topological_instances();
        let total = crate::parallel::drain(
            &mut self.workers,
            &order,
            &self.placement,
            &self.network,
            &self.metrics,
            self.epoch,
            self.config.worker_threads,
        );
        self.refresh_obs();
        total
    }

    fn topological_instances(&self) -> Vec<OperatorId> {
        let graph = self.graph();
        let mut out = Vec::with_capacity(self.workers.len());
        if let Ok(order) = graph.query().topological_order() {
            for logical in order {
                out.extend_from_slice(graph.partitions(logical));
            }
        } else {
            out.extend(self.workers.keys().copied());
        }
        out
    }

    /// Advance virtual time. Triggers, in order: VM-pool refill, operator
    /// window ticks, periodic checkpoints, CPU-utilisation reports and (when
    /// auto-scale is on) the scaling policy.
    ///
    /// # Panics
    /// Panics when the runtime's placement invariant is broken (a live worker
    /// without a VM slot) — see [`try_advance_to`](Self::try_advance_to) for
    /// the fallible form.
    pub fn advance_to(&mut self, now_ms: u64) {
        self.try_advance_to(now_ms)
            .expect("runtime invariant violated while advancing time");
    }

    /// Fallible [`advance_to`](Self::advance_to): a utilisation report for an
    /// operator the placement does not know surfaces as
    /// [`Error::Invariant`] instead of being silently attributed to VM 0.
    pub fn try_advance_to(&mut self, now_ms: u64) -> Result<()> {
        if now_ms < self.now_ms {
            return Ok(());
        }
        self.now_ms = now_ms;
        self.pool.tick(now_ms);
        // Plans committed before this instant are no longer "in flight":
        // the health derivation stops reporting Reconfiguring/Recovering.
        self.activity.retain(|_, (_, at)| *at >= now_ms);

        // Window ticks.
        if now_ms.saturating_sub(self.last_tick_ms) >= TICK_INTERVAL_MS {
            self.last_tick_ms = now_ms;
            let network = self.network.clone();
            let metrics = self.metrics.clone();
            let epoch = self.epoch;
            for worker in self.workers.values_mut() {
                worker.tick(now_ms, &network, &metrics, epoch);
            }
        }

        // Periodic checkpoints (R+SM only). Stateless operators checkpoint
        // too: their processing state is empty, but backing up the output
        // buffer lets Algorithm 1 trim the *upstream* buffers feeding them.
        // Without that, a stateless→stateless edge would retain the full
        // stream history and a later reconfiguration would replay it
        // wholesale into the paused receivers. Sources have no upstream
        // buffer to trim, so they only stamp the schedule.
        //
        // A round goes downstream-first: an operator's checkpoint trims the
        // buffers of its upstreams, so by the time an upstream is captured
        // its buffer holds only what its downstreams have not reflected —
        // instead of a whole interval of output an instant before the trim.
        if self.config.strategy.checkpoints() {
            let due: Vec<OperatorId> = self
                .topological_instances()
                .into_iter()
                .rev()
                .filter(|id| {
                    self.workers.get(id).is_some_and(|w| !w.is_failed())
                        && now_ms
                            .saturating_sub(self.last_checkpoint_ms.get(id).copied().unwrap_or(0))
                            >= self.config.checkpoint_interval_ms
                })
                .collect();
            for op in due {
                let has_upstream = self
                    .graph()
                    .upstream_instances(op)
                    .is_ok_and(|ups| !ups.is_empty());
                if !has_upstream {
                    self.last_checkpoint_ms.insert(op, now_ms);
                } else if self.checkpoint_operator(op).is_err() {
                    // The operator stays due and is retried on the next
                    // advance; until a write lands its upstream buffers are
                    // not trimmed. Count it so that is visible.
                    self.metrics.record_checkpoint_failure(op);
                }
            }
        }

        // Utilisation reports and the scaling policy.
        let report_interval = self.config.scaling_policy.report_interval_ms;
        if now_ms.saturating_sub(self.last_report_ms) >= report_interval {
            self.last_report_ms = now_ms;
            let mut reports = Vec::new();
            for (id, worker) in self.workers.iter_mut() {
                if worker.is_failed() {
                    continue;
                }
                let utilization = worker.utilization(report_interval);
                reports.push((*id, utilization));
            }
            for (id, utilization) in reports {
                // A live worker the placement does not know is a broken
                // invariant: surface it instead of billing the report to an
                // arbitrary VM.
                let vm = self.placement.vm_of_required(id)?;
                self.monitor.record(UtilizationReport {
                    operator: id,
                    vm,
                    at_ms: now_ms,
                    utilization,
                });
            }
            if self.auto_scale {
                // Plans built below are control-loop decisions: journal them
                // with the AutoScale trigger.
                self.plan_trigger = PlanTrigger::AutoScale;
                let candidates: Vec<OperatorId> = {
                    let graph = self.graph();
                    graph
                        .instances()
                        .filter(|i| {
                            graph
                                .query()
                                .operator(i.logical)
                                .map(|o| o.kind.scalable())
                                .unwrap_or(false)
                        })
                        .map(|i| i.id)
                        .collect()
                };
                let policy = self.config.scaling_policy;
                let bottlenecks = policy.bottlenecks(&self.monitor, &candidates);
                for op in bottlenecks {
                    // A hot partition whose siblings are cold enough that the
                    // operator's aggregate CPU is fine does not need a fresh
                    // VM — it needs the key boundaries re-drawn. Rebalance
                    // all partitions in place instead of scaling out, at
                    // most once per topology shape: if the re-drawn
                    // boundaries did not relieve the partition, the next
                    // trigger escalates to a scale out.
                    if policy.rebalance {
                        if let Some(logical) = self.rebalance_worthwhile(op) {
                            if !self.rebalanced.contains(&logical)
                                && self.rebalance_operator(logical).is_ok()
                            {
                                self.rebalanced.insert(logical);
                                continue;
                            }
                        }
                    }
                    let _ = self.scale_out(op, SCALE_OUT_PARTITIONS);
                }
                // Scale in: consolidate the partitions of logical operators
                // whose partitions have been under the low watermark (pack
                // them onto shared VM slots, keeping parallelism), then merge
                // adjacent sibling pairs. The candidate list is re-derived
                // because the scale outs above may have replaced instances.
                if policy.scale_in {
                    let survivors: Vec<OperatorId> = self
                        .graph()
                        .instances()
                        .map(|i| i.id)
                        .filter(|id| candidates.contains(id))
                        .collect();
                    let under = policy.underutilized(&self.monitor, &survivors);
                    if policy.consolidate {
                        for logical in self.consolidatable(&under) {
                            let _ = self.consolidate(logical);
                        }
                    }
                    // Consolidated operators got fresh instance ids, so the
                    // stale ids in `under` no longer pair up for a merge —
                    // the two shrink paths never fight over one operator in
                    // the same report interval.
                    for (target, victim) in self.mergeable_pairs(&under) {
                        let _ = self.scale_in(target, victim);
                    }
                }
                self.plan_trigger = PlanTrigger::Manual;
            }
        }
        self.refresh_obs();
        Ok(())
    }

    /// Logical operators with at least two under-utilised partitions whose
    /// placement spreads over more VMs than their slot capacity needs — the
    /// operators a consolidation would actually shrink.
    fn consolidatable(&self, under: &[OperatorId]) -> Vec<LogicalOpId> {
        let slots = self.placement.slots_per_vm();
        if slots < 2 {
            return Vec::new();
        }
        let graph = self.graph();
        let mut out = Vec::new();
        for op in graph.query().operators() {
            let partitions = graph.partitions(op.id);
            if partitions.len() < 2 {
                continue;
            }
            let under_count = partitions.iter().filter(|id| under.contains(id)).count();
            if under_count < 2 {
                continue;
            }
            let mut vms: Vec<seep_cloud::VmId> = partitions
                .iter()
                .filter_map(|id| self.placement.vm_of(*id))
                .collect();
            vms.sort_unstable();
            vms.dedup();
            if vms.len() > partitions.len().div_ceil(slots) {
                out.push(op.id);
            }
        }
        out
    }

    /// At most one adjacent pair of under-utilised sibling partitions per
    /// logical operator, ordered so the partition owning the lower key range
    /// survives the merge.
    fn mergeable_pairs(&self, under: &[OperatorId]) -> Vec<(OperatorId, OperatorId)> {
        let graph = self.graph();
        let mut pairs = Vec::new();
        for op in graph.query().operators() {
            let partitions = graph.partitions(op.id);
            if partitions.len() < 2 {
                continue;
            }
            let mut by_range: Vec<&seep_core::graph::OperatorInstance> = partitions
                .iter()
                .filter_map(|id| graph.instance(*id).ok())
                .collect();
            by_range.sort_by_key(|i| i.key_range.lo);
            for pair in by_range.windows(2) {
                let (a, b) = (pair[0], pair[1]);
                if a.key_range.hi != u64::MAX
                    && a.key_range.hi + 1 == b.key_range.lo
                    && under.contains(&a.id)
                    && under.contains(&b.id)
                {
                    pairs.push((a.id, b.id));
                    break;
                }
            }
        }
        pairs
    }

    /// Whether a hot partition's logical operator is worth rebalancing
    /// instead of scaling out: the operator must have siblings and their mean
    /// utilisation (every partition reporting) must sit below the scale-out
    /// threshold — the skew is in the key split, not in aggregate demand, so
    /// splitting onto a new VM would waste one while re-drawing all the
    /// boundaries by the observed key distribution relieves the hot
    /// partition. Returns the logical operator to rebalance, or `None`.
    fn rebalance_worthwhile(&self, hot: OperatorId) -> Option<LogicalOpId> {
        let graph = self.graph();
        let inst = graph.instance(hot).ok()?;
        let partitions = graph.partitions(inst.logical);
        if partitions.len() < 2 {
            return None;
        }
        let mut sum = 0.0;
        for id in partitions {
            sum += self.monitor.latest(*id)?.utilization;
        }
        let mean = sum / partitions.len() as f64;
        (mean < self.config.scaling_policy.threshold).then_some(inst.logical)
    }

    /// Take a checkpoint of `operator`, back it up to an upstream VM and trim
    /// the upstream output buffers (§3.2, Algorithm 1) — the checkpoint round
    /// [`crate::reconfig::checkpoint_operator`] both cluster backends share.
    pub fn checkpoint_operator(&mut self, operator: OperatorId) -> Result<CheckpointRecord> {
        crate::reconfig::checkpoint_operator(self, operator)
    }

    /// Crash-stop the VM hosting `operator`: every worker placed on that VM
    /// stops, their in-memory state and any backups they stored for other
    /// operators are lost, and their network endpoints disappear. With the
    /// default one-slot placement this fails exactly one operator; on a
    /// multi-slot VM (after a consolidation) the co-resident partitions go
    /// down with it — a VM crash is a VM crash.
    pub fn fail_operator(&mut self, operator: OperatorId) {
        let residents: Vec<OperatorId> = match self.placement.vm_of(operator) {
            Some(vm) => {
                self.provider.fail_vm(vm, self.now_ms);
                self.placement.residents(vm).to_vec()
            }
            None => vec![operator],
        };
        for op in residents {
            if let Some(worker) = self.workers.get_mut(&op) {
                worker.mark_failed();
            }
            self.network.disconnect(op);
            self.backup.unregister_store(op);
            self.monitor.forget(op);
            self.placement.release(op);
        }
        self.refresh_obs();
    }

    /// Aggregate I/O counters of every checkpoint store in the deployment
    /// (all stores share the configured backend).
    pub fn store_stats(&self) -> StoreStats {
        self.backup.aggregate_stats()
    }

    /// Label of the configured checkpoint-store backend.
    pub fn store_backend(&self) -> &'static str {
        self.config.store.label()
    }
}

impl Runtime {
    /// VM pool hit/miss statistics (see §5.2).
    pub fn pool_stats(&self) -> seep_cloud::PoolStats {
        self.pool.stats()
    }

    /// The placement layer: which VM slot hosts which partition.
    pub fn placement(&self) -> &Placement {
        &self.placement
    }

    /// The reconfiguration event journal.
    pub fn journal(&self) -> Arc<Journal> {
        self.journal.clone()
    }

    /// The snapshot cell the scrape endpoint reads from.
    pub(crate) fn obs_shared(&self) -> Arc<ObsShared> {
        self.obs.clone()
    }

    /// Re-publish the observability snapshot. Skipped while nothing holds
    /// the other end (no scrape server running), so the hot path does not
    /// pay for snapshots nobody reads.
    pub(crate) fn refresh_obs(&self) {
        if Arc::strong_count(&self.obs) > 1 {
            self.obs.update(self.obs_snapshot());
        }
    }

    /// Derive per-operator health from worker flags, queue depth against
    /// the `BACKPRESSURE_QUEUE` watermark, the latest utilisation
    /// report and any plan committed at the current virtual instant.
    /// Precedence: `Failed` > `Recovering`/`Reconfiguring` > `Backpressured`
    /// > `Ok`.
    ///
    /// Fusion stays invisible here: an instance hosting a fused chain
    /// reports one row **per member stage** (same instance id, queue,
    /// utilisation, VM and state — those are physical properties of the
    /// shared instance), with `name` and `processed` attributed to the
    /// individual logical operators from the chain's per-stage counters.
    pub fn health(&self) -> Vec<OperatorHealth> {
        let mut rows = Vec::with_capacity(self.workers.len());
        for (id, w) in &self.workers {
            let active = self
                .activity
                .get(&w.logical)
                .filter(|(_, at)| *at >= self.now_ms)
                .map(|(kind, _)| plan_state(*kind));
            let state = if w.is_failed() {
                seep_core::HealthState::Failed
            } else if let Some(busy) = active {
                busy
            } else if w.queued() >= BACKPRESSURE_QUEUE {
                seep_core::HealthState::Backpressured
            } else {
                seep_core::HealthState::Ok
            };
            let base = OperatorHealth {
                operator: *id,
                logical: w.logical,
                name: w.name().to_string(),
                state,
                queued: w.queued(),
                utilization: self
                    .monitor
                    .latest(*id)
                    .map(|r| r.utilization)
                    .unwrap_or(0.0),
                processed: w.processed(),
                checkpoint_failures: self.metrics.checkpoint_failures_of(*id),
                vm: self.placement.vm_of(*id).map(|vm| vm.0),
            };
            match w.operator().fusion_stages() {
                Some(stages) => rows.extend(stages.into_iter().map(|s| OperatorHealth {
                    name: s.name,
                    processed: s.processed,
                    ..base.clone()
                })),
                None => rows.push(base),
            }
        }
        rows
    }

    /// Build a fresh observability snapshot from the runtime's current
    /// state: metrics, latency histogram, health, placement occupancy and
    /// the VM/billing counters.
    pub fn obs_snapshot(&self) -> ObsSnapshot {
        let occupancy = self
            .placement
            .occupied_vms()
            .into_iter()
            .map(|vm| (vm.0, self.placement.occupancy(vm)))
            .collect();
        ObsSnapshot {
            now_ms: self.now_ms,
            metrics: self.metrics.snapshot(),
            latency: self.metrics.latency_histogram(),
            store_io: self.metrics.store_io_all(),
            reconfig_phases: ReconfigPhaseTotals::from_records(&self.metrics.reconfigs()),
            health: self.health(),
            occupancy,
            slots_per_vm: self.placement.slots_per_vm(),
            vms_running: self.provider.running_count(),
            vms_provisioning: self.provider.provisioning_count(),
            vm_seconds: self.provider.total_vm_hours(self.now_ms) * 3_600.0,
            vm_cost: self.provider.total_cost(self.now_ms),
            pool: self.pool.stats(),
            pool_ready: self.pool.ready_count(),
            pool_pending: self.pool.pending_count(),
            pool_target: self.pool.target_size(),
            journal_events: self.journal.total(),
            transport: self
                .network
                .transport()
                .map(|t| {
                    t.connections()
                        .into_iter()
                        .map(|c| crate::obs::TransportConn {
                            peer: c.peer,
                            direction: c.direction.to_string(),
                            bytes: c.bytes,
                            frames: c.frames,
                            tuples: c.tuples,
                            reconnects: c.reconnects,
                        })
                        .collect()
                })
                .unwrap_or_default(),
            heartbeat_lag: Vec::new(),
            round_phases: Vec::new(),
            rpcs: Vec::new(),
        }
    }
}

/// The in-process backend: steps are applied to the workers of this
/// process, new instances take VMs from the pool, and a retired instance's
/// endpoint, store and monitor history go with it.
impl ClusterBackend for Runtime {
    fn graph(&self) -> &ExecutionGraph {
        self.graph.as_ref().expect("query deployed")
    }

    fn graph_mut(&mut self) -> &mut ExecutionGraph {
        self.graph.as_mut().expect("query deployed")
    }

    fn placement(&self) -> &Placement {
        &self.placement
    }

    fn backup(&self) -> &BackupCoordinator {
        &self.backup
    }

    fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    fn journal(&self) -> &Journal {
        &self.journal
    }

    fn context(&self) -> PlanContext {
        PlanContext {
            now_ms: self.now_ms,
            trigger: self.plan_trigger,
            strategy: self.config.strategy,
            store: self.config.store.label(),
        }
    }

    fn hosts(&self, op: OperatorId) -> bool {
        self.workers.contains_key(&op)
    }

    fn is_live(&self, op: OperatorId) -> bool {
        self.workers.get(&op).is_some_and(|w| !w.is_failed())
    }

    fn apply(&mut self, op: OperatorId, step: InstanceStep) -> Result<StepReply> {
        let worker = self
            .workers
            .get_mut(&op)
            .ok_or(Error::UnknownOperator(op))?;
        worker.apply(step, &self.network, &self.metrics, self.epoch)
    }

    fn deploy(
        &mut self,
        instance: &seep_core::graph::OperatorInstance,
        vm: Option<seep_cloud::VmId>,
        replaced: &[OperatorId],
    ) -> Result<()> {
        match vm {
            Some(vm) => self.create_worker_on(instance, vm, replaced),
            None => self.create_worker(instance),
        }
    }

    fn retire(&mut self, olds: &[OperatorId]) -> Vec<seep_cloud::VmId> {
        let mut emptied = Vec::new();
        for old in olds {
            self.network.disconnect(*old);
            self.workers.remove(old);
            self.backup.unregister_store(*old);
            // The plan has moved every backup out of the store: its on-disk
            // directory goes too. Found by label, since a failed instance's
            // store was unregistered when it failed.
            self.config.store.remove(&store_label(*old));
            self.backup.clear_backup_of(*old);
            if let Some((vm, empty)) = self.placement.release(*old) {
                if empty {
                    emptied.push(vm);
                }
            }
            self.monitor.forget(*old);
            self.checkpoint_seq.remove(old);
            self.last_checkpoint_ms.remove(old);
        }
        emptied
    }

    fn release_vm(&mut self, vm: seep_cloud::VmId) {
        self.pool.release(vm, self.now_ms);
    }

    fn next_checkpoint_seq(&mut self, op: OperatorId) -> u64 {
        let seq = self.checkpoint_seq.entry(op).or_insert(0);
        *seq += 1;
        *seq
    }

    fn checkpoint_taken(&mut self, op: OperatorId) {
        self.last_checkpoint_ms.insert(op, self.now_ms);
    }

    fn committed(&mut self, logical: LogicalOpId, kind: JournalKind) {
        // The topology changed: the control loop may rebalance the operator
        // again. A rebalance itself leaves the one-shot mark to the loop.
        if kind != JournalKind::Rebalance {
            self.rebalanced.remove(&logical);
        }
        self.activity.insert(logical, (kind, self.now_ms));
    }

    fn publish(&self) {
        self.refresh_obs();
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::recovery::RecoveryStrategy;
    use parking_lot::Mutex;
    use seep_core::{OutputTuple, StatefulOperator, StatelessFn, Tuple};
    use seep_operators::word_count::WordFrequency;
    use seep_operators::{WindowedWordCount, WordSplitter};

    pub(crate) struct Harness {
        pub(crate) runtime: Runtime,
        src: LogicalOpId,
        pub(crate) split: LogicalOpId,
        pub(crate) count: LogicalOpId,
        results: Arc<Mutex<Vec<WordFrequency>>>,
    }

    /// Build the windowed word-frequency query used throughout §6.2/§6.3.
    pub(crate) fn word_count_harness(config: RuntimeConfig) -> Harness {
        let mut b = QueryGraph::builder();
        let src = b.source("data_feeder");
        let split = b.stateless("word_splitter");
        let count = b.stateful("word_counter");
        let snk = b.sink("sink");
        b.connect(src, split);
        b.connect(split, count);
        b.connect(count, snk);
        let query = b.build().unwrap();

        let results: Arc<Mutex<Vec<WordFrequency>>> = Arc::new(Mutex::new(Vec::new()));
        let results_for_sink = results.clone();

        let mut factories: HashMap<LogicalOpId, Arc<dyn OperatorFactory>> = HashMap::new();
        factories.insert(
            src,
            Arc::new(|| -> Box<dyn StatefulOperator> {
                Box::new(StatelessFn::new(
                    "feeder",
                    |_, t: &Tuple, out: &mut Vec<OutputTuple>| {
                        out.push(OutputTuple::new(t.key, t.payload.clone()));
                    },
                )) as Box<dyn StatefulOperator>
            }) as Arc<dyn OperatorFactory>,
        );
        factories.insert(
            split,
            Arc::new(|| -> Box<dyn StatefulOperator> { Box::new(WordSplitter::new()) })
                as Arc<dyn OperatorFactory>,
        );
        factories.insert(
            count,
            Arc::new(|| -> Box<dyn StatefulOperator> { Box::new(WindowedWordCount::new(30_000)) })
                as Arc<dyn OperatorFactory>,
        );
        factories.insert(
            snk,
            Arc::new(move || -> Box<dyn StatefulOperator> {
                let results = results_for_sink.clone();
                Box::new(StatelessFn::new(
                    "collector",
                    move |_, t: &Tuple, _out: &mut Vec<OutputTuple>| {
                        if let Ok(freq) = t.decode::<WordFrequency>() {
                            results.lock().push(freq);
                        }
                    },
                )) as Box<dyn StatefulOperator>
            }) as Arc<dyn OperatorFactory>,
        );

        let mut runtime = Runtime::new(config);
        runtime.deploy(query, factories).unwrap();
        Harness {
            runtime,
            src,
            split,
            count,
            results,
        }
    }

    pub(crate) fn inject_sentence(h: &mut Harness, sentence: &str) {
        let payload = seep_core::encode_bytes(sentence).unwrap();
        h.runtime
            .inject(h.src, Key::from_str_key(sentence), payload);
    }

    pub(crate) fn counter_instance(h: &Harness) -> OperatorId {
        h.runtime.partitions(h.count)[0]
    }

    fn count_of(h: &Harness, word: &str) -> u64 {
        h.runtime
            .partitions(h.count)
            .iter()
            .filter_map(|id| {
                h.runtime.with_operator(*id, |op| {
                    // Downcast through the state representation: re-use the
                    // operator's own processing state.
                    let state = op.get_processing_state();
                    state
                        .get_decoded::<seep_operators::word_count::WordEntry>(Key::from_str_key(
                            word,
                        ))
                        .ok()
                        .flatten()
                        .map(|e| e.count)
                })
            })
            .flatten()
            .sum()
    }

    #[test]
    fn deploy_creates_one_vm_per_operator() {
        let h = word_count_harness(RuntimeConfig::default());
        // One VM per operator instance plus the pre-allocated pool VMs.
        assert!(h.runtime.vm_count() >= 4);
        let stats = h.runtime.pool_stats();
        assert_eq!(stats.hits, 4);
        assert_eq!(stats.misses, 0);
        assert_eq!(h.runtime.parallelism(h.count), 1);
        assert_eq!(h.runtime.execution_graph().total_instances(), 4);
    }

    #[test]
    fn second_deploy_is_rejected_and_leaves_the_first_intact() {
        let mut h = word_count_harness(RuntimeConfig::default());
        inject_sentence(&mut h, "before redeploy");
        h.runtime.drain();
        let instances_before = h.runtime.execution_graph().total_instances();

        let mut b = QueryGraph::builder();
        let src = b.source("src2");
        let snk = b.sink("snk2");
        b.connect(src, snk);
        let query = b.build().unwrap();
        let mut factories: HashMap<LogicalOpId, Arc<dyn OperatorFactory>> = HashMap::new();
        let feeder = || StatelessFn::new("noop", |_, _t: &Tuple, _out: &mut Vec<OutputTuple>| {});
        factories.insert(src, Arc::new(feeder));
        factories.insert(snk, Arc::new(feeder));

        let err = h.runtime.deploy(query, factories).unwrap_err();
        assert_eq!(err, Error::AlreadyDeployed);
        // The original deployment keeps running untouched.
        assert_eq!(
            h.runtime.execution_graph().total_instances(),
            instances_before
        );
        assert_eq!(count_of(&h, "redeploy"), 1);
    }

    #[test]
    fn deploy_rejects_factory_for_unknown_operator() {
        let mut b = QueryGraph::builder();
        let src = b.source("src");
        let snk = b.sink("snk");
        b.connect(src, snk);
        let query = b.build().unwrap();
        let noop = || StatelessFn::new("noop", |_, _t: &Tuple, _out: &mut Vec<OutputTuple>| {});
        let mut factories: HashMap<LogicalOpId, Arc<dyn OperatorFactory>> = HashMap::new();
        factories.insert(src, Arc::new(noop));
        factories.insert(snk, Arc::new(noop));
        // A typo'd id that is not part of the query graph.
        factories.insert(LogicalOpId(99), Arc::new(noop));

        let mut runtime = Runtime::new(RuntimeConfig::default());
        let err = runtime.deploy(query, factories).unwrap_err();
        assert!(
            matches!(err, Error::InvalidGraph(ref msg) if msg.contains("lop99")),
            "unexpected error: {err}"
        );
    }

    #[test]
    fn end_to_end_word_count() {
        let mut h = word_count_harness(RuntimeConfig::default());
        inject_sentence(&mut h, "first set");
        inject_sentence(&mut h, "second set");
        inject_sentence(&mut h, "third set");
        let processed = h.runtime.drain();
        assert!(
            processed >= 9,
            "source, splitter and counter work: {processed}"
        );
        assert_eq!(count_of(&h, "set"), 3);
        assert_eq!(count_of(&h, "first"), 1);
        // Closing the window delivers results to the sink.
        h.runtime.advance_to(30_000);
        h.runtime.drain();
        let results = h.results.lock();
        assert!(results.iter().any(|f| f.word == "set" && f.count == 3));
    }

    #[test]
    fn checkpoints_happen_on_schedule_and_trim_buffers() {
        let mut h = word_count_harness(RuntimeConfig::default());
        inject_sentence(&mut h, "alpha beta gamma");
        h.runtime.drain();
        let splitter_instance = h.runtime.partitions(h.split)[0];
        let buffered_before = h
            .runtime
            .workers
            .get(&splitter_instance)
            .unwrap()
            .buffer()
            .len();
        assert!(buffered_before >= 3);
        h.runtime.advance_to(5_000); // checkpoint interval
        let checkpoints = h.runtime.metrics().checkpoints();
        assert!(!checkpoints.is_empty());
        let buffered_after = h
            .runtime
            .workers
            .get(&splitter_instance)
            .unwrap()
            .buffer()
            .len();
        assert!(
            buffered_after < buffered_before,
            "checkpointing must trim the upstream buffer ({buffered_before} -> {buffered_after})"
        );
    }

    #[test]
    fn recovery_restores_state_and_replays_missing_tuples() {
        let mut h = word_count_harness(RuntimeConfig::default());
        // Phase 1: processed and checkpointed.
        inject_sentence(&mut h, "apple banana apple");
        h.runtime.drain();
        h.runtime.advance_to(5_000);
        // Phase 2: processed but NOT yet checkpointed (still buffered upstream).
        inject_sentence(&mut h, "banana cherry");
        h.runtime.drain();
        assert_eq!(count_of(&h, "apple"), 2);
        assert_eq!(count_of(&h, "banana"), 2);

        // Fail the word counter's VM and recover it.
        let failed = counter_instance(&h);
        h.runtime.fail_operator(failed);
        let record = h.runtime.recover(failed, 1).unwrap();
        assert_eq!(record.strategy, "R+SM");
        assert!(record.duration_ms() >= 0.0);
        assert!(
            record.replayed_tuples >= 2,
            "phase-2 words must be replayed"
        );

        // The restored counter has the full, correct counts.
        assert_eq!(count_of(&h, "apple"), 2);
        assert_eq!(count_of(&h, "banana"), 2);
        assert_eq!(count_of(&h, "cherry"), 1);
        // The old instance is gone, a new one exists.
        assert_eq!(h.runtime.parallelism(h.count), 1);
        assert_ne!(counter_instance(&h), failed);
    }

    #[test]
    fn upstream_backup_recovery_rebuilds_state_from_buffers() {
        let config = RuntimeConfig::default().with_strategy(RecoveryStrategy::UpstreamBackup);
        let mut h = word_count_harness(config);
        inject_sentence(&mut h, "x y x z");
        h.runtime.drain();
        h.runtime.advance_to(5_000); // no checkpoints under UB
        assert!(h.runtime.metrics().checkpoints().is_empty());
        let failed = counter_instance(&h);
        h.runtime.fail_operator(failed);
        let record = h.runtime.recover(failed, 1).unwrap();
        assert_eq!(record.strategy, "UB");
        assert!(record.replayed_tuples >= 4, "UB replays the whole buffer");
        assert_eq!(count_of(&h, "x"), 2);
        assert_eq!(count_of(&h, "z"), 1);
    }

    #[test]
    fn source_replay_recovery_reprocesses_from_the_source() {
        let config = RuntimeConfig::default().with_strategy(RecoveryStrategy::SourceReplay);
        let mut h = word_count_harness(config);
        inject_sentence(&mut h, "m n m");
        h.runtime.drain();
        let splitter_instance = h.runtime.partitions(h.split)[0];
        assert_eq!(
            h.runtime
                .workers
                .get(&splitter_instance)
                .unwrap()
                .buffer()
                .len(),
            0,
            "intermediate operators do not buffer under SR"
        );
        let failed = counter_instance(&h);
        h.runtime.fail_operator(failed);
        let record = h.runtime.recover(failed, 1).unwrap();
        assert_eq!(record.strategy, "SR");
        assert!(record.replayed_tuples >= 1, "source buffer is replayed");
        assert_eq!(count_of(&h, "m"), 2);
        assert_eq!(count_of(&h, "n"), 1);
    }

    #[test]
    fn scale_out_splits_state_and_preserves_counts() {
        let mut h = word_count_harness(RuntimeConfig::default());
        for sentence in ["red green blue", "red yellow", "green red"] {
            inject_sentence(&mut h, sentence);
        }
        h.runtime.drain();
        h.runtime.advance_to(5_000); // checkpoint so the backup is fresh
        inject_sentence(&mut h, "blue violet"); // not yet checkpointed
        h.runtime.drain();

        let target = counter_instance(&h);
        let outcome = h.runtime.scale_out(target, 2).unwrap();
        assert_eq!(outcome.new_operators.len(), 2);
        assert_eq!(h.runtime.parallelism(h.count), 2);
        h.runtime.drain();

        // Counts across the two partitions equal the expected totals.
        assert_eq!(count_of(&h, "red"), 3);
        assert_eq!(count_of(&h, "green"), 2);
        assert_eq!(count_of(&h, "blue"), 2);
        assert_eq!(count_of(&h, "violet"), 1);

        // New tuples are routed to the correct partition and processed.
        inject_sentence(&mut h, "red blue");
        h.runtime.drain();
        assert_eq!(count_of(&h, "red"), 4);
        assert_eq!(count_of(&h, "blue"), 3);
    }

    #[test]
    fn parallel_recovery_uses_multiple_partitions() {
        let mut h = word_count_harness(RuntimeConfig::default());
        for i in 0..50 {
            inject_sentence(&mut h, &format!("word{i} common"));
        }
        h.runtime.drain();
        h.runtime.advance_to(5_000);
        inject_sentence(&mut h, "common tail");
        h.runtime.drain();

        let failed = counter_instance(&h);
        h.runtime.fail_operator(failed);
        let record = h.runtime.recover(failed, 2).unwrap();
        assert_eq!(record.parallelism, 2);
        assert_eq!(h.runtime.parallelism(h.count), 2);
        assert_eq!(count_of(&h, "common"), 51);
        assert_eq!(count_of(&h, "tail"), 1);
    }

    #[test]
    fn scale_in_merges_partitions_and_releases_vm() {
        let mut h = word_count_harness(RuntimeConfig::default());
        for sentence in ["one two three", "two three", "three"] {
            inject_sentence(&mut h, sentence);
        }
        h.runtime.drain();
        h.runtime.advance_to(5_000); // checkpoint
        let target = counter_instance(&h);
        h.runtime.scale_out(target, 2).unwrap();
        h.runtime.drain();
        inject_sentence(&mut h, "four three"); // processed after the split
        h.runtime.drain();
        assert_eq!(h.runtime.parallelism(h.count), 2);

        let vms_before = h.runtime.vm_count();
        let parts = h.runtime.partitions(h.count);
        let outcome = h.runtime.scale_in(parts[0], parts[1]).unwrap();
        h.runtime.drain();

        assert_eq!(h.runtime.parallelism(h.count), 1);
        assert_eq!(h.runtime.vm_count(), vms_before - 1, "one VM released");
        let released_vm = *outcome
            .released_vms
            .first()
            .expect("single-slot merge empties the VM");
        let released = h.runtime.provider().vm(released_vm).unwrap();
        assert!(!released.is_running(), "victim VM given back to the cloud");
        assert_eq!(h.runtime.metrics().scale_ins().len(), 1);
        assert_eq!(h.runtime.metrics().snapshot().scale_ins, 1);

        // Merged state carries the full counts, including post-split tuples.
        assert_eq!(count_of(&h, "one"), 1);
        assert_eq!(count_of(&h, "two"), 2);
        assert_eq!(count_of(&h, "three"), 4);
        assert_eq!(count_of(&h, "four"), 1);

        // New tuples route to the merged operator and are processed.
        inject_sentence(&mut h, "five three");
        h.runtime.drain();
        assert_eq!(count_of(&h, "three"), 5);
        assert_eq!(count_of(&h, "five"), 1);
    }

    #[test]
    fn scale_in_migrates_third_party_backups_to_the_surviving_store() {
        let mut h = word_count_harness(RuntimeConfig::default());
        inject_sentence(&mut h, "alpha beta");
        h.runtime.drain();
        h.runtime.advance_to(5_000);
        let target = counter_instance(&h);
        h.runtime.scale_out(target, 2).unwrap();
        h.runtime.drain();
        let parts = h.runtime.partitions(h.count);

        // A downstream operator's checkpoint hosted on the surviving
        // partition's store (as the sink's would be if it checkpointed).
        let owner = OperatorId::new(4242);
        h.runtime
            .backup
            .store_of(parts[0])
            .unwrap()
            .put(owner, seep_core::Checkpoint::empty(owner))
            .unwrap();
        h.runtime.backup.set_backup_of(owner, parts[0]);

        let outcome = h.runtime.scale_in(parts[0], parts[1]).unwrap();
        // The surviving VM keeps hosting that backup under the merged
        // operator's store; it stays retrievable.
        assert_eq!(
            h.runtime.backup.backup_of(owner),
            Some(outcome.new_operators[0])
        );
        let restored = h.runtime.backup.retrieve(owner).unwrap();
        assert_eq!(restored.meta.operator, owner);
    }

    #[test]
    fn scale_in_under_upstream_backup_rebuilds_state_from_buffers() {
        let config = RuntimeConfig::default().with_strategy(RecoveryStrategy::UpstreamBackup);
        let mut h = word_count_harness(config);
        for sentence in ["ub one two", "ub two"] {
            inject_sentence(&mut h, sentence);
        }
        h.runtime.drain();
        let target = counter_instance(&h);
        h.runtime.scale_out(target, 2).unwrap();
        h.runtime.drain();
        inject_sentence(&mut h, "ub one");
        h.runtime.drain();

        let parts = h.runtime.partitions(h.count);
        h.runtime.scale_in(parts[0], parts[1]).unwrap();
        h.runtime.drain();
        // No checkpoints exist under UB: the merge starts empty and the
        // untrimmed upstream buffers replay the full history.
        assert_eq!(h.runtime.parallelism(h.count), 1);
        assert_eq!(count_of(&h, "ub"), 3);
        assert_eq!(count_of(&h, "one"), 2);
        assert_eq!(count_of(&h, "two"), 2);
    }

    #[test]
    fn scale_in_rejects_invalid_pairs() {
        let mut h = word_count_harness(RuntimeConfig::default());
        inject_sentence(&mut h, "seed words");
        h.runtime.drain();
        let counter = counter_instance(&h);
        // Merging an operator with itself, or with a different logical
        // operator's partition, is rejected.
        assert!(h.runtime.scale_in(counter, counter).is_err());
        let splitter = h.runtime.partitions(h.split)[0];
        assert!(h.runtime.scale_in(counter, splitter).is_err());

        // Three partitions: the outer two are not adjacent.
        h.runtime.scale_out(counter, 2).unwrap();
        let parts = h.runtime.partitions(h.count);
        h.runtime.scale_out(parts[0], 2).unwrap();
        let parts = h.runtime.partitions(h.count);
        assert_eq!(parts.len(), 3);
        let mut by_lo: Vec<OperatorId> = parts.clone();
        by_lo.sort_by_key(|id| {
            h.runtime
                .execution_graph()
                .instance(*id)
                .unwrap()
                .key_range
                .lo
        });
        assert!(h.runtime.scale_in(by_lo[0], by_lo[2]).is_err());
        // A failed partition cannot be merged.
        h.runtime.fail_operator(by_lo[1]);
        assert!(h.runtime.scale_in(by_lo[0], by_lo[1]).is_err());
        assert_eq!(h.runtime.metrics().scale_ins().len(), 0);
    }

    #[test]
    fn auto_scale_in_merges_idle_partitions() {
        let mut policy = crate::ScalingPolicy::default().with_scale_in(0.2);
        policy.scale_in_reports = 2;
        let config = RuntimeConfig {
            scaling_policy: policy,
            ..RuntimeConfig::default()
        };
        let mut h = word_count_harness(config);
        h.runtime.set_auto_scale(true);
        inject_sentence(&mut h, "warm up words");
        h.runtime.drain();
        let target = counter_instance(&h);
        h.runtime.scale_out(target, 2).unwrap();
        h.runtime.drain();
        assert_eq!(h.runtime.parallelism(h.count), 2);
        let vms_before = h.runtime.vm_count();

        // No load: every report is far below the low watermark; after the
        // required streak the control loop merges the two counter partitions.
        for step in 1..=4u64 {
            h.runtime.advance_to(step * 5_000);
        }
        assert_eq!(h.runtime.parallelism(h.count), 1, "idle partitions merged");
        assert!(h.runtime.vm_count() < vms_before);
        assert_eq!(h.runtime.metrics().scale_ins().len(), 1);
        let record = &h.runtime.metrics().scale_ins()[0];
        assert_eq!(record.logical, h.count);
        assert_eq!(record.parallelism, 1);
    }

    #[test]
    fn consolidate_packs_partitions_and_releases_vms() {
        let config = RuntimeConfig {
            pool: seep_cloud::VmPoolConfig::default().with_slots_per_vm(2),
            ..RuntimeConfig::default()
        };
        let mut h = word_count_harness(config);
        for sentence in ["pack one two", "pack two", "pack three four"] {
            inject_sentence(&mut h, sentence);
        }
        h.runtime.drain();
        h.runtime.advance_to(5_000); // checkpoint
        let target = counter_instance(&h);
        h.runtime.scale_out(target, 4).unwrap();
        h.runtime.drain();
        inject_sentence(&mut h, "pack five"); // post-split, pre-consolidate
        h.runtime.drain();
        assert_eq!(h.runtime.parallelism(h.count), 4);

        let vms_before = h.runtime.vm_count();
        let outcome = h.runtime.consolidate(h.count).unwrap();
        h.runtime.drain();

        // Parallelism unchanged, partitions packed 2-per-VM, 2 VMs released.
        assert_eq!(h.runtime.parallelism(h.count), 4);
        assert_eq!(outcome.new_operators.len(), 4);
        assert_eq!(outcome.released_vms.len(), 2);
        assert_eq!(h.runtime.vm_count(), vms_before - 2);
        for vm in &outcome.released_vms {
            assert!(!h.runtime.provider().vm(*vm).unwrap().is_running());
        }
        let mut vms: Vec<seep_cloud::VmId> = h
            .runtime
            .partitions(h.count)
            .iter()
            .map(|id| h.runtime.placement().vm_of(*id).unwrap())
            .collect();
        vms.sort_unstable();
        vms.dedup();
        assert_eq!(vms.len(), 2, "four partitions share two VMs");

        // Counts survive the move and new traffic keeps routing correctly.
        assert_eq!(count_of(&h, "pack"), 4);
        assert_eq!(count_of(&h, "two"), 2);
        assert_eq!(count_of(&h, "five"), 1);
        inject_sentence(&mut h, "pack six");
        h.runtime.drain();
        assert_eq!(count_of(&h, "pack"), 5);
        assert_eq!(count_of(&h, "six"), 1);
        assert_eq!(
            h.runtime
                .metrics()
                .reconfigs_of(JournalKind::Consolidate)
                .len(),
            1
        );
        let record = &h.runtime.metrics().reconfigs_of(JournalKind::Consolidate)[0];
        assert_eq!(record.parallelism, 4);
        assert_eq!(record.vms_released, 2);
        assert_eq!(h.runtime.metrics().snapshot().consolidates, 1);
    }

    #[test]
    fn consolidate_requires_multislot_vms_and_siblings() {
        let mut h = word_count_harness(RuntimeConfig::default());
        inject_sentence(&mut h, "just words");
        h.runtime.drain();
        // Default placement has one slot per VM: nothing to pack onto.
        let err = h.runtime.consolidate(h.count).unwrap_err();
        assert!(matches!(err, Error::Invariant(_)));

        let config = RuntimeConfig {
            pool: seep_cloud::VmPoolConfig::default().with_slots_per_vm(2),
            ..RuntimeConfig::default()
        };
        let mut h = word_count_harness(config);
        inject_sentence(&mut h, "just words");
        h.runtime.drain();
        // A single partition has nothing to consolidate with.
        assert!(h.runtime.consolidate(h.count).is_err());
        assert!(h
            .runtime
            .metrics()
            .reconfigs_of(JournalKind::Consolidate)
            .is_empty());
    }

    #[test]
    fn failing_one_partition_fails_its_vm_co_residents() {
        let config = RuntimeConfig {
            pool: seep_cloud::VmPoolConfig::default().with_slots_per_vm(2),
            ..RuntimeConfig::default()
        };
        let mut h = word_count_harness(config);
        inject_sentence(&mut h, "shared fate");
        h.runtime.drain();
        h.runtime.advance_to(5_000);
        let target = counter_instance(&h);
        h.runtime.scale_out(target, 2).unwrap();
        h.runtime.drain();
        h.runtime.consolidate(h.count).unwrap();
        let parts = h.runtime.partitions(h.count);
        assert_eq!(
            h.runtime.placement().vm_of(parts[0]),
            h.runtime.placement().vm_of(parts[1]),
            "both partitions share one VM after consolidation"
        );

        // A VM crash is a VM crash: both co-residents go down.
        h.runtime.fail_operator(parts[0]);
        assert!(h.runtime.workers.get(&parts[0]).unwrap().is_failed());
        assert!(h.runtime.workers.get(&parts[1]).unwrap().is_failed());
    }

    #[test]
    fn rebalance_operator_resplits_all_partitions_in_one_plan() {
        let mut h = word_count_harness(RuntimeConfig::default());
        for i in 0..40 {
            inject_sentence(&mut h, &format!("skew{i} filler"));
        }
        h.runtime.drain();
        h.runtime.advance_to(5_000); // checkpoint
        let target = counter_instance(&h);
        h.runtime.scale_out(target, 4).unwrap();
        h.runtime.drain();
        assert_eq!(h.runtime.parallelism(h.count), 4);
        let vms_before = h.runtime.vm_count();

        let outcome = h.runtime.rebalance_operator(h.count).unwrap();
        h.runtime.drain();
        // One plan re-split all four partitions; the deployment is unchanged.
        assert_eq!(outcome.new_operators.len(), 4);
        assert_eq!(h.runtime.parallelism(h.count), 4);
        assert_eq!(h.runtime.vm_count(), vms_before);
        assert_eq!(
            h.runtime
                .metrics()
                .reconfigs_of(JournalKind::Rebalance)
                .len(),
            1
        );
        let record = &h.runtime.metrics().reconfigs_of(JournalKind::Rebalance)[0];
        assert_eq!(record.parallelism, 4);
        assert!(
            record.timing.post_split_imbalance > 0.0,
            "the pooled sample must predict the post-split imbalance"
        );
        // No word lost or duplicated by the four-way move.
        assert_eq!(count_of(&h, "filler"), 40);
        assert_eq!(count_of(&h, "skew7"), 1);
    }

    #[test]
    fn try_advance_to_surfaces_missing_placement_as_invariant() {
        let mut h = word_count_harness(RuntimeConfig::default());
        inject_sentence(&mut h, "report me");
        h.runtime.drain();
        // Break the invariant behind the runtime's back: the counter worker
        // stays alive but loses its placement entry.
        let counter = counter_instance(&h);
        h.runtime.placement.release(counter);
        let err = h.runtime.try_advance_to(5_000).unwrap_err();
        assert!(
            matches!(err, Error::Invariant(ref msg) if msg.contains("placement")),
            "unexpected error: {err}"
        );
    }

    #[test]
    fn auto_consolidate_packs_idle_partitions() {
        let mut policy = crate::ScalingPolicy::default()
            .with_scale_in(0.2)
            .with_consolidate();
        policy.scale_in_reports = 2;
        let config = RuntimeConfig {
            scaling_policy: policy,
            pool: seep_cloud::VmPoolConfig::default().with_slots_per_vm(2),
            ..RuntimeConfig::default()
        };
        let mut h = word_count_harness(config);
        h.runtime.set_auto_scale(true);
        inject_sentence(&mut h, "warm up words");
        h.runtime.drain();
        let target = counter_instance(&h);
        h.runtime.scale_out(target, 4).unwrap();
        h.runtime.drain();
        let vms_before = h.runtime.vm_count();

        // No load: the control loop packs the idle partitions onto shared
        // slots before any sibling pair is merged away.
        for step in 1..=4u64 {
            h.runtime.advance_to(step * 5_000);
        }
        assert!(
            !h.runtime
                .metrics()
                .reconfigs_of(JournalKind::Consolidate)
                .is_empty(),
            "idle partitions must be consolidated"
        );
        assert!(h.runtime.vm_count() < vms_before, "VMs handed back");
    }

    #[test]
    fn scale_out_of_missing_operator_fails() {
        let mut h = word_count_harness(RuntimeConfig::default());
        let err = h.runtime.scale_out(OperatorId::new(999), 2);
        assert!(err.is_err());
        let err = h.runtime.scale_out(counter_instance(&h), 0);
        assert!(err.is_err());
    }

    #[test]
    fn failed_operator_cannot_be_checkpointed() {
        let mut h = word_count_harness(RuntimeConfig::default());
        let counter = counter_instance(&h);
        h.runtime.fail_operator(counter);
        assert!(h.runtime.checkpoint_operator(counter).is_err());
    }

    /// A `MemStore` that refuses writes while `refusing` is set.
    #[derive(Default)]
    struct RefusingStore {
        inner: seep_store::MemStore,
        refusing: std::sync::atomic::AtomicBool,
    }

    impl RefusingStore {
        fn check(&self) -> Result<()> {
            if self.refusing.load(std::sync::atomic::Ordering::SeqCst) {
                return Err(Error::Store("store refuses writes".into()));
            }
            Ok(())
        }
    }

    impl seep_store::CheckpointStore for RefusingStore {
        fn backend(&self) -> &'static str {
            "refusing"
        }
        fn put(
            &self,
            owner: OperatorId,
            checkpoint: seep_core::Checkpoint,
        ) -> Result<seep_store::PutOutcome> {
            self.check()?;
            self.inner.put(owner, checkpoint)
        }
        fn apply_incremental(
            &self,
            owner: OperatorId,
            inc: &seep_core::IncrementalCheckpoint,
        ) -> Result<seep_store::PutOutcome> {
            self.check()?;
            self.inner.apply_incremental(owner, inc)
        }
        fn latest(&self, owner: OperatorId) -> Result<seep_core::Checkpoint> {
            self.inner.latest(owner)
        }
        fn latest_sequence(&self, owner: OperatorId) -> Option<u64> {
            self.inner.latest_sequence(owner)
        }
        fn delete(&self, owner: OperatorId) -> bool {
            self.inner.delete(owner)
        }
        fn owners(&self) -> Vec<OperatorId> {
            self.inner.owners()
        }
        fn size_bytes(&self) -> usize {
            self.inner.size_bytes()
        }
        fn stats(&self) -> StoreStats {
            self.inner.stats()
        }
    }

    #[test]
    fn a_refused_checkpoint_is_counted_retried_and_followed_by_a_full_capture() {
        let mut h = word_count_harness(RuntimeConfig::default());
        let counter = counter_instance(&h);
        let splitter = h.runtime.partitions(h.split)[0];
        // The counter backs up to its only upstream, the splitter.
        let store = Arc::new(RefusingStore::default());
        h.runtime.backup.register_store(splitter, store.clone());
        let failures = |h: &Harness| h.runtime.metrics().checkpoint_failures_of(counter);
        let last_record = |h: &Harness| {
            let records = h.runtime.metrics().checkpoints();
            *records.iter().rfind(|r| r.operator == counter).unwrap()
        };
        let buffered = |h: &Harness| h.runtime.workers[&splitter].buffer().len();

        // Enough words that the few each later round touches are a delta.
        inject_sentence(&mut h, "a b c d e f g h i j k l one two three");
        h.runtime.drain();
        h.runtime.advance_to(5_000);
        assert!(!last_record(&h).incremental, "the first round is full");
        inject_sentence(&mut h, "two three four");
        h.runtime.drain();
        h.runtime.advance_to(10_000);
        assert!(last_record(&h).incremental, "the second is a delta");
        assert_eq!((failures(&h), buffered(&h)), (0, 0));

        // The store starts refusing: the round fails, visibly, the delta it
        // captured is lost, and the splitter's buffer is not trimmed.
        store
            .refusing
            .store(true, std::sync::atomic::Ordering::SeqCst);
        inject_sentence(&mut h, "three four five");
        h.runtime.drain();
        h.runtime.advance_to(15_000);
        assert_eq!((failures(&h), buffered(&h)), (1, 3));
        assert_eq!(last_record(&h).at_ms, 10_000);
        let row = |h: &Harness| {
            let rows = h.runtime.health();
            rows.into_iter().find(|r| r.operator == counter).unwrap()
        };
        assert_eq!(row(&h).checkpoint_failures, 1);
        let scrape = crate::obs::render_prometheus(&h.runtime.obs_snapshot());
        let sample = format!(
            "seep_checkpoint_failures_total{{operator=\"{}\"}} 1",
            counter.raw()
        );
        assert!(scrape.contains(&sample), "{sample} not in:\n{scrape}");
        // It stays due and is retried on the next advance.
        h.runtime.advance_to(15_500);
        assert_eq!(failures(&h), 2);

        // The store recovers. What the lost delta held is in no later delta,
        // so the next capture must be — and is — a full one.
        store
            .refusing
            .store(false, std::sync::atomic::Ordering::SeqCst);
        h.runtime.advance_to(16_000);
        let record = last_record(&h);
        assert_eq!((record.at_ms, record.incremental), (16_000, false));
        assert_eq!((failures(&h), buffered(&h)), (2, 0));
        assert_eq!(
            h.runtime.backed_up_checkpoint(counter).unwrap(),
            h.runtime.full_checkpoint(counter).unwrap()
        );
        assert_eq!(row(&h).checkpoint_failures, 2, "the count is cumulative");
        // And deltas resume on top of it.
        inject_sentence(&mut h, "five six");
        h.runtime.drain();
        h.runtime.advance_to(21_000);
        assert!(last_record(&h).incremental);
        let mut backed_up = h.runtime.backed_up_checkpoint(counter).unwrap();
        // This advance also ran a utilisation report, after the round.
        backed_up.traffic.decay();
        assert_eq!(backed_up, h.runtime.full_checkpoint(counter).unwrap());
    }

    /// A refused initial backup does not half-commit a scale out: the plan
    /// commits with the counts whole in the new partitions, the old instance
    /// is gone, and the next round re-establishes a full backup of each
    /// partition.
    #[test]
    fn a_scale_out_whose_initial_backup_is_refused_commits_and_backs_up_next_round() {
        use std::sync::atomic::Ordering::SeqCst;
        let mut h = word_count_harness(RuntimeConfig::default());
        let counter = counter_instance(&h);
        let splitter = h.runtime.partitions(h.split)[0];
        // The counter backs up to its only upstream, the splitter.
        let store = Arc::new(RefusingStore::default());
        h.runtime.backup.register_store(splitter, store.clone());
        inject_sentence(&mut h, "a b c d e f g h i j k l one two three");
        h.runtime.drain();
        h.runtime.advance_to(5_000);
        inject_sentence(&mut h, "two three four");
        h.runtime.drain();

        store.refusing.store(true, SeqCst);
        let outcome = h.runtime.scale_out(counter, 2).expect("the plan commits");
        assert!(h.runtime.journal().events().last().unwrap().committed());
        assert_eq!(h.runtime.parallelism(h.count), 2);
        assert!(!h.runtime.workers.contains_key(&counter));
        inject_sentence(&mut h, "three four five");
        h.runtime.drain();
        let counts = ["a", "two", "three", "four", "five"].map(|w| count_of(&h, w));
        assert_eq!(counts, [1, 2, 3, 2, 1]);

        store.refusing.store(false, SeqCst);
        h.runtime.advance_to(10_000);
        for part in outcome.new_operators {
            let records = h.runtime.metrics().checkpoints();
            let record = records.iter().rfind(|r| r.operator == part).unwrap();
            assert_eq!((record.at_ms, record.incremental), (10_000, false));
            let mut backed_up = h.runtime.backed_up_checkpoint(part).unwrap();
            // This advance also ran a utilisation report, after the round.
            backed_up.traffic.decay();
            assert_eq!(backed_up, h.runtime.full_checkpoint(part).unwrap());
        }
    }

    #[test]
    fn sink_latency_is_recorded_after_window_close() {
        let mut h = word_count_harness(RuntimeConfig::default());
        inject_sentence(&mut h, "latency probe words");
        h.runtime.drain();
        h.runtime.advance_to(30_000);
        h.runtime.drain();
        assert!(h.runtime.metrics().latency_samples() > 0);
        let snapshot = h.runtime.metrics().snapshot();
        assert!(snapshot.latency_p95_ms >= 0.0);
    }

    pub(crate) fn health_of(h: &Harness, instance: OperatorId) -> seep_core::HealthState {
        h.runtime
            .health()
            .into_iter()
            .find(|o| o.operator == instance)
            .map(|o| o.state)
            .expect("instance reported")
    }

    #[test]
    fn health_reports_failed_recovering_then_ok() {
        let mut h = word_count_harness(RuntimeConfig::default());
        inject_sentence(&mut h, "health check words");
        h.runtime.drain();
        h.runtime.advance_to(5_000);
        for o in h.runtime.health() {
            assert_eq!(o.state, seep_core::HealthState::Ok, "{} healthy", o.name);
        }

        let failed = counter_instance(&h);
        h.runtime.fail_operator(failed);
        assert_eq!(health_of(&h, failed), seep_core::HealthState::Failed);

        h.runtime.recover(failed, 1).unwrap();
        let recovered = counter_instance(&h);
        assert_ne!(recovered, failed);
        assert_eq!(
            health_of(&h, recovered),
            seep_core::HealthState::Recovering,
            "recovery plan committed at the current instant"
        );
        // Time moves on: the plan is history, the operator is healthy again.
        h.runtime.advance_to(6_000);
        assert_eq!(health_of(&h, recovered), seep_core::HealthState::Ok);
    }

    #[test]
    fn health_reports_reconfiguring_during_a_plan_instant() {
        let mut h = word_count_harness(RuntimeConfig::default());
        inject_sentence(&mut h, "reconfig health words");
        h.runtime.drain();
        h.runtime.advance_to(5_000);
        let target = counter_instance(&h);
        h.runtime.scale_out(target, 2).unwrap();
        for id in h.runtime.partitions(h.count) {
            assert_eq!(health_of(&h, id), seep_core::HealthState::Reconfiguring);
        }
        // Sibling logical operators are unaffected.
        let splitter = h.runtime.partitions(h.split)[0];
        assert_eq!(health_of(&h, splitter), seep_core::HealthState::Ok);
        h.runtime.advance_to(10_000);
        for id in h.runtime.partitions(h.count) {
            assert_eq!(health_of(&h, id), seep_core::HealthState::Ok);
        }
    }

    #[test]
    fn health_reports_backpressure_from_queue_depth() {
        let mut h = word_count_harness(RuntimeConfig::default());
        let splitter = h.runtime.partitions(h.split)[0];
        // Inject without draining: the splitter's inbound queue fills up to
        // one tuple short of the watermark, then reaches it.
        for _ in 1..BACKPRESSURE_QUEUE {
            inject_sentence(&mut h, "queued");
        }
        assert_eq!(health_of(&h, splitter), seep_core::HealthState::Ok);
        inject_sentence(&mut h, "queued");
        assert_eq!(
            health_of(&h, splitter),
            seep_core::HealthState::Backpressured
        );
        h.runtime.drain();
        assert_eq!(health_of(&h, splitter), seep_core::HealthState::Ok);
    }

    #[test]
    fn journal_records_scale_out_rebalance_and_consolidate() {
        let config = RuntimeConfig {
            pool: seep_cloud::VmPoolConfig::default().with_slots_per_vm(2),
            ..RuntimeConfig::default()
        };
        let mut h = word_count_harness(config);
        let journal = h.runtime.journal();
        for sentence in ["journal alpha beta", "journal beta", "journal gamma delta"] {
            inject_sentence(&mut h, sentence);
        }
        h.runtime.drain();
        h.runtime.advance_to(5_000);

        let target = counter_instance(&h);
        h.runtime.scale_out(target, 4).unwrap();
        h.runtime.drain();
        h.runtime.advance_to(10_000);
        h.runtime.rebalance_operator(h.count).unwrap();
        h.runtime.drain();
        h.runtime.advance_to(15_000);
        h.runtime.consolidate(h.count).unwrap();
        h.runtime.drain();

        let events = journal.events();
        assert_eq!(events.len(), 3);
        let kinds: Vec<JournalKind> = events.iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            vec![
                JournalKind::ScaleOut,
                JournalKind::Rebalance,
                JournalKind::Consolidate
            ]
        );
        for e in &events {
            assert!(e.committed(), "{}: {}", e.kind.label(), e.outcome);
            assert_eq!(e.trigger, PlanTrigger::Manual);
            assert_eq!(e.operator, "word_counter");
            assert_eq!(e.logical, h.count.0);
            assert!(!e.vacated.is_empty());
            assert!(!e.placed.is_empty());
            assert!(e.timing.total_us > 0, "phases timed");
        }
        let scale_out = &events[0];
        assert_eq!(scale_out.at_ms, 5_000);
        assert_eq!(scale_out.new_parallelism, 4);
        assert!(
            !scale_out.acquired_vms.is_empty(),
            "scale out draws fresh VMs"
        );
        let rebalance = &events[1];
        assert_eq!(rebalance.new_parallelism, 4);
        assert!(
            rebalance.released_vms.is_empty() && rebalance.acquired_vms.is_empty(),
            "a rebalance reuses every VM"
        );
        let consolidate = &events[2];
        assert!(
            !consolidate.released_vms.is_empty(),
            "consolidation empties VMs"
        );
        assert_eq!(journal.total(), 3);

        let text = Journal::render(&events);
        for needle in ["scale_out", "rebalance", "consolidate", "word_counter"] {
            assert!(text.contains(needle), "replay lists {needle}: {text}");
        }
    }

    #[test]
    fn journal_records_recovery_and_rejected_plans() {
        let mut h = word_count_harness(RuntimeConfig::default());
        inject_sentence(&mut h, "crash and learn");
        h.runtime.drain();
        h.runtime.advance_to(5_000);
        let failed = counter_instance(&h);
        h.runtime.fail_operator(failed);
        h.runtime.recover(failed, 2).unwrap();

        // A doomed plan: partitions of different logical operators cannot
        // merge. The executor rejects it and the journal says so.
        let counter = counter_instance(&h);
        let splitter = h.runtime.partitions(h.split)[0];
        assert!(h.runtime.scale_in(counter, splitter).is_err());

        let events = h.runtime.journal().events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].kind, JournalKind::Recovery);
        assert!(events[0].committed());
        assert_eq!(events[0].new_parallelism, 2);
        assert!(
            events[0].vacated[0].vm.is_none(),
            "the failed instance had already lost its slot"
        );
        assert_eq!(events[1].kind, JournalKind::ScaleIn);
        assert!(!events[1].committed());
        assert!(
            events[1].outcome.starts_with("rejected:"),
            "{}",
            events[1].outcome
        );
    }

    #[test]
    fn auto_scale_plans_are_journalled_with_the_autoscale_trigger() {
        let mut policy = crate::ScalingPolicy::default().with_scale_in(0.2);
        policy.scale_in_reports = 2;
        let config = RuntimeConfig {
            scaling_policy: policy,
            ..RuntimeConfig::default()
        };
        let mut h = word_count_harness(config);
        h.runtime.set_auto_scale(true);
        inject_sentence(&mut h, "idle after this");
        h.runtime.drain();
        let target = counter_instance(&h);
        h.runtime.scale_out(target, 2).unwrap();
        h.runtime.drain();
        // Idle reports trip the scale-in path of the control loop.
        for step in 1..=4u64 {
            h.runtime.advance_to(step * 5_000);
        }
        assert_eq!(h.runtime.parallelism(h.count), 1);
        let events = h.runtime.journal().events();
        let merge = events
            .iter()
            .find(|e| e.kind == JournalKind::ScaleIn)
            .expect("control-loop merge journalled");
        assert_eq!(merge.trigger, PlanTrigger::AutoScale);
        // The manual scale out that preceded it stays Manual.
        assert_eq!(events[0].kind, JournalKind::ScaleOut);
        assert_eq!(events[0].trigger, PlanTrigger::Manual);
    }

    #[test]
    fn obs_snapshot_reflects_runtime_state() {
        let mut h = word_count_harness(RuntimeConfig::default());
        inject_sentence(&mut h, "snapshot words here");
        h.runtime.drain();
        h.runtime.advance_to(30_000);
        h.runtime.drain();
        let target = counter_instance(&h);
        h.runtime.scale_out(target, 2).unwrap();

        let snap = h.runtime.obs_snapshot();
        assert_eq!(snap.now_ms, 30_000);
        assert_eq!(snap.health.len(), h.runtime.workers.len());
        assert!(snap.latency.count > 0, "sink latencies flowed in");
        assert!(!snap.occupancy.is_empty());
        assert_eq!(snap.vms_running, h.runtime.vm_count());
        assert_eq!(snap.journal_events, 1);
        assert_eq!(
            snap.reconfig_phases.len(),
            1,
            "only scale_out timings so far"
        );
        assert_eq!(snap.reconfig_phases[0].kind, JournalKind::ScaleOut);
        assert_eq!(snap.reconfig_phases[0].count, 1);
        // The exposition of a live snapshot passes the scrape-side parser.
        let text = crate::obs::render_prometheus(&snap);
        crate::obs::validate_exposition(&text).expect("live exposition valid");
    }
}
