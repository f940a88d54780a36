//! The reconfiguration-plan executor.
//!
//! One choreography serves every plan shape, over either cluster backend: it
//! acts on instances only through [`InstanceStep`]s and asks the
//! [`ClusterBackend`] only to deploy, retire and release. The phases, in
//! order:
//!
//! 1. **Resolve & validate** — nothing is touched if the plan is rejected.
//! 2. **Drain & pause** — every replaced instance that is still live has
//!    its inbound queue drained and is paused; a failed one has nothing to
//!    drain.
//! 3. **Capture** — one rule for every replaced instance, whatever the plan
//!    kind: a live instance hands over its state in place
//!    ([`InstanceStep::Snapshot`], which leaves the delta marks of the
//!    periodic checkpoints alone); a failed one restores from its backup, or
//!    from empty state when it has none. The captures fold in key order
//!    into the one checkpoint to repartition. The recovery strategy only
//!    decides whether a failed instance has a backup to restore. *Every
//!    fallible state acquisition happens here, before the graph is
//!    rewritten*: a failure unpauses the instances and rejects the plan with
//!    the cluster exactly as it was.
//! 4. **Rewrite** — choose the key split (even, distribution-guided from a
//!    load-weighted checkpoint sample, or the unchanged ranges for a
//!    consolidation) and rewrite the execution graph.
//! 5. **Transform** — partition the captured checkpoint over the new ranges
//!    (Algorithm 2; a merge is the 1-range special case).
//! 6. **Restore** — create workers on VM slots resolved through the
//!    [placement layer](crate::placement): acquired by the backend for
//!    scale out, reused in key order for merge/rebalance,
//!    first-fit-decreasing packed for consolidate — and install the state.
//! 7. **Commit** — under state management, store the new partitions'
//!    initial backups and trim the upstream buffers to what they reflect
//!    (best effort: a refused put leaves the buffers whole and the next
//!    periodic round to take a full capture; UB and SR keep no backups, so
//!    a failed new instance still rebuilds from empty state and a full
//!    replay), move every backup a replaced instance hosted for another
//!    operator to the new instance on its VM or else to the first new one,
//!    retire the replaced instances and release every VM the placement
//!    reports emptied.
//! 8. **Replay** — after a failure, new partitions replay their restored
//!    output buffers (a live instance already sent all of its output);
//!    upstream operators re-route, migrate pending buffered tuples and
//!    replay everything the captured state does not reflect. Downstream
//!    duplicate filters discard re-deliveries. After a live capture the
//!    upstreams replay only what never reached the drained instance.
//!
//! Per-phase wall-clock durations are recorded in
//! [`ReconfigTiming`](crate::metrics::ReconfigTiming).

use std::collections::BTreeMap;
use std::time::Instant;

use seep_cloud::VmId;
use seep_core::graph::OperatorInstance;
use seep_core::merge::merge_checkpoints;
use seep_core::primitives::partition_checkpoint;
use seep_core::{
    Checkpoint, Error, KeyRange, LogicalOpId, OperatorId, Result, RoutingState, Timestamp,
    TimestampVec,
};
use seep_store::BackupCoordinator;

use crate::metrics::{ReconfigTiming, SplitKind};
use crate::placement::first_fit_decreasing;
use crate::reconfig::cluster::{trim_upstreams, ClusterBackend, InstanceStep};
use crate::reconfig::plan::{ReconfigKind, ReconfigPlan, SplitDecision};

/// The result of executing a reconfiguration plan.
#[derive(Debug, Clone)]
pub struct ReconfigOutcome {
    /// The logical operator that was reconfigured.
    pub logical: LogicalOpId,
    /// The new physical instances, in key-range order.
    pub new_operators: Vec<OperatorId>,
    /// Parallelism of the logical operator after the plan.
    pub new_parallelism: usize,
    /// Tuples the plan re-sent to bring the new instances and their
    /// downstream up to date: the upstream replays, plus the restored output
    /// buffers the new instances re-sent when a replaced instance had failed.
    pub replayed_tuples: usize,
    /// VMs released back to the provider, if the plan shrank the deployment
    /// (one for a merge that empties the victim's VM, possibly several for a
    /// consolidation).
    pub released_vms: Vec<VmId>,
    /// Per-phase wall-clock cost and the key-split decision taken.
    pub timing: ReconfigTiming,
}

/// Stopwatch over the executor phases.
struct PhaseTimer {
    begun: Instant,
    at: Instant,
}

impl PhaseTimer {
    fn start() -> Self {
        let now = Instant::now();
        PhaseTimer {
            begun: now,
            at: now,
        }
    }

    /// Microseconds since the previous lap.
    fn lap(&mut self) -> u64 {
        let us = self.at.elapsed().as_micros() as u64;
        self.at = Instant::now();
        us
    }

    fn total_us(&self) -> u64 {
        self.begun.elapsed().as_micros() as u64
    }
}

/// A validated plan: the instances it replaces and how many replace them.
struct ResolvedPlan {
    /// Instances being replaced. For a merge the first entry is the survivor
    /// whose VM hosts the merged instance; for rebalance and consolidate the
    /// entries are in key order.
    olds: Vec<OperatorId>,
    /// `(instance, key range)` of each replaced instance, same order.
    old_ranges: Vec<(OperatorId, KeyRange)>,
    logical: LogicalOpId,
    /// The key range the new instances must cover.
    source_range: KeyRange,
    /// Number of new instances.
    parts: usize,
    previous_parallelism: usize,
    /// Consolidate only: the new instances keep exactly these ranges (in key
    /// order) instead of taking a split decision.
    fixed_ranges: Option<Vec<KeyRange>>,
}

/// Execute a reconfiguration plan over `cluster`. See the [module
/// docs](self) for the phase sequence and failure semantics. Called from
/// exactly one place, [`super::reconfigure`], which journals and records
/// what happens here.
pub(super) fn execute_plan<C: ClusterBackend + ?Sized>(
    cluster: &mut C,
    plan: &ReconfigPlan,
) -> Result<ReconfigOutcome> {
    let mut timer = PhaseTimer::start();
    let mut timing = ReconfigTiming::default();

    // Phase 1: resolve & validate.
    let resolved = resolve_plan(cluster, plan)?;

    // Partial output batches anywhere in the topology must reach their
    // channels before the plan drains, pauses or captures state: a tuple
    // held in a pending batch would otherwise be invisible to the drain
    // below and to the checkpoint/replay protocol's view of "in flight".
    // A no-op at batch size 1, so the seed path is untouched.
    let mut hosted: Vec<OperatorId> = cluster
        .graph()
        .instances()
        .map(|i| i.id)
        .filter(|id| cluster.hosts(*id))
        .collect();
    hosted.sort_unstable();
    for id in hosted {
        cluster.apply(id, InstanceStep::Flush)?;
    }

    // Phase 2: drain & pause every replaced instance that is still live.
    let live: Vec<OperatorId> = resolved
        .olds
        .iter()
        .copied()
        .filter(|id| cluster.is_live(*id))
        .collect();
    for id in &live {
        cluster.apply(*id, InstanceStep::Drain)?;
    }
    set_paused(cluster, &live, true)?;
    timing.drain_us = timer.lap();

    // Phase 3: capture state (fail-before-rewrite: any error here leaves
    // the cluster untouched).
    let captured = match capture_state(cluster, &resolved) {
        Ok(checkpoint) => checkpoint,
        Err(e) => return Err(abort_paused(cluster, &live, e)),
    };
    let reflected = captured.processing.timestamps().clone();
    let emit_clock = captured.emit_clock;
    timing.checkpoint_us = timer.lap();

    // Phase 4: choose the split and rewrite the execution graph.
    let decision = match choose_split(plan, &resolved, &captured) {
        Ok(decision) => decision,
        Err(e) => return Err(abort_paused(cluster, &live, e)),
    };
    timing.split = decision.kind;
    timing.post_split_imbalance = decision.post_split_imbalance;
    let new_instances =
        match cluster
            .graph_mut()
            .repartition(resolved.logical, &resolved.olds, &decision.ranges)
        {
            Ok(instances) => instances,
            Err(e) => return Err(abort_paused(cluster, &live, e)),
        };
    timing.rewrite_us = timer.lap();

    // Phase 5: transform the captured checkpoint (Algorithm 2; a merge is
    // the single-range case and keeps the whole state).
    let assignments: Vec<(OperatorId, KeyRange)> =
        new_instances.iter().map(|i| (i.id, i.key_range)).collect();
    let mut parts = partition_checkpoint(&captured, &assignments)?;
    // The parts hold all of it now; do not keep a second copy of the state
    // alive through the restore.
    drop(captured);
    // Carry the captured emit clock into the parts stored as initial
    // backups: if a new instance's VM fails before its first periodic
    // checkpoint, a serial recovery resets the shared logical clock from the
    // backup, and a zero clock would make downstream duplicate filters
    // discard genuinely new output.
    for part in &mut parts {
        part.emit_clock = emit_clock;
    }
    timing.transform_us = timer.lap();

    // Phase 6: create the new workers on their VM slots (resolved through
    // the placement layer) and restore state.
    let olds = &resolved.olds;
    match plan.kind {
        ReconfigKind::ScaleOut { .. } => {
            for instance in &new_instances {
                cluster.deploy(instance, None, olds)?;
            }
        }
        ReconfigKind::ScaleIn { .. } => {
            // The merged operator takes over the survivor's slot.
            let vm = cluster.placement().vm_of_required(olds[0])?;
            cluster.deploy(&new_instances[0], Some(vm), olds)?;
        }
        ReconfigKind::Rebalance { .. } => {
            // Every VM is reused: the i-th new range lands on the VM of the
            // i-th old range (both lists are in key order), so each VM keeps
            // serving its slice of the key space.
            for (old, instance) in olds.iter().zip(&new_instances) {
                let vm = cluster.placement().vm_of_required(*old)?;
                cluster.deploy(instance, Some(vm), olds)?;
            }
        }
        ReconfigKind::Consolidate { .. } => {
            // First-fit-decreasing bin packing: the heaviest partitions (by
            // checkpointed state size) claim slots first, over the VMs the
            // operator already occupies in key order, so the leading VMs
            // fill up and the trailing ones empty out.
            let placement = cluster.placement();
            let mut bins: Vec<(VmId, usize)> = Vec::new();
            for old in olds {
                let vm = placement.vm_of_required(*old)?;
                if !bins.iter().any(|(b, _)| *b == vm) {
                    bins.push((vm, placement.free_slots(vm, olds)));
                }
            }
            let items: Vec<(OperatorId, usize)> = new_instances
                .iter()
                .zip(parts.iter())
                .map(|(inst, cp)| (inst.id, cp.size_bytes().max(1)))
                .collect();
            let packed = first_fit_decreasing(&items, &bins).ok_or_else(|| {
                Error::Invariant("consolidation bin packing ran out of VM slots".into())
            })?;
            for instance in &new_instances {
                cluster.deploy(instance, Some(packed[&instance.id]), olds)?;
            }
        }
    }
    // Reset the shared logical clock only when exactly one partition
    // remains afterwards (a serial replacement or a merge to π=1), so no
    // sibling is concurrently emitting on the same clock (§3.2).
    let reset_clock = resolved.previous_parallelism + new_instances.len() == olds.len() + 1;
    for (instance, part) in new_instances.iter().zip(parts.iter()) {
        let restore = InstanceStep::Restore {
            checkpoint: part.clone(),
            reset_clock,
        };
        cluster.apply(instance.id, restore)?;
    }
    timing.restore_us = timer.lap();

    // Phase 7: commit. Under state management the parts become the new
    // instances' initial backups (Algorithm 2, line 8), best effort: on a
    // refused put the old backups stay in place (they are deleted only after
    // a successful put), the upstream buffers stay untrimmed and the new
    // instances, holding no backup, take a full capture at their next
    // periodic checkpoint. Under UB and SR a failed instance rebuilds from
    // empty state and a full replay, so no backup is written and no buffer
    // trimmed.
    let upstream_instances = cluster.graph().upstream_instances(new_instances[0].id)?;
    if cluster.context().strategy.checkpoints() && !upstream_instances.is_empty() {
        let backup = cluster.backup();
        if let Ok(puts) = backup.store_repartitioned(olds, &upstream_instances, &parts) {
            let store = cluster.context().store;
            for put in puts {
                cluster
                    .metrics()
                    .record_store_write(store, put.bytes_written, put.write_us, false);
            }
            // The stored backups reflect the capture: the upstream buffers
            // need nothing it covers. Best effort too: the next periodic
            // round trims again.
            let _ = trim_upstreams(cluster, &upstream_instances, olds, &reflected);
        }
    }
    // The backups *other* operators stored with a replaced instance move to
    // the new instance on the same VM, or else to the first new one, before
    // the replaced instance's store is retired with it.
    let placement = cluster.placement();
    for old in olds {
        let host = placement.vm_of(*old);
        let heir = new_instances
            .iter()
            .find(|i| host.is_some() && placement.vm_of(i.id) == host)
            .unwrap_or(&new_instances[0]);
        migrate_third_party_backups(cluster.backup(), olds, *old, heir.id);
    }
    // Retire the replaced instances and release every VM the placement
    // reports emptied. A scale out moves its target rather than shrinking
    // the deployment, so only the other shapes report what they released.
    let emptied = cluster.retire(olds);
    for vm in &emptied {
        cluster.release_vm(*vm);
    }
    let released_vms = match plan.kind {
        ReconfigKind::ScaleOut { .. } => Vec::new(),
        _ => emptied,
    };
    timing.commit_us = timer.lap();

    // Phase 8: replay. After a failure the new instances first re-send
    // their restored output buffers downstream. A live capture needs no such
    // replay: the instance flushed everything it emitted before it was read,
    // so a re-send would only queue duplicates behind the originals in the
    // downstream's bounded channel. Then the upstream operators re-route,
    // migrate pending tuples and replay everything unreflected.
    let replayed_own = if live.len() < olds.len() {
        replay_restored_buffers(cluster, resolved.logical, &new_instances)?
    } else {
        0
    };
    let replayed_upstream = update_upstreams(
        cluster,
        resolved.logical,
        olds,
        &new_instances,
        &upstream_instances,
        &reflected,
    )?;
    timing.replay_us = timer.lap();
    timing.total_us = timer.total_us();

    Ok(ReconfigOutcome {
        logical: resolved.logical,
        new_operators: new_instances.iter().map(|i| i.id).collect(),
        new_parallelism: cluster.graph().parallelism(resolved.logical),
        replayed_tuples: replayed_own + replayed_upstream,
        released_vms,
        timing,
    })
}

/// Validate the plan against the current graph and workers without
/// touching anything.
fn resolve_plan<C: ClusterBackend + ?Sized>(
    cluster: &C,
    plan: &ReconfigPlan,
) -> Result<ResolvedPlan> {
    let graph = cluster.graph();
    match plan.kind {
        ReconfigKind::ScaleOut { target, partitions } => {
            if partitions == 0 {
                return Err(Error::InvalidParallelism(0));
            }
            let inst = graph.instance(target)?.clone();
            Ok(ResolvedPlan {
                olds: vec![target],
                old_ranges: vec![(target, inst.key_range)],
                logical: inst.logical,
                source_range: inst.key_range,
                parts: partitions,
                previous_parallelism: graph.parallelism(inst.logical),
                fixed_ranges: None,
            })
        }
        ReconfigKind::ScaleIn { target, victim } => {
            if target == victim {
                return Err(Error::Invariant(
                    "reconfiguring a pair needs two distinct partitions".into(),
                ));
            }
            let inst_t = graph.instance(target)?.clone();
            let inst_v = graph.instance(victim)?.clone();
            if inst_t.logical != inst_v.logical {
                return Err(Error::Invariant(format!(
                    "cannot reconfigure partitions of different logical operators \
                     ({} is {}, {} is {})",
                    target, inst_t.logical, victim, inst_v.logical
                )));
            }
            for id in [target, victim] {
                live_partition(cluster, id)?;
            }
            // The pair must own a contiguous interval (the same adjacency
            // rule merge_checkpoints enforces), checked up front so no state
            // has been touched when the request is rejected.
            let (lo, hi) = if inst_t.key_range.lo <= inst_v.key_range.lo {
                (inst_t.key_range, inst_v.key_range)
            } else {
                (inst_v.key_range, inst_t.key_range)
            };
            if lo.hi == u64::MAX || lo.hi + 1 != hi.lo {
                return Err(Error::InvalidKeySplit(format!(
                    "cannot reconfigure non-adjacent partitions {target} ({}) and \
                     {victim} ({})",
                    inst_t.key_range, inst_v.key_range
                )));
            }
            Ok(ResolvedPlan {
                // The survivor (whose VM hosts the merged operator) first.
                olds: vec![target, victim],
                old_ranges: vec![(target, inst_t.key_range), (victim, inst_v.key_range)],
                logical: inst_t.logical,
                source_range: KeyRange::new(lo.lo, hi.hi),
                parts: 1,
                previous_parallelism: graph.parallelism(inst_t.logical),
                fixed_ranges: None,
            })
        }
        ReconfigKind::Rebalance { logical } | ReconfigKind::Consolidate { logical } => {
            // Whole-operator shapes: every partition of `logical` is
            // replaced. The partitions are taken in key order so VM reuse
            // (rebalance) and bin ordering (consolidate) follow the key
            // space, and their ranges must chain into one contiguous
            // interval — which deploy and repartition guarantee, but is
            // cheap to verify before any state is touched.
            let consolidate = matches!(plan.kind, ReconfigKind::Consolidate { .. });
            if consolidate && cluster.placement().slots_per_vm() < 2 {
                return Err(Error::Invariant(
                    "consolidation needs multi-slot VMs (pool.slots_per_vm >= 2)".into(),
                ));
            }
            let partitions = graph.partitions(logical).to_vec();
            if partitions.len() < 2 {
                return Err(Error::Invariant(format!(
                    "{} of {logical} needs at least two partitions",
                    if consolidate {
                        "consolidation"
                    } else {
                        "rebalancing"
                    },
                )));
            }
            let mut insts = Vec::with_capacity(partitions.len());
            for id in partitions {
                live_partition(cluster, id)?;
                insts.push(graph.instance(id)?.clone());
            }
            insts.sort_by_key(|i| i.key_range.lo);
            for pair in insts.windows(2) {
                let (a, b) = (&pair[0], &pair[1]);
                if a.key_range.hi == u64::MAX || a.key_range.hi + 1 != b.key_range.lo {
                    return Err(Error::InvalidKeySplit(format!(
                        "partitions of {logical} do not cover a contiguous interval \
                         ({} then {})",
                        a.key_range, b.key_range
                    )));
                }
            }
            let source_range =
                KeyRange::new(insts[0].key_range.lo, insts.last().unwrap().key_range.hi);
            Ok(ResolvedPlan {
                olds: insts.iter().map(|i| i.id).collect(),
                old_ranges: insts.iter().map(|i| (i.id, i.key_range)).collect(),
                logical,
                source_range,
                parts: insts.len(),
                previous_parallelism: insts.len(),
                fixed_ranges: consolidate.then(|| insts.iter().map(|i| i.key_range).collect()),
            })
        }
    }
}

/// A partition a merge-shaped plan may touch: known to the graph, its worker
/// alive, its placement known.
fn live_partition<C: ClusterBackend + ?Sized>(cluster: &C, id: OperatorId) -> Result<()> {
    if !cluster.is_live(id) {
        return Err(Error::Invariant(format!(
            "cannot reconfigure failed or unknown operator {id} (recover it instead)"
        )));
    }
    cluster.placement().vm_of_required(id)?;
    Ok(())
}

/// Obtain the checkpoint the plan repartitions, by one rule for every
/// replaced instance: a live one — drained and paused — is read in place; a
/// failed one restores from its backup, or from empty state when it has none
/// and replay has to rebuild it. The captures fold in key order into one
/// checkpoint, which also pools the per-partition traffic samples the
/// weighted-quantile re-split consults.
fn capture_state<C: ClusterBackend + ?Sized>(
    cluster: &mut C,
    resolved: &ResolvedPlan,
) -> Result<Checkpoint> {
    let mut olds = resolved.old_ranges.clone();
    olds.sort_by_key(|(_, range)| range.lo);
    let mut folded: Option<(Checkpoint, KeyRange)> = None;
    for (id, range) in olds {
        let checkpoint = if cluster.is_live(id) {
            cluster.apply(id, InstanceStep::Snapshot)?.into_snapshot()?
        } else {
            restore_backup(cluster, id)
        };
        folded = Some(match folded {
            None => (checkpoint, range),
            Some(acc) => merge_checkpoints(resolved.olds[0], acc, (checkpoint, range))?,
        });
    }
    let (checkpoint, _) = folded.expect("a plan replaces at least one instance");
    Ok(checkpoint)
}

/// The backed-up checkpoint of the failed instance `id`
/// (`retrieve-backup(backup(o), o)`), or empty state when no store can
/// supply one.
fn restore_backup<C: ClusterBackend + ?Sized>(cluster: &C, id: OperatorId) -> Checkpoint {
    let started = Instant::now();
    match cluster.backup().retrieve_measured(id) {
        Ok((checkpoint, read_bytes)) => {
            cluster.metrics().record_store_restore(
                cluster.context().store,
                read_bytes as usize,
                started.elapsed().as_micros() as u64,
            );
            checkpoint
        }
        Err(_) => Checkpoint::empty(id),
    }
}

/// Pick the new key ranges for the plan.
fn choose_split(
    plan: &ReconfigPlan,
    resolved: &ResolvedPlan,
    captured: &Checkpoint,
) -> Result<SplitDecision> {
    match plan.kind {
        // A merge produces a single range covering the pair.
        ReconfigKind::ScaleIn { .. } => Ok(SplitDecision {
            ranges: vec![resolved.source_range],
            kind: SplitKind::None,
            post_split_imbalance: 0.0,
        }),
        // A consolidation moves partitions between VMs without touching the
        // key space: the new instances keep the old ranges.
        ReconfigKind::Consolidate { .. } => Ok(SplitDecision {
            ranges: resolved
                .fixed_ranges
                .clone()
                .expect("consolidate resolves fixed ranges"),
            kind: SplitKind::None,
            post_split_imbalance: 0.0,
        }),
        ReconfigKind::ScaleOut { .. } | ReconfigKind::Rebalance { .. } => {
            plan.split
                .choose(&resolved.source_range, resolved.parts, captured)
        }
    }
}

fn set_paused<C: ClusterBackend + ?Sized>(
    cluster: &mut C,
    ops: &[OperatorId],
    on: bool,
) -> Result<()> {
    for id in ops {
        cluster.apply(*id, InstanceStep::Pause { on })?;
    }
    Ok(())
}

/// Unpause the paused instances and hand the error back — the
/// capture/rewrite failure path that leaves the cluster exactly as it was.
fn abort_paused<C: ClusterBackend + ?Sized>(
    cluster: &mut C,
    paused: &[OperatorId],
    e: Error,
) -> Error {
    let _ = set_paused(cluster, paused, false);
    e
}

/// Move the backups *other* operators stored with `old` over to `new`'s
/// store, and `backup_of` with them.
fn migrate_third_party_backups(
    backup: &BackupCoordinator,
    replaced: &[OperatorId],
    old: OperatorId,
    new: OperatorId,
) {
    if let (Ok(old_store), Ok(new_store)) = (backup.store_of(old), backup.store_of(new)) {
        for owner in old_store.owners() {
            if replaced.contains(&owner) {
                continue; // superseded by the repartitioned checkpoints
            }
            if let Ok(checkpoint) = old_store.latest(owner) {
                if new_store.put(owner, checkpoint).is_ok() && backup.backup_of(owner) == Some(old)
                {
                    backup.set_backup_of(owner, new);
                }
            }
        }
    }
}

/// New partitions replay their restored output buffers downstream
/// (Algorithm 3, line 7); downstream duplicate filters discard what they
/// already processed. Routing towards downstream partitions is refreshed
/// first. Returns the number of tuples re-sent.
fn replay_restored_buffers<C: ClusterBackend + ?Sized>(
    cluster: &mut C,
    logical: LogicalOpId,
    new_instances: &[OperatorInstance],
) -> Result<usize> {
    let graph = cluster.graph();
    let routings: Vec<(LogicalOpId, RoutingState)> = graph
        .query()
        .downstream(logical)
        .iter()
        .filter_map(|ld| graph.routing(*ld).ok().map(|r| (*ld, r.clone())))
        .collect();
    let mut planned: Vec<(OperatorId, OperatorId)> = Vec::new();
    for instance in new_instances {
        if !cluster.hosts(instance.id) {
            continue;
        }
        for (downstream, routing) in &routings {
            let set = InstanceStep::SetRouting {
                downstream: *downstream,
                routing: routing.clone(),
            };
            cluster.apply(instance.id, set)?;
        }
        let targets = cluster.apply(instance.id, InstanceStep::Targets)?;
        planned.extend(
            targets
                .into_targets()?
                .into_iter()
                .map(|d| (instance.id, d)),
        );
    }
    let mut replayed = 0;
    for (from, to) in planned {
        // Replay-buffer-state (Algorithm 1, line 10): only tuples the
        // downstream has not reflected are re-sent. Its duplicate filter
        // would discard the rest anyway, but pushing a restored buffer's
        // full history into a paused receiver's bounded channel can exceed
        // its capacity and wedge the single-threaded executor.
        let reflected = if cluster.hosts(to) {
            cluster
                .apply(to, InstanceStep::Reflected)?
                .into_reflected()?
        } else {
            TimestampVec::default()
        };
        if cluster.hosts(from) {
            let replay = InstanceStep::ReplayTo {
                target: to,
                reflected,
            };
            replayed += cluster.apply(from, replay)?.into_replayed()?;
        }
    }
    Ok(replayed)
}

/// Update the upstream operators: stop, install the new routing, migrate
/// tuples buffered for the replaced instances to the partition now owning
/// their key, replay everything `reflected` does not cover, restart
/// (Algorithm 3, lines 9–14). Returns the number of tuples replayed.
fn update_upstreams<C: ClusterBackend + ?Sized>(
    cluster: &mut C,
    logical: LogicalOpId,
    olds: &[OperatorId],
    new_instances: &[OperatorInstance],
    upstream_instances: &[OperatorId],
    reflected: &TimestampVec,
) -> Result<usize> {
    let new_routing = cluster.graph().routing(logical)?.clone();
    let mut streams: BTreeMap<LogicalOpId, Vec<OperatorId>> = BTreeMap::new();
    let mut paused = Vec::new();
    for up in upstream_instances {
        if !cluster.hosts(*up) {
            continue;
        }
        cluster.apply(*up, InstanceStep::Pause { on: true })?;
        let set = InstanceStep::SetRouting {
            downstream: logical,
            routing: new_routing.clone(),
        };
        cluster.apply(*up, set)?;
        let reroute = InstanceStep::Reroute {
            downstream: logical,
            olds: olds.to_vec(),
        };
        cluster.apply(*up, reroute)?;
        let up_logical = cluster.graph().instance(*up)?.logical;
        streams.entry(up_logical).or_default().push(*up);
        paused.push(*up);
    }
    // Sibling partitions of one upstream operator share an output stream
    // and its clock, and the receiver's duplicate filter is a per-stream
    // high watermark: what the siblings replay must arrive merged in
    // timestamp order, or the later sibling's older tuples are dropped as
    // duplicates. Each run of the merge is re-sent by the sibling that
    // buffered it; the merge needs only the timestamps.
    let mut replayed = 0;
    for instance in new_instances {
        for siblings in streams.values() {
            let mut stamps: Vec<(OperatorId, Timestamp)> = Vec::new();
            for up in siblings {
                let unreflected = InstanceStep::Unreflected {
                    target: instance.id,
                    reflected: reflected.clone(),
                };
                let ts = cluster.apply(*up, unreflected)?.into_timestamps()?;
                stamps.extend(ts.into_iter().map(|ts| (*up, ts)));
            }
            stamps.sort_by_key(|(_, ts)| *ts);
            replayed += stamps.len();
            for run in stamps.chunk_by(|(a, _), (b, _)| a == b) {
                let resend = InstanceStep::Resend {
                    target: instance.id,
                    first: run[0].1,
                    last: run[run.len() - 1].1,
                };
                cluster.apply(run[0].0, resend)?;
            }
        }
    }
    set_paused(cluster, &paused, false)?;
    Ok(replayed)
}
