//! The one way to run a plan and the one way to remember it.
//!
//! [`reconfigure`] is the only caller of the executor, whichever
//! [`ClusterBackend`] it runs over. Around the plan it snapshots the slots
//! the plan vacates, journals the commit or the rejection with the current
//! [`PlanTrigger`](crate::obs::PlanTrigger), tells the backend the plan committed (the in-process
//! runtime stamps the logical operator busy for the health derivation and
//! re-arms the control loop's one-shot rebalance), records one
//! [`ReconfigRecord`] in the metrics registry and publishes the ops
//! snapshot. Everything public on [`Runtime`] here is a plan builder of a
//! few lines over it; [`Runtime::recover`] adds the strategy-specific source
//! replay and the catch-up drain it owns. `seep-node`'s coordinator runs its
//! recoveries, and any other plan, through the same function.

use std::time::Instant;

use seep_core::{Error, LogicalOpId, OperatorId, OperatorKind, Result, TimestampVec};

use crate::metrics::{ReconfigRecord, ReconfigTiming};
use crate::obs::{JournalEvent, JournalKind, SlotBinding};
use crate::reconfig::cluster::{ClusterBackend, PlanContext};
use crate::reconfig::executor::execute_plan;
use crate::reconfig::{ReconfigKind, ReconfigOutcome, ReconfigPlan};
use crate::recovery::RecoveryStrategy;
use crate::runtime::Runtime;

/// Run `plan` over `cluster` and remember it as a plan of `kind` (recovery
/// shares the scale-out shape, so the shape alone does not name it). A
/// rejected plan is journalled as `rejected: <error>` and leaves the cluster
/// exactly as it was (fail-before-rewrite); only a plan addressing an
/// instance the graph has never heard of fails before there is an operator
/// to journal it under.
pub fn reconfigure<C: ClusterBackend + ?Sized>(
    cluster: &mut C,
    plan: &ReconfigPlan,
    kind: JournalKind,
) -> Result<ReconfigOutcome> {
    let graph = cluster.graph();
    let (logical, replaced) = match plan.kind {
        ReconfigKind::ScaleOut { target, .. } => (graph.instance(target)?.logical, vec![target]),
        ReconfigKind::ScaleIn { target, victim } => {
            (graph.instance(target)?.logical, vec![target, victim])
        }
        ReconfigKind::Rebalance { logical } | ReconfigKind::Consolidate { logical } => {
            (logical, graph.partitions(logical).to_vec())
        }
    };
    let vacated = slot_bindings(cluster, &replaced);
    let outcome = match execute_plan(cluster, plan) {
        Ok(outcome) => outcome,
        Err(e) => {
            journal_rejected(cluster, kind, logical, vacated, &e);
            return Err(e);
        }
    };
    cluster.committed(logical, kind);
    let placed = slot_bindings(cluster, &outcome.new_operators);
    let (event, record) = remember(
        kind,
        cluster.context(),
        logical_name(cluster, logical),
        vacated,
        placed,
        &outcome,
    );
    cluster.journal().append(event);
    cluster.metrics().record_reconfig(record);
    cluster.publish();
    Ok(outcome)
}

/// The journal event (`seq` is assigned on append) and the metrics record of
/// a committed plan. The VMs the plan acquired are those hosting a new
/// instance but none of the replaced ones; a recovery's record names the
/// failed instance it replaced.
fn remember(
    kind: JournalKind,
    ctx: PlanContext,
    operator: String,
    vacated: Vec<SlotBinding>,
    placed: Vec<SlotBinding>,
    outcome: &ReconfigOutcome,
) -> (JournalEvent, ReconfigRecord) {
    let mut acquired_vms: Vec<u64> = placed
        .iter()
        .filter_map(|s| s.vm)
        .filter(|vm| !vacated.iter().any(|s| s.vm == Some(*vm)))
        .collect();
    acquired_vms.sort_unstable();
    acquired_vms.dedup();
    let record = ReconfigRecord {
        kind,
        logical: outcome.logical,
        parallelism: outcome.new_parallelism,
        at_ms: ctx.now_ms,
        duration_us: outcome.timing.total_us,
        replayed_tuples: outcome.replayed_tuples,
        vms_released: outcome.released_vms.len(),
        timing: outcome.timing,
        failed: vacated
            .first()
            .filter(|_| kind == JournalKind::Recovery)
            .map(|s| OperatorId::new(s.operator)),
        strategy: ctx.strategy.label(),
    };
    let event = JournalEvent {
        seq: 0,
        at_ms: ctx.now_ms,
        kind,
        trigger: ctx.trigger,
        logical: outcome.logical.0,
        operator,
        new_parallelism: outcome.new_parallelism,
        replayed_tuples: outcome.replayed_tuples,
        timing: outcome.timing,
        vacated,
        placed,
        released_vms: outcome.released_vms.iter().map(|vm| vm.0).collect(),
        acquired_vms,
        outcome: "ok".into(),
    };
    (event, record)
}

/// The current slot bindings of `ops` (VM `None` for unplaced instances,
/// e.g. a failed operator whose slot was already released).
fn slot_bindings<C: ClusterBackend + ?Sized>(cluster: &C, ops: &[OperatorId]) -> Vec<SlotBinding> {
    ops.iter()
        .map(|op| SlotBinding {
            operator: op.raw(),
            vm: cluster.placement().vm_of(*op).map(|vm| vm.0),
        })
        .collect()
}

/// Name of a logical operator, for journal events.
fn logical_name<C: ClusterBackend + ?Sized>(cluster: &C, logical: LogicalOpId) -> String {
    cluster
        .graph()
        .query()
        .operator(logical)
        .map(|o| o.name.clone())
        .unwrap_or_else(|_| format!("{logical}"))
}

/// Journal a plan the executor rejected (fail-before-rewrite: the cluster is
/// exactly as it was, so the event carries no delta).
fn journal_rejected<C: ClusterBackend + ?Sized>(
    cluster: &C,
    kind: JournalKind,
    logical: LogicalOpId,
    vacated: Vec<SlotBinding>,
    err: &Error,
) {
    let ctx = cluster.context();
    cluster.journal().append(JournalEvent {
        seq: 0,
        at_ms: ctx.now_ms,
        kind,
        trigger: ctx.trigger,
        logical: logical.0,
        operator: logical_name(cluster, logical),
        new_parallelism: 0,
        replayed_tuples: 0,
        timing: ReconfigTiming::default(),
        vacated,
        placed: Vec::new(),
        released_vms: Vec::new(),
        acquired_vms: Vec::new(),
        outcome: format!("rejected: {err}"),
    });
    cluster.publish();
}

impl Runtime {
    /// Scale `target` out into `pi` new partitions on fresh VMs — Algorithm
    /// 3. The key split follows the configured
    /// [`crate::reconfig::SplitPolicy`]: even by default, or
    /// distribution-guided from a sampled checkpoint when skew-aware. The
    /// target hands over its live state at plan time, so nothing it already
    /// processed is replayed into the new partitions.
    pub fn scale_out(&mut self, target: OperatorId, pi: usize) -> Result<ReconfigOutcome> {
        let plan = ReconfigPlan::scale_out(target, pi, self.config.split);
        reconfigure(self, &plan, JournalKind::ScaleOut)
    }

    /// Scale in: merge two adjacent partitions of one logical operator
    /// (§3.3, the merge primitive). `target` survives — the merged operator
    /// (`new_operators[0]`) is restored on its VM — while `victim`'s slot is
    /// vacated; the victim's VM is released back to the provider (billing
    /// stops, `released_vms`) when the merge empties it, and stays when the
    /// victim shared it with other partitions.
    ///
    /// The plan is scale out run backwards: the executor drains and pauses
    /// the pair, reads their live state in place and merges it in key order,
    /// rewrites the execution graph and upstream routing so the merged key
    /// range maps to one operator, restores the merged state, stores it as
    /// the merged operator's initial backup under R+SM (best effort), and
    /// replays both partitions' unreflected tuples — downstream duplicate
    /// filters discard anything delivered twice. A failure before the graph
    /// rewrite unpauses the partitions and rejects the request with the
    /// runtime exactly as it was.
    pub fn scale_in(&mut self, target: OperatorId, victim: OperatorId) -> Result<ReconfigOutcome> {
        let plan = ReconfigPlan::scale_in(target, victim);
        reconfigure(self, &plan, JournalKind::ScaleIn)
    }

    /// Rebalance **all π partitions** of a logical operator in one plan:
    /// every partition's live state is read in place, the pooled key sample
    /// of the merged capture (weighted by observed per-key traffic when available, by
    /// state footprint otherwise) chooses π new weighted-quantile boundaries,
    /// and each new partition is restored **onto the VM that owned that
    /// slice of the key space** — a pure repartition that neither grows nor
    /// shrinks the deployment. Triggered by the control loop when one
    /// partition is hot while the operator's aggregate CPU is fine
    /// ([`crate::ScalingPolicy::rebalance`]), or invoked directly by
    /// experiments. The predicted post-split imbalance is reported in the
    /// outcome's [`ReconfigTiming`].
    pub fn rebalance_operator(&mut self, logical: LogicalOpId) -> Result<ReconfigOutcome> {
        reconfigure(
            self,
            &ReconfigPlan::rebalance(logical),
            JournalKind::Rebalance,
        )
    }

    /// Consolidate the partitions of a logical operator onto fewer VMs: the
    /// key ranges stay as they are, but each partition is checkpoint-moved
    /// onto a VM slot chosen by first-fit-decreasing bin packing (heaviest
    /// state first) over the operator's current VMs, and every VM left empty
    /// is released to the provider — scale-in that keeps parallelism and
    /// does not require adjacent siblings. Needs a multi-slot placement
    /// ([`seep_cloud::VmPoolConfig::slots_per_vm`] ≥ 2).
    pub fn consolidate(&mut self, logical: LogicalOpId) -> Result<ReconfigOutcome> {
        let vms_before = self.vm_count();
        let outcome = reconfigure(
            self,
            &ReconfigPlan::consolidate(logical),
            JournalKind::Consolidate,
        )?;
        debug_assert_eq!(
            self.vm_count() + outcome.released_vms.len(),
            vms_before,
            "every released VM must have stopped running"
        );
        Ok(outcome)
    }

    /// Recover a failed operator by scaling it out to `pi` partitions
    /// (`pi = 1` is serial recovery, `pi >= 2` is parallel recovery, §4.2).
    /// Recovery *is* a scale out of the failed operator — the same plan, the
    /// same executor (the paper's integrated mechanism) — remembered under
    /// its own kind so a replay distinguishes growth from repair.
    ///
    /// Returns the plan's record, stretched to the full recovery: its
    /// duration runs from here to the end of the catch-up (restoring state on
    /// new VMs, replaying buffered tuples and re-processing them until the
    /// system is caught up) and its replay count includes a source replay.
    pub fn recover(&mut self, failed: OperatorId, pi: usize) -> Result<ReconfigRecord> {
        let started = Instant::now();
        let plan = ReconfigPlan::recover(failed, pi, self.config.split);
        let outcome = reconfigure(self, &plan, JournalKind::Recovery)?;
        let mut replayed = outcome.replayed_tuples;
        if self.config.strategy == RecoveryStrategy::SourceReplay {
            replayed += self.source_replay(outcome.logical);
        }
        // Catch up: process everything that was replayed.
        self.drain();
        let record = self.metrics.amend_last_reconfig(|record| {
            record.duration_us = started.elapsed().as_micros() as u64;
            record.replayed_tuples = replayed;
        });
        Ok(record.expect("reconfigure recorded the recovery plan"))
    }

    /// Source-replay recovery (§6.2 baseline): reset the duplicate filters of
    /// the operators between the sources and the recovered operator, then
    /// replay every tuple buffered at the sources through the pipeline.
    fn source_replay(&mut self, recovered: LogicalOpId) -> usize {
        let graph = self.graph();
        let query = graph.query();
        // Logical ancestors of the recovered operator (excluding sources).
        let mut ancestors = Vec::new();
        let mut frontier = query.upstream(recovered);
        while let Some(l) = frontier.pop() {
            if query.operator(l).map(|o| o.kind) == Ok(OperatorKind::Source) {
                continue;
            }
            if !ancestors.contains(&l) {
                ancestors.push(l);
                frontier.extend(query.upstream(l));
            }
        }
        let ancestor_instances: Vec<OperatorId> = ancestors
            .iter()
            .flat_map(|l| graph.partitions(*l).to_vec())
            .collect();
        let source_instances: Vec<OperatorId> = query
            .sources()
            .into_iter()
            .flat_map(|s| graph.partitions(s).to_vec())
            .collect();

        for id in ancestor_instances {
            if let Some(worker) = self.workers.get_mut(&id) {
                worker.reset_dedup();
            }
        }
        let network = self.network.clone();
        let metrics = self.metrics.clone();
        let mut replayed = 0;
        for id in source_instances {
            if let Some(worker) = self.workers.get(&id) {
                for d in worker.buffer().downstreams() {
                    replayed += worker.replay_to(d, &TimestampVec::new(), &network, &metrics);
                }
            }
        }
        replayed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RuntimeConfig;
    use crate::obs::{render_prometheus, validate_exposition, PlanTrigger};
    use crate::runtime::tests::{
        counter_instance, health_of, inject_sentence, word_count_harness, Harness,
    };
    use seep_core::HealthState;

    const KINDS: [JournalKind; 5] = [
        JournalKind::ScaleOut,
        JournalKind::ScaleIn,
        JournalKind::Rebalance,
        JournalKind::Consolidate,
        JournalKind::Recovery,
    ];

    /// A word count with two slots a VM (so a consolidation has somewhere to
    /// pack), some state, and one checkpoint round behind it.
    fn warmed_up() -> Harness {
        let config = RuntimeConfig {
            pool: seep_cloud::VmPoolConfig::default().with_slots_per_vm(2),
            ..RuntimeConfig::default()
        };
        let mut h = word_count_harness(config);
        for sentence in ["alpha beta gamma", "beta gamma", "delta alpha epsilon"] {
            inject_sentence(&mut h, sentence);
        }
        h.runtime.drain();
        h.runtime.advance_to(5_000);
        h
    }

    /// Per-kind counts of the metrics snapshot, in `KINDS` order.
    fn snapshot_counts(h: &Harness) -> [usize; 5] {
        let m = h.runtime.metrics().snapshot();
        [
            m.scale_outs,
            m.scale_ins,
            m.rebalances,
            m.consolidates,
            m.recoveries,
        ]
    }

    /// The invariant the one entry point buys: whatever ran, the metrics'
    /// per-kind counts are the journal's committed events per kind.
    fn assert_counts_match_journal(h: &Harness) {
        let events = h.runtime.journal().events();
        let journalled = KINDS.map(|kind| {
            events
                .iter()
                .filter(|e| e.kind == kind && e.committed())
                .count()
        });
        assert_eq!(snapshot_counts(h), journalled);
    }

    #[test]
    fn a_recovery_is_recorded_once_as_a_recovery() {
        let mut h = warmed_up();
        let target = counter_instance(&h);
        h.runtime.scale_out(target, 2).unwrap();
        h.runtime.drain();
        let failed = h.runtime.partitions(h.count)[1];
        h.runtime.fail_operator(failed);
        let record = h.runtime.recover(failed, 1).unwrap();
        assert_eq!(record.kind, JournalKind::Recovery);
        assert_eq!(record.failed, Some(failed));

        let metrics = h.runtime.metrics();
        assert_eq!(metrics.scale_outs().len(), 1);
        assert_eq!(metrics.recoveries().len(), 1);
        assert_eq!(metrics.reconfigs().len(), 2);
        assert_eq!(metrics.recoveries()[0], record);
        let snapshot = metrics.snapshot();
        assert_eq!((snapshot.scale_outs, snapshot.recoveries), (1, 1));

        let text = render_prometheus(&h.runtime.obs_snapshot());
        let exposition = validate_exposition(&text).expect("exposition well-formed");
        assert_eq!(exposition.scalar("seep_scale_outs_total"), Ok(1.0));
        assert_eq!(exposition.scalar("seep_recoveries_total"), Ok(1.0));
        let plans = exposition.of("seep_reconfig_plans_total");
        let plans_of = |kind: &str| {
            plans
                .iter()
                .find(|s| s.label("kind") == Some(kind))
                .map(|s| s.value)
        };
        assert_eq!(plans_of("scale_out"), Some(1.0));
        assert_eq!(plans_of("recovery"), Some(1.0));
        let recovery_phases = exposition
            .of("seep_reconfig_phase_seconds_total")
            .into_iter()
            .filter(|s| s.label("kind") == Some("recovery"))
            .count();
        assert_eq!(recovery_phases, 8, "a recovery has its own phase series");
    }

    #[test]
    fn every_rejection_is_journalled_once_and_touches_nothing() {
        for kind in KINDS {
            // One slot a VM, one partition per operator: nothing to merge,
            // rebalance or pack, and zero partitions is never a valid split.
            let mut h = word_count_harness(RuntimeConfig::default());
            inject_sentence(&mut h, "words to keep");
            h.runtime.drain();
            h.runtime.advance_to(5_000);
            let counter = counter_instance(&h);
            let splitter = h.runtime.partitions(h.split)[0];

            let instances = h.runtime.execution_graph().total_instances();
            let partitions = h.runtime.partitions(h.count);
            let vms = h.runtime.placement().occupied_vms();
            let store = h.runtime.store_stats();
            let checkpoints = h.runtime.metrics().checkpoints().len();

            let err = match kind {
                JournalKind::ScaleOut => h.runtime.scale_out(counter, 0).map(drop),
                JournalKind::ScaleIn => h.runtime.scale_in(counter, splitter).map(drop),
                JournalKind::Rebalance => h.runtime.rebalance_operator(h.count).map(drop),
                JournalKind::Consolidate => h.runtime.consolidate(h.count).map(drop),
                JournalKind::Recovery => h.runtime.recover(counter, 0).map(drop),
            }
            .expect_err(kind.label());

            let events = h.runtime.journal().events();
            assert_eq!(events.len(), 1, "{}: one event", kind.label());
            assert_eq!(events[0].kind, kind);
            assert_eq!(events[0].outcome, format!("rejected: {err}"));
            assert_eq!(events[0].operator, "word_counter");
            assert!(events[0].placed.is_empty() && events[0].released_vms.is_empty());

            assert_eq!(h.runtime.execution_graph().total_instances(), instances);
            assert_eq!(h.runtime.partitions(h.count), partitions);
            assert_eq!(h.runtime.placement().occupied_vms(), vms);
            assert_eq!(h.runtime.placement().vm_of(counter), vms.get(2).copied());
            assert_eq!(h.runtime.store_stats(), store, "{}", kind.label());
            assert_eq!(h.runtime.metrics().checkpoints().len(), checkpoints);
            assert!(h.runtime.metrics().reconfigs().is_empty());
            assert_eq!(snapshot_counts(&h), [0; 5]);
            assert_eq!(health_of(&h, counter), HealthState::Ok);
        }
    }

    /// What one committed plan reported, whichever type it came back as.
    struct Seen {
        logical: LogicalOpId,
        new_operators: Vec<OperatorId>,
        parallelism: usize,
        replayed_tuples: usize,
        released_vms: Vec<u64>,
        timing: ReconfigTiming,
    }

    impl From<ReconfigOutcome> for Seen {
        fn from(o: ReconfigOutcome) -> Self {
            Seen {
                logical: o.logical,
                new_operators: o.new_operators,
                parallelism: o.new_parallelism,
                replayed_tuples: o.replayed_tuples,
                released_vms: o.released_vms.iter().map(|vm| vm.0).collect(),
                timing: o.timing,
            }
        }
    }

    #[test]
    fn every_kind_and_trigger_leaves_one_outcome_one_record_one_event() {
        // kind, partitions to scale out to beforehand, then what the plan
        // must report: instances replaced, parallelism afterwards (every
        // partition is new in each of these), VMs released.
        let table = [
            (JournalKind::ScaleOut, 1, 1, 2, 1),
            (JournalKind::ScaleIn, 2, 2, 1, 1),
            (JournalKind::Rebalance, 2, 2, 2, 0),
            (JournalKind::Consolidate, 4, 4, 4, 2),
            (JournalKind::Recovery, 1, 1, 1, 0),
        ];
        for (kind, prepared, replaced, parallelism, released) in table {
            for trigger in [PlanTrigger::Manual, PlanTrigger::AutoScale] {
                let case = format!("{} / {}", kind.label(), trigger.label());
                let mut h = warmed_up();
                if prepared > 1 {
                    let target = counter_instance(&h);
                    h.runtime.scale_out(target, prepared).unwrap();
                    h.runtime.drain();
                }
                h.runtime.advance_to(10_000);
                let parts = h.runtime.partitions(h.count);
                let records_before = h.runtime.metrics().reconfigs_of(kind).len();
                let events_before = h.runtime.journal().events().len();

                // What the control loop does around the plans it builds.
                h.runtime.plan_trigger = trigger;
                let seen: Seen = match kind {
                    JournalKind::ScaleOut => h.runtime.scale_out(parts[0], 2).unwrap().into(),
                    JournalKind::ScaleIn => h.runtime.scale_in(parts[0], parts[1]).unwrap().into(),
                    JournalKind::Rebalance => h.runtime.rebalance_operator(h.count).unwrap().into(),
                    JournalKind::Consolidate => h.runtime.consolidate(h.count).unwrap().into(),
                    JournalKind::Recovery => {
                        h.runtime.fail_operator(parts[0]);
                        let record = h.runtime.recover(parts[0], 1).unwrap();
                        assert_eq!(record.failed, Some(parts[0]), "{case}");
                        assert_eq!(record.strategy, "R+SM", "{case}");
                        assert!(record.duration_us >= record.timing.total_us, "{case}");
                        Seen {
                            logical: record.logical,
                            new_operators: h.runtime.partitions(h.count),
                            parallelism: record.parallelism,
                            replayed_tuples: record.replayed_tuples,
                            released_vms: Vec::new(),
                            timing: record.timing,
                        }
                    }
                };
                h.runtime.plan_trigger = PlanTrigger::Manual;

                // The outcome.
                assert_eq!(seen.logical, h.count, "{case}");
                assert_eq!(seen.parallelism, parallelism, "{case}");
                assert_eq!(seen.new_operators, h.runtime.partitions(h.count), "{case}");
                assert_eq!(seen.released_vms.len(), released, "{case}");
                assert!(seen.timing.total_us > 0, "{case}");

                // Exactly one record of that kind.
                let records = h.runtime.metrics().reconfigs_of(kind);
                assert_eq!(records.len(), records_before + 1, "{case}");
                let record = records.last().unwrap();
                assert_eq!(record.logical, h.count, "{case}");
                assert_eq!(record.parallelism, parallelism, "{case}");
                assert_eq!(record.at_ms, 10_000, "{case}");
                assert_eq!(record.vms_released, released, "{case}");
                assert_eq!(record.timing, seen.timing, "{case}");
                assert_eq!(
                    record.failed.is_some(),
                    kind == JournalKind::Recovery,
                    "{case}"
                );

                // Exactly one journal event, saying what the outcome says.
                let events = h.runtime.journal().events();
                assert_eq!(events.len(), events_before + 1, "{case}");
                let event = events.last().unwrap();
                assert!(event.committed(), "{case}: {}", event.outcome);
                assert_eq!(event.kind, kind, "{case}");
                assert_eq!(event.trigger, trigger, "{case}");
                assert_eq!(event.released_vms, seen.released_vms, "{case}");
                assert_eq!(event.replayed_tuples, seen.replayed_tuples, "{case}");
                assert_eq!(event.new_parallelism, parallelism, "{case}");
                assert_eq!(event.timing, seen.timing, "{case}");
                assert_eq!(event.vacated.len(), replaced, "{case}");
                assert_eq!(event.placed.len(), parallelism, "{case}");

                // Busy at the plan's instant, healthy once time moves on.
                let busy = if kind == JournalKind::Recovery {
                    HealthState::Recovering
                } else {
                    HealthState::Reconfiguring
                };
                for id in &seen.new_operators {
                    assert_eq!(health_of(&h, *id), busy, "{case}");
                }
                h.runtime.drain();
                h.runtime.advance_to(11_000);
                for id in &seen.new_operators {
                    assert_eq!(health_of(&h, *id), HealthState::Ok, "{case}");
                }
                assert_counts_match_journal(&h);
            }
        }
    }

    #[test]
    fn snapshot_counts_equal_committed_journal_events_after_any_sequence() {
        let mut h = warmed_up();
        assert_counts_match_journal(&h);
        let target = counter_instance(&h);
        h.runtime.scale_out(target, 4).unwrap();
        h.runtime.drain();
        // Rejections in between are journalled but never counted — except
        // one addressing an instance the graph no longer knows, which has no
        // operator to be journalled under.
        assert!(h.runtime.scale_out(target, 2).is_err(), "already replaced");
        let splitter = h.runtime.partitions(h.split)[0];
        let first = h.runtime.partitions(h.count)[0];
        assert!(h.runtime.scale_in(first, splitter).is_err());
        assert_counts_match_journal(&h);

        h.runtime.advance_to(10_000);
        h.runtime.rebalance_operator(h.count).unwrap();
        h.runtime.drain();
        h.runtime.advance_to(15_000);
        h.runtime.consolidate(h.count).unwrap();
        h.runtime.drain();
        assert_counts_match_journal(&h);

        // A VM crash takes both co-resident partitions down.
        let parts = h.runtime.partitions(h.count);
        h.runtime.fail_operator(parts[0]);
        h.runtime.recover(parts[0], 1).unwrap();
        h.runtime.recover(parts[1], 2).unwrap();
        h.runtime.advance_to(20_000);
        let parts = h.runtime.partitions(h.count);
        assert!(h.runtime.recover(parts[0], 0).is_err());
        assert_counts_match_journal(&h);
        assert_eq!(snapshot_counts(&h), [1, 0, 1, 1, 2]);
        assert_eq!(
            h.runtime.journal().events().len(),
            7,
            "5 commits, 2 rejections"
        );
    }
}
