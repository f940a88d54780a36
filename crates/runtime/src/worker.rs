//! Operator workers: one per physical operator instance (one operator per VM,
//! §2.2).
//!
//! A worker owns the operator instance together with the runtime-managed
//! parts of its state: the output [`BufferState`], the [`RoutingState`]
//! towards each logical downstream operator, the duplicate filter over its
//! input streams, the reflected-timestamp vector used in checkpoints, and the
//! logical output clock (shared between all partitions of the same logical
//! operator so that timestamps within one logical stream are unique).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

use seep_core::{
    BatchAdmission, BatchOutput, BufferState, Checkpoint, CheckpointMeta, DuplicateFilter,
    IncrementalCheckpoint, Key, LogicalOpId, OperatorId, OutputTuple, ProcessingState, Result,
    RoutingState, StateDelta, StatefulOperator, StreamId, Timestamp, TimestampVec, TrafficLog,
    TrafficStats, Tuple, TupleBatch,
};
use seep_net::{DataReceiver, Envelope, Message, Network};

use crate::metrics::Metrics;
use crate::reconfig::{InstanceStep, StepReply};

/// Maximum envelopes a worker drains per [`WorkerCore::step`], bounding the
/// work done before other workers get a turn. One value for every stepper:
/// `Runtime::drain`, the reconfiguration executor and `seep-node`'s worker
/// loop.
pub const STEP_BUDGET: usize = 512;

/// A logical-operator output clock shared by all partitions of that operator.
///
/// Sharing the counter keeps timestamps unique and monotonic within one
/// logical stream even when the operator is partitioned, which is what the
/// downstream duplicate filters and the buffer-trim logic rely on.
#[derive(Debug, Clone, Default)]
pub struct SharedClock {
    last: Arc<AtomicU64>,
    /// Serialises [stamp + replay-buffer push + channel push] across sibling
    /// partitions, which may ship from different worker threads: downstream
    /// duplicate filters are per-stream high watermarks, so a logical
    /// stream's timestamps must reach each receiver in monotonic order.
    /// Every flush takes it; with one thread it is never contended.
    emit_gate: Arc<Mutex<()>>,
}

impl SharedClock {
    /// A fresh clock starting at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reserve a contiguous block of `n` timestamps with one atomic bump and
    /// return the first; the block is `first..first + n`. A shipped batch
    /// pays one clock update, not one per tuple, and the timestamps are
    /// exactly the sequence one-at-a-time reservation would assign.
    pub fn tick_many(&self, n: u64) -> Timestamp {
        self.last.fetch_add(n, Ordering::Relaxed) + 1
    }

    /// The most recently issued timestamp.
    pub fn last(&self) -> Timestamp {
        self.last.load(Ordering::Relaxed)
    }

    /// Reset the clock to `ts` — used when restoring an operator from a
    /// checkpoint so that re-emitted tuples are recognised as duplicates
    /// downstream (§3.2).
    pub fn reset_to(&self, ts: Timestamp) {
        self.last.store(ts, Ordering::Relaxed);
    }
}

/// What a checkpoint round captured from a worker
/// ([`WorkerCore::take_delta`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Capture {
    /// The whole state.
    Full(Checkpoint),
    /// What changed since the previous capture, which had the sequence the
    /// delta names as its base.
    Delta(IncrementalCheckpoint),
}

impl Capture {
    /// Approximate size in bytes of what was captured.
    pub fn size_bytes(&self) -> usize {
        match self {
            Capture::Full(checkpoint) => checkpoint.size_bytes(),
            Capture::Delta(inc) => inc.size_bytes(),
        }
    }
}

/// The state of one worker (one operator instance on one VM).
pub struct WorkerCore {
    /// Physical operator instance id.
    pub id: OperatorId,
    /// Logical operator this instance implements.
    pub logical: LogicalOpId,
    /// Whether the logical operator is a sink (no downstream operators).
    pub is_sink: bool,
    /// Whether this worker records end-to-end latency samples for the tuples
    /// it processes (always true for sinks; optionally true for stateful
    /// operators in the overhead experiments).
    pub latency_probe: bool,
    /// Whether the operator carries processing state worth checkpointing.
    pub stateful: bool,
    /// Whether this worker keeps output buffers for replay (disabled for
    /// intermediate operators under the source-replay baseline).
    pub keep_buffers: bool,
    /// Output batch size towards downstream operators: outputs accumulate in
    /// per-target pending batches that all ship once one of them reaches
    /// this size, and at every step/tick boundary (and before any
    /// reconfiguration pauses the worker). At 1 (the default) every output
    /// ships the moment it is produced, as a batch of one.
    pub out_batch: usize,
    /// Stamp a source emit time onto one in this many emitted tuples.
    /// 1 — the default — stamps every tuple; larger
    /// values thin the sampling **at the stamp site**: unsampled tuples
    /// never acquire a timestamp at all (emit time 0), so they skip both
    /// `Instant::now` reads — the one here and the one the probe would have
    /// paid — and every probe downstream records exactly the tuples that
    /// carry a stamp.
    pub latency_sample_every: u64,
    /// Position in the 1-in-N stamping sequence; advances once per emitted
    /// source or tick output. Persistent across steps and ticks: hit counts
    /// stay exact (⌈eligible/N⌉), not probabilistic.
    latency_seq: u64,
    operator: Box<dyn StatefulOperator>,
    receiver: DataReceiver,
    buffer: BufferState,
    routing: BTreeMap<LogicalOpId, RoutingState>,
    dedup: DuplicateFilter,
    clock: SharedClock,
    ts: TimestampVec,
    /// Decayed per-key tuple counters: the observed-traffic signal embedded
    /// in checkpoints so distribution-guided splits weight keys by the load
    /// they actually receive, not by their state footprint.
    traffic: TrafficLog,
    /// Partially filled output batches per downstream target. Tuples here
    /// are unstamped and not yet in the output buffer: both happen when they
    /// are flushed, under the emit gate. They never outlive the step or tick
    /// that produced them, except on a source between `emit_source` calls.
    pending: BTreeMap<OperatorId, TupleBatch>,
    /// Routed copies across all of `pending`.
    pending_copies: u64,
    paused: bool,
    failed: bool,
    processed: u64,
    busy: Duration,
    busy_at_last_report: Duration,
}

impl WorkerCore {
    /// Create a worker for a freshly deployed operator instance.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        id: OperatorId,
        logical: LogicalOpId,
        operator: Box<dyn StatefulOperator>,
        receiver: DataReceiver,
        routing: BTreeMap<LogicalOpId, RoutingState>,
        clock: SharedClock,
        is_sink: bool,
        keep_buffers: bool,
    ) -> Self {
        let stateful = operator.is_stateful();
        let mut buffer = BufferState::new();
        for r in routing.values() {
            for target in r.targets() {
                buffer.add_downstream(target);
            }
        }
        WorkerCore {
            id,
            logical,
            is_sink,
            latency_probe: is_sink,
            stateful,
            keep_buffers,
            out_batch: 1,
            latency_sample_every: 1,
            latency_seq: 0,
            operator,
            receiver,
            buffer,
            routing,
            dedup: DuplicateFilter::new(),
            clock,
            ts: TimestampVec::new(),
            traffic: TrafficLog::default(),
            pending: BTreeMap::new(),
            pending_copies: 0,
            paused: false,
            failed: false,
            processed: 0,
            busy: Duration::ZERO,
            busy_at_last_report: Duration::ZERO,
        }
    }

    /// The operator's human-readable name.
    pub fn name(&self) -> &str {
        self.operator.name()
    }

    /// Whether the worker has been paused by a coordinator (Algorithm 3
    /// stops upstream operators while repartitioning their state).
    pub fn is_paused(&self) -> bool {
        self.paused
    }

    /// Pause or resume processing.
    pub fn set_paused(&mut self, paused: bool) {
        self.paused = paused;
    }

    /// Whether the worker's VM has crashed.
    pub fn is_failed(&self) -> bool {
        self.failed
    }

    /// Crash-stop the worker: it stops processing and its in-memory state is
    /// considered lost — including any partially filled output batches. Only
    /// a source can hold any at this point (injected, not yet drained), and
    /// sources are assumed reliable.
    pub fn mark_failed(&mut self) {
        self.failed = true;
        self.pending.clear();
        self.pending_copies = 0;
    }

    /// Tuples processed so far.
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Number of tuples currently queued on the worker's inbound channel.
    pub fn queued(&self) -> usize {
        self.receiver.queued()
    }

    /// Number of output tuples sitting in partially filled batches, not yet
    /// sent downstream.
    pub fn pending_tuples(&self) -> usize {
        self.pending_copies as usize
    }

    /// Immutable access to the hosted operator (for assertions and result
    /// collection by experiments).
    pub fn operator(&self) -> &dyn StatefulOperator {
        self.operator.as_ref()
    }

    /// The worker's output buffer state.
    pub fn buffer(&self) -> &BufferState {
        &self.buffer
    }

    /// The routing state towards a logical downstream operator.
    pub fn routing(&self, downstream: LogicalOpId) -> Option<&RoutingState> {
        self.routing.get(&downstream)
    }

    /// Replace the routing state towards a logical downstream operator and
    /// make sure buffers exist towards the new targets.
    pub fn set_routing(&mut self, downstream: LogicalOpId, routing: RoutingState) {
        for target in routing.targets() {
            self.buffer.add_downstream(target);
        }
        self.routing.insert(downstream, routing);
    }

    /// The reflected-timestamp vector (most recent input tuples whose effect
    /// is in the operator state).
    pub fn reflected(&self) -> &TimestampVec {
        &self.ts
    }

    /// The shared logical output clock.
    pub fn clock(&self) -> &SharedClock {
        &self.clock
    }

    /// Forget the duplicate-filter watermarks so previously seen tuples are
    /// accepted again. Used by the source-replay baseline, which re-processes
    /// the source stream through the intermediate operators.
    pub fn reset_dedup(&mut self) {
        self.dedup = DuplicateFilter::new();
    }

    /// The worker's decayed per-key traffic counters.
    pub fn traffic(&self) -> TrafficStats {
        self.traffic.current()
    }

    /// Advance the 1-in-N stamping sequence and report whether this emitted
    /// tuple should carry a source emit time (and hence be latency-probed
    /// downstream).
    fn stamp_gate(&mut self) -> bool {
        let hit = self
            .latency_seq
            .is_multiple_of(self.latency_sample_every.max(1));
        self.latency_seq = self.latency_seq.wrapping_add(1);
        hit
    }

    /// CPU utilisation since the previous report: busy time divided by the
    /// report interval. Reporting is also the traffic counters' decay tick:
    /// one half-life per report interval, so a key must keep receiving
    /// tuples to stay hot in the checkpoint's split sample.
    pub fn utilization(&mut self, interval_ms: u64) -> f64 {
        self.traffic.decay();
        let delta = self.busy.saturating_sub(self.busy_at_last_report);
        self.busy_at_last_report = self.busy;
        if interval_ms == 0 {
            return 0.0;
        }
        (delta.as_secs_f64() * 1_000.0 / interval_ms as f64).min(1.0)
    }

    /// Drain and process up to `budget` inbound envelopes. Returns the number
    /// of data tuples processed.
    pub fn step(
        &mut self,
        network: &Network,
        metrics: &Metrics,
        epoch: Instant,
        budget: usize,
    ) -> usize {
        if self.failed || self.paused {
            return 0;
        }
        let mut processed = 0;
        for _ in 0..budget {
            let Ok(Some(envelope)) = self.receiver.recv_timeout(Duration::ZERO) else {
                break;
            };
            let Message { stream, batch } = envelope.message;
            processed += self.process_data_batch(stream, batch, network, metrics, epoch);
        }
        // Step boundaries are flush points: partial batches never outlive the
        // scheduling round that produced them, so `drain()` converges and
        // batch size only affects how tuples are grouped, never whether they
        // move.
        self.flush_pending(network, metrics);
        if processed > 0 {
            metrics.record_processed(self.id, processed as u64);
        }
        processed
    }

    /// Process one inbound tuple batch: one duplicate-filter probe, one
    /// reflected-timestamp advance and one `process_batch` call for the whole
    /// run, with latency samples still recorded per tuple.
    fn process_data_batch(
        &mut self,
        stream: StreamId,
        batch: TupleBatch,
        network: &Network,
        metrics: &Metrics,
        epoch: Instant,
    ) -> usize {
        let TupleBatch {
            tuples,
            emitted_at_us,
        } = batch;
        let (accepted, emit_us) = match self.dedup.accept_batch(stream, &tuples) {
            BatchAdmission::All => (tuples, emitted_at_us),
            BatchAdmission::None => return 0,
            BatchAdmission::Partial => {
                let mut kept = Vec::with_capacity(tuples.len());
                let mut kept_emit = Vec::with_capacity(tuples.len());
                for (tuple, emit) in tuples.into_iter().zip(emitted_at_us) {
                    if self.dedup.accept(stream, &tuple) {
                        kept.push(tuple);
                        kept_emit.push(emit);
                    }
                }
                (kept, kept_emit)
            }
        };
        let Some(last_ts) = accepted.last().map(|t| t.ts) else {
            return 0;
        };
        let started = Instant::now();
        let mut out = BatchOutput::new();
        self.operator.process_batch(stream, &accepted, &mut out);
        self.busy += started.elapsed();
        self.ts.advance(stream, last_ts);
        for tuple in &accepted {
            self.traffic.record(tuple.key);
        }
        let count = accepted.len();
        self.processed += count as u64;
        // Each output inherits the source emit time of the input tuple that
        // produced it.
        let outputs = out
            .into_items()
            .into_iter()
            .map(|(source, output)| (output, emit_us.get(source).copied().unwrap_or(0)));
        self.emit(outputs, network, metrics);
        if self.latency_probe {
            // The clock read is deferred until the batch proves to contain a
            // stamped tuple; a batch of unstamped tuples costs no `Instant`
            // read at all. All samples of one batch share one reading.
            let mut now_us = None;
            for &emit in &emit_us {
                if emit > 0 {
                    let now = *now_us.get_or_insert_with(|| epoch.elapsed().as_micros() as u64);
                    metrics.record_latency_us(now.saturating_sub(emit));
                }
            }
        }
        count
    }

    /// Inject a source tuple: the worker behaves as the data feeder, emitting
    /// a tuple towards its downstream operators (stamped by its logical clock
    /// when its batch is flushed).
    pub fn emit_source(
        &mut self,
        key: Key,
        payload: impl Into<bytes::Bytes>,
        network: &Network,
        metrics: &Metrics,
        epoch: Instant,
    ) {
        if self.failed {
            return;
        }
        // The stamp site of 1-in-N latency sampling: tuples the sampler will
        // discard skip the `epoch.elapsed()` acquisition entirely and travel
        // with emit time 0, which every probe downstream ignores. At N=1 the
        // gate always hits.
        let emitted_at_us = if self.stamp_gate() {
            epoch.elapsed().as_micros() as u64
        } else {
            0
        };
        let output = OutputTuple::new(key, payload);
        self.emit([(output, emitted_at_us)], network, metrics);
    }

    /// Trigger time-based operator behaviour (window closes). Emitted tuples
    /// carry the current wall time as their source emit time.
    pub fn tick(&mut self, now_ms: u64, network: &Network, metrics: &Metrics, epoch: Instant) {
        if self.failed || self.paused {
            return;
        }
        let started = Instant::now();
        let mut out = Vec::new();
        self.operator.on_tick(now_ms, &mut out);
        self.busy += started.elapsed();
        if !out.is_empty() {
            // Window emissions are stamp sites too: the clock is read once
            // per tick and the 1-in-N gate runs per output, so sampled tick
            // emissions stay exactly ⌈emitted/N⌉.
            let now_us = epoch.elapsed().as_micros() as u64;
            let outputs: Vec<(OutputTuple, u64)> = out
                .into_iter()
                .map(|output| (output, if self.stamp_gate() { now_us } else { 0 }))
                .collect();
            self.emit(outputs, network, metrics);
        }
        // Window emissions must not linger in partial batches until the next
        // data tuple happens to arrive.
        self.flush_pending(network, metrics);
    }

    /// Route each output to the pending batch of every downstream target its
    /// key maps to. Once any pending batch reaches `out_batch`, all of them
    /// ship (see [`flush_pending`](Self::flush_pending)).
    fn emit(
        &mut self,
        outputs: impl IntoIterator<Item = (OutputTuple, u64)>,
        network: &Network,
        metrics: &Metrics,
    ) {
        for (output, emitted_at_us) in outputs {
            let mut filled = false;
            for routing in self.routing.values() {
                let Some(target) = routing.route(output.key) else {
                    continue;
                };
                // Until the flush the timestamp field holds the copy's
                // position among the pending copies.
                let tuple = output.clone().with_ts(self.pending_copies);
                self.pending_copies += 1;
                let slot = self.pending.entry(target).or_default();
                slot.push(tuple, emitted_at_us);
                filled |= slot.len() >= self.out_batch;
            }
            if filled {
                self.flush_pending(network, metrics);
            }
        }
    }

    /// Stamp, buffer and send every pending output batch. Called when a
    /// batch fills, at step and tick boundaries and by the reconfiguration
    /// executor before any plan pauses or captures state, so batch boundaries
    /// are invisible to the drain/pause/capture/replay protocol. Returns the
    /// tuples flushed.
    ///
    /// All pending copies take one contiguous timestamp block **in the order
    /// they were routed**, whichever target they go to, so the n-th copy an
    /// operator routes after clock value `c` is always stamped `c + n`, however
    /// the copies are grouped into batches and flushes. Recovery depends on
    /// it: a restored operator re-emits in one replayed step what it first
    /// emitted over many, and downstream duplicate filters recognise the
    /// re-emissions by timestamp. (A fan-out output gets one timestamp per
    /// target; buffers, trim and dedup are all per (stream, target), so
    /// nothing depends on the copies sharing one.)
    ///
    /// Stamping, the replay-buffer push and the send happen under the emit
    /// gate, so sibling partitions flushing concurrently each deliver a whole
    /// block before the other's, and every receiver sees the shared logical
    /// stream's timestamps increase.
    pub fn flush_pending(&mut self, network: &Network, metrics: &Metrics) -> usize {
        let copies = std::mem::take(&mut self.pending_copies);
        if copies == 0 {
            return 0;
        }
        let _stamping = self.clock.emit_gate.lock();
        let first = self.clock.tick_many(copies);
        for (target, mut batch) in std::mem::take(&mut self.pending) {
            for tuple in &mut batch.tuples {
                tuple.ts += first;
            }
            if self.keep_buffers {
                for tuple in &batch.tuples {
                    self.buffer.push(target, tuple.clone());
                }
            }
            send_batch(network, metrics, self.id, self.logical, target, batch);
        }
        copies as usize
    }

    /// Re-send already stamped and buffered `tuples` to `target` in
    /// `out_batch`-sized batches. They keep their timestamps and carry no
    /// source emit time, so they add no latency samples; the receiver's
    /// duplicate filter drops whatever part of a batch it already saw.
    pub fn resend(
        &self,
        target: OperatorId,
        tuples: impl IntoIterator<Item = Tuple>,
        network: &Network,
        metrics: &Metrics,
    ) {
        let mut tuples = tuples.into_iter().peekable();
        while tuples.peek().is_some() {
            let tuples: Vec<Tuple> = tuples.by_ref().take(self.out_batch.max(1)).collect();
            let batch = TupleBatch {
                emitted_at_us: vec![0; tuples.len()],
                tuples,
            };
            send_batch(network, metrics, self.id, self.logical, target, batch);
        }
    }

    /// Replay to `target` every buffered tuple towards it newer than what
    /// `reflected` records for this worker's output stream
    /// (`replay-buffer-state`, Algorithm 1 line 10). Returns the number of
    /// tuples replayed.
    pub fn replay_to(
        &self,
        target: OperatorId,
        reflected: &TimestampVec,
        network: &Network,
        metrics: &Metrics,
    ) -> usize {
        let stream = StreamId(self.logical.0);
        let tuples =
            seep_core::primitives::replay_buffer_state(&self.buffer, target, stream, reflected);
        let count = tuples.len();
        self.resend(target, tuples, network, metrics);
        count
    }

    /// Take a checkpoint of the operator: processing state (with the
    /// reflected-timestamp vector attached), output buffers, the value of
    /// the logical output clock and the decayed traffic counters (so
    /// distribution-guided splits can weight keys by observed load).
    ///
    /// Pending output batches are not part of it: they are unstamped and not
    /// yet in the output buffer. That is sound because no checkpoint is ever
    /// taken while a worker holds any — every step and tick ends with
    /// [`flush_pending`](Self::flush_pending), every reconfiguration plan
    /// flushes all workers first, and the only worker that can hold pending
    /// tuples between steps is a source (after `emit_source`), which never
    /// takes periodic checkpoints.
    pub fn take_checkpoint(&self, sequence: u64) -> Checkpoint {
        self.checkpoint_of(self.operator.get_processing_state(), sequence)
    }

    fn checkpoint_of(&self, mut processing: ProcessingState, sequence: u64) -> Checkpoint {
        *processing.timestamps_mut() = self.ts.clone();
        Checkpoint::new(self.id, sequence, processing, self.buffer.clone())
            .with_emit_clock(self.clock.last())
            .with_traffic(self.traffic.current())
    }

    /// The periodic-round capture: what changed since the previous call,
    /// which the caller numbered `sequence - 1`, at a cost that follows the
    /// keys touched rather than the keys held. `base_held` says whether the
    /// backup still holds that previous capture; if it does not, or the
    /// worker cannot tell what changed (its first capture, a state just
    /// restored, an operator that keeps no dirty marks), the capture is the
    /// whole state. Either way the marks start afresh, so the caller must
    /// ship what it gets or take a full capture next time — which
    /// `base_held` turning false makes it do.
    ///
    /// Processing state and traffic counters travel as changes; buffer,
    /// timestamps and clock are carried whole, as in
    /// [`take_checkpoint`](Self::take_checkpoint), and pending output
    /// batches are left out for the same reason.
    pub fn take_delta(&mut self, sequence: u64, base_held: bool) -> Capture {
        let state = self.operator.take_state_delta();
        let traffic = self.traffic.take_ops();
        match (state, traffic) {
            (StateDelta::Changes { changed, removed }, Some(traffic)) if base_held => {
                Capture::Delta(IncrementalCheckpoint {
                    meta: CheckpointMeta {
                        operator: self.id,
                        sequence,
                    },
                    base_sequence: sequence - 1,
                    changed,
                    removed,
                    timestamps: self.ts.clone(),
                    buffer: self.buffer.clone(),
                    emit_clock: self.clock.last(),
                    traffic,
                })
            }
            (StateDelta::Full(processing), _) => {
                Capture::Full(self.checkpoint_of(processing, sequence))
            }
            _ => Capture::Full(self.take_checkpoint(sequence)),
        }
    }

    /// Carry out one step of a reconfiguration plan or a checkpoint round —
    /// the one way the executor acts on an instance, whether it runs in this
    /// process or ships the step over the control protocol (see
    /// [`crate::reconfig`]).
    pub fn apply(
        &mut self,
        step: InstanceStep,
        network: &Network,
        metrics: &Metrics,
        epoch: Instant,
    ) -> Result<StepReply> {
        let reply = match step {
            InstanceStep::Flush => {
                self.flush_pending(network, metrics);
                StepReply::Done
            }
            InstanceStep::Drain => {
                while self.step(network, metrics, epoch, STEP_BUDGET) > 0 {}
                StepReply::Done
            }
            InstanceStep::Pause { on } => {
                self.set_paused(on);
                StepReply::Done
            }
            InstanceStep::Capture {
                sequence,
                base_held,
            } => {
                if self.failed {
                    return Err(seep_core::Error::Invariant(format!(
                        "cannot checkpoint failed operator {}",
                        self.id
                    )));
                }
                StepReply::Captured(self.take_delta(sequence, base_held))
            }
            InstanceStep::TrimBuffer { downstream, ts } => {
                self.buffer.trim(downstream, ts);
                StepReply::Done
            }
            InstanceStep::Restore {
                checkpoint,
                reset_clock,
            } => {
                if reset_clock {
                    self.clock.reset_to(checkpoint.emit_clock);
                }
                self.restore(checkpoint);
                StepReply::Done
            }
            InstanceStep::SetRouting {
                downstream,
                routing,
            } => {
                self.set_routing(downstream, routing);
                StepReply::Done
            }
            InstanceStep::Targets => StepReply::Targets(self.buffer.downstreams()),
            InstanceStep::Reflected => StepReply::Reflected(self.ts.clone()),
            InstanceStep::ReplayTo { target, reflected } => {
                StepReply::Replayed(self.replay_to(target, &reflected, network, metrics))
            }
            InstanceStep::Reroute { downstream, olds } => {
                let routing = self.routing.get(&downstream).cloned().unwrap_or_default();
                for old in olds {
                    let pending = self.buffer.remove_downstream(old).unwrap_or_default();
                    for tuple in pending {
                        if let Some(new_target) = routing.route(tuple.key) {
                            self.buffer.push(new_target, tuple);
                        }
                    }
                }
                StepReply::Done
            }
            InstanceStep::Unreflected { target, reflected } => {
                let floor = reflected.get(StreamId(self.logical.0)).unwrap_or(0);
                let stamps = self.buffer.iter_for(target).map(|t| t.ts);
                StepReply::Timestamps(stamps.filter(|ts| *ts > floor).collect())
            }
            InstanceStep::Resend {
                target,
                first,
                last,
            } => {
                let mut run: Vec<Tuple> = self
                    .buffer
                    .iter_for(target)
                    .filter(|t| (first..=last).contains(&t.ts))
                    .cloned()
                    .collect();
                run.sort_by_key(|t| t.ts);
                self.resend(target, run, network, metrics);
                StepReply::Done
            }
        };
        Ok(reply)
    }

    /// Restore the worker from a (possibly partitioned) checkpoint: install
    /// the processing state, buffers, reflected timestamps and duplicate
    /// filter. The caller decides whether to reset the shared clock (only for
    /// a serial recovery, where no sibling partition is using it).
    pub fn restore(&mut self, checkpoint: Checkpoint) {
        self.ts = checkpoint.processing.timestamps().clone();
        self.dedup = DuplicateFilter::resume_from(self.ts.clone());
        self.operator.set_processing_state(checkpoint.processing);
        self.buffer = checkpoint.buffer;
        // Seed the traffic counters from the checkpoint (partitioned to this
        // worker's range), so a follow-up rebalance keeps its signal.
        self.traffic.restore(checkpoint.traffic);
        for routing in self.routing.values() {
            for target in routing.targets() {
                self.buffer.add_downstream(target);
            }
        }
    }
}

/// Ship a batch as one envelope. A failed send counts every tuple the
/// batch carried as dropped; they stay in the output buffer for replay.
fn send_batch(
    network: &Network,
    metrics: &Metrics,
    from: OperatorId,
    logical: LogicalOpId,
    target: OperatorId,
    batch: TupleBatch,
) {
    let tuples = batch.len() as u64;
    let envelope = Envelope::new(
        from,
        target,
        Message::data_batch(StreamId(logical.0), batch),
    );
    if network.send(envelope).is_err() {
        metrics.record_dropped_sends(tuples);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seep_core::{KeyRange, StatelessFn};

    fn network() -> Network {
        Network::new(1024)
    }

    fn passthrough() -> Box<dyn StatefulOperator> {
        Box::new(StatelessFn::new(
            "pass",
            |_, t: &Tuple, out: &mut Vec<OutputTuple>| {
                out.push(OutputTuple::new(t.key, t.payload.clone()));
            },
        ))
    }

    fn worker_with_downstream(
        net: &Network,
        id: u64,
        downstream: u64,
    ) -> (WorkerCore, DataReceiver) {
        let rx = net.register(OperatorId::new(id));
        let downstream_rx = net.register(OperatorId::new(downstream));
        let mut routing = BTreeMap::new();
        routing.insert(
            LogicalOpId(9),
            RoutingState::single(OperatorId::new(downstream)),
        );
        let core = WorkerCore::new(
            OperatorId::new(id),
            LogicalOpId(1),
            passthrough(),
            rx,
            routing,
            SharedClock::new(),
            false,
            true,
        );
        (core, downstream_rx)
    }

    #[test]
    fn shared_clock_is_monotonic_and_resettable() {
        let clock = SharedClock::new();
        let sibling = clock.clone();
        assert_eq!(clock.tick_many(1), 1);
        assert_eq!(sibling.tick_many(3), 2);
        assert_eq!(clock.last(), 4);
        clock.reset_to(0);
        assert_eq!(sibling.tick_many(1), 1);
    }

    #[test]
    fn step_processes_and_forwards_tuples() {
        let net = network();
        let metrics = Metrics::new();
        let (mut core, downstream_rx) = worker_with_downstream(&net, 1, 2);
        let epoch = Instant::now();

        net.send_tuple(
            OperatorId::new(0),
            OperatorId::new(1),
            StreamId(0),
            Tuple::new(1, Key(5), vec![7]),
        )
        .unwrap();
        let processed = core.step(&net, &metrics, epoch, 16);
        assert_eq!(processed, 1);
        assert_eq!(core.processed(), 1);
        assert_eq!(core.reflected().get(StreamId(0)), Some(1));
        // The forwarded tuple reached the downstream endpoint and is buffered.
        assert_eq!(downstream_rx.queued(), 1);
        assert_eq!(core.buffer().tuples_for(OperatorId::new(2)).len(), 1);
        assert_eq!(metrics.processed_by(OperatorId::new(1)), 1);
    }

    #[test]
    fn duplicates_are_filtered() {
        let net = network();
        let metrics = Metrics::new();
        let (mut core, downstream_rx) = worker_with_downstream(&net, 1, 2);
        let epoch = Instant::now();
        for _ in 0..2 {
            net.send_tuple(
                OperatorId::new(0),
                OperatorId::new(1),
                StreamId(0),
                Tuple::new(1, Key(5), vec![7]),
            )
            .unwrap();
        }
        assert_eq!(core.step(&net, &metrics, epoch, 16), 1);
        assert_eq!(downstream_rx.queued(), 1);
    }

    #[test]
    fn paused_and_failed_workers_do_not_process() {
        let net = network();
        let metrics = Metrics::new();
        let (mut core, _rx) = worker_with_downstream(&net, 1, 2);
        let epoch = Instant::now();
        net.send_tuple(
            OperatorId::new(0),
            OperatorId::new(1),
            StreamId(0),
            Tuple::new(1, Key(5), vec![7]),
        )
        .unwrap();
        core.set_paused(true);
        assert!(core.is_paused());
        assert_eq!(core.step(&net, &metrics, epoch, 16), 0);
        assert_eq!(core.queued(), 1, "tuple stays queued while paused");
        core.set_paused(false);
        core.mark_failed();
        assert!(core.is_failed());
        assert_eq!(core.step(&net, &metrics, epoch, 16), 0);
    }

    #[test]
    fn checkpoint_restore_and_replay_roundtrip() {
        let net = network();
        let metrics = Metrics::new();
        let (mut core, _downstream_rx) = worker_with_downstream(&net, 1, 2);
        let epoch = Instant::now();
        for ts in 1..=5u64 {
            net.send_tuple(
                OperatorId::new(0),
                OperatorId::new(1),
                StreamId(0),
                Tuple::new(ts, Key(ts), vec![ts as u8]),
            )
            .unwrap();
        }
        core.step(&net, &metrics, epoch, 16);
        let checkpoint = core.take_checkpoint(3);
        assert_eq!(checkpoint.meta.sequence, 3);
        assert_eq!(checkpoint.emit_clock, 5);
        assert_eq!(checkpoint.buffer.len(), 5);
        assert_eq!(checkpoint.processing.timestamps().get(StreamId(0)), Some(5));

        // Restore into a fresh worker and replay towards a recovering
        // downstream that reflected only the first two tuples.
        let rx2 = net.register(OperatorId::new(5));
        let mut routing = BTreeMap::new();
        routing.insert(LogicalOpId(9), RoutingState::single(OperatorId::new(2)));
        let mut restored = WorkerCore::new(
            OperatorId::new(5),
            LogicalOpId(1),
            passthrough(),
            rx2,
            routing,
            SharedClock::new(),
            false,
            true,
        );
        restored.restore(checkpoint);
        assert_eq!(restored.reflected().get(StreamId(0)), Some(5));
        let mut reflected_downstream = TimestampVec::new();
        reflected_downstream.advance(StreamId(1), 2);
        let replayed =
            restored.replay_to(OperatorId::new(2), &reflected_downstream, &net, &metrics);
        assert_eq!(replayed, 3);
    }

    #[test]
    fn sink_records_latency() {
        let net = network();
        let metrics = Metrics::new();
        let rx = net.register(OperatorId::new(3));
        let core_routing = BTreeMap::new(); // sinks have no downstream
        let mut sink = WorkerCore::new(
            OperatorId::new(3),
            LogicalOpId(2),
            passthrough(),
            rx,
            core_routing,
            SharedClock::new(),
            true,
            true,
        );
        let epoch = Instant::now();
        let mut batch = TupleBatch::new();
        batch.push(Tuple::new(1, Key(1), vec![]), 1); // ~the epoch itself, so latency ≈ elapsed
        net.send(Envelope::new(
            OperatorId::new(1),
            OperatorId::new(3),
            Message::data_batch(StreamId(0), batch),
        ))
        .unwrap();
        sink.step(&net, &metrics, epoch, 4);
        assert_eq!(metrics.latency_samples(), 1);
    }

    #[test]
    fn batched_worker_groups_outputs_and_flushes_at_step_boundary() {
        let net = network();
        let metrics = Metrics::new();
        let (mut core, downstream_rx) = worker_with_downstream(&net, 1, 2);
        core.out_batch = 4;
        let epoch = Instant::now();
        for ts in 1..=6u64 {
            net.send_tuple(
                OperatorId::new(0),
                OperatorId::new(1),
                StreamId(0),
                Tuple::new(ts, Key(ts), vec![ts as u8]),
            )
            .unwrap();
        }
        assert_eq!(core.step(&net, &metrics, epoch, 16), 6);
        // 6 outputs at out_batch=4: one full batch plus a flushed partial —
        // two envelopes, six tuples, nothing left pending.
        assert_eq!(core.pending_tuples(), 0);
        let envelopes = downstream_rx.drain();
        let counts: Vec<usize> = envelopes.iter().map(|e| e.message.tuple_count()).collect();
        assert_eq!(counts, vec![4, 2]);
        // Stamping happened at ship time: contiguous blocks, no zeros left.
        let stamped: Vec<u64> = envelopes
            .iter()
            .flat_map(|e| e.message.batch.tuples.iter().map(|t| t.ts))
            .collect();
        assert_eq!(stamped, vec![1, 2, 3, 4, 5, 6]);
        // So did replay buffering — and the buffer holds the stamped tuples.
        let buffered: Vec<u64> = core
            .buffer()
            .tuples_for(OperatorId::new(2))
            .iter()
            .map(|t| t.ts)
            .collect();
        assert_eq!(buffered, stamped);

        // Between steps only injected source tuples can be pending: they are
        // neither stamped nor buffered yet, and a crash discards them.
        core.out_batch = 100;
        core.emit_source(Key(1), vec![1], &net, &metrics, epoch);
        core.emit_source(Key(2), vec![2], &net, &metrics, epoch);
        assert_eq!(core.pending_tuples(), 2);
        assert_eq!(downstream_rx.queued(), 0, "nothing sent before the flush");
        assert_eq!(core.clock().last(), 6, "nothing stamped before the flush");
        assert_eq!(core.buffer().tuples_for(OperatorId::new(2)).len(), 6);
        core.mark_failed();
        assert_eq!(core.pending_tuples(), 0);
    }

    #[test]
    fn batch_of_one_ships_every_output_at_once() {
        let net = network();
        let metrics = Metrics::new();
        let (mut core, downstream_rx) = worker_with_downstream(&net, 1, 2);
        let epoch = Instant::now();
        for n in 1..=3u64 {
            core.emit_source(Key(n), vec![n as u8], &net, &metrics, epoch);
            assert_eq!(core.pending_tuples(), 0);
            assert_eq!(downstream_rx.queued(), n as usize);
        }
        let stamped: Vec<u64> = downstream_rx
            .drain()
            .iter()
            .map(|e| {
                assert_eq!(e.message.tuple_count(), 1);
                e.message.batch.tuples[0].ts
            })
            .collect();
        assert_eq!(stamped, vec![1, 2, 3]);
        assert_eq!(core.buffer().tuples_for(OperatorId::new(2)).len(), 3);
    }

    #[test]
    fn replay_resends_in_batches_with_original_timestamps_and_no_emit_time() {
        let net = network();
        let metrics = Metrics::new();
        let (mut core, downstream_rx) = worker_with_downstream(&net, 1, 2);
        core.out_batch = 4;
        let epoch = Instant::now();
        for n in 1..=10u64 {
            core.emit_source(Key(n), vec![n as u8], &net, &metrics, epoch);
        }
        core.flush_pending(&net, &metrics);
        downstream_rx.drain();

        // The downstream reflected timestamps 1..=3: 4..=10 are replayed.
        let mut reflected = TimestampVec::new();
        reflected.advance(StreamId(1), 3);
        assert_eq!(
            core.replay_to(OperatorId::new(2), &reflected, &net, &metrics),
            7
        );
        let envelopes = downstream_rx.drain();
        let counts: Vec<usize> = envelopes.iter().map(|e| e.message.tuple_count()).collect();
        assert_eq!(counts, vec![4, 3]);
        let replayed: Vec<u64> = envelopes
            .iter()
            .flat_map(|e| e.message.batch.tuples.iter().map(|t| t.ts))
            .collect();
        assert_eq!(replayed, (4..=10).collect::<Vec<u64>>());
        assert!(envelopes
            .iter()
            .all(|e| e.message.batch.emitted_at_us.iter().all(|&us| us == 0)));
        assert_eq!(core.clock().last(), 10, "replay must not advance the clock");
    }

    #[test]
    fn batch_input_processes_once_through_dedup_and_forwards() {
        let net = network();
        let metrics = Metrics::new();
        let (mut core, downstream_rx) = worker_with_downstream(&net, 1, 2);
        core.out_batch = 8;
        let epoch = Instant::now();
        let mut batch = TupleBatch::new();
        for ts in 1..=5u64 {
            batch.push(Tuple::new(ts, Key(ts), vec![ts as u8]), 0);
        }
        let env = Envelope::new(
            OperatorId::new(0),
            OperatorId::new(1),
            Message::data_batch(StreamId(0), batch.clone()),
        );
        net.send(env.clone()).unwrap();
        // A replayed copy of the same batch must be rejected whole.
        net.send(env).unwrap();
        assert_eq!(core.step(&net, &metrics, epoch, 16), 5);
        assert_eq!(core.processed(), 5);
        assert_eq!(core.reflected().get(StreamId(0)), Some(5));
        let envelopes = downstream_rx.drain();
        assert_eq!(envelopes.len(), 1);
        assert_eq!(envelopes[0].message.tuple_count(), 5);
        assert_eq!(metrics.processed_by(OperatorId::new(1)), 5);
    }

    #[test]
    fn batched_sink_records_latency_per_tuple() {
        let net = network();
        let metrics = Metrics::new();
        let rx = net.register(OperatorId::new(3));
        let mut sink = WorkerCore::new(
            OperatorId::new(3),
            LogicalOpId(2),
            passthrough(),
            rx,
            BTreeMap::new(),
            SharedClock::new(),
            true,
            true,
        );
        sink.out_batch = 64;
        let epoch = Instant::now();
        let mut batch = TupleBatch::new();
        for ts in 1..=7u64 {
            batch.push(Tuple::new(ts, Key(ts), vec![]), 1);
        }
        net.send(Envelope::new(
            OperatorId::new(1),
            OperatorId::new(3),
            Message::data_batch(StreamId(0), batch),
        ))
        .unwrap();
        sink.step(&net, &metrics, epoch, 4);
        assert_eq!(
            metrics.latency_samples(),
            7,
            "one latency sample per tuple, not per batch"
        );
    }

    #[test]
    fn latency_sampling_thins_at_the_stamp_site() {
        let net = network();
        let metrics = Metrics::new();
        let (mut source, downstream_rx) = worker_with_downstream(&net, 1, 2);
        source.latency_sample_every = 3;
        // Backdated so even the first stamp lands on a non-zero microsecond.
        let epoch = Instant::now() - Duration::from_millis(1);
        for n in 1..=7u64 {
            source.emit_source(Key(n), vec![n as u8], &net, &metrics, epoch);
        }
        // Stamps land on injection positions 0, 3 and 6: ceil(7 / 3). The
        // other four tuples travel with emit time 0 — they never acquired a
        // timestamp at all.
        let emits: Vec<bool> = downstream_rx
            .drain()
            .into_iter()
            .map(|env| env.message.batch.emitted_at_us[0] > 0)
            .collect();
        assert_eq!(
            emits,
            vec![true, false, false, true, false, false, true],
            "exactly every third injected tuple carries a stamp"
        );
    }

    #[test]
    fn probe_records_every_stamped_tuple_without_a_second_gate() {
        let net = network();
        let metrics = Metrics::new();
        let rx = net.register(OperatorId::new(3));
        let mut sink = WorkerCore::new(
            OperatorId::new(3),
            LogicalOpId(2),
            passthrough(),
            rx,
            BTreeMap::new(),
            SharedClock::new(),
            true,
            true,
        );
        sink.latency_sample_every = 3;
        let epoch = Instant::now();
        let mut batch = TupleBatch::new();
        // Pre-thinned upstream: positions 0, 3 and 6 stamped, the rest 0.
        for ts in 1..=7u64 {
            let emit = if (ts - 1).is_multiple_of(3) { 1 } else { 0 };
            batch.push(Tuple::new(ts, Key(ts), vec![]), emit);
        }
        net.send(Envelope::new(
            OperatorId::new(1),
            OperatorId::new(3),
            Message::data_batch(StreamId(0), batch),
        ))
        .unwrap();
        sink.step(&net, &metrics, epoch, 4);
        // Thinning already happened at the stamp site: the probe records all
        // three stamped arrivals (a second 1-in-N gate would record one).
        assert_eq!(metrics.latency_samples(), 3);
    }

    #[test]
    fn routing_update_adds_buffers_for_new_targets() {
        let net = network();
        let (mut core, _rx) = worker_with_downstream(&net, 1, 2);
        let ranges = KeyRange::full().split_even(2).unwrap();
        let mut routing = RoutingState::new();
        routing.set_route(ranges[0], OperatorId::new(10));
        routing.set_route(ranges[1], OperatorId::new(11));
        core.set_routing(LogicalOpId(9), routing);
        assert!(core.buffer().downstreams().contains(&OperatorId::new(10)));
        assert!(core
            .routing(LogicalOpId(9))
            .unwrap()
            .covers_exactly(KeyRange::full()));
        assert!(core.routing(LogicalOpId(8)).is_none());
    }

    #[test]
    fn traffic_counters_track_keys_decay_and_travel_with_checkpoints() {
        let net = network();
        let metrics = Metrics::new();
        let (mut core, _rx) = worker_with_downstream(&net, 1, 2);
        let epoch = Instant::now();
        let mut ts = 0u64;
        let mut feed = |core: &mut WorkerCore, key: u64, n: usize| {
            for _ in 0..n {
                ts += 1;
                net.send_tuple(
                    OperatorId::new(0),
                    OperatorId::new(1),
                    StreamId(0),
                    Tuple::new(ts, Key(key), vec![]),
                )
                .unwrap();
            }
            core.step(&net, &metrics, epoch, 256);
        };
        feed(&mut core, 5, 8);
        feed(&mut core, 9, 1);
        assert_eq!(core.traffic().count(Key(5)), 8);
        assert_eq!(core.traffic().count(Key(9)), 1);

        // The checkpoint carries the counters, and its sample now weights by
        // traffic — key 5 dominates even though both keys hold equal-size
        // state (the passthrough operator holds none at all, so the
        // footprint heuristic would have no signal whatsoever).
        let cp = core.take_checkpoint(1);
        let sample = cp.sample_keys(64);
        let hot = sample.iter().filter(|k| **k == Key(5)).count();
        let cold = sample.iter().filter(|k| **k == Key(9)).count();
        assert!(
            hot > cold,
            "traffic must weight the sample: {hot} vs {cold}"
        );

        // A utilisation report is a decay tick: the counters halve.
        core.utilization(5_000);
        assert_eq!(core.traffic().count(Key(5)), 4);

        // Restore installs the checkpointed counters.
        let rx2 = net.register(OperatorId::new(7));
        let mut restored = WorkerCore::new(
            OperatorId::new(7),
            LogicalOpId(1),
            passthrough(),
            rx2,
            BTreeMap::new(),
            SharedClock::new(),
            false,
            true,
        );
        restored.restore(cp);
        assert_eq!(restored.traffic().count(Key(5)), 8);
    }

    #[test]
    fn utilization_reflects_busy_fraction() {
        let net = network();
        let metrics = Metrics::new();
        let (mut core, _rx) = worker_with_downstream(&net, 1, 2);
        let epoch = Instant::now();
        // No work: utilisation is 0.
        assert_eq!(core.utilization(5_000), 0.0);
        for ts in 1..=50u64 {
            net.send_tuple(
                OperatorId::new(0),
                OperatorId::new(1),
                StreamId(0),
                Tuple::new(ts, Key(ts), vec![0u8; 64]),
            )
            .unwrap();
        }
        core.step(&net, &metrics, epoch, 64);
        let util = core.utilization(1);
        assert!((0.0..=1.0).contains(&util));
    }
}
