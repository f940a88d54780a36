//! The coordinator: owns the graph, placement, checkpoints and recovery.
//!
//! One coordinator process accepts worker registrations until the requested
//! cluster size is reached, deploys the job's execution graph across the
//! workers' slots, and then drives rounds of the same schedule the
//! in-process baseline uses — inject, quiesce, tick virtual time, quiesce,
//! checkpoint, publish — entirely over the control protocol. Checkpoints are
//! shipped back and stored coordinator-side, making the coordinator the
//! checkpoint store of the deployment.
//!
//! # What a round costs
//!
//! The control plane is reply-driven: a command's round trip ends the moment
//! its reply frame is in (`read_reply` blocks in `read`; no timeout or sleep
//! sits on the path), and a command that goes to several workers — `Probe`,
//! `Tick`, `Pause`, `Stats`, the `TrimBuffer`s of one checkpoint — is written
//! to all of them before the first reply is awaited (`fan_out`), so it costs
//! one round trip, not one per worker. A round's `InjectMany` is encoded
//! once, whatever number of attempts it takes. The time each phase took and
//! the commands sent are exported as
//! `seep_node_round_phase_seconds_total{phase}` and
//! `seep_node_rpcs_total{verb}`.
//!
//! # Quiescence
//!
//! Every phase that moves tuples ends with a barrier: the next phase may
//! start only when no tuple is queued, pending in a partial batch, inside a
//! socket or in a reader thread anywhere. [`plane_is_quiet`] decides that
//! from two consecutive *waves* of [`Probe`] replies (counter-based
//! termination detection, after Mattern's four-counter method): the plane is
//! quiet when a wave shows every worker drained, as many tuples received as
//! sent on every edge of the graph that crosses TCP, and exactly the
//! counters of the wave before it. One wave cannot tell: its replies are
//! taken at different moments, so a tuple sent after its sender answered
//! and received before its receiver did balances one still in flight. The
//! second wave starts after the first has ended; if nothing moved between
//! each worker's two answers, every counter was constant over the instant
//! between the waves, and at that instant "sent = received, all idle" means
//! just that. Idle workers stay idle — only a tuple or a coordinator command
//! wakes a core — so the plane is still quiet when the second wave returns.
//!
//! The worker's side of the contract ([`Probe`]): a tuple is counted
//! received only after it is on its operator's inbound queue, and the
//! received counts are read before the queue lengths, so a worker that
//! reports "received `n`, nothing queued" has processed all `n`. Counts are
//! kept per edge — `(sending instance, receiving instance)` — so that the
//! edges of an instance lost with its worker, which can never balance again,
//! drop out of the rule with the instance.
//!
//! # Liveness and failure handling
//!
//! Any frame from a worker — a reply as much as a heartbeat — proves it
//! alive, and workers heartbeat from a thread of their own, so a worker is
//! declared dead only when its connection closes or stays silent for the
//! heartbeat timeout (the sockets' read timeout), never for being busy. A
//! dead worker is marked failed in the [`RemoteVmRegistry`], and every
//! instance it hosted is recovered through the paper's R+SM sequence —
//! pause, redeploy from the last checkpoint on a surviving worker, replay
//! the restored output buffer, rewire and replay upstream buffers, resume —
//! after which the interrupted step is retried. Each recovery is journalled
//! as a [`JournalKind::Recovery`] event and recorded in [`Metrics`], so a
//! real `kill -9` shows up on `/metrics` exactly like a simulated VM crash.
//!
//! Known limits of the demo driver: sources are assumed reliable (the paper
//! delegates source durability upstream), so killing the worker hosting the
//! source mid-injection can lose that round's tuples; and only stateful
//! operators are recovered.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::io::{self, Write};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;

use seep_cloud::{RemoteVmRegistry, VmId};
use seep_core::graph::OperatorInstance;
use seep_core::{
    Checkpoint, ExecutionGraph, Key, LogicalOpId, OperatorId, OperatorKind, ProcessingState,
    StreamId, TimestampVec, Tuple, TupleBatch,
};
use seep_net::{wire, Envelope, FrameReader, Message};
use seep_runtime::metrics::CheckpointRecord;
use seep_runtime::obs::{ObsShared, SlotBinding, TransportConn};
use seep_runtime::reconfig::PlanCommit;
use seep_runtime::{
    Journal, JournalKind, Metrics, ObsServer, ObsSnapshot, PlanTrigger, ReconfigOutcome,
    ReconfigTiming,
};

use crate::jobs::{self, RunOutcome};
use crate::protocol::{
    drain_msgs, encode_msg, next_msg, read_msg_blocking, write_msg, DeployInstance, EdgeCount,
    NodeMsg, PeerRoute, Probe, RoutingEntry,
};

/// Configuration of the coordinator process.
#[derive(Debug, Clone)]
pub struct CoordinatorConfig {
    /// Control-plane listen address (port 0 picks an ephemeral port).
    pub listen: String,
    /// Number of workers to wait for before deploying.
    pub workers: usize,
    /// Job to deploy (must exist in [`jobs`]).
    pub job: String,
    /// Rounds to drive; each round injects `rate` words and advances
    /// virtual time by one second.
    pub rounds: u64,
    /// Source tuples injected per round.
    pub rate: u64,
    /// Wall-clock pause between rounds — gives fault-injection tests a
    /// window to kill workers mid-run.
    pub round_delay_ms: u64,
    /// Where to write the rendered [`RunOutcome`].
    pub out: Option<PathBuf>,
    /// File to write the bound control address to, for test orchestration.
    pub port_file: Option<PathBuf>,
    /// Prometheus scrape endpoint address, when observability is wanted.
    pub metrics_addr: Option<String>,
    /// File to write the bound scrape address to.
    pub metrics_port_file: Option<PathBuf>,
    /// JSONL journal sink path.
    pub journal_path: Option<PathBuf>,
    /// Heartbeats older than this mark a worker failed (ms).
    pub heartbeat_timeout_ms: u64,
    /// Keep serving `/metrics` this long after the run completes (ms).
    pub hold_ms: u64,
}

impl Default for CoordinatorConfig {
    fn default() -> Self {
        CoordinatorConfig {
            listen: "127.0.0.1:0".into(),
            workers: 2,
            job: jobs::DEFAULT_JOB.into(),
            rounds: 5,
            rate: 20,
            round_delay_ms: 0,
            out: None,
            port_file: None,
            metrics_addr: None,
            metrics_port_file: None,
            journal_path: None,
            heartbeat_timeout_ms: 2_000,
            hold_ms: 0,
        }
    }
}

/// Why a coordinator step failed.
#[derive(Debug)]
enum CoordError {
    /// The worker's control connection is dead or its heartbeats timed
    /// out; recovery should run and the step be retried.
    WorkerDead(VmId),
    /// A non-recoverable protocol or invariant violation.
    Protocol(String),
    /// A local I/O failure.
    Io(io::Error),
}

impl From<io::Error> for CoordError {
    fn from(e: io::Error) -> Self {
        CoordError::Io(e)
    }
}

fn to_io(e: CoordError) -> io::Error {
    match e {
        CoordError::Io(e) => e,
        CoordError::Protocol(what) => io::Error::new(io::ErrorKind::InvalidData, what),
        CoordError::WorkerDead(vm) => io::Error::new(
            io::ErrorKind::ConnectionAborted,
            format!("worker vm{} died and recovery did not converge", vm.0),
        ),
    }
}

fn invalid(e: impl std::fmt::Display) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, e.to_string())
}

fn unexpected(wanted: &str, got: &NodeMsg) -> CoordError {
    CoordError::Protocol(format!("expected {wanted}, got {got:?}"))
}

fn expect_ack(reply: &NodeMsg) -> Result<(), CoordError> {
    match reply {
        NodeMsg::Ack => Ok(()),
        other => Err(unexpected("Ack", other)),
    }
}

/// The quiescence rule, over the [`Probe`] replies of two consecutive
/// waves (every live worker's reply, in a fixed worker order): `wave` shows
/// nothing queued or pending anywhere and, on every edge between two
/// `placed` instances, as many tuples received as sent; and `previous` —
/// taken in full before `wave` began — reported exactly the same counters.
/// See the module docs for why one wave is not enough and two are.
///
/// Edges with an end that is no longer placed are left out: an instance
/// lost with its worker took its half of the ledger along, and what it was
/// sent or had sent is what recovery replays.
pub fn plane_is_quiet(
    previous: Option<&[Probe]>,
    wave: &[Probe],
    placed: impl Fn(OperatorId) -> bool,
) -> bool {
    let idle = wave.iter().all(|p| p.queued + p.pending == 0);
    let live = |e: &&EdgeCount| placed(OperatorId::new(e.from)) && placed(OperatorId::new(e.to));
    let mut in_flight: BTreeMap<(u64, u64), (u64, u64)> = BTreeMap::new();
    for probe in wave {
        for e in probe.sent.iter().filter(live) {
            in_flight.entry((e.from, e.to)).or_default().0 += e.tuples;
        }
        for e in probe.received.iter().filter(live) {
            in_flight.entry((e.from, e.to)).or_default().1 += e.tuples;
        }
    }
    let balanced = in_flight.values().all(|(sent, received)| sent == received);
    idle && balanced && previous == Some(wave)
}

/// What a frame from `vm` means: it is alive as of `now_ms`, whatever the
/// frame says, and unless the frame is a heartbeat it answers the oldest
/// outstanding command.
fn absorb(
    registry: &mut RemoteVmRegistry,
    vm: VmId,
    now_ms: u64,
    frame: NodeMsg,
) -> Option<NodeMsg> {
    registry.heartbeat(vm, now_ms);
    match frame {
        NodeMsg::Heartbeat => None,
        reply => Some(reply),
    }
}

struct WorkerConn {
    stream: TcpStream,
    reader: FrameReader,
}

struct Coordinator {
    cfg: CoordinatorConfig,
    registry: RemoteVmRegistry,
    conns: BTreeMap<VmId, WorkerConn>,
    graph: ExecutionGraph,
    placement: BTreeMap<OperatorId, VmId>,
    /// Latest checkpoint per logical operator — the deployment's store.
    /// Keyed by logical id so a replaced-then-killed instance still finds
    /// its state.
    checkpoints: BTreeMap<LogicalOpId, Checkpoint>,
    /// Last per-instance processed totals, as reported by probes.
    processed: BTreeMap<OperatorId, u64>,
    metrics: Metrics,
    journal: Journal,
    obs: Arc<ObsShared>,
    epoch: Instant,
    last_tick: u64,
    /// Wall time spent in each phase of the rounds so far (seconds).
    phase_seconds: BTreeMap<&'static str, f64>,
    /// Commands sent so far, per verb.
    rpcs: BTreeMap<&'static str, u64>,
}

impl Coordinator {
    fn now_ms(&self) -> u64 {
        self.epoch.elapsed().as_millis() as u64
    }

    /// Live workers in VM-id order.
    fn live_vms(&self) -> Vec<VmId> {
        self.registry.live().iter().map(|w| w.vm).collect()
    }

    /// Live workers sorted by name — the deterministic placement order.
    fn live_by_name(&self) -> Vec<VmId> {
        let mut vms: Vec<(String, VmId)> = self
            .registry
            .live()
            .iter()
            .map(|w| (w.name.clone(), w.vm))
            .collect();
        vms.sort();
        vms.into_iter().map(|(_, vm)| vm).collect()
    }

    fn occupancy(&self, vm: VmId) -> usize {
        self.placement.values().filter(|v| **v == vm).count()
    }

    fn free_slots(&self, vm: VmId) -> usize {
        self.registry
            .get(vm)
            .map(|w| w.slots.saturating_sub(self.occupancy(vm)))
            .unwrap_or(0)
    }

    /// Write one encoded command frame to a worker.
    fn send(&mut self, vm: VmId, verb: &'static str, frame: &[u8]) -> Result<(), CoordError> {
        let conn = self.conns.get_mut(&vm).ok_or(CoordError::WorkerDead(vm))?;
        conn.stream
            .write_all(frame)
            .map_err(|_| CoordError::WorkerDead(vm))?;
        *self.rpcs.entry(verb).or_default() += 1;
        Ok(())
    }

    /// The reply to the oldest unanswered command on `vm`'s connection,
    /// absorbing heartbeats that interleave with it. Returns the moment the
    /// reply frame is in; the worker is dead when its connection closes or
    /// stays silent for the heartbeat timeout (the socket's read timeout).
    fn read_reply(&mut self, vm: VmId) -> Result<NodeMsg, CoordError> {
        loop {
            let conn = self.conns.get_mut(&vm).ok_or(CoordError::WorkerDead(vm))?;
            let Ok(Some(frame)) = next_msg(&mut conn.stream, &mut conn.reader) else {
                return Err(CoordError::WorkerDead(vm));
            };
            let now = self.now_ms();
            match absorb(&mut self.registry, vm, now, frame) {
                None => {}
                Some(NodeMsg::Error { what }) => {
                    return Err(CoordError::Protocol(format!("worker vm{}: {what}", vm.0)))
                }
                Some(reply) => return Ok(reply),
            }
        }
    }

    /// One request/response exchange with a worker.
    fn rpc(&mut self, vm: VmId, msg: &NodeMsg) -> Result<NodeMsg, CoordError> {
        self.send(vm, msg.verb(), &encode_msg(msg)?)?;
        self.read_reply(vm)
    }

    fn rpc_ack(&mut self, vm: VmId, msg: &NodeMsg) -> Result<(), CoordError> {
        expect_ack(&self.rpc(vm, msg)?)
    }

    /// Several exchanges for the price of one round trip: every command is
    /// written before the first reply is awaited, and the replies come back
    /// in call order (a connection answers in the order it was asked). Only
    /// for small commands — nothing here reads while it writes.
    ///
    /// After a failure the replies still on their way are read all the same,
    /// so a retry finds every surviving connection with nothing outstanding.
    fn fan_out(&mut self, calls: &[(VmId, NodeMsg)]) -> Result<Vec<NodeMsg>, CoordError> {
        let mut failure = None;
        let mut lost = BTreeSet::new();
        for (vm, msg) in calls {
            let sent = encode_msg(msg)
                .map_err(CoordError::from)
                .and_then(|frame| self.send(*vm, msg.verb(), &frame));
            if let Err(e) = sent {
                lost.insert(*vm);
                failure.get_or_insert(e);
            }
        }
        let mut replies = Vec::with_capacity(calls.len());
        for (vm, _) in calls {
            if lost.contains(vm) {
                continue;
            }
            match self.read_reply(*vm) {
                Ok(reply) => replies.push(reply),
                Err(e) => {
                    if matches!(e, CoordError::WorkerDead(_)) {
                        lost.insert(*vm);
                    }
                    failure.get_or_insert(e);
                }
            }
        }
        match failure {
            Some(e) => Err(e),
            None => Ok(replies),
        }
    }

    fn fan_out_ack(&mut self, calls: &[(VmId, NodeMsg)]) -> Result<(), CoordError> {
        self.fan_out(calls)?.iter().try_for_each(expect_ack)
    }

    /// The same command to every live worker, in VM-id order.
    fn broadcast(&mut self, msg: &NodeMsg) -> Result<Vec<NodeMsg>, CoordError> {
        let calls: Vec<(VmId, NodeMsg)> = self
            .live_vms()
            .into_iter()
            .map(|vm| (vm, msg.clone()))
            .collect();
        self.fan_out(&calls)
    }

    fn broadcast_ack(&mut self, msg: &NodeMsg) -> Result<(), CoordError> {
        self.broadcast(msg)?.iter().try_for_each(expect_ack)
    }

    fn set_nonblocking(&mut self, on: bool) -> Result<(), CoordError> {
        for conn in self.conns.values() {
            conn.stream.set_nonblocking(on)?;
        }
        Ok(())
    }

    /// Sit out `ms` wall-clock milliseconds (`--round-delay-ms`, `--hold-ms`)
    /// without issuing commands, absorbing heartbeats and noticing closed
    /// connections or timeouts. The one place the coordinator polls: it has
    /// nothing to wait *for* here, only time to pass.
    fn pump(&mut self, ms: u64) -> Result<(), CoordError> {
        self.set_nonblocking(true)?;
        let outcome = self.pump_nonblocking(ms);
        self.set_nonblocking(false)?;
        outcome
    }

    fn pump_nonblocking(&mut self, ms: u64) -> Result<(), CoordError> {
        let until = Instant::now() + Duration::from_millis(ms);
        loop {
            let now = self.now_ms();
            for vm in self.live_vms() {
                let Some(conn) = self.conns.get_mut(&vm) else {
                    return Err(CoordError::WorkerDead(vm));
                };
                match drain_msgs(&mut conn.stream, &mut conn.reader) {
                    Ok((msgs, open)) => {
                        for msg in msgs {
                            absorb(&mut self.registry, vm, now, msg);
                        }
                        if !open {
                            return Err(CoordError::WorkerDead(vm));
                        }
                    }
                    Err(_) => return Err(CoordError::WorkerDead(vm)),
                }
            }
            if let Some(&vm) = self
                .registry
                .timed_out(self.now_ms(), self.cfg.heartbeat_timeout_ms)
                .first()
            {
                return Err(CoordError::WorkerDead(vm));
            }
            if Instant::now() >= until {
                return Ok(());
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    /// Run `step`, recovering failed workers and retrying until it
    /// succeeds. Bounded: a cluster that keeps losing workers errors out.
    fn with_retry<T>(
        &mut self,
        mut step: impl FnMut(&mut Self) -> Result<T, CoordError>,
    ) -> io::Result<T> {
        let mut attempts = 0;
        loop {
            attempts += 1;
            if attempts > 8 {
                return Err(io::Error::other("too many worker failures; giving up"));
            }
            match step(self) {
                Ok(v) => return Ok(v),
                Err(CoordError::WorkerDead(vm)) => {
                    let mut dead = vm;
                    loop {
                        match self.recover(dead) {
                            Ok(()) => break,
                            Err(CoordError::WorkerDead(next)) => {
                                attempts += 1;
                                if attempts > 8 {
                                    return Err(io::Error::other(
                                        "too many worker failures; giving up",
                                    ));
                                }
                                dead = next;
                            }
                            Err(e) => return Err(to_io(e)),
                        }
                    }
                }
                Err(e) => return Err(to_io(e)),
            }
        }
    }

    fn routing_entries(&self, logical: LogicalOpId) -> Result<Vec<RoutingEntry>, CoordError> {
        self.graph
            .query()
            .downstream(logical)
            .into_iter()
            .map(|d| {
                Ok(RoutingEntry {
                    downstream: d.0,
                    routing: self
                        .graph
                        .routing(d)
                        .map_err(|e| CoordError::Protocol(e.to_string()))?
                        .clone(),
                })
            })
            .collect()
    }

    fn deploy_msg(&self, inst: &OperatorInstance) -> Result<DeployInstance, CoordError> {
        let meta = self
            .graph
            .query()
            .operator(inst.logical)
            .map_err(|e| CoordError::Protocol(e.to_string()))?;
        Ok(DeployInstance {
            op: inst.id.raw(),
            logical: inst.logical.0,
            name: meta.name.clone(),
            is_sink: meta.kind == OperatorKind::Sink,
            routing: self.routing_entries(inst.logical)?,
        })
    }

    /// Remote routes a worker needs: every instance hosted elsewhere.
    fn peers_for(&self, vm: VmId) -> Vec<PeerRoute> {
        self.placement
            .iter()
            .filter(|(_, host)| **host != vm)
            .filter_map(|(op, host)| {
                self.registry.get(*host).map(|w| PeerRoute {
                    op: op.raw(),
                    addr: w.data_addr.clone(),
                })
            })
            .collect()
    }

    fn host_of(&self, op: OperatorId) -> Result<VmId, CoordError> {
        self.placement
            .get(&op)
            .copied()
            .ok_or_else(|| CoordError::Protocol(format!("instance {op:?} is unplaced")))
    }

    /// Initial placement: round-robin over name-sorted workers, skipping
    /// full ones.
    fn place_all(&mut self) -> Result<(), CoordError> {
        let vms = self.live_by_name();
        let instances: Vec<OperatorId> = self.graph.instances().map(|i| i.id).collect();
        let mut next = 0usize;
        for op in instances {
            let mut placed = false;
            for k in 0..vms.len() {
                let vm = vms[(next + k) % vms.len()];
                if self.free_slots(vm) > 0 {
                    self.placement.insert(op, vm);
                    next += k + 1;
                    placed = true;
                    break;
                }
            }
            if !placed {
                return Err(CoordError::Protocol(format!(
                    "no free slot for instance {op:?}"
                )));
            }
        }
        Ok(())
    }

    fn deploy_all(&mut self) -> Result<(), CoordError> {
        for vm in self.live_vms() {
            let mine: Vec<OperatorInstance> = self
                .graph
                .instances()
                .filter(|i| self.placement.get(&i.id) == Some(&vm))
                .cloned()
                .collect();
            let instances: Vec<DeployInstance> = mine
                .iter()
                .map(|i| self.deploy_msg(i))
                .collect::<Result<_, _>>()?;
            let peers = self.peers_for(vm);
            self.rpc_ack(vm, &NodeMsg::Deploy { instances, peers })?;
        }
        Ok(())
    }

    /// One probe wave: every live worker's counters, in VM-id order, taken
    /// with one pipelined round trip.
    fn probe_wave(&mut self) -> Result<Vec<Probe>, CoordError> {
        let mut wave = Vec::new();
        for reply in self.broadcast(&NodeMsg::Probe)? {
            let NodeMsg::ProbeReply(probe) = reply else {
                return Err(unexpected("ProbeReply", &reply));
            };
            for c in &probe.processed {
                let op = OperatorId::new(c.op);
                let prev = self.processed.insert(op, c.count).unwrap_or(0);
                if c.count > prev {
                    self.metrics.record_processed(op, c.count - prev);
                }
            }
            wave.push(probe);
        }
        Ok(wave)
    }

    /// The barrier between phases: probe in waves until [`plane_is_quiet`].
    /// A wave costs a busy worker nothing until it finishes the step it is
    /// in, and returns at once from an idle one, so the barrier adds two
    /// round trips to the time the plane takes to drain.
    fn quiesce(&mut self) -> Result<(), CoordError> {
        let mut previous: Option<Vec<Probe>> = None;
        loop {
            let wave = self.probe_wave()?;
            if plane_is_quiet(previous.as_deref(), &wave, |op| {
                self.placement.contains_key(&op)
            }) {
                return Ok(());
            }
            previous = Some(wave);
        }
    }

    fn tick_all(&mut self, now_ms: u64) -> Result<(), CoordError> {
        self.broadcast_ack(&NodeMsg::Tick { now_ms })
    }

    /// Stateful and sink instances, downstream operators first.
    fn capture_targets(&self) -> Result<Vec<OperatorInstance>, CoordError> {
        let query = self.graph.query();
        let order = query
            .topological_order()
            .map_err(|e| CoordError::Protocol(e.to_string()))?;
        Ok(order
            .into_iter()
            .rev()
            .filter(|logical| {
                query
                    .operator(*logical)
                    .is_ok_and(|o| matches!(o.kind, OperatorKind::Stateful | OperatorKind::Sink))
            })
            .flat_map(|logical| self.graph.instances().filter(move |i| i.logical == logical))
            .cloned()
            .collect())
    }

    /// Checkpoint every stateful and sink instance, store the checkpoint
    /// coordinator-side, and trim upstream output buffers to the reflected
    /// timestamps (the paper's checkpoint-then-trim protocol). Instances are
    /// visited downstream-first, as the in-process runtime does: by the time
    /// an operator is captured, its own output buffer has been trimmed by
    /// this round's checkpoints of its downstreams, so the stored checkpoint
    /// carries no tuple a downstream checkpoint already reflects.
    fn capture_round(&mut self, round: u64) -> Result<(), CoordError> {
        let at_ms = (round + 1) * 1_000;
        for inst in self.capture_targets()? {
            let host = self.host_of(inst.id)?;
            let started = Instant::now();
            let reply = self.rpc(
                host,
                &NodeMsg::Capture {
                    op: inst.id.raw(),
                    sequence: round + 1,
                },
            )?;
            let NodeMsg::Captured { bytes, .. } = reply else {
                return Err(unexpected("Captured", &reply));
            };
            let cp = Checkpoint::from_bytes(&bytes)
                .map_err(|e| CoordError::Protocol(format!("undecodable checkpoint: {e}")))?;
            self.metrics.record_checkpoint(CheckpointRecord {
                operator: inst.id,
                at_ms,
                duration_us: started.elapsed().as_micros() as u64,
                size_bytes: cp.size_bytes(),
                stored_bytes: bytes.len(),
                incremental: false,
            });
            let reflected = cp.timestamps().clone();
            self.checkpoints.insert(inst.logical, cp);
            let mut trims = Vec::new();
            for up_logical in self.graph.query().upstream(inst.logical) {
                let Some(ts) = reflected.get(StreamId(up_logical.0)) else {
                    continue;
                };
                for &up in self.graph.partitions(up_logical) {
                    let trim = NodeMsg::TrimBuffer {
                        op: up.raw(),
                        downstream: inst.id.raw(),
                        ts,
                    };
                    trims.push((self.host_of(up)?, trim));
                }
            }
            self.fan_out_ack(&trims)?;
        }
        Ok(())
    }

    /// Recover every instance stranded on a dead VM: the executor's R+SM
    /// sequence, driven over the control protocol.
    fn recover(&mut self, dead: VmId) -> Result<(), CoordError> {
        let t0 = Instant::now();
        self.registry.mark_failed(dead);
        self.conns.remove(&dead);

        let alive: BTreeSet<VmId> = self.live_vms().into_iter().collect();
        let failed: Vec<(OperatorId, LogicalOpId)> = self
            .graph
            .instances()
            .filter(|i| match self.placement.get(&i.id) {
                Some(vm) => !alive.contains(vm),
                None => false,
            })
            .map(|i| (i.id, i.logical))
            .collect();
        if failed.is_empty() {
            return Ok(());
        }

        self.broadcast_ack(&NodeMsg::Pause { on: true })?;

        let mut recovered = Vec::new();
        for (old_id, logical) in failed {
            let meta = self
                .graph
                .query()
                .operator(logical)
                .map_err(|e| CoordError::Protocol(e.to_string()))?;
            if meta.kind != OperatorKind::Stateful {
                return Err(CoordError::Protocol(format!(
                    "cannot recover non-stateful operator {:?} lost with vm{}",
                    meta.name, dead.0
                )));
            }
            let name = meta.name.clone();
            let restore_started = Instant::now();
            let new_inst = self
                .graph
                .scale_out_instance(old_id, 1)
                .map_err(|e| CoordError::Protocol(e.to_string()))?
                .remove(0);
            self.placement.remove(&old_id);
            let host = self
                .live_by_name()
                .into_iter()
                .find(|vm| self.free_slots(*vm) > 0)
                .ok_or_else(|| {
                    CoordError::Protocol("no live worker with a free slot".to_string())
                })?;
            self.placement.insert(new_inst.id, host);

            let deploy = self.deploy_msg(&new_inst)?;
            let peers = self.peers_for(host);
            self.rpc_ack(
                host,
                &NodeMsg::Deploy {
                    instances: vec![deploy],
                    peers,
                },
            )?;
            let host_addr = self
                .registry
                .get(host)
                .map(|w| w.data_addr.clone())
                .unwrap_or_default();
            let new_route = NodeMsg::SetPeers {
                peers: vec![PeerRoute {
                    op: new_inst.id.raw(),
                    addr: host_addr,
                }],
            };
            let others: Vec<(VmId, NodeMsg)> = self
                .live_vms()
                .into_iter()
                .filter(|vm| *vm != host)
                .map(|vm| (vm, new_route.clone()))
                .collect();
            self.fan_out_ack(&others)?;

            let mut reflected = TimestampVec::new();
            if let Some(cp) = self.checkpoints.get(&logical) {
                reflected = cp.timestamps().clone();
                let bytes = cp
                    .to_bytes()
                    .map_err(|e| CoordError::Protocol(e.to_string()))?;
                self.rpc_ack(
                    host,
                    &NodeMsg::Restore {
                        op: new_inst.id.raw(),
                        bytes: Bytes::from(bytes),
                    },
                )?;
            }
            let restore_us = restore_started.elapsed().as_micros() as u64;

            let replay_started = Instant::now();
            let routing_entries = self.routing_entries(logical)?;
            let mut replayed = match self.rpc(
                host,
                &NodeMsg::ReplayRestored {
                    op: new_inst.id.raw(),
                    routing: routing_entries,
                },
            )? {
                NodeMsg::Replayed { tuples } => tuples,
                other => return Err(unexpected("Replayed", &other)),
            };

            let routing = self
                .graph
                .routing(logical)
                .map_err(|e| CoordError::Protocol(e.to_string()))?
                .clone();
            for up_logical in self.graph.query().upstream(logical) {
                for up in self.graph.partitions(up_logical).to_vec() {
                    let up_host = self.host_of(up)?;
                    replayed += match self.rpc(
                        up_host,
                        &NodeMsg::Rewire {
                            at: up.raw(),
                            logical: logical.0,
                            olds: vec![old_id.raw()],
                            routing: routing.clone(),
                            new_targets: vec![new_inst.id.raw()],
                            reflected: reflected.clone(),
                        },
                    )? {
                        NodeMsg::Replayed { tuples } => tuples,
                        other => return Err(unexpected("Replayed", &other)),
                    };
                }
            }
            let replay_us = replay_started.elapsed().as_micros() as u64;
            // What the executor would report for this instance, remembered
            // once the cluster has resumed and the total is known.
            let outcome = ReconfigOutcome {
                logical,
                new_operators: vec![new_inst.id],
                new_parallelism: self.graph.parallelism(logical),
                replayed_tuples: replayed as usize,
                released_vms: vec![dead],
                timing: ReconfigTiming {
                    restore_us,
                    replay_us,
                    ..Default::default()
                },
            };
            recovered.push((name, old_id, host, outcome));
        }

        self.broadcast_ack(&NodeMsg::Pause { on: false })?;
        self.quiesce()?;
        if self.last_tick > 0 {
            self.tick_all(self.last_tick)?;
            self.quiesce()?;
        }

        let total_us = t0.elapsed().as_micros() as u64;
        let at_ms = self.now_ms();
        for (operator, old_id, host, mut outcome) in recovered {
            outcome.timing.total_us = total_us;
            let slot = |op: OperatorId, vm: VmId| SlotBinding {
                operator: op.raw(),
                vm: Some(vm.0),
            };
            let (mut event, record) = PlanCommit {
                kind: JournalKind::Recovery,
                trigger: PlanTrigger::Manual,
                at_ms,
                operator,
                strategy: "R+SM",
                vacated: vec![slot(old_id, dead)],
                placed: vec![slot(outcome.new_operators[0], host)],
                outcome: &outcome,
            }
            .into_event_and_record();
            // The host is a worker that was already running: nothing was
            // drawn from a pool.
            event.acquired_vms.clear();
            self.journal.append(event);
            self.metrics.record_reconfig(record);
        }
        // Best effort: surface the recovery on /metrics immediately.
        let _ = self.refresh_obs();
        Ok(())
    }

    /// Publish a fresh snapshot to the scrape endpoint: coordinator
    /// metrics, round phase times and command counts, plus every worker's
    /// transport counters and heartbeat lags.
    fn refresh_obs(&mut self) -> Result<(), CoordError> {
        let vms = self.live_vms();
        let replies = self.broadcast(&NodeMsg::Stats)?;
        let mut transport = Vec::new();
        for (vm, reply) in vms.into_iter().zip(replies) {
            let NodeMsg::StatsReply { conns } = reply else {
                return Err(unexpected("StatsReply", &reply));
            };
            let name = self.registry.get(vm).map_or("", |w| w.name.as_str());
            for c in conns {
                transport.push(TransportConn {
                    peer: format!("{name}/{}", c.peer),
                    direction: c.direction,
                    bytes: c.bytes,
                    frames: c.frames,
                    tuples: c.tuples,
                    reconnects: c.reconnects,
                });
            }
        }
        let now = self.now_ms();
        let occupancy = self
            .live_vms()
            .into_iter()
            .map(|vm| (vm.0, self.occupancy(vm)))
            .filter(|(_, n)| *n > 0)
            .collect();
        let slots_per_vm = self
            .registry
            .live()
            .iter()
            .map(|w| w.slots)
            .max()
            .unwrap_or(1);
        self.obs.update(ObsSnapshot {
            now_ms: now,
            metrics: self.metrics.snapshot(),
            latency: self.metrics.latency_histogram(),
            occupancy,
            slots_per_vm,
            vms_running: self.registry.live_count(),
            journal_events: self.journal.total(),
            transport,
            heartbeat_lag: self.registry.heartbeat_lags(now),
            round_phases: labelled(&self.phase_seconds),
            rpcs: labelled(&self.rpcs),
            ..Default::default()
        });
        Ok(())
    }

    fn logical_by_name(&self, name: &str) -> Result<LogicalOpId, CoordError> {
        self.graph
            .query()
            .operators()
            .find(|o| o.name == name)
            .map(|o| o.id)
            .ok_or_else(|| CoordError::Protocol(format!("job has no operator {name:?}")))
    }

    /// Collect the sink state and assemble the run's outcome.
    fn collect_outcome(&mut self) -> Result<RunOutcome, CoordError> {
        let sink = self.logical_by_name("results")?;
        let sink_inst = self.graph.partitions(sink)[0];
        let host = self.host_of(sink_inst)?;
        let bytes = match self.rpc(
            host,
            &NodeMsg::CollectState {
                op: sink_inst.raw(),
            },
        )? {
            NodeMsg::StateBytes { bytes, .. } => bytes,
            other => return Err(unexpected("StateBytes", &other)),
        };
        let state: ProcessingState = bincode::deserialize(&bytes)
            .map_err(|e| CoordError::Protocol(format!("undecodable sink state: {e}")))?;
        let results = jobs::decode_sink_state(&state);
        let processed = ["feed", "count", "results"]
            .into_iter()
            .map(|name| {
                let total = self
                    .logical_by_name(name)
                    .map(|lid| {
                        self.graph
                            .partitions(lid)
                            .iter()
                            .map(|op| self.processed.get(op).copied().unwrap_or(0))
                            .sum()
                    })
                    .unwrap_or(0);
                (name.to_string(), total)
            })
            .collect();
        Ok(RunOutcome { results, processed })
    }

    /// Run `work` and add its wall time to `phase`'s total.
    fn phase<T>(
        &mut self,
        phase: &'static str,
        work: impl FnOnce(&mut Self) -> io::Result<T>,
    ) -> io::Result<T> {
        let started = Instant::now();
        let out = work(self);
        *self.phase_seconds.entry(phase).or_default() += started.elapsed().as_secs_f64();
        out
    }

    /// The encoded `InjectMany` of one round: built once, written on every
    /// attempt.
    fn inject_request(&self, source: OperatorId, round: u64) -> io::Result<Vec<u8>> {
        let mut batch = TupleBatch::with_capacity(self.cfg.rate as usize);
        for word in jobs::round_words(round, self.cfg.rate, jobs::VOCAB) {
            let tuple = Tuple::encode(0, Key::from_str_key(&word), &word).map_err(invalid)?;
            batch.push(tuple, 0);
        }
        let envelope = Envelope::new(source, source, Message::data_batch(StreamId(0), batch));
        encode_msg(&NodeMsg::InjectMany {
            op: source.raw(),
            batch: Bytes::from(wire::encode(&envelope)),
        })
    }

    /// Place and deploy the job, and publish the first snapshot.
    fn start(&mut self) -> io::Result<()> {
        self.with_retry(|c| {
            c.place_all()?;
            c.deploy_all()
        })?;
        self.with_retry(|c| c.refresh_obs())
    }

    /// One round of the baseline's schedule: inject, quiesce, tick, quiesce,
    /// capture, publish.
    fn round(&mut self, round: u64) -> io::Result<()> {
        let feed = self.logical_by_name("feed").map_err(to_io)?;
        // Sources are not recovered, so the instance outlives the retries.
        let source = self.graph.partitions(feed)[0];
        self.phase("inject", |c| {
            let request = c.inject_request(source, round)?;
            c.with_retry(|c| {
                let host = c.host_of(source)?;
                c.send(host, "InjectMany", &request)?;
                expect_ack(&c.read_reply(host)?)
            })
        })?;
        self.phase("quiesce", |c| c.with_retry(|c| c.quiesce()))?;
        let now_ms = (round + 1) * 1_000;
        self.phase("tick", |c| c.with_retry(|c| c.tick_all(now_ms)))?;
        self.last_tick = now_ms;
        self.phase("quiesce", |c| c.with_retry(|c| c.quiesce()))?;
        self.phase("capture", |c| c.with_retry(|c| c.capture_round(round)))?;
        self.phase("publish", |c| c.with_retry(|c| c.refresh_obs()))
    }

    /// Collect and write the outcome, publish the final snapshot, sit out
    /// `--hold-ms` and shut the workers down.
    fn finish(&mut self) -> io::Result<RunOutcome> {
        let outcome = self.with_retry(|c| c.collect_outcome())?;
        if let Some(path) = self.cfg.out.clone() {
            fs::write(path, outcome.render())?;
        }
        self.with_retry(|c| c.refresh_obs())?;
        if self.cfg.hold_ms > 0 {
            let hold = self.cfg.hold_ms;
            self.with_retry(|c| c.pump(hold))?;
        }
        // A worker acknowledges `Shutdown` before it exits. Reading that
        // (bounded by the read timeout) before the sockets close with this
        // process means no worker finds its connection reset under a
        // command it has not read yet.
        let _ = self.broadcast(&NodeMsg::Shutdown);
        Ok(outcome)
    }

    fn run(&mut self) -> io::Result<RunOutcome> {
        self.start()?;
        for round in 0..self.cfg.rounds {
            self.round(round)?;
            if self.cfg.round_delay_ms > 0 {
                let delay = self.cfg.round_delay_ms;
                self.with_retry(|c| c.pump(delay))?;
            }
        }
        self.finish()
    }
}

/// A counter map as the `(label, value)` pairs a snapshot carries.
fn labelled<V: Copy>(totals: &BTreeMap<&'static str, V>) -> Vec<(String, V)> {
    totals.iter().map(|(k, v)| (k.to_string(), *v)).collect()
}

/// Accept registrations on `listener` until the cluster is full. From its
/// welcome on, a worker's socket carries the heartbeat timeout as its read
/// timeout: the liveness deadline of every later read.
fn form_cluster(
    cfg: CoordinatorConfig,
    listener: &TcpListener,
    obs: Arc<ObsShared>,
    journal: Journal,
) -> io::Result<Coordinator> {
    let epoch = Instant::now();
    let liveness = Duration::from_millis(cfg.heartbeat_timeout_ms.max(1));
    let mut registry = RemoteVmRegistry::new();
    let mut conns = BTreeMap::new();
    while registry.live_count() < cfg.workers {
        let (mut stream, _) = listener.accept()?;
        stream.set_nodelay(true).ok();
        stream.set_read_timeout(Some(Duration::from_secs(10)))?;
        let now_ms = epoch.elapsed().as_millis() as u64;
        match read_msg_blocking(&mut stream)? {
            Some(NodeMsg::Hello {
                name,
                slots,
                data_addr,
            }) => match registry.register(&name, &data_addr, slots as usize, now_ms) {
                Ok(vm) => {
                    write_msg(&mut stream, &NodeMsg::Welcome { vm: vm.0 })?;
                    stream.set_read_timeout(Some(liveness))?;
                    conns.insert(
                        vm,
                        WorkerConn {
                            stream,
                            reader: FrameReader::new(),
                        },
                    );
                }
                Err(e) => {
                    let _ = write_msg(
                        &mut stream,
                        &NodeMsg::Reject {
                            reason: e.to_string(),
                        },
                    );
                }
            },
            _ => continue,
        }
    }

    let graph = ExecutionGraph::deploy(jobs::query().map_err(invalid)?).map_err(invalid)?;
    Ok(Coordinator {
        cfg,
        registry,
        conns,
        graph,
        placement: BTreeMap::new(),
        checkpoints: BTreeMap::new(),
        processed: BTreeMap::new(),
        metrics: Metrics::new(),
        journal,
        obs,
        epoch,
        last_tick: 0,
        phase_seconds: BTreeMap::new(),
        rpcs: BTreeMap::new(),
    })
}

/// Run a coordinator process to completion: accept registrations until the
/// cluster is full, deploy the job, drive the configured rounds (recovering
/// from worker failures), and return the collected outcome.
pub fn run_coordinator(cfg: CoordinatorConfig) -> io::Result<RunOutcome> {
    let listener = TcpListener::bind(&cfg.listen)?;
    let bound = listener.local_addr()?;
    if let Some(pf) = &cfg.port_file {
        fs::write(pf, bound.to_string())?;
    }

    let obs = Arc::new(ObsShared::default());
    let _obs_server = match &cfg.metrics_addr {
        Some(addr) => {
            let server = ObsServer::start(addr, obs.clone())?;
            if let Some(pf) = &cfg.metrics_port_file {
                fs::write(pf, server.addr().to_string())?;
            }
            Some(server)
        }
        None => None,
    };

    let journal = Journal::default();
    if let Some(path) = &cfg.journal_path {
        journal.attach_sink(path)?;
    }

    form_cluster(cfg, &listener, obs, journal)?.run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::OpCount;
    use crate::worker::{run_worker, WorkerConfig};

    fn edge(from: u64, to: u64, tuples: u64) -> EdgeCount {
        EdgeCount { from, to, tuples }
    }

    /// A worker hosting instance `op`, which has processed `processed`
    /// tuples, sent `sent` to instance `to` and received `received` from
    /// instance `from`.
    fn probe(op: u64, queued: u64, pending: u64, processed: u64) -> Probe {
        Probe {
            queued,
            pending,
            processed: vec![OpCount {
                op,
                count: processed,
            }],
            sent: Vec::new(),
            received: Vec::new(),
        }
    }

    #[test]
    fn quiescence_rule() {
        // feed (0) on the first worker sends to count (1) on the second.
        // [sent, received, queued at count, pending at feed, processed].
        let wave = |[sent, received, queued, pending, processed]: [u64; 5]| {
            let mut feed = probe(0, 0, pending, 0);
            feed.sent = vec![edge(0, 1, sent)];
            let mut count = probe(1, queued, 0, processed);
            count.received = vec![edge(0, 1, received)];
            vec![feed, count]
        };
        const SETTLED: [u64; 5] = [100, 100, 0, 0, 100];
        let cases = [
            ("two identical drained waves", Some(SETTLED), SETTLED, true),
            ("a first wave proves nothing", None, SETTLED, false),
            (
                "tuples queued at an operator",
                Some([100, 100, 3, 0, 97]),
                [100, 100, 3, 0, 97],
                false,
            ),
            (
                "tuples in a partial batch",
                Some([100, 100, 0, 2, 100]),
                [100, 100, 0, 2, 100],
                false,
            ),
            (
                "queues empty but sent > received: bytes still in a socket",
                Some([100, 90, 0, 0, 90]),
                [100, 90, 0, 0, 90],
                false,
            ),
            (
                "balanced now, but the counters moved between the waves",
                Some([90, 90, 0, 0, 90]),
                SETTLED,
                false,
            ),
            (
                "same traffic, but an operator processed in between",
                Some([100, 100, 0, 0, 99]),
                SETTLED,
                false,
            ),
        ];
        for (what, previous, now, quiet) in cases {
            let previous = previous.map(wave);
            assert_eq!(
                plane_is_quiet(previous.as_deref(), &wave(now), |_| true),
                quiet,
                "{what}"
            );
        }
        // A worker joined or left between the waves.
        let settled = wave(SETTLED);
        assert!(!plane_is_quiet(Some(&settled[..1]), &settled, |_| true));
    }

    /// Sums would balance here — ten tuples short on one edge, ten over on
    /// another — but each edge is held to its own account.
    #[test]
    fn edges_do_not_offset_each_other() {
        let mut a = probe(0, 0, 0, 0);
        a.sent = vec![edge(0, 1, 100), edge(0, 2, 50)];
        let mut b = probe(1, 0, 0, 90);
        b.received = vec![edge(0, 1, 90), edge(0, 2, 60)];
        let wave = vec![a, b];
        assert!(!plane_is_quiet(Some(&wave), &wave, |_| true));
    }

    /// What a lost instance was sent, or had sent, never balances again; its
    /// edges stop counting once it is no longer placed.
    #[test]
    fn edges_of_a_lost_instance_are_left_out() {
        // count (1) died with its worker after receiving 80 of feed's 100
        // tuples and sending results (2) 64; its replacement is instance 3.
        let mut survivor = probe(0, 0, 0, 0);
        survivor.sent = vec![edge(0, 1, 100)];
        survivor.received = vec![edge(1, 2, 64)];
        let wave = vec![survivor];
        assert!(!plane_is_quiet(Some(&wave), &wave, |_| true));
        assert!(plane_is_quiet(Some(&wave), &wave, |op| op.raw() != 1));
    }

    /// Liveness against a fake clock: a worker that said nothing for longer
    /// than the timeout — it was busy with one long command — and then
    /// replies is alive as of its reply; one that stays silent is not.
    #[test]
    fn any_frame_refreshes_liveness() {
        const TIMEOUT_MS: u64 = 2_000;
        let mut registry = RemoteVmRegistry::new();
        let busy = registry.register("w1", "127.0.0.1:1", 4, 0).unwrap();
        let silent = registry.register("w2", "127.0.0.1:2", 4, 0).unwrap();
        assert_eq!(registry.timed_out(2_500, TIMEOUT_MS), vec![busy, silent]);

        let reply = absorb(&mut registry, busy, 2_500, NodeMsg::Ack);
        assert_eq!(reply, Some(NodeMsg::Ack), "a reply is handed on");
        assert_eq!(registry.timed_out(2_500, TIMEOUT_MS), vec![silent]);

        let heartbeat = absorb(&mut registry, silent, 2_600, NodeMsg::Heartbeat);
        assert_eq!(heartbeat, None, "a heartbeat is absorbed");
        assert!(registry.timed_out(4_400, TIMEOUT_MS).is_empty());
        assert_eq!(registry.timed_out(4_550, TIMEOUT_MS), vec![busy]);
    }

    /// A coordinator and two workers in this process, over loopback TCP.
    /// After every round, the `count` checkpoint the coordinator stored
    /// holds no tuple towards `results` that the `results` checkpoint of the
    /// same round already reflects: `results` was captured, and `count`'s
    /// buffer trimmed, before `count` was captured.
    #[test]
    fn capture_is_downstream_first() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let workers: Vec<_> = ["w1", "w2"]
            .into_iter()
            .map(|name| {
                let config = WorkerConfig {
                    name: name.into(),
                    coordinator: addr.clone(),
                    ..WorkerConfig::default()
                };
                std::thread::spawn(move || run_worker(config))
            })
            .collect();
        let cfg = CoordinatorConfig {
            rate: 500,
            ..CoordinatorConfig::default()
        };
        let mut c = form_cluster(cfg, &listener, Arc::default(), Journal::default()).unwrap();
        c.start().unwrap();

        let count = c.logical_by_name("count").unwrap();
        let results = c.logical_by_name("results").unwrap();
        let sink = c.graph.partitions(results)[0];
        for round in 0..3 {
            c.round(round).unwrap();
            let reflected = c.checkpoints[&results]
                .timestamps()
                .get(StreamId(count.0))
                .expect("results has seen the window's frequencies");
            let stale: Vec<u64> = c.checkpoints[&count]
                .buffer
                .iter_for(sink)
                .map(|t| t.ts)
                .filter(|ts| *ts <= reflected)
                .collect();
            assert!(stale.is_empty(), "round {round}: {stale:?} <= {reflected}");
        }

        let outcome = c.finish().unwrap();
        assert_eq!(outcome, jobs::run_baseline(3, 500).unwrap());
        for worker in workers {
            worker.join().unwrap().expect("worker exits cleanly");
        }
    }
}
