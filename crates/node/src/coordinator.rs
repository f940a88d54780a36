//! The coordinator: owns the graph, placement, checkpoints and recovery.
//!
//! One coordinator process accepts worker registrations until the requested
//! cluster size is reached, deploys the job's execution graph across the
//! workers' slots, and then drives rounds of the same schedule the
//! in-process baseline uses — inject, quiesce, tick virtual time, quiesce,
//! checkpoint, publish — entirely over the control protocol.
//!
//! The coordinator is the runtime's second [`ClusterBackend`]. It keeps the
//! runtime's own bookkeeping types — a [`Placement`] of instances on
//! workers, and a [`BackupCoordinator`] with one in-memory checkpoint store
//! per instance, held in this process on the instance's behalf — and runs
//! every checkpoint round through the runtime's [`checkpoint_operator`] and
//! every plan through the runtime's [`reconfigure`]. What those do to an
//! instance travels as one [`NodeMsg::Step`] and is carried out on the
//! worker by the same `WorkerCore::apply` the in-process runtime calls, so a
//! checkpoint round ships a delta whenever the backup holds the previous
//! capture, and every plan kind runs against live workers.
//!
//! # What a round costs
//!
//! The control plane is reply-driven: a command's round trip ends the moment
//! its reply frame is in (`read_reply` blocks in `read`; no timeout or sleep
//! sits on the path), and a command that goes to several workers — `Probe`,
//! `Tick`, `Pause`, `Stats`, `SetPeers` — is written to all of them before
//! the first reply is awaited (`fan_out`), so it costs one round trip, not
//! one per worker. A checkpoint round is one `Capture` and one `TrimBuffer`
//! step per captured instance and upstream partition. A round's
//! `InjectMany` is encoded once, whatever number of attempts it takes. The
//! time each phase took and the commands sent — a step under its own name —
//! are exported as
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
//! dead worker gets the bookkeeping a crashed VM gets in-process: it is
//! marked failed in the [`RemoteVmRegistry`], and its instances lose their
//! slots and the stores held on their behalf. Each lost instance — operator
//! or sink — is then recovered by the recovery plan, [`ReconfigPlan::recover`]
//! at π = 1, run through [`reconfigure`] while every worker is paused; the
//! workers resume, the plane quiesces, the last tick is re-sent, and the
//! interrupted step is retried. The plan is journalled as a
//! [`JournalKind::Recovery`] event and recorded in [`Metrics`] by the same
//! entry point as in-process, so a real `kill -9` shows up on `/metrics`
//! exactly like a simulated VM crash.
//!
//! Known limits of the demo driver: sources are assumed reliable (the paper
//! delegates source durability upstream), so killing the worker hosting the
//! source mid-injection can lose that round's tuples. Partitions of one
//! operator share its emit clock, and over TCP a clock lives in one worker
//! process, so every partition of an operator is placed on the worker that
//! already hosts one; recovering an operator with π ≥ 2 over TCP would need
//! a clock that outlives that worker, and is not supported.

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
    Error, ExecutionGraph, Key, LogicalOpId, OperatorId, OperatorKind, ProcessingState, Result,
    StreamId, Tuple, TupleBatch,
};
use seep_net::{wire, Envelope, FrameReader, Message};
use seep_runtime::obs::{ObsShared, ReconfigPhaseTotals, TransportConn};
use seep_runtime::reconfig::{
    checkpoint_operator, reconfigure, ClusterBackend, InstanceStep, PlanContext, StepReply,
};
use seep_runtime::{
    Journal, JournalKind, Metrics, ObsServer, ObsSnapshot, Placement, PlanTrigger, ReconfigOutcome,
    ReconfigPlan, RecoveryStrategy, SplitPolicy, StoreBackendKind,
};
use seep_store::{BackupCoordinator, MemStore};

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

/// A local failure (an encode, a socket option) as the coordinator's error.
fn local(e: io::Error) -> Error {
    Error::Invariant(e.to_string())
}

fn invalid(e: impl std::fmt::Display) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, e.to_string())
}

fn unexpected(wanted: &str, got: &NodeMsg) -> Error {
    Error::Invariant(format!("expected {wanted}, got {got:?}"))
}

fn expect_ack(reply: &NodeMsg) -> Result<()> {
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
    /// Which worker hosts which instance. Its capacity is the largest
    /// worker's slot count; each worker's own count is checked on top.
    placement: Placement,
    /// One in-memory checkpoint store per instance, held in this process on
    /// the instance's behalf: the deployment's checkpoint store.
    backup: BackupCoordinator,
    checkpoint_seq: BTreeMap<OperatorId, u64>,
    /// Last per-instance processed totals, as reported by probes.
    processed: BTreeMap<OperatorId, u64>,
    /// The first worker the current step found dead.
    lost: Option<VmId>,
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

    /// Whether live worker `vm` has a slot free once the instances in
    /// `outgoing` have left it.
    fn has_free_slot(&self, vm: VmId, outgoing: &[OperatorId]) -> bool {
        let staying = self
            .placement
            .residents(vm)
            .iter()
            .filter(|r| !outgoing.contains(r))
            .count();
        self.conns.contains_key(&vm) && self.registry.get(vm).is_some_and(|w| w.slots > staying)
    }

    /// Place `op` on `vm` and open the checkpoint store held on its behalf.
    fn adopt(&mut self, op: OperatorId, vm: VmId, outgoing: &[OperatorId]) -> Result<()> {
        self.placement.assign(op, vm, outgoing)?;
        self.backup.register_store(op, Arc::new(MemStore::new()));
        self.checkpoint_seq.insert(op, 0);
        Ok(())
    }

    /// `vm`'s worker is dead: remembered for [`with_retry`](Self::with_retry)
    /// to recover, whatever error the command that found out returns.
    fn dead(&mut self, vm: VmId) -> Error {
        self.lost.get_or_insert(vm);
        Error::Invariant(format!("worker vm{} is dead", vm.0))
    }

    /// Write one encoded command frame to a worker.
    fn send(&mut self, vm: VmId, verb: &'static str, frame: &[u8]) -> Result<()> {
        let written = match self.conns.get_mut(&vm) {
            Some(conn) => conn.stream.write_all(frame).is_ok(),
            None => false,
        };
        if !written {
            return Err(self.dead(vm));
        }
        *self.rpcs.entry(verb).or_default() += 1;
        Ok(())
    }

    /// The reply to the oldest unanswered command on `vm`'s connection,
    /// absorbing heartbeats that interleave with it. Returns the moment the
    /// reply frame is in; the worker is dead when its connection closes or
    /// stays silent for the heartbeat timeout (the socket's read timeout).
    fn read_reply(&mut self, vm: VmId) -> Result<NodeMsg> {
        loop {
            let frame = match self.conns.get_mut(&vm) {
                Some(conn) => next_msg(&mut conn.stream, &mut conn.reader),
                None => Ok(None),
            };
            let Ok(Some(frame)) = frame else {
                return Err(self.dead(vm));
            };
            let now = self.now_ms();
            match absorb(&mut self.registry, vm, now, frame) {
                None => {}
                Some(NodeMsg::Error { what }) => {
                    return Err(Error::Invariant(format!("worker vm{}: {what}", vm.0)))
                }
                Some(reply) => return Ok(reply),
            }
        }
    }

    /// One request/response exchange with a worker.
    fn rpc(&mut self, vm: VmId, msg: &NodeMsg) -> Result<NodeMsg> {
        self.send(vm, msg.verb(), &encode_msg(msg).map_err(local)?)?;
        self.read_reply(vm)
    }

    fn rpc_ack(&mut self, vm: VmId, msg: &NodeMsg) -> Result<()> {
        expect_ack(&self.rpc(vm, msg)?)
    }

    /// Several exchanges for the price of one round trip: every command is
    /// written before the first reply is awaited, and the replies come back
    /// in call order (a connection answers in the order it was asked). Only
    /// for small commands — nothing here reads while it writes.
    ///
    /// After a failure the replies still on their way are read all the same,
    /// so a retry finds every surviving connection with nothing outstanding.
    fn fan_out(&mut self, calls: &[(VmId, NodeMsg)]) -> Result<Vec<NodeMsg>> {
        let mut failure = None;
        let mut unanswered = BTreeSet::new();
        for (vm, msg) in calls {
            let sent = encode_msg(msg)
                .map_err(local)
                .and_then(|frame| self.send(*vm, msg.verb(), &frame));
            if let Err(e) = sent {
                unanswered.insert(*vm);
                failure.get_or_insert(e);
            }
        }
        let mut replies = Vec::with_capacity(calls.len());
        for (vm, _) in calls.iter().filter(|(vm, _)| !unanswered.contains(vm)) {
            match self.read_reply(*vm) {
                Ok(reply) => replies.push(reply),
                Err(e) => failure = failure.or(Some(e)),
            }
        }
        match failure {
            Some(e) => Err(e),
            None => Ok(replies),
        }
    }

    fn fan_out_ack(&mut self, calls: &[(VmId, NodeMsg)]) -> Result<()> {
        self.fan_out(calls)?.iter().try_for_each(expect_ack)
    }

    /// The same command to every live worker, in VM-id order.
    fn broadcast(&mut self, msg: &NodeMsg) -> Result<Vec<NodeMsg>> {
        let calls: Vec<(VmId, NodeMsg)> = self
            .live_vms()
            .into_iter()
            .map(|vm| (vm, msg.clone()))
            .collect();
        self.fan_out(&calls)
    }

    fn broadcast_ack(&mut self, msg: &NodeMsg) -> Result<()> {
        self.broadcast(msg)?.iter().try_for_each(expect_ack)
    }

    fn set_nonblocking(&mut self, on: bool) -> Result<()> {
        for conn in self.conns.values() {
            conn.stream.set_nonblocking(on).map_err(local)?;
        }
        Ok(())
    }

    /// Sit out `ms` wall-clock milliseconds (`--round-delay-ms`, `--hold-ms`)
    /// without issuing commands, absorbing heartbeats and noticing closed
    /// connections or timeouts. The one place the coordinator polls: it has
    /// nothing to wait *for* here, only time to pass.
    fn pump(&mut self, ms: u64) -> Result<()> {
        self.set_nonblocking(true)?;
        let outcome = self.pump_nonblocking(ms);
        self.set_nonblocking(false)?;
        outcome
    }

    fn pump_nonblocking(&mut self, ms: u64) -> Result<()> {
        let until = Instant::now() + Duration::from_millis(ms);
        loop {
            let now = self.now_ms();
            for vm in self.live_vms() {
                let drained = match self.conns.get_mut(&vm) {
                    Some(conn) => drain_msgs(&mut conn.stream, &mut conn.reader),
                    None => Ok((Vec::new(), false)),
                };
                match drained {
                    Ok((msgs, true)) => {
                        for msg in msgs {
                            absorb(&mut self.registry, vm, now, msg);
                        }
                    }
                    _ => return Err(self.dead(vm)),
                }
            }
            if let Some(&vm) = self
                .registry
                .timed_out(self.now_ms(), self.cfg.heartbeat_timeout_ms)
                .first()
            {
                return Err(self.dead(vm));
            }
            if Instant::now() >= until {
                return Ok(());
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    /// Run `step`, recovering the workers it found dead and retrying until
    /// it succeeds. Bounded: a cluster that keeps losing workers errors out.
    fn with_retry<T>(&mut self, mut step: impl FnMut(&mut Self) -> Result<T>) -> io::Result<T> {
        let give_up = || io::Error::other("too many worker failures; giving up");
        let mut attempts = 0;
        loop {
            attempts += 1;
            if attempts > 8 {
                return Err(give_up());
            }
            self.lost = None;
            let e = match step(self) {
                Ok(v) => return Ok(v),
                Err(e) => e,
            };
            let mut dead = self.lost.take().ok_or_else(|| invalid(e))?;
            // Recovery talks to the survivors, and may find another dead.
            while let Err(e) = self.recover(dead) {
                dead = self.lost.take().ok_or_else(|| invalid(e))?;
                attempts += 1;
                if attempts > 8 {
                    return Err(give_up());
                }
            }
        }
    }

    fn routing_entries(&self, logical: LogicalOpId) -> Result<Vec<RoutingEntry>> {
        self.graph
            .query()
            .downstream(logical)
            .into_iter()
            .map(|d| {
                Ok(RoutingEntry {
                    downstream: d.0,
                    routing: self.graph.routing(d)?.clone(),
                })
            })
            .collect()
    }

    fn deploy_msg(&self, inst: &OperatorInstance) -> Result<DeployInstance> {
        let meta = self.graph.query().operator(inst.logical)?;
        Ok(DeployInstance {
            op: inst.id.raw(),
            logical: inst.logical.0,
            name: meta.name.clone(),
            is_sink: meta.kind == OperatorKind::Sink,
            routing: self.routing_entries(inst.logical)?,
        })
    }

    /// The data-plane address of `vm`'s worker, as a route to `op`.
    fn route_to(&self, op: OperatorId, vm: VmId) -> Option<PeerRoute> {
        self.registry.get(vm).map(|w| PeerRoute {
            op: op.raw(),
            addr: w.data_addr.clone(),
        })
    }

    /// Remote routes a worker needs: every instance hosted elsewhere.
    fn peers_for(&self, vm: VmId) -> Vec<PeerRoute> {
        self.graph
            .instances()
            .filter_map(|i| {
                let host = self.placement.vm_of(i.id)?;
                (host != vm).then(|| self.route_to(i.id, host))?
            })
            .collect()
    }

    /// Initial placement: round-robin over name-sorted workers, skipping
    /// full ones.
    fn place_all(&mut self) -> Result<()> {
        let vms = self.live_by_name();
        let instances: Vec<OperatorId> = self.graph.instances().map(|i| i.id).collect();
        let mut next = 0usize;
        for op in instances {
            let slot = (next..next + vms.len())
                .find(|k| self.has_free_slot(vms[k % vms.len()], &[]))
                .ok_or_else(|| Error::Invariant(format!("no free slot for instance {op}")))?;
            self.adopt(op, vms[slot % vms.len()], &[])?;
            next = slot + 1;
        }
        Ok(())
    }

    fn deploy_all(&mut self) -> Result<()> {
        for vm in self.live_vms() {
            let instances: Vec<DeployInstance> = self
                .graph
                .instances()
                .filter(|i| self.placement.vm_of(i.id) == Some(vm))
                .map(|i| self.deploy_msg(i))
                .collect::<Result<_>>()?;
            let peers = self.peers_for(vm);
            self.rpc_ack(vm, &NodeMsg::Deploy { instances, peers })?;
        }
        Ok(())
    }

    /// One probe wave: every live worker's counters, in VM-id order, taken
    /// with one pipelined round trip.
    fn probe_wave(&mut self) -> Result<Vec<Probe>> {
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
    fn quiesce(&mut self) -> Result<()> {
        let mut previous: Option<Vec<Probe>> = None;
        loop {
            let wave = self.probe_wave()?;
            if plane_is_quiet(previous.as_deref(), &wave, |op| {
                self.placement.vm_of(op).is_some()
            }) {
                return Ok(());
            }
            previous = Some(wave);
        }
    }

    fn tick_all(&mut self, now_ms: u64) -> Result<()> {
        self.broadcast_ack(&NodeMsg::Tick { now_ms })
    }

    /// Checkpoint every stateful and sink instance through the runtime's own
    /// [`checkpoint_operator`]: a delta when the instance's backup holds the
    /// previous capture, the whole state otherwise, backed up in the store
    /// this process holds for the upstream, then the upstream buffers
    /// trimmed to it. Instances are visited downstream-first, as the
    /// in-process runtime does: by the time an operator is captured, its own
    /// output buffer has been trimmed by this round's checkpoints of its
    /// downstreams, so the stored checkpoint carries no tuple a downstream
    /// checkpoint already reflects.
    fn capture_round(&mut self) -> Result<()> {
        let query = self.graph.query();
        let targets: Vec<OperatorId> = query
            .topological_order()?
            .into_iter()
            .rev()
            .filter(|logical| {
                query
                    .operator(*logical)
                    .is_ok_and(|o| matches!(o.kind, OperatorKind::Stateful | OperatorKind::Sink))
            })
            .flat_map(|logical| self.graph.partitions(logical).to_vec())
            .collect();
        for op in targets {
            checkpoint_operator(self, op)?;
        }
        Ok(())
    }

    /// Run `plans` against the live workers through the runtime's own entry
    /// point ([`reconfigure`]), inside the frame a remote cluster needs:
    /// every worker paused while they run, then resumed and the plane
    /// quiesced.
    fn run_plans(&mut self, plans: &[(ReconfigPlan, JournalKind)]) -> Result<Vec<ReconfigOutcome>> {
        self.broadcast_ack(&NodeMsg::Pause { on: true })?;
        let outcomes = plans
            .iter()
            .map(|(plan, kind)| reconfigure(self, plan, *kind))
            .collect::<Result<_>>()?;
        self.broadcast_ack(&NodeMsg::Pause { on: false })?;
        self.quiesce()?;
        // Best effort: surface the plans on /metrics immediately.
        let _ = self.refresh_obs();
        Ok(outcomes)
    }

    /// A worker died: the failure bookkeeping `Runtime::fail_operator` does
    /// for a crashed VM — the worker is marked failed, and its instances
    /// lose their slots and the stores held on their behalf — then the
    /// recovery plan of every lost instance, serial (π = 1), and the last
    /// tick re-sent for whatever was restored from before it.
    fn recover(&mut self, dead: VmId) -> Result<()> {
        self.registry.mark_failed(dead);
        self.conns.remove(&dead);
        let lost = self.placement.residents(dead).to_vec();
        if lost.is_empty() {
            return Ok(());
        }
        let mut plans = Vec::with_capacity(lost.len());
        for op in lost {
            self.placement.release(op);
            self.backup.unregister_store(op);
            let plan = ReconfigPlan::recover(op, 1, SplitPolicy::Even);
            plans.push((plan, JournalKind::Recovery));
        }
        self.run_plans(&plans)?;
        if self.last_tick > 0 {
            self.tick_all(self.last_tick)?;
            self.quiesce()?;
        }
        Ok(())
    }

    /// Publish a fresh snapshot to the scrape endpoint: coordinator
    /// metrics, store I/O, per-kind plan phase times, round phase times and
    /// command counts, plus every worker's transport counters and heartbeat
    /// lags.
    fn refresh_obs(&mut self) -> Result<()> {
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
            .placement
            .occupied_vms()
            .into_iter()
            .map(|vm| (vm.0, self.placement.occupancy(vm)))
            .collect();
        self.obs.update(ObsSnapshot {
            now_ms: now,
            metrics: self.metrics.snapshot(),
            latency: self.metrics.latency_histogram(),
            store_io: self.metrics.store_io_all(),
            reconfig_phases: ReconfigPhaseTotals::from_records(&self.metrics.reconfigs()),
            occupancy,
            slots_per_vm: self.placement.slots_per_vm(),
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

    fn logical_by_name(&self, name: &str) -> Result<LogicalOpId> {
        self.graph
            .query()
            .operators()
            .find(|o| o.name == name)
            .map(|o| o.id)
            .ok_or_else(|| Error::Invariant(format!("job has no operator {name:?}")))
    }

    /// Collect the sink state and assemble the run's outcome.
    fn collect_outcome(&mut self) -> Result<RunOutcome> {
        let sink = self.graph.partitions(self.logical_by_name("results")?)[0];
        let host = self.placement.vm_of_required(sink)?;
        let bytes = match self.rpc(host, &NodeMsg::CollectState { op: sink.raw() })? {
            NodeMsg::StateBytes { bytes, .. } => bytes,
            other => return Err(unexpected("StateBytes", &other)),
        };
        let state: ProcessingState = bincode::deserialize(&bytes)?;
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

    /// The encoded `InjectMany` of one round into `source`.
    fn inject_request(&self, source: OperatorId, round: u64) -> Result<Vec<u8>> {
        let mut batch = TupleBatch::with_capacity(self.cfg.rate as usize);
        for word in jobs::round_words(round, self.cfg.rate, jobs::VOCAB) {
            batch.push(Tuple::encode(0, Key::from_str_key(&word), &word)?, 0);
        }
        let envelope = Envelope::new(source, source, Message::data_batch(StreamId(0), batch));
        encode_msg(&NodeMsg::InjectMany {
            op: source.raw(),
            batch: Bytes::from(wire::encode(&envelope)),
        })
        .map_err(local)
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
        let feed = self.logical_by_name("feed").map_err(invalid)?;
        self.phase("inject", |c| {
            // Encoded once, whatever number of attempts it takes — again
            // only if the source itself was lost and replaced.
            let mut request: Option<(OperatorId, Vec<u8>)> = None;
            c.with_retry(|c| {
                let source = c.graph.partitions(feed)[0];
                if request.as_ref().is_none_or(|(op, _)| *op != source) {
                    request = Some((source, c.inject_request(source, round)?));
                }
                let host = c.placement.vm_of_required(source)?;
                let (_, frame) = request.as_ref().expect("encoded above");
                c.send(host, "InjectMany", frame)?;
                expect_ack(&c.read_reply(host)?)
            })
        })?;
        self.phase("quiesce", |c| c.with_retry(|c| c.quiesce()))?;
        let now_ms = (round + 1) * 1_000;
        self.phase("tick", |c| c.with_retry(|c| c.tick_all(now_ms)))?;
        self.last_tick = now_ms;
        self.phase("quiesce", |c| c.with_retry(|c| c.quiesce()))?;
        self.phase("capture", |c| c.with_retry(|c| c.capture_round()))?;
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

/// The remote backend: a step goes to the worker process hosting the
/// instance, a new instance goes to a live worker with a free slot — one
/// already hosting a partition of the same operator when there is one,
/// because partitions share their operator's emit clock and a clock lives in
/// one process — and an emptied worker stays registered.
impl ClusterBackend for Coordinator {
    fn graph(&self) -> &ExecutionGraph {
        &self.graph
    }

    fn graph_mut(&mut self) -> &mut ExecutionGraph {
        &mut self.graph
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
            now_ms: self.last_tick,
            trigger: PlanTrigger::Manual,
            strategy: RecoveryStrategy::StateManagement,
            store: StoreBackendKind::Mem.label(),
        }
    }

    fn hosts(&self, op: OperatorId) -> bool {
        self.placement.vm_of(op).is_some()
    }

    fn is_live(&self, op: OperatorId) -> bool {
        self.hosts(op)
    }

    fn apply(&mut self, op: OperatorId, step: InstanceStep) -> Result<StepReply> {
        let host = self.placement.vm_of_required(op)?;
        match self.rpc(host, &NodeMsg::Step { op: op.raw(), step })? {
            NodeMsg::Stepped(reply) => Ok(reply),
            other => Err(unexpected("Stepped", &other)),
        }
    }

    fn deploy(
        &mut self,
        instance: &OperatorInstance,
        vm: Option<VmId>,
        replaced: &[OperatorId],
    ) -> Result<()> {
        let near: Vec<VmId> = replaced
            .iter()
            .chain(self.graph.partitions(instance.logical))
            .filter_map(|op| self.placement.vm_of(*op))
            .chain(self.live_by_name())
            .collect();
        let vm = vm
            .or_else(|| {
                near.into_iter()
                    .find(|vm| self.has_free_slot(*vm, replaced))
            })
            .ok_or_else(|| Error::Invariant("no live worker with a free slot".into()))?;
        self.adopt(instance.id, vm, replaced)?;
        let deploy = NodeMsg::Deploy {
            instances: vec![self.deploy_msg(instance)?],
            peers: self.peers_for(vm),
        };
        self.rpc_ack(vm, &deploy)?;
        let route = NodeMsg::SetPeers {
            peers: self.route_to(instance.id, vm).into_iter().collect(),
        };
        let others: Vec<(VmId, NodeMsg)> = self
            .live_vms()
            .into_iter()
            .filter(|other| *other != vm)
            .map(|other| (other, route.clone()))
            .collect();
        self.fan_out_ack(&others)
    }

    fn retire(&mut self, olds: &[OperatorId]) -> Vec<VmId> {
        let mut emptied = Vec::new();
        for old in olds {
            if let Some(vm) = self.placement.vm_of(*old) {
                // A dead host is left to the next command to find.
                let _ = self.rpc_ack(vm, &NodeMsg::Retire { op: old.raw() });
            }
            self.backup.unregister_store(*old);
            self.backup.clear_backup_of(*old);
            self.checkpoint_seq.remove(old);
            if let Some((vm, true)) = self.placement.release(*old) {
                emptied.push(vm);
            }
        }
        emptied
    }

    /// An emptied worker stays registered: it is a live process, not a VM
    /// drawn from a pool.
    fn release_vm(&mut self, _vm: VmId) {}

    fn next_checkpoint_seq(&mut self, op: OperatorId) -> u64 {
        let seq = self.checkpoint_seq.entry(op).or_insert(0);
        *seq += 1;
        *seq
    }

    fn checkpoint_taken(&mut self, _op: OperatorId) {}

    fn committed(&mut self, _logical: LogicalOpId, _kind: JournalKind) {}

    /// [`run_plans`](Coordinator::run_plans) publishes once the cluster has
    /// resumed.
    fn publish(&self) {}
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
    let slots = registry.live().iter().map(|w| w.slots).max().unwrap_or(1);
    Ok(Coordinator {
        cfg,
        registry,
        conns,
        graph,
        placement: Placement::new(slots),
        backup: BackupCoordinator::new(),
        checkpoint_seq: BTreeMap::new(),
        processed: BTreeMap::new(),
        lost: None,
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
    use std::thread::JoinHandle;

    use seep_operators::word_count::WordFrequency;
    use seep_runtime::{Job, JobHandle, RuntimeConfig};

    use crate::protocol::OpCount;
    use crate::worker::{run_worker, WorkerConfig, WorkerError};

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

    /// A coordinator and two workers in this process, over loopback TCP,
    /// deployed and ready for rounds of `rate` words.
    fn cluster_in_process(
        rate: u64,
    ) -> (
        Coordinator,
        Vec<JoinHandle<std::result::Result<(), WorkerError>>>,
    ) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let workers = ["w1", "w2"]
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
            rate,
            ..CoordinatorConfig::default()
        };
        let mut c = form_cluster(cfg, &listener, Arc::default(), Journal::default()).unwrap();
        c.start().unwrap();
        (c, workers)
    }

    /// After every round, the `count` checkpoint the coordinator holds has
    /// no tuple towards `results` that the `results` checkpoint of the same
    /// round already reflects: `results` was captured, and `count`'s buffer
    /// trimmed, before `count` was captured.
    #[test]
    fn capture_is_downstream_first() {
        let (mut c, workers) = cluster_in_process(500);
        let count = c.logical_by_name("count").unwrap();
        let results = c.logical_by_name("results").unwrap();
        let sink = c.graph.partitions(results)[0];
        let counter = c.graph.partitions(count)[0];
        for round in 0..3 {
            c.round(round).unwrap();
            let reflected = c
                .backup
                .retrieve(sink)
                .unwrap()
                .timestamps()
                .get(StreamId(count.0))
                .expect("results has seen the window's frequencies");
            let stale: Vec<u64> = c
                .backup
                .retrieve(counter)
                .unwrap()
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

    /// Plans other than recovery run against live workers through the same
    /// entry point and executor as in-process: `count` is scaled out to two
    /// partitions, rebalanced and scaled back in between rounds, each plan
    /// journalled and recorded once, every partition beside its operator's
    /// emit clock; a round that follows a round, not a plan, ships the
    /// sink's checkpoint as a delta; and the results are exactly those of
    /// the in-process runtime running the same plans at the same points.
    ///
    /// Not those of a never-reconfigured run: a split hands the counter's
    /// window bookkeeping to one partition only, so the other restarts its
    /// window numbering — in-process as much as here.
    #[test]
    fn every_plan_kind_runs_against_live_workers() {
        const ROUNDS: u64 = 8;
        let (mut c, workers) = cluster_in_process(500);
        let count = c.logical_by_name("count").unwrap();
        let results = c.logical_by_name("results").unwrap();
        let mut after_plan = BTreeSet::new();
        for round in 0..ROUNDS {
            c.round(round).unwrap();
            let parts = c.graph.partitions(count).to_vec();
            let (plan, kind, parallelism) = match round {
                1 => (
                    ReconfigPlan::scale_out(parts[0], 2, SplitPolicy::Even),
                    JournalKind::ScaleOut,
                    2,
                ),
                3 => (ReconfigPlan::rebalance(count), JournalKind::Rebalance, 2),
                5 => (
                    ReconfigPlan::scale_in(parts[0], parts[1]),
                    JournalKind::ScaleIn,
                    1,
                ),
                _ => continue,
            };
            let outcome = c.run_plans(&[(plan, kind)]).unwrap().remove(0);
            assert_eq!(outcome.new_parallelism, parallelism, "{kind:?}");
            assert_eq!(c.graph.partitions(count), outcome.new_operators.as_slice());
            let hosts: BTreeSet<VmId> = outcome
                .new_operators
                .iter()
                .map(|op| c.placement.vm_of(*op).unwrap())
                .collect();
            assert_eq!(hosts.len(), 1, "{kind:?}: {hosts:?}");
            after_plan.insert(round + 1);
        }

        let events = c.journal.events();
        let kinds: Vec<JournalKind> = events.iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            [
                JournalKind::ScaleOut,
                JournalKind::Rebalance,
                JournalKind::ScaleIn
            ]
        );
        assert!(events.iter().all(|e| e.committed()));
        assert_eq!(c.metrics.reconfigs().len(), 3);

        let sink = c.graph.partitions(results)[0];
        let captures: Vec<(u64, bool)> = c
            .metrics
            .checkpoints()
            .iter()
            .filter(|r| r.operator == sink)
            .map(|r| (r.at_ms / 1_000 - 1, r.incremental))
            .collect();
        assert_eq!(captures.len() as u64, ROUNDS);
        for (round, incremental) in captures {
            if round > 0 && !after_plan.contains(&round) {
                assert!(incremental, "round {round} shipped a full capture");
            }
        }

        let outcome = c.finish().unwrap();
        let twin = in_process_twin(ROUNDS, 500, |round, handle| {
            let parts = handle.partitions("count");
            match round {
                1 => drop(handle.scale_out(parts[0], 2).unwrap()),
                3 => drop(handle.rebalance_operator("count").unwrap()),
                5 => drop(handle.scale_in(parts[0], parts[1]).unwrap()),
                _ => {}
            }
        });
        assert!(outcome.results == twin, "results differ from in-process");
        for worker in workers {
            worker.join().unwrap().expect("worker exits cleanly");
        }
    }

    /// The sink's backup lives with `count`, its only upstream. A scale out
    /// that retires `count` hands that backup on to a new partition, so
    /// `results`, failed and recovered before its next round, comes back
    /// with every `(word, window)` cell it held.
    #[test]
    fn a_scale_out_hands_on_the_backups_its_target_held() {
        let scale_out = |handle: &mut JobHandle| {
            let target = handle.partitions("count")[0];
            drop(handle.scale_out(target, 2).unwrap());
        };
        let unfailed = in_process_twin(6, 500, |round, handle| {
            if round == 3 {
                scale_out(handle);
            }
        });
        let recovered = in_process_twin(6, 500, |round, handle| {
            if round == 3 {
                scale_out(handle);
                let sink = handle.partitions("results")[0];
                handle.fail_operator(sink);
                handle.recover(sink, 1).unwrap();
            }
        });
        assert_eq!(recovered.len(), unfailed.len());
        assert!(
            recovered == unfailed,
            "results differ from the unfailed run"
        );
    }

    /// The `wordfreq` job in-process on the coordinator's schedule — inject,
    /// drain, tick, drain, checkpoint `results` then `count` — with
    /// `between_rounds` run after each round; the sink's results.
    fn in_process_twin(
        rounds: u64,
        rate: u64,
        between_rounds: impl Fn(u64, &mut JobHandle),
    ) -> Vec<WordFrequency> {
        let mut config = RuntimeConfig::default()
            .with_batch_size(jobs::OUT_BATCH)
            .with_checkpoint_interval(u64::MAX);
        config.scaling_policy.report_interval_ms = u64::MAX;
        let build =
            |name: &'static str| move || jobs::build_operator(jobs::DEFAULT_JOB, name).unwrap();
        let mut handle = Job::builder(config)
            .source("feed", build("feed"))
            .then_stateful("count", build("count"))
            .sink("results", build("results"))
            .deploy()
            .unwrap();
        for round in 0..rounds {
            for word in jobs::round_words(round, rate, jobs::VOCAB) {
                handle
                    .inject_encoded("feed", Key::from_str_key(&word), &word)
                    .unwrap();
            }
            handle.drain();
            handle.advance_to((round + 1) * 1_000);
            handle.drain();
            let targets = [handle.partitions("results"), handle.partitions("count")];
            for op in targets.concat() {
                handle.checkpoint_operator(op).unwrap();
            }
            between_rounds(round, &mut handle);
            handle.drain();
        }
        let sink = handle.partitions("results")[0];
        let state = handle
            .with_operator(sink, |op| op.get_processing_state())
            .unwrap();
        jobs::decode_sink_state(&state)
    }
}
