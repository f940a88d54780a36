//! The worker daemon: hosts operator instances in one OS process.
//!
//! A worker dials the coordinator, registers its identity and slot capacity
//! with a [`NodeMsg::Hello`], and then runs an event loop on its main
//! thread. Every hosted [`WorkerCore`] and all worker state live on that one
//! thread; it **blocks** on a single event channel and wakes for exactly two
//! reasons:
//!
//! - a control command arrived — a reader thread parked in `read` on the
//!   control socket decodes frames and forwards them;
//! - data-plane envelopes arrived — the [`IngressServer`]'s reader threads
//!   decode them, put them on the local [`Network`] (so a hosted core cannot
//!   tell whether its upstream is local or three processes away) and post a
//!   wake-up.
//!
//! After each wake-up it answers the commands that are in, then steps every
//! core, and keeps stepping without blocking for as long as any core has
//! queued input. An idle worker therefore burns no CPU and adds no latency:
//! nothing on the command or data path waits out a timeout or a sleep.
//! Tuples for remote instances leave through the [`TcpTransport`] installed
//! on the network, [`jobs::OUT_BATCH`] to a frame. A third thread writes a
//! [`NodeMsg::Heartbeat`] every `heartbeat_ms` whatever the main thread is
//! doing, so one long command (a large `InjectMany`) cannot make a live
//! worker look dead.
//!
//! The worker is deliberately dumb: it owns no graph, no placement and no
//! reconfiguration logic. Every state transition is a coordinator command:
//! deploy, retire, pause, and the executor's [`InstanceStep`]s, which the
//! worker hands to [`WorkerCore::apply`] — the function the in-process
//! runtime calls on its own workers. That is what lets one executor run
//! every plan, and every checkpoint round, over TCP.
//!
//! [`InstanceStep`]: seep_runtime::reconfig::InstanceStep

use std::collections::BTreeMap;
use std::io;
use std::net::{Shutdown, TcpStream};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use seep_core::{LogicalOpId, OperatorId, RoutingState};
use seep_net::{
    wire, ConnectionStats, Envelope, FrameReader, IngressServer, Network, SendError, TcpTransport,
    Transport, CHANNEL_CAPACITY,
};
use seep_runtime::worker::SharedClock;
use seep_runtime::{Metrics, WorkerCore, STEP_BUDGET};

use crate::jobs;
use crate::protocol::{
    next_msg, read_msg_blocking, write_msg, ConnStat, EdgeCount, NodeMsg, OpCount, PeerRoute,
    Probe, RoutingEntry,
};

/// Configuration of one worker process.
#[derive(Debug, Clone)]
pub struct WorkerConfig {
    /// Worker identity; duplicate live names are rejected by the coordinator.
    pub name: String,
    /// Coordinator control address to dial.
    pub coordinator: String,
    /// Data-plane listen address (port 0 picks an ephemeral port).
    pub data_listen: String,
    /// Operator slots offered.
    pub slots: usize,
    /// Heartbeat interval in milliseconds.
    pub heartbeat_ms: u64,
    /// Job name used to resolve operator factories.
    pub job: String,
}

impl Default for WorkerConfig {
    fn default() -> Self {
        WorkerConfig {
            name: "worker".into(),
            coordinator: "127.0.0.1:7000".into(),
            data_listen: "127.0.0.1:0".into(),
            slots: 4,
            heartbeat_ms: 200,
            job: jobs::DEFAULT_JOB.into(),
        }
    }
}

/// Why a worker terminated abnormally.
#[derive(Debug)]
pub enum WorkerError {
    /// The coordinator refused the registration (duplicate name, no slots).
    Rejected(String),
    /// A socket or protocol failure.
    Io(io::Error),
}

impl From<io::Error> for WorkerError {
    fn from(e: io::Error) -> Self {
        WorkerError::Io(e)
    }
}

impl std::fmt::Display for WorkerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WorkerError::Rejected(reason) => write!(f, "registration rejected: {reason}"),
            WorkerError::Io(e) => write!(f, "{e}"),
        }
    }
}

/// Data tuples that crossed TCP, per `(from, to)` instance pair: one end of
/// the ledger the coordinator's quiescence rule balances. Kept per edge, not
/// per connection, because an edge names both its instances — once one of
/// them is lost with its worker, the coordinator can tell that edge's counts
/// will never balance and leave it out.
#[derive(Default)]
struct EdgeCounts(Mutex<BTreeMap<(u64, u64), u64>>);

impl EdgeCounts {
    fn add(&self, from: OperatorId, to: OperatorId, tuples: u64) {
        *self.0.lock().entry((from.raw(), to.raw())).or_default() += tuples;
    }

    fn snapshot(&self) -> Vec<EdgeCount> {
        let counts = self.0.lock();
        let edge = |(&(from, to), &tuples)| EdgeCount { from, to, tuples };
        counts.iter().map(edge).collect()
    }
}

/// The TCP transport, counting what it ships per edge.
#[derive(Default)]
struct CountingTransport {
    tcp: TcpTransport,
    sent: EdgeCounts,
}

impl Transport for CountingTransport {
    fn send(&self, addr: &str, envelope: &Envelope) -> Result<(), SendError> {
        self.tcp.send(addr, envelope)?;
        let tuples = envelope.message.tuple_count() as u64;
        self.sent.add(envelope.from, envelope.to, tuples);
        Ok(())
    }

    fn connections(&self) -> Vec<ConnectionStats> {
        self.tcp.connections()
    }
}

/// What wakes the worker's main thread.
enum Event {
    /// A command from the coordinator.
    Control(NodeMsg),
    /// The control connection ended: at a frame boundary (`Ok`) or not.
    ControlClosed(io::Result<()>),
    /// Data-plane envelopes were put on local inbound channels.
    Data,
}

/// Everything a worker process owns.
struct NodeState {
    job: String,
    network: Network,
    transport: Arc<CountingTransport>,
    ingress: IngressServer,
    received: Arc<EdgeCounts>,
    cores: BTreeMap<u64, WorkerCore>,
    clocks: BTreeMap<u32, SharedClock>,
    metrics: Metrics,
    epoch: Instant,
    paused: bool,
}

impl NodeState {
    fn missing(op: u64) -> NodeMsg {
        NodeMsg::Error {
            what: format!("no instance {op} on this worker"),
        }
    }

    fn install_peers(&self, peers: &[PeerRoute]) {
        for peer in peers {
            self.network
                .set_remote_route(OperatorId::new(peer.op), peer.addr.clone());
        }
    }

    fn routing_map(entries: &[RoutingEntry]) -> BTreeMap<LogicalOpId, RoutingState> {
        entries
            .iter()
            .map(|e| (LogicalOpId(e.downstream), e.routing.clone()))
            .collect()
    }

    /// Whether stepping again would make progress without a new event.
    fn has_work(&self) -> bool {
        !self.paused && self.cores.values().any(|c| c.queued() > 0)
    }

    fn step(&mut self) {
        if self.paused {
            return;
        }
        let (network, metrics, epoch) = (&self.network, &self.metrics, self.epoch);
        for core in self.cores.values_mut() {
            core.step(network, metrics, epoch, STEP_BUDGET);
        }
    }

    /// Handle one control command and produce its reply.
    fn handle(&mut self, msg: NodeMsg) -> NodeMsg {
        match msg {
            NodeMsg::Deploy { instances, peers } => {
                self.install_peers(&peers);
                for inst in instances {
                    let Some(operator) = jobs::build_operator(&self.job, &inst.name) else {
                        return NodeMsg::Error {
                            what: format!("job {:?} has no operator {:?}", self.job, inst.name),
                        };
                    };
                    let receiver = self.network.register(OperatorId::new(inst.op));
                    let clock = self.clocks.entry(inst.logical).or_default().clone();
                    let mut core = WorkerCore::new(
                        OperatorId::new(inst.op),
                        LogicalOpId(inst.logical),
                        operator,
                        receiver,
                        Self::routing_map(&inst.routing),
                        clock,
                        inst.is_sink,
                        true,
                    );
                    core.out_batch = jobs::OUT_BATCH;
                    self.cores.insert(inst.op, core);
                }
                NodeMsg::Ack
            }
            NodeMsg::SetPeers { peers } => {
                self.install_peers(&peers);
                NodeMsg::Ack
            }
            NodeMsg::InjectMany { op, batch } => {
                let (network, metrics, epoch) = (&self.network, &self.metrics, self.epoch);
                match (self.cores.get_mut(&op), wire::decode(&batch)) {
                    (None, _) => Self::missing(op),
                    (_, Err(e)) => NodeMsg::Error {
                        what: format!("bad source batch: {e}"),
                    },
                    (Some(core), Ok(envelope)) => {
                        for tuple in envelope.message.batch.tuples {
                            core.emit_source(tuple.key, tuple.payload, network, metrics, epoch);
                        }
                        // The `Ack` says every tuple has left, the partial
                        // last batch included.
                        core.flush_pending(network, metrics);
                        NodeMsg::Ack
                    }
                }
            }
            NodeMsg::Tick { now_ms } => {
                let (network, metrics, epoch) = (&self.network, &self.metrics, self.epoch);
                for core in self.cores.values_mut() {
                    core.tick(now_ms, network, metrics, epoch);
                }
                NodeMsg::Ack
            }
            NodeMsg::Probe => {
                // Received first, queues second: the readers deliver an
                // envelope before they count it, so a tuple counted here is
                // in `queued` below unless it has been processed already.
                let received = self.received.snapshot();
                let queued: u64 = self.cores.values().map(|c| c.queued() as u64).sum();
                let pending: u64 = self.cores.values().map(|c| c.pending_tuples() as u64).sum();
                let processed = self
                    .cores
                    .iter()
                    .map(|(op, c)| OpCount {
                        op: *op,
                        count: c.processed(),
                    })
                    .collect();
                NodeMsg::ProbeReply(Probe {
                    queued,
                    pending,
                    processed,
                    sent: self.transport.sent.snapshot(),
                    received,
                })
            }
            NodeMsg::Step { op, step } => {
                let (network, metrics, epoch) = (&self.network, &self.metrics, self.epoch);
                match self.cores.get_mut(&op) {
                    None => Self::missing(op),
                    Some(core) => match core.apply(step, network, metrics, epoch) {
                        Ok(reply) => NodeMsg::Stepped(reply),
                        Err(e) => NodeMsg::Error {
                            what: e.to_string(),
                        },
                    },
                }
            }
            NodeMsg::Pause { on } => {
                self.paused = on;
                NodeMsg::Ack
            }
            NodeMsg::Retire { op } => {
                self.cores.remove(&op);
                self.network.disconnect(OperatorId::new(op));
                NodeMsg::Ack
            }
            NodeMsg::CollectState { op } => match self.cores.get(&op) {
                None => Self::missing(op),
                Some(core) => {
                    let state = core.operator().get_processing_state();
                    match seep_core::encode_bytes(&state) {
                        Ok(bytes) => NodeMsg::StateBytes { op, bytes },
                        Err(e) => NodeMsg::Error {
                            what: format!("state serialisation failed: {e}"),
                        },
                    }
                }
            },
            NodeMsg::Stats => {
                let conns = self
                    .transport
                    .connections()
                    .into_iter()
                    .chain(self.ingress.connections())
                    .map(|c| ConnStat {
                        peer: c.peer,
                        direction: c.direction.to_string(),
                        bytes: c.bytes,
                        frames: c.frames,
                        tuples: c.tuples,
                        reconnects: c.reconnects,
                    })
                    .collect();
                NodeMsg::StatsReply { conns }
            }
            other => NodeMsg::Error {
                what: format!("unexpected command: {other:?}"),
            },
        }
    }
}

/// Forward every command on the control connection to the main thread,
/// then how the connection ended.
fn read_control(mut stream: &TcpStream, events: Sender<Event>) {
    let mut reader = FrameReader::new();
    let closed = loop {
        match next_msg(&mut stream, &mut reader) {
            Ok(Some(msg)) => {
                if events.send(Event::Control(msg)).is_err() {
                    return;
                }
            }
            Ok(None) => break Ok(()),
            Err(e) => break Err(e),
        }
    };
    let _ = events.send(Event::ControlClosed(closed));
}

/// The main thread: block for an event, answer every command that is in,
/// step the cores; block again only once no core has input queued.
fn event_loop(
    state: &mut NodeState,
    events: &Receiver<Event>,
    control: &Mutex<&TcpStream>,
) -> Result<(), WorkerError> {
    loop {
        let mut next = if state.has_work() {
            events.try_recv().ok()
        } else {
            // Senders live in the reader threads, which outlive this loop.
            events.recv().ok()
        };
        while let Some(event) = next {
            match event {
                Event::Control(NodeMsg::Shutdown) => {
                    let _ = write_msg(&mut *control.lock(), &NodeMsg::Ack);
                    return Ok(());
                }
                Event::Control(msg) => {
                    let reply = state.handle(msg);
                    write_msg(&mut *control.lock(), &reply)?;
                }
                // Coordinator gone: nothing left to host for.
                Event::ControlClosed(how) => return Ok(how?),
                Event::Data => {}
            }
            next = events.try_recv().ok();
        }
        state.step();
    }
}

/// Run a worker process until the coordinator shuts it down (or its control
/// connection drops).
pub fn run_worker(config: WorkerConfig) -> Result<(), WorkerError> {
    let (events_tx, events) = mpsc::channel();
    let network = Network::new(CHANNEL_CAPACITY);
    let received = Arc::new(EdgeCounts::default());
    let ingress = {
        let (network, received, wake) = (network.clone(), received.clone(), events_tx.clone());
        IngressServer::bind(&config.data_listen, move |envelope| {
            let (from, to) = (envelope.from, envelope.to);
            let tuples = envelope.message.tuple_count() as u64;
            // Delivered, then counted, then announced: see `NodeMsg::Probe`.
            let _ = network.send(envelope);
            received.add(from, to, tuples);
            let _ = wake.send(Event::Data);
        })?
    };

    let mut control = TcpStream::connect(&config.coordinator)?;
    control.set_nodelay(true).ok();
    write_msg(
        &mut control,
        &NodeMsg::Hello {
            name: config.name.clone(),
            slots: config.slots as u64,
            data_addr: ingress.local_addr().to_string(),
        },
    )?;
    match read_msg_blocking(&mut control)? {
        Some(NodeMsg::Welcome { .. }) => {}
        Some(NodeMsg::Reject { reason }) => return Err(WorkerError::Rejected(reason)),
        Some(other) => {
            return Err(WorkerError::Io(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("unexpected handshake reply: {other:?}"),
            )))
        }
        None => {
            return Err(WorkerError::Io(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "coordinator closed the connection during registration",
            )))
        }
    }

    let transport = Arc::new(CountingTransport::default());
    network.set_transport(transport.clone());
    let mut state = NodeState {
        job: config.job,
        network,
        transport,
        ingress,
        received,
        cores: BTreeMap::new(),
        clocks: BTreeMap::new(),
        metrics: Metrics::new(),
        epoch: Instant::now(),
        paused: false,
    };

    // Replies and heartbeats share the socket's write half, a frame at a
    // time; the read half belongs to the control reader.
    let (control, writer) = (&control, Mutex::new(&control));
    let heartbeat_every = Duration::from_millis(config.heartbeat_ms.max(1));
    let (stop_heartbeat, stopped) = mpsc::channel::<()>();
    let writer = &writer;
    std::thread::scope(|threads| {
        threads.spawn(move || read_control(control, events_tx));
        threads.spawn(move || {
            while stopped.recv_timeout(heartbeat_every) == Err(RecvTimeoutError::Timeout) {
                if write_msg(&mut *writer.lock(), &NodeMsg::Heartbeat).is_err() {
                    break;
                }
            }
        });
        let outcome = event_loop(&mut state, &events, writer);
        // Unpark both helpers so the scope can join them.
        drop(stop_heartbeat);
        let _ = control.shutdown(Shutdown::Both);
        outcome
    })
}
