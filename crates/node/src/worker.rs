//! The worker daemon: hosts operator instances in one OS process.
//!
//! A worker dials the coordinator, registers its identity and slot capacity
//! with a [`NodeMsg::Hello`], and then runs a single-threaded event loop:
//! drain control commands, poll the data-plane ingress, step every hosted
//! [`WorkerCore`], heartbeat. Tuples for remote instances leave through the
//! [`TcpTransport`] installed on the local [`Network`]; tuples arriving on
//! the [`TcpIngress`] are delivered onto the same network, so a hosted core
//! cannot tell whether its upstream is local or three processes away.
//!
//! The worker is deliberately dumb: it owns no graph, no placement and no
//! recovery logic. Every state transition — deploy, pause, restore, replay,
//! rewire — is a coordinator command, which is what lets the coordinator
//! re-run the in-process executor's recovery sequence verbatim over TCP.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use seep_core::{Checkpoint, Key, LogicalOpId, OperatorId, RoutingState, TimestampVec};
use seep_net::{FrameReader, Network, TcpIngress, TcpTransport, Transport};
use seep_runtime::worker::SharedClock;
use seep_runtime::{Metrics, WorkerCore, STEP_BUDGET};

use crate::jobs;
use crate::protocol::{
    drain_msgs, read_msg_blocking, write_msg, ConnStat, NodeMsg, OpCount, PeerRoute, RoutingEntry,
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

/// Everything a worker process owns.
struct NodeState {
    job: String,
    network: Network,
    transport: std::sync::Arc<TcpTransport>,
    ingress: TcpIngress,
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

    /// Handle one control command; `Ok` carries the reply, `Err(())` is the
    /// shutdown signal.
    fn handle(&mut self, msg: NodeMsg) -> Result<Option<NodeMsg>, ()> {
        let reply = match msg {
            NodeMsg::Deploy { instances, peers } => {
                self.install_peers(&peers);
                for inst in instances {
                    let Some(operator) = jobs::build_operator(&self.job, &inst.name) else {
                        return Ok(Some(NodeMsg::Error {
                            what: format!("job {:?} has no operator {:?}", self.job, inst.name),
                        }));
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
                    core.set_paused(self.paused);
                    self.cores.insert(inst.op, core);
                }
                Some(NodeMsg::Ack)
            }
            NodeMsg::SetPeers { peers } => {
                self.install_peers(&peers);
                Some(NodeMsg::Ack)
            }
            NodeMsg::InjectMany { op, entries } => {
                let (network, metrics, epoch) = (&self.network, &self.metrics, self.epoch);
                match self.cores.get_mut(&op) {
                    None => Some(Self::missing(op)),
                    Some(core) => {
                        for entry in entries {
                            core.emit_source(
                                Key(entry.key),
                                entry.payload,
                                network,
                                metrics,
                                epoch,
                            );
                        }
                        Some(NodeMsg::Ack)
                    }
                }
            }
            NodeMsg::Tick { now_ms } => {
                let (network, metrics, epoch) = (&self.network, &self.metrics, self.epoch);
                for core in self.cores.values_mut() {
                    core.tick(now_ms, network, metrics, epoch);
                }
                Some(NodeMsg::Ack)
            }
            NodeMsg::Probe => {
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
                let sent_tuples = self.transport.connections().iter().map(|c| c.tuples).sum();
                let received_tuples = self.ingress.connections().iter().map(|c| c.tuples).sum();
                Some(NodeMsg::ProbeReply {
                    queued,
                    pending,
                    processed,
                    sent_tuples,
                    received_tuples,
                })
            }
            NodeMsg::Capture { op, sequence } => match self.cores.get(&op) {
                None => Some(Self::missing(op)),
                Some(core) => match core.take_checkpoint(sequence).to_bytes() {
                    Ok(bytes) => Some(NodeMsg::Captured { op, bytes }),
                    Err(e) => Some(NodeMsg::Error {
                        what: format!("checkpoint failed: {e}"),
                    }),
                },
            },
            NodeMsg::TrimBuffer { op, downstream, ts } => match self.cores.get_mut(&op) {
                None => Some(Self::missing(op)),
                Some(core) => {
                    core.buffer_mut().trim(OperatorId::new(downstream), ts);
                    Some(NodeMsg::Ack)
                }
            },
            NodeMsg::Pause { on } => {
                self.paused = on;
                let (network, metrics) = (&self.network, &self.metrics);
                for core in self.cores.values_mut() {
                    if on {
                        core.flush_pending(network, metrics);
                    }
                    core.set_paused(on);
                }
                Some(NodeMsg::Ack)
            }
            NodeMsg::Restore { op, bytes } => match self.cores.get_mut(&op) {
                None => Some(Self::missing(op)),
                Some(core) => match Checkpoint::from_bytes(&bytes) {
                    Ok(cp) => {
                        // Re-emitted tuples must carry the timestamps of the
                        // originals so downstream duplicate filters drop them.
                        core.clock().reset_to(cp.emit_clock);
                        core.restore(cp);
                        Some(NodeMsg::Ack)
                    }
                    Err(e) => Some(NodeMsg::Error {
                        what: format!("bad checkpoint: {e}"),
                    }),
                },
            },
            NodeMsg::ReplayRestored { op, routing } => {
                let (network, metrics) = (&self.network, &self.metrics);
                match self.cores.get_mut(&op) {
                    None => Some(Self::missing(op)),
                    Some(core) => {
                        for entry in &routing {
                            core.set_routing(LogicalOpId(entry.downstream), entry.routing.clone());
                        }
                        let mut tuples = 0u64;
                        for target in core.buffer().downstreams() {
                            tuples += core.replay_to(target, &TimestampVec::new(), network, metrics)
                                as u64;
                        }
                        Some(NodeMsg::Replayed { tuples })
                    }
                }
            }
            NodeMsg::Rewire {
                at,
                logical,
                olds,
                routing,
                new_targets,
                reflected,
            } => {
                let (network, metrics) = (&self.network, &self.metrics);
                match self.cores.get_mut(&at) {
                    None => Some(Self::missing(at)),
                    Some(core) => {
                        core.set_routing(LogicalOpId(logical), routing.clone());
                        for old in olds {
                            let old = OperatorId::new(old);
                            if let Some(buffered) = core.buffer_mut().remove_downstream(old) {
                                for tuple in buffered {
                                    if let Some(target) = routing.route(tuple.key) {
                                        core.buffer_mut().push(target, tuple);
                                    }
                                }
                            }
                        }
                        let mut tuples = 0u64;
                        for target in &new_targets {
                            tuples += core.replay_to(
                                OperatorId::new(*target),
                                &reflected,
                                network,
                                metrics,
                            ) as u64;
                        }
                        Some(NodeMsg::Replayed { tuples })
                    }
                }
            }
            NodeMsg::CollectState { op } => match self.cores.get(&op) {
                None => Some(Self::missing(op)),
                Some(core) => {
                    let state = core.operator().get_processing_state();
                    match bincode::serialize(&state) {
                        Ok(bytes) => Some(NodeMsg::StateBytes { op, bytes }),
                        Err(e) => Some(NodeMsg::Error {
                            what: format!("state serialisation failed: {e}"),
                        }),
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
                Some(NodeMsg::StatsReply { conns })
            }
            NodeMsg::Shutdown => return Err(()),
            other => Some(NodeMsg::Error {
                what: format!("unexpected command: {other:?}"),
            }),
        };
        Ok(reply)
    }
}

/// Run a worker process until the coordinator shuts it down (or its control
/// connection drops).
pub fn run_worker(config: WorkerConfig) -> Result<(), WorkerError> {
    let ingress = TcpIngress::bind(&config.data_listen)?;
    let data_addr = ingress.local_addr().to_string();

    let mut control = TcpStream::connect(&config.coordinator)?;
    control.set_nodelay(true).ok();
    write_msg(
        &mut control,
        &NodeMsg::Hello {
            name: config.name.clone(),
            slots: config.slots as u64,
            data_addr,
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
    // Short read timeout: the event loop multiplexes control reads with
    // data-plane polling and stepping, while writes stay blocking.
    control.set_read_timeout(Some(Duration::from_millis(1)))?;

    let network = Network::new(262_144);
    let transport = std::sync::Arc::new(TcpTransport::new());
    network.set_transport(transport.clone());
    let mut state = NodeState {
        job: config.job,
        network,
        transport,
        ingress,
        cores: BTreeMap::new(),
        clocks: BTreeMap::new(),
        metrics: Metrics::new(),
        epoch: Instant::now(),
        paused: false,
    };

    let mut reader = FrameReader::new();
    let mut last_heartbeat = Instant::now();
    let heartbeat_every = Duration::from_millis(config.heartbeat_ms.max(1));
    loop {
        let (msgs, open) = drain_msgs(&mut control, &mut reader)?;
        let had_msgs = !msgs.is_empty();
        for msg in msgs {
            match state.handle(msg) {
                Ok(Some(reply)) => write_msg(&mut control, &reply)?,
                Ok(None) => {}
                Err(()) => {
                    let _ = write_msg(&mut control, &NodeMsg::Ack);
                    return Ok(());
                }
            }
        }
        if !open {
            // Coordinator gone: nothing left to host for.
            return Ok(());
        }

        let (network, metrics, epoch) = (&state.network, &state.metrics, state.epoch);
        let delivered = state.ingress.poll(&mut |env| {
            let _ = network.send(env);
        });
        let mut stepped = 0;
        for core in state.cores.values_mut() {
            stepped += core.step(network, metrics, epoch, STEP_BUDGET);
        }

        if last_heartbeat.elapsed() >= heartbeat_every {
            write_msg(&mut control, &NodeMsg::Heartbeat)?;
            control.flush().ok();
            last_heartbeat = Instant::now();
        }
        if !had_msgs && delivered == 0 && stepped == 0 {
            std::thread::sleep(Duration::from_micros(500));
        }
    }
}
