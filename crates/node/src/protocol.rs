//! The coordinator ↔ worker control protocol.
//!
//! Bincode-encoded [`NodeMsg`] values in the same length-prefixed frames
//! ([`seep_net::frame`]) the data plane uses. The protocol is strictly
//! request/response from the coordinator's point of view — every command it
//! sends is answered by exactly one reply, and a connection answers in the
//! order it was asked, so the coordinator may write several commands (to
//! one worker or to many) before it reads the first reply. The one
//! exception: workers push unsolicited [`NodeMsg::Heartbeat`] messages on
//! the same connection, which the coordinator absorbs while waiting for
//! replies.
//!
//! Data-plane tuples never travel here: workers stream batches peer-to-peer
//! over [`seep_net::TcpTransport`]. The control plane only carries commands,
//! the executor's [`InstanceStep`]s (whose captures and restores carry
//! checkpoints) and state collections. Bulk fields (a round's source tuples,
//! checkpoints, collected state) are [`Bytes`] blobs, written raw; a
//! `Vec<u8>` would be lowered to a sequence of tagged integers.

use std::io::{self, Read, Write};

use bytes::Bytes;
use serde::{Deserialize, Serialize};

use seep_core::RoutingState;
use seep_net::{build_frame, FrameReader};
use seep_runtime::reconfig::{InstanceStep, StepReply};

/// One operator instance a worker is asked to host.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeployInstance {
    /// Physical operator instance id (raw).
    pub op: u64,
    /// Logical operator id (raw).
    pub logical: u32,
    /// Logical operator name — the worker resolves the operator factory
    /// from this name and its `--job`.
    pub name: String,
    /// Whether the instance is a sink.
    pub is_sink: bool,
    /// Routing towards each logical downstream operator.
    pub routing: Vec<RoutingEntry>,
}

/// Routing state towards one logical downstream operator.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RoutingEntry {
    /// Raw id of the logical downstream operator.
    pub downstream: u32,
    /// Key-range routing towards its partitions.
    pub routing: RoutingState,
}

/// Data-plane address of a remote instance.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PeerRoute {
    /// Raw physical operator id.
    pub op: u64,
    /// `host:port` of the data-plane listener of the hosting worker.
    pub addr: String,
}

/// Per-instance processed count, as reported by probes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OpCount {
    /// Raw physical operator id.
    pub op: u64,
    /// Tuples processed by the instance since it was deployed.
    pub count: u64,
}

/// Tuples that crossed one edge of the execution graph over TCP, as counted
/// at one end of it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EdgeCount {
    /// Raw id of the sending instance.
    pub from: u64,
    /// Raw id of the receiving instance.
    pub to: u64,
    /// Data tuples so far.
    pub tuples: u64,
}

/// One worker's answer to [`NodeMsg::Probe`]: what it still holds and what
/// has crossed its sockets. The coordinator's quiescence rule is a function
/// of these alone.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Probe {
    /// Tuples queued on local inbound channels.
    pub queued: u64,
    /// Output tuples in partially filled batches.
    pub pending: u64,
    /// Per-instance processed totals.
    pub processed: Vec<OpCount>,
    /// Data tuples written to the TCP transport so far, per edge.
    pub sent: Vec<EdgeCount>,
    /// Data tuples that arrived over TCP **and were delivered to a local
    /// inbound channel** so far, per edge. Read before `queued`, so a tuple
    /// counted here is either in `queued` or already processed.
    pub received: Vec<EdgeCount>,
}

/// Counters for one data-plane connection, as reported by `Stats`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ConnStat {
    /// Peer address.
    pub peer: String,
    /// `"out"` or `"in"`.
    pub direction: String,
    /// Envelope payload bytes.
    pub bytes: u64,
    /// Complete frames.
    pub frames: u64,
    /// Data tuples carried.
    pub tuples: u64,
    /// Re-dials after connection failures.
    pub reconnects: u64,
}

/// A control-plane message.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum NodeMsg {
    /// Worker → coordinator: register this process as a VM.
    Hello {
        /// Worker identity (`--name`).
        name: String,
        /// Operator slots offered.
        slots: u64,
        /// Data-plane listen address peers should dial.
        data_addr: String,
    },
    /// Coordinator → worker: registration accepted.
    Welcome {
        /// The VM id assigned to the worker.
        vm: u64,
    },
    /// Coordinator → worker: registration refused (duplicate name, no slots).
    Reject {
        /// Human-readable refusal reason.
        reason: String,
    },
    /// Worker → coordinator: liveness signal (unsolicited).
    Heartbeat,
    /// Host the given instances and install remote routes.
    Deploy {
        /// Instances this worker must host.
        instances: Vec<DeployInstance>,
        /// Data-plane addresses of instances hosted elsewhere.
        peers: Vec<PeerRoute>,
    },
    /// Install (additional) remote routes.
    SetPeers {
        /// Data-plane addresses of instances hosted elsewhere.
        peers: Vec<PeerRoute>,
    },
    /// Inject source tuples at a locally hosted source instance.
    InjectMany {
        /// The source instance.
        op: u64,
        /// The tuples to emit — key and payload of each; timestamps are
        /// assigned by the source — as one [`seep_net::wire`] envelope.
        batch: Bytes,
    },
    /// Trigger time-based operator behaviour on every local instance.
    Tick {
        /// Virtual time in milliseconds.
        now_ms: u64,
    },
    /// Request the worker's quiescence counters.
    Probe,
    /// Reply to [`NodeMsg::Probe`].
    ProbeReply(Probe),
    /// Carry out one step of a reconfiguration plan or a checkpoint round on
    /// a local instance: what the in-process runtime does to its own
    /// workers, shipped (see [`seep_runtime::reconfig`]).
    Step {
        /// The instance.
        op: u64,
        /// What to do.
        step: InstanceStep,
    },
    /// Reply to [`NodeMsg::Step`].
    Stepped(StepReply),
    /// Pause or resume the worker: a paused worker steps none of its
    /// instances; a plan's [`InstanceStep`]s still run.
    Pause {
        /// `true` to pause, `false` to resume.
        on: bool,
    },
    /// Stop hosting an instance a plan replaced.
    Retire {
        /// The replaced instance.
        op: u64,
    },
    /// Fetch a local instance's processing state (result collection).
    CollectState {
        /// The instance to read.
        op: u64,
    },
    /// Reply to [`NodeMsg::CollectState`].
    StateBytes {
        /// The instance read.
        op: u64,
        /// Bincode-encoded `ProcessingState`.
        bytes: Bytes,
    },
    /// Request data-plane connection counters.
    Stats,
    /// Reply to [`NodeMsg::Stats`].
    StatsReply {
        /// Transport and ingress connection counters.
        conns: Vec<ConnStat>,
    },
    /// Generic success reply.
    Ack,
    /// Generic failure reply.
    Error {
        /// What went wrong.
        what: String,
    },
    /// Coordinator → worker: exit cleanly.
    Shutdown,
}

impl NodeMsg {
    /// The message's variant name — the `verb` label of the coordinator's
    /// per-command counters.
    pub fn verb(&self) -> &'static str {
        match self {
            NodeMsg::Hello { .. } => "Hello",
            NodeMsg::Welcome { .. } => "Welcome",
            NodeMsg::Reject { .. } => "Reject",
            NodeMsg::Heartbeat => "Heartbeat",
            NodeMsg::Deploy { .. } => "Deploy",
            NodeMsg::SetPeers { .. } => "SetPeers",
            NodeMsg::InjectMany { .. } => "InjectMany",
            NodeMsg::Tick { .. } => "Tick",
            NodeMsg::Probe => "Probe",
            NodeMsg::ProbeReply(_) => "ProbeReply",
            NodeMsg::Step { step, .. } => step.verb(),
            NodeMsg::Stepped(_) => "Stepped",
            NodeMsg::Pause { .. } => "Pause",
            NodeMsg::Retire { .. } => "Retire",
            NodeMsg::CollectState { .. } => "CollectState",
            NodeMsg::StateBytes { .. } => "StateBytes",
            NodeMsg::Stats => "Stats",
            NodeMsg::StatsReply { .. } => "StatsReply",
            NodeMsg::Ack => "Ack",
            NodeMsg::Error { .. } => "Error",
            NodeMsg::Shutdown => "Shutdown",
        }
    }
}

fn invalid(e: impl std::fmt::Display) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, e.to_string())
}

/// Encode `msg` as one complete frame (length prefix included), ready to be
/// written — once, or to several workers, or again on a retry.
pub fn encode_msg(msg: &NodeMsg) -> io::Result<Vec<u8>> {
    let mut encoded = Ok(());
    let frame = build_frame(64, |out| encoded = bincode::serialize_into(out, msg))?;
    encoded.map_err(invalid)?;
    Ok(frame)
}

/// Encode `msg` and write it as one frame.
pub fn write_msg<W: Write>(w: &mut W, msg: &NodeMsg) -> io::Result<()> {
    w.write_all(&encode_msg(msg)?)
}

/// Decode one framed message payload.
pub fn decode_msg(frame: &[u8]) -> io::Result<NodeMsg> {
    bincode::deserialize(frame).map_err(invalid)
}

/// Blocking read of the next message from a stream (registration handshake).
/// Returns `Ok(None)` on clean EOF.
pub fn read_msg_blocking<R: Read>(r: &mut R) -> io::Result<Option<NodeMsg>> {
    match seep_net::read_frame(r)? {
        Some(frame) => Ok(Some(decode_msg(&frame)?)),
        None => Ok(None),
    }
}

/// The next message on a connection that outlives one exchange: a message
/// already buffered in `reader` if there is one, else read `stream` — which
/// blocks — until a whole frame is in. `Ok(None)` is end of stream; a read
/// timeout set on the socket surfaces as the error the socket reports
/// (`WouldBlock` or `TimedOut`).
pub fn next_msg<R: Read>(stream: &mut R, reader: &mut FrameReader) -> io::Result<Option<NodeMsg>> {
    loop {
        if let Some(frame) = reader.next_frame()? {
            return decode_msg(frame).map(Some);
        }
        if reader.fill_from(stream)? == 0 {
            return Ok(None);
        }
    }
}

/// Pull every decodable message out of readable (non-blocking) stream bytes.
///
/// Reads until the socket would block (or EOF), pushing bytes through
/// `reader` and decoding complete frames. Returns the decoded messages and
/// whether the stream is still open.
pub fn drain_msgs<R: Read>(
    stream: &mut R,
    reader: &mut FrameReader,
) -> io::Result<(Vec<NodeMsg>, bool)> {
    let mut msgs = Vec::new();
    loop {
        let open = match reader.fill_from(stream) {
            Ok(0) => Some(false),
            Ok(_) => None,
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                Some(true)
            }
            Err(e) => return Err(e),
        };
        while let Some(frame) = reader.next_frame()? {
            msgs.push(decode_msg(frame)?);
        }
        if let Some(open) = open {
            return Ok((msgs, open));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seep_core::{Checkpoint, KeyRange, LogicalOpId, OperatorId, TimestampVec};

    #[test]
    fn messages_roundtrip_through_bincode() {
        let mut routing = RoutingState::new();
        routing.set_route(KeyRange::full(), OperatorId::new(7));
        let mut reflected = TimestampVec::new();
        reflected.advance(seep_core::StreamId(0), 41);
        let msgs = vec![
            NodeMsg::Hello {
                name: "w1".into(),
                slots: 4,
                data_addr: "127.0.0.1:9000".into(),
            },
            NodeMsg::Welcome { vm: 3 },
            NodeMsg::Heartbeat,
            NodeMsg::Deploy {
                instances: vec![DeployInstance {
                    op: 1,
                    logical: 0,
                    name: "feed".into(),
                    is_sink: false,
                    routing: vec![RoutingEntry {
                        downstream: 1,
                        routing: routing.clone(),
                    }],
                }],
                peers: vec![PeerRoute {
                    op: 2,
                    addr: "127.0.0.1:9001".into(),
                }],
            },
            NodeMsg::InjectMany {
                op: 1,
                batch: Bytes::from(vec![0, 1, 2, 0xff]),
            },
            NodeMsg::ProbeReply(Probe {
                queued: 1,
                pending: 0,
                processed: vec![OpCount { op: 1, count: 10 }],
                sent: vec![EdgeCount {
                    from: 1,
                    to: 2,
                    tuples: 5,
                }],
                received: Vec::new(),
            }),
            NodeMsg::Step {
                op: 2,
                step: InstanceStep::Restore {
                    checkpoint: Checkpoint::empty(OperatorId::new(2)),
                    reset_clock: true,
                },
            },
            NodeMsg::Step {
                op: 0,
                step: InstanceStep::SetRouting {
                    downstream: LogicalOpId(1),
                    routing,
                },
            },
            NodeMsg::Step {
                op: 0,
                step: InstanceStep::ReplayTo {
                    target: OperatorId::new(4),
                    reflected: reflected.clone(),
                },
            },
            NodeMsg::Stepped(StepReply::Reflected(reflected)),
            NodeMsg::Retire { op: 1 },
            NodeMsg::Error {
                what: "nope".into(),
            },
        ];
        for msg in msgs {
            let frame = encode_msg(&msg).unwrap();
            assert_eq!(
                decode_msg(&frame[seep_net::FRAME_HEADER_LEN..]).unwrap(),
                msg
            );
        }
    }

    /// A blob field costs its length plus a few bytes of framing, not a
    /// tagged integer per byte.
    #[test]
    fn blobs_travel_raw() {
        let blob = vec![0xabu8; 10_000];
        let frame = encode_msg(&NodeMsg::InjectMany {
            op: 1,
            batch: Bytes::from(blob.clone()),
        })
        .unwrap();
        assert!(frame.len() < blob.len() + 64, "{} bytes", frame.len());
    }

    /// `next_msg` hands out buffered messages before it reads again, and
    /// reports the end of the stream once.
    #[test]
    fn next_msg_blocks_per_message() {
        let mut wire = Vec::new();
        write_msg(&mut wire, &NodeMsg::Heartbeat).unwrap();
        write_msg(&mut wire, &NodeMsg::Ack).unwrap();
        let mut reader = FrameReader::new();
        let mut cursor = std::io::Cursor::new(wire);
        assert_eq!(
            next_msg(&mut cursor, &mut reader).unwrap(),
            Some(NodeMsg::Heartbeat)
        );
        assert_eq!(
            next_msg(&mut cursor, &mut reader).unwrap(),
            Some(NodeMsg::Ack)
        );
        assert_eq!(next_msg(&mut cursor, &mut reader).unwrap(), None);
    }

    #[test]
    fn framed_write_and_drain_roundtrip() {
        let mut wire = Vec::new();
        write_msg(&mut wire, &NodeMsg::Heartbeat).unwrap();
        write_msg(&mut wire, &NodeMsg::Tick { now_ms: 1_000 }).unwrap();
        let mut reader = FrameReader::new();
        let mut cursor = std::io::Cursor::new(wire);
        let (msgs, open) = drain_msgs(&mut cursor, &mut reader).unwrap();
        assert!(!open, "cursor EOFs after the last byte");
        assert_eq!(
            msgs,
            vec![NodeMsg::Heartbeat, NodeMsg::Tick { now_ms: 1_000 }]
        );
    }
}
