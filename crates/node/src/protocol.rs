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
//! checkpoints and state collections. Bulk fields (a round's source tuples,
//! checkpoints, collected state) are [`Bytes`] blobs, written raw; a
//! `Vec<u8>` would be lowered to a sequence of tagged integers.

use std::io::{self, Read, Write};

use bytes::Bytes;
use serde::{Deserialize, Serialize};

use seep_core::{RoutingState, TimestampVec};
use seep_net::{build_frame, FrameReader};

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
    /// Take a checkpoint of a local instance.
    Capture {
        /// The instance to checkpoint.
        op: u64,
        /// Checkpoint sequence number.
        sequence: u64,
    },
    /// Reply to [`NodeMsg::Capture`]: the serialised checkpoint.
    Captured {
        /// The checkpointed instance.
        op: u64,
        /// `Checkpoint::to_bytes` output.
        bytes: Bytes,
    },
    /// Trim a local instance's output buffer towards a downstream instance
    /// (Algorithm 1, line 4 — after the downstream checkpoint committed).
    TrimBuffer {
        /// The upstream instance whose buffer to trim.
        op: u64,
        /// The downstream instance the buffer feeds.
        downstream: u64,
        /// Trim up to and including this timestamp.
        ts: u64,
    },
    /// Pause or resume every local instance.
    Pause {
        /// `true` to pause, `false` to resume.
        on: bool,
    },
    /// Restore a local instance from a serialised checkpoint. Resets the
    /// instance's output clock to the checkpoint's emit clock so re-emitted
    /// tuples are recognised as duplicates downstream.
    Restore {
        /// The instance to restore.
        op: u64,
        /// `Checkpoint::to_bytes` output.
        bytes: Bytes,
    },
    /// A restored instance replays its restored output buffers downstream
    /// (Algorithm 3, line 7); downstream duplicate filters discard what they
    /// already processed.
    ReplayRestored {
        /// The restored instance.
        op: u64,
        /// Fresh routing towards each logical downstream operator.
        routing: Vec<RoutingEntry>,
    },
    /// Update one upstream instance after a recovery: install the new
    /// routing towards the recovered logical operator, migrate tuples
    /// buffered for the replaced instances, replay everything `reflected`
    /// does not cover (Algorithm 3, lines 9–14).
    Rewire {
        /// The local upstream instance to update.
        at: u64,
        /// Raw id of the reconfigured logical downstream operator.
        logical: u32,
        /// The replaced (failed) instances.
        olds: Vec<u64>,
        /// New routing towards the logical operator's partitions.
        routing: RoutingState,
        /// The new partitions to replay buffered tuples to.
        new_targets: Vec<u64>,
        /// Timestamps already reflected in the restored checkpoint.
        reflected: TimestampVec,
    },
    /// Reply to replay commands: how many tuples were re-sent.
    Replayed {
        /// Tuples replayed.
        tuples: u64,
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
            NodeMsg::Capture { .. } => "Capture",
            NodeMsg::Captured { .. } => "Captured",
            NodeMsg::TrimBuffer { .. } => "TrimBuffer",
            NodeMsg::Pause { .. } => "Pause",
            NodeMsg::Restore { .. } => "Restore",
            NodeMsg::ReplayRestored { .. } => "ReplayRestored",
            NodeMsg::Rewire { .. } => "Rewire",
            NodeMsg::Replayed { .. } => "Replayed",
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
    use seep_core::{KeyRange, OperatorId};

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
            NodeMsg::Captured {
                op: 2,
                bytes: Bytes::new(),
            },
            NodeMsg::Rewire {
                at: 0,
                logical: 1,
                olds: vec![1],
                routing,
                new_targets: vec![4],
                reflected,
            },
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
