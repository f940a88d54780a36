//! The transport abstraction behind [`crate::Network`].
//!
//! A transport ships envelopes to operators that are *not* registered in the
//! local process. The in-process plane needs no transport at all — local
//! sends stay zero-copy channel moves — so a transport only sees the traffic
//! that genuinely crosses a process boundary. The TCP implementation lives
//! in [`crate::tcp`]; tests can plug in loopback fakes.

use seep_core::OperatorId;

use crate::message::Envelope;
use crate::network::SendError;

/// Ships envelopes across a process boundary. `addr` is the peer's
/// data-plane listen address (`host:port`), as published in the
/// coordinator's peer table.
pub trait Transport: Send + Sync {
    /// Deliver `envelope` to the process listening at `addr`. Implementations
    /// must encode with [`crate::wire::encode`] (the one wire definition) and
    /// account exactly [`crate::wire::encoded_size`] payload bytes per
    /// envelope, so byte counters agree across transports.
    fn send(&self, addr: &str, envelope: &Envelope) -> Result<(), SendError>;

    /// Per-connection traffic counters, for metrics export.
    fn connections(&self) -> Vec<ConnectionStats>;
}

/// Traffic counters for one transport connection (one direction).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ConnectionStats {
    /// Peer address (`host:port`).
    pub peer: String,
    /// `"out"` for dialled connections, `"in"` for accepted ones.
    pub direction: &'static str,
    /// Envelope payload bytes (excluding the 4-byte frame header; framing
    /// overhead is `frames * FRAME_HEADER_LEN`). Matches the in-process
    /// [`crate::TransportStats`] accounting for identical traffic.
    pub bytes: u64,
    /// Complete frames shipped or reassembled.
    pub frames: u64,
    /// Data tuples carried.
    pub tuples: u64,
    /// Times the connection was re-dialled after a failure.
    pub reconnects: u64,
}

/// Weight used for the tuples counter: data tuples in the envelope.
pub fn envelope_tuple_count(envelope: &Envelope) -> u64 {
    envelope.message.tuple_count() as u64
}

/// Helper for routing tables: a remote operator endpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RemoteRoute {
    /// The operator reachable at the address.
    pub operator: OperatorId,
    /// Data-plane address of the hosting process.
    pub addr: String,
}
