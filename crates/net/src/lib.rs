//! # seep-net
//!
//! In-memory transport substrate connecting operator workers.
//!
//! The paper's prototype runs each operator on its own VM and ships tuples
//! over TCP; serialisation cost is significant enough that the benchmark's
//! source and sink saturate at ~600 000 tuples/s. This crate reproduces the
//! relevant behaviour for a single-process deployment:
//!
//! * messages crossing a [`channel::DataChannel`] move as values — tuple
//!   payloads are refcounted buffers, so a local hop is zero-copy; the wire
//!   encoding a process boundary pays lives in [`wire`],
//! * channels are bounded, providing the back-pressure that output buffers
//!   compensate for,
//! * the [`network::Network`] registry models node-granularity connectivity:
//!   a failed VM's endpoints are disconnected, and sends to them fail exactly
//!   like a broken TCP connection would,
//! * the [`transport::Transport`] trait plus [`tcp`] put the same wire
//!   encoding on real sockets: operators with remote routes are reached
//!   through length-prefixed [`frame`]s, a batch to a frame, so a
//!   multi-process deployment ships byte-for-byte what the in-process
//!   counters report.

#![warn(missing_docs)]

pub mod channel;
pub mod frame;
pub mod message;
pub mod network;
pub mod tcp;
pub mod transport;
pub mod wire;

pub use channel::{DataChannel, DataReceiver, DataSender, TransportStats};
pub use frame::{
    build_frame, read_frame, write_frame, FrameReader, FRAME_HEADER_LEN, MAX_FRAME_LEN,
};
pub use message::{Envelope, Message};
pub use network::{Network, SendError, CHANNEL_CAPACITY};
pub use tcp::{IngressServer, TcpIngress, TcpTransport};
pub use transport::{ConnectionStats, RemoteRoute, Transport};
