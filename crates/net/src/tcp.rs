//! TCP transport: length-prefixed [`crate::wire`] frames over sockets.
//!
//! [`TcpTransport`] is the dialling side — one connection per peer address,
//! re-dialled once on failure so a restarted peer picks up where it left
//! off. [`TcpIngress`] is the accepting side: a non-blocking listener whose
//! `poll` drains readable bytes, reassembles frames ([`crate::frame`]) and
//! decodes envelopes for local delivery. Both sides account the exact
//! envelope payload bytes ([`crate::wire::encoded_size`]) so transport
//! stats agree byte-for-byte with the in-process channel plane for the same
//! traffic.

use std::collections::HashMap;
use std::io::{self, Read};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::frame::{write_frame, FrameReader};
use crate::message::Envelope;
use crate::network::SendError;
use crate::transport::{envelope_tuple_count, ConnectionStats, Transport};
use crate::wire;

/// Shared counters for one peer connection.
#[derive(Debug, Default)]
struct PeerCounters {
    bytes: AtomicU64,
    frames: AtomicU64,
    tuples: AtomicU64,
    reconnects: AtomicU64,
}

impl PeerCounters {
    fn record(&self, bytes: usize, tuples: u64) {
        self.bytes.fetch_add(bytes as u64, Ordering::Relaxed);
        self.frames.fetch_add(1, Ordering::Relaxed);
        self.tuples.fetch_add(tuples, Ordering::Relaxed);
    }

    fn snapshot(&self, peer: &str, direction: &'static str) -> ConnectionStats {
        ConnectionStats {
            peer: peer.to_string(),
            direction,
            bytes: self.bytes.load(Ordering::Relaxed),
            frames: self.frames.load(Ordering::Relaxed),
            tuples: self.tuples.load(Ordering::Relaxed),
            reconnects: self.reconnects.load(Ordering::Relaxed),
        }
    }
}

struct Outbound {
    stream: Option<TcpStream>,
    counters: Arc<PeerCounters>,
}

/// The dialling half of the TCP transport: one outbound connection per peer
/// data address, connected on first use and re-dialled once per send on
/// failure.
#[derive(Default)]
pub struct TcpTransport {
    peers: Mutex<HashMap<String, Outbound>>,
}

impl TcpTransport {
    /// A transport with no connections yet; peers are dialled on first send.
    pub fn new() -> Self {
        TcpTransport::default()
    }

    fn write_to_peer(out: &mut Outbound, addr: &str, payload: &[u8]) -> io::Result<()> {
        if out.stream.is_none() {
            out.stream = Some(TcpStream::connect(addr)?);
        }
        let stream = out.stream.as_mut().expect("connected above");
        match write_frame(stream, payload) {
            Ok(()) => Ok(()),
            Err(e) => {
                // Drop the broken connection and re-dial once: a worker that
                // restarted (or a socket torn mid-frame) gets one fresh
                // attempt before the send is declared failed.
                out.stream = None;
                out.counters.reconnects.fetch_add(1, Ordering::Relaxed);
                let mut fresh = TcpStream::connect(addr).map_err(|_| e)?;
                write_frame(&mut fresh, payload)?;
                out.stream = Some(fresh);
                Ok(())
            }
        }
    }
}

impl Transport for TcpTransport {
    fn send(&self, addr: &str, envelope: &Envelope) -> Result<(), SendError> {
        let payload = wire::encode(envelope);
        let mut peers = self.peers.lock();
        let out = peers.entry(addr.to_string()).or_insert_with(|| Outbound {
            stream: None,
            counters: Arc::new(PeerCounters::default()),
        });
        match Self::write_to_peer(out, addr, &payload) {
            Ok(()) => {
                out.counters
                    .record(payload.len(), envelope_tuple_count(envelope));
                Ok(())
            }
            Err(_) => {
                out.stream = None;
                Err(SendError::Disconnected(envelope.to))
            }
        }
    }

    fn connections(&self) -> Vec<ConnectionStats> {
        let peers = self.peers.lock();
        let mut out: Vec<ConnectionStats> = peers
            .iter()
            .map(|(addr, o)| o.counters.snapshot(addr, "out"))
            .collect();
        out.sort_by(|a, b| a.peer.cmp(&b.peer));
        out
    }
}

struct IngressConn {
    stream: TcpStream,
    reader: FrameReader,
    counters: Arc<PeerCounters>,
}

/// The accepting half of the TCP transport: a non-blocking listener plus
/// per-connection frame reassembly. Single-threaded by design — the worker
/// daemon polls it from its event loop.
pub struct TcpIngress {
    listener: TcpListener,
    local: SocketAddr,
    conns: Vec<IngressConn>,
    /// Counters outlive their connection so a dropped peer's traffic stays
    /// visible in metrics.
    stats: Vec<(String, Arc<PeerCounters>)>,
}

impl TcpIngress {
    /// Bind a non-blocking data-plane listener. Use port 0 to let the OS
    /// pick, then read [`TcpIngress::local_addr`].
    pub fn bind(addr: &str) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local = listener.local_addr()?;
        Ok(TcpIngress {
            listener,
            local,
            conns: Vec::new(),
            stats: Vec::new(),
        })
    }

    /// The bound listen address.
    pub fn local_addr(&self) -> SocketAddr {
        self.local
    }

    /// Accept pending connections, drain readable bytes, and hand each
    /// complete decoded envelope to `deliver`. Returns the number of
    /// envelopes delivered. Broken or desynchronised connections are
    /// dropped (their counters survive in [`TcpIngress::connections`]).
    pub fn poll(&mut self, deliver: &mut dyn FnMut(Envelope)) -> usize {
        loop {
            match self.listener.accept() {
                Ok((stream, peer)) => {
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let counters = Arc::new(PeerCounters::default());
                    let peer = peer.to_string();
                    self.stats.push((peer, counters.clone()));
                    self.conns.push(IngressConn {
                        stream,
                        reader: FrameReader::new(),
                        counters,
                    });
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(_) => break,
            }
        }
        let mut delivered = 0;
        let mut buf = [0u8; 64 * 1024];
        self.conns.retain_mut(|conn| {
            loop {
                match conn.stream.read(&mut buf) {
                    Ok(0) => return false, // clean EOF: peer is gone
                    Ok(n) => conn.reader.push(&buf[..n]),
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(_) => return false,
                }
            }
            loop {
                match conn.reader.next_frame() {
                    Ok(Some(frame)) => match wire::decode(&frame) {
                        Ok(envelope) => {
                            conn.counters
                                .record(frame.len(), envelope_tuple_count(&envelope));
                            delivered += 1;
                            deliver(envelope);
                        }
                        // A frame that is not an envelope means the stream
                        // is desynchronised or the peer speaks a different
                        // protocol: drop the connection.
                        Err(_) => return false,
                    },
                    Ok(None) => break,
                    Err(_) => return false,
                }
            }
            true
        });
        delivered
    }

    /// Number of live inbound connections.
    pub fn connection_count(&self) -> usize {
        self.conns.len()
    }

    /// Per-connection counters, including connections that have closed.
    pub fn connections(&self) -> Vec<ConnectionStats> {
        self.stats
            .iter()
            .map(|(peer, c)| c.snapshot(peer, "in"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::Message;
    use seep_core::{Key, OperatorId, StreamId, Tuple, TupleBatch};
    use std::time::{Duration, Instant};

    fn data_envelope(ts: u64) -> Envelope {
        let mut batch = TupleBatch::new();
        batch.push(Tuple::new(ts, Key(ts), vec![7u8; 32]), 0);
        Envelope::new(
            OperatorId::new(1),
            OperatorId::new(2),
            Message::data_batch(StreamId(0), batch),
        )
    }

    fn batch_envelope() -> Envelope {
        let mut batch = TupleBatch::new();
        for ts in 0..10u64 {
            batch.push(Tuple::new(ts, Key(ts), vec![1u8; 150]), ts);
        }
        Envelope::new(
            OperatorId::new(3),
            OperatorId::new(4),
            Message::data_batch(StreamId(1), batch),
        )
    }

    fn poll_until(
        ingress: &mut TcpIngress,
        out: &mut Vec<Envelope>,
        want: usize,
    ) -> Result<(), String> {
        let deadline = Instant::now() + Duration::from_secs(5);
        while out.len() < want {
            ingress.poll(&mut |env| out.push(env));
            if Instant::now() > deadline {
                return Err(format!("timed out with {} of {want} envelopes", out.len()));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        Ok(())
    }

    #[test]
    fn envelopes_cross_a_real_socket() {
        let mut ingress = TcpIngress::bind("127.0.0.1:0").unwrap();
        let addr = ingress.local_addr().to_string();
        let transport = TcpTransport::new();
        let sent = vec![data_envelope(1), batch_envelope(), data_envelope(2)];
        for env in &sent {
            transport.send(&addr, env).unwrap();
        }
        let mut got = Vec::new();
        poll_until(&mut ingress, &mut got, sent.len()).unwrap();
        assert_eq!(got, sent);
        assert_eq!(ingress.connection_count(), 1);
    }

    /// Both directions account exactly the envelope encoding — and the
    /// same bytes the in-process channel records for identical traffic.
    #[test]
    fn byte_accounting_matches_the_channel_plane() {
        let mut ingress = TcpIngress::bind("127.0.0.1:0").unwrap();
        let addr = ingress.local_addr().to_string();
        let transport = TcpTransport::new();
        let traffic = vec![data_envelope(1), batch_envelope(), data_envelope(200)];

        let (channel_tx, channel_rx) = crate::DataChannel::new(64);
        for env in &traffic {
            transport.send(&addr, env).unwrap();
            channel_tx.send(env.clone()).unwrap();
        }
        let mut got = Vec::new();
        poll_until(&mut ingress, &mut got, traffic.len()).unwrap();

        let exact: u64 = traffic.iter().map(|e| wire::encode(e).len() as u64).sum();
        let out = transport.connections();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].bytes, exact, "TCP egress bytes");
        assert_eq!(out[0].frames, traffic.len() as u64);
        let inb = ingress.connections();
        assert_eq!(inb.len(), 1);
        assert_eq!(inb[0].bytes, exact, "TCP ingress bytes");
        assert_eq!(
            channel_rx.stats().bytes(),
            exact,
            "in-process channel bytes must equal TCP bytes for the same traffic"
        );
        assert_eq!(out[0].tuples, 12, "2 singles + 10 batched");
    }

    /// Killing the ingress connection mid-stream: the next send re-dials
    /// once (counted as a reconnect) and traffic resumes.
    #[test]
    fn sender_reconnects_after_connection_drop() {
        let mut ingress = TcpIngress::bind("127.0.0.1:0").unwrap();
        let addr = ingress.local_addr().to_string();
        let transport = TcpTransport::new();
        transport.send(&addr, &data_envelope(1)).unwrap();
        let mut got = Vec::new();
        poll_until(&mut ingress, &mut got, 1).unwrap();

        // Tear down the accepted connection under the sender.
        ingress.conns.clear();
        // The sender may need a few sends before the kernel surfaces the
        // reset; each failure re-dials.
        let deadline = Instant::now() + Duration::from_secs(5);
        let mut delivered_after_drop = 0;
        let mut ts = 2u64;
        while delivered_after_drop == 0 && Instant::now() < deadline {
            let _ = transport.send(&addr, &data_envelope(ts));
            ts += 1;
            delivered_after_drop = ingress.poll(&mut |env| got.push(env));
            std::thread::sleep(Duration::from_millis(2));
        }
        assert!(delivered_after_drop > 0, "traffic never resumed");
        let stats = &transport.connections()[0];
        assert!(stats.reconnects >= 1, "reconnect was not counted");
    }

    /// A peer that writes garbage (not a wire envelope) is dropped without
    /// poisoning other connections.
    #[test]
    fn garbage_frame_drops_only_that_connection() {
        use std::io::Write;
        let mut ingress = TcpIngress::bind("127.0.0.1:0").unwrap();
        let addr = ingress.local_addr().to_string();
        let transport = TcpTransport::new();
        transport.send(&addr, &data_envelope(1)).unwrap();
        let mut garbage = TcpStream::connect(&addr).unwrap();
        write_frame(&mut garbage, b"not an envelope").unwrap();
        garbage.flush().unwrap();
        let mut got = Vec::new();
        poll_until(&mut ingress, &mut got, 1).unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        while ingress.connection_count() > 1 && Instant::now() < deadline {
            ingress.poll(&mut |env| got.push(env));
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(ingress.connection_count(), 1, "garbage peer not dropped");
        transport.send(&addr, &data_envelope(2)).unwrap();
        poll_until(&mut ingress, &mut got, 2).unwrap();
        assert_eq!(got.len(), 2);
    }
}
