//! TCP transport: length-prefixed [`crate::wire`] frames over sockets.
//!
//! [`TcpTransport`] is the dialling side — one connection per peer address,
//! `TCP_NODELAY` set (a partial last batch must not wait out Nagle and the
//! peer's delayed ACK), re-dialled once on failure so a restarted peer picks
//! up where it left off. The accepting side comes in two shapes over the
//! same reassembly ([`crate::frame`]) and decoding: [`TcpIngress`] is a
//! non-blocking listener a single thread polls, and [`IngressServer`] is its
//! blocking counterpart for a daemon — one acceptor thread and one reader
//! thread per connection, each parked in `read` until bytes arrive. Both
//! sides account the exact envelope payload bytes
//! ([`crate::wire::encoded_size`]) so transport stats agree byte-for-byte
//! with the in-process channel plane for the same traffic.

use std::collections::HashMap;
use std::io::{self, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use parking_lot::Mutex;

use crate::frame::{build_frame, FrameReader, FRAME_HEADER_LEN};
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

    fn dial(addr: &str) -> io::Result<TcpStream> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(stream)
    }

    fn write_to_peer(out: &mut Outbound, addr: &str, frame: &[u8]) -> io::Result<()> {
        if out.stream.is_none() {
            out.stream = Some(Self::dial(addr)?);
        }
        let stream = out.stream.as_mut().expect("connected above");
        match stream.write_all(frame) {
            Ok(()) => Ok(()),
            Err(e) => {
                // Drop the broken connection and re-dial once: a worker that
                // restarted (or a socket torn mid-frame) gets one fresh
                // attempt before the send is declared failed.
                out.stream = None;
                out.counters.reconnects.fetch_add(1, Ordering::Relaxed);
                let mut fresh = Self::dial(addr).map_err(|_| e)?;
                fresh.write_all(frame)?;
                out.stream = Some(fresh);
                Ok(())
            }
        }
    }
}

impl Transport for TcpTransport {
    fn send(&self, addr: &str, envelope: &Envelope) -> Result<(), SendError> {
        let failed = SendError::Disconnected(envelope.to);
        let frame = build_frame(wire::encoded_size(envelope), |out| {
            wire::encode_into(envelope, out)
        })
        .map_err(|_| failed)?;
        let mut peers = self.peers.lock();
        if !peers.contains_key(addr) {
            peers.insert(
                addr.to_string(),
                Outbound {
                    stream: None,
                    counters: Arc::new(PeerCounters::default()),
                },
            );
        }
        let out = peers.get_mut(addr).expect("inserted above");
        match Self::write_to_peer(out, addr, &frame) {
            Ok(()) => {
                out.counters.record(
                    frame.len() - FRAME_HEADER_LEN,
                    envelope_tuple_count(envelope),
                );
                Ok(())
            }
            Err(_) => {
                out.stream = None;
                Err(failed)
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

/// Decode every complete frame buffered in `reader`, hand the envelopes to
/// `deliver` and count them. Returns the envelopes delivered; an error means
/// the stream is desynchronised or the peer speaks a different protocol, and
/// the connection should be dropped.
fn deliver_frames(
    reader: &mut FrameReader,
    counters: &PeerCounters,
    deliver: &mut dyn FnMut(Envelope),
) -> io::Result<usize> {
    let mut delivered = 0;
    while let Some(frame) = reader.next_frame()? {
        let envelope = wire::decode(frame)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        let (bytes, tuples) = (frame.len(), envelope_tuple_count(&envelope));
        deliver(envelope);
        counters.record(bytes, tuples);
        delivered += 1;
    }
    Ok(delivered)
}

/// Counters outlive their connection so a dropped peer's traffic stays
/// visible in metrics.
type IngressStats = Vec<(String, Arc<PeerCounters>)>;

fn ingress_snapshot(stats: &IngressStats) -> Vec<ConnectionStats> {
    stats
        .iter()
        .map(|(peer, c)| c.snapshot(peer, "in"))
        .collect()
}

struct IngressConn {
    stream: TcpStream,
    reader: FrameReader,
    counters: Arc<PeerCounters>,
}

/// The accepting half of the TCP transport, polled: a non-blocking listener
/// plus per-connection frame reassembly, driven by whoever calls
/// [`poll`](Self::poll). A daemon that wants to sleep until bytes arrive
/// uses [`IngressServer`] instead.
pub struct TcpIngress {
    listener: TcpListener,
    local: SocketAddr,
    conns: Vec<IngressConn>,
    stats: IngressStats,
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
    /// dropped (their counters survive in [`TcpIngress::connections`]); a
    /// peer that wrote and closed is dropped only after every frame it
    /// wrote has been delivered.
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
        self.conns.retain_mut(|conn| {
            let mut open = loop {
                match conn.reader.fill_from(&mut conn.stream) {
                    Ok(0) => break false, // clean EOF: peer is gone
                    Ok(_) => {}
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break true,
                    Err(_) => break false,
                }
            };
            // Whatever arrived before the close is still delivered.
            match deliver_frames(&mut conn.reader, &conn.counters, deliver) {
                Ok(n) => delivered += n,
                Err(_) => open = false,
            }
            open
        });
        delivered
    }

    /// Number of live inbound connections.
    pub fn connection_count(&self) -> usize {
        self.conns.len()
    }

    /// Per-connection counters, including connections that have closed.
    pub fn connections(&self) -> Vec<ConnectionStats> {
        ingress_snapshot(&self.stats)
    }
}

/// What the acceptor and [`IngressServer::drop`] agree on under one lock:
/// whether the server is stopping, and a handle on every accepted socket so
/// a reader parked in `read` can be woken by shutting its socket down.
#[derive(Default)]
struct Accepted {
    stopping: bool,
    streams: Vec<TcpStream>,
}

/// The accepting half of the TCP transport, threaded: an acceptor thread
/// blocks in `accept`, and one reader thread per connection blocks in `read`,
/// reassembles frames and calls `deliver` for every decoded envelope — so
/// the process hosting it burns no CPU while the plane is idle. `deliver`
/// runs on the reader threads, concurrently for different connections.
///
/// Dropping the server shuts every accepted socket down, wakes the acceptor
/// and joins all its threads.
pub struct IngressServer {
    local: SocketAddr,
    stats: Arc<Mutex<IngressStats>>,
    accepted: Arc<Mutex<Accepted>>,
    acceptor: Option<JoinHandle<()>>,
}

impl IngressServer {
    /// Bind a data-plane listener and start accepting. Use port 0 to let
    /// the OS pick, then read [`IngressServer::local_addr`].
    pub fn bind<F>(addr: &str, deliver: F) -> io::Result<Self>
    where
        F: Fn(Envelope) + Send + Sync + 'static,
    {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let stats = Arc::new(Mutex::new(IngressStats::new()));
        let accepted = Arc::new(Mutex::new(Accepted::default()));
        let acceptor = {
            let (stats, accepted) = (stats.clone(), accepted.clone());
            std::thread::Builder::new()
                .name("seep-ingress-accept".into())
                .spawn(move || accept_loop(listener, Arc::new(deliver), stats, accepted))?
        };
        Ok(IngressServer {
            local,
            stats,
            accepted,
            acceptor: Some(acceptor),
        })
    }

    /// The bound listen address.
    pub fn local_addr(&self) -> SocketAddr {
        self.local
    }

    /// Per-connection counters, including connections that have closed.
    pub fn connections(&self) -> Vec<ConnectionStats> {
        ingress_snapshot(&self.stats.lock())
    }
}

impl Drop for IngressServer {
    fn drop(&mut self) {
        {
            let mut accepted = self.accepted.lock();
            accepted.stopping = true;
            for stream in &accepted.streams {
                let _ = stream.shutdown(Shutdown::Both);
            }
        }
        // The acceptor is parked in `accept`; a connection to ourselves is
        // what wakes it to see `stopping`.
        let _ = TcpStream::connect(self.local);
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
    }
}

fn accept_loop(
    listener: TcpListener,
    deliver: Arc<dyn Fn(Envelope) + Send + Sync>,
    stats: Arc<Mutex<IngressStats>>,
    accepted: Arc<Mutex<Accepted>>,
) {
    let mut readers = Vec::new();
    loop {
        let (stream, peer) = match listener.accept() {
            Ok(conn) => conn,
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::Interrupted | io::ErrorKind::ConnectionAborted
                ) =>
            {
                continue
            }
            // A listener that cannot accept any more is not retried in a
            // loop; connections already open keep being served.
            Err(_) => break,
        };
        {
            // Registered under the lock `drop` takes to set `stopping`:
            // either this socket is on the list `drop` shuts down, or the
            // flag is already visible here.
            let mut accepted = accepted.lock();
            if accepted.stopping {
                break;
            }
            match stream.try_clone() {
                Ok(handle) => accepted.streams.push(handle),
                Err(_) => continue,
            }
        }
        let counters = Arc::new(PeerCounters::default());
        stats.lock().push((peer.to_string(), counters.clone()));
        let deliver = deliver.clone();
        let reader = std::thread::Builder::new()
            .name("seep-ingress-read".into())
            .spawn(move || read_loop(stream, &counters, &*deliver));
        match reader {
            Ok(handle) => readers.push(handle),
            // The socket closes with the failed closure; the peer re-dials.
            Err(_) => continue,
        }
    }
    for reader in readers {
        let _ = reader.join();
    }
}

/// One inbound connection, until the peer closes it, desynchronises or the
/// server shuts the socket down.
fn read_loop(mut stream: TcpStream, counters: &PeerCounters, deliver: &dyn Fn(Envelope)) {
    let mut reader = FrameReader::new();
    while matches!(reader.fill_from(&mut stream), Ok(n) if n > 0) {
        if deliver_frames(&mut reader, counters, &mut |envelope| deliver(envelope)).is_err() {
            break;
        }
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
        crate::write_frame(&mut garbage, b"not an envelope").unwrap();
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
    /// A peer that writes and closes before the listener ever polls loses
    /// nothing: the frames already in the socket are delivered (and counted)
    /// before the connection is dropped.
    #[test]
    fn frames_written_before_a_close_are_all_delivered() {
        const N: usize = 200;
        let mut ingress = TcpIngress::bind("127.0.0.1:0").unwrap();
        let addr = ingress.local_addr().to_string();
        {
            let transport = TcpTransport::new();
            for ts in 0..N as u64 {
                transport.send(&addr, &data_envelope(ts)).unwrap();
            }
        } // every outbound socket is closed here, before the first poll
        let mut got = Vec::new();
        poll_until(&mut ingress, &mut got, N).unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        while ingress.connection_count() > 0 && Instant::now() < deadline {
            ingress.poll(&mut |env| got.push(env));
        }
        assert_eq!(got.len(), N);
        assert!(got
            .iter()
            .enumerate()
            .all(|(i, e)| e == &data_envelope(i as u64)));
        assert_eq!(ingress.connection_count(), 0, "closed peer is dropped");
        let stats = ingress.connections();
        assert_eq!((stats[0].frames, stats[0].tuples), (N as u64, N as u64));
    }

    /// The threaded listener delivers from its reader threads and joins its
    /// threads on drop even while peers are still connected.
    #[test]
    fn ingress_server_delivers_and_stops() {
        let (tx, rx) = std::sync::mpsc::channel();
        let server = IngressServer::bind("127.0.0.1:0", move |env| {
            let _ = tx.send(env);
        })
        .unwrap();
        let addr = server.local_addr().to_string();
        let transport = TcpTransport::new();
        let sent = vec![data_envelope(1), batch_envelope(), data_envelope(2)];
        for env in &sent {
            transport.send(&addr, env).unwrap();
        }
        let got: Vec<Envelope> = (0..sent.len())
            .map(|_| rx.recv_timeout(Duration::from_secs(5)).expect("delivered"))
            .collect();
        assert_eq!(got, sent);
        // Counted after delivery, so possibly a moment after `recv` returns.
        let deadline = Instant::now() + Duration::from_secs(5);
        while server.connections()[0].tuples < 12 && Instant::now() < deadline {
            std::thread::yield_now();
        }
        let inbound = &server.connections()[0];
        assert_eq!((inbound.frames, inbound.tuples), (3, 12));
        assert_eq!(inbound.bytes, transport.connections()[0].bytes);
        drop(server); // must not hang on the reader parked in `read`
        assert!(rx.recv_timeout(Duration::from_millis(10)).is_err());
    }
}
