//! Bounded, zero-copy data channels between workers.
//!
//! Channels move [`Envelope`] values directly: tuple payloads are refcounted
//! byte buffers ([`bytes::Bytes`]), so an in-process hop is a pointer move
//! plus a refcount bump — no serialise/deserialise round-trip. The wire
//! encoding a process boundary would pay lives in [`crate::wire`], and the
//! byte counters here report the *exact* encoded size of the traffic
//! ([`crate::wire::encoded_size`]) so the transport stats measure precisely
//! what the TCP transport ships for the same envelopes. Channels are bounded
//! to model the finite socket buffers that give rise to back-pressure.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crossbeam_channel::{bounded, Receiver, RecvTimeoutError, Sender, TrySendError};

use crate::message::Envelope;

/// Counters describing the traffic that crossed a channel.
#[derive(Debug, Default)]
pub struct TransportStats {
    messages: AtomicU64,
    bytes: AtomicU64,
}

impl TransportStats {
    /// Messages transferred.
    pub fn messages(&self) -> u64 {
        self.messages.load(Ordering::Relaxed)
    }

    /// Exact wire bytes transferred: what a process boundary serialises for
    /// this traffic. Local hops do not actually encode, but they account the
    /// same byte count the TCP transport pays ([`crate::wire::encoded_size`]).
    pub fn bytes(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }

    /// Record one message of `bytes` encoded size.
    pub fn record(&self, bytes: usize) {
        self.messages.fetch_add(1, Ordering::Relaxed);
        self.bytes.fetch_add(bytes as u64, Ordering::Relaxed);
    }
}

/// The sending half of a data channel.
#[derive(Clone)]
pub struct DataSender {
    tx: Sender<Envelope>,
    stats: Arc<TransportStats>,
    queued_tuples: Arc<AtomicU64>,
}

/// The receiving half of a data channel.
pub struct DataReceiver {
    rx: Receiver<Envelope>,
    stats: Arc<TransportStats>,
    queued_tuples: Arc<AtomicU64>,
}

/// In-queue weight of an envelope: data tuples it carries, with an empty
/// batch still counting as one so `queued() == 0` keeps meaning "empty".
fn envelope_tuples(envelope: &Envelope) -> u64 {
    envelope.message.tuple_count().max(1) as u64
}

/// A bounded channel carrying [`Envelope`]s by value.
pub struct DataChannel;

impl DataChannel {
    /// Create a channel with room for `capacity` in-flight messages.
    #[allow(clippy::new_ret_no_self)] // the channel IS the sender/receiver pair
    pub fn new(capacity: usize) -> (DataSender, DataReceiver) {
        let (tx, rx) = bounded(capacity.max(1));
        let stats = Arc::new(TransportStats::default());
        let queued_tuples = Arc::new(AtomicU64::new(0));
        (
            DataSender {
                tx,
                stats: stats.clone(),
                queued_tuples: queued_tuples.clone(),
            },
            DataReceiver {
                rx,
                stats,
                queued_tuples,
            },
        )
    }
}

/// Error returned by [`DataSender::send`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChannelSendError {
    /// The receiver has been dropped (its VM failed or was released).
    Disconnected,
    /// The channel is full (back-pressure) and the send was non-blocking.
    Full,
}

impl DataSender {
    /// Send an envelope, blocking while the channel is full. Returns an error
    /// only when the receiving side is gone.
    pub fn send(&self, envelope: Envelope) -> Result<(), ChannelSendError> {
        let tuples = envelope_tuples(&envelope);
        let bytes = crate::wire::encoded_size(&envelope);
        self.tx
            .send(envelope)
            .map_err(|_| ChannelSendError::Disconnected)?;
        self.queued_tuples.fetch_add(tuples, Ordering::Relaxed);
        self.stats.record(bytes);
        Ok(())
    }

    /// Try to send without blocking; fails with [`ChannelSendError::Full`]
    /// when the channel is at capacity.
    pub fn try_send(&self, envelope: Envelope) -> Result<(), ChannelSendError> {
        let tuples = envelope_tuples(&envelope);
        let bytes = crate::wire::encoded_size(&envelope);
        match self.tx.try_send(envelope) {
            Ok(()) => {
                self.queued_tuples.fetch_add(tuples, Ordering::Relaxed);
                self.stats.record(bytes);
                Ok(())
            }
            Err(TrySendError::Full(_)) => Err(ChannelSendError::Full),
            Err(TrySendError::Disconnected(_)) => Err(ChannelSendError::Disconnected),
        }
    }

    /// Traffic statistics shared with the receiver.
    pub fn stats(&self) -> &TransportStats {
        &self.stats
    }
}

impl DataReceiver {
    /// Receive the next envelope, waiting up to `timeout`. Returns `Ok(None)`
    /// on timeout and `Err(())` when every sender is gone.
    #[allow(clippy::result_unit_err)] // disconnection carries no detail
    pub fn recv_timeout(&self, timeout: Duration) -> Result<Option<Envelope>, ()> {
        match self.rx.recv_timeout(timeout) {
            Ok(env) => {
                self.queued_tuples
                    .fetch_sub(envelope_tuples(&env), Ordering::Relaxed);
                Ok(Some(env))
            }
            Err(RecvTimeoutError::Timeout) => Ok(None),
            Err(RecvTimeoutError::Disconnected) => Err(()),
        }
    }

    /// Drain everything currently queued without blocking.
    pub fn drain(&self) -> Vec<Envelope> {
        let mut out = Vec::new();
        while let Ok(env) = self.rx.try_recv() {
            self.queued_tuples
                .fetch_sub(envelope_tuples(&env), Ordering::Relaxed);
            out.push(env);
        }
        out
    }

    /// Number of data tuples currently queued (an empty batch counts as
    /// one, so non-zero always means "something to process").
    pub fn queued(&self) -> usize {
        self.queued_tuples.load(Ordering::Relaxed) as usize
    }

    /// Traffic statistics shared with the sender.
    pub fn stats(&self) -> &TransportStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::Message;
    use seep_core::{Key, OperatorId, StreamId, Tuple, TupleBatch};

    fn envelope(ts: u64) -> Envelope {
        let mut batch = TupleBatch::new();
        batch.push(Tuple::new(ts, Key(ts), vec![0u8; 16]), 0);
        Envelope::new(
            OperatorId::new(1),
            OperatorId::new(2),
            Message::data_batch(StreamId(0), batch),
        )
    }

    #[test]
    fn send_receive_roundtrip() {
        let (tx, rx) = DataChannel::new(8);
        tx.send(envelope(1)).unwrap();
        tx.send(envelope(2)).unwrap();
        assert_eq!(rx.queued(), 2);
        let first = rx.recv_timeout(Duration::from_millis(10)).unwrap().unwrap();
        assert_eq!(first.message.batch.tuples[0].ts, 1);
        assert_eq!(rx.drain().len(), 1);
        assert_eq!(rx.stats().messages(), 2);
        assert!(rx.stats().bytes() > 32);
    }

    /// A local hop must not copy the tuple payload: the received envelope
    /// shares the sender's payload allocation.
    #[test]
    fn local_hop_shares_the_payload_allocation() {
        let (tx, rx) = DataChannel::new(8);
        let env = envelope(1);
        let payload = env.message.batch.tuples[0].payload.clone();
        tx.send(env).unwrap();
        let received = rx.recv_timeout(Duration::from_millis(10)).unwrap().unwrap();
        assert_eq!(
            received.message.batch.tuples[0].payload.as_ptr(),
            payload.as_ptr(),
            "payload must be refcount-shared, not re-encoded"
        );
    }

    /// The byte counter records exactly what the wire encoding of the same
    /// traffic would occupy — no estimate slack.
    #[test]
    fn recorded_bytes_equal_the_wire_encoding_exactly() {
        let (tx, rx) = DataChannel::new(8);
        let mut expected = 0u64;
        for ts in [0u64, 7, 200, 70_000] {
            let env = envelope(ts);
            expected += crate::wire::encode(&env).len() as u64;
            tx.send(env).unwrap();
        }
        assert_eq!(rx.stats().bytes(), expected);
    }

    #[test]
    fn queued_counts_tuples_inside_batches() {
        let (tx, rx) = DataChannel::new(8);
        let mut batch = TupleBatch::new();
        for ts in 1..=5u64 {
            batch.push(Tuple::new(ts, Key(ts), vec![0u8; 4]), 0);
        }
        let env = Envelope::new(
            OperatorId::new(1),
            OperatorId::new(2),
            Message::data_batch(StreamId(0), batch),
        );
        tx.send(env).unwrap();
        tx.send(envelope(9)).unwrap();
        assert_eq!(rx.queued(), 6, "5 batched tuples + 1 single");
        rx.recv_timeout(Duration::from_millis(10)).unwrap().unwrap();
        assert_eq!(rx.queued(), 1);
        rx.drain();
        assert_eq!(rx.queued(), 0);
    }

    #[test]
    fn timeout_returns_none() {
        let (_tx, rx) = DataChannel::new(1);
        assert_eq!(rx.recv_timeout(Duration::from_millis(5)).unwrap(), None);
    }

    #[test]
    fn try_send_reports_backpressure() {
        let (tx, rx) = DataChannel::new(1);
        tx.try_send(envelope(1)).unwrap();
        assert_eq!(tx.try_send(envelope(2)), Err(ChannelSendError::Full));
        rx.drain();
        assert!(tx.try_send(envelope(3)).is_ok());
    }

    #[test]
    fn dropped_receiver_disconnects_sender() {
        let (tx, rx) = DataChannel::new(1);
        drop(rx);
        assert_eq!(tx.send(envelope(1)), Err(ChannelSendError::Disconnected));
    }

    #[test]
    fn dropped_sender_disconnects_receiver() {
        let (tx, rx) = DataChannel::new(1);
        drop(tx);
        assert!(rx.recv_timeout(Duration::from_millis(1)).is_err());
    }
}
