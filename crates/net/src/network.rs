//! Node-granularity connectivity between operator workers.
//!
//! The network keeps one inbound channel per operator instance and lets any
//! other worker (or a coordinator) send envelopes to it. Disconnecting an
//! operator — because its VM failed or was released — closes its channel, so
//! in-flight sends fail the way writes to a dead TCP peer would.
//!
//! Operators hosted in *other* processes are reached through a pluggable
//! [`Transport`]: a remote route maps the operator id to its host's
//! data-plane address, and sends to it fall through to the transport. With
//! no transport installed the network is exactly the in-process plane it
//! always was — local hops never pay for the indirection.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use parking_lot::RwLock;

use seep_core::{OperatorId, StreamId, Tuple, TupleBatch};

use crate::channel::{ChannelSendError, DataChannel, DataReceiver, DataSender};
use crate::message::{Envelope, Message};
use crate::transport::Transport;

/// Error returned when a send cannot be delivered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendError {
    /// The destination operator is not (or no longer) registered.
    UnknownDestination(OperatorId),
    /// The destination's channel is closed (its worker stopped).
    Disconnected(OperatorId),
    /// The destination's channel is full and the send was non-blocking.
    Backpressure(OperatorId),
}

/// Inbound channel capacity (messages) of the runtime's and each node
/// worker's network.
pub const CHANNEL_CAPACITY: usize = 262_144;

/// Registry of operator endpoints.
#[derive(Clone, Default)]
pub struct Network {
    senders: Arc<RwLock<HashMap<OperatorId, DataSender>>>,
    /// Operators hosted elsewhere: id → data-plane address of the host.
    remote: Arc<RwLock<HashMap<OperatorId, String>>>,
    /// Ships envelopes to remote hosts; `None` for the pure in-process plane.
    transport: Arc<RwLock<Option<Arc<dyn Transport>>>>,
    capacity: usize,
}

impl Network {
    /// Create a network whose per-operator inbound channels hold up to
    /// `capacity` messages.
    pub fn new(capacity: usize) -> Self {
        Network {
            senders: Arc::new(RwLock::new(HashMap::new())),
            remote: Arc::new(RwLock::new(HashMap::new())),
            transport: Arc::new(RwLock::new(None)),
            capacity: capacity.max(1),
        }
    }

    /// Install the transport used for operators with remote routes.
    pub fn set_transport(&self, transport: Arc<dyn Transport>) {
        *self.transport.write() = Some(transport);
    }

    /// The installed transport, if any.
    pub fn transport(&self) -> Option<Arc<dyn Transport>> {
        self.transport.read().clone()
    }

    /// Route sends for `operator` to the process listening at `addr`.
    /// A local registration always wins over a remote route, so moving an
    /// operator into this process just means registering it.
    pub fn set_remote_route(&self, operator: OperatorId, addr: impl Into<String>) {
        self.remote.write().insert(operator, addr.into());
    }

    /// Drop the remote route for `operator`.
    pub fn clear_remote_route(&self, operator: OperatorId) {
        self.remote.write().remove(&operator);
    }

    /// Remote routes, in operator order.
    pub fn remote_routes(&self) -> Vec<(OperatorId, String)> {
        let mut routes: Vec<(OperatorId, String)> = self
            .remote
            .read()
            .iter()
            .map(|(op, addr)| (*op, addr.clone()))
            .collect();
        routes.sort();
        routes
    }

    /// Attempt delivery through the transport when `to` has a remote route.
    fn send_remote(&self, envelope: &Envelope) -> Option<Result<(), SendError>> {
        let addr = self.remote.read().get(&envelope.to).cloned()?;
        let transport = self.transport.read().clone()?;
        Some(transport.send(&addr, envelope))
    }

    /// Register an operator and return the receiving end of its inbound
    /// channel. Re-registering an operator replaces its channel.
    pub fn register(&self, operator: OperatorId) -> DataReceiver {
        let (tx, rx) = DataChannel::new(self.capacity);
        self.senders.write().insert(operator, tx);
        rx
    }

    /// Remove an operator's endpoint (VM failed or released). Subsequent sends
    /// to it fail with [`SendError::UnknownDestination`].
    pub fn disconnect(&self, operator: OperatorId) {
        self.senders.write().remove(&operator);
    }

    /// Whether an operator currently has an endpoint.
    pub fn is_connected(&self, operator: OperatorId) -> bool {
        self.senders.read().contains_key(&operator)
    }

    /// Registered operators.
    pub fn connected(&self) -> Vec<OperatorId> {
        let mut ops: Vec<OperatorId> = self.senders.read().keys().copied().collect();
        ops.sort();
        ops
    }

    /// Send an envelope, blocking under back-pressure. A local endpoint is
    /// preferred; otherwise the envelope falls through to the transport when
    /// a remote route exists.
    pub fn send(&self, envelope: Envelope) -> Result<(), SendError> {
        let to = envelope.to;
        let sender = {
            let senders = self.senders.read();
            senders.get(&to).cloned()
        };
        let Some(sender) = sender else {
            return match self.send_remote(&envelope) {
                Some(result) => result,
                None => Err(SendError::UnknownDestination(to)),
            };
        };
        sender.send(envelope).map_err(|e| match e {
            ChannelSendError::Disconnected => SendError::Disconnected(to),
            ChannelSendError::Full => SendError::Backpressure(to),
        })
    }

    /// Send without blocking; surfaces back-pressure to the caller. Remote
    /// sends write to the socket directly (the kernel buffer absorbs the
    /// burst; a full buffer blocks briefly rather than erroring).
    pub fn try_send(&self, envelope: Envelope) -> Result<(), SendError> {
        let to = envelope.to;
        let sender = {
            let senders = self.senders.read();
            senders.get(&to).cloned()
        };
        let Some(sender) = sender else {
            return match self.send_remote(&envelope) {
                Some(result) => result,
                None => Err(SendError::UnknownDestination(to)),
            };
        };
        sender.try_send(envelope).map_err(|e| match e {
            ChannelSendError::Disconnected => SendError::Disconnected(to),
            ChannelSendError::Full => SendError::Backpressure(to),
        })
    }

    /// Convenience: send one data tuple from `from` to `to` on `stream`, as
    /// a batch of one with no source emit time.
    pub fn send_tuple(
        &self,
        from: OperatorId,
        to: OperatorId,
        stream: StreamId,
        tuple: Tuple,
    ) -> Result<(), SendError> {
        let mut batch = TupleBatch::with_capacity(1);
        batch.push(tuple, 0);
        self.send(Envelope::new(from, to, Message::data_batch(stream, batch)))
    }
}

/// Blocking receive helper used by worker loops: waits up to `timeout` for the
/// next envelope on `rx`.
pub fn recv_next(rx: &DataReceiver, timeout: Duration) -> Option<Envelope> {
    rx.recv_timeout(timeout).ok().flatten()
}

#[cfg(test)]
mod tests {
    use super::*;
    use seep_core::Key;

    fn send_one(net: &Network, to: u64) -> Result<(), SendError> {
        net.send_tuple(
            OperatorId::new(1),
            OperatorId::new(to),
            StreamId(0),
            Tuple::new(1, Key(1), vec![1]),
        )
    }

    #[test]
    fn register_send_receive() {
        let net = Network::new(16);
        let rx = net.register(OperatorId::new(2));
        assert!(net.is_connected(OperatorId::new(2)));
        send_one(&net, 2).unwrap();
        let env = recv_next(&rx, Duration::from_millis(20)).unwrap();
        assert_eq!(env.from, OperatorId::new(1));
        assert_eq!(env.message.tuple_count(), 1);
    }

    #[test]
    fn unknown_destination_errors() {
        let net = Network::new(4);
        let err = send_one(&net, 9);
        assert_eq!(err, Err(SendError::UnknownDestination(OperatorId::new(9))));
    }

    #[test]
    fn disconnect_removes_endpoint() {
        let net = Network::new(4);
        let _rx = net.register(OperatorId::new(1));
        assert_eq!(net.connected(), vec![OperatorId::new(1)]);
        net.disconnect(OperatorId::new(1));
        assert!(!net.is_connected(OperatorId::new(1)));
        assert!(matches!(
            send_one(&net, 1),
            Err(SendError::UnknownDestination(_))
        ));
    }

    #[test]
    fn dropped_receiver_reports_disconnected() {
        let net = Network::new(4);
        let rx = net.register(OperatorId::new(3));
        drop(rx);
        assert_eq!(
            send_one(&net, 3),
            Err(SendError::Disconnected(OperatorId::new(3)))
        );
    }

    #[test]
    fn try_send_reports_backpressure() {
        let net = Network::new(1);
        let _rx = net.register(OperatorId::new(4));
        let env = Envelope::new(
            OperatorId::new(0),
            OperatorId::new(4),
            Message::data_batch(StreamId(0), TupleBatch::new()),
        );
        net.try_send(env.clone()).unwrap();
        assert_eq!(
            net.try_send(env),
            Err(SendError::Backpressure(OperatorId::new(4)))
        );
    }

    /// Sends to an operator with a remote route fall through to the
    /// transport; a local registration always shadows the route.
    #[test]
    fn remote_route_falls_through_to_the_transport() {
        use crate::transport::{ConnectionStats, Transport};
        use parking_lot::Mutex;

        #[derive(Default)]
        struct Recording {
            sent: Mutex<Vec<(String, Envelope)>>,
        }
        impl Transport for Recording {
            fn send(&self, addr: &str, envelope: &Envelope) -> Result<(), SendError> {
                self.sent.lock().push((addr.to_string(), envelope.clone()));
                Ok(())
            }
            fn connections(&self) -> Vec<ConnectionStats> {
                Vec::new()
            }
        }

        let net = Network::new(4);
        let remote_op = OperatorId::new(7);
        let transport = Arc::new(Recording::default());
        net.set_transport(transport.clone());

        // No route yet: still an unknown destination.
        assert_eq!(
            send_one(&net, 7),
            Err(SendError::UnknownDestination(remote_op))
        );

        net.set_remote_route(remote_op, "10.0.0.2:7000");
        assert_eq!(
            net.remote_routes(),
            vec![(remote_op, "10.0.0.2:7000".into())]
        );
        send_one(&net, 7).unwrap();
        net.try_send(Envelope::new(
            OperatorId::new(1),
            remote_op,
            Message::data_batch(StreamId(0), TupleBatch::new()),
        ))
        .unwrap();
        assert_eq!(transport.sent.lock().len(), 2);
        assert_eq!(transport.sent.lock()[0].0, "10.0.0.2:7000");

        // Registering the operator locally shadows the remote route.
        let rx = net.register(remote_op);
        send_one(&net, 7).unwrap();
        assert_eq!(rx.queued(), 1);
        assert_eq!(transport.sent.lock().len(), 2, "local endpoint must win");

        net.clear_remote_route(remote_op);
        assert!(net.remote_routes().is_empty());
    }

    #[test]
    fn reregistering_replaces_channel() {
        let net = Network::new(4);
        let old_rx = net.register(OperatorId::new(5));
        let new_rx = net.register(OperatorId::new(5));
        send_one(&net, 5).unwrap();
        assert_eq!(old_rx.queued(), 0);
        assert_eq!(new_rx.queued(), 1);
    }
}
