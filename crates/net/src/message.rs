//! Messages exchanged between operator workers.
//!
//! One kind of traffic crosses the data plane: runs of stream tuples,
//! including replayed tuples after a restore. Coordinators do not send
//! in-band control messages — the in-process runtime manipulates worker
//! state directly against a quiesced plane, and `seep-node` speaks its own
//! framed control protocol — so a [`Message`] is always data.

use serde::{Deserialize, Serialize};

use seep_core::{OperatorId, StreamId, TupleBatch};

/// A run of consecutive stream tuples from one producer, sent in one
/// envelope. A single tuple travels as a batch of one.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Message {
    /// The stream the tuples belong to (identified by the logical producer
    /// operator).
    pub stream: StreamId,
    /// The tuples with their per-tuple source emit times (µs since an
    /// arbitrary epoch; zero when unknown or unsampled). Operators propagate
    /// them from input to output so sinks can measure end-to-end processing
    /// latency, the metric reported throughout §6.
    pub batch: TupleBatch,
}

impl Message {
    /// A data message carrying `batch` on `stream`.
    pub fn data_batch(stream: StreamId, batch: TupleBatch) -> Self {
        Message { stream, batch }
    }

    /// Number of data tuples this message carries.
    pub fn tuple_count(&self) -> usize {
        self.batch.len()
    }
}

/// An addressed message.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Envelope {
    /// Sending operator.
    pub from: OperatorId,
    /// Receiving operator.
    pub to: OperatorId,
    /// The payload.
    pub message: Message,
}

impl Envelope {
    /// Wrap a message with its addressing information.
    pub fn new(from: OperatorId, to: OperatorId, message: Message) -> Self {
        Envelope { from, to, message }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seep_core::{Key, Tuple};

    #[test]
    fn data_batch_roundtrip_and_counts() {
        let mut batch = TupleBatch::new();
        batch.push(Tuple::new(5, Key(1), vec![1]), 100);
        batch.push(Tuple::new(6, Key(2), vec![2]), 0);
        let msg = Message::data_batch(StreamId(3), batch);
        assert_eq!(msg.tuple_count(), 2);
        let env = Envelope::new(OperatorId::new(1), OperatorId::new(2), msg.clone());
        let bytes = bincode::serialize(&env).unwrap();
        let back: Envelope = bincode::deserialize(&bytes).unwrap();
        assert_eq!(back.message, msg);
        assert_eq!(back.from, OperatorId::new(1));
    }
}
