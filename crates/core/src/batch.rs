//! Tuple batches: the unit of transport and processing on the data plane.
//!
//! The paper's per-tuple model (§2.2) stays the *semantic* contract — a batch
//! is nothing more than a run of consecutive tuples from one producer, sent
//! in one envelope and processed in one operator call; a single tuple is a
//! batch of one. Batching amortises the per-tuple costs of the hot path
//! (channel hops, dedup probes, clock bumps, routing bookkeeping) without
//! changing any observable behaviour: `tests/batch_equivalence.rs` holds
//! every batch size to the same sink outputs, counts and emit clocks, all
//! equal to an expectation recomputed from the input.

use serde::{Deserialize, Serialize};

use crate::operator::OutputTuple;
use crate::tuple::{Timestamp, Tuple};

/// A run of consecutive tuples from one producer towards one receiver.
///
/// Tuples in a batch carry strictly increasing timestamps (the producer
/// assigns them from one contiguous logical-clock block), which is what lets
/// the receiver's duplicate filter admit or reject the whole batch with a
/// single watermark comparison. `emitted_at_us[i]` is the source emit time of
/// `tuples[i]`, preserved per tuple so sink latency stays per-tuple-accurate
/// at any batch size.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TupleBatch {
    /// The tuples, in producer emit order.
    pub tuples: Vec<Tuple>,
    /// Per-tuple source emit times (µs since the runtime epoch; 0 = unknown),
    /// parallel to `tuples`.
    pub emitted_at_us: Vec<u64>,
}

impl TupleBatch {
    /// An empty batch.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty batch with room for `capacity` tuples.
    pub fn with_capacity(capacity: usize) -> Self {
        TupleBatch {
            tuples: Vec::with_capacity(capacity),
            emitted_at_us: Vec::with_capacity(capacity),
        }
    }

    /// Append one tuple with its source emit time.
    pub fn push(&mut self, tuple: Tuple, emitted_at_us: u64) {
        self.tuples.push(tuple);
        self.emitted_at_us.push(emitted_at_us);
    }

    /// Number of tuples in the batch.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// Whether the batch holds no tuples.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// Timestamp of the first tuple, if any.
    pub fn first_ts(&self) -> Option<Timestamp> {
        self.tuples.first().map(|t| t.ts)
    }

    /// Timestamp of the last tuple, if any.
    pub fn last_ts(&self) -> Option<Timestamp> {
        self.tuples.last().map(|t| t.ts)
    }
}

/// Outputs of a [`process_batch`](crate::operator::StatefulOperator::process_batch)
/// call, each attributed to the index of the input tuple that produced it.
///
/// The attribution is what keeps end-to-end latency per-tuple-accurate on the
/// batched plane: the runtime maps an output back to its input's source emit
/// time when forwarding.
#[derive(Debug, Default)]
pub struct BatchOutput {
    items: Vec<(usize, OutputTuple)>,
    source: usize,
}

impl BatchOutput {
    /// An empty output set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the input-tuple index subsequent [`push`](Self::push) calls are
    /// attributed to.
    pub fn set_source(&mut self, index: usize) {
        self.source = index;
    }

    /// Append an output attributed to the current source index.
    pub fn push(&mut self, output: OutputTuple) {
        self.items.push((self.source, output));
    }

    /// Drain `scratch`, attributing every output to input index `source`.
    /// This is how the default per-tuple fallback adapts `process` output.
    pub fn absorb(&mut self, source: usize, scratch: &mut Vec<OutputTuple>) {
        for output in scratch.drain(..) {
            self.items.push((source, output));
        }
    }

    /// Number of outputs.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether no outputs were produced.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Borrow the `(input index, output)` pairs in emit order.
    pub fn items(&self) -> &[(usize, OutputTuple)] {
        &self.items
    }

    /// Consume into the `(input index, output)` pairs in emit order.
    pub fn into_items(self) -> Vec<(usize, OutputTuple)> {
        self.items
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple::Key;

    #[test]
    fn batch_push_and_bounds() {
        let mut b = TupleBatch::with_capacity(2);
        assert!(b.is_empty());
        assert_eq!(b.first_ts(), None);
        b.push(Tuple::new(3, Key(1), vec![1]), 10);
        b.push(Tuple::new(4, Key(2), vec![2]), 0);
        assert_eq!(b.len(), 2);
        assert_eq!(b.first_ts(), Some(3));
        assert_eq!(b.last_ts(), Some(4));
        assert_eq!(b.emitted_at_us, vec![10, 0]);
    }

    #[test]
    fn batch_roundtrips_through_bincode() {
        let mut b = TupleBatch::new();
        b.push(Tuple::new(1, Key(9), vec![7, 8]), 42);
        let bytes = bincode::serialize(&b).unwrap();
        let back: TupleBatch = bincode::deserialize(&bytes).unwrap();
        assert_eq!(back, b);
    }

    #[test]
    fn batch_output_attributes_sources() {
        let mut out = BatchOutput::new();
        out.set_source(0);
        out.push(OutputTuple::new(Key(1), vec![1]));
        out.set_source(2);
        out.push(OutputTuple::new(Key(2), vec![2]));
        let mut scratch = vec![OutputTuple::new(Key(3), vec![3])];
        out.absorb(5, &mut scratch);
        assert!(scratch.is_empty());
        assert_eq!(out.len(), 3);
        let items = out.into_items();
        assert_eq!(items[0].0, 0);
        assert_eq!(items[1].0, 2);
        assert_eq!(items[2].0, 5);
    }
}
