//! Buffer state: output tuples kept for replay and re-dispatch (§3.1).
//!
//! An SPS interposes output buffers between operators. Tuples in these buffers
//! (i) must be re-processed after the failure of a downstream operator and
//! (ii) must be dispatched to the correct partition after a downstream
//! operator is scaled out. The buffer state of an operator therefore belongs
//! to the query state managed by the SPS and is included in checkpoints.

use std::collections::{BTreeMap, VecDeque};

use serde::{Deserialize, Serialize};

use crate::operator::OperatorId;
use crate::state::RoutingState;
use crate::tuple::{Timestamp, Tuple};

/// The buffer state β_o of an operator: for each (partitioned) downstream
/// operator `d^i`, the finite list of past output tuples sent on stream
/// `(o, d^i)` that may still need to be replayed.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct BufferState {
    buffers: BTreeMap<OperatorId, VecDeque<Tuple>>,
}

impl BufferState {
    /// An empty buffer state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register an (empty) output buffer towards downstream operator `d`.
    pub fn add_downstream(&mut self, d: OperatorId) {
        self.buffers.entry(d).or_default();
    }

    /// Remove the buffer towards `d` (e.g. after the downstream operator is
    /// replaced by new partitions), returning its tuples if it existed.
    pub fn remove_downstream(&mut self, d: OperatorId) -> Option<VecDeque<Tuple>> {
        self.buffers.remove(&d)
    }

    /// Append an output tuple destined for downstream operator `d`.
    pub fn push(&mut self, d: OperatorId, tuple: Tuple) {
        self.buffers.entry(d).or_default().push_back(tuple);
    }

    /// The buffered tuples towards `d` (`β_o(d^i)` in the paper).
    pub fn tuples_for(&self, d: OperatorId) -> &[Tuple] {
        self.buffers.get(&d).map(|q| q.as_slices().0).unwrap_or(&[])
    }

    /// Iterate over the buffered tuples towards `d` (handles the case where
    /// the ring buffer wraps, unlike [`tuples_for`](Self::tuples_for)).
    pub fn iter_for(&self, d: OperatorId) -> impl Iterator<Item = &Tuple> + '_ {
        self.buffers.get(&d).into_iter().flatten()
    }

    /// Downstream operators that currently have a buffer.
    pub fn downstreams(&self) -> Vec<OperatorId> {
        self.buffers.keys().copied().collect()
    }

    /// Total number of buffered tuples across all downstream operators.
    pub fn len(&self) -> usize {
        self.buffers.values().map(|q| q.len()).sum()
    }

    /// True if no tuple is buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Approximate size in bytes of all buffered tuples.
    pub fn size_bytes(&self) -> usize {
        self.buffers
            .values()
            .flat_map(|q| q.iter())
            .map(Tuple::size_bytes)
            .sum()
    }

    /// Discard tuples destined for `d` with timestamps **up to and including**
    /// `ts` — the `trim(o, τ)` primitive. Called after the downstream operator
    /// has included those tuples in a checkpoint, so they are no longer needed
    /// for recovery. Returns the number of tuples discarded.
    pub fn trim(&mut self, d: OperatorId, ts: Timestamp) -> usize {
        let Some(q) = self.buffers.get_mut(&d) else {
            return 0;
        };
        let before = q.len();
        while matches!(q.front(), Some(t) if t.ts <= ts) {
            q.pop_front();
        }
        before - q.len()
    }

    /// Trim every downstream buffer up to the given timestamp.
    pub fn trim_all(&mut self, ts: Timestamp) -> usize {
        let ds: Vec<OperatorId> = self.downstreams();
        ds.into_iter().map(|d| self.trim(d, ts)).sum()
    }

    /// Re-partition the buffered tuples according to an updated routing state
    /// (`partition-buffer-state(u)`, Algorithm 2 lines 13–17). Each buffered
    /// tuple is re-assigned to the downstream partition whose key interval
    /// contains its key. Tuples whose key no longer routes anywhere are
    /// dropped (this cannot happen when the routing state covers the full key
    /// interval previously owned by the replaced operator).
    pub fn repartition(&mut self, routing: &RoutingState) -> BufferState {
        let mut out = BufferState::new();
        for entry in routing.entries() {
            out.add_downstream(entry.target);
        }
        for (_, q) in std::mem::take(&mut self.buffers) {
            for t in q {
                if let Some(target) = routing.route(t.key) {
                    out.push(target, t);
                }
            }
        }
        *self = out.clone();
        out
    }

    /// Split this buffer state so that the partition owning the first key
    /// range receives all buffered tuples and the remaining partitions start
    /// with empty buffers (Algorithm 2, line 7: `β_1 ← β`, `β_i ← ∅` for
    /// `i ≠ 1`). Returns one buffer state per partition.
    pub fn assign_to_first(self, partitions: usize) -> Vec<BufferState> {
        let mut out = Vec::with_capacity(partitions);
        out.push(self);
        for _ in 1..partitions {
            out.push(BufferState::new());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key::KeyRange;
    use crate::tuple::Key;

    fn tuple(ts: Timestamp, key: u64) -> Tuple {
        Tuple::new(ts, Key(key), vec![0u8; 4])
    }

    #[test]
    fn push_and_iterate() {
        let mut b = BufferState::new();
        let d = OperatorId::new(2);
        b.push(d, tuple(1, 10));
        b.push(d, tuple(2, 20));
        assert_eq!(b.len(), 2);
        assert!(!b.is_empty());
        assert_eq!(b.tuples_for(d).len(), 2);
        assert_eq!(b.iter_for(d).count(), 2);
        assert_eq!(b.iter_for(OperatorId::new(9)).count(), 0);
        assert!(b.size_bytes() > 0);
        assert_eq!(b.downstreams(), vec![d]);
    }

    #[test]
    fn trim_discards_only_older_tuples() {
        let mut b = BufferState::new();
        let d = OperatorId::new(1);
        for ts in 1..=10 {
            b.push(d, tuple(ts, ts));
        }
        let removed = b.trim(d, 4);
        assert_eq!(removed, 4);
        assert_eq!(b.len(), 6);
        assert_eq!(b.tuples_for(d)[0].ts, 5);
        // Trimming an unknown downstream is a no-op.
        assert_eq!(b.trim(OperatorId::new(99), 100), 0);
    }

    #[test]
    fn trim_all_covers_every_downstream() {
        let mut b = BufferState::new();
        b.push(OperatorId::new(1), tuple(1, 1));
        b.push(OperatorId::new(2), tuple(2, 2));
        b.push(OperatorId::new(2), tuple(5, 3));
        assert_eq!(b.trim_all(2), 2);
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn repartition_moves_tuples_to_new_owners() {
        // Old buffer towards a single downstream op3; after scale out the key
        // space is split between op4 and op5.
        let mut b = BufferState::new();
        let old = OperatorId::new(3);
        b.push(old, tuple(1, 100));
        b.push(old, tuple(2, u64::MAX - 5));
        b.push(old, tuple(3, 200));

        let mut routing = RoutingState::new();
        let ranges = KeyRange::full().split_even(2).unwrap();
        routing.set_route(ranges[0], OperatorId::new(4));
        routing.set_route(ranges[1], OperatorId::new(5));

        b.repartition(&routing);
        assert_eq!(b.tuples_for(OperatorId::new(4)).len(), 2);
        assert_eq!(b.tuples_for(OperatorId::new(5)).len(), 1);
        assert_eq!(b.tuples_for(old).len(), 0);
        assert_eq!(b.len(), 3);
    }

    #[test]
    fn assign_to_first_gives_all_tuples_to_partition_one() {
        let mut b = BufferState::new();
        b.push(OperatorId::new(7), tuple(1, 1));
        let parts = b.assign_to_first(3);
        assert_eq!(parts.len(), 3);
        assert_eq!(parts[0].len(), 1);
        assert!(parts[1].is_empty());
        assert!(parts[2].is_empty());
    }

    #[test]
    fn serde_roundtrip() {
        let mut b = BufferState::new();
        b.push(OperatorId::new(1), tuple(1, 5));
        let bytes = bincode::serialize(&b).unwrap();
        let back: BufferState = bincode::deserialize(&bytes).unwrap();
        assert_eq!(back, b);
    }
}
