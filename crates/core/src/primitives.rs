//! The state-management primitives of §3.2 (Algorithms 1 and 2).
//!
//! These functions tie together the operator trait, the three kinds of state
//! and the backup stores. The runtime (`seep-runtime`) and the simulator
//! (`seep-sim`) drive them; keeping them here, free of any threading or
//! networking concerns, makes them easy to test exhaustively.
//!
//! | Paper primitive | Where it lives |
//! |---|---|
//! | `checkpoint-state(o)` | [`checkpoint_state`] |
//! | `backup-state(o)` (Algorithm 1) | `seep-store`'s `BackupCoordinator::backup_state` |
//! | `restore-state(o, θ, τ, β, ρ)` | [`restore_state`] |
//! | `replay-buffer-state(u, o)` | [`replay_buffer_state`] |
//! | `trim(o, τ)` | [`BufferState::trim`] |
//! | `partition-processing-state(o, π)` (Algorithm 2) | [`split_checkpoint`] (by value; [`partition_checkpoint`] splits a copy) |
//! | `partition-routing-state(u, o, π)` | [`RoutingState::repartition`] |
//! | `partition-buffer-state(u)` | [`BufferState::repartition`] |
//!
//! Algorithm 2's line 5 moves entries rather than copying them:
//! [`split_checkpoint`] consumes the captured checkpoint and cuts its
//! key-ordered entry map at the range boundaries. Recovery and scale in (one
//! range) hand the whole state over unchanged, and a scale out costs a tree
//! cut per new partition, whatever the number of keys.

use crate::checkpoint::Checkpoint;
use crate::error::{Error, Result};
use crate::key::KeyRange;
use crate::operator::{OperatorId, StatefulOperator};
use crate::state::{BufferState, RoutingState};
use crate::tuple::{StreamId, Timestamp, TimestampVec, Tuple};

/// Take a consistent checkpoint of an operator: `checkpoint-state(o) →
/// (θ_o, τ_o, β_o)`.
///
/// `sequence` is the checkpoint sequence number assigned by the caller (the
/// checkpointing coordinator increments it per operator). The timestamp
/// vector τ_o is whatever the operator recorded in its processing state via
/// [`crate::state::ProcessingState::advance_ts`]; the runtime keeps it up to
/// date as it feeds tuples to the operator.
pub fn checkpoint_state(
    operator_id: OperatorId,
    sequence: u64,
    operator: &dyn StatefulOperator,
    buffer: &BufferState,
) -> Checkpoint {
    let processing = operator.get_processing_state();
    Checkpoint::new(operator_id, sequence, processing, buffer.clone())
}

/// Restore a checkpoint into a fresh operator instance:
/// `restore-state(o, θ, τ, β, ρ)` (Algorithm 1, lines 8–9).
///
/// Sets the operator's processing state and returns the pieces the runtime
/// must install around it: the buffer state the restored operator starts
/// with, the timestamp vector it reflects (used to (a) reset the logical
/// clock so duplicates are detectable downstream and (b) discard replayed
/// tuples that are already reflected), and the routing state `ρ` passed
/// through for the runtime's dispatcher.
pub struct RestoredState {
    /// Buffer state the restored operator resumes with.
    pub buffer: BufferState,
    /// Timestamp vector reflected in the restored processing state.
    pub timestamps: TimestampVec,
    /// Routing state towards the operator's downstream partitions.
    pub routing: RoutingState,
}

/// See [`RestoredState`].
pub fn restore_state(
    operator: &mut dyn StatefulOperator,
    checkpoint: Checkpoint,
    routing: RoutingState,
) -> RestoredState {
    let timestamps = checkpoint.processing.timestamps().clone();
    operator.set_processing_state(checkpoint.processing);
    RestoredState {
        buffer: checkpoint.buffer,
        timestamps,
        routing,
    }
}

/// Replay the tuples buffered by upstream operator `u` towards operator `o`:
/// `replay-buffer-state(u, o)` (Algorithm 1, line 10).
///
/// Only tuples **newer** than the timestamp reflected in the restored state
/// are returned; older tuples are duplicates of work already captured by the
/// checkpoint. `stream` is the stream id of `u`'s output as seen by `o`.
pub fn replay_buffer_state(
    upstream_buffer: &BufferState,
    target: OperatorId,
    stream: StreamId,
    reflected: &TimestampVec,
) -> Vec<Tuple> {
    let floor: Timestamp = reflected.get(stream).unwrap_or(0);
    upstream_buffer
        .iter_for(target)
        .filter(|t| t.ts > floor)
        .cloned()
        .collect()
}

/// Partition a checkpoint into π partitions (Algorithm 2,
/// `partition-processing-state(o, π)`), consuming it:
///
/// * the processing state is split by key range (line 5); its entries move
///   into the partitions, so no key or value is copied and the cost grows
///   with π, not with the number of keys,
/// * the timestamp vector is copied to every partition (line 6),
/// * the buffer state goes to the first partition, the rest start empty
///   (line 7).
///
/// `new_operators` pairs each new partitioned operator with the key range it
/// owns and must have the same length as the number of partitions. With one
/// range covering the whole state (recovery, scale in) the checkpoint simply
/// moves to the new operator.
pub fn split_checkpoint(
    checkpoint: Checkpoint,
    new_operators: &[(OperatorId, KeyRange)],
) -> Result<Vec<Checkpoint>> {
    if new_operators.is_empty() {
        return Err(Error::InvalidParallelism(0));
    }
    let ranges: Vec<KeyRange> = new_operators.iter().map(|(_, r)| *r).collect();
    let states = checkpoint.processing.split_by_ranges(&ranges);
    let buffers = checkpoint.buffer.assign_to_first(new_operators.len());
    let traffic = checkpoint.traffic.split_by_ranges(&ranges);
    Ok(new_operators
        .iter()
        .zip(states)
        .zip(buffers)
        .zip(traffic)
        .map(|((((op, _), processing), buffer), traffic)| {
            Checkpoint::new(*op, 0, processing, buffer).with_traffic(traffic)
        })
        .collect())
}

/// [`split_checkpoint`] of a copy, for callers that keep the checkpoint.
pub fn partition_checkpoint(
    checkpoint: &Checkpoint,
    new_operators: &[(OperatorId, KeyRange)],
) -> Result<Vec<Checkpoint>> {
    split_checkpoint(checkpoint.clone(), new_operators)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operator::{OutputTuple, StatelessFn};
    use crate::state::ProcessingState;
    use crate::tuple::Key;

    /// A tiny stateful counter operator used by the primitive tests.
    struct Counter {
        counts: std::collections::BTreeMap<Key, u64>,
    }

    impl Counter {
        fn new() -> Self {
            Counter {
                counts: Default::default(),
            }
        }
    }

    impl StatefulOperator for Counter {
        fn process(&mut self, _s: StreamId, t: &Tuple, _out: &mut Vec<OutputTuple>) {
            *self.counts.entry(t.key).or_insert(0) += 1;
        }

        fn get_processing_state(&self) -> ProcessingState {
            let mut st = ProcessingState::empty();
            for (k, v) in &self.counts {
                st.insert_encoded(*k, v).unwrap();
            }
            st
        }

        fn set_processing_state(&mut self, state: ProcessingState) {
            self.counts.clear();
            for (k, _) in state.iter() {
                let v: u64 = state.get_decoded(k).unwrap().unwrap();
                self.counts.insert(k, v);
            }
        }

        fn name(&self) -> &str {
            "counter"
        }
    }

    fn feed(op: &mut Counter, keys: &[u64]) {
        let mut out = Vec::new();
        for (i, &k) in keys.iter().enumerate() {
            op.process(
                StreamId(0),
                &Tuple::new(i as u64 + 1, Key(k), vec![]),
                &mut out,
            );
        }
    }

    #[test]
    fn checkpoint_and_restore_roundtrip() {
        let mut op = Counter::new();
        feed(&mut op, &[1, 2, 2, 3]);
        let mut buffer = BufferState::new();
        buffer.push(OperatorId::new(9), Tuple::new(4, Key(3), vec![]));

        let cp = checkpoint_state(OperatorId::new(5), 1, &op, &buffer);
        assert_eq!(cp.meta.operator, OperatorId::new(5));
        assert_eq!(cp.processing.len(), 3);
        assert_eq!(cp.buffer.len(), 1);

        let mut fresh = Counter::new();
        let restored = restore_state(&mut fresh, cp, RoutingState::single(OperatorId::new(9)));
        assert_eq!(fresh.counts.get(&Key(2)), Some(&2));
        assert_eq!(restored.buffer.len(), 1);
        assert_eq!(restored.routing.targets(), vec![OperatorId::new(9)]);
    }

    #[test]
    fn stateless_checkpoint_is_empty() {
        let op = StatelessFn::new("noop", |_, _, _: &mut Vec<OutputTuple>| {});
        let cp = checkpoint_state(OperatorId::new(1), 1, &op, &BufferState::new());
        assert!(cp.processing.is_empty());
    }

    #[test]
    fn replay_skips_tuples_reflected_in_checkpoint() {
        let target = OperatorId::new(3);
        let mut buffer = BufferState::new();
        for ts in 1..=10 {
            buffer.push(target, Tuple::new(ts, Key(ts), vec![]));
        }
        let mut reflected = TimestampVec::new();
        reflected.advance(StreamId(7), 6);
        let replayed = replay_buffer_state(&buffer, target, StreamId(7), &reflected);
        assert_eq!(replayed.len(), 4);
        assert_eq!(replayed[0].ts, 7);
        // A stream not present in the vector replays everything.
        let replayed_all = replay_buffer_state(&buffer, target, StreamId(8), &TimestampVec::new());
        assert_eq!(replayed_all.len(), 10);
    }

    #[test]
    fn partition_checkpoint_splits_state_and_assigns_buffer_to_first() {
        let mut op = Counter::new();
        feed(&mut op, &[1, 5, 9, 1_000_000]);
        let mut buffer = BufferState::new();
        buffer.push(OperatorId::new(42), Tuple::new(9, Key(5), vec![]));
        let mut cp = checkpoint_state(OperatorId::new(5), 3, &op, &buffer);
        cp.processing.advance_ts(StreamId(0), 4);

        let ranges = KeyRange::full().split_even(2).unwrap();
        let new_ops = [
            (OperatorId::new(10), ranges[0]),
            (OperatorId::new(11), ranges[1]),
        ];
        let parts = partition_checkpoint(&cp, &new_ops).unwrap();
        assert_eq!(parts.len(), 2);
        assert_eq!(parts[0].meta.operator, OperatorId::new(10));
        let total: usize = parts.iter().map(|p| p.processing.len()).sum();
        assert_eq!(total, 4);
        // Buffer goes to the first partition only.
        assert_eq!(parts[0].buffer.len(), 1);
        assert!(parts[1].buffer.is_empty());
        // Timestamps copied to both partitions.
        for p in &parts {
            assert_eq!(p.processing.timestamps().get(StreamId(0)), Some(4));
        }
        assert!(partition_checkpoint(&cp, &[]).is_err());
    }
}
