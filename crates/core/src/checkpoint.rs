//! Checkpoints of operator state (§3.2).
//!
//! A checkpoint captures a consistent copy of an operator's processing state
//! (with the timestamp vector of the most recent reflected input tuples) and
//! its buffer state. Checkpoints are taken asynchronously every checkpointing
//! interval `c` and backed up to an upstream VM; recovery restores the most
//! recent checkpoint and replays the tuples that are not yet reflected in it.
//!
//! Incremental checkpoints carry only the key/value entries that changed
//! since the previous checkpoint, so a periodic round costs what changed, not
//! what exists. The contract: a delta names its base sequence and contains at
//! least every key changed since it.

use bytes::Bytes;
use serde::{Deserialize, Serialize};

use crate::operator::OperatorId;
use crate::state::{BufferState, ProcessingState};
use crate::tuple::{Key, TimestampVec};

/// Metadata describing a checkpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CheckpointMeta {
    /// The operator instance the checkpoint belongs to.
    pub operator: OperatorId,
    /// Monotonically increasing sequence number per operator.
    pub sequence: u64,
}

/// A full checkpoint of an operator: `(θ_o, τ_o, β_o)` as returned by
/// `checkpoint-state(o)`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Checkpoint {
    /// Checkpoint identity.
    pub meta: CheckpointMeta,
    /// Processing state θ_o including the timestamp vector τ_o.
    pub processing: ProcessingState,
    /// Buffer state β_o (output tuples not yet checkpointed downstream).
    pub buffer: BufferState,
    /// Value of the operator's logical output clock when the checkpoint was
    /// taken. A restored operator resets its clock to this value (§3.2) so
    /// that re-emitted tuples carry the same timestamps as before the failure
    /// and downstream operators can discard them as duplicates.
    #[serde(default)]
    pub emit_clock: crate::tuple::Timestamp,
    /// Decayed per-key tuple counters observed by the worker up to the
    /// checkpoint. When present, [`sample_keys`](Self::sample_keys) weights
    /// its sample by this observed traffic instead of the state-footprint
    /// heuristic. Empty for checkpoints taken before traffic tracking (or by
    /// operators that saw no tuples).
    #[serde(default)]
    pub traffic: crate::traffic::TrafficStats,
}

impl Checkpoint {
    /// Build a checkpoint from its parts.
    pub fn new(
        operator: OperatorId,
        sequence: u64,
        processing: ProcessingState,
        buffer: BufferState,
    ) -> Self {
        Checkpoint {
            meta: CheckpointMeta { operator, sequence },
            processing,
            buffer,
            emit_clock: 0,
            traffic: crate::traffic::TrafficStats::new(),
        }
    }

    /// Attach the operator's logical output-clock value.
    pub fn with_emit_clock(mut self, clock: crate::tuple::Timestamp) -> Self {
        self.emit_clock = clock;
        self
    }

    /// Attach the worker's observed per-key traffic counters.
    pub fn with_traffic(mut self, traffic: crate::traffic::TrafficStats) -> Self {
        self.traffic = traffic;
        self
    }

    /// An empty checkpoint for a freshly deployed (or stateless) operator.
    pub fn empty(operator: OperatorId) -> Self {
        Checkpoint::new(operator, 0, ProcessingState::empty(), BufferState::new())
    }

    /// The timestamp vector of the most recent input tuples reflected in the
    /// checkpointed processing state.
    pub fn timestamps(&self) -> &TimestampVec {
        self.processing.timestamps()
    }

    /// Serialise the checkpoint to bytes (used when backing up to another VM).
    pub fn to_bytes(&self) -> crate::Result<Vec<u8>> {
        Ok(bincode::serialize(self)?)
    }

    /// Deserialise a checkpoint from bytes.
    pub fn from_bytes(bytes: &[u8]) -> crate::Result<Self> {
        Ok(bincode::deserialize(bytes)?)
    }

    /// Approximate size of the checkpoint in bytes, used by cost models and
    /// the overhead experiments (§6.3).
    pub fn size_bytes(&self) -> usize {
        self.processing.size_bytes() + self.buffer.size_bytes()
    }

    /// A load-weighted sample of at most `max` keys from the checkpoint, for
    /// distribution-guided key splits during reconfiguration: hot keys are
    /// repeated in proportion to their share of the load, so
    /// [`KeyRange::split_by_distribution`] balances load rather than
    /// distinct-key counts.
    ///
    /// When the checkpoint carries [`traffic`](Self::traffic) counters the
    /// sample is weighted by **observed tuple traffic** (with exponential
    /// decay applied at the worker, so stale hot spots fade); otherwise it
    /// falls back to the state-footprint heuristic, which tracks load for
    /// windowed operators but not for constant-size per-key state.
    ///
    /// [`KeyRange::split_by_distribution`]: crate::key::KeyRange::split_by_distribution
    pub fn sample_keys(&self, max: usize) -> Vec<Key> {
        if !self.traffic.is_empty() {
            self.traffic.weighted_sample(max)
        } else {
            self.processing.weighted_key_sample(max)
        }
    }

    /// Apply an incremental checkpoint on top of this checkpoint, producing
    /// the state the increment was derived from. Costs what the increment
    /// holds, not what the checkpoint holds. Returns the change in
    /// [`size_bytes`](Self::size_bytes), so a store that accounts for its
    /// footprint does not have to re-measure the whole checkpoint.
    pub fn apply_increment(&mut self, inc: &IncrementalCheckpoint) -> isize {
        assert_eq!(inc.meta.operator, self.meta.operator, "operator mismatch");
        let entry = |v: &Bytes| std::mem::size_of::<Key>() + v.len();
        let mut grown = inc.buffer.size_bytes() as isize - self.buffer.size_bytes() as isize;
        for (k, v) in &inc.changed {
            grown += entry(v) as isize;
            if let Some(old) = self.processing.insert(*k, v.clone()) {
                grown -= entry(&old) as isize;
            }
        }
        for k in &inc.removed {
            if let Some(old) = self.processing.remove(*k) {
                grown -= entry(&old) as isize;
            }
        }
        *self.processing.timestamps_mut() = inc.timestamps.clone();
        self.buffer = inc.buffer.clone();
        self.meta.sequence = inc.meta.sequence;
        self.emit_clock = inc.emit_clock;
        for op in &inc.traffic {
            self.traffic.apply(op);
        }
        grown
    }
}

/// An incremental checkpoint: the entries that changed (or were removed)
/// since the base checkpoint, plus the new timestamp vector and buffer state.
///
/// The contract every producer keeps: the delta names the sequence of the
/// checkpoint it extends, and `changed`/`removed` contain **at least** every
/// key whose entry differs between that checkpoint and the captured state
/// (extra keys are no-ops when applied). Applying it to the base therefore
/// yields exactly a full checkpoint of the captured state.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IncrementalCheckpoint {
    /// Checkpoint identity (sequence follows the base checkpoint's sequence).
    pub meta: CheckpointMeta,
    /// Sequence number of the base checkpoint this increment applies to.
    pub base_sequence: u64,
    /// Entries added or modified since the base.
    pub changed: Vec<(Key, Bytes)>,
    /// Keys removed since the base.
    pub removed: Vec<Key>,
    /// New timestamp vector.
    pub timestamps: TimestampVec,
    /// New buffer state (buffers change every interval, so they are carried
    /// in full; they are trimmed aggressively and stay small).
    pub buffer: BufferState,
    /// Value of the operator's logical output clock when this increment was
    /// taken. Carried so a checkpoint materialised from a delta chain resets
    /// a restored operator's clock to the *current* value, not the one
    /// frozen in the last full checkpoint — otherwise post-recovery output
    /// would reuse old timestamps and be dropped as duplicates downstream.
    #[serde(default)]
    pub emit_clock: crate::tuple::Timestamp,
    /// What happened to the per-key traffic counters since the base: the
    /// counts recorded and the decay steps taken, in order. Replaying them
    /// keeps a checkpoint materialised from a delta chain sampling the
    /// *current* traffic, not the last full checkpoint's.
    #[serde(default)]
    pub traffic: Vec<crate::traffic::TrafficOp>,
}

impl IncrementalCheckpoint {
    /// Compute the increment that transforms `base` into `current`, by
    /// comparing the two in full. The runtime never does this — workers
    /// capture deltas from their operators' dirty marks — it is the
    /// reference those captures are tested against.
    pub fn diff(base: &Checkpoint, current: &Checkpoint) -> Self {
        let (changed, removed) = current.processing.diff_from(&base.processing);
        IncrementalCheckpoint {
            meta: current.meta,
            base_sequence: base.meta.sequence,
            changed,
            removed,
            timestamps: current.processing.timestamps().clone(),
            buffer: current.buffer.clone(),
            emit_clock: current.emit_clock,
            traffic: vec![crate::traffic::TrafficOp::Set(current.traffic.clone())],
        }
    }

    /// Approximate serialised size in bytes.
    pub fn size_bytes(&self) -> usize {
        self.changed
            .iter()
            .map(|(_, v)| std::mem::size_of::<Key>() + v.len())
            .sum::<usize>()
            + self.removed.len() * std::mem::size_of::<Key>()
            + self.buffer.size_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple::{Key, StreamId, Tuple};

    fn base_checkpoint() -> Checkpoint {
        let mut st = ProcessingState::empty();
        st.insert(Key(1), vec![1]);
        st.insert(Key(2), vec![2]);
        st.advance_ts(StreamId(0), 10);
        let mut buf = BufferState::new();
        buf.push(OperatorId::new(9), Tuple::new(11, Key(1), vec![0]));
        Checkpoint::new(OperatorId::new(5), 1, st, buf)
    }

    #[test]
    fn roundtrip_serialisation() {
        let cp = base_checkpoint();
        let bytes = cp.to_bytes().unwrap();
        let back = Checkpoint::from_bytes(&bytes).unwrap();
        assert_eq!(back, cp);
        assert!(Checkpoint::from_bytes(&[1, 2, 3]).is_err());
    }

    #[test]
    fn empty_checkpoint_has_no_state() {
        let cp = Checkpoint::empty(OperatorId::new(1));
        assert_eq!(cp.size_bytes(), 0);
        assert!(cp.processing.is_empty());
        assert!(cp.buffer.is_empty());
        assert_eq!(cp.meta.sequence, 0);
    }

    #[test]
    fn sample_keys_reflects_state_weights() {
        let mut st = ProcessingState::empty();
        st.insert(Key(10), vec![0u8; 400]);
        st.insert(Key(20), vec![0u8; 40]);
        let cp = Checkpoint::new(OperatorId::new(1), 1, st, BufferState::new());
        let sample = cp.sample_keys(50);
        assert!(!sample.is_empty() && sample.len() <= 50);
        let hot = sample.iter().filter(|k| **k == Key(10)).count();
        let cold = sample.iter().filter(|k| **k == Key(20)).count();
        assert!(hot > cold, "hot key must dominate the sample");
        assert!(Checkpoint::empty(OperatorId::new(2))
            .sample_keys(10)
            .is_empty());
    }

    #[test]
    fn timestamps_come_from_processing_state() {
        let cp = base_checkpoint();
        assert_eq!(cp.timestamps().get(StreamId(0)), Some(10));
    }

    #[test]
    fn incremental_diff_and_apply_roundtrip() {
        let base = base_checkpoint();
        let mut current = base.clone();
        current.meta.sequence = 2;
        current.emit_clock = 77;
        current.processing.insert(Key(2), vec![22]); // modified
        current.processing.insert(Key(3), vec![3]); // added
        current.processing.remove(Key(1)); // removed
        current.processing.advance_ts(StreamId(0), 20);
        current.buffer = BufferState::new();

        let inc = IncrementalCheckpoint::diff(&base, &current);
        assert_eq!(inc.base_sequence, 1);
        assert_eq!(inc.changed.len(), 2);
        assert_eq!(inc.removed, vec![Key(1)]);
        assert!(inc.size_bytes() < current.size_bytes() + base.size_bytes());

        let mut rebuilt = base.clone();
        let grown = rebuilt.apply_increment(&inc);
        assert_eq!(
            grown,
            current.size_bytes() as isize - base.size_bytes() as isize
        );
        assert_eq!(rebuilt.processing, current.processing);
        assert_eq!(rebuilt.buffer, current.buffer);
        assert_eq!(rebuilt.meta.sequence, 2);
        assert_eq!(
            rebuilt.emit_clock, 77,
            "emit clock must track the increment, not the base"
        );
    }

    #[test]
    fn increment_smaller_than_full_for_small_changes() {
        // A large state with a single changed entry: the increment must be
        // far smaller than a full checkpoint.
        let mut st = ProcessingState::empty();
        for i in 0..1000u64 {
            st.insert(Key(i), vec![0u8; 64]);
        }
        let base = Checkpoint::new(OperatorId::new(1), 1, st.clone(), BufferState::new());
        let mut st2 = st;
        st2.insert(Key(5), vec![1u8; 64]);
        let current = Checkpoint::new(OperatorId::new(1), 2, st2, BufferState::new());
        let inc = IncrementalCheckpoint::diff(&base, &current);
        assert!(inc.size_bytes() * 10 < current.size_bytes());
    }

    #[test]
    #[should_panic(expected = "operator mismatch")]
    fn apply_increment_checks_operator() {
        let base = base_checkpoint();
        let other = Checkpoint::empty(OperatorId::new(42));
        let inc = IncrementalCheckpoint::diff(&other, &other);
        let mut cp = base;
        cp.apply_increment(&inc);
    }
}
