//! Data model: streams, tuples, keys and logical timestamps (§2.2 of the paper).
//!
//! A stream is an infinite series of tuples. A tuple `t = (τ, k, p)` carries a
//! logical timestamp `τ` assigned by the emitting operator's monotonically
//! increasing output clock, a key field `k` used to
//! partition state and streams, and an opaque payload `p`.
//!
//! Payloads and state entries are `bincode` encodings made by
//! [`encode_bytes`], one exact-size allocation each, and decoding borrows:
//! [`Tuple::decode`] can lend a `&str` out of the payload.

use std::collections::BTreeMap;
use std::fmt;

use bytes::{Bytes, BytesMut};
use serde::{Deserialize, Serialize};

/// Encode `value` with `bincode` into one block of exactly its size: the
/// encoding is measured, written into a buffer allocated at that length,
/// and the buffer becomes the [`Bytes`] without a copy. Every payload and
/// state entry built from a typed value is made here.
pub fn encode_bytes<T: Serialize + ?Sized>(value: &T) -> crate::Result<Bytes> {
    let mut buf = BytesMut::zeroed(bincode::serialized_size(value)? as usize);
    bincode::serialize_into_slice(&mut buf, value)?;
    Ok(buf.freeze())
}

/// Logical timestamp assigned by the emitting operator's logical clock.
///
/// Timestamps are only comparable within one stream; they order the tuples of
/// that stream and let downstream operators detect duplicates after replay.
pub type Timestamp = u64;

/// Identifier of a stream in the execution graph.
///
/// Streams are identified by the *logical* upstream operator that produces
/// them, so all partitions of an upstream operator feed the same stream id.
/// This matches the paper's timestamp vector `τ_o = (τ_1, ..., τ_n)`, which
/// has one entry per input stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct StreamId(pub u32);

impl fmt::Display for StreamId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// Tuple key used to partition state and route tuples.
///
/// Keys are not unique and are typically computed as a hash of the payload
/// (§2.2). The key space is the full `u64` range, which the routing state
/// divides into [`crate::key::KeyRange`]s.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Key(pub u64);

impl Key {
    /// Build a key by hashing arbitrary bytes with a stable FNV-1a hash.
    ///
    /// A stable (non-randomised) hash is required so that the same logical key
    /// always maps to the same partition across VMs and across restarts.
    pub fn from_bytes(data: &[u8]) -> Self {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut hash = FNV_OFFSET;
        for &b in data {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(FNV_PRIME);
        }
        Key(hash)
    }

    /// Build a key from a string (hashes its UTF-8 bytes).
    pub fn from_str_key(s: &str) -> Self {
        Self::from_bytes(s.as_bytes())
    }

    /// Build a key directly from an integer domain value (e.g. a vehicle id).
    ///
    /// The value is mixed with a finaliser so that dense integer domains
    /// spread across the key space, which keeps even key-range splits balanced.
    pub fn from_u64(v: u64) -> Self {
        // SplitMix64 finaliser.
        let mut z = v.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        Key(z ^ (z >> 31))
    }

    /// The raw 64-bit key value.
    pub fn raw(self) -> u64 {
        self.0
    }
}

impl fmt::Display for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#018x}", self.0)
    }
}

impl From<u64> for Key {
    fn from(v: u64) -> Self {
        Key(v)
    }
}

/// A stream tuple `t = (τ, k, p)`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Tuple {
    /// Logical timestamp assigned by the emitting operator.
    pub ts: Timestamp,
    /// Partitioning key.
    pub key: Key,
    /// Opaque payload; operators agree on its encoding out of band.
    #[serde(with = "serde_bytes_compat")]
    pub payload: Bytes,
}

/// The payload travels as one byte blob, and decodes whole through `Bytes`'
/// own `Deserialize` (real `bytes` provides it with its `serde` feature).
mod serde_bytes_compat {
    use bytes::Bytes;
    use serde::{Deserialize, Deserializer, Serializer};

    pub fn serialize<S: Serializer>(b: &Bytes, s: S) -> Result<S::Ok, S::Error> {
        s.serialize_bytes(b)
    }

    pub fn deserialize<'de, D: Deserializer<'de>>(d: D) -> Result<Bytes, D::Error> {
        Bytes::deserialize(d)
    }
}

impl Tuple {
    /// Create a tuple from raw parts.
    pub fn new(ts: Timestamp, key: Key, payload: impl Into<Bytes>) -> Self {
        Tuple {
            ts,
            key,
            payload: payload.into(),
        }
    }

    /// Create a tuple by serialising a typed payload ([`encode_bytes`]).
    pub fn encode<T: Serialize + ?Sized>(
        ts: Timestamp,
        key: Key,
        value: &T,
    ) -> crate::Result<Self> {
        Ok(Tuple::new(ts, key, encode_bytes(value)?))
    }

    /// Decode the payload into a typed value, which may borrow from it: a
    /// `&str` payload decodes without allocating.
    pub fn decode<'a, T: Deserialize<'a>>(&'a self) -> crate::Result<T> {
        Ok(bincode::deserialize(&self.payload)?)
    }

    /// Approximate in-memory size of the tuple in bytes (used by cost models
    /// and buffer accounting).
    pub fn size_bytes(&self) -> usize {
        std::mem::size_of::<Timestamp>() + std::mem::size_of::<Key>() + self.payload.len()
    }
}

/// A vector of per-input-stream timestamps (`τ_o` in the paper).
///
/// It records, for each input stream, the timestamp of the most recent tuple
/// that is reflected in an operator's processing state. It is attached to
/// every checkpoint so the SPS knows which buffered tuples still have to be
/// replayed after a restore and which are duplicates.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TimestampVec {
    entries: BTreeMap<StreamId, Timestamp>,
}

impl TimestampVec {
    /// An empty timestamp vector (no tuple processed from any stream yet).
    pub fn new() -> Self {
        Self::default()
    }

    /// Record that tuples up to and including `ts` from `stream` are reflected
    /// in the state. Advancing never moves a timestamp backwards.
    pub fn advance(&mut self, stream: StreamId, ts: Timestamp) {
        let entry = self.entries.entry(stream).or_insert(0);
        if ts > *entry {
            *entry = ts;
        }
    }

    /// Force-set the timestamp for a stream, e.g. when restoring from a
    /// checkpoint (may move backwards).
    pub fn set(&mut self, stream: StreamId, ts: Timestamp) {
        self.entries.insert(stream, ts);
    }

    /// The most recent reflected timestamp for `stream`, or `None` if no tuple
    /// from that stream is reflected.
    pub fn get(&self, stream: StreamId) -> Option<Timestamp> {
        self.entries.get(&stream).copied()
    }

    /// Iterate over `(stream, timestamp)` pairs in stream order.
    pub fn iter(&self) -> impl Iterator<Item = (StreamId, Timestamp)> + '_ {
        self.entries.iter().map(|(s, t)| (*s, *t))
    }

    /// Number of streams tracked.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if no stream is tracked yet.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Merge another timestamp vector, keeping the maximum per stream.
    /// Used when merging operator state for scale in.
    pub fn merge_max(&mut self, other: &TimestampVec) {
        for (s, t) in other.iter() {
            self.advance(s, t);
        }
    }

    /// Pointwise minimum of two vectors over the union of their streams;
    /// streams present in only one vector take timestamp 0 (nothing reflected).
    /// Used to decide how far upstream buffers can safely be trimmed when
    /// several downstream partitions back up to the same upstream operator.
    pub fn min_with(&self, other: &TimestampVec) -> TimestampVec {
        let mut out = TimestampVec::new();
        for (s, t) in self.iter() {
            let o = other.get(s).unwrap_or(0);
            out.set(s, t.min(o));
        }
        for (s, _) in other.iter() {
            if self.get(s).is_none() {
                out.set(s, 0);
            }
        }
        out
    }
}

impl FromIterator<(StreamId, Timestamp)> for TimestampVec {
    fn from_iter<I: IntoIterator<Item = (StreamId, Timestamp)>>(iter: I) -> Self {
        TimestampVec {
            entries: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_hash_is_stable() {
        assert_eq!(Key::from_str_key("first"), Key::from_str_key("first"));
        assert_ne!(Key::from_str_key("first"), Key::from_str_key("second"));
        assert_eq!(Key::from_u64(42), Key::from_u64(42));
        assert_ne!(Key::from_u64(42), Key::from_u64(43));
    }

    #[test]
    fn integer_keys_spread_across_key_space() {
        // Dense vehicle ids must not all land in the bottom of the key space,
        // otherwise even key-range splits would be useless.
        let keys: Vec<u64> = (0..1000u64).map(|v| Key::from_u64(v).raw()).collect();
        let below_mid = keys.iter().filter(|&&k| k < u64::MAX / 2).count();
        assert!(below_mid > 300 && below_mid < 700, "skewed: {below_mid}");
    }

    #[test]
    fn tuple_encode_decode_roundtrip() {
        #[derive(Serialize, Deserialize, PartialEq, Debug)]
        struct Payload {
            word: String,
            n: u32,
        }
        let p = Payload {
            word: "first".into(),
            n: 3,
        };
        let t = Tuple::encode(7, Key::from_str_key("first"), &p).unwrap();
        assert_eq!(t.ts, 7);
        let back: Payload = t.decode().unwrap();
        assert_eq!(back, p);
        assert!(t.size_bytes() > p.word.len());
    }

    #[test]
    fn tuple_serde_roundtrip_via_bincode() {
        let t = Tuple::new(1, Key::from_u64(9), vec![1, 2, 3]);
        let bytes = bincode::serialize(&t).unwrap();
        let back: Tuple = bincode::deserialize(&bytes).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn timestamp_vec_advance_is_monotonic() {
        let mut tv = TimestampVec::new();
        assert!(tv.is_empty());
        tv.advance(StreamId(0), 5);
        tv.advance(StreamId(0), 3);
        assert_eq!(tv.get(StreamId(0)), Some(5));
        tv.advance(StreamId(0), 9);
        assert_eq!(tv.get(StreamId(0)), Some(9));
        assert_eq!(tv.get(StreamId(1)), None);
        assert_eq!(tv.len(), 1);
    }

    #[test]
    fn timestamp_vec_set_can_rewind() {
        let mut tv = TimestampVec::new();
        tv.advance(StreamId(0), 10);
        tv.set(StreamId(0), 4);
        assert_eq!(tv.get(StreamId(0)), Some(4));
    }

    #[test]
    fn timestamp_vec_merge_and_min() {
        let a: TimestampVec = [(StreamId(0), 10), (StreamId(1), 2)].into_iter().collect();
        let b: TimestampVec = [(StreamId(0), 4), (StreamId(2), 7)].into_iter().collect();

        let mut merged = a.clone();
        merged.merge_max(&b);
        assert_eq!(merged.get(StreamId(0)), Some(10));
        assert_eq!(merged.get(StreamId(1)), Some(2));
        assert_eq!(merged.get(StreamId(2)), Some(7));

        let min = a.min_with(&b);
        assert_eq!(min.get(StreamId(0)), Some(4));
        assert_eq!(min.get(StreamId(1)), Some(0));
        assert_eq!(min.get(StreamId(2)), Some(0));
    }
}
