//! Transport-boundary encoding of envelopes.
//!
//! The in-process channels move [`Envelope`] values directly: tuple payloads
//! are refcounted byte buffers, so a local hop is a pointer move plus a
//! refcount bump instead of a serialise/deserialise round-trip. Only a
//! process boundary pays for serialisation, and it pays it here: the TCP
//! transport ships exactly [`encode`]'s bytes, and the in-process channels
//! account [`encoded_size`] for the same traffic, so the encoding is one
//! testable definition rather than a side effect of every channel send.

use seep_core::{Tuple, TupleBatch};

use crate::message::{Envelope, Message};

/// Encode an envelope as it crosses a process boundary.
pub fn encode(envelope: &Envelope) -> Vec<u8> {
    bincode::serialize(envelope).expect("envelope serialises")
}

/// Decode an envelope received from a remote transport.
pub fn decode(bytes: &[u8]) -> Result<Envelope, bincode::Error> {
    bincode::deserialize(bytes)
}

/// LEB128 length of a varint-encoded integer.
fn varint_len(mut v: u64) -> usize {
    let mut n = 1;
    while v >= 0x80 {
        v >>= 7;
        n += 1;
    }
    n
}

/// Encoded size of a bare `u64` value: tag byte plus varint.
fn u64_size(v: u64) -> usize {
    1 + varint_len(v)
}

/// Encoded size of a single-field newtype over an integer (`OperatorId`,
/// `Key`, `StreamId`): a one-element sequence wrapping the integer.
fn newtype_u64_size(v: u64) -> usize {
    // seq tag + element count (1) + tagged varint.
    2 + u64_size(v)
}

/// Encoded size of a record field name (names here are short ASCII, so the
/// length prefix is a single varint byte).
fn field(name: &str) -> usize {
    1 + name.len()
}

/// Encoded size of a sequence header for `count` elements.
fn seq_header(count: usize) -> usize {
    1 + varint_len(count as u64)
}

/// Encoded size of a tuple: a three-field record (`ts`, `key`, `payload`)
/// with the payload written as raw bytes.
fn tuple_size(tuple: &Tuple) -> usize {
    2 + field("ts")
        + u64_size(tuple.ts)
        + field("key")
        + newtype_u64_size(tuple.key.0)
        + field("payload")
        + 1
        + varint_len(tuple.payload.len() as u64)
        + tuple.payload.len()
}

/// Encoded size of a tuple batch: a two-field record of parallel sequences.
fn batch_size(batch: &TupleBatch) -> usize {
    2 + field("tuples")
        + seq_header(batch.tuples.len())
        + batch.tuples.iter().map(tuple_size).sum::<usize>()
        + field("emitted_at_us")
        + seq_header(batch.emitted_at_us.len())
        + batch
            .emitted_at_us
            .iter()
            .map(|&us| u64_size(us))
            .sum::<usize>()
}

/// Exact size in bytes of [`encode`]'s output, computed arithmetically —
/// no allocation, no serialisation walk — so every data-plane hop can
/// account its true wire bytes. Mirrors the encoder's layout field by field.
pub fn encoded_size(envelope: &Envelope) -> usize {
    let Message { stream, batch } = &envelope.message;
    // message record: two named fields.
    let message = 2
        + field("stream")
        + newtype_u64_size(u64::from(stream.0))
        + field("batch")
        + batch_size(batch);
    // envelope record: three named fields.
    2 + field("from")
        + newtype_u64_size(envelope.from.0)
        + field("to")
        + newtype_u64_size(envelope.to.0)
        + field("message")
        + message
}

#[cfg(test)]
mod tests {
    use super::*;
    use seep_core::{Key, OperatorId, StreamId, Tuple, TupleBatch};

    fn envelopes() -> Vec<Envelope> {
        let mut batch = TupleBatch::new();
        batch.push(Tuple::new(5, Key(1), vec![1, 2, 3]), 100);
        batch.push(Tuple::new(6, Key(2), vec![4]), 0);
        let mut single = TupleBatch::new();
        single.push(Tuple::new(3, Key(9), vec![7, 8]), 42);
        vec![
            Envelope::new(
                OperatorId::new(1),
                OperatorId::new(2),
                Message::data_batch(StreamId(0), single),
            ),
            Envelope::new(
                OperatorId::new(3),
                OperatorId::new(4),
                Message::data_batch(StreamId(1), batch),
            ),
        ]
    }

    /// The transport-boundary encoding is a direct `bincode::serialize` of
    /// the envelope: nothing is added or reordered on the way to the wire.
    #[test]
    fn encoding_is_the_bincode_serialisation_of_the_envelope() {
        for envelope in envelopes() {
            let wire = encode(&envelope);
            let direct = bincode::serialize(&envelope).unwrap();
            assert_eq!(wire, direct, "encoding drifted for {envelope:?}");
        }
    }

    #[test]
    fn round_trip_preserves_every_field() {
        for envelope in envelopes() {
            let back = decode(&encode(&envelope)).expect("decodes");
            assert_eq!(back, envelope);
        }
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(decode(&[0xff; 3]).is_err());
    }

    /// The arithmetic size mirror matches the encoder byte for byte across
    /// batch lengths (empty, one tuple, several) and across varint length
    /// boundaries.
    #[test]
    fn encoded_size_is_exact() {
        // Values straddling every LEB128 length boundary.
        let edges = [0u64, 1, 127, 128, 16_383, 16_384, u32::MAX as u64, u64::MAX];
        let mut corpus = envelopes();
        for &v in &edges {
            let mut batch = TupleBatch::new();
            for i in 0..(v % 5) + 1 {
                batch.push(Tuple::new(v, Key(v ^ i), vec![1u8; (v % 300) as usize]), v);
            }
            corpus.push(Envelope::new(
                OperatorId::new(v),
                OperatorId::new(v.wrapping_add(1)),
                Message::data_batch(StreamId(v as u32), batch),
            ));
        }
        // An empty batch exercises the zero-length sequence headers.
        corpus.push(Envelope::new(
            OperatorId::new(1),
            OperatorId::new(2),
            Message::data_batch(StreamId(0), TupleBatch::new()),
        ));
        for envelope in corpus {
            assert_eq!(
                encoded_size(&envelope),
                encode(&envelope).len(),
                "size mirror drifted for {envelope:?}"
            );
        }
    }
}
