//! Transport-boundary encoding of envelopes.
//!
//! The in-process channels move [`Envelope`] values directly: tuple payloads
//! are refcounted byte buffers, so a local hop is a pointer move plus a
//! refcount bump instead of a serialise/deserialise round-trip. Only a
//! process boundary pays for serialisation, and it pays it here: the TCP
//! transport ships exactly [`encode`]'s bytes, and the in-process channels
//! account [`encoded_size`] for the same traffic, so the encoding is one
//! testable definition rather than a side effect of every channel send.
//!
//! # Layout
//!
//! A fixed binary layout with no field names and no type tags — both ends
//! are this crate, so the frame need not describe itself:
//!
//! ```text
//! envelope := from:varint to:varint stream:varint count:varint tuple*count
//! tuple    := ts:varint key:u64le emitted_at_us:varint len:varint payload[len]
//! ```
//!
//! `varint` is LEB128 (seven bits per byte, low group first, at most ten
//! bytes). Keys are hashes, uniform over 64 bits, so they are written as
//! eight fixed bytes; everything else is small most of the time. The emit
//! time of tuple `i` is `batch.emitted_at_us[i]` (0 when the vector is
//! shorter than `tuples`), which is how [`seep_core::TupleBatch::push`]
//! builds batches.
//!
//! [`decode`] treats its input as hostile: every count and length is checked
//! against the bytes that remain *before* anything is allocated for it, a
//! varint may not run past ten bytes or overflow 64 bits, and the frame must
//! be consumed exactly.

use bytes::Bytes;
use seep_core::{Key, OperatorId, StreamId, Tuple, TupleBatch};

use crate::message::{Envelope, Message};

/// Fewest bytes one encoded tuple can take: one-byte `ts`, the key, one-byte
/// emit time, one-byte length, empty payload. Bounds the tuple count a frame
/// of a given size may announce.
const MIN_TUPLE_LEN: usize = 1 + 8 + 1 + 1;

/// Encode an envelope as it crosses a process boundary.
pub fn encode(envelope: &Envelope) -> Vec<u8> {
    let mut out = Vec::with_capacity(encoded_size(envelope));
    encode_into(envelope, &mut out);
    out
}

/// Append [`encode`]'s bytes for `envelope` to `out` — lets a sender build
/// the frame (length prefix, then payload) in one buffer.
pub fn encode_into(envelope: &Envelope, out: &mut Vec<u8>) {
    let Message { stream, batch } = &envelope.message;
    put_varint(out, envelope.from.0);
    put_varint(out, envelope.to.0);
    put_varint(out, u64::from(stream.0));
    put_varint(out, batch.tuples.len() as u64);
    for (i, tuple) in batch.tuples.iter().enumerate() {
        put_varint(out, tuple.ts);
        out.extend_from_slice(&tuple.key.0.to_le_bytes());
        put_varint(out, batch.emitted_at_us.get(i).copied().unwrap_or(0));
        put_varint(out, tuple.payload.len() as u64);
        out.extend_from_slice(&tuple.payload);
    }
}

/// Decode an envelope received from a remote transport. Fails — without
/// allocating for the offending field — on a truncated frame, a count or
/// length larger than the bytes that follow it, an over-long varint or
/// trailing bytes.
pub fn decode(bytes: &[u8]) -> Result<Envelope, bincode::Error> {
    let mut r = Reader { bytes };
    let from = OperatorId(r.varint()?);
    let to = OperatorId(r.varint()?);
    let stream = u32::try_from(r.varint()?).map_err(|_| malformed("stream id exceeds 32 bits"))?;
    let count = r.varint()?;
    if count > (r.bytes.len() / MIN_TUPLE_LEN) as u64 {
        return Err(malformed("tuple count exceeds the frame"));
    }
    let mut batch = TupleBatch::with_capacity(count as usize);
    for _ in 0..count {
        let ts = r.varint()?;
        let key = Key(u64::from_le_bytes(
            r.take(8)?.try_into().expect("take(8) yields 8 bytes"),
        ));
        let emitted_at_us = r.varint()?;
        let len = r.varint()?;
        let len = usize::try_from(len)
            .ok()
            .filter(|&len| len <= r.bytes.len())
            .ok_or_else(|| malformed("payload length exceeds the frame"))?;
        let payload = Bytes::copy_from_slice(r.take(len)?);
        batch.push(Tuple { ts, key, payload }, emitted_at_us);
    }
    if !r.bytes.is_empty() {
        return Err(malformed("trailing bytes after the last tuple"));
    }
    Ok(Envelope::new(
        from,
        to,
        Message::data_batch(StreamId(stream), batch),
    ))
}

fn malformed(what: &str) -> bincode::Error {
    bincode::Error(format!("wire: {what}"))
}

/// The unread rest of a frame.
struct Reader<'a> {
    bytes: &'a [u8],
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], bincode::Error> {
        if n > self.bytes.len() {
            return Err(malformed("frame ends inside a field"));
        }
        let (head, rest) = self.bytes.split_at(n);
        self.bytes = rest;
        Ok(head)
    }

    fn varint(&mut self) -> Result<u64, bincode::Error> {
        let mut value = 0u64;
        for (i, &byte) in self.bytes.iter().enumerate().take(10) {
            let group = u64::from(byte & 0x7f);
            // The tenth byte holds bit 63 alone.
            if i == 9 && group > 1 {
                return Err(malformed("varint overflows 64 bits"));
            }
            value |= group << (7 * i);
            if byte & 0x80 == 0 {
                self.bytes = &self.bytes[i + 1..];
                return Ok(value);
            }
        }
        Err(malformed(if self.bytes.len() < 10 {
            "frame ends inside a varint"
        } else {
            "varint longer than ten bytes"
        }))
    }
}

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// LEB128 length of a varint-encoded integer: one byte per started group of
/// seven significant bits.
fn varint_len(v: u64) -> usize {
    (70 - (v | 1).leading_zeros() as usize) / 7
}

/// Exact size in bytes of [`encode`]'s output, computed arithmetically —
/// no allocation, no serialisation walk — so every data-plane hop can
/// account its true wire bytes. Mirrors the encoder's layout field by field.
pub fn encoded_size(envelope: &Envelope) -> usize {
    let Message { stream, batch } = &envelope.message;
    let header = varint_len(envelope.from.0)
        + varint_len(envelope.to.0)
        + varint_len(u64::from(stream.0))
        + varint_len(batch.tuples.len() as u64);
    let tuples: usize = batch
        .tuples
        .iter()
        .enumerate()
        .map(|(i, tuple)| {
            varint_len(tuple.ts)
                + 8
                + varint_len(batch.emitted_at_us.get(i).copied().unwrap_or(0))
                + varint_len(tuple.payload.len() as u64)
                + tuple.payload.len()
        })
        .sum();
    header + tuples
}

#[cfg(test)]
mod tests {
    use super::*;

    fn envelope(from: u64, to: u64, stream: u32, tuples: Vec<(Tuple, u64)>) -> Envelope {
        let mut batch = TupleBatch::new();
        for (tuple, emitted) in tuples {
            batch.push(tuple, emitted);
        }
        Envelope::new(
            OperatorId::new(from),
            OperatorId::new(to),
            Message::data_batch(StreamId(stream), batch),
        )
    }

    /// Values straddling every LEB128 length boundary.
    const EDGES: [u64; 10] = [
        0,
        1,
        127,
        128,
        16_383,
        16_384,
        u32::MAX as u64,
        1 << 56,
        u64::MAX >> 1,
        u64::MAX,
    ];

    /// Batches of 0, 1 and 64 tuples whose timestamps, emit times, operator
    /// ids and payload lengths walk the varint edges (payloads of 0, 127 and
    /// 128 bytes sit either side of the one-byte length).
    fn corpus() -> Vec<Envelope> {
        let mut corpus = Vec::new();
        for (n, &edge) in [0usize, 1, 64].iter().zip(EDGES.iter().cycle().skip(3)) {
            let tuples = (0..*n)
                .map(|i| {
                    let v = EDGES[i % EDGES.len()];
                    let len = [0usize, 1, 127, 128, 300][i % 5];
                    (
                        Tuple::new(v, Key(v ^ i as u64), vec![i as u8; len]),
                        EDGES[(i + 4) % EDGES.len()],
                    )
                })
                .collect();
            corpus.push(envelope(edge, edge.wrapping_add(1), edge as u32, tuples));
        }
        for &v in &EDGES {
            let tuple = Tuple::new(v, Key(v), vec![7u8; (v % 300) as usize]);
            corpus.push(envelope(v, !v, (v >> 7) as u32, vec![(tuple, v)]));
        }
        corpus
    }

    /// The layout, byte for byte: header varints, then per tuple `ts`, the
    /// key as eight little-endian bytes, the emit time, the payload length
    /// and the payload. No names, no tags.
    #[test]
    fn layout_is_the_documented_one() {
        let env = envelope(
            1,
            300,
            2,
            vec![
                (
                    Tuple::new(5, Key(0x0102_0304_0506_0708), vec![0xaa, 0xbb]),
                    130,
                ),
                (Tuple::new(16_384, Key(9), Vec::<u8>::new()), 0),
            ],
        );
        #[rustfmt::skip]
        let golden: Vec<u8> = vec![
            0x01,                   // from = 1
            0xac, 0x02,             // to = 300
            0x02,                   // stream = 2
            0x02,                   // two tuples
            0x05,                   // ts = 5
            0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01, // key, little endian
            0x82, 0x01,             // emitted_at_us = 130
            0x02, 0xaa, 0xbb,       // payload: length, bytes
            0x80, 0x80, 0x01,       // ts = 16 384
            0x09, 0, 0, 0, 0, 0, 0, 0, // key = 9
            0x00,                   // emitted_at_us = 0
            0x00,                   // empty payload
        ];
        assert_eq!(encode(&env), golden);
        assert_eq!(decode(&golden).unwrap(), env);
    }

    #[test]
    fn round_trip_preserves_every_field() {
        for envelope in corpus() {
            let back = decode(&encode(&envelope)).expect("decodes");
            assert_eq!(back, envelope);
        }
    }

    /// The arithmetic size mirror matches the encoder byte for byte, and
    /// `encode_into` appends exactly `encode`'s bytes.
    #[test]
    fn encoded_size_is_exact() {
        for envelope in corpus() {
            let bytes = encode(&envelope);
            assert_eq!(
                encoded_size(&envelope),
                bytes.len(),
                "size mirror drifted for {envelope:?}"
            );
            let mut framed = vec![0xee; 4];
            encode_into(&envelope, &mut framed);
            assert_eq!(&framed[4..], &bytes[..]);
        }
    }

    /// A frame cut short at any byte offset is rejected, never misread.
    #[test]
    fn a_frame_truncated_at_any_offset_is_rejected() {
        for envelope in corpus() {
            let bytes = encode(&envelope);
            for cut in 0..bytes.len() {
                assert!(
                    decode(&bytes[..cut]).is_err(),
                    "{cut} of {} bytes decoded for {envelope:?}",
                    bytes.len()
                );
            }
        }
    }

    /// Counts and lengths the remaining bytes cannot hold are refused before
    /// anything is allocated for them.
    #[test]
    fn announced_sizes_are_checked_against_the_frame() {
        let mut many = vec![1, 2, 0];
        put_varint(&mut many, u64::MAX); // count
        many.extend_from_slice(&[0; 64]);
        assert!(decode(&many).is_err(), "count of u64::MAX");

        // One tuple more than 22 bytes can hold at the minimum tuple size.
        let mut three = vec![1, 2, 0, 3];
        three.extend_from_slice(&[0; 2 * MIN_TUPLE_LEN]);
        assert!(decode(&three).is_err(), "count beyond the bytes");

        let mut long = vec![1, 2, 0, 1, 0];
        long.extend_from_slice(&[0; 8]);
        long.push(0); // emitted_at_us
        put_varint(&mut long, 1 << 40); // payload length
        long.extend_from_slice(&[0; 16]);
        assert!(decode(&long).is_err(), "payload length beyond the bytes");

        let good = encode(&envelope(
            1,
            2,
            0,
            vec![(Tuple::new(1, Key(1), vec![1]), 0)],
        ));
        let mut trailing = good.clone();
        trailing.push(0);
        assert!(decode(&good).is_ok());
        assert!(decode(&trailing).is_err(), "trailing byte");
    }

    #[test]
    fn malformed_varints_are_rejected() {
        // Eleven continuation bytes; ten bytes whose last overflows bit 63;
        // a stream id above u32::MAX.
        assert!(decode(&[0xff; 11]).is_err());
        let mut overflow = vec![0xff; 9];
        overflow.push(0x02);
        overflow.extend_from_slice(&[2, 0, 0]);
        assert!(decode(&overflow).is_err());
        let mut wide_stream = vec![1, 2];
        put_varint(&mut wide_stream, u64::from(u32::MAX) + 1);
        wide_stream.push(0);
        assert!(decode(&wide_stream).is_err());
        assert!(decode(&[]).is_err());
    }

    #[test]
    fn varint_len_matches_the_encoder() {
        for &v in &EDGES {
            let mut out = Vec::new();
            put_varint(&mut out, v);
            assert_eq!(varint_len(v), out.len(), "{v}");
        }
    }
}
