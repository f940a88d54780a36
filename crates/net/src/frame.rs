//! Length-prefixed framing for the TCP transport.
//!
//! Every frame is a 4-byte big-endian length followed by that many payload
//! bytes. The payload of a data-plane frame is [`crate::wire::encode`]'s
//! output; the coordinator control plane reuses the same framing with its
//! own message encoding. A sender builds a frame in one buffer
//! ([`build_frame`]) and writes it with one `write_all`. [`FrameReader`]
//! reassembles frames from the arbitrary split points a TCP stream delivers
//! — a frame may arrive in one read, byte by byte, or glued to its
//! neighbours — in time linear in the bytes, and rejects frames whose
//! advertised length is implausible so a desynchronised or hostile peer
//! cannot request an unbounded allocation.

use std::io::{self, Read, Write};

/// Upper bound on a frame payload. Generous for data batches (a full batch
/// of large tuples is far below this) while bounding the allocation a
/// corrupt length prefix could demand.
pub const MAX_FRAME_LEN: usize = 64 * 1024 * 1024;

/// Bytes of framing overhead per frame (the length prefix).
pub const FRAME_HEADER_LEN: usize = 4;

/// Write one frame: length prefix plus payload, in a single buffered write
/// so the kernel sees the frame as one unit where possible.
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> io::Result<()> {
    w.write_all(&build_frame(payload.len(), |frame| {
        frame.extend_from_slice(payload)
    })?)
}

/// Read exactly one frame from a blocking reader. Returns `Ok(None)` on a
/// clean end of stream (EOF at a frame boundary) and an error for a
/// truncated frame or an oversized length prefix.
pub fn read_frame<R: Read>(r: &mut R) -> io::Result<Option<Vec<u8>>> {
    let mut header = [0u8; FRAME_HEADER_LEN];
    let mut filled = 0;
    while filled < header.len() {
        match r.read(&mut header[filled..]) {
            Ok(0) if filled == 0 => return Ok(None),
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection dropped inside a frame header",
                ))
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    let len = u32::from_be_bytes(header) as usize;
    if len > MAX_FRAME_LEN {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds MAX_FRAME_LEN"),
        ));
    }
    let mut payload = vec![0u8; len];
    let mut filled = 0;
    while filled < len {
        match r.read(&mut payload[filled..]) {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection dropped mid-frame",
                ))
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(Some(payload))
}

/// Build one frame in a single buffer: the length prefix is reserved, `fill`
/// appends the payload behind it, and the prefix is patched afterwards — so
/// a sender that can encode straight into a `Vec` pays no second copy.
/// `capacity` is a hint for the payload size.
pub fn build_frame(capacity: usize, fill: impl FnOnce(&mut Vec<u8>)) -> io::Result<Vec<u8>> {
    let mut frame = Vec::with_capacity(FRAME_HEADER_LEN + capacity);
    frame.extend_from_slice(&[0; FRAME_HEADER_LEN]);
    fill(&mut frame);
    let len = frame.len() - FRAME_HEADER_LEN;
    if len > MAX_FRAME_LEN {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("frame of {len} bytes exceeds MAX_FRAME_LEN"),
        ));
    }
    frame[..FRAME_HEADER_LEN].copy_from_slice(&(len as u32).to_be_bytes());
    Ok(frame)
}

/// Bytes asked of the stream per [`FrameReader::fill_from`] call.
const READ_CHUNK: usize = 32 * 1024;

/// A drained reassembly buffer larger than this is handed back to the
/// allocator: one large frame (a round's injection, a checkpoint) must not
/// pin its size for the life of the connection.
const KEEP_CAPACITY: usize = 4 * READ_CHUNK;

/// Incremental frame reassembly: feed it whatever bytes a read returned, pop
/// complete frames as they form. Partial frames stay buffered across reads.
///
/// Consumed frames are skipped with a read cursor and the buffer is
/// compacted once per refill, not once per frame, so reassembling a backlog
/// of `n` bytes costs `O(n)` however many frames it holds; frames are handed
/// out as slices of the buffer, not copies.
#[derive(Debug, Default)]
pub struct FrameReader {
    buf: Vec<u8>,
    /// Start of the first unconsumed byte in `buf`.
    start: usize,
}

impl FrameReader {
    /// A reader with an empty reassembly buffer.
    pub fn new() -> Self {
        FrameReader::default()
    }

    /// Drop the consumed prefix. Called before bytes are appended, so what
    /// moves is at most the one partial frame left behind by the last drain.
    fn compact(&mut self) {
        if self.start == self.buf.len() {
            self.buf.clear();
            if self.buf.capacity() > KEEP_CAPACITY {
                self.buf.shrink_to(READ_CHUNK);
            }
        } else if self.start > 0 {
            self.buf.drain(..self.start);
        }
        self.start = 0;
    }

    /// Append bytes read from the stream.
    pub fn push(&mut self, bytes: &[u8]) {
        self.compact();
        self.buf.extend_from_slice(bytes);
    }

    /// Append the bytes of one `read` on `stream`, straight into the
    /// reassembly buffer. Returns the byte count — `0` is end of stream —
    /// and passes the stream's errors (`WouldBlock` and timeouts included)
    /// through with nothing consumed.
    pub fn fill_from<R: Read>(&mut self, stream: &mut R) -> io::Result<usize> {
        self.compact();
        let len = self.buf.len();
        self.buf.resize(len + READ_CHUNK, 0);
        let read = loop {
            match stream.read(&mut self.buf[len..]) {
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                other => break other,
            }
        };
        self.buf.truncate(len + *read.as_ref().unwrap_or(&0));
        read
    }

    /// Pop the next complete frame, if one has fully arrived; the slice is
    /// valid until the reader is fed again. Returns an error when the
    /// buffered length prefix is implausible (the stream is desynchronised
    /// and the connection should be dropped).
    pub fn next_frame(&mut self) -> io::Result<Option<&[u8]>> {
        let unread = &self.buf[self.start..];
        let Some(header) = unread.first_chunk::<FRAME_HEADER_LEN>() else {
            return Ok(None);
        };
        let len = u32::from_be_bytes(*header) as usize;
        if len > MAX_FRAME_LEN {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("frame length {len} exceeds MAX_FRAME_LEN"),
            ));
        }
        if unread.len() < FRAME_HEADER_LEN + len {
            return Ok(None);
        }
        let payload = self.start + FRAME_HEADER_LEN;
        self.start = payload + len;
        Ok(Some(&self.buf[payload..self.start]))
    }

    /// Bytes buffered but not yet consumed as a complete frame.
    pub fn pending(&self) -> usize {
        self.buf.len() - self.start
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn framed(payloads: &[&[u8]]) -> Vec<u8> {
        let mut out = Vec::new();
        for p in payloads {
            write_frame(&mut out, p).unwrap();
        }
        out
    }

    #[test]
    fn write_then_read_round_trips() {
        let bytes = framed(&[b"hello", b"", b"world"]);
        let mut cursor = std::io::Cursor::new(bytes);
        assert_eq!(read_frame(&mut cursor).unwrap().unwrap(), b"hello");
        assert_eq!(read_frame(&mut cursor).unwrap().unwrap(), b"");
        assert_eq!(read_frame(&mut cursor).unwrap().unwrap(), b"world");
        assert_eq!(read_frame(&mut cursor).unwrap(), None);
    }

    /// Frames reassemble regardless of where the stream splits them —
    /// including one byte at a time.
    #[test]
    fn reader_reassembles_torn_frames() {
        let bytes = framed(&[b"alpha", b"beta-beta", b""]);
        for chunk in [1usize, 2, 3, 7, bytes.len()] {
            let mut reader = FrameReader::new();
            let mut frames = Vec::new();
            for piece in bytes.chunks(chunk) {
                reader.push(piece);
                while let Some(f) = reader.next_frame().unwrap() {
                    frames.push(f.to_vec());
                }
            }
            assert_eq!(
                frames,
                vec![b"alpha".to_vec(), b"beta-beta".to_vec(), Vec::new()],
                "chunk size {chunk}"
            );
            assert_eq!(reader.pending(), 0);
        }
    }

    /// A partial frame stays pending: no frame is surfaced until the rest
    /// arrives.
    #[test]
    fn partial_frame_stays_buffered() {
        let bytes = framed(&[b"partial-frame"]);
        let mut reader = FrameReader::new();
        reader.push(&bytes[..bytes.len() - 1]);
        assert_eq!(reader.next_frame().unwrap(), None);
        assert!(reader.pending() > 0);
        reader.push(&bytes[bytes.len() - 1..]);
        assert_eq!(reader.next_frame().unwrap().unwrap(), b"partial-frame");
        assert_eq!(reader.pending(), 0);
    }

    /// A backlog of 10 000 frames reassembles whether it arrives in one
    /// `push` or a byte at a time, and a drained reader holds nothing.
    #[test]
    fn ten_thousand_frames_in_one_push_and_byte_by_byte() {
        let payloads: Vec<Vec<u8>> = (0..10_000u32)
            .map(|i| i.to_le_bytes()[..(i % 5) as usize].to_vec())
            .collect();
        let mut bytes = Vec::new();
        for p in &payloads {
            write_frame(&mut bytes, p).unwrap();
        }
        for chunk in [bytes.len(), 1] {
            let mut reader = FrameReader::new();
            let mut seen = 0;
            for piece in bytes.chunks(chunk) {
                reader.push(piece);
                while let Some(frame) = reader.next_frame().unwrap() {
                    assert_eq!(frame, &payloads[seen][..], "frame {seen}");
                    seen += 1;
                }
            }
            assert_eq!(seen, payloads.len(), "chunk size {chunk}");
            assert_eq!(reader.pending(), 0);
        }
    }

    /// `fill_from` reads straight into the buffer, reports end of stream as
    /// zero and gives a large frame's memory back once it is consumed.
    #[test]
    fn fill_from_reads_a_stream_to_its_end() {
        let big = vec![0x5a; 3 * KEEP_CAPACITY];
        let bytes = framed(&[b"first", &big, b"last"]);
        let mut cursor = std::io::Cursor::new(bytes);
        let mut reader = FrameReader::new();
        let mut lens = Vec::new();
        while reader.fill_from(&mut cursor).unwrap() > 0 {
            while let Some(frame) = reader.next_frame().unwrap() {
                lens.push(frame.len());
            }
        }
        assert_eq!(lens, vec![5, big.len(), 4]);
        assert_eq!(reader.pending(), 0);
        assert!(reader.buf.capacity() <= KEEP_CAPACITY);
    }

    /// A dropped connection mid-frame is an error, not a silent truncation.
    #[test]
    fn truncated_stream_is_an_error() {
        let bytes = framed(&[b"will-be-cut"]);
        let mut cursor = std::io::Cursor::new(&bytes[..bytes.len() - 3]);
        let err = read_frame(&mut cursor).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        // Cut inside the header as well.
        let mut cursor = std::io::Cursor::new(&bytes[..2]);
        let err = read_frame(&mut cursor).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn oversized_length_prefix_is_rejected() {
        let mut bytes = vec![0xffu8, 0xff, 0xff, 0xff];
        bytes.extend_from_slice(b"garbage");
        let mut reader = FrameReader::new();
        reader.push(&bytes);
        assert!(reader.next_frame().is_err());
        let mut cursor = std::io::Cursor::new(bytes);
        assert_eq!(
            read_frame(&mut cursor).unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
    }
}
