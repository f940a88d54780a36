//! Offline stand-in for `bincode`: a compact, tagged binary encoding of the
//! local serde shim's [`serde::Value`] model.
//!
//! Layout per value: one tag byte, then a fixed- or length-prefixed body.
//! Integers are encoded as LEB128 varints, lengths likewise. Deserialisation
//! validates tags and lengths and requires the input to be fully consumed,
//! so truncated or corrupt inputs reliably error.

use std::fmt;

use serde::Value;

/// Decoding/encoding error.
#[derive(Debug, Clone)]
pub struct Error(pub String);

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bincode: {}", self.0)
    }
}

impl std::error::Error for Error {}

impl From<serde::Error> for Error {
    fn from(e: serde::Error) -> Self {
        Error(e.0)
    }
}

/// Result alias matching real bincode's signature shape.
pub type Result<T> = std::result::Result<T, Error>;

const TAG_UNIT: u8 = 0;
const TAG_FALSE: u8 = 1;
const TAG_TRUE: u8 = 2;
const TAG_U64: u8 = 3;
const TAG_I64: u8 = 4;
const TAG_F64: u8 = 5;
const TAG_STR: u8 = 6;
const TAG_BYTES: u8 = 7;
const TAG_NONE: u8 = 8;
const TAG_SOME: u8 = 9;
const TAG_SEQ: u8 = 10;
const TAG_MAP: u8 = 11;
const TAG_RECORD: u8 = 12;
const TAG_VARIANT: u8 = 13;

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

fn encode(value: &Value, out: &mut Vec<u8>) {
    match value {
        Value::Unit => out.push(TAG_UNIT),
        Value::Bool(false) => out.push(TAG_FALSE),
        Value::Bool(true) => out.push(TAG_TRUE),
        Value::U64(v) => {
            out.push(TAG_U64);
            put_varint(out, *v);
        }
        Value::I64(v) => {
            out.push(TAG_I64);
            // zigzag
            put_varint(out, ((v << 1) ^ (v >> 63)) as u64);
        }
        Value::F64(v) => {
            out.push(TAG_F64);
            out.extend_from_slice(&v.to_le_bytes());
        }
        Value::Str(s) => {
            out.push(TAG_STR);
            put_varint(out, s.len() as u64);
            out.extend_from_slice(s.as_bytes());
        }
        Value::Bytes(b) => {
            out.push(TAG_BYTES);
            put_varint(out, b.len() as u64);
            out.extend_from_slice(b);
        }
        Value::Option(None) => out.push(TAG_NONE),
        Value::Option(Some(v)) => {
            out.push(TAG_SOME);
            encode(v, out);
        }
        Value::Seq(items) => {
            out.push(TAG_SEQ);
            put_varint(out, items.len() as u64);
            for item in items {
                encode(item, out);
            }
        }
        Value::Map(entries) => {
            out.push(TAG_MAP);
            put_varint(out, entries.len() as u64);
            for (k, v) in entries {
                encode(k, out);
                encode(v, out);
            }
        }
        Value::Record(fields) => {
            out.push(TAG_RECORD);
            put_varint(out, fields.len() as u64);
            for (name, v) in fields {
                put_varint(out, name.len() as u64);
                out.extend_from_slice(name.as_bytes());
                encode(v, out);
            }
        }
        Value::Variant(name, payload) => {
            out.push(TAG_VARIANT);
            put_varint(out, name.len() as u64);
            out.extend_from_slice(name.as_bytes());
            encode(payload, out);
        }
    }
}

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn byte(&mut self) -> Result<u8> {
        let b = *self
            .bytes
            .get(self.pos)
            .ok_or_else(|| Error("unexpected end of input".into()))?;
        self.pos += 1;
        Ok(b)
    }

    fn varint(&mut self) -> Result<u64> {
        let mut v = 0u64;
        let mut shift = 0u32;
        loop {
            let b = self.byte()?;
            if shift >= 64 {
                return Err(Error("varint overflow".into()));
            }
            v |= ((b & 0x7f) as u64) << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.pos + n > self.bytes.len() {
            return Err(Error("unexpected end of input".into()));
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn string(&mut self) -> Result<String> {
        let len = self.varint()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| Error("invalid UTF-8".into()))
    }

    fn value(&mut self, depth: u32) -> Result<Value> {
        if depth > 128 {
            return Err(Error("nesting too deep".into()));
        }
        Ok(match self.byte()? {
            TAG_UNIT => Value::Unit,
            TAG_FALSE => Value::Bool(false),
            TAG_TRUE => Value::Bool(true),
            TAG_U64 => Value::U64(self.varint()?),
            TAG_I64 => {
                let z = self.varint()?;
                Value::I64(((z >> 1) as i64) ^ -((z & 1) as i64))
            }
            TAG_F64 => {
                let raw = self.take(8)?;
                Value::F64(f64::from_le_bytes(raw.try_into().unwrap()))
            }
            TAG_STR => Value::Str(self.string()?),
            TAG_BYTES => {
                let len = self.varint()? as usize;
                Value::Bytes(self.take(len)?.to_vec())
            }
            TAG_NONE => Value::Option(None),
            TAG_SOME => Value::Option(Some(Box::new(self.value(depth + 1)?))),
            TAG_SEQ => {
                let len = self.varint()? as usize;
                if len > self.bytes.len().saturating_sub(self.pos) {
                    return Err(Error("sequence length exceeds input".into()));
                }
                let mut items = Vec::with_capacity(len.min(1024));
                for _ in 0..len {
                    items.push(self.value(depth + 1)?);
                }
                Value::Seq(items)
            }
            TAG_MAP => {
                let len = self.varint()? as usize;
                if len > self.bytes.len().saturating_sub(self.pos) {
                    return Err(Error("map length exceeds input".into()));
                }
                let mut entries = Vec::with_capacity(len.min(1024));
                for _ in 0..len {
                    let k = self.value(depth + 1)?;
                    let v = self.value(depth + 1)?;
                    entries.push((k, v));
                }
                Value::Map(entries)
            }
            TAG_RECORD => {
                let len = self.varint()? as usize;
                if len > self.bytes.len().saturating_sub(self.pos) {
                    return Err(Error("record length exceeds input".into()));
                }
                let mut fields = Vec::with_capacity(len.min(1024));
                for _ in 0..len {
                    let name = self.string()?;
                    let v = self.value(depth + 1)?;
                    fields.push((name, v));
                }
                Value::Record(fields)
            }
            TAG_VARIANT => {
                let name = self.string()?;
                Value::Variant(name, Box::new(self.value(depth + 1)?))
            }
            tag => return Err(Error(format!("invalid tag byte {tag:#04x}"))),
        })
    }
}

/// Serialise a value to bytes.
pub fn serialize<T: serde::Serialize + ?Sized>(value: &T) -> Result<Vec<u8>> {
    let mut out = Vec::new();
    serialize_into(&mut out, value)?;
    Ok(out)
}

/// Serialise a value, appending the encoding to `out` (real bincode takes
/// any `Write`; a `&mut Vec<u8>` is what this workspace passes). Lets a
/// caller frame a record without copying the payload into a second buffer.
pub fn serialize_into<T: serde::Serialize + ?Sized>(out: &mut Vec<u8>, value: &T) -> Result<()> {
    encode(&serde::to_value(value)?, out);
    Ok(())
}

/// The number of bytes `serialize` would produce.
pub fn serialized_size<T: serde::Serialize + ?Sized>(value: &T) -> Result<u64> {
    Ok(serialize(value)?.len() as u64)
}

/// Deserialise a value from bytes. The input must be fully consumed.
pub fn deserialize<'a, T: serde::Deserialize<'a>>(bytes: &'a [u8]) -> Result<T> {
    let mut reader = Reader { bytes, pos: 0 };
    let value = reader.value(0)?;
    if reader.pos != bytes.len() {
        return Err(Error(format!(
            "trailing garbage: {} of {} bytes consumed",
            reader.pos,
            bytes.len()
        )));
    }
    Ok(serde::from_value(value)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_primitives() {
        let bytes = serialize(&42u64).unwrap();
        assert_eq!(deserialize::<u64>(&bytes).unwrap(), 42);
        let bytes = serialize(&-7i32).unwrap();
        assert_eq!(deserialize::<i32>(&bytes).unwrap(), -7);
        let bytes = serialize(&"hello".to_string()).unwrap();
        assert_eq!(deserialize::<String>(&bytes).unwrap(), "hello");
        let bytes = serialize(&3.25f64).unwrap();
        assert_eq!(deserialize::<f64>(&bytes).unwrap(), 3.25);
        let bytes = serialize(&vec![1u8, 2, 3]).unwrap();
        assert_eq!(deserialize::<Vec<u8>>(&bytes).unwrap(), vec![1, 2, 3]);
        let bytes = serialize(&Some(5u32)).unwrap();
        assert_eq!(deserialize::<Option<u32>>(&bytes).unwrap(), Some(5));
    }

    #[test]
    fn garbage_inputs_error() {
        assert!(deserialize::<String>(&[0xff, 0xff, 0xff]).is_err());
        assert!(deserialize::<u64>(&[]).is_err());
        // trailing garbage
        let mut bytes = serialize(&1u64).unwrap();
        bytes.push(0);
        assert!(deserialize::<u64>(&bytes).is_err());
        // truncated
        let bytes = serialize(&"a long enough string".to_string()).unwrap();
        assert!(deserialize::<String>(&bytes[..bytes.len() - 3]).is_err());
    }

    #[test]
    fn serialized_size_matches() {
        let v = vec![1u64, 2, 3];
        assert_eq!(
            serialized_size(&v).unwrap(),
            serialize(&v).unwrap().len() as u64
        );
    }
}
