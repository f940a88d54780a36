//! Offline stand-in for `bincode`: a compact, tagged binary encoding driven
//! straight by the serde shim's streaming [`serde::Serializer`] /
//! [`serde::Deserializer`] calls.
//!
//! Layout per value: one tag byte, then a fixed- or length-prefixed body.
//! Integers are encoded as LEB128 varints (signed ones zigzagged first),
//! lengths likewise; a record carries its field names, a variant its name.
//! Encoding appends to the caller's `Vec<u8>` or fills a slice measured with
//! [`serialized_size`]; decoding reads off the input slice, and lends strings
//! and blobs out of it to the serde shim's borrowed pulls. The decoder
//! validates every tag, checks every length against the remaining input
//! before it allocates, limits nesting to 128 levels, rejects invalid UTF-8,
//! out-of-range integers, overlong varints, unknown variants and trailing
//! bytes, so truncated or corrupt inputs reliably error.

#![forbid(unsafe_code)]

use std::borrow::Cow;
use std::fmt;

use serde::de::value::{ByteSeqAccess, StrDeserializer, UnitDeserializer};
use serde::de::{
    EnumVisitor, MapAccess, MapVisitor, RecordAccess, RecordVisitor, SeqAccess, SeqVisitor,
};
use serde::ser::{SerializeMap, SerializeRecord, SerializeSeq};
use serde::{Deserialize, Serialize, Value};

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

/// Deepest nesting the decoder accepts.
const MAX_DEPTH: u32 = 128;

/// The shape a tag announces, as error messages name it.
fn tag_kind(tag: u8) -> Option<&'static str> {
    Some(match tag {
        TAG_UNIT => "unit",
        TAG_FALSE | TAG_TRUE => "bool",
        TAG_U64 => "u64",
        TAG_I64 => "i64",
        TAG_F64 => "f64",
        TAG_STR => "string",
        TAG_BYTES => "bytes",
        TAG_NONE | TAG_SOME => "option",
        TAG_SEQ => "sequence",
        TAG_MAP => "map",
        TAG_RECORD => "record",
        TAG_VARIANT => "variant",
        _ => return None,
    })
}

/// Where encoded bytes go: the output buffer, or a count of them.
trait Sink {
    fn put(&mut self, byte: u8);
    fn put_all(&mut self, bytes: &[u8]);
}

impl Sink for Vec<u8> {
    #[inline]
    fn put(&mut self, byte: u8) {
        self.push(byte);
    }

    #[inline]
    fn put_all(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }
}

/// Counts the bytes an encoding takes, so the output is allocated once.
struct Count(usize);

/// Fills a slice from its start; `at` counts every byte offered, so a
/// slice of the wrong size shows as `at != buf.len()` afterwards.
struct Fill<'a> {
    buf: &'a mut [u8],
    at: usize,
}

impl Sink for Fill<'_> {
    #[inline]
    fn put(&mut self, byte: u8) {
        if let Some(slot) = self.buf.get_mut(self.at) {
            *slot = byte;
        }
        self.at += 1;
    }

    #[inline]
    fn put_all(&mut self, bytes: &[u8]) {
        let end = self.at + bytes.len();
        if let Some(dst) = self.buf.get_mut(self.at..end) {
            dst.copy_from_slice(bytes);
        }
        self.at = end;
    }
}

impl Sink for Count {
    #[inline]
    fn put(&mut self, _: u8) {
        self.0 += 1;
    }

    #[inline]
    fn put_all(&mut self, bytes: &[u8]) {
        self.0 += bytes.len();
    }
}

#[inline]
fn put_varint(out: &mut impl Sink, mut v: u64) {
    while v >= 0x80 {
        out.put(v as u8 | 0x80);
        v >>= 7;
    }
    out.put(v as u8);
}

#[inline]
fn put_str(out: &mut impl Sink, s: &[u8]) {
    put_varint(out, s.len() as u64);
    out.put_all(s);
}

#[inline]
fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

#[inline]
fn unzigzag(z: u64) -> i64 {
    ((z >> 1) as i64) ^ -((z & 1) as i64)
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

/// Writes the encoding of each call to `out`.
struct Encoder<'a, W> {
    out: &'a mut W,
}

impl<W: Sink> serde::Serializer for &mut Encoder<'_, W> {
    type Ok = ();
    type Error = Error;
    type SerializeSeq = Self;
    type SerializeMap = Self;
    type SerializeRecord = Self;

    fn serialize_unit(self) -> Result<()> {
        self.out.put(TAG_UNIT);
        Ok(())
    }

    fn serialize_bool(self, v: bool) -> Result<()> {
        self.out.put(if v { TAG_TRUE } else { TAG_FALSE });
        Ok(())
    }

    fn serialize_u64(self, v: u64) -> Result<()> {
        self.out.put(TAG_U64);
        put_varint(self.out, v);
        Ok(())
    }

    fn serialize_i64(self, v: i64) -> Result<()> {
        self.out.put(TAG_I64);
        put_varint(self.out, zigzag(v));
        Ok(())
    }

    fn serialize_f64(self, v: f64) -> Result<()> {
        self.out.put(TAG_F64);
        self.out.put_all(&v.to_le_bytes());
        Ok(())
    }

    fn serialize_str(self, v: &str) -> Result<()> {
        self.out.put(TAG_STR);
        put_str(self.out, v.as_bytes());
        Ok(())
    }

    fn serialize_bytes(self, v: &[u8]) -> Result<()> {
        self.out.put(TAG_BYTES);
        put_str(self.out, v);
        Ok(())
    }

    fn serialize_none(self) -> Result<()> {
        self.out.put(TAG_NONE);
        Ok(())
    }

    fn serialize_some<T: Serialize + ?Sized>(self, value: &T) -> Result<()> {
        self.out.put(TAG_SOME);
        value.serialize(self)
    }

    fn serialize_seq(self, len: usize) -> Result<Self> {
        self.out.put(TAG_SEQ);
        put_varint(self.out, len as u64);
        Ok(self)
    }

    fn serialize_map(self, len: usize) -> Result<Self> {
        self.out.put(TAG_MAP);
        put_varint(self.out, len as u64);
        Ok(self)
    }

    fn serialize_record(self, len: usize) -> Result<Self> {
        self.out.put(TAG_RECORD);
        put_varint(self.out, len as u64);
        Ok(self)
    }

    fn serialize_variant(self, variant: &str) -> Result<Self> {
        self.out.put(TAG_VARIANT);
        put_str(self.out, variant.as_bytes());
        Ok(self)
    }
}

impl<W: Sink> SerializeSeq for &mut Encoder<'_, W> {
    type Ok = ();
    type Error = Error;

    fn serialize_element<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<()> {
        value.serialize(&mut **self)
    }

    fn end(self) -> Result<()> {
        Ok(())
    }
}

impl<W: Sink> SerializeMap for &mut Encoder<'_, W> {
    type Ok = ();
    type Error = Error;

    fn serialize_entry<K: Serialize + ?Sized, V: Serialize + ?Sized>(
        &mut self,
        key: &K,
        value: &V,
    ) -> Result<()> {
        key.serialize(&mut **self)?;
        value.serialize(&mut **self)
    }

    fn end(self) -> Result<()> {
        Ok(())
    }
}

impl<W: Sink> SerializeRecord for &mut Encoder<'_, W> {
    type Ok = ();
    type Error = Error;

    fn serialize_field<T: Serialize + ?Sized>(&mut self, name: &str, value: &T) -> Result<()> {
        put_str(self.out, name.as_bytes());
        value.serialize(&mut **self)
    }

    fn end(self) -> Result<()> {
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

/// Reads values off the unread rest of the input.
struct Decoder<'de> {
    rest: &'de [u8],
    /// Nesting level of the next value read (the top-level value is 0).
    depth: u32,
}

fn truncated() -> Error {
    Error("unexpected end of input".into())
}

fn invalid_tag(tag: u8) -> Error {
    Error(format!("invalid tag byte {tag:#04x}"))
}

fn invalid_utf8() -> Error {
    Error("invalid UTF-8".into())
}

impl<'de> Decoder<'de> {
    #[inline]
    fn byte(&mut self) -> Result<u8> {
        let (&b, rest) = self.rest.split_first().ok_or_else(truncated)?;
        self.rest = rest;
        Ok(b)
    }

    #[inline]
    fn varint(&mut self) -> Result<u64> {
        let mut v = 0u64;
        let mut shift = 0u32;
        loop {
            let b = self.byte()?;
            // The tenth byte holds bit 63 alone.
            if shift == 63 && b > 1 {
                return Err(Error("varint overflow".into()));
            }
            v |= u64::from(b & 0x7f) << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
        }
    }

    #[inline]
    fn take(&mut self, n: usize) -> Result<&'de [u8]> {
        if n > self.rest.len() {
            return Err(truncated());
        }
        let (head, rest) = self.rest.split_at(n);
        self.rest = rest;
        Ok(head)
    }

    /// A length-prefixed run of bytes.
    #[inline]
    fn blob(&mut self) -> Result<&'de [u8]> {
        let len = usize::try_from(self.varint()?).map_err(|_| truncated())?;
        self.take(len)
    }

    #[inline]
    fn str(&mut self) -> Result<&'de str> {
        std::str::from_utf8(self.blob()?).map_err(|_| invalid_utf8())
    }

    /// The element count of a `what`, which cannot exceed the bytes left
    /// (every element takes at least one).
    #[inline]
    fn count(&mut self, what: &str) -> Result<usize> {
        let len = self.varint()?;
        if len > self.rest.len() as u64 {
            return Err(Error(format!("{what} length exceeds input")));
        }
        Ok(len as usize)
    }

    /// The tag of the next value, left unread.
    #[inline]
    fn peek(&self) -> Result<u8> {
        if self.depth > MAX_DEPTH {
            return Err(Error("nesting too deep".into()));
        }
        self.rest.first().copied().ok_or_else(truncated)
    }

    /// The tag of the next value.
    #[inline]
    fn tag(&mut self) -> Result<u8> {
        let tag = self.peek()?;
        self.rest = &self.rest[1..];
        Ok(tag)
    }

    /// Run `read` one nesting level down.
    #[inline]
    fn nested<T>(&mut self, read: impl FnOnce(&mut Self) -> Result<T>) -> Result<T> {
        self.depth += 1;
        let out = read(self)?;
        self.depth -= 1;
        Ok(out)
    }

    fn invalid_type(expected: &str, tag: u8) -> Error {
        match tag_kind(tag) {
            Some(kind) => serde::Error::invalid_type(expected, kind).into(),
            None => invalid_tag(tag),
        }
    }

    /// Read past one value, validating it as a decode would.
    fn skip(&mut self) -> Result<()> {
        match self.tag()? {
            TAG_UNIT | TAG_FALSE | TAG_TRUE | TAG_NONE => {}
            TAG_U64 | TAG_I64 => {
                self.varint()?;
            }
            TAG_F64 => {
                self.take(8)?;
            }
            TAG_STR => {
                self.str()?;
            }
            TAG_BYTES => {
                self.blob()?;
            }
            TAG_SOME => self.nested(Self::skip)?,
            TAG_SEQ => {
                let len = self.count("sequence")?;
                self.nested(|de| (0..len).try_for_each(|_| de.skip()))?;
            }
            TAG_MAP => {
                let len = self.count("map")?;
                self.nested(|de| (0..len).try_for_each(|_| de.skip().and_then(|()| de.skip())))?;
            }
            TAG_RECORD => {
                let len = self.count("record")?;
                self.nested(|de| (0..len).try_for_each(|_| de.str().and_then(|_| de.skip())))?;
            }
            TAG_VARIANT => {
                self.str()?;
                self.nested(Self::skip)?;
            }
            tag => return Err(invalid_tag(tag)),
        }
        Ok(())
    }

    fn variant_index(name: &[u8], enum_name: &str, variants: &[&str]) -> Result<usize> {
        match serde::field_index(variants, name) {
            i if i < variants.len() => Ok(i),
            _ => {
                let name = std::str::from_utf8(name).map_err(|_| invalid_utf8())?;
                Err(serde::Error::unknown_variant(name, enum_name).into())
            }
        }
    }

    fn seq<V: SeqVisitor<'de>>(&mut self, visitor: V, bytes_too: bool) -> Result<V::Value> {
        match self.tag()? {
            TAG_SEQ => {
                let left = self.count("sequence")?;
                self.nested(|de| {
                    let mut seq = Elements { de, left };
                    let value = visitor.visit_seq(&mut seq)?;
                    (0..seq.left).try_for_each(|_| seq.de.skip())?;
                    Ok(value)
                })
            }
            TAG_BYTES if bytes_too => visitor.visit_seq(&mut ByteSeqAccess::new(self.blob()?)),
            tag => Err(Self::invalid_type("sequence", tag)),
        }
    }
}

impl<'de> serde::Deserializer<'de> for &mut Decoder<'de> {
    type Error = Error;

    /// The binary format decodes typed values only.
    fn take_value(self) -> Result<Value> {
        Err(Error(
            "a serde::Value cannot be decoded from bincode".into(),
        ))
    }

    fn deserialize_ignored(self) -> Result<()> {
        self.skip()
    }

    fn deserialize_bool(self) -> Result<bool> {
        match self.tag()? {
            TAG_FALSE => Ok(false),
            TAG_TRUE => Ok(true),
            tag => Err(Decoder::invalid_type("bool", tag)),
        }
    }

    fn deserialize_u64(self) -> Result<u64> {
        match self.tag()? {
            TAG_U64 => self.varint(),
            TAG_I64 => u64::try_from(unzigzag(self.varint()?))
                .map_err(|_| serde::Error::out_of_range().into()),
            tag => Err(Decoder::invalid_type("integer", tag)),
        }
    }

    fn deserialize_i64(self) -> Result<i64> {
        match self.tag()? {
            TAG_I64 => Ok(unzigzag(self.varint()?)),
            TAG_U64 => {
                i64::try_from(self.varint()?).map_err(|_| serde::Error::out_of_range().into())
            }
            tag => Err(Decoder::invalid_type("integer", tag)),
        }
    }

    fn deserialize_f64(self) -> Result<f64> {
        match self.tag()? {
            TAG_F64 => {
                let raw = self.take(8)?;
                Ok(f64::from_le_bytes(raw.try_into().expect("eight bytes")))
            }
            TAG_U64 => Ok(self.varint()? as f64),
            TAG_I64 => Ok(unzigzag(self.varint()?) as f64),
            tag => Err(Decoder::invalid_type("float", tag)),
        }
    }

    fn deserialize_string(self) -> Result<String> {
        self.deserialize_borrowed_str().map(Cow::into_owned)
    }

    fn deserialize_byte_buf(self) -> Result<Vec<u8>> {
        self.deserialize_borrowed_bytes().map(Cow::into_owned)
    }

    fn deserialize_borrowed_str(self) -> Result<Cow<'de, str>> {
        match self.tag()? {
            TAG_STR => self.str().map(Cow::Borrowed),
            tag => Err(Decoder::invalid_type("string", tag)),
        }
    }

    /// A blob is lent; a sequence of bytes is gathered.
    fn deserialize_borrowed_bytes(self) -> Result<Cow<'de, [u8]>> {
        if self.peek()? == TAG_BYTES {
            self.tag()?;
            return self.blob().map(Cow::Borrowed);
        }
        Vec::<u8>::deserialize(self).map(Cow::Owned)
    }

    fn deserialize_unit(self) -> Result<()> {
        match self.tag()? {
            TAG_UNIT => Ok(()),
            tag => Err(Decoder::invalid_type("unit", tag)),
        }
    }

    fn deserialize_option<T: Deserialize<'de>>(self) -> Result<Option<T>> {
        match self.peek()? {
            TAG_NONE | TAG_UNIT => {
                self.tag()?;
                Ok(None)
            }
            TAG_SOME => {
                self.tag()?;
                self.nested(|de| T::deserialize(de)).map(Some)
            }
            // A bare value is the content of a present option.
            _ => T::deserialize(self).map(Some),
        }
    }

    fn deserialize_seq<V: SeqVisitor<'de>>(self, visitor: V) -> Result<V::Value> {
        self.seq(visitor, true)
    }

    fn deserialize_tuple<V: SeqVisitor<'de>>(self, visitor: V) -> Result<V::Value> {
        self.seq(visitor, false)
    }

    fn deserialize_map<V: MapVisitor<'de>>(self, visitor: V) -> Result<V::Value> {
        let named = match self.tag()? {
            TAG_MAP => false,
            TAG_RECORD => true,
            tag => return Err(Decoder::invalid_type("map", tag)),
        };
        let left = self.count(if named { "record" } else { "map" })?;
        self.nested(|de| {
            let mut map = Entries { de, left, named };
            let value = visitor.visit_map(&mut map)?;
            for _ in 0..map.left {
                if named {
                    map.de.str()?;
                } else {
                    map.de.skip()?;
                }
                map.de.skip()?;
            }
            Ok(value)
        })
    }

    fn deserialize_record<V: RecordVisitor<'de>>(
        self,
        names: &'static [&'static str],
        visitor: V,
    ) -> Result<V::Value> {
        let keyed = match self.tag()? {
            TAG_RECORD => false,
            TAG_MAP => true,
            tag => return Err(Decoder::invalid_type("record", tag)),
        };
        let left = self.count(if keyed { "map" } else { "record" })?;
        self.nested(|de| {
            let mut record = Fields {
                de,
                left,
                keyed,
                names,
                next: 0,
            };
            let value = visitor.visit_record(&mut record)?;
            while record.next_field()?.is_some() {
                record.skip_value()?;
            }
            Ok(value)
        })
    }

    fn deserialize_enum<V: EnumVisitor<'de>>(
        self,
        name: &'static str,
        variants: &'static [&'static str],
        visitor: V,
    ) -> Result<V::Value> {
        match self.tag()? {
            TAG_VARIANT => {
                let index = Decoder::variant_index(self.blob()?, name, variants)?;
                self.nested(|de| visitor.visit_variant(index, de))
            }
            // A bare name is a variant without payload.
            TAG_STR => {
                let index = Decoder::variant_index(self.str()?.as_bytes(), name, variants)?;
                visitor.visit_variant(index, UnitDeserializer::<Error>::new())
            }
            // So is a one-entry record or string-keyed map: name → payload.
            TAG_RECORD => {
                if self.count("record")? != 1 {
                    return Err(Decoder::invalid_type("enum variant", TAG_RECORD));
                }
                let variant = self.str()?;
                let index = Decoder::variant_index(variant.as_bytes(), name, variants)?;
                self.nested(|de| visitor.visit_variant(index, de))
            }
            TAG_MAP => {
                if self.count("map")? != 1 {
                    return Err(Decoder::invalid_type("enum variant", TAG_MAP));
                }
                self.nested(|de| {
                    let tag = de.tag()?;
                    if tag != TAG_STR {
                        return Err(Decoder::invalid_type("variant name", tag));
                    }
                    let index = Decoder::variant_index(de.str()?.as_bytes(), name, variants)?;
                    visitor.visit_variant(index, de)
                })
            }
            tag => Err(Decoder::invalid_type("enum variant", tag)),
        }
    }
}

/// The elements of a sequence.
struct Elements<'a, 'de> {
    de: &'a mut Decoder<'de>,
    left: usize,
}

impl<'de> SeqAccess<'de> for Elements<'_, 'de> {
    type Error = Error;

    fn next_element<T: Deserialize<'de>>(&mut self) -> Result<Option<T>> {
        if self.left == 0 {
            return Ok(None);
        }
        self.left -= 1;
        T::deserialize(&mut *self.de).map(Some)
    }

    fn size_hint(&self) -> usize {
        self.left
    }
}

/// The entries of a map, or of a record read as a map keyed by field name.
struct Entries<'a, 'de> {
    de: &'a mut Decoder<'de>,
    left: usize,
    named: bool,
}

impl<'de> MapAccess<'de> for Entries<'_, 'de> {
    type Error = Error;

    fn next_entry<K: Deserialize<'de>, V: Deserialize<'de>>(&mut self) -> Result<Option<(K, V)>> {
        if self.left == 0 {
            return Ok(None);
        }
        self.left -= 1;
        let key = if self.named {
            K::deserialize(StrDeserializer::<Error>::new(self.de.str()?))?
        } else {
            K::deserialize(&mut *self.de)?
        };
        Ok(Some((key, V::deserialize(&mut *self.de)?)))
    }

    fn size_hint(&self) -> usize {
        self.left
    }
}

/// The fields of a record, or of a string-keyed map read as a record.
struct Fields<'a, 'de> {
    de: &'a mut Decoder<'de>,
    left: usize,
    keyed: bool,
    names: &'static [&'static str],
    /// The field expected next: records arrive in declaration order, so it
    /// is compared first.
    next: usize,
}

impl<'de> RecordAccess<'de> for Fields<'_, 'de> {
    type Error = Error;

    fn next_field(&mut self) -> Result<Option<usize>> {
        if self.left == 0 {
            return Ok(None);
        }
        self.left -= 1;
        if self.keyed {
            let tag = self.de.tag()?;
            if tag != TAG_STR {
                return Err(Decoder::invalid_type("string key", tag));
            }
        }
        let name = self.de.blob()?;
        let index = match self.names.get(self.next) {
            Some(expected) if expected.as_bytes() == name => self.next,
            _ => serde::field_index(self.names, name),
        };
        // A known name is valid UTF-8; any other must be checked.
        if index == self.names.len() && std::str::from_utf8(name).is_err() {
            return Err(invalid_utf8());
        }
        self.next = index + 1;
        Ok(Some(index))
    }

    fn field_value<T: Deserialize<'de>>(&mut self) -> Result<T> {
        T::deserialize(&mut *self.de)
    }

    fn skip_value(&mut self) -> Result<()> {
        self.de.skip()
    }
}

/// Serialise a value to bytes.
pub fn serialize<T: Serialize + ?Sized>(value: &T) -> Result<Vec<u8>> {
    let mut out = Vec::new();
    serialize_into(&mut out, value)?;
    Ok(out)
}

/// Serialise a value, appending the encoding to `out` (real bincode takes
/// any `Write`; a `&mut Vec<u8>` is what this workspace passes). Lets a
/// caller frame a record without copying the payload into a second buffer.
/// The encoding is measured first, so `out` grows at most once.
pub fn serialize_into<T: Serialize + ?Sized>(out: &mut Vec<u8>, value: &T) -> Result<()> {
    out.reserve(serialized_size(value)? as usize);
    value.serialize(&mut Encoder { out })
}

/// Serialise a value into `buf`, which must be exactly
/// [`serialized_size`] bytes long: with [`serialized_size`] this encodes
/// into a buffer allocated once at its final size.
pub fn serialize_into_slice<T: Serialize + ?Sized>(buf: &mut [u8], value: &T) -> Result<()> {
    let mut fill = Fill { buf, at: 0 };
    value.serialize(&mut Encoder { out: &mut fill })?;
    if fill.at != fill.buf.len() {
        return Err(Error(format!(
            "encoding takes {} bytes, the buffer holds {}",
            fill.at,
            fill.buf.len()
        )));
    }
    Ok(())
}

/// The number of bytes `serialize` would produce.
pub fn serialized_size<T: Serialize + ?Sized>(value: &T) -> Result<u64> {
    let mut count = Count(0);
    value.serialize(&mut Encoder { out: &mut count })?;
    Ok(count.0 as u64)
}

/// Deserialise a value from bytes. The input must be fully consumed.
pub fn deserialize<'a, T: Deserialize<'a>>(bytes: &'a [u8]) -> Result<T> {
    let mut decoder = Decoder {
        rest: bytes,
        depth: 0,
    };
    let value = T::deserialize(&mut decoder)?;
    if !decoder.rest.is_empty() {
        return Err(Error(format!(
            "trailing garbage: {} of {} bytes consumed",
            bytes.len() - decoder.rest.len(),
            bytes.len()
        )));
    }
    Ok(value)
}

/// The `Value`-tree codec the streaming one replaced, kept as the reference
/// that proves the format did not move.
#[cfg(test)]
mod reference {
    use super::*;

    pub fn encode(value: &Value, out: &mut Vec<u8>) {
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
                put_varint(out, zigzag(*v));
            }
            Value::F64(v) => {
                out.push(TAG_F64);
                out.extend_from_slice(&v.to_le_bytes());
            }
            Value::Str(s) => {
                out.push(TAG_STR);
                put_str(out, s.as_bytes());
            }
            Value::Bytes(b) => {
                out.push(TAG_BYTES);
                put_str(out, b);
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
                    put_str(out, name.as_bytes());
                    encode(v, out);
                }
            }
            Value::Variant(name, payload) => {
                out.push(TAG_VARIANT);
                put_str(out, name.as_bytes());
                encode(payload, out);
            }
        }
    }

    /// Decode one whole input into a `Value` tree.
    pub fn decode(bytes: &[u8]) -> Result<Value> {
        let mut de = Decoder {
            rest: bytes,
            depth: 0,
        };
        let value = tree(&mut de)?;
        if !de.rest.is_empty() {
            return Err(Error("trailing garbage".into()));
        }
        Ok(value)
    }

    fn tree(de: &mut Decoder<'_>) -> Result<Value> {
        Ok(match de.tag()? {
            TAG_UNIT => Value::Unit,
            TAG_FALSE => Value::Bool(false),
            TAG_TRUE => Value::Bool(true),
            TAG_U64 => Value::U64(de.varint()?),
            TAG_I64 => Value::I64(unzigzag(de.varint()?)),
            TAG_F64 => Value::F64(f64::from_le_bytes(de.take(8)?.try_into().unwrap())),
            TAG_STR => Value::Str(de.str()?.to_owned()),
            TAG_BYTES => Value::Bytes(de.blob()?.to_vec()),
            TAG_NONE => Value::Option(None),
            TAG_SOME => Value::Option(Some(Box::new(de.nested(tree)?))),
            TAG_SEQ => {
                let len = de.count("sequence")?;
                Value::Seq(de.nested(|de| (0..len).map(|_| tree(de)).collect())?)
            }
            TAG_MAP => {
                let len = de.count("map")?;
                Value::Map(de.nested(|de| (0..len).map(|_| Ok((tree(de)?, tree(de)?))).collect())?)
            }
            TAG_RECORD => {
                let len = de.count("record")?;
                Value::Record(de.nested(|de| {
                    (0..len)
                        .map(|_| Ok((de.str()?.to_owned(), tree(de)?)))
                        .collect()
                })?)
            }
            TAG_VARIANT => {
                let name = de.str()?.to_owned();
                Value::Variant(name, Box::new(de.nested(tree)?))
            }
            tag => return Err(invalid_tag(tag)),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use std::collections::{BTreeMap, VecDeque};

    use proptest::prelude::*;
    use proptest::Gen;

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
    fn a_slice_of_the_measured_size_takes_the_encoding_exactly() {
        let v = (7u32, "naïve".to_string(), vec![1i64, -2]);
        let expected = serialize(&v).unwrap();
        let mut buf = vec![0; serialized_size(&v).unwrap() as usize];
        serialize_into_slice(&mut buf, &v).unwrap();
        assert_eq!(buf, expected);
        for len in [0, expected.len() - 1, expected.len() + 1] {
            let err = serialize_into_slice(&mut vec![0; len], &v).unwrap_err();
            assert!(err.0.contains("the buffer holds"), "{err}");
        }
    }

    #[test]
    fn strings_and_blobs_are_lent_out_of_the_input() {
        let bytes = serialize(&"lent").unwrap();
        let s: &str = deserialize(&bytes).unwrap();
        assert_eq!(s, "lent");
        assert!(std::ptr::eq(s.as_bytes(), &bytes[2..]));
        let mut d = Decoder {
            rest: &[TAG_BYTES, 2, 8, 9],
            depth: 0,
        };
        let blob = serde::Deserializer::deserialize_borrowed_bytes(&mut d).unwrap();
        assert!(matches!(blob, Cow::Borrowed(&[8, 9])));
        // A sequence of byte-sized integers has no blob to lend.
        let mut d = Decoder {
            rest: &[TAG_SEQ, 1, TAG_U64, 8],
            depth: 0,
        };
        let seq = serde::Deserializer::deserialize_borrowed_bytes(&mut d).unwrap();
        assert!(matches!(seq, Cow::Owned(ref v) if v == &[8]));
        // A borrowed string checks its tag and its UTF-8 like an owned one.
        assert!(deserialize::<&str>(&[TAG_BYTES, 1, b'a']).is_err());
        assert!(deserialize::<&str>(&[TAG_STR, 1, 0xff]).is_err());
        assert!(deserialize::<&str>(&[TAG_STR, 2, b'a']).is_err());
    }

    #[test]
    fn serialized_size_matches() {
        let v = vec![1u64, 2, 3];
        assert_eq!(
            serialized_size(&v).unwrap(),
            serialize(&v).unwrap().len() as u64
        );
    }

    /// A length varint of 2^63 + 1: added to the read position it wraps.
    const WRAPPING_LEN: [u8; 10] = [0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01];

    fn with_len(prefix: &[u8]) -> Vec<u8> {
        let mut bytes = prefix.to_vec();
        bytes.extend_from_slice(&WRAPPING_LEN);
        bytes
    }

    #[derive(Debug, PartialEq, Serialize, Deserialize)]
    struct Named {
        field: u32,
    }

    #[derive(Debug, PartialEq, Serialize, Deserialize)]
    enum Tagged {
        Only,
    }

    #[test]
    fn a_length_that_wraps_the_read_position_is_an_error() {
        let string = with_len(&[TAG_STR]);
        assert!(deserialize::<String>(&string).is_err());
        let blob = with_len(&[TAG_BYTES]);
        assert!(deserialize::<Vec<u8>>(&blob).is_err());
        let field_name = with_len(&[TAG_RECORD, 1]);
        assert!(deserialize::<Named>(&field_name).is_err());
        let variant_name = with_len(&[TAG_VARIANT]);
        assert!(deserialize::<Tagged>(&variant_name).is_err());
    }

    #[test]
    fn a_varint_past_64_bits_is_an_error() {
        let max = [
            TAG_U64, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01,
        ];
        assert_eq!(deserialize::<u64>(&max).unwrap(), u64::MAX);
        let overflowing = [
            TAG_U64, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f,
        ];
        assert!(deserialize::<u64>(&overflowing).is_err());
        let eleven_bytes = [
            TAG_U64, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0,
        ];
        assert!(deserialize::<u64>(&eleven_bytes).is_err());
    }

    #[test]
    fn nesting_is_limited_to_128_levels() {
        let nested = |levels: usize| {
            let mut bytes = vec![TAG_SOME; levels];
            bytes.push(TAG_UNIT);
            bytes
        };
        // Skipped as an unknown field, decoded as nested options: the limit
        // holds either way.
        let in_record = |levels: usize| {
            let mut bytes = vec![TAG_RECORD, 2, 5];
            bytes.extend_from_slice(b"field");
            bytes.extend_from_slice(&[TAG_U64, 7, 1, b'x']);
            bytes.extend(nested(levels - 1));
            bytes
        };
        assert_eq!(
            deserialize::<Named>(&in_record(128)).unwrap(),
            Named { field: 7 }
        );
        let err = deserialize::<Named>(&in_record(129)).unwrap_err();
        assert!(err.0.contains("nesting too deep"), "{err}");
        type Deep = Option<Option<Option<()>>>;
        assert!(deserialize::<Deep>(&nested(3)).is_ok());
        assert!(reference::decode(&nested(128)).is_ok());
        assert!(reference::decode(&nested(129)).is_err());
    }

    #[test]
    fn every_shape_check_of_the_value_path_holds() {
        let e = |bytes: &[u8]| deserialize::<Named>(bytes).unwrap_err().0;
        // an integer field holding a string
        let mut bytes = vec![TAG_RECORD, 1, 5];
        bytes.extend_from_slice(b"field");
        bytes.extend_from_slice(&[TAG_STR, 1, b'a']);
        assert_eq!(e(&bytes), "expected integer, got string");
        // a missing field
        assert_eq!(e(&[TAG_RECORD, 0]), "missing field `field`");
        // an unknown tag
        assert_eq!(e(&[0x2a]), "invalid tag byte 0x2a");
        // a u8 holding 300
        let out_of_range = [TAG_U64, 0xac, 0x02];
        assert_eq!(
            deserialize::<u8>(&out_of_range).unwrap_err().0,
            "integer out of range"
        );
        // an unknown variant, and one whose name is not UTF-8
        let mut bytes = vec![TAG_VARIANT, 4];
        bytes.extend_from_slice(b"Some");
        bytes.push(TAG_UNIT);
        assert_eq!(
            deserialize::<Tagged>(&bytes).unwrap_err().0,
            "unknown variant `Some` of Tagged"
        );
        assert_eq!(
            deserialize::<Tagged>(&[TAG_VARIANT, 1, 0xff, TAG_UNIT])
                .unwrap_err()
                .0,
            "invalid UTF-8"
        );
        // an unknown field name that is not UTF-8
        assert_eq!(e(&[TAG_RECORD, 1, 1, 0xff, TAG_UNIT]), "invalid UTF-8");
        // a sequence longer than the input
        assert_eq!(
            deserialize::<Vec<u8>>(&[TAG_SEQ, 9, TAG_U64, 1])
                .unwrap_err()
                .0,
            "sequence length exceeds input"
        );
    }

    #[test]
    fn the_json_shapes_of_enums_and_records_still_decode() {
        // A bare name is a unit variant; a one-entry record is a data variant.
        assert_eq!(
            deserialize::<Tagged>(&[TAG_STR, 4, b'O', b'n', b'l', b'y']).unwrap(),
            Tagged::Only
        );
        let mut record = vec![TAG_RECORD, 1, 4];
        record.extend_from_slice(b"Only");
        record.push(TAG_UNIT);
        assert_eq!(deserialize::<Tagged>(&record).unwrap(), Tagged::Only);
        // A string-keyed map is a record.
        let mut map = vec![TAG_MAP, 1, TAG_STR, 5];
        map.extend_from_slice(b"field");
        map.extend_from_slice(&[TAG_U64, 3]);
        assert_eq!(deserialize::<Named>(&map).unwrap(), Named { field: 3 });
        // A record is a map keyed by its field names.
        let mut record = vec![TAG_RECORD, 1, 5];
        record.extend_from_slice(b"field");
        record.extend_from_slice(&[TAG_U64, 3]);
        let as_map: BTreeMap<String, u32> = deserialize(&record).unwrap();
        assert_eq!(as_map, BTreeMap::from([("field".to_string(), 3)]));
        // A byte blob is a sequence of bytes, but not a tuple.
        assert_eq!(
            deserialize::<VecDeque<u16>>(&[TAG_BYTES, 2, 4, 5]).unwrap(),
            [4, 5]
        );
        assert!(deserialize::<(u8, u8)>(&[TAG_BYTES, 2, 4, 5]).is_err());
    }

    // -----------------------------------------------------------------------
    // Byte identity with the Value path, over generated values.
    // -----------------------------------------------------------------------

    mod blob {
        use serde::{Deserializer, Serializer};

        pub fn serialize<S: Serializer>(b: &[u8], s: S) -> Result<S::Ok, S::Error> {
            s.serialize_bytes(b)
        }

        pub fn deserialize<'de, D: Deserializer<'de>>(d: D) -> Result<Vec<u8>, D::Error> {
            d.deserialize_byte_buf()
        }
    }

    #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
    struct Marker;

    #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
    struct Pair(u32, String);

    #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
    enum Kind {
        Empty,
        One(u32),
        Two(String, bool),
        Named { x: i8, next: Option<Box<Kind>> },
    }

    #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
    struct Sample {
        a: u8,
        b: i32,
        c: u64,
        d: f64,
        e: String,
        f: Option<u16>,
        g: Vec<i64>,
        h: BTreeMap<u32, String>,
        i: (bool, char),
        j: Kind,
        #[serde(with = "blob")]
        k: Vec<u8>,
        l: VecDeque<Kind>,
        m: Marker,
        n: Pair,
        #[serde(default)]
        o: Vec<u8>,
        p: std::time::Duration,
        q: (i16, u64, Option<()>),
    }

    fn below(gen: &mut Gen, n: u64) -> u64 {
        gen.next_u64() % n
    }

    fn text(gen: &mut Gen) -> String {
        const ALPHABET: [char; 6] = ['a', 'Z', ' ', 'é', '€', '𝄞'];
        (0..below(gen, 6))
            .map(|_| ALPHABET[below(gen, 6) as usize])
            .collect()
    }

    fn kind(gen: &mut Gen, depth: u32) -> Kind {
        match below(gen, if depth > 2 { 3 } else { 4 }) {
            0 => Kind::Empty,
            1 => Kind::One(gen.next_u64() as u32),
            2 => Kind::Two(text(gen), gen.next_u64() & 1 == 1),
            _ => Kind::Named {
                x: gen.next_u64() as i8,
                next: (gen.next_u64() & 1 == 1).then(|| Box::new(kind(gen, depth + 1))),
            },
        }
    }

    struct AnySample;

    impl Strategy for AnySample {
        type Value = Sample;

        fn generate(&self, gen: &mut Gen) -> Sample {
            let bits = gen.next_u64() >> (gen.next_u64() % 64);
            Sample {
                a: gen.next_u64() as u8,
                b: gen.next_u64() as i32,
                c: bits,
                d: (gen.next_u64() as i64) as f64 / 7.0,
                e: text(gen),
                f: (gen.next_u64() & 1 == 1).then(|| gen.next_u64() as u16),
                g: (0..below(gen, 4))
                    .map(|_| gen.next_u64() as i64 >> 3)
                    .collect(),
                h: (0..below(gen, 4))
                    .map(|_| (gen.next_u64() as u32, text(gen)))
                    .collect(),
                i: (
                    gen.next_u64() & 1 == 1,
                    text(gen).chars().next().unwrap_or('x'),
                ),
                j: kind(gen, 0),
                k: (0..below(gen, 40)).map(|_| gen.next_u64() as u8).collect(),
                l: (0..below(gen, 3)).map(|_| kind(gen, 0)).collect(),
                m: Marker,
                n: Pair(gen.next_u64() as u32, text(gen)),
                o: (0..below(gen, 5)).map(|_| gen.next_u64() as u8).collect(),
                p: std::time::Duration::new(
                    gen.next_u64() >> 20,
                    (gen.next_u64() % 1_000_000_000) as u32,
                ),
                q: (
                    gen.next_u64() as i16,
                    bits,
                    (gen.next_u64() & 1 == 1).then_some(()),
                ),
            }
        }
    }

    fn value(gen: &mut Gen, depth: u32) -> Value {
        let shapes = if depth > 3 { 8 } else { 13 };
        match below(gen, shapes) {
            0 => Value::Unit,
            1 => Value::Bool(gen.next_u64() & 1 == 1),
            2 => Value::U64(gen.next_u64() >> below(gen, 64)),
            3 => Value::I64((gen.next_u64() as i64) >> below(gen, 64)),
            4 => Value::F64(gen.next_u64() as f64 / 3.0),
            5 => Value::Str(text(gen)),
            6 => Value::Bytes((0..below(gen, 9)).map(|_| gen.next_u64() as u8).collect()),
            7 => Value::Option(None),
            8 => Value::Option(Some(Box::new(value(gen, depth + 1)))),
            9 => Value::Seq((0..below(gen, 4)).map(|_| value(gen, depth + 1)).collect()),
            10 => Value::Map(
                (0..below(gen, 3))
                    .map(|_| (value(gen, depth + 1), value(gen, depth + 1)))
                    .collect(),
            ),
            11 => Value::Record(
                (0..below(gen, 4))
                    .map(|_| (text(gen), value(gen, depth + 1)))
                    .collect(),
            ),
            _ => Value::Variant(text(gen), Box::new(value(gen, depth + 1))),
        }
    }

    struct AnyValue;

    impl Strategy for AnyValue {
        type Value = Value;

        fn generate(&self, gen: &mut Gen) -> Value {
            value(gen, 0)
        }
    }

    fn reference_bytes<T: Serialize>(v: &T) -> Vec<u8> {
        let mut out = Vec::new();
        reference::encode(&serde::to_value(v).unwrap(), &mut out);
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn streamed_values_encode_like_the_value_path(v in AnyValue) {
            let bytes = serialize(&v).unwrap();
            prop_assert_eq!(&bytes, &reference_bytes(&v));
            prop_assert_eq!(reference::decode(&bytes).unwrap(), v);
        }

        #[test]
        fn streamed_types_encode_like_the_value_path_and_decode_back(s in AnySample) {
            let bytes = serialize(&s).unwrap();
            prop_assert_eq!(&bytes, &reference_bytes(&s));
            prop_assert_eq!(&deserialize::<Sample>(&bytes).unwrap(), &s);
            let via_tree: Sample = serde::from_value(reference::decode(&bytes).unwrap()).unwrap();
            prop_assert_eq!(via_tree, s);
        }

        #[test]
        fn streamed_decoding_accepts_exactly_what_the_value_path_accepts(
            s in AnySample,
            cut in 0usize..4096,
            flip in 0usize..4096,
            bit in 0u32..8,
        ) {
            let mut bytes = serialize(&s).unwrap();
            let at = flip % bytes.len();
            bytes[at] ^= 1 << bit;
            bytes.truncate(bytes.len() - cut % 2 * (cut % bytes.len()));
            let streamed = deserialize::<Sample>(&bytes);
            let via_tree = reference::decode(&bytes)
                .map_err(|e| e.0)
                .and_then(|v| serde::from_value::<Sample>(v).map_err(|e| e.0));
            prop_assert_eq!(streamed.is_ok(), via_tree.is_ok(), "{:?} vs {:?}", streamed, via_tree);
            if let (Ok(a), Ok(b)) = (streamed, via_tree) {
                prop_assert_eq!(format!("{a:?}"), format!("{b:?}"));
            }
        }
    }
}
