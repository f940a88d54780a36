//! Offline stand-in for `serde`.
//!
//! The build environment has no access to crates.io, so this crate provides
//! the subset of serde's API that the workspace uses.
//!
//! **Streaming.** A [`Serialize`] implementation drives a [`Serializer`]
//! with typed calls — integers, floats, strings, byte blobs, unit, options,
//! and the begin / element / end of sequences, maps, records (structs) and
//! variants — and a [`Deserialize`] implementation pulls typed values from a
//! [`Deserializer`], handing a visitor ([`de::SeqVisitor`],
//! [`de::MapVisitor`], [`de::RecordVisitor`], [`de::EnumVisitor`]) to the
//! compound pulls. A binary format (the `bincode` shim) writes and reads
//! those calls straight to and from bytes; no intermediate tree is built.
//! Derived record deserialisers match each incoming field name against the
//! type's `&'static str` field names, skip unknown fields and honour
//! `#[serde(default)]`.
//!
//! **The [`Value`] model.** Self-describing formats (the `serde_json` shim)
//! go through a [`Value`] tree: [`ValueSerializer`] builds one from the
//! typed calls and [`ValueDeserializer`] answers every pull from one. Every
//! pull of [`Deserializer`] has a default that takes the input as a
//! [`Value`] ([`Deserializer::take_value`]) and answers from it, so a format
//! only has to produce a [`Value`] to work.
//!
//! **Borrowed pulls.** [`Deserializer::deserialize_borrowed_str`] and
//! [`Deserializer::deserialize_borrowed_bytes`] let a format that holds its
//! input in memory lend a string or blob out of it for `'de`: `&'de str`
//! decodes without allocating, and a byte buffer with a single copy. A
//! format that cannot lend (the [`Value`] path) answers them with an owned
//! value, so `&'de str` is an error there and everything else works as
//! before.
//!
//! The derive macros come from the sibling `serde_derive` shim and support
//! the attributes this workspace uses: `#[serde(default)]` and
//! `#[serde(with = "path")]`.

#![forbid(unsafe_code)]

pub use serde_derive::{Deserialize, Serialize};

// Lets the derive macros' `::serde::` paths resolve inside this crate's tests.
extern crate self as serde;

use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet, VecDeque};
use std::fmt;
use std::marker::PhantomData;

/// The self-describing data model of the [`ValueSerializer`] /
/// [`ValueDeserializer`] pair.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// The unit value / JSON null.
    Unit,
    /// A boolean.
    Bool(bool),
    /// Any unsigned integer.
    U64(u64),
    /// Any signed integer.
    I64(i64),
    /// Any floating-point number.
    F64(f64),
    /// A string.
    Str(String),
    /// A byte blob (`serialize_bytes`).
    Bytes(Vec<u8>),
    /// An optional value.
    Option(Option<Box<Value>>),
    /// A sequence (Vec, tuple, tuple struct).
    Seq(Vec<Value>),
    /// A map with arbitrary keys.
    Map(Vec<(Value, Value)>),
    /// A struct: named fields in declaration order.
    Record(Vec<(String, Value)>),
    /// An enum variant: name plus payload (Unit / Seq / Record).
    Variant(String, Box<Value>),
}

impl Value {
    /// The name of this value's shape, as error messages print it.
    fn kind(&self) -> &'static str {
        match self {
            Value::Unit => "unit",
            Value::Bool(_) => "bool",
            Value::U64(_) => "u64",
            Value::I64(_) => "i64",
            Value::F64(_) => "f64",
            Value::Str(_) => "string",
            Value::Bytes(_) => "bytes",
            Value::Option(_) => "option",
            Value::Seq(_) => "sequence",
            Value::Map(_) => "map",
            Value::Record(_) => "record",
            Value::Variant(..) => "variant",
        }
    }
}

/// The single error type shared by serialisation and deserialisation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error(pub String);

impl Error {
    /// An error with a custom message.
    pub fn custom(msg: impl fmt::Display) -> Self {
        Error(msg.to_string())
    }

    /// A struct field was missing from the input.
    pub fn missing_field(name: &str) -> Self {
        Error(format!("missing field `{name}`"))
    }

    /// The input held a shape named `got` where `expected` was wanted.
    pub fn invalid_type(expected: &str, got: &str) -> Self {
        Error(format!("expected {expected}, got {got}"))
    }

    /// The input held a different shape than the target type expects.
    pub fn unexpected(expected: &str, got: &Value) -> Self {
        Self::invalid_type(expected, got.kind())
    }

    /// An integer does not fit the target type.
    pub fn out_of_range() -> Self {
        Error("integer out of range".into())
    }

    /// An enum variant name the target type does not have.
    pub fn unknown_variant(variant: &str, enum_name: &str) -> Self {
        Error(format!("unknown variant `{variant}` of {enum_name}"))
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for Error {}

/// A type that can describe itself to a [`Serializer`].
pub trait Serialize {
    /// Serialise `self` into the given serializer.
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error>;
}

/// A format's writer, driven by typed calls.
///
/// Each call consumes the serializer and writes one value; a compound value
/// begins with [`serialize_seq`](Self::serialize_seq),
/// [`serialize_map`](Self::serialize_map) or
/// [`serialize_record`](Self::serialize_record) (given its exact length) and
/// is written through the returned state. An enum variant is its name
/// ([`serialize_variant`](Self::serialize_variant)) followed by one payload
/// value written with the serializer it returns.
pub trait Serializer: Sized {
    /// Output of a successful serialisation.
    type Ok;
    /// Error type; every serde error must convert into it.
    type Error: From<Error>;
    /// State of a sequence being written.
    type SerializeSeq: ser::SerializeSeq<Ok = Self::Ok, Error = Self::Error>;
    /// State of a map being written.
    type SerializeMap: ser::SerializeMap<Ok = Self::Ok, Error = Self::Error>;
    /// State of a record (named fields) being written.
    type SerializeRecord: ser::SerializeRecord<Ok = Self::Ok, Error = Self::Error>;

    /// The unit value.
    fn serialize_unit(self) -> Result<Self::Ok, Self::Error>;
    /// A boolean.
    fn serialize_bool(self, v: bool) -> Result<Self::Ok, Self::Error>;
    /// Any unsigned integer.
    fn serialize_u64(self, v: u64) -> Result<Self::Ok, Self::Error>;
    /// Any signed integer.
    fn serialize_i64(self, v: i64) -> Result<Self::Ok, Self::Error>;
    /// Any floating-point number.
    fn serialize_f64(self, v: f64) -> Result<Self::Ok, Self::Error>;
    /// A string.
    fn serialize_str(self, v: &str) -> Result<Self::Ok, Self::Error>;
    /// A byte blob (kept distinct so formats can encode it compactly).
    fn serialize_bytes(self, v: &[u8]) -> Result<Self::Ok, Self::Error>;
    /// An absent optional value.
    fn serialize_none(self) -> Result<Self::Ok, Self::Error>;
    /// A present optional value.
    fn serialize_some<T: Serialize + ?Sized>(self, value: &T) -> Result<Self::Ok, Self::Error>;
    /// Begin a sequence of exactly `len` elements.
    fn serialize_seq(self, len: usize) -> Result<Self::SerializeSeq, Self::Error>;
    /// Begin a map of exactly `len` entries.
    fn serialize_map(self, len: usize) -> Result<Self::SerializeMap, Self::Error>;
    /// Begin a record of exactly `len` named fields.
    fn serialize_record(self, len: usize) -> Result<Self::SerializeRecord, Self::Error>;
    /// Begin an enum variant; the returned serializer writes its payload.
    fn serialize_variant(self, variant: &str) -> Result<Self, Self::Error>;
}

/// A type that can rebuild itself from a [`Deserializer`].
pub trait Deserialize<'de>: Sized {
    /// Deserialise from the given deserializer.
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error>;
}

/// A format's reader, answering typed pulls. Each pull consumes exactly one
/// value of the input.
///
/// Only [`take_value`](Self::take_value) is required: every pull defaults to
/// taking the input as a [`Value`] and answering from it the way
/// [`ValueDeserializer`] does.
pub trait Deserializer<'de>: Sized {
    /// Error type; every serde error must convert into it.
    type Error: From<Error>;

    /// Yield the input as a [`Value`].
    fn take_value(self) -> Result<Value, Self::Error>;

    /// Consume one value of any shape and discard it.
    fn deserialize_ignored(self) -> Result<(), Self::Error> {
        self.take_value().map(drop)
    }

    /// A boolean.
    fn deserialize_bool(self) -> Result<bool, Self::Error> {
        via_value(self, ValueDeserializer::deserialize_bool)
    }

    /// An unsigned integer (a signed input converts if it is in range).
    fn deserialize_u64(self) -> Result<u64, Self::Error> {
        via_value(self, ValueDeserializer::deserialize_u64)
    }

    /// A signed integer (an unsigned input converts if it is in range).
    fn deserialize_i64(self) -> Result<i64, Self::Error> {
        via_value(self, ValueDeserializer::deserialize_i64)
    }

    /// A floating-point number (integers convert).
    fn deserialize_f64(self) -> Result<f64, Self::Error> {
        via_value(self, ValueDeserializer::deserialize_f64)
    }

    /// An owned string.
    fn deserialize_string(self) -> Result<String, Self::Error> {
        via_value(self, ValueDeserializer::deserialize_string)
    }

    /// A byte blob, or a sequence of integers that fit a byte.
    fn deserialize_byte_buf(self) -> Result<Vec<u8>, Self::Error> {
        via_value(self, ValueDeserializer::deserialize_byte_buf)
    }

    /// A string lent out of the input for `'de` when the format can, else
    /// an owned one ([`deserialize_string`](Self::deserialize_string)).
    fn deserialize_borrowed_str(self) -> Result<Cow<'de, str>, Self::Error> {
        self.deserialize_string().map(Cow::Owned)
    }

    /// A byte blob lent out of the input for `'de` when the format can,
    /// else an owned one ([`deserialize_byte_buf`](Self::deserialize_byte_buf)).
    fn deserialize_borrowed_bytes(self) -> Result<Cow<'de, [u8]>, Self::Error> {
        self.deserialize_byte_buf().map(Cow::Owned)
    }

    /// The unit value.
    fn deserialize_unit(self) -> Result<(), Self::Error> {
        via_value(self, ValueDeserializer::deserialize_unit)
    }

    /// An optional value: none / unit is `None`, a present option is its
    /// content, and any other value is itself the content.
    fn deserialize_option<T: Deserialize<'de>>(self) -> Result<Option<T>, Self::Error> {
        via_value(self, ValueDeserializer::deserialize_option)
    }

    /// A sequence (or a byte blob, as a sequence of integers), handed
    /// element by element to `visitor`.
    fn deserialize_seq<V: de::SeqVisitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error> {
        via_value(self, |d| d.deserialize_seq(visitor))
    }

    /// A sequence of fixed shape — a tuple, a tuple struct or a tuple
    /// variant's payload — handed element by element to `visitor`. Unlike
    /// [`deserialize_seq`](Self::deserialize_seq) it takes no byte blob.
    fn deserialize_tuple<V: de::SeqVisitor<'de>>(
        self,
        visitor: V,
    ) -> Result<V::Value, Self::Error> {
        via_value(self, |d| d.deserialize_tuple(visitor))
    }

    /// A map (or a record, keyed by its field names), handed entry by entry
    /// to `visitor`.
    fn deserialize_map<V: de::MapVisitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error> {
        via_value(self, |d| d.deserialize_map(visitor))
    }

    /// A record (or a map with string keys) whose fields are matched
    /// against `fields`, handed field by field to `visitor`.
    fn deserialize_record<V: de::RecordVisitor<'de>>(
        self,
        fields: &'static [&'static str],
        visitor: V,
    ) -> Result<V::Value, Self::Error> {
        via_value(self, |d| d.deserialize_record(fields, visitor))
    }

    /// An enum variant of `name` whose variant name is matched against
    /// `variants`; `visitor` gets its index and a deserializer of its
    /// payload. An unknown variant name is an error.
    fn deserialize_enum<V: de::EnumVisitor<'de>>(
        self,
        name: &'static str,
        variants: &'static [&'static str],
        visitor: V,
    ) -> Result<V::Value, Self::Error> {
        via_value(self, |d| d.deserialize_enum(name, variants, visitor))
    }
}

/// Answer a pull of `d` from its input taken as a [`Value`].
fn via_value<'de, D: Deserializer<'de>, T>(
    d: D,
    pull: impl FnOnce(ValueDeserializer) -> Result<T, Error>,
) -> Result<T, D::Error> {
    Ok(pull(ValueDeserializer::new(d.take_value()?))?)
}

/// `serde::ser` compatibility surface: the states of compound values being
/// written.
pub mod ser {
    pub use crate::{Error, Serialize, Serializer};

    /// A sequence being written.
    pub trait SerializeSeq {
        /// Output of the whole serialisation.
        type Ok;
        /// Error type.
        type Error: From<Error>;
        /// Write the next element.
        fn serialize_element<T: Serialize + ?Sized>(
            &mut self,
            value: &T,
        ) -> Result<(), Self::Error>;
        /// Finish the sequence.
        fn end(self) -> Result<Self::Ok, Self::Error>;
    }

    /// A map being written.
    pub trait SerializeMap {
        /// Output of the whole serialisation.
        type Ok;
        /// Error type.
        type Error: From<Error>;
        /// Write the next key and its value.
        fn serialize_entry<K: Serialize + ?Sized, V: Serialize + ?Sized>(
            &mut self,
            key: &K,
            value: &V,
        ) -> Result<(), Self::Error>;
        /// Finish the map.
        fn end(self) -> Result<Self::Ok, Self::Error>;
    }

    /// A record (named fields) being written.
    pub trait SerializeRecord {
        /// Output of the whole serialisation.
        type Ok;
        /// Error type.
        type Error: From<Error>;
        /// Write the next field.
        fn serialize_field<T: Serialize + ?Sized>(
            &mut self,
            name: &str,
            value: &T,
        ) -> Result<(), Self::Error>;
        /// Finish the record.
        fn end(self) -> Result<Self::Ok, Self::Error>;
    }
}

/// `serde::de` compatibility surface: the visitors compound pulls drive and
/// the access a format hands them.
pub mod de {
    pub use crate::{Deserialize, Deserializer, Error};

    /// Owned deserialisation (no borrowed data), as in real serde.
    pub trait DeserializeOwned: for<'de> Deserialize<'de> {}
    impl<T: for<'de> Deserialize<'de>> DeserializeOwned for T {}

    /// Element-by-element access to a sequence.
    pub trait SeqAccess<'de> {
        /// Error type.
        type Error: From<Error>;

        /// The next element, or `None` past the last one.
        fn next_element<T: Deserialize<'de>>(&mut self) -> Result<Option<T>, Self::Error>;

        /// How many elements remain (already checked against the input).
        fn size_hint(&self) -> usize;

        /// The next element, which must be there.
        fn element<T: Deserialize<'de>>(&mut self) -> Result<T, Self::Error> {
            self.next_element()?
                .ok_or_else(|| Error::custom("sequence shorter than expected").into())
        }
    }

    /// Entry-by-entry access to a map.
    pub trait MapAccess<'de> {
        /// Error type.
        type Error: From<Error>;

        /// The next key and value, or `None` past the last entry.
        fn next_entry<K: Deserialize<'de>, V: Deserialize<'de>>(
            &mut self,
        ) -> Result<Option<(K, V)>, Self::Error>;

        /// How many entries remain (already checked against the input).
        fn size_hint(&self) -> usize;
    }

    /// Field-by-field access to a record.
    pub trait RecordAccess<'de> {
        /// Error type.
        type Error: From<Error>;

        /// The index of the next field's name in the `fields` the record was
        /// pulled with — `fields.len()` for a name not among them — or
        /// `None` past the last field. The field's value must be read with
        /// [`field_value`](Self::field_value) or
        /// [`skip_value`](Self::skip_value) before the next call.
        fn next_field(&mut self) -> Result<Option<usize>, Self::Error>;

        /// The value of the field just named.
        fn field_value<T: Deserialize<'de>>(&mut self) -> Result<T, Self::Error>;

        /// Consume the value of the field just named, unread.
        fn skip_value(&mut self) -> Result<(), Self::Error>;
    }

    /// What a sequence pull builds.
    pub trait SeqVisitor<'de> {
        /// The value built.
        type Value;
        /// Build it from the sequence's elements.
        fn visit_seq<A: SeqAccess<'de>>(self, seq: &mut A) -> Result<Self::Value, A::Error>;
    }

    /// What a map pull builds.
    pub trait MapVisitor<'de> {
        /// The value built.
        type Value;
        /// Build it from the map's entries.
        fn visit_map<A: MapAccess<'de>>(self, map: &mut A) -> Result<Self::Value, A::Error>;
    }

    /// What a record pull builds.
    pub trait RecordVisitor<'de> {
        /// The value built.
        type Value;
        /// Build it from the record's fields.
        fn visit_record<A: RecordAccess<'de>>(
            self,
            record: &mut A,
        ) -> Result<Self::Value, A::Error>;
    }

    /// What an enum pull builds.
    pub trait EnumVisitor<'de> {
        /// The value built.
        type Value;
        /// Build it from the variant's index among the pulled variant names
        /// and a deserializer of its payload.
        fn visit_variant<D: Deserializer<'de>>(
            self,
            index: usize,
            payload: D,
        ) -> Result<Self::Value, D::Error>;
    }

    /// Deserializers of single primitive values, for formats that hold a
    /// value in a shape of their own (a byte of a blob, a record's field
    /// name as a map key, a variant without payload).
    pub mod value {
        use std::marker::PhantomData;

        use super::SeqAccess;
        use crate::{Deserialize, Deserializer, Error, Value};

        /// One byte, seen as an unsigned integer.
        pub struct U8Deserializer<E> {
            value: u8,
            error: PhantomData<E>,
        }

        impl<E> U8Deserializer<E> {
            /// Wrap a byte.
            pub fn new(value: u8) -> Self {
                U8Deserializer {
                    value,
                    error: PhantomData,
                }
            }
        }

        impl<'de, E: From<Error>> Deserializer<'de> for U8Deserializer<E> {
            type Error = E;

            fn take_value(self) -> Result<Value, E> {
                Ok(Value::U64(u64::from(self.value)))
            }

            fn deserialize_u64(self) -> Result<u64, E> {
                Ok(u64::from(self.value))
            }

            fn deserialize_i64(self) -> Result<i64, E> {
                Ok(i64::from(self.value))
            }
        }

        /// A borrowed string.
        pub struct StrDeserializer<'a, E> {
            value: &'a str,
            error: PhantomData<E>,
        }

        impl<'a, E> StrDeserializer<'a, E> {
            /// Wrap a string.
            pub fn new(value: &'a str) -> Self {
                StrDeserializer {
                    value,
                    error: PhantomData,
                }
            }
        }

        impl<'de, E: From<Error>> Deserializer<'de> for StrDeserializer<'_, E> {
            type Error = E;

            fn take_value(self) -> Result<Value, E> {
                Ok(Value::Str(self.value.to_owned()))
            }

            fn deserialize_string(self) -> Result<String, E> {
                Ok(self.value.to_owned())
            }
        }

        /// The unit value.
        pub struct UnitDeserializer<E> {
            error: PhantomData<E>,
        }

        impl<E> UnitDeserializer<E> {
            /// The unit value.
            pub fn new() -> Self {
                UnitDeserializer { error: PhantomData }
            }
        }

        impl<E> Default for UnitDeserializer<E> {
            fn default() -> Self {
                Self::new()
            }
        }

        impl<'de, E: From<Error>> Deserializer<'de> for UnitDeserializer<E> {
            type Error = E;

            fn take_value(self) -> Result<Value, E> {
                Ok(Value::Unit)
            }

            fn deserialize_ignored(self) -> Result<(), E> {
                Ok(())
            }
        }

        /// The bytes of a blob as a sequence of unsigned integers.
        pub struct ByteSeqAccess<'a, E> {
            bytes: std::slice::Iter<'a, u8>,
            error: PhantomData<E>,
        }

        impl<'a, E> ByteSeqAccess<'a, E> {
            /// Walk `bytes`.
            pub fn new(bytes: &'a [u8]) -> Self {
                ByteSeqAccess {
                    bytes: bytes.iter(),
                    error: PhantomData,
                }
            }
        }

        impl<'de, E: From<Error>> SeqAccess<'de> for ByteSeqAccess<'_, E> {
            type Error = E;

            fn next_element<T: Deserialize<'de>>(&mut self) -> Result<Option<T>, E> {
                self.bytes
                    .next()
                    .map(|b| T::deserialize(U8Deserializer::new(*b)))
                    .transpose()
            }

            fn size_hint(&self) -> usize {
                self.bytes.len()
            }
        }
    }
}

use de::{EnumVisitor, MapAccess, MapVisitor, RecordAccess, RecordVisitor, SeqAccess, SeqVisitor};
use ser::{SerializeMap, SerializeRecord, SerializeSeq};

// ---------------------------------------------------------------------------
// The Value model: ValueSerializer / ValueDeserializer.
// ---------------------------------------------------------------------------

/// The serializer that builds a [`Value`] tree.
#[derive(Debug, Default)]
pub struct ValueSerializer {
    /// Names of the variants whose payload this serializer writes,
    /// outermost first.
    variants: Vec<String>,
}

impl ValueSerializer {
    /// A serializer of one value.
    pub fn new() -> Self {
        Self::default()
    }

    fn finish(self, value: Value) -> Value {
        self.variants
            .into_iter()
            .rev()
            .fold(value, |payload, name| {
                Value::Variant(name, Box::new(payload))
            })
    }
}

impl Serializer for ValueSerializer {
    type Ok = Value;
    type Error = Error;
    type SerializeSeq = ValueSeq;
    type SerializeMap = ValueMap;
    type SerializeRecord = ValueRecord;

    fn serialize_unit(self) -> Result<Value, Error> {
        Ok(self.finish(Value::Unit))
    }

    fn serialize_bool(self, v: bool) -> Result<Value, Error> {
        Ok(self.finish(Value::Bool(v)))
    }

    fn serialize_u64(self, v: u64) -> Result<Value, Error> {
        Ok(self.finish(Value::U64(v)))
    }

    fn serialize_i64(self, v: i64) -> Result<Value, Error> {
        Ok(self.finish(Value::I64(v)))
    }

    fn serialize_f64(self, v: f64) -> Result<Value, Error> {
        Ok(self.finish(Value::F64(v)))
    }

    fn serialize_str(self, v: &str) -> Result<Value, Error> {
        Ok(self.finish(Value::Str(v.to_owned())))
    }

    fn serialize_bytes(self, v: &[u8]) -> Result<Value, Error> {
        Ok(self.finish(Value::Bytes(v.to_vec())))
    }

    fn serialize_none(self) -> Result<Value, Error> {
        Ok(self.finish(Value::Option(None)))
    }

    fn serialize_some<T: Serialize + ?Sized>(self, value: &T) -> Result<Value, Error> {
        let inner = to_value(value)?;
        Ok(self.finish(Value::Option(Some(Box::new(inner)))))
    }

    fn serialize_seq(self, len: usize) -> Result<ValueSeq, Error> {
        Ok(ValueSeq {
            items: Vec::with_capacity(len),
            outer: self,
        })
    }

    fn serialize_map(self, len: usize) -> Result<ValueMap, Error> {
        Ok(ValueMap {
            entries: Vec::with_capacity(len),
            outer: self,
        })
    }

    fn serialize_record(self, len: usize) -> Result<ValueRecord, Error> {
        Ok(ValueRecord {
            fields: Vec::with_capacity(len),
            outer: self,
        })
    }

    fn serialize_variant(mut self, variant: &str) -> Result<Self, Error> {
        self.variants.push(variant.to_owned());
        Ok(self)
    }
}

/// A [`Value::Seq`] being built.
#[derive(Debug)]
pub struct ValueSeq {
    items: Vec<Value>,
    outer: ValueSerializer,
}

impl SerializeSeq for ValueSeq {
    type Ok = Value;
    type Error = Error;

    fn serialize_element<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<(), Error> {
        self.items.push(to_value(value)?);
        Ok(())
    }

    fn end(self) -> Result<Value, Error> {
        Ok(self.outer.finish(Value::Seq(self.items)))
    }
}

/// A [`Value::Map`] being built.
#[derive(Debug)]
pub struct ValueMap {
    entries: Vec<(Value, Value)>,
    outer: ValueSerializer,
}

impl SerializeMap for ValueMap {
    type Ok = Value;
    type Error = Error;

    fn serialize_entry<K: Serialize + ?Sized, V: Serialize + ?Sized>(
        &mut self,
        key: &K,
        value: &V,
    ) -> Result<(), Error> {
        self.entries.push((to_value(key)?, to_value(value)?));
        Ok(())
    }

    fn end(self) -> Result<Value, Error> {
        Ok(self.outer.finish(Value::Map(self.entries)))
    }
}

/// A [`Value::Record`] being built.
#[derive(Debug)]
pub struct ValueRecord {
    fields: Vec<(String, Value)>,
    outer: ValueSerializer,
}

impl SerializeRecord for ValueRecord {
    type Ok = Value;
    type Error = Error;

    fn serialize_field<T: Serialize + ?Sized>(
        &mut self,
        name: &str,
        value: &T,
    ) -> Result<(), Error> {
        self.fields.push((name.to_owned(), to_value(value)?));
        Ok(())
    }

    fn end(self) -> Result<Value, Error> {
        Ok(self.outer.finish(Value::Record(self.fields)))
    }
}

/// The deserializer that answers every pull from a stored [`Value`].
#[derive(Debug)]
pub struct ValueDeserializer {
    value: Value,
}

impl ValueDeserializer {
    /// Wrap a value.
    pub fn new(value: Value) -> Self {
        ValueDeserializer { value }
    }
}

impl<'de> Deserializer<'de> for ValueDeserializer {
    type Error = Error;

    fn take_value(self) -> Result<Value, Error> {
        Ok(self.value)
    }

    fn deserialize_ignored(self) -> Result<(), Error> {
        Ok(())
    }

    fn deserialize_bool(self) -> Result<bool, Error> {
        match self.value {
            Value::Bool(v) => Ok(v),
            other => Err(Error::unexpected("bool", &other)),
        }
    }

    fn deserialize_u64(self) -> Result<u64, Error> {
        match self.value {
            Value::U64(v) => Ok(v),
            Value::I64(v) => u64::try_from(v).map_err(|_| Error::out_of_range()),
            other => Err(Error::unexpected("integer", &other)),
        }
    }

    fn deserialize_i64(self) -> Result<i64, Error> {
        match self.value {
            Value::I64(v) => Ok(v),
            Value::U64(v) => i64::try_from(v).map_err(|_| Error::out_of_range()),
            other => Err(Error::unexpected("integer", &other)),
        }
    }

    fn deserialize_f64(self) -> Result<f64, Error> {
        match self.value {
            Value::F64(v) => Ok(v),
            Value::U64(v) => Ok(v as f64),
            Value::I64(v) => Ok(v as f64),
            other => Err(Error::unexpected("float", &other)),
        }
    }

    fn deserialize_string(self) -> Result<String, Error> {
        match self.value {
            Value::Str(v) => Ok(v),
            other => Err(Error::unexpected("string", &other)),
        }
    }

    fn deserialize_byte_buf(self) -> Result<Vec<u8>, Error> {
        match self.value {
            Value::Bytes(v) => Ok(v),
            other => Vec::<u8>::deserialize(ValueDeserializer::new(other)),
        }
    }

    fn deserialize_unit(self) -> Result<(), Error> {
        match self.value {
            Value::Unit => Ok(()),
            other => Err(Error::unexpected("unit", &other)),
        }
    }

    fn deserialize_option<T: Deserialize<'de>>(self) -> Result<Option<T>, Error> {
        match self.value {
            Value::Option(None) | Value::Unit => Ok(None),
            Value::Option(Some(v)) => Ok(Some(from_value(*v)?)),
            // JSON input has no dedicated option shape: a bare value is Some.
            other => Ok(Some(from_value(other)?)),
        }
    }

    fn deserialize_seq<V: SeqVisitor<'de>>(self, visitor: V) -> Result<V::Value, Error> {
        match self.value {
            Value::Seq(items) => visitor.visit_seq(&mut ValueSeqAccess {
                items: items.into_iter(),
            }),
            // A byte blob deserialises as a sequence of integers (Vec<u8>).
            Value::Bytes(bytes) => visitor.visit_seq(&mut de::value::ByteSeqAccess::new(&bytes)),
            other => Err(Error::unexpected("sequence", &other)),
        }
    }

    fn deserialize_tuple<V: SeqVisitor<'de>>(self, visitor: V) -> Result<V::Value, Error> {
        match self.value {
            Value::Seq(items) => visitor.visit_seq(&mut ValueSeqAccess {
                items: items.into_iter(),
            }),
            other => Err(Error::unexpected("sequence", &other)),
        }
    }

    fn deserialize_map<V: MapVisitor<'de>>(self, visitor: V) -> Result<V::Value, Error> {
        let entries = match self.value {
            Value::Map(entries) => entries,
            Value::Record(fields) => fields
                .into_iter()
                .map(|(k, v)| (Value::Str(k), v))
                .collect(),
            other => return Err(Error::unexpected("map", &other)),
        };
        visitor.visit_map(&mut ValueMapAccess {
            entries: entries.into_iter(),
        })
    }

    fn deserialize_record<V: RecordVisitor<'de>>(
        self,
        names: &'static [&'static str],
        visitor: V,
    ) -> Result<V::Value, Error> {
        let fields = match self.value {
            Value::Record(fields) => fields,
            Value::Map(entries) => entries
                .into_iter()
                .map(|(k, v)| match k {
                    Value::Str(name) => Ok((name, v)),
                    other => Err(Error::unexpected("string key", &other)),
                })
                .collect::<Result<_, _>>()?,
            other => return Err(Error::unexpected("record", &other)),
        };
        visitor.visit_record(&mut ValueRecordAccess {
            names,
            fields: fields.into_iter(),
            value: None,
        })
    }

    fn deserialize_enum<V: EnumVisitor<'de>>(
        self,
        name: &'static str,
        variants: &'static [&'static str],
        visitor: V,
    ) -> Result<V::Value, Error> {
        let (variant, payload) = enum_parts(self.value)?;
        let index = variants
            .iter()
            .position(|v| *v == variant)
            .ok_or_else(|| Error::unknown_variant(&variant, name))?;
        visitor.visit_variant(index, ValueDeserializer::new(payload))
    }
}

/// Split an enum into `(variant name, payload)` from any of the shapes the
/// formats produce: a native [`Value::Variant`], a bare string (JSON unit
/// variant) or a single-entry record or map (JSON data variant).
fn enum_parts(value: Value) -> Result<(String, Value), Error> {
    match value {
        Value::Variant(name, payload) => Ok((name, *payload)),
        Value::Str(name) => Ok((name, Value::Unit)),
        Value::Record(mut fields) if fields.len() == 1 => Ok(fields.remove(0)),
        Value::Map(mut entries) if entries.len() == 1 => match entries.remove(0) {
            (Value::Str(name), payload) => Ok((name, payload)),
            (other, _) => Err(Error::unexpected("variant name", &other)),
        },
        other => Err(Error::unexpected("enum variant", &other)),
    }
}

struct ValueSeqAccess {
    items: std::vec::IntoIter<Value>,
}

impl<'de> SeqAccess<'de> for ValueSeqAccess {
    type Error = Error;

    fn next_element<T: Deserialize<'de>>(&mut self) -> Result<Option<T>, Error> {
        self.items.next().map(from_value).transpose()
    }

    fn size_hint(&self) -> usize {
        self.items.len()
    }
}

struct ValueMapAccess {
    entries: std::vec::IntoIter<(Value, Value)>,
}

impl<'de> MapAccess<'de> for ValueMapAccess {
    type Error = Error;

    fn next_entry<K: Deserialize<'de>, V: Deserialize<'de>>(
        &mut self,
    ) -> Result<Option<(K, V)>, Error> {
        match self.entries.next() {
            Some((k, v)) => Ok(Some((from_value(k)?, from_value(v)?))),
            None => Ok(None),
        }
    }

    fn size_hint(&self) -> usize {
        self.entries.len()
    }
}

struct ValueRecordAccess {
    names: &'static [&'static str],
    fields: std::vec::IntoIter<(String, Value)>,
    /// The value of the field last named.
    value: Option<Value>,
}

impl ValueRecordAccess {
    fn take(&mut self) -> Result<Value, Error> {
        self.value
            .take()
            .ok_or_else(|| Error::custom("record field value read twice"))
    }
}

impl<'de> RecordAccess<'de> for ValueRecordAccess {
    type Error = Error;

    fn next_field(&mut self) -> Result<Option<usize>, Error> {
        Ok(self.fields.next().map(|(name, value)| {
            self.value = Some(value);
            field_index(self.names, name.as_bytes())
        }))
    }

    fn field_value<T: Deserialize<'de>>(&mut self) -> Result<T, Error> {
        from_value(self.take()?)
    }

    fn skip_value(&mut self) -> Result<(), Error> {
        self.take().map(drop)
    }
}

/// The index of `name` among `names`, or `names.len()` when it is not one of
/// them.
#[inline]
pub fn field_index(names: &[&str], name: &[u8]) -> usize {
    names
        .iter()
        .position(|n| n.as_bytes() == name)
        .unwrap_or(names.len())
}

/// Lower any serialisable value into the [`Value`] model.
pub fn to_value<T: Serialize + ?Sized>(value: &T) -> Result<Value, Error> {
    value.serialize(ValueSerializer::new())
}

/// Rebuild a value from the [`Value`] model.
pub fn from_value<'de, T: Deserialize<'de>>(value: Value) -> Result<T, Error> {
    T::deserialize(ValueDeserializer::new(value))
}

// ---------------------------------------------------------------------------
// Serialize / Deserialize implementations for std types.
// ---------------------------------------------------------------------------

macro_rules! impl_serde_uint {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
                s.serialize_u64(*self as u64)
            }
        }
        impl<'de> Deserialize<'de> for $t {
            fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
                <$t>::try_from(d.deserialize_u64()?).map_err(|_| Error::out_of_range().into())
            }
        }
    )*};
}
impl_serde_uint!(u8, u16, u32, u64, usize);

macro_rules! impl_serde_int {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
                s.serialize_i64(*self as i64)
            }
        }
        impl<'de> Deserialize<'de> for $t {
            fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
                <$t>::try_from(d.deserialize_i64()?).map_err(|_| Error::out_of_range().into())
            }
        }
    )*};
}
impl_serde_int!(i8, i16, i32, i64, isize);

macro_rules! impl_serde_float {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
                s.serialize_f64(*self as f64)
            }
        }
        impl<'de> Deserialize<'de> for $t {
            fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
                Ok(d.deserialize_f64()? as $t)
            }
        }
    )*};
}
impl_serde_float!(f32, f64);

impl Serialize for bool {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        s.serialize_bool(*self)
    }
}

impl<'de> Deserialize<'de> for bool {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        d.deserialize_bool()
    }
}

impl Serialize for char {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        s.serialize_str(self.encode_utf8(&mut [0; 4]))
    }
}

impl<'de> Deserialize<'de> for char {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        let s = d.deserialize_string()?;
        let mut chars = s.chars();
        match (chars.next(), chars.next()) {
            (Some(c), None) => Ok(c),
            _ => Err(Error::invalid_type("char", "string").into()),
        }
    }
}

impl Serialize for str {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        s.serialize_str(self)
    }
}

impl Serialize for String {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        s.serialize_str(self)
    }
}

impl<'de> Deserialize<'de> for String {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        d.deserialize_string()
    }
}

/// Lent out of the input; a format that cannot lend rejects it.
impl<'de> Deserialize<'de> for &'de str {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        match d.deserialize_borrowed_str()? {
            Cow::Borrowed(s) => Ok(s),
            Cow::Owned(_) => Err(Error::custom("this format cannot lend a string").into()),
        }
    }
}

impl Serialize for () {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        s.serialize_unit()
    }
}

impl<'de> Deserialize<'de> for () {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        d.deserialize_unit()
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        (**self).serialize(s)
    }
}

impl<T: Serialize> Serialize for Box<T> {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        (**self).serialize(s)
    }
}

impl<'de, T: Deserialize<'de>> Deserialize<'de> for Box<T> {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        Ok(Box::new(T::deserialize(d)?))
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        match self {
            None => s.serialize_none(),
            Some(v) => s.serialize_some(v),
        }
    }
}

impl<'de, T: Deserialize<'de>> Deserialize<'de> for Option<T> {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        d.deserialize_option()
    }
}

/// Write `items` as a sequence of `len` elements.
fn serialize_items<S, I>(s: S, len: usize, items: I) -> Result<S::Ok, S::Error>
where
    S: Serializer,
    I: IntoIterator,
    I::Item: Serialize,
{
    let mut seq = s.serialize_seq(len)?;
    for item in items {
        seq.serialize_element(&item)?;
    }
    seq.end()
}

/// Write `entries` as a map of `len` entries.
fn serialize_entries<'a, S, K, V, I>(s: S, len: usize, entries: I) -> Result<S::Ok, S::Error>
where
    S: Serializer,
    K: Serialize + 'a,
    V: Serialize + 'a,
    I: IntoIterator<Item = (&'a K, &'a V)>,
{
    let mut map = s.serialize_map(len)?;
    for (k, v) in entries {
        map.serialize_entry(k, v)?;
    }
    map.end()
}

/// Upper bound on the bytes a collection reserves before it has seen its
/// elements: a length prefix is checked against the remaining input, but an
/// element may take more memory than input, so growth beyond this follows
/// the elements actually decoded.
const PREALLOC_BYTES: usize = 4096;

fn cautious<T>(hint: usize) -> usize {
    hint.min(PREALLOC_BYTES / std::mem::size_of::<T>().max(1))
}

/// Builds a collection from a sequence of its elements, gathered first so
/// that the collection is built in one go (a B-tree in bulk, a hash table
/// at its final size).
struct SeqInto<C, T>(PhantomData<(C, T)>);

impl<C, T> SeqInto<C, T> {
    fn new() -> Self {
        SeqInto(PhantomData)
    }
}

impl<'de, C: FromIterator<T>, T: Deserialize<'de>> SeqVisitor<'de> for SeqInto<C, T> {
    type Value = C;

    fn visit_seq<A: SeqAccess<'de>>(self, seq: &mut A) -> Result<C, A::Error> {
        let mut items = Vec::with_capacity(cautious::<T>(seq.size_hint()));
        while let Some(item) = seq.next_element()? {
            items.push(item);
        }
        Ok(items.into_iter().collect())
    }
}

/// Builds a map from its entries, gathered first like [`SeqInto`]'s.
struct MapInto<C, K, V>(PhantomData<(C, K, V)>);

impl<'de, C, K, V> MapVisitor<'de> for MapInto<C, K, V>
where
    C: FromIterator<(K, V)>,
    K: Deserialize<'de>,
    V: Deserialize<'de>,
{
    type Value = C;

    fn visit_map<A: MapAccess<'de>>(self, map: &mut A) -> Result<C, A::Error> {
        let mut entries = Vec::with_capacity(cautious::<(K, V)>(map.size_hint()));
        while let Some(entry) = map.next_entry()? {
            entries.push(entry);
        }
        Ok(entries.into_iter().collect())
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        self.as_slice().serialize(s)
    }
}

impl<T: Serialize> Serialize for [T] {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        serialize_items(s, self.len(), self)
    }
}

impl<'de, T: Deserialize<'de>> Deserialize<'de> for Vec<T> {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        d.deserialize_seq(SeqInto::new())
    }
}

impl<T: Serialize> Serialize for VecDeque<T> {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        serialize_items(s, self.len(), self)
    }
}

impl<'de, T: Deserialize<'de>> Deserialize<'de> for VecDeque<T> {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        d.deserialize_seq(SeqInto::new())
    }
}

impl<T: Serialize> Serialize for BTreeSet<T> {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        serialize_items(s, self.len(), self)
    }
}

impl<'de, T: Deserialize<'de> + Ord> Deserialize<'de> for BTreeSet<T> {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        d.deserialize_seq(SeqInto::new())
    }
}

impl<T: Serialize, H> Serialize for HashSet<T, H> {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        serialize_items(s, self.len(), self)
    }
}

impl<'de, T, H> Deserialize<'de> for HashSet<T, H>
where
    T: Deserialize<'de> + Eq + std::hash::Hash,
    H: std::hash::BuildHasher + Default,
{
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        d.deserialize_seq(SeqInto::new())
    }
}

impl<A: Serialize, B: Serialize> Serialize for (A, B) {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        let mut seq = s.serialize_seq(2)?;
        seq.serialize_element(&self.0)?;
        seq.serialize_element(&self.1)?;
        seq.end()
    }
}

/// Builds a tuple from the leading elements of a sequence.
struct TupleVisitor<T>(PhantomData<T>);

impl<'de, A: Deserialize<'de>, B: Deserialize<'de>> SeqVisitor<'de> for TupleVisitor<(A, B)> {
    type Value = (A, B);

    fn visit_seq<S: SeqAccess<'de>>(self, seq: &mut S) -> Result<(A, B), S::Error> {
        Ok((seq.element()?, seq.element()?))
    }
}

impl<'de, A: Deserialize<'de>, B: Deserialize<'de>> Deserialize<'de> for (A, B) {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        d.deserialize_tuple(TupleVisitor::<(A, B)>(PhantomData))
    }
}

impl<A: Serialize, B: Serialize, C: Serialize> Serialize for (A, B, C) {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        let mut seq = s.serialize_seq(3)?;
        seq.serialize_element(&self.0)?;
        seq.serialize_element(&self.1)?;
        seq.serialize_element(&self.2)?;
        seq.end()
    }
}

impl<'de, A: Deserialize<'de>, B: Deserialize<'de>, C: Deserialize<'de>> SeqVisitor<'de>
    for TupleVisitor<(A, B, C)>
{
    type Value = (A, B, C);

    fn visit_seq<S: SeqAccess<'de>>(self, seq: &mut S) -> Result<(A, B, C), S::Error> {
        Ok((seq.element()?, seq.element()?, seq.element()?))
    }
}

impl<'de, A: Deserialize<'de>, B: Deserialize<'de>, C: Deserialize<'de>> Deserialize<'de>
    for (A, B, C)
{
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        d.deserialize_tuple(TupleVisitor::<(A, B, C)>(PhantomData))
    }
}

impl<K: Serialize, V: Serialize> Serialize for BTreeMap<K, V> {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        serialize_entries(s, self.len(), self)
    }
}

impl<'de, K: Deserialize<'de> + Ord, V: Deserialize<'de>> Deserialize<'de> for BTreeMap<K, V> {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        d.deserialize_map(MapInto(PhantomData))
    }
}

impl<K: Serialize, V: Serialize, H> Serialize for HashMap<K, V, H> {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        serialize_entries(s, self.len(), self)
    }
}

impl<'de, K, V, H> Deserialize<'de> for HashMap<K, V, H>
where
    K: Deserialize<'de> + Eq + std::hash::Hash,
    V: Deserialize<'de>,
    H: std::hash::BuildHasher + Default,
{
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        d.deserialize_map(MapInto(PhantomData))
    }
}

impl Serialize for std::path::PathBuf {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        s.serialize_str(&self.to_string_lossy())
    }
}

impl<'de> Deserialize<'de> for std::path::PathBuf {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        Ok(std::path::PathBuf::from(String::deserialize(d)?))
    }
}

impl Serialize for std::time::Duration {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        (self.as_secs(), u64::from(self.subsec_nanos())).serialize(s)
    }
}

impl<'de> Deserialize<'de> for std::time::Duration {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        let (secs, nanos): (u64, u32) = Deserialize::deserialize(d)?;
        Ok(std::time::Duration::new(secs, nanos))
    }
}

impl Serialize for Value {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        match self {
            Value::Unit => s.serialize_unit(),
            Value::Bool(v) => s.serialize_bool(*v),
            Value::U64(v) => s.serialize_u64(*v),
            Value::I64(v) => s.serialize_i64(*v),
            Value::F64(v) => s.serialize_f64(*v),
            Value::Str(v) => s.serialize_str(v),
            Value::Bytes(v) => s.serialize_bytes(v),
            Value::Option(None) => s.serialize_none(),
            Value::Option(Some(v)) => s.serialize_some(v.as_ref()),
            Value::Seq(items) => serialize_items(s, items.len(), items),
            Value::Map(entries) => {
                serialize_entries(s, entries.len(), entries.iter().map(|(k, v)| (k, v)))
            }
            Value::Record(fields) => {
                let mut record = s.serialize_record(fields.len())?;
                for (name, v) in fields {
                    record.serialize_field(name, v)?;
                }
                record.end()
            }
            Value::Variant(name, payload) => payload.serialize(s.serialize_variant(name)?),
        }
    }
}

impl<'de> Deserialize<'de> for Value {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        d.take_value()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, PartialEq, Serialize, Deserialize)]
    struct Reading {
        id: u32,
        #[serde(default)]
        tags: Vec<String>,
        level: Option<i16>,
    }

    #[derive(Debug, PartialEq, Serialize, Deserialize)]
    enum Shape {
        Empty,
        Pair(u8, String),
        Named { x: f64 },
    }

    #[test]
    fn value_trees_keep_their_shape() {
        let r = Reading {
            id: 7,
            tags: vec!["a".into()],
            level: Some(-3),
        };
        assert_eq!(
            to_value(&r).unwrap(),
            Value::Record(vec![
                ("id".into(), Value::U64(7)),
                ("tags".into(), Value::Seq(vec![Value::Str("a".into())])),
                (
                    "level".into(),
                    Value::Option(Some(Box::new(Value::I64(-3))))
                ),
            ])
        );
        assert_eq!(
            to_value(&Shape::Pair(1, "b".into())).unwrap(),
            Value::Variant(
                "Pair".into(),
                Box::new(Value::Seq(vec![Value::U64(1), Value::Str("b".into())]))
            )
        );
        assert_eq!(
            to_value(&Shape::Empty).unwrap(),
            Value::Variant("Empty".into(), Box::new(Value::Unit))
        );
        for shape in [
            Shape::Empty,
            Shape::Pair(2, "c".into()),
            Shape::Named { x: 0.5 },
        ] {
            assert_eq!(
                from_value::<Shape>(to_value(&shape).unwrap()).unwrap(),
                shape
            );
        }
    }

    #[test]
    fn records_skip_unknown_fields_and_default_missing_ones() {
        let value = Value::Map(vec![
            (Value::Str("level".into()), Value::Unit),
            (Value::Str("extra".into()), Value::Bool(true)),
            (Value::Str("id".into()), Value::I64(9)),
            (
                Value::Str("id".into()),
                Value::Str("ignored duplicate".into()),
            ),
        ]);
        assert_eq!(
            from_value::<Reading>(value).unwrap(),
            Reading {
                id: 9,
                tags: Vec::new(),
                level: None
            }
        );
        let missing = Value::Record(vec![("tags".into(), Value::Seq(Vec::new()))]);
        assert_eq!(
            from_value::<Reading>(missing).unwrap_err(),
            Error::missing_field("id")
        );
    }

    #[test]
    fn enums_accept_the_json_shapes_and_reject_unknown_variants() {
        assert_eq!(
            from_value::<Shape>(Value::Str("Empty".into())).unwrap(),
            Shape::Empty
        );
        let named = Value::Record(vec![(
            "Named".into(),
            Value::Record(vec![("x".into(), Value::U64(2))]),
        )]);
        assert_eq!(from_value::<Shape>(named).unwrap(), Shape::Named { x: 2.0 });
        assert_eq!(
            from_value::<Shape>(Value::Str("Round".into())).unwrap_err(),
            Error::unknown_variant("Round", "Shape")
        );
    }

    #[test]
    fn integers_convert_only_in_range() {
        assert_eq!(from_value::<u8>(Value::I64(200)).unwrap(), 200);
        assert_eq!(
            from_value::<u8>(Value::U64(300)).unwrap_err(),
            Error::out_of_range()
        );
        assert_eq!(
            from_value::<i8>(Value::U64(u64::MAX)).unwrap_err(),
            Error::out_of_range()
        );
        assert_eq!(
            from_value::<u32>(Value::Str("1".into())).unwrap_err(),
            Error::invalid_type("integer", "string")
        );
        assert_eq!(from_value::<f32>(Value::I64(-2)).unwrap(), -2.0);
    }

    #[test]
    fn byte_blobs_and_integer_sequences_are_interchangeable() {
        let blob = Value::Bytes(vec![1, 2, 255]);
        assert_eq!(
            from_value::<Vec<u8>>(blob.clone()).unwrap(),
            vec![1, 2, 255]
        );
        assert_eq!(from_value::<Vec<u16>>(blob).unwrap(), vec![1, 2, 255]);
        let ints = Value::Seq(vec![Value::U64(4), Value::U64(5)]);
        let de = ValueDeserializer::new(ints);
        assert_eq!(Deserializer::deserialize_byte_buf(de).unwrap(), vec![4, 5]);
    }

    #[test]
    fn value_serialises_to_itself() {
        let tree = Value::Variant(
            "V".into(),
            Box::new(Value::Map(vec![(
                Value::U64(1),
                Value::Option(Some(Box::new(Value::Bytes(vec![0])))),
            )])),
        );
        assert_eq!(to_value(&tree).unwrap(), tree);
    }
}
