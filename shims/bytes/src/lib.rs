//! Offline stand-in for `bytes`: a cheaply-cloneable, immutable byte buffer
//! with serde support via the local shim.
//!
//! A [`Bytes`] is one heap block: the reference counts and the bytes live in
//! a single `Arc<[u8]>` allocation. [`BytesMut::zeroed`] allocates such a
//! block at its final size and [`BytesMut::freeze`] hands it over without a
//! copy, so a buffer whose length is known up front costs one allocation.

#![forbid(unsafe_code)]

use std::borrow::Cow;
use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::Arc;

/// A cheaply-cloneable immutable byte buffer.
#[derive(Clone, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Bytes {
    inner: Arc<[u8]>,
}

impl Bytes {
    /// An empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Copy a slice into a new buffer (one allocation).
    pub fn copy_from_slice(data: &[u8]) -> Self {
        Bytes {
            inner: Arc::from(data),
        }
    }

    /// Wrap a static slice (copies in this shim).
    pub fn from_static(data: &'static [u8]) -> Self {
        Self::copy_from_slice(data)
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.inner.is_empty()
    }

    /// Copy out into a `Vec<u8>`.
    pub fn to_vec(&self) -> Vec<u8> {
        self.inner.to_vec()
    }
}

impl Deref for Bytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.inner
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        &self.inner
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b\"")?;
        for &b in self.inner.iter().take(32) {
            if (0x20..0x7f).contains(&b) {
                write!(f, "{}", b as char)?;
            } else {
                write!(f, "\\x{b:02x}")?;
            }
        }
        if self.len() > 32 {
            write!(f, "…({} bytes)", self.len())?;
        }
        write!(f, "\"")
    }
}

/// Copies: the vector's block has no room for the reference counts. A
/// producer that knows its length up front builds a [`BytesMut`] instead.
impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        Bytes {
            inner: Arc::from(v),
        }
    }
}

impl From<&[u8]> for Bytes {
    fn from(v: &[u8]) -> Self {
        Self::copy_from_slice(v)
    }
}

impl From<String> for Bytes {
    fn from(v: String) -> Self {
        Self::from(v.into_bytes())
    }
}

impl From<&str> for Bytes {
    fn from(v: &str) -> Self {
        Self::copy_from_slice(v.as_bytes())
    }
}

impl From<Bytes> for Vec<u8> {
    fn from(b: Bytes) -> Self {
        b.to_vec()
    }
}

impl FromIterator<u8> for Bytes {
    fn from_iter<I: IntoIterator<Item = u8>>(iter: I) -> Self {
        Bytes {
            inner: iter.into_iter().collect(),
        }
    }
}

/// A buffer of fixed length being filled, which [`freeze`](Self::freeze)s
/// into a [`Bytes`] without a copy.
#[derive(Debug, PartialEq, Eq)]
pub struct BytesMut {
    /// Never shared: `BytesMut` is not `Clone` and `freeze` consumes it.
    inner: Arc<[u8]>,
}

impl BytesMut {
    /// `len` zero bytes, in one allocation.
    pub fn zeroed(len: usize) -> Self {
        BytesMut {
            inner: std::iter::repeat_n(0u8, len).collect(),
        }
    }

    /// The filled buffer, as an immutable [`Bytes`] sharing the same block.
    pub fn freeze(self) -> Bytes {
        Bytes { inner: self.inner }
    }
}

impl Deref for BytesMut {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.inner
    }
}

impl DerefMut for BytesMut {
    fn deref_mut(&mut self) -> &mut [u8] {
        Arc::get_mut(&mut self.inner).expect("a BytesMut is never shared")
    }
}

impl serde_shim::Serialize for Bytes {
    fn serialize<S: serde_shim::Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        s.serialize_bytes(self)
    }
}

/// A blob decodes whole into one block: copied once out of an input that
/// lends it, converted from the owned buffer a format that cannot lend
/// produces.
impl<'de> serde_shim::Deserialize<'de> for Bytes {
    fn deserialize<D: serde_shim::Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        Ok(match d.deserialize_borrowed_bytes()? {
            Cow::Borrowed(blob) => Bytes::copy_from_slice(blob),
            Cow::Owned(blob) => Bytes::from(blob),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clone_is_cheap_and_equal() {
        let b = Bytes::from(vec![1, 2, 3]);
        let c = b.clone();
        assert_eq!(b, c);
        assert_eq!(&b[..], &[1, 2, 3]);
        assert_eq!(b.len(), 3);
        assert!(!b.is_empty());
        assert_eq!(b.as_ptr(), c.as_ptr(), "clones share the block");
    }

    #[test]
    fn conversions() {
        assert_eq!(Bytes::from("abc").to_vec(), b"abc".to_vec());
        assert_eq!(Bytes::from_static(b"xy").len(), 2);
        let v: Vec<u8> = Bytes::from(vec![9]).into();
        assert_eq!(v, vec![9]);
        assert!(Bytes::new().is_empty());
        assert_eq!((1..=3).collect::<Bytes>(), Bytes::from(vec![1, 2, 3]));
    }

    #[test]
    fn a_filled_buffer_freezes_in_place() {
        let mut buf = BytesMut::zeroed(3);
        assert_eq!(&buf[..], &[0, 0, 0]);
        buf.copy_from_slice(&[4, 5, 6]);
        let at = buf.as_ptr();
        let frozen = buf.freeze();
        assert_eq!(&frozen[..], &[4, 5, 6]);
        assert_eq!(frozen.as_ptr(), at, "freeze does not copy");
        assert!(BytesMut::zeroed(0).freeze().is_empty());
    }
}
