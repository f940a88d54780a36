//! Offline stand-in for `bytes`: a cheaply-cloneable, immutable byte buffer
//! with serde support via the local shim.

use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

/// A cheaply-cloneable immutable byte buffer.
#[derive(Clone, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Bytes {
    inner: Arc<Vec<u8>>,
}

impl Bytes {
    /// An empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Copy a slice into a new buffer.
    pub fn copy_from_slice(data: &[u8]) -> Self {
        Bytes {
            inner: Arc::new(data.to_vec()),
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
        self.inner.as_ref().clone()
    }
}

impl Deref for Bytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        self.inner.as_slice()
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self.inner.as_slice()
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

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        Bytes { inner: Arc::new(v) }
    }
}

impl From<&[u8]> for Bytes {
    fn from(v: &[u8]) -> Self {
        Self::copy_from_slice(v)
    }
}

impl From<String> for Bytes {
    fn from(v: String) -> Self {
        Bytes {
            inner: Arc::new(v.into_bytes()),
        }
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
            inner: Arc::new(iter.into_iter().collect()),
        }
    }
}

impl serde_shim::Serialize for Bytes {
    fn serialize<S: serde_shim::Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        s.serialize_bytes(self)
    }
}

/// A blob decodes whole, with one copy out of the input.
impl<'de> serde_shim::Deserialize<'de> for Bytes {
    fn deserialize<D: serde_shim::Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        d.deserialize_byte_buf().map(Bytes::from)
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
    }

    #[test]
    fn conversions() {
        assert_eq!(Bytes::from("abc").to_vec(), b"abc".to_vec());
        assert_eq!(Bytes::from_static(b"xy").len(), 2);
        let v: Vec<u8> = Bytes::from(vec![9]).into();
        assert_eq!(v, vec![9]);
    }
}
