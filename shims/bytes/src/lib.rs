//! API-compatible subset of the `bytes` crate: an immutable, cheaply
//! clonable byte buffer that may be a window into a larger shared buffer.
//!
//! The build container has no network access, so the real crate cannot be
//! fetched. `Record` relies on shallow cloning (shared allocation), slice
//! access, zero-copy [`Bytes::slice`] views, and construction from owned or
//! borrowed bytes; a page's payload relies on [`Bytes::try_into_mut`]
//! handing back a buffer nobody else holds, to append to it in place and
//! [`BytesMut::freeze`] it again — all preserved here.

use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{Bound, Deref, DerefMut, RangeBounds};
use std::sync::Arc;

/// The allocation behind a [`Bytes`].
#[derive(Clone, Default)]
enum Buf {
    /// No allocation: every empty `Bytes`.
    #[default]
    Empty,
    /// An exact-size buffer: one allocation, as a copy of bytes needs.
    Fixed(Arc<[u8]>),
    /// A [`BytesMut`]'s buffer, kept in its `Vec` so that a sole holder
    /// can take it back with [`Bytes::try_into_mut`] and grow it in place.
    Growable(Arc<Vec<u8>>),
}

/// An immutable, reference-counted byte buffer: `len` bytes at `off` in a
/// shared allocation. Equality and hashing are by content, so a slice of a
/// page and a copy of the same bytes are interchangeable keys.
#[derive(Clone, Default)]
pub struct Bytes {
    buf: Buf,
    off: usize,
    len: usize,
}

impl Bytes {
    /// An empty buffer. Allocates nothing.
    pub fn new() -> Bytes {
        Bytes::default()
    }

    /// Copy `data` into a fresh shared allocation.
    pub fn copy_from_slice(data: &[u8]) -> Bytes {
        if data.is_empty() {
            return Bytes::new();
        }
        Bytes {
            buf: Buf::Fixed(data.into()),
            off: 0,
            len: data.len(),
        }
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// A view of `range` (relative to this buffer) that shares its
    /// allocation: no copy, one reference-count bump.
    ///
    /// # Panics
    ///
    /// Panics if the range is decreasing or ends past [`Bytes::len`], as
    /// the real crate does.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Bytes {
        let begin = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n.checked_add(1).expect("out of range"),
            Bound::Unbounded => 0,
        };
        let end = match range.end_bound() {
            Bound::Included(&n) => n.checked_add(1).expect("out of range"),
            Bound::Excluded(&n) => n,
            Bound::Unbounded => self.len,
        };
        assert!(
            begin <= end,
            "range start must not be greater than end: {begin:?} <= {end:?}"
        );
        assert!(
            end <= self.len,
            "range end out of bounds: {end:?} <= {:?}",
            self.len
        );
        if begin == end {
            return Bytes::new();
        }
        Bytes {
            buf: self.buf.clone(),
            off: self.off + begin,
            len: end - begin,
        }
    }

    /// The buffer as a [`BytesMut`], without copying, if this `Bytes` is
    /// its only holder; `Err(self)` otherwise. Unlike the real crate, only
    /// the whole of a buffer that [`BytesMut::freeze`] made comes back: a
    /// sole view of part of one, or a copy's buffer, is also `Err`.
    pub fn try_into_mut(self) -> Result<BytesMut, Bytes> {
        match self.buf {
            Buf::Empty => Ok(BytesMut::new()),
            Buf::Growable(mut buf) if self.off == 0 && self.len == buf.len() => {
                if Arc::get_mut(&mut buf).is_some() {
                    Ok(BytesMut { buf })
                } else {
                    Err(Bytes {
                        buf: Buf::Growable(buf),
                        ..self
                    })
                }
            }
            _ => Err(self),
        }
    }
}

/// A growable byte buffer held by one owner: written in place, then
/// [`BytesMut::freeze`]d into [`Bytes`] without copying.
#[derive(Default)]
pub struct BytesMut {
    /// Held by this value alone, so `Arc::get_mut` always succeeds; kept in
    /// its `Arc` so freezing and [`Bytes::try_into_mut`] allocate nothing.
    buf: Arc<Vec<u8>>,
}

impl BytesMut {
    /// An empty buffer.
    pub fn new() -> BytesMut {
        BytesMut::default()
    }

    fn vec(&mut self) -> &mut Vec<u8> {
        Arc::get_mut(&mut self.buf).expect("a BytesMut holds its buffer alone")
    }

    /// Append `data`.
    pub fn extend_from_slice(&mut self, data: &[u8]) {
        self.vec().extend_from_slice(data);
    }

    /// Make the buffer immutable and shareable, without copying it.
    pub fn freeze(self) -> Bytes {
        if self.buf.is_empty() {
            return Bytes::new();
        }
        Bytes {
            off: 0,
            len: self.buf.len(),
            buf: Buf::Growable(self.buf),
        }
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.buf
    }
}

impl DerefMut for BytesMut {
    fn deref_mut(&mut self) -> &mut [u8] {
        self.vec()
    }
}

impl From<&[u8]> for BytesMut {
    fn from(data: &[u8]) -> BytesMut {
        BytesMut {
            buf: Arc::new(data.to_vec()),
        }
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        let whole: &[u8] = match &self.buf {
            Buf::Empty => &[],
            Buf::Fixed(buf) => buf,
            Buf::Growable(buf) => buf,
        };
        &whole[self.off..self.off + self.len]
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Bytes) -> bool {
        **self == **other
    }
}

impl Eq for Bytes {}

impl Hash for Bytes {
    fn hash<H: Hasher>(&self, state: &mut H) {
        (**self).hash(state)
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Bytes {
        Bytes::copy_from_slice(&v)
    }
}

impl From<&[u8]> for Bytes {
    fn from(v: &[u8]) -> Bytes {
        Bytes::copy_from_slice(v)
    }
}

impl From<String> for Bytes {
    fn from(s: String) -> Bytes {
        Bytes::from(s.into_bytes())
    }
}

impl From<&str> for Bytes {
    fn from(s: &str) -> Bytes {
        Bytes::copy_from_slice(s.as_bytes())
    }
}

/// `b"…"` with escapes, cut at 64 bytes.
fn debug_bytes(bytes: &[u8], f: &mut fmt::Formatter<'_>) -> fmt::Result {
    write!(f, "b\"")?;
    for &b in bytes.iter().take(64) {
        for esc in std::ascii::escape_default(b) {
            write!(f, "{}", esc as char)?;
        }
    }
    if bytes.len() > 64 {
        write!(f, "…")?;
    }
    write!(f, "\"")
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        debug_bytes(self, f)
    }
}

impl fmt::Debug for BytesMut {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        debug_bytes(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn hash_of(b: &Bytes) -> u64 {
        let mut h = DefaultHasher::new();
        b.hash(&mut h);
        h.finish()
    }

    #[test]
    fn clone_shares_allocation() {
        let a = Bytes::from(vec![1u8, 2, 3]);
        let b = a.clone();
        assert_eq!(a.as_ptr(), b.as_ptr());
        assert_eq!(&*b, &[1, 2, 3]);
    }

    #[test]
    fn copy_from_slice_copies() {
        let src = [9u8, 8];
        let b = Bytes::copy_from_slice(&src);
        assert_eq!(&*b, &src);
        assert_eq!(b.len(), 2);
        assert!(!b.is_empty());
    }

    #[test]
    fn slice_shares_allocation() {
        let a = Bytes::from(b"hello world".to_vec());
        let s = a.slice(6..);
        assert_eq!(&*s, b"world");
        assert_eq!(s.as_ptr(), a[6..].as_ptr());
        let t = s.slice(1..=2);
        assert_eq!(&*t, b"or");
        assert_eq!(t.as_ptr(), a[7..].as_ptr());
        assert_eq!(&*a.slice(..), b"hello world");
        assert!(a.slice(3..3).is_empty());
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn slice_past_the_end_panics() {
        Bytes::from(vec![1u8, 2, 3]).slice(1..4);
    }

    #[test]
    #[should_panic(expected = "greater than end")]
    fn decreasing_slice_panics() {
        let b = Bytes::from(vec![1u8, 2, 3]);
        let (start, end) = (2, 1);
        b.slice(start..end);
    }

    #[test]
    fn a_slice_equals_and_hashes_like_a_copy() {
        let page = Bytes::from(b"xxabcyy".to_vec());
        let slice = page.slice(2..5);
        let copy = Bytes::copy_from_slice(b"abc");
        assert_eq!(slice, copy);
        assert_eq!(hash_of(&slice), hash_of(&copy));
        assert_ne!(slice, page.slice(1..4));
        assert_eq!(Bytes::new(), page.slice(4..4));
        assert_eq!(hash_of(&Bytes::new()), hash_of(&page.slice(4..4)));
    }

    #[test]
    fn try_into_mut_takes_a_sole_buffer_without_copying() {
        let b = BytesMut::from(&[1u8, 2, 3][..]).freeze();
        let ptr = b.as_ptr();
        let mut m = b.try_into_mut().expect("sole holder");
        assert_eq!(m.as_ptr(), ptr, "no copy");
        m[0] = 9;
        m.extend_from_slice(&[4]);
        assert_eq!(&*m.freeze(), &[9, 2, 3, 4]);
        assert!(Bytes::new().try_into_mut().unwrap().is_empty());
    }

    #[test]
    fn try_into_mut_refuses_a_shared_buffer_or_a_part_of_one() {
        let a = BytesMut::from(&[1u8, 2, 3][..]).freeze();
        let held = a.slice(1..);
        let a = a.try_into_mut().expect_err("a slice shares the buffer");
        assert_eq!(&*a, &[1, 2, 3]);
        drop(a);
        let held = held.try_into_mut().expect_err("a part of a buffer");
        assert_eq!(&*held, &[2, 3]);
        assert!(Bytes::copy_from_slice(&held).try_into_mut().is_err());
    }
}
