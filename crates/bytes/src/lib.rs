//! Minimal in-repo `Bytes`/`BytesMut`.
//!
//! The workspace needs exactly two things from a byte-buffer type:
//! cheap O(1) clones/slices of immutable payloads (so a 1 MB read reply
//! can fan through the mesh, cache, and prefetch list without copies),
//! and a mutable staging buffer that freezes into one. The crates.io
//! `bytes` crate does this with atomics and a vtable; here an
//! `Rc<Vec<u8>>` plus a range is enough — and keeping it in-repo makes
//! the build hermetic (tier-1 verify needs no registry access). Backing
//! `Bytes` with the `Vec` itself, not an `Rc<[u8]>`, is what makes
//! `Bytes::from(Vec)` and [`BytesMut::freeze`] move the buffer instead
//! of copying it (`Rc::<[u8]>::from(Vec)` reallocates); the price is
//! one more pointer hop in `Deref` (`Rc` → `Vec` → bytes). The simulator
//! is single-threaded, so the reference count is a plain `Rc`: a clone
//! is one non-atomic increment, and `Bytes` is deliberately `!Send`. The
//! API is the subset the workspace uses, name-compatible with the real
//! crate.

use std::ops::{Bound, Deref, DerefMut, RangeBounds};
use std::rc::Rc;

/// A cheaply clonable, immutable slice of bytes.
#[derive(Clone, Default)]
pub struct Bytes {
    data: Rc<Vec<u8>>,
    start: usize,
    end: usize,
}

impl Bytes {
    /// An empty buffer.
    pub fn new() -> Bytes {
        Bytes::default()
    }

    /// Wrap a static slice. (Copies once; the simulator only uses this
    /// for tiny test payloads, so sharing the allocation is not worth a
    /// second representation.)
    pub fn from_static(data: &'static [u8]) -> Bytes {
        Bytes::from(data.to_vec())
    }

    /// O(1) sub-slice sharing the same allocation. Panics if the range
    /// is out of bounds, like slicing.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Bytes {
        let lo = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let hi = match range.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => self.len(),
        };
        assert!(lo <= hi && hi <= self.len(), "slice out of bounds");
        Bytes {
            data: self.data.clone(),
            start: self.start + lo,
            end: self.start + hi,
        }
    }

    /// Take the buffer back as a [`BytesMut`] without copying, when this
    /// is the only handle to its allocation and views all of it;
    /// otherwise hand `self` back unchanged.
    pub fn try_into_mut(self) -> Result<BytesMut, Bytes> {
        let Bytes { data, start, end } = self;
        if start != 0 || end != data.len() {
            return Err(Bytes { data, start, end });
        }
        Rc::try_unwrap(data)
            .map(|data| BytesMut { data })
            .map_err(|data| Bytes { data, start, end })
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Bytes {
        let end = v.len();
        Bytes {
            data: Rc::new(v),
            start: 0,
            end,
        }
    }
}

impl From<&[u8]> for Bytes {
    fn from(v: &[u8]) -> Bytes {
        Bytes::from(v.to_vec())
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.data[self.start..self.end]
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl std::fmt::Debug for Bytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Bytes(len={})", self.len())
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Bytes) -> bool {
        self[..] == other[..]
    }
}
impl Eq for Bytes {}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        self[..] == *other
    }
}

impl PartialEq<&[u8]> for Bytes {
    fn eq(&self, other: &&[u8]) -> bool {
        self[..] == **other
    }
}

impl PartialEq<Vec<u8>> for Bytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self[..] == other[..]
    }
}

impl PartialEq<Bytes> for Vec<u8> {
    fn eq(&self, other: &Bytes) -> bool {
        self[..] == other[..]
    }
}

impl std::hash::Hash for Bytes {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self[..].hash(state);
    }
}

/// A mutable byte buffer that freezes into [`Bytes`].
#[derive(Clone, Default, Debug)]
pub struct BytesMut {
    data: Vec<u8>,
}

impl BytesMut {
    /// An empty buffer.
    pub fn new() -> BytesMut {
        BytesMut::default()
    }

    /// A zero-filled buffer of `len` bytes (scatter-gather target).
    pub fn zeroed(len: usize) -> BytesMut {
        BytesMut { data: vec![0; len] }
    }

    /// Convert into an immutable [`Bytes`] without copying: the `Bytes`
    /// takes over this buffer's allocation.
    pub fn freeze(self) -> Bytes {
        Bytes::from(self.data)
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.data
    }
}

impl DerefMut for BytesMut {
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.data
    }
}

impl From<Vec<u8>> for BytesMut {
    fn from(data: Vec<u8>) -> BytesMut {
        BytesMut { data }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clone_and_slice_share_no_copies() {
        let b = Bytes::from(vec![1, 2, 3, 4, 5]);
        let c = b.clone();
        assert_eq!(b, c);
        let s = b.slice(1..4);
        assert_eq!(&s[..], &[2, 3, 4]);
        // Sub-slicing a slice stays relative to the slice.
        let s2 = s.slice(1..);
        assert_eq!(&s2[..], &[3, 4]);
        assert_eq!(s.slice(..0).len(), 0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn slice_past_end_panics() {
        Bytes::from(vec![1, 2, 3]).slice(0..4);
    }

    #[test]
    fn freeze_and_from_vec_keep_the_buffer() {
        let v = vec![1u8, 2, 3, 4];
        let ptr = v.as_ptr();
        assert_eq!(Bytes::from(v).as_ptr(), ptr);
        let mut m = BytesMut::zeroed(64);
        m.fill(5);
        let ptr = m.as_ptr();
        let b = m.freeze();
        assert_eq!(b.as_ptr(), ptr);
        // A slice views the same allocation at its offset.
        assert_eq!(b.slice(8..).as_ptr(), ptr.wrapping_add(8));
    }

    #[test]
    fn try_into_mut_needs_the_only_whole_view() {
        let b = Bytes::from(vec![1u8, 2, 3, 4]);
        let ptr = b.as_ptr();
        // A second handle, or a view of only part of the buffer, is refused.
        let other = b.clone();
        let b = b.try_into_mut().unwrap_err();
        drop(other);
        let part = b.slice(1..).try_into_mut().unwrap_err();
        assert_eq!(&part[..], &[2, 3, 4]);
        drop(part);
        // The only whole view gets the buffer back without a copy.
        let m = b.try_into_mut().unwrap();
        assert_eq!((m.as_ptr(), &m[..]), (ptr, &[1u8, 2, 3, 4][..]));
    }

    #[test]
    fn freeze_roundtrip_and_eq_forms() {
        let mut m = BytesMut::zeroed(4);
        m[1] = 9;
        m[2..4].copy_from_slice(&[7, 8]);
        let b = m.freeze();
        assert_eq!(b, vec![0u8, 9, 7, 8]);
        assert_eq!(vec![0u8, 9, 7, 8], b);
        assert_eq!(b, [0u8, 9, 7, 8][..]);
        assert!(Bytes::new().is_empty());
        assert_eq!(Bytes::from_static(b"xy").len(), 2);
    }
}
