//! Shared byte slabs: an owned buffer or a zero-copy view into a
//! refcounted backing allocation (a chunk blob, a cache-file mmap).
//!
//! The chunk cache writes dense layouts *decoded* (see
//! [`crate::quantized::QuantizedMatrix::encode_chunk`]), so a decoded slab's
//! byte buffers can alias the cache file's memory mapping directly instead
//! of copying out of it. [`SharedBytes`] is the type that makes both shapes
//! interchangeable behind one `Deref<Target = [u8]>`: the in-core
//! construction path wraps freshly built `Vec<u8>`s, the out-of-core decode
//! path hands out sub-range views of one `Arc`-shared backing.

use std::fmt;
use std::ops::{Deref, Range};
use std::sync::Arc;

/// A read-only byte buffer: either sole owner of its allocation or a view
/// into a shared backing buffer kept alive by refcount.
///
/// The pointer/length pair is resolved once at construction so `Deref` is a
/// plain slice reassembly — no dynamic dispatch on the hot path. This is
/// sound because the backing lives behind an `Arc` held for the whole
/// lifetime of the view and every supported backing (`Vec<u8>`, a file
/// mapping) returns one stable slice for its whole life.
pub struct SharedBytes {
    ptr: *const u8,
    len: usize,
    _owner: Arc<dyn AsRef<[u8]> + Send + Sync>,
}

// SAFETY: the buffer is immutable and its backing is `Send + Sync`; the raw
// pointer is only a pre-resolved view into that backing.
unsafe impl Send for SharedBytes {}
// SAFETY: as for `Send`: nothing writes through the view, so any number of
// threads may read it at once.
unsafe impl Sync for SharedBytes {}

impl SharedBytes {
    /// A view of `range` within `backing`'s byte slice. Panics when the
    /// range falls outside the backing, exactly like slice indexing.
    pub fn from_backing(backing: Arc<dyn AsRef<[u8]> + Send + Sync>, range: Range<usize>) -> Self {
        let slice: &[u8] = (*backing).as_ref();
        let view = &slice[range];
        let (ptr, len) = (view.as_ptr(), view.len());
        Self { ptr, len, _owner: backing }
    }

    /// A sub-view of this buffer (`range` is relative to `self`). Shares
    /// the same backing; no bytes move.
    pub fn slice(&self, range: Range<usize>) -> Self {
        let view = &self[range];
        Self { ptr: view.as_ptr(), len: view.len(), _owner: Arc::clone(&self._owner) }
    }

    /// Length in bytes.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the buffer is empty.
    #[inline]
    #[allow(dead_code)] // len()'s clippy-mandated twin; tests use it.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl From<Vec<u8>> for SharedBytes {
    fn from(v: Vec<u8>) -> Self {
        let len = v.len();
        Self::from_backing(Arc::new(v), 0..len)
    }
}

impl Deref for SharedBytes {
    type Target = [u8];

    #[inline]
    fn deref(&self) -> &[u8] {
        // SAFETY: `_owner` keeps the backing allocation alive and immutable
        // for as long as this view exists; `ptr..ptr+len` was a valid slice
        // of it at construction.
        unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
    }
}

impl Clone for SharedBytes {
    fn clone(&self) -> Self {
        Self { ptr: self.ptr, len: self.len, _owner: Arc::clone(&self._owner) }
    }
}

impl fmt::Debug for SharedBytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SharedBytes({} bytes)", self.len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn owned_round_trip() {
        let b = SharedBytes::from(vec![1u8, 2, 3, 4]);
        assert_eq!(&b[..], &[1, 2, 3, 4]);
        assert_eq!(b.len(), 4);
        assert!(!b.is_empty());
    }

    #[test]
    fn views_share_backing_without_copying() {
        let backing: Arc<dyn AsRef<[u8]> + Send + Sync> = Arc::new((0u8..100).collect::<Vec<_>>());
        let a = SharedBytes::from_backing(Arc::clone(&backing), 10..20);
        let b = a.slice(2..5);
        assert_eq!(&a[..], &(10u8..20).collect::<Vec<_>>()[..]);
        assert_eq!(&b[..], &[12, 13, 14]);
        assert_eq!(a.as_ptr(), backing.as_ref().as_ref()[10..].as_ptr());
        assert_eq!(b.as_ptr(), backing.as_ref().as_ref()[12..].as_ptr());
    }

    #[test]
    fn clone_is_a_cheap_alias() {
        let a = SharedBytes::from(vec![7u8; 8]);
        let b = a.clone();
        assert_eq!(a.as_ptr(), b.as_ptr());
        assert_eq!(&b[..], &[7u8; 8]);
    }
}
