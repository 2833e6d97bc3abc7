//! Carving page-sized pieces out of a contiguous IOVA chunk (F&S, §3).
//!
//! F&S allocates one large IOVA range per descriptor (Rx) or per 256 KB of
//! Tx traffic, then maps individual 4 KB pages into consecutive slots of
//! that range *in the order the NIC will access them*. The Tx side needs
//! bookkeeping: pages are carved on demand as packets arrive, possibly
//! spanning multiple descriptors, and the chunk's IOVA can only be freed
//! once every carved page has been unmapped. [`ChunkCarver`] is that
//! bookkeeping.

use fns_snap::{SnapError, SnapReader, SnapWriter};

use crate::types::{Iova, IovaRange};

/// Sequential carver over one contiguous IOVA chunk.
///
/// # Examples
///
/// ```
/// use fns_iova::carver::ChunkCarver;
/// use fns_iova::types::{Iova, IovaRange};
///
/// let chunk = IovaRange::new(Iova::from_pfn(1024), 4);
/// let mut c = ChunkCarver::new(chunk);
/// let a = c.take_page().unwrap();
/// let b = c.take_page().unwrap();
/// assert_eq!(b.pfn(), a.pfn() + 1); // carved in NIC access order
/// assert!(!c.note_unmapped());
/// c.take_page().unwrap();
/// c.take_page().unwrap();
/// assert!(c.is_exhausted());
/// assert!(!c.note_unmapped());
/// assert!(!c.note_unmapped());
/// assert!(c.note_unmapped()); // fourth unmap retires the chunk
/// ```
#[derive(Debug, Clone)]
pub struct ChunkCarver {
    range: IovaRange,
    next: u64,
    unmapped: u64,
}

impl ChunkCarver {
    /// Wraps a freshly allocated chunk.
    pub fn new(range: IovaRange) -> Self {
        Self {
            range,
            next: 0,
            unmapped: 0,
        }
    }

    /// The underlying chunk.
    pub fn range(&self) -> IovaRange {
        self.range
    }

    /// Carves the next page-sized IOVA, or `None` when the chunk is used up.
    pub fn take_page(&mut self) -> Option<Iova> {
        if self.next >= self.range.pages() {
            return None;
        }
        let iova = self.range.page(self.next);
        self.next += 1;
        Some(iova)
    }

    /// Pages carved so far.
    pub fn carved(&self) -> u64 {
        self.next
    }

    /// Returns `true` once every page has been carved.
    pub fn is_exhausted(&self) -> bool {
        self.next == self.range.pages()
    }

    /// Records that one carved page has been unmapped; returns `true` when
    /// the *entire* chunk is both exhausted and fully unmapped, i.e. its
    /// IOVA range may be returned to the allocator.
    ///
    /// # Panics
    ///
    /// Panics if more pages are unmapped than were carved.
    pub fn note_unmapped(&mut self) -> bool {
        self.unmapped += 1;
        assert!(
            self.unmapped <= self.next,
            "unmapped {} pages but only carved {}",
            self.unmapped,
            self.next
        );
        self.is_exhausted() && self.unmapped == self.range.pages()
    }

    /// Pages unmapped so far.
    pub fn unmapped(&self) -> u64 {
        self.unmapped
    }

    /// Serializes the carver for checkpointing.
    pub fn snap(&self, w: &mut SnapWriter) {
        w.u64(self.range.base().as_u64());
        w.u64(self.range.pages());
        w.u64(self.next);
        w.u64(self.unmapped);
    }

    /// Rebuilds a carver captured by [`ChunkCarver::snap`].
    pub fn unsnap(r: &mut SnapReader) -> Result<Self, SnapError> {
        Ok(Self {
            range: IovaRange::unsnap(r)?,
            next: r.u64()?,
            unmapped: r.u64()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chunk(pages: u64) -> ChunkCarver {
        ChunkCarver::new(IovaRange::new(Iova::from_pfn(4096), pages))
    }

    #[test]
    fn carves_sequentially() {
        let mut c = chunk(64);
        let pages: Vec<_> = std::iter::from_fn(|| c.take_page()).collect();
        assert_eq!(pages.len(), 64);
        for (i, p) in pages.iter().enumerate() {
            assert_eq!(p.pfn(), 4096 + i as u64);
        }
        assert!(c.is_exhausted());
        assert_eq!(c.take_page(), None);
    }

    #[test]
    fn retires_only_when_all_unmapped() {
        let mut c = chunk(3);
        c.take_page();
        c.take_page();
        assert!(!c.note_unmapped());
        assert!(!c.note_unmapped()); // all carved pages unmapped, but not exhausted
        c.take_page();
        assert!(c.note_unmapped());
    }

    #[test]
    fn unmap_before_exhaustion_never_retires() {
        let mut c = chunk(2);
        c.take_page();
        assert!(!c.note_unmapped());
        assert_eq!(c.unmapped(), 1);
        assert_eq!(c.carved(), 1);
    }

    #[test]
    #[should_panic(expected = "only carved")]
    fn over_unmap_panics() {
        let mut c = chunk(2);
        c.take_page();
        c.note_unmapped();
        c.note_unmapped();
    }

    #[test]
    fn chunk_pages_share_l4_key_when_aligned() {
        // A 64-page chunk aligned to 64 pages spans at most one 2 MB
        // PT-L4 page unless it crosses a 2 MB boundary — the paper's "at
        // most 2 unique PTcache-L3 entries per descriptor".
        let aligned = IovaRange::new(Iova::from_pfn(512), 64);
        let keys: std::collections::HashSet<_> =
            aligned.iter_pages().map(|p| p.l4_page_key()).collect();
        assert_eq!(keys.len(), 1);
        let crossing = IovaRange::new(Iova::from_pfn(512 - 32), 64);
        let keys: std::collections::HashSet<_> =
            crossing.iter_pages().map(|p| p.l4_page_key()).collect();
        assert_eq!(keys.len(), 2);
    }
}
