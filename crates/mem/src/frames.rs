//! Physical frame allocator.
//!
//! Backs both packet buffers (the frames the NIC driver hands to the IOMMU
//! driver for Rx descriptors) and IO page-table pages. A free list keeps
//! allocation O(1); an allocation bitmap catches double frees and frees of
//! never-allocated frames, which in the real kernel would be memory
//! corruption.

use fns_snap::{SnapError, SnapReader, SnapWriter};

use crate::addr::{PhysAddr, PAGE_SIZE};

/// Errors returned by [`FrameAllocator`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    /// No free frames remain.
    OutOfMemory,
    /// The frame was not currently allocated (double free or wild free).
    NotAllocated(PhysAddr),
    /// The address is not page aligned.
    Unaligned(PhysAddr),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::OutOfMemory => write!(f, "out of physical frames"),
            FrameError::NotAllocated(pa) => write!(f, "frame {pa} is not allocated"),
            FrameError::Unaligned(pa) => write!(f, "address {pa} is not page aligned"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Largest pool a snapshot may declare (16 TB of 4 KB frames); a larger
/// one is refused as corrupt rather than allocated.
const MAX_FRAMES: usize = 1 << 32;

/// A 4 KB physical frame allocator over a contiguous physical range.
///
/// Never-allocated frames are represented by a watermark (`next_pfn`), so
/// construction is O(1) in the pool size instead of materializing a
/// multi-megabyte free list; frames that have been freed sit on a LIFO
/// recycle stack. Allocation order is identical to the historical
/// explicit-free-list implementation: fresh frames come out lowest-first,
/// recycled frames most-recently-freed-first. Allocation state lives in a
/// bitmap (one bit per frame) rather than a hash set, so double-free and
/// wild-free detection is a mask test with no hashing on the hot path.
///
/// # Examples
///
/// ```
/// use fns_mem::frames::FrameAllocator;
///
/// let mut fa = FrameAllocator::new(16);
/// let f = fa.alloc().unwrap();
/// assert!(f.is_page_aligned());
/// fa.free(f).unwrap();
/// assert!(fa.free(f).is_err()); // double free detected
/// ```
#[derive(Debug, Clone)]
pub struct FrameAllocator {
    /// Freed frames, reallocated LIFO.
    recycled: Vec<PhysAddr>,
    /// Lowest pfn that has never been handed out.
    next_pfn: u64,
    /// One bit per frame (bit index == pfn); set while allocated.
    bitmap: Vec<u64>,
    in_use: usize,
    total: usize,
    peak_allocated: usize,
    alloc_count: u64,
    free_count: u64,
}

impl FrameAllocator {
    /// Creates an allocator managing `frames` 4 KB frames, starting at
    /// physical address `PAGE_SIZE` (frame 0 is reserved as a null sentinel,
    /// matching the convention that physical address 0 is never a valid DMA
    /// target).
    pub fn new(frames: usize) -> Self {
        Self {
            recycled: Vec::new(),
            next_pfn: 1,
            bitmap: vec![0u64; (frames + 1).div_ceil(64)],
            in_use: 0,
            total: frames,
            peak_allocated: 0,
            alloc_count: 0,
            free_count: 0,
        }
    }

    /// Rewinds to the freshly-constructed state (all frames free, counters
    /// zeroed) while keeping the bitmap and recycle-stack storage allocated —
    /// the arena-reuse hook for back-to-back simulation runs.
    pub fn reset(&mut self, frames: usize) {
        let words = (frames + 1).div_ceil(64);
        // Only frames below the watermark were ever set, so only the words
        // holding them need zeroing; the words above stay untouched (and,
        // for a fresh bitmap, never become resident).
        let dirty = self.dirty_words().min(words);
        self.bitmap[..dirty].fill(0);
        self.bitmap.resize(words, 0);
        self.recycled.clear();
        self.next_pfn = 1;
        self.in_use = 0;
        self.total = frames;
        self.peak_allocated = 0;
        self.alloc_count = 0;
        self.free_count = 0;
    }

    #[inline]
    fn bit_set(&mut self, pfn: u64) {
        self.bitmap[(pfn / 64) as usize] |= 1u64 << (pfn % 64);
    }

    #[inline]
    fn bit_test(&self, pfn: u64) -> bool {
        pfn <= self.total as u64 && self.bitmap[(pfn / 64) as usize] & (1u64 << (pfn % 64)) != 0
    }

    #[inline]
    fn bit_clear(&mut self, pfn: u64) {
        self.bitmap[(pfn / 64) as usize] &= !(1u64 << (pfn % 64));
    }

    /// Allocates one frame.
    pub fn alloc(&mut self) -> Result<PhysAddr, FrameError> {
        let pa = match self.recycled.pop() {
            Some(pa) => pa,
            None => {
                if self.next_pfn > self.total as u64 {
                    return Err(FrameError::OutOfMemory);
                }
                let pa = PhysAddr::from_pfn(self.next_pfn);
                self.next_pfn += 1;
                pa
            }
        };
        self.bit_set(pa.pfn());
        self.in_use += 1;
        self.peak_allocated = self.peak_allocated.max(self.in_use);
        self.alloc_count += 1;
        Ok(pa)
    }

    /// Allocates one frame through a fault plane: the plane may force an
    /// `OutOfMemory` result even while frames remain, modelling transient
    /// memory pressure.
    pub fn alloc_with(
        &mut self,
        faults: &mut fns_faults::FaultPlane,
    ) -> Result<PhysAddr, FrameError> {
        if faults.roll(fns_faults::FaultKind::FrameExhaustion) {
            return Err(FrameError::OutOfMemory);
        }
        self.alloc()
    }

    /// Frees a previously allocated frame.
    pub fn free(&mut self, pa: PhysAddr) -> Result<(), FrameError> {
        if !pa.is_page_aligned() {
            return Err(FrameError::Unaligned(pa));
        }
        if !self.bit_test(pa.pfn()) {
            return Err(FrameError::NotAllocated(pa));
        }
        self.bit_clear(pa.pfn());
        self.in_use -= 1;
        self.free_count += 1;
        self.recycled.push(pa);
        Ok(())
    }

    /// Returns `true` if `pa`'s frame is currently allocated.
    pub fn is_allocated(&self, pa: PhysAddr) -> bool {
        self.bit_test(pa.pfn())
    }

    /// Frames currently allocated.
    pub fn in_use(&self) -> usize {
        self.in_use
    }

    /// Frames currently free.
    pub fn available(&self) -> usize {
        self.total - (self.next_pfn as usize - 1) + self.recycled.len()
    }

    /// Total frames managed.
    pub fn total(&self) -> usize {
        self.total
    }

    /// High-water mark of simultaneously allocated frames.
    pub fn peak_in_use(&self) -> usize {
        self.peak_allocated
    }

    /// Lifetime (alloc, free) operation counts.
    pub fn op_counts(&self) -> (u64, u64) {
        (self.alloc_count, self.free_count)
    }

    /// Total bytes managed.
    pub fn total_bytes(&self) -> u64 {
        self.total as u64 * PAGE_SIZE
    }

    /// Bitmap words that can hold a set bit: those below the watermark.
    fn dirty_words(&self) -> usize {
        (self.next_pfn.div_ceil(64) as usize).min(self.bitmap.len())
    }

    /// Serializes the full allocator state for checkpointing. The recycle
    /// stack travels verbatim (its LIFO order decides future allocations);
    /// the bitmap travels only up to the watermark, since every word above
    /// it is zero.
    pub fn snap(&self, w: &mut SnapWriter) {
        w.seq(self.recycled.len());
        for pa in &self.recycled {
            w.u64(pa.as_u64());
        }
        w.u64(self.next_pfn);
        w.u64_slice(&self.bitmap[..self.dirty_words()]);
        w.usize(self.in_use);
        w.usize(self.total);
        w.usize(self.peak_allocated);
        w.u64(self.alloc_count);
        w.u64(self.free_count);
    }

    /// Rebuilds an allocator captured by [`FrameAllocator::snap`].
    pub fn unsnap(r: &mut SnapReader) -> Result<Self, SnapError> {
        let n = r.seq()?;
        let mut recycled = Vec::with_capacity(n.min(1 << 20));
        for _ in 0..n {
            recycled.push(PhysAddr::new(r.u64()?));
        }
        let next_pfn = r.u64()?;
        let dirty = r.u64_vec()?;
        let in_use = r.usize()?;
        let total = r.usize()?;
        if total > MAX_FRAMES || dirty.len() > (total + 1).div_ceil(64) {
            return Err(SnapError::BadTag {
                what: "frame-allocator size",
                tag: total as u64,
            });
        }
        let mut bitmap = vec![0u64; (total + 1).div_ceil(64)];
        bitmap[..dirty.len()].copy_from_slice(&dirty);
        Ok(Self {
            recycled,
            next_pfn,
            bitmap,
            in_use,
            total,
            peak_allocated: r.usize()?,
            alloc_count: r.u64()?,
            free_count: r.u64()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_free_roundtrip() {
        let mut fa = FrameAllocator::new(4);
        let a = fa.alloc().unwrap();
        let b = fa.alloc().unwrap();
        assert_ne!(a, b);
        assert_eq!(fa.in_use(), 2);
        fa.free(a).unwrap();
        fa.free(b).unwrap();
        assert_eq!(fa.in_use(), 0);
        assert_eq!(fa.available(), 4);
    }

    #[test]
    fn exhaustion() {
        let mut fa = FrameAllocator::new(2);
        fa.alloc().unwrap();
        fa.alloc().unwrap();
        assert_eq!(fa.alloc(), Err(FrameError::OutOfMemory));
    }

    #[test]
    fn double_free_detected() {
        let mut fa = FrameAllocator::new(2);
        let a = fa.alloc().unwrap();
        fa.free(a).unwrap();
        assert_eq!(fa.free(a), Err(FrameError::NotAllocated(a)));
    }

    #[test]
    fn wild_free_detected() {
        let mut fa = FrameAllocator::new(2);
        assert!(matches!(
            fa.free(PhysAddr::from_pfn(99)),
            Err(FrameError::NotAllocated(_))
        ));
        assert_eq!(
            fa.free(PhysAddr::new(5)),
            Err(FrameError::Unaligned(PhysAddr::new(5)))
        );
    }

    #[test]
    fn frame_zero_reserved() {
        let mut fa = FrameAllocator::new(8);
        for _ in 0..8 {
            let f = fa.alloc().unwrap();
            assert!(f.pfn() >= 1, "frame 0 must stay reserved");
        }
    }

    #[test]
    fn peak_tracking() {
        let mut fa = FrameAllocator::new(8);
        let a = fa.alloc().unwrap();
        let b = fa.alloc().unwrap();
        let c = fa.alloc().unwrap();
        fa.free(b).unwrap();
        fa.free(c).unwrap();
        fa.free(a).unwrap();
        assert_eq!(fa.peak_in_use(), 3);
        assert_eq!(fa.op_counts(), (3, 3));
    }

    #[test]
    fn reuse_after_free() {
        let mut fa = FrameAllocator::new(1);
        let a = fa.alloc().unwrap();
        fa.free(a).unwrap();
        let b = fa.alloc().unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn injected_exhaustion_fails_without_consuming_frames() {
        use fns_faults::{FaultConfig, FaultKind, FaultPlane};
        use fns_sim::rng::SimRng;

        let cfg = FaultConfig::disabled().with_every(FaultKind::FrameExhaustion, 2);
        let mut plane = FaultPlane::new(cfg, SimRng::seed(1));
        let mut fa = FrameAllocator::new(4);
        assert!(fa.alloc_with(&mut plane).is_ok());
        assert_eq!(fa.alloc_with(&mut plane), Err(FrameError::OutOfMemory));
        // The injected failure must not leak a frame.
        assert_eq!(fa.in_use(), 1);
        assert_eq!(fa.available(), 3);
        assert_eq!(plane.stats().injected_of(FaultKind::FrameExhaustion), 1);
    }

    #[test]
    fn snapshot_carries_only_the_bitmap_below_the_watermark() {
        let mut fa = FrameAllocator::new(1 << 20);
        let frames: Vec<PhysAddr> = (0..200).map(|_| fa.alloc().unwrap()).collect();
        for &f in frames.iter().step_by(3) {
            fa.free(f).unwrap();
        }
        let mut w = SnapWriter::new();
        fa.snap(&mut w);
        assert!(w.len() < 4096, "{} bytes for a 1M-frame pool", w.len());
        let bytes = w.finish();
        let mut r = SnapReader::new(&bytes).unwrap();
        let back = FrameAllocator::unsnap(&mut r).unwrap();
        r.done().unwrap();
        assert_eq!(back.bitmap, fa.bitmap);
        assert_eq!(back.recycled, fa.recycled);
        assert_eq!((back.next_pfn, back.in_use), (fa.next_pfn, fa.in_use));
    }

    #[test]
    fn reset_matches_a_fresh_allocator() {
        let mut fa = FrameAllocator::new(300);
        for _ in 0..130 {
            fa.alloc().unwrap();
        }
        for frames in [300, 40, 1000] {
            fa.reset(frames);
            let fresh = FrameAllocator::new(frames);
            assert_eq!(fa.bitmap, fresh.bitmap, "{frames} frames");
            assert_eq!(fa.available(), fresh.available());
            let a = fa.alloc().unwrap();
            assert_eq!(a, fresh.clone().alloc().unwrap());
            fa.free(a).unwrap();
            fa.reset(frames);
        }
    }

    #[test]
    fn total_bytes() {
        let fa = FrameAllocator::new(256);
        assert_eq!(fa.total_bytes(), 1 << 20);
        assert_eq!(fa.total(), 256);
    }
}
