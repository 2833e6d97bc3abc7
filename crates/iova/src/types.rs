//! IOVA address types.
//!
//! IO virtual addresses are 48 bits wide (Intel VT-d with 4-level tables).
//! Like Linux, allocation proceeds *top-down* from the top of the address
//! space, which keeps the active working set compact within the highest
//! PT-L1/PT-L2 regions — the property §2.2 of the paper relies on when
//! computing PTcache coverage.

/// Page shift shared with the physical side (4 KB pages).
pub const PAGE_SHIFT: u32 = 12;
/// Page size in bytes.
pub const PAGE_SIZE: u64 = 1 << PAGE_SHIFT;
/// Width of the IOVA space in bits.
pub const IOVA_BITS: u32 = 48;
/// One-past-the-top of the IOVA space.
pub const IOVA_SPACE_TOP: u64 = 1 << IOVA_BITS;

/// An IO virtual address — the only kind of address a device ever sees.
///
/// # Examples
///
/// ```
/// use fns_iova::types::Iova;
///
/// let iova = Iova::new(0x0000_8000_1000);
/// assert_eq!(iova.pfn(), 0x80001);
/// assert_eq!(iova.pt_index(4), 1); // PT-L4 index: bits 12..21
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Iova(u64);

impl Iova {
    /// Creates an IOVA from a raw 48-bit value.
    ///
    /// # Panics
    ///
    /// Panics if the value does not fit in 48 bits.
    pub fn new(raw: u64) -> Self {
        assert!(raw < IOVA_SPACE_TOP, "IOVA {raw:#x} exceeds 48 bits");
        Self(raw)
    }

    /// Raw address value.
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// Decodes an IOVA written as its raw value, refusing one beyond 48
    /// bits instead of panicking.
    pub fn unsnap(r: &mut fns_snap::SnapReader) -> Result<Self, fns_snap::SnapError> {
        match r.u64()? {
            raw if raw < IOVA_SPACE_TOP => Ok(Self(raw)),
            raw => Err(fns_snap::SnapError::BadTag {
                what: "iova",
                tag: raw,
            }),
        }
    }

    /// IOVA page frame number.
    pub const fn pfn(self) -> u64 {
        self.0 >> PAGE_SHIFT
    }

    /// Constructs the IOVA for page frame number `pfn`.
    pub fn from_pfn(pfn: u64) -> Self {
        Self::new(pfn << PAGE_SHIFT)
    }

    /// Index into the IO page table at `level` (1 = root .. 4 = leaf).
    ///
    /// Each level consumes 9 bits: PT-L1 uses bits 39..48, PT-L2 bits 30..39,
    /// PT-L3 bits 21..30 and PT-L4 bits 12..21 (§2.1 of the paper).
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= level <= 4`.
    pub fn pt_index(self, level: u8) -> usize {
        assert!((1..=4).contains(&level), "bad page-table level {level}");
        let shift = PAGE_SHIFT + 9 * (4 - level as u32);
        ((self.0 >> shift) & 0x1FF) as usize
    }

    /// Key identifying the PT-L4 page (leaf page-table page) covering this
    /// IOVA; two IOVAs share a PTcache-L3 entry iff these keys are equal.
    pub const fn l4_page_key(self) -> u64 {
        self.0 >> (PAGE_SHIFT + 9)
    }

    /// Key identifying the PT-L3 page covering this IOVA (PTcache-L2 entry
    /// granularity: 1 GB).
    pub const fn l3_page_key(self) -> u64 {
        self.0 >> (PAGE_SHIFT + 18)
    }

    /// Key identifying the PT-L2 page covering this IOVA (PTcache-L1 entry
    /// granularity: 512 GB).
    pub const fn l2_page_key(self) -> u64 {
        self.0 >> (PAGE_SHIFT + 27)
    }

    /// IOVA `bytes` past this one.
    #[allow(clippy::should_implement_trait)]
    pub fn add(self, bytes: u64) -> Self {
        Self::new(self.0 + bytes)
    }
}

impl std::fmt::Display for Iova {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "IOVA:{:#x}", self.0)
    }
}

/// A contiguous, page-aligned IOVA range `[base, base + pages * 4K)`.
///
/// # Examples
///
/// ```
/// use fns_iova::types::{Iova, IovaRange};
///
/// let r = IovaRange::new(Iova::from_pfn(100), 64);
/// assert_eq!(r.pages(), 64);
/// assert_eq!(r.bytes(), 256 * 1024);
/// assert!(r.contains(Iova::from_pfn(163)));
/// assert!(!r.contains(Iova::from_pfn(164)));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct IovaRange {
    base: Iova,
    pages: u64,
}

impl IovaRange {
    /// Creates a range of `pages` pages starting at page-aligned `base`.
    ///
    /// # Panics
    ///
    /// Panics if `base` is not page aligned, `pages` is zero, or the range
    /// overflows the IOVA space.
    pub fn new(base: Iova, pages: u64) -> Self {
        assert!(
            base.as_u64().is_multiple_of(PAGE_SIZE),
            "unaligned IOVA range base"
        );
        assert!(pages > 0, "empty IOVA range");
        assert!(
            base.as_u64() + pages * PAGE_SIZE <= IOVA_SPACE_TOP,
            "IOVA range exceeds address space"
        );
        Self { base, pages }
    }

    /// Decodes a range written as base address then page count, refusing
    /// one [`IovaRange::new`] would reject instead of panicking.
    pub fn unsnap(r: &mut fns_snap::SnapReader) -> Result<Self, fns_snap::SnapError> {
        let base = Iova::unsnap(r)?;
        let pages = r.u64()?;
        let fits = pages
            .checked_mul(PAGE_SIZE)
            .and_then(|len| base.as_u64().checked_add(len))
            .is_some_and(|top| top <= IOVA_SPACE_TOP);
        if !base.as_u64().is_multiple_of(PAGE_SIZE) || pages == 0 || !fits {
            return Err(fns_snap::SnapError::BadTag {
                what: "iova range",
                tag: base.as_u64(),
            });
        }
        Ok(Self { base, pages })
    }

    /// First address of the range.
    pub const fn base(self) -> Iova {
        self.base
    }

    /// Length in pages.
    pub const fn pages(self) -> u64 {
        self.pages
    }

    /// Length in bytes.
    pub const fn bytes(self) -> u64 {
        self.pages * PAGE_SIZE
    }

    /// First page frame number.
    pub const fn pfn_lo(self) -> u64 {
        self.base.pfn()
    }

    /// Last page frame number (inclusive).
    pub const fn pfn_hi(self) -> u64 {
        self.base.pfn() + self.pages - 1
    }

    /// IOVA of the `i`-th page in the range.
    ///
    /// # Panics
    ///
    /// Panics if `i >= pages`.
    pub fn page(self, i: u64) -> Iova {
        assert!(i < self.pages, "page index {i} out of range");
        self.base.add(i * PAGE_SIZE)
    }

    /// Returns `true` if `iova` falls inside the range.
    pub fn contains(self, iova: Iova) -> bool {
        let a = iova.as_u64();
        a >= self.base.as_u64() && a < self.base.as_u64() + self.bytes()
    }

    /// Returns `true` if the two ranges share any page.
    pub fn overlaps(self, other: IovaRange) -> bool {
        self.pfn_lo() <= other.pfn_hi() && other.pfn_lo() <= self.pfn_hi()
    }

    /// Iterates over the page-granularity sub-ranges.
    pub fn iter_pages(self) -> impl Iterator<Item = Iova> {
        (0..self.pages).map(move |i| self.base.add(i * PAGE_SIZE))
    }
}

impl std::fmt::Display for IovaRange {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "[{:#x}..{:#x})",
            self.base.as_u64(),
            self.base.as_u64() + self.bytes()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pt_indices_decompose_address() {
        // Compose an address from known indices and decompose it again.
        let l1 = 0x1ABusize;
        let l2 = 0x055usize;
        let l3 = 0x1FFusize;
        let l4 = 0x002usize;
        let raw =
            ((l1 as u64) << 39) | ((l2 as u64) << 30) | ((l3 as u64) << 21) | ((l4 as u64) << 12);
        let iova = Iova::new(raw);
        assert_eq!(iova.pt_index(1), l1);
        assert_eq!(iova.pt_index(2), l2);
        assert_eq!(iova.pt_index(3), l3);
        assert_eq!(iova.pt_index(4), l4);
    }

    #[test]
    fn l4_key_changes_every_2mb() {
        let a = Iova::new(0x0000_0020_0000 - PAGE_SIZE); // last page of first 2MB
        let b = Iova::new(0x0000_0020_0000); // first page of second 2MB
        assert_ne!(a.l4_page_key(), b.l4_page_key());
        assert_eq!(a.l4_page_key() + 1, b.l4_page_key());
        assert_eq!(a.l3_page_key(), b.l3_page_key());
    }

    #[test]
    #[should_panic(expected = "exceeds 48 bits")]
    fn iova_width_enforced() {
        Iova::new(IOVA_SPACE_TOP);
    }

    #[test]
    fn range_geometry() {
        let r = IovaRange::new(Iova::from_pfn(10), 4);
        assert_eq!(r.pfn_lo(), 10);
        assert_eq!(r.pfn_hi(), 13);
        assert_eq!(r.page(0), Iova::from_pfn(10));
        assert_eq!(r.page(3), Iova::from_pfn(13));
        assert_eq!(r.iter_pages().count(), 4);
    }

    #[test]
    fn range_overlap() {
        let a = IovaRange::new(Iova::from_pfn(10), 4); // 10..=13
        let b = IovaRange::new(Iova::from_pfn(13), 4); // 13..=16
        let c = IovaRange::new(Iova::from_pfn(14), 4); // 14..=17
        assert!(a.overlaps(b));
        assert!(b.overlaps(a));
        assert!(!a.overlaps(c));
    }

    #[test]
    #[should_panic(expected = "empty IOVA range")]
    fn empty_range_rejected() {
        IovaRange::new(Iova::from_pfn(1), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn page_index_checked() {
        IovaRange::new(Iova::from_pfn(1), 2).page(2);
    }

    #[test]
    fn top_down_addresses_share_high_level_keys() {
        // The top 2^27 bytes of the space all share one L2/L1 key — the
        // paper's argument for why PTcache-L1/L2 working set is 1 entry.
        let top = Iova::new(IOVA_SPACE_TOP - PAGE_SIZE);
        let lower = Iova::new(IOVA_SPACE_TOP - (1 << 27));
        assert_eq!(top.l2_page_key(), lower.l2_page_key());
        assert_eq!(top.l3_page_key(), lower.l3_page_key());
        assert_ne!(top.l4_page_key(), lower.l4_page_key());
    }

    #[test]
    fn display_formats() {
        let r = IovaRange::new(Iova::from_pfn(1), 1);
        assert_eq!(r.to_string(), "[0x1000..0x2000)");
        assert_eq!(Iova::from_pfn(1).to_string(), "IOVA:0x1000");
    }
}
