//! Multi-page DMA descriptors.

use fns_iova::types::Iova;
use fns_mem::addr::PhysAddr;

/// Pages per Rx descriptor (Mellanox CX-5 default used throughout the
/// paper: 64 pages = 256 KB per descriptor).
pub const PAGES_PER_RX_DESCRIPTOR: usize = 64;

/// One page slot of a descriptor: the device-visible IOVA and the backing
/// physical frame (the latter is what the IOMMU must resolve to).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DescriptorPage {
    /// Device-visible address.
    pub iova: Iova,
    /// Backing physical frame (driver-side knowledge only).
    pub pa: PhysAddr,
}

/// A prepared multi-page descriptor.
///
/// The NIC consumes the pages in order as packets arrive; once every page
/// has been consumed the driver unmaps the IOVAs and recycles the
/// descriptor (step 4 of the paper's Figure 1).
///
/// # Examples
///
/// ```
/// use fns_nic::descriptor::{Descriptor, DescriptorPage};
/// use fns_iova::types::Iova;
/// use fns_mem::addr::PhysAddr;
///
/// let pages = (0..4).map(|i| DescriptorPage {
///     iova: Iova::from_pfn(100 + i),
///     pa: PhysAddr::from_pfn(500 + i),
/// }).collect();
/// let mut d = Descriptor::new(7, pages);
/// assert_eq!(d.remaining(), 4);
/// let p = d.consume_page().unwrap();
/// assert_eq!(p.iova, Iova::from_pfn(100));
/// assert!(!d.is_consumed());
/// ```
#[derive(Debug, Clone)]
pub struct Descriptor {
    id: u64,
    pages: Vec<DescriptorPage>,
    next: usize,
}

impl Descriptor {
    /// Creates a descriptor from prepared pages.
    ///
    /// # Panics
    ///
    /// Panics if `pages` is empty.
    pub fn new(id: u64, pages: Vec<DescriptorPage>) -> Self {
        assert!(!pages.is_empty(), "empty descriptor");
        Self { id, pages, next: 0 }
    }

    /// Driver-assigned identifier (for completion matching).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Total pages in the descriptor.
    pub fn len(&self) -> usize {
        self.pages.len()
    }

    /// Always false: descriptors are non-empty by construction.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Pages not yet consumed by the NIC.
    pub fn remaining(&self) -> usize {
        self.pages.len() - self.next
    }

    /// Takes the next unused page for an incoming packet's DMA.
    pub fn consume_page(&mut self) -> Option<DescriptorPage> {
        let p = self.pages.get(self.next).copied()?;
        self.next += 1;
        Some(p)
    }

    /// Returns `true` once the NIC has used every page.
    pub fn is_consumed(&self) -> bool {
        self.next == self.pages.len()
    }

    /// All pages of the descriptor (used by the driver at unmap time).
    pub fn pages(&self) -> &[DescriptorPage] {
        &self.pages
    }

    /// Consumes the descriptor and returns its page vector, letting the
    /// driver recycle the allocation for the next prepared descriptor.
    pub fn into_pages(self) -> Vec<DescriptorPage> {
        self.pages
    }

    /// Serializes the descriptor (id, consumption cursor, page list) for
    /// checkpointing.
    pub fn snap(&self, w: &mut fns_snap::SnapWriter) {
        w.u64(self.id);
        w.usize(self.next);
        w.seq(self.pages.len());
        for p in &self.pages {
            w.u64(p.iova.as_u64());
            w.u64(p.pa.as_u64());
        }
    }

    /// Rebuilds a descriptor captured by [`Descriptor::snap`].
    pub fn unsnap(r: &mut fns_snap::SnapReader) -> Result<Self, fns_snap::SnapError> {
        let id = r.u64()?;
        let next = r.usize()?;
        let n = r.seq()?;
        let mut pages = Vec::with_capacity(n.min(1 << 16));
        for _ in 0..n {
            pages.push(DescriptorPage {
                iova: Iova::unsnap(r)?,
                pa: PhysAddr::new(r.u64()?),
            });
        }
        Ok(Self { id, pages, next })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn desc(n: u64) -> Descriptor {
        let pages = (0..n)
            .map(|i| DescriptorPage {
                iova: Iova::from_pfn(1000 + i),
                pa: PhysAddr::from_pfn(2000 + i),
            })
            .collect();
        Descriptor::new(1, pages)
    }

    #[test]
    fn consumes_in_order() {
        let mut d = desc(3);
        assert_eq!(d.consume_page().unwrap().iova, Iova::from_pfn(1000));
        assert_eq!(d.consume_page().unwrap().iova, Iova::from_pfn(1001));
        assert_eq!(d.consume_page().unwrap().iova, Iova::from_pfn(1002));
        assert!(d.is_consumed());
        assert_eq!(d.consume_page(), None);
    }

    #[test]
    fn remaining_counts_down() {
        let mut d = desc(64);
        assert_eq!(d.remaining(), 64);
        d.consume_page();
        assert_eq!(d.remaining(), 63);
        assert_eq!(d.len(), 64);
    }

    #[test]
    #[should_panic(expected = "empty descriptor")]
    fn empty_rejected() {
        Descriptor::new(0, vec![]);
    }
}
