//! A specialized O(1) LRU cache for packed `u64` keys.
//!
//! The IOTLB and PTcache LRU, specialized to keys that already fit in a
//! `u64` (every key is a pfn or region key). Three things make it faster
//! than a generic map-backed LRU cache:
//!
//! * **Open-addressed index** — a power-of-two table of arena indices with
//!   linear probing and backward-shift deletion, instead of a `HashMap`
//!   (no SipHash, no per-entry heap boxes, no tombstone buildup).
//! * **Multiplicative hashing** — one 64-bit multiply and a shift per
//!   lookup (Fibonacci hashing), which is enough because pfn/region keys
//!   are already well distributed in their low bits.
//! * **Copy values, reusable arena** — values are `Copy` (`PhysAddr`,
//!   `PageRef`), so nodes carry them inline with no `Option` dance and no
//!   key cloning on insert or touch; evicted slots recycle through a free
//!   list so steady-state insert/evict churn performs zero allocations.
//!
//! Eviction order is exactly a generic LRU's order for the same operation
//! sequence (asserted against the map-backed reference model kept in
//! `tests/lru_model/` by `tests/lru_equivalence.rs`), so swapping it into
//! the IOMMU changes no simulated counter.

const NIL: u32 = u32::MAX;
/// Empty marker in the open-addressed table.
const EMPTY: u32 = u32::MAX;
/// Fibonacci hashing constant: 2^64 / phi, odd.
const HASH_MUL: u64 = 0x9E37_79B9_7F4A_7C15;

#[derive(Debug, Clone, Copy)]
struct Node<V> {
    key: u64,
    value: V,
    prev: u32,
    next: u32,
}

/// A fixed-capacity least-recently-used cache over `u64` keys.
///
/// # Examples
///
/// ```
/// use fns_iommu::lru64::Lru64;
///
/// let mut c = Lru64::new(2);
/// c.insert(1, "a");
/// c.insert(2, "b");
/// c.get(1); // touch 1 so 2 becomes the LRU victim
/// c.insert(3, "c");
/// assert!(c.get(2).is_none());
/// assert_eq!(c.get(1), Some("a"));
/// assert_eq!(c.get(3), Some("c"));
/// ```
#[derive(Debug, Clone)]
pub struct Lru64<V: Copy> {
    /// Open-addressed table of arena indices (EMPTY = vacant). Sized to at
    /// least 2x capacity, so the load factor never exceeds 0.5.
    table: Vec<u32>,
    /// `table.len() - 1`; table length is a power of two.
    mask: usize,
    /// Bits to shift the multiplied hash down to a table index.
    shift: u32,
    arena: Vec<Node<V>>,
    free: Vec<u32>,
    head: u32, // most recently used
    tail: u32, // least recently used
    len: usize,
    capacity: usize,
}

/// Largest capacity [`Lru64::unsnap_with`] accepts.
const MAX_RESTORED_CAPACITY: usize = 1 << 20;

impl<V: Copy> Lru64<V> {
    /// Creates a cache holding at most `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "zero-capacity LRU");
        let table_len = (capacity * 2).max(8).next_power_of_two();
        Self {
            table: vec![EMPTY; table_len],
            mask: table_len - 1,
            shift: 64 - table_len.trailing_zeros(),
            arena: Vec::with_capacity(capacity),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            len: 0,
            capacity,
        }
    }

    /// Number of entries currently cached.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    #[inline]
    fn home_slot(&self, key: u64) -> usize {
        (key.wrapping_mul(HASH_MUL) >> self.shift) as usize
    }

    /// Finds the table slot holding `key`, if present.
    #[inline]
    fn find_slot(&self, key: u64) -> Option<usize> {
        // Fast-out for empty caches: probing the table would touch a cold
        // random slot. The huge-page IOTLB in a 4 KB-only workload (and
        // every cache under IOMMU-off) stays permanently empty yet is
        // probed on every invalidation.
        if self.len == 0 {
            return None;
        }
        let mut slot = self.home_slot(key);
        loop {
            let idx = self.table[slot];
            if idx == EMPTY {
                return None;
            }
            if self.arena[idx as usize].key == key {
                return Some(slot);
            }
            slot = (slot + 1) & self.mask;
        }
    }

    /// Inserts `arena_idx` into the table at the first vacant probe slot.
    #[inline]
    fn table_insert(&mut self, key: u64, arena_idx: u32) {
        let mut slot = self.home_slot(key);
        while self.table[slot] != EMPTY {
            slot = (slot + 1) & self.mask;
        }
        self.table[slot] = arena_idx;
    }

    /// Deletes the entry at `slot` with backward-shift compaction, keeping
    /// every remaining probe chain contiguous (no tombstones).
    fn table_delete(&mut self, mut slot: usize) {
        let mut j = slot;
        loop {
            j = (j + 1) & self.mask;
            let idx = self.table[j];
            if idx == EMPTY {
                break;
            }
            let home = self.home_slot(self.arena[idx as usize].key);
            // The entry at `j` may slide back into the hole at `slot` only
            // if its home position is cyclically outside (slot, j].
            if (j.wrapping_sub(home) & self.mask) >= (j.wrapping_sub(slot) & self.mask) {
                self.table[slot] = idx;
                slot = j;
            }
        }
        self.table[slot] = EMPTY;
    }

    #[inline]
    fn detach(&mut self, idx: u32) {
        let (prev, next) = {
            let n = &self.arena[idx as usize];
            (n.prev, n.next)
        };
        if prev != NIL {
            self.arena[prev as usize].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.arena[next as usize].prev = prev;
        } else {
            self.tail = prev;
        }
    }

    #[inline]
    fn attach_front(&mut self, idx: u32) {
        self.arena[idx as usize].prev = NIL;
        self.arena[idx as usize].next = self.head;
        if self.head != NIL {
            self.arena[self.head as usize].prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }

    /// Looks up `key`, marking it most recently used on a hit.
    #[inline]
    pub fn get(&mut self, key: u64) -> Option<V> {
        let slot = self.find_slot(key)?;
        let idx = self.table[slot];
        if idx != self.head {
            self.detach(idx);
            self.attach_front(idx);
        }
        Some(self.arena[idx as usize].value)
    }

    /// Looks up `key` without updating recency (for inspection in tests).
    pub fn peek(&self, key: u64) -> Option<V> {
        self.find_slot(key)
            .map(|s| self.arena[self.table[s] as usize].value)
    }

    /// Returns `true` if `key` is cached (no recency update).
    pub fn contains(&self, key: u64) -> bool {
        self.find_slot(key).is_some()
    }

    /// Inserts or updates `key`, evicting the LRU entry if at capacity.
    /// Returns the evicted `(key, value)` pair, if any.
    pub fn insert(&mut self, key: u64, value: V) -> Option<(u64, V)> {
        if let Some(slot) = self.find_slot(key) {
            let idx = self.table[slot];
            self.arena[idx as usize].value = value;
            if idx != self.head {
                self.detach(idx);
                self.attach_front(idx);
            }
            return None;
        }
        let mut evicted = None;
        if self.len == self.capacity {
            let victim = self.tail;
            debug_assert_ne!(victim, NIL);
            self.detach(victim);
            let (old_key, old_val) = {
                let n = &self.arena[victim as usize];
                (n.key, n.value)
            };
            let slot = self.find_slot(old_key).expect("live node is indexed");
            self.table_delete(slot);
            self.free.push(victim);
            self.len -= 1;
            evicted = Some((old_key, old_val));
        }
        let node = Node {
            key,
            value,
            prev: NIL,
            next: NIL,
        };
        let idx = if let Some(i) = self.free.pop() {
            self.arena[i as usize] = node;
            i
        } else {
            self.arena.push(node);
            (self.arena.len() - 1) as u32
        };
        self.table_insert(key, idx);
        self.attach_front(idx);
        self.len += 1;
        evicted
    }

    /// Removes `key`; returns its value if present.
    pub fn remove(&mut self, key: u64) -> Option<V> {
        let slot = self.find_slot(key)?;
        let idx = self.table[slot];
        self.table_delete(slot);
        self.detach(idx);
        self.free.push(idx);
        self.len -= 1;
        Some(self.arena[idx as usize].value)
    }

    /// Removes all entries. Keeps the table and arena allocations.
    pub fn clear(&mut self) {
        self.table.fill(EMPTY);
        self.arena.clear();
        self.free.clear();
        self.head = NIL;
        self.tail = NIL;
        self.len = 0;
    }

    /// Keys from most to least recently used (test helper; O(len)).
    pub fn keys_mru_order(&self) -> Vec<u64> {
        let mut out = Vec::with_capacity(self.len);
        let mut cur = self.head;
        while cur != NIL {
            out.push(self.arena[cur as usize].key);
            cur = self.arena[cur as usize].next;
        }
        out
    }

    /// Serializes the cache *logically*: capacity plus the `(key, value)`
    /// pairs in MRU-to-LRU order, with `f` encoding each value. The
    /// open-addressed table layout and arena slot assignment are not
    /// captured — every observable behaviour (get/peek/insert/evict order)
    /// depends only on the recency list, which is reproduced exactly.
    pub fn snap_with(
        &self,
        w: &mut fns_snap::SnapWriter,
        mut f: impl FnMut(&mut fns_snap::SnapWriter, &V),
    ) {
        w.usize(self.capacity);
        w.seq(self.len);
        let mut cur = self.head;
        while cur != NIL {
            let n = &self.arena[cur as usize];
            w.u64(n.key);
            f(w, &n.value);
            cur = n.next;
        }
    }

    /// Rebuilds a cache captured by [`Lru64::snap_with`], with `f` decoding
    /// each value. Entries are inserted LRU-first so the restored recency
    /// order matches the snapshot. More entries than the capacity, or a
    /// repeated key, is refused rather than evicted or merged.
    pub fn unsnap_with(
        r: &mut fns_snap::SnapReader,
        mut f: impl FnMut(&mut fns_snap::SnapReader) -> Result<V, fns_snap::SnapError>,
    ) -> Result<Self, fns_snap::SnapError> {
        let capacity = r.usize()?;
        // Real caches hold thousands of entries; a zero or absurd capacity
        // is corruption, refused before it sizes the table.
        if capacity == 0 || capacity > MAX_RESTORED_CAPACITY {
            return Err(fns_snap::SnapError::BadTag {
                what: "LRU capacity",
                tag: capacity as u64,
            });
        }
        let n = r.seq()?;
        // Inserting more entries than fit would silently evict some.
        if n > capacity {
            return Err(fns_snap::SnapError::BadTag {
                what: "LRU entry count",
                tag: n as u64,
            });
        }
        let mut pairs = Vec::with_capacity(n);
        for _ in 0..n {
            let key = r.u64()?;
            pairs.push((key, f(r)?));
        }
        let mut cache = Lru64::new(capacity);
        for (key, value) in pairs.into_iter().rev() {
            cache.insert(key, value);
        }
        // Nothing was evicted, so a shortfall is a repeated key merged into
        // one entry.
        if cache.len() != n {
            return Err(fns_snap::SnapError::BadTag {
                what: "repeated LRU key",
                tag: (n - cache.len()) as u64,
            });
        }
        Ok(cache)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A resealed image of a capacity-4 cache holding keys 3, 2, 1 (MRU
    /// first), with `edit` applied to its body.
    fn edited_image(edit: impl FnOnce(&mut [u8])) -> Vec<u8> {
        let mut c = Lru64::new(4);
        for k in 1..=3u64 {
            c.insert(k, k * 10);
        }
        let mut w = fns_snap::SnapWriter::new();
        c.snap_with(&mut w, |w, v| w.u64(*v));
        let mut bytes = w.finish();
        edit(&mut bytes);
        fns_snap::reseal(&mut bytes);
        bytes
    }

    fn unsnap_image(bytes: &[u8]) -> Result<Lru64<u64>, fns_snap::SnapError> {
        let mut r = fns_snap::SnapReader::new(bytes).unwrap();
        Lru64::unsnap_with(&mut r, |r| r.u64())
    }

    #[test]
    fn unsnap_refuses_entries_it_would_evict_or_merge() {
        // Header (12 bytes), capacity, count, then (key, value) pairs.
        let (capacity, first_key, second_key) = (12, 28, 44);
        let back = unsnap_image(&edited_image(|_| {})).unwrap();
        assert_eq!(back.keys_mru_order(), [3, 2, 1]);
        let overfull = edited_image(|b| b[capacity] = 2);
        assert!(matches!(
            unsnap_image(&overfull),
            Err(fns_snap::SnapError::BadTag {
                what: "LRU entry count",
                tag: 3
            })
        ));
        let repeated = edited_image(|b| b.copy_within(first_key..first_key + 8, second_key));
        assert!(matches!(
            unsnap_image(&repeated),
            Err(fns_snap::SnapError::BadTag {
                what: "repeated LRU key",
                tag: 1
            })
        ));
    }

    #[test]
    fn evicts_least_recently_used() {
        let mut c = Lru64::new(3);
        c.insert(1, 10);
        c.insert(2, 20);
        c.insert(3, 30);
        c.get(1);
        let evicted = c.insert(4, 40);
        assert_eq!(evicted, Some((2, 20)));
        assert_eq!(c.keys_mru_order(), vec![4, 1, 3]);
    }

    #[test]
    fn update_refreshes_recency() {
        let mut c = Lru64::new(2);
        c.insert(1, 10);
        c.insert(2, 20);
        c.insert(1, 11); // update, not insert
        assert_eq!(c.len(), 2);
        let evicted = c.insert(3, 30);
        assert_eq!(evicted, Some((2, 20)));
        assert_eq!(c.get(1), Some(11));
    }

    #[test]
    fn remove_frees_slot() {
        let mut c = Lru64::new(2);
        c.insert(1, 10);
        assert_eq!(c.remove(1), Some(10));
        assert_eq!(c.remove(1), None);
        assert!(c.is_empty());
        c.insert(2, 20);
        c.insert(3, 30);
        assert_eq!(c.len(), 2);
        assert!(c.arena.len() <= 2, "arena reuses freed slots");
    }

    #[test]
    fn peek_does_not_touch() {
        let mut c = Lru64::new(2);
        c.insert(1, 10);
        c.insert(2, 20);
        c.peek(1);
        let evicted = c.insert(3, 30);
        assert_eq!(evicted, Some((1, 10)), "peek must not refresh recency");
    }

    #[test]
    fn clear_resets() {
        let mut c = Lru64::new(2);
        c.insert(1, 10);
        c.clear();
        assert!(c.is_empty());
        assert!(!c.contains(1));
        c.insert(2, 20);
        assert_eq!(c.get(2), Some(20));
    }

    #[test]
    fn single_entry_cache() {
        let mut c = Lru64::new(1);
        c.insert(1, 10);
        assert_eq!(c.insert(2, 20), Some((1, 10)));
        assert_eq!(c.get(2), Some(20));
    }

    #[test]
    #[should_panic(expected = "zero-capacity")]
    fn zero_capacity_panics() {
        Lru64::<u64>::new(0);
    }

    #[test]
    fn colliding_keys_probe_and_delete_cleanly() {
        // Keys chosen to share low bits; the multiplicative hash spreads
        // them, but a small table still forces probe chains. Exercise
        // insert/delete interleavings that stress backward-shift deletion.
        let mut c = Lru64::new(4); // table of 8 slots
        for k in [0u64, 8, 16, 24] {
            c.insert(k, k);
        }
        assert_eq!(c.len(), 4);
        assert_eq!(c.remove(8), Some(8));
        // Every surviving key must remain reachable after the shift.
        assert_eq!(c.get(0), Some(0));
        assert_eq!(c.get(16), Some(16));
        assert_eq!(c.get(24), Some(24));
        c.insert(8, 88);
        assert_eq!(c.get(8), Some(88));
    }

    #[test]
    fn heavy_churn_consistency() {
        let mut c = Lru64::new(16);
        for i in 0..10_000u64 {
            c.insert(i % 64, i);
            if i % 3 == 0 {
                c.remove((i / 2) % 64);
            }
            assert!(c.len() <= 16);
            assert_eq!(c.keys_mru_order().len(), c.len());
        }
    }

    #[test]
    fn no_allocation_growth_in_steady_state() {
        let mut c = Lru64::new(32);
        for i in 0..64u64 {
            c.insert(i, i);
        }
        let arena_cap = c.arena.capacity();
        let free_cap = c.free.capacity();
        for i in 64..50_000u64 {
            c.insert(i, i); // evicts every time
        }
        assert_eq!(c.arena.capacity(), arena_cap, "arena grew under churn");
        assert_eq!(c.free.capacity(), free_cap, "free list grew under churn");
    }
}
