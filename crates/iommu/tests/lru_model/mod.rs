//! The generic O(1) LRU cache that [`Lru64`](fns_iommu::lru64::Lru64) is
//! proven against: the reference model of `lru_equivalence.rs`.
//!
//! Implemented as a hash map into an arena of doubly linked nodes; all
//! operations (lookup-with-touch, insert, remove) are O(1). No `unsafe`:
//! links are arena indices and values live in `Option` slots.

use std::collections::HashMap;
use std::hash::Hash;

const NIL: usize = usize::MAX;

#[derive(Debug, Clone)]
struct LruNode<K, V> {
    key: K,
    value: Option<V>,
    prev: usize,
    next: usize,
}

/// A fixed-capacity least-recently-used cache.
#[derive(Debug, Clone)]
pub struct LruCache<K, V> {
    map: HashMap<K, usize>,
    arena: Vec<LruNode<K, V>>,
    free: Vec<usize>,
    head: usize, // most recently used
    tail: usize, // least recently used
    capacity: usize,
}

impl<K: Eq + Hash + Clone, V> LruCache<K, V> {
    /// Creates a cache holding at most `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "zero-capacity LRU");
        Self {
            map: HashMap::with_capacity(capacity),
            arena: Vec::with_capacity(capacity),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            capacity,
        }
    }

    /// Number of entries currently cached.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Returns `true` if the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    fn detach(&mut self, idx: usize) {
        let (prev, next) = (self.arena[idx].prev, self.arena[idx].next);
        if prev != NIL {
            self.arena[prev].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.arena[next].prev = prev;
        } else {
            self.tail = prev;
        }
    }

    fn attach_front(&mut self, idx: usize) {
        self.arena[idx].prev = NIL;
        self.arena[idx].next = self.head;
        if self.head != NIL {
            self.arena[self.head].prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }

    /// Looks up `key`, marking it most recently used on a hit.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        let idx = *self.map.get(key)?;
        self.detach(idx);
        self.attach_front(idx);
        self.arena[idx].value.as_ref()
    }

    /// Looks up `key` without updating recency (for inspection in tests).
    pub fn peek(&self, key: &K) -> Option<&V> {
        self.map
            .get(key)
            .and_then(|&i| self.arena[i].value.as_ref())
    }

    /// Returns `true` if `key` is cached (no recency update).
    pub fn contains(&self, key: &K) -> bool {
        self.map.contains_key(key)
    }

    /// Inserts or updates `key`, evicting the LRU entry if at capacity.
    /// Returns the evicted `(key, value)` pair, if any.
    pub fn insert(&mut self, key: K, value: V) -> Option<(K, V)> {
        if let Some(&idx) = self.map.get(&key) {
            self.arena[idx].value = Some(value);
            self.detach(idx);
            self.attach_front(idx);
            return None;
        }
        let mut evicted = None;
        if self.map.len() == self.capacity {
            let victim = self.tail;
            debug_assert_ne!(victim, NIL);
            self.detach(victim);
            let old_key = self.arena[victim].key.clone();
            let old_val = self.arena[victim]
                .value
                .take()
                .expect("live node has value");
            self.map.remove(&old_key);
            self.free.push(victim);
            evicted = Some((old_key, old_val));
        }
        let node = LruNode {
            key: key.clone(),
            value: Some(value),
            prev: NIL,
            next: NIL,
        };
        let idx = if let Some(i) = self.free.pop() {
            self.arena[i] = node;
            i
        } else {
            self.arena.push(node);
            self.arena.len() - 1
        };
        self.map.insert(key, idx);
        self.attach_front(idx);
        evicted
    }

    /// Removes `key`; returns its value if present.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let idx = self.map.remove(key)?;
        self.detach(idx);
        self.free.push(idx);
        self.arena[idx].value.take()
    }

    /// Removes every entry for which `pred` returns `true`; returns how many
    /// were removed. O(len).
    pub fn remove_matching(&mut self, mut pred: impl FnMut(&K) -> bool) -> usize {
        let victims: Vec<K> = self.map.keys().filter(|k| pred(k)).cloned().collect();
        let n = victims.len();
        for k in victims {
            self.remove(&k);
        }
        n
    }

    /// Removes all entries.
    pub fn clear(&mut self) {
        self.map.clear();
        self.arena.clear();
        self.free.clear();
        self.head = NIL;
        self.tail = NIL;
    }

    /// Keys from most to least recently used (test helper; O(len)).
    pub fn keys_mru_order(&self) -> Vec<K> {
        let mut out = Vec::with_capacity(self.map.len());
        let mut cur = self.head;
        while cur != NIL {
            out.push(self.arena[cur].key.clone());
            cur = self.arena[cur].next;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evicts_least_recently_used() {
        let mut c = LruCache::new(3);
        c.insert(1, 10);
        c.insert(2, 20);
        c.insert(3, 30);
        c.get(&1);
        let evicted = c.insert(4, 40);
        assert_eq!(evicted, Some((2, 20)));
        assert_eq!(c.keys_mru_order(), vec![4, 1, 3]);
    }

    #[test]
    fn update_refreshes_recency() {
        let mut c = LruCache::new(2);
        c.insert(1, 10);
        c.insert(2, 20);
        c.insert(1, 11); // update, not insert
        assert_eq!(c.len(), 2);
        let evicted = c.insert(3, 30);
        assert_eq!(evicted, Some((2, 20)));
        assert_eq!(c.get(&1), Some(&11));
    }

    #[test]
    fn remove_frees_slot() {
        let mut c = LruCache::new(2);
        c.insert(1, 10);
        assert_eq!(c.remove(&1), Some(10));
        assert_eq!(c.remove(&1), None);
        assert!(c.is_empty());
        c.insert(2, 20);
        c.insert(3, 30);
        assert_eq!(c.len(), 2);
        // Arena reuses the freed slot.
        assert!(c.arena.len() <= 2);
    }

    #[test]
    fn remove_matching_bulk() {
        let mut c = LruCache::new(8);
        for i in 0..8 {
            c.insert(i, i * 10);
        }
        let n = c.remove_matching(|k| k % 2 == 0);
        assert_eq!(n, 4);
        assert_eq!(c.len(), 4);
        assert!(!c.contains(&0));
        assert!(c.contains(&1));
    }

    #[test]
    fn peek_does_not_touch() {
        let mut c = LruCache::new(2);
        c.insert(1, 10);
        c.insert(2, 20);
        c.peek(&1);
        let evicted = c.insert(3, 30);
        assert_eq!(evicted, Some((1, 10)), "peek must not refresh recency");
    }

    #[test]
    fn clear_resets() {
        let mut c = LruCache::new(2);
        c.insert(1, 10);
        c.clear();
        assert!(c.is_empty());
        c.insert(2, 20);
        assert_eq!(c.get(&2), Some(&20));
    }

    #[test]
    fn single_entry_cache() {
        let mut c = LruCache::new(1);
        c.insert(1, 10);
        assert_eq!(c.insert(2, 20), Some((1, 10)));
        assert_eq!(c.get(&2), Some(&20));
    }

    #[test]
    #[should_panic(expected = "zero-capacity")]
    fn zero_capacity_panics() {
        LruCache::<u64, u64>::new(0);
    }

    #[test]
    fn heavy_churn_consistency() {
        let mut c = LruCache::new(16);
        for i in 0..10_000u64 {
            c.insert(i % 64, i);
            if i % 3 == 0 {
                c.remove(&((i / 2) % 64));
            }
            assert!(c.len() <= 16);
            // Linked list length must equal map length.
            assert_eq!(c.keys_mru_order().len(), c.len());
        }
    }
}
