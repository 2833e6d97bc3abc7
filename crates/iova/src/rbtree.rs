//! Arena-based red-black interval tree of allocated IOVA ranges.
//!
//! Linux's IOVA allocator (`drivers/iommu/iova.c`) keeps every allocated
//! range in a red-black tree ordered by start pfn; allocation searches for a
//! gap between neighbouring nodes, top-down from the end of the address
//! space. This module implements that tree from scratch (CLRS-style, arena
//! indices instead of pointers, zero `unsafe`), exposing exactly the
//! operations the allocator needs: insert, remove, ordered neighbour
//! traversal, and rightmost lookup.
//!
//! Invariants (checked by [`RbIntervalTree::check_invariants`] and exercised
//! by property tests):
//!
//! 1. Binary-search-tree order on `pfn_lo`, with no overlapping ranges.
//! 2. Red nodes have black children.
//! 3. Every root-to-leaf path has the same black height.

/// Sentinel index representing the absent child ("NIL" leaf).
const NIL: usize = usize::MAX;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Color {
    Red,
    Black,
}

#[derive(Debug, Clone)]
struct Node {
    lo: u64,
    hi: u64,
    color: Color,
    parent: usize,
    left: usize,
    right: usize,
}

/// A red-black tree of disjoint `[lo, hi]` pfn ranges.
///
/// # Examples
///
/// ```
/// use fns_iova::rbtree::RbIntervalTree;
///
/// let mut t = RbIntervalTree::new();
/// t.insert(10, 19).unwrap();
/// t.insert(30, 39).unwrap();
/// assert!(t.insert(15, 25).is_err()); // overlap rejected
/// assert_eq!(t.last(), Some((30, 39)));
/// assert_eq!(t.prev_below(30), Some((10, 19)));
/// assert!(t.remove(10));
/// assert_eq!(t.len(), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct RbIntervalTree {
    arena: Vec<Node>,
    free: Vec<usize>,
    root: usize,
    len: usize,
}

/// Error returned when inserting a range that overlaps an existing one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OverlapError {
    /// The conflicting existing range.
    pub existing: (u64, u64),
}

impl std::fmt::Display for OverlapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "range overlaps existing [{}, {}]",
            self.existing.0, self.existing.1
        )
    }
}

impl std::error::Error for OverlapError {}

impl RbIntervalTree {
    /// Creates an empty tree.
    pub fn new() -> Self {
        Self {
            arena: Vec::new(),
            free: Vec::new(),
            root: NIL,
            len: 0,
        }
    }

    /// Number of ranges in the tree.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if the tree holds no ranges.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn node(&self, i: usize) -> &Node {
        &self.arena[i]
    }

    fn node_mut(&mut self, i: usize) -> &mut Node {
        &mut self.arena[i]
    }

    fn alloc_node(&mut self, lo: u64, hi: u64) -> usize {
        let n = Node {
            lo,
            hi,
            color: Color::Red,
            parent: NIL,
            left: NIL,
            right: NIL,
        };
        if let Some(i) = self.free.pop() {
            self.arena[i] = n;
            i
        } else {
            self.arena.push(n);
            self.arena.len() - 1
        }
    }

    /// Inserts the inclusive pfn range `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn insert(&mut self, lo: u64, hi: u64) -> Result<(), OverlapError> {
        assert!(lo <= hi, "inverted range [{lo}, {hi}]");
        // Standard BST descent, rejecting overlap.
        let mut parent = NIL;
        let mut cur = self.root;
        while cur != NIL {
            let n = self.node(cur);
            if hi < n.lo {
                parent = cur;
                cur = n.left;
            } else if lo > n.hi {
                parent = cur;
                cur = n.right;
            } else {
                return Err(OverlapError {
                    existing: (n.lo, n.hi),
                });
            }
        }
        let idx = self.alloc_node(lo, hi);
        self.node_mut(idx).parent = parent;
        if parent == NIL {
            self.root = idx;
        } else if hi < self.node(parent).lo {
            self.node_mut(parent).left = idx;
        } else {
            self.node_mut(parent).right = idx;
        }
        self.len += 1;
        self.insert_fixup(idx);
        Ok(())
    }

    /// Removes the range starting exactly at `lo`; returns `false` if absent.
    pub fn remove(&mut self, lo: u64) -> bool {
        let Some(idx) = self.find_index(lo) else {
            return false;
        };
        self.delete(idx);
        self.len -= 1;
        true
    }

    /// Looks up the range starting exactly at `lo`.
    pub fn get(&self, lo: u64) -> Option<(u64, u64)> {
        self.find_index(lo).map(|i| {
            let n = self.node(i);
            (n.lo, n.hi)
        })
    }

    /// Finds the range containing `pfn`, if any.
    pub fn containing(&self, pfn: u64) -> Option<(u64, u64)> {
        let mut cur = self.root;
        while cur != NIL {
            let n = self.node(cur);
            if pfn < n.lo {
                cur = n.left;
            } else if pfn > n.hi {
                cur = n.right;
            } else {
                return Some((n.lo, n.hi));
            }
        }
        None
    }

    /// Rightmost (highest) range.
    pub fn last(&self) -> Option<(u64, u64)> {
        if self.root == NIL {
            return None;
        }
        let i = self.maximum(self.root);
        let n = self.node(i);
        Some((n.lo, n.hi))
    }

    /// Highest range whose `lo` is strictly below `pfn`.
    pub fn prev_below(&self, pfn: u64) -> Option<(u64, u64)> {
        self.prev_below_node(pfn).map(|(_, range)| range)
    }

    /// The highest range whose `lo` is strictly below `pfn`, with its arena
    /// index. Carrying the range out of the descent (rather than re-reading
    /// it by index) keeps the compiled loop branchy: with one select per
    /// level it becomes a data-dependent pointer chase that costs ~25% more
    /// on the allocator's predictable descents.
    pub(crate) fn prev_below_node(&self, pfn: u64) -> Option<(usize, (u64, u64))> {
        let mut best = None;
        let mut cur = self.root;
        while cur != NIL {
            let n = self.node(cur);
            if n.lo < pfn {
                best = Some((cur, (n.lo, n.hi)));
                cur = n.right;
            } else {
                cur = n.left;
            }
        }
        best
    }

    /// Arena index of the in-order predecessor of node `i`, found through
    /// the parent links: a descending walk over `k` consecutive ranges
    /// costs `O(k + log n)` in all, not `k` fresh descents.
    pub(crate) fn predecessor(&self, i: usize) -> Option<usize> {
        let left = self.node(i).left;
        if left != NIL {
            return Some(self.maximum(left));
        }
        let (mut child, mut parent) = (i, self.node(i).parent);
        while parent != NIL && self.node(parent).left == child {
            (child, parent) = (parent, self.node(parent).parent);
        }
        (parent != NIL).then_some(parent)
    }

    /// The `[lo, hi]` range stored at node `i`.
    pub(crate) fn range(&self, i: usize) -> (u64, u64) {
        let n = self.node(i);
        (n.lo, n.hi)
    }

    /// In-order (ascending) list of all ranges.
    pub fn iter_inorder(&self) -> Vec<(u64, u64)> {
        let mut out = Vec::with_capacity(self.len);
        self.inorder(self.root, &mut out);
        out
    }

    fn inorder(&self, i: usize, out: &mut Vec<(u64, u64)>) {
        if i == NIL {
            return;
        }
        let n = self.node(i);
        self.inorder(n.left, out);
        out.push((n.lo, n.hi));
        self.inorder(n.right, out);
    }

    fn find_index(&self, lo: u64) -> Option<usize> {
        let mut cur = self.root;
        while cur != NIL {
            let n = self.node(cur);
            if lo < n.lo {
                cur = n.left;
            } else if lo > n.lo {
                cur = n.right;
            } else {
                return Some(cur);
            }
        }
        None
    }

    fn minimum(&self, mut i: usize) -> usize {
        while self.node(i).left != NIL {
            i = self.node(i).left;
        }
        i
    }

    fn maximum(&self, mut i: usize) -> usize {
        while self.node(i).right != NIL {
            i = self.node(i).right;
        }
        i
    }

    fn rotate_left(&mut self, x: usize) {
        let y = self.node(x).right;
        debug_assert_ne!(y, NIL);
        let y_left = self.node(y).left;
        self.node_mut(x).right = y_left;
        if y_left != NIL {
            self.node_mut(y_left).parent = x;
        }
        let xp = self.node(x).parent;
        self.node_mut(y).parent = xp;
        if xp == NIL {
            self.root = y;
        } else if self.node(xp).left == x {
            self.node_mut(xp).left = y;
        } else {
            self.node_mut(xp).right = y;
        }
        self.node_mut(y).left = x;
        self.node_mut(x).parent = y;
    }

    fn rotate_right(&mut self, x: usize) {
        let y = self.node(x).left;
        debug_assert_ne!(y, NIL);
        let y_right = self.node(y).right;
        self.node_mut(x).left = y_right;
        if y_right != NIL {
            self.node_mut(y_right).parent = x;
        }
        let xp = self.node(x).parent;
        self.node_mut(y).parent = xp;
        if xp == NIL {
            self.root = y;
        } else if self.node(xp).right == x {
            self.node_mut(xp).right = y;
        } else {
            self.node_mut(xp).left = y;
        }
        self.node_mut(y).right = x;
        self.node_mut(x).parent = y;
    }

    fn color_of(&self, i: usize) -> Color {
        if i == NIL {
            Color::Black
        } else {
            self.node(i).color
        }
    }

    fn insert_fixup(&mut self, mut z: usize) {
        while z != self.root && self.color_of(self.node(z).parent) == Color::Red {
            let p = self.node(z).parent;
            let g = self.node(p).parent;
            debug_assert_ne!(g, NIL, "red parent must have a parent");
            if p == self.node(g).left {
                let u = self.node(g).right;
                if self.color_of(u) == Color::Red {
                    self.node_mut(p).color = Color::Black;
                    self.node_mut(u).color = Color::Black;
                    self.node_mut(g).color = Color::Red;
                    z = g;
                } else {
                    if z == self.node(p).right {
                        z = p;
                        self.rotate_left(z);
                    }
                    let p = self.node(z).parent;
                    let g = self.node(p).parent;
                    self.node_mut(p).color = Color::Black;
                    self.node_mut(g).color = Color::Red;
                    self.rotate_right(g);
                }
            } else {
                let u = self.node(g).left;
                if self.color_of(u) == Color::Red {
                    self.node_mut(p).color = Color::Black;
                    self.node_mut(u).color = Color::Black;
                    self.node_mut(g).color = Color::Red;
                    z = g;
                } else {
                    if z == self.node(p).left {
                        z = p;
                        self.rotate_right(z);
                    }
                    let p = self.node(z).parent;
                    let g = self.node(p).parent;
                    self.node_mut(p).color = Color::Black;
                    self.node_mut(g).color = Color::Red;
                    self.rotate_left(g);
                }
            }
        }
        let r = self.root;
        self.node_mut(r).color = Color::Black;
    }

    /// Replaces subtree rooted at `u` with subtree rooted at `v` (CLRS
    /// transplant). `v` may be NIL; `fix_parent` records the parent `v`
    /// should be considered attached to for the delete fixup.
    fn transplant(&mut self, u: usize, v: usize) -> usize {
        let up = self.node(u).parent;
        if up == NIL {
            self.root = v;
        } else if self.node(up).left == u {
            self.node_mut(up).left = v;
        } else {
            self.node_mut(up).right = v;
        }
        if v != NIL {
            self.node_mut(v).parent = up;
        }
        up
    }

    fn delete(&mut self, z: usize) {
        // CLRS delete, adapted for NIL-as-sentinel-index: we track the fixup
        // node `x` together with its effective parent, because x may be NIL.
        let mut y = z;
        let mut y_orig_color = self.node(y).color;
        let x: usize;
        let x_parent: usize;
        if self.node(z).left == NIL {
            x = self.node(z).right;
            x_parent = self.transplant(z, x);
        } else if self.node(z).right == NIL {
            x = self.node(z).left;
            x_parent = self.transplant(z, x);
        } else {
            y = self.minimum(self.node(z).right);
            y_orig_color = self.node(y).color;
            x = self.node(y).right;
            if self.node(y).parent == z {
                x_parent = y;
                if x != NIL {
                    self.node_mut(x).parent = y;
                }
            } else {
                x_parent = self.transplant(y, x);
                let zr = self.node(z).right;
                self.node_mut(y).right = zr;
                self.node_mut(zr).parent = y;
            }
            self.transplant(z, y);
            let zl = self.node(z).left;
            self.node_mut(y).left = zl;
            self.node_mut(zl).parent = y;
            self.node_mut(y).color = self.node(z).color;
        }
        if y_orig_color == Color::Black {
            self.delete_fixup(x, x_parent);
        }
        self.free.push(z);
    }

    fn delete_fixup(&mut self, mut x: usize, mut parent: usize) {
        while x != self.root && self.color_of(x) == Color::Black {
            if parent == NIL {
                break;
            }
            if x == self.node(parent).left {
                let mut w = self.node(parent).right;
                if self.color_of(w) == Color::Red {
                    self.node_mut(w).color = Color::Black;
                    self.node_mut(parent).color = Color::Red;
                    self.rotate_left(parent);
                    w = self.node(parent).right;
                }
                if self.color_of(self.node(w).left) == Color::Black
                    && self.color_of(self.node(w).right) == Color::Black
                {
                    self.node_mut(w).color = Color::Red;
                    x = parent;
                    parent = self.node(x).parent;
                } else {
                    if self.color_of(self.node(w).right) == Color::Black {
                        let wl = self.node(w).left;
                        if wl != NIL {
                            self.node_mut(wl).color = Color::Black;
                        }
                        self.node_mut(w).color = Color::Red;
                        self.rotate_right(w);
                        w = self.node(parent).right;
                    }
                    self.node_mut(w).color = self.node(parent).color;
                    self.node_mut(parent).color = Color::Black;
                    let wr = self.node(w).right;
                    if wr != NIL {
                        self.node_mut(wr).color = Color::Black;
                    }
                    self.rotate_left(parent);
                    x = self.root;
                    break;
                }
            } else {
                let mut w = self.node(parent).left;
                if self.color_of(w) == Color::Red {
                    self.node_mut(w).color = Color::Black;
                    self.node_mut(parent).color = Color::Red;
                    self.rotate_right(parent);
                    w = self.node(parent).left;
                }
                if self.color_of(self.node(w).right) == Color::Black
                    && self.color_of(self.node(w).left) == Color::Black
                {
                    self.node_mut(w).color = Color::Red;
                    x = parent;
                    parent = self.node(x).parent;
                } else {
                    if self.color_of(self.node(w).left) == Color::Black {
                        let wr = self.node(w).right;
                        if wr != NIL {
                            self.node_mut(wr).color = Color::Black;
                        }
                        self.node_mut(w).color = Color::Red;
                        self.rotate_left(w);
                        w = self.node(parent).left;
                    }
                    self.node_mut(w).color = self.node(parent).color;
                    self.node_mut(parent).color = Color::Black;
                    let wl = self.node(w).left;
                    if wl != NIL {
                        self.node_mut(wl).color = Color::Black;
                    }
                    self.rotate_right(parent);
                    x = self.root;
                    break;
                }
            }
        }
        if x != NIL {
            self.node_mut(x).color = Color::Black;
        }
    }

    /// Verifies all red-black and ordering invariants; returns an error
    /// string describing the first violation. Used by tests.
    pub fn check_invariants(&self) -> Result<(), String> {
        if self.root == NIL {
            if self.len != 0 {
                return Err(format!("empty tree but len = {}", self.len));
            }
            return Ok(());
        }
        if self.color_of(self.root) != Color::Black {
            return Err("root is red".into());
        }
        if self.node(self.root).parent != NIL {
            return Err("root has a parent".into());
        }
        let mut count = 0;
        self.check_subtree(self.root, None, None, &mut count)?;
        if count != self.len {
            return Err(format!("len {} but counted {count}", self.len));
        }
        Ok(())
    }

    /// Returns the black height of the subtree and checks all invariants.
    fn check_subtree(
        &self,
        i: usize,
        min: Option<u64>,
        max: Option<u64>,
        count: &mut usize,
    ) -> Result<u32, String> {
        if i == NIL {
            return Ok(1);
        }
        *count += 1;
        let n = self.node(i);
        if n.lo > n.hi {
            return Err(format!("inverted range at [{}, {}]", n.lo, n.hi));
        }
        if let Some(m) = min {
            if n.lo <= m {
                return Err(format!("order violation: {} <= min bound {m}", n.lo));
            }
        }
        if let Some(m) = max {
            if n.hi >= m {
                return Err(format!("order violation: {} >= max bound {m}", n.hi));
            }
        }
        if n.color == Color::Red
            && (self.color_of(n.left) == Color::Red || self.color_of(n.right) == Color::Red)
        {
            return Err(format!("red node [{}, {}] has a red child", n.lo, n.hi));
        }
        for &c in [n.left, n.right].iter() {
            if c != NIL && self.node(c).parent != i {
                return Err("broken parent pointer".into());
            }
        }
        let lh = self.check_subtree(n.left, min, Some(n.lo), count)?;
        let rh = self.check_subtree(n.right, Some(n.hi), max, count)?;
        if lh != rh {
            return Err(format!("black-height mismatch: {lh} vs {rh}"));
        }
        Ok(lh + if n.color == Color::Black { 1 } else { 0 })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_order() {
        let mut t = RbIntervalTree::new();
        for lo in [50u64, 10, 30, 70, 20] {
            t.insert(lo, lo + 5).unwrap();
            t.check_invariants().unwrap();
        }
        assert_eq!(
            t.iter_inorder(),
            vec![(10, 15), (20, 25), (30, 35), (50, 55), (70, 75)]
        );
        assert_eq!(t.last(), Some((70, 75)));
    }

    #[test]
    fn overlap_rejected() {
        let mut t = RbIntervalTree::new();
        t.insert(10, 20).unwrap();
        assert!(t.insert(20, 30).is_err());
        assert!(t.insert(5, 10).is_err());
        assert!(t.insert(12, 18).is_err());
        assert!(t.insert(0, 100).is_err());
        t.insert(21, 30).unwrap();
        t.insert(0, 9).unwrap();
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn remove_and_rebalance() {
        let mut t = RbIntervalTree::new();
        for lo in 0..100u64 {
            t.insert(lo * 10, lo * 10 + 5).unwrap();
        }
        for lo in (0..100u64).step_by(2) {
            assert!(t.remove(lo * 10));
            t.check_invariants().unwrap();
        }
        assert_eq!(t.len(), 50);
        assert!(!t.remove(0));
    }

    #[test]
    fn containing_lookup() {
        let mut t = RbIntervalTree::new();
        t.insert(100, 163).unwrap();
        assert_eq!(t.containing(100), Some((100, 163)));
        assert_eq!(t.containing(163), Some((100, 163)));
        assert_eq!(t.containing(99), None);
        assert_eq!(t.containing(164), None);
    }

    #[test]
    fn prev_below_walks_down() {
        let mut t = RbIntervalTree::new();
        t.insert(10, 19).unwrap();
        t.insert(40, 49).unwrap();
        t.insert(70, 79).unwrap();
        assert_eq!(t.prev_below(70), Some((40, 49)));
        assert_eq!(t.prev_below(40), Some((10, 19)));
        assert_eq!(t.prev_below(10), None);
        assert_eq!(t.prev_below(u64::MAX), Some((70, 79)));
    }

    #[test]
    fn node_reuse_after_remove() {
        let mut t = RbIntervalTree::new();
        t.insert(1, 1).unwrap();
        t.remove(1);
        t.insert(2, 2).unwrap();
        // Arena should not grow beyond one node.
        assert_eq!(t.arena.len(), 1);
    }

    #[test]
    fn ascending_descending_torture() {
        let mut t = RbIntervalTree::new();
        for lo in 0..500u64 {
            t.insert(lo * 2, lo * 2).unwrap();
        }
        t.check_invariants().unwrap();
        for lo in (0..500u64).rev() {
            assert!(t.remove(lo * 2));
        }
        t.check_invariants().unwrap();
        assert!(t.is_empty());
    }

    #[test]
    fn get_exact() {
        let mut t = RbIntervalTree::new();
        t.insert(5, 9).unwrap();
        assert_eq!(t.get(5), Some((5, 9)));
        assert_eq!(t.get(6), None);
    }
}
