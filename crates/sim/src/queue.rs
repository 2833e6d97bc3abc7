//! Deterministic event queue with a monotonic clock.
//!
//! Events are ordered by `(timestamp, sequence number)`. The sequence number
//! breaks ties in insertion order, which makes every simulation run
//! bit-reproducible: two events scheduled for the same nanosecond always
//! fire in the order they were pushed.
//!
//! The queue is a hierarchical timing wheel: `LEVELS` levels of `SLOTS`
//! slots each, where a level-`l` slot covers `SLOTS^l` nanoseconds. Level-0
//! slots are one nanosecond wide, so every entry in a level-0 slot shares a
//! timestamp and plain append order *is* FIFO order — no comparisons on the
//! hot path. Entries live in a slab of intrusively linked nodes; moving an
//! entry between slots is a pointer relink, never a payload copy. Events
//! beyond the wheel's horizon (`SLOTS^LEVELS` ns ≈ 16.8 ms of absolute-time
//! blocks) overflow into a sorted spill heap and migrate back a block at a
//! time when the wheel drains; the invariant "every wheel entry precedes
//! every spill entry" keeps the two regions totally ordered.
//!
//! The reference for this ordering is a plain binary min-heap over
//! `(timestamp, sequence)`. It lives in `tests/queue_equivalence.rs`, which
//! drives both through randomized schedules and requires identical pop
//! streams step for step.
//!
//! The queue honors `with_capacity`/`reserve` and counts storage growths
//! ([`EventQueue::reallocs`]) so tests can assert that a pre-sized
//! queue never reallocates in steady state.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::time::Nanos;

/// log2 of the slot count per wheel level.
const SLOT_BITS: u32 = 6;
/// Slots per level (64).
const SLOTS: usize = 1 << SLOT_BITS;
/// Wheel levels. A level-`l` slot spans `SLOTS^l` ns, so four levels cover
/// an absolute-time block of `SLOTS^4 = 2^24` ns (~16.8 ms) before events
/// overflow to the spill heap.
const LEVELS: usize = 4;
/// Bits of absolute time covered by the whole wheel.
const HORIZON_BITS: u32 = SLOT_BITS * LEVELS as u32;
/// Null link in the node slab.
const NIL: u32 = u32::MAX;

/// Slab node: timestamp, payload, and an intrusive singly-linked chain
/// through whichever slot (or the free list) currently owns it. Wheel slots
/// are FIFO chains, so only the spill heap needs the sequence number, and it
/// keeps its own copy. A node is 24 bytes for a 12-byte event; a deep
/// backlog's cascades move every node through the cache, so it pays for
/// each byte.
struct Node<E> {
    at: Nanos,
    next: u32,
    event: Option<E>,
}

/// The timing-wheel implementation. See the module docs for the layout.
///
/// Invariants:
/// * `base[l]` is the absolute-time block (`at >> (SLOT_BITS*(l+1))`)
///   currently represented by level `l`; every entry parked at level `l`
///   satisfies `block(at, l) == base[l]`.
/// * Every entry is parked at the *lowest* level whose block matches, so
///   the lowest occupied slot of the lowest occupied level always holds the
///   global minimum (after `settle`).
/// * Every spill entry is strictly beyond level `LEVELS-1`'s current block,
///   so the wheel's minimum always precedes the spill's minimum.
struct Wheel<E> {
    nodes: Vec<Node<E>>,
    free: u32,
    head: [[u32; SLOTS]; LEVELS],
    tail: [[u32; SLOTS]; LEVELS],
    occupied: [u64; LEVELS],
    base: [Nanos; LEVELS],
    spill: BinaryHeap<Reverse<(Nanos, u64, u32)>>,
    len: usize,
    grew: u64,
}

#[inline]
fn block(at: Nanos, level: usize) -> Nanos {
    at >> (SLOT_BITS * (level as u32 + 1))
}

#[inline]
fn slot(at: Nanos, level: usize) -> usize {
    ((at >> (SLOT_BITS * level as u32)) & (SLOTS as u64 - 1)) as usize
}

impl<E> Wheel<E> {
    fn with_capacity(capacity: usize) -> Self {
        Self {
            nodes: Vec::with_capacity(capacity),
            free: NIL,
            head: [[NIL; SLOTS]; LEVELS],
            tail: [[NIL; SLOTS]; LEVELS],
            occupied: [0; LEVELS],
            base: [0; LEVELS],
            spill: BinaryHeap::new(),
            len: 0,
            grew: 0,
        }
    }

    fn alloc_node(&mut self, at: Nanos, event: E) -> u32 {
        if self.free != NIL {
            let idx = self.free;
            let node = &mut self.nodes[idx as usize];
            self.free = node.next;
            node.at = at;
            node.next = NIL;
            node.event = Some(event);
            return idx;
        }
        if self.nodes.len() == self.nodes.capacity() {
            self.grew += 1;
        }
        self.nodes.push(Node {
            at,
            next: NIL,
            event: Some(event),
        });
        (self.nodes.len() - 1) as u32
    }

    #[inline]
    fn append(&mut self, level: usize, s: usize, idx: u32) {
        self.nodes[idx as usize].next = NIL;
        let tail = self.tail[level][s];
        if tail == NIL {
            self.head[level][s] = idx;
        } else {
            self.nodes[tail as usize].next = idx;
        }
        self.tail[level][s] = idx;
        self.occupied[level] |= 1u64 << s;
    }

    /// Parks node `idx` at the lowest level whose current block contains
    /// its timestamp. Returns `false`, parking nothing, when the timestamp
    /// lies past the horizon. Only a fresh push can miss: a cascade or a
    /// spill migration re-places nodes already inside the top level's
    /// block.
    fn place(&mut self, idx: u32) -> bool {
        let at = self.nodes[idx as usize].at;
        for l in 0..LEVELS {
            if block(at, l) == self.base[l] {
                self.append(l, slot(at, l), idx);
                return true;
            }
        }
        false
    }

    fn push(&mut self, at: Nanos, seq: u64, event: E) {
        let idx = self.alloc_node(at, event);
        if !self.place(idx) {
            self.spill.push(Reverse((at, seq, idx)));
        }
        self.len += 1;
    }

    /// Cascades until the global minimum sits in a level-0 slot. No-op when
    /// the queue is empty or level 0 is already occupied. Cascading only
    /// relinks nodes between slots; it never reorders the pop sequence.
    fn settle(&mut self) {
        if self.len == 0 {
            return;
        }
        loop {
            if self.occupied[0] != 0 {
                return;
            }
            if let Some(l) = (1..LEVELS).find(|&l| self.occupied[l] != 0) {
                // Drain the lowest occupied slot of the lowest occupied
                // level; its slot index pins level l-1's new block.
                let s = self.occupied[l].trailing_zeros() as usize;
                let mut cur = self.head[l][s];
                self.head[l][s] = NIL;
                self.tail[l][s] = NIL;
                self.occupied[l] &= !(1u64 << s);
                if l > 1 {
                    // Analytic fast-forward. Every level below l is empty
                    // (l is the lowest occupied level), so there is provably
                    // no event before this slot's minimum timestamp T: jump
                    // every lower base straight to T's blocks and park each
                    // node at its final level in one relink, instead of
                    // re-walking the whole slot once per intermediate level.
                    // Traversal order is the slot's FIFO order and `place`
                    // appends, so head/tail/base state after this pass is
                    // bit-identical to what the cascade converges to.
                    let mut min_at = Nanos::MAX;
                    let mut probe = cur;
                    while probe != NIL {
                        let node = &self.nodes[probe as usize];
                        min_at = min_at.min(node.at);
                        probe = node.next;
                    }
                    for k in 0..l {
                        self.base[k] = block(min_at, k);
                    }
                    while cur != NIL {
                        let next = self.nodes[cur as usize].next;
                        debug_assert_eq!(
                            block(self.nodes[cur as usize].at, l - 1),
                            self.base[l - 1]
                        );
                        assert!(self.place(cur), "cascaded node is inside the horizon");
                        cur = next;
                    }
                    // The minimum landed at level 0 by construction.
                    debug_assert_ne!(self.occupied[0], 0);
                    return;
                }
                self.base[l - 1] = (self.base[l] << SLOT_BITS) | s as u64;
                while cur != NIL {
                    let next = self.nodes[cur as usize].next;
                    let at = self.nodes[cur as usize].at;
                    debug_assert_eq!(block(at, l - 1), self.base[l - 1]);
                    self.append(l - 1, slot(at, l - 1), cur);
                    cur = next;
                }
                continue;
            }
            // Wheel empty but events pending: rebase onto the next spill
            // block and migrate every entry inside it. The block's earliest
            // entry lands at level 0, so the loop terminates next pass.
            let t = self
                .spill
                .peek()
                .expect("pending events must be spilled")
                .0
                 .0;
            for (l, b) in self.base.iter_mut().enumerate() {
                *b = block(t, l);
            }
            while let Some(&Reverse((at, _, idx))) = self.spill.peek() {
                if (at >> HORIZON_BITS) != self.base[LEVELS - 1] {
                    break;
                }
                self.spill.pop();
                assert!(
                    self.place(idx),
                    "migrated spill entry is inside the horizon"
                );
            }
        }
    }

    fn pop(&mut self) -> Option<(Nanos, E)> {
        if self.len == 0 {
            return None;
        }
        self.settle();
        let s = self.occupied[0].trailing_zeros() as usize;
        let idx = self.head[0][s];
        debug_assert_ne!(idx, NIL);
        let node = &mut self.nodes[idx as usize];
        let at = node.at;
        debug_assert_eq!(at, (self.base[0] << SLOT_BITS) | s as u64);
        let event = node.event.take().expect("parked node holds its payload");
        let next = node.next;
        node.next = self.free;
        self.free = idx;
        self.head[0][s] = next;
        if next == NIL {
            self.tail[0][s] = NIL;
            self.occupied[0] &= !(1u64 << s);
        }
        self.len -= 1;
        Some((at, event))
    }

    /// Timestamp of the earliest pending event. Settles first so the
    /// answer is a level-0 slot read; settling never changes pop order.
    fn peek_time(&mut self) -> Option<Nanos> {
        if self.len == 0 {
            return None;
        }
        self.settle();
        let s = self.occupied[0].trailing_zeros() as u64;
        Some((self.base[0] << SLOT_BITS) | s)
    }
}

/// A deterministic discrete-event queue.
///
/// Events are popped in nondecreasing timestamp order; ties are broken by
/// insertion order. Popping advances the queue's clock ([`EventQueue::now`]).
///
/// # Examples
///
/// ```
/// use fns_sim::queue::EventQueue;
///
/// let mut q = EventQueue::new();
/// q.push(10, 'a');
/// q.push(10, 'b'); // same timestamp: fires after 'a'
/// q.push(5, 'c');
/// assert_eq!(q.pop(), Some((5, 'c')));
/// assert_eq!(q.pop(), Some((10, 'a')));
/// assert_eq!(q.pop(), Some((10, 'b')));
/// assert_eq!(q.pop(), None);
/// ```
pub struct EventQueue<E> {
    wheel: Wheel<E>,
    seq: u64,
    now: Nanos,
    popped: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue with the clock at time zero.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Creates an empty queue with room for `capacity` pending events, so a
    /// workload whose steady-state backlog stays below it never reallocates
    /// on push.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            wheel: Wheel::with_capacity(capacity),
            seq: 0,
            now: 0,
            popped: 0,
        }
    }

    /// Reserves capacity for at least `additional` more pending events.
    pub fn reserve(&mut self, additional: usize) {
        self.wheel.nodes.reserve(additional);
    }

    /// Number of pending events the queue can hold without reallocating.
    pub fn capacity(&self) -> usize {
        self.wheel.nodes.capacity()
    }

    /// How many times event storage has grown since creation. A queue
    /// sized with `with_capacity` above its steady-state backlog reports
    /// zero.
    pub fn reallocs(&self) -> u64 {
        self.wheel.grew
    }

    /// Total events popped over the queue's lifetime (the denominator of
    /// the harness's events/sec throughput metric).
    pub fn total_popped(&self) -> u64 {
        self.popped
    }

    /// Current simulation time: the timestamp of the last popped event.
    pub fn now(&self) -> Nanos {
        self.now
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.wheel.len
    }

    /// Returns `true` if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Schedules `event` to fire at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past (before [`EventQueue::now`]); scheduling
    /// into the past would silently reorder causality.
    pub fn push(&mut self, at: Nanos, event: E) {
        assert!(
            at >= self.now,
            "event scheduled in the past: at={at} now={}",
            self.now
        );
        let seq = self.seq;
        self.seq += 1;
        self.wheel.push(at, seq, event);
    }

    /// Schedules `event` to fire `delay` nanoseconds from now.
    pub fn push_after(&mut self, delay: Nanos, event: E) {
        let at = self.now.saturating_add(delay);
        self.push(at, event);
    }

    /// Pops the earliest event and advances the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(Nanos, E)> {
        let (at, event) = self.wheel.pop()?;
        debug_assert!(at >= self.now);
        self.now = at;
        self.popped += 1;
        Some((at, event))
    }

    /// Timestamp of the next pending event, if any.
    pub fn peek_time(&mut self) -> Option<Nanos> {
        self.wheel.peek_time()
    }

    /// Clock and sequencing counters `(now, total_popped, next_seq)` — the
    /// checkpoint hook. A snapshot captures these, drains the pending
    /// events in pop order, then rebuilds via [`EventQueue::set_counters`].
    pub fn counters(&self) -> (Nanos, u64, u64) {
        (self.now, self.popped, self.seq)
    }

    /// Overwrites the clock and sequencing counters — the restore hook.
    ///
    /// Protocol: zero the counters, re-push the drained events in their
    /// original `(time, seq)` order (fresh ascending sequence numbers
    /// preserve their relative order), then restore the captured counters.
    /// The restored `next_seq` exceeds every re-assigned sequence number,
    /// so later pushes tie-break after the re-pushed backlog exactly as
    /// they would have in an uninterrupted run.
    pub fn set_counters(&mut self, now: Nanos, popped: u64, seq: u64) {
        self.now = now;
        self.popped = popped;
        self.seq = seq;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn orders_by_time() {
        let mut q = EventQueue::new();
        q.push(30, 3);
        q.push(10, 1);
        q.push(20, 2);
        assert_eq!(q.pop(), Some((10, 1)));
        assert_eq!(q.pop(), Some((20, 2)));
        assert_eq!(q.pop(), Some((30, 3)));
    }

    #[test]
    fn fifo_within_same_timestamp() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(42, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((42, i)));
        }
    }

    #[test]
    fn clock_advances_on_pop() {
        let mut q = EventQueue::new();
        assert_eq!(q.now(), 0);
        q.push(7, ());
        q.pop();
        assert_eq!(q.now(), 7);
    }

    #[test]
    fn push_after_is_relative() {
        let mut q = EventQueue::new();
        q.push(100, 'a');
        q.pop();
        q.push_after(50, 'b');
        assert_eq!(q.pop(), Some((150, 'b')));
    }

    #[test]
    #[should_panic(expected = "scheduled in the past")]
    fn past_scheduling_panics() {
        let mut q = EventQueue::new();
        q.push(100, ());
        q.pop();
        q.push(99, ());
    }

    #[test]
    fn len_and_empty() {
        let mut q: EventQueue<()> = EventQueue::new();
        assert!(q.is_empty());
        q.push(1, ());
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
        assert_eq!(q.peek_time(), Some(1));
    }

    #[test]
    fn steady_state_churn_never_reallocates() {
        let mut q = EventQueue::with_capacity(64);
        let cap = q.capacity();
        assert!(cap >= 64);
        // Fill to half capacity, then churn pop/push far past the initial
        // fill: a steady-state backlog below capacity must never grow the
        // event storage.
        for i in 0..32u64 {
            q.push(i, i);
        }
        for i in 32..10_000u64 {
            let (_, _) = q.pop().expect("backlog nonempty");
            q.push(i, i);
            assert_eq!(q.capacity(), cap, "steady-state push reallocated");
        }
        assert_eq!(q.total_popped(), 10_000 - 32);
        assert_eq!(q.reallocs(), 0, "steady-state churn grew the node slab");
    }

    #[test]
    fn reserve_grows_capacity_up_front() {
        let mut q: EventQueue<()> = EventQueue::new();
        q.reserve(1000);
        assert!(q.capacity() >= 1000);
        let cap = q.capacity();
        for i in 0..1000 {
            q.push(i, ());
        }
        assert_eq!(q.capacity(), cap);
        // An explicit up-front reserve is planned growth, not a
        // steady-state reallocation.
        assert_eq!(q.reallocs(), 0);
    }

    #[test]
    fn interleaved_push_pop_stays_sorted() {
        let mut q = EventQueue::new();
        q.push(5, 0u32);
        q.push(1, 1);
        assert_eq!(q.pop(), Some((1, 1)));
        q.push(3, 2);
        q.push(2, 3);
        assert_eq!(q.pop(), Some((2, 3)));
        assert_eq!(q.pop(), Some((3, 2)));
        assert_eq!(q.pop(), Some((5, 0)));
    }

    #[test]
    fn far_future_events_spill_and_return() {
        // Beyond the 2^24 ns wheel horizon, events overflow to the spill
        // heap; they must still come back in (time, seq) order.
        let mut q = EventQueue::new();
        q.push(3 << HORIZON_BITS, 'c');
        q.push(1, 'a');
        q.push((3 << HORIZON_BITS) + 1, 'd');
        q.push(1 << HORIZON_BITS, 'b');
        assert_eq!(q.pop(), Some((1, 'a')));
        assert_eq!(q.peek_time(), Some(1 << HORIZON_BITS));
        assert_eq!(q.pop(), Some((1 << HORIZON_BITS, 'b')));
        assert_eq!(q.pop(), Some((3 << HORIZON_BITS, 'c')));
        assert_eq!(q.pop(), Some(((3 << HORIZON_BITS) + 1, 'd')));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn spill_preserves_fifo_ties() {
        let mut q = EventQueue::new();
        let far = 5 << HORIZON_BITS;
        for i in 0..10u32 {
            q.push(far, i);
        }
        q.push(0, 100);
        assert_eq!(q.pop(), Some((0, 100)));
        for i in 0..10 {
            assert_eq!(q.pop(), Some((far, i)));
        }
    }

    #[test]
    fn node_slab_recycles_after_pop() {
        let mut q = EventQueue::with_capacity(8);
        // Drive the clock past several level-0 blocks: slab nodes freed by
        // pops must be reused, so the backlog of 4 never grows storage.
        for i in 0..4u64 {
            q.push(i * 100, i);
        }
        for i in 4..2000u64 {
            q.pop().unwrap();
            q.push(i * 100, i);
        }
        assert_eq!(q.reallocs(), 0);
    }
}
