//! Differential test: the hierarchical timing wheel must produce exactly
//! the pop sequence of a reference binary heap — same timestamps, same
//! FIFO tie order — over randomized schedules, the same way `lru64` is
//! proven against a map-based LRU. The heap is a small model local to this
//! test: ordering by `(timestamp, push sequence)` is the whole contract.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use fns_sim::queue::EventQueue;
use fns_sim::rng::SimRng;
use fns_sim::Nanos;

/// Reference model of [`EventQueue`]: a min-heap keyed by `(timestamp,
/// push sequence)`, with the same clock and pop counter.
#[derive(Default)]
struct HeapModel {
    heap: BinaryHeap<Reverse<(Nanos, u64, u32)>>,
    seq: u64,
    now: Nanos,
    popped: u64,
}

impl HeapModel {
    fn push(&mut self, at: Nanos, id: u32) {
        assert!(at >= self.now, "model scheduled into the past");
        self.heap.push(Reverse((at, self.seq, id)));
        self.seq += 1;
    }

    fn pop(&mut self) -> Option<(Nanos, u32)> {
        let Reverse((at, _, id)) = self.heap.pop()?;
        self.now = at;
        self.popped += 1;
        Some((at, id))
    }

    fn peek_time(&self) -> Option<Nanos> {
        self.heap.peek().map(|Reverse((at, _, _))| *at)
    }
}

/// Drives the wheel and the reference model through an identical push/pop
/// script and asserts every observable agrees step for step.
struct Pair {
    wheel: EventQueue<u32>,
    heap: HeapModel,
}

impl Pair {
    fn with_capacity(capacity: usize) -> Self {
        Self {
            wheel: EventQueue::with_capacity(capacity),
            heap: HeapModel::default(),
        }
    }

    fn push(&mut self, at: Nanos, id: u32) {
        self.wheel.push(at, id);
        self.heap.push(at, id);
        assert_eq!(self.wheel.len(), self.heap.heap.len());
    }

    fn pop(&mut self) -> Option<(Nanos, u32)> {
        let w = self.wheel.pop();
        let h = self.heap.pop();
        assert_eq!(w, h, "pop diverged at event #{}", self.heap.popped);
        assert_eq!(self.wheel.now(), self.heap.now);
        assert_eq!(self.wheel.total_popped(), self.heap.popped);
        w
    }

    fn drain(&mut self) {
        while self.pop().is_some() {}
    }
}

/// Random interleaving of pushes and pops with a delay mix that exercises
/// every wheel level: same-nanosecond ties (level-0 FIFO), short and medium
/// delays (levels 0–2), block-boundary crossings (level 3 cascades), and
/// far-future events beyond the 2^24 ns horizon (spill heap + migration).
#[test]
fn randomized_schedules_agree() {
    for seed in 0..8u64 {
        let mut rng = SimRng::seed(0xC0FFEE ^ seed);
        let mut pair = Pair::with_capacity(64);
        let mut id = 0u32;
        for _ in 0..20_000 {
            let action = rng.range(0, 100);
            if action < 55 {
                let now = pair.heap.now;
                let delay = match rng.range(0, 10) {
                    0 => 0,                           // exact tie at `now`
                    1..=4 => rng.range(1, 200),       // short: levels 0-1
                    5..=7 => rng.range(200, 1 << 14), // medium: levels 1-2
                    8 => rng.range(1 << 14, 1 << 22), // long: level 3
                    _ => rng.range(1 << 24, 1 << 27), // beyond horizon: spill
                };
                pair.push(now + delay, id);
                id += 1;
            } else {
                pair.pop();
            }
        }
        pair.drain();
        assert_eq!(pair.wheel.pop(), None);
    }
}

/// Bursts of identical timestamps: FIFO tie order is the property the
/// simulator's determinism rests on.
#[test]
fn dense_tie_bursts_preserve_fifo() {
    let mut rng = SimRng::seed(7);
    let mut pair = Pair::with_capacity(0);
    let mut id = 0u32;
    for round in 0..200u64 {
        let t = pair.heap.now + rng.range(0, 5);
        for _ in 0..rng.range(1, 20) {
            pair.push(t, id);
            id += 1;
        }
        if round % 3 != 0 {
            for _ in 0..rng.range(1, 25) {
                if pair.pop().is_none() {
                    break;
                }
            }
        }
    }
    pair.drain();
}

/// Far-future-heavy workload: most events overflow the wheel horizon, so
/// migration back out of the spill heap carries the ordering.
#[test]
fn spill_dominated_workload_agrees() {
    let mut rng = SimRng::seed(99);
    let mut pair = Pair::with_capacity(16);
    for id in 0..2_000u32 {
        let now = pair.heap.now;
        // Land most pushes 1-4 horizon blocks out, with duplicates.
        let delay = rng.range(1 << 23, 1 << 26) & !0x3ff;
        pair.push(now + delay, id);
        if id % 3 == 0 {
            pair.pop();
        }
    }
    pair.drain();
}

/// Idle-gap workload aimed squarely at the analytic fast-forward: single
/// events (or small ties) parked multiple levels up with nothing below, so
/// every settle proves a jump. `peek_time` is asserted before each pop —
/// the fast-forwarded base registers must answer the same timestamp the
/// heap derives.
#[test]
fn idle_gaps_fast_forward_identically() {
    let mut rng = SimRng::seed(0xFF00D);
    let mut pair = Pair::with_capacity(8);
    let mut id = 0u32;
    for _ in 0..3_000 {
        let now = pair.heap.now;
        // Gaps spanning levels 1-3 and the occasional spill, with a burst
        // of ties at the far timestamp to exercise FIFO across the jump.
        let gap = match rng.range(0, 8) {
            0..=2 => rng.range(1 << 7, 1 << 12),  // level 1-2
            3..=5 => rng.range(1 << 13, 1 << 20), // level 2-3
            6 => rng.range(1 << 20, 1 << 23),     // level 3
            _ => rng.range(1 << 24, 1 << 26),     // spill
        };
        let t = now + gap;
        for _ in 0..rng.range(1, 4) {
            pair.push(t, id);
            id += 1;
        }
        let pw = pair.wheel.peek_time();
        let ph = pair.heap.peek_time();
        assert_eq!(pw, ph, "peek diverged at event #{id}");
        while pair.pop().is_some() {
            // Drain fully so the next push lands on an empty wheel whose
            // bases were just fast-forwarded.
        }
    }
}

/// `reserve`/`with_capacity` paths: growth bookkeeping must not perturb
/// ordering, and a queue pre-sized above its backlog must never regrow.
#[test]
fn capacity_paths_agree_and_wheel_presizes() {
    let mut pair = Pair::with_capacity(0);
    pair.wheel.reserve(512);
    assert!(pair.wheel.capacity() >= 512);
    let cap = pair.wheel.capacity();
    let mut rng = SimRng::seed(0xAB);
    for id in 0..5_000u32 {
        let now = pair.heap.now;
        pair.push(now + rng.range(0, 4096), id);
        if id % 2 == 1 {
            pair.pop();
            pair.pop();
        }
    }
    pair.drain();
    assert_eq!(pair.wheel.capacity(), cap, "pre-sized wheel slab regrew");
    assert_eq!(pair.wheel.reallocs(), 0);
}

/// `with_capacity` is honored: zero-capacity queues grow, pre-sized
/// queues don't.
#[test]
fn with_capacity_is_honored() {
    let mut q = EventQueue::with_capacity(256);
    for i in 0..256u64 {
        q.push(i, i as u32);
    }
    assert_eq!(q.reallocs(), 0, "grew despite with_capacity");
    let mut q0: EventQueue<u32> = EventQueue::new();
    for i in 0..256u64 {
        q0.push(i, i as u32);
    }
    assert!(q0.reallocs() > 0, "reported no growth from zero");
}
