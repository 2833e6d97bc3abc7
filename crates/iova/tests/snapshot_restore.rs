//! Checkpoint round trips of the ground-truth IOVA allocator.
//!
//! `RbTreeAllocator::unsnap` bulk-builds its range set from the snapshot's
//! ascending range list after checking the list in one pass. These tests
//! pin that a restore is exact (same bytes, same future allocations) and
//! that every list `snap` cannot have written is refused.

use fns_iova::{IovaAllocator, IovaRange, RbTreeAllocator, IOVA_SPACE_TOP};
use fns_sim::rng::SimRng;
use fns_snap::{SnapError, SnapReader, SnapWriter};

/// One past the highest pfn of the 48-bit IOVA space.
const TOP_PFN: u64 = IOVA_SPACE_TOP >> 12;

fn image(a: &RbTreeAllocator) -> Vec<u8> {
    let mut w = SnapWriter::new();
    a.snap(&mut w);
    w.finish()
}

fn restore(bytes: &[u8]) -> Result<RbTreeAllocator, SnapError> {
    let mut r = SnapReader::new(bytes)?;
    let a = RbTreeAllocator::unsnap(&mut r)?;
    r.done()?;
    Ok(a)
}

/// One step of a seeded alloc/free history: allocates 1..=16 pages with
/// probability 0.6, otherwise frees a random live range.
fn step(a: &mut RbTreeAllocator, live: &mut Vec<IovaRange>, rng: &mut SimRng) -> Option<IovaRange> {
    if live.is_empty() || rng.chance(0.6) {
        let r = a.alloc(rng.range(1, 17), 0)?;
        live.push(r);
        Some(r)
    } else {
        let r = live.swap_remove(rng.index(live.len()));
        a.free(r, 0);
        Some(r)
    }
}

/// An allocator aged by `ops` random steps, with its live ranges.
fn aged(seed: u64, ops: usize) -> (RbTreeAllocator, Vec<IovaRange>) {
    let mut rng = SimRng::seed(seed);
    let mut a = RbTreeAllocator::new();
    let mut live = Vec::new();
    for _ in 0..ops {
        step(&mut a, &mut live, &mut rng);
    }
    (a, live)
}

#[test]
fn random_histories_round_trip_byte_for_byte() {
    for seed in 0..8 {
        let (a, _) = aged(0xA6ED + seed, 4000);
        assert!(
            a.fragmentation().0 > 0,
            "seed {seed}: history left no holes"
        );
        let bytes = image(&a);
        let back = restore(&bytes).unwrap();
        back.ranges().check_invariants().unwrap();
        assert_eq!(back.search_start(), a.search_start());
        assert_eq!(back.stats(), a.stats());
        assert_eq!(image(&back), bytes, "seed {seed}");
    }
}

#[test]
fn restored_allocator_makes_the_same_next_1000_moves() {
    let (mut a, mut live) = aged(0x1000, 3000);
    let mut b = restore(&image(&a)).unwrap();
    let mut live_b = live.clone();
    let (mut rng_a, mut rng_b) = (SimRng::seed(7), SimRng::seed(7));
    for i in 0..1000 {
        let moved = step(&mut a, &mut live, &mut rng_a);
        assert_eq!(step(&mut b, &mut live_b, &mut rng_b), moved, "op {i}");
    }
    assert_eq!(image(&b), image(&a));
}

/// An allocator image holding `ranges` in the given order, with the given
/// limit and search start, align-to-size on and zeroed stats.
fn list_image(ranges: &[(u64, u64)], limit: u64, search_start: u64) -> Vec<u8> {
    let mut w = SnapWriter::new();
    w.seq(ranges.len());
    for &(lo, hi) in ranges {
        w.u64(lo);
        w.u64(hi);
    }
    w.u64(limit);
    w.bool(true);
    w.u64(search_start);
    for _ in 0..5 {
        w.u64(0);
    }
    w.finish()
}

fn is_bad_tag(r: Result<RbTreeAllocator, SnapError>) -> bool {
    matches!(r, Err(SnapError::BadTag { .. }))
}

#[test]
fn lists_snap_cannot_write_are_refused() {
    let ascending = [(10, 19), (30, 39), (40, 40)];
    let back = restore(&list_image(&ascending, TOP_PFN, TOP_PFN)).unwrap();
    assert_eq!(back.ranges().iter().collect::<Vec<_>>(), ascending);
    let refused: [(&str, &[(u64, u64)]); 5] = [
        ("descending", &[(30, 39), (10, 19)]),
        ("duplicate", &[(10, 19), (10, 19)]),
        ("overlapping", &[(10, 19), (15, 25)]),
        ("touching", &[(10, 19), (19, 25)]),
        ("inverted", &[(10, 19), (30, 20)]),
    ];
    for (name, list) in refused {
        let image = list_image(list, TOP_PFN, TOP_PFN);
        assert!(is_bad_tag(restore(&image)), "{name} list {list:?}");
    }
}

#[test]
fn limits_snap_cannot_write_are_refused() {
    let one = [(10, 19)];
    assert!(restore(&list_image(&one, TOP_PFN, 10)).is_ok());
    for (limit, search_start) in [(TOP_PFN + 1, 10), (19, 10), (TOP_PFN, TOP_PFN + 1)] {
        let image = list_image(&one, limit, search_start);
        assert!(
            is_bad_tag(restore(&image)),
            "limit {limit} search start {search_start}"
        );
    }
}

#[test]
fn every_single_bit_flip_is_refused_or_restores_a_sound_allocator() {
    let (a, live) = aged(0xB17F, 120);
    let clean = image(&a);
    // Body only: the magic, the format version and the checksum have
    // their own refusals in `fns_snap`.
    let (body_start, body_end) = (fns_snap::MAGIC.len() + 4, clean.len() - 8);
    let (mut restored, mut refused) = (0, 0);
    for bit in body_start * 8..body_end * 8 {
        let mut bytes = clean.clone();
        bytes[bit / 8] ^= 1 << (bit % 8);
        fns_snap::reseal(&mut bytes);
        let outcome = std::panic::catch_unwind(|| {
            let Ok(mut a) = restore(&bytes) else {
                return false;
            };
            a.ranges().check_invariants().unwrap();
            // The restored allocator keeps working: allocate afresh (a
            // free first would reset the search start), free what the
            // clean image held (some of it may be gone), and free the
            // fresh ranges again.
            let fresh: Vec<_> = (1..=32).filter_map(|p| a.alloc(p, 0)).collect();
            a.ranges().check_invariants().unwrap();
            for &r in &live[..8] {
                let _ = a.try_free(r, 0);
            }
            for r in fresh {
                a.free(r, 0);
            }
            a.ranges().check_invariants().unwrap();
            true
        });
        match outcome {
            Ok(true) => restored += 1,
            Ok(false) => refused += 1,
            Err(_) => panic!("bit {bit} (byte {}) panicked", bit / 8),
        }
    }
    assert!(
        restored > 0 && refused > 0,
        "{restored} restored, {refused} refused"
    );
}
