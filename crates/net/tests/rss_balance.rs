//! Statistical balance of the RSS indirection at datacenter scale.
//!
//! The NIC plane homes every flow of a multi-queue topology through
//! `rss_queue`, so a skewed spread would overload one simulated NIC and
//! queue while its neighbours idle. The SplitMix64
//! finalizer has no distribution guarantee for the dense consecutive flow
//! ids the generators hand out; these tests pin that at the dc-scale
//! shape (20 480 flows over 8 NICs × 4 queues = 32 rings) the spread is
//! balanced in practice: every queue and every NIC within 2× of the mean,
//! and nothing starved.

use fns_net::packet::rss_queue;
use fns_net::FlowId;

/// The dc-scale shape: 20 480 flows, 8 NICs × 4 queues.
const FLOWS: u32 = 20_480;
const NICS: usize = 8;
const QUEUES_PER_NIC: usize = 4;
const RINGS: usize = NICS * QUEUES_PER_NIC;

/// Per-ring flow counts for ids 1..=FLOWS (the generators' id range).
fn ring_histogram() -> Vec<u64> {
    let mut counts = vec![0u64; RINGS];
    for f in 1..=FLOWS {
        counts[rss_queue(FlowId(f), RINGS)] += 1;
    }
    counts
}

#[test]
fn per_queue_spread_is_balanced_at_dc_scale() {
    let counts = ring_histogram();
    let mean = FLOWS as u64 / RINGS as u64;
    for (q, &c) in counts.iter().enumerate() {
        assert!(c > 0, "queue {q} starved (0 of {FLOWS} flows)");
        assert!(
            c < 2 * mean,
            "queue {q} overloaded: {c} flows > 2x the {mean} mean"
        );
    }
    assert_eq!(counts.iter().sum::<u64>(), FLOWS as u64);
}

#[test]
fn per_nic_aggregation_is_balanced_at_dc_scale() {
    // Flow f lands on ring rss_queue(f), which belongs to NIC
    // ring / queues_per_nic; aggregate the ring histogram the same way.
    let counts = ring_histogram();
    let mut per_nic = [0u64; NICS];
    for (q, &c) in counts.iter().enumerate() {
        per_nic[q / QUEUES_PER_NIC] += c;
    }
    let mean = FLOWS as u64 / NICS as u64;
    for (nic, &c) in per_nic.iter().enumerate() {
        assert!(c > 0, "NIC {nic} starved");
        assert!(
            c < 2 * mean,
            "NIC {nic} overloaded: {c} flows > 2x the {mean} mean"
        );
    }
}

#[test]
fn spread_is_deterministic_and_degenerate_cases_pin_to_zero() {
    for f in [1u32, 7, 4096, FLOWS] {
        assert_eq!(
            rss_queue(FlowId(f), RINGS),
            rss_queue(FlowId(f), RINGS),
            "rss_queue must be a pure function"
        );
        assert_eq!(rss_queue(FlowId(f), 1), 0);
        assert_eq!(rss_queue(FlowId(f), 0), 0);
    }
}
