//! Randomized transport properties: sender invariants under adversarial
//! ACK streams, exactly-once delivery over lossy reordering channels, and
//! receiver accounting over arbitrary segment streams. Inputs come from
//! [`SimRng`], so every case is a plain deterministic `#[test]`.

use fns_net::packet::{FlowId, Packet, PacketKind};
use fns_net::receiver::FlowReceiver;
use fns_net::sender::{DctcpConfig, DctcpSender};
use fns_sim::rng::SimRng;

/// The sender never violates its structural invariants no matter what ACK
/// stream it sees (including bogus, duplicate and ancient ACKs), and cwnd
/// stays within [1 MSS, max].
#[test]
fn sender_invariants_under_adversarial_acks() {
    let cfg = DctcpConfig::default();
    for case in 0..64u64 {
        let mut rng = SimRng::seed(0xAC5 ^ case);
        let mut s = DctcpSender::new(FlowId(0), cfg, 0);
        s.set_unbounded();
        let mut now = 0u64;
        for i in 0..rng.range(1, 300) {
            // Interleave some sends.
            for _ in 0..(i % 3) {
                s.next_packet(now);
            }
            // Only deliver ACKs for bytes at or below what was sent —
            // acking unsent data is the one thing a real peer cannot do.
            let ack = rng.range(0, 1_000_000).min(s.bytes_in_flight() + 1);
            let ecn = rng.range(0, 4) as u32;
            let pkts = rng.range(1, 16) as u32;
            s.on_ack(ack, ecn, pkts, now);
            now += 1_000;
            assert!(
                s.cwnd() >= cfg.mss as u64,
                "case {case}: cwnd collapsed below 1 MSS"
            );
            assert!(
                s.cwnd() <= cfg.max_cwnd_bytes,
                "case {case}: cwnd above max"
            );
            assert!((0.0..=1.0).contains(&s.alpha()), "case {case}: alpha");
        }
    }
}

/// Transfers `app_bytes` over a channel that drops 15% of packets and
/// swaps adjacent ones, driven by a xorshift stream seeded with `seed`;
/// returns once the sender has drained.
fn lossy_transfer(app_bytes: u64, seed: u64) {
    let cfg = DctcpConfig::default();
    let mut s = DctcpSender::new(FlowId(0), cfg, 0);
    s.enqueue_app_bytes(app_bytes);
    let mut r = FlowReceiver::new(FlowId(0), 4);
    let mut x = seed;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut now = 0u64;
    let mut in_flight: Vec<Packet> = Vec::new();
    let mut steps = 0;
    while !s.is_drained() {
        steps += 1;
        assert!(steps < 200_000, "{app_bytes} B seed {seed}: no convergence");
        now += 10_000;
        // Emit whatever the window allows.
        while let Some(p) = s.next_packet(now) {
            in_flight.push(p);
        }
        // Deliver up to 8 packets with 15% drop and occasional swap.
        if in_flight.len() >= 2 && next() % 4 == 0 {
            let n = in_flight.len();
            in_flight.swap(n - 1, n - 2);
        }
        let deliver = in_flight.len().min(8);
        let batch: Vec<_> = in_flight.drain(..deliver).collect();
        for p in batch {
            if next() % 100 < 15 {
                continue;
            }
            if let Some(a) = r.on_data(&p, now) {
                let out = s.on_ack(a.ack_seq, a.ecn_echo, a.acked_pkts, now);
                if out.fast_retransmit {
                    in_flight.push(s.fast_retransmit_packet(now));
                }
            }
        }
        // Flush receiver coalescing and fire RTOs.
        if let Some(a) = r.flush_ack() {
            let out = s.on_ack(a.ack_seq, a.ecn_echo, a.acked_pkts, now);
            if out.fast_retransmit {
                in_flight.push(s.fast_retransmit_packet(now));
            }
        }
        if let Some(d) = s.rto_deadline() {
            if d <= now {
                s.on_rto(now);
            }
        }
    }
    let what = format!("{app_bytes} B seed {seed}");
    assert_eq!(r.delivered_bytes, app_bytes, "{what}: byte conservation");
    assert_eq!(r.rcv_nxt(), app_bytes, "{what}: receive point");
    assert_eq!(r.ooo_segments(), 0, "{what}: out-of-order residue");
}

/// End-to-end conservation: over a channel with random drops and
/// reordering, retransmissions (fast + RTO) eventually deliver every byte
/// exactly once, in order.
#[test]
fn lossy_channel_delivers_exactly_once() {
    // A transfer that once failed to converge, kept as a fixed input.
    lossy_transfer(155_649, 4460);
    let mut rng = SimRng::seed(0x1055);
    for _ in 0..48 {
        lossy_transfer(rng.range(4_096, 300_000), rng.range(1, 5_000));
    }
}

/// The receiver's delivered-byte counter is monotone and never exceeds the
/// highest byte offered, for arbitrary segment streams.
#[test]
fn receiver_delivery_bounded_by_offered() {
    for case in 0..64u64 {
        let mut rng = SimRng::seed(0x5E6 ^ case);
        let mut r = FlowReceiver::new(FlowId(1), 3);
        let mut highest = 0u64;
        let mut last_delivered = 0u64;
        for _ in 0..rng.range(1, 200) {
            let seq = rng.range(0, 64) * 1000;
            let bytes = rng.range(1, 5) as u32 * 1000;
            highest = highest.max(seq + bytes as u64);
            r.on_data(&Packet::data(FlowId(1), seq, bytes, 0), 0);
            assert!(r.delivered_bytes >= last_delivered, "case {case}: monotone");
            assert!(
                r.delivered_bytes <= highest,
                "case {case}: no invention of bytes"
            );
            last_delivered = r.delivered_bytes;
        }
    }
}

/// ACK metadata sanity: what the receiver claims to ack matches the data it
/// has seen.
#[test]
fn ack_metadata_accounts_for_every_data_packet() {
    let mut r = FlowReceiver::new(FlowId(0), 4);
    let mut acked_pkts = 0u64;
    for i in 0..97u64 {
        let p = Packet::data(FlowId(0), i * 100, 100, 0);
        assert!(matches!(p.kind, PacketKind::Data));
        if let Some(a) = r.on_data(&p, 0) {
            acked_pkts += a.acked_pkts as u64;
        }
    }
    if let Some(a) = r.flush_ack() {
        acked_pkts += a.acked_pkts as u64;
    }
    assert_eq!(acked_pkts, 97, "every data packet is covered by some ACK");
}
