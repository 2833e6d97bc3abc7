//! DCTCP sender state machine.
//!
//! Implements the congestion-control behaviour the paper's measurement
//! setup relies on: slow start, ECN-fraction-proportional window reduction
//! (`cwnd -= cwnd * alpha / 2` once per window), fast retransmit on three
//! duplicate ACKs, and retransmission timeouts with exponential backoff —
//! the mechanism behind the paper's P99.9 tail-latency inflation.

use fns_sim::time::Nanos;

use crate::packet::{FlowId, Packet};

/// DCTCP parameters.
#[derive(Debug, Clone, Copy)]
pub struct DctcpConfig {
    /// Maximum segment size in bytes (the paper uses a 4 KB MTU; apps in
    /// §4.2 use 9 KB).
    pub mss: u32,
    /// Initial congestion window, in segments.
    pub init_cwnd_segments: u32,
    /// DCTCP `g` (alpha EWMA gain), canonically 1/16.
    pub g: f64,
    /// Minimum RTO.
    pub min_rto: Nanos,
    /// Maximum congestion window in bytes (receive window / socket buffer).
    pub max_cwnd_bytes: u64,
}

impl Default for DctcpConfig {
    fn default() -> Self {
        Self {
            mss: 4096,
            init_cwnd_segments: 10,
            g: 1.0 / 16.0,
            // Linux's minimum RTO; dominates the P99.9+ tail when drops
            // force timeouts.
            min_rto: 4 * 1_000_000, // 4 ms (datacenter-tuned, as in DCTCP deployments)
            max_cwnd_bytes: 1 << 20,
        }
    }
}

/// What the sender wants done after processing an ACK.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AckOutcome {
    /// Bytes newly acknowledged.
    pub newly_acked: u64,
    /// Fast retransmit triggered: resend one MSS from `snd_una`.
    pub fast_retransmit: bool,
}

/// Per-flow DCTCP sender.
///
/// Byte-stream oriented: the application deposits bytes with
/// [`DctcpSender::enqueue_app_bytes`] (or marks the flow unbounded for
/// iperf-style traffic) and the datapath drains packets with
/// [`DctcpSender::next_packet`].
///
/// # Examples
///
/// ```
/// use fns_net::sender::{DctcpConfig, DctcpSender};
/// use fns_net::packet::FlowId;
///
/// let mut s = DctcpSender::new(FlowId(0), DctcpConfig::default(), 0);
/// s.set_unbounded();
/// let p = s.next_packet(100).expect("window is open");
/// assert_eq!(p.bytes, 4096);
/// assert_eq!(s.bytes_in_flight(), 4096);
/// ```
#[derive(Debug, Clone)]
pub struct DctcpSender {
    flow: FlowId,
    cfg: DctcpConfig,
    /// Congestion window, bytes.
    cwnd: u64,
    /// Slow-start threshold, bytes.
    ssthresh: u64,
    /// First unacknowledged byte.
    snd_una: u64,
    /// Next byte to transmit.
    snd_nxt: u64,
    /// Application bytes available to send (end of stream sequence).
    app_limit: u64,
    unbounded: bool,
    /// DCTCP ECN fraction estimate.
    alpha: f64,
    /// Marked/total counters over the current observation window.
    window_marked: u64,
    window_acked: u64,
    /// Sequence at which the current alpha window ends.
    window_end: u64,
    /// Window in which we last reacted to congestion (one cut per RTT).
    last_cut_window_end: u64,
    dup_acks: u32,
    /// NewReno recovery: `snd_nxt` at loss detection. While in recovery,
    /// every partial ACK retransmits the next hole immediately instead of
    /// stalling until an RTO — essential with bursty tail-drop losses.
    recovery_high: Option<u64>,
    /// Smoothed RTT estimate.
    srtt: Nanos,
    rto_backoff: u32,
    /// Deadline of the pending RTO timer (None when nothing is in flight).
    rto_deadline: Option<Nanos>,
    /// Lifetime stats.
    pub retransmits: u64,
    /// Lifetime count of RTO events.
    pub timeouts: u64,
}

impl DctcpSender {
    /// Creates a sender for `flow`; `now` seeds the timer state.
    pub fn new(flow: FlowId, cfg: DctcpConfig, now: Nanos) -> Self {
        let _ = now;
        Self {
            flow,
            cwnd: cfg.mss as u64 * cfg.init_cwnd_segments as u64,
            ssthresh: u64::MAX,
            snd_una: 0,
            snd_nxt: 0,
            app_limit: 0,
            unbounded: false,
            alpha: 0.0,
            window_marked: 0,
            window_acked: 0,
            window_end: 0,
            last_cut_window_end: 0,
            dup_acks: 0,
            recovery_high: None,
            srtt: 50_000, // 50 us initial guess for an intra-rack RTT
            rto_backoff: 0,
            rto_deadline: None,
            cfg,
            retransmits: 0,
            timeouts: 0,
        }
    }

    /// The flow this sender drives.
    pub fn flow(&self) -> FlowId {
        self.flow
    }

    /// Marks the flow as having unlimited data (iperf).
    pub fn set_unbounded(&mut self) {
        self.unbounded = true;
    }

    /// Deposits `bytes` of application data for transmission.
    pub fn enqueue_app_bytes(&mut self, bytes: u64) {
        self.app_limit += bytes;
    }

    /// Bytes sent but not yet acknowledged.
    pub fn bytes_in_flight(&self) -> u64 {
        debug_assert!(self.snd_nxt >= self.snd_una);
        self.snd_nxt.saturating_sub(self.snd_una)
    }

    /// Current congestion window in bytes.
    pub fn cwnd(&self) -> u64 {
        self.cwnd
    }

    /// Current DCTCP alpha.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Returns `true` when all deposited application data is acknowledged.
    pub fn is_drained(&self) -> bool {
        !self.unbounded && self.snd_una == self.app_limit
    }

    /// Restarts the connection for churn workloads: congestion state resets
    /// to a fresh connection (initial cwnd, slow start, cleared DCTCP alpha
    /// and recovery state, initial RTT guess) while the byte stream
    /// continues where it left off. Keeping `snd_una`/`snd_nxt` means the
    /// receiver's cumulative-ACK state stays valid across the restart, so
    /// the sim models a new connection's *congestion* behaviour — the part
    /// that stresses mapping churn — without re-plumbing per-flow tables.
    pub fn restart_connection(&mut self) {
        self.cwnd = self.cfg.mss as u64 * self.cfg.init_cwnd_segments as u64;
        self.ssthresh = u64::MAX;
        self.alpha = 0.0;
        self.window_marked = 0;
        self.window_acked = 0;
        self.window_end = self.snd_nxt;
        self.last_cut_window_end = self.snd_una;
        self.dup_acks = 0;
        self.recovery_high = None;
        self.srtt = 50_000;
        self.rto_backoff = 0;
    }

    /// Emits the next data packet if the window and app data allow.
    pub fn next_packet(&mut self, now: Nanos) -> Option<Packet> {
        let limit = if self.unbounded {
            u64::MAX
        } else {
            self.app_limit
        };
        if self.snd_nxt >= limit || self.bytes_in_flight() >= self.cwnd {
            return None;
        }
        let bytes = (self.cfg.mss as u64)
            .min(limit - self.snd_nxt)
            .min(self.cwnd - self.bytes_in_flight()) as u32;
        if bytes == 0 {
            return None;
        }
        let p = Packet::data(self.flow, self.snd_nxt, bytes, now);
        self.snd_nxt += bytes as u64;
        if self.rto_deadline.is_none() {
            self.arm_rto(now);
        }
        Some(p)
    }

    fn rto(&self) -> Nanos {
        let base = self.cfg.min_rto.max(2 * self.srtt);
        // Cap the exponential backoff: modern stacks (SACK, RACK-TLP)
        // recover long before deep backoff, and without a cap a flow that
        // loses a retransmit during persistent congestion can back itself
        // off beyond the experiment horizon.
        base << self.rto_backoff.min(2)
    }

    fn arm_rto(&mut self, now: Nanos) {
        self.rto_deadline = Some(now + self.rto());
    }

    /// Deadline of the retransmission timer, if armed.
    pub fn rto_deadline(&self) -> Option<Nanos> {
        self.rto_deadline
    }

    /// Processes a cumulative ACK.
    pub fn on_ack(
        &mut self,
        ack_seq: u64,
        ecn_echo: u32,
        acked_pkts: u32,
        now: Nanos,
    ) -> AckOutcome {
        let mut out = AckOutcome::default();
        // Alpha accounting uses every ACK, duplicate or not.
        self.window_marked += ecn_echo as u64;
        self.window_acked += (acked_pkts as u64).max(1);
        if ack_seq <= self.snd_una {
            // Duplicate ACK.
            self.dup_acks += 1;
            if self.dup_acks == 3 && self.recovery_high.is_none() {
                out.fast_retransmit = true;
                self.retransmits += 1;
                self.recovery_high = Some(self.snd_nxt);
                self.react_to_loss();
            }
            return out;
        }
        // New data acknowledged.
        out.newly_acked = ack_seq - self.snd_una;
        self.snd_una = ack_seq;
        // A late ACK for data sent before an RTO's go-back-N can advance
        // `snd_una` past the rewound `snd_nxt`; clamp so the flight size
        // never underflows.
        self.snd_nxt = self.snd_nxt.max(self.snd_una);
        self.dup_acks = 0;
        self.rto_backoff = 0;
        if let Some(high) = self.recovery_high {
            if ack_seq < high {
                // Partial ACK: the next hole is lost too; retransmit it now
                // (NewReno RFC 6582 behaviour).
                out.fast_retransmit = true;
                self.retransmits += 1;
            } else {
                self.recovery_high = None;
            }
        }
        if let Some(sent) = self.rtt_sample(now) {
            self.srtt = (7 * self.srtt + sent) / 8;
        }
        if self.bytes_in_flight() > 0 {
            self.arm_rto(now);
        } else {
            self.rto_deadline = None;
        }
        // Window growth.
        if self.cwnd < self.ssthresh {
            self.cwnd += out.newly_acked; // slow start
        } else {
            // Congestion avoidance: +MSS per cwnd worth of ACKs.
            self.cwnd += (self.cfg.mss as u64 * out.newly_acked) / self.cwnd.max(1);
        }
        self.cwnd = self.cwnd.min(self.cfg.max_cwnd_bytes);
        // DCTCP alpha update + proportional cut once per window.
        if self.snd_una >= self.window_end {
            let frac = if self.window_acked == 0 {
                0.0
            } else {
                self.window_marked as f64 / self.window_acked as f64
            };
            self.alpha = (1.0 - self.cfg.g) * self.alpha + self.cfg.g * frac;
            if self.window_marked > 0 && self.window_end > self.last_cut_window_end {
                let cut = (self.cwnd as f64 * self.alpha / 2.0) as u64;
                self.cwnd = (self.cwnd - cut).max(self.cfg.mss as u64);
                self.ssthresh = self.cwnd;
                self.last_cut_window_end = self.window_end;
            }
            self.window_marked = 0;
            self.window_acked = 0;
            self.window_end = self.snd_nxt;
        }
        out
    }

    /// Crude RTT sample: we do not track per-packet send times here; the
    /// datapath owns timestamps. Returns `None` (hook for future precision).
    fn rtt_sample(&self, _now: Nanos) -> Option<Nanos> {
        None
    }

    /// Handles a retransmission timeout: collapse the window and go back to
    /// `snd_una`. Returns the sequence to resend from.
    pub fn on_rto(&mut self, now: Nanos) -> u64 {
        self.timeouts += 1;
        self.retransmits += 1;
        self.ssthresh = (self.cwnd / 2).max(2 * self.cfg.mss as u64);
        self.cwnd = self.cfg.mss as u64;
        self.snd_nxt = self.snd_una; // go-back-N
        self.dup_acks = 0;
        self.recovery_high = None;
        self.rto_backoff += 1;
        self.arm_rto(now);
        self.snd_una
    }

    /// Fast-retransmit helper: the segment to resend.
    ///
    /// Clamped to the application stream end — resending a full MSS past
    /// the final short segment would deliver bytes the application never
    /// sent.
    pub fn fast_retransmit_packet(&mut self, now: Nanos) -> Packet {
        let limit = if self.unbounded {
            u64::MAX
        } else {
            self.app_limit
        };
        let bytes = (self.cfg.mss as u64)
            .min(limit.saturating_sub(self.snd_una))
            .max(1) as u32;
        Packet::data(self.flow, self.snd_una, bytes, now)
    }

    fn react_to_loss(&mut self) {
        self.ssthresh = (self.cwnd / 2).max(2 * self.cfg.mss as u64);
        self.cwnd = self.ssthresh;
    }

    /// Serializes the full sender state for checkpointing.
    pub fn snap(&self, w: &mut fns_snap::SnapWriter) {
        w.u32(self.flow.0);
        w.u32(self.cfg.mss);
        w.u32(self.cfg.init_cwnd_segments);
        w.f64(self.cfg.g);
        w.u64(self.cfg.min_rto);
        w.u64(self.cfg.max_cwnd_bytes);
        w.u64(self.cwnd);
        w.u64(self.ssthresh);
        w.u64(self.snd_una);
        w.u64(self.snd_nxt);
        w.u64(self.app_limit);
        w.bool(self.unbounded);
        w.f64(self.alpha);
        w.u64(self.window_marked);
        w.u64(self.window_acked);
        w.u64(self.window_end);
        w.u64(self.last_cut_window_end);
        w.u32(self.dup_acks);
        w.opt(&self.recovery_high, |w, v| w.u64(*v));
        w.u64(self.srtt);
        w.u32(self.rto_backoff);
        w.opt(&self.rto_deadline, |w, v| w.u64(*v));
        w.u64(self.retransmits);
        w.u64(self.timeouts);
    }

    /// Rebuilds a sender captured by [`DctcpSender::snap`].
    pub fn unsnap(r: &mut fns_snap::SnapReader) -> Result<Self, fns_snap::SnapError> {
        Ok(Self {
            flow: FlowId(r.u32()?),
            cfg: DctcpConfig {
                mss: r.u32()?,
                init_cwnd_segments: r.u32()?,
                g: r.f64()?,
                min_rto: r.u64()?,
                max_cwnd_bytes: r.u64()?,
            },
            cwnd: r.u64()?,
            ssthresh: r.u64()?,
            snd_una: r.u64()?,
            snd_nxt: r.u64()?,
            app_limit: r.u64()?,
            unbounded: r.bool()?,
            alpha: r.f64()?,
            window_marked: r.u64()?,
            window_acked: r.u64()?,
            window_end: r.u64()?,
            last_cut_window_end: r.u64()?,
            dup_acks: r.u32()?,
            recovery_high: r.opt(|r| r.u64())?,
            srtt: r.u64()?,
            rto_backoff: r.u32()?,
            rto_deadline: r.opt(|r| r.u64())?,
            retransmits: r.u64()?,
            timeouts: r.u64()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sender() -> DctcpSender {
        let mut s = DctcpSender::new(FlowId(0), DctcpConfig::default(), 0);
        s.set_unbounded();
        s
    }

    #[test]
    fn window_limits_emission() {
        let mut s = sender();
        let mut sent = 0;
        while s.next_packet(0).is_some() {
            sent += 1;
        }
        assert_eq!(sent, 10, "initial window is 10 segments");
        assert_eq!(s.bytes_in_flight(), 10 * 4096);
    }

    #[test]
    fn slow_start_doubles_per_rtt() {
        let mut s = sender();
        while s.next_packet(0).is_some() {}
        let before = s.cwnd();
        // ACK the whole window: slow start adds the acked bytes.
        s.on_ack(s.snd_nxt, 0, 10, 1000);
        assert_eq!(s.cwnd(), before * 2);
    }

    #[test]
    fn ecn_marks_shrink_window_proportionally() {
        let mut s = sender();
        // Push alpha up with fully marked windows.
        for round in 1..=20u64 {
            while s.next_packet(round * 1000).is_some() {}
            let target = s.snd_nxt;
            s.on_ack(target, 10, 10, round * 1000 + 500);
        }
        assert!(
            s.alpha() > 0.5,
            "alpha should converge up, got {}",
            s.alpha()
        );
        // And cwnd must be pinned near the floor under persistent marking.
        assert!(s.cwnd() < 64 * 4096, "cwnd {} did not shrink", s.cwnd());
    }

    #[test]
    fn unmarked_windows_decay_alpha() {
        let mut s = sender();
        for round in 1..=4u64 {
            while s.next_packet(round * 1000).is_some() {}
            s.on_ack(s.snd_nxt, 10, 10, round * 1000);
        }
        let high = s.alpha();
        for round in 5..=30u64 {
            while s.next_packet(round * 1000).is_some() {}
            s.on_ack(s.snd_nxt, 0, 10, round * 1000);
        }
        assert!(s.alpha() < high / 4.0);
    }

    #[test]
    fn triple_dupack_fast_retransmits() {
        let mut s = sender();
        while s.next_packet(0).is_some() {}
        let before_cwnd = s.cwnd();
        assert!(!s.on_ack(0, 0, 1, 10).fast_retransmit);
        assert!(!s.on_ack(0, 0, 1, 20).fast_retransmit);
        let out = s.on_ack(0, 0, 1, 30);
        assert!(out.fast_retransmit);
        assert!(s.cwnd() < before_cwnd);
        let p = s.fast_retransmit_packet(40);
        assert_eq!(p.seq, 0);
        assert_eq!(s.retransmits, 1);
    }

    #[test]
    fn rto_collapses_window_and_goes_back() {
        let mut s = sender();
        while s.next_packet(0).is_some() {}
        s.on_ack(4096, 0, 1, 100); // advance una a bit
        let deadline = s.rto_deadline().unwrap();
        let resend_from = s.on_rto(deadline);
        assert_eq!(resend_from, 4096);
        assert_eq!(s.cwnd(), 4096);
        assert_eq!(s.timeouts, 1);
        // Backoff doubles the next deadline distance.
        let d2 = s.rto_deadline().unwrap() - deadline;
        assert!(d2 >= 2 * DctcpConfig::default().min_rto);
        // snd_nxt rewound: window reopens for the lost data.
        assert!(s.next_packet(deadline + 1).is_some());
    }

    #[test]
    fn bounded_flow_drains() {
        let mut s = DctcpSender::new(FlowId(1), DctcpConfig::default(), 0);
        s.enqueue_app_bytes(6000);
        let p1 = s.next_packet(0).unwrap();
        assert_eq!(p1.bytes, 4096);
        let p2 = s.next_packet(0).unwrap();
        assert_eq!(p2.bytes, 6000 - 4096, "tail segment is short");
        assert!(s.next_packet(0).is_none());
        assert!(!s.is_drained());
        s.on_ack(6000, 0, 2, 100);
        assert!(s.is_drained());
        assert_eq!(s.rto_deadline(), None);
    }

    #[test]
    fn cwnd_capped_by_max() {
        let mut s = sender();
        for round in 1..=60u64 {
            while s.next_packet(round).is_some() {}
            s.on_ack(s.snd_nxt, 0, 64, round * 1000);
        }
        assert!(s.cwnd() <= DctcpConfig::default().max_cwnd_bytes);
    }
}
