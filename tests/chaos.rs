//! Chaos harness: the safety invariant must survive every fault mix.
//!
//! These tests sweep injected fault probabilities across protection modes
//! and assert the properties the fault plane is designed to guarantee:
//!
//! * **Safety**: no DMA translation ever succeeds after an unmap in a
//!   strict-safe mode, no matter which faults fire (`stale_dma_leaked`,
//!   `stale_iotlb_hits` stay 0).
//! * **Determinism**: a fixed seed gives bit-identical runs, faults
//!   included — the planes own forked RNG streams.
//! * **Accounting**: the injection log reconciles with the counters, so
//!   no fault is silently swallowed.
//!
//! Windows are tiny: chaos runs measure invariants, not throughput.

use fns::apps::iperf_config;
use fns::core::{HostSim, ProtectionMode, RunMetrics, SimConfig};
use fns::faults::{FaultConfig, FaultKind};
use fns::harness::SweepRunner;

/// A small, fast configuration: 2 cores, 2 flows, short windows, no
/// allocator aging (aging is irrelevant to fault handling and dominates
/// short runs).
fn chaos_config(mode: ProtectionMode, faults: FaultConfig) -> SimConfig {
    let mut cfg = iperf_config(mode, 2, 64);
    cfg.cores = 2;
    cfg.warmup = 500_000;
    cfg.measure = 2_000_000;
    cfg.aging_factor = 0.0;
    cfg.faults = faults;
    cfg
}

fn run(mode: ProtectionMode, faults: FaultConfig) -> RunMetrics {
    HostSim::new(chaos_config(mode, faults)).run()
}

/// Sweep uniform fault probabilities across strict-safe modes: whatever
/// mix of ring overruns, exhaustions, stalls, and packet mangling fires,
/// no stale DMA may ever translate successfully.
#[test]
fn safety_invariant_survives_every_fault_mix() {
    let probabilities = [0.0, 0.001, 0.01, 0.05];
    let modes = [ProtectionMode::LinuxStrict, ProtectionMode::FastAndSafe];
    let mut points = Vec::new();
    let mut configs = Vec::new();
    for &p in &probabilities {
        for mode in modes {
            points.push((p, mode));
            configs.push(chaos_config(mode, FaultConfig::uniform(p)));
        }
    }
    let results = SweepRunner::from_env().run_sims(configs);
    for ((p, mode), m) in points.into_iter().zip(results) {
        assert_eq!(m.stale_iotlb_hits, 0, "{mode} p={p}: stale IOTLB hit");
        assert_eq!(m.stale_ptcache_walks, 0, "{mode} p={p}: stale walk");
        assert_eq!(
            m.faults.stale_dma_blocked + m.faults.stale_dma_leaked,
            m.faults.injected_of(FaultKind::TranslationFault),
            "{mode} p={p}: every stale-DMA probe must be accounted"
        );
        assert_eq!(
            m.faults.stale_dma_leaked, 0,
            "{mode} p={p}: device reached an unmapped IOVA"
        );
        if p >= 0.01 {
            assert!(
                m.faults.total_injected() > 0,
                "{mode} p={p}: the plane never fired"
            );
        }
        if p == 0.0 {
            assert_eq!(m.faults.total_injected(), 0);
            assert!(m.fault_log.is_empty());
        }
    }
}

/// The run must keep making progress under a heavy fault mix: recovery,
/// not collapse.
#[test]
fn goodput_survives_heavy_faults() {
    let m = run(ProtectionMode::FastAndSafe, FaultConfig::uniform(0.05));
    assert!(
        m.rx_goodput_bytes > 0,
        "no goodput at all under 5% faults: recovery is broken"
    );
    assert!(
        m.faults.total_recovered() > 0,
        "faults fired but nothing recovered"
    );
}

/// Every injection shows up once in the log, and the log agrees with the
/// per-kind counters.
#[test]
fn counters_reconcile_with_the_injection_log() {
    let m = run(ProtectionMode::FastAndSafe, FaultConfig::uniform(0.02));
    assert!(m.faults.total_injected() > 0, "plane never fired");
    assert_eq!(
        m.faults.total_injected(),
        m.fault_log.len() as u64,
        "log and counters disagree"
    );
    for kind in FaultKind::ALL {
        let logged = m.fault_log.iter().filter(|r| r.kind == kind).count() as u64;
        assert_eq!(logged, m.faults.injected_of(kind), "{kind}");
    }
}

/// Two runs with the same seed and the same fault mix are bit-identical —
/// the chaos plane is as reproducible as the rest of the simulation.
#[test]
fn fixed_seed_chaos_runs_are_deterministic() {
    let a = run(ProtectionMode::FastAndSafe, FaultConfig::uniform(0.02));
    let b = run(ProtectionMode::FastAndSafe, FaultConfig::uniform(0.02));
    assert_eq!(a.rx_goodput_bytes, b.rx_goodput_bytes);
    assert_eq!(a.tx_goodput_bytes, b.tx_goodput_bytes);
    assert_eq!(a.rx_packets, b.rx_packets);
    assert_eq!(a.nic_drops, b.nic_drops);
    assert_eq!(a.tx_packets, b.tx_packets);
    assert_eq!(a.iommu, b.iommu);
    assert_eq!(a.faults, b.faults);
    assert_eq!(a.fault_log, b.fault_log);
}

/// Enabling the fault plane with all-zero probabilities must not perturb
/// the baseline trajectory: a disabled plane consumes no RNG draws.
#[test]
fn zero_probability_plane_matches_disabled_baseline() {
    let base = run(ProtectionMode::LinuxStrict, FaultConfig::disabled());
    let zero = run(ProtectionMode::LinuxStrict, FaultConfig::uniform(0.0));
    assert_eq!(base.rx_goodput_bytes, zero.rx_goodput_bytes);
    assert_eq!(base.iommu, zero.iommu);
    assert_eq!(zero.faults.total_injected(), 0);
}

/// Persistent invalidation-queue stalls must degrade batched range
/// invalidation to per-page replay — and the degraded path must still
/// uphold strict safety.
#[test]
fn invalidation_stalls_degrade_to_per_page_and_stay_safe() {
    let cfg = FaultConfig::disabled().with(FaultKind::InvalidationTimeout, 0.9);
    let m = run(ProtectionMode::FastAndSafe, cfg);
    assert!(
        m.faults.injected_of(FaultKind::InvalidationTimeout) > 0,
        "stalls never fired"
    );
    assert!(m.faults.invalidation_retries > 0, "no backoff retries");
    assert!(
        m.faults.batch_fallbacks > 0,
        "persistent stalls never degraded a batch to per-page replay"
    );
    assert_eq!(m.stale_iotlb_hits, 0, "degraded path must stay safe");
    assert!(m.rx_goodput_bytes > 0, "stalls starved the run entirely");
}

/// Ring overruns recycle the refused descriptor instead of leaking it:
/// the run keeps replenishing and the recycle counter tracks recoveries.
#[test]
fn ring_overruns_recycle_descriptors() {
    let cfg = FaultConfig::disabled().with(FaultKind::RingOverrun, 0.2);
    let m = run(ProtectionMode::LinuxStrict, cfg);
    let injected = m.faults.injected_of(FaultKind::RingOverrun);
    assert!(injected > 0, "overruns never fired");
    assert_eq!(
        m.faults.descriptor_recycles,
        m.faults.recovered_of(FaultKind::RingOverrun),
        "every overrun recovery is a descriptor recycle"
    );
    assert_eq!(
        m.faults.descriptor_recycles, injected,
        "a refused descriptor must be recycled, not leaked"
    );
    assert!(m.rx_goodput_bytes > 0);
}

/// Config with an IOTLB so large nothing is ever evicted: any blocked
/// probe is then blocked by *invalidation*, not by capacity-eviction luck.
fn probe_config(mode: ProtectionMode) -> SimConfig {
    let faults = FaultConfig::disabled().with(FaultKind::TranslationFault, 0.5);
    let mut cfg = chaos_config(mode, faults);
    cfg.iommu.iotlb_entries = 1 << 16;
    cfg
}

fn probe_run(mode: ProtectionMode) -> RunMetrics {
    HostSim::new(probe_config(mode)).run()
}

/// Strict modes block every stale-DMA probe, even when the IOTLB never
/// evicts anything — the synchronous invalidation is what closes the
/// window.
#[test]
fn strict_modes_block_stale_dma_probes() {
    let modes = [ProtectionMode::LinuxStrict, ProtectionMode::FastAndSafe];
    let results =
        SweepRunner::from_env().run_sims(modes.iter().map(|&m| probe_config(m)).collect());
    for (mode, m) in modes.into_iter().zip(results) {
        assert!(m.faults.stale_dma_blocked > 0, "{mode}: no probes ran");
        assert_eq!(m.faults.stale_dma_leaked, 0, "{mode}: probe leaked");
        assert_eq!(m.stale_iotlb_hits, 0, "{mode}");
    }
}

/// Honest reporting in non-strict modes: with the same never-evicting
/// IOTLB, deferred invalidation windows are visible to the stale-DMA
/// probes rather than papered over.
#[test]
fn deferred_mode_exposes_its_unsafety_window() {
    let m = probe_run(ProtectionMode::LinuxDeferred);
    let probes = m.faults.stale_dma_blocked + m.faults.stale_dma_leaked;
    assert!(probes > 0, "no probes ran");
    assert!(
        m.faults.stale_dma_leaked > 0,
        "deferred mode should leak stale translations between flushes"
    );
}

/// A snapshot taken *mid-drain* — while the driver's pending-wipe ring
/// holds queued-but-unretired PTcache wipe epochs — must restore
/// bit-identically. The per-page invalidation drain keeps that ring
/// populated between completions and the next translation, so this
/// pins the in-flight drain state (requests plus epoch boundaries)
/// through the snapshot codec rather than hoping a fixed timestamp lands
/// on a non-empty ring.
#[test]
fn mid_drain_snapshot_restores_with_pending_wipes_in_flight() {
    // LinuxStrict queues a leaf-PTcache wipe per completed page, so the
    // ring refills constantly; FastAndSafe preserves the PTcache and its
    // ring stays empty — strict is the interesting case here.
    let cfg = chaos_config(ProtectionMode::LinuxStrict, FaultConfig::disabled());
    let golden = HostSim::new(cfg).run();

    // Walk the run in small steps until the pending ring is non-empty,
    // then snapshot right there.
    let mut sim = HostSim::new(cfg);
    let mut at = 0;
    while sim.pending_wipe_epochs() == 0 {
        at += 10_000;
        assert!(
            at <= cfg.warmup + cfg.measure,
            "pending-wipe ring never became non-empty in a strict run"
        );
        sim.step_until(at);
    }
    let pending = sim.pending_wipe_epochs();
    assert!(pending > 0);
    let bytes = sim.snapshot();
    drop(sim);

    let resumed = HostSim::restore(cfg, &bytes).expect("mid-drain snapshot restores");
    assert_eq!(
        resumed.pending_wipe_epochs(),
        pending,
        "restore dropped or invented pending wipe epochs"
    );
    let resumed = resumed.run();
    assert_eq!(golden, resumed, "mid-drain snapshot diverged at t={at}");
}

/// A fault-heavy run snapshotted mid-recovery (retries, backoffs, and
/// descriptor recycles in flight) restores bit-identically: the recovery
/// ladders' state rides inside the snapshot like everything else, and the
/// chronological fault log of the resumed run matches the uninterrupted
/// one entry for entry.
#[test]
fn mid_recovery_snapshot_restores_bit_identically() {
    for mode in [ProtectionMode::LinuxStrict, ProtectionMode::FastAndSafe] {
        let cfg = chaos_config(mode, FaultConfig::uniform(0.05));
        let golden = HostSim::new(cfg).run();
        assert!(
            golden.faults.total_injected() > 0,
            "{mode}: fault plane never fired"
        );
        // Snapshot at several points across the run — early, mid-warmup
        // churn, and deep in the measured window — so at least one lands
        // with recoveries in flight.
        for at in [300_000, 1_200_000, 2_100_000] {
            let mut sim = HostSim::new(cfg);
            sim.step_until(at);
            let bytes = sim.snapshot();
            drop(sim);
            let resumed = HostSim::restore(cfg, &bytes)
                .expect("chaos snapshot restores")
                .run();
            assert_eq!(
                golden.fault_log, resumed.fault_log,
                "{mode}: fault log diverged after restore at t={at}"
            );
            assert_eq!(golden, resumed, "{mode}: metrics diverged at t={at}");
        }
    }
}
