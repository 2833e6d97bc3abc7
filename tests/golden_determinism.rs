//! Golden determinism: the parallel sweep runner and the hot-path
//! specializations (packed-u64 LRU, dense flow tables, reusable event
//! queue) must be invisible in the results.
//!
//! Every test drives the same configurations through the plain sequential
//! path (`HostSim::run` on the calling thread) and through `SweepRunner`
//! with several workers, then requires **bit-identical** `RunMetrics` —
//! every counter, the latency histogram, the locality trace, and the full
//! chronological fault log.
//!
//! Those pins compare two paths through the same code. The fixed digest
//! table at the end compares against recorded values instead, so a change
//! that moves every path alike still fails. Reference implementations
//! (the binary-heap queue, one-request invalidation submissions) are
//! checked against in crate tests, not here.

use fns::apps::{iperf_config, redis_config, rpc_config};
use fns::core::{HostSim, ProtectionMode, RunArena, RunMetrics, SimConfig};
use fns::faults::FaultConfig;
use fns::harness::SweepRunner;
use fns::trace::{ObserveConfig, ProbeConfig, TraceConfig};

/// Fig2-shaped sweep points (shortened windows): flow counts crossed with
/// the stock-overhead modes.
fn fig2_shaped() -> Vec<SimConfig> {
    let mut configs = Vec::new();
    for flows in [5u32, 20] {
        for mode in [ProtectionMode::IommuOff, ProtectionMode::LinuxStrict] {
            let mut cfg = iperf_config(mode, flows, 256);
            cfg.warmup = 2_000_000;
            cfg.measure = 5_000_000;
            configs.push(cfg);
        }
    }
    configs
}

/// Chaos-shaped sweep points: small fault-injected runs whose fault logs
/// exercise the forked RNG planes.
fn chaos_shaped() -> Vec<SimConfig> {
    let mut configs = Vec::new();
    for &p in &[0.0, 0.01, 0.05] {
        for mode in [ProtectionMode::LinuxStrict, ProtectionMode::FastAndSafe] {
            let mut cfg = iperf_config(mode, 2, 64);
            cfg.cores = 2;
            cfg.warmup = 500_000;
            cfg.measure = 2_000_000;
            cfg.aging_factor = 0.0;
            cfg.faults = FaultConfig::uniform(p);
            configs.push(cfg);
        }
    }
    configs
}

fn run_sequentially(configs: &[SimConfig]) -> Vec<RunMetrics> {
    configs.iter().map(|cfg| HostSim::new(*cfg).run()).collect()
}

fn assert_identical(golden: &[RunMetrics], candidate: &[RunMetrics], what: &str) {
    assert_eq!(golden.len(), candidate.len(), "{what}: result count");
    for (i, (a, b)) in golden.iter().zip(candidate).enumerate() {
        assert_eq!(
            a.fault_log, b.fault_log,
            "{what} run {i}: fault logs diverged"
        );
        assert_eq!(a, b, "{what} run {i}: metrics diverged");
    }
}

#[test]
fn fig2_shaped_sweep_is_identical_under_parallelism() {
    let configs = fig2_shaped();
    let golden = run_sequentially(&configs);
    for jobs in [1, 4] {
        let par = SweepRunner::new(jobs).run_sims(configs.clone());
        assert_identical(&golden, &par, &format!("fig2-shaped jobs={jobs}"));
    }
}

#[test]
fn traced_fig2_shaped_sweep_is_identical_under_parallelism() {
    // Full-telemetry configs: every trace category recorded plus the gauge
    // sampler. RunMetrics PartialEq covers the event trace, the sampler
    // series, and the span table, so bit-identical results here mean the
    // whole telemetry plane is deterministic under parallelism.
    let configs: Vec<SimConfig> = fig2_shaped()
        .into_iter()
        .map(|mut cfg| {
            cfg.trace = TraceConfig::all();
            cfg.probes = ProbeConfig::every(100_000);
            cfg
        })
        .collect();
    let golden = run_sequentially(&configs);
    assert!(
        golden.iter().all(|m| !m.trace.is_empty()),
        "traced runs recorded no events"
    );
    assert!(
        golden.iter().all(|m| !m.samples.samples.is_empty()),
        "probed runs recorded no samples"
    );
    for jobs in [1, 8] {
        let par = SweepRunner::new(jobs).run_sims(configs.clone());
        assert_identical(&golden, &par, &format!("traced fig2-shaped jobs={jobs}"));
        for (a, b) in golden.iter().zip(&par) {
            assert_eq!(a.trace, b.trace, "trace diverged at jobs={jobs}");
            assert_eq!(
                a.samples, b.samples,
                "sampler series diverged at jobs={jobs}"
            );
        }
    }
}

#[test]
fn chaos_shaped_sweep_is_identical_under_parallelism() {
    let configs = chaos_shaped();
    let golden = run_sequentially(&configs);
    for jobs in [2, 8] {
        let par = SweepRunner::new(jobs).run_sims(configs.clone());
        assert_identical(&golden, &par, &format!("chaos-shaped jobs={jobs}"));
    }
}

#[test]
fn latency_histograms_survive_the_parallel_path() {
    // Fig9-shaped: the histogram is the one RunMetrics field with interior
    // structure (bucket vector), so cover it explicitly.
    let mut cfg = rpc_config(ProtectionMode::FastAndSafe, 4096);
    cfg.measure = 20_000_000;
    let configs = vec![cfg, cfg];
    let golden = run_sequentially(&configs);
    assert!(golden[0].latency.count() > 0, "no latency samples recorded");
    let par = SweepRunner::new(2).run_sims(configs);
    assert_identical(&golden, &par, "fig9-shaped");
}

#[test]
fn arena_recycled_runs_match_fresh_runs() {
    // One arena threaded through a heterogeneous mix of configurations
    // (different modes, flow counts, fault planes, trace settings) must
    // yield the exact metrics of a fresh simulation per point: the
    // recycled event-queue slab, page tables, pools, and flow tables are
    // storage-only and must never leak state between runs.
    let mut configs = fig2_shaped();
    configs.extend(chaos_shaped());
    configs[0].trace = TraceConfig::all();
    configs[0].probes = ProbeConfig::every(100_000);
    let golden = run_sequentially(&configs);
    let mut arena = RunArena::new();
    let recycled: Vec<RunMetrics> = configs
        .iter()
        .map(|cfg| HostSim::run_in(*cfg, &mut arena))
        .collect();
    assert_identical(&golden, &recycled, "arena-recycled");
    // Re-running the same sequence through the now-warm arena must also
    // agree — the arena's steady state is as clean as its first use.
    let warm: Vec<RunMetrics> = configs
        .iter()
        .map(|cfg| HostSim::run_in(*cfg, &mut arena))
        .collect();
    assert_identical(&golden, &warm, "warm-arena repeat");
}

/// Fig11a-shaped sweep points with the allocator aged (small rings,
/// shortened windows): value sizes crossed with every protection mode, so
/// each mode's post-churn state serves both value sizes.
fn aged_value_sweep() -> Vec<SimConfig> {
    let mut configs = Vec::new();
    for value_kb in [4u64, 32] {
        for mode in ProtectionMode::ALL {
            let mut cfg = redis_config(mode, value_kb << 10);
            cfg.cores = 2;
            cfg.flows = 2;
            cfg.ring_packets = 32;
            cfg.warmup = 300_000;
            cfg.measure = 700_000;
            configs.push(cfg);
        }
    }
    configs
}

#[test]
fn kept_aged_states_match_fresh_construction_in_every_mode() {
    // An arena ages the allocator once per mode and restores that
    // post-churn state for the later value size. Those runs must equal
    // runs that aged from scratch, in every protection mode and through
    // the sweep runner's per-worker arenas.
    let configs = aged_value_sweep();
    let modes = ProtectionMode::ALL.len();
    let golden = run_sequentially(&configs);
    let mut arena = RunArena::new();
    let kept: Vec<RunMetrics> = configs
        .iter()
        .map(|cfg| HostSim::run_in(*cfg, &mut arena))
        .collect();
    assert_eq!(arena.aged_states(), modes, "one aged state per mode");
    assert_eq!(arena.aged_reuses(), (configs.len() - modes) as u64);
    assert_identical(&golden, &kept, "kept aged states");
    for jobs in [1, 3] {
        let par = SweepRunner::new(jobs).run_sims(configs.clone());
        assert_identical(&golden, &par, &format!("kept aged states jobs={jobs}"));
    }
}

#[test]
fn snapshot_restore_pins_bit_identical_metrics_at_any_job_count() {
    // The checkpoint plane must be invisible too: run-to-T → snapshot →
    // restore → run-to-end equals the uninterrupted run bit for bit, for
    // every protection mode and under the parallel sweep runner at 1 and 8
    // workers.
    let mut configs = Vec::new();
    for mode in ProtectionMode::ALL {
        let mut cfg = iperf_config(mode, 2, 64);
        cfg.cores = 2;
        cfg.warmup = 500_000;
        cfg.measure = 2_000_000;
        cfg.aging_factor = 0.0;
        configs.push(cfg);
    }
    let golden = run_sequentially(&configs);
    let interrupt = |cfg: SimConfig| {
        let mut sim = HostSim::new(cfg);
        sim.step_until(1_200_000);
        let bytes = sim.snapshot();
        drop(sim);
        HostSim::restore(cfg, &bytes)
            .expect("a sim's own snapshot restores under its own config")
            .run()
    };
    for jobs in [1, 8] {
        let resumed = SweepRunner::new(jobs).map(configs.clone(), interrupt);
        assert_identical(&golden, &resumed, &format!("snapshot/restore jobs={jobs}"));
    }
}

#[test]
fn observability_is_invisible_and_rng_free() {
    // The causal observability plane (provenance book, txn spans, HDR
    // registry, flight recorder) must be a pure observer: arming all of
    // it changes nothing but the dumps themselves. Scrubbing the four
    // dump fields from an armed run must yield the bare run bit for bit —
    // which also pins that the plane consumes no RNG (any draw would fork
    // the fault/workload streams and diverge every counter).
    let mut configs = chaos_shaped();
    // Include the gauge sampler on one cell: the registry rides its
    // cadence, and the sampler series itself must not shift.
    configs[0].probes = ProbeConfig::every(100_000);
    let golden = run_sequentially(&configs);
    let armed_cfgs: Vec<SimConfig> = configs
        .iter()
        .map(|cfg| {
            let mut c = *cfg;
            c.observe = ObserveConfig::full();
            c
        })
        .collect();
    let armed = run_sequentially(&armed_cfgs);
    for (i, m) in armed.iter().enumerate() {
        assert!(m.provenance.enabled, "run {i}: provenance off");
        assert!(!m.provenance.pages.is_empty(), "run {i}: no timelines");
        assert!(m.txns.enabled, "run {i}: txns off");
        assert!(m.registry.enabled, "run {i}: registry off");
        assert!(!m.flight.is_empty(), "run {i}: flight ring empty");
        // Heavily faulted cells can kill all traffic before a descriptor
        // completes; require completed spans only where traffic flows.
        if m.faults.total_injected() == 0 {
            assert!(!m.txns.records.is_empty(), "run {i}: no txn records");
            assert!(!m.registry.stats.is_empty(), "run {i}: no registry keys");
        }
    }
    let scrubbed: Vec<RunMetrics> = armed
        .into_iter()
        .map(|mut m| {
            m.provenance = Default::default();
            m.txns = Default::default();
            m.registry = Default::default();
            m.flight = Default::default();
            m
        })
        .collect();
    assert_identical(&golden, &scrubbed, "observability-armed");
    // And the armed plane itself replays identically under parallelism,
    // dumps included.
    for jobs in [1, 8] {
        let par = SweepRunner::new(jobs).run_sims(armed_cfgs.clone());
        let rerun = run_sequentially(&armed_cfgs);
        assert_identical(&rerun, &par, &format!("armed observability jobs={jobs}"));
    }
}

#[test]
fn armed_observability_survives_checkpoint_restore() {
    // Snapshot/restore with the full plane armed: the book, txn ring,
    // registry, and flight ring serialize into the checkpoint and the
    // resumed run's dumps equal the uninterrupted run's bit for bit
    // (RunMetrics PartialEq covers all four fields).
    for mode in [ProtectionMode::LinuxStrict, ProtectionMode::FastAndSafe] {
        let mut cfg = iperf_config(mode, 2, 64);
        cfg.cores = 2;
        cfg.warmup = 500_000;
        cfg.measure = 2_000_000;
        cfg.aging_factor = 0.0;
        cfg.observe = ObserveConfig::full();
        let golden = HostSim::new(cfg).run();
        assert!(
            golden.provenance.enabled && !golden.flight.is_empty(),
            "armed run recorded nothing"
        );
        let mut sim = HostSim::new(cfg);
        sim.step_until(1_200_000);
        let bytes = sim.snapshot();
        drop(sim);
        let resumed = HostSim::restore(cfg, &bytes)
            .expect("armed snapshot restores")
            .run();
        assert_eq!(golden, resumed, "mode {:?}: armed resume diverged", mode);
    }
}

#[test]
fn corrupted_snapshots_restore_or_refuse_without_panicking() {
    // A checkpoint is an input file: a corrupt one must come back as a
    // typed error, never a panic. The shapes: LinuxStrict with the full
    // observability and audit planes armed (tap section included),
    // hugepage-pin (huge-leaf entries), churn under F&S (three protection
    // domains), and F&S with hugepages, whose collapsed PT-L4 directory
    // leaves a reclaimed page-table slot in the image at 300 us.
    let mut strict = iperf_config(ProtectionMode::LinuxStrict, 5, 256);
    strict.warmup = 200_000;
    strict.measure = 400_000;
    strict.trace = TraceConfig::all();
    strict.observe = ObserveConfig::full();
    strict.audit = fns::oracle::AuditConfig::on();
    fuzz_snapshot(strict, 300_000, 0x5eed);
    let mut hugepage = iperf_config(ProtectionMode::HugepagePinned, 5, 256);
    hugepage.warmup = 200_000;
    hugepage.measure = 400_000;
    fuzz_snapshot(hugepage, 300_000, 0x5eed + 1);
    let mut churn = fns::apps::churn_config(ProtectionMode::FastAndSafe, 16, 128 * 1024);
    churn.warmup = 500_000;
    churn.measure = 1_000_000;
    fuzz_snapshot(churn, 1_000_000, 0x5eed + 2);
    let mut fns_huge = iperf_config(ProtectionMode::FnsHugeStrict, 5, 256);
    fns_huge.warmup = 200_000;
    fns_huge.measure = 400_000;
    fuzz_snapshot(fns_huge, 300_000, 0x5eed + 3);
}

/// Mutates one 8-byte word of a mid-run checkpoint at a time, re-seals
/// it so the checksum passes, and requires every decoder behind it to
/// restore or refuse without panicking.
fn fuzz_snapshot(cfg: SimConfig, at: u64, seed: u64) {
    let mut sim = HostSim::new(cfg);
    sim.step_until(at);
    let clean = sim.snapshot();
    drop(sim);
    assert!(
        HostSim::restore(cfg, &clean).is_ok(),
        "clean snapshot refused"
    );
    // Header (magic + version) and the checksum word stay intact.
    let words = (clean.len() - 8) / 8;
    let mut rng = fns::sim::SimRng::seed(seed);
    let (mut restored, mut refused) = (0, 0);
    for i in 0..1000 {
        let mut bytes = clean.clone();
        let at = 8 * (2 + rng.index(words - 2));
        let word = u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap());
        // Alternate small values (lengths, tags, indices) with random bits.
        let new = match i % 3 {
            0 => rng.next_u64() % 8,
            1 => word ^ (1 << rng.index(64)),
            _ => rng.next_u64(),
        };
        bytes[at..at + 8].copy_from_slice(&new.to_le_bytes());
        fns::snap::reseal(&mut bytes);
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            HostSim::restore(cfg, &bytes).is_ok()
        }));
        match outcome {
            Ok(true) => restored += 1,
            Ok(false) => refused += 1,
            Err(_) => panic!(
                "{:?}: restore panicked on mutation {i}: word {at} = {new:#x}",
                cfg.mode
            ),
        }
    }
    assert_eq!(restored + refused, 1000);
    assert!(refused > 0, "{:?}: no mutation was refused", cfg.mode);
}

/// Multi-device, multi-tenant scenarios (2 NICs × 4 queues + a storage
/// DMA device, three protection domains) with shortened windows.
fn multi_device_shaped() -> Vec<SimConfig> {
    let mut configs = Vec::new();
    for mode in [
        ProtectionMode::LinuxDeferred,
        ProtectionMode::FastAndSafe,
        ProtectionMode::IommuOff,
    ] {
        for cfg in [
            fns::apps::fanin_config(mode, 24),
            fns::apps::incast_config(mode, 12, 64 * 1024),
            fns::apps::churn_config(mode, 16, 128 * 1024),
        ] {
            let mut c = cfg;
            c.warmup = 1_000_000;
            c.measure = 3_000_000;
            c.aging_factor = 0.0;
            configs.push(c);
        }
    }
    configs
}

#[test]
fn multi_device_sweep_is_identical_under_parallelism_and_queues() {
    // The tentpole topology must be as deterministic as the single-NIC
    // shape: per-domain attribution, storage completions, and churn
    // restarts all ride the same event order at any job count.
    let configs = multi_device_shaped();
    let golden = run_sequentially(&configs);
    for m in &golden {
        assert_eq!(m.domains.len(), 3, "expected three protection domains");
    }
    for jobs in [1, 8] {
        let par = SweepRunner::new(jobs).run_sims(configs.clone());
        assert_identical(&golden, &par, &format!("multi-device jobs={jobs}"));
    }
}

#[test]
fn multi_device_audit_is_invisible_and_restore_safe() {
    // Audited multi-device runs must equal unaudited runs bit for bit
    // (modulo the audit report), and a snapshot → restore round-trip
    // mid-run must resume onto the identical trajectory with the whole
    // multi-device state (per-NIC buffers, per-ring descriptors,
    // per-domain IOMMU stats, churn boundaries) in the checkpoint.
    let configs = multi_device_shaped();
    let golden = run_sequentially(&configs);
    let audited_cfgs: Vec<SimConfig> = configs
        .iter()
        .map(|cfg| {
            let mut c = *cfg;
            c.audit = fns::oracle::AuditConfig::on();
            c
        })
        .collect();
    let audited = run_sequentially(&audited_cfgs);
    for (i, (plain, aud)) in golden.iter().zip(&audited).enumerate() {
        assert!(aud.audit.is_clean(), "run {i}: audit violations");
        let mut scrubbed = aud.clone();
        scrubbed.audit = Default::default();
        assert_eq!(&scrubbed, plain, "run {i}: auditing changed the run");
    }
    let resumed: Vec<RunMetrics> = configs
        .iter()
        .map(|cfg| {
            let mut sim = HostSim::new(*cfg);
            sim.step_until(1_500_000);
            let bytes = sim.snapshot();
            drop(sim);
            HostSim::restore(*cfg, &bytes)
                .expect("multi-device snapshot restores")
                .run()
        })
        .collect();
    assert_identical(&golden, &resumed, "multi-device snapshot/restore");
}

/// FNV-1a digest of the full `Debug` rendering of a run's metrics: every
/// counter, histogram bucket, span, trace record, fault-log entry and
/// audit field feeds it.
fn metrics_digest(m: &RunMetrics) -> u64 {
    fns::snap::fnv1a(format!("{m:?}").as_bytes())
}

/// The cells of [`FIXED_DIGESTS`], in table order.
fn fixed_digest_cells() -> Vec<(String, SimConfig)> {
    let mut cells = Vec::new();
    for (i, cfg) in fig2_shaped().into_iter().enumerate() {
        cells.push((format!("fig2/{i}"), cfg));
    }
    for (i, cfg) in chaos_shaped().into_iter().enumerate() {
        cells.push((format!("chaos/{i}"), cfg));
    }
    for (i, cfg) in multi_device_shaped().into_iter().enumerate() {
        cells.push((format!("multi-device/{i}"), cfg));
    }
    let mut traced = fig2_shaped()[1];
    traced.trace = TraceConfig::all();
    traced.probes = ProbeConfig::every(100_000);
    cells.push(("traced-probed".to_string(), traced));
    for mode in ProtectionMode::ALL {
        let mut cfg = iperf_config(mode, 2, 64);
        cfg.cores = 2;
        cfg.warmup = 500_000;
        cfg.measure = 1_500_000;
        cfg.audit = fns::oracle::AuditConfig::on();
        cells.push((format!("audited/{}", mode.label()), cfg));
    }
    cells
}

/// Fixed end-to-end results, recorded once and never edited: any change to
/// a simulated trajectory, trace, fault log or audit report shows up here
/// as a digest mismatch, with no second code path to compare against.
const FIXED_DIGESTS: &[(&str, u64)] = &[
    ("fig2/0", 0xc22d9540649e9080),
    ("fig2/1", 0x3587273cd42bf425),
    ("fig2/2", 0x5ccf60e483878cdb),
    ("fig2/3", 0x2e47a55825706acf),
    ("chaos/0", 0x00b8d7e04f89a757),
    ("chaos/1", 0xdf60a94f2f85ffc0),
    ("chaos/2", 0x217c6714ed2ce019),
    ("chaos/3", 0x0bd4dc23cf1fb5f4),
    ("chaos/4", 0x77e1b1bae9cf0cb4),
    ("chaos/5", 0x562691a8ed0db48e),
    ("multi-device/0", 0x9fe8bf426a4fe1f5),
    ("multi-device/1", 0xff85640b4e9eaa83),
    ("multi-device/2", 0x986ae1e79558032a),
    ("multi-device/3", 0x00d2e0387c855816),
    ("multi-device/4", 0x04978b4264449796),
    ("multi-device/5", 0xf71149986267c399),
    ("multi-device/6", 0xdb0a788283d7ec53),
    ("multi-device/7", 0x057a3ad837a1bca2),
    ("multi-device/8", 0x1a8c9999cf30bdf7),
    ("traced-probed", 0xa3ae4349c3dfe7bf),
    ("audited/iommu-off", 0x92700bfafd6b0e4b),
    ("audited/linux-strict", 0x53d897f2ddbffe02),
    ("audited/linux-deferred", 0x6d8ee5f40aa5e022),
    ("audited/linux+A", 0xca2a007e95ee6de6),
    ("audited/linux+B", 0xcf22736c6537693f),
    ("audited/fast-and-safe", 0xe0e9daa12bbddb65),
    ("audited/hugepage-pin", 0xa4abd9c95674f2d3),
    ("audited/damn-recycle", 0xe40684243f56a704),
    ("audited/fns+hugepages", 0x5a0a2dfc523f81f2),
];

#[test]
fn fixed_digest_table_pins_end_to_end_results() {
    let cells = fixed_digest_cells();
    let (names, configs): (Vec<String>, Vec<SimConfig>) = cells.into_iter().unzip();
    let got: Vec<u64> = SweepRunner::new(2)
        .run_sims(configs)
        .iter()
        .map(metrics_digest)
        .collect();
    let rendered: String = names
        .iter()
        .zip(&got)
        .map(|(n, d)| format!("    ({n:?}, {d:#018x}),\n"))
        .collect();
    let want: Vec<(String, u64)> = FIXED_DIGESTS
        .iter()
        .map(|&(n, d)| (n.to_string(), d))
        .collect();
    let have: Vec<(String, u64)> = names.into_iter().zip(got).collect();
    assert_eq!(have, want, "computed table:\n{rendered}");
}

#[test]
fn repeated_parallel_sweeps_are_identical_to_each_other() {
    // Not just parallel == sequential: two parallel executions must agree
    // with each other even when thread scheduling differs.
    let configs = chaos_shaped();
    let first = SweepRunner::new(4).run_sims(configs.clone());
    let second = SweepRunner::new(4).run_sims(configs);
    assert_identical(&first, &second, "parallel repeat");
}
