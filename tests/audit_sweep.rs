//! Oracle-enabled sweep: every mode × every scenario × two seeds (plus a
//! chaos basket) must finish with zero safety-invariant violations.
//!
//! This is the repo's correctness gate: any change to the allocator,
//! invalidation batching, PTcache handling, or descriptor lifecycle that
//! widens the unmap→invalidate window — even one the perf suites would
//! cheerfully absorb — turns a cell of this sweep red. On failure the
//! violating cells are also written to `target/audit_failure.txt` so CI
//! can upload the evidence as an artifact.
//!
//! Windows are tiny: the sweep checks invariants on every translation, so
//! a few simulated milliseconds already audit hundreds of thousands of
//! device accesses per cell.

use std::fmt::Write as _;

use fns::core::{HostSim, ProtectionMode, SimConfig};
use fns::faults::FaultConfig;
use fns::harness::{scenario_names, SweepRunner, SCENARIOS};
use fns::oracle::AuditConfig;

/// Shrinks a scenario config into an auditable cell: short windows, no
/// aging churn, the oracle attached and counting (not fatal — we want the
/// full sample list in the failure artifact).
fn audit_cell(mut cfg: SimConfig, seed: u64, faults: FaultConfig) -> SimConfig {
    cfg.warmup = 500_000;
    cfg.measure = 2_000_000;
    cfg.aging_factor = 0.0;
    cfg.seed = seed;
    cfg.faults = faults;
    cfg.audit = AuditConfig::on();
    cfg
}

fn report_failures(label: &str, failures: &[String]) {
    if failures.is_empty() {
        return;
    }
    let mut artifact = format!("{label}: {} violating cell(s)\n", failures.len());
    for f in failures {
        let _ = writeln!(artifact, "{f}");
    }
    // Best effort: the assert below is the real signal, the artifact is
    // for CI upload.
    let _ = std::fs::create_dir_all("target");
    let _ = std::fs::write("target/audit_failure.txt", &artifact);
    panic!("{artifact}");
}

/// The headline sweep: all modes × all scenarios × seeds {1, 7}.
#[test]
fn full_sweep_is_violation_free() {
    let seeds = [1u64, 7];
    let mut keys = Vec::new();
    let mut configs = Vec::new();
    for scenario in SCENARIOS {
        for mode in ProtectionMode::ALL {
            for seed in seeds {
                keys.push((scenario.name, mode, seed));
                configs.push(audit_cell(
                    (scenario.build)(mode),
                    seed,
                    FaultConfig::disabled(),
                ));
            }
        }
    }
    let results = SweepRunner::from_env().run_sims(configs);
    let mut failures = Vec::new();
    let mut audited_translations = 0u64;
    for ((name, mode, seed), m) in keys.into_iter().zip(results) {
        audited_translations += m.audit.checks;
        assert!(m.audit.enabled, "{name}/{mode}/s{seed}: audit not attached");
        if mode.iommu_enabled() {
            assert!(
                m.audit.checks > 0,
                "{name}/{mode}/s{seed}: no translations audited"
            );
        }
        if !m.audit.is_clean() {
            let mut cell = format!(
                "{name} mode={} seed={seed}: {}",
                mode.label(),
                m.audit.summary()
            );
            for v in &m.audit.samples {
                let _ = write!(cell, "\n  [{}] {}", v.invariant.name(), v.detail);
            }
            failures.push(cell);
        }
    }
    report_failures("full sweep", &failures);
    // The sweep must do real auditing work to mean anything.
    assert!(
        audited_translations > 500_000,
        "sweep audited only {audited_translations} translations"
    );
}

/// The chaos basket: injected faults (exhaustions, queue stalls, ring
/// overruns, stale-DMA probes) must degrade gracefully *and* stay within
/// the safety contract — recovery paths are exactly where an invalidation
/// is easiest to lose.
#[test]
fn chaos_sweep_is_violation_free() {
    let probabilities = [0.001, 0.01];
    let seeds = [1u64, 7];
    let mut keys = Vec::new();
    let mut configs = Vec::new();
    for mode in ProtectionMode::ALL {
        for &p in &probabilities {
            for seed in seeds {
                keys.push((mode, p, seed));
                configs.push(audit_cell(
                    fns::apps::iperf_config(mode, 2, 64),
                    seed,
                    FaultConfig::uniform(p),
                ));
            }
        }
    }
    let results = SweepRunner::from_env().run_sims(configs);
    let mut failures = Vec::new();
    for ((mode, p, seed), m) in keys.into_iter().zip(results) {
        if !m.audit.is_clean() {
            let mut cell = format!(
                "chaos mode={} p={p} seed={seed}: {}",
                mode.label(),
                m.audit.summary()
            );
            for v in &m.audit.samples {
                let _ = write!(cell, "\n  [{}] {}", v.invariant.name(), v.detail);
            }
            failures.push(cell);
        }
    }
    report_failures("chaos sweep", &failures);
}

/// Explicit invalidation-drain coverage: in every protection mode, an
/// audited run must be violation-free. The headline sweep exercises the
/// drain implicitly; this cell names every mode so a drain-order
/// regression cannot silently shrink the coverage. The per-page drain's
/// equivalence to one-request submissions is pinned in the driver's own
/// unit tests.
#[test]
fn coalesced_drain_is_audit_clean_in_every_mode() {
    let configs: Vec<_> = ProtectionMode::ALL
        .iter()
        .map(|&mode| {
            audit_cell(
                fns::apps::iperf_config(mode, 2, 64),
                1,
                FaultConfig::disabled(),
            )
        })
        .collect();
    let results = SweepRunner::from_env().run_sims(configs);
    let mut failures = Vec::new();
    for (mode, m) in ProtectionMode::ALL.into_iter().zip(&results) {
        assert!(m.audit.checks > 0 || !mode.iommu_enabled());
        if !m.audit.is_clean() {
            let mut cell = format!("drain mode={}: {}", mode.label(), m.audit.summary());
            for v in &m.audit.samples {
                let _ = write!(cell, "\n  [{}] {}", v.invariant.name(), v.detail);
            }
            failures.push(cell);
        }
    }
    report_failures("drain sweep", &failures);
}

/// Auditing consumes no randomness and never feeds back into the
/// simulation: the metrics of an audited run must be bit-identical to the
/// unaudited run (modulo the audit report itself), at any job count.
#[test]
fn audit_does_not_perturb_the_simulation() {
    let build = |audit: bool| {
        let mut cfg = audit_cell(
            fns::harness::scenario_config("iperf", ProtectionMode::FastAndSafe).unwrap(),
            3,
            FaultConfig::disabled(),
        );
        cfg.audit = if audit {
            AuditConfig::on()
        } else {
            AuditConfig::off()
        };
        cfg
    };
    let mut audited = HostSim::new(build(true)).run();
    let plain = HostSim::new(build(false)).run();
    assert!(audited.audit.is_clean());
    assert!(audited.audit.checks > 0);
    audited.audit = Default::default();
    assert_eq!(audited, plain, "auditing changed the simulation");
}

/// A seeded cross-domain leak (a map op aliased into the next tenant's
/// domain, touched, and torn down without invalidation) must be caught and
/// *named* by the oracle in every IOMMU-enabled protection mode — deferred
/// windows excuse same-domain staleness, never cross-domain resolution.
/// IommuOff is exempt by contract: with no translation there is no domain
/// to cross (`mode_contracts` pins `domain_isolation == iommu_enabled()`).
#[test]
fn cross_domain_leak_is_caught_in_every_mode() {
    use fns::core::Sabotage;
    let mut keys = Vec::new();
    let mut configs = Vec::new();
    for mode in ProtectionMode::ALL {
        let mut cfg = audit_cell(
            fns::apps::fanin_config(mode, 16),
            1,
            FaultConfig::disabled(),
        );
        cfg.sabotage = Sabotage::CrossDomainLeak { nth: 40 };
        keys.push(mode);
        configs.push(cfg);
    }
    let results = SweepRunner::from_env().run_sims(configs);
    for (mode, m) in keys.into_iter().zip(results) {
        if !mode.iommu_enabled() {
            assert!(
                m.audit.is_clean(),
                "{mode}: leak sabotage is a translation-layer bug; IOMMU-off has no translations"
            );
            continue;
        }
        let caught = m
            .audit
            .samples
            .iter()
            .any(|v| v.invariant.name() == "cross-domain-isolation");
        assert!(
            caught,
            "{mode}: seeded cross-domain leak went undetected ({})",
            m.audit.summary()
        );
    }
}

/// The scenario registry drives this sweep: a scenario added without a
/// name (or a renamed one) would silently shrink the matrix.
#[test]
fn sweep_covers_the_whole_registry() {
    assert_eq!(
        scenario_names(),
        vec![
            "iperf",
            "iperf-small-ring",
            "bidirectional",
            "redis",
            "nginx",
            "spdk",
            "rpc",
            "mt-fanin",
            "mt-incast",
            "mt-churn",
            "dc-scale"
        ]
    );
}
