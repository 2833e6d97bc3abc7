//! Causal-observability acceptance: a sabotaged run must produce a
//! failure artifact whose page timeline names the skipped invalidation,
//! and the CLI must reproduce the same explanation end to end.

use std::process::Command;

use fns::apps::iperf_config;
use fns::core::{HostSim, ProtectionMode, Sabotage, SimConfig};
use fns::oracle::AuditConfig;
use fns::trace::{ObserveConfig, RegMetric};

/// The tiny audited shape the soak bisect test already proved trips a
/// violation under `SkipRangeInvalidation { nth: 500 }`.
fn sabotage_shape(mode: ProtectionMode) -> SimConfig {
    let mut cfg = iperf_config(mode, 2, 64);
    cfg.cores = 2;
    cfg.warmup = 500_000;
    cfg.measure = 2_000_000;
    cfg.aging_factor = 0.0;
    cfg.audit = AuditConfig {
        enabled: true,
        fatal: false,
    };
    cfg.observe.provenance = true;
    cfg
}

#[test]
fn sabotaged_run_explains_the_skipped_invalidation() {
    let cfg = sabotage_shape(ProtectionMode::LinuxStrict);
    let mut sim = HostSim::new(cfg);
    sim.set_sabotage(Sabotage::SkipRangeInvalidation { nth: 500 });
    let m = sim.run();
    assert!(
        m.audit.violations > 0,
        "sabotage produced no violation; tune nth"
    );
    let pfns = m.audit.violating_pfns();
    assert!(!pfns.is_empty(), "violations without anchored pfns");
    // Every violating page's timeline must name the dropped invalidation:
    // this is the causal chain the observability plane exists to close.
    for pfn in pfns {
        let text = m.provenance.explain(pfn);
        assert!(
            text.contains("inv-SKIPPED"),
            "pfn {pfn:#x} timeline misses the skip:\n{text}"
        );
        assert!(
            text.contains("submission ordinal 500"),
            "pfn {pfn:#x} timeline misses the ordinal:\n{text}"
        );
    }
}

#[test]
fn live_sim_explains_a_page_before_collection() {
    // `HostSim::explain_page` is the crash-path variant (the CLI uses it
    // while the sim still exists): it must agree with the end-of-run dump.
    let cfg = sabotage_shape(ProtectionMode::LinuxStrict);
    let mut sim = HostSim::new(cfg);
    sim.set_sabotage(Sabotage::SkipRangeInvalidation { nth: 500 });
    sim.step_until(cfg.end_time());
    let pfns = sim.violating_pfns();
    assert!(!pfns.is_empty(), "no violations at end of stepped run");
    let live = sim
        .explain_page(pfns[0])
        .expect("provenance armed but explain_page returned None");
    let dumped = sim.finish().provenance.explain(pfns[0]);
    assert_eq!(live, dumped, "live explanation diverged from the dump");
}

#[test]
fn observe_off_keeps_every_dump_empty() {
    let mut cfg = sabotage_shape(ProtectionMode::LinuxStrict);
    cfg.observe = ObserveConfig::off();
    let m = HostSim::new(cfg).run();
    assert!(!m.provenance.enabled && m.provenance.pages.is_empty());
    assert!(!m.txns.enabled && m.txns.records.is_empty());
    assert!(!m.registry.enabled && m.registry.stats.is_empty());
    assert!(m.flight.is_empty());
}

#[test]
fn cli_reproduces_the_violation_and_its_provenance() {
    // End-to-end through the binary: the sabotaged audited run must exit 1,
    // print the skip in the `--explain-page violation` timeline, and leave
    // the failure artifact behind.
    let dir = std::env::temp_dir().join(format!("fns-obs-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let out = Command::new(env!("CARGO_BIN_EXE_fns-sim"))
        .current_dir(&dir)
        .args([
            "--mode",
            "linux",
            "--flows",
            "2",
            "--ring",
            "64",
            "--cores",
            "2",
            "--measure-ms",
            "2",
            "--audit",
            "--sabotage-skip-inv",
            "20000",
            "--explain-page",
            "violation",
        ])
        .output()
        .expect("fns-sim runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(1),
        "audited sabotage must exit 1\nstdout:\n{stdout}\nstderr:\n{stderr}"
    );
    assert!(
        stdout.contains("inv-SKIPPED") && stdout.contains("submission ordinal 20000"),
        "explain output misses the skip:\n{stdout}"
    );
    let artifact = dir.join("target/failure_provenance.txt");
    let text = std::fs::read_to_string(&artifact).expect("failure artifact written");
    assert!(
        text.contains("inv-SKIPPED"),
        "artifact misses the skip:\n{text}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cli_flight_recorder_writes_valid_chrome_json() {
    let dir = std::env::temp_dir().join(format!("fns-flight-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("flight.json");
    let out = Command::new(env!("CARGO_BIN_EXE_fns-sim"))
        .current_dir(&dir)
        .args([
            "--mode",
            "fns",
            "--flows",
            "2",
            "--ring",
            "64",
            "--cores",
            "2",
            "--measure-ms",
            "2",
            "--flight",
        ])
        .arg(&path)
        .output()
        .expect("fns-sim runs");
    assert!(out.status.success(), "flight run failed");
    let json = std::fs::read_to_string(&path).expect("flight file written");
    assert!(
        json.starts_with("{\"traceEvents\":["),
        "not a Chrome trace: {}",
        &json[..json.len().min(80)]
    );
    assert!(
        json.contains("\"ph\""),
        "flight ring captured no events (wants() gating regressed?)"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn merged_registry_percentiles_equal_the_concatenated_samples() {
    // An IOMMU-off run (zero invalidation wait) merged with a strict run:
    // the figure-level query must see every sample of both, not the
    // busiest key's percentiles. Completed transaction spans hold the
    // raw descriptor latencies the registry bucketed.
    let mut merged = fns::trace::RegistryReport::default();
    let mut all = fns::trace::LogHistogram::default();
    for mode in [ProtectionMode::IommuOff, ProtectionMode::LinuxStrict] {
        let mut cfg = sabotage_shape(mode);
        cfg.audit = AuditConfig::off();
        cfg.observe = ObserveConfig {
            txn: true,
            registry: true,
            ..ObserveConfig::off()
        };
        let m = HostSim::new(cfg).run();
        assert_eq!(m.txns.dropped, 0, "{mode}: span ring overflowed");
        for t in &m.txns.records {
            all.record(t.end_ns - t.start_ns);
        }
        merged.merge_stats(&m.registry);
    }
    assert_eq!(
        merged.percentiles(RegMetric::DescLatency),
        (all.count, all.p50(), all.p99(), all.p999())
    );
    let (count, _, p99, p999) = merged.percentiles(RegMetric::InvWait);
    assert!(
        count > 0 && p99 > 0 && p999 >= p99,
        "inv_wait {count} {p99} {p999}"
    );
}
