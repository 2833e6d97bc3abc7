//! Telemetry-plane integration: traced runs must not perturb the
//! simulation, and the Chrome-JSON export must be byte-identical at any
//! worker count.

use fns::apps::iperf_config;
use fns::core::{HostSim, ProtectionMode, RunMetrics, SimConfig};
use fns::faults::{FaultConfig, FaultKind};
use fns::harness::SweepRunner;
use fns::trace::{chrome_trace_json, ProbeConfig, TraceConfig};

fn short(mut cfg: SimConfig) -> SimConfig {
    cfg.warmup = 2_000_000;
    cfg.measure = 5_000_000;
    cfg
}

/// Fig2-shaped point with full telemetry enabled.
fn traced(mode: ProtectionMode, flows: u32) -> SimConfig {
    let mut cfg = short(iperf_config(mode, flows, 256));
    cfg.trace = TraceConfig::all();
    cfg.probes = ProbeConfig::every(100_000);
    cfg
}

#[test]
fn tracing_does_not_perturb_the_simulation() {
    // Identical configs with and without telemetry must agree on every
    // simulated outcome; only the observability fields may differ.
    let base = short(iperf_config(ProtectionMode::FastAndSafe, 5, 256));
    let plain = HostSim::new(base).run();
    let observed = HostSim::new(traced(ProtectionMode::FastAndSafe, 5)).run();
    assert!(!observed.trace.is_empty(), "traced run recorded nothing");
    assert!(
        !observed.samples.samples.is_empty(),
        "probed run recorded no samples"
    );
    // The gauge probes are themselves events, so the traced run processes
    // exactly one extra event per recorded sample — and nothing else.
    assert_eq!(
        observed.events_processed,
        plain.events_processed + observed.samples.samples.len() as u64,
        "probe events do not account for the event-count difference"
    );
    let scrub = |m: &RunMetrics| {
        let mut m = m.clone();
        m.trace = Default::default();
        m.samples = Default::default();
        m.events_processed = 0;
        m
    };
    assert_eq!(
        scrub(&plain),
        scrub(&observed),
        "telemetry perturbed the simulation"
    );
}

#[test]
fn disabled_tracing_records_nothing() {
    let m = HostSim::new(short(iperf_config(ProtectionMode::LinuxStrict, 5, 256))).run();
    assert!(m.trace.is_empty());
    assert_eq!(m.trace.dropped, 0);
    assert!(m.samples.samples.is_empty());
    assert!(m.fault_log.is_empty());
}

#[test]
fn fault_log_is_a_view_of_the_trace() {
    // Fault-injected runs route records through the trace recorder even
    // when no tracing was requested; the legacy fault log is recovered as
    // a filtered view and stays consistent with the fault counters.
    let mut cfg = short(iperf_config(ProtectionMode::LinuxStrict, 2, 64));
    cfg.cores = 2;
    cfg.aging_factor = 0.0;
    cfg.faults = FaultConfig::uniform(0.02);
    let m = HostSim::new(cfg).run();
    assert!(!m.fault_log.is_empty(), "no faults fired");
    assert_eq!(
        m.fault_log.len() as u64 + m.trace.dropped,
        m.faults.total_injected(),
        "fault log diverged from injection counters"
    );
    // Chronological: the interleaved driver/wire view must be time-sorted,
    // which falls out of the underlying trace being time-sorted.
    assert!(
        m.trace.events.windows(2).all(|w| w[0].at <= w[1].at),
        "trace (and hence the fault log) not in chronological order"
    );
}

#[test]
fn chrome_json_is_byte_identical_across_worker_counts() {
    let configs = vec![
        traced(ProtectionMode::IommuOff, 5),
        traced(ProtectionMode::LinuxStrict, 5),
        traced(ProtectionMode::FastAndSafe, 20),
    ];
    let kinds: Vec<&str> = FaultKind::ALL.iter().map(|k| k.name()).collect();
    let render = |results: &[RunMetrics]| -> Vec<String> {
        results
            .iter()
            .map(|m| chrome_trace_json(&m.trace, &m.samples, &kinds))
            .collect()
    };
    let golden = render(&SweepRunner::new(1).run_sims(configs.clone()));
    assert!(golden.iter().all(|j| j.len() > 2), "empty trace JSON");
    let wide = render(&SweepRunner::new(8).run_sims(configs));
    assert_eq!(golden, wide, "trace JSON diverged across worker counts");
}
