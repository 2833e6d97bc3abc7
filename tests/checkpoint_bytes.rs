//! Pinned checkpoint bytes: the wire format of `HostSim::snapshot()` at a
//! fixed mid-run time, for three shapes that between them write every
//! page-table entry kind (4 KB leaves, huge leaves, reclaimed slots) and
//! both IOVA allocators.
//!
//! The round-trip tests elsewhere compare a build against itself, so a
//! re-layout that changes the bytes on both sides still passes them. This
//! table was recorded once and is never edited: a change that drifts the
//! format fails here, and must bump `FORMAT_VERSION` instead.
//!
//! The config fingerprint a checkpoint opens with is pinned the same way,
//! for every registered scenario and soak scenario under every mode, so a
//! config field can be retired without moving the fingerprint of any
//! format-4 checkpoint.

use fns::apps::{dc_scale_config, iperf_config};
use fns::core::{HostSim, ProtectionMode, SimConfig};
use fns::harness::{SCENARIOS, SOAK_SCENARIOS};

/// Simulated time (ns) at which every cell is snapshotted.
const SNAPSHOT_AT: u64 = 1_500_000;

fn cells() -> Vec<(&'static str, SimConfig)> {
    let strict = iperf_config(ProtectionMode::LinuxStrict, 5, 256);
    let hugepage = iperf_config(ProtectionMode::HugepagePinned, 5, 256);
    let mut dc = dc_scale_config(ProtectionMode::FastAndSafe);
    dc.flows = 1024;
    dc.shards = 0;
    let mut cells = vec![
        ("linux-strict/ring256", strict),
        ("hugepage-pin/ring256", hugepage),
        ("dc-scale/fns/1024", dc),
    ];
    for (_, cfg) in &mut cells {
        cfg.warmup = 1_000_000;
        cfg.measure = 2_000_000;
    }
    cells
}

/// Recorded once; never edited to make a run pass.
const CHECKPOINT_DIGESTS: &[(&str, u64)] = &[
    ("linux-strict/ring256", 0xfcc031bf10852237),
    ("hugepage-pin/ring256", 0xb57ac8bcf91d7727),
    ("dc-scale/fns/1024", 0x864fe6133a5ac3a5),
];

#[test]
fn checkpoint_bytes_match_the_pinned_digests() {
    let have: Vec<(String, u64)> = cells()
        .into_iter()
        .map(|(name, cfg)| {
            let mut sim = HostSim::new(cfg);
            sim.step_until(SNAPSHOT_AT);
            (name.to_string(), fns::snap::fnv1a(&sim.snapshot()))
        })
        .collect();
    let rendered: String = have
        .iter()
        .map(|(n, d)| format!("    ({n:?}, {d:#018x}),\n"))
        .collect();
    let want: Vec<(String, u64)> = CHECKPOINT_DIGESTS
        .iter()
        .map(|&(n, d)| (n.to_string(), d))
        .collect();
    assert_eq!(have, want, "computed table:\n{rendered}");
}

/// FNV-1a over the nine `ProtectionMode::ALL` config fingerprints of each
/// scenario. Recorded once; never edited to make a run pass.
const FINGERPRINT_DIGESTS: &[(&str, u64)] = &[
    ("iperf", 0x066320bf2a64bd19),
    ("iperf-small-ring", 0x482f57bb83f09b3e),
    ("bidirectional", 0x9ce63dc6973a6233),
    ("redis", 0x26d03b949dce0897),
    ("nginx", 0x49a8bf98c544890b),
    ("spdk", 0x6c4b0a599292513a),
    ("rpc", 0x995c880243137799),
    ("mt-fanin", 0xdd1ccdba9bfadbf6),
    ("mt-incast", 0x5b11af0330561fec),
    ("mt-churn", 0x90d6f0efef8a70b2),
    ("dc-scale", 0xa8f905eb94521fc3),
    ("churn", 0x7eb6ff046277f6c7),
    ("iova-frag", 0x089b26ab60216068),
    ("reclaim-storm", 0x2958fe1fb9ebc2d7),
];

#[test]
fn config_fingerprints_match_the_pinned_digests() {
    let scenarios = SCENARIOS.iter().map(|s| (s.name, s.build));
    let soaks = SOAK_SCENARIOS.iter().map(|s| (s.name, s.build));
    let have: Vec<(String, u64)> = scenarios
        .chain(soaks)
        .map(|(name, build)| {
            let prints: Vec<u8> = ProtectionMode::ALL
                .iter()
                .flat_map(|&mode| build(mode).fingerprint().to_le_bytes())
                .collect();
            (name.to_string(), fns::snap::fnv1a(&prints))
        })
        .collect();
    let rendered: String = have
        .iter()
        .map(|(n, d)| format!("    ({n:?}, {d:#018x}),\n"))
        .collect();
    let want: Vec<(String, u64)> = FINGERPRINT_DIGESTS
        .iter()
        .map(|&(n, d)| (n.to_string(), d))
        .collect();
    assert_eq!(have, want, "computed table:\n{rendered}");
}
