//! Pinned checkpoint bytes: the wire format of `HostSim::snapshot()` at a
//! fixed mid-run time, for three shapes that between them write every
//! page-table entry kind (4 KB leaves, huge leaves, reclaimed slots) and
//! both IOVA allocators.
//!
//! The round-trip tests elsewhere compare a build against itself, so a
//! re-layout that changes the bytes on both sides still passes them. This
//! table was recorded once and is never edited: a change that drifts the
//! format fails here, and must bump `FORMAT_VERSION` instead.

use fns::apps::{dc_scale_config, iperf_config};
use fns::core::{HostSim, ProtectionMode, SimConfig};

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
