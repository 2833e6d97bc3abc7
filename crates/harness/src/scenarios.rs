//! Named scenario registry.
//!
//! One place mapping human-readable scenario names to the `SimConfig`
//! builders in `fns-apps`, so the CLI (`fns-sim --list-scenarios`,
//! `--workload`) and the `perf_smoke` basket agree on what each name
//! means. Every entry is the canonical shape used by the corresponding
//! figure of the paper.

use fns_core::{ProtectionMode, SimConfig};

/// A named, describable simulation scenario.
pub struct Scenario {
    /// Stable CLI-facing name.
    pub name: &'static str,
    /// One-line description (shown by `--list-scenarios`).
    pub description: &'static str,
    /// Builds the canonical config for this scenario under `mode`.
    pub build: fn(ProtectionMode) -> SimConfig,
}

/// Every registered scenario, in display order.
pub const SCENARIOS: &[Scenario] = &[
    Scenario {
        name: "iperf",
        description: "iperf-style Rx-heavy streaming, 8 flows, 256-packet rings (figs 2/3/7/8)",
        build: |mode| fns_apps::iperf_config(mode, 8, 256),
    },
    Scenario {
        name: "iperf-small-ring",
        description: "iperf with 64-packet rings: high IOVA reuse locality (fig 3 contrast)",
        build: |mode| fns_apps::iperf_config(mode, 8, 64),
    },
    Scenario {
        name: "bidirectional",
        description: "symmetric Tx+Rx streaming, 8 flows each way (fig 10)",
        build: |mode| fns_apps::bidirectional_config(mode, 8),
    },
    Scenario {
        name: "redis",
        description: "redis-style request/response, 1 KB values (fig 11a)",
        build: |mode| fns_apps::redis_config(mode, 1024),
    },
    Scenario {
        name: "nginx",
        description: "nginx-style static pages, 16 KB responses (fig 11b)",
        build: |mode| fns_apps::nginx_config(mode, 16 * 1024),
    },
    Scenario {
        name: "spdk",
        description: "SPDK-style storage blocks, 64 KB IOs (fig 11c)",
        build: |mode| fns_apps::spdk_config(mode, 64 * 1024),
    },
    Scenario {
        name: "rpc",
        description: "RPC echo with latency histogram, 4 KB messages (fig 9)",
        build: |mode| fns_apps::rpc_config(mode, 4096),
    },
    Scenario {
        name: "mt-fanin",
        description: "multi-tenant LB fan-in: 64 flows over 2 NICs x 4 queues + storage domain",
        build: |mode| fns_apps::fanin_config(mode, 64),
    },
    Scenario {
        name: "mt-incast",
        description: "multi-tenant incast: 32 synchronized 64 KB bursts into 2 NICs + storage",
        build: |mode| fns_apps::incast_config(mode, 32, 64 * 1024),
    },
    Scenario {
        name: "mt-churn",
        description: "multi-tenant churn: 48 conns restarting every 256 KB across 3 domains",
        build: |mode| fns_apps::churn_config(mode, 48, 256 * 1024),
    },
    Scenario {
        name: "dc-scale",
        description: "datacenter scale: 20480 flows over 8 NICs x 4 queues + 2 storage",
        build: fns_apps::dc_scale_config,
    },
];

/// Names of all registered scenarios, in display order.
pub fn scenario_names() -> Vec<&'static str> {
    SCENARIOS.iter().map(|s| s.name).collect()
}

/// Builds the canonical config for `name` under `mode`, or `None` if no
/// scenario with that name is registered.
pub fn scenario_config(name: &str, mode: ProtectionMode) -> Option<SimConfig> {
    SCENARIOS
        .iter()
        .find(|s| s.name == name)
        .map(|s| (s.build)(mode))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_lookup_works() {
        let names = scenario_names();
        for (i, a) in names.iter().enumerate() {
            for b in &names[i + 1..] {
                assert_ne!(a, b, "duplicate scenario name");
            }
        }
        for name in names {
            assert!(scenario_config(name, ProtectionMode::FastAndSafe).is_some());
        }
        assert!(scenario_config("no-such-scenario", ProtectionMode::FastAndSafe).is_none());
    }

    #[test]
    fn builders_match_fns_apps() {
        let cfg = scenario_config("iperf", ProtectionMode::LinuxDeferred).unwrap();
        let direct = fns_apps::iperf_config(ProtectionMode::LinuxDeferred, 8, 256);
        assert_eq!(cfg.flows, direct.flows);
        assert_eq!(cfg.ring_packets, direct.ring_packets);
    }
}
