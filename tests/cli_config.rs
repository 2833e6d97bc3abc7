//! `fns-sim` refuses configurations that cannot describe a host: a zero
//! count, window or message size, a malformed number or a retired flag
//! exits 2 with nothing on stdout instead of panicking (exit 101) or
//! running a different experiment than the one printed.

use std::process::Command;

#[test]
fn zero_counts_exit_2_with_the_reason() {
    // Each case runs under a 1.5 GB address-space cap and a wall timeout:
    // a zero-byte message used to grow a `Vec` until the allocator gave
    // up, which must show here as a failed case, not a stuck test.
    let mut cases: Vec<(Vec<&str>, &str)> = [
        ("--pages-per-desc", "pages_per_descriptor"),
        ("--cores", "cores"),
        ("--ring", "ring_packets"),
        ("--mtu", "mtu"),
        ("--flows", "flows"),
        ("--measure-ms", "measure"),
    ]
    .into_iter()
    .map(|(flag, reason)| (vec![flag, "0"], reason))
    .collect();
    for (workload, reason) in [
        ("redis", "redis value"),
        ("nginx", "response_bytes"),
        ("spdk", "response_bytes"),
        ("rpc", "rpc_bytes"),
        ("incast", "burst_bytes"),
        ("mt-incast", "burst_bytes"),
        ("churn", "conn_bytes"),
        ("mt-churn", "conn_bytes"),
    ] {
        cases.push((vec!["--workload", workload, "--msg", "0"], reason));
    }
    for (args, reason) in cases {
        let out = Command::new("sh")
            .args(["-c", "ulimit -v 1500000; exec timeout 60 \"$@\"", "sh"])
            .arg(env!("CARGO_BIN_EXE_fns-sim"))
            .args(["--mode", "fns", "--measure-ms", "1"])
            .args(&args)
            .output()
            .expect("sh runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(
            stderr.contains("invalid configuration") && stderr.contains(reason),
            "{args:?} gave no reason naming {reason}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{args:?} printed a banner");
    }
}

#[test]
fn peer_flow_ids_aliasing_dut_flow_ids_exit_2_with_the_reason() {
    // bidir's peer flows count up from 0 and its DUT flows from 1000, so a
    // 1001st peer flow would share a flow id with the first DUT flow.
    let out = Command::new(env!("CARGO_BIN_EXE_fns-sim"))
        .args([
            "--workload",
            "bidir",
            "--flows",
            "1001",
            "--measure-ms",
            "1",
        ])
        .output()
        .expect("fns-sim runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(
        stderr.contains("invalid configuration") && stderr.contains("alias DUT flow ids"),
        "no reason given: {stderr}"
    );
    assert!(out.stdout.is_empty(), "printed a banner");
}

#[test]
fn shards_flag_is_refused_before_the_banner() {
    // The sharded engine is gone: every run is one host with one IOMMU,
    // so `--shards` is an unknown flag.
    let out = Command::new(env!("CARGO_BIN_EXE_fns-sim"))
        .args(["--shards", "1", "--measure-ms", "1"])
        .output()
        .expect("fns-sim runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "--shards 1 printed a banner");
}

#[test]
fn bidir_with_more_tx_flows_than_cores_runs() {
    // bidir puts its Tx flows on the cores after the Rx ones; with more
    // Tx flows (4) than cores (2) the Rx flows get the one-core floor.
    let out = Command::new(env!("CARGO_BIN_EXE_fns-sim"))
        .args([
            "--workload",
            "bidir",
            "--flows",
            "4",
            "--cores",
            "2",
            "--measure-ms",
            "1",
        ])
        .output()
        .expect("fns-sim runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
}

#[test]
fn malformed_numeric_flags_exit_2_without_output() {
    // Maximum values are left out: `--flows` or `--jobs` at their maximum
    // would build huge tables or start that many threads.
    let flags = [
        "--flows",
        "--ring",
        "--mtu",
        "--cores",
        "--pages-per-desc",
        "--measure-ms",
        "--seed",
        "--msg",
        "--faults",
        "--jobs",
        "--sample-us",
        "--snapshot-every",
        "--profile-top",
        "--nics",
        "--queues",
        "--storage",
        "--explain-page",
        "--sabotage-skip-inv",
        "--sabotage-xleak",
    ];
    for flag in flags {
        for value in ["-1", "abc"] {
            let out = Command::new(env!("CARGO_BIN_EXE_fns-sim"))
                .args([flag, value, "--measure-ms", "1"])
                .output()
                .expect("fns-sim runs");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(2), "{flag} {value}: {stderr}");
            assert!(out.stdout.is_empty(), "{flag} {value} printed output");
        }
    }
}
