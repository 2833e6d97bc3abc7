//! `fns-sim` refuses configurations that cannot describe a host: a zero
//! count exits 2 with the reason instead of panicking (exit 101) or
//! running a different experiment than the one printed.

use std::process::Command;

#[test]
fn zero_counts_exit_2_with_the_reason() {
    for flag in ["--pages-per-desc", "--cores", "--ring", "--mtu", "--flows"] {
        let out = Command::new(env!("CARGO_BIN_EXE_fns-sim"))
            .args([flag, "0", "--measure-ms", "1"])
            .output()
            .expect("fns-sim runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{flag} 0: {stderr}");
        assert!(
            stderr.contains("invalid configuration"),
            "{flag} 0 gave no reason: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{flag} 0 printed a banner");
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
