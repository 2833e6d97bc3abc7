//! The `fns-sim` banner describes the configuration that actually runs:
//! workload presets that own their flow count, ring size or MTU must show
//! those values, not the CLI defaults they override.

use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};

/// First stdout line of `fns-sim` with `args`. The banner is printed
/// before the simulation starts, so the run is stopped once it is read.
fn banner(args: &[&str]) -> String {
    let mut child = Command::new(env!("CARGO_BIN_EXE_fns-sim"))
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("fns-sim runs");
    let mut line = String::new();
    BufReader::new(child.stdout.take().expect("piped stdout"))
        .read_line(&mut line)
        .expect("banner line");
    // The run may already have finished; either way it is reaped below.
    let _ = child.kill();
    child.wait().expect("fns-sim exits");
    line.trim_end().to_string()
}

#[test]
fn dc_scale_banner_prints_the_flows_that_run() {
    let line = banner(&["--workload", "dc-scale", "--measure-ms", "1"]);
    assert!(
        line.starts_with("workload=dc-scale flows=20480 "),
        "banner shows the CLI default instead of the preset: {line}"
    );
}

#[test]
fn default_iperf_banner_is_unchanged() {
    assert_eq!(
        banner(&["--measure-ms", "5"]),
        "workload=iperf flows=5 ring=256 mtu=4096 pages/desc=64 measure=5ms seed=1"
    );
    assert_eq!(
        banner(&["--flows", "20", "--ring", "512", "--seed", "7"]),
        "workload=iperf flows=20 ring=512 mtu=4096 pages/desc=64 measure=60ms seed=7"
    );
}
