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
