//! The figure binaries that re-read raw logs (`fig13`, `fig14`) must keep
//! their exact stdout.  Both are deterministic; the goldens under
//! `tests/golden/` were captured at `--seconds 4` and are compared byte for
//! byte, so any drift in the materializing run or the LPL analysis shows up
//! here as a diff.

use std::process::Command;

fn assert_stdout_matches(bin: &str, golden: &[u8]) {
    let out = Command::new(bin)
        .args(["--seconds", "4"])
        .output()
        .expect("spawn figure binary");
    assert!(out.status.success(), "{bin} failed: {out:?}");
    if out.stdout != golden {
        panic!(
            "{bin} stdout drifted from its golden.\n--- got ---\n{}\n--- want ---\n{}",
            String::from_utf8_lossy(&out.stdout),
            String::from_utf8_lossy(golden)
        );
    }
}

#[test]
fn fig13_stdout_matches_its_golden() {
    assert_stdout_matches(
        env!("CARGO_BIN_EXE_fig13"),
        include_bytes!("golden/fig13_4s.txt"),
    );
}

#[test]
fn fig14_stdout_matches_its_golden() {
    assert_stdout_matches(
        env!("CARGO_BIN_EXE_fig14"),
        include_bytes!("golden/fig14_4s.txt"),
    );
}
