//! `repro` refuses a core count outside 1..=64 while parsing its
//! arguments, before it builds any machine.

use std::process::Command;

#[test]
fn a_core_count_outside_the_machine_bounds_exits_2() {
    for cores in ["0", "65", "100000000000000"] {
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(["sweep", "--quick", "--cores", cores])
            .output()
            .expect("run repro");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "--cores {cores}: {stderr}");
        assert!(
            stderr.contains("--cores needs a number from 1 to 64"),
            "--cores {cores}: {stderr}"
        );
    }
}
