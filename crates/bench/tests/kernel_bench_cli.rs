//! `kernel_bench` writes `BENCH_kernels.json` into its working directory
//! only when run without arguments: help and unknown flags must neither
//! measure nor write.

use std::path::PathBuf;
use std::process::Command;

/// A fresh, empty working directory for one run.
fn empty_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("kernel_bench_cli_{}_{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn run_in(dir: &PathBuf, args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_kernel_bench"))
        .args(args)
        .current_dir(dir)
        .output()
        .unwrap()
}

#[test]
fn help_prints_usage_and_writes_nothing() {
    let dir = empty_dir("help");
    let out = run_in(&dir, &["--help"]);
    assert_eq!(out.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&out.stdout).contains("usage: kernel_bench"));
    assert!(!dir.join("BENCH_kernels.json").exists());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn unknown_flags_exit_2_without_measuring_or_writing() {
    for (k, args) in [&["--bogus"][..], &["--chek", "BENCH_kernels.json"], &["-h"]]
        .into_iter()
        .enumerate()
    {
        let dir = empty_dir(&format!("bogus{k}"));
        let out = run_in(&dir, args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            !stdout.contains("optimized_ns"),
            "{args:?} measured: {stdout}"
        );
        assert!(String::from_utf8_lossy(&out.stderr).contains("usage: kernel_bench"));
        assert_eq!(
            std::fs::read_dir(&dir).unwrap().count(),
            0,
            "{args:?} wrote a file"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn check_of_a_missing_snapshot_fails_before_measuring() {
    let dir = empty_dir("missing");
    let out = run_in(&dir, &["--check", "no_such_snapshot.json"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(!String::from_utf8_lossy(&out.stdout).contains("optimized_ns"));
    assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 0);
    std::fs::remove_dir_all(&dir).unwrap();
}
