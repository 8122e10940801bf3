//! The `trajsim` binary rejects search parameters the engines cannot run
//! with — `--k 0`, and `--eps 0` for the histogram-filtered engines —
//! with exit status 2 and a message, never a panic.

use std::path::PathBuf;
use std::process::{Command, Output};

fn trajsim(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_trajsim"))
        .args(args)
        .output()
        .expect("run trajsim")
}

fn walk_file() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("trajsim-cli-params-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("walk.csv");
    let out = trajsim(&[
        "generate",
        "walk",
        "--n",
        "12",
        "--seed",
        "5",
        "-o",
        path.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{out:?}");
    path
}

fn assert_usage_error(args: &[&str], mention: &str) {
    let out = trajsim(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    assert!(stderr.contains(mention), "{args:?}: {stderr}");
}

#[test]
fn zero_k_exits_with_status_2() {
    let file = walk_file();
    let f = file.to_str().unwrap();
    assert_usage_error(&["knn", f, "--query", "0", "--k", "0"], "--k");
    assert_usage_error(&["explain", f, "--query", "0", "--k", "0"], "--k");
    assert_usage_error(
        &["knn", f, "--queries", "3", "--batch", "2", "--k", "0"],
        "--k",
    );
}

#[test]
fn zero_eps_exits_with_status_2_for_histogram_engines() {
    let file = walk_file();
    let f = file.to_str().unwrap();
    assert_usage_error(&["knn", f, "--query", "0", "--eps", "0"], "--eps");
    assert_usage_error(&["explain", f, "--query", "0", "--eps", "0"], "--eps");
    assert_usage_error(
        &[
            "knn",
            f,
            "--query",
            "0",
            "--eps",
            "0",
            "--engine",
            "histogram",
        ],
        "--eps",
    );
    // ε = 0 is exact-match EDR: fine for an engine without histograms.
    let out = trajsim(&[
        "knn", f, "--query", "0", "--k", "2", "--eps", "0", "--engine", "scan",
    ]);
    assert!(out.status.success(), "{out:?}");
}

#[test]
fn other_failures_keep_status_1() {
    assert_eq!(trajsim(&["frobnicate"]).status.code(), Some(1));
    let missing = trajsim(&["knn", "/nonexistent/walk.csv", "--query", "0"]);
    assert_eq!(missing.status.code(), Some(1));
}
