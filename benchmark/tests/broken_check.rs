//! A failed in-run correctness check must fail the command: the
//! `TACO_BENCH_BREAK_CHECK` hook corrupts one check's reference, and the
//! binary has to count failed operations, say `"correct": false` and exit
//! non-zero. Run as a subprocess because the hook is an environment
//! variable.

use std::process::Command;

fn smoke(workload: &str, broken: Option<&str>) -> (Option<i32>, String) {
    let out = format!(
        "{}/out/test-broken-{workload}-{}",
        env!("CARGO_MANIFEST_DIR"),
        broken.unwrap_or("none")
    );
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_taco_benchmark"));
    cmd.args(["--workload", workload, "--smoke", "--seconds", "0", "--out", &out]);
    match broken {
        Some(which) => cmd.env("TACO_BENCH_BREAK_CHECK", which),
        None => cmd.env_remove("TACO_BENCH_BREAK_CHECK"),
    };
    let output = cmd.output().expect("benchmark binary runs");
    let _ = std::fs::remove_dir_all(&out);
    let stdout = String::from_utf8_lossy(&output.stdout);
    (output.status.code(), stdout.lines().last().unwrap_or_default().to_string())
}

#[test]
fn an_intact_run_passes() {
    let (code, last) = smoke("recalc", None);
    assert_eq!(code, Some(0), "{last}");
    assert!(last.starts_with("{\"correct\": true, "), "{last}");
    assert!(last.contains("\"failed\": 0, "), "{last}");
}

#[test]
fn each_broken_check_fails_the_command() {
    for (workload, which) in [("graph", "graph"), ("recalc", "recalc"), ("serve_write", "serve")] {
        let (code, last) = smoke(workload, Some(which));
        assert_eq!(code, Some(1), "{which}: {last}");
        assert!(last.starts_with("{\"correct\": false, "), "{which}: {last}");
        assert!(!last.contains("\"failed\": 0, "), "{which}: {last}");
    }
}
