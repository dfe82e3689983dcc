//! Smoke tests: every example binary must run to completion (exit 0) so
//! the examples can never rot silently. `cargo test` builds the examples
//! alongside the test profile, so the binaries are always present next to
//! this test's executable under `target/<profile>/examples/`.
//!
//! The heavyweight demos (`sales_dashboard`, `async_recalc`) honour
//! `TACO_EXAMPLE_ROWS`, which keeps each smoke run well under a second
//! even in debug builds.

use std::io::Write;
use std::path::PathBuf;
use std::process::{Command, Output, Stdio};

/// `target/<profile>/examples/<name>`, resolved from this test binary's
/// own location (`target/<profile>/deps/examples_smoke-…`).
fn example_path(name: &str) -> PathBuf {
    let mut dir = std::env::current_exe().expect("test binary path");
    dir.pop(); // the test binary itself
    if dir.ends_with("deps") {
        dir.pop();
    }
    let path = dir.join("examples").join(name);
    assert!(path.is_file(), "example binary {path:?} not found — was `{name}` renamed or removed?");
    path
}

fn run_example(name: &str, rows: Option<&str>, stdin: Option<&str>) -> Output {
    let mut cmd = Command::new(example_path(name));
    if let Some(rows) = rows {
        cmd.env("TACO_EXAMPLE_ROWS", rows);
    }
    cmd.stdin(Stdio::piped()).stdout(Stdio::piped()).stderr(Stdio::piped());
    let mut child = cmd.spawn().unwrap_or_else(|e| panic!("spawn {name}: {e}"));
    if let Some(script) = stdin {
        child.stdin.take().expect("piped stdin").write_all(script.as_bytes()).expect("feed stdin");
    } else {
        drop(child.stdin.take());
    }
    let out = child.wait_with_output().unwrap_or_else(|e| panic!("wait for {name}: {e}"));
    assert!(
        out.status.success(),
        "example {name} failed with {:?}\n--- stdout ---\n{}\n--- stderr ---\n{}",
        out.status,
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    out
}

fn stdout_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

#[test]
fn quickstart_runs() {
    let out = run_example("quickstart", None, None);
    let text = stdout_of(&out);
    assert!(text.contains("edges"), "quickstart should report graph sizes:\n{text}");
}

#[test]
fn compression_report_runs() {
    // The synthetic-corpus path (no xlsx argument). The example prints one
    // row per sheet plus a header naming the pattern columns.
    let out = run_example("compression_report", None, None);
    let text = stdout_of(&out);
    assert!(text.contains("RR"), "report should have pattern columns:\n{text}");
    assert!(text.lines().count() >= 2, "report should print at least one sheet:\n{text}");
}

#[test]
fn dependency_audit_runs() {
    let out = run_example("dependency_audit", None, None);
    let text = stdout_of(&out);
    assert!(text.contains("dependents"), "audit should trace dependents:\n{text}");
}

#[test]
fn sales_dashboard_runs_scaled_down() {
    let out = run_example("sales_dashboard", Some("200"), None);
    let text = stdout_of(&out);
    // The example itself asserts TACO and NoComp agree; just confirm it
    // got to the end.
    assert!(text.contains("after recalc"), "dashboard should finish its edit cycle:\n{text}");
}

#[test]
fn async_recalc_runs_scaled_down() {
    let out = run_example("async_recalc", Some("1000"), None);
    let text = stdout_of(&out);
    assert!(text.contains("final A1000"), "async demo should publish the final value:\n{text}");
}

#[test]
fn workbook_report_runs_scaled_down() {
    let out = run_example("workbook_report", Some("60"), None);
    let text = stdout_of(&out);
    assert!(text.contains("grand total:"), "rollup should print a grand total:\n{text}");
    assert!(
        text.contains("pass: [SheetPass {"),
        "each sheet's part of the pass should print:\n{text}"
    );
    assert!(text.contains("after edit"), "the edit cycle should complete:\n{text}");
}

#[test]
fn repl_parses_and_evaluates_a_script() {
    let script = "A1 = 2\n\
                  A2 = 3\n\
                  B1 = =SUM(A1:A2)*10\n\
                  show B1\n\
                  trace B1\n\
                  fill B1 B2:B4\n\
                  show B2\n\
                  C1 = =A1*1\n\
                  C2 = =A2*2\n\
                  C3 = =A3*3\n\
                  D1 = =A1+C1\n\
                  D3 = =A3+C3\n\
                  D5 = =A5+C5\n\
                  show C2\n\
                  stats\n\
                  bogus command\n\
                  quit\n";
    let out = run_example("repl", None, Some(script));
    let text = stdout_of(&out);
    assert!(text.contains("B1 = =SUM(A1:A2)*10 → 50"), "formula path broken:\n{text}");
    assert!(text.contains("precedents: A1:A2"), "trace path broken:\n{text}");
    assert!(text.contains("edges="), "stats path broken:\n{text}");
    assert!(text.contains("C2 = =A2*2 → 6"), "typed column broken:\n{text}");
    // The fill is one template, the column typed with its row another, and
    // the column typed every other row a third: a run spans blank rows.
    assert!(text.contains("formula_cells=10 templates=3"), "template count missing:\n{text}");
    assert!(text.contains("error:"), "bad input must report, not crash:\n{text}");
}

#[test]
fn repl_saves_and_reopens_a_sheet() {
    let path = std::env::temp_dir().join(format!("taco_repl_smoke_{}.taco", std::process::id()));
    let p = path.display();
    // Build a sheet, save it, wreck the live state, reopen, and show the
    // restored value; also confirm a bad open reports instead of crashing.
    let script = format!(
        "A1 = 5\n\
         B1 = =A1*A1\n\
         show B1\n\
         :save {p}\n\
         clear A1:B1\n\
         show B1\n\
         :open {p}\n\
         show B1\n\
         :open {p}.missing\n\
         quit\n"
    );
    let out = run_example("repl", None, Some(&script));
    std::fs::remove_file(&path).ok();
    let text = stdout_of(&out);
    assert!(text.contains("saved 2 cells"), "save path broken:\n{text}");
    assert!(text.contains("opened 2 cells"), "open path broken:\n{text}");
    // B1 prints 25 before save, empty after clear, 25 again after :open.
    let restored = text.matches("B1 = =A1*A1 → 25").count();
    assert!(restored >= 2, "reopen must restore the formula and value:\n{text}");
    assert!(text.contains("error:"), "missing file must report, not crash:\n{text}");
}

#[test]
fn serve_workbook_runs_a_scripted_tcp_session() {
    let out = run_example("serve_workbook", Some("32"), None);
    let text = stdout_of(&out);
    assert!(text.contains("listening on 127.0.0.1:"), "server must bind:\n{text}");
    assert!(text.contains("rollup before"), "scripted edit cycle missing:\n{text}");
    assert!(text.contains("stats: epoch="), "stats line missing:\n{text}");
    assert!(text.contains("done"), "graceful shutdown missing:\n{text}");
}

#[test]
fn repl_connects_to_a_live_server() {
    use std::io::{BufRead, BufReader};
    // A held-open server the repl can dial.
    let mut server = Command::new(example_path("serve_workbook"))
        .env("TACO_EXAMPLE_ROWS", "16")
        .env("TACO_SERVE_HOLD", "1")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn serve_workbook");
    // Keep the reader (and the pipe's read end) alive until the server
    // exits — dropping it would EPIPE the server's final prints.
    let mut server_stdout = BufReader::new(server.stdout.take().expect("piped stdout"));
    let mut first_line = String::new();
    server_stdout.read_line(&mut first_line).expect("read listening line");
    let addr = first_line.trim().strip_prefix("listening on ").expect("listening line").to_string();

    // Drive the repl through a remote session against it.
    let script = format!(
        ":connect {addr} demo\n\
         show B16\n\
         A1 = 100\n\
         show B16\n\
         trace A1\n\
         fill C1 C2:C4\n\
         stats\n\
         :metrics\n\
         :trace\n\
         bogus remote command\n\
         :disconnect\n\
         A1 = 7\n\
         show A1\n\
         quit\n"
    );
    let out = run_example("repl", None, Some(&script));
    // Release the server and drain it to exit.
    server.stdin.take().expect("piped stdin").write_all(b"quit\n").expect("signal server");
    let mut rest = String::new();
    std::io::Read::read_to_string(&mut server_stdout, &mut rest).expect("drain server stdout");
    let status = server.wait().expect("server exits");
    assert!(status.success(), "held server must exit cleanly:\n{rest}");
    assert!(rest.contains("done"), "held server must shut down gracefully:\n{rest}");

    let text = stdout_of(&out);
    assert!(text.contains("connected to"), "connect path broken:\n{text}");
    // B16 = SUM(A1:A16) = 136 before, 235 after A1 = 100.
    assert!(text.contains("B16 = 136"), "remote read broken:\n{text}");
    assert!(text.contains("B16 = 235"), "remote write must recalc the rollup:\n{text}");
    assert!(text.contains("dependents: "), "remote trace broken:\n{text}");
    assert!(text.contains("remote stats: epoch="), "remote stats broken:\n{text}");
    // `:metrics` renders the server's hub as Prometheus text over the wire.
    assert!(text.contains("taco_request_ns"), "remote :metrics broken:\n{text}");
    assert!(text.contains("taco_recalcs_total"), "remote :metrics broken:\n{text}");
    // `:trace` reassembles the server's span rings into indented trees.
    assert!(text.contains("tree(s):"), "remote :trace broken:\n{text}");
    assert!(text.contains("workbook.recalc"), "remote :trace must show engine spans:\n{text}");
    // Autofill of an empty source cell must report, not crash.
    assert!(text.contains("error:"), "remote errors must be reported:\n{text}");
    assert!(text.contains("disconnected"), "disconnect path broken:\n{text}");
    // Back on the local engine after :disconnect.
    assert!(text.contains("A1 = 7"), "local mode must resume:\n{text}");
}

#[test]
fn crash_torture_survives_faults_bit_identically() {
    let out = run_example("crash_torture", Some("16"), None);
    let text = stdout_of(&out);
    assert!(text.contains("act 1: flaky disk"), "flaky-disk act missing:\n{text}");
    assert!(text.contains("act 2: hard crash"), "hard-crash act missing:\n{text}");
    assert!(text.contains("fault:"), "the injected-fault log must be visible:\n{text}");
    // Both acts end in the bit-identity proof (the example asserts it
    // internally; the marker must appear once per act).
    assert!(
        text.matches("bit-identical ✔").count() >= 2,
        "each act must prove clean-prefix recovery:\n{text}"
    );
    assert!(text.contains("done"), "example did not finish:\n{text}");
}

#[test]
fn metrics_dashboard_renders_a_snapshot() {
    let out = run_example("metrics_dashboard", Some("24"), None);
    let text = stdout_of(&out);
    assert!(text.contains("listening on 127.0.0.1:"), "server must bind:\n{text}");
    assert!(text.contains("poll 1/"), "polling loop missing:\n{text}");
    assert!(text.contains("p99"), "latency table missing:\n{text}");
    assert!(text.contains("taco_recalc_ns"), "engine histograms missing:\n{text}");
    assert!(text.contains("taco_wal_records_total"), "WAL counters missing:\n{text}");
    assert!(text.contains("prometheus exposition:"), "exposition line missing:\n{text}");
    assert!(text.contains("done"), "graceful shutdown missing:\n{text}");
}

#[test]
fn persist_reopen_round_trips_and_reports_sizes() {
    let out = run_example("persist_reopen", Some("48"), None);
    let text = stdout_of(&out);
    assert!(text.contains("bit-identical"), "reopen verification missing:\n{text}");
    assert!(text.contains("bytes binary"), "size report missing:\n{text}");
    assert!(
        text.contains("burst edits survived the torn tail"),
        "crash-simulated reopen missing:\n{text}"
    );
    assert!(text.contains("done"), "example did not finish:\n{text}");
}
