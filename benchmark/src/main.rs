//! The repository's benchmark. `benchmark/run.sh` builds this and runs
//! it once per workload:
//!
//! ```text
//! taco_benchmark --workload graph|recalc|serve_read|serve_write
//!                [--seed 11] [--seconds 20] [--trace 0|1] [--smoke] [--out benchmark/out]
//! ```
//!
//! Every metric is printed by name with its unit, median, quartile spread
//! and sample count; the last line of standard output is the result
//! object the driver reads. See `benchmark/README.md`.

mod calib;
mod graph;
mod inputs;
mod recalc;
mod run;
mod serve;
mod spec;
mod stats;
mod trace;

use run::{Args, Outcome};
use spec::json_str;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: taco_benchmark --workload <graph|recalc|serve_read|serve_write> \
                     [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--out DIR] | --print-spec";

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Option<Args>, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 11,
        seconds: f64::from(spec::RUN_SECONDS),
        trace: false,
        smoke: false,
        out: PathBuf::from("benchmark/out"),
    };
    let mut seconds = None;
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--print-spec" => return Ok(None),
            "--smoke" => args.smoke = true,
            "--workload" => args.workload = value()?,
            "--out" => args.out = PathBuf::from(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = Some(value()?.parse().map_err(|e| format!("--seconds: {e}"))?);
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    // A smoke run checks and does not measure: two rounds unless told otherwise.
    args.seconds = seconds.unwrap_or(if args.smoke { 0.0 } else { args.seconds });
    Ok(Some(args))
}

/// Git revision and compiler come from `run.sh` (the driver's checkout is
/// not a git repository, so "unknown" is normal); `cpus_allowed` shows
/// whether `run.sh` managed to pin the process to one core.
fn stamp(args: &Args, outcome: &Outcome) -> Vec<(&'static str, String)> {
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".into());
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let cpus_allowed = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
        .map_or("unknown", str::trim);
    vec![
        ("git_rev", json_str(&env("TACO_BENCH_GIT_REV"))),
        ("rustc", json_str(&env("TACO_BENCH_RUSTC"))),
        ("nproc", json_str(&env("TACO_BENCH_NPROC"))),
        ("cpus_allowed", json_str(cpus_allowed)),
        ("profile", json_str(if cfg!(debug_assertions) { "debug" } else { "release" })),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("smoke", args.smoke.to_string()),
        ("rounds", outcome.rounds.to_string()),
        ("inputs_digest", json_str(&format!("{:016x}", outcome.inputs_digest))),
        ("sizes", json_str(&format!("{:?}", outcome.sizes))),
        ("flush_policy", json_str(spec::FLUSH_POLICY)),
    ]
}

/// The one-line object the driver reads: exactly `correct`, `attempted`,
/// `failed`, `metrics`.
fn driver_line(outcome: &Outcome) -> String {
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|(m, s)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(m.name),
                s.median,
                json_str(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct(),
        outcome.attempted.max(1),
        outcome.failed,
        metrics.join(", ")
    )
}

/// The full result kept under `--out`: stamp, spreads, span totals.
fn result_file(args: &Args, outcome: &Outcome) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "{{");
    let _ = writeln!(s, "  \"workload\": {},", json_str(&args.workload));
    let _ = writeln!(s, "  \"trace\": {},", u8::from(args.trace));
    let stamp: Vec<String> =
        stamp(args, outcome).iter().map(|(k, v)| format!("{}: {v}", json_str(k))).collect();
    let _ = writeln!(s, "  \"stamp\": {{{}}},", stamp.join(", "));
    let _ = writeln!(s, "  \"correct\": {},", outcome.correct());
    let _ = writeln!(s, "  \"ops_attempted\": {},", outcome.attempted);
    let _ = writeln!(s, "  \"ops_failed\": {},", outcome.failed);
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|(m, v)| {
            format!(
                "    {}: {{\"value\": {}, \"unit\": {}, \"q1\": {}, \"q3\": {}, \"n\": {}, \"rounds\": {:?}, \"unscaled_rounds\": {:?}}}",
                json_str(m.name),
                v.median,
                json_str(m.unit),
                v.q1,
                v.q3,
                v.n,
                v.samples,
                v.raw
            )
        })
        .collect();
    let _ = writeln!(s, "  \"metrics\": {{\n{}\n  }},", metrics.join(",\n"));
    let spans: Vec<String> = outcome
        .folded
        .iter()
        .map(|(name, f)| {
            format!(
                "    {}: {{\"count\": {}, \"total_ms\": {}, \"self_ms\": {}}}",
                json_str(name),
                f.count,
                f.total_ns as f64 / 1e6,
                f.self_ns as f64 / 1e6
            )
        })
        .collect();
    let _ = writeln!(s, "  \"spans\": {{\n{}\n  }}", spans.join(",\n"));
    let _ = writeln!(s, "}}");
    s
}

fn report(args: &Args, outcome: &Outcome) {
    println!(
        "# workload {} · seed {} · {} s · trace {} · {} rounds",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        outcome.rounds
    );
    for (k, v) in stamp(args, outcome) {
        println!("# {k} = {v}");
    }
    println!(
        "{:<36} {:>16} {:<11} {:>7} {:>3} {:>16}",
        "metric", "median", "unit", "iqr %", "n", "unscaled median"
    );
    for (m, s) in &outcome.metrics {
        let unscaled =
            if s.raw.is_empty() { String::new() } else { format!("{:.4}", stats::median(&s.raw)) };
        println!(
            "{:<36} {:>16.4} {:<11} {:>7.2} {:>3} {:>16}",
            m.name,
            s.median,
            m.unit,
            s.spread() * 100.0,
            s.n,
            unscaled
        );
    }
    if !outcome.folded.is_empty() {
        println!(
            "{:<36} {:>10} {:>12} {:>12}",
            "span (last traced round)", "count", "total ms", "self ms"
        );
        for (name, f) in &outcome.folded {
            println!(
                "{:<36} {:>10} {:>12.3} {:>12.3}",
                name,
                f.count,
                f.total_ns as f64 / 1e6,
                f.self_ns as f64 / 1e6
            );
        }
    }
    println!("ops_attempted {} ops_failed {}", outcome.attempted, outcome.failed);
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(Some(args)) => args,
        Ok(None) => {
            print!("{}", spec::benchmark_json());
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match run::run(&args) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("benchmark failed: {e}");
            return ExitCode::from(2);
        }
    };
    report(&args, &outcome);
    let kind = if args.trace { "layers" } else { "e2e" };
    let path = args.out.join(format!("{}.{kind}.json", args.workload));
    if let Err(e) = std::fs::create_dir_all(&args.out)
        .and_then(|()| std::fs::write(&path, result_file(&args, &outcome)))
    {
        eprintln!("benchmark failed: {}: {e}", path.display());
        return ExitCode::from(2);
    }
    println!("{}", driver_line(&outcome));
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> impl Iterator<Item = String> + '_ {
        s.split_whitespace().map(str::to_string)
    }

    #[test]
    fn parses_the_drivers_arguments() {
        let a = parse(argv("--workload graph --seed 7 --seconds 3 --trace 1")).unwrap().unwrap();
        assert_eq!((a.workload.as_str(), a.seed, a.seconds, a.trace), ("graph", 7, 3.0, true));
        let d = parse(argv("--workload recalc")).unwrap().unwrap();
        assert_eq!((d.seed, d.trace, d.smoke), (11, false, false));
        assert_eq!(d.seconds, f64::from(spec::RUN_SECONDS));
        assert_eq!(parse(argv("--workload recalc --smoke")).unwrap().unwrap().seconds, 0.0);
        assert!(parse(argv("--print-spec")).unwrap().is_none());
        assert!(parse(argv("--seed 1")).is_err());
        assert!(parse(argv("--workload graph --trace 2")).is_err());
        assert!(parse(argv("--workload graph --bogus")).is_err());
    }

    /// `--smoke` (rows 64, scale 0.05, 2 rounds) runs every phase of all
    /// four workloads with their checks, traced and untraced, and prints
    /// every metric the mode asks for.
    #[test]
    fn smoke_runs_all_four_workloads_and_their_checks() {
        let out = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join(format!("out/test-smoke-{}", std::process::id()));
        for (i, w) in spec::WORKLOADS.iter().enumerate() {
            let trace = i % 2 == 1;
            let args = Args {
                workload: w.name.into(),
                seed: 11 + i as u64,
                seconds: 0.0,
                trace,
                smoke: true,
                out: out.clone(),
            };
            let outcome = run::run(&args).unwrap_or_else(|e| panic!("{}: {e}", w.name));
            assert!(outcome.correct(), "{} failed {} ops", w.name, outcome.failed);
            assert!(outcome.attempted > 0);
            assert_eq!(outcome.rounds, 2);
            let wanted = if trace { spec::PER_LAYER.len() } else { spec::END_TO_END.len() };
            assert_eq!(outcome.metrics.len(), wanted);
            assert_eq!(trace, out.join(format!("{}.trace.json", w.name)).exists());
            let line = driver_line(&outcome);
            assert!(line.starts_with("{\"correct\": true, \"attempted\": "));
            assert!(!line.contains('\n'));
        }
        let _ = std::fs::remove_dir_all(&out);
    }
}
