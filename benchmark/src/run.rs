//! One run of one workload: set up from the seed, measure rounds for the
//! asked number of seconds, check the outputs, and report every metric as
//! the median across rounds.
//!
//! A round is a frozen amount of work and runs every phase once, in the
//! same order (graph, engine, service, and with `--trace 1` the per-layer
//! kernels), so a noisy interval on this shared machine hits every phase
//! rather than all of one. Round 0 warms up and is discarded. `--seconds`
//! decides only how many rounds are taken.

use crate::calib::Speed;
use crate::inputs::Inputs;
use crate::spec::{Metric, Sizes, END_TO_END, PER_LAYER};
use crate::stats::Summary;
use crate::trace::{fold, Folded, Recorder, Span};
use crate::{graph, recalc, serve};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    pub out: PathBuf,
}

/// Per-round values by metric name, and the operation counts.
#[derive(Default)]
pub struct Samples {
    by_name: BTreeMap<&'static str, Vec<f64>>,
    /// Unscaled values of the timings in `by_name`, to print beside them.
    raw: BTreeMap<&'static str, Vec<f64>>,
    pub attempted: u64,
    pub failed: u64,
}

impl Samples {
    /// A count or a ratio: reported as measured.
    pub fn push(&mut self, name: &'static str, value: f64) {
        self.by_name.entry(name).or_default().push(value);
    }

    /// A duration, scaled to a machine of nominal speed (see [`crate::calib`]).
    pub fn time(&mut self, name: &'static str, raw: f64, factor: f64) {
        self.push(name, raw * factor);
        self.raw.entry(name).or_default().push(raw);
    }

    /// Work per second, scaled likewise.
    pub fn rate(&mut self, name: &'static str, raw: f64, factor: f64) {
        self.push(name, raw / factor);
        self.raw.entry(name).or_default().push(raw);
    }

    pub fn ops(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    fn summary(&self, name: &str) -> Option<Summary> {
        let raw = self.raw.get(name).cloned().unwrap_or_default();
        self.by_name.get(name).map(|v| Summary { raw, ..Summary::of(v) })
    }
}

/// What a phase needs from the round it runs in.
pub struct Round<'a> {
    pub rec: &'a mut Recorder,
    pub out: &'a mut Samples,
    pub sizes: &'a Sizes,
    /// This machine's speed, read at phase boundaries.
    pub speed: Speed,
    /// `--trace 1`: also run the per-layer kernels.
    pub layers: bool,
}

/// Test-only hook: `TACO_BENCH_BREAK_CHECK=graph|recalc|serve` corrupts
/// that check's reference, to prove a failed check fails the command.
pub fn break_check(which: &str) -> bool {
    std::env::var("TACO_BENCH_BREAK_CHECK").is_ok_and(|v| v == which)
}

/// Setups per run; `setup_s` is their median.
const SETUPS: usize = 3;

fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// The metrics the mode asks for, in `BENCHMARK.json` order.
    pub metrics: Vec<(&'static Metric, Summary)>,
    pub rounds: usize,
    /// Span totals and self times of the last traced round, by name.
    pub folded: BTreeMap<&'static str, Folded>,
    pub inputs_digest: u64,
    pub sizes: Sizes,
}

impl Outcome {
    /// No operation failed and every check held.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let sizes = Sizes::of(&args.workload, args.smoke)
        .ok_or_else(|| format!("unknown workload {:?}", args.workload))?;
    let tmp = args.out.join(format!("tmp-{}-{}", args.workload, std::process::id()));

    // ---- set-up: everything generated from the seed, several times ----
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut inputs = None;
    let mut out = Samples::default();
    let mut speed = Speed::start(args.smoke);
    for _ in 0..SETUPS {
        let t0 = Instant::now();
        inputs = Some(Inputs::generate(args.seed, &sizes));
        let took = t0.elapsed().as_secs_f64();
        setup_s.push((took, took * speed.factor()));
    }
    let inputs = inputs.expect("SETUPS > 0");
    let serve_reference = serve::reference(&inputs.serve)?;

    // ---- measured rounds ----
    let mut rec = Recorder::new(Instant::now(), if args.trace { 1 << 17 } else { 0 });
    let mut last_trace: Vec<Span> = Vec::new();
    let (mut plain_s, mut traced_s) = (Vec::new(), Vec::new());
    let min_rounds = if args.smoke { 2 } else { 3 };
    let measuring = Instant::now();
    let mut rounds = 0usize;
    let last_state = loop {
        // With `--trace 1` odd rounds record spans and even rounds do
        // not: the gap between them is the tracing overhead.
        let traced = args.trace && rounds % 2 == 1;
        rec.set_on(traced);
        let mut round = Round {
            rec: &mut rec,
            out: &mut out,
            sizes: &sizes,
            speed: Speed::start(args.smoke),
            layers: args.trace,
        };
        let t0 = Instant::now();
        let whole = round.rec.open("round");
        let (graphs, graph_speed) = graph::run(&inputs.graph, &mut round);
        let edited = recalc::run(&inputs.engine, &mut round);
        let served = serve::run(&inputs.serve, &serve_reference, &tmp, &mut round)?;
        round.rec.close(whole);
        let round_s = t0.elapsed().as_secs_f64();
        (if traced { &mut traced_s } else { &mut plain_s }).push(round_s);
        round.out.ops(served.0, served.1);
        if args.trace {
            graph::rtree_kernels(&inputs.graph, &graphs, &mut round);
        }
        if traced {
            let spans = round.rec.take();
            graph::fold_spans(&spans, graph_speed, &mut round);
            last_trace = spans;
        }
        round.out.push("bench.round_s", round_s);
        round.out.push("bench.speed_factor", crate::stats::median(&round.speed.factors));
        rounds += 1;
        // Round 0 is warm-up: drop what it measured (not in a smoke run,
        // which is too short to afford it).
        if rounds == 1 && !args.smoke {
            out = Samples { attempted: out.attempted, failed: out.failed, ..Samples::default() };
            plain_s.clear();
        }
        // Stop when the next round would end further past `--seconds`
        // than this one ended before it.
        let elapsed = measuring.elapsed().as_secs_f64();
        if rounds >= min_rounds && elapsed + elapsed / rounds as f64 / 2.0 >= args.seconds {
            break (graphs, edited);
        }
    };
    let _ = std::fs::remove_dir_all(&tmp);

    // ---- untimed correctness checks on what the last round left ----
    let (graphs, edited) = last_state;
    for (checked, failed) in
        [graph::check(&inputs.graph, &graphs, &sizes), recalc::check(&inputs.engine, &edited)]
    {
        out.ops(checked, failed);
    }

    // One value per run: the median set-up, with its unscaled time.
    setup_s.sort_by(|a, b| a.1.total_cmp(&b.1));
    let (unscaled, scaled) = setup_s[SETUPS / 2];
    out.time("setup_s", unscaled, scaled / unscaled);
    out.push("bench.rounds", rounds as f64);
    out.push("process.peak_rss_mb", peak_rss_mb());
    if args.trace {
        let (plain, traced) = (crate::stats::median(&plain_s), crate::stats::median(&traced_s));
        out.push("bench.trace_overhead_pct", (traced - plain) / plain * 100.0);
        write_trace(&args.out, &args.workload, &last_trace)?;
    }

    let wanted: &'static [Metric] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut metrics = Vec::with_capacity(wanted.len());
    for m in wanted {
        let s = out.summary(m.name).ok_or_else(|| format!("metric {} was not measured", m.name))?;
        if !s.median.is_finite() {
            return Err(format!("metric {} is not a number", m.name));
        }
        metrics.push((m, s));
    }
    Ok(Outcome {
        attempted: out.attempted,
        failed: out.failed,
        metrics,
        rounds,
        folded: fold(&last_trace),
        inputs_digest: inputs.digest(),
        sizes,
    })
}

fn write_trace(out: &Path, workload: &str, spans: &[Span]) -> Result<(), String> {
    std::fs::create_dir_all(out).map_err(|e| format!("{}: {e}", out.display()))?;
    let path = out.join(format!("{workload}.trace.json"));
    crate::trace::write_json(&path, spans).map_err(|e| format!("{}: {e}", path.display()))
}
