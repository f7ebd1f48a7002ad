//! `perfbench` — the repository's benchmark, from the bytes a user
//! supplies to the bytes they get back.
//!
//! ```text
//! perfbench --workload <discover-deep|clean-beam|serve-mixed|fleet-mixed>
//!           --seed N --seconds S --trace <0|1> [--scale full|smoke]
//!           [--tamper drop-ofd|validate-reply|clean-unsatisfied]
//! ```
//!
//! `--trace 0` drives the `fastofd` binary (path in `PERFBENCH_FASTOFD`)
//! and prints the end-to-end metrics; `--trace 1` runs the same workload,
//! then times calls into each layer's public functions in-process and
//! prints the per-layer metrics. The last line of stdout is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`. A failed
//! correctness check makes `correct` false and the exit code 1; a run
//! that cannot finish prints no result and exits 1. `--scale smoke` and
//! `--tamper` exist for the benchmark's own tests (see README.md).

mod clean;
mod discover;
mod http;
mod inputs;
mod loadgen;
mod procs;
mod serve;
mod stats;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

/// End-to-end metrics: every `--trace 0` run prints all of them.
pub const END_TO_END: [(&str, &str); 11] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("precision", "ratio"),
    ("recall", "ratio"),
    ("append_p50_ms", "ms"),
    ("append_p95_ms", "ms"),
    ("validate_p50_ms", "ms"),
    ("validate_p95_ms", "ms"),
    ("max_rps", "1/s"),
    ("peak_rss_mib", "MiB"),
    ("ok_share", "ratio"),
];

/// Per-layer metrics: every `--trace 1` run prints all of them; a layer
/// the workload does not run reads 0.
pub const PER_LAYER: [(&str, &str); 50] = [
    ("csv.read_ms", "ms"),
    ("csv.mib", "MiB"),
    ("ontology.parse_ms", "ms"),
    ("csv.write_ms", "ms"),
    ("sense_index.build_ms", "ms"),
    ("sample.ms", "ms"),
    ("sample.evidence_pairs", "count"),
    ("sample.pruned_share", "ratio"),
    ("lattice.ms", "ms"),
    ("lattice.peak_level_ms", "ms"),
    ("lattice.next_level_ms", "ms"),
    ("lattice.verify_ms", "ms"),
    ("lattice.unattributed_ms", "ms"),
    ("lattice.candidates", "count"),
    ("lattice.verified", "count"),
    ("lattice.ofds", "count"),
    ("cache.products", "count"),
    ("cache.hit_rate", "ratio"),
    ("cache.peak_mib", "MiB"),
    ("classes.build_ms", "ms"),
    ("sense.assign_ms", "ms"),
    ("graph.refine_ms", "ms"),
    ("ontrepair.beam_ms", "ms"),
    ("ontrepair.candidates", "count"),
    ("ontrepair.frontier", "count"),
    ("conflict.repair_ms", "ms"),
    ("conflict.repairs", "count"),
    ("clean.verify_ms", "ms"),
    ("validate.check_ms", "ms"),
    ("incremental.apply_us", "us"),
    ("incremental.reverified_classes", "count"),
    ("server.execute_ms.append", "ms"),
    ("server.execute_ms.validate", "ms"),
    ("server.overhead_ms", "ms"),
    ("server.admitted", "count"),
    ("server.shed", "count"),
    ("stream.open_ms", "ms"),
    ("stream.snapshot_kib", "KiB"),
    ("catalog.put_ms", "ms"),
    ("router.hop_ms", "ms"),
    ("router.retries", "count"),
    ("obs.overhead_pct", "%"),
    ("obs.spans_retained", "count"),
    ("obs.metrics_kib", "KiB"),
    ("loadgen.lag_p95_ms", "ms"),
    ("trace.wall_ms", "ms"),
    ("trace.layers_ms", "ms"),
    ("trace.remainder_ms", "ms"),
    ("trace.remainder_pct", "%"),
    ("failed_share", "ratio"),
];

/// How long any single benchmark invocation may live before the watchdog
/// kills every child and exits without a result.
const WATCHDOG: Duration = Duration::from_secs(170);

/// Set-ups per run: at least 5 and, for cheap set-ups, until they add up
/// to 2 s (at most 20); `setup_s` is their median.
pub fn more_setups(setups: &[f64]) -> bool {
    setups.len() < 5 || (setups.iter().sum::<f64>() < 2.0 && setups.len() < 20)
}

/// Idle time between a batch workload's set-up and its timed runs.
const SETTLE: Duration = Duration::from_secs(2);

/// Fewest timed runs of a batch workload, however long they take.
pub const MIN_BATCH_RUNS: usize = 3;

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1000.0
}

pub fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Runs `run_once` until `--seconds` have passed and at least
/// [`MIN_BATCH_RUNS`] runs are done; once when tracing.
pub fn batch_runs<T>(
    args: &Args,
    mut run_once: impl FnMut() -> Result<T, String>,
) -> Result<Vec<T>, String> {
    // On a shared VM the first seconds after the CPU-heavy set-up run up
    // to 1.5× slower; a pause lets the timed runs start from the same state.
    std::thread::sleep(SETTLE);
    let mut runs = Vec::new();
    let start = std::time::Instant::now();
    loop {
        runs.push(run_once()?);
        let done = runs.len() >= MIN_BATCH_RUNS && start.elapsed().as_secs_f64() >= args.seconds;
        if args.trace || done {
            return Ok(runs);
        }
    }
}

/// Wall-time and memory metrics of a batch workload's CLI runs.
///
/// `wall_s` is the mean of the run's CLI runs. On a VM shared with other
/// tenants the host's speed moves in spells of a minute or more, so a run
/// of `--seconds` sees only a few of them; the best run depends on one
/// lucky moment, the mean on all of them. Over ten seeds the mean spread
/// least of best, median and mean (README.md, Steadiness). A run's walls
/// have no outliers to resist: a CLI run that hangs is killed at 150 s
/// and fails the run.
/// A batch workload has one user operation and no requests, so the four
/// latency metrics repeat `wall_s` in ms and `max_rps` is its inverse;
/// they are printed because every end-to-end metric is printed on every
/// workload.
pub fn batch_metrics<'a>(
    report: &mut Report,
    workload: &str,
    runs: impl Iterator<Item = &'a procs::RunOutcome>,
) {
    let (walls, rss): (Vec<f64>, Vec<f64>) = runs
        .map(|r| (secs(r.wall), r.max_rss_kib as f64 / 1024.0))
        .unzip();
    eprintln!("{workload}: {} run walls {walls:.3?} s", walls.len());
    let wall = stats::mean(&walls).expect("at least one run");
    report.set("wall_s", wall);
    report.set("max_rps", 1.0 / wall);
    for name in [
        "append_p50_ms",
        "append_p95_ms",
        "validate_p50_ms",
        "validate_p95_ms",
    ] {
        report.set(name, wall * 1000.0);
    }
    report.set(
        "peak_rss_mib",
        stats::median(&rss).expect("at least one run"),
    );
}

/// `ok_share` and `failed_share` from the operation counts.
pub fn finish_shares(report: &mut Report) {
    let attempted = report.attempted.max(1) as f64;
    let failed = report.failed.min(report.attempted) as f64;
    report.set("ok_share", 1.0 - failed / attempted);
    report.set("failed_share", failed / attempted);
}

/// Runs `f` inside a span of the benchmark's own registry and records
/// its wall time in milliseconds as metric `name`.
pub fn timed<T>(
    obs: &ofd_core::Obs,
    report: &mut Report,
    name: &'static str,
    f: impl FnOnce() -> T,
) -> T {
    let _span = obs.span(&format!("perfbench.{name}"));
    let start = std::time::Instant::now();
    let out = f();
    report.set(name, ms(start.elapsed()));
    out
}

/// Size of a traced run's span registry.
pub fn obs_metrics(report: &mut Report, obs: &ofd_core::Obs) {
    let snap = obs.snapshot();
    report.set("obs.spans_retained", snap.spans.len() as f64);
    report.set(
        "obs.metrics_kib",
        snap.to_json_string(false).len() as f64 / 1024.0,
    );
}

/// The traced wall split into the named layers and what they leave over.
pub fn remainder_metrics(report: &mut Report, wall_ms: f64, layers_ms: f64) {
    report.set("trace.wall_ms", wall_ms);
    report.set("trace.layers_ms", layers_ms);
    report.set("trace.remainder_ms", wall_ms - layers_ms);
    report.set(
        "trace.remainder_pct",
        (wall_ms - layers_ms) / wall_ms * 100.0,
    );
}

/// Input sizes: the real workload, or a few-second version for tests.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Scale {
    Full,
    Smoke,
}

/// A deliberately wrong program output, injected where the benchmark reads
/// it, so the benchmark's tests can show each check fails the run.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Tamper {
    None,
    DropOfd,
    ValidateReply,
    CleanUnsatisfied,
}

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
    pub tamper: Tamper,
    /// The `fastofd` binary under test.
    pub fastofd: PathBuf,
    /// Working directory of this run (fresh, removed at exit).
    pub work: PathBuf,
}

/// What a workload run produced: operation counts, failures found by the
/// correctness checks, and named metric values.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub metrics: BTreeMap<&'static str, f64>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Records a failed correctness check; the run reports `correct: false`.
    pub fn fail(&mut self, what: impl Into<String>) {
        let what = what.into();
        eprintln!("check failed: {what}");
        self.failures.push(what);
    }

    /// Records a check: fails the run with `what` unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.fail(what());
        }
    }
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 42u64;
    let mut seconds = 20.0f64;
    let mut trace = false;
    let mut scale = Scale::Full;
    let mut tamper = Tamper::None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} expects a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|_| "--seed expects an integer")?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|_| "--seconds expects a number")?;
                if !(seconds > 0.0 && seconds <= 120.0) {
                    return Err("--seconds must be in (0, 120]".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace expects 0 or 1, got {other:?}")),
                }
            }
            "--scale" => {
                scale = match value()?.as_str() {
                    "full" => Scale::Full,
                    "smoke" => Scale::Smoke,
                    other => return Err(format!("--scale expects full or smoke, got {other:?}")),
                }
            }
            "--tamper" => {
                tamper = match value()?.as_str() {
                    "drop-ofd" => Tamper::DropOfd,
                    "validate-reply" => Tamper::ValidateReply,
                    "clean-unsatisfied" => Tamper::CleanUnsatisfied,
                    other => return Err(format!("unknown --tamper {other:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !["discover-deep", "clean-beam", "serve-mixed", "fleet-mixed"].contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}"));
    }
    let fastofd = std::env::var("PERFBENCH_FASTOFD")
        .map_err(|_| "PERFBENCH_FASTOFD must name the fastofd binary")?;
    // Absolute, since children run in the working directory.
    let fastofd = std::fs::canonicalize(&fastofd).map_err(|e| format!("{fastofd}: {e}"))?;
    let cwd = std::env::current_dir().map_err(|e| e.to_string())?;
    let work = cwd
        .join(".perfbench-work")
        .join(format!("{workload}-{}", std::process::id()));
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        scale,
        tamper,
        fastofd,
        work,
    })
}

/// Renders the result line; `names` is the metric set this run owes.
fn result_line(
    report: &Report,
    names: &[(&str, &str)],
    zero_default: bool,
) -> Result<String, String> {
    let mut metrics = Vec::with_capacity(names.len());
    for &(name, unit) in names {
        let value = match report.metrics.get(name) {
            Some(v) => *v,
            None if zero_default => 0.0,
            None => return Err(format!("workload did not measure {name}")),
        };
        if !value.is_finite() {
            return Err(format!("{name} is not finite ({value})"));
        }
        metrics.push(format!(
            "{:?}: {{\"value\": {value:?}, \"unit\": {unit:?}}}",
            name
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.failures.is_empty(),
        report.attempted.max(1),
        report.failed,
        metrics.join(", ")
    ))
}

fn run(args: &Args) -> Result<Report, String> {
    procs::fresh_dir(args.work.clone())?;
    let out = match args.workload.as_str() {
        "discover-deep" => discover::run(args),
        "clean-beam" => clean::run(args),
        "serve-mixed" => serve::run(args, false),
        "fleet-mixed" => serve::run(args, true),
        other => Err(format!("unknown workload {other:?}")),
    };
    procs::kill_all();
    let _ = std::fs::remove_dir_all(&args.work);
    if let Some(parent) = args.work.parent() {
        // Only removes the parent when no other run is using it.
        let _ = std::fs::remove_dir(parent);
    }
    out
}

/// Writes the benchmark's own span record for a traced run.
pub fn write_trace(args: &Args, obs: &ofd_core::Obs) {
    let dir = args
        .work
        .parent()
        .and_then(Path::parent)
        .map(|p| p.join(".perfbench-trace"));
    let Some(dir) = dir else { return };
    if std::fs::create_dir_all(&dir).is_err() {
        return;
    }
    let path = dir.join(format!("{}-seed{}.json", args.workload, args.seed));
    if std::fs::write(&path, obs.snapshot().to_json_string(true)).is_ok() {
        eprintln!("wrote span record to {}", path.display());
    }
}

fn main() -> ExitCode {
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        procs::kill_all();
        default_hook(info);
    }));
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    // Never joined: the watchdog ends with the process, or ends it.
    std::thread::spawn(|| {
        std::thread::sleep(WATCHDOG);
        eprintln!("perfbench: watchdog expired after {WATCHDOG:?}; stopping");
        procs::kill_all();
        std::process::exit(1);
    });
    let report = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let line = if args.trace {
        result_line(&report, &PER_LAYER, true)
    } else {
        result_line(&report, &END_TO_END, false)
    };
    match line {
        Ok(line) => {
            println!("{line}");
            if report.failures.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
