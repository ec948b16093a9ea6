//! End-to-end and per-layer benchmark of the gluon-rs workspace.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload pr-rmat18-2h --seed 1 --seconds 30 --trace 0
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --smoke
//! ```
//!
//! A run generates the workload's input from `--seed`, launches it
//! repeatedly through the public `Run` API for `--seconds` (untraced),
//! checks every launch against the sequential oracle outside the timed
//! region, and reports the end-to-end metrics as medians. With
//! `--trace 1` it then makes one more launch with a `Tracer` and a
//! `MetricsHub` attached and reports the per-layer ledger of that launch
//! instead. The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//!
//! `--smoke` runs every workload on a tiny input and fails unless every
//! metric is reported and no launch failed.

mod ledger;
mod workload;

use std::panic::{self, AssertUnwindSafe};
use std::process::ExitCode;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use gluon_algos::DistOutcome;
use gluon_metrics::json::Json;
use gluon_metrics::MetricsHub;
use gluon_trace::Tracer;

use workload::{Prepared, Spec, WORKLOADS};

/// Timed launches a run makes at least, however short `--seconds` is.
const MIN_LAUNCHES: usize = 3;

/// Largest `--seconds` accepted.
const MAX_SECONDS: u64 = 3600;

/// How long one launch may take before it counts as hung. Launches take
/// a few seconds; the bound keeps a run within its time limit even so.
const LAUNCH_TIMEOUT: Duration = Duration::from_secs(60);

/// End-to-end metrics, reported from the untraced launches.
const END_TO_END: [(&str, &str); 5] = [
    ("algo_s", "s"),
    ("setup_s", "s"),
    ("sync_bytes", "B"),
    ("wire_bytes", "B"),
    ("peak_rss_mb", "MiB"),
];

/// One reported number.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

enum Mode {
    Run(Args),
    Smoke,
}

fn parse_args() -> Result<Mode, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            return Ok(Mode::Smoke);
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let secs: u64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if secs > MAX_SECONDS {
                    return Err(format!("--seconds is at most {MAX_SECONDS}"));
                }
                seconds = Some(secs);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                };
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Mode::Run(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
    }))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(Mode::Smoke) => return smoke(),
        Ok(Mode::Run(args)) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>\n       \
                 perfbench --smoke"
            );
            return ExitCode::from(2);
        }
    };
    let Some(spec) = Spec::find(&args.workload) else {
        let names: Vec<&str> = WORKLOADS.iter().map(|s| s.name).collect();
        eprintln!(
            "perfbench: unknown workload {:?} (one of {})",
            args.workload,
            names.join(", ")
        );
        return ExitCode::from(2);
    };
    let result = run(
        &spec,
        args.seed,
        Duration::from_secs(args.seconds),
        args.trace,
    );
    let metrics = if args.trace {
        result.per_layer.clone().unwrap_or_default()
    } else {
        result.end_to_end.clone()
    };
    println!("{}", result.json(&metrics).render());
    ExitCode::SUCCESS
}

/// Everything one workload run produced.
struct RunResult {
    attempted: u64,
    failed: u64,
    /// A launch hung; the run stopped launching.
    hung: bool,
    problems: Vec<String>,
    end_to_end: Vec<Metric>,
    /// `None` unless traced (or when the traced launch failed).
    per_layer: Option<Vec<Metric>>,
}

impl RunResult {
    fn correct(&self) -> bool {
        self.problems.is_empty()
    }

    fn json(&self, metrics: &[Metric]) -> Json {
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::UInt(self.attempted)),
            ("failed", Json::UInt(self.failed)),
            (
                "metrics",
                Json::obj(metrics.iter().map(|m| {
                    (
                        m.name.clone(),
                        Json::obj([
                            ("value", Json::Num(m.value)),
                            ("unit", Json::Str(m.unit.to_string())),
                        ]),
                    )
                })),
            ),
        ])
    }
}

/// One launch's outcome and measurements.
struct Launch {
    wall_s: f64,
    peak_rss_mb: f64,
    out: DistOutcome,
}

impl Launch {
    fn setup_s(&self) -> f64 {
        self.wall_s - self.out.algo_secs
    }

    fn wire_bytes(&self) -> u64 {
        self.out.net.bytes.iter().sum()
    }
}

/// Why a launch produced no outcome.
enum LaunchError {
    Panicked(String),
    /// No outcome within [`LAUNCH_TIMEOUT`]: a host is blocked for good.
    Hung,
}

/// Launches once on a thread of its own, timing the wall around
/// `Run::launch` and recording the process's peak RSS during it. A host
/// panic is caught; a launch that outlives [`LAUNCH_TIMEOUT`] is
/// abandoned, its thread left detached, and reported as hung.
fn timed_launch(
    spec: &Spec,
    input: &Arc<Prepared>,
    tracer: &Tracer,
    hub: &MetricsHub,
) -> Result<Launch, LaunchError> {
    let (spec, input, tracer, hub) = (*spec, Arc::clone(input), tracer.clone(), hub.clone());
    let (done, result) = mpsc::channel();
    let worker = std::thread::spawn(move || {
        reset_peak_rss();
        let start = Instant::now();
        let out = panic::catch_unwind(AssertUnwindSafe(|| {
            workload::launch(&spec, &input, &tracer, &hub)
        }));
        let wall_s = start.elapsed().as_secs_f64();
        let peak_rss_mb = peak_rss_mb();
        let launch = out.map(|out| Launch {
            wall_s,
            peak_rss_mb,
            out,
        });
        // The receiver is gone only after a timeout, when nobody waits.
        let _ = done.send(launch.map_err(|payload| {
            let msg = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or("non-string panic payload");
            LaunchError::Panicked(format!("launch panicked: {msg}"))
        }));
    });
    let launch = result
        .recv_timeout(LAUNCH_TIMEOUT)
        .map_err(|_| LaunchError::Hung)?;
    worker
        .join()
        .expect("the launch thread catches every panic");
    launch
}

/// Runs `spec` on the input made from `seed`: one warm-up launch, then
/// untraced launches until `budget` has passed (at least
/// [`MIN_LAUNCHES`]), then — when `trace` — one traced launch. Every
/// launch is checked against the oracle after its clock stops.
fn run(spec: &Spec, seed: u64, budget: Duration, trace: bool) -> RunResult {
    let input = Arc::new(workload::prepare(spec, seed));
    println!(
        "perfbench workload={} seed={seed} nodes={} edges={} hosts={} threads={} engine={} \
         policy={} transport={} nproc={} commit={} graph.gen_s={:.4}",
        spec.name,
        input.graph.num_nodes(),
        input.graph.num_edges(),
        spec.hosts,
        spec.threads,
        spec.engine,
        spec.policy,
        spec.transport.name(),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        commit(),
        input.gen_s,
    );
    let mut result = RunResult {
        attempted: 0,
        failed: 0,
        hung: false,
        problems: Vec::new(),
        end_to_end: Vec::new(),
        per_layer: None,
    };
    let untraced = (Tracer::disabled(), MetricsHub::disabled());
    // The warm-up launch runs before the oracle is computed, so its peak
    // RSS is that of the input plus one launch in a fresh process. It is
    // checked and counted but not timed: it pays first-touch page faults.
    let warm_up = timed_launch(spec, &input, &untraced.0, &untraced.1);
    let oracle = workload::oracle(spec, &input);
    let check = |result: &mut RunResult, launch: Result<Launch, LaunchError>| {
        result.attempted += 1;
        let problem = match launch {
            Ok(l) if workload::matches_oracle(&oracle, &l.out) => return Some(l),
            Ok(_) => "labels differ from the sequential oracle".to_string(),
            Err(LaunchError::Panicked(msg)) => msg,
            Err(LaunchError::Hung) => {
                result.hung = true;
                format!("launch hung for over {} s", LAUNCH_TIMEOUT.as_secs())
            }
        };
        result.failed += 1;
        result.problems.push(problem);
        None
    };
    let warm_up = check(&mut result, warm_up);
    let mut launches = Vec::new();
    let deadline = Instant::now() + budget;
    // Past the deadline, launches continue only to reach MIN_LAUNCHES,
    // and only while none has failed.
    while !result.hung
        && (Instant::now() < deadline || (launches.len() < MIN_LAUNCHES && result.failed == 0))
    {
        let launch = timed_launch(spec, &input, &untraced.0, &untraced.1);
        launches.extend(check(&mut result, launch));
    }
    let reference = warm_up.as_ref().or(launches.first());
    if let Some(reference) = reference {
        check_repeats(reference, &launches, &mut result.problems);
    }
    result.end_to_end = summarize(&launches, warm_up.as_ref());
    print_end_to_end(&result, &launches);
    if trace && !result.hung {
        let tracer = Tracer::new(spec.hosts);
        let hub = MetricsHub::new(spec.hosts);
        let symmetrize_s = ledger::time_symmetrize(spec, &input.graph);
        let traced = check(&mut result, timed_launch(spec, &input, &tracer, &hub));
        if let (Some(traced), Some(reference)) = (traced, reference) {
            let untraced_algo_s = median(launches.iter().map(|l| l.out.algo_secs).collect());
            let ledger = ledger::Ledger::build(&ledger::TracedRun {
                launch_wall_s: traced.wall_s,
                out: &traced.out,
                reference: &reference.out,
                tracer: &tracer,
                hub: &hub,
                symmetrize_s,
                untraced_algo_s,
                gen_s: input.gen_s,
            });
            ledger.print();
            result.problems.extend(ledger.problems);
            result.per_layer = Some(ledger.metrics);
        }
    }
    for p in &result.problems {
        println!("  PROBLEM: {p}");
    }
    result
}

/// Every launch of one input must repeat the reference's labels bit for
/// bit, and its byte counts and rounds exactly.
fn check_repeats(reference: &Launch, launches: &[Launch], problems: &mut Vec<String>) {
    for (i, l) in launches.iter().enumerate() {
        let same = workload::same_labels(&reference.out, &l.out)
            && reference.out.run.total_bytes == l.out.run.total_bytes
            && reference.wire_bytes() == l.wire_bytes()
            && reference.out.rounds == l.out.rounds;
        if !same {
            problems.push(format!(
                "launch {i} did not repeat the first launch's labels, bytes and rounds"
            ));
        }
    }
}

/// The end-to-end metrics: medians over the timed launches, except the
/// peak RSS, which is the warm-up launch's (or, if that one failed, the
/// median over the timed launches).
fn summarize(launches: &[Launch], warm_up: Option<&Launch>) -> Vec<Metric> {
    if launches.is_empty() {
        return Vec::new();
    }
    let column = |f: &dyn Fn(&Launch) -> f64| median(launches.iter().map(f).collect());
    let values = [
        column(&|l| l.out.algo_secs),
        column(&|l| l.setup_s()),
        column(&|l| l.out.run.total_bytes as f64),
        column(&|l| l.wire_bytes() as f64),
        warm_up.map_or_else(|| column(&|l| l.peak_rss_mb), |w| w.peak_rss_mb),
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), v)| Metric::new(name, v, unit))
        .collect()
}

fn print_end_to_end(result: &RunResult, launches: &[Launch]) {
    let n = launches.len();
    println!("  end to end, untraced ({n} timed launches after 1 warm-up):");
    for m in &result.end_to_end {
        let spread = match m.name.as_str() {
            "algo_s" => describe(launches.iter().map(|l| l.out.algo_secs).collect()),
            "setup_s" => describe(launches.iter().map(Launch::setup_s).collect()),
            _ => String::new(),
        };
        println!(
            "    {:<12} {:>16.4} {:<5} median{spread}",
            m.name, m.value, m.unit
        );
    }
    println!(
        "    {:<12} {:>16.4} {:<5} ({} of {} launches failed)",
        "failed_frac",
        result.failed as f64 / result.attempted.max(1) as f64,
        "ratio",
        result.failed,
        result.attempted
    );
}

/// The sample count, range and highest percentile that has at least ten
/// samples beyond it, of one timing.
fn describe(mut values: Vec<f64>) -> String {
    let n = values.len();
    if n == 0 {
        return String::new();
    }
    values.sort_by(f64::total_cmp);
    let tail = [99.0, 95.0, 90.0, 75.0]
        .into_iter()
        .find(|p| n as f64 * (1.0 - p / 100.0) >= 10.0)
        .map_or("no tail percentile under 20 samples".to_string(), |p| {
            let idx = ((p / 100.0) * (n - 1) as f64).round() as usize;
            format!("p{p} {:.4}", values[idx])
        });
    format!(
        " (n={n}, min {:.4}, max {:.4}, {tail})",
        values[0],
        values[n - 1]
    )
}

pub fn median(mut values: Vec<f64>) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// Resets the process's peak-RSS mark (`VmHWM`) to its current RSS.
fn reset_peak_rss() {
    // Best effort: where clear_refs is unavailable the mark stays the
    // process-lifetime peak, which still bounds the launch's peak.
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// The process's peak RSS (`VmHWM`) in MiB, 0 where unavailable.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// The checked-out commit, read from `.git` without running git;
/// "unknown" outside a git checkout.
fn commit() -> String {
    let Ok(head) = std::fs::read_to_string(".git/HEAD") else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(id) = std::fs::read_to_string(format!(".git/{reference}")) {
        return id.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|id| id.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Every workload on its tiny input, traced: fails unless every run was
/// correct, no launch failed, and both metric sets came out complete and
/// finite. Prints one JSON line per workload carrying the end-to-end and
/// per-layer metrics (the package's tests check their names and units
/// against `BENCHMARK.json`).
fn smoke() -> ExitCode {
    let mut ok = true;
    for spec in WORKLOADS.map(Spec::tiny) {
        let result = run(&spec, 1, Duration::ZERO, true);
        let mut metrics = result.end_to_end.clone();
        metrics.extend(result.per_layer.clone().unwrap_or_default());
        let complete = result.end_to_end.len() == END_TO_END.len()
            && result.per_layer.is_some()
            && metrics.iter().all(|m| m.value.is_finite());
        if !complete || !result.correct() || result.failed > 0 {
            eprintln!(
                "smoke: {} failed: metrics complete {complete}, {} of {} launches failed, \
                 problems {:?}",
                spec.name, result.failed, result.attempted, result.problems
            );
            ok = false;
        }
        let mut line = result.json(&metrics);
        if let Json::Obj(fields) = &mut line {
            fields.insert(
                0,
                ("workload".to_string(), Json::Str(spec.name.to_string())),
            );
        }
        println!("{}", line.render());
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
