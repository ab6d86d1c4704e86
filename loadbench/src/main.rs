//! End-to-end and per-layer benchmark of HeteSim serving and offline
//! batch jobs.
//!
//! ```text
//! hetesim-loadbench --workload serve-hot|serve-churn|offline-batch
//!                   --seed N --seconds S --trace 0|1
//! ```
//!
//! Generates paper-scale DBLP inputs from the seed, starts the program
//! under test as child processes of this binary, drives and checks it,
//! and prints one JSON object as the last line of stdout: end-to-end
//! metrics with `--trace 0`, per-layer metrics with `--trace 1`. Exits
//! nonzero on a wrong answer. See `NOTES.md` for the design.

mod check;
mod load;
mod program;
mod rng;
mod stats;
mod workload;

use stats::{median, quantile};
use std::collections::{BTreeMap, BTreeSet};
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Duration;
use workload::{Inputs, Mix, Workload, NO_MATRIX, OFFLINE_PATHS};

/// Fresh processes that start and exit, half before and half after the
/// measured phase; with the measured process's own start, `setup_s` is
/// the median of 15 cold starts.
const COLD_STARTS: usize = 14;
/// The offline job loop is split across this many fresh processes, each
/// for its share of `--seconds`; a process-level effect (memory placement,
/// which cores its threads land on) then moves one of five figures, not
/// the run's only one.
const JOB_PROCESSES: usize = 5;
/// Served requests in this leading window are checked but not timed.
const WARMUP: Duration = Duration::from_secs(1);
/// Served p99 is taken per window of this length and the median across
/// windows is reported, so a burst of noise from other tenants of the
/// machine in one window does not decide the run's figure.
const P99_WINDOW: Duration = Duration::from_secs(10);
/// serve-churn's Poisson arrival rate, per second: about half of what
/// two connections can carry through the server's 5 ms accept poll.
const CHURN_RATE: f64 = 100.0;
/// serve-churn's sender threads, each with at most one open connection.
const CHURN_SENDERS: usize = 2;
/// How far the traced parts of a served request may sum from its client
/// latency, in percent of the latency, before the split is rejected.
const LAYER_SUM_TOLERANCE_PCT: f64 = 5.0;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1, 10.0f64, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => seconds = value.parse().map_err(|_| bad())?,
            "--trace" => trace = value.parse::<u8>().map_err(|_| bad())? == 1,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or(
        "usage: --workload serve-hot|serve-churn|offline-batch --seed N --seconds S --trace 0|1",
    )?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// A child process running the program under test. Dropping it kills the
/// process if it is still running and waits for it.
struct Child {
    proc: std::process::Child,
    out: BufReader<std::process::ChildStdout>,
}

/// The child's `ready` line: port and cold-start times in nanoseconds.
struct Ready {
    port: u16,
    setup_ns: f64,
    step1_ns: f64,
    step2_ns: f64,
}

impl Child {
    fn spawn(mode: &str, args: &[String]) -> Result<Child, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let mut proc = Command::new(exe)
            .arg(mode)
            .args(args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn {mode}: {e}"))?;
        let out = BufReader::new(proc.stdout.take().expect("piped stdout"));
        Ok(Child { proc, out })
    }

    /// Fields of the next stdout line starting with `tag`.
    fn line(&mut self, tag: &str) -> Result<Vec<String>, String> {
        let mut line = String::new();
        loop {
            line.clear();
            let n = self.out.read_line(&mut line).map_err(|e| e.to_string())?;
            if n == 0 {
                return Err(format!("child exited before its {tag:?} line"));
            }
            let mut fields = line.split_whitespace();
            if fields.next() == Some(tag) {
                return Ok(fields.map(str::to_string).collect());
            }
        }
    }

    fn ready(&mut self) -> Result<Ready, String> {
        let f = self.line("ready")?;
        let num = |i: usize| -> Result<f64, String> {
            f.get(i)
                .and_then(|v| v.parse().ok())
                .ok_or_else(|| format!("malformed ready line {f:?}"))
        };
        Ok(Ready {
            port: num(0)? as u16,
            setup_ns: num(1)?,
            step1_ns: num(2)?,
            step2_ns: num(3)?,
        })
    }

    /// Closes the child's stdin, reads its report, and waits for it.
    fn finish(mut self) -> Result<BTreeMap<String, f64>, String> {
        drop(self.proc.stdin.take());
        let fields = self.line("report")?;
        let status = self.proc.wait().map_err(|e| e.to_string())?;
        if !status.success() {
            return Err(format!("child exited with {status}"));
        }
        Ok(fields
            .iter()
            .filter_map(|kv| {
                let (k, v) = kv.split_once('=')?;
                Some((k.to_string(), v.parse().ok()?))
            })
            .collect())
    }
}

impl Drop for Child {
    fn drop(&mut self) {
        if let Ok(None) = self.proc.try_wait() {
            let _ = self.proc.kill();
        }
        let _ = self.proc.wait();
    }
}

/// Removes the run's work directory however the run ends.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Reads one part of a traced request's latency split.
type Part = fn(&load::Split) -> f64;

/// Metric name → (value, unit), in output order.
type Metrics = Vec<(String, f64, &'static str)>;

struct Outcome {
    attempted: u64,
    failed: u64,
    wrong: u64,
    metrics: Metrics,
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("serve-child") => program::serve_child(&args[1..]).map(|()| true),
        Some("offline-child") => program::offline_child(&args[1..]).map(|()| true),
        _ => run(&args),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

/// Runs one benchmark invocation; `Ok(false)` when an answer was wrong.
fn run(args: &[String]) -> Result<bool, String> {
    let a = parse_args(args)?;
    let work = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join(".work")
        .join(format!(
            "{}-{}-{}",
            a.workload.name(),
            a.seed,
            std::process::id()
        ));
    let _cleanup = WorkDir(work.clone());
    let inputs = workload::prepare(a.workload, a.seed, &work)?;
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "{{\"workload\":\"{}\",\"seed\":{},\"scale\":\"paper\",\"nodes\":{},\"edges\":{},\
         \"nproc\":{nproc},\"engine_threads\":{},\"cache_budget_bytes\":{},\
         \"working_set_bytes\":{},\"seconds\":{},\"trace\":{}}}",
        a.workload.name(),
        a.seed,
        inputs.hin.total_nodes(),
        inputs.hin.total_edges(),
        hetesim_core::default_threads(),
        inputs.cache_budget,
        inputs.working_set,
        a.seconds,
        a.trace as u8,
    );
    let outcome = match a.workload {
        Workload::OfflineBatch => run_offline(&a, &inputs)?,
        _ => run_serve(&a, &inputs)?,
    };
    let correct = outcome.wrong == 0;
    let mut line = format!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{",
        outcome.attempted.max(1),
        outcome.failed
    );
    for (i, (name, value, unit)) in outcome.metrics.iter().enumerate() {
        let value = if value.is_finite() { *value } else { 0.0 };
        if i > 0 {
            line.push(',');
        }
        line.push_str(&format!(
            "\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"
        ));
    }
    line.push_str("}}");
    println!("{line}");
    Ok(correct)
}

fn child_args(a: &Args, inputs: &Inputs, seconds: f64, timed: bool) -> Vec<String> {
    vec![
        "--dir".into(),
        inputs.dir.display().to_string(),
        "--budget".into(),
        inputs.cache_budget.to_string(),
        "--seed".into(),
        a.seed.to_string(),
        "--seconds".into(),
        seconds.to_string(),
        "--timed".into(),
        (timed as u8).to_string(),
    ]
}

/// Times `count` fresh processes that start and exit.
fn cold_starts(
    mode: &str,
    args: &[String],
    count: usize,
    starts: &mut Vec<Ready>,
) -> Result<(), String> {
    let mut once = args.to_vec();
    once.push("--once".into());
    for _ in 0..count {
        let mut child = Child::spawn(mode, &once)?;
        starts.push(child.ready()?);
        child.finish()?;
    }
    Ok(())
}

fn setup_metrics(starts: &[Ready]) -> (f64, f64, f64) {
    let pick = |f: fn(&Ready) -> f64| median(&starts.iter().map(f).collect::<Vec<_>>());
    (
        pick(|r| r.setup_ns) / 1e9,
        pick(|r| r.step1_ns) / 1e6,
        pick(|r| r.step2_ns) / 1e6,
    )
}

/// One served phase: a fresh server process, a load loop, its report.
struct ServePhase {
    samples: Vec<load::Sample>,
    window: Duration,
    report: BTreeMap<String, f64>,
}

fn serve_phase(
    a: &Args,
    inputs: &Inputs,
    seconds: f64,
    traced: bool,
    starts: &mut Vec<Ready>,
) -> Result<ServePhase, String> {
    let mut child = Child::spawn("serve-child", &child_args(a, inputs, seconds, traced))?;
    let ready = child.ready()?;
    let addr = SocketAddr::from(([127, 0, 0, 1], ready.port));
    starts.push(ready);
    let specs = a.workload.paths();
    let mut mix = Mix::new(a.workload, &inputs.hin, a.seed);
    let measure = Duration::from_secs_f64(seconds);
    let (samples, window) = match a.workload {
        Workload::ServeHot => load::closed_loop(addr, specs, &mut mix, WARMUP, measure, traced),
        _ => {
            let plan = load::schedule(
                &mut mix,
                a.seed,
                CHURN_RATE,
                (WARMUP + measure).as_secs_f64(),
            );
            let samples = load::open_loop(addr, specs, &plan, CHURN_SENDERS, traced);
            (samples, measure)
        }
    };
    let report = child.finish()?;
    Ok(ServePhase {
        samples,
        window,
        report,
    })
}

/// Served-request accounting for one phase.
#[derive(Default)]
struct Served {
    attempted: u64,
    failed: u64,
    wrong: u64,
    shed: u64,
    timeouts: u64,
    late: u64,
    latencies_ms: Vec<f64>,
    /// Timed latencies by p99 window.
    windows_ms: Vec<Vec<f64>>,
    late_ms: Vec<f64>,
    throughput: f64,
}

impl Served {
    fn p50(&self) -> f64 {
        quantile(&self.latencies_ms, 0.5)
    }

    /// Median over windows of each window's p99.
    fn p99(&self) -> f64 {
        let p99s: Vec<f64> = self
            .windows_ms
            .iter()
            .filter(|w| !w.is_empty())
            .map(|w| quantile(w, 0.99))
            .collect();
        median(&p99s)
    }
}

fn account(phase: &ServePhase, measure: Duration, reference: &mut check::Reference) -> Served {
    let windows = (measure.as_secs_f64() / P99_WINDOW.as_secs_f64())
        .floor()
        .max(1.0) as usize;
    let mut s = Served {
        attempted: phase.samples.len() as u64,
        windows_ms: vec![Vec::new(); windows],
        ..Served::default()
    };
    for x in &phase.samples {
        let late_ms = x.late_ns / 1e6;
        let ok = x.status == 200 && reference.matches(&x.req, &x.body);
        match x.status {
            200 if !ok => {
                s.wrong += 1;
                eprintln!("wrong answer for {:?}: {}", x.req, x.body);
            }
            503 => s.shed += 1,
            504 => s.timeouts += 1,
            _ => {}
        }
        if late_ms > load::LATE_LIMIT_MS {
            s.late += 1;
        }
        if !ok || late_ms > load::LATE_LIMIT_MS {
            s.failed += 1;
        } else if x.at >= WARMUP {
            let window = ((x.at - WARMUP).as_secs_f64() / P99_WINDOW.as_secs_f64()) as usize;
            s.windows_ms[window.min(windows - 1)].push(x.latency_ns / 1e6);
            s.latencies_ms.push(x.latency_ns / 1e6);
        }
        if x.at >= WARMUP {
            s.late_ms.push(late_ms);
        }
    }
    s.throughput = s.latencies_ms.len() as f64 / phase.window.as_secs_f64().max(1e-9);
    if s.latencies_ms.len() < 1000 {
        eprintln!(
            "warning: only {} successful timed requests (want >= 1000); raise --seconds",
            s.latencies_ms.len()
        );
    }
    if s.late > 0 {
        eprintln!(
            "warning: the generator fell behind its schedule: {} requests sent more than \
             {} ms late (counted as failed)",
            s.late,
            load::LATE_LIMIT_MS
        );
    }
    s
}

fn run_serve(a: &Args, inputs: &Inputs) -> Result<Outcome, String> {
    let once_args = child_args(a, inputs, a.seconds, false);
    let mut starts = Vec::new();
    cold_starts("serve-child", &once_args, COLD_STARTS / 2, &mut starts)?;
    let phase_seconds = if a.trace { a.seconds / 2.0 } else { a.seconds };
    let measure = Duration::from_secs_f64(phase_seconds);
    let plain = serve_phase(a, inputs, phase_seconds, false, &mut starts)?;
    // Traced phase: same seed and traffic, timing wrapper in the server.
    let traced = match a.trace {
        true => Some(serve_phase(a, inputs, phase_seconds, true, &mut starts)?),
        false => None,
    };
    cold_starts("serve-child", &once_args, COLD_STARTS / 2, &mut starts)?;
    let mut reference = check::Reference::new(&inputs.hin, a.workload.paths());
    let served = account(&plain, measure, &mut reference);
    let p50 = served.p50();
    let Some(traced) = traced else {
        let (setup_s, _, _) = setup_metrics(&starts);
        return Ok(Outcome {
            attempted: served.attempted,
            failed: served.failed,
            wrong: served.wrong,
            metrics: vec![
                ("setup_s".into(), setup_s, "s"),
                ("latency_p50_ms".into(), p50, "ms"),
                ("latency_p99_ms".into(), served.p99(), "ms"),
                ("throughput_rps".into(), served.throughput, "1/s"),
                ("job_s".into(), 1000.0 / served.throughput, "s"),
                (
                    "peak_rss_mb".into(),
                    plain.report.get("rss_kb").copied().unwrap_or(0.0) / 1024.0,
                    "MB",
                ),
            ],
        });
    };
    let t = account(&traced, measure, &mut reference);
    let splits: Vec<load::Split> = traced
        .samples
        .iter()
        .filter(|x| x.at >= WARMUP && x.status == 200)
        .filter_map(|x| x.split)
        .collect();
    let mut wrong = served.wrong + t.wrong;
    if splits.len() < t.latencies_ms.len() {
        eprintln!("traced responses are missing their timing header");
        wrong += 1;
    }
    let parts_sum: f64 = splits
        .iter()
        .map(|s| s.connect + s.inbound + s.handler + s.outbound)
        .sum();
    let total: f64 = splits.iter().map(|s| s.total).sum();
    let sum_err_pct = 100.0 * (parts_sum - total).abs() / total.max(1.0);
    if sum_err_pct > LAYER_SUM_TOLERANCE_PCT {
        eprintln!(
            "layer split sums to {parts_sum} ns against {total} ns of client latency \
             ({sum_err_pct:.2}% > {LAYER_SUM_TOLERANCE_PCT}%)"
        );
        wrong += 1;
    }
    let (_, read_ms, install_ms) = setup_metrics(&starts);
    let mut m = serve_layer_metrics(&splits, &t);
    m.push(("trace.overhead_ms".into(), t.p50() - p50, "ms"));
    m.push(("trace.layer_sum_err_pct".into(), sum_err_pct, "%"));
    cache_metrics(&mut m, &traced.report);
    offline_layer_metrics(&mut m, &BTreeMap::new());
    m.push(("core.snapshot.read_ms".into(), read_ms, "ms"));
    m.push(("core.snapshot.install_ms".into(), install_ms, "ms"));
    m.push(("graph.load_ms".into(), 0.0, "ms"));
    Ok(Outcome {
        attempted: served.attempted + t.attempted,
        failed: served.failed + t.failed,
        wrong,
        metrics: m,
    })
}

/// Serve-layer split and validity counts (zeros when nothing was served).
fn serve_layer_metrics(splits: &[load::Split], t: &Served) -> Metrics {
    let mut m = Metrics::new();
    let layers: [(&str, Part); 4] = [
        ("connect", |s| s.connect),
        ("inbound", |s| s.inbound),
        ("handler", |s| s.handler),
        ("outbound", |s| s.outbound),
    ];
    for (name, part) in layers {
        let us: Vec<f64> = splits.iter().map(part).collect();
        m.push((
            format!("serve.{name}_us.p50"),
            quantile(&us, 0.5) / 1e3,
            "us",
        ));
        m.push((
            format!("serve.{name}_us.p99"),
            quantile(&us, 0.99) / 1e3,
            "us",
        ));
    }
    m.push(("serve.shed".into(), t.shed as f64, "count"));
    m.push(("serve.timeouts".into(), t.timeouts as f64, "count"));
    m.push(("serve.failed".into(), t.failed as f64, "count"));
    m.push(("gen.late_p99_ms".into(), quantile(&t.late_ms, 0.99), "ms"));
    m
}

fn cache_metrics(m: &mut Metrics, report: &BTreeMap<String, f64>) {
    let get = |k: &str| report.get(k).copied().unwrap_or(0.0);
    let lookups = get("hits") + get("misses");
    m.push((
        "core.cache.hit_ratio".into(),
        if lookups > 0.0 {
            get("hits") / lookups
        } else {
            0.0
        },
        "ratio",
    ));
    m.push(("core.cache.lookups".into(), lookups, "count"));
    m.push(("core.cache.evictions".into(), get("evictions"), "count"));
    m.push((
        "core.cache.resident_mb".into(),
        get("resident_bytes") / (1024.0 * 1024.0),
        "MB",
    ));
}

/// Engine, sparse and topk layers of the offline job, from the child's
/// report (zeros on the serve workloads, which do not run the job).
fn offline_layer_metrics(m: &mut Metrics, report: &BTreeMap<String, f64>) {
    let get = |k: &str| report.get(k).copied().unwrap_or(0.0);
    for route in ["pruned", "scan"] {
        for q in ["p50", "p99"] {
            m.push((
                format!("core.topk_us.{route}.{q}"),
                get(&format!("topk_{route}_{q}_us")),
                "us",
            ));
        }
    }
    for spec in OFFLINE_PATHS {
        m.push((
            format!("core.warm_ms.{spec}"),
            get(&format!("warm_ms.{spec}")),
            "ms",
        ));
    }
    for spec in matrix_paths() {
        m.push((
            format!("core.matrix_ms.{spec}"),
            get(&format!("matrix_ms.{spec}")),
            "ms",
        ));
        m.push((
            format!("sparse.spgemm_ms.{spec}"),
            get(&format!("spgemm_ms.{spec}")),
            "ms",
        ));
        m.push((
            format!("sparse.flops.{spec}"),
            get(&format!("flops.{spec}")),
            "count",
        ));
        m.push((
            format!("sparse.out_nnz.{spec}"),
            get(&format!("out_nnz.{spec}")),
            "count",
        ));
    }
}

fn matrix_paths() -> impl Iterator<Item = &'static str> {
    OFFLINE_PATHS.into_iter().filter(|s| !NO_MATRIX.contains(s))
}

/// Combines the reports of the offline job processes: counts add up, peak
/// memory is the largest, and every timing is the median across processes.
fn combine(reports: &[BTreeMap<String, f64>]) -> BTreeMap<String, f64> {
    let keys: BTreeSet<&String> = reports.iter().flat_map(|r| r.keys()).collect();
    keys.into_iter()
        .map(|k| {
            let values: Vec<f64> = reports.iter().filter_map(|r| r.get(k).copied()).collect();
            let v = match k.as_str() {
                "jobs" | "attempted" | "failed" | "wrong" => values.iter().sum(),
                "rss_kb" => values.iter().copied().fold(0.0, f64::max),
                _ => median(&values),
            };
            (k.clone(), v)
        })
        .collect()
}

fn run_offline(a: &Args, inputs: &Inputs) -> Result<Outcome, String> {
    let once_args = child_args(a, inputs, a.seconds, a.trace);
    let job_args = child_args(a, inputs, a.seconds / JOB_PROCESSES as f64, a.trace);
    let mut starts = Vec::new();
    cold_starts("offline-child", &once_args, COLD_STARTS / 2, &mut starts)?;
    let mut reports = Vec::new();
    for _ in 0..JOB_PROCESSES {
        let mut child = Child::spawn("offline-child", &job_args)?;
        starts.push(child.ready()?);
        reports.push(child.finish()?);
    }
    cold_starts("offline-child", &once_args, COLD_STARTS / 2, &mut starts)?;
    let report = combine(&reports);
    let get = |k: &str| report.get(k).copied().unwrap_or(0.0);
    let (setup_s, load_ms, _) = setup_metrics(&starts);
    let path_ms: Vec<f64> = OFFLINE_PATHS
        .iter()
        .map(|spec| get(&format!("path_ms.{spec}")))
        .collect();
    let metrics = if a.trace {
        let mut m = serve_layer_metrics(&[], &Served::default());
        m.push(("trace.overhead_ms".into(), get("overhead_ms"), "ms"));
        m.push(("trace.layer_sum_err_pct".into(), 0.0, "%"));
        cache_metrics(&mut m, &BTreeMap::new());
        offline_layer_metrics(&mut m, &report);
        m.push(("core.snapshot.read_ms".into(), 0.0, "ms"));
        m.push(("core.snapshot.install_ms".into(), 0.0, "ms"));
        m.push(("graph.load_ms".into(), load_ms, "ms"));
        m
    } else {
        vec![
            ("setup_s".into(), setup_s, "s"),
            ("latency_p50_ms".into(), median(&path_ms), "ms"),
            ("latency_p99_ms".into(), quantile(&path_ms, 0.99), "ms"),
            (
                "throughput_rps".into(),
                get("queries") / get("job_s"),
                "1/s",
            ),
            ("job_s".into(), get("job_s"), "s"),
            ("peak_rss_mb".into(), get("rss_kb") / 1024.0, "MB"),
        ]
    };
    Ok(Outcome {
        attempted: get("attempted") as u64,
        failed: get("failed") as u64,
        wrong: get("wrong") as u64,
        metrics,
    })
}
