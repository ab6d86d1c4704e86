//! The program under test, run as a child process of the benchmark so its
//! cold start and peak memory are its own: input generation and the
//! reference engine stay in the parent.
//!
//! Protocol on stdout, one line each:
//! `ready <port> <setup_ns> <step1_ns> <step2_ns>` once the program can
//! answer, then (after stdin closes, or at once with `--once`)
//! `report key=value ...`.

use crate::stats::{median, peak_rss_kb, quantile};
use crate::workload::{parse_paths, snapshot_file, tsv_dir, NO_MATRIX, OFFLINE_PATHS, TOP_K};
use hetesim_core::{snapshot, HeteSimEngine, Ranked};
use hetesim_graph::{io, Hin, MetaPath};
use hetesim_serve::{App, Handler, Request, Response, ServeConfig, Server};
use hetesim_sparse::CsrMatrix;
use std::collections::BTreeMap;
use std::io::{BufRead, Write};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Response header carrying `<handler entry, unix ns> <handler ns>` in
/// timed mode.
pub const TIMING_HEADER: &str = "x-loadbench-handler";

/// Right-half nnz at which `top_k` leaves the pruned route for the
/// threaded full scan (mirrors the engine's own threshold).
const SCAN_MIN_RIGHT_NNZ: usize = 1 << 16;

/// Wall-clock nanoseconds since the Unix epoch: the one clock the client
/// and the server process share.
pub fn unix_ns() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0)
}

/// Options shared by both child modes.
struct ChildArgs {
    dir: PathBuf,
    budget: u64,
    seed: u64,
    seconds: f64,
    timed: bool,
    once: bool,
}

fn child_args(args: &[String]) -> Result<ChildArgs, String> {
    let mut parsed = ChildArgs {
        dir: PathBuf::new(),
        budget: 0,
        seed: 0,
        seconds: 1.0,
        timed: false,
        once: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--once" {
            parsed.once = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--dir" => parsed.dir = PathBuf::from(value),
            "--budget" => parsed.budget = value.parse().map_err(|_| bad())?,
            "--seed" => parsed.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => parsed.seconds = value.parse().map_err(|_| bad())?,
            "--timed" => parsed.timed = value == "1",
            other => return Err(format!("unknown child flag {other:?}")),
        }
    }
    Ok(parsed)
}

fn say(line: &str) {
    let mut out = std::io::stdout().lock();
    let _ = writeln!(out, "{line}");
    let _ = out.flush();
}

fn report(values: &BTreeMap<String, f64>) {
    let mut line = String::from("report");
    for (k, v) in values {
        line.push_str(&format!(" {k}={v}"));
    }
    say(&line);
}

/// Wraps the application and stamps each response with when the handler
/// was entered and how long it ran, so the client can split its latency.
struct Timed<'a, H>(&'a H);

impl<H: Handler> Handler for Timed<'_, H> {
    fn handle(&self, req: &Request) -> Response {
        let entered = unix_ns();
        let t = Instant::now();
        let resp = self.0.handle(req);
        let ns = t.elapsed().as_nanos() as u64;
        resp.with_header(TIMING_HEADER, &format!("{entered} {ns}"))
    }
}

/// `serve-child`: cold start from the snapshot (read, install into a fresh
/// engine, bind), then serve until stdin closes.
pub fn serve_child(args: &[String]) -> Result<(), String> {
    let a = child_args(args)?;
    let t0 = Instant::now();
    let snapshot::Snapshot { hin, warm, .. } =
        snapshot::read_snapshot(&snapshot_file(&a.dir)).map_err(|e| e.to_string())?;
    let t1 = Instant::now();
    let engine = HeteSimEngine::new(&hin).with_cache_budget(a.budget);
    snapshot::install_warm_paths(&engine, warm).map_err(|e| e.to_string())?;
    let t2 = Instant::now();
    // `GET /metrics` reads the registry, so the real server records
    // metrics for its whole lifetime.
    hetesim_obs::enable();
    let server = Server::bind(&ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        ..ServeConfig::default()
    })
    .map_err(|e| format!("bind: {e}"))?;
    let t3 = Instant::now();
    let ns = |d: Duration| d.as_nanos();
    say(&format!(
        "ready {} {} {} {}",
        server.local_addr().port(),
        ns(t3 - t0),
        ns(t1 - t0),
        ns(t2 - t1)
    ));
    let app = App::new(&hin, engine).with_workers(server.workers());
    if !a.once {
        let handle = server.handle();
        std::thread::scope(|scope| {
            let serving = scope.spawn(|| {
                if a.timed {
                    server.run(&Timed(&app))
                } else {
                    server.run(&app)
                }
            });
            // Serve until the benchmark closes our stdin.
            for line in std::io::stdin().lock().lines() {
                if line.is_err() {
                    break;
                }
            }
            handle.shutdown();
            serving
                .join()
                .map_err(|_| "server thread panicked".to_string())?
                .map_err(|e| format!("server: {e}"))
        })?;
    }
    let stats = app.engine().cache_stats();
    let evictions = hetesim_obs::snapshot()
        .counters
        .iter()
        .find(|c| c.name == "core.cache.evictions")
        .map_or(0, |c| c.value);
    let mut values = BTreeMap::new();
    values.insert("rss_kb".to_string(), peak_rss_kb() as f64);
    values.insert("hits".to_string(), stats.hits as f64);
    values.insert("misses".to_string(), stats.misses as f64);
    values.insert("resident_bytes".to_string(), stats.bytes as f64);
    values.insert("evictions".to_string(), evictions as f64);
    report(&values);
    Ok(())
}

/// One path of the offline job.
struct PathWork {
    spec: &'static str,
    path: MetaPath,
    matrix: bool,
    sources: Vec<u32>,
}

/// What one job produced, kept only long enough to digest and check.
struct JobOutput {
    matrices: Vec<Option<CsrMatrix>>,
    ranked: Vec<Vec<Vec<Ranked>>>,
    /// Wall time of each path's share of the job.
    path_ns: Vec<u64>,
}

/// Per-call layer timings of traced jobs.
#[derive(Default)]
struct LayerTimes {
    warm_ns: BTreeMap<&'static str, Vec<f64>>,
    matrix_ns: BTreeMap<&'static str, Vec<f64>>,
    topk_pruned_ns: Vec<f64>,
    topk_scan_ns: Vec<f64>,
}

/// The offline job: on a fresh engine, for each path build the cold
/// halves, compute the normalized relevance matrix, and rank the top 10
/// for every sampled source. `layers` adds per-call timing.
fn run_job(hin: &Hin, work: &[PathWork], mut layers: Option<&mut LayerTimes>) -> JobOutput {
    let engine = HeteSimEngine::new(hin);
    let threads = hetesim_core::default_threads();
    let mut out = JobOutput {
        matrices: Vec::with_capacity(work.len()),
        ranked: Vec::with_capacity(work.len()),
        path_ns: Vec::with_capacity(work.len()),
    };
    for w in work {
        let start = Instant::now();
        engine.warm(&w.path).expect("warm");
        let warmed = Instant::now();
        let matrix = w.matrix.then(|| engine.matrix(&w.path).expect("matrix"));
        let matrixed = Instant::now();
        let scan = layers.is_some()
            && threads > 1
            && engine
                .materialized_halves(&w.path)
                .expect("halves")
                .right
                .nnz()
                >= SCAN_MIN_RIGHT_NNZ;
        let mut ranked = Vec::with_capacity(w.sources.len());
        for &s in &w.sources {
            let t = Instant::now();
            let r = engine.top_k(&w.path, s, TOP_K).expect("top_k");
            if let Some(l) = layers.as_deref_mut() {
                let ns = t.elapsed().as_nanos() as f64;
                if scan {
                    l.topk_scan_ns.push(ns);
                } else {
                    l.topk_pruned_ns.push(ns);
                }
            }
            ranked.push(r);
        }
        let done = Instant::now();
        if let Some(l) = layers.as_deref_mut() {
            let ns = |d: Duration| d.as_nanos() as f64;
            l.warm_ns
                .entry(w.spec)
                .or_default()
                .push(ns(warmed - start));
            if w.matrix {
                l.matrix_ns
                    .entry(w.spec)
                    .or_default()
                    .push(ns(matrixed - warmed));
            }
        }
        out.path_ns.push((done - start).as_nanos() as u64);
        out.matrices.push(matrix);
        out.ranked.push(ranked);
    }
    out
}

/// FNV-1a over every output bit, so repeated jobs can be compared.
fn digest(out: &JobOutput) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |x: u64| {
        h ^= x;
        h = h.wrapping_mul(0x0100_0000_01b3);
    };
    for m in out.matrices.iter().flatten() {
        eat(m.nnz() as u64);
        for (&i, &v) in m.indices().iter().zip(m.values()) {
            eat(i as u64);
            eat(v.to_bits());
        }
    }
    for per_path in &out.ranked {
        for list in per_path {
            for r in list {
                eat(r.index as u64);
                eat(r.score.to_bits());
            }
        }
    }
    h
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-12 * a.abs().max(b.abs()).max(1.0)
}

/// Checks one job's output against other engine routes: each checked
/// top-10 list against the ranking of the source's `single_source` row,
/// and sampled matrix entries (stored and arbitrary) against `pair`.
/// Returns (checks made, checks failed).
fn check_output(hin: &Hin, work: &[PathWork], out: &JobOutput, seed: u64) -> (u64, u64) {
    let reference = HeteSimEngine::new(hin);
    let mut rng = crate::rng::Rng::new(seed ^ 0xc4ec);
    let (mut made, mut failed) = (0u64, 0u64);
    for (wi, w) in work.iter().enumerate() {
        for (si, &s) in w.sources.iter().enumerate().take(16) {
            made += 1;
            let row = reference.single_source(&w.path, s).expect("single_source");
            let mut expected: Vec<(u32, f64)> = row
                .iter()
                .enumerate()
                .filter(|(_, &v)| v > 0.0)
                .map(|(t, &v)| (t as u32, v))
                .collect();
            expected.sort_by(|x, y| y.1.total_cmp(&x.1).then(x.0.cmp(&y.0)));
            expected.truncate(TOP_K);
            let got = &out.ranked[wi][si];
            let ok = got.len() == expected.len()
                && got
                    .iter()
                    .zip(&expected)
                    .all(|(g, e)| close(g.score, e.1) && close(row[g.index as usize], g.score));
            if !ok {
                failed += 1;
                eprintln!(
                    "offline: top-{TOP_K} of {} for source {s} disagrees with single_source",
                    w.spec
                );
            }
        }
        let Some(m) = &out.matrices[wi] else { continue };
        let (rows, cols) = m.shape();
        for i in 0..64 {
            made += 1;
            let (a, b, v) = if i % 2 == 0 && m.nnz() > 0 {
                // A stored entry: its row is where the entry's offset falls.
                let k = rng.below(m.nnz());
                let row = m.indptr().partition_point(|&p| p as usize <= k) - 1;
                (row, m.indices()[k] as usize, m.values()[k])
            } else {
                let (a, b) = (rng.below(rows), rng.below(cols));
                (a, b, m.get(a, b))
            };
            let p = reference.pair(&w.path, a as u32, b as u32).expect("pair");
            if !close(v, p) {
                failed += 1;
                eprintln!("offline: matrix {}[{a},{b}] = {v} but pair = {p}", w.spec);
            }
        }
    }
    (made, failed)
}

/// `offline-child`: cold start from TSV (load, engine), then run jobs for
/// the given seconds; with `--timed 1`, half the time untimed and half
/// with per-call layer timing.
pub fn offline_child(args: &[String]) -> Result<(), String> {
    let a = child_args(args)?;
    let t0 = Instant::now();
    let hin = io::load(&tsv_dir(&a.dir)).map_err(|e| e.to_string())?;
    let t1 = Instant::now();
    let engine = HeteSimEngine::new(&hin);
    let t2 = Instant::now();
    say(&format!(
        "ready 0 {} {} {}",
        (t2 - t0).as_nanos(),
        (t1 - t0).as_nanos(),
        (t2 - t1).as_nanos()
    ));
    drop(engine);
    if a.once {
        report(&BTreeMap::new());
        return Ok(());
    }

    let mut rng = crate::rng::Rng::new(a.seed ^ 0x0ff1);
    let work: Vec<PathWork> = OFFLINE_PATHS
        .iter()
        .zip(parse_paths(&hin, &OFFLINE_PATHS))
        .map(|(&spec, path)| {
            let n = hin.node_count(path.source_type());
            let mut ids: Vec<u32> = (0..n as u32).collect();
            for i in (1..n).rev() {
                ids.swap(i, rng.below(i + 1));
            }
            ids.truncate(256);
            PathWork {
                spec,
                path,
                matrix: !NO_MATRIX.contains(&spec),
                sources: ids,
            }
        })
        .collect();
    let ops_per_job: u64 = work
        .iter()
        .map(|w| 1 + w.matrix as u64 + w.sources.len() as u64)
        .sum();
    let queries_per_job: u64 = work.iter().map(|w| w.sources.len() as u64).sum();

    // The first job is the warm-up; its output is kept for the checks and
    // every later job must reproduce it bit for bit.
    let first = run_job(&hin, &work, None);
    let reference_digest = digest(&first);
    let rss_after_first = peak_rss_kb();
    let (mut jobs, mut mismatched) = (1u64, 0u64);

    // Repeats the job for `seconds`. The job is fixed work, and on a
    // shared host interference only ever adds time, so each phase keeps
    // its fastest job and, per path, that path's fastest share.
    let mut run_phase = |seconds: f64, layers: Option<&mut LayerTimes>| {
        let mut fastest_job = f64::INFINITY;
        let mut fastest_path = vec![f64::INFINITY; work.len()];
        let mut layers = layers;
        let phase = Instant::now();
        let mut runs = 0;
        while runs < 3 || phase.elapsed().as_secs_f64() < seconds {
            let t = Instant::now();
            let out = run_job(&hin, &work, layers.as_deref_mut());
            fastest_job = fastest_job.min(t.elapsed().as_nanos() as f64);
            for (f, &ns) in fastest_path.iter_mut().zip(&out.path_ns) {
                *f = f.min(ns as f64);
            }
            runs += 1;
            jobs += 1;
            if digest(&out) != reference_digest {
                mismatched += 1;
            }
        }
        (fastest_job, fastest_path)
    };
    let mut values = BTreeMap::new();
    let mut layers = LayerTimes::default();
    let untimed_seconds = if a.timed { a.seconds / 2.0 } else { a.seconds };
    let (job_ns, path_ns) = run_phase(untimed_seconds, None);
    let job_s = job_ns / 1e9;
    if a.timed {
        let (timed_job_ns, _) = run_phase(a.seconds / 2.0, Some(&mut layers));
        values.insert("overhead_ms".to_string(), (timed_job_ns - job_ns) / 1e6);
    }
    let rss_kb = peak_rss_kb().max(rss_after_first);

    let (checks, check_failed) = check_output(&hin, &work, &first, a.seed);
    values.insert("rss_kb".to_string(), rss_kb as f64);
    values.insert("job_s".to_string(), job_s);
    for (w, ns) in work.iter().zip(&path_ns) {
        values.insert(format!("path_ms.{}", w.spec), ns / 1e6);
    }
    values.insert("queries".to_string(), queries_per_job as f64);
    values.insert("jobs".to_string(), jobs as f64);
    values.insert(
        "attempted".to_string(),
        (jobs * ops_per_job + checks) as f64,
    );
    values.insert(
        "failed".to_string(),
        (mismatched * ops_per_job + check_failed) as f64,
    );
    values.insert("wrong".to_string(), (mismatched + check_failed) as f64);
    if a.timed {
        let us = |v: &[f64], q: f64| quantile(v, q) / 1e3;
        values.insert("topk_pruned_p50_us".into(), us(&layers.topk_pruned_ns, 0.5));
        values.insert(
            "topk_pruned_p99_us".into(),
            us(&layers.topk_pruned_ns, 0.99),
        );
        values.insert("topk_scan_p50_us".into(), us(&layers.topk_scan_ns, 0.5));
        values.insert("topk_scan_p99_us".into(), us(&layers.topk_scan_ns, 0.99));
        for (spec, ns) in &layers.warm_ns {
            values.insert(format!("warm_ms.{spec}"), median(ns) / 1e6);
        }
        for (spec, ns) in &layers.matrix_ns {
            values.insert(format!("matrix_ms.{spec}"), median(ns) / 1e6);
        }
        spgemm_layer(&hin, &work, &mut values);
    }
    report(&values);
    Ok(())
}

/// Times the product inside `matrix` on its own: `matmul_parallel` of the
/// left half by the transposed right half, median of five, with its exact
/// multiply-add and output counts.
fn spgemm_layer(hin: &Hin, work: &[PathWork], values: &mut BTreeMap<String, f64>) {
    let engine = HeteSimEngine::new(hin);
    let threads = hetesim_core::default_threads();
    for w in work.iter().filter(|w| w.matrix) {
        let h = engine.materialized_halves(&w.path).expect("halves");
        let flops: u64 = h
            .left
            .indices()
            .iter()
            .map(|&k| h.right_t.row_nnz(k as usize) as u64)
            .sum();
        let mut ns = Vec::new();
        let mut out_nnz = 0;
        for _ in 0..5 {
            let t = Instant::now();
            let product = hetesim_sparse::parallel::matmul_parallel(&h.left, &h.right_t, threads)
                .expect("spgemm");
            ns.push(t.elapsed().as_nanos() as f64);
            out_nnz = std::hint::black_box(product).nnz();
        }
        values.insert(format!("spgemm_ms.{}", w.spec), median(&ns) / 1e6);
        values.insert(format!("flops.{}", w.spec), flops as f64);
        values.insert(format!("out_nnz.{}", w.spec), out_nnz as f64);
    }
}
