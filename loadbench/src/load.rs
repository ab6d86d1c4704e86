//! The load generator: a raw HTTP client that timestamps each exchange,
//! driven as a closed loop (serve-hot) or an open loop (serve-churn).

use crate::program::{unix_ns, TIMING_HEADER};
use crate::rng::Rng;
use crate::workload::{Mix, Req};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// A request sent more than this long after it was due means the open-loop
/// generator fell behind its schedule; it counts as failed.
pub const LATE_LIMIT_MS: f64 = 100.0;

/// Where one request's client latency went, in nanoseconds. Inbound and
/// outbound cross the process boundary and are computed on the shared
/// wall clock; connect, handler and total each come from one monotonic
/// clock.
#[derive(Debug, Clone, Copy)]
pub struct Split {
    /// TCP connect, as the client sees it.
    pub connect: f64,
    /// Connect done to handler entry: accept poll, queue wait, request read.
    pub inbound: f64,
    /// Inside the application's handler.
    pub handler: f64,
    /// Handler return to the client's last byte: write, close, read.
    pub outbound: f64,
    /// Connect start to last byte.
    pub total: f64,
}

pub struct Sample {
    pub req: Req,
    /// HTTP status, or 0 on an I/O error.
    pub status: u16,
    pub body: String,
    /// When the request was sent (closed loop) or due (open loop), from
    /// the start of the loop.
    pub at: Duration,
    /// From connect start (closed loop) or due time (open loop) to the
    /// last response byte.
    pub latency_ns: f64,
    /// How late the request was sent (open loop).
    pub late_ns: f64,
    pub split: Option<Split>,
}

struct Exchange {
    status: u16,
    body: String,
    split: Option<Split>,
}

fn exchange(addr: SocketAddr, raw: &[u8], traced: bool) -> std::io::Result<Exchange> {
    let t0 = Instant::now();
    let mut stream = TcpStream::connect(addr)?;
    let t1 = Instant::now();
    let w1 = if traced { unix_ns() } else { 0 };
    stream.set_read_timeout(Some(Duration::from_secs(30)))?;
    stream.write_all(raw)?;
    let mut buf = Vec::with_capacity(2048);
    stream.read_to_end(&mut buf)?;
    let t2 = Instant::now();
    let w2 = if traced { unix_ns() } else { 0 };
    let bad = || std::io::Error::new(std::io::ErrorKind::InvalidData, "malformed response");
    let text = String::from_utf8(buf).map_err(|_| bad())?;
    let (head, body) = text.split_once("\r\n\r\n").ok_or_else(bad)?;
    let mut lines = head.split("\r\n");
    let status = lines
        .next()
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|s| s.parse().ok())
        .ok_or_else(bad)?;
    let mut split = None;
    if traced {
        let timing = lines.find_map(|l| {
            let (k, v) = l.split_once(':')?;
            k.trim()
                .eq_ignore_ascii_case(TIMING_HEADER)
                .then(|| v.trim())
        });
        if let Some((entered, handler_ns)) = timing.and_then(|t| t.split_once(' ')) {
            let entered: u64 = entered.parse().map_err(|_| bad())?;
            let handler: f64 = handler_ns.parse().map_err(|_| bad())?;
            split = Some(Split {
                connect: (t1 - t0).as_nanos() as f64,
                inbound: entered as f64 - w1 as f64,
                handler,
                outbound: w2 as f64 - (entered as f64 + handler),
                total: (t2 - t0).as_nanos() as f64,
            });
        }
    }
    Ok(Exchange {
        status,
        body: body.to_string(),
        split,
    })
}

fn sample(
    req: Req,
    result: std::io::Result<Exchange>,
    at: Duration,
    latency_ns: f64,
    late_ns: f64,
) -> Sample {
    match result {
        Ok(x) => Sample {
            req,
            status: x.status,
            body: x.body,
            at,
            latency_ns,
            late_ns,
            split: x.split,
        },
        Err(e) => {
            eprintln!("request failed: {e}");
            Sample {
                req,
                status: 0,
                body: String::new(),
                at,
                latency_ns,
                late_ns,
                split: None,
            }
        }
    }
}

/// One connection, one request at a time, for `warmup` then `measure`.
/// Returns the samples and the wall time of the measured window.
pub fn closed_loop(
    addr: SocketAddr,
    specs: &[&str],
    mix: &mut Mix,
    warmup: Duration,
    measure: Duration,
    traced: bool,
) -> (Vec<Sample>, Duration) {
    let start = Instant::now();
    let mut samples = Vec::new();
    let mut window_start = None;
    let mut last_end = start;
    while start.elapsed() < warmup + measure {
        let req = mix.next();
        let raw = req.http(specs);
        let t = Instant::now();
        if t - start >= warmup && window_start.is_none() {
            window_start = Some(t);
        }
        let result = exchange(addr, &raw, traced);
        last_end = Instant::now();
        samples.push(sample(
            req,
            result,
            t - start,
            (last_end - t).as_nanos() as f64,
            0.0,
        ));
    }
    let window = last_end - window_start.unwrap_or(last_end);
    (samples, window)
}

/// Poisson arrivals at `rate` per second over `seconds`: (due offset, request).
pub fn schedule(mix: &mut Mix, seed: u64, rate: f64, seconds: f64) -> Vec<(Duration, Req)> {
    let mut rng = Rng::new(seed ^ 0xa771);
    let mut t = 0.0;
    let mut out = Vec::new();
    loop {
        t += rng.exp(1.0 / rate);
        if t >= seconds {
            return out;
        }
        out.push((Duration::from_secs_f64(t), mix.next()));
    }
}

/// Sends each scheduled request at its due time from `senders` threads,
/// each holding at most one connection. Latency runs from the due time,
/// so a stall is charged to every request queued behind it.
pub fn open_loop(
    addr: SocketAddr,
    specs: &[&str],
    plan: &[(Duration, Req)],
    senders: usize,
    traced: bool,
) -> Vec<Sample> {
    let next = AtomicUsize::new(0);
    let done = Mutex::new(Vec::with_capacity(plan.len()));
    let start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..senders {
            scope.spawn(|| {
                let mut mine = Vec::new();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(&(offset, req)) = plan.get(i) else {
                        break;
                    };
                    let due = start + offset;
                    let now = Instant::now();
                    if due > now {
                        std::thread::sleep(due - now);
                    }
                    let sent = Instant::now();
                    let result = exchange(addr, &req.http(specs), traced);
                    let end = Instant::now();
                    let latency = (end - due).as_nanos() as f64;
                    let late = sent.saturating_duration_since(due).as_nanos() as f64;
                    mine.push((i, sample(req, result, offset, latency, late)));
                }
                done.lock().expect("sender panicked").extend(mine);
            });
        }
    });
    let mut all = done.into_inner().expect("sender panicked");
    all.sort_by_key(|(i, _)| *i);
    all.into_iter().map(|(_, s)| s).collect()
}
