//! The serving loop: bounded worker pool, bounded accept queue with load
//! shedding, per-request deadlines, graceful shutdown.
//!
//! The shape mirrors the rest of the workspace's threading conventions
//! (explicit `std::thread` pools, no async runtime): one acceptor thread
//! (the caller of [`Server::run`]) sleeps in a readiness wait (`poll(2)`
//! on Unix) on the listener, accepts each connection as soon as it
//! arrives, and pushes it onto a bounded queue; `workers` threads pop and
//! answer them. The wait times out every few milliseconds so the acceptor
//! notices shutdown. Every admission decision is made *before* any parsing
//! happens, so overload is shed for the cost of one small write:
//!
//! * queue full → `503` + `Retry-After` and the connection is closed
//!   (the `serve.server.shed` counter increments);
//! * per-request wall-clock deadline exceeded — counting queue wait —
//!   → `504` (the `serve.server.timeouts` counter increments). The
//!   deadline is re-checked after the handler runs, so a slow query
//!   returns `504` rather than pretending it met its budget.
//!
//! Shutdown is cooperative: [`ShutdownHandle::shutdown`] (or SIGINT once
//! [`install_ctrl_c`] was called) stops the acceptor, lets the workers
//! drain everything already queued, then joins them.

use crate::http::{read_request, HttpError, Request, Response};
use hetesim_obs::lockcheck::TrackedMutex as Mutex;
use hetesim_obs::{JsonlSink, RingSink, TraceSink};
use std::collections::VecDeque;
use std::io::Read;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, PoisonError};
use std::time::{Duration, Instant};

/// Anything that can answer a parsed request. Implemented by
/// [`crate::app::App`] for the real engine and by closures in tests.
pub trait Handler: Sync {
    /// Produces the response for one request.
    fn handle(&self, req: &Request) -> Response;
}

impl<F> Handler for F
where
    F: Fn(&Request) -> Response + Sync,
{
    fn handle(&self, req: &Request) -> Response {
        self(req)
    }
}

/// Server tuning knobs. `Default` gives a loopback address with bounds
/// sized for local load tests.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Listen address, e.g. `127.0.0.1:7878`; port `0` picks an ephemeral
    /// port (see [`Server::local_addr`]).
    pub addr: String,
    /// Worker threads answering requests; `0` = auto (the
    /// `HETESIM_THREADS` conventions of the rest of the workspace).
    pub workers: usize,
    /// Connections allowed to wait for a worker before new arrivals are
    /// shed with `503`.
    pub queue_depth: usize,
    /// Per-request wall-clock budget in milliseconds, measured from
    /// accept; `0` disables deadlines.
    pub deadline_ms: u64,
    /// Slow-query threshold in milliseconds: requests at least this slow
    /// (accept → response written) are always traced and kept, regardless
    /// of head sampling. `0` disables slow capture.
    pub slow_ms: u64,
    /// Head sampling: trace 1 in `trace_sample` requests (`0` disables
    /// head sampling; slow requests are still traced when `slow_ms` > 0).
    pub trace_sample: u64,
    /// Optional JSONL file receiving every kept trace (size-rotated).
    pub trace_out: Option<String>,
    /// Kept traces in the in-memory ring served by `GET /traces/recent`.
    pub trace_ring: usize,
    /// Byte budget for retained metric history (the three-tier ring
    /// behind `GET /metrics/history`, `/slo`, and `/dashboard`); `0`
    /// disables the sampler and those endpoints answer `404`.
    pub history_budget_bytes: usize,
    /// History sampling period in milliseconds (tests and short-lived
    /// load runs shrink it; `0` falls back to 1000).
    pub history_tick_ms: u64,
    /// Latency-SLO threshold in milliseconds: the latency target fraction
    /// of requests must finish under this.
    pub slo_latency_ms: u64,
    /// Availability-SLO target as a fraction (e.g. `0.999`).
    pub slo_availability: f64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:7878".to_string(),
            workers: 0,
            queue_depth: 64,
            deadline_ms: 0,
            slow_ms: 0,
            trace_sample: 0,
            trace_out: None,
            trace_ring: 128,
            history_budget_bytes: 1 << 20,
            history_tick_ms: 1_000,
            slo_latency_ms: 500,
            slo_availability: 0.999,
        }
    }
}

/// A connection waiting for a worker, stamped with its arrival time so
/// queue wait counts against the deadline.
struct Job {
    stream: TcpStream,
    accepted: Instant,
}

/// State shared by the acceptor, the workers, and shutdown handles.
struct Shared {
    queue: Mutex<VecDeque<Job>>,
    ready: Condvar,
    stop: AtomicBool,
}

/// Cooperatively stops a running server; clonable and cheap to hold from
/// another thread (tests, signal handlers, drain timers).
#[derive(Clone)]
pub struct ShutdownHandle {
    shared: Arc<Shared>,
}

impl ShutdownHandle {
    /// Requests shutdown: the acceptor stops admitting connections, the
    /// workers finish everything already queued, then [`Server::run`]
    /// returns.
    pub fn shutdown(&self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        self.shared.ready.notify_all();
    }
}

/// Process-wide flag flipped by the SIGINT handler.
static CTRL_C: AtomicBool = AtomicBool::new(false);

/// Installs a SIGINT (ctrl-c) handler that gracefully stops every server
/// in the process: in-flight and already-queued requests finish, new
/// connections are refused. Call once from the binary entry point; safe
/// to call multiple times. On non-Unix platforms this is a no-op.
pub fn install_ctrl_c() {
    #[cfg(unix)]
    {
        // SAFETY: the handler body is async-signal-safe — it performs a
        // single atomic store, with no allocation, locking, or I/O.
        unsafe extern "C" fn on_sigint(_sig: i32) {
            // Only async-signal-safe work: set the flag, nothing else.
            CTRL_C.store(true, Ordering::SeqCst);
        }
        extern "C" {
            fn signal(signum: i32, handler: usize) -> usize;
        }
        const SIGINT: i32 = 2;
        // SAFETY: `signal(2)` with a valid signal number and a handler
        // address of matching `extern "C" fn(i32)` ABI; the handler above
        // is async-signal-safe, and re-registering on repeat calls is
        // explicitly allowed by POSIX.
        unsafe {
            signal(SIGINT, on_sigint as unsafe extern "C" fn(i32) as usize);
        }
    }
}

/// A bound listener plus its worker-pool configuration. Construct with
/// [`Server::bind`], then call [`Server::run`] (which blocks until
/// shutdown).
pub struct Server {
    listener: TcpListener,
    local_addr: SocketAddr,
    workers: usize,
    queue_depth: usize,
    deadline: Option<Duration>,
    shared: Arc<Shared>,
    /// Slow threshold in nanoseconds (`0` = off).
    slow_ns: u64,
    /// Head sampling period (`0` = off) and its request counter. Kept
    /// per-server (not the process-global `hetesim_obs` policy) so
    /// servers in one process — tests, embedded uses — don't fight.
    trace_sample: u64,
    trace_counter: AtomicU64,
    /// Newest kept traces, served by `GET /traces/recent`.
    ring: Arc<RingSink>,
    /// Optional rotating JSONL sink receiving every kept trace.
    trace_out: Option<JsonlSink>,
    /// Metric-history sampler plus the SLO spec it is judged against;
    /// `None` when `history_budget_bytes` is 0 (endpoints answer `404`).
    watch: Option<Watch>,
}

/// The server's retained-history machinery: the background sampler and
/// the declared objectives evaluated over it.
struct Watch {
    sampler: hetesim_obs::Sampler,
    slo: hetesim_obs::SloSpec,
}

/// How big a trace JSONL file may grow before rotating to `<path>.1`.
const TRACE_OUT_MAX_BYTES: u64 = 64 << 20;

/// Per-request trace capture decision (the serve-side mirror of
/// [`hetesim_obs::CaptureDecision`], driven by per-server knobs).
#[derive(Clone, Copy, PartialEq)]
enum Capture {
    /// Head-sampled: keep the trace unconditionally.
    Head,
    /// Capture provisionally; keep only if the request turns out slow.
    Provisional,
    /// Don't capture.
    No,
}

impl Server {
    /// Binds the listen socket. Fails fast on an unusable address so the
    /// CLI can report it before any worker starts.
    pub fn bind(config: &ServeConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;
        // Non-blocking so `accept` after a spurious wake-up returns
        // instead of blocking past a shutdown request.
        listener.set_nonblocking(true)?;
        let workers = if config.workers == 0 {
            hetesim_core::default_threads()
        } else {
            config.workers
        };
        let trace_out = match &config.trace_out {
            Some(path) => Some(JsonlSink::create(path, TRACE_OUT_MAX_BYTES)?),
            None => None,
        };
        if config.trace_sample > 0 || config.slow_ms > 0 || config.history_budget_bytes > 0 {
            // Traces and history are recorded through the metrics
            // machinery, which is inert until metrics are on.
            hetesim_obs::enable();
        }
        let watch = (config.history_budget_bytes > 0).then(|| {
            let history = hetesim_obs::HistoryConfig {
                tick_ms: if config.history_tick_ms == 0 {
                    1_000
                } else {
                    config.history_tick_ms
                },
                budget_bytes: config.history_budget_bytes,
                ..hetesim_obs::HistoryConfig::default()
            };
            let slo = hetesim_obs::SloSpec {
                availability_target: config.slo_availability.clamp(0.0, 1.0),
                latency_threshold_us: config.slo_latency_ms.saturating_mul(1_000),
                ..hetesim_obs::SloSpec::default()
            };
            Watch {
                sampler: hetesim_obs::Sampler::start(history, Some(slo.clone())),
                slo,
            }
        });
        Ok(Server {
            listener,
            local_addr,
            workers,
            queue_depth: config.queue_depth.max(1),
            deadline: (config.deadline_ms > 0).then(|| Duration::from_millis(config.deadline_ms)),
            shared: Arc::new(Shared {
                queue: Mutex::named("serve.server.queue", VecDeque::new()),
                ready: Condvar::new(),
                stop: AtomicBool::new(false),
            }),
            slow_ns: config.slow_ms.saturating_mul(1_000_000),
            trace_sample: config.trace_sample,
            trace_counter: AtomicU64::new(0),
            ring: Arc::new(RingSink::new(config.trace_ring)),
            trace_out,
            watch,
        })
    }

    /// The actually-bound address (resolves port `0` to the ephemeral
    /// port the OS picked).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Worker threads that [`Server::run`] will spawn (the resolved count
    /// after `workers: 0` auto-detection).
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// A handle that stops this server from another thread.
    pub fn handle(&self) -> ShutdownHandle {
        ShutdownHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    fn stopping(&self) -> bool {
        self.shared.stop.load(Ordering::SeqCst) || CTRL_C.load(Ordering::SeqCst)
    }

    /// Accepts and answers requests until shutdown, then drains the queue
    /// and returns. Blocks the calling thread; workers are scoped inside.
    pub fn run<H: Handler>(&self, handler: &H) -> std::io::Result<()> {
        std::thread::scope(|scope| {
            for _ in 0..self.workers {
                scope.spawn(|| self.worker_loop(handler));
            }
            self.accept_loop();
            // Scope exit joins the workers, which drain the queue first.
        });
        Ok(())
    }

    fn accept_loop(&self) {
        while !self.stopping() {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    let _ = stream.set_nonblocking(false);
                    self.admit(Job {
                        stream,
                        accepted: Instant::now(),
                    });
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    wait_readable(&self.listener, ACCEPT_WAIT);
                }
                // EMFILE and friends leave the listener readable, so a
                // readiness wait would spin: back off instead.
                Err(_) => std::thread::sleep(ACCEPT_WAIT),
            }
        }
        // Wake every worker so they observe the stop flag and drain.
        self.shared.ready.notify_all();
    }

    /// Queues the connection, or sheds it with `503` when the queue is at
    /// capacity. The shed write happens on the acceptor thread but is a
    /// single small buffer — bounded work per rejected connection.
    fn admit(&self, job: Job) {
        hetesim_obs::add("serve.server.accepted", 1);
        let mut queue = self
            .shared
            .queue
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if queue.len() >= self.queue_depth {
            drop(queue);
            hetesim_obs::add("serve.server.shed", 1);
            let mut stream = job.stream;
            let _ = stream.set_write_timeout(Some(Duration::from_secs(1)));
            let _ = Response::error(503, "server overloaded, retry later")
                .with_header("retry-after", "1")
                .write_to(&mut stream);
            close_gracefully(stream);
            return;
        }
        queue.push_back(job);
        hetesim_obs::set("serve.server.queue_depth", queue.len() as u64);
        drop(queue);
        self.shared.ready.notify_one();
    }

    fn worker_loop<H: Handler>(&self, handler: &H) {
        loop {
            // Per-worker utilization: idle is the wait for a job, busy is
            // everything from dequeue to response written. Recorded per
            // job into the worker_{idle,busy}_us histograms so the
            // exposition shows the waiting/working split of the pool.
            let idle = Instant::now();
            let job = {
                let mut queue = self
                    .shared
                    .queue
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner);
                loop {
                    if let Some(job) = queue.pop_front() {
                        break Some(job);
                    }
                    if self.stopping() {
                        break None;
                    }
                    let (q, _) = hetesim_obs::lockcheck::wait_timeout(
                        &self.shared.ready,
                        queue,
                        Duration::from_millis(50),
                    )
                    .unwrap_or_else(PoisonError::into_inner);
                    queue = q;
                }
            };
            match job {
                Some(job) => {
                    hetesim_obs::record(
                        "serve.server.worker_idle_us",
                        idle.elapsed().as_micros() as u64,
                    );
                    let busy = Instant::now();
                    self.serve_one(job, handler);
                    hetesim_obs::record(
                        "serve.server.worker_busy_us",
                        busy.elapsed().as_micros() as u64,
                    );
                }
                None => return,
            }
        }
    }

    /// Draws this request's trace-capture ticket against the per-server
    /// sampling knobs.
    fn capture_decision(&self) -> Capture {
        if self.trace_sample > 0
            && self.trace_counter.fetch_add(1, Ordering::Relaxed) % self.trace_sample == 0
        {
            return Capture::Head;
        }
        if self.slow_ns > 0 {
            return Capture::Provisional;
        }
        Capture::No
    }

    /// `GET /traces/recent`: the ring buffer as a JSON array, oldest
    /// first. `?n=` caps the result to the newest `n`.
    fn traces_recent(&self, req: &Request) -> Response {
        let mut traces = self.ring.recent();
        if let Some(n) = req.query_param("n").and_then(|v| v.parse::<usize>().ok()) {
            let drop = traces.len().saturating_sub(n);
            traces.drain(..drop);
        }
        let mut body = String::from("[");
        for (i, t) in traces.iter().enumerate() {
            if i > 0 {
                body.push(',');
            }
            body.push_str(&t.to_json_line());
        }
        body.push(']');
        Response::json(200, body)
    }

    /// `GET /metrics/history?name=&window=`: retained history as JSON.
    /// Without `name`, lists every available series plus ring residency;
    /// with one, returns its points over the trailing window (default
    /// `5m`; `0` means everything retained).
    fn metrics_history(&self, req: &Request) -> Response {
        let Some(watch) = &self.watch else {
            return Response::error(404, "metric history is disabled (history budget is 0)");
        };
        let window_ms = match req.query_param("window") {
            None => hetesim_obs::FAST_WINDOW_MS,
            Some(raw) => match parse_window_ms(raw) {
                Some(w) => w,
                None => {
                    return Response::error(
                        400,
                        "\"window\" must be seconds or a number suffixed s/m/h",
                    )
                }
            },
        };
        let name = req.query_param("name");
        watch.sampler.with_history(|h| {
            let mut body = format!(
                "{{\"resident_bytes\":{},\"budget_bytes\":{},\"tick_ms\":{},\
                 \"samples\":{},\"samples_merged\":{},\"samples_evicted\":{}",
                h.resident_bytes(),
                h.config().budget_bytes,
                h.config().tick_ms,
                h.sample_count(),
                h.samples_merged(),
                h.samples_evicted(),
            );
            match name {
                None => {
                    body.push_str(",\"series\":[");
                    for (i, (name, kind)) in h.names().iter().enumerate() {
                        if i > 0 {
                            body.push(',');
                        }
                        body.push_str(&format!(
                            "{{\"name\":\"{}\",\"kind\":\"{}\"}}",
                            crate::json::escape(name),
                            kind.as_str()
                        ));
                    }
                    body.push(']');
                }
                Some(name) => {
                    let Some(kind) = h.kind_of(name) else {
                        return Response::error(404, &format!("no series named {name:?}"));
                    };
                    body.push_str(&format!(
                        ",\"name\":\"{}\",\"kind\":\"{}\",\"window_ms\":{window_ms},\"points\":[",
                        crate::json::escape(name),
                        kind.as_str()
                    ));
                    let mut first = true;
                    let mut push = |p: String| {
                        if !first {
                            body.push(',');
                        }
                        first = false;
                        body.push_str(&p);
                    };
                    match kind {
                        hetesim_obs::SeriesKind::Histogram => {
                            for s in h.samples_in(window_ms) {
                                let Some(hist) = s.delta.histograms.iter().find(|x| x.name == name)
                                else {
                                    continue;
                                };
                                let q = |q| hetesim_obs::quantile_upper(hist, q).unwrap_or(0);
                                push(format!(
                                    "{{\"t_ms\":{},\"span_ms\":{},\"count\":{},\
                                     \"p50\":{},\"p95\":{},\"p99\":{}}}",
                                    s.end_ms,
                                    s.span_ms,
                                    hist.count,
                                    q(0.50),
                                    q(0.95),
                                    q(0.99)
                                ));
                            }
                        }
                        hetesim_obs::SeriesKind::Counter => {
                            for p in h.series_value(name, window_ms) {
                                let rate = p.value * 1000.0 / p.span_ms.max(1) as f64;
                                push(format!(
                                    "{{\"t_ms\":{},\"span_ms\":{},\"delta\":{},\
                                     \"rate_per_sec\":{rate:.3}}}",
                                    p.end_ms, p.span_ms, p.value as u64
                                ));
                            }
                        }
                        hetesim_obs::SeriesKind::Gauge => {
                            for p in h.series_value(name, window_ms) {
                                push(format!(
                                    "{{\"t_ms\":{},\"span_ms\":{},\"value\":{}}}",
                                    p.end_ms, p.span_ms, p.value as u64
                                ));
                            }
                        }
                    }
                    body.push(']');
                }
            }
            body.push('}');
            Response::json(200, body)
        })
    }

    /// `GET /slo`: both objectives' burn rates and the typed alert state,
    /// evaluated over the retained history right now.
    fn slo_report(&self) -> Response {
        let Some(watch) = &self.watch else {
            return Response::error(404, "SLO tracking is disabled (history budget is 0)");
        };
        let report = watch.sampler.with_history(|h| watch.slo.evaluate(h));
        Response::json(200, report.to_json(watch.slo.latency_threshold_us))
    }

    /// `GET /dashboard`: the self-contained HTML+SVG live view.
    fn dashboard(&self) -> Response {
        let Some(watch) = &self.watch else {
            return Response::error(404, "dashboard is disabled (history budget is 0)");
        };
        let html = watch
            .sampler
            .with_history(|h| crate::dashboard::render(h, &watch.slo));
        Response::text(200, "text/html; charset=utf-8", html)
    }

    /// Parses, deadline-checks, dispatches, and answers one connection.
    fn serve_one<H: Handler>(&self, job: Job, handler: &H) {
        let Job {
            mut stream,
            accepted,
        } = job;
        let deadline = self.deadline.map(|d| accepted + d);
        // A slow or stalled client may not hold a worker past the
        // deadline (or past a hard cap when deadlines are off): the budget
        // covers the whole request, not each read.
        let read_budget = match deadline {
            Some(t) => t
                .checked_duration_since(Instant::now())
                .unwrap_or(Duration::from_millis(1)),
            None => Duration::from_secs(10),
        };
        let read_until = Instant::now() + read_budget;
        let _ = stream.set_read_timeout(Some(read_budget));
        let _ = stream.set_write_timeout(Some(Duration::from_secs(5)));

        // One trace per connection, measured from accept so queue wait is
        // part of the picture; the scope is started on this worker thread
        // and back-dates its clock to `accepted`.
        let trace_id = hetesim_obs::next_trace_id();
        let capture = self.capture_decision();
        let scope = match capture {
            Capture::No => None,
            head => Some(hetesim_obs::trace_begin(
                trace_id,
                accepted,
                head == Capture::Head,
            )),
        };
        if scope.is_some() {
            let waited = accepted.elapsed().as_nanos().min(u64::MAX as u128) as u64;
            hetesim_obs::trace_push_completed("serve.server.queue_wait", 0, waited);
        }

        let parsed = {
            let _stage = hetesim_obs::span("serve.server.parse");
            read_request(&mut stream, read_until)
        };
        let mut verdict = "ok";
        let response = match parsed {
            Err(HttpError::TooLarge) => {
                verdict = "too_large";
                Response::error(413, "request too large")
            }
            Err(HttpError::Bad(msg)) => {
                verdict = "bad_request";
                Response::error(400, msg)
            }
            Err(HttpError::Io(_)) => {
                // Client went away or stalled past its budget: nothing to
                // answer (and nothing worth tracing).
                hetesim_obs::add("serve.server.read_errors", 1);
                return;
            }
            Ok(request) => {
                hetesim_obs::add("serve.server.requests", 1);
                if scope.is_some() {
                    hetesim_obs::trace_annotate("method", request.method.clone());
                    hetesim_obs::trace_annotate("target", request.target.clone());
                }
                if expired(deadline) {
                    hetesim_obs::add("serve.server.timeouts", 1);
                    verdict = "deadline";
                    Response::error(504, "deadline exceeded while queued")
                } else if request.method == "GET" && request.path() == "/traces/recent" {
                    // Served here rather than by the handler: the ring
                    // belongs to the server, not the application.
                    self.traces_recent(&request)
                } else if request.method == "GET" && request.path() == "/metrics/history" {
                    self.metrics_history(&request)
                } else if request.method == "GET" && request.path() == "/slo" {
                    self.slo_report()
                } else if request.method == "GET" && request.path() == "/dashboard" {
                    self.dashboard()
                } else {
                    let response = {
                        let _stage = hetesim_obs::span("serve.server.handle");
                        handler.handle(&request)
                    };
                    if expired(deadline) {
                        hetesim_obs::add("serve.server.timeouts", 1);
                        verdict = "deadline";
                        Response::error(504, "deadline exceeded during processing")
                    } else {
                        response
                    }
                }
            }
        };
        let response = response.with_header("x-trace-id", &format!("{trace_id:016x}"));
        {
            let _stage = hetesim_obs::span("serve.server.write");
            let _ = response.write_to(&mut stream);
        }
        // Bookkeeping happens before the half-close: the client reads to
        // EOF, so by the time it has the whole response this request's
        // trace is already in the ring and its latency recorded.
        hetesim_obs::record(
            "serve.server.latency_us",
            accepted.elapsed().as_micros() as u64,
        );
        if let Some(scope) = scope {
            // A handler's own 4xx/5xx answer is an error, not "ok".
            if verdict == "ok" && response.status >= 400 {
                verdict = "error";
            }
            hetesim_obs::trace_annotate("status", response.status.to_string());
            hetesim_obs::trace_annotate("verdict", verdict.to_string());
            if let Some(trace) = scope.finish() {
                let slow = self.slow_ns > 0 && trace.duration_ns >= self.slow_ns;
                if trace.head_sampled || slow {
                    self.ring.record(&trace);
                    if let Some(sink) = &self.trace_out {
                        sink.record(&trace);
                    }
                    hetesim_obs::add("serve.server.traces_kept", 1);
                }
                if slow {
                    hetesim_obs::add("serve.server.slow_queries", 1);
                }
            }
        }
        close_gracefully(stream);
    }
}

/// Longest the acceptor waits between checks of the stop flags, and its
/// back-off after a failed `accept`.
const ACCEPT_WAIT: Duration = Duration::from_millis(5);

/// Blocks until `listener` has a connection waiting or `timeout` passes.
/// Early returns (a signal, a connection another thread took) are fine:
/// the caller retries `accept` and re-checks its stop flags either way.
fn wait_readable(listener: &TcpListener, timeout: Duration) {
    #[cfg(unix)]
    {
        use std::os::unix::io::AsRawFd;
        #[repr(C)]
        struct PollFd {
            fd: i32,
            events: i16,
            revents: i16,
        }
        #[cfg(target_os = "linux")]
        type NFds = std::ffi::c_ulong;
        #[cfg(not(target_os = "linux"))]
        type NFds = std::ffi::c_uint;
        extern "C" {
            fn poll(fds: *mut PollFd, nfds: NFds, timeout_ms: i32) -> i32;
        }
        const POLLIN: i16 = 0x1;
        let mut pfd = PollFd {
            fd: listener.as_raw_fd(),
            events: POLLIN,
            revents: 0,
        };
        let timeout_ms = i32::try_from(timeout.as_millis()).unwrap_or(i32::MAX);
        // SAFETY: `poll(2)` reads and writes exactly `nfds` = 1 `pollfd`,
        // and `pfd` is a live, exclusively borrowed `#[repr(C)]` struct
        // with the C layout (int fd; short events; short revents). The fd
        // is owned by `listener`, which outlives the call. The result is
        // ignored on purpose: readiness, timeout and EINTR all lead the
        // caller to the same retry.
        unsafe {
            poll(&mut pfd, 1, timeout_ms);
        }
    }
    #[cfg(not(unix))]
    {
        let _ = listener;
        std::thread::sleep(timeout);
    }
}

fn expired(deadline: Option<Instant>) -> bool {
    deadline.is_some_and(|t| Instant::now() > t)
}

/// Parses a trailing-window spec: plain digits are seconds; `s`/`m`/`h`
/// suffixes scale. `0` means "everything retained".
pub(crate) fn parse_window_ms(raw: &str) -> Option<u64> {
    let (digits, scale_ms) = match raw.as_bytes().last()? {
        b's' => (&raw[..raw.len() - 1], 1_000),
        b'm' => (&raw[..raw.len() - 1], 60_000),
        b'h' => (&raw[..raw.len() - 1], 3_600_000),
        _ => (raw, 1_000),
    };
    digits
        .parse::<u64>()
        .ok()
        .and_then(|n| n.checked_mul(scale_ms))
}

/// Half-closes a connection whose response is written, then drains
/// whatever the client was still sending. Closing a socket with unread
/// bytes in its receive buffer makes the kernel send RST, which can
/// destroy the response before the client reads it — this matters on the
/// shed path, where the server answers without ever reading the request.
/// The drain is bounded (read timeout + iteration cap), so a stalled
/// client cannot pin the thread.
fn close_gracefully(mut stream: TcpStream) {
    let _ = stream.shutdown(Shutdown::Write);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(250)));
    let mut sink = [0u8; 1024];
    for _ in 0..64 {
        match stream.read(&mut sink) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
    }
}
