//! Request-scoped tracing: per-request event buffers keyed by a 64-bit
//! trace ID, captured from the same [`crate::span!`] call sites that feed
//! the global registry.
//!
//! The global registry answers "where does time go *in aggregate*"; a
//! trace answers "where did *this request's* time go". A trace is opened
//! with [`trace_begin`] (an RAII [`TraceScope`], thread-local like the
//! span stack), every span opened on that thread while the scope is live
//! is appended to an ordered event buffer with parent/child nesting and
//! monotonic start offsets, and [`TraceScope::finish`] freezes the buffer
//! into a [`FinishedTrace`] carrying wall-clock anchoring
//! (`started_unix_ms`) so sinks can correlate with external logs.
//!
//! Completed traces flow to pluggable [`TraceSink`]s: [`RingSink`] keeps
//! the newest N in memory (served by `GET /traces/recent`), [`JsonlSink`]
//! appends one JSON line per trace to a file with size-based rotation.
//!
//! Sampling is head-based with a slow-query escape hatch (see
//! [`set_trace_config`]): capture 1-in-`sample_every` requests up front,
//! *plus* provisionally capture everything when a slow threshold is set,
//! flushing the provisional buffer only for requests that actually exceed
//! the threshold. That is what makes "the slow request is always traced"
//! true even at 1/1000 head sampling.
//!
//! Overhead: a thread with no active trace pays one thread-local load per
//! span on top of the registry work; with the `obs` cargo feature off,
//! everything here compiles to empty inlined bodies.

use crate::lockcheck::{TrackedMutex as Mutex, TrackedRwLock as RwLock};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, PoisonError};

/// Trace buffers and sink lists stay structurally sound if a panic lands
/// while a guard is held (worst case: one half-written trace line), so
/// recover from poisoning instead of cascading the panic into serving.
fn lock_ok<G>(r: Result<G, PoisonError<G>>) -> G {
    r.unwrap_or_else(PoisonError::into_inner)
}

/// One timed event inside a trace — one `span!` activation, or a
/// zero-duration marker from [`trace_event`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Span or marker name (`crate.component.op` convention).
    pub name: &'static str,
    /// Index into the trace's event vector of the enclosing event, `None`
    /// for root events. Parents always precede children, so the vector is
    /// a valid topological order.
    pub parent: Option<u32>,
    /// Monotonic offset from the trace's start, in nanoseconds.
    pub start_ns: u64,
    /// Wall time from open to close, in nanoseconds (0 for markers).
    pub duration_ns: u64,
}

/// A completed, immutable trace as handed to [`TraceSink`]s.
#[derive(Debug, Clone, PartialEq)]
pub struct FinishedTrace {
    /// Random non-zero 64-bit ID, echoed to clients as `X-Trace-Id`.
    pub trace_id: u64,
    /// Wall-clock start (milliseconds since the Unix epoch), for
    /// correlating with external logs.
    pub started_unix_ms: u64,
    /// Total traced duration in nanoseconds.
    pub duration_ns: u64,
    /// `true` when head sampling picked this trace (as opposed to a
    /// provisional capture kept because the request was slow).
    pub head_sampled: bool,
    /// Events in open order; parents precede children.
    pub events: Vec<TraceEvent>,
    /// Free-form request context (`path`, `k`, `verdict`, …) attached via
    /// [`trace_annotate`].
    pub annotations: Vec<(&'static str, String)>,
}

impl FinishedTrace {
    /// The trace ID as the 16-digit lowercase hex string used on the wire.
    pub fn id_hex(&self) -> String {
        format!("{:016x}", self.trace_id)
    }

    /// Total nanoseconds of the first event with this name, if present.
    pub fn event_total_ns(&self, name: &str) -> Option<u64> {
        let mut total = 0u64;
        let mut seen = false;
        for e in &self.events {
            if e.name == name {
                total += e.duration_ns;
                seen = true;
            }
        }
        seen.then_some(total)
    }

    /// The annotation value for `key`, if attached.
    pub fn annotation(&self, key: &str) -> Option<&str> {
        self.annotations
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, v)| v.as_str())
    }

    /// Serializes to one line of JSON (no trailing newline), the format
    /// written by [`JsonlSink`] and served by `GET /traces/recent`.
    pub fn to_json_line(&self) -> String {
        let mut out = String::with_capacity(128 + self.events.len() * 64);
        out.push_str(&format!(
            "{{\"trace_id\":\"{}\",\"started_unix_ms\":{},\"duration_ns\":{},\"head_sampled\":{}",
            self.id_hex(),
            self.started_unix_ms,
            self.duration_ns,
            self.head_sampled
        ));
        out.push_str(",\"annotations\":{");
        for (i, (k, v)) in self.annotations.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{}\":\"{}\"", escape(k), escape(v)));
        }
        out.push_str("},\"events\":[");
        for (i, e) in self.events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = match e.parent {
                Some(p) => p.to_string(),
                None => "null".to_string(),
            };
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"parent\":{},\"start_ns\":{},\"duration_ns\":{}}}",
                escape(e.name),
                parent,
                e.start_ns,
                e.duration_ns
            ));
        }
        out.push_str("]}");
        out
    }

    /// Renders the event tree with per-stage share of the trace total —
    /// the `hetesim-cli trace` output.
    pub fn render_tree(&self) -> String {
        fn fmt_ns(ns: u64) -> String {
            if ns >= 1_000_000_000 {
                format!("{:.2}s", ns as f64 / 1e9)
            } else if ns >= 1_000_000 {
                format!("{:.2}ms", ns as f64 / 1e6)
            } else if ns >= 1_000 {
                format!("{:.2}µs", ns as f64 / 1e3)
            } else {
                format!("{ns}ns")
            }
        }
        let mut out = format!(
            "trace {}  total {}  ({})\n",
            self.id_hex(),
            fmt_ns(self.duration_ns),
            if self.head_sampled {
                "head-sampled"
            } else {
                "slow-captured"
            }
        );
        if !self.annotations.is_empty() {
            let pairs: Vec<String> = self
                .annotations
                .iter()
                .map(|(k, v)| format!("{k}={v}"))
                .collect();
            out.push_str(&format!("  {}\n", pairs.join("  ")));
        }
        // Depth via parent chain; events are already in open order, which
        // interleaves children directly under their parents.
        let mut depth = vec![0usize; self.events.len()];
        for (i, e) in self.events.iter().enumerate() {
            if let Some(p) = e.parent {
                depth[i] = depth[p as usize] + 1;
            }
        }
        for (i, e) in self.events.iter().enumerate() {
            let pct = if self.duration_ns > 0 {
                100.0 * e.duration_ns as f64 / self.duration_ns as f64
            } else {
                0.0
            };
            out.push_str(&format!(
                "  {:indent$}{:<36} start {:>10}  took {:>10}  {:>5.1}%\n",
                "",
                e.name,
                fmt_ns(e.start_ns),
                fmt_ns(e.duration_ns),
                pct,
                indent = depth[i] * 2,
            ));
        }
        out
    }
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Destination for completed traces. Implementations must be cheap and
/// non-blocking-ish: `record` runs on the request's worker thread.
pub trait TraceSink: Send + Sync {
    /// Accepts one completed trace.
    fn record(&self, trace: &FinishedTrace);
}

/// Bounded in-memory ring of the newest traces; the backing store of
/// `GET /traces/recent`.
pub struct RingSink {
    cap: usize,
    buf: Mutex<VecDeque<FinishedTrace>>,
}

impl RingSink {
    /// A ring keeping at most `cap` traces (0 keeps none).
    pub fn new(cap: usize) -> RingSink {
        RingSink {
            cap,
            buf: Mutex::named("obs.trace.ring", VecDeque::new()),
        }
    }

    /// The retained traces, oldest first.
    pub fn recent(&self) -> Vec<FinishedTrace> {
        lock_ok(self.buf.lock()).iter().cloned().collect()
    }

    /// Number of retained traces.
    pub fn len(&self) -> usize {
        lock_ok(self.buf.lock()).len()
    }

    /// `true` when no traces are retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl TraceSink for RingSink {
    fn record(&self, trace: &FinishedTrace) {
        if self.cap == 0 {
            return;
        }
        let mut buf = lock_ok(self.buf.lock());
        if buf.len() >= self.cap {
            buf.pop_front();
        }
        buf.push_back(trace.clone());
    }
}

/// Appends one JSON line per trace to a file, rotating `path` → `path.1`
/// when the file would exceed `max_bytes` (one previous generation is
/// kept). Write errors are counted (`obs.trace.sink_errors`) and dropped —
/// tracing must never take down serving.
pub struct JsonlSink {
    path: std::path::PathBuf,
    max_bytes: u64,
    state: Mutex<JsonlState>,
}

struct JsonlState {
    file: Option<std::fs::File>,
    written: u64,
}

impl JsonlSink {
    /// Opens (appending) or creates the sink file.
    pub fn create(
        path: impl Into<std::path::PathBuf>,
        max_bytes: u64,
    ) -> std::io::Result<JsonlSink> {
        let path = path.into();
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)?;
        let written = file.metadata()?.len();
        Ok(JsonlSink {
            path,
            max_bytes,
            state: Mutex::named(
                "obs.trace.jsonl",
                JsonlState {
                    file: Some(file),
                    written,
                },
            ),
        })
    }
}

impl TraceSink for JsonlSink {
    fn record(&self, trace: &FinishedTrace) {
        use std::io::Write;
        let mut line = trace.to_json_line();
        line.push('\n');
        let mut state = lock_ok(self.state.lock());
        if self.max_bytes > 0
            && state.written > 0
            && state.written + line.len() as u64 > self.max_bytes
        {
            // Rotate: close, shift the current generation to `.1`
            // (clobbering any older one), start fresh.
            state.file = None;
            let mut rotated = self.path.clone().into_os_string();
            rotated.push(".1");
            let _ = std::fs::rename(&self.path, std::path::Path::new(&rotated));
            state.written = 0;
        }
        if state.file.is_none() {
            state.file = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(&self.path)
                .ok();
        }
        match state.file.as_mut().map(|f| f.write_all(line.as_bytes())) {
            Some(Ok(())) => state.written += line.len() as u64,
            _ => crate::add("obs.trace.sink_errors", 1),
        }
    }
}

/// A fresh, effectively-unique, non-zero trace ID (splitmix64 over a
/// process counter seeded with wall-clock nanoseconds).
pub fn next_trace_id() -> u64 {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    static SEED: OnceLock<u64> = OnceLock::new();
    let seed = *SEED.get_or_init(|| {
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0x9e3779b97f4a7c15)
    });
    let c = COUNTER.fetch_add(1, Ordering::Relaxed);
    splitmix64(seed ^ c.wrapping_mul(0x2545f4914f6cdd1d)) | 1
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e3779b97f4a7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}

/// Head-sampling decision for one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CaptureDecision {
    /// Head sampling picked this request: capture and always flush.
    Sampled,
    /// Not head-sampled, but a slow threshold is configured: capture
    /// provisionally and flush only if the request ends up slow.
    Provisional,
    /// Capture nothing.
    Skip,
}

static SAMPLE_EVERY: AtomicU64 = AtomicU64::new(0);
static SLOW_NS: AtomicU64 = AtomicU64::new(0);
static HEAD_COUNTER: AtomicU64 = AtomicU64::new(0);

/// Configures the process-wide sampling policy consumed by
/// [`trace_should_capture`] and by [`TraceScope`]'s drop-time flush:
/// `sample_every` = N captures 1-in-N requests from the head (0 disables
/// head sampling), `slow_ns` > 0 additionally captures every request
/// provisionally and keeps the ones at least that slow.
pub fn set_trace_config(sample_every: u64, slow_ns: u64) {
    SAMPLE_EVERY.store(sample_every, Ordering::Relaxed);
    SLOW_NS.store(slow_ns, Ordering::Relaxed);
}

/// The configured slow threshold in nanoseconds (0 = off).
pub fn trace_slow_ns() -> u64 {
    SLOW_NS.load(Ordering::Relaxed)
}

/// Draws one head-sampling ticket against the configured policy. Each
/// call advances the 1-in-N counter, so call exactly once per request.
pub fn trace_should_capture() -> CaptureDecision {
    let every = SAMPLE_EVERY.load(Ordering::Relaxed);
    if every > 0 && HEAD_COUNTER.fetch_add(1, Ordering::Relaxed) % every == 0 {
        return CaptureDecision::Sampled;
    }
    if SLOW_NS.load(Ordering::Relaxed) > 0 {
        return CaptureDecision::Provisional;
    }
    CaptureDecision::Skip
}

fn global_sinks() -> &'static RwLock<Vec<Arc<dyn TraceSink>>> {
    static SINKS: OnceLock<RwLock<Vec<Arc<dyn TraceSink>>>> = OnceLock::new();
    SINKS.get_or_init(|| RwLock::named("obs.trace.sinks", Vec::new()))
}

/// Registers a process-wide sink receiving every trace passed to
/// [`flush_trace`] (and traces auto-flushed by [`TraceScope`]'s drop).
pub fn add_trace_sink(sink: Arc<dyn TraceSink>) {
    lock_ok(global_sinks().write()).push(sink);
}

/// Removes all process-wide sinks (tests, reconfiguration).
pub fn clear_trace_sinks() {
    lock_ok(global_sinks().write()).clear();
}

/// Delivers a completed trace to every registered process-wide sink.
pub fn flush_trace(trace: &FinishedTrace) {
    for sink in lock_ok(global_sinks().read()).iter() {
        sink.record(trace);
    }
}

#[cfg(feature = "obs")]
pub(crate) use active::{on_span_close, on_span_open};
#[cfg(feature = "obs")]
pub use active::{trace_annotate, trace_begin, trace_event, trace_push_completed, TraceScope};

#[cfg(feature = "obs")]
mod active {
    use super::{FinishedTrace, TraceEvent};
    use std::cell::RefCell;
    use std::time::Instant;

    struct ActiveTrace {
        trace_id: u64,
        started: Instant,
        started_unix_ms: u64,
        head_sampled: bool,
        events: Vec<TraceEvent>,
        /// Indices of currently-open events, innermost last.
        open: Vec<u32>,
        annotations: Vec<(&'static str, String)>,
    }

    thread_local! {
        static ACTIVE: RefCell<Option<ActiveTrace>> = const { RefCell::new(None) };
    }

    /// RAII ownership of this thread's active trace. [`TraceScope::finish`]
    /// returns the completed trace to the caller; a scope dropped without
    /// `finish` flushes to the global sinks according to the configured
    /// sampling policy (head-sampled, or slower than the slow threshold).
    #[derive(Debug)]
    #[must_use = "dropping the scope ends the trace"]
    pub struct TraceScope {
        armed: bool,
    }

    /// Starts capturing spans opened on this thread into a new trace.
    ///
    /// `started` may predate the call (e.g. a connection's accept time):
    /// event offsets and the total duration are measured from it, and the
    /// wall-clock anchor is back-dated to match. Returns a disarmed scope
    /// (captures nothing) when metrics are disabled or a trace is already
    /// active on this thread.
    pub fn trace_begin(trace_id: u64, started: Instant, head_sampled: bool) -> TraceScope {
        if !crate::is_enabled() {
            return TraceScope { armed: false };
        }
        ACTIVE.with(|a| {
            let mut slot = a.borrow_mut();
            if slot.is_some() {
                return TraceScope { armed: false };
            }
            let elapsed_ms = started.elapsed().as_millis() as u64;
            let now_unix_ms = std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map(|d| d.as_millis() as u64)
                .unwrap_or(0);
            *slot = Some(ActiveTrace {
                trace_id,
                started,
                started_unix_ms: now_unix_ms.saturating_sub(elapsed_ms),
                head_sampled,
                events: Vec::with_capacity(16),
                open: Vec::new(),
                annotations: Vec::new(),
            });
            TraceScope { armed: true }
        })
    }

    impl TraceScope {
        /// Ends the trace and returns it (`None` for a disarmed scope).
        pub fn finish(mut self) -> Option<FinishedTrace> {
            self.take()
        }

        fn take(&mut self) -> Option<FinishedTrace> {
            if !self.armed {
                return None;
            }
            self.armed = false;
            ACTIVE.with(|a| a.borrow_mut().take()).map(|mut t| {
                let duration_ns = elapsed_ns(t.started);
                // Close anything still open (a panic unwound past its
                // guard, or finish() called inside a span).
                while let Some(idx) = t.open.pop() {
                    let e = &mut t.events[idx as usize];
                    e.duration_ns = duration_ns.saturating_sub(e.start_ns);
                }
                FinishedTrace {
                    trace_id: t.trace_id,
                    started_unix_ms: t.started_unix_ms,
                    duration_ns,
                    head_sampled: t.head_sampled,
                    events: t.events,
                    annotations: t.annotations,
                }
            })
        }
    }

    impl Drop for TraceScope {
        fn drop(&mut self) {
            if let Some(trace) = self.take() {
                let slow = super::trace_slow_ns();
                if trace.head_sampled || (slow > 0 && trace.duration_ns >= slow) {
                    super::flush_trace(&trace);
                }
            }
        }
    }

    fn elapsed_ns(since: Instant) -> u64 {
        since.elapsed().as_nanos().min(u64::MAX as u128) as u64
    }

    /// Hook from [`crate::span`]: appends an open event when a trace is
    /// active on this thread. Returns whether the span was captured, so
    /// the guard knows to call [`on_span_close`] on drop.
    pub(crate) fn on_span_open(name: &'static str) -> bool {
        ACTIVE.with(|a| {
            let mut slot = a.borrow_mut();
            let Some(t) = slot.as_mut() else {
                return false;
            };
            let idx = t.events.len() as u32;
            t.events.push(TraceEvent {
                name,
                parent: t.open.last().copied(),
                start_ns: elapsed_ns(t.started),
                duration_ns: 0,
            });
            t.open.push(idx);
            true
        })
    }

    /// Hook from the span guard's drop: closes the innermost open event.
    pub(crate) fn on_span_close(duration_ns: u64) {
        ACTIVE.with(|a| {
            let mut slot = a.borrow_mut();
            let Some(t) = slot.as_mut() else {
                return;
            };
            if let Some(idx) = t.open.pop() {
                t.events[idx as usize].duration_ns = duration_ns;
            }
        });
    }

    /// Appends a zero-duration marker (cache hit/miss, shed, …) under the
    /// innermost open span of this thread's active trace, if any.
    pub fn trace_event(name: &'static str) {
        if !crate::is_enabled() {
            return;
        }
        ACTIVE.with(|a| {
            let mut slot = a.borrow_mut();
            if let Some(t) = slot.as_mut() {
                t.events.push(TraceEvent {
                    name,
                    parent: t.open.last().copied(),
                    start_ns: elapsed_ns(t.started),
                    duration_ns: 0,
                });
            }
        });
    }

    /// Appends an already-measured root event (e.g. queue wait measured
    /// before the trace's thread picked the request up).
    pub fn trace_push_completed(name: &'static str, start_ns: u64, duration_ns: u64) {
        if !crate::is_enabled() {
            return;
        }
        ACTIVE.with(|a| {
            let mut slot = a.borrow_mut();
            if let Some(t) = slot.as_mut() {
                t.events.push(TraceEvent {
                    name,
                    parent: t.open.last().copied(),
                    start_ns,
                    duration_ns,
                });
            }
        });
    }

    /// Attaches request context (path string, k, verdict, …) to this
    /// thread's active trace, if any.
    pub fn trace_annotate(key: &'static str, value: String) {
        if !crate::is_enabled() {
            return;
        }
        ACTIVE.with(|a| {
            let mut slot = a.borrow_mut();
            if let Some(t) = slot.as_mut() {
                t.annotations.push((key, value));
            }
        });
    }
}

#[cfg(not(feature = "obs"))]
pub use inactive::{trace_annotate, trace_begin, trace_event, trace_push_completed, TraceScope};

/// No-op trace entry points installed when the `obs` feature is off.
#[cfg(not(feature = "obs"))]
mod inactive {
    use super::FinishedTrace;
    use std::time::Instant;

    /// Disarmed scope (the `obs` feature is off).
    #[derive(Debug)]
    pub struct TraceScope(());

    impl TraceScope {
        /// Always `None`: the `obs` feature is off.
        #[inline(always)]
        pub fn finish(self) -> Option<FinishedTrace> {
            None
        }
    }

    /// No-op: the `obs` feature is off.
    #[inline(always)]
    pub fn trace_begin(_trace_id: u64, _started: Instant, _head_sampled: bool) -> TraceScope {
        TraceScope(())
    }

    /// No-op: the `obs` feature is off.
    #[inline(always)]
    pub fn trace_event(_name: &'static str) {}

    /// No-op: the `obs` feature is off.
    #[inline(always)]
    pub fn trace_push_completed(_name: &'static str, _start_ns: u64, _duration_ns: u64) {}

    /// No-op: the `obs` feature is off.
    #[inline(always)]
    pub fn trace_annotate(_key: &'static str, _value: String) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace(id: u64, dur: u64) -> FinishedTrace {
        FinishedTrace {
            trace_id: id,
            started_unix_ms: 1_700_000_000_000,
            duration_ns: dur,
            head_sampled: true,
            events: vec![
                TraceEvent {
                    name: "serve.server.handle",
                    parent: None,
                    start_ns: 10,
                    duration_ns: dur.saturating_sub(10),
                },
                TraceEvent {
                    name: "core.engine.top_k",
                    parent: Some(0),
                    start_ns: 20,
                    duration_ns: dur.saturating_sub(30),
                },
            ],
            annotations: vec![("path", "APC".to_string())],
        }
    }

    #[test]
    fn trace_ids_are_nonzero_and_distinct() {
        let a = next_trace_id();
        let b = next_trace_id();
        assert_ne!(a, 0);
        assert_ne!(b, 0);
        assert_ne!(a, b);
    }

    #[test]
    fn json_line_is_single_line_and_wellformed() {
        let t = trace(0xabcd, 1000);
        let line = t.to_json_line();
        assert!(!line.contains('\n'), "{line}");
        assert!(line.contains("\"trace_id\":\"000000000000abcd\""), "{line}");
        assert!(line.contains("\"parent\":null"), "{line}");
        assert!(line.contains("\"parent\":0"), "{line}");
        assert!(line.contains("\"path\":\"APC\""), "{line}");
        assert_eq!(line.matches('{').count(), line.matches('}').count());
        assert_eq!(line.matches('[').count(), line.matches(']').count());
    }

    #[test]
    fn stage_totals_accumulate_by_name() {
        let mut t = trace(1, 100);
        t.events.push(TraceEvent {
            name: "core.engine.top_k",
            parent: Some(0),
            start_ns: 80,
            duration_ns: 5,
        });
        assert_eq!(t.event_total_ns("core.engine.top_k"), Some(70 + 5));
        assert_eq!(t.event_total_ns("absent"), None);
        assert_eq!(t.annotation("path"), Some("APC"));
    }

    #[test]
    fn render_tree_indents_and_reports_share() {
        let text = trace(7, 1_000_000).render_tree();
        assert!(text.contains("trace 0000000000000007"), "{text}");
        assert!(text.contains("path=APC"), "{text}");
        assert!(text.contains("    core.engine.top_k"), "indented: {text}");
        assert!(text.contains('%'), "{text}");
    }

    #[test]
    fn ring_keeps_newest_n() {
        let ring = RingSink::new(3);
        for i in 1..=5 {
            ring.record(&trace(i, 10));
        }
        let kept = ring.recent();
        assert_eq!(kept.len(), 3);
        let ids: Vec<u64> = kept.iter().map(|t| t.trace_id).collect();
        assert_eq!(ids, vec![3, 4, 5], "evicts oldest first");
        assert!(RingSink::new(0).is_empty());
        RingSink::new(0).record(&trace(9, 1));
    }

    #[test]
    fn jsonl_sink_rotates_by_size() {
        let dir = std::env::temp_dir().join(format!("hetesim-trace-{}", next_trace_id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("traces.jsonl");
        let one_line = trace(1, 10).to_json_line().len() as u64 + 1;
        let sink = JsonlSink::create(&path, one_line * 2).unwrap();
        for i in 1..=5 {
            sink.record(&trace(i, 10));
        }
        let current = std::fs::read_to_string(&path).unwrap();
        let rotated = std::fs::read_to_string(dir.join("traces.jsonl.1")).unwrap();
        assert!(!current.is_empty());
        assert!(!rotated.is_empty());
        let total = current.lines().count() + rotated.lines().count();
        // 5 lines written; one full generation may have been clobbered by
        // a second rotation, but current + previous hold the newest ones.
        assert!(total >= 3, "current={current:?} rotated={rotated:?}");
        assert!(current.lines().all(|l| l.starts_with('{')));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn capture_decisions_follow_config() {
        // This test owns the global config briefly; restore the default.
        set_trace_config(0, 0);
        assert_eq!(trace_should_capture(), CaptureDecision::Skip);
        set_trace_config(0, 1_000_000);
        assert_eq!(trace_should_capture(), CaptureDecision::Provisional);
        set_trace_config(0, 0);
    }
}
