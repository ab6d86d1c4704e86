//! Trace-correctness tests: span guards must produce a well-formed
//! parent/child tree, concurrent traces must never share events, and the
//! flush policy must keep slow requests even when head sampling drops
//! them.

use hetesim_obs::{FinishedTrace, RingSink};
use proptest::prelude::*;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// The flush-policy tests mutate process-global state (trace config and
/// the global sink list), so they serialize on this lock.
fn global_lock() -> &'static Mutex<()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
}

/// Runs one traced request shape on the current thread: `depths[i]` spans
/// deep at step `i`, every span named from this thread's name table.
fn run_trace(names: &'static [&'static str], depths: &[usize]) -> FinishedTrace {
    let scope = hetesim_obs::trace_begin(hetesim_obs::next_trace_id(), Instant::now(), true);
    for &depth in depths {
        let mut guards = Vec::new();
        for level in 0..depth.min(names.len()) {
            guards.push(hetesim_obs::span(names[level]));
        }
        // Innermost-first drop order is enforced by popping explicitly.
        while guards.len() > 1 {
            guards.pop();
        }
    }
    scope.finish().expect("obs feature enabled")
}

#[test]
fn nested_span_guards_form_a_wellformed_tree() {
    hetesim_obs::enable();
    let scope = hetesim_obs::trace_begin(hetesim_obs::next_trace_id(), Instant::now(), true);
    {
        let _root = hetesim_obs::span("test.root");
        {
            let _a = hetesim_obs::span("test.child_a");
            std::thread::sleep(Duration::from_millis(2));
        }
        {
            let _b = hetesim_obs::span("test.child_b");
            std::thread::sleep(Duration::from_millis(2));
        }
    }
    let trace = scope.finish().expect("obs feature enabled");
    assert_eq!(trace.events.len(), 3);
    let root = &trace.events[0];
    assert_eq!(root.name, "test.root");
    assert_eq!(root.parent, None);
    let (a, b) = (&trace.events[1], &trace.events[2]);
    assert_eq!(a.parent, Some(0));
    assert_eq!(b.parent, Some(0));
    // Children are disjoint in time and contained in the root.
    assert!(a.start_ns + a.duration_ns <= b.start_ns);
    assert!(
        root.duration_ns >= a.duration_ns + b.duration_ns,
        "root {} ns < children {} + {} ns",
        root.duration_ns,
        a.duration_ns,
        b.duration_ns
    );
    // And the whole trace contains the root.
    assert!(trace.duration_ns >= root.duration_ns);
}

#[test]
fn stage_totals_sum_repeated_stages() {
    hetesim_obs::enable();
    let scope = hetesim_obs::trace_begin(hetesim_obs::next_trace_id(), Instant::now(), true);
    for _ in 0..3 {
        let _s = hetesim_obs::span("test.repeat");
        std::thread::sleep(Duration::from_millis(1));
    }
    let trace = scope.finish().expect("obs feature enabled");
    assert_eq!(trace.events.len(), 3);
    let per_event: u64 = trace.events.iter().map(|e| e.duration_ns).sum();
    assert_eq!(trace.event_total_ns("test.repeat"), Some(per_event));
}

/// Per-thread name tables: each concurrent trace opens only names from
/// its own table, so any cross-thread event leak is detectable by name.
static THREAD_NAMES: [&[&str]; 4] = [
    &["t0.a", "t0.b", "t0.c"],
    &["t1.a", "t1.b", "t1.c"],
    &["t2.a", "t2.b", "t2.c"],
    &["t3.a", "t3.b", "t3.c"],
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Concurrent traced requests on separate threads never interleave
    /// events across trace IDs: every event in a finished trace comes
    /// from its own thread's spans, with exactly the expected count.
    #[test]
    fn concurrent_traces_never_share_events(
        shapes in proptest::collection::vec(
            proptest::collection::vec(1usize..=3, 1..6),
            THREAD_NAMES.len()..=THREAD_NAMES.len(),
        ),
    ) {
        hetesim_obs::enable();
        let traces: Vec<FinishedTrace> = std::thread::scope(|scope| {
            let handles: Vec<_> = shapes
                .iter()
                .enumerate()
                .map(|(i, depths)| {
                    let depths = depths.clone();
                    scope.spawn(move || run_trace(THREAD_NAMES[i], &depths))
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let mut seen_ids = std::collections::HashSet::new();
        for (i, trace) in traces.iter().enumerate() {
            prop_assert!(seen_ids.insert(trace.trace_id), "duplicate trace id");
            let expected: usize = shapes[i].iter().map(|&d| d.min(3)).sum();
            prop_assert_eq!(trace.events.len(), expected);
            for event in &trace.events {
                prop_assert!(
                    THREAD_NAMES[i].contains(&event.name),
                    "trace {} holds foreign event {:?}",
                    i,
                    event.name
                );
                // Parents resolve inside this trace's own event list.
                if let Some(p) = event.parent {
                    prop_assert!((p as usize) < trace.events.len());
                }
            }
        }
    }
}

#[test]
fn slow_traces_flush_even_when_head_sampling_drops_them() {
    let _guard = global_lock().lock().unwrap();
    hetesim_obs::enable();
    hetesim_obs::clear_trace_sinks();
    let ring = Arc::new(RingSink::new(8));
    hetesim_obs::add_trace_sink(ring.clone());
    // Head sampling off; anything over 1 ms counts as slow.
    hetesim_obs::set_trace_config(0, 1_000_000);

    // Not head-sampled but slow: the Drop-flush keeps it.
    let slow_id = hetesim_obs::next_trace_id();
    {
        let _scope = hetesim_obs::trace_begin(slow_id, Instant::now(), false);
        let _span = hetesim_obs::span("test.slow_work");
        std::thread::sleep(Duration::from_millis(5));
    }
    // Not head-sampled and fast: dropped.
    {
        let _scope = hetesim_obs::trace_begin(hetesim_obs::next_trace_id(), Instant::now(), false);
        let _span = hetesim_obs::span("test.fast_work");
    }
    let kept = ring.recent();
    assert_eq!(kept.len(), 1, "exactly the slow trace is kept");
    assert_eq!(kept[0].trace_id, slow_id);
    assert!(!kept[0].head_sampled);
    assert!(kept[0].duration_ns >= 1_000_000);
    assert!(kept[0].event_total_ns("test.slow_work").unwrap_or(0) > 0);

    hetesim_obs::set_trace_config(0, 0);
    hetesim_obs::clear_trace_sinks();
}

#[test]
fn head_sampled_traces_flush_regardless_of_speed() {
    let _guard = global_lock().lock().unwrap();
    hetesim_obs::enable();
    hetesim_obs::clear_trace_sinks();
    let ring = Arc::new(RingSink::new(8));
    hetesim_obs::add_trace_sink(ring.clone());
    hetesim_obs::set_trace_config(1, 0);

    let id = hetesim_obs::next_trace_id();
    {
        let _scope = hetesim_obs::trace_begin(id, Instant::now(), true);
        let _span = hetesim_obs::span("test.sampled");
    }
    let kept = ring.recent();
    assert_eq!(kept.len(), 1);
    assert_eq!(kept[0].trace_id, id);
    assert!(kept[0].head_sampled);

    hetesim_obs::set_trace_config(0, 0);
    hetesim_obs::clear_trace_sinks();
}
