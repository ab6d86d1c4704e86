//! Runtime lock-order checking — the dynamic witness for the static
//! lock graph.
//!
//! `hetesim-lint`'s lock-graph pass proves the *source text* orders its
//! lock acquisitions consistently; this module proves the *executions*
//! do. [`TrackedMutex`] / [`TrackedRwLock`] are drop-in wrappers around
//! the std primitives used at every long-lived lock site in `core`,
//! `serve`, `sparse` and `obs`. With the default-off `obs-lockcheck`
//! cargo feature enabled, each named lock carries a rank from
//! [`LOCK_ORDER`] — a total order refining the partial order of the
//! static graph (`hetesim-lint --graph-out locks.json` reports each
//! node's topological rank; the table here must sort the same way, and
//! a unit test in this module checks that against `lint-allow.toml`).
//! Every acquisition asserts its rank is strictly greater than the rank
//! of every lock the thread already holds, and a violation panics with
//! both stacks — the held-lock stack and the thread backtrace — so the
//! offending nesting is visible without a debugger. Running the full
//! test suite under the feature (the CI `lockcheck` job) turns every
//! integration test into a deadlock-order witness.
//!
//! With the feature off (the default, and all release builds) there is
//! no thread-local, no rank lookup and no atomic: `lock`/`read`/`write`
//! delegate straight to std, and the `obs-overhead` bench gate keeps
//! the wrappers honest.
//!
//! Unnamed locks ([`TrackedMutex::new`]) are never tracked — that is
//! for short-lived local locks (the SpGEMM chunk slots) that can only
//! nest trivially.

use std::ops::{Deref, DerefMut};
use std::sync::{
    Condvar, LockResult, Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard,
    WaitTimeoutResult,
};
use std::time::Duration;

/// The workspace lock total order: every named lock and its rank.
/// Acquisitions must happen in strictly increasing rank on each thread.
///
/// Ranks refine the static lock graph's topological order (an edge
/// `A → B` in `locks.json` requires `rank(A) < rank(B)`); gaps leave
/// room to slot future locks in without renumbering. obs registry locks
/// rank last because counters/histograms are updated from inside almost
/// every other critical section (`hetesim_obs::add` under a cache or
/// queue guard).
pub const LOCK_ORDER: &[(&str, u32)] = &[
    ("serve.server.queue", 10),
    ("core.cache.inner", 20),
    ("sparse.parallel.pool_stats", 30),
    ("sparse.scratch.pool", 35),
    ("obs.timeseries.wake", 40),
    ("obs.timeseries.history", 45),
    ("obs.trace.sinks", 50),
    ("obs.trace.ring", 52),
    ("obs.trace.jsonl", 54),
    ("obs.registry.spans", 60),
    ("obs.registry.counters", 62),
    ("obs.registry.histograms", 64),
];

/// Rank of a named lock, if the name is in [`LOCK_ORDER`].
pub fn rank(name: &str) -> Option<u32> {
    LOCK_ORDER.iter().find(|(n, _)| *n == name).map(|&(_, r)| r)
}

#[cfg(feature = "obs-lockcheck")]
mod checking {
    use std::cell::RefCell;

    thread_local! {
        /// Named locks this thread holds, acquisition order.
        static HELD: RefCell<Vec<(&'static str, u32)>> = const { RefCell::new(Vec::new()) };
    }

    /// The current thread's held named locks (acquisition order) — for
    /// tests asserting the checker's own bookkeeping.
    pub fn held_locks() -> Vec<(&'static str, u32)> {
        HELD.with(|h| h.borrow().clone())
    }

    pub fn check_acquire(name: &'static str) {
        let Some(rank) = super::rank(name) else {
            violation(name, "is not in lockcheck::LOCK_ORDER — every named lock needs a rank consistent with the static lock graph (hetesim-lint --graph-out locks.json)");
        };
        let conflict = HELD.with(|h| h.borrow().iter().find(|&&(_, r)| r >= rank).copied());
        if let Some((held_name, held_rank)) = conflict {
            violation(
                name,
                &format!(
                    "(rank {rank}) while `{held_name}` (rank {held_rank}) is held — \
                     acquisitions must follow strictly increasing LOCK_ORDER ranks"
                ),
            );
        }
        HELD.with(|h| h.borrow_mut().push((name, rank)));
    }

    pub fn release(name: &'static str) {
        HELD.with(|h| {
            let mut h = h.borrow_mut();
            if let Some(pos) = h.iter().rposition(|&(n, _)| n == name) {
                h.remove(pos);
            }
        });
    }

    /// Panics with the held-lock stack and the thread backtrace — the
    /// two views needed to fix a misordered acquisition.
    fn violation(name: &str, detail: &str) -> ! {
        let held = held_locks();
        panic!(
            "lockcheck: acquiring `{name}` {detail}\n\
             held-lock stack (acquisition order): {held:?}\n\
             thread backtrace:\n{}",
            std::backtrace::Backtrace::force_capture()
        );
    }
}

#[cfg(feature = "obs-lockcheck")]
pub use checking::held_locks;

/// A `std::sync::Mutex` that participates in lock-order checking when
/// the `obs-lockcheck` feature is on. API mirrors std's where the
/// workspace uses it; `lock` returns a [`TrackedMutexGuard`] so the
/// usual `.unwrap_or_else(PoisonError::into_inner)` recovery works
/// unchanged.
#[derive(Debug, Default)]
pub struct TrackedMutex<T> {
    name: Option<&'static str>,
    inner: Mutex<T>,
}

impl<T> TrackedMutex<T> {
    /// An unnamed (never-tracked) mutex — for short-lived locals.
    pub const fn new(value: T) -> TrackedMutex<T> {
        TrackedMutex {
            name: None,
            inner: Mutex::new(value),
        }
    }

    /// A named mutex; `name` must appear in [`LOCK_ORDER`] (checked at
    /// first acquisition when `obs-lockcheck` is on).
    pub const fn named(name: &'static str, value: T) -> TrackedMutex<T> {
        TrackedMutex {
            name: Some(name),
            inner: Mutex::new(value),
        }
    }

    /// Acquires the mutex, asserting lock order first (a wrong order
    /// panics *before* blocking, so tests fail instead of hanging).
    pub fn lock(&self) -> LockResult<TrackedMutexGuard<'_, T>> {
        #[cfg(feature = "obs-lockcheck")]
        if let Some(name) = self.name {
            checking::check_acquire(name);
        }
        let wrap = |g| TrackedMutexGuard {
            inner: Some(g),
            name: self.name,
        };
        match self.inner.lock() {
            Ok(g) => Ok(wrap(g)),
            Err(e) => Err(PoisonError::new(wrap(e.into_inner()))),
        }
    }
}

/// RAII guard for [`TrackedMutex`]; releases the held-lock entry on
/// drop.
#[derive(Debug)]
pub struct TrackedMutexGuard<'a, T> {
    // `Option` so `wait_timeout` can hand the inner guard to the
    // condvar; always `Some` outside that window.
    inner: Option<MutexGuard<'a, T>>,
    name: Option<&'static str>,
}

impl<T> Deref for TrackedMutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard present")
    }
}

impl<T> DerefMut for TrackedMutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard present")
    }
}

#[cfg(feature = "obs-lockcheck")]
impl<T> Drop for TrackedMutexGuard<'_, T> {
    fn drop(&mut self) {
        if self.inner.is_some() {
            if let Some(name) = self.name {
                checking::release(name);
            }
        }
    }
}

/// A `std::sync::RwLock` that participates in lock-order checking; see
/// [`TrackedMutex`].
#[derive(Debug, Default)]
pub struct TrackedRwLock<T> {
    name: Option<&'static str>,
    inner: RwLock<T>,
}

impl<T> TrackedRwLock<T> {
    /// An unnamed (never-tracked) rwlock.
    pub const fn new(value: T) -> TrackedRwLock<T> {
        TrackedRwLock {
            name: None,
            inner: RwLock::new(value),
        }
    }

    /// A named rwlock; `name` must appear in [`LOCK_ORDER`].
    pub const fn named(name: &'static str, value: T) -> TrackedRwLock<T> {
        TrackedRwLock {
            name: Some(name),
            inner: RwLock::new(value),
        }
    }

    /// Acquires shared access, asserting lock order first. Read and
    /// write acquisitions rank identically: a read-while-write-held on
    /// the same lock is still a self-deadlock with std's `RwLock`.
    pub fn read(&self) -> LockResult<TrackedReadGuard<'_, T>> {
        #[cfg(feature = "obs-lockcheck")]
        if let Some(name) = self.name {
            checking::check_acquire(name);
        }
        let wrap = |g| TrackedReadGuard {
            inner: Some(g),
            name: self.name,
        };
        match self.inner.read() {
            Ok(g) => Ok(wrap(g)),
            Err(e) => Err(PoisonError::new(wrap(e.into_inner()))),
        }
    }

    /// Acquires exclusive access, asserting lock order first.
    pub fn write(&self) -> LockResult<TrackedWriteGuard<'_, T>> {
        #[cfg(feature = "obs-lockcheck")]
        if let Some(name) = self.name {
            checking::check_acquire(name);
        }
        let wrap = |g| TrackedWriteGuard {
            inner: Some(g),
            name: self.name,
        };
        match self.inner.write() {
            Ok(g) => Ok(wrap(g)),
            Err(e) => Err(PoisonError::new(wrap(e.into_inner()))),
        }
    }
}

/// Shared-access RAII guard for [`TrackedRwLock`].
#[derive(Debug)]
pub struct TrackedReadGuard<'a, T> {
    inner: Option<RwLockReadGuard<'a, T>>,
    // Read only by the cfg'd Drop impl.
    #[cfg_attr(not(feature = "obs-lockcheck"), allow(dead_code))]
    name: Option<&'static str>,
}

impl<T> Deref for TrackedReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard present")
    }
}

#[cfg(feature = "obs-lockcheck")]
impl<T> Drop for TrackedReadGuard<'_, T> {
    fn drop(&mut self) {
        if self.inner.is_some() {
            if let Some(name) = self.name {
                checking::release(name);
            }
        }
    }
}

/// Exclusive-access RAII guard for [`TrackedRwLock`].
#[derive(Debug)]
pub struct TrackedWriteGuard<'a, T> {
    inner: Option<RwLockWriteGuard<'a, T>>,
    // Read only by the cfg'd Drop impl.
    #[cfg_attr(not(feature = "obs-lockcheck"), allow(dead_code))]
    name: Option<&'static str>,
}

impl<T> Deref for TrackedWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard present")
    }
}

impl<T> DerefMut for TrackedWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard present")
    }
}

#[cfg(feature = "obs-lockcheck")]
impl<T> Drop for TrackedWriteGuard<'_, T> {
    fn drop(&mut self) {
        if self.inner.is_some() {
            if let Some(name) = self.name {
                checking::release(name);
            }
        }
    }
}

/// `Condvar::wait_timeout` for a [`TrackedMutexGuard`]: the held-lock
/// entry is released while parked (the condvar atomically unlocks the
/// mutex) and re-asserted on reacquire, mirroring what the OS does.
pub fn wait_timeout<'a, T>(
    cv: &Condvar,
    mut guard: TrackedMutexGuard<'a, T>,
    dur: Duration,
) -> LockResult<(TrackedMutexGuard<'a, T>, WaitTimeoutResult)> {
    let name = guard.name;
    let inner = guard.inner.take().expect("guard present");
    #[cfg(feature = "obs-lockcheck")]
    if let Some(name) = name {
        checking::release(name);
    }
    let rewrap = |g: MutexGuard<'a, T>| {
        #[cfg(feature = "obs-lockcheck")]
        if let Some(name) = name {
            checking::check_acquire(name);
        }
        TrackedMutexGuard {
            inner: Some(g),
            name,
        }
    };
    match cv.wait_timeout(inner, dur) {
        Ok((g, t)) => Ok((rewrap(g), t)),
        Err(e) => {
            let (g, t) = e.into_inner();
            Err(PoisonError::new((rewrap(g), t)))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranks_are_unique_and_known() {
        for (i, (name, rank)) in LOCK_ORDER.iter().enumerate() {
            assert!(
                LOCK_ORDER[i + 1..]
                    .iter()
                    .all(|(n, r)| n != name && r != rank),
                "duplicate name or rank: {name} {rank}"
            );
        }
        assert_eq!(rank("core.cache.inner"), Some(20));
        assert_eq!(rank("no.such.lock"), None);
    }

    #[test]
    fn plain_locking_works() {
        let m = TrackedMutex::named("core.cache.inner", 1u32);
        {
            let mut g = m.lock().unwrap_or_else(PoisonError::into_inner);
            *g += 1;
        }
        assert_eq!(*m.lock().unwrap_or_else(PoisonError::into_inner), 2);

        let rw = TrackedRwLock::new(vec![1, 2, 3]);
        assert_eq!(rw.read().unwrap_or_else(PoisonError::into_inner).len(), 3);
        rw.write().unwrap_or_else(PoisonError::into_inner).push(4);
        assert_eq!(rw.read().unwrap_or_else(PoisonError::into_inner).len(), 4);
    }

    #[test]
    fn condvar_wait_times_out_and_returns_guard() {
        let m = TrackedMutex::named("serve.server.queue", 7u32);
        let cv = Condvar::new();
        let g = m.lock().unwrap_or_else(PoisonError::into_inner);
        let (g, timeout) =
            wait_timeout(&cv, g, Duration::from_millis(1)).unwrap_or_else(PoisonError::into_inner);
        assert!(timeout.timed_out());
        assert_eq!(*g, 7);
    }

    /// The static↔runtime consistency proof: every `[[lock-order]]`
    /// graph edge in `lint-allow.toml` must be strictly increasing in
    /// `LOCK_ORDER` ranks, through the node-ID → runtime-name mapping.
    #[test]
    fn lock_order_refines_the_static_graph() {
        // Map lint lock-graph node IDs (file::field) to runtime names.
        // A node missing here (or an unknown ID in the allowlist) fails
        // the test, forcing the two tables to stay in sync.
        let map: &[(&str, &str)] = &[
            ("crates/core/src/cache.rs::inner", "core.cache.inner"),
            ("crates/serve/src/server.rs::queue", "serve.server.queue"),
            (
                "crates/sparse/src/parallel.rs::LAST_POOL_STATS",
                "sparse.parallel.pool_stats",
            ),
            ("crates/sparse/src/scratch.rs::POOL", "sparse.scratch.pool"),
            (
                "crates/obs/src/timeseries.rs::wake_guard",
                "obs.timeseries.wake",
            ),
            (
                "crates/obs/src/timeseries.rs::history",
                "obs.timeseries.history",
            ),
            ("crates/obs/src/trace.rs::SINKS", "obs.trace.sinks"),
            ("crates/obs/src/trace.rs::buf", "obs.trace.ring"),
            ("crates/obs/src/trace.rs::state", "obs.trace.jsonl"),
            ("crates/obs/src/registry.rs::spans", "obs.registry.spans"),
            (
                "crates/obs/src/registry.rs::counters",
                "obs.registry.counters",
            ),
            (
                "crates/obs/src/registry.rs::histograms",
                "obs.registry.histograms",
            ),
        ];
        let runtime_rank = |node_id: &str| -> u32 {
            let name = map
                .iter()
                .find(|(id, _)| *id == node_id)
                .map(|&(_, n)| n)
                .unwrap_or_else(|| panic!("lock-graph node `{node_id}` has no runtime name — extend the map and LOCK_ORDER"));
            rank(name).unwrap_or_else(|| panic!("`{name}` missing from LOCK_ORDER"))
        };

        let allow = std::fs::read_to_string(
            std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../lint-allow.toml"),
        )
        .expect("lint-allow.toml at workspace root");
        let mut edges = 0usize;
        let mut headers = 0usize;
        let mut first: Option<String> = None;
        for line in allow.lines() {
            let line = line.trim();
            if line == "[[lock-order]]" {
                headers += 1;
            }
            let value = |l: &str| l.split('"').nth(1).map(str::to_string);
            if let Some(v) = line.strip_prefix("first = ").and_then(|_| value(line)) {
                if v.contains("::") {
                    first = Some(v);
                }
            } else if let Some(v) = line.strip_prefix("second = ").and_then(|_| value(line)) {
                if let (Some(f), true) = (first.take(), v.contains("::")) {
                    edges += 1;
                    assert!(
                        runtime_rank(&f) < runtime_rank(&v),
                        "[[lock-order]] {f} -> {v} contradicts LOCK_ORDER ranks"
                    );
                }
            }
        }
        // Every entry must parse: a parser that silently skipped one would
        // leave its edge unchecked. Zero entries is a valid graph.
        assert_eq!(
            edges, headers,
            "parsed {edges} graph-form edges from {headers} [[lock-order]] entries"
        );
    }

    /// The witness actually fires: a misordered acquisition panics with
    /// the held stack in the message.
    #[cfg(feature = "obs-lockcheck")]
    #[test]
    fn misordered_acquisition_panics() {
        let inner = TrackedRwLock::named("core.cache.inner", ());
        let queue = TrackedMutex::named("serve.server.queue", ());
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _first = inner.write().unwrap_or_else(PoisonError::into_inner);
            // rank(queue)=10 < rank(inner)=20: out of order, must panic.
            let _second = queue.lock().unwrap_or_else(PoisonError::into_inner);
        }));
        let err = result.expect_err("misordered acquisition must panic");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("lockcheck"), "{msg}");
        assert!(msg.contains("core.cache.inner"), "{msg}");
        assert!(msg.contains("held-lock stack"), "{msg}");
        // The panic unwound the guards; nothing may linger.
        assert!(held_locks().is_empty());
    }

    /// Correct order is silent, and drops unwind the held stack.
    #[cfg(feature = "obs-lockcheck")]
    #[test]
    fn ordered_acquisition_is_clean() {
        let queue = TrackedMutex::named("serve.server.queue", ());
        let inner = TrackedRwLock::named("core.cache.inner", ());
        {
            let _a = queue.lock().unwrap_or_else(PoisonError::into_inner);
            let _b = inner.write().unwrap_or_else(PoisonError::into_inner);
            assert_eq!(held_locks().len(), 2);
        }
        assert!(held_locks().is_empty());
    }

    /// Unknown lock names are themselves violations — the rank table
    /// cannot silently fall behind the code.
    #[cfg(feature = "obs-lockcheck")]
    #[test]
    fn unknown_named_lock_panics() {
        let m = TrackedMutex::named("not.in.table", 0u8);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _g = m.lock();
        }));
        assert!(result.is_err());
    }
}
