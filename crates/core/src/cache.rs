use crate::Result;
use hetesim_obs::lockcheck::TrackedRwLock as RwLock;
use hetesim_sparse::CsrMatrix;
use std::collections::hash_map::{Entry as MapEntry, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, PoisonError};

pub use hetesim_obs::CacheStats;

/// The two materialized half-path products of a decomposed relevance path,
/// plus the derived structures every query needs.
///
/// This is the unit of memoization behind the Section 4.6 optimization:
/// "the concatenation of partially materialized reachable probability
/// matrices helps to fasten the computation". Once a path's halves are
/// built, single pairs are two row reads and a sparse dot; top-k queries
/// touch only the middle objects the source actually reaches.
///
/// On an even symmetric path the right half `PM_PR⁻¹` is the left half
/// `PM_PL` (Property 1): `right` and `right_norms` then share `left`'s
/// and `left_norms`' storage, so such a path holds two matrices, not
/// three. [`Halves::shares_left`] tells the two layouts apart.
#[derive(Debug)]
pub struct Halves {
    /// `PM_PL`: source type × middle (row-stochastic product).
    pub left: Arc<CsrMatrix>,
    /// `PM_PR⁻¹`: target type × middle. The same storage as `left` on an
    /// even symmetric path.
    pub right: Arc<CsrMatrix>,
    /// Transpose of `right` (middle × target), used by pruned top-k search.
    pub right_t: CsrMatrix,
    /// Euclidean norms of `left`'s rows (Definition 10 denominators).
    pub left_norms: Arc<[f64]>,
    /// Euclidean norms of `right`'s rows; the same storage as
    /// `left_norms` when `right` shares `left`.
    pub right_norms: Arc<[f64]>,
}

/// A raw half-path product and, when its writer took them in the same
/// pass, its row norms.
#[derive(Debug)]
pub(crate) struct RawHalf {
    pub(crate) matrix: Arc<CsrMatrix>,
    pub(crate) norms: Option<Vec<f64>>,
}

impl RawHalf {
    /// A half that arrives without norms (a chain product, an install).
    pub(crate) fn bare(matrix: Arc<CsrMatrix>) -> RawHalf {
        RawHalf {
            matrix,
            norms: None,
        }
    }

    /// The half with its row norms, checked for finiteness. A finite norm
    /// bounds every value of its row, and a NaN or infinite value makes
    /// its row's norm non-finite, so finite norms vouch for finite values
    /// and only a half with a non-finite norm is scanned. Such a half may
    /// still pass: finite values whose squares overflow (external data
    /// on install) are accepted as they always were.
    fn normed(self, what: &'static str) -> Result<(Arc<CsrMatrix>, Arc<[f64]>)> {
        let norms = match self.norms {
            Some(norms) => norms,
            None => self.matrix.row_l2_norms(),
        };
        if !norms.iter().all(|n| n.is_finite()) {
            self.matrix.check_finite(what)?;
        }
        Ok((self.matrix, norms.into()))
    }
}

impl Halves {
    /// Derives the query structures from raw half products, taking what
    /// the writer already computed: row norms written with a half are
    /// used as they are, and a given `right_t` is used in place of
    /// transposing the right half. Every value must be finite (see
    /// [`RawHalf`] for how the norms vouch for it). `right = None` means
    /// the right half is `left` itself (an even symmetric path): it then
    /// shares `left`'s storage and norms, and the derivation runs one
    /// norm pass and at most one transpose. The engine's builds and
    /// snapshot installs both come through here, so they reach the same
    /// layout.
    pub(crate) fn derive(
        left: RawHalf,
        right: Option<RawHalf>,
        right_t: Option<CsrMatrix>,
    ) -> Result<Halves> {
        let (left, left_norms) = left.normed("hetesim left half")?;
        let (right, right_norms) = match right {
            Some(right) => right.normed("hetesim right half")?,
            None => (Arc::clone(&left), Arc::clone(&left_norms)),
        };
        Ok(Halves {
            right_t: right_t.unwrap_or_else(|| right.transpose()),
            left,
            right,
            left_norms,
            right_norms,
        })
    }

    /// True when `right` and `right_norms` share `left`'s storage.
    pub fn shares_left(&self) -> bool {
        Arc::ptr_eq(&self.left, &self.right)
    }

    /// Approximate heap residency of the matrices and norm vectors, with
    /// shared storage counted once. CSR row pointers are `u32` (nnz is
    /// checked to fit the u32 index space at construction), so a cached
    /// half costs `12·nnz + 4·(nrows+1)` matrix bytes — budgets sized
    /// against the old `usize` pointers hold strictly more entries now.
    pub fn mem_bytes(&self) -> usize {
        let f64s = std::mem::size_of::<f64>();
        let mut bytes =
            self.left.mem_bytes() + self.right_t.mem_bytes() + self.left_norms.len() * f64s;
        if !self.shares_left() {
            bytes += self.right.mem_bytes();
        }
        if !Arc::ptr_eq(&self.left_norms, &self.right_norms) {
            bytes += self.right_norms.len() * f64s;
        }
        bytes
    }
}

/// A cached value plus the bookkeeping the byte-budgeted eviction policy
/// needs: its residency and the logical clock of its last access.
#[derive(Debug)]
struct Entry {
    value: Arc<Halves>,
    bytes: u64,
    /// Logical access time (ticks of the cache-wide counter). Updated on
    /// every hit under the read lock, which is why it is atomic.
    last_used: AtomicU64,
}

/// The outcome of one build, shared by every caller that joined it.
type Flight = OnceLock<Result<Arc<Halves>>>;

/// What the map holds for a key: finished halves, or a build in flight
/// that concurrent callers for the same key wait on.
#[derive(Debug)]
enum Slot {
    Ready(Entry),
    Building(Arc<Flight>),
}

/// A concurrent memo table from path cache keys to materialized halves,
/// with an optional byte budget enforced by least-recently-used eviction.
///
/// Shared by reference inside [`crate::HeteSimEngine`]; a read-mostly
/// `RwLock` keeps concurrent access cheap, matching the "frequently-used
/// relevance paths are computed off-line, on-line search only locates rows"
/// usage pattern the paper describes. Lookups are mirrored into the
/// `core.cache.prefix_cache.*` observability counters when metrics are
/// enabled.
///
/// # Single-flight builds
///
/// Concurrent misses on one key build its halves once: the first caller
/// runs its build closure with no lock held, and the others wait for its
/// result and share the same [`Arc`] (they count as hits). A failed build
/// is not cached; every caller that joined it gets the error. If the
/// building thread panics, one of the waiters runs its own closure.
///
/// # Byte budget
///
/// [`PathCache::set_budget_bytes`] caps the approximate resident bytes of
/// the cached halves. When an insert pushes residency past the cap,
/// entries are evicted least-recently-used first until the cache fits
/// again; each eviction increments the `core.cache.evictions` counter and
/// the current residency is published as the `core.cache.resident_bytes`
/// gauge. A value whose own footprint exceeds the whole budget is returned
/// to the caller but never cached, so resident bytes never exceed the
/// budget. Evicting an entry only drops the cache's reference: outstanding
/// [`Arc`]s returned from earlier lookups keep their data alive until
/// released, and a later lookup of an evicted key simply rebuilds it.
#[derive(Debug)]
pub struct PathCache {
    inner: RwLock<HashMap<String, Slot>>,
    hits: AtomicU64,
    misses: AtomicU64,
    /// Approximate resident bytes of everything cached.
    bytes: AtomicU64,
    /// Byte budget; `0` means unlimited.
    budget: AtomicU64,
    /// Entries evicted to stay under the budget (does not count
    /// [`PathCache::clear`]).
    evictions: AtomicU64,
    /// Logical clock driving LRU ordering.
    tick: AtomicU64,
}

impl Default for PathCache {
    fn default() -> PathCache {
        PathCache {
            inner: RwLock::named("core.cache.inner", HashMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
            budget: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            tick: AtomicU64::new(0),
        }
    }
}

impl PathCache {
    /// An empty, unbounded cache.
    pub fn new() -> Self {
        PathCache::default()
    }

    /// An empty cache that evicts least-recently-used entries once
    /// resident bytes would exceed `budget_bytes` (`0` = unlimited).
    pub fn with_budget_bytes(budget_bytes: u64) -> Self {
        let cache = PathCache::default();
        cache.budget.store(budget_bytes, Ordering::Relaxed);
        cache
    }

    /// Sets the byte budget (`0` = unlimited). Shrinking the budget below
    /// current residency evicts immediately.
    pub fn set_budget_bytes(&self, budget_bytes: u64) {
        self.budget.store(budget_bytes, Ordering::Relaxed);
        let mut inner = self.inner.write().unwrap_or_else(PoisonError::into_inner);
        self.evict_locked(&mut inner);
    }

    /// The configured byte budget (`0` = unlimited).
    pub fn budget_bytes(&self) -> u64 {
        self.budget.load(Ordering::Relaxed)
    }

    /// Approximate bytes currently held by the cache.
    pub fn resident_bytes(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }

    /// Entries evicted so far to stay under the budget.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    fn next_tick(&self) -> u64 {
        self.tick.fetch_add(1, Ordering::Relaxed)
    }

    /// Records a lookup answered without building and hands out `value`.
    fn hit(&self, value: &Arc<Halves>) -> Arc<Halves> {
        self.hits.fetch_add(1, Ordering::Relaxed);
        hetesim_obs::add("core.cache.prefix_cache.hits", 1);
        hetesim_obs::trace_event("core.cache.hit");
        Arc::clone(value)
    }

    /// Evicts least-recently-used entries until residency fits the budget
    /// again. Caller holds the write lock.
    fn evict_locked(&self, inner: &mut HashMap<String, Slot>) {
        let budget = self.budget.load(Ordering::Relaxed);
        if budget == 0 {
            return;
        }
        while self.bytes.load(Ordering::Relaxed) > budget {
            // LRU scan: entry counts are small (one per distinct path), so
            // a linear pass beats maintaining an ordered structure under
            // the read-mostly lock.
            let oldest = inner
                .iter()
                .filter_map(|(k, slot)| match slot {
                    Slot::Ready(e) => Some((k, e.last_used.load(Ordering::Relaxed))),
                    Slot::Building(_) => None,
                })
                .min_by_key(|&(_, tick)| tick)
                .map(|(k, _)| k.clone());
            match oldest.and_then(|k| inner.remove(&k)) {
                Some(Slot::Ready(e)) => {
                    self.bytes.fetch_sub(e.bytes, Ordering::Relaxed);
                    self.evictions.fetch_add(1, Ordering::Relaxed);
                    hetesim_obs::add("core.cache.evictions", 1);
                }
                _ => break,
            }
        }
        hetesim_obs::set(
            "core.cache.resident_bytes",
            self.bytes.load(Ordering::Relaxed),
        );
    }

    /// Stores `value` under `key` unless it is larger than the whole
    /// budget, charging its bytes and evicting to fit. Caller holds the
    /// write lock.
    fn store_locked(&self, inner: &mut HashMap<String, Slot>, key: &str, value: Arc<Halves>) {
        let bytes = value.mem_bytes() as u64;
        let budget = self.budget.load(Ordering::Relaxed);
        if budget != 0 && bytes > budget {
            // Larger than the whole budget: the caller gets it uncached so
            // residency never exceeds the cap.
            return;
        }
        let entry = Entry {
            value,
            bytes,
            last_used: AtomicU64::new(self.next_tick()),
        };
        if let Some(Slot::Ready(old)) = inner.insert(key.to_string(), Slot::Ready(entry)) {
            self.bytes.fetch_sub(old.bytes, Ordering::Relaxed);
        }
        self.bytes.fetch_add(bytes, Ordering::Relaxed);
        self.evict_locked(inner);
    }

    /// Fetches the halves for `key`, or builds and inserts them. Concurrent
    /// callers that miss on the same key share one build (see the
    /// type-level docs); `build` runs with no lock held.
    pub fn get_or_build<F>(&self, key: &str, build: F) -> Result<Arc<Halves>>
    where
        F: FnOnce() -> Result<Halves>,
    {
        if let Some(Slot::Ready(e)) = self
            .inner
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(key)
        {
            e.last_used.store(self.next_tick(), Ordering::Relaxed);
            return Ok(self.hit(&e.value));
        }
        let flight = match self
            .inner
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .entry(key.to_string())
        {
            MapEntry::Occupied(slot) => match slot.get() {
                Slot::Ready(e) => {
                    e.last_used.store(self.next_tick(), Ordering::Relaxed);
                    return Ok(self.hit(&e.value));
                }
                Slot::Building(flight) => Arc::clone(flight),
            },
            MapEntry::Vacant(slot) => {
                let flight = Arc::new(Flight::new());
                slot.insert(Slot::Building(Arc::clone(&flight)));
                flight
            }
        };
        // Blocks while another caller runs this flight's build.
        let mut built = false;
        let result = flight
            .get_or_init(|| {
                built = true;
                hetesim_obs::trace_event("core.cache.miss");
                build().map(Arc::new)
            })
            .clone();
        if !built {
            return result.map(|value| self.hit(&value));
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        hetesim_obs::add("core.cache.prefix_cache.misses", 1);
        let mut inner = self.inner.write().unwrap_or_else(PoisonError::into_inner);
        // Publish only if the slot is still this flight: a `clear` or an
        // `insert` during the build already replaced it.
        if matches!(inner.get(key), Some(Slot::Building(f)) if Arc::ptr_eq(f, &flight)) {
            inner.remove(key);
            if let Ok(value) = &result {
                self.store_locked(&mut inner, key, Arc::clone(value));
            }
        }
        result
    }

    /// Installs a pre-built entry under `key` — the snapshot warm-start
    /// path. Counted as neither hit nor miss (nothing was looked up);
    /// budget accounting and eviction behave exactly as for
    /// [`PathCache::get_or_build`], including refusing to cache a value
    /// larger than the whole budget.
    pub fn insert(&self, key: &str, value: Arc<Halves>) {
        let mut inner = self.inner.write().unwrap_or_else(PoisonError::into_inner);
        self.store_locked(&mut inner, key, value);
    }

    /// Number of cached paths.
    pub fn len(&self) -> usize {
        self.inner
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .values()
            .filter(|slot| matches!(slot, Slot::Ready(_)))
            .count()
    }

    /// True if nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Counters and residency since construction or the last clear.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self.len() as u64,
            bytes: self.bytes.load(Ordering::Relaxed),
        }
    }

    /// Drops all cached halves and resets counters. Evicted entries are
    /// counted into `core.cache.prefix_cache.evictions`.
    pub fn clear(&self) {
        let evicted = self.len() as u64;
        hetesim_obs::add("core.cache.prefix_cache.evictions", evicted);
        self.inner
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .clear();
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
        self.bytes.store(0, Ordering::Relaxed);
        hetesim_obs::set("core.cache.resident_bytes", 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CoreError;
    use std::sync::Barrier;
    use std::time::Duration;

    fn bare(m: CsrMatrix) -> RawHalf {
        RawHalf::bare(Arc::new(m))
    }

    fn dummy_halves() -> Halves {
        let m = CsrMatrix::identity(2);
        Halves::derive(bare(m.clone()), Some(bare(m)), None).unwrap()
    }

    #[test]
    fn shared_halves_count_their_storage_once() {
        let m = CsrMatrix::identity(2);
        let one = m.mem_bytes();
        let norms = 2 * std::mem::size_of::<f64>();
        let shared = Halves::derive(bare(m.clone()), None, None).unwrap();
        assert!(shared.shares_left());
        assert!(Arc::ptr_eq(&shared.left_norms, &shared.right_norms));
        // left + right_t + one norm vector.
        assert_eq!(shared.mem_bytes(), 2 * one + norms);
        let separate = Halves::derive(bare(m.clone()), Some(bare(m)), None).unwrap();
        assert!(!separate.shares_left());
        // left + right + right_t + two norm vectors.
        assert_eq!(separate.mem_bytes(), 3 * one + 2 * norms);
        assert_eq!(shared.right_t, separate.right_t);
        assert_eq!(*shared.right_norms, *separate.right_norms);
    }

    #[test]
    fn norms_vouch_for_finiteness_and_overflowing_squares_still_pass() {
        let m = |v: f64| CsrMatrix::from_raw(2, 2, vec![0, 1, 2], vec![0, 1], vec![1.0, v]);
        let nan = Halves::derive(bare(m(1.0)), Some(bare(m(f64::NAN))), None).unwrap_err();
        assert!(matches!(
            nan,
            CoreError::Sparse(hetesim_sparse::SparseError::NotFinite {
                op: "hetesim right half"
            })
        ));
        let inf = Halves::derive(bare(m(f64::INFINITY)), None, None).unwrap_err();
        assert!(matches!(
            inf,
            CoreError::Sparse(hetesim_sparse::SparseError::NotFinite {
                op: "hetesim left half"
            })
        ));
        // Finite values whose squares overflow: the norm is infinite, the
        // explicit check passes, and the half is kept as it is.
        let big = Halves::derive(bare(m(1e200)), None, None).unwrap();
        assert_eq!(big.left_norms[1], f64::INFINITY);
        // Norms and a transpose handed in are used as they are.
        let given = Halves::derive(
            RawHalf {
                matrix: Arc::new(m(2.0)),
                norms: Some(vec![1.0, 2.0]),
            },
            None,
            Some(m(2.0).transpose()),
        )
        .unwrap();
        assert_eq!(*given.left_norms, [1.0, 2.0]);
        assert_eq!(given.right_t, m(2.0));
    }

    #[test]
    fn build_once_then_hit() {
        let cache = PathCache::new();
        let mut builds = 0;
        for _ in 0..3 {
            let r = cache.get_or_build("k", || {
                builds += 1;
                Ok(dummy_halves())
            });
            assert!(r.is_ok());
        }
        assert_eq!(builds, 1);
        assert_eq!(cache.len(), 1);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (2, 1));
        assert_eq!(stats.entries, 1);
        assert!(stats.bytes > 0, "cached halves should report residency");
    }

    fn boom() -> CoreError {
        CoreError::NodeOutOfRange {
            endpoint: "source",
            index: 7,
            count: 1,
        }
    }

    #[test]
    fn build_errors_are_propagated_and_not_cached() {
        let cache = PathCache::new();
        let r = cache.get_or_build("k", || Err(boom()));
        assert_eq!(r.unwrap_err(), boom());
        assert!(cache.is_empty());
        assert_eq!(cache.stats().bytes, 0);
    }

    /// Runs `build` for one cold key from `THREADS` threads released
    /// together, returning every thread's result and the number of builds.
    fn race_one_key(
        build: impl Fn() -> Result<Halves> + Sync,
    ) -> (PathCache, Vec<Result<Arc<Halves>>>, usize) {
        const THREADS: usize = 8;
        let cache = PathCache::new();
        let builds = AtomicU64::new(0);
        let barrier = Barrier::new(THREADS);
        let results = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..THREADS)
                .map(|_| {
                    scope.spawn(|| {
                        barrier.wait();
                        cache.get_or_build("cold", || {
                            builds.fetch_add(1, Ordering::Relaxed);
                            std::thread::sleep(Duration::from_millis(20));
                            build()
                        })
                    })
                })
                .collect();
            workers
                .into_iter()
                .map(|w| w.join().unwrap())
                .collect::<Vec<_>>()
        });
        (cache, results, builds.into_inner() as usize)
    }

    #[test]
    fn concurrent_misses_build_once() {
        let (cache, results, builds) = race_one_key(|| Ok(dummy_halves()));
        assert_eq!(builds, 1);
        let first = results[0].as_ref().unwrap();
        for r in &results {
            assert!(Arc::ptr_eq(first, r.as_ref().unwrap()));
        }
        let stats = cache.stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, results.len() as u64 - 1);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn failed_flight_errors_every_caller_and_caches_nothing() {
        let (cache, results, builds) = race_one_key(|| Err(boom()));
        assert_eq!(builds, 1);
        for r in &results {
            assert_eq!(r.as_ref().unwrap_err(), &boom());
        }
        assert!(cache.is_empty());
        assert_eq!(cache.resident_bytes(), 0);
        // The next lookup starts a new flight.
        let mut rebuilt = false;
        let _ = cache.get_or_build("cold", || {
            rebuilt = true;
            Ok(dummy_halves())
        });
        assert!(rebuilt);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn clear_resets() {
        let cache = PathCache::new();
        let _ = cache.get_or_build("k", || Ok(dummy_halves()));
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.stats(), CacheStats::default());
    }

    #[test]
    fn distinct_keys_distinct_entries() {
        let cache = PathCache::new();
        let _ = cache.get_or_build("a", || Ok(dummy_halves()));
        let _ = cache.get_or_build("b", || Ok(dummy_halves()));
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().entries, 2);
    }

    /// Bytes one dummy halves entry occupies, as the cache accounts it.
    fn entry_bytes() -> u64 {
        dummy_halves().mem_bytes() as u64
    }

    #[test]
    fn resident_bytes_never_exceed_budget() {
        let per = entry_bytes();
        // Room for exactly two entries.
        let cache = PathCache::with_budget_bytes(2 * per);
        for i in 0..10 {
            let _ = cache.get_or_build(&i.to_string(), || Ok(dummy_halves()));
            assert!(
                cache.resident_bytes() <= cache.budget_bytes(),
                "after insert {i}: resident {} > budget {}",
                cache.resident_bytes(),
                cache.budget_bytes()
            );
        }
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.evictions(), 8);
    }

    #[test]
    fn eviction_is_least_recently_used() {
        let per = entry_bytes();
        let cache = PathCache::with_budget_bytes(2 * per);
        let _ = cache.get_or_build("a", || Ok(dummy_halves()));
        let _ = cache.get_or_build("b", || Ok(dummy_halves()));
        // Touch "a" so "b" becomes the LRU entry.
        let _ = cache.get_or_build("a", || panic!("a should be cached"));
        let _ = cache.get_or_build("c", || Ok(dummy_halves()));
        // "b" was evicted; "a" and "c" survive.
        let _ = cache.get_or_build("a", || panic!("a should have survived"));
        let _ = cache.get_or_build("c", || panic!("c should have survived"));
        let mut rebuilt = false;
        let _ = cache.get_or_build("b", || {
            rebuilt = true;
            Ok(dummy_halves())
        });
        assert!(rebuilt, "evicted entry must rebuild on re-query");
    }

    #[test]
    fn evicted_path_is_rebuilt_correctly() {
        let per = entry_bytes();
        let cache = PathCache::with_budget_bytes(per);
        let _ = cache.get_or_build("a", || Ok(dummy_halves()));
        // Inserting "b" evicts "a" (budget fits one entry).
        let _ = cache.get_or_build("b", || Ok(dummy_halves()));
        assert_eq!(cache.len(), 1);
        let again = cache.get_or_build("a", || Ok(dummy_halves()));
        let h = again.unwrap();
        // The rebuilt entry carries full, correct data.
        assert_eq!(h.left.nrows(), 2);
        assert_eq!(*h.left_norms, [1.0, 1.0]);
        assert!(cache.resident_bytes() <= per);
    }

    #[test]
    fn oversized_entry_is_served_but_not_cached() {
        let per = entry_bytes();
        let cache = PathCache::with_budget_bytes(per / 2);
        let r = cache.get_or_build("big", || Ok(dummy_halves()));
        assert_eq!(r.unwrap().left.nrows(), 2);
        assert!(cache.is_empty());
        assert_eq!(cache.resident_bytes(), 0);
    }

    #[test]
    fn shrinking_budget_evicts_immediately() {
        let per = entry_bytes();
        let cache = PathCache::new();
        for key in ["a", "b", "c"] {
            let _ = cache.get_or_build(key, || Ok(dummy_halves()));
        }
        assert_eq!(cache.resident_bytes(), 3 * per);
        cache.set_budget_bytes(per);
        assert!(cache.resident_bytes() <= per);
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.evictions(), 2);
    }

    #[test]
    fn zero_budget_means_unlimited() {
        let cache = PathCache::with_budget_bytes(0);
        for i in 0..20 {
            let _ = cache.get_or_build(&i.to_string(), || Ok(dummy_halves()));
        }
        assert_eq!(cache.len(), 20);
        assert_eq!(cache.evictions(), 0);
    }
}
