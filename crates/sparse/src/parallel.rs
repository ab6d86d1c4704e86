//! Two-phase (symbolic/numeric) parallel SpGEMM with flop-balanced
//! dynamic scheduling and per-row adaptive accumulators on `std::thread`
//! scoped threads.
//!
//! Full-matrix HeteSim on the synthetic ACM network multiplies matrices
//! whose row work is wildly skewed: a handful of Zipfian star authors
//! concentrate most of the multiply-adds in a few rows, so splitting the
//! row range into equally-*sized* contiguous blocks (the original kernel)
//! leaves most workers idle while one grinds through the hot rows. This
//! kernel instead:
//!
//! 1. counts the exact flops of every output row (`O(nnz(lhs))` from the
//!    two indptr arrays, no value access),
//! 2. runs a **symbolic** pass that computes each output row's nnz, over
//!    chunks of near-equal *flops* claimed dynamically off an atomic
//!    cursor,
//! 3. prefix-sums the row nnz into the final `indptr` and allocates the
//!    output `indices`/`values` exactly once, and
//! 4. runs the **numeric** pass over the same flop-balanced chunks,
//!    writing each row straight into its final slot — no per-block `Vec`
//!    growth, no stitch-copy. Because the symbolic pass produced each
//!    row's *exact* nnz, every row is routed to one of two accumulator
//!    kernels: a dense accumulator with a touched-column bitmap for rows
//!    dense enough that draining the bitmap beats sorting (see
//!    [`dense_accumulator_selected`]), or the sorted-touched-list sparse
//!    accumulator for the narrow tail.
//!
//! Worker scratch (accumulator, bitmap, stamped mark array) comes from a
//! process-wide pooled arena, so back-to-back products in a meta-path
//! chain stop re-faulting multi-megabyte buffers; the pool's residency is
//! published on the `sparse.parallel.arena_bytes` gauge (also readable
//! via [`arena_resident_bytes`]).
//!
//! The kernel also supports **fused row normalization** (used by
//! [`crate::chain::multiply_chain`]): per-row divisors for either operand are
//! applied inside the numeric pass (left values divided on load, right
//! values pre-divided once into pooled scratch), so HeteSim's
//! normalize-then-multiply chains skip materializing the normalized
//! matrices entirely. Each value is divided exactly once by exactly the
//! divisor `row_normalized` would have used, keeping the fused product
//! bitwise equal to the unfused pipeline.
//! It also supports **fused output scaling** ([`matmul_parallel_scaled`]):
//! each output entry `(r, c)` is divided by `rows[r] * cols[c]` as its
//! row is written, so HeteSim's cosine-normalized relevance matrix needs
//! no second pass over the product.
//!
//! The serial kernel ([`CsrMatrix::matmul`]) remains the reference
//! implementation; `matmul_parallel` agrees with it bit-for-bit
//! (indptr/indices/values), since each output row is computed by exactly
//! one worker using the same row kernels (`crate::kernel`) in the same
//! order.
//!
//! When metrics are enabled (`hetesim-obs`), the kernel records
//! `sparse.parallel.symbolic` / `sparse.parallel.numeric` spans,
//! `sparse.parallel.worker_busy_us` / `sparse.parallel.worker_idle_us`
//! histograms of per-worker utilization (busy = time inside claimed
//! chunks, idle = everything else on the worker: spawn latency, scratch
//! allocation, claim waits), `sparse.parallel.dense_rows` /
//! `sparse.parallel.sparse_rows` counters of the numeric pass's kernel
//! routing, and a `sparse.parallel.imbalance` gauge — max/mean per-worker
//! busy time of the numeric pass in fixed-point thousandths (1000 =
//! perfectly balanced), which the `spgemm_scaling` bench asserts stays
//! near 1. The same per-worker numbers are kept as a [`PoolStats`] record
//! retrievable once via [`take_pool_stats`], which the bench attaches to
//! `BENCH_spgemm.json` runs.

use crate::kernel::{self, Divisors};
use crate::scratch::{self, Scratch};
use crate::{check_nnz, CsrMatrix, Result, SparseError};
use hetesim_obs::lockcheck::TrackedMutex as Mutex;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::PoisonError;

pub use crate::kernel::{dense_accumulator_selected, DENSE_GATHER_WORDS_PER_NNZ};
pub use crate::scratch::arena_resident_bytes;

/// Environment variable overriding [`default_threads`]; `0` or unset
/// means "auto" (one worker per available core).
pub const THREADS_ENV: &str = "HETESIM_THREADS";

/// Products below this many multiply-adds skip the symbolic pass and the
/// thread pool entirely: at ~10⁵ flops the serial kernel finishes in well
/// under a millisecond, which is the order of thread spawn + join cost.
const PARALLEL_FLOP_THRESHOLD: u64 = 1 << 17;

/// Chunks handed out per worker. The tail chunk of each worker bounds its
/// overshoot past the mean, so per-worker imbalance shrinks roughly as
/// `1 + 1/CHUNKS_PER_THREAD`; at 32 the expected numeric-pass imbalance
/// stays within the 1.25 budget the scaling bench asserts at 4 threads,
/// while a claim is still just one uncontended `fetch_add`. (The previous
/// value of 8 let imbalance grow with the thread count: more workers ⇒
/// fewer chunks each ⇒ coarser tails.)
const CHUNKS_PER_THREAD: usize = 32;

/// Per-worker utilization of the most recent two-phase product, captured
/// only while metrics are enabled. One entry per worker, in join order;
/// microsecond resolution from the sanctioned [`hetesim_obs::Stopwatch`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Symbolic-pass time inside claimed chunks, per worker.
    pub symbolic_busy_us: Vec<u64>,
    /// Symbolic-pass time outside chunks (spawn, scratch, claim waits).
    pub symbolic_idle_us: Vec<u64>,
    /// Numeric-pass time inside claimed chunks, per worker.
    pub numeric_busy_us: Vec<u64>,
    /// Numeric-pass time outside chunks, per worker.
    pub numeric_idle_us: Vec<u64>,
}

/// Utilization of the most recent [`two_phase`] run, for [`take_pool_stats`].
static LAST_POOL_STATS: Mutex<Option<PoolStats>> = Mutex::named("sparse.parallel.pool_stats", None);

/// Takes (and clears) the per-worker utilization record of the most
/// recent parallel product. `None` while metrics are disabled or when no
/// two-phase product has run since the last take.
pub fn take_pool_stats() -> Option<PoolStats> {
    LAST_POOL_STATS
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .take()
}

/// Default number of worker threads.
///
/// The `HETESIM_THREADS` environment variable overrides it (any positive
/// integer; `0` or unparsable values fall back to auto-detection).
/// Auto-detection uses the machine's available parallelism; the
/// `spgemm_scaling` bench bin records the measured speedup curve to
/// `BENCH_spgemm.json` — on the Zipfian ACM-scale product the curve keeps
/// climbing to the core count, so no artificial cap is applied beyond the
/// hardware's own.
pub fn default_threads() -> usize {
    if let Ok(v) = std::env::var(THREADS_ENV) {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Exact multiply-add count of every output row of `lhs * rhs`, plus the
/// total: `flops[r] = Σ_{k ∈ supp(lhs[r])} nnz(rhs[k])`. Reads only the
/// two index structures, never the values.
fn row_flops(lhs: &CsrMatrix, rhs: &CsrMatrix) -> (Vec<u64>, u64) {
    let rhs_indptr = rhs.indptr();
    let mut flops = vec![0u64; lhs.nrows()];
    let mut total = 0u64;
    for (r, f) in flops.iter_mut().enumerate() {
        let row_total: u64 = lhs
            .row_indices(r)
            .iter()
            .map(|&k| (rhs_indptr[k as usize + 1] - rhs_indptr[k as usize]) as u64)
            .sum();
        *f = row_total;
        total += row_total;
    }
    (flops, total)
}

/// Splits `0..nrows` into contiguous chunks of near-equal total flops.
/// A single row hotter than the per-chunk target becomes its own chunk,
/// so one star row can never drag a cold neighbour along with it. With
/// zero total flops (all-empty product) rows are split evenly instead.
fn flop_chunks(flops: &[u64], total: u64, target_chunks: usize) -> Vec<(usize, usize)> {
    let nrows = flops.len();
    let target_chunks = target_chunks.clamp(1, nrows.max(1));
    let mut chunks = Vec::with_capacity(target_chunks);
    if total == 0 {
        let step = nrows.div_ceil(target_chunks);
        let mut lo = 0;
        while lo < nrows {
            let hi = (lo + step).min(nrows);
            chunks.push((lo, hi));
            lo = hi;
        }
        return chunks;
    }
    let per_chunk = (total / target_chunks as u64).max(1);
    let mut lo = 0;
    let mut acc = 0u64;
    for (r, &f) in flops.iter().enumerate() {
        acc += f;
        if acc >= per_chunk {
            chunks.push((lo, r + 1));
            lo = r + 1;
            acc = 0;
        }
    }
    if lo < nrows {
        chunks.push((lo, nrows));
    }
    chunks
}

/// Splits `data` into per-chunk mutable sub-slices along `boundaries`
/// (indices into `data`, one `(lo, hi)` pair per chunk, contiguous and
/// ascending). Wrapped in `Option` so dynamic workers can `take()` their
/// claimed chunk out of the shared table.
fn split_chunks<T>(
    mut data: &mut [T],
    boundaries: impl Iterator<Item = (usize, usize)>,
) -> Vec<Option<&mut [T]>> {
    let mut out = Vec::new();
    let mut consumed = 0;
    for (lo, hi) in boundaries {
        debug_assert_eq!(lo, consumed, "chunk boundaries must be contiguous");
        let (head, tail) = data.split_at_mut(hi - lo);
        out.push(Some(head));
        data = tail;
        consumed = hi;
    }
    out
}

/// Distinct-column count of every output row of `lhs * rhs` — the result
/// of the symbolic pass, exposed for tests and capacity planning.
///
/// This is exactly `nnz` of each row of the product *except* when exact
/// floating-point cancellation zeroes an entry (the serial kernel drops
/// such entries), in which case it is a per-row upper bound; the numeric
/// pass detects that rare case and compacts the output.
pub fn symbolic_row_nnz(lhs: &CsrMatrix, rhs: &CsrMatrix) -> Result<Vec<usize>> {
    if lhs.ncols() != rhs.nrows() {
        return Err(SparseError::DimensionMismatch {
            op: "symbolic spgemm",
            left: lhs.shape(),
            right: rhs.shape(),
        });
    }
    let mut s = scratch::take(rhs.ncols());
    let counts = (0..lhs.nrows())
        .map(|r| {
            s.stamp += 1;
            kernel::symbolic_row(lhs, rhs, r, &mut s.mark, s.stamp)
        })
        .collect();
    scratch::put(s);
    Ok(counts)
}

/// Parallel sparse product `lhs * rhs` using `threads` workers.
///
/// Falls back to the serial kernel when `threads <= 1` or the product is
/// small enough (by exact flop count) that thread startup would dominate.
/// The output is bit-identical to [`CsrMatrix::matmul`] at every thread
/// count.
pub fn matmul_parallel(lhs: &CsrMatrix, rhs: &CsrMatrix, threads: usize) -> Result<CsrMatrix> {
    matmul_parallel_fused(lhs, rhs, Divisors::default(), threads)
}

/// [`matmul_parallel`] with every output entry `(r, c)` divided by
/// `row_div[r] * col_div[c]` as its row is written. Entries are dropped
/// by the kernels' `v != 0.0` rule before the division, and every kept
/// entry is divided, so the result is bit-identical to
/// `matmul_parallel(lhs, rhs, threads)?.map_stored(|r, c, v| Some(v / (row_div[r] * col_div[c])))`
/// at every thread count, without the second pass over the product.
pub fn matmul_parallel_scaled(
    lhs: &CsrMatrix,
    rhs: &CsrMatrix,
    row_div: &[f64],
    col_div: &[f64],
    threads: usize,
) -> Result<CsrMatrix> {
    if row_div.len() != lhs.nrows() || col_div.len() != rhs.ncols() {
        return Err(SparseError::DimensionMismatch {
            op: "scaled spgemm divisors",
            left: (row_div.len(), col_div.len()),
            right: (lhs.nrows(), rhs.ncols()),
        });
    }
    let div = Divisors {
        out: Some((row_div, col_div)),
        ..Divisors::default()
    };
    matmul_parallel_fused(lhs, rhs, div, threads)
}

/// [`matmul_parallel`] with fused divisors: computes
/// `rowdiv(lhs, div.lhs) * rowdiv(rhs, div.rhs)` where `rowdiv` divides
/// each row of its operand by the corresponding divisor (`None` = no
/// scaling), without materializing the scaled operands, and divides the
/// output by `div.out` as each row is written. With divisors from
/// [`CsrMatrix::row_sum_divisors`] the result is bit-identical to
/// `lhs.row_normalized().matmul(&rhs.row_normalized())` — each stored
/// value is divided exactly once by exactly the divisor the materialized
/// pipeline uses.
pub(crate) fn matmul_parallel_fused(
    lhs: &CsrMatrix,
    rhs: &CsrMatrix,
    div: Divisors<'_>,
    threads: usize,
) -> Result<CsrMatrix> {
    check_dims(lhs, rhs)?;
    if threads <= 1 || lhs.nrows() == 0 {
        return lhs.matmul_fused(rhs, div);
    }
    let (flops, total_flops) = row_flops(lhs, rhs);
    if total_flops < PARALLEL_FLOP_THRESHOLD {
        return lhs.matmul_fused(rhs, div);
    }
    two_phase(lhs, rhs, div, threads, flops, total_flops)
}

/// The two-phase kernel without the size fallback: always runs symbolic +
/// numeric passes with `threads` workers (clamped to the row count), no
/// matter how small the product. Benchmark/ablation/test entry point —
/// production code should call [`matmul_parallel`], which skips the
/// machinery when the serial kernel is already faster.
pub fn matmul_two_phase(lhs: &CsrMatrix, rhs: &CsrMatrix, threads: usize) -> Result<CsrMatrix> {
    check_dims(lhs, rhs)?;
    if lhs.nrows() == 0 {
        return lhs.matmul(rhs);
    }
    let (flops, total_flops) = row_flops(lhs, rhs);
    two_phase(
        lhs,
        rhs,
        Divisors::default(),
        threads.max(1),
        flops,
        total_flops,
    )
}

fn check_dims(lhs: &CsrMatrix, rhs: &CsrMatrix) -> Result<()> {
    if lhs.ncols() == rhs.nrows() {
        Ok(())
    } else {
        Err(SparseError::DimensionMismatch {
            op: "parallel spgemm",
            left: lhs.shape(),
            right: rhs.shape(),
        })
    }
}

fn two_phase(
    lhs: &CsrMatrix,
    rhs: &CsrMatrix,
    div: Divisors<'_>,
    threads: usize,
    flops: Vec<u64>,
    total_flops: u64,
) -> Result<CsrMatrix> {
    let nrows = lhs.nrows();
    let ncols = rhs.ncols();
    let threads = threads.min(nrows).max(1);
    let lhs_div = div.lhs;
    debug_assert!(lhs_div.map_or(true, |d| d.len() == nrows));
    debug_assert!(div.rhs.map_or(true, |d| d.len() == rhs.nrows()));
    let _span = hetesim_obs::span!(
        "sparse.parallel.matmul",
        rows = nrows,
        lhs_nnz = lhs.nnz(),
        rhs_nnz = rhs.nnz(),
        threads = threads,
        flops = total_flops,
    );
    let chunks = flop_chunks(&flops, total_flops, threads * CHUNKS_PER_THREAD);
    let nchunks = chunks.len();

    // --- Symbolic pass: per-row output nnz over flop-balanced chunks,
    // routed to the bitmap counter for flop-heavy rows (the same density
    // heuristic the numeric pass applies with the exact counts). ---
    let mut row_nnz = vec![0usize; nrows];
    let mut sym_busy: Vec<u64> = Vec::new();
    let mut sym_idle: Vec<u64> = Vec::new();
    {
        let _sym = hetesim_obs::span("sparse.parallel.symbolic");
        let slots = Mutex::new(split_chunks(&mut row_nnz, chunks.iter().copied()));
        let cursor = AtomicUsize::new(0);
        let flops = &flops;
        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(threads);
            for _ in 0..threads {
                handles.push(scope.spawn(|| {
                    let wall = hetesim_obs::Stopwatch::start();
                    let mut busy = 0u64;
                    let mut s = scratch::take(ncols);
                    loop {
                        let c = cursor.fetch_add(1, Ordering::Relaxed);
                        if c >= nchunks {
                            break;
                        }
                        let work = hetesim_obs::Stopwatch::start();
                        let out = slots.lock().unwrap_or_else(PoisonError::into_inner)[c]
                            .take()
                            .expect("chunk claimed once");
                        let (lo, _hi) = chunks[c];
                        for (i, slot) in out.iter_mut().enumerate() {
                            let r = lo + i;
                            // One lhs entry ⇒ the output row is one rhs
                            // row: its nnz is exact without any scatter.
                            *slot = if lhs.row_nnz(r) == 1 {
                                flops[r] as usize
                            } else if kernel::dense_accumulator_selected(flops[r] as usize, ncols) {
                                kernel::symbolic_row_bitmap(lhs, rhs, r, &mut s.mask)
                            } else {
                                s.stamp += 1;
                                kernel::symbolic_row(lhs, rhs, r, &mut s.mark, s.stamp)
                            };
                        }
                        busy += work.elapsed_us();
                    }
                    scratch::put(s);
                    (busy, wall.elapsed_us().saturating_sub(busy))
                }));
            }
            for h in handles {
                let (busy, idle) = h.join().expect("spgemm worker panicked");
                sym_busy.push(busy);
                sym_idle.push(idle);
            }
        });
    }
    record_utilization(&sym_busy, &sym_idle);

    // --- Exact allocation: prefix-sum the counts into the final indptr. ---
    let mut indptr = Vec::with_capacity(nrows + 1);
    indptr.push(0usize);
    let mut running = 0usize;
    for &n in &row_nnz {
        running += n;
        indptr.push(running);
    }
    let symbolic_nnz = running;
    if check_nnz(symbolic_nnz).is_err() {
        return Err(SparseError::NnzOverflow { nnz: symbolic_nnz });
    }
    let mut indices = vec![0u32; symbolic_nnz];
    let mut values = vec![0f64; symbolic_nnz];

    // --- Numeric pass: same chunks, rows written straight into place,
    // each row routed by its exact nnz to the dense or sparse kernel. ---
    // `actual` records how many entries each row really produced; it can
    // fall short of the symbolic count only under exact cancellation.
    let mut host = scratch::take(0);
    let rhs_vals: &[f64] = match div.rhs {
        Some(d) => {
            kernel::scaled_values_into(rhs, d, &mut host.vals);
            &host.vals
        }
        None => rhs.values(),
    };
    let mut actual = vec![0usize; nrows];
    let mut busy_us: Vec<u64> = Vec::new();
    let mut idle_us: Vec<u64> = Vec::new();
    let (mut dense_total, mut sparse_total) = (0u64, 0u64);
    {
        let _num = hetesim_obs::span("sparse.parallel.numeric");
        let entry_bounds = chunks.iter().map(|&(lo, hi)| (indptr[lo], indptr[hi]));
        let ind_slots = Mutex::new(split_chunks(&mut indices, entry_bounds.clone()));
        let val_slots = Mutex::new(split_chunks(&mut values, entry_bounds));
        let act_slots = Mutex::new(split_chunks(&mut actual, chunks.iter().copied()));
        let cursor = AtomicUsize::new(0);
        let indptr = &indptr;
        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(threads);
            for _ in 0..threads {
                handles.push(scope.spawn(|| {
                    let wall = hetesim_obs::Stopwatch::start();
                    let mut busy = 0u64;
                    let mut s = scratch::take(ncols);
                    let (mut dense_rows, mut sparse_rows) = (0u64, 0u64);
                    loop {
                        let c = cursor.fetch_add(1, Ordering::Relaxed);
                        if c >= nchunks {
                            break;
                        }
                        let work = hetesim_obs::Stopwatch::start();
                        let ind = ind_slots.lock().unwrap_or_else(PoisonError::into_inner)[c]
                            .take()
                            .expect("claimed once");
                        let val = val_slots.lock().unwrap_or_else(PoisonError::into_inner)[c]
                            .take()
                            .expect("claimed once");
                        let act = act_slots.lock().unwrap_or_else(PoisonError::into_inner)[c]
                            .take()
                            .expect("claimed once");
                        let (lo, hi) = chunks[c];
                        let base = indptr[lo];
                        let Scratch {
                            acc,
                            mask,
                            mark,
                            stamp,
                            touched,
                            ..
                        } = &mut s;
                        for (i, r) in (lo..hi).enumerate() {
                            let (st, en) = (indptr[r] - base, indptr[r + 1] - base);
                            let cnt = en - st;
                            if cnt == 0 {
                                act[i] = 0;
                                continue;
                            }
                            act[i] = if lhs.row_nnz(r) == 1 {
                                // Scaled copy of one rhs row — counted
                                // with the non-dense family.
                                sparse_rows += 1;
                                kernel::numeric_row_copy(
                                    lhs,
                                    lhs_div,
                                    rhs,
                                    rhs_vals,
                                    r,
                                    &mut ind[st..en],
                                    &mut val[st..en],
                                )
                            } else if kernel::dense_accumulator_selected(cnt, ncols) {
                                dense_rows += 1;
                                kernel::numeric_row_dense(
                                    lhs,
                                    lhs_div,
                                    rhs,
                                    rhs_vals,
                                    r,
                                    acc,
                                    mask,
                                    &mut ind[st..en],
                                    &mut val[st..en],
                                )
                            } else {
                                sparse_rows += 1;
                                *stamp += 1;
                                kernel::numeric_row_sparse(
                                    lhs,
                                    lhs_div,
                                    rhs,
                                    rhs_vals,
                                    r,
                                    acc,
                                    mark,
                                    *stamp,
                                    touched,
                                    &mut ind[st..en],
                                    &mut val[st..en],
                                )
                            };
                            if let Some((rows, cols)) = div.out {
                                let end = st + act[i];
                                kernel::divide_row(&ind[st..end], &mut val[st..end], rows[r], cols);
                            }
                        }
                        busy += work.elapsed_us();
                    }
                    scratch::put(s);
                    (
                        busy,
                        wall.elapsed_us().saturating_sub(busy),
                        dense_rows,
                        sparse_rows,
                    )
                }));
            }
            for h in handles {
                let (busy, idle, dense, sparse) = h.join().expect("spgemm worker panicked");
                busy_us.push(busy);
                idle_us.push(idle);
                dense_total += dense;
                sparse_total += sparse;
            }
        });
    }
    scratch::put(host);
    record_utilization(&busy_us, &idle_us);
    record_balance(&busy_us);
    hetesim_obs::add("sparse.parallel.dense_rows", dense_total);
    hetesim_obs::add("sparse.parallel.sparse_rows", sparse_total);
    if hetesim_obs::is_enabled() {
        *LAST_POOL_STATS
            .lock()
            .unwrap_or_else(PoisonError::into_inner) = Some(PoolStats {
            symbolic_busy_us: sym_busy,
            symbolic_idle_us: sym_idle,
            numeric_busy_us: busy_us,
            numeric_idle_us: idle_us,
        });
    }

    let actual_nnz: usize = actual.iter().sum();
    if actual_nnz != symbolic_nnz {
        // Rare: exact cancellation dropped entries the symbolic pass
        // counted. Compact rows left-to-right and rebuild indptr.
        let mut write = 0usize;
        let mut compact_indptr = Vec::with_capacity(nrows + 1);
        compact_indptr.push(0usize);
        for r in 0..nrows {
            let start = indptr[r];
            indices.copy_within(start..start + actual[r], write);
            values.copy_within(start..start + actual[r], write);
            write += actual[r];
            compact_indptr.push(write);
        }
        indices.truncate(write);
        values.truncate(write);
        indptr = compact_indptr;
    }
    hetesim_obs::add("sparse.parallel.matmul.out_nnz", actual_nnz as u64);
    Ok(CsrMatrix::from_raw_usize(
        nrows, ncols, indptr, indices, values,
    ))
}

/// Publishes the `sparse.parallel.imbalance` gauge from the numeric
/// pass's per-worker busy times: `max(busy) / mean(busy)` in
/// fixed-point thousandths (1000 ⇔ perfectly balanced). With the old
/// contiguous row blocks this ratio was unbounded on Zipfian-skewed
/// inputs; flop-balanced chunks keep it near 1.
fn record_balance(busy_us: &[u64]) {
    if busy_us.is_empty() || !hetesim_obs::is_enabled() {
        return;
    }
    let max = busy_us.iter().copied().max().unwrap_or(0);
    let sum: u64 = busy_us.iter().sum();
    let mean = sum as f64 / busy_us.len() as f64;
    if mean > 0.0 {
        let ratio = max as f64 / mean;
        hetesim_obs::set("sparse.parallel.imbalance", (ratio * 1000.0) as u64);
    }
}

/// Records one pool pass's per-worker utilization into the
/// `sparse.parallel.worker_busy_us` / `sparse.parallel.worker_idle_us`
/// histograms, one sample per worker.
fn record_utilization(busy_us: &[u64], idle_us: &[u64]) {
    if !hetesim_obs::is_enabled() {
        return;
    }
    for &b in busy_us {
        hetesim_obs::record("sparse.parallel.worker_busy_us", b);
    }
    for &i in idle_us {
        hetesim_obs::record("sparse.parallel.worker_idle_us", i);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CooMatrix;

    fn pseudo_random(nrows: usize, ncols: usize, per_row: usize, seed: usize) -> CsrMatrix {
        let mut coo = CooMatrix::new(nrows, ncols);
        let mut x = seed.wrapping_mul(2654435761).wrapping_add(1);
        for r in 0..nrows {
            for _ in 0..per_row {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                coo.push(r, (x >> 33) % ncols, (((x >> 20) % 9) + 1) as f64);
            }
        }
        coo.to_csr()
    }

    /// One extremely hot row plus a cold tail — the Zipfian shape that
    /// defeats contiguous row blocks.
    fn skewed(nrows: usize, ncols: usize, hot_nnz: usize, seed: usize) -> CsrMatrix {
        let mut coo = CooMatrix::new(nrows, ncols);
        let mut x = seed.wrapping_mul(0x9e3779b9).wrapping_add(7);
        for _ in 0..hot_nnz {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            coo.push(0, (x >> 33) % ncols, (((x >> 17) % 5) + 1) as f64);
        }
        for r in 1..nrows {
            if r % 3 == 0 {
                continue; // leave empty rows in the cold tail
            }
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            coo.push(r, (x >> 33) % ncols, 1.0);
        }
        coo.to_csr()
    }

    #[test]
    fn parallel_matches_serial_large() {
        let a = pseudo_random(700, 300, 4, 7);
        let b = pseudo_random(300, 500, 4, 11);
        let serial = a.matmul(&b).unwrap();
        assert_eq!(serial, a.matmul_reference(&b).unwrap());
        for threads in [2, 3, 8] {
            let par = matmul_two_phase(&a, &b, threads).unwrap();
            assert_eq!(par, serial, "threads={threads}");
            let auto = matmul_parallel(&a, &b, threads).unwrap();
            assert_eq!(auto, serial, "threads={threads} (auto)");
        }
    }

    #[test]
    fn skewed_rows_match_serial() {
        let a = skewed(400, 200, 3000, 13);
        let b = pseudo_random(200, 300, 5, 17);
        let serial = a.matmul(&b).unwrap();
        assert_eq!(serial, a.matmul_reference(&b).unwrap());
        for threads in [1, 2, 4, 7] {
            assert_eq!(
                matmul_two_phase(&a, &b, threads).unwrap(),
                serial,
                "threads={threads}"
            );
        }
    }

    #[test]
    fn fused_matches_materialized_normalization() {
        let a = skewed(300, 150, 2000, 19);
        let b = pseudo_random(150, 250, 4, 23);
        let expect = a.row_normalized().matmul(&b.row_normalized()).unwrap();
        let (da, db) = (a.row_sum_divisors(), b.row_sum_divisors());
        let (flops, total) = row_flops(&a, &b);
        let both = Divisors {
            lhs: Some(&da),
            rhs: Some(&db),
            out: None,
        };
        for threads in [1, 2, 4] {
            assert_eq!(
                two_phase(&a, &b, both, threads, flops.clone(), total).unwrap(),
                expect,
                "threads={threads}"
            );
            assert_eq!(
                matmul_parallel_fused(&a, &b, both, threads).unwrap(),
                expect,
                "threads={threads} (auto)"
            );
        }
        // One-sided fusion too.
        let left_only = a.row_normalized().matmul(&b).unwrap();
        let lhs_only = Divisors {
            lhs: Some(&da),
            ..Divisors::default()
        };
        assert_eq!(
            two_phase(&a, &b, lhs_only, 3, flops, total).unwrap(),
            left_only
        );
    }

    /// Divisors for `n` rows or columns that make every division inexact,
    /// so dividing in another order or by another rounding shows.
    fn odd_divisors(n: usize, salt: usize) -> Vec<f64> {
        (0..n)
            .map(|i| 0.3 + ((i * 7 + salt) % 11) as f64 / 3.0)
            .collect()
    }

    #[test]
    fn output_divisors_match_scaling_the_product() {
        // Row 0 cancels exactly, so the two-phase kernel compacts; the
        // skewed pair routes rows through all three kernels.
        let mut a = CooMatrix::new(300, 2);
        a.push(0, 0, 1.0);
        a.push(0, 1, 1.0);
        for r in 1..300 {
            a.push(r, r % 2, 1.0 + (r % 3) as f64);
        }
        let mut b = CooMatrix::new(2, 4);
        b.push(0, 0, 1.0);
        b.push(1, 0, -1.0);
        b.push(0, 1, 2.0);
        b.push(1, 2, 3.0);
        let cancelling = (a.to_csr(), b.to_csr());
        let skewed = (skewed(500, 100, 4000, 29), pseudo_random(100, 2600, 6, 31));
        for (a, b) in [cancelling, skewed] {
            let (rows, cols) = (odd_divisors(a.nrows(), 1), odd_divisors(b.ncols(), 5));
            let want = a
                .matmul(&b)
                .unwrap()
                .map_stored(|r, c, v| Some(v / (rows[r] * cols[c])));
            let div = Divisors {
                out: Some((&rows, &cols)),
                ..Divisors::default()
            };
            assert_eq!(a.matmul_fused(&b, div).unwrap(), want);
            let (flops, total) = row_flops(&a, &b);
            for threads in [2, 4] {
                assert_eq!(
                    two_phase(&a, &b, div, threads, flops.clone(), total).unwrap(),
                    want,
                    "threads={threads}"
                );
                assert_eq!(
                    matmul_parallel_scaled(&a, &b, &rows, &cols, threads).unwrap(),
                    want
                );
            }
        }
    }

    #[test]
    fn output_divisor_lengths_are_checked() {
        let a = pseudo_random(10, 8, 2, 1);
        let b = pseudo_random(8, 6, 2, 2);
        assert!(matmul_parallel_scaled(&a, &b, &[1.0; 10], &[1.0; 6], 2).is_ok());
        assert!(matmul_parallel_scaled(&a, &b, &[1.0; 9], &[1.0; 6], 2).is_err());
        assert!(matmul_parallel_scaled(&a, &b, &[1.0; 10], &[1.0; 8], 2).is_err());
    }

    #[test]
    fn adaptive_routing_covers_both_kernels() {
        // The hot row of `skewed` lands well above the dense cutoff while
        // its one-entry cold tail stays below it, so this product runs
        // both numeric kernels; routing is deterministic from the
        // symbolic counts, and the mixed output must still match the
        // serial kernel bit-for-bit.
        let a = skewed(500, 100, 4000, 29);
        let b = pseudo_random(100, 2600, 6, 31);
        let counts = symbolic_row_nnz(&a, &b).unwrap();
        let dense = counts
            .iter()
            .filter(|&&c| dense_accumulator_selected(c, b.ncols()))
            .count();
        let sparse = counts
            .iter()
            .filter(|&&c| c > 0 && !dense_accumulator_selected(c, b.ncols()))
            .count();
        assert!(dense > 0, "no dense-accumulator rows in the fixture");
        assert!(sparse > 0, "no sparse-accumulator rows in the fixture");
        let serial = a.matmul(&b).unwrap();
        assert_eq!(serial, a.matmul_reference(&b).unwrap());
        for threads in [2, 4] {
            assert_eq!(matmul_two_phase(&a, &b, threads).unwrap(), serial);
        }
    }

    #[test]
    fn arena_retains_worker_scratch() {
        let a = pseudo_random(400, 300, 5, 37);
        let b = pseudo_random(300, 400, 5, 41);
        let _ = matmul_two_phase(&a, &b, 3).unwrap();
        assert!(arena_resident_bytes() > 0);
    }

    #[test]
    fn small_matrices_fall_back_to_serial() {
        let a = pseudo_random(10, 10, 2, 1);
        let b = pseudo_random(10, 10, 2, 2);
        assert_eq!(matmul_parallel(&a, &b, 4).unwrap(), a.matmul(&b).unwrap());
        assert_eq!(matmul_two_phase(&a, &b, 4).unwrap(), a.matmul(&b).unwrap());
    }

    #[test]
    fn dimension_mismatch_detected() {
        let a = pseudo_random(10, 10, 2, 1);
        let b = pseudo_random(11, 10, 2, 2);
        assert!(matmul_parallel(&a, &b, 4).is_err());
        assert!(matmul_two_phase(&a, &b, 4).is_err());
        assert!(symbolic_row_nnz(&a, &b).is_err());
    }

    #[test]
    fn default_threads_is_positive() {
        assert!(default_threads() >= 1);
    }

    #[test]
    fn more_threads_than_rows() {
        let a = pseudo_random(300, 50, 3, 5);
        let b = pseudo_random(50, 40, 3, 6);
        let serial = a.matmul(&b).unwrap();
        assert_eq!(matmul_parallel(&a, &b, 512).unwrap(), serial);
        assert_eq!(matmul_two_phase(&a, &b, 512).unwrap(), serial);
    }

    #[test]
    fn symbolic_counts_match_product_rows() {
        let a = skewed(120, 80, 500, 3);
        let b = pseudo_random(80, 90, 4, 9);
        let counts = symbolic_row_nnz(&a, &b).unwrap();
        let product = a.matmul(&b).unwrap();
        let got: Vec<usize> = (0..product.nrows()).map(|r| product.row_nnz(r)).collect();
        assert_eq!(counts, got);
    }

    #[test]
    fn exact_cancellation_is_compacted() {
        // Row 0 of a*b cancels exactly: (1)(1) + (1)(-1) = 0. The symbolic
        // pass counts the column; the numeric pass must drop it and still
        // agree with the serial kernel bit-for-bit.
        let mut a = CooMatrix::new(300, 2);
        a.push(0, 0, 1.0);
        a.push(0, 1, 1.0);
        for r in 1..300 {
            a.push(r, r % 2, 1.0);
        }
        let mut b = CooMatrix::new(2, 4);
        b.push(0, 0, 1.0);
        b.push(1, 0, -1.0);
        b.push(0, 1, 2.0);
        b.push(1, 2, 3.0);
        let (a, b) = (a.to_csr(), b.to_csr());
        let serial = a.matmul(&b).unwrap();
        for threads in [2, 4] {
            assert_eq!(matmul_two_phase(&a, &b, threads).unwrap(), serial);
        }
    }

    #[test]
    fn all_empty_rows_product() {
        let a = CsrMatrix::zeros(400, 100);
        let b = pseudo_random(100, 50, 3, 4);
        let serial = a.matmul(&b).unwrap();
        assert_eq!(matmul_two_phase(&a, &b, 4).unwrap(), serial);
        assert_eq!(symbolic_row_nnz(&a, &b).unwrap(), vec![0usize; 400]);
    }

    #[test]
    fn flop_chunks_isolate_hot_rows() {
        // One row with 10× the total budget must not absorb neighbours.
        let flops = vec![1u64, 1000, 1, 1, 1, 1];
        let total: u64 = flops.iter().sum();
        let chunks = flop_chunks(&flops, total, 4);
        assert!(chunks
            .iter()
            .any(|&(lo, hi)| (lo, hi) == (0, 2) || (lo, hi) == (1, 2)));
        // Chunks tile the row range exactly.
        let mut expect = 0;
        for &(lo, hi) in &chunks {
            assert_eq!(lo, expect);
            assert!(hi > lo);
            expect = hi;
        }
        assert_eq!(expect, flops.len());
    }

    #[test]
    fn pool_stats_capture_worker_utilization() {
        let a = pseudo_random(700, 300, 4, 7);
        let b = pseudo_random(300, 500, 4, 11);
        hetesim_obs::enable();
        let _ = take_pool_stats(); // drop any leftover record
        let _ = matmul_two_phase(&a, &b, 3).unwrap();
        let stats = take_pool_stats().expect("pool stats recorded while enabled");
        hetesim_obs::disable();
        // Other tests may race on the shared slot while obs is enabled,
        // so assert shape invariants rather than the exact thread count.
        assert!(!stats.numeric_busy_us.is_empty());
        assert_eq!(stats.numeric_busy_us.len(), stats.numeric_idle_us.len());
        assert_eq!(stats.symbolic_busy_us.len(), stats.symbolic_idle_us.len());
        assert_eq!(stats.numeric_busy_us.len(), stats.symbolic_busy_us.len());
        // Taking twice yields nothing new.
        assert!(take_pool_stats().is_none() || hetesim_obs::is_enabled());
    }

    #[test]
    fn threads_env_override_wins() {
        // Serialize with other tests touching the env: this test is the
        // only one in this crate that sets it.
        std::env::set_var(THREADS_ENV, "3");
        assert_eq!(default_threads(), 3);
        std::env::set_var(THREADS_ENV, "0");
        let auto = default_threads();
        assert!(auto >= 1);
        std::env::set_var(THREADS_ENV, "not-a-number");
        assert_eq!(default_threads(), auto);
        std::env::remove_var(THREADS_ENV);
        assert_eq!(default_threads(), auto);
    }
}
