//! Reusable per-worker SpGEMM scratch, pooled in a process-wide arena.
//!
//! Every Gustavson row product needs an accumulator sized to the output
//! width plus marking structures. The previous kernels allocated those as
//! fresh `Vec`s per product (and per worker inside the parallel kernel);
//! a meta-path chain multiplies many matrices back to back, so the same
//! multi-megabyte buffers were repeatedly allocated, faulted in and
//! thrown away. The arena keeps returned [`Scratch`] records in a small
//! pool, growing each record lazily to the widest output it has served.
//!
//! Correctness contract (what makes pooling safe for *bit-identical*
//! kernels): a `Scratch` in the pool always has
//!
//! * `acc` all-zero — the dense-accumulator kernel scatters without
//!   initializing, so every numeric kernel resets the entries it touched
//!   back to exactly `0.0` while gathering;
//! * `mask` all-zero — the bitmap gather clears every word it drains;
//! * `mark` entries `<= stamp` with `stamp` strictly monotone per record
//!   — stamped marking never needs clearing, and entries added by later
//!   growth start at 0 which can never equal a future (incremented)
//!   stamp.
//!
//! Debug builds verify the zero invariants on every return to the pool.
//!
//! While metrics are enabled, the pool's resident bytes are published on
//! the `sparse.parallel.arena_bytes` gauge after every return.

use hetesim_obs::lockcheck::TrackedMutex as Mutex;
use std::sync::PoisonError;

/// Pooled records beyond this count are dropped instead of retained, so
/// a burst of wide parallel products cannot pin scratch memory forever.
const MAX_POOLED: usize = 32;

/// One worker's SpGEMM scratch: dense accumulator, bitmap, stamped mark
/// array and the small reusable side buffers.
#[derive(Debug, Default)]
pub(crate) struct Scratch {
    /// Dense value accumulator, one slot per output column; all-zero
    /// between rows.
    pub acc: Vec<f64>,
    /// Touched-column bitmap (one bit per output column); all-zero
    /// between rows. Doubles as the sorted gather order: draining it
    /// word-by-word yields ascending columns without a sort.
    pub mask: Vec<u64>,
    /// Generation-stamped mark array (`mark[c] == stamp` ⇔ column seen
    /// for the current row); never cleared, only out-stamped.
    pub mark: Vec<u64>,
    /// Current generation for `mark`; incremented once per row.
    pub stamp: u64,
    /// Unsorted touched-column list of the sparse-accumulator kernel.
    pub touched: Vec<u32>,
    /// Pre-scaled copy of the rhs values in fused-normalization mode.
    pub vals: Vec<f64>,
}

impl Scratch {
    /// Grows the per-column structures to serve an output of `ncols`
    /// columns. Growth appends zeros, preserving the pool invariants.
    /// The bitmap is cut to exactly `ncols` bits (its capacity stays):
    /// the dense gather and the symbolic popcount scan all of it, so a
    /// record last grown by a wider product would otherwise make every
    /// row of a narrow product scan the wide width.
    fn ensure(&mut self, ncols: usize) {
        if self.acc.len() < ncols {
            self.acc.resize(ncols, 0.0);
        }
        self.mask.resize(ncols.div_ceil(64), 0);
        if self.mark.len() < ncols {
            self.mark.resize(ncols, 0);
        }
    }

    /// Heap residency of this record in bytes.
    fn bytes(&self) -> usize {
        self.acc.capacity() * std::mem::size_of::<f64>()
            + self.mask.capacity() * std::mem::size_of::<u64>()
            + self.mark.capacity() * std::mem::size_of::<u64>()
            + self.touched.capacity() * std::mem::size_of::<u32>()
            + self.vals.capacity() * std::mem::size_of::<f64>()
    }
}

/// The process-wide pool. Lock discipline: held only for a push/pop,
/// never while another lock is taken or a kernel runs.
static POOL: Mutex<Vec<Scratch>> = Mutex::named("sparse.scratch.pool", Vec::new());

/// Takes a scratch record sized for `ncols` output columns, reusing a
/// pooled one when available.
pub(crate) fn take(ncols: usize) -> Scratch {
    let mut s = POOL
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .pop()
        .unwrap_or_default();
    s.ensure(ncols);
    s
}

/// Returns a scratch record to the pool and republishes the arena gauge.
pub(crate) fn put(s: Scratch) {
    debug_assert!(
        s.acc.iter().all(|&v| v == 0.0),
        "scratch returned with a dirty accumulator"
    );
    debug_assert!(
        s.mask.iter().all(|&w| w == 0),
        "scratch returned with a dirty bitmap"
    );
    let bytes;
    {
        let mut pool = POOL.lock().unwrap_or_else(PoisonError::into_inner);
        if pool.len() < MAX_POOLED {
            pool.push(s);
        }
        bytes = pool.iter().map(Scratch::bytes).sum::<usize>();
    }
    hetesim_obs::set("sparse.parallel.arena_bytes", bytes as u64);
}

/// Current heap residency of the pool in bytes (what the
/// `sparse.parallel.arena_bytes` gauge reports). Exposed for tests.
pub fn arena_resident_bytes() -> usize {
    POOL.lock()
        .unwrap_or_else(PoisonError::into_inner)
        .iter()
        .map(Scratch::bytes)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_grows_and_put_pools() {
        let s = take(300);
        assert!(s.acc.len() >= 300);
        assert_eq!(s.mask.len(), 300usize.div_ceil(64));
        assert!(s.mark.len() >= 300);
        put(s);
        assert!(arena_resident_bytes() > 0);
        // A reused record keeps (at least) its previous width, but its
        // bitmap covers only the columns asked for.
        let again = take(10);
        assert!(again.acc.len() >= 10);
        assert_eq!(again.mask.len(), 1);
        put(again);
    }

    #[test]
    fn stamp_survives_reuse() {
        let mut s = take(8);
        s.stamp += 7;
        let stamp = s.stamp;
        put(s);
        // Some pooled record carries a monotone stamp; taking twice must
        // never yield a record whose mark entries exceed its stamp.
        for _ in 0..2 {
            let t = take(16);
            assert!(t.mark.iter().all(|&m| m <= t.stamp.max(stamp)));
            put(t);
        }
    }
}
