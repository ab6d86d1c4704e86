//! Row kernels shared by the serial and parallel SpGEMM entry points.
//!
//! Both the serial [`CsrMatrix::matmul`](crate::CsrMatrix::matmul) and
//! the parallel two-phase kernel compute output rows with exactly these
//! functions, which is what makes their outputs bit-identical: one
//! accumulation order, one `v != 0.0` drop rule, one ascending-column
//! emit order.
//!
//! Per row, the numeric phase picks one of two accumulator shapes from
//! the symbolic phase's *exact* output nnz:
//!
//! * **dense** ([`numeric_row_dense`]) — unconditional scatter into the
//!   dense accumulator plus a touched-column bitmap; the gather drains
//!   the bitmap word-by-word, which yields ascending columns without a
//!   sort and resets exactly the touched accumulator slots (no memset).
//!   Selected when the row is dense enough that the bitmap scan is
//!   cheaper than sorting the touched list (see
//!   [`dense_accumulator_selected`]).
//! * **sparse** ([`numeric_row_sparse`]) — stamped-mark scatter with an
//!   explicit touched list, sorted before the gather. Selected for the
//!   long tail of narrow rows, where scanning the whole bitmap would
//!   dominate.
//!
//! Rows with exactly one left-operand entry short-circuit both shapes:
//! they are a scaled copy of a single right-operand row
//! ([`numeric_row_copy`]) — no accumulator, bitmap, or sort — checked
//! before the density split in both the serial and parallel entry
//! points, and counted with the sparse (non-dense-accumulator) family.
//!
//! Fused normalization: both kernels optionally divide each left-operand
//! value by a per-row divisor on load, and read right-operand values from
//! a caller-provided (possibly pre-divided) slice. Each value is divided
//! exactly once by exactly the divisor `row_normalized` would have used,
//! so a fused product is bit-identical to normalize-then-multiply.
//!
//! Fused output scaling: a product may also divide each written entry
//! `(r, c)` by `rows[r] * cols[c]` right after its row is gathered
//! ([`divide_row`]), after the shared `v != 0.0` drop — the same
//! expression a later value pass over the finished product would apply,
//! so the scaled product is bit-identical to multiply-then-scale.

use crate::CsrMatrix;

/// The divisors one product applies while it runs. Each value is divided
/// exactly once, so every combination is bit-identical to materializing
/// the scaled operands or scaling the finished product.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Divisors<'a> {
    /// Per-row divisors of the left operand, applied as its values load.
    pub lhs: Option<&'a [f64]>,
    /// Per-row divisors of the right operand, applied once into scratch.
    pub rhs: Option<&'a [f64]>,
    /// Per-row and per-column divisors of the output: entry `(r, c)` is
    /// divided by `rows[r] * cols[c]` as its row is written.
    pub out: Option<(&'a [f64], &'a [f64])>,
}

/// Dense-kernel budget: the bitmap gather may scan at most this many
/// 64-column words per emitted entry. With the cutoff
/// `nnz * 4 >= ceil(ncols / 64)` the dense path's gather is O(nnz) with
/// a small constant, while rows below it keep the sort-based sparse path
/// whose cost scales with the row itself, not the output width.
pub const DENSE_GATHER_WORDS_PER_NNZ: usize = 4;

/// True when the numeric phase uses the dense accumulator for a row with
/// `row_nnz` output entries (the symbolic phase's exact count) in an
/// output of `ncols` columns. Exposed so benches and the
/// threshold-boundary proptests can generate rows straddling the cutoff.
pub fn dense_accumulator_selected(row_nnz: usize, ncols: usize) -> bool {
    row_nnz > 0 && row_nnz * DENSE_GATHER_WORDS_PER_NNZ >= ncols.div_ceil(64)
}

/// Distinct-column count of output row `r` using the stamped mark array
/// (`mark[c] == stamp` ⇔ column seen for this row); `mark` is never
/// cleared, callers bump `stamp` once per row.
pub(crate) fn symbolic_row(
    lhs: &CsrMatrix,
    rhs: &CsrMatrix,
    r: usize,
    mark: &mut [u64],
    stamp: u64,
) -> usize {
    let mut count = 0usize;
    for &k in lhs.row_indices(r) {
        for &c in rhs.row_indices(k as usize) {
            let ci = c as usize;
            if mark[ci] != stamp {
                mark[ci] = stamp;
                count += 1;
            }
        }
    }
    count
}

/// [`symbolic_row`] for flop-heavy rows: scatters into the touched
/// bitmap (no branch per multiply-add) and popcounts it. Counts are
/// exact either way; the split mirrors the numeric-phase routing, using
/// the row's flop count as the stand-in for the not-yet-known nnz.
pub(crate) fn symbolic_row_bitmap(
    lhs: &CsrMatrix,
    rhs: &CsrMatrix,
    r: usize,
    mask: &mut [u64],
) -> usize {
    for &k in lhs.row_indices(r) {
        for &c in rhs.row_indices(k as usize) {
            let ci = c as usize;
            mask[ci >> 6] |= 1u64 << (ci & 63);
        }
    }
    let mut count = 0usize;
    for w in mask.iter_mut() {
        count += w.count_ones() as usize;
        *w = 0;
    }
    count
}

/// Divides every value of `m` by its row's divisor, filling `out` with
/// the value array of `m.rows_divided_with_norms(div).0` without materializing the
/// structure. One division per stored value — the same single division
/// `row_normalized` performs, so downstream products stay bit-identical.
/// `out` is a reused scratch buffer; it is cleared first.
pub(crate) fn scaled_values_into(m: &CsrMatrix, div: &[f64], out: &mut Vec<f64>) {
    debug_assert_eq!(div.len(), m.nrows());
    out.clear();
    out.reserve(m.nnz());
    let indptr = m.indptr();
    for r in 0..m.nrows() {
        let d = div[r];
        let (lo, hi) = (indptr[r] as usize, indptr[r + 1] as usize);
        out.extend(m.values()[lo..hi].iter().map(|v| v / d));
    }
}

/// Divides the entries of one freshly written output row by
/// `row_div * col_div[c]`. The divisor product is formed first and
/// divided into the value, exactly as
/// `map_stored(|r, c, v| Some(v / (rows[r] * cols[c])))` would on the
/// finished product.
pub(crate) fn divide_row(ind: &[u32], val: &mut [f64], row_div: f64, col_div: &[f64]) {
    for (v, &c) in val.iter_mut().zip(ind) {
        *v /= row_div * col_div[c as usize];
    }
}

/// Computes one output row with the sparse (stamped-mark + sorted
/// touched list) accumulator and writes surviving entries into
/// `ind`/`val` from offset 0, returning how many were written.
///
/// `rhs_vals` is the right operand's value array (pre-divided in fused
/// mode); `lhs_div` optionally divides each left value by its row
/// divisor on load. The gather resets every touched accumulator slot to
/// exactly `0.0`, maintaining the all-zero invariant the dense kernel
/// relies on.
#[allow(clippy::too_many_arguments)]
pub(crate) fn numeric_row_sparse(
    lhs: &CsrMatrix,
    lhs_div: Option<&[f64]>,
    rhs: &CsrMatrix,
    rhs_vals: &[f64],
    r: usize,
    acc: &mut [f64],
    mark: &mut [u64],
    stamp: u64,
    touched: &mut Vec<u32>,
    ind: &mut [u32],
    val: &mut [f64],
) -> usize {
    touched.clear();
    let rhs_indptr = rhs.indptr();
    for (&k, &raw_a) in lhs.row_indices(r).iter().zip(lhs.row_values(r)) {
        let a = match lhs_div {
            Some(d) => raw_a / d[r],
            None => raw_a,
        };
        let k = k as usize;
        let (lo, hi) = (rhs_indptr[k] as usize, rhs_indptr[k + 1] as usize);
        for (&c, &b) in rhs.indices()[lo..hi].iter().zip(&rhs_vals[lo..hi]) {
            let ci = c as usize;
            if mark[ci] != stamp {
                mark[ci] = stamp;
                touched.push(c);
                acc[ci] = 0.0;
            }
            acc[ci] += a * b;
        }
    }
    touched.sort_unstable();
    let mut written = 0usize;
    for &c in touched.iter() {
        let ci = c as usize;
        let v = acc[ci];
        acc[ci] = 0.0;
        if v != 0.0 {
            ind[written] = c;
            val[written] = v;
            written += 1;
        }
    }
    written
}

/// Fast path for rows with exactly one left-operand entry: the output
/// row is that entry's rhs row scaled by `a`, already in ascending
/// column order with no duplicate columns possible, so no accumulator,
/// bitmap, or sort is involved. Each value is exactly `a * b` — the
/// same bits the accumulator kernels produce for a one-entry row
/// (`0.0 + a·b` is bitwise `a·b` for every nonzero product, and a
/// `-0.0` product is dropped by the shared `v != 0.0` rule on both
/// paths) — so routing through this kernel cannot change the result.
pub(crate) fn numeric_row_copy(
    lhs: &CsrMatrix,
    lhs_div: Option<&[f64]>,
    rhs: &CsrMatrix,
    rhs_vals: &[f64],
    r: usize,
    ind: &mut [u32],
    val: &mut [f64],
) -> usize {
    debug_assert_eq!(lhs.row_nnz(r), 1);
    let k = lhs.row_indices(r)[0] as usize;
    let raw_a = lhs.row_values(r)[0];
    let a = match lhs_div {
        Some(d) => raw_a / d[r],
        None => raw_a,
    };
    let rhs_indptr = rhs.indptr();
    let (lo, hi) = (rhs_indptr[k] as usize, rhs_indptr[k + 1] as usize);
    let mut written = 0usize;
    for (&c, &b) in rhs.indices()[lo..hi].iter().zip(&rhs_vals[lo..hi]) {
        let v = a * b;
        if v != 0.0 {
            ind[written] = c;
            val[written] = v;
            written += 1;
        }
    }
    written
}

/// Computes one output row with the dense accumulator: unconditional
/// scatter (no mark branch, no touched push), then a word-by-word bitmap
/// drain that emits ascending columns and resets exactly the touched
/// accumulator slots. Accumulation order and the `v != 0.0` drop are the
/// sparse kernel's, so the written prefix is bit-identical to what
/// [`numeric_row_sparse`] would produce for the same row.
#[allow(clippy::too_many_arguments)]
pub(crate) fn numeric_row_dense(
    lhs: &CsrMatrix,
    lhs_div: Option<&[f64]>,
    rhs: &CsrMatrix,
    rhs_vals: &[f64],
    r: usize,
    acc: &mut [f64],
    mask: &mut [u64],
    ind: &mut [u32],
    val: &mut [f64],
) -> usize {
    let rhs_indptr = rhs.indptr();
    for (&k, &raw_a) in lhs.row_indices(r).iter().zip(lhs.row_values(r)) {
        let a = match lhs_div {
            Some(d) => raw_a / d[r],
            None => raw_a,
        };
        let k = k as usize;
        let (lo, hi) = (rhs_indptr[k] as usize, rhs_indptr[k + 1] as usize);
        for (&c, &b) in rhs.indices()[lo..hi].iter().zip(&rhs_vals[lo..hi]) {
            let ci = c as usize;
            acc[ci] += a * b;
            mask[ci >> 6] |= 1u64 << (ci & 63);
        }
    }
    let mut written = 0usize;
    for (w, word) in mask.iter_mut().enumerate() {
        let mut m = *word;
        if m == 0 {
            continue;
        }
        *word = 0;
        while m != 0 {
            let c = (w << 6) | m.trailing_zeros() as usize;
            m &= m - 1;
            let v = acc[c];
            acc[c] = 0.0;
            if v != 0.0 {
                ind[written] = c as u32;
                val[written] = v;
                written += 1;
            }
        }
    }
    written
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn selection_cutoff_shape() {
        // 512 columns -> 8 mask words -> dense from nnz 2 upward.
        assert!(!dense_accumulator_selected(0, 512));
        assert!(!dense_accumulator_selected(1, 512));
        assert!(dense_accumulator_selected(2, 512));
        // Narrow outputs: any nonzero row is dense.
        assert!(dense_accumulator_selected(1, 64));
        // Very wide outputs need many entries.
        assert!(!dense_accumulator_selected(10, 1 << 20));
        assert!(dense_accumulator_selected(4096, 1 << 20));
    }
}
