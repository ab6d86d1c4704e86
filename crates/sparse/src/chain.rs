//! Chains of sparse matrix products with cost-model-driven association.
//!
//! A reachable-probability matrix (Definition 9 of the paper) is the product
//! `U_{A1A2} · U_{A2A3} · … · U_{AlAl+1}` of per-relation transition
//! matrices. Matrix multiplication is associative, and the association order
//! can change the amount of work by orders of magnitude — e.g. for the path
//! `A-P-V-C` on the ACM network, multiplying `(U_PV · U_VC)` first collapses
//! the 12K-venue dimension before the 17K-author dimension touches it.
//!
//! [`multiply_chain`] picks the order with a classic matrix-chain dynamic
//! program whose cost model estimates SpGEMM flops from matrix densities;
//! [`multiply_chain_left_to_right`] is the naive order, kept public as the
//! test oracle and ablation baseline.

use crate::kernel::Divisors;
use crate::{CsrMatrix, Result, SparseError};

/// Estimated cost and shape/density of an (intermediate) product.
#[derive(Debug, Clone, Copy)]
struct Estimate {
    rows: usize,
    cols: usize,
    /// Expected fraction of non-zero cells, kept in (0, 1].
    density: f64,
    /// Accumulated estimated flops to materialize this product.
    cost: f64,
}

/// Estimates the cost of multiplying two (estimated) operands and the
/// density of the result under an independence assumption: a cell of the
/// product is zero only if all `k` contributing pairs are zero, so
/// `d_out = 1 - (1 - d_a * d_b)^k`.
fn combine(a: Estimate, b: Estimate) -> Estimate {
    let k = a.cols as f64;
    let pair = (a.density * b.density).min(1.0);
    let density = if pair <= 0.0 {
        0.0
    } else {
        1.0 - (1.0 - pair).powf(k)
    };
    // SpGEMM work ~ sum over a's nnz of matching b-row nnz.
    let flops = (a.rows as f64 * a.cols as f64 * a.density) * (b.cols as f64 * b.density);
    Estimate {
        rows: a.rows,
        cols: b.cols,
        density: density.clamp(1e-12, 1.0),
        cost: a.cost + b.cost + flops,
    }
}

/// Estimated flops below which a single product in a threaded chain
/// execution is multiplied serially: the planner's estimate lets
/// [`ChainPlan::execute`] skip even the exact flop count (and
/// the symbolic pass behind it) for products that are obviously tiny.
/// Matches the exact-count threshold inside `parallel::matmul_parallel`.
const PARALLEL_EST_FLOP_THRESHOLD: f64 = (1u64 << 17) as f64;

/// The multiplication order chosen by the dynamic program, as a binary tree
/// encoded in "split index" form: `splits[i][j]` is the `k` at which the
/// product of matrices `i..=j` is split into `i..=k` and `k+1..=j`.
#[derive(Debug)]
pub struct ChainPlan {
    splits: Vec<Vec<usize>>,
    /// `mult_flops[i][j]`: estimated flops of the *final* multiply that
    /// produces the `i..=j` product (excluding its sub-products), used by
    /// [`ChainPlan::execute`] to decide serial vs parallel per
    /// node without touching the matrices.
    mult_flops: Vec<Vec<f64>>,
    len: usize,
    /// Estimated flops of the chosen order (for diagnostics/ablation).
    pub estimated_cost: f64,
}

impl ChainPlan {
    /// Plans the association order for a chain of the given shapes and
    /// densities, without touching the matrix data.
    pub fn plan(shapes: &[(usize, usize)], densities: &[f64]) -> Result<ChainPlan> {
        let n = shapes.len();
        if n == 0 {
            return Err(SparseError::EmptyChain);
        }
        for w in shapes.windows(2) {
            if w[0].1 != w[1].0 {
                return Err(SparseError::DimensionMismatch {
                    op: "chain plan",
                    left: w[0],
                    right: w[1],
                });
            }
        }
        let mut best: Vec<Vec<Option<Estimate>>> = vec![vec![None; n]; n];
        let mut splits = vec![vec![0usize; n]; n];
        let mut mult_flops = vec![vec![0f64; n]; n];
        for (i, (&(r, c), &d)) in shapes.iter().zip(densities).enumerate() {
            best[i][i] = Some(Estimate {
                rows: r,
                cols: c,
                density: d.clamp(1e-12, 1.0),
                cost: 0.0,
            });
        }
        for span in 1..n {
            for i in 0..(n - span) {
                let j = i + span;
                let mut chosen: Option<(Estimate, usize)> = None;
                for k in i..j {
                    let left = best[i][k].expect("subchain planned");
                    let right = best[k + 1][j].expect("subchain planned");
                    let e = combine(left, right);
                    if chosen.map_or(true, |(c, _)| e.cost < c.cost) {
                        chosen = Some((e, k));
                    }
                }
                let (e, k) = chosen.expect("non-empty span");
                let left = best[i][k].expect("subchain planned");
                let right = best[k + 1][j].expect("subchain planned");
                mult_flops[i][j] = e.cost - left.cost - right.cost;
                best[i][j] = Some(e);
                splits[i][j] = k;
            }
        }
        let estimated_cost = best[0][n - 1].expect("root planned").cost;
        Ok(ChainPlan {
            splits,
            mult_flops,
            len: n,
            estimated_cost,
        })
    }

    /// The product of `mats[i..=j]` in the plan's order, as an operand of
    /// the product that consumes it. A leaf is borrowed with its divisors
    /// still pending: in the plan's binary tree every leaf is consumed by
    /// exactly one product, so its divisors are applied exactly once —
    /// fused into that product. Interior results carry no divisor.
    fn operand<'m>(
        &self,
        mats: &[&'m CsrMatrix],
        divisors: Option<&[&'m [f64]]>,
        i: usize,
        j: usize,
        threads: usize,
    ) -> Result<Operand<'m>> {
        if i == j {
            return Ok(Operand::Leaf(mats[i], divisors.map(|d| d[i])));
        }
        let k = self.splits[i][j];
        let left = self.operand(mats, divisors, i, k, threads)?;
        let right = self.operand(mats, divisors, k + 1, j, threads)?;
        let (lm, ld) = left.parts();
        let (rm, rd) = right.parts();
        // The planner's flop estimate gates the parallel kernel so tiny
        // products skip even the exact flop count of its symbolic pass;
        // `matmul_parallel_fused` re-checks with exact counts and may
        // still fall back, so a high estimate can never force a slow
        // parallel run.
        let div = Divisors {
            lhs: ld,
            rhs: rd,
            out: None,
        };
        let product = if threads > 1 && self.mult_flops[i][j] >= PARALLEL_EST_FLOP_THRESHOLD {
            crate::parallel::matmul_parallel_fused(lm, rm, div, threads)?
        } else {
            lm.matmul_fused(rm, div)?
        };
        Ok(Operand::Prod(product))
    }

    /// Executes the plan over the given matrices (which must match the
    /// shapes the plan was made from), with `threads` workers on every
    /// product whose estimated flops clear the parallel threshold.
    ///
    /// With `divisors`, each leaf's rows are divided by its divisor
    /// slice, the division fused into the product that consumes the leaf
    /// (see [`multiply_chain`]). The association order is the plan's
    /// regardless of `threads`, and the parallel kernel is bit-identical
    /// to the serial one, so the result is the same at every thread
    /// count. [`multiply_chain`] is its public entry point.
    pub(crate) fn execute(
        &self,
        mats: &[&CsrMatrix],
        divisors: Option<&[&[f64]]>,
        threads: usize,
    ) -> Result<CsrMatrix> {
        assert_eq!(mats.len(), self.len, "plan arity mismatch");
        if let Some(divisors) = divisors {
            assert_eq!(divisors.len(), self.len, "one divisor slice per matrix");
            for (m, d) in mats.iter().zip(divisors) {
                assert_eq!(d.len(), m.nrows(), "divisor length mismatch");
            }
        }
        Ok(
            match self.operand(mats, divisors, 0, self.len - 1, threads.max(1))? {
                Operand::Prod(m) => m,
                // A chain of one matrix has no product to fuse the
                // divisors into; materialize the normalization in one
                // writing pass (bitwise equal to `row_normalized`, see
                // `row_sum_divisors`). A caller that also wants the row
                // norms calls `rows_divided_with_norms` itself.
                Operand::Leaf(m, Some(d)) => m.rows_divided_with_norms(d).0,
                Operand::Leaf(m, None) => m.clone(),
            },
        )
    }
}

/// An operand of a chain product: either an original (leaf) matrix with
/// the divisors, if any, still to be fused into the one product that
/// consumes it, or an intermediate product.
enum Operand<'m> {
    Leaf(&'m CsrMatrix, Option<&'m [f64]>),
    Prod(CsrMatrix),
}

impl Operand<'_> {
    /// The operand's matrix and the divisors still to be fused into the
    /// next product.
    fn parts(&self) -> (&CsrMatrix, Option<&[f64]>) {
        match self {
            Operand::Leaf(m, d) => (m, *d),
            Operand::Prod(m) => (m, None),
        }
    }
}

/// Multiplies a chain of matrices in the cost-model-optimal order, using
/// `threads` workers on every product big enough (by the planner's flop
/// estimate) to amortize the parallel kernel. Bit-identical at every
/// thread count.
///
/// With `divisors`, computes
/// `rowdiv(mats[0], divisors[0]) · … · rowdiv(mats[n-1], divisors[n-1])`
/// where `rowdiv` divides each row by its divisor, without materializing
/// any rescaled matrix. With divisors from
/// [`CsrMatrix::row_sum_divisors`] this is exactly the normalized
/// transition-matrix chain of Definition 9 — bit-identical to normalizing
/// every matrix first and multiplying with `divisors = None`, because
/// each stored value is divided once by the same divisor and the
/// association order (planned from shapes and densities, which
/// normalization preserves) is the same.
pub fn multiply_chain(
    mats: &[&CsrMatrix],
    divisors: Option<&[&[f64]]>,
    threads: usize,
) -> Result<CsrMatrix> {
    let _span = hetesim_obs::span!(
        "sparse.chain.multiply",
        len = mats.len(),
        total_nnz = mats.iter().map(|m| m.nnz()).sum::<usize>(),
        threads = threads,
    );
    let shapes: Vec<(usize, usize)> = mats.iter().map(|m| m.shape()).collect();
    let densities: Vec<f64> = mats.iter().map(|m| m.density()).collect();
    let plan = ChainPlan::plan(&shapes, &densities)?;
    plan.execute(mats, divisors, threads)
}

/// Multiplies a chain strictly left-to-right (ablation baseline).
pub fn multiply_chain_left_to_right(mats: &[&CsrMatrix]) -> Result<CsrMatrix> {
    let mut iter = mats.iter();
    let first = iter.next().ok_or(SparseError::EmptyChain)?;
    let mut acc = (*first).clone();
    for m in iter {
        acc = acc.matmul(m)?;
    }
    Ok(acc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CooMatrix;

    fn random_like(nrows: usize, ncols: usize, step: usize) -> CsrMatrix {
        random_rows(nrows, ncols, 2, step)
    }

    fn random_rows(nrows: usize, ncols: usize, per_row: usize, step: usize) -> CsrMatrix {
        let mut coo = CooMatrix::new(nrows, ncols);
        let mut x = 1usize;
        for r in 0..nrows {
            for _ in 0..per_row {
                x = (x * 1103515245 + 12345 + step) % 2147483648;
                let c = x % ncols;
                coo.push(r, c, ((x % 7) + 1) as f64);
            }
        }
        coo.to_csr()
    }

    #[test]
    fn single_matrix_chain() {
        let a = random_like(4, 5, 1);
        assert_eq!(multiply_chain(&[&a], None, 1).unwrap(), a);
        assert_eq!(multiply_chain_left_to_right(&[&a]).unwrap(), a);
    }

    #[test]
    fn empty_chain_is_error() {
        assert!(matches!(
            multiply_chain(&[], None, 1),
            Err(SparseError::EmptyChain)
        ));
        assert!(matches!(
            multiply_chain_left_to_right(&[]),
            Err(SparseError::EmptyChain)
        ));
    }

    #[test]
    fn mismatched_chain_is_error() {
        let a = random_like(3, 4, 1);
        let b = random_like(5, 2, 2);
        assert!(multiply_chain(&[&a, &b], None, 1).is_err());
    }

    #[test]
    fn optimal_matches_left_to_right() {
        let a = random_like(6, 30, 1);
        let b = random_like(30, 4, 2);
        let c = random_like(4, 25, 3);
        let d = random_like(25, 8, 4);
        let opt = multiply_chain(&[&a, &b, &c, &d], None, 1).unwrap();
        let naive = multiply_chain_left_to_right(&[&a, &b, &c, &d]).unwrap();
        assert!(opt.max_abs_diff(&naive).unwrap() < 1e-9);
    }

    #[test]
    fn threaded_chain_matches_serial_exactly() {
        let a = random_rows(600, 400, 30, 1);
        let b = random_rows(400, 500, 30, 2);
        let c = random_rows(500, 300, 30, 3);
        let mats = [&a, &b, &c];
        // Dense enough that some product clears the parallel threshold.
        let shapes: Vec<(usize, usize)> = mats.iter().map(|m| m.shape()).collect();
        let densities: Vec<f64> = mats.iter().map(|m| m.density()).collect();
        let plan = ChainPlan::plan(&shapes, &densities).unwrap();
        assert!(plan
            .mult_flops
            .iter()
            .flatten()
            .any(|&f| f >= PARALLEL_EST_FLOP_THRESHOLD));
        let serial = multiply_chain(&mats, None, 1).unwrap();
        for threads in [2, 4, 7] {
            let par = multiply_chain(&mats, None, threads).unwrap();
            assert_eq!(par, serial, "threads={threads}");
        }
    }

    #[test]
    fn fused_chain_matches_normalize_then_multiply() {
        let a = random_rows(600, 400, 30, 1);
        let b = random_rows(400, 500, 30, 2);
        let c = random_rows(500, 300, 30, 3);
        let mats = [&a, &b, &c];
        let normalized: Vec<CsrMatrix> = mats.iter().map(|m| m.row_normalized()).collect();
        let norm_refs: Vec<&CsrMatrix> = normalized.iter().collect();
        let divisors: Vec<Vec<f64>> = mats.iter().map(|m| m.row_sum_divisors()).collect();
        let div_refs: Vec<&[f64]> = divisors.iter().map(|d| d.as_slice()).collect();
        let expect = multiply_chain(&norm_refs, None, 1).unwrap();
        for threads in [1, 2, 4] {
            let fused = multiply_chain(&mats, Some(&div_refs), threads).unwrap();
            assert_eq!(fused, expect, "threads={threads}");
        }
    }

    #[test]
    fn fused_single_matrix_chain_is_row_normalized() {
        // Includes an empty row so the sentinel divisor path is covered.
        let mut coo = CooMatrix::new(3, 3);
        coo.push(0, 0, 2.0);
        coo.push(0, 2, 6.0);
        coo.push(2, 1, 5.0);
        let a = coo.to_csr();
        let div = a.row_sum_divisors();
        let fused = multiply_chain(&[&a], Some(&[&div]), 4).unwrap();
        assert_eq!(fused, a.row_normalized());
    }

    #[test]
    fn plan_prefers_cheap_inner_product() {
        // (10000x10)(10x10000)(10000x1): right-assoc is vastly cheaper.
        let shapes = [(10_000, 10), (10, 10_000), (10_000, 1)];
        let dens = [0.01, 0.01, 0.01];
        let plan = ChainPlan::plan(&shapes, &dens).unwrap();
        // The root split should isolate the first matrix so that
        // (B*C) happens first.
        assert_eq!(plan.splits[0][2], 0);
    }

    #[test]
    fn plan_cost_is_finite_positive() {
        let shapes = [(5, 5), (5, 5), (5, 5)];
        let dens = [0.5, 0.5, 0.5];
        let plan = ChainPlan::plan(&shapes, &dens).unwrap();
        assert!(plan.estimated_cost.is_finite());
        assert!(plan.estimated_cost > 0.0);
    }
}
