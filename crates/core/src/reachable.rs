//! Reachable-probability matrices (Definition 9 of the paper).
//!
//! The reachable-probability matrix of a path `P = A1 A2 … A(l+1)` is the
//! product of the row-stochastic transition matrices of its steps:
//! `PM_P = U_{A1A2} · U_{A2A3} · … · U_{AlA(l+1)}`. Its `(i, j)` entry is
//! the probability that a random walker starting at object `i` of type `A1`
//! and following `P` ends at object `j` of type `A(l+1)` — which is also
//! exactly the PCRW (path-constrained random walk) score, so the baselines
//! crate reuses these kernels.

use crate::Result;
use hetesim_graph::{Hin, Step};
use hetesim_sparse::{chain, CsrMatrix, SparseVec};

/// Row-stochastic transition matrices for a step sequence, in order.
pub fn transition_chain(hin: &Hin, steps: &[Step]) -> Vec<CsrMatrix> {
    steps.iter().map(|&s| hin.step_transition(s)).collect()
}

/// Normalizes a pre-built adjacency chain (each matrix becomes
/// row-stochastic), borrowing its inputs. Used when the chain already
/// contains edge-object matrices from an odd-path decomposition.
pub fn normalize_chain<'m>(mats: impl IntoIterator<Item = &'m CsrMatrix>) -> Vec<CsrMatrix> {
    mats.into_iter().map(CsrMatrix::row_normalized).collect()
}

/// Multiplies a chain of stochastic matrices into a single
/// reachable-probability matrix, choosing the association order by the
/// sparse cost model.
pub fn product(mats: &[CsrMatrix]) -> Result<CsrMatrix> {
    let refs: Vec<&CsrMatrix> = mats.iter().collect();
    Ok(chain::multiply_chain(&refs, None, 1)?)
}

/// Computes the full reachable-probability matrix for a step sequence.
pub fn reachable_matrix(hin: &Hin, steps: &[Step]) -> Result<CsrMatrix> {
    let mats = transition_chain(hin, steps);
    product(&mats)
}

/// Propagates a single source distribution through a chain of stochastic
/// matrices — the single-source/online-query variant (Section 4.6): one
/// sparse vector-matrix product per step instead of a full SpGEMM chain.
pub fn propagate(start: SparseVec, mats: &[CsrMatrix]) -> Result<SparseVec> {
    let mut v = start;
    for m in mats {
        v = m.vecmat(&v)?;
    }
    Ok(v)
}

/// One-hot propagation from a single object.
pub fn propagate_from(hin: &Hin, steps: &[Step], source: u32) -> Result<SparseVec> {
    let mats = transition_chain(hin, steps);
    let dim = mats
        .first()
        .map(|m| m.nrows())
        .unwrap_or_else(|| hin.total_nodes());
    propagate(SparseVec::unit(dim, source as usize), &mats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetesim_graph::{HinBuilder, MetaPath, Schema};

    fn toy() -> Hin {
        let mut s = Schema::new();
        let a = s.add_type("author").unwrap();
        let p = s.add_type("paper").unwrap();
        let c = s.add_type("conference").unwrap();
        let w = s.add_relation("writes", a, p).unwrap();
        let pb = s.add_relation("published_in", p, c).unwrap();
        let mut b = HinBuilder::new(s);
        b.add_edge_by_name(w, "Tom", "P1", 1.0).unwrap();
        b.add_edge_by_name(w, "Tom", "P2", 1.0).unwrap();
        b.add_edge_by_name(w, "Mary", "P2", 1.0).unwrap();
        b.add_edge_by_name(w, "Mary", "P3", 1.0).unwrap();
        b.add_edge_by_name(pb, "P1", "KDD", 1.0).unwrap();
        b.add_edge_by_name(pb, "P2", "KDD", 1.0).unwrap();
        b.add_edge_by_name(pb, "P3", "SIGMOD", 1.0).unwrap();
        b.build()
    }

    #[test]
    fn reachable_matrix_rows_are_distributions() {
        let hin = toy();
        let apc = MetaPath::parse(hin.schema(), "APC").unwrap();
        let pm = reachable_matrix(&hin, apc.steps()).unwrap();
        assert_eq!(pm.shape(), (2, 2));
        for r in 0..pm.nrows() {
            let s: f64 = pm.row_values(r).iter().sum();
            assert!((s - 1.0).abs() < 1e-12, "row {r} sums to {s}");
        }
        // Tom reaches KDD with probability 1 along APC.
        let a = hin.schema().type_id("author").unwrap();
        let c = hin.schema().type_id("conference").unwrap();
        let tom = hin.node_id(a, "Tom").unwrap();
        let kdd = hin.node_id(c, "KDD").unwrap();
        assert!((pm.get(tom as usize, kdd as usize) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn propagate_matches_full_matrix() {
        let hin = toy();
        let apc = MetaPath::parse(hin.schema(), "APC").unwrap();
        let pm = reachable_matrix(&hin, apc.steps()).unwrap();
        for src in 0..2u32 {
            let v = propagate_from(&hin, apc.steps(), src).unwrap();
            let dense = v.to_dense();
            for (j, &x) in dense.iter().enumerate() {
                assert!((x - pm.get(src as usize, j)).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn backward_path_uses_inverse_relation() {
        let hin = toy();
        let cpa = MetaPath::parse(hin.schema(), "CPA").unwrap();
        let pm = reachable_matrix(&hin, cpa.steps()).unwrap();
        assert_eq!(pm.shape(), (2, 2));
        // SIGMOD publishes only Mary's P3: reaches Mary with prob 1.
        let c = hin.schema().type_id("conference").unwrap();
        let a = hin.schema().type_id("author").unwrap();
        let sigmod = hin.node_id(c, "SIGMOD").unwrap() as usize;
        let mary = hin.node_id(a, "Mary").unwrap() as usize;
        assert!((pm.get(sigmod, mary) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn normalize_chain_makes_rows_stochastic() {
        let hin = toy();
        let w = hin.schema().relation_id("writes").unwrap();
        let mats = normalize_chain([hin.adjacency(w)]);
        for r in 0..mats[0].nrows() {
            let s: f64 = mats[0].row_values(r).iter().sum();
            assert!((s - 1.0).abs() < 1e-12);
        }
    }
}
