//! SimRank (Jeh & Widom, KDD 2002) and its connection to HeteSim
//! (Property 5 of the paper).
//!
//! Two forms are provided:
//!
//! * [`simrank`] — the classic whole-network fixed point
//!   `S = max(C · Q S Qᵀ, I)` over a flattened HIN, where `Q` is the
//!   row-normalized in-neighbor matrix. This is the measure whose
//!   `O(k d n² T⁴)` complexity the paper contrasts with HeteSim's
//!   `O(l d n²)` in Section 4.6; the scaling bench reproduces that gap.
//! * [`bipartite_hop_terms`] — the hop decomposition used in Property 5:
//!   on a bipartite graph `A →R B` with `C = 1` and no diagonal reset,
//!   the k-th term equals the *unnormalized* HeteSim over the self-path
//!   `(R R⁻¹)^k`, and SimRank is the limit of the partial sums. The
//!   integration tests verify the equality term by term against
//!   `HeteSimEngine`.

use crate::FlatGraph;
use hetesim_core::Result;
use hetesim_graph::Hin;
use hetesim_sparse::{CsrMatrix, DenseMatrix};

/// Configuration for the classic SimRank fixed point.
#[derive(Debug, Clone, Copy)]
pub struct SimRankConfig {
    /// Decay constant `C ∈ (0, 1)`; the original paper suggests 0.8.
    pub c: f64,
    /// Number of fixed-point iterations `k`.
    pub iterations: usize,
    /// Hard cap on flattened node count — SimRank stores a dense
    /// `n × n` similarity matrix, so this guards against accidental
    /// multi-gigabyte allocations.
    pub max_nodes: usize,
}

impl Default for SimRankConfig {
    fn default() -> Self {
        SimRankConfig {
            c: 0.8,
            iterations: 10,
            max_nodes: 4000,
        }
    }
}

/// Whole-network SimRank over the undirected flattening of a HIN.
///
/// Returns the dense global similarity matrix (indexed by
/// [`FlatGraph::global_index`]). Errors are not possible beyond the node
/// cap, which panics deliberately: exceeding it is a misuse, not a runtime
/// condition.
pub fn simrank(hin: &Hin, cfg: SimRankConfig) -> (FlatGraph, DenseMatrix) {
    let _span = hetesim_obs::span("baselines.simrank.run");
    let flat = FlatGraph::undirected(hin);
    let n = flat.node_count();
    assert!(
        n <= cfg.max_nodes,
        "SimRank on {n} nodes exceeds the {} node cap (O(n^2) memory)",
        cfg.max_nodes
    );
    let q = flat.adjacency().row_normalized();
    let mut s = DenseMatrix::identity(n);
    for _ in 0..cfg.iterations {
        // S' = C * Q S Q^T, then diag reset to 1.
        let qs_qt = sandwich(&q, &s).expect("shape checked");
        let mut next = qs_qt.scaled(cfg.c);
        for i in 0..n {
            next.set(i, i, 1.0);
        }
        s = next;
    }
    (flat, s)
}

/// Computes `U · inner · Uᵀ` with sparse `U` and dense `inner`.
fn sandwich(u: &CsrMatrix, inner: &DenseMatrix) -> Result<DenseMatrix> {
    let ui = u.matmul_dense(inner)?;
    Ok(u.matmul_dense(&ui.transpose())?.transpose())
}

/// Per-hop meeting-probability terms on a bipartite relation (Property 5).
///
/// Given the adjacency `w` of `A →R B`, returns for `k = 1..=hops` the
/// A-side matrices `A_k` with
/// `A_k(a1, a2) = HeteSim(a1, a2 | (R R⁻¹)^k)` (unnormalized), computed by
/// the two-sided SimRank recursion of the paper's appendix:
/// `A_{k+1} = U B_k Uᵀ`, `B_{k+1} = V A_k Vᵀ` with `A_0 = I_A`, `B_0 = I_B`,
/// `U` the row-normalized `w` and `V` the row-normalized `wᵀ`. The partial
/// sums converge to bipartite SimRank with `C = 1`.
pub fn bipartite_hop_terms(w: &CsrMatrix, hops: usize) -> Result<Vec<DenseMatrix>> {
    let u = w.row_normalized();
    let v = w.transpose().row_normalized();
    let mut terms = Vec::with_capacity(hops);
    let mut a_side = DenseMatrix::identity(w.nrows());
    let mut b_side = DenseMatrix::identity(w.ncols());
    for _ in 0..hops {
        let a_next = sandwich(&u, &b_side)?;
        let b_next = sandwich(&v, &a_side)?;
        terms.push(a_next.clone());
        a_side = a_next;
        b_side = b_next;
    }
    Ok(terms)
}

/// B-side hop terms: `T_k(b1, b2) = HeteSim(b1, b2 | (R⁻¹ R)^k)`, computed
/// with the column-normalized walk (B walks to A through `R⁻¹`).
pub fn bipartite_hop_terms_reverse(w: &CsrMatrix, hops: usize) -> Result<Vec<DenseMatrix>> {
    bipartite_hop_terms(&w.transpose(), hops)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetesim_graph::{HinBuilder, Schema};
    use hetesim_sparse::CooMatrix;

    fn toy_hin() -> Hin {
        let mut s = Schema::new();
        let a = s.add_type("author").unwrap();
        let p = s.add_type("paper").unwrap();
        let w = s.add_relation("writes", a, p).unwrap();
        let mut b = HinBuilder::new(s);
        b.add_edge_by_name(w, "Tom", "P1", 1.0).unwrap();
        b.add_edge_by_name(w, "Mary", "P1", 1.0).unwrap();
        b.add_edge_by_name(w, "Mary", "P2", 1.0).unwrap();
        b.add_edge_by_name(w, "Bob", "P2", 1.0).unwrap();
        b.build()
    }

    #[test]
    fn simrank_diag_is_one_and_symmetric() {
        let hin = toy_hin();
        let (_, s) = simrank(&hin, SimRankConfig::default());
        for i in 0..s.nrows() {
            assert_eq!(s.get(i, i), 1.0);
        }
        assert!(s.is_symmetric(1e-9));
    }

    #[test]
    fn simrank_scores_in_unit_interval() {
        let hin = toy_hin();
        let (_, s) = simrank(&hin, SimRankConfig::default());
        for r in 0..s.nrows() {
            for c in 0..s.ncols() {
                let v = s.get(r, c);
                assert!((0.0..=1.0 + 1e-9).contains(&v), "s({r},{c}) = {v}");
            }
        }
    }

    #[test]
    fn simrank_related_above_unrelated() {
        let hin = toy_hin();
        let (flat, s) = simrank(&hin, SimRankConfig::default());
        let a = hin.schema().type_id("author").unwrap();
        let tom = flat.global_index(hetesim_graph::NodeRef::new(a, 0));
        let mary = flat.global_index(hetesim_graph::NodeRef::new(a, 1));
        let bob = flat.global_index(hetesim_graph::NodeRef::new(a, 2));
        // Tom and Mary share P1; Tom and Bob share nothing directly.
        assert!(s.get(tom, mary) > s.get(tom, bob));
    }

    #[test]
    #[should_panic(expected = "node cap")]
    fn node_cap_is_enforced() {
        let hin = toy_hin();
        let cfg = SimRankConfig {
            max_nodes: 2,
            ..SimRankConfig::default()
        };
        simrank(&hin, cfg);
    }

    #[test]
    fn hop_terms_are_probabilities() {
        let mut coo = CooMatrix::new(3, 3);
        for (a, b) in [(0, 0), (0, 1), (1, 1), (2, 2)] {
            coo.push(a, b, 1.0);
        }
        let w = coo.to_csr();
        let terms = bipartite_hop_terms(&w, 3).unwrap();
        assert_eq!(terms.len(), 3);
        for t in &terms {
            // Each entry is a meeting probability: within [0, 1], and the
            // matrix is symmetric in its two walkers.
            for r in 0..t.nrows() {
                for c in 0..t.ncols() {
                    let v = t.get(r, c);
                    assert!((0.0..=1.0 + 1e-9).contains(&v), "t({r},{c}) = {v}");
                }
            }
            assert!(t.is_symmetric(1e-9));
        }
        // An isolated pair of walkers that can only meet at their unique
        // shared paper meet with probability 1 at every hop.
        for t in &terms {
            assert!((t.get(2, 2) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn reverse_terms_have_b_side_shape() {
        let mut coo = CooMatrix::new(2, 5);
        coo.push(0, 0, 1.0);
        coo.push(1, 4, 1.0);
        let w = coo.to_csr();
        let terms = bipartite_hop_terms_reverse(&w, 2).unwrap();
        assert_eq!(terms[0].shape(), (5, 5));
    }
}
