//! Path and relation decomposition (Definitions 5–7 of the paper).
//!
//! HeteSim needs the source walker (along the path) and the target walker
//! (against the path) to meet at the *same objects*. For an even-length
//! path they meet at the middle type; for an odd-length path they would
//! meet "inside" the middle atomic relation, so the paper inserts an *edge
//! object* type `E` — one instance per relation instance — splitting that
//! relation `R` into `R = RO ∘ RI` (Definition 6). Property 1 shows the
//! split is exact and unique; [`edge_split`] materializes it and the tests
//! verify `W_AE · W_EB = W`.

use crate::Result;
use hetesim_graph::{Hin, MetaPath, Step};
use hetesim_sparse::CsrMatrix;
use std::borrow::Cow;

/// One factor of a half chain: a traversal-oriented adjacency matrix and
/// the row-sum divisors that turn it into the transition matrix `U` of
/// Definition 8.
///
/// A step of the path borrows everything from the network: its adjacency,
/// its cached divisors ([`Hin::step_divisors`]) and its other orientation,
/// which is the factor's transpose. Only a side of the edge-object split
/// is a new matrix, with divisors of its own and no cached transpose.
#[derive(Debug, Clone, PartialEq)]
pub struct Factor<'a> {
    /// The adjacency matrix, in traversal orientation.
    pub matrix: Cow<'a, CsrMatrix>,
    /// `matrix.row_sum_divisors()`.
    pub divisors: Cow<'a, [f64]>,
    /// `matrix`ᵀ as the network stores it, for a step of the path; `None`
    /// for a side of the edge-object split.
    pub transpose: Option<&'a CsrMatrix>,
}

impl<'a> Factor<'a> {
    /// A step of the path, borrowed from the network.
    fn step(hin: &'a Hin, step: Step) -> Factor<'a> {
        Factor {
            matrix: Cow::Borrowed(hin.step_adjacency(step)),
            divisors: Cow::Borrowed(hin.step_divisors(step)),
            transpose: Some(hin.step_adjacency(step.reversed())),
        }
    }

    /// A side of the edge-object split, which no network holds.
    fn split(matrix: CsrMatrix) -> Factor<'a> {
        Factor {
            divisors: Cow::Owned(matrix.row_sum_divisors()),
            matrix: Cow::Owned(matrix),
            transpose: None,
        }
    }

    /// The transition matrix `U` with its row norms, written in one pass
    /// ([`CsrMatrix::rows_divided_with_norms`]): a one-factor half-path
    /// product and the Definition 10 denominators of its rows.
    pub(crate) fn normalized_with_norms(&self) -> (CsrMatrix, Vec<f64>) {
        self.matrix.rows_divided_with_norms(&self.divisors)
    }

    /// `Uᵀ`, when the network holds `matrix`ᵀ: its structure copied and
    /// each value divided by its column's divisor
    /// ([`CsrMatrix::cols_divided`]), bit for bit the transpose of
    /// [`Factor::normalized_with_norms`]'s matrix without a scatter.
    pub(crate) fn normalized_transpose(&self) -> Option<CsrMatrix> {
        self.transpose.map(|t| t.cols_divided(&self.divisors))
    }
}

/// The two halves of a decomposed relevance path, ready to be turned into
/// reachable-probability matrices.
///
/// `left` holds the factors of `PL` (source type → middle), `right_rev`
/// those of `PR⁻¹` (target type → middle). For odd-length paths the last
/// factor of each half is the corresponding side of the edge-object split;
/// every other factor is borrowed from the network.
#[derive(Debug, Clone)]
pub struct Decomposition<'a> {
    /// Factors from the source type to the middle type.
    pub left: Vec<Factor<'a>>,
    /// Factors from the target type back to the middle type (i.e. along
    /// `PR⁻¹`).
    pub right_rev: Vec<Factor<'a>>,
    /// Dimension of the middle type (number of objects both walkers can
    /// meet at; for odd paths, the number of edge objects).
    pub middle_dim: usize,
    /// True when an edge-object split was inserted (odd-length path).
    pub used_edge_objects: bool,
}

/// Splits an atomic relation's weighted adjacency `W` into `(W_AE, W_EB)`
/// per Definition 6: one edge object per stored entry, with
/// `w_ae = w_eb = sqrt(w_ab)` so that `W_AE · W_EB = W` exactly
/// (Property 1).
pub fn edge_split(w: &CsrMatrix) -> (CsrMatrix, CsrMatrix) {
    let ne = w.nnz();
    // W_AE: rows = A, one column per edge object, in row-major edge order —
    // so within each row the edge-object columns are increasing and CSR
    // invariants hold by construction.
    let mut ae_indptr = Vec::with_capacity(w.nrows() + 1);
    ae_indptr.push(0usize);
    let mut ae_indices = Vec::with_capacity(ne);
    let mut ae_values = Vec::with_capacity(ne);
    // W_EB: rows = edge objects (same order), exactly one entry per row.
    let mut eb_indptr = Vec::with_capacity(ne + 1);
    eb_indptr.push(0usize);
    let mut eb_indices = Vec::with_capacity(ne);
    let mut eb_values = Vec::with_capacity(ne);

    let mut e = 0u32;
    for r in 0..w.nrows() {
        for (&c, &v) in w.row_indices(r).iter().zip(w.row_values(r)) {
            let s = v.abs().sqrt();
            ae_indices.push(e);
            ae_values.push(s);
            eb_indices.push(c);
            eb_values.push(if v < 0.0 { -s } else { s });
            eb_indptr.push(eb_indices.len());
            e += 1;
        }
        ae_indptr.push(ae_indices.len());
    }
    let ae = CsrMatrix::from_raw_usize(w.nrows(), ne, ae_indptr, ae_indices, ae_values);
    let eb = CsrMatrix::from_raw_usize(ne, w.ncols(), eb_indptr, eb_indices, eb_values);
    (ae, eb)
}

/// True when the right half of `path` is its left half, factor for
/// factor: the path is symmetric (Property 1 of the paper) and has an even
/// number of steps, so `PR⁻¹` walks exactly the steps of `PL`. The planned
/// chain then gives `PM_PR⁻¹ = PM_PL` bit for bit, and the engine builds
/// and stores one half. Odd paths never qualify: the edge-object split
/// gives `W_AE ≠ W_EBᵀ`, so their two chains differ.
pub fn halves_coincide(path: &MetaPath) -> bool {
    path.steps().len() % 2 == 0 && path.is_symmetric()
}

/// Decomposes a relevance path `P` into `PL` / `PR⁻¹` factor chains
/// (Definition 5), inserting the edge-object split for odd lengths. Only
/// the split's two sides are new matrices; every step's factor borrows the
/// network's adjacency and divisors.
pub fn decompose<'a>(hin: &'a Hin, path: &MetaPath) -> Result<Decomposition<'a>> {
    let steps = path.steps();
    let l = steps.len();
    let mid = l / 2;
    let mut left: Vec<Factor<'a>> = steps[..mid].iter().map(|&s| Factor::step(hin, s)).collect();
    let right_steps = if l % 2 == 0 { mid } else { mid + 1 };
    let mut right_rev: Vec<Factor<'a>> = steps[right_steps..]
        .iter()
        .rev()
        .map(|&s| Factor::step(hin, s.reversed()))
        .collect();
    if l % 2 == 0 {
        let middle_dim = left
            .last()
            .map(|f| f.matrix.ncols())
            .unwrap_or_else(|| hin.node_count(path.source_type()));
        Ok(Decomposition {
            left,
            right_rev,
            middle_dim,
            used_edge_objects: false,
        })
    } else {
        // Odd: split the middle step's adjacency through edge objects.
        let (ae, eb) = edge_split(hin.step_adjacency(steps[mid]));
        let middle_dim = ae.ncols();
        left.push(Factor::split(ae));
        right_rev.push(Factor::split(eb.transpose()));
        Ok(Decomposition {
            left,
            right_rev,
            middle_dim,
            used_edge_objects: true,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetesim_graph::{HinBuilder, Schema};
    use hetesim_sparse::CooMatrix;

    fn fig5_matrix() -> CsrMatrix {
        // Figure 5(a): a1-{b1,b2}, a2-{b2,b3,b4}, a3-{b1,b4}.
        let mut coo = CooMatrix::new(3, 4);
        for (a, b) in [(0, 0), (0, 1), (1, 1), (1, 2), (1, 3), (2, 0), (2, 3)] {
            coo.push(a, b, 1.0);
        }
        coo.to_csr()
    }

    #[test]
    fn edge_split_reconstructs_relation() {
        // Property 1: R = RO ∘ RI.
        let w = fig5_matrix();
        let (ae, eb) = edge_split(&w);
        assert_eq!(ae.ncols(), w.nnz());
        assert_eq!(eb.nrows(), w.nnz());
        let product = ae.matmul(&eb).unwrap();
        assert!(product.max_abs_diff(&w).unwrap() < 1e-12);
    }

    #[test]
    fn edge_split_weighted_relation() {
        let mut coo = CooMatrix::new(2, 2);
        coo.push(0, 0, 4.0);
        coo.push(1, 1, 9.0);
        let w = coo.to_csr();
        let (ae, eb) = edge_split(&w);
        assert_eq!(ae.get(0, 0), 2.0);
        assert_eq!(eb.get(1, 1), 3.0);
        assert!(ae.matmul(&eb).unwrap().max_abs_diff(&w).unwrap() < 1e-12);
    }

    #[test]
    fn edge_split_each_edge_object_has_unit_degree() {
        let w = fig5_matrix();
        let (ae, eb) = edge_split(&w);
        // Every edge object has exactly one in-edge and one out-edge.
        for e in 0..eb.nrows() {
            assert_eq!(eb.row_nnz(e), 1);
        }
        let ae_t = ae.transpose();
        for e in 0..ae_t.nrows() {
            assert_eq!(ae_t.row_nnz(e), 1);
        }
    }

    fn toy_hin() -> Hin {
        let mut s = Schema::new();
        let a = s.add_type("author").unwrap();
        let p = s.add_type("paper").unwrap();
        let c = s.add_type("conference").unwrap();
        let w = s.add_relation("writes", a, p).unwrap();
        let pb = s.add_relation("published_in", p, c).unwrap();
        let mut b = HinBuilder::new(s);
        b.add_edge_by_name(w, "Tom", "P1", 1.0).unwrap();
        b.add_edge_by_name(w, "Tom", "P2", 1.0).unwrap();
        b.add_edge_by_name(w, "Mary", "P3", 1.0).unwrap();
        b.add_edge_by_name(pb, "P1", "KDD", 1.0).unwrap();
        b.add_edge_by_name(pb, "P2", "KDD", 1.0).unwrap();
        b.add_edge_by_name(pb, "P3", "SIGMOD", 1.0).unwrap();
        b.build()
    }

    #[test]
    fn even_path_splits_at_middle_type() {
        let hin = toy_hin();
        let apc = MetaPath::parse(hin.schema(), "APC").unwrap();
        let d = decompose(&hin, &apc).unwrap();
        assert!(!d.used_edge_objects);
        assert_eq!(d.left.len(), 1);
        assert_eq!(d.right_rev.len(), 1);
        // Middle type is paper (3 nodes).
        assert_eq!(d.middle_dim, 3);
        // Left goes author->paper, right goes conference->paper.
        assert_eq!(d.left[0].matrix.shape(), (2, 3));
        assert_eq!(d.right_rev[0].matrix.shape(), (2, 3));
    }

    #[test]
    fn even_symmetric_halves_coincide_factor_for_factor() {
        let hin = toy_hin();
        for (text, coincide) in [
            ("APA", true),
            ("PAP", true),
            ("APCPA", true),
            ("APC", false),
            ("AP", false),
        ] {
            let path = MetaPath::parse(hin.schema(), text).unwrap();
            assert_eq!(halves_coincide(&path), coincide, "{text}");
            if coincide {
                let d = decompose(&hin, &path).unwrap();
                assert_eq!(d.left, d.right_rev, "{text}");
            }
        }
    }

    #[test]
    fn step_factors_borrow_the_network_and_split_sides_are_owned() {
        let hin = toy_hin();
        let path = MetaPath::parse(hin.schema(), "A-P-C-P").unwrap();
        let d = decompose(&hin, &path).unwrap();
        let steps = path.steps();
        for (f, step) in [
            (&d.left[0], steps[0]),
            (&d.right_rev[0], steps[2].reversed()),
        ] {
            assert!(
                matches!(f.matrix, Cow::Borrowed(m) if std::ptr::eq(m, hin.step_adjacency(step)))
            );
            assert!(
                matches!(f.divisors, Cow::Borrowed(v) if std::ptr::eq(v, hin.step_divisors(step)))
            );
            assert!(std::ptr::eq(
                f.transpose.unwrap(),
                hin.step_adjacency(step.reversed())
            ));
            assert_eq!(
                f.normalized_transpose().unwrap(),
                f.normalized_with_norms().0.transpose()
            );
        }
        for f in [&d.left[1], &d.right_rev[1]] {
            assert!(matches!(f.matrix, Cow::Owned(_)));
            assert_eq!(*f.divisors, f.matrix.row_sum_divisors()[..]);
            assert!(f.transpose.is_none() && f.normalized_transpose().is_none());
        }
    }

    #[test]
    fn odd_path_inserts_edge_objects() {
        let hin = toy_hin();
        let ap = MetaPath::parse(hin.schema(), "AP").unwrap();
        let d = decompose(&hin, &ap).unwrap();
        assert!(d.used_edge_objects);
        // writes has 3 instances -> 3 edge objects.
        assert_eq!(d.middle_dim, 3);
        assert_eq!(d.left.len(), 1);
        assert_eq!(d.right_rev.len(), 1);
        assert_eq!(d.left[0].matrix.shape(), (2, 3));
        assert_eq!(d.right_rev[0].matrix.shape(), (3, 3)); // papers x edge objects
    }

    #[test]
    fn odd_longer_path_shapes_chain() {
        let hin = toy_hin();
        let apvc_like = MetaPath::parse(hin.schema(), "APC").unwrap(); // even
        let d_even = decompose(&hin, &apvc_like).unwrap();
        // A three-step path: A-P-C-P (author to papers of same conference).
        let apcp = MetaPath::parse(hin.schema(), "A-P-C-P").unwrap();
        let d = decompose(&hin, &apcp).unwrap();
        assert!(d.used_edge_objects);
        // Middle relation is P->C with 3 instances.
        assert_eq!(d.middle_dim, 3);
        // Left chain: A->P adjacency then P->E split.
        assert_eq!(d.left.len(), 2);
        assert_eq!(d.left[0].matrix.shape(), (2, 3));
        assert_eq!(d.left[1].matrix.shape(), (3, 3));
        // Right chain: P->C adjacency then C->E split side.
        assert_eq!(d.right_rev.len(), 2);
        assert_eq!(d.right_rev[0].matrix.shape(), (3, 2));
        assert_eq!(d.right_rev[1].matrix.shape(), (2, 3));
        // Sanity: even decomposition untouched by odd logic.
        assert_eq!(d_even.left.len(), 1);
    }
}
