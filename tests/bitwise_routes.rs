//! Bitwise oracles for the query routes that work on a matrix's own
//! structure or on borrowed rows.
//!
//! Each route is compared with the route it replaced, kept here as a
//! test-only copy: `matrix()` with the COO rebuild of the scaled product,
//! `pair`/`pair_unnormalized`/`explain` with owned `SparseVec` rows, and
//! `single_source` with a dense product over every target's row, and
//! `top_k` with `single_source`. Values are compared through
//! `f64::to_bits`, not within a tolerance.

use hetesim::core::explain::Meeting;
use hetesim::core::Halves;
use hetesim::prelude::*;
use hetesim::sparse::SparseVec;
use proptest::prelude::*;

/// Edge weights include a stored zero, so halves carry stored zeros.
const WEIGHTS: [f64; 5] = [0.0, 0.5, 1.0, 2.0, 3.0];

/// A random small bibliographic network. Every index below the drawn
/// counts is a node, so objects without edges give empty rows.
fn arb_hin() -> impl Strategy<Value = Hin> {
    (2..7usize, 3..10usize, 2..5usize).prop_flat_map(|(na, np, nc)| {
        let writes = proptest::collection::vec((0..na, 0..np, 0..WEIGHTS.len()), 1..25);
        let published = proptest::collection::vec((0..np, 0..nc, 0..WEIGHTS.len()), 1..25);
        (writes, published).prop_map(move |(we, pe)| {
            let mut schema = Schema::new();
            let a = schema.add_type("author").unwrap();
            let p = schema.add_type("paper").unwrap();
            let c = schema.add_type("conference").unwrap();
            let w = schema.add_relation("writes", a, p).unwrap();
            let pb = schema.add_relation("published_in", p, c).unwrap();
            let mut b = HinBuilder::new(schema);
            for (ty, n, prefix) in [(a, na, "a"), (p, np, "p"), (c, nc, "c")] {
                for i in 0..n {
                    b.add_node(ty, &format!("{prefix}{i}"));
                }
            }
            for (x, y, k) in we {
                b.add_edge(w, x as u32, y as u32, WEIGHTS[k]).unwrap();
            }
            for (x, y, k) in pe {
                b.add_edge(pb, x as u32, y as u32, WEIGHTS[k]).unwrap();
            }
            b.build()
        })
    })
}

/// Odd and even paths, symmetric and not.
const PATHS: [&str; 8] = ["APC", "AP", "APA", "APAPC", "CPA", "PAP", "APCP", "CPAPC"];

fn bits(m: &CsrMatrix) -> Vec<u64> {
    m.values().iter().map(|v| v.to_bits()).collect()
}

fn assert_bitwise_eq(got: &CsrMatrix, want: &CsrMatrix) -> Result<(), TestCaseError> {
    prop_assert_eq!(got.shape(), want.shape());
    prop_assert_eq!(got.indptr(), want.indptr());
    prop_assert_eq!(got.indices(), want.indices());
    prop_assert_eq!(bits(got), bits(want));
    Ok(())
}

/// `matrix()` as it was built before the in-place pass: the unnormalized
/// product, scaled entry by entry into a COO builder, converted back.
fn matrix_coo_route(engine: &HeteSimEngine, path: &MetaPath) -> CsrMatrix {
    let h = engine.materialized_halves(path).unwrap();
    let raw = engine.matrix_unnormalized(path).unwrap();
    let mut coo = CooMatrix::with_capacity(raw.nrows(), raw.ncols(), raw.nnz());
    for (a, b, v) in raw.iter() {
        coo.push(a, b, v / (h.left_norms[a] * h.right_norms[b]));
    }
    coo.to_csr()
}

/// `single_source` as it was: a dense product over every target's row
/// of the right half.
fn single_source_dense_route(h: &Halves, a: u32) -> Vec<f64> {
    let u = h.left.row(a as usize);
    let nt = h.right.nrows();
    if u.is_empty() {
        return vec![0.0; nt];
    }
    let un = u.l2_norm();
    let dots = h.right.matvec(&u.to_dense()).unwrap();
    dots.iter()
        .enumerate()
        .map(|(t, &d)| {
            let denom = un * h.right_norms[t];
            if denom == 0.0 {
                0.0
            } else {
                d / denom
            }
        })
        .collect()
}

/// The middle objects two owned rows share, with both values, found by
/// the merge loop `SparseVec::dot` and `explain` each ran on owned rows.
fn owned_meetings(la: &SparseVec, rb: &SparseVec) -> Vec<(u32, f64, f64)> {
    let mut out = Vec::new();
    let (mut i, mut j) = (0usize, 0usize);
    let (li, lv) = (la.indices(), la.values());
    let (ri, rv) = (rb.indices(), rb.values());
    while i < li.len() && j < ri.len() {
        match li[i].cmp(&ri[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push((li[i], lv[i], rv[j]));
                i += 1;
                j += 1;
            }
        }
    }
    out
}

/// `pair_unnormalized`, `pair` and `explain` (meetings before sorting and
/// truncation, and score) as they were computed on owned rows.
fn owned_row_routes(h: &Halves, a: u32, b: u32) -> (f64, f64, Vec<Meeting>, f64) {
    let (la, rb) = (h.left.row(a as usize), h.right.row(b as usize));
    let shared = owned_meetings(&la, &rb);
    let mut dot = 0.0;
    for &(_, lv, rv) in &shared {
        dot += lv * rv;
    }
    let n = la.l2_norm() * rb.l2_norm();
    let cosine = if n == 0.0 { 0.0 } else { dot / n };
    let mut meetings = Vec::new();
    let mut score = 0.0;
    if n > 0.0 {
        for &(middle, lv, rv) in &shared {
            let contribution = lv * rv / n;
            score += contribution;
            meetings.push(Meeting {
                middle,
                contribution,
            });
        }
    }
    (dot, cosine, meetings, score)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `matrix()` equals the COO route in structure and in every value's
    /// bits, at engine threads 1 and 4, and every cell equals `pair`.
    #[test]
    fn matrix_matches_coo_route_and_pairs(
        hin in arb_hin(),
        path_idx in 0..PATHS.len(),
        threads_idx in 0..2usize,
    ) {
        let engine = HeteSimEngine::with_threads(&hin, [1, 4][threads_idx]);
        let path = MetaPath::parse(hin.schema(), PATHS[path_idx]).unwrap();
        let m = engine.matrix(&path).unwrap();
        assert_bitwise_eq(&m, &matrix_coo_route(&engine, &path))?;
        for a in 0..m.nrows() as u32 {
            for b in 0..m.ncols() as u32 {
                let pair = engine.pair(&path, a, b).unwrap();
                prop_assert_eq!(
                    m.get(a as usize, b as usize).to_bits(),
                    pair.to_bits(),
                    "{} ({}, {})", PATHS[path_idx], a, b
                );
            }
        }
    }

    /// `pair`, `pair_unnormalized`, `single_source` and `explain` equal
    /// their owned-row and dense-row forms bit for bit.
    #[test]
    fn row_routes_match_owned_rows(
        hin in arb_hin(),
        path_idx in 0..PATHS.len(),
        threads_idx in 0..2usize,
    ) {
        let engine = HeteSimEngine::with_threads(&hin, [1, 4][threads_idx]);
        let path = MetaPath::parse(hin.schema(), PATHS[path_idx]).unwrap();
        let h = engine.materialized_halves(&path).unwrap();
        for a in 0..h.left.nrows() as u32 {
            let row = engine.single_source(&path, a).unwrap();
            let want_row = single_source_dense_route(&h, a);
            prop_assert_eq!(
                row.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                want_row.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
            );
            for b in 0..h.right.nrows() as u32 {
                let (dot, cosine, mut want, score) = owned_row_routes(&h, a, b);
                prop_assert_eq!(engine.pair(&path, a, b).unwrap().to_bits(), cosine.to_bits());
                prop_assert_eq!(
                    engine.pair_unnormalized(&path, a, b).unwrap().to_bits(),
                    dot.to_bits()
                );
                let ex = engine.explain(&path, a, b, usize::MAX).unwrap();
                prop_assert_eq!(ex.score.to_bits(), score.to_bits());
                want.sort_by(|x, y| {
                    y.contribution
                        .partial_cmp(&x.contribution)
                        .unwrap()
                        .then_with(|| x.middle.cmp(&y.middle))
                });
                prop_assert_eq!(ex.meetings.len(), want.len());
                for (g, w) in ex.meetings.iter().zip(&want) {
                    prop_assert_eq!(g.middle, w.middle);
                    prop_assert_eq!(g.contribution.to_bits(), w.contribution.to_bits());
                }
            }
        }
    }

    /// Every score `top_k` returns equals `single_source`'s score for the
    /// same target bit for bit, on built halves and on halves installed
    /// the way a snapshot load installs them, and with `k` at least the
    /// target count no target with a nonzero score is left out.
    #[test]
    fn top_k_matches_single_source(
        hin in arb_hin(),
        path_idx in 0..PATHS.len(),
        threads_idx in 0..2usize,
    ) {
        let threads = [1, 4][threads_idx];
        let built = HeteSimEngine::with_threads(&hin, threads);
        let path = MetaPath::parse(hin.schema(), PATHS[path_idx]).unwrap();
        let h = built.materialized_halves(&path).unwrap();
        let installed = HeteSimEngine::with_threads(&hin, threads);
        installed.install_halves(&path, h.left.clone(), h.right.clone()).unwrap();
        let nt = h.right.nrows();
        for engine in [&built, &installed] {
            for a in 0..h.left.nrows() as u32 {
                let row = engine.single_source(&path, a).unwrap();
                let top = engine.top_k(&path, a, nt).unwrap();
                for r in &top {
                    prop_assert_eq!(r.score.to_bits(), row[r.index as usize].to_bits());
                }
                let nonzero = row.iter().filter(|v| **v != 0.0).count();
                prop_assert!(top.iter().filter(|r| r.score != 0.0).count() == nonzero);
            }
        }
    }
}
