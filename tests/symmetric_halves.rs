//! Bitwise oracles for the build shortcuts of the half-path cache.
//!
//! * On an even symmetric path the engine builds one chain and shares it
//!   as both halves (Property 1). A test-only second chain, built from the
//!   right half's own factors exactly as the engine builds a left half,
//!   must equal the shared `left` bit for bit.
//! * A cold build borrows its factors and their row-sum divisors from the
//!   network, writes a one-factor half with its row norms in one pass,
//!   transposes a one-factor right half by dividing the network's other
//!   orientation by value, and lets finite norms stand in for the
//!   finiteness scan. A test-only copy of the route this replaced — clone
//!   every adjacency, split an odd path's middle relation, compute each
//!   factor's divisors, run the chain (one factor: a clone divided in
//!   place), scan for finiteness, take the norms in a separate pass and
//!   transpose by scatter — must give the same `left`, `right`,
//!   `right_t` and norm bits, on odd and even paths.
//! * `matrix()` divides each entry by its two row norms while the product
//!   writes its row. A test-only copy of the route it replaced — the
//!   unscaled product, then one `map_stored` pass — must give the same
//!   `indptr`, `indices` and value bits at engine threads 1 and 4, on
//!   products below the parallel kernel's flop threshold and above it.

use hetesim::core::decompose::{decompose, edge_split, halves_coincide};
use hetesim::core::Halves;
use hetesim::prelude::*;
use hetesim::sparse::{chain, parallel};
use proptest::prelude::*;

/// Edge weights include a stored zero, so halves carry stored zeros.
const WEIGHTS: [f64; 5] = [0.0, 0.5, 1.0, 2.0, 3.0];

/// The parallel SpGEMM kernel's flop threshold (`parallel.rs`): products
/// with fewer multiply-adds always take the serial kernel.
const PARALLEL_FLOP_THRESHOLD: usize = 1 << 17;

/// A random bibliographic network with `na` authors, `np` papers and
/// `nc` conferences; every index below the counts is a node, so objects
/// without edges give empty rows.
fn hin_of(
    (na, np, nc): (usize, usize, usize),
    writes: Vec<(usize, usize, usize)>,
    published: Vec<(usize, usize, usize)>,
) -> Hin {
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
    for (x, y, k) in writes {
        b.add_edge(w, x as u32, y as u32, WEIGHTS[k]).unwrap();
    }
    for (x, y, k) in published {
        b.add_edge(pb, x as u32, y as u32, WEIGHTS[k]).unwrap();
    }
    b.build()
}

/// Small networks: every product stays under the parallel threshold.
fn arb_small_hin() -> impl Strategy<Value = Hin> {
    (2..7usize, 3..10usize, 2..5usize).prop_flat_map(|(na, np, nc)| {
        let writes = proptest::collection::vec((0..na, 0..np, 0..WEIGHTS.len()), 1..25);
        let published = proptest::collection::vec((0..np, 0..nc, 0..WEIGHTS.len()), 1..25);
        (writes, published).prop_map(move |(we, pe)| hin_of((na, np, nc), we, pe))
    })
}

/// Networks whose author × author products clear the parallel threshold:
/// a few hundred authors on a few dozen papers, so each paper has many
/// authors and the A-P-A product has several hundred thousand flops.
fn arb_large_hin() -> impl Strategy<Value = Hin> {
    (300..360usize, 24..32usize, 3..6usize).prop_flat_map(|(na, np, nc)| {
        let writes = proptest::collection::vec((0..na, 0..np, 0..WEIGHTS.len()), 4000..4400);
        let published = proptest::collection::vec((0..np, 0..nc, 0..WEIGHTS.len()), 30..60);
        (writes, published).prop_map(move |(we, pe)| hin_of((na, np, nc), we, pe))
    })
}

/// Even symmetric paths, whose halves coincide, and paths whose do not:
/// even ones with one and two factors per half, and odd ones, whose
/// edge-split factors are new matrices without a cached transpose.
const PATHS: [&str; 14] = [
    "APA", "PAP", "CPC", "APCPA", "CPAPC", "APC", "CPA", "APAPC", "AP", "PC", "APAP", "APCP",
    "PAPC", "APCPAP",
];

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn assert_bitwise_eq(got: &CsrMatrix, want: &CsrMatrix, what: &str) -> Result<(), TestCaseError> {
    prop_assert_eq!(got.shape(), want.shape(), "{}", what);
    prop_assert_eq!(got.indptr(), want.indptr(), "{}", what);
    prop_assert_eq!(got.indices(), want.indices(), "{}", what);
    prop_assert_eq!(bits(got.values()), bits(want.values()), "{}", what);
    Ok(())
}

/// The right half built as its own chain, from the factors of `PR⁻¹`, by
/// the same fused chain call the engine makes for a left half.
fn second_chain(hin: &Hin, path: &MetaPath, threads: usize) -> CsrMatrix {
    let d = decompose(hin, path).unwrap();
    let divisors: Vec<Vec<f64>> = d
        .right_rev
        .iter()
        .map(|f| f.matrix.row_sum_divisors())
        .collect();
    let mats: Vec<&CsrMatrix> = d.right_rev.iter().map(|f| f.matrix.as_ref()).collect();
    let divs: Vec<&[f64]> = divisors.iter().map(|v| v.as_slice()).collect();
    chain::multiply_chain(&mats, Some(&divs), threads).unwrap()
}

/// The factors of `PL` and `PR⁻¹` as owned copies: every adjacency
/// cloned, the middle relation of an odd path split through edge objects.
fn cloned_factors(hin: &Hin, path: &MetaPath) -> (Vec<CsrMatrix>, Vec<CsrMatrix>) {
    let steps = path.steps();
    let mid = steps.len() / 2;
    let right_from = if steps.len() % 2 == 0 { mid } else { mid + 1 };
    let mut left: Vec<CsrMatrix> = steps[..mid]
        .iter()
        .map(|&s| hin.step_adjacency(s).clone())
        .collect();
    let mut right: Vec<CsrMatrix> = steps[right_from..]
        .iter()
        .rev()
        .map(|&s| hin.step_adjacency(s.reversed()).clone())
        .collect();
    if steps.len() % 2 == 1 {
        let (ae, eb) = edge_split(hin.step_adjacency(steps[mid]));
        left.push(ae);
        right.push(eb.transpose());
    }
    (left, right)
}

/// A half from cloned factors: a single factor is cloned and each row
/// divided in place; longer chains take the fused chain product with
/// freshly computed divisors.
fn cloned_half(factors: &[CsrMatrix], threads: usize) -> CsrMatrix {
    let divisors: Vec<Vec<f64>> = factors.iter().map(|m| m.row_sum_divisors()).collect();
    if let [m] = factors {
        let mut values = m.values().to_vec();
        for (r, &d) in divisors[0].iter().enumerate() {
            let (lo, hi) = (m.indptr()[r] as usize, m.indptr()[r + 1] as usize);
            for v in &mut values[lo..hi] {
                *v /= d;
            }
        }
        return CsrMatrix::from_raw(
            m.nrows(),
            m.ncols(),
            m.indptr().to_vec(),
            m.indices().to_vec(),
            values,
        );
    }
    let mats: Vec<&CsrMatrix> = factors.iter().collect();
    let divs: Vec<&[f64]> = divisors.iter().map(|d| d.as_slice()).collect();
    chain::multiply_chain(&mats, Some(&divs), threads).unwrap()
}

/// Row norms as a separate pass over a finished half.
fn separate_norms(m: &CsrMatrix) -> Vec<f64> {
    (0..m.nrows())
        .map(|r| m.row_values(r).iter().map(|v| v * v).sum::<f64>().sqrt())
        .collect()
}

/// The halves as the cloned route builds them, compared with the engine's.
fn check_cloned_route(
    hin: &Hin,
    path: &MetaPath,
    h: &Halves,
    threads: usize,
) -> Result<(), TestCaseError> {
    let (lf, rf) = cloned_factors(hin, path);
    let left = cloned_half(&lf, threads);
    let right = if halves_coincide(path) {
        left.clone()
    } else {
        cloned_half(&rf, threads)
    };
    left.check_finite("left").unwrap();
    right.check_finite("right").unwrap();
    assert_bitwise_eq(&h.left, &left, "cloned route: left")?;
    assert_bitwise_eq(&h.right, &right, "cloned route: right")?;
    assert_bitwise_eq(&h.right_t, &right.transpose(), "cloned route: right_t")?;
    let norms_match = |got: &[f64], half: &CsrMatrix| bits(got) == bits(&separate_norms(half));
    prop_assert!(
        norms_match(&h.left_norms, &left),
        "cloned route: left norms"
    );
    prop_assert!(
        norms_match(&h.right_norms, &right),
        "cloned route: right norms"
    );
    Ok(())
}

/// `matrix()` as it was built before the fused scaling: the unscaled
/// product, then one in-place pass dividing by both row norms.
fn matrix_map_stored_route(h: &Halves, threads: usize) -> CsrMatrix {
    parallel::matmul_parallel(&h.left, &h.right_t, threads)
        .unwrap()
        .map_stored(|a, b, v| Some(v / (h.left_norms[a] * h.right_norms[b])))
}

/// Multiply-adds of `left · right_t`, the product inside `matrix()`.
fn matrix_flops(h: &Halves) -> usize {
    h.left
        .indices()
        .iter()
        .map(|&k| h.right_t.row_nnz(k as usize))
        .sum()
}

fn check_path(hin: &Hin, text: &str, threads: usize) -> Result<usize, TestCaseError> {
    let engine = HeteSimEngine::with_threads(hin, threads);
    let path = MetaPath::parse(hin.schema(), text).unwrap();
    let h = engine.materialized_halves(&path).unwrap();
    prop_assert_eq!(h.shares_left(), halves_coincide(&path), "{}", text);
    if halves_coincide(&path) {
        assert_bitwise_eq(&h.left, &second_chain(hin, &path, threads), text)?;
        prop_assert!(std::sync::Arc::ptr_eq(&h.left_norms, &h.right_norms));
        assert_bitwise_eq(&h.right_t, &h.left.transpose(), text)?;
    }
    check_cloned_route(hin, &path, &h, threads)?;
    let m = engine.matrix(&path).unwrap();
    assert_bitwise_eq(&m, &matrix_map_stored_route(&h, threads), text)?;
    Ok(matrix_flops(&h))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Products under the parallel threshold: the serial kernel's route.
    #[test]
    fn shared_halves_and_fused_cosine_are_bitwise_below_threshold(
        hin in arb_small_hin(),
        path_idx in 0..PATHS.len(),
        threads_idx in 0..2usize,
    ) {
        let flops = check_path(&hin, PATHS[path_idx], [1, 4][threads_idx])?;
        prop_assert!(flops < PARALLEL_FLOP_THRESHOLD);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// A-P-A products above the parallel threshold: the two-phase kernel's
    /// route at 4 threads, the serial one at 1. The same A-P · P-A product
    /// is the first multiply of A-P-A-P-C's left half, and A-P-A-P's left
    /// half multiplies A-P by the split of P-A at the same flop count.
    #[test]
    fn shared_halves_and_fused_cosine_are_bitwise_above_threshold(
        hin in arb_large_hin(),
        threads_idx in 0..2usize,
    ) {
        let flops = check_path(&hin, "APA", [1, 4][threads_idx])?;
        prop_assert!(flops >= PARALLEL_FLOP_THRESHOLD, "only {} flops", flops);
        for text in ["CPAPC", "APAPC", "APAP"] {
            check_path(&hin, text, [1, 4][threads_idx])?;
        }
    }
}
