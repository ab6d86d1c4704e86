//! Bitwise oracles for the two build shortcuts of the half-path cache.
//!
//! * On an even symmetric path the engine builds one chain and shares it
//!   as both halves (Property 1). A test-only second chain, built from the
//!   right half's own factors exactly as the engine builds a left half,
//!   must equal the shared `left` bit for bit.
//! * `matrix()` divides each entry by its two row norms while the product
//!   writes its row. A test-only copy of the route it replaced — the
//!   unscaled product, then one `map_stored` pass — must give the same
//!   `indptr`, `indices` and value bits at engine threads 1 and 4, on
//!   products below the parallel kernel's flop threshold and above it.

use hetesim::core::decompose::{decompose, halves_coincide};
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

/// Even symmetric paths, whose halves coincide, and paths whose do not.
const PATHS: [&str; 7] = ["APA", "PAP", "CPC", "APCPA", "CPAPC", "APC", "AP"];

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

/// The right half built as its own chain, from the factors of `PR⁻¹`, by
/// the same fused chain call the engine makes for a left half.
fn second_chain(hin: &Hin, path: &MetaPath, threads: usize) -> CsrMatrix {
    let d = decompose(hin, path).unwrap();
    let divisors: Vec<Vec<f64>> = d.right_rev.iter().map(|m| m.row_sum_divisors()).collect();
    let mats: Vec<&CsrMatrix> = d.right_rev.iter().collect();
    let divs: Vec<&[f64]> = divisors.iter().map(|v| v.as_slice()).collect();
    chain::multiply_chain(&mats, Some(&divs), threads).unwrap()
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
        assert_bitwise_eq(&h.left, &second_chain(hin, &path, threads))?;
        prop_assert!(std::sync::Arc::ptr_eq(&h.left_norms, &h.right_norms));
        assert_bitwise_eq(&h.right_t, &h.left.transpose())?;
    }
    let m = engine.matrix(&path).unwrap();
    assert_bitwise_eq(&m, &matrix_map_stored_route(&h, threads))?;
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
    /// route at 4 threads, the serial one at 1.
    #[test]
    fn shared_halves_and_fused_cosine_are_bitwise_above_threshold(
        hin in arb_large_hin(),
        threads_idx in 0..2usize,
    ) {
        let flops = check_path(&hin, "APA", [1, 4][threads_idx])?;
        prop_assert!(flops >= PARALLEL_FLOP_THRESHOLD, "only {} flops", flops);
        check_path(&hin, "CPAPC", [1, 4][threads_idx])?;
    }
}
