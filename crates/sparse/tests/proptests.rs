//! Property-based tests for the linear-algebra kernels.

use hetesim_sparse::{binio, chain, check_nnz, io, parallel, CooMatrix, CsrMatrix, SparseVec};
use proptest::prelude::*;

/// Strategy producing an arbitrary sparse matrix of bounded shape with
/// small positive integer-ish values (keeps products exactly representable).
fn arb_matrix(max_dim: usize, max_nnz: usize) -> impl Strategy<Value = CsrMatrix> {
    (1..=max_dim, 1..=max_dim).prop_flat_map(move |(r, c)| {
        proptest::collection::vec((0..r, 0..c, 1u8..=9), 0..=max_nnz).prop_map(move |triples| {
            let mut coo = CooMatrix::new(r, c);
            for (i, j, v) in triples {
                coo.push(i, j, v as f64);
            }
            coo.to_csr()
        })
    })
}

/// A pair of matrices with compatible inner dimension.
fn arb_pair() -> impl Strategy<Value = (CsrMatrix, CsrMatrix)> {
    (1..=12usize, 1..=12usize, 1..=12usize).prop_flat_map(|(m, k, n)| {
        let a = proptest::collection::vec((0..m, 0..k, 1u8..=9), 0..=30).prop_map(move |triples| {
            let mut coo = CooMatrix::new(m, k);
            for (i, j, v) in triples {
                coo.push(i, j, v as f64);
            }
            coo.to_csr()
        });
        let b = proptest::collection::vec((0..k, 0..n, 1u8..=9), 0..=30).prop_map(move |triples| {
            let mut coo = CooMatrix::new(k, n);
            for (i, j, v) in triples {
                coo.push(i, j, v as f64);
            }
            coo.to_csr()
        });
        (a, b)
    })
}

/// A chain of 1–4 matrices with compatible inner dimensions.
fn arb_chain() -> impl Strategy<Value = Vec<CsrMatrix>> {
    proptest::collection::vec(1..=12usize, 2..=5).prop_flat_map(|dims| {
        let entries = proptest::collection::vec((0..12usize, 0..12usize, 1u8..=9), 0..=30);
        proptest::collection::vec(entries, dims.len() - 1).prop_map(move |mats| {
            dims.windows(2)
                .zip(mats)
                .map(|(w, triples)| {
                    let mut coo = CooMatrix::new(w[0], w[1]);
                    for (i, j, v) in triples {
                        coo.push(i % w[0], j % w[1], v as f64);
                    }
                    coo.to_csr()
                })
                .collect()
        })
    })
}

/// A pair of compatible matrices where the left factor is Zipf-like
/// skewed: one hot row owns most of the entries (possibly all of them),
/// the tail rows hold at most one entry each, and some rows are empty —
/// the load-balance worst case for a row-partitioned SpGEMM.
fn arb_skewed_pair() -> impl Strategy<Value = (CsrMatrix, CsrMatrix)> {
    (2..=24usize, 1..=12usize, 1..=12usize, 0..=24usize).prop_flat_map(|(m, k, n, hot)| {
        let a = (
            proptest::collection::vec((0..k, 1u8..=9), 0..=60), // hot row entries
            // Tail entries: value 0 means "row stays empty".
            proptest::collection::vec((0..k, 0u8..=9), 0..=12),
        )
            .prop_map(move |(hot_entries, tail)| {
                let mut coo = CooMatrix::new(m, k);
                let hot_row = hot % m;
                for (j, v) in hot_entries {
                    coo.push(hot_row, j, v as f64);
                }
                for (r, (j, v)) in tail.into_iter().enumerate() {
                    if v > 0 {
                        coo.push((r + 1) % m, j, v as f64);
                    }
                }
                coo.to_csr()
            });
        let b = proptest::collection::vec((0..k, 0..n, 1u8..=9), 0..=30).prop_map(move |triples| {
            let mut coo = CooMatrix::new(k, n);
            for (i, j, v) in triples {
                coo.push(i, j, v as f64);
            }
            coo.to_csr()
        });
        (a, b)
    })
}

/// A pair where the left factor has no stored entries at all.
fn arb_empty_lhs_pair() -> impl Strategy<Value = (CsrMatrix, CsrMatrix)> {
    (1..=24usize, 1..=12usize, 1..=12usize).prop_flat_map(|(m, k, n)| {
        let a = Just(CsrMatrix::zeros(m, k));
        let b = proptest::collection::vec((0..k, 0..n, 1u8..=9), 0..=30).prop_map(move |triples| {
            let mut coo = CooMatrix::new(k, n);
            for (i, j, v) in triples {
                coo.push(i, j, v as f64);
            }
            coo.to_csr()
        });
        (a, b)
    })
}

/// A pair whose product rows straddle the dense-accumulator cutoff.
///
/// The output width is `256·w` columns, so the cutoff sits at exactly
/// `w` output entries (`4·nnz ≥ ceil(ncols/64) = 4w` ⇔ `nnz ≥ w`). The
/// right factor's first rows have `w-1`, `w` and `w+1` entries. The
/// left factor's first block reproduces each of them with *two* stored
/// entries — the unit diagonal plus a second entry pointing at the
/// empty rhs row — so those rows carry the exact boundary sizes into
/// the dense/sparse accumulator kernels instead of short-circuiting
/// through the single-entry copy path. A second block of true
/// single-entry rows exercises the copy path at the same sizes, and
/// extra random merge rows ride on top.
fn arb_boundary_pair() -> impl Strategy<Value = (CsrMatrix, CsrMatrix)> {
    let k = 6usize; // rhs rows: w-1, w, w+1, empty, single, 3w entries
    const EMPTY_ROW: usize = 3;
    (
        2..=8usize,
        proptest::collection::vec((0..k, 1u8..=9), 0..=30),
    )
        .prop_map(move |(w, extra)| {
            let ncols = 256 * w;
            let mut rhs = CooMatrix::new(k, ncols);
            let row_nnz = [w - 1, w, w + 1, 0, 1, 3 * w];
            for (i, &nnz) in row_nnz.iter().enumerate() {
                for t in 0..nnz {
                    // Stride 67 spreads entries across bitmap words without
                    // colliding modulo a power-of-two-times-w width.
                    rhs.push(i, (t * 67 + i) % ncols, (1 + t % 9) as f64);
                }
            }
            let nrows = 2 * k + 8;
            let mut lhs = CooMatrix::new(nrows, k);
            for i in 0..k {
                lhs.push(i, i, 1.0); // copies rhs row i into the product...
                if i != EMPTY_ROW {
                    // ...with a flop-free second entry forcing the
                    // accumulator kernels (row nnz 2 ≠ copy path).
                    lhs.push(i, EMPTY_ROW, 1.0);
                }
                lhs.push(k + i, i, 2.0); // single entry: the copy path
            }
            for (r, (j, v)) in extra.into_iter().enumerate() {
                lhs.push(2 * k + r % 8, j, v as f64);
            }
            (lhs.to_csr(), rhs.to_csr())
        })
}

/// A compatible pair with small signed integer values, so products often
/// cancel to exactly zero. `big` pairs clear the parallel kernel's flop
/// threshold (2^17 multiply-adds), so the two-phase kernel runs and
/// compacts the rows that cancelled.
fn arb_signed_pair(big: bool) -> impl Strategy<Value = (CsrMatrix, CsrMatrix)> {
    let (m, k, n, lhs_nnz, rhs_nnz) = if big {
        (160, 24, 240, 3000..3200, 4200..4400)
    } else {
        (12, 8, 12, 0..30, 0..30)
    };
    let signed = |v: i8| if v < 0 { v as f64 } else { (v + 1) as f64 };
    let a = proptest::collection::vec((0..m, 0..k, -3i8..3), lhs_nnz).prop_map(move |triples| {
        let mut coo = CooMatrix::new(m, k);
        for (i, j, v) in triples {
            coo.push(i, j, signed(v));
        }
        coo.to_csr()
    });
    let b = proptest::collection::vec((0..k, 0..n, -3i8..3), rhs_nnz).prop_map(move |triples| {
        let mut coo = CooMatrix::new(k, n);
        for (i, j, v) in triples {
            coo.push(i, j, signed(v));
        }
        coo.to_csr()
    });
    (a, b)
}

/// Fused output divisors equal dividing the finished product in one
/// `map_stored` pass, bit for bit, at 1, 2 and 4 threads.
fn assert_scaled_agrees(
    a: &CsrMatrix,
    b: &CsrMatrix,
    salt: u32,
) -> std::result::Result<(), TestCaseError> {
    let divisors = |n: usize, s: u32| -> Vec<f64> {
        (0..n)
            .map(|i| 0.25 + ((i as u32 * 13 + s) % 17) as f64 / 7.0)
            .collect()
    };
    let (rows, cols) = (divisors(a.nrows(), salt), divisors(b.ncols(), salt + 3));
    let bits = |m: &CsrMatrix| m.values().iter().map(|f| f.to_bits()).collect::<Vec<_>>();
    for threads in [1usize, 2, 4] {
        let want = parallel::matmul_parallel(a, b, threads)
            .unwrap()
            .map_stored(|r, c, v| Some(v / (rows[r] * cols[c])));
        let got = parallel::matmul_parallel_scaled(a, b, &rows, &cols, threads).unwrap();
        prop_assert_eq!(got.indptr(), want.indptr(), "threads={}", threads);
        prop_assert_eq!(got.indices(), want.indices(), "threads={}", threads);
        prop_assert_eq!(bits(&got), bits(&want), "threads={}", threads);
    }
    Ok(())
}

/// Per-row bit-for-bit equality of the two-phase kernel against serial at
/// 1, 2, 4 and 7 threads (including `threads > nrows`), plus exactness of
/// the symbolic nnz counts and agreement with the pre-adaptive reference
/// kernel.
fn assert_two_phase_agrees(a: &CsrMatrix, b: &CsrMatrix) -> std::result::Result<(), TestCaseError> {
    let serial = a.matmul(b).unwrap();
    let reference = a.matmul_reference(b).unwrap();
    prop_assert_eq!(&reference, &serial, "adaptive vs reference kernel");
    for threads in [1usize, 2, 4, 7] {
        let par = parallel::matmul_two_phase(a, b, threads).unwrap();
        // Whole-matrix equality is exactly per-row equality of
        // (indptr, indices, values); CsrMatrix::eq compares all three.
        prop_assert_eq!(&par, &serial, "threads={}", threads);
        let auto = parallel::matmul_parallel(a, b, threads).unwrap();
        prop_assert_eq!(&auto, &serial, "threads={} (auto)", threads);
    }
    let counts = parallel::symbolic_row_nnz(a, b).unwrap();
    let actual: Vec<usize> = (0..serial.nrows()).map(|r| serial.row_nnz(r)).collect();
    prop_assert_eq!(counts, actual);
    Ok(())
}

/// The `BTreeMap` accumulation `CsrMatrix::vecmat` used before the pooled
/// kernel, kept as its bit-identity oracle.
fn btreemap_vecmat(m: &CsrMatrix, x: &SparseVec) -> SparseVec {
    let mut acc = std::collections::BTreeMap::<u32, f64>::new();
    for (r, xv) in x.iter() {
        for (&c, &v) in m.row_indices(r).iter().zip(m.row_values(r)) {
            *acc.entry(c).or_insert(0.0) += xv * v;
        }
    }
    let (indices, values): (Vec<u32>, Vec<f64>) =
        acc.into_iter().filter(|&(_, v)| v != 0.0).unzip();
    SparseVec::from_parts(m.ncols(), indices, values)
}

/// A matrix and a row vector over its rows, with values whose sums round
/// differently in different orders. Both may hold stored zeros, and
/// negative entries let sums cancel to exactly zero.
fn arb_vecmat_operands() -> impl Strategy<Value = (CsrMatrix, SparseVec)> {
    const VALUES: [f64; 6] = [0.0, 0.1, 1.0 / 3.0, 0.7, -0.7, 1.0];
    (1..=10usize, 1..=10usize).prop_flat_map(|(r, c)| {
        (
            proptest::collection::vec((0..r, 0..c, 0..VALUES.len()), 0..=40),
            proptest::collection::vec((0..r, 0..VALUES.len()), 0..=10),
        )
            .prop_map(move |(triples, xs)| {
                let mut coo = CooMatrix::new(r, c);
                for (i, j, v) in triples {
                    coo.push(i, j, VALUES[v]);
                }
                let mut x: Vec<(u32, f64)> =
                    xs.into_iter().map(|(i, v)| (i as u32, VALUES[v])).collect();
                x.sort_by_key(|&(i, _)| i);
                x.dedup_by_key(|&mut (i, _)| i);
                let (idx, vals) = x.into_iter().unzip();
                (coo.to_csr(), SparseVec::from_parts(r, idx, vals))
            })
    })
}

proptest! {
    #[test]
    fn transpose_is_involution(m in arb_matrix(15, 40)) {
        prop_assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn transpose_preserves_nnz(m in arb_matrix(15, 40)) {
        prop_assert_eq!(m.transpose().nnz(), m.nnz());
    }

    #[test]
    fn product_transpose_identity((a, b) in arb_pair()) {
        // (AB)^T == B^T A^T
        let ab_t = a.matmul(&b).unwrap().transpose();
        let bt_at = b.transpose().matmul(&a.transpose()).unwrap();
        prop_assert!(ab_t.max_abs_diff(&bt_at).unwrap() < 1e-9);
    }

    #[test]
    fn matmul_matches_dense((a, b) in arb_pair()) {
        let sparse = a.matmul(&b).unwrap().to_dense();
        let dense = a.to_dense().matmul(&b.to_dense()).unwrap();
        prop_assert!(sparse.max_abs_diff(&dense).unwrap() < 1e-9);
    }

    #[test]
    fn parallel_matches_serial((a, b) in arb_pair()) {
        let serial = a.matmul(&b).unwrap();
        let par = parallel::matmul_parallel(&a, &b, 4).unwrap();
        prop_assert_eq!(par, serial);
    }

    #[test]
    fn two_phase_matches_serial_bitwise((a, b) in arb_pair()) {
        assert_two_phase_agrees(&a, &b)?;
    }

    #[test]
    fn two_phase_matches_serial_on_skew((a, b) in arb_skewed_pair()) {
        assert_two_phase_agrees(&a, &b)?;
    }

    #[test]
    fn two_phase_matches_serial_on_all_empty_rows((a, b) in arb_empty_lhs_pair()) {
        assert_two_phase_agrees(&a, &b)?;
    }

    #[test]
    fn row_normalized_rows_sum_to_one_or_zero(m in arb_matrix(15, 40)) {
        let n = m.row_normalized();
        for r in 0..n.nrows() {
            let s: f64 = n.row_values(r).iter().sum();
            if m.row_nnz(r) > 0 {
                prop_assert!((s - 1.0).abs() < 1e-9);
            } else {
                prop_assert_eq!(s, 0.0);
            }
        }
    }

    #[test]
    fn col_normalized_cols_sum_to_one_or_zero(m in arb_matrix(15, 40)) {
        let n = m.col_normalized().transpose();
        for r in 0..n.nrows() {
            let s: f64 = n.row_values(r).iter().sum();
            if n.row_nnz(r) > 0 {
                prop_assert!((s - 1.0).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn chain_orders_agree(
        (a, b) in arb_pair(),
        extra_cols in 1..10usize,
    ) {
        // Build a third compatible matrix to have a genuine chain.
        let mut coo = CooMatrix::new(b.ncols(), extra_cols);
        for r in 0..b.ncols().min(extra_cols) {
            coo.push(r, r % extra_cols, 1.0);
        }
        let c = coo.to_csr();
        let opt = chain::multiply_chain(&[&a, &b, &c], None, 1).unwrap();
        let naive = chain::multiply_chain_left_to_right(&[&a, &b, &c]).unwrap();
        prop_assert!(opt.max_abs_diff(&naive).unwrap() < 1e-9);
    }

    #[test]
    fn sparse_dot_symmetric(xs in proptest::collection::vec(-5.0..5.0f64, 1..20),
                            ys in proptest::collection::vec(-5.0..5.0f64, 1..20)) {
        let n = xs.len().min(ys.len());
        let a = SparseVec::from_dense(&xs[..n]);
        let b = SparseVec::from_dense(&ys[..n]);
        prop_assert!((a.dot(&b) - b.dot(&a)).abs() < 1e-9);
        let c = a.cosine(&b);
        prop_assert!((-1.0 - 1e-9..=1.0 + 1e-9).contains(&c));
    }

    #[test]
    fn threshold_boundary_rows_agree_bitwise((a, b) in arb_boundary_pair()) {
        // The generator guarantees product rows exactly at, below and
        // above the dense-accumulator cutoff; mixed routing must still be
        // bit-identical serial vs parallel at every thread count.
        let counts = parallel::symbolic_row_nnz(&a, &b).unwrap();
        let ncols = b.ncols();
        let w = ncols / 256; // cutoff nnz by construction
        prop_assert!(counts.contains(&(w - 1)) || w == 1, "no row just below cutoff");
        prop_assert!(counts.contains(&w), "no row exactly at cutoff");
        let dense = counts
            .iter()
            .filter(|&&c| parallel::dense_accumulator_selected(c, ncols))
            .count();
        let sparse = counts
            .iter()
            .filter(|&&c| c > 0 && !parallel::dense_accumulator_selected(c, ncols))
            .count();
        prop_assert!(dense >= 1, "dense accumulator never selected: {:?}", counts);
        prop_assert!(sparse >= 1 || w == 1, "sparse accumulator never selected: {:?}", counts);
        assert_two_phase_agrees(&a, &b)?;
    }

    #[test]
    fn u32_indptr_from_raw_roundtrip(m in arb_matrix(15, 40)) {
        let rebuilt = CsrMatrix::from_raw(
            m.nrows(),
            m.ncols(),
            m.indptr().to_vec(),
            m.indices().to_vec(),
            m.values().to_vec(),
        );
        prop_assert_eq!(&rebuilt, &m);
        let widened: Vec<usize> = m.indptr().iter().map(|&p| p as usize).collect();
        let narrowed = CsrMatrix::try_from_raw_usize(
            m.nrows(),
            m.ncols(),
            widened,
            m.indices().to_vec(),
            m.values().to_vec(),
        )
        .unwrap();
        prop_assert_eq!(&narrowed, &m);
    }

    #[test]
    fn u32_indptr_dense_and_coo_roundtrip(m in arb_matrix(12, 30)) {
        // Values are positive integers, so no entry is dropped as a zero.
        prop_assert_eq!(&CsrMatrix::from_dense(&m.to_dense()), &m);
        let mut coo = CooMatrix::new(m.nrows(), m.ncols());
        for (r, c, v) in m.iter() {
            coo.push(r, c, v);
        }
        prop_assert_eq!(&coo.to_csr(), &m);
    }

    #[test]
    fn u32_indptr_io_roundtrip(m in arb_matrix(12, 30)) {
        let mut buf = Vec::new();
        io::write_matrix_market(&m, &mut buf).unwrap();
        let back = io::read_matrix_market(buf.as_slice()).unwrap();
        prop_assert_eq!(back, m);
    }

    #[test]
    fn check_nnz_accepts_exactly_the_u32_range(n in any::<u64>()) {
        let n = n as usize;
        prop_assert_eq!(check_nnz(n).is_ok(), n <= u32::MAX as usize);
        // Pin the exact boundary regardless of what the generator drew.
        prop_assert!(check_nnz(u32::MAX as usize).is_ok());
        prop_assert!(check_nnz(u32::MAX as usize + 1).is_err());
    }

    #[test]
    fn try_from_raw_usize_rejects_overflowing_offsets(
        extra in 1..=1usize << 20,
        nrows in 1..=8usize,
    ) {
        // An indptr entry past the u32 index space must be rejected with
        // NnzOverflow before any narrowing happens.
        let bad = u32::MAX as usize + extra;
        let mut indptr = vec![0usize; nrows];
        indptr.push(bad);
        let err = CsrMatrix::try_from_raw_usize(nrows, 4, indptr, Vec::new(), Vec::new());
        let overflowed = matches!(err, Err(hetesim_sparse::SparseError::NnzOverflow { .. }));
        prop_assert!(overflowed, "expected NnzOverflow, got {:?}", err.map(|m| m.nnz()));
    }

    #[test]
    fn fused_chain_matches_normalize_then_multiply(mats in arb_chain()) {
        // A chain of one matrix covers the leaf that is returned divided
        // rather than fused into a product.
        let refs: Vec<&CsrMatrix> = mats.iter().collect();
        let divisors: Vec<Vec<f64>> = mats.iter().map(|m| m.row_sum_divisors()).collect();
        let div_refs: Vec<&[f64]> = divisors.iter().map(|d| d.as_slice()).collect();
        let normalized: Vec<CsrMatrix> = mats.iter().map(|m| m.row_normalized()).collect();
        let norm_refs: Vec<&CsrMatrix> = normalized.iter().collect();
        let plain = chain::multiply_chain(&norm_refs, None, 1).unwrap();
        for threads in [1, 2, 4] {
            let fused = chain::multiply_chain(&refs, Some(&div_refs), threads).unwrap();
            prop_assert_eq!(&fused, &plain);
            let unfused = chain::multiply_chain(&norm_refs, None, threads).unwrap();
            prop_assert_eq!(&unfused, &plain);
        }
    }

    #[test]
    fn binio_roundtrip_is_bit_identical(m in arb_matrix(15, 40)) {
        // Row-normalize so values include non-terminating binary
        // fractions (1/3, 1/7, …) — the cases where "approximately
        // equal" and "bit-identical" diverge.
        for m in [m.clone(), m.row_normalized()] {
            let mut bytes = Vec::new();
            binio::encode_csr(&m, &mut bytes);
            prop_assert_eq!(bytes.len(), binio::encoded_len(&m));
            let back = binio::decode_csr_exact(&bytes).unwrap();
            prop_assert_eq!(&back, &m);
            for (a, b) in m.values().iter().zip(back.values()) {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn binio_rejects_every_truncation(m in arb_matrix(6, 12)) {
        let mut bytes = Vec::new();
        binio::encode_csr(&m, &mut bytes);
        // Cut at every prefix length: each must fail with a typed error,
        // never panic or decode successfully.
        for cut in 0..bytes.len() {
            prop_assert!(binio::decode_csr_exact(&bytes[..cut]).is_err(), "cut {}", cut);
        }
    }

    #[test]
    fn csr_row_extraction_matches_get(m in arb_matrix(10, 30)) {
        for r in 0..m.nrows() {
            let row = m.row(r);
            for c in 0..m.ncols() {
                prop_assert_eq!(row.get(c), m.get(r, c));
            }
        }
    }

    #[test]
    fn vecmat_matches_btreemap_bitwise((m, x) in arb_vecmat_operands()) {
        let got = m.vecmat(&x).unwrap();
        let want = btreemap_vecmat(&m, &x);
        prop_assert_eq!(got.indices(), want.indices());
        let bits = |v: &SparseVec| v.values().iter().map(|f| f.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(bits(&got), bits(&want));
    }

    #[test]
    fn vecmat_each_reaches_every_column_once((m, x) in arb_vecmat_operands()) {
        let mut seen = Vec::new();
        let n = m.vecmat_each(x.indices(), x.values(), |c, _| seen.push(c));
        prop_assert_eq!(n, seen.len());
        seen.sort_unstable();
        let mut want: Vec<u32> = x.indices().iter().flat_map(|&r| m.row_indices(r as usize).to_vec()).collect();
        want.sort_unstable();
        want.dedup();
        prop_assert_eq!(seen, want);
    }

    /// Output divisors on small signed products (serial kernel).
    #[test]
    fn output_divisors_match_map_stored_small((a, b) in arb_signed_pair(false), salt in 0u32..50) {
        assert_scaled_agrees(&a, &b, salt)?;
    }

    /// The in-place value pass equals the COO route it replaces: push
    /// each kept `(row, col, f(value))` into a builder and convert. The
    /// rule drops by position and by value, so rows end up emptied,
    /// partly kept and untouched.
    #[test]
    fn map_stored_matches_coo_route(m in arb_matrix(12, 40), salt in 0usize..5, scale in 0.1..3.0f64) {
        let keep = |r: usize, c: usize, v: f64| (r * 7 + c + salt) % 5 != 0 && v != 4.0;
        let mut coo = CooMatrix::with_capacity(m.nrows(), m.ncols(), m.nnz());
        for (r, c, v) in m.iter() {
            if keep(r, c, v) {
                coo.push(r, c, v / scale);
            }
        }
        let want = coo.to_csr();
        let got = m.map_stored(|r, c, v| keep(r, c, v).then(|| v / scale));
        prop_assert_eq!(got.indptr(), want.indptr());
        prop_assert_eq!(got.indices(), want.indices());
        let bits = |m: &CsrMatrix| m.values().iter().map(|f| f.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(bits(&got), bits(&want));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Output divisors on signed products above the parallel threshold:
    /// the two-phase kernel, including its compaction of rows whose
    /// entries cancelled exactly.
    #[test]
    fn output_divisors_match_map_stored_large((a, b) in arb_signed_pair(true), salt in 0u32..50) {
        let flops: usize = a.indices().iter().map(|&k| b.row_nnz(k as usize)).sum();
        prop_assert!(flops >= 1 << 17, "only {} flops", flops);
        let counted: usize = parallel::symbolic_row_nnz(&a, &b).unwrap().iter().sum();
        prop_assert!(a.matmul(&b).unwrap().nnz() < counted, "no entry cancelled");
        assert_scaled_agrees(&a, &b, salt)?;
    }
}
