//! Symmetric eigensolvers.
//!
//! Two regimes, matching how spectral clustering uses them:
//!
//! * [`jacobi`] — the cyclic Jacobi rotation method for small dense
//!   symmetric matrices (the 20-conference affinity in Table 6 is 20×20).
//!   Cubic but unconditionally robust, returns the *full* spectrum.
//! * [`subspace_iteration`] — block power iteration with Gram-Schmidt
//!   re-orthonormalization for the dominant `k` eigenpairs of a large
//!   sparse symmetric operator (the 4k-author affinity). Spectral
//!   clustering only needs the top-k eigenvectors of the normalized
//!   affinity `D^{-1/2} W D^{-1/2}` — whose dominant eigenvectors are
//!   exactly the smallest eigenvectors of the normalized Laplacian — so no
//!   shift-invert machinery is needed.

use hetesim_sparse::{CsrMatrix, DenseMatrix};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Full eigendecomposition of a dense symmetric matrix by cyclic Jacobi.
///
/// Returns `(eigenvalues, eigenvectors)` sorted by descending eigenvalue;
/// eigenvector `i` is the `i`-th *column* of the returned matrix.
///
/// # Panics
/// Panics if the matrix is not square.
pub fn jacobi(a: &DenseMatrix, max_sweeps: usize, tol: f64) -> (Vec<f64>, DenseMatrix) {
    assert_eq!(a.nrows(), a.ncols(), "jacobi requires a square matrix");
    let n = a.nrows();
    let mut m = a.clone();
    let mut v = DenseMatrix::identity(n);
    for _ in 0..max_sweeps {
        // Off-diagonal Frobenius mass; stop when annihilated.
        let mut off = 0.0;
        for r in 0..n {
            for c in (r + 1)..n {
                off += m.get(r, c) * m.get(r, c);
            }
        }
        if off.sqrt() <= tol {
            break;
        }
        for p in 0..n {
            for q in (p + 1)..n {
                let apq = m.get(p, q);
                if apq.abs() <= tol / (n as f64) {
                    continue;
                }
                let app = m.get(p, p);
                let aqq = m.get(q, q);
                let theta = 0.5 * (aqq - app) / apq;
                let t = if theta >= 0.0 {
                    1.0 / (theta + (1.0 + theta * theta).sqrt())
                } else {
                    -1.0 / (-theta + (1.0 + theta * theta).sqrt())
                };
                let c = 1.0 / (1.0 + t * t).sqrt();
                let s = t * c;
                // Apply the rotation G(p, q, theta) on both sides.
                for i in 0..n {
                    let aip = m.get(i, p);
                    let aiq = m.get(i, q);
                    m.set(i, p, c * aip - s * aiq);
                    m.set(i, q, s * aip + c * aiq);
                }
                for i in 0..n {
                    let api = m.get(p, i);
                    let aqi = m.get(q, i);
                    m.set(p, i, c * api - s * aqi);
                    m.set(q, i, s * api + c * aqi);
                }
                for i in 0..n {
                    let vip = v.get(i, p);
                    let viq = v.get(i, q);
                    v.set(i, p, c * vip - s * viq);
                    v.set(i, q, s * vip + c * viq);
                }
            }
        }
    }
    let mut pairs: Vec<(f64, usize)> = (0..n).map(|i| (m.get(i, i), i)).collect();
    pairs.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap_or(std::cmp::Ordering::Equal));
    let eigenvalues: Vec<f64> = pairs.iter().map(|&(l, _)| l).collect();
    let mut vectors = DenseMatrix::zeros(n, n);
    for (dst, &(_, src)) in pairs.iter().enumerate() {
        for r in 0..n {
            vectors.set(r, dst, v.get(r, src));
        }
    }
    (eigenvalues, vectors)
}

/// Modified Gram-Schmidt orthonormalization of the columns of `x`.
/// Columns that collapse to (numerical) zero are re-randomized.
fn orthonormalize(x: &mut DenseMatrix, rng: &mut StdRng) {
    let (n, k) = x.shape();
    for j in 0..k {
        loop {
            for i in 0..j {
                let mut dot = 0.0;
                for r in 0..n {
                    dot += x.get(r, j) * x.get(r, i);
                }
                for r in 0..n {
                    let v = x.get(r, j) - dot * x.get(r, i);
                    x.set(r, j, v);
                }
            }
            let norm: f64 = (0..n)
                .map(|r| x.get(r, j) * x.get(r, j))
                .sum::<f64>()
                .sqrt();
            if norm > 1e-12 {
                for r in 0..n {
                    x.set(r, j, x.get(r, j) / norm);
                }
                break;
            }
            // Degenerate column: replace with fresh noise and retry.
            for r in 0..n {
                x.set(r, j, rng.random::<f64>() - 0.5);
            }
        }
    }
}

/// Top-`k` eigenpairs (by eigenvalue magnitude) of a sparse symmetric
/// matrix via subspace iteration.
///
/// Returns `(eigenvalues, eigenvectors)` with eigenvector `i` in column
/// `i`, ordered by descending Rayleigh quotient.
///
/// # Panics
/// Panics if the matrix is not square or `k` exceeds its dimension.
pub fn subspace_iteration(
    a: &CsrMatrix,
    k: usize,
    max_iterations: usize,
    tol: f64,
    seed: u64,
) -> (Vec<f64>, DenseMatrix) {
    let _span = hetesim_obs::span("ml.eigen.subspace_iteration");
    assert_eq!(a.nrows(), a.ncols(), "operator must be square");
    let n = a.nrows();
    assert!(k >= 1 && k <= n, "k must be in 1..=n");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut x = DenseMatrix::zeros(n, k);
    for r in 0..n {
        for c in 0..k {
            x.set(r, c, rng.random::<f64>() - 0.5);
        }
    }
    orthonormalize(&mut x, &mut rng);
    let mut prev = vec![f64::INFINITY; k];
    // `ax` is always `A·x`: each iteration's Rayleigh product `A·y`
    // becomes the next iteration's `A·x`, and the last one serves the
    // Rayleigh–Ritz step below, so every iteration costs one product.
    let mut ax = a.matmul_dense(&x).expect("square operator");
    for _ in 0..max_iterations {
        let mut y = ax;
        orthonormalize(&mut y, &mut rng);
        // Rayleigh quotients of the current basis.
        let ay = a.matmul_dense(&y).expect("square operator");
        let mut lambda = vec![0.0; k];
        for (j, l) in lambda.iter_mut().enumerate() {
            for r in 0..n {
                *l += y.get(r, j) * ay.get(r, j);
            }
        }
        let delta: f64 = lambda
            .iter()
            .zip(&prev)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max);
        x = y;
        ax = ay;
        prev = lambda;
        if delta < tol {
            break;
        }
    }
    // Rayleigh–Ritz: the iteration converges to the dominant invariant
    // subspace, but individual columns are only an orthonormal basis of it.
    // Project A into the subspace (H = XᵀAX), solve the small dense
    // problem exactly, and rotate the basis into Ritz vectors.
    let mut h = DenseMatrix::zeros(k, k);
    for i in 0..k {
        for j in 0..k {
            let mut s = 0.0;
            for r in 0..n {
                s += x.get(r, i) * ax.get(r, j);
            }
            h.set(i, j, s);
        }
    }
    // Symmetrize against floating-point drift.
    for i in 0..k {
        for j in (i + 1)..k {
            let m = 0.5 * (h.get(i, j) + h.get(j, i));
            h.set(i, j, m);
            h.set(j, i, m);
        }
    }
    let (values, rot) = jacobi(&h, 100, 1e-14);
    let vectors = x.matmul(&rot).expect("shape checked");
    (values, vectors)
}

#[cfg(test)]
mod tests {
    use super::*;
    fn residual(a: &DenseMatrix, lambda: f64, v: &[f64]) -> f64 {
        let av = a.matvec(v).unwrap();
        av.iter()
            .zip(v)
            .map(|(&x, &y)| (x - lambda * y).abs())
            .fold(0.0, f64::max)
    }

    #[test]
    fn jacobi_diagonal_matrix() {
        let a = DenseMatrix::from_rows(&[&[3.0, 0.0, 0.0], &[0.0, 1.0, 0.0], &[0.0, 0.0, 2.0]]);
        let (vals, _) = jacobi(&a, 50, 1e-12);
        assert!((vals[0] - 3.0).abs() < 1e-10);
        assert!((vals[1] - 2.0).abs() < 1e-10);
        assert!((vals[2] - 1.0).abs() < 1e-10);
    }

    #[test]
    fn jacobi_known_2x2() {
        // Eigenvalues of [[2,1],[1,2]] are 3 and 1.
        let a = DenseMatrix::from_rows(&[&[2.0, 1.0], &[1.0, 2.0]]);
        let (vals, vecs) = jacobi(&a, 50, 1e-12);
        assert!((vals[0] - 3.0).abs() < 1e-10);
        assert!((vals[1] - 1.0).abs() < 1e-10);
        for (j, &val) in vals.iter().enumerate() {
            let v: Vec<f64> = (0..2).map(|r| vecs.get(r, j)).collect();
            assert!(residual(&a, val, &v) < 1e-9);
        }
    }

    #[test]
    fn jacobi_eigenvectors_are_orthonormal() {
        let a = DenseMatrix::from_rows(&[&[4.0, 1.0, 0.5], &[1.0, 3.0, 0.25], &[0.5, 0.25, 1.0]]);
        let (_, vecs) = jacobi(&a, 100, 1e-12);
        for i in 0..3 {
            for j in 0..3 {
                let dot: f64 = (0..3).map(|r| vecs.get(r, i) * vecs.get(r, j)).sum();
                let expected = if i == j { 1.0 } else { 0.0 };
                assert!((dot - expected).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn subspace_iteration_matches_jacobi() {
        // A random-ish symmetric matrix.
        let rows: Vec<Vec<f64>> = (0..8)
            .map(|i| {
                (0..8)
                    .map(|j| {
                        let (a, b) = if i <= j { (i, j) } else { (j, i) };
                        ((a * 7 + b * 3) % 5) as f64 + if a == b { 8.0 } else { 0.0 }
                    })
                    .collect()
            })
            .collect();
        let row_refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
        let dense = DenseMatrix::from_rows(&row_refs);
        let sparse = CsrMatrix::from_dense(&dense);
        let (jv, _) = jacobi(&dense, 100, 1e-12);
        let (sv, svec) = subspace_iteration(&sparse, 3, 500, 1e-12, 42);
        for i in 0..3 {
            assert!(
                (jv[i] - sv[i]).abs() < 1e-6,
                "eigenvalue {i}: jacobi {} vs subspace {}",
                jv[i],
                sv[i]
            );
            let v: Vec<f64> = (0..8).map(|r| svec.get(r, i)).collect();
            assert!(residual(&dense, sv[i], &v) < 1e-5);
        }
    }

    #[test]
    fn subspace_iteration_deterministic_per_seed() {
        let dense = DenseMatrix::from_rows(&[&[2.0, 1.0], &[1.0, 2.0]]);
        let sparse = CsrMatrix::from_dense(&dense);
        let (v1, _) = subspace_iteration(&sparse, 2, 200, 1e-12, 7);
        let (v2, _) = subspace_iteration(&sparse, 2, 200, 1e-12, 7);
        assert_eq!(v1, v2);
    }

    #[test]
    #[should_panic(expected = "square")]
    fn subspace_requires_square() {
        let m = CsrMatrix::zeros(2, 3);
        subspace_iteration(&m, 1, 10, 1e-8, 0);
    }
}
