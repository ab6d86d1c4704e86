//! Normalized-Cut spectral clustering (Shi & Malik, 2000) — the clustering
//! algorithm the paper applies to HeteSim/PathSim similarity matrices in
//! Section 5.4.
//!
//! Pipeline: symmetrize the affinity, form `B = D^{-1/2} W D^{-1/2}`
//! (whose dominant eigenvectors are the smallest eigenvectors of the
//! normalized Laplacian `L = I - B`), take the top-`k` eigenvectors, row
//! normalize the embedding, and cluster the rows with k-means++.

use crate::eigen::{jacobi, subspace_iteration};
use crate::kmeans::{kmeans, KMeansConfig};
use hetesim_sparse::{CsrMatrix, DenseMatrix};

/// Configuration for [`normalized_cut`].
#[derive(Debug, Clone, Copy)]
pub struct SpectralConfig {
    /// Subspace-iteration cap for large affinities.
    pub eigen_iterations: usize,
    /// Eigenvalue convergence tolerance.
    pub eigen_tolerance: f64,
    /// Matrices up to this dimension use the dense Jacobi solver
    /// (exact full spectrum) instead of subspace iteration.
    pub dense_threshold: usize,
    /// k-means settings for the embedding.
    pub kmeans: KMeansConfig,
    /// RNG seed for the eigensolver.
    pub seed: u64,
}

impl Default for SpectralConfig {
    fn default() -> Self {
        SpectralConfig {
            eigen_iterations: 300,
            eigen_tolerance: 1e-9,
            dense_threshold: 64,
            kmeans: KMeansConfig::default(),
            seed: 0,
        }
    }
}

/// Symmetrizes an affinity as `(W + Wᵀ) / 2` — relevance matrices are
/// symmetric in exact arithmetic for symmetric paths, but floating-point
/// products can drift, and spectral clustering needs exact symmetry.
pub fn symmetrize(w: &CsrMatrix) -> CsrMatrix {
    w.add(&w.transpose())
        .expect("square affinity")
        .map_stored(|_, _, v| Some(v * 0.5))
}

/// The degree-normalized affinity `D^{-1/2} W D^{-1/2}`, scaled in place
/// on `w`'s own structure; rows/columns with zero degree stay zero (their
/// entries stay stored, as zeros).
pub fn normalized_affinity(w: CsrMatrix) -> CsrMatrix {
    let d = w.row_sums();
    let dinv_sqrt: Vec<f64> = d
        .iter()
        .map(|&x| if x > 0.0 { 1.0 / x.sqrt() } else { 0.0 })
        .collect();
    w.map_stored(|r, c, v| Some(v * dinv_sqrt[r] * dinv_sqrt[c]))
}

/// The spectral embedding: top-`k` eigenvectors of the normalized
/// affinity, rows scaled to unit length.
pub fn spectral_embedding(w: &CsrMatrix, k: usize, cfg: &SpectralConfig) -> DenseMatrix {
    let _span = hetesim_obs::span("ml.spectral.embedding");
    assert_eq!(w.nrows(), w.ncols(), "affinity must be square");
    let b = normalized_affinity(symmetrize(w));
    let n = b.nrows();
    let mut embedding = if n <= cfg.dense_threshold {
        let (_, vecs) = jacobi(&b.to_dense(), 200, 1e-12);
        // Keep the first k columns (sorted by descending eigenvalue).
        let mut e = DenseMatrix::zeros(n, k);
        for r in 0..n {
            for c in 0..k {
                e.set(r, c, vecs.get(r, c));
            }
        }
        e
    } else {
        let (_, vecs) =
            subspace_iteration(&b, k, cfg.eigen_iterations, cfg.eigen_tolerance, cfg.seed);
        vecs
    };
    // Row normalization (Ng–Jordan–Weiss style), guarding empty rows.
    for r in 0..n {
        let row = embedding.row_mut(r);
        let norm: f64 = row.iter().map(|v| v * v).sum::<f64>().sqrt();
        if norm > 1e-12 {
            for v in row.iter_mut() {
                *v /= norm;
            }
        }
    }
    embedding
}

/// Normalized-Cut clustering of a (possibly asymmetric, possibly drifted)
/// affinity matrix into `k` clusters. Returns one label per row.
pub fn normalized_cut(w: &CsrMatrix, k: usize, cfg: &SpectralConfig) -> Vec<usize> {
    let _span = hetesim_obs::span("ml.spectral.normalized_cut");
    let embedding = spectral_embedding(w, k, cfg);
    kmeans(&embedding, k, cfg.kmeans).labels
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetesim_sparse::CooMatrix;

    /// Two dense blocks with a weak bridge.
    fn two_block_affinity() -> CsrMatrix {
        let n = 12;
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            for j in 0..n {
                if i == j {
                    continue;
                }
                let same = (i < 6) == (j < 6);
                let w = if same { 1.0 } else { 0.01 };
                coo.push(i, j, w);
            }
        }
        coo.to_csr()
    }

    #[test]
    fn normalized_affinity_matches_coo_route() {
        // Row 3 holds only a stored zero (degree 0), row 0 a stored zero
        // beside real weights, and (0, 1)/(1, 0) are asymmetric.
        let mut coo = CooMatrix::new(4, 4);
        for (r, c, v) in [
            (0, 0, 1.0),
            (0, 1, 0.5),
            (0, 2, 0.0),
            (1, 0, 0.25),
            (2, 2, 3.0),
            (3, 0, 0.0),
        ] {
            coo.push(r, c, v);
        }
        let mut all = vec![coo.to_csr(), symmetrize(&two_block_affinity())];
        all.push(CsrMatrix::zeros(3, 3));
        for w in all {
            // The route before the in-place pass.
            let d = w.row_sums();
            let dinv: Vec<f64> = d
                .iter()
                .map(|&x| if x > 0.0 { 1.0 / x.sqrt() } else { 0.0 })
                .collect();
            let mut coo = CooMatrix::with_capacity(w.nrows(), w.ncols(), w.nnz());
            for (r, c, v) in w.iter() {
                coo.push(r, c, v * dinv[r] * dinv[c]);
            }
            let want = coo.to_csr();
            let got = normalized_affinity(w);
            assert_eq!(got.indptr(), want.indptr());
            assert_eq!(got.indices(), want.indices());
            let bits = |m: &CsrMatrix| m.values().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got), bits(&want));
        }
    }

    #[test]
    fn recovers_two_blocks() {
        let w = two_block_affinity();
        let labels = normalized_cut(&w, 2, &SpectralConfig::default());
        let first = labels[0];
        assert!(labels[..6].iter().all(|&l| l == first));
        let second = labels[6];
        assert_ne!(first, second);
        assert!(labels[6..].iter().all(|&l| l == second));
    }

    #[test]
    fn recovers_blocks_with_subspace_path() {
        // Force the sparse eigensolver by lowering the dense threshold.
        let w = two_block_affinity();
        let cfg = SpectralConfig {
            dense_threshold: 4,
            ..SpectralConfig::default()
        };
        let labels = normalized_cut(&w, 2, &cfg);
        let first = labels[0];
        assert!(labels[..6].iter().all(|&l| l == first));
        assert!(labels[6..].iter().all(|&l| l != first));
    }

    #[test]
    fn normalized_affinity_spectral_radius_at_most_one() {
        let w = two_block_affinity();
        let b = normalized_affinity(symmetrize(&w));
        let (vals, _) = jacobi(&b.to_dense(), 200, 1e-12);
        assert!(vals[0] <= 1.0 + 1e-9);
    }

    #[test]
    fn symmetrize_handles_asymmetric_input() {
        let mut coo = CooMatrix::new(2, 2);
        coo.push(0, 1, 1.0);
        let s = symmetrize(&coo.to_csr());
        assert_eq!(s.get(0, 1), 0.5);
        assert_eq!(s.get(1, 0), 0.5);
    }

    #[test]
    fn zero_degree_rows_survive() {
        let mut coo = CooMatrix::new(3, 3);
        coo.push(0, 1, 1.0);
        coo.push(1, 0, 1.0);
        let w = coo.to_csr();
        // Node 2 is isolated; the pipeline must not produce NaNs.
        let labels = normalized_cut(&w, 2, &SpectralConfig::default());
        assert_eq!(labels.len(), 3);
    }
}
