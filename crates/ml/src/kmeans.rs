//! Lloyd's k-means with k-means++ seeding and multi-start.
//!
//! The final stage of Normalized-Cut spectral clustering: the rows of the
//! spectral embedding are clustered in `R^k`. Deterministic given a seed.

use hetesim_sparse::DenseMatrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration for [`kmeans`].
#[derive(Debug, Clone, Copy)]
pub struct KMeansConfig {
    /// Maximum Lloyd iterations per restart.
    pub max_iterations: usize,
    /// Independent restarts; the assignment with the lowest inertia wins.
    pub restarts: usize,
    /// RNG seed (restart `i` uses `seed + i`).
    pub seed: u64,
}

impl Default for KMeansConfig {
    fn default() -> Self {
        KMeansConfig {
            max_iterations: 100,
            restarts: 8,
            seed: 0,
        }
    }
}

/// Result of a k-means run.
#[derive(Debug, Clone)]
pub struct KMeansResult {
    /// Cluster label of each row.
    pub labels: Vec<usize>,
    /// Final centroids (`k × d`).
    pub centroids: DenseMatrix,
    /// Sum of squared distances to assigned centroids.
    pub inertia: f64,
}

fn sq_dist(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(&x, &y)| (x - y) * (x - y)).sum()
}

/// k-means++ seeding: the first centroid is uniform, each next one is drawn
/// with probability proportional to squared distance from the chosen set.
fn seed_centroids(data: &DenseMatrix, k: usize, rng: &mut StdRng) -> DenseMatrix {
    let (n, d) = data.shape();
    let mut centroids = DenseMatrix::zeros(k, d);
    let first = rng.random_range(0..n);
    centroids.row_mut(0).copy_from_slice(data.row(first));
    let mut dist = vec![f64::INFINITY; n];
    for c in 1..k {
        for (r, d) in dist.iter_mut().enumerate() {
            let d2 = sq_dist(data.row(r), centroids.row(c - 1));
            if d2 < *d {
                *d = d2;
            }
        }
        let total: f64 = dist.iter().sum();
        let chosen = if total <= 0.0 {
            rng.random_range(0..n)
        } else {
            let mut target = rng.random::<f64>() * total;
            let mut pick = n - 1;
            for (r, &w) in dist.iter().enumerate() {
                target -= w;
                if target <= 0.0 {
                    pick = r;
                    break;
                }
            }
            pick
        };
        centroids.row_mut(c).copy_from_slice(data.row(chosen));
    }
    centroids
}

fn lloyd(data: &DenseMatrix, k: usize, cfg: KMeansConfig, rng: &mut StdRng) -> KMeansResult {
    let (n, d) = data.shape();
    let mut centroids = seed_centroids(data, k, rng);
    let mut labels = vec![0usize; n];
    let mut inertia = f64::INFINITY;
    for _ in 0..cfg.max_iterations {
        // Assign.
        let mut changed = false;
        let mut new_inertia = 0.0;
        for (r, label) in labels.iter_mut().enumerate() {
            let mut best = (0usize, f64::INFINITY);
            for c in 0..k {
                let d2 = sq_dist(data.row(r), centroids.row(c));
                if d2 < best.1 {
                    best = (c, d2);
                }
            }
            if *label != best.0 {
                *label = best.0;
                changed = true;
            }
            new_inertia += best.1;
        }
        inertia = new_inertia;
        if !changed {
            break;
        }
        // Update.
        let mut sums = DenseMatrix::zeros(k, d);
        let mut counts = vec![0usize; k];
        for r in 0..n {
            counts[labels[r]] += 1;
            let row = data.row(r);
            let srow = sums.row_mut(labels[r]);
            for (s, &v) in srow.iter_mut().zip(row) {
                *s += v;
            }
        }
        for (c, &count) in counts.iter().enumerate() {
            if count == 0 {
                // Empty cluster: re-seed at the farthest point.
                let far = (0..n)
                    .max_by(|&a, &b| {
                        sq_dist(data.row(a), centroids.row(labels[a]))
                            .partial_cmp(&sq_dist(data.row(b), centroids.row(labels[b])))
                            .unwrap_or(std::cmp::Ordering::Equal)
                    })
                    .unwrap_or(0);
                centroids.row_mut(c).copy_from_slice(data.row(far));
            } else {
                let inv = 1.0 / count as f64;
                for j in 0..d {
                    centroids.set(c, j, sums.get(c, j) * inv);
                }
            }
        }
    }
    KMeansResult {
        labels,
        centroids,
        inertia,
    }
}

/// Clusters the rows of `data` into `k` groups.
///
/// # Panics
/// Panics if `k == 0` or `k > data.nrows()`.
pub fn kmeans(data: &DenseMatrix, k: usize, cfg: KMeansConfig) -> KMeansResult {
    let _span = hetesim_obs::span("ml.kmeans.run");
    assert!(k >= 1 && k <= data.nrows(), "k must be in 1..=n");
    let mut best: Option<KMeansResult> = None;
    for restart in 0..cfg.restarts.max(1) {
        let mut rng = StdRng::seed_from_u64(cfg.seed.wrapping_add(restart as u64));
        let run = lloyd(data, k, cfg, &mut rng);
        if best.as_ref().map_or(true, |b| run.inertia < b.inertia) {
            best = Some(run);
        }
    }
    best.expect("at least one restart")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_blobs() -> DenseMatrix {
        let mut rows = Vec::new();
        for i in 0..10 {
            rows.push(vec![0.0 + (i as f64) * 0.01, 0.0]);
        }
        for i in 0..10 {
            rows.push(vec![5.0 + (i as f64) * 0.01, 5.0]);
        }
        let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
        DenseMatrix::from_rows(&refs)
    }

    #[test]
    fn separates_two_blobs() {
        let data = two_blobs();
        let res = kmeans(&data, 2, KMeansConfig::default());
        // All of the first ten share a label, all of the last ten share the
        // other.
        let first = res.labels[0];
        assert!(res.labels[..10].iter().all(|&l| l == first));
        let second = res.labels[10];
        assert_ne!(first, second);
        assert!(res.labels[10..].iter().all(|&l| l == second));
        assert!(res.inertia < 1.0);
    }

    #[test]
    fn k_equals_one() {
        let data = two_blobs();
        let res = kmeans(&data, 1, KMeansConfig::default());
        assert!(res.labels.iter().all(|&l| l == 0));
    }

    #[test]
    fn k_equals_n_gives_zero_inertia() {
        let data = DenseMatrix::from_rows(&[&[0.0], &[1.0], &[2.0]]);
        let res = kmeans(&data, 3, KMeansConfig::default());
        assert!(res.inertia < 1e-18);
        let mut sorted = res.labels.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2]);
    }

    #[test]
    fn deterministic_given_seed() {
        let data = two_blobs();
        let cfg = KMeansConfig {
            seed: 123,
            ..KMeansConfig::default()
        };
        let a = kmeans(&data, 2, cfg);
        let b = kmeans(&data, 2, cfg);
        assert_eq!(a.labels, b.labels);
    }

    #[test]
    #[should_panic(expected = "k must be")]
    fn zero_k_panics() {
        kmeans(&two_blobs(), 0, KMeansConfig::default());
    }
}
