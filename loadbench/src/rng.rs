//! Seeded randomness for workload generation: a splitmix64 stream plus a
//! Zipf sampler. Self-contained so the generated inputs depend only on the
//! `--seed` argument and this file.

/// splitmix64: small, fast, and good enough for picking requests.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5eed_1ab5_0f5e_ed00)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n
    }

    /// Exponentially distributed with the given mean.
    pub fn exp(&mut self, mean: f64) -> f64 {
        -mean * (1.0 - self.unit()).ln()
    }
}

/// Zipf(s) over `0..n`: rank `r` is drawn with weight `1 / (r + 1)^s`.
/// Ranks map to items through a permutation.
pub struct Zipf {
    cdf: Vec<f64>,
    perm: Vec<u32>,
}

impl Zipf {
    /// Item `r` has rank `r`: the lowest index is the most popular.
    pub fn ranked(n: usize, s: f64) -> Zipf {
        Zipf::with_perm(n, s, (0..n as u32).collect())
    }

    /// Ranks are assigned by a seeded permutation, so the popular items
    /// are not simply the lowest indices.
    pub fn new(n: usize, s: f64, rng: &mut Rng) -> Zipf {
        let mut perm: Vec<u32> = (0..n as u32).collect();
        for i in (1..n).rev() {
            perm.swap(i, rng.below(i + 1));
        }
        Zipf::with_perm(n, s, perm)
    }

    fn with_perm(n: usize, s: f64, perm: Vec<u32>) -> Zipf {
        assert!(n > 0, "Zipf over an empty range");
        let mut acc = 0.0;
        let mut cdf = Vec::with_capacity(n);
        for r in 0..n {
            acc += 1.0 / ((r + 1) as f64).powf(s);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf, perm }
    }

    pub fn sample(&self, rng: &mut Rng) -> u32 {
        let u = rng.unit();
        let rank = self
            .cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1);
        self.perm[rank]
    }
}
