//! Pruned top-k relevance search (Section 4.6, optimization 3).
//!
//! "The related objects to a searched object are a very small percentage of
//! all objects in the target type" — so instead of scoring every target, we
//! walk only the middle objects the source actually reaches and accumulate
//! meeting mass into the targets that share them. Targets never touched are
//! provably zero and are skipped entirely.

use crate::cache::Halves;
use crate::{Ranked, Result};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Left-half nnz below which [`top_k_pairs_parallel`] stays serial. The
/// all-pairs join does a full pruned accumulation per source, so far less
/// total mass is needed before threads pay off.
const PARALLEL_MIN_LEFT_NNZ: usize = 1 << 12;

/// Splits `0..n` into at most `parts` contiguous ranges of near-equal total
/// cost, where `cost(r)` is the per-row work estimate. Ranges are cut as
/// soon as the running cost reaches the per-part budget, so a single hot
/// row never drags its neighbours into the same worker.
fn balanced_ranges(n: usize, parts: usize, cost: impl Fn(usize) -> usize) -> Vec<(usize, usize)> {
    let parts = parts.max(1).min(n.max(1));
    let total: usize = (0..n).map(&cost).sum();
    let per = total / parts + 1;
    let mut ranges = Vec::with_capacity(parts);
    let mut start = 0usize;
    let mut acc = 0usize;
    for r in 0..n {
        acc += cost(r);
        if acc >= per && r + 1 < n && ranges.len() + 1 < parts {
            ranges.push((start, r + 1));
            start = r + 1;
            acc = 0;
        }
    }
    if start < n || ranges.is_empty() {
        ranges.push((start, n));
    }
    ranges
}

/// A bounded max-score collector: keeps the `k` highest-scoring items seen,
/// breaking score ties by ascending index for deterministic output.
#[derive(Debug)]
pub struct TopK {
    k: usize,
    // Min-heap of the current best k (the root is the weakest kept item).
    heap: BinaryHeap<HeapItem>,
}

#[derive(Debug, PartialEq)]
struct HeapItem {
    score: f64,
    index: u32,
}

impl Eq for HeapItem {}

impl Ord for HeapItem {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse ordering on score => BinaryHeap becomes a min-heap on
        // score. NaN scores are rejected at insertion.
        other
            .score
            .partial_cmp(&self.score)
            .expect("scores are finite")
            .then_with(|| self.index.cmp(&other.index))
    }
}

impl PartialOrd for HeapItem {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl TopK {
    /// A collector keeping the best `k` of at most `candidates` offered
    /// items. The heap preallocates for the smaller of the two, so a `k`
    /// far above what can ever be offered costs nothing up front.
    pub fn new(k: usize, candidates: usize) -> TopK {
        TopK {
            k,
            heap: BinaryHeap::with_capacity(k.min(candidates)),
        }
    }

    /// Offers one item; non-finite scores are ignored.
    pub fn push(&mut self, index: u32, score: f64) {
        if self.k == 0 || !score.is_finite() {
            return;
        }
        if self.heap.len() < self.k {
            self.heap.push(HeapItem { score, index });
            return;
        }
        let weakest = self.heap.peek().expect("non-empty at capacity");
        let better = score > weakest.score || (score == weakest.score && index < weakest.index);
        if better {
            self.heap.pop();
            self.heap.push(HeapItem { score, index });
        }
    }

    /// Extracts the kept items, best first.
    pub fn into_sorted(self) -> Vec<Ranked> {
        let mut items: Vec<HeapItem> = self.heap.into_vec();
        items.sort_by(|a, b| {
            b.score
                .partial_cmp(&a.score)
                .expect("scores are finite")
                .then_with(|| a.index.cmp(&b.index))
        });
        items
            .into_iter()
            .map(|h| Ranked {
                index: h.index,
                score: h.score,
            })
            .collect()
    }
}

/// The stored entries of one left-half row and its cached L2 norm.
fn source_row(h: &Halves, source: usize) -> (&[u32], &[f64], f64) {
    (
        h.left.row_indices(source),
        h.left.row_values(source),
        h.left_norms[source],
    )
}

/// Top-k normalized HeteSim for one source row over materialized halves.
///
/// Dot products accumulate over `right_t` with
/// [`CsrMatrix::vecmat_each`](hetesim_sparse::CsrMatrix::vecmat_each),
/// so only the targets that share a middle object with the source are
/// ever scored. Complexity is
/// `O(Σ_{m ∈ supp(u)} nnz(right_t[m]) + |candidates| log k)` —
/// independent of the number of targets with zero meeting probability.
pub fn top_k_pruned(h: &Halves, source: u32, k: usize) -> Result<Vec<Ranked>> {
    let (idx, vals, un) = source_row(h, source as usize);
    if idx.is_empty() || k == 0 {
        return Ok(Vec::new());
    }
    let mut top = TopK::new(k, h.right_t.ncols());
    let touched = h.right_t.vecmat_each(idx, vals, |t, dot| {
        let denom = un * h.right_norms[t as usize];
        if denom > 0.0 {
            top.push(t, dot / denom);
        }
    });
    hetesim_obs::add("core.engine.topk.touched", touched as u64);
    Ok(top.into_sorted())
}

/// One scored source–target pair from an all-pairs search.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RankedPair {
    /// Source object index.
    pub source: u32,
    /// Target object index.
    pub target: u32,
    /// Normalized HeteSim score.
    pub score: f64,
}

/// The `k` highest-scoring `(source, target)` pairs over materialized
/// halves — the path-based analogue of the top-k similarity join the
/// related-work section cites. Pairs with zero meeting probability are
/// never materialized; ties break by `(source, target)` ascending.
pub fn top_k_pairs(h: &Halves, k: usize) -> Result<Vec<RankedPair>> {
    let mut best: Vec<RankedPair> = Vec::new();
    if k == 0 {
        return Ok(best);
    }
    for source in 0..h.left.nrows() {
        score_source_pairs(h, source, k, &mut best);
    }
    Ok(best)
}

/// Inserts `candidate` into the sorted bounded list `best` (descending
/// score, ties ascending `(source, target)`), keeping at most `k` items.
fn insert_pair(best: &mut Vec<RankedPair>, k: usize, candidate: RankedPair) {
    let pos = best.partition_point(|b| {
        b.score > candidate.score
            || (b.score == candidate.score
                && (b.source, b.target) < (candidate.source, candidate.target))
    });
    if pos < k {
        best.insert(pos, candidate);
        best.truncate(k);
    }
}

/// Scores every reachable target of one source (pruned accumulation) and
/// offers the pairs to `best`.
fn score_source_pairs(h: &Halves, source: usize, k: usize, best: &mut Vec<RankedPair>) {
    let (idx, vals, un) = source_row(h, source);
    if idx.is_empty() {
        return;
    }
    h.right_t.vecmat_each(idx, vals, |t, dot| {
        let denom = un * h.right_norms[t as usize];
        if denom <= 0.0 {
            return;
        }
        let score = dot / denom;
        if score.is_finite() {
            insert_pair(
                best,
                k,
                RankedPair {
                    source: source as u32,
                    target: t,
                    score,
                },
            );
        }
    });
}

/// The `k` highest-scoring pairs with sources partitioned across `threads`
/// workers.
///
/// Sources are split into contiguous ranges of near-equal left-half nnz
/// (the per-source pruned-accumulation cost is proportional to the mass of
/// its distribution); each worker keeps its own bounded best-list and the
/// lists are merged with the same ordered insert. Every global top-k pair
/// necessarily survives its worker's local top-k, and the top-k set is
/// unique under the (score desc, pair asc) total order, so the result is
/// identical to [`top_k_pairs`] at every thread count. Falls back to the
/// serial path when `threads <= 1` or the left half is small.
pub fn top_k_pairs_parallel(h: &Halves, k: usize, threads: usize) -> Result<Vec<RankedPair>> {
    if threads <= 1 || h.left.nnz() < PARALLEL_MIN_LEFT_NNZ {
        return top_k_pairs(h, k);
    }
    top_k_pairs_parallel_force(h, k, threads)
}

/// The parallel body of [`top_k_pairs_parallel`], with no size gate.
fn top_k_pairs_parallel_force(h: &Halves, k: usize, threads: usize) -> Result<Vec<RankedPair>> {
    if k == 0 {
        return Ok(Vec::new());
    }
    let _span = hetesim_obs::span!(
        "core.topk.pairs_parallel",
        sources = h.left.nrows(),
        threads = threads,
    );
    let ns = h.left.nrows();
    let ranges = balanced_ranges(ns, threads, |s| h.left.row_nnz(s));
    let lists: Vec<Vec<RankedPair>> = std::thread::scope(|s| {
        let handles: Vec<_> = ranges
            .iter()
            .map(|&(lo, hi)| {
                s.spawn(move || {
                    let mut best: Vec<RankedPair> = Vec::new();
                    for source in lo..hi {
                        score_source_pairs(h, source, k, &mut best);
                    }
                    best
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("top-k worker panicked"))
            .collect()
    });
    let mut best: Vec<RankedPair> = Vec::new();
    for list in lists {
        for candidate in list {
            insert_pair(&mut best, k, candidate);
        }
    }
    Ok(best)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keeps_best_k_sorted() {
        let mut t = TopK::new(3, 5);
        for (i, s) in [(0u32, 0.1), (1, 0.9), (2, 0.5), (3, 0.7), (4, 0.2)] {
            t.push(i, s);
        }
        let out = t.into_sorted();
        let idx: Vec<u32> = out.iter().map(|r| r.index).collect();
        assert_eq!(idx, vec![1, 3, 2]);
        assert!(out[0].score >= out[1].score && out[1].score >= out[2].score);
    }

    #[test]
    fn ties_break_by_index() {
        let mut t = TopK::new(2, 5);
        t.push(5, 0.5);
        t.push(1, 0.5);
        t.push(3, 0.5);
        let idx: Vec<u32> = t.into_sorted().iter().map(|r| r.index).collect();
        assert_eq!(idx, vec![1, 3]);
    }

    #[test]
    fn zero_k_collects_nothing() {
        let mut t = TopK::new(0, 5);
        t.push(0, 1.0);
        assert!(t.into_sorted().is_empty());
    }

    #[test]
    fn nan_scores_are_ignored() {
        let mut t = TopK::new(2, 5);
        t.push(0, f64::NAN);
        t.push(1, 0.5);
        let out = t.into_sorted();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].index, 1);
    }

    #[test]
    fn fewer_items_than_k() {
        let mut t = TopK::new(10, 5);
        t.push(0, 0.3);
        t.push(1, 0.6);
        let out = t.into_sorted();
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].index, 1);
    }

    use hetesim_sparse::{CooMatrix, CsrMatrix};
    use std::sync::Arc;

    fn halves_from(left: CsrMatrix, right: CsrMatrix) -> Halves {
        let bare = |m| crate::cache::RawHalf::bare(Arc::new(m));
        Halves::derive(bare(left), Some(bare(right)), None).unwrap()
    }

    /// A skewed fixture: source 0 reaches most middles (hot row), several
    /// sources reach nothing (empty rows), targets have varied support.
    fn skewed_halves() -> Halves {
        let (sources, middles, targets) = (37usize, 23usize, 41usize);
        let mut left = CooMatrix::new(sources, middles);
        for m in 0..middles {
            left.push(0, m, 1.0 + (m % 5) as f64 * 0.25);
        }
        let mut x = 7usize;
        for s in 1..sources {
            if s % 4 == 0 {
                continue; // empty source rows
            }
            for _ in 0..2 {
                x = (x * 1103515245 + 12345) % 2147483648;
                left.push(s, x % middles, ((x % 9) + 1) as f64 * 0.5);
            }
        }
        let mut right = CooMatrix::new(targets, middles);
        for m in 0..middles {
            right.push(3, m, 0.75); // hot target
        }
        for t in 0..targets {
            if t % 5 == 1 {
                continue; // unreachable targets
            }
            for _ in 0..3 {
                x = (x * 1103515245 + 12345) % 2147483648;
                right.push(t, x % middles, ((x % 7) + 1) as f64 * 0.3);
            }
        }
        halves_from(left.to_csr(), right.to_csr())
    }

    /// The accumulation `top_k_pruned` used before the pooled kernel: a
    /// `HashMap` keyed by target, filled over ascending middle objects.
    /// Kept as the bit-identity oracle for the kernel route.
    fn hashmap_top_k(h: &Halves, source: u32, k: usize) -> Vec<Ranked> {
        let u = h.left.row(source as usize);
        if u.is_empty() || k == 0 {
            return Vec::new();
        }
        let un = u.l2_norm();
        let mut acc: std::collections::HashMap<u32, f64> = std::collections::HashMap::new();
        for (m, w) in u.iter() {
            for (&t, &v) in h.right_t.row_indices(m).iter().zip(h.right_t.row_values(m)) {
                *acc.entry(t).or_insert(0.0) += w * v;
            }
        }
        let mut top = TopK::new(k, acc.len());
        for (t, dot) in acc {
            let denom = un * h.right_norms[t as usize];
            if denom > 0.0 {
                top.push(t, dot / denom);
            }
        }
        top.into_sorted()
    }

    /// The `HashMap` all-pairs join `top_k_pairs` used before the kernel.
    fn hashmap_top_k_pairs(h: &Halves, k: usize) -> Vec<RankedPair> {
        let mut best = Vec::new();
        if k == 0 {
            return best;
        }
        for source in 0..h.left.nrows() as u32 {
            for r in hashmap_top_k(h, source, usize::MAX) {
                insert_pair(
                    &mut best,
                    k,
                    RankedPair {
                        source,
                        target: r.index,
                        score: r.score,
                    },
                );
            }
        }
        best
    }

    fn bits(ranked: &[Ranked]) -> Vec<(u32, u64)> {
        ranked
            .iter()
            .map(|r| (r.index, r.score.to_bits()))
            .collect()
    }

    fn pair_bits(pairs: &[RankedPair]) -> Vec<(u32, u32, u64)> {
        pairs
            .iter()
            .map(|p| (p.source, p.target, p.score.to_bits()))
            .collect()
    }

    /// Asserts the kernel routes reproduce the `HashMap` oracle bit for
    /// bit, for every source and each `k` in `{0, 1, 3, n, n + 5}` plus
    /// `extra_k` (`n` = target count).
    fn assert_matches_hashmap(h: &Halves, extra_k: &[usize]) {
        let n = h.right.nrows();
        let ks = [0usize, 1, 3, n, n + 5]
            .into_iter()
            .chain(extra_k.iter().copied());
        for k in ks {
            for source in 0..h.left.nrows() as u32 {
                let got = top_k_pruned(h, source, k).unwrap();
                assert_eq!(
                    bits(&got),
                    bits(&hashmap_top_k(h, source, k)),
                    "source={source} k={k}"
                );
            }
            let want = pair_bits(&hashmap_top_k_pairs(h, k));
            assert_eq!(pair_bits(&top_k_pairs(h, k).unwrap()), want, "pairs k={k}");
            for threads in [2usize, 4] {
                let par = top_k_pairs_parallel_force(h, k, threads).unwrap();
                assert_eq!(pair_bits(&par), want, "pairs k={k} threads={threads}");
            }
        }
    }

    #[test]
    fn pruned_matches_hashmap_on_skewed_halves() {
        assert_matches_hashmap(&skewed_halves(), &[10, 1000]);
    }

    #[test]
    fn stored_zero_in_source_row_scores_its_targets_zero() {
        // Source 0 reaches middle 1 only through a stored zero; target 1
        // meets it nowhere else, so it is a candidate scored exactly 0.
        let left = CsrMatrix::from_raw(1, 2, vec![0, 2], vec![0, 1], vec![1.0, 0.0]);
        let mut right = CooMatrix::new(2, 2);
        right.push(0, 0, 1.0);
        right.push(1, 1, 1.0);
        let h = halves_from(left, right.to_csr());
        let got = top_k_pruned(&h, 0, 5).unwrap();
        assert_eq!(got.len(), 2);
        assert_eq!((got[1].index, got[1].score.to_bits()), (1, 0f64.to_bits()));
        assert_matches_hashmap(&h, &[]);
    }

    use proptest::prelude::*;

    /// Values whose sums round differently in different orders, so a
    /// change of accumulation order shows in the bits.
    const VALUES: [f64; 5] = [0.0, 0.1, 1.0 / 3.0, 0.7, 1.0];

    /// Random halves with values from [`VALUES`]: stored zeros in both
    /// halves, empty source rows, and exact score ties between targets
    /// with equal rows.
    fn arb_halves() -> impl Strategy<Value = Halves> {
        (1..=8usize, 1..=8usize, 1..=10usize).prop_flat_map(|(s, m, t)| {
            let entries = |rows, n| proptest::collection::vec((0..rows, 0..m, 0u8..=4), 0..=n);
            (entries(s, 24), entries(t, 40)).prop_map(move |(l, r)| {
                let mut left = CooMatrix::new(s, m);
                for (i, j, v) in l {
                    left.push(i, j, VALUES[v as usize]);
                }
                let mut right = CooMatrix::new(t, m);
                for (i, j, v) in r {
                    right.push(i, j, VALUES[v as usize]);
                }
                halves_from(left.to_csr(), right.to_csr())
            })
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn pruned_routes_match_hashmap_bitwise(h in arb_halves()) {
            assert_matches_hashmap(&h, &[]);
        }
    }

    #[test]
    fn parallel_pairs_match_serial_bitwise() {
        let h = skewed_halves();
        for k in [1usize, 4, 17, 10_000] {
            let serial = top_k_pairs(&h, k).unwrap();
            for threads in [2usize, 4, 7, 64] {
                let par = top_k_pairs_parallel_force(&h, k, threads).unwrap();
                assert_eq!(par, serial, "k={k} threads={threads}");
            }
        }
        assert!(top_k_pairs_parallel_force(&h, 0, 4).unwrap().is_empty());
    }

    #[test]
    fn balanced_ranges_cover_and_isolate_hot_rows() {
        // One hot row (cost 100) among unit-cost rows: the hot row should
        // not share a range with the entire tail.
        let cost = |r: usize| if r == 2 { 100 } else { 1 };
        let ranges = balanced_ranges(10, 4, cost);
        assert!(ranges.len() <= 4);
        assert_eq!(ranges.first().unwrap().0, 0);
        assert_eq!(ranges.last().unwrap().1, 10);
        for w in ranges.windows(2) {
            assert_eq!(w[0].1, w[1].0);
        }
        // The range containing row 2 ends right after it.
        let hot = ranges.iter().find(|&&(lo, hi)| lo <= 2 && 2 < hi).unwrap();
        assert_eq!(hot.1, 3);
        // Degenerate inputs.
        assert_eq!(balanced_ranges(0, 4, |_| 1), vec![(0, 0)]);
        assert_eq!(balanced_ranges(5, 1, |_| 1), vec![(0, 5)]);
        assert_eq!(balanced_ranges(3, 64, |_| 0).last().unwrap().1, 3);
    }
}
