use hetesim_core::{reachable, PathMeasure, Ranked, Result};
use hetesim_graph::{Hin, MetaPath};
use hetesim_sparse::{CsrMatrix, SparseVec};

/// Path-Constrained Random Walk (Lao & Cohen, 2010).
///
/// `PCRW(s, t | P)` is the probability that a random walker starting at `s`
/// and following the relevance path `P` step by step ends at `t` — i.e. the
/// `(s, t)` entry of the reachable-probability matrix (Definition 9).
///
/// PCRW is the paper's main asymmetric antagonist: `PCRW(s, t | P)` and
/// `PCRW(t, s | P⁻¹)` generally disagree (Table 3), the walker is often
/// *more* likely to land on a high-degree stranger than on itself along a
/// round-trip path (Table 4), and its rank quality trails HeteSim on the
/// query task (Table 5, Figure 6).
#[derive(Debug)]
pub struct Pcrw<'a> {
    hin: &'a Hin,
}

impl<'a> Pcrw<'a> {
    /// A PCRW measure over the given network.
    pub fn new(hin: &'a Hin) -> Self {
        Pcrw { hin }
    }

    /// The underlying network.
    pub fn hin(&self) -> &'a Hin {
        self.hin
    }

    /// Reachable-probability row for a single source (sparse propagation).
    pub fn walk_distribution(&self, path: &MetaPath, source: u32) -> Result<Vec<f64>> {
        Ok(self.walk(path, source)?.to_dense())
    }

    /// The walker's distribution after following `path` from `source`:
    /// the single-source route every per-source query shares.
    fn walk(&self, path: &MetaPath, source: u32) -> Result<SparseVec> {
        let _span = hetesim_obs::span("baselines.pcrw.walk");
        reachable::propagate_from(self.hin, path.steps(), source)
    }
}

impl PathMeasure for Pcrw<'_> {
    fn name(&self) -> &'static str {
        "PCRW"
    }

    fn relevance_matrix(&self, path: &MetaPath) -> Result<CsrMatrix> {
        let _span = hetesim_obs::span("baselines.pcrw.matrix");
        reachable::reachable_matrix(self.hin, path.steps())
    }

    fn score(&self, path: &MetaPath, a: u32, b: u32) -> Result<f64> {
        let v = self.walk(path, a)?;
        Ok(v.get(b as usize))
    }

    fn rank_targets(&self, path: &MetaPath, a: u32) -> Result<Vec<Ranked>> {
        let v = self.walk(path, a)?;
        let mut out: Vec<Ranked> = v
            .iter()
            .map(|(t, s)| Ranked {
                index: t as u32,
                score: s,
            })
            .collect();
        out.sort_by(|x, y| {
            y.score
                .partial_cmp(&x.score)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| x.index.cmp(&y.index))
        });
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetesim_graph::{HinBuilder, Schema};

    fn fig4() -> Hin {
        let mut s = Schema::new();
        let a = s.add_type("author").unwrap();
        let p = s.add_type("paper").unwrap();
        let c = s.add_type("conference").unwrap();
        let w = s.add_relation("writes", a, p).unwrap();
        let pb = s.add_relation("published_in", p, c).unwrap();
        let mut b = HinBuilder::new(s);
        b.add_edge_by_name(w, "Tom", "P1", 1.0).unwrap();
        b.add_edge_by_name(w, "Tom", "P2", 1.0).unwrap();
        b.add_edge_by_name(w, "Mary", "P2", 1.0).unwrap();
        b.add_edge_by_name(w, "Mary", "P3", 1.0).unwrap();
        b.add_edge_by_name(pb, "P1", "KDD", 1.0).unwrap();
        b.add_edge_by_name(pb, "P2", "KDD", 1.0).unwrap();
        b.add_edge_by_name(pb, "P3", "SIGMOD", 1.0).unwrap();
        b.build()
    }

    #[test]
    fn walk_probabilities_sum_to_one() {
        let hin = fig4();
        let pcrw = Pcrw::new(&hin);
        let apc = MetaPath::parse(hin.schema(), "APC").unwrap();
        for a in 0..2u32 {
            let d = pcrw.walk_distribution(&apc, a).unwrap();
            let s: f64 = d.iter().sum();
            assert!((s - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn pcrw_is_asymmetric() {
        let hin = fig4();
        let pcrw = Pcrw::new(&hin);
        let apc = MetaPath::parse(hin.schema(), "APC").unwrap();
        let cpa = apc.reversed();
        let a = hin.schema().type_id("author").unwrap();
        let c = hin.schema().type_id("conference").unwrap();
        let mary = hin.node_id(a, "Mary").unwrap();
        let kdd = hin.node_id(c, "KDD").unwrap();
        let fwd = pcrw.score(&apc, mary, kdd).unwrap();
        let bwd = pcrw.score(&cpa, kdd, mary).unwrap();
        // Mary reaches KDD with prob 0.5; KDD reaches Mary with prob 0.25.
        assert!((fwd - 0.5).abs() < 1e-12);
        assert!((bwd - 0.25).abs() < 1e-12);
        assert!(fwd != bwd);
    }

    #[test]
    fn matrix_matches_scores() {
        let hin = fig4();
        let pcrw = Pcrw::new(&hin);
        let apc = MetaPath::parse(hin.schema(), "APC").unwrap();
        let m = pcrw.relevance_matrix(&apc).unwrap();
        for a in 0..2u32 {
            for c in 0..2u32 {
                assert!(
                    (m.get(a as usize, c as usize) - pcrw.score(&apc, a, c).unwrap()).abs() < 1e-12
                );
            }
        }
    }

    #[test]
    fn ranking_is_descending() {
        let hin = fig4();
        let pcrw = Pcrw::new(&hin);
        let apc = MetaPath::parse(hin.schema(), "APC").unwrap();
        let ranked = pcrw.rank_targets(&apc, 1).unwrap();
        assert!(!ranked.is_empty());
        for w in ranked.windows(2) {
            assert!(w[0].score >= w[1].score);
        }
    }

    #[test]
    fn name_is_pcrw() {
        let hin = fig4();
        assert_eq!(Pcrw::new(&hin).name(), "PCRW");
    }
}
