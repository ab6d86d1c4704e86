use hetesim_core::{CoreError, PathMeasure, Result};
use hetesim_graph::{GraphError, Hin, MetaPath};
use hetesim_sparse::{chain, CsrMatrix};

/// PathSim (Sun et al., VLDB 2011).
///
/// For a *symmetric* meta-path `P` between same-typed objects,
/// `PathSim(a, b) = 2·M(a,b) / (M(a,a) + M(b,b))` where `M` counts path
/// instances (the product of the raw, unnormalized adjacency matrices along
/// `P`). PathSim rewards peers with balanced *visibility*: authors with
/// similar overall publication volume rank high even if their venue
/// distributions differ — the contrast HeteSim exploits in Table 4.
///
/// PathSim is undefined for asymmetric paths and different-typed endpoints;
/// [`PathMeasure::relevance_matrix`] returns an error for those, which is
/// itself one of the paper's motivating observations.
#[derive(Debug)]
pub struct PathSim<'a> {
    hin: &'a Hin,
}

impl<'a> PathSim<'a> {
    /// A PathSim measure over the given network.
    pub fn new(hin: &'a Hin) -> Self {
        PathSim { hin }
    }

    /// Path-instance count matrix `M` for an arbitrary path: the product of
    /// raw adjacency matrices along the steps.
    pub fn count_matrix(&self, path: &MetaPath) -> Result<CsrMatrix> {
        let mats: Vec<&CsrMatrix> = path
            .steps()
            .iter()
            .map(|&s| self.hin.step_adjacency(s))
            .collect();
        Ok(chain::multiply_chain(&mats, None, 1).map_err(GraphError::from)?)
    }

    fn require_symmetric(&self, path: &MetaPath) -> Result<()> {
        if !path.is_symmetric() {
            return Err(CoreError::Graph(GraphError::InvalidPath(format!(
                "PathSim requires a symmetric path, got {}",
                path.display(self.hin.schema())
            ))));
        }
        Ok(())
    }
}

impl PathMeasure for PathSim<'_> {
    fn name(&self) -> &'static str {
        "PathSim"
    }

    fn relevance_matrix(&self, path: &MetaPath) -> Result<CsrMatrix> {
        let _span = hetesim_obs::span("baselines.pathsim.matrix");
        self.require_symmetric(path)?;
        Ok(scale_by_diagonal(self.count_matrix(path)?))
    }

    fn score(&self, path: &MetaPath, a: u32, b: u32) -> Result<f64> {
        self.require_symmetric(path)?;
        let m = self.count_matrix(path)?;
        let denom = m.get(a as usize, a as usize) + m.get(b as usize, b as usize);
        if denom == 0.0 {
            Ok(0.0)
        } else {
            Ok(2.0 * m.get(a as usize, b as usize) / denom)
        }
    }
}

/// `2·M(a,b) / (M(a,a) + M(b,b))` for every stored entry of a square
/// count matrix, computed in place on `M`'s own structure. An entry whose
/// denominator is not positive is dropped.
fn scale_by_diagonal(m: CsrMatrix) -> CsrMatrix {
    let diag: Vec<f64> = (0..m.nrows()).map(|i| m.get(i, i)).collect();
    m.map_stored(|a, b, v| {
        let denom = diag[a] + diag[b];
        (denom > 0.0).then(|| 2.0 * v / denom)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetesim_sparse::CooMatrix;

    /// The route `relevance_matrix` took before the in-place pass: every
    /// kept entry pushed through a COO builder and converted back.
    fn scale_by_diagonal_coo(m: &CsrMatrix) -> CsrMatrix {
        let diag: Vec<f64> = (0..m.nrows()).map(|i| m.get(i, i)).collect();
        let mut coo = CooMatrix::with_capacity(m.nrows(), m.ncols(), m.nnz());
        for (a, b, v) in m.iter() {
            let denom = diag[a] + diag[b];
            if denom > 0.0 {
                coo.push(a, b, 2.0 * v / denom);
            }
        }
        coo.to_csr()
    }

    fn assert_bitwise_eq(got: &CsrMatrix, want: &CsrMatrix) {
        assert_eq!(got.indptr(), want.indptr());
        assert_eq!(got.indices(), want.indices());
        let bits = |m: &CsrMatrix| m.values().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(got), bits(want));
    }

    #[test]
    fn diagonal_scaling_matches_coo_route_and_drops_zero_denominators() {
        // Objects 1 and 2 have a zero diagonal, so (1, 2) and (2, 1) have a
        // zero denominator and are dropped; (3, 3) is a stored negative
        // diagonal whose denominator is negative. Row 4 is empty.
        let mut coo = CooMatrix::new(5, 5);
        for (a, b, v) in [
            (0, 0, 4.0),
            (0, 1, 1.0),
            (0, 3, 3.0),
            (1, 0, 1.0),
            (1, 2, 2.0),
            (2, 1, 2.0),
            (3, 0, 3.0),
            (3, 3, -1.0),
        ] {
            coo.push(a, b, v);
        }
        let m = coo.to_csr();
        let want = scale_by_diagonal_coo(&m);
        let got = scale_by_diagonal(m);
        assert_bitwise_eq(&got, &want);
        assert_eq!(got.row_nnz(1), 1); // (1, 2) dropped, (1, 0) kept
        assert_eq!(got.row_nnz(2), 0);
        assert_eq!(got.row_nnz(3), 1); // (3, 3) dropped
        assert_eq!(got.get(0, 1), 2.0 / 4.0);
    }

    #[test]
    fn relevance_matrix_matches_coo_route() {
        let hin = toy();
        let ps = PathSim::new(&hin);
        for text in ["A-P-A", "A-P-C-P-A", "C-P-A-P-C", "P-A-P"] {
            let path = MetaPath::parse(hin.schema(), text).unwrap();
            let want = scale_by_diagonal_coo(&ps.count_matrix(&path).unwrap());
            assert_bitwise_eq(&ps.relevance_matrix(&path).unwrap(), &want);
        }
    }
    use hetesim_graph::{HinBuilder, Schema};

    fn toy() -> Hin {
        let mut s = Schema::new();
        let a = s.add_type("author").unwrap();
        let p = s.add_type("paper").unwrap();
        let c = s.add_type("conference").unwrap();
        let w = s.add_relation("writes", a, p).unwrap();
        let pb = s.add_relation("published_in", p, c).unwrap();
        let mut b = HinBuilder::new(s);
        // Tom: 2 papers in KDD. Mary: 1 paper in KDD, 1 in SIGMOD.
        // Bob: 4 papers in KDD (high volume).
        b.add_edge_by_name(w, "Tom", "P1", 1.0).unwrap();
        b.add_edge_by_name(w, "Tom", "P2", 1.0).unwrap();
        b.add_edge_by_name(w, "Mary", "P3", 1.0).unwrap();
        b.add_edge_by_name(w, "Mary", "P4", 1.0).unwrap();
        for i in 5..=8 {
            b.add_edge_by_name(w, "Bob", &format!("P{i}"), 1.0).unwrap();
        }
        for p_kdd in ["P1", "P2", "P3", "P5", "P6", "P7", "P8"] {
            b.add_edge_by_name(pb, p_kdd, "KDD", 1.0).unwrap();
        }
        b.add_edge_by_name(pb, "P4", "SIGMOD", 1.0).unwrap();
        b.build()
    }

    #[test]
    fn self_similarity_is_one() {
        let hin = toy();
        let ps = PathSim::new(&hin);
        let apcpa = MetaPath::parse(hin.schema(), "A-P-C-P-A").unwrap();
        for a in 0..3u32 {
            let v = ps.score(&apcpa, a, a).unwrap();
            assert!((v - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn symmetric_in_arguments() {
        let hin = toy();
        let ps = PathSim::new(&hin);
        let apcpa = MetaPath::parse(hin.schema(), "A-P-C-P-A").unwrap();
        for a in 0..3u32 {
            for b in 0..3u32 {
                let ab = ps.score(&apcpa, a, b).unwrap();
                let ba = ps.score(&apcpa, b, a).unwrap();
                assert!((ab - ba).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn volume_balance_matters() {
        let hin = toy();
        let ps = PathSim::new(&hin);
        let apcpa = MetaPath::parse(hin.schema(), "A-P-C-P-A").unwrap();
        let a = hin.schema().type_id("author").unwrap();
        let tom = hin.node_id(a, "Tom").unwrap();
        let mary = hin.node_id(a, "Mary").unwrap();
        let bob = hin.node_id(a, "Bob").unwrap();
        // Tom and Mary have similar volume; Bob dwarfs Tom, which PathSim
        // penalizes through the diagonal normalization.
        let tom_mary = ps.score(&apcpa, tom, mary).unwrap();
        let tom_bob = ps.score(&apcpa, tom, bob).unwrap();
        assert!(tom_mary > 0.0 && tom_bob > 0.0);
        // M(tom,bob)=2*4=8, M(tom,tom)=4, M(bob,bob)=16 -> 16/20 = 0.8
        assert!((tom_bob - 0.8).abs() < 1e-12);
        // M(tom,mary)=2, M(mary,mary)=2 -> 4/6 ≈ 0.667
        assert!((tom_mary - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn asymmetric_path_is_rejected() {
        let hin = toy();
        let ps = PathSim::new(&hin);
        let apc = MetaPath::parse(hin.schema(), "APC").unwrap();
        assert!(ps.relevance_matrix(&apc).is_err());
        assert!(ps.score(&apc, 0, 0).is_err());
    }

    #[test]
    fn matrix_matches_scores() {
        let hin = toy();
        let ps = PathSim::new(&hin);
        let apcpa = MetaPath::parse(hin.schema(), "A-P-C-P-A").unwrap();
        let m = ps.relevance_matrix(&apcpa).unwrap();
        for a in 0..3u32 {
            for b in 0..3u32 {
                let s = ps.score(&apcpa, a, b).unwrap();
                assert!((m.get(a as usize, b as usize) - s).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn count_matrix_counts_path_instances() {
        let hin = toy();
        let ps = PathSim::new(&hin);
        let apc = MetaPath::parse(hin.schema(), "APC").unwrap();
        let m = ps.count_matrix(&apc).unwrap();
        let a = hin.schema().type_id("author").unwrap();
        let c = hin.schema().type_id("conference").unwrap();
        let tom = hin.node_id(a, "Tom").unwrap() as usize;
        let kdd = hin.node_id(c, "KDD").unwrap() as usize;
        assert_eq!(m.get(tom, kdd), 2.0); // Tom has 2 KDD papers
    }
}
