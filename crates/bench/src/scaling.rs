//! Section 4.6: complexity comparison between HeteSim and SimRank.
//!
//! The paper argues HeteSim costs `O(l·d·n²)` for one `l`-step path while
//! SimRank iterates over *all* typed pairs at once, `O(k·d·n²·T⁴)`. This
//! module counts the multiply-adds both do on growing synthetic DBLP-like
//! networks. Counts are deterministic, so the table joins the
//! reproduction's byte-for-byte diff; wall clock stays in the spans the
//! run records (`bench.repro.scaling`, `core.engine.matrix`,
//! `baselines.simrank.run`). The expected shape is SimRank's count above
//! HeteSim's at every size, by a ratio that grows with the network.

use crate::table::Table;
use hetesim_baselines::simrank::{simrank, SimRankConfig};
use hetesim_core::{HeteSimEngine, Result};
use hetesim_data::dblp::{self, DblpConfig};
use hetesim_graph::MetaPath;
use hetesim_sparse::CsrMatrix;

/// One scaling measurement.
#[derive(Debug, Clone)]
pub struct ScalingRow {
    /// Total flattened node count of the network.
    pub nodes: usize,
    /// Multiply-adds of the SpGEMM behind a full HeteSim relevance matrix
    /// along `A-P-C`.
    pub hetesim_madds: u64,
    /// Multiply-adds of whole-network SimRank (the paper's `k = 10`
    /// iterations).
    pub simrank_madds: u64,
}

/// Multiply-adds of the row-by-row SpGEMM `lhs · rhs`: each stored
/// `(i, k)` of `lhs` meets every stored entry of row `k` of `rhs`.
fn spgemm_madds(lhs: &CsrMatrix, rhs: &CsrMatrix) -> u64 {
    (0..lhs.nrows())
        .flat_map(|r| lhs.row_indices(r))
        .map(|&k| rhs.row_nnz(k as usize) as u64)
        .sum()
}

/// Runs the scaling sweep over the given author-count sizes.
pub fn scaling_sweep(sizes: &[usize], seed: u64) -> Result<Vec<ScalingRow>> {
    let mut out = Vec::with_capacity(sizes.len());
    for &authors in sizes {
        let cfg = DblpConfig {
            seed,
            authors,
            papers: authors,
            terms: (authors / 2).max(8),
            labeled_authors: (authors / 4).max(1),
            labeled_papers: (authors / 10).max(1),
            ..DblpConfig::default()
        };
        let data = dblp::generate(&cfg);
        let hin = &data.hin;

        // A-P-C's halves are one factor each, so `matrix()` runs exactly
        // one product: `left · right_t`.
        let apc = MetaPath::parse(hin.schema(), "APC")?;
        let engine = HeteSimEngine::new(hin);
        engine.matrix(&apc)?;
        let halves = engine.materialized_halves(&apc)?;
        let hetesim_madds = spgemm_madds(&halves.left, &halves.right_t);

        // Each iteration runs the two `matmul_dense` calls of `Q·S·Qᵀ`,
        // each `nnz(Q) · n` multiply-adds; row normalization keeps the
        // adjacency's structure, so `nnz(Q)` is the adjacency's.
        let sr_cfg = SimRankConfig {
            iterations: 10,
            max_nodes: 1_000_000,
            ..SimRankConfig::default()
        };
        let (flat, _) = simrank(hin, sr_cfg);
        let simrank_madds =
            (sr_cfg.iterations * 2 * flat.adjacency().nnz()) as u64 * flat.node_count() as u64;

        out.push(ScalingRow {
            nodes: hin.total_nodes(),
            hetesim_madds,
            simrank_madds,
        });
    }
    Ok(out)
}

/// Renders the sweep.
pub fn render_scaling(rows: &[ScalingRow]) -> Table {
    let mut t = Table::new(
        "Section 4.6 — HeteSim vs SimRank multiply-adds (full relevance matrix)",
        &[
            "flattened nodes",
            "HeteSim mult-adds",
            "SimRank mult-adds",
            "ratio",
        ],
    );
    for r in rows {
        t.push_row(vec![
            r.nodes.to_string(),
            r.hetesim_madds.to_string(),
            r.simrank_madds.to_string(),
            format!(
                "{:.0}x",
                r.simrank_madds as f64 / r.hetesim_madds.max(1) as f64
            ),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simrank_work_dominates_and_the_gap_grows() {
        let rows = scaling_sweep(&[40, 80, 160], 3).unwrap();
        assert_eq!(rows.len(), 3);
        for r in &rows {
            assert!(r.nodes > 0 && r.hetesim_madds > 0);
            assert!(
                r.simrank_madds > r.hetesim_madds,
                "SimRank ({}) should do more work than HeteSim ({}) at {} nodes",
                r.simrank_madds,
                r.hetesim_madds,
                r.nodes
            );
        }
        for w in rows.windows(2) {
            let ratio = |r: &ScalingRow| r.simrank_madds as f64 / r.hetesim_madds as f64;
            assert!(w[1].nodes > w[0].nodes);
            assert!(ratio(&w[1]) > ratio(&w[0]), "{rows:?}");
        }
    }
}
