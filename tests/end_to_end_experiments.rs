//! End-to-end shape tests: every paper table/figure regenerates on the
//! synthetic networks, and the paper's qualitative claims hold.

use hetesim_bench::datasets::{acm_dataset, dblp_dataset, Scale, REPRO_SEED};
use hetesim_bench::{clustering, expert, profiling, query, scaling, semantics};

#[test]
fn table1_and_table2_profiles() {
    let acm = acm_dataset(Scale::Tiny);
    let t1 = profiling::table1(&acm, 5).unwrap();
    assert_eq!(t1.len(), 4);
    // Facets hit the right target types: conferences, terms, subjects,
    // authors (checked through name prefixes).
    assert!(t1[0].entries[0].0 == "KDD");
    assert!(t1[1].entries[0].0.starts_with("term_"));
    assert!(t1[2].entries[0].0.starts_with("subj_"));
    let t2 = profiling::table2(&acm, 5).unwrap();
    assert!(t2[1].entries[0].0.starts_with("org_"));
    assert!(t2[2].entries[0].0.starts_with("subj_"));
}

#[test]
fn table3_symmetry_contrast() {
    let acm = acm_dataset(Scale::Tiny);
    let rows = expert::table3(&acm, &["KDD", "SIGMOD", "SIGIR", "SODA"]).unwrap();
    for r in &rows {
        assert!((r.hetesim_apvc - r.hetesim_cvpa).abs() < 1e-12);
    }
    // The paper's headline: PCRW's directions disagree so much that the
    // per-direction rankings of the pairs invert somewhere.
    let fwd_order: Vec<usize> = {
        let mut idx: Vec<usize> = (0..rows.len()).collect();
        idx.sort_by(|&a, &b| rows[b].pcrw_apvc.partial_cmp(&rows[a].pcrw_apvc).unwrap());
        idx
    };
    let bwd_order: Vec<usize> = {
        let mut idx: Vec<usize> = (0..rows.len()).collect();
        idx.sort_by(|&a, &b| rows[b].pcrw_cvpa.partial_cmp(&rows[a].pcrw_cvpa).unwrap());
        idx
    };
    assert_ne!(
        fwd_order, bwd_order,
        "PCRW's two directions should rank the pairs differently"
    );
}

#[test]
fn table4_measure_contrast() {
    let acm = acm_dataset(Scale::Tiny);
    let rankings = semantics::table4(&acm, 10).unwrap();
    let hs = &rankings[0];
    let pcrw = &rankings[2];
    // HeteSim's top-1 is the star itself with score 1.
    assert_eq!(hs.entries[0].0, acm.star_concentrated);
    assert!((hs.entries[0].1 - 1.0).abs() < 1e-9);
    // PCRW's scores are reach probabilities — far below 1 even for #1 —
    // and its ordering differs from HeteSim's.
    assert!(pcrw.entries[0].1 < 0.9);
    let hs_names: Vec<&str> = hs.entries.iter().map(|(n, _)| n.as_str()).collect();
    let pcrw_names: Vec<&str> = pcrw.entries.iter().map(|(n, _)| n.as_str()).collect();
    assert_ne!(hs_names, pcrw_names);
}

#[test]
fn fig6_and_fig7_shapes() {
    let acm = acm_dataset(Scale::Tiny);
    let rows = expert::fig6(&acm, 50).unwrap();
    let wins = rows.iter().filter(|r| r.hetesim <= r.pcrw).count();
    assert!(wins >= 9, "HeteSim won only {wins}/14 conferences");

    let d = semantics::fig7(&acm, &[]).unwrap();
    // The concentrated star's distribution has (much) lower entropy than
    // the broad stars' — the Figure 7 visual.
    let entropy = |p: &[f64]| -> f64 { p.iter().filter(|&&x| x > 0.0).map(|&x| -x * x.ln()).sum() };
    let star_h = entropy(&d.rows[0].1);
    for (name, dist) in &d.rows[1..] {
        assert!(
            entropy(dist) > star_h,
            "{name} should be more spread than the concentrated star"
        );
    }
}

#[test]
fn table5_hetesim_beats_pcrw_on_auc() {
    let dblp = dblp_dataset(Scale::Tiny);
    let rows = query::table5(&dblp).unwrap();
    assert_eq!(rows.len(), 9);
    let mean_hs: f64 = rows.iter().map(|r| r.hetesim).sum::<f64>() / rows.len() as f64;
    let mean_pcrw: f64 = rows.iter().map(|r| r.pcrw).sum::<f64>() / rows.len() as f64;
    assert!(
        mean_hs >= mean_pcrw - 1e-9,
        "mean AUC: HeteSim {mean_hs:.4} vs PCRW {mean_pcrw:.4}"
    );
}

#[test]
fn table6_clustering_recovers_planted_areas() {
    let dblp = dblp_dataset(Scale::Tiny);
    let rows = clustering::table6(&dblp, REPRO_SEED).unwrap();
    let venue = &rows[0];
    assert!(venue.hetesim > 0.5 && venue.pathsim > 0.5);
    let author = &rows[1];
    assert!(author.hetesim > 0.4);
    // Paper observation: paper clustering via PAPCPAP is the weakest task
    // for both measures (the relevance path is too indirect).
    let paper = &rows[2];
    assert!(paper.hetesim <= venue.hetesim + 1e-9);
}

#[test]
fn table7_paths_rank_differently() {
    let acm = acm_dataset(Scale::Tiny);
    let rankings = semantics::table7(&acm, "KDD", 10).unwrap();
    let cvpa: Vec<&str> = rankings[0]
        .entries
        .iter()
        .map(|(n, _)| n.as_str())
        .collect();
    let cvpapa: Vec<&str> = rankings[1]
        .entries
        .iter()
        .map(|(n, _)| n.as_str())
        .collect();
    assert_ne!(cvpa, cvpapa);
}

#[test]
fn scaling_simrank_dominates() {
    // Section 4.6 on counted work: SimRank does more multiply-adds than one
    // HeteSim path at every size, and the gap widens as the network grows.
    let rows = scaling::scaling_sweep(&[60, 120, 240], 5).unwrap();
    let ratio = |r: &scaling::ScalingRow| r.simrank_madds as f64 / r.hetesim_madds as f64;
    for r in &rows {
        assert!(r.simrank_madds > r.hetesim_madds, "{r:?}");
    }
    for w in rows.windows(2) {
        assert!(ratio(&w[1]) > ratio(&w[0]), "{rows:?}");
    }
}
