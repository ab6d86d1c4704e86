//! Cross-crate consistency: persistence round-trips preserve query
//! results, measures agree where the theory says they must, and the
//! engine's optimizations are behavior-preserving.

use hetesim::core::reachable;
use hetesim::data::acm::{generate, AcmConfig};
use hetesim::graph::io;
use hetesim::prelude::*;

#[test]
fn save_load_preserves_hetesim_scores() {
    let acm = generate(&AcmConfig::tiny(21));
    let dir = std::env::temp_dir().join(format!("hetesim-roundtrip-{}", std::process::id()));
    io::save(&acm.hin, &dir).unwrap();
    let loaded = io::load(&dir).unwrap();
    std::fs::remove_dir_all(&dir).ok();

    let apvc = MetaPath::parse(acm.hin.schema(), "APVC").unwrap();
    let apvc2 = MetaPath::parse(loaded.schema(), "APVC").unwrap();
    let e1 = HeteSimEngine::new(&acm.hin);
    let e2 = HeteSimEngine::new(&loaded);
    let m1 = e1.matrix(&apvc).unwrap();
    let m2 = e2.matrix(&apvc2).unwrap();
    assert!(m1.max_abs_diff(&m2).unwrap() < 1e-14);
}

#[test]
fn pcrw_matrix_equals_reachable_probability() {
    let acm = generate(&AcmConfig::tiny(22));
    let hin = &acm.hin;
    let pcrw = Pcrw::new(hin);
    let apc = MetaPath::parse(hin.schema(), "A-P-V-C").unwrap();
    let m = pcrw.relevance_matrix(&apc).unwrap();
    let pm = reachable::reachable_matrix(hin, apc.steps()).unwrap();
    assert!(m.max_abs_diff(&pm).unwrap() < 1e-14);
}

#[test]
fn hetesim_on_symmetric_paths_and_pathsim_agree_on_support() {
    // The two measures differ numerically, but on a symmetric path both
    // must assign zero to exactly the same pairs (no shared path instance
    // ⇔ no meeting probability).
    let acm = generate(&AcmConfig::tiny(23));
    let hin = &acm.hin;
    let path = MetaPath::parse(hin.schema(), "APA").unwrap();
    let hs = HeteSimEngine::new(hin).matrix(&path).unwrap();
    let ps = PathSim::new(hin).relevance_matrix(&path).unwrap();
    let n = hs.nrows();
    for i in (0..n).step_by(7) {
        for j in (0..n).step_by(5) {
            let a = hs.get(i, j) > 0.0;
            let b = ps.get(i, j) > 0.0;
            assert_eq!(a, b, "support mismatch at ({i},{j})");
        }
    }
}

#[test]
fn threads_and_serial_engines_agree_on_real_network() {
    let acm = generate(&AcmConfig::tiny(24));
    let hin = &acm.hin;
    let serial = HeteSimEngine::new(hin);
    let threaded = HeteSimEngine::with_threads(hin, 4);
    for text in ["APVC", "APA", "CVPA", "APT"] {
        let path = MetaPath::parse(hin.schema(), text).unwrap();
        let a = serial.matrix(&path).unwrap();
        let b = threaded.matrix(&path).unwrap();
        assert!(
            a.max_abs_diff(&b).unwrap() < 1e-12,
            "path {text} differs between serial and threaded"
        );
    }
}

#[test]
fn concatenated_paths_compose_reachability() {
    // PM over P1 · PM over P2 == PM over P1P2 (Definition 9 is a product).
    let acm = generate(&AcmConfig::tiny(25));
    let hin = &acm.hin;
    let ap = MetaPath::parse(hin.schema(), "AP").unwrap();
    let pv = MetaPath::parse(hin.schema(), "PV").unwrap();
    let apv = ap.concat(&pv).unwrap();
    let m1 = reachable::reachable_matrix(hin, ap.steps()).unwrap();
    let m2 = reachable::reachable_matrix(hin, pv.steps()).unwrap();
    let composed = m1.matmul(&m2).unwrap();
    let direct = reachable::reachable_matrix(hin, apv.steps()).unwrap();
    assert!(composed.max_abs_diff(&direct).unwrap() < 1e-12);
}

#[test]
fn engine_caches_halves_across_query_kinds() {
    let acm = generate(&AcmConfig::tiny(26));
    let hin = &acm.hin;
    let engine = HeteSimEngine::new(hin);
    let path = MetaPath::parse(hin.schema(), "APVC").unwrap();
    let _ = engine.pair(&path, 0, 0).unwrap();
    let _ = engine.single_source(&path, 1).unwrap();
    let _ = engine.top_k(&path, 2, 5).unwrap();
    let _ = engine.matrix(&path).unwrap();
    let stats = engine.cache_stats();
    assert_eq!(stats.misses, 1, "the halves must be built exactly once");
    assert!(stats.hits >= 3);
    assert_eq!(stats.entries, 1);
    assert!(stats.bytes > 0, "cached halves report their footprint");
}

#[test]
fn symmetric_path_matrices_are_symmetric() {
    // Property 3 specialized: for P == P⁻¹ the whole relevance matrix is
    // symmetric — the precondition for feeding it to NCut directly.
    let acm = generate(&AcmConfig::tiny(28));
    let hin = &acm.hin;
    let engine = HeteSimEngine::new(hin);
    for text in ["APA", "APVCVPA"] {
        let path = MetaPath::parse(hin.schema(), text).unwrap();
        assert!(path.is_symmetric());
        let m = engine.matrix(&path).unwrap();
        let diff = m.max_abs_diff(&m.transpose()).unwrap();
        assert!(diff < 1e-12, "path {text}: asymmetry {diff}");
        // And the unnormalized meeting matrix is symmetric too.
        let raw = engine.matrix_unnormalized(&path).unwrap();
        assert!(raw.max_abs_diff(&raw.transpose()).unwrap() < 1e-12);
    }
}

#[test]
fn all_engine_modes_agree_on_real_network() {
    // Every thread count must produce bit-identical relevance matrices.
    let acm = generate(&AcmConfig::tiny(29));
    let hin = &acm.hin;
    let engines = [
        HeteSimEngine::with_threads(hin, 1),
        HeteSimEngine::with_threads(hin, 4),
    ];
    for text in ["APVC", "APA", "CVPAPA"] {
        let path = MetaPath::parse(hin.schema(), text).unwrap();
        let reference = engines[0].matrix(&path).unwrap();
        for (i, e) in engines.iter().enumerate().skip(1) {
            assert_eq!(
                e.matrix(&path).unwrap(),
                reference,
                "engine mode {i} disagrees on {text}"
            );
        }
    }
}

#[test]
fn matrix_market_roundtrip_of_relevance_matrix() {
    use hetesim::sparse::io::{read_matrix_market, write_matrix_market};
    let acm = generate(&AcmConfig::tiny(30));
    let hin = &acm.hin;
    let engine = HeteSimEngine::new(hin);
    let path = MetaPath::parse(hin.schema(), "APVC").unwrap();
    let m = engine.matrix(&path).unwrap();
    let mut buf = Vec::new();
    write_matrix_market(&m, &mut buf).unwrap();
    let back = read_matrix_market(buf.as_slice()).unwrap();
    assert_eq!(back.shape(), m.shape());
    assert!(back.max_abs_diff(&m).unwrap() < 1e-12);
}

#[test]
fn rwr_and_hetesim_rank_related_conference_first() {
    // Sanity cross-check of two very different measures: for the planted
    // concentrated star, both RWR (global) and HeteSim (path-based) place
    // KDD above every other conference.
    let acm = generate(&AcmConfig::tiny(27));
    let hin = &acm.hin;
    let star = acm.author_id(&acm.star_concentrated);

    let engine = HeteSimEngine::new(hin);
    let apvc = MetaPath::parse(hin.schema(), "APVC").unwrap();
    let hs_row = engine.single_source(&apvc, star).unwrap();
    let hs_best = hs_row
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
        .unwrap()
        .0;
    assert_eq!(hin.node_name(acm.conferences, hs_best as u32), "KDD");

    let source = hetesim::graph::NodeRef::new(acm.authors, star);
    let (flat, scores) =
        hetesim::baselines::rwr::rwr(hin, source, hetesim::baselines::rwr::RwrConfig::default())
            .unwrap();
    let range = flat.type_range(acm.conferences);
    let rwr_best = range
        .clone()
        .max_by(|&a, &b| scores[a].partial_cmp(&scores[b]).unwrap())
        .unwrap()
        - range.start;
    assert_eq!(hin.node_name(acm.conferences, rwr_best as u32), "KDD");
}
