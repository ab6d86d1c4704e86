//! The paper's definitions as the oracle for the engine's query routes.
//!
//! A dense reference written straight from Definitions 6–10, with no
//! cache, planner, fused kernel or shared half: each step's adjacency is
//! row-normalized into its transition matrix `U` (Def. 8), the half paths
//! `PL` and `PR⁻¹` are multiplied out left to right into
//! reachable-probability matrices (Def. 9; an odd path first splits its
//! middle relation through one edge object per relation instance with
//! weight `√w` on both sides, Def. 6), and a score is the cosine of the
//! two walkers' rows (Def. 10). One differential proptest over random
//! small networks checks `matrix`, `pair`, `single_source` and `top_k`
//! against it within 1e-12, on odd and even paths, at engine threads 1
//! and 4, and checks the paper's properties on the reference itself.

use hetesim::prelude::*;
use proptest::prelude::*;

const TOL: f64 = 1e-12;

/// Positive weights: a pair the walkers can meet at has a positive score,
/// so top-k's candidates are exactly the reference's positive entries.
const WEIGHTS: [f64; 4] = [0.5, 1.0, 2.0, 3.0];

/// Even paths (symmetric and not) and odd paths of one, three and five
/// steps.
const PATHS: [&str; 14] = [
    "APA", "PAP", "CPC", "APC", "CPA", "APCPA", "CPAPC", "PCPAP", "AP", "PC", "APCP", "PAPC",
    "CPAP", "APCPAP",
];

fn hin_of(
    (na, np, nc): (usize, usize, usize),
    writes: Vec<(usize, usize, usize)>,
    published: Vec<(usize, usize, usize)>,
) -> Hin {
    let mut schema = Schema::new();
    let a = schema.add_type("author").unwrap();
    let p = schema.add_type("paper").unwrap();
    let c = schema.add_type("conference").unwrap();
    let w = schema.add_relation("writes", a, p).unwrap();
    let pb = schema.add_relation("published_in", p, c).unwrap();
    let mut b = HinBuilder::new(schema);
    for (ty, n, prefix) in [(a, na, "a"), (p, np, "p"), (c, nc, "c")] {
        for i in 0..n {
            b.add_node(ty, &format!("{prefix}{i}"));
        }
    }
    for (x, y, k) in writes {
        b.add_edge(w, x as u32, y as u32, WEIGHTS[k]).unwrap();
    }
    for (x, y, k) in published {
        b.add_edge(pb, x as u32, y as u32, WEIGHTS[k]).unwrap();
    }
    b.build()
}

/// Small random networks; objects without edges give empty rows.
fn arb_hin() -> impl Strategy<Value = Hin> {
    (2..7usize, 3..9usize, 2..5usize).prop_flat_map(|(na, np, nc)| {
        let writes = proptest::collection::vec((0..na, 0..np, 0..WEIGHTS.len()), 1..20);
        let published = proptest::collection::vec((0..np, 0..nc, 0..WEIGHTS.len()), 1..20);
        (writes, published).prop_map(move |(we, pe)| hin_of((na, np, nc), we, pe))
    })
}

type Dense = Vec<Vec<f64>>;

/// A dense copy of a sparse matrix.
fn dense(m: &CsrMatrix) -> Dense {
    let mut out = vec![vec![0.0; m.ncols()]; m.nrows()];
    for (r, row) in out.iter_mut().enumerate() {
        for (&c, &v) in m.row_indices(r).iter().zip(m.row_values(r)) {
            row[c as usize] = v;
        }
    }
    out
}

fn transpose(m: &Dense, ncols: usize) -> Dense {
    (0..ncols)
        .map(|c| m.iter().map(|row| row[c]).collect())
        .collect()
}

/// Definition 8: each row divided by its sum; a row with no mass stays
/// zero.
fn transition(w: &Dense) -> Dense {
    w.iter()
        .map(|row| {
            let s: f64 = row.iter().sum();
            row.iter()
                .map(|&v| if s == 0.0 { 0.0 } else { v / s })
                .collect()
        })
        .collect()
}

fn multiply(a: &Dense, b: &Dense, inner: usize, ncols: usize) -> Dense {
    a.iter()
        .map(|row| {
            (0..ncols)
                .map(|c| (0..inner).map(|k| row[k] * b[k][c]).sum())
                .collect()
        })
        .collect()
}

/// Definition 9: the product of the factors' transition matrices,
/// starting from the identity on `rows` objects.
fn reachable(rows: usize, factors: &[(Dense, usize)]) -> Dense {
    let mut acc: Dense = (0..rows)
        .map(|r| (0..rows).map(|c| f64::from(u8::from(r == c))).collect())
        .collect();
    let mut width = rows;
    for (w, ncols) in factors {
        acc = multiply(&acc, &transition(w), width, *ncols);
        width = *ncols;
    }
    acc
}

/// Definition 6: one edge object per instance of the relation `w`
/// (`n × m`), with weight `√w` into and out of it: `(W_AE, W_EB)`.
fn edge_objects(w: &Dense, m: usize) -> ((Dense, usize), (Dense, usize)) {
    let instances: Vec<(usize, usize, f64)> = w
        .iter()
        .enumerate()
        .flat_map(|(a, row)| {
            row.iter()
                .enumerate()
                .filter(|&(_, &v)| v != 0.0)
                .map(move |(b, &v)| (a, b, v))
        })
        .collect();
    let e = instances.len();
    let mut ae = vec![vec![0.0; e]; w.len()];
    let mut eb = vec![vec![0.0; m]; e];
    for (i, &(a, b, v)) in instances.iter().enumerate() {
        ae[a][i] = v.sqrt();
        eb[i][b] = v.sqrt();
    }
    ((ae, e), (eb, m))
}

/// The relevance matrix of Definition 10 computed from scratch.
fn reference(hin: &Hin, path: &MetaPath) -> Dense {
    let factor = |s: hetesim::graph::Step| {
        let m = hin.step_adjacency(s);
        (dense(m), m.ncols())
    };
    let steps = path.steps();
    let mid = steps.len() / 2;
    let mut left: Vec<(Dense, usize)> = steps[..mid].iter().map(|&s| factor(s)).collect();
    let right_from = if steps.len() % 2 == 0 { mid } else { mid + 1 };
    let mut right: Vec<(Dense, usize)> = steps[right_from..]
        .iter()
        .rev()
        .map(|&s| factor(s.reversed()))
        .collect();
    if steps.len() % 2 == 1 {
        let (w, m) = factor(steps[mid]);
        let ((ae, e), (eb, _)) = edge_objects(&w, m);
        left.push((ae, e));
        right.push((transpose(&eb, m), e));
    }
    let n = hin.node_count(path.source_type());
    let t = hin.node_count(path.target_type());
    let l = reachable(n, &left);
    let r = reachable(t, &right);
    let norm = |v: &[f64]| v.iter().map(|x| x * x).sum::<f64>().sqrt();
    l.iter()
        .map(|la| {
            r.iter()
                .map(|rb| {
                    let den = norm(la) * norm(rb);
                    let dot: f64 = la.iter().zip(rb).map(|(x, y)| x * y).sum();
                    if den == 0.0 {
                        0.0
                    } else {
                        dot / den
                    }
                })
                .collect()
        })
        .collect()
}

fn close(got: f64, want: f64) -> bool {
    (got - want).abs() <= TOL
}

/// The paper's properties, checked on the reference itself: scores lie in
/// [0, 1]; a path and its reverse give transposed matrices (so a symmetric
/// path gives a symmetric one); on a symmetric path an object that reaches
/// anything is maximally relevant to itself.
fn check_properties(hin: &Hin, path: &MetaPath, want: &Dense) -> Result<(), TestCaseError> {
    let back = reference(hin, &path.reversed());
    for (a, row) in want.iter().enumerate() {
        for (b, &s) in row.iter().enumerate() {
            prop_assert!(
                (-TOL..=1.0 + TOL).contains(&s),
                "score {} at ({}, {})",
                s,
                a,
                b
            );
            prop_assert!(close(s, back[b][a]), "reverse path at ({}, {})", a, b);
        }
    }
    if path.is_symmetric() {
        for (a, row) in want.iter().enumerate() {
            if row.iter().any(|&s| s > 0.0) {
                prop_assert!(close(row[a], 1.0), "self-relevance {} of {}", row[a], a);
            }
        }
    }
    Ok(())
}

fn check_routes(hin: &Hin, text: &str, threads: usize) -> Result<(), TestCaseError> {
    let path = MetaPath::parse(hin.schema(), text).unwrap();
    let want = reference(hin, &path);
    check_properties(hin, &path, &want)?;
    let engine = HeteSimEngine::with_threads(hin, threads);

    let m = dense(&engine.matrix(&path).unwrap());
    for (a, row) in want.iter().enumerate() {
        for (b, &s) in row.iter().enumerate() {
            prop_assert!(
                close(m[a][b], s),
                "{} matrix ({}, {}): {} vs {}",
                text,
                a,
                b,
                m[a][b],
                s
            );
            let (a, b) = (a as u32, b as u32);
            let pair = engine.pair(&path, a, b).unwrap();
            let online = engine.pair_truncated(&path, a, b, usize::MAX).unwrap();
            let why = engine.explain(&path, a, b, usize::MAX).unwrap();
            let summed = why.meetings.iter().map(|m| m.contribution).sum();
            let routes = [pair, online, why.score, summed];
            for (route, got) in ["pair", "pair_truncated", "explain", "explain sum"]
                .into_iter()
                .zip(routes)
            {
                prop_assert!(close(got, s), "{text} {route} ({a}, {b}): {got} vs {s}");
            }
        }
        let single = engine.single_source(&path, a as u32).unwrap();
        prop_assert_eq!(single.len(), row.len());
        for (b, (&got, &s)) in single.iter().zip(row).enumerate() {
            prop_assert!(
                close(got, s),
                "{} single_source ({}, {}): {} vs {}",
                text,
                a,
                b,
                got,
                s
            );
        }
        let mut ranked: Vec<f64> = row.iter().copied().filter(|&s| s > 0.0).collect();
        ranked.sort_by(|x, y| y.partial_cmp(x).unwrap());
        for k in [1, 3, row.len()] {
            let top = engine.top_k(&path, a as u32, k).unwrap();
            prop_assert_eq!(
                top.len(),
                k.min(ranked.len()),
                "{} top_k({}) of {}",
                text,
                k,
                a
            );
            for (r, want_score) in top.iter().zip(&ranked) {
                prop_assert!(
                    close(r.score, row[r.index as usize]),
                    "{} top_k entry",
                    text
                );
                prop_assert!(close(r.score, *want_score), "{} top_k order", text);
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn engine_routes_match_the_definitions(
        hin in arb_hin(),
        path_idx in 0..PATHS.len(),
        threads_idx in 0..2usize,
    ) {
        check_routes(&hin, PATHS[path_idx], [1, 4][threads_idx])?;
    }
}
