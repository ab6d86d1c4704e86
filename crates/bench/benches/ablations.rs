//! Ablations of the design choices called out in DESIGN.md:
//!
//! * chain-order optimization vs. left-to-right multiplication,
//! * materialized half-path cache (warm pair) vs. online propagation vs.
//!   truncated approximate pairs,
//! * parallel SpGEMM thread counts,
//! * pruned top-k vs. full single-source scoring.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hetesim_bench::datasets::{acm_dataset, Scale};
use hetesim_core::HeteSimEngine;
use hetesim_graph::MetaPath;
use hetesim_sparse::{chain, parallel, CsrMatrix};
use std::hint::black_box;

fn bench_chain_order(c: &mut Criterion) {
    let acm = acm_dataset(Scale::Tiny);
    let hin = &acm.hin;
    let path = MetaPath::parse(hin.schema(), "APVCVPA").unwrap();
    let mats: Vec<CsrMatrix> = path
        .steps()
        .iter()
        .map(|&s| hin.step_transition(s))
        .collect();
    let refs: Vec<&CsrMatrix> = mats.iter().collect();
    let mut g = c.benchmark_group("chain_order");
    g.bench_function("optimized", |b| {
        b.iter(|| black_box(chain::multiply_chain(&refs, None, 1).unwrap()))
    });
    g.bench_function("left_to_right", |b| {
        b.iter(|| black_box(chain::multiply_chain_left_to_right(&refs).unwrap()))
    });
    g.finish();
}

fn bench_cache(c: &mut Criterion) {
    let acm = acm_dataset(Scale::Tiny);
    let hin = &acm.hin;
    let path = MetaPath::parse(hin.schema(), "APVC").unwrap();
    let star = acm.author_id(&acm.star_concentrated);
    let kdd = acm.conference_id("KDD");
    let mut g = c.benchmark_group("pair_query");
    g.bench_function("cold_engine", |b| {
        b.iter(|| {
            let engine = HeteSimEngine::new(hin);
            black_box(engine.pair(&path, star, kdd).unwrap())
        })
    });
    let warm = HeteSimEngine::new(hin);
    warm.pair(&path, star, kdd).unwrap();
    g.bench_function("warm_cache", |b| {
        b.iter(|| black_box(warm.pair(&path, star, kdd).unwrap()))
    });
    g.bench_function("online_propagation", |b| {
        b.iter(|| black_box(warm.pair_truncated(&path, star, kdd, usize::MAX).unwrap()))
    });
    g.bench_function("truncated_keep_16", |b| {
        b.iter(|| black_box(warm.pair_truncated(&path, star, kdd, 16).unwrap()))
    });
    g.finish();
}

fn bench_parallel(c: &mut Criterion) {
    let acm = acm_dataset(Scale::Default);
    let hin = &acm.hin;
    let path = MetaPath::parse(hin.schema(), "AP").unwrap();
    let u = hin.step_transition(path.steps()[0]);
    let ut = u.transpose();
    let mut g = c.benchmark_group("parallel_spgemm");
    g.sample_size(10);
    for threads in [1usize, 2, 4] {
        g.bench_with_input(BenchmarkId::from_parameter(threads), &threads, |b, &t| {
            b.iter(|| black_box(parallel::matmul_parallel(&u, &ut, t).unwrap()))
        });
    }
    g.finish();
}

fn bench_topk(c: &mut Criterion) {
    let acm = acm_dataset(Scale::Tiny);
    let hin = &acm.hin;
    let path = MetaPath::parse(hin.schema(), "APA").unwrap();
    let star = acm.author_id(&acm.star_concentrated);
    let engine = HeteSimEngine::new(hin);
    engine.top_k(&path, star, 10).unwrap(); // warm the halves
    let mut g = c.benchmark_group("top_k_vs_full_row");
    g.bench_function("pruned_top_10", |b| {
        b.iter(|| black_box(engine.top_k(&path, star, 10).unwrap()))
    });
    g.bench_function("full_single_source", |b| {
        b.iter(|| black_box(engine.single_source(&path, star).unwrap()))
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_chain_order,
    bench_cache,
    bench_parallel,
    bench_topk
);
criterion_main!(benches);
