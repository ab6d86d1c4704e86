//! The three workloads: their relevance paths, their request mixes, and
//! the input files generated from the seed.

use crate::rng::{Rng, Zipf};
use hetesim_core::{snapshot, HeteSimEngine};
use hetesim_graph::{io, Hin, MetaPath};
use std::collections::HashMap;
use std::path::{Path, PathBuf};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ServeHot,
    ServeChurn,
    OfflineBatch,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "serve-hot" => Some(Workload::ServeHot),
            "serve-churn" => Some(Workload::ServeChurn),
            "offline-batch" => Some(Workload::OfflineBatch),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeHot => "serve-hot",
            Workload::ServeChurn => "serve-churn",
            Workload::OfflineBatch => "offline-batch",
        }
    }

    /// The relevance paths the workload queries.
    pub fn paths(self) -> &'static [&'static str] {
        match self {
            Workload::ServeHot => &HOT_PATHS,
            Workload::ServeChurn => &CHURN_PATHS,
            Workload::OfflineBatch => &OFFLINE_PATHS,
        }
    }
}

/// Short paths whose top-k takes the pruned route; all three are in the
/// snapshot, so serve-hot never builds a half.
pub const HOT_PATHS: [&str; 3] = ["A-P-C", "A-P-A", "A-P-A-P-A"];

/// Fourteen DBLP paths of length 2 and 4, queried with Zipf popularity in
/// this order (the same for every seed, so the seed varies the network
/// and the sources, not which paths are hot).
/// A-P-T, C-P-T, T-P-T and P-T-P have right halves of at least 65 536
/// nonzeros, so their top-k takes the full-scan route. Left out: paths of
/// length 3, whose halves take 88-255 MB each at this scale, and
/// A-P-T-P-A, whose 15 ms rebuilds are rare enough that the p99 swung
/// with how many fell in a run.
pub const CHURN_PATHS: [&str; 14] = [
    "A-P-C",
    "A-P-A",
    "A-P-T",
    "C-P-A",
    "C-P-T",
    "T-P-A",
    "T-P-T",
    "T-P-C",
    "P-A-P",
    "P-T-P",
    "A-P-C-P-A",
    "A-P-A-P-A",
    "C-P-A-P-C",
    "A-P-A-P-C",
];

/// The five standard DBLP paths of the paper's experiments.
pub const OFFLINE_PATHS: [&str; 5] = ["A-P-C", "A-P-A", "C-P-A-P-C", "A-P-C-P-A", "A-P-T-P-A"];

/// Offline paths whose full relevance matrix is not computed: A-P-C-P-A
/// relates almost every author pair (about 9.0 million entries at paper
/// scale, several hundred MB while it is assembled).
pub const NO_MATRIX: [&str; 1] = ["A-P-C-P-A"];

/// The serve workloads start from a snapshot holding these paths.
pub const SNAPSHOT_PATHS: [&str; 3] = HOT_PATHS;

/// Generated input files, all under one work directory.
pub struct Inputs {
    pub dir: PathBuf,
    pub hin: Hin,
    /// Path-cache budget for the server (`0` = unlimited).
    pub cache_budget: u64,
    /// Bytes of all the workload's halves (the working set).
    pub working_set: u64,
}

pub fn tsv_dir(dir: &Path) -> PathBuf {
    dir.join("tsv")
}

pub fn snapshot_file(dir: &Path) -> PathBuf {
    dir.join("net.snap")
}

pub fn parse_paths(hin: &Hin, specs: &[&str]) -> Vec<MetaPath> {
    specs
        .iter()
        .map(|s| MetaPath::parse(hin.schema(), s).expect("DBLP path"))
        .collect()
}

/// Generates the paper-scale DBLP network from `seed` as a TSV directory
/// and, for the serve workloads, a snapshot holding [`SNAPSHOT_PATHS`].
/// The returned network is loaded back from the TSV files, so every later
/// reference answer comes from the same files the program reads.
pub fn prepare(workload: Workload, seed: u64, dir: &Path) -> Result<Inputs, String> {
    let err = |what: &str, e: &dyn std::fmt::Display| format!("{what}: {e}");
    std::fs::create_dir_all(dir).map_err(|e| err("create work dir", &e))?;
    let generated =
        hetesim_data::dblp::generate(&hetesim_data::dblp::DblpConfig::paper_scale(seed));
    io::save(&generated.hin, &tsv_dir(dir)).map_err(|e| err("save TSV", &e))?;
    drop(generated);
    let hin = io::load(&tsv_dir(dir)).map_err(|e| err("load TSV", &e))?;
    let mut cache_budget = 0;
    let mut working_set = 0;
    if workload != Workload::OfflineBatch {
        let engine = HeteSimEngine::new(&hin);
        let warm: Vec<_> = parse_paths(&hin, &SNAPSHOT_PATHS)
            .into_iter()
            .map(|p| {
                let h = engine.materialized_halves(&p).expect("materialize");
                (p, h)
            })
            .collect();
        snapshot::write_snapshot(&snapshot_file(dir), &hin, &warm)
            .map_err(|e| err("write snapshot", &e))?;
        drop(warm);
        engine.clear_cache();
        for p in parse_paths(&hin, workload.paths()) {
            engine.warm(&p).map_err(|e| err("warm", &e))?;
        }
        working_set = engine.cache_stats().bytes;
        if workload == Workload::ServeChurn {
            cache_budget = working_set / 3;
        }
    }
    Ok(Inputs {
        dir: dir.to_path_buf(),
        hin,
        cache_budget,
        working_set,
    })
}

/// One served request: `/query` (k = 10) when `target` is `None`, else
/// `/pair`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Req {
    pub path: u8,
    pub source: u32,
    pub target: Option<u32>,
}

pub const TOP_K: usize = 10;

impl Req {
    pub fn http(&self, specs: &[&str]) -> Vec<u8> {
        let spec = specs[self.path as usize];
        let (target, body) = match self.target {
            None => (
                "/query",
                format!(
                    "{{\"path\":\"{spec}\",\"source\":{},\"k\":{TOP_K}}}",
                    self.source
                ),
            ),
            Some(t) => (
                "/pair",
                format!(
                    "{{\"path\":\"{spec}\",\"source\":{},\"target\":{t}}}",
                    self.source
                ),
            ),
        };
        format!(
            "POST {target} HTTP/1.1\r\nhost: localhost\r\ncontent-type: application/json\r\n\
             content-length: {}\r\n\r\n{body}",
            body.len()
        )
        .into_bytes()
    }
}

/// Seeded request stream for a serve workload: paths uniform (serve-hot)
/// or Zipf (serve-churn), sources Zipf per type, targets uniform; one
/// request in five is a `/pair`.
pub struct Mix {
    rng: Rng,
    path_zipf: Option<Zipf>,
    /// Source type of each path.
    source_types: Vec<usize>,
    source_zipf: HashMap<usize, Zipf>,
    target_counts: Vec<usize>,
}

impl Mix {
    pub fn new(workload: Workload, hin: &Hin, seed: u64) -> Mix {
        let mut rng = Rng::new(seed.wrapping_mul(31).wrapping_add(7));
        let paths = parse_paths(hin, workload.paths());
        let path_zipf = (workload == Workload::ServeChurn).then(|| Zipf::ranked(paths.len(), 1.0));
        let mut source_zipf = HashMap::new();
        let mut source_types = Vec::new();
        let mut target_counts = Vec::new();
        for p in &paths {
            let s = p.source_type().index();
            source_types.push(s);
            target_counts.push(hin.node_count(p.target_type()));
            source_zipf
                .entry(s)
                .or_insert_with(|| Zipf::new(hin.node_count(p.source_type()), 1.0, &mut rng));
        }
        Mix {
            rng,
            path_zipf,
            source_types,
            source_zipf,
            target_counts,
        }
    }

    pub fn next(&mut self) -> Req {
        let path = match &self.path_zipf {
            Some(z) => z.sample(&mut self.rng) as usize,
            None => self.rng.below(self.source_types.len()),
        };
        let source = self.source_zipf[&self.source_types[path]].sample(&mut self.rng);
        let target =
            (self.rng.below(5) == 0).then(|| self.rng.below(self.target_counts[path]) as u32);
        Req {
            path: path as u8,
            source,
            target,
        }
    }
}
