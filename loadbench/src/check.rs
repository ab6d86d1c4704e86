//! Checks served answers against an in-process reference engine built
//! from the same TSV files the snapshot was written from. Scores must
//! match bit for bit.

use crate::workload::{parse_paths, Req, TOP_K};
use hetesim_core::HeteSimEngine;
use hetesim_graph::{Hin, MetaPath};
use hetesim_serve::Json;
use std::collections::HashMap;

#[derive(Debug, PartialEq)]
enum Answer {
    /// `/query`: target ids and score bits, best first.
    Ranked(Vec<(u64, u64)>),
    /// `/pair`: normalized and unnormalized score bits.
    Pair(u64, u64),
}

pub struct Reference<'h> {
    engine: HeteSimEngine<'h>,
    paths: Vec<MetaPath>,
    memo: HashMap<Req, Answer>,
}

impl<'h> Reference<'h> {
    pub fn new(hin: &'h Hin, specs: &[&str]) -> Reference<'h> {
        Reference {
            engine: HeteSimEngine::new(hin),
            paths: parse_paths(hin, specs),
            memo: HashMap::new(),
        }
    }

    fn expected(&self, req: &Req) -> Answer {
        let path = &self.paths[req.path as usize];
        match req.target {
            None => Answer::Ranked(
                self.engine
                    .top_k(path, req.source, TOP_K)
                    .expect("reference top_k")
                    .iter()
                    .map(|r| (r.index as u64, r.score.to_bits()))
                    .collect(),
            ),
            Some(t) => Answer::Pair(
                self.engine
                    .pair(path, req.source, t)
                    .expect("reference pair")
                    .to_bits(),
                self.engine
                    .pair_unnormalized(path, req.source, t)
                    .expect("reference pair")
                    .to_bits(),
            ),
        }
    }

    /// Whether a `200` body carries exactly the reference answer.
    pub fn matches(&mut self, req: &Req, body: &str) -> bool {
        let got = match parse(req, body) {
            Some(a) => a,
            None => return false,
        };
        if !self.memo.contains_key(req) {
            let want = self.expected(req);
            self.memo.insert(*req, want);
        }
        self.memo[req] == got
    }
}

fn parse(req: &Req, body: &str) -> Option<Answer> {
    let json = Json::parse(body).ok()?;
    let bits = |v: &Json| v.as_f64().map(f64::to_bits);
    match req.target {
        None => json
            .get("results")?
            .as_array()?
            .iter()
            .map(|r| Some((r.get("id")?.as_u64()?, bits(r.get("score")?)?)))
            .collect::<Option<Vec<_>>>()
            .map(Answer::Ranked),
        Some(_) => Some(Answer::Pair(
            bits(json.get("score")?)?,
            bits(json.get("unnormalized")?)?,
        )),
    }
}
