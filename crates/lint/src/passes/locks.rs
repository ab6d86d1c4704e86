//! L4 `lock-discipline` + L6 `lock-graph` — the workspace lock-order
//! model.
//!
//! The deadlock the repo once had to dodge: `PathCache::get_or_build`
//! took `inner.write()` and then `partial.write()` inside the same
//! critical section; a second code path taking them in the opposite
//! order would have deadlocked under load and no test would catch it. The old
//! per-file pass only saw nesting inside one file; this version builds
//! one directed graph over every lock in the workspace:
//!
//! * **Nodes** are lock declarations `(file, field)` harvested by
//!   [`crate::passes::guards`] — struct fields and statics of
//!   `Mutex`/`RwLock` type.
//!   A node's ID is `crates/core/src/cache.rs::inner`. Acquisitions of
//!   locks declared in another file resolve to that file's node when the
//!   name is unique workspace-wide, so a serve handler touching the
//!   cache contributes edges to the *cache's* nodes.
//! * **Edges** `A → B` mean "somewhere, B is acquired while a guard of A
//!   is held"; every contributing site is kept for reporting.
//! * A `[[lock-order]]` allowlist entry **blesses** an edge (legacy
//!   per-file `first`/`second` field names, or graph form with full node
//!   IDs). An edge with any unblessed site is a `lock-discipline`
//!   finding per site.
//! * A per-site `[[allow]]` entry (pass `lock-discipline`) marks a site
//!   as a scanner false positive and removes it from the graph entirely
//!   — that is the only way an edge can disappear.
//! * Any cycle among the surviving edges — blessed or not, including
//!   self-loops (re-entrant acquisition) — is a `lock-graph` "potential
//!   deadlock" finding reporting the full cycle path. Blessing an edge
//!   never hides a cycle: `[[lock-order]]` declares intent, the graph
//!   checks it is globally consistent.
//!
//! The surviving acyclic graph is exported via `--graph-out` as DOT or
//! JSON ([`LockGraph::to_dot`] / [`LockGraph::to_json`]) with each node
//! carrying its topological rank — the total order the runtime lockcheck
//! (`hetesim_obs::lockcheck`) enforces in tests.

use crate::allowlist::Allowlist;
use crate::passes::guards::GuardScan;
use crate::report::{escape_json, Finding, Pass};
use crate::SourceFile;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One lock in the workspace graph.
#[derive(Debug)]
pub struct LockNode {
    /// Stable ID: `<workspace-relative file>::<field or static name>`.
    pub id: String,
    /// Declaring (or, for unresolved bases, using) file.
    pub file: String,
    /// Field / static / receiver name.
    pub name: String,
    /// `Mutex`, `RwLock`, or `unknown` for unresolved receiver bases.
    pub kind: String,
    /// Declaration line; 0 when the base never matched a declaration.
    pub line: u32,
    /// Topological depth in the condensation DAG (0 = acquired first).
    /// Nodes on a cycle share their SCC's rank.
    pub rank: usize,
}

/// One acquisition site contributing to an edge.
#[derive(Debug)]
pub struct EdgeSite {
    /// File of the acquisition.
    pub file: String,
    /// Line of the acquisition.
    pub line: u32,
}

/// A directed "acquired-while-held" edge.
#[derive(Debug)]
pub struct LockEdge {
    /// Index into [`LockGraph::nodes`] of the lock held first.
    pub from: usize,
    /// Index of the lock acquired while `from` is held.
    pub to: usize,
    /// True when every site is covered by a `[[lock-order]]` entry.
    pub blessed: bool,
    /// Every contributing call site.
    pub sites: Vec<EdgeSite>,
}

/// The harvested workspace lock graph.
#[derive(Debug, Default)]
pub struct LockGraph {
    /// Locks, declaration order (pseudo-nodes last).
    pub nodes: Vec<LockNode>,
    /// Edges sorted by (from, to).
    pub edges: Vec<LockEdge>,
    /// Cycles found, each a closed walk of node indices (first == point
    /// of re-entry, not repeated).
    pub cycles: Vec<Vec<usize>>,
}

impl LockGraph {
    /// Edges blessed by `[[lock-order]]` entries.
    pub fn blessed_edges(&self) -> usize {
        self.edges.iter().filter(|e| e.blessed).count()
    }

    /// Graphviz DOT rendering: blessed edges solid, unblessed dashed
    /// red, cycle members bold red.
    pub fn to_dot(&self) -> String {
        let mut cyclic_edge = vec![false; self.edges.len()];
        for cycle in &self.cycles {
            for (i, &a) in cycle.iter().enumerate() {
                let b = cycle[(i + 1) % cycle.len()];
                for (ei, e) in self.edges.iter().enumerate() {
                    if e.from == a && e.to == b {
                        cyclic_edge[ei] = true;
                    }
                }
            }
        }
        let mut out = String::new();
        out.push_str("digraph lock_order {\n");
        out.push_str("  rankdir=LR;\n");
        out.push_str("  node [shape=box, fontname=\"monospace\", fontsize=10];\n");
        for n in &self.nodes {
            let _ = writeln!(
                out,
                "  \"{}\" [label=\"{}\\n{} ({}, rank {})\"];",
                escape_dot(&n.id),
                escape_dot(short_file(&n.file)),
                escape_dot(&n.name),
                n.kind,
                n.rank,
            );
        }
        for (ei, e) in self.edges.iter().enumerate() {
            let sites: Vec<String> = e
                .sites
                .iter()
                .map(|s| escape_dot(&format!("{}:{}", short_file(&s.file), s.line)))
                .collect();
            let style = if cyclic_edge[ei] {
                ", color=red, penwidth=2"
            } else if e.blessed {
                ""
            } else {
                ", color=red, style=dashed"
            };
            let _ = writeln!(
                out,
                "  \"{}\" -> \"{}\" [label=\"{}\"{}];",
                escape_dot(&self.nodes[e.from].id),
                escape_dot(&self.nodes[e.to].id),
                sites.join("\\n"),
                style,
            );
        }
        out.push_str("}\n");
        out
    }

    /// Machine-readable JSON (stable key order, no external deps).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n  \"nodes\": [\n");
        for (i, n) in self.nodes.iter().enumerate() {
            let _ = write!(
                out,
                "    {{\"id\": \"{}\", \"file\": \"{}\", \"name\": \"{}\", \
                 \"kind\": \"{}\", \"line\": {}, \"rank\": {}}}",
                escape_json(&n.id),
                escape_json(&n.file),
                escape_json(&n.name),
                n.kind,
                n.line,
                n.rank,
            );
            out.push_str(if i + 1 < self.nodes.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("  ],\n  \"edges\": [\n");
        for (i, e) in self.edges.iter().enumerate() {
            let _ = write!(
                out,
                "    {{\"from\": \"{}\", \"to\": \"{}\", \"blessed\": {}, \"sites\": [",
                escape_json(&self.nodes[e.from].id),
                escape_json(&self.nodes[e.to].id),
                e.blessed,
            );
            for (j, s) in e.sites.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                let _ = write!(
                    out,
                    "{{\"file\": \"{}\", \"line\": {}}}",
                    escape_json(&s.file),
                    s.line
                );
            }
            out.push_str("]}");
            out.push_str(if i + 1 < self.edges.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("  ],\n  \"cycles\": [\n");
        for (i, cycle) in self.cycles.iter().enumerate() {
            out.push_str("    [");
            for (j, &n) in cycle.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                let _ = write!(out, "\"{}\"", escape_json(&self.nodes[n].id));
            }
            out.push(']');
            out.push_str(if i + 1 < self.cycles.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("  ]\n}\n");
        out
    }
}

fn short_file(rel: &str) -> &str {
    rel.strip_prefix("crates/").unwrap_or(rel)
}

fn escape_dot(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Runs L4 + L6 over the whole workspace. `scans` is parallel to
/// `files` (one [`GuardScan`] each). Returns the lock graph for
/// `--graph-out` and the report summary.
pub fn run(
    files: &[SourceFile],
    scans: &[GuardScan],
    allow: &mut Allowlist,
    findings: &mut Vec<Finding>,
) -> LockGraph {
    // Workspace declaration index: lock name → declaring file indices.
    let mut decl_files: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    for (fi, scan) in scans.iter().enumerate() {
        for d in &scan.decls {
            decl_files.entry(&d.name).or_default().push(fi);
        }
    }

    let mut graph = LockGraph::default();
    let mut index: BTreeMap<String, usize> = BTreeMap::new();
    // Seed nodes from declarations in deterministic file/decl order.
    for (fi, scan) in scans.iter().enumerate() {
        for d in &scan.decls {
            let id = format!("{}::{}", files[fi].rel, d.name);
            index.entry(id.clone()).or_insert_with(|| {
                graph.nodes.push(LockNode {
                    id,
                    file: files[fi].rel.clone(),
                    name: d.name.clone(),
                    kind: d.kind.clone(),
                    line: d.line,
                    rank: 0,
                });
                graph.nodes.len() - 1
            });
        }
    }

    // Resolve a receiver base seen in file `fi` to a node index.
    let resolve = |base: &str,
                   fi: usize,
                   graph: &mut LockGraph,
                   index: &mut BTreeMap<String, usize>|
     -> usize {
        let decl_fi = if scans[fi].decls.iter().any(|d| d.name == base) {
            Some(fi)
        } else {
            match decl_files.get(base).map(Vec::as_slice) {
                Some([single]) => Some(*single),
                _ => None,
            }
        };
        let home = decl_fi.unwrap_or(fi);
        let id = format!("{}::{}", files[home].rel, base);
        if let Some(&n) = index.get(&id) {
            return n;
        }
        // Pseudo-node: the base never matched a declaration (local
        // binding, unexported helper); keep it file-local so unrelated
        // same-named locals in other files stay distinct.
        graph.nodes.push(LockNode {
            id: id.clone(),
            file: files[home].rel.clone(),
            name: base.to_string(),
            kind: "unknown".to_string(),
            line: 0,
            rank: 0,
        });
        index.insert(id, graph.nodes.len() - 1);
        graph.nodes.len() - 1
    };

    // Collect edges. A site suppressed by a per-site [[allow]] entry is
    // a declared scanner false positive and leaves the graph; everything
    // else stays (blessed or finding-producing).
    let mut edge_map: BTreeMap<(usize, usize), (bool, Vec<EdgeSite>)> = BTreeMap::new();
    for (fi, scan) in scans.iter().enumerate() {
        for acq in &scan.acquisitions {
            if acq.held.is_empty() {
                continue;
            }
            let to = resolve(&acq.base, fi, &mut graph, &mut index);
            for h in &acq.held {
                let from = resolve(&h.base, fi, &mut graph, &mut index);
                let candidate = Finding {
                    pass: Pass::LockDiscipline,
                    file: files[fi].rel.clone(),
                    line: acq.line,
                    message: format!(
                        "acquiring `{}.{}()` while `{}` guard (line {}) is held — \
                         declare a [[lock-order]] entry or drop the first guard",
                        acq.base, acq.method, h.base, h.line
                    ),
                };
                if allow.suppresses(&candidate, files[fi].line_text(acq.line)) {
                    continue;
                }
                let blessed = allow.order_declared(
                    &files[fi].rel,
                    &graph.nodes[from].id,
                    &graph.nodes[to].id,
                    &h.base,
                    &acq.base,
                );
                if !blessed {
                    findings.push(candidate);
                }
                let entry = edge_map.entry((from, to)).or_insert((true, Vec::new()));
                entry.0 &= blessed;
                entry.1.push(EdgeSite {
                    file: files[fi].rel.clone(),
                    line: acq.line,
                });
            }
        }
    }
    for ((from, to), (blessed, sites)) in edge_map {
        graph.edges.push(LockEdge {
            from,
            to,
            blessed,
            sites,
        });
    }

    detect_cycles(&mut graph, findings);
    assign_ranks(&mut graph);
    graph
}

/// Finds strongly connected components; each SCC with more than one
/// node (or a self-loop) yields one concrete cycle and one
/// build-failing finding with the full path.
fn detect_cycles(graph: &mut LockGraph, findings: &mut Vec<Finding>) {
    let n = graph.nodes.len();
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut radj: Vec<Vec<usize>> = vec![Vec::new(); n];
    for e in &graph.edges {
        adj[e.from].push(e.to);
        radj[e.to].push(e.from);
    }

    // Kosaraju: order by DFS finish time, then sweep the reverse graph.
    let mut order = Vec::with_capacity(n);
    let mut seen = vec![false; n];
    for start in 0..n {
        if seen[start] {
            continue;
        }
        // Iterative DFS with an explicit (node, next-child) stack.
        let mut stack = vec![(start, 0usize)];
        seen[start] = true;
        while let Some(&mut (v, ref mut ci)) = stack.last_mut() {
            if *ci < adj[v].len() {
                let w = adj[v][*ci];
                *ci += 1;
                if !seen[w] {
                    seen[w] = true;
                    stack.push((w, 0));
                }
            } else {
                order.push(v);
                stack.pop();
            }
        }
    }
    let mut scc = vec![usize::MAX; n];
    let mut scc_count = 0usize;
    for &start in order.iter().rev() {
        if scc[start] != usize::MAX {
            continue;
        }
        let mut stack = vec![start];
        scc[start] = scc_count;
        while let Some(v) = stack.pop() {
            for &w in &radj[v] {
                if scc[w] == usize::MAX {
                    scc[w] = scc_count;
                    stack.push(w);
                }
            }
        }
        scc_count += 1;
    }

    for s in 0..scc_count {
        let members: Vec<usize> = (0..n).filter(|&v| scc[v] == s).collect();
        let self_loop = members.len() == 1
            && graph
                .edges
                .iter()
                .any(|e| e.from == members[0] && e.to == members[0]);
        if members.len() < 2 && !self_loop {
            continue;
        }
        let cycle = if self_loop {
            vec![members[0]]
        } else {
            extract_cycle(&adj, &scc, s, members[0])
        };
        let path: Vec<&str> = cycle
            .iter()
            .chain(cycle.first())
            .map(|&v| graph.nodes[v].id.as_str())
            .collect();
        // Anchor the finding at the first edge site on the cycle.
        let (file, line) = cycle
            .first()
            .and_then(|&a| {
                let b = cycle.get(1).copied().unwrap_or(a);
                graph
                    .edges
                    .iter()
                    .find(|e| e.from == a && e.to == b)
                    .and_then(|e| e.sites.first())
                    .map(|s| (s.file.clone(), s.line))
            })
            .unwrap_or_default();
        findings.push(Finding {
            pass: Pass::LockGraph,
            file,
            line,
            message: format!(
                "potential deadlock: lock-order cycle `{}` — two threads walking \
                 this loop from different entry points block forever; break the \
                 cycle by reordering acquisitions (blessing edges cannot fix this)",
                path.join("` -> `")
            ),
        });
        graph.cycles.push(cycle);
    }
}

/// Walks `adj` restricted to SCC `s` from `start` until a node repeats,
/// returning the closed walk (start of the loop first).
fn extract_cycle(adj: &[Vec<usize>], scc: &[usize], s: usize, start: usize) -> Vec<usize> {
    let mut path = vec![start];
    let mut on_path = vec![start];
    loop {
        let v = *path.last().expect("path non-empty");
        let Some(&next) = adj[v].iter().find(|&&w| scc[w] == s) else {
            // Cannot happen in an SCC of size ≥ 2, but stay total.
            return path;
        };
        if let Some(pos) = on_path.iter().position(|&w| w == next) {
            return path[pos..].to_vec();
        }
        path.push(next);
        on_path.push(next);
    }
}

/// Topological depth over the condensation DAG: a node's rank is the
/// longest chain of edges leading into it (cycle members share their
/// SCC's rank). This is the total order the runtime lockcheck mirrors.
fn assign_ranks(graph: &mut LockGraph) {
    let n = graph.nodes.len();
    // Re-derive SCC membership cheaply: nodes in recorded cycles share a
    // component; everything else is its own component.
    let mut comp: Vec<usize> = (0..n).collect();
    for cycle in &graph.cycles {
        let root = cycle[0];
        for &v in cycle {
            comp[v] = root;
        }
    }
    let mut depth = vec![0usize; n];
    // Longest-path by iterating to fixpoint (graphs are tiny; the
    // condensation is acyclic so this terminates in ≤ n sweeps).
    for _ in 0..n {
        let mut changed = false;
        for e in &graph.edges {
            let (a, b) = (comp[e.from], comp[e.to]);
            if a != b && depth[b] < depth[a] + 1 {
                depth[b] = depth[a] + 1;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    for v in 0..n {
        graph.nodes[v].rank = depth[comp[v]];
    }
}
