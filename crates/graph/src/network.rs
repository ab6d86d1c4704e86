use crate::hash::NameMap;
use crate::{Direction, GraphError, RelId, Result, Schema, Step, TypeId};
use hetesim_sparse::{CooMatrix, CsrMatrix};
use std::sync::OnceLock;

/// A typed reference to one node: its type plus its index within that
/// type's registry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NodeRef {
    /// Object type.
    pub ty: TypeId,
    /// Index within the per-type registry.
    pub idx: u32,
}

impl NodeRef {
    /// Convenience constructor.
    pub fn new(ty: TypeId, idx: u32) -> NodeRef {
        NodeRef { ty, idx }
    }
}

/// An immutable heterogeneous information network: per-type node registries
/// plus one adjacency matrix per schema relation (with cached transposes,
/// and each orientation's row-sum divisors once a query has asked for
/// them).
///
/// Built through [`HinBuilder`]; all query-side structures (`hetesim-core`,
/// the baselines) borrow a `Hin` immutably, so a single network can serve
/// concurrent measurements.
#[derive(Debug, Clone)]
pub struct Hin {
    schema: Schema,
    names: Vec<Vec<String>>,
    index: Vec<NameMap>,
    adj: Vec<CsrMatrix>,
    adj_t: Vec<CsrMatrix>,
    /// Per relation, the row-sum divisors of `adj` (`[0]`) and `adj_t`
    /// (`[1]`), filled on first use by [`Hin::step_divisors`] so that
    /// building or loading a network never pays for them.
    divisors: Vec<[OnceLock<Vec<f64>>; 2]>,
}

/// One empty divisor slot pair per relation.
fn divisor_slots(relations: usize) -> Vec<[OnceLock<Vec<f64>>; 2]> {
    (0..relations).map(|_| Default::default()).collect()
}

impl Hin {
    /// Reassembles a network from pre-validated parts, the fast path used
    /// by snapshot loading: no COO round-trip, no parallel-edge merging —
    /// the adjacency matrices are installed as given and only the
    /// transposes and name indexes are recomputed (both deterministic, so
    /// a snapshotted network is bitwise-identical to its source).
    ///
    /// Validates that the parts are mutually consistent: one name registry
    /// per schema type, one adjacency per relation, each adjacency shaped
    /// `src_count x dst_count`, and no duplicate names within a type.
    pub fn from_parts(schema: Schema, names: Vec<Vec<String>>, adj: Vec<CsrMatrix>) -> Result<Hin> {
        if names.len() != schema.type_count() {
            return Err(GraphError::Format(format!(
                "{} name registries for {} types",
                names.len(),
                schema.type_count()
            )));
        }
        if adj.len() != schema.relation_count() {
            return Err(GraphError::Format(format!(
                "{} adjacency matrices for {} relations",
                adj.len(),
                schema.relation_count()
            )));
        }
        for (rel, m) in schema.relation_ids().zip(&adj) {
            let want = (
                names[schema.relation_src(rel).index()].len(),
                names[schema.relation_dst(rel).index()].len(),
            );
            if m.shape() != want {
                return Err(GraphError::Format(format!(
                    "relation {} adjacency is {}x{}, expected {}x{}",
                    schema.relation_name(rel),
                    m.nrows(),
                    m.ncols(),
                    want.0,
                    want.1
                )));
            }
        }
        let mut index = Vec::with_capacity(names.len());
        for (ti, per_type) in names.iter().enumerate() {
            let mut map = NameMap::with_capacity_and_hasher(per_type.len(), Default::default());
            for (i, name) in per_type.iter().enumerate() {
                let id = u32::try_from(i).map_err(|_| {
                    GraphError::Format(format!("type #{ti} has more than u32::MAX nodes"))
                })?;
                if map.insert(name.clone(), id).is_some() {
                    return Err(GraphError::Format(format!(
                        "duplicate node name {name:?} in type #{ti}"
                    )));
                }
            }
            index.push(map);
        }
        let adj_t: Vec<CsrMatrix> = adj.iter().map(CsrMatrix::transpose).collect();
        Ok(Hin {
            schema,
            names,
            index,
            divisors: divisor_slots(adj.len()),
            adj,
            adj_t,
        })
    }

    /// The network's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of nodes of the given type.
    pub fn node_count(&self, ty: TypeId) -> usize {
        self.names[ty.index()].len()
    }

    /// Total node count across all types.
    pub fn total_nodes(&self) -> usize {
        self.names.iter().map(Vec::len).sum()
    }

    /// Total stored edge count across all relations.
    pub fn total_edges(&self) -> usize {
        self.adj.iter().map(CsrMatrix::nnz).sum()
    }

    /// Name of node `idx` of type `ty`.
    pub fn node_name(&self, ty: TypeId, idx: u32) -> &str {
        &self.names[ty.index()][idx as usize]
    }

    /// All node names of a type, in index order.
    pub fn node_names(&self, ty: TypeId) -> &[String] {
        &self.names[ty.index()]
    }

    /// Looks a node up by name.
    pub fn node_id(&self, ty: TypeId, name: &str) -> Result<u32> {
        self.index[ty.index()].get(name).copied().ok_or_else(|| {
            GraphError::UnknownType(format!(
                "node {name:?} of type {}",
                self.schema.type_name(ty)
            ))
        })
    }

    /// Typed reference lookup by name.
    pub fn node_ref(&self, ty: TypeId, name: &str) -> Result<NodeRef> {
        Ok(NodeRef::new(ty, self.node_id(ty, name)?))
    }

    /// Adjacency matrix of a relation (`src_count x dst_count`, weights as
    /// stored).
    pub fn adjacency(&self, rel: RelId) -> &CsrMatrix {
        &self.adj[rel.index()]
    }

    /// Cached transpose of a relation's adjacency.
    pub fn adjacency_t(&self, rel: RelId) -> &CsrMatrix {
        &self.adj_t[rel.index()]
    }

    /// Adjacency matrix in traversal orientation for a meta-path step:
    /// rows are the step's departure type, columns its arrival type.
    pub fn step_adjacency(&self, step: Step) -> &CsrMatrix {
        match step.dir {
            Direction::Forward => self.adjacency(step.rel),
            Direction::Backward => self.adjacency_t(step.rel),
        }
    }

    /// Row-sum divisors of [`Hin::step_adjacency`] (see
    /// [`CsrMatrix::row_sum_divisors`]): dividing each row of the step's
    /// adjacency by its divisor gives the transition matrix `U` of
    /// Definition 8 bit for bit. A divisor belongs to a relation
    /// direction, not to a path, so it is computed on the first call for
    /// that relation and direction and then shared by every later
    /// half-path build, on any thread.
    pub fn step_divisors(&self, step: Step) -> &[f64] {
        let slots = &self.divisors[step.rel.index()];
        let slot = match step.dir {
            Direction::Forward => &slots[0],
            Direction::Backward => &slots[1],
        };
        slot.get_or_init(|| self.step_adjacency(step).row_sum_divisors())
    }

    /// Row-stochastic transition matrix `U` for a step (Definition 8).
    /// Computed on demand; `hetesim-core` provides a memoizing cache.
    pub fn step_transition(&self, step: Step) -> CsrMatrix {
        self.step_adjacency(step).row_normalized()
    }

    /// Out-degree of a node under a relation (number of stored neighbors).
    pub fn out_degree(&self, rel: RelId, src: u32) -> usize {
        self.adjacency(rel).row_nnz(src as usize)
    }

    /// In-degree of a node under a relation.
    pub fn in_degree(&self, rel: RelId, dst: u32) -> usize {
        self.adjacency_t(rel).row_nnz(dst as usize)
    }

    /// Out-neighbors `O(s | R)` of a node under a relation.
    pub fn out_neighbors(&self, rel: RelId, src: u32) -> &[u32] {
        self.adjacency(rel).row_indices(src as usize)
    }

    /// In-neighbors `I(t | R)` of a node under a relation.
    pub fn in_neighbors(&self, rel: RelId, dst: u32) -> &[u32] {
        self.adjacency_t(rel).row_indices(dst as usize)
    }
}

#[derive(Debug, Clone)]
struct PendingEdge {
    rel: RelId,
    src: u32,
    dst: u32,
    weight: f64,
}

/// Incremental builder for [`Hin`].
///
/// Nodes can be registered explicitly ([`HinBuilder::add_node`]) or created
/// on first mention by [`HinBuilder::add_edge_by_name`] — the convenient
/// mode for ingesting edge lists. Parallel edges are summed into a single
/// weighted edge at build time.
#[derive(Debug, Clone)]
pub struct HinBuilder {
    schema: Schema,
    names: Vec<Vec<String>>,
    index: Vec<NameMap>,
    edges: Vec<PendingEdge>,
}

impl HinBuilder {
    /// Starts building a network over the given schema.
    pub fn new(schema: Schema) -> HinBuilder {
        let n = schema.type_count();
        HinBuilder {
            schema,
            names: vec![Vec::new(); n],
            index: vec![NameMap::default(); n],
            edges: Vec::new(),
        }
    }

    /// Re-opens an existing network for evolution: all node registries and
    /// edges are carried over (indices preserved), so callers can add
    /// nodes/edges and [`HinBuilder::build`] an updated snapshot. `Hin`
    /// itself stays immutable — engines borrow it — so evolution is
    /// copy-on-write at network granularity.
    pub fn from_hin(hin: &Hin) -> HinBuilder {
        let mut b = HinBuilder::new(hin.schema.clone());
        b.names = hin.names.clone();
        b.index = hin.index.clone();
        for rel in hin.schema.relation_ids() {
            for (src, dst, weight) in hin.adjacency(rel).iter() {
                b.edges.push(PendingEdge {
                    rel,
                    src: src as u32,
                    dst: dst as u32,
                    weight,
                });
            }
        }
        b
    }

    /// The schema being populated.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Registers (or finds) a node by name, returning its index.
    pub fn add_node(&mut self, ty: TypeId, name: &str) -> u32 {
        let ti = ty.index();
        if let Some(&id) = self.index[ti].get(name) {
            return id;
        }
        let id = u32::try_from(self.names[ti].len()).expect("too many nodes");
        self.names[ti].push(name.to_string());
        self.index[ti].insert(name.to_string(), id);
        id
    }

    /// Number of nodes currently registered for a type.
    pub fn node_count(&self, ty: TypeId) -> usize {
        self.names[ty.index()].len()
    }

    /// Adds a weighted edge by node indices. Endpoints must already exist.
    pub fn add_edge(&mut self, rel: RelId, src: u32, dst: u32, weight: f64) -> Result<()> {
        self.schema.check_relation(rel)?;
        let sty = self.schema.relation_src(rel);
        let dty = self.schema.relation_dst(rel);
        if (src as usize) >= self.names[sty.index()].len() {
            return Err(GraphError::InvalidId(format!(
                "source node #{src} of type {}",
                self.schema.type_name(sty)
            )));
        }
        if (dst as usize) >= self.names[dty.index()].len() {
            return Err(GraphError::InvalidId(format!(
                "target node #{dst} of type {}",
                self.schema.type_name(dty)
            )));
        }
        self.edges.push(PendingEdge {
            rel,
            src,
            dst,
            weight,
        });
        Ok(())
    }

    /// Adds a weighted edge by node names, creating endpoints on demand.
    pub fn add_edge_by_name(
        &mut self,
        rel: RelId,
        src: &str,
        dst: &str,
        weight: f64,
    ) -> Result<()> {
        self.schema.check_relation(rel)?;
        let sty = self.schema.relation_src(rel);
        let dty = self.schema.relation_dst(rel);
        let s = self.add_node(sty, src);
        let d = self.add_node(dty, dst);
        self.edges.push(PendingEdge {
            rel,
            src: s,
            dst: d,
            weight,
        });
        Ok(())
    }

    /// Finalizes into an immutable [`Hin`], assembling adjacency matrices
    /// and their transposes.
    pub fn build(self) -> Hin {
        let nrel = self.schema.relation_count();
        let mut coos: Vec<CooMatrix> = (0..nrel)
            .map(|r| {
                let rel = self
                    .schema
                    .relation_ids()
                    .nth(r)
                    .expect("relation index in range");
                CooMatrix::new(
                    self.names[self.schema.relation_src(rel).index()].len(),
                    self.names[self.schema.relation_dst(rel).index()].len(),
                )
            })
            .collect();
        for e in &self.edges {
            coos[e.rel.index()].push(e.src as usize, e.dst as usize, e.weight);
        }
        let adj: Vec<CsrMatrix> = coos.iter().map(CooMatrix::to_csr).collect();
        let adj_t: Vec<CsrMatrix> = adj.iter().map(CsrMatrix::transpose).collect();
        Hin {
            schema: self.schema,
            names: self.names,
            index: self.index,
            divisors: divisor_slots(adj.len()),
            adj,
            adj_t,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MetaPath;

    fn toy() -> Hin {
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
    fn node_registry_roundtrip() {
        let hin = toy();
        let a = hin.schema().type_id("author").unwrap();
        assert_eq!(hin.node_count(a), 2);
        let tom = hin.node_id(a, "Tom").unwrap();
        assert_eq!(hin.node_name(a, tom), "Tom");
        assert!(hin.node_id(a, "Nobody").is_err());
        assert_eq!(hin.total_nodes(), 2 + 3 + 2);
        assert_eq!(hin.total_edges(), 7);
    }

    #[test]
    fn adjacency_shapes_and_degrees() {
        let hin = toy();
        let w = hin.schema().relation_id("writes").unwrap();
        assert_eq!(hin.adjacency(w).shape(), (2, 3));
        assert_eq!(hin.adjacency_t(w).shape(), (3, 2));
        let a = hin.schema().type_id("author").unwrap();
        let tom = hin.node_id(a, "Tom").unwrap();
        assert_eq!(hin.out_degree(w, tom), 2);
        let p = hin.schema().type_id("paper").unwrap();
        let p2 = hin.node_id(p, "P2").unwrap();
        assert_eq!(hin.in_degree(w, p2), 2);
        assert_eq!(hin.out_neighbors(w, tom).len(), 2);
        assert_eq!(hin.in_neighbors(w, p2).len(), 2);
    }

    #[test]
    fn step_transition_is_row_stochastic() {
        let hin = toy();
        let path = MetaPath::parse(hin.schema(), "A-P").unwrap();
        let u = hin.step_transition(path.steps()[0]);
        for r in 0..u.nrows() {
            let s: f64 = u.row_values(r).iter().sum();
            assert!((s - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn step_divisors_are_filled_on_first_use_and_kept() {
        let hin = toy();
        assert!(hin.divisors.iter().flatten().all(|d| d.get().is_none()));
        for text in ["A-P", "P-A", "P-C", "C-P"] {
            let step = MetaPath::parse(hin.schema(), text).unwrap().steps()[0];
            let d = hin.step_divisors(step);
            assert_eq!(d, hin.step_adjacency(step).row_sum_divisors(), "{text}");
            assert!(
                std::ptr::eq(d, hin.step_divisors(step)),
                "{text} recomputed"
            );
        }
        // A clone carries the filled divisors along.
        assert!(hin
            .clone()
            .divisors
            .iter()
            .flatten()
            .all(|d| d.get().is_some()));
    }

    #[test]
    fn backward_step_uses_transpose() {
        let hin = toy();
        let path = MetaPath::parse(hin.schema(), "P-A").unwrap();
        let m = hin.step_adjacency(path.steps()[0]);
        assert_eq!(m.shape(), (3, 2));
    }

    #[test]
    fn duplicate_names_are_merged() {
        let mut s = Schema::new();
        let a = s.add_type("author").unwrap();
        let p = s.add_type("paper").unwrap();
        let w = s.add_relation("writes", a, p).unwrap();
        let mut b = HinBuilder::new(s);
        let id1 = b.add_node(a, "Tom");
        let id2 = b.add_node(a, "Tom");
        assert_eq!(id1, id2);
        b.add_edge_by_name(w, "Tom", "P1", 1.0).unwrap();
        b.add_edge_by_name(w, "Tom", "P1", 1.0).unwrap();
        let hin = b.build();
        // Parallel edges summed into weight 2.
        assert_eq!(hin.adjacency(w).get(0, 0), 2.0);
        assert_eq!(hin.adjacency(w).nnz(), 1);
    }

    #[test]
    fn add_edge_by_index_requires_existing_nodes() {
        let mut s = Schema::new();
        let a = s.add_type("author").unwrap();
        let p = s.add_type("paper").unwrap();
        let w = s.add_relation("writes", a, p).unwrap();
        let mut b = HinBuilder::new(s);
        assert!(b.add_edge(w, 0, 0, 1.0).is_err());
        let ai = b.add_node(a, "Tom");
        let pi = b.add_node(p, "P1");
        assert!(b.add_edge(w, ai, pi, 1.0).is_ok());
    }

    #[test]
    fn from_hin_preserves_and_extends() {
        let hin = toy();
        let a = hin.schema().type_id("author").unwrap();
        let w = hin.schema().relation_id("writes").unwrap();
        let tom = hin.node_id(a, "Tom").unwrap();

        let mut b = HinBuilder::from_hin(&hin);
        // Existing names keep their indices.
        assert_eq!(b.add_node(a, "Tom"), tom);
        b.add_edge_by_name(w, "Tom", "P3", 1.0).unwrap();
        let evolved = b.build();

        assert_eq!(evolved.total_edges(), hin.total_edges() + 1);
        assert_eq!(evolved.node_id(a, "Tom").unwrap(), tom);
        assert_eq!(evolved.out_degree(w, tom), hin.out_degree(w, tom) + 1);
        // The original is untouched.
        assert_eq!(hin.out_degree(w, tom), 2);
    }

    #[test]
    fn from_parts_matches_builder_output() {
        let hin = toy();
        let names: Vec<Vec<String>> = hin
            .schema()
            .type_ids()
            .map(|ty| hin.node_names(ty).to_vec())
            .collect();
        let adj: Vec<CsrMatrix> = hin
            .schema()
            .relation_ids()
            .map(|rel| hin.adjacency(rel).clone())
            .collect();
        let back = Hin::from_parts(hin.schema().clone(), names, adj).unwrap();
        assert_eq!(back.total_nodes(), hin.total_nodes());
        assert_eq!(back.total_edges(), hin.total_edges());
        let a = hin.schema().type_id("author").unwrap();
        let w = hin.schema().relation_id("writes").unwrap();
        assert_eq!(
            back.node_id(a, "Mary").unwrap(),
            hin.node_id(a, "Mary").unwrap()
        );
        assert_eq!(back.adjacency(w), hin.adjacency(w));
        assert_eq!(back.adjacency_t(w), hin.adjacency_t(w));
    }

    #[test]
    fn from_parts_rejects_inconsistent_parts() {
        let hin = toy();
        let names: Vec<Vec<String>> = hin
            .schema()
            .type_ids()
            .map(|ty| hin.node_names(ty).to_vec())
            .collect();
        let adj: Vec<CsrMatrix> = hin
            .schema()
            .relation_ids()
            .map(|rel| hin.adjacency(rel).clone())
            .collect();

        // Wrong registry count.
        assert!(Hin::from_parts(hin.schema().clone(), names[..2].to_vec(), adj.clone()).is_err());
        // Wrong adjacency count.
        assert!(Hin::from_parts(hin.schema().clone(), names.clone(), adj[..1].to_vec()).is_err());
        // Shape mismatch: swap the two relations' matrices.
        let swapped = vec![adj[1].clone(), adj[0].clone()];
        assert!(Hin::from_parts(hin.schema().clone(), names.clone(), swapped).is_err());
        // Duplicate node name within a type.
        let mut dup = names.clone();
        dup[0][1] = dup[0][0].clone();
        assert!(Hin::from_parts(hin.schema().clone(), dup, adj).is_err());
    }

    #[test]
    fn empty_network_builds() {
        let mut s = Schema::new();
        let a = s.add_type("author").unwrap();
        let p = s.add_type("paper").unwrap();
        s.add_relation("writes", a, p).unwrap();
        let hin = HinBuilder::new(s).build();
        assert_eq!(hin.total_nodes(), 0);
        assert_eq!(hin.total_edges(), 0);
    }
}
