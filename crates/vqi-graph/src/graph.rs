//! Core labeled, undirected graph type.
//!
//! Graphs here are simple (no self-loops, no parallel edges), undirected,
//! and labeled on both nodes and edges. Nodes are append-only. Edges
//! are appended one at a time and removed in batches by
//! [`Graph::remove_edges`], which renumbers the survivors densely and
//! keeps every adjacency row in edge-id order, so an edited graph is
//! identical to one built from scratch from the same edge sequence.
//! [`Graph::apply_batch`] applies a whole churn batch that way.

use crate::delta::{EdgeBatch, EdgeDelta, GraphEdit};
use std::fmt;

/// A node identifier, dense in `0..graph.node_count()`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

/// An edge identifier, dense in `0..graph.edge_count()`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EdgeId(pub u32);

impl NodeId {
    /// The id as a usable index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl EdgeId {
    /// The id as a usable index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// Compact label type. Applications intern their label strings elsewhere;
/// the substrate only compares labels for equality.
pub type Label = u32;

/// A wildcard label that matches any label under wildcard-aware matching.
///
/// Closure graphs (cluster summary graphs) insert dummy vertices/edges with
/// this special label so that every constituent graph remains represented.
pub const WILDCARD_LABEL: Label = u32::MAX;

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct EdgeData {
    pub u: NodeId,
    pub v: NodeId,
    pub label: Label,
}

/// An undirected, simple, labeled graph. Two graphs are equal when
/// their node labels, edge ids, endpoints, edge labels and adjacency
/// rows are, in order: equal representations, not just isomorphic ones.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Graph {
    node_labels: Vec<Label>,
    edges: Vec<EdgeData>,
    /// adjacency: for each node, (neighbor, edge id) pairs.
    adj: Vec<Vec<(NodeId, EdgeId)>>,
}

impl Graph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty graph with room for `nodes` nodes and `edges` edges.
    pub fn with_capacity(nodes: usize, edges: usize) -> Self {
        Graph {
            node_labels: Vec::with_capacity(nodes),
            edges: Vec::with_capacity(edges),
            adj: Vec::with_capacity(nodes),
        }
    }

    /// A graph of the given nodes and edges, edge `i` being `edges[i]`.
    /// Each adjacency row is sized in one degree pass and filled in
    /// edge-id order, as [`Graph::add_edge`] fills it. The edges must be
    /// valid for [`Graph::add_edge`]: distinct, in range, no self-loop.
    pub(crate) fn from_edge_data(node_labels: Vec<Label>, edges: Vec<EdgeData>) -> Self {
        let mut degree = vec![0usize; node_labels.len()];
        for e in &edges {
            degree[e.u.index()] += 1;
            degree[e.v.index()] += 1;
        }
        let mut adj: Vec<Vec<(NodeId, EdgeId)>> =
            degree.into_iter().map(Vec::with_capacity).collect();
        for (i, e) in edges.iter().enumerate() {
            adj[e.u.index()].push((e.v, EdgeId(i as u32)));
            adj[e.v.index()].push((e.u, EdgeId(i as u32)));
        }
        Graph {
            node_labels,
            edges,
            adj,
        }
    }

    /// Adds a node with the given label and returns its id.
    pub fn add_node(&mut self, label: Label) -> NodeId {
        let id = NodeId(self.node_labels.len() as u32);
        self.node_labels.push(label);
        self.adj.push(Vec::new());
        id
    }

    /// Adds an undirected edge `u -- v` with the given label.
    ///
    /// Returns `None` (and leaves the graph unchanged) for self-loops,
    /// out-of-range endpoints, or duplicate edges.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId, label: Label) -> Option<EdgeId> {
        if u == v
            || u.index() >= self.node_labels.len()
            || v.index() >= self.node_labels.len()
            || self.has_edge(u, v)
        {
            return None;
        }
        let id = EdgeId(self.edges.len() as u32);
        self.edges.push(EdgeData { u, v, label });
        self.adj[u.index()].push((v, id));
        self.adj[v.index()].push((u, id));
        Some(id)
    }

    /// Removes the edges `dead` (any order, duplicates ignored; an id
    /// out of range panics) in one pass over the edges and the rows.
    /// Surviving edges keep their relative order and are renumbered
    /// densely, and each adjacency row keeps its order, so the result
    /// equals re-adding the surviving edges, in id order, to a graph
    /// with the same nodes. Returns the removed edges `(u, v, label)` in
    /// id order.
    pub fn remove_edges(&mut self, dead: &[EdgeId]) -> Vec<(NodeId, NodeId, Label)> {
        if dead.is_empty() {
            return Vec::new();
        }
        const GONE: u32 = u32::MAX;
        // old edge id -> new edge id, or GONE
        let mut renumber = vec![0u32; self.edges.len()];
        for &e in dead {
            renumber[e.index()] = GONE;
        }
        let mut removed = Vec::with_capacity(dead.len());
        let mut kept = 0usize;
        for (old, new) in renumber.iter_mut().enumerate() {
            let d = self.edges[old];
            if *new == GONE {
                removed.push((d.u, d.v, d.label));
            } else {
                *new = kept as u32;
                self.edges[kept] = d;
                kept += 1;
            }
        }
        self.edges.truncate(kept);
        for row in &mut self.adj {
            row.retain_mut(|(_, e)| match renumber[e.index()] {
                GONE => false,
                new => {
                    *e = EdgeId(new);
                    true
                }
            });
        }
        removed
    }

    /// Applies `batch` in place: the removals that name a live edge of
    /// the pre-edit graph, then the node appends, then every addition
    /// [`Graph::add_edge`] accepts, in order. Removals of absent pairs
    /// are ignored, a pair named twice (in either orientation) is
    /// removed once, and a removed pair may be re-added by the same
    /// batch. Returns what changed.
    pub fn apply_batch(&mut self, batch: &EdgeBatch) -> GraphEdit {
        let dead = self.removal_ids(batch);
        self.apply_batch_removing(batch, dead)
    }

    /// The live edges `batch` removes, ascending and distinct: the
    /// first step of [`Graph::apply_batch`], for callers that must read
    /// each removal on the graph before the edit.
    pub fn removal_ids(&self, batch: &EdgeBatch) -> Vec<EdgeId> {
        let n = self.node_count();
        let mut dead: Vec<EdgeId> = batch
            .edge_removals
            .iter()
            .filter(|&&(a, b)| (a as usize) < n && (b as usize) < n)
            .filter_map(|&(a, b)| self.edge_between(NodeId(a), NodeId(b)))
            .collect();
        dead.sort_unstable();
        dead.dedup();
        dead
    }

    /// The rest of [`Graph::apply_batch`], given `dead ==
    /// self.removal_ids(batch)`.
    pub fn apply_batch_removing(&mut self, batch: &EdgeBatch, dead: Vec<EdgeId>) -> GraphEdit {
        let old_node_count = self.node_count();
        let removed = self.remove_edges(&dead);
        for &l in &batch.node_additions {
            self.add_node(l);
        }
        let mut delta = EdgeDelta::new();
        delta.deletes = removed
            .iter()
            .map(|&(u, v, _)| (u.0.min(v.0), u.0.max(v.0)))
            .collect();
        for &(u, v, l) in &batch.edge_additions {
            if self.add_edge(NodeId(u), NodeId(v), l).is_some() {
                delta.inserts.push((u, v));
            }
        }
        // degree before the edit = degree now + deletes - inserts
        let mut shifts: Vec<(u32, i64)> = Vec::with_capacity(2 * delta.len());
        for &(u, v) in &delta.deletes {
            shifts.extend([(u, 1), (v, 1)]);
        }
        for &(u, v) in &delta.inserts {
            shifts.extend([(u, -1), (v, -1)]);
        }
        shifts.sort_unstable_by_key(|&(v, _)| v);
        let mut net: Vec<(NodeId, i64)> = Vec::new();
        for (v, s) in shifts {
            match net.last_mut() {
                Some((w, n)) if w.0 == v => *n += s,
                _ => net.push((NodeId(v), s)),
            }
        }
        GraphEdit {
            delta,
            removed,
            removed_ids: dead,
            old_node_count,
            touched: net
                .into_iter()
                .map(|(v, n)| (v, (self.degree(v) as i64 + n) as u32))
                .collect(),
        }
    }

    /// Number of nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.node_labels.len()
    }

    /// Number of edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// True if the graph has no nodes.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.node_labels.is_empty()
    }

    /// All node ids.
    pub fn nodes(&self) -> impl ExactSizeIterator<Item = NodeId> + '_ {
        (0..self.node_labels.len() as u32).map(NodeId)
    }

    /// All edge ids.
    pub fn edges(&self) -> impl ExactSizeIterator<Item = EdgeId> + '_ {
        (0..self.edges.len() as u32).map(EdgeId)
    }

    /// The label of `n`. Panics if out of range.
    #[inline]
    pub fn node_label(&self, n: NodeId) -> Label {
        self.node_labels[n.index()]
    }

    /// The label of edge `e`. Panics if out of range.
    #[inline]
    pub fn edge_label(&self, e: EdgeId) -> Label {
        self.edges[e.index()].label
    }

    /// The endpoints `(u, v)` of edge `e`, with `u < v` not guaranteed.
    #[inline]
    pub fn endpoints(&self, e: EdgeId) -> (NodeId, NodeId) {
        let d = &self.edges[e.index()];
        (d.u, d.v)
    }

    /// Neighbors of `n` with the connecting edge ids.
    #[inline]
    pub fn neighbors(&self, n: NodeId) -> impl ExactSizeIterator<Item = (NodeId, EdgeId)> + '_ {
        self.adj[n.index()].iter().copied()
    }

    /// The contiguous `(neighbor, edge id)` row of `n` in insertion
    /// order — the zero-copy slice twin of [`Graph::neighbors`], and the
    /// access path the [`crate::storage::GraphStorage`] trait abstracts.
    #[inline]
    pub fn neighbor_slice(&self, n: NodeId) -> &[(NodeId, EdgeId)] {
        &self.adj[n.index()]
    }

    /// Degree of `n`.
    #[inline]
    pub fn degree(&self, n: NodeId) -> usize {
        self.adj[n.index()].len()
    }

    /// True if an edge `u -- v` exists.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        // scan the smaller adjacency list
        let (a, b) = if self.degree(u) <= self.degree(v) {
            (u, v)
        } else {
            (v, u)
        };
        self.adj[a.index()].iter().any(|&(n, _)| n == b)
    }

    /// The edge id between `u` and `v`, if any.
    pub fn edge_between(&self, u: NodeId, v: NodeId) -> Option<EdgeId> {
        let (a, b) = if self.degree(u) <= self.degree(v) {
            (u, v)
        } else {
            (v, u)
        };
        self.adj[a.index()]
            .iter()
            .find(|&&(n, _)| n == b)
            .map(|&(_, e)| e)
    }

    /// Replaces the label of node `n`.
    pub fn set_node_label(&mut self, n: NodeId, label: Label) {
        self.node_labels[n.index()] = label;
    }

    /// Replaces the label of edge `e`.
    pub fn set_edge_label(&mut self, e: EdgeId, label: Label) {
        self.edges[e.index()].label = label;
    }

    /// The multiset of node labels.
    pub fn node_label_multiset(&self) -> Vec<Label> {
        let mut v = self.node_labels.clone();
        v.sort_unstable();
        v
    }

    /// The multiset of edge labels.
    pub fn edge_label_multiset(&self) -> Vec<Label> {
        let mut v: Vec<Label> = self.edges.iter().map(|e| e.label).collect();
        v.sort_unstable();
        v
    }

    /// Edge density `2m / (n (n-1))`; zero for graphs with < 2 nodes.
    pub fn density(&self) -> f64 {
        let n = self.node_count() as f64;
        if n < 2.0 {
            0.0
        } else {
            2.0 * self.edge_count() as f64 / (n * (n - 1.0))
        }
    }

    /// Builds the subgraph induced by `nodes`.
    ///
    /// Returns the subgraph and, for each new node id `i`, the original node
    /// id it came from (`mapping[i]`). Nodes are renumbered densely in the
    /// order given; duplicate input nodes are ignored after the first.
    pub fn induced_subgraph(&self, nodes: &[NodeId]) -> (Graph, Vec<NodeId>) {
        crate::storage::induced_subgraph_of(self, nodes)
    }

    /// Builds the subgraph consisting of exactly `edge_ids` (plus their
    /// endpoints). Returns the subgraph and the node mapping back to `self`.
    pub fn edge_subgraph(&self, edge_ids: &[EdgeId]) -> (Graph, Vec<NodeId>) {
        let mut index = vec![u32::MAX; self.node_count()];
        let mut mapping = Vec::new();
        let mut g = Graph::new();
        let intern = |g: &mut Graph,
                      mapping: &mut Vec<NodeId>,
                      index: &mut Vec<u32>,
                      n: NodeId,
                      label: Label| {
            if index[n.index()] == u32::MAX {
                index[n.index()] = g.add_node(label).0;
                mapping.push(n);
            }
            NodeId(index[n.index()])
        };
        for &e in edge_ids {
            let (u, v) = self.endpoints(e);
            let nu = intern(&mut g, &mut mapping, &mut index, u, self.node_label(u));
            let nv = intern(&mut g, &mut mapping, &mut index, v, self.node_label(v));
            g.add_edge(nu, nv, self.edge_label(e));
        }
        (g, mapping)
    }

    /// Returns a copy of this graph with node ids permuted by `perm`
    /// (`perm[old] = new`). Used by permutation-invariance tests.
    pub fn permuted(&self, perm: &[usize]) -> Graph {
        assert_eq!(perm.len(), self.node_count());
        let mut g = Graph::with_capacity(self.node_count(), self.edge_count());
        let mut labels = vec![0 as Label; self.node_count()];
        for n in self.nodes() {
            labels[perm[n.index()]] = self.node_label(n);
        }
        for l in labels {
            g.add_node(l);
        }
        for e in self.edges() {
            let (u, v) = self.endpoints(e);
            g.add_edge(
                NodeId(perm[u.index()] as u32),
                NodeId(perm[v.index()] as u32),
                self.edge_label(e),
            );
        }
        g
    }

    /// A short human-readable summary, e.g. `Graph(n=5, m=6)`.
    pub fn summary(&self) -> String {
        format!("Graph(n={}, m={})", self.node_count(), self.edge_count())
    }
}

/// Convenience builder for small graphs in tests and examples.
///
/// ```
/// use vqi_graph::graph::GraphBuilder;
/// let g = GraphBuilder::new()
///     .nodes(&[0, 0, 1])
///     .edge(0, 1, 7)
///     .edge(1, 2, 7)
///     .build();
/// assert_eq!(g.node_count(), 3);
/// assert_eq!(g.edge_count(), 2);
/// ```
#[derive(Debug, Default)]
pub struct GraphBuilder {
    g: Graph,
}

impl GraphBuilder {
    /// New empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one node per label.
    pub fn nodes(mut self, labels: &[Label]) -> Self {
        for &l in labels {
            self.g.add_node(l);
        }
        self
    }

    /// Adds an edge by raw indices. Panics on invalid or duplicate edges so
    /// test graphs can't silently drop structure.
    pub fn edge(mut self, u: u32, v: u32, label: Label) -> Self {
        self.g
            .add_edge(NodeId(u), NodeId(v), label)
            .expect("GraphBuilder::edge: invalid or duplicate edge");
        self
    }

    /// Finishes the build.
    pub fn build(self) -> Graph {
        self.g
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path3() -> Graph {
        GraphBuilder::new()
            .nodes(&[1, 2, 3])
            .edge(0, 1, 10)
            .edge(1, 2, 11)
            .build()
    }

    #[test]
    fn empty_graph() {
        let g = Graph::new();
        assert_eq!(g.node_count(), 0);
        assert_eq!(g.edge_count(), 0);
        assert!(g.is_empty());
        assert_eq!(g.density(), 0.0);
    }

    #[test]
    fn add_nodes_and_edges() {
        let g = path3();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.node_label(NodeId(0)), 1);
        assert_eq!(g.edge_label(EdgeId(1)), 11);
        assert_eq!(g.degree(NodeId(1)), 2);
        assert!(g.has_edge(NodeId(0), NodeId(1)));
        assert!(g.has_edge(NodeId(1), NodeId(0)));
        assert!(!g.has_edge(NodeId(0), NodeId(2)));
    }

    #[test]
    fn rejects_self_loops_and_duplicates() {
        let mut g = path3();
        assert!(g.add_edge(NodeId(0), NodeId(0), 0).is_none());
        assert!(g.add_edge(NodeId(0), NodeId(1), 99).is_none());
        assert!(g.add_edge(NodeId(1), NodeId(0), 99).is_none());
        assert!(g.add_edge(NodeId(0), NodeId(9), 0).is_none());
        assert_eq!(g.edge_count(), 2);
    }

    #[test]
    fn edge_between_finds_edge() {
        let g = path3();
        assert_eq!(g.edge_between(NodeId(2), NodeId(1)), Some(EdgeId(1)));
        assert_eq!(g.edge_between(NodeId(0), NodeId(2)), None);
    }

    #[test]
    fn induced_subgraph_keeps_internal_edges() {
        let g = GraphBuilder::new()
            .nodes(&[0, 0, 0, 0])
            .edge(0, 1, 1)
            .edge(1, 2, 1)
            .edge(2, 3, 1)
            .edge(3, 0, 1)
            .edge(0, 2, 2)
            .build();
        let (sub, mapping) = g.induced_subgraph(&[NodeId(0), NodeId(1), NodeId(2)]);
        assert_eq!(sub.node_count(), 3);
        assert_eq!(sub.edge_count(), 3); // 0-1, 1-2, 0-2
        assert_eq!(mapping, vec![NodeId(0), NodeId(1), NodeId(2)]);
        // duplicate inputs are deduped
        let (sub2, _) = g.induced_subgraph(&[NodeId(0), NodeId(0), NodeId(1)]);
        assert_eq!(sub2.node_count(), 2);
        assert_eq!(sub2.edge_count(), 1);
    }

    #[test]
    fn edge_subgraph_collects_endpoints() {
        let g = GraphBuilder::new()
            .nodes(&[5, 6, 7])
            .edge(0, 1, 1)
            .edge(1, 2, 2)
            .build();
        let (sub, mapping) = g.edge_subgraph(&[EdgeId(1)]);
        assert_eq!(sub.node_count(), 2);
        assert_eq!(sub.edge_count(), 1);
        assert_eq!(sub.edge_label(EdgeId(0)), 2);
        assert_eq!(mapping.len(), 2);
        let labels: Vec<Label> = mapping.iter().map(|&n| g.node_label(n)).collect();
        assert_eq!(labels, vec![6, 7]);
    }

    #[test]
    fn density_of_triangle_is_one() {
        let g = GraphBuilder::new()
            .nodes(&[0, 0, 0])
            .edge(0, 1, 0)
            .edge(1, 2, 0)
            .edge(0, 2, 0)
            .build();
        assert!((g.density() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn permuted_preserves_structure() {
        let g = path3();
        let p = g.permuted(&[2, 0, 1]);
        assert_eq!(p.node_count(), 3);
        assert_eq!(p.edge_count(), 2);
        // old node 0 (label 1) is now node 2
        assert_eq!(p.node_label(NodeId(2)), 1);
        assert!(p.has_edge(NodeId(2), NodeId(0))); // old 0-1
        assert!(p.has_edge(NodeId(0), NodeId(1))); // old 1-2
    }

    #[test]
    fn removal_ids_are_the_edges_apply_batch_drops() {
        // the 4-cycle 0-1-2-3 plus the chord 0-2
        let g = GraphBuilder::new()
            .nodes(&[0; 4])
            .edge(0, 1, 0)
            .edge(1, 2, 0)
            .edge(2, 3, 0)
            .edge(3, 0, 0)
            .edge(0, 2, 0)
            .build();
        let batch = EdgeBatch {
            node_additions: vec![1],
            edge_additions: vec![(4, 0, 2), (2, 0, 3)],
            // both orientations of one pair, an absent pair, a node out
            // of range before the append
            edge_removals: vec![(2, 0), (0, 2), (3, 2), (1, 3), (4, 0)],
        };
        let dead = g.removal_ids(&batch);
        assert_eq!(dead, vec![EdgeId(2), EdgeId(4)]);
        let mut split = g.clone();
        let edit = split.apply_batch_removing(&batch, dead.clone());
        assert_eq!(edit.removed_ids, dead);
        let mut whole = g.clone();
        assert_eq!(whole.apply_batch(&batch), edit);
        assert_eq!(whole, split);
    }

    #[test]
    fn label_multisets_are_sorted() {
        let g = GraphBuilder::new()
            .nodes(&[9, 1, 5])
            .edge(0, 1, 3)
            .edge(1, 2, 1)
            .build();
        assert_eq!(g.node_label_multiset(), vec![1, 5, 9]);
        assert_eq!(g.edge_label_multiset(), vec![1, 3]);
    }
}
