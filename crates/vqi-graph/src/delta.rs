//! Edge-churn batches for the incremental maintenance kernels.
//!
//! [`EdgeDelta`] is the shared input type of [`crate::truss::TrussMaintainer`]
//! and [`crate::graphlet::CensusMaintainer`]: a batch of undirected edge
//! inserts and deletes against a growing node universe. The maintainers
//! apply deletes first, then inserts, and both skip no-ops (deleting a
//! missing edge, inserting a duplicate or a self-loop) so a delta can be
//! replayed against any graph that already absorbed part of it.
//!
//! [`EdgeBatch`] is the labelled, caller-facing form of a churn batch
//! (appended nodes, labelled additions, removals by node pair);
//! [`Graph::apply_batch`] applies one in place and returns the
//! [`GraphEdit`] it made: the effective `EdgeDelta` plus what
//! [`crate::index::GraphIndex::patch`] needs to follow the graph.
//!
//! `DynamicAdjacency` is the crate-private mutable counterpart of
//! [`crate::graph::SortedAdjacency`]: the same sorted rows, but kept live
//! across batches so maintainers never rebuild adjacency from scratch.

use crate::graph::{EdgeId, Graph, Label, NodeId, SortedAdjacency};

/// A batch of undirected edge mutations: `deletes` are applied first,
/// then `inserts`. Endpoint pairs are raw node indices; order within a
/// pair does not matter.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EdgeDelta {
    /// Edges to remove, as endpoint pairs.
    pub deletes: Vec<(u32, u32)>,
    /// Edges to add, as endpoint pairs.
    pub inserts: Vec<(u32, u32)>,
}

impl EdgeDelta {
    /// An empty delta.
    pub fn new() -> Self {
        Self::default()
    }

    /// A delta that only inserts.
    pub fn inserting(inserts: Vec<(u32, u32)>) -> Self {
        Self {
            deletes: Vec::new(),
            inserts,
        }
    }

    /// A delta that only deletes.
    pub fn deleting(deletes: Vec<(u32, u32)>) -> Self {
        Self {
            deletes,
            inserts: Vec::new(),
        }
    }

    /// Total number of mutations in the batch.
    pub fn len(&self) -> usize {
        self.deletes.len() + self.inserts.len()
    }

    /// True when the batch carries no mutations.
    pub fn is_empty(&self) -> bool {
        self.deletes.is_empty() && self.inserts.is_empty()
    }

    /// Largest node index mentioned by the batch, if any.
    pub fn max_node(&self) -> Option<u32> {
        self.deletes
            .iter()
            .chain(self.inserts.iter())
            .map(|&(u, v)| u.max(v))
            .max()
    }
}

/// A batch of labelled edits to a graph, applied by
/// [`Graph::apply_batch`]: removals first (against the edges live before
/// the batch), then node appends, then additions in order.
#[derive(Debug, Clone, Default)]
pub struct EdgeBatch {
    /// Labels of nodes to append (their ids continue the current space).
    pub node_additions: Vec<Label>,
    /// Edges to add, as (u, v, label) over the post-append node space.
    pub edge_additions: Vec<(u32, u32, Label)>,
    /// Edges to remove, as unordered (u, v) node pairs.
    pub edge_removals: Vec<(u32, u32)>,
}

impl EdgeBatch {
    /// True if nothing changes.
    pub fn is_empty(&self) -> bool {
        self.node_additions.is_empty()
            && self.edge_additions.is_empty()
            && self.edge_removals.is_empty()
    }
}

/// What one [`Graph::apply_batch`] changed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GraphEdit {
    /// The effective mutations: deletes of live edges as `(min, max)`
    /// pairs in pre-edit edge-id order, then the additions the graph
    /// accepted, as given. The added edges are the last
    /// `delta.inserts.len()` edge ids of the edited graph.
    pub delta: EdgeDelta,
    /// The removed edges `(u, v, label)`, in pre-edit edge-id order.
    pub removed: Vec<(NodeId, NodeId, Label)>,
    /// Node count before the edit; nodes from here on were appended.
    pub old_node_count: usize,
    /// Every endpoint of a removed or added edge, ascending, with its
    /// degree before the edit (0 for an appended node).
    pub touched: Vec<(NodeId, u32)>,
}

/// A sorted adjacency that tracks edge inserts and deletes in place.
///
/// Rows stay sorted by neighbor id, so lookups keep the
/// [`SortedAdjacency`] cost model and the ESU census can run directly on
/// [`Self::view`] with bit-identical traversal order.
#[derive(Debug, Clone)]
pub(crate) struct DynamicAdjacency {
    view: SortedAdjacency,
}

impl DynamicAdjacency {
    /// Snapshots `g` into a mutable adjacency. Edge ids mirror `g`'s.
    pub(crate) fn from_graph(g: &Graph) -> Self {
        Self {
            view: g.sorted_adjacency(),
        }
    }

    /// The read-only sorted view (always current).
    #[inline]
    pub(crate) fn view(&self) -> &SortedAdjacency {
        &self.view
    }

    /// Number of nodes.
    #[inline]
    pub(crate) fn node_count(&self) -> usize {
        self.view.node_count()
    }

    /// Grows the node universe to `n` nodes.
    pub(crate) fn grow(&mut self, n: usize) {
        self.view.grow_rows(n);
    }

    /// The edge between `u` and `v`, if present.
    #[inline]
    pub(crate) fn edge_between(&self, u: NodeId, v: NodeId) -> Option<EdgeId> {
        self.view.edge_between(u, v)
    }

    /// True if `u -- v` exists.
    #[inline]
    pub(crate) fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.view.has_edge(u, v)
    }

    /// Inserts edge `e` between `u` and `v`; false if it already exists.
    pub(crate) fn insert(&mut self, u: NodeId, v: NodeId, e: EdgeId) -> bool {
        self.view.insert_sorted(u, v, e)
    }

    /// Removes the edge between `u` and `v`, returning its id.
    pub(crate) fn remove(&mut self, u: NodeId, v: NodeId) -> Option<EdgeId> {
        self.view.remove_sorted(u, v)
    }

    /// Calls `f(w, uw, vw)` for every common neighbor `w` of `u` and `v`,
    /// where `uw`/`vw` are the edge ids of `u -- w` / `v -- w`. Sorted-merge
    /// intersection, so triangles are visited in ascending `w` order.
    pub(crate) fn common_neighbors(
        &self,
        u: NodeId,
        v: NodeId,
        mut f: impl FnMut(NodeId, EdgeId, EdgeId),
    ) {
        let ru = self.view.neighbors(u);
        let rv = self.view.neighbors(v);
        let (mut i, mut j) = (0, 0);
        while i < ru.len() && j < rv.len() {
            let (a, ea) = ru[i];
            let (b, eb) = rv[j];
            match a.cmp(&b) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    if a != u && a != v {
                        f(a, ea, eb);
                    }
                    i += 1;
                    j += 1;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;

    fn diamond() -> Graph {
        // a-b-c-d with chords a-c and b-d missing: the 4-cycle plus a-c
        GraphBuilder::new()
            .nodes(&[0, 0, 0, 0])
            .edge(0, 1, 0)
            .edge(1, 2, 0)
            .edge(2, 3, 0)
            .edge(3, 0, 0)
            .edge(0, 2, 0)
            .build()
    }

    #[test]
    fn insert_and_remove_keep_rows_sorted() {
        let g = diamond();
        let mut adj = DynamicAdjacency::from_graph(&g);
        assert!(adj.has_edge(NodeId(0), NodeId(2)));
        assert!(!adj.insert(NodeId(0), NodeId(2), EdgeId(9)), "duplicate");
        assert!(!adj.insert(NodeId(1), NodeId(1), EdgeId(9)), "self-loop");
        assert!(adj.insert(NodeId(1), NodeId(3), EdgeId(5)));
        for v in 0..4 {
            let row = adj.view().neighbors(NodeId(v));
            assert!(row.windows(2).all(|w| w[0].0 < w[1].0), "row {v} sorted");
        }
        assert_eq!(adj.remove(NodeId(3), NodeId(1)), Some(EdgeId(5)));
        assert_eq!(adj.remove(NodeId(3), NodeId(1)), None);
        assert!(!adj.has_edge(NodeId(1), NodeId(3)));
    }

    #[test]
    fn common_neighbors_enumerates_triangles() {
        let g = diamond();
        let adj = DynamicAdjacency::from_graph(&g);
        let mut seen = Vec::new();
        adj.common_neighbors(NodeId(0), NodeId(2), |w, _, _| seen.push(w.0));
        assert_eq!(seen, vec![1, 3]);
        let mut none = Vec::new();
        adj.common_neighbors(NodeId(1), NodeId(3), |w, _, _| none.push(w.0));
        assert_eq!(none, vec![0, 2]);
    }

    #[test]
    fn delta_accessors() {
        let d = EdgeDelta {
            deletes: vec![(0, 1)],
            inserts: vec![(2, 7), (3, 4)],
        };
        assert_eq!(d.len(), 3);
        assert!(!d.is_empty());
        assert_eq!(d.max_node(), Some(7));
        assert!(EdgeDelta::new().is_empty());
        assert_eq!(EdgeDelta::new().max_node(), None);
    }
}
