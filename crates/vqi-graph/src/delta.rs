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
//! [`Graph::apply_batch`]: crate::graph::Graph::apply_batch

use crate::graph::{EdgeId, Label, NodeId};

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
/// [`Graph::apply_batch`](crate::graph::Graph::apply_batch): removals
/// first (against the edges live before the batch), then node appends,
/// then additions in order.
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

/// What one [`Graph::apply_batch`](crate::graph::Graph::apply_batch)
/// changed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GraphEdit {
    /// The effective mutations: deletes of live edges as `(min, max)`
    /// pairs in pre-edit edge-id order, then the additions the graph
    /// accepted, as given. The added edges are the last
    /// `delta.inserts.len()` edge ids of the edited graph.
    pub delta: EdgeDelta,
    /// The removed edges `(u, v, label)`, in pre-edit edge-id order.
    pub removed: Vec<(NodeId, NodeId, Label)>,
    /// The removed edges' pre-edit ids, ascending (aligned with
    /// `removed`). The surviving edges keep their order, renumbered
    /// densely past these gaps, so per-edge state compacts through
    /// them.
    pub removed_ids: Vec<EdgeId>,
    /// Node count before the edit; nodes from here on were appended.
    pub old_node_count: usize,
    /// Every endpoint of a removed or added edge, ascending, with its
    /// degree before the edit (0 for an appended node).
    pub touched: Vec<(NodeId, u32)>,
}

#[cfg(test)]
mod tests {
    use super::*;

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
