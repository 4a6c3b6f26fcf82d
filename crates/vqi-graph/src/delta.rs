//! Edge-churn batches for the incremental maintenance kernels.
//!
//! [`EdgeBatch`] is the labelled, caller-facing form of a churn batch
//! (appended nodes, labelled additions, removals by node pair);
//! [`Graph::apply_batch`] applies one in place and returns the
//! [`GraphEdit`] it made: the effective [`EdgeDelta`] plus what
//! [`crate::index::GraphIndex::patch`] needs to follow the graph.
//!
//! **Two phases around the edit.** The delta kernels (the k-truss in
//! [`crate::truss::TrussState`], the census in
//! [`crate::graphlet::GraphletCounts`]) keep no adjacency of their own:
//! they read the rows of the graph they follow, and any per-edge state
//! is indexed by its edge ids. A batch reaches them in two phases. The
//! first, `before_edit`, runs on the graph before the edit with the
//! removed ids of [`Graph::removal_ids`] and takes each removal in id
//! order with the removals before it masked out; the second,
//! `after_edit`, runs on the edited graph and takes each added edge
//! (the last ids, in order) against the edges of smaller id only,
//! which is exactly the graph at that addition. So the kernels see the
//! batch as deletes, then inserts, one at a time.
//!
//! [`EdgeDelta`] is the unlabelled input of the standalone maintainers
//! [`crate::truss::TrussMaintainer`] and
//! [`crate::graphlet::CensusMaintainer`], which own a graph and run the
//! same two phases around [`Graph::apply_batch_removing`] on
//! [`EdgeDelta::to_batch`]. Like `apply_batch`, they skip no-ops
//! (deleting a missing edge, inserting a duplicate or a self-loop).
//!
//! [`Graph::apply_batch`]: crate::graph::Graph::apply_batch
//! [`Graph::removal_ids`]: crate::graph::Graph::removal_ids
//! [`Graph::apply_batch_removing`]: crate::graph::Graph::apply_batch_removing

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

    /// The same mutations as an [`EdgeBatch`] against a graph of `nodes`
    /// nodes: label-0 nodes appended up to the largest node the delta
    /// names, the deletes as removals, the inserts as label-0
    /// additions.
    pub fn to_batch(&self, nodes: usize) -> EdgeBatch {
        let wanted = self.max_node().map_or(0, |mx| mx as usize + 1);
        EdgeBatch {
            node_additions: vec![0; wanted.saturating_sub(nodes)],
            edge_additions: self.inserts.iter().map(|&(u, v)| (u, v, 0)).collect(),
            edge_removals: self.deletes.clone(),
        }
    }
}

/// Which of a graph's `m` edges are in `dead`: the mask the delta
/// kernels test to evaluate each removal with the earlier ones gone.
pub(crate) fn removed_mask(m: usize, dead: &[EdgeId]) -> Vec<bool> {
    let mut gone = vec![false; m];
    for &e in dead {
        gone[e.index()] = true;
    }
    gone
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

/// How many scripted rounds [`edge_case_delta`] has.
#[cfg(test)]
pub(crate) const EDGE_CASES: usize = 6;

/// Scripted deltas over `g` (which must have an edge) for the
/// maintainer suites, one per `round`: a pair removed and re-added
/// reversed; three, then two edges of one triangle removed together; a
/// triangle closed by inserted edges only; appended nodes wired to an
/// edge and to each other; hub edges out and in, one closing a triangle
/// through the hub.
#[cfg(test)]
pub(crate) fn edge_case_delta(g: &crate::graph::Graph, round: usize) -> EdgeDelta {
    let n = g.node_count() as u32;
    let pair = |e: EdgeId| {
        let (u, v) = g.endpoints(e);
        (u.0, v.0)
    };
    let adjacent = |u: u32, v: u32| u == v || g.has_edge(NodeId(u), NodeId(v));
    // the first triangle in edge order, as its three edges
    let triangle = g.edges().find_map(|e| {
        let (u, v) = g.endpoints(e);
        let mut third = g.neighbor_slice(u).iter();
        third.find_map(|&(w, uw)| g.edge_between(v, w).map(|vw| [e, uw, vw]))
    });
    let first = triangle.map_or(EdgeId(0), |t| t[0]);
    match round {
        0 => {
            let (u, v) = pair(first);
            EdgeDelta {
                deletes: vec![(u, v)],
                inserts: vec![(v, u)],
            }
        }
        1 | 2 => {
            let sides = triangle.map_or(vec![first], |t| t[..4 - round].to_vec());
            EdgeDelta::deleting(sides.into_iter().map(pair).collect())
        }
        3 => {
            // three pairwise non-adjacent nodes, if the graph has them
            let free = (0..n).find_map(|a| {
                let b = (a + 1..n).find(|&b| !adjacent(a, b))?;
                let c = (b + 1..n).find(|&c| !adjacent(a, c) && !adjacent(b, c))?;
                Some(vec![(a, b), (c, b), (a, c)])
            });
            EdgeDelta::inserting(free.unwrap_or_default())
        }
        4 => {
            let (u, v) = pair(first);
            EdgeDelta::inserting(vec![(n, u), (v, n), (n + 1, n), (u, n + 1), (n + 2, n + 1)])
        }
        _ => {
            let hub = (0..n).max_by_key(|&v| g.degree(NodeId(v))).unwrap_or(0);
            let row = g.neighbor_slice(NodeId(hub));
            let deletes = row.iter().take(2).map(|&(w, _)| (hub, w.0)).collect();
            let far: Vec<u32> = (0..n).filter(|&w| !adjacent(hub, w)).take(2).collect();
            let mut inserts: Vec<(u32, u32)> = far.iter().map(|&w| (w, hub)).collect();
            // two hub neighbours that are not adjacent close a triangle
            let kept: Vec<u32> = row.iter().skip(2).map(|&(w, _)| w.0).collect();
            let open = kept.iter().enumerate().find_map(|(i, &a)| {
                let b = kept[i + 1..].iter().find(|&&b| !adjacent(a, b))?;
                Some((a, *b))
            });
            inserts.extend(open);
            EdgeDelta { deletes, inserts }
        }
    }
}

/// Applies `delta` to a set of `(min, max)` pairs the way the
/// maintainers do: deletes, then inserts, self-loops skipped.
#[cfg(test)]
pub(crate) fn absorb(set: &mut std::collections::BTreeSet<(u32, u32)>, delta: &EdgeDelta) {
    for &(u, v) in &delta.deletes {
        set.remove(&(u.min(v), u.max(v)));
    }
    for &(u, v) in delta.inserts.iter().filter(|(u, v)| u != v) {
        set.insert((u.min(v), u.max(v)));
    }
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

    #[test]
    fn to_batch_appends_the_named_nodes() {
        let d = EdgeDelta {
            deletes: vec![(0, 1)],
            inserts: vec![(2, 7), (3, 4)],
        };
        let batch = d.to_batch(5);
        assert_eq!(batch.node_additions, vec![0; 3]);
        assert_eq!(batch.edge_removals, d.deletes);
        assert_eq!(batch.edge_additions, vec![(2, 7, 0), (3, 4, 0)]);
        assert!(d.to_batch(9).node_additions.is_empty());
        assert!(EdgeDelta::new().to_batch(0).is_empty());
    }
}
