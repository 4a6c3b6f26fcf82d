//! Exact edge coverage of star patterns, in closed form.
//!
//! A *star* is a connected tree whose edges all meet one centre node;
//! every 1- and 2-edge pattern is one. Which edges of a network some
//! embedding of a star uses needs no search. With exact labels, edge
//! `(x, y)` is covered iff, in one orientation:
//!
//! * `x` is a **centre**: it carries the star's centre label and, for
//!   every leaf type `(edge label, node label)`, has at least as many
//!   neighbours of that type as the star has leaves of it;
//! * `(label(x, y), label(y))` is a leaf type.
//!
//! Given a centre, `y` takes a leaf of its own type and the remaining
//! leaves are filled from the other neighbours; a neighbour has exactly
//! one type, and distinct neighbours are distinct nodes. Every star
//! edge meets the centre, so no embedding covers `(x, y)` otherwise.
//! Coverage therefore costs O(V + E) per star, where a VF2 enumeration
//! visits up to `degree^leaves` embeddings per hub.
//!
//! Whether `x` is a centre reads only `x`'s label and row. So after an
//! edit, only the edited endpoints' centre flags can change, and only
//! the edges incident to them can change coverage: the patch the TATTOO
//! network maintainer applies per batch.
//!
//! [`Star::of`] refuses patterns carrying
//! [`WILDCARD_LABEL`]; under wildcard matching a network carrying it
//! needs the search too, which is the caller's check.

use crate::graph::{EdgeId, Graph, Label, NodeId, WILDCARD_LABEL};

/// An exact-label star pattern: its centre label and its leaf types
/// with their multiplicities.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Star {
    centre: Label,
    /// `((edge label, node label), leaves of that type)`, ascending by
    /// type.
    leaves: Vec<((Label, Label), u32)>,
    /// Total leaf count (the pattern's edge count).
    size: usize,
}

impl Star {
    /// The star shape of `pattern`, or `None` when `pattern` has no
    /// edge, is not a star, or carries a wildcard label.
    pub fn of(pattern: &Graph) -> Option<Star> {
        let size = pattern.edge_count();
        if size == 0 || pattern.node_count() != size + 1 {
            return None;
        }
        // a node meeting all `size` edges has `size` distinct neighbours,
        // which with it are every node: the pattern is a star around it
        let centre = pattern.nodes().find(|&v| pattern.degree(v) == size)?;
        let mut types: Vec<(Label, Label)> = pattern
            .neighbors(centre)
            .map(|(y, e)| (pattern.edge_label(e), pattern.node_label(y)))
            .collect();
        let centre_label = pattern.node_label(centre);
        if centre_label == WILDCARD_LABEL
            || types
                .iter()
                .any(|&(el, nl)| el == WILDCARD_LABEL || nl == WILDCARD_LABEL)
        {
            return None;
        }
        types.sort_unstable();
        let mut leaves: Vec<((Label, Label), u32)> = Vec::new();
        for t in types {
            match leaves.last_mut() {
                Some((last, n)) if *last == t => *n += 1,
                _ => leaves.push((t, 1)),
            }
        }
        Some(Star {
            centre: centre_label,
            leaves,
            size,
        })
    }

    /// The index of leaf type `(edge_label, node_label)`, if the star
    /// has one.
    fn leaf_type(&self, edge_label: Label, node_label: Label) -> Option<usize> {
        // a star has few leaf types: a scan beats a binary search
        self.leaves
            .iter()
            .position(|&(t, _)| t == (edge_label, node_label))
    }

    /// True if a node labelled `label` whose row has the neighbour
    /// types `row` can host the centre; `need` is a tally buffer.
    fn hosts(
        &self,
        label: Label,
        row: impl ExactSizeIterator<Item = (Label, Label)>,
        need: &mut Vec<u32>,
    ) -> bool {
        if label != self.centre || row.len() < self.size {
            return false;
        }
        need.clear();
        need.extend(self.leaves.iter().map(|&(_, n)| n));
        let mut missing = self.size;
        for (el, nl) in row {
            if let Some(i) = self.leaf_type(el, nl) {
                if need[i] > 0 {
                    need[i] -= 1;
                    missing -= 1;
                    if missing == 0 {
                        return true;
                    }
                }
            }
        }
        false
    }

    /// True if `x` can host the centre of an embedding: it carries the
    /// centre label and its row holds every leaf, type by type.
    pub fn is_centre(&self, g: &Graph, x: NodeId) -> bool {
        let row = g
            .neighbor_slice(x)
            .iter()
            .map(|&(y, e)| (g.edge_label(e), g.node_label(y)));
        self.hosts(g.node_label(x), row, &mut Vec::new())
    }

    /// The nodes of `g` that can host the centre, ascending; `rows`
    /// must be [`RowTypes::of`] this `g`.
    pub fn centres<'a>(
        &'a self,
        g: &'a Graph,
        rows: &'a RowTypes,
    ) -> impl Iterator<Item = NodeId> + 'a {
        let mut need = Vec::with_capacity(self.leaves.len());
        g.nodes()
            .filter(move |&x| self.hosts(g.node_label(x), rows.row(x).iter().copied(), &mut need))
    }

    /// True if some embedding uses edge `e`, given which nodes are
    /// centres (`centre`, as [`is_centre`](Self::is_centre) decides it
    /// on `g`).
    pub fn covers(&self, g: &Graph, e: EdgeId, centre: impl Fn(NodeId) -> bool) -> bool {
        let (u, v) = g.endpoints(e);
        let l = g.edge_label(e);
        (centre(u) && self.leaf_type(l, g.node_label(v)).is_some())
            || (centre(v) && self.leaf_type(l, g.node_label(u)).is_some())
    }

    /// The edge ids of `g` used by some embedding, ascending: the exact
    /// answer an uncapped [`PatternPlan::covered_edges`] gives. `rows`
    /// must be [`RowTypes::of`] this `g`.
    ///
    /// [`PatternPlan::covered_edges`]: crate::iso::PatternPlan::covered_edges
    ///
    /// ```
    /// use vqi_graph::generate::{chain, star};
    /// use vqi_graph::star::{RowTypes, Star};
    ///
    /// // a 3-leaf star fits only at the hub of a 4-leaf star
    /// let s = Star::of(&star(3, 1, 0)).unwrap();
    /// let hub = star(4, 1, 0);
    /// assert_eq!(s.covered_edges(&hub, &RowTypes::of(&hub)).len(), 4);
    /// let path = chain(5, 1, 0);
    /// assert!(s.covered_edges(&path, &RowTypes::of(&path)).is_empty());
    /// ```
    pub fn covered_edges(&self, g: &Graph, rows: &RowTypes) -> Vec<EdgeId> {
        // only a centre's row can hold covered edges
        let mut covered = Vec::new();
        for x in self.centres(g, rows) {
            for (&(_, e), &(el, nl)) in g.neighbor_slice(x).iter().zip(rows.row(x)) {
                if self.leaf_type(el, nl).is_some() {
                    covered.push(e);
                }
            }
        }
        covered.sort_unstable();
        covered.dedup();
        covered
    }
}

/// The neighbour type `(edge label, node label)` of every adjacency
/// entry of one graph, row by row in [`Graph::neighbor_slice`] order.
/// Built once and shared by every star matched against the graph, so
/// a centre test scans a packed row instead of looking up each
/// neighbour's edge and node labels.
#[derive(Debug, Clone)]
pub struct RowTypes {
    /// Row `x` is `types[start[x]..start[x + 1]]`.
    start: Vec<usize>,
    types: Vec<(Label, Label)>,
}

impl RowTypes {
    /// The row types of `g`.
    pub fn of(g: &Graph) -> RowTypes {
        let mut start = Vec::with_capacity(g.node_count() + 1);
        let mut types = Vec::with_capacity(2 * g.edge_count());
        start.push(0);
        for x in g.nodes() {
            types.extend(
                g.neighbor_slice(x)
                    .iter()
                    .map(|&(y, e)| (g.edge_label(e), g.node_label(y))),
            );
            start.push(types.len());
        }
        RowTypes { start, types }
    }

    fn row(&self, x: NodeId) -> &[(Label, Label)] {
        &self.types[self.start[x.index()]..self.start[x.index() + 1]]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::{chain, cycle, star};
    use crate::graph::GraphBuilder;

    #[test]
    fn stars_are_recognised_and_others_refused() {
        // 1- and 2-edge patterns are stars; the 2-chain's centre is its
        // middle node
        assert!(Star::of(&chain(2, 1, 0)).is_some());
        let mid = GraphBuilder::new()
            .nodes(&[3, 4, 5])
            .edge(0, 1, 7)
            .edge(1, 2, 8)
            .build();
        let s = Star::of(&mid).unwrap();
        assert_eq!(s.centre, 4);
        assert_eq!(s.leaves, vec![((7, 3), 1), ((8, 5), 1)]);
        let s = Star::of(&star(4, 2, 1)).unwrap();
        assert_eq!((s.centre, s.size), (2, 4));
        assert_eq!(s.leaves, vec![((1, 2), 4)]);
        for not_star in [chain(4, 1, 0), cycle(3, 1, 0), chain(1, 1, 0), Graph::new()] {
            assert!(Star::of(&not_star).is_none());
        }
        // a wildcard anywhere sends the pattern to the search
        assert!(Star::of(&star(2, WILDCARD_LABEL, 0)).is_none());
        assert!(Star::of(&star(2, 1, WILDCARD_LABEL)).is_none());
    }

    #[test]
    fn centres_need_every_leaf_type() {
        // hub 0 (label 1) with two label-2 leaves over edge label 0 and
        // one label-3 leaf over edge label 5
        let g = GraphBuilder::new()
            .nodes(&[1, 2, 2, 3, 1])
            .edge(0, 1, 0)
            .edge(0, 2, 0)
            .edge(0, 3, 5)
            .edge(3, 4, 5)
            .build();
        let want = GraphBuilder::new()
            .nodes(&[1, 2, 2, 3])
            .edge(0, 1, 0)
            .edge(0, 2, 0)
            .edge(0, 3, 5)
            .build();
        let s = Star::of(&want).unwrap();
        let rows = RowTypes::of(&g);
        assert_eq!(s.centres(&g, &rows).collect::<Vec<_>>(), vec![NodeId(0)]);
        assert!(s.is_centre(&g, NodeId(0)) && !s.is_centre(&g, NodeId(4)));
        // the hub's three edges are covered, the spur 3-4 is not
        let got: Vec<u32> = s.covered_edges(&g, &rows).iter().map(|e| e.0).collect();
        assert_eq!(got, vec![0, 1, 2]);
        // three label-2 leaves are more than the hub holds
        let three = GraphBuilder::new()
            .nodes(&[1, 2, 2, 2])
            .edge(0, 1, 0)
            .edge(0, 2, 0)
            .edge(0, 3, 0)
            .build();
        let s3 = Star::of(&three).unwrap();
        assert!(!s3.is_centre(&g, NodeId(0)));
        assert!(s3.covered_edges(&g, &rows).is_empty());
    }
}
