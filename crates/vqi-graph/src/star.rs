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
//!
//! The same centre test bounds the coverage of any pattern: every
//! pattern node with its neighbours is a star, and an embedding must
//! map it onto a node that can host that star. [`CoverageBounds`] is
//! the one network-wide decision: for many patterns at once, in
//! O(V + E) plus a scan of each pattern's edge types, it finds the
//! edges that can fit a pattern edge between two such hosts. That is
//! a superset of the coverage, empty when no embedding exists, and
//! equal to the coverage for a star, where a VF2 enumeration visits up
//! to `degree^leaves` embeddings per hub.
//!
//! Whether `x` is a centre reads only `x`'s label and row. So after an
//! edit, only the edited endpoints' centre flags can change, and only
//! the edges incident to them can change coverage. [`Star::is_centre`]
//! and [`Star::covers`] decide one node and one edge: the patch the
//! TATTOO network maintainer applies per batch.
//!
//! [`Star::of`] refuses patterns carrying [`WILDCARD_LABEL`]; under
//! wildcard matching a network carrying it needs the search too, which
//! [`CoverageBounds`] checks and a caller of [`Star::of`] must.

use crate::graph::{EdgeId, Graph, Label, NodeId, WILDCARD_LABEL};
use crate::index::GraphIndex;
use crate::par;
use std::collections::HashMap;

/// The most leaves of one type a [`Star`] may have: [`CoverageBounds`]
/// tallies neighbours in `u8` counts that saturate here, and a tally of
/// `u8::MAX` still proves at least that many neighbours.
const MAX_LEAVES_OF_A_TYPE: u32 = u8::MAX as u32;

/// An exact-label star pattern: its centre label and its leaf types
/// with their multiplicities.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
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
    /// edge, is not a star, carries a wildcard label, or has more than
    /// 255 leaves of one type (more than [`CoverageBounds`] counts).
    pub fn of(pattern: &Graph) -> Option<Star> {
        let size = pattern.edge_count();
        if size == 0 || pattern.node_count() != size + 1 || carries_wildcard(pattern) {
            return None;
        }
        // a node meeting all `size` edges has `size` distinct neighbours,
        // which with it are every node: the pattern is a star around it
        let centre = pattern.nodes().find(|&v| pattern.degree(v) == size)?;
        let star = Star::around(pattern, centre);
        let countable = star.leaves.iter().all(|&(_, n)| n <= MAX_LEAVES_OF_A_TYPE);
        countable.then_some(star)
    }

    /// The star of node `a` of `pattern`: `a` with its neighbours.
    fn around(pattern: &Graph, a: NodeId) -> Star {
        let mut types: Vec<(Label, Label)> = pattern
            .neighbors(a)
            .map(|(y, e)| (pattern.edge_label(e), pattern.node_label(y)))
            .collect();
        types.sort_unstable();
        let size = types.len();
        let mut leaves: Vec<((Label, Label), u32)> = Vec::new();
        for t in types {
            match leaves.last_mut() {
                Some((last, n)) if *last == t => *n += 1,
                _ => leaves.push((t, 1)),
            }
        }
        Star {
            centre: pattern.node_label(a),
            leaves,
            size,
        }
    }

    /// The index of leaf type `(edge_label, node_label)`, if the star
    /// has one.
    fn leaf_type(&self, edge_label: Label, node_label: Label) -> Option<usize> {
        // a star has few leaf types: a scan beats a binary search
        self.leaves
            .iter()
            .position(|&(t, _)| t == (edge_label, node_label))
    }

    /// True if `x` can host the centre of an embedding: it carries the
    /// centre label and its row holds every leaf, type by type.
    pub fn is_centre(&self, g: &Graph, x: NodeId) -> bool {
        let row = g.neighbor_slice(x);
        if g.node_label(x) != self.centre || row.len() < self.size {
            return false;
        }
        let mut need: Vec<u32> = self.leaves.iter().map(|&(_, n)| n).collect();
        let mut missing = self.size;
        for &(y, e) in row {
            if let Some(i) = self.leaf_type(g.edge_label(e), g.node_label(y)) {
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

    /// True if some embedding uses edge `e`, given which nodes are
    /// centres (`centre`, as [`is_centre`](Self::is_centre) decides it
    /// on `g`).
    ///
    /// ```
    /// use vqi_graph::generate::{chain, star};
    /// use vqi_graph::star::Star;
    ///
    /// // a 3-leaf star fits only at the hub of a 4-leaf star
    /// let s = Star::of(&star(3, 1, 0)).unwrap();
    /// let hub = star(4, 1, 0);
    /// assert!(hub.edges().all(|e| s.covers(&hub, e, |x| s.is_centre(&hub, x))));
    /// let path = chain(5, 1, 0);
    /// assert!(!path.edges().any(|e| s.covers(&path, e, |x| s.is_centre(&path, x))));
    /// ```
    pub fn covers(&self, g: &Graph, e: EdgeId, centre: impl Fn(NodeId) -> bool) -> bool {
        let (u, v) = g.endpoints(e);
        let l = g.edge_label(e);
        (centre(u) && self.leaf_type(l, g.node_label(v)).is_some())
            || (centre(v) && self.leaf_type(l, g.node_label(u)).is_some())
    }
}

/// Star-consistency bounds on the edge coverage of many patterns over
/// one network.
///
/// Each node `a` of a pattern forms, with its neighbours, a star: *the
/// star of `a`*. An embedding maps `a` to a node that hosts this star
/// (see the module docs), since `a`'s neighbours map to distinct
/// neighbours of matching types. So an edge `(x, y)` can be the image
/// of pattern edge `(a, b)` only if the edge labels match, `x` hosts
/// the star of `a` and `y` the star of `b`, or the other way round. A
/// pattern's **bound** is the set of network edges that fit one of its
/// edges this way:
///
/// * it holds every edge some embedding uses;
/// * for a pattern [`Star::of`] accepts it *is* the coverage: where the
///   centre end hosts the whole star, the leaf end hosts its one-edge
///   star. [`CoverageBounds::is_exact`] says so, and no other pattern's
///   bound claims to be exact;
/// * a pattern with a node that no network node hosts has no
///   embedding, and its bound is empty.
///
/// Building the bounds tallies every node's neighbours once, by the
/// types the patterns' stars use, and derives the host set of each
/// distinct star from the tallies. The tallies are `u8` counts that
/// saturate at 255, so a star asking for more leaves of one type is
/// tested for 255 of them: its hosts, and the bound, only grow, and
/// [`Star::of`] refuses such a star. A pattern's bound then
/// scans only the network edges of its own edge types. With a wildcard
/// label in the network or the pattern, labels no longer decide which
/// nodes host a star, and the pattern's bound falls back to every edge.
#[derive(Debug)]
pub struct CoverageBounds {
    edges: usize,
    /// Per distinct star, its hosts as a bitmap (node `x` is bit
    /// `x % 64` of word `x / 64`).
    hosts: Vec<Vec<u64>>,
    /// Per pattern, its distinct edge classes `(bucket, star, star)`;
    /// `None` when its bound is every edge.
    classes: Vec<Option<Vec<(usize, usize, usize)>>>,
    /// Per pattern, whether its bound is its coverage.
    exact: Vec<bool>,
    /// The edges with their endpoints, ascending, of each edge type
    /// ([`edge_type`]) some class asks for.
    buckets: Vec<Vec<(EdgeId, NodeId, NodeId)>>,
}

impl CoverageBounds {
    /// The bounds of `patterns` over `g`; `idx` must be built from this
    /// `g`.
    pub fn new<'p>(
        g: &Graph,
        idx: &GraphIndex,
        patterns: impl IntoIterator<Item = &'p Graph>,
    ) -> Self {
        let wild_network = idx.fingerprint().has_wildcard();
        let mut ids: HashMap<Star, usize> = HashMap::new();
        let mut stars: Vec<Star> = Vec::new();
        // per pattern: the star of every node, and its edge classes
        // `(edge type, star, star)`
        type Shape = (Vec<usize>, Vec<((Label, Label, Label), usize, usize)>);
        let mut shapes: Vec<Option<Shape>> = Vec::new();
        let mut exact = Vec::new();
        for p in patterns {
            exact.push(!wild_network && Star::of(p).is_some());
            if wild_network || carries_wildcard(p) {
                shapes.push(None);
                continue;
            }
            let star_of: Vec<usize> = p
                .nodes()
                .map(|a| {
                    let star = Star::around(p, a);
                    *ids.entry(star.clone()).or_insert_with(|| {
                        stars.push(star);
                        stars.len() - 1
                    })
                })
                .collect();
            let mut classes: Vec<_> = p
                .edges()
                .map(|e| {
                    let (a, b) = p.endpoints(e);
                    let (sa, sb) = (star_of[a.index()], star_of[b.index()]);
                    let ty = edge_type(p.edge_label(e), p.node_label(a), p.node_label(b));
                    (ty, sa.min(sb), sa.max(sb))
                })
                .collect();
            classes.sort_unstable();
            classes.dedup();
            shapes.push(Some((star_of, classes)));
        }

        // every node's tally of the leaf types some star asks for
        let mut leaf_types: Vec<(Label, Label)> = stars
            .iter()
            .flat_map(|s| s.leaves.iter().map(|&(t, _)| t))
            .collect();
        leaf_types.sort_unstable();
        leaf_types.dedup();
        let width = leaf_types.len();
        let tallies: Vec<u8> = par::map_chunks(g.node_count(), |range| {
            let mut out = vec![0u8; range.len() * width];
            for (row, x) in range.enumerate() {
                let tally = &mut out[row * width..(row + 1) * width];
                for &(y, e) in g.neighbor_slice(NodeId(x as u32)) {
                    let ty = (g.edge_label(e), g.node_label(y));
                    if let Ok(t) = leaf_types.binary_search(&ty) {
                        tally[t] = tally[t].saturating_add(1);
                    }
                }
            }
            out
        })
        .concat();

        let hosts: Vec<Vec<u64>> = par::map(&stars, |s| {
            let need: Vec<(usize, u8)> = s
                .leaves
                .iter()
                .map(|&(t, n)| {
                    let t = leaf_types
                        .binary_search(&t)
                        .expect("every leaf type is tallied");
                    (t, n.min(MAX_LEAVES_OF_A_TYPE) as u8)
                })
                .collect();
            let mut bits = vec![0u64; g.node_count().div_ceil(64)];
            for &x in idx.nodes_with_label(s.centre) {
                let tally = &tallies[x.index() * width..(x.index() + 1) * width];
                // no early exit: which nodes host is unpredictable
                let hosted = need.iter().fold(true, |ok, &(t, n)| ok & (tally[t] >= n));
                bits[x.index() / 64] |= u64::from(hosted) << (x.index() % 64);
            }
            bits
        });

        // a pattern with an unhostable node has no embedding, and needs
        // no edge scanned
        let hostless = |s: &usize| hosts[*s].iter().all(|&w| w == 0);
        let shapes: Vec<Option<_>> = shapes
            .into_iter()
            .map(|shape| {
                let (star_of, classes) = shape?;
                Some(if star_of.iter().any(hostless) {
                    Vec::new()
                } else {
                    classes
                })
            })
            .collect();
        let mut edge_types: Vec<(Label, Label, Label)> = shapes
            .iter()
            .flatten()
            .flatten()
            .map(|&(t, _, _)| t)
            .collect();
        edge_types.sort_unstable();
        edge_types.dedup();
        let mut buckets = vec![Vec::new(); edge_types.len()];
        for e in g.edges() {
            let (u, v) = g.endpoints(e);
            let ty = edge_type(g.edge_label(e), g.node_label(u), g.node_label(v));
            if let Ok(t) = edge_types.binary_search(&ty) {
                buckets[t].push((e, u, v));
            }
        }
        let bucket = |t| {
            edge_types
                .binary_search(&t)
                .expect("every class type is bucketed")
        };
        let classes = shapes
            .into_iter()
            .map(|shape| {
                let classes = shape?.into_iter().map(|(t, a, b)| (bucket(t), a, b));
                Some(classes.collect())
            })
            .collect();
        CoverageBounds {
            edges: g.edge_count(),
            hosts,
            classes,
            exact,
            buckets,
        }
    }

    /// True if the bound of pattern `k` is its exact coverage: the
    /// pattern is one [`Star::of`] accepts and the network carries no
    /// wildcard label.
    pub fn is_exact(&self, k: usize) -> bool {
        self.exact[k]
    }

    /// The bound of pattern `k` (in the order [`CoverageBounds::new`]
    /// got the patterns) as a bitmap over edge ids: edge `e` is bit
    /// `e % 64` of word `e / 64`, and no bit at or past the edge count
    /// is set.
    pub fn bound_words(&self, k: usize) -> Vec<u64> {
        let mut words = vec![0u64; self.edges.div_ceil(64)];
        let Some(classes) = &self.classes[k] else {
            for e in 0..self.edges {
                words[e / 64] |= 1 << (e % 64);
            }
            return words;
        };
        let bit = |bits: &[u64], x: NodeId| bits[x.index() / 64] >> (x.index() % 64) & 1;
        for &(t, a, b) in classes {
            let (ha, hb) = (&self.hosts[a], &self.hosts[b]);
            // a host set holds only nodes of its star's centre label, so
            // the orientation the labels rule out reads zero
            for &(e, x, y) in &self.buckets[t] {
                let fit = (bit(ha, x) & bit(hb, y)) | (bit(hb, x) & bit(ha, y));
                words[e.index() / 64] |= fit << (e.index() % 64);
            }
        }
        words
    }
}

/// True if a node or an edge of `g` carries [`WILDCARD_LABEL`].
fn carries_wildcard(g: &Graph) -> bool {
    g.nodes().any(|v| g.node_label(v) == WILDCARD_LABEL)
        || g.edges().any(|e| g.edge_label(e) == WILDCARD_LABEL)
}

/// The orientation-free type of an edge labelled `el` between nodes
/// labelled `a` and `b`.
fn edge_type(el: Label, a: Label, b: Label) -> (Label, Label, Label) {
    (el, a.min(b), a.max(b))
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
        // so does a type with more leaves than the bounds' tallies count
        assert!(Star::of(&star(255, 1, 0)).is_some());
        assert!(Star::of(&star(256, 1, 0)).is_none());
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
        let centres: Vec<NodeId> = g.nodes().filter(|&x| s.is_centre(&g, x)).collect();
        assert_eq!(centres, vec![NodeId(0)]);
        // the hub's three edges are covered, the spur 3-4 is not
        assert_eq!(covered(&s, &g), vec![0, 1, 2]);
        // three label-2 leaves are more than the hub holds
        let three = GraphBuilder::new()
            .nodes(&[1, 2, 2, 2])
            .edge(0, 1, 0)
            .edge(0, 2, 0)
            .edge(0, 3, 0)
            .build();
        let s3 = Star::of(&three).unwrap();
        assert!(!s3.is_centre(&g, NodeId(0)));
        assert!(covered(&s3, &g).is_empty());
    }

    /// The edges of `g` that `s` covers by the per-edge rule, as ids.
    fn covered(s: &Star, g: &Graph) -> Vec<u32> {
        g.edges()
            .filter(|&e| s.covers(g, e, |x| s.is_centre(g, x)))
            .map(|e| e.0)
            .collect()
    }

    /// The bound of each of `patterns` over `g`, as edge ids.
    fn bounds(g: &Graph, patterns: &[&Graph]) -> Vec<Vec<u32>> {
        let b = CoverageBounds::new(g, &GraphIndex::build(g), patterns.iter().copied());
        (0..patterns.len())
            .map(|k| {
                let words = b.bound_words(k);
                (0..g.edge_count() as u32)
                    .filter(|&e| words[e as usize / 64] >> (e % 64) & 1 == 1)
                    .collect()
            })
            .collect()
    }

    #[test]
    fn bounds_keep_the_edges_between_hosts() {
        // a triangle 0-1-2 (label 1) with a pendant path 2-3-4 and a
        // 3-leaf hub 5 (label 2) on node 4
        let g = GraphBuilder::new()
            .nodes(&[1, 1, 1, 1, 1, 2, 1, 1])
            .edge(0, 1, 0)
            .edge(1, 2, 0)
            .edge(2, 0, 0)
            .edge(2, 3, 0)
            .edge(3, 4, 0)
            .edge(4, 5, 0)
            .edge(5, 6, 0)
            .edge(5, 7, 0)
            .build();
        let hub = GraphBuilder::new()
            .nodes(&[2, 1, 1, 1])
            .edge(0, 1, 0)
            .edge(0, 2, 0)
            .edge(0, 3, 0)
            .build();
        let (tri, path, absent) = (cycle(3, 1, 0), chain(4, 1, 0), chain(3, 9, 0));
        let got = bounds(&g, &[&hub, &tri, &path, &absent]);
        // a star's bound is its coverage
        assert_eq!(got[0], covered(&Star::of(&hub).unwrap(), &g));
        assert_eq!(got[0], vec![5, 6, 7]);
        // every triangle node needs two label-1 neighbours over label 0:
        // nodes 0..=3 host it (3 through 2 and 4), so the spur 2-3 fits
        // although no triangle uses it
        assert_eq!(got[1], vec![0, 1, 2, 3]);
        // the 3-path's middle nodes need two label-1 neighbours, its ends
        // one: every label-1 edge fits
        assert_eq!(got[2], vec![0, 1, 2, 3, 4]);
        // nothing hosts a label-9 node
        assert!(got[3].is_empty());
    }

    #[test]
    fn wildcards_widen_a_bound_to_every_edge() {
        let g = chain(5, 1, 0);
        let mut wild_pattern = chain(3, 1, 0);
        wild_pattern.set_node_label(NodeId(0), WILDCARD_LABEL);
        let got = bounds(&g, &[&wild_pattern, &chain(3, 1, 0)]);
        assert_eq!(got[0], vec![0, 1, 2, 3]);
        assert_eq!(got[1], vec![0, 1, 2, 3]);
        // a wildcard in the network widens even a label no pattern has
        let mut wild_net = chain(5, 1, 0);
        wild_net.set_edge_label(EdgeId(0), WILDCARD_LABEL);
        assert_eq!(bounds(&wild_net, &[&chain(2, 9, 0)])[0], vec![0, 1, 2, 3]);
        // an edge count off the word size masks the tail
        let long = chain(70, 1, 0);
        let b = CoverageBounds::new(&wild_net, &GraphIndex::build(&wild_net), [&long]);
        assert_eq!(b.bound_words(0), vec![0b1111]);
        assert!(!b.is_exact(0));
    }
}
