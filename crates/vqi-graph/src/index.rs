//! Per-graph matching indexes: label-partitioned candidate lists,
//! per-node invariant signatures, and graph-level fingerprints.
//!
//! The VF2 and McGregor kernels in [`iso`](crate::iso) and
//! [`mcs`](crate::mcs) are the hottest code in every pipeline. A
//! [`GraphIndex`] adds to one [`Graph`] what those searches want and
//! the graph lacks (adjacency rows they read from the graph itself):
//!
//! * **label buckets** — node ids grouped by label (id-ascending within
//!   a bucket), so candidate enumeration for an unanchored pattern node
//!   touches only same-label nodes;
//! * **node signatures** — `(label, degree, neighborhood bloom)` per
//!   node; a pattern node can only map onto a target node whose
//!   signature dominates it, which prunes candidates before the
//!   backtracking search attempts a map.
//!
//! The embedded [`Fingerprint`] additionally supports two *graph-level*
//! constant-time checks: [`subgraph_feasible`] (a necessary condition
//! for any subgraph embedding to exist) and [`mcs_edge_upper_bound`] (an
//! upper bound on the common edge count of two graphs, used to
//! bound-and-skip MCS similarity searches).
//!
//! Every check here is a *necessary* condition only — the index never
//! changes an answer, it only lets the kernels refuse doomed work early.

use crate::delta::GraphEdit;
use crate::graph::{EdgeId, Graph, Label, NodeId, WILDCARD_LABEL};
use rand::splitmix64;

/// Compresses a sorted label sequence into `(label, count)` runs.
fn histogram(mut labels: Vec<Label>) -> Vec<(Label, u32)> {
    labels.sort_unstable();
    let mut out: Vec<(Label, u32)> = Vec::new();
    for l in labels {
        match out.last_mut() {
            Some((last, c)) if *last == l => *c += 1,
            _ => out.push((l, 1)),
        }
    }
    out
}

/// Adds `by` (which may be negative) to the count of `key` in the
/// label-sorted runs `runs`, inserting or dropping the run as needed.
fn shift_run<K: Ord>(runs: &mut Vec<(K, u32)>, key: K, by: i64) {
    match runs.binary_search_by(|(k, _)| k.cmp(&key)) {
        Ok(i) => match runs[i].1 as i64 + by {
            0 => {
                runs.remove(i);
            }
            c => runs[i].1 = c as u32,
        },
        Err(i) => runs.insert(i, (key, by as u32)),
    }
}

/// Replaces one occurrence of `from` in the descending sequence `desc`
/// by `to`, keeping it descending: only the entries between the two
/// values' positions move.
fn move_degree(desc: &mut [u32], from: u32, to: u32) {
    if to > from {
        // first occurrence of `from`; `to` goes after every entry >= to
        let i = desc.partition_point(|&d| d > from);
        let j = desc.partition_point(|&d| d >= to);
        desc[j..=i].rotate_right(1);
        desc[j] = to;
    } else if to < from {
        // last occurrence of `from`; `to` goes after every entry > to
        let i = desc.partition_point(|&d| d >= from) - 1;
        let k = desc.partition_point(|&d| d > to);
        desc[i..k].rotate_left(1);
        desc[k - 1] = to;
    }
}

/// True if histogram `small` is a sub-multiset of histogram `big`
/// (both sorted by key).
fn sub_histogram<K: Ord>(small: &[(K, u32)], big: &[(K, u32)]) -> bool {
    let mut bi = 0;
    for (k, c) in small {
        while bi < big.len() && big[bi].0 < *k {
            bi += 1;
        }
        if bi >= big.len() || big[bi].0 != *k || big[bi].1 < *c {
            return false;
        }
    }
    true
}

/// Graph-level summary supporting constant-time infeasibility checks.
///
/// Built once per graph (inside [`GraphIndex::build`] or standalone via
/// [`Fingerprint::of`]); all comparisons between two fingerprints are
/// linear in the number of distinct labels / the node count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fingerprint {
    nodes: u32,
    edges: u32,
    /// `(label, count)` runs, sorted by label.
    node_hist: Vec<(Label, u32)>,
    /// `(label, count)` runs, sorted by label.
    edge_hist: Vec<(Label, u32)>,
    /// Node degrees, descending.
    degrees_desc: Vec<u32>,
    /// `((edge label, min endpoint label, max endpoint label), count)`
    /// runs, sorted by type.
    edge_types: Vec<((Label, Label, Label), u32)>,
    /// Any node or edge carries [`WILDCARD_LABEL`].
    has_wildcard: bool,
}

impl Fingerprint {
    /// Computes the fingerprint of `g`.
    pub fn of(g: &Graph) -> Fingerprint {
        let node_hist = histogram(g.node_label_multiset());
        let edge_hist = histogram(g.edge_label_multiset());
        let mut degrees_desc: Vec<u32> = g.nodes().map(|v| g.degree(v) as u32).collect();
        degrees_desc.sort_unstable_by(|a, b| b.cmp(a));
        let mut types: Vec<(Label, Label, Label)> = g
            .edges()
            .map(|e| {
                let (u, v) = g.endpoints(e);
                let (lu, lv) = (g.node_label(u), g.node_label(v));
                (g.edge_label(e), lu.min(lv), lu.max(lv))
            })
            .collect();
        types.sort_unstable();
        let mut edge_types: Vec<((Label, Label, Label), u32)> = Vec::new();
        for t in types {
            match edge_types.last_mut() {
                Some((last, c)) if *last == t => *c += 1,
                _ => edge_types.push((t, 1)),
            }
        }
        let has_wildcard = node_hist.iter().any(|&(l, _)| l == WILDCARD_LABEL)
            || edge_hist.iter().any(|&(l, _)| l == WILDCARD_LABEL);
        Fingerprint {
            nodes: g.node_count() as u32,
            edges: g.edge_count() as u32,
            node_hist,
            edge_hist,
            degrees_desc,
            edge_types,
            has_wildcard,
        }
    }

    /// Moves the fingerprint of the pre-edit graph to that of `g`, the
    /// graph `edit` produced: the histogram runs by the removed and
    /// added edges and appended nodes, the degree sequence by the
    /// touched nodes' degree changes.
    fn patch(&mut self, g: &Graph, edit: &GraphEdit) {
        let edge_type = |u: NodeId, v: NodeId, l: Label| {
            let (lu, lv) = (g.node_label(u), g.node_label(v));
            (l, lu.min(lv), lu.max(lv))
        };
        for v in edit.old_node_count..g.node_count() {
            shift_run(&mut self.node_hist, g.node_label(NodeId(v as u32)), 1);
        }
        for &(u, v, l) in &edit.removed {
            shift_run(&mut self.edge_hist, l, -1);
            shift_run(&mut self.edge_types, edge_type(u, v, l), -1);
        }
        for e in (g.edge_count() - edit.delta.inserts.len())..g.edge_count() {
            let e = EdgeId(e as u32);
            let (u, v) = g.endpoints(e);
            shift_run(&mut self.edge_hist, g.edge_label(e), 1);
            shift_run(&mut self.edge_types, edge_type(u, v, g.edge_label(e)), 1);
        }
        // appended nodes enter at degree 0, the tail of the sequence
        self.degrees_desc.resize(g.node_count(), 0);
        for &(v, before) in &edit.touched {
            move_degree(&mut self.degrees_desc, before, g.degree(v) as u32);
        }
        self.nodes = g.node_count() as u32;
        self.edges = g.edge_count() as u32;
        self.has_wildcard = self.node_hist.iter().any(|&(l, _)| l == WILDCARD_LABEL)
            || self.edge_hist.iter().any(|&(l, _)| l == WILDCARD_LABEL);
    }

    /// True if any node or edge label is [`WILDCARD_LABEL`].
    pub fn has_wildcard(&self) -> bool {
        self.has_wildcard
    }
}

/// Necessary condition for a (non-induced or induced) subgraph embedding
/// of `pattern` into `target` to exist: `false` means no embedding can
/// exist, `true` means "maybe".
///
/// Size and degree-sequence dominance are label-free, so they hold under
/// wildcard matching too. The sub-multiset checks on the node-label,
/// edge-label and edge-type histograms (an embedding maps each pattern
/// edge onto its own target edge of the same type) are only applied
/// when `wildcard` matching cannot fire (neither side carries a
/// wildcard label, or wildcards are disabled).
pub fn subgraph_feasible(pattern: &Fingerprint, target: &Fingerprint, wildcard: bool) -> bool {
    if pattern.nodes > target.nodes || pattern.edges > target.edges {
        return false;
    }
    // an embedding maps the i-th highest-degree pattern node onto a
    // target node of at least that degree, so sorted-descending degree
    // sequences must dominate position-wise
    for (pd, td) in pattern.degrees_desc.iter().zip(target.degrees_desc.iter()) {
        if pd > td {
            return false;
        }
    }
    if wildcard && (pattern.has_wildcard || target.has_wildcard) {
        return true;
    }
    sub_histogram(&pattern.node_hist, &target.node_hist)
        && sub_histogram(&pattern.edge_hist, &target.edge_hist)
        && sub_histogram(&pattern.edge_types, &target.edge_types)
}

/// Upper bound on `|E(mcs(a, b))|` from the edge-type histograms: a
/// common edge subgraph maps each shared edge onto an edge with the same
/// edge label *and* the same (unordered) endpoint-label pair, so the
/// common count per type is at most the minimum of the two sides.
///
/// MCS matching is always exact-label (wildcards are a cover-semantics
/// concept), so the bound is unconditionally sound.
pub fn mcs_edge_upper_bound(a: &Fingerprint, b: &Fingerprint) -> usize {
    let (mut ai, mut bi, mut bound) = (0usize, 0usize, 0usize);
    while ai < a.edge_types.len() && bi < b.edge_types.len() {
        let (ta, ca) = a.edge_types[ai];
        let (tb, cb) = b.edge_types[bi];
        match ta.cmp(&tb) {
            std::cmp::Ordering::Less => ai += 1,
            std::cmp::Ordering::Greater => bi += 1,
            std::cmp::Ordering::Equal => {
                bound += ca.min(cb) as usize;
                ai += 1;
                bi += 1;
            }
        }
    }
    bound
}

/// Per-node invariant signature. For an embedding mapping pattern node
/// `p` onto target node `t` (exact labels): `label` must be equal,
/// `degree(p) <= degree(t)`, and every neighborhood kind present at `p`
/// must be present at `t` — approximated by bloom-bit containment of
/// `nbr_bits`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeSig {
    /// The node's own label.
    pub label: Label,
    /// The node's degree.
    pub degree: u32,
    /// 64-bit bloom of the incident `(neighbor label, edge label)` kinds.
    pub nbr_bits: u64,
}

#[inline]
fn nbr_bit(nbr_label: Label, edge_label: Label) -> u64 {
    1u64 << (splitmix64(((nbr_label as u64) << 32) | edge_label as u64) & 63)
}

/// Computes the invariant signature of one node (used for pattern
/// graphs, which are too small and short-lived to index).
pub fn node_sig(g: &Graph, v: NodeId) -> NodeSig {
    let mut bits = 0u64;
    for (q, e) in g.neighbors(v) {
        bits |= nbr_bit(g.node_label(q), g.edge_label(e));
    }
    NodeSig {
        label: g.node_label(v),
        degree: g.degree(v) as u32,
        nbr_bits: bits,
    }
}

/// A compiled, immutable matching index over one [`Graph`].
///
/// Building is `O(n + m + n log n)`; the index holds no reference to the
/// graph, so the owner pairs them (an index is only valid for the exact
/// graph it was built from): a collection's graphs keep theirs in their
/// `vqi_core::repo::GraphEntry`, a network maintainer beside its
/// network, which follows each edit with [`GraphIndex::patch`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GraphIndex {
    /// Distinct node labels, sorted ascending.
    labels: Vec<Label>,
    /// Bucket `i` (for `labels[i]`) is `by_label[bucket_offsets[i]..bucket_offsets[i+1]]`.
    bucket_offsets: Vec<u32>,
    /// Node ids grouped by label, ascending within each bucket.
    by_label: Vec<NodeId>,
    /// Per-node invariant signatures.
    sigs: Vec<NodeSig>,
    /// Graph-level fingerprint.
    fingerprint: Fingerprint,
}

impl GraphIndex {
    /// Compiles `g` into an index. The label buckets come from the
    /// packer that also builds a [`crate::storage::CsrGraph`]'s
    /// (`storage::label_buckets`), so the two cannot drift apart.
    pub fn build(g: &Graph) -> GraphIndex {
        let node_labels: Vec<Label> = g.nodes().map(|v| g.node_label(v)).collect();
        let (labels, bucket_offsets, by_label) = crate::storage::label_buckets(&node_labels);
        let sigs = g.nodes().map(|v| node_sig(g, v)).collect();
        GraphIndex {
            labels,
            bucket_offsets,
            by_label,
            sigs,
            fingerprint: Fingerprint::of(g),
        }
    }

    /// Moves the index of the pre-edit graph to the index of `g`, the
    /// graph that [`Graph::apply_batch`] left with `edit`: equal to
    /// `GraphIndex::build(g)`, at a cost in the size of the edit plus
    /// the degree-sequence moves. Label buckets are rebuilt only when
    /// nodes were appended; signatures are recomputed only for touched
    /// and appended nodes.
    pub fn patch(&mut self, g: &Graph, edit: &GraphEdit) {
        debug_assert_eq!(self.node_count(), edit.old_node_count);
        if g.node_count() > edit.old_node_count {
            let node_labels: Vec<Label> = g.nodes().map(|v| g.node_label(v)).collect();
            (self.labels, self.bucket_offsets, self.by_label) =
                crate::storage::label_buckets(&node_labels);
            self.sigs.extend(
                (edit.old_node_count..g.node_count()).map(|v| node_sig(g, NodeId(v as u32))),
            );
        }
        for &(v, _) in &edit.touched {
            self.sigs[v.index()] = node_sig(g, v);
        }
        self.fingerprint.patch(g, edit);
    }

    /// Number of indexed nodes.
    pub fn node_count(&self) -> usize {
        self.sigs.len()
    }

    /// Invariant signature of node `v`.
    #[inline]
    pub fn sig(&self, v: NodeId) -> NodeSig {
        self.sigs[v.index()]
    }

    /// The graph-level fingerprint.
    pub fn fingerprint(&self) -> &Fingerprint {
        &self.fingerprint
    }

    /// Nodes carrying exactly label `l`, ascending by id.
    pub fn nodes_with_label(&self, l: Label) -> &[NodeId] {
        match self.labels.binary_search(&l) {
            Ok(i) => {
                let lo = self.bucket_offsets[i] as usize;
                let hi = self.bucket_offsets[i + 1] as usize;
                &self.by_label[lo..hi]
            }
            Err(_) => &[],
        }
    }

    /// Candidate target nodes for a pattern node labeled `label`,
    /// ascending by id — exactly the nodes the naive all-nodes scan
    /// would keep after the label-compatibility check. With `wildcard`
    /// matching, a wildcard pattern label admits every node, and any
    /// concrete label additionally admits wildcard-labeled target nodes.
    pub fn candidate_nodes(&self, label: Label, wildcard: bool) -> Vec<NodeId> {
        if !wildcard {
            return self.nodes_with_label(label).to_vec();
        }
        if label == WILDCARD_LABEL {
            return (0..self.node_count() as u32).map(NodeId).collect();
        }
        let bucket = self.nodes_with_label(label);
        let wild = self.nodes_with_label(WILDCARD_LABEL);
        if wild.is_empty() {
            return bucket.to_vec();
        }
        // merge two id-sorted buckets, preserving global id order
        let mut out = Vec::with_capacity(bucket.len() + wild.len());
        let (mut i, mut j) = (0, 0);
        while i < bucket.len() && j < wild.len() {
            if bucket[i].0 < wild[j].0 {
                out.push(bucket[i]);
                i += 1;
            } else {
                out.push(wild[j]);
                j += 1;
            }
        }
        out.extend_from_slice(&bucket[i..]);
        out.extend_from_slice(&wild[j..]);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::{assign_labels, chain, erdos_renyi};
    use crate::graph::GraphBuilder;
    use crate::iso::{is_subgraph_isomorphic, MatchOptions};
    use crate::mcs::mcs_edge_count;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    /// The bucket packing `build` inlined before it moved to the shared
    /// `crate::storage::label_buckets` — byte-for-byte the old code,
    /// kept as the reference the dedup must not drift from. Bucket
    /// labels, offsets and members.
    fn legacy_packing(g: &Graph) -> (Vec<Label>, Vec<u32>, Vec<NodeId>) {
        let mut pairs: Vec<(Label, NodeId)> = g.nodes().map(|v| (g.node_label(v), v)).collect();
        pairs.sort_unstable_by_key(|&(l, v)| (l, v.0));
        let mut labels = Vec::new();
        let mut bucket_offsets = vec![0u32];
        let mut by_label = Vec::with_capacity(g.node_count());
        for (l, v) in pairs {
            if labels.last() != Some(&l) {
                if !labels.is_empty() {
                    bucket_offsets.push(by_label.len() as u32);
                }
                labels.push(l);
            }
            by_label.push(v);
        }
        if !labels.is_empty() {
            bucket_offsets.push(by_label.len() as u32);
        }
        (labels, bucket_offsets, by_label)
    }

    #[test]
    fn shared_packers_reproduce_the_legacy_packing_and_candidate_order() {
        // the empty graph exercises the degenerate [0] bucket offsets
        // (bucket_offsets always has exactly labels.len() + 1 entries,
        // the invariant the VQICSR01 image layout relies on)
        for g in [Graph::new(), random_graph(80, 0.1, 3, 2, 41)] {
            let (labels, bucket_offsets, by_label) = legacy_packing(&g);
            let idx = GraphIndex::build(&g);
            assert_eq!(idx.labels, labels);
            assert_eq!(idx.bucket_offsets, bucket_offsets);
            assert_eq!(idx.by_label, by_label);
            // VF2 candidate order is a pure function of the buckets:
            // equal buckets ⇒ identical candidate enumeration order
            for l in labels.iter().copied().chain([WILDCARD_LABEL]) {
                for wildcard in [false, true] {
                    let got = idx.candidate_nodes(l, wildcard);
                    let want: Vec<NodeId> = if wildcard {
                        g.nodes()
                            .filter(|&v| {
                                let nl = g.node_label(v);
                                nl == l || l == WILDCARD_LABEL || nl == WILDCARD_LABEL
                            })
                            .collect()
                    } else {
                        g.nodes().filter(|&v| g.node_label(v) == l).collect()
                    };
                    assert_eq!(got, want, "label {l} wildcard {wildcard}");
                }
            }
        }
    }

    fn random_graph(n: usize, p: f64, nl: u32, el: u32, seed: u64) -> Graph {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut g = erdos_renyi(n, p, 0, &mut rng);
        assign_labels(&mut g, nl, el, &mut rng);
        g
    }

    #[test]
    fn fingerprint_is_stable_and_permutation_invariant() {
        for seed in 0..6u64 {
            let g = random_graph(14, 0.3, 3, 2, seed);
            let fp = Fingerprint::of(&g);
            // deterministic: same graph, same fingerprint
            assert_eq!(fp, Fingerprint::of(&g));
            // node-relabeling invariant (fingerprints are order-free summaries)
            let perm: Vec<usize> = (0..g.node_count()).rev().collect();
            let gp = g.permuted(&perm);
            assert_eq!(Fingerprint::of(&gp), fp);
            // a changed graph changes the fingerprint
            let mut g2 = g.clone();
            g2.add_node(9);
            assert_ne!(Fingerprint::of(&g2), fp);
        }
    }

    #[test]
    fn label_buckets_partition_the_nodes() {
        let g = random_graph(20, 0.2, 4, 2, 42);
        let ix = GraphIndex::build(&g);
        let mut seen = 0;
        for l in 0..4u32 {
            let bucket = ix.nodes_with_label(l);
            assert!(bucket.windows(2).all(|w| w[0].0 < w[1].0), "ids ascending");
            for &v in bucket {
                assert_eq!(g.node_label(v), l);
            }
            seen += bucket.len();
        }
        assert_eq!(seen, g.node_count());
        assert!(ix.nodes_with_label(99).is_empty());
    }

    #[test]
    fn candidate_nodes_equal_naive_label_filter() {
        let mut g = random_graph(15, 0.25, 3, 2, 7);
        g.set_node_label(NodeId(3), WILDCARD_LABEL);
        let ix = GraphIndex::build(&g);
        for wildcard in [false, true] {
            for label in [0u32, 1, 2, WILDCARD_LABEL] {
                let naive: Vec<NodeId> = g
                    .nodes()
                    .filter(|&t| {
                        let tl = g.node_label(t);
                        label == tl
                            || (wildcard && (label == WILDCARD_LABEL || tl == WILDCARD_LABEL))
                    })
                    .collect();
                assert_eq!(
                    ix.candidate_nodes(label, wildcard),
                    naive,
                    "label {label} wildcard {wildcard}"
                );
            }
        }
    }

    #[test]
    fn node_sigs_are_containment_monotone_under_embedding() {
        // pattern node sig bits must be contained in the image's bits for
        // the identity embedding of a graph into itself
        let g = random_graph(10, 0.4, 2, 2, 9);
        let ix = GraphIndex::build(&g);
        for v in g.nodes() {
            let s = node_sig(&g, v);
            assert_eq!(s, ix.sig(v));
            assert_eq!(s.nbr_bits & ix.sig(v).nbr_bits, s.nbr_bits);
        }
    }

    #[test]
    fn fingerprint_feasibility_is_necessary() {
        // whenever an embedding exists, subgraph_feasible must say maybe
        for seed in 0..20u64 {
            let target = random_graph(10, 0.35, 3, 2, 100 + seed);
            let pattern = random_graph(4, 0.5, 3, 2, 200 + seed);
            let (pf, tf) = (Fingerprint::of(&pattern), Fingerprint::of(&target));
            for opts in [MatchOptions::default(), MatchOptions::with_wildcards()] {
                if is_subgraph_isomorphic(&pattern, &target, opts) {
                    assert!(
                        subgraph_feasible(&pf, &tf, opts.wildcard),
                        "fingerprint rejected an embeddable pattern (seed {seed})"
                    );
                }
            }
        }
        // and it does reject something obvious
        let small = Fingerprint::of(&chain(3, 1, 0));
        let big = Fingerprint::of(&chain(8, 1, 0));
        assert!(!subgraph_feasible(&big, &small, false));
    }

    #[test]
    fn degree_dominance_rejects_high_degree_patterns() {
        let hub = GraphBuilder::new()
            .nodes(&[0, 0, 0, 0])
            .edge(0, 1, 0)
            .edge(0, 2, 0)
            .edge(0, 3, 0)
            .build(); // star: max degree 3
        let path = chain(5, 0, 0); // max degree 2, but more nodes/edges
        assert!(!subgraph_feasible(
            &Fingerprint::of(&hub),
            &Fingerprint::of(&path),
            false
        ));
    }

    #[test]
    fn mcs_upper_bound_dominates_true_mcs() {
        for seed in 0..25u64 {
            let a = random_graph(6, 0.5, 2, 2, 300 + seed);
            let b = random_graph(6, 0.5, 2, 2, 400 + seed);
            let ub = mcs_edge_upper_bound(&Fingerprint::of(&a), &Fingerprint::of(&b));
            let exact = mcs_edge_count(&a, &b);
            assert!(ub >= exact, "ub {ub} < mcs {exact} (seed {seed})");
        }
        // identical graphs: bound equals the edge count exactly
        let g = chain(6, 1, 0);
        let f = Fingerprint::of(&g);
        assert_eq!(mcs_edge_upper_bound(&f, &f), g.edge_count());
    }

    #[test]
    fn wildcard_graphs_skip_label_histogram_checks() {
        let mut p = chain(3, 7, 0);
        p.set_node_label(NodeId(0), WILDCARD_LABEL);
        let t = chain(4, 2, 0);
        // label histograms are disjoint, but wildcard matching may still
        // embed — the fingerprint must not reject
        let feasible = subgraph_feasible(&Fingerprint::of(&p), &Fingerprint::of(&t), true);
        assert!(feasible);
        // with wildcards disabled the histogram check applies and rejects
        assert!(!subgraph_feasible(
            &Fingerprint::of(&p),
            &Fingerprint::of(&t),
            false
        ));
    }
}
