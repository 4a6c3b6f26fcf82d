//! Random-graph generators and canonical motif shapes.
//!
//! Two kinds of constructors live here:
//!
//! * random models — Erdős–Rényi `G(n, p)`, Barabási–Albert preferential
//!   attachment, and uniform random trees — standing in for the
//!   proprietary large networks (DBLP, Twitter, …) used by the surveyed
//!   systems (see DESIGN.md §3);
//! * deterministic motifs — chain, star, cycle, petal, flower, clique —
//!   the topology classes TATTOO derives from real-world query-log
//!   analyses and uses to guide candidate generation.

use crate::graph::{Graph, Label, NodeId};
use rand::seq::SliceRandom;
use rand::{splitmix64, Rng, SPLITMIX64_GAMMA};

/// Erdős–Rényi `G(n, p)` with all nodes labeled `label` and all edges
/// labeled 0. Use [`assign_labels`] afterwards for richer labelings.
pub fn erdos_renyi<R: Rng>(n: usize, p: f64, label: Label, rng: &mut R) -> Graph {
    let mut g = Graph::with_capacity(n, (p * (n * n) as f64 / 2.0) as usize);
    let nodes: Vec<NodeId> = (0..n).map(|_| g.add_node(label)).collect();
    for i in 0..n {
        for j in (i + 1)..n {
            if rng.gen_bool(p.clamp(0.0, 1.0)) {
                g.add_edge(nodes[i], nodes[j], 0);
            }
        }
    }
    g
}

/// Barabási–Albert preferential attachment: starts from a small clique of
/// `m + 1` nodes, then each new node attaches to `m` distinct existing
/// nodes chosen proportionally to degree. Produces the heavy-tailed degree
/// distributions typical of social and citation networks.
pub fn barabasi_albert<R: Rng>(n: usize, m: usize, label: Label, rng: &mut R) -> Graph {
    assert!(m >= 1, "m must be at least 1");
    let seed = m + 1;
    assert!(n >= seed, "need at least m + 1 nodes");
    let mut g = Graph::with_capacity(n, n * m);
    let mut endpoints: Vec<NodeId> = Vec::with_capacity(2 * n * m);
    let nodes: Vec<NodeId> = (0..seed).map(|_| g.add_node(label)).collect();
    for i in 0..seed {
        for j in (i + 1)..seed {
            g.add_edge(nodes[i], nodes[j], 0);
            endpoints.push(nodes[i]);
            endpoints.push(nodes[j]);
        }
    }
    for _ in seed..n {
        let v = g.add_node(label);
        let mut targets = Vec::with_capacity(m);
        while targets.len() < m {
            let &t = endpoints.choose(rng).expect("endpoint pool is never empty");
            if t != v && !targets.contains(&t) {
                targets.push(t);
            }
        }
        for t in targets {
            g.add_edge(v, t, 0);
            endpoints.push(v);
            endpoints.push(t);
        }
    }
    g
}

/// A uniformly random labeled tree on `n` nodes via a random Prüfer-like
/// attachment (each new node attaches to a uniformly random earlier node).
pub fn random_tree<R: Rng>(n: usize, label: Label, rng: &mut R) -> Graph {
    let mut g = Graph::with_capacity(n, n.saturating_sub(1));
    if n == 0 {
        return g;
    }
    let mut nodes = vec![g.add_node(label)];
    for _ in 1..n {
        let v = g.add_node(label);
        let &parent = nodes.choose(rng).expect("nonempty");
        g.add_edge(v, parent, 0);
        nodes.push(v);
    }
    g
}

/// Assigns node labels drawn from `0..node_labels` and edge labels from
/// `0..edge_labels` with a Zipf-like skew (`s = 1`): label `i` has weight
/// `1 / (i + 1)`, matching the skewed label frequencies of real attribute
/// panels.
pub fn assign_labels<R: Rng>(g: &mut Graph, node_labels: u32, edge_labels: u32, rng: &mut R) {
    let pick = |k: u32, rng: &mut R| -> Label {
        if k <= 1 {
            return 0;
        }
        let total: f64 = (0..k).map(|i| 1.0 / (i + 1) as f64).sum();
        let mut x = rng.gen_range(0.0..total);
        for i in 0..k {
            let w = 1.0 / (i + 1) as f64;
            if x < w {
                return i;
            }
            x -= w;
        }
        k - 1
    };
    for n in g.nodes().collect::<Vec<_>>() {
        let l = pick(node_labels, rng);
        g.set_node_label(n, l);
    }
    for e in g.edges().collect::<Vec<_>>() {
        let l = pick(edge_labels, rng);
        g.set_edge_label(e, l);
    }
}

/// A chain (path) of `n ≥ 1` nodes.
pub fn chain(n: usize, node_label: Label, edge_label: Label) -> Graph {
    let mut g = Graph::with_capacity(n, n.saturating_sub(1));
    if n == 0 {
        return g;
    }
    let mut prev = g.add_node(node_label);
    for _ in 1..n {
        let cur = g.add_node(node_label);
        g.add_edge(prev, cur, edge_label);
        prev = cur;
    }
    g
}

/// A star with `leaves` leaves (total `leaves + 1` nodes).
pub fn star(leaves: usize, node_label: Label, edge_label: Label) -> Graph {
    let mut g = Graph::with_capacity(leaves + 1, leaves);
    let center = g.add_node(node_label);
    for _ in 0..leaves {
        let leaf = g.add_node(node_label);
        g.add_edge(center, leaf, edge_label);
    }
    g
}

/// A cycle of `n ≥ 3` nodes.
pub fn cycle(n: usize, node_label: Label, edge_label: Label) -> Graph {
    assert!(n >= 3, "cycles need at least 3 nodes");
    let mut g = Graph::with_capacity(n, n);
    let nodes: Vec<NodeId> = (0..n).map(|_| g.add_node(node_label)).collect();
    for i in 0..n {
        g.add_edge(nodes[i], nodes[(i + 1) % n], edge_label);
    }
    g
}

/// A clique on `n` nodes.
pub fn clique(n: usize, node_label: Label, edge_label: Label) -> Graph {
    let mut g = Graph::with_capacity(n, n * (n - 1) / 2);
    let nodes: Vec<NodeId> = (0..n).map(|_| g.add_node(node_label)).collect();
    for i in 0..n {
        for j in (i + 1)..n {
            g.add_edge(nodes[i], nodes[j], edge_label);
        }
    }
    g
}

/// A *petal*: two endpoint nodes joined by `paths ≥ 2` internally-disjoint
/// paths, each with `inner ≥ 1` internal nodes. (With `paths = 2` and
/// `inner = 1` this is a 4-cycle.)
pub fn petal(paths: usize, inner: usize, node_label: Label, edge_label: Label) -> Graph {
    assert!(
        paths >= 2 && inner >= 1,
        "petal needs ≥2 paths and ≥1 inner node"
    );
    let mut g = Graph::new();
    let s = g.add_node(node_label);
    let t = g.add_node(node_label);
    for _ in 0..paths {
        let mut prev = s;
        for _ in 0..inner {
            let mid = g.add_node(node_label);
            g.add_edge(prev, mid, edge_label);
            prev = mid;
        }
        g.add_edge(prev, t, edge_label);
    }
    g
}

/// A *flower*: a center node with `petals ≥ 1` cycles of length
/// `cycle_len ≥ 3` all sharing the center.
pub fn flower(petals: usize, cycle_len: usize, node_label: Label, edge_label: Label) -> Graph {
    assert!(
        petals >= 1 && cycle_len >= 3,
        "flower needs ≥1 petal of length ≥3"
    );
    let mut g = Graph::new();
    let center = g.add_node(node_label);
    for _ in 0..petals {
        let mut prev = center;
        for _ in 0..(cycle_len - 1) {
            let v = g.add_node(node_label);
            g.add_edge(prev, v, edge_label);
            prev = v;
        }
        g.add_edge(prev, center, edge_label);
    }
    g
}

/// A triangle with a pendant path of `tail` extra nodes.
pub fn tailed_triangle(tail: usize, node_label: Label, edge_label: Label) -> Graph {
    let mut g = cycle(3, node_label, edge_label);
    let mut prev = NodeId(0);
    for _ in 0..tail {
        let v = g.add_node(node_label);
        g.add_edge(prev, v, edge_label);
        prev = v;
    }
    g
}

// ---------------------------------------------------------------------------
// Streamed synthetic networks (10⁷–10⁸ edges)
// ---------------------------------------------------------------------------

/// A seeded synthetic large network: `cliques` planted 5-cliques on
/// disjoint node blocks (so the truss decomposition has classes above 2
/// and the census sees every graphlet family) plus `uniform_edges`
/// uniform random pairs over the remaining nodes.
///
/// The whole network streams: [`SyntheticSpec::stream_edges`] emits the
/// edge list in a deterministic seeded order, twice identically, with
/// **O(1)** state — no `Vec` of the edge list, no adjacency
/// intermediate, no rejection bookkeeping. Duplicate-freedom is by
/// construction, not by hashing what was emitted: clique edges live on
/// disjoint blocks in the node-range *tail*, and uniform pairs are the
/// first `uniform_edges` values of a seeded Feistel permutation of the
/// pair-index space over the *head* nodes — injective, so no pair
/// repeats, and disjoint from every clique block. That is what lets
/// [`crate::storage::CsrGraph::from_synthetic`] build a 10⁸-edge CSR
/// with two passes over the stream, while [`synthetic_network`] builds
/// the bit-identical heap twin at sizes where both fit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SyntheticSpec {
    /// Total node count. The last `5 * cliques` nodes host the planted
    /// cliques; uniform pairs are drawn from the rest.
    pub nodes: usize,
    /// Number of uniform random edges over the non-clique nodes.
    pub uniform_edges: usize,
    /// Number of planted 5-cliques (10 edges each) on disjoint blocks.
    pub cliques: usize,
    /// Number of distinct node labels (≥ 1), assigned per node by hash.
    pub node_labels: u32,
    /// Number of distinct edge labels (≥ 1), assigned per edge by hash.
    pub edge_labels: u32,
    /// Seed for labels and the uniform-pair permutation.
    pub seed: u64,
}

impl SyntheticSpec {
    /// Total edges the stream emits: `10 * cliques + uniform_edges`.
    pub fn edge_count(&self) -> usize {
        10 * self.cliques + self.uniform_edges
    }

    /// Head-node count: nodes eligible for uniform pairs.
    fn head(&self) -> usize {
        self.nodes - 5 * self.cliques
    }

    /// The label of node `v` — a pure hash of `(seed, v)`.
    pub fn node_label(&self, v: NodeId) -> Label {
        let h = splitmix64(self.seed ^ 0x4E4F_4445 ^ (v.0 as u64).wrapping_mul(SPLITMIX64_GAMMA));
        (h % self.node_labels.max(1) as u64) as Label
    }

    /// The label of the `k`-th emitted edge — a pure hash of `(seed, k)`.
    fn edge_label(&self, k: usize) -> Label {
        let h = splitmix64(self.seed ^ 0x4544_4745 ^ (k as u64).wrapping_mul(SPLITMIX64_GAMMA));
        (h % self.edge_labels.max(1) as u64) as Label
    }

    /// One Feistel pass over a `2^bits` domain (`bits` even): a seeded
    /// bijection, the standard way to permute an index space without
    /// materializing it. The round function is an arbitrary hash — any
    /// `F` yields a permutation; the network structure only needs
    /// injectivity.
    fn feistel(&self, x: u64, bits: u32) -> u64 {
        let half = bits / 2;
        let mask = (1u64 << half) - 1;
        let mut l = x >> half;
        let mut r = x & mask;
        for round in 0..4u64 {
            let f = splitmix64(self.seed ^ (round << 56) ^ r) & mask;
            let next_r = l ^ f;
            l = r;
            r = next_r;
        }
        (l << half) | r
    }

    /// The `t`-th uniform pair `(i, j)` with `i < j < head`: cycle-walk
    /// the Feistel permutation until it lands inside the pair-index
    /// space `[0, head·(head−1)/2)`, then unrank colexicographically.
    /// Injective in `t`, so the emitted pairs are distinct.
    fn uniform_pair(&self, t: u64) -> (u32, u32) {
        let n = self.head() as u64;
        let pair_space = n * (n - 1) / 2;
        // even bit width covering the space; the walk re-applies the
        // permutation on out-of-range values (< 4 expected steps)
        let bits = (64 - (pair_space - 1).leading_zeros()).max(2).div_ceil(2) * 2;
        let mut x = t;
        loop {
            x = self.feistel(x, bits);
            if x < pair_space {
                break;
            }
        }
        // colexicographic unrank: x = j(j-1)/2 + i with i < j
        let mut j = ((1.0 + (1.0 + 8.0 * x as f64).sqrt()) / 2.0) as u64;
        // f64 rounding can land a step off near 2^53; correct exactly
        while j * (j - 1) / 2 > x {
            j -= 1;
        }
        while (j + 1) * j / 2 <= x {
            j += 1;
        }
        let i = x - j * (j - 1) / 2;
        (i as u32, j as u32)
    }

    /// Streams the edge list as `(u, v, label)` in the canonical order:
    /// the 10 edges of each planted clique (blocks ascending, pairs in
    /// `i < j` order), then the uniform pairs in permutation order. A
    /// pure function of the spec — every call emits the identical
    /// sequence, which is the two-pass contract of
    /// [`crate::storage::CsrGraph::from_edge_stream`].
    pub fn stream_edges(&self, f: &mut dyn FnMut(u32, u32, Label)) {
        assert!(
            self.nodes >= 5 * self.cliques + 2,
            "spec needs {} clique nodes plus at least 2 head nodes",
            5 * self.cliques
        );
        assert!(
            (self.uniform_edges as u128) <= {
                let n = self.head() as u128;
                n * (n - 1) / 2
            },
            "more uniform edges than head pairs"
        );
        let mut k = 0usize;
        let head = self.head() as u32;
        for c in 0..self.cliques {
            let base = head + 5 * c as u32;
            for i in 0..5u32 {
                for j in (i + 1)..5 {
                    f(base + i, base + j, self.edge_label(k));
                    k += 1;
                }
            }
        }
        for t in 0..self.uniform_edges as u64 {
            let (i, j) = self.uniform_pair(t);
            f(i, j, self.edge_label(k));
            k += 1;
        }
    }
}

/// The heap-[`Graph`] twin of a [`SyntheticSpec`]: same nodes, labels,
/// and edge stream, materialized through [`Graph::add_edge`]. At sizes
/// where it fits, `CsrGraph::from_graph(&synthetic_network(spec))`
/// equals `CsrGraph::from_synthetic(&spec)` field for field — the
/// equality the `exp_scale` bench asserts before trusting the streamed
/// build at sizes where only the CSR fits.
pub fn synthetic_network(spec: &SyntheticSpec) -> Graph {
    let mut g = Graph::with_capacity(spec.nodes, spec.edge_count());
    for v in 0..spec.nodes {
        g.add_node(spec.node_label(NodeId(v as u32)));
    }
    spec.stream_edges(&mut |u, v, l| {
        let added = g.add_edge(NodeId(u), NodeId(v), l);
        debug_assert!(added.is_some(), "synthetic stream emitted a duplicate");
    });
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traversal::is_connected;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn erdos_renyi_extremes() {
        let mut rng = SmallRng::seed_from_u64(1);
        let empty = erdos_renyi(10, 0.0, 0, &mut rng);
        assert_eq!(empty.edge_count(), 0);
        let full = erdos_renyi(10, 1.0, 0, &mut rng);
        assert_eq!(full.edge_count(), 45);
    }

    #[test]
    fn barabasi_albert_edge_count() {
        let mut rng = SmallRng::seed_from_u64(2);
        let n = 100;
        let m = 3;
        let g = barabasi_albert(n, m, 0, &mut rng);
        assert_eq!(g.node_count(), n);
        // seed clique C(4,2)=6 edges + (n - 4) * 3
        assert_eq!(g.edge_count(), 6 + (n - m - 1) * m);
        assert!(is_connected(&g));
    }

    #[test]
    fn barabasi_albert_has_hubs() {
        let mut rng = SmallRng::seed_from_u64(3);
        let g = barabasi_albert(500, 2, 0, &mut rng);
        let max_deg = g.nodes().map(|v| g.degree(v)).max().unwrap();
        // preferential attachment produces hubs far above the mean (~4)
        assert!(max_deg > 15, "max degree {max_deg}");
    }

    #[test]
    fn random_tree_is_tree() {
        let mut rng = SmallRng::seed_from_u64(4);
        for n in [1usize, 2, 10, 50] {
            let g = random_tree(n, 0, &mut rng);
            assert_eq!(g.node_count(), n);
            assert_eq!(g.edge_count(), n.saturating_sub(1));
            assert!(is_connected(&g));
        }
    }

    #[test]
    fn assign_labels_in_range() {
        let mut rng = SmallRng::seed_from_u64(5);
        let mut g = clique(8, 0, 0);
        assign_labels(&mut g, 4, 3, &mut rng);
        for n in g.nodes() {
            assert!(g.node_label(n) < 4);
        }
        for e in g.edges() {
            assert!(g.edge_label(e) < 3);
        }
    }

    #[test]
    fn assign_labels_is_skewed() {
        let mut rng = SmallRng::seed_from_u64(6);
        let mut g = erdos_renyi(400, 0.02, 0, &mut rng);
        assign_labels(&mut g, 5, 1, &mut rng);
        let count0 = g.nodes().filter(|&n| g.node_label(n) == 0).count();
        let count4 = g.nodes().filter(|&n| g.node_label(n) == 4).count();
        assert!(
            count0 > count4,
            "label 0 ({count0}) should beat label 4 ({count4})"
        );
    }

    #[test]
    fn motif_shapes() {
        let c = chain(5, 1, 2);
        assert_eq!((c.node_count(), c.edge_count()), (5, 4));
        let s = star(4, 1, 2);
        assert_eq!((s.node_count(), s.edge_count()), (5, 4));
        assert_eq!(s.degree(NodeId(0)), 4);
        let cy = cycle(6, 1, 2);
        assert_eq!((cy.node_count(), cy.edge_count()), (6, 6));
        let k = clique(5, 1, 2);
        assert_eq!(k.edge_count(), 10);
        let p = petal(3, 2, 1, 2);
        // 2 hubs + 3 paths * 2 inner = 8 nodes; 3 paths * 3 edges = 9 edges
        assert_eq!((p.node_count(), p.edge_count()), (8, 9));
        assert!(is_connected(&p));
        let f = flower(3, 4, 1, 2);
        // center + 3 * 3 = 10 nodes; 3 * 4 = 12 edges
        assert_eq!((f.node_count(), f.edge_count()), (10, 12));
        assert!(is_connected(&f));
        let t = tailed_triangle(2, 1, 2);
        assert_eq!((t.node_count(), t.edge_count()), (5, 5));
    }

    #[test]
    fn petal_with_two_paths_is_cycle() {
        use crate::iso::are_isomorphic;
        let p = petal(2, 1, 0, 0);
        let c = cycle(4, 0, 0);
        assert!(are_isomorphic(&p, &c));
    }
}
