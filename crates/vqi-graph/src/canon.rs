//! Canonical codes for small labeled graphs.
//!
//! A canonical code is a sequence of integers that is identical for
//! isomorphic graphs and different for non-isomorphic ones, so pattern
//! sets can be deduplicated with a hash set instead of quadratically many
//! VF2 calls.
//!
//! The code of a graph under a node ordering `σ` is the concatenation of
//! per-node *chunks*: node `σ(d)`'s chunk is its stabilized
//! Weisfeiler-Leman color rank, its label, and its adjacency row to the
//! ordering prefix (`ABSENT` for non-edges, the edge label for edges —
//! encoded so that edges sort *before* non-edges, which makes canonical
//! orderings connected-first). The canonical code is the lexicographic
//! minimum over all orderings, found by branch-and-bound restricted at
//! every depth to candidates achieving the minimal next chunk, with twin
//! pruning (structurally interchangeable candidates are explored once).
//!
//! **Guarantee**: equal codes always imply isomorphic graphs (a code
//! reconstructs the graph up to relabeling). Codes are canonical — i.e.
//! isomorphic graphs always collide — whenever the bounded search
//! completes, which it does for all pattern-sized graphs in this project;
//! if the node budget is exhausted the code is flagged truncated and
//! dedup degrades to "may keep an isomorphic duplicate", never to
//! "merges distinct graphs".

use crate::graph::{Graph, Label, NodeId};
use std::collections::HashMap;
use std::sync::Arc;

/// Sentinel for "no edge" inside a code chunk; larger than any label so
/// present edges sort first.
const ABSENT: u64 = u64::MAX;

/// A canonical code. Equality implies graph isomorphism.
///
/// The words are shared: a clone (a memo key, a dedup set entry) points
/// at the same words instead of copying them.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CanonicalCode {
    code: Arc<[u64]>,
    /// True if the branch-and-bound search exhausted its budget; the code
    /// is then deterministic but possibly not minimal.
    truncated: bool,
}

impl CanonicalCode {
    /// The raw code words.
    pub fn words(&self) -> &[u64] {
        &self.code
    }

    /// Whether the search budget was exhausted (canonicity not guaranteed).
    pub fn is_truncated(&self) -> bool {
        self.truncated
    }
}

/// Stabilized 1-WL colors: initial color is (label, degree); each round
/// hashes the sorted multiset of (edge label, neighbor color). Returns one
/// color per node, renumbered to dense ranks (isomorphism-invariant).
pub fn wl_colors(g: &Graph) -> Vec<u64> {
    let n = g.node_count();
    let mut colors: Vec<u64> = g
        .nodes()
        .map(|v| fnv(&[g.node_label(v) as u64, g.degree(v) as u64]))
        .collect();
    for _ in 0..n {
        let mut next = Vec::with_capacity(n);
        for v in g.nodes() {
            let mut sig: Vec<(u64, u64)> = g
                .neighbors(v)
                .map(|(m, e)| (g.edge_label(e) as u64, colors[m.index()]))
                .collect();
            sig.sort_unstable();
            let mut words = vec![colors[v.index()]];
            for (el, c) in sig {
                words.push(el);
                words.push(c);
            }
            next.push(fnv(&words));
        }
        if partition_of(&next) == partition_of(&colors) {
            colors = next;
            break;
        }
        colors = next;
    }
    // renumber to dense ranks by sorted color value (invariant)
    let mut sorted: Vec<u64> = colors.clone();
    sorted.sort_unstable();
    sorted.dedup();
    colors
        .iter()
        .map(|c| sorted.binary_search(c).unwrap() as u64)
        .collect()
}

/// The partition induced by a coloring, as sorted class sizes keyed by the
/// class of each node (used to detect stabilization).
fn partition_of(colors: &[u64]) -> Vec<usize> {
    let mut map: HashMap<u64, usize> = HashMap::new();
    let mut ids = Vec::with_capacity(colors.len());
    for &c in colors {
        let next = map.len();
        ids.push(*map.entry(c).or_insert(next));
    }
    ids
}

fn fnv(words: &[u64]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &w in words {
        for b in w.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
    }
    h
}

struct CanonSearch<'a> {
    g: &'a Graph,
    colors: Vec<u64>,
    best: Option<Vec<u64>>,
    budget: u64,
    truncated: bool,
}

impl<'a> CanonSearch<'a> {
    /// The chunk candidate `v` would append given the current `prefix`.
    fn chunk(&self, v: NodeId, prefix: &[NodeId]) -> Vec<u64> {
        let mut chunk = Vec::with_capacity(prefix.len() + 2);
        chunk.push(self.colors[v.index()]);
        chunk.push(self.g.node_label(v) as u64);
        for &p in prefix {
            match self.g.edge_between(v, p) {
                Some(e) => chunk.push(self.g.edge_label(e) as u64),
                None => chunk.push(ABSENT),
            }
        }
        chunk
    }

    /// True if `a` and `b` are twins: same label and identical labeled
    /// neighborhoods apart from each other. Twins are automorphic, so the
    /// search explores only one per class.
    fn are_twins(&self, a: NodeId, b: NodeId) -> bool {
        if self.g.node_label(a) != self.g.node_label(b) {
            return false;
        }
        let sig = |v: NodeId, other: NodeId| {
            let mut s: Vec<(NodeId, Label)> = self
                .g
                .neighbors(v)
                .filter(|&(m, _)| m != other && m != v)
                .map(|(m, e)| (m, self.g.edge_label(e)))
                .collect();
            s.sort_unstable();
            s
        };
        if sig(a, b) != sig(b, a) {
            return false;
        }
        // if adjacent, edge labels to each other must be symmetric (always
        // true for a single undirected edge)
        true
    }

    fn search(&mut self, prefix: &mut Vec<NodeId>, used: &mut Vec<bool>, code: &mut Vec<u64>) {
        if self.budget == 0 {
            self.truncated = true;
            return;
        }
        self.budget -= 1;
        let n = self.g.node_count();
        if prefix.len() == n {
            if self.best.as_ref().is_none_or(|b| &*code < b) {
                self.best = Some(code.clone());
            }
            return;
        }
        // candidates achieving the minimal next chunk
        let mut best_chunk: Option<Vec<u64>> = None;
        let mut cands: Vec<NodeId> = Vec::new();
        for v in self.g.nodes() {
            if used[v.index()] {
                continue;
            }
            let c = self.chunk(v, prefix);
            match &best_chunk {
                None => {
                    best_chunk = Some(c);
                    cands = vec![v];
                }
                Some(b) => {
                    if c < *b {
                        best_chunk = Some(c);
                        cands = vec![v];
                    } else if c == *b {
                        cands.push(v);
                    }
                }
            }
        }
        let chunk = best_chunk.expect("at least one unused node");
        // prune: if extending makes the code prefix worse than best, stop
        if let Some(b) = &self.best {
            let start = code.len();
            let end = start + chunk.len();
            if end <= b.len() {
                use std::cmp::Ordering;
                if chunk.as_slice().cmp(&b[start..end]) == Ordering::Greater {
                    return;
                }
            }
        }
        // twin pruning: keep one representative per twin class
        let mut reps: Vec<NodeId> = Vec::new();
        'outer: for &v in &cands {
            for &r in &reps {
                if self.are_twins(v, r) {
                    continue 'outer;
                }
            }
            reps.push(v);
        }
        for v in reps {
            prefix.push(v);
            used[v.index()] = true;
            code.extend_from_slice(&chunk);
            self.search(prefix, used, code);
            code.truncate(code.len() - chunk.len());
            used[v.index()] = false;
            prefix.pop();
        }
    }
}

/// Computes the canonical code of `g` with the default search budget.
///
/// ```
/// use vqi_graph::generate::cycle;
/// use vqi_graph::canon::canonical_code;
///
/// let a = cycle(5, 1, 0);
/// let b = a.permuted(&[4, 2, 0, 3, 1]); // relabeled copy
/// assert_eq!(canonical_code(&a), canonical_code(&b));
/// assert_ne!(canonical_code(&a), canonical_code(&cycle(6, 1, 0)));
/// ```
pub fn canonical_code(g: &Graph) -> CanonicalCode {
    canonical_code_budgeted(g, 2_000_000)
}

/// Canonicalizes a batch of graphs, fanning out over [`crate::par`].
///
/// Each graph's code is computed independently and the results are
/// collected in input order, so the output is identical to mapping
/// [`canonical_code`] sequentially — the contract candidate pipelines
/// rely on when they canonicalize-then-dedup in generation order.
pub fn canonical_codes(graphs: &[Graph]) -> Vec<CanonicalCode> {
    let _s = vqi_observe::span("kernel.canon.batch");
    vqi_observe::incr("kernel.canon.batch.graphs", graphs.len() as u64);
    crate::par::map(graphs, canonical_code)
}

/// Computes the canonical code with an explicit branch-and-bound budget.
pub fn canonical_code_budgeted(g: &Graph, budget: u64) -> CanonicalCode {
    if g.node_count() == 0 {
        return CanonicalCode {
            code: Arc::new([0]),
            truncated: false,
        };
    }
    let mut s = CanonSearch {
        g,
        colors: wl_colors(g),
        best: None,
        budget,
        truncated: false,
    };
    let mut prefix = Vec::with_capacity(g.node_count());
    let mut used = vec![false; g.node_count()];
    let mut code = vec![g.node_count() as u64, g.edge_count() as u64];
    s.search(&mut prefix, &mut used, &mut code);
    CanonicalCode {
        code: s
            .best
            .expect("search explores at least one ordering")
            .into(),
        truncated: s.truncated,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;
    use crate::iso::are_isomorphic;

    fn cycle(n: usize, label: Label) -> Graph {
        let mut g = Graph::new();
        let nodes: Vec<NodeId> = (0..n).map(|_| g.add_node(label)).collect();
        for i in 0..n {
            g.add_edge(nodes[i], nodes[(i + 1) % n], 0);
        }
        g
    }

    #[test]
    fn isomorphic_graphs_share_codes() {
        let g = GraphBuilder::new()
            .nodes(&[1, 2, 3, 1])
            .edge(0, 1, 5)
            .edge(1, 2, 6)
            .edge(2, 3, 5)
            .edge(3, 0, 6)
            .build();
        let h = g.permuted(&[2, 3, 0, 1]);
        assert_eq!(canonical_code(&g), canonical_code(&h));
    }

    #[test]
    fn non_isomorphic_graphs_differ() {
        let c4 = cycle(4, 0);
        let p4 = GraphBuilder::new()
            .nodes(&[0, 0, 0, 0])
            .edge(0, 1, 0)
            .edge(1, 2, 0)
            .edge(2, 3, 0)
            .build();
        assert_ne!(canonical_code(&c4), canonical_code(&p4));
    }

    #[test]
    fn labels_distinguish() {
        let a = GraphBuilder::new().nodes(&[1, 1]).edge(0, 1, 0).build();
        let b = GraphBuilder::new().nodes(&[1, 2]).edge(0, 1, 0).build();
        let c = GraphBuilder::new().nodes(&[1, 1]).edge(0, 1, 9).build();
        assert_ne!(canonical_code(&a), canonical_code(&b));
        assert_ne!(canonical_code(&a), canonical_code(&c));
    }

    #[test]
    fn clique_is_fast_via_twin_pruning() {
        let mut g = Graph::new();
        let nodes: Vec<NodeId> = (0..12).map(|_| g.add_node(3)).collect();
        for i in 0..12 {
            for j in (i + 1)..12 {
                g.add_edge(nodes[i], nodes[j], 1);
            }
        }
        let code = canonical_code(&g);
        assert!(!code.is_truncated());
        let h = g.permuted(&[5, 3, 8, 0, 11, 1, 9, 2, 10, 4, 7, 6]);
        assert_eq!(code, canonical_code(&h));
    }

    #[test]
    fn cycles_match_under_rotation() {
        for n in [3usize, 5, 8, 12] {
            let g = cycle(n, 7);
            let perm: Vec<usize> = (0..n).map(|i| (i + n / 2) % n).collect();
            let h = g.permuted(&perm);
            assert_eq!(canonical_code(&g), canonical_code(&h), "cycle n={n}");
        }
    }

    #[test]
    fn code_equality_matches_vf2_on_random_small_graphs() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(99);
        let mut graphs = Vec::new();
        for _ in 0..30 {
            let n = rng.gen_range(2..6);
            let mut g = Graph::new();
            let nodes: Vec<NodeId> = (0..n).map(|_| g.add_node(rng.gen_range(0..2))).collect();
            for i in 0..n {
                for j in (i + 1)..n {
                    if rng.gen_bool(0.5) {
                        g.add_edge(nodes[i], nodes[j], rng.gen_range(0..2));
                    }
                }
            }
            graphs.push(g);
        }
        for i in 0..graphs.len() {
            for j in (i + 1)..graphs.len() {
                let same_code = canonical_code(&graphs[i]) == canonical_code(&graphs[j]);
                let iso = are_isomorphic(&graphs[i], &graphs[j]);
                assert_eq!(same_code, iso, "graphs {i} and {j} disagree");
            }
        }
    }

    #[test]
    fn empty_and_singleton() {
        let e = Graph::new();
        assert_eq!(canonical_code(&e), canonical_code(&Graph::new()));
        let mut a = Graph::new();
        a.add_node(4);
        let mut b = Graph::new();
        b.add_node(4);
        let mut c = Graph::new();
        c.add_node(5);
        assert_eq!(canonical_code(&a), canonical_code(&b));
        assert_ne!(canonical_code(&a), canonical_code(&c));
        assert_ne!(canonical_code(&e), canonical_code(&a));
    }

    #[test]
    fn batch_canonicalization_matches_sequential_across_thread_counts() {
        use crate::generate::{assign_labels, erdos_renyi};
        use rand::rngs::SmallRng;
        use rand::SeedableRng;
        let _guard = crate::kernel_test_lock();
        let prev = crate::par::thread_cap();
        for seed in 0..12u64 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let graphs: Vec<Graph> = (0..9)
                .map(|i| {
                    let mut g = erdos_renyi(5 + (i % 4), 0.5, 0, &mut rng);
                    assign_labels(&mut g, 3, 2, &mut rng);
                    g
                })
                .collect();
            let expect: Vec<CanonicalCode> = graphs.iter().map(canonical_code).collect();
            for cap in [1usize, 2, 4] {
                crate::par::set_thread_cap(cap);
                assert_eq!(canonical_codes(&graphs), expect, "seed {seed} cap {cap}");
            }
            crate::par::set_thread_cap(prev);
        }
    }

    #[test]
    fn wl_colors_are_invariant() {
        let g = cycle(6, 0);
        let h = g.permuted(&[3, 4, 5, 0, 1, 2]);
        let mut cg = wl_colors(&g);
        let mut ch = wl_colors(&h);
        cg.sort_unstable();
        ch.sort_unstable();
        assert_eq!(cg, ch);
    }
}
