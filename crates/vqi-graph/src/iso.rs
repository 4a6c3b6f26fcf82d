//! VF2-style (sub)graph isomorphism with wildcard-label support.
//!
//! The pattern-selection systems use this module in three ways:
//!
//! * **coverage** — does canned pattern `p` occur in data graph `G`, and
//!   which edges of `G` do its embeddings touch;
//! * **results panel** — enumerate matches of a user query;
//! * **closure semantics** — cluster summary graphs carry
//!   [`WILDCARD_LABEL`](crate::graph::WILDCARD_LABEL) dummies that must
//!   match any label.
//!
//! The matcher is a classic VF2 backtracking search with a
//! most-constrained-first ordering of pattern nodes, label/degree
//! filtering, and an optional work budget so that adversarial inputs
//! degrade to "truncated" rather than "hung".
//!
//! ## Pattern plans
//!
//! Everything the search derives from the pattern alone — its
//! [fingerprint](crate::index::Fingerprint), node visit order, per-node
//! signatures and wildcard flag — is compiled once into a
//! [`PatternPlan`]. Sweeps that match one pattern against many graphs
//! (coverage, mining support, feature vectors, the query scan) build one
//! plan and reuse it for every target; each free function below builds
//! a plan per call. There is one search path either way, and a reused
//! plan reports exactly the embeddings, in the same order, that a fresh
//! per-pair search does.
//!
//! ## Indexed matching
//!
//! Every [`PatternPlan`] search takes an optional pre-built
//! [`GraphIndex`] of the target. The indexed search
//! (1) rejects the whole pattern in constant time when the target's
//! [fingerprint](crate::index::Fingerprint) cannot host it (counted as
//! `kernel.iso.skip_fingerprint`), (2) enumerates unanchored candidates
//! from the target's label buckets instead of scanning every node, and
//! (3) prunes candidates whose invariant signature cannot dominate the
//! pattern node's before attempting a map (counted as
//! `kernel.iso.pruned`). All three are necessary-condition filters, so
//! the indexed search reports **exactly the same embeddings in the same
//! order** as the naive one whenever the search runs to completion; a
//! `max_states`-truncated indexed search can only get *further* than
//! the naive one because pruned candidates don't spend budget.
//! Signature pruning switches itself off when wildcard matching is on
//! and either graph carries wildcard labels (bloom containment is not a
//! necessary condition under wildcards); the other two filters are
//! wildcard-safe. Both searches read the target's adjacency rows from
//! the [`Graph`] itself.

use crate::graph::{EdgeId, Graph, Label, NodeId, WILDCARD_LABEL};
use crate::index::{node_sig, subgraph_feasible, Fingerprint, GraphIndex, NodeSig};
use vqi_runtime::{Budget, Meter, VqiError};

/// Options controlling a matching run.
#[derive(Debug, Clone, Copy)]
pub struct MatchOptions {
    /// Require induced embeddings (non-edges of the pattern must map to
    /// non-edges of the target). Subgraph *query* matching is non-induced.
    pub induced: bool,
    /// Treat [`WILDCARD_LABEL`] (on either side) as matching any label.
    pub wildcard: bool,
    /// Stop after this many embeddings have been reported.
    pub max_embeddings: usize,
    /// Backtracking-state budget; the search stops (possibly incomplete)
    /// once this many candidate pairs have been examined.
    pub max_states: u64,
}

impl Default for MatchOptions {
    fn default() -> Self {
        MatchOptions {
            induced: false,
            wildcard: false,
            max_embeddings: usize::MAX,
            max_states: 50_000_000,
        }
    }
}

impl MatchOptions {
    /// Non-induced matching with wildcards enabled (closure-graph cover
    /// semantics).
    pub fn with_wildcards() -> Self {
        MatchOptions {
            wildcard: true,
            ..Default::default()
        }
    }

    /// Induced matching (used for isomorphism checks).
    pub fn induced() -> Self {
        MatchOptions {
            induced: true,
            ..Default::default()
        }
    }
}

#[inline]
fn labels_compatible(p: Label, t: Label, wildcard: bool) -> bool {
    p == t || (wildcard && (p == WILDCARD_LABEL || t == WILDCARD_LABEL))
}

/// The result of an embedding enumeration: whether the search space was
/// exhausted and how many embeddings were reported.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SearchOutcome {
    /// False if the state budget or the embedding cap stopped the search.
    pub complete: bool,
    /// Number of embeddings reported to the visitor.
    pub embeddings: usize,
    /// A constant-time necessary condition (the size check, or the
    /// target index's fingerprint) refused the target: no search ran.
    pub filtered: bool,
}

/// A pattern compiled once for matching against any number of targets:
/// its [`Fingerprint`] (which also carries the wildcard flag), its node
/// visit order and its per-node [`NodeSig`]s. See the module docs.
#[derive(Debug)]
pub struct PatternPlan<'p> {
    pattern: &'p Graph,
    fingerprint: Fingerprint,
    order: Vec<NodeId>,
    sigs: Vec<NodeSig>,
}

/// The empty slot of a VF2 core mapping.
const UNMAPPED: NodeId = NodeId(u32::MAX);

struct Vf2<'a, F: FnMut(&[NodeId], &[EdgeId]) -> bool> {
    plan: &'a PatternPlan<'a>,
    target: &'a Graph,
    /// compiled target index; `None` = naive scans
    idx: Option<&'a GraphIndex>,
    opts: MatchOptions,
    /// signature pruning is sound (index present, wildcards can't fire)
    use_sigs: bool,
    /// mapping pattern -> target ([`UNMAPPED`] = unmapped)
    core_p: Vec<NodeId>,
    /// reverse mapping target -> pattern
    core_t: Vec<NodeId>,
    /// pattern edge -> the target edge `feasible` matched it to; valid
    /// for every pattern edge once a full mapping is reached. Empty
    /// (nothing recorded) unless the visitor reads matched edges.
    core_e: Vec<EdgeId>,
    /// candidate targets of every open search node, deepest last
    stack: Vec<NodeId>,
    states: u64,
    found: usize,
    /// candidates rejected by signature pruning (batched into the
    /// `kernel.iso.pruned` counter when the search returns)
    pruned: u64,
    /// optional budget meter, ticked once per examined candidate pair
    meter: Option<Meter>,
    /// set when the meter trips; the search stops and reports the error
    abort: Option<VqiError>,
    /// visitor; returns false to stop the whole search
    visit: F,
}

/// Computes a matching order for pattern nodes: start from the
/// highest-degree node of each component, then repeatedly take the
/// unvisited node with the most already-ordered neighbors (ties broken by
/// degree). Connected prefixes keep candidate sets small.
fn matching_order(pattern: &Graph) -> Vec<NodeId> {
    let n = pattern.node_count();
    let mut order = Vec::with_capacity(n);
    let mut placed = vec![false; n];
    while order.len() < n {
        // seed: unplaced node with max degree
        let seed = pattern
            .nodes()
            .filter(|v| !placed[v.index()])
            .max_by_key(|&v| pattern.degree(v))
            .expect("some node unplaced");
        placed[seed.index()] = true;
        order.push(seed);
        loop {
            let mut best: Option<(usize, usize, NodeId)> = None;
            for v in pattern.nodes() {
                if placed[v.index()] {
                    continue;
                }
                let connected = pattern
                    .neighbors(v)
                    .filter(|(m, _)| placed[m.index()])
                    .count();
                if connected == 0 {
                    continue;
                }
                let key = (connected, pattern.degree(v), v);
                if best.is_none_or(|b| (b.0, b.1, b.2) < key) {
                    best = Some(key);
                }
            }
            match best {
                Some((_, _, v)) => {
                    placed[v.index()] = true;
                    order.push(v);
                }
                None => break, // component exhausted; reseed
            }
        }
    }
    order
}

impl<'a, F: FnMut(&[NodeId], &[EdgeId]) -> bool> Vf2<'a, F> {
    fn feasible(&mut self, p: NodeId, t: NodeId) -> bool {
        let pattern = self.plan.pattern;
        if !labels_compatible(
            pattern.node_label(p),
            self.target.node_label(t),
            self.opts.wildcard,
        ) {
            return false;
        }
        if pattern.degree(p) > self.target.degree(t) {
            return false;
        }
        // edges to already-mapped pattern neighbors must exist with
        // compatible labels
        for (q, pe) in pattern.neighbors(p) {
            let tq = self.core_p[q.index()];
            if tq == UNMAPPED {
                continue;
            }
            match self.target.edge_between(t, tq) {
                Some(te) => {
                    if !labels_compatible(
                        pattern.edge_label(pe),
                        self.target.edge_label(te),
                        self.opts.wildcard,
                    ) {
                        return false;
                    }
                    if let Some(slot) = self.core_e.get_mut(pe.index()) {
                        *slot = te;
                    }
                }
                None => return false,
            }
        }
        if self.opts.induced {
            // mapped pattern nodes NOT adjacent to p must map to targets
            // not adjacent to t
            for (tn, _) in self.target.neighbors(t) {
                let pq = self.core_t[tn.index()];
                if pq != UNMAPPED && !pattern.has_edge(p, pq) {
                    return false;
                }
            }
        }
        true
    }

    /// Signature check: `false` means mapping `p -> t` cannot be part of
    /// any full embedding (only invoked when `use_sigs` is sound).
    #[inline]
    fn sig_admits(&self, p: NodeId, ts: NodeSig) -> bool {
        let ps = self.plan.sigs[p.index()];
        ps.label == ts.label && ps.degree <= ts.degree && ps.nbr_bits & ts.nbr_bits == ps.nbr_bits
    }

    /// Returns false if the search should stop entirely.
    fn search(&mut self, depth: usize) -> bool {
        if depth == self.plan.order.len() {
            self.found += 1;
            if !(self.visit)(&self.core_p, &self.core_e) || self.found >= self.opts.max_embeddings {
                return false;
            }
            return true;
        }
        let pattern = self.plan.pattern;
        let p = self.plan.order[depth];
        // candidate targets: neighbors of the image of a mapped pattern
        // neighbor, or every unmapped target node if p starts a component
        let anchor = pattern
            .neighbors(p)
            .map(|(q, _)| self.core_p[q.index()])
            .find(|&a| a != UNMAPPED);
        // this node's candidates sit on top of the shared stack, above
        // those of its ancestors, until it returns
        let base = self.stack.len();
        let free = |t: &NodeId| self.core_t[t.index()] == UNMAPPED;
        let candidates = &mut self.stack;
        match (anchor, self.idx) {
            (Some(a), _) => {
                candidates.extend(self.target.neighbors(a).map(|(t, _)| t).filter(free))
            }
            // label buckets: same nodes the naive scan keeps after its
            // label check, in the same id order
            (None, Some(ix)) => candidates.extend(
                ix.candidate_nodes(pattern.node_label(p), self.opts.wildcard)
                    .into_iter()
                    .filter(free),
            ),
            (None, None) => candidates.extend(self.target.nodes().filter(free)),
        }
        for i in base..self.stack.len() {
            let t = self.stack[i];
            if self.use_sigs {
                if let Some(ix) = self.idx {
                    if !self.sig_admits(p, ix.sig(t)) {
                        // cannot complete any embedding: skip without
                        // spending search budget
                        self.pruned += 1;
                        continue;
                    }
                }
            }
            self.states += 1;
            if self.states > self.opts.max_states {
                return false;
            }
            if let Some(m) = &mut self.meter {
                if let Err(e) = m.tick() {
                    self.abort = Some(e);
                    return false;
                }
            }
            if self.feasible(p, t) {
                self.core_p[p.index()] = t;
                self.core_t[t.index()] = p;
                let cont = self.search(depth + 1);
                self.core_p[p.index()] = UNMAPPED;
                self.core_t[t.index()] = UNMAPPED;
                if !cont {
                    return false;
                }
            }
        }
        self.stack.truncate(base);
        true
    }
}

impl<'p> PatternPlan<'p> {
    /// Compiles `pattern`.
    pub fn new(pattern: &'p Graph) -> Self {
        PatternPlan {
            pattern,
            fingerprint: Fingerprint::of(pattern),
            order: matching_order(pattern),
            sigs: pattern.nodes().map(|v| node_sig(pattern, v)).collect(),
        }
    }

    /// The one search behind every entry point. `idx`, when given, must
    /// have been built from this exact `target`. With `record_edges`
    /// the visitor also gets the target edge of every pattern edge;
    /// without, an empty slice.
    fn run<F: FnMut(&[NodeId], &[EdgeId]) -> bool>(
        &self,
        target: &Graph,
        idx: Option<&GraphIndex>,
        opts: MatchOptions,
        meter: Option<Meter>,
        record_edges: bool,
        visit: F,
    ) -> Result<SearchOutcome, VqiError> {
        let empty = |filtered| SearchOutcome {
            complete: true,
            embeddings: 0,
            filtered,
        };
        let pattern = self.pattern;
        if pattern.node_count() == 0 {
            return Ok(empty(false));
        }
        if pattern.node_count() > target.node_count() || pattern.edge_count() > target.edge_count()
        {
            return Ok(empty(true));
        }
        if let Some(ix) = idx {
            // constant-time infeasibility: no embedding can exist, so the
            // (empty, complete) outcome is exact
            if !subgraph_feasible(&self.fingerprint, ix.fingerprint(), opts.wildcard) {
                vqi_observe::incr("kernel.iso.skip_fingerprint", 1);
                return Ok(empty(true));
            }
        }
        let use_sigs = idx.is_some_and(|ix| {
            !opts.wildcard || (!ix.fingerprint().has_wildcard() && !self.fingerprint.has_wildcard())
        });
        let mut vf2 = Vf2 {
            plan: self,
            target,
            idx,
            opts,
            use_sigs,
            core_p: vec![UNMAPPED; pattern.node_count()],
            core_t: vec![UNMAPPED; target.node_count()],
            core_e: if record_edges {
                vec![EdgeId(u32::MAX); pattern.edge_count()]
            } else {
                Vec::new()
            },
            stack: Vec::new(),
            states: 0,
            found: 0,
            pruned: 0,
            meter,
            abort: None,
            visit,
        };
        let complete = vf2.search(0);
        if vf2.pruned > 0 {
            vqi_observe::incr("kernel.iso.pruned", vf2.pruned);
        }
        if let Some(e) = vf2.abort {
            return Err(e);
        }
        Ok(SearchOutcome {
            complete,
            embeddings: vf2.found,
            filtered: false,
        })
    }

    /// Enumerates embeddings into `target` (through `idx` when given,
    /// which must be built from this exact `target`), invoking `visit`
    /// with each mapping (`mapping[p.index()]` = target node). The
    /// visitor returns `false` to stop early.
    pub fn enumerate<F: FnMut(&[NodeId]) -> bool>(
        &self,
        target: &Graph,
        idx: Option<&GraphIndex>,
        opts: MatchOptions,
        mut visit: F,
    ) -> SearchOutcome {
        // without a meter the search cannot abort
        self.run(target, idx, opts, None, false, |mapping, _| visit(mapping))
            .unwrap_or(SearchOutcome {
                complete: false,
                embeddings: 0,
                filtered: false,
            })
    }

    /// Budget-aware [`enumerate`](Self::enumerate): a [`Meter`] from
    /// `budget` is ticked once per examined candidate pair, so a tick
    /// quota trips at the same state at any thread count, while a
    /// wall-clock deadline or cancellation is observed within
    /// [`vqi_runtime::ctrl::POLL_INTERVAL`] states. On a trip the error
    /// is returned and the embeddings visited so far stand (the visitor
    /// has already seen them). With an unlimited budget this is exactly
    /// [`enumerate`](Self::enumerate).
    pub fn enumerate_ctrl<F: FnMut(&[NodeId]) -> bool>(
        &self,
        target: &Graph,
        idx: Option<&GraphIndex>,
        opts: MatchOptions,
        budget: &Budget,
        mut visit: F,
    ) -> Result<SearchOutcome, VqiError> {
        self.run(
            target,
            idx,
            opts,
            Some(budget.meter("kernel.vf2")),
            false,
            |mapping, _| visit(mapping),
        )
    }

    /// True if the pattern occurs in `target`.
    pub fn is_subgraph_of(
        &self,
        target: &Graph,
        idx: Option<&GraphIndex>,
        opts: MatchOptions,
    ) -> bool {
        self.enumerate(target, idx, opts, |_| false).embeddings > 0
    }

    /// Counts embeddings into `target` (up to `opts.max_embeddings`).
    pub fn count(&self, target: &Graph, idx: Option<&GraphIndex>, opts: MatchOptions) -> usize {
        self.enumerate(target, idx, opts, |_| true).embeddings
    }

    /// The set of `target` edge ids touched by the embeddings the
    /// search visits (deduplicated, sorted), read off the edges it
    /// matched. Enumeration is capped by `opts`: a search the caps stop
    /// early returns the edges of the embeddings it reached first, a
    /// prefix of the answer, and counts `kernel.iso.truncated`. On a
    /// hub-heavy network many chain and star patterns hit the coverage
    /// caps; stars have an exact closed form in [`crate::star`].
    pub fn covered_edges(
        &self,
        target: &Graph,
        idx: Option<&GraphIndex>,
        opts: MatchOptions,
    ) -> Vec<EdgeId> {
        let mut covered = vec![false; target.edge_count()];
        // without a meter the search cannot abort
        let out = self.run(target, idx, opts, None, true, |_, edges| {
            for te in edges {
                covered[te.index()] = true;
            }
            true
        });
        if out.is_ok_and(|o| !o.complete) {
            vqi_observe::incr("kernel.iso.truncated", 1);
        }
        covered
            .iter()
            .enumerate()
            .filter(|(_, &c)| c)
            .map(|(i, _)| EdgeId(i as u32))
            .collect()
    }
}

/// Enumerates embeddings of `pattern` into `target`, invoking `visit` with
/// each mapping (`mapping[p.index()]` = target node). The visitor returns
/// `false` to stop early.
pub fn enumerate_embeddings<F: FnMut(&[NodeId]) -> bool>(
    pattern: &Graph,
    target: &Graph,
    opts: MatchOptions,
    visit: F,
) -> SearchOutcome {
    PatternPlan::new(pattern).enumerate(target, None, opts, visit)
}

/// Collects up to `opts.max_embeddings` embeddings as mapping vectors.
pub fn find_embeddings(pattern: &Graph, target: &Graph, opts: MatchOptions) -> Vec<Vec<NodeId>> {
    let mut out = Vec::new();
    enumerate_embeddings(pattern, target, opts, |m| {
        out.push(m.to_vec());
        true
    });
    out
}

/// True if `pattern` is subgraph-isomorphic to `target`.
///
/// ```
/// use vqi_graph::generate::{chain, cycle};
/// use vqi_graph::iso::{is_subgraph_isomorphic, MatchOptions};
///
/// let path = chain(3, 0, 0);
/// let hexagon = cycle(6, 0, 0);
/// assert!(is_subgraph_isomorphic(&path, &hexagon, MatchOptions::default()));
/// assert!(!is_subgraph_isomorphic(&hexagon, &path, MatchOptions::default()));
/// ```
pub fn is_subgraph_isomorphic(pattern: &Graph, target: &Graph, opts: MatchOptions) -> bool {
    PatternPlan::new(pattern).is_subgraph_of(target, None, opts)
}

/// Counts embeddings (up to `opts.max_embeddings`).
pub fn count_embeddings(pattern: &Graph, target: &Graph, opts: MatchOptions) -> usize {
    PatternPlan::new(pattern).count(target, None, opts)
}

/// True if `a` and `b` are isomorphic as labeled graphs.
pub fn are_isomorphic(a: &Graph, b: &Graph) -> bool {
    if a.node_count() != b.node_count()
        || a.edge_count() != b.edge_count()
        || a.node_label_multiset() != b.node_label_multiset()
        || a.edge_label_multiset() != b.edge_label_multiset()
    {
        return false;
    }
    is_subgraph_isomorphic(a, b, MatchOptions::induced())
}

/// The set of target edge ids touched by any embedding of `pattern`
/// ([`PatternPlan::covered_edges`] on a fresh plan).
pub fn covered_edges(pattern: &Graph, target: &Graph, opts: MatchOptions) -> Vec<EdgeId> {
    PatternPlan::new(pattern).covered_edges(target, None, opts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;

    fn triangle(l: Label) -> Graph {
        GraphBuilder::new()
            .nodes(&[l, l, l])
            .edge(0, 1, 0)
            .edge(1, 2, 0)
            .edge(0, 2, 0)
            .build()
    }

    fn path(n: usize, l: Label) -> Graph {
        let mut g = Graph::new();
        let mut prev = g.add_node(l);
        for _ in 1..n {
            let cur = g.add_node(l);
            g.add_edge(prev, cur, 0);
            prev = cur;
        }
        g
    }

    #[test]
    fn triangle_in_triangle() {
        let t = triangle(5);
        assert!(is_subgraph_isomorphic(&t, &t, MatchOptions::default()));
        // 6 automorphisms
        assert_eq!(count_embeddings(&t, &t, MatchOptions::default()), 6);
    }

    #[test]
    fn path_in_triangle_non_induced_only() {
        let p = path(3, 5);
        let t = triangle(5);
        assert!(is_subgraph_isomorphic(&p, &t, MatchOptions::default()));
        // induced P3 does not exist in a triangle
        assert!(!is_subgraph_isomorphic(&p, &t, MatchOptions::induced()));
    }

    #[test]
    fn labels_block_matches() {
        let p = triangle(1);
        let t = triangle(2);
        assert!(!is_subgraph_isomorphic(&p, &t, MatchOptions::default()));
        // wildcard pattern matches anything
        let mut w = triangle(WILDCARD_LABEL);
        w.set_edge_label(EdgeId(0), WILDCARD_LABEL);
        assert!(is_subgraph_isomorphic(
            &w,
            &t,
            MatchOptions::with_wildcards()
        ));
        assert!(!is_subgraph_isomorphic(&w, &t, MatchOptions::default()));
    }

    #[test]
    fn edge_labels_must_match() {
        let p = GraphBuilder::new().nodes(&[0, 0]).edge(0, 1, 7).build();
        let t = GraphBuilder::new().nodes(&[0, 0]).edge(0, 1, 8).build();
        assert!(!is_subgraph_isomorphic(&p, &t, MatchOptions::default()));
        let t2 = GraphBuilder::new().nodes(&[0, 0]).edge(0, 1, 7).build();
        assert!(is_subgraph_isomorphic(&p, &t2, MatchOptions::default()));
    }

    #[test]
    fn bigger_pattern_never_matches() {
        let p = path(4, 0);
        let t = path(3, 0);
        assert!(!is_subgraph_isomorphic(&p, &t, MatchOptions::default()));
    }

    #[test]
    fn empty_pattern_has_no_embeddings() {
        let t = triangle(0);
        assert_eq!(
            count_embeddings(&Graph::new(), &t, MatchOptions::default()),
            0
        );
    }

    #[test]
    fn disconnected_pattern_matches() {
        // two isolated labeled nodes as pattern
        let mut p = Graph::new();
        p.add_node(1);
        p.add_node(2);
        let mut t = Graph::new();
        let a = t.add_node(1);
        let b = t.add_node(2);
        t.add_edge(a, b, 0);
        assert!(is_subgraph_isomorphic(&p, &t, MatchOptions::default()));
        // induced: the two images must not be adjacent -> fails here
        assert!(!is_subgraph_isomorphic(&p, &t, MatchOptions::induced()));
    }

    #[test]
    fn embedding_mappings_are_valid() {
        let p = path(3, 5);
        let t = triangle(5);
        for m in find_embeddings(&p, &t, MatchOptions::default()) {
            assert_eq!(m.len(), 3);
            for e in p.edges() {
                let (u, v) = p.endpoints(e);
                assert!(t.has_edge(m[u.index()], m[v.index()]));
            }
        }
    }

    #[test]
    fn covered_edges_of_triangle_pattern() {
        // target: triangle plus a pendant edge; a triangle pattern covers
        // exactly the triangle edges
        let mut t = triangle(5);
        let x = t.add_node(5);
        t.add_edge(NodeId(0), x, 0);
        let covered = covered_edges(&triangle(5), &t, MatchOptions::default());
        assert_eq!(covered, vec![EdgeId(0), EdgeId(1), EdgeId(2)]);
    }

    #[test]
    fn isomorphism_is_permutation_invariant() {
        let g = GraphBuilder::new()
            .nodes(&[1, 2, 3, 4])
            .edge(0, 1, 9)
            .edge(1, 2, 8)
            .edge(2, 3, 7)
            .edge(3, 0, 6)
            .build();
        let h = g.permuted(&[3, 1, 0, 2]);
        assert!(are_isomorphic(&g, &h));
        // changing one edge label breaks it
        let mut h2 = h.clone();
        h2.set_edge_label(EdgeId(0), 99);
        assert!(!are_isomorphic(&g, &h2));
    }

    #[test]
    fn max_embeddings_caps_enumeration() {
        let t = triangle(0);
        let opts = MatchOptions {
            max_embeddings: 2,
            ..Default::default()
        };
        assert_eq!(count_embeddings(&t, &t, opts), 2);
    }

    #[test]
    fn indexed_matching_is_answer_identical_to_naive() {
        use crate::generate::{assign_labels, erdos_renyi};
        use rand::rngs::SmallRng;
        use rand::SeedableRng;
        for seed in 0..12u64 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut target = erdos_renyi(14, 0.3, 0, &mut rng);
            assign_labels(&mut target, 3, 2, &mut rng);
            let mut pattern = erdos_renyi(4, 0.6, 0, &mut rng);
            assign_labels(&mut pattern, 3, 2, &mut rng);
            if seed % 3 == 0 {
                // exercise the wildcard paths (sig pruning must bow out)
                target.set_node_label(NodeId(0), WILDCARD_LABEL);
                pattern.set_node_label(NodeId(1), WILDCARD_LABEL);
            }
            let idx = GraphIndex::build(&target);
            for opts in [
                MatchOptions::default(),
                MatchOptions::induced(),
                MatchOptions::with_wildcards(),
            ] {
                let naive = find_embeddings(&pattern, &target, opts);
                let mut indexed = Vec::new();
                PatternPlan::new(&pattern).enumerate(&target, Some(&idx), opts, |m| {
                    indexed.push(m.to_vec());
                    true
                });
                assert_eq!(naive, indexed, "seed {seed}: embeddings (order included)");
                let plan = PatternPlan::new(&pattern);
                assert_eq!(
                    count_embeddings(&pattern, &target, opts),
                    plan.count(&target, Some(&idx), opts),
                    "seed {seed}: counts"
                );
                assert_eq!(
                    is_subgraph_isomorphic(&pattern, &target, opts),
                    plan.is_subgraph_of(&target, Some(&idx), opts),
                    "seed {seed}: existence"
                );
                assert_eq!(
                    covered_edges(&pattern, &target, opts),
                    plan.covered_edges(&target, Some(&idx), opts),
                    "seed {seed}: covered edges"
                );
            }
        }
    }

    #[test]
    fn one_plan_reused_across_targets_equals_fresh_searches() {
        use crate::generate::{assign_labels, erdos_renyi};
        use rand::rngs::SmallRng;
        use rand::SeedableRng;
        let truncated = MatchOptions {
            max_states: 12,
            ..Default::default()
        };
        let (mut found, mut cut) = (0, 0);
        for seed in 0..8u64 {
            let mut rng = SmallRng::seed_from_u64(1000 + seed);
            let mut pattern = erdos_renyi(4, 0.6, 0, &mut rng);
            assign_labels(&mut pattern, 3, 2, &mut rng);
            if seed % 2 == 0 {
                pattern.set_node_label(NodeId(1), WILDCARD_LABEL);
            }
            let targets: Vec<Graph> = (0..10usize)
                .map(|i| {
                    let mut t = erdos_renyi(10 + i % 5, 0.35, 0, &mut rng);
                    assign_labels(&mut t, 3, 2, &mut rng);
                    if i % 4 == 0 {
                        t.set_node_label(NodeId(0), WILDCARD_LABEL);
                    }
                    t
                })
                .collect();
            let indexes: Vec<GraphIndex> = targets.iter().map(GraphIndex::build).collect();
            // one plan serves every target, option set and index choice
            let plan = PatternPlan::new(&pattern);
            for opts in [
                MatchOptions::default(),
                MatchOptions::with_wildcards(),
                MatchOptions::induced(),
                truncated,
            ] {
                for (t, idx) in targets.iter().zip(&indexes) {
                    for indexed in [true, false] {
                        let ix = indexed.then_some(idx);
                        let mut reused = Vec::new();
                        let got = plan.enumerate(t, ix, opts, |m| {
                            reused.push(m.to_vec());
                            true
                        });
                        let mut fresh = Vec::new();
                        let push = |m: &[NodeId]| {
                            fresh.push(m.to_vec());
                            true
                        };
                        let (want, want_edges) = if indexed {
                            (
                                PatternPlan::new(&pattern).enumerate(t, Some(idx), opts, push),
                                PatternPlan::new(&pattern).covered_edges(t, Some(idx), opts),
                            )
                        } else {
                            (
                                enumerate_embeddings(&pattern, t, opts, push),
                                covered_edges(&pattern, t, opts),
                            )
                        };
                        let what = format!("seed {seed}, indexed {indexed}, {opts:?}");
                        assert_eq!((got, &reused), (want, &fresh), "{what}");
                        assert_eq!(plan.covered_edges(t, ix, opts), want_edges, "{what}");
                        found += reused.len();
                        cut += usize::from(!got.complete);
                    }
                }
            }
        }
        assert!(found > 0 && cut > 0, "found {found}, truncated {cut}");
    }

    #[test]
    fn covered_edges_are_the_edges_of_the_visited_embeddings() {
        // the edges the search records while matching must be the ones
        // an edge lookup per pattern edge of each embedding finds
        use crate::generate::{assign_labels, erdos_renyi};
        use rand::rngs::SmallRng;
        use rand::SeedableRng;
        let truncated = MatchOptions {
            max_states: 20,
            ..Default::default()
        };
        let mut covered = 0;
        for seed in 0..16u64 {
            let mut rng = SmallRng::seed_from_u64(3000 + seed);
            let mut pattern = erdos_renyi(3 + (seed as usize) % 3, 0.6, 0, &mut rng);
            assign_labels(&mut pattern, 2, 2, &mut rng);
            if seed % 3 == 0 {
                pattern.set_edge_label(EdgeId(0), WILDCARD_LABEL);
            }
            let mut target = erdos_renyi(12, 0.4, 0, &mut rng);
            assign_labels(&mut target, 2, 2, &mut rng);
            let idx = GraphIndex::build(&target);
            let plan = PatternPlan::new(&pattern);
            for opts in [
                MatchOptions::default(),
                MatchOptions::with_wildcards(),
                MatchOptions::induced(),
                truncated,
            ] {
                for ix in [None, Some(&idx)] {
                    let mut want = vec![false; target.edge_count()];
                    plan.enumerate(&target, ix, opts, |m| {
                        for e in pattern.edges() {
                            let (u, v) = pattern.endpoints(e);
                            let te = target.edge_between(m[u.index()], m[v.index()]);
                            want[te.expect("an embedding maps edges onto edges").index()] = true;
                        }
                        true
                    });
                    let want: Vec<EdgeId> = target.edges().filter(|e| want[e.index()]).collect();
                    assert_eq!(
                        plan.covered_edges(&target, ix, opts),
                        want,
                        "seed {seed}, indexed {}, {opts:?}",
                        ix.is_some()
                    );
                    covered += want.len();
                }
            }
        }
        assert!(covered > 0);
    }

    #[test]
    fn filtered_outcome_is_exactly_the_constant_time_refusal() {
        use crate::generate::{assign_labels, erdos_renyi};
        use rand::rngs::SmallRng;
        use rand::SeedableRng;
        let (mut refused, mut searched) = (0, 0);
        for seed in 0..40u64 {
            let mut rng = SmallRng::seed_from_u64(2000 + seed);
            let mut pattern = erdos_renyi(3 + (seed as usize) % 4, 0.6, 0, &mut rng);
            assign_labels(&mut pattern, 3, 2, &mut rng);
            let mut target = erdos_renyi(4 + (seed as usize) % 5, 0.4, 0, &mut rng);
            assign_labels(&mut target, 3, 2, &mut rng);
            let idx = GraphIndex::build(&target);
            let plan = PatternPlan::new(&pattern);
            let too_big = pattern.node_count() > target.node_count()
                || pattern.edge_count() > target.edge_count();
            for opts in [MatchOptions::default(), MatchOptions::with_wildcards()] {
                let naive = plan.enumerate(&target, None, opts, |_| true);
                assert_eq!(naive.filtered, too_big, "seed {seed}");
                let feasible =
                    subgraph_feasible(&Fingerprint::of(&pattern), idx.fingerprint(), opts.wildcard);
                let indexed = plan.enumerate(&target, Some(&idx), opts, |_| true);
                assert_eq!(indexed.filtered, !feasible, "seed {seed}");
                if indexed.filtered {
                    assert_eq!((indexed.complete, indexed.embeddings), (true, 0));
                    refused += 1;
                } else {
                    searched += 1;
                }
            }
        }
        // the empty pattern is answered, not refused
        let t = triangle(0);
        let empty = Graph::new();
        let out = PatternPlan::new(&empty).enumerate(
            &t,
            Some(&GraphIndex::build(&t)),
            MatchOptions::default(),
            |_| true,
        );
        assert!(!out.filtered && out.complete && out.embeddings == 0);
        assert!(
            refused > 0 && searched > 0,
            "refused {refused}, searched {searched}"
        );
    }

    #[test]
    fn indexed_matching_handles_disconnected_patterns() {
        // disconnected patterns re-seed the matching order, exercising
        // the unanchored label-bucket path at depth > 0
        let mut p = Graph::new();
        p.add_node(1);
        p.add_node(2);
        let mut t = Graph::new();
        let a = t.add_node(1);
        let b = t.add_node(2);
        t.add_edge(a, b, 0);
        let idx = GraphIndex::build(&t);
        for opts in [MatchOptions::default(), MatchOptions::induced()] {
            assert_eq!(
                is_subgraph_isomorphic(&p, &t, opts),
                PatternPlan::new(&p).is_subgraph_of(&t, Some(&idx), opts)
            );
        }
    }

    #[test]
    fn fingerprint_skip_reports_complete_empty_outcome() {
        // label histograms disjoint: the fingerprint rejects before any
        // search happens, and the outcome is exact
        let p = path(3, 1);
        let t = path(8, 2);
        let idx = GraphIndex::build(&t);
        let out = PatternPlan::new(&p).enumerate(&t, Some(&idx), MatchOptions::default(), |_| true);
        assert!(out.complete);
        assert_eq!(out.embeddings, 0);
    }

    #[test]
    fn ctrl_with_unlimited_budget_matches_plain() {
        use crate::generate::{assign_labels, erdos_renyi};
        use rand::rngs::SmallRng;
        use rand::SeedableRng;
        let b = Budget::unlimited();
        for seed in 0..6u64 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut target = erdos_renyi(12, 0.3, 0, &mut rng);
            assign_labels(&mut target, 3, 2, &mut rng);
            let mut pattern = erdos_renyi(4, 0.6, 0, &mut rng);
            assign_labels(&mut pattern, 3, 2, &mut rng);
            let idx = GraphIndex::build(&target);
            let opts = MatchOptions::default();
            let plan = PatternPlan::new(&pattern);
            let count = |ix| plan.enumerate_ctrl(&target, ix, opts, &b, |_| true);
            assert_eq!(
                count_embeddings(&pattern, &target, opts),
                count(None).unwrap().embeddings
            );
            assert_eq!(
                plan.count(&target, Some(&idx), opts),
                count(Some(&idx)).unwrap().embeddings
            );
        }
    }

    #[test]
    fn tick_quota_trips_deterministically_mid_search() {
        let t = triangle(0);
        // enumerate the 6 automorphisms with a quota that trips midway;
        // the prefix of embeddings seen before the trip must be stable
        let run = |ticks: u64| -> (Vec<Vec<NodeId>>, Result<SearchOutcome, VqiError>) {
            let b = Budget::unlimited().with_kernel_ticks(ticks);
            let mut seen = Vec::new();
            let plan = PatternPlan::new(&t);
            let r = plan.enumerate_ctrl(&t, None, MatchOptions::default(), &b, |m| {
                seen.push(m.to_vec());
                true
            });
            (seen, r)
        };
        let full = find_embeddings(&t, &t, MatchOptions::default());
        let (seen_a, ra) = run(5);
        let (seen_b, rb) = run(5);
        assert_eq!(seen_a, seen_b, "same quota, same prefix");
        assert_eq!(ra, rb);
        assert!(matches!(ra, Err(VqiError::QuotaExceeded { .. })));
        assert!(seen_a.len() < full.len());
        assert_eq!(seen_a[..], full[..seen_a.len()], "prefix of full order");
        // a generous quota completes with the plain result
        let (seen_full, r_full) = run(1_000);
        assert_eq!(seen_full, full);
        assert!(r_full.unwrap().complete);
    }

    #[test]
    fn canceled_budget_stops_the_search() {
        let token = vqi_runtime::CancelToken::new();
        token.cancel();
        let b = Budget::unlimited().with_cancel(token);
        // large search so the poll interval is reached
        let mut t = Graph::new();
        let nodes: Vec<NodeId> = (0..18).map(|_| t.add_node(0)).collect();
        for i in 0..18 {
            for j in (i + 1)..18 {
                t.add_edge(nodes[i], nodes[j], 0);
            }
        }
        let p = path(6, 0);
        let r =
            PatternPlan::new(&p).enumerate_ctrl(&t, None, MatchOptions::default(), &b, |_| true);
        assert!(matches!(r, Err(VqiError::Canceled { .. })));
    }

    #[test]
    fn state_budget_truncates() {
        let p = path(6, 0);
        let mut t = Graph::new();
        // a 20-clique with uniform labels: many embeddings
        let nodes: Vec<NodeId> = (0..20).map(|_| t.add_node(0)).collect();
        for i in 0..20 {
            for j in (i + 1)..20 {
                t.add_edge(nodes[i], nodes[j], 0);
            }
        }
        let opts = MatchOptions {
            max_states: 100,
            ..Default::default()
        };
        let out = enumerate_embeddings(&p, &t, opts, |_| true);
        assert!(!out.complete);
    }
}
