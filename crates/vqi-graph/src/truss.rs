//! k-truss decomposition.
//!
//! The *k-truss* of a graph is the maximal subgraph in which every edge is
//! contained in at least `k - 2` triangles of the subgraph. The
//! *trussness* of an edge is the largest `k` for which the edge survives
//! in the k-truss. TATTOO uses the decomposition to split a large network
//! into a dense *truss-infested* region `G_T` (edges with trussness ≥ k,
//! i.e. triangle-rich) and a sparse *truss-oblivious* region `G_O` (the
//! remaining edges), mirroring the triangle-like vs. non-triangle-like
//! substructures observed in real query logs.
//!
//! Implemented with the standard peeling algorithm: compute edge supports
//! (triangle counts), then repeatedly remove the edge of minimum support,
//! decrementing the supports of the edges it formed triangles with.
//!
//! **Parallelism.** [`edge_supports`] counts triangles in parallel:
//! root nodes are split into contiguous chunks, each worker accumulates a
//! private `Vec<u32>` of per-edge counts, and the partials are summed in
//! chunk index order. Every triangle `u < v < w` is attributed to its
//! minimum node `u` exactly once, so the per-chunk counts partition the
//! total and the `u32` sums are exactly associative — the result is
//! bit-identical to [`edge_supports_seq`] at any thread count. The peel
//! itself is inherently sequential, but [`trussness`] materializes every
//! triangle once up front (a second mark-trick pass, laid out as a
//! per-edge CSR of partner-edge pairs) so each removal just walks its
//! edge's triangle list — no adjacency lookups at all, instead of the
//! baseline's linear `edge_between` scan per neighbor of the removed
//! edge (`O(deg a · deg)` per removal). [`trussness_baseline`] keeps the
//! pre-optimization path for regression tests and benchmarks. Trussness
//! values are unique whatever the peel's tie-breaking, so both paths
//! agree exactly.
//!
//! **Storage.** Every kernel here is generic over
//! [`crate::storage::GraphStorage`], so the same code peels a heap
//! [`Graph`] or a packed [`crate::storage::CsrGraph`]. Both backends
//! present adjacency rows in identical (insertion) order, and the
//! kernels only ever walk rows in that order — so outputs are
//! bit-identical across backends, at any thread cap.
//!
//! **Incremental maintenance.** [`TrussState`] keeps each edge's
//! support and trussness by the followed graph's own edge ids and
//! reads that graph's rows, so it holds no adjacency of its own; a
//! churn batch moves it in the two phases of [`crate::delta`] and
//! repeels only the affected region. [`TrussMaintainer`] is its
//! standalone owner, with a graph of its own.

use crate::delta::GraphEdit;
use crate::graph::{EdgeId, Graph, NodeId};
use crate::par;
use crate::storage::GraphStorage;
use vqi_runtime::{Budget, Meter, VqiError};

/// Per-edge triangle counts ("support") — single-threaded reference.
pub fn edge_supports_seq<S: GraphStorage + ?Sized>(g: &S) -> Vec<u32> {
    supports_of_roots(g, 0..g.node_count())
}

/// Triangle counts attributed to root nodes in `roots` only: the
/// mark[] trick per root `u`, counting triangles `u < v < w`. With the
/// full range this is the classic sequential algorithm; with a subrange
/// it is one parallel worker's partial.
fn supports_of_roots<S: GraphStorage + ?Sized>(g: &S, roots: std::ops::Range<usize>) -> Vec<u32> {
    let mut support = vec![0u32; g.edge_count()];
    let mut mark = vec![u32::MAX; g.node_count()];
    for u in roots.map(|i| NodeId(i as u32)) {
        for &(v, e) in g.neighbor_slice(u) {
            mark[v.index()] = e.0;
        }
        for &(v, uv) in g.neighbor_slice(u) {
            if v <= u {
                continue;
            }
            for &(w, vw) in g.neighbor_slice(v) {
                if w <= v {
                    continue;
                }
                let uw = mark[w.index()];
                if uw != u32::MAX && w != u {
                    support[uv.index()] += 1;
                    support[vw.index()] += 1;
                    support[uw as usize] += 1;
                }
            }
        }
        for &(v, _) in g.neighbor_slice(u) {
            mark[v.index()] = u32::MAX;
        }
    }
    support
}

/// Per-edge triangle counts ("support").
///
/// Runs the parallel chunked count when the [`par`] executor has more
/// than one thread available, and the sequential reference otherwise —
/// the outputs are bit-identical either way (exact `u32` sums merged in
/// chunk index order).
pub fn edge_supports<S: GraphStorage + ?Sized>(g: &S) -> Vec<u32> {
    // the span covers both paths so span counts stay thread-count
    // invariant; only the .chunks counter is parallel-path specific
    let _s = vqi_observe::span("kernel.truss.supports");
    if par::num_threads() <= 1 || g.node_count() < 2 {
        return edge_supports_seq(g);
    }
    let partials = par::map_chunks(g.node_count(), |roots| supports_of_roots(g, roots));
    vqi_observe::incr("kernel.truss.supports.chunks", partials.len() as u64);
    let mut support = vec![0u32; g.edge_count()];
    // merge per-worker accumulators in chunk index order
    for part in partials {
        for (s, p) in support.iter_mut().zip(part) {
            *s += p;
        }
    }
    support
}

/// The bucket-queue peel, generic over the triangle-partner enumeration
/// so the optimized and baseline paths share every other instruction.
/// `partners(e, a, b, removed, f)` must call `f(aw, bw)` once for every
/// live pair of edges `a--w`, `b--w` completing a triangle with
/// `e = a--b` (`a` is the lower-degree endpoint).
fn peel<S: GraphStorage + ?Sized>(
    g: &S,
    mut support: Vec<u32>,
    partners: impl Fn(EdgeId, NodeId, NodeId, &[bool], &mut dyn FnMut(EdgeId, EdgeId)),
    mut meter: Option<Meter>,
) -> Result<Vec<u32>, VqiError> {
    let m = g.edge_count();
    let mut truss = vec![0u32; m];
    let mut removed = vec![false; m];

    // bucket queue over supports
    let max_sup = support.iter().copied().max().unwrap_or(0) as usize;
    let mut buckets: Vec<Vec<EdgeId>> = vec![Vec::new(); max_sup + 1];
    for e in (0..m).map(|i| EdgeId(i as u32)) {
        buckets[support[e.index()] as usize].push(e);
    }
    let mut k = 2u32;
    let mut processed = 0usize;
    let mut cursor = 0usize;
    while processed < m {
        // one budget tick per peeled edge
        if let Some(mt) = &mut meter {
            mt.tick()?;
        }
        // find the lowest non-empty bucket at or below the current level
        let mut e_opt = None;
        while cursor < buckets.len() {
            // lazily skip stale entries (support decreased since insertion)
            while let Some(&e) = buckets[cursor].last() {
                if removed[e.index()] || support[e.index()] as usize != cursor {
                    buckets[cursor].pop();
                } else {
                    break;
                }
            }
            if buckets[cursor].is_empty() {
                cursor += 1;
            } else {
                e_opt = Some(buckets[cursor].pop().unwrap());
                break;
            }
        }
        let e = match e_opt {
            Some(e) => e,
            None => break,
        };
        let sup_e = support[e.index()];
        k = k.max(sup_e + 2);
        truss[e.index()] = k;
        removed[e.index()] = true;
        processed += 1;

        // decrement supports of edges forming triangles with e
        let (u, v) = g.endpoints(e);
        let (a, b) = if g.degree(u) <= g.degree(v) {
            (u, v)
        } else {
            (v, u)
        };
        partners(e, a, b, &removed, &mut |aw, bw| {
            for &f in &[aw, bw] {
                if support[f.index()] > 0 {
                    support[f.index()] -= 1;
                    let s = support[f.index()] as usize;
                    buckets[s].push(f);
                    if s < cursor {
                        cursor = s;
                    }
                }
            }
        });
    }
    Ok(truss)
}

/// The trussness of every edge: the largest `k` such that the edge belongs
/// to the k-truss. Edges in no triangle have trussness 2.
///
/// Per-edge triangle lists in CSR layout: `pairs[offsets[e]..offsets[e+1]]`
/// are the `(f1, f2)` partner-edge pairs of every triangle containing
/// edge `e`. Sized exactly by the supports (each triangle contributes
/// one entry to each of its three edges).
struct TriangleLists {
    offsets: Vec<usize>,
    pairs: Vec<(EdgeId, EdgeId)>,
}

impl TriangleLists {
    fn build<S: GraphStorage + ?Sized>(g: &S, support: &[u32]) -> TriangleLists {
        let m = g.edge_count();
        let mut offsets = vec![0usize; m + 1];
        for e in 0..m {
            offsets[e + 1] = offsets[e] + support[e] as usize;
        }
        let mut pairs = vec![(EdgeId(0), EdgeId(0)); offsets[m]];
        let mut cursor = offsets.clone();
        let mut push = |e: EdgeId, f1: EdgeId, f2: EdgeId| {
            pairs[cursor[e.index()]] = (f1, f2);
            cursor[e.index()] += 1;
        };
        // the same mark-trick enumeration as supports_of_roots, recording
        // each triangle u < v < w on all three of its edges
        let mut mark = vec![u32::MAX; g.node_count()];
        for u in (0..g.node_count()).map(|i| NodeId(i as u32)) {
            for &(v, e) in g.neighbor_slice(u) {
                mark[v.index()] = e.0;
            }
            for &(v, uv) in g.neighbor_slice(u) {
                if v <= u {
                    continue;
                }
                for &(w, vw) in g.neighbor_slice(v) {
                    if w <= v {
                        continue;
                    }
                    let uw = mark[w.index()];
                    if uw != u32::MAX && w != u {
                        let uw = EdgeId(uw);
                        push(uv, vw, uw);
                        push(vw, uv, uw);
                        push(uw, uv, vw);
                    }
                }
            }
            for &(v, _) in g.neighbor_slice(u) {
                mark[v.index()] = u32::MAX;
            }
        }
        TriangleLists { offsets, pairs }
    }

    #[inline]
    fn of(&self, e: EdgeId) -> &[(EdgeId, EdgeId)] {
        &self.pairs[self.offsets[e.index()]..self.offsets[e.index() + 1]]
    }
}

/// Supports come from the (parallel) [`edge_supports`]; the peel walks
/// precomputed per-edge [`TriangleLists`] instead of probing adjacency.
/// Output is identical to [`trussness_baseline`]: both enumerate exactly
/// the live triangles of the removed edge, supports reach the same
/// values whatever the decrement order, and trussness is unique
/// regardless of tie-breaks among equal-support edges.
pub fn trussness<S: GraphStorage + ?Sized>(g: &S) -> Vec<u32> {
    // without a meter the peel cannot abort
    trussness_full(g, None).unwrap_or_default()
}

/// Budget-aware [`trussness`]: one [`Meter`] tick per peeled edge. A
/// deterministic tick quota trips at the same edge regardless of
/// thread count; deadlines and cancellation are observed within
/// [`vqi_runtime::ctrl::POLL_INTERVAL`] peels. With an unlimited
/// budget the result equals [`trussness`] exactly.
pub fn trussness_ctrl<S: GraphStorage + ?Sized>(
    g: &S,
    ctrl: &Budget,
) -> Result<Vec<u32>, VqiError> {
    ctrl.check("kernel.truss")?;
    trussness_full(g, Some(ctrl.meter("kernel.truss")))
}

fn trussness_full<S: GraphStorage + ?Sized>(
    g: &S,
    meter: Option<Meter>,
) -> Result<Vec<u32>, VqiError> {
    let _s = vqi_observe::span("kernel.truss.peel");
    vqi_observe::incr("kernel.truss.peel.edges", g.edge_count() as u64);
    let support = edge_supports(g);
    let tri = TriangleLists::build(g, &support);
    vqi_observe::incr("kernel.truss.triangles", (tri.pairs.len() / 3) as u64);
    peel(
        g,
        support,
        |e, _a, _b, removed, f| {
            for &(f1, f2) in tri.of(e) {
                if !removed[f1.index()] && !removed[f2.index()] {
                    f(f1, f2);
                }
            }
        },
        meter,
    )
}

/// The pre-optimization trussness path: sequential supports and linear
/// `edge_between` scans in the peel. Kept as the reference for the
/// regression tests and the `exp_pipelines` benchmark baseline.
pub fn trussness_baseline(g: &Graph) -> Vec<u32> {
    let support = edge_supports_seq(g);
    let peeled = peel(
        g,
        support,
        |_e, a, b, removed, f| {
            for (w, aw) in g.neighbors(a) {
                if removed[aw.index()] || w == b {
                    continue;
                }
                if let Some(bw) = g.edge_between(b, w) {
                    if !removed[bw.index()] {
                        f(aw, bw);
                    }
                }
            }
        },
        None,
    );
    // unreachable Err: without a meter the peel cannot abort
    peeled.unwrap_or_default()
}

/// The decomposition TATTOO operates on.
#[derive(Debug, Clone)]
pub struct TrussDecomposition {
    /// Trussness per edge of the original graph.
    pub trussness: Vec<u32>,
    /// Threshold used for the split.
    pub k: u32,
    /// Edges of the truss-infested region (trussness ≥ k).
    pub infested_edges: Vec<EdgeId>,
    /// Edges of the truss-oblivious region (trussness < k).
    pub oblivious_edges: Vec<EdgeId>,
}

impl TrussDecomposition {
    /// Materializes the truss-infested region `G_T` as a graph, returning
    /// it with the node mapping back to the original graph.
    pub fn infested_graph(&self, g: &Graph) -> (Graph, Vec<NodeId>) {
        g.edge_subgraph(&self.infested_edges)
    }

    /// Materializes the truss-oblivious region `G_O`.
    pub fn oblivious_graph(&self, g: &Graph) -> (Graph, Vec<NodeId>) {
        g.edge_subgraph(&self.oblivious_edges)
    }
}

/// Splits `g` into truss-infested (trussness ≥ k) and truss-oblivious
/// regions. `k = 3` separates "in at least one triangle of the 3-truss"
/// from the rest and is TATTOO's default.
///
/// ```
/// use vqi_graph::generate::{clique, chain};
/// use vqi_graph::truss::decompose;
/// use vqi_graph::NodeId;
///
/// // a K4 with a pendant edge: the clique is 4-truss, the tail is not
/// let mut g = clique(4, 0, 0);
/// let tail = g.add_node(0);
/// g.add_edge(NodeId(0), tail, 0);
/// let d = decompose(&g, 3);
/// assert_eq!(d.infested_edges.len(), 6);
/// assert_eq!(d.oblivious_edges.len(), 1);
/// ```
pub fn decompose<S: GraphStorage + ?Sized>(g: &S, k: u32) -> TrussDecomposition {
    split(g, k, trussness(g))
}

/// Budget-aware [`decompose`]; see [`trussness_ctrl`] for the budget
/// semantics. With an unlimited budget the result equals
/// [`decompose`] exactly.
pub fn decompose_ctrl<S: GraphStorage + ?Sized>(
    g: &S,
    k: u32,
    ctrl: &Budget,
) -> Result<TrussDecomposition, VqiError> {
    Ok(split(g, k, trussness_ctrl(g, ctrl)?))
}

fn split<S: GraphStorage + ?Sized>(g: &S, k: u32, t: Vec<u32>) -> TrussDecomposition {
    let mut infested = Vec::new();
    let mut oblivious = Vec::new();
    for e in (0..g.edge_count()).map(|i| EdgeId(i as u32)) {
        if t[e.index()] >= k {
            infested.push(e);
        } else {
            oblivious.push(e);
        }
    }
    TrussDecomposition {
        trussness: t,
        k,
        infested_edges: infested,
        oblivious_edges: oblivious,
    }
}

// ---------------------------------------------------------------------------
// Incremental maintenance
// ---------------------------------------------------------------------------

/// Per-batch statistics of a [`TrussMaintainer::apply`] call.
#[derive(Debug, Clone, Copy, Default)]
pub struct TrussDeltaStats {
    /// Edge inserts actually applied (duplicates/self-loops skipped).
    pub inserts: usize,
    /// Edge deletes actually applied (missing edges skipped).
    pub deletes: usize,
    /// Mutations skipped as no-ops.
    pub skipped: usize,
    /// Edges in the affected region at fixpoint (the repeel working set).
    pub region_edges: usize,
    /// Local peel rounds until the cascade frontier closed.
    pub peel_rounds: usize,
    /// Edges whose trussness changed (including fresh inserts).
    pub changed: usize,
}

/// Calls `f(uw, vw)` for every common neighbour `w` of `u` and `v`
/// whose edges `uw` and `vw` both pass `live`, by the mark-array
/// intersection of [`supports_of_roots`], in O(deg u + deg v). `mark`
/// holds one `u32::MAX` per node and is restored before returning.
fn triangles_on(
    g: &Graph,
    (u, v): (NodeId, NodeId),
    mark: &mut [u32],
    live: impl Fn(EdgeId) -> bool,
    mut f: impl FnMut(EdgeId, EdgeId),
) {
    for &(w, uw) in g.neighbor_slice(u) {
        if w != v && live(uw) {
            mark[w.index()] = uw.0;
        }
    }
    for &(w, vw) in g.neighbor_slice(v) {
        let uw = mark[w.index()];
        if uw != u32::MAX && live(vw) {
            f(EdgeId(uw), vw);
        }
    }
    for &(w, _) in g.neighbor_slice(u) {
        mark[w.index()] = u32::MAX;
    }
}

/// Drops the entries at the ascending ids `dead`, keeping the rest in
/// order: the renumbering of [`Graph::remove_edges`].
fn compact(values: &mut Vec<u32>, dead: &[EdgeId]) {
    let (mut kept, mut from) = (0, 0);
    // the runs between the removed ids move down in one copy each
    for end in dead.iter().map(|d| d.index()).chain([values.len()]) {
        if kept != from {
            values.copy_within(from..end, kept);
        }
        kept += end - from;
        from = end + 1;
    }
    values.truncate(kept);
}

/// Incremental k-truss state of a graph: each edge's support and
/// trussness, indexed by the graph's own edge ids and read against its
/// own rows. A batch moves it in two phases around the graph's edit
/// (see [`crate::delta`]), and only the *affected region* is repeeled.
///
/// **Affected region.** Deletes and inserts first touch the edges whose
/// support changed (the triangle partners of every mutated edge) — the
/// seeds. Insert batches additionally pull in every edge whose trussness
/// could *rise*: trussness grows by at most 1 per inserted edge, and a
/// rise propagates only along triangle-connected chains, so a
/// breadth-first closure adds any exterior edge `y` sharing a triangle
/// `(x, y, z)` with a region edge `x` when `truss(y) < ub(x)` and
/// `truss(z) + I ≥ truss(y) + 1` (with `I` the batch's insert count and
/// `ub(x) = min(truss(x) + I, support(x) + 2)` the rise ceiling).
///
/// **Local repeel.** The region is peeled with the same bucket-queue
/// discipline as [`trussness`], with exterior triangle members *frozen*
/// at their old trussness: a triangle with exterior members dies when
/// the peel level reaches the minimum exterior trussness. Deletions only
/// lower trussness, so the frozen exterior is exact unless a region
/// edge's value actually changes — in which case the cascade frontier
/// (exterior triangle partners of changed edges) is folded into the
/// region and the peel reruns until no frontier remains. At fixpoint the
/// old values form a valid truss certificate outside the region, so the
/// committed result equals a from-scratch peel exactly (property-tested
/// against [`trussness`] across insert/delete/mixed batches).
#[derive(Debug, Clone)]
pub struct TrussState {
    support: Vec<u32>,
    truss: Vec<u32>,
}

impl TrussState {
    /// Seeds the state from `g` with a full (parallel) support count
    /// and peel.
    pub fn new(g: &Graph) -> Self {
        Self {
            support: edge_supports(g),
            truss: trussness(g),
        }
    }

    /// The trussness of every edge of the followed graph, by edge id.
    pub fn trussness(&self) -> &[u32] {
        &self.truss
    }

    /// The first phase of a batch, on `g` before the edit: each edge of
    /// `dead` (ascending, as [`Graph::removal_ids`] returns them) leaves
    /// the triangles still standing once the removals before it are
    /// gone, and the state is compacted past `dead`. Returns the
    /// surviving triangle partners by their ids after the removal: the
    /// seeds [`TrussState::after_edit`] starts from.
    pub fn before_edit(&mut self, g: &Graph, dead: &[EdgeId]) -> Vec<EdgeId> {
        let _s = vqi_observe::span("kernel.truss.delta");
        vqi_observe::incr("kernel.truss.delta.deletes", dead.len() as u64);
        let gone = crate::delta::removed_mask(g.edge_count(), dead);
        let mut mark = vec![u32::MAX; g.node_count()];
        let mut partners = Vec::new();
        for &d in dead {
            let live = |f: EdgeId| f > d || !gone[f.index()];
            triangles_on(g, g.endpoints(d), &mut mark, live, |uw, vw| {
                for f in [uw, vw] {
                    self.support[f.index()] -= 1;
                    partners.push(f);
                }
            });
        }
        compact(&mut self.support, dead);
        compact(&mut self.truss, dead);
        partners.sort_unstable();
        partners.dedup();
        partners
            .into_iter()
            .filter(|f| !gone[f.index()])
            .map(|f| EdgeId(f.0 - dead.partition_point(|&d| d < f) as u32))
            .collect()
    }

    /// The second phase, on `g` after `edit`: each added edge (the last
    /// ids, in order) joins the triangles it closes with the edges of
    /// smaller id, and the region around the `seeds` of
    /// [`TrussState::before_edit`] and the added edges is repeeled.
    pub fn after_edit(
        &mut self,
        g: &Graph,
        edit: &GraphEdit,
        seeds: Vec<EdgeId>,
    ) -> TrussDeltaStats {
        let _s = vqi_observe::span("kernel.truss.delta");
        vqi_observe::incr("kernel.truss.delta.batches", 1);
        let m = g.edge_count();
        let kept = m - edit.delta.inserts.len();
        debug_assert_eq!(self.truss.len(), kept, "state out of step with the graph");
        let mut stats = TrussDeltaStats {
            inserts: m - kept,
            deletes: edit.removed_ids.len(),
            ..TrussDeltaStats::default()
        };
        vqi_observe::incr("kernel.truss.delta.inserts", stats.inserts as u64);
        // trussness 0 marks "fresh insert, not yet peeled"
        self.support.resize(m, 0);
        self.truss.resize(m, 0);
        let mut mark = vec![u32::MAX; g.node_count()];
        let all = |_: EdgeId| true;
        let mut region: Vec<u32> = seeds.into_iter().map(|e| e.0).collect();
        for e in (kept..m).map(|i| EdgeId(i as u32)) {
            let mut sup = 0u32;
            let earlier = |f: EdgeId| f < e;
            triangles_on(g, g.endpoints(e), &mut mark, earlier, |uw, vw| {
                sup += 1;
                for f in [uw, vw] {
                    self.support[f.index()] += 1;
                    region.push(f.0);
                }
            });
            self.support[e.index()] = sup;
            region.push(e.0);
        }
        region.sort_unstable();
        region.dedup();
        if region.is_empty() {
            return stats;
        }
        let mut in_region = vec![false; m];
        for &s in &region {
            in_region[s as usize] = true;
        }

        // insert batches can raise trussness along triangle-connected
        // chains; pull in every edge that could co-rise (see type docs)
        let rises = stats.inserts as u32;
        if rises > 0 {
            let ub = |st: &Self, x: u32| -> u32 {
                let s2 = st.support[x as usize] + 2;
                if st.truss[x as usize] == 0 {
                    s2 // fresh insert: support bound only
                } else {
                    s2.min(st.truss[x as usize] + rises)
                }
            };
            let mut queue: Vec<(u32, u32)> = region.iter().map(|&x| (x, ub(self, x))).collect();
            while let Some((x, ubx)) = queue.pop() {
                let mut pulled: Vec<u32> = Vec::new();
                let truss = &self.truss;
                triangles_on(g, g.endpoints(EdgeId(x)), &mut mark, all, |uw, vw| {
                    for (f, z) in [(uw.0, vw.0), (vw.0, uw.0)] {
                        if !in_region[f as usize]
                            && truss[f as usize] < ubx
                            && truss[z as usize] + rises > truss[f as usize]
                        {
                            in_region[f as usize] = true;
                            pulled.push(f);
                        }
                    }
                });
                for f in pulled {
                    region.push(f);
                    queue.push((f, ub(self, f)));
                }
            }
        }

        // repeel the region until the cascade frontier closes
        let final_vals = loop {
            stats.peel_rounds += 1;
            let vals = self.local_peel(g, &region, &in_region, &mut mark);
            let mut frontier: Vec<u32> = Vec::new();
            for (i, &x) in region.iter().enumerate() {
                if vals[i] == self.truss[x as usize] {
                    continue;
                }
                triangles_on(g, g.endpoints(EdgeId(x)), &mut mark, all, |uw, vw| {
                    for f in [uw.0, vw.0] {
                        if !in_region[f as usize] {
                            in_region[f as usize] = true;
                            frontier.push(f);
                        }
                    }
                });
            }
            if frontier.is_empty() {
                break vals;
            }
            region.extend(frontier);
        };
        for (i, &x) in region.iter().enumerate() {
            if self.truss[x as usize] != final_vals[i] {
                stats.changed += 1;
                self.truss[x as usize] = final_vals[i];
            }
        }
        stats.region_edges = region.len();
        vqi_observe::incr("kernel.truss.delta.region", region.len() as u64);
        vqi_observe::incr("kernel.truss.delta.rounds", stats.peel_rounds as u64);
        vqi_observe::incr("kernel.truss.delta.changed", stats.changed as u64);
        stats
    }

    /// Bucket-queue peel restricted to `region`, with exterior triangle
    /// members frozen at their old trussness: a triangle holding exterior
    /// edges dies when the peel level reaches their minimum trussness.
    /// Returns the new trussness per region position.
    fn local_peel(
        &self,
        g: &Graph,
        region: &[u32],
        in_region: &[bool],
        mark: &mut [u32],
    ) -> Vec<u32> {
        let r = region.len();
        let all = |_: EdgeId| true;
        let mut pos = vec![u32::MAX; self.truss.len()];
        for (i, &x) in region.iter().enumerate() {
            pos[x as usize] = i as u32;
        }

        // enumerate each triangle touching the region exactly once,
        // anchored at its minimum interior edge id
        let mut tri_members: Vec<[u32; 3]> = Vec::new(); // positions, u32::MAX pad
        let mut tri_dead: Vec<bool> = Vec::new();
        let mut events: Vec<(u32, u32)> = Vec::new(); // (death level, tri)
        let mut lists: Vec<Vec<u32>> = vec![Vec::new(); r];
        for (i, &x) in region.iter().enumerate() {
            triangles_on(g, g.endpoints(EdgeId(x)), mark, all, |uw, vw| {
                let (a, b) = (uw.0, vw.0);
                // anchored elsewhere if a smaller interior id exists
                if (in_region[a as usize] && a < x) || (in_region[b as usize] && b < x) {
                    return;
                }
                let t = tri_members.len() as u32;
                let mut members = [i as u32, u32::MAX, u32::MAX];
                let mut n = 1;
                let mut ext_level = u32::MAX;
                for f in [a, b] {
                    if in_region[f as usize] {
                        members[n] = pos[f as usize];
                        n += 1;
                    } else {
                        ext_level = ext_level.min(self.truss[f as usize]);
                    }
                }
                for &p in &members[..n] {
                    lists[p as usize].push(t);
                }
                tri_members.push(members);
                tri_dead.push(false);
                if ext_level != u32::MAX {
                    events.push((ext_level, t));
                }
            });
        }
        events.sort_unstable();

        let mut eff: Vec<u32> = region.iter().map(|&x| self.support[x as usize]).collect();
        debug_assert!(eff
            .iter()
            .zip(lists.iter())
            .all(|(&s, l)| s as usize == l.len()));
        let mut vals = vec![0u32; r];
        let mut removed = vec![false; r];
        let max_eff = eff.iter().copied().max().unwrap_or(0) as usize;
        let mut buckets: Vec<Vec<u32>> = vec![Vec::new(); max_eff + 1];
        for (i, &s) in eff.iter().enumerate() {
            buckets[s as usize].push(i as u32);
        }

        // kills triangle `t` (first member death wins) and rebuckets the
        // surviving interior members
        fn kill(
            t: u32,
            tri_members: &[[u32; 3]],
            tri_dead: &mut [bool],
            removed: &[bool],
            eff: &mut [u32],
            buckets: &mut [Vec<u32>],
            cursor: &mut usize,
        ) {
            if tri_dead[t as usize] {
                return;
            }
            tri_dead[t as usize] = true;
            for &p in &tri_members[t as usize] {
                if p == u32::MAX || removed[p as usize] {
                    continue;
                }
                let s = &mut eff[p as usize];
                if *s > 0 {
                    *s -= 1;
                    buckets[*s as usize].push(p);
                    if (*s as usize) < *cursor {
                        *cursor = *s as usize;
                    }
                }
            }
        }

        let mut k = 2u32;
        let mut cursor = 0usize;
        let mut done = 0usize;
        let mut ev = 0usize;
        while done < r {
            // peek the minimum-support live entry (lazy stale skipping)
            let mut s_min = None;
            while cursor < buckets.len() {
                while let Some(&j) = buckets[cursor].last() {
                    if removed[j as usize] || eff[j as usize] as usize != cursor {
                        buckets[cursor].pop();
                    } else {
                        break;
                    }
                }
                if buckets[cursor].is_empty() {
                    cursor += 1;
                } else {
                    s_min = Some(cursor as u32);
                    break;
                }
            }
            let target = match s_min {
                Some(s) => k.max(s + 2),
                None => u32::MAX,
            };
            // frozen exterior deaths scheduled at or below the next level
            // fire first: removing a level-k casualty early within level k
            // never drags a higher-truss edge down
            if ev < events.len() && events[ev].0 <= target {
                k = k.max(events[ev].0);
                while ev < events.len() && events[ev].0 <= k {
                    kill(
                        events[ev].1,
                        &tri_members,
                        &mut tri_dead,
                        &removed,
                        &mut eff,
                        &mut buckets,
                        &mut cursor,
                    );
                    ev += 1;
                }
                continue;
            }
            let j = match s_min {
                Some(_) => buckets[cursor].pop().expect("peeked entry"),
                None => break,
            };
            k = target;
            vals[j as usize] = k;
            removed[j as usize] = true;
            done += 1;
            for t in std::mem::take(&mut lists[j as usize]) {
                kill(
                    t,
                    &tri_members,
                    &mut tri_dead,
                    &removed,
                    &mut eff,
                    &mut buckets,
                    &mut cursor,
                );
            }
        }
        vals
    }
}

/// A standalone incremental k-truss: a graph of its own and the
/// [`TrussState`] that follows it. [`TrussMaintainer::apply`] runs a
/// delta through the same two phases the network maintainer runs
/// around its network's edit.
#[derive(Debug, Clone)]
pub struct TrussMaintainer {
    graph: Graph,
    state: TrussState,
}

impl TrussMaintainer {
    /// Seeds the maintainer from a copy of `g` with a full (parallel)
    /// support count and peel.
    pub fn new(g: &Graph) -> Self {
        Self {
            graph: g.clone(),
            state: TrussState::new(g),
        }
    }

    /// The maintained graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The maintained trussness, by edge id of [`TrussMaintainer::graph`].
    pub fn trussness(&self) -> &[u32] {
        self.state.trussness()
    }

    /// Nodes in the maintained universe.
    pub fn node_count(&self) -> usize {
        self.graph.node_count()
    }

    /// Live edges.
    pub fn edge_count(&self) -> usize {
        self.graph.edge_count()
    }

    /// Grows the node universe to at least `n` nodes.
    pub fn grow_nodes(&mut self, n: usize) {
        while self.graph.node_count() < n {
            self.graph.add_node(0);
        }
    }

    /// The maintained trussness of edge `u -- v`, if present.
    pub fn trussness_of(&self, u: NodeId, v: NodeId) -> Option<u32> {
        if u.index() >= self.node_count() || v.index() >= self.node_count() {
            return None;
        }
        let e = self.graph.edge_between(u, v)?;
        Some(self.state.truss[e.index()])
    }

    /// Applies one edge-churn batch (deletes first, then inserts) and
    /// restores exact trussness by repeeling only the affected region.
    pub fn apply(&mut self, delta: &crate::delta::EdgeDelta) -> TrussDeltaStats {
        let batch = delta.to_batch(self.graph.node_count());
        let dead = self.graph.removal_ids(&batch);
        let seeds = self.state.before_edit(&self.graph, &dead);
        let edit = self.graph.apply_batch_removing(&batch, dead);
        let mut stats = self.state.after_edit(&self.graph, &edit, seeds);
        stats.skipped = delta.len() - stats.inserts - stats.deletes;
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;

    fn clique(n: usize) -> Graph {
        let mut g = Graph::new();
        let nodes: Vec<NodeId> = (0..n).map(|_| g.add_node(0)).collect();
        for i in 0..n {
            for j in (i + 1)..n {
                g.add_edge(nodes[i], nodes[j], 0);
            }
        }
        g
    }

    #[test]
    fn supports_of_triangle() {
        let g = clique(3);
        assert_eq!(edge_supports(&g), vec![1, 1, 1]);
    }

    #[test]
    fn supports_of_path_are_zero() {
        let g = GraphBuilder::new()
            .nodes(&[0; 3])
            .edge(0, 1, 0)
            .edge(1, 2, 0)
            .build();
        assert_eq!(edge_supports(&g), vec![0, 0]);
    }

    #[test]
    fn trussness_of_clique_is_n() {
        for n in [3usize, 4, 5, 6] {
            let g = clique(n);
            let t = trussness(&g);
            assert!(t.iter().all(|&x| x == n as u32), "K{n} trussness {t:?}");
        }
    }

    #[test]
    fn trussness_of_tree_is_two() {
        let g = GraphBuilder::new()
            .nodes(&[0; 5])
            .edge(0, 1, 0)
            .edge(1, 2, 0)
            .edge(1, 3, 0)
            .edge(3, 4, 0)
            .build();
        assert!(trussness(&g).iter().all(|&x| x == 2));
    }

    #[test]
    fn mixed_graph_trussness() {
        // K4 (nodes 0-3) with a pendant path 3-4-5
        let mut g = clique(4);
        let n4 = g.add_node(0);
        let n5 = g.add_node(0);
        g.add_edge(NodeId(3), n4, 0);
        g.add_edge(n4, n5, 0);
        let t = trussness(&g);
        // 6 clique edges are 4-truss, 2 path edges are 2-truss
        assert_eq!(t.iter().filter(|&&x| x == 4).count(), 6);
        assert_eq!(t.iter().filter(|&&x| x == 2).count(), 2);
    }

    #[test]
    fn decompose_partitions_edges() {
        let mut g = clique(4);
        let n4 = g.add_node(0);
        g.add_edge(NodeId(0), n4, 0);
        let d = decompose(&g, 3);
        assert_eq!(
            d.infested_edges.len() + d.oblivious_edges.len(),
            g.edge_count()
        );
        let mut all: Vec<EdgeId> = d
            .infested_edges
            .iter()
            .chain(d.oblivious_edges.iter())
            .copied()
            .collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), g.edge_count());
        assert_eq!(d.infested_edges.len(), 6);
        assert_eq!(d.oblivious_edges.len(), 1);
        let (gt, _) = d.infested_graph(&g);
        assert_eq!(gt.node_count(), 4);
        let (go, _) = d.oblivious_graph(&g);
        assert_eq!(go.edge_count(), 1);
    }

    #[test]
    fn empty_graph_decomposes() {
        let g = Graph::new();
        let d = decompose(&g, 3);
        assert!(d.infested_edges.is_empty());
        assert!(d.oblivious_edges.is_empty());
    }

    #[test]
    fn two_triangles_sharing_edge() {
        // diamond: 4 nodes, 5 edges, the shared edge is in 2 triangles
        let g = GraphBuilder::new()
            .nodes(&[0; 4])
            .edge(0, 1, 0)
            .edge(1, 2, 0)
            .edge(0, 2, 0)
            .edge(1, 3, 0)
            .edge(2, 3, 0)
            .build();
        let s = edge_supports(&g);
        // edge 1-2 (id 1) supports 2 triangles
        assert_eq!(s[1], 2);
        let t = trussness(&g);
        assert!(t.iter().all(|&x| x == 3), "diamond is a 3-truss: {t:?}");
    }

    #[test]
    fn triangle_list_peel_matches_baseline_on_fixtures() {
        // the clique/tree/mixed fixtures of this module, plus the diamond
        let tree = GraphBuilder::new()
            .nodes(&[0; 5])
            .edge(0, 1, 0)
            .edge(1, 2, 0)
            .edge(1, 3, 0)
            .edge(3, 4, 0)
            .build();
        let mut mixed = clique(4);
        let n4 = mixed.add_node(0);
        let n5 = mixed.add_node(0);
        mixed.add_edge(NodeId(3), n4, 0);
        mixed.add_edge(n4, n5, 0);
        let diamond = GraphBuilder::new()
            .nodes(&[0; 4])
            .edge(0, 1, 0)
            .edge(1, 2, 0)
            .edge(0, 2, 0)
            .edge(1, 3, 0)
            .edge(2, 3, 0)
            .build();
        for (name, g) in [
            ("K5", &clique(5)),
            ("tree", &tree),
            ("mixed", &mixed),
            ("diamond", &diamond),
        ] {
            assert_eq!(trussness(g), trussness_baseline(g), "{name}");
        }
    }

    #[test]
    fn ctrl_with_unlimited_budget_matches_plain() {
        use crate::generate::{assign_labels, erdos_renyi};
        use rand::rngs::SmallRng;
        use rand::SeedableRng;
        let b = Budget::unlimited();
        let mut rng = SmallRng::seed_from_u64(9);
        let mut g = erdos_renyi(40, 0.15, 0, &mut rng);
        assign_labels(&mut g, 3, 2, &mut rng);
        assert_eq!(trussness(&g), trussness_ctrl(&g, &b).unwrap());
        let plain = decompose(&g, 3);
        let ctrl = decompose_ctrl(&g, 3, &b).unwrap();
        assert_eq!(plain.trussness, ctrl.trussness);
        assert_eq!(plain.infested_edges, ctrl.infested_edges);
        assert_eq!(plain.oblivious_edges, ctrl.oblivious_edges);
    }

    #[test]
    fn truss_tick_quota_trips_deterministically() {
        let g = clique(8); // 28 edges to peel
        let run = || {
            let b = Budget::unlimited().with_kernel_ticks(10);
            trussness_ctrl(&g, &b)
        };
        let a = run();
        assert_eq!(a, run());
        assert!(matches!(a, Err(VqiError::QuotaExceeded { .. })));
    }

    fn graph_of(n: usize, edges: &[(u32, u32)]) -> Graph {
        let mut g = Graph::new();
        for _ in 0..n {
            g.add_node(0);
        }
        for &(u, v) in edges {
            g.add_edge(NodeId(u), NodeId(v), 0)
                .expect("test edge list must be simple");
        }
        g
    }

    /// The maintainer's graph holds exactly `edges` (in any orientation)
    /// and its maintained trussness equals a fresh peel of that graph.
    #[track_caller]
    fn assert_matches_fresh(m: &TrussMaintainer, edges: &[(u32, u32)], ctx: &str) {
        let key = |(u, v): (u32, u32)| (u.min(v), u.max(v));
        let g = m.graph();
        let mut got: Vec<(u32, u32)> = g
            .edges()
            .map(|e| g.endpoints(e))
            .map(|(u, v)| key((u.0, v.0)))
            .collect();
        let mut want: Vec<(u32, u32)> = edges.iter().map(|&e| key(e)).collect();
        got.sort_unstable();
        want.sort_unstable();
        assert_eq!(got, want, "{ctx}: edge set");
        assert_eq!(
            m.trussness(),
            trussness(g),
            "{ctx}: maintained trussness != fresh peel"
        );
    }

    #[test]
    fn maintainer_matches_fresh_peel_across_batches() {
        use crate::delta::EdgeDelta;
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        use std::collections::BTreeSet;
        let _guard = crate::kernel_test_lock();
        let prev = par::thread_cap();
        for cap in [1usize, 2, 4] {
            par::set_thread_cap(cap);
            for seed in 0..12u64 {
                let mut rng = SmallRng::seed_from_u64(seed);
                let n = 40;
                let g = crate::generate::erdos_renyi(n, 0.12, 0, &mut rng);
                let mut set: BTreeSet<(u32, u32)> = g
                    .edges()
                    .map(|e| {
                        let (u, v) = g.endpoints(e);
                        (u.0.min(v.0), u.0.max(v.0))
                    })
                    .collect();
                let mut m = TrussMaintainer::new(&g);
                // round 0: delete-only, round 1: insert-only, 2-3: mixed
                for round in 0..4 {
                    let mut delta = EdgeDelta::new();
                    if round != 1 {
                        let pool: Vec<(u32, u32)> = set.iter().copied().collect();
                        for _ in 0..4 {
                            if pool.is_empty() {
                                break;
                            }
                            let (u, v) = pool[rng.gen_range(0..pool.len())];
                            delta.deletes.push((u, v));
                            set.remove(&(u, v));
                        }
                    }
                    if round != 0 {
                        // a couple of node indices beyond the current
                        // universe exercise node growth
                        let span = n as u32 + 2;
                        for _ in 0..4 {
                            let u = rng.gen_range(0..span);
                            let v = rng.gen_range(0..span);
                            delta.inserts.push((u, v));
                            if u != v {
                                set.insert((u.min(v), u.max(v)));
                            }
                        }
                    }
                    m.apply(&delta);
                    let edges: Vec<(u32, u32)> = set.iter().copied().collect();
                    assert_matches_fresh(
                        &m,
                        &edges,
                        &format!("seed {seed} cap {cap} round {round}"),
                    );
                }
            }
        }
        par::set_thread_cap(prev);
    }

    #[test]
    fn edge_case_batches_match_fresh_peel() {
        use crate::delta::{absorb, edge_case_delta, EDGE_CASES};
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        use std::collections::BTreeSet;
        let _guard = crate::kernel_test_lock();
        let prev = par::thread_cap();
        for cap in [1usize, 4] {
            par::set_thread_cap(cap);
            for seed in 0..12u64 {
                let mut rng = SmallRng::seed_from_u64(seed);
                let mut g = crate::generate::erdos_renyi(40, 0.12, 0, &mut rng);
                // a hub joined to a third of the nodes
                for v in 1..40 {
                    if rng.gen_bool(0.35) {
                        g.add_edge(NodeId(0), NodeId(v), 0);
                    }
                }
                let key = |(u, v): (NodeId, NodeId)| (u.0.min(v.0), u.0.max(v.0));
                let mut set: BTreeSet<(u32, u32)> =
                    g.edges().map(|e| key(g.endpoints(e))).collect();
                let mut m = TrussMaintainer::new(&g);
                for round in 0..EDGE_CASES {
                    let delta = edge_case_delta(m.graph(), round);
                    absorb(&mut set, &delta);
                    let stats = m.apply(&delta);
                    assert!(
                        stats.inserts + stats.deletes > 0,
                        "round {round} is a no-op"
                    );
                    let edges: Vec<(u32, u32)> = set.iter().copied().collect();
                    let ctx = format!("seed {seed} cap {cap} edge case {round}");
                    assert_matches_fresh(&m, &edges, &ctx);
                }
            }
        }
        par::set_thread_cap(prev);
    }

    #[test]
    fn before_edit_renumbers_the_surviving_partners() {
        use crate::delta::EdgeBatch;
        // triangles 0-1-2 (edges 0, 1, 2) and 2-3-4 (edges 3, 4, 5)
        let mut g = graph_of(5, &[(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)]);
        let mut state = TrussState::new(&g);
        let batch = EdgeBatch {
            edge_removals: vec![(1, 0), (0, 2), (3, 4)],
            ..EdgeBatch::default()
        };
        let dead = g.removal_ids(&batch);
        assert_eq!(dead, vec![EdgeId(0), EdgeId(2), EdgeId(4)]);
        // the partners 1-2 (old id 1) and 2-3, 2-4 (old ids 3, 5)
        // survive as ids 0, 1 and 2
        let seeds = state.before_edit(&g, &dead);
        assert_eq!(seeds, vec![EdgeId(0), EdgeId(1), EdgeId(2)]);
        let edit = g.apply_batch_removing(&batch, dead);
        let stats = state.after_edit(&g, &edit, seeds);
        assert_eq!(
            (stats.deletes, stats.inserts, stats.region_edges),
            (3, 0, 3)
        );
        assert_eq!(state.trussness(), trussness(&g));
        assert_eq!(state.support, vec![0; 3]);
    }

    #[test]
    fn insert_raises_a_whole_truss_class() {
        use crate::delta::EdgeDelta;
        // diamond (K4 minus a chord): every edge is 3-truss; inserting the
        // missing chord must raise the *entire* class to 4 even though the
        // old edges' supports along the far side never change — the
        // regression case for the co-rise closure
        let edges = [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)];
        let g = graph_of(4, &edges);
        let mut m = TrussMaintainer::new(&g);
        assert_eq!(m.trussness_of(NodeId(0), NodeId(1)), Some(3));
        let stats = m.apply(&EdgeDelta::inserting(vec![(1, 3)]));
        assert_eq!(stats.inserts, 1);
        let all = [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (1, 3)];
        assert_matches_fresh(&m, &all, "K4 completion");
        for &(u, v) in &all {
            assert_eq!(m.trussness_of(NodeId(u), NodeId(v)), Some(4), "{u}-{v}");
        }
    }

    #[test]
    fn deletion_edge_cases_match_fresh_peel() {
        use crate::delta::EdgeDelta;
        // two triangles joined by a bridge edge 2-3
        let start = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)];
        let g = graph_of(6, &start);
        let mut m = TrussMaintainer::new(&g);
        let before: Vec<u32> = trussness(&g);
        assert_eq!(before.iter().filter(|&&t| t == 3).count(), 6);

        // removing the bridge leaves both triangles intact
        let stats = m.apply(&EdgeDelta::deleting(vec![(2, 3)]));
        assert_eq!((stats.deletes, stats.inserts), (1, 0));
        let no_bridge = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)];
        assert_matches_fresh(&m, &no_bridge, "bridge removal");
        assert_eq!(m.trussness_of(NodeId(0), NodeId(1)), Some(3));

        // removing one edge of a triangle kills the class's last triangle:
        // the two survivors drop from 3-truss to 2-truss
        m.apply(&EdgeDelta::deleting(vec![(0, 1)]));
        let last_tri = [(1, 2), (0, 2), (3, 4), (4, 5), (3, 5)];
        assert_matches_fresh(&m, &last_tri, "last triangle of a class");
        assert_eq!(m.trussness_of(NodeId(1), NodeId(2)), Some(2));
        assert_eq!(m.trussness_of(NodeId(3), NodeId(4)), Some(3));

        // duplicate inserts and self-loops are skipped, not double-counted
        let stats = m.apply(&EdgeDelta::inserting(vec![(0, 1), (0, 1), (1, 1), (1, 2)]));
        assert_eq!(stats.inserts, 1);
        assert_eq!(stats.skipped, 3);
        assert_matches_fresh(&m, &start[..6], "duplicate inserts");

        // delete-then-reinsert round-trips back to the fresh peel
        let snapshot: Vec<Option<u32>> = start
            .iter()
            .map(|&(u, v)| m.trussness_of(NodeId(u), NodeId(v)))
            .collect();
        m.apply(&EdgeDelta::deleting(vec![(0, 2), (4, 5)]));
        m.apply(&EdgeDelta::inserting(vec![(0, 2), (4, 5)]));
        assert_matches_fresh(&m, &start[..6], "delete-then-reinsert");
        let after: Vec<Option<u32>> = start
            .iter()
            .map(|&(u, v)| m.trussness_of(NodeId(u), NodeId(v)))
            .collect();
        assert_eq!(snapshot, after, "round trip restores every value");

        // a pair removed and re-added by one batch, reversed, is a fresh
        // insert that lands on the same values
        let stats = m.apply(&EdgeDelta {
            deletes: vec![(0, 2)],
            inserts: vec![(2, 0)],
        });
        assert_eq!((stats.deletes, stats.inserts, stats.skipped), (1, 1, 0));
        assert_matches_fresh(&m, &start[..6], "remove and re-add");
        assert_eq!(m.trussness_of(NodeId(0), NodeId(2)), Some(3));

        // two edges of one triangle and all three of the other together
        m.apply(&EdgeDelta::deleting(vec![
            (0, 1),
            (1, 2),
            (3, 4),
            (4, 5),
            (3, 5),
        ]));
        assert_matches_fresh(&m, &[(0, 2)], "triangles removed together");
        assert_eq!(m.trussness_of(NodeId(0), NodeId(2)), Some(2));
    }

    #[test]
    fn maintainer_empty_batch_is_noop() {
        use crate::delta::EdgeDelta;
        let g = clique(4);
        let mut m = TrussMaintainer::new(&g);
        let stats = m.apply(&EdgeDelta::new());
        assert_eq!(stats.region_edges, 0);
        assert_eq!(stats.changed, 0);
        let edges: Vec<(u32, u32)> = (0..4)
            .flat_map(|i| ((i + 1)..4).map(move |j| (i as u32, j as u32)))
            .collect();
        assert_matches_fresh(&m, &edges, "empty batch");
    }

    #[test]
    fn parallel_supports_and_trussness_match_reference_across_thread_counts() {
        use crate::generate::{assign_labels, erdos_renyi};
        use rand::rngs::SmallRng;
        use rand::SeedableRng;
        let _guard = crate::kernel_test_lock();
        let prev = par::thread_cap();
        for seed in 0..12u64 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut g = erdos_renyi(60, 0.12, 0, &mut rng);
            assign_labels(&mut g, 3, 2, &mut rng);
            let expect_sup = edge_supports_seq(&g);
            let expect_truss = trussness_baseline(&g);
            for cap in [1usize, 2, 4] {
                par::set_thread_cap(cap);
                assert_eq!(edge_supports(&g), expect_sup, "seed {seed} cap {cap}");
                assert_eq!(trussness(&g), expect_truss, "seed {seed} cap {cap}");
            }
            par::set_thread_cap(prev);
        }
    }
}
