//! The exact connected-graphlet census and graphlet frequency distributions.
//!
//! MIDAS detects how much a repository changed by comparing the *graphlet
//! frequency distribution* (GFD) of the repository before and after a
//! batch update: a large Euclidean distance between the distributions
//! signals a "major" modification that warrants pattern maintenance.
//!
//! Graphlets here are the 8 connected unlabeled graphs on 3 and 4 nodes:
//!
//! | index | graphlet |
//! |---|---|
//! | 0 | path P3 |
//! | 1 | triangle K3 |
//! | 2 | path P4 |
//! | 3 | star S4 (claw) |
//! | 4 | cycle C4 |
//! | 5 | tailed triangle |
//! | 6 | diamond |
//! | 7 | clique K4 |
//!
//! **Exact census: edge-local counting.** The classes are unlabeled, so
//! the exact census never enumerates subgraphs. For a node pair
//! `(u, v)`, one kernel ([`pair_cells`]) marks `N(u) ∪ N(v)`, types
//! each marked node T (adjacent to both), A (only `u`) or B (only `v`),
//! scans each marked node's row once to tally its neighbours by type,
//! and turns the tallies into pair counts per `(type, type, adjacent?)`
//! cell with integer arithmetic (`C(|T|, 2)` minus the adjacent T–T
//! pairs, and so on). Every cell is one graphlet class with the edge
//! `u–v` present and one without it ([`CELL_CLASS`], built at compile
//! time), which gives two per-class tables: the graphlets that contain
//! both nodes with the edge, and without it. The full census sums the
//! with-edge table over all edges and divides each class by its edge
//! count (a graphlet with `e` edges is seen once per edge); a churn
//! batch moves the counts by `with − without` per inserted edge and
//! `without − with` per deleted one ([`GraphletCounts::before_edit`]
//! and [`GraphletCounts::after_edit`], the two phases of
//! [`crate::delta`]; [`CensusMaintainer`] is their standalone owner).
//! The kernel reads the graph's own rows, in whatever order they are,
//! through an edge-id predicate, so no census copies its input. The
//! approach is that of PGD (Ahmed et al., ICDM 2015) and ORCA (Hočevar
//! & Demšar, 2014).
//!
//! ESU (Wernicke's FANMOD) stays as the reference oracle the kernel is
//! tested against ([`count_graphlets`], [`enumerate_connected_subgraphs`]).
//!
//! **Parallelism & determinism.** The exact census fans out over nodes
//! with [`par`]; each node owns the pairs to its higher-id neighbours,
//! and the workers' cell tallies are `u64` sums. Integer addition is
//! associative, so the counts are bit-identical at any thread count, on
//! any backend, and whether computed from scratch or maintained
//! incrementally.

use crate::delta::{EdgeDelta, GraphEdit};
use crate::graph::{EdgeId, Graph, NodeId};
use crate::par;
use crate::storage::GraphStorage;
use vqi_runtime::{Budget, VqiError};

/// Number of tracked graphlet classes.
pub const GRAPHLET_CLASSES: usize = 8;

/// Exact per-class graphlet counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GraphletCounts {
    /// Counts per class, indexed per the module-level table.
    pub counts: [u64; GRAPHLET_CLASSES],
}

impl GraphletCounts {
    /// Sum of all counts.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Element-wise accumulation (for repository-level distributions).
    pub fn add(&mut self, other: &GraphletCounts) {
        for i in 0..GRAPHLET_CLASSES {
            self.counts[i] += other.counts[i];
        }
    }

    /// The normalized frequency distribution; all zeros if no graphlets.
    pub fn distribution(&self) -> [f64; GRAPHLET_CLASSES] {
        let total = self.total();
        let mut d = [0.0; GRAPHLET_CLASSES];
        if total > 0 {
            for (out, &c) in d.iter_mut().zip(&self.counts) {
                *out = c as f64 / total as f64;
            }
        }
        d
    }
}

/// Euclidean distance between two distributions (MIDAS's drift measure).
pub fn euclidean_distance(a: &[f64; GRAPHLET_CLASSES], b: &[f64; GRAPHLET_CLASSES]) -> f64 {
    a.iter()
        .zip(b.iter())
        .map(|(x, y)| (x - y) * (x - y))
        .sum::<f64>()
        .sqrt()
}

/// The class of a connected graph on `k` (3 or 4) nodes with `edges`
/// edges and maximum degree `maxd`.
const fn class_of(k: usize, edges: usize, maxd: usize) -> usize {
    match (k, edges) {
        (3, 2) => 0,              // P3
        (3, 3) => 1,              // K3
        (4, 3) if maxd == 3 => 3, // star
        (4, 3) => 2,              // P4
        (4, 4) if maxd == 3 => 5, // tailed triangle
        (4, 4) => 4,              // C4
        (4, 5) => 6,              // diamond
        (4, 6) => 7,              // K4
        _ => panic!("disconnected or wrong-size subgraph"),
    }
}

/// Classifies a connected induced subgraph of `g` on `nodes` (3 or 4
/// nodes) into its graphlet class index.
fn classify(g: &Graph, nodes: &[NodeId]) -> usize {
    let k = nodes.len();
    let mut edges = 0usize;
    let mut degs = [0usize; 4];
    for i in 0..k {
        for j in (i + 1)..k {
            if g.has_edge(nodes[i], nodes[j]) {
                edges += 1;
                degs[i] += 1;
                degs[j] += 1;
            }
        }
    }
    class_of(k, edges, *degs[..k].iter().max().unwrap())
}

/// ESU enumeration of all connected induced subgraphs with exactly `k`
/// nodes; `visit` receives each node set once.
pub fn enumerate_connected_subgraphs<F: FnMut(&[NodeId])>(g: &Graph, k: usize, mut visit: F) {
    if k == 0 || g.node_count() < k {
        return;
    }
    // blocked[u]: u is in the subgraph or already in some extension set
    let mut blocked = vec![false; g.node_count()];
    for v in g.nodes() {
        let mut sub = vec![v];
        let ext: Vec<NodeId> = g.neighbors(v).map(|(u, _)| u).filter(|&u| u > v).collect();
        blocked[v.index()] = true;
        for &u in &ext {
            blocked[u.index()] = true;
        }
        extend(g, v, &mut sub, ext, k, &mut blocked, &mut visit);
        blocked[v.index()] = false;
        for (u, _) in g.neighbors(v) {
            blocked[u.index()] = false;
        }
    }
}

/// One ESU step below `root`: grows `sub` by each node of the extension
/// set `ext` in turn. `blocked` is restored before returning.
fn extend<F: FnMut(&[NodeId])>(
    g: &Graph,
    root: NodeId,
    sub: &mut Vec<NodeId>,
    ext: Vec<NodeId>,
    k: usize,
    blocked: &mut [bool],
    visit: &mut F,
) {
    if sub.len() == k {
        visit(sub);
        return;
    }
    let mut remaining = ext;
    while let Some(w) = remaining.pop() {
        // extension' = remaining ∪ exclusive neighbors of w (greater than root)
        let newly: Vec<NodeId> = g
            .neighbors(w)
            .map(|(u, _)| u)
            .filter(|&u| u > root && !blocked[u.index()])
            .collect();
        let mut next_ext = remaining.clone();
        next_ext.extend_from_slice(&newly);
        sub.push(w);
        for &u in &newly {
            blocked[u.index()] = true;
        }
        extend(g, root, sub, next_ext, k, blocked, visit);
        for &u in &newly {
            blocked[u.index()] = false;
        }
        sub.pop();
    }
}

// ---------------------------------------------------------------------------
// Edge-local exact counting
// ---------------------------------------------------------------------------

/// Neighbour types of the edge-local kernel around a pair `(u, v)`:
/// `O` nodes (unmarked) are adjacent to neither, `T` to both, `A` to
/// `u` only, `B` to `v` only. [`END`] marks `u` and `v` themselves,
/// whose row entries the tallies ignore.
const O: usize = 0;
const T: usize = 1;
const A: usize = 2;
const B: usize = 3;
const END: u8 = 4;

/// Cells of the kernel: cell `s < 4` counts the marked nodes `w` of
/// type `s` (the 3-node sets `{u, v, w}`), and [`pair`] cells the
/// unordered node pairs `{w, x}` of two types, joined by an edge or not
/// (the 4-node sets `{u, v, w, x}`).
const CELLS: usize = 4 + 4 * 4 * 2;

/// The cell of pairs of types `s ≤ t`, adjacent iff `adj`.
const fn pair(s: usize, t: usize, adj: bool) -> usize {
    4 + (s * 4 + t) * 2 + adj as usize
}

/// Marks a cell whose node set is disconnected.
const NONE: u8 = GRAPHLET_CLASSES as u8;

/// Edges per graphlet class: P3, K3, P4, star, C4, tailed triangle,
/// diamond, K4.
const CLASS_EDGES: [u64; GRAPHLET_CLASSES] = [2, 3, 3, 3, 4, 4, 5, 6];

const fn touches_u(ty: usize) -> bool {
    ty == T || ty == A
}

const fn touches_v(ty: usize) -> bool {
    ty == T || ty == B
}

/// The class of the graph on `u`, `v`, a node `w` of type `s` and —
/// when `k == 4` — a node `x` of type `t`, with the edge `u–v` iff
/// `with` and `w–x` iff `adj`; [`NONE`] if that graph is disconnected.
const fn local_class(k: usize, with: bool, s: usize, t: usize, adj: bool) -> u8 {
    // node 0 = u, 1 = v, 2 = w, 3 = x
    let edges = [
        (0, 1, with),
        (0, 2, touches_u(s)),
        (1, 2, touches_v(s)),
        (0, 3, touches_u(t)),
        (1, 3, touches_v(t)),
        (2, 3, adj),
    ];
    let mut deg = [0usize; 4];
    let mut m = 0;
    let mut i = 0;
    while i < edges.len() {
        let (a, b, on) = edges[i];
        if on && b < k {
            deg[a] += 1;
            deg[b] += 1;
            m += 1;
        }
        i += 1;
    }
    let (mut mind, mut maxd) = (usize::MAX, 0);
    let mut j = 0;
    while j < k {
        if deg[j] < mind {
            mind = deg[j];
        }
        if deg[j] > maxd {
            maxd = deg[j];
        }
        j += 1;
    }
    // on at most 4 nodes, k − 1 edges and no isolated node mean connected
    if m + 1 < k || mind == 0 {
        return NONE;
    }
    class_of(k, m, maxd) as u8
}

const fn cell_classes(with: bool) -> [u8; CELLS] {
    let mut out = [NONE; CELLS];
    let mut s = O;
    while s <= B {
        out[s] = local_class(3, with, s, O, false);
        let mut t = s;
        while t <= B {
            out[pair(s, t, false)] = local_class(4, with, s, t, false);
            out[pair(s, t, true)] = local_class(4, with, s, t, true);
            t += 1;
        }
        s += 1;
    }
    out
}

/// `CELL_CLASS[with][cell]`: the class of a cell's node set with the
/// edge `u–v` (`with = 1`) or without it (`0`), or [`NONE`].
const CELL_CLASS: [[u8; CELLS]; 2] = [cell_classes(false), cell_classes(true)];

/// Cell tallies of the edge-local kernel, summable over pairs.
#[derive(Clone, Copy)]
struct PairCells([u64; CELLS]);

impl Default for PairCells {
    fn default() -> Self {
        PairCells([0; CELLS])
    }
}

impl PairCells {
    fn add(&mut self, other: &PairCells) {
        for (a, b) in self.0.iter_mut().zip(&other.0) {
            *a += b;
        }
    }

    /// Per-class counts of the tallied node sets with the edge `u–v`
    /// (`with`) or without it.
    fn classes(&self, with: bool) -> [u64; GRAPHLET_CLASSES] {
        let mut out = [0; GRAPHLET_CLASSES];
        for (&n, &c) in self.0.iter().zip(&CELL_CLASS[with as usize]) {
            if c != NONE {
                out[c as usize] += n;
            }
        }
        out
    }

    /// Marked nodes, i.e. rows the kernel scanned.
    fn rows(&self) -> u64 {
        self.0[T] + self.0[A] + self.0[B]
    }
}

/// The edge-local kernel: adds to `cells` the tallies of the 3- and
/// 4-node sets that contain both `u` and `v` and are connected with the
/// edge `u–v` or without it, over the edges of `g` that pass `live`,
/// and returns how many row entries it scanned. The result does not
/// depend on whether `u–v` is an edge. `marks` (one byte per node) must
/// be all zero on entry and is restored before returning.
fn pair_cells<S: GraphStorage + ?Sized>(
    g: &S,
    (u, v): (NodeId, NodeId),
    live: impl Fn(EdgeId) -> bool,
    marks: &mut [u8],
    cells: &mut PairCells,
) -> u64 {
    let (ru, rv) = (g.neighbor_slice(u), g.neighbor_slice(v));
    marks[u.index()] = END;
    marks[v.index()] = END;
    for &(w, e) in ru {
        let m = &mut marks[w.index()];
        if *m == O as u8 && live(e) {
            *m = A as u8;
        }
    }
    for &(w, e) in rv {
        let m = &mut marks[w.index()];
        if !live(e) {
            continue;
        }
        if *m == A as u8 {
            *m = T as u8;
        } else if *m == O as u8 {
            *m = B as u8;
        }
    }

    // tally[s * 5 + t]: entries of type-t nodes in the rows of type-s nodes
    let mut tally = [0u64; 4 * 5];
    let mut n = [0u64; 4];
    let mut scanned = 0u64;
    {
        let marks: &[u8] = marks;
        let mut scan = |w: NodeId, s: usize| {
            let row = g.neighbor_slice(w);
            n[s] += 1;
            scanned += row.len() as u64;
            for &(x, e) in row {
                if live(e) {
                    tally[s * 5 + marks[x.index()] as usize] += 1;
                }
            }
        };
        // every marked node once: T and A nodes from u's row, B from v's
        for &(w, _) in ru {
            let s = marks[w.index()] as usize;
            if s == T || s == A {
                scan(w, s);
            }
        }
        for &(w, _) in rv {
            if marks[w.index()] as usize == B {
                scan(w, B);
            }
        }
    }
    for &(w, _) in ru.iter().chain(rv) {
        marks[w.index()] = 0;
    }
    marks[u.index()] = 0;
    marks[v.index()] = 0;

    for s in T..=B {
        cells.0[s] += n[s];
        cells.0[pair(O, s, true)] += tally[s * 5 + O];
        for t in s..=B {
            let (adj, all) = if s == t {
                // both endpoints of a same-type pair see it
                (tally[s * 5 + s] / 2, n[s] * n[s].saturating_sub(1) / 2)
            } else {
                (tally[s * 5 + t], n[s] * n[t])
            };
            cells.0[pair(s, t, true)] += adj;
            cells.0[pair(s, t, false)] += all - adj;
        }
    }
    scanned
}

/// Exact per-class counts of `g`, read off its own rows: every node
/// runs [`pair_cells`] against its higher-id neighbours, the workers'
/// `u64` cell sums are added, and each class is divided by its edge
/// count. `ctrl` arms one fresh [`Meter`](vqi_runtime::Meter) per node,
/// ticked once per scanned row entry, so a quota trips at the same node
/// at any thread count; the first failing node in id order reports.
fn exact_census<S: GraphStorage + ?Sized>(
    g: &S,
    ctrl: Option<&Budget>,
) -> Result<GraphletCounts, VqiError> {
    let n = g.node_count();
    let parts = par::map_chunks(n, |nodes| -> Result<PairCells, VqiError> {
        let mut marks = vec![0u8; n];
        let mut cells = PairCells::default();
        for i in nodes {
            let u = NodeId(i as u32);
            let mut meter = ctrl.map(|c| c.meter("kernel.graphlet"));
            for &(v, _) in g.neighbor_slice(u) {
                if v <= u {
                    continue;
                }
                let scanned = pair_cells(g, (u, v), |_| true, &mut marks, &mut cells);
                if let Some(m) = meter.as_mut() {
                    for _ in 0..scanned {
                        m.tick()?;
                    }
                }
            }
        }
        Ok(cells)
    });
    let mut total = PairCells::default();
    for part in parts {
        total.add(&part?);
    }
    // a graphlet with e edges holds e adjacent node pairs
    let mut classes = total.classes(true);
    for (c, e) in classes.iter_mut().zip(CLASS_EDGES) {
        debug_assert_eq!(*c % e, 0);
        *c /= e;
    }
    Ok(GraphletCounts { counts: classes })
}

/// Exact graphlet counts of `g` (sizes 3 and 4) — single-threaded
/// reference implementation by ESU enumeration.
pub fn count_graphlets(g: &Graph) -> GraphletCounts {
    let mut counts = GraphletCounts::default();
    for k in [3, 4] {
        enumerate_connected_subgraphs(g, k, |nodes| {
            counts.counts[classify(g, nodes)] += 1;
        });
    }
    counts
}

/// Exact graphlet counts of `g` on any [`GraphStorage`] backend, by
/// edge-local counting over `g`'s own rows, fanned out over nodes. The sums are integers, so the result equals
/// [`count_graphlets`] bit for bit on any backend, at any thread count.
pub fn count_graphlets_par<S: GraphStorage + ?Sized>(g: &S) -> GraphletCounts {
    census(g, None).expect("an unmetered census cannot fail")
}

/// Budget-aware [`count_graphlets_par`]: the census honors `ctrl`'s
/// cancel flag, deadline and per-stage tick quota. A canceled or
/// expired budget is rejected up front. Every node then gets a fresh
/// meter, ticked once per scanned row entry, so whether a node trips
/// its quota does not depend on the thread count, and the first failing
/// node in id order reports. Under an unlimited budget the result
/// equals [`count_graphlets_par`].
pub fn count_graphlets_ctrl<S: GraphStorage + ?Sized>(
    g: &S,
    ctrl: &Budget,
) -> Result<GraphletCounts, VqiError> {
    ctrl.check("kernel.graphlet")?;
    census(g, Some(ctrl))
}

/// Shared body of the census entry points.
fn census<S: GraphStorage + ?Sized>(
    g: &S,
    ctrl: Option<&Budget>,
) -> Result<GraphletCounts, VqiError> {
    let n = g.node_count();
    if n < 3 {
        return Ok(GraphletCounts::default());
    }
    let _s = vqi_observe::span("kernel.graphlet.count");
    vqi_observe::incr("kernel.graphlet.count.roots", n as u64);
    exact_census(g, ctrl)
}

// ---------------------------------------------------------------------------
// Incremental maintenance
// ---------------------------------------------------------------------------

/// Per-batch statistics of a [`CensusMaintainer::apply`] call.
#[derive(Debug, Clone, Copy, Default)]
pub struct CensusDeltaStats {
    /// Edge inserts actually applied.
    pub inserts: usize,
    /// Edge deletes actually applied.
    pub deletes: usize,
    /// Mutations skipped as no-ops.
    pub skipped: usize,
    /// Rows the edge-local kernel scanned, summed over the applied
    /// mutations (the delta working set).
    pub recounted_roots: usize,
}

/// **Edge-local deltas.** A graphlet gained or lost by toggling the edge
/// `u -- v` contains both `u` and `v`, and [`pair_cells`] counts exactly
/// those node sets, classified once with the edge and once without. An
/// insert therefore moves the totals by `with − without` and a delete by
/// `without − with`, each computed against the graph at that point of
/// the batch, so one mutation costs the rows of `N(u) ∪ N(v)` and never
/// a recount. The counts are `u64`s moved by exact integer arithmetic,
/// so they equal a from-scratch [`count_graphlets_par`] bit for bit
/// after every batch, at any thread count (property-tested across
/// insert/delete/mixed batches).
impl GraphletCounts {
    /// The first phase of a batch, on `g` (whose exact counts these
    /// are) before the edit: each edge of `dead` (ascending, as
    /// [`Graph::removal_ids`] returns them) leaves the counts in turn,
    /// with the removals before it gone. Returns the rows scanned.
    pub fn before_edit(&mut self, g: &Graph, dead: &[EdgeId]) -> usize {
        let _s = vqi_observe::span("kernel.census.delta");
        let gone = crate::delta::removed_mask(g.edge_count(), dead);
        let mut marks = vec![0u8; g.node_count()];
        let rows = dead
            .iter()
            .map(|&d| self.toggle(g, d, |f| f > d || !gone[f.index()], &mut marks, false))
            .sum();
        vqi_observe::incr("kernel.census.delta.deletes", dead.len() as u64);
        vqi_observe::incr("kernel.census.delta.roots", rows as u64);
        rows
    }

    /// The second phase, on `g` after `edit`: each added edge (the last
    /// ids, in order) joins the counts with only the edges of smaller
    /// id present. Returns the rows scanned.
    pub fn after_edit(&mut self, g: &Graph, edit: &GraphEdit) -> usize {
        let _s = vqi_observe::span("kernel.census.delta");
        let m = g.edge_count();
        let mut marks = vec![0u8; g.node_count()];
        let rows = (m - edit.delta.inserts.len()..m)
            .map(|i| EdgeId(i as u32))
            .map(|e| self.toggle(g, e, |f| f <= e, &mut marks, true))
            .sum();
        vqi_observe::incr("kernel.census.delta.batches", 1);
        vqi_observe::incr(
            "kernel.census.delta.inserts",
            edit.delta.inserts.len() as u64,
        );
        vqi_observe::incr("kernel.census.delta.roots", rows as u64);
        rows
    }

    /// Moves the counts across a toggle of edge `e`, over the edges that
    /// pass `live`: the graphlets containing both endpoints leave their
    /// class on the old side of the toggle and join their class on the
    /// new side. Returns the rows scanned.
    fn toggle(
        &mut self,
        g: &Graph,
        e: EdgeId,
        live: impl Fn(EdgeId) -> bool,
        marks: &mut [u8],
        inserted: bool,
    ) -> usize {
        let mut cells = PairCells::default();
        pair_cells(g, g.endpoints(e), live, marks, &mut cells);
        let gone = cells.classes(!inserted);
        let born = cells.classes(inserted);
        for c in 0..GRAPHLET_CLASSES {
            // every graphlet in `gone` is in the current counts, so the
            // subtraction cannot underflow
            self.counts[c] = self.counts[c] - gone[c] + born[c];
        }
        cells.rows() as usize
    }
}

/// A standalone incremental graphlet census: a graph of its own and its
/// exact [`GraphletCounts`], moved per delta through the same two phases
/// the network maintainer runs around its network's edit.
#[derive(Debug, Clone)]
pub struct CensusMaintainer {
    graph: Graph,
    /// Exact per-class counts of `graph`.
    total: GraphletCounts,
}

impl CensusMaintainer {
    /// Seeds the maintainer from a copy of `g` with a full parallel
    /// census.
    pub fn new(g: &Graph) -> Self {
        Self {
            graph: g.clone(),
            total: exact_census(g, None).expect("an unmetered census cannot fail"),
        }
    }

    /// Nodes in the maintained universe.
    pub fn node_count(&self) -> usize {
        self.graph.node_count()
    }

    /// The maintained total counts (equal to [`count_graphlets_par`] of
    /// the current graph, bit for bit).
    pub fn counts(&self) -> &GraphletCounts {
        &self.total
    }

    /// The maintained graphlet frequency distribution.
    pub fn distribution(&self) -> [f64; GRAPHLET_CLASSES] {
        self.total.distribution()
    }

    /// Grows the node universe to at least `n` nodes (new nodes are in
    /// no graphlet until edges arrive).
    pub fn grow_nodes(&mut self, n: usize) {
        while self.graph.node_count() < n {
            self.graph.add_node(0);
        }
    }

    /// Applies one edge-churn batch (deletes first, then inserts) and
    /// moves the exact totals by each applied mutation's edge-local
    /// delta.
    pub fn apply(&mut self, delta: &EdgeDelta) -> CensusDeltaStats {
        let batch = delta.to_batch(self.graph.node_count());
        let dead = self.graph.removal_ids(&batch);
        let removed = self.total.before_edit(&self.graph, &dead);
        let edit = self.graph.apply_batch_removing(&batch, dead);
        let added = self.total.after_edit(&self.graph, &edit);
        let (inserts, deletes) = (edit.delta.inserts.len(), edit.delta.deletes.len());
        CensusDeltaStats {
            inserts,
            deletes,
            skipped: delta.len() - inserts - deletes,
            recounted_roots: removed + added,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

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

    fn path(n: usize) -> Graph {
        let mut g = Graph::new();
        let mut prev = g.add_node(0);
        for _ in 1..n {
            let cur = g.add_node(0);
            g.add_edge(prev, cur, 0);
            prev = cur;
        }
        g
    }

    #[test]
    fn triangle_counts() {
        let c = count_graphlets(&clique(3));
        assert_eq!(c.counts[1], 1);
        assert_eq!(c.counts[0], 0);
        assert_eq!(c.total(), 1);
    }

    #[test]
    fn k4_counts() {
        let c = count_graphlets(&clique(4));
        // K4 contains 4 triangles, 0 P3... wait: induced 3-subsets of K4
        // are all triangles (4 of them), and the single 4-set is K4.
        assert_eq!(c.counts[1], 4);
        assert_eq!(c.counts[0], 0);
        assert_eq!(c.counts[7], 1);
        assert_eq!(c.total(), 5);
    }

    #[test]
    fn path_counts() {
        let c = count_graphlets(&path(4));
        // P4 contains 2 induced P3s and 1 induced P4
        assert_eq!(c.counts[0], 2);
        assert_eq!(c.counts[2], 1);
        assert_eq!(c.total(), 3);
    }

    #[test]
    fn star_counts() {
        // S4: center 0, leaves 1..3
        let g = GraphBuilder::new()
            .nodes(&[0; 4])
            .edge(0, 1, 0)
            .edge(0, 2, 0)
            .edge(0, 3, 0)
            .build();
        let c = count_graphlets(&g);
        assert_eq!(c.counts[0], 3); // each pair of leaves + center
        assert_eq!(c.counts[3], 1); // the star itself
    }

    #[test]
    fn cycle4_counts() {
        let g = GraphBuilder::new()
            .nodes(&[0; 4])
            .edge(0, 1, 0)
            .edge(1, 2, 0)
            .edge(2, 3, 0)
            .edge(3, 0, 0)
            .build();
        let c = count_graphlets(&g);
        assert_eq!(c.counts[4], 1);
        assert_eq!(c.counts[0], 4);
    }

    #[test]
    fn diamond_and_tailed_triangle() {
        let diamond = GraphBuilder::new()
            .nodes(&[0; 4])
            .edge(0, 1, 0)
            .edge(1, 2, 0)
            .edge(0, 2, 0)
            .edge(1, 3, 0)
            .edge(2, 3, 0)
            .build();
        assert_eq!(count_graphlets(&diamond).counts[6], 1);
        let tailed = GraphBuilder::new()
            .nodes(&[0; 4])
            .edge(0, 1, 0)
            .edge(1, 2, 0)
            .edge(0, 2, 0)
            .edge(2, 3, 0)
            .build();
        assert_eq!(count_graphlets(&tailed).counts[5], 1);
    }

    #[test]
    fn distribution_sums_to_one() {
        let g = clique(5);
        let d = count_graphlets(&g).distribution();
        let sum: f64 = d.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
        // empty graph: all zeros
        let z = count_graphlets(&Graph::new()).distribution();
        assert!(z.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn distribution_is_permutation_invariant() {
        let g = GraphBuilder::new()
            .nodes(&[0; 5])
            .edge(0, 1, 0)
            .edge(1, 2, 0)
            .edge(2, 0, 0)
            .edge(2, 3, 0)
            .edge(3, 4, 0)
            .build();
        let h = g.permuted(&[4, 2, 0, 3, 1]);
        assert_eq!(
            count_graphlets(&g).distribution(),
            count_graphlets(&h).distribution()
        );
    }

    #[test]
    fn esu_enumerates_each_subgraph_once() {
        let g = clique(5);
        let mut count = 0usize;
        let mut seen = std::collections::HashSet::new();
        enumerate_connected_subgraphs(&g, 3, |nodes| {
            count += 1;
            let mut key: Vec<u32> = nodes.iter().map(|n| n.0).collect();
            key.sort_unstable();
            assert!(seen.insert(key), "duplicate subgraph");
        });
        // C(5,3) = 10 connected triples in a clique
        assert_eq!(count, 10);
    }

    #[test]
    fn euclidean_distance_properties() {
        let a = [0.5, 0.5, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0];
        let b = [0.0, 0.0, 0.5, 0.5, 0.0, 0.0, 0.0, 0.0];
        assert_eq!(euclidean_distance(&a, &a), 0.0);
        assert!((euclidean_distance(&a, &b) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn collection_distribution_aggregates() {
        // counts are summed before normalizing, as MIDAS computes the
        // GFD of a collection
        let mut total = GraphletCounts::default();
        for g in [clique(3), path(3)] {
            total.add(&count_graphlets(&g));
        }
        let d = total.distribution();
        // one triangle + one P3 -> 50/50
        assert!((d[0] - 0.5).abs() < 1e-12);
        assert!((d[1] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn parallel_counts_match_reference_across_thread_counts() {
        use crate::generate::{assign_labels, erdos_renyi};
        let _guard = crate::kernel_test_lock();
        let prev = par::thread_cap();
        for seed in 0..12u64 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut g = erdos_renyi(24, 0.2, 0, &mut rng);
            assign_labels(&mut g, 3, 2, &mut rng);
            let expect = count_graphlets(&g);
            for cap in [1usize, 2, 4] {
                par::set_thread_cap(cap);
                assert_eq!(
                    count_graphlets_par(&g).counts,
                    expect.counts,
                    "seed {seed} cap {cap}"
                );
            }
            par::set_thread_cap(prev);
        }
    }

    #[test]
    fn ctrl_with_unlimited_budget_matches_plain() {
        use crate::generate::erdos_renyi;
        use vqi_runtime::Budget;
        let _guard = crate::kernel_test_lock();
        let mut rng = SmallRng::seed_from_u64(77);
        let g = erdos_renyi(24, 0.2, 0, &mut rng);
        let b = Budget::unlimited();
        assert_eq!(
            count_graphlets_ctrl(&g, &b).expect("unlimited").counts,
            count_graphlets_par(&g).counts
        );
    }

    #[test]
    fn graphlet_tick_quota_trips_identically_across_thread_counts() {
        use vqi_runtime::{Budget, VqiError};
        let _guard = crate::kernel_test_lock();
        let g = clique(8);
        let b = Budget::unlimited().with_kernel_ticks(10);
        // every root gets a fresh 10-tick meter, so which root trips —
        // and therefore the returned error — cannot depend on how the
        // roots were chunked across workers
        let prev = par::thread_cap();
        let mut outcomes = Vec::new();
        for cap in [1usize, 2, 4] {
            par::set_thread_cap(cap);
            outcomes.push(count_graphlets_ctrl(&g, &b));
        }
        par::set_thread_cap(prev);
        for o in &outcomes {
            assert_eq!(
                *o,
                Err(VqiError::QuotaExceeded {
                    stage: "kernel.graphlet".into()
                })
            );
        }
        // a generous quota restores the exact result
        let roomy = Budget::unlimited().with_kernel_ticks(1_000_000);
        assert_eq!(
            count_graphlets_ctrl(&g, &roomy).expect("roomy").counts,
            count_graphlets(&g).counts
        );
    }

    #[test]
    fn census_ctrl_rejects_a_canceled_budget_up_front() {
        use vqi_runtime::{Budget, CancelToken, VqiError};
        let token = CancelToken::new();
        token.cancel();
        let canceled = Budget::unlimited().with_cancel(token);
        // before any node is counted, even on a graph too small to hold
        // a graphlet
        for g in [clique(8), path(2)] {
            assert!(matches!(
                count_graphlets_ctrl(&g, &canceled),
                Err(VqiError::Canceled { .. })
            ));
        }
    }

    fn binom(n: u64, k: u64) -> u64 {
        (0..k).fold(1, |acc, i| acc * (n - i) / (i + 1))
    }

    #[test]
    fn census_matches_closed_forms_on_cliques_and_stars() {
        // K_n: every 3-set is a triangle and every 4-set a K4
        for n in 3..=9usize {
            let c = count_graphlets_par(&clique(n));
            let mut expect = [0u64; GRAPHLET_CLASSES];
            expect[1] = binom(n as u64, 3);
            expect[7] = binom(n as u64, 4);
            assert_eq!(c.counts, expect, "K{n}");
        }
        // a star with k leaves: every leaf pair is a P3 through the
        // center and every leaf triple a claw
        for k in 2..=9u32 {
            let edges: Vec<(u32, u32)> = (1..=k).map(|l| (0, l)).collect();
            let c = count_graphlets_par(&graph_of(k as usize + 1, &edges));
            let mut expect = [0u64; GRAPHLET_CLASSES];
            expect[0] = binom(k as u64, 2);
            expect[3] = binom(k as u64, 3);
            assert_eq!(c.counts, expect, "star with {k} leaves");
        }
    }

    #[test]
    fn census_of_a_disjoint_union_is_the_sum_of_its_components() {
        use crate::generate::erdos_renyi;
        let _guard = crate::kernel_test_lock();
        for seed in 0..6u64 {
            let mut rng = SmallRng::seed_from_u64(300 + seed);
            let a = erdos_renyi(14, 0.3, 0, &mut rng);
            let b = erdos_renyi(11, 0.35, 0, &mut rng);
            let offset = a.node_count() as u32;
            let mut edges = Vec::new();
            for (g, shift) in [(&a, 0), (&b, offset)] {
                for e in g.edges() {
                    let (u, v) = g.endpoints(e);
                    edges.push((u.0 + shift, v.0 + shift));
                }
            }
            let union = graph_of(a.node_count() + b.node_count(), &edges);
            let mut expect = count_graphlets_par(&a);
            expect.add(&count_graphlets_par(&b));
            assert_eq!(count_graphlets_par(&union), expect, "seed {seed}");
        }
    }

    #[test]
    fn census_is_empty_below_three_nodes_and_without_edges() {
        let tiny = [Graph::new(), path(1), path(2)];
        let edgeless = graph_of(10, &[]);
        // a perfect matching has edges but no connected 3-set
        let matching = graph_of(8, &[(0, 1), (2, 3), (4, 5), (6, 7)]);
        for g in tiny.iter().chain([&edgeless, &matching]) {
            let c = count_graphlets_par(g);
            assert_eq!(c, GraphletCounts::default(), "{} nodes", g.node_count());
            assert_eq!(c, count_graphlets(g));
            assert!(c.distribution().iter().all(|&x| x == 0.0));
            let m = CensusMaintainer::new(g);
            assert_eq!(*m.counts(), c);
        }
    }

    #[test]
    fn census_ctrl_on_csr_backend_matches_heap_graph() {
        use crate::generate::erdos_renyi;
        use crate::storage::CsrGraph;
        use vqi_runtime::Budget;
        let _guard = crate::kernel_test_lock();
        let unlimited = Budget::unlimited();
        let tight = Budget::unlimited().with_kernel_ticks(10);
        for seed in 0..6u64 {
            let mut rng = SmallRng::seed_from_u64(500 + seed);
            let g = erdos_renyi(24, 0.25, 0, &mut rng);
            let csr = CsrGraph::from_graph(&g);
            assert_eq!(
                count_graphlets_ctrl(&csr, &unlimited).expect("unlimited"),
                count_graphlets(&g),
                "seed {seed}"
            );
            // the backend does not change which node trips the quota
            assert!(count_graphlets_ctrl(&csr, &tight).is_err(), "seed {seed}");
            assert_eq!(
                count_graphlets_ctrl(&csr, &tight),
                count_graphlets_ctrl(&g, &tight),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn census_is_invariant_under_node_relabeling() {
        use crate::generate::erdos_renyi;
        use rand::seq::SliceRandom;
        let _guard = crate::kernel_test_lock();
        for seed in 0..8u64 {
            let mut rng = SmallRng::seed_from_u64(700 + seed);
            let g = erdos_renyi(20, 0.25, 0, &mut rng);
            let mut perm: Vec<usize> = (0..g.node_count()).collect();
            perm.shuffle(&mut rng);
            assert_eq!(
                count_graphlets_par(&g.permuted(&perm)),
                count_graphlets_par(&g),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn census_maintainer_insert_then_delete_restores_seed_counts() {
        use crate::delta::EdgeDelta;
        use crate::generate::erdos_renyi;
        use rand::Rng;
        let _guard = crate::kernel_test_lock();
        for seed in 0..6u64 {
            let mut rng = SmallRng::seed_from_u64(900 + seed);
            let g = erdos_renyi(18, 0.2, 0, &mut rng);
            let mut m = CensusMaintainer::new(&g);
            let seeded = *m.counts();
            // growing the universe adds isolated nodes, which are in no
            // graphlet
            m.grow_nodes(22);
            assert_eq!(m.node_count(), 22);
            assert_eq!(*m.counts(), seeded, "seed {seed}: grow");
            // insert fresh edges, some to the new nodes, then take them out
            let mut fresh = Vec::new();
            while fresh.len() < 8 {
                let (u, v) = (rng.gen_range(0..22u32), rng.gen_range(0..22u32));
                let (u, v) = (u.min(v), u.max(v));
                let known = (u as usize) < g.node_count()
                    && (v as usize) < g.node_count()
                    && g.has_edge(NodeId(u), NodeId(v));
                if u != v && !known && !fresh.contains(&(u, v)) {
                    fresh.push((u, v));
                }
            }
            let stats = m.apply(&EdgeDelta::inserting(fresh.clone()));
            assert_eq!(stats.inserts, fresh.len());
            m.apply(&EdgeDelta::deleting(fresh));
            assert_eq!(*m.counts(), seeded, "seed {seed}: round trip");
        }
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

    #[track_caller]
    fn assert_census_matches(m: &CensusMaintainer, edges: &[(u32, u32)], ctx: &str) {
        let g = graph_of(m.node_count(), edges);
        assert_eq!(
            *m.counts(),
            count_graphlets_par(&g),
            "{ctx}: maintained != fresh"
        );
    }

    #[test]
    fn census_maintainer_matches_fresh_count_across_batches() {
        use crate::delta::EdgeDelta;
        use crate::generate::erdos_renyi;
        use rand::Rng;
        use std::collections::BTreeSet;
        let _guard = crate::kernel_test_lock();
        let prev = par::thread_cap();
        for cap in [1usize, 2, 4] {
            par::set_thread_cap(cap);
            for seed in 0..12u64 {
                let mut rng = SmallRng::seed_from_u64(seed);
                let n = 24;
                let g = erdos_renyi(n, 0.2, 0, &mut rng);
                let mut set: BTreeSet<(u32, u32)> = g
                    .edges()
                    .map(|e| {
                        let (u, v) = g.endpoints(e);
                        (u.0.min(v.0), u.0.max(v.0))
                    })
                    .collect();
                let mut m = CensusMaintainer::new(&g);
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
                        let span = n as u32 + 2; // exercise node growth
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
                    assert_census_matches(
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
    fn census_edge_case_batches_match_fresh_count() {
        use crate::delta::{absorb, edge_case_delta, EDGE_CASES};
        use crate::generate::erdos_renyi;
        use rand::Rng;
        use std::collections::BTreeSet;
        let _guard = crate::kernel_test_lock();
        let prev = par::thread_cap();
        for cap in [1usize, 4] {
            par::set_thread_cap(cap);
            for seed in 0..12u64 {
                let mut rng = SmallRng::seed_from_u64(seed);
                let mut g = erdos_renyi(24, 0.2, 0, &mut rng);
                // a hub joined to a third of the nodes
                for v in 1..24 {
                    if rng.gen_bool(0.35) {
                        g.add_edge(NodeId(0), NodeId(v), 0);
                    }
                }
                let key = |(u, v): (NodeId, NodeId)| (u.0.min(v.0), u.0.max(v.0));
                let mut set: BTreeSet<(u32, u32)> =
                    g.edges().map(|e| key(g.endpoints(e))).collect();
                let mut m = CensusMaintainer::new(&g);
                for round in 0..EDGE_CASES {
                    let delta = edge_case_delta(&m.graph, round);
                    absorb(&mut set, &delta);
                    let stats = m.apply(&delta);
                    assert!(
                        stats.inserts + stats.deletes > 0,
                        "round {round} is a no-op"
                    );
                    let edges: Vec<(u32, u32)> = set.iter().copied().collect();
                    let ctx = format!("seed {seed} cap {cap} edge case {round}");
                    assert_census_matches(&m, &edges, &ctx);
                }
            }
        }
        par::set_thread_cap(prev);
    }

    #[test]
    fn census_maintainer_fixture_deltas() {
        use crate::delta::EdgeDelta;
        // a triangle: one K3 (class 1), no P3
        let edges = [(0, 1), (1, 2), (0, 2)];
        let mut m = CensusMaintainer::new(&graph_of(3, &edges));
        assert_eq!(m.counts().counts[1], 1);
        assert_eq!(m.counts().counts[0], 0);

        // close it into a K4 via a new node: 1 four-clique, 4 triangles...
        let stats = m.apply(&EdgeDelta::inserting(vec![(0, 3), (1, 3), (2, 3)]));
        assert_eq!(stats.inserts, 3);
        assert!(stats.recounted_roots > 0);
        let k4 = [(0, 1), (1, 2), (0, 2), (0, 3), (1, 3), (2, 3)];
        assert_census_matches(&m, &k4, "K4 completion");

        // duplicate insert and missing delete are skipped
        let stats = m.apply(&EdgeDelta {
            inserts: vec![(0, 1), (2, 2)],
            deletes: vec![(0, 9)],
        });
        assert_eq!(stats.skipped, 3);
        assert_census_matches(&m, &k4, "no-op batch");

        // delete an edge back out
        m.apply(&EdgeDelta::deleting(vec![(1, 2)]));
        let diamond = [(0, 1), (0, 2), (0, 3), (1, 3), (2, 3)];
        assert_census_matches(&m, &diamond, "deletion");

        // empty batch is a no-op
        let stats = m.apply(&EdgeDelta::new());
        assert_eq!(stats.recounted_roots, 0);
        assert_census_matches(&m, &diamond, "empty batch");
    }
}
