//! Property tests of the graph substrate, each case drawn from a seeded
//! generator.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;
use std::sync::{Mutex, MutexGuard, PoisonError};
use vqi_graph::delta::{EdgeBatch, EdgeDelta, GraphEdit};
use vqi_graph::generate::{
    chain, clique, cycle, erdos_renyi, star, synthetic_network, SyntheticSpec,
};
use vqi_graph::graph::{EdgeId, Graph, Label, NodeId, WILDCARD_LABEL};
use vqi_graph::graphlet::{
    count_graphlets, count_graphlets_ctrl, count_graphlets_par, CensusMaintainer,
};
use vqi_graph::index::GraphIndex;
use vqi_graph::iso::{is_subgraph_isomorphic, MatchOptions};
use vqi_graph::metrics::{average_degree, degree_histogram};
use vqi_graph::par;
use vqi_graph::storage::CsrGraph;
use vqi_graph::traversal::{bfs_order, connected_components, dfs_order};
use vqi_graph::truss::{decompose, edge_supports, trussness};
use vqi_runtime::Budget;

const CASES: u64 = 96;

/// A random graph on `2..=max_n` nodes, each pair joined with
/// probability 0.45, node labels in `0..4`.
fn random_graph(rng: &mut SmallRng, max_n: usize) -> Graph {
    let n = rng.gen_range(2..=max_n);
    let mut g = Graph::new();
    let nodes: Vec<NodeId> = (0..n).map(|_| g.add_node(rng.gen_range(0u32..4))).collect();
    for i in 0..n {
        for j in (i + 1)..n {
            if rng.gen_bool(0.45) {
                g.add_edge(nodes[i], nodes[j], 0);
            }
        }
    }
    g
}

/// A graph is always subgraph-isomorphic to itself (non-induced and
/// induced).
#[test]
fn self_embedding() {
    for seed in 0..CASES {
        let g = random_graph(&mut SmallRng::seed_from_u64(seed), 8);
        for opts in [MatchOptions::default(), MatchOptions::induced()] {
            assert!(is_subgraph_isomorphic(&g, &g, opts), "seed {seed}");
        }
    }
}

/// Induced subgraphs embed induced into the original.
#[test]
fn induced_subgraph_embeds() {
    for seed in 0..CASES {
        let rng = &mut SmallRng::seed_from_u64(seed);
        let g = random_graph(rng, 8);
        let nodes: Vec<NodeId> = g.nodes().filter(|_| rng.gen_bool(0.5)).collect();
        if nodes.is_empty() {
            continue;
        }
        let (sub, mapping) = g.induced_subgraph(&nodes);
        assert_eq!(sub.node_count(), nodes.len(), "seed {seed}");
        let induced = MatchOptions::induced();
        assert!(is_subgraph_isomorphic(&sub, &g, induced), "seed {seed}");
        // mapping preserves labels
        for v in sub.nodes() {
            let original = g.node_label(mapping[v.index()]);
            assert_eq!(sub.node_label(v), original, "seed {seed}");
        }
    }
}

/// BFS and DFS from the same start visit exactly the same node set.
#[test]
fn bfs_dfs_agree_on_reachability() {
    for seed in 0..CASES {
        let g = random_graph(&mut SmallRng::seed_from_u64(seed), 9);
        let mut b = bfs_order(&g, NodeId(0));
        let mut d = dfs_order(&g, NodeId(0));
        b.sort_unstable();
        d.sort_unstable();
        assert_eq!(b, d, "seed {seed}");
    }
}

/// Components partition the node set.
#[test]
fn components_partition() {
    for seed in 0..CASES {
        let g = random_graph(&mut SmallRng::seed_from_u64(seed), 9);
        let mut all: Vec<NodeId> = connected_components(&g).into_iter().flatten().collect();
        all.sort_unstable();
        let expect: Vec<NodeId> = g.nodes().collect();
        assert_eq!(all, expect, "seed {seed}");
    }
}

/// Edge supports sum to 3 × (number of triangles): each triangle
/// contributes one support unit to each of its three edges.
#[test]
fn supports_count_triangles() {
    for seed in 0..CASES {
        let rng = &mut SmallRng::seed_from_u64(seed);
        let total: u32 = edge_supports(&random_graph(rng, 8)).iter().sum();
        assert_eq!(total % 3, 0, "seed {seed}");
    }
}

/// k-trusses are nested: edges of the (k+1)-truss are a subset of the
/// k-truss edges.
#[test]
fn trusses_are_nested() {
    for seed in 0..CASES {
        let g = random_graph(&mut SmallRng::seed_from_u64(seed), 9);
        let d3 = decompose(&g, 3);
        let d4 = decompose(&g, 4);
        let set3: std::collections::HashSet<_> = d3.infested_edges.iter().collect();
        for e in &d4.infested_edges {
            assert!(set3.contains(e), "seed {seed}: 4-truss edge {e:?}");
        }
    }
}

/// Trussness is at least 2 everywhere and at most max support + 2.
#[test]
fn trussness_bounds() {
    for seed in 0..CASES {
        let g = random_graph(&mut SmallRng::seed_from_u64(seed), 9);
        let max_s = edge_supports(&g).iter().copied().max().unwrap_or(0);
        for &x in &trussness(&g) {
            assert!((2..=max_s + 2).contains(&x), "seed {seed}: trussness {x}");
        }
    }
}

/// Degree histogram is consistent with average degree.
#[test]
fn degree_histogram_consistent() {
    for seed in 0..CASES {
        let g = random_graph(&mut SmallRng::seed_from_u64(seed), 9);
        let hist = degree_histogram(&g);
        let total_nodes: usize = hist.iter().sum();
        assert_eq!(total_nodes, g.node_count(), "seed {seed}");
        let sum_deg: usize = hist.iter().enumerate().map(|(d, &c)| d * c).sum();
        assert_eq!(sum_deg, 2 * g.edge_count(), "seed {seed}");
        let exact = sum_deg as f64 / g.node_count() as f64;
        assert!((average_degree(&g) - exact).abs() < 1e-12, "seed {seed}");
    }
}

/// Non-induced matching is weaker than induced: every induced
/// embedding is also a non-induced one.
#[test]
fn induced_implies_non_induced() {
    for seed in 0..CASES {
        let rng = &mut SmallRng::seed_from_u64(seed);
        let (p, t) = (random_graph(rng, 5), random_graph(rng, 7));
        let embeds = |opts| is_subgraph_isomorphic(&p, &t, opts);
        if embeds(MatchOptions::induced()) {
            assert!(embeds(MatchOptions::default()), "seed {seed}");
        }
    }
}

/// Permutation preserves subgraph relations.
#[test]
fn permutation_preserves_matching() {
    for seed in 0..CASES {
        let rng = &mut SmallRng::seed_from_u64(seed);
        let (p, t) = (random_graph(rng, 5), random_graph(rng, 7));
        let perm: Vec<usize> = (0..t.node_count()).rev().collect();
        let embeds = |t: &Graph| is_subgraph_isomorphic(&p, t, MatchOptions::default());
        assert_eq!(embeds(&t), embeds(&t.permuted(&perm)), "seed {seed}");
    }
}

/// Serializes the tests that set the global thread cap.
fn cap_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The exact census graphs: G(n, p) with `n ≤ 16` at densities 0 to 1,
/// stars, paths, cycles, K3–K8 and a small synthetic network.
fn census_graphs() -> Vec<Graph> {
    let mut graphs = Vec::new();
    for seed in 0..160u64 {
        let rng = &mut SmallRng::seed_from_u64(seed);
        let n = rng.gen_range(0..=16);
        let p = (seed % 11) as f64 / 10.0;
        graphs.push(erdos_renyi(n, p, 0, rng));
    }
    graphs.extend((0..=12).map(|leaves| star(leaves, 0, 0)));
    graphs.extend((1..=12).map(|n| chain(n, 0, 0)));
    graphs.extend((3..=12).map(|n| cycle(n, 0, 0)));
    graphs.extend((3..=8).map(|n| clique(n, 0, 0)));
    graphs.push(synthetic_network(&SyntheticSpec {
        nodes: 300,
        uniform_edges: 500,
        cliques: 6,
        node_labels: 2,
        edge_labels: 1,
        seed: 11,
    }));
    graphs
}

/// The edge-local exact census equals ESU enumeration bit for bit on
/// both backends, through every exact entry point, at caps 1, 2 and 4.
#[test]
fn exact_census_matches_esu_oracle_on_both_backends_across_caps() {
    let _guard = cap_lock();
    let graphs = census_graphs();
    assert!(graphs.len() >= 200);
    let unlimited = Budget::unlimited();
    for cap in [1usize, 2, 4] {
        par::set_thread_cap(cap);
        for (i, g) in graphs.iter().enumerate() {
            let expect = count_graphlets(g).counts;
            let csr = CsrGraph::from_graph(g);
            let ctrl = count_graphlets_ctrl(g, &unlimited).expect("unlimited budget");
            let csr_ctrl = count_graphlets_ctrl(&csr, &unlimited).expect("unlimited budget");
            let got = [
                ("heap", count_graphlets_par(g)),
                ("csr", count_graphlets_par(&csr)),
                ("ctrl", ctrl),
                ("csr ctrl", csr_ctrl),
            ];
            for (path, counts) in got {
                assert_eq!(
                    counts.counts, expect,
                    "graph {i} cap {cap} {path}: {:?}",
                    counts.counts
                );
            }
        }
    }
    par::set_thread_cap(0);
}

/// Applies `delta` to `edges` the way the maintainers do (deletes first,
/// no-ops skipped) and returns the expected `(inserts, deletes, skipped)`.
fn apply_to_set(edges: &mut BTreeSet<(u32, u32)>, delta: &EdgeDelta) -> (usize, usize, usize) {
    let key = |a: u32, b: u32| (a.min(b), a.max(b));
    let (mut ins, mut del, mut skip) = (0, 0, 0);
    for &(a, b) in &delta.deletes {
        if a != b && edges.remove(&key(a, b)) {
            del += 1;
        } else {
            skip += 1;
        }
    }
    for &(a, b) in &delta.inserts {
        if a != b && edges.insert(key(a, b)) {
            ins += 1;
        } else {
            skip += 1;
        }
    }
    (ins, del, skip)
}

fn graph_of(n: usize, edges: &BTreeSet<(u32, u32)>) -> Graph {
    let mut g = Graph::new();
    for _ in 0..n {
        g.add_node(0);
    }
    for &(u, v) in edges {
        g.add_edge(NodeId(u), NodeId(v), 0);
    }
    g
}

/// A `CensusMaintainer` driven through scripted and random batches
/// matches the ESU oracle after every batch, and counts its no-ops.
#[test]
fn census_maintainer_sequence_matches_esu_oracle() {
    let _guard = cap_lock();
    for cap in [1usize, 2, 4] {
        par::set_thread_cap(cap);
        for seed in 0..8u64 {
            let rng = &mut SmallRng::seed_from_u64(seed);
            // node 0 is a hub joined to most of the other 15 nodes
            let mut edges = BTreeSet::new();
            for v in 1..16u32 {
                if rng.gen_bool(0.8) {
                    edges.insert((0, v));
                }
                for w in (v + 1)..16 {
                    if rng.gen_bool(0.3) {
                        edges.insert((v, w));
                    }
                }
            }
            let mut n = 16usize;
            let mut m = CensusMaintainer::new(&graph_of(n, &edges));
            let present = |edges: &BTreeSet<(u32, u32)>, rng: &mut SmallRng| {
                let all: Vec<_> = edges.iter().copied().collect();
                all[rng.gen_range(0..all.len())]
            };
            let absent = |edges: &BTreeSet<(u32, u32)>, rng: &mut SmallRng| loop {
                let (a, b) = (rng.gen_range(1..16u32), rng.gen_range(1..16u32));
                if a != b && !edges.contains(&(a.min(b), a.max(b))) {
                    return (a, b);
                }
            };
            let e = present(&edges, rng);
            let f = absent(&edges, rng);
            let g = absent(&edges, rng);
            let hub_present: Vec<(u32, u32)> = edges
                .iter()
                .copied()
                .filter(|&(a, _)| a == 0)
                .take(4)
                .collect();
            let hub_absent = (1..16u32).find(|&v| !edges.contains(&(0, v)));
            let mut scripted = vec![
                // an edge deleted and re-inserted in the same batch
                EdgeDelta {
                    deletes: vec![e],
                    inserts: vec![(e.1, e.0)],
                },
                // duplicate inserts and self-loops
                EdgeDelta {
                    deletes: vec![(7, 7)],
                    inserts: vec![f, f, (f.1, f.0), e, (3, 3)],
                },
                // deletes of absent edges, one naming a node past the universe
                EdgeDelta::deleting(vec![g, (g.1, g.0), (1, 20)]),
                // hub edges out, and in to new nodes
                EdgeDelta {
                    deletes: hub_present,
                    inserts: (21..28)
                        .map(|v| (0, v))
                        .chain(hub_absent.map(|v| (0, v)))
                        .collect(),
                },
                // node growth: a tailed triangle on fresh nodes, bridged in
                EdgeDelta::inserting(vec![(30, 31), (31, 32), (30, 32), (32, 33), (33, 5)]),
            ];
            for _ in 0..4 {
                let mut d = EdgeDelta::new();
                for _ in 0..5 {
                    d.deletes.push(present(&edges, rng));
                    let span = 36u32;
                    d.inserts
                        .push((rng.gen_range(0..span), rng.gen_range(0..span)));
                }
                scripted.push(d);
            }
            for (round, delta) in scripted.iter().enumerate() {
                let ctx = format!("seed {seed} cap {cap} batch {round}");
                let stats = m.apply(delta);
                let expect = apply_to_set(&mut edges, delta);
                if let Some(mx) = delta.max_node() {
                    n = n.max(mx as usize + 1);
                }
                assert_eq!(m.node_count(), n, "{ctx}");
                assert_eq!(
                    (stats.inserts, stats.deletes, stats.skipped),
                    expect,
                    "{ctx}"
                );
                let oracle = count_graphlets(&graph_of(n, &edges));
                assert_eq!(*m.counts(), oracle, "{ctx}: maintained != ESU");
            }
        }
    }
    par::set_thread_cap(0);
}

/// `batch` applied by rebuilding: a fresh graph with every node (old and
/// appended), the edges of `pre` that no removal names in edge-id
/// order, then the additions `Graph::add_edge` accepts; with the
/// effective delta (live removals in edge order, accepted additions).
fn rebuild(pre: &Graph, batch: &EdgeBatch) -> (Graph, EdgeDelta) {
    let key = |a: u32, b: u32| (a.min(b), a.max(b));
    let removals: BTreeSet<(u32, u32)> = batch
        .edge_removals
        .iter()
        .map(|&(a, b)| key(a, b))
        .collect();
    let mut next = Graph::new();
    for v in pre.nodes() {
        next.add_node(pre.node_label(v));
    }
    for &l in &batch.node_additions {
        next.add_node(l);
    }
    let mut delta = EdgeDelta::new();
    for e in pre.edges() {
        let (u, v) = pre.endpoints(e);
        if removals.contains(&key(u.0, v.0)) {
            delta.deletes.push(key(u.0, v.0));
        } else {
            next.add_edge(u, v, pre.edge_label(e));
        }
    }
    for &(u, v, l) in &batch.edge_additions {
        if next.add_edge(NodeId(u), NodeId(v), l).is_some() {
            delta.inserts.push((u, v));
        }
    }
    (next, delta)
}

/// Node labels, edge ids with endpoints (in stored orientation) and
/// labels, and every adjacency row in order must agree.
fn assert_same_graph(got: &Graph, want: &Graph, ctx: &str) {
    assert_eq!(got.node_count(), want.node_count(), "{ctx}: nodes");
    assert_eq!(got.edge_count(), want.edge_count(), "{ctx}: edges");
    for v in want.nodes() {
        assert_eq!(got.node_label(v), want.node_label(v), "{ctx}: label of {v}");
        assert_eq!(
            got.neighbor_slice(v),
            want.neighbor_slice(v),
            "{ctx}: row of {v}"
        );
    }
    for e in want.edges() {
        assert_eq!(
            got.endpoints(e),
            want.endpoints(e),
            "{ctx}: endpoints of {e}"
        );
        assert_eq!(got.edge_label(e), want.edge_label(e), "{ctx}: label of {e}");
    }
}

/// A churn batch over `g` that hits every edge case of `apply_batch`:
/// live and absent removals, both orientations of one pair, a removal
/// re-added with another label, duplicate additions, self-loops,
/// endpoints out of range (before and after the append), and appended
/// nodes joined to the network and to each other.
fn edge_case_batch(g: &Graph, rng: &mut SmallRng) -> EdgeBatch {
    let n = g.node_count() as u32;
    let m = g.edge_count();
    let mut batch = EdgeBatch::default();
    let live = |rng: &mut SmallRng| {
        let (u, v) = g.endpoints(EdgeId(rng.gen_range(0..m as u32)));
        (u.0, v.0)
    };
    if m > 0 {
        for _ in 0..rng.gen_range(0..4) {
            batch.edge_removals.push(live(rng));
        }
        let (a, b) = live(rng);
        batch.edge_removals.extend([(a, b), (b, a)]);
        let (c, d) = live(rng);
        batch.edge_removals.push((c, d));
        batch.edge_additions.push((d, c, rng.gen_range(0..3)));
    }
    // absent pairs, a self-loop, and endpoints beyond the pre-edit graph
    batch
        .edge_removals
        .push((rng.gen_range(0..n), rng.gen_range(0..n)));
    batch.edge_removals.extend([(0, 0), (0, n), (n + 7, 1)]);
    let appended = rng.gen_range(0..4u32);
    for _ in 0..appended {
        let l = if rng.gen_bool(0.1) {
            WILDCARD_LABEL
        } else {
            rng.gen_range(0..4)
        };
        batch.node_additions.push(l);
    }
    let span = n + appended;
    for _ in 0..rng.gen_range(1..6) {
        let (u, v) = (rng.gen_range(0..span), rng.gen_range(0..span));
        let l = if rng.gen_bool(0.1) {
            WILDCARD_LABEL
        } else {
            rng.gen_range(0..3)
        };
        batch.edge_additions.push((u, v, l));
        if rng.gen_bool(0.3) {
            // a duplicate, reversed and relabelled
            batch.edge_additions.push((v, u, l ^ 1));
        }
    }
    for k in 0..appended {
        batch
            .edge_additions
            .push((n + k, rng.gen_range(0..span), 1));
    }
    batch
        .edge_additions
        .extend([(1, 1, 0), (0, span, 0), (span + 3, 2, 0)]);
    batch
}

/// `Graph::apply_batch` plus `GraphIndex::patch` equal a from-scratch
/// rebuild plus `GraphIndex::build` after every batch: graph, emitted
/// delta, touched nodes with their pre-edit degrees, and the index.
#[test]
fn in_place_edit_and_patched_index_equal_a_rebuild() {
    for seed in 0..16u64 {
        let rng = &mut SmallRng::seed_from_u64(seed);
        let mut g = random_graph(rng, 24);
        for e in g.edges().collect::<Vec<_>>() {
            g.set_edge_label(e, rng.gen_range(0..3));
        }
        let mut idx = GraphIndex::build(&g);
        for round in 0..10 {
            let ctx = format!("seed {seed} batch {round}");
            let batch = edge_case_batch(&g, rng);
            let (want, want_delta) = rebuild(&g, &batch);
            let pre = g.clone();
            let edit: GraphEdit = g.apply_batch(&batch);
            assert_same_graph(&g, &want, &ctx);
            assert_eq!(edit.delta, want_delta, "{ctx}: delta");
            assert_eq!(edit.old_node_count, pre.node_count(), "{ctx}");
            assert_eq!(
                edit.removed.len(),
                want_delta.deletes.len(),
                "{ctx}: removed"
            );
            // the pre-edit ids name exactly the removed edges, ascending
            let by_id: Vec<(NodeId, NodeId, Label)> = edit
                .removed_ids
                .iter()
                .map(|&e| {
                    let (u, v) = pre.endpoints(e);
                    (u, v, pre.edge_label(e))
                })
                .collect();
            assert_eq!(by_id, edit.removed, "{ctx}: removed ids");
            assert!(edit.removed_ids.windows(2).all(|w| w[0] < w[1]), "{ctx}");
            let mut endpoints: Vec<u32> = want_delta
                .deletes
                .iter()
                .chain(&want_delta.inserts)
                .flat_map(|&(u, v)| [u, v])
                .collect();
            endpoints.sort_unstable();
            endpoints.dedup();
            let touched: Vec<u32> = edit.touched.iter().map(|&(v, _)| v.0).collect();
            assert_eq!(touched, endpoints, "{ctx}: touched nodes");
            for &(v, before) in &edit.touched {
                let was = if v.index() < pre.node_count() {
                    pre.degree(v)
                } else {
                    0
                };
                assert_eq!(before as usize, was, "{ctx}: degree of {v} before");
            }
            idx.patch(&g, &edit);
            assert!(idx == GraphIndex::build(&want), "{ctx}: patched index");
        }
    }
}

/// `Graph::remove_edges` keeps the survivors' order and rows, whatever
/// the order of the ids it is given, and hands back the removed edges.
#[test]
fn remove_edges_renumbers_survivors_in_order() {
    let rng = &mut SmallRng::seed_from_u64(5);
    let g = random_graph(rng, 12);
    let dead: Vec<EdgeId> = g.edges().filter(|_| rng.gen_bool(0.4)).collect();
    let mut edited = g.clone();
    let mut shuffled: Vec<EdgeId> = dead.iter().rev().copied().collect();
    shuffled.extend(dead.first());
    let removed = edited.remove_edges(&shuffled);
    let mut want = Graph::new();
    for v in g.nodes() {
        want.add_node(g.node_label(v));
    }
    let mut want_removed: Vec<(NodeId, NodeId, Label)> = Vec::new();
    for e in g.edges() {
        let (u, v) = g.endpoints(e);
        if dead.contains(&e) {
            want_removed.push((u, v, g.edge_label(e)));
        } else {
            want.add_edge(u, v, g.edge_label(e));
        }
    }
    assert_same_graph(&edited, &want, "remove_edges");
    assert_eq!(removed, want_removed);
}
