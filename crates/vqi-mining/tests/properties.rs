//! Property tests of the mining substrate, each case drawn from a
//! seeded generator.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use vqi_graph::index::GraphIndex;
use vqi_graph::iso::{is_subgraph_isomorphic, MatchOptions};
use vqi_graph::traversal::is_connected;
use vqi_graph::{Graph, NodeId};
use vqi_mining::closure::closure_of;
use vqi_mining::cluster::{k_medoids, leader, DistanceMatrix};
use vqi_mining::fct::FctIndex;
use vqi_mining::fst::{mine_frequent_subtrees, MineParams};

const CASES: u64 = 32;
/// Support 2, trees of up to 3 nodes.
const PARAMS: MineParams = MineParams {
    min_support: 2,
    max_nodes: 3,
};

/// A small random connected labeled graph (tree plus extra edges).
fn random_connected(rng: &mut SmallRng, max_n: usize) -> Graph {
    let n = rng.gen_range(2..=max_n);
    let mut g = Graph::new();
    let nodes: Vec<NodeId> = (0..n).map(|_| g.add_node(rng.gen_range(0u32..3))).collect();
    for i in 1..n {
        let parent = rng.gen_range(0..i);
        g.add_edge(nodes[i], nodes[parent], 0);
    }
    for i in 0..n {
        for j in (i + 1)..n {
            if rng.gen_bool(0.2) {
                g.add_edge(nodes[i], nodes[j], 0);
            }
        }
    }
    g
}

/// `len` random connected graphs for `len` drawn from `lens`.
fn random_graphs(rng: &mut SmallRng, lens: std::ops::Range<usize>, max_n: usize) -> Vec<Graph> {
    (0..rng.gen_range(lens))
        .map(|_| random_connected(rng, max_n))
        .collect()
}

/// Mined frequent trees are trees, connected, meet support, and
/// genuinely occur in each graph of their support set.
#[test]
fn mined_trees_are_valid() {
    for seed in 0..CASES {
        let graphs = random_graphs(&mut SmallRng::seed_from_u64(seed), 2..5, 6);
        for ft in mine_frequent_subtrees(&graphs, PARAMS) {
            assert!(is_connected(&ft.tree), "seed {seed}");
            let tree = &ft.tree;
            assert_eq!(tree.edge_count() + 1, tree.node_count(), "seed {seed}");
            assert!(ft.support() >= 2, "seed {seed}");
            for &gi in &ft.support_set {
                let occurs = is_subgraph_isomorphic(tree, &graphs[gi], MatchOptions::default());
                assert!(occurs, "seed {seed}");
            }
        }
    }
}

/// Raising min_support never grows the result set.
#[test]
fn support_threshold_is_monotone() {
    for seed in 0..CASES {
        let graphs = random_graphs(&mut SmallRng::seed_from_u64(seed), 2..5, 5);
        let one = MineParams {
            min_support: 1,
            ..PARAMS
        };
        let (hi, lo) = (
            mine_frequent_subtrees(&graphs, PARAMS),
            mine_frequent_subtrees(&graphs, one),
        );
        assert!(hi.len() <= lo.len(), "seed {seed}");
    }
}

/// Incremental FCT maintenance matches a full rebuild after a random
/// batch of additions.
#[test]
fn fct_incremental_matches_rebuild() {
    for seed in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(seed);
        let initial = random_graphs(&mut rng, 2..4, 5);
        let added = random_graphs(&mut rng, 1..3, 5);
        let mut all = initial.clone();
        all.extend(added.iter().cloned());

        let indexes: Vec<GraphIndex> = all.iter().map(GraphIndex::build).collect();
        let pairs = |n: usize| -> Vec<(usize, &Graph)> { all.iter().take(n).enumerate().collect() };

        let mut idx = FctIndex::build(&pairs(initial.len()), PARAMS);
        let added_ids: Vec<usize> = (initial.len()..all.len()).collect();
        idx.apply_batch(&added_ids, &[], |i| (&all[i], &indexes[i]));

        let rebuilt = FctIndex::build(&pairs(all.len()), PARAMS);
        let inc: Vec<_> = idx
            .frequent_trees()
            .map(|t| (t.tree.code.clone(), t.tree.support_set.clone(), t.closed))
            .collect();
        let reb: Vec<_> = rebuilt
            .frequent_trees()
            .map(|t| (t.tree.code.clone(), t.tree.support_set.clone(), t.closed))
            .collect();
        assert_eq!(inc, reb, "seed {seed}");
    }
}

/// Frequent subgraphs are connected, meet their support threshold,
/// and genuinely occur in every member of their support set.
#[test]
fn frequent_subgraphs_are_valid() {
    use vqi_mining::fsg::{mine_frequent_subgraphs, FsgParams};
    for seed in 0..CASES {
        let graphs = random_graphs(&mut SmallRng::seed_from_u64(seed), 2..5, 5);
        let mined = mine_frequent_subgraphs(
            &graphs,
            FsgParams {
                min_support: 2,
                max_nodes: 4,
                beam_width: 50,
            },
        );
        for m in &mined {
            assert!(is_connected(&m.graph), "seed {seed}");
            assert!(m.support() >= 2, "seed {seed}");
            for &gi in &m.support_set {
                let occurs = is_subgraph_isomorphic(&m.graph, &graphs[gi], MatchOptions::default());
                assert!(occurs, "seed {seed}");
            }
        }
        // dedup by canonical code
        let mut codes: Vec<_> = mined.iter().map(|m| m.code.clone()).collect();
        let before = codes.len();
        codes.sort();
        codes.dedup();
        assert_eq!(before, codes.len(), "seed {seed}");
    }
}

/// Closure graphs cover all constituents, with edge weights aligned.
#[test]
fn closure_invariants() {
    for seed in 0..CASES {
        let graphs = random_graphs(&mut SmallRng::seed_from_u64(seed), 1..5, 6);
        let refs: Vec<&Graph> = graphs.iter().collect();
        let c = closure_of(&refs).unwrap();
        assert_eq!(c.edge_weights.len(), c.graph.edge_count(), "seed {seed}");
        let total: f64 = c.edge_weights.iter().sum();
        let expect: usize = graphs.iter().map(|g| g.edge_count()).sum();
        let exact = (total - expect as f64).abs() < 1e-9;
        assert!(exact, "seed {seed}: weights {total} != edges {expect}");
        for g in &graphs {
            let covered = is_subgraph_isomorphic(g, &c.graph, MatchOptions::with_wildcards());
            assert!(covered, "seed {seed}");
        }
    }
}

/// Clusterings assign every item to a valid cluster whose
/// representative is a member.
#[test]
fn clusterings_are_well_formed() {
    for seed in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(seed);
        let points: Vec<f64> = (0..rng.gen_range(3..12))
            .map(|_| rng.gen_range(0.0..10.0))
            .collect();
        let k = rng.gen_range(1usize..4);
        let d = DistanceMatrix::from_fn(points.len(), |i, j| (points[i] - points[j]).abs());
        for c in [k_medoids(&d, k, 10, &mut rng), leader(&d, 1.0)] {
            assert_eq!(c.assignments.len(), points.len(), "seed {seed}");
            for &a in &c.assignments {
                assert!(a < c.cluster_count(), "seed {seed}");
            }
            let clusters = c.clusters();
            for (ci, members) in clusters.iter().enumerate() {
                let rep = c.representatives[ci];
                // a representative is either a member of its own cluster
                // or indistinguishable (distance 0) from the one it
                // landed in (possible with duplicate points)
                if !members.is_empty() && !members.contains(&rep) {
                    let landed = c.representatives[c.assignments[rep]];
                    assert!(d.get(rep, landed) == 0.0, "seed {seed}");
                }
            }
            let total: usize = clusters.iter().map(|m| m.len()).sum();
            assert_eq!(total, points.len(), "seed {seed}");
        }
    }
}
