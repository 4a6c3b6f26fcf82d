//! Property tests of the DESIGN.md invariants, driven by random labeled
//! graphs drawn from a seeded generator.

use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use vqi_graph::canon::canonical_code;
use vqi_graph::graphlet::{count_graphlets_par, GRAPHLET_CLASSES};
use vqi_graph::iso::{are_isomorphic, is_subgraph_isomorphic, MatchOptions};
use vqi_graph::truss::decompose;
use vqi_graph::{Graph, NodeId};

const CASES: u64 = 64;
/// Random node permutations tried per graph by the invariance checks.
const PERMUTATIONS: usize = 256;

/// A random labeled graph on `2..=max_n` nodes: each pair joined with
/// probability 0.4, node labels in `0..3`, edge labels in `0..2`.
fn random_graph(rng: &mut SmallRng, max_n: usize) -> Graph {
    let n = rng.gen_range(2..=max_n);
    let mut g = Graph::new();
    let nodes: Vec<NodeId> = (0..n).map(|_| g.add_node(rng.gen_range(0u32..3))).collect();
    for i in 0..n {
        for j in (i + 1)..n {
            let (joined, label) = (rng.gen_bool(0.4), rng.gen_range(0u32..2));
            if joined {
                g.add_edge(nodes[i], nodes[j], label);
            }
        }
    }
    g
}

/// `len` random graphs for `len` drawn from `lens`.
fn random_graphs(rng: &mut SmallRng, lens: std::ops::Range<usize>, max_n: usize) -> Vec<Graph> {
    (0..rng.gen_range(lens))
        .map(|_| random_graph(rng, max_n))
        .collect()
}

/// Invariant: canonical codes are permutation-invariant and equality
/// coincides with VF2 isomorphism.
#[test]
fn canonical_code_is_permutation_invariant() {
    for seed in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(seed);
        let g = random_graph(&mut rng, 7);
        let code = canonical_code(&g);
        let mut perm: Vec<usize> = (0..g.node_count()).collect();
        for _ in 0..PERMUTATIONS {
            perm.shuffle(&mut rng);
            let h = g.permuted(&perm);
            assert_eq!(canonical_code(&h), code, "seed {seed}");
        }
    }
}

/// Invariant 4: truss regions partition the edge set.
#[test]
fn truss_regions_partition_edges() {
    for seed in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(seed);
        let g = random_graph(&mut rng, 10);
        let k = rng.gen_range(3u32..5);
        let d = decompose(&g, k);
        let regions = d.infested_edges.len() + d.oblivious_edges.len();
        assert_eq!(regions, g.edge_count(), "seed {seed}");
        let mut all = [d.infested_edges.clone(), d.oblivious_edges.clone()].concat();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), g.edge_count(), "seed {seed}");
        // every infested edge has trussness >= k, every oblivious < k
        for e in &d.infested_edges {
            assert!(d.trussness[e.index()] >= k, "seed {seed}");
        }
        for e in &d.oblivious_edges {
            assert!(d.trussness[e.index()] < k, "seed {seed}");
        }
    }
}

/// Invariant 6: graphlet frequency distributions sum to 1 (or are all
/// zero) and are permutation-invariant.
#[test]
fn gfd_is_a_distribution() {
    for seed in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(seed);
        let g = random_graph(&mut rng, 8);
        let d = count_graphlets_par(&g).distribution();
        let sum: f64 = d.iter().sum();
        let (zero, one) = (sum.abs() < 1e-9, (sum - 1.0).abs() < 1e-9);
        assert!(zero || one, "seed {seed}: sum = {sum}");
        assert_eq!(d.len(), GRAPHLET_CLASSES, "seed {seed}");
        let mut perm: Vec<usize> = (0..g.node_count()).collect();
        for _ in 0..PERMUTATIONS {
            perm.shuffle(&mut rng);
            let h = g.permuted(&perm);
            let dh = count_graphlets_par(&h).distribution();
            for (a, b) in d.iter().zip(dh.iter()) {
                assert!((a - b).abs() < 1e-9, "seed {seed}");
            }
        }
    }
}

/// Invariant 5: closure graphs embed every constituent.
#[test]
fn closure_covers_constituents() {
    for seed in 0..CASES {
        let graphs = random_graphs(&mut SmallRng::seed_from_u64(seed), 2..5, 6);
        let refs: Vec<&Graph> = graphs.iter().collect();
        let closure = vqi_mining::closure::closure_of(&refs).unwrap();
        let opts = MatchOptions::with_wildcards();
        for g in &graphs {
            let covered = is_subgraph_isomorphic(g, &closure.graph, opts);
            assert!(covered, "seed {seed}: constituent not covered by closure");
        }
        let weights = closure.edge_weights.len();
        assert_eq!(weights, closure.graph.edge_count(), "seed {seed}");
    }
}

/// Invariant 7: formulation plans are sound — replaying them yields
/// the target query exactly.
#[test]
fn plans_are_sound() {
    for seed in 0..CASES {
        let target = random_graph(&mut SmallRng::seed_from_u64(seed), 7);
        // edge-at-a-time always
        let manual = vqi_sim::plan::plan_edge_at_a_time(&target);
        assert!(are_isomorphic(&manual.replay(), &target), "seed {seed}");
        // pattern-at-a-time with the basic wildcard patterns
        let basics = vqi_core::pattern::default_basic_patterns();
        let assisted = vqi_sim::plan::plan_with_patterns(&target, &basics);
        assert!(are_isomorphic(&assisted.replay(), &target), "seed {seed}");
        assert!(assisted.steps() <= manual.steps(), "seed {seed}");
    }
}

/// Invariant 2: pattern sets never hold two isomorphic members.
#[test]
fn pattern_sets_dedup() {
    use vqi_core::pattern::{PatternKind, PatternSet};
    for seed in 0..CASES {
        let graphs = random_graphs(&mut SmallRng::seed_from_u64(seed), 1..8, 5);
        let mut set = PatternSet::new();
        for g in &graphs {
            let _ = set.insert(g.clone(), PatternKind::Canned, "prop");
        }
        let members: Vec<&Graph> = set.graphs().collect();
        for i in 0..members.len() {
            for j in (i + 1)..members.len() {
                let twins = are_isomorphic(members[i], members[j]);
                assert!(!twins, "seed {seed}: isomorphic duplicates at {i}, {j}");
            }
        }
    }
}

/// MCS similarity is symmetric, bit for bit (the swap refiner holds one
/// value per pair for both argument orders), bounded, and 1 on identical
/// graphs.
#[test]
fn mcs_similarity_properties() {
    use vqi_graph::mcs::mcs_similarity;
    for seed in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(seed);
        let (a, b) = (random_graph(&mut rng, 6), random_graph(&mut rng, 6));
        let s_ab = mcs_similarity(&a, &b);
        let s_ba = mcs_similarity(&b, &a);
        assert_eq!(s_ab.to_bits(), s_ba.to_bits(), "seed {seed}");
        assert!((0.0..=1.0).contains(&s_ab), "seed {seed}");
        if a.edge_count() > 0 {
            assert!((mcs_similarity(&a, &a) - 1.0).abs() < 1e-12, "seed {seed}");
        }
    }
}

/// Text round-trip: io::write then io::parse preserves structure.
#[test]
fn io_round_trip() {
    for seed in 0..CASES {
        let graphs = random_graphs(&mut SmallRng::seed_from_u64(seed), 1..5, 6);
        let text = vqi_graph::io::write_transactions(&graphs);
        let parsed = vqi_graph::io::parse_transactions(&text).unwrap();
        assert_eq!(parsed.len(), graphs.len(), "seed {seed}");
        for (a, b) in graphs.iter().zip(parsed.iter()) {
            assert!(are_isomorphic(a, b), "seed {seed}");
        }
    }
}
