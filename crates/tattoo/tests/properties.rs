//! Property tests of TATTOO: shape classification and the selection
//! contract on random networks, each case drawn from a seeded generator.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use tattoo::topology::{classify, TopologyClass};
use tattoo::{Tattoo, TattooConfig};
use vqi_core::budget::PatternBudget;
use vqi_core::repo::GraphRepository;
use vqi_core::score::evaluate_graphs;
use vqi_datasets::{networks, NetworkParams};
use vqi_graph::generate as gen;
use vqi_graph::traversal::is_connected;
use vqi_graph::Graph;

/// Cases for the cheap classification properties.
const CASES: u64 = 24;
/// Cases for the full selection pipeline.
const PIPELINE_CASES: u64 = 6;

/// Constructed motifs classify as themselves for any parameters.
#[test]
fn motifs_classify_correctly() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(case);
        let n = rng.gen_range(3usize..10);
        let leaves = rng.gen_range(3usize..8);
        let paths = rng.gen_range(3usize..5);
        let inner = rng.gen_range(1usize..3);
        let petals = rng.gen_range(2usize..4);
        let clen = rng.gen_range(4usize..6);
        let expected_cycle = if n == 3 {
            TopologyClass::TriangleCluster
        } else {
            TopologyClass::Cycle
        };
        let expect = [
            (gen::chain(n, 0, 0), TopologyClass::Chain),
            (gen::star(leaves, 0, 0), TopologyClass::Star),
            (gen::cycle(n, 0, 0), expected_cycle),
            (gen::petal(paths, inner, 0, 0), TopologyClass::Petal),
            (gen::flower(petals, clen, 0, 0), TopologyClass::Flower),
            (gen::clique(n, 0, 0), TopologyClass::TriangleCluster),
        ];
        for (i, (g, class)) in expect.iter().enumerate() {
            assert_eq!(classify(g), *class, "case {case} motif {i}");
        }
    }
}

/// Classification is invariant under node permutation.
#[test]
fn classification_is_invariant() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(case);
        let g = gen::petal(rng.gen_range(2usize..4), rng.gen_range(1usize..3), 0, 0);
        let perm: Vec<usize> = (0..g.node_count()).rev().collect();
        assert_eq!(classify(&g), classify(&g.permuted(&perm)), "case {case}");
    }
}

/// The selection contract on random networks: budget respected,
/// connected patterns, positive edge coverage.
#[test]
fn selection_contract() {
    for case in 0..PIPELINE_CASES {
        let mut rng = SmallRng::seed_from_u64(case);
        let seed = rng.gen_range(0u64..500);
        let nodes = rng.gen_range(100usize..300);
        let net = networks::network(NetworkParams {
            nodes,
            seed,
            ..Default::default()
        });
        let budget = PatternBudget::new(5, 4, 6);
        let set = Tattoo::new(TattooConfig {
            seed,
            ..Default::default()
        })
        .run(&net, &budget);
        assert!(set.len() <= 5, "case {case}");
        assert!(!set.is_empty(), "case {case}");
        for p in set.patterns() {
            assert!(budget.admits(&p.graph), "case {case}");
            assert!(is_connected(&p.graph), "case {case}");
        }
        let graphs: Vec<&Graph> = set.graphs().collect();
        let q = evaluate_graphs(&graphs, &GraphRepository::Network(net), Default::default());
        assert!(q.coverage > 0.0, "case {case}");
    }
}
