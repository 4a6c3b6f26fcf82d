//! Property tests of the core VQI model, each case drawn from a seeded
//! generator.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use vqi_core::budget::PatternBudget;
use vqi_core::pattern::{PatternKind, PatternSet};
use vqi_core::query::{EditOp, QNode, QueryBuilder};
use vqi_core::repo::{BatchUpdate, GraphCollection};
use vqi_core::results::query_collection;
use vqi_core::score::{cognitive_load, diversity, evaluate_graphs, QualityWeights};
use vqi_core::Budget;
use vqi_graph::iso::{are_isomorphic, count_embeddings, is_subgraph_isomorphic, MatchOptions};
use vqi_graph::{Graph, NodeId, WILDCARD_LABEL};

const CASES: u64 = 64;

/// A random tree on `2..=max_n` nodes with labels in `0..3`.
fn random_connected(rng: &mut SmallRng, max_n: usize) -> Graph {
    let n = rng.gen_range(2..=max_n);
    let mut g = Graph::new();
    let nodes: Vec<NodeId> = (0..n).map(|_| g.add_node(rng.gen_range(0u32..3))).collect();
    for i in 1..n {
        let parent = rng.gen_range(0..i);
        g.add_edge(nodes[i], nodes[parent], ((i - 1) % 2) as u32);
    }
    g
}

/// `len` random connected graphs for `len` drawn from `lens`.
fn random_graphs(rng: &mut SmallRng, lens: std::ops::Range<usize>, max_n: usize) -> Vec<Graph> {
    (0..rng.gen_range(lens))
        .map(|_| random_connected(rng, max_n))
        .collect()
}

/// A random (possibly failing) edit operation over a small id space.
fn random_op(rng: &mut SmallRng) -> EditOp {
    let mut qnode = || QNode(rng.gen_range(0..8));
    let (node, b) = (qnode(), qnode());
    // node labels in 0..4, edge labels in 0..3
    let (label, edge_label) = (rng.gen_range(0u32..4), rng.gen_range(0u32..3));
    match rng.gen_range(0..5) {
        0 => EditOp::AddNode { label },
        1 => EditOp::AddEdge {
            a: node,
            b,
            label: edge_label,
        },
        2 => EditOp::AddPattern {
            pattern: random_connected(rng, 4),
        },
        3 => EditOp::MergeNodes {
            keep: node,
            merge: b,
        },
        _ => EditOp::SetNodeLabel { node, label },
    }
}

/// The query builder never panics on arbitrary op sequences, and its
/// materialized graph stays consistent with its counters.
#[test]
fn query_builder_is_total() {
    for seed in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(seed);
        let ops: Vec<EditOp> = (0..rng.gen_range(0..25))
            .map(|_| random_op(&mut rng))
            .collect();
        let mut q = QueryBuilder::new();
        let mut applied = 0usize;
        for op in &ops {
            if q.apply(op).is_ok() {
                applied += 1;
            }
        }
        assert_eq!(q.steps(), applied, "seed {seed}");
        let (g, _) = q.to_graph();
        assert_eq!(g.node_count(), q.node_count(), "seed {seed}");
        assert_eq!(g.edge_count(), q.edge_count(), "seed {seed}");
    }
}

/// Pattern sets accept each isomorphism class once, in any insertion
/// order.
#[test]
fn pattern_set_insertion_order_irrelevant() {
    for seed in 0..CASES {
        let graphs = random_graphs(&mut SmallRng::seed_from_u64(seed), 1..6, 5);
        let mut fwd = PatternSet::new();
        for g in &graphs {
            let _ = fwd.insert(g.clone(), PatternKind::Canned, "p");
        }
        let mut rev = PatternSet::new();
        for g in graphs.iter().rev() {
            let _ = rev.insert(g.clone(), PatternKind::Canned, "p");
        }
        assert_eq!(fwd.len(), rev.len(), "seed {seed}");
        // same set of codes
        let mut cf: Vec<_> = fwd.patterns().iter().map(|p| p.code.clone()).collect();
        let mut cr: Vec<_> = rev.patterns().iter().map(|p| p.code.clone()).collect();
        cf.sort();
        cr.sort();
        assert_eq!(cf, cr, "seed {seed}");
    }
}

/// Quality measures stay in their documented ranges.
#[test]
fn quality_measures_bounded() {
    for seed in 0..CASES {
        let graphs = random_graphs(&mut SmallRng::seed_from_u64(seed), 1..5, 6);
        let col = GraphCollection::new(graphs.clone());
        let repo = vqi_core::repo::GraphRepository::Collection(col);
        let patterns: Vec<&Graph> = graphs.iter().collect();
        let q = evaluate_graphs(&patterns, &repo, QualityWeights::default());
        let unit = 0.0..=1.0;
        assert!(unit.contains(&q.coverage), "seed {seed}");
        assert!(unit.contains(&q.diversity), "seed {seed}");
        assert!(unit.contains(&q.cognitive_load), "seed {seed}");
        for g in &graphs {
            assert!(unit.contains(&cognitive_load(g)), "seed {seed}");
        }
        assert!(unit.contains(&diversity(&patterns)), "seed {seed}");
    }
}

/// Repository batch updates preserve id arithmetic: live count =
/// previous + additions − effective removals, and fresh ids never
/// collide with existing ones.
#[test]
fn collection_update_arithmetic() {
    for seed in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(seed);
        let initial = random_graphs(&mut rng, 1..6, 4);
        let removals: Vec<usize> = (0..rng.gen_range(0..4))
            .map(|_| rng.gen_range(0..10))
            .collect();
        let additions = random_graphs(&mut rng, 0..4, 4);
        let mut col = GraphCollection::new(initial);
        let before_ids = col.ids();
        let mut effective: Vec<usize> = removals
            .iter()
            .copied()
            .filter(|r| before_ids.contains(r))
            .collect();
        effective.sort_unstable();
        effective.dedup();
        let n_add = additions.len();
        let new_ids = col.apply(BatchUpdate {
            additions,
            removals,
        });
        assert_eq!(new_ids.len(), n_add, "seed {seed}");
        for id in &new_ids {
            assert!(!before_ids.contains(id), "seed {seed}: fresh id reused");
        }
        assert_eq!(
            col.len(),
            before_ids.len() - effective.len() + n_add,
            "seed {seed}"
        );
    }
}

/// Budget admission agrees with the raw size check.
#[test]
fn budget_admission() {
    for seed in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(seed);
        let g = random_connected(&mut rng, 9);
        let min = rng.gen_range(2usize..5);
        let extra = rng.gen_range(0usize..5);
        let budget = PatternBudget::new(3, min, min + extra);
        assert_eq!(
            budget.admits(&g),
            (min..=min + extra).contains(&g.node_count()),
            "seed {seed}"
        );
    }
}

/// Replaying AddPattern reproduces the pattern exactly.
#[test]
fn add_pattern_is_faithful() {
    for seed in 0..CASES {
        let g = random_connected(&mut SmallRng::seed_from_u64(seed), 6);
        let mut q = QueryBuilder::new();
        q.apply(&EditOp::AddPattern { pattern: g.clone() }).unwrap();
        let (out, _) = q.to_graph();
        assert!(are_isomorphic(&out, &g), "seed {seed}");
    }
}

/// A random tree on `2..=max_n` nodes, node labels in `0..3`, edge
/// labels in `0..2`, one node relabelled [`WILDCARD_LABEL`] with
/// probability `wild`.
fn random_labeled_tree(rng: &mut SmallRng, max_n: usize, wild: f64) -> Graph {
    let n = rng.gen_range(2..=max_n);
    let mut g = Graph::new();
    let nodes: Vec<NodeId> = (0..n).map(|_| g.add_node(rng.gen_range(0u32..3))).collect();
    for i in 1..n {
        let parent = rng.gen_range(0..i);
        g.add_edge(nodes[i], nodes[parent], rng.gen_range(0u32..2));
    }
    if rng.gen_bool(wild) {
        g.set_node_label(nodes[rng.gen_range(0..n)], WILDCARD_LABEL);
    }
    g
}

/// The collection sweep reports exactly the live graphs that contain
/// the query, each with its plain embedding count, under exact and
/// wildcard matching, on collections with tombstoned slots; and the
/// fingerprint filter refuses only graphs without a hit.
#[test]
fn collection_sweep_is_sound_and_complete() {
    let (mut refused, mut hit) = (0, 0);
    for seed in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(seed);
        let graphs = (0..rng.gen_range(1..9))
            .map(|_| random_labeled_tree(&mut rng, 6, 0.2))
            .collect();
        let mut c = GraphCollection::new(graphs);
        let victim = rng.gen_range(0..c.len());
        c.apply(BatchUpdate {
            additions: vec![random_labeled_tree(&mut rng, 6, 0.2)],
            removals: vec![victim],
        });
        let q = random_labeled_tree(&mut rng, 4, 0.3);
        for opts in [MatchOptions::default(), MatchOptions::with_wildcards()] {
            let (out, filtered) = query_collection(&c, &q, opts, &Budget::unlimited()).unwrap();
            assert!(out.completeness.is_complete());
            let m = out.value;
            let want: Vec<(usize, usize)> = c
                .iter()
                .filter(|(_, g)| is_subgraph_isomorphic(&q, g, opts))
                .map(|(id, g)| (id, count_embeddings(&q, g, opts)))
                .collect();
            let got: Vec<(usize, usize)> =
                m.hits.iter().map(|h| (h.graph_id, h.embeddings)).collect();
            assert_eq!(got, want, "seed {seed} {opts:?}");
            assert_eq!(m.graphs_examined, c.len(), "seed {seed}");
            assert_eq!(
                m.total_embeddings,
                want.iter().map(|&(_, n)| n).sum::<usize>()
            );
            assert!(filtered <= c.len() - want.len(), "seed {seed} {opts:?}");
            refused += filtered;
            hit += want.len();
        }
    }
    // both sides of the filter occur, or the run says nothing about it
    assert!(refused > 0 && hit > 0, "refused {refused}, hit {hit}");
}
