//! Property tests of the CATAPULT pipeline over random molecule
//! collections: each case draws its parameters from a seeded generator.

use catapult::pipeline::{Catapult, CatapultConfig};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use vqi_core::budget::PatternBudget;
use vqi_core::repo::GraphCollection;
use vqi_core::score::pattern_coverage;
use vqi_core::selector::PatternSelector;
use vqi_datasets::{aids_like, MoleculeParams};
use vqi_graph::traversal::is_connected;

/// The pipeline is heavy; keep the case count modest.
const CASES: u64 = 8;

/// For any random collection and any sane budget, CATAPULT's output
/// satisfies the selection contract: within budget, connected,
/// deduplicated (by construction), and every pattern occurs.
#[test]
fn selection_contract() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(case);
        let seed = rng.gen_range(0u64..1_000);
        let count = rng.gen_range(10usize..40);
        let k = rng.gen_range(2usize..6);
        let min_size = rng.gen_range(4usize..6);
        let span = rng.gen_range(0usize..3);
        let graphs = aids_like(MoleculeParams {
            count,
            seed,
            ..Default::default()
        });
        let col = GraphCollection::new(graphs);
        let budget = PatternBudget::new(k, min_size, min_size + span);
        let (set, state) = Catapult::new(CatapultConfig {
            seed,
            ..Default::default()
        })
        .run_with_state(&col, &budget);

        assert!(set.len() <= k, "case {case}");
        for p in set.patterns() {
            assert!(budget.admits(&p.graph), "case {case}: size {}", p.size());
            assert!(is_connected(&p.graph), "case {case}");
            assert!(
                pattern_coverage(&p.graph, &col) > 0.0,
                "case {case}: selected pattern occurs nowhere"
            );
        }
        // pipeline artifacts are consistent
        assert_eq!(state.feature_vectors.len(), col.len(), "case {case}");
        assert_eq!(state.graph_ids.len(), col.len(), "case {case}");
        let members: usize = state.csgs.iter().map(|c| c.members.len()).sum();
        assert_eq!(
            members,
            col.len(),
            "case {case}: CSGs must partition the collection"
        );
    }
}

/// Increasing the pattern budget never decreases achieved coverage.
#[test]
fn coverage_monotone_in_budget() {
    for case in 0..CASES {
        let seed = SmallRng::seed_from_u64(case).gen_range(0u64..200);
        let graphs = aids_like(MoleculeParams {
            count: 25,
            seed,
            ..Default::default()
        });
        let col = GraphCollection::new(graphs);
        let repo = vqi_core::repo::GraphRepository::Collection(col);
        let small = Catapult::default().select(&repo, &PatternBudget::new(2, 4, 6));
        let large = Catapult::default().select(&repo, &PatternBudget::new(6, 4, 6));
        let cov = |set: &vqi_core::PatternSet| {
            let graphs: Vec<&vqi_graph::Graph> = set.graphs().collect();
            vqi_core::score::evaluate_graphs(&graphs, &repo, Default::default()).coverage
        };
        assert!(cov(&large) >= cov(&small) - 1e-9, "case {case}");
    }
}
