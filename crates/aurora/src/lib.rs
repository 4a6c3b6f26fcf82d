//! AURORA — data-driven construction of visual graph query interfaces
//! from frequent subgraphs (Bhowmick et al., SIGMOD 2020 — reference
//! [12] of the tutorial, the system whose codebase headlines Table 1's
//! "Data-driven construction" row).
//!
//! Where CATAPULT proposes candidates from cluster summaries, the
//! AURORA lineage draws them from the **frequent subgraphs** of the
//! repository: a pattern users will want is, almost by definition, a
//! structure that recurs across data graphs. The pipeline here:
//!
//! 1. mine frequent connected subgraphs within the budget's size range
//!    ([`vqi_mining::fsg`] — pattern growth with cycle closure, so ring
//!    structures are first-class, unlike tree-feature mining);
//! 2. keep the budget-admissible patterns as candidates (their support
//!    sets double as exact coverage bitsets — no extra VF2 pass);
//! 3. select with the shared anytime greedy
//!    ([`vqi_core::select::anytime_greedy`]) under the same coverage /
//!    diversity / cognitive-load score as every other selector in this
//!    workspace, so E3-style comparisons are apples-to-apples.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use vqi_core::bitset::BitSet;
use vqi_core::budget::PatternBudget;
use vqi_core::ctrl::{Budget, Degradation};
use vqi_core::pattern::PatternSet;
use vqi_core::repo::{GraphCollection, GraphRepository};
use vqi_core::score::QualityWeights;
use vqi_core::select::{anytime_greedy, Scored};
use vqi_core::selector::PatternSelector;
use vqi_graph::Graph;
use vqi_mining::fsg::{mine_frequent_subgraphs, FsgParams};

/// AURORA configuration.
#[derive(Debug, Clone, Copy)]
pub struct AuroraConfig {
    /// Minimum support as a fraction of the collection size.
    pub min_support_frac: f64,
    /// Per-level mining beam width.
    pub beam_width: usize,
    /// Score weights.
    pub weights: QualityWeights,
}

impl Default for AuroraConfig {
    fn default() -> Self {
        AuroraConfig {
            min_support_frac: 0.1,
            beam_width: 150,
            weights: QualityWeights::default(),
        }
    }
}

/// The AURORA selector.
#[derive(Debug, Clone, Copy, Default)]
pub struct Aurora {
    /// Configuration.
    pub config: AuroraConfig,
}

impl Aurora {
    /// A selector with the given configuration.
    pub fn new(config: AuroraConfig) -> Self {
        Aurora { config }
    }

    /// Runs the pipeline on a collection.
    pub fn run(&self, collection: &GraphCollection, budget: &PatternBudget) -> PatternSet {
        let ids = collection.ids();
        let n = ids.len();
        if n == 0 {
            return PatternSet::new();
        }
        let graphs: Vec<Graph> = ids
            .iter()
            .map(|&id| collection.get(id).expect("live id").clone())
            .collect();
        let min_support = ((self.config.min_support_frac * n as f64).ceil() as usize)
            .max(2)
            .min(n);
        let mined = mine_frequent_subgraphs(
            &graphs,
            FsgParams {
                min_support,
                max_nodes: budget.max_size,
                beam_width: self.config.beam_width,
            },
        );
        // candidates: admissible frequent subgraphs; support sets are
        // exact coverage over `graphs` positions
        let pool: Vec<Scored> = mined
            .into_iter()
            .filter(|m| budget.admits(&m.graph))
            .map(|m| {
                let mut coverage = BitSet::new(n);
                for &pos in &m.support_set {
                    coverage.set(pos);
                }
                let provenance = format!("aurora:sup{}", m.support());
                Scored::new(m.graph, coverage, provenance)
            })
            .collect();
        // with an unlimited budget nothing can trip; a fault plan's
        // injected cut keeps the anytime prefix
        let mut deg = Degradation::new();
        anytime_greedy(
            pool,
            n,
            budget,
            self.config.weights,
            "aurora.greedy",
            &Budget::unlimited(),
            &mut deg,
        )
        .unwrap_or_default()
    }
}

impl PatternSelector for Aurora {
    fn name(&self) -> &'static str {
        "aurora"
    }

    fn select(&self, repo: &GraphRepository, budget: &PatternBudget) -> PatternSet {
        match repo {
            GraphRepository::Collection(c) => self.run(c, budget),
            GraphRepository::Network(g) => {
                // mirror CATAPULT's honest network fallback: ego-network
                // decomposition, since frequent-subgraph support needs a
                // collection of contexts
                const EGO_CAP: usize = 20;
                let egos: Vec<Graph> = g
                    .nodes()
                    .map(|v| {
                        let mut nodes = vec![v];
                        nodes.extend(g.neighbors(v).map(|(u, _)| u).take(EGO_CAP));
                        g.induced_subgraph(&nodes).0
                    })
                    .collect();
                self.run(&GraphCollection::new(egos), budget)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vqi_core::score::{evaluate, pattern_coverage};
    use vqi_datasets::{aids_like, MoleculeParams};
    use vqi_graph::generate::{chain, cycle, star};
    use vqi_graph::traversal::is_connected;

    fn collection() -> GraphCollection {
        let mut graphs = Vec::new();
        for i in 0..8 {
            graphs.push(cycle(5 + i % 2, 1, 0));
            graphs.push(chain(6 + i % 3, 1, 0));
            graphs.push(star(4 + i % 2, 2, 0));
        }
        GraphCollection::new(graphs)
    }

    #[test]
    fn selection_contract() {
        let col = collection();
        let budget = PatternBudget::new(5, 4, 6);
        let set = Aurora::default().run(&col, &budget);
        assert!(!set.is_empty());
        assert!(set.len() <= 5);
        for p in set.patterns() {
            assert!(budget.admits(&p.graph));
            assert!(is_connected(&p.graph));
            assert!(pattern_coverage(&p.graph, &col) > 0.0);
            assert!(p.provenance.starts_with("aurora:sup"));
        }
    }

    #[test]
    fn non_finite_weights_never_panic_selection() {
        // infinite weights make every score after the first pick
        // inf - inf = NaN; total_cmp picks a deterministic argmax where
        // the old partial_cmp().expect("finite") panicked
        let col = collection();
        let budget = PatternBudget::new(4, 4, 6);
        let aurora = Aurora::new(AuroraConfig {
            weights: QualityWeights {
                diversity: f64::INFINITY,
                cognitive: f64::INFINITY,
            },
            ..Default::default()
        });
        let a = aurora.run(&col, &budget);
        let b = aurora.run(&col, &budget);
        assert!(!a.is_empty());
        assert_eq!(a.len(), b.len(), "NaN argmax must stay deterministic");
        for (pa, pb) in a.patterns().iter().zip(b.patterns()) {
            assert_eq!(pa.code, pb.code);
        }
    }

    #[test]
    fn finds_ring_patterns() {
        let col = collection();
        let budget = PatternBudget::new(6, 4, 6);
        let set = Aurora::default().run(&col, &budget);
        // half the collection is rings; a cyclic pattern must be selected
        assert!(
            set.graphs().any(|g| g.edge_count() >= g.node_count()),
            "no cyclic pattern selected"
        );
    }

    #[test]
    fn competitive_with_random_on_molecules() {
        use vqi_core::selector::RandomSelector;
        let graphs = aids_like(MoleculeParams {
            count: 50,
            seed: 3,
            max_rings: 1,
            max_chains: 2,
            max_chain_len: 2,
        });
        let repo = GraphRepository::collection(graphs);
        let budget = PatternBudget::new(5, 4, 6);
        let w = QualityWeights::default();
        let aurora_q = evaluate(&Aurora::default().select(&repo, &budget), &repo, w);
        let random_q = evaluate(&RandomSelector::new(9).select(&repo, &budget), &repo, w);
        assert!(
            aurora_q.score >= random_q.score,
            "aurora {:.3} < random {:.3}",
            aurora_q.score,
            random_q.score
        );
    }

    #[test]
    fn empty_collection() {
        let set = Aurora::default().run(&GraphCollection::new(vec![]), &PatternBudget::default());
        assert!(set.is_empty());
    }

    #[test]
    fn selection_is_identical_across_thread_counts() {
        let col = collection();
        let budget = PatternBudget::new(5, 4, 6);
        let codes_at = |cap: usize| -> Vec<vqi_graph::canon::CanonicalCode> {
            vqi_graph::par::set_thread_cap(cap);
            let set = Aurora::default().run(&col, &budget);
            vqi_graph::par::set_thread_cap(0);
            set.patterns().iter().map(|p| p.code.clone()).collect()
        };
        let one = codes_at(1);
        assert!(!one.is_empty());
        assert_eq!(one, codes_at(2), "cap 2 changed the selection");
        assert_eq!(one, codes_at(4), "cap 4 changed the selection");
    }

    #[test]
    fn deterministic() {
        let col = collection();
        let budget = PatternBudget::new(4, 4, 6);
        let a = Aurora::default().run(&col, &budget);
        let b = Aurora::default().run(&col, &budget);
        assert_eq!(a.len(), b.len());
        for (pa, pb) in a.patterns().iter().zip(b.patterns()) {
            assert_eq!(pa.code, pb.code);
        }
    }
}
