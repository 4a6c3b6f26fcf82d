//! Greedy pattern selection driven by the pattern score.
//!
//! Each candidate is scored against the already-selected set by the
//! shared anytime loop [`vqi_core::select::anytime_greedy`], over the
//! universe of live data graphs: `cov_gain` is the number of live
//! graphs covered by a candidate but by no member of the set. The loop
//! is incremental and bit-identical to a full per-round recomputation
//! (see the module docs of [`vqi_core::select`]).

use crate::candidates::Candidate;
use vqi_core::bitset::BitSet;
use vqi_core::budget::PatternBudget;
use vqi_core::ctrl::{Budget, Degradation};
use vqi_core::pattern::PatternSet;
use vqi_core::repo::GraphCollection;
use vqi_core::score::{cognitive_load, coverage_bitsets, QualityWeights};
use vqi_core::select::{anytime_greedy, ScoredPattern};
use vqi_graph::Graph;
use vqi_runtime::VqiError;

/// A candidate plus its coverage bitset over the live graphs.
#[derive(Debug, Clone)]
pub struct ScoredCandidate {
    /// The candidate.
    pub candidate: Candidate,
    /// Bit `i` set = candidate covers `graph_ids[i]`.
    pub coverage: BitSet,
    /// Cached cognitive load.
    pub cognitive_load: f64,
}

impl ScoredPattern for ScoredCandidate {
    fn graph(&self) -> &Graph {
        &self.candidate.graph
    }
    fn coverage(&self) -> &BitSet {
        &self.coverage
    }
    fn cognitive_load(&self) -> f64 {
        self.cognitive_load
    }
    fn provenance(&self) -> String {
        format!("catapult:csg{}", self.candidate.csg_index)
    }
}

/// Computes coverage bitsets for all candidates in parallel. Candidates
/// that occur in no live graph are dropped: closure graphs over-generalize
/// (the union of two members can contain subgraphs present in neither),
/// and a pattern that matches nothing would only mislead users.
pub fn score_candidates(
    candidates: Vec<Candidate>,
    collection: &GraphCollection,
) -> (Vec<ScoredCandidate>, Vec<usize>) {
    let coverages = coverage_bitsets(&candidates, collection, |c| &c.graph);
    let scored: Vec<ScoredCandidate> = candidates
        .into_iter()
        .zip(coverages)
        .filter(|(_, coverage)| coverage.any())
        .map(|(c, coverage)| ScoredCandidate {
            cognitive_load: cognitive_load(&c.graph),
            candidate: c,
            coverage,
        })
        .collect();
    (scored, collection.ids())
}

/// Greedy selection of up to `budget.count` patterns from scored
/// candidates.
pub fn greedy_select(
    candidates: Vec<ScoredCandidate>,
    n_graphs: usize,
    budget: &PatternBudget,
    weights: QualityWeights,
) -> PatternSet {
    // an unlimited budget cannot trip and absorbed notes are dropped,
    // so the ctrl body degenerates to the plain greedy loop
    let mut deg = Degradation::new();
    greedy_select_ctrl(
        candidates,
        n_graphs,
        budget,
        weights,
        &Budget::unlimited(),
        &mut deg,
    )
    .unwrap_or_default()
}

/// Budget-aware greedy selection — the **anytime** loop under the
/// `catapult.greedy` stage name. Under an unlimited budget with no
/// fault plan this is bit-identical to [`greedy_select`].
pub fn greedy_select_ctrl(
    candidates: Vec<ScoredCandidate>,
    n_graphs: usize,
    budget: &PatternBudget,
    weights: QualityWeights,
    ctrl: &Budget,
    deg: &mut Degradation,
) -> Result<PatternSet, VqiError> {
    anytime_greedy(
        candidates,
        n_graphs,
        budget,
        weights,
        "catapult.greedy",
        ctrl,
        deg,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use vqi_graph::canon::canonical_code;
    use vqi_graph::generate::{chain, clique, cycle, star};

    fn cand(g: Graph) -> Candidate {
        Candidate {
            code: canonical_code(&g),
            graph: g,
            csg_index: 0,
        }
    }

    fn collection() -> GraphCollection {
        GraphCollection::new(vec![
            chain(6, 1, 0),
            chain(5, 1, 0),
            cycle(5, 2, 0),
            star(5, 3, 0),
        ])
    }

    /// Scores `graphs` against `col` and greedily selects up to `count`.
    fn select(graphs: Vec<Graph>, col: &GraphCollection, count: usize) -> PatternSet {
        let _guard = crate::fault_test_lock();
        let (scored, ids) = score_candidates(graphs.into_iter().map(cand).collect(), col);
        let budget = PatternBudget::new(count, 4, 6);
        greedy_select(scored, ids.len(), &budget, QualityWeights::default())
    }

    #[test]
    fn greedy_prefers_coverage() {
        // the chain covers the two chains; the clique covers nothing
        let set = select(vec![chain(4, 1, 0), clique(4, 9, 9)], &collection(), 1);
        assert_eq!(set.len(), 1);
        assert!(set.contains_isomorphic(&chain(4, 1, 0)));
    }

    #[test]
    fn greedy_builds_diverse_sets() {
        let graphs = vec![
            chain(4, 1, 0), // covers chains
            chain(5, 1, 0), // also covers chains (redundant)
            cycle(4, 2, 0), // covers nothing (non-induced: C4 ⊄ C5)
            star(4, 3, 0),  // covers the star
        ];
        let set = select(graphs, &collection(), 2);
        assert_eq!(set.len(), 2);
        // the redundant second chain must not be picked before the star
        assert!(set.contains_isomorphic(&star(4, 3, 0)));
    }

    #[test]
    fn empty_inputs() {
        assert!(select(vec![], &GraphCollection::new(vec![]), 5).is_empty());
    }

    #[test]
    fn budget_count_limits_selection() {
        let graphs = vec![chain(4, 1, 0), cycle(4, 2, 0), star(4, 3, 0)];
        assert_eq!(select(graphs, &collection(), 1).len(), 1);
    }
}
