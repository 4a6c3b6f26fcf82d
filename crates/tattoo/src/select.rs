//! Greedy selection under the pattern-set score, plus the exhaustive
//! optimum used to measure the approximation ratio (experiment E5).
//!
//! The objective decomposes as
//!
//! ```text
//! F(S) = |edges covered by S| / |E|            (monotone submodular)
//!      + w_div · diversity(S)
//!      − w_cog · mean cognitive load(S)
//! ```
//!
//! Greedy selection on the coverage term alone enjoys the Nemhauser–
//! Wolsey–Fisher `1 − 1/e` guarantee; with the bounded diversity and
//! cognitive-load corrections the paper proves a `1/e` bound for its
//! variant. [`exhaustive_best`] brute-forces the optimum on small
//! instances so the bench can report the ratio actually achieved.
//!
//! The greedy itself is the shared anytime loop
//! [`vqi_core::select::anytime_greedy`] over the universe of network
//! edge ids.
//!
//! Coverage is computed lazily. [`score_candidates`] gives every
//! candidate a closed-form upper bound on its covered edges
//! ([`edge_coverage_bounds`]): the edges whose endpoints can host the
//! stars of a pattern edge's endpoints. For a star this bound is the
//! exact coverage. For any other pattern it contains the capped
//! search's answer. The greedy scores candidates on their bounds, and
//! runs the capped coverage search ([`capped_edge_coverage`]) only for
//! a [`BoundedCandidate`] whose bound score can still win a round. The
//! network maintainer's swap refiner and the sharded score phase take
//! the same candidates, so every TATTOO caller scores this way.
//! Each pick is therefore the one the eager loop makes over exact
//! coverage, while the search runs for a few candidates instead of
//! every one. [`exhaustive_best`] and [`set_score`] work on exact
//! coverage ([`BoundedCandidate::resolve`]).

use crate::candidates::Candidate;
use vqi_core::bitset::BitSet;
use vqi_core::budget::PatternBudget;
use vqi_core::ctrl::{Budget, Degradation};
use vqi_core::pattern::PatternSet;
use vqi_core::score::{
    capped_edge_coverage, cognitive_load, coverage_match_options, edge_coverage_bounds,
    set_score_bitsets, QualityWeights,
};
use vqi_core::select::{anytime_greedy, ScoredPattern};
use vqi_graph::index::GraphIndex;
use vqi_graph::iso::PatternPlan;
use vqi_graph::{par, Graph};
use vqi_runtime::VqiError;

/// A candidate with its covered-edge bitset over the network.
#[derive(Debug, Clone)]
pub struct ScoredCandidate {
    /// The candidate.
    pub candidate: Candidate,
    /// Bits over network edge ids.
    pub covered: BitSet,
    /// Cached cognitive load.
    pub cognitive_load: f64,
}

impl ScoredPattern for ScoredCandidate {
    fn graph(&self) -> &Graph {
        &self.candidate.graph
    }
    fn coverage(&self) -> &BitSet {
        &self.covered
    }
    fn cognitive_load(&self) -> f64 {
        self.cognitive_load
    }
    fn provenance(&self) -> String {
        let region = if self.candidate.from_truss_region {
            "G_T"
        } else {
            "G_O"
        };
        format!("tattoo:{:?}:{region}", self.candidate.class)
    }
}

/// A candidate scored by an upper bound on its covered edges, with the
/// network and its index to search for the exact ones when the greedy
/// or the swap refiner asks ([`ScoredPattern::exact_coverage`]).
#[derive(Debug, Clone)]
pub struct BoundedCandidate<'n> {
    /// The candidate, with its bound as `covered`.
    scored: ScoredCandidate,
    /// True when the bound is the exact coverage (a star, or any
    /// pattern on a network carrying a wildcard label), so no search
    /// is needed.
    exact: bool,
    network: &'n Graph,
    index: &'n GraphIndex,
}

impl BoundedCandidate<'_> {
    /// The candidate with its exact coverage, the one
    /// [`vqi_core::score::edge_coverage_bitsets`] reports.
    pub fn resolve(self) -> ScoredCandidate {
        let covered = self.exact_coverage();
        let mut scored = self.scored;
        if let Some(covered) = covered {
            scored.covered = covered;
        }
        scored
    }
}

impl ScoredPattern for BoundedCandidate<'_> {
    fn graph(&self) -> &Graph {
        self.scored.graph()
    }
    fn coverage(&self) -> &BitSet {
        &self.scored.covered
    }
    fn exact_coverage(&self) -> Option<BitSet> {
        (!self.exact).then(|| capped_edge_coverage(self.graph(), self.network, self.index))
    }
    fn cognitive_load(&self) -> f64 {
        self.scored.cognitive_load
    }
    fn provenance(&self) -> String {
        self.scored.provenance()
    }
}

/// Bounds every candidate's covered edges in closed form
/// ([`edge_coverage_bounds`]) over `network`, matched through its
/// `index`, and drops the candidates covering nothing. A candidate
/// whose bound is empty has no embedding. One whose bound is not exact
/// and not empty is kept only if a search under the coverage caps
/// finds an embedding; that search stops at the first one, at the
/// state where the capped coverage search finds it, so exactly the
/// candidates with non-empty capped coverage survive. The greedy and
/// the swap refiner search for the exact coverage of the few that can
/// win. Counts the bounded candidates as `tattoo.score.bounded`, and
/// the kept ones whose bound is not exact as `tattoo.score.inexact`.
pub fn score_candidates<'n>(
    candidates: Vec<Candidate>,
    network: &'n Graph,
    index: &'n GraphIndex,
) -> Vec<BoundedCandidate<'n>> {
    vqi_observe::incr("tattoo.score.bounded", candidates.len() as u64);
    let bounds = edge_coverage_bounds(&candidates, network, index, |c| &c.graph);
    let occurs = par::map_range(candidates.len(), |k| {
        let (bound, exact) = &bounds[k];
        bound.any()
            && (*exact
                || PatternPlan::new(&candidates[k].graph).is_subgraph_of(
                    network,
                    Some(index),
                    coverage_match_options(),
                ))
    });
    let inexact = bounds.iter().zip(&occurs).filter(|((_, e), &o)| o && !e);
    vqi_observe::incr("tattoo.score.inexact", inexact.count() as u64);
    candidates
        .into_iter()
        .zip(bounds)
        .zip(occurs)
        .filter(|(_, occurs)| *occurs)
        .map(|((c, (covered, exact)), _)| BoundedCandidate {
            scored: ScoredCandidate {
                cognitive_load: cognitive_load(&c.graph),
                candidate: c,
                covered,
            },
            exact,
            network,
            index,
        })
        .collect()
}

/// The full pattern-set score of a set of graphs (used by both the greedy
/// and the exhaustive optimum so the comparison is apples-to-apples).
/// An empty network or empty member set scores 0 — same convention as
/// [`greedy_select`], which selects nothing from an empty network.
pub fn set_score(members: &[&ScoredCandidate], total_edges: usize, weights: QualityWeights) -> f64 {
    let graphs: Vec<&Graph> = members.iter().map(|m| &m.candidate.graph).collect();
    let bitsets: Vec<&BitSet> = members.iter().map(|m| &m.covered).collect();
    set_score_bitsets(&graphs, &bitsets, total_edges, weights)
}

/// Greedy selection of up to `budget.count` candidates maximizing the
/// marginal pattern-set score.
pub fn greedy_select<C: ScoredPattern>(
    candidates: Vec<C>,
    total_edges: usize,
    budget: &PatternBudget,
    weights: QualityWeights,
) -> PatternSet {
    // an unlimited budget cannot trip and absorbed notes are dropped,
    // so the ctrl body degenerates to the plain greedy loop
    let mut deg = Degradation::new();
    greedy_select_ctrl(
        candidates,
        total_edges,
        budget,
        weights,
        &Budget::unlimited(),
        &mut deg,
    )
    .unwrap_or_default()
}

/// Budget-aware greedy selection — the **anytime** loop under the
/// `tattoo.greedy` stage name. Under an unlimited budget with no fault
/// plan the selection is bit-identical to [`greedy_select`]. Bounded
/// candidates get their exact coverage searched only while they can
/// still win a round, counted as `tattoo.greedy.searched`.
pub fn greedy_select_ctrl<C: ScoredPattern>(
    candidates: Vec<C>,
    total_edges: usize,
    budget: &PatternBudget,
    weights: QualityWeights,
    ctrl: &Budget,
    deg: &mut Degradation,
) -> Result<PatternSet, VqiError> {
    anytime_greedy(
        candidates,
        total_edges,
        budget,
        weights,
        "tattoo.greedy",
        ctrl,
        deg,
    )
}

/// Brute-force optimum over all `C(n, k)` candidate subsets of size at
/// most `k`. Exponential — only for tiny instances in experiment E5.
/// Returns `(best score, best subset indices)`.
pub fn exhaustive_best(
    candidates: &[ScoredCandidate],
    total_edges: usize,
    k: usize,
    weights: QualityWeights,
) -> (f64, Vec<usize>) {
    let n = candidates.len();
    assert!(n <= 20, "exhaustive search is for tiny instances only");
    let mut best = (0.0f64, Vec::new());
    // iterate over all bitmasks with ≤ k bits
    for mask in 1u32..(1u32 << n) {
        if mask.count_ones() as usize > k {
            continue;
        }
        let members: Vec<&ScoredCandidate> = (0..n)
            .filter(|&i| mask & (1 << i) != 0)
            .map(|i| &candidates[i])
            .collect();
        let score = set_score(&members, total_edges, weights);
        if score > best.0 {
            best = (score, (0..n).filter(|&i| mask & (1 << i) != 0).collect());
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::classify;
    use vqi_graph::canon::canonical_code;
    use vqi_graph::generate::{chain, clique, cycle, star};
    use vqi_graph::index::GraphIndex;

    fn cand(g: Graph, from_truss: bool) -> Candidate {
        Candidate {
            class: classify(&g),
            code: canonical_code(&g),
            graph: g,
            from_truss_region: from_truss,
        }
    }

    /// The candidates with their exact coverage.
    fn exact(bounded: &[BoundedCandidate]) -> Vec<ScoredCandidate> {
        bounded
            .iter()
            .cloned()
            .map(BoundedCandidate::resolve)
            .collect()
    }

    fn network() -> Graph {
        // K4 plus a pendant path of 4 more nodes
        let mut g = clique(4, 1, 0);
        let mut prev = vqi_graph::NodeId(0);
        for _ in 0..4 {
            let v = g.add_node(1);
            g.add_edge(prev, v, 0);
            prev = v;
        }
        g
    }

    #[test]
    fn scoring_drops_non_occurring() {
        let _guard = crate::fault_test_lock();
        let net = network();
        let cands = vec![
            cand(cycle(3, 1, 0), true),
            cand(star(5, 9, 9), false), // wrong labels, occurs nowhere
        ];
        let idx = GraphIndex::build(&net);
        let scored = score_candidates(cands, &net, &idx);
        assert_eq!(scored.len(), 1);
    }

    #[test]
    fn greedy_covers_both_regions() {
        let _guard = crate::fault_test_lock();
        let net = network();
        let cands = vec![
            cand(cycle(3, 1, 0), true),  // covers the K4 edges
            cand(chain(4, 1, 0), false), // covers the path (and some clique edges)
        ];
        let idx = GraphIndex::build(&net);
        let scored = score_candidates(cands, &net, &idx);
        let set = greedy_select(
            scored,
            net.edge_count(),
            &PatternBudget::new(2, 3, 6),
            QualityWeights::default(),
        );
        assert_eq!(set.len(), 2);
    }

    #[test]
    fn greedy_matches_or_approaches_exhaustive() {
        let _guard = crate::fault_test_lock();
        let net = network();
        let cands = vec![
            cand(cycle(3, 1, 0), true),
            cand(chain(4, 1, 0), false),
            cand(chain(5, 1, 0), false),
            cand(star(3, 1, 0), false),
        ];
        let idx = GraphIndex::build(&net);
        let bounded = score_candidates(cands, &net, &idx);
        let scored = exact(&bounded);
        let weights = QualityWeights::default();
        let k = 2;
        let (opt, _) = exhaustive_best(&scored, net.edge_count(), k, weights);
        let greedy = greedy_select(
            bounded,
            net.edge_count(),
            &PatternBudget::new(k, 3, 6),
            weights,
        );
        // recompute greedy's achieved score
        let chosen: Vec<&ScoredCandidate> = greedy
            .patterns()
            .iter()
            .map(|p| {
                scored
                    .iter()
                    .find(|s| s.candidate.code == p.code)
                    .expect("selected from pool")
            })
            .collect();
        let achieved = set_score(&chosen, net.edge_count(), weights);
        assert!(opt > 0.0);
        assert!(
            achieved >= (1.0 - 1.0 / std::f64::consts::E) * opt - 1e-9,
            "greedy {achieved:.4} below (1-1/e)·OPT = {:.4}",
            (1.0 - 1.0 / std::f64::consts::E) * opt
        );
    }

    #[test]
    fn empty_network_selects_nothing() {
        let _guard = crate::fault_test_lock();
        let set = greedy_select(
            Vec::<ScoredCandidate>::new(),
            0,
            &PatternBudget::default(),
            QualityWeights::default(),
        );
        assert!(set.is_empty());
    }

    #[test]
    fn empty_network_set_score_is_zero() {
        // unified convention: empty repository scores 0 (the old
        // total_edges.max(1) denominator could produce a positive score
        // for an empty network)
        let _guard = crate::fault_test_lock();
        let net = network();
        let scored = exact(&score_candidates(
            vec![cand(cycle(3, 1, 0), true)],
            &net,
            &GraphIndex::build(&net),
        ));
        let members: Vec<&ScoredCandidate> = scored.iter().collect();
        // members carry bitsets sized to the real network; an empty
        // network has no candidates at all, so score the empty repo with
        // an empty member list
        assert_eq!(set_score(&[], 0, QualityWeights::default()), 0.0);
        assert_eq!(
            set_score(&[], net.edge_count(), QualityWeights::default()),
            0.0
        );
        assert!(set_score(&members, net.edge_count(), QualityWeights::default()) > 0.0);
    }

    /// TATTOO's candidates for `net` (the pipeline's extraction and
    /// dedup), plus hand-built chains, a tree and triangles in the
    /// network's two most common labels.
    fn candidates_of(net: &Graph, budget: &PatternBudget, seed: u64) -> Vec<Candidate> {
        use crate::candidates::{extract_from_region, ExtractParams};
        use rand::SeedableRng;
        let rng = &mut rand::rngs::SmallRng::seed_from_u64(seed);
        let split = vqi_graph::truss::decompose(net, 3);
        let params = ExtractParams::default();
        let mut cands =
            extract_from_region(&split.infested_graph(net).0, true, budget, params, rng);
        cands.extend(extract_from_region(
            &split.oblivious_graph(net).0,
            false,
            budget,
            params,
            rng,
        ));
        let tree = vqi_graph::graph::GraphBuilder::new()
            .nodes(&[0, 0, 1, 0, 0])
            .edge(0, 1, 0)
            .edge(1, 2, 1)
            .edge(1, 3, 0)
            .edge(3, 4, 0)
            .build();
        for g in [
            chain(3, 0, 0),
            chain(4, 0, 1),
            chain(5, 1, 0),
            tree,
            cycle(3, 0, 0),
            cycle(3, 1, 1),
        ] {
            cands.push(cand(g, false));
        }
        let mut seen = std::collections::HashSet::new();
        cands.retain(|c| seen.insert(c.code.clone()));
        cands
    }

    #[test]
    fn coverage_bounds_contain_every_embedding() {
        use vqi_core::score::{coverage_star, edge_coverage_bitsets};
        use vqi_graph::iso::{covered_edges, MatchOptions};
        use vqi_graph::{NodeId, WILDCARD_LABEL};
        // the counters read below are process-global
        let _guard = crate::fault_test_lock();
        let uncapped = MatchOptions {
            max_embeddings: usize::MAX,
            max_states: u64::MAX,
            ..coverage_match_options()
        };
        let budget = PatternBudget::new(5, 3, 5);
        let (mut stars_enumerated, mut empty, mut wild) = (0, 0, 0);
        for seed in 0..12u64 {
            let mut net = if seed % 2 == 0 {
                vqi_datasets::dblp_like(150 + 10 * seed as usize, seed)
            } else {
                vqi_datasets::hub_network(seed, 1 + (seed % 3) as u32)
            };
            let mut cands = candidates_of(&net, &budget, seed);
            // a wildcard in the network, or in one pattern
            if seed % 4 == 1 {
                net.set_node_label(NodeId(seed as u32), WILDCARD_LABEL);
            }
            if seed % 3 == 0 {
                let mut g = cands[0].graph.clone();
                g.set_node_label(NodeId(0), WILDCARD_LABEL);
                cands.push(cand(g, true));
            }
            let idx = GraphIndex::build(&net);
            let bounds = edge_coverage_bounds(&cands, &net, &idx, |c| &c.graph);
            let coverage = edge_coverage_bitsets(&cands, &net, &idx, |c| &c.graph);
            let mut enumerated = 0;
            for ((c, (bound, exact)), coverage) in cands.iter().zip(&bounds).zip(&coverage) {
                let p = &c.graph;
                let ctx = format!("seed {seed}, {:?} of {} edges", c.class, p.edge_count());
                let plan = PatternPlan::new(p);
                let capped = capped_edge_coverage(p, &net, &idx);
                let got: Vec<usize> = bound.ones().collect();
                // the coverage is a star's per-edge rule, and any other
                // pattern's capped search
                if let Some(star) = coverage_star(p, &idx) {
                    let centre: Vec<bool> = net.nodes().map(|x| star.is_centre(&net, x)).collect();
                    let rule: Vec<usize> = net
                        .edges()
                        .filter(|&e| star.covers(&net, e, |x| centre[x.index()]))
                        .map(|e| e.index())
                        .collect();
                    assert_eq!(coverage.ones().collect::<Vec<_>>(), rule, "{ctx}: star");
                } else {
                    assert_eq!(*coverage, capped, "{ctx}");
                }
                if idx.fingerprint().has_wildcard() {
                    // every bound would be the whole edge set: the
                    // capped coverage comes back instead
                    wild += 1;
                    assert!(*exact && *bound == capped, "{ctx}: not the capped coverage");
                    continue;
                }
                assert!(
                    capped.ones().all(|e| bound.get(e)),
                    "{ctx}: bound misses an embedding"
                );
                if vqi_graph::index::Fingerprint::of(p).has_wildcard() {
                    wild += 1;
                    assert!(!exact, "{ctx}: a wildcard bound claims to be exact");
                }
                assert_eq!(*exact, coverage_star(p, &idx).is_some(), "{ctx}");
                if *exact {
                    assert_eq!(bound, coverage, "{ctx}");
                    if p.edge_count() <= 3 && enumerated < 4 {
                        enumerated += 1;
                        let all = covered_edges(p, &net, uncapped);
                        assert_eq!(
                            got,
                            all.iter().map(|e| e.index()).collect::<Vec<_>>(),
                            "{ctx}"
                        );
                    }
                }
                if !bound.any() {
                    empty += 1;
                    let first = MatchOptions {
                        max_embeddings: 1,
                        ..uncapped
                    };
                    let found = plan
                        .enumerate(&net, Some(&idx), first, |_| false)
                        .embeddings;
                    assert_eq!(found, 0, "{ctx}: an empty bound with an embedding");
                }
            }
            stars_enumerated += enumerated;

            // a non-star with an empty bound starts no search: a label
            // the network lacks would trip the fingerprint filter
            if !idx.fingerprint().has_wildcard() {
                let mut hopeless: Vec<&Graph> = cands
                    .iter()
                    .zip(&bounds)
                    .filter(|(_, (bound, exact))| !exact && !bound.any())
                    .map(|(c, _)| &c.graph)
                    .collect();
                let absent = cycle(3, 99, 0);
                hopeless.push(&absent);
                let iso_counters = || {
                    let mut c = vqi_observe::snapshot().counters;
                    c.retain(|k, _| k.starts_with("kernel.iso."));
                    c
                };
                vqi_observe::set_enabled(true);
                let before = iso_counters();
                let covered = edge_coverage_bitsets(&hopeless, &net, &idx, |g| *g);
                let after = iso_counters();
                capped_edge_coverage(&absent, &net, &idx);
                let searched = iso_counters();
                vqi_observe::set_enabled(false);
                assert!(covered.iter().all(|b| !b.any()), "seed {seed}");
                assert_eq!(before, after, "seed {seed}: an empty bound was searched");
                assert_ne!(after, searched, "seed {seed}: the search went uncounted");
            }

            // over these bounds the greedy picks what it picks over the
            // exact coverage
            let bounded = score_candidates(cands, &net, &idx);
            let exact_cands = exact(&bounded);
            for k in [1usize, 3, 5, 10] {
                let budget = PatternBudget::new(k, 3, 5);
                let w = QualityWeights::default();
                let lazy = greedy_select(bounded.clone(), net.edge_count(), &budget, w);
                let eager = greedy_select(exact_cands.clone(), net.edge_count(), &budget, w);
                assert!(
                    lazy == eager,
                    "seed {seed} k {k}: the bounds changed the selection"
                );
            }
        }
        assert!(
            stars_enumerated >= 12,
            "{stars_enumerated} stars enumerated"
        );
        assert!(
            empty > 0 && wild > 0,
            "{empty} empty bounds, {wild} wildcard bounds"
        );
    }
}
