//! The two loops every canned-pattern pipeline and maintainer shares:
//! [`anytime_greedy`] builds a pattern set (paper §2.3: swappable front
//! stages feeding one common final selection), and [`swap_refine`]
//! maintains one (§2.4 MIDAS, §2.5 the TATTOO network maintainer).
//! Both run over a coverage universe `U` — data-graph positions for a
//! collection (CATAPULT, the modular pipeline, AURORA, MIDAS) or edge
//! ids for a network (TATTOO and its maintainer).
//!
//! **The greedy loop.** Each round scores every remaining candidate
//! against the selected set `S`:
//!
//! ```text
//! score(p | S) = |cov(p) \ cov(S)| / |U|
//!              + w_div · (1 − max_{q ∈ S} sim(p, q))
//!              − w_cog · cl(p)
//! ```
//!
//! The best candidate is selected until the budget count is reached,
//! no candidate remains, or the best candidate scores non-positively
//! and covers nothing new.
//!
//! A caller supplies the candidates through [`ScoredPattern`] (coverage
//! bitset, graph, canonical code, cognitive load, provenance), the
//! universe size, and a stage name. The stage name keys everything the
//! loop reports: the budget meter and `ctrl.check`, the
//! `fault::maybe_timeout` site `<stage>`, the `fault::nan_score` site
//! `<stage>.score`, degradation records, and the `<stage>.iterations`,
//! `<stage>.sim_calls`, `<stage>.selected` and `<stage>.searched`
//! counters.
//!
//! **Lazy exact coverage.** A candidate's coverage may be an upper
//! bound, with [`ScoredPattern::exact_coverage`] computing the exact
//! one (TATTOO bounds network coverage in closed form and searches
//! it). Every round scores all candidates on what it knows. Only
//! candidates whose score can still reach the best exact score get
//! their exact coverage, which `<stage>.searched` counts. Since
//! `exact ≤ bound`, each pick is the one the loop would make over exact
//! coverage everywhere (see `lazy_argmax`).
//!
//! **Why the incremental fold is bit-identical.** Each candidate keeps
//! a running `max_{q ∈ S} sim(p, q)` that is folded forward against
//! the one pattern selected in the previous round. Since
//! `max(a ∪ {b}) = max(max(a), b)` and `f64::max` is exact, this equals
//! a full recomputation over `S` every round. The fold passes the
//! running maximum as the `min_useful` threshold of
//! [`mcs_similarity_cached_bounded`], which returns the exact
//! similarity whenever it exceeds the threshold and some value at or
//! below it otherwise, so `max(m, ·)` is unchanged. Scores are computed
//! per candidate and the argmax scans them in candidate order under
//! `total_cmp`, so the selection does not depend on the thread count.
//!
//! **The swap refiner.** Each scan tries to replace one current
//! pattern with one fresh candidate, a [`ScoredPattern`] as in the
//! greedy. A swap is accepted only if
//!
//! 1. the covered union does **not shrink** (progressive coverage), and
//! 2. the set score ([`set_score_bitsets`], the score
//!    [`evaluate`](crate::score::evaluate) reports) strictly improves.
//!
//! Among accepted swaps a scan takes the best-scoring one, except that
//! replacing a pattern which covers nothing beats replacing a live one.
//! Candidates isomorphic to a current pattern are dropped up front, and
//! a candidate covering fewer units than the weakest pattern's sole
//! coverage is pruned: it would shrink the union in every slot. The
//! once/multiply-covered partition and the per-pattern sole coverage
//! are word-parallel [`BitSet`] algebra. Coverage is lazy here too:
//! the prune, the union test and the `(dead, score)` key test against
//! the scan's best run on a candidate's bound first, and each is sound
//! on it (a superset gains at least as much, loses at most as much and
//! scores at least as high), so the exact coverage is computed only for
//! a candidate whose bound passes all three. The stage name keys the
//! `<stage>.{accepted,considered,pruned,scans,searched}` counters.

use crate::bitset::BitSet;
use crate::budget::PatternBudget;
use crate::ctrl::{Budget, Degradation};
use crate::pattern::{PatternKind, PatternSet};
use crate::score::{cognitive_load, combined_score, set_score_bitsets, QualityWeights};
use vqi_graph::cache::mcs_similarity_cached_bounded;
use vqi_graph::canon::CanonicalCode;
use vqi_graph::par;
use vqi_graph::Graph;
use vqi_runtime::{fault, VqiError};

/// A selectable candidate: what [`anytime_greedy`] needs to score,
/// compare, and record it.
pub trait ScoredPattern: Sync {
    /// The pattern graph.
    fn graph(&self) -> &Graph;
    /// Canonical code of [`Self::graph`] (the MCS memo key).
    fn code(&self) -> &CanonicalCode;
    /// Covered units of the universe (graph positions or edge ids), or
    /// a superset of them when [`Self::exact_coverage`] computes them.
    fn coverage(&self) -> &BitSet;
    /// The exact covered units when [`Self::coverage`] is only an upper
    /// bound on them, or `None` when it is exact. [`anytime_greedy`]
    /// and [`swap_refine`] ask at most once per candidate, and only for
    /// a candidate that can still win a round or a swap. The default
    /// says the bound is exact.
    fn exact_coverage(&self) -> Option<BitSet> {
        None
    }
    /// Cognitive load of [`Self::graph`].
    fn cognitive_load(&self) -> f64;
    /// Provenance string recorded when the candidate is selected.
    fn provenance(&self) -> String;
}

/// A ready-made [`ScoredPattern`] for callers without a candidate type
/// of their own. Fields are private so the code and cognitive load
/// always belong to the graph.
#[derive(Debug, Clone)]
pub struct Scored {
    graph: Graph,
    code: CanonicalCode,
    coverage: BitSet,
    cognitive_load: f64,
    provenance: String,
}

impl Scored {
    /// A candidate over `graph`, whose canonical code is `code`; the
    /// cognitive load is computed from `graph`.
    pub fn new(graph: Graph, code: CanonicalCode, coverage: BitSet, provenance: String) -> Self {
        Scored {
            cognitive_load: cognitive_load(&graph),
            graph,
            code,
            coverage,
            provenance,
        }
    }
}

impl ScoredPattern for Scored {
    fn graph(&self) -> &Graph {
        &self.graph
    }
    fn code(&self) -> &CanonicalCode {
        &self.code
    }
    fn coverage(&self) -> &BitSet {
        &self.coverage
    }
    fn cognitive_load(&self) -> f64 {
        self.cognitive_load
    }
    fn provenance(&self) -> String {
        self.provenance.clone()
    }
}

/// What [`anytime_greedy`] knows of one candidate's coverage.
enum Known {
    /// Only the bound [`ScoredPattern::coverage`].
    Bound,
    /// The bound, which [`ScoredPattern::exact_coverage`] said is exact.
    Exact,
    /// The exact coverage [`ScoredPattern::exact_coverage`] computed.
    Searched(BitSet),
}

impl Known {
    /// The coverage to score with: the searched one, else `bound`.
    fn or<'a>(&'a self, bound: &'a BitSet) -> &'a BitSet {
        match self {
            Known::Searched(bits) => bits,
            _ => bound,
        }
    }

    /// Asks `c` for its exact coverage unless that is known already.
    /// True when this computed it, which counts in `searched`.
    fn settle<C: ScoredPattern>(&mut self, c: &C, searched: &mut usize) -> bool {
        if let Known::Bound = self {
            *self = match c.exact_coverage() {
                Some(bits) => {
                    *searched += 1;
                    Known::Searched(bits)
                }
                None => Known::Exact,
            };
            return matches!(self, Known::Searched(_));
        }
        false
    }
}

/// Budget-aware greedy selection of up to `budget.count` candidates
/// over a universe of `universe` units — the **anytime** loop.
///
/// Each round first checks `ctrl`; a tripped deadline, cancel or tick
/// quota (one tick per round) keeps the patterns selected so far and
/// records the cut in `deg`. Non-finite scores (injected at the
/// `<stage>.score` fault site or produced by pathological weights) are
/// sanitized to `-∞`, so a NaN loses every comparison instead of
/// winning the `total_cmp` argmax, and each is noted in `deg`. `Err`
/// is returned only under a fail-fast budget. An empty universe
/// selects nothing.
///
/// Candidates are scored on their [`ScoredPattern::coverage`], and a
/// candidate whose coverage is only a bound gets its exact coverage
/// once its bound score can still win a round (see `lazy_argmax`);
/// `<stage>.searched` counts those computations.
pub fn anytime_greedy<C: ScoredPattern>(
    mut candidates: Vec<C>,
    universe: usize,
    budget: &PatternBudget,
    weights: QualityWeights,
    stage: &'static str,
    ctrl: &Budget,
    deg: &mut Degradation,
) -> Result<PatternSet, VqiError> {
    let mut set = PatternSet::new();
    if universe == 0 {
        return Ok(set);
    }
    let score_site = format!("{stage}.score");
    let iterations = format!("{stage}.iterations");
    let sim_calls = format!("{stage}.sim_calls");
    let mut covered = BitSet::new(universe);
    // running max similarity of candidate i to the selected set; 0.0
    // while the set is empty so `1.0 - max_sim` reproduces the
    // full-diversity score of the first round
    let mut max_sim: Vec<f64> = vec![0.0; candidates.len()];
    let mut known: Vec<Known> = candidates.iter().map(|_| Known::Bound).collect();
    let mut searched = 0;
    // one meter for the whole selection: with a tick quota of N the
    // loop degrades after exactly N rounds, at any thread count
    let mut meter = ctrl.meter(stage);
    while set.len() < budget.count && !candidates.is_empty() {
        let round = set.len() as u64;
        if let Err(e) = ctrl.check(stage).and_then(|()| meter.tick()) {
            deg.absorb(ctrl, e)?;
            break;
        }
        if fault::maybe_timeout(stage, round) {
            deg.absorb(
                ctrl,
                VqiError::DeadlineExceeded {
                    stage: stage.into(),
                },
            )?;
            break;
        }
        vqi_observe::incr(&iterations, 1);
        let score = |i: usize, coverage: &BitSet| {
            let gain = coverage.count_and_not(&covered) as f64 / universe as f64;
            let c = &candidates[i];
            combined_score(gain, 1.0 - max_sim[i], c.cognitive_load(), weights)
        };
        let mut bounds: Vec<f64> = par::map_range(candidates.len(), |i| {
            score(i, known[i].or(candidates[i].coverage()))
        });
        for (i, s) in bounds.iter_mut().enumerate() {
            // fault site keyed by (round, position) — both are pure
            // functions of the input, never of the thread count
            *s = fault::nan_score(&score_site, (round << 32) | i as u64, *s);
            if !s.is_finite() {
                deg.note(
                    stage,
                    format!("non-finite score sanitized in round {round}"),
                );
                *s = f64::NEG_INFINITY;
            }
        }
        let mut settle =
            |i: usize, known: &mut [Known]| known[i].settle(&candidates[i], &mut searched);
        let (best, best_score) = lazy_argmax(&bounds, |i| {
            // a NaN fault is keyed by position and a weight overflow
            // does not depend on the gain, so a position whose bound
            // score was sanitized has a non-finite exact score too
            if bounds[i] == f64::NEG_INFINITY {
                return bounds[i];
            }
            settle(i, &mut known);
            match &known[i] {
                Known::Searched(bits) => score(i, bits),
                _ => bounds[i],
            }
        })
        .expect("candidates nonempty");
        // the break rule and the union read the pick's exact coverage
        settle(best, &mut known);
        let exact = known[best].or(candidates[best].coverage());
        if best_score <= 0.0 && !exact.any_and_not(&covered) {
            break;
        }
        let chosen = candidates.swap_remove(best);
        max_sim.swap_remove(best);
        covered.union_with(known.swap_remove(best).or(chosen.coverage()));
        if set
            .insert(
                chosen.graph().clone(),
                PatternKind::Canned,
                chosen.provenance(),
            )
            .is_ok()
        {
            // fold the new pick into every survivor's running maximum —
            // the only MCS work of the round
            vqi_observe::incr(&sim_calls, candidates.len() as u64);
            let sims: Vec<f64> = par::map_range(candidates.len(), |i| {
                let c = &candidates[i];
                mcs_similarity_cached_bounded(
                    c.graph(),
                    c.code(),
                    chosen.graph(),
                    chosen.code(),
                    max_sim[i],
                )
            });
            for (m, s) in max_sim.iter_mut().zip(sims) {
                *m = f64::max(*m, s);
            }
        }
    }
    vqi_observe::incr(&format!("{stage}.selected"), set.len() as u64);
    vqi_observe::incr(&format!("{stage}.searched"), searched as u64);
    Ok(set)
}

/// The position the eager argmax picks — the last maximum of the exact
/// scores under `total_cmp` — and its exact score, or `None` when
/// `bounds` is empty. `bounds[i]` must be at least position `i`'s exact
/// score, which `exact(i)` computes.
///
/// Positions are visited in descending bound order, the later position
/// first among equal bounds, and `exact` is called for each until a
/// bound falls below the best exact score so far. Every position left
/// unvisited has an exact score at most its bound, which is below that
/// best, so it could neither win nor tie.
fn lazy_argmax(bounds: &[f64], mut exact: impl FnMut(usize) -> f64) -> Option<(usize, f64)> {
    let mut order: Vec<usize> = (0..bounds.len()).collect();
    order.sort_unstable_by(|&a, &b| bounds[b].total_cmp(&bounds[a]).then(b.cmp(&a)));
    let mut best: Option<(usize, f64)> = None;
    for i in order {
        if best.is_some_and(|(_, s)| bounds[i].total_cmp(&s).is_lt()) {
            break;
        }
        let s = exact(i);
        debug_assert!(
            s.total_cmp(&bounds[i]).is_le(),
            "exact score above its bound"
        );
        if best.is_none_or(|(j, t)| s.total_cmp(&t).then(i.cmp(&j)).is_gt()) {
            best = Some((i, s));
        }
    }
    best
}

/// Outcome counters of one [`swap_refine`] pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SwapStats {
    /// Accepted swaps.
    pub swaps: usize,
    /// Candidates considered (those not isomorphic to a pattern).
    pub considered: usize,
    /// Candidates eliminated by the sole-coverage bound, summed over
    /// scans, on what the refiner knows of each candidate's coverage.
    pub pruned: usize,
    /// Scans executed.
    pub scans: usize,
}

/// Runs up to `scans` swap scans over `patterns` and their coverage
/// `bitsets` (aligned, all over the same universe) with the given
/// candidates — the **swap refiner**. Mutates both in place so they
/// stay aligned; a replacing candidate is recorded with its
/// [`ScoredPattern::provenance`] and its exact coverage. Stops early
/// when a scan accepts no swap or the best swap cannot be applied.
///
/// A candidate whose coverage is only a bound gets its exact coverage
/// once its bound passes every test of a pair (see the module docs),
/// so each swap is the one made over exact coverage. A bounded
/// candidate must cover something: an empty coverage scores its
/// pattern as absent, which the bound does not bound. Emits
/// `<stage>.{accepted,considered,pruned,scans,searched}`.
pub fn swap_refine<C: ScoredPattern>(
    patterns: &mut PatternSet,
    bitsets: &mut [BitSet],
    mut candidates: Vec<C>,
    scans: usize,
    weights: QualityWeights,
    stage: &str,
) -> SwapStats {
    let mut stats = SwapStats::default();
    let mut searched = 0;
    let universe = bitsets.first().map_or(0, BitSet::len);
    if universe > 0 && !patterns.is_empty() {
        candidates.retain(|c| !patterns.contains_isomorphic(c.graph()));
        stats.considered = candidates.len();
        let mut known: Vec<Known> = candidates.iter().map(|_| Known::Bound).collect();
        for _ in 0..scans {
            stats.scans += 1;
            let Some((ci, pi)) = best_swap(
                patterns,
                bitsets,
                &candidates,
                &mut known,
                weights,
                &mut stats.pruned,
                &mut searched,
            ) else {
                break;
            };
            let cand = candidates.swap_remove(ci);
            let coverage = known.swap_remove(ci).or(cand.coverage()).clone();
            if patterns
                .replace(pi, cand.graph().clone(), cand.provenance())
                .is_err()
            {
                break;
            }
            bitsets[pi] = coverage;
            stats.swaps += 1;
        }
    }
    for (name, n) in [
        ("accepted", stats.swaps),
        ("considered", stats.considered),
        ("pruned", stats.pruned),
        ("scans", stats.scans),
        ("searched", searched),
    ] {
        vqi_observe::incr(&format!("{stage}.{name}"), n as u64);
    }
    stats
}

/// One scan of [`swap_refine`]: the accepted `(candidate, pattern)`
/// swap with the best `(dead, score)` key, first in candidate-major
/// order among ties, or `None` if no swap is accepted. A candidate
/// still on its bound is settled in `known` at its first pair that
/// passes on the bound; its earlier pairs fail on the exact coverage
/// too, so the scan goes on from that pair.
fn best_swap<C: ScoredPattern>(
    patterns: &PatternSet,
    bitsets: &[BitSet],
    candidates: &[C],
    known: &mut [Known],
    weights: QualityWeights,
    pruned: &mut usize,
    searched: &mut usize,
) -> Option<(usize, usize)> {
    let universe = bitsets[0].len();
    // partition the universe by how many patterns cover each unit:
    // `any` = at least once, `multi` = at least twice, `once` = exactly
    // once — all in O(words · patterns)
    let mut any = BitSet::new(universe);
    let mut multi = BitSet::new(universe);
    for b in bitsets {
        multi.or_and(&any, b);
        any.union_with(b);
    }
    let once = any.and_not(&multi);
    // sole[pi] = units only pattern pi covers
    let sole: Vec<BitSet> = bitsets.iter().map(|b| b.and(&once)).collect();
    let min_sole = sole.iter().map(BitSet::count_ones).min().unwrap_or(0);
    let dead: Vec<bool> = bitsets.iter().map(|b| !b.any()).collect();

    // one graph vector per scan: each pair puts the candidate into
    // slot pi, scores, and puts the pattern back
    let mut graphs: Vec<&Graph> = patterns.graphs().collect();
    let bit_refs = || bitsets.iter().collect::<Vec<&BitSet>>();
    let current = set_score_bitsets(&graphs, &bit_refs(), universe, weights);

    let mut best: Option<((bool, f64), usize, usize)> = None;
    for (ci, cand) in candidates.iter().enumerate() {
        let mut pi = 0;
        while pi < bitsets.len() {
            let coverage = known[ci].or(cand.coverage());
            // this candidate cannot restore even the weakest pattern's
            // sole coverage, so every swap would shrink the union
            if coverage.count_ones() < min_sole {
                *pruned += 1;
                break;
            }
            // the union shrinks iff the candidate gains fewer new units
            // than it loses of pattern pi's sole coverage
            if coverage.count_and_not(&any) >= sole[pi].count_and_not(coverage) {
                let old_graph = std::mem::replace(&mut graphs[pi], cand.graph());
                let mut with = bit_refs();
                with[pi] = coverage;
                let score = set_score_bitsets(&graphs, &with, universe, weights);
                graphs[pi] = old_graph;
                let key = (dead[pi], score);
                if score > current + 1e-12 && best.is_none_or(|(k, _, _)| key > k) {
                    // a freshly searched coverage re-tests this pair
                    if known[ci].settle(cand, searched) {
                        continue;
                    }
                    best = Some((key, ci, pi));
                }
            }
            pi += 1;
        }
    }
    best.map(|(_, ci, pi)| (ci, pi))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::repo::GraphCollection;
    use crate::score::{coverage_bitsets, edge_coverage_bitsets};
    use vqi_graph::canon::canonical_code;
    use vqi_graph::generate::{chain, clique, cycle, star};
    use vqi_graph::graph::GraphBuilder;
    use vqi_graph::index::GraphIndex;
    use vqi_graph::mcs::mcs_similarity;

    use crate::test_lock as lock;

    fn cand(graph: Graph, coverage: BitSet) -> Scored {
        let (code, provenance) = (
            canonical_code(&graph),
            format!("test:{}", graph.edge_count()),
        );
        Scored::new(graph, code, coverage, provenance)
    }

    fn patterns() -> Vec<Graph> {
        vec![
            chain(4, 1, 0),
            chain(5, 1, 0),
            cycle(5, 2, 0),
            star(4, 3, 0),
            star(5, 3, 0),
            clique(3, 2, 0),
            clique(4, 2, 0),
            chain(3, 1, 0),
            star(3, 1, 0),
            cycle(3, 1, 0),
        ]
    }

    /// Coverage of [`patterns`] in both universes: positions of the
    /// live graphs of a collection, and edge ids of a network (K4 plus
    /// a pendant 4-path). Returns each universe's bitsets and size.
    fn coverages() -> Vec<(Vec<BitSet>, usize)> {
        let col = GraphCollection::new(vec![
            chain(6, 1, 0),
            chain(5, 1, 0),
            cycle(5, 2, 0),
            cycle(6, 2, 0),
            star(5, 3, 0),
            star(6, 3, 0),
            clique(4, 2, 0),
        ]);
        let graphs = patterns();
        let by_position = coverage_bitsets(&graphs, &col, |g| g);

        let mut net = clique(4, 1, 0);
        let mut prev = vqi_graph::NodeId(0);
        for _ in 0..4 {
            let v = net.add_node(1);
            net.add_edge(prev, v, 0);
            prev = v;
        }
        let by_edge = edge_coverage_bitsets(&graphs, &net, &GraphIndex::build(&net), |g| g);
        vec![(by_position, col.len()), (by_edge, net.edge_count())]
    }

    /// Both universes as greedy candidates: the patterns that cover
    /// something, with their coverage.
    fn universes() -> Vec<(Vec<Scored>, usize)> {
        coverages()
            .into_iter()
            .map(|(bitsets, universe)| {
                let cands: Vec<Scored> = patterns()
                    .into_iter()
                    .zip(bitsets)
                    .filter(|(_, b)| b.any())
                    .map(|(g, b)| cand(g, b))
                    .collect();
                assert!(cands.len() >= 4, "universe too small to exercise rounds");
                (cands, universe)
            })
            .collect()
    }

    /// The pre-incremental loop: recomputes every candidate's max
    /// similarity to the whole selected set each round with the plain
    /// MCS kernel, over `Vec<bool>` coverage. The engine must match it
    /// code for code, in order.
    fn reference_greedy(
        mut candidates: Vec<Scored>,
        universe: usize,
        count: usize,
        w: QualityWeights,
    ) -> Vec<CanonicalCode> {
        let mut set = PatternSet::new();
        if universe == 0 {
            return Vec::new();
        }
        let mut covered = vec![false; universe];
        let mut selected: Vec<Graph> = Vec::new();
        let gain_of = |c: &Scored, covered: &[bool]| {
            (0..universe)
                .filter(|&i| c.coverage.get(i) && !covered[i])
                .count()
        };
        while set.len() < count && !candidates.is_empty() {
            let scores: Vec<f64> = candidates
                .iter()
                .map(|c| {
                    let gain = gain_of(c, &covered) as f64 / universe as f64;
                    let max_sim = selected
                        .iter()
                        .map(|q| mcs_similarity(&c.graph, q))
                        .fold(0.0f64, f64::max);
                    let s = gain + w.diversity * (1.0 - max_sim) - w.cognitive * c.cognitive_load;
                    if s.is_finite() {
                        s
                    } else {
                        f64::NEG_INFINITY
                    }
                })
                .collect();
            let (best, &best_score) = scores
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.total_cmp(b.1))
                .expect("nonempty");
            if best_score <= 0.0 && gain_of(&candidates[best], &covered) == 0 {
                break;
            }
            let chosen = candidates.swap_remove(best);
            for i in chosen.coverage.ones() {
                covered[i] = true;
            }
            if set
                .insert(chosen.graph.clone(), PatternKind::Canned, "ref")
                .is_ok()
            {
                selected.push(chosen.graph);
            }
        }
        codes(&set)
    }

    fn codes(set: &PatternSet) -> Vec<CanonicalCode> {
        set.patterns().iter().map(|p| p.code.clone()).collect()
    }

    /// Runs the engine at thread cap `cap`; returns the selected codes
    /// in order and the degradation ledger.
    fn engine(
        cands: &[Scored],
        universe: usize,
        count: usize,
        w: QualityWeights,
        ctrl: &Budget,
        cap: usize,
    ) -> (Vec<CanonicalCode>, Degradation) {
        let mut deg = Degradation::new();
        par::set_thread_cap(cap);
        let budget = PatternBudget::new(count, 2, 8);
        let set = anytime_greedy(
            cands.to_vec(),
            universe,
            &budget,
            w,
            "test.greedy",
            ctrl,
            &mut deg,
        );
        par::set_thread_cap(0);
        (codes(&set.expect("not fail-fast")), deg)
    }

    #[test]
    fn incremental_greedy_matches_reference() {
        let _guard = lock();
        let (w, ctrl) = (QualityWeights::default(), Budget::unlimited());
        for (u, (cands, universe)) in universes().into_iter().enumerate() {
            for count in 1..=5 {
                let want = reference_greedy(cands.clone(), universe, count, w);
                assert!(!want.is_empty(), "universe {u} count {count}");
                for cap in [1usize, 2, 4] {
                    let (got, _) = engine(&cands, universe, count, w, &ctrl, cap);
                    assert_eq!(got, want, "universe {u} count {count} cap {cap}");
                }
            }
        }
    }

    #[test]
    fn bound_and_skip_changes_no_selection() {
        let _guard = lock();
        let (w, ctrl) = (QualityWeights::default(), Budget::unlimited());
        for (u, (cands, universe)) in universes().into_iter().enumerate() {
            for count in 1..=5 {
                let want = reference_greedy(cands.clone(), universe, count, w);
                let (got, _) = engine(&cands, universe, count, w, &ctrl, 0);
                assert_eq!(got, want, "universe {u} count {count}");
            }
        }
    }

    #[test]
    fn non_finite_scores_are_sanitized_deterministically() {
        let _guard = lock();
        // infinite weights make every score inf − inf = NaN; the engine
        // must neither panic nor let a NaN win the argmax, and must
        // record the sanitization
        let w = QualityWeights {
            diversity: f64::INFINITY,
            cognitive: f64::INFINITY,
        };
        for (u, (cands, universe)) in universes().into_iter().enumerate() {
            let want = reference_greedy(cands.clone(), universe, 3, w);
            assert!(!want.is_empty(), "universe {u}");
            let (got, deg) = engine(&cands, universe, 3, w, &Budget::unlimited(), 0);
            assert_eq!(got, want, "universe {u}");
            assert!(!deg.is_empty(), "universe {u}: sanitization not recorded");
        }
    }

    #[test]
    fn tied_scores_pick_deterministically() {
        let _guard = lock();
        // identical coverage and cognitive load: the tie must break the
        // same way as the reference, at every cap
        let cover_all = BitSet::from_bools(&[true, true]);
        let cands = vec![
            cand(chain(4, 1, 0), cover_all.clone()),
            cand(chain(4, 2, 0), cover_all.clone()),
            cand(chain(4, 1, 0), cover_all),
        ];
        let w = QualityWeights::default();
        let want = reference_greedy(cands.clone(), 2, 2, w);
        for cap in [1usize, 2, 4] {
            let (got, _) = engine(&cands, 2, 2, w, &Budget::unlimited(), cap);
            assert_eq!(got, want, "cap {cap}");
        }
    }

    #[test]
    fn empty_input_selects_nothing() {
        let _guard = lock();
        let (w, ctrl) = (QualityWeights::default(), Budget::unlimited());
        assert!(engine(&[], 0, 5, w, &ctrl, 0).0.is_empty());
        assert!(engine(&[], 4, 5, w, &ctrl, 0).0.is_empty());
        let (cands, _) = &universes()[0];
        assert!(
            engine(cands, 0, 5, w, &ctrl, 0).0.is_empty(),
            "empty universe"
        );
    }

    #[test]
    fn tick_quota_of_n_stops_after_exactly_n_rounds() {
        let _guard = lock();
        let w = QualityWeights::default();
        for (u, (cands, universe)) in universes().into_iter().enumerate() {
            let (full, _) = engine(&cands, universe, 4, w, &Budget::unlimited(), 0);
            assert_eq!(full.len(), 4, "universe {u}: need four rounds to cut");
            for n in 0..4u64 {
                let ctrl = Budget::unlimited().with_kernel_ticks(n);
                for cap in [1usize, 4] {
                    let (got, deg) = engine(&cands, universe, 4, w, &ctrl, cap);
                    assert_eq!(got, full[..n as usize], "universe {u} n {n} cap {cap}");
                    assert!(!deg.is_empty(), "universe {u} n {n}: cut not recorded");
                }
            }
        }
    }

    #[test]
    fn fail_fast_budget_returns_the_cut() {
        let _guard = lock();
        let (cands, universe) = universes().swap_remove(0);
        let ctrl = Budget::unlimited()
            .with_kernel_ticks(1)
            .with_fail_fast(true);
        let mut deg = Degradation::new();
        let budget = PatternBudget::new(4, 2, 8);
        let w = QualityWeights::default();
        let out = anytime_greedy(cands, universe, &budget, w, "test.greedy", &ctrl, &mut deg);
        assert!(
            matches!(out, Err(VqiError::QuotaExceeded { .. })),
            "{out:?}"
        );
    }

    #[test]
    fn injected_nan_scores_are_sanitized_at_any_cap() {
        let _guard = lock();
        let (cands, universe) = universes().swap_remove(1);
        let w = QualityWeights::default();
        let mut runs = Vec::new();
        for cap in [1usize, 4] {
            fault::set_plan(fault::FaultPlan {
                seed: 5,
                nan_rate: 1.0,
                ..Default::default()
            });
            let (got, deg) = engine(&cands, universe, 3, w, &Budget::unlimited(), cap);
            fault::reset();
            assert!(!got.is_empty() && !deg.is_empty(), "cap {cap}");
            runs.push((got, deg.into_completeness()));
        }
        assert_eq!(runs[0], runs[1], "NaN sanitization depends on the cap");
    }

    #[test]
    fn stage_name_keys_the_counters() {
        let _guard = lock();
        let (cands, universe) = universes().swap_remove(0);
        vqi_observe::set_enabled(true);
        let budget = PatternBudget::new(3, 2, 8);
        let mut deg = Degradation::new();
        let w = QualityWeights::default();
        let ctrl = Budget::unlimited();
        let set = anytime_greedy(cands, universe, &budget, w, "test.keyed", &ctrl, &mut deg);
        let counters = vqi_observe::snapshot().counters;
        vqi_observe::set_enabled(false);
        assert_eq!(set.expect("unlimited").len(), 3);
        assert_eq!(counters["test.keyed.iterations"], 3);
        assert_eq!(counters["test.keyed.selected"], 3);
        assert!(counters["test.keyed.sim_calls"] > 0);
    }

    /// The greedy loop before lazy coverage: every round scores every
    /// candidate on its exact coverage. [`anytime_greedy`] over bounds
    /// must match it pick for pick, provenance for provenance, note for
    /// note.
    fn eager_greedy(
        mut candidates: Vec<Scored>,
        universe: usize,
        budget: &PatternBudget,
        weights: QualityWeights,
        stage: &'static str,
        ctrl: &Budget,
        deg: &mut Degradation,
    ) -> Result<PatternSet, VqiError> {
        let mut set = PatternSet::new();
        if universe == 0 {
            return Ok(set);
        }
        let score_site = format!("{stage}.score");
        let mut covered = BitSet::new(universe);
        let mut max_sim: Vec<f64> = vec![0.0; candidates.len()];
        let mut meter = ctrl.meter(stage);
        while set.len() < budget.count && !candidates.is_empty() {
            let round = set.len() as u64;
            if let Err(e) = ctrl.check(stage).and_then(|()| meter.tick()) {
                deg.absorb(ctrl, e)?;
                break;
            }
            if fault::maybe_timeout(stage, round) {
                let e = VqiError::DeadlineExceeded {
                    stage: stage.into(),
                };
                deg.absorb(ctrl, e)?;
                break;
            }
            let mut scores: Vec<f64> = par::map_range(candidates.len(), |i| {
                let c = &candidates[i];
                let gain = c.coverage().count_and_not(&covered) as f64 / universe as f64;
                combined_score(gain, 1.0 - max_sim[i], c.cognitive_load(), weights)
            });
            for (i, s) in scores.iter_mut().enumerate() {
                *s = fault::nan_score(&score_site, (round << 32) | i as u64, *s);
                if !s.is_finite() {
                    deg.note(
                        stage,
                        format!("non-finite score sanitized in round {round}"),
                    );
                    *s = f64::NEG_INFINITY;
                }
            }
            let (best, &best_score) = scores
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.total_cmp(b.1))
                .expect("candidates nonempty");
            if best_score <= 0.0 && !candidates[best].coverage().any_and_not(&covered) {
                break;
            }
            let chosen = candidates.swap_remove(best);
            max_sim.swap_remove(best);
            covered.union_with(chosen.coverage());
            if set
                .insert(
                    chosen.graph().clone(),
                    PatternKind::Canned,
                    chosen.provenance(),
                )
                .is_ok()
            {
                for (i, m) in max_sim.iter_mut().enumerate() {
                    let c = &candidates[i];
                    *m = m.max(mcs_similarity_cached_bounded(
                        c.graph(),
                        c.code(),
                        chosen.graph(),
                        chosen.code(),
                        *m,
                    ));
                }
            }
        }
        Ok(set)
    }

    /// A candidate scored on a bound; the engine gets its exact
    /// coverage only by asking.
    #[derive(Clone)]
    struct Bounded {
        scored: Scored,
        /// `None` when the bound is exact.
        exact: Option<BitSet>,
    }

    impl ScoredPattern for Bounded {
        fn graph(&self) -> &Graph {
            self.scored.graph()
        }
        fn code(&self) -> &CanonicalCode {
            self.scored.code()
        }
        fn coverage(&self) -> &BitSet {
            self.scored.coverage()
        }
        fn exact_coverage(&self) -> Option<BitSet> {
            self.exact.clone()
        }
        fn cognitive_load(&self) -> f64 {
            self.scored.cognitive_load()
        }
        fn provenance(&self) -> String {
            self.scored.provenance()
        }
    }

    /// The same candidates twice: on their bounds for the engine, on
    /// their exact coverage for [`eager_greedy`].
    fn bounded_and_exact(
        cands: Vec<(Graph, BitSet, Option<BitSet>)>,
    ) -> (Vec<Bounded>, Vec<Scored>) {
        cands
            .into_iter()
            .enumerate()
            .map(|(k, (graph, bound, exact))| {
                let code = canonical_code(&graph);
                let provenance = format!("test:{k}");
                let eager = Scored::new(
                    graph.clone(),
                    code.clone(),
                    exact.clone().unwrap_or_else(|| bound.clone()),
                    provenance.clone(),
                );
                let scored = Scored::new(graph, code, bound, provenance);
                (Bounded { scored, exact }, eager)
            })
            .unzip()
    }

    /// Runs the engine on `lazy` and the eager loop on `eager` under
    /// `ctrl` at thread cap `cap`, each with a fresh copy of the fault
    /// plan `nan` (a fault fires once per site and key), and asserts
    /// they agree; returns the searches the engine ran and whether the
    /// run was cut.
    #[allow(clippy::too_many_arguments)]
    fn assert_lazy_equals_eager(
        lazy: &[Bounded],
        eager: &[Scored],
        universe: usize,
        count: usize,
        ctrl: &Budget,
        nan: Option<fault::FaultPlan>,
        cap: usize,
        ctx: &str,
    ) -> (u64, bool) {
        let (budget, w) = (PatternBudget::new(count, 2, 8), QualityWeights::default());
        let install = || {
            if let Some(plan) = &nan {
                fault::set_plan(*plan);
            }
        };
        par::set_thread_cap(cap);
        install();
        let mut deg = Degradation::new();
        let want = eager_greedy(
            eager.to_vec(),
            universe,
            &budget,
            w,
            "test.lazy",
            ctrl,
            &mut deg,
        );
        let want_deg = format!("{deg:?}");
        install();
        let mut deg = Degradation::new();
        vqi_observe::set_enabled(true);
        let before = vqi_observe::snapshot().counters;
        let got = anytime_greedy(
            lazy.to_vec(),
            universe,
            &budget,
            w,
            "test.lazy",
            ctrl,
            &mut deg,
        );
        let after = vqi_observe::snapshot().counters;
        vqi_observe::set_enabled(false);
        fault::reset();
        par::set_thread_cap(0);
        let (got, want) = (got.expect("not fail-fast"), want.expect("not fail-fast"));
        assert!(got == want, "{ctx}: selection or provenance differs");
        assert_eq!(
            format!("{deg:?}"),
            want_deg,
            "{ctx}: degradation notes differ"
        );
        let searched = |c: &std::collections::BTreeMap<String, u64>| {
            c.get("test.lazy.searched").copied().unwrap_or(0)
        };
        (searched(&after) - searched(&before), !deg.is_empty())
    }

    /// Connected patterns of 1 to 5 edges grown from random edges of
    /// `g`, plus hand-built chains, a tree, a triangle and a star.
    fn sampled_patterns(g: &Graph, seed: u64) -> Vec<Graph> {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let rng = &mut SmallRng::seed_from_u64(seed ^ 0xB0);
        let mut out = vec![
            chain(3, 0, 0),
            chain(4, 0, 1),
            cycle(3, 0, 0),
            star(3, 0, 0),
            GraphBuilder::new()
                .nodes(&[0, 0, 1, 0, 2])
                .edge(0, 1, 0)
                .edge(1, 2, 0)
                .edge(1, 3, 1)
                .edge(3, 4, 0)
                .build(),
        ];
        while out.len() < 24 {
            let size = rng.gen_range(1..=5usize);
            let mut edges = vec![vqi_graph::EdgeId(rng.gen_range(0..g.edge_count() as u32))];
            let mut nodes: Vec<vqi_graph::NodeId> = Vec::new();
            for _ in 0..4 * size {
                if edges.len() == size {
                    break;
                }
                let (u, v) = g.endpoints(*edges.last().expect("nonempty"));
                nodes.extend([u, v]);
                let x = nodes[rng.gen_range(0..nodes.len())];
                let row = g.neighbor_slice(x);
                let (_, e) = row[rng.gen_range(0..row.len())];
                if !edges.contains(&e) {
                    edges.push(e);
                }
            }
            out.push(g.edge_subgraph(&edges).0);
        }
        out
    }

    #[test]
    fn lazy_greedy_equals_the_eager_loop() {
        let _guard = lock();
        let (mut searched, mut bounded, mut cut) = (0u64, 0usize, 0usize);
        for seed in 0..12u64 {
            let g = if seed % 2 == 0 {
                vqi_datasets::dblp_like(160 + 10 * seed as usize, seed)
            } else {
                vqi_datasets::hub_network(seed, 1 + (seed % 3) as u32)
            };
            let idx = GraphIndex::build(&g);
            let patterns = sampled_patterns(&g, seed);
            let bounds = crate::score::edge_coverage_bounds(&patterns, &g, &idx, |p| p);
            let exact = edge_coverage_bitsets(&patterns, &g, &idx, |p| p);
            let cands: Vec<(Graph, BitSet, Option<BitSet>)> = patterns
                .into_iter()
                .zip(bounds)
                .zip(exact)
                .map(|((p, (bound, is_exact)), exact)| {
                    if is_exact {
                        assert_eq!(bound, exact, "seed {seed}: an exact bound is not exact");
                        (p, bound, None)
                    } else {
                        (p, bound, Some(exact))
                    }
                })
                .collect();
            bounded += cands.iter().filter(|c| c.2.is_some()).count();
            let (lazy, eager) = bounded_and_exact(cands);
            let quota = Budget::unlimited().with_kernel_ticks(2);
            for count in [1usize, 3, 5, 10] {
                for cap in [1usize, 4] {
                    let ctx = format!("seed {seed} k {count} cap {cap}");
                    let unlimited = Budget::unlimited();
                    let universe = g.edge_count();
                    let run = |ctrl: &Budget, nan: Option<fault::FaultPlan>, ctx: &str| {
                        assert_lazy_equals_eager(
                            &lazy, &eager, universe, count, ctrl, nan, cap, ctx,
                        )
                    };
                    searched += run(&unlimited, None, &ctx).0;
                    cut += usize::from(run(&quota, None, &format!("{ctx}, 2-tick quota")).1);
                    for rate in [0.3, 1.0] {
                        let plan = fault::FaultPlan {
                            seed,
                            nan_rate: rate,
                            ..Default::default()
                        };
                        run(&unlimited, Some(plan), &format!("{ctx}, NaN rate {rate}"));
                    }
                }
            }
        }
        // the quota cut some runs, and the engine searched for fewer
        // than half the exact coverages the eager loop computed
        assert!(cut > 0, "no run was cut");
        // the eager loop computes every bounded candidate's coverage in
        // each of the 8 unlimited runs per seed
        assert!(
            2 * (searched as usize) < 8 * bounded,
            "{searched} searches for {bounded} bounded candidates"
        );
    }

    #[test]
    fn lazy_pick_breaks_ties_like_the_eager_loop() {
        let _guard = lock();
        // two 3-chains of equal cognitive load with two exact units
        // each: their first-round scores tie whatever the bounds say
        let bits = |ones: &[usize]| {
            let mut b = BitSet::new(8);
            ones.iter().for_each(|&i| b.set(i));
            b
        };
        let (a, b) = (chain(3, 1, 0), chain(3, 2, 0));
        for (loose_first, exact_first) in [(true, false), (false, true), (true, true)] {
            let mut cands = vec![
                (a.clone(), bits(&[0, 1, 2, 3]), Some(bits(&[0, 1]))),
                (b.clone(), bits(&[4, 5]), None),
            ];
            if !loose_first {
                cands.reverse();
            }
            if exact_first {
                // a third candidate, tied on its bound but losing on
                // its exact coverage
                cands.insert(0, (chain(3, 3, 0), bits(&[6, 7]), Some(bits(&[6]))));
            }
            let (lazy, eager) = bounded_and_exact(cands);
            for count in [1usize, 2, 3] {
                let ctx =
                    format!("loose first {loose_first}, exact first {exact_first}, k {count}");
                assert_lazy_equals_eager(
                    &lazy,
                    &eager,
                    8,
                    count,
                    &Budget::unlimited(),
                    None,
                    0,
                    &ctx,
                );
            }
        }
    }

    fn swap_set(graphs: Vec<Graph>) -> PatternSet {
        let mut set = PatternSet::new();
        for g in graphs {
            set.insert(g, PatternKind::Canned, "init").unwrap();
        }
        set
    }

    fn swap_cand(graph: Graph, bits: &[bool]) -> Scored {
        cand(graph, BitSet::from_bools(bits))
    }

    /// Runs the refiner under the test stage name.
    fn refine<C: ScoredPattern>(
        set: &mut PatternSet,
        bitsets: &mut [BitSet],
        cands: Vec<C>,
        scans: usize,
        w: QualityWeights,
    ) -> SwapStats {
        swap_refine(set, bitsets, cands, scans, w, "test.swap")
    }

    /// The swap loop MIDAS ran before the refiner was shared: it
    /// rebuilds the reference vectors for every (candidate, pattern)
    /// pair. The refiner must match it pattern for pattern, bitset for
    /// bitset, counter for counter.
    fn reference_swap(
        patterns: &mut PatternSet,
        pattern_bitsets: &mut [BitSet],
        mut candidates: Vec<Scored>,
        n_graphs: usize,
        scans: usize,
        weights: QualityWeights,
    ) -> SwapStats {
        let mut stats = SwapStats::default();
        if n_graphs == 0 || patterns.is_empty() {
            return stats;
        }
        candidates.retain(|c| !patterns.contains_isomorphic(&c.graph));
        stats.considered = candidates.len();
        for _ in 0..scans {
            stats.scans += 1;
            let mut improved = false;
            let mut any = BitSet::new(n_graphs);
            let mut multi = BitSet::new(n_graphs);
            for b in pattern_bitsets.iter() {
                multi.or_and(&any, b);
                any.union_with(b);
            }
            let once = any.and_not(&multi);
            let sole: Vec<BitSet> = pattern_bitsets.iter().map(|b| b.and(&once)).collect();
            let min_sole = sole.iter().map(BitSet::count_ones).min().unwrap_or(0);
            let dead: Vec<bool> = pattern_bitsets.iter().map(|b| !b.any()).collect();
            let current_score = {
                let graphs: Vec<&Graph> = patterns.graphs().collect();
                let bitsets: Vec<&BitSet> = pattern_bitsets.iter().collect();
                set_score_bitsets(&graphs, &bitsets, n_graphs, weights)
            };
            let mut best: Option<((bool, f64), usize, usize)> = None;
            for (ci, cand) in candidates.iter().enumerate() {
                let cand_cov = cand.coverage.count_ones();
                if cand_cov < min_sole {
                    stats.pruned += 1;
                    continue;
                }
                let gained = cand.coverage.count_and_not(&any);
                for pi in 0..pattern_bitsets.len() {
                    let lost = sole[pi].count_and_not(&cand.coverage);
                    if gained < lost {
                        continue;
                    }
                    let mut graphs: Vec<&Graph> = patterns.graphs().collect();
                    graphs[pi] = &cand.graph;
                    let mut bit_refs: Vec<&BitSet> = pattern_bitsets.iter().collect();
                    bit_refs[pi] = &cand.coverage;
                    let new_score = set_score_bitsets(&graphs, &bit_refs, n_graphs, weights);
                    let key = (dead[pi], new_score);
                    if new_score > current_score + 1e-12 && best.is_none_or(|(k, _, _)| key > k) {
                        best = Some((key, ci, pi));
                    }
                }
            }
            if let Some((_, ci, pi)) = best {
                let cand = candidates.swap_remove(ci);
                if patterns
                    .replace(pi, cand.graph.clone(), cand.provenance())
                    .is_ok()
                {
                    pattern_bitsets[pi] = cand.coverage;
                    stats.swaps += 1;
                    improved = true;
                }
            }
            if !improved {
                break;
            }
        }
        stats
    }

    #[test]
    fn accepts_strictly_better_swap() {
        // pattern A covers 1 of 4 graphs; candidate covers 3 of 4
        let mut set = swap_set(vec![chain(4, 1, 0)]);
        let mut bitsets = vec![BitSet::from_bools(&[true, false, false, false])];
        let cand = swap_cand(star(3, 2, 0), &[true, true, true, false]);
        let stats = refine(
            &mut set,
            &mut bitsets,
            vec![cand],
            3,
            QualityWeights::default(),
        );
        assert_eq!(stats.swaps, 1);
        assert!(set.contains_isomorphic(&star(3, 2, 0)));
        assert_eq!(bitsets[0], BitSet::from_bools(&[true, true, true, false]));
    }

    #[test]
    fn rejects_coverage_shrinking_swap() {
        let mut set = swap_set(vec![chain(4, 1, 0)]);
        let mut bitsets = vec![BitSet::from_bools(&[true, true, false, false])];
        // candidate is more "diverse" but halves coverage
        let cand = swap_cand(cycle(4, 3, 0), &[true, false, false, false]);
        let w = QualityWeights {
            diversity: 10.0, // even huge diversity weight cannot force it
            cognitive: 0.0,
        };
        let stats = refine(&mut set, &mut bitsets, vec![cand], 3, w);
        assert_eq!(stats.swaps, 0);
        assert!(set.contains_isomorphic(&chain(4, 1, 0)));
    }

    #[test]
    fn pruning_skips_hopeless_candidates() {
        let mut set = swap_set(vec![chain(4, 1, 0)]);
        let mut bitsets = vec![BitSet::from_bools(&[true, true, true, true])];
        let cand = swap_cand(cycle(4, 3, 0), &[false, false, false, false]);
        let stats = refine(
            &mut set,
            &mut bitsets,
            vec![cand],
            3,
            QualityWeights::default(),
        );
        assert_eq!(stats.swaps, 0);
        assert!(
            stats.pruned >= 1,
            "zero-coverage candidate should be pruned"
        );
    }

    #[test]
    fn isomorphic_candidates_are_ignored() {
        let mut set = swap_set(vec![chain(4, 1, 0)]);
        let mut bitsets = vec![BitSet::from_bools(&[true, false])];
        let cand = swap_cand(chain(4, 1, 0), &[true, true]);
        let stats = refine(
            &mut set,
            &mut bitsets,
            vec![cand],
            3,
            QualityWeights::default(),
        );
        assert_eq!(stats.considered, 0);
        assert_eq!(stats.swaps, 0);
    }

    /// Two patterns and two candidates that each improve one slot.
    fn two_improving_swaps() -> (PatternSet, Vec<BitSet>, Vec<Scored>) {
        let set = swap_set(vec![chain(4, 1, 0), chain(5, 1, 0)]);
        let bitsets = vec![
            BitSet::from_bools(&[true, false, false, false]),
            BitSet::from_bools(&[true, false, false, false]),
        ];
        let cands = vec![
            swap_cand(star(3, 2, 0), &[true, true, false, false]),
            swap_cand(cycle(4, 3, 0), &[false, false, true, true]),
        ];
        (set, bitsets, cands)
    }

    #[test]
    fn multiple_scans_chain_improvements() {
        let (mut set, mut bitsets, cands) = two_improving_swaps();
        let stats = refine(&mut set, &mut bitsets, cands, 5, QualityWeights::default());
        assert_eq!(stats.swaps, 2, "both improving swaps should land");
        assert!(stats.scans >= 2);
    }

    #[test]
    fn swap_outcome_is_identical_on_a_cold_and_a_warm_kernel_cache() {
        let build = || {
            let (mut set, mut bitsets, cands) = two_improving_swaps();
            let stats = refine(&mut set, &mut bitsets, cands, 5, QualityWeights::default());
            (set, bitsets, stats)
        };
        // the first run computes every MCS term, the second replays
        // them from the memo the first run filled
        vqi_graph::cache::clear();
        let (set_cold, bits_cold, stats_cold) = build();
        let (set_warm, bits_warm, stats_warm) = build();
        assert_eq!(stats_cold, stats_warm);
        assert_eq!(bits_cold, bits_warm);
        assert!(set_cold == set_warm);
    }

    #[test]
    fn a_dead_pattern_is_replaced_even_when_diversity_drops() {
        // A covers graphs 0..3; D (labels A never uses) covers nothing;
        // C, a near copy of A, covers the two graphs A misses
        let (a, d, c) = (chain(5, 1, 0), chain(2, 7, 0), chain(4, 1, 0));
        let mut set = swap_set(vec![a.clone(), d.clone()]);
        let mut bitsets = vec![
            BitSet::from_bools(&[true, true, true, false, false]),
            BitSet::new(5),
        ];
        let cand = swap_cand(c.clone(), &[false, false, false, true, true]);
        let w = QualityWeights::default();
        // were D counted in diversity and cognitive load, the swap
        // would lose: D's full diversity outweighs C's gain
        let with_dead = |q: &Graph, coverage: f64| {
            let div = crate::score::diversity(&[&a, q]);
            let cl = crate::score::mean_cognitive_load([&a, q]);
            combined_score(coverage, div, cl, w)
        };
        assert!(with_dead(&c, 1.0) <= with_dead(&d, 0.6) + 1e-12);
        let stats = refine(&mut set, &mut bitsets, vec![cand], 3, w);
        assert_eq!(stats.swaps, 1, "the dead pattern stayed");
        assert!(set.contains_isomorphic(&c) && !set.contains_isomorphic(&d));
        assert_eq!(
            bitsets[1],
            BitSet::from_bools(&[false, false, false, true, true])
        );
    }

    #[test]
    fn refiner_matches_the_reference_swap_loop() {
        use rand::rngs::SmallRng;
        use rand::seq::SliceRandom;
        use rand::{Rng, SeedableRng};
        let _guard = lock();
        let graphs = patterns();
        let mut totals = SwapStats::default();
        let (mut dead_replaced, mut bounded) = (0, 0);
        vqi_observe::set_enabled(true);
        let searched = || {
            let counters = vqi_observe::snapshot().counters;
            counters.get("test.swap.searched").copied().unwrap_or(0)
        };
        let searched_before = searched();
        for (u, (coverage, universe)) in coverages().into_iter().enumerate() {
            for seed in 1..=12u64 {
                let ctx = format!("universe {u} seed {seed}");
                let mut rng = SmallRng::seed_from_u64(seed * 31 + u as u64);
                // a random subset of each graph's true coverage
                let thin = |b: &BitSet, rng: &mut SmallRng| {
                    let mut out = BitSet::new(universe);
                    for i in b.ones().filter(|_| rng.gen_bool(0.7)) {
                        out.set(i);
                    }
                    out
                };
                let mut order: Vec<usize> = (0..graphs.len()).collect();
                order.shuffle(&mut rng);
                let k = 2 + seed as usize % 3;
                let mut set = PatternSet::new();
                let mut bitsets = Vec::new();
                for &i in &order[..k] {
                    set.insert(graphs[i].clone(), PatternKind::Canned, "init")
                        .unwrap();
                    bitsets.push(thin(&coverage[i], &mut rng));
                }
                // one pattern left occurring nowhere, on two seeds in three
                let dead_slot = seed as usize % k;
                if seed % 3 != 0 {
                    bitsets[dead_slot] = BitSet::new(universe);
                }
                let mut cands: Vec<(Graph, BitSet)> = order[k..]
                    .iter()
                    .map(|&i| (graphs[i].clone(), thin(&coverage[i], &mut rng)))
                    .collect();
                // a duplicate candidate, one isomorphic to a current
                // pattern, and one covering nothing
                cands.push((cands[0].0.clone(), coverage[order[k]].clone()));
                cands.push((graphs[order[0]].clone(), coverage[order[0]].clone()));
                cands.push((graphs[order[k + 1]].clone(), BitSet::new(universe)));
                // every fourth seed, a disconnected candidate covering
                // everything: the best swap, which `replace` refuses
                if seed % 4 == 0 {
                    let mut split = chain(2, 1, 0);
                    let (x, y) = (split.add_node(1), split.add_node(1));
                    split.add_edge(x, y, 0);
                    let mut all = BitSet::new(universe);
                    (0..universe).for_each(|i| all.set(i));
                    cands.push((split, all));
                }
                cands.shuffle(&mut rng);
                let w = if seed % 2 == 0 {
                    QualityWeights::default()
                } else {
                    QualityWeights {
                        diversity: 1.5,
                        cognitive: 0.25,
                    }
                };
                // the same candidates again, most of them as a bound:
                // their coverage plus seeded extra units. A bounded
                // candidate must cover something, so the empty one
                // stays exact
                let cands: Vec<(Graph, BitSet, Option<BitSet>)> = cands
                    .into_iter()
                    .map(|(graph, exact)| {
                        if !exact.any() || rng.gen_bool(0.25) {
                            return (graph, exact, None);
                        }
                        let mut bound = exact.clone();
                        for i in (0..universe).filter(|_| rng.gen_bool(0.3)) {
                            bound.set(i);
                        }
                        (graph, bound, Some(exact))
                    })
                    .collect();
                let (lazy, eager) = bounded_and_exact(cands);
                // the bounded candidates the refiner considers
                bounded += lazy
                    .iter()
                    .filter(|c| c.exact.is_some() && !set.contains_isomorphic(c.graph()))
                    .count();

                let (mut want_set, mut want_bits) = (set.clone(), bitsets.clone());
                let want =
                    reference_swap(&mut want_set, &mut want_bits, eager.clone(), universe, 4, w);
                // exact candidates: every stat is the reference's
                let (mut got_set, mut got_bits) = (set.clone(), bitsets.clone());
                let got = refine(&mut got_set, &mut got_bits, eager, 4, w);
                assert_eq!(got, want, "{ctx}: stats");
                assert_eq!(got_bits, want_bits, "{ctx}: bitsets");
                assert!(got_set == want_set, "{ctx}: patterns");
                // bounded candidates: the same swaps; one never resolved
                // is pruned only if its bound fails the sole-coverage test
                let lazy_got = refine(&mut set, &mut bitsets, lazy, 4, w);
                let pruned = lazy_got.pruned;
                assert_eq!(
                    SwapStats { pruned, ..want },
                    lazy_got,
                    "{ctx}: bounded stats"
                );
                assert!(pruned <= want.pruned, "{ctx}: bounded pruned {pruned}");
                assert_eq!(bitsets, want_bits, "{ctx}: bounded bitsets");
                assert!(set == want_set, "{ctx}: bounded patterns");
                if seed % 3 != 0 {
                    dead_replaced += usize::from(bitsets[dead_slot].any());
                }
                totals.swaps += got.swaps;
                totals.pruned += got.pruned;
            }
        }
        let searched = searched() - searched_before;
        vqi_observe::set_enabled(false);
        assert!(totals.swaps > 0 && totals.pruned > 0, "{totals:?}");
        assert!(dead_replaced > 0, "no dead pattern was replaced");
        assert!(
            (searched as usize) < bounded,
            "{searched} searches for {bounded} bounded candidates considered"
        );
    }

    #[test]
    fn stage_name_keys_the_swap_counters() {
        let _guard = lock();
        let (mut set, mut bitsets, cands) = two_improving_swaps();
        vqi_observe::set_enabled(true);
        let w = QualityWeights::default();
        let stats = swap_refine(&mut set, &mut bitsets, cands, 5, w, "test.keyed.swap");
        let counters = vqi_observe::snapshot().counters;
        vqi_observe::set_enabled(false);
        assert_eq!(counters["test.keyed.swap.accepted"], stats.swaps as u64);
        assert_eq!(counters["test.keyed.swap.considered"], 2);
        assert_eq!(counters["test.keyed.swap.pruned"], stats.pruned as u64);
        assert_eq!(counters["test.keyed.swap.scans"], stats.scans as u64);
        // exact candidates are never searched
        assert_eq!(counters["test.keyed.swap.searched"], 0);
    }
}
