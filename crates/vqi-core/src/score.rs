//! Coverage, diversity, and cognitive-load measures for pattern sets.
//!
//! The tutorial (§2.3) names three desiderata for canned patterns and all
//! three are quantified here:
//!
//! * **coverage** — a pattern `p` covers a graph `G` if `G` contains a
//!   subgraph isomorphic to `p`; a set should cover as much of the
//!   repository as possible. For collections we measure the fraction of
//!   data graphs covered by at least one pattern; for networks the
//!   fraction of edges touched by some embedding of some pattern.
//!   Network coverage starts from one closed form
//!   ([`vqi_graph::star::CoverageBounds`], via
//!   [`edge_coverage_bounds`]): a bound on every pattern's covered
//!   edges, with no search. It is exact for stars (every 1- and 2-edge
//!   pattern is one) and empty when no embedding exists; both are
//!   final. Every other pattern, and any pattern when the pattern or
//!   the network carries a wildcard label, is matched by VF2 under
//!   [`coverage_match_options`]' caps; on a hub-heavy network such a
//!   search can stop early and then reports only the edges of the
//!   embeddings it reached first (counted as `kernel.iso.truncated`).
//!   [`edge_coverage_bitsets`] searches every pattern the bounds leave
//!   open. TATTOO scores candidates on the bounds and searches only
//!   the few that can still win a greedy round.
//! * **diversity** — patterns should be structurally diverse:
//!   `div(P) = 1 − mean pairwise MCS similarity`.
//! * **cognitive load** — a per-pattern effort estimate that grows with
//!   size and connectedness: `cl(p) = ½·min(1, n/12) + ½·min(1, d̄/6)`
//!   where `n` is the node count and `d̄` the average degree. Basic
//!   patterns score low; hairballs score near 1.
//!
//! The combined *pattern set score* is
//! `coverage + w_div · diversity − w_cog · mean cognitive load`, the form
//! maximized greedily by CATAPULT and TATTOO and preserved by MIDAS.

use crate::bitset::BitSet;
use crate::pattern::PatternSet;
use crate::repo::{GraphCollection, GraphEntry, GraphRepository};
use vqi_graph::cache;
use vqi_graph::canon::{canonical_code, CanonicalCode};
use vqi_graph::index::GraphIndex;
use vqi_graph::iso::{is_subgraph_isomorphic, MatchOptions, PatternPlan};
use vqi_graph::par;
use vqi_graph::star::{CoverageBounds, Star};
use vqi_graph::Graph;

/// Matching options used for coverage: non-induced, wildcard-aware (basic
/// patterns and CSG-derived patterns carry wildcards), bounded.
pub fn coverage_match_options() -> MatchOptions {
    MatchOptions {
        induced: false,
        wildcard: true,
        max_embeddings: 10_000,
        max_states: 2_000_000,
    }
}

/// Weights for the combined score.
#[derive(Debug, Clone, Copy)]
pub struct QualityWeights {
    /// Weight of the diversity term.
    pub diversity: f64,
    /// Weight of the cognitive-load penalty.
    pub cognitive: f64,
}

impl Default for QualityWeights {
    fn default() -> Self {
        QualityWeights {
            diversity: 0.5,
            cognitive: 0.5,
        }
    }
}

/// The combined pattern-set score shared by every selector and
/// maintainer: `coverage + w_div · diversity − w_cog · cognitive load`.
/// This is the single definition of the formula; CATAPULT, TATTOO,
/// MIDAS, and the modular pipeline all route through it.
pub fn combined_score(
    coverage: f64,
    diversity: f64,
    cognitive_load: f64,
    w: QualityWeights,
) -> f64 {
    coverage + w.diversity * diversity - w.cognitive * cognitive_load
}

/// Full set score from pattern graphs and their coverage bitsets over
/// `total` repository units: [`quality_bitsets`]'s score.
pub fn set_score_bitsets(
    patterns: &[&Graph],
    bitsets: &[&BitSet],
    total: usize,
    w: QualityWeights,
) -> f64 {
    quality_bitsets(patterns, bitsets, total, w).score
}

/// Quality of pattern graphs from their coverage bitsets over `total`
/// repository units (data graphs of a collection, or edges of a
/// network). A pattern whose bitset is empty occurs nowhere and is
/// scored as absent: it adds neither diversity nor cognitive load, so
/// no diversity credit keeps it in a maintained set. The live patterns
/// keep their order. An empty repository or a set with no live pattern
/// scores 0 in every field — the unified empty-repository convention
/// (previously TATTOO divided by `total.max(1)` while its greedy loop
/// returned early, giving empty repositories two different scores).
pub fn quality_bitsets(
    patterns: &[&Graph],
    bitsets: &[&BitSet],
    total: usize,
    w: QualityWeights,
) -> QualityReport {
    let live: Vec<&Graph> = patterns
        .iter()
        .zip(bitsets)
        .filter(|(_, b)| b.any())
        .map(|(&g, _)| g)
        .collect();
    if total == 0 || live.is_empty() {
        return QualityReport::default();
    }
    let mut union = BitSet::new(total);
    for b in bitsets {
        union.union_with(b);
    }
    let coverage = union.count_ones() as f64 / total as f64;
    let div = diversity(&live);
    let cl = mean_cognitive_load(live.iter().copied());
    QualityReport {
        coverage,
        diversity: div,
        cognitive_load: cl,
        score: combined_score(coverage, div, cl, w),
    }
}

/// Cognitive load of a single pattern, in `[0, 1]`.
pub fn cognitive_load(p: &Graph) -> f64 {
    let n = p.node_count() as f64;
    if n == 0.0 {
        return 0.0;
    }
    let avg_deg = 2.0 * p.edge_count() as f64 / n;
    0.5 * (n / 12.0).min(1.0) + 0.5 * (avg_deg / 6.0).min(1.0)
}

/// Mean cognitive load of a set of pattern graphs (0 for an empty set).
pub fn mean_cognitive_load<'a, I: IntoIterator<Item = &'a Graph>>(patterns: I) -> f64 {
    let loads: Vec<f64> = patterns.into_iter().map(cognitive_load).collect();
    if loads.is_empty() {
        0.0
    } else {
        loads.iter().sum::<f64>() / loads.len() as f64
    }
}

/// Structural diversity of a set of pattern graphs: `1 − mean pairwise
/// MCS similarity`. Sets with at most one pattern are maximally diverse.
pub fn diversity(patterns: &[&Graph]) -> f64 {
    let k = patterns.len();
    if k <= 1 {
        return 1.0;
    }
    // canonical codes are cheap for pattern-sized graphs and turn the
    // quadratic MCS bill into cache hits across repeated evaluations.
    // At most k(k − 1)/2 pairs of a pattern set: forking workers for
    // them costs more than the lookups, so the loop stays on this
    // thread and sums in pair order
    let codes: Vec<CanonicalCode> = patterns.iter().map(|g| canonical_code(g)).collect();
    let sum: f64 = (0..k)
        .flat_map(|i| ((i + 1)..k).map(move |j| (i, j)))
        .map(|(i, j)| cache::mcs_similarity_cached(patterns[i], &codes[i], patterns[j], &codes[j]))
        .sum();
    1.0 - sum / (k * (k - 1) / 2) as f64
}

/// True if pattern `p` covers data graph `g`.
pub fn covers(p: &Graph, g: &Graph) -> bool {
    is_subgraph_isomorphic(p, g, coverage_match_options())
}

/// True if the compiled pattern covers a collection entry, matched
/// through the entry's stored index.
fn plan_covers(plan: &PatternPlan, entry: &GraphEntry) -> bool {
    plan.is_subgraph_of(entry.graph(), Some(entry.index()), coverage_match_options())
}

/// The live entries of `collection`, in [`GraphCollection::ids`] order.
fn live_entries(collection: &GraphCollection) -> Vec<&GraphEntry> {
    collection.entries().map(|(_, e)| e).collect()
}

/// Coverage bitsets of `patterns` over the live graphs of `collection`:
/// bit `i` of `out[k]` is set iff `patterns[k]` covers the graph at
/// position `i` of [`GraphCollection::ids`]. `pattern` yields each
/// item's graph, which is compiled once and matched through each
/// graph's stored index.
pub fn coverage_bitsets<T: Sync>(
    patterns: &[T],
    collection: &GraphCollection,
    pattern: impl Fn(&T) -> &Graph + Sync,
) -> Vec<BitSet> {
    let entries = live_entries(collection);
    par::map(patterns, |item| {
        let plan = PatternPlan::new(pattern(item));
        let mut bits = BitSet::new(entries.len());
        for (pos, entry) in entries.iter().enumerate() {
            if plan_covers(&plan, entry) {
                bits.set(pos);
            }
        }
        bits
    })
}

/// The closed form of `pattern`'s edge coverage on the network `idx`
/// indexes, if it has one: a star [`Star::of`] accepts, on a network
/// without wildcard labels. These are the patterns whose
/// [`CoverageBounds`] bound is exact, so the TATTOO network maintainer,
/// which patches such a star's coverage per edge, routes by the rule
/// [`edge_coverage_bitsets`] follows.
pub fn coverage_star(pattern: &Graph, idx: &GraphIndex) -> Option<Star> {
    if idx.fingerprint().has_wildcard() {
        return None;
    }
    Star::of(pattern)
}

/// Covered-edge bitsets of `patterns` over `network`: bit `e` of
/// `out[k]` is set iff some embedding of `patterns[k]` uses edge `e`.
/// Each pattern is first bounded by [`edge_coverage_bounds`]. An exact
/// bound (a star, decided in O(V + E) with no search) is the answer,
/// and so is an empty one, which proves that no embedding exists. Any
/// other pattern is matched by [`capped_edge_coverage`], whose caps can
/// stop the search early: the bitset then holds the edges of the
/// embeddings visited first, a prefix of the answer, and
/// `kernel.iso.truncated` counts the cut. `idx` must be built from
/// this exact `network`; it serves every search.
pub fn edge_coverage_bitsets<T: Sync>(
    patterns: &[T],
    network: &Graph,
    idx: &GraphIndex,
    pattern: impl Fn(&T) -> &Graph + Sync,
) -> Vec<BitSet> {
    let bounds = edge_coverage_bounds(patterns, network, idx, &pattern);
    let searched = par::map_range(patterns.len(), |k| {
        let (bound, exact) = &bounds[k];
        (!exact && bound.any()).then(|| capped_edge_coverage(pattern(&patterns[k]), network, idx))
    });
    bounds
        .into_iter()
        .zip(searched)
        .map(|((bound, _), searched)| searched.unwrap_or(bound))
        .collect()
}

/// The covered-edge bitset of `pattern` over `network` from a VF2
/// search under [`coverage_match_options`]: what
/// [`edge_coverage_bitsets`] reports for a pattern whose bound is
/// neither exact nor empty. A search the caps stop early yields the
/// edges of the embeddings it reached first and counts
/// `kernel.iso.truncated`.
pub fn capped_edge_coverage(pattern: &Graph, network: &Graph, idx: &GraphIndex) -> BitSet {
    let plan = PatternPlan::new(pattern);
    let mut bits = BitSet::new(network.edge_count());
    for e in plan.covered_edges(network, Some(idx), coverage_match_options()) {
        bits.set(e.index());
    }
    bits
}

/// Upper bounds on the covered-edge bitsets of `patterns` over
/// `network`, each paired with whether it is exact. `out[k].0` holds
/// every edge that some embedding of `patterns[k]` can use (the
/// star-consistency bound of [`CoverageBounds`]), so it contains what
/// [`edge_coverage_bitsets`] reports, whether or not the search is
/// capped. It is empty only if no embedding exists. `out[k].1` is
/// [`CoverageBounds::is_exact`]: true when the bound equals that
/// report, as it does for every pattern [`coverage_star`] accepts. The
/// bounds cost one pass over the network's rows and a scan of each
/// pattern's edge types, with no search. On a network carrying a
/// wildcard label every bound would be the whole edge set, so there
/// each pattern's [`capped_edge_coverage`] comes back instead, flagged
/// exact. `idx` must be built from this exact `network`.
pub fn edge_coverage_bounds<T: Sync>(
    patterns: &[T],
    network: &Graph,
    idx: &GraphIndex,
    pattern: impl Fn(&T) -> &Graph + Sync,
) -> Vec<(BitSet, bool)> {
    if idx.fingerprint().has_wildcard() {
        return par::map(patterns, |item| {
            (capped_edge_coverage(pattern(item), network, idx), true)
        });
    }
    let bounds = CoverageBounds::new(network, idx, patterns.iter().map(&pattern));
    par::map_range(patterns.len(), |k| {
        let bits = BitSet::from_words(network.edge_count(), bounds.bound_words(k));
        (bits, bounds.is_exact(k))
    })
}

/// Fraction of live collection graphs containing `p`.
pub fn pattern_coverage(p: &Graph, collection: &GraphCollection) -> f64 {
    let entries = live_entries(collection);
    if entries.is_empty() {
        return 0.0;
    }
    let plan = PatternPlan::new(p);
    let covered = par::map(&entries, |entry| plan_covers(&plan, entry));
    let hits = covered.iter().filter(|&&c| c).count();
    hits as f64 / entries.len() as f64
}

vqi_observe::json_record! {
    /// A full quality evaluation of a pattern set.
    #[derive(Debug, Clone, Copy, Default)]
    pub struct QualityReport {
        /// Repository coverage in `[0, 1]`.
        pub coverage: f64,
        /// Structural diversity in `[0, 1]`.
        pub diversity: f64,
        /// Mean cognitive load in `[0, 1]`.
        pub cognitive_load: f64,
        /// Combined score under the weights used.
        pub score: f64,
    }
}

/// Evaluates the canned patterns of `set` against `repo`.
pub fn evaluate(
    set: &PatternSet,
    repo: &GraphRepository,
    weights: QualityWeights,
) -> QualityReport {
    let graphs: Vec<&Graph> = set.canned().map(|p| &p.graph).collect();
    evaluate_graphs(&graphs, repo, weights)
}

/// Evaluates raw pattern graphs against `repo`: their coverage
/// bitsets (graph positions of a collection, edge ids of a network)
/// scored by [`quality_bitsets`], the score every maintainer keeps.
///
/// ```
/// use vqi_core::repo::GraphRepository;
/// use vqi_core::score::{evaluate_graphs, QualityWeights};
/// use vqi_graph::generate::{chain, cycle};
///
/// let repo = GraphRepository::collection(vec![chain(5, 1, 0), cycle(4, 1, 0)]);
/// let p = chain(3, 1, 0);
/// let report = evaluate_graphs(&[&p], &repo, QualityWeights::default());
/// assert_eq!(report.coverage, 1.0); // the 3-chain occurs in both graphs
/// ```
pub fn evaluate_graphs(
    patterns: &[&Graph],
    repo: &GraphRepository,
    weights: QualityWeights,
) -> QualityReport {
    let (bitsets, total) = match repo {
        GraphRepository::Collection(c) => (coverage_bitsets(patterns, c, |p| *p), c.len()),
        GraphRepository::Network(g) => {
            let idx = GraphIndex::build(g);
            let bitsets = edge_coverage_bitsets(patterns, g, &idx, |p| *p);
            (bitsets, g.edge_count())
        }
    };
    let refs: Vec<&BitSet> = bitsets.iter().collect();
    quality_bitsets(patterns, &refs, total, weights)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::PatternKind;
    use vqi_graph::generate::{chain, clique, cycle, star};
    use vqi_graph::iso::MatchOptions;

    fn collection() -> GraphCollection {
        GraphCollection::new(vec![
            chain(5, 1, 0),
            cycle(4, 1, 0),
            star(4, 1, 0),
            clique(4, 2, 0),
        ])
    }

    #[test]
    fn cognitive_load_ordering() {
        let edge = chain(2, 0, 0);
        let tri = cycle(3, 0, 0);
        let k6 = clique(6, 0, 0);
        let cl_edge = cognitive_load(&edge);
        let cl_tri = cognitive_load(&tri);
        let cl_k6 = cognitive_load(&k6);
        assert!(cl_edge < cl_tri, "{cl_edge} < {cl_tri}");
        assert!(cl_tri < cl_k6, "{cl_tri} < {cl_k6}");
        assert!((0.0..=1.0).contains(&cl_k6));
        assert_eq!(cognitive_load(&Graph::new()), 0.0);
    }

    #[test]
    fn diversity_extremes() {
        let a = chain(4, 1, 0);
        let b = chain(4, 1, 0);
        assert!(diversity(&[&a, &b]).abs() < 1e-12, "identical patterns");
        let c = clique(4, 9, 9);
        assert!(
            (diversity(&[&a, &c]) - 1.0).abs() < 1e-12,
            "disjoint labels"
        );
        assert_eq!(diversity(&[&a]), 1.0);
        assert_eq!(diversity(&[]), 1.0);
    }

    #[test]
    fn pattern_coverage_counts_graphs() {
        let col = collection();
        // a 1-labeled edge occurs in the first three graphs
        let edge = chain(2, 1, 0);
        assert!((pattern_coverage(&edge, &col) - 0.75).abs() < 1e-12);
        // a triangle of label 2 occurs only in the clique
        let tri = cycle(3, 2, 0);
        assert!((pattern_coverage(&tri, &col) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn set_coverage_collection_unions() {
        let col = collection();
        let edge1 = chain(2, 1, 0);
        let tri2 = cycle(3, 2, 0);
        let repo = GraphRepository::Collection(col);
        let coverage =
            |ps: &[&Graph]| evaluate_graphs(ps, &repo, QualityWeights::default()).coverage;
        assert!((coverage(&[&edge1, &tri2]) - 1.0).abs() < 1e-12);
        assert_eq!(coverage(&[]), 0.0);
    }

    #[test]
    fn wildcard_basic_patterns_cover_everything() {
        let repo = GraphRepository::Collection(collection());
        let basics = crate::pattern::default_basic_patterns();
        let graphs: Vec<&Graph> = basics.graphs().collect();
        let q = evaluate_graphs(&graphs, &repo, QualityWeights::default());
        assert!((q.coverage - 1.0).abs() < 1e-12);
    }

    #[test]
    fn network_coverage_counts_edges() {
        // K4 with a pendant chain of 2 edges
        let mut g = clique(4, 1, 0);
        let a = g.add_node(1);
        let b = g.add_node(1);
        g.add_edge(vqi_graph::NodeId(0), a, 0);
        g.add_edge(a, b, 0);
        let tri = cycle(3, 1, 0);
        // triangles cover the 6 clique edges out of 8
        let repo = GraphRepository::Network(g);
        let cov = evaluate_graphs(&[&tri], &repo, QualityWeights::default()).coverage;
        assert!((cov - 6.0 / 8.0).abs() < 1e-12, "got {cov}");
    }

    #[test]
    fn edge_coverage_bitsets_match_plain_covered_edges() {
        // K4 with a pendant chain, as above, plus a labeled spur
        let mut g = clique(4, 1, 0);
        let a = g.add_node(1);
        let b = g.add_node(2);
        g.add_edge(vqi_graph::NodeId(0), a, 0);
        g.add_edge(a, b, 3);
        let patterns = [
            cycle(3, 1, 0),
            chain(2, 1, 0),
            chain(3, 1, 0),
            star(3, 7, 0),
        ];
        let idx = GraphIndex::build(&g);
        let bits = edge_coverage_bitsets(&patterns, &g, &idx, |p| p);
        for (p, b) in patterns.iter().zip(&bits) {
            let want = vqi_graph::iso::covered_edges(p, &g, coverage_match_options());
            let got: Vec<usize> = b.ones().collect();
            assert_eq!(got, want.iter().map(|e| e.index()).collect::<Vec<_>>());
        }
        // the star of an absent label covers nothing
        assert!(!bits[3].any());
    }

    /// Stars read off `g`: up to 3 leaves drawn from the row of a hub or
    /// of a random node, plus the all-label-0 3-leaf star.
    fn sampled_stars(g: &Graph, seed: u64, hubs: u32) -> Vec<Graph> {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let rng = &mut SmallRng::seed_from_u64(seed ^ 0x5A);
        let mut stars = vec![star(3, 0, 0)];
        while stars.len() < 8 {
            let x = if rng.gen_bool(0.5) {
                vqi_graph::NodeId(rng.gen_range(0..hubs))
            } else {
                vqi_graph::NodeId(rng.gen_range(0..g.node_count() as u32))
            };
            let row = g.neighbor_slice(x);
            let k = rng.gen_range(1..=3usize);
            if row.len() < k {
                continue;
            }
            let mut p = Graph::new();
            let c = p.add_node(g.node_label(x));
            let mut picked = Vec::new();
            while picked.len() < k {
                let i = rng.gen_range(0..row.len());
                if !picked.contains(&i) {
                    picked.push(i);
                    let (y, e) = row[i];
                    let leaf = p.add_node(g.node_label(y));
                    p.add_edge(c, leaf, g.edge_label(e));
                }
            }
            stars.push(p);
        }
        stars
    }

    #[test]
    fn star_coverage_equals_uncapped_enumeration() {
        let uncapped = MatchOptions {
            max_embeddings: usize::MAX,
            max_states: u64::MAX,
            ..coverage_match_options()
        };
        let (mut cases, mut truncated) = (0, 0);
        for seed in 0..12u64 {
            let hubs = 1 + (seed % 3) as u32;
            let g = vqi_datasets::hub_network(seed, hubs);
            let idx = GraphIndex::build(&g);
            let stars = sampled_stars(&g, seed, hubs);
            let bits = edge_coverage_bitsets(&stars, &g, &idx, |p| p);
            for (p, b) in stars.iter().zip(&bits) {
                let ctx = format!("seed {seed}, star of {} edges", p.edge_count());
                assert!(coverage_star(p, &idx).is_some(), "{ctx}");
                let want = vqi_graph::iso::covered_edges(p, &g, uncapped);
                let got: Vec<usize> = b.ones().collect();
                assert_eq!(
                    got,
                    want.iter().map(|e| e.index()).collect::<Vec<_>>(),
                    "{ctx}"
                );
                let capped =
                    PatternPlan::new(p)
                        .enumerate(&g, Some(&idx), coverage_match_options(), |_| true);
                cases += 1;
                truncated += usize::from(!capped.complete);
            }
        }
        // the capped search stops early on some of these stars: the
        // closed form is what makes them exact
        assert!(truncated > 0, "no capped search truncated in {cases} cases");
        // more leaves of one type than the bounds' `u8` tallies count: no
        // 300-leaf star fits a 260-leaf hub, though a saturated tally
        // lets the hub host it
        let (wide, hub) = (star(300, 1, 0), star(260, 1, 0));
        let idx = GraphIndex::build(&hub);
        assert!(vqi_graph::iso::covered_edges(&wide, &hub, uncapped).is_empty());
        assert!(!edge_coverage_bitsets(&[&wide], &hub, &idx, |p| *p)[0].any());
        let (bound, exact) = &edge_coverage_bounds(&[&wide], &hub, &idx, |p| *p)[0];
        assert!(!exact, "{} edges flagged exact", bound.count_ones());
        // a wildcard label on either side sends a star to the search
        let mut wild = vqi_datasets::hub_network(1, 1);
        wild.add_node(vqi_graph::WILDCARD_LABEL);
        assert!(coverage_star(&star(2, 0, 0), &GraphIndex::build(&wild)).is_none());
        let idx = GraphIndex::build(&vqi_datasets::hub_network(1, 1));
        assert!(coverage_star(&star(2, vqi_graph::WILDCARD_LABEL, 0), &idx).is_none());
    }

    #[test]
    fn a_capped_chain_search_counts_its_truncation() {
        let _guard = crate::test_lock();
        // a hub of 150 leaves, each with a pendant: 44 700 embeddings of
        // the 3-edge chain run through the hub, past the 10 000 cap
        let mut g = star(150, 1, 0);
        for leaf in 1..=150 {
            let pendant = g.add_node(1);
            g.add_edge(vqi_graph::NodeId(leaf), pendant, 0);
        }
        let idx = GraphIndex::build(&g);
        let chain3 = chain(4, 1, 0);
        assert!(coverage_star(&chain3, &idx).is_none());
        let truncations = || {
            vqi_observe::snapshot()
                .counters
                .get("kernel.iso.truncated")
                .copied()
                .unwrap_or(0)
        };
        vqi_observe::set_enabled(true);
        let before = truncations();
        let bits = edge_coverage_bitsets(&[&chain3], &g, &idx, |p| *p);
        let after = truncations();
        vqi_observe::set_enabled(false);
        assert!(bits[0].any());
        assert!(after > before, "kernel.iso.truncated stayed at {before}");
    }

    #[test]
    fn evaluate_combines_terms() {
        let repo = GraphRepository::Collection(collection());
        let mut set = PatternSet::new();
        set.insert(chain(2, 1, 0), PatternKind::Canned, "t")
            .unwrap();
        set.insert(cycle(3, 2, 0), PatternKind::Canned, "t")
            .unwrap();
        let w = QualityWeights::default();
        let r = evaluate(&set, &repo, w);
        assert!((r.coverage - 1.0).abs() < 1e-12);
        assert!(r.diversity > 0.9);
        assert!(r.cognitive_load > 0.0);
        let expected = r.coverage + w.diversity * r.diversity - w.cognitive * r.cognitive_load;
        assert!((r.score - expected).abs() < 1e-12);
    }

    #[test]
    fn dead_patterns_score_as_absent() {
        let (a, b, dead) = (chain(4, 1, 0), star(3, 2, 0), cycle(5, 3, 0));
        let (bits_a, bits_b) = (
            BitSet::from_bools(&[true, true, false, false]),
            BitSet::from_bools(&[false, true, true, false]),
        );
        let none = BitSet::new(4);
        let w = QualityWeights::default();
        let live = set_score_bitsets(&[&a, &b], &[&bits_a, &bits_b], 4, w);
        let with_dead = set_score_bitsets(&[&a, &dead, &b], &[&bits_a, &none, &bits_b], 4, w);
        assert_eq!(with_dead.to_bits(), live.to_bits());
        assert_eq!(set_score_bitsets(&[&dead], &[&none], 4, w), 0.0);
    }

    #[test]
    fn evaluate_scores_dead_patterns_as_absent_in_both_universes() {
        // label 9 occurs in no graph, so `dead` covers nothing
        let (a, b, dead) = (chain(3, 1, 0), clique(3, 2, 0), cycle(4, 9, 0));
        let w = QualityWeights::default();
        let network = GraphRepository::Network(chain(6, 1, 0));
        for repo in [GraphRepository::Collection(collection()), network] {
            let live = evaluate_graphs(&[&a, &b], &repo, w);
            let with_dead = evaluate_graphs(&[&a, &dead, &b], &repo, w);
            assert_eq!(with_dead.score.to_bits(), live.score.to_bits());
            assert_eq!(with_dead.diversity.to_bits(), live.diversity.to_bits());
            assert_eq!(evaluate_graphs(&[&dead], &repo, w).score, 0.0);
        }
    }

    #[test]
    fn coverage_bitsets_index_live_positions() {
        let mut col = collection();
        // drop the chain: positions shift past the hole in the ids
        col.apply(crate::repo::BatchUpdate::removing(vec![0]));
        let edge1 = chain(2, 1, 0);
        let tri2 = cycle(3, 2, 0);
        let pairs = [&edge1, &tri2];
        let bits = coverage_bitsets(&pairs, &col, |p| *p);
        // live ids 1..=3 are the cycle, the star and the clique
        assert_eq!(bits[0].ones().collect::<Vec<_>>(), vec![0, 1]);
        assert_eq!(bits[1].ones().collect::<Vec<_>>(), vec![2]);
        for (p, b) in pairs.iter().zip(&bits) {
            let want: Vec<bool> = col.iter().map(|(_, g)| covers(p, g)).collect();
            let got: Vec<bool> = (0..b.len()).map(|i| b.get(i)).collect();
            assert_eq!(want, got);
        }
    }
}
