//! Maximum common edge subgraph (MCS) and graph similarity.
//!
//! Pattern-set *diversity* is measured through pairwise pattern
//! similarity, which CATAPULT/TATTOO define via the maximum common
//! subgraph: `sim(a, b) = |E(mcs(a, b))| / max(|E(a)|, |E(b)|)`.
//!
//! The search is a McGregor-style branch-and-bound over partial node
//! mappings with an optimistic remaining-edge bound and a state budget:
//! within the budget the result is exact; once the budget is exhausted
//! the best mapping found so far is returned (a lower bound on the true
//! MCS), which keeps the measure well-defined and fast on adversarial
//! inputs. Patterns in practice have ≤ 15 nodes, where the search is
//! exact.
//!
//! ## Bound-and-skip
//!
//! The greedy selection loops only ever ask "is `sim(a, b)` larger than
//! the running maximum `m` I already have?" — the exact value below `m`
//! is irrelevant because it disappears into `max(m, sim)`.
//! [`mcs_similarity_bounded`] exploits that: it first compares the
//! fingerprint upper bound ([`mcs_edge_upper_bound`]) against the
//! threshold (skipping the search entirely when the bound cannot beat
//! it), and otherwise seeds the branch-and-bound with the threshold as
//! initial incumbent so every branch that cannot beat the threshold is
//! cut. The returned value is **exact whenever it exceeds the
//! threshold**, and otherwise some value `<= min_useful` — which makes
//! `max(m, mcs_similarity_bounded(a, b, m))` bit-identical to
//! `max(m, mcs_similarity(a, b))`.

use crate::graph::{Graph, Label, NodeId};
use crate::index::{mcs_edge_upper_bound, Fingerprint};
use vqi_runtime::{Budget, Meter, VqiError};

struct McsSearch<'a> {
    a: &'a Graph,
    b: &'a Graph,
    order: Vec<NodeId>,
    /// b-side node ids grouped by label (ids ascending within a label) —
    /// candidate enumeration touches only label-compatible nodes, in the
    /// same relative order as the naive all-nodes scan.
    b_buckets: &'a [(Label, Vec<NodeId>)],
    map: Vec<u32>,
    used_b: Vec<bool>,
    best: usize,
    budget: u64,
    /// optional budget meter, ticked once per search node
    meter: Option<Meter>,
    /// set when the meter trips; the search unwinds via `budget = 0`
    abort: Option<VqiError>,
}

impl<'a> McsSearch<'a> {
    /// Number of a-edges from `v` into the already-mapped prefix that are
    /// preserved under mapping `v -> t`.
    fn gained(&self, v: NodeId, t: NodeId) -> usize {
        let mut gain = 0;
        for (q, ae) in self.a.neighbors(v) {
            let tq = self.map[q.index()];
            if tq == u32::MAX {
                continue;
            }
            if let Some(be) = self.b.edge_between(t, NodeId(tq)) {
                if self.a.edge_label(ae) == self.b.edge_label(be) {
                    gain += 1;
                }
            }
        }
        gain
    }

    fn search(&mut self, depth: usize, common: usize, remaining_possible: usize) {
        if self.budget == 0 {
            return;
        }
        self.budget -= 1;
        if let Some(m) = &mut self.meter {
            if let Err(e) = m.tick() {
                self.abort = Some(e);
                // zeroing the budget short-circuits the rest of the tree
                self.budget = 0;
                return;
            }
        }
        if common > self.best {
            self.best = common;
        }
        if depth == self.order.len() || common + remaining_possible <= self.best {
            return;
        }
        let v = self.order[depth];
        // edges from v into the not-yet-decided suffix still count toward
        // the optimistic bound after this depth; edges from v into the
        // prefix are decided now.
        let v_prefix_edges = self
            .a
            .neighbors(v)
            .filter(|(q, _)| self.map[q.index()] != u32::MAX)
            .count();
        let next_remaining = remaining_possible - v_prefix_edges;
        // try mapping v to each unused b-node of the same label
        let buckets = self.b_buckets;
        let bucket_idx = buckets.binary_search_by_key(&self.a.node_label(v), |&(bl, _)| bl);
        if let Ok(bi) = bucket_idx {
            for &t in &buckets[bi].1 {
                if self.used_b[t.index()] {
                    continue;
                }
                let gain = self.gained(v, t);
                self.map[v.index()] = t.0;
                self.used_b[t.index()] = true;
                self.search(depth + 1, common + gain, next_remaining);
                self.used_b[t.index()] = false;
                self.map[v.index()] = u32::MAX;
            }
        }
        // or leave v unmapped
        self.search(depth + 1, common, next_remaining);
    }
}

/// Core search shared by the exact, seeded, and budget-aware entry
/// points. `seed` is an initial incumbent: branches that cannot
/// strictly beat it are cut, and the returned value is
/// `max(seed, best mapping found)`. A tripped `meter` aborts with the
/// error instead.
fn mcs_edge_count_full(
    a: &Graph,
    b: &Graph,
    budget: u64,
    seed: usize,
    meter: Option<Meter>,
) -> Result<usize, VqiError> {
    // search from the smaller graph for a shallower tree
    let (a, b) = if a.node_count() <= b.node_count() {
        (a, b)
    } else {
        (b, a)
    };
    if a.edge_count() == 0 || b.edge_count() == 0 {
        return Ok(seed);
    }
    // order a's nodes by degree descending: high-impact decisions first
    let mut order: Vec<NodeId> = a.nodes().collect();
    order.sort_by_key(|&v| std::cmp::Reverse(a.degree(v)));
    // b-side label buckets, sorted by label, ids ascending within each
    let mut pairs: Vec<(Label, NodeId)> = b.nodes().map(|v| (b.node_label(v), v)).collect();
    pairs.sort_unstable_by_key(|&(l, v)| (l, v.0));
    let mut b_buckets: Vec<(Label, Vec<NodeId>)> = Vec::new();
    for (l, v) in pairs {
        match b_buckets.last_mut() {
            Some((last, bucket)) if *last == l => bucket.push(v),
            _ => b_buckets.push((l, vec![v])),
        }
    }
    let mut s = McsSearch {
        a,
        b,
        order,
        b_buckets: &b_buckets,
        map: vec![u32::MAX; a.node_count()],
        used_b: vec![false; b.node_count()],
        best: seed,
        budget,
        meter,
        abort: None,
    };
    s.search(0, 0, a.edge_count());
    match s.abort {
        Some(e) => Err(e),
        None => Ok(s.best),
    }
}

/// See [`mcs_edge_count_full`]; without a meter the search cannot abort.
fn mcs_edge_count_seeded(a: &Graph, b: &Graph, budget: u64, seed: usize) -> usize {
    mcs_edge_count_full(a, b, budget, seed, None).unwrap_or(seed)
}

/// Budget-aware [`mcs_edge_count`]: a [`Meter`] from `ctrl` is ticked
/// once per branch-and-bound node. A deterministic tick quota trips at
/// the same node on every run; a deadline or cancellation is observed
/// within [`vqi_runtime::ctrl::POLL_INTERVAL`] nodes. With an
/// unlimited budget the result equals [`mcs_edge_count`] exactly.
pub fn mcs_edge_count_ctrl(a: &Graph, b: &Graph, ctrl: &Budget) -> Result<usize, VqiError> {
    mcs_edge_count_full(a, b, DEFAULT_MCS_BUDGET, 0, Some(ctrl.meter("kernel.mcs")))
}

/// Budget-aware [`mcs_similarity`]; see [`mcs_edge_count_ctrl`].
pub fn mcs_similarity_ctrl(a: &Graph, b: &Graph, ctrl: &Budget) -> Result<f64, VqiError> {
    let denom = a.edge_count().max(b.edge_count());
    if denom == 0 {
        return Ok(0.0);
    }
    Ok(mcs_edge_count_ctrl(a, b, ctrl)? as f64 / denom as f64)
}

/// Size (in edges) of the maximum common edge subgraph of `a` and `b`
/// under exact label matching, searched with the given state budget.
pub fn mcs_edge_count_budgeted(a: &Graph, b: &Graph, budget: u64) -> usize {
    mcs_edge_count_seeded(a, b, budget, 0)
}

/// The default branch-and-bound budget (exact for pattern-sized graphs).
pub const DEFAULT_MCS_BUDGET: u64 = 2_000_000;

/// [`mcs_edge_count_budgeted`] with the default budget (exact for
/// pattern-sized graphs).
pub fn mcs_edge_count(a: &Graph, b: &Graph) -> usize {
    mcs_edge_count_budgeted(a, b, DEFAULT_MCS_BUDGET)
}

/// MCS-based similarity in `[0, 1]`:
/// `|E(mcs)| / max(|E(a)|, |E(b)|)`; 0 when either graph has no edges.
pub fn mcs_similarity(a: &Graph, b: &Graph) -> f64 {
    let denom = a.edge_count().max(b.edge_count());
    if denom == 0 {
        return 0.0;
    }
    mcs_edge_count(a, b) as f64 / denom as f64
}

/// Largest common-edge count `k` with `k/denom <= min_useful` under f64
/// division — the safe branch-and-bound seed for threshold `min_useful`.
fn seed_for(min_useful: f64, denom: usize) -> usize {
    let mut seed = ((min_useful * denom as f64).floor().max(0.0) as usize).min(denom);
    while seed > 0 && seed as f64 / denom as f64 > min_useful {
        seed -= 1;
    }
    while seed < denom && (seed + 1) as f64 / denom as f64 <= min_useful {
        seed += 1;
    }
    seed
}

/// [`mcs_similarity`] with a usefulness threshold, plus whether the
/// returned value is exact. See [`mcs_similarity_bounded`].
pub(crate) fn mcs_similarity_bounded_detail(a: &Graph, b: &Graph, min_useful: f64) -> (f64, bool) {
    if !min_useful.is_finite() || min_useful <= 0.0 {
        return (mcs_similarity(a, b), true);
    }
    let denom = a.edge_count().max(b.edge_count());
    if denom == 0 {
        return (0.0, true);
    }
    let seed = seed_for(min_useful, denom);
    if seed >= denom {
        // nothing can beat the threshold: sim <= 1 <= min_useful
        vqi_observe::incr("kernel.mcs.skip_fingerprint", 1);
        return (min_useful.min(1.0), false);
    }
    let ub = mcs_edge_upper_bound(&Fingerprint::of(a), &Fingerprint::of(b));
    if ub <= seed {
        // the common edge count cannot exceed the seed: no search at all
        vqi_observe::incr("kernel.mcs.skip_fingerprint", 1);
        return ((ub as f64 / denom as f64).min(min_useful), false);
    }
    let best = mcs_edge_count_seeded(a, b, DEFAULT_MCS_BUDGET, seed);
    if best > seed {
        (best as f64 / denom as f64, true)
    } else {
        // the seeded search concluded the true value is <= the threshold
        vqi_observe::incr("kernel.mcs.pruned", 1);
        ((seed as f64 / denom as f64).min(min_useful), false)
    }
}

/// [`mcs_similarity`] for callers that only care about values above a
/// threshold: the result is **exact whenever it is `> min_useful`** and
/// otherwise some value `<= min_useful`, so
/// `max(m, mcs_similarity_bounded(a, b, m)) == max(m, mcs_similarity(a, b))`
/// bit-for-bit. Skipped searches are counted as
/// `kernel.mcs.skip_fingerprint` (fingerprint bound decided without
/// searching) and `kernel.mcs.pruned` (seeded search concluded below the
/// threshold).
pub fn mcs_similarity_bounded(a: &Graph, b: &Graph, min_useful: f64) -> f64 {
    mcs_similarity_bounded_detail(a, b, min_useful).0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::{assign_labels, chain, clique, cycle, erdos_renyi, star};
    use crate::graph::GraphBuilder;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn random_graph(n: usize, p: f64, nl: u32, el: u32, seed: u64) -> Graph {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut g = erdos_renyi(n, p, 0, &mut rng);
        assign_labels(&mut g, nl, el, &mut rng);
        g
    }

    #[test]
    fn identical_graphs_share_everything() {
        let g = cycle(5, 1, 2);
        assert_eq!(mcs_edge_count(&g, &g), 5);
        assert!((mcs_similarity(&g, &g) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn disjoint_labels_share_nothing() {
        let a = chain(4, 1, 0);
        let b = chain(4, 2, 0);
        assert_eq!(mcs_edge_count(&a, &b), 0);
        assert_eq!(mcs_similarity(&a, &b), 0.0);
    }

    #[test]
    fn chain_in_cycle() {
        let a = chain(4, 0, 0); // 3 edges
        let b = cycle(6, 0, 0);
        assert_eq!(mcs_edge_count(&a, &b), 3);
        assert!((mcs_similarity(&a, &b) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn star_vs_triangle() {
        let a = star(3, 0, 0); // claw
        let b = clique(3, 0, 0);
        // best common subgraph: a path of 2 edges
        assert_eq!(mcs_edge_count(&a, &b), 2);
    }

    #[test]
    fn edge_labels_constrain() {
        let a = GraphBuilder::new()
            .nodes(&[0, 0, 0])
            .edge(0, 1, 1)
            .edge(1, 2, 2)
            .build();
        let b = GraphBuilder::new()
            .nodes(&[0, 0, 0])
            .edge(0, 1, 1)
            .edge(1, 2, 3)
            .build();
        assert_eq!(mcs_edge_count(&a, &b), 1);
    }

    #[test]
    fn empty_graphs() {
        let e = crate::graph::Graph::new();
        let g = cycle(3, 0, 0);
        assert_eq!(mcs_edge_count(&e, &g), 0);
        assert_eq!(mcs_similarity(&e, &e), 0.0);
    }

    #[test]
    fn symmetric() {
        let a = star(4, 0, 0);
        let b = cycle(5, 0, 0);
        assert_eq!(mcs_edge_count(&a, &b), mcs_edge_count(&b, &a));
        assert_eq!(mcs_similarity(&a, &b), mcs_similarity(&b, &a));
    }

    #[test]
    fn subgraph_relation_gives_full_smaller_size() {
        // triangle inside K5
        let t = clique(3, 0, 0);
        let k = clique(5, 0, 0);
        assert_eq!(mcs_edge_count(&t, &k), 3);
    }

    #[test]
    fn seeded_search_returns_max_of_seed_and_truth() {
        let a = chain(4, 0, 0); // true MCS with b is 3
        let b = cycle(6, 0, 0);
        assert_eq!(mcs_edge_count_seeded(&a, &b, 2_000_000, 0), 3);
        assert_eq!(mcs_edge_count_seeded(&a, &b, 2_000_000, 2), 3);
        // a seed at/above the truth is returned unchanged
        assert_eq!(mcs_edge_count_seeded(&a, &b, 2_000_000, 3), 3);
        assert_eq!(mcs_edge_count_seeded(&a, &b, 2_000_000, 5), 5);
    }

    #[test]
    fn bounded_fold_is_bit_identical_to_exact_fold() {
        let graphs: Vec<Graph> = (0..8u64)
            .map(|i| random_graph(5 + (i as usize) % 3, 0.5, 2, 2, 40 + i))
            .chain([chain(4, 1, 0), cycle(5, 1, 0), star(4, 1, 0)])
            .collect();
        for i in 0..graphs.len() {
            for j in 0..graphs.len() {
                let exact = mcs_similarity(&graphs[i], &graphs[j]);
                for m in [0.0, 0.1, 0.25, 0.5, exact, 0.9, 1.0] {
                    let bounded = mcs_similarity_bounded(&graphs[i], &graphs[j], m);
                    assert_eq!(
                        f64::max(m, bounded),
                        f64::max(m, exact),
                        "pair ({i},{j}) threshold {m}"
                    );
                    if exact > m {
                        assert_eq!(bounded, exact, "exact-above-threshold pair ({i},{j})");
                    } else {
                        assert!(bounded <= m, "skip must stay below threshold ({i},{j})");
                    }
                }
            }
        }
    }

    #[test]
    fn ctrl_with_unlimited_budget_matches_plain() {
        let b = Budget::unlimited();
        for i in 0..6u64 {
            let g = random_graph(6, 0.5, 2, 2, 100 + i);
            let h = random_graph(7, 0.4, 2, 2, 200 + i);
            assert_eq!(
                mcs_edge_count(&g, &h),
                mcs_edge_count_ctrl(&g, &h, &b).unwrap()
            );
            assert_eq!(
                mcs_similarity(&g, &h),
                mcs_similarity_ctrl(&g, &h, &b).unwrap()
            );
        }
    }

    #[test]
    fn mcs_tick_quota_trips_deterministically() {
        let g = random_graph(8, 0.6, 1, 1, 5);
        let h = random_graph(8, 0.6, 1, 1, 6);
        let run = || {
            let b = Budget::unlimited().with_kernel_ticks(50);
            mcs_edge_count_ctrl(&g, &h, &b)
        };
        let a = run();
        let b2 = run();
        assert_eq!(a, b2, "same quota must trip identically");
        assert!(matches!(a, Err(VqiError::QuotaExceeded { .. })));
    }

    #[test]
    fn seed_for_is_the_largest_useless_count() {
        for denom in [1usize, 3, 7, 10, 97] {
            for t in [0.0, 0.1, 1.0 / 3.0, 0.5, 0.999, 1.0] {
                let s = seed_for(t, denom);
                assert!(s as f64 / denom as f64 <= t);
                if s < denom {
                    assert!((s + 1) as f64 / denom as f64 > t);
                }
            }
        }
    }
}
