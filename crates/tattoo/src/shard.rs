//! Sharded TATTOO for massive networks (§2.5, "Data-driven VQIs for
//! massive networks").
//!
//! The tutorial's scaling direction assumes graphs too large for
//! single-pass processing and calls for a distributed framework. This
//! is the map/reduce decomposition of TATTOO, executed on a thread pool
//! as a stand-in for a cluster (the substitution preserves what runs
//! where, which is what the direction is about; see DESIGN.md §3):
//!
//! * the network is any [`GraphStorage`] (heap `Graph` or the compact
//!   [`CsrGraph`](vqi_graph::storage::CsrGraph), possibly loaded from a
//!   disk image), accessed only through the trait;
//! * shards are **contiguous node-id ranges** — free to compute, and on
//!   generator-built networks (where clique blocks occupy consecutive
//!   ids) locality-preserving;
//! * the **map** phase (induced subgraph → truss split → shape-typed
//!   extraction) runs per shard on the reusable [`ShardExecutor`] under
//!   the `tattoo.shard` prefix, followed by a global dedup by canonical
//!   code in shard order. The sampling budget is divided across shards,
//!   so the total extraction work matches whole-graph TATTOO's;
//! * the **score** phase copies the network it matches against onto
//!   the heap once ([`prefix_graph_of`], which keeps the network's ids
//!   and edge order), builds one [`GraphIndex`] of it, and bounds every
//!   candidate's coverage with [`score_candidates`], as whole-network
//!   TATTOO does. With `score_shards == parts` (the default) the copy
//!   is the whole network, id for id, so edges that join two shards
//!   count and every coverage equals whole-network TATTOO's on either
//!   backend. With fewer, the copy is the node-id prefix the leading
//!   `score_shards` shards cover — an approximation that bounds scoring
//!   cost on huge networks — and coverage is normalized by the prefix's
//!   edge count, the universe its candidates are scored over;
//! * the **reduce** is the standard anytime greedy (`tattoo.greedy`)
//!   over the copy's edges, which searches exact coverage only for the
//!   candidates that can still win a round.
//!
//! A panicked map shard, or a panicked score phase, is retried up to
//! `retries` times; a map shard that exhausts its retries is dropped
//! deterministically, and a score phase that does selects nothing. Either
//! is recorded as a degradation by [`ShardedTattoo::run_ctrl`] (or
//! returned as `Err` under a fail-fast budget). The map consumes shard results
//! in shard order and the score phase works on a heap copy, so the
//! selection is bit-identical across storage backends and thread caps —
//! the same contract the truss and graphlet kernels keep.

use crate::candidates::{extract_from_region, Candidate, ExtractParams};
use crate::pipeline::TattooConfig;
use crate::select::{greedy_select_ctrl, score_candidates};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::cell::OnceCell;
use std::ops::Range;
use vqi_core::budget::PatternBudget;
use vqi_core::ctrl::{Budget, Degradation, PipelineOutcome};
use vqi_core::pattern::PatternSet;
use vqi_graph::index::GraphIndex;
use vqi_graph::par::ShardExecutor;
use vqi_graph::storage::{induced_subgraph_of, prefix_graph_of, GraphStorage};
use vqi_graph::truss::decompose;
use vqi_graph::{Graph, NodeId};
use vqi_runtime::{fault, VqiError};

/// Sharded TATTOO over any storage backend.
#[derive(Debug, Clone, Copy)]
pub struct ShardedTattoo {
    /// Base configuration (truss threshold, weights, seed).
    pub config: TattooConfig,
    /// Number of node-range shards for the map phase.
    pub parts: usize,
    /// How many leading shards the coverage scoring materializes. Equal
    /// to `parts` (the default) to score against the whole network,
    /// cross-shard edges included; smaller for an approximation that
    /// bounds scoring cost on huge networks.
    pub score_shards: usize,
    /// Retries per panicked shard before it is dropped from the run.
    pub retries: u32,
    /// Base backoff before a retry; attempt `n` waits `2^(n−1)` times
    /// this. Zero disables the wait.
    pub retry_backoff_ms: u64,
}

impl ShardedTattoo {
    /// A sharded selector with `parts` shards, whole-network coverage
    /// (`score_shards == parts`), and the default retry policy (one
    /// retry, 5 ms base backoff).
    pub fn new(config: TattooConfig, parts: usize) -> Self {
        assert!(parts >= 1, "need at least one shard");
        ShardedTattoo {
            config,
            parts,
            score_shards: parts,
            retries: 1,
            retry_backoff_ms: 5,
        }
    }

    /// Caps coverage scoring to the first `n` shards (clamped to ≥ 1).
    pub fn with_score_shards(mut self, n: usize) -> Self {
        self.score_shards = n.max(1);
        self
    }

    /// The shard harness: `tattoo.shard.*` metrics with this selector's
    /// retry policy.
    fn executor(&self) -> ShardExecutor {
        ShardExecutor::new("tattoo.shard", self.retries, self.retry_backoff_ms)
    }

    /// Splits node ids into at most `parts` contiguous ranges of equal
    /// size (the last may be short). Pure arithmetic — no traversal, no
    /// per-node state — so sharding a 100M-edge network is free.
    pub fn shard_ranges<S: GraphStorage + ?Sized>(&self, g: &S) -> Vec<Range<u32>> {
        let n = g.node_count() as u32;
        if n == 0 {
            return Vec::new();
        }
        let chunk = (n as usize).div_ceil(self.parts).max(1) as u32;
        let mut ranges = Vec::with_capacity(self.parts);
        let mut start = 0u32;
        while start < n {
            let end = start.saturating_add(chunk).min(n);
            ranges.push(start..end);
            start = end;
        }
        ranges
    }

    /// The network the score phase matches against, as one heap copy
    /// with the network's ids and edge order ([`prefix_graph_of`]): all
    /// of it when every shard is scored, else the node-id prefix the
    /// leading `score_shards` shards cover.
    fn score_network<S: GraphStorage + ?Sized>(&self, g: &S) -> Graph {
        let leading = self.shard_ranges(g);
        let end = leading
            .get(self.score_shards.saturating_sub(1))
            .map_or(g.node_count(), |r| r.end as usize);
        prefix_graph_of(g, end)
    }

    /// The map phase under an unlimited budget (see the module docs).
    pub fn map_candidates<S: GraphStorage + ?Sized>(
        &self,
        g: &S,
        budget: &PatternBudget,
    ) -> Vec<Candidate> {
        let mut deg = Degradation::new();
        self.map_ctrl(g, budget, &Budget::unlimited(), &mut deg)
            .unwrap_or_default()
    }

    /// Map phase body. Shards that exhaust their retries are dropped
    /// (`tattoo.shard.dropped`) and recorded in `deg`; the candidate
    /// pool shrinks and the run carries on.
    fn map_ctrl<S: GraphStorage + ?Sized>(
        &self,
        g: &S,
        budget: &PatternBudget,
        ctrl: &Budget,
        deg: &mut Degradation,
    ) -> Result<Vec<Candidate>, VqiError> {
        let _s = vqi_observe::span("tattoo.shard.map");
        if let Err(e) = ctrl.check("tattoo.shard.map") {
            deg.absorb(ctrl, e)?;
            return Ok(Vec::new());
        }
        let ranges = self.shard_ranges(g);
        let per_part = ExtractParams {
            samples_per_size: (self.config.extract.samples_per_size / ranges.len().max(1)).max(4),
        };
        let per_shard = self.executor().run_shards(ranges.len(), |pi| {
            let nodes: Vec<NodeId> = ranges[pi].clone().map(NodeId).collect();
            let (sub, _) = induced_subgraph_of(g, &nodes);
            let mut rng = SmallRng::seed_from_u64(self.config.seed ^ (pi as u64));
            let d = decompose(&sub, self.config.truss_k);
            let (gt, _) = d.infested_graph(&sub);
            let (go, _) = d.oblivious_graph(&sub);
            let mut cands = extract_from_region(&gt, true, budget, per_part, &mut rng);
            cands.extend(extract_from_region(&go, false, budget, per_part, &mut rng));
            vqi_observe::incr("tattoo.shard.candidates", cands.len() as u64);
            cands
        });
        let mut seen = std::collections::HashSet::new();
        let mut all: Vec<Candidate> = Vec::new();
        for shard in per_shard {
            match shard {
                Ok(cands) => {
                    for c in cands {
                        if seen.insert(c.code.clone()) {
                            all.push(c);
                        }
                    }
                }
                Err(e) => {
                    vqi_observe::incr("tattoo.shard.dropped", 1);
                    deg.absorb(ctrl, e)?;
                }
            }
        }
        vqi_observe::incr("tattoo.shard.deduped", all.len() as u64);
        Ok(all)
    }

    /// The score phase and the reduce under an unlimited budget (see
    /// the module docs): `candidates` bounded over the scored network,
    /// then the greedy over its edges.
    pub fn reduce<S: GraphStorage + ?Sized>(
        &self,
        g: &S,
        candidates: Vec<Candidate>,
        budget: &PatternBudget,
    ) -> PatternSet {
        let mut deg = Degradation::new();
        self.reduce_ctrl(g, candidates, budget, &Budget::unlimited(), &mut deg)
            .unwrap_or_default()
    }

    /// Body of [`ShardedTattoo::reduce`]. The copy, its index and the
    /// bounds run as one retried body (fault site `tattoo.shard.score`);
    /// a budget cut before scoring, or a body that exhausts its retries,
    /// selects nothing and is recorded in `deg`.
    fn reduce_ctrl<S: GraphStorage + ?Sized>(
        &self,
        g: &S,
        candidates: Vec<Candidate>,
        budget: &PatternBudget,
        ctrl: &Budget,
        deg: &mut Degradation,
    ) -> Result<PatternSet, VqiError> {
        let span = vqi_observe::span("tattoo.shard.score");
        if candidates.is_empty() {
            return Ok(PatternSet::new());
        }
        // a retry rebuilds only what the failed attempt did not finish
        let (network, index) = (OnceCell::new(), OnceCell::new());
        let scored = ctrl.check("tattoo.shard.score").and_then(|()| {
            self.executor().retrying("tattoo.shard.score", || {
                fault::maybe_panic("tattoo.shard.score", 0);
                let network = network.get_or_init(|| self.score_network(g));
                let index = index.get_or_init(|| GraphIndex::build(network));
                score_candidates(candidates.clone(), network, index)
            })
        });
        drop(span);
        let scored = match scored {
            Ok(scored) => scored,
            Err(e) => {
                deg.absorb(ctrl, e)?;
                return Ok(PatternSet::new());
            }
        };
        greedy_select_ctrl(
            scored,
            network.get().map_or(0, Graph::edge_count),
            budget,
            self.config.weights,
            ctrl,
            deg,
        )
    }

    /// Runs the sharded pipeline: map over all shards, score, then the
    /// standard greedy selection over the scored network's edges.
    pub fn run<S: GraphStorage + ?Sized>(&self, g: &S, budget: &PatternBudget) -> PatternSet {
        self.run_ctrl(g, budget, &Budget::unlimited())
            .map(|out| out.value)
            .unwrap_or_default()
    }

    /// Budget-aware sharded pipeline: shards are panic-isolated with
    /// bounded retry, a shard that exhausts its retries becomes a
    /// degradation record, and the greedy is anytime. When nothing
    /// trips, the outcome is `Complete` and bit-identical to
    /// [`ShardedTattoo::run`]. `Err` is returned only under a fail-fast
    /// budget.
    pub fn run_ctrl<S: GraphStorage + ?Sized>(
        &self,
        g: &S,
        budget: &PatternBudget,
        ctrl: &Budget,
    ) -> Result<PipelineOutcome<PatternSet>, VqiError> {
        let mut deg = Degradation::new();
        let candidates = self.map_ctrl(g, budget, ctrl, &mut deg)?;
        let set = self.reduce_ctrl(g, candidates, budget, ctrl, &mut deg)?;
        Ok(deg.finish(set))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::select::{BoundedCandidate, ScoredCandidate};
    use crate::topology::classify;
    use crate::Tattoo;
    use vqi_core::repo::GraphRepository;
    use vqi_core::score::{coverage_star, edge_coverage_bitsets};
    use vqi_core::score::{evaluate, QualityWeights};
    use vqi_datasets::dblp_like;
    use vqi_graph::canon::canonical_code;
    use vqi_graph::storage::CsrGraph;
    use vqi_graph::traversal::is_connected;
    use vqi_graph::EdgeId;

    fn codes_in_order(set: &PatternSet) -> Vec<vqi_graph::canon::CanonicalCode> {
        set.patterns().iter().map(|p| p.code.clone()).collect()
    }

    /// The score phase's candidates over `sel`'s score network of `g`,
    /// with their exact coverage.
    fn score_over_shards<S: GraphStorage + ?Sized>(
        sel: &ShardedTattoo,
        g: &S,
        cands: Vec<Candidate>,
    ) -> Vec<ScoredCandidate> {
        let network = sel.score_network(g);
        let index = GraphIndex::build(&network);
        score_candidates(cands, &network, &index)
            .into_iter()
            .map(BoundedCandidate::resolve)
            .collect()
    }

    /// Installs a fault plan and removes it on drop, so a failing
    /// assertion cannot leak the plan into other tests.
    struct PlanGuard;
    fn with_plan(plan: vqi_runtime::fault::FaultPlan) -> PlanGuard {
        vqi_runtime::fault::set_plan(plan);
        PlanGuard
    }
    impl Drop for PlanGuard {
        fn drop(&mut self) {
            vqi_runtime::fault::reset();
        }
    }

    fn fast_selector() -> ShardedTattoo {
        let mut sel = ShardedTattoo::new(TattooConfig::default(), 4);
        sel.retry_backoff_ms = 0; // keep the fault tests instant
        sel
    }

    #[test]
    fn shard_ranges_cover_all_nodes_disjointly() {
        let net = dblp_like(157, 1);
        for parts in [1usize, 3, 8, 200] {
            let sel = ShardedTattoo::new(TattooConfig::default(), parts);
            let ranges = sel.shard_ranges(&net);
            let mut all: Vec<u32> = ranges.iter().flat_map(|r| r.clone()).collect();
            all.sort_unstable();
            assert_eq!(all.len(), net.node_count(), "parts {parts}");
            assert!(all.windows(2).all(|w| w[1] == w[0] + 1), "parts {parts}");
        }
    }

    #[test]
    fn sharded_selection_matches_heap_backend() {
        let _guard = crate::fault_test_lock();
        for seed in 0..12u64 {
            let net = dblp_like(120, seed);
            let csr = CsrGraph::from_graph(&net);
            let budget = PatternBudget::new(4, 4, 6);
            let exact = ShardedTattoo::new(TattooConfig::default(), 3);
            for sel in [exact, exact.with_score_shards(2)] {
                let reference = codes_in_order(&sel.run(&net, &budget));
                for cap in [1usize, 2, 4] {
                    vqi_graph::par::set_thread_cap(cap);
                    let heap = codes_in_order(&sel.run(&net, &budget));
                    let packed = codes_in_order(&sel.run(&csr, &budget));
                    vqi_graph::par::set_thread_cap(0);
                    let s = sel.score_shards;
                    assert_eq!(reference, heap, "seed {seed} score {s} cap {cap}: heap");
                    assert_eq!(reference, packed, "seed {seed} score {s} cap {cap}: CSR");
                }
            }
        }
    }

    /// The only pipeline whose spans open on `par` workers
    /// (`ShardExecutor::run_shard`): the journal must parent them under
    /// the forking span, so its span tree and event multiset are the
    /// same at every thread cap.
    #[test]
    fn observability_is_identical_across_thread_counts() {
        let _guard = crate::fault_test_lock();
        let net = dblp_like(300, 3);
        let budget = PatternBudget::new(4, 3, 5);
        let sel = ShardedTattoo::new(TattooConfig::default(), 4);
        let at = |cap: usize| {
            vqi_graph::par::set_thread_cap(cap);
            let aggregates = vqi_observe::invariant_aggregates(|| drop(sel.run(&net, &budget)));
            vqi_graph::par::set_thread_cap(0);
            aggregates
        };
        let one = at(1);
        let shard = "tattoo.shard.map/tattoo.shard.shard".to_string();
        assert!(
            one.0.contains(&(shard, 4)),
            "shard spans must nest under the map span: {:?}",
            one.0
        );
        assert!(one.1.values().sum::<u64>() > 0, "no journal events");
        for cap in [2, 4] {
            assert_eq!(at(cap), one, "cap {cap} changed the observability output");
        }
    }

    #[test]
    fn sharded_selection_contract_holds() {
        let _guard = crate::fault_test_lock();
        let net = dblp_like(400, 2);
        let csr = CsrGraph::from_graph(&net);
        let budget = PatternBudget::new(5, 4, 6);
        let set = ShardedTattoo::new(TattooConfig::default(), 4).run(&csr, &budget);
        assert!(!set.is_empty());
        for p in set.patterns() {
            assert!(budget.admits(&p.graph));
            assert!(is_connected(&p.graph));
        }
    }

    #[test]
    fn exact_scoring_covers_edges_that_cross_shards() {
        let _guard = crate::fault_test_lock();
        // chain a - a - b - b cut into shards {0, 1} and {2, 3}: the only
        // a-b edge joins the two shards
        let mut net = Graph::new();
        let nodes: Vec<NodeId> = [1, 1, 2, 2].iter().map(|&l| net.add_node(l)).collect();
        for w in nodes.windows(2) {
            net.add_edge(w[0], w[1], 0);
        }
        let mut edge = Graph::new();
        let (a, b) = (edge.add_node(1), edge.add_node(2));
        edge.add_edge(a, b, 0);
        let cand = Candidate {
            class: classify(&edge),
            code: canonical_code(&edge),
            graph: edge,
            from_truss_region: false,
        };
        let sel = ShardedTattoo::new(TattooConfig::default(), 2);
        assert_eq!(sel.shard_ranges(&net), vec![0..2, 2..4]);
        let csr = CsrGraph::from_graph(&net);
        for scored in [
            score_over_shards(&sel, &net, vec![cand.clone()]),
            score_over_shards(&sel, &csr, vec![cand.clone()]),
        ] {
            assert_eq!(scored.len(), 1, "cross-shard embedding not covered");
            assert_eq!(scored[0].covered.ones().collect::<Vec<_>>(), vec![1]);
        }
        // the leading-shards approximation never sees the cut edge
        let approx = score_over_shards(&sel.with_score_shards(1), &net, vec![cand]);
        assert!(approx.is_empty());
    }

    #[test]
    fn whole_network_scoring_equals_edge_coverage_bitsets() {
        let _guard = crate::fault_test_lock();
        let (mut stars, mut compared) = (0, 0);
        for seed in 1..=3u64 {
            let net = dblp_like(250, seed);
            let csr = CsrGraph::from_graph(&net);
            let budget = PatternBudget::new(5, 3, 6);
            let sel = ShardedTattoo::new(TattooConfig::default(), 4);
            let cands = sel.map_candidates(&net, &budget);
            let idx = GraphIndex::build(&net);
            let want = edge_coverage_bitsets(&cands, &net, &idx, |c| &c.graph);
            let heap = score_over_shards(&sel, &net, cands.clone());
            let packed = score_over_shards(&sel, &csr, cands.clone());
            let mut scored = heap.iter().zip(&packed);
            // the score network is the network id for id, so even a
            // capped search that stops early reports the same edges
            for (c, want) in cands.iter().zip(want) {
                if !want.any() {
                    continue;
                }
                let (h, p) = scored.next().expect("a scored candidate per covering one");
                assert!(h.candidate.code == c.code && p.candidate.code == c.code);
                assert_eq!(h.covered, want, "seed {seed}: heap");
                assert_eq!(p.covered, want, "seed {seed}: CSR");
                stars += usize::from(coverage_star(&c.graph, &idx).is_some());
                compared += 1;
            }
            assert!(
                scored.next().is_none(),
                "seed {seed}: extra scored candidates"
            );
        }
        assert!(stars > 0 && compared > stars, "{stars} stars of {compared}");
    }

    #[test]
    fn leading_shard_scoring_covers_only_scored_shards() {
        let _guard = crate::fault_test_lock();
        let net = dblp_like(200, 6);
        let budget = PatternBudget::new(4, 4, 6);
        let sel = ShardedTattoo::new(TattooConfig::default(), 4).with_score_shards(2);
        let inside = sel.shard_ranges(&net)[1].end;
        // the score network is the node-id prefix of the two leading
        // shards with every network edge among them
        let scored_net = sel.score_network(&net);
        assert_eq!(scored_net.node_count(), inside as usize);
        let within = |(u, v): (NodeId, NodeId)| u.0 < inside && v.0 < inside;
        let inner = net.edges().filter(|&e| within(net.endpoints(e))).count();
        assert_eq!(scored_net.edge_count(), inner);
        let scored = score_over_shards(&sel, &net, sel.map_candidates(&net, &budget));
        assert!(!scored.is_empty());
        for s in &scored {
            assert_eq!(s.covered.len(), inner, "coverage over the scored edges");
            for e in s.covered.ones().map(|e| EdgeId(e as u32)) {
                // node ids are kept, so the covered edge is the network's
                let (u, v) = scored_net.endpoints(e);
                let original = net.edge_between(u, v).expect("a network edge");
                assert!(within(net.endpoints(original)), "edge {e:?} outside");
                assert_eq!(net.edge_label(original), scored_net.edge_label(e));
            }
        }
    }

    #[test]
    fn ctrl_with_unlimited_budget_matches_plain() {
        let _guard = crate::fault_test_lock();
        let net = dblp_like(300, 5);
        let budget = PatternBudget::new(5, 4, 6);
        let sel = ShardedTattoo::new(TattooConfig::default(), 4);
        let plain = sel.run(&net, &budget);
        let out = sel
            .run_ctrl(&net, &budget, &Budget::unlimited())
            .expect("unlimited budget cannot fail");
        assert!(out.completeness.is_complete());
        assert_eq!(codes_in_order(&plain), codes_in_order(&out.value));
    }

    #[test]
    fn crashed_shards_are_retried_to_a_complete_result() {
        let _guard = crate::fault_test_lock();
        let net = dblp_like(300, 5);
        let csr = CsrGraph::from_graph(&net);
        let budget = PatternBudget::new(5, 4, 6);
        let sel = fast_selector();
        let plain = codes_in_order(&sel.run(&net, &budget));
        // every shard crashes exactly once; one retry each recovers the
        // full, bit-identical result on either backend at any cap
        for seed in [1u64, 2] {
            for cap in [1usize, 2, 4] {
                for packed in [false, true] {
                    let _plan = with_plan(vqi_runtime::fault::FaultPlan {
                        seed,
                        panic_rate: 1.0,
                        ..Default::default()
                    });
                    vqi_graph::par::set_thread_cap(cap);
                    let out = if packed {
                        sel.run_ctrl(&csr, &budget, &Budget::unlimited())
                    } else {
                        sel.run_ctrl(&net, &budget, &Budget::unlimited())
                    }
                    .expect("not fail-fast");
                    vqi_graph::par::set_thread_cap(0);
                    assert!(
                        out.completeness.is_complete(),
                        "seed {seed} cap {cap}: one retry must recover every shard"
                    );
                    assert_eq!(plain, codes_in_order(&out.value), "seed {seed} cap {cap}");
                }
            }
        }
    }

    #[test]
    fn injected_stragglers_are_reexecuted_identically() {
        let _guard = crate::fault_test_lock();
        let net = dblp_like(300, 5);
        let budget = PatternBudget::new(5, 4, 6);
        let sel = fast_selector();
        let plain = codes_in_order(&sel.run(&net, &budget));
        // a straggler signal on every shard forces speculative
        // re-execution; the shard closures are pure, so the candidates
        // are unchanged
        let _plan = with_plan(vqi_runtime::fault::FaultPlan {
            seed: 7,
            timeout_rate: 1.0,
            ..Default::default()
        });
        let out = sel
            .run_ctrl(&net, &budget, &Budget::unlimited())
            .expect("not fail-fast");
        // the timeout plan also fires on the greedy rounds, so the tail
        // of the selection may be cut — but whatever was selected must
        // be a prefix of the plain selection
        let got = codes_in_order(&out.value);
        assert_eq!(
            &plain[..got.len()],
            &got[..],
            "degraded set must be a prefix"
        );
    }

    #[test]
    fn exhausted_retries_drop_shards_deterministically() {
        let _guard = crate::fault_test_lock();
        let net = dblp_like(300, 5);
        let budget = PatternBudget::new(5, 4, 6);
        let mut sel = fast_selector();
        sel.retries = 0; // permanent worker failure: first crash drops the shard
        for seed in [1u64, 2] {
            let mut runs = Vec::new();
            for cap in [1usize, 2, 4] {
                let _plan = with_plan(vqi_runtime::fault::FaultPlan {
                    seed,
                    panic_rate: 1.0,
                    ..Default::default()
                });
                vqi_graph::par::set_thread_cap(cap);
                let out = sel
                    .run_ctrl(&net, &budget, &Budget::unlimited())
                    .expect("not fail-fast");
                vqi_graph::par::set_thread_cap(0);
                assert!(
                    !out.completeness.is_complete(),
                    "seed {seed} cap {cap}: dropped shards must degrade the run"
                );
                runs.push((codes_in_order(&out.value), out.completeness));
            }
            assert_eq!(runs[0], runs[1], "seed {seed}");
            assert_eq!(runs[0], runs[2], "seed {seed}");
        }
    }

    #[test]
    fn fail_fast_propagates_a_dropped_shard() {
        let _guard = crate::fault_test_lock();
        let net = dblp_like(200, 4);
        let budget = PatternBudget::new(4, 4, 5);
        let mut sel = fast_selector();
        sel.retries = 0;
        let _plan = with_plan(vqi_runtime::fault::FaultPlan {
            seed: 3,
            panic_rate: 1.0,
            ..Default::default()
        });
        let ctrl = Budget::unlimited().with_fail_fast(true);
        let out = sel.run_ctrl(&net, &budget, &ctrl);
        assert!(out.is_err(), "fail-fast must propagate the shard failure");
    }

    #[test]
    fn a_panicked_score_phase_is_retried_or_recorded() {
        let _guard = crate::fault_test_lock();
        let net = dblp_like(200, 4);
        let budget = PatternBudget::new(4, 4, 5);
        let mut sel = fast_selector();
        let cands = sel.map_candidates(&net, &budget);
        let plain = codes_in_order(&sel.reduce(&net, cands.clone(), &budget));
        assert!(!plain.is_empty());
        // the score phase panics once per plan
        let plan = vqi_runtime::fault::FaultPlan {
            seed: 5,
            panic_rate: 1.0,
            ..Default::default()
        };
        let reduce = |sel: &ShardedTattoo, ctrl: &Budget, deg: &mut Degradation| {
            let _plan = with_plan(plan);
            sel.reduce_ctrl(&net, cands.clone(), &budget, ctrl, deg)
        };
        // one retry recovers the selection bit for bit
        let mut deg = Degradation::new();
        let got = reduce(&sel, &Budget::unlimited(), &mut deg).expect("not fail-fast");
        assert!(deg.is_empty(), "a retried score phase is no degradation");
        assert_eq!(codes_in_order(&got), plain);
        // without one the phase selects nothing and is recorded
        sel.retries = 0;
        let mut deg = Degradation::new();
        let got = reduce(&sel, &Budget::unlimited(), &mut deg).expect("not fail-fast");
        assert!(got.is_empty());
        match deg.into_completeness() {
            vqi_core::ctrl::Completeness::Degraded { stages_cut, .. } => {
                assert_eq!(stages_cut, vec!["tattoo.shard.score".to_string()]);
            }
            other => panic!("expected a degraded run, got {other:?}"),
        }
        // and under fail-fast it is the error
        let strict = Budget::unlimited().with_fail_fast(true);
        let err = reduce(&sel, &strict, &mut Degradation::new()).unwrap_err();
        assert!(
            matches!(&err, VqiError::Panic { stage, .. } if stage == "tattoo.shard.score"),
            "{err:?}"
        );
    }

    #[test]
    fn quality_is_close_to_whole_graph_tattoo() {
        let _guard = crate::fault_test_lock();
        let net = dblp_like(500, 3);
        let budget = PatternBudget::new(6, 4, 6);
        let whole = Tattoo::default().run(&net, &budget);
        let sharded = ShardedTattoo::new(TattooConfig::default(), 4).run(&net, &budget);
        let repo = GraphRepository::network(net);
        let w = QualityWeights::default();
        let qw = evaluate(&whole, &repo, w).score;
        let qs = evaluate(&sharded, &repo, w).score;
        assert!(
            qs >= 0.8 * qw,
            "sharded quality {qs:.3} too far below whole-graph {qw:.3}"
        );
    }
}
