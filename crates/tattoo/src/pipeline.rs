//! The end-to-end TATTOO pipeline.

use crate::candidates::{extract_from_region, ExtractParams};
use crate::select::{greedy_select_ctrl, score_candidates};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::cell::OnceCell;
use vqi_core::budget::PatternBudget;
use vqi_core::ctrl::{run_stage, Budget, Degradation, PipelineOutcome};
use vqi_core::pattern::PatternSet;
use vqi_core::repo::{GraphCollection, GraphRepository};
use vqi_core::score::QualityWeights;
use vqi_core::selector::PatternSelector;
use vqi_graph::index::GraphIndex;
use vqi_graph::truss::decompose_ctrl;
use vqi_graph::Graph;
use vqi_runtime::{fault, VqiError};

/// TATTOO configuration.
#[derive(Debug, Clone, Copy)]
pub struct TattooConfig {
    /// Truss threshold `k` for the `G_T` / `G_O` split.
    pub truss_k: u32,
    /// Candidate-extraction parameters.
    pub extract: ExtractParams,
    /// Score weights.
    pub weights: QualityWeights,
    /// RNG seed.
    pub seed: u64,
}

impl Default for TattooConfig {
    fn default() -> Self {
        TattooConfig {
            truss_k: 3,
            extract: ExtractParams::default(),
            weights: QualityWeights::default(),
            seed: 0x7A77,
        }
    }
}

/// The TATTOO selector.
#[derive(Debug, Clone, Copy, Default)]
pub struct Tattoo {
    /// Configuration.
    pub config: TattooConfig,
}

impl Tattoo {
    /// A selector with the given configuration.
    pub fn new(config: TattooConfig) -> Self {
        Tattoo { config }
    }

    /// Runs the pipeline on a single network.
    pub fn run(&self, network: &Graph, budget: &PatternBudget) -> PatternSet {
        // an unlimited budget cannot trip a stage, so the shared body
        // degenerates to the historical plain pipeline bit for bit
        let mut deg = Degradation::new();
        self.run_impl(network, budget, &Budget::unlimited(), &mut deg)
            .unwrap_or_default()
    }

    /// Budget-aware pipeline: same stages as [`Tattoo::run`], but every
    /// stage honors `ctrl` (deadline, cancel flag, tick quotas) and is
    /// panic-isolated. When nothing trips, the outcome is `Complete`
    /// and bit-identical to the plain entry point; when a stage is cut,
    /// the pipeline keeps everything selected so far (anytime
    /// semantics) and reports the cut stages. `Err` is returned only
    /// under a fail-fast budget.
    pub fn run_ctrl(
        &self,
        network: &Graph,
        budget: &PatternBudget,
        ctrl: &Budget,
    ) -> Result<PipelineOutcome<PatternSet>, VqiError> {
        let mut deg = Degradation::new();
        let value = self.run_impl(network, budget, ctrl, &mut deg)?;
        Ok(deg.finish(value))
    }

    /// Shared stage body of the plain and budget-aware pipelines.
    fn run_impl(
        &self,
        network: &Graph,
        budget: &PatternBudget,
        ctrl: &Budget,
        deg: &mut Degradation,
    ) -> Result<PatternSet, VqiError> {
        let _run = vqi_observe::run("tattoo.run");
        let cfg = &self.config;
        let mut rng = SmallRng::seed_from_u64(cfg.seed);
        // the truss split runs on the metered kernel, so a tick quota
        // can interrupt the peel itself, not just stage boundaries
        let split = run_stage(ctrl, "tattoo.truss", || {
            let _s = vqi_observe::span("tattoo.truss_decompose");
            fault::maybe_panic("tattoo.truss", 0);
            decompose_ctrl(network, cfg.truss_k, ctrl).map(|d| {
                let (gt, _) = d.infested_graph(network);
                let (go, _) = d.oblivious_graph(network);
                vqi_observe::incr("tattoo.truss.infested_edges", gt.edge_count() as u64);
                vqi_observe::incr("tattoo.truss.oblivious_edges", go.edge_count() as u64);
                (gt, go)
            })
        })
        .and_then(|r| r);
        let (gt, go) = match split {
            Ok(v) => v,
            Err(e) => {
                // without the region split there is nothing to extract
                deg.absorb(ctrl, e)?;
                return Ok(PatternSet::new());
            }
        };
        let extracted = run_stage(ctrl, "tattoo.candidates", || {
            let _s = vqi_observe::span("tattoo.candidates");
            fault::maybe_panic("tattoo.candidates", 0);
            let mut cands = extract_from_region(&gt, true, budget, cfg.extract, &mut rng);
            cands.extend(extract_from_region(
                &go,
                false,
                budget,
                cfg.extract,
                &mut rng,
            ));
            vqi_observe::incr("tattoo.candidates.generated", cands.len() as u64);
            // dedup across regions
            let mut seen = std::collections::HashSet::new();
            cands.retain(|c| seen.insert(c.code.clone()));
            vqi_observe::incr("tattoo.candidates.deduped", cands.len() as u64);
            if vqi_observe::enabled() {
                for c in &cands {
                    vqi_observe::count!(format!("tattoo.candidates.class.{:?}", c.class), 1);
                }
            }
            cands
        });
        let cands = match extracted {
            Ok(c) => c,
            Err(e) => {
                deg.absorb(ctrl, e)?;
                Vec::new()
            }
        };
        // the candidates borrow the index their searches match through
        let index = OnceCell::new();
        let scored = match run_stage(ctrl, "tattoo.score", || {
            let _s = vqi_observe::span("tattoo.score");
            fault::maybe_panic("tattoo.score", 0);
            let index = index.get_or_init(|| GraphIndex::build(network));
            score_candidates(cands, network, index)
        }) {
            Ok(s) => s,
            Err(e) => {
                deg.absorb(ctrl, e)?;
                Vec::new()
            }
        };
        let _s = vqi_observe::span("tattoo.greedy");
        greedy_select_ctrl(scored, network.edge_count(), budget, cfg.weights, ctrl, deg)
    }
}

impl PatternSelector for Tattoo {
    fn name(&self) -> &'static str {
        "tattoo"
    }

    fn select(&self, repo: &GraphRepository, budget: &PatternBudget) -> PatternSet {
        match repo {
            GraphRepository::Network(g) => self.run(g, budget),
            // a collection can be treated as the disjoint union network,
            // though CATAPULT is the intended tool there
            GraphRepository::Collection(c) => {
                let union = disjoint_union(c);
                self.run(&union, budget)
            }
        }
    }

    fn select_ctrl(
        &self,
        repo: &GraphRepository,
        budget: &PatternBudget,
        ctrl: &Budget,
    ) -> Result<PipelineOutcome<PatternSet>, VqiError> {
        match repo {
            GraphRepository::Network(g) => self.run_ctrl(g, budget, ctrl),
            GraphRepository::Collection(c) => {
                let union = disjoint_union(c);
                self.run_ctrl(&union, budget, ctrl)
            }
        }
    }
}

/// Disjoint union of all live graphs of a collection.
fn disjoint_union(c: &GraphCollection) -> Graph {
    let mut g = Graph::new();
    for (_, member) in c.iter() {
        let base = g.node_count() as u32;
        for v in member.nodes() {
            g.add_node(member.node_label(v));
        }
        for e in member.edges() {
            let (u, v) = member.endpoints(e);
            g.add_edge(
                vqi_graph::NodeId(base + u.0),
                vqi_graph::NodeId(base + v.0),
                member.edge_label(e),
            );
        }
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use vqi_core::score::{evaluate, evaluate_graphs};
    use vqi_graph::generate::{barabasi_albert, chain, cycle};
    use vqi_graph::traversal::is_connected;

    #[test]
    fn selects_valid_patterns_from_ba_network() {
        let _guard = crate::fault_test_lock();
        let mut rng = SmallRng::seed_from_u64(9);
        let net = barabasi_albert(300, 3, 1, &mut rng);
        let budget = PatternBudget::new(6, 4, 6);
        let set = Tattoo::default().run(&net, &budget);
        assert!(!set.is_empty());
        assert!(set.len() <= 6);
        for p in set.patterns() {
            assert!(budget.admits(&p.graph));
            assert!(is_connected(&p.graph));
            assert!(p.provenance.starts_with("tattoo:"));
        }
        // selected patterns must actually cover edges
        let graphs: Vec<&Graph> = set.graphs().collect();
        let q = evaluate_graphs(&graphs, &GraphRepository::Network(net), Default::default());
        assert!(q.coverage > 0.0);
    }

    #[test]
    fn provenance_records_both_regions() {
        let _guard = crate::fault_test_lock();
        let mut rng = SmallRng::seed_from_u64(10);
        // BA with m=3 has a dense core and tree-ish periphery
        let net = barabasi_albert(400, 3, 1, &mut rng);
        let budget = PatternBudget::new(8, 4, 6);
        let set = Tattoo::default().run(&net, &budget);
        let provs: Vec<&str> = set
            .patterns()
            .iter()
            .map(|p| p.provenance.as_str())
            .collect();
        assert!(
            provs.iter().any(|p| p.ends_with("G_T")),
            "no truss-region pattern in {provs:?}"
        );
    }

    /// A statistical claim needs a sample: TATTOO against the random
    /// baseline over 12 networks x 3 random draws, mean against mean.
    #[test]
    fn beats_random_on_quality() {
        let _guard = crate::fault_test_lock();
        use vqi_core::selector::RandomSelector;
        let budget = PatternBudget::new(6, 4, 6);
        let w = QualityWeights::default();
        let (mut tattoo_sum, mut random_sum, mut pairs) = (0.0, 0.0, 0);
        for net_seed in 0..12 {
            let net = barabasi_albert(250, 3, 1, &mut SmallRng::seed_from_u64(net_seed));
            let repo = GraphRepository::network(net);
            let tat = evaluate(&Tattoo::default().select(&repo, &budget), &repo, w).score;
            for random_seed in 1..=3 {
                let rnd = RandomSelector::new(random_seed).select(&repo, &budget);
                tattoo_sum += tat;
                random_sum += evaluate(&rnd, &repo, w).score;
                pairs += 1;
            }
        }
        let (tattoo_mean, random_mean) = (tattoo_sum / pairs as f64, random_sum / pairs as f64);
        assert!(
            tattoo_mean > random_mean,
            "tattoo mean {tattoo_mean:.3} <= random mean {random_mean:.3} over {pairs} pairs"
        );
    }

    #[test]
    fn collection_fallback_works() {
        let _guard = crate::fault_test_lock();
        let repo = GraphRepository::collection(vec![chain(8, 1, 0), cycle(6, 1, 0)]);
        let set = Tattoo::default().select(&repo, &PatternBudget::new(3, 4, 5));
        assert!(!set.is_empty());
    }

    #[test]
    fn deterministic_given_seed() {
        let _guard = crate::fault_test_lock();
        let mut rng = SmallRng::seed_from_u64(12);
        let net = barabasi_albert(150, 2, 1, &mut rng);
        let budget = PatternBudget::new(4, 4, 5);
        let a = Tattoo::default().run(&net, &budget);
        let b = Tattoo::default().run(&net, &budget);
        assert_eq!(a.len(), b.len());
        for (pa, pb) in a.patterns().iter().zip(b.patterns()) {
            assert_eq!(pa.code, pb.code);
        }
    }

    #[test]
    fn selection_is_identical_across_thread_counts() {
        let _guard = crate::fault_test_lock();
        use vqi_graph::canon::CanonicalCode;
        let mut rng = SmallRng::seed_from_u64(13);
        let net = barabasi_albert(200, 3, 1, &mut rng);
        let budget = PatternBudget::new(5, 4, 6);
        let codes_at = |cap: usize| -> Vec<CanonicalCode> {
            vqi_graph::par::set_thread_cap(cap);
            let set = Tattoo::default().run(&net, &budget);
            vqi_graph::par::set_thread_cap(0);
            let mut codes: Vec<CanonicalCode> =
                set.patterns().iter().map(|p| p.code.clone()).collect();
            codes.sort();
            codes
        };
        let one = codes_at(1);
        assert!(!one.is_empty());
        assert_eq!(one, codes_at(2), "cap 2 changed the selection");
        assert_eq!(one, codes_at(4), "cap 4 changed the selection");
    }

    #[test]
    fn observability_is_identical_across_thread_counts() {
        let _guard = crate::fault_test_lock();
        let mut rng = SmallRng::seed_from_u64(13);
        let net = barabasi_albert(200, 3, 1, &mut rng);
        let budget = PatternBudget::new(5, 4, 6);
        let one = observed_aggregates(1, || drop(Tattoo::default().run(&net, &budget)));
        assert!(!one.0.is_empty(), "no spans recorded");
        assert!(one.1.values().sum::<u64>() > 0, "no journal events");
        let two = observed_aggregates(2, || drop(Tattoo::default().run(&net, &budget)));
        assert_eq!(one, two, "cap 2 changed the observability output");
        let four = observed_aggregates(4, || drop(Tattoo::default().run(&net, &budget)));
        assert_eq!(one, four, "cap 4 changed the observability output");
    }

    #[test]
    fn work_counters_are_identical_across_thread_counts() {
        let _guard = crate::fault_test_lock();
        let net = vqi_datasets::dblp_like(400, 5);
        let budget = PatternBudget::new(5, 3, 6);
        let counters_at = |cap: usize| {
            vqi_graph::par::set_thread_cap(cap);
            vqi_observe::reset();
            vqi_observe::set_enabled(true);
            Tattoo::default().run(&net, &budget);
            let c = vqi_observe::snapshot().counters;
            vqi_observe::set_enabled(false);
            vqi_graph::par::set_thread_cap(0);
            let get = |k: &str| c.get(k).copied().unwrap_or(0);
            (
                get("tattoo.candidates.deduped"),
                get("tattoo.score.bounded"),
                get("tattoo.greedy.searched"),
            )
        };
        let (deduped, bounded, searched) = counters_at(1);
        // every candidate is bounded; far fewer are searched
        assert_eq!(bounded, deduped);
        assert!(searched < bounded / 4, "{searched} of {bounded} searched");
        for cap in [2, 4] {
            assert_eq!(counters_at(cap), (deduped, bounded, searched), "cap {cap}");
        }
    }

    /// [`vqi_observe::invariant_aggregates`] of `work` at thread cap `cap`.
    fn observed_aggregates(
        cap: usize,
        work: impl FnOnce(),
    ) -> (Vec<(String, u64)>, std::collections::BTreeMap<String, u64>) {
        vqi_graph::par::set_thread_cap(cap);
        let aggregates = vqi_observe::invariant_aggregates(work);
        vqi_graph::par::set_thread_cap(0);
        aggregates
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

    fn codes_in_order(set: &PatternSet) -> Vec<vqi_graph::canon::CanonicalCode> {
        set.patterns().iter().map(|p| p.code.clone()).collect()
    }

    fn test_network() -> Graph {
        let mut rng = SmallRng::seed_from_u64(9);
        barabasi_albert(200, 3, 1, &mut rng)
    }

    #[test]
    fn ctrl_with_unlimited_budget_matches_plain() {
        let _guard = crate::fault_test_lock();
        let net = test_network();
        let budget = PatternBudget::new(5, 4, 6);
        let plain = Tattoo::default().run(&net, &budget);
        let out = Tattoo::default()
            .run_ctrl(&net, &budget, &vqi_core::Budget::unlimited())
            .expect("unlimited budget cannot fail");
        assert!(out.completeness.is_complete());
        assert_eq!(codes_in_order(&plain), codes_in_order(&out.value));
        // a roomy tick quota must not change a single selection either
        let roomy = vqi_core::Budget::unlimited().with_kernel_ticks(1 << 24);
        let out = Tattoo::default()
            .run_ctrl(&net, &budget, &roomy)
            .expect("roomy budget cannot fail");
        assert!(out.completeness.is_complete());
        assert_eq!(codes_in_order(&plain), codes_in_order(&out.value));
    }

    #[test]
    fn tick_quota_degrades_identically_across_thread_counts() {
        let _guard = crate::fault_test_lock();
        let net = test_network();
        let budget = PatternBudget::new(5, 4, 6);
        // a tiny quota trips inside the truss peel itself; the anytime
        // result (empty, with the cut stage recorded) must not depend
        // on the thread cap
        let ctrl = vqi_core::Budget::unlimited().with_kernel_ticks(3);
        let mut runs = Vec::new();
        for cap in [1usize, 2, 4] {
            vqi_graph::par::set_thread_cap(cap);
            let out = Tattoo::default()
                .run_ctrl(&net, &budget, &ctrl)
                .expect("not fail-fast");
            vqi_graph::par::set_thread_cap(0);
            assert!(!out.completeness.is_complete(), "cap {cap} should degrade");
            runs.push((codes_in_order(&out.value), out.completeness));
        }
        assert_eq!(runs[0], runs[1]);
        assert_eq!(runs[0], runs[2]);
    }

    #[test]
    fn canceled_token_stops_the_pipeline_deterministically() {
        let _guard = crate::fault_test_lock();
        let net = test_network();
        let budget = PatternBudget::new(5, 4, 6);
        let token = vqi_core::CancelToken::new();
        token.cancel();
        let ctrl = vqi_core::Budget::unlimited().with_cancel(token);
        let out = Tattoo::default()
            .run_ctrl(&net, &budget, &ctrl)
            .expect("not fail-fast");
        assert!(!out.completeness.is_complete());
        assert!(out.value.is_empty(), "pre-canceled run selects nothing");
    }

    #[test]
    fn injected_stage_timeouts_degrade_without_panicking() {
        let _guard = crate::fault_test_lock();
        let net = test_network();
        let budget = PatternBudget::new(5, 4, 6);
        for seed in [1u64, 2] {
            let mut runs = Vec::new();
            for cap in [1usize, 2, 4] {
                let _plan = with_plan(vqi_runtime::fault::FaultPlan {
                    seed,
                    timeout_rate: 1.0,
                    ..Default::default()
                });
                vqi_graph::par::set_thread_cap(cap);
                let out = Tattoo::default()
                    .run_ctrl(&net, &budget, &vqi_core::Budget::unlimited())
                    .expect("not fail-fast");
                vqi_graph::par::set_thread_cap(0);
                assert!(
                    !out.completeness.is_complete(),
                    "seed {seed} cap {cap}: a total timeout plan must degrade"
                );
                runs.push((codes_in_order(&out.value), out.completeness));
            }
            assert_eq!(runs[0], runs[1], "seed {seed}");
            assert_eq!(runs[0], runs[2], "seed {seed}");
        }
    }

    #[test]
    fn injected_panics_are_contained_and_deterministic() {
        let _guard = crate::fault_test_lock();
        let net = test_network();
        let budget = PatternBudget::new(5, 4, 6);
        for seed in [1u64, 2] {
            let mut runs = Vec::new();
            for cap in [1usize, 2, 4] {
                let _plan = with_plan(vqi_runtime::fault::FaultPlan {
                    seed,
                    panic_rate: 1.0,
                    ..Default::default()
                });
                vqi_graph::par::set_thread_cap(cap);
                let out = Tattoo::default()
                    .run_ctrl(&net, &budget, &vqi_core::Budget::unlimited())
                    .expect("panics must be absorbed, not propagated");
                vqi_graph::par::set_thread_cap(0);
                assert!(!out.completeness.is_complete(), "seed {seed} cap {cap}");
                runs.push((codes_in_order(&out.value), out.completeness));
            }
            assert_eq!(runs[0], runs[1], "seed {seed}");
            assert_eq!(runs[0], runs[2], "seed {seed}");
        }
    }

    #[test]
    fn injected_nan_scores_are_sanitized() {
        let _guard = crate::fault_test_lock();
        let net = test_network();
        let budget = PatternBudget::new(4, 4, 6);
        // reinstall the plan per run: the fired-once registry models
        // transient faults, so a fresh plan is what makes two runs see
        // the same injections
        let plan = vqi_runtime::fault::FaultPlan {
            seed: 9,
            nan_rate: 1.0,
            ..Default::default()
        };
        let _p1 = with_plan(plan);
        let a = Tattoo::default()
            .run_ctrl(&net, &budget, &vqi_core::Budget::unlimited())
            .expect("not fail-fast");
        drop(_p1);
        let _p2 = with_plan(plan);
        let b = Tattoo::default()
            .run_ctrl(&net, &budget, &vqi_core::Budget::unlimited())
            .expect("not fail-fast");
        assert_eq!(codes_in_order(&a.value), codes_in_order(&b.value));
        assert_eq!(a.completeness, b.completeness);
    }

    #[test]
    fn fail_fast_propagates_the_first_fault() {
        let _guard = crate::fault_test_lock();
        let net = test_network();
        let budget = PatternBudget::new(5, 4, 6);
        let _plan = with_plan(vqi_runtime::fault::FaultPlan {
            seed: 3,
            timeout_rate: 1.0,
            ..Default::default()
        });
        let ctrl = vqi_core::Budget::unlimited().with_fail_fast(true);
        let out = Tattoo::default().run_ctrl(&net, &budget, &ctrl);
        assert!(out.is_err(), "fail-fast must propagate the stage fault");
    }
}
