//! The end-to-end CATAPULT pipeline.

use crate::candidates::{generate_candidates, WalkParams};
use crate::select::{greedy_select_ctrl, score_candidates};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use vqi_core::budget::PatternBudget;
use vqi_core::ctrl::{run_stage, Budget, Degradation, PipelineOutcome};
use vqi_core::pattern::PatternSet;
use vqi_core::repo::{GraphCollection, GraphRepository};
use vqi_core::score::QualityWeights;
use vqi_core::selector::PatternSelector;
use vqi_mining::closure::ClusterSummaryGraph;
use vqi_mining::cluster::{k_medoids, Clustering, DistanceMatrix};
use vqi_mining::features::{cosine_distance, FeatureSpace};
use vqi_mining::fst::{mine_frequent_subtrees_indexed, MineParams};
use vqi_runtime::{error::panic_reason, fault, VqiError};

/// CATAPULT configuration.
#[derive(Debug, Clone, Copy)]
pub struct CatapultConfig {
    /// Minimum support for frequent-subtree features, as a fraction of
    /// the collection size.
    pub min_support_frac: f64,
    /// Maximum feature-tree size in nodes.
    pub max_feature_nodes: usize,
    /// Number of clusters; `None` picks `⌈√(n/2)⌉`.
    pub clusters: Option<usize>,
    /// k-medoids iterations.
    pub cluster_iters: usize,
    /// Random-walk candidate generation parameters.
    pub walks: WalkParams,
    /// Score weights.
    pub weights: QualityWeights,
    /// RNG seed (whole pipeline is deterministic given the seed).
    pub seed: u64,
}

impl Default for CatapultConfig {
    fn default() -> Self {
        CatapultConfig {
            min_support_frac: 0.1,
            max_feature_nodes: 4,
            clusters: None,
            cluster_iters: 15,
            walks: WalkParams::default(),
            weights: QualityWeights::default(),
            seed: 0xCA7A,
        }
    }
}

/// Intermediate pipeline artifacts, kept so MIDAS can maintain them.
#[derive(Debug)]
pub struct CatapultState {
    /// Feature space over mined frequent subtrees.
    pub feature_space: FeatureSpace,
    /// Feature vectors of the live graphs, aligned with `graph_ids`.
    pub feature_vectors: Vec<Vec<f64>>,
    /// The live graph ids the clustering refers to.
    pub graph_ids: Vec<usize>,
    /// The clustering over positions of `graph_ids`.
    pub clustering: Clustering,
    /// One CSG per non-empty cluster.
    pub csgs: Vec<ClusterSummaryGraph>,
}

/// The CATAPULT selector.
#[derive(Debug, Clone, Copy, Default)]
pub struct Catapult {
    /// Configuration.
    pub config: CatapultConfig,
}

impl Catapult {
    /// A selector with the given configuration.
    pub fn new(config: CatapultConfig) -> Self {
        Catapult { config }
    }

    /// Runs the pipeline on a collection, returning the selected patterns
    /// and all intermediate state.
    pub fn run_with_state(
        &self,
        collection: &GraphCollection,
        budget: &PatternBudget,
    ) -> (PatternSet, CatapultState) {
        // an unlimited budget cannot trip a stage, so the shared body
        // degenerates to the historical plain pipeline bit for bit
        let mut deg = Degradation::new();
        match self.run_impl(collection, budget, &Budget::unlimited(), &mut deg) {
            Ok(v) => v,
            // unreachable without fail-fast; keep a benign fallback
            Err(_) => (PatternSet::new(), Self::empty_state(collection.ids())),
        }
    }

    /// Budget-aware pipeline: same stages as [`Catapult::run_with_state`],
    /// but every stage honors `ctrl` (deadline, cancel flag, tick
    /// quotas) and is panic-isolated. When nothing trips, the outcome is
    /// `Complete` and bit-identical to the plain entry point; when a
    /// stage is cut, the pipeline keeps everything selected so far
    /// (anytime semantics) and reports the cut stages. `Err` is returned
    /// only under a fail-fast budget.
    pub fn run_with_state_ctrl(
        &self,
        collection: &GraphCollection,
        budget: &PatternBudget,
        ctrl: &Budget,
    ) -> Result<PipelineOutcome<(PatternSet, CatapultState)>, VqiError> {
        let mut deg = Degradation::new();
        let value = self.run_impl(collection, budget, ctrl, &mut deg)?;
        Ok(deg.finish(value))
    }

    /// Budget-aware selection without the intermediate state.
    pub fn run_ctrl(
        &self,
        collection: &GraphCollection,
        budget: &PatternBudget,
        ctrl: &Budget,
    ) -> Result<PipelineOutcome<PatternSet>, VqiError> {
        let out = self.run_with_state_ctrl(collection, budget, ctrl)?;
        Ok(PipelineOutcome {
            value: out.value.0,
            completeness: out.completeness,
        })
    }

    /// The state a degraded run reports when it had to stop before the
    /// clustering existed.
    fn empty_state(graph_ids: Vec<usize>) -> CatapultState {
        CatapultState {
            feature_space: FeatureSpace::with_idf(Vec::new(), &[], 1),
            feature_vectors: Vec::new(),
            graph_ids,
            clustering: Clustering {
                assignments: Vec::new(),
                representatives: Vec::new(),
            },
            csgs: Vec::new(),
        }
    }

    /// Shared stage body of the plain and budget-aware pipelines.
    fn run_impl(
        &self,
        collection: &GraphCollection,
        budget: &PatternBudget,
        ctrl: &Budget,
        deg: &mut Degradation,
    ) -> Result<(PatternSet, CatapultState), VqiError> {
        let _run = vqi_observe::run("catapult.run");
        let cfg = &self.config;
        let graph_ids = collection.ids();
        let n = graph_ids.len();
        // each graph with its stored index, borrowed from the collection
        let graphs: Vec<(&vqi_graph::Graph, &vqi_graph::index::GraphIndex)> = graph_ids
            .iter()
            .map(|&id| {
                let entry = collection.entry(id).expect("live id");
                (entry.graph(), entry.index())
            })
            .collect();
        let mut rng = SmallRng::seed_from_u64(cfg.seed);

        // step 0: mine features
        let mined = run_stage(ctrl, "catapult.mine", || {
            let _s = vqi_observe::span("catapult.mine");
            fault::maybe_panic("catapult.mine", 0);
            let min_support = ((cfg.min_support_frac * n as f64).ceil() as usize).max(1);
            let mined = mine_frequent_subtrees_indexed(
                &graphs,
                MineParams {
                    min_support,
                    max_nodes: cfg.max_feature_nodes,
                },
            );
            let (trees, support_sets): (Vec<vqi_graph::Graph>, Vec<Vec<usize>>) =
                mined.into_iter().map(|t| (t.tree, t.support_set)).unzip();
            vqi_observe::incr("catapult.mine.features", trees.len() as u64);
            let dfs: Vec<usize> = support_sets.iter().map(Vec::len).collect();
            let feature_space = FeatureSpace::with_idf(trees, &dfs, n.max(1));
            // the miner's support sets are exact: the vectors are their
            // transpose, with no second round of matching
            let feature_vectors = feature_space.vectors_from_support_sets(&support_sets, n);
            (feature_space, feature_vectors)
        });
        let (feature_space, feature_vectors) = match mined {
            Ok(v) => v,
            Err(e) => {
                deg.absorb(ctrl, e)?;
                return Ok((PatternSet::new(), Self::empty_state(graph_ids)));
            }
        };

        // step 1: cluster by feature distance
        let clustered = run_stage(ctrl, "catapult.cluster", || {
            let _s = vqi_observe::span("catapult.cluster");
            fault::maybe_panic("catapult.cluster", 0);
            let k = cfg
                .clusters
                .unwrap_or_else(|| ((n as f64 / 2.0).sqrt().ceil() as usize).max(1));
            let dist = DistanceMatrix::from_fn(n, |i, j| {
                cosine_distance(&feature_vectors[i], &feature_vectors[j])
            });
            let clustering = k_medoids(&dist, k, cfg.cluster_iters, &mut rng);
            vqi_observe::incr(
                "catapult.cluster.nonempty",
                clustering
                    .clusters()
                    .iter()
                    .filter(|m| !m.is_empty())
                    .count() as u64,
            );
            clustering
        });
        let clustering = match clustered {
            Ok(c) => c,
            Err(e) => {
                deg.absorb(ctrl, e)?;
                let mut state = Self::empty_state(graph_ids);
                state.feature_space = feature_space;
                state.feature_vectors = feature_vectors;
                return Ok((PatternSet::new(), state));
            }
        };

        // step 2: summarize clusters into CSGs — isolated per cluster,
        // so one poisoned cluster costs its own summary, not the run
        let csgs = {
            let _s = vqi_observe::span("catapult.csg_closure");
            let mut csgs = Vec::new();
            for (ci, members) in clustering.clusters().iter().enumerate() {
                if members.is_empty() {
                    continue;
                }
                if let Err(e) = ctrl.check("catapult.csg") {
                    deg.absorb(ctrl, e)?;
                    break;
                }
                let member_ids: Vec<usize> = members.iter().map(|&pos| graph_ids[pos]).collect();
                let built = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    fault::maybe_panic("catapult.csg", ci as u64);
                    ClusterSummaryGraph::build(&member_ids, |id| {
                        collection.get(id).expect("live id")
                    })
                }));
                match built {
                    Ok(Some(csg)) => csgs.push(csg),
                    Ok(None) => {}
                    Err(payload) => deg.absorb(
                        ctrl,
                        VqiError::Panic {
                            stage: "catapult.csg".into(),
                            reason: panic_reason(payload.as_ref()),
                        },
                    )?,
                }
            }
            vqi_observe::incr("catapult.csg.built", csgs.len() as u64);
            csgs
        };

        // step 3: walk candidates, then greedy selection by pattern score
        let walked = run_stage(ctrl, "catapult.walk", || {
            let _s = vqi_observe::span("catapult.walk");
            fault::maybe_panic("catapult.walk", 0);
            let cands = generate_candidates(&csgs, budget, cfg.walks, &mut rng);
            vqi_observe::incr("catapult.walk.candidates", cands.len() as u64);
            let (scored, ids) = score_candidates(cands, collection);
            vqi_observe::incr("catapult.walk.scored", scored.len() as u64);
            (scored, ids)
        });
        let (scored, ids) = match walked {
            Ok(v) => v,
            Err(e) => {
                deg.absorb(ctrl, e)?;
                (Vec::new(), Vec::new())
            }
        };
        let patterns = {
            let _s = vqi_observe::span("catapult.greedy");
            greedy_select_ctrl(scored, ids.len(), budget, cfg.weights, ctrl, deg)?
        };

        Ok((
            patterns,
            CatapultState {
                feature_space,
                feature_vectors,
                graph_ids,
                clustering,
                csgs,
            },
        ))
    }
}

impl Catapult {
    /// Applies the clustering-based pipeline to a large network by
    /// decomposing it into ego-networks (radius-1 induced neighborhoods,
    /// capped at `EGO_CAP` neighbors) and treating those as the
    /// collection. This is how a clustering-based selector must view a
    /// network — one substructure per node — and is exactly the
    /// "prohibitively expensive" regime §2.3 describes: the pairwise
    /// similarity matrix and per-cluster closures grow super-linearly
    /// with the node count. Experiment E6 measures this against TATTOO.
    pub fn run_on_network(&self, g: &vqi_graph::Graph, budget: &PatternBudget) -> PatternSet {
        const EGO_CAP: usize = 20;
        let egos: Vec<vqi_graph::Graph> = g
            .nodes()
            .map(|v| {
                let mut nodes = vec![v];
                nodes.extend(g.neighbors(v).map(|(u, _)| u).take(EGO_CAP));
                g.induced_subgraph(&nodes).0
            })
            .collect();
        self.run_with_state(&GraphCollection::new(egos), budget).0
    }
}

impl PatternSelector for Catapult {
    fn name(&self) -> &'static str {
        "catapult"
    }

    fn select(&self, repo: &GraphRepository, budget: &PatternBudget) -> PatternSet {
        match repo {
            GraphRepository::Collection(c) => self.run_with_state(c, budget).0,
            GraphRepository::Network(g) => self.run_on_network(g, budget),
        }
    }

    fn select_ctrl(
        &self,
        repo: &GraphRepository,
        budget: &PatternBudget,
        ctrl: &Budget,
    ) -> Result<PipelineOutcome<PatternSet>, VqiError> {
        match repo {
            GraphRepository::Collection(c) => self.run_ctrl(c, budget, ctrl),
            // the ego-decomposition fallback has no native stages; run
            // it as one panic-isolated unit
            GraphRepository::Network(g) => {
                match run_stage(ctrl, "catapult.network", || self.run_on_network(g, budget)) {
                    Ok(set) => Ok(PipelineOutcome::complete(set)),
                    Err(e) => {
                        let mut deg = Degradation::new();
                        deg.absorb(ctrl, e)?;
                        Ok(deg.finish(PatternSet::new()))
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vqi_core::score::{evaluate, QualityWeights};
    use vqi_graph::generate::{chain, cycle, star};
    use vqi_graph::traversal::is_connected;

    fn molecule_like() -> Vec<vqi_graph::Graph> {
        // three structural families
        let mut graphs = Vec::new();
        for i in 0..6 {
            graphs.push(chain(5 + i % 3, 1, 0));
            graphs.push(cycle(5 + i % 2, 2, 0));
            graphs.push(star(4 + i % 3, 3, 0));
        }
        graphs
    }

    #[test]
    fn pipeline_fills_budget_with_valid_patterns() {
        let _guard = crate::fault_test_lock();
        let col = GraphCollection::new(molecule_like());
        let budget = PatternBudget::new(5, 4, 6);
        let (set, state) = Catapult::default().run_with_state(&col, &budget);
        assert!(!set.is_empty(), "should select patterns");
        assert!(set.len() <= 5);
        for p in set.patterns() {
            assert!(budget.admits(&p.graph));
            assert!(is_connected(&p.graph));
            assert!(p.provenance.starts_with("catapult:csg"));
        }
        assert!(!state.csgs.is_empty());
        assert_eq!(state.feature_vectors.len(), col.len());
    }

    #[test]
    fn every_selected_pattern_covers_something() {
        let _guard = crate::fault_test_lock();
        let col = GraphCollection::new(molecule_like());
        let budget = PatternBudget::new(5, 4, 6);
        let (set, _) = Catapult::default().run_with_state(&col, &budget);
        for p in set.patterns() {
            let cov = vqi_core::score::pattern_coverage(&p.graph, &col);
            assert!(cov > 0.0, "pattern {} covers nothing", p.id.0);
        }
    }

    #[test]
    fn beats_random_selection_on_quality() {
        let _guard = crate::fault_test_lock();
        use vqi_core::selector::{PatternSelector, RandomSelector};
        let graphs = molecule_like();
        let repo = GraphRepository::collection(graphs);
        let budget = PatternBudget::new(5, 4, 6);
        let w = QualityWeights::default();
        let cat_set = Catapult::default().select(&repo, &budget);
        let rnd_set = RandomSelector::new(5).select(&repo, &budget);
        let cat_q = evaluate(&cat_set, &repo, w);
        let rnd_q = evaluate(&rnd_set, &repo, w);
        assert!(
            cat_q.score >= rnd_q.score,
            "catapult {:.3} < random {:.3}",
            cat_q.score,
            rnd_q.score
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let _guard = crate::fault_test_lock();
        let col = GraphCollection::new(molecule_like());
        let budget = PatternBudget::new(4, 4, 6);
        let (a, _) = Catapult::default().run_with_state(&col, &budget);
        let (b, _) = Catapult::default().run_with_state(&col, &budget);
        assert_eq!(a.len(), b.len());
        for (pa, pb) in a.patterns().iter().zip(b.patterns()) {
            assert_eq!(pa.code, pb.code);
        }
    }

    #[test]
    fn empty_collection_yields_empty_set() {
        let _guard = crate::fault_test_lock();
        let col = GraphCollection::new(vec![]);
        let (set, state) = Catapult::default().run_with_state(&col, &PatternBudget::default());
        assert!(set.is_empty());
        assert!(state.csgs.is_empty());
    }

    #[test]
    fn selection_is_identical_across_thread_counts() {
        let _guard = crate::fault_test_lock();
        use vqi_graph::canon::CanonicalCode;
        let col = GraphCollection::new(molecule_like());
        let budget = PatternBudget::new(4, 4, 6);
        let codes_at = |cap: usize| -> Vec<CanonicalCode> {
            vqi_graph::par::set_thread_cap(cap);
            let (set, _) = Catapult::default().run_with_state(&col, &budget);
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
        let col = GraphCollection::new(molecule_like());
        let budget = PatternBudget::new(4, 4, 6);
        // warm-up builds every graph's lazily built index and code, so
        // every measured run does the same work
        Catapult::default().run_with_state(&col, &budget);
        let run = || drop(Catapult::default().run_with_state(&col, &budget));
        let one = observed_aggregates(1, run);
        assert!(!one.0.is_empty(), "no spans recorded");
        assert!(one.1.values().sum::<u64>() > 0, "no journal events");
        assert_eq!(
            one,
            observed_aggregates(2, run),
            "cap 2 changed the observability output"
        );
        assert_eq!(
            one,
            observed_aggregates(4, run),
            "cap 4 changed the observability output"
        );
    }

    /// [`vqi_observe::invariant_aggregates`] of `work` at thread cap `cap`.
    fn observed_aggregates(
        cap: usize,
        work: impl Fn(),
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

    #[test]
    fn ctrl_with_unlimited_budget_matches_plain() {
        let _guard = crate::fault_test_lock();
        let col = GraphCollection::new(molecule_like());
        let budget = PatternBudget::new(4, 4, 6);
        let (plain, plain_state) = Catapult::default().run_with_state(&col, &budget);
        let out = Catapult::default()
            .run_with_state_ctrl(&col, &budget, &vqi_core::Budget::unlimited())
            .expect("unlimited budget cannot fail");
        assert!(out.completeness.is_complete());
        let (set, state) = out.value;
        // bit-identical selection, in selection order
        assert_eq!(codes_in_order(&plain), codes_in_order(&set));
        assert_eq!(plain_state.csgs.len(), state.csgs.len());
    }

    #[test]
    fn greedy_quota_cancels_mid_selection_deterministically() {
        let _guard = crate::fault_test_lock();
        let col = GraphCollection::new(molecule_like());
        let budget = PatternBudget::new(4, 4, 6);
        let (full, _) = Catapult::default().run_with_state(&col, &budget);
        assert!(full.len() >= 3, "need enough rounds to cut");
        // the greedy meter ticks once per round: a 2-tick quota keeps
        // exactly the first two picks, at any thread count
        let ctrl = vqi_core::Budget::unlimited().with_kernel_ticks(2);
        let mut per_cap = Vec::new();
        for cap in [1usize, 2, 4] {
            vqi_graph::par::set_thread_cap(cap);
            let out = Catapult::default()
                .run_with_state_ctrl(&col, &budget, &ctrl)
                .expect("not fail-fast");
            vqi_graph::par::set_thread_cap(0);
            assert!(!out.completeness.is_complete(), "cap {cap} should degrade");
            per_cap.push(codes_in_order(&out.value.0));
        }
        assert_eq!(per_cap[0], per_cap[1]);
        assert_eq!(per_cap[0], per_cap[2]);
        assert_eq!(per_cap[0].len(), 2);
        // the degraded set is a prefix of the full selection
        assert_eq!(&per_cap[0][..], &codes_in_order(&full)[..2]);
    }

    #[test]
    fn injected_stage_timeouts_degrade_without_panicking() {
        let _guard = crate::fault_test_lock();
        let col = GraphCollection::new(molecule_like());
        let budget = PatternBudget::new(4, 4, 6);
        for seed in [1u64, 2] {
            let mut per_cap = Vec::new();
            for cap in [1usize, 2, 4] {
                let _plan = with_plan(vqi_runtime::fault::FaultPlan {
                    seed,
                    timeout_rate: 1.0,
                    ..Default::default()
                });
                vqi_graph::par::set_thread_cap(cap);
                let out = Catapult::default()
                    .run_with_state_ctrl(&col, &budget, &vqi_core::Budget::unlimited())
                    .expect("not fail-fast");
                vqi_graph::par::set_thread_cap(0);
                assert!(
                    !out.completeness.is_complete(),
                    "seed {seed} cap {cap}: a total timeout plan must degrade"
                );
                per_cap.push((codes_in_order(&out.value.0), out.completeness));
            }
            assert_eq!(per_cap[0], per_cap[1], "seed {seed}");
            assert_eq!(per_cap[0], per_cap[2], "seed {seed}");
        }
    }

    #[test]
    fn injected_panics_are_contained_and_deterministic() {
        let _guard = crate::fault_test_lock();
        let col = GraphCollection::new(molecule_like());
        let budget = PatternBudget::new(4, 4, 6);
        for seed in [1u64, 2] {
            let mut runs = Vec::new();
            for cap in [1usize, 2, 4] {
                let _plan = with_plan(vqi_runtime::fault::FaultPlan {
                    seed,
                    panic_rate: 1.0,
                    ..Default::default()
                });
                vqi_graph::par::set_thread_cap(cap);
                let out = Catapult::default()
                    .run_with_state_ctrl(&col, &budget, &vqi_core::Budget::unlimited())
                    .expect("panics must be absorbed, not propagated");
                vqi_graph::par::set_thread_cap(0);
                assert!(!out.completeness.is_complete(), "seed {seed} cap {cap}");
                runs.push((codes_in_order(&out.value.0), out.completeness));
            }
            assert_eq!(runs[0], runs[1], "seed {seed}");
            assert_eq!(runs[0], runs[2], "seed {seed}");
        }
    }

    #[test]
    fn injected_nan_scores_are_sanitized() {
        let _guard = crate::fault_test_lock();
        let col = GraphCollection::new(molecule_like());
        let budget = PatternBudget::new(3, 4, 6);
        // reinstall the plan per run: the fired-once registry models
        // transient faults, so a fresh plan is what makes two runs see
        // the same injections
        let plan = vqi_runtime::fault::FaultPlan {
            seed: 9,
            nan_rate: 1.0,
            ..Default::default()
        };
        let _p1 = with_plan(plan);
        let a = Catapult::default()
            .run_with_state_ctrl(&col, &budget, &vqi_core::Budget::unlimited())
            .expect("not fail-fast");
        let _p2 = with_plan(plan);
        let b = Catapult::default()
            .run_with_state_ctrl(&col, &budget, &vqi_core::Budget::unlimited())
            .expect("not fail-fast");
        // NaN scores are sanitized (degraded), never crash the argmax,
        // and the outcome is reproducible
        assert_eq!(codes_in_order(&a.value.0), codes_in_order(&b.value.0));
        assert_eq!(a.completeness, b.completeness);
    }

    #[test]
    fn fail_fast_propagates_the_first_fault() {
        let _guard = crate::fault_test_lock();
        let col = GraphCollection::new(molecule_like());
        let budget = PatternBudget::new(4, 4, 6);
        let _plan = with_plan(vqi_runtime::fault::FaultPlan {
            seed: 3,
            timeout_rate: 1.0,
            ..Default::default()
        });
        let ctrl = vqi_core::Budget::unlimited().with_fail_fast(true);
        let out = Catapult::default().run_with_state_ctrl(&col, &budget, &ctrl);
        assert!(out.is_err(), "fail-fast must propagate the stage fault");
    }
}
