//! Composition of the four stages into a [`PatternSelector`].

use crate::stages::{ClusteringStage, ExtractStage, MergeStage};
use vqi_core::budget::PatternBudget;
use vqi_core::ctrl::{run_stage, Budget, Degradation, PipelineOutcome};
use vqi_core::pattern::PatternSet;
use vqi_core::repo::{GraphCollection, GraphRepository};
use vqi_core::score::{coverage_bitsets, QualityWeights};
use vqi_core::select::{anytime_greedy, Scored};
use vqi_core::selector::PatternSelector;
use vqi_graph::canon::canonical_codes;
use vqi_graph::Graph;
use vqi_mining::cluster::DistanceMatrix;
use vqi_mining::similarity::SimilarityMeasure;
use vqi_runtime::{fault, VqiError};

/// A fully assembled modular pipeline.
pub struct ModularPipeline {
    /// Stage 1: graph similarity.
    pub similarity: Box<dyn SimilarityMeasure>,
    /// Stage 2: clustering.
    pub clustering: Box<dyn ClusteringStage>,
    /// Stage 3: cluster merging into continuous graphs.
    pub merger: Box<dyn MergeStage>,
    /// Stage 4: candidate extraction.
    pub extractor: Box<dyn ExtractStage>,
    /// Final-selection score weights.
    pub weights: QualityWeights,
}

impl ModularPipeline {
    /// The default assembly: edge-triple Jaccard similarity, k-medoids,
    /// closure merge, weighted-walk extraction.
    pub fn standard() -> Self {
        ModularPipeline {
            similarity: Box::new(crate::stages::EdgeTripleJaccard),
            clustering: Box::new(crate::stages::KMedoidsStage::default()),
            merger: Box::new(crate::stages::ClosureMerge),
            extractor: Box::new(crate::stages::WalkExtract::default()),
            weights: QualityWeights::default(),
        }
    }

    /// A human-readable description of the assembly.
    pub fn describe(&self) -> String {
        format!(
            "{} / {} / {} / {}",
            self.similarity.name(),
            self.clustering.name(),
            self.merger.name(),
            self.extractor.name()
        )
    }

    /// Runs the pipeline on a collection.
    pub fn run(&self, collection: &GraphCollection, budget: &PatternBudget) -> PatternSet {
        // an unlimited budget cannot trip a stage, so the shared body
        // degenerates to the historical plain pipeline bit for bit
        let mut deg = Degradation::new();
        self.run_impl(collection, budget, &Budget::unlimited(), &mut deg)
            .unwrap_or_default()
    }

    /// Budget-aware pipeline: same stages as [`ModularPipeline::run`],
    /// but every stage honors `ctrl` (deadline, cancel flag, tick
    /// quotas) and is panic-isolated. When nothing trips, the outcome
    /// is `Complete` and bit-identical to the plain entry point; when a
    /// stage is cut, the pipeline keeps everything selected so far
    /// (anytime semantics) and reports the cut stages. `Err` is
    /// returned only under a fail-fast budget.
    pub fn run_ctrl(
        &self,
        collection: &GraphCollection,
        budget: &PatternBudget,
        ctrl: &Budget,
    ) -> Result<PipelineOutcome<PatternSet>, VqiError> {
        let mut deg = Degradation::new();
        let value = self.run_impl(collection, budget, ctrl, &mut deg)?;
        Ok(deg.finish(value))
    }

    /// Shared stage body of the plain and budget-aware pipelines.
    fn run_impl(
        &self,
        collection: &GraphCollection,
        budget: &PatternBudget,
        ctrl: &Budget,
        deg: &mut Degradation,
    ) -> Result<PatternSet, VqiError> {
        let _run = vqi_observe::run("modular.run");
        let ids = collection.ids();
        let n = ids.len();
        if n == 0 {
            return Ok(PatternSet::new());
        }
        let graphs: Vec<&Graph> = ids
            .iter()
            .map(|&id| collection.get(id).expect("live id"))
            .collect();

        // stage 1 + 2: similarity -> distance -> clustering
        let clustered = run_stage(ctrl, "modular.cluster", || {
            fault::maybe_panic("modular.cluster", 0);
            let dist = {
                let _s = vqi_observe::span!("modular.similarity.{}", self.similarity.name());
                DistanceMatrix::from_fn(n, |i, j| {
                    1.0 - self.similarity.similarity(graphs[i], graphs[j])
                })
            };
            let _s = vqi_observe::span!("modular.cluster.{}", self.clustering.name());
            self.clustering.cluster(&dist)
        });
        let clustering = match clustered {
            Ok(c) => c,
            Err(e) => {
                // without a clustering there is nothing to merge
                deg.absorb(ctrl, e)?;
                return Ok(PatternSet::new());
            }
        };
        vqi_observe::incr(
            "modular.clusters",
            clustering
                .clusters()
                .iter()
                .filter(|m| !m.is_empty())
                .count() as u64,
        );

        // stage 3: merge each cluster into a continuous graph
        let merged = run_stage(ctrl, "modular.merge", || {
            let _s = vqi_observe::span!("modular.merge.{}", self.merger.name());
            fault::maybe_panic("modular.merge", 0);
            clustering
                .clusters()
                .into_iter()
                .filter(|m| !m.is_empty())
                .map(|members| {
                    let cluster_graphs: Vec<&Graph> =
                        members.iter().map(|&pos| graphs[pos]).collect();
                    self.merger.merge(&cluster_graphs)
                })
                .collect::<Vec<(Graph, Vec<f64>)>>()
        });
        let merged = match merged {
            Ok(m) => m,
            Err(e) => {
                deg.absorb(ctrl, e)?;
                Vec::new()
            }
        };

        // stage 4: extract candidates (sequential sampling preserves the
        // extractor's RNG stream), then batch-canonicalize and dedup in
        // extraction order — identical output, parallel canonicalization
        let extracted = run_stage(ctrl, "modular.extract", || {
            let _s = vqi_observe::span!("modular.extract.{}", self.extractor.name());
            fault::maybe_panic("modular.extract", 0);
            let mut raw: Vec<Graph> = Vec::new();
            for (cg, weights) in &merged {
                raw.extend(self.extractor.extract(cg, weights, budget));
            }
            let codes = canonical_codes(&raw);
            let mut seen = std::collections::HashSet::new();
            raw.into_iter()
                .zip(codes)
                .filter(|(_, code)| seen.insert(code.clone()))
                .map(|(cand, _)| cand)
                .collect::<Vec<Graph>>()
        });
        let candidates = match extracted {
            Ok(c) => c,
            Err(e) => {
                deg.absorb(ctrl, e)?;
                Vec::new()
            }
        };
        vqi_observe::incr("modular.candidates", candidates.len() as u64);

        // common final selection: greedy coverage/diversity/cognitive-load
        let _select = vqi_observe::span("modular.select");
        let coverages = coverage_bitsets(&candidates, collection, |c| c);
        let provenance = format!("modular:{}", self.describe());
        let pool: Vec<Scored> = candidates
            .into_iter()
            .zip(coverages)
            .filter(|(_, coverage)| coverage.any())
            .map(|(graph, coverage)| Scored::new(graph, coverage, provenance.clone()))
            .collect();
        anytime_greedy(pool, n, budget, self.weights, "modular.select", ctrl, deg)
    }
}

impl PatternSelector for ModularPipeline {
    fn name(&self) -> &'static str {
        "modular"
    }

    fn select(&self, repo: &GraphRepository, budget: &PatternBudget) -> PatternSet {
        match repo {
            GraphRepository::Collection(c) => self.run(c, budget),
            GraphRepository::Network(g) => {
                let col = GraphCollection::new(vec![g.clone()]);
                self.run(&col, budget)
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
            GraphRepository::Collection(c) => self.run_ctrl(c, budget, ctrl),
            GraphRepository::Network(g) => {
                let col = GraphCollection::new(vec![g.clone()]);
                self.run_ctrl(&col, budget, ctrl)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stages::*;
    use vqi_graph::canon::CanonicalCode;
    use vqi_graph::generate::{chain, cycle, star};
    use vqi_graph::traversal::is_connected;

    fn collection() -> GraphCollection {
        let mut graphs = Vec::new();
        for i in 0..5 {
            graphs.push(chain(5 + i % 3, 1, 0));
            graphs.push(cycle(5 + i % 2, 2, 0));
            graphs.push(star(4 + i % 2, 3, 0));
        }
        GraphCollection::new(graphs)
    }

    #[test]
    fn standard_pipeline_selects_valid_patterns() {
        let _guard = crate::fault_test_lock();
        let col = collection();
        let budget = PatternBudget::new(5, 4, 6);
        let set = ModularPipeline::standard().run(&col, &budget);
        assert!(!set.is_empty());
        for p in set.patterns() {
            assert!(budget.admits(&p.graph));
            assert!(is_connected(&p.graph));
            assert!(p.provenance.starts_with("modular:"));
        }
    }

    #[test]
    fn every_assembly_combination_runs() {
        let _guard = crate::fault_test_lock();
        let col = collection();
        let budget = PatternBudget::new(3, 4, 5);
        let sims: Vec<Box<dyn SimilarityMeasure>> =
            vec![Box::new(EdgeTripleJaccard), Box::new(McsSimilarity)];
        for sim in sims {
            for leader in [false, true] {
                for union_merge in [false, true] {
                    for sample in [false, true] {
                        let p = ModularPipeline {
                            similarity: match sim.name() {
                                "mcs" => Box::new(McsSimilarity),
                                _ => Box::new(EdgeTripleJaccard),
                            },
                            clustering: if leader {
                                Box::new(LeaderStage::default())
                            } else {
                                Box::new(KMedoidsStage::default())
                            },
                            merger: if union_merge {
                                Box::new(UnionMerge)
                            } else {
                                Box::new(ClosureMerge)
                            },
                            extractor: if sample {
                                Box::new(SampleExtract::default())
                            } else {
                                Box::new(WalkExtract::default())
                            },
                            weights: QualityWeights::default(),
                        };
                        let set = p.run(&col, &budget);
                        assert!(
                            !set.is_empty(),
                            "assembly {} selected nothing",
                            p.describe()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn describe_names_all_stages() {
        let d = ModularPipeline::standard().describe();
        assert_eq!(d, "edge-triple-jaccard / k-medoids / closure / walk");
    }

    #[test]
    fn empty_collection() {
        let _guard = crate::fault_test_lock();
        let set = ModularPipeline::standard()
            .run(&GraphCollection::new(vec![]), &PatternBudget::default());
        assert!(set.is_empty());
    }

    #[test]
    fn selection_is_identical_across_thread_counts() {
        let _guard = crate::fault_test_lock();
        let col = collection();
        let budget = PatternBudget::new(4, 4, 6);
        let codes_at = |cap: usize| -> Vec<CanonicalCode> {
            vqi_graph::par::set_thread_cap(cap);
            let set = ModularPipeline::standard().run(&col, &budget);
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
        let col = collection();
        let budget = PatternBudget::new(4, 4, 6);
        // warm-up builds every graph's lazily built index and code, so
        // every measured run does the same work
        ModularPipeline::standard().run(&col, &budget);
        let run = || drop(ModularPipeline::standard().run(&col, &budget));
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

    fn codes_in_order(set: &PatternSet) -> Vec<CanonicalCode> {
        set.patterns().iter().map(|p| p.code.clone()).collect()
    }

    #[test]
    fn ctrl_with_unlimited_budget_matches_plain() {
        let _guard = crate::fault_test_lock();
        let col = collection();
        let budget = PatternBudget::new(4, 4, 6);
        let plain = ModularPipeline::standard().run(&col, &budget);
        let out = ModularPipeline::standard()
            .run_ctrl(&col, &budget, &Budget::unlimited())
            .expect("unlimited budget cannot fail");
        assert!(out.completeness.is_complete());
        assert_eq!(codes_in_order(&plain), codes_in_order(&out.value));
    }

    #[test]
    fn select_quota_cancels_mid_selection_deterministically() {
        let _guard = crate::fault_test_lock();
        let col = collection();
        let budget = PatternBudget::new(4, 4, 6);
        let full = ModularPipeline::standard().run(&col, &budget);
        assert!(full.len() >= 3, "need enough rounds to cut");
        // the selection meter ticks once per round: a 2-tick quota
        // keeps exactly the first two picks, at any thread count
        let ctrl = Budget::unlimited().with_kernel_ticks(2);
        let mut per_cap = Vec::new();
        for cap in [1usize, 2, 4] {
            vqi_graph::par::set_thread_cap(cap);
            let out = ModularPipeline::standard()
                .run_ctrl(&col, &budget, &ctrl)
                .expect("not fail-fast");
            vqi_graph::par::set_thread_cap(0);
            assert!(!out.completeness.is_complete(), "cap {cap} should degrade");
            per_cap.push(codes_in_order(&out.value));
        }
        assert_eq!(per_cap[0], per_cap[1]);
        assert_eq!(per_cap[0], per_cap[2]);
        assert_eq!(per_cap[0].len(), 2);
        // the degraded set is a prefix of the full selection
        assert_eq!(&per_cap[0][..], &codes_in_order(&full)[..2]);
    }

    #[test]
    fn injected_faults_degrade_deterministically() {
        let _guard = crate::fault_test_lock();
        let col = collection();
        let budget = PatternBudget::new(4, 4, 6);
        for (panic_rate, timeout_rate) in [(1.0, 0.0), (0.0, 1.0)] {
            for seed in [1u64, 2] {
                let mut runs = Vec::new();
                for cap in [1usize, 2, 4] {
                    let _plan = with_plan(vqi_runtime::fault::FaultPlan {
                        seed,
                        panic_rate,
                        timeout_rate,
                        ..Default::default()
                    });
                    vqi_graph::par::set_thread_cap(cap);
                    let out = ModularPipeline::standard()
                        .run_ctrl(&col, &budget, &Budget::unlimited())
                        .expect("faults must be absorbed, not propagated");
                    vqi_graph::par::set_thread_cap(0);
                    assert!(
                        !out.completeness.is_complete(),
                        "seed {seed} cap {cap}: total fault plan must degrade"
                    );
                    runs.push((codes_in_order(&out.value), out.completeness));
                }
                assert_eq!(runs[0], runs[1], "seed {seed}");
                assert_eq!(runs[0], runs[2], "seed {seed}");
            }
        }
    }

    #[test]
    fn fail_fast_propagates_the_first_fault() {
        let _guard = crate::fault_test_lock();
        let col = collection();
        let budget = PatternBudget::new(4, 4, 6);
        let _plan = with_plan(vqi_runtime::fault::FaultPlan {
            seed: 3,
            panic_rate: 1.0,
            ..Default::default()
        });
        let ctrl = Budget::unlimited().with_fail_fast(true);
        let out = ModularPipeline::standard().run_ctrl(&col, &budget, &ctrl);
        assert!(out.is_err(), "fail-fast must propagate the stage fault");
    }
}
