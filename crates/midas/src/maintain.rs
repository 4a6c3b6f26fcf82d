//! MIDAS state and the batch-maintenance procedure.

use catapult::candidates::{generate_candidates, WalkParams};
use catapult::pipeline::{Catapult, CatapultConfig};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use vqi_core::bitset::BitSet;
use vqi_core::budget::PatternBudget;
use vqi_core::ctrl::{run_stage, Budget, Degradation, PipelineOutcome};
use vqi_core::pattern::PatternSet;
use vqi_core::repo::{BatchUpdate, GraphCollection};
use vqi_core::score::{coverage_bitsets, QualityWeights};
use vqi_core::select::{swap_refine, Scored, SwapStats};
use vqi_graph::graphlet::{
    count_graphlets_ctrl, euclidean_distance, GraphletCounts, GRAPHLET_CLASSES,
};
use vqi_graph::par;
use vqi_graph::Graph;
use vqi_mining::closure::ClusterSummaryGraph;
use vqi_mining::fct::FctIndex;
use vqi_mining::features::cosine_distance;
use vqi_mining::fst::MineParams;
use vqi_runtime::error::panic_reason;
use vqi_runtime::{fault, VqiError};

/// MIDAS configuration.
#[derive(Debug, Clone, Copy)]
pub struct MidasConfig {
    /// GFD Euclidean-distance threshold separating minor from major
    /// modifications.
    pub drift_threshold: f64,
    /// Maximum feature distance at which a new graph joins an existing
    /// cluster; farther graphs found new clusters.
    pub assign_threshold: f64,
    /// FCT mining parameters (support is absolute).
    pub mine: MineParams,
    /// Candidate-walk parameters for major modifications.
    pub walks: WalkParams,
    /// Swap scans per maintenance pass.
    pub swap_scans: usize,
    /// Score weights (must match the bootstrap selection's weights).
    pub weights: QualityWeights,
    /// RNG seed.
    pub seed: u64,
    /// Number of recent batches whose per-batch GFD drifts are summed
    /// into the sliding-window drift signal that decides minor vs
    /// major. At the default `1` the decision depends on the current
    /// batch alone (the classic MIDAS rule); larger windows let slow
    /// structural shifts — each batch individually below
    /// `drift_threshold` — still escalate to a major modification once
    /// their accumulated drift crosses the threshold. The window is
    /// cleared after every major modification (maintenance re-baselines
    /// the stream) and failed censuses contribute nothing.
    pub drift_window: usize,
}

impl Default for MidasConfig {
    fn default() -> Self {
        MidasConfig {
            drift_threshold: 0.05,
            assign_threshold: 0.4,
            mine: MineParams {
                min_support: 2,
                max_nodes: 4,
            },
            walks: WalkParams::default(),
            swap_scans: 8,
            weights: QualityWeights::default(),
            seed: 0x314DA5,
            drift_window: 1,
        }
    }
}

/// Kind of modification a batch caused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Modification {
    /// GFD drift below threshold: clusters/CSGs refreshed, patterns kept.
    Minor,
    /// GFD drift at/above threshold, or a maintained pattern occurs
    /// nowhere after the batch: pattern maintenance ran.
    Major,
}

/// How the GFD census of a maintenance pass was obtained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CensusMode {
    /// Per-graph counts of surviving graphs were reused from the cache;
    /// only graphs added by the batch were counted — O(delta) work.
    Delta,
    /// Every live graph was counted from scratch (cold cache, e.g. the
    /// first census after growing from an empty collection).
    Full,
    /// The census failed (deadline, tick quota, cancellation, or an
    /// injected panic); the previous GFD was kept and no drift was
    /// measured for this batch.
    Skipped,
}

/// Report of one maintenance pass.
#[derive(Debug, Clone)]
pub struct MaintenanceReport {
    /// Minor or major.
    pub modification: Modification,
    /// Euclidean distance between the old and new GFDs.
    pub gfd_distance: f64,
    /// Number of accepted pattern swaps.
    pub swaps: usize,
    /// Candidates considered by the swapping strategy.
    pub candidates_considered: usize,
    /// Candidates removed by coverage-based pruning.
    pub candidates_pruned: usize,
    /// Clusters whose membership changed (CSG rebuilt).
    pub clusters_touched: usize,
    /// Sliding-window drift signal: the sum of the last
    /// [`MidasConfig::drift_window`] per-batch GFD drifts (this batch
    /// included). This, not `gfd_distance`, is what the minor/major
    /// decision compares against `drift_threshold`.
    pub windowed_drift: f64,
    /// How the census behind `gfd_distance` was obtained.
    pub census_mode: CensusMode,
    /// Graphs whose graphlet counts were computed fresh this pass.
    pub census_computed: usize,
    /// Graphs whose cached graphlet counts were reused.
    pub census_reused: usize,
}

/// One maintained cluster.
#[derive(Debug, Clone)]
struct ClusterInfo {
    /// Live member graph ids.
    members: Vec<usize>,
    /// Graph id of the representative (medoid).
    medoid: usize,
}

/// The MIDAS maintainer: owns the collection snapshot and all derived
/// state.
pub struct Midas {
    config: MidasConfig,
    budget: PatternBudget,
    /// The maintained repository.
    pub collection: GraphCollection,
    /// The FCT index; its closed trees are the feature vocabulary and
    /// its support sets give the feature vectors.
    fct: FctIndex,
    clusters: Vec<ClusterInfo>,
    csgs: Vec<Option<ClusterSummaryGraph>>,
    /// The maintained canned pattern set.
    pub patterns: PatternSet,
    pattern_bitsets: Vec<BitSet>,
    gfd: [f64; GRAPHLET_CLASSES],
    /// Per-graph graphlet counts keyed by collection id. Graph ids are
    /// never recycled by [`GraphCollection::apply`], so an entry stays
    /// valid for as long as its graph lives; dead entries are pruned on
    /// every successful census.
    census_cache: HashMap<usize, GraphletCounts>,
    /// Per-batch GFD drifts of recent successful censuses, oldest
    /// first; the sliding-window signal sums its `drift_window` tail.
    drift_series: Vec<f64>,
}

impl Midas {
    /// Bootstraps MIDAS from an initial collection: runs a CATAPULT
    /// selection (with FCT features) and derives all maintainable state.
    pub fn bootstrap(
        collection: GraphCollection,
        budget: PatternBudget,
        config: MidasConfig,
    ) -> Self {
        // initial selection via CATAPULT
        let cat = Catapult::new(CatapultConfig {
            max_feature_nodes: config.mine.max_nodes,
            seed: config.seed,
            weights: config.weights,
            walks: config.walks,
            ..Default::default()
        });
        let (patterns, state) = cat.run_with_state(&collection, &budget);

        // FCT index over the same collection
        let graphs: Vec<(usize, &Graph)> = state
            .graph_ids
            .iter()
            .map(|&id| (id, collection.get(id).expect("live")))
            .collect();
        let fct = FctIndex::build(&graphs, config.mine);

        // clusters from the CATAPULT state
        let clusters: Vec<ClusterInfo> = state
            .clustering
            .clusters()
            .into_iter()
            .filter(|m| !m.is_empty())
            .map(|members| {
                let ids: Vec<usize> = members.iter().map(|&pos| state.graph_ids[pos]).collect();
                ClusterInfo {
                    medoid: ids[0],
                    members: ids,
                }
            })
            .collect();
        let csgs: Vec<Option<ClusterSummaryGraph>> = clusters
            .iter()
            .map(|c| ClusterSummaryGraph::build(&c.members, |id| collection.get(id).expect("live")))
            .collect();

        let mut census_cache = HashMap::new();
        let (gfd, _, _) =
            Self::collection_gfd_cached(&mut census_cache, &collection, &Budget::unlimited())
                .expect("unlimited-budget census cannot fail");
        let pattern_bitsets = Self::bitsets_for(&patterns, &collection);

        Midas {
            config,
            budget,
            collection,
            fct,
            clusters,
            csgs,
            patterns,
            pattern_bitsets,
            gfd,
            census_cache,
            drift_series: Vec::new(),
        }
    }

    /// Coverage bitsets of every pattern over the live collection,
    /// matched through each graph's stored index.
    fn bitsets_for(patterns: &PatternSet, collection: &GraphCollection) -> Vec<BitSet> {
        coverage_bitsets(patterns.patterns(), collection, |p| &p.graph)
    }

    /// The collection's GFD via the per-graph census cache: only graphs
    /// with no cached counts (the batch's additions, or everything on a
    /// cold cache) are counted, in parallel, and live per-graph counts
    /// are folded in ascending id order. Each graph's census is exact
    /// `u64` counts, so the cached distribution is bit-identical to a
    /// full recompute at any thread count.
    ///
    /// Returns `(distribution, computed, reused)`. On error (budget
    /// trip inside the graphlet kernel — first failing id wins,
    /// deterministically) the cache is left exactly as it was: entries
    /// are inserted only when every missing graph counted successfully,
    /// so a failed census can never leak partial state into the next
    /// pass. Dead ids are pruned on success; ids are never recycled by
    /// [`GraphCollection::apply`], so stale survivors of a failed pass
    /// are a memory concern only, never a correctness one.
    fn collection_gfd_cached(
        cache: &mut HashMap<usize, GraphletCounts>,
        collection: &GraphCollection,
        ctrl: &Budget,
    ) -> Result<([f64; GRAPHLET_CLASSES], usize, usize), VqiError> {
        ctrl.check("kernel.graphlet")?;
        let _s = vqi_observe::span("midas.census");
        let ids = collection.ids();
        let missing: Vec<usize> = ids
            .iter()
            .copied()
            .filter(|id| !cache.contains_key(id))
            .collect();
        let computed = missing.len();
        let reused = ids.len() - computed;
        vqi_observe::incr("midas.census.computed", computed as u64);
        vqi_observe::incr("midas.census.reused", reused as u64);
        let fresh: Vec<Result<GraphletCounts, VqiError>> = par::map(&missing, |&id| {
            let g = collection.get(id).expect("live id");
            count_graphlets_ctrl(g, ctrl)
        });
        let mut counted = Vec::with_capacity(computed);
        for r in fresh {
            counted.push(r?);
        }
        cache.retain(|id, _| ids.binary_search(id).is_ok());
        for (id, c) in missing.into_iter().zip(counted) {
            cache.insert(id, c);
        }
        let mut total = GraphletCounts::default();
        for id in &ids {
            total.add(&cache[id]);
        }
        Ok((total.distribution(), computed, reused))
    }

    /// The current graphlet frequency distribution.
    pub fn gfd(&self) -> [f64; GRAPHLET_CLASSES] {
        self.gfd
    }

    /// Number of maintained clusters.
    pub fn cluster_count(&self) -> usize {
        self.clusters.len()
    }

    /// Applies a batch update to the repository and maintains the pattern
    /// set per the MIDAS procedure.
    pub fn apply_update(&mut self, update: BatchUpdate) -> MaintenanceReport {
        let mut deg = Degradation::new();
        self.apply_update_impl(update, &Budget::unlimited(), &mut deg)
            // unreachable with an unlimited, non-fail-fast budget; a
            // zeroed minor report keeps the fallback panic-free
            .unwrap_or(MaintenanceReport {
                modification: Modification::Minor,
                gfd_distance: 0.0,
                swaps: 0,
                candidates_considered: 0,
                candidates_pruned: 0,
                clusters_touched: 0,
                windowed_drift: 0.0,
                census_mode: CensusMode::Skipped,
                census_computed: 0,
                census_reused: 0,
            })
    }

    /// Budget-aware maintenance: identical to [`Self::apply_update`]
    /// when nothing trips, an anytime outcome otherwise. Stages that
    /// fail (deadline, tick quota, cancellation, injected or real
    /// panics) are skipped with the previous state retained — in
    /// particular a failed GFD census keeps the old distribution, so
    /// the accumulated drift is seen by the next successful census —
    /// and the outcome reports which stages were cut. The collection
    /// itself always reflects the batch, and `patterns` /
    /// `pattern_bitsets` always stay mutually consistent. `Err` is
    /// returned only under [`Budget::with_fail_fast`].
    pub fn apply_update_ctrl(
        &mut self,
        update: BatchUpdate,
        ctrl: &Budget,
    ) -> Result<PipelineOutcome<MaintenanceReport>, VqiError> {
        let mut deg = Degradation::new();
        let report = self.apply_update_impl(update, ctrl, &mut deg)?;
        Ok(deg.finish(report))
    }

    fn apply_update_impl(
        &mut self,
        update: BatchUpdate,
        ctrl: &Budget,
        deg: &mut Degradation,
    ) -> Result<MaintenanceReport, VqiError> {
        let _run = vqi_observe::run("midas.apply_update");
        let removed = update.removals.clone();
        let new_ids = self.collection.apply(update);
        vqi_observe::incr("midas.update.added", new_ids.len() as u64);
        vqi_observe::incr("midas.update.removed", removed.len() as u64);

        // 1. FCT maintenance. On failure the pre-batch vocabulary is
        // kept and the index does not hold the batch's additions:
        // addition assignment below probes them against stale features.
        // The index drops every id it holds that the collection no
        // longer does: this batch's removals and those of any earlier
        // batch whose stage was skipped, so no dead id is ever looked up.
        let collection_ref = &self.collection;
        let indexed = |id: usize| {
            let entry = collection_ref.entry(id).expect("live id");
            (entry.graph(), entry.index())
        };
        let dead: Vec<usize> = self
            .fct
            .held()
            .filter(|&id| collection_ref.get(id).is_none())
            .collect();
        if let Err(e) = run_stage(ctrl, "midas.fct", || {
            fault::maybe_panic("midas.fct", 0);
            let _s = vqi_observe::span("midas.fct_maintain");
            self.fct.apply_batch(&new_ids, &dead, indexed);
        }) {
            deg.absorb(ctrl, e)?;
        }

        // 2. cluster maintenance: drop removed members, assign additions
        let cluster_span = vqi_observe::span("midas.cluster_maintain");
        let mut touched: Vec<usize> = Vec::new();
        for (ci, cluster) in self.clusters.iter_mut().enumerate() {
            let before = cluster.members.len();
            cluster.members.retain(|m| !removed.contains(m));
            if cluster.members.len() != before {
                touched.push(ci);
                if !cluster.members.contains(&cluster.medoid) {
                    if let Some(&first) = cluster.members.first() {
                        cluster.medoid = first;
                    }
                }
            }
        }
        // Drop emptied clusters while keeping `csgs` and `touched`
        // aligned with the surviving indices. A bare `retain` here used
        // to shift every cluster after a removed one, so later CSG
        // rebuilds (and the addition assignments below) indexed the
        // wrong clusters.
        if self.clusters.iter().any(|c| c.members.is_empty()) {
            let mut old_to_new = vec![usize::MAX; self.clusters.len()];
            let mut kept = 0usize;
            for (old, c) in self.clusters.iter().enumerate() {
                if !c.members.is_empty() {
                    old_to_new[old] = kept;
                    kept += 1;
                }
            }
            self.clusters.retain(|c| !c.members.is_empty());
            let old_csgs = std::mem::take(&mut self.csgs);
            self.csgs = vec![None; kept];
            for (old, csg) in old_csgs.into_iter().enumerate() {
                let new = old_to_new.get(old).copied().unwrap_or(usize::MAX);
                if new != usize::MAX {
                    self.csgs[new] = csg;
                }
            }
            touched = touched
                .into_iter()
                .filter_map(|old| old_to_new.get(old).copied())
                .filter(|&new| new != usize::MAX)
                .collect();
        }

        // Feature vectors of every medoid and every addition, read off
        // the FCT index once per batch. Assignment never moves a medoid,
        // so `medoid_vecs` stays aligned with `clusters`.
        let mut wanted: Vec<usize> = self.clusters.iter().map(|c| c.medoid).collect();
        wanted.extend(&new_ids);
        let mut medoid_vecs = self.fct.vectors(&wanted, indexed);
        let added_vecs = medoid_vecs.split_off(self.clusters.len());
        for (&id, vec_new) in new_ids.iter().zip(added_vecs) {
            let assigned = medoid_vecs
                .iter()
                .map(|vec_medoid| cosine_distance(&vec_new, vec_medoid))
                .enumerate()
                .min_by(|a, b| a.1.total_cmp(&b.1));
            match assigned {
                Some((ci, d)) if d <= self.config.assign_threshold => {
                    self.clusters[ci].members.push(id);
                    touched.push(ci);
                }
                _ => {
                    self.clusters.push(ClusterInfo {
                        members: vec![id],
                        medoid: id,
                    });
                    medoid_vecs.push(vec_new);
                    touched.push(self.clusters.len() - 1);
                }
            }
        }
        touched.sort_unstable();
        touched.dedup();
        drop(cluster_span);
        vqi_observe::incr("midas.clusters.touched", touched.len() as u64);

        // 3. rebuild CSGs of touched clusters (and resize the csg list).
        // Each build is panic-isolated per cluster: a lost build leaves
        // `None`, which the sync pass below retries once; a cluster
        // whose CSG stays `None` simply contributes no candidates.
        let csg_span = vqi_observe::span("midas.csg_rebuild");
        self.csgs.resize(self.clusters.len(), None);
        self.csgs.truncate(self.clusters.len());
        let collection_ref = &self.collection;
        let mut csg_cut = false;
        for &ci in &touched {
            if ci >= self.clusters.len() {
                continue;
            }
            if let Err(e) = ctrl.check("midas.csg") {
                deg.absorb(ctrl, e)?;
                csg_cut = true;
                break;
            }
            let members = &self.clusters[ci].members;
            match catch_unwind(AssertUnwindSafe(|| {
                fault::maybe_panic("midas.csg", ci as u64);
                ClusterSummaryGraph::build(members, |id| collection_ref.get(id).expect("live id"))
            })) {
                Ok(csg) => self.csgs[ci] = csg,
                Err(payload) => {
                    self.csgs[ci] = None;
                    deg.absorb(
                        ctrl,
                        VqiError::Panic {
                            stage: "midas.csg".into(),
                            reason: panic_reason(payload.as_ref()),
                        },
                    )?;
                }
            }
        }
        // clusters may have shrunk: rebuild any CSG now out of sync
        // (this pass also retries builds the loop above lost to a panic)
        if !csg_cut {
            for (ci, c) in self.clusters.iter().enumerate() {
                if self.csgs.get(ci).is_some_and(|csg| csg.is_none()) {
                    match catch_unwind(AssertUnwindSafe(|| {
                        fault::maybe_panic("midas.csg", ci as u64);
                        ClusterSummaryGraph::build(&c.members, |id| {
                            collection_ref.get(id).expect("live id")
                        })
                    })) {
                        Ok(csg) => self.csgs[ci] = csg,
                        Err(payload) => {
                            deg.absorb(
                                ctrl,
                                VqiError::Panic {
                                    stage: "midas.csg".into(),
                                    reason: panic_reason(payload.as_ref()),
                                },
                            )?;
                        }
                    }
                }
            }
        }
        drop(csg_span);

        // 4. GFD drift decides minor vs major. The census runs through
        // the per-graph cache (O(delta): only the batch's additions are
        // counted) and a failed census keeps the previous distribution
        // and reports no measured drift: pattern maintenance is skipped
        // for this batch, and the next successful census sees the
        // accumulated drift instead. The decision compares the
        // *windowed* drift — the sum of the last `drift_window`
        // per-batch drifts — so slow shifts spread across batches still
        // escalate instead of being re-baselined away each pass.
        let gfd_span = vqi_observe::span("midas.gfd_drift");
        let (cache, collection) = (&mut self.census_cache, &self.collection);
        let census = run_stage(ctrl, "midas.gfd", || {
            fault::maybe_panic("midas.gfd", 0);
            Self::collection_gfd_cached(cache, collection, ctrl)
        })
        .and_then(|r| r);
        let (gfd_distance, windowed_drift, census_mode, census_computed, census_reused) =
            match census {
                Ok((new_gfd, computed, reused)) => {
                    let d = euclidean_distance(&self.gfd, &new_gfd);
                    self.gfd = new_gfd;
                    let w = self.config.drift_window.max(1);
                    self.drift_series.push(d);
                    if self.drift_series.len() > 4 * w {
                        let cut = self.drift_series.len() - w;
                        self.drift_series.drain(..cut);
                    }
                    let len = self.drift_series.len();
                    let windowed: f64 = self.drift_series[len.saturating_sub(w)..].iter().sum();
                    let mode = if reused > 0 {
                        CensusMode::Delta
                    } else {
                        CensusMode::Full
                    };
                    (d, windowed, mode, computed, reused)
                }
                Err(e) => {
                    deg.absorb(ctrl, e)?;
                    (0.0, 0.0, CensusMode::Skipped, 0, 0)
                }
            };
        drop(gfd_span);
        vqi_observe::gauge_set("midas.gfd_distance_e6", (gfd_distance * 1e6) as i64);
        vqi_observe::gauge_set("midas.windowed_drift_e6", (windowed_drift * 1e6) as i64);

        // bitsets must reflect the updated collection in either case
        self.pattern_bitsets = Self::bitsets_for(&self.patterns, &self.collection);
        // a pattern the batch left occurring nowhere forces maintenance
        // whatever the drift, so the swap below can replace it
        let dead_pattern = self.pattern_bitsets.iter().any(|b| !b.any());

        if windowed_drift < self.config.drift_threshold && !dead_pattern {
            vqi_observe::incr("midas.drift.minor", 1);
            return Ok(MaintenanceReport {
                modification: Modification::Minor,
                gfd_distance,
                swaps: 0,
                candidates_considered: 0,
                candidates_pruned: 0,
                clusters_touched: touched.len(),
                windowed_drift,
                census_mode,
                census_computed,
                census_reused,
            });
        }

        vqi_observe::incr("midas.drift.major", 1);
        // maintenance acts on the accumulated drift: re-baseline the
        // sliding window so the next batches measure fresh drift
        self.drift_series.clear();

        // 5. major: candidates from touched CSGs, then multi-scan
        // swapping. A lost candidate stage degrades to an empty swap
        // pool, so the swap below becomes a no-op and the stale
        // patterns are kept.
        let swap_cands = match run_stage(ctrl, "midas.candidates", || {
            fault::maybe_panic("midas.candidates", 0);
            let _s = vqi_observe::span("midas.candidates");
            let touched_csgs: Vec<ClusterSummaryGraph> = touched
                .iter()
                .filter_map(|&ci| self.csgs.get(ci).and_then(|c| c.clone()))
                .collect();
            let mut rng = SmallRng::seed_from_u64(self.config.seed ^ 0x5A5A);
            let walk_cands =
                generate_candidates(&touched_csgs, &self.budget, self.config.walks, &mut rng);
            let coverages = coverage_bitsets(&walk_cands, collection_ref, |c| &c.graph);
            walk_cands
                .into_iter()
                .zip(coverages)
                .filter(|(_, coverage)| coverage.any())
                .map(|(c, coverage)| Scored::new(c.graph, c.code, coverage, "midas:swap".into()))
                .collect::<Vec<Scored>>()
        }) {
            Ok(cands) => cands,
            Err(e) => {
                deg.absorb(ctrl, e)?;
                Vec::new()
            }
        };
        vqi_observe::incr("midas.candidates.viable", swap_cands.len() as u64);

        // The swap mutates `patterns` / `pattern_bitsets` in place and
        // is not re-entrant, so the budget gates it up front instead of
        // unwinding it mid-flight.
        let gate = ctrl.check("midas.swap").and_then(|()| {
            if fault::maybe_timeout("midas.swap", 0) {
                Err(VqiError::DeadlineExceeded {
                    stage: "midas.swap".into(),
                })
            } else {
                Ok(())
            }
        });
        let stats: SwapStats = match gate {
            Ok(()) => {
                let _s = vqi_observe::span("midas.swap");
                swap_refine(
                    &mut self.patterns,
                    &mut self.pattern_bitsets,
                    swap_cands,
                    self.config.swap_scans,
                    self.config.weights,
                    "midas.swap",
                )
            }
            Err(e) => {
                deg.absorb(ctrl, e)?;
                SwapStats::default()
            }
        };

        Ok(MaintenanceReport {
            modification: Modification::Major,
            gfd_distance,
            swaps: stats.swaps,
            candidates_considered: stats.considered,
            candidates_pruned: stats.pruned,
            clusters_touched: touched.len(),
            windowed_drift,
            census_mode,
            census_computed,
            census_reused,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vqi_core::repo::GraphRepository;
    use vqi_core::score::{evaluate, pattern_coverage};
    use vqi_graph::generate::{chain, clique, cycle, star};

    fn initial_graphs() -> Vec<Graph> {
        let mut v = Vec::new();
        for i in 0..5 {
            v.push(chain(5 + i % 2, 1, 0));
            v.push(cycle(5 + i % 2, 2, 0));
        }
        v
    }

    fn budget() -> PatternBudget {
        PatternBudget::new(4, 4, 6)
    }

    #[test]
    fn bootstrap_builds_state() {
        let _guard = crate::fault_test_lock();
        let m = Midas::bootstrap(
            GraphCollection::new(initial_graphs()),
            budget(),
            MidasConfig::default(),
        );
        assert!(m.cluster_count() > 0);
        assert!(!m.patterns.is_empty());
        assert_eq!(m.pattern_bitsets.len(), m.patterns.len());
        let sum: f64 = m.gfd().iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn small_batch_is_minor() {
        let _guard = crate::fault_test_lock();
        let mut m = Midas::bootstrap(
            GraphCollection::new(initial_graphs()),
            budget(),
            MidasConfig::default(),
        );
        // one more chain: structurally nothing new
        let report = m.apply_update(BatchUpdate::adding(vec![chain(5, 1, 0)]));
        assert_eq!(report.modification, Modification::Minor);
        assert_eq!(report.swaps, 0);
    }

    #[test]
    fn structural_shift_is_major() {
        let _guard = crate::fault_test_lock();
        let mut m = Midas::bootstrap(
            GraphCollection::new(initial_graphs()),
            budget(),
            MidasConfig::default(),
        );
        // flood the repository with cliques and stars: GFD shifts hard
        let mut batch = Vec::new();
        for _ in 0..10 {
            batch.push(clique(5, 3, 0));
            batch.push(star(6, 4, 0));
        }
        let report = m.apply_update(BatchUpdate::adding(batch));
        assert_eq!(report.modification, Modification::Major);
    }

    #[test]
    fn quality_never_decreases_on_major_update() {
        let _guard = crate::fault_test_lock();
        let mut m = Midas::bootstrap(
            GraphCollection::new(initial_graphs()),
            budget(),
            MidasConfig::default(),
        );
        let stale = m.patterns.clone();
        let mut batch = Vec::new();
        for i in 0..12 {
            batch.push(clique(4 + i % 2, 3, 0));
            batch.push(star(5 + i % 3, 4, 0));
        }
        let report = m.apply_update(BatchUpdate::adding(batch));
        assert_eq!(report.modification, Modification::Major);
        let repo = GraphRepository::Collection(m.collection.clone());
        let w = m.config.weights;
        let stale_q = evaluate(&stale, &repo, w);
        let fresh_q = evaluate(&m.patterns, &repo, w);
        assert!(
            fresh_q.score >= stale_q.score - 1e-9,
            "maintained {:.4} < stale {:.4}",
            fresh_q.score,
            stale_q.score
        );
    }

    #[test]
    fn a_pattern_left_occurring_nowhere_forces_maintenance() {
        let _guard = crate::fault_test_lock();
        // no drift can escalate, so only the dead-pattern rule can
        let config = MidasConfig {
            drift_threshold: f64::INFINITY,
            ..Default::default()
        };
        let mut m = Midas::bootstrap(GraphCollection::new(initial_graphs()), budget(), config);
        let dead_on = |m: &Midas, c: &GraphCollection| {
            let coverages = m.patterns.graphs().map(|p| pattern_coverage(p, c));
            coverages.filter(|&cov| cov == 0.0).count()
        };
        // the cycles (odd ids) carry label 2, which no chain has
        let chains = GraphCollection::new(initial_graphs().into_iter().step_by(2).collect());
        let dead_before = dead_on(&m, &chains);
        assert!(dead_before > 0, "bootstrap picked no cycle-only pattern");
        // remove the cycles and add relabelled ones: the swap has viable
        // replacements
        let report = m.apply_update(BatchUpdate {
            additions: (0..3).map(|i| cycle(5 + i % 2, 3, 0)).collect(),
            removals: (1..10).step_by(2).collect(),
        });
        assert_eq!(report.modification, Modification::Major);
        assert!(report.swaps > 0, "no swap replaced a dead pattern");
        assert!(dead_on(&m, &m.collection) < dead_before);
    }

    #[test]
    fn bootstrap_empty_then_grow() {
        let _guard = crate::fault_test_lock();
        let mut m = Midas::bootstrap(
            GraphCollection::new(vec![]),
            budget(),
            MidasConfig::default(),
        );
        assert_eq!(m.cluster_count(), 0);
        assert!(m.patterns.is_empty());
        // growing from empty assigns everything to fresh clusters
        let report = m.apply_update(BatchUpdate::adding(vec![
            chain(5, 1, 0),
            chain(6, 1, 0),
            cycle(5, 2, 0),
        ]));
        assert_eq!(m.collection.len(), 3);
        assert!(m.cluster_count() > 0);
        assert!(report.clusters_touched > 0);
    }

    #[test]
    fn removals_update_clusters() {
        let _guard = crate::fault_test_lock();
        let mut m = Midas::bootstrap(
            GraphCollection::new(initial_graphs()),
            budget(),
            MidasConfig::default(),
        );
        let before = m.collection.len();
        let report = m.apply_update(BatchUpdate::removing(vec![0, 2]));
        assert_eq!(m.collection.len(), before - 2);
        assert!(report.clusters_touched > 0);
    }

    #[test]
    fn maintenance_is_identical_across_thread_counts() {
        let _guard = crate::fault_test_lock();
        use vqi_graph::canon::CanonicalCode;
        let run_at = |cap: usize| -> (Vec<CanonicalCode>, [f64; GRAPHLET_CLASSES]) {
            par::set_thread_cap(cap);
            let mut m = Midas::bootstrap(
                GraphCollection::new(initial_graphs()),
                budget(),
                MidasConfig::default(),
            );
            let mut batch = Vec::new();
            for _ in 0..10 {
                batch.push(clique(5, 3, 0));
                batch.push(star(6, 4, 0));
            }
            let report = m.apply_update(BatchUpdate::adding(batch));
            assert_eq!(report.modification, Modification::Major);
            par::set_thread_cap(0);
            let mut codes: Vec<CanonicalCode> = m
                .patterns
                .patterns()
                .iter()
                .map(|p| p.code.clone())
                .collect();
            codes.sort();
            (codes, m.gfd())
        };
        let one = run_at(1);
        assert!(!one.0.is_empty());
        assert_eq!(one, run_at(2), "cap 2 changed maintenance results");
        assert_eq!(one, run_at(4), "cap 4 changed maintenance results");
    }

    #[test]
    fn observability_is_identical_across_thread_counts() {
        let _guard = crate::fault_test_lock();
        let maintain = || {
            let mut m = Midas::bootstrap(
                GraphCollection::new(initial_graphs()),
                budget(),
                MidasConfig::default(),
            );
            let mut batch = Vec::new();
            for _ in 0..10 {
                batch.push(clique(5, 3, 0));
                batch.push(star(6, 4, 0));
            }
            m.apply_update(BatchUpdate::adding(batch));
        };
        // warm-up fills the kernel caches so every measured run sees
        // the same cache-hit pattern
        maintain();
        let one = observed_aggregates(1, maintain);
        assert!(!one.0.is_empty(), "no spans recorded");
        assert!(one.1.values().sum::<u64>() > 0, "no journal events");
        assert_eq!(
            one,
            observed_aggregates(2, maintain),
            "cap 2 changed the observability output"
        );
        assert_eq!(
            one,
            observed_aggregates(4, maintain),
            "cap 4 changed the observability output"
        );
    }

    /// [`vqi_observe::invariant_aggregates`] of `work` at thread cap `cap`.
    fn observed_aggregates(
        cap: usize,
        work: impl Fn(),
    ) -> (Vec<(String, u64)>, std::collections::BTreeMap<String, u64>) {
        par::set_thread_cap(cap);
        let aggregates = vqi_observe::invariant_aggregates(work);
        par::set_thread_cap(0);
        aggregates
    }

    #[test]
    fn maintained_patterns_still_occur() {
        let _guard = crate::fault_test_lock();
        let mut m = Midas::bootstrap(
            GraphCollection::new(initial_graphs()),
            budget(),
            MidasConfig::default(),
        );
        let mut batch = Vec::new();
        for _ in 0..10 {
            batch.push(clique(5, 3, 0));
        }
        m.apply_update(BatchUpdate::adding(batch));
        for p in m.patterns.patterns() {
            let cov = vqi_core::score::pattern_coverage(&p.graph, &m.collection);
            assert!(cov > 0.0, "pattern {} no longer occurs", p.id.0);
        }
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

    fn sorted_codes(set: &PatternSet) -> Vec<vqi_graph::canon::CanonicalCode> {
        let mut codes: Vec<_> = set.patterns().iter().map(|p| p.code.clone()).collect();
        codes.sort();
        codes
    }

    fn major_batch() -> Vec<Graph> {
        let mut batch = Vec::new();
        for _ in 0..10 {
            batch.push(clique(5, 3, 0));
            batch.push(star(6, 4, 0));
        }
        batch
    }

    #[test]
    fn ctrl_with_unlimited_budget_matches_plain() {
        let _guard = crate::fault_test_lock();
        let mut plain = Midas::bootstrap(
            GraphCollection::new(initial_graphs()),
            budget(),
            MidasConfig::default(),
        );
        let mut ctrl = Midas::bootstrap(
            GraphCollection::new(initial_graphs()),
            budget(),
            MidasConfig::default(),
        );
        let want = plain.apply_update(BatchUpdate::adding(major_batch()));
        let got = ctrl
            .apply_update_ctrl(BatchUpdate::adding(major_batch()), &Budget::unlimited())
            .expect("non-fail-fast never errors");
        assert!(got.completeness.is_complete());
        assert_eq!(got.value.modification, want.modification);
        assert_eq!(got.value.gfd_distance, want.gfd_distance);
        assert_eq!(got.value.swaps, want.swaps);
        assert_eq!(got.value.clusters_touched, want.clusters_touched);
        assert_eq!(sorted_codes(&ctrl.patterns), sorted_codes(&plain.patterns));
        assert_eq!(ctrl.gfd(), plain.gfd());
    }

    #[test]
    fn cached_census_matches_full_recompute() {
        let _guard = crate::fault_test_lock();
        use vqi_graph::graphlet::count_graphlets_par;
        let mut m = Midas::bootstrap(
            GraphCollection::new(initial_graphs()),
            budget(),
            MidasConfig::default(),
        );
        let live = m.collection.len();
        // mixed batch: two removals, two additions — only the additions
        // may be counted fresh
        let r1 = m.apply_update(BatchUpdate {
            additions: vec![clique(5, 3, 0), chain(7, 1, 0)],
            removals: vec![1, 4],
        });
        assert_eq!(r1.census_mode, CensusMode::Delta);
        assert_eq!(r1.census_computed, 2);
        assert_eq!(r1.census_reused, live - 2);
        // a from-scratch census of every live graph, folded in
        // collection order
        let fresh = |m: &Midas| {
            let mut total = GraphletCounts::default();
            for (_, g) in m.collection.iter() {
                total.add(&count_graphlets_par(g));
            }
            total.distribution()
        };
        assert_eq!(
            m.gfd().map(f64::to_bits),
            fresh(&m).map(f64::to_bits),
            "cached GFD must be bit-identical to a full recompute"
        );
        // removal-only batch: nothing is counted at all
        let r2 = m.apply_update(BatchUpdate::removing(vec![0]));
        assert_eq!(r2.census_mode, CensusMode::Delta);
        assert_eq!(r2.census_computed, 0);
        assert_eq!(r2.census_reused, m.collection.len());
        assert_eq!(m.gfd().map(f64::to_bits), fresh(&m).map(f64::to_bits));
    }

    #[test]
    fn windowed_drift_escalates_sub_threshold_batches() {
        let _guard = crate::fault_test_lock();
        let batch_a = || vec![clique(5, 3, 0), clique(5, 3, 0)];
        let batch_b = || vec![star(6, 4, 0), star(6, 4, 0)];
        // probe pass: measure each batch's individual drift with the
        // threshold out of reach, so both land as minor
        let probe_cfg = MidasConfig {
            drift_threshold: f64::INFINITY,
            ..Default::default()
        };
        let mut probe =
            Midas::bootstrap(GraphCollection::new(initial_graphs()), budget(), probe_cfg);
        let d1 = probe
            .apply_update(BatchUpdate::adding(batch_a()))
            .gfd_distance;
        let d2 = probe
            .apply_update(BatchUpdate::adding(batch_b()))
            .gfd_distance;
        assert!(
            d1 > 0.0 && d2 > 0.0,
            "probe batches must drift ({d1}, {d2})"
        );
        // a threshold no single batch reaches but the two-batch window does
        let threshold = d1.max(d2) + d1.min(d2) / 2.0;

        // window 1 (the classic rule): both batches stay minor
        let mut classic = Midas::bootstrap(
            GraphCollection::new(initial_graphs()),
            budget(),
            MidasConfig {
                drift_threshold: threshold,
                ..Default::default()
            },
        );
        let r1 = classic.apply_update(BatchUpdate::adding(batch_a()));
        let r2 = classic.apply_update(BatchUpdate::adding(batch_b()));
        assert_eq!(r1.modification, Modification::Minor);
        assert_eq!(r2.modification, Modification::Minor);

        // window 2: the same stream escalates on the second batch
        let mut windowed = Midas::bootstrap(
            GraphCollection::new(initial_graphs()),
            budget(),
            MidasConfig {
                drift_threshold: threshold,
                drift_window: 2,
                ..Default::default()
            },
        );
        let r1 = windowed.apply_update(BatchUpdate::adding(batch_a()));
        assert_eq!(r1.modification, Modification::Minor);
        assert_eq!(
            r1.gfd_distance, d1,
            "same stream must measure the same drift"
        );
        assert_eq!(r1.windowed_drift, d1);
        let r2 = windowed.apply_update(BatchUpdate::adding(batch_b()));
        assert_eq!(r2.modification, Modification::Major);
        assert_eq!(r2.gfd_distance, d2);
        assert_eq!(r2.windowed_drift, d1 + d2);
        // the major pass re-baselined the window: an empty batch drifts
        // nothing and stays minor
        let r3 = windowed.apply_update(BatchUpdate::adding(vec![]));
        assert_eq!(r3.modification, Modification::Minor);
        assert_eq!(r3.windowed_drift, 0.0);
    }

    #[test]
    fn failed_census_keeps_previous_gfd_and_skips_maintenance() {
        let _guard = crate::fault_test_lock();
        let mut m = Midas::bootstrap(
            GraphCollection::new(initial_graphs()),
            budget(),
            MidasConfig::default(),
        );
        let gfd_before = m.gfd();
        let stale = sorted_codes(&m.patterns);
        // a tiny tick quota trips the graphlet kernel mid-census
        let tight = Budget::unlimited().with_kernel_ticks(2);
        let out = m
            .apply_update_ctrl(BatchUpdate::adding(major_batch()), &tight)
            .expect("non-fail-fast never errors");
        assert!(!out.completeness.is_complete());
        assert_eq!(out.value.modification, Modification::Minor);
        assert_eq!(out.value.swaps, 0);
        assert_eq!(m.gfd(), gfd_before, "failed census must keep the old GFD");
        assert_eq!(sorted_codes(&m.patterns), stale, "patterns must be kept");
        // the collection itself still reflects the batch
        assert_eq!(
            m.collection.len(),
            initial_graphs().len() + major_batch().len()
        );
    }

    #[test]
    fn injected_faults_degrade_deterministically() {
        let _guard = crate::fault_test_lock();
        use vqi_runtime::fault::FaultPlan;
        for (panic_rate, timeout_rate) in [(1.0, 0.0), (0.0, 1.0)] {
            for seed in [1u64, 2] {
                let mut per_cap = Vec::new();
                for cap in [1usize, 2, 4] {
                    par::set_thread_cap(cap);
                    // bootstrap runs fault-free; only maintenance is attacked
                    let mut m = Midas::bootstrap(
                        GraphCollection::new(initial_graphs()),
                        budget(),
                        MidasConfig::default(),
                    );
                    let _p = with_plan(FaultPlan {
                        seed,
                        panic_rate,
                        timeout_rate,
                        ..Default::default()
                    });
                    let out = m
                        .apply_update_ctrl(BatchUpdate::adding(major_batch()), &Budget::unlimited())
                        .expect("non-fail-fast never errors");
                    par::set_thread_cap(0);
                    per_cap.push((
                        out.value.modification,
                        out.completeness,
                        sorted_codes(&m.patterns),
                        m.gfd(),
                    ));
                }
                assert_eq!(per_cap[0], per_cap[1], "seed {seed} differs at cap 2");
                assert_eq!(per_cap[0], per_cap[2], "seed {seed} differs at cap 4");
            }
        }
    }

    #[test]
    fn fail_fast_propagates_the_first_fault() {
        let _guard = crate::fault_test_lock();
        use vqi_runtime::fault::FaultPlan;
        let mut m = Midas::bootstrap(
            GraphCollection::new(initial_graphs()),
            budget(),
            MidasConfig::default(),
        );
        let _p = with_plan(FaultPlan {
            seed: 7,
            panic_rate: 1.0,
            ..Default::default()
        });
        let strict = Budget::unlimited().with_fail_fast(true);
        assert!(m
            .apply_update_ctrl(BatchUpdate::adding(major_batch()), &strict)
            .is_err());
    }

    /// Checks that the FCT index hands out, for every live graph, the
    /// vector `FeatureSpace::vector` computes over the closed trees, and
    /// that every support entry names a graph the index holds.
    fn assert_index_vectors_exact(m: &Midas, context: &str) {
        use vqi_mining::features::FeatureSpace;
        let space = FeatureSpace::new(m.fct.closed_trees().map(|t| t.tree.tree.clone()).collect());
        let ids = m.collection.ids();
        let got = m.fct.vectors(&ids, |id| {
            let e = m.collection.entry(id).expect("live id");
            (e.graph(), e.index())
        });
        for (&id, v) in ids.iter().zip(&got) {
            let want = space.vector(m.collection.get(id).expect("live id"));
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(v), bits(&want), "{context}: vector of id {id}");
        }
        for t in m.fct.frequent_trees() {
            assert!(
                t.tree.support_set.iter().all(|&id| m.fct.holds(id)),
                "{context}: support entry of a graph the index does not hold"
            );
        }
    }

    /// `aids_like` molecules in slots, every `hole`-th slot tombstoned.
    fn molecules_with_holes(count: usize, hole: usize, seed: u64) -> GraphCollection {
        let graphs = vqi_datasets::aids_like(vqi_datasets::MoleculeParams {
            count,
            seed,
            ..Default::default()
        });
        GraphCollection::from_slots(
            graphs
                .into_iter()
                .enumerate()
                .map(|(i, g)| (i % hole != 0).then_some(g))
                .collect(),
        )
    }

    #[test]
    fn fct_vectors_on_recovered_slots_are_keyed_by_id() {
        let _guard = crate::fault_test_lock();
        // a recovered collection: tombstones shift every position off
        // its id, so support sets keyed by position name dead graphs
        let collection = molecules_with_holes(60, 5, 17);
        let m = Midas::bootstrap(collection, budget(), MidasConfig::default());
        assert!(m.fct.closed_trees().count() > 0);
        assert!(!m.fct.holds(0) && m.fct.holds(1));
        for t in m.fct.frequent_trees() {
            assert!(
                t.tree
                    .support_set
                    .iter()
                    .all(|&id| m.collection.get(id).is_some()),
                "a support entry names a tombstone"
            );
        }
        assert_index_vectors_exact(&m, "bootstrap");
    }

    #[test]
    fn fct_vectors_match_feature_space_property() {
        let _guard = crate::fault_test_lock();
        use rand::Rng;
        use vqi_runtime::fault::FaultPlan;
        for seed in 0..12u64 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut m = Midas::bootstrap(
                molecules_with_holes(24, 4 + seed as usize % 3, seed),
                budget(),
                MidasConfig::default(),
            );
            assert_index_vectors_exact(&m, &format!("seed {seed} bootstrap"));
            let pool = vqi_datasets::aids_like(vqi_datasets::MoleculeParams {
                count: 12,
                seed: seed + 1000,
                ..Default::default()
            });
            let skipped_batch = rng.gen_range(0..4usize);
            for b in 0..5 {
                let live = m.collection.ids();
                let removals = (0..rng.gen_range(0..3usize))
                    .map(|_| live[rng.gen_range(0..live.len())])
                    .collect();
                let additions = (0..rng.gen_range(0..4usize))
                    .map(|_| pool[rng.gen_range(0..pool.len())].clone())
                    .collect();
                let batch = BatchUpdate {
                    additions,
                    removals,
                };
                // at the skipped batch every stage site fires once, so
                // `midas.fct` is skipped and the additions go unheld
                let plan = (b == skipped_batch).then(|| {
                    with_plan(FaultPlan {
                        seed,
                        panic_rate: 1.0,
                        ..Default::default()
                    })
                });
                let out = m
                    .apply_update_ctrl(batch, &Budget::unlimited())
                    .expect("non-fail-fast never errors");
                if plan.is_some() {
                    assert!(!out.completeness.is_complete(), "seed {seed}: no fault");
                }
                drop(plan);
                assert_index_vectors_exact(&m, &format!("seed {seed} batch {b}"));
            }
        }
    }

    #[test]
    fn fct_vectors_drop_ids_removed_while_the_stage_was_skipped() {
        let _guard = crate::fault_test_lock();
        use vqi_runtime::fault::FaultPlan;
        let molecules = |count, seed| {
            vqi_datasets::aids_like(vqi_datasets::MoleculeParams {
                count,
                seed,
                ..Default::default()
            })
        };
        let pool = molecules(12, 1005);
        let mut m = Midas::bootstrap(
            GraphCollection::new(molecules(40, 5)),
            budget(),
            MidasConfig::default(),
        );
        let victim = m.collection.ids()[3];
        assert!(m.fct.holds(victim));
        // every stage site fires once: `midas.fct` never sees the removal
        let plan = with_plan(FaultPlan {
            seed: 1,
            panic_rate: 1.0,
            ..Default::default()
        });
        let out = m
            .apply_update_ctrl(BatchUpdate::removing(vec![victim]), &Budget::unlimited())
            .expect("non-fail-fast never errors");
        assert!(!out.completeness.is_complete());
        drop(plan);
        for b in 0..6 {
            let live = m.collection.ids();
            let batch = BatchUpdate {
                additions: pool[2 * b..2 * b + 2].to_vec(),
                removals: vec![live[7 * b % live.len()]],
            };
            let out = m
                .apply_update_ctrl(batch, &Budget::unlimited())
                .expect("non-fail-fast never errors");
            assert!(out.completeness.is_complete(), "batch {b}: {out:?}");
            assert!(!m.fct.holds(victim), "batch {b}");
            for t in m.fct.frequent_trees() {
                assert!(
                    t.tree
                        .support_set
                        .iter()
                        .all(|&id| m.collection.get(id).is_some()),
                    "batch {b}: a support set names a removed graph"
                );
            }
            assert_index_vectors_exact(&m, &format!("batch {b}"));
        }
    }
}
