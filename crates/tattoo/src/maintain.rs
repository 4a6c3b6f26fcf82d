//! Canned-pattern maintenance for large networks — the open problem of
//! §2.5 ("Data-driven VQI maintenance for large networks"), implemented
//! here as a TATTOO-native analogue of MIDAS.
//!
//! Large networks evolve continuously (edge streams), unlike
//! periodically-updated collections, so maintenance is driven by **edge
//! batches** and locality:
//!
//! 1. the update is applied in place: [`Graph::apply_batch_removing`]
//!    drops the removed edges in one order-preserving pass and appends
//!    the new nodes and edges, and [`GraphIndex::patch`] moves the
//!    network's index by the same edit, so the work follows the batch
//!    and the result equals a rebuild of network and index from
//!    scratch. The k-truss ([`TrussState`]) and graphlet census
//!    ([`GraphletCounts`]) hold no adjacency of their own: they read
//!    the network's rows, each removal before the edit and each
//!    addition after it (the two phases of [`vqi_graph::delta`]), and
//!    the truss keeps its per-edge values by network edge id;
//! 2. the coverage bitsets follow the edit. A star pattern (one
//!    [`coverage_star`] accepts, whose closed-form bound is its exact
//!    coverage; see [`vqi_graph::star`]) keeps a node bitset of the
//!    nodes that can host its centre, every flag set by
//!    [`Star::is_centre`]. Per batch its coverage bitset is compacted
//!    through the removed edge ids and grown by the added ones; the
//!    centre flag of every touched node is recomputed; and only the
//!    edges incident to touched nodes (the added ones among them) are
//!    re-decided by [`Star::covers`]. No other edge's coverage can
//!    change. Any other pattern is recomputed over the whole network
//!    with [`edge_coverage_bitsets`]. Either way the bitsets equal a
//!    from-scratch [`edge_coverage_bitsets`]. The *churn rate* (changed
//!    edges / current edges) plays the role of MIDAS's GFD drift: below
//!    the threshold the modification is minor and the patterns stay;
//! 3. on a major modification, the *touched region* is the induced
//!    subgraph within one hop of any endpoint of a changed edge;
//! 4. fresh candidates are extracted **only from the touched region**,
//!    split by the maintained trussness, rather than from the whole
//!    network;
//! 5. the candidates are bounded over the whole network by
//!    [`score_candidates`], as whole-network TATTOO bounds its own, and
//!    the swap refiner MIDAS also uses
//!    ([`vqi_core::select::swap_refine`], here over edge ids) replaces
//!    existing patterns when that keeps the covered-edge union and
//!    strictly improves the pattern-set score. The refiner tests each
//!    candidate on its bound and runs the capped coverage search only
//!    for one whose bound could win a swap
//!    (`tattoo.maintain.swap.searched`), so the maintained set never
//!    scores worse than the stale one, and a Major batch searches a
//!    handful of candidates instead of every one.

use crate::candidates::{extract_from_region, ExtractParams};
use crate::pipeline::TattooConfig;
use crate::select::score_candidates;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use vqi_core::bitset::BitSet;
use vqi_core::budget::PatternBudget;
use vqi_core::pattern::PatternSet;
use vqi_core::score::{coverage_star, edge_coverage_bitsets, set_score_bitsets, QualityWeights};
use vqi_core::select::swap_refine;
use vqi_graph::graphlet::{
    count_graphlets_par, euclidean_distance, GraphletCounts, GRAPHLET_CLASSES,
};
use vqi_graph::index::GraphIndex;
use vqi_graph::star::Star;
use vqi_graph::truss::{TrussDecomposition, TrussState};
use vqi_graph::{EdgeId, Graph, GraphEdit, NodeId};

pub use vqi_graph::EdgeBatch;

/// Kind of modification a batch caused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetworkModification {
    /// Churn below threshold: coverage follows the edit, patterns kept.
    Minor,
    /// Churn at/above threshold: localized candidate extraction + swaps.
    Major,
}

/// Report of one maintenance pass.
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkMaintenanceReport {
    /// Minor or major.
    pub modification: NetworkModification,
    /// changed edges / pre-update edge count.
    pub churn: f64,
    /// Accepted swaps.
    pub swaps: usize,
    /// Candidates extracted from the touched region.
    pub candidates: usize,
    /// Nodes in the touched region.
    pub touched_nodes: usize,
    /// Euclidean distance between the network's graphlet distributions
    /// before and after the batch (incrementally maintained census).
    pub graphlet_drift: f64,
    /// Edges the incremental k-truss maintainer re-peeled for this
    /// batch — the affected region, not the whole network.
    pub truss_region_edges: usize,
}

/// Maintainer configuration.
#[derive(Debug, Clone, Copy)]
pub struct MaintainConfig {
    /// Churn threshold separating minor from major modifications.
    pub churn_threshold: f64,
    /// Truss threshold for splitting the touched region.
    pub truss_k: u32,
    /// Extraction parameters for the touched region.
    pub extract: ExtractParams,
    /// Swap scans.
    pub swap_scans: usize,
    /// Score weights.
    pub weights: QualityWeights,
    /// RNG seed.
    pub seed: u64,
}

impl Default for MaintainConfig {
    fn default() -> Self {
        let t = TattooConfig::default();
        MaintainConfig {
            churn_threshold: 0.02,
            truss_k: t.truss_k,
            extract: ExtractParams {
                samples_per_size: 25,
            },
            swap_scans: 6,
            weights: t.weights,
            seed: t.seed ^ 0xFACE,
        }
    }
}

/// How the maintainer keeps one pattern's covered-edge bitset current.
#[derive(Debug)]
enum Upkeep {
    /// A star with the closed form: which nodes can host its centre,
    /// patched per batch with the coverage itself.
    Star { star: Star, centres: BitSet },
    /// Any other pattern: recomputed over the whole network per batch.
    Search,
}

/// The network maintainer: owns the evolving network and the maintained
/// pattern set.
pub struct NetworkMaintainer {
    config: MaintainConfig,
    budget: PatternBudget,
    /// The current network.
    pub network: Graph,
    /// The maintained canned patterns.
    pub patterns: PatternSet,
    /// Covered-edge bitsets per pattern, over the current network.
    bitsets: Vec<BitSet>,
    /// How each pattern's bitset follows a batch, aligned with
    /// `bitsets`.
    upkeep: Vec<Upkeep>,
    /// Label index over the current network, patched with every edit
    /// so every coverage match goes through the indexed kernel.
    network_index: GraphIndex,
    /// Incrementally maintained k-truss of the current network, by its
    /// edge ids: batch updates re-peel only the affected region, and
    /// the major-path region split reads maintained trussness instead
    /// of re-peeling.
    truss: TrussState,
    /// Incrementally maintained graphlet census of the current network,
    /// used to report per-batch structural drift.
    census: GraphletCounts,
}

/// What the kernels' first phase hands to the second: the truss seeds
/// and the graphlet distribution before the batch.
type BeforeEdit = (Vec<EdgeId>, [f64; GRAPHLET_CLASSES]);

impl NetworkMaintainer {
    /// Wraps an initial network with an already-selected pattern set
    /// (typically TATTOO's output).
    pub fn new(
        network: Graph,
        patterns: PatternSet,
        budget: PatternBudget,
        config: MaintainConfig,
    ) -> Self {
        let network_index = GraphIndex::build(&network);
        let truss = TrussState::new(&network);
        let census = count_graphlets_par(&network);
        let mut m = NetworkMaintainer {
            config,
            budget,
            network,
            patterns,
            bitsets: Vec::new(),
            upkeep: Vec::new(),
            network_index,
            truss,
            census,
        };
        m.refresh_coverage();
        m
    }

    /// Computes every coverage bitset and upkeep from scratch.
    fn refresh_coverage(&mut self) {
        self.bitsets = edge_coverage_bitsets(
            self.patterns.patterns(),
            &self.network,
            &self.network_index,
            |p| &p.graph,
        );
        self.refresh_upkeep();
    }

    /// Re-derives every pattern's upkeep on the current network, routed
    /// by the rule [`edge_coverage_bitsets`] uses.
    fn refresh_upkeep(&mut self) {
        let net = &self.network;
        self.upkeep = self
            .patterns
            .patterns()
            .iter()
            .map(|p| match coverage_star(&p.graph, &self.network_index) {
                Some(star) => {
                    let mut centres = BitSet::new(net.node_count());
                    for x in net.nodes().filter(|&x| star.is_centre(net, x)) {
                        centres.set(x.index());
                    }
                    Upkeep::Star { star, centres }
                }
                None => Upkeep::Search,
            })
            .collect();
    }

    /// Step 2 of the module docs: moves every coverage bitset by
    /// `edit`, which the network and its index have already absorbed.
    fn patch_coverage(&mut self, edit: &GraphEdit) {
        // a wildcard label entering or leaving the network re-routes
        // stars between the closed form and the search
        let rerouted = self
            .patterns
            .patterns()
            .iter()
            .zip(&self.upkeep)
            .any(|(p, u)| {
                matches!(u, Upkeep::Star { .. })
                    != coverage_star(&p.graph, &self.network_index).is_some()
            });
        if rerouted {
            self.refresh_coverage();
            return;
        }
        let net = &self.network;
        let removed: Vec<usize> = edit.removed_ids.iter().map(|e| e.index()).collect();
        let mut searched = Vec::new();
        for (k, (bits, upkeep)) in self.bitsets.iter_mut().zip(&mut self.upkeep).enumerate() {
            let Upkeep::Star { star, centres } = upkeep else {
                searched.push(k);
                continue;
            };
            bits.compact(&removed);
            bits.grow(net.edge_count());
            centres.grow(net.node_count());
            for &(v, _) in &edit.touched {
                if star.is_centre(net, v) {
                    centres.set(v.index());
                } else {
                    centres.clear(v.index());
                }
            }
            for &(v, _) in &edit.touched {
                for &(_, e) in net.neighbor_slice(v) {
                    if star.covers(net, e, |x| centres.get(x.index())) {
                        bits.set(e.index());
                    } else {
                        bits.clear(e.index());
                    }
                }
            }
        }
        if !searched.is_empty() {
            let patterns = self.patterns.patterns();
            let graphs: Vec<&Graph> = searched.iter().map(|&k| &patterns[k].graph).collect();
            let fresh = edge_coverage_bitsets(&graphs, net, &self.network_index, |g| *g);
            for (k, bits) in searched.into_iter().zip(fresh) {
                self.bitsets[k] = bits;
            }
        }
    }

    /// The incrementally maintained graphlet frequency distribution of
    /// the current network.
    pub fn graphlet_distribution(&self) -> [f64; GRAPHLET_CLASSES] {
        self.census.distribution()
    }

    /// Current pattern-set score on the current network.
    pub fn score(&self) -> f64 {
        let graphs: Vec<&Graph> = self.patterns.graphs().collect();
        let bitsets: Vec<&BitSet> = self.bitsets.iter().collect();
        set_score_bitsets(
            &graphs,
            &bitsets,
            self.network.edge_count(),
            self.config.weights,
        )
    }

    /// Applies an edge batch and maintains the pattern set.
    pub fn apply_batch(&mut self, batch: EdgeBatch) -> NetworkMaintenanceReport {
        let churn = self.churn_of(&batch);
        // 1. edit the network in place and move its index by the same
        // edit; the incremental kernels read each removal on the network
        // before the edit and each addition after it
        let dead = self.network.removal_ids(&batch);
        let before = self.before_edit(&dead);
        let edit = self.network.apply_batch_removing(&batch, dead);
        self.network_index.patch(&self.network, &edit);
        // 2. the coverage follows the edit
        self.patch_coverage(&edit);
        let touched: Vec<NodeId> = edit.touched.iter().map(|&(v, _)| v).collect();
        self.maintain(churn, &edit, before, &touched)
    }

    /// The kernels' first phase, on the network before the edit: the
    /// removals `dead` leave the truss and census state.
    fn before_edit(&mut self, dead: &[EdgeId]) -> BeforeEdit {
        let gfd_before = self.census.distribution();
        self.census.before_edit(&self.network, dead);
        (self.truss.before_edit(&self.network, dead), gfd_before)
    }

    /// Changed edges of `batch` over the current (pre-batch) edge count.
    fn churn_of(&self, batch: &EdgeBatch) -> f64 {
        let changed = batch.edge_additions.len() + batch.edge_removals.len();
        changed as f64 / self.network.edge_count().max(1) as f64
    }

    /// Everything after the edit and the coverage patch: the kernels'
    /// second phase absorbs the additions of `edit` and re-peels only
    /// the affected region, and a major batch extracts candidates
    /// around `touched` (the changed endpoints, ascending) and swaps.
    fn maintain(
        &mut self,
        churn: f64,
        edit: &GraphEdit,
        (seeds, gfd_before): BeforeEdit,
        touched: &[NodeId],
    ) -> NetworkMaintenanceReport {
        let truss_stats = self.truss.after_edit(&self.network, edit, seeds);
        self.census.after_edit(&self.network, edit);
        let graphlet_drift = euclidean_distance(&gfd_before, &self.census.distribution());

        if churn < self.config.churn_threshold || touched.is_empty() {
            return NetworkMaintenanceReport {
                modification: NetworkModification::Minor,
                churn,
                swaps: 0,
                candidates: 0,
                touched_nodes: touched.len(),
                graphlet_drift,
                truss_region_edges: truss_stats.region_edges,
            };
        }

        // 3. touched region: one hop around the changed endpoints
        let mut region_nodes: Vec<NodeId> = touched.to_vec();
        for &v in touched {
            region_nodes.extend(self.network.neighbors(v).map(|(u, _)| u));
        }
        region_nodes.sort_unstable();
        region_nodes.dedup();
        let (region, node_map) = self.network.induced_subgraph(&region_nodes);

        // 4. shape-typed candidates from the region, split by the
        // *maintained* trussness: the incremental maintainer already
        // knows every edge's trussness in the full network, so the
        // split costs one lookup per region edge instead of a re-peel
        // (and classifies by global trussness, not the region-local
        // values a standalone peel of the small region would produce)
        let mut rng = SmallRng::seed_from_u64(self.config.seed);
        let mut region_truss = vec![0u32; region.edge_count()];
        let (mut infested_edges, mut oblivious_edges) = (Vec::new(), Vec::new());
        for e in region.edges() {
            let (ru, rv) = region.endpoints(e);
            let id = self
                .network
                .edge_between(node_map[ru.index()], node_map[rv.index()])
                .expect("a region edge is a network edge");
            let t = self.truss.trussness()[id.index()];
            region_truss[e.index()] = t;
            if t >= self.config.truss_k {
                infested_edges.push(e);
            } else {
                oblivious_edges.push(e);
            }
        }
        let d = TrussDecomposition {
            trussness: region_truss,
            k: self.config.truss_k,
            infested_edges,
            oblivious_edges,
        };
        let (gt, _) = d.infested_graph(&region);
        let (go, _) = d.oblivious_graph(&region);
        let mut cands = extract_from_region(&gt, true, &self.budget, self.config.extract, &mut rng);
        cands.extend(extract_from_region(
            &go,
            false,
            &self.budget,
            self.config.extract,
            &mut rng,
        ));
        let mut seen = std::collections::HashSet::new();
        cands.retain(|c| seen.insert(c.code.clone()));
        cands.retain(|c| !self.patterns.contains_isomorphic(&c.graph));
        let n_cands = cands.len();

        // 5. candidates bounded over the WHOLE network, then the shared
        // swap refiner over edge ids, which searches only those that can
        // win a swap
        let pool = score_candidates(cands, &self.network, &self.network_index);
        let stats = swap_refine(
            &mut self.patterns,
            &mut self.bitsets,
            pool,
            self.config.swap_scans,
            self.config.weights,
            "tattoo.maintain.swap",
        );
        if stats.swaps > 0 {
            self.refresh_upkeep();
        }

        NetworkMaintenanceReport {
            modification: NetworkModification::Major,
            churn,
            swaps: stats.swaps,
            candidates: n_cands,
            touched_nodes: region_nodes.len(),
            graphlet_drift,
            truss_region_edges: truss_stats.region_edges,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Tattoo;
    use vqi_core::repo::GraphRepository;
    use vqi_core::score::evaluate_graphs;
    use vqi_datasets::dblp_like;
    use vqi_graph::Label;

    /// The rebuild `apply_batch` used before it edited in place: a
    /// fresh copy of the network without the removed edges and with the
    /// additions, a fresh index of it, and coverage computed from
    /// scratch, with the kernels' two phases around the rebuild. Kept
    /// as the oracle the in-place edit and the coverage patch must
    /// equal.
    fn apply_by_rebuild(m: &mut NetworkMaintainer, batch: EdgeBatch) -> NetworkMaintenanceReport {
        let churn = m.churn_of(&batch);
        let removals: std::collections::HashSet<(u32, u32)> = batch
            .edge_removals
            .iter()
            .map(|&(a, b)| if a <= b { (a, b) } else { (b, a) })
            .collect();
        let mut touched: Vec<NodeId> = Vec::new();
        let mut dead: Vec<EdgeId> = Vec::new();
        let mut delta = vqi_graph::EdgeDelta::new();
        let mut next = Graph::new();
        for v in m.network.nodes() {
            next.add_node(m.network.node_label(v));
        }
        for &l in &batch.node_additions {
            next.add_node(l);
        }
        for e in m.network.edges() {
            let (u, v) = m.network.endpoints(e);
            let key = if u.0 <= v.0 { (u.0, v.0) } else { (v.0, u.0) };
            if removals.contains(&key) {
                touched.extend([u, v]);
                dead.push(e);
                delta.deletes.push(key);
            } else {
                next.add_edge(u, v, m.network.edge_label(e));
            }
        }
        for &(u, v, l) in &batch.edge_additions {
            if next.add_edge(NodeId(u), NodeId(v), l).is_some() {
                touched.extend([NodeId(u), NodeId(v)]);
                delta.inserts.push((u, v));
            }
        }
        let before = m.before_edit(&dead);
        m.network = next;
        m.network_index = GraphIndex::build(&m.network);
        m.refresh_coverage();
        touched.sort_unstable();
        touched.dedup();
        let edit = GraphEdit {
            delta,
            removed_ids: dead,
            ..GraphEdit::default()
        };
        m.maintain(churn, &edit, before, &touched)
    }

    /// A churn-shaped batch: `removals` live edges out, `additions`
    /// random pairs in (some rejected as duplicates or self-loops), and
    /// every fifth batch an appended node wired to the network.
    fn churn_batch(
        net: &Graph,
        removals: usize,
        additions: usize,
        round: usize,
        rng: &mut SmallRng,
    ) -> EdgeBatch {
        use rand::Rng;
        let (n, m) = (net.node_count() as u32, net.edge_count() as u32);
        let mut batch = EdgeBatch::default();
        for _ in 0..removals {
            let (u, v) = net.endpoints(vqi_graph::EdgeId(rng.gen_range(0..m)));
            batch.edge_removals.push((u.0, v.0));
        }
        let span = if round % 5 == 4 {
            batch.node_additions.push(rng.gen_range(0..5));
            n + 1
        } else {
            n
        };
        for _ in 0..additions {
            let (u, v) = (rng.gen_range(0..span), rng.gen_range(0..span));
            batch.edge_additions.push((u, v, rng.gen_range(0..2)));
        }
        batch
    }

    #[test]
    fn in_place_maintenance_equals_the_rebuild_oracle() {
        let _guard = crate::fault_test_lock();
        for seed in 1..=3u64 {
            let mut live = bootstrap(220, seed);
            let mut oracle = bootstrap(220, seed);
            let mut rng = SmallRng::seed_from_u64(seed);
            let (mut minor, mut major) = (0, 0);
            for round in 0..12 {
                let ctx = format!("seed {seed} batch {round}");
                let m = live.network.edge_count();
                // every third batch churns past the major threshold
                let changed = if round % 3 == 2 { m / 25 } else { 2 };
                let batch = churn_batch(
                    &live.network,
                    changed / 2,
                    changed - changed / 2,
                    round,
                    &mut rng,
                );
                let got = live.apply_batch(batch.clone());
                let want = apply_by_rebuild(&mut oracle, batch);
                assert_eq!(got, want, "{ctx}: report");
                assert!(live.network == oracle.network, "{ctx}: network");
                assert!(live.network_index == oracle.network_index, "{ctx}: index");
                assert_eq!(live.bitsets, oracle.bitsets, "{ctx}: bitsets");
                assert!(live.patterns == oracle.patterns, "{ctx}: patterns");
                match got.modification {
                    NetworkModification::Minor => minor += 1,
                    NetworkModification::Major => major += 1,
                }
            }
            assert!(
                minor > 0 && major > 0,
                "seed {seed}: {minor} minor, {major} major"
            );
        }
    }

    /// The standalone truss and census maintainers, driven as a churn
    /// replay drives them (a copy of the network, each batch's effective
    /// delta, node growth first), land on the network maintainer's
    /// region sizes, distribution and trussness after every batch.
    #[test]
    fn standalone_maintainers_match_the_network_maintainer() {
        use vqi_graph::graphlet::CensusMaintainer;
        use vqi_graph::truss::TrussMaintainer;
        let _guard = crate::fault_test_lock();
        for cap in [1usize, 4] {
            vqi_graph::par::set_thread_cap(cap);
            let mut m = bootstrap(220, 7);
            let mut census = CensusMaintainer::new(&m.network);
            let mut truss = TrussMaintainer::new(&m.network);
            let mut rng = SmallRng::seed_from_u64(7);
            for round in 0..12 {
                let ctx = format!("cap {cap} batch {round}");
                let edges = m.network.edge_count();
                let changed = if round % 3 == 2 { edges / 25 } else { 4 };
                let (out, into) = (changed / 2, changed - changed / 2);
                let batch = if round % 2 == 0 {
                    churn_batch(&m.network, out, into, round, &mut rng)
                } else {
                    hub_batch(&m.network, out, into, false, &mut rng)
                };
                let delta = m.network.clone().apply_batch(&batch).delta;
                let report = m.apply_batch(batch);
                let n = m.network.node_count();
                census.grow_nodes(n);
                truss.grow_nodes(n);
                census.apply(&delta);
                let stats = truss.apply(&delta);
                assert_eq!(stats.region_edges, report.truss_region_edges, "{ctx}");
                assert_eq!(census.distribution(), m.graphlet_distribution(), "{ctx}");
                assert_eq!(truss.trussness(), m.truss.trussness(), "{ctx}");
            }
        }
        vqi_graph::par::set_thread_cap(0);
    }

    /// The node of largest degree (the lowest id among ties).
    fn hub_of(net: &Graph) -> NodeId {
        let top = net.nodes().map(|v| net.degree(v)).max().unwrap_or(0);
        net.nodes()
            .find(|&v| net.degree(v) == top)
            .unwrap_or(NodeId(0))
    }

    /// A star around `x` on `k` of its row's edges (every `step`-th).
    fn star_at(net: &Graph, x: NodeId, k: usize, step: usize) -> Graph {
        let mut p = Graph::new();
        let c = p.add_node(net.node_label(x));
        for &(y, e) in net.neighbor_slice(x).iter().step_by(step).take(k) {
            let leaf = p.add_node(net.node_label(y));
            p.add_edge(c, leaf, net.edge_label(e));
        }
        p
    }

    /// Stars read off the hub's row and a small node's (1 to 3 leaves),
    /// plus a 3-edge chain and a triangle: both coverage routes.
    fn mixed_patterns(net: &Graph, seed: u64) -> PatternSet {
        let hub = hub_of(net);
        let small = NodeId((seed * 7 % net.node_count() as u64) as u32);
        let (l, el) = (net.node_label(hub), 0);
        let mut set = PatternSet::new();
        for g in [
            star_at(net, hub, 3, 2),
            star_at(net, hub, 2, 1),
            star_at(net, small, 1, 1),
            vqi_graph::generate::chain(4, l, el),
            vqi_graph::generate::cycle(3, l, el),
        ] {
            // a repeated shape is skipped
            let _ = set.insert(g, vqi_core::pattern::PatternKind::Canned, "test");
        }
        set
    }

    /// A batch wiring the hub: `removals` live edges out (every other
    /// one incident to the hub), `additions` pairs in (every other one
    /// at the hub), and from round 2 on an appended node on the hub,
    /// a wildcard-labelled one at round 5 of every third seed.
    fn hub_batch(
        net: &Graph,
        removals: usize,
        additions: usize,
        wildcard: bool,
        rng: &mut SmallRng,
    ) -> EdgeBatch {
        use rand::Rng;
        let hub = hub_of(net);
        let (n, m) = (net.node_count() as u32, net.edge_count() as u32);
        let mut batch = EdgeBatch::default();
        for i in 0..removals {
            let row = net.neighbor_slice(hub);
            let (u, v) = if i % 2 == 0 && !row.is_empty() {
                (hub, row[rng.gen_range(0..row.len())].0)
            } else {
                net.endpoints(vqi_graph::EdgeId(rng.gen_range(0..m)))
            };
            batch.edge_removals.push((u.0, v.0));
        }
        let appended = if wildcard {
            batch.node_additions.push(vqi_graph::WILDCARD_LABEL);
            batch.edge_additions.push((n, hub.0, 0));
            1
        } else if removals > 0 {
            batch.node_additions.push(net.node_label(hub));
            batch.edge_additions.push((n, hub.0, rng.gen_range(0..2)));
            1
        } else {
            0
        };
        for i in 0..additions {
            let v = rng.gen_range(0..n + appended);
            let u = if i % 2 == 0 {
                hub.0
            } else {
                rng.gen_range(0..n + appended)
            };
            batch.edge_additions.push((u, v, rng.gen_range(0..2)));
        }
        batch
    }

    #[test]
    fn patched_coverage_equals_a_fresh_recompute_after_every_batch() {
        let _guard = crate::fault_test_lock();
        let (mut minor, mut major, mut patched, mut searched) = (0, 0, 0, 0);
        for seed in 1..=12u64 {
            let net = dblp_like(160, seed);
            let patterns = mixed_patterns(&net, seed);
            let budget = PatternBudget::new(5, 3, 5);
            let mut m = NetworkMaintainer::new(net, patterns, budget, MaintainConfig::default());
            let mut rng = SmallRng::seed_from_u64(seed);
            for round in 0..8 {
                let ctx = format!("seed {seed} batch {round}");
                let edges = m.network.edge_count();
                // every third batch churns past the major threshold; the
                // first is empty
                let changed = match round {
                    0 => 0,
                    r if r % 3 == 2 => edges / 20,
                    _ => 4,
                };
                let wildcard = seed % 3 == 0 && round == 5;
                let batch = hub_batch(
                    &m.network,
                    changed / 2,
                    changed - changed / 2,
                    wildcard,
                    &mut rng,
                );
                match m.apply_batch(batch).modification {
                    NetworkModification::Minor => minor += 1,
                    NetworkModification::Major => major += 1,
                }
                let idx = GraphIndex::build(&m.network);
                let fresh =
                    edge_coverage_bitsets(m.patterns.patterns(), &m.network, &idx, |p| &p.graph);
                assert_eq!(m.bitsets, fresh, "{ctx}: coverage");
                for (p, upkeep) in m.patterns.patterns().iter().zip(&m.upkeep) {
                    match upkeep {
                        Upkeep::Star { star, centres } => {
                            assert_eq!(coverage_star(&p.graph, &idx).as_ref(), Some(star));
                            let want: Vec<NodeId> = m
                                .network
                                .nodes()
                                .filter(|&x| star.is_centre(&m.network, x))
                                .collect();
                            let got: Vec<NodeId> =
                                centres.ones().map(|v| NodeId(v as u32)).collect();
                            assert_eq!(got, want, "{ctx}: centres of pattern {}", p.id.0);
                            assert_eq!(centres.len(), m.network.node_count(), "{ctx}");
                            patched += 1;
                        }
                        Upkeep::Search => {
                            assert!(coverage_star(&p.graph, &idx).is_none(), "{ctx}");
                            searched += 1;
                        }
                    }
                }
            }
        }
        assert!(minor > 0 && major > 0, "{minor} minor, {major} major");
        assert!(
            patched > 0 && searched > 0,
            "{patched} patched, {searched} searched"
        );
    }

    fn bootstrap(nodes: usize, seed: u64) -> NetworkMaintainer {
        let net = dblp_like(nodes, seed);
        let budget = PatternBudget::new(5, 4, 6);
        let patterns = Tattoo::default().run(&net, &budget);
        NetworkMaintainer::new(net, patterns, budget, MaintainConfig::default())
    }

    fn star_batch(m: &NetworkMaintainer, hub_label: Label, leaves: usize) -> EdgeBatch {
        // append a hub plus leaves: clearly new structure
        let base = m.network.node_count() as u32;
        let mut batch = EdgeBatch::default();
        batch.node_additions.push(hub_label);
        for i in 0..leaves {
            batch.node_additions.push(hub_label);
            batch.edge_additions.push((base, base + 1 + i as u32, 0));
        }
        batch
    }

    #[test]
    fn small_batch_is_minor() {
        let _guard = crate::fault_test_lock();
        let mut m = bootstrap(300, 1);
        let base = m.network.node_count() as u32;
        let batch = EdgeBatch {
            node_additions: vec![0, 0],
            edge_additions: vec![(base, base + 1, 0)],
            edge_removals: vec![],
        };
        let report = m.apply_batch(batch);
        assert_eq!(report.modification, NetworkModification::Minor);
        assert_eq!(report.swaps, 0);
    }

    #[test]
    fn large_batch_is_major_and_quality_holds() {
        let _guard = crate::fault_test_lock();
        let mut m = bootstrap(250, 2);
        let stale_patterns = m.patterns.clone();
        // big structural injection: several stars worth ~10% churn
        let mut batch = star_batch(&m, 9, 30);
        for i in 0..30u32 {
            // wire some leaves together for cycles
            if i + 1 < 30 {
                let base = m.network.node_count() as u32 + 1;
                batch.edge_additions.push((base + i, base + i + 1, 0));
            }
        }
        let report = m.apply_batch(batch);
        assert_eq!(report.modification, NetworkModification::Major);
        assert!(report.touched_nodes > 0);

        // quality guarantee: maintained >= stale on the new network
        let idx = GraphIndex::build(&m.network);
        let stale_bits =
            edge_coverage_bitsets(stale_patterns.patterns(), &m.network, &idx, |p| &p.graph);
        let stale_graphs: Vec<&Graph> = stale_patterns.graphs().collect();
        let stale_refs: Vec<&BitSet> = stale_bits.iter().collect();
        let stale_score = set_score_bitsets(
            &stale_graphs,
            &stale_refs,
            m.network.edge_count(),
            MaintainConfig::default().weights,
        );
        assert!(
            m.score() >= stale_score - 1e-9,
            "maintained {:.4} < stale {:.4}",
            m.score(),
            stale_score
        );
    }

    /// The drift batch of `exp_e11_network_maintenance`: appended hubs
    /// labelled `label`, each wired to six leaves that form a path, up
    /// to at least `edges` new edges.
    fn drift_batch(net: &Graph, edges: usize, label: Label) -> EdgeBatch {
        let mut batch = EdgeBatch::default();
        let mut hub = net.node_count() as u32;
        while batch.edge_additions.len() < edges {
            batch.node_additions.extend([label; 7]);
            let leaves = hub + 1..hub + 7;
            batch
                .edge_additions
                .extend(leaves.clone().map(|l| (hub, l, 0)));
            batch
                .edge_additions
                .extend(leaves.skip(1).map(|l| (l - 1, l, 0)));
            hub += 7;
        }
        batch
    }

    #[test]
    fn maintainer_swaps_resolve_only_candidates_that_can_win() {
        let _guard = crate::fault_test_lock();
        // per Major batch: the report, the candidates the swap refiner
        // searched, and the kept candidates whose bound is not exact
        let run = |cap: usize| {
            let mut m = bootstrap(400, 99);
            vqi_graph::par::set_thread_cap(cap);
            vqi_observe::set_enabled(true);
            let mut out = Vec::new();
            for (i, churn) in [0.05, 0.10, 0.05].into_iter().enumerate() {
                let edges = (m.network.edge_count() as f64 * churn) as usize;
                let batch = drift_batch(&m.network, edges, 20 + i as Label);
                let before = vqi_observe::snapshot().counters;
                let report = m.apply_batch(batch);
                let after = vqi_observe::snapshot().counters;
                let delta = |k: &str| {
                    after.get(k).copied().unwrap_or(0) - before.get(k).copied().unwrap_or(0)
                };
                assert_eq!(report.modification, NetworkModification::Major);
                out.push((
                    report,
                    delta("tattoo.maintain.swap.searched"),
                    delta("tattoo.score.inexact"),
                ));
            }
            vqi_observe::set_enabled(false);
            vqi_graph::par::set_thread_cap(0);
            (out, m.patterns, m.bitsets)
        };
        let one = run(1);
        let four = run(4);
        assert_eq!(one.0, four.0, "cap 4 changed a report or a count");
        assert!(one.1 == four.1 && one.2 == four.2, "cap 4 changed the set");
        let searched: u64 = one.0.iter().map(|b| b.1).sum();
        let inexact: u64 = one.0.iter().map(|b| b.2).sum();
        assert!(
            searched < inexact,
            "{searched} searches for {inexact} candidates with inexact bounds"
        );
    }

    #[test]
    fn removals_rebuild_the_network() {
        let _guard = crate::fault_test_lock();
        let mut m = bootstrap(200, 3);
        let edges_before = m.network.edge_count();
        // remove the first 5 edges
        let removals: Vec<(u32, u32)> = m
            .network
            .edges()
            .take(5)
            .map(|e| {
                let (u, v) = m.network.endpoints(e);
                (u.0, v.0)
            })
            .collect();
        m.apply_batch(EdgeBatch {
            edge_removals: removals,
            ..Default::default()
        });
        assert_eq!(m.network.edge_count(), edges_before - 5);
    }

    #[test]
    fn maintained_patterns_still_cover() {
        let _guard = crate::fault_test_lock();
        let mut m = bootstrap(250, 4);
        let batch = star_batch(&m, 7, 40);
        m.apply_batch(batch);
        let graphs: Vec<&Graph> = m.patterns.graphs().collect();
        let repo = GraphRepository::Network(m.network.clone());
        assert!(evaluate_graphs(&graphs, &repo, QualityWeights::default()).coverage > 0.0);
    }

    #[test]
    fn incremental_kernels_and_caches_track_mutations() {
        let _guard = crate::fault_test_lock();
        use vqi_graph::truss::trussness;
        let mut m = bootstrap(200, 6);
        // additions first (grows the node space), then removals, so
        // both delta sides of the incremental kernels are exercised
        let add = star_batch(&m, 3, 8);
        let r1 = m.apply_batch(add);
        assert!(r1.graphlet_drift > 0.0, "a new star must shift the GFD");
        let removals: Vec<(u32, u32)> = m
            .network
            .edges()
            .take(4)
            .map(|e| {
                let (u, v) = m.network.endpoints(e);
                (u.0, v.0)
            })
            .collect();
        m.apply_batch(EdgeBatch {
            edge_removals: removals,
            ..Default::default()
        });

        // the maintained kernels must equal a from-scratch run on the
        // current network
        assert_eq!(
            m.truss.trussness(),
            trussness(&m.network),
            "incremental trussness diverged from a fresh peel"
        );
        let fresh_census = count_graphlets_par(&m.network);
        assert_eq!(
            m.census, fresh_census,
            "incremental census diverged from a fresh count"
        );

        // the patched index must equal a fresh build, and the coverage
        // bitsets kept by the maintainer a recompute over it
        let idx = GraphIndex::build(&m.network);
        assert!(
            m.network_index == idx,
            "patched network index diverged from a fresh build"
        );
        let fresh = edge_coverage_bitsets(m.patterns.patterns(), &m.network, &idx, |p| &p.graph);
        for ((p, bits), fresh_bits) in m.patterns.patterns().iter().zip(&m.bitsets).zip(&fresh) {
            assert_eq!(
                fresh_bits, bits,
                "maintained coverage of pattern {} diverged from a fresh recompute",
                p.id.0
            );
        }
    }

    #[test]
    fn empty_batch_is_noop_minor() {
        let _guard = crate::fault_test_lock();
        let mut m = bootstrap(150, 5);
        let score = m.score();
        let report = m.apply_batch(EdgeBatch::default());
        assert_eq!(report.modification, NetworkModification::Minor);
        assert!((m.score() - score).abs() < 1e-12);
    }
}
