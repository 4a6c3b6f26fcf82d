//! Frequent closed trees (FCT) with incremental maintenance.
//!
//! A frequent tree is *closed* if no frequent supertree has the same
//! support. MIDAS replaces CATAPULT's raw frequent-subtree features with
//! closed trees because closure is stable under small repository changes,
//! so feature vectors — and therefore clusters — can be maintained
//! incrementally instead of re-mined from scratch.
//!
//! [`FctIndex`] owns the mined trees together with their per-graph
//! occurrence sets and supports batch updates: newly added graphs are
//! probed against existing trees (and can promote previously infrequent
//! candidates via a localized re-mine), removed graphs are dropped from
//! all support sets, and closedness flags are recomputed.
//!
//! The support sets are exact: a held graph is in a tree's support set
//! iff the tree occurs in it under [`MatchOptions::default`]. A tree is
//! either mined with its full support, created by the re-mine with its
//! support counted over every held graph, or present when a graph is
//! added and probed against it. So [`FctIndex::vectors`] reads a held
//! graph's feature vector off the support sets, with no matching at all.

use crate::fst::{
    mine_frequent_subtrees, mine_frequent_subtrees_indexed, FrequentTree, MineParams,
};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use vqi_graph::canon::CanonicalCode;
use vqi_graph::index::GraphIndex;
use vqi_graph::iso::{MatchOptions, PatternPlan};
use vqi_graph::Graph;

/// A frequent tree plus its closedness flag.
#[derive(Debug, Clone)]
pub struct ClosedTree {
    /// The underlying frequent tree; its support set names graph ids,
    /// ascending.
    pub tree: FrequentTree,
    /// True if no frequent supertree has equal support.
    pub closed: bool,
}

/// Mined frequent-closed-tree index over a graph collection, maintained
/// under batch updates.
#[derive(Debug)]
pub struct FctIndex {
    params: MineParams,
    /// All frequent trees (closed and not), in canonical-code order.
    trees: BTreeMap<CanonicalCode, ClosedTree>,
    /// Ids of the graphs the index holds.
    live: BTreeSet<usize>,
}

impl FctIndex {
    /// Mines the index from scratch over `(id, graph)` pairs.
    pub fn build(graphs: &[(usize, &Graph)], params: MineParams) -> Self {
        let views: Vec<&Graph> = graphs.iter().map(|&(_, g)| g).collect();
        let trees = mine_frequent_subtrees(&views, params)
            .into_iter()
            .map(|mut t| {
                // the miner names positions in `graphs`: translate to ids
                for gi in &mut t.support_set {
                    *gi = graphs[*gi].0;
                }
                t.support_set.sort_unstable();
                let closed = ClosedTree {
                    tree: t,
                    closed: true,
                };
                (closed.tree.code.clone(), closed)
            })
            .collect();
        let mut idx = FctIndex {
            params,
            trees,
            live: graphs.iter().map(|&(id, _)| id).collect(),
        };
        idx.recompute_closedness();
        idx
    }

    /// The mining parameters in force.
    pub fn params(&self) -> MineParams {
        self.params
    }

    /// All frequent trees, in canonical-code order.
    pub fn frequent_trees(&self) -> impl Iterator<Item = &ClosedTree> {
        self.trees.values()
    }

    /// Only the closed trees, in canonical-code order: the feature
    /// vocabulary.
    pub fn closed_trees(&self) -> impl Iterator<Item = &ClosedTree> {
        self.trees.values().filter(|t| t.closed)
    }

    /// Number of graphs the index holds.
    pub fn live_graphs(&self) -> usize {
        self.live.len()
    }

    /// True if the index holds graph `id`: it was built with it or added
    /// by a batch, and not removed since.
    pub fn holds(&self, id: usize) -> bool {
        self.live.contains(&id)
    }

    /// The ids the index holds, ascending.
    pub fn held(&self) -> impl Iterator<Item = usize> + '_ {
        self.live.iter().copied()
    }

    /// Feature vectors of the distinct graphs `ids` over the closed
    /// trees: entry `i` is `1.0` if closed tree `i` (canonical order)
    /// occurs in the graph, else `0.0` — bit for bit what
    /// `FeatureSpace::new` over the closed trees computes. A held id's
    /// vector is read off the support sets; an id the index does not
    /// hold is probed against the closed trees, each compiled once per
    /// call, through `graph(id)`.
    pub fn vectors<'a, F>(&self, ids: &[usize], graph: F) -> Vec<Vec<f64>>
    where
        F: Fn(usize) -> (&'a Graph, &'a GraphIndex),
    {
        let closed: Vec<&ClosedTree> = self.closed_trees().collect();
        let mut out = vec![vec![0.0; closed.len()]; ids.len()];
        let mut row_of: Vec<Option<usize>> = vec![None; ids.iter().max().map_or(0, |&m| m + 1)];
        let mut probed = Vec::new();
        for (row, &id) in ids.iter().enumerate() {
            debug_assert!(row_of[id].is_none(), "duplicate id {id}");
            if self.holds(id) {
                row_of[id] = Some(row);
            } else {
                probed.push(row);
            }
        }
        // the support sets, transposed onto the wanted rows
        for (col, ct) in closed.iter().enumerate() {
            for &id in &ct.tree.support_set {
                if let Some(&Some(row)) = row_of.get(id) {
                    out[row][col] = 1.0;
                }
            }
        }
        if !probed.is_empty() {
            let plans: Vec<PatternPlan> = closed
                .iter()
                .map(|ct| PatternPlan::new(&ct.tree.tree))
                .collect();
            for row in probed {
                let (g, ix) = graph(ids[row]);
                for (col, plan) in plans.iter().enumerate() {
                    if plan.is_subgraph_of(g, Some(ix), MatchOptions::default()) {
                        out[row][col] = 1.0;
                    }
                }
            }
        }
        out
    }

    /// Applies a batch update: `added` are fresh ids, `removed` are ids
    /// to drop. `graph` must resolve every held id (the added ones
    /// included) to its graph and that graph's index.
    pub fn apply_batch<'a, F>(&mut self, added: &[usize], removed: &[usize], graph: F)
    where
        F: Fn(usize) -> (&'a Graph, &'a GraphIndex),
    {
        let opts = MatchOptions::default();
        // 1. drop removed graphs from every support set
        for id in removed {
            self.live.remove(id);
        }
        for ct in self.trees.values_mut() {
            for id in removed {
                if let Ok(pos) = ct.tree.support_set.binary_search(id) {
                    ct.tree.support_set.remove(pos);
                }
            }
        }

        self.live.extend(added);
        if !added.is_empty() {
            // 2. probe added graphs against existing trees, compiling
            //    each tree once
            let probes: Vec<(usize, &Graph, &GraphIndex)> = added
                .iter()
                .map(|&id| {
                    let (g, ix) = graph(id);
                    (id, g, ix)
                })
                .collect();
            for ct in self.trees.values_mut() {
                let plan = PatternPlan::new(&ct.tree.tree);
                for &(id, g, ix) in &probes {
                    if plan.is_subgraph_of(g, Some(ix), opts) {
                        if let Err(pos) = ct.tree.support_set.binary_search(&id) {
                            ct.tree.support_set.insert(pos, id);
                        }
                    }
                }
            }

            // 3. mine the added graphs alone to discover trees that may
            //    have become frequent; count their support over every
            //    held graph
            let added_graphs: Vec<(&Graph, &GraphIndex)> =
                probes.iter().map(|&(_, g, ix)| (g, ix)).collect();
            let local = mine_frequent_subtrees_indexed(
                &added_graphs,
                MineParams {
                    min_support: 1,
                    max_nodes: self.params.max_nodes,
                },
            );
            for cand in local {
                if self.trees.contains_key(&cand.code) {
                    continue;
                }
                let plan = PatternPlan::new(&cand.tree);
                let support_set: Vec<usize> = self
                    .live
                    .iter()
                    .copied()
                    .filter(|&gi| {
                        let (g, ix) = graph(gi);
                        plan.is_subgraph_of(g, Some(ix), opts)
                    })
                    .collect();
                if support_set.len() >= self.params.min_support {
                    self.trees.insert(
                        cand.code.clone(),
                        ClosedTree {
                            tree: FrequentTree {
                                tree: cand.tree,
                                code: cand.code,
                                support_set,
                            },
                            closed: true,
                        },
                    );
                }
            }
        }

        // 4. evict trees that fell below the support threshold
        let min_sup = self.params.min_support;
        self.trees.retain(|_, ct| ct.tree.support() >= min_sup);

        // 5. recompute closedness flags
        self.recompute_closedness();
    }

    /// A tree is closed iff no other frequent tree strictly contains it
    /// with equal support, so each tree is compared only with the larger
    /// trees of its own support.
    fn recompute_closedness(&mut self) {
        let mut by_support: HashMap<usize, Vec<&ClosedTree>> = HashMap::new();
        for ct in self.trees.values() {
            by_support.entry(ct.tree.support()).or_default().push(ct);
        }
        let flags: Vec<bool> = self
            .trees
            .values()
            .map(|ct| {
                let size = ct.tree.size();
                let mut larger = by_support[&ct.tree.support()]
                    .iter()
                    .filter(|t| t.tree.size() > size)
                    .peekable();
                if larger.peek().is_none() {
                    return true;
                }
                let plan = PatternPlan::new(&ct.tree.tree);
                !larger.any(|t| plan.is_subgraph_of(&t.tree.tree, None, MatchOptions::default()))
            })
            .collect();
        for (ct, closed) in self.trees.values_mut().zip(flags) {
            ct.closed = closed;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::FeatureSpace;
    use vqi_graph::generate::{chain, star};

    fn params() -> MineParams {
        MineParams {
            min_support: 2,
            max_nodes: 4,
        }
    }

    /// Graphs with their indexes, graph `i` being id `i`.
    struct Indexed(Vec<(Graph, GraphIndex)>);

    impl Indexed {
        fn new(graphs: Vec<Graph>) -> Self {
            Indexed(
                graphs
                    .into_iter()
                    .map(|g| {
                        let ix = GraphIndex::build(&g);
                        (g, ix)
                    })
                    .collect(),
            )
        }

        fn pairs(&self, ids: std::ops::Range<usize>) -> Vec<(usize, &Graph)> {
            ids.map(|i| (i, &self.0[i].0)).collect()
        }

        fn get(&self, id: usize) -> (&Graph, &GraphIndex) {
            (&self.0[id].0, &self.0[id].1)
        }
    }

    fn summary(idx: &FctIndex) -> Vec<(CanonicalCode, Vec<usize>, bool)> {
        idx.frequent_trees()
            .map(|t| (t.tree.code.clone(), t.tree.support_set.clone(), t.closed))
            .collect()
    }

    #[test]
    fn build_finds_closed_trees() {
        let graphs = Indexed::new(vec![chain(4, 1, 0), chain(3, 1, 0), star(3, 1, 0)]);
        let idx = FctIndex::build(&graphs.pairs(0..3), params());
        let all: Vec<&ClosedTree> = idx.frequent_trees().collect();
        let closed = idx.closed_trees().count();
        assert!(!all.is_empty());
        assert!(closed > 0);
        assert!(closed <= all.len());
        // the single-node label-1 tree occurs in all 3 graphs, but so does
        // the 1-1 edge: the single node is NOT closed
        let singleton = all
            .iter()
            .find(|t| t.tree.size() == 1)
            .expect("singleton mined");
        assert_eq!(singleton.tree.support(), 3);
        assert!(!singleton.closed, "singleton dominated by the 1-1 edge");
    }

    #[test]
    fn build_keys_support_sets_by_id() {
        // ids 3 and 7: a collection with holes
        let graphs = [chain(4, 1, 0), star(3, 1, 0)];
        let idx = FctIndex::build(&[(3, &graphs[0]), (7, &graphs[1])], params());
        let edge = idx.frequent_trees().find(|t| t.tree.size() == 2).unwrap();
        assert_eq!(edge.tree.support_set, vec![3, 7]);
        assert!(idx.holds(3) && idx.holds(7) && !idx.holds(0));
    }

    #[test]
    fn batch_add_updates_supports() {
        let graphs = Indexed::new(vec![chain(3, 1, 0), chain(4, 1, 0), chain(5, 1, 0)]);
        let mut idx = FctIndex::build(&graphs.pairs(0..2), params());
        let edge_support = |idx: &FctIndex| {
            idx.frequent_trees()
                .find(|t| t.tree.size() == 2)
                .unwrap()
                .tree
                .support()
        };
        assert_eq!(edge_support(&idx), 2);
        idx.apply_batch(&[2], &[], |i| graphs.get(i));
        assert_eq!(idx.live_graphs(), 3);
        assert_eq!(edge_support(&idx), 3);
    }

    #[test]
    fn batch_add_discovers_new_trees() {
        // initially only one star: claw not frequent
        let graphs = Indexed::new(vec![star(3, 7, 0), chain(3, 1, 0), star(4, 7, 0)]);
        let mut idx = FctIndex::build(&graphs.pairs(0..2), params());
        let claw_code = vqi_graph::canon::canonical_code(&star(3, 7, 0));
        assert!(idx.frequent_trees().all(|t| t.tree.code != claw_code));

        // add a second star: claw becomes frequent
        idx.apply_batch(&[2], &[], |i| graphs.get(i));
        assert!(
            idx.frequent_trees().any(|t| t.tree.code == claw_code),
            "claw should now be frequent"
        );
    }

    #[test]
    fn batch_remove_evicts_infrequent() {
        let graphs = Indexed::new(vec![star(3, 7, 0), star(3, 7, 0), chain(3, 1, 0)]);
        let mut idx = FctIndex::build(&graphs.pairs(0..3), params());
        let n_before = idx.frequent_trees().count();
        assert!(n_before > 0);
        idx.apply_batch(&[], &[0], |i| graphs.get(i));
        // all label-7 trees supported by {0, 1} drop to support 1 -> evicted
        assert!(idx.frequent_trees().all(|t| t.tree.support() >= 2));
        assert!(idx.frequent_trees().count() < n_before);
        assert_eq!(idx.live_graphs(), 2);
    }

    #[test]
    fn incremental_matches_rebuild() {
        let graphs = Indexed::new(vec![chain(3, 1, 0), star(3, 1, 0), chain(4, 1, 0)]);
        let mut idx = FctIndex::build(&graphs.pairs(0..2), params());
        idx.apply_batch(&[2], &[], |i| graphs.get(i));
        let rebuilt = FctIndex::build(&graphs.pairs(0..3), params());
        assert_eq!(summary(&idx), summary(&rebuilt));
    }

    #[test]
    fn vectors_equal_feature_space_for_held_and_probed_ids() {
        let graphs = Indexed::new(vec![
            chain(4, 1, 0),
            star(3, 1, 0),
            chain(3, 1, 0),
            star(4, 1, 0),
        ]);
        // id 3 is not held: its vector is probed
        let idx = FctIndex::build(&graphs.pairs(0..3), params());
        let space = FeatureSpace::new(idx.closed_trees().map(|t| t.tree.tree.clone()).collect());
        let ids = [3, 0, 2, 1];
        let got = idx.vectors(&ids, |i| graphs.get(i));
        for (&id, v) in ids.iter().zip(&got) {
            assert_eq!(*v, space.vector(graphs.get(id).0), "id {id}");
        }
    }
}
