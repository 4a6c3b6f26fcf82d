//! Frequent subtree mining over a collection of data graphs.
//!
//! CATAPULT clusters data graphs by the frequent subtrees they contain,
//! and MIDAS maintains its closed-tree features with the same miner.
//! The search is level-wise: level 1 is the frequent node labels, and
//! level `k + 1` holds the frequent one-edge extensions (a fresh node
//! hung off one node of the tree) of the level-`k` trees, deduplicated
//! by canonical code. Anti-monotonicity of support makes the search
//! complete for the configured size bound.
//!
//! ## Occurrence-driven extension
//!
//! Candidates are read off the occurrences of their parent instead of
//! being generated blind and tested. Each frontier tree is compiled
//! into one [`PatternPlan`] and its embeddings are enumerated once in
//! every graph of its support set, through that graph's [`GraphIndex`].
//! Every free neighbour of every mapped node yields an *extension key*
//! `(attach node, edge label, new node label)`, and the ascending ids
//! of the graphs in which a key occurs are exactly the support set of
//! that extension: a graph contains the extended tree iff some
//! embedding of the parent has a matching free neighbour at the attach
//! node. Only the keys that occur are canonicalized, walked in the
//! order `(frontier tree, attach node, edge label, node label)` with
//! first-seen deduplication by code. An extension that occurs nowhere
//! has support 0 whichever parent builds it, so skipping it changes
//! neither the output trees, their codes, their support sets nor their
//! order.
//!
//! An enumeration that stops early (its state budget runs out) must not
//! drop support: such a graph is counted as `kernel.fst.truncated` and
//! every extension the data allows at that level is tested against it
//! with a plain containment search, as a generate-and-test miner would.

use std::borrow::Borrow;
use std::collections::{BTreeMap, BTreeSet, HashSet};
use vqi_graph::canon::{canonical_code, CanonicalCode};
use vqi_graph::index::GraphIndex;
use vqi_graph::iso::{MatchOptions, PatternPlan};
use vqi_graph::{Graph, Label, NodeId};

/// A mined frequent tree with its supporting graph ids.
#[derive(Debug, Clone)]
pub struct FrequentTree {
    /// The tree pattern itself.
    pub tree: Graph,
    /// Canonical code (dedup key).
    pub code: CanonicalCode,
    /// Ids (indices into the mined collection) of graphs containing it.
    pub support_set: Vec<usize>,
}

impl FrequentTree {
    /// Support count.
    pub fn support(&self) -> usize {
        self.support_set.len()
    }

    /// Number of nodes in the tree.
    pub fn size(&self) -> usize {
        self.tree.node_count()
    }
}

/// Mining parameters.
#[derive(Debug, Clone, Copy)]
pub struct MineParams {
    /// Minimum support as an absolute number of graphs.
    pub min_support: usize,
    /// Maximum tree size in nodes (level bound).
    pub max_nodes: usize,
}

impl Default for MineParams {
    fn default() -> Self {
        MineParams {
            min_support: 2,
            max_nodes: 4,
        }
    }
}

/// Mines all frequent subtrees of up to `params.max_nodes` nodes.
/// Support sets name positions in `graphs`, ascending. Builds a
/// [`GraphIndex`] of every graph; callers that hold indexes already use
/// [`mine_frequent_subtrees_indexed`].
pub fn mine_frequent_subtrees<G: Borrow<Graph>>(
    graphs: &[G],
    params: MineParams,
) -> Vec<FrequentTree> {
    let indexes: Vec<GraphIndex> = graphs
        .iter()
        .map(|g| GraphIndex::build(g.borrow()))
        .collect();
    let targets: Vec<(&Graph, &GraphIndex)> =
        graphs.iter().map(Borrow::borrow).zip(&indexes).collect();
    mine_frequent_subtrees_indexed(&targets, params)
}

/// [`mine_frequent_subtrees`] over graphs paired with their indexes
/// (each index built from its own graph).
pub fn mine_frequent_subtrees_indexed(
    graphs: &[(&Graph, &GraphIndex)],
    params: MineParams,
) -> Vec<FrequentTree> {
    mine(graphs, params, MatchOptions::default())
}

/// A one-edge extension of a tree: (attach node, edge label, label of
/// the new node).
type ExtKey = (NodeId, Label, Label);

/// What the embeddings of one frontier tree say about its extensions.
struct Occurrences {
    /// Support set (ascending positions) of every extension found.
    found: BTreeMap<ExtKey, Vec<usize>>,
    /// Graphs of the tree's support set whose enumeration stopped early.
    truncated: Vec<usize>,
}

/// Enumerates the embeddings of `ft` in every graph of its support set
/// (under `opts`) and collects the extension keys they allow.
fn occurrences(
    ft: &FrequentTree,
    graphs: &[(&Graph, &GraphIndex)],
    opts: MatchOptions,
) -> Occurrences {
    let plan = PatternPlan::new(&ft.tree);
    let mut found: BTreeMap<ExtKey, Vec<usize>> = BTreeMap::new();
    let mut truncated = Vec::new();
    for &gi in &ft.support_set {
        let (g, ix) = graphs[gi];
        let outcome = plan.enumerate(g, Some(ix), opts, |mapping| {
            for (p, &t) in mapping.iter().enumerate() {
                for &(w, e) in g.neighbor_slice(t) {
                    if mapping.contains(&w) {
                        continue;
                    }
                    let key = (NodeId(p as u32), g.edge_label(e), g.node_label(w));
                    let support = found.entry(key).or_default();
                    if support.last() != Some(&gi) {
                        support.push(gi);
                    }
                }
            }
            true
        });
        if !outcome.complete {
            truncated.push(gi);
        }
    }
    Occurrences { found, truncated }
}

/// The miner behind both entry points; `enum_opts` bounds the
/// occurrence enumerations (the truncation fallback always tests with
/// [`MatchOptions::default`]).
fn mine(
    graphs: &[(&Graph, &GraphIndex)],
    params: MineParams,
    enum_opts: MatchOptions,
) -> Vec<FrequentTree> {
    let min_sup = params.min_support.max(1);
    let mut result: Vec<FrequentTree> = Vec::new();

    // level 1: frequent node labels
    let mut label_support: BTreeMap<Label, Vec<usize>> = BTreeMap::new();
    for (gi, &(g, _)) in graphs.iter().enumerate() {
        let mut labels: Vec<Label> = g.nodes().map(|v| g.node_label(v)).collect();
        labels.sort_unstable();
        labels.dedup();
        for l in labels {
            label_support.entry(l).or_default().push(gi);
        }
    }
    let mut frontier: Vec<FrequentTree> = Vec::new();
    for (l, support_set) in label_support {
        if support_set.len() >= min_sup {
            let mut t = Graph::new();
            t.add_node(l);
            frontier.push(FrequentTree {
                code: canonical_code(&t),
                tree: t,
                support_set,
            });
        }
    }

    // every (edge label, node label) pair of the collection, needed only
    // to test the graphs an enumeration could not finish
    let mut ext_pairs: Option<Vec<(Label, Label)>> = None;
    // frontier trees all share a size; stop at the bound
    while !frontier.is_empty() && frontier[0].size() < params.max_nodes {
        let mut seen: HashSet<CanonicalCode> = HashSet::new();
        let mut next: Vec<FrequentTree> = Vec::new();
        for ft in &frontier {
            let mut occ = occurrences(ft, graphs, enum_opts);
            let keys: Vec<ExtKey> = if occ.truncated.is_empty() {
                occ.found.keys().copied().collect()
            } else {
                vqi_observe::incr("kernel.fst.truncated", occ.truncated.len() as u64);
                let pairs = ext_pairs.get_or_insert_with(|| edge_types(graphs));
                ft.tree
                    .nodes()
                    .flat_map(|a| pairs.iter().map(move |&(el, nl)| (a, el, nl)))
                    .collect()
            };
            for (attach, el, nl) in keys {
                let mut cand = ft.tree.clone();
                let nv = cand.add_node(nl);
                cand.add_edge(attach, nv, el);
                let code = canonical_code(&cand);
                if !seen.insert(code.clone()) {
                    continue;
                }
                let mut support_set = occ.found.remove(&(attach, el, nl)).unwrap_or_default();
                if !occ.truncated.is_empty() {
                    let plan = PatternPlan::new(&cand);
                    for &gi in &occ.truncated {
                        if let Err(pos) = support_set.binary_search(&gi) {
                            let (g, ix) = graphs[gi];
                            if plan.is_subgraph_of(g, Some(ix), MatchOptions::default()) {
                                support_set.insert(pos, gi);
                            }
                        }
                    }
                }
                if support_set.len() >= min_sup {
                    next.push(FrequentTree {
                        tree: cand,
                        code,
                        support_set,
                    });
                }
            }
        }
        result.append(&mut frontier);
        frontier = next;
    }
    result.append(&mut frontier);
    result
}

/// The sorted distinct (edge label, endpoint label) pairs of `graphs`.
fn edge_types(graphs: &[(&Graph, &GraphIndex)]) -> Vec<(Label, Label)> {
    let mut pairs = BTreeSet::new();
    for &(g, _) in graphs {
        for e in g.edges() {
            let (u, v) = g.endpoints(e);
            pairs.insert((g.edge_label(e), g.node_label(u)));
            pairs.insert((g.edge_label(e), g.node_label(v)));
        }
    }
    pairs.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use std::collections::HashMap;
    use vqi_graph::generate::{assign_labels, chain, cycle, random_tree, star};

    fn collection() -> Vec<Graph> {
        vec![
            chain(4, 1, 0), // path with node label 1
            chain(3, 1, 0),
            star(3, 1, 0),
            cycle(4, 2, 0), // different node label
        ]
    }

    #[test]
    fn single_labels_are_mined() {
        let graphs = collection();
        let trees = mine_frequent_subtrees(
            &graphs,
            MineParams {
                min_support: 3,
                max_nodes: 1,
            },
        );
        // label 1 appears in 3 graphs; label 2 only in 1
        assert_eq!(trees.len(), 1);
        assert_eq!(trees[0].tree.node_label(NodeId(0)), 1);
        assert_eq!(trees[0].support(), 3);
    }

    #[test]
    fn edges_and_paths_are_mined() {
        let graphs = collection();
        let trees = mine_frequent_subtrees(
            &graphs,
            MineParams {
                min_support: 3,
                max_nodes: 3,
            },
        );
        let sizes: Vec<usize> = trees.iter().map(|t| t.size()).collect();
        // single node (1), edge (1-1), path of 3 (all in 3 graphs)
        assert!(sizes.contains(&1));
        assert!(sizes.contains(&2));
        assert!(sizes.contains(&3));
        for t in &trees {
            assert!(t.support() >= 3);
            // every mined pattern is a tree
            assert_eq!(t.tree.edge_count(), t.tree.node_count() - 1);
        }
    }

    #[test]
    fn support_is_anti_monotone() {
        let graphs = collection();
        let trees = mine_frequent_subtrees(
            &graphs,
            MineParams {
                min_support: 2,
                max_nodes: 4,
            },
        );
        // every supertree in the output has support <= some subtree: check
        // globally that larger trees never have larger support than the
        // maximum support of smaller trees
        let max_by_size: HashMap<usize, usize> = trees.iter().fold(HashMap::new(), |mut m, t| {
            let e = m.entry(t.size()).or_insert(0);
            *e = (*e).max(t.support());
            m
        });
        for size in 2..=4 {
            if let (Some(&small), Some(&big)) =
                (max_by_size.get(&(size - 1)), max_by_size.get(&size))
            {
                assert!(big <= small, "size {size}: {big} > {small}");
            }
        }
    }

    #[test]
    fn star_is_found_when_frequent() {
        let graphs = vec![star(3, 5, 7), star(4, 5, 7), star(3, 5, 7)];
        let trees = mine_frequent_subtrees(
            &graphs,
            MineParams {
                min_support: 3,
                max_nodes: 4,
            },
        );
        let claw = star(3, 5, 7);
        let claw_code = canonical_code(&claw);
        assert!(
            trees.iter().any(|t| t.code == claw_code),
            "claw should be frequent"
        );
    }

    #[test]
    fn no_duplicates_by_code() {
        let graphs = collection();
        let trees = mine_frequent_subtrees(&graphs, MineParams::default());
        let mut codes: Vec<&CanonicalCode> = trees.iter().map(|t| &t.code).collect();
        let before = codes.len();
        codes.sort();
        codes.dedup();
        assert_eq!(before, codes.len());
    }

    #[test]
    fn empty_collection() {
        let trees = mine_frequent_subtrees::<Graph>(&[], MineParams::default());
        assert!(trees.is_empty());
    }

    #[test]
    fn min_support_filters() {
        let graphs = collection();
        let lo = mine_frequent_subtrees(
            &graphs,
            MineParams {
                min_support: 1,
                max_nodes: 2,
            },
        );
        let hi = mine_frequent_subtrees(
            &graphs,
            MineParams {
                min_support: 4,
                max_nodes: 2,
            },
        );
        assert!(lo.len() > hi.len());
    }

    /// The generate-and-test miner the occurrence-driven one replaced,
    /// kept as its oracle: every extension of every frontier tree by
    /// every (edge label, node label) pair of the collection is
    /// canonicalized, deduplicated first-seen by code, and tested by VF2
    /// against each graph of its parent's support set.
    fn generate_and_test(graphs: &[Graph], params: MineParams) -> Vec<FrequentTree> {
        let min_sup = params.min_support.max(1);
        let mut label_support: BTreeMap<Label, Vec<usize>> = BTreeMap::new();
        for (gi, g) in graphs.iter().enumerate() {
            let mut labels: Vec<Label> = g.nodes().map(|v| g.node_label(v)).collect();
            labels.sort_unstable();
            labels.dedup();
            for l in labels {
                label_support.entry(l).or_default().push(gi);
            }
        }
        let mut frontier: Vec<FrequentTree> = Vec::new();
        for (l, support_set) in label_support {
            if support_set.len() >= min_sup {
                let mut t = Graph::new();
                t.add_node(l);
                frontier.push(FrequentTree {
                    code: canonical_code(&t),
                    tree: t,
                    support_set,
                });
            }
        }
        let mut ext_pairs: Vec<(Label, Label)> = {
            let mut set = HashSet::new();
            for g in graphs {
                for e in g.edges() {
                    let (u, v) = g.endpoints(e);
                    set.insert((g.edge_label(e), g.node_label(u)));
                    set.insert((g.edge_label(e), g.node_label(v)));
                }
            }
            set.into_iter().collect()
        };
        ext_pairs.sort_unstable();
        let mut result = Vec::new();
        while !frontier.is_empty() {
            result.extend(frontier.iter().cloned());
            if frontier[0].size() >= params.max_nodes {
                break;
            }
            let mut seen: HashSet<CanonicalCode> = HashSet::new();
            let mut next: Vec<FrequentTree> = Vec::new();
            for ft in &frontier {
                for attach in ft.tree.nodes() {
                    for &(el, nl) in &ext_pairs {
                        let mut cand = ft.tree.clone();
                        let nv = cand.add_node(nl);
                        cand.add_edge(attach, nv, el);
                        let code = canonical_code(&cand);
                        if !seen.insert(code.clone()) {
                            continue;
                        }
                        let plan = PatternPlan::new(&cand);
                        let support_set: Vec<usize> = ft
                            .support_set
                            .iter()
                            .copied()
                            .filter(|&gi| {
                                plan.is_subgraph_of(&graphs[gi], None, MatchOptions::default())
                            })
                            .collect();
                        if support_set.len() >= min_sup {
                            next.push(FrequentTree {
                                tree: cand,
                                code,
                                support_set,
                            });
                        }
                    }
                }
            }
            frontier = next;
        }
        result
    }

    /// Everything the miner reports, in order: each tree (its exact
    /// node and edge layout), its code and its support set.
    fn listing(trees: &[FrequentTree]) -> Vec<(String, CanonicalCode, Vec<usize>)> {
        trees
            .iter()
            .map(|t| {
                (
                    format!("{:?}", t.tree),
                    t.code.clone(),
                    t.support_set.clone(),
                )
            })
            .collect()
    }

    /// A labeled collection: random trees with extra edges, plus one
    /// hub-heavy star whose leaves carry mixed labels.
    fn labeled_collection(seed: u64) -> Vec<Graph> {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut graphs: Vec<Graph> = (0..rng.gen_range(6..12))
            .map(|_| {
                let n = rng.gen_range(2..9);
                let mut g = random_tree(n, 0, &mut rng);
                for _ in 0..rng.gen_range(0..3) {
                    let (u, v) = (rng.gen_range(0..n), rng.gen_range(0..n));
                    g.add_edge(NodeId(u as u32), NodeId(v as u32), 0);
                }
                assign_labels(&mut g, 3, 2, &mut rng);
                g
            })
            .collect();
        let mut hub = star(10, 0, 0);
        assign_labels(&mut hub, 3, 2, &mut rng);
        graphs.insert(rng.gen_range(0..graphs.len()), hub);
        graphs
    }

    #[test]
    fn occurrence_miner_matches_generate_and_test_oracle() {
        for seed in 0..12u64 {
            let graphs = labeled_collection(seed);
            let indexes: Vec<GraphIndex> = graphs.iter().map(GraphIndex::build).collect();
            let targets: Vec<(&Graph, &GraphIndex)> = graphs.iter().zip(&indexes).collect();
            let n = graphs.len();
            for min_support in [1, 2, n.div_ceil(10), n.div_ceil(2)] {
                for max_nodes in 1..=5 {
                    let params = MineParams {
                        min_support,
                        max_nodes,
                    };
                    let want = listing(&generate_and_test(&graphs, params));
                    let ctx = format!("seed {seed}, support {min_support}, {max_nodes} nodes");
                    assert_eq!(
                        listing(&mine_frequent_subtrees(&graphs, params)),
                        want,
                        "{ctx}"
                    );
                    // a state budget that stops most enumerations early
                    // sends them through the candidate-by-candidate test
                    let starved = MatchOptions {
                        max_states: 4,
                        ..Default::default()
                    };
                    assert_eq!(
                        listing(&mine(&targets, params, starved)),
                        want,
                        "{ctx}, truncated enumerations"
                    );
                }
            }
        }
    }

    #[test]
    fn a_starved_enumeration_reports_its_graphs_as_truncated() {
        let graphs = labeled_collection(3);
        let indexes: Vec<GraphIndex> = graphs.iter().map(GraphIndex::build).collect();
        let targets: Vec<(&Graph, &GraphIndex)> = graphs.iter().zip(&indexes).collect();
        let edge = mine_frequent_subtrees(
            &graphs,
            MineParams {
                min_support: 1,
                max_nodes: 2,
            },
        )
        .into_iter()
        .find(|t| t.size() == 2)
        .expect("an edge is frequent");
        let starved = MatchOptions {
            max_states: 1,
            ..Default::default()
        };
        let occ = occurrences(&edge, &targets, starved);
        assert!(!occ.truncated.is_empty());
        let full = occurrences(&edge, &targets, MatchOptions::default());
        assert!(full.truncated.is_empty());
        assert!(!full.found.is_empty());
    }
}
