//! Frequent subtree mining over a collection of data graphs.
//!
//! CATAPULT clusters data graphs by the frequent subtrees they contain.
//! The miner here uses pattern growth: level 1 is the frequent node
//! labels; each subsequent level extends every frequent tree by one edge
//! (to a fresh node) at every possible attachment point with every
//! frequent (edge label, node label) combination observed in the
//! supporting graphs, deduplicates candidates by canonical code, and
//! keeps those whose *support* (number of distinct graphs containing an
//! embedding) meets the threshold. Anti-monotonicity of support makes the
//! level-wise search complete for the configured size bound.

use std::borrow::Borrow;
use std::collections::{HashMap, HashSet};
use vqi_graph::canon::{canonical_code, CanonicalCode};
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
/// Support sets name positions in `graphs`, ascending.
pub fn mine_frequent_subtrees<G: Borrow<Graph>>(
    graphs: &[G],
    params: MineParams,
) -> Vec<FrequentTree> {
    let min_sup = params.min_support.max(1);
    let mut result: Vec<FrequentTree> = Vec::new();

    // level 1: frequent node labels
    let mut label_support: HashMap<Label, Vec<usize>> = HashMap::new();
    for (gi, g) in graphs.iter().enumerate() {
        let g = g.borrow();
        let mut labels: Vec<Label> = g.nodes().map(|v| g.node_label(v)).collect();
        labels.sort_unstable();
        labels.dedup();
        for l in labels {
            label_support.entry(l).or_default().push(gi);
        }
    }
    let mut frontier: Vec<FrequentTree> = Vec::new();
    let mut labels: Vec<(Label, Vec<usize>)> = label_support.into_iter().collect();
    labels.sort_unstable_by_key(|(l, _)| *l);
    for (l, support_set) in labels {
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

    // (edge label, node label) pairs present per graph, for extension
    let mut ext_pairs: Vec<(Label, Label)> = {
        let mut set = HashSet::new();
        for g in graphs {
            let g = g.borrow();
            for e in g.edges() {
                let (u, v) = g.endpoints(e);
                set.insert((g.edge_label(e), g.node_label(u)));
                set.insert((g.edge_label(e), g.node_label(v)));
            }
        }
        set.into_iter().collect()
    };
    ext_pairs.sort_unstable();

    while !frontier.is_empty() {
        result.extend(frontier.iter().cloned());
        // frontier trees all share a size; stop at the bound
        if frontier[0].size() >= params.max_nodes {
            break;
        }
        let mut seen: HashSet<CanonicalCode> = HashSet::new();
        let mut next: Vec<FrequentTree> = Vec::new();
        for ft in &frontier {
            for attach in ft.tree.nodes().collect::<Vec<NodeId>>() {
                for &(el, nl) in &ext_pairs {
                    let mut cand = ft.tree.clone();
                    let nv = cand.add_node(nl);
                    cand.add_edge(attach, nv, el);
                    let code = canonical_code(&cand);
                    if !seen.insert(code.clone()) {
                        continue;
                    }
                    // count support within the parent's support set
                    // (anti-monotone), compiling the candidate once
                    let plan = PatternPlan::new(&cand);
                    let support_set: Vec<usize> = ft
                        .support_set
                        .iter()
                        .copied()
                        .filter(|&gi| {
                            plan.is_subgraph_of(graphs[gi].borrow(), None, MatchOptions::default())
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

#[cfg(test)]
mod tests {
    use super::*;
    use vqi_graph::generate::{chain, cycle, star};

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
}
