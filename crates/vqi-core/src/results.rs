//! Query evaluation: what fills the Results Panel.
//!
//! [`query_collection`] is the one collection query of the workspace:
//! the Results Panel ([`run_query`]), the service's `query` endpoint and
//! the CLI's `vqi search` all sweep one compiled pattern over a
//! collection's entries through it.

use crate::ctrl::{Budget, Degradation, PipelineOutcome};
use crate::repo::{GraphCollection, GraphRepository};
use crate::score::coverage_match_options;
use vqi_graph::iso::{enumerate_embeddings, MatchOptions, PatternPlan};
use vqi_graph::{Graph, NodeId};
use vqi_runtime::VqiError;

/// One matched graph of a collection query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueryHit {
    /// Collection slot id.
    pub graph_id: usize,
    /// Embeddings found (capped by the per-graph limit).
    pub embeddings: usize,
}

/// The matches of a collection query.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct QueryMatches {
    /// Graphs with at least one embedding, in slot-id order.
    pub hits: Vec<QueryHit>,
    /// Graphs fully examined before any budget trip.
    pub graphs_examined: usize,
    /// Sum of embeddings over `hits`.
    pub total_embeddings: usize,
}

/// Compiles `query` once and counts its embeddings (at most
/// `opts.max_embeddings` each) in every live graph of `collection`, in
/// slot-id order, against each graph's stored
/// [`GraphIndex`](vqi_graph::index::GraphIndex). A graph whose stored
/// fingerprint cannot host the query is skipped without matching — the
/// fingerprint test is a necessary condition, so it only drops graphs
/// with no embedding — and the indexed search reports the same
/// embeddings in the same order as the unindexed one. The result is
/// therefore the plain per-graph `count_embeddings` scan, bit for bit.
///
/// `ctrl` is checked (stage `query`) before every graph, so a deadline
/// or cancel is seen between graphs however small each match is; the
/// sweep then stops and returns the finished prefix as `Degraded`
/// (`Err` only under a fail-fast budget).
///
/// Also returns how many graphs the fingerprint filter refused.
pub fn query_collection(
    collection: &GraphCollection,
    query: &Graph,
    opts: MatchOptions,
    ctrl: &Budget,
) -> Result<(PipelineOutcome<QueryMatches>, usize), VqiError> {
    let plan = PatternPlan::new(query);
    let mut deg = Degradation::new();
    let mut matches = QueryMatches::default();
    let mut filtered = 0;
    for (id, entry) in collection.entries() {
        let step = ctrl.check("query").and_then(|()| {
            plan.enumerate_ctrl(entry.graph(), Some(entry.index()), opts, ctrl, |_| true)
        });
        match step {
            Ok(out) => {
                filtered += usize::from(out.filtered);
                let n = out.embeddings;
                matches.graphs_examined += 1;
                if n > 0 {
                    matches.total_embeddings += n;
                    matches.hits.push(QueryHit {
                        graph_id: id,
                        embeddings: n,
                    });
                }
            }
            Err(e) => {
                deg.absorb(ctrl, e)?;
                break;
            }
        }
    }
    Ok((deg.finish(matches), filtered))
}

/// Results of running a query against a repository.
#[derive(Debug, Clone)]
pub enum QueryResults {
    /// Per-graph matches for a collection.
    Collection {
        /// Graphs containing at least one embedding.
        matches: Vec<QueryHit>,
        /// Number of live graphs examined.
        examined: usize,
    },
    /// Embeddings into a single network.
    Network {
        /// Node mappings (query node index → network node), capped.
        embeddings: Vec<Vec<NodeId>>,
        /// Whether the enumeration was cut: the network holds more
        /// embeddings than the cap, or the state budget stopped it.
        truncated: bool,
    },
}

impl QueryResults {
    /// Number of result entries (matching graphs or embeddings).
    pub fn len(&self) -> usize {
        match self {
            QueryResults::Collection { matches, .. } => matches.len(),
            QueryResults::Network { embeddings, .. } => embeddings.len(),
        }
    }

    /// True if the query matched nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Options for result enumeration.
#[derive(Debug, Clone, Copy)]
pub struct ResultOptions {
    /// Maximum embeddings per graph (collection) or in total (network).
    pub max_embeddings: usize,
}

impl Default for ResultOptions {
    fn default() -> Self {
        ResultOptions {
            max_embeddings: 100,
        }
    }
}

/// Runs `query` against `repo`.
pub fn run_query(query: &Graph, repo: &GraphRepository, opts: ResultOptions) -> QueryResults {
    let match_opts = MatchOptions {
        max_embeddings: opts.max_embeddings,
        ..coverage_match_options()
    };
    match repo {
        GraphRepository::Collection(c) => {
            let (outcome, _) = query_collection(c, query, match_opts, &Budget::unlimited())
                .expect("an unlimited budget never trips");
            QueryResults::Collection {
                matches: outcome.value.hits,
                examined: outcome.value.graphs_examined,
            }
        }
        GraphRepository::Network(g) => {
            // one embedding past the cap tells a cut enumeration from
            // one that ended exactly at the cap; a search stopped by
            // the state budget is incomplete too
            let probe = MatchOptions {
                max_embeddings: opts.max_embeddings.saturating_add(1),
                ..match_opts
            };
            let mut embeddings = Vec::new();
            let out = enumerate_embeddings(query, g, probe, |m| {
                embeddings.push(m.to_vec());
                true
            });
            let truncated = !out.complete;
            embeddings.truncate(opts.max_embeddings);
            QueryResults::Network {
                embeddings,
                truncated,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctrl::Completeness;
    use crate::repo::BatchUpdate;
    use vqi_datasets::{aids_like, MoleculeParams};
    use vqi_graph::generate::{chain, clique, cycle, star};
    use vqi_graph::iso::count_embeddings;
    use vqi_graph::{Label, WILDCARD_LABEL};

    fn molecules(count: usize, seed: u64) -> Vec<Graph> {
        aids_like(MoleculeParams {
            count,
            seed,
            max_rings: 1,
            max_chains: 2,
            max_chain_len: 2,
        })
    }

    /// The answer [`query_collection`] must give: a sequential,
    /// unindexed `count_embeddings` scan of every live graph.
    fn plain_scan(collection: &GraphCollection, query: &Graph, opts: MatchOptions) -> QueryMatches {
        let mut m = QueryMatches::default();
        for (graph_id, g) in collection.iter() {
            let embeddings = count_embeddings(query, g, opts);
            m.graphs_examined += 1;
            if embeddings > 0 {
                m.total_embeddings += embeddings;
                m.hits.push(QueryHit {
                    graph_id,
                    embeddings,
                });
            }
        }
        m
    }

    /// The subgraph induced by the first `k` nodes of a breadth-first
    /// walk from node 0: a connected query that embeds in `g`.
    fn bfs_piece(g: &Graph, k: usize) -> Graph {
        let mut order = vec![NodeId(0)];
        let mut at = 0;
        while at < order.len() && order.len() < k {
            for (n, _) in g.neighbors(order[at]) {
                if order.len() < k && !order.contains(&n) {
                    order.push(n);
                }
            }
            at += 1;
        }
        g.induced_subgraph(&order).0
    }

    #[test]
    fn filtered_indexed_query_is_bit_identical_to_a_plain_scan() {
        const CAP: usize = 50;
        // the service's options, and the wildcard semantics of the
        // Results Panel and `vqi search`
        let option_sets = [
            MatchOptions {
                max_embeddings: CAP,
                ..Default::default()
            },
            MatchOptions {
                max_embeddings: CAP,
                ..MatchOptions::with_wildcards()
            },
        ];
        // graphs that held / did not hold some query: both must occur,
        // or the comparison says nothing about the filter
        let (mut held, mut rejected) = (0, 0);
        for cap in [1usize, 2, 4] {
            vqi_graph::par::set_thread_cap(cap);
            for seed in 0..12u64 {
                let mut collection = GraphCollection::new(molecules(14, 100 + seed));
                let extra = molecules(4, 200 + seed);
                // epoch 0 is dense; epochs 1 and 2 leave tombstones and
                // append graphs, so slot ids skip, and untouched graphs
                // keep the index an earlier sweep built
                let batches = [
                    BatchUpdate {
                        additions: extra[..2].to_vec(),
                        removals: vec![1, 4, 9],
                    },
                    BatchUpdate {
                        additions: extra[2..].to_vec(),
                        removals: vec![0, 13, 14],
                    },
                ];
                for step in 0..=batches.len() {
                    if step > 0 {
                        collection.apply(batches[step - 1].clone());
                    }
                    let members: Vec<(usize, Graph)> =
                        collection.iter().map(|(id, g)| (id, g.clone())).collect();
                    let mut queries = vec![chain(3, 0, 0), cycle(6, 0, 0), star(4, 1, 0)];
                    for (_, g) in members.iter().step_by(3) {
                        queries.push(bfs_piece(g, 4));
                        queries.push(bfs_piece(g, 7));
                        // a wildcard node: a literal label under the
                        // default options, any label under wildcards
                        let mut wild = bfs_piece(g, 5);
                        wild.set_node_label(NodeId(0), WILDCARD_LABEL);
                        queries.push(wild);
                    }
                    let unlimited = Budget::unlimited();
                    for opts in option_sets {
                        let what = format!("cap {cap} seed {seed} epoch {step} {opts:?}");
                        for q in &queries {
                            let (out, filtered) =
                                query_collection(&collection, q, opts, &unlimited).unwrap();
                            assert!(out.completeness.is_complete());
                            let m = &out.value;
                            held += m.hits.len();
                            rejected += m.graphs_examined - m.hits.len();
                            // the filter refuses only graphs without a hit
                            assert!(filtered <= m.graphs_examined - m.hits.len(), "{what}");
                            assert_eq!(
                                *m,
                                plain_scan(&collection, q, opts),
                                "{what}: indexed sweep diverged"
                            );
                        }
                        // a member graph always embeds in itself
                        for (id, g) in &members {
                            let (out, _) =
                                query_collection(&collection, g, opts, &unlimited).unwrap();
                            let m = &out.value;
                            assert!(
                                m.hits
                                    .iter()
                                    .any(|h| h.graph_id == *id && h.embeddings >= 1),
                                "{what}: graph {id} missed itself"
                            );
                            assert_eq!(*m, plain_scan(&collection, g, opts), "{what}");
                        }
                    }
                }
            }
        }
        vqi_graph::par::set_thread_cap(0);
        assert!(held > 0 && rejected > 0, "held {held}, rejected {rejected}");
    }

    #[test]
    fn collection_results_list_matching_graphs() {
        let repo = GraphRepository::collection(vec![chain(4, 1, 0), cycle(4, 1, 0), star(3, 2, 0)]);
        let q = chain(3, 1, 0);
        let r = run_query(&q, &repo, ResultOptions::default());
        match r {
            QueryResults::Collection { matches, examined } => {
                assert_eq!(examined, 3);
                let ids: Vec<usize> = matches.iter().map(|m| m.graph_id).collect();
                assert_eq!(ids, vec![0, 1]);
                assert!(matches.iter().all(|m| m.embeddings > 0));
            }
            _ => panic!("expected collection results"),
        }
    }

    #[test]
    fn network_results_enumerate_embeddings() {
        let repo = GraphRepository::network(clique(4, 1, 0));
        let q = cycle(3, 1, 0);
        let r = run_query(&q, &repo, ResultOptions::default());
        match r {
            QueryResults::Network {
                embeddings,
                truncated,
            } => {
                // 4 triangles * 6 automorphisms
                assert_eq!(embeddings.len(), 24);
                assert!(!truncated);
            }
            _ => panic!("expected network results"),
        }
    }

    #[test]
    fn truncation_is_flagged() {
        let repo = GraphRepository::network(clique(8, 1, 0));
        let q = cycle(3, 1, 0);
        let r = run_query(&q, &repo, ResultOptions { max_embeddings: 5 });
        match r {
            QueryResults::Network {
                embeddings,
                truncated,
            } => {
                assert_eq!(embeddings.len(), 5);
                assert!(truncated);
            }
            _ => panic!("expected network results"),
        }
    }

    #[test]
    fn no_match_is_empty() {
        let repo = GraphRepository::collection(vec![chain(3, 1, 0)]);
        let q = cycle(3, 9, 0);
        let r = run_query(&q, &repo, ResultOptions::default());
        assert!(r.is_empty());
        assert_eq!(r.len(), 0);
    }

    /// A path whose nodes and edges carry the given labels, in order.
    fn path(node_labels: &[Label], edge_labels: &[Label]) -> Graph {
        let mut g = Graph::new();
        let nodes: Vec<NodeId> = node_labels.iter().map(|&l| g.add_node(l)).collect();
        for (i, &l) in edge_labels.iter().enumerate() {
            g.add_edge(nodes[i], nodes[i + 1], l);
        }
        g
    }

    /// Two graphs of node label 1 and edge label 0, two of node label 2
    /// and edge label 3.
    fn two_label_families() -> GraphCollection {
        GraphCollection::new(vec![
            chain(5, 1, 0),
            cycle(4, 1, 0),
            star(4, 2, 3),
            chain(3, 2, 3),
        ])
    }

    fn hits(pairs: &[(usize, usize)]) -> Vec<QueryHit> {
        pairs
            .iter()
            .map(|&(graph_id, embeddings)| QueryHit {
                graph_id,
                embeddings,
            })
            .collect()
    }

    fn sweep(collection: &GraphCollection, q: &Graph, opts: MatchOptions) -> (QueryMatches, usize) {
        let (out, filtered) = query_collection(collection, q, opts, &Budget::unlimited()).unwrap();
        assert!(out.completeness.is_complete());
        (out.value, filtered)
    }

    #[test]
    fn sweep_filter_prunes_impossible_graphs() {
        let c = two_label_families();
        // a (2)-[3]-(2) edge: the label-1 graphs cannot host it
        let (m, filtered) = sweep(&c, &chain(2, 2, 3), MatchOptions::default());
        assert_eq!(filtered, 2);
        assert_eq!(m.graphs_examined, 4);
        // each edge embeds in both directions
        assert_eq!(m.hits, hits(&[(2, 8), (3, 4)]));
        assert_eq!(m.total_embeddings, 12);
    }

    #[test]
    fn unmatchable_query_is_refused_by_every_fingerprint() {
        let c = two_label_families();
        for opts in [MatchOptions::default(), MatchOptions::with_wildcards()] {
            let (m, filtered) = sweep(&c, &chain(2, 99, 0), opts);
            assert_eq!(filtered, 4, "{opts:?}");
            assert_eq!(m.graphs_examined, 4);
            assert!(m.hits.is_empty());
            assert_eq!(m.total_embeddings, 0);
        }
    }

    #[test]
    fn sweep_filter_counts_label_multiplicities() {
        // same size, same degrees, same label sets: only the counts
        // tell (1)-(2)-(1) from (2)-(1)-(2), and 0,5 from 5,5 edges
        let c = GraphCollection::new(vec![
            path(&[1, 2, 1], &[0, 0]),
            path(&[2, 1, 2], &[0, 0]),
            path(&[1, 1, 1], &[0, 5]),
            path(&[1, 1, 1], &[5, 5]),
        ]);
        let (m, filtered) = sweep(&c, &path(&[2, 1, 2], &[0, 0]), MatchOptions::default());
        // graphs 2 and 3 lack label 2; graph 0 has one label-2 node
        assert_eq!(filtered, 3);
        assert_eq!(m.hits, hits(&[(1, 2)]));
        let (m, filtered) = sweep(&c, &path(&[1, 1, 1], &[5, 5]), MatchOptions::default());
        // graph 0 has no label-5 edge, graph 1 too few label-1 nodes,
        // graph 2 one label-5 edge
        assert_eq!(filtered, 3);
        assert_eq!(m.hits, hits(&[(3, 2)]));
        // both labels and both degrees fit, but the graph's label-3 edge
        // joins labels 1 and 2 and its (2)-(2) edge carries label 0:
        // only the edge-type multiset tells
        let c = GraphCollection::new(vec![path(&[1, 2, 2], &[3, 0])]);
        let (m, filtered) = sweep(&c, &path(&[2, 2], &[3]), MatchOptions::default());
        assert_eq!(filtered, 1);
        assert!(m.hits.is_empty());
    }

    #[test]
    fn wildcard_queries_bypass_the_label_filter() {
        let c = two_label_families();
        let any_edge = chain(2, WILDCARD_LABEL, WILDCARD_LABEL);
        let (m, filtered) = sweep(&c, &any_edge, MatchOptions::with_wildcards());
        assert_eq!(filtered, 0);
        assert_eq!(m.hits, hits(&[(0, 8), (1, 8), (2, 8), (3, 4)]));
        // without wildcard matching the label is literal, and no graph
        // carries it
        let (m, filtered) = sweep(&c, &any_edge, MatchOptions::default());
        assert_eq!(filtered, 4);
        assert!(m.hits.is_empty());
    }

    #[test]
    fn wildcard_targets_bypass_the_label_filter() {
        // a 3-chain of label 1 whose middle atom is a wildcard
        let c = GraphCollection::new(vec![path(&[1, WILDCARD_LABEL, 1], &[0, 0])]);
        // label 7 occurs nowhere: only the wildcard atom can host it
        let q = path(&[1, 7], &[0]);
        let (m, filtered) = sweep(&c, &q, MatchOptions::with_wildcards());
        assert_eq!(filtered, 0);
        assert_eq!(m.hits, hits(&[(0, 2)]));
        let (m, filtered) = sweep(&c, &q, MatchOptions::default());
        assert_eq!(filtered, 1);
        assert!(m.hits.is_empty());
    }

    #[test]
    fn sweep_follows_collection_updates() {
        let mut c = two_label_families();
        let q = chain(4, 1, 0);
        let (m, _) = sweep(&c, &q, MatchOptions::default());
        // a 3-edge path: 2 placements in the 5-chain, 4 rotations of
        // the 4-cycle, each in both directions
        assert_eq!(m.hits, hits(&[(0, 4), (1, 8)]));
        c.apply(BatchUpdate::removing(vec![0]));
        let (m, _) = sweep(&c, &q, MatchOptions::default());
        assert_eq!(m.graphs_examined, 3);
        assert_eq!(m.hits, hits(&[(1, 8)]));
        let added = c.apply(BatchUpdate::adding(vec![chain(6, 1, 0)]));
        assert_eq!(added, vec![4]);
        let (m, _) = sweep(&c, &q, MatchOptions::default());
        // the new graph is swept through the index built on insertion,
        // and the tombstoned slot 0 stays out
        assert_eq!(m.graphs_examined, 4);
        assert_eq!(m.hits, hits(&[(1, 8), (4, 6)]));
        assert_eq!(m, plain_scan(&c, &q, MatchOptions::default()));
    }

    #[test]
    fn sweep_over_an_empty_collection_is_complete() {
        let mut emptied = two_label_families();
        emptied.apply(BatchUpdate::removing(vec![0, 1, 2, 3]));
        for c in [GraphCollection::new(Vec::new()), emptied] {
            let (m, filtered) = sweep(&c, &chain(2, 1, 0), MatchOptions::default());
            assert_eq!(filtered, 0);
            assert_eq!(m, QueryMatches::default());
        }
    }

    #[test]
    fn sweep_over_a_single_graph_counts_its_automorphisms() {
        let ring = cycle(5, 1, 0);
        let c = GraphCollection::new(vec![ring.clone()]);
        let (m, filtered) = sweep(&c, &ring, MatchOptions::default());
        // the dihedral group of a 5-cycle has 10 elements
        assert_eq!(filtered, 0);
        assert_eq!(m.graphs_examined, 1);
        assert_eq!(m.hits, hits(&[(0, 10)]));
        assert_eq!(m.total_embeddings, 10);
    }

    #[test]
    fn per_graph_cap_bounds_every_hit() {
        let c = GraphCollection::new(vec![clique(5, 1, 0), clique(4, 1, 0), cycle(3, 1, 0)]);
        let opts = MatchOptions {
            max_embeddings: 7,
            ..Default::default()
        };
        // 60, 24 and 6 triangle embeddings: the cap is per graph
        let (m, _) = sweep(&c, &cycle(3, 1, 0), opts);
        assert_eq!(m.hits, hits(&[(0, 7), (1, 7), (2, 6)]));
        assert_eq!(m.total_embeddings, 20);
    }

    #[test]
    fn a_kernel_quota_trip_keeps_the_finished_prefix() {
        // the clique holds 210 embeddings of a 3-path, the small chains
        // two each: a per-search quota between the two cuts the sweep
        // at the clique
        let c = GraphCollection::new(vec![
            chain(3, 1, 0),
            chain(3, 1, 0),
            clique(7, 1, 0),
            chain(3, 1, 0),
        ]);
        let q = chain(3, 1, 0);
        let ctrl = Budget::unlimited().with_kernel_ticks(50);
        let (out, _) = query_collection(&c, &q, MatchOptions::default(), &ctrl).unwrap();
        match &out.completeness {
            Completeness::Degraded { stages_cut, .. } => {
                assert_eq!(stages_cut, &vec!["kernel.vf2".to_string()]);
            }
            Completeness::Complete => panic!("the quota must cut the clique's search"),
        }
        assert_eq!(out.value.graphs_examined, 2);
        assert_eq!(out.value.hits, hits(&[(0, 2), (1, 2)]));
        // fail-fast turns the same trip into an error
        assert!(
            query_collection(&c, &q, MatchOptions::default(), &ctrl.with_fail_fast(true)).is_err()
        );
    }

    #[test]
    fn collection_results_equal_a_plain_scan_under_coverage_options() {
        let graphs = molecules(20, 41);
        let mut ring = cycle(6, 0, 0);
        ring.set_node_label(NodeId(1), WILDCARD_LABEL);
        let queries = [chain(3, 0, 0), ring, chain(2, 99, 0)];
        let repo = GraphRepository::collection(graphs);
        let c = repo.as_collection().unwrap();
        for cap in [1, 3, 100] {
            let opts = MatchOptions {
                max_embeddings: cap,
                ..coverage_match_options()
            };
            for q in &queries {
                let r = run_query(
                    q,
                    &repo,
                    ResultOptions {
                        max_embeddings: cap,
                    },
                );
                let want = plain_scan(c, q, opts);
                match r {
                    QueryResults::Collection { matches, examined } => {
                        assert_eq!(examined, want.graphs_examined);
                        assert_eq!(matches, want.hits, "cap {cap} {}", q.summary());
                    }
                    _ => panic!("expected collection results"),
                }
            }
        }
    }

    #[test]
    fn a_complete_enumeration_at_the_cap_is_not_truncated() {
        // 4 triangles * 6 automorphisms = 24 embeddings
        let repo = GraphRepository::network(clique(4, 1, 0));
        let q = cycle(3, 1, 0);
        for (cap, len, cut) in [(23, 23, true), (24, 24, false), (25, 24, false)] {
            match run_query(
                &q,
                &repo,
                ResultOptions {
                    max_embeddings: cap,
                },
            ) {
                QueryResults::Network {
                    embeddings,
                    truncated,
                } => {
                    assert_eq!((embeddings.len(), truncated), (len, cut), "cap {cap}");
                }
                _ => panic!("expected network results"),
            }
        }
    }
}
