//! Large-network datasets.
//!
//! Coauthorship (DBLP) and social (Twitter) networks share heavy-tailed
//! degree distributions and — for coauthorship — strong triangle
//! closure. The builders here start from Barabási–Albert preferential
//! attachment, optionally reinforce triangles (each new node also closes
//! a random wedge with probability `closure_prob`), and assign skewed
//! labels to model entity/relationship types.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use vqi_graph::generate::{assign_labels, barabasi_albert};
use vqi_graph::{Graph, NodeId};

/// Generation parameters.
#[derive(Debug, Clone, Copy)]
pub struct NetworkParams {
    /// Number of nodes.
    pub nodes: usize,
    /// Attachment edges per new node.
    pub attachment: usize,
    /// Probability of closing a wedge per new node (triangle
    /// reinforcement).
    pub closure_prob: f64,
    /// Number of node label classes.
    pub node_labels: u32,
    /// Number of edge label classes.
    pub edge_labels: u32,
    /// RNG seed.
    pub seed: u64,
}

impl Default for NetworkParams {
    fn default() -> Self {
        NetworkParams {
            nodes: 1_000,
            attachment: 3,
            closure_prob: 0.4,
            node_labels: 6,
            edge_labels: 3,
            seed: 0xBEEF,
        }
    }
}

/// Builds a network per `params`.
pub fn network(params: NetworkParams) -> Graph {
    let mut rng = SmallRng::seed_from_u64(params.seed);
    let mut g = barabasi_albert(params.nodes, params.attachment, 0, &mut rng);
    // triangle reinforcement: close random wedges
    let closures = (params.nodes as f64 * params.closure_prob) as usize;
    for _ in 0..closures {
        let v = NodeId(rng.gen_range(0..g.node_count() as u32));
        let nbrs: Vec<NodeId> = g.neighbors(v).map(|(u, _)| u).collect();
        if nbrs.len() >= 2 {
            let a = nbrs[rng.gen_range(0..nbrs.len())];
            let b = nbrs[rng.gen_range(0..nbrs.len())];
            if a != b {
                g.add_edge(a, b, 0);
            }
        }
    }
    assign_labels(&mut g, params.node_labels, params.edge_labels, &mut rng);
    g
}

/// A DBLP-like coauthorship network: strong clustering, modest label
/// alphabet.
pub fn dblp_like(nodes: usize, seed: u64) -> Graph {
    network(NetworkParams {
        nodes,
        attachment: 3,
        closure_prob: 0.6,
        node_labels: 5,
        edge_labels: 2,
        seed,
    })
}

/// A 90-node network whose first `hubs` nodes (label 0) hold dense rows
/// of edge label 0 over a sparse, mostly label-0 background: 3-leaf
/// stars have tens of thousands of embeddings per hub, past the caps of
/// a coverage search.
pub fn hub_network(seed: u64, hubs: u32) -> Graph {
    let rng = &mut SmallRng::seed_from_u64(seed);
    let n = 90u32;
    let mut g = Graph::new();
    for v in 0..n {
        let l = if v < hubs || rng.gen_bool(0.7) {
            0
        } else {
            rng.gen_range(1..3)
        };
        g.add_node(l);
    }
    for _ in 0..2 * n {
        let (u, v) = (rng.gen_range(0..n), rng.gen_range(0..n));
        g.add_edge(NodeId(u), NodeId(v), rng.gen_range(0..2));
    }
    for h in 0..hubs {
        for _ in 0..45 {
            g.add_edge(NodeId(h), NodeId(rng.gen_range(0..n)), 0);
        }
    }
    g
}

/// A social-network-like graph: bigger hubs, weaker closure.
pub fn social_like(nodes: usize, seed: u64) -> Graph {
    network(NetworkParams {
        nodes,
        attachment: 5,
        closure_prob: 0.2,
        node_labels: 8,
        edge_labels: 4,
        seed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use vqi_graph::metrics::clustering_coefficient;
    use vqi_graph::traversal::is_connected;

    #[test]
    fn networks_are_connected() {
        let g = dblp_like(500, 1);
        assert_eq!(g.node_count(), 500);
        assert!(is_connected(&g));
    }

    #[test]
    fn closure_raises_clustering() {
        let open = network(NetworkParams {
            nodes: 600,
            closure_prob: 0.0,
            seed: 2,
            ..Default::default()
        });
        let closed = network(NetworkParams {
            nodes: 600,
            closure_prob: 1.5,
            seed: 2,
            ..Default::default()
        });
        assert!(
            clustering_coefficient(&closed) > clustering_coefficient(&open),
            "triangle reinforcement should raise clustering"
        );
    }

    #[test]
    fn labels_are_in_range() {
        let g = social_like(300, 3);
        for v in g.nodes() {
            assert!(g.node_label(v) < 8);
        }
        for e in g.edges() {
            assert!(g.edge_label(e) < 4);
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let a = dblp_like(200, 9);
        let b = dblp_like(200, 9);
        assert_eq!(a.edge_count(), b.edge_count());
    }

    #[test]
    fn heavy_tail_exists() {
        let g = social_like(800, 4);
        let max_deg = g.nodes().map(|v| g.degree(v)).max().unwrap();
        let avg = 2.0 * g.edge_count() as f64 / g.node_count() as f64;
        assert!(max_deg as f64 > 4.0 * avg, "max {max_deg} vs avg {avg}");
    }
}
