//! E6 — scalability on large networks (§2.3: "the clustering-based
//! approach is prohibitively expensive" for large networks; TATTOO's
//! truss-based extraction is why it exists). We time both selectors on
//! growing networks. Shape: CATAPULT's cost (feature mining + closure
//! over the whole network treated as a one-graph collection) grows much
//! faster than TATTOO's.

use bench::{enable_metrics, print_table, timed_ms, write_json, write_metrics_json};
use catapult::Catapult;
use tattoo::Tattoo;
use vqi_core::budget::PatternBudget;
use vqi_core::repo::GraphRepository;
use vqi_core::selector::PatternSelector;
use vqi_datasets::dblp_like;

vqi_observe::json_record! {
    struct Row {
        nodes: usize,
        edges: usize,
        tattoo_ms: f64,
        catapult_ms: f64,
        ratio: f64,
    }
}

fn main() {
    enable_metrics();
    let budget = PatternBudget::new(6, 4, 6);
    let mut rows = Vec::new();
    for nodes in [250usize, 500, 1_000, 2_000] {
        let net = dblp_like(nodes, 77);
        let edges = net.edge_count();
        let repo = GraphRepository::network(net);
        let (_, tattoo_ms) = timed_ms(&format!("e6.tattoo.n{nodes}"), || {
            Tattoo::default().select(&repo, &budget)
        });
        let (_, catapult_ms) = timed_ms(&format!("e6.catapult.n{nodes}"), || {
            Catapult::default().select(&repo, &budget)
        });
        rows.push(Row {
            nodes,
            edges,
            tattoo_ms,
            catapult_ms,
            ratio: catapult_ms / tattoo_ms.max(1e-9),
        });
    }

    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.nodes.to_string(),
                r.edges.to_string(),
                format!("{:.0}", r.tattoo_ms),
                format!("{:.0}", r.catapult_ms),
                format!("{:.1}x", r.ratio),
            ]
        })
        .collect();
    print_table(
        "E6: selection time vs network size",
        &["nodes", "edges", "tattoo ms", "catapult ms", "cat/tat"],
        &table,
    );
    write_json("e6_scalability", &rows);
    write_metrics_json("e6_scalability");

    // shape: the gap grows with network size
    let first = rows.first().unwrap().ratio;
    let last = rows.last().unwrap().ratio;
    println!(
        "catapult/tattoo cost ratio: {first:.1}x at {} nodes -> {last:.1}x at {} nodes",
        rows.first().unwrap().nodes,
        rows.last().unwrap().nodes
    );
}
