//! E14 (extension, §2.5 "Data-driven VQIs for massive networks") —
//! sharded map/reduce-style selection ([`ShardedTattoo`]) vs
//! whole-graph TATTOO.
//!
//! The total candidate-sampling budget is held constant (divided across
//! shards), so the comparison isolates the architecture: the **map**
//! phase (truss split + extraction per shard) parallelizes across
//! workers, while the **reduce** phase (exact whole-network coverage +
//! greedy) stays global. Shape: quality stays near the whole-graph
//! baseline while the map phase shrinks with shard count.

use bench::{enable_metrics, print_table, timed_ms, write_json, write_metrics_json};
use tattoo::{ShardedTattoo, Tattoo, TattooConfig};
use vqi_core::budget::PatternBudget;
use vqi_core::repo::GraphRepository;
use vqi_core::score::{evaluate, QualityWeights};
use vqi_datasets::social_like;

vqi_observe::json_record! {
    struct Row {
        configuration: String,
        parts: usize,
        map_ms: f64,
        reduce_ms: f64,
        total_ms: f64,
        coverage: f64,
        score: f64,
    }
}

fn main() {
    enable_metrics();
    let net = social_like(4_000, 7);
    println!(
        "network: {} nodes, {} edges\n",
        net.node_count(),
        net.edge_count()
    );
    let repo = GraphRepository::network(net.clone());
    let budget = PatternBudget::new(8, 4, 6);
    let w = QualityWeights::default();

    let mut rows = Vec::new();
    let (whole_set, whole_ms) = timed_ms("e14.whole", || Tattoo::default().run(&net, &budget));
    let q = evaluate(&whole_set, &repo, w);
    rows.push(Row {
        configuration: "whole-graph tattoo".into(),
        parts: 1,
        map_ms: f64::NAN,
        reduce_ms: f64::NAN,
        total_ms: whole_ms,
        coverage: q.coverage,
        score: q.score,
    });
    for parts in [2usize, 4, 8] {
        let sel = ShardedTattoo::new(TattooConfig::default(), parts);
        let (cands, map_ms) = timed_ms(&format!("e14.map.x{parts}"), || {
            sel.map_candidates(&net, &budget)
        });
        let (set, reduce_ms) = timed_ms(&format!("e14.reduce.x{parts}"), || {
            sel.reduce(&net, cands, &budget)
        });
        let q = evaluate(&set, &repo, w);
        rows.push(Row {
            configuration: format!("sharded x{parts}"),
            parts,
            map_ms,
            reduce_ms,
            total_ms: map_ms + reduce_ms,
            coverage: q.coverage,
            score: q.score,
        });
    }

    let fmt = |x: f64| {
        if x.is_nan() {
            "-".to_string()
        } else {
            format!("{x:.0}")
        }
    };
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.configuration.clone(),
                r.parts.to_string(),
                fmt(r.map_ms),
                fmt(r.reduce_ms),
                format!("{:.0}", r.total_ms),
                format!("{:.3}", r.coverage),
                format!("{:.3}", r.score),
            ]
        })
        .collect();
    print_table(
        "E14: sharded vs whole-graph selection (4000-node network)",
        &[
            "configuration",
            "parts",
            "map ms",
            "reduce ms",
            "total ms",
            "coverage",
            "score",
        ],
        &table,
    );
    write_json("e14_partitioned", &rows);
    write_metrics_json("e14_partitioned");

    let whole_score = rows[0].score;
    for r in &rows[1..] {
        assert!(
            r.score >= 0.8 * whole_score,
            "{}: quality {:.3} too far below whole-graph {:.3}",
            r.configuration,
            r.score,
            whole_score
        );
    }
    println!("sharded quality stays within 20% of whole-graph selection");
}
