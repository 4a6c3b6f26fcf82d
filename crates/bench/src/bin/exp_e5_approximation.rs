//! E5 — approximation quality of TATTOO's greedy selection (§2.3: "the
//! selection algorithm guarantees 1/e-approximation"). On instances
//! small enough to brute-force the optimum, we report the achieved
//! greedy/OPT ratio; the shape claim is that it sits at or above 1−1/e
//! (and far above the paper's conservative 1/e bound).

use bench::{enable_metrics, print_cache_stats, print_table, write_json, write_metrics_json};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use tattoo::candidates::{extract_from_region, ExtractParams};
use tattoo::select::{
    exhaustive_best, greedy_select, score_candidates, set_score, ScoredCandidate,
};
use vqi_core::budget::PatternBudget;
use vqi_core::score::QualityWeights;
use vqi_datasets::dblp_like;
use vqi_graph::index::GraphIndex;

vqi_observe::json_record! {
    struct Row {
        instance: usize,
        candidates: usize,
        k: usize,
        greedy_score: f64,
        optimal_score: f64,
        ratio: f64,
    }
}

fn main() {
    enable_metrics();
    let weights = QualityWeights::default();
    let mut rows = Vec::new();

    for (instance, seed) in (0..6).map(|i| (i, 1000 + i as u64)) {
        let net = dblp_like(150, seed);
        let budget = PatternBudget::new(3, 4, 5);
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut cands = extract_from_region(
            &net,
            true,
            &budget,
            ExtractParams {
                samples_per_size: 12,
            },
            &mut rng,
        );
        cands.truncate(10); // keep the exhaustive search tractable
        let index = GraphIndex::build(&net);
        let bounded = score_candidates(cands, &net, &index);
        if bounded.len() < 4 {
            continue;
        }
        // the optimum is brute-forced over exact coverage; the greedy
        // searches for it only where it needs to
        let scored: Vec<ScoredCandidate> = bounded.iter().cloned().map(|b| b.resolve()).collect();
        for k in [2usize, 3] {
            let (opt, _) = exhaustive_best(&scored, net.edge_count(), k, weights);
            let greedy_set = greedy_select(
                bounded.clone(),
                net.edge_count(),
                &PatternBudget::new(k, 4, 5),
                weights,
            );
            let chosen: Vec<&ScoredCandidate> = greedy_set
                .patterns()
                .iter()
                .filter_map(|p| scored.iter().find(|s| s.candidate.code == p.code))
                .collect();
            let greedy_score = set_score(&chosen, net.edge_count(), weights);
            rows.push(Row {
                instance,
                candidates: scored.len(),
                k,
                greedy_score,
                optimal_score: opt,
                ratio: greedy_score / opt.max(1e-12),
            });
        }
    }

    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.instance.to_string(),
                r.candidates.to_string(),
                r.k.to_string(),
                format!("{:.4}", r.greedy_score),
                format!("{:.4}", r.optimal_score),
                format!("{:.3}", r.ratio),
            ]
        })
        .collect();
    print_table(
        "E5: greedy vs exhaustive optimum (brute-forced small instances)",
        &["inst", "|C|", "k", "greedy", "OPT", "ratio"],
        &table,
    );
    write_json("e5_approximation", &rows);
    print_cache_stats();
    write_metrics_json("e5_approximation");

    let bound = 1.0 - 1.0 / std::f64::consts::E;
    let min_ratio = rows.iter().map(|r| r.ratio).fold(f64::MAX, f64::min);
    println!(
        "worst ratio: {min_ratio:.3}; 1-1/e = {bound:.3}; 1/e = {:.3}",
        1.0 / std::f64::consts::E
    );
    assert!(
        min_ratio >= 1.0 / std::f64::consts::E,
        "ratio fell below the paper's 1/e bound"
    );
}
