//! Kernel microbenchmark — naive vs label-indexed matching kernels.
//!
//! Three sections, each asserting the indexed path is answer-identical
//! to the naive one before reporting timings:
//!
//! 1. **coverage** — `covered_edges` of patterns sampled from a
//!    DBLP-like network, naive vs [`GraphIndex`]-backed (the one-off
//!    index build is timed separately and included in the indexed
//!    total, so the comparison is end-to-end honest);
//! 2. **iso** — `count_embeddings` of molecular motifs over a
//!    PubChem-like collection, naive vs per-graph indexes;
//! 3. **mcs fold** — the greedy diversity fold (running max similarity
//!    per candidate) computed with exact `mcs_similarity` vs the
//!    threshold-seeded `mcs_similarity_bounded`, asserting the final
//!    running maxima are bit-identical.
//!
//! A last table times the substrate kernel no other experiment times:
//! graph closure.
//!
//! Writes `BENCH_kernels.json` at the repository root.

use bench::{enable_metrics, numbers, print_table, report_counters, time_ms, write_bench_json};
use vqi_core::score::coverage_match_options;
use vqi_datasets::{dblp_like, pubchem_like};
use vqi_graph::generate::{chain, clique, cycle, star};
use vqi_graph::index::GraphIndex;
use vqi_graph::iso::{count_embeddings, covered_edges, PatternPlan};
use vqi_graph::mcs::{mcs_similarity, mcs_similarity_bounded};
use vqi_graph::{Graph, NodeId};
use vqi_mining::closure::closure_of;
use vqi_observe::json::Json;

/// Patterns sampled from `g` itself (guaranteed to occur): each seed
/// node plus up to three neighbors, as an induced subgraph.
fn sampled_patterns(g: &Graph, seeds: usize) -> Vec<Graph> {
    let n = g.node_count() as u32;
    let mut out = Vec::new();
    for k in 0..seeds as u32 {
        let v = NodeId((k * 97 + 13) % n);
        let mut nodes = vec![v];
        nodes.extend(g.neighbors(v).map(|(u, _)| u).take(3));
        nodes.sort_unstable();
        nodes.dedup();
        let (sub, _) = g.induced_subgraph(&nodes);
        if sub.edge_count() > 0 {
            out.push(sub);
        }
    }
    out
}

fn section_coverage() -> (f64, f64, f64) {
    let net = dblp_like(1_200, 7);
    let mut patterns = sampled_patterns(&net, 8);
    // label alphabets the network does not use: the fingerprint check
    // rejects these without a single VF2 state
    patterns.push(chain(4, 99, 9));
    patterns.push(clique(4, 77, 7));
    let opts = coverage_match_options();
    let reps = 10;

    // warm up both paths once so neither side pays first-touch costs
    let warm_idx = GraphIndex::build(&net);
    for p in &patterns {
        covered_edges(p, &net, opts);
        PatternPlan::new(p).covered_edges(&net, Some(&warm_idx), opts);
    }

    let (naive, naive_ms) = time_ms(|| {
        let mut last = Vec::new();
        for _ in 0..reps {
            last = patterns
                .iter()
                .map(|p| covered_edges(p, &net, opts))
                .collect::<Vec<_>>();
        }
        last
    });
    let (idx, build_ms) = time_ms(|| GraphIndex::build(&net));
    let (indexed, match_ms) = time_ms(|| {
        let mut last = Vec::new();
        for _ in 0..reps {
            last = patterns
                .iter()
                .map(|p| PatternPlan::new(p).covered_edges(&net, Some(&idx), opts))
                .collect::<Vec<_>>();
        }
        last
    });
    assert_eq!(naive, indexed, "indexed coverage diverged from naive");
    (naive_ms, build_ms + match_ms, build_ms)
}

fn section_iso() -> (f64, f64) {
    // counting *all* embeddings (not just deciding occurrence) is the
    // shape of `covered_edges`' inner loop and cannot short-circuit on
    // the first match, so candidate filtering and signature pruning
    // carry the full weight here
    let molecules = pubchem_like(300, 11);
    let mut patterns: Vec<Graph> = molecules
        .iter()
        .take(10)
        .flat_map(|m| sampled_patterns(m, 2))
        .collect();
    patterns.push(cycle(5, 99, 9)); // infeasible everywhere
    let opts = coverage_match_options();

    let (naive, naive_ms) = time_ms(|| {
        patterns
            .iter()
            .map(|p| molecules.iter().map(|m| count_embeddings(p, m, opts)).sum())
            .collect::<Vec<usize>>()
    });
    let (counts, indexed_ms) = time_ms(|| {
        let indexes: Vec<GraphIndex> = molecules.iter().map(GraphIndex::build).collect();
        patterns
            .iter()
            .map(|p| {
                molecules
                    .iter()
                    .zip(&indexes)
                    .map(|(m, ix)| PatternPlan::new(p).count(m, Some(ix), opts))
                    .sum()
            })
            .collect::<Vec<usize>>()
    });
    assert_eq!(
        naive, counts,
        "indexed embedding counts diverged from naive"
    );
    (naive_ms, indexed_ms)
}

fn section_mcs_fold() -> (f64, f64) {
    // a motif pool like the ones the greedy selectors fold over: mixed
    // shapes, sizes and label families
    let mut pool: Vec<Graph> = Vec::new();
    for l in 0..4u32 {
        for n in [6usize, 8, 10] {
            pool.push(chain(n, l, 0));
            pool.push(cycle(n, l, 0));
            pool.push(star(n, l, 0));
        }
        pool.push(clique(5, l, 0));
    }
    let selected: Vec<Graph> = pool.drain(..6).collect();

    let (exact, naive_ms) = time_ms(|| {
        let mut max_sim = vec![0.0f64; pool.len()];
        for s in &selected {
            for (m, p) in max_sim.iter_mut().zip(&pool) {
                *m = f64::max(*m, mcs_similarity(p, s));
            }
        }
        max_sim
    });
    let (bounded, bounded_ms) = time_ms(|| {
        let mut max_sim = vec![0.0f64; pool.len()];
        for s in &selected {
            for (m, p) in max_sim.iter_mut().zip(&pool) {
                *m = f64::max(*m, mcs_similarity_bounded(p, s, *m));
            }
        }
        max_sim
    });
    assert_eq!(exact, bounded, "bounded fold diverged from the exact fold");
    (naive_ms, bounded_ms)
}

/// Times the substrate kernel no other experiment times.
fn section_substrates() {
    let chains: Vec<Graph> = (0..10).map(|i| chain(8 + i % 4, 1, 0)).collect();
    let refs: Vec<&Graph> = chains.iter().collect();
    let (_, closure_ms) = time_ms(|| closure_of(&refs));
    print_table(
        "Substrate kernels (ms)",
        &["closure of 10 chains"],
        &[vec![format!("{closure_ms:.2}")]],
    );
}

fn main() {
    enable_metrics();

    let (cov_naive, cov_indexed, cov_build) = section_coverage();
    let (iso_naive, iso_indexed) = section_iso();
    let (mcs_naive, mcs_bounded) = section_mcs_fold();

    let row = |section: &str, naive: f64, fast: f64| {
        let speedup = format!("{:.1}x", naive / fast.max(1e-9));
        vec![
            section.to_string(),
            format!("{naive:.1}"),
            format!("{fast:.1}"),
            speedup,
        ]
    };
    let rows = vec![
        row("coverage (network)", cov_naive, cov_indexed),
        row("iso (collection)", iso_naive, iso_indexed),
        row("mcs greedy fold", mcs_naive, mcs_bounded),
    ];
    print_table(
        "Kernels: naive vs label-indexed (answer-identical)",
        &["section", "naive ms", "indexed ms", "speedup"],
        &rows,
    );
    println!("(coverage indexed total includes {cov_build:.1} ms of index build)");
    section_substrates();

    let counters = report_counters(&["kernel."]);
    let coverage = [
        ("naive_ms", cov_naive),
        ("indexed_ms", cov_indexed),
        ("index_build_ms", cov_build),
    ];
    let json = Json::object([
        ("coverage", numbers(&coverage)),
        (
            "iso",
            numbers(&[("naive_ms", iso_naive), ("indexed_ms", iso_indexed)]),
        ),
        (
            "mcs_fold",
            numbers(&[("naive_ms", mcs_naive), ("bounded_ms", mcs_bounded)]),
        ),
        ("kernel_counters", counters),
    ]);
    write_bench_json("kernels", &json);
}
