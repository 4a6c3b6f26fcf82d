//! E3 — pattern-set quality (coverage / diversity / cognitive load):
//! data-driven selections vs the random baseline, on both repository
//! regimes (§2.3's "high coverage, high diversity, low cognitive load"
//! desiderata).

use aurora::Aurora;
use bench::{enable_metrics, print_table, time_ms, write_json, write_metrics_json};
use catapult::Catapult;
use tattoo::Tattoo;
use vqi_core::budget::PatternBudget;
use vqi_core::repo::GraphRepository;
use vqi_core::score::{evaluate, QualityWeights};
use vqi_core::selector::{PatternSelector, RandomSelector};
use vqi_datasets::{aids_like, dblp_like, MoleculeParams};
use vqi_modular::ModularPipeline;

vqi_observe::json_record! {
    struct Row {
        repo: &'static str,
        selector: String,
        patterns: usize,
        coverage: f64,
        diversity: f64,
        cognitive_load: f64,
        score: f64,
        select_ms: f64,
    }
}

fn run(
    repo_name: &'static str,
    repo: &GraphRepository,
    budget: &PatternBudget,
    rows: &mut Vec<Row>,
) {
    let selectors: Vec<(String, Box<dyn PatternSelector>)> = vec![
        ("catapult".into(), Box::new(Catapult::default())),
        ("aurora".into(), Box::new(Aurora::default())),
        ("tattoo".into(), Box::new(Tattoo::default())),
        ("modular".into(), Box::new(ModularPipeline::standard())),
        ("random".into(), Box::new(RandomSelector::new(99))),
    ];
    for (name, sel) in selectors {
        let (set, ms) = time_ms(|| sel.select(repo, budget));
        let q = evaluate(&set, repo, QualityWeights::default());
        rows.push(Row {
            repo: repo_name,
            selector: name,
            patterns: set.len(),
            coverage: q.coverage,
            diversity: q.diversity,
            cognitive_load: q.cognitive_load,
            score: q.score,
            select_ms: ms,
        });
    }
}

fn main() {
    enable_metrics();
    let mut rows = Vec::new();
    let collection = GraphRepository::collection(aids_like(MoleculeParams {
        count: 150,
        seed: 55,
        ..Default::default()
    }));
    run(
        "collection",
        &collection,
        &PatternBudget::new(8, 4, 8),
        &mut rows,
    );
    let network = GraphRepository::network(dblp_like(1_500, 56));
    run("network", &network, &PatternBudget::new(8, 4, 7), &mut rows);

    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.repo.to_string(),
                r.selector.clone(),
                r.patterns.to_string(),
                format!("{:.3}", r.coverage),
                format!("{:.3}", r.diversity),
                format!("{:.3}", r.cognitive_load),
                format!("{:.3}", r.score),
                format!("{:.0}", r.select_ms),
            ]
        })
        .collect();
    print_table(
        "E3: pattern-set quality by selector",
        &[
            "repo",
            "selector",
            "k",
            "coverage",
            "diversity",
            "cogload",
            "score",
            "ms",
        ],
        &table,
    );
    write_json("e3_pattern_quality", &rows);
    write_metrics_json("e3_pattern_quality");

    // shape: the regime-appropriate data-driven selector beats random
    for repo in ["collection", "network"] {
        let best_dd = rows
            .iter()
            .filter(|r| r.repo == repo && r.selector != "random")
            .map(|r| r.score)
            .fold(f64::MIN, f64::max);
        let random = rows
            .iter()
            .find(|r| r.repo == repo && r.selector == "random")
            .unwrap()
            .score;
        assert!(
            best_dd >= random,
            "{repo}: best data-driven {best_dd:.3} < random {random:.3}"
        );
    }
}
