//! Fault-injection benchmark for the runtime-robustness layer.
//!
//! Two sections, both assertion-gated before anything is reported:
//!
//! 1. **No-fault overhead** — every pipeline runs its plain entry point
//!    and its budget-aware (`*_ctrl`) entry point under an unlimited
//!    budget with fault injection off. The selections are asserted
//!    bit-identical and the timing ratio is the overhead of the budget
//!    checks (acceptance: ≤ 5%).
//! 2. **Fault matrix** — injected kernel panics, stage timeouts, and
//!    NaN scores (rate 1.0, two seeds, thread caps 1/2/4). Every
//!    pipeline must finish `Complete` or `Degraded` — the process
//!    crashing IS the failure mode under test — and the (codes,
//!    completeness) pair is asserted identical across thread caps.
//!
//! Writes `BENCH_faults.json` at the repository root.

use bench::{enable_metrics, numbers, print_table, report_counters, time_ms, write_bench_json};
use catapult::pipeline::Catapult;
use midas::{Midas, MidasConfig};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use tattoo::pipeline::{Tattoo, TattooConfig};
use tattoo::shard::ShardedTattoo;
use vqi_core::budget::PatternBudget;
use vqi_core::ctrl::{Budget, Completeness};
use vqi_core::pattern::PatternSet;
use vqi_core::repo::{BatchUpdate, GraphCollection};
use vqi_graph::canon::CanonicalCode;
use vqi_graph::generate::{barabasi_albert, chain, clique, cycle, star};
use vqi_graph::par;
use vqi_graph::Graph;
use vqi_modular::pipeline::ModularPipeline;
use vqi_observe::json::{Json, ToJson};
use vqi_runtime::fault::{self, FaultPlan};

fn selection_codes(set: &PatternSet) -> Vec<CanonicalCode> {
    let mut codes: Vec<CanonicalCode> = set.patterns().iter().map(|p| p.code.clone()).collect();
    codes.sort();
    codes
}

fn collection_graphs() -> Vec<Graph> {
    let mut graphs = Vec::new();
    for i in 0..6 {
        graphs.push(chain(5 + i % 3, 1, 0));
        graphs.push(cycle(5 + i % 2, 2, 0));
        graphs.push(star(4 + i % 3, 3, 0));
    }
    graphs
}

fn network() -> Graph {
    let mut rng = SmallRng::seed_from_u64(47);
    barabasi_albert(300, 3, 1, &mut rng)
}

const REPS: usize = 5;

/// Times `plain` and `ctrl_run` interleaved over [`REPS`] repetitions
/// (after a warm-up pass that builds every lazily built index and code)
/// and keeps the per-path minimum — the least-noise estimator for a
/// deterministic workload — asserting on every repetition that the
/// ctrl path is `Complete` and selects the identical set.
fn overhead_of(
    name: &str,
    plain: impl Fn() -> PatternSet,
    ctrl_run: impl Fn() -> (PatternSet, bool),
) -> (f64, f64) {
    plain();
    ctrl_run();
    let (mut plain_best, mut ctrl_best) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..REPS {
        let (want, plain_ms) = time_ms(&plain);
        let ((got, complete), ctrl_ms) = time_ms(&ctrl_run);
        assert!(complete, "{name}: no-fault ctrl run was not Complete");
        assert_eq!(
            selection_codes(&want),
            selection_codes(&got),
            "{name}: budget-aware path diverged from the plain pipeline"
        );
        plain_best = plain_best.min(plain_ms);
        ctrl_best = ctrl_best.min(ctrl_ms);
    }
    (plain_best, ctrl_best)
}

/// One fault-matrix cell: all five pipelines under the installed-plan
/// parameters at one thread cap. Returns per-pipeline (codes, degraded)
/// — the determinism key compared across caps.
fn run_all_under(plan: FaultPlan, cap: usize) -> Vec<(String, Vec<CanonicalCode>, bool)> {
    par::set_thread_cap(cap);
    let budget = PatternBudget::new(5, 4, 6);
    let relaxed = Budget::unlimited();
    let mut out = Vec::new();

    fault::set_plan(plan);
    let cat = Catapult::default()
        .run_ctrl(
            &GraphCollection::new(collection_graphs()),
            &budget,
            &relaxed,
        )
        .expect("relaxed budget never errors");
    out.push((
        "catapult".to_string(),
        selection_codes(&cat.value),
        !cat.completeness.is_complete(),
    ));

    fault::set_plan(plan);
    let tat = Tattoo::default()
        .run_ctrl(&network(), &budget, &relaxed)
        .expect("relaxed budget never errors");
    out.push((
        "tattoo".to_string(),
        selection_codes(&tat.value),
        !tat.completeness.is_complete(),
    ));

    fault::set_plan(plan);
    let mut sharded = ShardedTattoo::new(TattooConfig::default(), 4);
    sharded.retry_backoff_ms = 0;
    let sharded_out = sharded
        .run_ctrl(&network(), &budget, &relaxed)
        .expect("relaxed budget never errors");
    out.push((
        "tattoo-sharded".to_string(),
        selection_codes(&sharded_out.value),
        !sharded_out.completeness.is_complete(),
    ));

    fault::set_plan(plan);
    let modular = ModularPipeline::standard()
        .run_ctrl(
            &GraphCollection::new(collection_graphs()),
            &budget,
            &relaxed,
        )
        .expect("relaxed budget never errors");
    out.push((
        "modular".to_string(),
        selection_codes(&modular.value),
        !modular.completeness.is_complete(),
    ));

    // midas bootstraps fault-free; only the maintenance pass is attacked
    fault::reset();
    let mut m = Midas::bootstrap(
        GraphCollection::new(collection_graphs()),
        budget,
        MidasConfig::default(),
    );
    fault::set_plan(plan);
    let mut batch = Vec::new();
    for _ in 0..8 {
        batch.push(clique(5, 3, 0));
        batch.push(star(6, 4, 0));
    }
    let rep = m
        .apply_update_ctrl(BatchUpdate::adding(batch), &relaxed)
        .expect("relaxed budget never errors");
    out.push((
        "midas".to_string(),
        selection_codes(&m.patterns),
        !rep.completeness.is_complete(),
    ));

    fault::reset();
    par::set_thread_cap(0);
    out
}

fn main() {
    enable_metrics();
    let budget = PatternBudget::new(5, 4, 6);
    let relaxed = Budget::unlimited();

    // -- section 1: no-fault overhead ---------------------------------
    let outcome_pair = |o: vqi_core::ctrl::PipelineOutcome<PatternSet>| {
        let complete = matches!(o.completeness, Completeness::Complete);
        (o.value, complete)
    };
    let (cat_plain, cat_ctrl) = overhead_of(
        "catapult",
        || {
            let col = GraphCollection::new(collection_graphs());
            Catapult::default().run_with_state(&col, &budget).0
        },
        || {
            let col = GraphCollection::new(collection_graphs());
            outcome_pair(
                Catapult::default()
                    .run_ctrl(&col, &budget, &relaxed)
                    .expect("relaxed budget never errors"),
            )
        },
    );
    let net = network();
    let (tat_plain, tat_ctrl) = overhead_of(
        "tattoo",
        || Tattoo::default().run(&net, &budget),
        || {
            outcome_pair(
                Tattoo::default()
                    .run_ctrl(&net, &budget, &relaxed)
                    .expect("relaxed budget never errors"),
            )
        },
    );
    let (mod_plain, mod_ctrl) = overhead_of(
        "modular",
        || {
            let col = GraphCollection::new(collection_graphs());
            ModularPipeline::standard().run(&col, &budget)
        },
        || {
            let col = GraphCollection::new(collection_graphs());
            outcome_pair(
                ModularPipeline::standard()
                    .run_ctrl(&col, &budget, &relaxed)
                    .expect("relaxed budget never errors"),
            )
        },
    );
    let midas_batch = || {
        let mut batch = Vec::new();
        for _ in 0..8 {
            batch.push(clique(5, 3, 0));
            batch.push(star(6, 4, 0));
        }
        batch
    };
    let (mid_plain, mid_ctrl) = overhead_of(
        "midas",
        || {
            let mut m = Midas::bootstrap(
                GraphCollection::new(collection_graphs()),
                budget,
                MidasConfig::default(),
            );
            m.apply_update(BatchUpdate::adding(midas_batch()));
            m.patterns
        },
        || {
            let mut m = Midas::bootstrap(
                GraphCollection::new(collection_graphs()),
                budget,
                MidasConfig::default(),
            );
            let rep = m
                .apply_update_ctrl(BatchUpdate::adding(midas_batch()), &relaxed)
                .expect("relaxed budget never errors");
            let complete = matches!(rep.completeness, Completeness::Complete);
            (m.patterns, complete)
        },
    );

    let ratio = |p: f64, c: f64| c / p.max(1e-9);
    let overhead_rows: Vec<(&str, f64, f64)> = vec![
        ("catapult", cat_plain, cat_ctrl),
        ("tattoo", tat_plain, tat_ctrl),
        ("modular", mod_plain, mod_ctrl),
        ("midas", mid_plain, mid_ctrl),
    ];
    print_table(
        "No-fault overhead of the budget checks (identical selections)",
        &["pipeline", "plain ms", "ctrl ms", "ratio"],
        &overhead_rows
            .iter()
            .map(|(n, p, c)| {
                vec![
                    n.to_string(),
                    format!("{p:.1}"),
                    format!("{c:.1}"),
                    format!("{:.3}", ratio(*p, *c)),
                ]
            })
            .collect::<Vec<_>>(),
    );

    // -- section 2: fault matrix --------------------------------------
    let plans: Vec<(&str, FaultPlan)> = vec![
        (
            "panic",
            FaultPlan {
                panic_rate: 1.0,
                ..Default::default()
            },
        ),
        (
            "timeout",
            FaultPlan {
                timeout_rate: 1.0,
                ..Default::default()
            },
        ),
        (
            "nan",
            FaultPlan {
                nan_rate: 1.0,
                ..Default::default()
            },
        ),
    ];
    let mut matrix_rows: Vec<Vec<String>> = Vec::new();
    let mut matrix_json: Vec<Json> = Vec::new();
    for (kind, base_plan) in &plans {
        for seed in [1u64, 2] {
            let plan = FaultPlan { seed, ..*base_plan };
            let at_1 = run_all_under(plan, 1);
            let at_2 = run_all_under(plan, 2);
            let at_4 = run_all_under(plan, 4);
            assert_eq!(at_1, at_2, "{kind}/seed {seed}: cap 2 diverged");
            assert_eq!(at_1, at_4, "{kind}/seed {seed}: cap 4 diverged");
            for (name, codes, degraded) in &at_1 {
                let outcome = if *degraded { "degraded" } else { "complete" };
                matrix_rows.push(vec![
                    kind.to_string(),
                    seed.to_string(),
                    name.clone(),
                    codes.len().to_string(),
                    outcome.to_string(),
                ]);
                matrix_json.push(Json::object([
                    ("plan", kind.to_json()),
                    ("seed", seed.to_json()),
                    ("pipeline", name.to_json()),
                    ("patterns", codes.len().to_json()),
                    ("outcome", outcome.to_json()),
                    ("deterministic_across_caps", true.to_json()),
                ]));
            }
        }
    }
    print_table(
        "Injected faults (rate 1.0), caps 1/2/4 asserted identical",
        &["plan", "seed", "pipeline", "patterns", "outcome"],
        &matrix_rows,
    );

    // -- trace artifact: one exemplar degraded run ---------------------
    // a tattoo run under a full-rate timeout plan, journal armed: the
    // emitted Chrome trace shows fault.injected / budget.trip /
    // run.degraded instants inside the spans that absorbed them
    vqi_observe::set_journal_enabled(true);
    vqi_observe::journal_reset();
    fault::set_plan(FaultPlan {
        seed: 1,
        timeout_rate: 1.0,
        ..Default::default()
    });
    let traced = Tattoo::default()
        .run_ctrl(&network(), &PatternBudget::new(5, 4, 6), &relaxed)
        .expect("relaxed budget never errors");
    fault::reset();
    let trace_events = vqi_observe::journal_events();
    vqi_observe::set_journal_enabled(false);
    assert!(
        !traced.completeness.is_complete(),
        "full-rate timeouts must degrade the run"
    );
    let chrome = vqi_observe::chrome_trace(&trace_events);
    let stats = vqi_observe::validate_chrome_trace(&chrome).expect("emitted trace must validate");
    assert!(
        stats.instants > 0,
        "a degraded run must leave instant markers in the trace"
    );
    let trace_path = bench::experiments_dir().join("trace_faults.json");
    std::fs::write(&trace_path, chrome).expect("write fault trace");
    println!(
        "(wrote {}: {} spans, {} fault/budget/degradation instants)",
        trace_path.display(),
        stats.spans,
        stats.instants
    );

    let fault_counters = report_counters(&["fault.", "tattoo.shard."]);
    let overhead = overhead_rows.iter().map(|&(n, p, c)| {
        let row = numbers(&[("plain_ms", p), ("ctrl_ms", c), ("ratio", ratio(p, c))]);
        (n, row)
    });
    let max_ratio = overhead_rows
        .iter()
        .map(|(_, p, c)| ratio(*p, *c))
        .fold(0.0f64, f64::max);
    let json = Json::object([
        ("reps", REPS.to_json()),
        ("overhead", Json::object(overhead)),
        ("overhead_max_ratio", max_ratio.to_json()),
        ("fault_matrix", Json::Array(matrix_json)),
        ("fault_counters", fault_counters),
    ]);
    write_bench_json("faults", &json);
}
