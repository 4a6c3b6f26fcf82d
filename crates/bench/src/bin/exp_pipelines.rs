//! End-to-end pipeline benchmark under the deterministic parallel
//! substrate.
//!
//! Two layers of evidence, both equality-asserted before any timing is
//! reported:
//!
//! 1. **Kernel stages** — the two substrate kernels this refactor
//!    rewrote, timed as shipped-baseline vs optimized path on a dense
//!    scale-free network:
//!    * truss peel: [`trussness_baseline`] (linear `edge_between` scans
//!      per removal) vs [`trussness`] (precomputed per-edge triangle
//!      lists + parallel support counting) — trussness vectors asserted
//!      bit-identical;
//!    * graphlet census: [`count_graphlets`] (generic ESU recursion with
//!      per-branch extension-set clones) vs [`count_graphlets_par`]
//!      (arena-backed ESU with leaf short-circuit, fanned over roots) —
//!      counts asserted bit-identical.
//! 2. **Pipelines** — CATAPULT, TATTOO, MIDAS, and the modular pipeline
//!    run end-to-end with the thread cap pinned to 1 and again at all
//!    available cores; each pipeline's selected pattern set (canonical
//!    codes) is asserted identical across the two runs. A warm-up pass
//!    runs first so both measured runs see the same kernel-cache state.
//!
//! Writes `BENCH_pipelines.json` at the repository root.

use bench::{enable_metrics, numbers, print_table, report_counters, time_ms, write_bench_json};
use catapult::pipeline::Catapult;
use midas::{Midas, MidasConfig, Modification};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use tattoo::pipeline::Tattoo;
use vqi_core::budget::PatternBudget;
use vqi_core::pattern::PatternSet;
use vqi_core::repo::{BatchUpdate, GraphCollection};
use vqi_graph::canon::CanonicalCode;
use vqi_graph::generate::{barabasi_albert, chain, clique, cycle, star};
use vqi_graph::graphlet::{count_graphlets, count_graphlets_par};
use vqi_graph::par;
use vqi_graph::truss::{trussness, trussness_baseline};
use vqi_graph::Graph;
use vqi_modular::pipeline::ModularPipeline;
use vqi_observe::json::{Json, ToJson};

/// Sorted canonical codes of a pattern set — the comparison key for the
/// cross-thread-count equality asserts.
fn selection_codes(set: &PatternSet) -> Vec<CanonicalCode> {
    let mut codes: Vec<CanonicalCode> = set.patterns().iter().map(|p| p.code.clone()).collect();
    codes.sort();
    codes
}

/// Times `run` with the thread cap pinned to 1, then at all available
/// cores, asserting both selections are identical. Returns
/// `(ms_1thread, ms_all)`.
fn pipeline_times(name: &str, run: impl Fn() -> PatternSet) -> (f64, f64) {
    // warm-up: fills the kernel caches so the two measured runs start
    // from the same cache state
    run();
    par::set_thread_cap(1);
    let (one, one_ms) = time_ms(&run);
    par::set_thread_cap(0);
    let (all, all_ms) = time_ms(&run);
    assert_eq!(
        selection_codes(&one),
        selection_codes(&all),
        "{name}: selection differs between 1 thread and {} threads",
        par::num_threads()
    );
    assert!(!one.is_empty(), "{name}: selected nothing");
    (one_ms, all_ms)
}

fn section_truss() -> (f64, f64) {
    // dense scale-free network: hubs make the O(degree) edge_between
    // scans of the baseline peel expensive
    let mut rng = SmallRng::seed_from_u64(41);
    let net = barabasi_albert(500, 25, 1, &mut rng);
    let reps = 5;
    // warm-up both paths
    let warm_base = trussness_baseline(&net);
    let warm_new = trussness(&net);
    assert_eq!(warm_base, warm_new, "triangle-list peel diverged");
    let (base, base_ms) = time_ms(|| {
        let mut last = Vec::new();
        for _ in 0..reps {
            last = trussness_baseline(&net);
        }
        last
    });
    let (new, new_ms) = time_ms(|| {
        let mut last = Vec::new();
        for _ in 0..reps {
            last = trussness(&net);
        }
        last
    });
    assert_eq!(base, new, "triangle-list peel diverged from baseline");
    (base_ms, new_ms)
}

fn section_graphlet() -> (f64, f64) {
    // moderately dense graph: the generic ESU recursion clones an
    // extension set per branch, which the arena enumerator avoids
    let mut rng = SmallRng::seed_from_u64(43);
    let g = barabasi_albert(220, 10, 1, &mut rng);
    let warm_base = count_graphlets(&g);
    let warm_new = count_graphlets_par(&g);
    assert_eq!(
        warm_base.counts, warm_new.counts,
        "graphlet counts diverged"
    );
    let (base, base_ms) = time_ms(|| count_graphlets(&g));
    let (new, new_ms) = time_ms(|| count_graphlets_par(&g));
    assert_eq!(
        base.counts, new.counts,
        "parallel graphlet census diverged from reference"
    );
    (base_ms, new_ms)
}

/// Interleaved rounds of the trace-journal overhead section.
const JOURNAL_ROUNDS: usize = 9;

/// The observability modes the overhead section compares.
const JOURNAL_MODES: [&str; 3] = [
    "observability off",
    "metrics on, journal off",
    "metrics + journal on",
];

/// `[q1, median, q3]` of `xs` (nearest rank).
fn quartiles(xs: &[f64]) -> [f64; 3] {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let at = |q: f64| v[((v.len() - 1) as f64 * q).round() as usize];
    [at(0.25), at(0.5), at(0.75)]
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

fn main() {
    enable_metrics();

    let (truss_base, truss_new) = section_truss();
    let (glet_base, glet_new) = section_graphlet();

    let budget = PatternBudget::new(5, 4, 6);
    let (cat_one, cat_all) = pipeline_times("catapult", || {
        let col = GraphCollection::new(collection_graphs());
        let (set, _) = Catapult::default().run_with_state(&col, &budget);
        set
    });
    let mut rng = SmallRng::seed_from_u64(47);
    let net = barabasi_albert(300, 3, 1, &mut rng);
    let (tat_one, tat_all) = pipeline_times("tattoo", || Tattoo::default().run(&net, &budget));
    let (mid_one, mid_all) = pipeline_times("midas", || {
        let mut m = Midas::bootstrap(
            GraphCollection::new(collection_graphs()),
            budget,
            MidasConfig::default(),
        );
        let mut batch = Vec::new();
        for _ in 0..8 {
            batch.push(clique(5, 3, 0));
            batch.push(star(6, 4, 0));
        }
        let report = m.apply_update(BatchUpdate::adding(batch));
        assert_eq!(report.modification, Modification::Major);
        m.patterns
    });
    let (mod_one, mod_all) = pipeline_times("modular", || {
        let col = GraphCollection::new(collection_graphs());
        ModularPipeline::standard().run(&col, &budget)
    });
    let threads = par::num_threads();

    // --- trace-journal overhead: the same workload under three
    // observability modes, selections asserted identical. One run of
    // each mode is too noisy to judge the <=2% (journal disabled) and
    // <=5% (journal enabled) budgets, so the modes are interleaved over
    // JOURNAL_ROUNDS rounds (the order rotating each round) and the
    // per-round ratios land in BENCH_pipelines.json as a median with
    // its quartiles; they are recorded, not asserted.
    let journal_workload = || {
        let mut last = None;
        for _ in 0..3 {
            last = Some(Tattoo::default().run(&net, &budget));
        }
        last.expect("workload ran")
    };
    // the warm-up run's selection is the one every mode must reproduce
    let reference = journal_workload();
    // per mode of JOURNAL_MODES
    let mut mode_ms: [Vec<f64>; 3] = Default::default();
    let mut trace_events = Vec::new();
    for round in 0..JOURNAL_ROUNDS {
        for mode in (0..3).map(|k| (round + k) % 3) {
            vqi_observe::set_enabled(mode > 0);
            vqi_observe::set_journal_enabled(mode == 2);
            vqi_observe::journal_reset();
            let (set, ms) = time_ms(journal_workload);
            if mode == 2 {
                trace_events = vqi_observe::journal_events();
            }
            vqi_observe::set_journal_enabled(false);
            assert_eq!(
                selection_codes(&set),
                selection_codes(&reference),
                "{}: recording changed the selection",
                JOURNAL_MODES[mode]
            );
            mode_ms[mode].push(ms);
        }
    }
    vqi_observe::set_enabled(true);
    let ratios = |num: usize, den: usize| -> Vec<f64> {
        mode_ms[num]
            .iter()
            .zip(&mode_ms[den])
            .map(|(n, d)| n / d.max(1e-9))
            .collect()
    };
    let [off_ms, journal_off_ms, journal_on_ms] = mode_ms.each_ref().map(|ms| quartiles(ms)[1]);
    let overhead_disabled = quartiles(&ratios(1, 0));
    let overhead_enabled = quartiles(&ratios(2, 1));

    // trace artifacts for one exemplar (three-run) tattoo workload:
    // a Chrome trace_event file and flamegraph collapsed stacks
    let chrome = vqi_observe::chrome_trace(&trace_events);
    let stats = vqi_observe::validate_chrome_trace(&chrome).expect("emitted trace must validate");
    assert!(stats.spans > 0, "trace must contain spans");
    let dir = bench::experiments_dir();
    std::fs::write(dir.join("trace_pipelines.json"), chrome).expect("write chrome trace");
    std::fs::write(
        dir.join("trace_pipelines.folded"),
        vqi_observe::folded_stacks(&trace_events),
    )
    .expect("write folded stacks");
    println!(
        "(wrote {} and trace_pipelines.folded: {} spans, {} instants)",
        dir.join("trace_pipelines.json").display(),
        stats.spans,
        stats.instants
    );

    let kernel_rows = vec![
        vec![
            "truss (peel)".to_string(),
            format!("{truss_base:.1}"),
            format!("{truss_new:.1}"),
            format!("{:.1}x", truss_base / truss_new.max(1e-9)),
        ],
        vec![
            "graphlet (census)".to_string(),
            format!("{glet_base:.1}"),
            format!("{glet_new:.1}"),
            format!("{:.1}x", glet_base / glet_new.max(1e-9)),
        ],
    ];
    print_table(
        "Kernel stages: baseline vs optimized (answer-identical)",
        &["stage", "baseline ms", "optimized ms", "speedup"],
        &kernel_rows,
    );

    let pipe_rows = vec![
        vec![
            "catapult".to_string(),
            format!("{cat_one:.1}"),
            format!("{cat_all:.1}"),
        ],
        vec![
            "tattoo".to_string(),
            format!("{tat_one:.1}"),
            format!("{tat_all:.1}"),
        ],
        vec![
            "midas".to_string(),
            format!("{mid_one:.1}"),
            format!("{mid_all:.1}"),
        ],
        vec![
            "modular".to_string(),
            format!("{mod_one:.1}"),
            format!("{mod_all:.1}"),
        ],
    ];
    print_table(
        &format!("Pipelines end-to-end: 1 thread vs {threads} (identical selections)"),
        &["pipeline", "1 thread ms", "all cores ms"],
        &pipe_rows,
    );

    let ratio = |q: [f64; 3]| format!("{:.3} [{:.3}, {:.3}]", q[1], q[0], q[2]);
    let journal_rows: Vec<Vec<String>> = [
        (off_ms, "1.000".to_string()),
        (journal_off_ms, ratio(overhead_disabled)),
        (journal_on_ms, ratio(overhead_enabled)),
    ]
    .into_iter()
    .zip(JOURNAL_MODES)
    .map(|((ms, r), mode)| vec![mode.to_string(), format!("{ms:.1}"), r])
    .collect();
    print_table(
        &format!(
            "Trace-journal overhead (tattoo x3, {JOURNAL_ROUNDS} interleaved rounds; \
             budgets: <=1.02 disabled, <=1.05 enabled)"
        ),
        &[
            "mode",
            "median ms",
            "ratio vs previous row: median [q1, q3]",
        ],
        &journal_rows,
    );

    let kernel_counters = report_counters(&["kernel."]);
    let kernel = |base: f64, new: f64| {
        let speedup = base / new.max(1e-9);
        numbers(&[
            ("baseline_ms", base),
            ("optimized_ms", new),
            ("speedup", speedup),
        ])
    };
    let pipeline = |one: f64, all: f64| {
        Json::object([
            ("ms_1thread", one.to_json()),
            ("ms_all_cores", all.to_json()),
            ("identical_selection", true.to_json()),
        ])
    };
    let journal = numbers(&[
        ("rounds", JOURNAL_ROUNDS as f64),
        ("off_ms", off_ms),
        ("journal_off_ms", journal_off_ms),
        ("journal_on_ms", journal_on_ms),
        ("overhead_disabled", overhead_disabled[1]),
        ("overhead_disabled_q1", overhead_disabled[0]),
        ("overhead_disabled_q3", overhead_disabled[2]),
        ("overhead_enabled", overhead_enabled[1]),
        ("overhead_enabled_q1", overhead_enabled[0]),
        ("overhead_enabled_q3", overhead_enabled[2]),
        ("budget_disabled", 1.02),
        ("budget_enabled", 1.05),
    ]);
    let json = Json::object([
        ("threads", threads.to_json()),
        (
            "kernels",
            Json::object([
                ("truss", kernel(truss_base, truss_new)),
                ("graphlet", kernel(glet_base, glet_new)),
            ]),
        ),
        (
            "pipelines",
            Json::object([
                ("catapult", pipeline(cat_one, cat_all)),
                ("tattoo", pipeline(tat_one, tat_all)),
                ("midas", pipeline(mid_one, mid_all)),
                ("modular", pipeline(mod_one, mod_all)),
            ]),
        ),
        ("journal", journal),
        ("kernel_counters", kernel_counters),
    ]);
    write_bench_json("pipelines", &json);
}
