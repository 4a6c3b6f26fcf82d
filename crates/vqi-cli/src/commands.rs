//! The CLI subcommands.

use crate::args::{ArgError, Args};
use catapult::Catapult;
use tattoo::Tattoo;
use vqi_core::budget::PatternBudget;
use vqi_core::ctrl::{Budget, Completeness};
use vqi_core::render::{ascii_summary, svg_graph, svg_interface};
use vqi_core::repo::{GraphCollection, GraphRepository};
use vqi_core::results::query_collection;
use vqi_core::score::{evaluate, QualityWeights};
use vqi_core::selector::{PatternSelector, RandomSelector};
use vqi_core::vqi::VisualQueryInterface;
use vqi_graph::io::{parse_transactions, write_transactions};
use vqi_graph::iso::MatchOptions;
use vqi_graph::Graph;
use vqi_modular::ModularPipeline;
use vqi_observe::json::ToJson;

/// Runs one subcommand; returns the text to print.
pub fn run(args: &Args) -> Result<String, ArgError> {
    match args.command.as_deref() {
        Some("construct") => construct(args),
        Some("evaluate") => evaluate_cmd(args),
        Some("dataset") => dataset(args),
        Some("render") => render(args),
        Some("show") => show(args),
        Some("search") => search(args),
        Some("serve") => serve(args),
        Some("recover") => recover_cmd(args),
        Some("help") | None => Ok(usage()),
        Some(other) => Err(ArgError(format!(
            "unknown command '{other}'; try 'vqi help'"
        ))),
    }
}

/// Usage text.
pub fn usage() -> String {
    "vqi — data-driven visual query interfaces for graphs

USAGE:
  vqi construct --input FILE [--selector catapult|aurora|tattoo|modular|random]
                [--count K] [--min-size N] [--max-size M]
                [--network true] [--svg OUT.svg] [--save OUT.vqi]
  vqi evaluate  --input FILE [--selector ...] [--count K] [...]
  vqi dataset   --kind aids|pubchem|dblp|social --out FILE
                [--size N] [--seed S]
  vqi render    --input FILE --out OUT.svg
  vqi show      --load FILE.vqi [--svg OUT.svg]
  vqi search    --input FILE --query QFILE
  vqi serve     [--input FILE] [--graphs N] [--seed S] [--sessions N]
                [--requests N] [--update-every K] [--selector ...]
                [--count K] [--min-size N] [--max-size M]
                [--deadline-ms N] [--midas true] [--verify false]
                [--wal-dir DIR] [--checkpoint-every K]
  vqi recover   --wal-dir DIR [--checkpoint-every K]

search prints the ids of the graphs in FILE that contain the query
graph in QFILE (non-induced; the wildcard label matches any label).

serve boots the multi-tenant service core on FILE (or on N generated
molecule graphs) and drives it with a loopback session mix: every
session interleaves pattern selection and subgraph queries while
session 0 applies update batches. Reads are snapshot-isolated
(epoch-swapped collection snapshots) and, with --verify (the
default), every completed selection is re-derived from scratch on its
pinned snapshot and asserted bit-identical. Prints per-endpoint
p50/p99 latency, the pattern-cache hit rate, and — when tracing is on
— a begin/end balance check of the recorded journal.

With --wal-dir, serve runs durably: every update batch is appended to
a write-ahead log and fsync'd before its epoch publishes, with an
epoch-consistent checkpoint every K updates (default 16). An empty
DIR is bootstrapped; a DIR holding durable state is recovered first
(newest valid checkpoint + WAL replay, torn tail truncated) and the
run continues its epoch sequence. recover performs only that recovery
and prints the report — checkpoint used, records replayed, torn bytes
truncated, final epoch, collection digest — without serving load.

Any command also accepts --metrics[=table|json]: pipeline spans,
counters, and gauges are recorded while the command runs and the
*per-run* delta (this command only, not process lifetime) is printed
to stderr afterwards (stdout stays clean). The table also records the
run into the trace journal and prints its profile: the span tree with
count, total and self time per path, and the critical path (a line
says so when a full journal made the profile partial). json prints
the counters, gauges, spans and value histograms only.

Any command also accepts --trace-out=FILE: the run is recorded into
the structured trace journal and exported when the command finishes —
as flamegraph collapsed stacks when FILE ends in .folded or .txt, as
Chrome trace_event JSON (load in chrome://tracing or Perfetto)
otherwise. Injected faults, budget trips, and degraded stages appear
as instant events in the trace.

construct and evaluate also accept a run budget:
  --deadline-ms N   wall-clock budget for selection; when it trips the
                    best-so-far (anytime) pattern set is kept and a
                    degradation warning goes to stderr (0 = unlimited)
  --fail-fast       abort on the first stage failure instead of
                    degrading
Both are recorded in the --metrics snapshot (cli.deadline_ms,
cli.fail_fast gauges). Options may be written --key value or
--key=value.

Input files use the classic graph-transaction text format
(t # / v <id> <label> / e <u> <v> <label>). With --network true the
first graph of the file is treated as one large network; otherwise the
file is a collection of data graphs.
"
    .to_string()
}

/// Writes the recorded trace journal to `path`, choosing the format by
/// extension: `.folded` / `.txt` → flamegraph collapsed stacks,
/// anything else (canonically `.json`) → Chrome `trace_event` JSON.
pub fn write_trace(path: &str) -> Result<(), ArgError> {
    let events = vqi_observe::journal_events();
    let folded = path.ends_with(".folded") || path.ends_with(".txt");
    let body = if folded {
        vqi_observe::folded_stacks(&events)
    } else {
        vqi_observe::chrome_trace(&events)
    };
    std::fs::write(path, body).map_err(|e| ArgError(format!("cannot write {path}: {e}")))
}

fn load_repo(args: &Args) -> Result<GraphRepository, ArgError> {
    let path = args.require("input")?;
    let text =
        std::fs::read_to_string(path).map_err(|e| ArgError(format!("cannot read {path}: {e}")))?;
    let graphs =
        parse_transactions(&text).map_err(|e| ArgError(format!("parse error in {path}: {e}")))?;
    if graphs.is_empty() {
        return Err(ArgError(format!("{path} contains no graphs")));
    }
    let network: bool = args.parse_or("network", false)?;
    Ok(if network {
        GraphRepository::network(graphs.into_iter().next().expect("nonempty"))
    } else {
        GraphRepository::collection(graphs)
    })
}

fn budget(args: &Args) -> Result<PatternBudget, ArgError> {
    let count = args.parse_or("count", 6usize)?;
    let min_size = args.parse_or("min-size", 4usize)?;
    let max_size = args.parse_or("max-size", 8usize)?;
    if min_size < 2 || min_size > max_size {
        return Err(ArgError("invalid size range".into()));
    }
    Ok(PatternBudget::new(count, min_size, max_size))
}

/// The run budget from `--deadline-ms` (0 = unlimited) and
/// `--fail-fast`. Both are surfaced as gauges so a `--metrics` snapshot
/// records the budget the command ran under.
fn ctrl_budget(args: &Args) -> Result<Budget, ArgError> {
    let deadline_ms = args.parse_or("deadline-ms", 0u64)?;
    let fail_fast = args.parse_or("fail-fast", false)?;
    vqi_observe::gauge_set("cli.deadline_ms", deadline_ms as i64);
    vqi_observe::gauge_set("cli.fail_fast", i64::from(fail_fast));
    let mut ctrl = Budget::unlimited().with_fail_fast(fail_fast);
    if deadline_ms > 0 {
        ctrl = ctrl.with_deadline_ms(deadline_ms);
    }
    Ok(ctrl)
}

/// Reports an anytime result on stderr so stdout stays clean.
fn warn_if_degraded(completeness: &Completeness) {
    if let Completeness::Degraded { stages_cut, faults } = completeness {
        eprintln!(
            "warning: result is degraded (stages cut: {}; {} fault(s))",
            stages_cut.join(", "),
            faults.len()
        );
    }
}

fn selector(args: &Args) -> Result<Box<dyn PatternSelector>, ArgError> {
    Ok(match args.get_or("selector", "catapult") {
        "catapult" => Box::new(Catapult::default()),
        "aurora" => Box::new(aurora::Aurora::default()),
        "tattoo" => Box::new(Tattoo::default()),
        "modular" => Box::new(ModularPipeline::standard()),
        "random" => Box::new(RandomSelector::new(args.parse_or("seed", 0u64)?)),
        other => return Err(ArgError(format!("unknown selector '{other}'"))),
    })
}

fn construct(args: &Args) -> Result<String, ArgError> {
    let repo = load_repo(args)?;
    let budget = budget(args)?;
    let sel = selector(args)?;
    let ctrl = ctrl_budget(args)?;
    let outcome = VisualQueryInterface::data_driven_ctrl(&repo, sel.as_ref(), &budget, &ctrl)
        .map_err(|e| ArgError(format!("selection failed: {e}")))?;
    warn_if_degraded(&outcome.completeness);
    let vqi = outcome.value;
    if let Some(path) = args.options.get("svg") {
        std::fs::write(path, svg_interface(&vqi))
            .map_err(|e| ArgError(format!("cannot write {path}: {e}")))?;
    }
    if let Some(path) = args.options.get("save") {
        std::fs::write(path, vqi_core::persist::save_interface(&vqi))
            .map_err(|e| ArgError(format!("cannot write {path}: {e}")))?;
    }
    Ok(ascii_summary(&vqi))
}

fn evaluate_cmd(args: &Args) -> Result<String, ArgError> {
    let repo = load_repo(args)?;
    let budget = budget(args)?;
    let sel = selector(args)?;
    let ctrl = ctrl_budget(args)?;
    let outcome = sel
        .select_ctrl(&repo, &budget, &ctrl)
        .map_err(|e| ArgError(format!("selection failed: {e}")))?;
    warn_if_degraded(&outcome.completeness);
    let q = evaluate(&outcome.value, &repo, QualityWeights::default());
    Ok(q.to_json().pretty())
}

fn dataset(args: &Args) -> Result<String, ArgError> {
    let kind = args.require("kind")?.to_string();
    let out = args.require("out")?.to_string();
    let size = args.parse_or("size", 100usize)?;
    let seed = args.parse_or("seed", 1u64)?;
    let graphs: Vec<Graph> = match kind.as_str() {
        "aids" => vqi_datasets_aids(size, seed),
        "pubchem" => vqi_datasets::pubchem_like(size, seed),
        "dblp" => vec![vqi_datasets::dblp_like(size, seed)],
        "social" => vec![vqi_datasets::social_like(size, seed)],
        other => return Err(ArgError(format!("unknown dataset kind '{other}'"))),
    };
    let n = graphs.len();
    std::fs::write(&out, write_transactions(&graphs))
        .map_err(|e| ArgError(format!("cannot write {out}: {e}")))?;
    Ok(format!("wrote {n} graph(s) to {out}\n"))
}

fn vqi_datasets_aids(size: usize, seed: u64) -> Vec<Graph> {
    vqi_datasets::aids_like(vqi_datasets::MoleculeParams {
        count: size,
        seed,
        ..Default::default()
    })
}

fn render(args: &Args) -> Result<String, ArgError> {
    let path = args.require("input")?;
    let out = args.require("out")?.to_string();
    let text =
        std::fs::read_to_string(path).map_err(|e| ArgError(format!("cannot read {path}: {e}")))?;
    let graphs = parse_transactions(&text).map_err(|e| ArgError(format!("parse error: {e}")))?;
    let g = graphs
        .first()
        .ok_or_else(|| ArgError("no graphs in input".into()))?;
    std::fs::write(&out, svg_graph(g, Default::default()))
        .map_err(|e| ArgError(format!("cannot write {out}: {e}")))?;
    Ok(format!("rendered {} to {out}\n", g.summary()))
}

/// Reloads a saved interface and prints (or renders) it.
fn show(args: &Args) -> Result<String, ArgError> {
    let path = args.require("load")?;
    let text =
        std::fs::read_to_string(path).map_err(|e| ArgError(format!("cannot read {path}: {e}")))?;
    let vqi = vqi_core::persist::load_interface(&text)
        .map_err(|e| ArgError(format!("cannot load {path}: {e}")))?;
    if let Some(out) = args.options.get("svg") {
        std::fs::write(out, svg_interface(&vqi))
            .map_err(|e| ArgError(format!("cannot write {out}: {e}")))?;
    }
    Ok(ascii_summary(&vqi))
}

/// Subgraph search over a collection file: one compiled query swept
/// over the collection with wildcard matching.
fn search(args: &Args) -> Result<String, ArgError> {
    let repo_path = args.require("input")?;
    let query_path = args.require("query")?;
    let repo_text = std::fs::read_to_string(repo_path)
        .map_err(|e| ArgError(format!("cannot read {repo_path}: {e}")))?;
    let graphs = parse_transactions(&repo_text)
        .map_err(|e| ArgError(format!("parse error in {repo_path}: {e}")))?;
    let query_text = std::fs::read_to_string(query_path)
        .map_err(|e| ArgError(format!("cannot read {query_path}: {e}")))?;
    let query = vqi_graph::io::parse_graph(&query_text)
        .map_err(|e| ArgError(format!("parse error in {query_path}: {e}")))?;
    let t0 = std::time::Instant::now();
    // only which graphs hold the query is printed, so the first
    // embedding settles each graph
    let opts = MatchOptions {
        max_embeddings: 1,
        ..MatchOptions::with_wildcards()
    };
    let (outcome, _) = query_collection(
        &GraphCollection::new(graphs),
        &query,
        opts,
        &Budget::unlimited(),
    )
    .expect("an unlimited budget never trips");
    let hits: Vec<usize> = outcome.value.hits.iter().map(|h| h.graph_id).collect();
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    Ok(format!(
        "{} match(es) in {ms:.1} ms: {hits:?}\n",
        hits.len()
    ))
}

/// Boots the multi-tenant service core and drives it with a loopback
/// session mix — the deployment smoke test (no network involved).
/// True when `dir` already holds durable serve state (a checkpoint).
fn has_durable_state(dir: &std::path::Path) -> bool {
    std::fs::read_dir(dir).is_ok_and(|entries| {
        entries.flatten().any(|e| {
            let name = e.file_name();
            let name = name.to_string_lossy();
            name.starts_with("ckpt-") && name.ends_with(".ckpt")
        })
    })
}

fn durability(args: &Args) -> Result<vqi_serve::DurabilityConfig, ArgError> {
    Ok(vqi_serve::DurabilityConfig {
        checkpoint_every: args.parse_or("checkpoint-every", 16u64)?,
        ..Default::default()
    })
}

fn serve(args: &Args) -> Result<String, ArgError> {
    use vqi_serve::{run_load, LoadParams, MaintenanceMode, SelectorKind, ServeConfig, VqiService};

    let select_budget = budget(args)?;
    let sessions = args.parse_or("sessions", 4usize)?;
    let requests = args.parse_or("requests", 8usize)?;
    let update_every = args.parse_or("update-every", 4usize)?;
    let deadline_ms = args.parse_or("deadline-ms", 0u64)?;
    let verify = args.parse_or("verify", true)?;
    let midas = args.parse_or("midas", false)?;
    let seed = args.parse_or("seed", 7u64)?;

    let graphs: Vec<Graph> = if args.options.contains_key("input") {
        match load_repo(args)? {
            GraphRepository::Collection(c) => c.iter().map(|(_, g)| g.clone()).collect(),
            GraphRepository::Network(_) => {
                return Err(ArgError("serve needs a collection, not a network".into()))
            }
        }
    } else {
        vqi_datasets_aids(args.parse_or("graphs", 18usize)?, seed)
    };

    // the session mix: queries are small graphs of the collection itself
    // (guaranteed satisfiable); batches cycle fresh molecules in and old
    // slots out
    let mut queries: Vec<Graph> = graphs
        .iter()
        .filter(|g| g.node_count() <= 8)
        .take(4)
        .cloned()
        .collect();
    if queries.is_empty() {
        queries.push(graphs[0].clone());
    }
    let extra = vqi_datasets_aids(8, seed ^ 0xBA7C4);
    let batches: Vec<vqi_core::repo::BatchUpdate> = (0..4)
        .map(|i| vqi_core::repo::BatchUpdate {
            additions: vec![extra[2 * i].clone(), extra[2 * i + 1].clone()],
            removals: if i < graphs.len() { vec![i] } else { vec![] },
        })
        .collect();

    let maintenance = if midas {
        MaintenanceMode::Midas {
            budget: select_budget,
            config: midas::MidasConfig::default(),
        }
    } else {
        MaintenanceMode::ApplyOnly
    };
    let config = ServeConfig {
        maintenance,
        ..Default::default()
    };
    let initial = vqi_core::repo::GraphCollection::new(graphs);
    // --wal-dir makes the run durable: bootstrap an empty directory,
    // recover (and continue the epoch sequence of) a populated one
    let (service, recovery) = match args.options.get("wal-dir") {
        None => (VqiService::new(initial, config), None),
        Some(dir) => {
            let dir = std::path::Path::new(dir);
            let durability = durability(args)?;
            if has_durable_state(dir) {
                let (s, report) = VqiService::recover(dir, config, durability)
                    .map_err(|e| ArgError(format!("recovery failed: {e}")))?;
                (s, Some(report))
            } else {
                let s = VqiService::with_durability(initial, config, dir, durability)
                    .map_err(|e| ArgError(format!("cannot bootstrap durable log: {e}")))?;
                (s, None)
            }
        }
    };
    let selector = match args.get_or("selector", "catapult") {
        "catapult" => SelectorKind::Catapult,
        "modular" => SelectorKind::Modular,
        "random" => SelectorKind::Random { seed },
        other => return Err(ArgError(format!("serve cannot use selector '{other}'"))),
    };
    let report = run_load(
        &service,
        &LoadParams {
            sessions,
            requests_per_session: requests,
            update_every,
            selector,
            select_budget,
            deadline_ms: if deadline_ms == 0 {
                None
            } else {
                Some(deadline_ms)
            },
            seed,
            queries,
            batches,
            verify_isolation: verify,
            ..Default::default()
        },
    );

    let mut out = String::new();
    out.push_str(&format!(
        "served {} request(s) from {} session(s)\n",
        report.total_requests(),
        sessions
    ));
    out.push_str(&format!(
        "  select: {} answered ({} degraded, {} rejected), p50 {} us, p99 {} us\n",
        report.select.count,
        report.select.degraded,
        report.select.rejected,
        report.select.p50_us(),
        report.select.p99_us()
    ));
    out.push_str(&format!(
        "  query:  {} answered ({} degraded, {} rejected), p50 {} us, p99 {} us\n",
        report.query.count,
        report.query.degraded,
        report.query.rejected,
        report.query.p50_us(),
        report.query.p99_us()
    ));
    out.push_str(&format!(
        "  update: {} applied, final epoch {}\n",
        report.update.count, report.final_epoch
    ));
    if let Some(dir) = args.options.get("wal-dir") {
        match &recovery {
            Some(r) => out.push_str(&format!(
                "  wal:    recovered {dir} to epoch {} (checkpoint {} + {} replayed, \
                 {} torn byte(s) truncated), now durable\n",
                r.final_epoch, r.checkpoint_epoch, r.replayed, r.truncated_bytes
            )),
            None => out.push_str(&format!("  wal:    bootstrapped durable log in {dir}\n")),
        }
    }
    out.push_str(&format!(
        "  cache:  {} hit(s) / {} miss(es) (hit rate {:.2})\n",
        report.cache_hits,
        report.cache_misses,
        report.cache_hit_rate()
    ));
    if verify {
        out.push_str(&format!(
            "  isolation: {} selection(s) verified bit-identical on their pinned snapshots\n",
            report.isolation_checks
        ));
    }
    if vqi_observe::journal_recording() {
        let events = vqi_observe::journal_events();
        let begins = events
            .iter()
            .filter(|e| matches!(e.kind, vqi_observe::EventKind::Begin))
            .count();
        let ends = events
            .iter()
            .filter(|e| matches!(e.kind, vqi_observe::EventKind::End))
            .count();
        if begins != ends {
            return Err(ArgError(format!(
                "trace imbalance: {begins} begin vs {ends} end events"
            )));
        }
        out.push_str(&format!(
            "  trace:  {begins} spans, begin/end balanced: yes\n"
        ));
    }
    Ok(out)
}

/// Recovers durable serve state and prints the report, without serving
/// any load — the operational "is this directory intact, and what would
/// a restart see?" probe.
fn recover_cmd(args: &Args) -> Result<String, ArgError> {
    use vqi_serve::{collection_digest, ServeConfig, VqiService};
    let dir = args.require("wal-dir")?.to_string();
    let durability = durability(args)?;
    let (service, report) = VqiService::recover(
        std::path::Path::new(&dir),
        ServeConfig::default(),
        durability,
    )
    .map_err(|e| ArgError(format!("recovery failed: {e}")))?;
    let snapshot = service.store().pin();
    Ok(format!(
        "recovered {dir} to epoch {}\n\
         \x20 checkpoint: epoch {} ({} skipped as corrupt)\n\
         \x20 replay:     {} record(s) applied, {} stale skipped, {} torn byte(s) truncated\n\
         \x20 collection: {} live graph(s), digest {:016x}\n\
         \x20 elapsed:    {} ms\n",
        report.final_epoch,
        report.checkpoint_epoch,
        report.checkpoints_skipped,
        report.replayed,
        report.skipped_records,
        report.truncated_bytes,
        snapshot.collection().len(),
        collection_digest(snapshot.collection()),
        report.elapsed_ms,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(toks: &[&str]) -> Args {
        Args::parse(toks.iter().map(|s| s.to_string())).unwrap()
    }

    fn tmp(name: &str) -> String {
        std::env::temp_dir()
            .join(format!("vqi_cli_test_{name}"))
            .to_string_lossy()
            .into_owned()
    }

    /// Serializes every test that runs a command: the metrics registry
    /// and trace journal are process-global, so a pipeline running in
    /// one test would otherwise record into another test's armed
    /// journal.
    fn observe_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        LOCK.lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn help_and_unknown() {
        assert!(run(&args(&[])).unwrap().contains("USAGE"));
        assert!(run(&args(&["help"])).unwrap().contains("USAGE"));
        assert!(run(&args(&["frobnicate"])).is_err());
    }

    #[test]
    fn serve_smoke_runs_a_verified_session_mix() {
        let _observe = observe_lock();
        let out = run(&args(&[
            "serve",
            "--graphs",
            "10",
            "--sessions",
            "2",
            "--requests",
            "4",
            "--count",
            "3",
            "--min-size",
            "3",
            "--max-size",
            "5",
        ]))
        .unwrap();
        assert!(out.contains("served"), "{out}");
        assert!(out.contains("isolation:"), "{out}");
        assert!(out.contains("cache:"), "{out}");
    }

    #[test]
    fn serve_wal_dir_bootstraps_recovers_and_reports() {
        let _observe = observe_lock();
        let dir = tmp("wal_cli");
        std::fs::remove_dir_all(&dir).ok();
        let serve_args = [
            "serve",
            "--graphs",
            "8",
            "--sessions",
            "2",
            "--requests",
            "4",
            "--update-every",
            "2",
            "--count",
            "3",
            "--min-size",
            "3",
            "--max-size",
            "5",
            "--checkpoint-every",
            "2",
            "--wal-dir",
            &dir,
        ];
        // first run bootstraps the durable log...
        let first = run(&args(&serve_args)).unwrap();
        assert!(first.contains("bootstrapped durable log"), "{first}");
        // ...recover reports what a restart would see...
        let probe = run(&args(&["recover", "--wal-dir", &dir])).unwrap();
        assert!(probe.contains("recovered"), "{probe}");
        assert!(probe.contains("checkpoint:"), "{probe}");
        assert!(probe.contains("digest"), "{probe}");
        // ...and a second serve run recovers and keeps going
        let second = run(&args(&serve_args)).unwrap();
        assert!(second.contains("recovered"), "{second}");
        // recovery of a directory with no durable state is a clean error
        let empty = tmp("wal_cli_empty");
        std::fs::remove_dir_all(&empty).ok();
        std::fs::create_dir_all(&empty).unwrap();
        assert!(run(&args(&["recover", "--wal-dir", &empty])).is_err());
        std::fs::remove_dir_all(&dir).ok();
        std::fs::remove_dir_all(&empty).ok();
    }

    #[test]
    fn dataset_then_construct_then_evaluate() {
        let _observe = observe_lock();
        let file = tmp("aids.txt");
        let out = run(&args(&[
            "dataset", "--kind", "aids", "--out", &file, "--size", "30", "--seed", "7",
        ]))
        .unwrap();
        assert!(out.contains("30 graph(s)"));

        let svg = tmp("vqi.svg");
        let summary = run(&args(&[
            "construct",
            "--input",
            &file,
            "--selector",
            "random",
            "--count",
            "4",
            "--min-size",
            "4",
            "--max-size",
            "6",
            "--svg",
            &svg,
        ]))
        .unwrap();
        assert!(summary.contains("canned"));
        assert!(std::fs::read_to_string(&svg)
            .unwrap()
            .contains("Pattern Panel"));

        let eval = run(&args(&[
            "evaluate",
            "--input",
            &file,
            "--selector",
            "random",
            "--count",
            "4",
        ]))
        .unwrap();
        let v = vqi_observe::json::Json::parse(&eval).unwrap();
        assert!(v["coverage"].as_f64().is_some());
    }

    #[test]
    fn network_mode_and_render() {
        let _observe = observe_lock();
        let file = tmp("net.txt");
        run(&args(&[
            "dataset", "--kind", "dblp", "--out", &file, "--size", "120",
        ]))
        .unwrap();
        let out = run(&args(&[
            "construct",
            "--input",
            &file,
            "--selector",
            "tattoo",
            "--network",
            "true",
            "--count",
            "3",
            "--min-size",
            "4",
            "--max-size",
            "5",
        ]))
        .unwrap();
        assert!(out.contains("tattoo"));

        let svg = tmp("net.svg");
        let r = run(&args(&["render", "--input", &file, "--out", &svg])).unwrap();
        assert!(r.contains("rendered"));
        assert!(std::fs::read_to_string(&svg).unwrap().starts_with("<svg"));
    }

    #[test]
    fn save_and_show_round_trip() {
        let _observe = observe_lock();
        let file = tmp("save_src.txt");
        run(&args(&[
            "dataset", "--kind", "aids", "--out", &file, "--size", "20",
        ]))
        .unwrap();
        let saved = tmp("iface.vqi");
        run(&args(&[
            "construct",
            "--input",
            &file,
            "--selector",
            "random",
            "--count",
            "3",
            "--min-size",
            "4",
            "--max-size",
            "5",
            "--save",
            &saved,
        ]))
        .unwrap();
        let shown = run(&args(&["show", "--load", &saved])).unwrap();
        assert!(shown.contains("random"));
        assert!(shown.contains("canned"));
    }

    #[test]
    fn search_matches_a_plain_scan() {
        use vqi_graph::generate::{chain, cycle};
        use vqi_graph::iso::is_subgraph_isomorphic;
        use vqi_graph::{NodeId, WILDCARD_LABEL};
        let _observe = observe_lock();
        let file = tmp("search_repo.txt");
        run(&args(&[
            "dataset", "--kind", "aids", "--out", &file, "--size", "25",
        ]))
        .unwrap();
        let graphs = parse_transactions(&std::fs::read_to_string(&file).unwrap()).unwrap();
        // a ring with one wildcard atom
        let mut wild_ring = cycle(6, 0, 0);
        wild_ring.set_node_label(NodeId(2), WILDCARD_LABEL);
        let queries = [
            // a 3-carbon chain, ubiquitous in molecules
            chain(3, 0, 0),
            wild_ring,
            // a label no molecule carries
            chain(2, 99, 0),
        ];
        let qfile = tmp("search_query.txt");
        let mut hit_counts = Vec::new();
        for q in &queries {
            std::fs::write(&qfile, vqi_graph::io::write_graph(q, 0)).unwrap();
            let out = run(&args(&["search", "--input", &file, "--query", &qfile])).unwrap();
            let want: Vec<usize> = (0..graphs.len())
                .filter(|&i| is_subgraph_isomorphic(q, &graphs[i], MatchOptions::with_wildcards()))
                .collect();
            let printed = out.trim_end().rsplit("ms: ").next().unwrap();
            assert_eq!(printed, format!("{want:?}"), "{out}");
            hit_counts.push(want.len());
        }
        assert!(hit_counts[0] > 0 && hit_counts[1] > 0, "{hit_counts:?}");
        assert_eq!(hit_counts[2], 0);
    }

    #[test]
    fn search_reports_bad_inputs_and_an_empty_repository() {
        use vqi_graph::generate::chain;
        let repo = tmp("search_bad_repo.txt");
        let qfile = tmp("search_bad_query.txt");
        let one = vqi_graph::io::write_graph(&chain(2, 0, 0), 0);
        std::fs::write(&repo, &one).unwrap();
        let search = |query: &str| run(&args(&["search", "--input", &repo, "--query", query]));
        let missing = tmp("search_no_such_query.txt");
        let _ = std::fs::remove_file(&missing);
        let e = search(&missing).unwrap_err();
        assert!(e.0.starts_with("cannot read"), "{}", e.0);
        assert!(run(&args(&["search", "--input", &repo])).is_err());
        // a query file must hold exactly one graph
        std::fs::write(&qfile, format!("{one}{one}")).unwrap();
        let e = search(&qfile).unwrap_err();
        assert!(
            e.0.starts_with(&format!("parse error in {qfile}")),
            "{}",
            e.0
        );
        // a malformed repository is named in the error
        std::fs::write(&qfile, &one).unwrap();
        std::fs::write(&repo, "v 0 1\n").unwrap();
        let e = search(&qfile).unwrap_err();
        assert!(
            e.0.starts_with(&format!("parse error in {repo}")),
            "{}",
            e.0
        );
        // a repository without graphs answers with no matches
        std::fs::write(&repo, "").unwrap();
        let out = search(&qfile).unwrap();
        assert!(out.starts_with("0 match(es)"), "{out}");
        assert!(out.trim_end().ends_with("ms: []"), "{out}");
    }

    #[test]
    fn metrics_capture_every_pipeline() {
        let _observe = observe_lock();
        let col = tmp("metrics_col.txt");
        run(&args(&[
            "dataset", "--kind", "aids", "--out", &col, "--size", "20",
        ]))
        .unwrap();
        let net = tmp("metrics_net.txt");
        run(&args(&[
            "dataset", "--kind", "dblp", "--out", &net, "--size", "100",
        ]))
        .unwrap();

        vqi_observe::reset();
        vqi_observe::set_enabled(true);
        run(&args(&[
            "construct",
            "--input",
            &col,
            "--selector",
            "catapult",
            "--count",
            "3",
            "--min-size",
            "4",
            "--max-size",
            "5",
        ]))
        .unwrap();
        run(&args(&[
            "construct",
            "--input",
            &col,
            "--selector",
            "modular",
            "--count",
            "3",
            "--min-size",
            "4",
            "--max-size",
            "5",
        ]))
        .unwrap();
        run(&args(&[
            "construct",
            "--input",
            &net,
            "--selector",
            "tattoo",
            "--network",
            "true",
            "--count",
            "3",
            "--min-size",
            "4",
            "--max-size",
            "5",
        ]))
        .unwrap();
        // midas has no subcommand yet; drive its maintenance loop directly
        {
            use vqi_core::repo::{BatchUpdate, GraphCollection};
            let graphs = vqi_datasets::aids_like(vqi_datasets::MoleculeParams {
                count: 12,
                seed: 3,
                ..Default::default()
            });
            let mut m = midas::Midas::bootstrap(
                GraphCollection::new(graphs),
                PatternBudget::new(3, 4, 6),
                midas::MidasConfig::default(),
            );
            m.apply_update(BatchUpdate::adding(vec![vqi_graph::generate::clique(
                5, 3, 0,
            )]));
        }
        vqi_observe::set_enabled(false);

        let s = vqi_observe::snapshot();
        for system in ["catapult", "tattoo", "midas", "modular"] {
            assert!(
                s.spans.keys().any(|k| k.starts_with(system)),
                "no span from {system}: {:?}",
                s.spans.keys().collect::<Vec<_>>()
            );
            assert!(
                s.counters.keys().any(|k| k.starts_with(system)),
                "no counter from {system}: {:?}",
                s.counters.keys().collect::<Vec<_>>()
            );
        }
        let json = s.to_json();
        assert!(json.contains("\"catapult.run\""));
        assert!(json.contains("\"spans\""));
        assert!(!s.render_table().is_empty());
        vqi_observe::reset();
    }

    #[test]
    fn deadline_and_fail_fast_flags_drive_the_run_budget() {
        let _observe = observe_lock();
        let file = tmp("budget_col.txt");
        run(&args(&[
            "dataset", "--kind", "aids", "--out", &file, "--size", "20", "--seed", "5",
        ]))
        .unwrap();
        // a roomy deadline changes nothing: same selection as no flag
        let plain = run(&args(&[
            "evaluate",
            "--input",
            &file,
            "--selector",
            "catapult",
            "--count",
            "3",
        ]))
        .unwrap();
        let budgeted = run(&args(&[
            "evaluate",
            "--input",
            &file,
            "--selector",
            "catapult",
            "--count",
            "3",
            "--deadline-ms",
            "600000",
            "--fail-fast",
        ]))
        .unwrap();
        assert_eq!(plain, budgeted);
        // metrics gauges record the budget the command ran under
        vqi_observe::reset();
        vqi_observe::set_enabled(true);
        run(&args(&[
            "evaluate",
            "--input",
            &file,
            "--selector",
            "random",
            "--count",
            "3",
            "--deadline-ms",
            "600000",
        ]))
        .unwrap();
        vqi_observe::set_enabled(false);
        let s = vqi_observe::snapshot();
        assert_eq!(s.gauges.get("cli.deadline_ms").copied(), Some(600000));
        assert_eq!(s.gauges.get("cli.fail_fast").copied(), Some(0));
        vqi_observe::reset();
        // a bad value is a one-line error, not a panic
        let bad = Args::parse(
            ["evaluate", "--input", &file, "--deadline-ms", "soon"]
                .iter()
                .map(|s| s.to_string()),
        )
        .unwrap();
        assert!(run(&bad).is_err());
    }

    #[test]
    fn an_expired_deadline_degrades_instead_of_crashing() {
        let _observe = observe_lock();
        let file = tmp("deadline_col.txt");
        run(&args(&[
            "dataset", "--kind", "aids", "--out", &file, "--size", "20", "--seed", "6",
        ]))
        .unwrap();
        // deadline of 1 ms: selection is cut, but the command still
        // succeeds with an (empty or partial) anytime result
        let out = run(&args(&[
            "evaluate",
            "--input",
            &file,
            "--selector",
            "catapult",
            "--count",
            "3",
            "--deadline-ms",
            "1",
        ]))
        .unwrap();
        let v = vqi_observe::json::Json::parse(&out).unwrap();
        assert!(v["coverage"].as_f64().is_some());
    }

    /// Arms the metrics registry + trace journal for one test and
    /// disarms both (and clears the journal) on drop, even on panic.
    struct JournalGuard;
    fn arm_journal() -> JournalGuard {
        vqi_observe::reset();
        vqi_observe::journal_reset();
        vqi_observe::set_enabled(true);
        vqi_observe::set_journal_enabled(true);
        JournalGuard
    }
    impl Drop for JournalGuard {
        fn drop(&mut self) {
            vqi_observe::set_journal_enabled(false);
            vqi_observe::set_enabled(false);
            vqi_observe::journal_reset();
            vqi_observe::reset();
        }
    }

    #[test]
    fn trace_out_chrome_is_valid_and_parented() {
        let _observe = observe_lock();
        let net = tmp("trace_net.txt");
        run(&args(&[
            "dataset", "--kind", "dblp", "--out", &net, "--size", "150", "--seed", "9",
        ]))
        .unwrap();
        let _journal = arm_journal();
        run(&args(&[
            "construct",
            "--input",
            &net,
            "--selector",
            "tattoo",
            "--network",
            "true",
            "--count",
            "3",
            "--min-size",
            "4",
            "--max-size",
            "5",
        ]))
        .unwrap();
        let out = tmp("trace.json");
        write_trace(&out).unwrap();
        let json = std::fs::read_to_string(&out).unwrap();
        let stats =
            vqi_observe::validate_chrome_trace(&json).expect("emitted chrome trace must validate");
        assert!(stats.spans > 0, "run must record spans");
        assert!(json.contains("\"tattoo.run\""), "run root span present");
        // every span below the root has a resolvable, non-zero parent:
        // the run root is the only parentless Begin event
        let roots = json
            .lines()
            .filter(|l| l.contains("\"ph\":\"B\"") && l.contains("\"parent\":0}"))
            .count();
        assert_eq!(roots, 1, "exactly one root span (the run): {roots}");
        // the profile built from the same journal attributes the run
        let events = vqi_observe::journal_events();
        let profile = vqi_observe::profile(&events, None);
        assert!(profile.nodes.contains_key("tattoo.run"));
        assert!(profile
            .critical_path
            .first()
            .is_some_and(|(p, _)| p == "tattoo.run"));
    }

    #[test]
    fn trace_out_folded_extension_selects_collapsed_stacks() {
        let _observe = observe_lock();
        let col = tmp("trace_fold_col.txt");
        run(&args(&[
            "dataset", "--kind", "aids", "--out", &col, "--size", "20", "--seed", "4",
        ]))
        .unwrap();
        let _journal = arm_journal();
        run(&args(&[
            "construct",
            "--input",
            &col,
            "--selector",
            "catapult",
            "--count",
            "3",
            "--min-size",
            "4",
            "--max-size",
            "5",
        ]))
        .unwrap();
        let out = tmp("trace.folded");
        write_trace(&out).unwrap();
        let folded = std::fs::read_to_string(&out).unwrap();
        assert!(!folded.is_empty());
        for line in folded.lines() {
            let (path, weight) = line.rsplit_once(' ').expect("'<stack> <weight>' lines");
            assert!(!path.is_empty());
            weight.parse::<u64>().expect("integer self-time weight");
        }
        assert!(
            folded.lines().any(|l| l.starts_with("catapult.run")),
            "stacks rooted at the run:\n{folded}"
        );
    }

    #[test]
    fn trace_out_shows_faults_and_degradations() {
        let _observe = observe_lock();
        let col = tmp("trace_fault_col.txt");
        run(&args(&[
            "dataset", "--kind", "aids", "--out", &col, "--size", "20", "--seed", "8",
        ]))
        .unwrap();
        let _journal = arm_journal();
        // every stage times out once: the run degrades but completes
        vqi_runtime::fault::set_plan(vqi_runtime::fault::FaultPlan {
            seed: 5,
            timeout_rate: 1.0,
            ..Default::default()
        });
        let res = run(&args(&[
            "construct",
            "--input",
            &col,
            "--selector",
            "catapult",
            "--count",
            "3",
            "--min-size",
            "4",
            "--max-size",
            "5",
        ]));
        vqi_runtime::fault::reset();
        res.unwrap();
        let out = tmp("trace_faults.json");
        write_trace(&out).unwrap();
        let json = std::fs::read_to_string(&out).unwrap();
        let stats = vqi_observe::validate_chrome_trace(&json).expect("trace must validate");
        assert!(stats.instants > 0, "fault instants must be recorded");
        assert!(json.contains("fault.injected:"), "injected-fault instants");
        assert!(json.contains("run.degraded:"), "degradation instants");
        // the aggregate counters tell the same story
        let s = vqi_observe::snapshot();
        assert!(s.counters.get("fault.injected").copied().unwrap_or(0) > 0);
        assert!(s.counters.get("fault.degraded").copied().unwrap_or(0) > 0);
    }

    #[test]
    fn bad_inputs_error_cleanly() {
        let _observe = observe_lock();
        assert!(run(&args(&["construct", "--input", "/nonexistent/x.txt"])).is_err());
        assert!(run(&args(&["dataset", "--kind", "nope", "--out", "/tmp/x"])).is_err());
        let file = tmp("bad.txt");
        std::fs::write(&file, "garbage line\n").unwrap();
        assert!(run(&args(&["construct", "--input", &file])).is_err());
    }
}
