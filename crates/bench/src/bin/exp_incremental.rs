//! Incremental-maintenance benchmark — delta kernels vs from-scratch.
//!
//! Sweeps edge-churn levels from 0.1% to 10% over a sparse random
//! network (uniform pairs plus planted cliques, so the k-truss has
//! non-trivial classes and the census sees every graphlet family) and
//! compares, per level:
//!
//! * **full** — `trussness` + `count_graphlets_par` on the updated
//!   graph, i.e. what a maintainer without delta kernels would pay on
//!   every batch;
//! * **incremental** — `TrussMaintainer::apply` +
//!   `CensusMaintainer::apply` of the same delta against maintainers
//!   seeded from the base graph.
//!
//! Before timing is reported, every level asserts the incremental
//! results are **bit-identical** to the from-scratch kernels at thread
//! caps 1, 2, and 4 — the equality contract of the maintainers, checked
//! in-bench on every batch size, not just in unit tests.
//!
//! Writes `BENCH_incremental.json` at the repository root.

use bench::{enable_metrics, print_table, report_counters, time_ms, write_bench_json};
use vqi_graph::graphlet::{count_graphlets_par, CensusMaintainer};
use vqi_graph::par;
use vqi_graph::truss::{trussness, TrussMaintainer};
use vqi_graph::{EdgeDelta, Graph, NodeId};
use vqi_observe::json::{Json, ToJson};

const NODES: usize = 60_000;
const TARGET_EDGES: usize = 45_000;
const PLANTED_CLIQUES: usize = 150;
const CHURN_LEVELS: [f64; 5] = [0.001, 0.005, 0.01, 0.05, 0.10];

/// SplitMix64 step: a tiny deterministic stream without the rand crate.
fn mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(rand::SPLITMIX64_GAMMA);
    rand::splitmix64(*state)
}

/// A sparse uniform random network with a few planted 5-cliques: the
/// uniform part keeps the degree low (incremental locality is the point
/// of the benchmark), the cliques give the truss decomposition classes
/// above 2 and the census all eight graphlet families.
fn random_network(seed: u64) -> Graph {
    let mut g = Graph::with_capacity(NODES, TARGET_EDGES);
    for _ in 0..NODES {
        g.add_node(0);
    }
    let mut state = seed;
    let mut edges = 0;
    for c in 0..PLANTED_CLIQUES {
        let base = (mix(&mut state) as usize) % (NODES - 5);
        let members: Vec<u32> = (0..5).map(|i| (base + i * (c % 3 + 1)) as u32).collect();
        for i in 0..5 {
            for j in (i + 1)..5 {
                if g.add_edge(NodeId(members[i]), NodeId(members[j]), 0)
                    .is_some()
                {
                    edges += 1;
                }
            }
        }
    }
    while edges < TARGET_EDGES {
        let u = (mix(&mut state) as usize % NODES) as u32;
        let v = (mix(&mut state) as usize % NODES) as u32;
        if g.add_edge(NodeId(u), NodeId(v), 0).is_some() {
            edges += 1;
        }
    }
    g
}

/// A mixed delta at the given churn level: half deletions (a stride
/// over the live edge list) and half insertions (fresh uniform pairs).
fn churn_delta(g: &Graph, churn: f64, seed: u64) -> EdgeDelta {
    let m = g.edge_count();
    let changed = ((churn * m as f64).round() as usize).max(2);
    let deletes = changed / 2;
    let inserts = changed - deletes;
    let mut delta = EdgeDelta::new();
    let stride = (m / deletes).max(1);
    for e in g.edges().step_by(stride).take(deletes) {
        let (u, v) = g.endpoints(e);
        delta.deletes.push((u.0, v.0));
    }
    let mut state = seed;
    while delta.inserts.len() < inserts {
        let u = (mix(&mut state) as usize % NODES) as u32;
        let v = (mix(&mut state) as usize % NODES) as u32;
        if u == v || g.has_edge(NodeId(u), NodeId(v)) {
            continue;
        }
        if delta.inserts.contains(&(u, v)) || delta.inserts.contains(&(v, u)) {
            continue;
        }
        delta.inserts.push((u, v));
    }
    delta
}

vqi_observe::json_record! {
    struct Level {
        churn: f64,
        deletes: usize,
        inserts: usize,
        full_ms: f64,
        incremental_ms: f64,
        speedup: f64,
        truss_region_edges: usize,
        census_rows_scanned: usize,
    }
}

fn main() {
    enable_metrics();
    let g = random_network(0x1DE17A);
    println!(
        "network: {} nodes, {} edges ({} planted 5-cliques)",
        g.node_count(),
        g.edge_count(),
        PLANTED_CLIQUES
    );

    // seeded once, untimed: the maintainers amortize this over every
    // subsequent batch, which is the whole point
    let truss_base = TrussMaintainer::new(&g);
    let census_base = CensusMaintainer::new(&g);

    let mut levels: Vec<Level> = Vec::new();
    for (i, &churn) in CHURN_LEVELS.iter().enumerate() {
        let delta = churn_delta(&g, churn, 0xD117A + i as u64);
        // the reference world both sides must match: the base graph
        // with the delta's deletes and (label-0) inserts applied
        let mut updated = g.clone();
        updated.apply_batch(&delta.to_batch(g.node_count()));

        // equality contract first: at caps 1, 2, and 4 the incremental
        // results must be bit-identical to the from-scratch kernels
        let mut across_caps: Option<(Vec<u32>, [u64; 8])> = None;
        for cap in [1usize, 2, 4] {
            par::set_thread_cap(cap);
            let mut tm = truss_base.clone();
            let mut cm = census_base.clone();
            tm.apply(&delta);
            cm.apply(&delta);
            assert!(tm.graph() == &updated, "cap {cap}, churn {churn}: graph");
            let tvals = tm.trussness().to_vec();
            let counts = cm.counts().counts;
            assert_eq!(
                tvals,
                trussness(&updated),
                "cap {cap}, churn {churn}: incremental trussness != fresh peel"
            );
            assert_eq!(
                counts,
                count_graphlets_par(&updated).counts,
                "cap {cap}, churn {churn}: incremental census != fresh count"
            );
            match &across_caps {
                None => across_caps = Some((tvals, counts)),
                Some((t1, c1)) => {
                    assert_eq!(t1, &tvals, "cap {cap} changed the truss result");
                    assert_eq!(c1, &counts, "cap {cap} changed the census result");
                }
            }
        }
        par::set_thread_cap(0);

        // timings at the default thread pool
        let (_, full_truss_ms) = time_ms(|| trussness(&updated));
        let (_, full_census_ms) = time_ms(|| count_graphlets_par(&updated));
        let mut tm = truss_base.clone();
        let mut cm = census_base.clone();
        let (tstats, inc_truss_ms) = time_ms(|| tm.apply(&delta));
        let (cstats, inc_census_ms) = time_ms(|| cm.apply(&delta));

        let full_ms = full_truss_ms + full_census_ms;
        let incremental_ms = inc_truss_ms + inc_census_ms;
        levels.push(Level {
            churn,
            deletes: delta.deletes.len(),
            inserts: delta.inserts.len(),
            full_ms,
            incremental_ms,
            speedup: full_ms / incremental_ms.max(1e-9),
            truss_region_edges: tstats.region_edges,
            census_rows_scanned: cstats.recounted_roots,
        });
    }

    let rows: Vec<Vec<String>> = levels
        .iter()
        .map(|l| {
            vec![
                format!("{:.1}%", l.churn * 100.0),
                format!("{}+{}", l.deletes, l.inserts),
                format!("{:.2}", l.full_ms),
                format!("{:.2}", l.incremental_ms),
                format!("{:.1}x", l.speedup),
                l.truss_region_edges.to_string(),
                l.census_rows_scanned.to_string(),
            ]
        })
        .collect();
    print_table(
        "Incremental maintenance: full recompute vs delta kernels (bit-identical at caps 1/2/4)",
        &[
            "churn",
            "del+ins",
            "full ms",
            "incr ms",
            "speedup",
            "truss region",
            "census rows",
        ],
        &rows,
    );

    let counters = report_counters(&["kernel.truss.delta.", "kernel.census.delta."]);
    let network = [
        ("nodes", NODES),
        ("edges", TARGET_EDGES),
        ("planted_cliques", PLANTED_CLIQUES),
    ];
    let json = Json::object([
        (
            "network",
            Json::object(network.map(|(k, v)| (k, v.to_json()))),
        ),
        ("levels", levels.to_json()),
        ("delta_counters", counters),
    ]);
    write_bench_json("incremental", &json);
}
