//! Storage-scaling benchmark — CSR backend at 10⁶ / 10⁷ / 10⁸ edges.
//!
//! For each size the synthetic network (uniform Feistel-permuted pairs
//! plus planted 5-cliques, duplicate-free by construction) is streamed
//! straight into the CSR builder — no adjacency-list intermediate —
//! and the large-network kernels run against the packed storage:
//!
//! * **build** — streamed two-pass CSR construction time and the exact
//!   bytes-per-edge of the packed arrays;
//! * **truss** — the k-truss peel over [`GraphStorage`];
//! * **census** — the exact graphlet census by edge-local counting, at
//!   every size;
//! * **tattoo** — sharded TATTOO candidate generation + selection over
//!   CSR shards via the [`ShardExecutor`] harness.
//!
//! At 10⁶ edges — where the heap twin comfortably fits — the bench
//! first asserts the equality contract at thread caps 1, 2, and 4:
//! heap and CSR backends produce bit-identical trussness, census, and
//! TATTOO selections, and the streamed CSR matches the heap-converted
//! one digest-for-digest (including an image save → load round trip).
//!
//! Peak memory is sampled from `/proc/self/status` (`VmHWM`) after each
//! size, giving the peak-RSS ceiling the 100M-edge run stays under.
//!
//! Writes `BENCH_scale.json` at the repository root.

use bench::{enable_metrics, print_table, time_ms, write_bench_json};
use tattoo::shard::ShardedTattoo;
use tattoo::TattooConfig;
use vqi_core::budget::PatternBudget;
use vqi_graph::generate::{synthetic_network, SyntheticSpec};
use vqi_graph::graphlet::count_graphlets_par;
use vqi_graph::par;
use vqi_graph::storage::{CsrGraph, GraphStorage};
use vqi_graph::truss::trussness;
use vqi_observe::json::{Json, ToJson};
use vqi_observe::mem;

vqi_observe::json_record! {
    struct SizeRow {
        size: &'static str,
        nodes: usize,
        edges: usize,
        build_ms: f64,
        bytes_per_edge: f64,
        truss_ms: f64,
        census_ms: f64,
        tattoo_ms: Option<f64>,
        selected: Option<usize>,
        image_save_ms: Option<f64>,
        image_load_ms: Option<f64>,
        peak_rss_kb: u64,
    }
}

fn spec(nodes: usize, uniform_edges: usize, cliques: usize, seed: u64) -> SyntheticSpec {
    SyntheticSpec {
        nodes,
        uniform_edges,
        cliques,
        node_labels: 4,
        edge_labels: 3,
        seed,
    }
}

fn peak_rss_kb() -> u64 {
    mem::record_rss().map(|s| s.peak_rss_kb).unwrap_or(0)
}

fn codes(set: &vqi_core::pattern::PatternSet) -> Vec<vqi_graph::canon::CanonicalCode> {
    set.patterns().iter().map(|p| p.code.clone()).collect()
}

/// The 10⁶-edge size: equality contract (heap vs CSR at caps 1/2/4),
/// image round trip, then timings on the CSR backend.
fn small(rows: &mut Vec<SizeRow>) {
    let sp = spec(500_000, 970_000, 3_000, 0x5C_A1E1);
    let (csr, build_ms) = time_ms(|| CsrGraph::from_synthetic(&sp));
    let edges = csr.edge_count();
    println!(
        "S1: {} nodes, {} edges (heap-twin equality size)",
        csr.node_count(),
        edges
    );

    {
        let heap = synthetic_network(&sp);
        assert_eq!(
            CsrGraph::from_graph(&heap).digest(),
            csr.digest(),
            "streamed CSR must match the heap-converted one"
        );
        let budget = PatternBudget::new(5, 4, 6);
        let sel = ShardedTattoo::new(TattooConfig::default(), 8).with_score_shards(2);
        let mut reference: Option<(Vec<u32>, [u64; 8], Vec<_>)> = None;
        for cap in [1usize, 2, 4] {
            par::set_thread_cap(cap);
            let t_heap = trussness(&heap);
            let t_csr = trussness(&csr);
            let c_heap = count_graphlets_par(&heap).counts;
            let c_csr = count_graphlets_par(&csr).counts;
            let s_heap = codes(&sel.run(&heap, &budget));
            let s_csr = codes(&sel.run(&csr, &budget));
            par::set_thread_cap(0);
            assert_eq!(
                t_heap, t_csr,
                "cap {cap}: trussness differs across backends"
            );
            assert_eq!(c_heap, c_csr, "cap {cap}: census differs across backends");
            assert_eq!(
                s_heap, s_csr,
                "cap {cap}: TATTOO selection differs across backends"
            );
            match &reference {
                None => reference = Some((t_csr, c_csr, s_csr)),
                Some((t1, c1, s1)) => {
                    assert_eq!(t1, &t_csr, "cap {cap} changed the truss result");
                    assert_eq!(c1, &c_csr, "cap {cap} changed the census result");
                    assert_eq!(s1, &s_csr, "cap {cap} changed the selection");
                }
            }
        }
        println!("S1: heap/CSR bit-identical at caps 1, 2, 4 (truss, census, tattoo)");
    }

    let image = std::env::temp_dir().join(format!("vqi_scale_s1_{}.csr", std::process::id()));
    let (saved, image_save_ms) = time_ms(|| csr.save_image(&image));
    saved.expect("save image");
    let (loaded, image_load_ms) = time_ms(|| CsrGraph::load_image(&image));
    let loaded = loaded.expect("load image");
    assert_eq!(
        loaded.digest(),
        csr.digest(),
        "image round trip changed the digest"
    );
    let _ = std::fs::remove_file(&image);

    mem::record_struct_bytes("csr_s1", csr.heap_bytes());
    let (_, truss_ms) = time_ms(|| trussness(&csr));
    let (_, census_ms) = time_ms(|| count_graphlets_par(&csr));
    let budget = PatternBudget::new(5, 4, 6);
    let sel = ShardedTattoo::new(TattooConfig::default(), 8).with_score_shards(2);
    let (set, tattoo_ms) = time_ms(|| sel.run(&csr, &budget));
    rows.push(SizeRow {
        size: "1e6",
        nodes: csr.node_count(),
        edges,
        build_ms,
        bytes_per_edge: csr.heap_bytes() as f64 / edges as f64,
        truss_ms,
        census_ms,
        tattoo_ms: Some(tattoo_ms),
        selected: Some(set.len()),
        image_save_ms: Some(image_save_ms),
        image_load_ms: Some(image_load_ms),
        peak_rss_kb: peak_rss_kb(),
    });
}

/// The 10⁷-edge size: truss + census on the CSR backend only.
fn medium(rows: &mut Vec<SizeRow>) {
    let sp = spec(5_000_000, 9_700_000, 30_000, 0x5C_A1E2);
    let (csr, build_ms) = time_ms(|| CsrGraph::from_synthetic(&sp));
    let edges = csr.edge_count();
    println!("S2: {} nodes, {} edges", csr.node_count(), edges);
    mem::record_struct_bytes("csr_s2", csr.heap_bytes());
    let (_, truss_ms) = time_ms(|| trussness(&csr));
    let (_, census_ms) = time_ms(|| count_graphlets_par(&csr));
    rows.push(SizeRow {
        size: "1e7",
        nodes: csr.node_count(),
        edges,
        build_ms,
        bytes_per_edge: csr.heap_bytes() as f64 / edges as f64,
        truss_ms,
        census_ms,
        tattoo_ms: None,
        selected: None,
        image_save_ms: None,
        image_load_ms: None,
        peak_rss_kb: peak_rss_kb(),
    });
}

/// The 10⁸-edge size: the tentpole run — truss decomposition, the exact
/// census and sharded TATTOO selection on a network that never exists
/// as an adjacency list.
fn large(rows: &mut Vec<SizeRow>) {
    let sp = spec(50_000_000, 97_000_000, 300_000, 0x5C_A1E3);
    let (csr, build_ms) = time_ms(|| CsrGraph::from_synthetic(&sp));
    let edges = csr.edge_count();
    println!(
        "S3: {} nodes, {} edges (streamed build, no adjacency list)",
        csr.node_count(),
        edges
    );
    mem::record_struct_bytes("csr_s3", csr.heap_bytes());
    let (_, truss_ms) = time_ms(|| trussness(&csr));
    println!("S3: truss peel done in {truss_ms:.0} ms");
    let (_, census_ms) = time_ms(|| count_graphlets_par(&csr));
    println!("S3: exact census done in {census_ms:.0} ms");
    let budget = PatternBudget::new(5, 4, 6);
    let sel = ShardedTattoo::new(TattooConfig::default(), 64).with_score_shards(4);
    let (set, tattoo_ms) = time_ms(|| sel.run(&csr, &budget));
    println!(
        "S3: sharded TATTOO selected {} patterns in {tattoo_ms:.0} ms",
        set.len()
    );
    rows.push(SizeRow {
        size: "1e8",
        nodes: csr.node_count(),
        edges,
        build_ms,
        bytes_per_edge: csr.heap_bytes() as f64 / edges as f64,
        truss_ms,
        census_ms,
        tattoo_ms: Some(tattoo_ms),
        selected: Some(set.len()),
        image_save_ms: None,
        image_load_ms: None,
        peak_rss_kb: peak_rss_kb(),
    });
}

fn main() {
    enable_metrics();
    let mut rows: Vec<SizeRow> = Vec::new();
    small(&mut rows);
    medium(&mut rows);
    // VQI_SCALE_SMALL=1 stops after the equality sizes (CI smoke runs)
    if std::env::var("VQI_SCALE_SMALL").is_err() {
        large(&mut rows);
    }

    let fmt_opt = |v: &Option<f64>| v.map(|x| format!("{x:.1}")).unwrap_or_else(|| "-".into());
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.size.to_string(),
                r.edges.to_string(),
                format!("{:.0}", r.build_ms),
                format!("{:.1}", r.bytes_per_edge),
                format!("{:.1}", r.truss_ms),
                format!("{:.1}", r.census_ms),
                fmt_opt(&r.tattoo_ms),
                r.selected
                    .map(|s| s.to_string())
                    .unwrap_or_else(|| "-".into()),
                format!("{}", r.peak_rss_kb / 1024),
            ]
        })
        .collect();
    print_table(
        "CSR storage scaling (bit-identical to heap at 1e6, caps 1/2/4)",
        &[
            "size",
            "edges",
            "build ms",
            "B/edge",
            "truss ms",
            "census ms",
            "tattoo ms",
            "selected",
            "peak MB",
        ],
        &table,
    );

    let equality = Json::object([
        ("size", "1e6".to_json()),
        ("caps", vec![1, 2, 4].to_json()),
        ("kernels", vec!["truss", "census", "tattoo"].to_json()),
    ]);
    let json = Json::object([("equality", equality), ("sizes", rows.to_json())]);
    write_bench_json("scale", &json);
}
