//! The query endpoint's `serve.query.filtered` counter. Metrics are
//! process-global, so this test has a binary of its own: no other
//! test's queries can add to the counter while it reads it.

use vqi_core::repo::GraphCollection;
use vqi_graph::generate::{chain, cycle, star};
use vqi_serve::{ServeConfig, VqiService};

fn filtered() -> u64 {
    vqi_observe::snapshot()
        .counters
        .get("serve.query.filtered")
        .copied()
        .unwrap_or(0)
}

#[test]
fn query_counts_the_graphs_the_filter_refused() {
    let service = VqiService::new(
        GraphCollection::new(vec![
            chain(4, 1, 0),
            cycle(4, 2, 0),
            star(3, 1, 0),
            chain(2, 2, 0),
            cycle(5, 1, 0),
        ]),
        ServeConfig::default(),
    );
    vqi_observe::set_enabled(true);
    // a label-2 edge: the three label-1 graphs cannot host it
    let before = filtered();
    let resp = service.query(1, &chain(2, 2, 0), 10, None).unwrap();
    let hits: Vec<usize> = resp.outcome.value.hits.iter().map(|h| h.graph_id).collect();
    assert_eq!(hits, vec![1, 3]);
    assert_eq!(filtered() - before, 3);
    // a 5-node path of label 1: the 4-chain and the 4-node star are
    // too small, only the 5-cycle is examined
    let before = filtered();
    let resp = service.query(2, &chain(5, 1, 0), 10, None).unwrap();
    let hits: Vec<usize> = resp.outcome.value.hits.iter().map(|h| h.graph_id).collect();
    assert_eq!(hits, vec![4]);
    assert_eq!(filtered() - before, 4);
    vqi_observe::set_enabled(false);
}
