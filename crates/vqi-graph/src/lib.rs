//! Labeled-graph substrate for data-driven visual query interfaces.
//!
//! This crate provides everything the pattern-selection systems
//! (CATAPULT, TATTOO, MIDAS) need from a graph library, implemented from
//! scratch:
//!
//! * [`graph::Graph`] — an undirected, node- and edge-labeled graph with
//!   append-only nodes, in-place batch edge edits and cheap subgraph
//!   extraction;
//! * [`iso`] — VF2-style subgraph-isomorphism search with wildcard labels,
//!   embedding enumeration, and coverage helpers;
//! * [`star`] — exact edge coverage of star patterns in closed form,
//!   per node and per edge, so it can be patched after an edit;
//! * [`canon`] — canonical codes for small graphs (pattern deduplication);
//! * [`truss`] — k-truss decomposition and the truss-infested /
//!   truss-oblivious split used by TATTOO;
//! * [`delta`] — edge-churn batches: labelled [`delta::EdgeBatch`]es a
//!   graph applies in place, and the [`delta::EdgeDelta`]s consumed by
//!   the incremental maintainers in [`truss`] and [`graphlet`];
//! * [`graphlet`] — the exact connected-graphlet census (edge-local
//!   counting, with ESU as the test oracle), its incremental maintainer,
//!   and the graphlet frequency distributions used by MIDAS;
//! * [`traversal`] — BFS/DFS, components, weighted random walks, and
//!   connected-subgraph sampling;
//! * [`generate`] — random-graph generators and the small "motif" shapes
//!   (chain, star, cycle, petal, flower) that mirror real query-log
//!   topologies;
//! * [`mcs`] — maximum-common-edge-subgraph search (exact with a node
//!   budget, plus a greedy fallback) for diversity measures;
//! * [`index`] — compiled per-graph matching indexes (label-partitioned
//!   candidate buckets, invariant signatures) and graph fingerprints
//!   for constant-time infeasibility checks and MCS upper bounds,
//!   patched in place after a batch edit;
//! * [`par`] — deterministic fork-join helpers (order-stable chunked
//!   maps over scoped threads) used by every parallel kernel path, with
//!   a global sequential toggle, thread-count controls, and the
//!   [`par::ShardExecutor`] shard/retry harness;
//! * [`storage`] — the [`storage::GraphStorage`] backend trait with the
//!   compact u32-packed [`storage::CsrGraph`] (streamed construction,
//!   little-endian on-disk images) behind the large-network kernels;
//! * [`cache`] — sharded, capacity-bounded memoization of the expensive
//!   kernels (MCS similarity, coverage) keyed by canonical codes;
//! * [`io`] — a line-oriented text format compatible with the classic
//!   `t # / v / e` graph-transaction files;
//! * [`metrics`] — simple structural statistics.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod canon;
pub mod delta;
pub mod generate;
pub mod graph;
pub mod graphlet;
pub mod index;
pub mod io;
pub mod iso;
pub mod mcs;
pub mod metrics;
pub mod par;
pub mod star;
pub mod storage;
pub mod traversal;
pub mod truss;
pub mod wal;

pub use delta::{EdgeBatch, EdgeDelta, GraphEdit};
pub use graph::{EdgeId, Graph, Label, NodeId, WILDCARD_LABEL};

/// Serializes tests that read or flip crate-global state (the `par`
/// thread cap, global metric counters): their assertions are only
/// meaningful while no other test races that state.
#[cfg(test)]
pub(crate) fn kernel_test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}
