//! Multi-tenant VQI service core (§4 of the tutorial: VQIs as
//! long-lived, shared infrastructure rather than one-shot pipelines).
//!
//! Everything built so far — CATAPULT/MIDAS selection, budget-aware
//! kernels, the observe registry — runs as a batch pipeline: load a
//! collection, select once, exit. A deployed visual query interface is
//! the opposite shape: a long-lived process where many user sessions
//! concurrently ask for pattern panels and run queries while the
//! repository itself keeps changing underneath them. This crate is that
//! serving layer, kept deliberately free of any network dependency (the
//! harness drives it over plain function calls from session threads):
//!
//! * [`snapshot`] — epoch-swapped [`std::sync::Arc`] snapshots of the
//!   [`vqi_core::repo::GraphCollection`]. Readers pin the current epoch
//!   and keep it for the whole request; the maintainer builds the next
//!   collection off to the side and publishes it atomically. A reader
//!   therefore always sees one internally consistent collection — never
//!   a half-applied batch — which is the snapshot-isolation invariant
//!   the race tests assert. Each snapshot builds its read-side derived
//!   state (the collection fingerprint, one index per graph) once per
//!   epoch, on first use.
//! * [`cache`] — a pattern-set memo keyed by the *content* of the
//!   pinned collection (sorted [`vqi_graph::index::Fingerprint`]
//!   digests), selector identity, and budget. Identical datasets across
//!   tenants hit a shared entry; any update changes the fingerprint and
//!   naturally invalidates without explicit bookkeeping.
//! * [`admission`] — a bounded in-flight limit with a bounded FIFO
//!   queue. Requests carry a [`vqi_runtime::Budget`] deadline; a
//!   request that times out queueing is answered with a `Degraded`
//!   empty outcome (anytime semantics), while queue overflow is the
//!   only hard rejection.
//! * [`durable`] — the write-ahead log and checkpoint layer: every
//!   update batch is logged and fsync'd before its epoch publishes, and
//!   recovery (newest valid checkpoint + epoch-ordered replay, torn
//!   tails truncated) restores a bit-identical collection at the same
//!   epoch. See DESIGN §13 for the ordering argument.
//! * [`service`] — the endpoints (`select` / `query` / `update`), each
//!   wrapped in a run-scoped trace journal run, with latency histograms
//!   and in-flight/queue-depth gauges in the observe registry.
//! * [`harness`] — a deterministic closed-loop load generator used by
//!   the CLI `serve` smoke command and the isolation-race tests.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
pub mod cache;
#[cfg(test)]
mod crash_tests;
pub mod durable;
pub mod harness;
pub mod service;
pub mod snapshot;

pub use admission::{Admission, AdmissionConfig, Permit};
pub use cache::{CollectionFingerprint, PatternSetCache, SelectKey};
pub use durable::{collection_digest, DurabilityConfig, DurableLog, RecoveryReport};
pub use harness::{run_load, EndpointStats, LoadParams, LoadReport};
pub use midas::CensusMode;
pub use service::{
    pattern_codes, reference_select, MaintenanceMode, QueryResponse, SelectResponse, SelectorKind,
    ServeConfig, ServeError, UpdateReport, UpdateResponse, VqiService,
};
pub use snapshot::{Snapshot, SnapshotStore};
pub use vqi_core::results::{QueryHit, QueryMatches};
