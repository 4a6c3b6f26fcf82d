//! MIDAS — efficient and effective maintenance of canned patterns in
//! visual graph query interfaces (Huang et al., SIGMOD 2021, as surveyed
//! in §2.4 of the tutorial).
//!
//! Re-running CATAPULT from scratch whenever the repository changes is
//! extremely inefficient; MIDAS maintains the existing pattern set under
//! *batch* updates instead:
//!
//! 1. newly added graphs are assigned to existing clusters (or found new
//!    ones) by feature distance; deleted graphs leave their clusters;
//! 2. the *graphlet frequency distributions* of the repository before and
//!    after the batch are compared (Euclidean distance) to decide whether
//!    the modification is **minor** — only clusters and CSGs are
//!    refreshed — or **major** — pattern maintenance runs;
//! 3. features are *frequent closed trees* (FCTs) rather than raw
//!    frequent subtrees, because closedness is stable under small changes
//!    and the [`vqi_mining::fct::FctIndex`] updates incrementally; its
//!    support sets are exact, so each graph's feature vector is read
//!    off the index instead of being re-matched;
//! 4. on a major modification, candidates are generated from the CSGs of
//!    new and modified clusters and the pattern set is updated by a
//!    **multi-scan swapping strategy** (the shared swap refiner
//!    [`vqi_core::select::swap_refine`], over data-graph positions) that
//!    only accepts swaps with progressive coverage gain that don't
//!    sacrifice diversity or cognitive load, using coverage-based
//!    pruning over two indices (pattern → covered-graphs bitsets and
//!    graph → covering-pattern counts).
//!
//! The headline guarantee — the updated pattern set scores at least as
//! well on the updated repository as the stale set would — is enforced by
//! construction (swaps that don't improve are rejected) and asserted in
//! the tests.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod maintain;

pub use maintain::{CensusMode, MaintenanceReport, Midas, MidasConfig, Modification};

/// Serializes tests against the process-global fault-injection plan:
/// any test that runs a pipeline (whose stage bodies contain fault
/// sites) must not race a test that installs a plan.
#[cfg(test)]
pub(crate) fn fault_test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}
