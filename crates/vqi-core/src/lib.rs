//! Core model of a data-driven visual query interface (VQI).
//!
//! A VQI is built from four panels (§2.1 of the tutorial):
//!
//! * the **Attribute Panel** lists the node/edge labels of the underlying
//!   repository — trivially data-driven;
//! * the **Pattern Panel** holds *basic* patterns (edge, 2-path,
//!   triangle) plus *canned* patterns mined from the data — the hard,
//!   NP-hard-to-populate part that CATAPULT/TATTOO/MIDAS exist for;
//! * the **Query Panel** is where users compose queries (edge-at-a-time
//!   or pattern-at-a-time);
//! * the **Results Panel** shows matches of the query in the repository.
//!
//! This crate owns the vocabulary shared by every selection system:
//! patterns and deduplicated pattern sets ([`pattern`]), selection
//! budgets ([`budget`]), the repository abstraction ([`repo`]), packed
//! coverage bitsets ([`bitset`]), the coverage / diversity /
//! cognitive-load quality measures ([`score`]), the anytime greedy
//! selection loop every pipeline shares ([`select`]),
//! the selector interface ([`selector`]), the panel and interface model
//! ([`panel`], [`vqi`]), query composition ([`query`]), query evaluation
//! ([`results`]), and the presentation layer ([`layout`], [`aesthetics`],
//! [`render`]) that makes the headless "GUI" observable.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aesthetics;
pub mod bitset;
pub mod budget;
pub mod ctrl;
pub mod explore;
pub mod layout;
pub mod optimize;
pub mod panel;
pub mod pattern;
pub mod persist;
pub mod query;
pub mod render;
pub mod repo;
pub mod results;
pub mod score;
pub mod select;
pub mod selector;
pub mod summary;
pub mod vqi;

pub use bitset::BitSet;
pub use budget::PatternBudget;
pub use ctrl::{Budget, CancelToken, Completeness, Degradation, PipelineOutcome};
pub use pattern::{Pattern, PatternId, PatternKind, PatternSet};
pub use repo::{BatchUpdate, GraphRepository};
pub use selector::PatternSelector;
pub use vqi::VisualQueryInterface;

/// Serializes the tests that flip process-global state (the `par`
/// thread cap, metric recording) or read global counters.
#[cfg(test)]
pub(crate) fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}
