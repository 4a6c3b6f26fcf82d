//! # datadriven-vqi
//!
//! A from-scratch Rust reproduction of the systems surveyed in
//! *"Data-driven Visual Query Interfaces for Graphs: Past, Present, and
//! (Near) Future"* (Bhowmick & Choi, SIGMOD 2022): data-driven
//! construction (CATAPULT for graph collections, TATTOO for large
//! networks, a modular DEXA-style pipeline) and maintenance (MIDAS) of
//! visual graph query interfaces, together with every substrate they
//! need and a simulated-user usability harness.
//!
//! This facade crate re-exports the whole workspace; depend on it to get
//! everything, or on the individual crates for narrower builds.
//!
//! ## Quickstart
//!
//! ```
//! use datadriven_vqi::prelude::*;
//!
//! // 1. a repository: 60 synthetic molecules (AIDS-like)
//! let graphs = datadriven_vqi::datasets::aids_like(MoleculeParams {
//!     count: 60,
//!     ..Default::default()
//! });
//! let repo = GraphRepository::collection(graphs);
//!
//! // 2. construct a data-driven VQI with CATAPULT under a display budget
//! let budget = PatternBudget::new(6, 4, 8);
//! let vqi = VisualQueryInterface::data_driven(&repo, &Catapult::default(), &budget);
//! assert!(vqi.pattern_set().canned().count() > 0);
//!
//! // 3. quality of the selected canned patterns
//! let report = datadriven_vqi::core::score::evaluate(
//!     vqi.pattern_set(),
//!     &repo,
//!     Default::default(),
//! );
//! assert!(report.coverage > 0.0);
//!
//! // 4. a simulated user formulates a query with and without patterns
//! let queries = datadriven_vqi::sim::workload::sample_queries(
//!     &repo,
//!     &Default::default(),
//! );
//! let stats = datadriven_vqi::sim::usability::evaluate_interface(
//!     &vqi,
//!     &queries,
//!     &ActionCosts::default(),
//! );
//! assert!(stats.mean_steps > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use aurora;
pub use catapult;
pub use midas;
pub use tattoo;
pub use vqi_core as core;
pub use vqi_datasets as datasets;
pub use vqi_graph as graph;
pub use vqi_mining as mining;
pub use vqi_modular as modular;
pub use vqi_observe as observe;
pub use vqi_sim as sim;
pub use vqi_timeseries as timeseries;

/// The most commonly used types, re-exported flat.
pub mod prelude {
    pub use aurora::{Aurora, AuroraConfig};
    pub use catapult::{Catapult, CatapultConfig};
    pub use midas::{Midas, MidasConfig, Modification};
    pub use tattoo::{Tattoo, TattooConfig};
    pub use vqi_core::{
        BatchUpdate, GraphRepository, Pattern, PatternBudget, PatternId, PatternKind,
        PatternSelector, PatternSet, VisualQueryInterface,
    };
    pub use vqi_datasets::{MoleculeParams, NetworkParams};
    pub use vqi_graph::{EdgeId, Graph, Label, NodeId, WILDCARD_LABEL};
    pub use vqi_modular::ModularPipeline;
    pub use vqi_sim::{ActionCosts, FormulationPlan};
}
