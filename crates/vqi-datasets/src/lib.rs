//! Synthetic datasets standing in for the proprietary corpora used by the
//! surveyed systems (substitutions documented in DESIGN.md §3).
//!
//! * [`molecules`] — AIDS/PubChem-style collections: many small sparse
//!   labeled graphs with fused ring systems and pendant chains, skewed
//!   atom/bond label distributions;
//! * [`networks`] — DBLP/Twitter-style large networks: heavy-tailed
//!   degree distributions (Barabási–Albert) with optional triangle
//!   reinforcement, plus Erdős–Rényi controls.
//!
//! All builders are deterministic given their seed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod molecules;
pub mod networks;

pub use molecules::{aids_like, pubchem_like, MoleculeParams};
pub use networks::{dblp_like, hub_network, social_like, NetworkParams};
