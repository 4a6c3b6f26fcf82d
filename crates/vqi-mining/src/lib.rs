//! Graph-mining substrate for data-driven VQI construction.
//!
//! CATAPULT and MIDAS need four mining capabilities, all implemented here
//! from scratch:
//!
//! * [`fst`] — frequent subtree mining over a collection of data graphs
//!   (pattern growth read off the parents' embeddings, with
//!   canonical-code deduplication);
//! * [`fct`] — frequent *closed* trees, the feature language MIDAS swaps
//!   in for efficient maintenance, with incremental updates under batch
//!   insertions/deletions;
//! * [`fsg`] — frequent *subgraph* mining (pattern growth with cycle
//!   closure, beam-bounded), the substrate of AURORA-style selection;
//! * [`features`] + [`similarity`] — sparse feature vectors over mined
//!   trees and the similarity measures built on them;
//! * [`cluster`] — k-medoids and leader clustering of graphs by feature
//!   similarity;
//! * [`closure`] — graph closure and *cluster summary graphs* (CSGs): a
//!   single wildcard-labeled graph in which every graph of a cluster
//!   embeds, the structure CATAPULT draws candidate patterns from.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod closure;
pub mod cluster;
pub mod fct;
pub mod features;
pub mod fsg;
pub mod fst;
pub mod similarity;
