//! Feature vectors for data graphs over a mined tree vocabulary.
//!
//! CATAPULT represents each data graph as a vector indexed by frequent
//! subtrees (MIDAS: frequent *closed* trees); entry `i` is 1 if feature
//! tree `i` occurs in the graph, optionally weighted by the feature's
//! rarity (an IDF-style weight) so that ubiquitous trees contribute less
//! to similarity than discriminative ones.

use vqi_graph::iso::{MatchOptions, PatternPlan};
use vqi_graph::Graph;

/// A feature extractor over a fixed tree vocabulary.
#[derive(Debug, Clone)]
pub struct FeatureSpace {
    /// The vocabulary trees, in a fixed order.
    trees: Vec<Graph>,
    /// Per-feature weight (1.0 = unweighted binary features).
    weights: Vec<f64>,
}

impl FeatureSpace {
    /// Builds an unweighted feature space from vocabulary trees.
    pub fn new(trees: Vec<Graph>) -> Self {
        let weights = vec![1.0; trees.len()];
        FeatureSpace { trees, weights }
    }

    /// Builds an IDF-weighted feature space: feature `i` occurring in
    /// `df_i` of `n` graphs gets weight `ln(1 + n / df_i)`.
    pub fn with_idf(trees: Vec<Graph>, document_frequencies: &[usize], n_graphs: usize) -> Self {
        assert_eq!(trees.len(), document_frequencies.len());
        let weights = document_frequencies
            .iter()
            .map(|&df| {
                if df == 0 {
                    0.0
                } else {
                    (1.0 + n_graphs as f64 / df as f64).ln()
                }
            })
            .collect();
        FeatureSpace { trees, weights }
    }

    /// Number of features.
    pub fn len(&self) -> usize {
        self.trees.len()
    }

    /// True if the vocabulary is empty.
    pub fn is_empty(&self) -> bool {
        self.trees.is_empty()
    }

    /// The vocabulary trees.
    pub fn trees(&self) -> &[Graph] {
        &self.trees
    }

    /// The feature vector of `g`: `weight_i` where feature `i` occurs,
    /// else 0.
    pub fn vector(&self, g: &Graph) -> Vec<f64> {
        self.vector_with(&self.plans(), g)
    }

    /// Feature vectors for a whole collection (parallelized), compiling
    /// each vocabulary tree once.
    pub fn vectors(&self, graphs: &[Graph]) -> Vec<Vec<f64>> {
        let plans = self.plans();
        vqi_graph::par::map(graphs, |g| self.vector_with(&plans, g))
    }

    /// Feature vectors of graphs `0..n_graphs` read off each feature's
    /// support set (the ascending positions of the graphs it occurs
    /// in), with no matching: given exact support sets, bit for bit
    /// what [`vectors`](Self::vectors) computes.
    pub fn vectors_from_support_sets(
        &self,
        support_sets: &[Vec<usize>],
        n_graphs: usize,
    ) -> Vec<Vec<f64>> {
        let mut out = vec![vec![0.0; self.len()]; n_graphs];
        for (col, (support, &w)) in support_sets.iter().zip(&self.weights).enumerate() {
            for &gi in support {
                out[gi][col] = w;
            }
        }
        out
    }

    fn plans(&self) -> Vec<PatternPlan<'_>> {
        self.trees.iter().map(PatternPlan::new).collect()
    }

    fn vector_with(&self, plans: &[PatternPlan], g: &Graph) -> Vec<f64> {
        plans
            .iter()
            .zip(&self.weights)
            .map(|(plan, &w)| {
                if plan.is_subgraph_of(g, None, MatchOptions::default()) {
                    w
                } else {
                    0.0
                }
            })
            .collect()
    }
}

/// Cosine similarity of two vectors; 0 when either is all-zero.
pub fn cosine_similarity(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len());
    let dot: f64 = a.iter().zip(b).map(|(x, y)| x * y).sum();
    let na: f64 = a.iter().map(|x| x * x).sum::<f64>().sqrt();
    let nb: f64 = b.iter().map(|x| x * x).sum::<f64>().sqrt();
    if na == 0.0 || nb == 0.0 {
        0.0
    } else {
        dot / (na * nb)
    }
}

/// Cosine distance `1 - cosine_similarity`, clamped to `[0, 1]`.
pub fn cosine_distance(a: &[f64], b: &[f64]) -> f64 {
    (1.0 - cosine_similarity(a, b)).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vqi_graph::generate::{chain, clique, star};

    fn space() -> FeatureSpace {
        FeatureSpace::new(vec![chain(2, 1, 0), chain(3, 1, 0), star(3, 1, 0)])
    }

    #[test]
    fn vector_marks_occurrences() {
        let fs = space();
        let v = fs.vector(&chain(4, 1, 0));
        assert_eq!(v, vec![1.0, 1.0, 0.0]);
        let w = fs.vector(&star(4, 1, 0));
        assert_eq!(w, vec![1.0, 1.0, 1.0]);
        let z = fs.vector(&clique(3, 9, 0)); // wrong labels
        assert_eq!(z, vec![0.0, 0.0, 0.0]);
    }

    #[test]
    fn idf_downweights_common_features() {
        let trees = vec![chain(2, 1, 0), star(3, 1, 0)];
        let fs = FeatureSpace::with_idf(trees, &[10, 2], 10);
        let v = fs.vector(&star(3, 1, 0));
        assert!(v[1] > v[0], "rare feature should weigh more: {v:?}");
    }

    #[test]
    fn cosine_basics() {
        assert!((cosine_similarity(&[1.0, 0.0], &[1.0, 0.0]) - 1.0).abs() < 1e-12);
        assert_eq!(cosine_similarity(&[1.0, 0.0], &[0.0, 1.0]), 0.0);
        assert_eq!(cosine_similarity(&[0.0, 0.0], &[1.0, 1.0]), 0.0);
        let d = cosine_distance(&[1.0, 1.0], &[1.0, 1.0]);
        assert!(d.abs() < 1e-12);
    }

    #[test]
    fn vectors_parallel_matches_serial() {
        let fs = space();
        let graphs = vec![chain(4, 1, 0), star(4, 1, 0), clique(3, 1, 0)];
        let par = fs.vectors(&graphs);
        let ser: Vec<Vec<f64>> = graphs.iter().map(|g| fs.vector(g)).collect();
        assert_eq!(par, ser);
    }

    #[test]
    fn vectors_from_support_sets_equal_matched_vectors() {
        let trees = vec![chain(2, 1, 0), chain(3, 1, 0), star(3, 1, 0)];
        let graphs = vec![chain(4, 1, 0), star(4, 1, 0), clique(3, 9, 0)];
        let supports: Vec<Vec<usize>> = trees
            .iter()
            .map(|t| {
                (0..graphs.len())
                    .filter(|&gi| {
                        PatternPlan::new(t).is_subgraph_of(
                            &graphs[gi],
                            None,
                            MatchOptions::default(),
                        )
                    })
                    .collect()
            })
            .collect();
        let dfs: Vec<usize> = supports.iter().map(Vec::len).collect();
        let fs = FeatureSpace::with_idf(trees, &dfs, graphs.len());
        let read = fs.vectors_from_support_sets(&supports, graphs.len());
        assert_eq!(read, fs.vectors(&graphs));
    }

    #[test]
    fn empty_space() {
        let fs = FeatureSpace::new(vec![]);
        assert!(fs.is_empty());
        assert!(fs.vector(&chain(3, 1, 0)).is_empty());
    }
}
