//! Patterns and deduplicated pattern sets.
//!
//! A *pattern* is a small connected labeled graph displayed in the
//! Pattern Panel. *Basic* (default) patterns are the generic topologies
//! of size at most `z` (edge, 2-path, triangle — the tutorial uses
//! `z ≤ 3`) that any user recognizes; *canned* patterns are larger
//! subgraphs mined from the repository that reveal structure unique to
//! the data source. Pattern sets deduplicate by canonical code, so no two
//! isomorphic patterns ever reach the panel.

use vqi_graph::canon::{canonical_code, CanonicalCode};
use vqi_graph::graph::WILDCARD_LABEL;
use vqi_graph::traversal::is_connected;
use vqi_graph::Graph;

/// Identifier of a pattern within a [`PatternSet`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PatternId(pub u32);

/// Whether a pattern is a generic default or mined from the data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PatternKind {
    /// Small generic topology (size ≤ z) shipped with every VQI.
    Basic,
    /// Data-driven pattern selected from the repository.
    Canned,
}

/// A pattern: a small connected labeled graph plus bookkeeping.
#[derive(Debug, Clone, PartialEq)]
pub struct Pattern {
    /// Identifier within its set.
    pub id: PatternId,
    /// The pattern graph.
    pub graph: Graph,
    /// Canonical code (isomorphism dedup key).
    pub code: CanonicalCode,
    /// Basic vs canned.
    pub kind: PatternKind,
    /// Where the pattern came from ("csg:3", "truss:star", …).
    pub provenance: String,
}

impl Pattern {
    /// Number of nodes.
    pub fn size(&self) -> usize {
        self.graph.node_count()
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.graph.edge_count()
    }
}

/// Errors from inserting a pattern.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PatternError {
    /// An isomorphic pattern is already present.
    Duplicate,
    /// The pattern graph is not connected (or is empty).
    NotConnected,
}

impl std::fmt::Display for PatternError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PatternError::Duplicate => write!(f, "isomorphic pattern already in set"),
            PatternError::NotConnected => write!(f, "pattern must be a non-empty connected graph"),
        }
    }
}

impl std::error::Error for PatternError {}

/// An ordered, isomorphism-deduplicated set of patterns.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PatternSet {
    patterns: Vec<Pattern>,
    codes: std::collections::HashSet<CanonicalCode>,
}

impl PatternSet {
    /// Empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts a pattern graph; rejects disconnected/empty graphs and
    /// isomorphic duplicates. Returns the assigned id.
    pub fn insert(
        &mut self,
        graph: Graph,
        kind: PatternKind,
        provenance: impl Into<String>,
    ) -> Result<PatternId, PatternError> {
        if graph.node_count() == 0 || !is_connected(&graph) {
            return Err(PatternError::NotConnected);
        }
        let code = canonical_code(&graph);
        if !self.codes.insert(code.clone()) {
            return Err(PatternError::Duplicate);
        }
        let id = PatternId(self.patterns.len() as u32);
        self.patterns.push(Pattern {
            id,
            graph,
            code,
            kind,
            provenance: provenance.into(),
        });
        Ok(id)
    }

    /// True if an isomorphic pattern is present.
    pub fn contains_isomorphic(&self, graph: &Graph) -> bool {
        self.codes.contains(&canonical_code(graph))
    }

    /// Replaces the pattern at `index` with `graph` (used by MIDAS's
    /// swapping strategy). Fails if the replacement is a duplicate of any
    /// *other* pattern or is disconnected.
    pub fn replace(
        &mut self,
        index: usize,
        graph: Graph,
        provenance: impl Into<String>,
    ) -> Result<(), PatternError> {
        if graph.node_count() == 0 || !is_connected(&graph) {
            return Err(PatternError::NotConnected);
        }
        let code = canonical_code(&graph);
        let old_code = self.patterns[index].code.clone();
        if code != old_code && self.codes.contains(&code) {
            return Err(PatternError::Duplicate);
        }
        self.codes.remove(&old_code);
        self.codes.insert(code.clone());
        let p = &mut self.patterns[index];
        p.graph = graph;
        p.code = code;
        p.kind = PatternKind::Canned;
        p.provenance = provenance.into();
        Ok(())
    }

    /// All patterns in insertion order.
    pub fn patterns(&self) -> &[Pattern] {
        &self.patterns
    }

    /// Number of patterns.
    pub fn len(&self) -> usize {
        self.patterns.len()
    }

    /// True if no patterns are present.
    pub fn is_empty(&self) -> bool {
        self.patterns.is_empty()
    }

    /// Only the canned patterns.
    pub fn canned(&self) -> impl Iterator<Item = &Pattern> {
        self.patterns
            .iter()
            .filter(|p| p.kind == PatternKind::Canned)
    }

    /// Only the basic patterns.
    pub fn basic(&self) -> impl Iterator<Item = &Pattern> {
        self.patterns
            .iter()
            .filter(|p| p.kind == PatternKind::Basic)
    }

    /// Iterates over the pattern graphs.
    pub fn graphs(&self) -> impl Iterator<Item = &Graph> {
        self.patterns.iter().map(|p| &p.graph)
    }
}

/// The default basic pattern set: a single edge, a 2-path, and a
/// triangle, all wildcard-labeled so they apply to any repository
/// (`z = 3` per the tutorial).
pub fn default_basic_patterns() -> PatternSet {
    let mut set = PatternSet::new();
    let w = WILDCARD_LABEL;
    set.insert(
        vqi_graph::generate::chain(2, w, w),
        PatternKind::Basic,
        "basic:edge",
    )
    .expect("edge inserts");
    set.insert(
        vqi_graph::generate::chain(3, w, w),
        PatternKind::Basic,
        "basic:2-path",
    )
    .expect("2-path inserts");
    set.insert(
        vqi_graph::generate::cycle(3, w, w),
        PatternKind::Basic,
        "basic:triangle",
    )
    .expect("triangle inserts");
    set
}

#[cfg(test)]
mod tests {
    use super::*;
    use vqi_graph::generate::{chain, cycle, star};

    #[test]
    fn insert_and_dedup() {
        let mut set = PatternSet::new();
        let id = set
            .insert(cycle(4, 1, 0), PatternKind::Canned, "test")
            .unwrap();
        assert_eq!(id, PatternId(0));
        // an isomorphic copy (relabeled node ids) is rejected
        let copy = cycle(4, 1, 0).permuted(&[2, 3, 0, 1]);
        assert_eq!(
            set.insert(copy, PatternKind::Canned, "test"),
            Err(PatternError::Duplicate)
        );
        assert_eq!(set.len(), 1);
    }

    #[test]
    fn rejects_disconnected_and_empty() {
        let mut set = PatternSet::new();
        assert_eq!(
            set.insert(Graph::new(), PatternKind::Canned, "t"),
            Err(PatternError::NotConnected)
        );
        let mut g = Graph::new();
        g.add_node(0);
        g.add_node(1);
        assert_eq!(
            set.insert(g, PatternKind::Canned, "t"),
            Err(PatternError::NotConnected)
        );
    }

    #[test]
    fn contains_isomorphic_checks_codes() {
        let mut set = PatternSet::new();
        set.insert(star(3, 1, 0), PatternKind::Canned, "t").unwrap();
        assert!(set.contains_isomorphic(&star(3, 1, 0)));
        assert!(!set.contains_isomorphic(&star(4, 1, 0)));
    }

    #[test]
    fn replace_swaps_pattern() {
        let mut set = PatternSet::new();
        set.insert(chain(3, 1, 0), PatternKind::Canned, "old")
            .unwrap();
        set.insert(cycle(3, 1, 0), PatternKind::Canned, "keep")
            .unwrap();
        set.replace(0, star(3, 1, 0), "new").unwrap();
        assert!(set.contains_isomorphic(&star(3, 1, 0)));
        assert!(!set.contains_isomorphic(&chain(3, 1, 0)));
        // replacing with a duplicate of another member fails
        assert_eq!(
            set.replace(0, cycle(3, 1, 0), "dup"),
            Err(PatternError::Duplicate)
        );
        // replacing a pattern with itself is allowed
        set.replace(0, star(3, 1, 0), "same").unwrap();
    }

    #[test]
    fn kind_filters() {
        let mut set = default_basic_patterns();
        set.insert(star(4, 1, 0), PatternKind::Canned, "t").unwrap();
        assert_eq!(set.basic().count(), 3);
        assert_eq!(set.canned().count(), 1);
        assert_eq!(set.len(), 4);
    }

    #[test]
    fn default_basic_patterns_are_z3() {
        let set = default_basic_patterns();
        assert_eq!(set.len(), 3);
        for p in set.patterns() {
            assert!(p.size() <= 3, "basic patterns have size ≤ z = 3");
            assert_eq!(p.kind, PatternKind::Basic);
        }
    }
}
