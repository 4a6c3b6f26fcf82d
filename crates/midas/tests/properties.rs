//! Property tests of MIDAS: the quality guarantee and state
//! consistency under random batch streams drawn from a seeded generator.

use midas::{Midas, MidasConfig, Modification};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use vqi_core::budget::PatternBudget;
use vqi_core::pattern::PatternSet;
use vqi_core::repo::{BatchUpdate, GraphCollection, GraphRepository};
use vqi_core::score::{evaluate, pattern_coverage};
use vqi_datasets::{aids_like, MoleculeParams};
use vqi_graph::generate as gen;
use vqi_graph::Graph;

const CASES: u64 = 6;

/// A random structural batch: mixes of cliques, stars, cycles with fresh
/// labels so the GFD can drift.
fn random_batch(rng: &mut SmallRng) -> Vec<Graph> {
    (0..rng.gen_range(3..15))
        .map(|_| {
            let (kind, size, label) = (
                rng.gen_range(0usize..3),
                rng.gen_range(4usize..7),
                rng.gen_range(3u32..7),
            );
            match kind {
                0 => gen::clique(size, label, 0),
                1 => gen::star(size, label, 0),
                _ => gen::cycle(size, label, 0),
            }
        })
        .collect()
}

/// After any stream of batches, (a) the maintained pattern set scores
/// at least as well as the stale set on the updated repository,
/// (b) every maintained pattern still occurs, and a minor modification
/// leaves the set untouched, and (c) internal state stays aligned.
#[test]
fn maintenance_guarantees() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(case);
        let seed = rng.gen_range(0u64..300);
        let batches: Vec<Vec<Graph>> = (0..rng.gen_range(1..3))
            .map(|_| random_batch(&mut rng))
            .collect();
        let remove_some = rng.gen_bool(0.5);
        let initial = aids_like(MoleculeParams {
            count: 25,
            seed,
            ..Default::default()
        });
        let budget = PatternBudget::new(4, 4, 6);
        let mut m = Midas::bootstrap(
            GraphCollection::new(initial),
            budget,
            MidasConfig::default(),
        );
        for (i, additions) in batches.into_iter().enumerate() {
            let stale = m.patterns.clone();
            let removals = if remove_some && i == 0 {
                vec![0, 1]
            } else {
                vec![]
            };
            let report = m.apply_update(BatchUpdate {
                additions,
                removals,
            });

            let repo = GraphRepository::Collection(m.collection.clone());
            let w = Default::default();
            let fresh_q = evaluate(&m.patterns, &repo, w);
            let stale_q = evaluate(&stale, &repo, w);
            assert!(
                fresh_q.score >= stale_q.score - 1e-9,
                "case {case} batch {i}: maintained {:.4} < stale {:.4}",
                fresh_q.score,
                stale_q.score
            );
            for p in m.patterns.patterns() {
                assert!(
                    pattern_coverage(&p.graph, &m.collection) > 0.0,
                    "case {case} batch {i}: maintained pattern occurs nowhere"
                );
            }
            if report.modification == Modification::Minor {
                let codes = |set: &PatternSet| -> Vec<_> {
                    set.patterns().iter().map(|p| p.code.clone()).collect()
                };
                assert_eq!(
                    codes(&m.patterns),
                    codes(&stale),
                    "case {case} batch {i}: a minor modification changed the set"
                );
            }
            assert!(m.cluster_count() > 0, "case {case} batch {i}");
        }
    }
}

/// A removal that leaves three of the four patterns occurring nowhere:
/// the swaps replace dead patterns with candidates similar to the live
/// one, so diversity counted over the dead patterns would drop. The
/// maintained set must still score at least as well as the stale one.
#[test]
fn quality_holds_when_a_removal_leaves_patterns_dead() {
    let initial = aids_like(MoleculeParams {
        count: 20,
        seed: 133,
        ..Default::default()
    });
    let mut m = Midas::bootstrap(
        GraphCollection::new(initial),
        PatternBudget::new(4, 4, 6),
        MidasConfig::default(),
    );
    let stale = m.patterns.clone();
    let report = m.apply_update(BatchUpdate::removing(vec![
        0, 2, 3, 4, 6, 7, 8, 10, 11, 12, 13, 15, 19,
    ]));
    assert!(report.swaps > 0);
    let dead = |p: &Graph| pattern_coverage(p, &m.collection) == 0.0;
    assert!(stale.graphs().filter(|p| dead(p)).count() > 1);
    let repo = GraphRepository::Collection(m.collection.clone());
    let w = Default::default();
    let fresh_q = evaluate(&m.patterns, &repo, w);
    let stale_q = evaluate(&stale, &repo, w);
    assert!(
        fresh_q.score >= stale_q.score - 1e-9,
        "maintained {:.4} < stale {:.4}",
        fresh_q.score,
        stale_q.score
    );
}
