//! Memoization of the MCS similarity kernel.
//!
//! The selection and maintenance loops call [`mcs::mcs_similarity`]
//! over and over on the same pattern pairs (every diversity term, every
//! greedy round). The measure is *isomorphism-invariant*, so results are
//! keyed by the unordered pair of [`CanonicalCode`]s instead of by graph
//! identity.
//!
//! Equal canonical codes imply isomorphic graphs even when a code is
//! truncated (truncation only weakens the *collision* guarantee), so a
//! hit never conflates distinct graphs. Bit-exact replay of an uncached
//! run additionally relies on the kernel being isomorphism-invariant,
//! which holds whenever the bounded searches run to completion — true
//! for all pattern-sized inputs in this workspace; a kernel stopped by
//! its state budget could in principle return different bounds for
//! differently-ordered isomorphic inputs.
//!
//! Pattern-in-graph containment is deliberately *not* memoized: a hit
//! clones the code key, hashes it, takes a shard lock and updates the
//! FIFO, which costs more than the match itself once the pattern is
//! compiled into an [`iso::PatternPlan`](crate::iso::PatternPlan).
//!
//! The memo is sharded (16 ways) and capacity-bounded with FIFO
//! eviction; each entry's key is stored once, shared by the map and the
//! FIFO through one `Arc`. It is instrumented: counters `cache.mcs.hit`,
//! `cache.mcs.miss`, and `cache.mcs.evict` land in the `vqi-observe`
//! registry when metrics are enabled. Values are computed *outside* the
//! shard lock, so a race can at worst duplicate a computation, never
//! block other shards on it.

use crate::canon::CanonicalCode;
use crate::graph::Graph;
use crate::mcs;
use std::collections::{HashMap, VecDeque};
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

const SHARDS: usize = 16;

/// A sharded, capacity-bounded memo table for one kernel.
pub struct Memo<K, V> {
    shards: Vec<Mutex<Shard<K, V>>>,
    shard_capacity: usize,
    hit_name: String,
    miss_name: String,
    evict_name: String,
}

struct Shard<K, V> {
    map: HashMap<Arc<K>, V>,
    /// Insertion order for FIFO eviction; shares each key with `map`.
    order: VecDeque<Arc<K>>,
}

impl<K: Eq + Hash, V: Clone> Memo<K, V> {
    /// A memo named `kernel` (for metrics) holding at most `capacity`
    /// entries across all shards.
    pub fn new(kernel: &str, capacity: usize) -> Self {
        Memo {
            shards: (0..SHARDS)
                .map(|_| {
                    Mutex::new(Shard {
                        map: HashMap::new(),
                        order: VecDeque::new(),
                    })
                })
                .collect(),
            shard_capacity: (capacity / SHARDS).max(1),
            hit_name: format!("cache.{kernel}.hit"),
            miss_name: format!("cache.{kernel}.miss"),
            evict_name: format!("cache.{kernel}.evict"),
        }
    }

    fn shard_of(&self, key: &K) -> &Mutex<Shard<K, V>> {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        key.hash(&mut h);
        &self.shards[(h.finish() as usize) % SHARDS]
    }

    /// Returns the memoized value for `key`, if any, counting a hit or a
    /// miss.
    pub fn get(&self, key: &K) -> Option<V> {
        let shard = self.shard_of(key);
        let guard = shard.lock().unwrap_or_else(PoisonError::into_inner);
        match guard.map.get(key) {
            Some(v) => {
                vqi_observe::incr(&self.hit_name, 1);
                Some(v.clone())
            }
            None => {
                vqi_observe::incr(&self.miss_name, 1);
                None
            }
        }
    }

    /// Stores `value` under `key` (first writer wins), evicting the
    /// oldest entry of a full shard.
    pub fn insert(&self, key: K, value: V) {
        let shard = self.shard_of(&key);
        let mut guard = shard.lock().unwrap_or_else(PoisonError::into_inner);
        if !guard.map.contains_key(&key) {
            if guard.map.len() >= self.shard_capacity {
                if let Some(oldest) = guard.order.pop_front() {
                    guard.map.remove(&oldest);
                    vqi_observe::incr(&self.evict_name, 1);
                }
            }
            let key = Arc::new(key);
            guard.order.push_back(Arc::clone(&key));
            guard.map.insert(key, value);
        }
    }

    /// Returns the memoized value for `key`, computing and storing it on
    /// a miss. `compute` runs outside the shard lock.
    pub fn get_or_insert_with(&self, key: K, compute: impl FnOnce() -> V) -> V {
        if let Some(v) = self.get(&key) {
            return v;
        }
        let value = compute();
        self.insert(key, value.clone());
        value
    }

    /// Drops every entry.
    pub fn clear(&self) {
        for shard in &self.shards {
            let mut guard = shard.lock().unwrap_or_else(PoisonError::into_inner);
            guard.map.clear();
            guard.order.clear();
        }
    }

    /// Current number of entries across all shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().unwrap_or_else(PoisonError::into_inner).map.len())
            .sum()
    }

    /// True if no entries are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The process-wide kernel memo.
pub struct GraphKernelCache {
    /// MCS similarity keyed by the unordered canonical-code pair.
    pub mcs: Memo<(CanonicalCode, CanonicalCode), f64>,
}

/// The global kernel cache.
pub fn global() -> &'static GraphKernelCache {
    static CACHE: OnceLock<GraphKernelCache> = OnceLock::new();
    CACHE.get_or_init(|| GraphKernelCache {
        mcs: Memo::new("mcs", 1 << 16),
    })
}

/// Clears the kernel memo.
pub fn clear() {
    global().mcs.clear();
}
/// Memoized [`mcs::mcs_similarity`]. Callers pass the canonical codes
/// they already hold; the key is the unordered code pair (the measure is
/// symmetric).
pub fn mcs_similarity_cached(
    a: &Graph,
    code_a: &CanonicalCode,
    b: &Graph,
    code_b: &CanonicalCode,
) -> f64 {
    let key = if code_a <= code_b {
        (code_a.clone(), code_b.clone())
    } else {
        (code_b.clone(), code_a.clone())
    };
    global()
        .mcs
        .get_or_insert_with(key, || mcs::mcs_similarity(a, b))
}

/// [`mcs_similarity_cached`] with a [`mcs::mcs_similarity_bounded`]
/// usefulness threshold. A cache hit returns the memoized **exact**
/// value (which may legitimately be below `min_useful` — the fold
/// `max(m, ·)` is unaffected). On a miss the bounded kernel runs, and
/// the result is stored **only when it is exact**: a bound-skipped value
/// never poisons the memo, so every cached entry stays an exact
/// similarity. Bound-skips are tracked separately by the
/// `kernel.mcs.skip_fingerprint` / `kernel.mcs.pruned` counters.
pub fn mcs_similarity_cached_bounded(
    a: &Graph,
    code_a: &CanonicalCode,
    b: &Graph,
    code_b: &CanonicalCode,
    min_useful: f64,
) -> f64 {
    let key = if code_a <= code_b {
        (code_a.clone(), code_b.clone())
    } else {
        (code_b.clone(), code_a.clone())
    };
    if let Some(v) = global().mcs.get(&key) {
        return v;
    }
    let (value, exact) = mcs::mcs_similarity_bounded_detail(a, b, min_useful);
    if exact {
        global().mcs.insert(key, value);
    }
    value
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::canon::canonical_code;
    use crate::generate::{assign_labels, chain, clique, cycle, erdos_renyi, star};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn random_graph(n: usize, p: f64, node_labels: u32, edge_labels: u32, seed: u64) -> Graph {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut g = erdos_renyi(n, p, 0, &mut rng);
        assign_labels(&mut g, node_labels, edge_labels, &mut rng);
        g
    }

    #[test]
    fn memo_returns_computed_value_and_hits_after_miss() {
        let memo: Memo<u64, u64> = Memo::new("test_roundtrip", 64);
        let mut computes = 0;
        let v = memo.get_or_insert_with(7, || {
            computes += 1;
            7 * 3
        });
        assert_eq!(v, 21);
        let v2 = memo.get_or_insert_with(7, || {
            computes += 1;
            0 // would be wrong; must not be called
        });
        assert_eq!(v2, 21);
        assert_eq!(computes, 1);
    }

    #[test]
    fn eviction_bounds_capacity_and_stays_correct() {
        // capacity 16 across 16 shards = 1 entry per shard
        let memo: Memo<u64, u64> = Memo::new("test_evict", 16);
        for k in 0..200u64 {
            assert_eq!(memo.get_or_insert_with(k, || k * 2), k * 2);
        }
        assert!(memo.len() <= 16, "memo grew past capacity: {}", memo.len());
        // evicted keys recompute to the same value
        for k in 0..200u64 {
            assert_eq!(memo.get_or_insert_with(k, || k * 2), k * 2);
        }
    }

    #[test]
    fn memoized_mcs_equals_direct() {
        let graphs: Vec<Graph> = (0..6u64)
            .map(|i| random_graph(4 + (i as usize) % 3, 0.5, 2, 1, 99 + i))
            .chain([
                chain(4, 1, 0),
                cycle(5, 2, 0),
                star(4, 3, 0),
                clique(4, 1, 0),
            ])
            .collect();
        let codes: Vec<CanonicalCode> = graphs.iter().map(canonical_code).collect();
        for i in 0..graphs.len() {
            for j in 0..graphs.len() {
                let direct = mcs::mcs_similarity(&graphs[i], &graphs[j]);
                // both the miss and the subsequent hit must agree
                for _ in 0..2 {
                    let cached =
                        mcs_similarity_cached(&graphs[i], &codes[i], &graphs[j], &codes[j]);
                    assert_eq!(cached, direct, "pair ({i}, {j})");
                }
            }
        }
    }

    #[test]
    fn bounded_cached_folds_identically_and_keeps_entries_exact() {
        // a pair (unique labels: untouched by other tests) where the
        // bound-skipped return value (0.6) differs from the exact
        // similarity (0.4): a poisoned memo entry would be visible
        let a = star(4, 23, 0); // 4 edges
        let b = cycle(5, 23, 0); // 5 edges; MCS = 2-edge path
        let (ca, cb) = (canonical_code(&a), canonical_code(&b));
        let exact_ab = mcs::mcs_similarity(&a, &b);
        let skipped = mcs_similarity_cached_bounded(&a, &ca, &b, &cb, 0.6);
        assert!(skipped <= 0.6);
        assert_ne!(
            skipped, exact_ab,
            "pair no longer distinguishes skip from exact"
        );
        assert_eq!(
            mcs_similarity_cached(&a, &ca, &b, &cb),
            exact_ab,
            "bound-skipped value leaked into the memo"
        );
        let graphs: Vec<Graph> = (0..6u64)
            .map(|i| random_graph(5 + (i as usize) % 3, 0.5, 2, 1, 700 + i))
            .chain([chain(4, 1, 0), cycle(5, 2, 0), star(4, 3, 0)])
            .collect();
        let codes: Vec<CanonicalCode> = graphs.iter().map(canonical_code).collect();
        for i in 0..graphs.len() {
            for j in 0..graphs.len() {
                let exact = mcs::mcs_similarity(&graphs[i], &graphs[j]);
                for m in [0.0, 0.3, exact, 0.95] {
                    let bounded = mcs_similarity_cached_bounded(
                        &graphs[i], &codes[i], &graphs[j], &codes[j], m,
                    );
                    assert_eq!(f64::max(m, bounded), f64::max(m, exact), "({i},{j}) m={m}");
                }
                // whatever the bounded calls did above, the exact entry
                // point must still see the exact value: a bound-skip
                // never poisons the memo
                assert_eq!(
                    mcs_similarity_cached(&graphs[i], &codes[i], &graphs[j], &codes[j]),
                    exact,
                    "cache poisoned for pair ({i},{j})"
                );
            }
        }
    }
}
