//! Deterministic closed-loop load generator.
//!
//! One thread per session replays a seeded mix of `select` / `query` /
//! `update` requests against a shared [`VqiService`]. The *workload* is
//! a pure function of [`LoadParams`] (per-session RNG streams); the
//! *interleaving* is whatever the scheduler produces — which is the
//! point: with `verify_isolation` on, every completed selection is
//! re-derived from scratch on the exact snapshot the service pinned and
//! must match bit for bit, no matter how the race unfolded.

use crate::service::{pattern_codes, reference_select, SelectorKind, ServeError, VqiService};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;
use vqi_core::budget::PatternBudget;
use vqi_core::repo::BatchUpdate;
use vqi_graph::Graph;

/// Workload description.
#[derive(Debug, Clone)]
pub struct LoadParams {
    /// Concurrent sessions (threads).
    pub sessions: usize,
    /// Requests each session issues.
    pub requests_per_session: usize,
    /// Session 0 issues an update every this-many requests (0 = never).
    pub update_every: usize,
    /// Selector used by `select` requests.
    pub selector: SelectorKind,
    /// Budget of `select` requests.
    pub select_budget: PatternBudget,
    /// Per-request deadline (None = service default).
    pub deadline_ms: Option<u64>,
    /// Per-graph embedding cap of `query` requests.
    pub query_cap: usize,
    /// Workload RNG seed.
    pub seed: u64,
    /// Query pool (drawn uniformly; empty skips queries).
    pub queries: Vec<Graph>,
    /// Update pool (cycled in order; empty skips updates).
    pub batches: Vec<BatchUpdate>,
    /// Re-derive every completed selection on its pinned snapshot and
    /// assert bit-identity (expensive; race tests only).
    pub verify_isolation: bool,
}

impl Default for LoadParams {
    fn default() -> Self {
        LoadParams {
            sessions: 2,
            requests_per_session: 10,
            update_every: 0,
            selector: SelectorKind::Catapult,
            select_budget: PatternBudget::new(4, 3, 6),
            deadline_ms: None,
            query_cap: 100,
            seed: 0x5EED,
            queries: Vec::new(),
            batches: Vec::new(),
            verify_isolation: false,
        }
    }
}

/// Latency/outcome tallies of one endpoint.
#[derive(Debug, Clone, Default)]
pub struct EndpointStats {
    /// Requests answered (degraded included).
    pub count: usize,
    /// Requests answered `Degraded`.
    pub degraded: usize,
    /// Requests rejected with overload.
    pub rejected: usize,
    /// Per-request wall latencies, microseconds, arrival order.
    pub latencies_us: Vec<u64>,
}

impl EndpointStats {
    fn absorb(&mut self, other: &EndpointStats) {
        self.count += other.count;
        self.degraded += other.degraded;
        self.rejected += other.rejected;
        self.latencies_us.extend_from_slice(&other.latencies_us);
    }

    fn percentile(&self, pct: u32) -> u64 {
        if self.latencies_us.is_empty() {
            return 0;
        }
        let mut sorted = self.latencies_us.clone();
        sorted.sort_unstable();
        let idx = (sorted.len() - 1) * pct as usize / 100;
        sorted[idx]
    }

    /// Median latency in microseconds (0 when empty).
    pub fn p50_us(&self) -> u64 {
        self.percentile(50)
    }

    /// 99th-percentile latency in microseconds (0 when empty).
    pub fn p99_us(&self) -> u64 {
        self.percentile(99)
    }
}

/// Aggregated result of a load run.
#[derive(Debug, Clone, Default)]
pub struct LoadReport {
    /// `select` endpoint tallies.
    pub select: EndpointStats,
    /// `query` endpoint tallies.
    pub query: EndpointStats,
    /// `update` endpoint tallies.
    pub update: EndpointStats,
    /// Selections answered from the content-addressed cache.
    pub cache_hits: usize,
    /// Selections computed fresh.
    pub cache_misses: usize,
    /// Snapshot-isolation equality asserts that ran (and passed).
    pub isolation_checks: usize,
    /// Epoch after the run.
    pub final_epoch: u64,
}

impl LoadReport {
    /// Total requests answered across endpoints.
    pub fn total_requests(&self) -> usize {
        self.select.count + self.query.count + self.update.count
    }

    /// Cache hit rate over all completed selections (0.0 when none).
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }
}

fn mix(seed: u64, stream: u64) -> u64 {
    // the splitmix64 finalizer decorrelates per-session streams
    rand::splitmix64(seed ^ stream.wrapping_mul(rand::SPLITMIX64_GAMMA))
}

/// Drives `params.sessions` concurrent session threads against
/// `service` and aggregates their tallies. Panics (failing the caller's
/// test) if any isolation assert trips.
pub fn run_load(service: &VqiService, params: &LoadParams) -> LoadReport {
    let session_reports: Vec<LoadReport> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..params.sessions)
            .map(|s| scope.spawn(move || run_session(service, params, s)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("session thread panicked"))
            .collect()
    });
    let mut report = LoadReport::default();
    for r in &session_reports {
        report.select.absorb(&r.select);
        report.query.absorb(&r.query);
        report.update.absorb(&r.update);
        report.cache_hits += r.cache_hits;
        report.cache_misses += r.cache_misses;
        report.isolation_checks += r.isolation_checks;
    }
    report.final_epoch = service.store().epoch();
    // close the run with a memory sample: the serve smoke tests report
    // `mem.rss_kb` / `mem.peak_rss_kb` alongside the latency tallies
    vqi_observe::mem::record_rss();
    report
}

fn run_session(service: &VqiService, params: &LoadParams, s: usize) -> LoadReport {
    let mut rng = SmallRng::seed_from_u64(mix(params.seed, s as u64));
    let mut report = LoadReport::default();
    let session = s as u64;
    for i in 0..params.requests_per_session {
        let is_update = params.update_every > 0
            && s == 0
            && !params.batches.is_empty()
            && i % params.update_every == params.update_every - 1;
        if is_update {
            let batch = params.batches[(i / params.update_every) % params.batches.len()].clone();
            let start = Instant::now();
            match service.update(session, batch, params.deadline_ms) {
                Ok(resp) => {
                    report.update.count += 1;
                    if !resp.outcome.completeness.is_complete() {
                        report.update.degraded += 1;
                    }
                }
                Err(ServeError::Overloaded { .. }) => report.update.rejected += 1,
                Err(e) => panic!("update failed: {e}"),
            }
            report
                .update
                .latencies_us
                .push(start.elapsed().as_micros() as u64);
        } else if params.queries.is_empty() || rng.gen_bool(0.5) {
            let start = Instant::now();
            match service.select(
                session,
                &params.selector,
                &params.select_budget,
                params.deadline_ms,
            ) {
                Ok(resp) => {
                    report.select.count += 1;
                    let complete = resp.outcome.completeness.is_complete();
                    if !complete {
                        report.select.degraded += 1;
                    } else if resp.cached {
                        report.cache_hits += 1;
                    } else {
                        report.cache_misses += 1;
                    }
                    if params.verify_isolation && complete {
                        // the invariant: what the service answered is
                        // exactly what a from-scratch run on the pinned
                        // snapshot selects, no matter what the updater
                        // was doing meanwhile
                        let fresh = reference_select(
                            resp.snapshot.collection(),
                            &params.selector,
                            &params.select_budget,
                        );
                        assert_eq!(
                            pattern_codes(&resp.outcome.value),
                            pattern_codes(&fresh),
                            "snapshot-isolation violation at epoch {}",
                            resp.snapshot.epoch()
                        );
                        report.isolation_checks += 1;
                    }
                }
                Err(ServeError::Overloaded { .. }) => report.select.rejected += 1,
                Err(e) => panic!("select failed: {e}"),
            }
            report
                .select
                .latencies_us
                .push(start.elapsed().as_micros() as u64);
        } else {
            let q = &params.queries[rng.gen_range(0..params.queries.len())];
            let start = Instant::now();
            match service.query(session, q, params.query_cap, params.deadline_ms) {
                Ok(resp) => {
                    report.query.count += 1;
                    if !resp.outcome.completeness.is_complete() {
                        report.query.degraded += 1;
                    }
                }
                Err(ServeError::Overloaded { .. }) => report.query.rejected += 1,
                Err(e) => panic!("query failed: {e}"),
            }
            report
                .query
                .latencies_us
                .push(start.elapsed().as_micros() as u64);
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::{MaintenanceMode, ServeConfig, VqiService};
    use vqi_core::repo::GraphCollection;
    use vqi_datasets::{aids_like, MoleculeParams};
    use vqi_graph::generate::{chain, cycle, star};

    fn molecules(count: usize, seed: u64) -> Vec<Graph> {
        aids_like(MoleculeParams {
            count,
            seed,
            max_rings: 1,
            max_chains: 2,
            max_chain_len: 2,
        })
    }

    fn small_service() -> VqiService {
        VqiService::new(
            GraphCollection::new(molecules(12, 5)),
            ServeConfig {
                cache_capacity: 8,
                maintenance: MaintenanceMode::ApplyOnly,
                ..Default::default()
            },
        )
    }

    #[test]
    fn static_load_hits_the_cache_after_warmup() {
        let service = small_service();
        let params = LoadParams {
            sessions: 3,
            requests_per_session: 6,
            queries: vec![chain(3, 0, 0), cycle(4, 0, 0)],
            ..Default::default()
        };
        // warm the single entry synchronously: concurrent first arrivals
        // may each compute cold (first-writer-wins, still bit-identical),
        // so the deterministic claim is about the post-warmup phase
        let warm = service
            .select(0, &params.selector, &params.select_budget, None)
            .unwrap();
        assert!(!warm.cached, "first compute is cold");
        let report = run_load(&service, &params);
        assert!(report.select.count > 0);
        assert!(report.query.count > 0);
        assert_eq!(report.update.count, 0);
        assert_eq!(report.final_epoch, 0, "no updates, no publishes");
        // one tenant computed during warmup; everyone else shares the entry
        assert!(report.cache_hits > 0, "static dataset must hit the cache");
        assert_eq!(report.cache_misses, 0, "warmed entry serves every tenant");
        assert_eq!(
            report.select.count,
            report.select.latencies_us.len(),
            "every answered select has a latency sample"
        );
        assert!(report.select.p50_us() <= report.select.p99_us());
    }

    #[test]
    fn racing_readers_observe_consistent_snapshots_at_every_thread_cap() {
        // the headline invariant, exercised at kernel thread caps 1/2/4:
        // readers race one updater; every completed selection must equal
        // a from-scratch run on its pinned snapshot bit for bit
        for cap in [1usize, 2, 4] {
            vqi_graph::par::set_thread_cap(cap);
            let service = small_service();
            let extra = molecules(9, 77);
            let batches: Vec<BatchUpdate> = (0..3)
                .map(|i| BatchUpdate {
                    additions: vec![extra[3 * i].clone(), extra[3 * i + 1].clone()],
                    removals: vec![i],
                })
                .collect();
            let report = run_load(
                &service,
                &LoadParams {
                    sessions: 4,
                    requests_per_session: 8,
                    update_every: 3,
                    batches,
                    queries: vec![star(4, 0, 0)],
                    verify_isolation: true,
                    ..Default::default()
                },
            );
            assert!(
                report.isolation_checks > 0,
                "cap {cap}: the race must actually verify selections"
            );
            assert!(
                report.final_epoch >= 1,
                "cap {cap}: the updater must publish"
            );
            assert_eq!(
                report.select.rejected, 0,
                "cap {cap}: default queue absorbs"
            );
        }
        vqi_graph::par::set_thread_cap(0);
    }

    #[test]
    fn update_invalidates_by_content_not_by_time() {
        let service = small_service();
        let budget = PatternBudget::new(4, 3, 6);
        let kind = SelectorKind::Catapult;
        let a = service.select(1, &kind, &budget, None).unwrap();
        assert!(!a.cached);
        let b = service.select(2, &kind, &budget, None).unwrap();
        assert!(b.cached, "same content, different tenant: shared entry");

        service
            .update(1, BatchUpdate::adding(vec![chain(5, 9, 0)]), None)
            .unwrap();
        let c = service.select(1, &kind, &budget, None).unwrap();
        assert!(!c.cached, "content changed, key changed");
        assert_eq!(c.epoch(), 1);

        // removing the added graph restores the original content — and
        // the original cache entry answers again
        let last = c.snapshot.collection().ids().into_iter().max().unwrap();
        service
            .update(1, BatchUpdate::removing(vec![last]), None)
            .unwrap();
        let d = service.select(3, &kind, &budget, None).unwrap();
        assert!(d.cached, "restored content re-hits the original entry");
        assert_eq!(
            pattern_codes(&a.outcome.value),
            pattern_codes(&d.outcome.value)
        );
    }
}
