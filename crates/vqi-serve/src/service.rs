//! The service: endpoints, maintainer, and the snapshot-isolation
//! contract tying them together.
//!
//! Request lifecycle (DESIGN §10):
//!
//! 1. a run-scoped trace journal run opens (`serve.<endpoint>`), so the
//!    request's spans — queueing included — share one run id;
//! 2. admission: acquire an execution slot or wait, bounded by the
//!    request's [`Budget`] deadline;
//! 3. pin: clone the current snapshot `Arc`. Everything after this
//!    point reads only the pinned collection;
//! 4. work: selector pipeline / per-graph embedding counts / update
//!    application, all budget-aware and anytime;
//! 5. respond: `PipelineOutcome` (`Complete` or `Degraded`), the pinned
//!    snapshot (so callers can verify against exactly what was read),
//!    and a latency histogram observation.
//!
//! Updates never touch a published collection: the maintainer owns a
//! private copy (or the MIDAS state), applies the batch there under its
//! own lock, and publishes a clone as the next epoch. Readers racing an
//! update therefore see either the old or the new epoch in full.

use crate::admission::{Admission, AdmissionConfig, Admitted};
use crate::cache::{PatternSetCache, SelectKey};
use crate::durable::{self, DurabilityConfig, DurableLog, RecoveryReport};
use crate::snapshot::{Snapshot, SnapshotStore};
use catapult::Catapult;
use midas::{CensusMode, Midas, MidasConfig};
use std::collections::BTreeSet;
use std::sync::{Arc, Mutex};
use std::time::Instant;
use vqi_core::budget::PatternBudget;
use vqi_core::pattern::PatternSet;
use vqi_core::repo::{BatchUpdate, GraphCollection, GraphRepository};
use vqi_core::results::{query_collection, QueryMatches};
use vqi_core::selector::{PatternSelector, RandomSelector};
use vqi_core::{Budget, Completeness, Degradation, PipelineOutcome};
use vqi_graph::iso::MatchOptions;
use vqi_graph::Graph;
use vqi_modular::ModularPipeline;
use vqi_runtime::VqiError;

/// Which selector a `select` request runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SelectorKind {
    /// CATAPULT with its default configuration.
    Catapult,
    /// The standard modular assembly.
    Modular,
    /// The random baseline with the given seed.
    Random {
        /// RNG seed (part of the cache key).
        seed: u64,
    },
}

impl SelectorKind {
    /// Cache-key discriminator.
    pub fn tag(&self) -> String {
        match self {
            SelectorKind::Catapult => "catapult".into(),
            SelectorKind::Modular => "modular".into(),
            SelectorKind::Random { seed } => format!("random:{seed}"),
        }
    }
}

/// How `update` maintains derived state.
#[derive(Debug, Clone)]
pub enum MaintenanceMode {
    /// Apply batches to the collection only; selections always recompute
    /// (or hit the cache) on the current snapshot.
    ApplyOnly,
    /// Run MIDAS incremental maintenance alongside each batch, keeping a
    /// canned pattern set warm.
    Midas {
        /// Budget of the maintained pattern set.
        budget: PatternBudget,
        /// MIDAS tuning.
        config: MidasConfig,
    },
}

/// Service configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Admission limits.
    pub admission: AdmissionConfig,
    /// Pattern-set cache capacity (entries; 0 disables).
    pub cache_capacity: usize,
    /// Deadline applied to requests that do not carry their own
    /// (`0` = unlimited).
    pub default_deadline_ms: u64,
    /// Maintainer flavor.
    pub maintenance: MaintenanceMode,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            admission: AdmissionConfig::default(),
            cache_capacity: 32,
            default_deadline_ms: 0,
            maintenance: MaintenanceMode::ApplyOnly,
        }
    }
}

/// Hard request failures. Budget trips are *not* errors — they surface
/// as `Degraded` outcomes; this enum is overload and fail-fast only.
#[derive(Debug)]
pub enum ServeError {
    /// The admission queue was full.
    Overloaded {
        /// Requests executing at rejection time.
        in_flight: usize,
        /// Requests queued at rejection time.
        queued: usize,
        /// Deterministic backoff hint derived from the queue state
        /// (see [`crate::admission::retry_after_ms`]).
        retry_after_ms: u64,
    },
    /// A fail-fast budget propagated a pipeline error.
    Failed(VqiError),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Overloaded {
                in_flight,
                queued,
                retry_after_ms,
            } => {
                write!(
                    f,
                    "overloaded: {in_flight} in flight, {queued} queued; \
                     retry after {retry_after_ms} ms"
                )
            }
            ServeError::Failed(e) => write!(f, "request failed: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// Response of `select`.
#[derive(Debug)]
pub struct SelectResponse {
    /// The snapshot the selection read (pinned for the whole request).
    pub snapshot: Arc<Snapshot>,
    /// Whether the set came from the content-addressed cache.
    pub cached: bool,
    /// The selected patterns, possibly an anytime subset.
    pub outcome: PipelineOutcome<Arc<PatternSet>>,
}

impl SelectResponse {
    /// Epoch the request executed against.
    pub fn epoch(&self) -> u64 {
        self.snapshot.epoch()
    }
}

/// Response of `query`.
#[derive(Debug)]
pub struct QueryResponse {
    /// The snapshot the scan read.
    pub snapshot: Arc<Snapshot>,
    /// The matches, possibly a prefix (anytime) under a tight deadline.
    pub outcome: PipelineOutcome<QueryMatches>,
}

impl QueryResponse {
    /// Epoch the request executed against.
    pub fn epoch(&self) -> u64 {
        self.snapshot.epoch()
    }
}

/// Payload of an `update` response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UpdateReport {
    /// Graphs added by the batch.
    pub added: usize,
    /// Graphs removed by the batch.
    pub removed: usize,
    /// Epoch the batch was published as.
    pub epoch: u64,
    /// Live collection size after the batch.
    pub collection_len: usize,
    /// Size of the MIDAS-maintained pattern set, when maintaining.
    pub maintained_patterns: Option<usize>,
    /// Whether maintenance took the incremental (delta) path, fell
    /// back to a full recompute, or was skipped entirely (census
    /// failure, apply-only mode, or a batch that never applied).
    pub census_mode: CensusMode,
}

/// Response of `update`.
#[derive(Debug)]
pub struct UpdateResponse {
    /// The report, `Degraded` when MIDAS cut maintenance stages (the
    /// collection itself always reflects the whole batch).
    pub outcome: PipelineOutcome<UpdateReport>,
}

enum Maintainer {
    ApplyOnly { next: GraphCollection },
    Midas { midas: Box<Midas> },
}

impl Maintainer {
    fn bootstrap(initial: &GraphCollection, mode: &MaintenanceMode) -> Maintainer {
        match mode {
            MaintenanceMode::ApplyOnly => Maintainer::ApplyOnly {
                next: initial.clone(),
            },
            MaintenanceMode::Midas { budget, config: mc } => Maintainer::Midas {
                midas: Box::new(Midas::bootstrap(initial.clone(), *budget, *mc)),
            },
        }
    }
}

/// The maintainer plus its durable log, guarded by one lock so the
/// apply → append → fsync → publish sequence of every update is a
/// single critical section.
struct MaintainerState {
    maintainer: Maintainer,
    log: Option<DurableLog>,
}

/// The multi-tenant service core.
pub struct VqiService {
    store: SnapshotStore,
    cache: PatternSetCache,
    admission: Admission,
    maintainer: Mutex<MaintainerState>,
    sessions: Mutex<BTreeSet<u64>>,
    default_deadline_ms: u64,
}

impl VqiService {
    /// Boots the service on `initial` (published as epoch 0), with no
    /// durability: a crash discards all applied updates.
    pub fn new(initial: GraphCollection, config: ServeConfig) -> Self {
        Self::build(initial, config, None, 0)
    }

    /// Boots the service on `initial` with a durable update log rooted
    /// at `wal_dir`: the epoch-0 checkpoint is written before the
    /// service accepts requests, and every update batch is logged (and,
    /// per `durability.fsync`, made durable) before its epoch
    /// publishes. Refuses a directory already holding durable state —
    /// use [`VqiService::recover`] for that.
    pub fn with_durability(
        initial: GraphCollection,
        config: ServeConfig,
        wal_dir: &std::path::Path,
        durability: DurabilityConfig,
    ) -> Result<Self, VqiError> {
        let log = DurableLog::bootstrap(wal_dir, durability, &initial, 0)?;
        Ok(Self::build(initial, config, Some(log), 0))
    }

    /// Recovers a service from the durable state in `wal_dir`: loads
    /// the newest valid checkpoint, replays the WAL suffix in epoch
    /// order (truncating a torn tail record), and resumes the epoch
    /// sequence where the previous process left it. The recovered
    /// collection — and therefore every subsequent `select`/`query`
    /// output — is bit-identical to the uncrashed process at the same
    /// epoch; MIDAS-derived state is re-bootstrapped from the
    /// collection (it is a deterministic function of it).
    pub fn recover(
        wal_dir: &std::path::Path,
        config: ServeConfig,
        durability: DurabilityConfig,
    ) -> Result<(Self, RecoveryReport), VqiError> {
        let recovered = durable::recover(wal_dir, durability)?;
        let report = recovered.report;
        let service = Self::build(
            recovered.collection,
            config,
            Some(recovered.log),
            report.final_epoch,
        );
        Ok((service, report))
    }

    fn build(
        initial: GraphCollection,
        config: ServeConfig,
        log: Option<DurableLog>,
        epoch: u64,
    ) -> Self {
        let maintainer = Maintainer::bootstrap(&initial, &config.maintenance);
        VqiService {
            store: SnapshotStore::with_epoch(initial, epoch),
            cache: PatternSetCache::new(config.cache_capacity),
            admission: Admission::new(config.admission),
            maintainer: Mutex::new(MaintainerState { maintainer, log }),
            sessions: Mutex::new(BTreeSet::new()),
            default_deadline_ms: config.default_deadline_ms,
        }
    }

    /// The snapshot store (exposed for tests and the harness).
    pub fn store(&self) -> &SnapshotStore {
        &self.store
    }

    /// Cached pattern-set entries.
    pub fn cache_len(&self) -> usize {
        self.cache.len()
    }

    /// Distinct session ids seen so far.
    pub fn session_count(&self) -> usize {
        self.sessions.lock().expect("session lock").len()
    }

    fn budget_for(&self, deadline_ms: Option<u64>) -> Budget {
        let ms = deadline_ms.unwrap_or(self.default_deadline_ms);
        if ms == 0 {
            Budget::unlimited()
        } else {
            Budget::unlimited().with_deadline_ms(ms)
        }
    }

    fn touch_session(&self, session: u64) {
        let mut s = self.sessions.lock().expect("session lock");
        if s.insert(session) {
            vqi_observe::gauge_set("serve.sessions", s.len() as i64);
        }
    }

    /// A `Degraded` verdict for a request that spent its whole deadline
    /// queued: the empty payload is the correct anytime answer.
    fn queue_expired<T>(value: T) -> PipelineOutcome<T> {
        let mut deg = Degradation::new();
        deg.record(&VqiError::DeadlineExceeded {
            stage: "serve.queue".into(),
        });
        deg.finish(value)
    }

    /// Selects a pattern set on the current snapshot.
    pub fn select(
        &self,
        session: u64,
        selector: &SelectorKind,
        budget: &PatternBudget,
        deadline_ms: Option<u64>,
    ) -> Result<SelectResponse, ServeError> {
        let _run = vqi_observe::run("serve.select");
        let start = Instant::now();
        vqi_observe::incr("serve.select.requests", 1);
        self.touch_session(session);
        let ctrl = self.budget_for(deadline_ms);

        let _permit = match self.admission.admit(&ctrl) {
            Admitted::Permit(p) => p,
            Admitted::DeadlineExpired => {
                return Ok(SelectResponse {
                    snapshot: self.store.pin(),
                    cached: false,
                    outcome: Self::queue_expired(Arc::new(PatternSet::new())),
                });
            }
            Admitted::Overloaded {
                in_flight,
                queued,
                retry_after_ms,
            } => {
                return Err(ServeError::Overloaded {
                    in_flight,
                    queued,
                    retry_after_ms,
                });
            }
        };

        let snapshot = self.store.pin();
        let key = SelectKey::new(Arc::clone(snapshot.fingerprint()), selector.tag(), budget);
        if let Some(set) = self.cache.get(&key) {
            vqi_observe::observe(
                "serve.select.latency_us",
                start.elapsed().as_micros() as u64,
            );
            return Ok(SelectResponse {
                snapshot,
                cached: true,
                outcome: PipelineOutcome::complete(set),
            });
        }

        let outcome = run_selector(snapshot.collection(), selector, budget, &ctrl)
            .map_err(ServeError::Failed)?;
        let outcome = PipelineOutcome {
            value: Arc::new(outcome.value),
            completeness: outcome.completeness,
        };
        if outcome.completeness.is_complete() {
            self.cache.insert(key, Arc::clone(&outcome.value));
        }
        vqi_observe::observe(
            "serve.select.latency_us",
            start.elapsed().as_micros() as u64,
        );
        Ok(SelectResponse {
            snapshot,
            cached: false,
            outcome,
        })
    }

    /// Counts embeddings of `query` in every graph of the current
    /// snapshot (non-induced, at most `max_embeddings_per_graph` each).
    /// Under a tight deadline the scan stops early and reports the
    /// prefix it finished as `Degraded`.
    pub fn query(
        &self,
        session: u64,
        query: &Graph,
        max_embeddings_per_graph: usize,
        deadline_ms: Option<u64>,
    ) -> Result<QueryResponse, ServeError> {
        let _run = vqi_observe::run("serve.query");
        let start = Instant::now();
        vqi_observe::incr("serve.query.requests", 1);
        self.touch_session(session);
        let ctrl = self.budget_for(deadline_ms);

        let _permit = match self.admission.admit(&ctrl) {
            Admitted::Permit(p) => p,
            Admitted::DeadlineExpired => {
                return Ok(QueryResponse {
                    snapshot: self.store.pin(),
                    outcome: Self::queue_expired(QueryMatches::default()),
                });
            }
            Admitted::Overloaded {
                in_flight,
                queued,
                retry_after_ms,
            } => {
                return Err(ServeError::Overloaded {
                    in_flight,
                    queued,
                    retry_after_ms,
                });
            }
        };

        let snapshot = self.store.pin();
        let opts = MatchOptions {
            max_embeddings: max_embeddings_per_graph,
            ..Default::default()
        };
        let (outcome, filtered) = query_collection(snapshot.collection(), query, opts, &ctrl)
            .map_err(ServeError::Failed)?;
        vqi_observe::incr("serve.query.filtered", filtered as u64);
        vqi_observe::observe("serve.query.latency_us", start.elapsed().as_micros() as u64);
        Ok(QueryResponse { snapshot, outcome })
    }

    /// Applies a batch update and publishes the result as a new epoch.
    /// Updates serialize on the maintainer lock; readers are never
    /// blocked and keep their pinned epochs.
    pub fn update(
        &self,
        session: u64,
        batch: BatchUpdate,
        deadline_ms: Option<u64>,
    ) -> Result<UpdateResponse, ServeError> {
        let _run = vqi_observe::run("serve.update");
        let start = Instant::now();
        vqi_observe::incr("serve.update.requests", 1);
        self.touch_session(session);
        let ctrl = self.budget_for(deadline_ms);

        let _permit = match self.admission.admit(&ctrl) {
            Admitted::Permit(p) => p,
            Admitted::DeadlineExpired => {
                // the batch was NOT applied; the report says so
                return Ok(UpdateResponse {
                    outcome: Self::queue_expired(UpdateReport {
                        added: 0,
                        removed: 0,
                        epoch: self.store.epoch(),
                        collection_len: self.store.pin().collection().len(),
                        maintained_patterns: None,
                        census_mode: CensusMode::Skipped,
                    }),
                });
            }
            Admitted::Overloaded {
                in_flight,
                queued,
                retry_after_ms,
            } => {
                return Err(ServeError::Overloaded {
                    in_flight,
                    queued,
                    retry_after_ms,
                });
            }
        };

        let added = batch.additions.len();
        let removed = batch.removals.len();
        let mut state = self.maintainer.lock().expect("maintainer lock");
        // durability, step 1 of 2: the batch is logged and fsync'd
        // BEFORE it is applied or published. On any later failure the
        // record is either rolled back (maintenance error below) or
        // replayed by recovery (crash) — never silently lost after the
        // caller saw the new epoch.
        let epoch_next = self.store.epoch() + 1;
        let appended_at = match state.log.as_mut() {
            Some(log) => Some(
                log.append(epoch_next, &durable::encode_batch(&batch))
                    .map_err(ServeError::Failed)?,
            ),
            None => None,
        };
        let applied = match &mut state.maintainer {
            Maintainer::ApplyOnly { next } => {
                next.apply(batch);
                Ok((
                    Completeness::Complete,
                    next.len(),
                    None,
                    // no maintenance kernels run in apply-only mode
                    CensusMode::Skipped,
                    next.clone(),
                ))
            }
            Maintainer::Midas { midas } => midas
                .apply_update_ctrl(batch, &ctrl)
                .map(|out| {
                    (
                        out.completeness,
                        midas.collection.len(),
                        Some(midas.patterns.len()),
                        out.value.census_mode,
                        midas.collection.clone(),
                    )
                })
                .map_err(ServeError::Failed),
        };
        let (completeness, collection_len, maintained, census_mode, next) = match applied {
            Ok(v) => v,
            Err(e) => {
                // the batch never took effect: its record must not
                // survive into recovery
                if let (Some(log), Some(at)) = (state.log.as_mut(), appended_at) {
                    log.rollback(at).map_err(ServeError::Failed)?;
                }
                return Err(e);
            }
        };
        // durability, step 2 of 2: checkpoint on cadence, then publish.
        // The record for `epoch_next` is durable before the epoch is
        // visible to any reader — the fsync-before-publish ordering the
        // recovery bit-identity proof rests on (DESIGN §13).
        if let Some(log) = state.log.as_mut() {
            log.committed(epoch_next, &next)
                .map_err(ServeError::Failed)?;
            // crash point: the record is durable, the epoch is not yet
            // published — recovery must replay it (K may exceed acks)
            vqi_runtime::fault::maybe_crash("serve.update.pre_publish", epoch_next);
        }
        // publish while still holding the maintainer lock: epochs are
        // published in the same order batches were applied
        let epoch = self.store.publish(next);
        debug_assert_eq!(epoch, epoch_next, "publishes serialize under the lock");
        drop(state);

        // applied updates count as delta when the maintainer reused
        // cached per-graph state, full otherwise (fresh recompute, a
        // failed census, or apply-only mode)
        match census_mode {
            CensusMode::Delta => vqi_observe::incr("serve.update.delta", 1),
            CensusMode::Full | CensusMode::Skipped => vqi_observe::incr("serve.update.full", 1),
        }
        vqi_observe::observe(
            "serve.update.latency_us",
            start.elapsed().as_micros() as u64,
        );
        Ok(UpdateResponse {
            outcome: PipelineOutcome {
                value: UpdateReport {
                    added,
                    removed,
                    epoch,
                    collection_len,
                    maintained_patterns: maintained,
                    census_mode,
                },
                completeness,
            },
        })
    }
}

fn run_selector(
    collection: &GraphCollection,
    selector: &SelectorKind,
    budget: &PatternBudget,
    ctrl: &Budget,
) -> Result<PipelineOutcome<PatternSet>, VqiError> {
    match selector {
        SelectorKind::Catapult => Catapult::default().run_ctrl(collection, budget, ctrl),
        SelectorKind::Modular => ModularPipeline::standard().run_ctrl(collection, budget, ctrl),
        SelectorKind::Random { seed } => {
            // the baseline has no budget-aware path; it is cheap enough
            // to run to completion
            let repo = GraphRepository::Collection(collection.clone());
            Ok(PipelineOutcome::complete(
                RandomSelector::new(*seed).select(&repo, budget),
            ))
        }
    }
}

/// A from-scratch, unconstrained selection on `collection` — the ground
/// truth the snapshot-isolation and cache bit-identity asserts compare
/// against. Deterministic at any thread count, like every selector in
/// this workspace.
pub fn reference_select(
    collection: &GraphCollection,
    selector: &SelectorKind,
    budget: &PatternBudget,
) -> PatternSet {
    run_selector(collection, selector, budget, &Budget::unlimited())
        .expect("unlimited budget cannot fail")
        .value
}

/// Canonical codes of a pattern set, for bit-identity comparisons.
pub fn pattern_codes(set: &PatternSet) -> Vec<String> {
    set.patterns()
        .iter()
        .map(|p| format!("{:?}", p.code))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use vqi_datasets::{aids_like, MoleculeParams};

    fn molecules(count: usize, seed: u64) -> Vec<Graph> {
        aids_like(MoleculeParams {
            count,
            seed,
            max_rings: 1,
            max_chains: 2,
            max_chain_len: 2,
        })
    }

    /// Serializes the tests that toggle the process-global observe
    /// registry, so one test disarming it cannot blind another.
    static OBSERVE: Mutex<()> = Mutex::new(());

    fn observe_lock() -> std::sync::MutexGuard<'static, ()> {
        OBSERVE
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn canceled_query_degrades_before_the_first_graph() {
        let graphs = molecules(40, 5);
        let probe = graphs[0].clone();
        let store = SnapshotStore::new(GraphCollection::new(graphs));
        let snapshot = store.pin();
        let token = vqi_core::CancelToken::new();
        token.cancel();
        let ctrl = Budget::unlimited().with_cancel(token);
        let sweep = |ctrl: &Budget| {
            query_collection(snapshot.collection(), &probe, MatchOptions::default(), ctrl)
        };
        let (out, _) = sweep(&ctrl).unwrap();
        assert_eq!(out.value.graphs_examined, 0);
        assert!(out.value.hits.is_empty());
        match &out.completeness {
            Completeness::Degraded { stages_cut, .. } => {
                assert_eq!(stages_cut, &vec!["query".to_string()]);
            }
            Completeness::Complete => panic!("a canceled scan must degrade"),
        }
        // fail-fast turns the same trip into an error
        assert!(sweep(&ctrl.with_fail_fast(true)).is_err());
    }

    #[test]
    fn cache_hits_and_queries_reuse_the_epoch_derivation() {
        use vqi_observe::EventKind;
        let _lock = observe_lock();
        let service = VqiService::new(
            GraphCollection::new(molecules(10, 61)),
            ServeConfig::default(),
        );
        let budget = PatternBudget::new(4, 3, 6);
        let kind = SelectorKind::Catapult;
        // the cold select derives epoch 0 and fills the cache
        assert!(!service.select(1, &kind, &budget, None).unwrap().cached);

        vqi_observe::set_enabled(true);
        vqi_observe::set_journal_enabled(true);
        let run = vqi_observe::run("test.memo");
        let run_id = vqi_observe::current_ctx().run_id;
        for session in 2..5 {
            assert!(
                service
                    .select(session, &kind, &budget, None)
                    .unwrap()
                    .cached
            );
        }
        let probe = molecules(1, 62).remove(0);
        service.query(5, &probe, 10, None).unwrap();
        service
            .update(1, BatchUpdate::adding(molecules(1, 63)), None)
            .unwrap();
        service.query(6, &probe, 10, None).unwrap();
        assert!(!service.select(7, &kind, &budget, None).unwrap().cached);
        assert!(service.select(8, &kind, &budget, None).unwrap().cached);
        drop(run);
        let events: Vec<_> = vqi_observe::journal_events()
            .into_iter()
            .filter(|e| e.run_id == run_id && e.kind == EventKind::Begin)
            .collect();
        vqi_observe::set_journal_enabled(false);
        vqi_observe::set_enabled(false);

        // hits on epoch 0 and the queries, which read the stored
        // per-graph indexes, derived nothing; epoch 1 was derived once,
        // by the first select that read it, inside that request's span
        let derives: Vec<_> = events
            .iter()
            .filter(|e| e.name == "serve.snapshot.derive")
            .collect();
        assert_eq!(derives.len(), 1, "one derivation per new epoch");
        let payer = events
            .iter()
            .find(|e| e.span_id == derives[0].parent_id)
            .expect("the derivation nests in a request span");
        assert_eq!(payer.name, "serve.select");
        let first_epoch1_select = events
            .iter()
            .filter(|e| e.name == "serve.select")
            .nth(3)
            .unwrap();
        assert_eq!(payer.span_id, first_epoch1_select.span_id);
    }

    #[test]
    fn update_keeps_the_index_of_every_untouched_slot() {
        let midas = MaintenanceMode::Midas {
            budget: PatternBudget::new(4, 3, 6),
            config: MidasConfig::default(),
        };
        for maintenance in [MaintenanceMode::ApplyOnly, midas] {
            let service = VqiService::new(
                GraphCollection::new(molecules(10, 81)),
                ServeConfig {
                    maintenance: maintenance.clone(),
                    ..Default::default()
                },
            );
            // a query builds the epoch-0 indexes the update must keep
            let probe = molecules(1, 83).remove(0);
            service.query(1, &probe, 10, None).unwrap();
            let before = service.store().pin();
            service
                .update(1, BatchUpdate::adding(molecules(1, 82)), None)
                .unwrap();
            let after = service.store().pin();
            assert_eq!(after.epoch(), 1);
            for (id, old) in before.collection().entries() {
                let kept = after.collection().entry(id).expect("untouched slot");
                assert!(
                    std::ptr::eq(old, kept),
                    "{maintenance:?}: slot {id} lost its entry"
                );
                assert!(
                    std::ptr::eq(old.index(), kept.index()),
                    "{maintenance:?}: slot {id} was re-indexed"
                );
            }
            let added = after.collection().entry(10).expect("added slot");
            assert!(before
                .collection()
                .entries()
                .all(|(_, e)| !std::ptr::eq(e, added)));
        }
    }

    #[test]
    fn select_cache_tells_fingerprint_twins_apart() {
        use vqi_graph::index::Fingerprint;
        use vqi_graph::iso::are_isomorphic;
        // two molecules of the workload's own generator with equal
        // per-graph fingerprints that are not isomorphic
        let nth = |seed, i: usize| {
            aids_like(MoleculeParams {
                seed,
                ..MoleculeParams::default()
            })[i]
                .clone()
        };
        let (twin, other) = (nth(10, 26), nth(13, 55));
        assert_eq!(Fingerprint::of(&twin), Fingerprint::of(&other));
        assert!(!are_isomorphic(&twin, &other));

        let mut graphs = molecules(8, 91);
        graphs.push(twin);
        let service = VqiService::new(GraphCollection::new(graphs), ServeConfig::default());
        let (kind, budget) = (SelectorKind::Catapult, PatternBudget::new(4, 3, 6));
        assert!(!service.select(1, &kind, &budget, None).unwrap().cached);
        service
            .update(
                1,
                BatchUpdate {
                    additions: vec![other],
                    removals: vec![8],
                },
                None,
            )
            .unwrap();
        let after = service.select(2, &kind, &budget, None).unwrap();
        assert!(!after.cached, "a different collection hit the cache");
        let reference = reference_select(after.snapshot.collection(), &kind, &budget);
        assert_eq!(
            pattern_codes(&after.outcome.value),
            pattern_codes(&reference)
        );
    }

    #[test]
    fn cache_hits_are_bit_identical_to_cold_computes() {
        let service = VqiService::new(
            GraphCollection::new(molecules(10, 11)),
            ServeConfig::default(),
        );
        let budget = PatternBudget::new(4, 3, 6);
        for kind in [
            SelectorKind::Catapult,
            SelectorKind::Modular,
            SelectorKind::Random { seed: 7 },
        ] {
            let cold = service.select(1, &kind, &budget, None).unwrap();
            assert!(!cold.cached, "{kind:?}: first select computes");
            assert!(cold.outcome.completeness.is_complete());
            let hit = service.select(2, &kind, &budget, None).unwrap();
            assert!(hit.cached, "{kind:?}: second select hits");
            // the hit shares the very allocation — bit-identity for free
            assert!(Arc::ptr_eq(&cold.outcome.value, &hit.outcome.value));
            let reference = reference_select(cold.snapshot.collection(), &kind, &budget);
            assert_eq!(
                pattern_codes(&cold.outcome.value),
                pattern_codes(&reference),
                "{kind:?}: served set must equal the from-scratch run"
            );
        }
        assert_eq!(service.cache_len(), 3);
        assert_eq!(service.session_count(), 2);
    }

    #[test]
    fn query_scans_the_pinned_snapshot() {
        let graphs = molecules(8, 23);
        let probe = graphs[0].clone();
        let service = VqiService::new(GraphCollection::new(graphs), ServeConfig::default());
        let resp = service.query(5, &probe, 50, None).unwrap();
        assert!(resp.outcome.completeness.is_complete());
        let m = &resp.outcome.value;
        assert_eq!(m.graphs_examined, 8);
        // a graph always embeds in itself
        assert!(m.hits.iter().any(|h| h.graph_id == 0 && h.embeddings >= 1));
        assert_eq!(
            m.total_embeddings,
            m.hits.iter().map(|h| h.embeddings).sum::<usize>()
        );
        // hits come in slot-id order
        assert!(m.hits.windows(2).all(|w| w[0].graph_id < w[1].graph_id));
    }

    #[test]
    fn query_after_an_update_sweeps_the_new_epoch() {
        use vqi_graph::generate::chain;
        let service = VqiService::new(
            GraphCollection::new(vec![chain(3, 1, 0), chain(3, 2, 0), chain(3, 1, 0)]),
            ServeConfig::default(),
        );
        let probe = chain(2, 1, 0);
        let ids = |m: &QueryMatches| -> Vec<(usize, usize)> {
            m.hits.iter().map(|h| (h.graph_id, h.embeddings)).collect()
        };
        let before = service.query(1, &probe, 50, None).unwrap();
        assert_eq!(before.epoch(), 0);
        // each edge of a 3-chain embeds in both directions
        assert_eq!(ids(&before.outcome.value), vec![(0, 4), (2, 4)]);
        let batch = BatchUpdate {
            additions: vec![chain(4, 1, 0)],
            removals: vec![0],
        };
        service.update(1, batch, None).unwrap();
        let after = service.query(2, &probe, 50, None).unwrap();
        assert_eq!(after.epoch(), 1);
        assert_eq!(after.outcome.value.graphs_examined, 3);
        assert_eq!(ids(&after.outcome.value), vec![(2, 4), (3, 6)]);
        // the earlier response still pins epoch 0 and its graphs
        let (again, _) = query_collection(
            before.snapshot.collection(),
            &probe,
            MatchOptions {
                max_embeddings: 50,
                ..Default::default()
            },
            &Budget::unlimited(),
        )
        .unwrap();
        assert_eq!(again.value, before.outcome.value);
    }

    #[test]
    fn tight_deadline_degrades_instead_of_failing() {
        let service = VqiService::new(
            GraphCollection::new(molecules(120, 31)),
            ServeConfig::default(),
        );
        let budget = PatternBudget::new(5, 3, 6);
        let resp = service
            .select(1, &SelectorKind::Catapult, &budget, Some(1))
            .unwrap();
        match &resp.outcome.completeness {
            Completeness::Degraded { stages_cut, .. } => {
                assert!(!stages_cut.is_empty());
                // degraded artifacts of one request's deadline are not
                // shared through the cache
                assert_eq!(service.cache_len(), 0);
            }
            Completeness::Complete => {
                panic!("a 1 ms deadline cannot fit a 120-graph selection")
            }
        }
        // the same request without the deadline completes and caches
        let full = service
            .select(1, &SelectorKind::Catapult, &budget, None)
            .unwrap();
        assert!(full.outcome.completeness.is_complete());
        assert!(!full.outcome.value.is_empty());
        assert_eq!(service.cache_len(), 1);
    }

    #[test]
    fn midas_mode_maintains_patterns_and_readers_keep_pinned_epochs() {
        let budget = PatternBudget::new(4, 3, 6);
        let service = VqiService::new(
            GraphCollection::new(molecules(10, 47)),
            ServeConfig {
                maintenance: MaintenanceMode::Midas {
                    budget,
                    config: MidasConfig::default(),
                },
                ..Default::default()
            },
        );
        let before = service.store().pin();
        assert_eq!(before.epoch(), 0);
        let len_before = before.collection().len();

        let extra = molecules(2, 99);
        let resp = service.update(1, BatchUpdate::adding(extra), None).unwrap();
        let report = &resp.outcome.value;
        assert_eq!(report.added, 2);
        assert_eq!(report.epoch, 1);
        assert_eq!(report.collection_len, len_before + 2);
        assert!(report.maintained_patterns.unwrap_or(0) > 0);
        // the bootstrap filled the per-graph census cache, so the first
        // update already takes the incremental path
        assert_eq!(report.census_mode, CensusMode::Delta);

        // the pre-update pin still reads the old world
        assert_eq!(before.collection().len(), len_before);
        assert_eq!(service.store().epoch(), 1);
        assert_eq!(service.store().pin().collection().len(), len_before + 2);
    }

    #[test]
    fn update_reports_delta_vs_full_and_bumps_mode_counters() {
        let _lock = observe_lock();
        vqi_observe::set_enabled(true);
        let counter = |name: &str| {
            vqi_observe::snapshot()
                .counters
                .get(name)
                .copied()
                .unwrap_or(0)
        };

        // apply-only mode runs no maintenance kernels: the report says
        // so and the update lands on the non-delta counter
        let plain = VqiService::new(
            GraphCollection::new(molecules(6, 11)),
            ServeConfig::default(),
        );
        let (full_before, delta_before) =
            (counter("serve.update.full"), counter("serve.update.delta"));
        let r = plain
            .update(1, BatchUpdate::adding(molecules(1, 12)), None)
            .unwrap();
        assert_eq!(r.outcome.value.census_mode, CensusMode::Skipped);
        assert_eq!(r.outcome.value.epoch, 1);
        assert!(counter("serve.update.full") > full_before);

        // midas mode reuses the bootstrap-filled census cache: delta
        let midas_service = VqiService::new(
            GraphCollection::new(molecules(8, 21)),
            ServeConfig {
                maintenance: MaintenanceMode::Midas {
                    budget: PatternBudget::new(4, 3, 6),
                    config: MidasConfig::default(),
                },
                ..Default::default()
            },
        );
        let r2 = midas_service
            .update(1, BatchUpdate::adding(molecules(2, 22)), None)
            .unwrap();
        assert_eq!(r2.outcome.value.census_mode, CensusMode::Delta);
        assert_eq!(r2.outcome.value.epoch, 1);
        assert!(counter("serve.update.delta") > delta_before);
        vqi_observe::set_enabled(false);
    }
}
