//! Seeded, deterministic fault injection.
//!
//! Tests and the `exp_faults` bench activate a global [`FaultPlan`]
//! (seed + per-kind rates); instrumented sites then ask "does a fault
//! fire here?" with a *stable key* — a candidate index, a partition
//! index, a stage name — and the answer is a pure function of
//! `(seed, site, key, kind)`. Because decisions are keyed by data and
//! never by call order or wall clock, the same plan injects the same
//! faults at thread caps 1, 2, and 4, which is what lets the
//! degraded-output determinism tests assert bit-identical results.
//!
//! Faults are **transient**: each `(site, key, kind)` fires at most
//! once per plan (a fired-once registry records it), so a retry of the
//! same work item succeeds — modelling the transient failures the
//! retry machinery exists for, deterministically.
//!
//! Observability: every fired fault bumps the `fault.injected`
//! counter; retry sites bump `fault.retried`; pipelines bump
//! `fault.degraded` when a stage is cut.

use rand::{splitmix64, SPLITMIX64_GAMMA};
use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};

/// What faults to inject and how often.
///
/// Rates are probabilities in `[0, 1]` applied independently per
/// `(site, key)`; `0` disables a kind, `1` fires it at every site
/// (once each, per the fired-once rule).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct FaultPlan {
    /// Seed mixed into every decision; two seeds give two distinct
    /// (but each internally deterministic) fault patterns.
    pub seed: u64,
    /// Probability that [`maybe_panic`] panics.
    pub panic_rate: f64,
    /// Probability that [`maybe_timeout`] reports a stage timeout.
    pub timeout_rate: f64,
    /// Probability that [`nan_score`] poisons a score with NaN.
    pub nan_rate: f64,
    /// Probability that a crash point ([`maybe_crash`] /
    /// [`torn_write`]) kills the process. Unlike the other kinds a
    /// crash is *not* transient — the process dies — so it is meant for
    /// child-run harnesses that spawn a sacrificial process, observe
    /// the simulated `kill -9`, and then drive recovery from the
    /// parent.
    pub crash_rate: f64,
}

impl FaultPlan {
    /// A plan injecting all three *transient* kinds at `rate` with the
    /// given seed. Crash points stay disabled: a crash kills the whole
    /// process, so it is opted into explicitly by harnesses that spawn
    /// a sacrificial child.
    pub fn uniform(seed: u64, rate: f64) -> FaultPlan {
        FaultPlan {
            seed,
            panic_rate: rate,
            timeout_rate: rate,
            nan_rate: rate,
            crash_rate: 0.0,
        }
    }
}

struct State {
    plan: FaultPlan,
    fired: HashSet<u64>,
    /// When set, crash points fire only at this exact site — how the
    /// crash-matrix harness arms one crash mode at a time while the
    /// other modes' sites stay live in the same code path.
    crash_site: Option<String>,
}

static ACTIVE: AtomicBool = AtomicBool::new(false);

fn state() -> &'static Mutex<State> {
    static STATE: OnceLock<Mutex<State>> = OnceLock::new();
    STATE.get_or_init(|| {
        Mutex::new(State {
            plan: FaultPlan::default(),
            fired: HashSet::new(),
            crash_site: None,
        })
    })
}

/// Activates `plan`, clearing the fired-once registry. Injection is
/// process-global; tests serialize around it.
pub fn set_plan(plan: FaultPlan) {
    let mut st = state().lock().unwrap_or_else(|e| e.into_inner());
    st.plan = plan;
    st.fired.clear();
    st.crash_site = None;
    ACTIVE.store(
        plan.panic_rate > 0.0
            || plan.timeout_rate > 0.0
            || plan.nan_rate > 0.0
            || plan.crash_rate > 0.0,
        Ordering::Relaxed,
    );
}

/// Restricts crash points to the named site (`None` lifts the
/// restriction). Call after [`set_plan`], which clears the filter.
pub fn set_crash_site(site: Option<&str>) {
    let mut st = state().lock().unwrap_or_else(|e| e.into_inner());
    st.crash_site = site.map(str::to_string);
}

/// Deactivates injection and clears the fired-once registry.
pub fn reset() {
    set_plan(FaultPlan::default());
}

/// Whether any fault kind is currently armed. The inactive fast path
/// of every injection site is this single relaxed load.
#[inline]
pub fn active() -> bool {
    ACTIVE.load(Ordering::Relaxed)
}

/// FNV-1a over the site name: stable across runs and platforms.
fn fnv1a(s: &str) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for b in s.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

const KIND_PANIC: u64 = 0x50414e49; // "PANI"
const KIND_TIMEOUT: u64 = 0x54494d45; // "TIME"
const KIND_NAN: u64 = 0x4e414e53; // "NANS"
const KIND_CRASH: u64 = 0x43525348; // "CRSH"

/// The keyed decision: pure in `(seed, site, key, kind)`, subject to
/// the fired-once rule.
fn decide(kind: u64, site: &str, key: u64, rate: impl Fn(&FaultPlan) -> f64) -> bool {
    if !active() {
        return false;
    }
    let mut st = state().lock().unwrap_or_else(|e| e.into_inner());
    let r = rate(&st.plan).clamp(0.0, 1.0);
    if r <= 0.0 {
        return false;
    }
    let h = splitmix64(
        st.plan
            .seed
            .wrapping_mul(SPLITMIX64_GAMMA)
            .wrapping_add(fnv1a(site))
            ^ splitmix64(key.wrapping_add(kind)),
    );
    // map the hash to [0, 1) and compare against the rate
    let u = (h >> 11) as f64 / (1u64 << 53) as f64;
    if u >= r {
        return false;
    }
    if !st.fired.insert(h ^ kind) {
        // already fired for this (site, key, kind): the retry passes
        return false;
    }
    drop(st);
    vqi_observe::incr("fault.injected", 1);
    if vqi_observe::journal_recording() {
        vqi_observe::instant(&format!("fault.injected:{site}#{key}"));
    }
    true
}

/// Panics (an injected kernel fault) when the plan says this
/// `(site, key)` should fail — at most once per plan.
pub fn maybe_panic(site: &str, key: u64) {
    if decide(KIND_PANIC, site, key, |p| p.panic_rate) {
        panic!("injected fault at {site}#{key}");
    }
}

/// Whether an injected stage timeout fires at this `(site, key)`.
pub fn maybe_timeout(site: &str, key: u64) -> bool {
    decide(KIND_TIMEOUT, site, key, |p| p.timeout_rate)
}

/// Returns `v`, or NaN when the plan poisons this `(site, key)`.
pub fn nan_score(site: &str, key: u64, v: f64) -> f64 {
    if decide(KIND_NAN, site, key, |p| p.nan_rate) {
        f64::NAN
    } else {
        v
    }
}

/// The crash decision: like [`decide`] but additionally gated on the
/// [`set_crash_site`] filter, and returning the decision hash so torn
/// writes can derive a seeded byte offset from it.
fn decide_crash(site: &str, key: u64) -> Option<u64> {
    if !active() {
        return None;
    }
    let st = state().lock().unwrap_or_else(|e| e.into_inner());
    let r = st.plan.crash_rate.clamp(0.0, 1.0);
    if r <= 0.0 {
        return None;
    }
    if let Some(filter) = &st.crash_site {
        if filter != site {
            return None;
        }
    }
    let h = splitmix64(
        st.plan
            .seed
            .wrapping_mul(SPLITMIX64_GAMMA)
            .wrapping_add(fnv1a(site))
            ^ splitmix64(key.wrapping_add(KIND_CRASH)),
    );
    let u = (h >> 11) as f64 / (1u64 << 53) as f64;
    if u >= r {
        return None;
    }
    Some(h)
}

/// Kills the process on the spot — the simulated `kill -9` the crash
/// points resolve to. `abort` raises `SIGABRT` without unwinding or
/// flushing buffered writers, so whatever the code under test had not
/// pushed to the OS is genuinely lost, exactly like real process death.
pub fn crash_now(site: &str, key: u64) -> ! {
    // the counter is in-memory and dies with us; the stderr line is for
    // humans debugging a harness, parents only look at the exit status
    eprintln!("vqi-runtime: injected crash at {site}#{key}");
    std::process::abort();
}

/// Crash point: kills the process when the plan (and the crash-site
/// filter) says this `(site, key)` dies here. Pure per `(seed, site,
/// key)` like every other kind, so the same plan crashes the same
/// batch at any thread cap.
pub fn maybe_crash(site: &str, key: u64) {
    if decide_crash(site, key).is_some() {
        crash_now(site, key);
    }
}

/// Torn-write decision: when the plan crashes this `(site, key)`,
/// returns the seeded byte offset (in `[0, len)`) at which the caller
/// should cut its write before dying via [`crash_now`]. The offset is a
/// pure function of `(seed, site, key, len)`, so a torn tail lands at
/// the same byte in every run of the plan. Returns `None` (write
/// everything, live on) when the crash does not fire or `len` is 0.
pub fn torn_write(site: &str, key: u64, len: usize) -> Option<usize> {
    if len == 0 {
        return None;
    }
    decide_crash(site, key).map(|h| (splitmix64(h ^ 0x70524e) % len as u64) as usize)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::MutexGuard;

    /// The plan is process-global; serialize the tests that touch it.
    fn lock() -> MutexGuard<'static, ()> {
        static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
        LOCK.get_or_init(|| Mutex::new(()))
            .lock()
            .unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn inactive_plan_never_fires() {
        let _g = lock();
        reset();
        assert!(!active());
        maybe_panic("site", 1); // must not panic
        maybe_crash("site", 1); // must not abort
        assert!(!maybe_timeout("site", 1));
        assert_eq!(nan_score("site", 1, 2.5), 2.5);
        assert_eq!(torn_write("site", 1, 100), None);
    }

    #[test]
    fn crash_decisions_are_pure_and_honor_the_site_filter() {
        let _g = lock();
        let plan = FaultPlan {
            seed: 11,
            crash_rate: 0.5,
            ..Default::default()
        };
        set_plan(plan);
        let offsets: Vec<Option<usize>> =
            (0..64).map(|k| torn_write("wal.append", k, 512)).collect();
        assert!(
            offsets.iter().any(|o| o.is_some()),
            "rate 0.5 fired nowhere"
        );
        assert!(
            offsets.iter().any(|o| o.is_none()),
            "rate 0.5 fired everywhere"
        );
        for o in offsets.iter().flatten() {
            assert!(*o < 512, "offset must cut inside the record");
        }
        // re-arming reproduces the exact offsets (pure in seed/site/key)
        set_plan(plan);
        let again: Vec<Option<usize>> = (0..64).map(|k| torn_write("wal.append", k, 512)).collect();
        assert_eq!(offsets, again);
        // repeated queries agree too: crashes bypass the fired-once
        // registry, because a fired crash never returns to ask again
        assert_eq!(torn_write("wal.append", 0, 512), again[0]);

        // a filter on another site silences this one; matching re-arms it
        set_plan(plan);
        set_crash_site(Some("wal.checkpoint"));
        assert!((0..64).all(|k| torn_write("wal.append", k, 512).is_none()));
        assert!((0..64).all(|k| {
            // maybe_crash must not abort while filtered out
            maybe_crash("wal.append", k);
            true
        }));
        set_crash_site(Some("wal.append"));
        let filtered: Vec<Option<usize>> =
            (0..64).map(|k| torn_write("wal.append", k, 512)).collect();
        assert_eq!(filtered, again, "the filter must not change decisions");
        reset();
    }

    #[test]
    fn decisions_are_keyed_not_ordered() {
        let _g = lock();
        let plan = FaultPlan {
            seed: 42,
            timeout_rate: 0.5,
            ..Default::default()
        };
        // query forward, record, then re-arm and query backward:
        // identical per-key answers regardless of order
        set_plan(plan);
        let forward: Vec<bool> = (0..64).map(|k| maybe_timeout("order", k)).collect();
        set_plan(plan);
        let backward: Vec<bool> = (0..64).rev().map(|k| maybe_timeout("order", k)).collect();
        let backward_fwd: Vec<bool> = backward.into_iter().rev().collect();
        assert_eq!(forward, backward_fwd);
        assert!(forward.iter().any(|&b| b), "rate 0.5 fired nowhere");
        assert!(!forward.iter().all(|&b| b), "rate 0.5 fired everywhere");
        reset();
    }

    #[test]
    fn fired_once_lets_the_retry_pass() {
        let _g = lock();
        set_plan(FaultPlan {
            seed: 7,
            timeout_rate: 1.0,
            ..Default::default()
        });
        assert!(maybe_timeout("retry.site", 3));
        // the retry of the same work item succeeds
        assert!(!maybe_timeout("retry.site", 3));
        // a different key still fires
        assert!(maybe_timeout("retry.site", 4));
        reset();
    }

    #[test]
    fn seeds_and_sites_change_the_pattern() {
        let _g = lock();
        let pattern = |seed: u64, site: &str| -> Vec<bool> {
            set_plan(FaultPlan {
                seed,
                nan_rate: 0.4,
                ..Default::default()
            });
            let v = (0..128).map(|k| nan_score(site, k, 1.0).is_nan()).collect();
            reset();
            v
        };
        let a1 = pattern(1, "s");
        let a1_again = pattern(1, "s");
        let a2 = pattern(2, "s");
        let b1 = pattern(1, "t");
        assert_eq!(a1, a1_again, "same plan must reproduce exactly");
        assert_ne!(a1, a2, "different seeds should differ");
        assert_ne!(a1, b1, "different sites should differ");
    }

    #[test]
    fn injected_panic_carries_the_site() {
        let _g = lock();
        set_plan(FaultPlan {
            seed: 1,
            panic_rate: 1.0,
            ..Default::default()
        });
        let r = std::panic::catch_unwind(|| maybe_panic("kernel.vf2", 9));
        let payload = r.unwrap_err();
        let msg = crate::error::panic_reason(payload.as_ref());
        assert!(msg.contains("kernel.vf2#9"), "got: {msg}");
        reset();
    }
}
