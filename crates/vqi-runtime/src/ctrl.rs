//! Budgets, cancellation, and periodic in-kernel checks.
//!
//! A [`Budget`] is created once per pipeline run and threaded by
//! reference through every stage. Stages call [`Budget::check`] at
//! coarse granularity (per stage, per candidate, per greedy round);
//! hot kernels obtain a fresh [`Meter`] per invocation and call
//! [`Meter::tick`] once per recursion node / peeled edge / extension,
//! which costs a branch and a counter on the common path and polls the
//! wall clock and cancel flag only every [`POLL_INTERVAL`] ticks.
//!
//! Two of the three limits are deterministic and two are best-effort:
//!
//! * the **kernel-tick quota** is per-invocation and counts work
//!   items, so the same input trips at the same tick at any thread
//!   count — this is what determinism tests use;
//! * the **wall-clock deadline** and the **cancel flag** depend on
//!   real time and so decide only *whether* a run degrades, not what
//!   a degraded run contains.

use crate::error::VqiError;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How many [`Meter::tick`]s pass between wall-clock/cancel polls.
pub const POLL_INTERVAL: u32 = 1024;

/// Marks a budget trip in the trace journal so a trace shows *why* a
/// run degraded. Only error paths reach this, so the hot tick/check
/// paths stay free of it; the disabled cost is one relaxed load.
#[inline]
fn trip_instant(kind: &str, stage: &str) {
    if vqi_observe::journal_recording() {
        vqi_observe::instant(&format!("budget.trip:{kind}:{stage}"));
    }
}

/// A shared cooperative cancellation flag.
///
/// Clones share the flag: a GUI (or test) holds one clone and calls
/// [`CancelToken::cancel`]; the pipeline's meters observe it at the
/// next poll boundary.
#[derive(Clone, Debug, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, un-canceled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests cancellation; all clones observe it.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Relaxed);
    }

    /// Whether cancellation has been requested.
    #[inline]
    pub fn is_canceled(&self) -> bool {
        self.0.load(Ordering::Relaxed)
    }
}

/// The per-run budget: wall-clock deadline, cancel flag, deterministic
/// kernel-tick quota, and the fail-fast policy switch.
///
/// The default ([`Budget::unlimited`]) imposes no limits; pipelines
/// running under it produce output bit-identical to the budget-free
/// entry points.
#[derive(Clone, Debug, Default)]
pub struct Budget {
    deadline: Option<Instant>,
    cancel: CancelToken,
    kernel_ticks: Option<u64>,
    fail_fast: bool,
}

impl Budget {
    /// A budget with no deadline, no quota, and a fresh cancel token.
    pub fn unlimited() -> Self {
        Self::default()
    }

    /// Sets a wall-clock deadline `ms` milliseconds from now.
    pub fn with_deadline_ms(mut self, ms: u64) -> Self {
        self.deadline = Some(Instant::now() + Duration::from_millis(ms));
        self
    }

    /// Sets a deterministic per-kernel-invocation tick quota. Every
    /// [`Meter`] handed out by this budget starts with `ticks`
    /// remaining, so the quota trips at the same point in the same
    /// kernel call regardless of thread count.
    pub fn with_kernel_ticks(mut self, ticks: u64) -> Self {
        self.kernel_ticks = Some(ticks);
        self
    }

    /// Attaches an externally held cancel token.
    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.cancel = token;
        self
    }

    /// Makes stage errors propagate as `Err` out of the pipeline
    /// instead of degrading the outcome.
    pub fn with_fail_fast(mut self, on: bool) -> Self {
        self.fail_fast = on;
        self
    }

    /// The wall-clock deadline, if one is set. Blocking layers in front
    /// of a pipeline (e.g. `vqi-serve` admission queues) bound their
    /// waits by this instant so a queued request cannot outlive its own
    /// budget.
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }

    /// Time remaining until the deadline (`None` when no deadline is
    /// set, zero when it has already passed).
    pub fn remaining(&self) -> Option<Duration> {
        self.deadline
            .map(|d| d.saturating_duration_since(Instant::now()))
    }

    /// Whether stage errors should propagate instead of degrade.
    pub fn fail_fast(&self) -> bool {
        self.fail_fast
    }

    /// Whether this budget can never trip (no deadline, no quota, and
    /// the token has not been canceled yet).
    pub fn is_unlimited(&self) -> bool {
        self.deadline.is_none() && self.kernel_ticks.is_none() && !self.cancel.is_canceled()
    }

    /// Coarse-grained check used at stage/candidate/round boundaries.
    /// Cancel wins over deadline when both are due.
    #[inline]
    pub fn check(&self, stage: &str) -> Result<(), VqiError> {
        if self.cancel.is_canceled() {
            trip_instant("canceled", stage);
            return Err(VqiError::Canceled {
                stage: stage.to_string(),
            });
        }
        if let Some(d) = self.deadline {
            if Instant::now() >= d {
                trip_instant("deadline", stage);
                return Err(VqiError::DeadlineExceeded {
                    stage: stage.to_string(),
                });
            }
        }
        Ok(())
    }

    /// A fresh per-invocation [`Meter`] for a kernel call attributed
    /// to `stage`.
    pub fn meter(&self, stage: &'static str) -> Meter {
        Meter {
            stage,
            quota: self.kernel_ticks,
            deadline: self.deadline,
            cancel: self.cancel.clone(),
            since_poll: 0,
        }
    }
}

/// A per-kernel-invocation tick counter; see [`Budget::meter`].
#[derive(Clone, Debug)]
pub struct Meter {
    stage: &'static str,
    /// Remaining deterministic ticks, `None` = no quota.
    quota: Option<u64>,
    deadline: Option<Instant>,
    cancel: CancelToken,
    since_poll: u32,
}

impl Meter {
    /// Counts one unit of kernel work. The deterministic quota is
    /// decremented every call; the wall clock and cancel flag are
    /// polled every [`POLL_INTERVAL`] calls.
    #[inline]
    pub fn tick(&mut self) -> Result<(), VqiError> {
        if let Some(left) = &mut self.quota {
            if *left == 0 {
                trip_instant("quota", self.stage);
                return Err(VqiError::QuotaExceeded {
                    stage: self.stage.to_string(),
                });
            }
            *left -= 1;
        }
        self.since_poll += 1;
        if self.since_poll >= POLL_INTERVAL {
            self.since_poll = 0;
            if self.cancel.is_canceled() {
                trip_instant("canceled", self.stage);
                return Err(VqiError::Canceled {
                    stage: self.stage.to_string(),
                });
            }
            if let Some(d) = self.deadline {
                if Instant::now() >= d {
                    trip_instant("deadline", self.stage);
                    return Err(VqiError::DeadlineExceeded {
                        stage: self.stage.to_string(),
                    });
                }
            }
        }
        Ok(())
    }
}

/// Runs one pipeline stage under the budget: checks the budget first,
/// honors an injected stage timeout, and isolates panics into
/// [`VqiError::Panic`].
///
/// The closure's own `Result` (if any) is the caller's to flatten;
/// this wrapper only adds the budget/panic envelope.
pub fn run_stage<T>(budget: &Budget, stage: &str, f: impl FnOnce() -> T) -> Result<T, VqiError> {
    budget.check(stage)?;
    if crate::fault::maybe_timeout(stage, 0) {
        if vqi_observe::journal_recording() {
            vqi_observe::instant(&format!("fault.timeout:{stage}"));
        }
        return Err(VqiError::DeadlineExceeded {
            stage: stage.to_string(),
        });
    }
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)) {
        Ok(v) => Ok(v),
        Err(payload) => {
            if vqi_observe::journal_recording() {
                vqi_observe::instant(&format!("stage.panic:{stage}"));
            }
            Err(VqiError::Panic {
                stage: stage.to_string(),
                reason: crate::error::panic_reason(payload.as_ref()),
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_budget_never_trips() {
        let b = Budget::unlimited();
        assert!(b.is_unlimited());
        assert!(b.check("s").is_ok());
        let mut m = b.meter("kernel.test");
        for _ in 0..10_000 {
            assert!(m.tick().is_ok());
        }
    }

    #[test]
    fn tick_quota_trips_at_exactly_n() {
        let b = Budget::unlimited().with_kernel_ticks(5);
        assert!(!b.is_unlimited());
        let mut m = b.meter("kernel.test");
        for _ in 0..5 {
            assert!(m.tick().is_ok());
        }
        let err = m.tick().unwrap_err();
        assert_eq!(
            err,
            VqiError::QuotaExceeded {
                stage: "kernel.test".into()
            }
        );
        // each invocation gets a fresh meter: the quota is per-call
        let mut m2 = b.meter("kernel.test");
        assert!(m2.tick().is_ok());
    }

    #[test]
    fn deadline_accessors_report_the_budget() {
        let b = Budget::unlimited();
        assert!(b.deadline().is_none());
        assert!(b.remaining().is_none());
        let b = Budget::unlimited().with_deadline_ms(60_000);
        let d = b.deadline().expect("deadline set");
        assert!(d > Instant::now());
        let left = b.remaining().expect("remaining set");
        assert!(left > Duration::from_secs(1) && left <= Duration::from_secs(60));
        let expired = Budget::unlimited().with_deadline_ms(0);
        std::thread::sleep(Duration::from_millis(2));
        assert_eq!(expired.remaining(), Some(Duration::ZERO));
    }

    #[test]
    fn cancel_is_seen_by_check_and_meter() {
        let token = CancelToken::new();
        let b = Budget::unlimited().with_cancel(token.clone());
        assert!(b.check("s").is_ok());
        token.cancel();
        assert!(matches!(b.check("s"), Err(VqiError::Canceled { .. })));
        let mut m = b.meter("kernel.test");
        let mut tripped = None;
        for _ in 0..(POLL_INTERVAL * 2) {
            if let Err(e) = m.tick() {
                tripped = Some(e);
                break;
            }
        }
        assert!(matches!(tripped, Some(VqiError::Canceled { .. })));
    }

    #[test]
    fn expired_deadline_trips_immediately() {
        let b = Budget::unlimited().with_deadline_ms(0);
        std::thread::sleep(Duration::from_millis(2));
        assert!(matches!(
            b.check("s"),
            Err(VqiError::DeadlineExceeded { .. })
        ));
        let mut m = b.meter("kernel.test");
        let mut tripped = false;
        for _ in 0..(POLL_INTERVAL * 2) {
            if m.tick().is_err() {
                tripped = true;
                break;
            }
        }
        assert!(tripped);
    }

    #[test]
    fn run_stage_isolates_panics() {
        let b = Budget::unlimited();
        assert_eq!(run_stage(&b, "ok", || 7).unwrap(), 7);
        let err = run_stage(&b, "bad", || -> i32 { panic!("kaboom") }).unwrap_err();
        match err {
            VqiError::Panic { stage, reason } => {
                assert_eq!(stage, "bad");
                assert_eq!(reason, "kaboom");
            }
            other => panic!("expected panic error, got {other:?}"),
        }
    }

    #[test]
    fn run_stage_respects_budget_before_running() {
        let token = CancelToken::new();
        token.cancel();
        let b = Budget::unlimited().with_cancel(token);
        let mut ran = false;
        let r = run_stage(&b, "s", || ran = true);
        assert!(matches!(r, Err(VqiError::Canceled { .. })));
        assert!(!ran);
    }
}
