//! `vqi-observe` — spans, counters, and stage-level metrics for the
//! pattern-selection pipelines.
//!
//! Every pipeline in this workspace (CATAPULT, TATTOO, MIDAS, the
//! modular assembly) reports into one global, thread-safe
//! [`Registry`]: named [`Counter`]s and [`Gauge`]s, log-scale
//! [`Histogram`]s, and one wall-time histogram per span name.
//! Snapshots export as an aligned text table or JSON via
//! [`MetricsReport`]. Span nesting is recorded once, by the trace
//! [`journal`]: its events parent across `par` workers, and
//! [`profile`] folds them into the span tree (count, total and self
//! time per `/`-joined path, plus the critical path).
//!
//! Recording is **off by default** and gated by one relaxed atomic
//! load, so instrumented hot paths cost nothing measurable until
//! [`set_enabled`]`(true)` (the CLI's `--metrics` flag, the `exp_*`
//! harnesses, or a test) turns them on.
//!
//! Metric names follow `<system>.<phase>.<metric>` — e.g.
//! `tattoo.truss_decompose` (a span), `catapult.walk.candidates` (a
//! counter), `tattoo.shard.in_flight` (a gauge). The [`mem`] module adds
//! the `mem.*` gauge family: per-structure byte counts and process RSS
//! sampled from `/proc/self/status`.
//!
//! ```
//! vqi_observe::set_enabled(true);
//! {
//!     let _span = vqi_observe::span("demo.phase");
//!     vqi_observe::incr("demo.phase.items", 3);
//! }
//! let report = vqi_observe::snapshot();
//! assert_eq!(report.counters["demo.phase.items"], 3);
//! assert_eq!(report.spans["demo.phase"].count, 1);
//! vqi_observe::set_enabled(false);
//! ```
//!
//! The crate is intentionally dependency-free (`std` only); its
//! [`json`] module is the workspace's one JSON writer and reader.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod counter;
mod histogram;
pub mod journal;
pub mod json;
pub mod mem;
mod registry;
mod report;
mod span;

pub use counter::{Counter, Gauge};
pub use histogram::{bucket_index, bucket_upper_bound, Histogram, HistogramSnapshot, BUCKETS};
pub use journal::{
    chrome_trace, ctx_scope, current_ctx, event_multiset, folded_stacks, instant, journal_dropped,
    journal_enabled, journal_events, journal_recording, journal_reset, profile, run,
    set_journal_capacity, set_journal_enabled, validate_chrome_trace, CtxScope, Event, EventKind,
    Profile, ProfileNode, RunGuard, TraceCtx, TraceStats,
};
pub use registry::Registry;
pub use report::{fmt_ns, MetricsReport};
pub use span::SpanGuard;

/// Whether the global registry is recording.
#[inline]
pub fn enabled() -> bool {
    Registry::global().is_enabled()
}

/// Turns recording on or off globally.
pub fn set_enabled(on: bool) {
    Registry::global().set_enabled(on);
}

/// Opens a wall-time span; the returned guard records into the
/// histogram named `name` when dropped, and into the trace journal
/// (which holds the span tree) while that is armed. A no-op guard is
/// returned while recording is disabled.
#[inline]
pub fn span(name: &str) -> SpanGuard {
    if !enabled() {
        return SpanGuard::noop();
    }
    SpanGuard::enter(name)
}

/// [`span`] taking deferred format arguments: the name is only
/// materialized when recording is enabled, and a literal with no
/// interpolations (`span!("kernel.canon")`) borrows the static string:
/// once its histogram is registered, such a span allocates nothing
/// while the journal is disarmed. Prefer the [`span!`] macro.
#[inline]
pub fn span_fmt(args: std::fmt::Arguments<'_>) -> SpanGuard {
    if !enabled() {
        return SpanGuard::noop();
    }
    match args.as_str() {
        Some(name) => SpanGuard::enter(name),
        None => SpanGuard::enter(&args.to_string()),
    }
}

/// Adds `by` to the counter named `name` (no-op while disabled).
#[inline]
pub fn incr(name: &str, by: u64) {
    if enabled() {
        Registry::global().counter(name).add(by);
    }
}

/// Adds `delta` to the gauge named `name` (no-op while disabled).
#[inline]
pub fn gauge_add(name: &str, delta: i64) {
    if enabled() {
        Registry::global().gauge(name).add(delta);
    }
}

/// Sets the gauge named `name` (no-op while disabled).
#[inline]
pub fn gauge_set(name: &str, value: i64) {
    if enabled() {
        Registry::global().gauge(name).set(value);
    }
}

/// Records `value` into the log-scale histogram named `name` (no-op
/// while disabled).
#[inline]
pub fn observe(name: &str, value: u64) {
    if enabled() {
        Registry::global().histogram(name).record(value);
    }
}

/// Times `f` under a span named `name`. The duration is always
/// returned (for harnesses that print timings); it is additionally
/// recorded into the registry when enabled — so experiment output and
/// metrics come from the same clock and cannot drift apart.
pub fn time<T>(name: &str, f: impl FnOnce() -> T) -> (T, std::time::Duration) {
    let start = std::time::Instant::now();
    let guard = span(name);
    let out = f();
    drop(guard);
    (out, start.elapsed())
}

/// A point-in-time snapshot of the global registry.
pub fn snapshot() -> MetricsReport {
    Registry::global().snapshot()
}

/// Clears every metric in the global registry.
pub fn reset() {
    Registry::global().reset();
}

/// Runs `work` with metrics and the trace journal armed and returns the
/// order-normalized aggregates a deterministic pipeline must reproduce
/// at any thread count: the journal [`profile`]'s `(span path, count)`
/// pairs (sorted by path) and the journal [`event_multiset`].
/// Durations and `kernel.par.*` dispatch counters legitimately vary
/// with the worker count and are excluded. The journal is cleared
/// before and after, the registry after, and recording is left off.
///
/// # Panics
///
/// If the journal dropped events: which events a full ring overwrites
/// depends on thread placement, so the aggregates would not compare.
pub fn invariant_aggregates(
    work: impl FnOnce(),
) -> (Vec<(String, u64)>, std::collections::BTreeMap<String, u64>) {
    set_enabled(true);
    set_journal_enabled(true);
    journal_reset();
    work();
    let events = journal_events();
    let dropped = journal_dropped();
    set_journal_enabled(false);
    set_enabled(false);
    journal_reset();
    reset();
    assert_eq!(
        dropped, 0,
        "the journal dropped events; the aggregates would not compare"
    );
    let paths = profile(&events, None).nodes.into_iter();
    let paths = paths.map(|(path, node)| (path, node.count)).collect();
    (paths, event_multiset(&events))
}

/// Opens a span with a formatted name, deferring the formatting until
/// recording is known to be enabled:
///
/// ```
/// let stage = "cluster";
/// let _span = vqi_observe::span!("modular.{stage}");
/// ```
#[macro_export]
macro_rules! span {
    ($($arg:tt)*) => {
        $crate::span_fmt(::std::format_args!($($arg)*))
    };
}

/// Increments a counter whose name may be a formatted expression; the
/// name expression is only evaluated while recording is enabled:
///
/// ```
/// vqi_observe::count!(format!("demo.class.{}", 3), 1);
/// ```
#[macro_export]
macro_rules! count {
    ($name:expr, $by:expr) => {
        if $crate::enabled() {
            $crate::incr(::std::convert::AsRef::<str>::as_ref(&$name), $by as u64);
        }
    };
}

/// Serializes tests that toggle the global enabled flag or arm the
/// process-global journal: the registry is one per process, so a test
/// flipping `set_enabled` mid-flight would silently drop another
/// test's spans.
#[cfg(test)]
pub(crate) fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    #[test]
    fn disabled_instruments_record_nothing() {
        let _l = super::test_lock();
        super::set_enabled(false);
        super::incr("libtest.disabled.counter", 7);
        super::observe("libtest.disabled.hist", 7);
        super::gauge_add("libtest.disabled.gauge", 7);
        let s = super::snapshot();
        assert!(!s.counters.contains_key("libtest.disabled.counter"));
        assert!(!s.values.contains_key("libtest.disabled.hist"));
        assert!(!s.gauges.contains_key("libtest.disabled.gauge"));
    }

    #[test]
    fn time_returns_duration_even_when_disabled() {
        let _l = super::test_lock();
        super::set_enabled(false);
        let (v, d) = super::time("libtest.timed", || 41 + 1);
        assert_eq!(v, 42);
        assert!(d.as_nanos() > 0);
        assert!(!super::snapshot().spans.contains_key("libtest.timed"));
    }

    #[test]
    fn count_macro_defers_name_construction() {
        let _l = super::test_lock();
        super::set_enabled(true);
        super::count!(format!("libtest.class.{}", 2), 2);
        super::count!("libtest.plain", 1);
        super::set_enabled(false);
        let s = super::snapshot();
        assert_eq!(s.counters["libtest.class.2"], 2);
        assert_eq!(s.counters["libtest.plain"], 1);
    }
}
