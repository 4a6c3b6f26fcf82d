//! Lightweight wall-time spans.
//!
//! [`span`](crate::span) returns a guard; when the guard drops — on
//! normal scope exit *or* during unwinding — the elapsed wall time is
//! recorded into the span's log-scale histogram (keyed by the span
//! name) and, while the trace journal is recording, as the span's End
//! event. Parent/child structure lives only in the journal, which
//! parents spans across `par` workers. With metrics disabled the guard
//! is a no-op `None` and entering costs one relaxed load.

use crate::histogram::Histogram;
use crate::registry::Registry;
use std::sync::Arc;
use std::time::Instant;

/// A live span; records on drop.
#[derive(Debug)]
#[must_use = "a span records when the guard drops; bind it with `let _span = ...`"]
pub struct SpanGuard {
    inner: Option<SpanInner>,
}

#[derive(Debug)]
struct SpanInner {
    histogram: Arc<Histogram>,
    start: Instant,
    /// Journal bookkeeping when the trace journal is recording.
    journal: Option<crate::journal::JournalSpan>,
}

impl SpanGuard {
    /// A disabled, no-op guard.
    pub(crate) fn noop() -> Self {
        SpanGuard { inner: None }
    }

    /// Opens a span on the global registry (the public entry point is
    /// [`crate::span`], which checks the enabled flag first).
    pub(crate) fn enter(name: &str) -> Self {
        let histogram = Registry::global().span_histogram(name);
        let journal = crate::journal::begin_span(name);
        SpanGuard {
            inner: Some(SpanInner {
                histogram,
                start: Instant::now(),
                journal,
            }),
        }
    }

    /// Wall time since the span opened (zero for a no-op guard).
    pub fn elapsed(&self) -> std::time::Duration {
        self.inner
            .as_ref()
            .map(|s| s.start.elapsed())
            .unwrap_or_default()
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(inner) = self.inner.take() else {
            return;
        };
        let ns = inner.start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        if let Some(journal) = inner.journal {
            crate::journal::end_span(journal);
        }
        inner.histogram.record(ns);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tests toggle the global enabled flag; serialize them (shared
    /// with every other test that does).
    fn lock() -> std::sync::MutexGuard<'static, ()> {
        crate::test_lock()
    }

    /// Runs `f` with metrics and the journal armed and returns the
    /// journal's profile of it; recording is left off.
    fn profiled(f: impl FnOnce()) -> crate::Profile {
        crate::set_enabled(true);
        crate::set_journal_enabled(true);
        crate::journal_reset();
        f();
        let events = crate::journal_events();
        crate::set_journal_enabled(false);
        crate::set_enabled(false);
        crate::journal_reset();
        crate::profile(&events, None)
    }

    #[test]
    fn span_records_histogram_and_tree() {
        let _l = lock();
        let p = profiled(|| {
            let _outer = crate::span("spantest.outer");
            let _inner = crate::span("spantest.inner");
            std::thread::sleep(std::time::Duration::from_millis(1));
        });
        let s = Registry::global().snapshot();
        assert_eq!(s.spans["spantest.outer"].count, 1);
        assert_eq!(s.spans["spantest.inner"].count, 1);
        assert!(s.spans["spantest.inner"].max >= 1_000_000, "slept >= 1ms");
        let nested = &p.nodes["spantest.outer/spantest.inner"];
        assert!(p.nodes["spantest.outer"].total_ns >= nested.total_ns);
    }

    #[test]
    fn disabled_span_is_noop() {
        let _l = lock();
        Registry::global().set_enabled(false);
        {
            let g = crate::span("spantest.disabled");
            assert_eq!(g.elapsed(), std::time::Duration::ZERO);
        }
        let s = Registry::global().snapshot();
        assert!(!s.spans.contains_key("spantest.disabled"));
    }

    #[test]
    fn span_records_during_unwinding() {
        let _l = lock();
        crate::set_enabled(true);
        crate::set_journal_enabled(true);
        let before = crate::current_ctx();
        let result = std::panic::catch_unwind(|| {
            let _g = crate::span("spantest.unwind");
            panic!("boom");
        });
        // the unwound span must not stay the thread's open context
        let after = crate::current_ctx();
        crate::set_journal_enabled(false);
        crate::set_enabled(false);
        crate::journal_reset();
        assert!(result.is_err());
        assert_eq!(after, before);
        let s = Registry::global().snapshot();
        assert_eq!(s.spans["spantest.unwind"].count, 1);
    }

    #[test]
    fn sibling_spans_share_a_parentless_path() {
        let _l = lock();
        let p = profiled(|| {
            {
                let _a = crate::span("spantest.sib");
            }
            {
                let _b = crate::span("spantest.sib");
            }
        });
        assert_eq!(Registry::global().snapshot().spans["spantest.sib"].count, 2);
        assert_eq!(p.nodes["spantest.sib"].count, 2);
    }
}
