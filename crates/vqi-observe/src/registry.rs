//! The global metric registry.
//!
//! One process-wide [`Registry`] owns every named counter, gauge,
//! histogram, and span histogram. Handles are `Arc`s,
//! so the maps are only touched on first registration (read-mostly
//! `RwLock`); the hot path of every instrument is a relaxed atomic on
//! the handle itself.

use crate::counter::{Counter, Gauge};
use crate::histogram::Histogram;
use crate::report::MetricsReport;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock, PoisonError, RwLock};

/// A named-metric registry. Usually accessed through [`Registry::global`].
#[derive(Debug, Default)]
pub struct Registry {
    enabled: AtomicBool,
    counters: RwLock<HashMap<String, Arc<Counter>>>,
    gauges: RwLock<HashMap<String, Arc<Gauge>>>,
    /// User-value histograms (counts, sizes, scores scaled to integers).
    histograms: RwLock<HashMap<String, Arc<Histogram>>>,
    /// Span wall-time histograms, keyed by span name, in nanoseconds.
    spans: RwLock<HashMap<String, Arc<Histogram>>>,
}

/// Takes a read guard, recovering from poisoning: the maps only ever
/// hold fully-inserted `Arc` handles, so a panic while a guard was
/// held (e.g. inside a `catch_unwind`-isolated pipeline stage) leaves
/// them structurally intact and safe to keep using. Without this, one
/// poisoned lock would cascade a metrics panic into every later run.
fn read<T>(lock: &RwLock<T>) -> std::sync::RwLockReadGuard<'_, T> {
    lock.read().unwrap_or_else(PoisonError::into_inner)
}

fn write<T>(lock: &RwLock<T>) -> std::sync::RwLockWriteGuard<'_, T> {
    lock.write().unwrap_or_else(PoisonError::into_inner)
}

fn lookup<T: Default>(map: &RwLock<HashMap<String, Arc<T>>>, name: &str) -> Arc<T> {
    if let Some(v) = read(map).get(name) {
        return Arc::clone(v);
    }
    let mut w = write(map);
    Arc::clone(w.entry(name.to_string()).or_default())
}

impl Registry {
    /// A fresh, disabled registry (tests; production code uses
    /// [`Registry::global`]).
    pub fn new() -> Self {
        Registry::default()
    }

    /// The process-wide registry.
    pub fn global() -> &'static Registry {
        static GLOBAL: OnceLock<Registry> = OnceLock::new();
        GLOBAL.get_or_init(Registry::new)
    }

    /// Whether recording is on. Every free-function instrument checks
    /// this first, so a disabled registry costs one relaxed load.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Turns recording on or off.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// The counter registered under `name` (created on first use).
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        lookup(&self.counters, name)
    }

    /// The gauge registered under `name`.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        lookup(&self.gauges, name)
    }

    /// The value histogram registered under `name`.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        lookup(&self.histograms, name)
    }

    /// The span-duration histogram registered under `name`.
    pub fn span_histogram(&self, name: &str) -> Arc<Histogram> {
        lookup(&self.spans, name)
    }

    /// A point-in-time report of everything recorded so far.
    pub fn snapshot(&self) -> MetricsReport {
        let mut report = MetricsReport::default();
        for (k, v) in read(&self.counters).iter() {
            report.counters.insert(k.clone(), v.get());
        }
        for (k, v) in read(&self.gauges).iter() {
            report.gauges.insert(k.clone(), v.get());
        }
        for (k, v) in read(&self.histograms).iter() {
            if v.count() > 0 {
                report.values.insert(k.clone(), v.snapshot());
            }
        }
        for (k, v) in read(&self.spans).iter() {
            if v.count() > 0 {
                report.spans.insert(k.clone(), v.snapshot());
            }
        }
        report
    }

    /// Clears every registered metric (the names stay registered).
    pub fn reset(&self) {
        for v in read(&self.counters).values() {
            v.reset();
        }
        for v in read(&self.gauges).values() {
            v.reset();
        }
        for v in read(&self.histograms).values() {
            v.reset();
        }
        for v in read(&self.spans).values() {
            v.reset();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registration_is_idempotent() {
        let r = Registry::new();
        r.counter("a.b.c").add(2);
        r.counter("a.b.c").add(3);
        assert_eq!(r.counter("a.b.c").get(), 5);
        assert!(Arc::ptr_eq(&r.counter("a.b.c"), &r.counter("a.b.c")));
    }

    #[test]
    fn snapshot_collects_all_kinds() {
        let r = Registry::new();
        r.counter("sys.phase.count").inc();
        r.gauge("sys.phase.inflight").set(3);
        r.histogram("sys.phase.size").record(17);
        r.span_histogram("sys.phase").record(1_000);
        let s = r.snapshot();
        assert_eq!(s.counters["sys.phase.count"], 1);
        assert_eq!(s.gauges["sys.phase.inflight"], 3);
        assert_eq!(s.values["sys.phase.size"].count, 1);
        assert_eq!(s.spans["sys.phase"].count, 1);
    }

    #[test]
    fn empty_histograms_are_omitted_from_snapshots() {
        let r = Registry::new();
        let _ = r.histogram("never.recorded");
        assert!(r.snapshot().values.is_empty());
    }

    #[test]
    fn reset_clears_values_keeps_names() {
        let r = Registry::new();
        let c = r.counter("x");
        c.add(9);
        r.histogram("h").record(4);
        r.reset();
        assert_eq!(c.get(), 0);
        assert_eq!(r.snapshot().values.len(), 0);
    }

    #[test]
    fn enabled_flag_round_trips() {
        let r = Registry::new();
        assert!(!r.is_enabled());
        r.set_enabled(true);
        assert!(r.is_enabled());
        r.set_enabled(false);
        assert!(!r.is_enabled());
    }

    #[test]
    fn recording_survives_a_poisoned_lock() {
        let r = Arc::new(Registry::new());
        r.counter("poison.before").add(1);
        // poison every map by panicking while holding its write guard,
        // as a panicking instrumented stage under catch_unwind would
        let rc = Arc::clone(&r);
        let _ = std::thread::spawn(move || {
            let _c = rc.counters.write().unwrap();
            let _g = rc.gauges.write().unwrap();
            let _h = rc.histograms.write().unwrap();
            let _s = rc.spans.write().unwrap();
            panic!("poison the registry");
        })
        .join();
        assert!(r.counters.is_poisoned(), "setup must actually poison");
        // every operation still works on the poisoned registry
        r.counter("poison.before").add(2);
        r.counter("poison.after").inc();
        r.gauge("poison.gauge").set(5);
        r.histogram("poison.hist").record(7);
        r.span_histogram("poison.span").record(1_000);
        let s = r.snapshot();
        assert_eq!(s.counters["poison.before"], 3);
        assert_eq!(s.counters["poison.after"], 1);
        assert_eq!(s.gauges["poison.gauge"], 5);
        assert_eq!(s.values["poison.hist"].count, 1);
        assert_eq!(s.spans["poison.span"].sum, 1_000);
        r.reset();
        assert_eq!(r.counter("poison.before").get(), 0);
    }

    #[test]
    fn concurrent_registration_and_increment() {
        let r = Arc::new(Registry::new());
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let r = Arc::clone(&r);
                std::thread::spawn(move || {
                    for i in 0..1_000 {
                        r.counter(&format!("c.{}", i % 10)).inc();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let total: u64 = r.snapshot().counters.values().sum();
        assert_eq!(total, 8_000);
    }
}
