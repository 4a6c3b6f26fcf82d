//! Snapshot types and exporters.
//!
//! A [`MetricsReport`] is a point-in-time copy of the registry, cheap
//! to clone and safe to hold across further recording. It renders as a
//! human-readable table ([`MetricsReport::render_table`]) or as JSON
//! ([`MetricsReport::to_json`]). Span nesting is not part of it: the
//! trace journal's [`profile`](crate::profile) holds the span tree.

use crate::histogram::{bucket_upper_bound, HistogramSnapshot};
use crate::json::{Json, ToJson};
use std::collections::BTreeMap;

/// A point-in-time snapshot of every metric in a registry.
#[derive(Debug, Clone, Default)]
pub struct MetricsReport {
    /// Monotonic counters by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauges by name.
    pub gauges: BTreeMap<String, i64>,
    /// User-value histograms by name (unit defined by the call site).
    pub values: BTreeMap<String, HistogramSnapshot>,
    /// Span wall-time histograms by span name, in nanoseconds.
    pub spans: BTreeMap<String, HistogramSnapshot>,
}

/// Formats nanoseconds as a compact human duration.
pub fn fmt_ns(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.0}ns")
    } else if ns < 1_000_000.0 {
        format!("{:.1}us", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:.1}ms", ns / 1_000_000.0)
    } else {
        format!("{:.2}s", ns / 1_000_000_000.0)
    }
}

impl MetricsReport {
    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
            && self.gauges.is_empty()
            && self.values.is_empty()
            && self.spans.is_empty()
    }

    /// Subtracts an earlier snapshot of the *same* registry, leaving
    /// only what was recorded in between — this is how the CLI turns
    /// process-lifetime aggregates into per-run metrics. Counters and
    /// histograms subtract (entries with a zero count delta are
    /// omitted); gauges are *levels*, not totals, so the
    /// current value is kept as-is for any gauge that changed.
    pub fn delta(&self, baseline: &MetricsReport) -> MetricsReport {
        let mut d = MetricsReport::default();
        for (k, &v) in &self.counters {
            let dv = v.saturating_sub(baseline.counters.get(k).copied().unwrap_or(0));
            if dv > 0 {
                d.counters.insert(k.clone(), dv);
            }
        }
        for (k, &v) in &self.gauges {
            if baseline.gauges.get(k) != Some(&v) {
                d.gauges.insert(k.clone(), v);
            }
        }
        let empty = HistogramSnapshot::empty();
        for (k, h) in &self.values {
            let dh = h.delta(baseline.values.get(k).unwrap_or(&empty));
            if dh.count > 0 {
                d.values.insert(k.clone(), dh);
            }
        }
        for (k, h) in &self.spans {
            let dh = h.delta(baseline.spans.get(k).unwrap_or(&empty));
            if dh.count > 0 {
                d.spans.insert(k.clone(), dh);
            }
        }
        d
    }

    /// Renders the report as an aligned text table.
    pub fn render_table(&self) -> String {
        let mut out = String::from("== metrics ==\n");
        if self.is_empty() {
            out.push_str("(nothing recorded; is the registry enabled?)\n");
            return out;
        }
        let name_w = self
            .spans
            .keys()
            .chain(self.values.keys())
            .chain(self.counters.keys())
            .chain(self.gauges.keys())
            .map(|k| k.len())
            .max()
            .unwrap_or(4)
            .max(4);

        if !self.spans.is_empty() {
            out.push_str(&format!(
                "spans (wall time)\n{:<name_w$}  {:>8}  {:>9}  {:>9}  {:>9}  {:>9}\n",
                "name", "count", "mean", "p50", "p90", "max"
            ));
            for (name, h) in &self.spans {
                out.push_str(&format!(
                    "{name:<name_w$}  {:>8}  {:>9}  {:>9}  {:>9}  {:>9}\n",
                    h.count,
                    fmt_ns(h.mean()),
                    fmt_ns(h.quantile(0.5) as f64),
                    fmt_ns(h.quantile(0.9) as f64),
                    fmt_ns(h.max as f64),
                ));
            }
        }
        if !self.counters.is_empty() {
            out.push_str(&format!("counters\n{:<name_w$}  {:>12}\n", "name", "value"));
            for (name, v) in &self.counters {
                out.push_str(&format!("{name:<name_w$}  {v:>12}\n"));
            }
        }
        if !self.gauges.is_empty() {
            out.push_str(&format!("gauges\n{:<name_w$}  {:>12}\n", "name", "value"));
            for (name, v) in &self.gauges {
                out.push_str(&format!("{name:<name_w$}  {v:>12}\n"));
            }
        }
        if !self.values.is_empty() {
            out.push_str(&format!(
                "value histograms\n{:<name_w$}  {:>8}  {:>12}  {:>12}  {:>12}\n",
                "name", "count", "mean", "p50", "max"
            ));
            for (name, h) in &self.values {
                out.push_str(&format!(
                    "{name:<name_w$}  {:>8}  {:>12.1}  {:>12}  {:>12}\n",
                    h.count,
                    h.mean(),
                    h.quantile(0.5),
                    h.max,
                ));
            }
        }
        out
    }

    /// Serializes the report as a self-contained JSON document.
    pub fn to_json(&self) -> String {
        fn map<T>(m: &BTreeMap<String, T>, f: impl Fn(&T) -> Json) -> Json {
            Json::Object(m.iter().map(|(k, v)| (k.clone(), f(v))).collect())
        }
        Json::object([
            ("counters", map(&self.counters, ToJson::to_json)),
            ("gauges", map(&self.gauges, ToJson::to_json)),
            ("spans", map(&self.spans, |h| histogram_json(h, "_ns"))),
            ("values", map(&self.values, |h| histogram_json(h, ""))),
        ])
        .pretty()
    }
}

/// One histogram: count, then `unit`-suffixed sum/min/max/mean and
/// quantiles, then the non-empty buckets as `[upper bound, count]`.
fn histogram_json(h: &HistogramSnapshot, unit: &str) -> Json {
    let buckets = h.buckets.iter().enumerate().filter(|(_, &n)| n > 0);
    let buckets = buckets.map(|(b, &n)| vec![bucket_upper_bound(b), n].to_json());
    let mut members = vec![("count".to_string(), h.count.to_json())];
    for (name, v) in [
        ("sum", h.sum.to_json()),
        ("min", h.min.to_json()),
        ("max", h.max.to_json()),
        ("mean", h.mean().to_json()),
        ("p50", h.quantile(0.5).to_json()),
        ("p90", h.quantile(0.9).to_json()),
        ("p99", h.quantile(0.99).to_json()),
    ] {
        members.push((format!("{name}{unit}"), v));
    }
    members.push(("buckets".to_string(), Json::Array(buckets.collect())));
    Json::Object(members)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::histogram::Histogram;

    fn sample_report() -> MetricsReport {
        let mut r = MetricsReport::default();
        r.counters.insert("catapult.walk.candidates".into(), 120);
        r.gauges.insert("tattoo.map.in_flight".into(), 0);
        let h = Histogram::new();
        for v in [1_000_000u64, 2_000_000, 4_000_000] {
            h.record(v);
        }
        r.spans.insert("catapult.mine".into(), h.snapshot());
        r.values.insert("catapult.walk.size".into(), h.snapshot());
        r
    }

    #[test]
    fn table_contains_all_sections() {
        let t = sample_report().render_table();
        assert!(t.contains("spans (wall time)"));
        assert!(t.contains("catapult.mine"));
        assert!(t.contains("counters"));
        assert!(t.contains("catapult.walk.candidates"));
        assert!(t.contains("gauges"));
        assert!(t.contains("tattoo.map.in_flight"));
        assert!(t.contains("value histograms"));
        assert!(t.contains("catapult.walk.size"));
    }

    #[test]
    fn empty_report_renders_hint() {
        let t = MetricsReport::default().render_table();
        assert!(t.contains("nothing recorded"));
    }

    #[test]
    fn json_is_structured_and_balanced() {
        let mut r = sample_report();
        r.counters.insert("big".into(), u64::MAX);
        let j = r.to_json();
        assert!(
            j.contains("\"big\": 18446744073709551615"),
            "integers stay exact"
        );
        assert!(j.contains("\"counters\""));
        assert!(j.contains("\"catapult.walk.candidates\": 120"));
        assert!(j.contains("\"spans\""));
        assert!(j.contains("\"p50_ns\""));
        assert!(j.contains("\"gauges\""));
        assert!(j.contains("\"values\""));
        assert!(j.contains("\"sum_ns\": 7000000"));
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert_eq!(j.matches('[').count(), j.matches(']').count());
    }

    #[test]
    fn delta_reports_only_what_changed() {
        let before = sample_report();
        let mut after = before.clone();
        *after.counters.get_mut("catapult.walk.candidates").unwrap() += 30;
        after.counters.insert("fault.injected".into(), 2);
        after.gauges.insert("tattoo.map.in_flight".into(), 4);
        let h = Histogram::new();
        for v in [1_000_000u64, 2_000_000, 4_000_000, 8_000_000] {
            h.record(v);
        }
        after.spans.insert("catapult.mine".into(), h.snapshot());

        let d = after.delta(&before);
        assert_eq!(d.counters["catapult.walk.candidates"], 30);
        assert_eq!(d.counters["fault.injected"], 2);
        assert_eq!(d.gauges["tattoo.map.in_flight"], 4, "gauges keep level");
        assert_eq!(d.spans["catapult.mine"].count, 1, "one new span");
        assert_eq!(d.spans["catapult.mine"].sum, 8_000_000);
        // the unchanged value histogram is omitted entirely
        assert!(!d.values.contains_key("catapult.walk.size"));
        // a no-op delta is empty
        assert!(before.delta(&before).is_empty());
    }

    #[test]
    fn duration_formatting() {
        assert_eq!(fmt_ns(500.0), "500ns");
        assert_eq!(fmt_ns(1_500.0), "1.5us");
        assert_eq!(fmt_ns(2_500_000.0), "2.5ms");
        assert_eq!(fmt_ns(3_200_000_000.0), "3.20s");
    }
}
