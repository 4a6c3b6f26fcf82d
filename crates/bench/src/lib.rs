//! Shared support for the experiment harnesses.
//!
//! Every `exp_*` binary prints a human-readable table to stdout and
//! writes the same rows as JSON under `target/experiments/` so
//! EXPERIMENTS.md can be regenerated mechanically. Output paths are
//! relative to the working directory, so run the binaries from the
//! checkout whose files they should write.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::path::PathBuf;
use vqi_observe::json::{Json, ToJson};

/// Prints a fixed-width table.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("== {title} ==");
    let widths: Vec<usize> = headers
        .iter()
        .enumerate()
        .map(|(i, h)| {
            rows.iter()
                .map(|r| r.get(i).map_or(0, |c| c.len()))
                .chain(std::iter::once(h.len()))
                .max()
                .unwrap_or(0)
        })
        .collect();
    let fmt_row = |cells: &[String]| {
        cells
            .iter()
            .zip(widths.iter())
            .map(|(c, w)| format!("{c:>w$}"))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let headers: Vec<String> = headers.iter().map(|h| h.to_string()).collect();
    println!("{}", fmt_row(&headers));
    for r in rows {
        println!("{}", fmt_row(r));
    }
    println!();
}

/// Directory for machine-readable experiment outputs:
/// `target/experiments` under the working directory.
pub fn experiments_dir() -> PathBuf {
    let dir = PathBuf::from("target/experiments");
    std::fs::create_dir_all(&dir).expect("create experiments dir");
    dir
}

/// Writes a record as `target/experiments/<name>.json`.
pub fn write_json<T: ToJson + ?Sized>(name: &str, value: &T) {
    let path = experiments_dir().join(format!("{name}.json"));
    std::fs::write(&path, value.to_json().pretty()).expect("write experiment json");
    println!("(wrote {})", path.display());
}

/// Writes `doc` as `BENCH_<name>.json` in the working directory (the
/// repository root when run from there).
pub fn write_bench_json(name: &str, doc: &Json) {
    let path = PathBuf::from(format!("BENCH_{name}.json"));
    std::fs::write(&path, doc.pretty() + "\n").expect("write BENCH json");
    println!("(wrote {})", path.display());
}

/// A JSON object of named numbers.
pub fn numbers(members: &[(&str, f64)]) -> Json {
    Json::object(members.iter().map(|&(k, v)| (k, v.to_json())))
}

/// Prints the recorded counters whose names start with one of
/// `prefixes`, in name order, and returns them as a JSON object.
pub fn report_counters(prefixes: &[&str]) -> Json {
    let counters = vqi_observe::snapshot().counters.into_iter();
    let picked = counters.filter(|(name, _)| prefixes.iter().any(|p| name.starts_with(p)));
    let picked = picked.inspect(|(name, v)| println!("  {name} = {v}"));
    Json::Object(picked.map(|(name, v)| (name, v.to_json())).collect())
}

/// Milliseconds elapsed by `f`, with the result.
pub fn time_ms<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = std::time::Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64() * 1e3)
}

/// Like [`time_ms`], but the measurement also lands in the
/// `vqi-observe` registry as a span named `name`, so the experiment's
/// reported number and the metrics snapshot come from the same clock.
pub fn timed_ms<T>(name: &str, f: impl FnOnce() -> T) -> (T, f64) {
    let (out, d) = vqi_observe::time(name, f);
    (out, d.as_secs_f64() * 1e3)
}

/// Turns on metrics recording for an experiment binary and clears any
/// leftovers, so each `exp_*` run starts from an empty registry.
pub fn enable_metrics() {
    vqi_observe::reset();
    vqi_observe::set_enabled(true);
}

/// Writes the current metrics snapshot as
/// `target/experiments/<name>_metrics.json` — the same JSON the CLI
/// emits under `--metrics=json`.
pub fn write_metrics_json(name: &str) {
    let path = experiments_dir().join(format!("{name}_metrics.json"));
    std::fs::write(&path, vqi_observe::snapshot().to_json()).expect("write metrics json");
    println!("(wrote {})", path.display());
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The vqi-observe registry is global; tests that reset it must not
    /// interleave.
    static METRICS_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn table_prints_without_panic() {
        print_table("t", &["a", "long-header"], &[vec!["1".into(), "2".into()]]);
    }

    #[test]
    fn timing_returns_result() {
        let (v, ms) = time_ms(|| 41 + 1);
        assert_eq!(v, 42);
        assert!(ms >= 0.0);
    }

    #[test]
    fn timed_ms_records_a_span() {
        let _guard = METRICS_LOCK.lock().unwrap();
        enable_metrics();
        let (v, ms) = timed_ms("benchtest.block", || 6 * 7);
        vqi_observe::set_enabled(false);
        assert_eq!(v, 42);
        assert!(ms >= 0.0);
        let s = vqi_observe::snapshot();
        assert!(s.spans.contains_key("benchtest.block"));
        write_metrics_json("benchtest");
        let text =
            std::fs::read_to_string(experiments_dir().join("benchtest_metrics.json")).unwrap();
        let parsed = vqi_observe::json::Json::parse(&text).unwrap();
        assert!(
            parsed["spans"]["benchtest.block"]["count"]
                .as_u64()
                .unwrap()
                >= 1
        );
        vqi_observe::reset();
    }

    #[test]
    fn json_write_round_trips() {
        write_json("selftest", &vec![1, 2, 3]);
        let text = std::fs::read_to_string(experiments_dir().join("selftest.json")).unwrap();
        let back = vqi_observe::json::Json::parse(&text).unwrap();
        assert_eq!(back, vec![1, 2, 3].to_json());
    }
}
