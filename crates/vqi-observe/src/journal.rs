//! The run-scoped trace journal.
//!
//! While the [`Registry`](crate::Registry) keeps *aggregates*
//! (histograms, counters, gauges), the journal keeps the *events
//! themselves*, and with them the workspace's only span hierarchy:
//! span begin/end pairs and instant markers, each stamped with a
//! [`TraceCtx`] — `run_id` (one per pipeline run), `span_id` (one per
//! span occurrence), `parent_id` (the enclosing span occurrence).
//! Parentage is explicit rather than implied by
//! thread-local nesting, which is what lets spans opened on
//! `vqi_graph::par` worker threads parent correctly under the span
//! that forked them: the executor captures [`current_ctx`] before
//! spawning and re-installs it on each worker via [`ctx_scope`].
//!
//! Storage is a **sharded, bounded ring buffer**: threads append to
//! one of [`SHARDS`] mutex-protected rings (picked by thread id, so a
//! thread's events stay in order within its shard) and the oldest
//! events are overwritten when a shard fills ([`journal_dropped`]
//! counts the losses). Recording is off by default; the disabled path
//! of every hook is one relaxed atomic load.
//!
//! On top of the raw events this module builds:
//!
//! * [`profile`] — per-run total vs. **self** time per span path,
//!   invocation counts, and the critical path;
//! * [`chrome_trace`] — the Chrome `trace_event` JSON format
//!   (`chrome://tracing`, Perfetto);
//! * [`folded_stacks`] — flamegraph collapsed-stacks text
//!   (`path;to;span <self_ns>`);
//! * [`validate_chrome_trace`] — a dependency-free checker (balanced
//!   begin/end per thread, monotone timestamps, resolvable parents)
//!   used by `ci.sh` and the CLI tests;
//! * [`event_multiset`] — an order-normalized `(kind, name, parent)`
//!   multiset, the comparison key of the thread-count-invariance
//!   tests.

use crate::json::{escape, Json};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};
use std::time::Instant;

/// Number of ring-buffer shards (threads map onto shards by id).
pub const SHARDS: usize = 8;

/// Default total journal capacity, in events, across all shards.
pub const DEFAULT_CAPACITY: usize = 1 << 16;

/// The explicit trace position handle: which run this is, which span
/// occurrence is open, and what that span's parent occurrence is.
///
/// A `TraceCtx` is `Copy` and meaningful on any thread — capture it
/// with [`current_ctx`] before handing work to another thread and
/// re-install it there with [`ctx_scope`]; spans opened inside the
/// scope parent under `span_id`. Id `0` means "none" everywhere.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceCtx {
    /// The run this context belongs to (`0` = outside any run).
    pub run_id: u64,
    /// The innermost open span occurrence (`0` = no open span).
    pub span_id: u64,
    /// The parent occurrence of `span_id` (`0` = root).
    pub parent_id: u64,
}

/// What a journal event marks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A span opened; `span_id` identifies the occurrence.
    Begin,
    /// The span occurrence `span_id` closed.
    End,
    /// A point event (injected fault, budget trip, retry, …) attached
    /// under `parent_id`.
    Instant,
}

impl EventKind {
    /// Short lowercase label (used by multisets and debugging).
    pub fn label(self) -> &'static str {
        match self {
            EventKind::Begin => "begin",
            EventKind::End => "end",
            EventKind::Instant => "instant",
        }
    }
}

/// One journal entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// Global record sequence number (total order of recording).
    pub seq: u64,
    /// Nanoseconds since the process-wide journal epoch.
    pub ts_ns: u64,
    /// Small dense id of the recording thread.
    pub tid: u32,
    /// Begin / End / Instant.
    pub kind: EventKind,
    /// Run the event belongs to (`0` = ambient).
    pub run_id: u64,
    /// Span occurrence id (`0` for instants).
    pub span_id: u64,
    /// Enclosing span occurrence (`0` = root).
    pub parent_id: u64,
    /// Span or marker name.
    pub name: String,
}

// ---------------------------------------------------------------------------
// global state
// ---------------------------------------------------------------------------

/// Whether the journal is armed. Recording additionally requires the
/// registry's master enabled flag, so the common disabled path of an
/// instrumented site is exactly one relaxed load (the master flag).
static ARMED: AtomicBool = AtomicBool::new(false);

/// Span/run occurrence ids; `0` is reserved for "none".
static NEXT_SPAN: AtomicU64 = AtomicU64::new(1);
static NEXT_RUN: AtomicU64 = AtomicU64::new(1);
static NEXT_SEQ: AtomicU64 = AtomicU64::new(0);
static NEXT_TID: AtomicU32 = AtomicU32::new(0);
static DROPPED: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// The innermost trace context open on this thread.
    static CURRENT: Cell<TraceCtx> = const { Cell::new(TraceCtx { run_id: 0, span_id: 0, parent_id: 0 }) };
    /// Dense per-thread id (assigned on first journal record).
    static TID: Cell<u32> = const { Cell::new(u32::MAX) };
}

fn thread_index() -> u32 {
    TID.with(|t| {
        let v = t.get();
        if v != u32::MAX {
            return v;
        }
        let v = NEXT_TID.fetch_add(1, Ordering::Relaxed);
        t.set(v);
        v
    })
}

fn epoch() -> &'static Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now)
}

/// One bounded ring of events.
#[derive(Debug, Default)]
struct Shard {
    buf: Vec<Event>,
    /// Next overwrite position once `buf.len() == cap`.
    head: usize,
}

struct Journal {
    shards: [Mutex<Shard>; SHARDS],
    /// Per-shard capacity (total capacity / SHARDS, at least 1).
    shard_cap: AtomicU64,
}

impl Journal {
    fn global() -> &'static Journal {
        static GLOBAL: OnceLock<Journal> = OnceLock::new();
        GLOBAL.get_or_init(|| Journal {
            shards: std::array::from_fn(|_| Mutex::new(Shard::default())),
            shard_cap: AtomicU64::new((DEFAULT_CAPACITY / SHARDS) as u64),
        })
    }

    fn push(&self, e: Event) {
        let cap = (self.shard_cap.load(Ordering::Relaxed) as usize).max(1);
        let shard = &self.shards[e.tid as usize % SHARDS];
        let mut s = shard.lock().unwrap_or_else(PoisonError::into_inner);
        if s.buf.len() < cap {
            s.buf.push(e);
        } else {
            let head = s.head;
            s.buf[head] = e;
            s.head = (head + 1) % cap;
            DROPPED.fetch_add(1, Ordering::Relaxed);
        }
    }
}

// ---------------------------------------------------------------------------
// recording API (crate-internal hooks + public free functions)
// ---------------------------------------------------------------------------

/// Whether the journal is armed (independent of the master flag).
#[inline]
pub fn journal_enabled() -> bool {
    ARMED.load(Ordering::Relaxed)
}

/// Arms or disarms the journal. Recording also requires the master
/// [`set_enabled`](crate::set_enabled) flag, mirroring the registry.
pub fn set_journal_enabled(on: bool) {
    // initialize the epoch before the first event so timestamps are
    // comparable across threads from the very first record
    let _ = epoch();
    ARMED.store(on, Ordering::Relaxed);
}

/// Whether journal events would be recorded right now (master flag
/// AND armed).
#[inline]
pub fn journal_recording() -> bool {
    crate::enabled() && journal_enabled()
}

/// Sets the total journal capacity in events (split across shards)
/// and clears the journal.
pub fn set_journal_capacity(total: usize) {
    let j = Journal::global();
    j.shard_cap
        .store((total / SHARDS).max(1) as u64, Ordering::Relaxed);
    journal_reset();
}

/// Number of events overwritten because a shard ring was full.
pub fn journal_dropped() -> u64 {
    DROPPED.load(Ordering::Relaxed)
}

/// Clears all recorded events (capacity and ids are kept).
pub fn journal_reset() {
    let j = Journal::global();
    for s in &j.shards {
        let mut s = s.lock().unwrap_or_else(PoisonError::into_inner);
        s.buf.clear();
        s.head = 0;
    }
    DROPPED.store(0, Ordering::Relaxed);
}

/// A point-in-time copy of the journal, in recording order
/// (timestamp-major, sequence-minor — per-thread order is preserved).
pub fn journal_events() -> Vec<Event> {
    let j = Journal::global();
    let mut all: Vec<Event> = Vec::new();
    for s in &j.shards {
        let s = s.lock().unwrap_or_else(PoisonError::into_inner);
        all.extend(s.buf.iter().cloned());
    }
    all.sort_by_key(|e| (e.ts_ns, e.seq));
    all
}

fn record(kind: EventKind, run_id: u64, span_id: u64, parent_id: u64, name: String) {
    let ts_ns = epoch().elapsed().as_nanos().min(u64::MAX as u128) as u64;
    let seq = NEXT_SEQ.fetch_add(1, Ordering::Relaxed);
    Journal::global().push(Event {
        seq,
        ts_ns,
        tid: thread_index(),
        kind,
        run_id,
        span_id,
        parent_id,
        name,
    });
}

/// Live journal state of one span guard: the context it opened, the
/// context to restore when it closes, and the name its End carries.
#[derive(Debug)]
pub(crate) struct JournalSpan {
    ctx: TraceCtx,
    prev: TraceCtx,
    name: String,
}

/// Called by `SpanGuard::enter`: records a Begin event and installs
/// the new context. Returns `None` (a no-op) unless recording.
pub(crate) fn begin_span(name: &str) -> Option<JournalSpan> {
    if !journal_recording() {
        return None;
    }
    let prev = CURRENT.with(Cell::get);
    let ctx = TraceCtx {
        run_id: prev.run_id,
        span_id: NEXT_SPAN.fetch_add(1, Ordering::Relaxed),
        parent_id: prev.span_id,
    };
    CURRENT.with(|c| c.set(ctx));
    record(
        EventKind::Begin,
        ctx.run_id,
        ctx.span_id,
        ctx.parent_id,
        name.to_string(),
    );
    Some(JournalSpan {
        ctx,
        prev,
        name: name.to_string(),
    })
}

/// Called by `SpanGuard::drop`: records the matching End event (even
/// if the journal was disarmed mid-span, so traces stay balanced) and
/// restores the previous context.
pub(crate) fn end_span(span: JournalSpan) {
    record(
        EventKind::End,
        span.ctx.run_id,
        span.ctx.span_id,
        span.ctx.parent_id,
        span.name,
    );
    CURRENT.with(|c| c.set(span.prev));
}

/// The calling thread's innermost trace context (all zeros when not
/// recording or outside any span).
#[inline]
pub fn current_ctx() -> TraceCtx {
    if !journal_recording() {
        return TraceCtx::default();
    }
    CURRENT.with(Cell::get)
}

/// Re-installs a captured [`TraceCtx`] on this thread until the guard
/// drops. This is the cross-thread propagation primitive: a fork point
/// captures [`current_ctx`] and each worker wraps its closure in a
/// `ctx_scope`, so spans the closure opens parent under the forking
/// span instead of starting a fresh root on the worker thread.
pub fn ctx_scope(ctx: TraceCtx) -> CtxScope {
    if !journal_recording() || ctx == TraceCtx::default() {
        return CtxScope { prev: None };
    }
    let prev = CURRENT.with(Cell::get);
    CURRENT.with(|c| c.set(ctx));
    CtxScope { prev: Some(prev) }
}

/// Guard returned by [`ctx_scope`]; restores the previous context on
/// drop.
#[derive(Debug)]
pub struct CtxScope {
    prev: Option<TraceCtx>,
}

impl Drop for CtxScope {
    fn drop(&mut self) {
        if let Some(prev) = self.prev.take() {
            CURRENT.with(|c| c.set(prev));
        }
    }
}

/// Records an instant event (injected fault, budget trip, retry, …)
/// under the current context. No-op unless recording — callers that
/// must format a name should gate on [`journal_recording`] first.
#[inline]
pub fn instant(name: &str) {
    if !journal_recording() {
        return;
    }
    let c = CURRENT.with(Cell::get);
    record(EventKind::Instant, c.run_id, 0, c.span_id, name.to_string());
}

/// Opens a **run**: mints a fresh `run_id` (when the journal is
/// recording and no run is active on this thread) and opens a span
/// named `name` as the run's root. Nested calls — a pipeline invoked
/// from inside another instrumented run — keep the outer run id, so a
/// serving layer can attach one run per request and see everything
/// beneath it. Behaves exactly like [`span`](crate::span) when the
/// journal is disarmed.
pub fn run(name: &str) -> RunGuard {
    let prev = if journal_recording() {
        let cur = CURRENT.with(Cell::get);
        if cur.run_id == 0 {
            CURRENT.with(|c| {
                c.set(TraceCtx {
                    run_id: NEXT_RUN.fetch_add(1, Ordering::Relaxed),
                    ..cur
                })
            });
            Some(cur)
        } else {
            None
        }
    } else {
        None
    };
    RunGuard {
        span: Some(crate::span(name)),
        prev,
    }
}

/// A live run; closes the root span and leaves the run on drop.
#[derive(Debug)]
#[must_use = "a run ends when the guard drops; bind it with `let _run = ...`"]
pub struct RunGuard {
    span: Option<crate::SpanGuard>,
    prev: Option<TraceCtx>,
}

impl Drop for RunGuard {
    fn drop(&mut self) {
        // close the root span first (records its End event inside the
        // run), then restore the pre-run context
        self.span.take();
        if let Some(prev) = self.prev.take() {
            CURRENT.with(|c| c.set(prev));
        }
    }
}

// ---------------------------------------------------------------------------
// analysis: profile, multiset
// ---------------------------------------------------------------------------

/// Aggregate of one span path in a [`Profile`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProfileNode {
    /// Times the path completed.
    pub count: u64,
    /// Total nanoseconds on the path, children included.
    pub total_ns: u64,
    /// Nanoseconds on the path itself, direct children excluded.
    pub self_ns: u64,
}

/// A per-run (or whole-journal) profile: span paths with total/self
/// time and the critical path.
#[derive(Debug, Clone, Default)]
pub struct Profile {
    /// Aggregates keyed by `/`-joined span path.
    pub nodes: BTreeMap<String, ProfileNode>,
    /// The chain of heaviest children from the heaviest root, as
    /// `(path, total_ns)` pairs.
    pub critical_path: Vec<(String, u64)>,
}

/// Resolved identity of one span occurrence.
struct SpanInfo {
    name: String,
    parent_id: u64,
    begin_ns: u64,
    dur_ns: Option<u64>,
}

fn span_infos(events: &[Event]) -> BTreeMap<u64, SpanInfo> {
    let mut spans: BTreeMap<u64, SpanInfo> = BTreeMap::new();
    for e in events {
        match e.kind {
            EventKind::Begin => {
                spans.insert(
                    e.span_id,
                    SpanInfo {
                        name: e.name.clone(),
                        parent_id: e.parent_id,
                        begin_ns: e.ts_ns,
                        dur_ns: None,
                    },
                );
            }
            EventKind::End => {
                if let Some(info) = spans.get_mut(&e.span_id) {
                    info.dur_ns = Some(e.ts_ns.saturating_sub(info.begin_ns));
                }
            }
            EventKind::Instant => {}
        }
    }
    spans
}

fn path_of(id: u64, spans: &BTreeMap<u64, SpanInfo>, memo: &mut BTreeMap<u64, String>) -> String {
    if id == 0 {
        return String::new();
    }
    if let Some(p) = memo.get(&id) {
        return p.clone();
    }
    let path = match spans.get(&id) {
        None => String::new(), // parent fell out of the ring: treat as root
        Some(info) => {
            let parent = path_of(info.parent_id, spans, memo);
            if parent.is_empty() {
                info.name.clone()
            } else {
                format!("{parent}/{}", info.name)
            }
        }
    };
    memo.insert(id, path.clone());
    path
}

/// Builds a [`Profile`] from journal events, keeping only runs with
/// `run_id == run` (or every event when `run` is `None`). Spans still
/// open (no End recorded) are skipped.
pub fn profile(events: &[Event], run: Option<u64>) -> Profile {
    let selected: Vec<Event> = events
        .iter()
        .filter(|e| run.is_none_or(|r| e.run_id == r))
        .cloned()
        .collect();
    let spans = span_infos(&selected);
    let mut memo = BTreeMap::new();
    let mut profile = Profile::default();
    for (&id, info) in &spans {
        let Some(dur) = info.dur_ns else { continue };
        let path = path_of(id, &spans, &mut memo);
        if path.is_empty() {
            continue;
        }
        let node = profile.nodes.entry(path).or_default();
        node.count += 1;
        node.total_ns += dur;
    }
    // self time: total minus the totals of direct children
    let totals: Vec<(String, u64)> = profile
        .nodes
        .iter()
        .map(|(p, n)| (p.clone(), n.total_ns))
        .collect();
    for (path, node) in profile.nodes.iter_mut() {
        let child_total: u64 = totals
            .iter()
            .filter(|(p, _)| {
                p.len() > path.len()
                    && p.starts_with(path.as_str())
                    && p.as_bytes()[path.len()] == b'/'
                    && !p[path.len() + 1..].contains('/')
            })
            .map(|(_, t)| t)
            .sum();
        node.self_ns = node.total_ns.saturating_sub(child_total);
    }
    // critical path: heaviest root, then heaviest direct child, …
    let mut at: Option<(String, u64)> = profile
        .nodes
        .iter()
        .filter(|(p, _)| !p.contains('/'))
        .max_by_key(|(_, n)| n.total_ns)
        .map(|(p, n)| (p.clone(), n.total_ns));
    while let Some((path, total)) = at.take() {
        profile.critical_path.push((path.clone(), total));
        at = profile
            .nodes
            .iter()
            .filter(|(p, _)| {
                p.len() > path.len()
                    && p.starts_with(path.as_str())
                    && p.as_bytes()[path.len()] == b'/'
                    && !p[path.len() + 1..].contains('/')
            })
            .max_by_key(|(_, n)| n.total_ns)
            .map(|(p, n)| (p.clone(), n.total_ns));
    }
    profile
}

impl Profile {
    /// Renders the profile as an aligned table plus the critical path.
    pub fn render(&self) -> String {
        use crate::report::fmt_ns;
        let mut out = String::from("== profile (total vs self) ==\n");
        if self.nodes.is_empty() {
            out.push_str("(no completed spans in the journal)\n");
            return out;
        }
        let name_w = self
            .nodes
            .keys()
            .map(|p| 2 * p.matches('/').count() + p.rsplit('/').next().unwrap_or(p).len())
            .max()
            .unwrap_or(4)
            .max(4);
        out.push_str(&format!(
            "{:<name_w$}  {:>7}  {:>10}  {:>10}\n",
            "path", "count", "total", "self"
        ));
        for (path, n) in &self.nodes {
            let depth = path.matches('/').count();
            let leaf = path.rsplit('/').next().unwrap_or(path);
            let indented = format!("{}{leaf}", "  ".repeat(depth));
            out.push_str(&format!(
                "{indented:<name_w$}  {:>7}  {:>10}  {:>10}\n",
                n.count,
                fmt_ns(n.total_ns as f64),
                fmt_ns(n.self_ns as f64),
            ));
        }
        if !self.critical_path.is_empty() {
            let chain: Vec<String> = self
                .critical_path
                .iter()
                .map(|(p, t)| {
                    format!(
                        "{} ({})",
                        p.rsplit('/').next().unwrap_or(p),
                        fmt_ns(*t as f64)
                    )
                })
                .collect();
            out.push_str(&format!("critical path: {}\n", chain.join(" -> ")));
        }
        out
    }
}

/// Order-normalized event multiset: counts keyed by
/// `kind|name|parent-name`. Timestamps, ids, and thread placement are
/// erased, so two runs doing the same work at different thread counts
/// produce the same multiset — the invariance the pipeline tests
/// assert. End events are skipped (they mirror their Begin).
pub fn event_multiset(events: &[Event]) -> BTreeMap<String, u64> {
    let spans = span_infos(events);
    let parent_name = |id: u64| -> &str {
        if id == 0 {
            return "";
        }
        spans.get(&id).map(|s| s.name.as_str()).unwrap_or("?")
    };
    let mut multiset: BTreeMap<String, u64> = BTreeMap::new();
    for e in events {
        if e.kind == EventKind::End {
            continue;
        }
        let key = format!("{}|{}|{}", e.kind.label(), e.name, parent_name(e.parent_id));
        *multiset.entry(key).or_default() += 1;
    }
    multiset
}

// ---------------------------------------------------------------------------
// exporters
// ---------------------------------------------------------------------------

/// Serializes events in the Chrome `trace_event` JSON format (one
/// event object per line inside `traceEvents`). Span pairs are
/// emitted as `ph:"B"`/`ph:"E"` on the recording thread's `tid`;
/// instants as `ph:"i"`. The explicit ids travel in `args`. Spans
/// missing either side of their pair (still open, or begin dropped
/// from the ring) are skipped and unresolvable parents are remapped
/// to `0`, so the output is always balanced and well-parented.
pub fn chrome_trace(events: &[Event]) -> String {
    let spans = span_infos(events);
    let complete = |id: u64| spans.get(&id).is_some_and(|s| s.dur_ns.is_some());
    let resolve_parent = |id: u64| if complete(id) { id } else { 0 };
    let mut sorted: Vec<&Event> = events.iter().collect();
    sorted.sort_by_key(|e| (e.ts_ns, e.seq));
    let mut lines: Vec<String> = Vec::with_capacity(sorted.len());
    for e in &sorted {
        let (ph, extra) = match e.kind {
            EventKind::Begin => {
                if !complete(e.span_id) {
                    continue;
                }
                ("B", String::new())
            }
            EventKind::End => {
                if !complete(e.span_id) {
                    continue;
                }
                ("E", String::new())
            }
            EventKind::Instant => ("i", ",\"s\":\"t\"".to_string()),
        };
        lines.push(format!(
            "{{\"name\":\"{}\",\"cat\":\"vqi\",\"ph\":\"{ph}\"{extra},\"pid\":{},\"tid\":{},\"ts\":{}.{:03},\"args\":{{\"run\":{},\"span\":{},\"parent\":{}}}}}",
            escape(&e.name),
            e.run_id.max(1),
            e.tid,
            e.ts_ns / 1_000,
            e.ts_ns % 1_000,
            e.run_id,
            e.span_id,
            resolve_parent(e.parent_id),
        ));
    }
    format!(
        "{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n{}\n]}}\n",
        lines.join(",\n")
    )
}

/// Serializes the journal as flamegraph collapsed stacks: one line per
/// span path with positive self time, `path;to;span <self_ns>`.
pub fn folded_stacks(events: &[Event]) -> String {
    let p = profile(events, None);
    let mut out = String::new();
    for (path, node) in &p.nodes {
        if node.self_ns > 0 {
            out.push_str(&format!("{} {}\n", path.replace('/', ";"), node.self_ns));
        }
    }
    out
}

// ---------------------------------------------------------------------------
// validation
// ---------------------------------------------------------------------------

/// Summary returned by a successful [`validate_chrome_trace`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceStats {
    /// Total events parsed.
    pub events: usize,
    /// Completed spans (matched begin/end pairs).
    pub spans: usize,
    /// Instant events.
    pub instants: usize,
}

/// One parsed trace event.
struct ParsedEvent {
    name: String,
    ph: char,
    pid: u64,
    tid: u64,
    ts: f64,
    span: u64,
    parent: u64,
}

fn parse_event(e: &Json) -> Result<ParsedEvent, String> {
    let num = |v: &Json| v.as_f64().ok_or_else(|| format!("missing number in {e:?}"));
    Ok(ParsedEvent {
        name: e["name"]
            .as_str()
            .ok_or("event without a name")?
            .to_string(),
        ph: e["ph"]
            .as_str()
            .and_then(|s| s.chars().next())
            .ok_or("event without a ph")?,
        pid: num(&e["pid"])? as u64,
        tid: num(&e["tid"])? as u64,
        ts: num(&e["ts"])?,
        span: num(&e["args"]["span"])? as u64,
        parent: num(&e["args"]["parent"])? as u64,
    })
}

/// Validates a [`chrome_trace`] document: it parses as JSON, every
/// event carries its fields, timestamps are monotone in file order,
/// begin/end pairs balance with stack (LIFO) discipline per
/// `(pid, tid)`, span ids are unique, and every `parent` id resolves to
/// a span in the file (or `0`).
pub fn validate_chrome_trace(json: &str) -> Result<TraceStats, String> {
    let doc = Json::parse(json)?;
    let events = doc["traceEvents"]
        .as_array()
        .ok_or("no traceEvents array")?;
    let events = events
        .iter()
        .map(parse_event)
        .collect::<Result<Vec<_>, _>>()?;
    let mut stats = TraceStats {
        events: events.len(),
        ..Default::default()
    };
    // pass 1: span-id universe + uniqueness
    let mut span_ids = std::collections::BTreeSet::new();
    for e in &events {
        if e.ph == 'B' && !span_ids.insert(e.span) {
            return Err(format!("duplicate span id {} ({})", e.span, e.name));
        }
    }
    // pass 2: monotone timestamps, per-(pid,tid) stack discipline,
    // parent resolution
    let mut last_ts = f64::NEG_INFINITY;
    let mut stacks: BTreeMap<(u64, u64), Vec<(u64, String)>> = BTreeMap::new();
    for e in &events {
        if e.ts < last_ts {
            return Err(format!(
                "timestamp went backwards at {} ({} < {last_ts})",
                e.name, e.ts
            ));
        }
        last_ts = e.ts;
        if e.parent != 0 && !span_ids.contains(&e.parent) {
            return Err(format!(
                "parent {} of {} does not resolve to any span",
                e.parent, e.name
            ));
        }
        let stack = stacks.entry((e.pid, e.tid)).or_default();
        match e.ph {
            'B' => stack.push((e.span, e.name.clone())),
            'E' => match stack.pop() {
                Some((id, name)) if id == e.span && name == e.name => stats.spans += 1,
                Some((id, name)) => {
                    return Err(format!(
                        "end of {} (span {}) closes {name} (span {id}) on tid {}",
                        e.name, e.span, e.tid
                    ))
                }
                None => return Err(format!("end of {} with empty stack", e.name)),
            },
            'i' => stats.instants += 1,
            other => return Err(format!("unknown phase '{other}'")),
        }
    }
    for ((pid, tid), stack) in &stacks {
        if let Some((_, name)) = stack.last() {
            return Err(format!("unbalanced span {name} left open on {pid}/{tid}"));
        }
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::MutexGuard;

    /// The journal is process-global; serialize the tests that arm it
    /// (shared with every other test that toggles the enabled flag).
    fn lock() -> MutexGuard<'static, ()> {
        crate::test_lock()
    }

    fn arm() {
        crate::set_enabled(true);
        set_journal_enabled(true);
        journal_reset();
    }

    fn disarm() {
        set_journal_enabled(false);
        crate::set_enabled(false);
    }

    #[test]
    fn spans_record_balanced_events_with_parentage() {
        let _l = lock();
        arm();
        {
            let _run = run("jtest.run");
            let _a = crate::span("jtest.stage");
            instant("jtest.marker");
        }
        disarm();
        let events = journal_events();
        let begins: Vec<&Event> = events
            .iter()
            .filter(|e| e.kind == EventKind::Begin)
            .collect();
        let ends: Vec<&Event> = events.iter().filter(|e| e.kind == EventKind::End).collect();
        assert_eq!(begins.len(), 2);
        assert_eq!(ends.len(), 2);
        let root = begins.iter().find(|e| e.name == "jtest.run").unwrap();
        let stage = begins.iter().find(|e| e.name == "jtest.stage").unwrap();
        assert_ne!(root.run_id, 0, "run must mint a run id");
        assert_eq!(stage.run_id, root.run_id);
        assert_eq!(stage.parent_id, root.span_id);
        let marker = events
            .iter()
            .find(|e| e.kind == EventKind::Instant)
            .unwrap();
        assert_eq!(marker.parent_id, stage.span_id);
        assert_eq!(marker.run_id, root.run_id);
    }

    #[test]
    fn disabled_journal_records_nothing() {
        let _l = lock();
        journal_reset();
        crate::set_enabled(true);
        set_journal_enabled(false);
        {
            let _s = crate::span("jtest.silent");
            instant("jtest.silent.marker");
        }
        crate::set_enabled(false);
        assert!(journal_events().is_empty());
        assert_eq!(current_ctx(), TraceCtx::default());
    }

    #[test]
    fn ctx_scope_propagates_parentage_across_threads() {
        let _l = lock();
        arm();
        let (fork_span_id, worker_run) = {
            let _run = run("jtest.fork");
            let ctx = current_ctx();
            assert_ne!(ctx.span_id, 0);
            let handle = std::thread::spawn(move || {
                let _scope = ctx_scope(ctx);
                let _s = crate::span("jtest.worker");
            });
            handle.join().unwrap();
            (ctx.span_id, ctx.run_id)
        };
        disarm();
        let events = journal_events();
        let worker = events
            .iter()
            .find(|e| e.kind == EventKind::Begin && e.name == "jtest.worker")
            .expect("worker span recorded");
        assert_eq!(worker.parent_id, fork_span_id, "worker parents under fork");
        assert_eq!(worker.run_id, worker_run, "worker inherits the run");
    }

    #[test]
    fn nested_run_keeps_the_outer_run_id() {
        let _l = lock();
        arm();
        {
            let _outer = run("jtest.outer_run");
            let outer_id = current_ctx().run_id;
            let _inner = run("jtest.inner_run");
            assert_eq!(current_ctx().run_id, outer_id);
        }
        disarm();
        let events = journal_events();
        let runs: std::collections::BTreeSet<u64> = events.iter().map(|e| e.run_id).collect();
        assert_eq!(runs.len(), 1, "one run id for nested runs: {runs:?}");
    }

    #[test]
    fn ring_overwrites_oldest_and_counts_drops() {
        let _l = lock();
        arm();
        set_journal_capacity(SHARDS * 4);
        for i in 0..100 {
            instant(&format!("jtest.flood.{i}"));
        }
        let events = journal_events();
        let dropped = journal_dropped();
        disarm();
        set_journal_capacity(DEFAULT_CAPACITY);
        assert!(events.len() <= SHARDS * 4);
        assert!(dropped > 0, "flood must overwrite");
        // the survivors are the most recent events of the thread
        assert!(events.iter().any(|e| e.name == "jtest.flood.99"));
    }

    #[test]
    fn profile_computes_self_time_and_critical_path() {
        let _l = lock();
        arm();
        {
            let _run = run("jtest.prof");
            {
                let _a = crate::span("jtest.heavy");
                std::thread::sleep(std::time::Duration::from_millis(4));
            }
            {
                let _b = crate::span("jtest.light");
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
        }
        disarm();
        let events = journal_events();
        let p = profile(&events, None);
        let root = &p.nodes["jtest.prof"];
        let heavy = &p.nodes["jtest.prof/jtest.heavy"];
        let light = &p.nodes["jtest.prof/jtest.light"];
        assert_eq!(root.count, 1);
        assert!(root.total_ns >= heavy.total_ns + light.total_ns);
        assert_eq!(
            root.self_ns,
            root.total_ns - heavy.total_ns - light.total_ns
        );
        assert!(heavy.total_ns > light.total_ns);
        // critical path descends into the heavy child
        assert_eq!(p.critical_path[0].0, "jtest.prof");
        assert_eq!(p.critical_path[1].0, "jtest.prof/jtest.heavy");
        let rendered = p.render();
        assert!(rendered.contains("critical path"));
        assert!(rendered.contains("jtest.heavy"));
    }

    #[test]
    fn chrome_trace_round_trips_through_the_validator() {
        let _l = lock();
        arm();
        {
            let _run = run("jtest.chrome");
            {
                let _a = crate::span("jtest.stage_a");
                instant("jtest.fault");
            }
            let _b = crate::span("jtest.stage_b");
        }
        disarm();
        let events = journal_events();
        let json = chrome_trace(&events);
        let stats = validate_chrome_trace(&json).expect("emitted trace must validate");
        assert_eq!(stats.spans, 3, "run + two stages");
        assert_eq!(stats.instants, 1);
        assert!(json.contains("\"ph\":\"B\""));
        assert!(json.contains("\"s\":\"t\""), "instant scope marker");
    }

    #[test]
    fn validator_rejects_malformed_traces() {
        let ok = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n\
            {\"name\":\"a\",\"cat\":\"vqi\",\"ph\":\"B\",\"pid\":1,\"tid\":0,\"ts\":1.000,\"args\":{\"run\":1,\"span\":1,\"parent\":0}},\n\
            {\"name\":\"a\",\"cat\":\"vqi\",\"ph\":\"E\",\"pid\":1,\"tid\":0,\"ts\":2.000,\"args\":{\"run\":1,\"span\":1,\"parent\":0}}\n]}";
        assert!(validate_chrome_trace(ok).is_ok());
        // unbalanced: begin without end
        let unbalanced = ok.replace(
            ",\n{\"name\":\"a\",\"cat\":\"vqi\",\"ph\":\"E\"",
            "\n]}#{\"name\":\"a\",\"cat\":\"vqi\",\"ph\":\"E\"",
        );
        assert!(validate_chrome_trace(unbalanced.split('#').next().unwrap()).is_err());
        // backwards timestamp
        let backwards = ok.replace("\"ts\":2.000", "\"ts\":0.500");
        assert!(validate_chrome_trace(&backwards).is_err());
        // dangling parent
        let dangling = ok.replace("\"span\":1,\"parent\":0", "\"span\":1,\"parent\":77");
        assert!(validate_chrome_trace(&dangling).is_err());
    }

    #[test]
    fn folded_stacks_use_self_time() {
        let _l = lock();
        arm();
        {
            let _run = run("jtest.folded");
            let _a = crate::span("jtest.inner");
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        disarm();
        let folded = folded_stacks(&journal_events());
        assert!(folded.contains("jtest.folded;jtest.inner "));
        for line in folded.lines() {
            let (_, weight) = line.rsplit_once(' ').unwrap();
            assert!(weight.parse::<u64>().unwrap() > 0);
        }
    }

    #[test]
    fn event_multiset_normalizes_order_and_ids() {
        let _l = lock();
        arm();
        let record_pair = || {
            let _run = run("jtest.ms");
            let _a = crate::span("jtest.ms.stage");
            instant("jtest.ms.marker");
        };
        record_pair();
        let first = event_multiset(&journal_events());
        journal_reset();
        record_pair();
        let second = event_multiset(&journal_events());
        disarm();
        assert_eq!(first, second, "ids/timestamps must not leak into the key");
        assert_eq!(first["begin|jtest.ms.stage|jtest.ms"], 1);
        assert_eq!(first["instant|jtest.ms.marker|jtest.ms.stage"], 1);
    }

    #[test]
    fn invariant_aggregates_count_spans_and_disarm() {
        let _l = lock();
        let (spans, events) = crate::invariant_aggregates(|| {
            let _run = run("jtest.inv");
            for _ in 0..3 {
                let _a = crate::span("jtest.inv.stage");
            }
        });
        assert_eq!(
            spans,
            [("jtest.inv", 1), ("jtest.inv/jtest.inv.stage", 3)].map(|(p, n)| (p.to_string(), n))
        );
        assert_eq!(events["begin|jtest.inv.stage|jtest.inv"], 3);
        assert!(!crate::enabled() && !journal_enabled(), "recording left on");
    }
}
