//! The tracing half: lightweight spans on a thread-local stack, drained to
//! a bounded ring buffer, exportable as Chrome `trace_event` JSON.
//!
//! A span is entered with the [`span!`](crate::span!) macro and closed by
//! dropping the returned [`SpanGuard`] — typically at end of scope, so the
//! span brackets exactly the code it wraps:
//!
//! ```
//! alpha_telemetry::enable_tracing(1024);
//! {
//!     let _span = alpha_telemetry::span!("search.l2", matrix = 0xBEEFu64);
//!     // ... the level-2 loop ...
//! }
//! let spans = alpha_telemetry::drain_spans();
//! assert_eq!(spans[0].name, "search.l2");
//! let json = alpha_telemetry::chrome_trace_json(&spans);
//! assert!(json.contains("\"ph\": \"X\""));
//! alpha_telemetry::disable_tracing();
//! ```
//!
//! **Cost model.**  With tracing disabled (the default) entering a span is
//! one relaxed atomic load and a branch — no clock read, no allocation, no
//! lock.  Enabled, a span costs two `Instant` reads and one short mutexed
//! ring-buffer push at drop.  The ring buffer is bounded: when full, the
//! oldest span is dropped (the recent past is the interesting part of a
//! trace).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use crate::ring::Ring;

/// One finished span, as drained from the ring buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanEvent {
    /// Static span name (e.g. `"search.l2"`).
    pub name: &'static str,
    /// Start time in microseconds since the process trace epoch (the first
    /// time tracing was enabled).
    pub ts_us: u64,
    /// Duration in microseconds.
    pub dur_us: u64,
    /// Small sequential id of the recording thread (stable per thread for
    /// the process lifetime).
    pub tid: u64,
    /// Nesting depth on the recording thread's span stack (0 = outermost).
    pub depth: u32,
    /// Optional static-key argument attached at the span site
    /// (`span!("name", matrix = fp)`).
    pub arg: Option<(&'static str, u64)>,
    /// Request trace id in effect on the recording thread when the span was
    /// entered (`0` = untraced).  Set with [`set_current_trace_id`]; carried
    /// across the wire by `alpha-net` so client- and server-side spans of
    /// one request share an id.
    pub trace_id: u64,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static RING: Mutex<Option<Ring<SpanEvent>>> = Mutex::new(None);

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn thread_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    thread_local! {
        static TID: u64 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    TID.with(|t| *t)
}

thread_local! {
    static DEPTH: std::cell::Cell<u32> = const { std::cell::Cell::new(0) };
    static TRACE_ID: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Sets the request trace id tagged onto every span this thread records
/// until the next call, returning the previous value so scoped callers can
/// restore it.  `0` means untraced.
pub fn set_current_trace_id(trace_id: u64) -> u64 {
    TRACE_ID.with(|t| t.replace(trace_id))
}

/// The request trace id currently in effect on this thread (`0` = untraced).
#[inline]
pub fn current_trace_id() -> u64 {
    TRACE_ID.with(|t| t.get())
}

/// Microseconds elapsed since the process trace epoch.  Pairs with
/// [`record_span`] to describe intervals whose start and end are observed on
/// different threads (e.g. queue wait: enqueue stamps `now_us()`, the worker
/// records the span when it pops).
pub fn now_us() -> u64 {
    epoch().elapsed().as_micros().min(u64::MAX as u128) as u64
}

/// Records an already-finished span with explicit timestamps, tagged with
/// this thread's tid and current trace id at depth 0.  No-op while tracing
/// is disabled.  Use for cross-thread intervals that no single [`SpanGuard`]
/// scope can bracket.
pub fn record_span(name: &'static str, ts_us: u64, dur_us: u64, arg: Option<(&'static str, u64)>) {
    if !tracing_enabled() {
        return;
    }
    push_event(SpanEvent {
        name,
        ts_us,
        dur_us,
        tid: thread_id(),
        depth: 0,
        arg,
        trace_id: current_trace_id(),
    });
}

fn push_event(event: SpanEvent) {
    let mut guard = RING.lock().expect("trace ring poisoned");
    if let Some(ring) = guard.as_mut() {
        ring.push(event);
    }
}

/// Installs (or resizes) the span sink: a ring buffer holding the most
/// recent `capacity` spans, and turns span recording on.  Existing buffered
/// spans are kept when only the flag was off.
pub fn enable_tracing(capacity: usize) {
    let mut ring = RING.lock().expect("trace ring poisoned");
    if ring.as_ref().map(Ring::capacity) != Some(capacity.max(1)) {
        *ring = Some(Ring::new(capacity));
    }
    epoch(); // pin the trace epoch no later than the first enable
    ENABLED.store(true, Ordering::Release);
}

/// Turns span recording off (already-buffered spans stay drainable).
/// Entering a span becomes one atomic load + branch again.
pub fn disable_tracing() {
    ENABLED.store(false, Ordering::Release);
}

/// True when a sink is installed and recording.
#[inline]
pub fn tracing_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Drains all buffered spans in recording order (oldest first), leaving the
/// buffer empty.  Returns an empty vec when no sink was ever installed.
pub fn drain_spans() -> Vec<SpanEvent> {
    let mut guard = RING.lock().expect("trace ring poisoned");
    guard.as_mut().map(Ring::drain).unwrap_or_default()
}

/// An open span.  Created by the [`span!`](crate::span!) macro; records
/// itself into the ring buffer when dropped (no-op when tracing was
/// disabled at entry).
#[must_use = "a span measures the scope it is bound to; dropping it immediately records nothing useful"]
pub struct SpanGuard {
    start: Option<OpenSpan>,
}

/// The state captured at span entry, pending the closing timestamp.
struct OpenSpan {
    started: Instant,
    name: &'static str,
    arg: Option<(&'static str, u64)>,
    depth: u32,
    trace_id: u64,
}

impl SpanGuard {
    /// Enters a span.  Prefer the [`span!`](crate::span!) macro.
    #[inline]
    pub fn enter(name: &'static str, arg: Option<(&'static str, u64)>) -> SpanGuard {
        if !tracing_enabled() {
            return SpanGuard { start: None };
        }
        let depth = DEPTH.with(|d| {
            let v = d.get();
            d.set(v + 1);
            v
        });
        SpanGuard {
            start: Some(OpenSpan {
                started: Instant::now(),
                name,
                arg,
                depth,
                trace_id: current_trace_id(),
            }),
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(open) = self.start.take() else {
            return;
        };
        let dur_us = open.started.elapsed().as_micros().min(u64::MAX as u128) as u64;
        let ts_us = open
            .started
            .duration_since(epoch())
            .as_micros()
            .min(u64::MAX as u128) as u64;
        DEPTH.with(|d| d.set(d.get().saturating_sub(1)));
        push_event(SpanEvent {
            name: open.name,
            ts_us,
            dur_us,
            tid: thread_id(),
            depth: open.depth,
            arg: open.arg,
            trace_id: open.trace_id,
        });
    }
}

/// Enters a span named by a static string, optionally attaching one
/// numeric argument: `span!("search.l2")` or
/// `span!("search.l2", matrix = fingerprint)`.  Bind the result to keep the
/// span open for the scope: `let _span = span!(...)`.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::trace::SpanGuard::enter($name, None)
    };
    ($name:expr, $key:ident = $value:expr) => {
        $crate::trace::SpanGuard::enter($name, Some((stringify!($key), $value as u64)))
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The trace sink is process-global, so every test in this module runs
    /// under one lock to keep drains deterministic.
    fn serial() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Spans the sink has overwritten since it was installed.
    fn dropped() -> u64 {
        RING.lock().unwrap().as_ref().map_or(0, Ring::dropped)
    }

    #[test]
    fn disabled_spans_record_nothing() {
        let _serial = serial();
        disable_tracing();
        drop(crate::span!("quiet"));
        let _ = drain_spans();
        {
            let _span = crate::span!("still.quiet");
        }
        assert!(drain_spans().is_empty());
    }

    #[test]
    fn spans_record_name_arg_and_nesting() {
        let _serial = serial();
        enable_tracing(64);
        let _ = drain_spans();
        {
            let _outer = crate::span!("outer");
            let _inner = crate::span!("inner", matrix = 0xF00u64);
        }
        disable_tracing();
        let spans = drain_spans();
        assert_eq!(spans.len(), 2);
        // Inner drops first.
        assert_eq!(spans[0].name, "inner");
        assert_eq!(spans[0].depth, 1);
        assert_eq!(spans[0].arg, Some(("matrix", 0xF00)));
        assert_eq!(spans[1].name, "outer");
        assert_eq!(spans[1].depth, 0);
        assert!(spans[1].ts_us <= spans[0].ts_us);
        let json = crate::chrome_trace_json(&spans);
        assert!(json.contains("\"name\": \"inner\""));
        assert!(json.contains("\"matrix\": 3840"));
        assert!(json.contains("\"ph\": \"X\""));
    }

    #[test]
    fn ring_buffer_keeps_the_most_recent_spans() {
        let _serial = serial();
        enable_tracing(4);
        let _ = drain_spans();
        for _ in 0..10 {
            let _span = crate::span!("burst");
        }
        disable_tracing();
        let spans = drain_spans();
        assert_eq!(spans.len(), 4, "ring must cap at its capacity");
        assert!(dropped() >= 6);
        // Oldest-first drain order: timestamps are non-decreasing.
        for pair in spans.windows(2) {
            assert!(pair[0].ts_us <= pair[1].ts_us);
        }
        enable_tracing(64); // restore a sane default-size sink state
        disable_tracing();
    }

    #[test]
    fn trace_id_scopes_to_the_setting_thread() {
        let _serial = serial();
        enable_tracing(64);
        let _ = drain_spans();
        let prev = set_current_trace_id(0xDEAD_BEEF);
        {
            let _tagged = crate::span!("tagged");
        }
        set_current_trace_id(prev);
        {
            let _untagged = crate::span!("untagged");
        }
        record_span("retro", 1, 2, Some(("queue", 3)));
        disable_tracing();
        let spans = drain_spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].trace_id, 0xDEAD_BEEF);
        assert_eq!(spans[1].trace_id, 0);
        assert_eq!(spans[2].name, "retro");
        assert_eq!(spans[2].ts_us, 1);
        assert_eq!(spans[2].dur_us, 2);
        let json = crate::chrome_trace_json(&spans);
        assert!(json.contains("\"trace_id\": 3735928559"));
    }

    #[test]
    fn concurrent_wraparound_keeps_capacity_and_drain_order() {
        let _serial = serial();
        const CAPACITY: usize = 64;
        const THREADS: usize = 4;
        const PER_THREAD: usize = 200;
        enable_tracing(CAPACITY);
        let _ = drain_spans();
        let dropped_before = dropped();
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                scope.spawn(move || {
                    let _ = set_current_trace_id(t as u64 + 1);
                    for _ in 0..PER_THREAD {
                        let _span = crate::span!("storm");
                    }
                });
            }
        });
        disable_tracing();
        let spans = drain_spans();
        assert_eq!(spans.len(), CAPACITY, "ring holds exactly its capacity");
        assert_eq!(
            dropped() - dropped_before,
            (THREADS * PER_THREAD - CAPACITY) as u64,
            "every overwrite counts as one drop"
        );
        // Oldest-first drain: within any one recording thread, ring order
        // must match that thread's completion order (end timestamps are
        // non-decreasing per tid; cross-thread interleaving is unordered).
        let tids: std::collections::HashSet<u64> = spans.iter().map(|s| s.tid).collect();
        assert!(!tids.is_empty() && tids.len() <= THREADS);
        for tid in &tids {
            let ends: Vec<u64> = spans
                .iter()
                .filter(|s| s.tid == *tid)
                .map(|s| s.ts_us + s.dur_us)
                .collect();
            for pair in ends.windows(2) {
                assert!(
                    pair[0] <= pair[1],
                    "drain must be oldest-first per recording thread"
                );
            }
        }
        for s in &spans {
            assert_eq!(s.name, "storm");
            assert!((1..=THREADS as u64).contains(&s.trace_id));
        }
        enable_tracing(64); // restore a sane default-size sink state
        disable_tracing();
    }

    #[test]
    fn cross_thread_spans_carry_distinct_tids() {
        let _serial = serial();
        enable_tracing(64);
        let _ = drain_spans();
        {
            let _here = crate::span!("main.side");
        }
        std::thread::spawn(|| {
            let _there = crate::span!("worker.side");
        })
        .join()
        .expect("worker thread");
        disable_tracing();
        let spans = drain_spans();
        assert_eq!(spans.len(), 2);
        assert_ne!(spans[0].tid, spans[1].tid);
    }
}
