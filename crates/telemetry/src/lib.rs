//! `alpha-telemetry`: the observability substrate of the workspace —
//! a process-wide metrics registry, lightweight span tracing, cross-process
//! trace stitching and an always-on flight recorder, std-only.
//!
//! The crate keeps two records — metrics and events — and renders them:
//!
//! * [`metrics`] — a lock-cheap [`Registry`] of counters, gauges and
//!   fixed-bucket log-scale histograms.  Registration (name + small static
//!   label set → handle) takes a short mutex once; every observation after
//!   that is a handful of relaxed atomics on a cached handle.  The registry
//!   renders a Prometheus-compatible text exposition
//!   (`name{label="v"} value`).
//! * [`trace`] — the one event record, [`SpanEvent`].
//!   `span!("search.l2", matrix = fp)` records start/stop pairs on a
//!   thread-local stack and drains finished spans into a bounded ring.
//!   Spans carry the thread-local request `trace_id` set by
//!   [`set_current_trace_id`].
//! * [`flightrec`] — the black-box [`FlightRecorder`]: a bounded ring of
//!   the same events for request stages (admitted, shed, queue wait, exec,
//!   failure, in-server total) that is always on, with slow requests pinned
//!   so they survive ring wrap.  Both rings are one type, and both stamp
//!   times from [`now_us`].
//! * [`stitch`] — renders events as Chrome `trace_event` JSON for
//!   `chrome://tracing` / Perfetto: one process's ([`chrome_trace_json`]),
//!   or a client's and a server's joined into one trace, offsetting the two
//!   clock domains with the NTP-style midpoint estimate from the
//!   trace-fetch round trip.
//!
//! Two invariants every consumer relies on:
//!
//! * **Never blocks the owner.**  Nothing in the observation path performs
//!   I/O or takes a long-held lock: counters and histograms are atomics, the
//!   span ring buffer is a short mutexed push.  The `alpha-net` event loop
//!   records tick durations and serves `/metrics` without ever waiting on
//!   telemetry.
//! * **Near-zero cost when no sink is installed.**  With tracing disabled
//!   (the default) a `span!` is one relaxed atomic load and a branch; metric
//!   updates are always just atomics.  The repo benchmark's traced
//!   `spmv_local` run reports the measured span+counter overhead on the
//!   SpMV hot path as `telemetry.kernel_overhead_pct`.
//!
//! ```
//! use alpha_telemetry::{Registry, span};
//!
//! let registry = Registry::new();
//! let requests = registry.counter("demo_requests_total", &[("class", "spmv")]);
//! let latency = registry.histogram("demo_latency_us", &[]);
//!
//! let _span = span!("demo.request", job = 7u64);
//! requests.inc();
//! latency.observe(420);
//!
//! let text = registry.render_prometheus();
//! assert!(text.contains("demo_requests_total{class=\"spmv\"} 1"));
//! ```

#![warn(missing_docs)]

pub mod flightrec;
pub mod metrics;
mod ring;
pub mod stitch;
pub mod trace;

pub use flightrec::{FlightRecorder, TraceAttribution};
pub use metrics::{
    global, Counter, CounterSample, Gauge, GaugeSample, Histogram, HistogramSnapshot, Registry,
    Snapshot, BUCKETS, BUCKET_BOUNDS,
};
pub use stitch::{chrome_trace_json, clock_offset_us, stitch_chrome_trace};
pub use trace::{
    current_trace_id, disable_tracing, drain_spans, enable_tracing, now_us, record_span,
    set_current_trace_id, tracing_enabled, SpanEvent, SpanGuard,
};
