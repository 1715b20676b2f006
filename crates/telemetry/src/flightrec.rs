//! The flight recorder: an always-on, fixed-size ring of request stage
//! events for after-the-fact diagnosis.
//!
//! Metrics say *that* p99 moved; spans say *why*, but only while a tracing
//! sink is installed.  The flight recorder fills the gap between them: every
//! stage of a request admitted to (or shed from) the serving tier appends
//! one [`SpanEvent`] — the same record the trace ring gets while tracing is
//! on, carrying the stage's name, trace id, lane and duration — to a
//! bounded ring under a short mutex.
//! When something goes wrong *yesterday*, `GET /debug/flightrec` (or the
//! shutdown dump) replays the recent past as a Chrome trace with zero prior
//! setup.
//!
//! **Pinning.**  A ring forgets: at steady load the window may be seconds
//! wide.  The slow-request policy ([`FlightRecorder::pin`]) copies every
//! buffered event of a given trace into a bounded side buffer, so the
//! requests most worth diagnosing — the over-threshold ones — survive ring
//! wrap.  Pinned events are reported alongside (and deduplicated from) the
//! live ring in [`FlightRecorder::render_json`].

use std::collections::HashMap;
use std::sync::Mutex;

use crate::ring::Ring;
use crate::stitch::chrome_trace_json;
use crate::trace::{now_us, SpanEvent};

/// An event and its sequence number (process-lifetime, never reused), which
/// orders the ring and dedups pinned copies against it.
type Sequenced = (u64, SpanEvent);

struct Inner {
    ring: Ring<Sequenced>,
    next_seq: u64,
    pinned: Vec<Sequenced>,
    pinned_traces: u64,
}

/// Fixed-capacity, always-on ring of [`SpanEvent`]s with a bounded pin
/// buffer for slow requests.  All methods take one short mutex; recording
/// allocates nothing once the ring is full.
pub struct FlightRecorder {
    pin_capacity: usize,
    inner: Mutex<Inner>,
}

/// Default ring capacity: a few seconds of events at serving load.
pub const DEFAULT_FLIGHT_CAPACITY: usize = 2048;
/// Default cap on the pinned side buffer.
pub const DEFAULT_PIN_CAPACITY: usize = 512;

impl Default for FlightRecorder {
    fn default() -> FlightRecorder {
        FlightRecorder::new(DEFAULT_FLIGHT_CAPACITY, DEFAULT_PIN_CAPACITY)
    }
}

impl FlightRecorder {
    /// A recorder holding the most recent `capacity` events plus up to
    /// `pin_capacity` pinned ones.
    pub fn new(capacity: usize, pin_capacity: usize) -> FlightRecorder {
        FlightRecorder {
            pin_capacity,
            inner: Mutex::new(Inner {
                ring: Ring::new(capacity),
                next_seq: 0,
                pinned: Vec::new(),
                pinned_traces: 0,
            }),
        }
    }

    /// Appends one event; the oldest ring entry is overwritten when the ring
    /// is full (pinned copies live in the side buffer and are unaffected).
    pub fn record(&self, event: SpanEvent) {
        let mut inner = self.inner.lock().expect("flight recorder poisoned");
        let seq = inner.next_seq;
        inner.next_seq += 1;
        inner.ring.push((seq, event));
    }

    /// Copies every buffered event of `trace_id` into the pin buffer so it
    /// survives ring wrap.  Returns how many events were pinned (0 when the
    /// pin buffer is full or the trace left the ring already).
    pub fn pin(&self, trace_id: u64) -> usize {
        if trace_id == 0 {
            return 0;
        }
        let mut inner = self.inner.lock().expect("flight recorder poisoned");
        let room = self.pin_capacity.saturating_sub(inner.pinned.len());
        if room == 0 {
            return 0;
        }
        let matches: Vec<Sequenced> = inner
            .ring
            .iter()
            .filter(|(_, e)| e.trace_id == trace_id)
            .take(room)
            .cloned()
            .collect();
        let pinned = matches.len();
        if pinned > 0 {
            inner.pinned_traces += 1;
            inner.pinned.extend(matches);
        }
        pinned
    }

    /// Events dropped to ring wrap since creation.
    pub fn dropped(&self) -> u64 {
        self.inner
            .lock()
            .expect("flight recorder poisoned")
            .ring
            .dropped()
    }

    /// A snapshot of the buffered events — pinned and live ring,
    /// deduplicated, in recording order.
    pub fn snapshot(&self) -> Vec<SpanEvent> {
        let inner = self.inner.lock().expect("flight recorder poisoned");
        let mut out: Vec<&Sequenced> = inner.pinned.iter().chain(inner.ring.iter()).collect();
        out.sort_by_key(|(seq, _)| *seq);
        out.dedup_by_key(|(seq, _)| *seq);
        out.into_iter().map(|(_, e)| e.clone()).collect()
    }

    /// The whole recorder as a JSON object: metadata plus the deduplicated
    /// events (see [`snapshot`](Self::snapshot)) as Chrome `traceEvents`,
    /// so the dump loads in Perfetto as it is.
    pub fn render_json(&self) -> String {
        let (capacity, dropped, pinned_traces) = {
            let inner = self.inner.lock().expect("flight recorder poisoned");
            (
                inner.ring.capacity(),
                inner.ring.dropped(),
                inner.pinned_traces,
            )
        };
        format!(
            "{{\"capacity\": {capacity}, \"dropped\": {dropped}, \
             \"pinned_traces\": {pinned_traces}, \"now_us\": {},\n\"traceEvents\": {}}}\n",
            now_us(),
            chrome_trace_json(&self.snapshot()).trim_end(),
        )
    }

    /// Per-stage attribution for the slowest fully-recorded request: the
    /// trace whose `net.request` total (else its stages' sum) is largest,
    /// broken into its `net.queue_wait` and execution (`net.tune_exec`,
    /// `net.exec`) durations.  Returns `None` when no trace finished inside
    /// the buffer window.
    pub fn slowest_trace(&self) -> Option<TraceAttribution> {
        let mut totals: HashMap<u64, TraceAttribution> = HashMap::new();
        for e in self.snapshot() {
            if e.trace_id == 0 {
                continue;
            }
            let entry = totals
                .entry(e.trace_id)
                .or_insert_with(|| TraceAttribution {
                    trace_id: e.trace_id,
                    queue_wait_us: 0,
                    exec_us: 0,
                    total_us: 0,
                });
            match &*e.name {
                "net.queue_wait" => entry.queue_wait_us += e.dur_us,
                "net.tune_exec" | "net.exec" => entry.exec_us += e.dur_us,
                "net.request" => entry.total_us = entry.total_us.max(e.dur_us),
                _ => {}
            }
        }
        totals
            .into_values()
            .filter(|t| t.total_us > 0 || t.exec_us > 0)
            .max_by_key(|t| t.effective_total())
    }
}

/// Where one traced request's latency went, as reconstructed from its
/// buffered stage events.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceAttribution {
    /// The request's trace id.
    pub trace_id: u64,
    /// Total microseconds spent waiting in the tune queue.
    pub queue_wait_us: u64,
    /// Total microseconds spent executing (tune + SpMV).
    pub exec_us: u64,
    /// End-to-end in-server microseconds from the `net.request` event (0
    /// when it was not captured).
    pub total_us: u64,
}

impl TraceAttribution {
    /// The best available total: the `net.request` total when captured,
    /// else the sum of attributed stages.
    pub fn effective_total(&self) -> u64 {
        self.total_us.max(self.queue_wait_us + self.exec_us)
    }

    /// Microseconds not explained by the named stages (reactor time,
    /// deferred-queue residence, reply flush).
    pub fn unattributed_us(&self) -> u64 {
        self.effective_total()
            .saturating_sub(self.queue_wait_us + self.exec_us)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A stage event of request `trace_id`, as the serving tier records it.
    fn stage(name: &'static str, trace_id: u64, dur_us: u64) -> SpanEvent {
        SpanEvent {
            trace_id,
            class: "tune",
            ..SpanEvent::ending_now(name, dur_us)
        }
    }

    #[test]
    fn ring_wraps_and_counts_drops() {
        let rec = FlightRecorder::new(4, 8);
        for i in 0..10u64 {
            rec.record(stage("net.admitted", i + 1, 0));
        }
        let events = rec.snapshot();
        assert_eq!(events.len(), 4);
        assert_eq!(rec.dropped(), 6);
        // Oldest first, and only the most recent four survive.
        let traces: Vec<u64> = events.iter().map(|e| e.trace_id).collect();
        assert_eq!(traces, vec![7, 8, 9, 10]);
    }

    #[test]
    fn pinned_events_survive_ring_wrap() {
        let rec = FlightRecorder::new(4, 8);
        rec.record(stage("net.admitted", 77, 0));
        rec.record(stage("net.tune_exec", 77, 1234));
        assert_eq!(rec.pin(77), 2);
        for i in 0..10u64 {
            rec.record(stage("net.admitted", 1000 + i, 0));
        }
        let events = rec.snapshot();
        let gold: Vec<&SpanEvent> = events.iter().filter(|e| e.trace_id == 77).collect();
        assert_eq!(gold.len(), 2, "pinned trace must survive wrap");
        assert_eq!(gold[1].dur_us, 1234);
        // Pinning trace 0 or a missing trace is a no-op.
        assert_eq!(rec.pin(0), 0);
        assert_eq!(rec.pin(424242), 0);
    }

    #[test]
    fn snapshot_dedupes_pinned_against_live_ring() {
        let rec = FlightRecorder::new(8, 8);
        rec.record(stage("net.admitted", 5, 0));
        rec.pin(5);
        // The event is both pinned and still live: it must appear once.
        let events = rec.snapshot();
        assert_eq!(events.len(), 1);
    }

    #[test]
    fn render_json_is_wellformed_and_prints_the_class() {
        let rec = FlightRecorder::new(8, 8);
        rec.record(SpanEvent {
            arg: Some(("retry_after_us".into(), 2500)),
            ..stage("net.shed", 9, 0)
        });
        rec.record(stage("net.tune_failed", 9, 0));
        let json = rec.render_json();
        let shed = json
            .lines()
            .find(|l| l.contains("\"name\": \"net.shed\""))
            .expect("shed line");
        let args = "\"args\": {\"depth\": 0, \"trace_id\": 9, \"retry_after_us\": 2500, \
                    \"class\": \"tune\"}},";
        assert!(shed.ends_with(args), "{shed}");
        assert!(json.contains("\"name\": \"net.tune_failed\""));
        assert!(json.starts_with("{\"capacity\": 8, \"dropped\": 0, \"pinned_traces\": 0,"));
        assert!(json.contains("\n\"traceEvents\": [\n"));
        // Brace/bracket balance as a cheap well-formedness check.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn slowest_trace_attributes_stages() {
        let rec = FlightRecorder::default();
        // Trace 1: modest. Trace 2: the slow one, with queue wait dominant.
        for (trace, wait, exec, total) in [(1, 100, 200, 350), (2, 9_000, 500, 10_000)] {
            rec.record(stage("net.admitted", trace, 0));
            rec.record(stage("net.queue_wait", trace, wait));
            rec.record(stage("net.tune_exec", trace, exec));
            rec.record(stage("net.request", trace, total));
        }
        let worst = rec.slowest_trace().expect("a trace completed");
        assert_eq!(worst.trace_id, 2);
        assert_eq!(worst.queue_wait_us, 9_000);
        assert_eq!(worst.exec_us, 500);
        assert_eq!(worst.total_us, 10_000);
        assert_eq!(worst.effective_total(), 10_000);
        assert_eq!(worst.unattributed_us(), 500);
    }

    #[test]
    fn untraced_requests_never_win_attribution() {
        let rec = FlightRecorder::default();
        rec.record(stage("net.exec", 0, 999_999));
        assert!(rec.slowest_trace().is_none());
    }
}
