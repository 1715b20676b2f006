//! The flight recorder: an always-on, fixed-size ring of structured request
//! lifecycle events for after-the-fact diagnosis.
//!
//! Metrics say *that* p99 moved; spans say *why*, but only while a tracing
//! sink is installed.  The flight recorder fills the gap between them: every
//! request admitted to (or shed from) the serving tier appends one cheap
//! structured event — kind, tenant id, trace id, job id, one microsecond
//! value, an optional static class string — to a bounded ring under a short
//! mutex.
//! When something goes wrong *yesterday*, `GET /debug/flightrec` (or the
//! shutdown dump) replays the recent past as JSON with zero prior setup.
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
use crate::trace::now_us;

/// What happened to a request at this point of its life.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlightKind {
    /// Admitted past the tenant/queue gate; `value_us` = 0.
    Admitted,
    /// Shed at admission; `value_us` = suggested retry-after in µs.
    Shed,
    /// Popped from the tune queue by a worker; `value_us` = queue wait.
    QueuePop,
    /// Execution finished (tune or SpMV); `value_us` = exec duration, so
    /// execution started at `ts_us − value_us`.
    ExecEnd,
    /// Request failed; `class` names the error class.
    Error,
    /// Reply frame handed to the connection outbox; `value_us` = total
    /// in-server latency when known.
    Reply,
}

impl FlightKind {
    /// Stable lowercase name used in the JSON dump.
    pub fn name(self) -> &'static str {
        match self {
            FlightKind::Admitted => "admitted",
            FlightKind::Shed => "shed",
            FlightKind::QueuePop => "queue_pop",
            FlightKind::ExecEnd => "exec_end",
            FlightKind::Error => "error",
            FlightKind::Reply => "reply",
        }
    }
}

/// One recorded lifecycle event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlightEvent {
    /// Monotone sequence number (process-lifetime, never reused).
    pub seq: u64,
    /// Microseconds since the process trace epoch ([`now_us`]) — the time
    /// base of spans, so an event lines up with its request's spans.
    pub ts_us: u64,
    /// Lifecycle stage.
    pub kind: FlightKind,
    /// Tenant the request belongs to (`0` = anonymous).
    pub tenant: u64,
    /// Request trace id (`0` = untraced v4 client).
    pub trace_id: u64,
    /// Server-assigned job id (`0` when not yet assigned / not a job).
    pub job_id: u64,
    /// Stage-specific microsecond value (queue wait, exec time, retry-after).
    pub value_us: u64,
    /// Static classifier (error class, request class); empty when unused.
    pub class: &'static str,
}

struct Inner {
    ring: Ring<FlightEvent>,
    next_seq: u64,
    pinned: Vec<FlightEvent>,
    pinned_traces: u64,
}

/// Fixed-capacity, always-on ring of [`FlightEvent`]s with a bounded pin
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
    pub fn record(
        &self,
        kind: FlightKind,
        tenant: u64,
        trace_id: u64,
        job_id: u64,
        value_us: u64,
        class: &'static str,
    ) {
        let ts_us = now_us();
        let mut inner = self.inner.lock().expect("flight recorder poisoned");
        let seq = inner.next_seq;
        inner.next_seq += 1;
        inner.ring.push(FlightEvent {
            seq,
            ts_us,
            kind,
            tenant,
            trace_id,
            job_id,
            value_us,
            class,
        });
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
        let matches: Vec<FlightEvent> = inner
            .ring
            .iter()
            .filter(|e| e.trace_id == trace_id)
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

    /// A snapshot of the buffered events — pinned first, then the live ring
    /// oldest-first, deduplicated by sequence number and sorted by `seq`.
    pub fn snapshot(&self) -> Vec<FlightEvent> {
        let inner = self.inner.lock().expect("flight recorder poisoned");
        let mut out: Vec<FlightEvent> = inner
            .pinned
            .iter()
            .chain(inner.ring.iter())
            .cloned()
            .collect();
        out.sort_by_key(|e| e.seq);
        out.dedup_by_key(|e| e.seq);
        out
    }

    /// The whole recorder as a JSON object: metadata plus the deduplicated
    /// event list (see [`snapshot`](Self::snapshot)).
    pub fn render_json(&self) -> String {
        let (capacity, dropped, pinned_traces) = {
            let inner = self.inner.lock().expect("flight recorder poisoned");
            (
                inner.ring.capacity(),
                inner.ring.dropped(),
                inner.pinned_traces,
            )
        };
        let events = self.snapshot();
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"capacity\": {capacity},\n"));
        out.push_str(&format!("  \"dropped\": {dropped},\n"));
        out.push_str(&format!("  \"pinned_traces\": {pinned_traces},\n"));
        out.push_str(&format!("  \"now_us\": {},\n", now_us()));
        out.push_str("  \"events\": [\n");
        for (i, e) in events.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"seq\": {}, \"ts_us\": {}, \"kind\": \"{}\", \"tenant\": \"{}\", \
                 \"trace_id\": {}, \"job_id\": {}, \"value_us\": {}, \"class\": \"{}\"}}{}\n",
                e.seq,
                e.ts_us,
                e.kind.name(),
                e.tenant,
                e.trace_id,
                e.job_id,
                e.value_us,
                crate::metrics::json_escape(e.class),
                if i + 1 < events.len() { "," } else { "" }
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Per-stage attribution for the slowest fully-recorded request: the
    /// trace whose `Reply`/`ExecEnd` total is largest, broken into named
    /// stages (`queue_wait`, `exec`, total) from its buffered events.
    /// Returns `None` when no trace finished inside the buffer window.
    pub fn slowest_trace(&self) -> Option<TraceAttribution> {
        let events = self.snapshot();
        let mut totals: HashMap<u64, TraceAttribution> = HashMap::new();
        for e in &events {
            if e.trace_id == 0 {
                continue;
            }
            let entry = totals
                .entry(e.trace_id)
                .or_insert_with(|| TraceAttribution {
                    trace_id: e.trace_id,
                    tenant: 0,
                    queue_wait_us: 0,
                    exec_us: 0,
                    total_us: 0,
                    error_class: "",
                });
            if entry.tenant == 0 {
                entry.tenant = e.tenant;
            }
            match e.kind {
                FlightKind::QueuePop => entry.queue_wait_us += e.value_us,
                FlightKind::ExecEnd => entry.exec_us += e.value_us,
                FlightKind::Reply => entry.total_us = entry.total_us.max(e.value_us),
                FlightKind::Error => entry.error_class = e.class,
                _ => {}
            }
        }
        totals
            .into_values()
            .filter(|t| t.total_us > 0 || t.exec_us > 0)
            .max_by_key(|t| t.effective_total())
    }
}

/// Where one traced request's latency went, as reconstructed from flight
/// events.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceAttribution {
    /// The request's trace id.
    pub trace_id: u64,
    /// Owning tenant (`0` = anonymous).
    pub tenant: u64,
    /// Total microseconds spent waiting in the tune queue.
    pub queue_wait_us: u64,
    /// Total microseconds spent executing (tune + SpMV).
    pub exec_us: u64,
    /// End-to-end in-server microseconds from the reply event (0 when the
    /// reply was not captured).
    pub total_us: u64,
    /// Error class if the request failed (empty otherwise).
    pub error_class: &'static str,
}

impl TraceAttribution {
    /// The best available total: the reply-event total when captured, else
    /// the sum of attributed stages.
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

    #[test]
    fn ring_wraps_and_counts_drops() {
        let rec = FlightRecorder::new(4, 8);
        for i in 0..10u64 {
            rec.record(FlightKind::Admitted, 1, i + 1, i, 0, "");
        }
        let events = rec.snapshot();
        assert_eq!(events.len(), 4);
        assert_eq!(rec.dropped(), 6);
        // Oldest-first by seq, and only the most recent four survive.
        let seqs: Vec<u64> = events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![6, 7, 8, 9]);
    }

    #[test]
    fn pinned_events_survive_ring_wrap() {
        let rec = FlightRecorder::new(4, 8);
        rec.record(FlightKind::Admitted, 7, 77, 1, 0, "");
        rec.record(FlightKind::ExecEnd, 7, 77, 1, 1234, "");
        assert_eq!(rec.pin(77), 2);
        for i in 0..10u64 {
            rec.record(FlightKind::Admitted, 8, 1000 + i, 0, 0, "");
        }
        let events = rec.snapshot();
        let gold: Vec<&FlightEvent> = events.iter().filter(|e| e.trace_id == 77).collect();
        assert_eq!(gold.len(), 2, "pinned trace must survive wrap");
        assert_eq!(gold[1].value_us, 1234);
        // Pinning trace 0 or a missing trace is a no-op.
        assert_eq!(rec.pin(0), 0);
        assert_eq!(rec.pin(424242), 0);
    }

    #[test]
    fn snapshot_dedupes_pinned_against_live_ring() {
        let rec = FlightRecorder::new(8, 8);
        rec.record(FlightKind::Admitted, 1, 5, 1, 0, "");
        rec.pin(5);
        // The event is both pinned and still live: it must appear once.
        let events = rec.snapshot();
        assert_eq!(events.len(), 1);
    }

    #[test]
    fn render_json_is_wellformed_and_prints_the_tenant_id() {
        let rec = FlightRecorder::new(8, 8);
        rec.record(FlightKind::Shed, u64::MAX, 9, 0, 2500, "");
        rec.record(FlightKind::Error, 3, 9, 3, 0, "panic");
        let json = rec.render_json();
        // The tenant id stays a quoted string in the dump.
        let line = "    {\"seq\": 0, \"ts_us\": ";
        let rest = "\"kind\": \"shed\", \"tenant\": \"18446744073709551615\", \
                    \"trace_id\": 9, \"job_id\": 0, \"value_us\": 2500, \"class\": \"\"},";
        let shed = json
            .lines()
            .find(|l| l.starts_with(line))
            .expect("shed line");
        assert!(shed.ends_with(rest), "{shed}");
        assert!(json.contains("\"tenant\": \"3\""));
        assert!(json.contains("\"class\": \"panic\""));
        assert!(json.contains("\"capacity\": 8"));
        // Brace/bracket balance as a cheap well-formedness check.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn slowest_trace_attributes_stages() {
        let rec = FlightRecorder::default();
        // Trace 1: modest. Trace 2: the slow one, with queue wait dominant.
        rec.record(FlightKind::Admitted, 1, 1, 1, 0, "");
        rec.record(FlightKind::QueuePop, 1, 1, 1, 100, "");
        rec.record(FlightKind::ExecEnd, 1, 1, 1, 200, "");
        rec.record(FlightKind::Reply, 1, 1, 1, 350, "");
        rec.record(FlightKind::Admitted, 2, 2, 2, 0, "");
        rec.record(FlightKind::QueuePop, 2, 2, 2, 9_000, "");
        rec.record(FlightKind::ExecEnd, 2, 2, 2, 500, "");
        rec.record(FlightKind::Reply, 2, 2, 2, 10_000, "");
        let worst = rec.slowest_trace().expect("a trace completed");
        assert_eq!(worst.trace_id, 2);
        assert_eq!(worst.tenant, 2);
        assert_eq!(worst.queue_wait_us, 9_000);
        assert_eq!(worst.exec_us, 500);
        assert_eq!(worst.total_us, 10_000);
        assert_eq!(worst.effective_total(), 10_000);
        assert_eq!(worst.unattributed_us(), 500);
    }

    #[test]
    fn untraced_requests_never_win_attribution() {
        let rec = FlightRecorder::default();
        rec.record(FlightKind::ExecEnd, 4, 0, 1, 999_999, "");
        assert!(rec.slowest_trace().is_none());
    }
}
