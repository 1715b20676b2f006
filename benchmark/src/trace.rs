//! The benchmark's own span recorder.
//!
//! Layers are measured from outside: every call into a crate's public
//! function is wrapped in a span (name, start, end, parent, operation id)
//! recorded here, in memory, and written out as a Chrome trace when the run
//! ends.  Spans inside the program are a later issue.
//!
//! Each thread records into its own [`ThreadTrace`] (no lock on the hot
//! path) and hands it to the shared [`Tracer`] when it is done.
//!
//! The recorder is also the benchmark's clock: [`ThreadTrace::timed`] returns
//! durations normalised by the host-speed probe (see [`crate::speed`]).
//! Spans keep raw timestamps.

use crate::speed::SpeedProbe;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded call.  `parent` indexes the span list the span is stored in.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// The operation (one tune, one SpMV call, ...) this span belongs to.
    pub op: u64,
    pub thread: usize,
}

/// Collects the spans of every thread of a run.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
    threads: AtomicUsize,
    speed: SpeedProbe,
}

impl Tracer {
    /// A tracer whose clock is not normalised (factor 1).
    pub fn new(enabled: bool) -> Tracer {
        Tracer::with_speed(enabled, SpeedProbe::new(1, None))
    }

    /// A tracer whose clock is normalised by `speed`.
    pub fn with_speed(enabled: bool, speed: SpeedProbe) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
            threads: AtomicUsize::new(0),
            speed,
        }
    }

    /// Re-reads the host's speed; durations timed from now on are normalised
    /// by it.  Call where no other thread of the benchmark is measuring.
    pub fn refresh_speed(&self) {
        self.speed.refresh();
    }

    pub fn speed(&self) -> &SpeedProbe {
        &self.speed
    }

    /// A recorder for the calling thread.  Disabled tracers hand out
    /// recorders that only time.
    pub fn thread(&self) -> ThreadTrace<'_> {
        ThreadTrace {
            tracer: self,
            thread: self.threads.fetch_add(1, Ordering::Relaxed) + 1,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// All spans handed in so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("tracer poisoned").clone()
    }
}

/// The per-thread recorder.  Hands its spans to the tracer when dropped.
pub struct ThreadTrace<'a> {
    tracer: &'a Tracer,
    thread: usize,
    spans: Vec<Span>,
    /// Indices of the spans entered and not yet left, innermost last.
    open: Vec<usize>,
}

impl ThreadTrace<'_> {
    fn now_ns(&self) -> u64 {
        self.tracer.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span that encloses the calls made until the matching
    /// [`ThreadTrace::leave`].
    pub fn enter(&mut self, name: &'static str, op: u64) {
        if !self.tracer.enabled {
            return;
        }
        let start_ns = self.now_ns();
        self.open.push(self.spans.len());
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.iter().rev().nth(1).copied(),
            op,
            thread: self.thread,
        });
    }

    /// Closes the innermost open span.
    pub fn leave(&mut self) {
        if !self.tracer.enabled {
            return;
        }
        let index = self.open.pop().expect("leave without enter");
        self.spans[index].end_ns = self.now_ns();
    }

    /// Runs `f`, returning its result and its wall time in seconds at the
    /// reference host speed, and records the call as a span when tracing is
    /// on.  The clock is read either way — latency samples need it — so
    /// tracing only adds the record.
    pub fn timed<R>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> R) -> (R, f64) {
        let start = Instant::now();
        let result = f();
        let elapsed = start.elapsed();
        if self.tracer.enabled {
            let end_ns = (start + elapsed)
                .duration_since(self.tracer.epoch)
                .as_nanos() as u64;
            self.spans.push(Span {
                name,
                start_ns: end_ns.saturating_sub(elapsed.as_nanos() as u64),
                end_ns,
                parent: self.open.last().copied(),
                op,
                thread: self.thread,
            });
        }
        (result, elapsed.as_secs_f64() * self.tracer.speed.factor())
    }
}

impl Drop for ThreadTrace<'_> {
    fn drop(&mut self) {
        if self.spans.is_empty() {
            return;
        }
        // A poisoned tracer means another thread already panicked; its panic
        // is the one to report, so the spans are simply dropped.
        if let Ok(mut all) = self.tracer.spans.lock() {
            let offset = all.len();
            all.extend(self.spans.drain(..).map(|mut span| {
                span.parent = span.parent.map(|p| p + offset);
                span
            }));
        }
    }
}

/// Time of one span name: how often it ran, its total duration and its self
/// time (duration minus the part its child spans cover).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SpanTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Self time per span name.  Children of one span never overlap (a thread
/// makes one call at a time), so a span's self time is its duration minus the
/// sum of its direct children's durations.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, SpanTotals> {
    let mut child_ns = vec![0u64; spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            child_ns[parent] += span.end_ns - span.start_ns;
        }
    }
    let mut totals: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
    for (span, children) in spans.iter().zip(child_ns) {
        let duration = span.end_ns - span.start_ns;
        let entry = totals.entry(span.name).or_default();
        entry.count += 1;
        entry.total_ns += duration;
        entry.self_ns += duration.saturating_sub(children);
    }
    totals
}

/// The spans as a Chrome trace (`chrome://tracing`, Perfetto): one complete
/// ("X") event per span, timestamps in microseconds.
pub fn chrome_trace_json(spans: &[Span]) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    for (i, span) in spans.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"op\":{}}}}}",
            span.name,
            span.thread,
            span.start_ns as f64 / 1e3,
            (span.end_ns - span.start_ns) as f64 / 1e3,
            span.op
        ));
    }
    out.push_str("\n]}\n");
    out
}

/// Measured cost of recording one span, in nanoseconds: `spans` spans are
/// recorded into a scratch tracer and the wall time divided by their number.
pub fn span_cost_ns(spans: usize) -> f64 {
    let tracer = Tracer::new(true);
    let mut trace = tracer.thread();
    let start = Instant::now();
    for op in 0..spans {
        std::hint::black_box(trace.timed("calibration", op as u64, || ()));
    }
    let traced = start.elapsed().as_secs_f64();
    let untraced_tracer = Tracer::new(false);
    let mut untraced = untraced_tracer.thread();
    let start = Instant::now();
    for op in 0..spans {
        std::hint::black_box(untraced.timed("calibration", op as u64, || ()));
    }
    let base = start.elapsed().as_secs_f64();
    ((traced - base).max(0.0)) * 1e9 / spans.max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            op: 0,
            thread: 1,
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let spans = [
            span("op", 0, 100, None),
            span("call", 10, 40, Some(0)),
            span("inner", 15, 25, Some(1)),
            span("call", 50, 90, Some(0)),
        ];
        let totals = self_times(&spans);
        assert_eq!(
            totals["op"],
            SpanTotals {
                count: 1,
                total_ns: 100,
                self_ns: 30
            }
        );
        // The grandchild counts against its parent only.
        assert_eq!(
            totals["call"],
            SpanTotals {
                count: 2,
                total_ns: 70,
                self_ns: 60
            }
        );
        assert_eq!(totals["inner"].self_ns, 10);
    }

    #[test]
    fn recorder_nests_timed_calls_under_open_spans() {
        let tracer = Tracer::new(true);
        {
            let mut trace = tracer.thread();
            trace.enter("op", 7);
            let (value, secs) = trace.timed("call", 7, || 41 + 1);
            assert_eq!(value, 42);
            assert!(secs >= 0.0);
            trace.enter("phase", 7);
            trace.timed("call", 7, || ());
            trace.leave();
            trace.leave();
            trace.timed("loose", 8, || ());
        }
        let spans = tracer.spans();
        let names: Vec<_> = spans.iter().map(|s| s.name).collect();
        assert_eq!(names, ["op", "call", "phase", "call", "loose"]);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert_eq!(spans[3].parent, Some(2));
        assert_eq!(spans[4].parent, None);
        assert!(spans[0].end_ns >= spans[3].end_ns);
        assert!(chrome_trace_json(&spans).contains("\"name\":\"phase\""));
    }

    #[test]
    fn threads_merge_with_parents_rebased() {
        let tracer = Tracer::new(true);
        for _ in 0..2 {
            let mut trace = tracer.thread();
            trace.enter("op", 0);
            trace.timed("call", 0, || ());
            trace.leave();
        }
        let spans = tracer.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[3].parent, Some(2));
        assert_ne!(spans[0].thread, spans[2].thread);
    }

    #[test]
    fn disabled_tracer_times_but_records_nothing() {
        let tracer = Tracer::new(false);
        {
            let mut trace = tracer.thread();
            trace.enter("op", 0);
            let (_, secs) = trace.timed("call", 0, || std::hint::black_box(3));
            trace.leave();
            assert!(secs >= 0.0);
        }
        assert!(tracer.spans().is_empty());
    }
}
