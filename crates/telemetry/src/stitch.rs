//! Chrome traces: one process's spans, or a client's and a server's
//! stitched into one.
//!
//! The two halves of a traced request are recorded against different clock
//! domains: the client's trace epoch and the server's.  Neither side knows
//! wall-clock time of the other, but the client *does* know when it sent the
//! trace fetch and when the reply landed, and the server stamps its own
//! `now_us` into the reply.  Assuming the request and response legs are
//! roughly symmetric (the NTP assumption), the server clock read happened at
//! the midpoint of the round trip:
//!
//! ```text
//! offset = (sent_us + received_us) / 2 - server_now_us
//! server span ts (client domain) = span.ts_us + offset
//! ```
//!
//! [`stitch_chrome_trace`] applies that offset and renders both span sets
//! into a single Chrome `trace_event` JSON array — client spans under
//! `pid 1`, server spans under `pid 2` — so one `chrome://tracing` /
//! Perfetto load shows a request crossing the wire, aligned on a shared
//! timeline and joined by `trace_id` in each span's args.
//! [`chrome_trace_json`] is the one-process case of the same renderer,
//! which the flight recorder's dump uses too.

use crate::trace::SpanEvent;

/// The NTP-style offset mapping server trace timestamps into the client
/// clock domain: `server_ts + offset ≈ client_ts`.  `sent_us` and
/// `received_us` bracket the trace-fetch round trip on the client clock;
/// `server_now_us` is the server clock read inside it.
pub fn clock_offset_us(sent_us: u64, received_us: u64, server_now_us: u64) -> i64 {
    let midpoint = (sent_us / 2 + received_us / 2 + (sent_us % 2 + received_us % 2) / 2) as i64;
    midpoint - server_now_us as i64
}

fn shift(ts_us: u64, offset_us: i64) -> u64 {
    (ts_us as i64).saturating_add(offset_us).max(0) as u64
}

pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn render_one(out: &mut String, s: &SpanEvent, pid: u32, offset_us: i64) {
    let mut args = format!("\"depth\": {}", s.depth);
    if s.trace_id != 0 {
        args.push_str(&format!(", \"trace_id\": {}", s.trace_id));
    }
    if let Some((k, v)) = &s.arg {
        args.push_str(&format!(", \"{}\": {v}", json_escape(k)));
    }
    if !s.class.is_empty() {
        args.push_str(&format!(", \"class\": \"{}\"", json_escape(s.class)));
    }
    out.push_str(&format!(
        "  {{\"name\": \"{}\", \"ph\": \"X\", \"ts\": {}, \"dur\": {}, \
         \"pid\": {pid}, \"tid\": {}, \"args\": {{{args}}}}}",
        json_escape(&s.name),
        shift(s.ts_us, offset_us),
        s.dur_us,
        s.tid,
    ));
}

/// Renders client spans (`pid 1`, client clock) and server spans (`pid 2`,
/// shifted by `offset_us` from [`clock_offset_us`]) as one Chrome
/// `trace_event` JSON array.
pub fn stitch_chrome_trace(client: &[SpanEvent], server: &[SpanEvent], offset_us: i64) -> String {
    let total = client.len() + server.len();
    let mut out = String::from("[\n");
    let mut emitted = 0usize;
    for (spans, pid, offset) in [(client, 1u32, 0i64), (server, 2u32, offset_us)] {
        for s in spans {
            render_one(&mut out, s, pid, offset);
            emitted += 1;
            out.push_str(if emitted < total { ",\n" } else { "\n" });
        }
    }
    out.push_str("]\n");
    out
}

/// Renders one process's spans as a Chrome `trace_event` JSON array
/// (complete events, `ph: "X"`, all under `pid 1`), loadable in
/// `chrome://tracing` or Perfetto.  Span arguments and stack depth land in
/// `args`.
pub fn chrome_trace_json(spans: &[SpanEvent]) -> String {
    stitch_chrome_trace(spans, &[], 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, ts_us: u64, dur_us: u64, trace_id: u64) -> SpanEvent {
        SpanEvent {
            name: name.to_string().into(),
            ts_us,
            dur_us,
            tid: 1,
            trace_id,
            ..SpanEvent::default()
        }
    }

    #[test]
    fn offset_is_midpoint_minus_server_clock() {
        // Sent at 1000, received at 1400 → midpoint 1200; the server clock
        // read 5_000_000 at that instant, so server ts must shift by
        // 1200 - 5_000_000 to land on the client timeline.
        assert_eq!(clock_offset_us(1000, 1400, 5_000_000), 1200 - 5_000_000);
        // Odd endpoints still land on the true midpoint.
        assert_eq!(clock_offset_us(1, 3, 2), 0);
        // A server clock behind the client yields a positive offset.
        assert!(clock_offset_us(10_000, 10_100, 40) > 0);
    }

    #[test]
    fn stitch_places_halves_in_separate_pids_on_one_timeline() {
        let client = vec![span("client.submit", 1000, 500, 42)];
        let server = vec![span("net.tune_exec", 7_000_000, 300, 42)];
        let offset = clock_offset_us(1000, 1500, 7_000_100);
        let json = stitch_chrome_trace(&client, &server, offset);
        assert!(json.contains("\"name\": \"client.submit\""));
        assert!(json.contains("\"pid\": 1"));
        assert!(json.contains("\"pid\": 2"));
        assert!(json.contains("\"trace_id\": 42"));
        // Server span lands near the client round-trip window, not at 7s.
        let shifted = (7_000_000i64 + offset).max(0) as u64;
        assert!(json.contains(&format!("\"ts\": {shifted}")));
        assert!(shifted < 10_000);
        // Valid JSON shape: one complete event per span, comma-separated.
        assert_eq!(json.matches("\"ph\": \"X\"").count(), 2);
        assert!(json.trim_end().ends_with(']'));
    }

    #[test]
    fn owned_span_round_trips_from_span_event_and_escapes_names() {
        // A span decoded off the wire owns its strings; it is the same event
        // as the one recorded with static ones.
        let recorded = SpanEvent {
            arg: Some(("job".into(), 9)),
            class: "spmv",
            ..SpanEvent::ending_now("net.exec", 7)
        };
        let decoded = SpanEvent {
            name: recorded.name.to_string().into(),
            arg: Some(("job".to_string().into(), 9)),
            ..recorded.clone()
        };
        assert_eq!(decoded, recorded);
        let json = chrome_trace_json(&[recorded]);
        assert!(json.contains("\"job\": 9, \"class\": \"spmv\"}"));

        let hostile = span("bad\"name\\with\nnewline", 0, 1, 0);
        let json = stitch_chrome_trace(&[hostile], &[], 0);
        assert!(json.contains("bad\\\"name\\\\with\\nnewline"));
    }
}
