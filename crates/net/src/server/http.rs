//! The metrics lane: a plaintext HTTP/1.0 debug endpoint on the daemon's
//! own event loop.  `GET /metrics` answers the Prometheus text exposition,
//! `GET /debug/flightrec` the flight recorder's JSON dump.

use super::*;

/// Upper bound on one HTTP scrape request's head; a peer that sends more
/// is answered 400 and closed.
const MAX_HTTP_REQUEST: usize = 8 * 1024;

/// Wall-clock bound on one scrape connection, open to flushed.  A scraper
/// that dribbles its request or never drains the response is torn down —
/// the HTTP lane's slow-loris sweep.
const HTTP_DEADLINE: Duration = Duration::from_secs(10);

/// One scrape connection on the metrics HTTP endpoint: a tiny request in,
/// one response out, close.  Deliberately not a frame connection — no
/// deferral, no pipelining, no half-close support, so the frame protocol's
/// state machine stays untouched by the HTTP lane.
pub(super) struct HttpConn {
    pub(super) stream: TcpStream,
    /// Buffered request bytes, capped at [`MAX_HTTP_REQUEST`].
    buf: Vec<u8>,
    /// The encoded response, built once the request head completes.
    out: Vec<u8>,
    /// Bytes of `out` already written (partial-write cursor).
    out_pos: usize,
    /// The response is built; only flushing remains.
    responded: bool,
    /// The peer is gone or the response flushed; drop at reap.
    dead: bool,
    /// Accept time — start of the [`HTTP_DEADLINE`] window.
    opened: Instant,
}

impl HttpConn {
    pub(super) fn new(stream: TcpStream) -> HttpConn {
        HttpConn {
            stream,
            buf: Vec::new(),
            out: Vec::new(),
            out_pos: 0,
            responded: false,
            dead: false,
            opened: Instant::now(),
        }
    }

    /// Nothing more to do: the peer is gone, the response flushed, or the
    /// scrape outlived [`HTTP_DEADLINE`].
    pub(super) fn done(&self) -> bool {
        self.dead || self.opened.elapsed() > HTTP_DEADLINE
    }

    /// Drives the connection on one readiness event: buffer the request
    /// head, answer once it completes, flush, close.  The exposition is
    /// rendered from a registry snapshot — no lock is held across the
    /// socket write, and a stalled scraper only stalls its own connection.
    pub(super) fn service(&mut self, event: Event, shared: &Shared, reactor: &Reactor) {
        if (event.readable || event.closed) && !self.responded {
            let mut chunk = [0u8; 4096];
            loop {
                match self.stream.read(&mut chunk) {
                    Ok(0) => {
                        if !head_complete(&self.buf) {
                            self.dead = true; // EOF before a full request.
                        }
                        break;
                    }
                    Ok(n) => {
                        self.buf.extend_from_slice(&chunk[..n]);
                        if self.buf.len() > MAX_HTTP_REQUEST {
                            break; // Judged below: oversized head is a 400.
                        }
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        self.dead = true;
                        break;
                    }
                }
            }
            if !self.dead {
                if self.buf.len() > MAX_HTTP_REQUEST {
                    self.out =
                        http_response("400 Bad Request", TEXT_PLAIN, "request head too large\n");
                    self.responded = true;
                } else if head_complete(&self.buf) {
                    self.out = match http_route(&self.buf) {
                        HttpRoute::Metrics => {
                            shared.http_scrapes.inc();
                            http_response(
                                "200 OK",
                                PROMETHEUS_TEXT,
                                &shared.registry.render_prometheus(),
                            )
                        }
                        HttpRoute::FlightRec => http_response(
                            "200 OK",
                            "application/json",
                            &shared.flightrec.render_json(),
                        ),
                        HttpRoute::MethodNotAllowed => http_response(
                            "405 Method Not Allowed",
                            TEXT_PLAIN,
                            "only GET is supported\n",
                        ),
                        HttpRoute::NotFound => http_response(
                            "404 Not Found",
                            TEXT_PLAIN,
                            "try GET /metrics or GET /debug/flightrec\n",
                        ),
                    };
                    self.responded = true;
                }
            }
        }
        if self.responded && !self.dead {
            while self.out_pos < self.out.len() {
                match self.stream.write(&self.out[self.out_pos..]) {
                    Ok(n) => self.out_pos += n,
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        self.dead = true;
                        break;
                    }
                }
            }
            if self.out_pos == self.out.len() {
                self.dead = true; // Flushed: HTTP/1.0, connection closes.
            } else if !self.dead {
                let _ = reactor.modify(self.stream.as_raw_fd(), event.token, Interest::WRITABLE);
            }
        }
    }
}

/// True once the buffered bytes contain a complete HTTP request head
/// (blank line), in either CRLF or bare-LF framing.
pub(super) fn head_complete(buf: &[u8]) -> bool {
    buf.windows(4).any(|w| w == b"\r\n\r\n") || buf.windows(2).any(|w| w == b"\n\n")
}

/// `Content-Type` of the Prometheus text exposition; `version=0.0.4` is the
/// exposition format version scrapers negotiate on.
pub(super) const PROMETHEUS_TEXT: &str = "text/plain; version=0.0.4";
/// `Content-Type` of the plain diagnostic bodies (404/405/400).
pub(super) const TEXT_PLAIN: &str = "text/plain";

/// Where an HTTP request line lands on the debug endpoint.
pub(super) enum HttpRoute {
    /// `GET /metrics` — the Prometheus text exposition.
    Metrics,
    /// `GET /debug/flightrec` — the flight recorder's JSON dump.
    FlightRec,
    /// A known path with any method but `GET` — `405`, `Allow: GET`.
    MethodNotAllowed,
    /// Everything else.
    NotFound,
}

/// Routes one request line.  Query strings are tolerated on known paths —
/// Prometheus sends none, humans with curl sometimes do.
pub(super) fn http_route(buf: &[u8]) -> HttpRoute {
    let line = buf.split(|&b| b == b'\n').next().unwrap_or(&[]);
    let line = std::str::from_utf8(line)
        .unwrap_or("")
        .trim_end_matches('\r');
    let mut parts = line.split_whitespace();
    let method = parts.next().unwrap_or("");
    let path = parts.next().unwrap_or("");
    let path = path.split('?').next().unwrap_or("");
    let known = path == "/metrics" || path == "/debug/flightrec";
    match (method, known) {
        ("GET", true) if path == "/metrics" => HttpRoute::Metrics,
        ("GET", true) => HttpRoute::FlightRec,
        (_, true) => HttpRoute::MethodNotAllowed,
        _ => HttpRoute::NotFound,
    }
}

/// Builds a minimal `HTTP/1.0` response with the headers a scraper needs.
/// A `405` additionally advertises `Allow: GET`.
pub(super) fn http_response(status: &str, content_type: &str, body: &str) -> Vec<u8> {
    let allow = if status.starts_with("405") {
        "Allow: GET\r\n"
    } else {
        ""
    };
    format!(
        "HTTP/1.0 {status}\r\nContent-Type: {content_type}\r\n{allow}Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}
