//! The minimal HTTP/1.1 gateway riding the same epoll event loop as the
//! line protocol.
//!
//! The gateway is a second *framing* of the same requests, not a second
//! server: an incremental parser ([`HttpParser`]) assembles requests from
//! whatever fragmentation the transport produced and builds the same
//! typed [`Request`] a line-protocol line parses into —
//!
//! | route | request |
//! |---|---|
//! | `POST /v1/jobs` (JSON body) | [`Request::Submit`] |
//! | `GET /v1/jobs/{id}` | [`Request::Poll`] |
//! | `GET /v1/metrics` | [`Request::Metrics`] |
//!
//! — with the same field parsers (`crate::protocol`), so deferral
//! (`wait: true`), FIFO-per-connection responses and backpressure work
//! identically on both listeners. Routing and framing errors are
//! [`ServeError`]s like any other refusal: they queue behind earlier
//! requests in the same typed deferred queue. The status is 200 on
//! success and otherwise picked by the error's [`ErrorKind`] alone (one
//! table, `status`), and the response **body** is byte-for-byte the
//! line-protocol response (one JSON object plus a trailing newline).
//! `tests/serve.rs` asserts that an HTTP-submitted job and a
//! line-submitted job return identical results, and that every error
//! body equals the line protocol's answer to the same request.
//!
//! The limits mirror the line protocol's: the header section and the
//! body are each capped at 1 MiB ([`MAX_HEAD`], [`MAX_BODY`]); a request
//! that violates framing (malformed request line, oversized section,
//! `Transfer-Encoding`) is answered with the matching status code and
//! the connection closes — once framing is untrustworthy, so is
//! everything after it. Well-framed requests keep the connection alive
//! per HTTP/1.1 defaults (`Connection: close`, or HTTP/1.0 without
//! `keep-alive`, closes after the response) and may be pipelined.

use crate::json::Json;
use crate::protocol::{
    parse_body, parse_job_id, ErrorKind, Incoming, Request, ServeError, SubmitSpec,
};

/// Cap on the request line + headers (bytes, terminator included) —
/// the same 1 MiB bound the line protocol places on a request line.
pub const MAX_HEAD: usize = 1 << 20;

/// Cap on a request body (`Content-Length` bytes).
pub const MAX_BODY: usize = 1 << 20;

/// Where the parser is within the current request.
#[derive(Debug, Default)]
enum ParseState {
    /// Accumulating the request line + headers.
    #[default]
    Head,
    /// Head parsed; waiting for `need` body bytes.
    Body { method: String, path: String, close: bool, need: usize },
    /// A framing violation was answered; all further input is ignored
    /// (the connection is closing).
    Dead,
}

/// Incremental HTTP/1.1 request parser. Feed it bytes as they arrive;
/// it yields complete requests ([`Incoming`]s) in order, however the
/// input was fragmented or pipelined.
#[derive(Debug, Default)]
pub struct HttpParser {
    buf: Vec<u8>,
    state: ParseState,
}

impl HttpParser {
    /// A fresh parser.
    pub fn new() -> HttpParser {
        HttpParser::default()
    }

    /// Feeds received bytes in; returns every request completed by them.
    /// After a framing violation the returned item closes the connection
    /// and the parser goes dead (later bytes are discarded).
    pub fn ingest(&mut self, bytes: &[u8]) -> Vec<Incoming> {
        if matches!(self.state, ParseState::Dead) {
            return Vec::new();
        }
        self.buf.extend_from_slice(bytes);
        let mut items = Vec::new();
        loop {
            match std::mem::take(&mut self.state) {
                ParseState::Dead => unreachable!("checked above; never re-entered"),
                ParseState::Head => {
                    let end = find_head_end(&self.buf);
                    let parsed = if end.map_or(self.buf.len(), |(h, t)| h + t) > MAX_HEAD {
                        Err(ServeError::new(
                            ErrorKind::HeadTooLarge,
                            format!("header section exceeds {MAX_HEAD} bytes"),
                        ))
                    } else if let Some((head_len, term_len)) = end {
                        let head: Vec<u8> = self.buf.drain(..head_len + term_len).collect();
                        parse_head(&head[..head_len])
                    } else {
                        return items; // the head is still arriving
                    };
                    match parsed {
                        Ok((method, path, close, need)) => {
                            self.state = ParseState::Body { method, path, close, need };
                        }
                        Err(e) => {
                            items.push(Incoming { request: Err(e), close: true });
                            self.state = ParseState::Dead;
                            self.buf.clear();
                            return items;
                        }
                    }
                }
                ParseState::Body { method, path, close, need } => {
                    if self.buf.len() < need {
                        self.state = ParseState::Body { method, path, close, need };
                        return items;
                    }
                    let body: Vec<u8> = self.buf.drain(..need).collect();
                    items.push(Incoming { request: route(&method, &path, &body), close });
                    self.state = ParseState::Head; // pipelining: keep going
                }
            }
        }
    }
}

/// Finds the end of the header section: `(head_len, terminator_len)`
/// where the head is `buf[..head_len]` and the body starts at
/// `head_len + terminator_len`. Accepts `\r\n\r\n` and bare `\n\n` (and
/// the mixed `\n\r\n`).
fn find_head_end(buf: &[u8]) -> Option<(usize, usize)> {
    let mut i = 0;
    while i < buf.len() {
        if buf[i] != b'\n' {
            i += 1;
            continue;
        }
        match buf.get(i + 1) {
            Some(b'\n') => return Some((i + 1, 1)),
            Some(b'\r') if buf.get(i + 2) == Some(&b'\n') => return Some((i + 1, 2)),
            _ => i += 1,
        }
    }
    None
}

/// Parses the request line + headers. Returns
/// `(method, path, close_after_response, content_length)` or the
/// violation to answer with.
#[allow(clippy::type_complexity)]
fn parse_head(head: &[u8]) -> Result<(String, String, bool, usize), ServeError> {
    let bad = ServeError::bad_request;
    let text = std::str::from_utf8(head).map_err(|_| bad("request head is not valid UTF-8"))?;
    let mut lines = text.split('\n').map(|l| l.strip_suffix('\r').unwrap_or(l));
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split_whitespace();
    let (Some(method), Some(target), Some(version), None) =
        (parts.next(), parts.next(), parts.next(), parts.next())
    else {
        return Err(ServeError::bad_request(format!("malformed request line `{request_line}`")));
    };
    let mut keep_alive = match version {
        "HTTP/1.1" => true,
        "HTTP/1.0" => false,
        _ => {
            return Err(ServeError::new(
                ErrorKind::VersionNotSupported,
                format!("unsupported protocol version `{version}`"),
            ))
        }
    };
    let mut content_length = 0usize;
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(ServeError::bad_request(format!("malformed header line `{line}`")));
        };
        let name = name.trim().to_ascii_lowercase();
        let value = value.trim();
        match name.as_str() {
            "content-length" => {
                content_length = value.parse().map_err(|_| {
                    ServeError::bad_request(format!("bad Content-Length `{value}`"))
                })?;
                if content_length > MAX_BODY {
                    return Err(ServeError::new(
                        ErrorKind::BodyTooLarge,
                        format!("request body exceeds {MAX_BODY} bytes"),
                    ));
                }
            }
            "transfer-encoding" => {
                return Err(ServeError::new(
                    ErrorKind::NotImplemented,
                    "Transfer-Encoding is not supported; send Content-Length",
                ));
            }
            "connection" => {
                let value = value.to_ascii_lowercase();
                if value.split(',').any(|t| t.trim() == "close") {
                    keep_alive = false;
                } else if value.split(',').any(|t| t.trim() == "keep-alive") {
                    keep_alive = true;
                }
            }
            _ => {}
        }
    }
    // Strip any query string: the routes don't take parameters.
    let path = target.split('?').next().unwrap_or(target).to_string();
    Ok((method.to_string(), path, !keep_alive, content_length))
}

/// Builds the request one complete HTTP request stands for, or the
/// routing/validation error that answers it.
fn route(method: &str, path: &str, body: &[u8]) -> Result<Request, ServeError> {
    let not_allowed = |allowed: &str| {
        Err(ServeError::new(
            ErrorKind::MethodNotAllowed,
            format!("{method} not allowed on {path}; use {allowed}"),
        ))
    };
    match (method, path) {
        ("GET", "/v1/metrics") => Ok(Request::Metrics),
        ("POST", "/v1/jobs") => submit_request(body),
        (_, "/v1/metrics") => not_allowed("GET"),
        (_, "/v1/jobs") => not_allowed("POST"),
        _ => match path.strip_prefix("/v1/jobs/").filter(|id| !id.is_empty()) {
            Some(_) if method != "GET" => not_allowed("GET"),
            Some(id) => Ok(Request::Poll { job: parse_job_id(id)? }),
            None => Err(ServeError::new(
                ErrorKind::NotFound,
                format!("no route for {method} {path}"),
            )),
        },
    }
}

/// The submit a `POST /v1/jobs` body describes: the body must be a JSON
/// object, parsed once and validated by the same
/// [`SubmitSpec`] parser as a line-protocol `submit` (any `op` member is
/// ignored, so a body cannot smuggle in another operation).
fn submit_request(body: &[u8]) -> Result<Request, ServeError> {
    let text = std::str::from_utf8(body)
        .map_err(|_| ServeError::bad_request("request body is not valid UTF-8"))?;
    let v = parse_body(text)?;
    if !matches!(v, Json::Obj(_)) {
        return Err(ServeError::bad_request("request body must be a JSON object"));
    }
    Ok(Request::Submit(SubmitSpec::from_json(&v)?))
}

/// The status code and reason phrase that answer an error of this kind.
fn status(kind: ErrorKind) -> (u16, &'static str) {
    match kind {
        ErrorKind::BadRequest => (400, "Bad Request"),
        ErrorKind::NotFound => (404, "Not Found"),
        ErrorKind::MethodNotAllowed => (405, "Method Not Allowed"),
        ErrorKind::BodyTooLarge => (413, "Content Too Large"),
        ErrorKind::HeadTooLarge => (431, "Request Header Fields Too Large"),
        ErrorKind::NotImplemented => (501, "Not Implemented"),
        ErrorKind::VersionNotSupported => (505, "HTTP Version Not Supported"),
    }
}

/// Frames one response: status line (200, or the error kind's status),
/// `Content-Type`/`Content-Length`/`Connection` headers, and the body —
/// which is byte-for-byte the line-protocol response line, keeping the
/// two listeners' payloads identical.
pub fn frame_response(response: &Result<Json, ServeError>, close: bool) -> Vec<u8> {
    let (code, reason) = response.as_ref().map_or_else(|e| status(e.kind), |_| (200, "OK"));
    let body = crate::protocol::response_line(response);
    let head = format!(
        "HTTP/1.1 {code} {reason}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: {}\r\n\r\n",
        body.len(),
        if close { "close" } else { "keep-alive" },
    );
    let mut out = head.into_bytes();
    out.extend_from_slice(body.as_bytes());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn request(item: &Incoming) -> &Request {
        item.request.as_ref().unwrap_or_else(|e| panic!("expected a request, got {e:?}"))
    }

    fn code(item: &Incoming) -> u16 {
        match &item.request {
            Err(e) => status(e.kind).0,
            Ok(r) => panic!("expected an error, got {r:?}"),
        }
    }

    fn submit_of(body: &str) -> Vec<u8> {
        format!("POST /v1/jobs HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}", body.len())
            .into_bytes()
    }

    #[test]
    fn routes_build_the_line_protocols_requests() {
        let mut p = HttpParser::new();
        let items = p.ingest(b"GET /v1/metrics HTTP/1.1\r\nHost: x\r\n\r\n");
        assert_eq!(items, vec![Incoming { request: Ok(Request::Metrics), close: false }]);

        let items = p.ingest(b"GET /v1/jobs/42 HTTP/1.1\r\n\r\n");
        assert_eq!(request(&items[0]), &Request::Poll { job: 42 });

        let body = r#"{"kernels": ["compress"], "insts": 20000}"#;
        let bytes = submit_of(body);
        let (head, tail) = bytes.split_at(bytes.len() - body.len());
        let mut items = p.ingest(head);
        items.extend(p.ingest(tail));
        assert_eq!(items.len(), 1);
        let line = format!(r#"{{"op": "submit", {}"#, &body[1..]);
        assert_eq!(request(&items[0]), &Request::parse(&line).unwrap());
    }

    #[test]
    fn client_supplied_op_member_cannot_smuggle_another_operation() {
        let mut p = HttpParser::new();
        let items =
            p.ingest(&submit_of(r#"{"op": "shutdown", "kernels": ["compress"], "insts": 20000}"#));
        assert_eq!(
            request(&items[0]),
            &Request::parse(r#"{"op": "submit", "kernels": ["compress"], "insts": 20000}"#)
                .unwrap()
        );
    }

    #[test]
    fn fragmentation_and_pipelining_both_reassemble() {
        let mut p = HttpParser::new();
        // Byte-at-a-time: nothing completes early.
        let req = b"GET /v1/metrics HTTP/1.1\r\n\r\n";
        for &b in &req[..req.len() - 1] {
            assert!(p.ingest(&[b]).is_empty());
        }
        let items = p.ingest(&req[req.len() - 1..]);
        assert_eq!(items.len(), 1);

        // Two pipelined requests in one read.
        let two = b"GET /v1/jobs/1 HTTP/1.1\r\n\r\nGET /v1/jobs/2 HTTP/1.1\r\n\r\n";
        let items = p.ingest(two);
        assert_eq!(items.len(), 2);
        assert_eq!(request(&items[0]), &Request::Poll { job: 1 });
        assert_eq!(request(&items[1]), &Request::Poll { job: 2 });
    }

    #[test]
    fn framing_violations_answer_and_kill_the_parser() {
        // Malformed request line.
        let mut p = HttpParser::new();
        let items = p.ingest(b"NOT-HTTP\r\n\r\n");
        assert_eq!(code(&items[0]), 400);
        assert!(items[0].close, "a framing violation closes the connection");
        assert!(p.ingest(b"GET /v1/metrics HTTP/1.1\r\n\r\n").is_empty(), "parser is dead");

        // Oversized header section (never terminated).
        let mut p = HttpParser::new();
        let mut items = Vec::new();
        let filler = vec![b'a'; 64 * 1024];
        for _ in 0..=(MAX_HEAD / filler.len()) + 1 {
            items = p.ingest(&filler);
            if !items.is_empty() {
                break;
            }
        }
        assert_eq!(code(&items[0]), 431);

        // Oversized body via Content-Length.
        let mut p = HttpParser::new();
        let req = format!("POST /v1/jobs HTTP/1.1\r\nContent-Length: {}\r\n\r\n", MAX_BODY + 1);
        assert_eq!(code(&p.ingest(req.as_bytes())[0]), 413);

        // Chunked transfer is refused, not guessed at.
        let mut p = HttpParser::new();
        let items =
            p.ingest(b"POST /v1/jobs HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n");
        assert_eq!(code(&items[0]), 501);
    }

    #[test]
    fn routing_errors_answer_without_killing_the_connection() {
        let mut p = HttpParser::new();
        let items = p.ingest(b"GET /nope HTTP/1.1\r\n\r\nDELETE /v1/jobs/3 HTTP/1.1\r\n\r\n");
        assert_eq!(items.len(), 2, "connection survives routing errors");
        assert_eq!(code(&items[0]), 404);
        assert_eq!(code(&items[1]), 405);
        assert!(!items[0].close && !items[1].close);
        // Non-numeric job ids are unknown jobs, not server errors.
        let items = p.ingest(b"GET /v1/jobs/abc HTTP/1.1\r\n\r\n");
        assert_eq!(items[0].request, Err(ServeError::unknown_job("abc")));
        // Malformed POST bodies answer 400 but keep the framing.
        let items = p.ingest(b"POST /v1/jobs HTTP/1.1\r\nContent-Length: 3\r\n\r\n[1]");
        assert_eq!(code(&items[0]), 400);
        let items = p.ingest(b"GET /v1/metrics HTTP/1.1\r\n\r\n");
        assert_eq!(request(&items[0]), &Request::Metrics);
    }

    #[test]
    fn connection_semantics_follow_version_and_header() {
        let mut p = HttpParser::new();
        let items = p.ingest(b"GET /v1/metrics HTTP/1.0\r\n\r\n");
        assert!(items[0].close, "1.0 defaults to close");
        let items = p.ingest(b"GET /v1/metrics HTTP/1.0\r\nConnection: keep-alive\r\n\r\n");
        assert!(!items[0].close);
        let items = p.ingest(b"GET /v1/metrics HTTP/1.1\r\nConnection: close\r\n\r\n");
        assert!(items[0].close);
    }

    #[test]
    fn response_framing_carries_the_line_protocol_body_verbatim() {
        let response = Json::obj([("ok", Json::Bool(true)), ("jobs", Json::Arr(vec![]))]);
        let bytes = frame_response(&Ok(response.clone()), false);
        let text = String::from_utf8(bytes).expect("ascii");
        let (head, body) = text.split_once("\r\n\r\n").expect("head/body split");
        assert!(head.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(head.contains(&format!("Content-Length: {}", body.len())));
        assert!(head.contains("Connection: keep-alive"));
        assert_eq!(body, format!("{response}\n"), "body == line-protocol response");

        let err = ServeError::unknown_job(7);
        let text = String::from_utf8(frame_response(&Err(err.clone()), true)).expect("ascii");
        assert!(text.starts_with("HTTP/1.1 404 Not Found\r\n"));
        assert!(text.contains("Connection: close"));
        assert!(text.ends_with(&format!("\r\n\r\n{}\n", err.to_json())));
    }
}
