//! The line-delimited JSON wire protocol.
//!
//! Every request is one JSON object on one line with an `"op"` member;
//! every response is one JSON object on one line with an `"ok"` member.
//! The full reference — ops, fields, defaults, error shapes — lives in
//! `docs/serving.md`; this module is the single parsing point, so the
//! document and the code agree by construction.
//!
//! Both framings produce the same typed values: a line parses into
//! `Result<`[`Request`]`, `[`ServeError`]`>` here, and the HTTP gateway
//! (`crate::http`) builds the same values from its route and body with
//! the same field parsers. Dispatch answers with `Result<Json,
//! ServeError>`; the error's [`ErrorKind`] alone picks the HTTP status,
//! and both framings send its message as `{"ok": false, "error": …}`.
//!
//! Ops: `ping`, `submit`, `poll`, `metrics`, `drain`, `shutdown`,
//! `snapshot_export`, `snapshot_import`.

use crate::json::Json;

/// Priority bands (0 is most urgent). Submissions outside the range are
/// clamped.
pub const PRIORITY_BANDS: usize = 4;

/// Default priority band for submissions that don't specify one.
pub const DEFAULT_PRIORITY: usize = 2;

/// A parsed client request.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Liveness check; answered immediately with `{"ok": true}`.
    Ping,
    /// Enqueue jobs (one per kernel × replica).
    Submit(SubmitSpec),
    /// Query one job's status (and result, once settled).
    Poll {
        /// The server-assigned job id to query.
        job: u64,
    },
    /// Dump the metrics registry.
    Metrics,
    /// Stop admissions and wait until every admitted job settles.
    Drain,
    /// Drain, then stop the workers and the listener.
    Shutdown,
    /// Export one group's current frozen snapshot as base64 (or, with no
    /// `group` member, list the exportable groups).
    SnapshotExport {
        /// The group fingerprint as 16 hex digits (`None`: list groups).
        group: Option<u64>,
    },
    /// Import an encoded snapshot (base64 of the `fastsim-snapshot/v2`
    /// bytes) into the matching warm-cache group, creating the group if
    /// the server has never seen its configuration.
    SnapshotImport {
        /// The base64-encoded snapshot bytes.
        data: String,
    },
}

/// The body of a `submit` request.
#[derive(Clone, Debug, PartialEq)]
pub struct SubmitSpec {
    /// Kernel names, full or bare-suffix, optionally `kernel@preset`
    /// (resolved against the memory-hierarchy presets server-side).
    pub kernels: Vec<String>,
    /// Target dynamic instructions per kernel.
    pub insts: u64,
    /// Copies of each kernel to enqueue (≥ 1).
    pub replicas: usize,
    /// Hierarchy preset applied to kernels without an `@preset` suffix.
    pub hierarchy: Option<String>,
    /// Priority band, 0 (most urgent) .. [`PRIORITY_BANDS`] − 1.
    pub priority: usize,
    /// Client identity for per-client queue fairness.
    pub client: String,
    /// `true`: the response carries the finished results. `false`: the
    /// response carries job ids to `poll`.
    pub wait: bool,
    /// Per-job timeout in milliseconds (`None`: the server default).
    pub timeout_ms: Option<u64>,
    /// Fault injection for testing: the first `chaos_panics` attempts of
    /// each job panic inside the worker.
    pub chaos_panics: u32,
}

/// What kind of refusal a [`ServeError`] is. The kind alone picks the
/// HTTP status (`crate::http` maps it); the line protocol ignores it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrorKind {
    /// A malformed or invalid request, or one the server cannot take
    /// right now (draining, queue full).
    BadRequest,
    /// The request names a job or route that does not exist.
    NotFound,
    /// A gateway route asked for with the wrong method.
    MethodNotAllowed,
    /// An HTTP body over the gateway's cap.
    BodyTooLarge,
    /// An HTTP header section over the gateway's cap.
    HeadTooLarge,
    /// An HTTP feature the gateway does not implement
    /// (`Transfer-Encoding`).
    NotImplemented,
    /// An HTTP version other than 1.0 and 1.1.
    VersionNotSupported,
}

/// A refused request: the one error type parsing and dispatch return.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ServeError {
    /// What kind of refusal this is.
    pub kind: ErrorKind,
    /// The `error` text both framings send.
    pub message: String,
}

impl ServeError {
    /// An error of the given kind.
    pub fn new(kind: ErrorKind, message: impl Into<String>) -> ServeError {
        ServeError { kind, message: message.into() }
    }

    /// An [`ErrorKind::BadRequest`] error.
    pub fn bad_request(message: impl Into<String>) -> ServeError {
        ServeError::new(ErrorKind::BadRequest, message)
    }

    /// The error for a job id that names no job.
    pub fn unknown_job(id: impl std::fmt::Display) -> ServeError {
        ServeError::new(ErrorKind::NotFound, format!("unknown job {id}"))
    }

    /// The error response: `{"ok": false, "error": message}`.
    pub fn to_json(&self) -> Json {
        Json::obj([("ok", Json::Bool(false)), ("error", Json::Str(self.message.clone()))])
    }
}

/// One request as a listener delivers it, parsed once on arrival.
#[derive(Clone, Debug, PartialEq)]
pub struct Incoming {
    /// The request, or why it was refused before dispatch.
    pub request: Result<Request, ServeError>,
    /// Close the connection after the response (HTTP `Connection:
    /// close`, HTTP/1.0, or a framing violation; never set on the line
    /// protocol).
    pub close: bool,
}

impl Request {
    /// Parses one request line.
    ///
    /// # Errors
    ///
    /// A [`ErrorKind::BadRequest`] error if the line is not a JSON
    /// object, has no/unknown `op`, or a `submit`/`poll` body is
    /// malformed; [`ErrorKind::NotFound`] for a `poll` whose `job` is
    /// text that is not a number.
    pub fn parse(line: &str) -> Result<Request, ServeError> {
        let v = parse_body(line)?;
        let op = v
            .get("op")
            .and_then(Json::as_str)
            .ok_or_else(|| ServeError::bad_request("missing string member `op`"))?;
        match op {
            "ping" => Ok(Request::Ping),
            "metrics" => Ok(Request::Metrics),
            "drain" => Ok(Request::Drain),
            "shutdown" => Ok(Request::Shutdown),
            "poll" => {
                let job = match v.get("job") {
                    Some(Json::Str(id)) => parse_job_id(id)?,
                    other => other.and_then(Json::as_u64).ok_or_else(|| {
                        ServeError::bad_request("poll: missing integer member `job`")
                    })?,
                };
                Ok(Request::Poll { job })
            }
            "submit" => Ok(Request::Submit(SubmitSpec::from_json(&v)?)),
            "snapshot_export" => {
                let group = match v.get("group") {
                    None | Some(Json::Null) => None,
                    Some(Json::Str(s)) => Some(parse_group(s)?),
                    Some(_) => {
                        return Err(ServeError::bad_request(
                            "snapshot_export: `group` must be a hex fingerprint string",
                        ))
                    }
                };
                Ok(Request::SnapshotExport { group })
            }
            "snapshot_import" => {
                let data = v
                    .get("data")
                    .and_then(Json::as_str)
                    .filter(|s| !s.is_empty())
                    .ok_or_else(|| {
                        ServeError::bad_request(
                            "snapshot_import: missing non-empty string member `data`",
                        )
                    })?
                    .to_string();
                Ok(Request::SnapshotImport { data })
            }
            other => Err(ServeError::bad_request(format!("unknown op `{other}`"))),
        }
    }
}

/// Parses the JSON text of a request — a whole line, or an HTTP body —
/// with the one error message both framings send for malformed JSON.
pub(crate) fn parse_body(text: &str) -> Result<Json, ServeError> {
    Json::parse(text).map_err(|e| ServeError::bad_request(format!("request body: {e}")))
}

/// Parses a job id given as decimal text (the gateway's path segment, or
/// a string `job` member): text that is not a number names no job.
pub(crate) fn parse_job_id(text: &str) -> Result<u64, ServeError> {
    text.parse().map_err(|_| ServeError::unknown_job(text))
}

impl SubmitSpec {
    /// The submission a JSON object describes (its `op` member, if any,
    /// is ignored).
    pub(crate) fn from_json(v: &Json) -> Result<SubmitSpec, ServeError> {
        let bad = ServeError::bad_request;
        let kernels = match v.get("kernels") {
            Some(Json::Arr(items)) if !items.is_empty() => items
                .iter()
                .map(|k| {
                    k.as_str()
                        .map(str::to_string)
                        .ok_or_else(|| bad("submit: `kernels` must hold strings"))
                })
                .collect::<Result<Vec<String>, ServeError>>()?,
            _ => return Err(bad("submit: missing non-empty array member `kernels`")),
        };
        let insts = v
            .get("insts")
            .and_then(Json::as_u64)
            .ok_or_else(|| bad("submit: missing integer member `insts`"))?;
        if insts == 0 {
            return Err(bad("submit: `insts` must be positive"));
        }
        let u64_field = |key: &str, default: u64| -> Result<u64, ServeError> {
            match v.get(key) {
                None | Some(Json::Null) => Ok(default),
                Some(j) => j.as_u64().ok_or_else(|| {
                    ServeError::bad_request(format!("submit: `{key}` must be an integer"))
                }),
            }
        };
        let hierarchy = match v.get("hierarchy") {
            None | Some(Json::Null) => None,
            Some(Json::Str(s)) => Some(s.clone()),
            Some(_) => return Err(bad("submit: `hierarchy` must be a string")),
        };
        let client = match v.get("client") {
            None | Some(Json::Null) => "anonymous".to_string(),
            Some(Json::Str(s)) if !s.is_empty() => s.clone(),
            Some(_) => return Err(bad("submit: `client` must be a non-empty string")),
        };
        let timeout_ms = match v.get("timeout_ms") {
            None | Some(Json::Null) => None,
            Some(j) => Some(
                j.as_u64()
                    .filter(|&t| t > 0)
                    .ok_or_else(|| bad("submit: `timeout_ms` must be a positive integer"))?,
            ),
        };
        let wait = match v.get("wait") {
            None | Some(Json::Null) => false,
            Some(Json::Bool(b)) => *b,
            Some(_) => return Err(bad("submit: `wait` must be a boolean")),
        };
        Ok(SubmitSpec {
            kernels,
            insts,
            replicas: u64_field("replicas", 1)?.max(1) as usize,
            hierarchy,
            priority: (u64_field("priority", DEFAULT_PRIORITY as u64)? as usize)
                .min(PRIORITY_BANDS - 1),
            client,
            wait,
            timeout_ms,
            chaos_panics: u64_field("chaos_panics", 0)?.min(u32::MAX as u64) as u32,
        })
    }
}

/// Parses a group fingerprint given as hex digits (the format metrics
/// dumps and `snapshot_export` listings use).
fn parse_group(text: &str) -> Result<u64, ServeError> {
    let digits = text.strip_prefix("0x").unwrap_or(text);
    let bad = || ServeError::bad_request(format!("snapshot_export: `group` `{text}` is not a hex fingerprint"));
    if digits.is_empty() || digits.len() > 16 {
        return Err(bad());
    }
    u64::from_str_radix(digits, 16).map_err(|_| bad())
}

/// A success response carrying the given members besides `"ok": true`.
pub fn ok_response(members: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
    let mut pairs = vec![("ok".to_string(), Json::Bool(true))];
    pairs.extend(members.into_iter().map(|(k, v)| (k.to_string(), v)));
    Json::Obj(pairs)
}

/// A response as the line protocol sends it, and as the HTTP gateway's
/// body carries it: one JSON object and a newline.
pub(crate) fn response_line(response: &Result<Json, ServeError>) -> String {
    match response {
        Ok(v) => format!("{v}\n"),
        Err(e) => format!("{}\n", e.to_json()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_each_op() {
        assert_eq!(Request::parse(r#"{"op": "ping"}"#).unwrap(), Request::Ping);
        assert_eq!(Request::parse(r#"{"op": "metrics"}"#).unwrap(), Request::Metrics);
        assert_eq!(Request::parse(r#"{"op": "drain"}"#).unwrap(), Request::Drain);
        assert_eq!(Request::parse(r#"{"op": "shutdown"}"#).unwrap(), Request::Shutdown);
        assert_eq!(Request::parse(r#"{"op": "poll", "job": 7}"#).unwrap(), Request::Poll { job: 7 });
        // Decimal text is the id the gateway's path carries; other text
        // names no job.
        assert_eq!(Request::parse(r#"{"op": "poll", "job": "7"}"#).unwrap(), Request::Poll { job: 7 });
        assert_eq!(
            Request::parse(r#"{"op": "poll", "job": "abc"}"#),
            Err(ServeError::unknown_job("abc"))
        );
    }

    #[test]
    fn submit_defaults_and_clamps() {
        let req = Request::parse(r#"{"op": "submit", "kernels": ["compress"], "insts": 1000}"#)
            .unwrap();
        let Request::Submit(spec) = req else { panic!("expected submit") };
        assert_eq!(spec.replicas, 1);
        assert_eq!(spec.priority, DEFAULT_PRIORITY);
        assert_eq!(spec.client, "anonymous");
        assert!(!spec.wait);
        assert_eq!(spec.timeout_ms, None);
        assert_eq!(spec.chaos_panics, 0);

        let req = Request::parse(
            r#"{"op": "submit", "kernels": ["go@tiny-l1"], "insts": 500, "replicas": 0,
                "priority": 99, "client": "c1", "wait": true, "timeout_ms": 250}"#,
        )
        .unwrap();
        let Request::Submit(spec) = req else { panic!("expected submit") };
        assert_eq!(spec.replicas, 1, "replicas clamps up to 1");
        assert_eq!(spec.priority, PRIORITY_BANDS - 1, "priority clamps into range");
        assert!(spec.wait);
        assert_eq!(spec.timeout_ms, Some(250));
    }

    #[test]
    fn parses_snapshot_ops() {
        assert_eq!(
            Request::parse(r#"{"op": "snapshot_export"}"#).unwrap(),
            Request::SnapshotExport { group: None }
        );
        assert_eq!(
            Request::parse(r#"{"op": "snapshot_export", "group": "00000000deadbeef"}"#).unwrap(),
            Request::SnapshotExport { group: Some(0xdead_beef) }
        );
        assert_eq!(
            Request::parse(r#"{"op": "snapshot_export", "group": "0xdeadbeef"}"#).unwrap(),
            Request::SnapshotExport { group: Some(0xdead_beef) }
        );
        assert_eq!(
            Request::parse(r#"{"op": "snapshot_import", "data": "Zm9v"}"#).unwrap(),
            Request::SnapshotImport { data: "Zm9v".to_string() }
        );
    }

    #[test]
    fn rejects_malformed_requests() {
        for bad in [
            "not json",
            r#"{"no_op": 1}"#,
            r#"{"op": "warp"}"#,
            r#"{"op": "poll"}"#,
            r#"{"op": "submit", "insts": 1000}"#,
            r#"{"op": "submit", "kernels": [], "insts": 1000}"#,
            r#"{"op": "submit", "kernels": ["compress"], "insts": 0}"#,
            r#"{"op": "submit", "kernels": ["compress"], "insts": 10, "timeout_ms": 0}"#,
            r#"{"op": "submit", "kernels": [3], "insts": 10}"#,
            r#"{"op": "snapshot_export", "group": 7}"#,
            r#"{"op": "snapshot_export", "group": "not-hex"}"#,
            r#"{"op": "snapshot_export", "group": "00112233445566778899"}"#,
            r#"{"op": "snapshot_import"}"#,
            r#"{"op": "snapshot_import", "data": ""}"#,
        ] {
            assert!(Request::parse(bad).is_err(), "`{bad}` must not parse");
        }
    }

    #[test]
    fn response_builders_serialize_stably() {
        assert_eq!(
            ok_response([("jobs", Json::Arr(vec![Json::from(1u64)]))]).to_string(),
            r#"{"ok": true, "jobs": [1]}"#
        );
        let err = ServeError::bad_request("queue full");
        assert_eq!(err.to_json().to_string(), r#"{"ok": false, "error": "queue full"}"#);
        assert_eq!(err.kind, ErrorKind::BadRequest);
        assert_eq!(ServeError::unknown_job(7).kind, ErrorKind::NotFound);
    }
}
