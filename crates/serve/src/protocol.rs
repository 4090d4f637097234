//! The `taxogram serve` wire protocol: JSON lines over TCP.
//!
//! One request per line, one response per line, UTF-8, `\n`-terminated.
//! Requests are flat JSON objects dispatched on `"op"`:
//!
//! ```text
//! {"op":"mine","id":"r1","theta":0.4,"max_edges":3,
//!  "time_limit_ms":500,"max_patterns":100,"max_memory_bytes":1000000,
//!  "baseline":false,"no_cache":false}
//! {"op":"ping"}
//! {"op":"stats"}
//! {"op":"shutdown"}
//! ```
//!
//! Responses echo the request `id` (or `null`) and carry a `"type"`:
//!
//! * `"result"` — patterns plus the run's truthful [`Termination`]
//!   report. A budget- or deadline-tripped run still returns `result`
//!   with the sound serial-prefix partial pattern set and
//!   `termination.reason` naming what tripped — graceful degradation,
//!   never a dropped reply. `"cache"` is `"miss"`, `"hit"` (θ-filtered
//!   from a cached lower-θ run) or `"bypass"` (caching disabled or
//!   `no_cache` requested). A hit's `termination` echoes the cached
//!   run's own complete report — its class tallies describe the run
//!   that produced the answer. Budgets and deadlines govern *mining*
//!   resources, so a cache hit — which consumes none — may answer a
//!   budgeted request with the complete cached result rather than a
//!   partial; send `no_cache` to force a governed fresh run.
//! * `"shed"` — the server refused admission (worker queue full or too
//!   many connections); `retry_after_ms` is the backoff hint.
//! * `"error"` — a typed protocol error ([`ErrorCode`]): malformed JSON,
//!   oversized frame, bad request fields, a stalled (slow-loris) frame,
//!   or an internal mining error.
//! * `"pong"` / `"stats"` / `"shutdown-ack"` for the auxiliary ops.
//!
//! [`Termination`]: taxogram_core::Termination

use crate::json::{escape_into, Json};
use std::borrow::Borrow;
use std::fmt::Write as _;
use std::time::Duration;
use taxogram_core::{Pattern, Termination, TerminationReason};

/// Ceiling on `time_limit_ms` accepted in a request before server-side
/// clamping (a year; anything larger is a unit mistake).
const MAX_REQUEST_TIME_LIMIT_MS: u64 = 365 * 24 * 3600 * 1000;

/// A parsed client request.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// A governed mining query.
    Mine(MineRequest),
    /// Liveness probe.
    Ping,
    /// Server counters snapshot.
    Stats,
    /// Graceful drain-and-exit.
    Shutdown,
}

/// The `op: "mine"` request body.
#[derive(Clone, Debug, PartialEq)]
pub struct MineRequest {
    /// Client-chosen request id, echoed in the response.
    pub id: Option<String>,
    /// Support threshold θ ∈ [0, 1].
    pub theta: f64,
    /// Optional pattern-size cap in edges.
    pub max_edges: Option<usize>,
    /// Mine with the paper's baseline configuration (no enhancements).
    pub baseline: bool,
    /// Per-request deadline; the server clamps it to its own ceiling and
    /// counts queue wait against it.
    pub time_limit: Option<Duration>,
    /// Per-request emitted-pattern budget.
    pub max_patterns: Option<usize>,
    /// Per-request peak-resident-bytes budget.
    pub max_memory_bytes: Option<usize>,
    /// Skip the θ-keyed result cache for this request.
    pub no_cache: bool,
}

/// Typed protocol error codes, stable on the wire.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrorCode {
    /// The frame was not valid JSON.
    MalformedJson,
    /// The frame exceeded the server's size cap.
    FrameTooLarge,
    /// A frame stalled mid-transmission past the read deadline.
    ReadStalled,
    /// Structurally valid JSON with invalid or missing fields.
    BadRequest,
    /// The server is draining and not accepting new work.
    ShuttingDown,
    /// The mining engine reported an error.
    Internal,
}

impl ErrorCode {
    /// The wire spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::MalformedJson => "malformed-json",
            ErrorCode::FrameTooLarge => "frame-too-large",
            ErrorCode::ReadStalled => "read-stalled",
            ErrorCode::BadRequest => "bad-request",
            ErrorCode::ShuttingDown => "shutting-down",
            ErrorCode::Internal => "internal",
        }
    }
}

/// How a `result` response was produced.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CacheStatus {
    /// Mined fresh; the run was (or could have been) cached.
    Miss,
    /// Answered by θ-filtering a cached lower-θ run.
    Hit,
    /// The cache was not consulted (disabled or `no_cache`).
    Bypass,
}

impl CacheStatus {
    /// The wire spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            CacheStatus::Miss => "miss",
            CacheStatus::Hit => "hit",
            CacheStatus::Bypass => "bypass",
        }
    }
}

/// Parses one frame into a [`Request`].
///
/// # Errors
/// `(code, message)` pairs ready for [`error_response`]; field problems
/// are [`ErrorCode::BadRequest`].
pub fn parse_request(frame: &str) -> Result<Request, (ErrorCode, String)> {
    let v = crate::json::parse(frame)
        .map_err(|e| (ErrorCode::MalformedJson, e.to_string()))?;
    let op = v
        .get("op")
        .and_then(Json::as_str)
        .ok_or_else(|| (ErrorCode::BadRequest, "missing \"op\" field".to_owned()))?;
    match op {
        "ping" => Ok(Request::Ping),
        "stats" => Ok(Request::Stats),
        "shutdown" => Ok(Request::Shutdown),
        "mine" => parse_mine(&v).map(Request::Mine),
        other => Err((
            ErrorCode::BadRequest,
            format!("unknown op {other:?} (expected mine|ping|stats|shutdown)"),
        )),
    }
}

fn parse_mine(v: &Json) -> Result<MineRequest, (ErrorCode, String)> {
    let bad = |msg: &str| (ErrorCode::BadRequest, msg.to_owned());
    let id = match v.get("id") {
        None | Some(Json::Null) => None,
        Some(Json::Str(s)) => Some(s.clone()),
        Some(_) => return Err(bad("\"id\" must be a string")),
    };
    let theta = v
        .get("theta")
        .and_then(Json::as_f64)
        .ok_or_else(|| bad("missing or non-numeric \"theta\""))?;
    if !(0.0..=1.0).contains(&theta) || theta.is_nan() {
        return Err(bad("\"theta\" must be in [0, 1]"));
    }
    let uint = |key: &str| -> Result<Option<u64>, (ErrorCode, String)> {
        match v.get(key) {
            None | Some(Json::Null) => Ok(None),
            Some(x) => x
                .as_u64()
                .map(Some)
                .ok_or_else(|| bad(&format!("\"{key}\" must be a non-negative integer"))),
        }
    };
    let flag = |key: &str| -> Result<bool, (ErrorCode, String)> {
        match v.get(key) {
            None | Some(Json::Null) => Ok(false),
            Some(x) => x
                .as_bool()
                .ok_or_else(|| bad(&format!("\"{key}\" must be a boolean"))),
        }
    };
    let time_limit = match uint("time_limit_ms")? {
        Some(ms) if ms > MAX_REQUEST_TIME_LIMIT_MS => {
            return Err(bad("\"time_limit_ms\" is absurdly large"))
        }
        Some(ms) => Some(Duration::from_millis(ms)),
        None => None,
    };
    Ok(MineRequest {
        id,
        theta,
        max_edges: uint("max_edges")?.map(|n| n as usize),
        baseline: flag("baseline")?,
        time_limit,
        max_patterns: uint("max_patterns")?.map(|n| n as usize),
        max_memory_bytes: uint("max_memory_bytes")?.map(|n| n as usize),
        no_cache: flag("no_cache")?,
    })
}

fn push_id(out: &mut String, id: Option<&str>) {
    out.push_str("\"id\":");
    match id {
        Some(id) => escape_into(id, out),
        None => out.push_str("null"),
    }
}

/// Renders the patterns array of a `result` response, from owned
/// patterns or from references into a cached run. Public because the
/// cache-soundness suite asserts *byte identity* of this exact rendering
/// between a θ-filtered cached run and a fresh mine.
pub fn render_patterns<P: Borrow<Pattern>>(patterns: &[P]) -> String {
    let mut out = String::from("[");
    for (i, p) in patterns.iter().enumerate() {
        let p = p.borrow();
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{{\"support_count\":{},\"labels\":[", p.support_count);
        for (j, l) in p.graph.labels().iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            let _ = write!(out, "{}", l.0);
        }
        out.push_str("],\"edges\":[");
        for (j, e) in p.graph.edges().iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            let _ = write!(out, "[{},{},{}]", e.u, e.v, e.label.0);
        }
        out.push_str("]}");
    }
    out.push(']');
    out
}

fn reason_str(reason: &TerminationReason) -> String {
    match reason {
        TerminationReason::Completed => "completed".to_owned(),
        TerminationReason::Cancelled => "cancelled".to_owned(),
        TerminationReason::DeadlineExceeded => "deadline-exceeded".to_owned(),
        TerminationReason::BudgetExceeded { which } => format!("budget-exceeded:{which}"),
    }
}

/// Builds a `result` response line (without the trailing newline).
pub fn result_response<P: Borrow<Pattern>>(
    id: Option<&str>,
    patterns: &[P],
    termination: &Termination,
    min_support_count: usize,
    database_size: usize,
    cache: CacheStatus,
    elapsed_ms: f64,
) -> String {
    let mut out = String::from("{");
    push_id(&mut out, id);
    let _ = write!(
        out,
        ",\"type\":\"result\",\"cache\":\"{}\",\"min_support_count\":{min_support_count},\"database_size\":{database_size},\"patterns\":",
        cache.as_str()
    );
    out.push_str(&render_patterns(patterns));
    let _ = write!(
        out,
        ",\"termination\":{{\"reason\":\"{}\",\"complete\":{},\"classes_finished\":{},\"classes_abandoned\":{}}}",
        reason_str(&termination.reason),
        termination.is_complete(),
        termination.classes_finished,
        termination.classes_abandoned,
    );
    let _ = write!(out, ",\"elapsed_ms\":{elapsed_ms:.3}}}");
    out
}

/// Builds a typed `error` response line.
pub fn error_response(id: Option<&str>, code: ErrorCode, message: &str) -> String {
    let mut out = String::from("{");
    push_id(&mut out, id);
    let _ = write!(out, ",\"type\":\"error\",\"code\":\"{}\",\"message\":", code.as_str());
    escape_into(message, &mut out);
    out.push('}');
    out
}

/// Builds a `shed` (admission refused) response line.
pub fn shed_response(id: Option<&str>, retry_after_ms: u64) -> String {
    let mut out = String::from("{");
    push_id(&mut out, id);
    let _ = write!(out, ",\"type\":\"shed\",\"retry_after_ms\":{retry_after_ms}}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_full_mine_request() {
        let r = parse_request(
            r#"{"op":"mine","id":"q7","theta":0.4,"max_edges":3,"time_limit_ms":250,
               "max_patterns":10,"max_memory_bytes":65536,"baseline":true,"no_cache":true}"#,
        )
        .unwrap();
        let Request::Mine(m) = r else { panic!("not mine") };
        assert_eq!(m.id.as_deref(), Some("q7"));
        assert_eq!(m.theta, 0.4);
        assert_eq!(m.max_edges, Some(3));
        assert_eq!(m.time_limit, Some(Duration::from_millis(250)));
        assert_eq!(m.max_patterns, Some(10));
        assert_eq!(m.max_memory_bytes, Some(65536));
        assert!(m.baseline && m.no_cache);
    }

    #[test]
    fn minimal_mine_request_defaults() {
        let Request::Mine(m) = parse_request(r#"{"op":"mine","theta":1}"#).unwrap() else {
            panic!("not mine")
        };
        assert_eq!(m.id, None);
        assert!(m.time_limit.is_none() && m.max_edges.is_none());
        assert!(!m.baseline && !m.no_cache);
    }

    #[test]
    fn auxiliary_ops_parse() {
        assert_eq!(parse_request(r#"{"op":"ping"}"#).unwrap(), Request::Ping);
        assert_eq!(parse_request(r#"{"op":"stats"}"#).unwrap(), Request::Stats);
        assert_eq!(parse_request(r#"{"op":"shutdown"}"#).unwrap(), Request::Shutdown);
    }

    #[test]
    fn rejects_bad_requests_with_typed_codes() {
        let cases = [
            ("{", ErrorCode::MalformedJson),
            ("[1,2]", ErrorCode::BadRequest),
            (r#"{"theta":0.4}"#, ErrorCode::BadRequest),
            (r#"{"op":"mine"}"#, ErrorCode::BadRequest),
            (r#"{"op":"mine","theta":1.5}"#, ErrorCode::BadRequest),
            (r#"{"op":"mine","theta":-0.1}"#, ErrorCode::BadRequest),
            (r#"{"op":"mine","theta":0.5,"max_edges":-2}"#, ErrorCode::BadRequest),
            (r#"{"op":"mine","theta":0.5,"id":7}"#, ErrorCode::BadRequest),
            (r#"{"op":"mine","theta":0.5,"no_cache":"yes"}"#, ErrorCode::BadRequest),
            (r#"{"op":"explode"}"#, ErrorCode::BadRequest),
            (
                r#"{"op":"mine","theta":0.5,"time_limit_ms":99999999999999999}"#,
                ErrorCode::BadRequest,
            ),
        ];
        for (frame, want) in cases {
            let (code, msg) = parse_request(frame).unwrap_err();
            assert_eq!(code, want, "{frame}: {msg}");
        }
    }

    #[test]
    fn responses_are_single_line_json() {
        let t = Termination {
            reason: TerminationReason::BudgetExceeded {
                which: taxogram_core::BudgetKind::Patterns,
            },
            classes_finished: 2,
            classes_abandoned: 1,
            frontier: vec![],
        };
        let r = result_response::<Pattern>(Some("a\"b"), &[], &t, 2, 5, CacheStatus::Miss, 1.25);
        assert!(!r.contains('\n'));
        let v = crate::json::parse(&r).unwrap();
        assert_eq!(v.get("id").and_then(Json::as_str), Some("a\"b"));
        assert_eq!(v.get("type").and_then(Json::as_str), Some("result"));
        assert_eq!(
            v.get("termination").and_then(|t| t.get("reason")).and_then(Json::as_str),
            Some("budget-exceeded:patterns")
        );

        let e = error_response(None, ErrorCode::FrameTooLarge, "9 MB line");
        let v = crate::json::parse(&e).unwrap();
        assert_eq!(v.get("id"), Some(&Json::Null));
        assert_eq!(v.get("code").and_then(Json::as_str), Some("frame-too-large"));

        let s = shed_response(Some("x"), 120);
        let v = crate::json::parse(&s).unwrap();
        assert_eq!(v.get("type").and_then(Json::as_str), Some("shed"));
        assert_eq!(v.get("retry_after_ms").and_then(Json::as_u64), Some(120));
    }
}
