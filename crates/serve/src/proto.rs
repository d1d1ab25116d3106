//! The JSONL wire protocol: one request or response object per line.
//!
//! Hand-rolled over the `pulsar-obs` JSON writer/parser — no new
//! dependencies, no framing beyond newline termination. A malformed
//! line produces a typed error *response* on the same connection, never
//! a dropped connection; the full request/response corpus is pinned by
//! the golden tests in `tests/proto_golden.rs` (protocol spec in
//! DESIGN.md §5.10).

use crate::spec::JobSpec;
use pulsar_core::{StudyKind, StudyRequest};
use pulsar_obs::json::{self, json_str, Json};
use std::fmt::{self, Write as _};

/// Largest `samples` a `submit` may request. Every sample gets its own
/// recorder shard and outcome slot before the run starts, so an
/// unbounded count would let one request exhaust the daemon's memory.
pub const MAX_SAMPLES: usize = 100_000;

/// 2^53: JSON numbers travel as `f64`, which holds every integer below
/// this exactly and silently rounds some above it.
const EXACT_INT_LIMIT: f64 = 9_007_199_254_740_992.0;

/// A rejected request line, carrying the error-response `kind` the
/// daemon answers it with.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestError {
    /// `malformed` (not JSON, or an integer field that is not a
    /// non-negative integer below 2^53) or `usage` (well-formed JSON but
    /// not a valid request).
    pub kind: &'static str,
    /// Human-readable message.
    pub message: String,
}

impl RequestError {
    fn malformed(message: impl Into<String>) -> Self {
        RequestError {
            kind: "malformed",
            message: message.into(),
        }
    }

    fn usage(message: impl Into<String>) -> Self {
        RequestError {
            kind: "usage",
            message: message.into(),
        }
    }
}

impl fmt::Display for RequestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.kind, self.message)
    }
}

/// One request line, client → daemon.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Submit a job for execution (or a whole-result cache hit).
    Submit {
        /// What to run.
        spec: JobSpec,
        /// Tenant name for per-tenant failure budgets; `None` bills the
        /// anonymous tenant.
        tenant: Option<String>,
        /// Per-job wall-clock deadline, milliseconds.
        deadline_ms: Option<u64>,
        /// Per-job Monte Carlo failure budget (fraction, 0.0–1.0).
        failure_budget: Option<f64>,
    },
    /// Report a job's current state.
    Status {
        /// Job id from the submit response.
        job: u64,
    },
    /// Block until the job reaches a terminal state, then report it.
    Wait {
        /// Job id from the submit response.
        job: u64,
    },
    /// Forward the job's journal events live, then a terminal marker.
    Stream {
        /// Job id from the submit response.
        job: u64,
    },
    /// Cancel a queued or running job.
    Cancel {
        /// Job id from the submit response.
        job: u64,
    },
    /// Report daemon counters and cache occupancy.
    Stats,
    /// Stop accepting work, drain (checkpoint) in-flight jobs, exit.
    Shutdown,
}

impl Request {
    /// Parses one request line.
    ///
    /// # Errors
    ///
    /// A [`RequestError`] when the line is not valid JSON or not a
    /// well-formed request; the daemon answers it with an error response
    /// of the same `kind`.
    pub fn parse(line: &str) -> Result<Request, RequestError> {
        let doc = json::parse(line)
            .map_err(|e| RequestError::malformed(format!("malformed JSON: {e}")))?;
        let op = doc
            .get("op")
            .and_then(Json::as_str)
            .ok_or_else(|| RequestError::usage("missing string field `op`"))?;
        match op {
            "submit" => Self::parse_submit(&doc),
            "status" => Ok(Request::Status { job: job_id(&doc)? }),
            "wait" => Ok(Request::Wait { job: job_id(&doc)? }),
            "stream" => Ok(Request::Stream { job: job_id(&doc)? }),
            "cancel" => Ok(Request::Cancel { job: job_id(&doc)? }),
            "stats" => Ok(Request::Stats),
            "shutdown" => Ok(Request::Shutdown),
            other => Err(RequestError::usage(format!("unknown op `{other}`"))),
        }
    }

    fn parse_submit(doc: &Json) -> Result<Request, RequestError> {
        let kind = doc
            .get("kind")
            .and_then(Json::as_str)
            .ok_or_else(|| RequestError::usage("submit: missing string field `kind`"))?;
        let tenant = doc.get("tenant").and_then(Json::as_str).map(str::to_owned);
        let deadline_ms = uint_field(doc, "deadline_ms")?;
        let failure_budget = doc.get("failure_budget").and_then(Json::as_num);
        if failure_budget.is_some_and(|b| !(0.0..=1.0).contains(&b)) {
            return Err(RequestError::usage(
                "submit: `failure_budget` must be a fraction in [0, 1]",
            ));
        }
        let spec = if kind == "campaign" {
            let netlist = doc
                .get("netlist")
                .and_then(Json::as_str)
                .ok_or_else(|| {
                    RequestError::usage("submit campaign: missing string field `netlist`")
                })?
                .to_owned();
            let stride = uint_field(doc, "stride")?.unwrap_or(1);
            if stride == 0 {
                return Err(RequestError::usage(
                    "submit campaign: `stride` must be >= 1",
                ));
            }
            JobSpec::Campaign { netlist, stride }
        } else {
            let kind = StudyKind::parse(kind).ok_or_else(|| {
                RequestError::usage(format!("submit: unknown kind `{kind}` (df|pulse|campaign)"))
            })?;
            let mut req = StudyRequest::new(kind);
            req.samples = uint_field(doc, "samples")?.unwrap_or(req.samples);
            req.seed = uint_field(doc, "seed")?.unwrap_or(req.seed);
            req.rs = num_list(doc, "r").unwrap_or(req.rs);
            req.factors = num_list(doc, "factors").unwrap_or(req.factors);
            if req.samples == 0 {
                return Err(RequestError::usage("submit: `samples` must be >= 1"));
            }
            if req.samples > MAX_SAMPLES {
                return Err(RequestError::usage(format!(
                    "submit: `samples` must be <= {MAX_SAMPLES}"
                )));
            }
            if req.rs.is_empty() || req.factors.is_empty() {
                return Err(RequestError::usage(
                    "submit: `r` and `factors` must be non-empty",
                ));
            }
            JobSpec::from(req)
        };
        Ok(Request::Submit {
            spec,
            tenant,
            deadline_ms,
            failure_budget,
        })
    }

    /// Renders the request as one JSONL line (no trailing newline).
    pub fn render(&self) -> String {
        match self {
            Request::Submit {
                spec,
                tenant,
                deadline_ms,
                failure_budget,
            } => {
                let mut out = String::from("{\"op\":\"submit\"");
                match spec {
                    JobSpec::Study {
                        kind,
                        samples,
                        seed,
                        rs,
                        factors,
                    } => {
                        let _ = write!(
                            out,
                            ",\"kind\":{},\"samples\":{samples},\"seed\":{seed},\"r\":{},\
                             \"factors\":{}",
                            json_str(kind.as_str()),
                            num_array(rs),
                            num_array(factors)
                        );
                    }
                    JobSpec::Campaign { netlist, stride } => {
                        let _ = write!(
                            out,
                            ",\"kind\":\"campaign\",\"stride\":{stride},\"netlist\":{}",
                            json_str(netlist)
                        );
                    }
                }
                if let Some(t) = tenant {
                    let _ = write!(out, ",\"tenant\":{}", json_str(t));
                }
                if let Some(d) = deadline_ms {
                    let _ = write!(out, ",\"deadline_ms\":{d}");
                }
                if let Some(b) = failure_budget {
                    let _ = write!(out, ",\"failure_budget\":{b}");
                }
                out.push('}');
                out
            }
            Request::Status { job } => format!("{{\"op\":\"status\",\"job\":{job}}}"),
            Request::Wait { job } => format!("{{\"op\":\"wait\",\"job\":{job}}}"),
            Request::Stream { job } => format!("{{\"op\":\"stream\",\"job\":{job}}}"),
            Request::Cancel { job } => format!("{{\"op\":\"cancel\",\"job\":{job}}}"),
            Request::Stats => "{\"op\":\"stats\"}".to_owned(),
            Request::Shutdown => "{\"op\":\"shutdown\"}".to_owned(),
        }
    }
}

fn job_id(doc: &Json) -> Result<u64, RequestError> {
    uint_field(doc, "job")?.ok_or_else(|| RequestError::usage("missing numeric field `job`"))
}

/// Optional integer field `key`. Absent is `None`; anything but a
/// non-negative integer below 2^53 that fits `T` is `malformed` — never
/// truncated, clamped, or rounded into a different value.
fn uint_field<T: TryFrom<u64>>(doc: &Json, key: &str) -> Result<Option<T>, RequestError> {
    let Some(v) = doc.get(key) else {
        return Ok(None);
    };
    v.as_num()
        .filter(|n| (0.0..EXACT_INT_LIMIT).contains(n) && n.fract() == 0.0)
        .and_then(|n| T::try_from(n as u64).ok())
        .map(Some)
        .ok_or_else(|| {
            RequestError::malformed(format!("`{key}` must be a non-negative integer below 2^53"))
        })
}

fn num_list(doc: &Json, key: &str) -> Option<Vec<f64>> {
    match doc.get(key) {
        Some(Json::Arr(items)) => items.iter().map(Json::as_num).collect(),
        _ => None,
    }
}

fn num_array(vs: &[f64]) -> String {
    let mut out = String::from("[");
    for (i, v) in vs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{v}");
    }
    out.push(']');
    out
}

/// One response line, daemon → client.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Submit accepted (queued, or answered from the whole-result cache).
    Accepted {
        /// Assigned job id.
        job: u64,
        /// Config digest of the job.
        digest: u64,
        /// True when the whole-result cache answered with zero solves.
        cached: bool,
        /// Initial job state (`"queued"`, or `"done"` on a cache hit).
        state: String,
    },
    /// Job status (also the response to `wait` and `cancel`).
    Status {
        /// Job id.
        job: u64,
        /// `queued` | `running` | `done` | `failed` | `cancelled`.
        state: String,
        /// Report text, present when `done`.
        result: Option<String>,
        /// Error message, present when `failed` or `cancelled`.
        error: Option<String>,
    },
    /// One forwarded journal event (during `stream`).
    Event {
        /// The event object, exactly as the journal renders it.
        payload: String,
    },
    /// Terminal marker ending a `stream`.
    StreamEnd {
        /// Job id.
        job: u64,
        /// Terminal state of the job.
        state: String,
    },
    /// Daemon counter snapshot and cache occupancy.
    Stats {
        /// `{"counters":{...},"caches":{...},...}` payload object.
        payload: String,
    },
    /// Shutdown acknowledged; the daemon drains and exits.
    Bye,
    /// Typed failure. `kind` is stable for scripting:
    /// `malformed` | `usage` | `busy` | `tenant-budget` | `unknown-job` |
    /// `lint` | `shutdown`.
    Error {
        /// Stable machine-readable failure kind.
        kind: String,
        /// Human-readable message.
        message: String,
    },
}

impl Response {
    /// Renders the response as one JSONL line (no trailing newline).
    pub fn render(&self) -> String {
        match self {
            Response::Accepted {
                job,
                digest,
                cached,
                state,
            } => format!(
                "{{\"ok\":true,\"op\":\"submit\",\"job\":{job},\"digest\":\"{digest:#018x}\",\
                 \"cached\":{cached},\"state\":{}}}",
                json_str(state)
            ),
            Response::Status {
                job,
                state,
                result,
                error,
            } => {
                let mut out = format!(
                    "{{\"ok\":true,\"op\":\"status\",\"job\":{job},\"state\":{}",
                    json_str(state)
                );
                if let Some(r) = result {
                    let _ = write!(out, ",\"result\":{}", json_str(r));
                }
                if let Some(e) = error {
                    let _ = write!(out, ",\"error\":{}", json_str(e));
                }
                out.push('}');
                out
            }
            Response::Event { payload } => {
                format!("{{\"ok\":true,\"op\":\"event\",\"event\":{payload}}}")
            }
            Response::StreamEnd { job, state } => format!(
                "{{\"ok\":true,\"op\":\"stream-end\",\"job\":{job},\"state\":{}}}",
                json_str(state)
            ),
            Response::Stats { payload } => {
                format!("{{\"ok\":true,\"op\":\"stats\",\"stats\":{payload}}}")
            }
            Response::Bye => "{\"ok\":true,\"op\":\"shutdown\"}".to_owned(),
            Response::Error { kind, message } => format!(
                "{{\"ok\":false,\"kind\":{},\"error\":{}}}",
                json_str(kind),
                json_str(message)
            ),
        }
    }

    /// Parses one response line (client side).
    ///
    /// # Errors
    ///
    /// A human-readable message when the line is not a well-formed
    /// response.
    pub fn parse(line: &str) -> Result<Response, String> {
        let doc = json::parse(line).map_err(|e| format!("malformed JSON: {e}"))?;
        let ok = match doc.get("ok") {
            Some(Json::Bool(b)) => *b,
            _ => return Err("missing boolean field `ok`".to_owned()),
        };
        if !ok {
            return Ok(Response::Error {
                kind: doc
                    .get("kind")
                    .and_then(Json::as_str)
                    .unwrap_or("unknown")
                    .to_owned(),
                message: doc
                    .get("error")
                    .and_then(Json::as_str)
                    .unwrap_or("")
                    .to_owned(),
            });
        }
        let op = doc
            .get("op")
            .and_then(Json::as_str)
            .ok_or("missing string field `op`")?;
        // Responses are parsed client-side, where a plain message is enough.
        let job = || job_id(&doc).map_err(|e| e.message);
        match op {
            "submit" => {
                let digest_hex = doc
                    .get("digest")
                    .and_then(Json::as_str)
                    .ok_or("submit response: missing `digest`")?;
                let digest = parse_hex_digest(digest_hex)?;
                Ok(Response::Accepted {
                    job: job()?,
                    digest,
                    cached: matches!(doc.get("cached"), Some(Json::Bool(true))),
                    state: doc
                        .get("state")
                        .and_then(Json::as_str)
                        .unwrap_or("queued")
                        .to_owned(),
                })
            }
            "status" => Ok(Response::Status {
                job: job()?,
                state: doc
                    .get("state")
                    .and_then(Json::as_str)
                    .ok_or("status response: missing `state`")?
                    .to_owned(),
                result: doc.get("result").and_then(Json::as_str).map(str::to_owned),
                error: doc.get("error").and_then(Json::as_str).map(str::to_owned),
            }),
            "event" => {
                let ev = doc.get("event").ok_or("event response: missing `event`")?;
                Ok(Response::Event {
                    payload: render_json(ev),
                })
            }
            "stream-end" => Ok(Response::StreamEnd {
                job: job()?,
                state: doc
                    .get("state")
                    .and_then(Json::as_str)
                    .unwrap_or("done")
                    .to_owned(),
            }),
            "stats" => {
                let s = doc.get("stats").ok_or("stats response: missing `stats`")?;
                Ok(Response::Stats {
                    payload: render_json(s),
                })
            }
            "shutdown" => Ok(Response::Bye),
            other => Err(format!("unknown response op `{other}`")),
        }
    }
}

fn parse_hex_digest(s: &str) -> Result<u64, String> {
    let hex = s.strip_prefix("0x").unwrap_or(s);
    u64::from_str_radix(hex, 16).map_err(|e| format!("bad digest `{s}`: {e}"))
}

/// Re-renders a parsed [`Json`] value (used to carry nested objects
/// opaquely through the client).
fn render_json(v: &Json) -> String {
    match v {
        Json::Null => "null".to_owned(),
        Json::Bool(b) => b.to_string(),
        Json::Num(n) => {
            if n.fract() == 0.0 && n.abs() < 9.0e15 {
                format!("{}", *n as i64)
            } else {
                format!("{n}")
            }
        }
        Json::Str(s) => json_str(s),
        Json::Arr(items) => {
            let mut out = String::from("[");
            for (i, it) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&render_json(it));
            }
            out.push(']');
            out
        }
        Json::Obj(pairs) => {
            let mut out = String::from("{");
            for (i, (k, val)) in pairs.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{}:{}", json_str(k), render_json(val));
            }
            out.push('}');
            out
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_round_trips() {
        let reqs = [
            Request::Submit {
                spec: JobSpec::Study {
                    kind: StudyKind::Df,
                    samples: 8,
                    seed: 7,
                    rs: vec![1000.0, 30000.0],
                    factors: vec![0.9, 1.1],
                },
                tenant: Some("t1".into()),
                deadline_ms: Some(5000),
                failure_budget: Some(0.25),
            },
            Request::Submit {
                spec: JobSpec::Campaign {
                    netlist: "# c17\n".into(),
                    stride: 2,
                },
                tenant: None,
                deadline_ms: None,
                failure_budget: None,
            },
            Request::Status { job: 3 },
            Request::Wait { job: 3 },
            Request::Stream { job: 4 },
            Request::Cancel { job: 5 },
            Request::Stats,
            Request::Shutdown,
        ];
        for r in reqs {
            let line = r.render();
            assert_eq!(Request::parse(&line).expect("parse"), r, "{line}");
        }
    }

    #[test]
    fn response_round_trips() {
        let resps = [
            Response::Accepted {
                job: 1,
                digest: 0xdead_beef_0123_4567,
                cached: true,
                state: "done".into(),
            },
            Response::Status {
                job: 1,
                state: "failed".into(),
                result: None,
                error: Some("budget exceeded".into()),
            },
            Response::StreamEnd {
                job: 2,
                state: "done".into(),
            },
            Response::Bye,
            Response::Error {
                kind: "busy".into(),
                message: "queue full (depth 4)".into(),
            },
        ];
        for r in resps {
            let line = r.render();
            assert_eq!(Response::parse(&line).expect("parse"), r, "{line}");
        }
    }

    #[test]
    fn malformed_lines_are_typed_errors_not_panics() {
        for bad in [
            "",
            "not json",
            "{}",
            "{\"op\":\"nope\"}",
            "{\"op\":\"submit\"}",
            "{\"op\":\"submit\",\"kind\":\"df\",\"samples\":0}",
            "{\"op\":\"status\"}",
            "[1,2,3]",
        ] {
            assert!(Request::parse(bad).is_err(), "{bad:?} should be rejected");
        }
    }

    #[test]
    fn integer_fields_reject_rather_than_coerce() {
        let submit = |field: &str| format!("{{\"op\":\"submit\",\"kind\":\"df\",{field}}}");
        for (line, kind) in [
            (submit("\"samples\":-1"), "malformed"),
            (submit("\"samples\":2.5"), "malformed"),
            (submit("\"samples\":1e300"), "malformed"),
            (submit("\"samples\":\"8\""), "malformed"),
            (submit("\"samples\":100001"), "usage"),
            (submit("\"seed\":9007199254740993"), "malformed"),
            (submit("\"seed\":-7"), "malformed"),
            (submit("\"deadline_ms\":1.5"), "malformed"),
            (
                "{\"op\":\"submit\",\"kind\":\"campaign\",\"netlist\":\"x\",\"stride\":-2}"
                    .to_owned(),
                "malformed",
            ),
            ("{\"op\":\"wait\",\"job\":-1}".to_owned(), "malformed"),
        ] {
            let err = Request::parse(&line).expect_err(&line);
            assert_eq!(err.kind, kind, "{line}: {err}");
        }

        // The largest accepted values still parse exactly.
        let edge = submit(&format!(
            "\"samples\":{MAX_SAMPLES},\"seed\":9007199254740991"
        ));
        match Request::parse(&edge).expect("edge values parse") {
            Request::Submit {
                spec: JobSpec::Study { samples, seed, .. },
                ..
            } => {
                assert_eq!(samples, MAX_SAMPLES);
                assert_eq!(seed, (1u64 << 53) - 1);
            }
            other => panic!("expected a study submit, got {other:?}"),
        }
    }
}
