//! The versioned JSON-lines request/response protocol.
//!
//! One request per line, one response per line; requests and responses are
//! correlated by the client-chosen `id`, so responses may arrive out of
//! order when the server runs requests concurrently. Serialization uses
//! `cr-trace`'s hand-rolled JSON writer/parser — no external dependencies.
//!
//! # Request (version 1)
//!
//! ```json
//! {"v":1,"id":"r1","op":"check","schema":"class A; ...","timeout_ms":500,"max_steps":100000}
//! {"v":1,"id":"r2","op":"implies","schema":"...","query":["isa","A","B"]}
//! {"v":1,"id":"r3","op":"ping"}
//! {"v":1,"id":"r4","op":"stats"}
//! {"v":1,"id":"r5","op":"shutdown"}
//! {"v":1,"id":"r6","op":"replicate","offset":4096,"epoch":0}
//! {"v":1,"id":"r7","op":"promote"}
//! {"v":1,"id":"r8","op":"pin_base","schema":"class A; ..."}
//! {"v":1,"id":"r9","op":"check_delta","base":"<32 hex>","diff":["+\tcard\tA\tR\tU\t1\t*"]}
//! ```
//!
//! * `v` (required): protocol version; requests with any other version are
//!   rejected with an error response (the response carries the server's
//!   version, so clients can detect skew).
//! * `id` (required): opaque correlation string, echoed verbatim.
//! * `op` (required): `check`, `implies`, `ping`, `stats`, `shutdown`,
//!   `replicate`, `promote`, `pin_base`, `check_delta`.
//! * `schema` (required for `check`/`implies`/`pin_base`): DSL source text.
//! * `base` (required for `check_delta`): canonical hash of a previously
//!   pinned base, 32 lowercase hex digits (a `pin_base` response's
//!   `schema_hash`).
//! * `diff` (`check_delta`): ordered canonical-form edit lines,
//!   `"+\t<line>"` to add and `"-\t<line>"` to remove (the format `crsat
//!   diff` prints). An unknown base falls back to a full check when the
//!   request also carries `schema`, and errors otherwise.
//! * `query` (required for `implies`): the same words `crsat implies`
//!   takes, e.g. `["isa","A","B"]`, `["min","C","R.U","2"]`,
//!   `["max","C","R.U","3"]`.
//! * `timeout_ms`, `max_steps` (optional): per-request resource budget.
//! * `deadline_ms` (optional, the reasoning ops `check`/`implies`/
//!   `pin_base`/`check_delta`): total milliseconds from server receipt
//!   within which the response must be produced — covers queueing, not
//!   just reasoning. Admission rejects (with status `shed`) requests whose
//!   deadline has already expired or provably cannot fit; a request whose
//!   deadline ran out in the queue is shed at pickup, and what remains of
//!   the deadline at pickup becomes the request's budget.
//! * `priority` (optional, the reasoning ops): 0 (most important) to 9;
//!   default 5. Under overload the adaptive gate sheds the *highest*
//!   numbers first.
//! * `certify` (optional, `check` only): when `true`, the server re-checks
//!   the verdict through the independent certificate checker; the outcome
//!   is visible in the report's `certify_checks` / `certify_failures`
//!   counters and a rejected certificate turns the response into an error.
//! * `offset`, `epoch` (optional, `replicate` only): the byte offset of
//!   the primary's verdict log the standby wants next, and the log epoch
//!   it is streaming under (see the `repl` response field).
//! * `trace_id` (optional): a client-supplied 128-bit trace id as exactly
//!   32 lowercase hex digits. The server mints one at admission when the
//!   client names none; either way the id is echoed in the response,
//!   stamped into the request's RunReport, carried by the cached verdict
//!   through persistence and replication, and recorded by coalesced
//!   followers as their `leader_trace_id` — one id follows the request
//!   from client to standby.
//!
//! # Response (version 1)
//!
//! ```json
//! {"v":1,"id":"r1","status":"negative","verdict":"unsatisfiable",
//!  "detail":["Leaf"],"cached":false,"schema_hash":"fa3b…","exit_code":1,
//!  "report":{...}}
//! ```
//!
//! * `status`: `ok` | `negative` | `error` | `budget-exceeded` | `shed` —
//!   the `crsat` outcome vocabulary (`exit_code` mapping 0/1/2/3) plus
//!   `shed` (`exit_code` 4): the server refused the request under load or
//!   because its deadline cannot be met. A shed is *retryable*: nothing
//!   was computed, and a client should back off (with jitter) and resend.
//! * `verdict`: a short machine-readable answer (`satisfiable`,
//!   `unsatisfiable`, `implied`, `not-implied`, `pong`, `stats`,
//!   `shutting-down`), or absent on errors.
//! * `detail`: human-readable lines (unsatisfiable class names, error
//!   messages, the `budget-exceeded stage=… spent=… limit=…` protocol
//!   line).
//! * `cached`: whether the verdict came from the server's verdict cache.
//! * `schema_hash`: hex of the schema's 128-bit canonical content hash
//!   (present when a schema was parsed).
//! * `report`: an embedded `RunReport` (schema documented in `cr-trace`)
//!   for the work this request performed — including `cache_hits` > 0 when
//!   the verdict was served from cache.
//! * `repl` (replicate responses only): one shipped chunk of the
//!   primary's verdict log —
//!   `{"offset":N,"len":N,"epoch":N,"reset":false,"data":"<hex>"}` where
//!   `offset` echoes the requested offset, `len` is the primary's total
//!   log length, `epoch` counts the primary's log compactions (offsets
//!   from different epochs are incompatible), `reset` orders the standby
//!   to discard its mirror and restart from offset 0, and `data` is the
//!   raw log bytes (CRC-framed records) in lowercase hex. The standby's
//!   next request's `offset` is the position ack.

use cr_trace::json::{self, write_escaped, Value};
use cr_trace::RunReport;

/// Current protocol version.
pub const PROTOCOL_VERSION: u64 = 1;

/// Priority a request gets when it names none.
pub const DEFAULT_PRIORITY: u8 = 5;

/// Least-important priority (the first band the overload gate sheds).
pub const MAX_PRIORITY: u8 = 9;

/// Request operations.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Op {
    /// Liveness probe; no schema.
    Ping,
    /// Per-class (and per-relationship) finite satisfiability.
    Check,
    /// Constraint implication (`isa` / `min` / `max` queries).
    Implies,
    /// Server counters: requests served, cache hits/misses/evictions.
    Stats,
    /// Graceful shutdown: stop accepting, drain in-flight work.
    Shutdown,
    /// Ship one chunk of the verdict log to a standby (replication).
    Replicate,
    /// Promote this server from standby to primary.
    Promote,
    /// Pin a schema as a delta base: run (or reuse) its full check and
    /// cache its reusable intermediate state under its canonical hash.
    PinBase,
    /// Check the schema obtained by applying `diff` to a pinned base,
    /// reusing the base's cached state (transparent fallback to a full
    /// check when the diff is structural or invalidates too much).
    CheckDelta,
}

impl Op {
    /// Stable wire name.
    pub fn as_str(self) -> &'static str {
        match self {
            Op::Ping => "ping",
            Op::Check => "check",
            Op::Implies => "implies",
            Op::Stats => "stats",
            Op::Shutdown => "shutdown",
            Op::Replicate => "replicate",
            Op::Promote => "promote",
            Op::PinBase => "pin_base",
            Op::CheckDelta => "check_delta",
        }
    }

    /// Whether the op runs the reasoning pipeline: it passes the admission
    /// gate, honours `deadline_ms`, registers in flight, and counts its
    /// panics toward quarantine.
    pub(crate) fn is_reasoning(self) -> bool {
        matches!(self, Op::Check | Op::Implies | Op::PinBase | Op::CheckDelta)
    }

    fn parse(s: &str) -> Option<Op> {
        Some(match s {
            "ping" => Op::Ping,
            "check" => Op::Check,
            "implies" => Op::Implies,
            "stats" => Op::Stats,
            "shutdown" => Op::Shutdown,
            "replicate" => Op::Replicate,
            "promote" => Op::Promote,
            "pin_base" => Op::PinBase,
            "check_delta" => Op::CheckDelta,
            _ => return None,
        })
    }
}

/// Request outcome — the same vocabulary (and exit-code mapping) as the
/// `crsat` CLI, so a scripted client can treat a response's `exit_code`
/// exactly like a `crsat` process exit.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Status {
    /// Question answered positively.
    Ok,
    /// Question answered negatively (unsatisfiable class / not implied).
    Negative,
    /// Usage, parse, or schema error.
    Error,
    /// The per-request resource budget tripped; the question is unanswered.
    BudgetExceeded,
    /// Admission control refused the request (overload shedding, or a
    /// deadline that has expired / cannot fit). Nothing was computed;
    /// the request is safe to retry after backing off.
    Shed,
}

impl Status {
    /// Stable wire name.
    pub fn as_str(self) -> &'static str {
        match self {
            Status::Ok => "ok",
            Status::Negative => "negative",
            Status::Error => "error",
            Status::BudgetExceeded => "budget-exceeded",
            Status::Shed => "shed",
        }
    }

    /// The CLI exit code this status maps to (0/1/2/3, plus 4 for the
    /// retryable shed outcome).
    pub fn exit_code(self) -> u8 {
        match self {
            Status::Ok => 0,
            Status::Negative => 1,
            Status::Error => 2,
            Status::BudgetExceeded => 3,
            Status::Shed => 4,
        }
    }
}

/// A parsed request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Request {
    /// Correlation id, echoed in the response.
    pub id: String,
    /// The operation.
    pub op: Op,
    /// DSL schema source (`check` / `implies`).
    pub schema: Option<String>,
    /// Implication query words (`implies`).
    pub query: Vec<String>,
    /// Optional wall-clock budget, milliseconds.
    pub timeout_ms: Option<u64>,
    /// Optional total work-unit budget.
    pub max_steps: Option<u64>,
    /// Optional end-to-end deadline, milliseconds from server receipt
    /// (covers queueing; admission sheds requests that cannot meet it).
    pub deadline_ms: Option<u64>,
    /// Scheduling priority 0 (most important) ..= 9; default 5. The
    /// overload gate sheds the highest numbers first.
    pub priority: u8,
    /// `replicate` only: byte offset of the primary's log wanted next.
    pub offset: Option<u64>,
    /// `replicate` only: the log epoch the standby is streaming under.
    pub epoch: Option<u64>,
    /// `check_delta` only: canonical hash (32 lowercase hex digits) of the
    /// pinned base the diff applies to.
    pub base: Option<String>,
    /// `check_delta` only: ordered canonical-form diff lines
    /// (`"+\t<line>"` / `"-\t<line>"`; see `cr-lang`'s wire format).
    pub diff: Vec<String>,
    /// Re-validate the verdict through the independent certificate checker
    /// (`check` only); certification outcome lands in the response report's
    /// `certify_*` counters and a failed certificate downgrades the
    /// response to an error.
    pub certify: bool,
    /// End-to-end trace id (32 lowercase hex digits). Client-supplied or
    /// minted by the server at admission; propagated through dispatch,
    /// singleflight, persistence, and replication.
    pub trace_id: Option<String>,
}

impl Request {
    /// A minimal request with just an id and an op.
    pub fn new(id: impl Into<String>, op: Op) -> Request {
        Request {
            id: id.into(),
            op,
            schema: None,
            query: Vec::new(),
            timeout_ms: None,
            max_steps: None,
            deadline_ms: None,
            priority: DEFAULT_PRIORITY,
            offset: None,
            epoch: None,
            base: None,
            diff: Vec::new(),
            certify: false,
            trace_id: None,
        }
    }

    /// Parses one request line. Errors name the offending field; the caller
    /// wraps them in an error [`Response`] (echoing the id when one could
    /// be recovered — see [`Request::salvage_id`]).
    pub fn parse(line: &str) -> Result<Request, String> {
        let v = json::parse(line).map_err(|e| format!("malformed JSON: {e}"))?;
        let obj = v.as_obj().ok_or("request must be a JSON object")?;
        let version = obj
            .get("v")
            .and_then(Value::as_u64)
            .ok_or("missing protocol version field \"v\"")?;
        if version != PROTOCOL_VERSION {
            return Err(format!(
                "unsupported protocol version {version} (server speaks {PROTOCOL_VERSION})"
            ));
        }
        let id = obj
            .get("id")
            .and_then(Value::as_str)
            .ok_or("missing request field \"id\"")?
            .to_string();
        let op_str = obj
            .get("op")
            .and_then(Value::as_str)
            .ok_or("missing request field \"op\"")?;
        let op = Op::parse(op_str).ok_or_else(|| format!("unknown op {op_str:?}"))?;
        let schema = obj
            .get("schema")
            .map(|s| {
                s.as_str()
                    .map(str::to_string)
                    .ok_or("request field \"schema\" must be a string")
            })
            .transpose()?;
        let query = match obj.get("query") {
            None => Vec::new(),
            Some(q) => q
                .as_arr()
                .ok_or("request field \"query\" must be an array of strings")?
                .iter()
                .map(|w| {
                    w.as_str()
                        .map(str::to_string)
                        .ok_or("request field \"query\" must be an array of strings")
                })
                .collect::<Result<Vec<String>, _>>()?,
        };
        let num_field = |name: &str| -> Result<Option<u64>, String> {
            match obj.get(name) {
                None => Ok(None),
                Some(n) => n
                    .as_u64()
                    .map(Some)
                    .ok_or_else(|| format!("request field {name:?} must be a nonnegative integer")),
            }
        };
        let timeout_ms = num_field("timeout_ms")?;
        let max_steps = num_field("max_steps")?;
        let deadline_ms = num_field("deadline_ms")?;
        let priority = match num_field("priority")? {
            None => DEFAULT_PRIORITY,
            Some(p) if p <= MAX_PRIORITY as u64 => p as u8,
            Some(p) => {
                return Err(format!(
                    "request field \"priority\" must be 0..={MAX_PRIORITY}, got {p}"
                ))
            }
        };
        let offset = num_field("offset")?;
        let epoch = num_field("epoch")?;
        let base = obj
            .get("base")
            .map(|b| {
                b.as_str()
                    .map(str::to_string)
                    .ok_or("request field \"base\" must be a string")
            })
            .transpose()?;
        let diff = match obj.get("diff") {
            None => Vec::new(),
            Some(d) => d
                .as_arr()
                .ok_or("request field \"diff\" must be an array of strings")?
                .iter()
                .map(|w| {
                    w.as_str()
                        .map(str::to_string)
                        .ok_or("request field \"diff\" must be an array of strings")
                })
                .collect::<Result<Vec<String>, _>>()?,
        };
        let certify = match obj.get("certify") {
            None => false,
            Some(Value::Bool(b)) => *b,
            Some(_) => return Err("request field \"certify\" must be a boolean".to_string()),
        };
        let trace_id = match obj.get("trace_id") {
            None => None,
            Some(t) => {
                let s = t
                    .as_str()
                    .ok_or("request field \"trace_id\" must be a string")?;
                if !cr_trace::is_trace_id(s) {
                    return Err(format!(
                        "request field \"trace_id\" must be exactly 32 lowercase hex digits, got {s:?}"
                    ));
                }
                Some(s.to_string())
            }
        };
        if matches!(op, Op::Check | Op::Implies | Op::PinBase) && schema.is_none() {
            return Err(format!("op {op_str:?} requires a \"schema\" field"));
        }
        if op == Op::Implies && query.is_empty() {
            return Err("op \"implies\" requires a nonempty \"query\" array".to_string());
        }
        if op == Op::CheckDelta {
            match &base {
                None => return Err("op \"check_delta\" requires a \"base\" field".to_string()),
                Some(b)
                    if b.len() != 32
                        || !b
                            .bytes()
                            .all(|c| c.is_ascii_hexdigit() && !c.is_ascii_uppercase()) =>
                {
                    return Err(format!(
                        "request field \"base\" must be exactly 32 lowercase hex digits, got {b:?}"
                    ))
                }
                Some(_) => {}
            }
        }
        Ok(Request {
            id,
            op,
            schema,
            query,
            timeout_ms,
            max_steps,
            deadline_ms,
            priority,
            offset,
            epoch,
            base,
            diff,
            certify,
            trace_id,
        })
    }

    /// Best-effort extraction of the `id` from a line that failed to parse
    /// as a request, so error responses can still be correlated.
    pub fn salvage_id(line: &str) -> String {
        json::parse(line)
            .ok()
            .and_then(|v| v.get("id").and_then(Value::as_str).map(str::to_string))
            .unwrap_or_default()
    }

    /// Serializes the request to one JSON line (no trailing newline). The
    /// scripted clients in the tests and benches use this.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(128);
        out.push_str("{\"v\":");
        out.push_str(&PROTOCOL_VERSION.to_string());
        out.push_str(",\"id\":");
        write_escaped(&mut out, &self.id);
        out.push_str(",\"op\":");
        write_escaped(&mut out, self.op.as_str());
        if let Some(schema) = &self.schema {
            out.push_str(",\"schema\":");
            write_escaped(&mut out, schema);
        }
        if !self.query.is_empty() {
            out.push_str(",\"query\":[");
            for (i, w) in self.query.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_escaped(&mut out, w);
            }
            out.push(']');
        }
        if let Some(t) = self.timeout_ms {
            out.push_str(&format!(",\"timeout_ms\":{t}"));
        }
        if let Some(s) = self.max_steps {
            out.push_str(&format!(",\"max_steps\":{s}"));
        }
        if let Some(d) = self.deadline_ms {
            out.push_str(&format!(",\"deadline_ms\":{d}"));
        }
        if self.priority != DEFAULT_PRIORITY {
            out.push_str(&format!(",\"priority\":{}", self.priority));
        }
        if let Some(o) = self.offset {
            out.push_str(&format!(",\"offset\":{o}"));
        }
        if let Some(e) = self.epoch {
            out.push_str(&format!(",\"epoch\":{e}"));
        }
        if let Some(b) = &self.base {
            out.push_str(",\"base\":");
            write_escaped(&mut out, b);
        }
        if !self.diff.is_empty() {
            out.push_str(",\"diff\":[");
            for (i, d) in self.diff.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_escaped(&mut out, d);
            }
            out.push(']');
        }
        if self.certify {
            out.push_str(",\"certify\":true");
        }
        if let Some(id) = &self.trace_id {
            out.push_str(",\"trace_id\":");
            write_escaped(&mut out, id);
        }
        out.push('}');
        out
    }
}

/// A response, serialized as one JSON line.
#[derive(Clone, Debug)]
pub struct Response {
    /// Correlation id (empty when the request's id was unrecoverable).
    pub id: String,
    /// Outcome.
    pub status: Status,
    /// Short machine-readable answer, when the op has one.
    pub verdict: Option<String>,
    /// Human-readable lines (unsat classes, error text, budget line).
    pub detail: Vec<String>,
    /// Whether the verdict was served from the cache.
    pub cached: bool,
    /// Hex canonical content hash of the request's schema, when parsed.
    pub schema_hash: Option<String>,
    /// Per-request run report.
    pub report: Option<RunReport>,
    /// Replication chunk (`replicate` responses only).
    pub repl: Option<ReplChunk>,
    /// The request's end-to-end trace id, echoed back (present whenever
    /// the request carried or was minted one).
    pub trace_id: Option<String>,
}

/// One shipped chunk of the primary's verdict log.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReplChunk {
    /// Byte offset this chunk starts at (echo of the request).
    pub offset: u64,
    /// The primary's total log length right now.
    pub log_len: u64,
    /// The primary's log epoch (compaction count; offsets are only
    /// meaningful within one epoch).
    pub epoch: u64,
    /// True orders the standby to discard its mirror and restart from
    /// offset 0 (the requested offset/epoch is stale).
    pub reset: bool,
    /// Raw log bytes, hex-encoded (empty when caught up or on reset).
    pub data: Vec<u8>,
}

impl ReplChunk {
    /// Parses the `repl` object of a replicate response.
    pub fn from_value(v: &Value) -> Option<ReplChunk> {
        Some(ReplChunk {
            offset: v.get("offset").and_then(Value::as_u64)?,
            log_len: v.get("len").and_then(Value::as_u64)?,
            epoch: v.get("epoch").and_then(Value::as_u64)?,
            reset: matches!(v.get("reset"), Some(Value::Bool(true))),
            data: hex_decode(v.get("data").and_then(Value::as_str).unwrap_or(""))?,
        })
    }

    fn to_json(&self) -> String {
        let mut out = String::with_capacity(32 + self.data.len() * 2);
        out.push_str(&format!(
            "{{\"offset\":{},\"len\":{},\"epoch\":{},\"reset\":{},\"data\":\"",
            self.offset, self.log_len, self.epoch, self.reset
        ));
        for b in &self.data {
            let _ = std::fmt::Write::write_fmt(&mut out, format_args!("{b:02x}"));
        }
        out.push_str("\"}");
        out
    }
}

fn hex_decode(s: &str) -> Option<Vec<u8>> {
    if s.len() % 2 != 0 {
        return None;
    }
    let digits = s.as_bytes();
    let mut out = Vec::with_capacity(s.len() / 2);
    for pair in digits.chunks(2) {
        let hi = (pair[0] as char).to_digit(16)?;
        let lo = (pair[1] as char).to_digit(16)?;
        out.push((hi * 16 + lo) as u8);
    }
    Some(out)
}

impl Response {
    fn plain(id: String, status: Status, verdict: Option<String>, detail: Vec<String>) -> Response {
        Response {
            id,
            status,
            verdict,
            detail,
            cached: false,
            schema_hash: None,
            report: None,
            repl: None,
            trace_id: None,
        }
    }

    /// A success response naming what was done (`pong`, `stats`,
    /// `shutting-down`, `replicate`, `promoted`, ...).
    pub(crate) fn ok(id: impl Into<String>, verdict: impl Into<String>) -> Response {
        Response::plain(id.into(), Status::Ok, Some(verdict.into()), Vec::new())
    }

    /// An error response (also used for protocol-level rejections).
    pub fn error(id: impl Into<String>, message: impl Into<String>) -> Response {
        Response::plain(id.into(), Status::Error, None, vec![message.into()])
    }

    /// A shed response: admission refused the request; nothing was
    /// computed and the client should back off and retry.
    pub fn shed(id: impl Into<String>, reason: impl Into<String>) -> Response {
        Response::plain(id.into(), Status::Shed, None, vec![reason.into()])
    }

    /// Serializes to one JSON line (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256);
        out.push_str("{\"v\":");
        out.push_str(&PROTOCOL_VERSION.to_string());
        out.push_str(",\"id\":");
        write_escaped(&mut out, &self.id);
        out.push_str(",\"status\":");
        write_escaped(&mut out, self.status.as_str());
        if let Some(verdict) = &self.verdict {
            out.push_str(",\"verdict\":");
            write_escaped(&mut out, verdict);
        }
        out.push_str(",\"detail\":[");
        for (i, d) in self.detail.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_escaped(&mut out, d);
        }
        out.push(']');
        out.push_str(",\"cached\":");
        out.push_str(if self.cached { "true" } else { "false" });
        if let Some(hash) = &self.schema_hash {
            out.push_str(",\"schema_hash\":");
            write_escaped(&mut out, hash);
        }
        let _ = std::fmt::Write::write_fmt(
            &mut out,
            format_args!(",\"exit_code\":{}", self.status.exit_code()),
        );
        if let Some(id) = &self.trace_id {
            out.push_str(",\"trace_id\":");
            write_escaped(&mut out, id);
        }
        if let Some(report) = &self.report {
            out.push_str(",\"report\":");
            out.push_str(&report.to_json());
        }
        if let Some(repl) = &self.repl {
            out.push_str(",\"repl\":");
            out.push_str(&repl.to_json());
        }
        out.push('}');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_round_trips() {
        let mut req = Request::new("r-42", Op::Implies);
        req.schema = Some("class A; class B; isa A B; relationship R (u: A, v: B);".to_string());
        req.query = vec!["isa".into(), "A".into(), "B".into()];
        req.timeout_ms = Some(250);
        req.max_steps = Some(10_000);
        let parsed = Request::parse(&req.to_json()).unwrap();
        assert_eq!(parsed, req);

        let mut certifying = Request::new("r-43", Op::Check);
        certifying.schema = Some("class A;".to_string());
        certifying.certify = true;
        let parsed = Request::parse(&certifying.to_json()).unwrap();
        assert_eq!(parsed, certifying);
        assert!(
            Request::parse(r#"{"v":1,"id":"x","op":"check","schema":"class A;","certify":3}"#)
                .unwrap_err()
                .contains("certify")
        );
    }

    #[test]
    fn deadline_priority_and_replication_fields_round_trip() {
        let mut req = Request::new("r-44", Op::Check);
        req.schema = Some("class A;".to_string());
        req.deadline_ms = Some(750);
        req.priority = 9;
        let parsed = Request::parse(&req.to_json()).unwrap();
        assert_eq!(parsed, req);

        // Default priority is omitted on the wire and restored on parse.
        let mut plain = Request::new("r-45", Op::Ping);
        plain.priority = DEFAULT_PRIORITY;
        assert!(!plain.to_json().contains("priority"));
        assert_eq!(Request::parse(&plain.to_json()).unwrap().priority, 5);

        let mut repl = Request::new("r-46", Op::Replicate);
        repl.offset = Some(4096);
        repl.epoch = Some(2);
        let parsed = Request::parse(&repl.to_json()).unwrap();
        assert_eq!(parsed, repl);

        assert!(
            Request::parse(r#"{"v":1,"id":"x","op":"ping","priority":10}"#)
                .unwrap_err()
                .contains("priority")
        );
    }

    #[test]
    fn shed_response_and_repl_chunk_round_trip() {
        let shed = Response::shed("r9", "queue full");
        assert_eq!(shed.status, Status::Shed);
        let v = json::parse(&shed.to_json()).unwrap();
        assert_eq!(v.get("status").unwrap().as_str(), Some("shed"));
        assert_eq!(v.get("exit_code").unwrap().as_u64(), Some(4));

        let chunk = ReplChunk {
            offset: 8,
            log_len: 1024,
            epoch: 3,
            reset: false,
            data: vec![0x00, 0xde, 0xad, 0xff],
        };
        let mut resp = Response::error("r10", "unused");
        resp.repl = Some(chunk.clone());
        let v = json::parse(&resp.to_json()).unwrap();
        let parsed = ReplChunk::from_value(v.get("repl").unwrap()).unwrap();
        assert_eq!(parsed, chunk);

        // Odd-length or non-hex data must be rejected, not mangled.
        assert!(hex_decode("abc").is_none());
        assert!(hex_decode("zz").is_none());
    }

    #[test]
    fn rejects_wrong_version_and_missing_fields() {
        assert!(Request::parse(r#"{"id":"x","op":"ping"}"#)
            .unwrap_err()
            .contains("version"));
        assert!(Request::parse(r#"{"v":2,"id":"x","op":"ping"}"#)
            .unwrap_err()
            .contains("unsupported protocol version 2"));
        assert!(Request::parse(r#"{"v":1,"op":"ping"}"#)
            .unwrap_err()
            .contains("\"id\""));
        assert!(Request::parse(r#"{"v":1,"id":"x","op":"frobnicate"}"#)
            .unwrap_err()
            .contains("unknown op"));
        assert!(Request::parse(r#"{"v":1,"id":"x","op":"check"}"#)
            .unwrap_err()
            .contains("schema"));
        assert!(
            Request::parse(r#"{"v":1,"id":"x","op":"implies","schema":"class A;"}"#)
                .unwrap_err()
                .contains("query")
        );
        assert!(Request::parse("not json at all").is_err());
    }

    #[test]
    fn delta_ops_round_trip_and_validate() {
        let mut pin = Request::new("p1", Op::PinBase);
        pin.schema = Some("class A;".to_string());
        let parsed = Request::parse(&pin.to_json()).unwrap();
        assert_eq!(parsed, pin);

        let mut delta = Request::new("d1", Op::CheckDelta);
        delta.base = Some("00112233445566778899aabbccddeeff".to_string());
        delta.diff = vec![
            "+\tcard\tA\tR\tU\t1\t*".to_string(),
            "-\tisa\tA\tB".to_string(),
        ];
        let parsed = Request::parse(&delta.to_json()).unwrap();
        assert_eq!(parsed, delta);

        assert!(Request::parse(r#"{"v":1,"id":"x","op":"pin_base"}"#)
            .unwrap_err()
            .contains("schema"));
        assert!(Request::parse(r#"{"v":1,"id":"x","op":"check_delta"}"#)
            .unwrap_err()
            .contains("base"));
        assert!(
            Request::parse(r#"{"v":1,"id":"x","op":"check_delta","base":"SHOUTY"}"#)
                .unwrap_err()
                .contains("32 lowercase hex")
        );
        assert!(Request::parse(
            r#"{"v":1,"id":"x","op":"check_delta","base":"00112233445566778899aabbccddeeff","diff":7}"#
        )
        .unwrap_err()
        .contains("diff"));
    }

    #[test]
    fn salvages_ids_from_broken_requests() {
        assert_eq!(Request::salvage_id(r#"{"v":9,"id":"keep-me"}"#), "keep-me");
        assert_eq!(Request::salvage_id("garbage"), "");
    }

    #[test]
    fn response_json_is_parseable_and_complete() {
        let resp = Response {
            id: "r1".to_string(),
            status: Status::Negative,
            verdict: Some("unsatisfiable".to_string()),
            detail: vec!["Leaf".to_string()],
            cached: true,
            schema_hash: Some("deadbeef".to_string()),
            report: None,
            repl: None,
            trace_id: Some("00112233445566778899aabbccddeeff".to_string()),
        };
        let v = json::parse(&resp.to_json()).unwrap();
        assert_eq!(v.get("v").unwrap().as_u64(), Some(PROTOCOL_VERSION));
        assert_eq!(v.get("status").unwrap().as_str(), Some("negative"));
        assert_eq!(v.get("exit_code").unwrap().as_u64(), Some(1));
        assert_eq!(v.get("cached"), Some(&Value::Bool(true)));
        assert_eq!(v.get("detail").unwrap().as_arr().unwrap().len(), 1);
        assert_eq!(
            v.get("trace_id").unwrap().as_str(),
            Some("00112233445566778899aabbccddeeff")
        );
    }

    #[test]
    fn trace_id_round_trips_and_malformed_ids_are_rejected() {
        let mut req = Request::new("r-47", Op::Check);
        req.schema = Some("class A;".to_string());
        req.trace_id = Some("00112233445566778899aabbccddeeff".to_string());
        let parsed = Request::parse(&req.to_json()).unwrap();
        assert_eq!(parsed, req);

        // Absent on the wire stays absent.
        let plain = Request::new("r-48", Op::Ping);
        assert!(!plain.to_json().contains("trace_id"));
        assert_eq!(Request::parse(&plain.to_json()).unwrap().trace_id, None);

        for bad in [
            r#"{"v":1,"id":"x","op":"ping","trace_id":"short"}"#,
            r#"{"v":1,"id":"x","op":"ping","trace_id":"00112233445566778899AABBCCDDEEFF"}"#,
            r#"{"v":1,"id":"x","op":"ping","trace_id":17}"#,
        ] {
            assert!(
                Request::parse(bad).unwrap_err().contains("trace_id"),
                "{bad} must be rejected"
            );
        }
    }
}
