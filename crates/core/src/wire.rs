//! The serve wire protocol: newline-delimited JSON over a byte stream.
//!
//! One request per line, one response line per request — the protocol
//! [`crate::serve`] speaks over TCP and the CLI's offline `client` mode
//! executes directly against a [`Store`] opened from a container.
//! Everything is hand-rolled on `std` (the workspace builds offline, so
//! no serde/HTTP dependencies): a [`Json`] value type with a
//! recursive-descent parser for requests, and string-building
//! serializers for responses.
//!
//! The full format — request/response shapes, cursor semantics, error
//! codes — is documented in `PROTOCOL.md` at the repository root; this
//! module is its reference implementation. The load-bearing invariant:
//! **[`execute`] is the only executor** ([`handle_line`] is its
//! read-only form). The TCP server and the offline client both call it,
//! so a served answer and an offline answer over the same container are
//! byte-identical by construction, and the serve-smoke CI job diffs the
//! two outputs to prove the transport adds nothing.
//!
//! Cursors travel as decimal strings (`"cursor":"281474976710657"`):
//! they are opaque `u64`s minted by [`Page::next_cursor`], and a JSON
//! number would round through `f64` and corrupt any cursor past 2⁵³ —
//! sharded where/when cursors carry the owning shard in their high 16
//! bits (see `crate::shard`), so they routinely exceed that. Integral
//! JSON numbers are still accepted on input for hand-typed sessions.

use std::fmt::Write as _;

use crate::cache::CacheStats;
use crate::error::Error;
use crate::query::{Page, PageRequest, QueryTarget, WhenHit, WhereHit, DEFAULT_PAGE_LIMIT};
use crate::store::{InfoReport, IngestReport, Store};
use crate::wal::{Record, TailRead};
use utcq_network::{EdgeId, Rect};
use utcq_traj::{Dataset, Instance, PathPosition, UncertainTrajectory};

/// Longest accepted request line. Enforced identically by every
/// executor surface — [`execute`] rejects longer lines with
/// `bad_request` (so the offline client matches), and the TCP server
/// additionally bounds its reads so an unterminated line cannot buffer
/// without limit.
pub const MAX_REQUEST_BYTES: usize = 1 << 20;

/// Most batches one `tail` reply returns when the request carries no
/// `max` field. Keeps a reply bounded no matter how far behind the
/// follower is; the follower simply asks again from the next epoch.
pub const DEFAULT_TAIL_MAX: usize = 64;

/// A parsed JSON value — the subset of shapes the protocol uses.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (parsed as `f64`).
    Num(f64),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, as insertion-ordered key/value pairs (the protocol
    /// never needs hashed lookup, and ordered pairs keep serialization
    /// deterministic).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses one JSON document, rejecting trailing garbage.
    ///
    /// ```
    /// use utcq_core::wire::Json;
    /// let v = Json::parse(r#"{"op":"ping","id":7}"#).unwrap();
    /// assert_eq!(v.get("op").and_then(Json::as_str), Some("ping"));
    /// assert_eq!(v.get("id").and_then(Json::as_u64), Some(7));
    /// ```
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            b: text.as_bytes(),
            i: 0,
            depth: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.i != p.b.len() {
            return Err(format!("trailing characters at byte {}", p.i));
        }
        Ok(v)
    }

    /// Object field lookup (`None` for non-objects and missing keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload as an exact non-negative integer: rejects
    /// fractions, negatives, and magnitudes of 2⁵³ and beyond. Numbers
    /// are held as `f64`, and 2⁵³ is the first value that a different
    /// literal (2⁵³ + 1) also rounds to, so accepting it would address a
    /// neighbour of what was written.
    pub fn as_u64(&self) -> Option<u64> {
        let n = self.as_f64()?;
        (n.fract() == 0.0 && (0.0..EXACT_INTEGERS).contains(&n)).then_some(n as u64)
    }

    /// The numeric payload as an exact integer (rejects fractions and
    /// magnitudes of 2⁵³ and beyond, like [`Json::as_u64`]).
    pub fn as_i64(&self) -> Option<i64> {
        let n = self.as_f64()?;
        (n.fract() == 0.0 && n.abs() < EXACT_INTEGERS).then_some(n as i64)
    }

    /// Serializes this value back to JSON text (used to echo request
    /// ids; integral numbers print without a decimal point).
    pub fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => write_f64(out, *n),
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => write_array(out, items, |out, v| v.write(out)),
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_str(out, k);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

/// 2⁵³: every integer literal of a smaller magnitude is an `f64` no
/// other integer literal parses to.
const EXACT_INTEGERS: f64 = 9_007_199_254_740_992.0;

/// Nesting depth cap for the hand-rolled recursive-descent parser.
/// Without it, a line of `[[[[...` recurses once per bracket and
/// overflows the thread stack — an abort, not a catchable error.
const MAX_JSON_DEPTH: usize = 128;

struct Parser<'a> {
    b: &'a [u8],
    i: usize,
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.b.get(self.i), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.i += 1;
        }
    }

    fn expect_byte(&mut self, c: u8) -> Result<(), String> {
        if self.b.get(self.i) == Some(&c) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", c as char, self.i))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.b.get(self.i) {
            None => Err("unexpected end of input".into()),
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(_) => self.number(),
        }
    }

    fn nested(&mut self, f: fn(&mut Self) -> Result<Json, String>) -> Result<Json, String> {
        if self.depth >= MAX_JSON_DEPTH {
            return Err(format!("nesting deeper than {MAX_JSON_DEPTH} levels"));
        }
        self.depth += 1;
        let v = f(self);
        self.depth -= 1;
        v
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        // bounds: self.i <= b.len() always (advanced only past read bytes)
        if self.b[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Ok(v)
        } else {
            Err(format!("invalid literal at byte {}", self.i))
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect_byte(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.b.get(self.i) == Some(&b'}') {
            self.i += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect_byte(b':')?;
            self.skip_ws();
            let val = self.value()?;
            pairs.push((key, val));
            self.skip_ws();
            match self.b.get(self.i) {
                Some(b',') => self.i += 1,
                Some(b'}') => {
                    self.i += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.i)),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect_byte(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.b.get(self.i) == Some(&b']') {
            self.i += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.b.get(self.i) {
                Some(b',') => self.i += 1,
                Some(b']') => {
                    self.i += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.i)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect_byte(b'"')?;
        let mut out = String::new();
        loop {
            match self.b.get(self.i) {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.i += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.i += 1;
                    let esc = self.b.get(self.i).copied();
                    self.i += 1;
                    match esc {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{0008}'),
                        Some(b'f') => out.push('\u{000C}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = self
                                .b
                                .get(self.i..self.i + 4)
                                .ok_or("truncated \\u escape")?;
                            let hex = std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?;
                            let code =
                                u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
                            self.i += 4;
                            // Surrogate pairs are not needed by the
                            // protocol; map lone surrogates to U+FFFD.
                            out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                        }
                        _ => return Err(format!("bad escape at byte {}", self.i)),
                    }
                }
                Some(_) => {
                    // Consume the whole run of plain bytes up to the next
                    // quote or backslash in one slice — O(n) overall. The
                    // run starts and ends at ASCII delimiters, so it sits
                    // on char boundaries of the (already valid) input.
                    let start = self.i;
                    while let Some(&b) = self.b.get(self.i) {
                        if b == b'"' || b == b'\\' {
                            break;
                        }
                        self.i += 1;
                    }
                    // bounds: start..i is a window of scanned bytes
                    let chunk =
                        std::str::from_utf8(&self.b[start..self.i]).map_err(|e| e.to_string())?;
                    out.push_str(chunk);
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.i;
        while matches!(
            self.b.get(self.i),
            Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
        ) {
            self.i += 1;
        }
        // bounds: start..i is a window of scanned bytes
        let text = std::str::from_utf8(&self.b[start..self.i]).map_err(|e| e.to_string())?;
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("invalid number at byte {start}"))
    }
}

/// Writes a JSON string literal with the required escapes.
fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Writes an `f64` as a JSON number: Rust's shortest round-trip
/// `Display` form (deterministic, so served and offline outputs agree
/// byte for byte); non-finite values become `null`.
fn write_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

/// Writes `[a,b,…]`, each item by `item`.
fn write_array<T>(
    out: &mut String,
    items: impl IntoIterator<Item = T>,
    mut item: impl FnMut(&mut String, T),
) {
    out.push('[');
    for (i, x) in items.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        item(out, x);
    }
    out.push(']');
}

/// One protocol request, decoded.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// `where(traj, t, α)`, paginated.
    Where {
        /// Trajectory id.
        traj: u64,
        /// Query time (seconds).
        t: i64,
        /// Probability threshold.
        alpha: f64,
        /// Page limit + resume cursor.
        page: PageRequest,
    },
    /// `when(traj, ⟨edge, rd⟩, α)`, paginated.
    When {
        /// Trajectory id.
        traj: u64,
        /// Edge id of the query location.
        edge: EdgeId,
        /// Relative distance along the edge in `[0, 1]`.
        rd: f64,
        /// Probability threshold.
        alpha: f64,
        /// Page limit + resume cursor.
        page: PageRequest,
    },
    /// `range(RE, tq, α)`, paginated (keyset cursor).
    Range {
        /// Query rectangle.
        re: Rect,
        /// Query time (seconds).
        tq: i64,
        /// Probability threshold.
        alpha: f64,
        /// Page limit + resume cursor.
        page: PageRequest,
    },
    /// `ingest(trajectories)`: append a batch to the live store. Only
    /// honored by writable executors (`utcq serve --writable`,
    /// `utcq client --writable`); read-only surfaces answer with the
    /// `read_only` error code.
    Ingest {
        /// The batch, already decoded into model trajectories.
        trajectories: Vec<UncertainTrajectory>,
        /// Optional `interval` field; validated against the store's
        /// compression interval when present (absent = adopt the
        /// store's).
        interval: Option<i64>,
        /// Optional dataset label for the batch (adopted only if the
        /// store has none yet, matching builder semantics).
        name: String,
    },
    /// `tail(from)`: stream accepted batches with epochs strictly
    /// greater than `from` (the epoch the caller already has), read
    /// back from the WAL file through its feed. Read-only surfaces
    /// answer it (followers connect without `--writable`); containers
    /// without an attached WAL answer with the `no_wal` error code, and
    /// a `from` so old the bounded feed no longer covers `from + 1`
    /// (or a logged batch that no longer reads) answers `tail_gap`.
    Tail {
        /// The epoch the caller is already at; batches after it are
        /// returned.
        from: u64,
        /// Most batches to return in one reply.
        max: usize,
    },
    /// `checkpoint`: persist the current snapshot crash-safely and
    /// truncate the WAL. Writable surfaces only.
    Checkpoint,
    /// Container description (the [`InfoReport`]).
    Info,
    /// Decode-cache counters.
    CacheStats,
    /// Liveness probe.
    Ping,
    /// Graceful server shutdown.
    Shutdown,
}

/// One protocol op: the `"op"` value that names it, the fields a request
/// must and may carry besides `id`, whether it changes the store, and
/// its decoder. [`parse_request`] dispatches through this table, every
/// reply names its op from it, and a read-only surface refuses the ops
/// that write. `PROTOCOL.md`'s request table lists the same rows; a test
/// holds the two equal.
pub struct Op {
    /// The `"op"` value.
    pub name: &'static str,
    /// Fields a request must carry.
    pub required: &'static [&'static str],
    /// Fields a request may carry besides `id`.
    pub optional: &'static [&'static str],
    /// Whether it changes the store: a read-only surface answers
    /// `read_only`.
    pub writes: bool,
    parse: fn(&Json, &Option<Json>) -> Field<Request>,
}

/// The optional fields of a paginated query.
const PAGED: &[&str] = &["alpha", "limit", "cursor"];

/// Every op, in `PROTOCOL.md`'s order.
#[rustfmt::skip]
pub static OPS: [Op; 10] = [
    Op { name: "where", required: &["traj", "t"], optional: PAGED, writes: false, parse: parse_where },
    Op { name: "when", required: &["traj", "edge", "rd"], optional: PAGED, writes: false, parse: parse_when },
    Op { name: "range", required: &["min_x", "min_y", "max_x", "max_y", "tq"], optional: PAGED, writes: false,
         parse: parse_range },
    Op { name: "ingest", required: &["trajectories"], optional: &["interval", "name"], writes: true,
         parse: parse_ingest },
    Op { name: "tail", required: &["from"], optional: &["max"], writes: false, parse: parse_tail },
    Op { name: "checkpoint", required: &[], optional: &[], writes: true, parse: |_, _| Ok(Request::Checkpoint) },
    Op { name: "info", required: &[], optional: &[], writes: false, parse: |_, _| Ok(Request::Info) },
    Op { name: "cache_stats", required: &[], optional: &[], writes: false, parse: |_, _| Ok(Request::CacheStats) },
    Op { name: "ping", required: &[], optional: &[], writes: false, parse: |_, _| Ok(Request::Ping) },
    Op { name: "shutdown", required: &[], optional: &[], writes: false, parse: |_, _| Ok(Request::Shutdown) },
];

/// A request that failed to decode: the error response to send, plus
/// the echoed id when one was readable.
#[derive(Debug)]
pub struct RequestError {
    /// The request's `id` field, if the line parsed far enough to read
    /// one.
    pub id: Option<Json>,
    /// Protocol error code (`bad_request`, `unknown_op`,
    /// `invalid_cursor`).
    pub code: &'static str,
    /// Human-readable detail.
    pub message: String,
}

/// A decoded request plus its echo id.
#[derive(Debug)]
pub struct ParsedRequest {
    /// The request's `id` field, echoed verbatim in the response.
    pub id: Option<Json>,
    /// The operation to execute.
    pub request: Request,
}

/// A decoded field, or the error answering the request it came in.
type Field<T> = Result<T, Box<RequestError>>;

fn bad(id: &Option<Json>, message: String) -> Box<RequestError> {
    Box::new(RequestError {
        id: id.clone(),
        code: "bad_request",
        message,
    })
}

/// How a field's JSON value is read, and what it must be otherwise.
type Kind<T> = (fn(&Json) -> Option<T>, &'static str);
const U64: Kind<u64> = (Json::as_u64, "a non-negative integer");
const I64: Kind<i64> = (Json::as_i64, "an integer");
const F64: Kind<f64> = (Json::as_f64, "a number");

/// The field `key` read as `kind`, `None` when absent; any other value
/// is a `bad_request` naming what the field must be.
fn opt_field<T>(obj: &Json, id: &Option<Json>, key: &str, kind: Kind<T>) -> Field<Option<T>> {
    let (read, what) = kind;
    let read = |v| read(v).ok_or_else(|| bad(id, format!("field '{key}' must be {what}")));
    obj.get(key).map(read).transpose()
}

/// [`opt_field`] of a field the request must carry.
fn field<T>(obj: &Json, id: &Option<Json>, key: &str, kind: Kind<T>) -> Field<T> {
    opt_field(obj, id, key, kind)?.ok_or_else(|| bad(id, format!("missing field '{key}'")))
}

/// `limit` (default [`DEFAULT_PAGE_LIMIT`]) + `cursor` (default: first
/// page). Cursors are decimal strings; integral numbers are accepted
/// for hand-typed sessions, but anything else is an invalid cursor.
fn page_fields(obj: &Json, id: &Option<Json>) -> Field<PageRequest> {
    let limit = opt_field(obj, id, "limit", U64)?.map_or(DEFAULT_PAGE_LIMIT, |n| n as usize);
    let cursor = match obj.get("cursor") {
        None | Some(Json::Null) => None,
        Some(v) => {
            let parsed = match v {
                Json::Str(s) => s.parse::<u64>().ok(),
                n @ Json::Num(_) => n.as_u64(),
                _ => None,
            };
            Some(parsed.ok_or_else(|| {
                Box::new(RequestError {
                    id: id.clone(),
                    code: "invalid_cursor",
                    message: "field 'cursor' must be a decimal u64 string".to_string(),
                })
            })?)
        }
    };
    Ok(PageRequest { limit, cursor })
}

/// Decodes one trajectory object of an `ingest` request:
/// `{"id":N,"times":[…],"instances":[{"prob":P,"path":[…],
/// "positions":[[path_idx,rd],…]},…]}`.
fn parse_trajectory(v: &Json, id: &Option<Json>, at: usize) -> Field<UncertainTrajectory> {
    let ctx = |what: &str| format!("trajectories[{at}]: {what}");
    let traj_id = v
        .get("id")
        .ok_or_else(|| bad(id, "missing field 'id'".to_string()))?
        .as_u64()
        .ok_or_else(|| bad(id, ctx("field 'id' must be a non-negative integer")))?;
    let Some(Json::Arr(times_v)) = v.get("times") else {
        return Err(bad(id, ctx("field 'times' must be an array of integers")));
    };
    let times = times_v
        .iter()
        .map(Json::as_i64)
        .collect::<Option<Vec<i64>>>()
        .ok_or_else(|| bad(id, ctx("field 'times' must be an array of integers")))?;
    let Some(Json::Arr(instances_v)) = v.get("instances") else {
        return Err(bad(id, ctx("field 'instances' must be an array")));
    };
    let mut instances = Vec::with_capacity(instances_v.len());
    for (w, inst) in instances_v.iter().enumerate() {
        let ictx = |what: &str| format!("trajectories[{at}].instances[{w}]: {what}");
        let prob = inst
            .get("prob")
            .ok_or_else(|| bad(id, ictx("missing field 'prob'")))?
            .as_f64()
            .ok_or_else(|| bad(id, ictx("field 'prob' must be a number")))?;
        let Some(Json::Arr(path_v)) = inst.get("path") else {
            return Err(bad(id, ictx("field 'path' must be an array of edge ids")));
        };
        let path = path_v
            .iter()
            .map(|e| e.as_u64().and_then(|n| u32::try_from(n).ok()))
            .collect::<Option<Vec<u32>>>()
            .ok_or_else(|| bad(id, ictx("field 'path' must be an array of edge ids")))?
            .into_iter()
            .map(EdgeId)
            .collect();
        let Some(Json::Arr(pos_v)) = inst.get("positions") else {
            return Err(bad(id, ictx("field 'positions' must be an array of pairs")));
        };
        let mut positions = Vec::with_capacity(pos_v.len());
        for p in pos_v {
            let pair = match p {
                Json::Arr(pair) if pair.len() == 2 => pair,
                _ => return Err(bad(id, ictx("each position must be a [path_idx, rd] pair"))),
            };
            // bounds: pair.len() == 2 matched above
            let path_idx = pair[0]
                .as_u64()
                .and_then(|n| u32::try_from(n).ok())
                .ok_or_else(|| bad(id, ictx("position path_idx must fit in 32 bits")))?;
            // bounds: pair.len() == 2 matched above
            let rd = pair[1]
                .as_f64()
                .ok_or_else(|| bad(id, ictx("position rd must be a number")))?;
            positions.push(PathPosition { path_idx, rd });
        }
        instances.push(Instance {
            path,
            positions,
            prob,
        });
    }
    Ok(UncertainTrajectory {
        id: traj_id,
        times,
        instances,
    })
}

/// `alpha` defaults to 0 (return everything) when absent.
fn alpha(v: &Json, id: &Option<Json>) -> Field<f64> {
    Ok(opt_field(v, id, "alpha", F64)?.unwrap_or(0.0))
}

fn parse_where(v: &Json, id: &Option<Json>) -> Field<Request> {
    Ok(Request::Where {
        traj: field(v, id, "traj", U64)?,
        t: field(v, id, "t", I64)?,
        alpha: alpha(v, id)?,
        page: page_fields(v, id)?,
    })
}

fn parse_when(v: &Json, id: &Option<Json>) -> Field<Request> {
    Ok(Request::When {
        traj: field(v, id, "traj", U64)?,
        edge: EdgeId(
            field(v, id, "edge", U64)?
                .try_into()
                .map_err(|_| bad(id, "field 'edge' must fit in 32 bits".to_string()))?,
        ),
        rd: field(v, id, "rd", F64)?,
        alpha: alpha(v, id)?,
        page: page_fields(v, id)?,
    })
}

fn parse_range(v: &Json, id: &Option<Json>) -> Field<Request> {
    Ok(Request::Range {
        re: Rect::new(
            field(v, id, "min_x", F64)?,
            field(v, id, "min_y", F64)?,
            field(v, id, "max_x", F64)?,
            field(v, id, "max_y", F64)?,
        ),
        tq: field(v, id, "tq", I64)?,
        alpha: alpha(v, id)?,
        page: page_fields(v, id)?,
    })
}

fn parse_ingest(v: &Json, id: &Option<Json>) -> Field<Request> {
    let Some(Json::Arr(items)) = v.get("trajectories") else {
        return Err(bad(id, "field 'trajectories' must be an array".to_string()));
    };
    let trajectories = items
        .iter()
        .enumerate()
        .map(|(at, t)| parse_trajectory(t, id, at))
        .collect::<Result<Vec<_>, _>>()?;
    let interval = opt_field(v, id, "interval", I64)?;
    let name = v.get("name").and_then(Json::as_str).unwrap_or_default();
    Ok(Request::Ingest {
        trajectories,
        interval,
        name: name.to_string(),
    })
}

fn parse_tail(v: &Json, id: &Option<Json>) -> Field<Request> {
    Ok(Request::Tail {
        from: field(v, id, "from", U64)?,
        max: opt_field(v, id, "max", U64)?.map_or(DEFAULT_TAIL_MAX, |n| n as usize),
    })
}

/// Decodes one request line. Errors carry the echo id (when readable)
/// and the protocol error code, ready for [`execute`] to serialize.
pub fn parse_request(line: &str) -> Result<ParsedRequest, Box<RequestError>> {
    parse_line(line).map(|(_, parsed)| parsed)
}

/// [`parse_request`], with the table row of the op that decoded it.
fn parse_line(line: &str) -> Field<(&'static Op, ParsedRequest)> {
    let v = Json::parse(line).map_err(|e| bad(&None, format!("malformed JSON: {e}")))?;
    if !matches!(v, Json::Obj(_)) {
        return Err(bad(&None, "request must be a JSON object".to_string()));
    }
    let id = v.get("id").cloned();
    let name = v
        .get("op")
        .and_then(Json::as_str)
        .ok_or_else(|| bad(&id, "missing string field 'op'".to_string()))?;
    let Some(op) = OPS.iter().find(|op| op.name == name) else {
        return Err(Box::new(RequestError {
            id,
            code: "unknown_op",
            message: format!("unknown op '{name}'"),
        }));
    };
    let request = (op.parse)(&v, &id)?;
    Ok((op, ParsedRequest { id, request }))
}

/// The protocol error code for a core [`Error`] — one stable snake_case
/// token per variant (documented in `PROTOCOL.md`).
pub fn error_code(e: &Error) -> &'static str {
    match e {
        Error::Codec(_) => "codec",
        Error::Decompress(_) => "decompress",
        Error::Storage(_) => "storage",
        Error::Io(_) => "io",
        Error::DuplicateTrajectory(_) => "duplicate_trajectory",
        Error::SpanTooLong(_) => "span_too_long",
        Error::IntervalMismatch { .. } => "interval_mismatch",
        Error::NetworkMismatch { .. } => "network_mismatch",
        Error::CorruptStore(_) => "corrupt_store",
        Error::InvalidCursor => "invalid_cursor",
        Error::ShardConfig(_) => "shard_config",
        Error::InvalidTrajectory { .. } => "bad_request",
    }
}

/// Opens a response object and writes the echoed id + `"ok"` field.
fn begin(id: Option<&Json>, ok: bool) -> String {
    let mut out = String::with_capacity(128);
    out.push('{');
    if let Some(id) = id {
        out.push_str("\"id\":");
        id.write(&mut out);
        out.push(',');
    }
    out.push_str(if ok { "\"ok\":true" } else { "\"ok\":false" });
    out
}

/// Writes a paginated answer after its opening: the items, each by
/// `item`, then `"next_cursor"` (decimal string or null) and
/// `"has_more"`.
fn write_page<T>(mut out: String, page: &Page<T>, item: impl FnMut(&mut String, &T)) -> String {
    out.push_str(",\"items\":");
    write_array(&mut out, &page.items, item);
    match page.next_cursor {
        Some(c) => {
            let _ = write!(out, ",\"next_cursor\":\"{c}\"");
        }
        None => out.push_str(",\"next_cursor\":null"),
    }
    let _ = write!(out, ",\"has_more\":{}}}", page.has_more);
    out
}

fn write_where_hit(out: &mut String, h: &WhereHit) {
    let _ = write!(out, "{{\"instance\":{},\"prob\":", h.instance);
    write_f64(out, h.prob);
    let _ = write!(out, ",\"edge\":{},\"ndist\":", h.loc.edge.0);
    write_f64(out, h.loc.ndist);
    out.push('}');
}

fn write_when_hit(out: &mut String, h: &WhenHit) {
    let _ = write!(out, "{{\"instance\":{},\"prob\":", h.instance);
    write_f64(out, h.prob);
    out.push_str(",\"time\":");
    write_f64(out, h.time);
    out.push('}');
}

fn write_info(mut out: String, info: &InfoReport) -> String {
    out.push_str(",\"info\":{\"shape\":");
    write_str(&mut out, info.shape());
    out.push_str(",\"name\":");
    write_str(&mut out, &info.name);
    let _ = write!(
        out,
        ",\"trajectories\":{},\"instances\":{}",
        info.trajectories, info.instances
    );
    out.push_str(",\"eta_d\":");
    write_f64(&mut out, info.eta_d);
    out.push_str(",\"eta_p\":");
    write_f64(&mut out, info.eta_p);
    let _ = write!(
        out,
        ",\"pivots\":{},\"raw_kib\":{},\"compressed_kib\":{}",
        info.n_pivots, info.raw_kib, info.compressed_kib
    );
    out.push_str(",\"ratio\":");
    write_f64(&mut out, info.ratio);
    if let Some(sh) = &info.sharding {
        out.push_str(",\"policy\":");
        write_str(&mut out, &sh.policy);
        out.push_str(",\"shards\":");
        write_array(&mut out, &sh.shards, |out, s| {
            let _ = write!(out, "{{\"trajectories\":{},\"ratio\":", s.trajectories);
            write_f64(out, s.ratio);
            out.push('}');
        });
    }
    out.push_str("}}");
    out
}

fn write_cache(mut out: String, stats: &CacheStats) -> String {
    let _ = write!(
        out,
        ",\"cache\":{{\"hits\":{},\"misses\":{},\"evictions\":{},\
         \"entries\":{},\"bytes\":{},\"budget_bytes\":{},\"hit_rate\":",
        stats.hits, stats.misses, stats.evictions, stats.entries, stats.bytes, stats.budget_bytes
    );
    write_f64(&mut out, stats.hit_rate());
    out.push_str("}}");
    out
}

/// Serializes one trajectory in the exact shape [`parse_trajectory`]
/// accepts, so a `tail` reply can be fed straight back into `ingest` —
/// and, because [`write_f64`] prints the shortest round-tripping form,
/// a follower applying it reproduces the leader's floats bit-for-bit.
fn write_trajectory(out: &mut String, tu: &UncertainTrajectory) {
    let _ = write!(out, "{{\"id\":{},\"times\":", tu.id);
    write_array(out, &tu.times, |out, t| {
        let _ = write!(out, "{t}");
    });
    out.push_str(",\"instances\":");
    write_array(out, &tu.instances, |out, inst| {
        out.push_str("{\"prob\":");
        write_f64(out, inst.prob);
        out.push_str(",\"path\":");
        write_array(out, &inst.path, |out, e| {
            let _ = write!(out, "{}", e.0);
        });
        out.push_str(",\"positions\":");
        write_array(out, &inst.positions, |out, p| {
            let _ = write!(out, "[{},", p.path_idx);
            write_f64(out, p.rd);
            out.push(']');
        });
        out.push('}');
    });
    out.push('}');
}

fn write_tail(mut out: String, records: &[Record], current: u64) -> String {
    let _ = write!(out, ",\"epoch\":{current},\"batches\":");
    write_array(&mut out, records, |out, rec| {
        let _ = write!(out, "{{\"epoch\":{},\"name\":", rec.epoch);
        write_str(out, &rec.name);
        let interval = rec.default_interval;
        let _ = write!(out, ",\"interval\":{interval},\"trajectories\":");
        write_array(out, &rec.trajectories, write_trajectory);
        out.push('}');
    });
    out.push('}');
    out
}

/// Serializes an error response (`ok:false` + code + message).
fn respond_error(id: Option<&Json>, code: &str, message: &str) -> String {
    let mut out = begin(id, false);
    out.push_str(",\"error\":{\"code\":");
    write_str(&mut out, code);
    out.push_str(",\"message\":");
    write_str(&mut out, message);
    out.push_str("}}");
    out
}

/// Decodes a `tail` reply on the follower side: the accepted batches
/// (leader epoch + batch dataset, oldest first) and the leader's
/// current epoch. An `ok:false` reply becomes `Err("code: message")` so
/// the follower can distinguish `tail_gap` (must re-sync) from
/// transient failures.
pub fn parse_tail_reply(line: &str) -> Result<(Vec<(u64, Dataset)>, u64), String> {
    let v = Json::parse(line).map_err(|e| format!("malformed tail reply: {e}"))?;
    if !matches!(v.get("ok"), Some(Json::Bool(true))) {
        let code = v
            .get("error")
            .and_then(|e| e.get("code"))
            .and_then(Json::as_str)
            .unwrap_or("unknown");
        let message = v
            .get("error")
            .and_then(|e| e.get("message"))
            .and_then(Json::as_str)
            .unwrap_or("tail request failed");
        return Err(format!("{code}: {message}"));
    }
    let current = v
        .get("epoch")
        .and_then(Json::as_u64)
        .ok_or("tail reply is missing 'epoch'")?;
    let Some(Json::Arr(batches_v)) = v.get("batches") else {
        return Err("tail reply is missing 'batches'".to_string());
    };
    let mut batches = Vec::with_capacity(batches_v.len());
    for b in batches_v {
        let epoch = b
            .get("epoch")
            .and_then(Json::as_u64)
            .ok_or("tail batch is missing 'epoch'")?;
        let name = b
            .get("name")
            .and_then(Json::as_str)
            .ok_or("tail batch is missing 'name'")?
            .to_string();
        let default_interval = b
            .get("interval")
            .and_then(Json::as_i64)
            .ok_or("tail batch is missing 'interval'")?;
        let Some(Json::Arr(items)) = b.get("trajectories") else {
            return Err("tail batch is missing 'trajectories'".to_string());
        };
        let trajectories = items
            .iter()
            .enumerate()
            .map(|(at, t)| parse_trajectory(t, &None, at).map_err(|e| e.message))
            .collect::<Result<Vec<_>, _>>()?;
        batches.push((
            epoch,
            Dataset {
                name,
                default_interval,
                trajectories,
            },
        ));
    }
    Ok((batches, current))
}

/// One executed request: the response line (no trailing newline) and
/// whether the request asked the server to shut down.
#[derive(Debug)]
pub struct Reply {
    /// The serialized response object.
    pub line: String,
    /// `true` after a `shutdown` request was acknowledged.
    pub shutdown: bool,
}

/// [`execute`] with the write ops refused — the read-only executor of
/// `utcq serve` and `utcq client` without `--writable`.
///
/// ```
/// use std::sync::Arc;
/// use utcq_core::{CompressParams, Store, StiuParams};
/// # fn main() -> Result<(), utcq_core::Error> {
/// let (net, ds) = utcq_datagen::generate(&utcq_datagen::profile::tiny(), 3, 7);
/// let store = Store::build(
///     Arc::new(net),
///     &ds,
///     CompressParams::with_interval(ds.default_interval),
///     StiuParams::default(),
/// )?;
/// let reply = utcq_core::wire::handle_line(&store, r#"{"op":"ping","id":1}"#);
/// assert_eq!(reply.line, r#"{"id":1,"ok":true,"op":"ping"}"#);
/// assert!(!reply.shutdown);
/// # Ok(()) }
/// ```
pub fn handle_line(store: &Store, line: &str) -> Reply {
    execute(store, false, line)
}

/// The canonical reply to a request line that exceeds
/// [`MAX_REQUEST_BYTES`] — what [`execute`] produces before even
/// parsing, and what the event-loop server emits for a line whose
/// newline never arrived within the cap (so both surfaces reject
/// over-long input byte-identically).
pub(crate) fn oversized_reply() -> Reply {
    Reply {
        line: respond_error(None, "bad_request", "request line exceeds 1 MiB"),
        shutdown: false,
    }
}

/// Executes one request line against a store and serializes
/// the response — the single code path behind both the TCP server and
/// the CLI's offline `client` mode, which is what makes served and
/// offline answers byte-identical.
///
/// `writable` is the capability `utcq serve --writable` and `utcq
/// client --writable` grant: without it the ops that write (`ingest`
/// and `checkpoint`) answer `read_only`. Ingest batches are validated
/// against the container's road network, then serialized through the
/// store's writer lock; concurrent queries keep answering from their
/// pinned snapshots throughout.
pub fn execute(store: &Store, writable: bool, line: &str) -> Reply {
    if line.len() > MAX_REQUEST_BYTES {
        return oversized_reply();
    }
    let (line, shutdown) = match parse_line(line) {
        Ok((op, parsed)) => {
            let shutdown = matches!(parsed.request, Request::Shutdown);
            (run(store, writable, op, parsed), shutdown)
        }
        Err(e) => (respond_error(e.id.as_ref(), e.code, &e.message), false),
    };
    Reply { line, shutdown }
}

/// Runs one decoded request of `op` and serializes its answer.
fn run(store: &Store, writable: bool, op: &Op, parsed: ParsedRequest) -> String {
    let id = parsed.id.as_ref();
    let fail = |e: Error| respond_error(id, error_code(&e), &e.to_string());
    if op.writes && !writable {
        let why = "this surface is read-only; restart the server with --writable";
        return respond_error(id, "read_only", why);
    }
    let mut out = begin(id, true);
    out.push_str(",\"op\":\"");
    out.push_str(op.name);
    out.push('"');
    match parsed.request {
        Request::Where {
            traj,
            t,
            alpha,
            page,
        } => match store.where_query(traj, t, alpha, page) {
            Ok(p) => write_page(out, &p, write_where_hit),
            Err(e) => fail(e),
        },
        Request::When {
            traj,
            edge,
            rd,
            alpha,
            page,
        } => match store.when_query(traj, edge, rd, alpha, page) {
            Ok(p) => write_page(out, &p, write_when_hit),
            Err(e) => fail(e),
        },
        Request::Range {
            re,
            tq,
            alpha,
            page,
        } => match store.range_query(&re, tq, alpha, page) {
            Ok(p) => write_page(out, &p, |out, traj| {
                let _ = write!(out, "{traj}");
            }),
            Err(e) => fail(e),
        },
        Request::Ingest {
            trajectories,
            interval,
            name,
        } => {
            let batch = Dataset {
                name,
                default_interval: interval.unwrap_or_else(|| store.default_interval()),
                trajectories,
            };
            match run_ingest(store, &batch) {
                Ok(acked) => write_ingest(out, acked),
                Err(e) => fail(e),
            }
        }
        Request::Tail { from, max } => match store.wal_tail(from, max) {
            None => respond_error(
                id,
                "no_wal",
                "this container has no write-ahead log attached; start the leader with --wal",
            ),
            Some(TailRead::Gap { base }) => respond_error(
                id,
                "tail_gap",
                &format!(
                    "cannot resume after epoch {from}: the feed only reaches back to \
                     epoch {base}; re-sync from a fresh container copy"
                ),
            ),
            Some(TailRead::Records { records, current }) => write_tail(out, &records, current),
        },
        Request::Checkpoint => match store.checkpoint() {
            Ok(Some(report)) => {
                let (epoch, bytes) = (report.epoch, report.log_bytes);
                let _ = write!(out, ",\"epoch\":{epoch},\"log_bytes\":{bytes}}}");
                out
            }
            Ok(None) => respond_error(
                id,
                "no_wal",
                "this container has no write-ahead log with a checkpoint target; \
                 start the server with --wal",
            ),
            Err(e) => fail(e),
        },
        Request::Info => write_info(out, &store.info()),
        Request::CacheStats => write_cache(out, &store.cache_stats()),
        Request::Ping | Request::Shutdown => out + "}",
    }
}

/// Applies one `ingest` batch through the live-store publish, whose
/// batch check refuses a malformed trajectory before anything is
/// published (`bad_request`). `true` beside the report marks a retry
/// recognized instead of applied.
fn run_ingest(store: &Store, batch: &Dataset) -> Result<(IngestReport, bool), Error> {
    match store.ingest(batch) {
        Ok(report) => Ok((report, false)),
        // A duplicate batch may be a client retrying after a lost ack:
        // if the WAL feed holds a record with exactly these
        // trajectories, the batch already published — answer success
        // with its recorded epoch so the retry is idempotent instead of
        // fatal.
        Err(Error::DuplicateTrajectory(d)) => match store.wal_dedup(&batch.trajectories) {
            Some((epoch, ingested)) => {
                let total = store.len();
                Ok((
                    IngestReport {
                        ingested,
                        total,
                        epoch,
                    },
                    true,
                ))
            }
            None => Err(Error::DuplicateTrajectory(d)),
        },
        Err(e) => Err(e),
    }
}

/// The `ingest` success shape; a retry recognized in the WAL feed adds
/// `"deduped":true`.
fn write_ingest(mut out: String, (r, deduped): (IngestReport, bool)) -> String {
    let (ingested, total, epoch) = (r.ingested, r.total, r.epoch);
    let _ = write!(
        out,
        ",\"ingested\":{ingested},\"total\":{total},\"epoch\":{epoch}"
    );
    out.push_str(if deduped { ",\"deduped\":true}" } else { "}" });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::CompressParams;
    use crate::stiu::StiuParams;
    use std::sync::Arc;
    use utcq_traj::{paper_fixture, Dataset};

    fn paper_store() -> Store {
        let fx = paper_fixture::build();
        let ds = Dataset {
            name: "paper".into(),
            default_interval: paper_fixture::DEFAULT_INTERVAL,
            trajectories: vec![fx.tu.clone()],
        };
        Store::build(
            Arc::new(fx.example.net.clone()),
            &ds,
            CompressParams::with_interval(paper_fixture::DEFAULT_INTERVAL),
            StiuParams {
                partition_s: 900,
                grid_n: 4,
            },
        )
        .unwrap()
    }

    #[test]
    fn json_parses_and_reserializes() {
        let v =
            Json::parse(r#"{"a":[1,2.5,-3],"b":"x\ny","c":true,"d":null,"e":{"f":1e3}}"#).unwrap();
        assert_eq!(
            v.get("a").unwrap(),
            &Json::Arr(vec![Json::Num(1.0), Json::Num(2.5), Json::Num(-3.0)])
        );
        assert_eq!(v.get("b").and_then(Json::as_str), Some("x\ny"));
        assert_eq!(
            v.get("e").unwrap().get("f").and_then(Json::as_f64),
            Some(1000.0)
        );
        let mut out = String::new();
        v.write(&mut out);
        // Integral floats reserialize without a decimal point.
        assert_eq!(
            out,
            r#"{"a":[1,2.5,-3],"b":"x\ny","c":true,"d":null,"e":{"f":1000}}"#
        );
    }

    #[test]
    fn json_rejects_garbage() {
        assert!(Json::parse("").is_err());
        assert!(Json::parse("{").is_err());
        assert!(Json::parse(r#"{"a":}"#).is_err());
        assert!(Json::parse(r#"{"a":1} trailing"#).is_err());
        assert!(Json::parse(r#""unterminated"#).is_err());
        assert!(Json::parse("tru").is_err());
    }

    #[test]
    fn integer_accessors_reject_lossy_values() {
        assert_eq!(Json::Num(1.5).as_u64(), None);
        assert_eq!(Json::Num(-1.0).as_u64(), None);
        assert_eq!(Json::Num(1e300).as_u64(), None);
        // 2⁵³ − 1 is the last integer no other literal rounds to.
        let last = 9_007_199_254_740_991.0;
        assert_eq!(Json::Num(last).as_u64(), Some((1 << 53) - 1));
        assert_eq!(Json::Num(-last).as_i64(), Some(1 - (1 << 53)));
        for lossy in ["9007199254740992", "9007199254740993", "-9007199254740993"] {
            let v = Json::parse(lossy).unwrap();
            assert_eq!((v.as_u64(), v.as_i64()), (None, None), "{lossy}");
        }
        assert_eq!(Json::Num(-2.0).as_i64(), Some(-2));
        assert_eq!(Json::Str("7".into()).as_u64(), None);
    }

    #[test]
    fn requests_parse() {
        let p = parse_request(
            r#"{"id":"a","op":"where","traj":1,"t":-5,"alpha":0.25,"limit":2,"cursor":"9"}"#,
        )
        .unwrap();
        assert_eq!(p.id, Some(Json::Str("a".into())));
        assert_eq!(
            p.request,
            Request::Where {
                traj: 1,
                t: -5,
                alpha: 0.25,
                page: PageRequest::after(9, 2),
            }
        );
        let p = parse_request(r#"{"op":"when","traj":1,"edge":3,"rd":0.75}"#).unwrap();
        assert_eq!(
            p.request,
            Request::When {
                traj: 1,
                edge: EdgeId(3),
                rd: 0.75,
                alpha: 0.0,
                page: PageRequest::default(),
            }
        );
        let p =
            parse_request(r#"{"op":"range","min_x":0,"min_y":-1,"max_x":10,"max_y":1,"tq":100}"#)
                .unwrap();
        assert!(matches!(p.request, Request::Range { tq: 100, .. }));
        for (op, want) in [
            ("info", Request::Info),
            ("cache_stats", Request::CacheStats),
            ("ping", Request::Ping),
            ("shutdown", Request::Shutdown),
        ] {
            assert_eq!(
                parse_request(&format!(r#"{{"op":"{op}"}}"#))
                    .unwrap()
                    .request,
                want
            );
        }
    }

    #[test]
    fn request_errors_carry_codes_and_ids() {
        let e = parse_request("nonsense").unwrap_err();
        assert_eq!(e.code, "bad_request");
        let e = parse_request(r#"{"id":7,"op":"warp"}"#).unwrap_err();
        assert_eq!(e.code, "unknown_op");
        assert_eq!(e.id, Some(Json::Num(7.0)));
        let e = parse_request(r#"{"op":"where","t":1}"#).unwrap_err();
        assert!(e.message.contains("traj"), "{}", e.message);
        let e = parse_request(r#"{"op":"where","traj":1,"t":1,"cursor":"xyz"}"#).unwrap_err();
        assert_eq!(e.code, "invalid_cursor");
        // Numeric cursors are accepted when integral.
        let p = parse_request(r#"{"op":"where","traj":1,"t":1,"cursor":4}"#).unwrap();
        assert!(matches!(
            p.request,
            Request::Where {
                page: PageRequest {
                    cursor: Some(4),
                    ..
                },
                ..
            }
        ));
    }

    #[test]
    fn error_codes_are_stable() {
        assert_eq!(error_code(&Error::InvalidCursor), "invalid_cursor");
        assert_eq!(error_code(&Error::CorruptStore("x")), "corrupt_store");
        assert_eq!(error_code(&Error::SpanTooLong(1)), "span_too_long");
    }

    /// The fuzzer's contract, pinned as unit tests: adversarial request
    /// shapes fail closed with the stable codes of `PROTOCOL.md`, and
    /// never panic.
    #[test]
    fn adversarial_requests_fail_closed() {
        let store = paper_store();

        // Decimal cursor strings parse across the full u64 range, past
        // i64::MAX …
        for c in ["9223372036854775808", "18446744073709551615"] {
            let p = parse_request(&format!(
                r#"{{"op":"where","traj":1,"t":1,"cursor":"{c}"}}"#
            ))
            .unwrap();
            assert!(
                matches!(
                    p.request,
                    Request::Where {
                        page: PageRequest {
                            cursor: Some(_),
                            ..
                        },
                        ..
                    }
                ),
                "cursor {c} must parse"
            );
        }
        // … but past u64::MAX, negative, or non-decimal is refused with
        // the cursor-specific code.
        for c in ["18446744073709551616", "-1", "0x10", "", "1.5"] {
            let e = parse_request(&format!(
                r#"{{"op":"where","traj":1,"t":1,"cursor":"{c}"}}"#
            ))
            .unwrap_err();
            assert_eq!(e.code, "invalid_cursor", "cursor {c:?}");
        }
        // A parseable cursor whose partition tag (its high 16 bits) names
        // no partition of the store is refused, never walked: no panic.
        let reply = handle_line(
            &store,
            r#"{"op":"where","traj":1,"t":600,"alpha":0.25,"cursor":"9223372036854775808"}"#,
        );
        assert!(
            reply.line.contains(r#""code":"invalid_cursor""#),
            "{}",
            reply.line
        );

        // Duplicate keys: the first binding wins, deterministically.
        let p = parse_request(r#"{"op":"info","op":"warp"}"#).unwrap();
        assert!(matches!(p.request, Request::Info));
        // Unknown keys (arbitrarily nested) are ignored.
        let reply = handle_line(
            &store,
            r#"{"op":"info","future_field":{"deep":[1,[2],{"a":null}]},"x":null}"#,
        );
        assert!(reply.line.contains(r#""ok":true"#), "{}", reply.line);

        // Nesting past the parser's depth cap is an error, not a stack
        // overflow; through the executor it is a bad_request.
        let deep = format!("{}1{}", "[".repeat(4096), "]".repeat(4096));
        let e = Json::parse(&deep).unwrap_err();
        assert!(e.contains("nesting"), "{e}");
        let reply = handle_line(&store, &deep);
        assert!(
            reply.line.contains(r#""code":"bad_request""#),
            "{}",
            reply.line
        );

        // Out-of-range numeric literals degrade to errors, not panics.
        let e = parse_request(r#"{"op":"where","traj":1,"t":1e999}"#).unwrap_err();
        assert_eq!(e.code, "bad_request");
        let e = parse_request(r#"{"op":"where","traj":-3,"t":1}"#).unwrap_err();
        assert_eq!(e.code, "bad_request");
    }

    #[test]
    fn handle_line_answers_the_paper_queries() {
        let store = paper_store();
        let t = paper_fixture::hms(5, 21, 25);
        let reply = handle_line(
            &store,
            &format!(r#"{{"id":1,"op":"where","traj":1,"t":{t},"alpha":0.25}}"#),
        );
        assert!(!reply.shutdown);
        assert!(reply
            .line
            .starts_with(r#"{"id":1,"ok":true,"op":"where","items":[{"instance":0,"#));
        assert!(reply
            .line
            .ends_with(r#""next_cursor":null,"has_more":false}"#));

        // Pagination mints a cursor string; resuming with it walks on.
        let t0 = paper_fixture::hms(5, 5, 0);
        let first = handle_line(
            &store,
            &format!(r#"{{"op":"where","traj":1,"t":{t0},"alpha":0,"limit":2}}"#),
        );
        assert!(
            first.line.contains(r#""next_cursor":"2""#),
            "{}",
            first.line
        );
        assert!(first.line.contains(r#""has_more":true"#));
        let rest = handle_line(
            &store,
            &format!(r#"{{"op":"where","traj":1,"t":{t0},"alpha":0,"limit":2,"cursor":"2"}}"#),
        );
        assert!(rest.line.contains(r#""has_more":false"#), "{}", rest.line);

        let info = handle_line(&store, r#"{"op":"info"}"#);
        assert!(info.line.contains(r#""shape":"single""#), "{}", info.line);
        assert!(info.line.contains(r#""name":"paper""#));
        let cache = handle_line(&store, r#"{"op":"cache_stats"}"#);
        assert!(cache.line.contains(r#""cache":{"hits":"#), "{}", cache.line);

        let shutdown = handle_line(&store, r#"{"op":"shutdown"}"#);
        assert!(shutdown.shutdown);
        assert_eq!(shutdown.line, r#"{"ok":true,"op":"shutdown"}"#);

        let err = handle_line(&store, "not json at all");
        assert!(err.line.contains(r#""ok":false"#));
        assert!(err.line.contains(r#""code":"bad_request""#));
    }

    /// Adversarial `alpha` values on the range wire path: boundary
    /// values keep plain comparison semantics (no clamping, no
    /// rejection), and every non-numeric shape is a `bad_request` with
    /// the stable message — exactly what PROTOCOL.md pins.
    #[test]
    fn adversarial_alpha_values_pin_wire_behavior() {
        let store = paper_store();
        let fx = paper_fixture::build();
        let b = fx.example.net.bounding_rect();
        let tq = paper_fixture::hms(5, 21, 25);
        let req = |alpha: &str| {
            format!(
                r#"{{"op":"range","min_x":{},"min_y":{},"max_x":{},"max_y":{},"tq":{tq}{alpha}}}"#,
                b.min_x, b.min_y, b.max_x, b.max_y
            )
        };

        // α = 0 matches the fixture trajectory; an absent α is the
        // same request, byte for byte.
        let zero = handle_line(&store, &req(r#","alpha":0"#));
        assert!(zero.line.contains(r#""items":[1]"#), "{}", zero.line);
        let absent = handle_line(&store, &req(""));
        assert_eq!(zero.line, absent.line, "absent alpha defaults to 0");

        // α = 1 still answers ok; its items are a subset of α = 0's
        // (here: the certain fixture trajectory still qualifies).
        let one = handle_line(&store, &req(r#","alpha":1"#));
        assert!(one.line.contains(r#""ok":true"#), "{}", one.line);

        // Out-of-range numerics keep comparison semantics: α < 0
        // filters nothing extra, α > 1 can never be reached.
        let neg = handle_line(&store, &req(r#","alpha":-1"#));
        assert_eq!(zero.line, neg.line, "negative alpha behaves like 0");
        let two = handle_line(&store, &req(r#","alpha":2"#));
        assert!(two.line.contains(r#""items":[]"#), "{}", two.line);
        // An overflowing literal (infinity) is the extreme of α > 1…
        let inf = handle_line(&store, &req(r#","alpha":1e999"#));
        assert!(inf.line.contains(r#""items":[]"#), "{}", inf.line);
        // …and negative infinity the extreme of α < 0.
        let ninf = handle_line(&store, &req(r#","alpha":-1e999"#));
        assert_eq!(zero.line, ninf.line, "-inf alpha behaves like 0");

        // Every non-numeric alpha shape: stable bad_request + message.
        for bad in [
            r#","alpha":"0.5""#,
            r#","alpha":true"#,
            r#","alpha":null"#,
            r#","alpha":[0.5]"#,
            r#","alpha":{"v":0.5}"#,
            r#","alpha":"NaN""#,
        ] {
            let reply = handle_line(&store, &req(bad));
            assert!(
                reply.line.contains(r#""code":"bad_request""#),
                "{bad}: {}",
                reply.line
            );
            assert!(
                reply.line.contains("field 'alpha' must be a number"),
                "{bad}: {}",
                reply.line
            );
        }
        // The same contract holds on where/when.
        for op in [
            r#"{"op":"where","traj":1,"t":0,"alpha":"x"}"#,
            r#"{"op":"when","traj":1,"edge":0,"rd":0.5,"alpha":[]}"#,
        ] {
            let e = parse_request(op).unwrap_err();
            assert_eq!(e.code, "bad_request");
            assert!(e.message.contains("'alpha'"), "{}", e.message);
        }
    }

    #[test]
    fn ingest_parses_validates_and_gates_on_writability() {
        let store = paper_store();
        // Parse errors surface as bad_request with a field path.
        let e = parse_request(r#"{"op":"ingest"}"#).unwrap_err();
        assert_eq!(e.code, "bad_request");
        let e = parse_request(r#"{"op":"ingest","trajectories":[{"id":9}]}"#).unwrap_err();
        assert!(e.message.contains("trajectories[0]"), "{}", e.message);

        // A structurally valid line against a read-only executor.
        let line = r#"{"id":1,"op":"ingest","trajectories":[]}"#;
        let reply = handle_line(&store, line);
        assert!(
            reply.line.contains(r#""code":"read_only""#),
            "{}",
            reply.line
        );

        // The writable executor accepts it (an empty batch publishes
        // nothing and reports the current epoch).
        let reply = execute(&store, true, line);
        assert_eq!(
            reply.line,
            r#"{"id":1,"ok":true,"op":"ingest","ingested":0,"total":1,"epoch":0}"#
        );

        // Network-invalid trajectories are rejected before any publish.
        let bad = r#"{"op":"ingest","trajectories":[{"id":9,"times":[1,2],"instances":[{"prob":1.0,"path":[999999],"positions":[[0,0.5],[0,0.6]]}]}]}"#;
        let reply = execute(&store, true, bad);
        assert!(
            reply.line.contains(r#""code":"bad_request""#),
            "{}",
            reply.line
        );
        assert_eq!(store.len(), 1, "invalid batches publish nothing");
    }

    #[test]
    fn ingest_applies_through_the_writable_executor() {
        let store = paper_store();
        // Re-ingest the paper trajectory under a fresh id, shifted out
        // of the original span.
        let fx = paper_fixture::build();
        let mut tu = fx.tu.clone();
        tu.id = 9;
        for t in &mut tu.times {
            *t += 100_000;
        }
        use std::fmt::Write as _;
        let mut traj = String::new();
        let _ = write!(traj, r#"{{"id":9,"times":["#);
        for (i, t) in tu.times.iter().enumerate() {
            if i > 0 {
                traj.push(',');
            }
            let _ = write!(traj, "{t}");
        }
        traj.push_str("],\"instances\":[");
        for (w, inst) in tu.instances.iter().enumerate() {
            if w > 0 {
                traj.push(',');
            }
            let _ = write!(traj, r#"{{"prob":{},"path":["#, inst.prob);
            for (i, e) in inst.path.iter().enumerate() {
                if i > 0 {
                    traj.push(',');
                }
                let _ = write!(traj, "{}", e.0);
            }
            traj.push_str("],\"positions\":[");
            for (i, p) in inst.positions.iter().enumerate() {
                if i > 0 {
                    traj.push(',');
                }
                let _ = write!(traj, "[{},{}]", p.path_idx, p.rd);
            }
            traj.push_str("]}");
        }
        traj.push_str("]}");
        let line = format!(r#"{{"id":2,"op":"ingest","trajectories":[{traj}]}}"#);
        let reply = execute(&store, true, &line);
        assert_eq!(
            reply.line,
            r#"{"id":2,"ok":true,"op":"ingest","ingested":1,"total":2,"epoch":1}"#
        );
        // The new trajectory answers queries; duplicates map to the
        // store's error code.
        let t = tu.times[0];
        let q = execute(
            &store,
            true,
            &format!(r#"{{"op":"where","traj":9,"t":{t},"alpha":0}}"#),
        );
        assert!(q.line.contains(r#""items":[{"#), "{}", q.line);
        let dup = execute(&store, true, &line);
        assert!(
            dup.line.contains(r#""code":"duplicate_trajectory""#),
            "{}",
            dup.line
        );
    }

    #[test]
    fn oversized_lines_are_rejected_before_parsing() {
        let store = paper_store();
        let big = format!(
            r#"{{"op":"ping","pad":"{}"}}"#,
            "x".repeat(MAX_REQUEST_BYTES)
        );
        let reply = handle_line(&store, &big);
        assert!(
            reply.line.contains(r#""code":"bad_request""#),
            "{}",
            reply.line
        );
        assert!(reply.line.contains("1 MiB"));
        assert!(!reply.shutdown);
        // A long-but-legal string still parses (and in linear time — the
        // string scanner consumes plain-byte runs as slices).
        let ok = format!(r#"{{"op":"ping","pad":"{}"}}"#, "y".repeat(100_000));
        assert!(handle_line(&store, &ok).line.contains(r#""ok":true"#));
    }

    fn durable_paper_store(name: &str) -> Store {
        let dir = std::env::temp_dir().join(format!("utcq-wire-{}-{name}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mk tmp dir");
        let path = dir.join("log.wal");
        let _ = std::fs::remove_file(&path);
        let store = paper_store();
        store
            .attach_wal(crate::wal::WalConfig::new(path))
            .expect("attach wal");
        store
    }

    /// A fresh-id ingest line derived from the paper trajectory.
    fn shifted_ingest_line(req_id: u64) -> String {
        let fx = paper_fixture::build();
        let mut tu = fx.tu.clone();
        tu.id = 9;
        for t in &mut tu.times {
            *t += 100_000;
        }
        let mut traj = String::new();
        write_trajectory(&mut traj, &tu);
        format!(r#"{{"id":{req_id},"op":"ingest","trajectories":[{traj}]}}"#)
    }

    #[test]
    fn tail_and_checkpoint_require_a_wal() {
        let store = paper_store();
        let reply = handle_line(&store, r#"{"op":"tail","from":1}"#);
        assert!(reply.line.contains(r#""code":"no_wal""#), "{}", reply.line);
        let reply = execute(&store, true, r#"{"op":"checkpoint"}"#);
        assert!(reply.line.contains(r#""code":"no_wal""#), "{}", reply.line);
        // checkpoint is writable-gated before the wal check.
        let reply = handle_line(&store, r#"{"op":"checkpoint"}"#);
        assert!(
            reply.line.contains(r#""code":"read_only""#),
            "{}",
            reply.line
        );
        // tail requires 'from'.
        let e = parse_request(r#"{"op":"tail"}"#).unwrap_err();
        assert_eq!(e.code, "bad_request");
    }

    #[test]
    fn tail_streams_accepted_batches_and_parses_back() {
        let store = durable_paper_store("tail");
        let reply = execute(&store, true, &shifted_ingest_line(1));
        assert!(reply.line.contains(r#""epoch":1"#), "{}", reply.line);

        // tail is answered by the read-only executor (followers don't
        // need --writable). `from` is the epoch the caller already
        // has — a fresh follower sends 0.
        let reply = handle_line(&store, r#"{"op":"tail","from":0}"#);
        let (batches, current) = parse_tail_reply(&reply.line).expect("parse tail");
        assert_eq!(current, 1);
        assert_eq!(batches.len(), 1);
        let (epoch, ds) = &batches[0];
        assert_eq!(*epoch, 1);
        assert_eq!(ds.trajectories.len(), 1);
        assert_eq!(ds.trajectories[0].id, 9);

        // The replayed batch matches the model trajectory bit-for-bit.
        let fx = paper_fixture::build();
        let mut want = fx.tu.clone();
        want.id = 9;
        for t in &mut want.times {
            *t += 100_000;
        }
        assert_eq!(ds.trajectories[0], want);

        // Caught up: from at the head returns an empty page.
        let reply = handle_line(&store, r#"{"op":"tail","from":1}"#);
        let (batches, current) = parse_tail_reply(&reply.line).expect("parse tail");
        assert!(batches.is_empty());
        assert_eq!(current, 1);
    }

    #[test]
    fn checkpoint_reports_and_duplicate_retries_dedup() {
        let store = durable_paper_store("ckpt");
        let line = shifted_ingest_line(1);
        let first = execute(&store, true, &line);
        assert!(first.line.contains(r#""ok":true"#), "{}", first.line);

        // Retrying the identical batch (a client that lost the ack)
        // answers success with the recorded epoch, flagged as deduped.
        let retry = execute(&store, true, &line);
        assert_eq!(
            retry.line,
            r#"{"id":1,"ok":true,"op":"ingest","ingested":1,"total":2,"epoch":1,"deduped":true}"#
        );

        // A genuine duplicate (different batch shape, same id) still
        // fails with duplicate_trajectory.
        let fx = paper_fixture::build();
        let mut tu = fx.tu.clone();
        tu.id = 9;
        for t in &mut tu.times {
            *t += 200_000;
        }
        let mut traj = String::new();
        write_trajectory(&mut traj, &tu);
        let other = format!(r#"{{"op":"ingest","trajectories":[{traj}]}}"#);
        let reply = execute(&store, true, &other);
        assert!(
            reply.line.contains(r#""code":"duplicate_trajectory""#),
            "{}",
            reply.line
        );

        // The attach used WalConfig::new (no checkpoint_to), so the
        // checkpoint op reports no_wal; a target-configured checkpoint
        // is exercised end-to-end in tests/durability.rs.
        let reply = execute(&store, true, r#"{"op":"checkpoint"}"#);
        assert!(reply.line.contains(r#""code":"no_wal""#), "{}", reply.line);
    }

    #[test]
    fn deterministic_serialization() {
        let store = paper_store();
        let t = paper_fixture::hms(5, 21, 25);
        let req = format!(r#"{{"op":"where","traj":1,"t":{t},"alpha":0.25}}"#);
        let a = handle_line(&store, &req).line;
        store.clear_cache();
        let b = handle_line(&store, &req).line;
        assert_eq!(a, b, "cached and cold answers must serialize identically");
    }
}
