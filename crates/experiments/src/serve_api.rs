//! Wire protocol for the `schedtaskd` serve layer: canonical job
//! hashing, a hand-rolled JSON codec (the offline build has no serde),
//! request parsing, and a small line-oriented client used by
//! `repro submit`, the CI smoke job, and the serve-crate tests.
//!
//! One request or response is one JSON object per line, carrying a
//! `"v"` protocol-version field. Requests name a benchmark, a
//! technique, and parameter overrides; responses carry the canonical
//! [`SimStats`] JSON produced by `SimStats::to_canonical_json`, so a
//! cache hit is byte-identical to the fresh run that populated it.
//!
//! [`JobSpec`] is the single source of truth for job identity: the
//! canonical text the cache key hashes, the wire encoding
//! ([`JobSpec::to_request_line`]), and the parse
//! ([`parse_request`]) all derive from it, so the cache key and the
//! wire format cannot drift apart.
//!
//! [`SimStats`]: schedtask_kernel::SimStats

use std::fmt::{self, Write as _};
use std::io::{self, BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::str::FromStr;
use std::sync::Arc;
use std::time::Duration;

use schedtask::{SchedTaskConfig, SchedTaskScheduler, StealPolicy};
use schedtask_kernel::{
    FaultPlan, SimStats, BASE_CPI, CLOCK_HZ, GSHARE_ENTRIES, MISPREDICT_PENALTY,
};
use schedtask_obs::{push_escaped, JsonlSink, Observer};
use schedtask_sim::memory::{
    DATA_OVERLAP_HIDDEN, DTLB_ENTRIES, ITLB_ENTRIES, MEMORY_LATENCY, NUCA_BANK_LATENCY,
    NUCA_HOP_CYCLES, PREFETCH_DEGREE, PREFETCH_TABLE_ENTRIES, TLB_MISS_PENALTY,
    TRACE_CACHE_ENTRIES, TRACE_LINES,
};
use schedtask_sim::{CacheParams, HierarchyConfig, SystemConfig, LINE_BYTES};
use schedtask_workload::BenchmarkKind;

use crate::runner::{ExpParams, ExperimentError, RunBuilder, Technique};

pub use schedtask_obs::escape_json;

/// The wire protocol version this build speaks. Every request and
/// response carries it as `"v"`; a request naming any other version is
/// answered with a structured `unsupported_version` error rather than a
/// parse failure, and the router refuses to join workers whose `ping`
/// reports a different version.
pub const PROTOCOL_VERSION: u32 = 1;

// ---------------------------------------------------------------------------
// Canonical job identity.

/// One fully-resolved simulation job as admitted by the server: the
/// complete set of inputs that determine a run's output.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Scheduling technique to simulate.
    pub technique: Technique,
    /// Benchmark to run.
    pub benchmark: BenchmarkKind,
    /// Workload scale factor.
    pub scale: f64,
    /// Optional steal-policy override (SchedTask only).
    pub steal: Option<StealPolicy>,
    /// Engine parameters (cores, budgets, seed, machine config, faults,
    /// sanitizer).
    pub params: ExpParams,
}

impl JobSpec {
    /// A spec for `benchmark` under `technique` with every other knob
    /// at its wire default: scale 2.0, no steal override, quick
    /// parameters.
    pub fn new(technique: Technique, benchmark: BenchmarkKind) -> JobSpec {
        JobSpec {
            technique,
            benchmark,
            scale: 2.0,
            steal: None,
            params: ExpParams::quick(),
        }
    }

    /// The canonical text the cache key is derived from: every input
    /// that influences the simulation output, as `name=value` pairs
    /// separated by `;` in a fixed order. Technique and benchmark appear
    /// by display name, other enums by variant name, floats as their
    /// exact bits, an absent option as `-`, the fault plan in its wire
    /// spec form, and each cache level as
    /// `size/associativity/line/latency`. Two specs share a text exactly
    /// when their fields are equal, so a deterministic engine produces
    /// identical stats for both.
    ///
    /// The machine's fixed values (clock, line size, TLBs, memory
    /// latency, base CPI, data-miss overlap, and the sizes of the
    /// optional parts) are constants, written by name where each was
    /// once a field, so a change to one changes every key. Every struct
    /// is destructured without `..`, so a field added to any of them
    /// fails to compile here until it is part of the key. Any change to
    /// this text changes every key once;
    /// `canonical_text_and_keys_are_pinned` pins it.
    pub fn canonical_text(&self) -> String {
        let mut text = String::with_capacity(640);
        self.write_canonical(&mut text)
            .expect("writing to a String cannot fail");
        text
    }

    fn write_canonical(&self, out: &mut String) -> fmt::Result {
        let JobSpec {
            technique,
            benchmark,
            scale,
            steal,
            params,
        } = self;
        let ExpParams {
            cores,
            max_instructions,
            warmup_instructions,
            seed,
            system,
            epoch_cycles,
            faults,
            sanitize,
        } = params;
        let SystemConfig {
            num_cores,
            hierarchy,
            l1_replacement,
            call_graph_prefetcher,
            trace_cache,
            branch_predictor,
            nuca,
        } = system;
        let HierarchyConfig { l1i, l1d, l2, llc } = hierarchy;
        write!(
            out,
            "technique={};benchmark={};scale={:016x};steal=",
            technique.name(),
            benchmark.name(),
            scale.to_bits()
        )?;
        match steal {
            Some(policy) => write!(out, "{policy:?}")?,
            None => out.push('-'),
        }
        write!(
            out,
            ";cores={cores};max_instructions={max_instructions};\
             warmup_instructions={warmup_instructions};seed={seed};\
             epoch_cycles={epoch_cycles};faults="
        )?;
        match faults {
            Some(plan) => render_fault_spec(out, plan)?,
            None => out.push('-'),
        }
        // `devices=` is always empty: it once listed interrupt-injecting
        // device models, and the disk tier persists keys, so dropping
        // the field would turn every stored record cold.
        write!(
            out,
            ";sanitize={sanitize};devices=;num_cores={num_cores};clock_hz={CLOCK_HZ};l1i="
        )?;
        write_cache_params(out, l1i)?;
        out.push_str(";l1d=");
        write_cache_params(out, l1d)?;
        out.push_str(";l2=");
        match l2 {
            Some(l2) => write_cache_params(out, l2)?,
            None => out.push('-'),
        }
        out.push_str(";llc=");
        write_cache_params(out, llc)?;
        write!(
            out,
            ";memory_latency={MEMORY_LATENCY};itlb_entries={ITLB_ENTRIES};\
             dtlb_entries={DTLB_ENTRIES};tlb_miss_penalty={TLB_MISS_PENALTY};\
             base_cpi={:016x};data_overlap_hidden={:016x};prefetcher=",
            BASE_CPI.to_bits(),
            DATA_OVERLAP_HIDDEN.to_bits()
        )?;
        write_part(
            out,
            *call_graph_prefetcher,
            format_args!("call_graph/{PREFETCH_DEGREE}/{PREFETCH_TABLE_ENTRIES}"),
        )?;
        out.push_str(";trace_cache=");
        write_part(
            out,
            *trace_cache,
            format_args!("{TRACE_CACHE_ENTRIES}/{TRACE_LINES}"),
        )?;
        write!(out, ";l1_replacement={l1_replacement:?};branch_predictor=")?;
        write_part(
            out,
            *branch_predictor,
            format_args!("{GSHARE_ENTRIES}/{MISPREDICT_PENALTY}"),
        )?;
        out.push_str(";nuca=");
        write_part(
            out,
            *nuca,
            format_args!("{NUCA_BANK_LATENCY}/{NUCA_HOP_CYCLES}"),
        )
    }

    /// Content-addressed cache key: FNV-1a 64 of [`JobSpec::canonical_text`].
    pub fn cache_key(&self) -> u64 {
        fnv1a64(self.canonical_text().as_bytes())
    }

    /// The cache key as the fixed-width hex string used on the wire.
    pub fn cache_key_hex(&self) -> String {
        format!("{:016x}", self.cache_key())
    }

    /// Runs the job under the technique's scheduler, or SchedTask's
    /// with the steal override, and returns its stats with the JSONL
    /// stream of a sink labelled `technique/benchmark`. The stream is
    /// always captured: the service caches it with the stats, so a
    /// replay is byte-identical whether or not the first submitter
    /// asked for it.
    pub fn run(&self) -> Result<(SimStats, String), ExperimentError> {
        let label = format!("{}/{}", self.technique.name(), self.benchmark.name());
        let sink = Arc::new(JsonlSink::with_label(Vec::new(), Some(label)));
        let builder =
            RunBuilder::new(&self.params).observer(Arc::clone(&sink) as Arc<dyn Observer>);
        let builder = match self.steal {
            Some(steal_policy) => builder.scheduler(Box::new(SchedTaskScheduler::new(
                self.params.cores,
                SchedTaskConfig {
                    steal_policy,
                    ..SchedTaskConfig::default()
                },
            ))),
            None => builder.technique(self.technique),
        };
        let stats = builder.benchmark(self.benchmark, self.scale).run()?;
        Ok((stats, sink.take()))
    }

    /// Renders the single-line JSON run request for this spec, the
    /// exact inverse of [`parse_request`]: parsing the returned line
    /// yields a spec with an identical [`JobSpec::canonical_text`]
    /// (and therefore an identical cache key).
    ///
    /// Wire specs always use the Table 2 machine template (both
    /// [`ExpParams::quick`] and [`ExpParams::standard`] do), so the
    /// encoding is `quick:true` plus explicit overrides for every
    /// numeric knob — which base the spec was built from is
    /// irrelevant once the resolved values ride the wire.
    pub fn to_request_line(&self, id: Option<&str>, want_obs: bool) -> String {
        let mut line = format!("{{\"v\":{PROTOCOL_VERSION}");
        if let Some(id) = id {
            line.push_str(&format!(",\"id\":\"{}\"", escape_json(id)));
        }
        line.push_str(&format!(
            ",\"op\":\"run\",\"workload\":\"{}\",\"technique\":\"{}\"",
            escape_json(self.benchmark.name()),
            escape_json(self.technique.name())
        ));
        if let Some(steal) = self.steal {
            // The Debug name is one of the spellings StealPolicy::parse
            // accepts, so the override round-trips.
            line.push_str(&format!(",\"steal\":\"{steal:?}\""));
        }
        // {:?} prints the shortest digit string that reparses to the
        // same f64 bits; scale is validated finite and positive, so it
        // is always a legal JSON number.
        line.push_str(&format!(",\"scale\":{:?}", self.scale));
        line.push_str(&format!(
            ",\"quick\":true,\"cores\":{},\"max_instructions\":{},\
             \"warmup_instructions\":{},\"epoch_cycles\":{},\"seed\":{}",
            self.params.cores,
            self.params.max_instructions,
            self.params.warmup_instructions,
            self.params.epoch_cycles,
            self.params.seed
        ));
        if let Some(plan) = &self.params.faults {
            // A fault spec is numbers and ASCII names, so it needs no
            // escaping inside the JSON string.
            line.push_str(",\"faults\":\"");
            render_fault_spec(&mut line, plan).expect("writing to a String cannot fail");
            line.push('"');
        }
        if self.params.sanitize {
            line.push_str(",\"sanitize\":true");
        }
        if want_obs {
            line.push_str(",\"obs\":true");
        }
        line.push('}');
        line
    }
}

/// Splits a request line that opens the way [`JobSpec::to_request_line`]
/// renders an id, `{"v":1,"id":"ID"` followed by the rest of the line,
/// into `(ID, rest)` without allocating. `ID` must contain no byte that
/// [`escape_json`] escapes (`"`, `\`, or a byte below 0x20), so it is
/// its own wire spelling; any other line, including one with a missing,
/// numeric or escaped id, gives `None`.
///
/// For a spec and an id with no such byte, the rest of
/// `spec.to_request_line(Some(id), obs)` is `spec.to_request_line(None,
/// obs)` without its leading `{"v":1`, whatever the id.
pub fn split_request_line(line: &str) -> Option<(&str, &str)> {
    let after_v = line.strip_prefix("{\"v\":")?;
    let digits = after_v.bytes().take_while(u8::is_ascii_digit).count();
    let (version, after_version) = after_v.split_at(digits);
    if version.starts_with('0') || version.parse::<u32>() != Ok(PROTOCOL_VERSION) {
        return None;
    }
    let id_and_rest = after_version.strip_prefix(",\"id\":\"")?;
    let end = id_and_rest
        .bytes()
        .position(|b| b == b'"' || b == b'\\' || b < 0x20)?;
    (id_and_rest.as_bytes()[end] == b'"').then(|| (&id_and_rest[..end], &id_and_rest[end + 1..]))
}

/// Writes a fault plan as the explicit `key=value` spec
/// [`FaultPlan::parse`] reads back field-for-field: every rate and
/// budget is spelled out (floats via `{:?}`, the shortest round-trip
/// form), including the seed, so the default-seed argument at the
/// parsing side never matters.
fn render_fault_spec(out: &mut String, plan: &FaultPlan) -> fmt::Result {
    let FaultPlan {
        seed,
        heatmap_bitflip_rate,
        drop_irq_rate,
        irq_retry_cycles,
        spurious_irq_rate,
        delay_completion_rate,
        delay_completion_instructions,
        stall_core_rate,
        stall_cycles,
    } = plan;
    write!(
        out,
        "seed={seed},heatmap_bitflip_rate={heatmap_bitflip_rate:?},\
         drop_irq_rate={drop_irq_rate:?},irq_retry_cycles={irq_retry_cycles},\
         spurious_irq_rate={spurious_irq_rate:?},\
         delay_completion_rate={delay_completion_rate:?},\
         delay_completion_instructions={delay_completion_instructions},\
         stall_core_rate={stall_core_rate:?},stall_cycles={stall_cycles}"
    )
}

/// Writes one cache level's geometry as `size/associativity/line/latency`.
fn write_cache_params(out: &mut String, params: &CacheParams) -> fmt::Result {
    let CacheParams {
        size_bytes,
        associativity,
        latency_cycles,
    } = params;
    write!(
        out,
        "{size_bytes}/{associativity}/{LINE_BYTES}/{latency_cycles}"
    )
}

/// Writes an optional machine part: its fixed sizes when it is on, `-`
/// when it is off.
fn write_part(out: &mut String, on: bool, sizes: fmt::Arguments) -> fmt::Result {
    if on {
        out.write_fmt(sizes)
    } else {
        out.write_char('-')
    }
}

/// FNV-1a 64-bit hash: the job cache key ([`JobSpec::cache_key`]), the
/// router's ring points, and the `SimStats`/JSONL digests that
/// `perfbench/digests.txt` and `tests/determinism_golden.rs` record.
/// Its output is a stored format — the disk cache tier persists keys
/// across restarts — so changing the hash turns every disk cache cold
/// and breaks the recorded digests.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

// ---------------------------------------------------------------------------
// Minimal JSON value + parser.

/// A parsed JSON value. Numbers keep their raw source text so `u64`
/// values round-trip without a lossy `f64` detour.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, as its raw source text.
    Num(String),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, preserving field order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses one complete JSON value from `s`, rejecting trailing
    /// garbage.
    pub fn parse(s: &str) -> Result<Json, String> {
        let bytes = s.as_bytes();
        let mut pos = 0;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing data at byte {pos}"));
        }
        Ok(value)
    }

    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
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

    /// The value as a `u64`, if this is a non-negative integer number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The value as an `f64`, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".to_owned()),
        Some(b'{') => parse_object(bytes, pos),
        Some(b'[') => parse_array(bytes, pos),
        Some(b'"') => parse_string(bytes, pos).map(Json::Str),
        Some(b't') => parse_literal(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, "null", Json::Null),
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_literal(
    bytes: &[u8],
    pos: &mut usize,
    literal: &str,
    value: Json,
) -> Result<Json, String> {
    if bytes[*pos..].starts_with(literal.as_bytes()) {
        *pos += literal.len();
        Ok(value)
    } else {
        Err(format!("expected {literal:?} at byte {pos}", pos = *pos))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *pos += 1;
    }
    if *pos == start {
        return Err(format!("expected a value at byte {start}"));
    }
    let raw = std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?;
    // Validate once so `Num` always holds a parseable number.
    raw.parse::<f64>()
        .map_err(|e| format!("bad number {raw:?}: {e}"))?;
    Ok(Json::Num(raw.to_owned()))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    debug_assert_eq!(bytes[*pos], b'"');
    *pos += 1;
    let mut out = String::new();
    loop {
        // Copy the run up to the next quote or backslash in one step.
        // Both are ASCII, so the run ends on a char boundary and each
        // byte is validated once.
        let start = *pos;
        *pos += bytes[start..]
            .iter()
            .position(|&b| matches!(b, b'"' | b'\\'))
            .unwrap_or(bytes.len() - start);
        out.push_str(std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?);
        match bytes.get(*pos) {
            None => return Err("unterminated string".to_owned()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(_) => {
                // The run stopped on a backslash.
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let code = hex4(bytes, *pos + 1)?;
                        *pos += 4;
                        out.push(unicode_escape(bytes, pos, code).unwrap_or('\u{fffd}'));
                    }
                    other => return Err(format!("bad escape {other:?}")),
                }
                *pos += 1;
            }
        }
    }
}

/// The value of the four hex digits at `bytes[at..at + 4]`; a sign or
/// any other non-digit is refused.
fn hex4(bytes: &[u8], at: usize) -> Result<u32, String> {
    let digits = bytes.get(at..at + 4).ok_or("truncated \\u escape")?;
    digits.iter().try_fold(0, |code, &b| {
        let digit = char::from(b)
            .to_digit(16)
            .ok_or_else(|| format!("bad \\u escape digit {:?}", char::from(b)))?;
        Ok(code << 4 | digit)
    })
}

/// The scalar a `\u` escape with value `code` stands for, with `*pos`
/// on its last hex digit. A high surrogate followed by a `\u` low
/// surrogate combines with it into one scalar, and `*pos` moves to the
/// pair's last digit; a lone surrogate is `None`.
fn unicode_escape(bytes: &[u8], pos: &mut usize, code: u32) -> Option<char> {
    if !(0xD800..0xDC00).contains(&code) || bytes.get(*pos + 1..*pos + 3) != Some(&b"\\u"[..]) {
        return char::from_u32(code);
    }
    let low = hex4(bytes, *pos + 3).ok()?;
    if !(0xDC00..0xE000).contains(&low) {
        return None;
    }
    *pos += 6;
    char::from_u32(0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00))
}

fn parse_array(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    *pos += 1; // consume '['
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            other => return Err(format!("expected ',' or ']' but found {other:?}")),
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    *pos += 1; // consume '{'
    let mut fields = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(fields));
    }
    loop {
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b'"') {
            return Err(format!("expected an object key at byte {pos}", pos = *pos));
        }
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b':') {
            return Err(format!("expected ':' at byte {pos}", pos = *pos));
        }
        *pos += 1;
        let value = parse_value(bytes, pos)?;
        fields.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            other => return Err(format!("expected ',' or '}}' but found {other:?}")),
        }
    }
}

// ---------------------------------------------------------------------------
// Requests.

/// What a parsed request asks the server to do.
#[derive(Debug, Clone, PartialEq)]
pub enum RequestOp {
    /// Simulate (or replay from cache) one job; the flag asks for the
    /// per-run JSONL event stream in the response.
    Run(Box<JobSpec>, bool),
    /// Liveness probe.
    Ping,
    /// Report serve counters, queue depth, and cache size.
    Stats,
    /// Drain and exit cleanly.
    Shutdown,
}

/// One request line, parsed.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Client-chosen id, echoed verbatim in the response.
    pub id: Option<String>,
    /// The operation.
    pub op: RequestOp,
}

/// Why a request line could not be turned into a [`Request`].
#[derive(Debug, Clone, PartialEq)]
pub enum RequestError {
    /// The request named a protocol version this build does not speak.
    /// Answered with a structured `unsupported_version` error so the
    /// client can tell a version skew from a malformed request.
    UnsupportedVersion(u64),
    /// Malformed JSON, unknown fields, or invalid field values.
    Bad(String),
}

impl RequestError {
    /// The machine-readable error code for the response, when this
    /// error class has one.
    pub fn code(&self) -> Option<&'static str> {
        match self {
            RequestError::UnsupportedVersion(_) => Some("unsupported_version"),
            RequestError::Bad(_) => None,
        }
    }
}

impl fmt::Display for RequestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RequestError::UnsupportedVersion(v) => write!(
                f,
                "unsupported protocol version {v} (this server speaks v{PROTOCOL_VERSION})"
            ),
            RequestError::Bad(msg) => f.write_str(msg),
        }
    }
}

/// Parses one request line into a [`Request`].
///
/// Unknown fields are rejected (they would otherwise be silently
/// excluded from the cache key, poisoning it). The version gate runs
/// first: a request naming a different `"v"` gets
/// [`RequestError::UnsupportedVersion`] before any field validation,
/// since a future protocol may legitimately carry fields this parser
/// has never heard of.
pub fn parse_request(line: &str) -> Result<Request, RequestError> {
    let json = Json::parse(line).map_err(RequestError::Bad)?;
    if !matches!(json, Json::Obj(_)) {
        return Err(RequestError::Bad(
            "request must be a JSON object".to_owned(),
        ));
    }
    match json.get("v") {
        None | Some(Json::Null) => {}
        Some(v) => {
            let version = v
                .as_u64()
                .ok_or_else(|| RequestError::Bad("v must be a non-negative integer".to_owned()))?;
            if version != u64::from(PROTOCOL_VERSION) {
                return Err(RequestError::UnsupportedVersion(version));
            }
        }
    }
    parse_request_fields(&json).map_err(RequestError::Bad)
}

fn parse_request_fields(json: &Json) -> Result<Request, String> {
    let obj = match json {
        Json::Obj(fields) => fields,
        _ => return Err("request must be a JSON object".to_owned()),
    };
    const KNOWN: &[&str] = &[
        "v",
        "id",
        "op",
        "workload",
        "technique",
        "steal",
        "scale",
        "quick",
        "cores",
        "max_instructions",
        "warmup_instructions",
        "epoch_cycles",
        "seed",
        "faults",
        "sanitize",
        "obs",
    ];
    for (key, _) in obj {
        if !KNOWN.contains(&key.as_str()) {
            return Err(format!("unknown request field {key:?}"));
        }
    }
    let id = match json.get("id") {
        None | Some(Json::Null) => None,
        Some(Json::Str(s)) => Some(s.clone()),
        Some(Json::Num(raw)) => Some(raw.clone()),
        Some(other) => return Err(format!("id must be a string or number, got {other:?}")),
    };
    let op_name = match json.get("op") {
        None => "run",
        Some(v) => v.as_str().ok_or("op must be a string")?,
    };
    let op = match op_name {
        "ping" => RequestOp::Ping,
        "stats" => RequestOp::Stats,
        "shutdown" => RequestOp::Shutdown,
        "run" => {
            let spec = JobSpec::from_fields(json)?;
            let want_obs = match json.get("obs") {
                None => false,
                Some(v) => v.as_bool().ok_or("obs must be a boolean")?,
            };
            RequestOp::Run(Box::new(spec), want_obs)
        }
        other => return Err(format!("unknown op {other:?}")),
    };
    Ok(Request { id, op })
}

impl JobSpec {
    /// Reads a run request's job fields from its JSON object, each
    /// absent field at its wire default. This is the one field parser:
    /// [`parse_request`] reads every run request through it, and `repro
    /// submit` builds its jobs through it. Fields that are not job
    /// fields are not looked at; [`parse_request`] refuses unknown ones.
    pub fn from_fields(json: &Json) -> Result<JobSpec, String> {
        let workload = json
            .get("workload")
            .and_then(Json::as_str)
            .ok_or("run request needs a \"workload\" field")?;
        let benchmark = BenchmarkKind::parse(workload)
            .ok_or_else(|| format!("unknown workload {workload:?}"))?;
        let technique = match json.get("technique") {
            None => Technique::SchedTask,
            Some(v) => {
                let name = v.as_str().ok_or("technique must be a string")?;
                Technique::parse(name).ok_or_else(|| format!("unknown technique {name:?}"))?
            }
        };
        let steal = match json.get("steal") {
            None | Some(Json::Null) => None,
            Some(v) => {
                let name = v.as_str().ok_or("steal must be a string")?;
                let policy = StealPolicy::parse(name)?;
                if technique != Technique::SchedTask {
                    return Err(format!(
                        "steal policy override requires technique SchedTask, got {}",
                        technique.name()
                    ));
                }
                Some(policy)
            }
        };
        let scale = match json.get("scale") {
            None => 2.0,
            Some(v) => v.as_f64().ok_or("scale must be a number")?,
        };
        if !(scale.is_finite() && scale > 0.0) {
            return Err(format!(
                "scale must be a positive finite number, got {scale}"
            ));
        }
        let quick = match json.get("quick") {
            None => true,
            Some(v) => v.as_bool().ok_or("quick must be a boolean")?,
        };
        let mut params = if quick {
            ExpParams::quick()
        } else {
            ExpParams::standard()
        };
        let u64_field = |name: &str| -> Result<Option<u64>, String> {
            match json.get(name) {
                None | Some(Json::Null) => Ok(None),
                Some(v) => v
                    .as_u64()
                    .map(Some)
                    .ok_or_else(|| format!("{name} must be a non-negative integer")),
            }
        };
        if let Some(cores) = u64_field("cores")? {
            if cores == 0 {
                return Err("cores must be positive".to_owned());
            }
            params.cores = cores as usize;
        }
        technique.check_cores(params.engine_cores(technique))?;
        if let Some(v) = u64_field("max_instructions")? {
            params.max_instructions = v;
        }
        if let Some(v) = u64_field("warmup_instructions")? {
            params.warmup_instructions = v;
        }
        if let Some(v) = u64_field("epoch_cycles")? {
            params.epoch_cycles = v;
        }
        if let Some(v) = u64_field("seed")? {
            params.seed = v;
        }
        match json.get("faults") {
            None | Some(Json::Null) => {}
            Some(v) => {
                let spec = v
                    .as_str()
                    .ok_or("faults must be a fault-plan spec string")?;
                params.faults = Some(FaultPlan::parse(spec, params.seed)?);
            }
        }
        if let Some(v) = json.get("sanitize") {
            params.sanitize = v.as_bool().ok_or("sanitize must be a boolean")?;
        }
        Ok(JobSpec {
            technique,
            benchmark,
            scale,
            steal,
            params,
        })
    }
}

// ---------------------------------------------------------------------------
// Responses.

/// One response line, typed. [`Response::render`] and
/// [`Response::parse`] are exact inverses for every variant, so the
/// router can decode a worker's answer, cache its payload bytes, and
/// re-wrap it in a fresh envelope without touching the result text.
///
/// Stats responses are deliberately not modelled here: they are a
/// human/reporting surface whose counter set grows every release, not
/// a stable machine contract.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// A completed run: cache metadata plus the canonical result
    /// payload.
    Ok {
        /// Echoed client id.
        id: Option<String>,
        /// Served from a cache tier (memory or disk).
        cached: bool,
        /// Coalesced onto an identical in-flight execution.
        coalesced: bool,
        /// The job's cache key, fixed-width hex.
        key: String,
        /// Queue depth observed at admission.
        queue_depth: u64,
        /// Server-side latency for this request, microseconds.
        latency_us: u64,
        /// Raw canonical `SimStats` JSON, embedded verbatim — these
        /// bytes are the byte-identity contract across cache tiers.
        result: String,
        /// Newline-separated JSONL event stream, when requested.
        jsonl: Option<String>,
    },
    /// Backpressure shed with an honest retry hint.
    Rejected {
        /// Echoed client id.
        id: Option<String>,
        /// Queue depth that triggered the shed.
        queue_depth: u64,
        /// Suggested client backoff, milliseconds.
        retry_after_ms: u64,
    },
    /// A failed request.
    Error {
        /// Echoed client id.
        id: Option<String>,
        /// Machine-readable error class (e.g. `unsupported_version`),
        /// when the failure has one.
        code: Option<String>,
        /// Human-readable message.
        error: String,
    },
    /// Liveness probe answer; `proto` is the server's
    /// [`PROTOCOL_VERSION`], which the router checks before joining a
    /// worker to the fleet.
    Pong {
        /// Echoed client id.
        id: Option<String>,
        /// The server's protocol version.
        proto: u32,
    },
    /// Acknowledgement that the server is draining and exiting.
    ShuttingDown {
        /// Echoed client id.
        id: Option<String>,
    },
}

impl Response {
    /// Renders the single-line JSON response. Field order is fixed
    /// (`v`, `id`, `status`, then variant fields, `result` second to
    /// last and `jsonl` last) so clients may extract the raw result
    /// payload textually.
    pub fn render(&self) -> String {
        let (id, payload) = match self {
            Response::Ok {
                id, result, jsonl, ..
            } => (
                id,
                result.len() + jsonl.as_ref().map_or(0, |j| j.len() + j.len() / 4),
            ),
            Response::Error { id, error, .. } => (id, error.len()),
            Response::Rejected { id, .. }
            | Response::Pong { id, .. }
            | Response::ShuttingDown { id } => (id, 0),
        };
        // Room for the fixed fields plus some slack for escapes.
        let mut line = String::with_capacity(160 + payload + id.as_ref().map_or(0, String::len));
        self.write_line(&mut line, id)
            .expect("writing to a String cannot fail");
        line
    }

    fn write_line(&self, out: &mut String, id: &Option<String>) -> fmt::Result {
        write!(out, "{{\"v\":{PROTOCOL_VERSION},")?;
        if let Some(id) = id {
            out.push_str("\"id\":\"");
            push_escaped(out, id);
            out.push_str("\",");
        }
        match self {
            Response::Ok {
                cached,
                coalesced,
                key,
                queue_depth,
                latency_us,
                result,
                jsonl,
                ..
            } => {
                write!(
                    out,
                    "\"status\":\"ok\",\"cached\":{cached},\"coalesced\":{coalesced},\"key\":\""
                )?;
                push_escaped(out, key);
                write!(
                    out,
                    "\",\"queue_depth\":{queue_depth},\"latency_us\":{latency_us},\"result\":"
                )?;
                out.push_str(result);
                if let Some(jsonl) = jsonl {
                    out.push_str(",\"jsonl\":\"");
                    push_escaped(out, jsonl);
                    out.push('"');
                }
            }
            Response::Rejected {
                queue_depth,
                retry_after_ms,
                ..
            } => write!(
                out,
                "\"status\":\"rejected\",\"queue_depth\":{queue_depth},\
                 \"retry_after_ms\":{retry_after_ms}"
            )?,
            Response::Error { code, error, .. } => {
                out.push_str("\"status\":\"error\",");
                if let Some(code) = code {
                    out.push_str("\"code\":\"");
                    push_escaped(out, code);
                    out.push_str("\",");
                }
                out.push_str("\"error\":\"");
                push_escaped(out, error);
                out.push('"');
            }
            Response::Pong { proto, .. } => {
                write!(out, "\"status\":\"ok\",\"pong\":true,\"proto\":{proto}")?
            }
            Response::ShuttingDown { .. } => {
                out.push_str("\"status\":\"ok\",\"shutting_down\":true")
            }
        }
        out.push('}');
        Ok(())
    }

    /// Parses a response line rendered by [`Response::render`]. The
    /// `result` payload is recovered textually (between the
    /// `"result":` marker and the `jsonl` field or closing brace) so
    /// its bytes survive untouched; every other field goes through the
    /// JSON parser.
    pub fn parse(line: &str) -> Result<Response, String> {
        let json = Json::parse(line)?;
        let version = json
            .get("v")
            .and_then(Json::as_u64)
            .ok_or("response carries no protocol version")?;
        if version != u64::from(PROTOCOL_VERSION) {
            return Err(format!("unsupported response protocol version {version}"));
        }
        let id = match json.get("id") {
            None | Some(Json::Null) => None,
            Some(v) => Some(v.as_str().ok_or("response id must be a string")?.to_owned()),
        };
        let u64_field = |name: &str| -> Result<u64, String> {
            json.get(name)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("response missing {name:?}"))
        };
        match json.get("status").and_then(Json::as_str) {
            Some("ok") if json.get("pong").is_some() => Ok(Response::Pong {
                id,
                proto: u64_field("proto")? as u32,
            }),
            Some("ok") if json.get("shutting_down").is_some() => Ok(Response::ShuttingDown { id }),
            Some("ok") if json.get("result").is_some() => {
                const MARKER: &str = "\"result\":";
                // Everything before the result payload is either fixed
                // vocabulary or escaped string content (whose quotes
                // are backslashed), so the first unescaped marker is
                // the field itself.
                let start = line
                    .find(MARKER)
                    .ok_or("result field not found in response text")?
                    + MARKER.len();
                let jsonl = match json.get("jsonl") {
                    None => None,
                    Some(v) => Some(v.as_str().ok_or("jsonl must be a string")?.to_owned()),
                };
                let end = match jsonl {
                    Some(_) => line[start..]
                        .find(",\"jsonl\":")
                        .map(|off| start + off)
                        .ok_or("jsonl field not found in response text")?,
                    None => line.len() - 1,
                };
                Ok(Response::Ok {
                    id,
                    cached: json
                        .get("cached")
                        .and_then(Json::as_bool)
                        .ok_or("response missing \"cached\"")?,
                    coalesced: json
                        .get("coalesced")
                        .and_then(Json::as_bool)
                        .ok_or("response missing \"coalesced\"")?,
                    key: json
                        .get("key")
                        .and_then(Json::as_str)
                        .ok_or("response missing \"key\"")?
                        .to_owned(),
                    queue_depth: u64_field("queue_depth")?,
                    latency_us: u64_field("latency_us")?,
                    result: line[start..end].to_owned(),
                    jsonl,
                })
            }
            Some("ok") => {
                Err("unrecognized ok-response shape (stats responses are not typed)".to_owned())
            }
            Some("rejected") => Ok(Response::Rejected {
                id,
                queue_depth: u64_field("queue_depth")?,
                retry_after_ms: u64_field("retry_after_ms")?,
            }),
            Some("error") => Ok(Response::Error {
                id,
                code: json.get("code").and_then(Json::as_str).map(str::to_owned),
                error: json
                    .get("error")
                    .and_then(Json::as_str)
                    .ok_or("error response missing \"error\"")?
                    .to_owned(),
            }),
            other => Err(format!("unrecognized response status {other:?}")),
        }
    }
}

/// The `result` payload bytes of an ok run response line, as
/// [`Response::parse`] recovers them; `None` for any other response.
pub fn result_payload(line: &str) -> Option<String> {
    match Response::parse(line) {
        Ok(Response::Ok { result, .. }) => Some(result),
        _ => None,
    }
}

// ---------------------------------------------------------------------------
// Client.

/// Where a `schedtaskd` daemon listens; kept by retrying clients so a
/// dropped connection can be re-dialled.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Endpoint {
    /// TCP `host:port`.
    Tcp(String),
}

impl fmt::Display for Endpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let Endpoint::Tcp(addr) = self;
        write!(f, "tcp://{addr}")
    }
}

impl FromStr for Endpoint {
    type Err = String;

    /// The one endpoint grammar every `--addr` and `--worker` flag
    /// speaks: `tcp://host:port`.
    fn from_str(s: &str) -> Result<Endpoint, String> {
        s.strip_prefix("tcp://")
            .filter(|addr| {
                addr.rsplit_once(':')
                    .is_some_and(|(host, port)| !host.is_empty() && port.parse::<u16>().is_ok())
            })
            .map(|addr| Endpoint::Tcp(addr.to_owned()))
            .ok_or_else(|| format!("bad endpoint {s:?}: want tcp://host:port"))
    }
}

/// Socket deadlines for the client. A field of `0` disables that
/// deadline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClientTimeouts {
    /// TCP connect deadline, in milliseconds.
    pub connect_ms: u64,
    /// Per-read deadline, in milliseconds. This bounds how long a
    /// client waits on a stalled or chaos-delayed server before
    /// treating the attempt as failed.
    pub read_ms: u64,
    /// Per-write deadline, in milliseconds.
    pub write_ms: u64,
}

impl Default for ClientTimeouts {
    fn default() -> Self {
        ClientTimeouts {
            connect_ms: 5_000,
            // Generous: a cold standard-size simulation takes seconds;
            // the deadline only has to beat "forever".
            read_ms: 120_000,
            write_ms: 10_000,
        }
    }
}

fn ms(v: u64) -> Option<Duration> {
    (v > 0).then(|| Duration::from_millis(v))
}

/// A blocking line-oriented client for `schedtaskd`.
pub struct ServeClient {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl ServeClient {
    /// Connects to `host:port` with no socket deadlines.
    pub fn connect_tcp(addr: &str) -> io::Result<ServeClient> {
        let none = ClientTimeouts {
            connect_ms: 0,
            read_ms: 0,
            write_ms: 0,
        };
        ServeClient::dial(&Endpoint::Tcp(addr.to_owned()), &none)
    }

    /// Dials `endpoint` and arms every configured socket deadline.
    pub fn dial(endpoint: &Endpoint, timeouts: &ClientTimeouts) -> io::Result<ServeClient> {
        let Endpoint::Tcp(addr) = endpoint;
        let stream = match ms(timeouts.connect_ms) {
            Some(limit) => {
                let resolved = addr.to_socket_addrs()?.next().ok_or_else(|| {
                    io::Error::new(
                        io::ErrorKind::InvalidInput,
                        format!("cannot resolve {addr}"),
                    )
                })?;
                TcpStream::connect_timeout(&resolved, limit)?
            }
            None => TcpStream::connect(addr)?,
        };
        stream.set_nodelay(true)?;
        stream.set_read_timeout(ms(timeouts.read_ms))?;
        stream.set_write_timeout(ms(timeouts.write_ms))?;
        Ok(ServeClient {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
        })
    }

    /// Sends one request line and reads one response line. A line the
    /// server cut short by closing the connection is an
    /// [`io::ErrorKind::UnexpectedEof`] error, never a response.
    pub fn request_line(&mut self, line: &str) -> io::Result<String> {
        // One write per request: splitting the newline into its own
        // small write would let Nagle hold it back for the peer's
        // delayed ACK — a ~40 ms stall per round-trip.
        let mut framed = String::with_capacity(line.len() + 1);
        framed.push_str(line);
        framed.push('\n');
        self.writer.write_all(framed.as_bytes())?;
        self.writer.flush()?;
        let mut response = String::new();
        self.reader.read_line(&mut response)?;
        if !response.ends_with('\n') {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection before the end of the response line",
            ));
        }
        while response.ends_with('\n') || response.ends_with('\r') {
            response.pop();
        }
        Ok(response)
    }

    /// Sends a ping and checks for an ok response.
    pub fn ping(&mut self) -> io::Result<bool> {
        Ok(self.ping_proto()?.is_some())
    }

    /// Sends a ping; on an ok answer returns the protocol version the
    /// server reports. `None` means the server answered but not with
    /// an ok status. This is the router's join-time version check.
    pub fn ping_proto(&mut self) -> io::Result<Option<u32>> {
        let response =
            self.request_line(&format!("{{\"v\":{PROTOCOL_VERSION},\"op\":\"ping\"}}"))?;
        let json =
            Json::parse(&response).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
        if json.get("status").and_then(Json::as_str) != Some("ok") {
            return Ok(None);
        }
        // Pre-versioning servers pinged ok without a proto field;
        // report them as protocol 0 so the caller can refuse them.
        let proto = json.get("proto").and_then(Json::as_u64).unwrap_or(0);
        Ok(Some(proto as u32))
    }
}

// ---------------------------------------------------------------------------
// Retry discipline.

/// Bounded exponential backoff with deterministic jitter.
///
/// Retrying a run request is always safe: jobs are content-addressed,
/// so a resubmission either coalesces onto the in-flight execution or
/// replays the cached result — it can never execute twice with
/// different outputs. That idempotency argument is what licenses the
/// aggressive retry loop in [`submit_with_retry`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts (first try included) before giving up.
    pub max_attempts: u32,
    /// Backoff before the first retry, in milliseconds; doubles each
    /// attempt.
    pub base_ms: u64,
    /// Ceiling on one backoff step, in milliseconds.
    pub max_ms: u64,
    /// Seed for the deterministic jitter stream.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 8,
            base_ms: 50,
            max_ms: 2_000,
            seed: 0x5EED,
        }
    }
}

impl RetryPolicy {
    /// The backoff before retry number `attempt` (0-based), honouring
    /// the server's `retry_after_ms` hint when one was given: the wait
    /// is at least the hint, at least the exponential step, at most
    /// [`RetryPolicy::max_ms`] — plus up to 25% deterministic jitter
    /// so a fleet of identical clients doesn't retry in lockstep.
    pub fn backoff_ms(&self, attempt: u32, hint: Option<u64>) -> u64 {
        let exponential = self.base_ms.saturating_mul(1u64 << attempt.min(16));
        let step = hint.unwrap_or(0).max(exponential).min(self.max_ms.max(1));
        // SplitMix64 over (seed, attempt): reruns of the same policy
        // wait the same schedule, different seeds decorrelate clients.
        let mut z = self
            .seed
            .wrapping_add(attempt as u64)
            .wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        step + z % (step / 4 + 1)
    }
}

/// What [`submit_with_retry`] achieved.
#[derive(Debug, Clone)]
pub struct RetryOutcome {
    /// The final `status:"ok"` response line.
    pub response: String,
    /// Attempts spent, 1 meaning first-try success.
    pub attempts: u32,
    /// Total milliseconds slept across backoffs.
    pub total_backoff_ms: u64,
}

/// Whether a `status:"error"` message is worth retrying: execution
/// hiccups (panicked workers, timeouts, a daemon mid-restart) and
/// backpressure are; request parse and validation errors are permanent.
pub fn error_is_transient(message: &str) -> bool {
    // "unreachable" covers the router's all-workers-down error: a
    // worker restarting behind the router comes back within a backoff
    // or two, so the idempotent resubmission is worth it. "queue full"
    // and "shed the job" are what a duplicate sees when it coalesced
    // onto a job that a worker or the router rejected for backpressure.
    [
        "panicked",
        "timed out",
        "shutting down",
        "queue closed",
        "unreachable",
        "queue full",
        "shed the job",
    ]
    .iter()
    .any(|marker| message.contains(marker))
}

/// Submits one run request line with reconnect, deadline, and backoff
/// discipline, until an ok run response arrives or the policy's attempt
/// budget runs out.
///
/// Handles every failure mode the chaos plan can inject: connection
/// refused (daemon restarting) and dropped or truncated responses
/// re-dial the endpoint; `status:"rejected"` honours the server's
/// `retry_after_ms` hint; transient `status:"error"` responses (e.g. a
/// panicked worker) resubmit the idempotent job. A complete line that
/// [`Response::parse`] refuses, or that answers anything but a run, is
/// a permanent error: the peer does not speak the protocol.
pub fn submit_with_retry(
    endpoint: &Endpoint,
    timeouts: &ClientTimeouts,
    policy: &RetryPolicy,
    line: &str,
) -> Result<RetryOutcome, String> {
    let mut client: Option<ServeClient> = None;
    let mut total_backoff_ms = 0u64;
    let mut last_error = String::from("no attempts made");
    let attempts = policy.max_attempts.max(1);
    for attempt in 0..attempts {
        // Back off only when another attempt follows; a failed last
        // attempt reports its error at once.
        let retry = |hint: Option<u64>, total: &mut u64| {
            if attempt + 1 == attempts {
                return;
            }
            let backoff = policy.backoff_ms(attempt, hint);
            std::thread::sleep(Duration::from_millis(backoff));
            *total += backoff;
        };
        let conn = match client.take() {
            Some(conn) => conn,
            None => match ServeClient::dial(endpoint, timeouts) {
                Ok(conn) => conn,
                Err(e) => {
                    last_error = format!("connect failed: {e}");
                    retry(None, &mut total_backoff_ms);
                    continue;
                }
            },
        };
        let mut conn = conn;
        let response = match conn.request_line(line) {
            Ok(response) => response,
            Err(e) => {
                // Transport failure (dropped mid-exchange, read
                // deadline, server gone): throw the connection away
                // and re-dial after backoff.
                last_error = format!("request failed: {e}");
                retry(None, &mut total_backoff_ms);
                continue;
            }
        };
        // Torn lines never reach the parse (`request_line` refuses
        // them), so a retry cannot help a line it refuses.
        match Response::parse(&response) {
            Ok(Response::Ok { .. }) => {
                return Ok(RetryOutcome {
                    response,
                    attempts: attempt + 1,
                    total_backoff_ms,
                })
            }
            Ok(Response::Rejected { retry_after_ms, .. }) => {
                last_error = format!("rejected with backpressure: {response}");
                client = Some(conn); // the connection is still good
                retry(Some(retry_after_ms), &mut total_backoff_ms);
            }
            Ok(Response::Error { error, .. }) if error_is_transient(&error) => {
                last_error = format!("transient error: {error}");
                client = Some(conn);
                retry(None, &mut total_backoff_ms);
            }
            Ok(Response::Error { error, .. }) => return Err(format!("permanent error: {error}")),
            Ok(_) => return Err(format!("not a run response: {response}")),
            Err(e) => return Err(format!("unparseable response ({e}): {response}")),
        }
    }
    Err(format!(
        "gave up after {attempts} attempts ({total_backoff_ms} ms of backoff): {last_error}"
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    fn run_spec(line: &str) -> JobSpec {
        match parse_request(line).expect("parses").op {
            RequestOp::Run(spec, _) => *spec,
            other => panic!("expected a run op, got {other:?}"),
        }
    }

    #[test]
    fn json_parser_handles_nesting_and_escapes() {
        let v =
            Json::parse("{\"a\":[1,2.5,-3],\"b\":{\"c\":\"x\\n\\\"y\\\"\"},\"d\":true,\"e\":null}")
                .expect("parses");
        assert_eq!(
            v.get("a"),
            Some(&Json::Arr(vec![
                Json::Num("1".into()),
                Json::Num("2.5".into()),
                Json::Num("-3".into()),
            ]))
        );
        assert_eq!(
            v.get("b").and_then(|b| b.get("c")).and_then(Json::as_str),
            Some("x\n\"y\"")
        );
        assert_eq!(v.get("d").and_then(Json::as_bool), Some(true));
        assert_eq!(v.get("e"), Some(&Json::Null));
        assert!(Json::parse("{\"a\":1} extra").is_err());
        assert!(Json::parse("{\"a\":}").is_err());
    }

    #[test]
    fn u64_precision_survives_parsing() {
        let v = Json::parse("{\"seed\":18446744073709551615}").expect("parses");
        assert_eq!(v.get("seed").and_then(Json::as_u64), Some(u64::MAX));
    }

    #[test]
    fn job_spec_round_trips_through_parse_request() {
        let mut spec = JobSpec::new(Technique::Linux, BenchmarkKind::Find);
        spec.scale = 1.5;
        spec.params.cores = 4;
        spec.params.max_instructions = 200_000;
        spec.params.warmup_instructions = 50_000;
        spec.params.seed = 42;
        spec.params.faults = Some(FaultPlan::light(7));
        spec.params.sanitize = true;
        let line = spec.to_request_line(Some("job-1"), true);
        let parsed = parse_request(&line).expect("parses");
        assert_eq!(parsed.id.as_deref(), Some("job-1"));
        let (round, want_obs) = match parsed.op {
            RequestOp::Run(round, want_obs) => (*round, want_obs),
            other => panic!("expected run, got {other:?}"),
        };
        assert!(want_obs);
        // canonical_text covers every field, including the machine
        // template inside ExpParams; identical text means an identical
        // cache key, which is the whole contract.
        assert_eq!(round.canonical_text(), spec.canonical_text());
        assert_eq!(round, spec);
    }

    #[test]
    fn steal_override_round_trips_on_the_wire() {
        for policy in StealPolicy::all() {
            let mut spec = JobSpec::new(Technique::SchedTask, BenchmarkKind::Iscp);
            spec.steal = Some(policy);
            let parsed = run_spec(&spec.to_request_line(None, false));
            assert_eq!(parsed.steal, Some(policy));
            assert_eq!(parsed.canonical_text(), spec.canonical_text());
        }
    }

    #[test]
    fn version_field_is_gated_structurally() {
        // v:1 and a missing v both parse.
        assert!(parse_request("{\"v\":1,\"op\":\"ping\"}").is_ok());
        assert!(parse_request("{\"op\":\"ping\"}").is_ok());
        // A different version is a structured error with a code, even
        // when the request carries fields this parser has never seen.
        let err = parse_request("{\"v\":2,\"op\":\"ping\",\"hologram\":true}")
            .expect_err("must refuse v2");
        assert_eq!(err, RequestError::UnsupportedVersion(2));
        assert_eq!(err.code(), Some("unsupported_version"));
        assert!(err.to_string().contains("v1"), "{err}");
        // A malformed version is a plain bad request.
        let err = parse_request("{\"v\":\"one\",\"op\":\"ping\"}").expect_err("must reject");
        assert!(matches!(err, RequestError::Bad(_)), "{err:?}");
    }

    #[test]
    fn responses_render_and_parse_as_inverses() {
        let responses = [
            (
                Response::Ok {
                    id: Some("job \"1\"\t\u{1f}é😀".to_owned()),
                    cached: true,
                    coalesced: false,
                    key: "00deadbeef00cafe".to_owned(),
                    queue_depth: 3,
                    latency_us: 1250,
                    result: "{\"cycles\":12,\"nested\":{\"a\":[1,2]}}".to_owned(),
                    jsonl: Some("{\"ev\":\"x\"}\n{\"ev\":\"y\\\\z\"}\r\n".to_owned()),
                },
                "{\"v\":1,\"id\":\"job \\\"1\\\"\\t\\u001fé😀\",\"status\":\"ok\",\"cached\":true,\
                 \"coalesced\":false,\"key\":\"00deadbeef00cafe\",\"queue_depth\":3,\
                 \"latency_us\":1250,\"result\":{\"cycles\":12,\"nested\":{\"a\":[1,2]}},\
                 \"jsonl\":\"{\\\"ev\\\":\\\"x\\\"}\\n{\\\"ev\\\":\\\"y\\\\\\\\z\\\"}\\r\\n\"}",
            ),
            (
                Response::Ok {
                    id: None,
                    cached: false,
                    coalesced: true,
                    key: "0000000000000001".to_owned(),
                    queue_depth: 0,
                    latency_us: 7,
                    result: "{\"cycles\":99}".to_owned(),
                    jsonl: None,
                },
                "{\"v\":1,\"status\":\"ok\",\"cached\":false,\"coalesced\":true,\
                 \"key\":\"0000000000000001\",\"queue_depth\":0,\"latency_us\":7,\
                 \"result\":{\"cycles\":99}}",
            ),
            (
                Response::Rejected {
                    id: Some("j".to_owned()),
                    queue_depth: 64,
                    retry_after_ms: 800,
                },
                "{\"v\":1,\"id\":\"j\",\"status\":\"rejected\",\"queue_depth\":64,\
                 \"retry_after_ms\":800}",
            ),
            (
                Response::Error {
                    id: None,
                    code: Some("unsupported_version".to_owned()),
                    error: "unsupported protocol version 9".to_owned(),
                },
                "{\"v\":1,\"status\":\"error\",\"code\":\"unsupported_version\",\
                 \"error\":\"unsupported protocol version 9\"}",
            ),
            (
                Response::Error {
                    id: Some("x".to_owned()),
                    code: None,
                    error: "unknown workload \"Fnid\"\n".to_owned(),
                },
                "{\"v\":1,\"id\":\"x\",\"status\":\"error\",\
                 \"error\":\"unknown workload \\\"Fnid\\\"\\n\"}",
            ),
            (
                Response::Pong {
                    id: Some("p".to_owned()),
                    proto: PROTOCOL_VERSION,
                },
                "{\"v\":1,\"id\":\"p\",\"status\":\"ok\",\"pong\":true,\"proto\":1}",
            ),
            (
                Response::ShuttingDown { id: None },
                "{\"v\":1,\"status\":\"ok\",\"shutting_down\":true}",
            ),
        ];
        for (response, line) in responses {
            assert_eq!(response.render(), line);
            assert_eq!(Response::parse(line), Ok(response), "{line}");
        }
    }

    #[test]
    fn endpoint_grammar_round_trips() {
        for (text, want) in [
            (
                "tcp://127.0.0.1:7077",
                Endpoint::Tcp("127.0.0.1:7077".to_owned()),
            ),
            ("tcp://[::1]:80", Endpoint::Tcp("[::1]:80".to_owned())),
        ] {
            let parsed: Endpoint = text.parse().expect(text);
            assert_eq!(parsed, want, "{text}");
            // Display output re-parses to the same endpoint.
            assert_eq!(parsed.to_string().parse::<Endpoint>(), Ok(parsed));
        }
        for bad in [
            "",
            "justahost",
            "tcp://",
            "tcp://nohost",
            "tcp://host:notaport",
            "unix://",
            "unix:///tmp/s.sock",
            "unix:/tmp/s.sock",
            "localhost:80",
            "ftp://x:1",
        ] {
            assert!(bad.parse::<Endpoint>().is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn steal_override_parses_and_requires_schedtask() {
        let spec = run_spec("{\"workload\":\"Find\",\"steal\":\"max-wait\"}");
        assert_eq!(spec.steal, Some(StealPolicy::MaxWaitingTime));
        assert_eq!(spec.technique, Technique::SchedTask);
        let err =
            parse_request("{\"workload\":\"Find\",\"technique\":\"FlexSC\",\"steal\":\"same\"}")
                .expect_err("must reject");
        assert!(err.to_string().contains("SchedTask"), "{err}");
    }

    #[test]
    fn techniques_that_split_cores_need_two() {
        let err = parse_request("{\"workload\":\"Find\",\"technique\":\"FlexSC\",\"cores\":1}")
            .expect_err("must reject one-core FlexSC");
        assert_eq!(err.to_string(), "FlexSC needs at least 2 cores, got 1");
        assert_eq!(
            run_spec("{\"workload\":\"Find\",\"technique\":\"FlexSC\",\"cores\":2}")
                .params
                .cores,
            2
        );
        // SelectiveOffload doubles the cores it is given.
        for t in ["SelectiveOffload", "Baseline", "SchedTask"] {
            let line = format!("{{\"workload\":\"Find\",\"technique\":\"{t}\",\"cores\":1}}");
            assert_eq!(run_spec(&line).params.cores, 1, "{t}");
        }
    }

    #[test]
    fn unknown_fields_are_rejected() {
        let err =
            parse_request("{\"workload\":\"Find\",\"sede\":7}").expect_err("must reject typos");
        assert!(err.to_string().contains("sede"), "{err}");
        // The retired driving-mode field is refused like any other.
        let err = parse_request("{\"workload\":\"Find\",\"driving\":\"de\"}")
            .expect_err("must reject driving");
        assert!(err.to_string().contains("driving"), "{err}");
        // So is the retired device-model list.
        let err = parse_request("{\"workload\":\"Find\",\"devices\":[\"network\"]}")
            .expect_err("must reject devices");
        assert_eq!(err.to_string(), "unknown request field \"devices\"");
    }

    #[test]
    fn cache_key_separates_every_input() {
        let base = run_spec("{\"workload\":\"Find\"}");
        let same = run_spec("{\"workload\":\"Find\"}");
        assert_eq!(base.cache_key(), same.cache_key());
        let mut specs = vec![("base".to_owned(), base.clone())];
        for line in [
            "{\"workload\":\"Iscp\"}",
            "{\"workload\":\"Find\",\"technique\":\"Baseline\"}",
            "{\"workload\":\"Find\",\"scale\":2.25}",
            "{\"workload\":\"Find\",\"seed\":99}",
            "{\"workload\":\"Find\",\"cores\":3}",
            "{\"workload\":\"Find\",\"max_instructions\":1600001}",
            "{\"workload\":\"Find\",\"warmup_instructions\":400001}",
            "{\"workload\":\"Find\",\"epoch_cycles\":50001}",
            "{\"workload\":\"Find\",\"faults\":\"light\"}",
            "{\"workload\":\"Find\",\"faults\":\"light@8\"}",
            "{\"workload\":\"Find\",\"steal\":\"nothing\"}",
            "{\"workload\":\"Find\",\"sanitize\":true}",
            "{\"workload\":\"Find\",\"quick\":false}",
        ] {
            specs.push((line.to_owned(), run_spec(line)));
        }
        // The wire cannot set the machine template, so every
        // SystemConfig and HierarchyConfig field is varied in-process.
        type Vary = fn(&mut SystemConfig);
        let machine: &[(&str, Vary)] = &[
            ("num_cores", |s| s.num_cores = 16),
            ("l1i.size_bytes", |s| s.hierarchy.l1i.size_bytes = 16 * 1024),
            ("l1i.associativity", |s| s.hierarchy.l1i.associativity = 8),
            ("l1i.latency_cycles", |s| s.hierarchy.l1i.latency_cycles = 4),
            ("l1d", |s| s.hierarchy.l1d.latency_cycles = 4),
            ("l2 absent", |s| s.hierarchy.l2 = None),
            ("l2", |s| {
                s.hierarchy.l2 = Some(CacheParams::new(512 * 1024, 8, 10))
            }),
            ("llc", |s| s.hierarchy.llc.latency_cycles = 8),
            ("prefetcher", |s| {
                *s = s.clone().with_call_graph_prefetcher()
            }),
            ("trace_cache", |s| *s = s.clone().with_trace_cache()),
            ("l1_replacement", |s| {
                s.l1_replacement = schedtask_sim::ReplacementPolicy::Fifo
            }),
            ("branch_predictor", |s| {
                *s = s.clone().with_branch_predictor()
            }),
            ("nuca", |s| *s = s.clone().with_nuca()),
        ];
        for (field, vary) in machine {
            let mut spec = base.clone();
            vary(&mut spec.params.system);
            specs.push(((*field).to_owned(), spec));
        }
        let mut seen = std::collections::HashMap::new();
        for (name, spec) in &specs {
            if let Some(other) = seen.insert(spec.cache_key(), name) {
                panic!("{name} collides with {other}");
            }
        }
    }

    #[test]
    fn backpressure_errors_are_transient() {
        // What a duplicate reads when it coalesced onto a job that the
        // worker's queue rejected or that the router shed.
        assert!(error_is_transient("rejected: queue full"));
        assert!(error_is_transient(
            "worker shed the job; retry after 1234 ms"
        ));
        assert!(!error_is_transient("unknown workload \"Fnid\""));
        assert!(!error_is_transient(
            "SelectiveOffload on Apache: invalid configuration: invalid machine \
             configuration: num_cores 66 exceeds 64, the width of the coherence \
             directory's sharer mask"
        ));
    }

    #[test]
    fn a_failed_last_attempt_does_not_back_off() {
        // A port nothing listens on: every dial is refused.
        let port = std::net::TcpListener::bind("127.0.0.1:0")
            .and_then(|listener| listener.local_addr())
            .expect("bind an ephemeral port")
            .port();
        let endpoint = Endpoint::Tcp(format!("127.0.0.1:{port}"));
        let policy = RetryPolicy {
            max_attempts: 2,
            base_ms: 40,
            max_ms: 40,
            ..RetryPolicy::default()
        };
        let err = submit_with_retry(
            &endpoint,
            &ClientTimeouts::default(),
            &policy,
            "{\"op\":\"ping\"}",
        )
        .expect_err("nothing listens");
        // Two attempts have one backoff between them and none after.
        let backoff = policy.backoff_ms(0, None);
        assert!(
            err.starts_with(&format!(
                "gave up after 2 attempts ({backoff} ms of backoff)"
            )),
            "{err}"
        );
    }

    #[test]
    fn op_requests_parse() {
        for (line, op) in [
            ("{\"op\":\"ping\"}", RequestOp::Ping),
            ("{\"op\":\"stats\"}", RequestOp::Stats),
            ("{\"op\":\"shutdown\",\"id\":7}", RequestOp::Shutdown),
        ] {
            let req = parse_request(line).expect("parses");
            assert_eq!(req.op, op, "{line}");
        }
        assert!(parse_request("{\"op\":\"dance\"}").is_err());
    }

    #[test]
    fn canonical_text_and_keys_are_pinned() {
        // The disk tier persists results under these keys, so any change
        // here turns every disk cache cold (DESIGN §11.3).
        const MACHINE: &str = "num_cores=32;clock_hz=2000000000;l1i=32768/4/64/3;\
            l1d=32768/4/64/3;l2=262144/4/64/8;llc=8388608/8/64/18;memory_latency=200;\
            itlb_entries=128;dtlb_entries=128;tlb_miss_penalty=50;\
            base_cpi=3fd999999999999a;data_overlap_hidden=3fe6666666666666;prefetcher=-;\
            trace_cache=-;l1_replacement=Lru;branch_predictor=-;nuca=-";
        const ID: &str = "job \"7\"\n\u{1}é😀";
        let cases = [
            (
                "{\"workload\":\"Find\"}",
                "technique=SchedTask;benchmark=Find;scale=4000000000000000;steal=-;cores=8;\
                 max_instructions=1600000;warmup_instructions=400000;seed=1592614637;\
                 epoch_cycles=50000;faults=-;sanitize=false;devices=;",
                "fa76716d8393ad14",
                "{\"v\":1,\"op\":\"run\",\"workload\":\"Find\",\"technique\":\"SchedTask\",\
                 \"scale\":2.0,\"quick\":true,\"cores\":8,\"max_instructions\":1600000,\
                 \"warmup_instructions\":400000,\"epoch_cycles\":50000,\"seed\":1592614637}",
            ),
            (
                "{\"workload\":\"Find\",\"quick\":false}",
                "technique=SchedTask;benchmark=Find;scale=4000000000000000;steal=-;cores=32;\
                 max_instructions=16000000;warmup_instructions=4000000;seed=1592614637;\
                 epoch_cycles=60000;faults=-;sanitize=false;devices=;",
                "97a5dcb0c88b6bca",
                "{\"v\":1,\"op\":\"run\",\"workload\":\"Find\",\"technique\":\"SchedTask\",\
                 \"scale\":2.0,\"quick\":true,\"cores\":32,\"max_instructions\":16000000,\
                 \"warmup_instructions\":4000000,\"epoch_cycles\":60000,\"seed\":1592614637}",
            ),
            (
                "{\"workload\":\"Iscp\",\"steal\":\"same\",\"faults\":\"light@7\",\
                 \"sanitize\":true,\"seed\":42}",
                "technique=SchedTask;benchmark=Iscp;scale=4000000000000000;\
                 steal=SameWorkOnly;cores=8;max_instructions=1600000;\
                 warmup_instructions=400000;seed=42;epoch_cycles=50000;\
                 faults=seed=7,heatmap_bitflip_rate=0.001,drop_irq_rate=0.005,\
                 irq_retry_cycles=20000,spurious_irq_rate=0.002,delay_completion_rate=0.005,\
                 delay_completion_instructions=2000,stall_core_rate=0.0005,stall_cycles=50000;\
                 sanitize=true;devices=;",
                "48eae9cdecb4049e",
                "{\"v\":1,\"op\":\"run\",\"workload\":\"Iscp\",\"technique\":\"SchedTask\",\
                 \"steal\":\"SameWorkOnly\",\"scale\":2.0,\"quick\":true,\"cores\":8,\
                 \"max_instructions\":1600000,\"warmup_instructions\":400000,\
                 \"epoch_cycles\":50000,\"seed\":42,\"faults\":\"seed=7,\
                 heatmap_bitflip_rate=0.001,drop_irq_rate=0.005,irq_retry_cycles=20000,\
                 spurious_irq_rate=0.002,delay_completion_rate=0.005,\
                 delay_completion_instructions=2000,stall_core_rate=0.0005,\
                 stall_cycles=50000\",\"sanitize\":true}",
            ),
        ];
        for (line, head, key, wire) in cases {
            let spec = run_spec(line);
            assert_eq!(spec.canonical_text(), format!("{head}{MACHINE}"), "{line}");
            assert_eq!(spec.cache_key_hex(), key, "{line}");
            assert_eq!(spec.to_request_line(None, false), wire);
            let body = &wire["{\"v\":1,".len()..wire.len() - 1];
            assert_eq!(
                spec.to_request_line(Some(ID), true),
                format!("{{\"v\":1,\"id\":\"job \\\"7\\\"\\n\\u0001é😀\",{body},\"obs\":true}}")
            );
        }
    }

    #[test]
    fn every_machine_an_experiment_builds_keeps_its_key() {
        // Each machine the experiments, ablations and appendix build,
        // under the quick SchedTask/Find spec. The keys were recorded
        // when the fixed machine values were still SystemConfig fields,
        // so they show that the canonical text writes each constant
        // where its field stood, on every machine.
        use schedtask_sim::ReplacementPolicy;
        let table2 = SystemConfig::table2;
        let with_hierarchy = |h: HierarchyConfig| table2().with_hierarchy(h);
        let with_l1 = |policy: ReplacementPolicy| SystemConfig {
            l1_replacement: policy,
            ..table2()
        };
        let machines = [
            ("Table 2", table2(), "fa76716d8393ad14"),
            (
                "Config1",
                with_hierarchy(HierarchyConfig::config1()),
                "e30ba8baaf3a3a3d",
            ),
            (
                "Config2",
                with_hierarchy(HierarchyConfig::config2()),
                "b4b469c64d4b8432",
            ),
            (
                "Config3",
                with_hierarchy(HierarchyConfig::config3()),
                "fa76716d8393ad14",
            ),
            (
                "16 KB i-cache",
                with_hierarchy(HierarchyConfig::table2().with_icache_size(16 * 1024)),
                "7f16d1ed936895f8",
            ),
            (
                "64 KB i-cache",
                with_hierarchy(HierarchyConfig::table2().with_icache_size(64 * 1024)),
                "fbb5c05366e822af",
            ),
            (
                "FIFO L1",
                with_l1(ReplacementPolicy::Fifo),
                "b349382f9fc654ad",
            ),
            (
                "Random L1",
                with_l1(ReplacementPolicy::Random),
                "d1a4d61510b0904c",
            ),
            (
                "call-graph prefetcher",
                table2().with_call_graph_prefetcher(),
                "b35bdfdade9409a1",
            ),
            (
                "trace cache",
                table2().with_trace_cache(),
                "31936c7272178dd4",
            ),
            (
                "gshare",
                table2().with_branch_predictor(),
                "a481fdb873ade093",
            ),
            ("NUCA", table2().with_nuca(), "e93186c06d85814b"),
        ];
        let keys = |spec: &JobSpec| {
            machines
                .iter()
                .map(|(name, system, _)| {
                    let mut spec = spec.clone();
                    spec.params.system = system.clone();
                    format!("{name}: {}", spec.cache_key_hex())
                })
                .collect::<Vec<_>>()
        };
        let expected: Vec<String> = machines
            .iter()
            .map(|(name, _, key)| format!("{name}: {key}"))
            .collect();
        assert_eq!(keys(&run_spec("{\"workload\":\"Find\"}")), expected);
    }

    #[test]
    fn unicode_escapes_combine_surrogate_pairs_and_need_four_hex_digits() {
        let parse = |text: &str| Json::parse(text).map(|v| v.as_str().map(str::to_owned));
        let ok = |s: &str| Ok(Some(s.to_owned()));
        // Encoders that escape non-BMP characters (Python's json.dumps
        // among them) send one scalar as a UTF-16 surrogate pair.
        assert_eq!(parse("\"\\ud83d\\ude00\""), ok("😀"));
        assert_eq!(parse("\"a\\uD83D\\uDE00b\""), ok("a😀b"));
        let req = parse_request("{\"id\":\"\\ud83d\\ude00\",\"op\":\"ping\"}").expect("parses");
        assert_eq!(req.id.as_deref(), Some("😀"));
        // Lone surrogates stay U+FFFD; an escape after a high surrogate
        // that is no low surrogate decodes on its own.
        assert_eq!(parse("\"\\ud83d\""), ok("\u{fffd}"));
        assert_eq!(parse("\"\\ud83dx\""), ok("\u{fffd}x"));
        assert_eq!(parse("\"\\ude00\\ud83d\""), ok("\u{fffd}\u{fffd}"));
        assert_eq!(parse("\"\\ud83d\\u0041\""), ok("\u{fffd}A"));
        assert_eq!(parse("\"\\u00e9\\u0041\""), ok("éA"));
        // Exactly four hex digits: no sign, no short form.
        for bad in [
            "\"\\u+041\"",
            "\"\\u-041\"",
            "\"\\u 041\"",
            "\"\\u04\"",
            "\"\\u00g1\"",
            "\"\\ud83d\\u+e00\"",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad} must be refused");
        }
    }

    #[test]
    fn string_parsing_is_linear_in_length() {
        // Best of three parses of one string literal of about `bytes`
        // bytes, mixing ASCII runs, a two-byte character and an escape.
        let best_parse = |bytes: usize| {
            let unit = "abcdefé\\n";
            let text = format!("\"{}\"", unit.repeat(bytes / unit.len()));
            (0..3)
                .map(|_| {
                    let started = Instant::now();
                    std::hint::black_box(Json::parse(&text).expect("parses"));
                    started.elapsed()
                })
                .min()
                .expect("three timings")
        };
        let small = best_parse(8 << 10);
        let large = best_parse(128 << 10);
        // 16x the bytes: a linear parser takes about 16x as long, one
        // that rescans the rest of the input per character about 256x.
        let ratio = large.as_secs_f64() / small.as_secs_f64().max(1e-9);
        assert!(
            ratio < 64.0,
            "8 KiB took {small:?}, 128 KiB took {large:?} ({ratio:.1}x)"
        );
    }
}
