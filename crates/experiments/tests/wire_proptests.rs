//! Property tests for the versioned wire protocol.
//!
//! Four properties:
//!
//! 1. For an arbitrary [`JobSpec`] (any technique × benchmark, steal
//!    overrides, fault plans, ids, the obs flag),
//!    `parse_request(spec.to_request_line(..))` recovers an identical
//!    spec — same cache key, same id, same obs flag — and re-encoding
//!    the parsed spec reproduces the original line byte for byte.
//!    `split_request_line` splits the line at its id exactly when the
//!    id needs no escaping, and the rest is the line without an id.
//! 2. Every [`Response`] variant round-trips through render/parse,
//!    including error responses with machine-readable codes and ok
//!    responses carrying raw result payloads and JSONL streams.
//! 3. Any request naming a protocol version other than
//!    [`PROTOCOL_VERSION`] is refused with a structured
//!    `unsupported_version` error, and that error response itself
//!    round-trips.
//! 4. Long strings (up to 64 KiB) full of quotes, backslashes, control
//!    characters and multi-byte characters round-trip through
//!    `escape_json` and `Json::parse` as values, as object keys, and as
//!    request ids, and parse back from an ASCII-only encoding too.

use proptest::prelude::*;
use schedtask::StealPolicy;
use schedtask_experiments::serve_api::{
    escape_json, parse_request, split_request_line, JobSpec, Json, RequestError, RequestOp,
    Response, PROTOCOL_VERSION,
};
use schedtask_experiments::Technique;
use schedtask_kernel::FaultPlan;
use schedtask_workload::BenchmarkKind;

/// Strings of up to 16 Ki characters (64 KiB): arbitrary scalars mixed
/// with the characters the codec treats specially, namely quotes,
/// backslashes, control characters, and non-BMP characters, which some
/// encoders send as surrogate pairs.
fn wire_string() -> impl Strategy<Value = String> {
    prop::collection::vec((0u32..6, 0u32..0x11_0000), 0..16_384).prop_map(|chars| {
        chars
            .into_iter()
            .map(|(pick, code)| match pick {
                0 => '"',
                1 => '\\',
                2 => char::from_u32(code % 0x20).expect("a control character"),
                3 => char::from_u32(0x1_0000 + code % 0x10_0000).expect("a non-BMP scalar"),
                4 => char::from(b' ' + (code % 95) as u8),
                _ => char::from_u32(code).unwrap_or('\u{fffd}'),
            })
            .collect()
    })
}

/// Optional request ids of up to 7 characters, each a quote, a
/// backslash, a control character, DEL, an arbitrary scalar or
/// printable ASCII, so some need escaping and some do not.
fn request_id() -> impl Strategy<Value = Option<String>> {
    (
        prop::bool::ANY,
        prop::collection::vec((0u32..8, 0u32..0x11_0000), 0..8),
    )
        .prop_map(|(some, chars)| {
            some.then(|| {
                chars
                    .into_iter()
                    .map(|(pick, code)| match pick {
                        0 => '"',
                        1 => '\\',
                        2 => char::from_u32(code % 0x20).expect("a control character"),
                        3 => '\u{7f}',
                        4 => char::from_u32(code).unwrap_or('\u{fffd}'),
                        _ => char::from(b' ' + (code % 95) as u8),
                    })
                    .collect()
            })
        })
}

#[test]
fn lines_without_a_verbatim_leading_id_do_not_split() {
    let spec = JobSpec::new(Technique::SchedTask, BenchmarkKind::Find);
    let bare = spec.to_request_line(None, false);
    let rest = bare
        .strip_prefix("{\"v\":1")
        .expect("a line opens with its version");
    assert_eq!(
        split_request_line(&spec.to_request_line(Some("job-1"), false)),
        Some(("job-1", rest))
    );
    for line in [
        bare.clone(),
        format!("{{\"v\":1,\"id\":7{rest}"),
        format!("{{\"v\":1,\"id\":\"a\\\"b\"{rest}"),
        format!("{{\"v\":1,\"id\":\"tab\ttab\"{rest}"),
        format!("{{\"id\":\"job-1\",\"v\":1{rest}"),
        format!("{{\"v\":2,\"id\":\"job-1\"{rest}"),
        format!("{{\"v\":01,\"id\":\"job-1\"{rest}"),
        format!("{{\"v\":10,\"id\":\"job-1\"{rest}"),
        format!("{{ \"v\":1,\"id\":\"job-1\"{rest}"),
        format!("{{\"v\":1, \"id\":\"job-1\"{rest}"),
        "{\"v\":1,\"id\":\"job-1".to_owned(),
        String::new(),
    ] {
        assert_eq!(split_request_line(&line), None, "{line}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn long_escaped_and_multibyte_strings_round_trip(s in wire_string()) {
        let escaped = escape_json(&s);
        prop_assert_eq!(Json::parse(&format!("\"{escaped}\"")), Ok(Json::Str(s.clone())));
        // As an ASCII-only encoder sends it: every other character as
        // `\u` escapes, non-BMP ones as surrogate pairs.
        let ascii: String = escaped
            .chars()
            .map(|c| match c.is_ascii() {
                true => c.to_string(),
                false => c
                    .encode_utf16(&mut [0; 2])
                    .iter()
                    .map(|unit| format!("\\u{unit:04x}"))
                    .collect(),
            })
            .collect();
        prop_assert_eq!(Json::parse(&format!("\"{ascii}\"")), Ok(Json::Str(s.clone())));
        prop_assert_eq!(
            Json::parse(&format!("{{\"{escaped}\":1}}")),
            Ok(Json::Obj(vec![(s.clone(), Json::Num("1".to_owned()))]))
        );
        let line = JobSpec::new(Technique::SchedTask, BenchmarkKind::Find)
            .to_request_line(Some(&s), false);
        prop_assert_eq!(parse_request(&line).map(|request| request.id), Ok(Some(s)));
    }

    #[test]
    fn run_requests_round_trip(
        technique in prop::sample::select(vec![
            Technique::Linux,
            Technique::SelectiveOffload,
            Technique::FlexSc,
            Technique::DisAggregateOs,
            Technique::Slicc,
            Technique::SchedTask,
        ]),
        benchmark in prop::sample::select(BenchmarkKind::all().to_vec()),
        scale in 0.25f64..8.0,
        steal in prop::sample::select(vec![
            None,
            Some(StealPolicy::Nothing),
            Some(StealPolicy::SameWorkOnly),
            Some(StealPolicy::SimilarWorkAlso),
            Some(StealPolicy::MaxWaitingTime),
        ]),
        cores in 1usize..5,
        budget in 1u64..10, // x 10_000 instructions
        seed in 0u64..1_000_000,
        faults in prop::sample::select(vec!["", "none", "light", "light@3"]),
        sanitize in prop::bool::ANY,
        id in request_id(),
        want_obs in prop::bool::ANY,
    ) {
        let mut spec = JobSpec::new(technique, benchmark);
        spec.scale = scale;
        // A steal-policy override is only legal for SchedTask — the
        // parser enforces it, so the generator respects it.
        spec.steal = match technique {
            Technique::SchedTask => steal,
            _ => None,
        };
        // FlexSC needs separate application and system-call cores, which
        // the parser enforces too.
        spec.params.cores = match technique {
            Technique::FlexSc => cores.max(2),
            _ => cores,
        };
        spec.params.max_instructions = budget * 10_000;
        spec.params.warmup_instructions = 10_000;
        spec.params.seed = seed;
        if !faults.is_empty() {
            spec.params.faults =
                Some(FaultPlan::parse(faults, seed).expect("fault preset parses"));
        }
        spec.params.sanitize = sanitize;

        let id = id.as_deref();
        let line = spec.to_request_line(id, want_obs);
        let request = match parse_request(&line) {
            Ok(request) => request,
            Err(e) => return Err(proptest::test_runner::TestCaseError::Fail(
                format!("canonical line must parse, got {e}: {line}"),
            )),
        };
        prop_assert_eq!(&request.id, &id.map(str::to_owned));
        let (parsed, parsed_obs) = match request.op {
            RequestOp::Run(parsed, parsed_obs) => (*parsed, parsed_obs),
            other => {
                return Err(proptest::test_runner::TestCaseError::Fail(
                    format!("expected a run op, got {other:?}"),
                ))
            }
        };
        prop_assert_eq!(parsed_obs, want_obs);
        prop_assert_eq!(&parsed, &spec);
        prop_assert_eq!(parsed.cache_key(), spec.cache_key());
        // Encoding is canonical: re-rendering the parsed spec must
        // reproduce the original wire bytes exactly.
        prop_assert_eq!(parsed.to_request_line(id, want_obs), line.clone());
        // The line splits at an id that needs no escaping, and what
        // follows it is the same line without an id, less its version.
        let bare = spec.to_request_line(None, want_obs);
        let head = format!("{{\"v\":{PROTOCOL_VERSION}");
        let verbatim = id.filter(|id| escape_json(id) == *id);
        prop_assert_eq!(
            split_request_line(&line),
            verbatim.map(|id| (id, &bare[head.len()..]))
        );
    }

    #[test]
    fn ok_responses_round_trip(
        id in prop::sample::select(vec![None, Some("r-7"), Some("id \"quoted\"\n")]),
        cached in prop::bool::ANY,
        coalesced in prop::bool::ANY,
        key in 0u64..u64::MAX,
        queue_depth in 0u64..100,
        latency_us in 0u64..1_000_000,
        result in prop::sample::select(vec![
            "{\"instructions\":123,\"nested\":{\"a\":[1,2,3]}}",
            "{\"x\":0.5,\"label\":\"find\"}",
            "{}",
        ]),
        jsonl in prop::sample::select(vec![
            None,
            Some("{\"ev\":\"dispatched\"}\n{\"ev\":\"completed\"}\n"),
            Some("stream with \"quotes\", back\\slashes, and\ttabs\n"),
        ]),
    ) {
        let response = Response::Ok {
            id: id.map(str::to_owned),
            cached,
            coalesced,
            key: format!("{key:016x}"),
            queue_depth,
            latency_us,
            result: result.to_owned(),
            jsonl: jsonl.map(str::to_owned),
        };
        let line = response.render();
        prop_assert_eq!(Response::parse(&line), Ok(response.clone()), "{}", line);
    }

    #[test]
    fn control_responses_round_trip(
        id in prop::sample::select(vec![None, Some("c-1"), Some("tab\tid")]),
        queue_depth in 0u64..100,
        retry_after_ms in 0u64..10_000,
        code in prop::sample::select(vec![None, Some("unsupported_version")]),
        error in prop::sample::select(vec![
            "plain failure",
            "message with \"quotes\" and \\ backslashes",
            "multi\nline",
        ]),
        proto in 1u32..9,
    ) {
        let id = id.map(str::to_owned);
        let variants = vec![
            Response::Rejected {
                id: id.clone(),
                queue_depth,
                retry_after_ms,
            },
            Response::Error {
                id: id.clone(),
                code: code.map(str::to_owned),
                error: error.to_owned(),
            },
            Response::Pong {
                id: id.clone(),
                proto,
            },
            Response::ShuttingDown { id },
        ];
        for response in variants {
            let line = response.render();
            prop_assert_eq!(Response::parse(&line), Ok(response.clone()), "{}", line);
        }
    }

    #[test]
    fn unknown_versions_get_structured_refusals(
        version in prop::sample::select(vec![0u64, 2, 3, 17, 9_999]),
        op in prop::sample::select(vec!["ping", "stats", "shutdown"]),
    ) {
        let line = format!("{{\"v\":{version},\"op\":\"{op}\"}}");
        let err = match parse_request(&line) {
            Err(err) => err,
            Ok(req) => {
                return Err(proptest::test_runner::TestCaseError::Fail(
                    format!("version {version} must be refused, parsed {req:?}"),
                ))
            }
        };
        prop_assert_eq!(&err, &RequestError::UnsupportedVersion(version));
        prop_assert_eq!(err.code(), Some("unsupported_version"));

        // The refusal the daemon sends for this error is itself a
        // well-formed v1 response that round-trips.
        let refusal = Response::Error {
            id: None,
            code: err.code().map(str::to_owned),
            error: err.to_string(),
        };
        let rendered = refusal.render();
        prop_assert!(rendered.contains("\"code\":\"unsupported_version\""));
        prop_assert!(rendered.starts_with(&format!("{{\"v\":{PROTOCOL_VERSION},")));
        prop_assert_eq!(Response::parse(&rendered), Ok(refusal.clone()));
    }
}
