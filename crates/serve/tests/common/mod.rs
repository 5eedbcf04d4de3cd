//! Helpers shared by the serve integration tests.

use schedtask_experiments::serve_api::{parse_request, JobSpec, RequestOp};

/// Parses a request line into the job spec the server would queue.
pub fn spec_of(line: &str) -> JobSpec {
    match parse_request(line).expect("request parses").op {
        RequestOp::Run(spec, _) => *spec,
        other => panic!("expected a run op, got {other:?}"),
    }
}

/// Runs `spec` directly — no server, no queue, no cache — as the
/// daemon's executor does, and returns (canonical stats JSON, JSONL
/// stream).
pub fn fresh_run(spec: &JobSpec) -> (String, String) {
    let (stats, jsonl) = spec.run().expect("fresh run succeeds");
    (stats.to_canonical_json(), jsonl)
}
