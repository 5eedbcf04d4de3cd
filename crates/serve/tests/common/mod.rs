//! Helpers shared by the serve integration tests.

use std::sync::Arc;

use schedtask::{SchedTaskConfig, SchedTaskScheduler};
use schedtask_experiments::runner::RunBuilder;
use schedtask_experiments::serve_api::{parse_request, JobSpec, RequestOp};
use schedtask_obs::{JsonlSink, Observer};

/// Parses a request line into the job spec the server would queue.
pub fn spec_of(line: &str) -> JobSpec {
    match parse_request(line).expect("request parses").op {
        RequestOp::Run(spec, _) => *spec,
        other => panic!("expected a run op, got {other:?}"),
    }
}

/// Runs `spec` directly — no server, no queue, no cache — mirroring the
/// daemon's executor, and returns (canonical stats JSON, JSONL stream).
pub fn fresh_run(spec: &JobSpec) -> (String, String) {
    let label = format!("{}/{}", spec.technique.name(), spec.benchmark.name());
    let sink = Arc::new(JsonlSink::with_label(Vec::new(), Some(label)));
    let mut builder =
        RunBuilder::new(&spec.params).observer(Arc::clone(&sink) as Arc<dyn Observer>);
    builder = match spec.steal {
        Some(policy) => builder.scheduler(Box::new(SchedTaskScheduler::new(
            spec.params.cores,
            SchedTaskConfig {
                steal_policy: policy,
                ..SchedTaskConfig::default()
            },
        ))),
        None => builder.technique(spec.technique),
    };
    let stats = builder
        .benchmark(spec.benchmark, spec.scale)
        .run()
        .expect("fresh run succeeds");
    (stats.to_canonical_json(), sink.take())
}
