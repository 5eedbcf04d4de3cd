//! The crash-recovery proof. A worker with a persistent cache and a
//! seeded chaos plan runs on the daemon's own transport
//! (`schedtask_serve::daemon`), and a client submits every job through
//! `submit_with_retry`, so torn and failed disk appends, worker panics,
//! and delayed, truncated and dropped responses all fire. The worker is
//! then killed, as SIGKILL would kill it, and a new worker opens the
//! same cache directory and serves the same jobs.
//!
//! What recovery guarantees, for every seed and for each of the `none`,
//! `light` and `heavy` plans:
//!
//! * every request succeeds, before and after the restart;
//! * every payload after the restart equals its bytes before the kill;
//! * recovery finds exactly the records the first worker appended:
//!   `recovery.records` equals its `disk_entries()`;
//! * on the restarted worker, `serve_jobs_executed −
//!   serve_chaos_worker_panics` equals the number of jobs that were not
//!   recovered: a recovered key never runs again, and every other key
//!   runs exactly once;
//! * with no chaos, every job is recovered.

use std::path::PathBuf;
use std::sync::Arc;

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use schedtask_experiments::serve_api::{
    submit_with_retry, ClientTimeouts, Endpoint, Response, RetryPolicy,
};
use schedtask_obs::Counter;
use schedtask_serve::{ChaosPlan, Daemon, ServeConfig, Server, Serving};

/// Distinct jobs per case and plan.
const JOBS: u64 = 4;

fn tmp_dir(plan: &str, seed: u64) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "schedtask-chaosprop-{}-{plan}-{seed}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn request_line(i: u64, seed: u64) -> String {
    format!(
        "{{\"workload\":\"Find\",\"cores\":2,\"seed\":{},\
         \"max_instructions\":40000,\"warmup_instructions\":10000}}",
        seed * 100 + i
    )
}

/// Submits `line` through a retrying client and returns the payload of
/// its ok response.
fn submit(endpoint: &Endpoint, line: &str) -> Result<String, TestCaseError> {
    let timeouts = ClientTimeouts {
        connect_ms: 1_000,
        read_ms: 10_000,
        write_ms: 1_000,
    };
    let policy = RetryPolicy {
        max_attempts: 32,
        base_ms: 2,
        max_ms: 50,
        seed: 0,
    };
    let response = submit_with_retry(endpoint, &timeouts, &policy, line)
        .map_err(|e| TestCaseError::Fail(format!("a request failed: {e}")))?
        .response;
    match Response::parse(&response) {
        Ok(Response::Ok { result, .. }) => Ok(result),
        other => Err(TestCaseError::Fail(format!(
            "not an ok run response ({other:?}): {response}"
        ))),
    }
}

/// One worker lifetime: opens the cache directory, serves, and submits
/// every job. Returns the server, its serving handle and the payloads.
fn lifetime(
    cfg: &ServeConfig,
    jobs: &[String],
) -> Result<(Arc<Server>, Serving, Vec<String>), TestCaseError> {
    let server = Arc::new(Server::try_new(cfg.clone()).expect("the cache directory opens"));
    let serving = Serving::start(Daemon::Worker(Arc::clone(&server))).expect("the worker serves");
    let payloads = jobs
        .iter()
        .map(|line| submit(serving.endpoint(), line))
        .collect::<Result<Vec<_>, _>>()?;
    Ok((server, serving, payloads))
}

fn kill_and_restart(plan: &str, seed: u64) -> Result<(), TestCaseError> {
    let dir = tmp_dir(plan, seed);
    let cfg = ServeConfig {
        queue_capacity: 16,
        workers: 2,
        cache_dir: Some(dir.clone()),
        chaos: Some(ChaosPlan::parse(&format!("{plan}@{seed}"), 0).expect("plan parses")),
    };
    let jobs: Vec<String> = (0..JOBS).map(|i| request_line(i, seed)).collect();

    let (server, serving, before) = lifetime(&cfg, &jobs)?;
    let persisted = server.disk_entries();
    // A killed worker's dispatcher still runs every queued job and
    // appends its result, and a second open of the directory during an
    // append would truncate that record as a torn tail. Reopening is
    // safe here because every request already has its final response:
    // a result is appended before it is published, and no job is left
    // in the queue.
    serving.kill();

    let (server, serving, after) = lifetime(&cfg, &jobs)?;
    serving.kill();
    let recovery = server.recovery().expect("the persistent tier is on");
    for (i, (first, second)) in before.iter().zip(&after).enumerate() {
        prop_assert_eq!(
            first,
            second,
            "{}@{}: job {} changed bytes across the restart",
            plan,
            seed,
            i
        );
    }
    prop_assert_eq!(
        recovery.records,
        persisted,
        "{}@{}: recovered {} records, {} were appended",
        plan,
        seed,
        recovery.records,
        persisted
    );
    let counters = server.counters();
    let completed =
        counters.get(Counter::ServeExecuted) - counters.get(Counter::ServeChaosWorkerPanics);
    prop_assert_eq!(
        completed,
        JOBS - recovery.records,
        "{}@{}: {} completed executions, {} of {} jobs recovered",
        plan,
        seed,
        completed,
        recovery.records,
        JOBS
    );
    if plan == "none" {
        prop_assert_eq!(
            recovery.records,
            JOBS,
            "without chaos every job is recovered"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn restart_after_chaos_serves_byte_identical_results(seed in 1u64..1_000) {
        for plan in ["none", "light", "heavy"] {
            kill_and_restart(plan, seed)?;
        }
    }
}
