//! Property tests for the serve-layer result cache.
//!
//! Two properties from the PR contract:
//!
//! 1. For arbitrary job parameters (including light fault plans and the
//!    sanitizer), a cache hit replays byte-identical canonical stats
//!    JSON *and* a byte-identical JSONL event stream compared to both
//!    the first server execution and a fresh out-of-server run, with
//!    the stream held in memory and, with a cache directory, read back
//!    from the log before and after a restart.
//! 2. N concurrent submitters of an identical spec trigger exactly one
//!    execution and all receive identical result bytes.

mod common;

use std::sync::Arc;

use common::{fresh_run, spec_of};
use proptest::prelude::*;
use schedtask_experiments::serve_api::Json;
use schedtask_obs::Counter;
use schedtask_serve::{ServeConfig, Server};

/// Serves `line` `times` times on a new server and returns the
/// responses and how many jobs the server executed.
fn serve(cfg: &ServeConfig, line: &str, times: usize) -> (Vec<String>, u64) {
    let server = Arc::new(Server::new(cfg.clone()));
    let dispatcher = server.spawn_dispatcher();
    let responses = (0..times)
        .map(|_| server.handle_request_line(line).0)
        .collect();
    server.close();
    dispatcher.join().expect("dispatcher exits");
    (responses, server.counters().get(Counter::ServeExecuted))
}

/// Extracts the `result` object bytes from an ok response that also
/// carries a trailing `jsonl` field.
fn result_before_jsonl(resp: &str) -> String {
    let start = resp.find("\"result\":").expect("result field") + "\"result\":".len();
    let end = resp.find(",\"jsonl\":").expect("jsonl field");
    resp[start..end].to_owned()
}

/// Extracts the `result` object bytes from an ok response without a
/// `jsonl` field (the object runs to the closing brace).
fn result_to_end(resp: &str) -> String {
    let start = resp.find("\"result\":").expect("result field") + "\"result\":".len();
    resp[start..resp.len() - 1].to_owned()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn cache_hit_replays_byte_identical_stats_and_jsonl(
        workload in prop::sample::select(vec!["Find", "Iscp", "Dss"]),
        seed in 1u64..1_000,
        budget in 3u64..7, // x 10_000 instructions
        faults in prop::sample::select(vec!["none", "light", "light@3"]),
        sanitize in prop::bool::ANY,
    ) {
        let line = format!(
            "{{\"workload\":\"{workload}\",\"cores\":2,\"seed\":{seed},\
             \"max_instructions\":{},\"warmup_instructions\":10000,\
             \"faults\":\"{faults}\",\"sanitize\":{sanitize},\"obs\":true}}",
            budget * 10_000
        );
        let (fresh_json, fresh_jsonl) = fresh_run(&spec_of(&line));
        let dir = std::env::temp_dir().join(format!(
            "schedtask-cacheprop-{}-{seed}-{budget}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);

        // In memory only, then with a cache directory and a restart on
        // it: the restarted server replays from the log without
        // executing.
        for cache_dir in [None, Some(dir.clone())] {
            let cfg = ServeConfig {
                queue_capacity: 4,
                workers: 2,
                cache_dir,
                ..ServeConfig::default()
            };
            let (mut responses, executed) = serve(&cfg, &line, 2);
            prop_assert_eq!(executed, 1);
            if cfg.cache_dir.is_some() {
                let (restarted, executed) = serve(&cfg, &line, 1);
                prop_assert_eq!(executed, 0, "a recovered key never runs again");
                responses.extend(restarted);
            }
            // Every replay carries the result and event stream of the
            // first execution, which equal a run that never saw the
            // server.
            for (i, resp) in responses.iter().enumerate() {
                let json = Json::parse(resp).expect("response parses");
                prop_assert_eq!(json.get("status").and_then(Json::as_str), Some("ok"), "{}", resp);
                prop_assert_eq!(json.get("cached").and_then(Json::as_bool), Some(i > 0));
                prop_assert_eq!(result_before_jsonl(resp), fresh_json.clone());
                let jsonl = json.get("jsonl").and_then(Json::as_str).expect("jsonl field");
                prop_assert_eq!(jsonl, fresh_jsonl.as_str());
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_identical_submissions_execute_once(
        submitters in 2usize..8,
        seed in 1u64..1_000,
    ) {
        let line = format!(
            "{{\"workload\":\"Find\",\"cores\":2,\"seed\":{seed},\
             \"max_instructions\":40000,\"warmup_instructions\":10000}}"
        );
        let server = Arc::new(Server::new(ServeConfig {
            queue_capacity: 16,
            workers: 2,
            ..ServeConfig::default()
        }));
        let dispatcher = server.spawn_dispatcher();
        let handles: Vec<std::thread::JoinHandle<String>> = (0..submitters)
            .map(|_| {
                let server = Arc::clone(&server);
                let line = line.clone();
                std::thread::spawn(move || server.handle_request_line(&line).0)
            })
            .collect();
        let responses: Vec<String> = handles
            .into_iter()
            .map(|h| h.join().expect("submitter does not panic"))
            .collect();
        server.close();
        dispatcher.join().expect("dispatcher exits");

        let first = result_to_end(&responses[0]);
        for resp in &responses {
            let json = Json::parse(resp).expect("response parses");
            prop_assert_eq!(json.get("status").and_then(Json::as_str), Some("ok"), "{}", resp);
            prop_assert_eq!(result_to_end(resp), first.clone());
        }
        // Exactly one claim executed; everyone else hit or coalesced.
        let counters = server.counters();
        prop_assert_eq!(counters.get(Counter::ServeExecuted), 1u64);
        prop_assert_eq!(counters.get(Counter::ServeCacheMisses), 1u64);
        prop_assert_eq!(
            counters.get(Counter::ServeCacheHits) + counters.get(Counter::ServeCoalesced),
            submitters as u64 - 1
        );
        prop_assert_eq!(counters.get(Counter::ServeSubmitted), submitters as u64);
    }
}
