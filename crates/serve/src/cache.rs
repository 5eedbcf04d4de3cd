//! Content-addressed result cache with single-flight execution.
//!
//! Keys are the canonical FNV-1a hash of a
//! [`JobSpec`](schedtask_experiments::JobSpec). Each key maps to a
//! [`Slot`] holding the job's lifecycle: `Pending` while exactly one
//! execution is in flight, then `Ready` with the immutable output every
//! later submitter replays. Failed executions are evicted so a retry
//! re-executes instead of replaying the error forever; only successes
//! are cached.

use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use crate::disk::RecordLoc;

/// Where a cached result's labelled JSONL event stream lives.
#[derive(Debug, Clone)]
pub enum EventStream {
    /// In memory, the only copy: the worker has no log, or the append
    /// failed or tore.
    Held(String),
    /// In the worker's segment log, read back only for a request that
    /// asks for the stream.
    Logged(RecordLoc),
}

/// Everything one successful execution produced, cached immutably.
#[derive(Debug, Clone)]
pub struct JobOutput {
    /// Canonical cache key, as the wire-format hex string.
    pub key: String,
    /// The run's canonical `SimStats` JSON — the response payload,
    /// byte-identical on every replay.
    pub stats_json: String,
    /// The JSONL event stream captured during the run.
    pub jsonl: EventStream,
}

#[derive(Debug)]
enum SlotState {
    /// Execution in flight; waiters block on the condvar.
    Pending,
    /// Execution finished; the output is immutable from here on.
    Ready(Arc<JobOutput>),
    /// Execution failed (or was rejected at admission); waiters get the
    /// error, and the slot is evicted so a retry re-executes.
    Failed(String),
}

/// One cache entry's synchronization point.
#[derive(Debug)]
pub struct Slot {
    state: Mutex<SlotState>,
    cv: Condvar,
}

/// Generous upper bound on how long a waiter will block on an in-flight
/// execution before giving up; standard-size runs finish in seconds.
const WAIT_LIMIT: Duration = Duration::from_secs(600);

impl Slot {
    fn new() -> Arc<Slot> {
        Arc::new(Slot {
            state: Mutex::new(SlotState::Pending),
            cv: Condvar::new(),
        })
    }

    /// Blocks until the in-flight execution resolves, or for at most
    /// `WAIT_LIMIT` in all.
    pub fn wait(&self) -> Result<Arc<JobOutput>, String> {
        let state = self.state.lock().expect("cache slot poisoned");
        let (state, _) = self
            .cv
            .wait_timeout_while(state, WAIT_LIMIT, |s| matches!(s, SlotState::Pending))
            .expect("cache slot poisoned");
        match &*state {
            SlotState::Ready(out) => Ok(Arc::clone(out)),
            SlotState::Failed(err) => Err(err.clone()),
            SlotState::Pending => Err("timed out waiting for in-flight job".to_owned()),
        }
    }
}

/// Result of a cache probe.
#[derive(Debug)]
pub enum Lookup {
    /// The output is already cached; replay it.
    Hit(Arc<JobOutput>),
    /// An identical job is executing right now; wait on the slot.
    InFlight(Arc<Slot>),
    /// The caller claimed the key and must execute the job, then call
    /// [`ResultCache::fill`] or [`ResultCache::fail`] on this slot.
    Claimed(Arc<Slot>),
}

/// The content-addressed cache. Probing is a single small critical
/// section; execution and waiting happen outside the map lock. Hits,
/// misses and coalesced waits are counted by the callers, in the obs
/// counters.
#[derive(Debug, Default)]
pub struct ResultCache {
    slots: Mutex<HashMap<u64, Arc<Slot>>>,
}

impl ResultCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Probes `key`, atomically claiming it when absent so exactly one
    /// caller executes each distinct job.
    pub fn lookup_or_claim(&self, key: u64) -> Lookup {
        let mut slots = self.slots.lock().expect("cache map poisoned");
        if let Some(slot) = slots.get(&key) {
            let slot = Arc::clone(slot);
            drop(slots);
            let state = slot.state.lock().expect("cache slot poisoned");
            return match &*state {
                SlotState::Ready(out) => Lookup::Hit(Arc::clone(out)),
                // `Failed` slots are evicted under the map lock before
                // release, so a mapped slot is Ready or Pending.
                _ => {
                    drop(state);
                    Lookup::InFlight(slot)
                }
            };
        }
        let slot = Slot::new();
        slots.insert(key, Arc::clone(&slot));
        Lookup::Claimed(slot)
    }

    /// Publishes a successful execution: waiters wake with the output
    /// and the entry stays cached.
    pub fn fill(&self, slot: &Arc<Slot>, output: JobOutput) -> Arc<JobOutput> {
        let output = Arc::new(output);
        let mut state = slot.state.lock().expect("cache slot poisoned");
        *state = SlotState::Ready(Arc::clone(&output));
        drop(state);
        slot.cv.notify_all();
        output
    }

    /// Publishes a failed execution: waiters wake with the error and
    /// the key is evicted so a later retry re-executes.
    pub fn fail(&self, key: u64, slot: &Arc<Slot>, error: String) {
        // Evict first (map lock, then slot lock) so no new waiter can
        // coalesce onto a slot that is about to fail.
        let mut slots = self.slots.lock().expect("cache map poisoned");
        if slots
            .get(&key)
            .is_some_and(|mapped| Arc::ptr_eq(mapped, slot))
        {
            slots.remove(&key);
        }
        let mut state = slot.state.lock().expect("cache slot poisoned");
        *state = SlotState::Failed(error);
        drop(state);
        drop(slots);
        slot.cv.notify_all();
    }

    /// The cached output for `key`, if it is ready. Never claims.
    pub fn get(&self, key: u64) -> Option<Arc<JobOutput>> {
        let slots = self.slots.lock().expect("cache map poisoned");
        let state = slots.get(&key)?.state.lock().expect("cache slot poisoned");
        match &*state {
            SlotState::Ready(out) => Some(Arc::clone(out)),
            _ => None,
        }
    }

    /// Number of cached (ready) results.
    pub fn entries(&self) -> usize {
        let slots = self.slots.lock().expect("cache map poisoned");
        slots
            .values()
            .filter(|slot| {
                matches!(
                    &*slot.state.lock().expect("cache slot poisoned"),
                    SlotState::Ready(_)
                )
            })
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::thread;

    fn output(key: u64) -> JobOutput {
        JobOutput {
            key: format!("{key:016x}"),
            stats_json: format!("{{\"k\":{key}}}"),
            jsonl: EventStream::Held(String::new()),
        }
    }

    #[test]
    fn claim_fill_hit_replays_identical_output() {
        let cache = ResultCache::new();
        let slot = match cache.lookup_or_claim(7) {
            Lookup::Claimed(slot) => slot,
            other => panic!("expected claim, got {other:?}"),
        };
        cache.fill(&slot, output(7));
        for _ in 0..3 {
            match cache.lookup_or_claim(7) {
                Lookup::Hit(out) => assert_eq!(out.stats_json, "{\"k\":7}"),
                other => panic!("expected hit, got {other:?}"),
            }
        }
        assert_eq!(cache.entries(), 1);
    }

    #[test]
    fn failure_evicts_so_retry_reclaims() {
        let cache = ResultCache::new();
        let slot = match cache.lookup_or_claim(9) {
            Lookup::Claimed(slot) => slot,
            other => panic!("expected claim, got {other:?}"),
        };
        cache.fail(9, &slot, "boom".to_owned());
        assert_eq!(slot.wait().expect_err("failed slot"), "boom");
        match cache.lookup_or_claim(9) {
            Lookup::Claimed(_) => {}
            other => panic!("expected a fresh claim after failure, got {other:?}"),
        }
        assert_eq!(cache.entries(), 0);
    }

    #[test]
    fn concurrent_submitters_single_flight() {
        let cache = Arc::new(ResultCache::new());
        let claims = Arc::new(AtomicU64::new(0));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let cache = Arc::clone(&cache);
            let claims = Arc::clone(&claims);
            handles.push(thread::spawn(move || -> String {
                match cache.lookup_or_claim(42) {
                    Lookup::Hit(out) => out.stats_json.clone(),
                    Lookup::InFlight(slot) => slot.wait().expect("fills").stats_json.clone(),
                    Lookup::Claimed(slot) => {
                        claims.fetch_add(1, Ordering::Relaxed);
                        // Simulate a slow execution so peers coalesce.
                        thread::sleep(Duration::from_millis(30));
                        cache.fill(&slot, output(42)).stats_json.clone()
                    }
                }
            }));
        }
        let results: Vec<String> = handles
            .into_iter()
            .map(|h| h.join().expect("no panic"))
            .collect();
        assert_eq!(claims.load(Ordering::Relaxed), 1, "exactly one execution");
        assert!(results.iter().all(|r| r == "{\"k\":42}"));
    }
}
