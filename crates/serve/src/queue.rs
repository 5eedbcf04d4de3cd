//! The bounded admission queue between connection handlers and the
//! executors.
//!
//! Submissions beyond capacity are rejected immediately with a
//! [`Backpressure`] hint instead of blocking the client — admission
//! control, not unbounded buffering. Each executor blocks on
//! [`JobQueue::next`], which hands it one job, so an idle executor
//! takes the next queued job instead of waiting for a busy one.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};

use schedtask_experiments::JobSpec;

use crate::cache::Slot;

/// One admitted job: the spec, its canonical key, and the cache slot
/// the executor must fill.
#[derive(Debug)]
pub struct QueuedJob {
    /// The fully-resolved job.
    pub spec: JobSpec,
    /// Canonical cache key of `spec`.
    pub key: u64,
    /// The claimed cache slot awaiting this job's output.
    pub slot: Arc<Slot>,
}

/// Rejection response data for a full queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Backpressure {
    /// Queue depth at rejection time (equals capacity).
    pub depth: usize,
    /// Suggested client back-off before retrying.
    pub retry_after_ms: u64,
}

/// Why a submission was not admitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The queue is at capacity — transient; retry after the hint.
    Full(Backpressure),
    /// The queue is closed (daemon shutting down) — terminal; retrying
    /// this endpoint will never succeed.
    Closed,
}

#[derive(Debug, Default)]
struct QueueInner {
    jobs: VecDeque<QueuedJob>,
    /// Jobs taken by an executor but not yet finished — they still
    /// occupy executors, so the backpressure hint must account for them.
    in_flight: usize,
    closed: bool,
}

/// A bounded multi-producer, multi-consumer queue.
#[derive(Debug)]
pub struct JobQueue {
    inner: Mutex<QueueInner>,
    cv: Condvar,
    capacity: usize,
}

impl JobQueue {
    /// A queue admitting at most `capacity` jobs at once.
    pub fn new(capacity: usize) -> Self {
        JobQueue {
            inner: Mutex::new(QueueInner::default()),
            cv: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current queue depth.
    pub fn depth(&self) -> usize {
        self.inner.lock().expect("job queue poisoned").jobs.len()
    }

    /// Jobs taken by an executor but not yet finished.
    pub fn in_flight(&self) -> usize {
        self.inner.lock().expect("job queue poisoned").in_flight
    }

    /// Admits a job, or rejects it when the queue is full or closed.
    ///
    /// A [`SubmitError::Closed`] rejection is terminal — producers must
    /// observe shutdown promptly and report a hard error, not a
    /// backpressure hint that invites a futile retry.
    pub fn submit(&self, job: QueuedJob) -> Result<(), SubmitError> {
        let mut inner = self.inner.lock().expect("job queue poisoned");
        if inner.closed {
            return Err(SubmitError::Closed);
        }
        if inner.jobs.len() >= self.capacity {
            let depth = inner.jobs.len();
            // The backlog a new job waits behind is the queue *plus*
            // the jobs the executors are running right now; a hint
            // derived from queue depth alone under-estimates drain
            // time whenever an executor is busy.
            let backlog = depth + inner.in_flight;
            drop(inner);
            return Err(SubmitError::Full(Backpressure {
                depth,
                // Scale the hint with the backlog: a fuller pipeline
                // takes longer to drain. Clamped so clients neither
                // spin nor stall.
                retry_after_ms: (backlog as u64 * 100).clamp(100, 5_000),
            }));
        }
        inner.jobs.push_back(job);
        drop(inner);
        self.cv.notify_one();
        Ok(())
    }

    /// Blocks until a job is queued, then takes it. Returns `None` once
    /// the queue is closed and empty (executor shutdown).
    pub fn next(&self) -> Option<QueuedJob> {
        let mut inner = self.inner.lock().expect("job queue poisoned");
        loop {
            if let Some(job) = inner.jobs.pop_front() {
                inner.in_flight += 1;
                return Some(job);
            }
            if inner.closed {
                return None;
            }
            inner = self.cv.wait(inner).expect("job queue poisoned");
        }
    }

    /// Marks one taken job as finished; its executor calls this after
    /// publishing the result so backpressure hints deflate again.
    pub fn finish(&self) {
        let mut inner = self.inner.lock().expect("job queue poisoned");
        inner.in_flight = inner.in_flight.saturating_sub(1);
    }

    /// Closes the queue: future submissions are rejected, and
    /// [`JobQueue::next`] returns `None` once drained.
    pub fn close(&self) {
        let mut inner = self.inner.lock().expect("job queue poisoned");
        inner.closed = true;
        drop(inner);
        self.cv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use schedtask_experiments::serve_api::{parse_request, RequestOp};

    fn job(line: &str) -> QueuedJob {
        let spec = match parse_request(line).expect("parses").op {
            RequestOp::Run(spec, _) => *spec,
            other => panic!("expected run, got {other:?}"),
        };
        let key = spec.cache_key();
        // A claimed slot, as the server would hold it.
        let slot = match crate::cache::ResultCache::new().lookup_or_claim(key) {
            crate::cache::Lookup::Claimed(slot) => slot,
            other => panic!("fresh cache must claim, got {other:?}"),
        };
        QueuedJob { spec, key, slot }
    }

    fn full_rejection(err: SubmitError) -> Backpressure {
        match err {
            SubmitError::Full(bp) => bp,
            SubmitError::Closed => panic!("expected Full, got Closed"),
        }
    }

    #[test]
    fn rejects_when_full_with_scaled_retry_hint() {
        let q = JobQueue::new(2);
        q.submit(job("{\"workload\":\"Find\"}")).expect("fits");
        q.submit(job("{\"workload\":\"Iscp\"}")).expect("fits");
        let bp = full_rejection(
            q.submit(job("{\"workload\":\"Oscp\"}"))
                .expect_err("must reject"),
        );
        assert_eq!(bp.depth, 2);
        assert_eq!(bp.retry_after_ms, 200);
        assert_eq!(q.depth(), 2);
    }

    #[test]
    fn retry_hint_counts_busy_executors() {
        let q = JobQueue::new(2);
        q.submit(job("{\"workload\":\"Find\"}")).expect("fits");
        q.submit(job("{\"workload\":\"Iscp\"}")).expect("fits");
        // Two executors take one job each; the queue is momentarily
        // empty but both executors are busy.
        q.next().expect("open queue");
        q.next().expect("open queue");
        assert_eq!(q.in_flight(), 2);
        q.submit(job("{\"workload\":\"Oscp\"}")).expect("fits");
        q.submit(job("{\"workload\":\"Dss\"}")).expect("fits");
        let bp = full_rejection(
            q.submit(job("{\"workload\":\"Find\"}"))
                .expect_err("must reject"),
        );
        // Backlog = 2 queued + 2 busy executors, not just the 2 queued.
        assert_eq!(bp.retry_after_ms, 400);
        q.finish();
        q.finish();
        assert_eq!(q.in_flight(), 0);
        let bp = full_rejection(
            q.submit(job("{\"workload\":\"Find\"}"))
                .expect_err("still full"),
        );
        assert_eq!(bp.retry_after_ms, 200, "hint deflates after finish");
    }

    #[test]
    fn close_drains_then_ends() {
        let q = JobQueue::new(4);
        q.submit(job("{\"workload\":\"Find\"}")).expect("fits");
        q.close();
        assert_eq!(
            q.submit(job("{\"workload\":\"Iscp\"}"))
                .expect_err("closed queue rejects"),
            SubmitError::Closed
        );
        assert!(q.next().is_some(), "drains remaining");
        assert!(q.next().is_none());
    }

    #[test]
    fn close_while_full_is_terminal_not_backpressure() {
        // A producer hitting a full queue gets a retry hint; the moment
        // the queue closes, the same producer must get the terminal
        // `Closed` error instead — a backpressure hint would send the
        // client into a retry loop against a dying daemon.
        let q = JobQueue::new(1);
        q.submit(job("{\"workload\":\"Find\"}")).expect("fits");
        assert!(matches!(
            q.submit(job("{\"workload\":\"Iscp\"}")),
            Err(SubmitError::Full(_))
        ));
        q.close();
        assert_eq!(
            q.submit(job("{\"workload\":\"Iscp\"}"))
                .expect_err("closed wins over full"),
            SubmitError::Closed
        );
        // The already-admitted job still drains.
        assert!(q.next().is_some(), "drains");
        assert!(q.next().is_none());
        // And producers keep observing Closed promptly afterwards.
        assert_eq!(
            q.submit(job("{\"workload\":\"Oscp\"}"))
                .expect_err("still closed"),
            SubmitError::Closed
        );
    }
}
