//! Placement machinery common to every technique: per-core run queues
//! with waiting-time estimates ([`CoreQueues`]) and largest-remainder
//! core apportionment ([`apportion_cores`]). The techniques differ only
//! in the policy they run on top.

use crate::engine::EngineCore;
use crate::ids::SfId;
use schedtask_obs::{ObsEvent, StealLevel};
use schedtask_workload::{SfCategory, SuperFuncType};
use std::collections::{HashMap, VecDeque};

/// Default per-segment execution estimate before a type has history
/// (cycles).
const DEFAULT_EXEC_ESTIMATE: f64 = 3_000.0;

/// Per-core runnable queues with waiting-time estimates. Bottom halves
/// (softirqs) jump to the queue front, as in the Linux kernel; everything
/// else is FCFS.
#[derive(Debug, Clone)]
pub struct CoreQueues {
    queues: Vec<VecDeque<SfId>>,
    waiting: Vec<f64>,
    mean_exec: HashMap<SuperFuncType, (u64, f64)>,
}

impl CoreQueues {
    /// Creates empty queues for `num_cores` cores.
    pub fn new(num_cores: usize) -> Self {
        CoreQueues {
            queues: vec![VecDeque::new(); num_cores],
            waiting: vec![0.0; num_cores],
            mean_exec: HashMap::new(),
        }
    }

    /// Number of cores.
    pub fn num_cores(&self) -> usize {
        self.queues.len()
    }

    /// Estimated per-segment execution time of `ty`.
    pub fn exec_estimate(&self, ty: SuperFuncType) -> f64 {
        match self.mean_exec.get(&ty) {
            Some(&(n, total)) if n > 0 => total / n as f64,
            _ => DEFAULT_EXEC_ESTIMATE,
        }
    }

    /// Records an executed segment so future estimates improve.
    pub fn record_exec(&mut self, ty: SuperFuncType, cycles: u64) {
        let e = self.mean_exec.entry(ty).or_insert((0, 0.0));
        e.0 += 1;
        e.1 += cycles as f64;
    }

    /// Replaces `ty`'s history with one segment of `mean` cycles, so
    /// [`exec_estimate`](Self::exec_estimate) returns `mean` exactly
    /// (TAlloc's per-epoch means).
    pub fn set_estimate(&mut self, ty: SuperFuncType, mean: f64) {
        self.mean_exec.insert(ty, (1, mean));
    }

    /// Enqueues `sf` on `core` (bottom halves at the front), emitting an
    /// `Enqueued` event.
    pub fn push(&mut self, ctx: &EngineCore, core: usize, sf: SfId) {
        let at = ctx.now();
        ctx.emit_obs(|| ObsEvent::Enqueued {
            at,
            sf: sf.0,
            core: core as u32,
        });
        self.insert(ctx, core, sf);
    }

    /// Enqueues `sf` on `core` like [`push`](Self::push), without an
    /// event (a re-queue of work that was just stolen).
    pub fn insert(&mut self, ctx: &EngineCore, core: usize, sf: SfId) {
        let ty = ctx.sf_type(sf);
        self.waiting[core] += self.exec_estimate(ty);
        if ty.category() == SfCategory::BottomHalf {
            self.queues[core].push_front(sf);
        } else {
            self.queues[core].push_back(sf);
        }
    }

    /// Pops the head of `core`'s queue.
    pub fn pop(&mut self, ctx: &EngineCore, core: usize) -> Option<SfId> {
        let sf = self.queues[core].pop_front()?;
        let ty = ctx.sf_type(sf);
        self.waiting[core] = (self.waiting[core] - self.exec_estimate(ty)).max(0.0);
        Some(sf)
    }

    /// Removes the element at `pos` in `core`'s queue; `None` if `pos`
    /// is out of range (callers compute positions over the same queue in
    /// the same borrow, so `None` indicates a caller bug).
    pub fn remove_at(&mut self, ctx: &EngineCore, core: usize, pos: usize) -> Option<SfId> {
        let sf = self.queues[core].remove(pos)?;
        let ty = ctx.sf_type(sf);
        self.waiting[core] = (self.waiting[core] - self.exec_estimate(ty)).max(0.0);
        Some(sf)
    }

    /// Estimated waiting time of `core`'s queue in cycles.
    pub fn waiting(&self, core: usize) -> f64 {
        self.waiting[core]
    }

    /// Read access to `core`'s queue.
    pub fn queue(&self, core: usize) -> &VecDeque<SfId> {
        &self.queues[core]
    }

    /// The core in `candidates` with the least waiting time
    /// (deterministic tie-break on index).
    ///
    /// # Panics
    ///
    /// Panics if `candidates` is empty.
    pub fn least_loaded(&self, candidates: impl IntoIterator<Item = usize>) -> usize {
        candidates
            .into_iter()
            .min_by(|&a, &b| {
                self.waiting[a]
                    .partial_cmp(&self.waiting[b])
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(a.cmp(&b))
            })
            .expect("candidate set must not be empty")
    }

    /// The non-empty core in `candidates` with the most waiting time.
    pub fn most_loaded_nonempty(
        &self,
        candidates: impl IntoIterator<Item = usize>,
    ) -> Option<usize> {
        candidates
            .into_iter()
            .filter(|&c| !self.queues[c].is_empty())
            .max_by(|&a, &b| {
                self.waiting[a]
                    .partial_cmp(&self.waiting[b])
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(b.cmp(&a))
            })
    }

    /// Steals the head of the most-loaded non-empty queue among
    /// `candidates`, excluding `me`, and emits a `Stolen` event at
    /// `level`.
    pub fn steal_any(
        &mut self,
        ctx: &EngineCore,
        me: usize,
        candidates: impl IntoIterator<Item = usize>,
        level: StealLevel,
    ) -> Option<SfId> {
        let victim = self.most_loaded_nonempty(candidates.into_iter().filter(|&c| c != me))?;
        let sf = self.pop(ctx, victim)?;
        let at = ctx.now();
        ctx.emit_obs(|| ObsEvent::Stolen {
            at,
            sf: sf.0,
            thief: me as u32,
            victim: victim as u32,
            level,
        });
        Some(sf)
    }

    /// Appends every queued SuperFunction to `out` (the
    /// [`crate::Scheduler::queued_sfs`] sanitizer hook).
    pub fn all_queued(&self, out: &mut Vec<SfId>) {
        for q in &self.queues {
            out.extend(q.iter().copied());
        }
    }
}

/// Apportions `cores` cores in proportion to `weights` by the largest
/// remainder method and hands each key a run of consecutive core ids.
///
/// Each key's quota is `weight / total * cores`; it gets the floor of its
/// quota, and the leftover cores go to the largest remainders, ties in
/// `weights` order (callers pass keys sorted, so ties break in key
/// order). Keys that end with no core are left out. Returns `None` when
/// the weights sum to zero.
pub fn apportion_cores<K: Copy>(
    weights: &[(K, u64)],
    cores: usize,
) -> Option<Vec<(K, Vec<usize>)>> {
    let total: u64 = weights.iter().map(|&(_, w)| w).sum();
    if total == 0 {
        return None;
    }
    let mut shares: Vec<(K, usize, f64)> = weights
        .iter()
        .map(|&(key, w)| {
            let quota = w as f64 / total as f64 * cores as f64;
            (key, quota.floor() as usize, quota - quota.floor())
        })
        .collect();
    let assigned: usize = shares.iter().map(|s| s.1).sum();
    let mut leftover = cores.saturating_sub(assigned);
    let mut order: Vec<usize> = (0..shares.len()).collect();
    order.sort_by(|&a, &b| {
        shares[b]
            .2
            .partial_cmp(&shares[a].2)
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    for &i in &order {
        if leftover == 0 {
            break;
        }
        shares[i].1 += 1;
        leftover -= 1;
    }
    let mut next = 0;
    let mut runs = Vec::new();
    for (key, count, _) in shares {
        if count > 0 {
            runs.push((key, (next..next + count).map(|c| c % cores).collect()));
            next += count;
        }
    }
    Some(runs)
}

#[cfg(test)]
mod tests {
    use super::*;

    // CoreQueues is exercised with a real EngineCore in the scheduler
    // integration tests; here we test the parts that need no context.

    #[test]
    fn least_loaded_prefers_lowest_index_on_ties() {
        let q = CoreQueues::new(4);
        assert_eq!(q.least_loaded(0..4), 0);
        assert_eq!(q.least_loaded([2, 3]), 2);
    }

    #[test]
    fn estimates_default_then_learn() {
        let mut q = CoreQueues::new(1);
        let ty = SuperFuncType::new(SfCategory::SystemCall, 3);
        assert_eq!(q.exec_estimate(ty), 3_000.0);
        q.record_exec(ty, 100);
        q.record_exec(ty, 300);
        assert_eq!(q.exec_estimate(ty), 200.0);
        // A set estimate replaces the history and reads back bit for bit.
        let mean = 1_234.567_891_f64;
        q.set_estimate(ty, mean);
        assert_eq!(q.exec_estimate(ty).to_bits(), mean.to_bits());
    }

    #[test]
    fn most_loaded_nonempty_ignores_empty() {
        let q = CoreQueues::new(3);
        assert_eq!(q.most_loaded_nonempty(0..3), None);
    }

    #[test]
    #[should_panic(expected = "must not be empty")]
    fn least_loaded_empty_candidates_panics() {
        CoreQueues::new(2).least_loaded(std::iter::empty());
    }

    #[test]
    fn apportionment_hands_out_every_core_in_runs() {
        // Quotas 2.5, 1.25 and 0.25 on 4 cores: floors 2 and 1, and the
        // leftover core goes to the largest remainder, the first key.
        let runs = apportion_cores(&[('a', 10), ('b', 5), ('c', 1)], 4);
        assert_eq!(runs, Some(vec![('a', vec![0, 1, 2]), ('b', vec![3])]));
        // Equal remainders break ties in key order.
        let runs = apportion_cores(&[('a', 1), ('b', 1), ('c', 1)], 2);
        assert_eq!(runs, Some(vec![('a', vec![0]), ('b', vec![1])]));
        assert_eq!(apportion_cores(&[('a', 0)], 4), None);
        assert_eq!(apportion_cores::<char>(&[], 4), None);
    }
}
