//! The fleet workloads' key stream, generated from the workload seed.

use schedtask_experiments::{JobSpec, Technique};
use schedtask_workload::BenchmarkKind;

/// Distinct keys executed once during set-up; `fleet_hot` replays only
/// these.
pub const WARM_KEYS: usize = 64;

/// SplitMix64 finaliser.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Key `k` of the stream for `seed`: the `repro loadgen` job shape
/// (SchedTask on Find, 1–2 cores, 30 k + 10 k instructions) with a
/// simulation seed drawn from the workload seed.
pub fn spec(seed: u64, k: u64) -> JobSpec {
    let mut spec = JobSpec::new(Technique::SchedTask, BenchmarkKind::Find);
    spec.params.cores = 1 + (k % 2) as usize;
    spec.params.max_instructions = 30_000;
    spec.params.warmup_instructions = 10_000;
    spec.params.epoch_cycles = 10_000;
    spec.params.seed = splitmix64(splitmix64(seed) ^ k);
    spec
}

/// Index into the warm keys of `fleet_hot`'s `i`-th timed request.
pub fn hot_pick(seed: u64, i: u64) -> u64 {
    splitmix64(seed.rotate_left(17) ^ i) % WARM_KEYS as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn stream_is_deterministic() {
        for k in [0, 1, 63, 64, 5_000] {
            assert_eq!(
                spec(7, k).to_request_line(None, false),
                spec(7, k).to_request_line(None, false)
            );
        }
        let picks: Vec<u64> = (0..100).map(|i| hot_pick(7, i)).collect();
        assert_eq!(picks, (0..100).map(|i| hot_pick(7, i)).collect::<Vec<_>>());
        assert!(picks.iter().all(|&p| p < WARM_KEYS as u64));
    }

    #[test]
    fn keys_are_distinct_within_and_across_seeds() {
        let mut seen = HashSet::new();
        for seed in 0..4 {
            for k in 0..5_000 {
                assert!(
                    seen.insert(spec(seed, k).cache_key()),
                    "seed {seed} key {k} repeats"
                );
            }
        }
    }

    #[test]
    fn hot_picks_cover_every_warm_key() {
        let picked: HashSet<u64> = (0..10_000).map(|i| hot_pick(3, i)).collect();
        assert_eq!(picked.len(), WARM_KEYS);
        assert_ne!(
            (0..64).map(|i| hot_pick(3, i)).collect::<Vec<_>>(),
            (0..64).map(|i| hot_pick(4, i)).collect::<Vec<_>>()
        );
    }
}
