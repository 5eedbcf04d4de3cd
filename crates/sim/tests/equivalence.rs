//! Observational-equivalence proptests for the data-oriented hot-path
//! rewrites.
//!
//! Each test replays a random operation stream through the production
//! structure and through a straightforward reference model written in
//! the style of the *old* implementation (per-set `Vec<Vec<u64>>` for
//! the cache, front-is-MRU `Vec` for the TLB, `HashMap` for the
//! directory), asserting the observable behaviour — hit/miss sequences,
//! invalidation sets, outcomes — is identical step for step.
//! The flat layouts are pure wall-clock optimizations; these tests pin
//! that contract.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use schedtask_sim::cache::LEGACY_RNG_SEED;
use schedtask_sim::coherence::{Directory, LineState, ReadOutcome};
use schedtask_sim::{CacheParams, ReplacementPolicy, SetAssocCache, Tlb};
use std::collections::HashMap;

/// The cache's victim RNG (xorshift64*), replicated so the reference
/// model draws the identical victim sequence under `Random`.
fn next_random(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    *state = x;
    x.wrapping_mul(0x2545_F491_4F6C_DD1D)
}

/// Reference set-associative cache: one `Vec<u64>` per set, front = MRU
/// (the layout `SetAssocCache` used before the flat rewrite).
struct RefCache {
    sets: Vec<Vec<u64>>,
    assoc: usize,
    policy: ReplacementPolicy,
    rng_state: u64,
}

impl RefCache {
    fn new(num_sets: usize, assoc: usize, policy: ReplacementPolicy) -> Self {
        RefCache {
            sets: vec![Vec::new(); num_sets],
            assoc,
            policy,
            rng_state: LEGACY_RNG_SEED,
        }
    }

    /// Looks `line` up and inserts it on a miss.
    fn access(&mut self, line: u64) -> bool {
        let num_sets = self.sets.len() as u64;
        let set = &mut self.sets[(line % num_sets) as usize];
        if let Some(pos) = set.iter().position(|&l| l == line) {
            if self.policy == ReplacementPolicy::Lru {
                set.remove(pos);
                set.insert(0, line);
            }
            true
        } else {
            if set.len() == self.assoc {
                let victim = match self.policy {
                    ReplacementPolicy::Lru | ReplacementPolicy::Fifo => set.len() - 1,
                    ReplacementPolicy::Random => {
                        (next_random(&mut self.rng_state) % set.len() as u64) as usize
                    }
                };
                set.remove(victim);
            }
            set.insert(0, line);
            false
        }
    }

    fn probe(&self, line: u64) -> bool {
        self.sets[(line % self.sets.len() as u64) as usize].contains(&line)
    }

    fn invalidate(&mut self, line: u64) -> bool {
        let num_sets = self.sets.len() as u64;
        let set = &mut self.sets[(line % num_sets) as usize];
        if let Some(pos) = set.iter().position(|&l| l == line) {
            set.remove(pos);
            true
        } else {
            false
        }
    }

    fn resident(&self) -> usize {
        self.sets.iter().map(Vec::len).sum()
    }
}

fn policy_strategy() -> impl Strategy<Value = ReplacementPolicy> {
    (0u8..3).prop_map(|p| match p {
        0 => ReplacementPolicy::Lru,
        1 => ReplacementPolicy::Fifo,
        _ => ReplacementPolicy::Random,
    })
}

/// Replays `ops` through a flat cache of `sets` sets x `assoc` ways and
/// the reference model, asserting equal results for every access and
/// invalidation, equal residency at the end, and equal residency of
/// every line the stream used. Selector: 0-3 and 8-9 access a fresh
/// line, 4-7 and 10 access the previous op's line again (the MRU hit),
/// 11 invalidate a fresh line, 12 invalidate the previous line and
/// access it again, 13 flush (the next repeat then asks for a line whose
/// stale tag still sits in its set's first way). A fresh line is `base +
/// fresh`; every `far_every`th operation uses `far(fresh)` in its place.
fn replay(
    sets: u64,
    assoc: u32,
    policy: ReplacementPolicy,
    ops: &[(u8, u64)],
    base: u64,
    far_every: usize,
    far: impl Fn(u64) -> u64,
) -> Result<(), TestCaseError> {
    let params = CacheParams::new(sets * 64 * u64::from(assoc), assoc, 1);
    let mut fast = SetAssocCache::with_policy(params, policy);
    let mut reference = RefCache::new(sets as usize, assoc as usize, policy);
    let mut prev = base;
    let mut seen = vec![prev];
    for (i, &(sel, fresh)) in ops.iter().enumerate() {
        let repeat = matches!(sel, 4..=7 | 10 | 12);
        let l = if i % far_every == far_every - 1 {
            far(fresh)
        } else if repeat {
            prev
        } else {
            base + fresh
        };
        match sel {
            0..=10 => {
                prop_assert_eq!(
                    fast.access(l),
                    reference.access(l),
                    "access #{} line {}",
                    i,
                    l
                );
            }
            11 => {
                prop_assert_eq!(fast.invalidate(l), reference.invalidate(l));
            }
            12 => {
                prop_assert_eq!(fast.invalidate(l), reference.invalidate(l));
                prop_assert_eq!(fast.access(l), reference.access(l), "re-access #{}", i);
            }
            _ => {
                // Keep `prev`: its stale tag still sits in way 0.
                fast.flush();
                reference.sets.iter_mut().for_each(Vec::clear);
                continue;
            }
        }
        prev = l;
        seen.push(l);
    }
    prop_assert_eq!(fast.resident_lines(), reference.resident());
    for l in seen {
        prop_assert_eq!(fast.probe(l), reference.probe(l), "probe {}", l);
    }
    Ok(())
}

/// Operation streams of up to `max_len` operations over fresh lines
/// `0..lines`.
fn ops_strategy(lines: u64, max_len: usize) -> impl Strategy<Value = Vec<(u8, u64)>> {
    prop::collection::vec((0u8..14, 0..lines), 0..max_len)
}

/// `ops` with all but one in sixteen flushes turned into accesses of a
/// fresh line. A flush every 14 operations on average empties an 8-way
/// set long before it fills, so its deep ways and its evictions would
/// go untested.
fn rare_flushes(ops: &[(u8, u64)]) -> Vec<(u8, u64)> {
    ops.iter()
        .map(|&(sel, fresh)| match sel {
            13 if fresh % 16 != 0 => (0, fresh),
            _ => (sel, fresh),
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The flat cache and the reference per-set-`Vec` model agree under
    /// all three replacement policies on a 4-way stream whose every
    /// 37th line lies past `u32::MAX`, so the first such line widens the
    /// tag store and the lane path stops there.
    #[test]
    fn cache_matches_reference_model(policy in policy_strategy(), ops in ops_strategy(512, 400)) {
        replay(8, 4, policy, &ops, 0, 37, |fresh| fresh + (u32::MAX as u64 + 1))?;
    }

    /// The same agreement on 2-, 4- and 8-way streams whose every tag
    /// fits in 16 bits (every 37th line's tag is one of the 16 largest),
    /// so the store keeps its lanes throughout and every operation takes
    /// the lane path. Sixteen fresh lines per set make hits below the
    /// MRU way, and the evictions whose order they decide, common; each
    /// stream is replayed as drawn and with rare flushes, so 8-way sets
    /// fill.
    #[test]
    fn narrow_cache_matches_reference_model(
        policy in policy_strategy(),
        ops in ops_strategy(128, 1000),
    ) {
        for ops in [ops.clone(), rare_flushes(&ops)] {
            for assoc in [2, 4, 8] {
                replay(8, assoc, policy, &ops, 0, 37, |fresh| (1 << 19) - 1 - fresh)?;
            }
        }
    }

    /// Streams whose tags cross from `0xFFFF` to `0x10000`: sixteen fresh
    /// lines per set with tags `0xFFF0..=0xFFFF` take the lane path until
    /// the 149th operation's line, whose tag is 17 bits wide, widens the
    /// store (most sets are full by then); the rest of the stream replays
    /// on the line ids the widening rebuilt from each way's tag and set.
    /// One geometry has 6 sets, so its tags and set indices come from a
    /// division, not a shift.
    #[test]
    fn tags_crossing_16_bits_match_reference_model(
        policy in policy_strategy(),
        ops in ops_strategy(768, 1000),
    ) {
        for (sets, assoc) in [(8, 4), (6, 8)] {
            let base = 0xFFF0 * sets;
            let ops: Vec<(u8, u64)> = rare_flushes(&ops)
                .into_iter()
                .map(|(sel, fresh)| (sel, fresh % (16 * sets)))
                .collect();
            replay(sets, assoc, policy, &ops, base, 149, |fresh| base + 16 * sets + fresh)?;
        }
    }
}

proptest! {
    /// The open-addressed TLB and a front-is-MRU `Vec` reference LRU
    /// agree on every access over random page streams with interleaved
    /// flushes. Selector: 0 flush, 1-4 the previous page again (the
    /// inline MRU hit, also right after a flush), 5-9 a fresh page.
    #[test]
    fn tlb_matches_reference_lru(
        entries in 1usize..24,
        ops in prop::collection::vec((0u8..10, 0u64..200), 0..600),
    ) {
        let mut tlb = Tlb::new(entries);
        let mut reference: Vec<u64> = Vec::new(); // front = MRU
        let mut prev = 0u64;
        for &(sel, fresh) in &ops {
            if sel == 0 {
                tlb.flush();
                reference.clear();
                continue;
            }
            let page = if sel <= 4 { prev } else { fresh };
            prev = page;
            let expect = if let Some(pos) = reference.iter().position(|&p| p == page) {
                reference.remove(pos);
                reference.insert(0, page);
                true
            } else {
                if reference.len() == entries {
                    reference.pop();
                }
                reference.insert(0, page);
                false
            };
            prop_assert_eq!(tlb.access(page), expect, "page {}", page);
            prop_assert_eq!(tlb.resident_entries(), reference.len());
        }
    }
}

/// Reference MSI directory: the `HashMap` the open-addressed table
/// replaced. Sharers as a sorted list of cores (the old `Vec<usize>`).
#[derive(Default)]
struct RefDirectory {
    lines: HashMap<u64, (Vec<usize>, bool)>, // (sharers ascending, modified)
}

impl RefDirectory {
    fn on_read(&mut self, core: usize, line: u64) -> ReadOutcome {
        let (sharers, modified) = self.lines.entry(line).or_default();
        if *modified && !sharers.contains(&core) {
            let owner = sharers[0];
            *modified = false;
            sharers.push(core);
            sharers.sort_unstable();
            ReadOutcome::CacheToCache { owner }
        } else {
            if !sharers.contains(&core) {
                sharers.push(core);
                sharers.sort_unstable();
            }
            ReadOutcome::FromMemoryPath
        }
    }

    /// Returns (invalidation set ascending, silent).
    fn on_write(&mut self, core: usize, line: u64) -> (Vec<usize>, bool) {
        let (sharers, modified) = self.lines.entry(line).or_default();
        if *modified && sharers.as_slice() == [core] {
            return (Vec::new(), true);
        }
        let others: Vec<usize> = sharers.iter().copied().filter(|&c| c != core).collect();
        *sharers = vec![core];
        *modified = true;
        (others, false)
    }

    fn state_of(&self, line: u64) -> LineState {
        match self.lines.get(&line) {
            None => LineState::Invalid,
            Some((s, _)) if s.is_empty() => LineState::Invalid,
            Some((_, true)) => LineState::Modified,
            Some((_, false)) => LineState::Shared,
        }
    }
}

proptest! {
    /// The open-addressed directory and the `HashMap` reference agree on
    /// every read outcome, every write's exact invalidation set (as an
    /// ascending core list, the old `Vec<usize>` representation) and
    /// silent flag, per-line states, and the tracked-line count.
    /// Selector: 0-2 read, 3-4 write. Line ids are spread over a wide
    /// range so the table grows and probe chains wrap.
    #[test]
    fn directory_matches_reference_model(
        ops in prop::collection::vec((0u8..5, 0usize..32, 0u64..(1 << 40)), 0..500),
    ) {
        let mut fast = Directory::new(32);
        let mut reference = RefDirectory::default();
        let mut touched = Vec::new();
        for (i, &(sel, c, l)) in ops.iter().enumerate() {
            match sel {
                0..=2 => {
                    touched.push(l);
                    prop_assert_eq!(fast.on_read(c, l), reference.on_read(c, l), "read #{}", i);
                }
                _ => {
                    touched.push(l);
                    let out = fast.on_write(c, l);
                    let (ref_inval, ref_silent) = reference.on_write(c, l);
                    let inval: Vec<usize> = out.invalidate.iter().collect();
                    prop_assert_eq!(inval, ref_inval, "write #{} invalidation set", i);
                    prop_assert_eq!(out.silent, ref_silent, "write #{} silent flag", i);
                }
            }
        }
        prop_assert_eq!(fast.tracked_lines(), reference.lines.len());
        for &l in &touched {
            prop_assert_eq!(fast.state_of(l), reference.state_of(l), "state of {}", l);
        }
    }
}
