//! Set-associative cache with true-LRU replacement.
//!
//! Addresses are pre-translated to *line identifiers* (`u64`) by the
//! caller; the cache indexes sets with the low-order bits of the line id,
//! exactly as a physically-indexed cache indexes sets with the low-order
//! bits above the line offset.
//!
//! # Data layout
//!
//! All ways of all sets live in one contiguous `Box<[u64]>`: set `s`
//! owns `lines[s*assoc .. (s+1)*assoc]`. Within a set's slice the
//! resident lines are stored *in recency order* — index 0 is the MRU
//! way, the last occupied index the LRU victim — and a packed per-set
//! occupancy array records how many ways are valid, so no sentinel line
//! id is ever needed. This is observationally identical to the previous
//! `Vec<Vec<u64>>` representation (same hit/miss sequence, same
//! victims, same RNG consumption) but with zero pointer chasing: a whole
//! 4–8-way set is one or two hardware cache lines, and recency refresh
//! is a `copy_within` of at most `assoc` words.
//!
//! The common case, a repeat hit on the MRU way of a narrow store, is a
//! few inline instructions in every caller of `access` and `fill`: it
//! changes no state but the hit counter. Everything else (the way
//! search, the LRU rotation, eviction, and tag widening) is one
//! out-of-line call.
//!
//! Tags are stored *narrow* (`u32`) while every resident line id fits in
//! 32 bits — true for all the repo's workloads, whose line ids are dense
//! page numbers — which halves the tag footprint the host's own caches
//! must keep warm across 32 simulated cores. The first access with a
//! line id above `u32::MAX` transparently widens the store to `u64`, so
//! behaviour over arbitrary inputs is unchanged.

use crate::config::CacheParams;

/// Replacement policy for a [`SetAssocCache`].
///
/// The paper's machine uses true LRU everywhere; the alternatives exist
/// for the replacement-policy ablation (`repro ablations`), which shows
/// how much of the core-specialization benefit survives weaker
/// policies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ReplacementPolicy {
    /// True least-recently-used (the default).
    #[default]
    Lru,
    /// First-in-first-out: insertion order, no recency update on hits.
    Fifo,
    /// Pseudo-random victim (deterministic xorshift, seeded per cache).
    Random,
}

/// The historical constant every Random-policy cache was seeded with
/// before per-cache seeding existed. [`SetAssocCache::with_policy`]
/// still uses it for standalone caches;
/// [`SetAssocCache::with_policy_seeded`], which builds every cache of a
/// `MemorySystem`, mixes a caller salt into it.
pub const LEGACY_RNG_SEED: u64 = 0x9E37_79B9_7F4A_7C15;

/// Tag storage: narrow (`u32`) until a line id needs 64 bits, then
/// widened once. Both variants keep set `s` at `[s*assoc..(s+1)*assoc]`,
/// valid entries first, in recency order (index 0 = MRU).
#[derive(Debug, Clone)]
enum TagStore {
    Narrow(Box<[u32]>),
    Wide(Box<[u64]>),
}

/// A set-associative cache with LRU replacement over abstract line ids.
///
/// # Examples
///
/// ```
/// use schedtask_sim::{CacheParams, SetAssocCache};
///
/// let mut c = SetAssocCache::new(CacheParams::new(1024, 2, 1));
/// assert!(!c.access(7));      // cold miss
/// assert!(c.access(7));       // now resident
/// ```
#[derive(Debug, Clone)]
pub struct SetAssocCache {
    params: CacheParams,
    /// All ways, contiguous: set `s` is `lines[s*assoc..(s+1)*assoc]`,
    /// valid entries first, in recency order (index 0 = MRU).
    lines: TagStore,
    /// Packed per-set recency metadata: how many ways of each set hold
    /// valid lines. Together with the in-slice ordering this encodes the
    /// full LRU stack without a sentinel value or per-way flags.
    occupancy: Box<[u16]>,
    assoc: usize,
    num_sets: u64,
    /// `num_sets - 1` when `num_sets` is a power of two (the common
    /// geometry), else 0: lets [`set_index`](Self::set_index) use a mask
    /// instead of a 64-bit division on every access.
    set_mask: u64,
    hits: u64,
    misses: u64,
    policy: ReplacementPolicy,
    rng_state: u64,
}

impl SetAssocCache {
    /// Creates an empty cache with the given geometry and LRU
    /// replacement.
    pub fn new(params: CacheParams) -> Self {
        Self::with_policy(params, ReplacementPolicy::Lru)
    }

    /// Creates an empty cache with an explicit replacement policy and
    /// the legacy shared RNG seed (every Random cache picks the same
    /// victim sequence — see [`SetAssocCache::with_policy_seeded`]).
    pub fn with_policy(params: CacheParams, policy: ReplacementPolicy) -> Self {
        Self::from_parts(params, policy, LEGACY_RNG_SEED)
    }

    /// Creates an empty cache whose Random-victim RNG is decorrelated
    /// from every other cache by `salt` (typically derived from the
    /// cache's level and core index). Lru/Fifo caches never consume the
    /// RNG, so the salt is only observable under the Random ablation.
    pub fn with_policy_seeded(params: CacheParams, policy: ReplacementPolicy, salt: u64) -> Self {
        // splitmix64 of (legacy seed ^ salt): well-mixed and never zero
        // in practice; xorshift only requires a nonzero state.
        let mut z = LEGACY_RNG_SEED ^ salt;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        Self::from_parts(params, policy, if z == 0 { LEGACY_RNG_SEED } else { z })
    }

    fn from_parts(params: CacheParams, policy: ReplacementPolicy, rng_state: u64) -> Self {
        let num_sets = params.num_sets();
        let assoc = params.associativity as usize;
        SetAssocCache {
            params,
            lines: TagStore::Narrow(vec![0; num_sets as usize * assoc].into_boxed_slice()),
            occupancy: vec![0; num_sets as usize].into_boxed_slice(),
            assoc,
            num_sets,
            set_mask: if num_sets.is_power_of_two() {
                num_sets - 1
            } else {
                0
            },
            hits: 0,
            misses: 0,
            policy,
            rng_state,
        }
    }

    /// The replacement policy in use.
    pub fn policy(&self) -> ReplacementPolicy {
        self.policy
    }

    /// One-time widening of the tag store; the fast paths stay narrow
    /// until a line id actually needs 64 bits.
    #[cold]
    fn widen_if_narrow(&mut self) {
        if let TagStore::Narrow(t) = &self.lines {
            self.lines = TagStore::Wide(t.iter().map(|&x| x as u64).collect());
        }
    }

    #[inline]
    fn set_index(&self, line: u64) -> usize {
        if self.set_mask != 0 {
            (line & self.set_mask) as usize
        } else {
            (line % self.num_sets) as usize
        }
    }

    /// True when `line` is the MRU way of its set in the narrow tag
    /// store: a hit that reorders nothing under any policy (Lru would
    /// move it to the front, where it is; Fifo and Random never refresh)
    /// and widens nothing, so it needs no state change at all.
    #[inline]
    fn is_narrow_mru(&self, line: u64) -> bool {
        let TagStore::Narrow(tags) = &self.lines else {
            return false;
        };
        let set_idx = self.set_index(line);
        line <= u32::MAX as u64
            && self.occupancy[set_idx] != 0
            && tags[set_idx * self.assoc] == line as u32
    }

    /// Core lookup/insert shared by [`access`](Self::access) (counted)
    /// and [`fill`](Self::fill) (uncounted) once the inline MRU check
    /// has missed. Returns `true` on hit.
    #[inline(never)]
    fn touch(&mut self, line: u64) -> bool {
        let set_idx = self.set_index(line);
        let base = set_idx * self.assoc;
        let assoc = self.assoc;
        let occ = self.occupancy[set_idx] as usize;
        let policy = self.policy;
        if line <= u32::MAX as u64 {
            if let TagStore::Narrow(tags) = &mut self.lines {
                let (hit, grew) = touch_set(
                    &mut tags[base..base + assoc],
                    occ,
                    line as u32,
                    policy,
                    &mut self.rng_state,
                );
                if grew {
                    self.occupancy[set_idx] = occ as u16 + 1;
                }
                return hit;
            }
        }
        self.widen_if_narrow();
        let TagStore::Wide(tags) = &mut self.lines else {
            unreachable!("widen_if_narrow always leaves a wide store")
        };
        let (hit, grew) = touch_set(
            &mut tags[base..base + assoc],
            occ,
            line,
            policy,
            &mut self.rng_state,
        );
        if grew {
            self.occupancy[set_idx] = occ as u16 + 1;
        }
        hit
    }

    /// Accesses `line`; returns `true` on hit. On a miss the line is
    /// inserted, evicting a victim chosen by the replacement policy if
    /// the set is full.
    #[inline]
    pub fn access(&mut self, line: u64) -> bool {
        let hit = self.is_narrow_mru(line) || self.touch(line);
        if hit {
            self.hits += 1;
        } else {
            self.misses += 1;
        }
        hit
    }

    /// Checks residency without updating recency or statistics.
    pub fn probe(&self, line: u64) -> bool {
        let set_idx = self.set_index(line);
        let base = set_idx * self.assoc;
        let occ = self.occupancy[set_idx] as usize;
        match &self.lines {
            TagStore::Narrow(t) => {
                line <= u32::MAX as u64 && t[base..base + occ].contains(&(line as u32))
            }
            TagStore::Wide(t) => t[base..base + occ].contains(&line),
        }
    }

    /// Inserts `line` without counting a demand access (used by
    /// prefetchers). Returns `true` if the line was already resident.
    #[inline]
    pub fn fill(&mut self, line: u64) -> bool {
        self.is_narrow_mru(line) || self.touch(line)
    }

    /// Removes `line` if resident; returns whether it was present.
    pub fn invalidate(&mut self, line: u64) -> bool {
        let set_idx = self.set_index(line);
        let base = set_idx * self.assoc;
        let occ = self.occupancy[set_idx] as usize;
        let removed = match &mut self.lines {
            TagStore::Narrow(t) => {
                line <= u32::MAX as u64 && remove_from_set(&mut t[base..base + occ], line as u32)
            }
            TagStore::Wide(t) => remove_from_set(&mut t[base..base + occ], line),
        };
        if removed {
            self.occupancy[set_idx] = occ as u16 - 1;
        }
        removed
    }

    /// Empties the cache, keeping statistics.
    pub fn flush(&mut self) {
        self.occupancy.fill(0);
    }

    /// Demand hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Demand misses so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Hit rate in [0, 1]; 0.0 before any access.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Resets hit/miss counters without touching contents.
    pub fn reset_stats(&mut self) {
        self.hits = 0;
        self.misses = 0;
    }

    /// Number of lines currently resident.
    pub fn resident_lines(&self) -> usize {
        self.occupancy.iter().map(|&o| o as usize).sum()
    }

    /// The geometry this cache was built with.
    pub fn params(&self) -> &CacheParams {
        &self.params
    }
}

/// Lookup/insert on one set's way slice, shared by the narrow and wide
/// tag stores. `set` is the full `assoc`-way slice, `occ` how many of
/// its leading entries are valid. Returns `(hit, grew)`.
#[inline]
fn touch_set<T: Copy + PartialEq>(
    set: &mut [T],
    occ: usize,
    line: T,
    policy: ReplacementPolicy,
    rng_state: &mut u64,
) -> (bool, bool) {
    if let Some(pos) = set[..occ].iter().position(|&l| l == line) {
        if policy == ReplacementPolicy::Lru {
            // Move to MRU position (LRU only; FIFO/Random keep
            // insertion order): rotate [0..=pos] right by one.
            set.copy_within(0..pos, 1);
            set[0] = line;
        }
        (true, false)
    } else if occ == set.len() {
        // Full set: drop the victim, insert at MRU. Equivalent to
        // the old `remove(victim); insert(0, line)` — ways above the
        // victim keep their order, ways below shift down one.
        let victim = victim_index(policy, rng_state, occ);
        set.copy_within(0..victim, 1);
        set[0] = line;
        (false, false)
    } else {
        set.copy_within(0..occ, 1);
        set[0] = line;
        (false, true)
    }
}

/// Index of the victim way in a full set under `policy`.
#[inline]
fn victim_index(policy: ReplacementPolicy, rng_state: &mut u64, set_len: usize) -> usize {
    match policy {
        // Sets are kept in recency order (MRU first), so both LRU
        // and FIFO evict the last element; they differ in whether
        // hits refresh position.
        ReplacementPolicy::Lru | ReplacementPolicy::Fifo => set_len - 1,
        ReplacementPolicy::Random => (next_random(rng_state) % set_len as u64) as usize,
    }
}

/// xorshift64*: deterministic, cheap, good enough for victim selection.
#[inline]
fn next_random(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    *state = x;
    x.wrapping_mul(0x2545_F491_4F6C_DD1D)
}

/// Removes `line` from a set's valid-entry slice, closing the gap so
/// recency order is preserved. Returns whether it was present.
#[inline]
fn remove_from_set<T: Copy + PartialEq>(set: &mut [T], line: T) -> bool {
    if let Some(pos) = set.iter().position(|&l| l == line) {
        set.copy_within(pos + 1.., pos);
        true
    } else {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> SetAssocCache {
        // 2 sets x 2 ways, 64-byte lines.
        SetAssocCache::new(CacheParams::new(256, 2, 1))
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = tiny();
        assert!(!c.access(0));
        assert!(c.access(0));
        assert_eq!(c.hits(), 1);
        assert_eq!(c.misses(), 1);
        assert_eq!(c.hit_rate(), 0.5);
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = tiny();
        // Lines 0, 2, 4 all map to set 0 (2 sets). Ways = 2.
        c.access(0);
        c.access(2);
        c.access(0); // 0 becomes MRU; LRU is 2
        c.access(4); // evicts 2
        assert!(c.probe(0));
        assert!(!c.probe(2));
        assert!(c.probe(4));
    }

    #[test]
    fn sets_are_independent() {
        let mut c = tiny();
        c.access(0); // set 0
        c.access(1); // set 1
        c.access(2); // set 0
        c.access(3); // set 1
        assert!(c.probe(0) && c.probe(1) && c.probe(2) && c.probe(3));
    }

    #[test]
    fn probe_does_not_disturb_lru() {
        let mut c = tiny();
        c.access(0);
        c.access(2);
        // probing 0 must NOT refresh it.
        assert!(c.probe(0));
        c.access(4); // evicts LRU = 0
        assert!(!c.probe(0));
        assert!(c.probe(2));
    }

    #[test]
    fn fill_does_not_count_stats() {
        let mut c = tiny();
        assert!(!c.fill(0));
        assert!(c.fill(0));
        assert_eq!(c.hits(), 0);
        assert_eq!(c.misses(), 0);
        assert!(c.access(0)); // but the line is usable
    }

    #[test]
    fn invalidate_removes() {
        let mut c = tiny();
        c.access(0);
        assert!(c.invalidate(0));
        assert!(!c.invalidate(0));
        assert!(!c.probe(0));
    }

    #[test]
    fn invalidate_middle_way_preserves_recency_order() {
        // 1 set x 4 ways: recency order is fully observable via
        // subsequent evictions.
        let mut c = SetAssocCache::new(CacheParams::new(256, 4, 1));
        c.access(0);
        c.access(1);
        c.access(2);
        c.access(3); // recency (MRU..LRU): 3 2 1 0
        assert!(c.invalidate(2)); // recency: 3 1 0
        c.access(4); // fills the free way: 4 3 1 0
        c.access(5); // evicts LRU = 0
        assert!(!c.probe(0));
        assert!(c.probe(1) && c.probe(3) && c.probe(4) && c.probe(5));
    }

    #[test]
    fn flush_empties_but_keeps_stats() {
        let mut c = tiny();
        c.access(0);
        c.access(0);
        c.flush();
        assert_eq!(c.resident_lines(), 0);
        assert_eq!(c.hits(), 1);
        assert_eq!(c.misses(), 1);
    }

    #[test]
    fn capacity_respected() {
        let mut c = tiny();
        for line in 0..100 {
            c.access(line);
        }
        assert!(c.resident_lines() <= 4);
    }

    #[test]
    fn reset_stats_keeps_contents() {
        let mut c = tiny();
        c.access(0);
        c.reset_stats();
        assert_eq!(c.misses(), 0);
        assert!(c.probe(0));
    }

    #[test]
    fn hit_rate_empty_is_zero() {
        assert_eq!(tiny().hit_rate(), 0.0);
    }

    #[test]
    fn working_set_larger_than_cache_thrashes() {
        let mut c = SetAssocCache::new(CacheParams::new(32 * 1024, 4, 3));
        let lines = c.params().num_lines() * 2;
        // Two sequential sweeps over 2x capacity: second sweep still misses
        // everywhere under LRU.
        for _ in 0..2 {
            for line in 0..lines {
                c.access(line);
            }
        }
        assert_eq!(c.hits(), 0);
        assert_eq!(c.misses(), lines * 2);
    }

    #[test]
    fn working_set_smaller_than_cache_stays_resident() {
        let mut c = SetAssocCache::new(CacheParams::new(32 * 1024, 4, 3));
        let lines = c.params().num_lines() / 2;
        for line in 0..lines {
            c.access(line);
        }
        for line in 0..lines {
            assert!(c.access(line), "line {line} should be resident");
        }
    }
}

#[cfg(test)]
mod policy_tests {
    use super::*;

    fn tiny_with(policy: ReplacementPolicy) -> SetAssocCache {
        SetAssocCache::with_policy(CacheParams::new(256, 2, 1), policy)
    }

    #[test]
    fn fifo_does_not_refresh_on_hit() {
        let mut c = tiny_with(ReplacementPolicy::Fifo);
        // Set 0 candidates: 0, 2, 4 (2 sets).
        c.access(0);
        c.access(2);
        c.access(0); // hit, but FIFO keeps 0 as the oldest
        c.access(4); // evicts the oldest = 0 under FIFO
        assert!(!c.probe(0), "FIFO must evict the first-inserted line");
        assert!(c.probe(2) && c.probe(4));
    }

    #[test]
    fn lru_refresh_differs_from_fifo() {
        let mut c = tiny_with(ReplacementPolicy::Lru);
        c.access(0);
        c.access(2);
        c.access(0);
        c.access(4); // LRU evicts 2
        assert!(c.probe(0) && !c.probe(2));
    }

    #[test]
    fn random_policy_is_deterministic_and_bounded() {
        let run = || {
            let mut c = tiny_with(ReplacementPolicy::Random);
            for line in 0..200u64 {
                c.access(line % 16);
            }
            (c.hits(), c.misses(), c.resident_lines())
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "random policy must be reproducible");
        assert!(a.2 <= 4);
    }

    #[test]
    fn seeded_random_decorrelates_but_stays_deterministic() {
        let run = |salt| {
            let mut c = SetAssocCache::with_policy_seeded(
                CacheParams::new(512, 2, 1),
                ReplacementPolicy::Random,
                salt,
            );
            let mut trace = Vec::new();
            for i in 0..400u64 {
                trace.push(c.access(4 * (i % 9)));
            }
            trace
        };
        assert_eq!(run(1), run(1), "same salt must reproduce");
        assert_ne!(
            run(1),
            run(2),
            "different salts should pick different victim sequences"
        );
    }

    #[test]
    fn seeded_with_salt_zero_is_not_forced_legacy() {
        // Salt 0 still goes through the mixer: with_policy_seeded(_, _, 0)
        // is a *different* victim stream from the legacy constant, by
        // design — callers opt into legacy behaviour via with_policy.
        let trace = |mut c: SetAssocCache| -> Vec<bool> {
            (0..400u64).map(|i| c.access(4 * (i % 9))).collect()
        };
        let legacy = trace(SetAssocCache::with_policy(
            CacheParams::new(512, 2, 1),
            ReplacementPolicy::Random,
        ));
        let seeded = trace(SetAssocCache::with_policy_seeded(
            CacheParams::new(512, 2, 1),
            ReplacementPolicy::Random,
            0,
        ));
        assert_ne!(legacy, seeded);
    }

    #[test]
    fn non_random_policies_ignore_seed() {
        // Lru never consumes the RNG, so seeded and legacy construction
        // must produce identical hit/miss traces.
        let run = |c: &mut SetAssocCache| -> Vec<bool> {
            (0..300u64).map(|i| c.access(4 * (i % 7))).collect()
        };
        let mut a = tiny_with(ReplacementPolicy::Lru);
        let mut b = SetAssocCache::with_policy_seeded(
            CacheParams::new(256, 2, 1),
            ReplacementPolicy::Lru,
            0xDEAD_BEEF,
        );
        assert_eq!(run(&mut a), run(&mut b));
    }

    #[test]
    fn policy_accessor() {
        assert_eq!(
            tiny_with(ReplacementPolicy::Fifo).policy(),
            ReplacementPolicy::Fifo
        );
        assert_eq!(
            SetAssocCache::new(CacheParams::new(256, 2, 1)).policy(),
            ReplacementPolicy::Lru
        );
    }

    #[test]
    fn lru_beats_fifo_and_random_on_skewed_reuse() {
        // A hot line re-touched constantly plus a conflict stream: LRU
        // protects the hot line best.
        let rate = |policy| {
            let mut c = SetAssocCache::with_policy(CacheParams::new(512, 2, 1), policy);
            for i in 0..4000u64 {
                c.access(0); // hot
                c.access(4 * (i % 7) + 8); // conflicting stream, same set
            }
            c.hit_rate()
        };
        let lru = rate(ReplacementPolicy::Lru);
        let fifo = rate(ReplacementPolicy::Fifo);
        assert!(lru >= fifo, "LRU {lru} should be at least FIFO {fifo}");
    }
}
