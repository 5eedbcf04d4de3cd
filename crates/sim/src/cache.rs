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
//! 4–8-way set is one or two hardware cache lines.
//!
//! Tags are stored *narrow* (`u32`) while every resident line id fits in
//! 32 bits — true for all the repo's workloads, whose line ids are dense
//! page numbers — which halves the tag footprint the host's own caches
//! must keep warm across 32 simulated cores. The first access with a
//! line id above `u32::MAX` transparently widens the store to `u64`, so
//! behaviour over arbitrary inputs is unchanged.
//!
//! # Update paths
//!
//! A narrow 4-way set — every L1 and L2 the experiments build — is
//! updated inline in [`SetAssocCache::access`], [`SetAssocCache::fill`]
//! and [`SetAssocCache::invalidate`] as straight-line code on its four
//! `u32` ways: one compare of all four ways under the occupancy mask
//! picks the way that leaves its place (the hit, else the policy's
//! victim in a full set, else the first free way), and one 128-bit
//! shift-and-merge moves the ways in front of it down one. Every other
//! geometry (the 8-way LLC) and the wide store check the MRU way inline
//! and otherwise call one out-of-line function that moves ways with
//! `copy_within`. Associativity and the store's width alone pick the
//! path; both apply the same permutation to a set.

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

/// Ways per set of the geometry whose narrow sets are updated as lanes
/// (see the module docs): Table 2's L1i, L1d and L2.
const LANE_WAYS: usize = 4;

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

    /// Lookup/insert for every set the lane path does not take, once
    /// the inline MRU check has missed. Returns `true` on hit.
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
    #[inline(always)]
    pub fn access(&mut self, line: u64) -> bool {
        let set_idx = self.set_index(line);
        if self.assoc == LANE_WAYS && line <= u32::MAX as u64 {
            if let TagStore::Narrow(tags) = &mut self.lines {
                return touch_lanes(
                    &mut tags.as_chunks_mut().0[set_idx],
                    &mut self.occupancy[set_idx],
                    line as u32,
                    self.policy,
                    &mut self.rng_state,
                );
            }
        }
        self.is_narrow_mru(line) || self.touch(line)
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

    /// Inserts `line` exactly as [`access`](Self::access) does, for
    /// callers whose insertion is not a demand access (prefetches and
    /// remote transfers, which `MemStats` does not count). Returns
    /// `true` if the line was already resident.
    #[inline]
    pub fn fill(&mut self, line: u64) -> bool {
        self.access(line)
    }

    /// Removes `line` if resident; returns whether it was present.
    pub fn invalidate(&mut self, line: u64) -> bool {
        let set_idx = self.set_index(line);
        if self.assoc == LANE_WAYS && line <= u32::MAX as u64 {
            if let TagStore::Narrow(tags) = &mut self.lines {
                return remove_lane(
                    &mut tags.as_chunks_mut().0[set_idx],
                    &mut self.occupancy[set_idx],
                    line as u32,
                );
            }
        }
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

    /// Empties the cache.
    pub fn flush(&mut self) {
        self.occupancy.fill(0);
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

/// [`touch_set`] on a narrow 4-way set, as straight-line code with no
/// call: the way that leaves its place is the hit, else the policy's
/// victim in a full set, else the first free way `occ`, and the ways in
/// front of it move down one as a 128-bit shift. Way `i` is bits
/// `32*i..32*i+32` of the shifted value, so way 0 (the MRU) is the low
/// word. Returns `true` on hit.
#[inline(always)]
fn touch_lanes(
    ways: &mut [u32; LANE_WAYS],
    occ: &mut u16,
    line: u32,
    policy: ReplacementPolicy,
    rng_state: &mut u64,
) -> bool {
    let found = lane_matches(ways, *occ, line);
    let pos = if found != 0 {
        if policy != ReplacementPolicy::Lru {
            return true;
        }
        found.trailing_zeros()
    } else if usize::from(*occ) == LANE_WAYS {
        victim_index(policy, rng_state, LANE_WAYS) as u32
    } else {
        *occ += 1;
        u32::from(*occ) - 1
    };
    let set = pack_lanes(ways);
    let below = (1u128 << (32 * pos)) - 1;
    *ways = unpack_lanes(((set & below) << 32) | (set & (!below << 32)) | u128::from(line));
    found != 0
}

/// [`remove_from_set`] on a narrow 4-way set: the ways behind `line`
/// move up one as a 128-bit shift. Returns whether it was present.
#[inline]
fn remove_lane(ways: &mut [u32; LANE_WAYS], occ: &mut u16, line: u32) -> bool {
    let found = lane_matches(ways, *occ, line);
    if found == 0 {
        return false;
    }
    let set = pack_lanes(ways);
    let below = (1u128 << (32 * found.trailing_zeros())) - 1;
    *ways = unpack_lanes((set & below) | ((set >> 32) & !below));
    *occ -= 1;
    true
}

/// Bit `i` is set when way `i` holds `line` and is one of the set's
/// `occ` valid ways. A set holds a line at most once.
#[inline(always)]
fn lane_matches(ways: &[u32; LANE_WAYS], occ: u16, line: u32) -> u32 {
    let mut found = 0;
    for (i, &way) in ways.iter().enumerate() {
        found |= u32::from(way == line) << i;
    }
    found & ((1 << occ) - 1)
}

#[inline(always)]
fn pack_lanes(ways: &[u32; LANE_WAYS]) -> u128 {
    ways.iter()
        .rev()
        .fold(0, |set, &way| (set << 32) | u128::from(way))
}

#[inline(always)]
fn unpack_lanes(set: u128) -> [u32; LANE_WAYS] {
    std::array::from_fn(|i| (set >> (32 * i)) as u32)
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

    /// The valid ways of set `set_idx`, MRU first.
    fn recency(c: &SetAssocCache, set_idx: usize) -> Vec<u64> {
        let base = set_idx * c.assoc;
        let ways = base..base + c.occupancy[set_idx] as usize;
        match &c.lines {
            TagStore::Narrow(t) => t[ways].iter().map(|&l| u64::from(l)).collect(),
            TagStore::Wide(t) => t[ways].to_vec(),
        }
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = tiny();
        assert!(!c.access(0));
        assert!(c.access(0));
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
    fn fill_inserts_like_access() {
        let mut c = tiny();
        assert!(!c.fill(0));
        assert!(c.fill(0));
        assert!(c.access(0)); // the filled line is usable
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
    fn invalidating_any_way_keeps_the_others_in_recency_order() {
        // 2 sets x 4 ways. Set 0 takes the lane path; after an odd line
        // past u32::MAX widens the store, it takes `touch`.
        for wide in [false, true] {
            for occ in 1..=4u64 {
                for pos in 0..occ as usize {
                    let mut c = SetAssocCache::new(CacheParams::new(512, 4, 1));
                    if wide {
                        c.access(u32::MAX as u64 + 2);
                    }
                    let lines: Vec<u64> = (0..occ).map(|i| 2 * i).collect();
                    for &l in &lines {
                        c.access(l);
                    }
                    let mut expect: Vec<u64> = lines.iter().rev().copied().collect();
                    let gone = expect.remove(pos);
                    assert!(c.invalidate(gone));
                    assert_eq!(recency(&c, 0), expect, "wide {wide} occ {occ} pos {pos}");
                    assert!(!c.invalidate(gone));
                    // The freed way takes the next line at the front.
                    assert!(!c.access(100));
                    expect.insert(0, 100);
                    assert_eq!(recency(&c, 0), expect, "wide {wide} occ {occ} pos {pos}");
                }
            }
        }
    }

    #[test]
    fn flush_empties_every_set() {
        let mut c = tiny();
        c.access(0);
        c.access(1);
        c.flush();
        assert_eq!(c.resident_lines(), 0);
        assert!(!c.access(0) && !c.access(1));
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
    fn working_set_larger_than_cache_thrashes() {
        let mut c = SetAssocCache::new(CacheParams::new(32 * 1024, 4, 3));
        let lines = c.params().num_lines() * 2;
        // Two sequential sweeps over 2x capacity: second sweep still misses
        // everywhere under LRU.
        for _ in 0..2 {
            for line in 0..lines {
                assert!(!c.access(line), "line {line} should have been evicted");
            }
        }
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
            let trace: Vec<bool> = (0..200u64).map(|line| c.access(line % 16)).collect();
            (trace, c.resident_lines())
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "random policy must be reproducible");
        assert!(a.1 <= 4);
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
            let mut hits = 0;
            for i in 0..4000u64 {
                hits += u32::from(c.access(0)); // hot
                hits += u32::from(c.access(4 * (i % 7) + 8)); // conflicting stream, same set
            }
            hits
        };
        let lru = rate(ReplacementPolicy::Lru);
        let fifo = rate(ReplacementPolicy::Fifo);
        assert!(lru >= fifo, "LRU {lru} should be at least FIFO {fifo}");
    }
}
