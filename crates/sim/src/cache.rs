//! Set-associative cache with true-LRU replacement.
//!
//! Addresses are pre-translated to *line identifiers* (`u64`) by the
//! caller; the cache indexes sets with the low-order bits of the line id,
//! exactly as a physically-indexed cache indexes sets with the low-order
//! bits above the line offset, and each way keeps only the rest of the
//! line id, its *tag*.
//!
//! # Data layout
//!
//! All ways of all sets live in one contiguous slab, one set after
//! another. Within a set the resident lines are stored *in recency
//! order* — way 0 is the MRU way, the last occupied way the LRU victim —
//! and a packed per-set occupancy array records how many ways are valid,
//! so no sentinel tag is ever needed. This is observationally identical
//! to the original `Vec<Vec<u64>>` representation (same hit/miss
//! sequence, same victims, same RNG consumption) but with zero pointer
//! chasing.
//!
//! # Tags
//!
//! A way stores its line's tag, `line >> log2(sets)` (`line / sets` when
//! the set count is not a power of two), in 16 bits, as hardware does:
//! the set's position supplies the index bits. A 2- or 4-way set is then
//! one `u32` or `u64` word and an 8-way set two `u64` words, which halves
//! the slab the host's own caches must keep warm across 32 simulated
//! cores (Table 2's 8 MB LLC keeps 256 KiB of tags). Sixteen bits hold
//! the tag of every line below `2^16 × sets`: `2^23` on a 128-set 32 KB
//! L1, `2^22` on the 64-set 16 KB L1i of the appendix's sweep, far above
//! the lines any experiment touches (DESIGN §10.1 gives the margin). The
//! first access whose tag needs more bits rewrites the store, once, as
//! one `u64` line id per way; a cache of any other associativity uses
//! that wide store from the start. Behaviour over arbitrary inputs is
//! unchanged.
//!
//! # Update paths
//!
//! A set of 16-bit tags is looked up, promoted, filled and invalidated
//! inline in [`SetAssocCache::access`] and [`SetAssocCache::invalidate`]
//! as straight-line code on its words, with no call: one compare of
//! every way below the occupancy picks the way that leaves its place
//! (the hit, else the policy's victim in a full set, else the first free
//! way), and one shift-and-merge moves the ways in front of it down one.
//! The wide store goes through one out-of-line function that moves ways
//! with `copy_within`. Both apply the same permutation to a set.

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

/// Tag storage. The lane stores keep one or two words per set of 16-bit
/// tags (see [`Lanes`]); the wide store keeps set `s` at
/// `[s*assoc..(s+1)*assoc]` as line ids. Every store keeps a set's valid
/// ways first, in recency order (way 0 = MRU).
#[derive(Debug, Clone)]
enum TagStore {
    Lanes2(Box<[u32]>),
    Lanes4(Box<[u64]>),
    Lanes8(Box<[[u64; 2]]>),
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
    /// Every way of every set, valid ways first, in recency order.
    lines: TagStore,
    /// Packed per-set recency metadata: how many ways of each set hold
    /// valid lines. Together with the in-set ordering this encodes the
    /// full LRU stack without a sentinel value or per-way flags.
    occupancy: Box<[u16]>,
    assoc: usize,
    num_sets: u64,
    /// `log2(num_sets)` when `num_sets` is a power of two (every
    /// geometry the experiments build), else `None`: lets
    /// [`split`](Self::split) mask and shift instead of dividing on
    /// every access.
    set_bits: Option<u32>,
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
        let sets = num_sets as usize;
        SetAssocCache {
            params,
            lines: match assoc {
                2 => TagStore::Lanes2(vec![0; sets].into_boxed_slice()),
                4 => TagStore::Lanes4(vec![0; sets].into_boxed_slice()),
                8 => TagStore::Lanes8(vec![[0; 2]; sets].into_boxed_slice()),
                _ => TagStore::Wide(vec![0; sets * assoc].into_boxed_slice()),
            },
            occupancy: vec![0; sets].into_boxed_slice(),
            assoc,
            num_sets,
            set_bits: num_sets
                .is_power_of_two()
                .then(|| num_sets.trailing_zeros()),
            policy,
            rng_state,
        }
    }

    /// The replacement policy in use.
    pub fn policy(&self) -> ReplacementPolicy {
        self.policy
    }

    /// The set `line` maps to and the tag its way keeps.
    #[inline(always)]
    fn split(&self, line: u64) -> (usize, u64) {
        match self.set_bits {
            Some(bits) => ((line & ((1 << bits) - 1)) as usize, line >> bits),
            None => ((line % self.num_sets) as usize, line / self.num_sets),
        }
    }

    /// The line id way `way` of set `set_idx` holds, valid or not.
    fn way_line(&self, set_idx: usize, way: usize) -> u64 {
        let tag = match &self.lines {
            TagStore::Lanes2(sets) => sets[set_idx].tag(way),
            TagStore::Lanes4(sets) => sets[set_idx].tag(way),
            TagStore::Lanes8(sets) => sets[set_idx].tag(way),
            TagStore::Wide(lines) => return lines[set_idx * self.assoc + way],
        };
        u64::from(tag) * self.num_sets + set_idx as u64
    }

    /// Rewrites a lane store as one `u64` line id per way, in place of
    /// each way's tag.
    #[cold]
    fn widen(&mut self) {
        let assoc = self.assoc;
        let lines = (0..self.num_sets as usize * assoc)
            .map(|i| self.way_line(i / assoc, i % assoc))
            .collect();
        self.lines = TagStore::Wide(lines);
    }

    /// Lookup/insert on the wide store, widening a lane store first.
    /// Returns `true` on hit.
    #[inline(never)]
    fn touch(&mut self, line: u64) -> bool {
        if !matches!(self.lines, TagStore::Wide(_)) {
            self.widen();
        }
        let (set_idx, _) = self.split(line);
        let base = set_idx * self.assoc;
        let occ = self.occupancy[set_idx];
        let TagStore::Wide(lines) = &mut self.lines else {
            unreachable!("widen always leaves a wide store")
        };
        let (hit, grew) = touch_set(
            &mut lines[base..base + self.assoc],
            usize::from(occ),
            line,
            self.policy,
            &mut self.rng_state,
        );
        if grew {
            self.occupancy[set_idx] = occ + 1;
        }
        hit
    }

    /// Accesses `line`; returns `true` on hit. On a miss the line is
    /// inserted, evicting a victim chosen by the replacement policy if
    /// the set is full.
    #[inline(always)]
    pub fn access(&mut self, line: u64) -> bool {
        let (set_idx, tag) = self.split(line);
        if let Ok(tag) = u16::try_from(tag) {
            let occ = &mut self.occupancy[set_idx];
            let (policy, rng_state) = (self.policy, &mut self.rng_state);
            match &mut self.lines {
                TagStore::Lanes4(sets) => {
                    return touch_lanes(&mut sets[set_idx], occ, tag, policy, rng_state)
                }
                TagStore::Lanes8(sets) => {
                    return touch_lanes(&mut sets[set_idx], occ, tag, policy, rng_state)
                }
                TagStore::Lanes2(sets) => {
                    return touch_lanes(&mut sets[set_idx], occ, tag, policy, rng_state)
                }
                TagStore::Wide(_) => {}
            }
        }
        self.touch(line)
    }

    /// Checks residency without updating recency.
    pub fn probe(&self, line: u64) -> bool {
        let (set_idx, _) = self.split(line);
        (0..usize::from(self.occupancy[set_idx])).any(|way| self.way_line(set_idx, way) == line)
    }

    /// Removes `line` if resident; returns whether it was present.
    #[inline]
    pub fn invalidate(&mut self, line: u64) -> bool {
        let (set_idx, tag) = self.split(line);
        let occ = &mut self.occupancy[set_idx];
        match (&mut self.lines, u16::try_from(tag)) {
            (TagStore::Lanes4(sets), Ok(tag)) => return remove_lane(&mut sets[set_idx], occ, tag),
            (TagStore::Lanes8(sets), Ok(tag)) => return remove_lane(&mut sets[set_idx], occ, tag),
            (TagStore::Lanes2(sets), Ok(tag)) => return remove_lane(&mut sets[set_idx], occ, tag),
            (TagStore::Wide(_), _) => {}
            // No lane holds a tag that needs more than 16 bits.
            (_, Err(_)) => return false,
        }
        self.remove_wide(set_idx, line)
    }

    /// [`invalidate`](Self::invalidate) on the wide store.
    #[inline(never)]
    fn remove_wide(&mut self, set_idx: usize, line: u64) -> bool {
        let TagStore::Wide(lines) = &mut self.lines else {
            unreachable!("only the wide store removes line ids")
        };
        let base = set_idx * self.assoc;
        let occ = self.occupancy[set_idx];
        let removed = remove_from_set(&mut lines[base..base + usize::from(occ)], line);
        if removed {
            self.occupancy[set_idx] = occ - 1;
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

/// Lookup/insert on one set's way slice in the wide store. `set` is the
/// full `assoc`-way slice, `occ` how many of its leading entries are
/// valid. Returns `(hit, grew)`.
#[inline]
fn touch_set(
    set: &mut [u64],
    occ: usize,
    line: u64,
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

/// A set of [`WAYS`](Lanes::WAYS) 16-bit tags: a `u32` or `u64` word
/// with way `i` in bits `16*i..16*i+16`, so way 0 (the MRU) is the low
/// lane, or two `u64` words of four ways each, ways 0-3 first.
trait Lanes {
    const WAYS: usize;

    /// The tag in way `way`.
    fn tag(&self, way: usize) -> u16;

    /// The lowest way that holds `tag`, valid or not, or a number not
    /// below `WAYS` when none does.
    fn first_match(&self, tag: u16) -> u32;

    /// Drops way `pos`, moves the ways in front of it down one and puts
    /// `tag` in way 0; the ways behind `pos` stay.
    fn push_front(&mut self, pos: u32, tag: u16);

    /// Drops way `pos` and moves the ways behind it up one; the ways in
    /// front of it stay.
    fn remove(&mut self, pos: u32);

    /// The way among the first `occ` that holds `tag`, if any. Stale
    /// tags sit behind every valid way, so the lowest match is valid
    /// whenever a valid way matches.
    #[inline(always)]
    fn find(&self, occ: u16, tag: u16) -> Option<u32> {
        let way = self.first_match(tag);
        (way < u32::from(occ)).then_some(way)
    }
}

/// [`Lanes::first_match`] on four ways: 4 when none holds `tag`.
#[inline(always)]
fn first_match4(ways: u64, tag: u16) -> u32 {
    // Bit 0 of every lane, and the 15 bits below bit 15.
    const LOW: u64 = 0x0001_0001_0001_0001;
    const LOW15: u64 = 0x7FFF * LOW;
    // A lane of `x` is zero where the way holds `tag`. Adding 0x7FFF to
    // a lane's low 15 bits sets its bit 15 unless they are all zero and
    // never carries out of the lane, so bit 15 of `zero` is set exactly
    // in the zero lanes.
    let x = ways ^ (LOW * u64::from(tag));
    let zero = !(((x & LOW15) + LOW15) | x | LOW15);
    zero.trailing_zeros() / 16
}

macro_rules! impl_lanes {
    ($($word:ty),*) => {$(
        impl Lanes for $word {
            const WAYS: usize = <$word>::BITS as usize / 16;

            #[inline(always)]
            fn tag(&self, way: usize) -> u16 {
                (*self >> (16 * way)) as u16
            }

            #[inline(always)]
            fn first_match(&self, tag: u16) -> u32 {
                // A 2-way set's ways 2 and 3 read as zero tags, past its
                // two valid ways.
                first_match4(u64::from(*self), tag)
            }

            #[inline(always)]
            fn push_front(&mut self, pos: u32, tag: u16) {
                let below: $word = (1 << (16 * pos)) - 1;
                *self = ((*self & below) << 16) | (*self & (!below << 16)) | <$word>::from(tag);
            }

            #[inline(always)]
            fn remove(&mut self, pos: u32) {
                let below: $word = (1 << (16 * pos)) - 1;
                *self = (*self & below) | ((*self >> 16) & !below);
            }
        }
    )*};
}

impl_lanes!(u32, u64);

/// An 8-way set is two 4-way words: a way in ways 0-3 moves only the
/// first, and the second is read only when the first has no match.
impl Lanes for [u64; 2] {
    const WAYS: usize = 8;

    #[inline(always)]
    fn tag(&self, way: usize) -> u16 {
        self[way / 4].tag(way % 4)
    }

    #[inline(always)]
    fn first_match(&self, tag: u16) -> u32 {
        match first_match4(self[0], tag) {
            4 => 4 + first_match4(self[1], tag),
            way => way,
        }
    }

    #[inline(always)]
    fn push_front(&mut self, pos: u32, tag: u16) {
        if pos < 4 {
            self[0].push_front(pos, tag);
        } else {
            // Way 3 moves to way 4, the second word's first.
            let carry = (self[0] >> 48) as u16;
            self[0] = (self[0] << 16) | u64::from(tag);
            self[1].push_front(pos - 4, carry);
        }
    }

    #[inline(always)]
    fn remove(&mut self, pos: u32) {
        if pos < 4 {
            // Way 4, the second word's first, moves to way 3.
            self[0].remove(pos);
            self[0] |= self[1] << 48;
            self[1] >>= 16;
        } else {
            self[1].remove(pos - 4);
        }
    }
}

/// [`touch_set`] on a set of 16-bit tags, as straight-line code with no
/// call: the way that leaves its place is the hit, else the policy's
/// victim in a full set, else the first free way `occ`, and the ways in
/// front of it move down one. Returns `true` on hit.
#[inline(always)]
fn touch_lanes<W: Lanes>(
    set: &mut W,
    occ: &mut u16,
    tag: u16,
    policy: ReplacementPolicy,
    rng_state: &mut u64,
) -> bool {
    let found = set.find(*occ, tag);
    let pos = match found {
        // Fifo and Random never reorder on a hit.
        Some(_) if policy != ReplacementPolicy::Lru => return true,
        Some(pos) => pos,
        None if usize::from(*occ) == W::WAYS => victim_index(policy, rng_state, W::WAYS) as u32,
        None => {
            *occ += 1;
            u32::from(*occ) - 1
        }
    };
    set.push_front(pos, tag);
    found.is_some()
}

/// [`remove_from_set`] on a set of 16-bit tags: the ways behind `tag`
/// move up one. Returns whether it was present.
#[inline(always)]
fn remove_lane<W: Lanes>(set: &mut W, occ: &mut u16, tag: u16) -> bool {
    let Some(pos) = set.find(*occ, tag) else {
        return false;
    };
    set.remove(pos);
    *occ -= 1;
    true
}

/// Removes `line` from a set's valid-entry slice, closing the gap so
/// recency order is preserved. Returns whether it was present.
#[inline]
fn remove_from_set(set: &mut [u64], line: u64) -> bool {
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
        (0..usize::from(c.occupancy[set_idx]))
            .map(|way| c.way_line(set_idx, way))
            .collect()
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
        // 2 sets x 4 and x 8 ways. Set 0 takes the lane path; after an
        // odd line whose tag needs 17 bits widens the store, it takes the
        // wide path.
        for assoc in [4, 8] {
            for wide in [false, true] {
                for occ in 1..=u64::from(assoc) {
                    for pos in 0..occ as usize {
                        let params = CacheParams::new(2 * 64 * u64::from(assoc), assoc, 1);
                        let mut c = SetAssocCache::new(params);
                        if wide {
                            c.access((1 << 17) + 1);
                        }
                        assert_eq!(matches!(c.lines, TagStore::Wide(_)), wide);
                        let lines: Vec<u64> = (0..occ).map(|i| 2 * i).collect();
                        for &l in &lines {
                            c.access(l);
                        }
                        let mut expect: Vec<u64> = lines.iter().rev().copied().collect();
                        let gone = expect.remove(pos);
                        let case = format!("{assoc}-way wide {wide} occ {occ} pos {pos}");
                        assert!(c.invalidate(gone), "{case}");
                        assert_eq!(recency(&c, 0), expect, "{case}");
                        assert!(!c.invalidate(gone), "{case}");
                        // The freed way takes the next line at the front.
                        assert!(!c.access(100), "{case}");
                        expect.insert(0, 100);
                        assert_eq!(recency(&c, 0), expect, "{case}");
                    }
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
