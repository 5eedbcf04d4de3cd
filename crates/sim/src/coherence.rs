//! Directory-based coherence (Table 2: "Directory based MOESI").
//!
//! The directory tracks, per data line, which cores hold it and whether
//! one of them holds it modified. The memory system consults it on
//! every data access:
//!
//! * a **write** by a core that is not the exclusive owner invalidates
//!   every other sharer's private copy (an upgrade/ownership transfer);
//! * a **read** of a line another core holds modified is served by a
//!   cache-to-cache transfer, downgrading the owner to shared.
//!
//! States are tracked at directory granularity (Invalid / Shared /
//! Modified — the O and E refinements of MOESI change who *supplies*
//! data, not who gets invalidated, and the timing model charges the
//! supplier uniformly at LLC latency).
//!
//! # Data layout
//!
//! Entries live in a seeded open-addressed table (linear probing) over
//! three parallel flat arrays: line ids, sharer bitmasks (`u64` words,
//! one bit per core — never a `Vec<usize>`), and a one-byte
//! occupied/modified flag that doubles as the empty-slot sentinel, so
//! arbitrary `u64` line ids need no reserved value. An entry, once
//! inserted, is never removed: a private-cache eviction does not reach
//! the directory. The table is point-queried only — nothing ever
//! iterates the entries — so any map with identical get/insert
//! semantics is observationally equivalent to the previous
//! `HashMap<u64, Entry>`; only the wall-clock cost changes.

/// Directory-visible state of one line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LineState {
    /// No private cache holds the line.
    Invalid,
    /// One or more cores hold the line clean.
    Shared,
    /// Exactly one core holds the line dirty.
    Modified,
}

/// What a read request needs, as decided by the directory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadOutcome {
    /// Serve from the LLC/memory path (no remote private copy matters).
    FromMemoryPath,
    /// Serve by cache-to-cache transfer from the modified owner, which
    /// is downgraded to shared.
    CacheToCache {
        /// The core that held the line modified.
        owner: usize,
    },
}

/// A set of cores as a bitmask (bit `c` = core `c`). Replaces the
/// `Vec<usize>` invalidation lists the directory used to allocate on
/// every write; iteration yields cores in ascending order, matching the
/// old vector order exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SharerMask(u64);

impl SharerMask {
    /// The empty set.
    pub const EMPTY: SharerMask = SharerMask(0);

    /// Wraps a raw bitmask.
    pub fn from_bits(bits: u64) -> Self {
        SharerMask(bits)
    }

    /// The raw bitmask.
    pub fn bits(self) -> u64 {
        self.0
    }

    /// Whether `core` is in the set.
    pub fn contains(self, core: usize) -> bool {
        core < 64 && self.0 & (1u64 << core) != 0
    }

    /// Number of cores in the set.
    pub fn count(self) -> u32 {
        self.0.count_ones()
    }

    /// True when no core is in the set.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Iterates member cores in ascending order.
    pub fn iter(self) -> SharerIter {
        SharerIter(self.0)
    }
}

impl IntoIterator for SharerMask {
    type Item = usize;
    type IntoIter = SharerIter;
    fn into_iter(self) -> SharerIter {
        self.iter()
    }
}

/// Iterator over the cores of a [`SharerMask`], ascending.
#[derive(Debug, Clone)]
pub struct SharerIter(u64);

impl Iterator for SharerIter {
    type Item = usize;
    fn next(&mut self) -> Option<usize> {
        if self.0 == 0 {
            None
        } else {
            let c = self.0.trailing_zeros() as usize;
            self.0 &= self.0 - 1;
            Some(c)
        }
    }
    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.0.count_ones() as usize;
        (n, Some(n))
    }
}

impl ExactSizeIterator for SharerIter {}

/// What a write request needs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WriteOutcome {
    /// Cores whose private copies must be invalidated.
    pub invalidate: SharerMask,
    /// True when the writer already held the line modified (silent
    /// upgrade — no coherence traffic).
    pub silent: bool,
}

/// Slot flag: the slot holds a live entry.
const OCCUPIED: u8 = 1;
/// Slot flag: the entry's line is held modified by its single sharer.
const MODIFIED: u8 = 2;

/// The coherence directory.
///
/// # Examples
///
/// ```
/// use schedtask_sim::coherence::{Directory, ReadOutcome};
///
/// let mut dir = Directory::new(4);
/// dir.on_write(0, 100);                 // core 0 owns line 100 modified
/// let r = dir.on_read(1, 100);          // core 1 reads it
/// assert_eq!(r, ReadOutcome::CacheToCache { owner: 0 });
/// ```
#[derive(Debug, Clone)]
pub struct Directory {
    num_cores: usize,
    /// Line id per slot (valid only where `meta` has [`OCCUPIED`]).
    keys: Box<[u64]>,
    /// Sharer bitmask per slot.
    sharers: Box<[u64]>,
    /// Per-slot [`OCCUPIED`] / [`MODIFIED`] flags; 0 = empty sentinel.
    meta: Box<[u8]>,
    /// Capacity minus one (capacity is a power of two).
    mask: usize,
    len: usize,
    /// Hash seed, mixed into every probe start.
    seed: u64,
}

/// Slots in a new table (a power of two); it doubles past a 7/8 load.
const INITIAL_CAPACITY: usize = 128;

/// Fixed hash seed: the directory must behave identically across runs
/// (the determinism contract), so the seed decorrelates probe chains
/// from raw line ids without introducing run-to-run variation.
const DEFAULT_HASH_SEED: u64 = 0x5EED_0D1C_ECAF_E001;

impl Directory {
    /// Creates an empty directory for `num_cores` cores.
    ///
    /// # Panics
    ///
    /// Panics if `num_cores` is zero or exceeds 64 (the sharer bitmask
    /// width).
    pub fn new(num_cores: usize) -> Self {
        assert!(
            (1..=64).contains(&num_cores),
            "directory supports 1-64 cores"
        );
        Directory {
            num_cores,
            keys: vec![0; INITIAL_CAPACITY].into_boxed_slice(),
            sharers: vec![0; INITIAL_CAPACITY].into_boxed_slice(),
            meta: vec![0; INITIAL_CAPACITY].into_boxed_slice(),
            mask: INITIAL_CAPACITY - 1,
            len: 0,
            seed: DEFAULT_HASH_SEED,
        }
    }

    #[inline]
    fn home_slot(&self, line: u64) -> usize {
        // Fibonacci (multiplicative) hashing, seeded; the high product
        // bits are the best mixed, so take them before masking.
        ((line ^ self.seed).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize & self.mask
    }

    /// Slot of `line`, if tracked.
    #[inline]
    fn find(&self, line: u64) -> Option<usize> {
        let mut i = self.home_slot(line);
        loop {
            if self.meta[i] & OCCUPIED == 0 {
                return None;
            }
            if self.keys[i] == line {
                return Some(i);
            }
            i = (i + 1) & self.mask;
        }
    }

    /// Slot of `line`, inserting an empty entry if absent (the
    /// `entry().or_default()` of the old map).
    #[inline]
    fn find_or_insert(&mut self, line: u64) -> usize {
        if (self.len + 1) * 8 > (self.mask + 1) * 7 {
            self.grow();
        }
        let mut i = self.home_slot(line);
        loop {
            if self.meta[i] & OCCUPIED == 0 {
                self.keys[i] = line;
                self.sharers[i] = 0;
                self.meta[i] = OCCUPIED;
                self.len += 1;
                return i;
            }
            if self.keys[i] == line {
                return i;
            }
            i = (i + 1) & self.mask;
        }
    }

    fn grow(&mut self) {
        let new_capacity = (self.mask + 1) * 2;
        let old_keys = std::mem::replace(&mut self.keys, vec![0; new_capacity].into_boxed_slice());
        let old_sharers =
            std::mem::replace(&mut self.sharers, vec![0; new_capacity].into_boxed_slice());
        let old_meta = std::mem::replace(&mut self.meta, vec![0; new_capacity].into_boxed_slice());
        self.mask = new_capacity - 1;
        for slot in 0..old_meta.len() {
            if old_meta[slot] & OCCUPIED != 0 {
                let mut i = self.home_slot(old_keys[slot]);
                while self.meta[i] & OCCUPIED != 0 {
                    i = (i + 1) & self.mask;
                }
                self.keys[i] = old_keys[slot];
                self.sharers[i] = old_sharers[slot];
                self.meta[i] = old_meta[slot];
            }
        }
    }

    /// The directory state of `line`.
    pub fn state_of(&self, line: u64) -> LineState {
        match self.find(line) {
            None => LineState::Invalid,
            Some(i) if self.sharers[i] == 0 => LineState::Invalid,
            Some(i) if self.meta[i] & MODIFIED != 0 => LineState::Modified,
            Some(_) => LineState::Shared,
        }
    }

    /// Registers a read by `core`; returns how the data is supplied.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn on_read(&mut self, core: usize, line: u64) -> ReadOutcome {
        assert!(core < self.num_cores, "core out of range");
        let i = self.find_or_insert(line);
        let bit = 1u64 << core;
        if self.meta[i] & MODIFIED != 0 && self.sharers[i] & bit == 0 {
            // Another core holds it modified: cache-to-cache, downgrade.
            let owner = self.sharers[i].trailing_zeros() as usize;
            self.meta[i] &= !MODIFIED;
            self.sharers[i] |= bit;
            ReadOutcome::CacheToCache { owner }
        } else {
            self.sharers[i] |= bit;
            ReadOutcome::FromMemoryPath
        }
    }

    /// Registers a write by `core`; returns the invalidation set.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn on_write(&mut self, core: usize, line: u64) -> WriteOutcome {
        assert!(core < self.num_cores, "core out of range");
        let i = self.find_or_insert(line);
        let bit = 1u64 << core;
        if self.meta[i] & MODIFIED != 0 && self.sharers[i] == bit {
            // Already the exclusive modified owner: silent.
            return WriteOutcome {
                invalidate: SharerMask::EMPTY,
                silent: true,
            };
        }
        // Sharer bits are only ever set for in-range cores, so no extra
        // num_cores masking is needed here.
        let others = self.sharers[i] & !bit;
        self.sharers[i] = bit;
        self.meta[i] |= MODIFIED;
        WriteOutcome {
            invalidate: SharerMask(others),
            silent: false,
        }
    }

    /// Lines currently tracked.
    pub fn tracked_lines(&self) -> usize {
        self.len
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn untouched_line_is_invalid() {
        let dir = Directory::new(4);
        assert_eq!(dir.state_of(5), LineState::Invalid);
    }

    #[test]
    fn read_makes_shared_write_makes_modified() {
        let mut dir = Directory::new(4);
        assert_eq!(dir.on_read(0, 1), ReadOutcome::FromMemoryPath);
        assert_eq!(dir.state_of(1), LineState::Shared);
        dir.on_write(0, 1);
        assert_eq!(dir.state_of(1), LineState::Modified);
    }

    #[test]
    fn write_invalidates_all_other_sharers() {
        let mut dir = Directory::new(8);
        for c in 0..5 {
            dir.on_read(c, 9);
        }
        let w = dir.on_write(5, 9);
        assert_eq!(w.invalidate.iter().collect::<Vec<_>>(), vec![0, 1, 2, 3, 4]);
        assert!(!w.silent);
        assert_eq!(dir.state_of(9), LineState::Modified);
    }

    #[test]
    fn repeat_writes_by_owner_are_silent() {
        let mut dir = Directory::new(2);
        dir.on_write(0, 3);
        let w = dir.on_write(0, 3);
        assert!(w.silent);
        assert!(w.invalidate.is_empty());
    }

    #[test]
    fn read_of_modified_line_is_cache_to_cache_and_downgrades() {
        let mut dir = Directory::new(4);
        dir.on_write(2, 7);
        assert_eq!(dir.on_read(0, 7), ReadOutcome::CacheToCache { owner: 2 });
        assert_eq!(dir.state_of(7), LineState::Shared);
        // Subsequent reads are plain shared reads.
        assert_eq!(dir.on_read(1, 7), ReadOutcome::FromMemoryPath);
    }

    #[test]
    fn owner_rereading_its_own_modified_line_is_local() {
        let mut dir = Directory::new(4);
        dir.on_write(1, 11);
        assert_eq!(dir.on_read(1, 11), ReadOutcome::FromMemoryPath);
        assert_eq!(dir.state_of(11), LineState::Modified);
    }

    #[test]
    fn upgrade_from_shared_self_copy_counts() {
        let mut dir = Directory::new(4);
        dir.on_read(0, 4);
        let w = dir.on_write(0, 4); // S -> M upgrade, no other sharers
        assert!(w.invalidate.is_empty());
        assert!(!w.silent);
        assert_eq!(dir.state_of(4), LineState::Modified);
    }

    #[test]
    fn table_grows_past_initial_capacity() {
        let mut dir = Directory::new(4);
        for line in 0..10_000u64 {
            dir.on_read(line as usize % 4, line * 7 + 1);
        }
        assert_eq!(dir.tracked_lines(), 10_000);
        for line in 0..10_000u64 {
            assert_ne!(
                dir.state_of(line * 7 + 1),
                LineState::Invalid,
                "line {line}"
            );
        }
    }

    #[test]
    fn sharer_mask_iterates_ascending() {
        let m = SharerMask::from_bits(0b1010_0101);
        assert_eq!(m.iter().collect::<Vec<_>>(), vec![0, 2, 5, 7]);
        assert_eq!(m.count(), 4);
        assert!(m.contains(5) && !m.contains(1) && !m.contains(64));
        assert_eq!(m.iter().len(), 4);
        assert!(SharerMask::EMPTY.is_empty());
    }

    #[test]
    #[should_panic(expected = "1-64 cores")]
    fn too_many_cores_rejected() {
        Directory::new(65);
    }

    #[test]
    #[should_panic(expected = "core out of range")]
    fn out_of_range_core_rejected() {
        Directory::new(2).on_read(2, 0);
    }
}
