//! Fully-associative translation lookaside buffers with LRU replacement.
//!
//! # Data layout
//!
//! Resident translations live in one flat array of interleaved
//! `(page, last-use stamp)` pairs, so the hot hit path — compare the
//! page, refresh the stamp — touches a single hardware cache line.
//! Stamps come from a monotonic counter and encode the exact LRU total
//! order, so nothing ever moves on a hit. Lookups go through a
//! fixed-size open-addressed index (linear probing, backward-shift
//! deletion) of interleaved `(page, slot+1)` pairs mapping page → slot
//! — again one line per probe — fronted by a single-entry MRU check
//! that catches the long same-page streaks of instruction fetch. Only
//! that check inlines into the caller; the index probe and the install
//! are one out-of-line call. The min-stamp victim scan runs only on a
//! capacity miss. This replaces a `VecDeque` that paid an O(n) search
//! plus `remove` + `push_front` shuffle on every access; both
//! representations implement exact LRU, so hit/miss sequences are
//! identical.

/// A fully-associative TLB over page identifiers.
///
/// The paper's Table 2 machine has 128-entry iTLB and dTLB per core; TLB
/// hit-rate deltas are reported in Section 6.1 ("TLB hit rates").
///
/// # Examples
///
/// ```
/// use schedtask_sim::Tlb;
///
/// let mut tlb = Tlb::new(2);
/// assert!(!tlb.access(10));
/// assert!(tlb.access(10));
/// tlb.access(11);
/// tlb.access(12);         // evicts page 10
/// assert!(!tlb.access(10));
/// ```
#[derive(Debug, Clone)]
pub struct Tlb {
    /// Interleaved resident translations: slot `i` is
    /// `entries[2i]` = page, `entries[2i + 1]` = stamp of last use.
    /// The first `len` slots are valid, unordered; the minimum stamp
    /// over valid slots is the exact LRU victim.
    entries: Box<[u64]>,
    /// Open-addressed page → slot index, interleaved: position `h` is
    /// `idx[2h]` = page key, `idx[2h + 1]` = slot + 1 (0 = empty).
    /// Capacity is a power of two ≥ 2× entries, so the load factor
    /// never exceeds one half and probes stay short.
    idx: Box<[u64]>,
    idx_mask: usize,
    len: usize,
    clock: u64,
    /// Slot of the most recent hit/install: checked before the index.
    mru: usize,
}

impl Tlb {
    /// Creates an empty TLB with room for `entries` translations.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is zero.
    pub fn new(entries: usize) -> Self {
        assert!(entries > 0, "a TLB needs at least one entry");
        let idx_capacity = (entries * 2).next_power_of_two();
        Tlb {
            entries: vec![0; entries * 2].into_boxed_slice(),
            idx: vec![0; idx_capacity * 2].into_boxed_slice(),
            idx_mask: idx_capacity - 1,
            len: 0,
            clock: 0,
            mru: 0,
        }
    }

    #[inline]
    fn home(&self, page: u64) -> usize {
        (page.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize & self.idx_mask
    }

    /// Index position holding `page`, if resident.
    #[inline]
    fn idx_find(&self, page: u64) -> Option<usize> {
        let mut i = self.home(page);
        loop {
            if self.idx[2 * i + 1] == 0 {
                return None;
            }
            if self.idx[2 * i] == page {
                return Some(i);
            }
            i = (i + 1) & self.idx_mask;
        }
    }

    fn idx_insert(&mut self, page: u64, slot: usize) {
        let mut i = self.home(page);
        while self.idx[2 * i + 1] != 0 {
            i = (i + 1) & self.idx_mask;
        }
        self.idx[2 * i] = page;
        self.idx[2 * i + 1] = slot as u64 + 1;
    }

    /// Removes the index entry for `page` with backward-shift deletion
    /// so probe chains stay tombstone-free.
    fn idx_remove(&mut self, page: u64) {
        let Some(mut hole) = self.idx_find(page) else {
            return;
        };
        self.idx[2 * hole + 1] = 0;
        let mut j = (hole + 1) & self.idx_mask;
        while self.idx[2 * j + 1] != 0 {
            let home = self.home(self.idx[2 * j]);
            let stays = if hole <= j {
                hole < home && home <= j
            } else {
                hole < home || home <= j
            };
            if !stays {
                self.idx[2 * hole] = self.idx[2 * j];
                self.idx[2 * hole + 1] = self.idx[2 * j + 1];
                self.idx[2 * j + 1] = 0;
                hole = j;
            }
            j = (j + 1) & self.idx_mask;
        }
    }

    /// Translates `page`; returns `true` on hit. A miss installs the
    /// translation, evicting the LRU entry when full.
    #[inline]
    pub fn access(&mut self, page: u64) -> bool {
        self.clock += 1;
        // Fast path: instruction streams touch the same page for long
        // streaks, so one compare avoids even the index probe. It is
        // small enough to inline into every caller; the rest is not.
        if self.len > 0 && self.entries[2 * self.mru] == page {
            self.entries[2 * self.mru + 1] = self.clock;
            return true;
        }
        self.access_other(page)
    }

    /// [`access`](Self::access) past the MRU entry: the index probe, and
    /// on a miss the install with its LRU eviction.
    #[inline(never)]
    fn access_other(&mut self, page: u64) -> bool {
        if let Some(i) = self.idx_find(page) {
            let slot = (self.idx[2 * i + 1] - 1) as usize;
            self.entries[2 * slot + 1] = self.clock;
            self.mru = slot;
            true
        } else {
            let slot = if self.len < self.entries.len() / 2 {
                self.len += 1;
                self.len - 1
            } else {
                // Exact LRU: evict the slot with the oldest stamp.
                let mut victim = 0;
                let mut oldest = self.entries[1];
                for i in 1..self.len {
                    let s = self.entries[2 * i + 1];
                    if s < oldest {
                        oldest = s;
                        victim = i;
                    }
                }
                self.idx_remove(self.entries[2 * victim]);
                victim
            };
            self.entries[2 * slot] = page;
            self.entries[2 * slot + 1] = self.clock;
            self.idx_insert(page, slot);
            self.mru = slot;
            false
        }
    }

    /// Drops all translations. No simulation calls it: every thread
    /// shares one physical page space and the engine never switches
    /// address spaces, so a TLB is only ever cold at the start of a run.
    pub fn flush(&mut self) {
        self.len = 0;
        self.idx.fill(0);
        self.mru = 0;
    }

    /// Number of resident translations.
    pub fn resident_entries(&self) -> usize {
        self.len
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miss_then_hit() {
        let mut t = Tlb::new(4);
        assert!(!t.access(1));
        assert!(t.access(1));
    }

    #[test]
    fn lru_eviction() {
        let mut t = Tlb::new(2);
        t.access(1);
        t.access(2);
        t.access(1); // refresh 1; LRU = 2
        t.access(3); // evict 2
        assert!(t.access(1));
        assert!(!t.access(2));
    }

    #[test]
    fn capacity_bound() {
        let mut t = Tlb::new(8);
        for p in 0..100 {
            t.access(p);
        }
        assert_eq!(t.resident_entries(), 8);
    }

    #[test]
    fn flush_then_refill_uses_fresh_slots() {
        let mut t = Tlb::new(2);
        t.access(1);
        t.access(2);
        t.flush();
        assert_eq!(t.resident_entries(), 0);
        // Stale pre-flush entries must not hit.
        assert!(!t.access(1));
        assert!(!t.access(2));
        assert_eq!(t.resident_entries(), 2);
        assert!(t.access(1) && t.access(2));
    }

    #[test]
    fn eviction_churn_keeps_index_consistent() {
        // Far more pages than capacity, revisited in waves: every access
        // must agree with a straightforward reference LRU model.
        let entries = 8;
        let mut t = Tlb::new(entries);
        let mut reference: Vec<u64> = Vec::new(); // front = MRU
        let mut page_seq = 0u64;
        for round in 0..2_000u64 {
            // Deterministic mix of repeats and fresh pages.
            let page = if round % 3 == 0 {
                page_seq += 1;
                page_seq * 97
            } else {
                (round % 11) * 97
            };
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
            assert_eq!(t.access(page), expect, "round {round} page {page}");
        }
        assert_eq!(t.resident_entries(), entries);
    }

    #[test]
    #[should_panic(expected = "at least one entry")]
    fn zero_entries_rejected() {
        Tlb::new(0);
    }

    #[test]
    fn hit_rate_reflects_locality() {
        let mut t = Tlb::new(128);
        let mut hits = 0;
        for _ in 0..10 {
            for p in 0..64 {
                hits += u32::from(t.access(p));
            }
        }
        assert!(hits > 544, "{hits} of 640 accesses hit");
    }
}
