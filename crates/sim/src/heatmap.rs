//! The Page-heatmap register (Section 3.2): the paper's proposed hardware
//! Bloom filter summarizing the physical page frames a SuperFunction type
//! fetched instructions from.
//!
//! The hardware is a B-bit register (512 bits in the paper's chosen
//! configuration; Figure 11 sweeps 128-2048). When an instruction with
//! page frame number `pf` commits, the bit `hash(pf) mod B` is set, with
//!
//! ```text
//! hash(pf) = pf + (pf ≫ 9) + (pf ≫ 18) + (pf ≫ 27) + (pf ≫ 36) + (pf ≫ 45)
//! ```
//!
//! so that all 52 PFN bits participate. Similarity between two types is
//! the Hamming weight of the bitwise AND of their heatmaps (Figure 3).

/// A Page-heatmap Bloom filter of configurable width.
///
/// # Examples
///
/// ```
/// use schedtask_sim::PageHeatmap;
///
/// let mut a = PageHeatmap::new(512);
/// let mut b = PageHeatmap::new(512);
/// for pfn in 0..20 {
///     a.insert_pfn(pfn);
///     b.insert_pfn(pfn + 10); // pages 10..20 shared
/// }
/// assert!(a.overlap(&b) >= 10);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PageHeatmap {
    bits: Vec<u64>,
    num_bits: u32,
}

impl PageHeatmap {
    /// The paper's chosen register width.
    pub const DEFAULT_BITS: u32 = 512;

    /// Creates an all-zero heatmap of `num_bits` bits.
    ///
    /// # Panics
    ///
    /// Panics unless `num_bits` is a power of two of at least 64, as
    /// every width of Figure 11 is: the register is manipulated in
    /// word-sized chunks, as the paper's sixteen 32-bit AND operations
    /// suggest, and `hash mod B` is a mask.
    pub fn new(num_bits: u32) -> Self {
        assert!(
            num_bits >= 64 && num_bits.is_power_of_two(),
            "width must be a power-of-two multiple of 64"
        );
        PageHeatmap {
            bits: vec![0; (num_bits / 64) as usize],
            num_bits,
        }
    }

    /// The paper's PFN hash: sum of the PFN and five right-shifts by
    /// multiples of 9, covering all 52 PFN bits.
    pub fn hash_pfn(pfn: u64) -> u64 {
        pfn.wrapping_add(pfn >> 9)
            .wrapping_add(pfn >> 18)
            .wrapping_add(pfn >> 27)
            .wrapping_add(pfn >> 36)
            .wrapping_add(pfn >> 45)
    }

    /// Register width in bits.
    pub fn num_bits(&self) -> u32 {
        self.num_bits
    }

    /// Sets the bit for `pfn` (the hardware action at instruction commit).
    pub fn insert_pfn(&mut self, pfn: u64) {
        let bit = self.bit_of(pfn);
        self.bits[(bit / 64) as usize] |= 1u64 << (bit % 64);
    }

    /// Register bit selected by `pfn`: `hash mod B`, a mask since B is a
    /// power of two.
    #[inline]
    fn bit_of(&self, pfn: u64) -> u32 {
        Self::hash_pfn(pfn) as u32 & (self.num_bits - 1)
    }

    /// True if the bit for `pfn` is set (membership may be a false
    /// positive, never a false negative — Bloom semantics).
    pub fn maybe_contains(&self, pfn: u64) -> bool {
        let bit = self.bit_of(pfn);
        self.bits[(bit / 64) as usize] & (1u64 << (bit % 64)) != 0
    }

    /// Page overlap between two heatmaps: the Hamming weight of their
    /// bitwise AND (Figure 3).
    ///
    /// # Panics
    ///
    /// Panics if the widths differ.
    pub fn overlap(&self, other: &PageHeatmap) -> u32 {
        assert_eq!(self.num_bits, other.num_bits, "heatmap widths must match");
        self.bits
            .iter()
            .zip(other.bits.iter())
            .map(|(a, b)| (a & b).count_ones())
            .sum()
    }

    /// Ors `other` into `self` (TAlloc's per-core aggregation, Figure 6).
    ///
    /// # Panics
    ///
    /// Panics if the widths differ.
    pub fn union_with(&mut self, other: &PageHeatmap) {
        assert_eq!(self.num_bits, other.num_bits, "heatmap widths must match");
        for (a, b) in self.bits.iter_mut().zip(other.bits.iter()) {
            *a |= *b;
        }
    }

    /// Toggles one bit of the register, as an SRAM soft error would.
    /// `bit` is reduced modulo the register width, so any `u32` is a
    /// valid input. Used by the kernel's fault injector to model
    /// heatmap corruption; Bloom semantics degrade (a cleared bit can
    /// produce a false negative) which is exactly the degradation the
    /// robustness experiments measure.
    pub fn toggle_bit(&mut self, bit: u32) {
        let bit = bit % self.num_bits;
        self.bits[(bit / 64) as usize] ^= 1u64 << (bit % 64);
    }

    /// Number of set bits.
    pub fn popcount(&self) -> u32 {
        self.bits.iter().map(|w| w.count_ones()).sum()
    }

    /// Clears every bit (done at the start of each epoch).
    pub fn clear(&mut self) {
        self.bits.fill(0);
    }

    /// True if no bit is set.
    pub fn is_empty(&self) -> bool {
        self.bits.iter().all(|&w| w == 0)
    }
}

impl Default for PageHeatmap {
    fn default() -> Self {
        PageHeatmap::new(Self::DEFAULT_BITS)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_matches_paper_formula() {
        let pfn = 0x000F_1234_5678u64;
        let expected = pfn + (pfn >> 9) + (pfn >> 18) + (pfn >> 27) + (pfn >> 36) + (pfn >> 45);
        assert_eq!(PageHeatmap::hash_pfn(pfn), expected);
    }

    #[test]
    fn insert_sets_exactly_one_bit() {
        let mut hm = PageHeatmap::new(512);
        hm.insert_pfn(42);
        assert_eq!(hm.popcount(), 1);
        assert!(hm.maybe_contains(42));
    }

    #[test]
    fn no_false_negatives() {
        let mut hm = PageHeatmap::new(128);
        for pfn in 0..1000 {
            hm.insert_pfn(pfn * 37);
        }
        for pfn in 0..1000 {
            assert!(hm.maybe_contains(pfn * 37));
        }
    }

    #[test]
    fn overlap_counts_common_bits() {
        let mut a = PageHeatmap::new(512);
        let mut b = PageHeatmap::new(512);
        a.insert_pfn(1);
        a.insert_pfn(2);
        b.insert_pfn(2);
        b.insert_pfn(3);
        assert!(a.overlap(&b) >= 1);
        assert_eq!(a.overlap(&a), a.popcount());
    }

    #[test]
    fn disjoint_small_sets_have_low_overlap() {
        let mut a = PageHeatmap::new(2048);
        let mut b = PageHeatmap::new(2048);
        for pfn in 0..8 {
            a.insert_pfn(pfn);
            b.insert_pfn(pfn + 1000);
        }
        assert!(
            a.overlap(&b) <= 1,
            "collision noise should be tiny at 2048 bits"
        );
    }

    #[test]
    fn union_is_bitwise_or() {
        let mut a = PageHeatmap::new(512);
        let mut b = PageHeatmap::new(512);
        a.insert_pfn(5);
        b.insert_pfn(700);
        a.union_with(&b);
        assert!(a.maybe_contains(5));
        assert!(a.maybe_contains(700));
    }

    #[test]
    fn clear_resets() {
        let mut a = PageHeatmap::new(512);
        a.insert_pfn(9);
        assert!(!a.is_empty());
        a.clear();
        assert!(a.is_empty());
        assert_eq!(a.popcount(), 0);
    }

    #[test]
    fn toggle_flips_and_restores() {
        let mut hm = PageHeatmap::new(512);
        hm.insert_pfn(42);
        let before = hm.clone();
        hm.toggle_bit(7);
        assert_ne!(hm, before);
        hm.toggle_bit(7);
        assert_eq!(hm, before);
        // Out-of-range indices wrap instead of panicking.
        hm.toggle_bit(u32::MAX);
        assert_ne!(hm, before);
    }

    #[test]
    fn narrower_registers_collide_more() {
        // With 1024 distinct pages, a 128-bit filter saturates while a
        // 2048-bit filter retains discrimination (the premise of Fig 11).
        let mut small = PageHeatmap::new(128);
        let mut large = PageHeatmap::new(2048);
        for pfn in 0..1024 {
            small.insert_pfn(pfn);
            large.insert_pfn(pfn);
        }
        assert_eq!(small.popcount(), 128); // fully saturated
        assert!(large.popcount() > 400);
    }

    #[test]
    #[should_panic(expected = "multiple of 64")]
    fn ragged_width_rejected() {
        PageHeatmap::new(100);
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn width_of_three_words_rejected() {
        PageHeatmap::new(192);
    }

    #[test]
    #[should_panic(expected = "widths must match")]
    fn mismatched_overlap_rejected() {
        let a = PageHeatmap::new(128);
        let b = PageHeatmap::new(256);
        a.overlap(&b);
    }

    #[test]
    fn default_is_512_bits() {
        assert_eq!(PageHeatmap::default().num_bits(), 512);
    }
}
