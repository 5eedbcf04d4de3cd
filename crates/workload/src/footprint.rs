//! Code and data footprints: which physical pages a SuperFunction type
//! touches.
//!
//! The paper's similarity mechanism (Section 3.2) works on *physical page
//! frames*, because two applications sharing `libc.so` or two related
//! system calls (`read`/`pread`) reach the same physical pages through
//! different virtual addresses. We therefore build footprints out of
//! named, shared [`Region`]s of a single physical address space: the
//! `read` and `pread` handlers both include the `vfs_common` region, so
//! their footprints overlap in exactly the way the paper exploits.

/// Lines per 4 KB page with 64-byte lines.
pub const LINES_PER_PAGE: u64 = 64;

/// A contiguous run of physical pages with a name, produced by
/// [`PageAllocator::region`](crate::PageAllocator::region).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Region {
    name: String,
    first_page: u64,
    pages: u64,
}

impl Region {
    pub(crate) fn new(name: impl Into<String>, first_page: u64, pages: u64) -> Self {
        assert!(pages > 0, "a region needs at least one page");
        Region {
            name: name.into(),
            first_page,
            pages,
        }
    }

    /// Region name (e.g. `"vfs_common"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// First physical page frame number.
    pub fn first_page(&self) -> u64 {
        self.first_page
    }

    /// Number of pages.
    pub fn pages(&self) -> u64 {
        self.pages
    }

    /// Iterator over the page frame numbers in this region.
    pub fn page_iter(&self) -> impl Iterator<Item = u64> + '_ {
        self.first_page..self.first_page + self.pages
    }
}

/// The set of physical code pages one SuperFunction type executes from,
/// assembled from one or more (possibly shared) regions.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Footprint {
    pages: Vec<u64>,
}

impl Footprint {
    /// An empty footprint.
    pub fn new() -> Self {
        Footprint::default()
    }

    /// Builds a footprint from regions. Pages are deduplicated and kept
    /// in insertion order (the walker treats earlier pages as hotter).
    pub fn from_regions<'a>(regions: impl IntoIterator<Item = &'a Region>) -> Self {
        let mut fp = Footprint::new();
        for r in regions {
            fp.add_region(r);
        }
        fp
    }

    /// Appends all pages of `region` (skipping duplicates).
    pub fn add_region(&mut self, region: &Region) {
        for p in region.page_iter() {
            if !self.pages.contains(&p) {
                self.pages.push(p);
            }
        }
    }

    /// Number of distinct pages.
    pub fn num_pages(&self) -> usize {
        self.pages.len()
    }

    /// Footprint size in bytes (pages × 4 KB).
    pub fn size_bytes(&self) -> u64 {
        self.pages.len() as u64 * 4096
    }

    /// The page frame numbers, hottest first.
    pub fn pages(&self) -> &[u64] {
        &self.pages
    }

    /// Number of pages shared with another footprint.
    pub fn overlap_pages(&self, other: &Footprint) -> usize {
        self.pages
            .iter()
            .filter(|p| other.pages.contains(p))
            .count()
    }

    /// Global line id of line `line_in_page` within page index `page_idx`
    /// of this footprint.
    ///
    /// # Panics
    ///
    /// Panics if `page_idx` is out of range or `line_in_page >= 64`.
    pub fn line(&self, page_idx: usize, line_in_page: u64) -> u64 {
        assert!(line_in_page < LINES_PER_PAGE, "line offset within a page");
        self.pages[page_idx] * LINES_PER_PAGE + line_in_page
    }

    /// True if the footprint has no pages.
    pub fn is_empty(&self) -> bool {
        self.pages.is_empty()
    }

    /// True if `page` belongs to this footprint.
    pub fn contains_page(&self, page: u64) -> bool {
        self.pages.contains(&page)
    }

    /// The union of two footprints (order: self's pages, then other's
    /// new pages).
    pub fn union(&self, other: &Footprint) -> Footprint {
        let mut out = self.clone();
        for &p in other.pages() {
            if !out.pages.contains(&p) {
                out.pages.push(p);
            }
        }
        out
    }

    /// The pages common to both footprints, in self's order.
    pub fn intersection(&self, other: &Footprint) -> Footprint {
        Footprint {
            pages: self
                .pages
                .iter()
                .copied()
                .filter(|p| other.pages.contains(p))
                .collect(),
        }
    }
}

impl std::fmt::Display for Footprint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} pages ({} KB)",
            self.num_pages(),
            self.num_pages() * 4
        )
    }
}

impl FromIterator<u64> for Footprint {
    /// Builds a footprint from raw page frame numbers, deduplicating
    /// while preserving first-seen order.
    fn from_iter<I: IntoIterator<Item = u64>>(iter: I) -> Self {
        let mut fp = Footprint::new();
        for p in iter {
            if !fp.pages.contains(&p) {
                fp.pages.push(p);
            }
        }
        fp
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn region_pages_are_contiguous() {
        let r = Region::new("x", 10, 3);
        assert_eq!(r.page_iter().collect::<Vec<_>>(), vec![10, 11, 12]);
    }

    #[test]
    #[should_panic(expected = "at least one page")]
    fn empty_region_rejected() {
        Region::new("x", 0, 0);
    }

    #[test]
    fn footprint_dedups_shared_regions() {
        let shared = Region::new("shared", 0, 4);
        let private = Region::new("private", 4, 2);
        let fp = Footprint::from_regions([&shared, &private, &shared]);
        assert_eq!(fp.num_pages(), 6);
    }

    #[test]
    fn overlap_counts_common_pages() {
        let shared = Region::new("shared", 0, 4);
        let a_priv = Region::new("a", 10, 2);
        let b_priv = Region::new("b", 20, 3);
        let a = Footprint::from_regions([&shared, &a_priv]);
        let b = Footprint::from_regions([&shared, &b_priv]);
        assert_eq!(a.overlap_pages(&b), 4);
        assert_eq!(b.overlap_pages(&a), 4);
    }

    #[test]
    fn disjoint_footprints_have_zero_overlap() {
        let a = Footprint::from_regions([&Region::new("a", 0, 2)]);
        let b = Footprint::from_regions([&Region::new("b", 2, 2)]);
        assert_eq!(a.overlap_pages(&b), 0);
    }

    #[test]
    fn line_addressing() {
        let fp = Footprint::from_regions([&Region::new("r", 5, 1)]);
        assert_eq!(fp.line(0, 0), 5 * 64);
        assert_eq!(fp.line(0, 63), 5 * 64 + 63);
    }

    #[test]
    #[should_panic(expected = "within a page")]
    fn line_offset_out_of_range() {
        let fp = Footprint::from_regions([&Region::new("r", 0, 1)]);
        fp.line(0, 64);
    }

    #[test]
    fn set_operations() {
        let a: Footprint = [1u64, 2, 3, 4].into_iter().collect();
        let b: Footprint = [3u64, 4, 5].into_iter().collect();
        let u = a.union(&b);
        assert_eq!(u.num_pages(), 5);
        let i = a.intersection(&b);
        assert_eq!(i.pages(), &[3, 4]);
        assert!(a.contains_page(2));
        assert!(!a.contains_page(9));
    }

    #[test]
    fn from_iterator_dedups_in_order() {
        let fp: Footprint = [5u64, 1, 5, 2, 1].into_iter().collect();
        assert_eq!(fp.pages(), &[5, 1, 2]);
    }

    #[test]
    fn display_shows_size() {
        let fp: Footprint = (0u64..8).collect();
        assert_eq!(fp.to_string(), "8 pages (32 KB)");
    }

    #[test]
    fn size_bytes() {
        let fp = Footprint::from_regions([&Region::new("r", 0, 8)]);
        assert_eq!(fp.size_bytes(), 32 * 1024);
    }
}
