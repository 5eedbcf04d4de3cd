//! Pins the contents of the standard OS service catalog.
//!
//! One FNV-1a digest covers every service, taken in name order: its
//! name, raw `SuperFuncType`, code pages, shared-data pages, length
//! bounds, blocking profile and bottom half, plus the number of pages
//! the catalog allocated. The catalog's region allocation order fixes
//! every page number, so a reordered region or a changed field moves
//! the digest.

use schedtask_workload::{
    BlockingProfile, DeviceKind, Footprint, LenDist, PageAllocator, ServiceCatalog,
};

/// The digest of `ServiceCatalog::standard` on a fresh allocator.
const CATALOG_DIGEST: u64 = 0x9400_bb72_06e6_286e;

/// FNV-1a over little-endian words and length-prefixed strings.
struct Fnv(u64);

impl Fnv {
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    fn word(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn str(&mut self, s: &str) {
        self.word(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    fn pages(&mut self, fp: &Footprint) {
        self.word(fp.num_pages() as u64);
        for &p in fp.pages() {
            self.word(p);
        }
    }
}

/// One service's hashed fields.
struct Row<'a> {
    name: &'static str,
    raw_type: u64,
    code: &'a Footprint,
    shared_data: &'a Footprint,
    len: LenDist,
    blocking: Option<BlockingProfile>,
    bottom_half: Option<&'static str>,
}

fn rows(cat: &ServiceCatalog) -> Vec<Row<'_>> {
    let mut rows: Vec<Row<'_>> = cat
        .services()
        .map(|s| Row {
            name: s.name,
            raw_type: s.sf_type.raw(),
            code: &s.code,
            shared_data: &s.shared_data,
            len: s.len,
            blocking: s.blocking,
            bottom_half: s.bottom_half,
        })
        .collect();
    rows.sort_by_key(|r| r.name);
    rows
}

fn digest(rows: &[Row<'_>], pages_allocated: u64) -> u64 {
    let mut h = Fnv(0xCBF2_9CE4_8422_2325);
    h.word(rows.len() as u64);
    for r in rows {
        h.str(r.name);
        h.word(r.raw_type);
        h.pages(r.code);
        h.pages(r.shared_data);
        match r.len {
            LenDist::Fixed(n) => [0, n, n],
            LenDist::Uniform { lo, hi } => [1, lo, hi],
        }
        .into_iter()
        .for_each(|w| h.word(w));
        match r.blocking {
            None => h.word(0),
            Some(b) => {
                let device = match b.device {
                    DeviceKind::Disk => 1,
                    DeviceKind::Network => 2,
                    DeviceKind::Timer => 3,
                };
                h.word(device);
                h.word(b.probability.to_bits());
                h.word(b.at_fraction.to_bits());
            }
        }
        match r.bottom_half {
            None => h.word(0),
            Some(bh) => {
                h.word(1);
                h.str(bh);
            }
        }
    }
    h.word(pages_allocated);
    h.0
}

#[test]
fn standard_catalog_matches_its_recorded_digest() {
    let mut alloc = PageAllocator::new();
    let cat = ServiceCatalog::standard(&mut alloc);
    let rows = rows(&cat);
    assert_eq!(
        rows.len(),
        28,
        "21 system calls, 4 interrupts, 3 bottom halves"
    );
    let got = digest(&rows, alloc.pages_allocated());
    assert_eq!(
        got, CATALOG_DIGEST,
        "catalog digest {got:#018x} differs from the recorded one"
    );
}
