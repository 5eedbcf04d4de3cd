//! Micro-benchmarks of the data-oriented hot-path structures: the flat
//! set-associative cache, the open-addressed TLB, the open-addressed
//! coherence directory, the Page-heatmap insert/overlap pair, and an
//! in-situ replica of the engine's per-block execute loop. These are
//! the structures every simulated instruction flows through;
//! `perfbench`'s `sim_fig7` workload measures the same path end-to-end
//! (see `perfbench/README.md`).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use schedtask_kernel::{GSHARE_ENTRIES, MISPREDICT_PENALTY};
use schedtask_sim::{
    CacheParams, CodeDomain, Directory, GshareBranchPredictor, MemorySystem, PageHeatmap,
    SetAssocCache, SystemConfig, Tlb,
};
use schedtask_workload::{Footprint, FootprintWalker, PageAllocator, WalkParams, LINES_PER_PAGE};
use std::sync::Arc;

/// A tiny deterministic stream generator (xorshift64*), so every bench
/// replays the same mixed access pattern.
struct Stream(u64);

impl Stream {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

/// The vendored criterion runs exactly `sample_size` iterations with no
/// warm-up phase, so ns-scale loops need a large sample to amortize
/// cold page faults on the structures' first touches.
const SAMPLES: usize = 200_000;

/// A 32 KB 4-way L1 on the access mix the L1i sees across `sim_fig7`'s
/// 48 cells: a third of accesses hit the MRU way, about half hit ways
/// 1-3, and a fifth miss. The stream is drawn before the timed loop from
/// an LRU model of the same geometry (a set at random per access, then
/// the way to hit or a fresh line to miss), so the loop times `access`
/// alone and the cache sees exactly that mix.
fn bench_cache(c: &mut Criterion) {
    const SETS: u64 = 128;
    let mut s = Stream(0x1234_5678);
    let mut model = vec![Vec::<u64>::new(); SETS as usize]; // MRU first
    let mut fresh = 0;
    let lines: Vec<u64> = (0..SAMPLES)
        .map(|_| {
            let r = s.next();
            let set_idx = r % SETS;
            let set = &mut model[set_idx as usize];
            // Of 15: 5 MRU hits, 7 hits in ways 1-3, 3 misses (way 4).
            let way = match (r >> 8) % 15 {
                0..=4 => 0,
                5..=11 => 1 + (r >> 40) % 3,
                _ => 4,
            } as usize;
            let line = if way < set.len() {
                set.remove(way)
            } else {
                fresh += 1;
                set.truncate(3);
                fresh * SETS + set_idx
            };
            set.insert(0, line);
            line
        })
        .collect();
    let mut g = c.benchmark_group("hotpath");
    g.sample_size(SAMPLES);
    g.bench_function("cache_access_mixed", |b| {
        let mut cache = SetAssocCache::new(CacheParams::new(32 * 1024, 4, 3));
        let mut next = lines.iter();
        b.iter(|| black_box(cache.access(*next.next().expect("one line per iteration"))));
    });
    g.finish();
}

/// 128-entry TLB on a page stream with strong locality (the iTLB/dTLB
/// mix): mostly repeats of a few hot pages, sporadic cold pages that
/// force the min-stamp eviction scan.
fn bench_tlb(c: &mut Criterion) {
    let mut g = c.benchmark_group("hotpath");
    g.sample_size(SAMPLES);
    g.bench_function("tlb_access_hot", |b| {
        let mut tlb = Tlb::new(128);
        let mut s = Stream(0x9E37_79B9);
        b.iter(|| {
            let r = s.next();
            let page = if r & 15 != 0 { r % 8 } else { r % 4096 };
            black_box(tlb.access(page))
        });
    });
    g.finish();
}

/// Directory read/write churn over a working set that exercises probe
/// chains and sharer-mask updates.
fn bench_directory(c: &mut Criterion) {
    let mut g = c.benchmark_group("hotpath");
    g.sample_size(SAMPLES);
    g.bench_function("directory_rw_churn", |b| {
        let mut dir = Directory::new(32);
        let mut s = Stream(0xD1CE);
        b.iter(|| {
            let r = s.next();
            let line = r % 4096;
            let core = (r >> 32) as usize % 32;
            if r >> 62 == 0 {
                black_box(dir.on_write(core, line));
            } else {
                black_box(dir.on_read(core, line));
            }
        });
    });
    g.finish();
}

/// One Page-heatmap insert followed by an overlap against a fixed
/// 64-page heatmap: the 512-bit AND/popcount that TAlloc's overlap
/// table repeats N² times per epoch.
fn bench_heatmap(c: &mut Criterion) {
    let mut g = c.benchmark_group("hotpath");
    g.sample_size(SAMPLES);
    g.bench_function("heatmap_insert_and_overlap", |b| {
        let mut a = PageHeatmap::new(512);
        let mut other = PageHeatmap::new(512);
        for p in 0..64 {
            other.insert_pfn(p);
        }
        let mut pfn = 0u64;
        b.iter(|| {
            pfn += 1;
            a.insert_pfn(pfn % 1024);
            black_box(a.overlap(&other))
        });
    });
    g.finish();
}

/// In-situ replica of `execute_quantum`'s per-block body: walker block,
/// i-side fetch, heatmap update, d-side access, branch predictor. This
/// is the per-block floor that `perfbench`'s end-to-end
/// `sim_minstr_per_s` divides into (8 instructions per block).
fn bench_block_loop(c: &mut Criterion) {
    let mut g = c.benchmark_group("hotpath");
    g.sample_size(SAMPLES);
    let cfg = SystemConfig::table2().with_cores(32);
    let mut mem = MemorySystem::new(&cfg);
    let mut alloc = PageAllocator::new();
    let code = Arc::new(Footprint::from_regions([&alloc.anonymous("code", 24)]));
    let shared = Arc::new(Footprint::from_regions([&alloc.anonymous("shared", 8)]));
    let private = Arc::new(Footprint::from_regions([&alloc.anonymous("priv", 4)]));
    let mut walker = FootprintWalker::new(code, shared, private, WalkParams::default(), 11);
    let mut heatmap = PageHeatmap::new(512);
    let mut bp = GshareBranchPredictor::new(GSHARE_ENTRIES);
    g.bench_function("walker_only", |b| {
        b.iter(|| black_box(walker.next_block()));
    });
    g.bench_function("fetch_code_only", |b| {
        b.iter(|| {
            let block = walker.next_block();
            black_box(mem.fetch_code(0, block.line, CodeDomain::Application))
        });
    });
    g.bench_function("access_data_only", |b| {
        b.iter(|| {
            let block = walker.next_block();
            if let Some(d) = block.data_ref {
                black_box(mem.access_data(0, d.line, d.write, CodeDomain::Application));
            }
        });
    });
    g.bench_function("engine_block_replica", |b| {
        b.iter(|| {
            let block = walker.next_block();
            let mut cycles = mem.fetch_code(0, block.line, CodeDomain::Application);
            heatmap.insert_pfn(block.line / LINES_PER_PAGE);
            if let Some(d) = block.data_ref {
                cycles += mem.access_data(0, d.line, d.write, CodeDomain::Application);
            }
            if !bp.predict_and_train(block.line, block.branch_taken) {
                cycles += MISPREDICT_PENALTY;
            }
            black_box(cycles)
        });
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_cache,
    bench_tlb,
    bench_directory,
    bench_heatmap,
    bench_block_loop
);
criterion_main!(benches);
