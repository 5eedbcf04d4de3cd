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

/// Lines for a `sets`-set cache of `ways` ways, drawn from an LRU model
/// of it before any timed loop: a set at random per access, then
/// `draw(r)` picks the way to hit (`ways` or more is a miss, which takes
/// the set's next fresh line), so `access` sees exactly that mix.
/// Returns the lines that fill every set first, to be accessed before
/// timing, and the stream itself.
fn lru_stream(
    sets: u64,
    ways: usize,
    seed: u64,
    draw: impl Fn(u64) -> usize,
) -> (Vec<u64>, Vec<u64>) {
    let mut s = Stream(seed);
    let mut fresh = vec![0; sets as usize];
    let mut next_line = |set_idx: u64| {
        fresh[set_idx as usize] += 1;
        fresh[set_idx as usize] * sets + set_idx
    };
    let mut model = vec![Vec::<u64>::new(); sets as usize]; // MRU first
    let mut warm = Vec::new();
    for _ in 0..ways {
        for set_idx in 0..sets {
            let line = next_line(set_idx);
            model[set_idx as usize].insert(0, line);
            warm.push(line);
        }
    }
    let lines = (0..SAMPLES)
        .map(|_| {
            let r = s.next();
            let set_idx = r % sets;
            let set = &mut model[set_idx as usize];
            let way = draw(r);
            let line = if way < set.len() {
                set.remove(way)
            } else {
                set.truncate(ways - 1);
                next_line(set_idx)
            };
            set.insert(0, line);
            line
        })
        .collect();
    (warm, lines)
}

/// Two caches on the access mix each sees across `sim_fig7`'s 48 cells,
/// replayed from [`lru_stream`] with every set filled first, so the loop
/// times `access` alone:
///
/// - a 32 KB 4-way L1, on the L1i's mix: a third of accesses hit the MRU
///   way, about half hit ways 1-3, and a fifth miss;
/// - the 8 MB 8-way LLC, on its mix ([`LLC_MIX`]: four fifths of its
///   20.4 M accesses hit the MRU way, 10.5% hit ways 1-3, 0.9% ways 4-7,
///   and 7.8% miss). The stream gives each of its 16,384 sets only a
///   dozen accesses, so without the fill its deep ways would stay empty.
fn bench_cache(c: &mut Criterion) {
    let (l1i_warm, l1i_lines) = lru_stream(128, 4, 0x1234_5678, |r| {
        // Of 15: 5 MRU hits, 7 hits in ways 1-3, 3 misses (way 4).
        let way = match (r >> 8) % 15 {
            0..=4 => 0,
            5..=11 => 1 + (r >> 40) % 3,
            _ => 4,
        };
        way as usize
    });
    let (llc_warm, llc_lines) = lru_stream(16 * 1024, 8, 0x8765_4321, |r| {
        let mut pick = (r >> 32) % 10_000;
        for (way, &share) in LLC_MIX.iter().enumerate() {
            if pick < share {
                return way;
            }
            pick -= share;
        }
        unreachable!("the mix sums to 10,000")
    });
    let mut g = c.benchmark_group("hotpath");
    g.sample_size(SAMPLES);
    let arms = [
        (
            "cache_access_mixed",
            CacheParams::new(32 * 1024, 4, 3),
            l1i_warm,
            l1i_lines,
        ),
        (
            "cache_access_llc",
            CacheParams::new(8 * 1024 * 1024, 8, 18),
            llc_warm,
            llc_lines,
        ),
    ];
    for (name, params, warm, lines) in arms {
        g.bench_function(name, |b| {
            let mut cache = SetAssocCache::new(params);
            for &line in &warm {
                cache.access(line);
            }
            let mut next = lines.iter();
            b.iter(|| black_box(cache.access(*next.next().expect("one line per iteration"))));
        });
    }
    g.finish();
}

/// The LLC's hit-depth mix over `sim_fig7`'s 48 cells at seed
/// 1592614637, in parts per 10,000: hits in ways 0-7, then misses.
const LLC_MIX: [u64; 9] = [8080, 740, 202, 108, 50, 23, 11, 2, 784];

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
