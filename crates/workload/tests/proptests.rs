//! Property-based tests for the workload models.

use proptest::prelude::*;
use schedtask_workload::{
    BenchmarkInstance, BenchmarkKind, BenchmarkSpec, Footprint, FootprintWalker, PageAllocator,
    WalkParams, LINES_PER_PAGE,
};
use std::sync::Arc;

fn any_kind() -> impl Strategy<Value = BenchmarkKind> {
    prop::sample::select(BenchmarkKind::all().to_vec())
}

fn any_params() -> impl Strategy<Value = WalkParams> {
    (
        1u32..32,
        0.0f64..0.9,
        0.01f64..1.0,
        0.0f64..1.0,
        0.0f64..0.9,
    )
        .prop_map(
            |(instr, p_jump, hot_fraction, hot_bias, p_data)| WalkParams {
                instr_per_line: instr,
                p_jump,
                hot_fraction,
                hot_bias,
                p_data,
                ..WalkParams::default()
            },
        )
}

proptest! {
    /// The walker never leaves its code footprint, for any parameters.
    #[test]
    fn walker_confined_to_footprint(
        params in any_params(),
        pages in 1u64..64,
        seed in 0u64..1_000,
    ) {
        let mut alloc = PageAllocator::new();
        let r = alloc.anonymous("code", pages);
        let code = Arc::new(Footprint::from_regions([&r]));
        let data = Arc::new(Footprint::new());
        let mut w = FootprintWalker::new(code.clone(), data.clone(), data, params, seed);
        for _ in 0..500 {
            let b = w.next_block();
            let page = b.line / LINES_PER_PAGE;
            prop_assert!(code.pages().contains(&page));
            prop_assert_eq!(b.instructions, params.instr_per_line);
        }
    }

    /// Two walkers with identical inputs produce identical streams.
    #[test]
    fn walker_is_a_pure_function_of_seed(params in any_params(), seed in 0u64..1_000) {
        let mut alloc = PageAllocator::new();
        let r = alloc.anonymous("code", 8);
        let d = alloc.anonymous("data", 4);
        let code = Arc::new(Footprint::from_regions([&r]));
        let data = Arc::new(Footprint::from_regions([&d]));
        let mut a = FootprintWalker::new(code.clone(), data.clone(), data.clone(), params, seed);
        let mut b = FootprintWalker::new(code, data.clone(), data, params, seed);
        for _ in 0..300 {
            prop_assert_eq!(a.next_block(), b.next_block());
        }
    }

    /// Thread counts scale monotonically in cores and scale factor, and
    /// are never zero.
    #[test]
    fn thread_counts_are_monotone(kind in any_kind(), cores in 1usize..64, scale in 0.25f64..8.0) {
        let spec = BenchmarkSpec::for_kind(kind);
        let t = spec.threads(cores, scale);
        prop_assert!(t >= 1);
        prop_assert!(spec.threads(cores * 2, scale) >= t);
        prop_assert!(spec.threads(cores, scale * 2.0) >= t);
    }

    /// Instantiating the same benchmark twice in one address space keeps
    /// the same application superFuncType (same executable pages).
    #[test]
    fn reinstantiation_shares_executable(kind in any_kind()) {
        let mut alloc = PageAllocator::new();
        let a = BenchmarkInstance::new(BenchmarkSpec::for_kind(kind), &mut alloc);
        let b = BenchmarkInstance::new(BenchmarkSpec::for_kind(kind), &mut alloc);
        prop_assert_eq!(a.app_super_func_type, b.app_super_func_type);
        prop_assert_eq!(a.app_code.pages(), b.app_code.pages());
    }

    /// Sampled syscalls always come from the declared mix.
    #[test]
    fn sampled_syscalls_are_in_the_mix(kind in any_kind(), seed in 0u64..500) {
        use rand::{rngs::SmallRng, SeedableRng};
        let mut alloc = PageAllocator::new();
        let inst = BenchmarkInstance::new(BenchmarkSpec::for_kind(kind), &mut alloc);
        let names: Vec<&str> = inst.spec.syscall_mix.iter().map(|m| m.name).collect();
        let mut rng = SmallRng::seed_from_u64(seed);
        for _ in 0..50 {
            let s = inst.sample_syscall(&mut rng);
            prop_assert!(names.contains(&s), "{s} not in mix of {}", inst.spec.kind.name());
        }
    }

    /// Anonymous allocations never overlap named regions or each other.
    #[test]
    fn allocator_never_overlaps(sizes in prop::collection::vec(1u64..32, 1..16)) {
        let mut alloc = PageAllocator::new();
        let named = alloc.region("shared", 10);
        let mut seen: std::collections::HashSet<u64> = named.page_iter().collect();
        for (i, &s) in sizes.iter().enumerate() {
            let r = alloc.anonymous(&format!("t{i}"), s);
            for p in r.page_iter() {
                prop_assert!(seen.insert(p), "page {p} allocated twice");
            }
        }
    }
}
