//! Observational-equivalence proptest for the walker's integer draws.
//!
//! `FootprintWalker` tests each Bernoulli draw against an integer
//! threshold precomputed from its probability. The reference walker
//! below draws with `Rng::gen_bool` on the raw probabilities and
//! `Rng::gen_range`; over the same footprints, parameters and seed, both
//! must emit the identical `CodeBlock` stream, step for step.
//! Probabilities include 0, 1, values outside [0, 1], NaN, exact
//! multiples of 2⁻⁵³ and their neighbours one ulp either side.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use schedtask_workload::{
    CodeBlock, DataRef, Footprint, FootprintWalker, PageAllocator, WalkParams, LINES_PER_PAGE,
};
use std::sync::Arc;

/// The walk with `gen_bool` on the raw probabilities.
struct RefWalker {
    code: Arc<Footprint>,
    shared_data: Arc<Footprint>,
    private_data: Arc<Footprint>,
    params: WalkParams,
    rng: SmallRng,
    page_idx: usize,
    line_in_page: u64,
    hot_pages: usize,
    last_data_line: Option<u64>,
}

impl RefWalker {
    fn new(
        code: Arc<Footprint>,
        shared_data: Arc<Footprint>,
        private_data: Arc<Footprint>,
        params: WalkParams,
        seed: u64,
    ) -> Self {
        let hot_pages = ((code.num_pages() as f64 * params.hot_fraction).ceil() as usize)
            .clamp(1, code.num_pages());
        RefWalker {
            code,
            shared_data,
            private_data,
            params,
            rng: SmallRng::seed_from_u64(seed),
            page_idx: 0,
            line_in_page: 0,
            hot_pages,
            last_data_line: None,
        }
    }

    fn next_block(&mut self) -> CodeBlock {
        let line = self.code.line(self.page_idx, self.line_in_page);
        let data_ref = self.maybe_data_ref();
        let branch_taken = self.advance();
        CodeBlock {
            line,
            instructions: self.params.instr_per_line,
            data_ref,
            branch_taken,
        }
    }

    fn maybe_data_ref(&mut self) -> Option<DataRef> {
        if !self.rng.gen_bool(self.params.p_data) {
            return None;
        }
        let write = self.rng.gen_bool(self.params.p_write);
        if let Some(last) = self.last_data_line {
            if self.rng.gen_bool(self.params.p_data_repeat) {
                return Some(DataRef { line: last, write });
            }
        }
        let fp = if self.rng.gen_bool(self.params.p_shared_data) && !self.shared_data.is_empty() {
            &self.shared_data
        } else if !self.private_data.is_empty() {
            &self.private_data
        } else if !self.shared_data.is_empty() {
            &self.shared_data
        } else {
            return None;
        };
        let n = fp.num_pages();
        let page_idx = if self.rng.gen_bool(0.8) {
            self.rng.gen_range(0..(n / 4).max(1))
        } else {
            self.rng.gen_range(0..n)
        };
        let line_in_page = self.rng.gen_range(0..LINES_PER_PAGE);
        let line = fp.line(page_idx, line_in_page);
        self.last_data_line = Some(line);
        Some(DataRef { line, write })
    }

    fn advance(&mut self) -> bool {
        self.line_in_page += 1;
        let page_end = self.line_in_page >= LINES_PER_PAGE;
        if page_end || self.rng.gen_bool(self.params.p_jump) {
            let to_hot = self.rng.gen_bool(self.params.hot_bias);
            self.page_idx = if to_hot {
                self.rng.gen_range(0..self.hot_pages)
            } else {
                self.rng.gen_range(0..self.code.num_pages())
            };
            self.line_in_page = self.rng.gen_range(0..LINES_PER_PAGE);
            true
        } else {
            false
        }
    }
}

const ONE: u64 = 1 << 53;

/// Probabilities at the edges of `gen_bool`'s test.
fn edge_probabilities() -> Vec<f64> {
    let mut ps = vec![
        0.0,
        -0.0,
        1.0,
        -0.25,
        -1.0,
        1.25,
        2.0,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
        5e-324,
    ];
    for k in [1, 2, 3, ONE / 10, ONE / 2, ONE - 3, ONE - 1] {
        ps.push(k as f64 / ONE as f64);
    }
    for p in ps.clone() {
        ps.push(p.next_up());
        ps.push(p.next_down());
    }
    ps
}

/// A probability: an edge value, an exact multiple of 2⁻⁵³, a multiple's
/// ulp neighbour, or a plain value in and around [0, 1].
fn any_probability() -> impl Strategy<Value = f64> {
    let edges = edge_probabilities();
    (0u8..4, 0usize..edges.len(), 0u64..=ONE, -0.1f64..1.1).prop_map(move |(kind, i, k, plain)| {
        let multiple = k as f64 / ONE as f64;
        match kind {
            0 => edges[i],
            1 => multiple,
            2 if i % 2 == 0 => multiple.next_up(),
            2 => multiple.next_down(),
            _ => plain,
        }
    })
}

fn any_params() -> impl Strategy<Value = WalkParams> {
    (
        (1u32..32, -0.2f64..1.2),
        any_probability(),
        any_probability(),
        any_probability(),
        any_probability(),
        any_probability(),
        any_probability(),
    )
        .prop_map(
            |(
                (instr_per_line, hot_fraction),
                p_jump,
                hot_bias,
                p_data,
                p_shared_data,
                p_write,
                p_data_repeat,
            )| {
                WalkParams {
                    instr_per_line,
                    p_jump,
                    hot_fraction,
                    hot_bias,
                    p_data,
                    p_shared_data,
                    p_write,
                    p_data_repeat,
                }
            },
        )
}

/// A footprint of `pages` pages in up to two regions with a gap between
/// them; empty when `pages` is 0.
fn footprint(alloc: &mut PageAllocator, pages: u64, split: u64) -> Arc<Footprint> {
    let first = pages.min(split);
    let mut regions = Vec::new();
    for n in [first, pages - first] {
        if n > 0 {
            regions.push(alloc.anonymous("walk", n));
        }
        alloc.anonymous("gap", 7);
    }
    Arc::new(Footprint::from_regions(regions.iter()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    /// The threshold walker and the `gen_bool` reference emit the same
    /// blocks, data references included, over random parameters, seeds
    /// and footprints, empty shared and private data among them.
    #[test]
    fn walker_matches_gen_bool_reference(
        params in any_params(),
        code in (1u64..40, 0u64..40),
        shared in (0u64..20, 0u64..20),
        private in (0u64..20, 0u64..20),
        seed in 0u64..u64::MAX,
        steps in 1usize..3_000,
    ) {
        let mut alloc = PageAllocator::new();
        let code = footprint(&mut alloc, code.0, code.1);
        let shared = footprint(&mut alloc, shared.0, shared.1);
        let private = footprint(&mut alloc, private.0, private.1);
        let mut fast = FootprintWalker::new(
            Arc::clone(&code),
            Arc::clone(&shared),
            Arc::clone(&private),
            params,
            seed,
        );
        let mut reference = RefWalker::new(code, shared, private, params, seed);
        for step in 0..steps {
            prop_assert_eq!(fast.next_block(), reference.next_block(), "step {}", step);
        }
    }
}
