//! The footprint walker: turns a code footprint into a deterministic
//! stream of executed cache-line blocks with interleaved data references.
//!
//! This replaces the paper's Qemu-collected execution traces. A walker
//! models the fetch behaviour that matters to the evaluated schedulers:
//! mostly-sequential execution within the footprint's pages, a hot region
//! that is revisited far more often than the cold tail (loops), and a
//! configurable stream of data references split between the
//! SuperFunction type's *shared* data (OS structures reused across
//! instances) and the owning thread's *private* data.

use crate::footprint::{Footprint, LINES_PER_PAGE};
use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};
use std::sync::Arc;

/// One data reference emitted alongside a code block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DataRef {
    /// Global data line id.
    pub line: u64,
    /// True for a store.
    pub write: bool,
}

/// One executed block: all instructions fetched from one i-cache line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CodeBlock {
    /// Global instruction line id.
    pub line: u64,
    /// Instructions executed from this line.
    pub instructions: u32,
    /// At most one data reference per block (the engine charges it on the
    /// d-side).
    pub data_ref: Option<DataRef>,
    /// True when the block ends in a taken branch (a non-sequential
    /// transfer); sequential fall-through ends with a not-taken branch.
    pub branch_taken: bool,
}

/// Tuning knobs for a walk.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WalkParams {
    /// Instructions executed per fetched line (x86 at ~4 bytes per
    /// instruction and 64-byte lines yields ≈16; taken branches lower the
    /// effective value).
    pub instr_per_line: u32,
    /// Probability of a non-sequential jump after a block.
    pub p_jump: f64,
    /// Fraction of the footprint's pages (from the front) forming the hot
    /// region.
    pub hot_fraction: f64,
    /// Probability that a jump lands in the hot region.
    pub hot_bias: f64,
    /// Probability that a block carries a data reference.
    pub p_data: f64,
    /// Probability that a data reference targets the type's shared data
    /// (vs. the thread's private data).
    pub p_shared_data: f64,
    /// Probability that a data reference is a store.
    pub p_write: f64,
    /// Probability that a data reference repeats the previous data line
    /// (temporal locality of working variables).
    pub p_data_repeat: f64,
}

impl Default for WalkParams {
    fn default() -> Self {
        WalkParams {
            instr_per_line: 8,
            p_jump: 0.1,
            hot_fraction: 0.3,
            hot_bias: 0.9,
            p_data: 0.35,
            p_shared_data: 0.7,
            p_write: 0.3,
            p_data_repeat: 0.6,
        }
    }
}

/// Fraction of data references that land in the hot first quarter of a
/// data footprint.
const HOT_DATA: f64 = 0.8;

/// `Rng::gen_bool(p)` as an integer threshold: `gen_bool` draws one
/// `x = next_u64()` and tests `(x >> 11) · 2⁻⁵³ < clamp(p, 0, 1)`. Both
/// sides are exact dyadic values, so for the integer `x >> 11` that test
/// is exactly `(x >> 11) < ceil(clamp(p, 0, 1) · 2⁵³)`. A NaN `p` never
/// passes `gen_bool`'s test and maps to 0, which never passes either.
fn bool_threshold(p: f64) -> u64 {
    (p.clamp(0.0, 1.0) * (1u64 << 53) as f64).ceil() as u64
}

/// One Bernoulli draw against a [`bool_threshold`]: the same single
/// `next_u64` and the same outcome as `gen_bool` on its probability.
#[inline]
fn draw(rng: &mut impl RngCore, threshold: u64) -> bool {
    (rng.next_u64() >> 11) < threshold
}

/// The walk's seven Bernoulli draws as [`bool_threshold`]s, computed once
/// per walker so each draw is one shift and one compare.
#[derive(Debug, Clone, Copy)]
struct Thresholds {
    data: u64,
    write: u64,
    data_repeat: u64,
    shared_data: u64,
    hot_data: u64,
    jump: u64,
    hot_bias: u64,
}

impl Thresholds {
    fn new(p: &WalkParams) -> Self {
        Thresholds {
            data: bool_threshold(p.p_data),
            write: bool_threshold(p.p_write),
            data_repeat: bool_threshold(p.p_data_repeat),
            shared_data: bool_threshold(p.p_shared_data),
            hot_data: bool_threshold(HOT_DATA),
            jump: bool_threshold(p.p_jump),
            hot_bias: bool_threshold(p.hot_bias),
        }
    }
}

/// A deterministic walk over one SuperFunction instance's code and data.
///
/// # Examples
///
/// ```
/// use schedtask_workload::{Footprint, FootprintWalker, PageAllocator, WalkParams};
/// use std::sync::Arc;
///
/// let mut alloc = PageAllocator::new();
/// let code = Arc::new(Footprint::from_regions([&alloc.region("handler", 4)]));
/// let data = Arc::new(Footprint::new());
/// let mut w = FootprintWalker::new(code.clone(), data.clone(), data, WalkParams::default(), 1);
/// let block = w.next_block();
/// assert!(code.pages().contains(&(block.line / 64)));
/// ```
#[derive(Debug, Clone)]
pub struct FootprintWalker {
    code: Arc<Footprint>,
    shared_data: Arc<Footprint>,
    private_data: Arc<Footprint>,
    instr_per_line: u32,
    thresholds: Thresholds,
    rng: SmallRng,
    page_idx: usize,
    line_in_page: u64,
    hot_pages: usize,
    last_data_line: Option<u64>,
}

impl FootprintWalker {
    /// Creates a walker over `code`, with data references split between
    /// `shared_data` and `private_data`. The walk is fully determined by
    /// `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `code` is empty.
    pub fn new(
        code: Arc<Footprint>,
        shared_data: Arc<Footprint>,
        private_data: Arc<Footprint>,
        params: WalkParams,
        seed: u64,
    ) -> Self {
        assert!(!code.is_empty(), "cannot walk an empty code footprint");
        let hot_pages = ((code.num_pages() as f64 * params.hot_fraction).ceil() as usize)
            .clamp(1, code.num_pages());
        FootprintWalker {
            code,
            shared_data,
            private_data,
            instr_per_line: params.instr_per_line,
            thresholds: Thresholds::new(&params),
            rng: SmallRng::seed_from_u64(seed),
            page_idx: 0,
            line_in_page: 0,
            hot_pages,
            last_data_line: None,
        }
    }

    /// Emits the next executed block and advances the walk.
    pub fn next_block(&mut self) -> CodeBlock {
        let line = self.code.line(self.page_idx, self.line_in_page);
        let data_ref = self.maybe_data_ref();
        let branch_taken = self.advance();
        CodeBlock {
            line,
            instructions: self.instr_per_line,
            data_ref,
            branch_taken,
        }
    }

    fn maybe_data_ref(&mut self) -> Option<DataRef> {
        let t = self.thresholds;
        if !draw(&mut self.rng, t.data) {
            return None;
        }
        let write = draw(&mut self.rng, t.write);
        // Temporal locality: working variables are re-touched constantly.
        if let Some(last) = self.last_data_line {
            if draw(&mut self.rng, t.data_repeat) {
                return Some(DataRef { line: last, write });
            }
        }
        let fp = if draw(&mut self.rng, t.shared_data) && !self.shared_data.is_empty() {
            &self.shared_data
        } else if !self.private_data.is_empty() {
            &self.private_data
        } else if !self.shared_data.is_empty() {
            &self.shared_data
        } else {
            return None;
        };
        // Spatial locality: the first quarter of the data footprint is hot
        // (stacks, headers, frequently-used structures).
        let n = fp.num_pages();
        let page_idx = if draw(&mut self.rng, t.hot_data) {
            self.rng.gen_range(0..(n / 4).max(1))
        } else {
            self.rng.gen_range(0..n)
        };
        let line_in_page = self.rng.gen_range(0..LINES_PER_PAGE);
        let line = fp.line(page_idx, line_in_page);
        self.last_data_line = Some(line);
        Some(DataRef { line, write })
    }

    /// Advances the walk; returns `true` when the step was a taken
    /// branch (non-sequential).
    fn advance(&mut self) -> bool {
        self.line_in_page += 1;
        let page_end = self.line_in_page >= LINES_PER_PAGE;
        if page_end || draw(&mut self.rng, self.thresholds.jump) {
            // Taken branch (or fall off the page): land in the hot region
            // with `hot_bias`. Execution is page-local loops, so page
            // boundaries behave like jumps rather than falling through the
            // whole footprint.
            let to_hot = draw(&mut self.rng, self.thresholds.hot_bias);
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

    /// The code footprint being walked (SLICC's hardware inspects the
    /// upcoming fetch stream; exposing the footprint models that).
    pub fn code(&self) -> &Arc<Footprint> {
        &self.code
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::footprint::Region;

    fn fp(first: u64, pages: u64) -> Arc<Footprint> {
        Arc::new(Footprint::from_regions([&Region::new("t", first, pages)]))
    }

    fn walker(seed: u64) -> FootprintWalker {
        FootprintWalker::new(
            fp(0, 8),
            fp(100, 4),
            fp(200, 2),
            WalkParams::default(),
            seed,
        )
    }

    #[test]
    fn blocks_stay_within_code_footprint() {
        let code = fp(50, 4);
        let mut w = FootprintWalker::new(
            code.clone(),
            fp(100, 2),
            fp(200, 2),
            WalkParams::default(),
            3,
        );
        for _ in 0..1000 {
            let b = w.next_block();
            let page = b.line / LINES_PER_PAGE;
            assert!(
                code.pages().contains(&page),
                "page {page} outside footprint"
            );
        }
    }

    #[test]
    fn data_refs_stay_within_data_footprints() {
        let shared = fp(100, 4);
        let private = fp(200, 2);
        let mut w = FootprintWalker::new(
            fp(0, 8),
            shared.clone(),
            private.clone(),
            WalkParams::default(),
            4,
        );
        for _ in 0..2000 {
            if let Some(d) = w.next_block().data_ref {
                let page = d.line / LINES_PER_PAGE;
                assert!(
                    shared.pages().contains(&page) || private.pages().contains(&page),
                    "data page {page} outside both data footprints"
                );
            }
        }
    }

    #[test]
    fn walk_is_deterministic() {
        let mut a = walker(7);
        let mut b = walker(7);
        for _ in 0..500 {
            assert_eq!(a.next_block(), b.next_block());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = walker(1);
        let mut b = walker(2);
        let blocks_a: Vec<_> = (0..100).map(|_| a.next_block().line).collect();
        let blocks_b: Vec<_> = (0..100).map(|_| b.next_block().line).collect();
        assert_ne!(blocks_a, blocks_b);
    }

    #[test]
    fn hot_region_is_visited_more() {
        let params = WalkParams {
            hot_fraction: 0.25,
            ..WalkParams::default()
        };
        let code = fp(0, 16);
        let mut w = FootprintWalker::new(code, fp(100, 2), fp(200, 2), params, 11);
        let mut hot_visits = 0u64;
        let mut cold_visits = 0u64;
        for _ in 0..20_000 {
            let b = w.next_block();
            let page = b.line / LINES_PER_PAGE;
            if page < 4 {
                hot_visits += 1;
            } else {
                cold_visits += 1;
            }
        }
        // 4 hot pages out of 16: uniform visiting would give 25 % hot.
        assert!(
            hot_visits as f64 / (hot_visits + cold_visits) as f64 > 0.4,
            "hot={hot_visits} cold={cold_visits}"
        );
    }

    #[test]
    fn data_rate_approximates_p_data() {
        let mut w = walker(13);
        let n = 20_000;
        let with_data = (0..n).filter(|_| w.next_block().data_ref.is_some()).count();
        let rate = with_data as f64 / n as f64;
        assert!((rate - 0.35).abs() < 0.03, "rate = {rate}");
    }

    #[test]
    fn empty_data_footprints_emit_no_refs() {
        let empty = Arc::new(Footprint::new());
        let mut w = FootprintWalker::new(fp(0, 2), empty.clone(), empty, WalkParams::default(), 5);
        for _ in 0..200 {
            assert!(w.next_block().data_ref.is_none());
        }
    }

    #[test]
    #[should_panic(expected = "empty code footprint")]
    fn empty_code_rejected() {
        let empty = Arc::new(Footprint::new());
        FootprintWalker::new(
            empty.clone(),
            empty.clone(),
            empty,
            WalkParams::default(),
            1,
        );
    }

    /// An RNG whose next draw is a chosen word, so a test can place
    /// `x >> 11` exactly at, below or above a threshold.
    struct Fixed(u64);

    impl RngCore for Fixed {
        fn next_u64(&mut self) -> u64 {
            self.0
        }
    }

    #[test]
    fn bool_threshold_matches_gen_bool_at_the_edges() {
        const ONE: u64 = 1 << 53;
        let mut ps = vec![
            0.0,
            -0.0,
            1.0,
            -1.0,
            -f64::MIN_POSITIVE,
            1.5,
            2.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            f64::MIN_POSITIVE,
            f64::EPSILON,
            HOT_DATA,
            0.35,
        ];
        // Exact multiples of 2⁻⁵³, then every value's neighbours one ulp
        // either side.
        for k in [1, 2, 3, ONE / 4, ONE / 2, ONE / 2 + 1, ONE - 2, ONE - 1] {
            ps.push(k as f64 / ONE as f64);
        }
        for p in ps.clone() {
            ps.push(p.next_up());
            ps.push(p.next_down());
        }
        for &p in &ps {
            let t = bool_threshold(p);
            assert!(t <= ONE, "p = {p:e}: threshold {t} above 2^53");
            // The 53 bits `draw` and `gen_bool` compare, around the
            // threshold and at both ends, with the 11 discarded low bits
            // all clear and all set.
            for m in [0, 1, t.saturating_sub(1), t, t + 1, ONE - 1] {
                for low in [0, 0x7FF] {
                    let x = (m.min(ONE - 1) << 11) | low;
                    assert_eq!(
                        draw(&mut Fixed(x), t),
                        Fixed(x).gen_bool(p),
                        "p = {p:e}, x = {x:#x}"
                    );
                }
            }
        }
        assert_eq!(bool_threshold(0.0), 0);
        assert_eq!(bool_threshold(-1.0), 0);
        assert_eq!(bool_threshold(f64::NAN), 0);
        assert_eq!(bool_threshold(5e-324), 1);
        assert_eq!(bool_threshold(1.0 / ONE as f64), 1);
        assert_eq!(bool_threshold((1.0 / ONE as f64).next_up()), 2);
        assert_eq!(bool_threshold(0.5), ONE / 2);
        assert_eq!(bool_threshold(1.0f64.next_down()), ONE - 1);
        assert_eq!(bool_threshold(1.0), ONE);
        assert_eq!(bool_threshold(2.0), ONE);
    }

    #[test]
    fn sequential_runs_occur() {
        // With p_jump = 0 the walk is strictly sequential.
        let params = WalkParams {
            p_jump: 0.0,
            ..WalkParams::default()
        };
        let mut w = FootprintWalker::new(fp(0, 2), fp(100, 1), fp(200, 1), params, 1);
        let first = w.next_block().line;
        let second = w.next_block().line;
        assert_eq!(second, first + 1);
    }
}
