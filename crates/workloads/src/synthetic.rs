//! The two-region synthetic trace model used for SPEC-like programs.
//!
//! Each generator owns a virtual address region split into:
//!
//! * a **streaming region** traversed sequentially in bursts (modelling
//!   array sweeps — `lbm`, `bwaves`, `libquantum`), and
//! * a **working-set region** whose pages are selected with a Zipf
//!   distribution (modelling pointer-heavy structures with hot and cold data
//!   — `mcf`, `omnetpp`), with a configurable number of lines touched per
//!   page visit (spatial locality).
//!
//! The mix between the two, the skew, the burst lengths and the instruction
//! gaps are the per-benchmark parameters in [`crate::spec`].

use crate::trace::{MemoryAccess, TraceGenerator};
use banshee_common::{Addr, XorShiftRng, ZipfSampler, CACHE_LINE_SIZE, PAGE_SIZE};

/// Parameters of the two-region model.
#[derive(Debug, Clone, PartialEq)]
pub struct SyntheticParams {
    /// Benchmark name for reporting.
    pub name: String,
    /// Total footprint in bytes (streaming + working set).
    pub footprint_bytes: u64,
    /// Fraction of the footprint that belongs to the streaming region.
    pub streaming_fraction: f64,
    /// Probability that the next access burst comes from the streaming
    /// region (as opposed to the Zipf-selected working set).
    pub streaming_access_fraction: f64,
    /// Zipf exponent for page selection in the working-set region
    /// (0 = uniform, 1.0+ = heavily skewed towards hot pages).
    pub zipf_exponent: f64,
    /// Number of consecutive lines touched per visit to a working-set page.
    pub lines_per_visit: u64,
    /// Number of consecutive lines touched per streaming burst.
    pub streaming_burst_lines: u64,
    /// Mean instruction gap between memory accesses (memory intensity).
    pub mean_inst_gap: u32,
    /// Fraction of accesses that are stores.
    pub write_fraction: f64,
}

impl SyntheticParams {
    /// A generic memory-intensive default; benchmarks override fields.
    pub fn base(name: &str, footprint_bytes: u64) -> Self {
        SyntheticParams {
            name: name.to_string(),
            footprint_bytes,
            streaming_fraction: 0.5,
            streaming_access_fraction: 0.5,
            zipf_exponent: 0.8,
            lines_per_visit: 4,
            streaming_burst_lines: 16,
            mean_inst_gap: 4,
            write_fraction: 0.3,
        }
    }
}

/// The generator state.
pub struct SyntheticTrace {
    params: SyntheticParams,
    /// Base virtual address of this generator's region.
    base: u64,
    streaming_pages: u64,
    zipf: ZipfSampler,
    rng: XorShiftRng,
    /// Streaming cursor (line index within the streaming region).
    stream_cursor: u64,
    /// Remaining lines in the current burst and its next line address.
    burst_remaining: u64,
    burst_next_line: u64,
    burst_is_write: bool,
}

impl SyntheticTrace {
    /// Create a generator over `[base, base + footprint)` with the given
    /// parameters and seed.
    pub fn new(params: SyntheticParams, base: u64, seed: u64) -> Self {
        assert!(
            params.footprint_bytes >= 2 * PAGE_SIZE,
            "footprint too small"
        );
        let total_pages = params.footprint_bytes / PAGE_SIZE;
        let streaming_pages =
            ((total_pages as f64 * params.streaming_fraction) as u64).clamp(1, total_pages - 1);
        let working_pages = total_pages - streaming_pages;
        let zipf = ZipfSampler::new(working_pages as usize, params.zipf_exponent);
        Self::with_zipf(params, streaming_pages, zipf, base, seed)
    }

    /// A fresh generator with this one's parameters over
    /// `[base, base + footprint)`: the same stream as
    /// `SyntheticTrace::new(self.params().clone(), base, seed)`, but sharing
    /// this generator's Zipf table instead of building another.
    pub fn fork(&self, base: u64, seed: u64) -> Self {
        let zipf = self.zipf.clone();
        Self::with_zipf(self.params.clone(), self.streaming_pages, zipf, base, seed)
    }

    fn with_zipf(
        params: SyntheticParams,
        streaming_pages: u64,
        zipf: ZipfSampler,
        base: u64,
        seed: u64,
    ) -> Self {
        SyntheticTrace {
            base,
            streaming_pages,
            zipf,
            rng: XorShiftRng::new(seed),
            stream_cursor: 0,
            burst_remaining: 0,
            burst_next_line: 0,
            burst_is_write: false,
            params,
        }
    }

    /// The parameters in use.
    pub fn params(&self) -> &SyntheticParams {
        &self.params
    }

    fn start_new_burst(&mut self) {
        let streaming = self.rng.chance(self.params.streaming_access_fraction);
        self.burst_is_write = self.rng.chance(self.params.write_fraction);
        if streaming {
            let lines_in_region = self.streaming_pages * (PAGE_SIZE / CACHE_LINE_SIZE);
            self.burst_next_line = self.stream_cursor % lines_in_region;
            self.burst_remaining = self.params.streaming_burst_lines.max(1);
            self.stream_cursor =
                (self.stream_cursor + self.params.streaming_burst_lines) % lines_in_region;
        } else {
            let page = self.zipf.sample(&mut self.rng) as u64;
            // Working-set pages live after the streaming region.
            let page_line_base = (self.streaming_pages + page) * (PAGE_SIZE / CACHE_LINE_SIZE);
            let lines_per_page = PAGE_SIZE / CACHE_LINE_SIZE;
            // Real programs revisit the *same* lines of a hot page (a node's
            // fields, a row of a matrix), so the visit usually starts at a
            // per-page preferred offset; only occasionally does it land
            // somewhere else. This preserves line-level temporal locality,
            // which line-granularity caches (Alloy) depend on just as much
            // as page-granularity designs depend on page-level locality.
            let span = lines_per_page
                .saturating_sub(self.params.lines_per_visit)
                .max(1);
            let preferred = (page.wrapping_mul(0x9E37_79B9) >> 7) % span;
            let start = if self.rng.chance(0.8) {
                preferred
            } else {
                self.rng.next_below(span)
            };
            self.burst_next_line = page_line_base + start;
            self.burst_remaining = self.params.lines_per_visit.max(1);
        }
    }
}

impl TraceGenerator for SyntheticTrace {
    fn next_access(&mut self) -> MemoryAccess {
        if self.burst_remaining == 0 {
            self.start_new_burst();
        }
        let line = self.burst_next_line;
        self.burst_next_line += 1;
        self.burst_remaining -= 1;

        let vaddr = Addr::new(self.base + line * CACHE_LINE_SIZE);
        // Jitter the instruction gap a little around the mean.
        let gap = if self.params.mean_inst_gap == 0 {
            0
        } else {
            let m = self.params.mean_inst_gap as u64;
            self.rng.range_inclusive(m / 2, m + m / 2) as u32
        };
        MemoryAccess {
            vaddr,
            write: self.burst_is_write,
            inst_gap: gap,
        }
    }

    fn name(&self) -> &str {
        &self.params.name
    }

    fn footprint_bytes(&self) -> u64 {
        self.params.footprint_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn params(footprint: u64) -> SyntheticParams {
        SyntheticParams::base("test", footprint)
    }

    #[test]
    fn accesses_stay_inside_the_region() {
        let p = params(1 << 20);
        let mut t = SyntheticTrace::new(p.clone(), 0x100_0000, 1);
        for _ in 0..10_000 {
            let a = t.next_access();
            assert!(a.vaddr.raw() >= 0x100_0000);
            assert!(a.vaddr.raw() < 0x100_0000 + p.footprint_bytes);
        }
    }

    #[test]
    fn deterministic_for_a_seed() {
        let p = params(1 << 20);
        let mut a = SyntheticTrace::new(p.clone(), 0, 42);
        let mut b = SyntheticTrace::new(p, 0, 42);
        for _ in 0..1000 {
            assert_eq!(a.next_access(), b.next_access());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let p = params(1 << 20);
        let mut a = SyntheticTrace::new(p.clone(), 0, 1);
        let mut b = SyntheticTrace::new(p, 0, 2);
        let same = (0..200)
            .filter(|_| a.next_access().vaddr == b.next_access().vaddr)
            .count();
        assert!(same < 100);
    }

    #[test]
    fn zipf_skew_concentrates_accesses() {
        let mut skewed = SyntheticParams::base("skewed", 4 << 20);
        skewed.streaming_access_fraction = 0.0;
        skewed.zipf_exponent = 1.1;
        let mut uniform = skewed.clone();
        uniform.zipf_exponent = 0.0;
        uniform.name = "uniform".to_string();

        let distinct_pages = |mut t: SyntheticTrace| -> usize {
            let mut pages = BTreeSet::new();
            for _ in 0..20_000 {
                pages.insert(t.next_access().vaddr.page());
            }
            pages.len()
        };
        let s = distinct_pages(SyntheticTrace::new(skewed, 0, 3));
        let u = distinct_pages(SyntheticTrace::new(uniform, 0, 3));
        assert!(
            s * 2 < u * 3,
            "skewed stream should touch notably fewer distinct pages: {s} vs {u}"
        );
    }

    #[test]
    fn streaming_mode_is_sequential() {
        let mut p = params(1 << 20);
        p.streaming_access_fraction = 1.0;
        p.streaming_burst_lines = 64;
        let mut t = SyntheticTrace::new(p, 0, 7);
        let first = t.next_access().vaddr.raw();
        let mut prev = first;
        for _ in 0..32 {
            let next = t.next_access().vaddr.raw();
            assert_eq!(
                next,
                prev + 64,
                "streaming accesses must be sequential lines"
            );
            prev = next;
        }
    }

    #[test]
    fn write_fraction_respected() {
        let mut p = params(1 << 20);
        p.write_fraction = 0.5;
        let mut t = SyntheticTrace::new(p, 0, 9);
        let writes = (0..20_000).filter(|_| t.next_access().write).count();
        let frac = writes as f64 / 20_000.0;
        assert!((0.35..0.65).contains(&frac), "write fraction {frac}");
    }

    #[test]
    fn instruction_gap_tracks_intensity() {
        let mut hungry = params(1 << 20);
        hungry.mean_inst_gap = 2;
        let mut light = params(1 << 20);
        light.mean_inst_gap = 40;
        let sum_gap = |mut t: SyntheticTrace| -> u64 {
            (0..5000).map(|_| t.next_access().instructions()).sum()
        };
        let h = sum_gap(SyntheticTrace::new(hungry, 0, 5));
        let l = sum_gap(SyntheticTrace::new(light, 0, 5));
        assert!(
            l > 5 * h,
            "light workload should have many more instructions per access"
        );
    }

    #[test]
    #[should_panic]
    fn tiny_footprint_rejected() {
        let _ = SyntheticTrace::new(params(PAGE_SIZE), 0, 1);
    }
}
