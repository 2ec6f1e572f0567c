//! A zipfian key-value store workload (scenario family `"kv"`).
//!
//! Models the memory behaviour of an in-memory key-value cache serving a
//! skewed request stream (the classic YCSB/memcached shape):
//!
//! * point operations pick a key from a Zipf distribution and touch the
//!   key's value — `value_bytes` of consecutive lines at a hash-scattered
//!   slot, so hot keys are spread across the address space the way a hash
//!   table spreads them;
//! * an occasional **scan** walks a run of consecutive slots sequentially
//!   (range queries, compaction, dump/restore), providing the streaming
//!   component; and
//! * writes are a configurable fraction of point operations.
//!
//! This is the family the built-in suite lacks: request-skewed, with value
//! granularity decoupled from both line and page size, so page-granularity
//! designs (Banshee, Unison) and line-granularity designs (Alloy) see very
//! different locality from the same stream.

use crate::trace::{MemoryAccess, TraceGenerator};
use banshee_common::{Addr, XorShiftRng, ZipfSampler, CACHE_LINE_SIZE, PAGE_SIZE};

/// Parameters of the zipfian key-value model.
#[derive(Debug, Clone, PartialEq)]
pub struct KeyValueParams {
    /// Display name for reporting.
    pub name: String,
    /// Total footprint in bytes (the slot array; key count is derived as
    /// `footprint_bytes / value_bytes`).
    pub footprint_bytes: u64,
    /// Bytes per value; rounded up to whole cache lines.
    pub value_bytes: u64,
    /// Zipf exponent of the key popularity distribution
    /// (0 = uniform, ~0.99 = YCSB-like, >1 = extremely hot-key heavy).
    pub zipf_exponent: f64,
    /// Fraction of point operations that are writes (updates).
    pub write_fraction: f64,
    /// Probability that an operation is a sequential scan instead of a
    /// point lookup.
    pub scan_fraction: f64,
    /// Lines touched per scan operation.
    pub scan_lines: u64,
    /// Mean instruction gap between memory accesses (memory intensity).
    pub mean_inst_gap: u32,
}

impl KeyValueParams {
    /// A memcached-flavoured default: 256 B values, YCSB-like 0.99 skew,
    /// 10% writes, rare scans.
    pub fn base(name: &str, footprint_bytes: u64) -> Self {
        KeyValueParams {
            name: name.to_string(),
            footprint_bytes,
            value_bytes: 256,
            zipf_exponent: 0.99,
            write_fraction: 0.1,
            scan_fraction: 0.02,
            scan_lines: 64,
            mean_inst_gap: 6,
        }
    }

    /// Lines per value (at least one), clamped so the footprint always
    /// holds at least two whole values — a `value_bytes` larger than half
    /// the footprint is effectively shrunk rather than letting accesses
    /// spill past the declared region.
    pub fn value_lines(&self) -> u64 {
        let requested = self.value_bytes.div_ceil(CACHE_LINE_SIZE).max(1);
        let half_footprint = (self.footprint_bytes / CACHE_LINE_SIZE / 2).max(1);
        requested.min(half_footprint)
    }

    /// Number of key slots the footprint holds. `slots() * value_lines()`
    /// lines never exceed the footprint.
    pub fn slots(&self) -> u64 {
        (self.footprint_bytes / (self.value_lines() * CACHE_LINE_SIZE)).max(2)
    }
}

/// The generator state for one core's request stream.
pub struct KeyValueTrace {
    params: KeyValueParams,
    base: u64,
    slots: u64,
    value_lines: u64,
    zipf: ZipfSampler,
    rng: XorShiftRng,
    scan_cursor: u64,
    /// Remaining lines in the current operation and the next line index.
    burst_remaining: u64,
    burst_next_line: u64,
    burst_is_write: bool,
}

impl KeyValueTrace {
    /// Create a generator over `[base, base + footprint)`.
    pub fn new(params: KeyValueParams, base: u64, seed: u64) -> Self {
        assert!(
            params.footprint_bytes >= 2 * PAGE_SIZE,
            "key-value footprint too small"
        );
        let zipf = ZipfSampler::new(params.slots().min(1 << 22) as usize, params.zipf_exponent);
        Self::with_zipf(params, zipf, base, seed)
    }

    /// A fresh generator over the same keyspace layout at `base`: the same
    /// stream as `KeyValueTrace::new(self.params().clone(), base, seed)`, but
    /// sharing this generator's Zipf table instead of building another.
    pub fn fork(&self, base: u64, seed: u64) -> Self {
        Self::with_zipf(self.params.clone(), self.zipf.clone(), base, seed)
    }

    fn with_zipf(params: KeyValueParams, zipf: ZipfSampler, base: u64, seed: u64) -> Self {
        KeyValueTrace {
            base,
            slots: params.slots(),
            value_lines: params.value_lines(),
            zipf,
            rng: XorShiftRng::new(seed),
            scan_cursor: 0,
            burst_remaining: 0,
            burst_next_line: 0,
            burst_is_write: false,
            params,
        }
    }

    /// The parameters in use.
    pub fn params(&self) -> &KeyValueParams {
        &self.params
    }

    fn start_new_op(&mut self) {
        let total_lines = self.slots * self.value_lines;
        if self.rng.chance(self.params.scan_fraction) {
            // Sequential scan from a persistent cursor.
            self.burst_next_line = self.scan_cursor % total_lines;
            self.burst_remaining = self.params.scan_lines.max(1);
            self.scan_cursor = (self.scan_cursor + self.burst_remaining) % total_lines;
            self.burst_is_write = false;
        } else {
            // Point op: a zipf-ranked key, hash-scattered over the slots so
            // popular keys are not physically adjacent.
            let key = self.zipf.sample(&mut self.rng) as u64;
            let slot = key.wrapping_mul(0x9E37_79B9_7F4A_7C15) % self.slots;
            self.burst_next_line = slot * self.value_lines;
            self.burst_remaining = self.value_lines;
            self.burst_is_write = self.rng.chance(self.params.write_fraction);
        }
    }
}

impl TraceGenerator for KeyValueTrace {
    fn next_access(&mut self) -> MemoryAccess {
        if self.burst_remaining == 0 {
            self.start_new_op();
        }
        let line = self.burst_next_line;
        self.burst_next_line += 1;
        self.burst_remaining -= 1;
        let gap = if self.params.mean_inst_gap == 0 {
            0
        } else {
            let m = self.params.mean_inst_gap as u64;
            self.rng.range_inclusive(m / 2, m + m / 2) as u32
        };
        MemoryAccess {
            vaddr: Addr::new(
                self.base + (line % (self.slots * self.value_lines)) * CACHE_LINE_SIZE,
            ),
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

    fn params(footprint: u64) -> KeyValueParams {
        KeyValueParams::base("kv", footprint)
    }

    #[test]
    fn accesses_stay_inside_the_region() {
        let p = params(4 << 20);
        let mut t = KeyValueTrace::new(p.clone(), 0x200_0000, 1);
        for _ in 0..20_000 {
            let a = t.next_access();
            assert!(a.vaddr.raw() >= 0x200_0000);
            assert!(a.vaddr.raw() < 0x200_0000 + p.footprint_bytes);
        }
    }

    #[test]
    fn deterministic_for_a_seed() {
        let p = params(4 << 20);
        let mut a = KeyValueTrace::new(p.clone(), 0, 9);
        let mut b = KeyValueTrace::new(p, 0, 9);
        for _ in 0..2000 {
            assert_eq!(a.next_access(), b.next_access());
        }
    }

    #[test]
    fn skew_concentrates_on_hot_values() {
        let mut hot = params(8 << 20);
        hot.zipf_exponent = 1.2;
        hot.scan_fraction = 0.0;
        let mut uniform = hot.clone();
        uniform.zipf_exponent = 0.0;
        let distinct = |mut t: KeyValueTrace| {
            let mut pages = BTreeSet::new();
            for _ in 0..30_000 {
                pages.insert(t.next_access().vaddr.page());
            }
            pages.len()
        };
        let h = distinct(KeyValueTrace::new(hot, 0, 3));
        let u = distinct(KeyValueTrace::new(uniform, 0, 3));
        assert!(
            h * 2 < u * 3,
            "skewed kv should touch notably fewer distinct pages: {h} vs {u}"
        );
    }

    #[test]
    fn value_spans_whole_lines() {
        let mut p = params(4 << 20);
        p.value_bytes = 100; // rounds up to 2 lines
        p.scan_fraction = 0.0;
        assert_eq!(p.value_lines(), 2);
        let mut t = KeyValueTrace::new(p, 0, 5);
        // Every point op touches exactly value_lines consecutive lines.
        let first = t.next_access();
        let second = t.next_access();
        assert_eq!(second.vaddr.raw(), first.vaddr.raw() + CACHE_LINE_SIZE);
    }

    #[test]
    fn scans_are_sequential() {
        let mut p = params(4 << 20);
        p.scan_fraction = 1.0;
        p.scan_lines = 32;
        let mut t = KeyValueTrace::new(p, 0, 7);
        let mut prev = t.next_access().vaddr.raw();
        for _ in 0..20 {
            let next = t.next_access().vaddr.raw();
            assert_eq!(next, prev + CACHE_LINE_SIZE);
            prev = next;
        }
    }

    #[test]
    fn write_fraction_respected() {
        let mut p = params(4 << 20);
        p.write_fraction = 0.4;
        p.scan_fraction = 0.0;
        let mut t = KeyValueTrace::new(p, 0, 11);
        let writes = (0..30_000).filter(|_| t.next_access().write).count();
        let frac = writes as f64 / 30_000.0;
        assert!((0.25..0.55).contains(&frac), "write fraction {frac}");
    }

    #[test]
    #[should_panic]
    fn tiny_footprint_rejected() {
        let _ = KeyValueTrace::new(params(PAGE_SIZE), 0, 1);
    }

    #[test]
    fn oversized_values_are_clamped_inside_the_region() {
        // A value larger than half the footprint must not push accesses
        // past the declared region.
        let mut p = params(1 << 20);
        p.value_bytes = 1 << 20;
        assert!(p.slots() * p.value_lines() * CACHE_LINE_SIZE <= p.footprint_bytes);
        let mut t = KeyValueTrace::new(p.clone(), 0x800_0000, 13);
        for _ in 0..20_000 {
            let a = t.next_access();
            assert!(a.vaddr.raw() >= 0x800_0000);
            assert!(a.vaddr.raw() < 0x800_0000 + p.footprint_bytes);
        }
    }
}
