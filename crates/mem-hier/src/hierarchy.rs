//! The on-chip SRAM cache hierarchy (L1D + L2 private, shared LLC).
//!
//! Geometry defaults follow the paper's Table 2: 32 KiB 8-way L1D and
//! 128 KiB 8-way L2 per core, and an 8 MiB 16-way shared LLC. The in-package
//! DRAM cache sits *behind* the LLC (it is a memory-side cache, not
//! inclusive with respect to on-chip caches — Section 3.1), so the only
//! events that reach the memory controllers are **LLC misses** and **LLC
//! dirty evictions**. Those two event types are exactly what the
//! [`HierarchyOutcome`] reports.

use crate::cache::SetAssocCache;
use banshee_common::addr::LINES_PER_PAGE;
use banshee_common::persist::{Persist, SnapshotError, SnapshotReader, SnapshotWriter};
use banshee_common::{Cycle, LineAddr, MemSize, PageNum};
use serde::{Deserialize, Serialize};

/// Which level serviced an access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HitLevel {
    /// Private L1 data cache.
    L1,
    /// Private L2.
    L2,
    /// Shared last-level cache.
    Llc,
}

/// Configuration of the SRAM hierarchy.
///
/// The three `*_latency` fields record Table 2 but nothing charges them: the
/// system simulator charges its own L2 and LLC hit penalties. They stay
/// because `SimConfig`'s store key and warmed images include them.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HierarchyConfig {
    /// Number of cores (each gets a private L1D and L2).
    pub cores: usize,
    /// L1 data cache capacity.
    pub l1_size: MemSize,
    /// L1 associativity.
    pub l1_ways: usize,
    /// L1 hit latency in CPU cycles.
    pub l1_latency: Cycle,
    /// L2 capacity.
    pub l2_size: MemSize,
    /// L2 associativity.
    pub l2_ways: usize,
    /// L2 hit latency in CPU cycles.
    pub l2_latency: Cycle,
    /// Shared LLC capacity.
    pub llc_size: MemSize,
    /// LLC associativity.
    pub llc_ways: usize,
    /// LLC hit latency in CPU cycles.
    pub llc_latency: Cycle,
}

impl HierarchyConfig {
    /// The paper's Table 2 configuration for `cores` cores.
    pub fn paper_default(cores: usize) -> Self {
        HierarchyConfig {
            cores,
            l1_size: MemSize::kib(32),
            l1_ways: 8,
            l1_latency: 4,
            l2_size: MemSize::kib(128),
            l2_ways: 8,
            l2_latency: 12,
            llc_size: MemSize::mib(8),
            llc_ways: 16,
            llc_latency: 35,
        }
    }

    /// A scaled-down configuration for fast tests and experiments: the same
    /// shape (private L1/L2, shared LLC) with capacities divided by `factor`.
    pub fn scaled(cores: usize, factor: u64) -> Self {
        let base = Self::paper_default(cores);
        HierarchyConfig {
            l1_size: MemSize::bytes((base.l1_size.as_bytes() / factor).max(4096)),
            l2_size: MemSize::bytes((base.l2_size.as_bytes() / factor).max(8192)),
            llc_size: MemSize::bytes((base.llc_size.as_bytes() / factor).max(65536)),
            ..base
        }
    }
}

/// What happened for one core access.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HierarchyOutcome {
    /// The level that hit, or `None` for an LLC miss that must go to memory.
    pub hit: Option<HitLevel>,
    /// Dirty lines that fell out of the LLC (or were orphaned from private
    /// caches) and must be written back to memory by the memory controller.
    pub memory_writebacks: Vec<LineAddr>,
}

impl HierarchyOutcome {
    /// True when the access must be sent to the memory controller.
    pub fn is_llc_miss(&self) -> bool {
        self.hit.is_none()
    }
}

/// The full on-chip hierarchy.
#[derive(Debug, Clone)]
pub struct CacheHierarchy {
    config: HierarchyConfig,
    l1: Vec<SetAssocCache>,
    l2: Vec<SetAssocCache>,
    llc: SetAssocCache,
    llc_accesses: u64,
    llc_misses: u64,
    /// Per-LLC-way inclusion mask: bit `c` set ⇔ core `c` *may* hold the
    /// way's line in its private L1/L2 (a conservative superset — bits are
    /// set on every LLC touch by a core and reset when the way is refilled).
    /// Back-invalidation probes only the masked cores instead of every
    /// private cache, which is the hierarchy's dominant cost on eviction-
    /// heavy workloads; because the mask is a superset, results are
    /// identical to probing everyone.
    llc_presence: Vec<u64>,
}

impl CacheHierarchy {
    /// Build the hierarchy from a configuration.
    pub fn new(config: HierarchyConfig) -> Self {
        assert!(config.cores > 0, "need at least one core");
        assert!(
            config.cores <= 64,
            "inclusion masks support at most 64 cores"
        );
        let l1 = (0..config.cores)
            .map(|_| SetAssocCache::new(config.l1_size.as_bytes(), config.l1_ways))
            .collect();
        let l2 = (0..config.cores)
            .map(|_| SetAssocCache::new(config.l2_size.as_bytes(), config.l2_ways))
            .collect();
        let llc = SetAssocCache::new(config.llc_size.as_bytes(), config.llc_ways);
        let llc_ways = llc.num_sets() * llc.ways();
        CacheHierarchy {
            config,
            l1,
            l2,
            llc,
            llc_accesses: 0,
            llc_misses: 0,
            llc_presence: vec![0; llc_ways],
        }
    }

    /// The configuration used to build this hierarchy.
    pub fn config(&self) -> &HierarchyConfig {
        &self.config
    }

    /// LLC miss rate so far.
    pub fn llc_miss_rate(&self) -> f64 {
        if self.llc_accesses == 0 {
            0.0
        } else {
            self.llc_misses as f64 / self.llc_accesses as f64
        }
    }

    /// Total LLC misses so far.
    pub fn llc_miss_count(&self) -> u64 {
        self.llc_misses
    }

    /// Perform one access from `core` to `line`.
    pub fn access(&mut self, core: usize, line: LineAddr, write: bool) -> HierarchyOutcome {
        assert!(core < self.config.cores, "core index out of range");
        let mut memory_writebacks = Vec::new();

        // L1.
        let l1_res = self.l1[core].access(line, write);
        if l1_res.hit {
            return HierarchyOutcome {
                hit: Some(HitLevel::L1),
                memory_writebacks,
            };
        }
        // A dirty L1 victim is absorbed by L2 if present there, else by the
        // LLC, which always holds it under strict inclusion
        // (`prop_strict_inclusion` pins that); the memory fallback only keeps
        // the data if that invariant were ever broken.
        if let Some(victim) = l1_res.writeback {
            if !self.l2[core].mark_dirty(victim) && !self.llc.mark_dirty(victim) {
                memory_writebacks.push(victim);
            }
        }

        // L2.
        let l2_res = self.l2[core].access(line, write);
        if l2_res.hit {
            return HierarchyOutcome {
                hit: Some(HitLevel::L2),
                memory_writebacks,
            };
        }
        if let Some(victim) = l2_res.writeback {
            if !self.llc.mark_dirty(victim) {
                memory_writebacks.push(victim);
            }
        }

        // LLC.
        self.llc_accesses += 1;
        let llc_res = self.llc.access(line, write);
        // The slot's presence mask still describes the *previous* occupant
        // (the victim) at this point; only those cores can hold its line.
        let victim_mask = self.llc_presence[llc_res.slot];
        if let Some(victim) = llc_res.writeback {
            // Inclusive hierarchy: back-invalidate the victim everywhere; if
            // a private copy was dirtier, it folds into this writeback.
            self.back_invalidate(victim, victim_mask);
            memory_writebacks.push(victim);
        } else if let Some(victim) = llc_res.evicted_clean {
            // Clean LLC victim: still back-invalidate, and if a private copy
            // was dirty the data must go to memory.
            if self.back_invalidate(victim, victim_mask) {
                memory_writebacks.push(victim);
            }
        }
        if llc_res.hit {
            self.llc_presence[llc_res.slot] |= 1u64 << core;
            return HierarchyOutcome {
                hit: Some(HitLevel::Llc),
                memory_writebacks,
            };
        }
        // A fill: the way now holds a fresh line only this core has touched.
        self.llc_presence[llc_res.slot] = 1u64 << core;

        self.llc_misses += 1;
        HierarchyOutcome {
            hit: None,
            memory_writebacks,
        }
    }

    /// Invalidate `line` in the private caches of every core in `mask`
    /// (a superset of the cores that can hold it); returns true if any
    /// private copy was dirty.
    fn back_invalidate(&mut self, line: LineAddr, mut mask: u64) -> bool {
        let mut dirty = false;
        while mask != 0 {
            let core = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            if let Some(d) = self.l1[core].invalidate(line) {
                dirty |= d;
            }
            if let Some(d) = self.l2[core].invalidate(line) {
                dirty |= d;
            }
        }
        dirty
    }

    /// Flush every line of a 4 KiB page from all levels, appending the dirty
    /// lines that must be written back to memory to `dirty_lines` in
    /// ascending order, each once. The buffer must be empty on entry, so the
    /// caller can reuse one allocation across flushes. NUMA-style remapping
    /// designs (HMA) must do this on every page migration to keep physical
    /// addresses consistent; Banshee never needs it.
    ///
    /// The LLC drives the flush: under strict inclusion a line absent from
    /// the LLC is in no private cache, and a present line can only be in the
    /// private caches of the cores in its way's presence mask. So each line
    /// costs one LLC probe plus a back-invalidation of the masked cores,
    /// instead of a probe in every cache. The mask is left as it is; the
    /// way's next fill resets it.
    pub fn flush_page_into(&mut self, page: PageNum, dirty_lines: &mut Vec<LineAddr>) {
        debug_assert!(dirty_lines.is_empty(), "flush out-buffer not cleared");
        for idx in 0..LINES_PER_PAGE {
            let line = page.line_at(idx);
            let Some((slot, llc_dirty)) = self.llc.invalidate_slot(line) else {
                continue;
            };
            let private_dirty = self.back_invalidate(line, self.llc_presence[slot]);
            if llc_dirty || private_dirty {
                dirty_lines.push(line);
            }
        }
    }
}

impl Persist for HierarchyConfig {
    fn save(&self, w: &mut SnapshotWriter) {
        w.usize(self.cores);
        w.u64(self.l1_size.as_bytes());
        w.usize(self.l1_ways);
        w.u64(self.l1_latency);
        w.u64(self.l2_size.as_bytes());
        w.usize(self.l2_ways);
        w.u64(self.l2_latency);
        w.u64(self.llc_size.as_bytes());
        w.usize(self.llc_ways);
        w.u64(self.llc_latency);
    }
    fn restore(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        Ok(HierarchyConfig {
            cores: r.usize()?,
            l1_size: MemSize::bytes(r.u64()?),
            l1_ways: r.usize()?,
            l1_latency: r.u64()?,
            l2_size: MemSize::bytes(r.u64()?),
            l2_ways: r.usize()?,
            l2_latency: r.u64()?,
            llc_size: MemSize::bytes(r.u64()?),
            llc_ways: r.usize()?,
            llc_latency: r.u64()?,
        })
    }
}

impl Persist for CacheHierarchy {
    fn save(&self, w: &mut SnapshotWriter) {
        self.config.save(w);
        w.seq(self.l1.iter());
        w.seq(self.l2.iter());
        self.llc.save(w);
        w.u64(self.llc_accesses);
        w.u64(self.llc_misses);
        w.seq(self.llc_presence.iter());
    }
    fn restore(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        let config = HierarchyConfig::restore(r)?;
        if config.cores == 0 || config.cores > 64 {
            return Err(SnapshotError::Corrupt(format!(
                "hierarchy core count {} out of range",
                config.cores
            )));
        }
        let n = r.seq_len(64)?;
        if n != config.cores {
            return Err(SnapshotError::Corrupt(format!(
                "expected {} L1 caches, found {n}",
                config.cores
            )));
        }
        let mut l1 = Vec::with_capacity(n);
        for _ in 0..n {
            l1.push(SetAssocCache::restore(r)?);
        }
        let n = r.seq_len(64)?;
        if n != config.cores {
            return Err(SnapshotError::Corrupt(format!(
                "expected {} L2 caches, found {n}",
                config.cores
            )));
        }
        let mut l2 = Vec::with_capacity(n);
        for _ in 0..n {
            l2.push(SetAssocCache::restore(r)?);
        }
        let llc = SetAssocCache::restore(r)?;
        let llc_accesses = r.u64()?;
        let llc_misses = r.u64()?;
        let n = r.seq_len(8)?;
        if n != llc.num_sets() * llc.ways() {
            return Err(SnapshotError::Corrupt(format!(
                "LLC presence mask length {n} does not match geometry"
            )));
        }
        let mut llc_presence = Vec::with_capacity(n);
        for _ in 0..n {
            llc_presence.push(r.u64()?);
        }
        Ok(CacheHierarchy {
            config,
            l1,
            l2,
            llc,
            llc_accesses,
            llc_misses,
            llc_presence,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn tiny() -> CacheHierarchy {
        tiny_with_cores(2)
    }

    fn tiny_with_cores(cores: usize) -> CacheHierarchy {
        CacheHierarchy::new(HierarchyConfig {
            cores,
            l1_size: MemSize::bytes(512),
            l1_ways: 2,
            l1_latency: 4,
            l2_size: MemSize::bytes(1024),
            l2_ways: 2,
            l2_latency: 12,
            llc_size: MemSize::bytes(4096),
            llc_ways: 4,
            llc_latency: 35,
        })
    }

    #[test]
    fn paper_default_geometry() {
        let h = CacheHierarchy::new(HierarchyConfig::paper_default(16));
        assert_eq!(h.config().cores, 16);
        assert_eq!(h.config().llc_size, MemSize::mib(8));
        assert_eq!(h.config().llc_ways, 16);
    }

    #[test]
    fn first_access_misses_everywhere_then_hits_l1() {
        let mut h = tiny();
        let line = LineAddr::new(1000);
        let first = h.access(0, line, false);
        assert!(first.is_llc_miss());
        let second = h.access(0, line, false);
        assert_eq!(second.hit, Some(HitLevel::L1));
    }

    #[test]
    fn other_core_hits_in_shared_llc() {
        let mut h = tiny();
        let line = LineAddr::new(77);
        h.access(0, line, false);
        let other = h.access(1, line, false);
        assert_eq!(other.hit, Some(HitLevel::Llc));
    }

    #[test]
    fn llc_miss_rate_accounts_only_llc_accesses() {
        let mut h = tiny();
        let line = LineAddr::new(5);
        h.access(0, line, false); // LLC access + miss
        h.access(0, line, false); // L1 hit, LLC untouched
        assert_eq!(h.llc_miss_count(), 1);
        assert!((h.llc_miss_rate() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn dirty_data_eventually_reaches_memory_writeback() {
        let mut h = tiny();
        // Write a line, then stream enough other lines through to force it
        // out of every level.
        let dirty = LineAddr::new(0);
        h.access(0, dirty, true);
        let mut seen_writeback = false;
        for i in 1..5000u64 {
            let out = h.access(0, LineAddr::new(i * 64), false);
            if out.memory_writebacks.contains(&dirty) {
                seen_writeback = true;
            }
        }
        assert!(
            seen_writeback,
            "dirty line was never written back to memory"
        );
    }

    #[test]
    fn flush_page_returns_dirty_lines_once() {
        let mut h = tiny();
        let page = PageNum::new(3);
        h.access(0, page.line_at(0), true);
        h.access(0, page.line_at(1), false);
        h.access(1, page.line_at(2), true);
        let mut dirty = Vec::new();
        h.flush_page_into(page, &mut dirty);
        assert!(dirty.contains(&page.line_at(0)));
        assert!(dirty.contains(&page.line_at(2)));
        assert!(!dirty.contains(&page.line_at(1)));
        // After the flush nothing of the page hits anywhere.
        let out = h.access(0, page.line_at(0), false);
        assert!(out.is_llc_miss());
    }

    #[test]
    #[should_panic]
    fn core_index_checked() {
        let mut h = tiny();
        let _ = h.access(5, LineAddr::new(0), false);
    }

    #[test]
    fn persist_round_trip_matches_future_behaviour() {
        use banshee_common::{SnapshotReader, SnapshotWriter};
        let mut h = tiny();
        for i in 0..800u64 {
            h.access(
                (i % 2) as usize,
                LineAddr::new(i * 7 % 512 * 64),
                i % 3 == 0,
            );
        }
        let mut w = SnapshotWriter::new();
        h.save(&mut w);
        let bytes = w.into_bytes();
        let mut r = SnapshotReader::new(&bytes);
        let mut back = CacheHierarchy::restore(&mut r).unwrap();
        assert!(r.is_exhausted());
        let mut w2 = SnapshotWriter::new();
        back.save(&mut w2);
        assert_eq!(
            w2.into_bytes(),
            bytes,
            "save → restore → save must be stable"
        );
        // Identical behaviour afterwards, including writeback sets.
        for i in 0..400u64 {
            let a = h.access(
                (i % 2) as usize,
                LineAddr::new(i * 13 % 700 * 64),
                i % 4 == 0,
            );
            let b = back.access(
                (i % 2) as usize,
                LineAddr::new(i * 13 % 700 * 64),
                i % 4 == 0,
            );
            assert_eq!(a, b);
        }
        assert_eq!(h.llc_miss_count(), back.llc_miss_count());
    }

    #[test]
    fn persist_rejects_mismatched_geometry() {
        use banshee_common::{SnapshotReader, SnapshotWriter};
        let h = tiny();
        let mut w = SnapshotWriter::new();
        h.save(&mut w);
        let bytes = w.into_bytes();
        // Claim 3 cores while the cache sections still describe 2.
        let mut bad = bytes.clone();
        bad[0..8].copy_from_slice(&3u64.to_le_bytes());
        assert!(CacheHierarchy::restore(&mut SnapshotReader::new(&bad)).is_err());
        let mut r = SnapshotReader::new(&bytes[..40]);
        assert!(CacheHierarchy::restore(&mut r).is_err());
    }

    /// The flush the LLC-driven loop replaced: probe every line of the page
    /// in every L1, every L2 and the LLC, then sort and deduplicate the
    /// dirty lines. It relies on no inclusion property, so it is the
    /// reference for `flush_page_into`.
    fn flush_page_by_scan(h: &mut CacheHierarchy, page: PageNum) -> Vec<LineAddr> {
        let mut dirty_lines = Vec::new();
        let caches = h.l1.iter_mut().chain(h.l2.iter_mut());
        for cache in caches.chain(std::iter::once(&mut h.llc)) {
            for idx in 0..LINES_PER_PAGE {
                let line = page.line_at(idx);
                if cache.invalidate(line) == Some(true) {
                    dirty_lines.push(line);
                }
            }
        }
        dirty_lines.sort_unstable_by_key(|l| l.raw());
        dirty_lines.dedup();
        dirty_lines
    }

    fn snapshot_of(h: &CacheHierarchy) -> Vec<u8> {
        let mut w = banshee_common::SnapshotWriter::new();
        h.save(&mut w);
        w.into_bytes()
    }

    /// A line of a random stream. Raw values below 512 span 8 pages, eight
    /// times the tiny LLC, so streams evict; the rest fold onto 16 hot lines
    /// of page 0, so streams also hit in L1 and L2, where a write dirties
    /// only the private copy.
    fn line_of(raw: u64) -> LineAddr {
        LineAddr::new(if raw < 512 { raw } else { raw % 16 })
    }

    /// One step of a random stream: `(core, line, op)` with op 7 a flush of
    /// the line's page and any other op an access, a write when odd.
    fn step(h: &mut CacheHierarchy, (core, line, op): (usize, u64, u8)) {
        let line = line_of(line);
        if op == 7 {
            let mut dirty_lines = Vec::new();
            h.flush_page_into(line.page(), &mut dirty_lines);
        } else {
            h.access(core % h.config.cores, line, op % 2 == 1);
        }
    }

    /// Strict inclusion: every valid L1/L2 line is in the LLC, and its
    /// core's bit is set in that way's presence mask.
    fn check_strict_inclusion(h: &CacheHierarchy) -> Result<(), String> {
        let llc_slot: std::collections::BTreeMap<LineAddr, usize> = h
            .llc
            .resident_lines()
            .map(|(slot, line)| (line, slot))
            .collect();
        for core in 0..h.config.cores {
            let private = h.l1[core]
                .resident_lines()
                .chain(h.l2[core].resident_lines());
            for (_, line) in private {
                let Some(&slot) = llc_slot.get(&line) else {
                    return Err(format!("core {core} holds {line:?}, which the LLC lacks"));
                };
                if h.llc_presence[slot] & (1u64 << core) == 0 {
                    return Err(format!(
                        "core {core} holds {line:?} without its presence bit"
                    ));
                }
            }
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The invariant that makes the LLC-driven flush exact holds after
        /// every access and every flush.
        #[test]
        fn prop_strict_inclusion(
            cores in 2usize..5,
            ops in proptest::collection::vec((0usize..4, 0u64..1024, 0u8..8), 1..600),
        ) {
            let mut h = tiny_with_cores(cores);
            for op in ops {
                step(&mut h, op);
                prop_assert_eq!(check_strict_inclusion(&h), Ok(()));
            }
        }

        /// The LLC-driven flush and the all-caches scan return the same
        /// dirty lines and leave byte-identical state that behaves the same
        /// afterwards.
        #[test]
        fn prop_flush_matches_all_caches_scan(
            cores in 2usize..5,
            warmup in proptest::collection::vec((0usize..4, 0u64..1024, 0u8..8), 0..600),
            page in 0u64..4,
            tail in proptest::collection::vec((0usize..4, 0u64..1024, 0u8..2), 0..300),
        ) {
            let mut fast = tiny_with_cores(cores);
            for op in warmup {
                step(&mut fast, op);
            }
            let mut reference = fast.clone();
            let page = PageNum::new(page);
            let mut dirty_lines = Vec::new();
            fast.flush_page_into(page, &mut dirty_lines);
            prop_assert_eq!(&dirty_lines, &flush_page_by_scan(&mut reference, page));
            prop_assert_eq!(snapshot_of(&fast), snapshot_of(&reference));
            for (core, line, write) in tail {
                let line = line_of(line);
                let core = core % cores;
                prop_assert_eq!(
                    fast.access(core, line, write == 1),
                    reference.access(core, line, write == 1)
                );
            }
        }
    }
}
