//! HMA: software-managed heterogeneous memory architecture (Meswani et al.,
//! HPCA 2015).
//!
//! The OS periodically ranks pages by access count and migrates hot pages
//! into the in-package DRAM (and cold pages out). Because remapping changes
//! the page's physical address (NUMA-style management), every migrated page
//! must also be scrubbed from the on-chip caches, all PTEs must be updated
//! and all TLBs flushed — which is why the period is 100 ms – 1 s and why
//! every program stops while it happens (Section 2.1.2).
//!
//! On the access path HMA is the cheapest possible design (Table 1): a hit is
//! a 64 B in-package access, a miss is a 64 B off-package access, and there
//! is no replacement or tag traffic at all. All of the cost is concentrated
//! in the periodic software routine, modelled here by the [`SideEffect`]s
//! returned from [`DramCacheController::epoch`].

use crate::controller::{DemandStats, DramCacheController};
use crate::design::DCacheConfig;
use crate::plan::{DramOp, MemRequest, PlanSink, RequestKind, SideEffect};
use banshee_common::persist::{Persist, SnapshotError, SnapshotReader, SnapshotWriter};
use banshee_common::{
    Cycle, FnvHashMap, FnvHashSet, PageNum, ReplaySet, StatSet, TrafficClass, CPU_CLOCK, PAGE_SIZE,
};
use banshee_memhier::PteMapInfo;

/// Per-migrated-page software cost in microseconds (PTE updates, TLB
/// shootdown share, cache scrubbing).
const PER_PAGE_COST_US: f64 = 2.0;
/// Fixed cost of one remapping interval in microseconds.
const BASE_COST_US: f64 = 50.0;
/// Upper bound on pages migrated (in each direction) per interval.
const MAX_MIGRATIONS: usize = 4096;

/// The software-managed controller.
#[derive(Debug)]
pub struct Hma {
    capacity_pages: u64,
    /// Resident pages. A [`ReplaySet`] rather than a plain hash set because
    /// the eviction scan in [`DramCacheController::epoch`] iterates it, and
    /// iteration order must survive a snapshot round trip for a resumed run
    /// to stay byte-identical with a cold one — while staying bit-identical
    /// to plain `FnvHashSet` iteration on cold runs.
    cached: ReplaySet<PageNum>,
    /// Demand-miss count of every page touched in the current interval,
    /// keyed by page number.
    counts: FnvHashMap<u64, u64>,
    demand: DemandStats,
    migrations_in: u64,
    migrations_out: u64,
    intervals: u64,
}

impl Hma {
    /// Build an HMA controller.
    pub fn new(config: &DCacheConfig) -> Self {
        Hma {
            capacity_pages: config.capacity_pages().max(1),
            cached: ReplaySet::new(),
            counts: FnvHashMap::default(),
            demand: DemandStats::new(4096),
            migrations_in: 0,
            migrations_out: 0,
            intervals: 0,
        }
    }

    /// Pages currently resident in the in-package DRAM.
    pub fn resident_pages(&self) -> usize {
        self.cached.len()
    }
}

impl DramCacheController for Hma {
    fn name(&self) -> &str {
        "HMA"
    }

    fn access(&mut self, req: &MemRequest, _now: Cycle, sink: &mut PlanSink) {
        let page = req.page();
        let hit = self.cached.contains(&page);
        match req.kind {
            RequestKind::DemandMiss => {
                *self.counts.entry(page.raw()).or_insert(0) += 1;
                self.demand.record(hit);
                if hit {
                    sink.then(DramOp::in_package(req.addr, 64, TrafficClass::HitData))
                        .hit();
                } else {
                    sink.then(DramOp::off_package(req.addr, 64, TrafficClass::MissData));
                }
            }
            RequestKind::Writeback => {
                let op = if hit {
                    DramOp::in_package_write(req.addr, 64, TrafficClass::Writeback)
                } else {
                    DramOp::off_package_write(req.addr, 64, TrafficClass::Writeback)
                };
                sink.also(op);
            }
        }
    }

    fn epoch(&mut self, _now: Cycle, sink: &mut PlanSink) -> bool {
        self.intervals += 1;
        // Rank pages by access count in this interval: count descending,
        // then page ascending. That is a total order, so the ranking does
        // not depend on the map's iteration order.
        let mut ranked: Vec<(PageNum, u64)> = self
            .counts
            .iter()
            .map(|(&page, &count)| (PageNum::new(page), count))
            .collect();
        ranked.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.raw().cmp(&b.0.raw())));
        let want: FnvHashSet<PageNum> = ranked
            .iter()
            .take(self.capacity_pages as usize)
            .map(|(p, _)| *p)
            .collect();

        let to_insert: Vec<PageNum> = want
            .iter()
            .filter(|p| !self.cached.contains(p))
            .take(MAX_MIGRATIONS)
            .copied()
            .collect();
        let to_evict: Vec<PageNum> = self
            .cached
            .iter()
            .filter(|p| !want.contains(p))
            .take(
                to_insert.len().max(
                    self.cached
                        .len()
                        .saturating_sub(self.capacity_pages as usize),
                ),
            )
            .copied()
            .collect();

        self.counts.clear();
        if to_insert.is_empty() && to_evict.is_empty() {
            return false;
        }

        // Evictions: read page from in-package, write to off-package, scrub
        // the on-chip caches of its (old) physical address.
        for page in &to_evict {
            self.cached.remove(page);
            self.migrations_out += 1;
            sink.also(DramOp::in_package(
                page.base_addr(),
                PAGE_SIZE,
                TrafficClass::Replacement,
            ))
            .also(DramOp::off_package_write(
                page.base_addr(),
                PAGE_SIZE,
                TrafficClass::Replacement,
            ))
            .with_side_effect(SideEffect::FlushPage { page: *page });
        }
        // Insertions: read page from off-package, write into in-package,
        // scrub caches (its physical address changes under NUMA management).
        for page in &to_insert {
            self.cached.insert(*page);
            self.migrations_in += 1;
            sink.also(DramOp::off_package(
                page.base_addr(),
                PAGE_SIZE,
                TrafficClass::Replacement,
            ))
            .also(DramOp::in_package_write(
                page.base_addr(),
                PAGE_SIZE,
                TrafficClass::Replacement,
            ))
            .with_side_effect(SideEffect::FlushPage { page: *page });
        }

        // The OS stops every program while it migrates (Section 2.1.2).
        let pages_moved = (to_insert.len() + to_evict.len()) as f64;
        let stall_us = BASE_COST_US + PER_PAGE_COST_US * pages_moved;
        let pt_updates: Vec<(PageNum, PteMapInfo)> = to_insert
            .iter()
            .map(|p| (*p, PteMapInfo::cached_in(0)))
            .chain(to_evict.iter().map(|p| (*p, PteMapInfo::NOT_CACHED)))
            .collect();
        sink.with_side_effect(SideEffect::UpdatePageTable {
            updates: pt_updates,
        })
        .with_side_effect(SideEffect::TlbShootdown)
        .with_side_effect(SideEffect::StallAllCores {
            cycles: CPU_CLOCK.cycles_in_us(stall_us),
        });
        true
    }

    fn current_mapping(&self, page: PageNum) -> PteMapInfo {
        if self.cached.contains(&page) {
            PteMapInfo::cached_in(0)
        } else {
            PteMapInfo::NOT_CACHED
        }
    }

    fn miss_rate(&self) -> f64 {
        self.demand.miss_rate()
    }

    fn demand_stats(&self) -> (u64, u64) {
        self.demand.totals()
    }

    fn stats(&self) -> StatSet {
        let mut s = StatSet::new();
        s.add("hma_migrations_in", self.migrations_in);
        s.add("hma_migrations_out", self.migrations_out);
        s.add("hma_intervals", self.intervals);
        s.add("hma_resident_pages", self.cached.len() as u64);
        s
    }

    fn telemetry_gauges(&self, out: &mut Vec<(&'static str, f64)>) {
        out.push(("resident_pages", self.cached.len() as f64));
        out.push((
            "occupancy",
            self.cached.len() as f64 / self.capacity_pages as f64,
        ));
        out.push(("recent_miss_rate", self.demand.recent_miss_rate()));
        out.push(("migrations_in", self.migrations_in as f64));
        out.push(("migrations_out", self.migrations_out as f64));
    }

    fn save_state(&self, w: &mut SnapshotWriter) {
        w.u64(self.capacity_pages);
        w.u64(self.migrations_in);
        w.u64(self.migrations_out);
        w.u64(self.intervals);
        // Residency iteration order is semantic (the eviction scan walks
        // it), so the ReplaySet persists its mutation journal. The counts'
        // order is not: the ranking sorts them.
        self.cached.save(w);
        self.counts.save(w);
        self.demand.save(w);
    }

    fn load_state(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        let capacity_pages = r.u64()?;
        if capacity_pages != self.capacity_pages {
            return Err(SnapshotError::Corrupt(format!(
                "hma image capacity {capacity_pages} pages != controller {}",
                self.capacity_pages
            )));
        }
        self.migrations_in = r.u64()?;
        self.migrations_out = r.u64()?;
        self.intervals = r.u64()?;
        self.cached = ReplaySet::restore(r)?;
        self.counts = FnvHashMap::restore(r)?;
        self.demand = DemandStats::restore(r)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use banshee_common::{Addr, DramKind, MemSize};

    fn tiny() -> DCacheConfig {
        DCacheConfig {
            capacity: MemSize::kib(8), // 2 pages
            ..DCacheConfig::paper_default()
        }
    }

    #[test]
    fn no_replacement_traffic_on_the_access_path() {
        let mut c = Hma::new(&tiny());
        let plan = c.access_collected(&MemRequest::demand(Addr::new(0x9000), 0), 0);
        assert_eq!(plan.bytes_of_class(TrafficClass::Replacement), 0);
        assert_eq!(plan.bytes_on(DramKind::OffPackage), 64);
        assert_eq!(plan.bytes_on(DramKind::InPackage), 0);
    }

    #[test]
    fn epoch_moves_hot_pages_in() {
        let mut c = Hma::new(&tiny());
        // Page 5 is hot, page 9 is lukewarm, page 100 is cold.
        for _ in 0..10 {
            c.access_collected(&MemRequest::demand(PageNum::new(5).base_addr(), 0), 0);
        }
        for _ in 0..5 {
            c.access_collected(&MemRequest::demand(PageNum::new(9).base_addr(), 0), 0);
        }
        c.access_collected(&MemRequest::demand(PageNum::new(100).base_addr(), 0), 0);

        let plan = c.epoch_collected(1_000_000).expect("migrations expected");
        assert_eq!(c.resident_pages(), 2);
        assert!(c.current_mapping(PageNum::new(5)).cached);
        assert!(c.current_mapping(PageNum::new(9)).cached);
        assert!(!c.current_mapping(PageNum::new(100)).cached);
        // Every program stops during migration.
        assert!(plan
            .side_effects
            .iter()
            .any(|e| matches!(e, SideEffect::StallAllCores { .. })));
        assert!(plan
            .side_effects
            .iter()
            .any(|e| matches!(e, SideEffect::TlbShootdown)));
        // Two pages moved in: 2 x (4 KiB off-package read + 4 KiB in-package
        // write).
        assert_eq!(plan.bytes_of_class(TrafficClass::Replacement), 4 * 4096);

        // After migration the hot page hits in-package DRAM.
        let hit = c.access_collected(&MemRequest::demand(PageNum::new(5).base_addr(), 0), 0);
        assert!(hit.dram_cache_hit);
    }

    #[test]
    fn epoch_evicts_pages_that_went_cold() {
        let mut c = Hma::new(&tiny());
        for p in [1u64, 2] {
            for _ in 0..4 {
                c.access_collected(&MemRequest::demand(PageNum::new(p).base_addr(), 0), 0);
            }
        }
        c.epoch_collected(0);
        assert_eq!(c.resident_pages(), 2);
        // Next interval: two different pages are hot.
        for p in [7u64, 8] {
            for _ in 0..4 {
                c.access_collected(&MemRequest::demand(PageNum::new(p).base_addr(), 0), 0);
            }
        }
        let plan = c.epoch_collected(1).expect("should migrate");
        assert!(c.current_mapping(PageNum::new(7)).cached);
        assert!(!c.current_mapping(PageNum::new(1)).cached);
        // Evicted pages must be scrubbed from on-chip caches.
        let flushes = plan
            .side_effects
            .iter()
            .filter(|e| matches!(e, SideEffect::FlushPage { .. }))
            .count();
        assert!(flushes >= 2);
    }

    #[test]
    fn ranking_does_not_depend_on_record_order() {
        let config = DCacheConfig {
            capacity: MemSize::kib(16), // 4 pages
            ..DCacheConfig::paper_default()
        };
        // (page, demand misses): ties at 3 and at 2 straddle the 4-page
        // capacity, so the page-ascending tie-break decides the plan.
        let misses = [
            (7u64, 3u64),
            (2, 3),
            (11, 2),
            (5, 2),
            (9, 2),
            (4, 1),
            (8, 1),
        ];
        let grouped: Vec<u64> = misses
            .iter()
            .flat_map(|&(page, n)| std::iter::repeat_n(page, n as usize))
            .collect();
        let mut interleaved: Vec<u64> = Vec::new();
        for round in (0..3).rev() {
            for &(page, n) in misses.iter().rev() {
                if round < n {
                    interleaved.push(page);
                }
            }
        }
        assert_ne!(grouped, interleaved);

        let plan_for = |order: &[u64]| {
            let mut c = Hma::new(&config);
            // A first interval makes pages 20..24 resident, so the second
            // plan both inserts and evicts.
            for page in 20u64..24 {
                c.access_collected(&MemRequest::demand(PageNum::new(page).base_addr(), 0), 0);
            }
            c.epoch_collected(0).expect("first interval migrates");
            for &page in order {
                c.access_collected(&MemRequest::demand(PageNum::new(page).base_addr(), 0), 0);
            }
            let plan = c.epoch_collected(1).expect("second interval migrates");
            (plan.background, plan.side_effects)
        };
        let (ops, effects) = plan_for(&grouped);
        assert_eq!((ops.clone(), effects.clone()), plan_for(&interleaved));
        // The two count-3 pages and the lowest count-2 pages move in.
        let inserted: FnvHashSet<PageNum> = effects
            .iter()
            .find_map(|e| match e {
                SideEffect::UpdatePageTable { updates } => Some(
                    updates
                        .iter()
                        .filter(|(_, m)| m.cached)
                        .map(|(p, _)| *p)
                        .collect(),
                ),
                _ => None,
            })
            .expect("page-table update");
        let expected: FnvHashSet<PageNum> = [2u64, 5, 7, 9].map(PageNum::new).into_iter().collect();
        assert_eq!(inserted, expected);
        assert_eq!(ops.len(), 16, "4 evictions + 4 insertions, 2 ops each");
    }

    #[test]
    fn quiet_interval_produces_no_plan() {
        let mut c = Hma::new(&tiny());
        assert!(c.epoch_collected(0).is_none());
    }

    #[test]
    fn writebacks_follow_residency() {
        let mut c = Hma::new(&tiny());
        for _ in 0..3 {
            c.access_collected(&MemRequest::demand(PageNum::new(4).base_addr(), 0), 0);
        }
        c.epoch_collected(0);
        let wb_hit = c.access_collected(&MemRequest::writeback(PageNum::new(4).base_addr(), 0), 0);
        assert_eq!(wb_hit.bytes_on(DramKind::InPackage), 64);
        let wb_miss =
            c.access_collected(&MemRequest::writeback(PageNum::new(50).base_addr(), 0), 0);
        assert_eq!(wb_miss.bytes_on(DramKind::OffPackage), 64);
    }
}
