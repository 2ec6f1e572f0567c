//! The `CacheOnly` baseline: an idealized, infinite in-package DRAM.

use crate::controller::{DemandStats, DramCacheController};
use crate::plan::{DramOp, MemRequest, PlanSink, RequestKind};
use banshee_common::persist::{Persist, SnapshotError, SnapshotReader, SnapshotWriter};
use banshee_common::{Cycle, StatSet, TrafficClass};

/// The system only contains in-package DRAM with infinite capacity
/// (Section 5.1.1). Every access is a hit; there is no off-package DRAM at
/// all, which also means no off-package bandwidth — the reason Banshee can
/// occasionally *beat* this configuration on bandwidth-bound workloads
/// (Section 5.2).
#[derive(Debug, Default)]
pub struct CacheOnly {
    demand: DemandStats,
}

impl CacheOnly {
    /// Create the idealized controller.
    pub fn new() -> Self {
        CacheOnly {
            demand: DemandStats::new(4096),
        }
    }
}

impl DramCacheController for CacheOnly {
    fn name(&self) -> &str {
        "CacheOnly"
    }

    fn access(&mut self, req: &MemRequest, _now: Cycle, sink: &mut PlanSink) {
        match req.kind {
            RequestKind::DemandMiss => {
                self.demand.record(true);
                sink.then(DramOp::in_package(
                    req.addr,
                    crate::LINE_BYTES,
                    TrafficClass::HitData,
                ))
                .hit();
            }
            RequestKind::Writeback => {
                sink.also(DramOp::in_package_write(
                    req.addr,
                    crate::LINE_BYTES,
                    TrafficClass::Writeback,
                ));
            }
        }
    }

    fn demand_stats(&self) -> (u64, u64) {
        self.demand.totals()
    }

    fn stats(&self) -> StatSet {
        StatSet::new()
    }

    fn save_state(&self, w: &mut SnapshotWriter) {
        self.demand.save(w);
    }

    fn load_state(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        self.demand = DemandStats::restore(r)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use banshee_common::{Addr, DramKind};

    #[test]
    fn everything_hits_in_package() {
        let mut c = CacheOnly::new();
        let plan = c.access_collected(&MemRequest::demand(Addr::new(0xABC0), 1), 0);
        assert!(plan.dram_cache_hit);
        assert_eq!(plan.critical.len(), 1);
        assert_eq!(plan.critical[0].dram, DramKind::InPackage);
        assert_eq!(plan.critical[0].class, TrafficClass::HitData);
        assert_eq!(c.miss_rate(), 0.0);
    }

    #[test]
    fn no_off_package_traffic_ever() {
        let mut c = CacheOnly::new();
        for i in 0..50u64 {
            let d = c.access_collected(&MemRequest::demand(Addr::new(i * 64), 0), 0);
            let w = c.access_collected(&MemRequest::writeback(Addr::new(i * 64), 0), 0);
            assert_eq!(d.bytes_on(DramKind::OffPackage), 0);
            assert_eq!(w.bytes_on(DramKind::OffPackage), 0);
        }
    }
}
