//! The `NoCache` baseline: every request goes to off-package DRAM.

use crate::controller::{DemandStats, DramCacheController};
use crate::plan::{DramOp, MemRequest, PlanSink, RequestKind};
use banshee_common::persist::{Persist, SnapshotError, SnapshotReader, SnapshotWriter};
use banshee_common::{Cycle, StatSet, TrafficClass};

/// No DRAM cache at all — the system only has off-package DRAM. Figure 4
/// normalizes every other design's speedup to this baseline.
#[derive(Debug, Default)]
pub struct NoCache {
    demand: DemandStats,
}

impl NoCache {
    /// Create the baseline controller.
    pub fn new() -> Self {
        NoCache {
            demand: DemandStats::new(4096),
        }
    }
}

impl DramCacheController for NoCache {
    fn name(&self) -> &str {
        "NoCache"
    }

    fn access(&mut self, req: &MemRequest, _now: Cycle, sink: &mut PlanSink) {
        match req.kind {
            RequestKind::DemandMiss => {
                self.demand.record(false);
                sink.then(DramOp::off_package(
                    req.addr,
                    crate::LINE_BYTES,
                    TrafficClass::MissData,
                ));
            }
            RequestKind::Writeback => {
                sink.also(DramOp::off_package_write(
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
    fn demand_goes_off_package_on_critical_path() {
        let mut c = NoCache::new();
        let plan = c.access_collected(&MemRequest::demand(Addr::new(0x1000), 0), 0);
        assert_eq!(plan.critical.len(), 1);
        assert_eq!(plan.critical[0].dram, DramKind::OffPackage);
        assert_eq!(plan.critical[0].bytes, 64);
        assert!(!plan.dram_cache_hit);
        assert_eq!(c.miss_rate(), 1.0);
    }

    #[test]
    fn writeback_is_background_traffic() {
        let mut c = NoCache::new();
        let plan = c.access_collected(&MemRequest::writeback(Addr::new(0x2000), 0), 0);
        assert!(plan.critical.is_empty());
        assert_eq!(plan.background.len(), 1);
        assert_eq!(plan.background[0].class, TrafficClass::Writeback);
        // Writebacks do not count as demand accesses.
        assert_eq!(c.demand_stats(), (0, 0));
    }

    #[test]
    fn never_touches_in_package_dram() {
        let mut c = NoCache::new();
        for i in 0..100u64 {
            let plan = c.access_collected(&MemRequest::demand(Addr::new(i * 4096), 0), 0);
            assert_eq!(plan.bytes_on(DramKind::InPackage), 0);
        }
    }
}
