//! The trait every DRAM-cache design implements.

use crate::plan::{MemRequest, PlanSink};
use banshee_common::persist::{Persist, SnapshotError, SnapshotReader, SnapshotWriter};
use banshee_common::{Cycle, PageNum, StatSet};
use banshee_memhier::PteMapInfo;

/// A DRAM-cache controller: the logic in a memory controller that decides,
/// for each request, which DRAM operations to perform and how to manage the
/// cache's contents.
///
/// The system simulator drives controllers through two entry points:
///
/// * [`DramCacheController::access`] — every LLC miss and LLC dirty eviction.
/// * [`DramCacheController::epoch`] — a periodic hook (fixed instruction
///   interval) used by software-managed designs (HMA) and by designs that
///   adapt to observed bandwidth (BATMAN).
///
/// [`DramCacheController::current_mapping`], the ground-truth mapping for a
/// physical page, is not called by the simulator: tests, the Table 1 harness
/// and the `replacement_policies` example read it to give a PTE/TLB-based
/// design the hints a correct page table would.
///
/// Plans are written into a caller-owned [`PlanSink`] so the per-access path
/// allocates nothing: the simulator resets and reuses one sink for every
/// request. Tests and tools that want an owned plan use
/// [`DramCacheController::access_collected`] /
/// [`DramCacheController::epoch_collected`].
pub trait DramCacheController {
    /// A short human-readable name ("Banshee", "Alloy 0.1", ...).
    fn name(&self) -> &str;

    /// Service one request, appending the DRAM operations and side effects
    /// to `sink` (which the caller has [`PlanSink::reset`] beforehand).
    fn access(&mut self, req: &MemRequest, now: Cycle, sink: &mut PlanSink);

    /// Periodic maintenance hook. `now` is the current cycle; any operations
    /// appended to `sink` are issued as background traffic. Returns `true`
    /// if the hook produced a plan to execute. The default implementation
    /// does nothing.
    fn epoch(&mut self, _now: Cycle, _sink: &mut PlanSink) -> bool {
        false
    }

    /// Convenience for tests and analysis tools: service one request into a
    /// freshly allocated [`PlanSink`] and return it.
    fn access_collected(&mut self, req: &MemRequest, now: Cycle) -> PlanSink {
        let mut sink = PlanSink::new();
        self.access(req, now, &mut sink);
        sink
    }

    /// Convenience for tests: run the epoch hook into a fresh sink,
    /// returning it only when the hook produced a plan.
    fn epoch_collected(&mut self, now: Cycle) -> Option<PlanSink> {
        let mut sink = PlanSink::new();
        if self.epoch(now, &mut sink) {
            Some(sink)
        } else {
            None
        }
    }

    /// The up-to-date DRAM-cache mapping for a physical page, as the *page
    /// table* should see it after a coherence update. Designs that do not use
    /// PTE/TLB mapping return [`PteMapInfo::NOT_CACHED`].
    fn current_mapping(&self, _page: PageNum) -> PteMapInfo {
        PteMapInfo::NOT_CACHED
    }

    /// The design's observed DRAM-cache miss rate so far (demand accesses
    /// only), from [`DramCacheController::demand_stats`].
    fn miss_rate(&self) -> f64 {
        let (accesses, misses) = self.demand_stats();
        if accesses == 0 {
            0.0
        } else {
            misses as f64 / accesses as f64
        }
    }

    /// Total demand accesses and misses (for MPKI reporting).
    fn demand_stats(&self) -> (u64, u64);

    /// Design-specific named counters (tag-buffer flushes, footprint sizes,
    /// pages remapped, ...).
    fn stats(&self) -> StatSet;

    /// Push design-specific telemetry gauges as `(name, value)` pairs for
    /// one time-series sample. Names must be stable within a run; values are
    /// point-in-time (occupancy, threshold) or cumulative (flush and halving
    /// counts), and the report stores them as pushed. The default pushes
    /// nothing; only called when telemetry is enabled, so implementations
    /// need not be hot-path cheap.
    fn telemetry_gauges(&self, _out: &mut Vec<(&'static str, f64)>) {}

    /// Serialise the controller's mutable state (cache contents, counters,
    /// RNG streams) into a warmed-state snapshot. Configuration is *not*
    /// saved: a restored controller is always built cold from the same
    /// [`crate::DCacheConfig`] first, then [`DramCacheController::load_state`]
    /// overwrites its mutable state.
    fn save_state(&self, w: &mut SnapshotWriter);

    /// Restore mutable state previously written by
    /// [`DramCacheController::save_state`] into this (freshly built)
    /// controller. Returns a typed error on corrupt or mismatched images;
    /// the controller may be left partially updated and must be discarded
    /// by the caller on error.
    fn load_state(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError>;
}

/// Shared bookkeeping for demand hit/miss accounting, embedded by the
/// concrete designs so that miss-rate reporting is uniform.
#[derive(Debug, Clone, Default)]
pub struct DemandStats {
    accesses: u64,
    misses: u64,
    /// Misses within the recent window (for adaptive policies).
    window_accesses: u64,
    window_misses: u64,
    window_size: u64,
    recent_miss_rate: f64,
}

impl DemandStats {
    /// Create with a sliding-window length for the recent miss rate.
    pub fn new(window_size: u64) -> Self {
        DemandStats {
            window_size: window_size.max(1),
            recent_miss_rate: 1.0,
            ..Default::default()
        }
    }

    /// Record one demand access and whether it hit the DRAM cache.
    pub fn record(&mut self, hit: bool) {
        self.accesses += 1;
        self.window_accesses += 1;
        if !hit {
            self.misses += 1;
            self.window_misses += 1;
        }
        if self.window_accesses >= self.window_size {
            self.recent_miss_rate = self.window_misses as f64 / self.window_accesses as f64;
            self.window_accesses = 0;
            self.window_misses = 0;
        }
    }

    /// Miss rate over the most recent completed window (starts at 1.0 so the
    /// first window of a cold cache samples aggressively, matching the
    /// paper's intent that sampling tracks the *recent* miss rate).
    pub fn recent_miss_rate(&self) -> f64 {
        self.recent_miss_rate
    }

    /// (accesses, misses) so far.
    pub fn totals(&self) -> (u64, u64) {
        (self.accesses, self.misses)
    }
}

impl Persist for DemandStats {
    fn save(&self, w: &mut SnapshotWriter) {
        w.u64(self.accesses);
        w.u64(self.misses);
        w.u64(self.window_accesses);
        w.u64(self.window_misses);
        w.u64(self.window_size);
        w.f64(self.recent_miss_rate);
    }
    fn restore(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        Ok(DemandStats {
            accesses: r.u64()?,
            misses: r.u64()?,
            window_accesses: r.u64()?,
            window_misses: r.u64()?,
            window_size: r.u64()?,
            recent_miss_rate: r.f64()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn demand_stats_miss_rate() {
        let mut s = DemandStats::new(4);
        assert_eq!(s.totals(), (0, 0));
        s.record(false);
        s.record(false);
        s.record(true);
        s.record(true);
        assert_eq!(s.totals(), (4, 2));
    }

    #[test]
    fn recent_miss_rate_updates_per_window() {
        let mut s = DemandStats::new(4);
        // Before any full window, the recent rate is the pessimistic 1.0.
        assert_eq!(s.recent_miss_rate(), 1.0);
        for _ in 0..4 {
            s.record(false);
        }
        assert!((s.recent_miss_rate() - 1.0).abs() < 1e-12);
        for _ in 0..4 {
            s.record(true);
        }
        assert!(s.recent_miss_rate().abs() < 1e-12);
        // The cumulative counts still hold both windows.
        assert_eq!(s.totals(), (8, 4));
    }

    #[test]
    fn zero_window_is_clamped() {
        let mut s = DemandStats::new(0);
        s.record(true);
        assert!((s.recent_miss_rate()).abs() < 1e-12);
    }
}
