//! Lazy PTE/TLB coherence (Section 3.4).
//!
//! When a tag buffer reaches its fill threshold, hardware interrupts a core;
//! the interrupt handler reads every tag-buffer entry (they are
//! memory-mapped), finds the PTEs for each physical page through the OS's
//! reverse mapping, updates the cached/way bits, issues one system-wide TLB
//! shootdown, and finally tells the tag buffers to clear their remap bits.
//!
//! [`LazyCoherence`] converts a drained set of tag-buffer entries into the
//! [`SideEffect`] list the system simulator applies, and keeps the counters
//! reported in the paper (flushes happen roughly every 14 ms with the
//! default replacement policy — Section 5.5.2). The round's Table 3 costs
//! (the 20 µs routine on one randomly chosen core, 4 µs for the shootdown
//! initiator and 1 µs for every other core) are `banshee_sim::SimConfig`
//! fields, charged by the system simulator when it applies the effects.

use crate::tag_buffer::TagBufferEntry;
use banshee_common::persist::{Persist, SnapshotError, SnapshotReader, SnapshotWriter};
use banshee_common::Cycle;
use banshee_dcache::SideEffect;

/// The lazy-coherence mechanism: turns tag-buffer drains into OS side
/// effects and tracks how often they happen.
#[derive(Debug, Clone, Default)]
pub struct LazyCoherence {
    flushes: u64,
    pte_updates: u64,
    last_flush_cycle: Cycle,
    flush_interval_sum: u64,
}

impl LazyCoherence {
    /// A mechanism that has not flushed yet.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of coherence rounds (tag-buffer flushes) so far.
    pub fn flushes(&self) -> u64 {
        self.flushes
    }

    /// Total PTE mapping updates pushed to the page table.
    pub fn pte_updates(&self) -> u64 {
        self.pte_updates
    }

    /// Mean cycles between flushes (0 before the second flush). The paper
    /// reports ~14 ms with the default policy.
    pub fn mean_flush_interval(&self) -> f64 {
        if self.flushes <= 1 {
            0.0
        } else {
            self.flush_interval_sum as f64 / (self.flushes - 1) as f64
        }
    }

    /// Build the side effects of one coherence round over the drained
    /// entries of all tag buffers.
    pub fn flush(&mut self, drained: Vec<TagBufferEntry>, now: Cycle) -> Vec<SideEffect> {
        if self.flushes > 0 {
            self.flush_interval_sum += now.saturating_sub(self.last_flush_cycle);
        }
        self.last_flush_cycle = now;
        self.flushes += 1;
        self.pte_updates += drained.len() as u64;

        let updates = drained.into_iter().map(|e| (e.page, e.info)).collect();
        // The system simulator charges the handler cost when it applies the
        // page-table update and the per-core shootdown costs when it flushes
        // the TLBs, so the side effects themselves carry no explicit cycle
        // charge here (this also lets Table 5 sweep the update cost without
        // rebuilding the controller).
        vec![
            SideEffect::UpdatePageTable { updates },
            SideEffect::TlbShootdown,
        ]
    }
}

impl Persist for LazyCoherence {
    fn save(&self, w: &mut SnapshotWriter) {
        w.u64(self.flushes);
        w.u64(self.pte_updates);
        w.u64(self.last_flush_cycle);
        w.u64(self.flush_interval_sum);
    }
    fn restore(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        Ok(LazyCoherence {
            flushes: r.u64()?,
            pte_updates: r.u64()?,
            last_flush_cycle: r.u64()?,
            flush_interval_sum: r.u64()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use banshee_common::PageNum;
    use banshee_memhier::PteMapInfo;

    fn entries(n: u64) -> Vec<TagBufferEntry> {
        (0..n)
            .map(|i| TagBufferEntry {
                page: PageNum::new(i),
                info: PteMapInfo::cached_in(1),
                remap: true,
            })
            .collect()
    }

    #[test]
    fn flush_produces_update_and_shootdown() {
        let mut c = LazyCoherence::new();
        let effects = c.flush(entries(5), 1000);
        assert_eq!(effects.len(), 2);
        assert!(
            matches!(&effects[0], SideEffect::UpdatePageTable { updates } if updates.len() == 5)
        );
        assert!(matches!(effects[1], SideEffect::TlbShootdown));
        assert_eq!(c.flushes(), 1);
        assert_eq!(c.pte_updates(), 5);
    }

    #[test]
    fn flush_interval_tracking() {
        let mut c = LazyCoherence::new();
        c.flush(entries(1), 1_000_000);
        assert_eq!(c.mean_flush_interval(), 0.0);
        c.flush(entries(1), 3_000_000);
        c.flush(entries(1), 5_000_000);
        assert!((c.mean_flush_interval() - 2_000_000.0).abs() < 1e-6);
        assert_eq!(c.flushes(), 3);
    }
}
