//! Banshee configuration (the paper's Table 3, plus scaling knobs).

use banshee_common::{MemSize, PAGE_SIZE};
use banshee_dcache::DCacheConfig;
use serde::{Deserialize, Serialize};

/// The Banshee parameters the model reads. Defaults reproduce Table 3.
///
/// The remaining Table 3 values are named constants next to the code that
/// uses them ([`TAG_BUFFER_WAYS`](crate::tag_buffer::TAG_BUFFER_WAYS),
/// [`FLUSH_THRESHOLD`](crate::tag_buffer::FLUSH_THRESHOLD),
/// [`CANDIDATES_PER_SET`](crate::metadata::CANDIDATES_PER_SET)). The OS
/// costs of a coherence round (the 20 µs update routine and the 4 µs / 1 µs
/// shootdowns) are `banshee_sim::SimConfig` fields, charged by the system
/// simulator when it applies the round's side effects.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BansheeConfig {
    /// In-package DRAM capacity used as the cache.
    pub capacity: MemSize,
    /// DRAM cache associativity (4 in the paper; Table 6 sweeps 1–8). Each
    /// set's metadata tracks this many cached pages.
    pub ways: usize,
    /// Caching granularity in bytes: 4 KiB for regular pages, 2 MiB when the
    /// controller is instantiated for large pages (Section 4.3).
    pub page_bytes: u64,
    /// Number of memory controllers; each gets its own tag buffer.
    pub memory_controllers: usize,
    /// Entries per tag buffer (1024, Section 3.3 / Table 3).
    pub tag_buffer_entries: usize,
    /// Width of each frequency counter in bits (5, Section 4.2 / Table 3).
    pub counter_bits: u32,
    /// Sampling coefficient: the counter-update sample rate is
    /// `recent_miss_rate × sampling_coefficient` (0.1 for 4 KiB pages,
    /// 0.001 recommended for 2 MiB pages).
    pub sampling_coefficient: f64,
}

impl BansheeConfig {
    /// The paper's default configuration (Table 3) at full 1 GB capacity.
    pub fn paper_default() -> Self {
        BansheeConfig {
            capacity: MemSize::gib(1),
            ways: 4,
            page_bytes: PAGE_SIZE,
            memory_controllers: 4,
            tag_buffer_entries: 1024,
            counter_bits: 5,
            sampling_coefficient: 0.1,
        }
    }

    /// Build from the shared DRAM-cache geometry (capacity, ways, MCs),
    /// keeping Banshee-specific defaults.
    pub fn from_dcache(config: &DCacheConfig) -> Self {
        BansheeConfig {
            capacity: config.capacity,
            ways: config.ways,
            memory_controllers: config.memory_controllers,
            ..Self::paper_default()
        }
    }

    /// Switch the configuration to 2 MiB large-page caching (Section 5.4.1):
    /// the caching granularity becomes 2 MiB and the sampling coefficient
    /// drops to 0.001 so counters do not saturate.
    pub fn for_large_pages(mut self) -> Self {
        self.page_bytes = banshee_common::LARGE_PAGE_SIZE;
        self.sampling_coefficient = 0.001;
        self
    }

    /// Number of cache lines per caching unit (64 for 4 KiB pages, 32768 for
    /// 2 MiB pages).
    pub fn lines_per_page(&self) -> u64 {
        self.page_bytes / banshee_common::CACHE_LINE_SIZE
    }

    /// Number of page frames the cache holds at this granularity.
    pub fn capacity_pages(&self) -> u64 {
        (self.capacity.as_bytes() / self.page_bytes).max(1)
    }

    /// Number of sets (capacity pages / ways).
    pub fn sets(&self) -> u64 {
        (self.capacity_pages() / self.ways as u64).max(1)
    }

    /// Maximum frequency-counter value (2^bits - 1; 31 for 5-bit counters).
    pub fn max_count(&self) -> u32 {
        (1u32 << self.counter_bits) - 1
    }

    /// The replacement threshold of Section 4.2.2:
    /// `page_size (in lines) × sampling_coefficient / 2`.
    pub fn threshold(&self) -> f64 {
        self.lines_per_page() as f64 * self.sampling_coefficient / 2.0
    }

    // The three per-access address helpers below inline the power-of-two
    // mask/shift specialization instead of storing a `FastDivMod`: this
    // struct's derived `Debug` form is part of `SimConfig`'s store key
    // material, so adding precomputed fields would invalidate every
    // persisted result. The arithmetic is identical either way.

    /// Convert the caching-unit number of an address (page number for 4 KiB
    /// granularity, large-page number for 2 MiB granularity). Runs on every
    /// controller access, so the (always power-of-two) granularity divides
    /// by shift.
    #[inline]
    pub fn unit_of(&self, addr: banshee_common::Addr) -> u64 {
        if self.page_bytes.is_power_of_two() {
            addr.raw() >> self.page_bytes.trailing_zeros()
        } else {
            addr.raw() / self.page_bytes
        }
    }

    /// Byte offset of an address within its caching unit.
    #[inline]
    pub fn unit_offset(&self, addr: banshee_common::Addr) -> u64 {
        if self.page_bytes.is_power_of_two() {
            addr.raw() & (self.page_bytes - 1)
        } else {
            addr.raw() % self.page_bytes
        }
    }

    /// The memory controller an address maps to (static page-granularity
    /// interleaving, Section 2).
    #[inline]
    pub fn mc_of(&self, unit: u64) -> usize {
        let n = self.memory_controllers as u64;
        if n.is_power_of_two() {
            (unit & (n - 1)) as usize
        } else {
            (unit % n) as usize
        }
    }
}

impl Default for BansheeConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_defaults() {
        let c = BansheeConfig::paper_default();
        assert_eq!(c.ways, 4);
        assert_eq!(c.tag_buffer_entries, 1024);
        assert_eq!(crate::tag_buffer::TAG_BUFFER_WAYS, 8);
        assert!((crate::tag_buffer::FLUSH_THRESHOLD - 0.7).abs() < 1e-12);
        assert_eq!(c.counter_bits, 5);
        assert_eq!(c.max_count(), 31);
        assert_eq!(crate::metadata::CANDIDATES_PER_SET, 5);
        assert!((c.sampling_coefficient - 0.1).abs() < 1e-12);
    }

    #[test]
    fn default_threshold_matches_section_4_2_2() {
        let c = BansheeConfig::paper_default();
        // 64 lines × 0.1 / 2 = 3.2
        assert!((c.threshold() - 3.2).abs() < 1e-9);
    }

    #[test]
    fn geometry_at_paper_scale() {
        let c = BansheeConfig::paper_default();
        assert_eq!(c.capacity_pages(), 262_144);
        assert_eq!(c.sets(), 65_536);
        assert_eq!(c.lines_per_page(), 64);
    }

    #[test]
    fn large_page_mode() {
        let c = BansheeConfig::paper_default().for_large_pages();
        assert_eq!(c.page_bytes, 2 * 1024 * 1024);
        assert_eq!(c.lines_per_page(), 32_768);
        assert_eq!(c.capacity_pages(), 512);
        assert!((c.sampling_coefficient - 0.001).abs() < 1e-12);
        // Threshold scales with the larger page: 32768 × 0.001 / 2 = 16.384.
        assert!((c.threshold() - 16.384).abs() < 1e-9);
    }

    #[test]
    fn unit_and_mc_mapping() {
        let c = BansheeConfig::paper_default();
        assert_eq!(c.unit_of(banshee_common::Addr::new(4096 * 5 + 17)), 5);
        assert_eq!(c.mc_of(5), 1);
        assert_eq!(c.mc_of(8), 0);
        let lp = BansheeConfig::paper_default().for_large_pages();
        assert_eq!(
            lp.unit_of(banshee_common::Addr::new(2 * 1024 * 1024 * 3)),
            3
        );
    }

    #[test]
    fn from_dcache_inherits_geometry() {
        let d = DCacheConfig::scaled(MemSize::mib(64));
        let c = BansheeConfig::from_dcache(&d);
        assert_eq!(c.capacity, MemSize::mib(64));
        assert_eq!(c.ways, 4);
        assert_eq!(c.memory_controllers, d.memory_controllers);
    }
}
