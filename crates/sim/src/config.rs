//! Simulation configuration (the paper's Tables 2 and 3, plus scaling knobs
//! for laptop-sized runs).

use banshee::BansheeConfig;
use banshee_common::{Cycle, MemSize};
use banshee_dcache::{DCacheConfig, DramCacheDesign};
use banshee_dram::DramConfig;
use banshee_memhier::HierarchyConfig;

/// Everything needed to run one simulation.
///
/// The derived `Debug` string is the result-store key material (see
/// [`SimConfig::cache_key_material`]): every field is keyed by
/// construction, so there are no execution knobs here. Settings that must
/// not re-key cached results (worker counts, telemetry) live outside this
/// struct.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Number of cores (16 in Table 2).
    pub cores: usize,
    /// Which DRAM-cache design to simulate.
    pub design: DramCacheDesign,
    /// Shared DRAM-cache geometry (capacity, ways, footprint granularity).
    pub dcache: DCacheConfig,
    /// SRAM hierarchy geometry.
    pub hierarchy: HierarchyConfig,
    /// In-package DRAM device configuration.
    pub in_dram: DramConfig,
    /// Off-package DRAM device configuration.
    pub off_dram: DramConfig,
    /// Outstanding LLC misses a core tolerates before stalling (MLP window).
    pub mlp_per_core: usize,
    /// Per-core TLB entries.
    pub tlb_entries: usize,
    /// TLB miss (page-walk) latency in cycles.
    pub tlb_miss_latency: Cycle,
    /// Core issue width (instructions per cycle when not memory stalled).
    pub issue_width: u32,
    /// Interval (in total instructions) between controller `epoch()` calls
    /// (used by HMA's software remapping and BATMAN's rebalancing).
    pub epoch_instructions: u64,
    /// Instructions (summed over cores) executed before measurement starts.
    /// Warm-up fills the SRAM caches and the DRAM cache so that the measured
    /// phase reflects steady-state behaviour, standing in for the paper's
    /// 100-billion-instruction runs.
    pub warmup_instructions: u64,
    /// Total *measured* instructions (summed over cores) to simulate after
    /// warm-up.
    pub total_instructions: u64,
    /// Cost charged when a batched page-table update is applied, in
    /// microseconds (Table 3 default 20 µs; Table 5 sweeps 10/20/40 µs).
    pub pte_update_cost_us: f64,
    /// TLB shootdown cost for the initiating core (µs).
    pub shootdown_initiator_us: f64,
    /// TLB shootdown cost for every other core (µs).
    pub shootdown_slave_us: f64,
    /// Wrap the selected design with BATMAN bandwidth balancing
    /// (Section 5.4.2).
    pub use_batman: bool,
    /// Run with 2 MiB large pages (Section 5.4.1): address translation and
    /// the Banshee caching unit switch to 2 MiB granularity.
    pub large_pages: bool,
    /// Optional explicit Banshee configuration (otherwise derived from
    /// `dcache`).
    pub banshee: Option<BansheeConfig>,
    /// RNG seed forwarded to stochastic components.
    pub seed: u64,
}

impl SimConfig {
    /// The paper's full-scale configuration (Tables 2 and 3) for a design.
    /// Slow: 1 GB DRAM cache and billions of instructions are not laptop
    /// material; prefer [`SimConfig::scaled`] for experiments.
    pub fn paper_default(design: DramCacheDesign) -> Self {
        SimConfig {
            cores: 16,
            design,
            dcache: DCacheConfig::paper_default(),
            hierarchy: HierarchyConfig::paper_default(16),
            in_dram: DramConfig::in_package_default(),
            off_dram: DramConfig::off_package_default(),
            mlp_per_core: 10,
            tlb_entries: 64,
            tlb_miss_latency: 50,
            issue_width: 4,
            epoch_instructions: 2_000_000,
            warmup_instructions: 400_000_000,
            total_instructions: 1_600_000_000,
            pte_update_cost_us: 20.0,
            shootdown_initiator_us: 4.0,
            shootdown_slave_us: 1.0,
            use_batman: false,
            large_pages: false,
            banshee: None,
            seed: 1,
        }
    }

    /// A scaled-down configuration that keeps the paper's *shape* (relative
    /// cache sizes, bandwidth ratio, per-core MLP) while shrinking capacity
    /// and instruction counts so a full figure sweep runs in minutes.
    ///
    /// `dram_cache_capacity` is the in-package capacity to model; the SRAM
    /// hierarchy follows [`SimConfig::scaled_hierarchy`].
    pub fn scaled(design: DramCacheDesign, dram_cache_capacity: MemSize) -> Self {
        let mut cfg = Self::paper_default(design);
        cfg.dcache = DCacheConfig::scaled(dram_cache_capacity);
        cfg.hierarchy = Self::scaled_hierarchy(cfg.cores, dram_cache_capacity);
        cfg.in_dram.capacity = dram_cache_capacity;
        cfg.warmup_instructions = 6_000_000;
        cfg.total_instructions = 10_000_000;
        cfg.epoch_instructions = 500_000;
        cfg
    }

    /// The SRAM hierarchy of a scaled machine: Table 2's private L1 and L2
    /// for each of `cores` cores, and a shared LLC at 1/32 of the DRAM cache,
    /// at least 256 KiB (the paper's 8 MiB : 1 GiB is 1/128, but a too-small
    /// LLC under-uses the scaled traces).
    pub fn scaled_hierarchy(cores: usize, dram_cache_capacity: MemSize) -> HierarchyConfig {
        HierarchyConfig {
            llc_size: MemSize::bytes((dram_cache_capacity.as_bytes() / 32).max(256 * 1024)),
            ..HierarchyConfig::paper_default(cores)
        }
    }

    /// A tiny configuration for unit/integration tests (seconds, not
    /// minutes).
    pub fn test_default(design: DramCacheDesign) -> Self {
        let mut cfg = Self::scaled(design, MemSize::mib(8));
        cfg.cores = 4;
        cfg.hierarchy = Self::scaled_hierarchy(cfg.cores, cfg.dcache.capacity);
        cfg.warmup_instructions = 150_000;
        cfg.total_instructions = 400_000;
        cfg.epoch_instructions = 100_000;
        cfg
    }

    /// Scale the in-package DRAM's bandwidth relative to off-package
    /// (Figure 8c sweeps 2×/4×/8×) by adjusting the channel count.
    pub fn with_dram_cache_bandwidth_ratio(mut self, ratio: usize) -> Self {
        self.in_dram.channels = ratio.max(1);
        self
    }

    /// Scale the in-package DRAM's access latency (Figure 8b sweeps 100%,
    /// 66%, 50% of off-package latency).
    pub fn with_dram_cache_latency_scale(mut self, scale: f64) -> Self {
        self.in_dram.latency_scale = scale;
        self
    }

    /// Behavioural revision of the simulator model. **Bump this whenever a
    /// change alters simulation *results* without changing any `SimConfig`
    /// field** (e.g. fixing a design's cost model): it is folded into
    /// [`SimConfig::cache_key_material`], so bumping it invalidates every
    /// persisted result-store entry computed by the old model.
    ///
    /// Revision history:
    /// 1. initial model;
    /// 2. FR-FCFS request-queue DRAM scheduling (write queues, bounded bank
    ///    queues, refresh, page policy) + the honest TDC cost model (in-DRAM
    ///    page map and fill charges).
    pub const MODEL_REVISION: u32 = 2;

    /// A canonical, human-readable description of every input that affects
    /// the simulation outcome, used by result stores to key cached results.
    ///
    /// Built from [`SimConfig::MODEL_REVISION`] plus the derived `Debug`
    /// representation, which covers all fields: any configuration change
    /// (including newly added fields) changes the material, so a stale
    /// cache entry can never be returned for a different configuration —
    /// and code changes that keep the config shape must bump the revision.
    pub fn cache_key_material(&self) -> String {
        format!("model-rev={}|{self:?}", Self::MODEL_REVISION)
    }

    /// Key material for *warmed-state snapshots*: like
    /// [`SimConfig::cache_key_material`] but with the measurement budget
    /// (`total_instructions`) normalised away, because the warmed state at
    /// the end of warm-up is identical for every run that differs only in
    /// how long it measures afterwards. Two configurations share a warmed
    /// image exactly when this string (plus the workload name, appended by
    /// the snapshot layer) is equal.
    pub fn warmup_key_material(&self) -> String {
        let mut normalized = self.clone();
        normalized.total_instructions = 0;
        format!("model-rev={}|warmup|{normalized:?}", Self::MODEL_REVISION)
    }

    /// Apply a scenario file's system-config overrides (see
    /// `banshee_workloads::ScenarioOverrides`) to this configuration.
    ///
    /// `dram_cache_mib` rescales the DRAM cache the same way
    /// [`SimConfig::scaled`] does (capacity and in-package DRAM size), so a
    /// scenario can shrink or grow the whole machine with one knob. When it
    /// or `cores` is set, the SRAM hierarchy is rebuilt with
    /// [`SimConfig::scaled_hierarchy`] for the resulting core count and
    /// capacity. The other overrides set their field directly. Every overridden field is part of the derived `Debug`
    /// representation, so [`SimConfig::cache_key_material`] keys overridden
    /// cells apart from default ones automatically.
    pub fn apply_scenario_overrides(&mut self, o: &banshee_workloads::ScenarioOverrides) {
        if let Some(mib) = o.dram_cache_mib {
            let capacity = MemSize::mib(mib);
            self.dcache = DCacheConfig::scaled(capacity);
            self.in_dram.capacity = capacity;
        }
        if let Some(cores) = o.cores {
            self.cores = cores;
        }
        if o.dram_cache_mib.is_some() || o.cores.is_some() {
            self.hierarchy = Self::scaled_hierarchy(self.cores, self.dcache.capacity);
        }
        if let Some(v) = o.total_instructions {
            self.total_instructions = v;
        }
        if let Some(v) = o.warmup_instructions {
            self.warmup_instructions = v;
        }
        if let Some(v) = o.mlp_per_core {
            self.mlp_per_core = v;
        }
        if let Some(v) = o.bandwidth_ratio {
            *self = self.clone().with_dram_cache_bandwidth_ratio(v);
        }
    }

    /// The Banshee configuration this run will use.
    pub fn banshee_config(&self) -> BansheeConfig {
        let base = self
            .banshee
            .clone()
            .unwrap_or_else(|| BansheeConfig::from_dcache(&self.dcache));
        if self.large_pages {
            base.for_large_pages()
        } else {
            base
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_matches_table2() {
        let c = SimConfig::paper_default(DramCacheDesign::Banshee);
        assert_eq!(c.cores, 16);
        assert_eq!(c.dcache.capacity, MemSize::gib(1));
        assert_eq!(c.in_dram.channels, 4);
        assert_eq!(c.off_dram.channels, 1);
        assert_eq!(c.issue_width, 4);
        assert!((c.pte_update_cost_us - 20.0).abs() < 1e-12);
    }

    #[test]
    fn scaled_keeps_relative_shape() {
        let c = SimConfig::scaled(DramCacheDesign::Banshee, MemSize::mib(32));
        assert_eq!(c.dcache.capacity, MemSize::mib(32));
        assert!(c.hierarchy.llc_size.as_bytes() < c.dcache.capacity.as_bytes());
        assert_eq!(c.dcache.ways, 4);
        assert!(c.total_instructions < 100_000_000);
    }

    #[test]
    fn figure8_knobs() {
        let c = SimConfig::test_default(DramCacheDesign::Banshee)
            .with_dram_cache_bandwidth_ratio(8)
            .with_dram_cache_latency_scale(0.5);
        assert_eq!(c.in_dram.channels, 8);
        assert!((c.in_dram.latency_scale - 0.5).abs() < 1e-12);
    }

    #[test]
    fn cache_key_material_tracks_every_field() {
        let base = SimConfig::test_default(DramCacheDesign::Banshee);
        let mut other_seed = base.clone();
        other_seed.seed += 1;
        let mut other_knob = base.clone();
        other_knob.pte_update_cost_us += 1.0;
        assert_eq!(base.cache_key_material(), base.clone().cache_key_material());
        assert_ne!(base.cache_key_material(), other_seed.cache_key_material());
        assert_ne!(base.cache_key_material(), other_knob.cache_key_material());
        assert_ne!(
            base.cache_key_material(),
            SimConfig::test_default(DramCacheDesign::Tdc).cache_key_material()
        );
    }

    #[test]
    fn warmup_key_material_normalises_only_the_budget() {
        let base = SimConfig::test_default(DramCacheDesign::Banshee);
        let mut longer = base.clone();
        longer.total_instructions *= 2;
        // Different budgets are different result-store cells but share a
        // warmed image.
        assert_ne!(base.cache_key_material(), longer.cache_key_material());
        assert_eq!(base.warmup_key_material(), longer.warmup_key_material());
        // Everything else re-keys the snapshot too.
        let mut other_warmup = base.clone();
        other_warmup.warmup_instructions += 1;
        assert_ne!(
            base.warmup_key_material(),
            other_warmup.warmup_key_material()
        );
        let mut other_seed = base.clone();
        other_seed.seed += 1;
        assert_ne!(base.warmup_key_material(), other_seed.warmup_key_material());
    }

    #[test]
    fn scenario_overrides_apply_and_rekey() {
        use banshee_workloads::ScenarioOverrides;
        let base = SimConfig::test_default(DramCacheDesign::Banshee);
        let mut cfg = base.clone();
        cfg.apply_scenario_overrides(&ScenarioOverrides::default());
        assert_eq!(cfg.cache_key_material(), base.cache_key_material());

        let overrides = ScenarioOverrides {
            cores: Some(8),
            dram_cache_mib: Some(16),
            total_instructions: Some(123_000),
            warmup_instructions: Some(45_000),
            mlp_per_core: Some(4),
            bandwidth_ratio: Some(8),
        };
        cfg.apply_scenario_overrides(&overrides);
        assert_eq!(cfg.cores, 8);
        assert_eq!(cfg.dcache.capacity, MemSize::mib(16));
        assert_eq!(cfg.in_dram.capacity, MemSize::mib(16));
        assert_eq!(cfg.total_instructions, 123_000);
        assert_eq!(cfg.warmup_instructions, 45_000);
        assert_eq!(cfg.mlp_per_core, 4);
        assert_eq!(cfg.in_dram.channels, 8);
        // Overridden cells must never collide with default ones in the
        // result store.
        assert_ne!(cfg.cache_key_material(), base.cache_key_material());
    }

    #[test]
    fn banshee_config_derivation() {
        let mut c = SimConfig::test_default(DramCacheDesign::Banshee);
        assert_eq!(c.banshee_config().capacity, c.dcache.capacity);
        c.large_pages = true;
        assert_eq!(c.banshee_config().page_bytes, 2 * 1024 * 1024);
    }
}
