//! The Banshee memory-controller logic: composition of the PTE/TLB mapping,
//! the tag buffer, the metadata table and the frequency-based replacement
//! engine into a [`DramCacheController`].
//!
//! Per-request behaviour (Table 1, "Banshee" row):
//!
//! * **DRAM cache hit**: 64 B of in-package traffic, latency of a single
//!   DRAM access — the mapping came with the request (from the TLB) or from
//!   the tag buffer, so no tag probe is needed.
//! * **DRAM cache miss**: 64 B from off-package DRAM, again with no
//!   in-package probe.
//! * **Replacement**: only for pages the frequency counters prove hot
//!   (Algorithm 1), costing a page-sized fill plus the victim's dirty lines.
//! * **LLC dirty eviction**: routed by the tag buffer when possible; only a
//!   tag-buffer miss costs a 32 B in-package tag probe (Section 3.3).
//!
//! The same controller, instantiated through [`BansheeVariant`], also
//! provides the two Figure 7 ablations (LRU replacement on every miss, and
//! FBR with unsampled counter updates) and — via
//! [`BansheeConfig::for_large_pages`] — the 2 MiB large-page mode of
//! Section 4.3.

use crate::coherence::LazyCoherence;
use crate::config::BansheeConfig;
use crate::fbr::{FbrDecision, FrequencyReplacement};
use crate::metadata::{MetadataEntry, MetadataTable, CANDIDATES_PER_SET, SET_METADATA_BYTES};
use crate::tag_buffer::{TagBuffer, FLUSH_THRESHOLD, TAG_BUFFER_WAYS};
use banshee_common::persist::{Persist, SnapshotError, SnapshotReader, SnapshotWriter};
use banshee_common::{
    Addr, Cycle, FnvHashMap, FnvHashSet, PageNum, StatSet, TrafficClass, CACHE_LINE_SIZE,
};
use banshee_dcache::{
    DCacheConfig, DemandStats, DramCacheController, DramOp, MemRequest, PlanSink, RequestKind,
};
use banshee_memhier::PteMapInfo;

/// Which flavour of the controller to build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BansheeVariant {
    /// The full design: frequency-based replacement with sampled counters.
    Standard,
    /// Figure 7 ablation: LRU replacement that replaces on every miss
    /// (Unison-like policy on Banshee's tagless substrate, no footprint
    /// cache).
    Lru,
    /// Figure 7 ablation: frequency-based replacement with counters updated
    /// on every access (no sampling), similar to CHOP.
    FbrNoSample,
}

impl BansheeVariant {
    /// Display label matching Figure 7.
    pub fn label(self) -> &'static str {
        match self {
            BansheeVariant::Standard => "Banshee",
            BansheeVariant::Lru => "Banshee LRU",
            BansheeVariant::FbrNoSample => "Banshee FBR no sample",
        }
    }
}

/// Per-resident-page bookkeeping the controller keeps in SRAM-free
/// simulation state (dirty lines and LRU stamps are architecturally part of
/// the in-DRAM metadata; traffic for them is charged where the paper charges
/// it).
#[derive(Debug, Clone, Default)]
struct ResidentPage {
    way: u8,
    dirty_lines: FnvHashSet<u32>,
    last_touch: u64,
}

/// The Banshee DRAM-cache controller.
pub struct BansheeController {
    config: BansheeConfig,
    variant: BansheeVariant,
    metadata: MetadataTable,
    tag_buffers: Vec<TagBuffer>,
    fbr: FrequencyReplacement,
    coherence: LazyCoherence,
    /// Ground truth: caching unit → residency info.
    resident: FnvHashMap<u64, ResidentPage>,
    /// Reverse of `resident` per (set, way) so victims can be located.
    occupancy: FnvHashMap<(u64, u8), u64>,
    demand: DemandStats,
    access_clock: u64,
    // Statistics.
    replacements: u64,
    counter_reads: u64,
    counter_writes: u64,
    tag_probes: u64,
    set_full_flushes: u64,
}

impl BansheeController {
    /// Build the standard controller from a Banshee configuration.
    pub fn new(config: BansheeConfig) -> Self {
        Self::with_variant(config, BansheeVariant::Standard)
    }

    /// Build from the shared DRAM-cache geometry.
    pub fn from_dcache(config: &DCacheConfig) -> Self {
        Self::new(BansheeConfig::from_dcache(config))
    }

    /// Build a specific variant (ablations of Figure 7).
    pub fn with_variant(config: BansheeConfig, variant: BansheeVariant) -> Self {
        let mut fbr = FrequencyReplacement::new(&config);
        if variant == BansheeVariant::FbrNoSample {
            fbr.set_force_sample(true);
        }
        let metadata = MetadataTable::new(config.sets(), config.ways, CANDIDATES_PER_SET);
        let tag_buffers = (0..config.memory_controllers)
            .map(|_| TagBuffer::new(config.tag_buffer_entries, TAG_BUFFER_WAYS, FLUSH_THRESHOLD))
            .collect();
        let coherence = LazyCoherence::new();
        BansheeController {
            variant,
            metadata,
            tag_buffers,
            fbr,
            coherence,
            resident: FnvHashMap::default(),
            occupancy: FnvHashMap::default(),
            demand: DemandStats::new(4096),
            access_clock: 0,
            replacements: 0,
            counter_reads: 0,
            counter_writes: 0,
            tag_probes: 0,
            set_full_flushes: 0,
            config,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &BansheeConfig {
        &self.config
    }

    /// The variant in use.
    pub fn variant(&self) -> BansheeVariant {
        self.variant
    }

    /// Number of pages currently resident in the DRAM cache.
    pub fn resident_pages(&self) -> usize {
        self.resident.len()
    }

    /// Number of tag-buffer flush (coherence) rounds so far.
    pub fn coherence_rounds(&self) -> u64 {
        self.coherence.flushes()
    }

    /// Mean cycles between coherence rounds.
    pub fn mean_flush_interval(&self) -> f64 {
        self.coherence.mean_flush_interval()
    }

    // ---- Address helpers -------------------------------------------------

    /// In-package DRAM address of a resident unit's data at `offset`.
    fn data_addr(&self, set: u64, way: u8, offset: u64) -> Addr {
        Addr::new((set * self.config.ways as u64 + way as u64) * self.config.page_bytes + offset)
    }

    /// In-package DRAM address of a set's metadata record (tag rows live
    /// after the data region, Figure 3).
    fn meta_addr(&self, set: u64) -> Addr {
        let data_region = self.config.capacity.as_bytes();
        Addr::new(data_region + set * SET_METADATA_BYTES)
    }

    fn line_index(&self, addr: Addr) -> u32 {
        (self.config.unit_offset(addr) / CACHE_LINE_SIZE) as u32
    }

    /// The mapping the controller itself knows to be true.
    fn ground_truth(&self, unit: u64) -> PteMapInfo {
        match self.resident.get(&unit) {
            Some(r) => PteMapInfo::cached_in(r.way),
            None => PteMapInfo::NOT_CACHED,
        }
    }

    // ---- Mapping resolution (Section 3.2 / 3.3) --------------------------

    /// Resolve the effective mapping for a request: the tag buffer wins over
    /// the TLB-carried hint; a missing hint (dirty evictions) falls back to a
    /// DRAM tag probe, whose traffic is appended to `plan`.
    fn resolve_mapping(
        &mut self,
        unit: u64,
        hint: Option<PteMapInfo>,
        plan: &mut PlanSink,
    ) -> PteMapInfo {
        let mc = self.config.mc_of(unit);
        if let Some(info) = self.tag_buffers[mc].lookup(PageNum::new(unit)) {
            return info;
        }
        match hint {
            Some(info) => info,
            None => {
                // Tag-buffer miss with no TLB hint: probe the tags stored in
                // the DRAM cache (Section 3.3) and remember the result as a
                // clean tag-buffer entry to spare future probes.
                self.tag_probes += 1;
                let set = self.metadata.set_of(unit);
                plan.background.push(DramOp::in_package(
                    self.meta_addr(set),
                    32,
                    TrafficClass::Tag,
                ));
                let truth = self.ground_truth(unit);
                self.tag_buffers[mc].insert_clean(PageNum::new(unit), truth);
                truth
            }
        }
    }

    // ---- Replacement machinery -------------------------------------------

    /// Record a remapping in the tag buffer, triggering a coherence round if
    /// the buffer filled up.
    fn record_remap(&mut self, unit: u64, info: PteMapInfo, now: Cycle, plan: &mut PlanSink) {
        use crate::tag_buffer::InsertOutcome;
        let mc = self.config.mc_of(unit);
        let outcome = self.tag_buffers[mc].insert_remap(PageNum::new(unit), info);
        let must_flush = match outcome {
            InsertOutcome::Stored => false,
            InsertOutcome::ThresholdReached => true,
            InsertOutcome::SetFull => {
                self.set_full_flushes += 1;
                true
            }
        };
        if must_flush {
            let mut drained = Vec::new();
            for tb in self.tag_buffers.iter_mut() {
                drained.extend(tb.drain());
            }
            if matches!(outcome, InsertOutcome::SetFull) {
                // Retry the insertion now that the set has evictable entries.
                self.tag_buffers[mc].insert_remap(PageNum::new(unit), info);
            }
            for effect in self.coherence.flush(drained, now) {
                plan.side_effects.push(effect);
            }
        }
    }

    /// Move `unit` into the DRAM cache at (set, way), evicting whatever is
    /// there, and charge the replacement traffic (Section 4.2.2).
    fn perform_replacement(
        &mut self,
        unit: u64,
        set: u64,
        way: u8,
        write_line: Option<u32>,
        now: Cycle,
        plan: &mut PlanSink,
    ) {
        self.replacements += 1;

        // Evict the current occupant of (set, way), if any.
        if let Some(victim_unit) = self.occupancy.remove(&(set, way)) {
            if let Some(victim) = self.resident.remove(&victim_unit) {
                let dirty = victim.dirty_lines.len() as u64;
                if dirty > 0 {
                    // Dirty victim lines: read from the cache, write back to
                    // off-package DRAM.
                    plan.background.push(DramOp::in_package(
                        self.data_addr(set, way, 0),
                        dirty * CACHE_LINE_SIZE,
                        TrafficClass::Replacement,
                    ));
                    plan.background.push(DramOp::off_package_write(
                        Addr::new(victim_unit * self.config.page_bytes),
                        dirty * CACHE_LINE_SIZE,
                        TrafficClass::Writeback,
                    ));
                }
            }
            self.record_remap(victim_unit, PteMapInfo::NOT_CACHED, now, plan);
        }

        // Fill the new page: read it from off-package DRAM and write it into
        // the cache (no footprint cache in Banshee — Table 1 charges
        // "32B tag + page size").
        plan.background.push(DramOp::off_package(
            Addr::new(unit * self.config.page_bytes),
            self.config.page_bytes,
            TrafficClass::Replacement,
        ));
        plan.background.push(DramOp::in_package_write(
            self.data_addr(set, way, 0),
            self.config.page_bytes,
            TrafficClass::Replacement,
        ));

        let mut dirty_lines = FnvHashSet::default();
        if let Some(line) = write_line {
            dirty_lines.insert(line);
        }
        self.resident.insert(
            unit,
            ResidentPage {
                way,
                dirty_lines,
                last_touch: self.access_clock,
            },
        );
        self.occupancy.insert((set, way), unit);
        self.record_remap(unit, PteMapInfo::cached_in(way), now, plan);
    }

    /// The frequency-based replacement path shared by the Standard and
    /// FbrNoSample variants.
    fn fbr_step(&mut self, req: &MemRequest, unit: u64, now: Cycle, plan: &mut PlanSink) {
        let set = self.metadata.set_of(unit);
        let recent_miss = self.demand.recent_miss_rate();
        let decision = {
            let set_meta = self.metadata.set_mut(set);
            self.fbr.on_access(set_meta, unit, recent_miss)
        };

        if decision.sampled() {
            // Loading the set's metadata costs one 32 B access; storing it
            // back (when Algorithm 1 stores) costs another.
            self.counter_reads += 1;
            plan.background.push(DramOp::in_package(
                self.meta_addr(set),
                32,
                TrafficClass::Counter,
            ));
            if decision.wrote_metadata() {
                self.counter_writes += 1;
                plan.background.push(DramOp::in_package_write(
                    self.meta_addr(set),
                    32,
                    TrafficClass::Counter,
                ));
            }
        }

        if let FbrDecision::Replace { way, victim } = decision {
            debug_assert_eq!(
                victim,
                self.occupancy.get(&(set, way as u8)).copied(),
                "metadata and residency map disagree about the victim"
            );
            let write_line = if req.write {
                Some(self.line_index(req.addr))
            } else {
                None
            };
            self.perform_replacement(unit, set, way as u8, write_line, now, plan);
        }
    }

    /// The LRU-ablation replacement path: replace on every miss, victim is
    /// the least-recently-touched way of the set (Figure 7, "Banshee LRU").
    fn lru_step(
        &mut self,
        req: &MemRequest,
        unit: u64,
        hit: bool,
        now: Cycle,
        plan: &mut PlanSink,
    ) {
        let set = self.metadata.set_of(unit);
        // LRU metadata read-modify-write on every access (like Unison's LRU
        // bits, charged as tag traffic).
        plan.background.push(DramOp::in_package(
            self.meta_addr(set),
            32,
            TrafficClass::Tag,
        ));
        plan.background.push(DramOp::in_package_write(
            self.meta_addr(set),
            32,
            TrafficClass::Tag,
        ));
        if hit {
            return;
        }
        // Pick the LRU way of this set (free ways first).
        let mut victim_way: Option<u8> = None;
        let mut oldest = u64::MAX;
        for way in 0..self.config.ways as u8 {
            match self.occupancy.get(&(set, way)) {
                None => {
                    victim_way = Some(way);
                    break;
                }
                Some(u) => {
                    let touch = self.resident.get(u).map(|r| r.last_touch).unwrap_or(0);
                    if touch < oldest {
                        oldest = touch;
                        victim_way = Some(way);
                    }
                }
            }
        }
        let way = victim_way.unwrap_or(0);
        let write_line = if req.write {
            Some(self.line_index(req.addr))
        } else {
            None
        };
        // Keep the metadata table coherent with the residency map so that
        // the two views never diverge (it is unused for the LRU policy's
        // decisions but still backs tag probes).
        let set_meta = self.metadata.set_mut(set);
        if let Some(prev) = self.occupancy.get(&(set, way)) {
            if let Some(slot) = set_meta.find_cached(*prev) {
                set_meta.cached[slot] = MetadataEntry::INVALID;
            }
        }
        set_meta.cached[way as usize] = MetadataEntry {
            unit,
            count: 1,
            valid: true,
        };
        self.perform_replacement(unit, set, way, write_line, now, plan);
    }
}

impl DramCacheController for BansheeController {
    fn name(&self) -> &str {
        self.variant.label()
    }

    fn access(&mut self, req: &MemRequest, now: Cycle, sink: &mut PlanSink) {
        self.access_clock += 1;
        let unit = self.config.unit_of(req.addr);
        let line = self.line_index(req.addr);
        let set = self.metadata.set_of(unit);
        let plan = sink;

        // Resolve the mapping: tag buffer > TLB hint > (probe for hint-less
        // requests).
        let mapping = self.resolve_mapping(unit, req.map_hint, plan);
        debug_assert_eq!(
            mapping,
            self.ground_truth(unit),
            "stale mapping escaped the tag buffer for unit {unit}"
        );

        match req.kind {
            RequestKind::DemandMiss => {
                let hit = mapping.cached;
                self.demand.record(hit);

                if hit {
                    let way = mapping.way;
                    if let Some(r) = self.resident.get_mut(&unit) {
                        r.last_touch = self.access_clock;
                        if req.write {
                            r.dirty_lines.insert(line);
                        }
                    }
                    plan.critical.push(DramOp::in_package(
                        self.data_addr(set, way, self.config.unit_offset(req.addr)),
                        64,
                        TrafficClass::HitData,
                    ));
                    plan.dram_cache_hit = true;
                } else {
                    plan.critical
                        .push(DramOp::off_package(req.addr, 64, TrafficClass::MissData));
                    // Remember the page-table mapping in the tag buffer so a
                    // later dirty eviction of this line avoids a tag probe
                    // (Section 3.3).
                    let mc = self.config.mc_of(unit);
                    self.tag_buffers[mc].insert_clean(PageNum::new(unit), mapping);
                }

                // Replacement policy.
                match self.variant {
                    BansheeVariant::Standard | BansheeVariant::FbrNoSample => {
                        self.fbr_step(req, unit, now, plan)
                    }
                    BansheeVariant::Lru => self.lru_step(req, unit, hit, now, plan),
                }
            }
            RequestKind::Writeback => {
                if mapping.cached {
                    let way = mapping.way;
                    if let Some(r) = self.resident.get_mut(&unit) {
                        r.dirty_lines.insert(line);
                    }
                    plan.background.push(DramOp::in_package_write(
                        self.data_addr(set, way, self.config.unit_offset(req.addr)),
                        64,
                        TrafficClass::Writeback,
                    ));
                } else {
                    plan.background.push(DramOp::off_package_write(
                        req.addr,
                        64,
                        TrafficClass::Writeback,
                    ));
                }
            }
        }
    }

    fn current_mapping(&self, page: PageNum) -> PteMapInfo {
        // `page` is the caching unit (4 KiB page number, or 2 MiB unit when
        // configured for large pages).
        self.ground_truth(page.raw())
    }

    fn miss_rate(&self) -> f64 {
        self.demand.miss_rate()
    }

    fn demand_stats(&self) -> (u64, u64) {
        self.demand.totals()
    }

    fn stats(&self) -> StatSet {
        let mut s = StatSet::new();
        s.add("banshee_replacements", self.replacements);
        s.add("banshee_counter_reads", self.counter_reads);
        s.add("banshee_counter_writes", self.counter_writes);
        s.add("banshee_tag_probes", self.tag_probes);
        s.add("banshee_sampled_accesses", self.fbr.sampled_accesses());
        s.add("banshee_counter_halvings", self.fbr.counter_halvings());
        s.add("banshee_tag_buffer_flushes", self.coherence.flushes());
        s.add("banshee_pte_updates", self.coherence.pte_updates());
        s.add("banshee_set_full_flushes", self.set_full_flushes);
        s.add("banshee_resident_pages", self.resident.len() as u64);
        let tb_lookups: u64 = self.tag_buffers.iter().map(|t| t.lookups()).sum();
        let tb_hits: u64 = self.tag_buffers.iter().map(|t| t.hits()).sum();
        s.add("banshee_tag_buffer_lookups", tb_lookups);
        s.add("banshee_tag_buffer_hits", tb_hits);
        s
    }

    fn telemetry_gauges(&self, out: &mut Vec<(&'static str, f64)>) {
        // Point-in-time gauges.
        let n = self.tag_buffers.len().max(1) as f64;
        let occupancy: f64 = self
            .tag_buffers
            .iter()
            .map(|t| t.remap_occupancy())
            .sum::<f64>()
            / n;
        out.push(("tag_buffer_occupancy", occupancy));
        out.push((
            "tag_buffer_remap_entries",
            self.tag_buffers
                .iter()
                .map(|t| t.remap_entries() as f64)
                .sum(),
        ));
        out.push(("fbr_threshold", self.fbr.threshold()));
        out.push(("resident_pages", self.resident.len() as f64));
        out.push(("recent_miss_rate", self.demand.recent_miss_rate()));
        // Cumulative gauges: the series shows when maintenance happened as
        // the sample-to-sample increase.
        out.push((
            "tag_buffer_flushes",
            (self.coherence.flushes() + self.set_full_flushes) as f64,
        ));
        out.push(("fbr_counter_halvings", self.fbr.counter_halvings() as f64));
        out.push(("fbr_sampled_accesses", self.fbr.sampled_accesses() as f64));
        out.push(("replacements", self.replacements as f64));
        out.push(("pte_updates", self.coherence.pte_updates() as f64));
    }

    fn save_state(&self, w: &mut SnapshotWriter) {
        self.metadata.save(w);
        w.seq(self.tag_buffers.iter());
        self.fbr.save(w);
        self.coherence.save(w);
        // `resident` and `occupancy` are only ever probed by key (never
        // iterated), so sorted encodings are canonical; the per-page dirty
        // sets are only counted, so they sort too.
        let mut resident: Vec<(&u64, &ResidentPage)> = self.resident.iter().collect();
        resident.sort_unstable_by_key(|(unit, _)| **unit);
        w.seq_with(&resident, |w, (unit, r)| {
            w.u64(**unit);
            w.u8(r.way);
            w.u64(r.last_touch);
            let mut lines: Vec<u32> = r.dirty_lines.iter().copied().collect();
            lines.sort_unstable();
            w.seq_with(&lines, |w, line| w.u32(*line));
        });
        let mut occupancy: Vec<(&(u64, u8), &u64)> = self.occupancy.iter().collect();
        occupancy.sort_unstable_by_key(|((set, way), _)| (*set, *way));
        w.seq_with(&occupancy, |w, ((set, way), unit)| {
            w.u64(*set);
            w.u8(*way);
            w.u64(**unit);
        });
        self.demand.save(w);
        w.u64(self.access_clock);
        w.u64(self.replacements);
        w.u64(self.counter_reads);
        w.u64(self.counter_writes);
        w.u64(self.tag_probes);
        w.u64(self.set_full_flushes);
    }

    fn load_state(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        let metadata = MetadataTable::restore(r)?;
        if metadata.num_sets() != self.metadata.num_sets() {
            return Err(SnapshotError::Corrupt(format!(
                "banshee image has {} metadata sets, controller has {}",
                metadata.num_sets(),
                self.metadata.num_sets()
            )));
        }
        self.metadata = metadata;
        let tag_buffers: Vec<TagBuffer> = r.seq(64)?;
        if tag_buffers.len() != self.tag_buffers.len() {
            return Err(SnapshotError::Corrupt(format!(
                "banshee image has {} tag buffers, controller has {}",
                tag_buffers.len(),
                self.tag_buffers.len()
            )));
        }
        self.tag_buffers = tag_buffers;
        self.fbr = FrequencyReplacement::restore(r)?;
        self.coherence = LazyCoherence::restore(r)?;
        let resident_len = r.seq_len(25)?;
        self.resident.clear();
        for _ in 0..resident_len {
            let unit = r.u64()?;
            let way = r.u8()?;
            let last_touch = r.u64()?;
            let line_count = r.seq_len(4)?;
            let mut dirty_lines = FnvHashSet::default();
            for _ in 0..line_count {
                dirty_lines.insert(r.u32()?);
            }
            let prev = self.resident.insert(
                unit,
                ResidentPage {
                    way,
                    dirty_lines,
                    last_touch,
                },
            );
            if prev.is_some() {
                return Err(SnapshotError::Corrupt(format!(
                    "duplicate resident unit {unit}"
                )));
            }
        }
        let occupancy_len = r.seq_len(17)?;
        if occupancy_len != resident_len {
            return Err(SnapshotError::Corrupt(format!(
                "banshee occupancy holds {occupancy_len} entries but residency \
                 holds {resident_len}"
            )));
        }
        self.occupancy.clear();
        for _ in 0..occupancy_len {
            let set = r.u64()?;
            let way = r.u8()?;
            let unit = r.u64()?;
            if !self.resident.contains_key(&unit) {
                return Err(SnapshotError::Corrupt(format!(
                    "occupancy references non-resident unit {unit}"
                )));
            }
            if self.occupancy.insert((set, way), unit).is_some() {
                return Err(SnapshotError::Corrupt(format!(
                    "duplicate occupancy entry for set {set} way {way}"
                )));
            }
        }
        self.demand = DemandStats::restore(r)?;
        self.access_clock = r.u64()?;
        self.replacements = r.u64()?;
        self.counter_reads = r.u64()?;
        self.counter_writes = r.u64()?;
        self.tag_probes = r.u64()?;
        self.set_full_flushes = r.u64()?;
        Ok(())
    }
}

impl std::fmt::Debug for BansheeController {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BansheeController")
            .field("variant", &self.variant)
            .field("resident_pages", &self.resident.len())
            .field("replacements", &self.replacements)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use banshee_common::{DramKind, MemSize};

    fn small_config() -> BansheeConfig {
        BansheeConfig {
            capacity: MemSize::kib(64), // 16 pages, 4 sets x 4 ways
            tag_buffer_entries: 64,
            ..BansheeConfig::paper_default()
        }
    }

    /// Drive the controller with TLB hints that mirror what a correct page
    /// table + tag buffer would provide (the simulator does this for real;
    /// tests use ground truth which the tag buffer would correct anyway).
    fn demand(c: &mut BansheeController, addr: Addr, write: bool) -> PlanSink {
        let unit = c.config().unit_of(addr);
        let hint = c.ground_truth(unit);
        let mut req = MemRequest::demand(addr, 0).with_hint(hint);
        if write {
            req = req.as_store();
        }
        c.access_collected(&req, 0)
    }

    #[test]
    fn miss_is_a_single_off_package_access() {
        let mut c = BansheeController::new(small_config());
        let plan = demand(&mut c, Addr::new(0x10_0000), false);
        assert!(!plan.dram_cache_hit);
        assert_eq!(plan.critical.len(), 1);
        assert_eq!(plan.critical[0].dram, DramKind::OffPackage);
        assert_eq!(plan.critical[0].bytes, 64);
        // No in-package probe on the miss path (Table 1: miss traffic 0 B).
        assert_eq!(
            plan.critical
                .iter()
                .filter(|op| op.dram == DramKind::InPackage)
                .count(),
            0
        );
    }

    #[test]
    fn hot_page_gets_cached_and_then_hits_with_64_bytes() {
        let page = PageNum::new(3);
        // Hammer the page; the no-sample variant makes the warm-up
        // deterministic for this unit test.
        let mut c = BansheeController::with_variant(small_config(), BansheeVariant::FbrNoSample);
        for i in 0..64u64 {
            demand(&mut c, page.line_at(i % 64).base_addr(), false);
        }
        assert!(c.resident_pages() >= 1, "hot page never cached");
        let plan = demand(&mut c, page.line_at(0).base_addr(), false);
        assert!(plan.dram_cache_hit);
        assert_eq!(plan.critical.len(), 1);
        assert_eq!(plan.critical[0].dram, DramKind::InPackage);
        assert_eq!(plan.critical[0].bytes, 64);
        let _ = &mut c;
    }

    #[test]
    fn replacement_charges_page_fill_traffic() {
        let mut c = BansheeController::with_variant(small_config(), BansheeVariant::FbrNoSample);
        let page = PageNum::new(5);
        let mut total_replacement = 0u64;
        for i in 0..16u64 {
            let plan = demand(&mut c, page.line_at(i).base_addr(), false);
            total_replacement += plan.bytes_of_class(TrafficClass::Replacement);
        }
        // Exactly one promotion of this page: 4 KiB read + 4 KiB write.
        assert_eq!(total_replacement, 2 * 4096);
    }

    #[test]
    fn cold_pages_are_never_cached() {
        // A pure streaming pattern (each page touched once) must not trigger
        // replacements: the candidate counters never clear the threshold.
        let mut c = BansheeController::with_variant(small_config(), BansheeVariant::FbrNoSample);
        for i in 0..2000u64 {
            demand(&mut c, Addr::new(i * 4096), false);
        }
        assert_eq!(
            c.resident_pages(),
            0,
            "streaming pages should not enter the cache"
        );
        assert_eq!(c.stats().get("banshee_replacements"), 0);
    }

    #[test]
    fn lru_variant_replaces_on_every_miss() {
        let mut c = BansheeController::with_variant(small_config(), BansheeVariant::Lru);
        let mut replacement_bytes = 0u64;
        for i in 0..8u64 {
            let plan = demand(&mut c, Addr::new(i * 4096 * 4), false);
            replacement_bytes += plan.bytes_of_class(TrafficClass::Replacement);
        }
        // Every miss fills a page: 8 misses × (4 KiB read + 4 KiB write).
        assert_eq!(replacement_bytes, 8 * 2 * 4096);
        assert!(c.resident_pages() > 0);
    }

    #[test]
    fn writeback_with_tag_buffer_hit_needs_no_probe() {
        let mut c = BansheeController::with_variant(small_config(), BansheeVariant::FbrNoSample);
        let page = PageNum::new(2);
        // Make the page resident (its remap entry now sits in the tag buffer).
        for i in 0..64u64 {
            demand(&mut c, page.line_at(i % 64).base_addr(), false);
        }
        assert!(c.resident_pages() >= 1);
        let wb = c.access_collected(&MemRequest::writeback(page.line_at(3).base_addr(), 0), 0);
        assert_eq!(wb.bytes_of_class(TrafficClass::Tag), 0, "no probe expected");
        assert_eq!(wb.bytes_on(DramKind::InPackage), 64);
    }

    #[test]
    fn writeback_without_mapping_probes_once_then_caches_the_answer() {
        let mut c = BansheeController::new(small_config());
        let addr = Addr::new(0x42_0000);
        let first = c.access_collected(&MemRequest::writeback(addr, 0), 0);
        assert_eq!(first.bytes_of_class(TrafficClass::Tag), 32);
        assert_eq!(first.bytes_on(DramKind::OffPackage), 64);
        // The probe result was remembered as a clean tag-buffer entry.
        let second = c.access_collected(&MemRequest::writeback(addr, 0), 0);
        assert_eq!(second.bytes_of_class(TrafficClass::Tag), 0);
        assert_eq!(c.stats().get("banshee_tag_probes"), 1);
    }

    #[test]
    fn dirty_victim_lines_are_written_back_on_eviction() {
        // 1 set x 4 ways configuration so pages conflict quickly.
        let cfg = BansheeConfig {
            capacity: MemSize::kib(16), // 4 pages, 1 set
            tag_buffer_entries: 64,
            ..BansheeConfig::paper_default()
        };
        let mut c = BansheeController::with_variant(cfg, BansheeVariant::FbrNoSample);
        // Make 4 pages resident, writing one line in each after it has been
        // promoted (the promotion happens on the second touch).
        for p in 0..4u64 {
            let page = PageNum::new(p);
            for i in 0..64u64 {
                demand(&mut c, page.line_at(i).base_addr(), i == 5);
            }
        }
        assert_eq!(c.resident_pages(), 4);
        // Now make a 5th page hot enough to force an eviction.
        let mut writeback = 0u64;
        let new_page = PageNum::new(9);
        for round in 0..40u64 {
            let plan = demand(&mut c, new_page.line_at(round % 64).base_addr(), false);
            writeback += plan.bytes_of_class(TrafficClass::Writeback);
        }
        assert!(
            writeback >= 64,
            "evicting a dirty page must write its dirty lines back"
        );
    }

    #[test]
    fn tag_buffer_fill_triggers_coherence_round() {
        // Tiny tag buffer so it fills quickly under heavy remapping.
        let cfg = BansheeConfig {
            capacity: MemSize::mib(1),
            tag_buffer_entries: 16,
            memory_controllers: 1,
            ..BansheeConfig::paper_default()
        };
        let mut c = BansheeController::with_variant(cfg, BansheeVariant::Lru);
        let mut saw_update = false;
        let mut saw_shootdown = false;
        for i in 0..2000u64 {
            let plan = demand(&mut c, Addr::new(i * 4096), false);
            for e in &plan.side_effects {
                match e {
                    banshee_dcache::SideEffect::UpdatePageTable { updates } => {
                        saw_update = true;
                        assert!(!updates.is_empty());
                    }
                    banshee_dcache::SideEffect::TlbShootdown => saw_shootdown = true,
                    _ => {}
                }
            }
        }
        assert!(
            saw_update && saw_shootdown,
            "coherence round never happened"
        );
        assert!(c.coherence_rounds() >= 1);
        assert!(c.stats().get("banshee_pte_updates") > 0);
    }

    #[test]
    fn current_mapping_reflects_residency() {
        let mut c = BansheeController::with_variant(small_config(), BansheeVariant::FbrNoSample);
        let page = PageNum::new(6);
        assert_eq!(c.current_mapping(page), PteMapInfo::NOT_CACHED);
        for i in 0..64u64 {
            demand(&mut c, page.line_at(i).base_addr(), false);
        }
        assert!(c.current_mapping(page).cached);
    }

    #[test]
    fn sampling_reduces_counter_traffic() {
        let run = |variant: BansheeVariant| -> (u64, u64) {
            let mut c = BansheeController::with_variant(small_config(), variant);
            let mut counter_bytes = 0u64;
            for i in 0..20_000u64 {
                // A mix of a few hot pages (so there are hits) and a tail.
                let page = if i % 4 == 0 { i % 8 } else { i % 512 };
                let plan = demand(&mut c, Addr::new(page * 4096 + (i % 64) * 64), false);
                counter_bytes += plan.bytes_of_class(TrafficClass::Counter);
            }
            (counter_bytes, c.stats().get("banshee_sampled_accesses"))
        };
        let (sampled_bytes, sampled_count) = run(BansheeVariant::Standard);
        let (unsampled_bytes, unsampled_count) = run(BansheeVariant::FbrNoSample);
        assert!(
            sampled_bytes * 3 < unsampled_bytes,
            "sampling should cut counter traffic: {sampled_bytes} vs {unsampled_bytes}"
        );
        assert!(sampled_count < unsampled_count);
    }

    #[test]
    fn large_page_mode_caches_2mb_units() {
        let cfg = BansheeConfig {
            capacity: MemSize::mib(8), // 4 large pages
            tag_buffer_entries: 64,
            ..BansheeConfig::paper_default()
        }
        .for_large_pages();
        assert_eq!(cfg.capacity_pages(), 4);
        let mut c = BansheeController::with_variant(cfg, BansheeVariant::FbrNoSample);
        // Touch many 4 KiB pages inside one 2 MiB unit; they all belong to
        // the same caching unit.
        let base = 5u64 * 2 * 1024 * 1024;
        let mut replacement = 0u64;
        for i in 0..200u64 {
            let plan = demand(&mut c, Addr::new(base + i * 4096), false);
            replacement += plan.bytes_of_class(TrafficClass::Replacement);
        }
        assert!(c.resident_pages() <= 1);
        if c.resident_pages() == 1 {
            // One promotion of a 2 MiB unit: 2 MiB read + 2 MiB write.
            assert_eq!(replacement, 2 * 2 * 1024 * 1024);
        }
    }
}
