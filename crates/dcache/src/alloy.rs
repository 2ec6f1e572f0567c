//! Alloy Cache: direct-mapped, cacheline-granularity, tags stored in the
//! in-package DRAM alongside the data (Qureshi & Loh, MICRO 2012), with the
//! BEAR bandwidth optimizations (Chou et al., ISCA 2015).
//!
//! Behaviour reproduced from the paper's Table 1 and Section 5.1.1:
//!
//! * **Hit**: one DRAM-cache access streams the tag-and-data (TAD) unit —
//!   96 B of in-package traffic (64 B data + 32 B tag), latency ≈ one DRAM
//!   access.
//! * **Miss**: the TAD probe still costs 96 B (the data half is the
//!   speculative load), then the demand line is fetched from off-package
//!   DRAM — latency ≈ 2× a DRAM access. The parallel off-package probe
//!   optimization of the original paper is disabled, as in the Banshee
//!   paper's methodology (it hurts when off-package bandwidth is scarce).
//! * **Fill (stochastic replacement from BEAR)**: the missed line is
//!   installed only with probability `fill_probability` (1.0 = "Alloy 1",
//!   0.1 = "Alloy 0.1"), costing 96 B of in-package replacement traffic
//!   (64 B data + 32 B tag) plus a 64 B off-package writeback if the victim
//!   was dirty.
//! * **LLC dirty eviction**: with BEAR's bandwidth-efficient writeback probe
//!   the controller knows whether the line is present; a hit writes
//!   64 B + 32 B tag in-package, a miss writes 64 B off-package.

use crate::controller::{DemandStats, DramCacheController};
use crate::design::DCacheConfig;
use crate::plan::{DramOp, MemRequest, PlanSink, RequestKind};
use banshee_common::persist::{Persist, SnapshotError, SnapshotReader, SnapshotWriter};
use banshee_common::{Addr, Cycle, FastDivMod, LineAddr, StatSet, TrafficClass, XorShiftRng};

/// The controller's event counters, reported by [`DramCacheController::stats`]
/// under the names [`Counters::named_mut`] gives them.
#[derive(Debug, Clone, Copy, Default)]
struct Counters {
    hits: u64,
    misses: u64,
    fills: u64,
    dirty_victim_writebacks: u64,
    writeback_hits: u64,
    writeback_misses: u64,
}

impl Counters {
    /// Every counter with its stat name, sorted by name.
    fn named_mut(&mut self) -> [(&'static str, &mut u64); 6] {
        [
            (
                "alloy_dirty_victim_writebacks",
                &mut self.dirty_victim_writebacks,
            ),
            ("alloy_fills", &mut self.fills),
            ("alloy_hits", &mut self.hits),
            ("alloy_misses", &mut self.misses),
            ("alloy_writeback_hits", &mut self.writeback_hits),
            ("alloy_writeback_misses", &mut self.writeback_misses),
        ]
    }

    /// Every counter's value with its stat name, sorted by name.
    fn named(mut self) -> [(&'static str, u64); 6] {
        self.named_mut().map(|(name, value)| (name, *value))
    }
}

/// Per-slot state of the direct-mapped cache.
#[derive(Debug, Clone, Copy, Default)]
struct Slot {
    valid: bool,
    dirty: bool,
    tag: u64,
}

/// The Alloy Cache controller.
#[derive(Debug)]
pub struct AlloyCache {
    /// One slot per cache line the in-package DRAM can hold.
    slots: Vec<Slot>,
    slot_div: FastDivMod,
    /// Probability that a miss installs the line (BEAR stochastic fill).
    fill_probability: f64,
    demand: DemandStats,
    rng: XorShiftRng,
    counters: Counters,
    name: String,
}

impl AlloyCache {
    /// Build an Alloy Cache over the given geometry. The cache is
    /// direct-mapped over `config.capacity_lines()` line slots; the paper's
    /// TAD layout means each slot actually occupies 72 B of DRAM, but the
    /// capacity difference is immaterial to the traffic/latency behaviour
    /// being modelled, so we keep the nominal line count.
    pub fn new(config: &DCacheConfig, fill_probability: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&fill_probability),
            "fill probability must be in [0, 1]"
        );
        let line_slots = config.capacity_lines().max(1) as usize;
        let name = if (fill_probability - 1.0).abs() < 1e-9 {
            "Alloy 1".to_string()
        } else {
            format!("Alloy {fill_probability}")
        };
        AlloyCache {
            slots: vec![Slot::default(); line_slots],
            slot_div: FastDivMod::new(line_slots as u64),
            fill_probability,
            demand: DemandStats::new(4096),
            rng: XorShiftRng::new(0xA110),
            counters: Counters::default(),
            name,
        }
    }

    #[inline]
    fn slot_index(&self, line: LineAddr) -> usize {
        self.slot_div.rem(line.raw()) as usize
    }

    #[inline]
    fn tag_of(&self, line: LineAddr) -> u64 {
        self.slot_div.div(line.raw())
    }

    /// Reconstruct the line address currently held in a slot.
    fn resident_line(&self, idx: usize) -> LineAddr {
        LineAddr::new(self.slots[idx].tag * self.slots.len() as u64 + idx as u64)
    }

    /// The in-package DRAM address of a slot's TAD unit. Slots are laid out
    /// contiguously so that consecutive lines land in the same DRAM row.
    fn slot_addr(&self, idx: usize) -> Addr {
        Addr::new(idx as u64 * 72)
    }
}

impl DramCacheController for AlloyCache {
    fn name(&self) -> &str {
        &self.name
    }

    fn access(&mut self, req: &MemRequest, _now: Cycle, sink: &mut PlanSink) {
        let line = req.addr.line();
        let idx = self.slot_index(line);
        let tag = self.tag_of(line);
        let tad_addr = self.slot_addr(idx);
        let hit = self.slots[idx].valid && self.slots[idx].tag == tag;

        match req.kind {
            RequestKind::DemandMiss => {
                self.demand.record(hit);
                if hit {
                    self.counters.hits += 1;
                    if req.write {
                        self.slots[idx].dirty = true;
                    }
                    // One TAD stream: 64 B data + 32 B tag.
                    sink.then(DramOp::in_package(tad_addr, 64, TrafficClass::HitData))
                        .then(DramOp::in_package(tad_addr, 32, TrafficClass::Tag))
                        .hit();
                    return;
                }

                self.counters.misses += 1;
                // Speculative TAD read (wasted data half) then off-package fetch.
                sink.then(DramOp::in_package(tad_addr, 64, TrafficClass::MissData))
                    .then(DramOp::in_package(tad_addr, 32, TrafficClass::Tag))
                    .then(DramOp::off_package(req.addr, 64, TrafficClass::MissData));

                // Stochastic fill (BEAR).
                if self.rng.chance(self.fill_probability) {
                    self.counters.fills += 1;
                    let victim = self.slots[idx];
                    if victim.valid && victim.dirty {
                        self.counters.dirty_victim_writebacks += 1;
                        let victim_line = self.resident_line(idx);
                        sink.also(DramOp::off_package_write(
                            victim_line.base_addr(),
                            64,
                            TrafficClass::Writeback,
                        ));
                    }
                    self.slots[idx] = Slot {
                        valid: true,
                        dirty: req.write,
                        tag,
                    };
                    // Fill writes the new TAD unit: 64 B data + 32 B tag.
                    sink.also(DramOp::in_package_write(
                        tad_addr,
                        64,
                        TrafficClass::Replacement,
                    ))
                    .also(DramOp::in_package_write(
                        tad_addr,
                        32,
                        TrafficClass::Replacement,
                    ));
                }
            }
            RequestKind::Writeback => {
                if hit {
                    self.counters.writeback_hits += 1;
                    self.slots[idx].dirty = true;
                    sink.also(DramOp::in_package_write(
                        tad_addr,
                        64,
                        TrafficClass::Writeback,
                    ))
                    .also(DramOp::in_package_write(
                        tad_addr,
                        32,
                        TrafficClass::Tag,
                    ));
                } else {
                    self.counters.writeback_misses += 1;
                    sink.also(DramOp::off_package_write(
                        req.addr,
                        64,
                        TrafficClass::Writeback,
                    ));
                }
            }
        }
    }

    fn demand_stats(&self) -> (u64, u64) {
        self.demand.totals()
    }

    fn stats(&self) -> StatSet {
        let mut s = StatSet::new();
        for (name, value) in self.counters.named() {
            if value > 0 {
                s.add(name, value);
            }
        }
        s
    }

    fn telemetry_gauges(&self, out: &mut Vec<(&'static str, f64)>) {
        out.push(("recent_miss_rate", self.demand.recent_miss_rate()));
        out.push(("fill_probability", self.fill_probability));
    }

    fn save_state(&self, w: &mut SnapshotWriter) {
        w.usize(self.slots.len());
        w.seq_with(&self.slots, |w, s| {
            w.bool(s.valid);
            w.bool(s.dirty);
            w.u64(s.tag);
        });
        self.demand.save(w);
        self.rng.save(w);
        // The counters that have counted anything, sorted by name: the
        // encoding the name-keyed map they replace had.
        let counted: Vec<(&str, u64)> = self
            .counters
            .named()
            .into_iter()
            .filter(|&(_, value)| value > 0)
            .collect();
        w.seq_with(&counted, |w, (name, value)| {
            w.str(name);
            w.u64(*value);
        });
    }

    fn load_state(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        let slot_count = r.usize()?;
        if slot_count != self.slots.len() {
            return Err(SnapshotError::Corrupt(format!(
                "alloy image has {slot_count} slots, controller has {}",
                self.slots.len()
            )));
        }
        let len = r.seq_len(10)?;
        if len != slot_count {
            return Err(SnapshotError::Corrupt(format!(
                "alloy slot sequence length {len} != declared {slot_count}"
            )));
        }
        for i in 0..len {
            self.slots[i] = Slot {
                valid: r.bool()?,
                dirty: r.bool()?,
                tag: r.u64()?,
            };
        }
        self.demand = DemandStats::restore(r)?;
        self.rng = XorShiftRng::restore(r)?;
        let mut counters = Counters::default();
        let mut seen = Vec::new();
        let stats_len = r.seq_len(10)?;
        for _ in 0..stats_len {
            let key = r.string()?;
            let value = r.u64()?;
            let (_, counter) = counters
                .named_mut()
                .into_iter()
                .find(|(name, _)| *name == key)
                .ok_or_else(|| {
                    SnapshotError::Corrupt(format!("unknown alloy stat counter {key:?}"))
                })?;
            *counter = value;
            if seen.contains(&key) {
                return Err(SnapshotError::Corrupt(format!(
                    "duplicate alloy stat counter {key:?}"
                )));
            }
            seen.push(key);
        }
        self.counters = counters;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use banshee_common::{DramKind, MemSize};

    fn small_config() -> DCacheConfig {
        DCacheConfig::scaled(MemSize::kib(64)) // 1024 line slots
    }

    #[test]
    fn miss_then_hit_traffic_matches_table1() {
        let mut c = AlloyCache::new(&small_config(), 1.0);
        let addr = Addr::new(0x10_0000);
        // First access misses: 96 B in-package probe + 64 B off-package +
        // 96 B fill.
        let miss = c.access_collected(&MemRequest::demand(addr, 0), 0);
        assert!(!miss.dram_cache_hit);
        assert_eq!(miss.bytes_on(DramKind::InPackage), 96 + 96);
        assert_eq!(miss.bytes_on(DramKind::OffPackage), 64);
        // Second access hits: exactly 96 B in-package, nothing off-package.
        let hit = c.access_collected(&MemRequest::demand(addr, 0), 0);
        assert!(hit.dram_cache_hit);
        assert_eq!(hit.bytes_on(DramKind::InPackage), 96);
        assert_eq!(hit.bytes_on(DramKind::OffPackage), 0);
        assert_eq!(hit.critical.len(), 2);
    }

    #[test]
    fn stochastic_fill_skips_most_fills() {
        let cfg = small_config();
        let mut c = AlloyCache::new(&cfg, 0.1);
        // Stream many distinct lines that all miss.
        let mut fills = 0u64;
        let n = 5000u64;
        for i in 0..n {
            let addr = Addr::new(i * 64 + (1 << 30));
            let plan = c.access_collected(&MemRequest::demand(addr, 0), 0);
            if plan.bytes_of_class(TrafficClass::Replacement) > 0 {
                fills += 1;
            }
        }
        let fill_rate = fills as f64 / n as f64;
        assert!(
            (0.05..0.2).contains(&fill_rate),
            "expected ~10% fills, got {fill_rate}"
        );
    }

    #[test]
    fn always_fill_evicts_conflicting_line() {
        let cfg = small_config();
        let mut c = AlloyCache::new(&cfg, 1.0);
        let lines = cfg.capacity_lines();
        let a = Addr::new(0);
        let conflicting = Addr::new(lines * 64); // maps to the same slot
        c.access_collected(&MemRequest::demand(a, 0).as_store(), 0);
        assert_eq!(c.miss_rate(), 1.0);
        // The conflicting fill must write back the dirty victim off-package.
        let plan = c.access_collected(&MemRequest::demand(conflicting, 0), 0);
        assert_eq!(plan.bytes_of_class(TrafficClass::Writeback), 64);
        // And the original line is gone.
        let again = c.access_collected(&MemRequest::demand(a, 0), 0);
        assert!(!again.dram_cache_hit);
    }

    #[test]
    fn writeback_routing_depends_on_presence() {
        let cfg = small_config();
        let mut c = AlloyCache::new(&cfg, 1.0);
        let cached = Addr::new(0x4000);
        c.access_collected(&MemRequest::demand(cached, 0), 0);
        let wb_hit = c.access_collected(&MemRequest::writeback(cached, 0), 0);
        assert_eq!(wb_hit.bytes_on(DramKind::InPackage), 96);
        assert_eq!(wb_hit.bytes_on(DramKind::OffPackage), 0);

        let uncached = Addr::new(0x900_0000);
        let wb_miss = c.access_collected(&MemRequest::writeback(uncached, 0), 0);
        assert_eq!(wb_miss.bytes_on(DramKind::InPackage), 0);
        assert_eq!(wb_miss.bytes_on(DramKind::OffPackage), 64);
        // Writebacks never appear on the critical path.
        assert!(wb_hit.critical.is_empty() && wb_miss.critical.is_empty());
    }

    #[test]
    fn dirty_writeback_then_eviction_preserves_data() {
        let cfg = small_config();
        let mut c = AlloyCache::new(&cfg, 1.0);
        let lines = cfg.capacity_lines();
        let a = Addr::new(64);
        c.access_collected(&MemRequest::demand(a, 0), 0);
        c.access_collected(&MemRequest::writeback(a, 0), 0); // marks dirty
        let conflicting = Addr::new(lines * 64 + 64);
        let plan = c.access_collected(&MemRequest::demand(conflicting, 0), 0);
        assert_eq!(
            plan.bytes_of_class(TrafficClass::Writeback),
            64,
            "dirty victim must be written back"
        );
    }

    /// `stats()` lists only the counters that counted, and an image holds
    /// them sorted by name; a restore reads them back, and rejects unknown
    /// or repeated names.
    #[test]
    fn counters_report_and_persist_only_what_counted() {
        use banshee_common::SnapshotWriter;
        let mut c = AlloyCache::new(&small_config(), 1.0);
        let a = Addr::new(0x40);
        c.access_collected(&MemRequest::demand(a, 0), 0);
        c.access_collected(&MemRequest::demand(a, 0), 0);
        c.access_collected(&MemRequest::writeback(a, 0), 0);
        let stats: Vec<(String, u64)> = c.stats().iter().map(|(k, v)| (k.to_string(), v)).collect();
        let expected = [
            ("alloy_fills", 1),
            ("alloy_hits", 1),
            ("alloy_misses", 1),
            ("alloy_writeback_hits", 1),
        ];
        assert_eq!(stats, expected.map(|(k, v)| (k.to_string(), v)).to_vec());
        let save = |c: &AlloyCache| {
            let mut w = SnapshotWriter::new();
            c.save_state(&mut w);
            w.into_bytes()
        };
        let bytes = save(&c);
        // The image ends with the counted names, sorted, and their values.
        let counters = |entries: &[(&str, u64)]| {
            let mut w = SnapshotWriter::new();
            w.usize(entries.len());
            for (k, v) in entries {
                w.str(k);
                w.u64(*v);
            }
            w.into_bytes()
        };
        let tail = counters(&expected);
        assert!(bytes.ends_with(&tail));
        let mut back = AlloyCache::new(&small_config(), 1.0);
        back.load_state(&mut SnapshotReader::new(&bytes)).unwrap();
        assert_eq!(save(&back), bytes);
        let head = &bytes[..bytes.len() - tail.len()];
        for bad in [
            &[("alloy_xits", 1)][..],
            &[("alloy_hits", 1), ("alloy_hits", 2)][..],
        ] {
            let corrupt = [head, &counters(bad)].concat();
            let mut fresh = AlloyCache::new(&small_config(), 1.0);
            assert!(fresh
                .load_state(&mut SnapshotReader::new(&corrupt))
                .is_err());
        }
    }

    #[test]
    #[should_panic]
    fn invalid_fill_probability_rejected() {
        let _ = AlloyCache::new(&small_config(), 1.5);
    }
}
