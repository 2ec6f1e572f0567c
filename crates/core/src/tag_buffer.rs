//! The Tag Buffer (Section 3.3, Figure 2): a small set-associative SRAM
//! structure in each memory controller that holds the mapping information of
//! recently remapped pages that is not yet reflected in the page tables.
//!
//! Entry format (Figure 2): physical address (tag), cached bit, way bits,
//! valid bit, remap bit.
//!
//! Invariants maintained here, straight from the paper:
//!
//! * Entries with `remap = 1` hold mappings the page table does **not** know
//!   about yet; they may never be evicted — only a software flush (which
//!   pushes them to the PTEs and clears the remap bit) releases them.
//! * Entries with `remap = 0` duplicate what the page table already says.
//!   They exist only to spare DRAM tag probes for LLC dirty evictions and are
//!   evicted with LRU (the "LRU among entries with remap unset" policy).
//! * When the fraction of remap entries reaches the flush threshold (70% in
//!   Table 3), hardware raises the "tag buffer full" interrupt — surfaced to
//!   the caller through [`TagBuffer::needs_flush`] or the
//!   [`InsertOutcome::ThresholdReached`] return value.

use banshee_common::persist::{Persist, SnapshotError, SnapshotReader, SnapshotWriter};
use banshee_common::{FastDivMod, PageNum};
use banshee_memhier::PteMapInfo;

/// Tag buffer associativity (8, Table 3).
pub const TAG_BUFFER_WAYS: usize = 8;

/// Fraction of a tag buffer's entries holding remap entries at which the
/// software update is triggered (0.7, Table 3).
pub const FLUSH_THRESHOLD: f64 = 0.7;

/// One tag buffer entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TagBufferEntry {
    /// Physical page this entry describes.
    pub page: PageNum,
    /// The up-to-date DRAM-cache mapping for the page.
    pub info: PteMapInfo,
    /// Whether this mapping still needs to be pushed to the page table.
    pub remap: bool,
}

#[derive(Debug, Clone, Copy)]
struct Slot {
    valid: bool,
    remap: bool,
    page: PageNum,
    info: PteMapInfo,
    touched: u64,
}

impl Default for Slot {
    fn default() -> Self {
        Slot {
            valid: false,
            remap: false,
            page: PageNum::new(0),
            info: PteMapInfo::NOT_CACHED,
            touched: 0,
        }
    }
}

/// What happened when inserting a remap entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InsertOutcome {
    /// The entry was stored and the buffer is still below its flush
    /// threshold.
    Stored,
    /// The entry was stored and the remap occupancy has now reached the
    /// flush threshold — software should drain the buffer soon.
    ThresholdReached,
    /// The entry could not be stored because its set is full of
    /// not-yet-flushed remap entries; the caller must flush immediately and
    /// retry (hardware would stall replacement until the flush completes).
    SetFull,
}

/// The per-memory-controller tag buffer.
#[derive(Debug, Clone)]
pub struct TagBuffer {
    sets: Vec<Vec<Slot>>,
    ways: usize,
    set_div: FastDivMod,
    flush_threshold: f64,
    clock: u64,
    remap_entries: usize,
    lookups: u64,
    hits: u64,
    flushes: u64,
}

impl TagBuffer {
    /// Build a tag buffer with `entries` total entries, `ways` associativity
    /// and the given remap-occupancy flush threshold (the controller passes
    /// [`TAG_BUFFER_WAYS`] and [`FLUSH_THRESHOLD`]).
    pub fn new(entries: usize, ways: usize, flush_threshold: f64) -> Self {
        assert!(entries > 0 && ways > 0, "tag buffer must have capacity");
        assert!(
            entries.is_multiple_of(ways),
            "entry count must be a multiple of associativity"
        );
        assert!(
            (0.0..=1.0).contains(&flush_threshold),
            "flush threshold must be a fraction"
        );
        TagBuffer {
            sets: vec![vec![Slot::default(); ways]; entries / ways],
            ways,
            set_div: FastDivMod::new((entries / ways) as u64),
            flush_threshold,
            clock: 0,
            remap_entries: 0,
            lookups: 0,
            hits: 0,
            flushes: 0,
        }
    }

    /// Total entry capacity.
    pub fn capacity(&self) -> usize {
        self.sets.len() * self.ways
    }

    /// Number of valid entries whose mapping has not yet been pushed to the
    /// page table.
    pub fn remap_entries(&self) -> usize {
        self.remap_entries
    }

    /// Fraction of capacity occupied by remap entries.
    pub fn remap_occupancy(&self) -> f64 {
        self.remap_entries as f64 / self.capacity() as f64
    }

    /// Whether the remap occupancy has reached the flush threshold.
    pub fn needs_flush(&self) -> bool {
        self.remap_occupancy() >= self.flush_threshold
    }

    /// Lookups performed (for statistics).
    pub fn lookups(&self) -> u64 {
        self.lookups
    }

    /// Lookup hits (for statistics).
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Number of drains performed.
    pub fn flushes(&self) -> u64 {
        self.flushes
    }

    #[inline]
    fn set_index(&self, page: PageNum) -> usize {
        // Mix the page number so that consecutive pages spread over sets.
        let mut x = page.raw().wrapping_mul(0x9E37_79B9_7F4A_7C15);
        x ^= x >> 32;
        self.set_div.rem(x) as usize
    }

    /// Look up the up-to-date mapping for `page`. A hit means the request's
    /// TLB-carried mapping must be ignored in favour of this one; a miss
    /// means the TLB-carried mapping is already up to date (Section 3.2).
    pub fn lookup(&mut self, page: PageNum) -> Option<PteMapInfo> {
        self.lookups += 1;
        self.clock += 1;
        let set = self.set_index(page);
        let clock = self.clock;
        if let Some(slot) = self.sets[set]
            .iter_mut()
            .find(|s| s.valid && s.page == page)
        {
            slot.touched = clock;
            self.hits += 1;
            Some(slot.info)
        } else {
            None
        }
    }

    /// Record a page remapping (insertion into or eviction from the DRAM
    /// cache). The entry is marked `remap = 1` and cannot be evicted until
    /// the buffer is drained.
    pub fn insert_remap(&mut self, page: PageNum, info: PteMapInfo) -> InsertOutcome {
        self.clock += 1;
        let set = self.set_index(page);
        let clock = self.clock;

        // Update in place if the page is already present.
        if let Some(slot) = self.sets[set]
            .iter_mut()
            .find(|s| s.valid && s.page == page)
        {
            if !slot.remap {
                self.remap_entries += 1;
            }
            slot.info = info;
            slot.remap = true;
            slot.touched = clock;
            return self.post_insert_outcome();
        }

        // Otherwise allocate: prefer an invalid slot, then the LRU among
        // non-remap entries. Remap entries are never victims.
        let victim = {
            let set_slots = &self.sets[set];
            set_slots.iter().position(|s| !s.valid).or_else(|| {
                set_slots
                    .iter()
                    .enumerate()
                    .filter(|(_, s)| !s.remap)
                    .min_by_key(|(_, s)| s.touched)
                    .map(|(i, _)| i)
            })
        };
        let Some(victim) = victim else {
            return InsertOutcome::SetFull;
        };
        self.sets[set][victim] = Slot {
            valid: true,
            remap: true,
            page,
            info,
            touched: clock,
        };
        self.remap_entries += 1;
        self.post_insert_outcome()
    }

    fn post_insert_outcome(&self) -> InsertOutcome {
        if self.needs_flush() {
            InsertOutcome::ThresholdReached
        } else {
            InsertOutcome::Stored
        }
    }

    /// Record a mapping that matches the page table (remap = 0). Used for
    /// pages whose lines live in the LLC, so that their eventual dirty
    /// evictions do not need a DRAM tag probe (Section 3.3). Such entries are
    /// freely evictable; if the set has no evictable slot the insert is
    /// silently dropped.
    pub fn insert_clean(&mut self, page: PageNum, info: PteMapInfo) {
        self.clock += 1;
        let set = self.set_index(page);
        let clock = self.clock;
        if let Some(slot) = self.sets[set]
            .iter_mut()
            .find(|s| s.valid && s.page == page)
        {
            // Never downgrade a remap entry: it carries newer information.
            if !slot.remap {
                slot.info = info;
                slot.touched = clock;
            }
            return;
        }
        let victim = {
            let set_slots = &self.sets[set];
            set_slots.iter().position(|s| !s.valid).or_else(|| {
                set_slots
                    .iter()
                    .enumerate()
                    .filter(|(_, s)| !s.remap)
                    .min_by_key(|(_, s)| s.touched)
                    .map(|(i, _)| i)
            })
        };
        if let Some(victim) = victim {
            self.sets[set][victim] = Slot {
                valid: true,
                remap: false,
                page,
                info,
                touched: clock,
            };
        }
    }

    /// Drain the buffer for a software flush: returns every remap entry (so
    /// the caller can update the PTEs through the reverse map) and clears
    /// their remap bits. The entries themselves stay resident to keep
    /// helping dirty-eviction routing (Section 3.4).
    pub fn drain(&mut self) -> Vec<TagBufferEntry> {
        let mut drained = Vec::with_capacity(self.remap_entries);
        for set in self.sets.iter_mut() {
            for slot in set.iter_mut() {
                if slot.valid && slot.remap {
                    drained.push(TagBufferEntry {
                        page: slot.page,
                        info: slot.info,
                        remap: true,
                    });
                    slot.remap = false;
                }
            }
        }
        self.remap_entries = 0;
        self.flushes += 1;
        drained
    }

    /// Iterate over all valid entries (for tests and debugging).
    pub fn entries(&self) -> Vec<TagBufferEntry> {
        self.sets
            .iter()
            .flat_map(|set| set.iter())
            .filter(|s| s.valid)
            .map(|s| TagBufferEntry {
                page: s.page,
                info: s.info,
                remap: s.remap,
            })
            .collect()
    }
}

impl Persist for TagBuffer {
    fn save(&self, w: &mut SnapshotWriter) {
        w.usize(self.sets.len());
        w.usize(self.ways);
        w.f64(self.flush_threshold);
        w.u64(self.clock);
        w.usize(self.remap_entries);
        w.u64(self.lookups);
        w.u64(self.hits);
        w.u64(self.flushes);
        w.seq_with(&self.sets, |w, set| {
            w.seq_with(set, |w, slot| {
                w.bool(slot.valid);
                w.bool(slot.remap);
                slot.page.save(w);
                slot.info.save(w);
                w.u64(slot.touched);
            });
        });
    }
    fn restore(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        let num_sets = r.usize()?;
        let ways = r.usize()?;
        if num_sets == 0 || ways == 0 {
            return Err(SnapshotError::Corrupt(
                "tag buffer has empty geometry".to_string(),
            ));
        }
        let flush_threshold = r.f64()?;
        if !(0.0..=1.0).contains(&flush_threshold) {
            return Err(SnapshotError::Corrupt(format!(
                "tag buffer flush threshold {flush_threshold} out of range"
            )));
        }
        let clock = r.u64()?;
        let remap_entries = r.usize()?;
        let lookups = r.u64()?;
        let hits = r.u64()?;
        let flushes = r.u64()?;
        let outer = r.seq_len(8)?;
        if outer != num_sets {
            return Err(SnapshotError::Corrupt(format!(
                "tag buffer set sequence length {outer} != declared {num_sets}"
            )));
        }
        let mut sets = Vec::with_capacity(num_sets);
        let mut actual_remaps = 0usize;
        for _ in 0..num_sets {
            let inner = r.seq_len(20)?;
            if inner != ways {
                return Err(SnapshotError::Corrupt(format!(
                    "tag buffer way sequence length {inner} != declared {ways}"
                )));
            }
            let mut set = Vec::with_capacity(ways);
            for _ in 0..ways {
                let slot = Slot {
                    valid: r.bool()?,
                    remap: r.bool()?,
                    page: PageNum::restore(r)?,
                    info: PteMapInfo::restore(r)?,
                    touched: r.u64()?,
                };
                if slot.valid && slot.remap {
                    actual_remaps += 1;
                }
                set.push(slot);
            }
            sets.push(set);
        }
        if actual_remaps != remap_entries {
            return Err(SnapshotError::Corrupt(format!(
                "tag buffer claims {remap_entries} remap entries but holds {actual_remaps}"
            )));
        }
        Ok(TagBuffer {
            sets,
            ways,
            set_div: FastDivMod::new(num_sets as u64),
            flush_threshold,
            clock,
            remap_entries,
            lookups,
            hits,
            flushes,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn buffer() -> TagBuffer {
        TagBuffer::new(64, 8, 0.7)
    }

    #[test]
    fn paper_size_is_5kb_per_mc() {
        // 1024 entries x (~40 bits per entry) ≈ 5 KB (Section 5.1). Here we
        // just check the geometry constructs.
        let tb = TagBuffer::new(1024, 8, 0.7);
        assert_eq!(tb.capacity(), 1024);
        assert_eq!(tb.remap_entries(), 0);
        assert!(!tb.needs_flush());
    }

    #[test]
    fn lookup_returns_latest_mapping() {
        let mut tb = buffer();
        let page = PageNum::new(42);
        assert!(tb.lookup(page).is_none());
        tb.insert_remap(page, PteMapInfo::cached_in(2));
        assert_eq!(tb.lookup(page), Some(PteMapInfo::cached_in(2)));
        // A second remap of the same page overwrites in place.
        tb.insert_remap(page, PteMapInfo::NOT_CACHED);
        assert_eq!(tb.lookup(page), Some(PteMapInfo::NOT_CACHED));
        assert_eq!(tb.remap_entries(), 1);
    }

    #[test]
    fn threshold_reached_at_70_percent() {
        let mut tb = TagBuffer::new(64, 8, 0.7);
        let mut reached = false;
        for i in 0..45u64 {
            match tb.insert_remap(PageNum::new(i), PteMapInfo::cached_in(0)) {
                InsertOutcome::ThresholdReached => {
                    reached = true;
                    break;
                }
                InsertOutcome::Stored => {}
                InsertOutcome::SetFull => panic!("set overflow before threshold"),
            }
        }
        assert!(reached, "threshold never reported");
        assert!(tb.needs_flush());
        assert!(tb.remap_occupancy() >= 0.7 - 1e-9);
    }

    #[test]
    fn remap_entries_survive_until_drain() {
        let mut tb = TagBuffer::new(16, 8, 1.0);
        // Insert remap entries until the sets start rejecting (the hash does
        // not spread a contiguous page range perfectly), then try to evict
        // the accepted ones with clean-entry pressure — every accepted remap
        // entry must survive.
        let mut accepted = Vec::new();
        for i in 0..16u64 {
            if tb.insert_remap(PageNum::new(i), PteMapInfo::cached_in(1)) != InsertOutcome::SetFull
            {
                accepted.push(i);
            }
        }
        assert!(
            accepted.len() >= 8,
            "expected at least one full set's worth"
        );
        for i in 100..200u64 {
            tb.insert_clean(PageNum::new(i), PteMapInfo::NOT_CACHED);
        }
        for i in accepted {
            assert_eq!(
                tb.lookup(PageNum::new(i)),
                Some(PteMapInfo::cached_in(1)),
                "remap entry {i} was evicted before the flush"
            );
        }
    }

    #[test]
    fn set_full_reported_when_all_ways_are_remap() {
        // 8 entries, 8 ways → a single set. Fill it with remap entries.
        let mut tb = TagBuffer::new(8, 8, 1.0);
        for i in 0..8u64 {
            assert_ne!(
                tb.insert_remap(PageNum::new(i), PteMapInfo::cached_in(0)),
                InsertOutcome::SetFull
            );
        }
        assert_eq!(
            tb.insert_remap(PageNum::new(99), PteMapInfo::cached_in(0)),
            InsertOutcome::SetFull
        );
        // After a drain the insert succeeds.
        tb.drain();
        assert_ne!(
            tb.insert_remap(PageNum::new(99), PteMapInfo::cached_in(0)),
            InsertOutcome::SetFull
        );
    }

    #[test]
    fn drain_clears_remap_but_keeps_entries_resident() {
        let mut tb = buffer();
        for i in 0..10u64 {
            tb.insert_remap(PageNum::new(i), PteMapInfo::cached_in(3));
        }
        let drained = tb.drain();
        assert_eq!(drained.len(), 10);
        assert!(drained.iter().all(|e| e.remap));
        assert_eq!(tb.remap_entries(), 0);
        assert_eq!(tb.flushes(), 1);
        // Entries remain visible to lookups (helping dirty evictions).
        assert_eq!(tb.lookup(PageNum::new(3)), Some(PteMapInfo::cached_in(3)));
        // Second drain returns nothing.
        assert!(tb.drain().is_empty());
    }

    #[test]
    fn clean_entries_are_lru_evictable() {
        let mut tb = TagBuffer::new(8, 8, 1.0);
        for i in 0..8u64 {
            tb.insert_clean(PageNum::new(i), PteMapInfo::NOT_CACHED);
        }
        // Touch entry 0 so it is MRU, then insert a new clean entry — some
        // other entry must be evicted, 0 must survive.
        tb.lookup(PageNum::new(0));
        tb.insert_clean(PageNum::new(100), PteMapInfo::NOT_CACHED);
        assert!(tb.lookup(PageNum::new(0)).is_some());
        assert!(tb.lookup(PageNum::new(100)).is_some());
        assert_eq!(tb.entries().len(), 8);
    }

    #[test]
    fn clean_insert_never_downgrades_remap_entry() {
        let mut tb = buffer();
        let page = PageNum::new(7);
        tb.insert_remap(page, PteMapInfo::cached_in(2));
        tb.insert_clean(page, PteMapInfo::NOT_CACHED);
        assert_eq!(tb.lookup(page), Some(PteMapInfo::cached_in(2)));
        assert_eq!(tb.remap_entries(), 1);
    }

    #[test]
    fn hit_rate_statistics() {
        let mut tb = buffer();
        tb.insert_remap(PageNum::new(1), PteMapInfo::cached_in(0));
        tb.lookup(PageNum::new(1));
        tb.lookup(PageNum::new(2));
        assert_eq!(tb.lookups(), 2);
        assert_eq!(tb.hits(), 1);
    }

    proptest! {
        /// The remap-entry count always matches the number of entries with
        /// the remap bit set, and never exceeds capacity.
        #[test]
        fn prop_remap_accounting(ops in proptest::collection::vec((0u64..64, any::<bool>()), 1..200)) {
            let mut tb = TagBuffer::new(32, 4, 1.0);
            for (page, clean) in ops {
                if clean {
                    tb.insert_clean(PageNum::new(page), PteMapInfo::NOT_CACHED);
                } else {
                    let _ = tb.insert_remap(PageNum::new(page), PteMapInfo::cached_in(1));
                }
                let actual_remaps = tb.entries().iter().filter(|e| e.remap).count();
                prop_assert_eq!(actual_remaps, tb.remap_entries());
                prop_assert!(tb.entries().len() <= tb.capacity());
            }
            let drained = tb.drain();
            prop_assert_eq!(tb.remap_entries(), 0);
            prop_assert!(drained.len() <= tb.capacity());
        }

        /// save → restore → save is byte-identical, and the restored buffer
        /// behaves identically under further operations.
        #[test]
        fn prop_persist_round_trip(
            ops in proptest::collection::vec((0u64..64, 0u8..3), 0..200),
            tail in proptest::collection::vec((0u64..64, 0u8..3), 0..50),
        ) {
            let apply = |tb: &mut TagBuffer, page: u64, op: u8| match op {
                0 => {
                    tb.insert_clean(PageNum::new(page), PteMapInfo::NOT_CACHED);
                }
                1 => {
                    let _ = tb.insert_remap(PageNum::new(page), PteMapInfo::cached_in(1));
                }
                _ => {
                    tb.lookup(PageNum::new(page));
                }
            };
            let mut tb = TagBuffer::new(32, 4, 1.0);
            for (page, op) in ops {
                apply(&mut tb, page, op);
            }
            let mut w = SnapshotWriter::new();
            tb.save(&mut w);
            let bytes = w.into_bytes();
            let mut r = SnapshotReader::new(&bytes);
            let mut back = TagBuffer::restore(&mut r).unwrap();
            prop_assert!(r.is_exhausted());
            let mut w = SnapshotWriter::new();
            back.save(&mut w);
            prop_assert_eq!(w.into_bytes(), bytes.clone());
            // Diverge-free: identical tails leave identical state behind.
            for (page, op) in tail {
                apply(&mut tb, page, op);
                apply(&mut back, page, op);
            }
            prop_assert_eq!(tb.remap_entries(), back.remap_entries());
            prop_assert_eq!(tb.lookups(), back.lookups());
            prop_assert_eq!(tb.hits(), back.hits());
            let (mut wa, mut wb) = (SnapshotWriter::new(), SnapshotWriter::new());
            tb.save(&mut wa);
            back.save(&mut wb);
            prop_assert_eq!(wa.into_bytes(), wb.into_bytes());
        }

        /// Truncating a snapshot at any point is a typed error, not a panic.
        #[test]
        fn prop_persist_truncation_is_typed(cut in 0usize..64) {
            let mut tb = TagBuffer::new(32, 4, 1.0);
            for page in 0..8 {
                let _ = tb.insert_remap(PageNum::new(page), PteMapInfo::cached_in(1));
            }
            let mut w = SnapshotWriter::new();
            tb.save(&mut w);
            let bytes = w.into_bytes();
            let cut = cut.min(bytes.len().saturating_sub(1));
            let mut r = SnapshotReader::new(&bytes[..cut]);
            prop_assert!(TagBuffer::restore(&mut r).is_err());
        }
    }
}
