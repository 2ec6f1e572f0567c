//! Per-core TLB carrying Banshee's PTE extension bits.
//!
//! The TLB is the reason lazy coherence is interesting: after the memory
//! controller remaps a page, TLBs keep serving the *old* cached/way bits
//! until a shootdown. Banshee tolerates this because every LLC miss checks
//! the tag buffer at the memory controller, which always has the up-to-date
//! mapping for recently remapped pages (Section 3.1). The TLB model here
//! therefore deliberately returns stale [`PteMapInfo`] until
//! [`Tlb::shootdown`] is called.

use crate::page_table::{PageSize, PteMapInfo};
use banshee_common::persist::{Persist, SnapshotError, SnapshotReader, SnapshotWriter};
use banshee_common::PageNum;

/// One TLB entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TlbEntry {
    /// Virtual page number.
    pub vpage: u64,
    /// Physical page frame.
    pub ppage: PageNum,
    /// The (possibly stale) DRAM-cache mapping bits.
    pub info: PteMapInfo,
    /// Page size of the mapping.
    pub size: PageSize,
}

#[derive(Debug, Clone)]
struct Slot {
    entry: TlbEntry,
    touched: u64,
    /// The next more recently used position, or [`NIL`].
    prev: u32,
    /// The next less recently used position, or [`NIL`].
    next: u32,
}

impl Slot {
    /// An unlinked slot.
    fn new(entry: TlbEntry, touched: u64) -> Self {
        Slot {
            entry,
            touched,
            prev: NIL,
            next: NIL,
        }
    }
}

/// End of the recency list, and an empty index bucket.
const NIL: u32 = u32::MAX;

/// A fully-associative, LRU TLB with a fixed number of entries.
///
/// Real TLBs are set-associative, but associativity is irrelevant to the
/// phenomena modelled here (staleness and shootdown cost); what matters is
/// the entry count and hit/miss behaviour.
///
/// Every operation is O(1). Beside the slots, the TLB keeps an
/// open-addressing index from virtual page to slot position (multiplicative
/// hash, linear probing, at most half full) and a recency list over
/// positions, linked through the slots, most recent first. Each lookup or
/// fill stamps its slot with a fresh `touched` clock value and moves it to
/// the list head, so the tail is the slot with the unique minimum
/// `touched`: the LRU victim.
#[derive(Debug, Clone)]
pub struct Tlb {
    slots: Vec<Slot>,
    capacity: usize,
    clock: u64,
    hits: u64,
    misses: u64,
    shootdowns: u64,
    /// Slot position per bucket, or [`NIL`]; the length is a power of two.
    index: Box<[u32]>,
    /// `64 − log2(index.len())`: shifts a hash down to a bucket.
    index_shift: u32,
    /// Most recently used position, or [`NIL`].
    head: u32,
    /// Least recently used position, or [`NIL`].
    tail: u32,
}

impl Tlb {
    /// A TLB with `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "TLB needs at least one entry");
        assert!(capacity < NIL as usize, "TLB positions are u32");
        Self::with_slots(capacity, Vec::with_capacity(capacity))
    }

    /// A TLB holding `slots` (in position order, with distinct pages and
    /// distinct `touched` stamps), with its index and recency list built
    /// from them. Counters start at zero.
    fn with_slots(capacity: usize, slots: Vec<Slot>) -> Self {
        let buckets = (2 * capacity).next_power_of_two().max(4);
        let mut tlb = Tlb {
            slots,
            capacity,
            clock: 0,
            hits: 0,
            misses: 0,
            shootdowns: 0,
            index: vec![NIL; buckets].into_boxed_slice(),
            index_shift: 64 - buckets.trailing_zeros(),
            head: NIL,
            tail: NIL,
        };
        // Link from least to most recent, each pushed to the head.
        let mut order: Vec<u32> = (0..tlb.slots.len() as u32).collect();
        order.sort_by_key(|&pos| tlb.slots[pos as usize].touched);
        for pos in order {
            tlb.push_front(pos);
            tlb.index_insert(pos);
        }
        tlb
    }

    /// Hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Misses so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Number of full flushes (shootdowns) performed.
    pub fn shootdowns(&self) -> u64 {
        self.shootdowns
    }

    /// Number of entries the TLB can hold.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of currently resident entries.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True if no entries are resident.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    #[inline]
    fn bucket(&self, vpage: u64) -> usize {
        (vpage.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> self.index_shift) as usize
    }

    /// The index bucket holding `vpage`'s position, if it is resident.
    #[inline]
    fn find_bucket(&self, vpage: u64) -> Option<usize> {
        let mask = self.index.len() - 1;
        let mut b = self.bucket(vpage);
        loop {
            let pos = self.index[b];
            if pos == NIL {
                return None;
            }
            if self.slots[pos as usize].entry.vpage == vpage {
                return Some(b);
            }
            b = (b + 1) & mask;
        }
    }

    fn index_insert(&mut self, pos: u32) {
        let mask = self.index.len() - 1;
        let mut b = self.bucket(self.slots[pos as usize].entry.vpage);
        while self.index[b] != NIL {
            b = (b + 1) & mask;
        }
        self.index[b] = pos;
    }

    /// Empty bucket `hole` and shift later members of its probe run back so
    /// every resident page stays reachable from its home bucket.
    fn index_remove(&mut self, mut hole: usize) {
        let mask = self.index.len() - 1;
        let mut b = hole;
        loop {
            b = (b + 1) & mask;
            let pos = self.index[b];
            if pos == NIL {
                break;
            }
            let home = self.bucket(self.slots[pos as usize].entry.vpage);
            // Move the member back iff the hole lies on its probe path.
            if b.wrapping_sub(home) & mask >= b.wrapping_sub(hole) & mask {
                self.index[hole] = pos;
                hole = b;
            }
        }
        self.index[hole] = NIL;
    }

    fn unlink(&mut self, pos: u32) {
        let Slot { prev, next, .. } = self.slots[pos as usize];
        match prev {
            NIL => self.head = next,
            p => self.slots[p as usize].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.slots[n as usize].prev = prev,
        }
    }

    fn push_front(&mut self, pos: u32) {
        let slot = &mut self.slots[pos as usize];
        slot.prev = NIL;
        slot.next = self.head;
        match self.head {
            NIL => self.tail = pos,
            h => self.slots[h as usize].prev = pos,
        }
        self.head = pos;
    }

    /// Stamp a resident slot as most recently used.
    #[inline]
    fn touch(&mut self, pos: u32) {
        self.slots[pos as usize].touched = self.clock;
        if self.head != pos {
            self.unlink(pos);
            self.push_front(pos);
        }
    }

    /// Remove the least recently used slot with `swap_remove`: the last
    /// slot moves into its position, and its index bucket and list
    /// neighbours follow it.
    fn evict_lru(&mut self) {
        let victim = self.tail;
        let last = (self.slots.len() - 1) as u32;
        let bucket = self
            .find_bucket(self.slots[victim as usize].entry.vpage)
            .expect("resident slot is indexed");
        self.index_remove(bucket);
        self.unlink(victim);
        if victim != last {
            let moved = self
                .find_bucket(self.slots[last as usize].entry.vpage)
                .expect("resident slot is indexed");
            self.index[moved] = victim;
        }
        self.slots.swap_remove(victim as usize);
        if victim != last {
            let Slot { prev, next, .. } = self.slots[victim as usize];
            match prev {
                NIL => self.head = victim,
                p => self.slots[p as usize].next = victim,
            }
            match next {
                NIL => self.tail = victim,
                n => self.slots[n as usize].prev = victim,
            }
        }
    }

    /// Look up a virtual page. Returns the entry on a hit (updating LRU) or
    /// `None` on a miss (the caller then walks the page table and calls
    /// [`Tlb::fill`]).
    pub fn lookup(&mut self, vpage: u64) -> Option<TlbEntry> {
        self.clock += 1;
        if let Some(b) = self.find_bucket(vpage) {
            let pos = self.index[b];
            self.touch(pos);
            self.hits += 1;
            Some(self.slots[pos as usize].entry)
        } else {
            self.misses += 1;
            None
        }
    }

    /// Insert (or overwrite) an entry, evicting the LRU entry if full.
    pub fn fill(&mut self, entry: TlbEntry) {
        self.clock += 1;
        if let Some(b) = self.find_bucket(entry.vpage) {
            let pos = self.index[b];
            self.slots[pos as usize].entry = entry;
            self.touch(pos);
            return;
        }
        if self.slots.len() == self.capacity {
            self.evict_lru();
        }
        let pos = self.slots.len() as u32;
        self.slots.push(Slot::new(entry, self.clock));
        self.push_front(pos);
        self.index_insert(pos);
    }

    /// Flush the whole TLB (a shootdown). The next access to every page will
    /// re-walk the page table and pick up fresh mapping bits.
    pub fn shootdown(&mut self) {
        self.slots.clear();
        self.index.fill(NIL);
        self.head = NIL;
        self.tail = NIL;
        self.shootdowns += 1;
    }
}

impl Persist for TlbEntry {
    fn save(&self, w: &mut SnapshotWriter) {
        w.u64(self.vpage);
        self.ppage.save(w);
        self.info.save(w);
        self.size.save(w);
    }
    fn restore(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        Ok(TlbEntry {
            vpage: r.u64()?,
            ppage: PageNum::restore(r)?,
            info: PteMapInfo::restore(r)?,
            size: PageSize::restore(r)?,
        })
    }
}

impl Persist for Tlb {
    fn save(&self, w: &mut SnapshotWriter) {
        w.usize(self.capacity);
        w.u64(self.clock);
        w.u64(self.hits);
        w.u64(self.misses);
        w.u64(self.shootdowns);
        // Slot order is semantic: eviction uses swap_remove, so the exact
        // Vec layout must survive the trip. The index and recency list are
        // derived from the slots and rebuilt on restore.
        w.seq_with(&self.slots, |w, s| {
            s.entry.save(w);
            w.u64(s.touched);
        });
    }
    fn restore(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        let capacity = r.usize()?;
        if capacity == 0 || capacity >= NIL as usize {
            return Err(SnapshotError::Corrupt(format!(
                "TLB capacity {capacity} is out of range"
            )));
        }
        let clock = r.u64()?;
        let hits = r.u64()?;
        let misses = r.u64()?;
        let shootdowns = r.u64()?;
        let len = r.seq_len(27)?;
        if len > capacity {
            return Err(SnapshotError::Corrupt(format!(
                "TLB holds {len} entries but capacity is {capacity}"
            )));
        }
        let mut slots: Vec<Slot> = Vec::with_capacity(capacity);
        for _ in 0..len {
            let slot = Slot::new(TlbEntry::restore(r)?, r.u64()?);
            // A TLB never holds a page twice, and every lookup or fill
            // stamps one slot with a fresh clock value.
            if slots
                .iter()
                .any(|s| s.entry.vpage == slot.entry.vpage || s.touched == slot.touched)
            {
                return Err(SnapshotError::Corrupt(format!(
                    "TLB image repeats page {} or stamp {}",
                    slot.entry.vpage, slot.touched
                )));
            }
            slots.push(slot);
        }
        Ok(Tlb {
            clock,
            hits,
            misses,
            shootdowns,
            ..Tlb::with_slots(capacity, slots)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use banshee_common::{SnapshotReader, SnapshotWriter};
    use proptest::prelude::*;

    fn entry(vpage: u64, info: PteMapInfo) -> TlbEntry {
        TlbEntry {
            vpage,
            ppage: PageNum::new(vpage + 1000),
            info,
            size: PageSize::Base4K,
        }
    }

    #[test]
    fn miss_fill_hit() {
        let mut tlb = Tlb::new(4);
        assert!(tlb.lookup(1).is_none());
        tlb.fill(entry(1, PteMapInfo::NOT_CACHED));
        let got = tlb.lookup(1).unwrap();
        assert_eq!(got.ppage, PageNum::new(1001));
        assert_eq!(tlb.hits(), 1);
        assert_eq!(tlb.misses(), 1);
    }

    #[test]
    fn capacity_evicts_lru() {
        let mut tlb = Tlb::new(2);
        tlb.fill(entry(1, PteMapInfo::NOT_CACHED));
        tlb.fill(entry(2, PteMapInfo::NOT_CACHED));
        tlb.lookup(1); // 2 becomes LRU
        tlb.fill(entry(3, PteMapInfo::NOT_CACHED));
        assert!(tlb.lookup(1).is_some());
        assert!(tlb.lookup(2).is_none());
        assert!(tlb.lookup(3).is_some());
        assert_eq!(tlb.len(), 2);
    }

    #[test]
    fn refill_overwrites_in_place() {
        let mut tlb = Tlb::new(2);
        tlb.fill(entry(1, PteMapInfo::NOT_CACHED));
        tlb.fill(entry(1, PteMapInfo::cached_in(2)));
        assert_eq!(tlb.len(), 1);
        assert_eq!(tlb.lookup(1).unwrap().info, PteMapInfo::cached_in(2));
    }

    #[test]
    fn stale_mapping_persists_until_shootdown() {
        // This is the behaviour Banshee's lazy coherence depends on.
        let mut tlb = Tlb::new(4);
        tlb.fill(entry(7, PteMapInfo::NOT_CACHED));
        // The DRAM cache remaps the page, but nobody tells the TLB...
        let stale = tlb.lookup(7).unwrap();
        assert_eq!(stale.info, PteMapInfo::NOT_CACHED);
        // ...until a shootdown flushes it.
        tlb.shootdown();
        assert!(tlb.lookup(7).is_none());
        assert_eq!(tlb.shootdowns(), 1);
        assert!(tlb.is_empty());
    }

    #[test]
    #[should_panic]
    fn zero_capacity_rejected() {
        let _ = Tlb::new(0);
    }

    #[test]
    fn persist_round_trip_preserves_lru_order() {
        use banshee_common::{SnapshotReader, SnapshotWriter};
        let mut tlb = Tlb::new(2);
        tlb.fill(entry(1, PteMapInfo::NOT_CACHED));
        tlb.fill(entry(2, PteMapInfo::cached_in(1)));
        tlb.lookup(1); // 2 becomes LRU
        let mut w = SnapshotWriter::new();
        tlb.save(&mut w);
        let bytes = w.into_bytes();
        let mut r = SnapshotReader::new(&bytes);
        let mut back = Tlb::restore(&mut r).unwrap();
        assert!(r.is_exhausted());
        let mut w2 = SnapshotWriter::new();
        back.save(&mut w2);
        assert_eq!(w2.into_bytes(), bytes);
        // The restored TLB evicts the same victim the original would.
        back.fill(entry(3, PteMapInfo::NOT_CACHED));
        tlb.fill(entry(3, PteMapInfo::NOT_CACHED));
        for vpage in [1u64, 2, 3] {
            assert_eq!(tlb.lookup(vpage).is_some(), back.lookup(vpage).is_some());
        }
        assert_eq!(tlb.hits(), back.hits());
        assert_eq!(tlb.misses(), back.misses());
    }

    #[test]
    fn persist_rejects_overfull_and_truncated() {
        use banshee_common::{SnapshotReader, SnapshotWriter};
        let mut tlb = Tlb::new(2);
        tlb.fill(entry(1, PteMapInfo::NOT_CACHED));
        tlb.fill(entry(2, PteMapInfo::NOT_CACHED));
        let mut w = SnapshotWriter::new();
        tlb.save(&mut w);
        let bytes = w.into_bytes();
        // Shrink the recorded capacity below the resident count.
        let mut bad = bytes.clone();
        bad[0..8].copy_from_slice(&1u64.to_le_bytes());
        assert!(Tlb::restore(&mut SnapshotReader::new(&bad)).is_err());
        // Truncation mid-slot is a typed error, not a panic.
        let mut r = SnapshotReader::new(&bytes[..bytes.len() - 4]);
        assert!(Tlb::restore(&mut r).is_err());
    }

    /// The TLB as it was before the index: a linear scan for every lookup
    /// and fill, and a scan for the minimum `touched` on eviction. The
    /// differential tests below hold the indexed TLB to it.
    struct LinearTlb {
        slots: Vec<Slot>,
        capacity: usize,
        clock: u64,
        hits: u64,
        misses: u64,
        shootdowns: u64,
    }

    impl LinearTlb {
        fn new(capacity: usize) -> Self {
            LinearTlb {
                slots: Vec::new(),
                capacity,
                clock: 0,
                hits: 0,
                misses: 0,
                shootdowns: 0,
            }
        }

        fn lookup(&mut self, vpage: u64) -> Option<TlbEntry> {
            self.clock += 1;
            let clock = self.clock;
            if let Some(slot) = self.slots.iter_mut().find(|s| s.entry.vpage == vpage) {
                slot.touched = clock;
                self.hits += 1;
                Some(slot.entry)
            } else {
                self.misses += 1;
                None
            }
        }

        fn fill(&mut self, entry: TlbEntry) {
            self.clock += 1;
            if let Some(slot) = self.slots.iter_mut().find(|s| s.entry.vpage == entry.vpage) {
                slot.entry = entry;
                slot.touched = self.clock;
                return;
            }
            if self.slots.len() == self.capacity {
                let lru = self
                    .slots
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, s)| s.touched)
                    .map(|(i, _)| i)
                    .expect("non-empty");
                self.slots.swap_remove(lru);
            }
            self.slots.push(Slot::new(entry, self.clock));
        }

        fn shootdown(&mut self) {
            self.slots.clear();
            self.shootdowns += 1;
        }

        fn save(&self, w: &mut SnapshotWriter) {
            w.usize(self.capacity);
            w.u64(self.clock);
            w.u64(self.hits);
            w.u64(self.misses);
            w.u64(self.shootdowns);
            w.seq_with(&self.slots, |w, s| {
                s.entry.save(w);
                w.u64(s.touched);
            });
        }
    }

    fn bytes_of(save: impl FnOnce(&mut SnapshotWriter)) -> Vec<u8> {
        let mut w = SnapshotWriter::new();
        save(&mut w);
        w.into_bytes()
    }

    /// Walk the recency list and the index and check both against the
    /// slots: the list visits every position once in descending `touched`
    /// order, and every resident page is found at its own position.
    fn assert_structure_consistent(tlb: &Tlb) {
        let mut pos = tlb.head;
        let mut prev = NIL;
        let mut seen = 0;
        while pos != NIL {
            assert!(seen < tlb.slots.len(), "cycle in recency list");
            assert_eq!(tlb.slots[pos as usize].prev, prev, "broken prev link");
            if prev != NIL {
                assert!(tlb.slots[prev as usize].touched > tlb.slots[pos as usize].touched);
            }
            prev = pos;
            pos = tlb.slots[pos as usize].next;
            seen += 1;
        }
        assert_eq!(tlb.tail, prev);
        assert_eq!(seen, tlb.slots.len());
        let indexed = tlb.index.iter().filter(|&&p| p != NIL).count();
        assert_eq!(indexed, tlb.slots.len());
        for (pos, slot) in tlb.slots.iter().enumerate() {
            let b = tlb.find_bucket(slot.entry.vpage).expect("indexed");
            assert_eq!(tlb.index[b] as usize, pos);
        }
    }

    /// Evicting the least recently used slot pins the tail choice: with
    /// capacity 3, touching 1 and 3 leaves 2 as the victim.
    #[test]
    fn fill_evicts_the_least_recently_used_slot() {
        let mut tlb = Tlb::new(3);
        for vpage in 1..=3 {
            tlb.fill(entry(vpage, PteMapInfo::NOT_CACHED));
        }
        tlb.lookup(1);
        tlb.lookup(3);
        tlb.fill(entry(4, PteMapInfo::NOT_CACHED));
        assert!(tlb.lookup(2).is_none());
        for vpage in [1, 3, 4] {
            assert!(tlb.lookup(vpage).is_some(), "page {vpage} evicted");
        }
        assert_structure_consistent(&tlb);
    }

    #[test]
    fn restore_rejects_repeated_pages_and_stamps() {
        let mut tlb = Tlb::new(4);
        tlb.fill(entry(1, PteMapInfo::NOT_CACHED));
        tlb.fill(entry(2, PteMapInfo::NOT_CACHED));
        let bytes = bytes_of(|w| tlb.save(w));
        // Each slot is 8 B vpage + 8 B ppage + 2 B info + 1 B size + 8 B
        // touched; the slots follow 5 header words and the length.
        let slot = 27;
        let first = 48;
        let mut same_page = bytes.clone();
        same_page[first + slot..first + slot + 8].copy_from_slice(&1u64.to_le_bytes());
        let repeats = |bytes: &[u8]| {
            matches!(
                Tlb::restore(&mut SnapshotReader::new(bytes)),
                Err(SnapshotError::Corrupt(msg)) if msg.contains("repeats")
            )
        };
        assert!(repeats(&same_page));
        let mut same_stamp = bytes.clone();
        let stamp = |i: usize| first + i * slot + slot - 8;
        let first_stamp = same_stamp[stamp(0)..stamp(0) + 8].to_vec();
        same_stamp[stamp(1)..stamp(1) + 8].copy_from_slice(&first_stamp);
        assert!(repeats(&same_stamp));
        assert!(Tlb::restore(&mut SnapshotReader::new(&bytes)).is_ok());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The indexed TLB returns what the linear TLB returns for every
        /// lookup, at every capacity from 1 to 64, and saves the same bytes
        /// after every shootdown and at the end; a TLB restored halfway
        /// keeps agreeing.
        #[test]
        fn prop_matches_linear_tlb(
            capacity in 1usize..65,
            pages in 1u64..200,
            ops in proptest::collection::vec((0u8..16, 0u64..1_000_000, 0u8..4), 1..600),
        ) {
            let mut tlb = Tlb::new(capacity);
            let mut reference = LinearTlb::new(capacity);
            let mut restored: Option<Tlb> = None;
            let half = ops.len() / 2;
            for (i, (op, raw, way)) in ops.into_iter().enumerate() {
                if i == half {
                    let bytes = bytes_of(|w| tlb.save(w));
                    restored = Some(Tlb::restore(&mut SnapshotReader::new(&bytes)).unwrap());
                }
                // Scale the page numbers apart so the hash spreads them, and
                // reuse a small set so lookups hit.
                let vpage = (raw % pages) * 0x1_0001;
                match op {
                    0 => {
                        tlb.shootdown();
                        reference.shootdown();
                        if let Some(r) = restored.as_mut() {
                            r.shootdown();
                        }
                        prop_assert_eq!(bytes_of(|w| tlb.save(w)), bytes_of(|w| reference.save(w)));
                    }
                    1..=6 => {
                        let e = entry(vpage, PteMapInfo::cached_in(way));
                        tlb.fill(e);
                        reference.fill(e);
                        if let Some(r) = restored.as_mut() {
                            r.fill(e);
                        }
                    }
                    _ => {
                        let want = reference.lookup(vpage);
                        prop_assert_eq!(tlb.lookup(vpage), want);
                        if let Some(r) = restored.as_mut() {
                            prop_assert_eq!(r.lookup(vpage), want);
                        }
                    }
                }
            }
            assert_structure_consistent(&tlb);
            let want = bytes_of(|w| reference.save(w));
            prop_assert_eq!(bytes_of(|w| tlb.save(w)), want.clone());
            if let Some(r) = restored {
                assert_structure_consistent(&r);
                prop_assert_eq!(bytes_of(|w| r.save(w)), want);
            }
        }
    }
}
