//! A generic set-associative, tag-only cache model with LRU replacement.
//!
//! The model tracks presence and dirtiness of cache lines, not their data.
//! Only [`crate::CacheHierarchy`] builds it, for the SRAM levels (L1D, L2,
//! LLC). The DRAM-cache designs keep their own tag structures.
//!
//! These lookups run on **every** simulated access (L1 + L2 + LLC), so the
//! layout is optimized for the simulator's hot path:
//!
//! * all ways live in one contiguous `Vec<Way>` with stride indexing
//!   (`set * ways + way`), instead of a `Vec<Vec<Way>>` whose per-set heap
//!   allocations scatter the tag arrays across the heap;
//! * victim selection is O(1): a per-set valid bitmap finds free ways with
//!   `trailing_zeros`, and an intrusive doubly-linked recency list (u8
//!   next/prev indices embedded in each way) keeps exact LRU order — hits
//!   rotate the list head, the victim is always the tail.
//!
//! Free ways are claimed lowest-index-first, and a full set evicts its
//! least-recently-touched way. `tests/lru_model.rs` checks this against a
//! timestamp-LRU reference model.

use banshee_common::persist::{Persist, SnapshotError, SnapshotReader, SnapshotWriter};
use banshee_common::{FastDivMod, LineAddr};

/// Sentinel for "no neighbour" in the intrusive recency list.
const NONE: u8 = u8::MAX;

/// One way of one set, with embedded recency-list links.
#[derive(Debug, Clone, Copy)]
struct Way {
    valid: bool,
    dirty: bool,
    tag: u64,
    /// Next way towards the LRU end (index within the set).
    next: u8,
    /// Previous way towards the MRU end (index within the set).
    prev: u8,
}

impl Default for Way {
    fn default() -> Self {
        Way {
            valid: false,
            dirty: false,
            tag: 0,
            next: NONE,
            prev: NONE,
        }
    }
}

/// Per-set replacement state: recency-list endpoints + valid bitmap.
#[derive(Debug, Clone, Copy)]
struct SetState {
    /// Most-recently-used way.
    head: u8,
    /// Least-recently-used way — the victim.
    tail: u8,
    /// Bit `w` set ⇔ way `w` is valid.
    valid_mask: u64,
}

impl Default for SetState {
    fn default() -> Self {
        SetState {
            head: NONE,
            tail: NONE,
            valid_mask: 0,
        }
    }
}

/// Outcome of a cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessResult {
    /// Whether the line was present.
    pub hit: bool,
    /// A dirty victim that must be written back to the next level, if the
    /// access allocated and evicted one.
    pub writeback: Option<LineAddr>,
    /// A clean victim that was silently dropped, if any (useful for
    /// inclusive-hierarchy back-invalidation).
    pub evicted_clean: Option<LineAddr>,
    /// Global way index (`set * ways + way`) the line was found in or filled
    /// into — the key callers use to attach their own per-way metadata
    /// (e.g. the hierarchy's inclusion masks).
    pub slot: usize,
}

impl AccessResult {
    /// The evicted line (dirty or clean), if any.
    pub fn evicted(&self) -> Option<LineAddr> {
        self.writeback.or(self.evicted_clean)
    }
}

/// A set-associative cache over 64-byte lines.
#[derive(Debug, Clone)]
pub struct SetAssocCache {
    /// All ways of all sets, contiguous: way `w` of set `s` lives at
    /// `s * ways + w`.
    ways_flat: Vec<Way>,
    /// Per-set replacement state.
    sets: Vec<SetState>,
    ways: usize,
    /// Set-count divider (mask/shift for power-of-two set counts).
    set_div: FastDivMod,
    hits: u64,
    misses: u64,
    writebacks: u64,
}

impl SetAssocCache {
    /// Build a cache holding `capacity_bytes` of 64-byte lines with `ways`
    /// associativity.
    ///
    /// # Panics
    /// Panics if the geometry does not divide evenly, is empty, or exceeds
    /// 64 ways (the per-set valid bitmap's width).
    pub fn new(capacity_bytes: u64, ways: usize) -> Self {
        assert!(ways > 0, "cache needs at least one way");
        assert!(ways <= 64, "associativity above 64 ways is not supported");
        let lines = capacity_bytes / banshee_common::CACHE_LINE_SIZE;
        assert!(lines > 0, "cache must hold at least one line");
        assert!(
            lines.is_multiple_of(ways as u64),
            "line count {lines} must be a multiple of ways {ways}"
        );
        let num_sets = (lines / ways as u64) as usize;
        SetAssocCache {
            ways_flat: vec![Way::default(); num_sets * ways],
            sets: vec![SetState::default(); num_sets],
            ways,
            set_div: FastDivMod::new(num_sets as u64),
            hits: 0,
            misses: 0,
            writebacks: 0,
        }
    }

    /// Number of sets.
    pub fn num_sets(&self) -> usize {
        self.sets.len()
    }

    /// Associativity.
    pub fn ways(&self) -> usize {
        self.ways
    }

    /// Hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Misses so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Dirty evictions so far.
    pub fn writebacks(&self) -> u64 {
        self.writebacks
    }

    /// Miss rate over all accesses so far.
    pub fn miss_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.misses as f64 / total as f64
        }
    }

    #[inline]
    fn set_index(&self, line: LineAddr) -> usize {
        self.set_div.rem(line.raw()) as usize
    }

    #[inline]
    fn tag_of(&self, line: LineAddr) -> u64 {
        self.set_div.div(line.raw())
    }

    fn line_from(&self, set: usize, tag: u64) -> LineAddr {
        LineAddr::new(tag * self.sets.len() as u64 + set as u64)
    }

    /// All ways valid in this set?
    #[inline]
    fn full_mask(&self) -> u64 {
        if self.ways == 64 {
            u64::MAX
        } else {
            (1u64 << self.ways) - 1
        }
    }

    /// Find the way holding `tag` in `set`, if any.
    #[inline]
    fn find_way(&self, set: usize, tag: u64) -> Option<usize> {
        let base = set * self.ways;
        let ways = &self.ways_flat[base..base + self.ways];
        ways.iter().position(|w| w.valid && w.tag == tag)
    }

    // ---- Intrusive recency list -----------------------------------------

    /// Detach way `w` from its set's recency list.
    #[inline]
    fn unlink(&mut self, set: usize, w: u8) {
        let base = set * self.ways;
        let (prev, next) = {
            let way = &self.ways_flat[base + w as usize];
            (way.prev, way.next)
        };
        if prev != NONE {
            self.ways_flat[base + prev as usize].next = next;
        } else {
            self.sets[set].head = next;
        }
        if next != NONE {
            self.ways_flat[base + next as usize].prev = prev;
        } else {
            self.sets[set].tail = prev;
        }
        let way = &mut self.ways_flat[base + w as usize];
        way.prev = NONE;
        way.next = NONE;
    }

    /// Attach way `w` at the MRU end of its set's recency list.
    #[inline]
    fn push_front(&mut self, set: usize, w: u8) {
        let base = set * self.ways;
        let old_head = self.sets[set].head;
        {
            let way = &mut self.ways_flat[base + w as usize];
            way.prev = NONE;
            way.next = old_head;
        }
        if old_head != NONE {
            self.ways_flat[base + old_head as usize].prev = w;
        } else {
            self.sets[set].tail = w;
        }
        self.sets[set].head = w;
    }

    /// Rotate way `w` to the MRU end (LRU hit promotion).
    #[inline]
    fn move_to_front(&mut self, set: usize, w: u8) {
        if self.sets[set].head != w {
            self.unlink(set, w);
            self.push_front(set, w);
        }
    }

    /// Look up a line without changing any state.
    pub fn probe(&self, line: LineAddr) -> bool {
        let set = self.set_index(line);
        let tag = self.tag_of(line);
        self.find_way(set, tag).is_some()
    }

    /// Access `line`; on a miss, allocate it (possibly evicting a victim).
    /// `write` marks the line dirty.
    pub fn access(&mut self, line: LineAddr, write: bool) -> AccessResult {
        let set_idx = self.set_index(line);
        let tag = self.tag_of(line);
        let base = set_idx * self.ways;

        // Hit path.
        if let Some(w) = self.find_way(set_idx, tag) {
            self.ways_flat[base + w].dirty |= write;
            self.move_to_front(set_idx, w as u8);
            self.hits += 1;
            return AccessResult {
                hit: true,
                writeback: None,
                evicted_clean: None,
                slot: base + w,
            };
        }

        self.misses += 1;

        // Miss: pick a victim way.
        let victim_idx = self.pick_victim(set_idx);
        let victim = self.ways_flat[base + victim_idx];
        let (writeback, evicted_clean) = if victim.valid {
            let victim_line = self.line_from(set_idx, victim.tag);
            self.unlink(set_idx, victim_idx as u8);
            if victim.dirty {
                self.writebacks += 1;
                (Some(victim_line), None)
            } else {
                (None, Some(victim_line))
            }
        } else {
            (None, None)
        };

        self.ways_flat[base + victim_idx] = Way {
            valid: true,
            dirty: write,
            tag,
            next: NONE,
            prev: NONE,
        };
        self.sets[set_idx].valid_mask |= 1u64 << victim_idx;
        self.push_front(set_idx, victim_idx as u8);

        AccessResult {
            hit: false,
            writeback,
            evicted_clean,
            slot: base + victim_idx,
        }
    }

    fn pick_victim(&self, set_idx: usize) -> usize {
        // Prefer the lowest-index invalid way; otherwise evict the
        // recency-list tail, the least-recently-touched way.
        let free = !self.sets[set_idx].valid_mask & self.full_mask();
        if free != 0 {
            free.trailing_zeros() as usize
        } else {
            self.sets[set_idx].tail as usize
        }
    }

    /// Remove a line if present; returns `Some(dirty)` if it was present.
    #[inline]
    pub fn invalidate(&mut self, line: LineAddr) -> Option<bool> {
        self.invalidate_slot(line).map(|(_, dirty)| dirty)
    }

    /// Remove a line if present; returns the global way index it occupied
    /// (the [`AccessResult::slot`] key) and its dirty bit.
    pub(crate) fn invalidate_slot(&mut self, line: LineAddr) -> Option<(usize, bool)> {
        let set_idx = self.set_index(line);
        let tag = self.tag_of(line);
        let w = self.find_way(set_idx, tag)?;
        let slot = set_idx * self.ways + w;
        let dirty = self.ways_flat[slot].dirty;
        self.unlink(set_idx, w as u8);
        self.ways_flat[slot] = Way::default();
        self.sets[set_idx].valid_mask &= !(1u64 << w);
        Some((slot, dirty))
    }

    /// Mark a resident line dirty (used when an upper level writes back into
    /// this level). Returns false if the line is not resident.
    pub fn mark_dirty(&mut self, line: LineAddr) -> bool {
        let set_idx = self.set_index(line);
        let tag = self.tag_of(line);
        match self.find_way(set_idx, tag) {
            Some(w) => {
                self.ways_flat[set_idx * self.ways + w].dirty = true;
                true
            }
            None => false,
        }
    }

    /// Number of valid lines currently resident (O(sets); intended for tests
    /// and assertions, not the hot path).
    pub fn occupancy(&self) -> usize {
        self.sets
            .iter()
            .map(|s| s.valid_mask.count_ones() as usize)
            .sum()
    }

    /// Every resident line with its global way index (tests only).
    #[cfg(test)]
    pub(crate) fn resident_lines(&self) -> impl Iterator<Item = (usize, LineAddr)> + '_ {
        self.ways_flat
            .iter()
            .enumerate()
            .filter(|(_, way)| way.valid)
            .map(|(slot, way)| (slot, self.line_from(slot / self.ways, way.tag)))
    }
}

impl Persist for Way {
    fn save(&self, w: &mut SnapshotWriter) {
        w.bool(self.valid);
        w.bool(self.dirty);
        w.u64(self.tag);
        w.u8(self.next);
        w.u8(self.prev);
    }
    fn restore(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        Ok(Way {
            valid: r.bool()?,
            dirty: r.bool()?,
            tag: r.u64()?,
            next: r.u8()?,
            prev: r.u8()?,
        })
    }
}

impl Persist for SetState {
    fn save(&self, w: &mut SnapshotWriter) {
        w.u8(self.head);
        w.u8(self.tail);
        w.u64(self.valid_mask);
    }
    fn restore(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        Ok(SetState {
            head: r.u8()?,
            tail: r.u8()?,
            valid_mask: r.u64()?,
        })
    }
}

// The full replacement state round-trips: every way with its recency-list
// links, every set's list endpoints and valid bitmap, and the hit/miss
// counters. Geometry is stored too, so a restored cache is self-contained;
// `set_div` is derived from it.
impl Persist for SetAssocCache {
    fn save(&self, w: &mut SnapshotWriter) {
        w.usize(self.sets.len());
        w.usize(self.ways);
        for way in &self.ways_flat {
            way.save(w);
        }
        for set in &self.sets {
            set.save(w);
        }
        w.u64(self.hits);
        w.u64(self.misses);
        w.u64(self.writebacks);
    }

    fn restore(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        let num_sets = r.usize()?;
        let ways = r.usize()?;
        if num_sets == 0 || ways == 0 || ways > 64 {
            return Err(SnapshotError::Corrupt(format!(
                "invalid cache geometry: {num_sets} sets x {ways} ways"
            )));
        }
        let total_ways = num_sets
            .checked_mul(ways)
            .ok_or_else(|| SnapshotError::Corrupt("cache geometry overflows".to_string()))?;
        // Each way encodes to at least 12 bytes; reject counts the image
        // cannot possibly hold before allocating.
        if total_ways.saturating_mul(12) > r.remaining() {
            return Err(SnapshotError::Corrupt(format!(
                "cache claims {total_ways} way(s) but only {} byte(s) remain",
                r.remaining()
            )));
        }
        let mut ways_flat = Vec::with_capacity(total_ways);
        for _ in 0..total_ways {
            ways_flat.push(Way::restore(r)?);
        }
        let mut sets = Vec::with_capacity(num_sets);
        for _ in 0..num_sets {
            sets.push(SetState::restore(r)?);
        }
        Ok(SetAssocCache {
            ways_flat,
            sets,
            ways,
            set_div: FastDivMod::new(num_sets as u64),
            hits: r.u64()?,
            misses: r.u64()?,
            writebacks: r.u64()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn small_cache() -> SetAssocCache {
        // 4 sets x 2 ways x 64B = 512B.
        SetAssocCache::new(512, 2)
    }

    #[test]
    fn geometry() {
        let c = SetAssocCache::new(8 * 1024 * 1024, 16);
        assert_eq!(c.ways(), 16);
        assert_eq!(c.num_sets(), 8 * 1024 * 1024 / 64 / 16);
    }

    #[test]
    #[should_panic]
    fn rejects_nondividing_geometry() {
        let _ = SetAssocCache::new(64 * 3, 2);
    }

    #[test]
    fn miss_then_hit() {
        let mut c = small_cache();
        let line = LineAddr::new(100);
        assert!(!c.access(line, false).hit);
        assert!(c.access(line, false).hit);
        assert!(c.probe(line));
        assert_eq!(c.hits(), 1);
        assert_eq!(c.misses(), 1);
        assert!((c.miss_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn dirty_eviction_produces_writeback() {
        let mut c = small_cache();
        // Fill set 0 (lines ≡ 0 mod 4) with 2 ways, one dirty.
        let a = LineAddr::new(0);
        let b = LineAddr::new(4);
        let d = LineAddr::new(8);
        c.access(a, true); // dirty
        c.access(b, false);
        // Next allocation to the same set must evict LRU = a (dirty).
        let res = c.access(d, false);
        assert!(!res.hit);
        assert_eq!(res.writeback, Some(a));
        assert_eq!(c.writebacks(), 1);
        assert!(!c.probe(a));
    }

    #[test]
    fn lru_keeps_recently_touched() {
        let mut c = small_cache();
        let a = LineAddr::new(0);
        let b = LineAddr::new(4);
        c.access(a, false);
        c.access(b, false);
        c.access(a, false); // a is now MRU
        let res = c.access(LineAddr::new(8), false);
        assert_eq!(res.evicted(), Some(b));
        assert!(c.probe(a));
    }

    #[test]
    fn invalidate_returns_dirty_state() {
        let mut c = small_cache();
        let a = LineAddr::new(1);
        let b = LineAddr::new(2);
        c.access(a, true);
        c.access(b, false);
        assert_eq!(c.invalidate(a), Some(true));
        assert_eq!(c.invalidate(b), Some(false));
        assert_eq!(c.invalidate(a), None);
        assert_eq!(c.occupancy(), 0);
    }

    #[test]
    fn invalidate_slot_returns_the_access_slot() {
        let mut c = small_cache();
        let a = LineAddr::new(6);
        let slot = c.access(a, true).slot;
        assert_eq!(c.invalidate_slot(a), Some((slot, true)));
        assert_eq!(c.invalidate_slot(a), None);
        assert_eq!(c.resident_lines().count(), 0);
    }

    #[test]
    fn invalidated_way_is_reused_before_eviction() {
        let mut c = small_cache();
        // Fill both ways of set 0, invalidate one, then allocate: the freed
        // way must be claimed without evicting the survivor.
        let a = LineAddr::new(0);
        let b = LineAddr::new(4);
        c.access(a, false);
        c.access(b, false);
        c.invalidate(a);
        let res = c.access(LineAddr::new(8), false);
        assert_eq!(res.evicted(), None);
        assert!(c.probe(b));
        assert_eq!(c.occupancy(), 2);
    }

    #[test]
    fn mark_dirty_only_when_resident() {
        let mut c = small_cache();
        let a = LineAddr::new(5);
        assert!(!c.mark_dirty(a));
        c.access(a, false);
        assert!(c.mark_dirty(a));
        // The dirty bit must now produce a writeback on eviction.
        c.access(LineAddr::new(1), false);
        let res = c.access(LineAddr::new(9), false);
        assert_eq!(res.writeback, Some(a));
    }

    /// The intrusive list and the valid bitmap always agree.
    fn assert_list_consistent(c: &SetAssocCache) {
        for set in 0..c.num_sets() {
            let base = set * c.ways;
            let mut seen = 0u64;
            let mut w = c.sets[set].head;
            let mut prev = NONE;
            let mut steps = 0;
            while w != NONE {
                assert!(steps <= c.ways, "cycle in recency list");
                let way = &c.ways_flat[base + w as usize];
                assert!(way.valid, "invalid way linked in recency list");
                assert_eq!(way.prev, prev, "broken prev link");
                seen |= 1u64 << w;
                prev = w;
                w = way.next;
                steps += 1;
            }
            assert_eq!(c.sets[set].tail, prev, "tail out of sync");
            assert_eq!(
                seen, c.sets[set].valid_mask,
                "recency list disagrees with valid bitmap in set {set}"
            );
        }
    }

    fn snapshot_of(c: &SetAssocCache) -> Vec<u8> {
        let mut w = banshee_common::SnapshotWriter::new();
        c.save(&mut w);
        w.into_bytes()
    }

    #[test]
    fn persist_rejects_corrupt_geometry_and_truncation() {
        let mut c = small_cache();
        c.access(LineAddr::new(3), true);
        let bytes = snapshot_of(&c);
        // Truncated mid-way.
        let mut r = banshee_common::SnapshotReader::new(&bytes[..bytes.len() / 2]);
        assert!(SetAssocCache::restore(&mut r).is_err());
        // 65-way geometry is rejected before any allocation.
        let mut bad = bytes.clone();
        bad[8..16].copy_from_slice(&65u64.to_le_bytes());
        let mut r = banshee_common::SnapshotReader::new(&bad);
        assert!(SetAssocCache::restore(&mut r).is_err());
        // An absurd set count cannot OOM the reader.
        let mut bad = bytes;
        bad[0..8].copy_from_slice(&(u64::MAX / 16).to_le_bytes());
        let mut r = banshee_common::SnapshotReader::new(&bad);
        assert!(SetAssocCache::restore(&mut r).is_err());
    }

    proptest! {
        /// save → restore → save is byte-identical and the restored cache
        /// behaves identically under further accesses.
        #[test]
        fn prop_persist_round_trip(
            ops in proptest::collection::vec((0u64..512, 0u8..3), 0..200),
            tail in proptest::collection::vec((0u64..512, 0u8..2), 0..50),
        ) {
            let mut c = SetAssocCache::new(2048, 4);
            for (l, op) in ops {
                match op {
                    0 => { c.access(LineAddr::new(l), false); }
                    1 => { c.access(LineAddr::new(l), true); }
                    _ => { c.invalidate(LineAddr::new(l)); }
                }
            }
            let bytes = snapshot_of(&c);
            let mut r = banshee_common::SnapshotReader::new(&bytes);
            let mut back = SetAssocCache::restore(&mut r).unwrap();
            prop_assert!(r.is_exhausted());
            prop_assert_eq!(snapshot_of(&back), bytes);
            for (l, write) in tail {
                prop_assert_eq!(
                    c.access(LineAddr::new(l), write == 1),
                    back.access(LineAddr::new(l), write == 1)
                );
            }
            prop_assert_eq!(c.hits(), back.hits());
            prop_assert_eq!(c.misses(), back.misses());
            prop_assert_eq!(c.writebacks(), back.writebacks());
        }

        /// Occupancy never exceeds capacity and accounting is consistent.
        #[test]
        fn prop_occupancy_bounded(lines in proptest::collection::vec(0u64..4096, 1..300)) {
            let mut c = SetAssocCache::new(4096, 4);
            let capacity = c.num_sets() * c.ways();
            for (i, l) in lines.iter().enumerate() {
                c.access(LineAddr::new(*l), i % 3 == 0);
                prop_assert!(c.occupancy() <= capacity);
            }
            assert_list_consistent(&c);
            prop_assert_eq!(c.hits() + c.misses(), lines.len() as u64);
        }

        /// After accessing a line it is always resident (allocate-on-miss).
        #[test]
        fn prop_accessed_line_is_resident(l in 0u64..100_000) {
            let mut c = SetAssocCache::new(8192, 8);
            c.access(LineAddr::new(l), false);
            prop_assert!(c.probe(LineAddr::new(l)));
        }

        /// A dirty line is never silently dropped: it either stays resident or
        /// appears as a writeback.
        #[test]
        fn prop_dirty_lines_never_lost(lines in proptest::collection::vec(0u64..512, 1..400)) {
            let mut c = SetAssocCache::new(2048, 2);
            let dirty_line = LineAddr::new(1000);
            c.access(dirty_line, true);
            let mut written_back = false;
            for l in lines {
                let res = c.access(LineAddr::new(l), false);
                if res.writeback == Some(dirty_line) {
                    written_back = true;
                }
            }
            prop_assert!(written_back || c.probe(dirty_line));
        }

        /// The recency list survives arbitrary access/invalidate
        /// interleavings.
        #[test]
        fn prop_list_consistent_under_churn(
            ops in proptest::collection::vec((0u64..256, 0u8..3), 1..400),
        ) {
            let mut c = SetAssocCache::new(2048, 4);
            for (l, op) in ops {
                match op {
                    0 => { c.access(LineAddr::new(l), false); }
                    1 => { c.access(LineAddr::new(l), true); }
                    _ => { c.invalidate(LineAddr::new(l)); }
                }
            }
            assert_list_consistent(&c);
        }
    }
}
