//! A generic set-associative, tag-only cache model with LRU replacement.
//!
//! The model tracks presence and dirtiness of cache lines, not their data.
//! Only [`crate::CacheHierarchy`] builds it, for the SRAM levels (L1D, L2,
//! LLC). The DRAM-cache designs keep their own tag structures.
//!
//! These lookups run on **every** simulated access (L1 + L2 + LLC, plus the
//! back-invalidations of every LLC eviction), and at the paper's footprints
//! nearly all of them miss. So a set operation takes no data-dependent
//! branch except hit/miss and free/full:
//!
//! * `tags` holds one tag per way, contiguous with stride indexing
//!   (`set * ways + way`); an invalid way holds tag 0. A lookup ORs
//!   `(tag == t) << way` over the whole set with no early exit, masks the
//!   result with the set's valid bits and takes `trailing_zeros`.
//! * `ranks` holds one recency rank per way: 0 is the most recently used.
//!   The valid ways of a set hold exactly the ranks `0..n`; an invalid way
//!   holds [`INVALID`]. A touch (hit or fill) ages every rank below the
//!   touched way's old one and gives the touched way rank 0; a fill into a
//!   free way uses old rank [`INVALID`], so every valid way ages. An
//!   invalidation closes the gap above the removed rank.
//! * per set, a valid and a dirty bitmap ([`SetMasks`]).
//!
//! Free ways are claimed lowest-index-first, and a full set evicts the way
//! of rank `ways - 1`, the least recently touched. `tests/lru_model.rs`
//! checks this against a timestamp-LRU reference model.
//!
//! Images keep the encoding of the intrusive recency list this layout
//! replaced (see the [`Persist`] impl), and `cache_reference.rs` keeps that
//! list-based cache for the differential tests.

use banshee_common::persist::{Persist, SnapshotError, SnapshotReader, SnapshotWriter};
use banshee_common::{FastDivMod, LineAddr};

/// Recency rank of an invalid way.
const INVALID: u8 = u8::MAX;

/// "No neighbour" in the image's recency-list encoding.
const NONE: u8 = u8::MAX;

/// Per-set presence and dirtiness: bit `w` describes way `w`.
#[derive(Debug, Clone, Copy, Default)]
struct SetMasks {
    valid: u64,
    /// Always a subset of `valid`.
    dirty: u64,
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
    /// The tag of every way, contiguous: way `w` of set `s` lives at
    /// `s * ways + w`. 0 for an invalid way.
    tags: Vec<u64>,
    /// The recency rank of every way, indexed like `tags`.
    ranks: Vec<u8>,
    /// Per-set valid and dirty bitmaps.
    masks: Vec<SetMasks>,
    ways: usize,
    /// Set-count divider (mask/shift for power-of-two set counts).
    set_div: FastDivMod,
    hits: u64,
    misses: u64,
    writebacks: u64,
}

/// The low `ways` bits (`ways` in `1..=64`).
#[inline]
fn full_mask(ways: usize) -> u64 {
    u64::MAX >> (64 - ways)
}

/// Bit `i` set ⇔ `values[i] == value`, computed over the whole slice.
#[inline]
fn eq_mask<T: Copy + PartialEq>(values: &[T], value: T) -> u64 {
    values
        .iter()
        .enumerate()
        .fold(0, |mask, (i, &v)| mask | u64::from(v == value) << i)
}

/// Make way `w` the most recently used: every rank below its old one ages
/// by one. An old rank of [`INVALID`] (a fill into a free way) ages every
/// valid way and leaves the invalid ones as they are.
#[inline]
fn touch(ranks: &mut [u8], w: usize) {
    let old = ranks[w];
    for r in ranks.iter_mut() {
        *r += u8::from(*r < old);
    }
    ranks[w] = 0;
}

/// Take way `w` out of the recency order: every valid rank above its old
/// one moves up by one.
#[inline]
fn forget(ranks: &mut [u8], w: usize) {
    let old = ranks[w];
    for r in ranks.iter_mut() {
        *r -= u8::from((*r > old) & (*r != INVALID));
    }
    ranks[w] = INVALID;
}

impl SetAssocCache {
    /// Build a cache holding `capacity_bytes` of 64-byte lines with `ways`
    /// associativity.
    ///
    /// # Panics
    /// Panics if the geometry does not divide evenly, is empty, or exceeds
    /// 64 ways (the per-set bitmaps' width).
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
            tags: vec![0; num_sets * ways],
            ranks: vec![INVALID; num_sets * ways],
            masks: vec![SetMasks::default(); num_sets],
            ways,
            set_div: FastDivMod::new(num_sets as u64),
            hits: 0,
            misses: 0,
            writebacks: 0,
        }
    }

    /// Number of sets.
    pub fn num_sets(&self) -> usize {
        self.masks.len()
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
        LineAddr::new(tag * self.masks.len() as u64 + set as u64)
    }

    /// The set of `line`, the first way index of that set, the tag of
    /// `line`, and the bit of the valid way holding it (0 if none).
    #[inline]
    fn lookup(&self, line: LineAddr) -> (usize, usize, u64, u64) {
        let set = self.set_index(line);
        let base = set * self.ways;
        let tag = self.tag_of(line);
        let matches = eq_mask(&self.tags[base..base + self.ways], tag);
        (set, base, tag, matches & self.masks[set].valid)
    }

    /// Look up a line without changing any state.
    pub fn probe(&self, line: LineAddr) -> bool {
        self.lookup(line).3 != 0
    }

    /// Access `line`; on a miss, allocate it (possibly evicting a victim).
    /// `write` marks the line dirty.
    pub fn access(&mut self, line: LineAddr, write: bool) -> AccessResult {
        let (set, base, tag, hit) = self.lookup(line);
        let end = base + self.ways;
        if hit != 0 {
            let w = hit.trailing_zeros() as usize;
            self.masks[set].dirty |= u64::from(write) << w;
            touch(&mut self.ranks[base..end], w);
            self.hits += 1;
            return AccessResult {
                hit: true,
                writeback: None,
                evicted_clean: None,
                slot: base + w,
            };
        }

        self.misses += 1;
        let SetMasks { valid, dirty } = self.masks[set];
        // Prefer the lowest-index free way; otherwise evict the least
        // recently touched one.
        let free = !valid & full_mask(self.ways);
        let (w, writeback, evicted_clean) = if free != 0 {
            (free.trailing_zeros() as usize, None, None)
        } else {
            let lru = eq_mask(&self.ranks[base..end], (self.ways - 1) as u8);
            let w = lru.trailing_zeros() as usize;
            let victim = self.line_from(set, self.tags[base + w]);
            let victim_dirty = dirty >> w & 1 != 0;
            self.writebacks += u64::from(victim_dirty);
            (
                w,
                victim_dirty.then_some(victim),
                (!victim_dirty).then_some(victim),
            )
        };
        let bit = 1u64 << w;
        self.tags[base + w] = tag;
        self.masks[set] = SetMasks {
            valid: valid | bit,
            dirty: dirty & !bit | u64::from(write) << w,
        };
        touch(&mut self.ranks[base..end], w);
        AccessResult {
            hit: false,
            writeback,
            evicted_clean,
            slot: base + w,
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
        let (set, base, _, hit) = self.lookup(line);
        if hit == 0 {
            return None;
        }
        let w = hit.trailing_zeros() as usize;
        let masks = &mut self.masks[set];
        let dirty = masks.dirty & hit != 0;
        masks.valid &= !hit;
        masks.dirty &= !hit;
        self.tags[base + w] = 0;
        forget(&mut self.ranks[base..base + self.ways], w);
        Some((base + w, dirty))
    }

    /// Mark a resident line dirty (used when an upper level writes back into
    /// this level). Returns false if the line is not resident.
    pub fn mark_dirty(&mut self, line: LineAddr) -> bool {
        let (set, _, _, hit) = self.lookup(line);
        self.masks[set].dirty |= hit;
        hit != 0
    }

    /// Number of valid lines currently resident (O(sets); intended for tests
    /// and assertions, not the hot path).
    pub fn occupancy(&self) -> usize {
        self.masks
            .iter()
            .map(|m| m.valid.count_ones() as usize)
            .sum()
    }

    /// Every resident line with its global way index (tests only).
    #[cfg(test)]
    pub(crate) fn resident_lines(&self) -> impl Iterator<Item = (usize, LineAddr)> + '_ {
        (0..self.tags.len())
            .filter(|&slot| self.masks[slot / self.ways].valid >> (slot % self.ways) & 1 != 0)
            .map(|slot| (slot, self.line_from(slot / self.ways, self.tags[slot])))
    }
}

// The image encodes the replacement state as the intrusive recency list the
// rank layout replaced, so images did not change with it: per way `valid,
// dirty, tag, next, prev` (the list neighbours towards the LRU and the MRU
// end, `NONE` at either end), then per set `head, tail, valid_mask` (the MRU
// and the LRU way), then the hit/miss/writeback counters. An invalid way is
// `false, false, 0, NONE, NONE`. Geometry is stored too, so a restored cache
// is self-contained; `set_div` is derived from it.
impl Persist for SetAssocCache {
    fn save(&self, w: &mut SnapshotWriter) {
        w.usize(self.num_sets());
        w.usize(self.ways);
        let mut ends = Vec::with_capacity(self.num_sets());
        for (set, masks) in self.masks.iter().enumerate() {
            let base = set * self.ways;
            let ranks = &self.ranks[base..base + self.ways];
            // `order[rank + 1]` is the way of that rank. Before rank 0 and
            // past the last valid rank it is `NONE`, which ends the list.
            let mut order = [NONE; 66];
            for (way, &rank) in ranks.iter().enumerate() {
                if rank != INVALID {
                    order[rank as usize + 1] = way as u8;
                }
            }
            for (way, &rank) in ranks.iter().enumerate() {
                let valid = rank != INVALID;
                let (next, prev) = if valid {
                    (order[rank as usize + 2], order[rank as usize])
                } else {
                    (NONE, NONE)
                };
                w.bool(valid);
                w.bool(masks.dirty >> way & 1 != 0);
                w.u64(self.tags[base + way]);
                w.u8(next);
                w.u8(prev);
            }
            ends.push((order[1], order[masks.valid.count_ones() as usize]));
        }
        for ((head, tail), masks) in ends.into_iter().zip(&self.masks) {
            w.u8(head);
            w.u8(tail);
            w.u64(masks.valid);
        }
        w.u64(self.hits);
        w.u64(self.misses);
        w.u64(self.writebacks);
    }

    /// Rejects, as [`SnapshotError::Corrupt`], every image that is not one
    /// list per set covering exactly its valid ways, so that a restored
    /// cache keeps the rank invariants and saves back to the same bytes.
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
        // Each way encodes to 12 bytes; reject counts the image cannot
        // possibly hold before allocating.
        if total_ways.saturating_mul(12) > r.remaining() {
            return Err(SnapshotError::Corrupt(format!(
                "cache claims {total_ways} way(s) but only {} byte(s) remain",
                r.remaining()
            )));
        }
        let corrupt =
            |set: usize, what: &str| SnapshotError::Corrupt(format!("cache set {set}: {what}"));
        let mut tags = Vec::with_capacity(total_ways);
        let mut links = Vec::with_capacity(total_ways);
        let mut masks = vec![SetMasks::default(); num_sets];
        for slot in 0..total_ways {
            let (set, way) = (slot / ways, slot % ways);
            let (valid, dirty, tag) = (r.bool()?, r.bool()?, r.u64()?);
            let (next, prev) = (r.u8()?, r.u8()?);
            if !valid && (dirty || tag != 0 || next != NONE || prev != NONE) {
                return Err(corrupt(
                    set,
                    &format!("invalid way {way} carries a dirty bit, tag or link"),
                ));
            }
            masks[set].valid |= u64::from(valid) << way;
            masks[set].dirty |= u64::from(dirty) << way;
            tags.push(tag);
            links.push((next, prev));
        }
        // Walk each list from its head: the k-th way on it gets rank k.
        let mut ranks = vec![INVALID; total_ways];
        for (set, masks) in masks.iter().enumerate() {
            let (head, tail, valid_mask) = (r.u8()?, r.u8()?, r.u64()?);
            let base = set * ways;
            let (mut listed, mut prev, mut way, mut rank) = (0u64, NONE, head, 0u8);
            while way != NONE {
                let w = way as usize;
                if w >= ways {
                    return Err(corrupt(set, &format!("recency list names way {way}")));
                }
                if listed >> w & 1 != 0 {
                    return Err(corrupt(set, "recency list has a cycle"));
                }
                if masks.valid >> w & 1 == 0 {
                    return Err(corrupt(set, &format!("invalid way {way} is linked")));
                }
                let (next, back) = links[base + w];
                if back != prev {
                    return Err(corrupt(set, &format!("way {way} has a broken prev link")));
                }
                listed |= 1 << w;
                ranks[base + w] = rank;
                rank += 1;
                prev = way;
                way = next;
            }
            if listed != masks.valid {
                return Err(corrupt(set, "a valid way is missing from the recency list"));
            }
            if tail != prev {
                return Err(corrupt(set, "tail disagrees with the recency list"));
            }
            if valid_mask != masks.valid {
                return Err(corrupt(set, "valid mask disagrees with the ways"));
            }
        }
        Ok(SetAssocCache {
            tags,
            ranks,
            masks,
            ways,
            set_div: FastDivMod::new(num_sets as u64),
            hits: r.u64()?,
            misses: r.u64()?,
            writebacks: r.u64()?,
        })
    }
}

#[cfg(test)]
#[path = "cache_reference.rs"]
mod reference;

#[cfg(test)]
mod tests {
    use super::reference::ReferenceCache;
    use super::*;
    use proptest::collection::vec;
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

    /// The mask and rank invariants: valid bits name real ways, dirty bits
    /// only valid ones; an invalid way holds tag 0 and rank `INVALID`; the
    /// valid ways of a set hold the distinct ranks `0..n`, so exactly the
    /// ranks `0..n`.
    fn check_invariants(c: &SetAssocCache) -> Result<(), String> {
        for (set, masks) in c.masks.iter().enumerate() {
            if masks.valid & !full_mask(c.ways) != 0 {
                return Err(format!("set {set}: valid bit past way {}", c.ways));
            }
            if masks.dirty & !masks.valid != 0 {
                return Err(format!("set {set}: dirty bit on an invalid way"));
            }
            let len = masks.valid.count_ones();
            let mut ranks_seen = 0u64;
            for way in 0..c.ways {
                let slot = set * c.ways + way;
                let (tag, rank) = (c.tags[slot], c.ranks[slot]);
                if masks.valid >> way & 1 == 0 {
                    if (tag, rank) != (0, INVALID) {
                        return Err(format!("set {set}: invalid way {way} holds {tag}/{rank}"));
                    }
                } else if u32::from(rank) >= len || ranks_seen >> rank & 1 != 0 {
                    return Err(format!("set {set}: way {way} has rank {rank} of {len}"));
                } else {
                    ranks_seen |= 1 << rank;
                }
            }
        }
        Ok(())
    }

    fn snapshot_of(c: &impl Persist) -> Vec<u8> {
        let mut w = banshee_common::SnapshotWriter::new();
        c.save(&mut w);
        w.into_bytes()
    }

    fn restore<T: Persist>(bytes: &[u8]) -> T {
        let mut r = banshee_common::SnapshotReader::new(bytes);
        let back = T::restore(&mut r).expect("image written by a cache restores");
        assert!(r.is_exhausted());
        back
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

    /// Every image the rank layout cannot represent is a typed error. The
    /// image is one set of 4 ways holding lines 0, 1 and 2 in ways 0, 1
    /// and 2: the list runs 2 → 1 → 0 and way 3 is free.
    #[test]
    fn restore_rejects_images_that_are_not_one_list_of_the_valid_ways() {
        let mut c = SetAssocCache::new(4 * 64, 4);
        for line in 0..3 {
            c.access(LineAddr::new(line), false);
        }
        let image = snapshot_of(&c);
        restore::<SetAssocCache>(&image);
        // Byte offsets of a way's fields and of the set's fields.
        let way = |w: usize, field: usize| 16 + 12 * w + field;
        let (valid, dirty, tag, next, prev) = (0, 1, 2, 10, 11);
        let (head, tail, mask) = (16 + 12 * 4, 16 + 12 * 4 + 1, 16 + 12 * 4 + 2);
        let cases: [(&str, usize, u8); 11] = [
            ("cycle", way(0, next), 2),
            ("out-of-range next", way(1, next), 4),
            ("out-of-range head", head, 7),
            ("valid way missing from the list", way(3, valid), 1),
            ("invalid way linked into the list", way(0, next), 3),
            ("broken prev link", way(1, prev), 0),
            ("tail disagrees", tail, 1),
            ("valid mask disagrees", mask, 0b1111),
            ("dirty invalid way", way(3, dirty), 1),
            ("tagged invalid way", way(3, tag), 5),
            ("linked invalid way", way(3, next), 0),
        ];
        for (what, offset, value) in cases {
            let mut bad = image.clone();
            bad[offset] = value;
            let mut r = banshee_common::SnapshotReader::new(&bad);
            match SetAssocCache::restore(&mut r) {
                Err(SnapshotError::Corrupt(_)) => {}
                other => panic!("{what}: expected a corrupt-image error, got {other:?}"),
            }
        }
    }

    proptest! {
        /// save → restore → save is byte-identical and the restored cache
        /// behaves identically under further accesses.
        #[test]
        fn prop_persist_round_trip(
            ops in vec((0u64..512, 0u8..3), 0..200),
            tail in vec((0u64..512, 0u8..2), 0..50),
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
            let mut back: SetAssocCache = restore(&bytes);
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
        fn prop_occupancy_bounded(lines in vec(0u64..4096, 1..300)) {
            let mut c = SetAssocCache::new(4096, 4);
            let capacity = c.num_sets() * c.ways();
            for (i, l) in lines.iter().enumerate() {
                c.access(LineAddr::new(*l), i % 3 == 0);
                prop_assert!(c.occupancy() <= capacity);
            }
            prop_assert_eq!(check_invariants(&c), Ok(()));
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
        fn prop_dirty_lines_never_lost(lines in vec(0u64..512, 1..400)) {
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

        /// The mask and rank invariants hold after every step of arbitrary
        /// access/invalidate/mark-dirty interleavings.
        #[test]
        fn prop_rank_invariants_hold_under_churn(
            ops in vec((0u64..256, 0u8..4), 1..400),
        ) {
            let mut c = SetAssocCache::new(2048, 4);
            for (l, op) in ops {
                let line = LineAddr::new(l);
                match op {
                    0 | 1 => { c.access(line, op == 1); }
                    2 => { c.invalidate(line); }
                    _ => { c.mark_dirty(line); }
                }
                prop_assert_eq!(check_invariants(&c), Ok(()));
            }
        }

        /// Restoring a mutated image never panics. What it accepts keeps
        /// the invariants and saves back to the bytes it read.
        #[test]
        fn prop_restore_never_panics_on_mutated_images(
            ops in vec((0u64..64, 0u8..3), 0..120),
            edits in vec((any::<usize>(), 0u8..4, any::<u8>()), 1..4),
        ) {
            let mut c = SetAssocCache::new(4 * 4 * 64, 4);
            for (l, op) in ops {
                match op {
                    0 | 1 => { c.access(LineAddr::new(l), op == 1); }
                    _ => { c.invalidate(LineAddr::new(l)); }
                }
            }
            let mut bytes = snapshot_of(&c);
            for (at, kind, raw) in edits {
                // Small values and `NONE` make plausible flags, way indices
                // and links, so most edits reach the list checks.
                let len = bytes.len();
                bytes[at % len] = match kind {
                    0 => raw,
                    1 => raw % 2,
                    2 => raw % 8,
                    _ => NONE,
                };
            }
            let mut r = banshee_common::SnapshotReader::new(&bytes);
            if let Ok(back) = SetAssocCache::restore(&mut r) {
                let read = bytes.len() - r.remaining();
                prop_assert_eq!(check_invariants(&back), Ok(()));
                prop_assert_eq!(snapshot_of(&back), bytes[..read].to_vec());
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The rank cache matches the list-based reference at 1 to 64 ways:
        /// every result and, after every step, every image byte. Halfway
        /// through, each side resumes from the other's image.
        #[test]
        fn prop_matches_reference_cache(
            shape in (0usize..6, 0u32..3),
            ops in vec((0u8..8, any::<u64>()), 1..500),
            switch_at in 0usize..500,
        ) {
            let ways = [1, 2, 4, 8, 16, 64][shape.0];
            let sets = 1usize << shape.1;
            let capacity = (sets * ways * 64) as u64;
            // Three times the capacity in distinct lines: streams both hit
            // and evict.
            let lines = 3 * (sets * ways) as u64;
            let mut cache = SetAssocCache::new(capacity, ways);
            let mut reference = ReferenceCache::new(capacity, ways);
            for (step, (op, raw)) in ops.into_iter().enumerate() {
                if step == switch_at {
                    let image = snapshot_of(&reference);
                    reference = restore(&snapshot_of(&cache));
                    cache = restore(&image);
                }
                let line = LineAddr::new(raw % lines);
                match op {
                    0..=3 => prop_assert_eq!(
                        cache.access(line, op % 2 == 1),
                        reference.access(line, op % 2 == 1)
                    ),
                    4 | 5 => prop_assert_eq!(
                        cache.invalidate_slot(line),
                        reference.invalidate_slot(line)
                    ),
                    6 => prop_assert_eq!(cache.mark_dirty(line), reference.mark_dirty(line)),
                    _ => prop_assert_eq!(cache.probe(line), reference.probe(line)),
                }
                prop_assert_eq!(snapshot_of(&cache), snapshot_of(&reference));
            }
            prop_assert_eq!(check_invariants(&cache), Ok(()));
            prop_assert_eq!(
                (cache.hits(), cache.misses(), cache.writebacks()),
                (reference.hits(), reference.misses(), reference.writebacks())
            );
        }
    }
}
