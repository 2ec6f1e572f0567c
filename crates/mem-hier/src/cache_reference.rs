//! The SRAM set as it was before tag-compare bitmasks and recency ranks:
//! an array of `Way`s that each carry valid and dirty flags and the `u8`
//! links of an intrusive doubly-linked recency list, an early-exit scan for
//! lookups, and list relinking on every hit, fill and invalidation.
//!
//! Its [`Persist`] impl writes that layout verbatim, which is the image
//! encoding [`SetAssocCache`] still writes. The differential tests hold the
//! rank-based cache to it, result by result and image byte by image byte.

use super::*;

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

/// The list-based set-associative LRU cache.
#[derive(Debug, Clone)]
pub(super) struct ReferenceCache {
    ways_flat: Vec<Way>,
    sets: Vec<SetState>,
    ways: usize,
    hits: u64,
    misses: u64,
    writebacks: u64,
}

impl ReferenceCache {
    pub(super) fn new(capacity_bytes: u64, ways: usize) -> Self {
        let num_sets = (capacity_bytes / banshee_common::CACHE_LINE_SIZE) as usize / ways;
        ReferenceCache {
            ways_flat: vec![Way::default(); num_sets * ways],
            sets: vec![SetState::default(); num_sets],
            ways,
            hits: 0,
            misses: 0,
            writebacks: 0,
        }
    }

    fn set_index(&self, line: LineAddr) -> usize {
        (line.raw() % self.sets.len() as u64) as usize
    }

    fn tag_of(&self, line: LineAddr) -> u64 {
        line.raw() / self.sets.len() as u64
    }

    fn line_from(&self, set: usize, tag: u64) -> LineAddr {
        LineAddr::new(tag * self.sets.len() as u64 + set as u64)
    }

    fn full_mask(&self) -> u64 {
        if self.ways == 64 {
            u64::MAX
        } else {
            (1u64 << self.ways) - 1
        }
    }

    fn find_way(&self, set: usize, tag: u64) -> Option<usize> {
        let base = set * self.ways;
        let ways = &self.ways_flat[base..base + self.ways];
        ways.iter().position(|w| w.valid && w.tag == tag)
    }

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

    fn move_to_front(&mut self, set: usize, w: u8) {
        if self.sets[set].head != w {
            self.unlink(set, w);
            self.push_front(set, w);
        }
    }

    pub(super) fn probe(&self, line: LineAddr) -> bool {
        self.find_way(self.set_index(line), self.tag_of(line))
            .is_some()
    }

    pub(super) fn access(&mut self, line: LineAddr, write: bool) -> AccessResult {
        let set_idx = self.set_index(line);
        let tag = self.tag_of(line);
        let base = set_idx * self.ways;

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

        // Prefer the lowest-index invalid way; otherwise evict the
        // recency-list tail, the least-recently-touched way.
        let free = !self.sets[set_idx].valid_mask & self.full_mask();
        let victim_idx = if free != 0 {
            free.trailing_zeros() as usize
        } else {
            self.sets[set_idx].tail as usize
        };
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

    pub(super) fn invalidate_slot(&mut self, line: LineAddr) -> Option<(usize, bool)> {
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

    pub(super) fn mark_dirty(&mut self, line: LineAddr) -> bool {
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

    pub(super) fn hits(&self) -> u64 {
        self.hits
    }

    pub(super) fn misses(&self) -> u64 {
        self.misses
    }

    pub(super) fn writebacks(&self) -> u64 {
        self.writebacks
    }
}

impl Persist for ReferenceCache {
    fn save(&self, w: &mut SnapshotWriter) {
        w.usize(self.sets.len());
        w.usize(self.ways);
        for way in &self.ways_flat {
            w.bool(way.valid);
            w.bool(way.dirty);
            w.u64(way.tag);
            w.u8(way.next);
            w.u8(way.prev);
        }
        for set in &self.sets {
            w.u8(set.head);
            w.u8(set.tail);
            w.u64(set.valid_mask);
        }
        w.u64(self.hits);
        w.u64(self.misses);
        w.u64(self.writebacks);
    }

    /// Reads the fields back as they are, without checking them: only
    /// images the writers above produce are fed to it.
    fn restore(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        let num_sets = r.usize()?;
        let ways = r.usize()?;
        let mut ways_flat = Vec::with_capacity(num_sets * ways);
        for _ in 0..num_sets * ways {
            ways_flat.push(Way {
                valid: r.bool()?,
                dirty: r.bool()?,
                tag: r.u64()?,
                next: r.u8()?,
                prev: r.u8()?,
            });
        }
        let mut sets = Vec::with_capacity(num_sets);
        for _ in 0..num_sets {
            sets.push(SetState {
                head: r.u8()?,
                tail: r.u8()?,
                valid_mask: r.u64()?,
            });
        }
        Ok(ReferenceCache {
            ways_flat,
            sets,
            ways,
            hits: r.u64()?,
            misses: r.u64()?,
            writebacks: r.u64()?,
        })
    }
}
