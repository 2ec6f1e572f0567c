//! The DRAM-cache metadata layout (Section 4.1, Figure 3).
//!
//! Tags and data are stored in *separate* DRAM rows (unlike Alloy/Unison's
//! tag-and-data units) because Banshee touches tags only on cache
//! replacement and on LLC dirty evictions that miss in the tag buffer. Each
//! cache set's metadata occupies 32 bytes of a tag row and describes:
//!
//! * `ways` **cached** entries — the pages resident in the set, each with a
//!   tag, a frequency counter, a valid bit and a dirty bit, and
//! * [`CANDIDATES_PER_SET`] `candidate` entries (5 in Table 3) — pages that are *not* resident but
//!   whose frequency counters are being tracked so they can be promoted when
//!   they become hot.
//!
//! With a 48-bit address space, 2^16 sets and 4 KiB pages, a cached entry is
//! 20 + 5 + 1 + 1 = 27 bits and a candidate entry 25 bits, so 4 + 5 entries
//! fit in the 32-byte budget — the arithmetic checked by
//! [`CacheSetMetadata::fits_in_32_bytes`].

use banshee_common::persist::{Persist, SnapshotError, SnapshotReader, SnapshotWriter};
use serde::{Deserialize, Serialize};

/// Size in bytes of one set's metadata record in the tag row.
pub const SET_METADATA_BYTES: u64 = 32;

/// Candidate (non-resident) pages tracked per set (5, Table 3).
pub const CANDIDATES_PER_SET: usize = 5;

/// One tracked page (cached or candidate).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MetadataEntry {
    /// The caching unit (4 KiB page number or 2 MiB large-page number).
    pub unit: u64,
    /// Frequency counter (saturating at the configured maximum).
    pub count: u32,
    /// Whether the entry holds a real page.
    pub valid: bool,
}

impl MetadataEntry {
    /// An empty slot.
    pub const INVALID: MetadataEntry = MetadataEntry {
        unit: 0,
        count: 0,
        valid: false,
    };
}

/// Metadata for one DRAM-cache set.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CacheSetMetadata {
    /// Resident pages, indexed by way.
    pub cached: Vec<MetadataEntry>,
    /// Candidate (non-resident) pages being tracked.
    pub candidates: Vec<MetadataEntry>,
}

impl CacheSetMetadata {
    /// An empty set with the given geometry.
    pub fn new(ways: usize, candidates: usize) -> Self {
        CacheSetMetadata {
            cached: vec![MetadataEntry::INVALID; ways],
            candidates: vec![MetadataEntry::INVALID; candidates],
        }
    }

    /// The way holding `unit`, if resident.
    pub fn find_cached(&self, unit: u64) -> Option<usize> {
        self.cached.iter().position(|e| e.valid && e.unit == unit)
    }

    /// The candidate slot tracking `unit`, if any.
    pub fn find_candidate(&self, unit: u64) -> Option<usize> {
        self.candidates
            .iter()
            .position(|e| e.valid && e.unit == unit)
    }

    /// An invalid (free) way, if any.
    pub fn free_way(&self) -> Option<usize> {
        self.cached.iter().position(|e| !e.valid)
    }

    /// The way with the minimum frequency counter (invalid ways count as 0),
    /// together with that counter value.
    pub fn min_cached(&self) -> (usize, u32) {
        self.cached
            .iter()
            .enumerate()
            .map(|(i, e)| (i, if e.valid { e.count } else { 0 }))
            .min_by_key(|&(_, c)| c)
            .unwrap_or((0, 0))
    }

    /// Highest counter value present in the set (cached or candidate).
    pub fn max_count(&self) -> u32 {
        self.cached
            .iter()
            .chain(self.candidates.iter())
            .filter(|e| e.valid)
            .map(|e| e.count)
            .max()
            .unwrap_or(0)
    }

    /// Halve every counter in the set (the hardware shift on counter
    /// saturation, Algorithm 1 lines 10–14).
    pub fn halve_all_counters(&mut self) {
        for e in self.cached.iter_mut().chain(self.candidates.iter_mut()) {
            if e.valid {
                e.count /= 2;
            }
        }
    }

    /// Number of valid cached entries.
    pub fn cached_occupancy(&self) -> usize {
        self.cached.iter().filter(|e| e.valid).count()
    }

    /// Number of valid candidate entries.
    pub fn candidate_occupancy(&self) -> usize {
        self.candidates.iter().filter(|e| e.valid).count()
    }

    /// Check the Figure 3 bit budget: `ways` cached entries of
    /// `tag_bits + counter_bits + 2` bits plus `candidates` entries of
    /// `tag_bits + counter_bits` bits must fit in 32 bytes.
    pub fn fits_in_32_bytes(
        ways: usize,
        candidates: usize,
        tag_bits: u32,
        counter_bits: u32,
    ) -> bool {
        let cached_bits = ways as u32 * (tag_bits + counter_bits + 2);
        let candidate_bits = candidates as u32 * (tag_bits + counter_bits);
        cached_bits + candidate_bits <= (SET_METADATA_BYTES * 8) as u32
    }
}

/// The full tag-row structure: one [`CacheSetMetadata`] per DRAM-cache set.
#[derive(Debug, Clone)]
pub struct MetadataTable {
    sets: Vec<CacheSetMetadata>,
    /// Set-count divider (mask for power-of-two set counts; `set_of` runs on
    /// every controller access).
    set_div: banshee_common::FastDivMod,
}

impl MetadataTable {
    /// Build the table for `sets` sets with the given per-set geometry.
    pub fn new(sets: u64, ways: usize, candidates: usize) -> Self {
        assert!(sets > 0 && ways > 0, "metadata table needs geometry");
        MetadataTable {
            sets: (0..sets)
                .map(|_| CacheSetMetadata::new(ways, candidates))
                .collect(),
            set_div: banshee_common::FastDivMod::new(sets),
        }
    }

    /// Number of sets.
    pub fn num_sets(&self) -> u64 {
        self.sets.len() as u64
    }

    /// The set index a caching unit maps to.
    pub fn set_of(&self, unit: u64) -> u64 {
        self.set_div.rem(unit)
    }

    /// Borrow a set's metadata.
    pub fn set(&self, index: u64) -> &CacheSetMetadata {
        &self.sets[index as usize]
    }

    /// Mutably borrow a set's metadata.
    pub fn set_mut(&mut self, index: u64) -> &mut CacheSetMetadata {
        &mut self.sets[index as usize]
    }

    /// Total resident pages across all sets (for tests/statistics).
    pub fn total_cached(&self) -> usize {
        self.sets.iter().map(|s| s.cached_occupancy()).sum()
    }
}

impl Persist for MetadataEntry {
    fn save(&self, w: &mut SnapshotWriter) {
        w.u64(self.unit);
        w.u32(self.count);
        w.bool(self.valid);
    }
    fn restore(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        Ok(MetadataEntry {
            unit: r.u64()?,
            count: r.u32()?,
            valid: r.bool()?,
        })
    }
}

impl Persist for CacheSetMetadata {
    fn save(&self, w: &mut SnapshotWriter) {
        w.seq(self.cached.iter());
        w.seq(self.candidates.iter());
    }
    fn restore(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        Ok(CacheSetMetadata {
            cached: r.seq(13)?,
            candidates: r.seq(13)?,
        })
    }
}

impl Persist for MetadataTable {
    fn save(&self, w: &mut SnapshotWriter) {
        w.seq(self.sets.iter());
    }
    fn restore(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        let sets: Vec<CacheSetMetadata> = r.seq(16)?;
        if sets.is_empty() {
            return Err(SnapshotError::Corrupt(
                "metadata table has no sets".to_string(),
            ));
        }
        let (ways, candidates) = (sets[0].cached.len(), sets[0].candidates.len());
        if ways == 0 {
            return Err(SnapshotError::Corrupt(
                "metadata table has no ways".to_string(),
            ));
        }
        if sets
            .iter()
            .any(|s| s.cached.len() != ways || s.candidates.len() != candidates)
        {
            return Err(SnapshotError::Corrupt(
                "metadata sets disagree on geometry".to_string(),
            ));
        }
        let set_div = banshee_common::FastDivMod::new(sets.len() as u64);
        Ok(MetadataTable { sets, set_div })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_bit_budget_fits() {
        // Section 4.1 footnote: 20-bit tag, 5-bit counter, 4 cached + 5
        // candidate entries fit in 32 bytes.
        assert!(CacheSetMetadata::fits_in_32_bytes(4, 5, 20, 5));
        // But doubling associativity with the same candidates would not.
        assert!(!CacheSetMetadata::fits_in_32_bytes(8, 10, 20, 5));
    }

    #[test]
    fn find_and_occupancy() {
        let mut s = CacheSetMetadata::new(4, 5);
        assert_eq!(s.cached_occupancy(), 0);
        assert_eq!(s.free_way(), Some(0));
        s.cached[2] = MetadataEntry {
            unit: 77,
            count: 3,
            valid: true,
        };
        s.candidates[1] = MetadataEntry {
            unit: 99,
            count: 1,
            valid: true,
        };
        assert_eq!(s.find_cached(77), Some(2));
        assert_eq!(s.find_cached(99), None);
        assert_eq!(s.find_candidate(99), Some(1));
        assert_eq!(s.cached_occupancy(), 1);
        assert_eq!(s.candidate_occupancy(), 1);
    }

    #[test]
    fn min_cached_treats_invalid_as_zero() {
        let mut s = CacheSetMetadata::new(2, 2);
        s.cached[0] = MetadataEntry {
            unit: 1,
            count: 10,
            valid: true,
        };
        let (way, count) = s.min_cached();
        assert_eq!(way, 1);
        assert_eq!(count, 0);
        s.cached[1] = MetadataEntry {
            unit: 2,
            count: 4,
            valid: true,
        };
        assert_eq!(s.min_cached(), (1, 4));
    }

    #[test]
    fn halving_counters() {
        let mut s = CacheSetMetadata::new(2, 2);
        s.cached[0] = MetadataEntry {
            unit: 1,
            count: 31,
            valid: true,
        };
        s.candidates[0] = MetadataEntry {
            unit: 2,
            count: 7,
            valid: true,
        };
        s.halve_all_counters();
        assert_eq!(s.cached[0].count, 15);
        assert_eq!(s.candidates[0].count, 3);
        assert_eq!(s.max_count(), 15);
    }

    #[test]
    fn table_set_mapping_is_stable() {
        let t = MetadataTable::new(64, 4, 5);
        assert_eq!(t.num_sets(), 64);
        assert_eq!(t.set_of(0), 0);
        assert_eq!(t.set_of(64), 0);
        assert_eq!(t.set_of(65), 1);
        assert_eq!(t.set(0).cached.len(), 4);
        assert_eq!(t.set(0).candidates.len(), 5);
        assert_eq!(t.total_cached(), 0);
    }
}
