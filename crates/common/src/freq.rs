//! Unified frequency tracking: one API over exact per-key counters and a
//! bounded-memory CountMinSketch.
//!
//! Three components keep "how often was this page touched" state: HMA's
//! per-epoch access counts, the footprint predictor's touched-line bitmaps,
//! and Banshee's sampled admission feed. Historically each held its own
//! `FnvHashMap`, whose memory grows with the footprint — a dead end for the
//! billion-page scenarios the roadmap targets. [`FrequencyTracker`] is the
//! common contract; [`FrequencyBackendKind`] selects between:
//!
//! * [`ExactTracker`] — per-key hash maps, bit-for-bit the historical
//!   behaviour. The default: every tracked figure stays byte-identical.
//! * [`CountMinSketch`] — 4-bit counters packed into 64-byte cache-line
//!   blocks (TinyLFU-style, after the Caffeine `FrequencySketch`), width and
//!   depth configurable, periodic halving for aging. Heap usage is fixed at
//!   construction; estimates may overcount (never undercount between
//!   agings), which is the fidelity trade the sketch-vs-exact experiment
//!   quantifies.
//!
//! The trait carries two operation families:
//!
//! * **counters** (`record`/`estimate`/`forget`/`halve_all`/`reset` +
//!   `enumerate_sorted` for backends that can) — the HMA and FBR feeds;
//! * **lanes** (`lane_touch`/`lane_count`/`lane_clear`) — the footprint
//!   predictor's per-page touched-line sets. The exact backend stores one
//!   64-bit mask per key; the sketch maps lane `l` of key `k` onto the
//!   sub-key `k·64 + l` and counts lanes with a non-zero estimate.
//!
//! Snapshots: [`save_tracker`] writes a self-describing image (backend tag,
//! then backend state); [`restore_tracker`] rebuilds the right backend from
//! it. `save → restore → save` is byte-identical for both backends.

use crate::hash::FnvHashMap;
use crate::persist::{SnapshotError, SnapshotReader, SnapshotWriter};
use std::fmt;

/// Lanes per key (the footprint predictor tracks one lane per cache line in
/// a page).
pub const LANES_PER_KEY: u64 = 64;

/// A 4-bit counter saturates here; estimates are capped accordingly.
pub const CMS_COUNTER_MAX: u64 = 15;

/// Which frequency-tracking backend a simulation uses. This is
/// configuration key material: its derived `Debug` form is embedded in
/// `SimConfig::cache_key_material` whenever it is not the default.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum FrequencyBackendKind {
    /// Exact per-key counters and lane masks (hash maps). The default.
    #[default]
    Exact,
    /// 4-bit CountMinSketch in 64-byte blocks.
    Cms {
        /// Counters per hash row. Rounded up so each row fills whole
        /// 32-counter block segments (power-of-two block count).
        width: u32,
        /// Independent hash rows (1..=4); the estimate is their minimum.
        depth: u32,
    },
}

/// Smallest accepted sketch width (one block segment per row).
pub const CMS_MIN_WIDTH: u32 = 32;
/// Largest accepted sketch width (64 Mi counters per row ≈ 32 MiB at
/// depth 1 — far beyond any useful fidelity sweep).
pub const CMS_MAX_WIDTH: u32 = 1 << 26;
/// Largest accepted sketch depth (one counter per block segment).
pub const CMS_MAX_DEPTH: u32 = 4;

impl FrequencyBackendKind {
    /// Parse a backend label: `exact` or `cms:<width>x<depth>` (for example
    /// `cms:4096x4`). Errors name the valid forms and bounds.
    pub fn parse(label: &str) -> Result<Self, String> {
        if label == "exact" {
            return Ok(FrequencyBackendKind::Exact);
        }
        let Some(spec) = label.strip_prefix("cms:") else {
            return Err(format!(
                "unknown frequency backend `{label}`; valid values: `exact`, `cms:<width>x<depth>` \
                 (width {CMS_MIN_WIDTH}..={CMS_MAX_WIDTH}, depth 1..={CMS_MAX_DEPTH})"
            ));
        };
        let Some((w, d)) = spec.split_once('x') else {
            return Err(format!(
                "malformed sketch spec `{label}`; expected `cms:<width>x<depth>`, e.g. `cms:4096x4`"
            ));
        };
        let width: u32 = w
            .parse()
            .map_err(|_| format!("invalid sketch width `{w}` in `{label}`; expected an integer"))?;
        let depth: u32 = d
            .parse()
            .map_err(|_| format!("invalid sketch depth `{d}` in `{label}`; expected an integer"))?;
        if !(CMS_MIN_WIDTH..=CMS_MAX_WIDTH).contains(&width) {
            return Err(format!(
                "sketch width {width} out of range {CMS_MIN_WIDTH}..={CMS_MAX_WIDTH} in `{label}`"
            ));
        }
        if !(1..=CMS_MAX_DEPTH).contains(&depth) {
            return Err(format!(
                "sketch depth {depth} out of range 1..={CMS_MAX_DEPTH} in `{label}`"
            ));
        }
        Ok(FrequencyBackendKind::Cms { width, depth })
    }

    /// The canonical label [`FrequencyBackendKind::parse`] accepts.
    pub fn label(&self) -> String {
        match self {
            FrequencyBackendKind::Exact => "exact".to_string(),
            FrequencyBackendKind::Cms { width, depth } => format!("cms:{width}x{depth}"),
        }
    }

    /// Construct an empty tracker of this kind.
    pub fn build(&self) -> Box<dyn FrequencyTracker> {
        match *self {
            FrequencyBackendKind::Exact => Box::new(ExactTracker::new()),
            FrequencyBackendKind::Cms { width, depth } => {
                Box::new(CountMinSketch::new(width, depth))
            }
        }
    }
}

/// The unified frequency-tracking contract (object-safe; see the module
/// docs for the two operation families).
pub trait FrequencyTracker: fmt::Debug + Send {
    /// The backend this tracker was built as.
    fn kind(&self) -> FrequencyBackendKind;

    /// Count one occurrence of `key`.
    fn record(&mut self, key: u64);

    /// Estimated occurrence count of `key`. Exact backends return the true
    /// count; the sketch never undercounts (up to counter saturation at
    /// [`CMS_COUNTER_MAX`]) but may overcount on hash collisions.
    fn estimate(&self, key: u64) -> u64;

    /// Drop `key`'s count. Exact backends remove the entry; the sketch
    /// cannot forget a single key and treats this as a no-op (aging decays
    /// stale keys instead).
    fn forget(&mut self, key: u64);

    /// Halve every counter (TinyLFU-style aging).
    fn halve_all(&mut self);

    /// Clear all counter state (an epoch boundary). Lane state is cleared
    /// too on backends where the two families share storage.
    fn reset(&mut self);

    /// All `(key, count)` pairs sorted by key ascending, if this backend
    /// can enumerate them. The sketch cannot (`None`): callers that rank
    /// keys must keep their own bounded candidate set.
    fn enumerate_sorted(&self) -> Option<Vec<(u64, u64)>>;

    /// Mark lane `lane` (`0..LANES_PER_KEY`) of `key` as touched. With
    /// `require_tracked`, exact backends only update keys that already have
    /// lane state (an access to an untracked page is ignored); the sketch
    /// cannot test membership and records unconditionally.
    fn lane_touch(&mut self, key: u64, lane: u64, require_tracked: bool);

    /// Number of distinct touched lanes of `key` (0..=[`LANES_PER_KEY`]).
    fn lane_count(&self, key: u64) -> u64;

    /// Stop tracking `key`'s lanes. Exact backends remove the mask; the
    /// sketch leaves its counters to decay by aging.
    fn lane_clear(&mut self, key: u64);

    /// Bytes of heap this tracker holds. Exact backends grow with the
    /// tracked set; the sketch is fixed at construction.
    fn memory_bytes(&self) -> u64;

    /// Append this tracker's telemetry gauges (prefixed `freq_`) to `out`.
    fn gauges(&self, out: &mut Vec<(&'static str, f64)>);

    /// Append backend-specific state (no backend tag — that is
    /// [`save_tracker`]'s job).
    fn save_state(&self, w: &mut SnapshotWriter);

    /// Restore backend-specific state written by `save_state` into this
    /// (freshly built, same-kind) tracker.
    fn load_state(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError>;

    /// Clone behind the object.
    fn boxed_clone(&self) -> Box<dyn FrequencyTracker>;
}

impl Clone for Box<dyn FrequencyTracker> {
    fn clone(&self) -> Self {
        self.boxed_clone()
    }
}

/// Write a self-describing tracker image: backend tag, then state.
pub fn save_tracker(tracker: &dyn FrequencyTracker, w: &mut SnapshotWriter) {
    match tracker.kind() {
        FrequencyBackendKind::Exact => w.u8(0),
        FrequencyBackendKind::Cms { width, depth } => {
            w.u8(1);
            w.u32(width);
            w.u32(depth);
        }
    }
    tracker.save_state(w);
}

/// Rebuild a tracker from an image written by [`save_tracker`].
pub fn restore_tracker(
    r: &mut SnapshotReader<'_>,
) -> Result<Box<dyn FrequencyTracker>, SnapshotError> {
    let kind = match r.u8()? {
        0 => FrequencyBackendKind::Exact,
        1 => {
            let width = r.u32()?;
            let depth = r.u32()?;
            if !(CMS_MIN_WIDTH..=CMS_MAX_WIDTH).contains(&width) {
                return Err(SnapshotError::Corrupt(format!(
                    "sketch width {width} out of range {CMS_MIN_WIDTH}..={CMS_MAX_WIDTH}"
                )));
            }
            if !(1..=CMS_MAX_DEPTH).contains(&depth) {
                return Err(SnapshotError::Corrupt(format!(
                    "sketch depth {depth} out of range 1..={CMS_MAX_DEPTH}"
                )));
            }
            FrequencyBackendKind::Cms { width, depth }
        }
        other => {
            return Err(SnapshotError::Corrupt(format!(
                "unknown frequency-tracker tag {other:#04x}"
            )))
        }
    };
    let mut tracker = kind.build();
    tracker.load_state(r)?;
    Ok(tracker)
}

/// Exact per-key counters and lane masks — the historical hash-map
/// behaviour behind the unified API.
#[derive(Debug, Clone, Default)]
pub struct ExactTracker {
    counts: FnvHashMap<u64, u64>,
    lanes: FnvHashMap<u64, u64>,
}

impl ExactTracker {
    /// An empty tracker.
    pub fn new() -> Self {
        Self::default()
    }
}

impl FrequencyTracker for ExactTracker {
    fn kind(&self) -> FrequencyBackendKind {
        FrequencyBackendKind::Exact
    }

    fn record(&mut self, key: u64) {
        *self.counts.entry(key).or_insert(0) += 1;
    }

    fn estimate(&self, key: u64) -> u64 {
        self.counts.get(&key).copied().unwrap_or(0)
    }

    fn forget(&mut self, key: u64) {
        self.counts.remove(&key);
    }

    fn halve_all(&mut self) {
        self.counts.retain(|_, c| {
            *c /= 2;
            *c > 0
        });
    }

    fn reset(&mut self) {
        self.counts.clear();
    }

    fn enumerate_sorted(&self) -> Option<Vec<(u64, u64)>> {
        let mut entries: Vec<(u64, u64)> = self.counts.iter().map(|(&k, &c)| (k, c)).collect();
        entries.sort_unstable_by_key(|&(k, _)| k);
        Some(entries)
    }

    fn lane_touch(&mut self, key: u64, lane: u64, require_tracked: bool) {
        let bit = 1u64 << (lane & (LANES_PER_KEY - 1));
        if require_tracked {
            if let Some(mask) = self.lanes.get_mut(&key) {
                *mask |= bit;
            }
        } else {
            *self.lanes.entry(key).or_insert(0) |= bit;
        }
    }

    fn lane_count(&self, key: u64) -> u64 {
        self.lanes
            .get(&key)
            .map(|m| u64::from(m.count_ones()))
            .unwrap_or(0)
    }

    fn lane_clear(&mut self, key: u64) {
        self.lanes.remove(&key);
    }

    fn memory_bytes(&self) -> u64 {
        // Hash-map entries are (u64 key, u64 value) plus per-entry
        // bookkeeping; 3 words per entry is a fair load-factor-adjusted
        // estimate for the gauge.
        ((self.counts.capacity() + self.lanes.capacity()) as u64) * 24
    }

    fn gauges(&self, out: &mut Vec<(&'static str, f64)>) {
        out.push(("freq_tracked_keys", self.counts.len() as f64));
        out.push(("freq_tracked_lane_keys", self.lanes.len() as f64));
        out.push(("freq_memory_bytes", self.memory_bytes() as f64));
    }

    fn save_state(&self, w: &mut SnapshotWriter) {
        let sorted = |m: &FnvHashMap<u64, u64>| {
            let mut entries: Vec<(u64, u64)> = m.iter().map(|(&k, &v)| (k, v)).collect();
            entries.sort_unstable_by_key(|&(k, _)| k);
            entries
        };
        w.seq_with(&sorted(&self.counts), |w, &(k, v)| {
            w.u64(k);
            w.u64(v);
        });
        w.seq_with(&sorted(&self.lanes), |w, &(k, v)| {
            w.u64(k);
            w.u64(v);
        });
    }

    fn load_state(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        let read_map = |r: &mut SnapshotReader<'_>,
                        what: &str|
         -> Result<FnvHashMap<u64, u64>, SnapshotError> {
            let len = r.seq_len(16)?;
            let mut map = FnvHashMap::default();
            for _ in 0..len {
                let k = r.u64()?;
                let v = r.u64()?;
                if map.insert(k, v).is_some() {
                    return Err(SnapshotError::Corrupt(format!(
                        "duplicate {what} key {k} in exact frequency tracker"
                    )));
                }
            }
            Ok(map)
        };
        self.counts = read_map(r, "count")?;
        self.lanes = read_map(r, "lane")?;
        Ok(())
    }

    fn boxed_clone(&self) -> Box<dyn FrequencyTracker> {
        Box::new(self.clone())
    }
}

/// One cache line of sketch counters: 128 4-bit counters in four 32-counter
/// segments (two `u64` words each). Each hash row owns one segment, so a
/// key's up-to-4 counters land in the same 64-byte line.
#[repr(C, align(64))]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Block([u64; 8]);

impl Block {
    const ZERO: Block = Block([0; 8]);

    #[inline]
    fn get(&self, segment: usize, counter: usize) -> u64 {
        let word = segment * 2 + (counter >> 4);
        (self.0[word] >> ((counter & 15) * 4)) & 0xF
    }

    #[inline]
    fn bump(&mut self, segment: usize, counter: usize) -> bool {
        let word = segment * 2 + (counter >> 4);
        let shift = (counter & 15) * 4;
        if (self.0[word] >> shift) & 0xF == CMS_COUNTER_MAX {
            return false;
        }
        self.0[word] += 1 << shift;
        true
    }

    #[inline]
    fn halve(&mut self) {
        for word in &mut self.0 {
            *word = (*word >> 1) & 0x7777_7777_7777_7777;
        }
    }
}

/// A 4-bit CountMinSketch with TinyLFU-style aging. All storage is the
/// fixed `blocks` vector — no heap growth after construction.
#[derive(Debug, Clone)]
pub struct CountMinSketch {
    blocks: Vec<Block>,
    /// Configured (pre-rounding) width, kept for `kind()` stability.
    width: u32,
    depth: u32,
    /// Low-bit mask selecting a block (blocks.len() is a power of two).
    block_mask: u64,
    /// Recorded additions since the last aging; reaching `sample_period`
    /// halves every counter.
    additions: u64,
    /// Additions between agings: 10× the effective width, after Caffeine.
    sample_period: u64,
    /// Agings performed (monotone; snapshot-persisted for telemetry).
    agings: u64,
}

impl CountMinSketch {
    /// A sketch with at least `width` counters per row and `depth` rows.
    /// The block count is the next power of two holding `width` counters
    /// per 32-counter segment, so the effective width can exceed `width`.
    pub fn new(width: u32, depth: u32) -> Self {
        let width = width.clamp(CMS_MIN_WIDTH, CMS_MAX_WIDTH);
        let depth = depth.clamp(1, CMS_MAX_DEPTH);
        let blocks = (width.div_ceil(32) as usize).next_power_of_two();
        CountMinSketch {
            blocks: vec![Block::ZERO; blocks],
            width,
            depth,
            block_mask: blocks as u64 - 1,
            additions: 0,
            sample_period: (blocks as u64 * 32).saturating_mul(10),
            agings: 0,
        }
    }

    /// Counters per row after rounding to whole blocks.
    pub fn effective_width(&self) -> u64 {
        self.blocks.len() as u64 * 32
    }

    /// Agings performed so far.
    pub fn agings(&self) -> u64 {
        self.agings
    }

    /// splitmix64 finalizer: full-avalanche key spreading, so sequential
    /// page numbers land in unrelated blocks.
    #[inline]
    fn spread(key: u64) -> u64 {
        let mut z = key.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// (block index, per-row counter indices) for `key`. Row `i` uses an
    /// independent byte of a second mix, so rows collide independently.
    #[inline]
    fn index(&self, key: u64) -> (usize, [usize; CMS_MAX_DEPTH as usize]) {
        let h = Self::spread(key);
        let block = (h & self.block_mask) as usize;
        let h2 = Self::spread(h ^ 0xA55A_5AA5_55AA_AA55);
        let mut counters = [0usize; CMS_MAX_DEPTH as usize];
        for (i, c) in counters.iter_mut().enumerate() {
            *c = ((h2 >> (i * 8)) & 31) as usize;
        }
        (block, counters)
    }

    fn saturation_scan(&self) -> (u64, u64) {
        let (mut nonzero, mut saturated) = (0u64, 0u64);
        for block in &self.blocks {
            for segment in 0..self.depth as usize {
                for counter in 0..32 {
                    match block.get(segment, counter) {
                        0 => {}
                        CMS_COUNTER_MAX => {
                            nonzero += 1;
                            saturated += 1;
                        }
                        _ => nonzero += 1,
                    }
                }
            }
        }
        (nonzero, saturated)
    }

    fn lane_key(key: u64, lane: u64) -> u64 {
        key.wrapping_mul(LANES_PER_KEY)
            .wrapping_add(lane & (LANES_PER_KEY - 1))
    }
}

impl FrequencyTracker for CountMinSketch {
    fn kind(&self) -> FrequencyBackendKind {
        FrequencyBackendKind::Cms {
            width: self.width,
            depth: self.depth,
        }
    }

    fn record(&mut self, key: u64) {
        let (block, counters) = self.index(key);
        let mut bumped = false;
        for (segment, &counter) in counters.iter().take(self.depth as usize).enumerate() {
            bumped |= self.blocks[block].bump(segment, counter);
        }
        if bumped {
            self.additions += 1;
            if self.additions >= self.sample_period {
                self.halve_all();
            }
        }
    }

    fn estimate(&self, key: u64) -> u64 {
        let (block, counters) = self.index(key);
        counters
            .iter()
            .take(self.depth as usize)
            .enumerate()
            .map(|(segment, &counter)| self.blocks[block].get(segment, counter))
            .min()
            .unwrap_or(0)
    }

    fn forget(&mut self, _key: u64) {
        // A sketch cannot forget one key; aging decays stale entries.
    }

    fn halve_all(&mut self) {
        for block in &mut self.blocks {
            block.halve();
        }
        self.additions /= 2;
        self.agings += 1;
    }

    fn reset(&mut self) {
        self.blocks.fill(Block::ZERO);
        self.additions = 0;
    }

    fn enumerate_sorted(&self) -> Option<Vec<(u64, u64)>> {
        None
    }

    fn lane_touch(&mut self, key: u64, lane: u64, _require_tracked: bool) {
        // Membership is not testable in a sketch, so `require_tracked`
        // degrades to an unconditional record (a documented approximation).
        self.record(Self::lane_key(key, lane));
    }

    fn lane_count(&self, key: u64) -> u64 {
        (0..LANES_PER_KEY)
            .filter(|&lane| self.estimate(Self::lane_key(key, lane)) > 0)
            .count() as u64
    }

    fn lane_clear(&mut self, _key: u64) {
        // No per-key clearing; stale lane counters decay by aging.
    }

    fn memory_bytes(&self) -> u64 {
        (self.blocks.len() * std::mem::size_of::<Block>()) as u64
    }

    fn gauges(&self, out: &mut Vec<(&'static str, f64)>) {
        let (nonzero, saturated) = self.saturation_scan();
        let total = (self.effective_width() * u64::from(self.depth)).max(1);
        out.push(("freq_sketch_occupancy", nonzero as f64 / total as f64));
        out.push(("freq_sketch_saturation", saturated as f64 / total as f64));
        out.push(("freq_sketch_agings", self.agings as f64));
        out.push(("freq_memory_bytes", self.memory_bytes() as f64));
    }

    fn save_state(&self, w: &mut SnapshotWriter) {
        w.u64(self.additions);
        w.u64(self.agings);
        w.usize(self.blocks.len());
        for block in &self.blocks {
            for word in block.0 {
                w.u64(word);
            }
        }
    }

    fn load_state(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        self.additions = r.u64()?;
        self.agings = r.u64()?;
        let blocks = r.usize()?;
        if blocks != self.blocks.len() {
            return Err(SnapshotError::Corrupt(format!(
                "sketch image has {blocks} block(s), this configuration expects {}",
                self.blocks.len()
            )));
        }
        for block in &mut self.blocks {
            for word in &mut block.0 {
                *word = r.u64()?;
            }
        }
        Ok(())
    }

    fn boxed_clone(&self) -> Box<dyn FrequencyTracker> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn block_is_one_cache_line() {
        assert_eq!(std::mem::size_of::<Block>(), 64);
        assert_eq!(std::mem::align_of::<Block>(), 64);
    }

    #[test]
    fn parse_accepts_canonical_labels_and_round_trips() {
        assert_eq!(
            FrequencyBackendKind::parse("exact").unwrap(),
            FrequencyBackendKind::Exact
        );
        let cms = FrequencyBackendKind::parse("cms:4096x4").unwrap();
        assert_eq!(
            cms,
            FrequencyBackendKind::Cms {
                width: 4096,
                depth: 4
            }
        );
        assert_eq!(cms.label(), "cms:4096x4");
        assert_eq!(FrequencyBackendKind::parse(&cms.label()).unwrap(), cms);
        assert_eq!(FrequencyBackendKind::default().label(), "exact");
    }

    #[test]
    fn parse_errors_are_actionable() {
        let e = FrequencyBackendKind::parse("lfu").unwrap_err();
        assert!(e.contains("lfu") && e.contains("exact") && e.contains("cms:<width>x<depth>"));
        let e = FrequencyBackendKind::parse("cms:4096").unwrap_err();
        assert!(e.contains("cms:<width>x<depth>"), "{e}");
        let e = FrequencyBackendKind::parse("cms:axb").unwrap_err();
        assert!(e.contains("width"), "{e}");
        let e = FrequencyBackendKind::parse("cms:4x4").unwrap_err();
        assert!(e.contains("out of range"), "{e}");
        let e = FrequencyBackendKind::parse("cms:4096x9").unwrap_err();
        assert!(e.contains("depth") && e.contains("out of range"), "{e}");
    }

    #[test]
    fn exact_tracker_counts_and_lanes_match_hash_map_behaviour() {
        let mut t = ExactTracker::new();
        t.record(7);
        t.record(7);
        t.record(9);
        assert_eq!(t.estimate(7), 2);
        assert_eq!(t.estimate(9), 1);
        assert_eq!(t.estimate(8), 0);
        assert_eq!(t.enumerate_sorted().unwrap(), vec![(7, 2), (9, 1)]);
        t.forget(9);
        assert_eq!(t.estimate(9), 0);
        t.halve_all();
        assert_eq!(t.estimate(7), 1);
        t.reset();
        assert_eq!(t.estimate(7), 0);

        // Lane family: untracked touches require an unconditional start.
        t.lane_touch(1, 5, true);
        assert_eq!(t.lane_count(1), 0);
        t.lane_touch(1, 5, false);
        t.lane_touch(1, 6, true);
        t.lane_touch(1, 6, true);
        assert_eq!(t.lane_count(1), 2);
        t.lane_clear(1);
        assert_eq!(t.lane_count(1), 0);
    }

    #[test]
    fn sketch_estimates_and_saturates() {
        let mut s = CountMinSketch::new(1024, 4);
        for _ in 0..5 {
            s.record(42);
        }
        assert!(s.estimate(42) >= 5);
        for _ in 0..100 {
            s.record(42);
        }
        assert_eq!(s.estimate(42), CMS_COUNTER_MAX);
        s.halve_all();
        assert!(s.estimate(42) <= CMS_COUNTER_MAX / 2);
        s.reset();
        assert_eq!(s.estimate(42), 0);
    }

    #[test]
    fn sketch_heap_is_fixed_after_construction() {
        let mut s = CountMinSketch::new(256, 4);
        let before = s.memory_bytes();
        let ptr = s.blocks.as_ptr();
        for key in 0..100_000u64 {
            s.record(key);
            s.lane_touch(key, key % 64, true);
        }
        assert_eq!(s.memory_bytes(), before);
        assert_eq!(s.blocks.as_ptr(), ptr, "sketch storage must never move");
    }

    #[test]
    fn sketch_ages_automatically_at_the_sample_period() {
        let mut s = CountMinSketch::new(CMS_MIN_WIDTH, 1);
        assert_eq!(s.agings(), 0);
        // sample_period = 32 * 10; distinct keys so counters stay unsaturated.
        for key in 0..s.sample_period {
            s.record(key);
        }
        assert!(s.agings() >= 1);
    }

    #[test]
    fn sketch_lane_counts_track_distinct_lanes() {
        let mut s = CountMinSketch::new(4096, 4);
        assert_eq!(s.lane_count(3), 0);
        s.lane_touch(3, 0, false);
        s.lane_touch(3, 0, true);
        s.lane_touch(3, 17, true);
        let count = s.lane_count(3);
        // Exactly-2 up to (unlikely at this width) collisions.
        assert!((2..=4).contains(&count), "lane count {count}");
    }

    #[test]
    fn tracker_restore_rejects_bad_tags_and_mismatched_geometry() {
        let mut w = SnapshotWriter::new();
        w.u8(9);
        let bytes = w.into_bytes();
        let mut r = SnapshotReader::new(&bytes);
        assert!(matches!(
            restore_tracker(&mut r),
            Err(SnapshotError::Corrupt(_))
        ));

        let mut w = SnapshotWriter::new();
        w.u8(1);
        w.u32(7); // below CMS_MIN_WIDTH
        w.u32(4);
        let bytes = w.into_bytes();
        let mut r = SnapshotReader::new(&bytes);
        assert!(matches!(
            restore_tracker(&mut r),
            Err(SnapshotError::Corrupt(_))
        ));
    }

    fn image(t: &dyn FrequencyTracker) -> Vec<u8> {
        let mut w = SnapshotWriter::new();
        save_tracker(t, &mut w);
        w.into_bytes()
    }

    proptest! {
        /// Between agings the sketch never undercounts: the estimate is at
        /// least the true count, capped at counter saturation.
        #[test]
        fn prop_sketch_never_undercounts(
            keys in proptest::collection::vec(0u64..1_000_000, 1..60),
            width in 32u32..4096,
            depth in 1u32..5,
        ) {
            let mut s = CountMinSketch::new(width, depth);
            let mut truth: std::collections::BTreeMap<u64, u64> = Default::default();
            for &k in &keys {
                s.record(k);
                *truth.entry(k).or_insert(0) += 1;
            }
            prop_assert_eq!(s.agings(), 0); // too few additions to age
            for (&k, &count) in &truth {
                prop_assert!(s.estimate(k) >= count.min(CMS_COUNTER_MAX));
            }
        }

        /// Halving is monotone: no estimate grows, and every estimate is at
        /// least half its old value (floor division).
        #[test]
        fn prop_sketch_halving_is_monotone(
            keys in proptest::collection::vec(0u64..100_000, 1..80),
            width in 32u32..2048,
            depth in 1u32..5,
        ) {
            let mut s = CountMinSketch::new(width, depth);
            for &k in &keys {
                s.record(k);
            }
            let before: Vec<u64> = keys.iter().map(|&k| s.estimate(k)).collect();
            s.halve_all();
            for (&k, &b) in keys.iter().zip(&before) {
                let after = s.estimate(k);
                prop_assert!(after <= b);
                prop_assert!(after >= b / 2);
            }
        }

        /// save → restore → save is byte-identical for both backends, and
        /// the restored tracker estimates identically.
        #[test]
        fn prop_tracker_persist_round_trip(
            ops in proptest::collection::vec((0u64..500, 0u64..64, 0u8..4), 0..120),
            width in 32u32..1024,
            depth in 1u32..5,
            exact in proptest::arbitrary::any::<bool>(),
        ) {
            let kind = if exact {
                FrequencyBackendKind::Exact
            } else {
                FrequencyBackendKind::Cms { width, depth }
            };
            let mut t = kind.build();
            for &(key, lane, op) in &ops {
                match op {
                    0 => t.record(key),
                    1 => t.lane_touch(key, lane, lane % 2 == 0),
                    2 => t.halve_all(),
                    _ => t.forget(key),
                }
            }
            let bytes = image(t.as_ref());
            let mut r = SnapshotReader::new(&bytes);
            let back = restore_tracker(&mut r).unwrap();
            prop_assert!(r.is_exhausted());
            prop_assert_eq!(image(back.as_ref()), bytes.clone());
            prop_assert_eq!(back.kind(), t.kind());
            for &(key, _, _) in &ops {
                prop_assert_eq!(back.estimate(key), t.estimate(key));
                prop_assert_eq!(back.lane_count(key), t.lane_count(key));
            }
            // Truncation strictly inside the image is a typed error.
            if bytes.len() > 1 {
                let mut r = SnapshotReader::new(&bytes[..bytes.len() / 2]);
                prop_assert!(restore_tracker(&mut r).is_err());
            }
        }
    }
}
