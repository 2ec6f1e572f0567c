//! Bandwidth-aware frequency-based replacement with sampled counter updates
//! (Section 4.2, Algorithm 1).
//!
//! Three ideas compose here:
//!
//! 1. **Sampling** (Section 4.2.1): counters are read/updated only for a
//!    sampled fraction of accesses. The sample rate adapts: it is the product
//!    of the recent DRAM-cache miss rate and a constant *sampling
//!    coefficient* (0.1 by default), so a well-working cache touches its
//!    metadata rarely.
//! 2. **Replacement threshold** (Section 4.2.2): a candidate page replaces
//!    the coldest cached page only when its counter exceeds the victim's by
//!    `threshold = lines_per_page × sampling_coefficient / 2`, ensuring the
//!    benefit of the swap outweighs the cost of moving a page.
//! 3. **Probabilistic candidate insertion** (Algorithm 1 lines 18–22): an
//!    untracked page takes over a random candidate slot with probability
//!    `1 / victim.count`, so hot candidates are hard to displace.
//!
//! The struct below mutates a [`CacheSetMetadata`] and reports what happened
//! as an [`FbrDecision`]; the controller turns that into DRAM traffic,
//! mapping updates and tag-buffer insertions.

use crate::config::BansheeConfig;
use crate::metadata::{CacheSetMetadata, MetadataEntry};
use banshee_common::persist::{Persist, SnapshotError, SnapshotReader, SnapshotWriter};
use banshee_common::XorShiftRng;

/// What the replacement engine did for one access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FbrDecision {
    /// The access was not sampled: no metadata traffic, no state change.
    NotSampled,
    /// Metadata was read and a counter updated; no replacement.
    Updated {
        /// Whether the saturating counter forced a halve-all pass.
        halved: bool,
    },
    /// A candidate was promoted into the cache.
    Replace {
        /// Way that now holds the promoted page.
        way: usize,
        /// Page that was evicted from that way (`None` if the way was free).
        victim: Option<u64>,
    },
    /// The page was not tracked and won a candidate slot.
    CandidateInserted {
        /// Candidate slot index now tracking the page.
        slot: usize,
    },
    /// The page was not tracked and lost the probabilistic insertion.
    CandidateRejected,
}

impl FbrDecision {
    /// Whether the decision involved touching the metadata in DRAM at all.
    pub fn sampled(&self) -> bool {
        !matches!(self, FbrDecision::NotSampled)
    }

    /// Whether the metadata was written back (Algorithm 1 stores the record
    /// after a counter update or candidate insertion, but not after a
    /// rejected insertion).
    pub fn wrote_metadata(&self) -> bool {
        matches!(
            self,
            FbrDecision::Updated { .. }
                | FbrDecision::Replace { .. }
                | FbrDecision::CandidateInserted { .. }
        )
    }
}

/// The frequency-based replacement engine (one per controller).
#[derive(Debug, Clone)]
pub struct FrequencyReplacement {
    sampling_coefficient: f64,
    threshold: f64,
    max_count: u32,
    /// When true, every access is sampled regardless of miss rate — the
    /// "Banshee FBR no sample" ablation of Figure 7 (and CHOP-like designs).
    force_sample: bool,
    rng: XorShiftRng,
    sampled_accesses: u64,
    replacements: u64,
    counter_halvings: u64,
}

impl FrequencyReplacement {
    /// Build from the Banshee configuration.
    pub fn new(config: &BansheeConfig) -> Self {
        Self::with_params(
            config.sampling_coefficient,
            config.threshold(),
            config.max_count(),
            false,
        )
    }

    /// Build with explicit parameters (used by tests and the no-sampling
    /// ablation).
    pub fn with_params(
        sampling_coefficient: f64,
        threshold: f64,
        max_count: u32,
        force_sample: bool,
    ) -> Self {
        assert!((0.0..=1.0).contains(&sampling_coefficient));
        assert!(max_count >= 1);
        FrequencyReplacement {
            sampling_coefficient,
            threshold,
            max_count,
            force_sample,
            rng: XorShiftRng::new(0xFBF0),
            sampled_accesses: 0,
            replacements: 0,
            counter_halvings: 0,
        }
    }

    /// Force sampling of every access (the Figure 7 "no sample" ablation).
    pub fn set_force_sample(&mut self, force: bool) {
        self.force_sample = force;
    }

    /// Replacement threshold in use.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// Number of sampled accesses so far.
    pub fn sampled_accesses(&self) -> u64 {
        self.sampled_accesses
    }

    /// Number of promotions (cache replacements) decided so far.
    pub fn replacements(&self) -> u64 {
        self.replacements
    }

    /// Number of halve-all counter passes.
    pub fn counter_halvings(&self) -> u64 {
        self.counter_halvings
    }

    /// The effective sample rate for the given recent miss rate
    /// (Section 4.2.1: `recent_miss_rate × sampling_coefficient`).
    pub fn sample_rate(&self, recent_miss_rate: f64) -> f64 {
        if self.force_sample {
            1.0
        } else {
            (recent_miss_rate * self.sampling_coefficient).clamp(0.0, 1.0)
        }
    }

    /// Run Algorithm 1 for one access to `unit` in `set`.
    pub fn on_access(
        &mut self,
        set: &mut CacheSetMetadata,
        unit: u64,
        recent_miss_rate: f64,
    ) -> FbrDecision {
        // Line 3: the sampling gate.
        if !self.rng.chance(self.sample_rate(recent_miss_rate)) {
            return FbrDecision::NotSampled;
        }
        self.sampled_accesses += 1;

        // Lines 5–16: the page is already tracked.
        if let Some(way) = set.find_cached(unit) {
            set.cached[way].count += 1;
            let halved = self.maybe_halve(set, set.cached[way].count);
            return FbrDecision::Updated { halved };
        }
        if let Some(slot) = set.find_candidate(unit) {
            set.candidates[slot].count += 1;
            let count = set.candidates[slot].count;

            // Promotion check (line 7): prefer a free way; otherwise require
            // the candidate to beat the coldest cached page by the threshold.
            let decision = if let Some(free) = set.free_way() {
                Some((free, None))
            } else {
                let (victim_way, victim_count) = set.min_cached();
                if count as f64 > victim_count as f64 + self.threshold {
                    Some((victim_way, Some(set.cached[victim_way].unit)))
                } else {
                    None
                }
            };

            if let Some((way, victim)) = decision {
                self.replacements += 1;
                // Swap: the promoted candidate takes the way; the victim (if
                // any) takes the candidate slot and keeps its counter, so it
                // must re-earn residency (prevents thrashing).
                let promoted = set.candidates[slot];
                set.candidates[slot] = match victim {
                    Some(v) => MetadataEntry {
                        unit: v,
                        count: set.cached[way].count,
                        valid: true,
                    },
                    None => MetadataEntry::INVALID,
                };
                set.cached[way] = MetadataEntry {
                    unit: promoted.unit,
                    count: promoted.count,
                    valid: true,
                };
                self.maybe_halve(set, count);
                return FbrDecision::Replace { way, victim };
            }

            let halved = self.maybe_halve(set, count);
            return FbrDecision::Updated { halved };
        }

        // Lines 17–23: the page is not tracked — try to claim a candidate
        // slot, starting its counter at 1.
        if let Some(free_slot) = set.candidates.iter().position(|e| !e.valid) {
            set.candidates[free_slot] = MetadataEntry {
                unit,
                count: 1,
                valid: true,
            };
            return FbrDecision::CandidateInserted { slot: free_slot };
        }
        let victim_slot = self.rng.next_below(set.candidates.len() as u64) as usize;
        let victim_count = set.candidates[victim_slot].count.max(1);
        if self.rng.chance(1.0 / victim_count as f64) {
            set.candidates[victim_slot] = MetadataEntry {
                unit,
                count: 1,
                valid: true,
            };
            FbrDecision::CandidateInserted { slot: victim_slot }
        } else {
            FbrDecision::CandidateRejected
        }
    }

    /// Apply the saturating-counter rule: when any counter reaches the
    /// maximum, every counter in the set is halved (Algorithm 1 lines 10–14).
    fn maybe_halve(&mut self, set: &mut CacheSetMetadata, new_count: u32) -> bool {
        if new_count >= self.max_count {
            set.halve_all_counters();
            self.counter_halvings += 1;
            true
        } else {
            false
        }
    }
}

impl Persist for FrequencyReplacement {
    fn save(&self, w: &mut SnapshotWriter) {
        w.f64(self.sampling_coefficient);
        w.f64(self.threshold);
        w.u32(self.max_count);
        w.bool(self.force_sample);
        self.rng.save(w);
        w.u64(self.sampled_accesses);
        w.u64(self.replacements);
        w.u64(self.counter_halvings);
    }
    fn restore(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        let sampling_coefficient = r.f64()?;
        if !(0.0..=1.0).contains(&sampling_coefficient) {
            return Err(SnapshotError::Corrupt(format!(
                "fbr sampling coefficient {sampling_coefficient} out of range"
            )));
        }
        let threshold = r.f64()?;
        let max_count = r.u32()?;
        if max_count == 0 {
            return Err(SnapshotError::Corrupt("fbr max count is zero".to_string()));
        }
        Ok(FrequencyReplacement {
            sampling_coefficient,
            threshold,
            max_count,
            force_sample: r.bool()?,
            rng: XorShiftRng::restore(r)?,
            sampled_accesses: r.u64()?,
            replacements: r.u64()?,
            counter_halvings: r.u64()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn engine(coeff: f64, threshold: f64) -> FrequencyReplacement {
        FrequencyReplacement::with_params(coeff, threshold, 31, true)
    }

    fn set() -> CacheSetMetadata {
        CacheSetMetadata::new(4, 5)
    }

    #[test]
    fn sample_rate_is_product_of_miss_rate_and_coefficient() {
        let f = FrequencyReplacement::with_params(0.1, 3.2, 31, false);
        assert!((f.sample_rate(1.0) - 0.1).abs() < 1e-12);
        assert!((f.sample_rate(0.3) - 0.03).abs() < 1e-12);
        assert!((f.sample_rate(0.0)).abs() < 1e-12);
        // The ablation samples everything.
        let nf = FrequencyReplacement::with_params(0.1, 3.2, 31, true);
        assert!((nf.sample_rate(0.01) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn sampling_gate_skips_most_accesses_at_low_miss_rate() {
        let mut f = FrequencyReplacement::with_params(0.1, 3.2, 31, false);
        let mut s = set();
        let n = 10_000;
        for _ in 0..n {
            f.on_access(&mut s, 1, 0.1); // sample rate 1%
        }
        let rate = f.sampled_accesses() as f64 / n as f64;
        assert!((0.005..0.02).contains(&rate), "sampled fraction {rate}");
    }

    #[test]
    fn free_ways_fill_without_threshold() {
        let mut f = engine(1.0, 3.2);
        let mut s = set();
        // First access inserts as candidate, second promotes into a free way.
        assert!(matches!(
            f.on_access(&mut s, 10, 1.0),
            FbrDecision::CandidateInserted { .. }
        ));
        assert!(matches!(
            f.on_access(&mut s, 10, 1.0),
            FbrDecision::Replace {
                way: 0,
                victim: None
            }
        ));
        assert_eq!(s.find_cached(10), Some(0));
    }

    #[test]
    fn promotion_requires_beating_victim_by_threshold() {
        let mut f = engine(1.0, 3.0);
        let mut s = set();
        // Fill all 4 ways with pages that have healthy counters.
        for (w, unit) in [(0usize, 100u64), (1, 101), (2, 102), (3, 103)] {
            s.cached[w] = MetadataEntry {
                unit,
                count: 5,
                valid: true,
            };
        }
        // A new page becomes a candidate and is accessed repeatedly: it must
        // not be promoted until its count exceeds 5 + 3.
        f.on_access(&mut s, 999, 1.0); // candidate, count = 1
        let mut promoted_at = None;
        for i in 2..=12u32 {
            if let FbrDecision::Replace { .. } = f.on_access(&mut s, 999, 1.0) {
                promoted_at = Some(i);
                break;
            }
        }
        let at = promoted_at.expect("candidate should eventually be promoted");
        assert!(at as f64 > 5.0 + 3.0, "promoted too early, at count {at}");
        // The victim was demoted into the candidate array.
        assert_eq!(s.cached_occupancy(), 4);
        assert!(
            s.find_candidate(
                s.candidates
                    .iter()
                    .find(|e| e.valid && e.unit >= 100 && e.unit <= 103)
                    .map(|e| e.unit)
                    .unwrap_or(0)
            )
            .is_some()
                || s.candidate_occupancy() >= 1
        );
    }

    #[test]
    fn victim_must_reearn_residency() {
        // Section 4.2.2: a page just evicted must be accessed ~2·threshold /
        // sampling-rate times before it can come back. With force_sample the
        // sampling rate is 1, so it needs > threshold more counter increments
        // than the new minimum.
        let mut f = engine(1.0, 3.0);
        let mut s = set();
        for (w, unit) in [(0usize, 100u64), (1, 101), (2, 102), (3, 103)] {
            s.cached[w] = MetadataEntry {
                unit,
                count: if w == 0 { 1 } else { 10 },
                valid: true,
            };
        }
        // Promote page 999 over the weak page 100.
        for _ in 0..6 {
            f.on_access(&mut s, 999, 1.0);
        }
        assert!(s.find_cached(999).is_some());
        assert!(s.find_cached(100).is_none());
        // Page 100 is now a candidate; a single access must NOT bring it
        // straight back.
        let d = f.on_access(&mut s, 100, 1.0);
        assert!(!matches!(d, FbrDecision::Replace { .. }));
    }

    #[test]
    fn counter_saturation_halves_the_whole_set() {
        let mut f = FrequencyReplacement::with_params(1.0, 100.0, 8, true);
        let mut s = set();
        s.cached[0] = MetadataEntry {
            unit: 7,
            count: 6,
            valid: true,
        };
        s.cached[1] = MetadataEntry {
            unit: 8,
            count: 4,
            valid: true,
        };
        // Two more accesses to page 7 saturate its 3-bit-equivalent counter
        // (max 8) and trigger the halve.
        f.on_access(&mut s, 7, 1.0);
        let d = f.on_access(&mut s, 7, 1.0);
        assert!(matches!(d, FbrDecision::Updated { halved: true }));
        assert_eq!(f.counter_halvings(), 1);
        assert!(s.cached[0].count <= 4);
        assert_eq!(s.cached[1].count, 2);
    }

    #[test]
    fn hot_candidates_resist_displacement() {
        // The probabilistic insertion (probability 1 / victim.count) makes a
        // set full of hot candidates (count 30) much harder to displace than
        // a set full of cold candidates (count 1). Compare the two under the
        // same one-off-page stream.
        let run = |candidate_count: u32| -> u64 {
            let mut f = engine(1.0, 1000.0);
            let mut s = set();
            for (i, slot) in s.candidates.iter_mut().enumerate() {
                *slot = MetadataEntry {
                    unit: 1000 + i as u64,
                    count: candidate_count,
                    valid: true,
                };
            }
            for (w, e) in s.cached.iter_mut().enumerate() {
                *e = MetadataEntry {
                    unit: 2000 + w as u64,
                    count: 31,
                    valid: true,
                };
            }
            let mut inserted = 0u64;
            for i in 0..300u64 {
                if matches!(
                    f.on_access(&mut s, 5000 + i, 1.0),
                    FbrDecision::CandidateInserted { .. }
                ) {
                    inserted += 1;
                }
            }
            inserted
        };
        let hot = run(30);
        let cold = run(1);
        assert!(
            hot * 2 < cold,
            "hot candidates should be displaced far less often: hot={hot} cold={cold}"
        );
    }

    #[test]
    fn not_sampled_leaves_metadata_untouched() {
        let mut f = FrequencyReplacement::with_params(0.0, 3.2, 31, false);
        let mut s = set();
        let before = s.clone();
        for i in 0..100u64 {
            assert_eq!(f.on_access(&mut s, i, 1.0), FbrDecision::NotSampled);
        }
        assert_eq!(s, before);
        assert_eq!(f.sampled_accesses(), 0);
    }

    #[test]
    fn untracked_pages_enter_as_candidates_at_count_one() {
        let mut f = FrequencyReplacement::new(&BansheeConfig::paper_default());
        f.set_force_sample(true);
        // Page 7 earns history in one set; in a fresh set it is untracked
        // again and restarts at 1, as Algorithm 1 writes it.
        let mut a = set();
        for _ in 0..6 {
            f.on_access(&mut a, 7, 1.0);
        }
        let mut b = set();
        let d = f.on_access(&mut b, 7, 1.0);
        let FbrDecision::CandidateInserted { slot } = d else {
            panic!("expected a candidate insertion, got {d:?}");
        };
        assert_eq!(b.candidates[slot].count, 1);
    }

    #[test]
    fn decision_traffic_flags() {
        assert!(!FbrDecision::NotSampled.sampled());
        assert!(FbrDecision::Updated { halved: false }.wrote_metadata());
        assert!(FbrDecision::Replace {
            way: 0,
            victim: None
        }
        .wrote_metadata());
        assert!(FbrDecision::CandidateInserted { slot: 0 }.wrote_metadata());
        assert!(!FbrDecision::CandidateRejected.wrote_metadata());
        assert!(FbrDecision::CandidateRejected.sampled());
    }

    proptest! {
        /// Structural invariants hold under arbitrary access streams: no unit
        /// is ever both cached and a candidate, occupancies stay within the
        /// geometry, and counters stay below the maximum.
        #[test]
        fn prop_metadata_invariants(stream in proptest::collection::vec(0u64..40, 1..500)) {
            let mut f = FrequencyReplacement::with_params(1.0, 3.2, 31, true);
            let mut s = CacheSetMetadata::new(4, 5);
            for unit in stream {
                f.on_access(&mut s, unit, 1.0);
                prop_assert!(s.cached_occupancy() <= 4);
                prop_assert!(s.candidate_occupancy() <= 5);
                for e in s.cached.iter().filter(|e| e.valid) {
                    prop_assert!(s.find_candidate(e.unit).is_none(),
                        "unit {} is both cached and candidate", e.unit);
                    prop_assert!(e.count <= 31);
                }
                for e in s.candidates.iter().filter(|e| e.valid) {
                    prop_assert!(e.count <= 31);
                }
            }
        }

        /// save → restore → save is byte-identical for both the replacement
        /// engine (including its RNG stream) and the set metadata, and the
        /// restored pair makes the same decisions as the original.
        #[test]
        fn prop_persist_round_trip(
            stream in proptest::collection::vec(0u64..40, 0..300),
            tail in proptest::collection::vec(0u64..40, 0..80),
        ) {
            let mut f = FrequencyReplacement::with_params(1.0, 3.2, 31, true);
            let mut s = CacheSetMetadata::new(4, 5);
            for unit in stream {
                f.on_access(&mut s, unit, 1.0);
            }
            let persist_pair = |f: &FrequencyReplacement, s: &CacheSetMetadata| {
                let mut w = SnapshotWriter::new();
                f.save(&mut w);
                s.save(&mut w);
                w.into_bytes()
            };
            let bytes = persist_pair(&f, &s);
            let mut r = SnapshotReader::new(&bytes);
            let mut f2 = FrequencyReplacement::restore(&mut r).unwrap();
            let mut s2 = CacheSetMetadata::restore(&mut r).unwrap();
            prop_assert!(r.is_exhausted());
            prop_assert_eq!(persist_pair(&f2, &s2), bytes);
            // The RNG stream resumed mid-sequence: decisions must agree.
            for unit in tail {
                let a = f.on_access(&mut s, unit, 1.0);
                let b = f2.on_access(&mut s2, unit, 1.0);
                prop_assert_eq!(a, b);
            }
            prop_assert_eq!(persist_pair(&f, &s), persist_pair(&f2, &s2));
        }

        /// Truncating a snapshot at any point is a typed error, not a panic.
        #[test]
        fn prop_persist_truncation_is_typed(cut in 0usize..96) {
            let mut f = FrequencyReplacement::with_params(1.0, 3.2, 31, true);
            let mut s = CacheSetMetadata::new(4, 5);
            for unit in 0..24 {
                f.on_access(&mut s, unit, 1.0);
            }
            let mut w = SnapshotWriter::new();
            f.save(&mut w);
            s.save(&mut w);
            let bytes = w.into_bytes();
            let cut = cut.min(bytes.len().saturating_sub(1));
            let mut r = SnapshotReader::new(&bytes[..cut]);
            let truncated = match FrequencyReplacement::restore(&mut r) {
                Err(_) => true,
                Ok(_) => CacheSetMetadata::restore(&mut r).is_err(),
            };
            prop_assert!(truncated, "truncated pair at {} parsed fully", cut);
        }
    }
}
