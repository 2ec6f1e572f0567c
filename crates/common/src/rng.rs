//! Deterministic pseudo-random number generation.
//!
//! Both the workload generators and the cache-replacement policies need
//! randomness:
//!
//! * Banshee's sampling-based counter update (Algorithm 1, line 3) samples an
//!   access with probability `recent_miss_rate × sampling_coefficient`.
//! * The candidate-insertion path (Algorithm 1, lines 18–22) replaces a random
//!   candidate with probability `1 / victim.count`.
//! * Alloy Cache with BEAR uses stochastic replacement (fill with probability
//!   0.1).
//! * The synthetic workloads draw page/line addresses from Zipf and uniform
//!   distributions.
//!
//! All of these must be *deterministic and reproducible* so that experiment
//! tables are stable across runs. We use a small xorshift* generator seeded
//! explicitly, plus SplitMix64 for seed expansion, instead of depending on a
//! system RNG.

use std::sync::Arc;

/// SplitMix64 — used to expand a single user seed into many stream seeds.
///
/// Reference: Steele, Lea, Flood. "Fast splittable pseudorandom number
/// generators" (OOPSLA 2014). This is the conventional seed-expansion
/// generator for xorshift-family PRNGs.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Create a new generator from a seed.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Next 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// A xorshift64* PRNG: small, fast, deterministic, good enough statistical
/// quality for workload generation and stochastic replacement decisions.
#[derive(Debug, Clone)]
pub struct XorShiftRng {
    state: u64,
}

impl XorShiftRng {
    /// Create a generator from a seed. A zero seed is remapped to a non-zero
    /// constant because the all-zero state is a fixed point of xorshift.
    pub fn new(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        let mut state = sm.next_u64();
        if state == 0 {
            state = 0x9E37_79B9_7F4A_7C15;
        }
        XorShiftRng { state }
    }

    /// Next raw 64-bit value.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// A uniform value in `[0, bound)`. `bound` must be non-zero.
    #[inline]
    pub fn next_below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0, "bound must be non-zero");
        // Multiplication-based range reduction (Lemire). Bias is negligible
        // for the bounds used in this workspace.
        let x = self.next_u64();
        ((x as u128 * bound as u128) >> 64) as u64
    }

    /// A uniform `f64` in `[0, 1)`.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        // Use the top 53 bits for a uniformly distributed double.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli trial: returns `true` with probability `p` (clamped to [0,1]).
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.next_f64() < p
        }
    }

    /// A uniform value in the inclusive range `[lo, hi]`.
    #[inline]
    pub fn range_inclusive(&mut self, lo: u64, hi: u64) -> u64 {
        debug_assert!(lo <= hi);
        lo + self.next_below(hi - lo + 1)
    }
}

/// A sampler for the Zipf (power-law) distribution over `{0, 1, ..., n-1}`,
/// with rank-frequency exponent `s`.
///
/// The workload generators use this to model hot/cold page skew: most
/// accesses concentrate on a small set of hot pages, with a long tail — the
/// behaviour that makes frequency-based replacement attractive in the paper.
///
/// Sampling inverts the normalized CDF `cumulative` (non-decreasing,
/// `cumulative[n-1] == 1.0`): a draw `u` in `[0, 1)` maps to the first index
/// `i` with `cumulative[i] >= u`. A guide table (Chen and Asau's cutpoint
/// method) makes that lookup O(1) expected. With
/// `m = n.next_power_of_two()` buckets, `guide[k]` is the first index whose
/// `cumulative[i] >= k / m`. Every `u` in bucket `k = ⌊u·m⌋` is at least
/// `k / m`, so its answer is at or after `guide[k]`, and a forward scan from
/// there finds it, stopping no later than `guide[k + 1]` (or `n - 1` in the
/// last bucket).
///
/// The lookup is exact, not an approximation: `m` is a power of two, so
/// `u·m` and `k / m` are computed without rounding, and each draw returns the
/// same index as a binary search over `cumulative` and consumes the same
/// single RNG value. Construction is `O(n)`. A draw costs at most
/// `1 + n / m <= 2` comparisons in expectation, since the buckets are equally
/// likely and their scans together cover the `n` indices once.
///
/// The tables live behind one [`Arc`], so a clone is O(1) and shares them:
/// a workload builds each `(n, s)` table once and hands every core a clone.
#[derive(Debug, Clone)]
pub struct ZipfSampler {
    tables: Arc<ZipfTables>,
}

#[derive(Debug)]
struct ZipfTables {
    cumulative: Vec<f64>,
    guide: Vec<u32>,
}

impl ZipfSampler {
    /// Build a sampler over `n` items with exponent `s` (s = 0 is uniform,
    /// larger `s` is more skewed; s ≈ 0.8–1.2 is typical for memory traces).
    ///
    /// # Panics
    /// Panics if `n == 0`, `n > u32::MAX`, or `s` is negative/not finite.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "ZipfSampler needs at least one item");
        assert!(
            u32::try_from(n).is_ok(),
            "ZipfSampler indexes its guide table with u32"
        );
        assert!(
            s >= 0.0 && s.is_finite(),
            "exponent must be finite and >= 0"
        );
        let mut cumulative = Vec::with_capacity(n);
        let mut total = 0.0f64;
        for rank in 1..=n {
            total += 1.0 / (rank as f64).powf(s);
            cumulative.push(total);
        }
        // Normalize to [0, 1].
        for c in cumulative.iter_mut() {
            *c /= total;
        }
        // Guard against floating point droop on the last element.
        if let Some(last) = cumulative.last_mut() {
            *last = 1.0;
        }
        let m = n.next_power_of_two();
        let mut guide = Vec::with_capacity(m);
        let mut i = 0usize;
        for k in 0..m {
            // k / m < 1.0 == cumulative[n-1], so `i` stays in bounds.
            let edge = k as f64 / m as f64;
            while cumulative[i] < edge {
                i += 1;
            }
            guide.push(i as u32);
        }
        ZipfSampler {
            tables: Arc::new(ZipfTables { cumulative, guide }),
        }
    }

    /// Number of items in the distribution's support.
    pub fn len(&self) -> usize {
        self.tables.cumulative.len()
    }

    /// True if the support is a single item.
    pub fn is_empty(&self) -> bool {
        self.tables.cumulative.is_empty()
    }

    /// Draw one item index (rank order: index 0 is the most popular item).
    #[inline]
    pub fn sample(&self, rng: &mut XorShiftRng) -> usize {
        self.index_of(rng.next_f64())
    }

    /// The first index whose cumulative weight is `>= u`, for `u` in
    /// `[0, 1)` drawn by [`XorShiftRng::next_f64`].
    #[inline]
    fn index_of(&self, u: f64) -> usize {
        let ZipfTables { cumulative, guide } = &*self.tables;
        // Exact: scaling by a power of two does not round, and u < 1.
        let k = (u * guide.len() as f64) as usize;
        let mut i = guide[k] as usize;
        // Ends by n-1 at the latest, because cumulative[n-1] == 1.0 > u.
        while cumulative[i] < u {
            i += 1;
        }
        i
    }
}

impl crate::persist::Persist for SplitMix64 {
    fn save(&self, w: &mut crate::persist::SnapshotWriter) {
        w.u64(self.state);
    }
    fn restore(
        r: &mut crate::persist::SnapshotReader<'_>,
    ) -> Result<Self, crate::persist::SnapshotError> {
        Ok(SplitMix64 { state: r.u64()? })
    }
}

impl crate::persist::Persist for XorShiftRng {
    fn save(&self, w: &mut crate::persist::SnapshotWriter) {
        w.u64(self.state);
    }
    fn restore(
        r: &mut crate::persist::SnapshotReader<'_>,
    ) -> Result<Self, crate::persist::SnapshotError> {
        let state = r.u64()?;
        if state == 0 {
            // The all-zero state is a fixed point of xorshift and can never
            // be reached from a seeded generator, so it marks corruption.
            return Err(crate::persist::SnapshotError::Corrupt(
                "xorshift state is zero".to_string(),
            ));
        }
        Ok(XorShiftRng { state })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_persist_round_trip_preserves_the_stream() {
        use crate::persist::{Persist, SnapshotReader, SnapshotWriter};
        let mut original = XorShiftRng::new(99);
        for _ in 0..17 {
            original.next_u64();
        }
        let mut w = SnapshotWriter::new();
        original.save(&mut w);
        let bytes = w.into_bytes();
        let mut restored = XorShiftRng::restore(&mut SnapshotReader::new(&bytes)).unwrap();
        for _ in 0..100 {
            assert_eq!(original.next_u64(), restored.next_u64());
        }
        // Zero state is rejected as corruption.
        let mut w = SnapshotWriter::new();
        w.u64(0);
        let bytes = w.into_bytes();
        assert!(XorShiftRng::restore(&mut SnapshotReader::new(&bytes)).is_err());
    }

    #[test]
    fn xorshift_is_deterministic() {
        let mut a = XorShiftRng::new(7);
        let mut b = XorShiftRng::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = XorShiftRng::new(1);
        let mut b = XorShiftRng::new(2);
        let same = (0..32).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 4, "streams from different seeds should diverge");
    }

    #[test]
    fn zero_seed_is_usable() {
        let mut r = XorShiftRng::new(0);
        let x = r.next_u64();
        let y = r.next_u64();
        assert_ne!(x, 0);
        assert_ne!(x, y);
    }

    #[test]
    fn next_below_stays_in_range() {
        let mut r = XorShiftRng::new(11);
        for bound in [1u64, 2, 3, 10, 63, 64, 1000] {
            for _ in 0..200 {
                assert!(r.next_below(bound) < bound);
            }
        }
    }

    #[test]
    fn next_f64_in_unit_interval() {
        let mut r = XorShiftRng::new(5);
        for _ in 0..1000 {
            let v = r.next_f64();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn chance_extremes() {
        let mut r = XorShiftRng::new(13);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
        assert!(!r.chance(-1.0));
        assert!(r.chance(2.0));
    }

    #[test]
    fn chance_probability_roughly_respected() {
        let mut r = XorShiftRng::new(17);
        let n = 20_000;
        let hits = (0..n).filter(|_| r.chance(0.1)).count();
        let frac = hits as f64 / n as f64;
        assert!((0.08..0.12).contains(&frac), "observed {frac}");
    }

    #[test]
    fn range_inclusive_bounds() {
        let mut r = XorShiftRng::new(23);
        for _ in 0..500 {
            let v = r.range_inclusive(10, 20);
            assert!((10..=20).contains(&v));
        }
        assert_eq!(r.range_inclusive(5, 5), 5);
    }

    #[test]
    fn zipf_prefers_low_ranks() {
        let z = ZipfSampler::new(1000, 1.0);
        let mut r = XorShiftRng::new(3);
        let n = 50_000;
        let mut top10 = 0usize;
        for _ in 0..n {
            if z.sample(&mut r) < 10 {
                top10 += 1;
            }
        }
        // With s=1.0 and n=1000, the top-10 ranks carry ~39% of the mass.
        let frac = top10 as f64 / n as f64;
        assert!(frac > 0.3, "top-10 fraction too small: {frac}");
    }

    #[test]
    fn zipf_uniform_when_s_is_zero() {
        let z = ZipfSampler::new(100, 0.0);
        let mut r = XorShiftRng::new(9);
        let n = 100_000;
        let mut counts = vec![0usize; 100];
        for _ in 0..n {
            counts[z.sample(&mut r)] += 1;
        }
        let min = *counts.iter().min().unwrap() as f64;
        let max = *counts.iter().max().unwrap() as f64;
        assert!(
            max / min < 1.5,
            "uniform sampling too skewed: {min} vs {max}"
        );
    }

    #[test]
    fn zipf_sample_in_range() {
        let z = ZipfSampler::new(7, 1.2);
        let mut r = XorShiftRng::new(4);
        for _ in 0..1000 {
            assert!(z.sample(&mut r) < 7);
        }
    }

    /// The guide-table lookup returns exactly what a binary search over the
    /// CDF returns, for random draws and for every bucket edge `k / m` and
    /// its neighbours (adjacent `f64`s and adjacent `next_f64` draws), where
    /// a truncation or rounding slip would show.
    #[test]
    fn zipf_guide_lookup_matches_binary_search() {
        const ULP: f64 = 1.0 / (1u64 << 53) as f64;
        let mut r = XorShiftRng::new(29);
        for n in [1usize, 2, 3, 7, 64, 65, 768, 16_000, 262_144] {
            for s in [0.0, 0.2, 0.9, 0.99, 1.2] {
                let z = ZipfSampler::new(n, s);
                let reference = |u: f64| z.tables.cumulative.partition_point(|&c| c < u);
                let m = z.tables.guide.len();
                assert_eq!(m, n.next_power_of_two());
                let edges = (0..m).flat_map(|k| {
                    let edge = k as f64 / m as f64;
                    [
                        edge - ULP,
                        edge.next_down(),
                        edge,
                        edge.next_up(),
                        edge + ULP,
                    ]
                });
                let random = (0..20_000).map(|_| r.next_f64());
                for u in edges
                    .chain(random)
                    .chain([0.0, 1.0 - ULP])
                    .filter(|u| (0.0..1.0).contains(u))
                {
                    assert_eq!(z.index_of(u), reference(u), "n={n} s={s} u={u:e}");
                }
            }
        }
    }

    #[test]
    fn zipf_clones_share_tables() {
        let z = ZipfSampler::new(1000, 0.99);
        let c = z.clone();
        assert!(Arc::ptr_eq(&z.tables, &c.tables));
        let (mut a, mut b) = (XorShiftRng::new(8), XorShiftRng::new(8));
        for _ in 0..1000 {
            assert_eq!(z.sample(&mut a), c.sample(&mut b));
        }
    }

    #[test]
    #[should_panic]
    fn zipf_rejects_empty_support() {
        let _ = ZipfSampler::new(0, 1.0);
    }
}
