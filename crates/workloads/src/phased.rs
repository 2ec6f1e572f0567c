//! A phase-changing multi-tenant mix (scenario family `"phased"`).
//!
//! Models a consolidated machine whose *active* tenant changes over time —
//! the regime that stresses a DRAM cache's replacement policy hardest.
//! Each tenant owns a private sub-region with its own two-region
//! ([`SyntheticParams`]) behaviour; execution proceeds in phases of
//! `phase_accesses` accesses, and in phase `p` tenant `p % tenants` receives
//! `active_share` of the accesses while the rest are spread round-robin over
//! the other tenants (background load).
//!
//! A frequency-based policy (Banshee) has to *unlearn* the previous phase's
//! hot set every phase change; an LRU policy adapts instantly but thrashes
//! inside a phase. Phase length relative to the epoch/counter dynamics is
//! the interesting knob, and it is scenario data, not code.

use crate::synthetic::{SyntheticParams, SyntheticTrace};
use crate::trace::{MemoryAccess, TraceGenerator};
use banshee_common::{XorShiftRng, PAGE_SIZE};

/// Parameters of the phase-changing multi-tenant model.
#[derive(Debug, Clone, PartialEq)]
pub struct PhasedParams {
    /// Display name for reporting.
    pub name: String,
    /// Accesses per phase (per core).
    pub phase_accesses: u64,
    /// Fraction of a phase's accesses that go to the active tenant
    /// (the rest are background load on the other tenants).
    pub active_share: f64,
    /// The tenants. Each entry's `footprint_bytes` sizes that tenant's
    /// private sub-region; regions are laid out consecutively.
    pub tenants: Vec<SyntheticParams>,
}

impl PhasedParams {
    /// Total footprint: the sum of the tenants' regions.
    pub fn footprint_bytes(&self) -> u64 {
        self.tenants.iter().map(|t| t.footprint_bytes).sum()
    }
}

/// The generator state for one core.
pub struct PhasedTrace {
    params: PhasedParams,
    tenants: Vec<SyntheticTrace>,
    rng: XorShiftRng,
    /// Accesses issued so far (drives the phase schedule).
    issued: u64,
    /// Round-robin cursor over the background tenants.
    background_cursor: usize,
}

impl PhasedTrace {
    /// Create a generator whose tenant regions start at `base`.
    pub fn new(params: PhasedParams, base: u64, seed: u64) -> Self {
        assert!(!params.tenants.is_empty(), "phased mix needs tenants");
        assert!(params.phase_accesses > 0, "phase length must be positive");
        let tenants = Self::placements(&params, base, seed)
            .map(|(t, offset, tenant_seed)| {
                assert!(
                    t.footprint_bytes >= 2 * PAGE_SIZE,
                    "tenant footprint too small"
                );
                SyntheticTrace::new(t.clone(), offset, tenant_seed)
            })
            .collect();
        Self::with_tenants(params, tenants, seed)
    }

    /// A fresh generator whose tenant regions start at `base`: the same
    /// stream as `PhasedTrace::new(self.params().clone(), base, seed)`, but
    /// sharing this generator's per-tenant Zipf tables instead of building
    /// them again.
    pub fn fork(&self, base: u64, seed: u64) -> Self {
        let tenants = Self::placements(&self.params, base, seed)
            .zip(&self.tenants)
            .map(|((_, offset, tenant_seed), t)| t.fork(offset, tenant_seed))
            .collect();
        Self::with_tenants(self.params.clone(), tenants, seed)
    }

    /// Each tenant with its region's start and its generator's seed; the
    /// regions are laid out consecutively from `base`.
    fn placements(
        params: &PhasedParams,
        base: u64,
        seed: u64,
    ) -> impl Iterator<Item = (&SyntheticParams, u64, u64)> {
        let mut offset = base;
        params.tenants.iter().enumerate().map(move |(i, t)| {
            let start = offset;
            offset += t.footprint_bytes;
            (t, start, seed.wrapping_add(i as u64 * 0x9E37))
        })
    }

    fn with_tenants(params: PhasedParams, tenants: Vec<SyntheticTrace>, seed: u64) -> Self {
        PhasedTrace {
            tenants,
            rng: XorShiftRng::new(seed),
            issued: 0,
            background_cursor: 0,
            params,
        }
    }

    /// The parameters in use.
    pub fn params(&self) -> &PhasedParams {
        &self.params
    }

    /// The tenant index active at the current access count.
    pub fn active_tenant(&self) -> usize {
        ((self.issued / self.params.phase_accesses) % self.tenants.len() as u64) as usize
    }
}

impl TraceGenerator for PhasedTrace {
    fn next_access(&mut self) -> MemoryAccess {
        let active = self.active_tenant();
        self.issued += 1;
        let n = self.tenants.len();
        let tenant = if n == 1 || self.rng.chance(self.params.active_share) {
            active
        } else {
            // Background load: round-robin over the non-active tenants so
            // every tenant keeps a deterministic trickle of traffic.
            self.background_cursor = (self.background_cursor + 1) % (n - 1);
            let t = self.background_cursor;
            if t >= active {
                t + 1
            } else {
                t
            }
        };
        self.tenants[tenant].next_access()
    }

    fn name(&self) -> &str {
        &self.params.name
    }

    fn footprint_bytes(&self) -> u64 {
        self.params.footprint_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_tenant_params(phase: u64) -> PhasedParams {
        PhasedParams {
            name: "phased".to_string(),
            phase_accesses: phase,
            active_share: 0.95,
            tenants: vec![
                SyntheticParams::base("tenant0", 1 << 20),
                SyntheticParams::base("tenant1", 1 << 20),
            ],
        }
    }

    #[test]
    fn deterministic_for_a_seed() {
        let p = two_tenant_params(1000);
        let mut a = PhasedTrace::new(p.clone(), 0, 4);
        let mut b = PhasedTrace::new(p, 0, 4);
        for _ in 0..5000 {
            assert_eq!(a.next_access(), b.next_access());
        }
    }

    #[test]
    fn phases_shift_the_hot_region() {
        let p = two_tenant_params(2000);
        let region = |t: &mut PhasedTrace| {
            // Count which tenant region the next phase's accesses hit.
            let mut counts = [0usize; 2];
            for _ in 0..2000 {
                let a = t.next_access();
                counts[(a.vaddr.raw() >= (1 << 20)) as usize] += 1;
            }
            counts
        };
        let mut t = PhasedTrace::new(p, 0, 7);
        let first = region(&mut t);
        let second = region(&mut t);
        // Phase 0 favours tenant 0; phase 1 favours tenant 1.
        assert!(first[0] > first[1] * 3, "phase 0 counts {first:?}");
        assert!(second[1] > second[0] * 3, "phase 1 counts {second:?}");
    }

    #[test]
    fn footprint_sums_tenants() {
        let p = two_tenant_params(100);
        assert_eq!(p.footprint_bytes(), 2 << 20);
        let t = PhasedTrace::new(p, 0, 1);
        assert_eq!(t.footprint_bytes(), 2 << 20);
    }

    #[test]
    fn accesses_stay_inside_the_union_region() {
        let p = two_tenant_params(500);
        let total = p.footprint_bytes();
        let mut t = PhasedTrace::new(p, 0x40_0000, 3);
        for _ in 0..10_000 {
            let a = t.next_access();
            assert!(a.vaddr.raw() >= 0x40_0000);
            assert!(a.vaddr.raw() < 0x40_0000 + total);
        }
    }

    #[test]
    #[should_panic]
    fn empty_tenant_list_rejected() {
        let _ = PhasedTrace::new(
            PhasedParams {
                name: "x".into(),
                phase_accesses: 1,
                active_share: 0.9,
                tenants: vec![],
            },
            0,
            1,
        );
    }
}
