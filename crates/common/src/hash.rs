//! Fast, deterministic hashing for simulator-internal maps.
//!
//! `std`'s default `HashMap` hasher (SipHash with per-process random keys)
//! is designed to resist hash-flooding from untrusted input. Simulator state
//! is trusted, its keys are small (page numbers, cache units, `(set, way)`
//! pairs), and the maps sit on the per-access hot path — so every crate in
//! the workspace uses this FNV-1a hasher instead: it is several times faster
//! on small keys and, unlike the randomly seeded default, makes iteration
//! order a deterministic function of the inserted keys (runs are perfectly
//! reproducible across processes).
//!
//! The same 64-bit FNV-1a is used by `banshee_exec`'s result store to derive
//! entry file names from key material ([`fnv1a64`]).

#[allow(
    clippy::disallowed_types,
    reason = "definition site: the aliases below plug in the deterministic FNV hasher"
)]
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// FNV-1a offset basis (64-bit).
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a prime (64-bit).
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// 64-bit FNV-1a over a byte slice.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = FNV_OFFSET;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// A [`Hasher`] implementing 64-bit FNV-1a.
#[derive(Debug, Clone)]
pub struct FnvHasher(u64);

impl Default for FnvHasher {
    fn default() -> Self {
        FnvHasher(FNV_OFFSET)
    }
}

impl Hasher for FnvHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut hash = self.0;
        for &b in bytes {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(FNV_PRIME);
        }
        self.0 = hash;
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        // The dominant key shape (addresses, page numbers); hashing the
        // eight bytes in one go keeps the loop unrolled.
        self.write(&n.to_le_bytes());
    }
}

/// A `HashMap` keyed by the deterministic FNV-1a hasher.
#[allow(
    clippy::disallowed_types,
    reason = "the deterministic replacement itself"
)]
pub type FnvHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FnvHasher>>;

/// A `HashSet` keyed by the deterministic FNV-1a hasher.
#[allow(
    clippy::disallowed_types,
    reason = "the deterministic replacement itself"
)]
pub type FnvHashSet<T> = HashSet<T, BuildHasherDefault<FnvHasher>>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_reference_vectors() {
        // Published FNV-1a 64-bit test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn hasher_agrees_with_free_function() {
        let mut h = FnvHasher::default();
        h.write(b"foobar");
        assert_eq!(h.finish(), fnv1a64(b"foobar"));
    }

    #[test]
    fn map_and_set_are_usable_and_deterministic() {
        let mut a = FnvHashMap::default();
        let mut b = FnvHashMap::default();
        for i in 0..1000u64 {
            a.insert(i, i * 2);
            b.insert(i, i * 2);
        }
        assert_eq!(a.get(&500), Some(&1000));
        // Identical insertion sequences iterate identically (the property
        // std's randomly seeded maps do not have).
        assert!(a.iter().zip(b.iter()).all(|(x, y)| x == y));

        let mut s = FnvHashSet::default();
        s.insert(42u64);
        assert!(s.contains(&42));
    }
}
