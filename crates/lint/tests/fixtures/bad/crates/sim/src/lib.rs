//! Known-bad fixture: std-hash and wall-clock violations.
use std::collections::HashMap;
use std::time::Instant;

pub fn lookup() -> HashMap<u64, u64> {
    HashMap::new()
}

pub fn stamp() -> Instant {
    Instant::now()
}

// tidy: allow(std-hash)
pub type Bad = std::collections::HashSet<u64>;
