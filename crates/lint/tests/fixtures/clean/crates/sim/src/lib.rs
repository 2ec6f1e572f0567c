//! Clean fixture: markers used correctly.

// tidy: allow(std-hash): fixture exercising a justified exception
use std::collections::HashMap;

pub fn lookup() -> HashMap<u64, u64> {
    HashMap::new()
}

#[cfg(test)]
mod tests {
    #[test]
    fn std_hash_and_wall_clock_are_fine_in_tests() {
        let _ = std::collections::HashSet::<u64>::new();
        let _ = std::time::Instant::now();
    }
}
