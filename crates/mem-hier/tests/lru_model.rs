//! Differential test of `SetAssocCache` against a reference LRU model.
//!
//! The cache keeps LRU order as per-way recency ranks. The model below
//! keeps it the plain way: one `Vec` per set whose entries carry the time
//! they were last touched, and a full set evicts the entry with the oldest
//! timestamp. Random `access`/`invalidate`/`mark_dirty` streams go through
//! both, and every observable outcome must agree at every step.

use banshee_common::LineAddr;
use banshee_memhier::SetAssocCache;
use proptest::collection::vec;
use proptest::prelude::*;

struct ModelLine {
    line: u64,
    dirty: bool,
    touched: u64,
}

/// Timestamp LRU over `sets` sets of `ways` entries each.
struct LruModel {
    sets: Vec<Vec<ModelLine>>,
    ways: usize,
    clock: u64,
}

/// What one model access reports: hit, dirty victim, clean victim.
type ModelOutcome = (bool, Option<u64>, Option<u64>);

impl LruModel {
    fn new(sets: usize, ways: usize) -> Self {
        LruModel {
            sets: (0..sets).map(|_| Vec::new()).collect(),
            ways,
            clock: 0,
        }
    }

    fn set(&mut self, line: u64) -> &mut Vec<ModelLine> {
        let n = self.sets.len() as u64;
        &mut self.sets[(line % n) as usize]
    }

    fn access(&mut self, line: u64, write: bool) -> ModelOutcome {
        self.clock += 1;
        let (now, ways) = (self.clock, self.ways);
        let set = self.set(line);
        if let Some(entry) = set.iter_mut().find(|e| e.line == line) {
            entry.dirty |= write;
            entry.touched = now;
            return (true, None, None);
        }
        let mut victim = (None, None);
        if set.len() == ways {
            let oldest = (0..set.len())
                .min_by_key(|&i| set[i].touched)
                .expect("a full set is not empty");
            let evicted = set.swap_remove(oldest);
            victim = if evicted.dirty {
                (Some(evicted.line), None)
            } else {
                (None, Some(evicted.line))
            };
        }
        set.push(ModelLine {
            line,
            dirty: write,
            touched: now,
        });
        (false, victim.0, victim.1)
    }

    fn invalidate(&mut self, line: u64) -> Option<bool> {
        let set = self.set(line);
        let i = set.iter().position(|e| e.line == line)?;
        Some(set.swap_remove(i).dirty)
    }

    /// Marking dirty does not count as a use: recency is unchanged.
    fn mark_dirty(&mut self, line: u64) -> bool {
        match self.set(line).iter_mut().find(|e| e.line == line) {
            Some(entry) => {
                entry.dirty = true;
                true
            }
            None => false,
        }
    }

    fn probe(&self, line: u64) -> bool {
        let n = self.sets.len() as u64;
        self.sets[(line % n) as usize]
            .iter()
            .any(|e| e.line == line)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn cache_matches_the_timestamp_lru_model(
        log2_sets in 0u32..4,
        ways in 1usize..9,
        ops in vec((0u64..96, 0u8..4, 0u64..96), 1..600),
    ) {
        let sets = 1usize << log2_sets;
        let mut cache = SetAssocCache::new((sets * ways * 64) as u64, ways);
        let mut model = LruModel::new(sets, ways);
        for (step, (line, op, other)) in ops.into_iter().enumerate() {
            let addr = LineAddr::new(line);
            let (what, got, want) = match op {
                0 | 1 => {
                    let r = cache.access(addr, op == 1);
                    let got = (
                        r.hit,
                        r.writeback.map(|l| l.raw()),
                        r.evicted_clean.map(|l| l.raw()),
                    );
                    let want = model.access(line, op == 1);
                    ("access", format!("{got:?}"), format!("{want:?}"))
                }
                2 => (
                    "invalidate",
                    format!("{:?}", cache.invalidate(addr)),
                    format!("{:?}", model.invalidate(line)),
                ),
                _ => (
                    "mark_dirty",
                    format!("{:?}", cache.mark_dirty(addr)),
                    format!("{:?}", model.mark_dirty(line)),
                ),
            };
            prop_assert_eq!(
                &got,
                &want,
                "step {}: {} of line {}: cache {} != model {}",
                step, what, line, got, want
            );
            for probed in [line, other] {
                let (got, want) = (cache.probe(LineAddr::new(probed)), model.probe(probed));
                prop_assert_eq!(
                    got,
                    want,
                    "step {}: probe of line {}: cache {} != model {}",
                    step, probed, got, want
                );
            }
        }
    }
}
