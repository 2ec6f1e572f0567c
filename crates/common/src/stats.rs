//! Statistics: DRAM traffic accounting and general counters.
//!
//! The central evaluation metric of the paper is *bytes of DRAM traffic per
//! instruction*, broken down by what the bytes were moved for (Figures 5, 6
//! and 9). Every DRAM operation issued by a cache controller in this
//! workspace is therefore tagged with a [`TrafficClass`] and the DRAM it
//! targets ([`DramKind`]), and [`TrafficStats`] accumulates the per-class
//! byte counts.

use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::collections::BTreeMap;

/// Which DRAM an operation targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum DramKind {
    /// The in-package (HBM-like) DRAM used as a cache.
    InPackage,
    /// The off-package (DDR) DRAM backing store.
    OffPackage,
}

impl DramKind {
    /// All DRAM kinds, in display order.
    pub const ALL: [DramKind; 2] = [DramKind::InPackage, DramKind::OffPackage];
}

impl core::fmt::Display for DramKind {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            DramKind::InPackage => write!(f, "in-package"),
            DramKind::OffPackage => write!(f, "off-package"),
        }
    }
}

/// Why bytes were moved. These are exactly the stacked-bar categories of the
/// paper's Figure 5 (plus `Counter`, which Figure 9 separates out, and
/// `Writeback`, which the paper folds into its off-package traffic).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum TrafficClass {
    /// Data returned for a DRAM cache hit — the only *useful* traffic.
    HitData,
    /// Data moved on a DRAM cache miss (speculative loads, off-package demand
    /// fetches on the critical path).
    MissData,
    /// Tag reads/updates and tag probes (e.g. for LLC dirty evictions that
    /// miss in Banshee's tag buffer).
    Tag,
    /// Frequency-counter (metadata) reads and writes — Banshee only.
    Counter,
    /// Cache replacement traffic: page/line fills into the DRAM cache and
    /// dirty victim evictions out of it.
    Replacement,
    /// Writebacks of dirty LLC lines to whichever DRAM currently holds them.
    Writeback,
}

impl TrafficClass {
    /// All traffic classes, in display order (matches the paper's legend
    /// order for Figure 5 with our two extra classes appended).
    pub const ALL: [TrafficClass; 6] = [
        TrafficClass::HitData,
        TrafficClass::MissData,
        TrafficClass::Tag,
        TrafficClass::Counter,
        TrafficClass::Replacement,
        TrafficClass::Writeback,
    ];

    /// Short label used in printed tables.
    pub fn label(self) -> &'static str {
        match self {
            TrafficClass::HitData => "HitData",
            TrafficClass::MissData => "MissData",
            TrafficClass::Tag => "Tag",
            TrafficClass::Counter => "Counter",
            TrafficClass::Replacement => "Replacement",
            TrafficClass::Writeback => "Writeback",
        }
    }

    /// Index into dense per-class arrays.
    #[inline]
    pub fn index(self) -> usize {
        match self {
            TrafficClass::HitData => 0,
            TrafficClass::MissData => 1,
            TrafficClass::Tag => 2,
            TrafficClass::Counter => 3,
            TrafficClass::Replacement => 4,
            TrafficClass::Writeback => 5,
        }
    }
}

impl core::fmt::Display for TrafficClass {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.label())
    }
}

/// Byte counts per (DRAM kind, traffic class).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TrafficStats {
    in_package: [u64; 6],
    off_package: [u64; 6],
}

impl TrafficStats {
    /// A zeroed accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record `bytes` of traffic on `dram` attributed to `class`.
    #[inline]
    pub fn add(&mut self, dram: DramKind, class: TrafficClass, bytes: u64) {
        match dram {
            DramKind::InPackage => self.in_package[class.index()] += bytes,
            DramKind::OffPackage => self.off_package[class.index()] += bytes,
        }
    }

    /// Bytes recorded for a specific (DRAM, class) pair.
    #[inline]
    pub fn bytes(&self, dram: DramKind, class: TrafficClass) -> u64 {
        match dram {
            DramKind::InPackage => self.in_package[class.index()],
            DramKind::OffPackage => self.off_package[class.index()],
        }
    }

    /// Total bytes moved on a DRAM across all classes.
    pub fn total(&self, dram: DramKind) -> u64 {
        match dram {
            DramKind::InPackage => self.in_package.iter().sum(),
            DramKind::OffPackage => self.off_package.iter().sum(),
        }
    }

    /// Total bytes moved on both DRAMs.
    pub fn grand_total(&self) -> u64 {
        self.total(DramKind::InPackage) + self.total(DramKind::OffPackage)
    }

    /// Merge another accumulator into this one.
    pub fn merge(&mut self, other: &TrafficStats) {
        for i in 0..6 {
            self.in_package[i] += other.in_package[i];
            self.off_package[i] += other.off_package[i];
        }
    }

    /// The difference `self - baseline` (saturating), used to exclude a
    /// warm-up phase from measured traffic.
    pub fn since(&self, baseline: &TrafficStats) -> TrafficStats {
        let mut out = TrafficStats::new();
        for i in 0..6 {
            out.in_package[i] = self.in_package[i].saturating_sub(baseline.in_package[i]);
            out.off_package[i] = self.off_package[i].saturating_sub(baseline.off_package[i]);
        }
        out
    }

    /// Per-class breakdown for one DRAM, as (class, bytes) pairs in display
    /// order.
    pub fn breakdown(&self, dram: DramKind) -> Vec<(TrafficClass, u64)> {
        TrafficClass::ALL
            .iter()
            .map(|&c| (c, self.bytes(dram, c)))
            .collect()
    }

    /// Bytes per instruction for one DRAM and class.
    pub fn bytes_per_instr(&self, dram: DramKind, class: TrafficClass, instrs: u64) -> f64 {
        if instrs == 0 {
            0.0
        } else {
            self.bytes(dram, class) as f64 / instrs as f64
        }
    }

    /// Total bytes per instruction for one DRAM.
    pub fn total_bytes_per_instr(&self, dram: DramKind, instrs: u64) -> f64 {
        if instrs == 0 {
            0.0
        } else {
            self.total(dram) as f64 / instrs as f64
        }
    }
}

/// A loose bag of named counters, used for per-design bookkeeping that does
/// not warrant a dedicated struct field (e.g. "tag_buffer_flushes",
/// "tlb_shootdowns", "footprint_lines_fetched").
///
/// Counter names are `&'static str` at every recording call site (they are
/// all literals), so [`StatSet::add`] / [`StatSet::inc`] never allocate on
/// the hot path: keys are stored as `Cow::Borrowed`. Owned keys only appear
/// when a set is rebuilt from JSON (deserialization), which is off the
/// simulation path. Serialization is unchanged: a name-sorted JSON object.
#[derive(Debug, Clone, Default)]
pub struct StatSet {
    counters: BTreeMap<Cow<'static, str>, u64>,
}

impl StatSet {
    /// An empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `n` to counter `name`, creating it if needed (allocation-free:
    /// the literal is borrowed, not copied).
    pub fn add(&mut self, name: &'static str, n: u64) {
        *self.counters.entry(Cow::Borrowed(name)).or_insert(0) += n;
    }

    /// Increment counter `name` by one.
    pub fn inc(&mut self, name: &'static str) {
        self.add(name, 1);
    }

    /// Value of counter `name` (0 if never touched).
    pub fn get(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Iterate over (name, value) pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, v)| (k.as_ref(), *v))
    }

    /// Merge another set into this one (summing matching counters).
    pub fn merge(&mut self, other: &StatSet) {
        for (k, v) in other.counters.iter() {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
    }

    /// Number of distinct counters.
    pub fn len(&self) -> usize {
        self.counters.len()
    }

    /// True if no counters have been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
    }
}

impl crate::persist::Persist for TrafficClass {
    fn save(&self, w: &mut crate::persist::SnapshotWriter) {
        w.u8(self.index() as u8);
    }
    fn restore(
        r: &mut crate::persist::SnapshotReader<'_>,
    ) -> Result<Self, crate::persist::SnapshotError> {
        let idx = r.u8()? as usize;
        TrafficClass::ALL.get(idx).copied().ok_or_else(|| {
            crate::persist::SnapshotError::Corrupt(format!(
                "traffic class index {idx} out of range"
            ))
        })
    }
}

impl crate::persist::Persist for TrafficStats {
    fn save(&self, w: &mut crate::persist::SnapshotWriter) {
        for v in self.in_package.iter().chain(self.off_package.iter()) {
            w.u64(*v);
        }
    }
    fn restore(
        r: &mut crate::persist::SnapshotReader<'_>,
    ) -> Result<Self, crate::persist::SnapshotError> {
        let mut out = TrafficStats::new();
        for i in 0..6 {
            out.in_package[i] = r.u64()?;
        }
        for i in 0..6 {
            out.off_package[i] = r.u64()?;
        }
        Ok(out)
    }
}

// Counter names are `&'static str` literals on the hot path, but a set
// rebuilt from a snapshot has no literals to borrow — restored keys are
// owned, exactly like the serde deserialization path. The BTreeMap already
// iterates in sorted key order, so `save → restore → save` is
// byte-identical.
impl crate::persist::Persist for StatSet {
    fn save(&self, w: &mut crate::persist::SnapshotWriter) {
        w.usize(self.counters.len());
        for (k, v) in self.counters.iter() {
            w.str(k);
            w.u64(*v);
        }
    }
    fn restore(
        r: &mut crate::persist::SnapshotReader<'_>,
    ) -> Result<Self, crate::persist::SnapshotError> {
        let len = r.seq_len(9)?;
        let mut counters = BTreeMap::new();
        for _ in 0..len {
            let key = r.string()?;
            let value = r.u64()?;
            counters.insert(Cow::Owned(key), value);
        }
        Ok(StatSet { counters })
    }
}

// Manual serde impls (the derive would need map impls for `Cow` keys). The
// JSON shape matches what the former derived impl produced for a
// `BTreeMap<String, u64>` field, so persisted results remain readable and
// re-serialization stays byte-identical.
impl Serialize for StatSet {
    fn to_value(&self) -> serde::Value {
        serde::Value::Object(vec![(
            "counters".to_string(),
            serde::Value::Object(
                self.counters
                    .iter()
                    .map(|(k, v)| (k.to_string(), v.to_value()))
                    .collect(),
            ),
        )])
    }
}

impl<'de> Deserialize<'de> for StatSet {
    fn deserialize_value(value: &serde::Value) -> Result<Self, serde::DecodeError> {
        match value.field("counters")? {
            serde::Value::Object(entries) => Ok(StatSet {
                counters: entries
                    .iter()
                    .map(|(k, v)| Ok((Cow::Owned(k.clone()), u64::deserialize_value(v)?)))
                    .collect::<Result<_, serde::DecodeError>>()?,
            }),
            other => Err(serde::DecodeError::new(format!(
                "expected counters object, got {}",
                other.kind()
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traffic_accumulates_per_class_and_dram() {
        let mut t = TrafficStats::new();
        t.add(DramKind::InPackage, TrafficClass::HitData, 64);
        t.add(DramKind::InPackage, TrafficClass::HitData, 64);
        t.add(DramKind::InPackage, TrafficClass::Tag, 32);
        t.add(DramKind::OffPackage, TrafficClass::MissData, 64);
        assert_eq!(t.bytes(DramKind::InPackage, TrafficClass::HitData), 128);
        assert_eq!(t.bytes(DramKind::InPackage, TrafficClass::Tag), 32);
        assert_eq!(t.bytes(DramKind::OffPackage, TrafficClass::MissData), 64);
        assert_eq!(t.bytes(DramKind::OffPackage, TrafficClass::HitData), 0);
        assert_eq!(t.total(DramKind::InPackage), 160);
        assert_eq!(t.total(DramKind::OffPackage), 64);
        assert_eq!(t.grand_total(), 224);
    }

    #[test]
    fn traffic_since_subtracts_a_baseline() {
        let mut a = TrafficStats::new();
        a.add(DramKind::InPackage, TrafficClass::HitData, 100);
        let baseline = a.clone();
        a.add(DramKind::InPackage, TrafficClass::HitData, 50);
        a.add(DramKind::OffPackage, TrafficClass::MissData, 64);
        let d = a.since(&baseline);
        assert_eq!(d.bytes(DramKind::InPackage, TrafficClass::HitData), 50);
        assert_eq!(d.bytes(DramKind::OffPackage, TrafficClass::MissData), 64);
        // Subtraction never underflows.
        let zero = baseline.since(&a);
        assert_eq!(zero.grand_total(), 0);
    }

    #[test]
    fn traffic_merge_sums() {
        let mut a = TrafficStats::new();
        let mut b = TrafficStats::new();
        a.add(DramKind::InPackage, TrafficClass::Replacement, 4096);
        b.add(DramKind::InPackage, TrafficClass::Replacement, 4096);
        b.add(DramKind::OffPackage, TrafficClass::Writeback, 64);
        a.merge(&b);
        assert_eq!(
            a.bytes(DramKind::InPackage, TrafficClass::Replacement),
            8192
        );
        assert_eq!(a.bytes(DramKind::OffPackage, TrafficClass::Writeback), 64);
    }

    #[test]
    fn bytes_per_instruction() {
        let mut t = TrafficStats::new();
        t.add(DramKind::InPackage, TrafficClass::HitData, 1000);
        assert!(
            (t.bytes_per_instr(DramKind::InPackage, TrafficClass::HitData, 500) - 2.0).abs()
                < 1e-12
        );
        assert_eq!(
            t.bytes_per_instr(DramKind::InPackage, TrafficClass::HitData, 0),
            0.0
        );
        assert!((t.total_bytes_per_instr(DramKind::InPackage, 250) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn breakdown_covers_all_classes() {
        let t = TrafficStats::new();
        let b = t.breakdown(DramKind::InPackage);
        assert_eq!(b.len(), TrafficClass::ALL.len());
        assert!(b.iter().all(|&(_, v)| v == 0));
    }

    #[test]
    fn statset_basics() {
        let mut s = StatSet::new();
        assert!(s.is_empty());
        s.inc("tag_buffer_flushes");
        s.add("tag_buffer_flushes", 2);
        s.add("tlb_shootdowns", 5);
        assert_eq!(s.get("tag_buffer_flushes"), 3);
        assert_eq!(s.get("tlb_shootdowns"), 5);
        assert_eq!(s.get("missing"), 0);
        assert_eq!(s.len(), 2);

        let mut other = StatSet::new();
        other.add("tlb_shootdowns", 1);
        other.add("new_counter", 7);
        s.merge(&other);
        assert_eq!(s.get("tlb_shootdowns"), 6);
        assert_eq!(s.get("new_counter"), 7);
    }

    #[test]
    fn statset_serde_shape_is_stable() {
        use serde::{Deserialize, Serialize, Value};
        let mut s = StatSet::new();
        s.add("tlb_shootdowns", 2);
        s.add("banshee_replacements", 7);
        // Shape: {"counters": {...}} with name-sorted keys, exactly what the
        // former derived impl over BTreeMap<String, u64> emitted.
        let v = s.to_value();
        let expected = Value::Object(vec![(
            "counters".to_string(),
            Value::Object(vec![
                ("banshee_replacements".to_string(), Value::UInt(7)),
                ("tlb_shootdowns".to_string(), Value::UInt(2)),
            ]),
        )]);
        assert_eq!(v, expected);
        // Round trip preserves values and re-serializes identically.
        let back = StatSet::deserialize_value(&v).unwrap();
        assert_eq!(back.get("tlb_shootdowns"), 2);
        assert_eq!(back.get("banshee_replacements"), 7);
        assert_eq!(back.to_value(), v);
        // A deserialized (owned-key) set merges back into a borrowed-key set.
        let mut merged = StatSet::new();
        merged.add("tlb_shootdowns", 1);
        merged.merge(&back);
        assert_eq!(merged.get("tlb_shootdowns"), 3);
    }

    #[test]
    fn class_labels_unique() {
        let labels: std::collections::BTreeSet<_> =
            TrafficClass::ALL.iter().map(|c| c.label()).collect();
        assert_eq!(labels.len(), TrafficClass::ALL.len());
    }

    #[test]
    fn class_indices_are_dense_and_unique() {
        let mut seen = [false; 6];
        for c in TrafficClass::ALL {
            assert!(!seen[c.index()]);
            seen[c.index()] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }
}
