//! A persistent, content-addressed result store.
//!
//! Each cached result is keyed by its *key material*: a canonical string
//! describing everything that affects the result (for the experiment
//! harness, the simulation config, workload, scale and seed). The material
//! is FNV-1a-hashed into the entry's file name, and stored verbatim inside
//! the entry so a hash collision or a stale file can never return the wrong
//! payload — any mismatch, parse failure or I/O error is simply a miss, and
//! the caller recomputes.
//!
//! Entries are written to a temporary file and renamed into place, so a
//! sweep killed mid-write leaves no corrupt entry behind and the next run
//! resumes from every cell that completed.

use banshee_common::hash::fnv1a64;
use banshee_common::SnapshotHeader;
use serde::Value;
use std::io;
use std::path::{Path, PathBuf};

/// Version stamp embedded in every entry; bump to invalidate old stores
/// wholesale when the entry layout changes.
pub const STORE_FORMAT: u64 = 1;

/// A directory of cached results, one JSON entry per key.
#[derive(Debug, Clone)]
pub struct ResultStore {
    dir: PathBuf,
}

impl ResultStore {
    /// Open (creating if needed) a store rooted at `dir`.
    ///
    /// Temp files orphaned by a previously killed writer are swept on open.
    /// (A concurrent writer's in-flight temp file could be swept too; its
    /// rename then fails and that cell is simply recomputed on the next
    /// run — the store never serves a bad entry either way.)
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        if let Ok(entries) = std::fs::read_dir(&dir) {
            for entry in entries.filter_map(|e| e.ok()) {
                let path = entry.path();
                if path.extension().and_then(|x| x.to_str()) == Some("tmp") {
                    let _ = std::fs::remove_file(&path);
                }
            }
        }
        Ok(ResultStore { dir })
    }

    /// The store's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The file an entry for `key_material` lives at.
    pub fn entry_path(&self, key_material: &str) -> PathBuf {
        self.dir
            .join(format!("{:016x}.json", fnv1a64(key_material.as_bytes())))
    }

    /// Fetch the payload cached for `key_material`, or `None` on a miss.
    ///
    /// Unreadable, unparsable, wrong-format and wrong-key entries all count
    /// as misses — the caller recomputes and [`ResultStore::put`] overwrites
    /// the bad entry.
    pub fn get(&self, key_material: &str) -> Option<Value> {
        let text = std::fs::read_to_string(self.entry_path(key_material)).ok()?;
        let entry = serde_json::parse_value(&text).ok()?;
        let format = entry.field("format").ok()?;
        if *format != Value::UInt(STORE_FORMAT) {
            return None;
        }
        let key = entry.field("key").ok()?;
        if *key != Value::Str(key_material.to_string()) {
            return None;
        }
        entry.field("payload").ok().cloned()
    }

    /// True if a valid entry for `key_material` exists.
    pub fn contains(&self, key_material: &str) -> bool {
        self.get(key_material).is_some()
    }

    /// Fetch and decode the payload cached for `key_material`. A payload
    /// that no longer decodes as `T` (e.g. after a result-shape change
    /// that forgot a key-material change) counts as a miss and is
    /// recomputed, like every other invalid entry.
    pub fn get_decoded<T: for<'de> serde::Deserialize<'de>>(
        &self,
        key_material: &str,
    ) -> Option<T> {
        let value = self.get(key_material)?;
        T::deserialize_value(&value).ok()
    }

    /// Encode and cache `payload` for `key_material` (the typed face of
    /// [`ResultStore::put`]; experiment and scenario cells both store
    /// their `SimResult` through this).
    pub fn put_encoded<T: serde::Serialize>(
        &self,
        key_material: &str,
        payload: &T,
    ) -> io::Result<PathBuf> {
        self.put(key_material, &payload.to_value())
    }

    /// Cache `payload` for `key_material`, replacing any previous entry.
    pub fn put(&self, key_material: &str, payload: &Value) -> io::Result<PathBuf> {
        let entry = Value::Object(vec![
            ("format".to_string(), Value::UInt(STORE_FORMAT)),
            ("key".to_string(), Value::Str(key_material.to_string())),
            ("payload".to_string(), payload.clone()),
        ]);
        let text = serde_json::to_string_pretty(&entry).map_err(io::Error::other)?;
        let path = self.entry_path(key_material);
        // Write-then-rename so interrupted writes never leave a torn entry.
        // The temp name carries pid + a process-wide counter so concurrent
        // puts (even of the same key) never share a temp file.
        static PUT_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let seq = PUT_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let tmp = self.dir.join(format!(
            ".{:016x}.{}.{}.tmp",
            fnv1a64(key_material.as_bytes()),
            std::process::id(),
            seq
        ));
        std::fs::write(&tmp, text)?;
        std::fs::rename(&tmp, &path)?;
        Ok(path)
    }

    /// The file a warmed-state snapshot for `key_material` lives at: a
    /// second content-addressed namespace (`snapshots/*.snap`) beside the
    /// JSON results, keyed the same way (FNV-1a of the material).
    pub fn snapshot_path(&self, key_material: &str) -> PathBuf {
        self.dir
            .join("snapshots")
            .join(format!("{:016x}.snap", fnv1a64(key_material.as_bytes())))
    }

    /// Fetch the warmed-state image stored for `key_material`, or `None` on
    /// a miss.
    ///
    /// The image's header is screened before it is returned: bad magic, an
    /// unknown format, a model revision other than `expected_revision` or a
    /// key hash that is not FNV-1a of `key_material` all count as misses —
    /// a stale or foreign image is recomputed, never resumed. (The caller's
    /// resume path re-validates and checks the body, so even a crafted
    /// header cannot smuggle in wrong state.)
    pub fn get_snapshot(&self, key_material: &str, expected_revision: u32) -> Option<Vec<u8>> {
        let bytes = std::fs::read(self.snapshot_path(key_material)).ok()?;
        let header = SnapshotHeader::peek(&bytes).ok()?;
        header
            .validate(expected_revision, fnv1a64(key_material.as_bytes()))
            .ok()?;
        Some(bytes)
    }

    /// True if a screening-valid snapshot for `key_material` exists.
    pub fn contains_snapshot(&self, key_material: &str, expected_revision: u32) -> bool {
        self.get_snapshot(key_material, expected_revision).is_some()
    }

    /// Store a warmed-state image for `key_material`, replacing any previous
    /// one. Written via temp file + rename like the JSON entries, so a
    /// killed sweep never leaves a torn image behind.
    pub fn put_snapshot(&self, key_material: &str, image: &[u8]) -> io::Result<PathBuf> {
        let path = self.snapshot_path(key_material);
        let dir = path.parent().expect("snapshot path has a parent");
        std::fs::create_dir_all(dir)?;
        static PUT_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let seq = PUT_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let tmp = dir.join(format!(
            ".{:016x}.{}.{}.tmp",
            fnv1a64(key_material.as_bytes()),
            std::process::id(),
            seq
        ));
        std::fs::write(&tmp, image)?;
        std::fs::rename(&tmp, &path)?;
        Ok(path)
    }

    /// Number of snapshot images currently stored.
    pub fn snapshot_count(&self) -> usize {
        std::fs::read_dir(self.dir.join("snapshots"))
            .map(|entries| {
                entries
                    .filter_map(|e| e.ok())
                    .filter(|e| e.path().extension().and_then(|x| x.to_str()) == Some("snap"))
                    .count()
            })
            .unwrap_or(0)
    }

    /// Number of entries (files) currently in the store.
    pub fn len(&self) -> usize {
        std::fs::read_dir(&self.dir)
            .map(|entries| {
                entries
                    .filter_map(|e| e.ok())
                    .filter(|e| e.path().extension().and_then(|x| x.to_str()) == Some("json"))
                    .count()
            })
            .unwrap_or(0)
    }

    /// True if the store holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn temp_store() -> ResultStore {
        static COUNTER: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!(
            "banshee_exec_store_test_{}_{}",
            std::process::id(),
            COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        ResultStore::open(dir).expect("temp store opens")
    }

    fn payload(n: u64) -> Value {
        Value::Object(vec![
            ("ipc".to_string(), Value::Float(1.5)),
            ("instructions".to_string(), Value::UInt(n)),
        ])
    }

    #[test]
    fn put_then_get_round_trips() {
        let store = temp_store();
        assert!(store.is_empty());
        assert_eq!(store.get("cell A"), None);
        store.put("cell A", &payload(100)).unwrap();
        assert_eq!(store.get("cell A"), Some(payload(100)));
        assert!(store.contains("cell A"));
        assert_eq!(store.len(), 1);
        // Distinct keys hash to distinct entries.
        store.put("cell B", &payload(200)).unwrap();
        assert_eq!(store.get("cell B"), Some(payload(200)));
        assert_eq!(store.get("cell A"), Some(payload(100)));
        assert_eq!(store.len(), 2);
        // Overwrites replace.
        store.put("cell A", &payload(300)).unwrap();
        assert_eq!(store.get("cell A"), Some(payload(300)));
        assert_eq!(store.len(), 2);
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn typed_helpers_round_trip_and_treat_shape_drift_as_miss() {
        let store = temp_store();
        let cell: Vec<u64> = vec![1, 2, 3];
        store.put_encoded("typed", &cell).unwrap();
        assert_eq!(store.get_decoded::<Vec<u64>>("typed"), Some(cell));
        // The same payload no longer decoding as the requested type is a
        // miss, not an error.
        assert_eq!(store.get_decoded::<Vec<String>>("typed"), None);
        assert_eq!(store.get_decoded::<Vec<u64>>("absent"), None);
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn corrupted_entry_is_a_miss_and_recoverable() {
        let store = temp_store();
        store.put("cell", &payload(1)).unwrap();
        std::fs::write(store.entry_path("cell"), "{ not json !!").unwrap();
        assert_eq!(store.get("cell"), None, "corrupt entry must read as miss");
        // Recompute-and-put repairs the entry.
        store.put("cell", &payload(2)).unwrap();
        assert_eq!(store.get("cell"), Some(payload(2)));
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn key_mismatch_is_a_miss() {
        let store = temp_store();
        store.put("other key", &payload(9)).unwrap();
        // Simulate a hash collision: copy the entry for "other key" to the
        // path "cell" hashes to. The embedded key no longer matches.
        let other = std::fs::read_to_string(store.entry_path("other key")).unwrap();
        std::fs::write(store.entry_path("cell"), other).unwrap();
        assert_eq!(store.get("cell"), None);
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn wrong_format_version_is_a_miss() {
        let store = temp_store();
        store.put("cell", &payload(7)).unwrap();
        let text = std::fs::read_to_string(store.entry_path("cell")).unwrap();
        let stale = text.replace(
            &format!("\"format\": {STORE_FORMAT}"),
            &format!("\"format\": {}", STORE_FORMAT + 1),
        );
        assert_ne!(stale, text, "format field must appear in the entry");
        std::fs::write(store.entry_path("cell"), stale).unwrap();
        assert_eq!(store.get("cell"), None);
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn snapshot_namespace_round_trips_and_screens_headers() {
        use banshee_common::SnapshotWriter;
        let store = temp_store();
        let key = "design=X|workload=Y|seed=1";
        let header = SnapshotHeader {
            model_revision: 2,
            key_hash: fnv1a64(key.as_bytes()),
            instructions: 42,
        };
        let mut w = SnapshotWriter::with_header(header);
        w.u64(0xDEAD);
        let image = w.into_bytes();

        assert_eq!(store.get_snapshot(key, 2), None);
        assert_eq!(store.snapshot_count(), 0);
        store.put_snapshot(key, &image).unwrap();
        assert_eq!(store.get_snapshot(key, 2), Some(image.clone()));
        assert!(store.contains_snapshot(key, 2));
        assert_eq!(store.snapshot_count(), 1);
        // Snapshots live beside, not among, the JSON entries.
        assert!(store.is_empty());

        // A stale model revision is a miss, never resumed.
        assert_eq!(store.get_snapshot(key, 3), None);
        // A different key's image planted at this key's path is a miss.
        let other_key = "some other cell";
        std::fs::copy(store.snapshot_path(key), store.snapshot_path(other_key)).unwrap();
        assert_eq!(store.get_snapshot(other_key, 2), None);
        // Garbage and truncation are misses too, not panics.
        std::fs::write(store.snapshot_path(key), b"BSHSNAP").unwrap();
        assert_eq!(store.get_snapshot(key, 2), None);
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        // Published FNV-1a 64-bit test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }
}
