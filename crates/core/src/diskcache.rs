//! The persistent on-disk artifact cache layered under the in-memory
//! sharded LRU.
//!
//! Each entry is one file named by the 64-bit artifact hash, FNV-1a of
//! the canonical cache-key bytes (`<hash:016x>.asdfart`), holding an
//! [`asdf_artifact`] container whose metadata section stores those key
//! bytes in full — a disk hit verifies the key byte-for-byte, so a
//! 64-bit filename collision degrades to a miss, never to a wrong
//! artifact.
//!
//! Discipline:
//!
//! - **Atomic writes**: entries are written to a process-unique `.tmp`
//!   file and renamed into place, so a crashed or concurrent writer can
//!   never leave a torn entry under the final name.
//! - **Corruption quarantine**: an entry that fails to decode is renamed
//!   to `<name>.quarantined` (preserving the evidence for `artifact
//!   inspect`) and reported as a miss; it will be rebuilt and rewritten.
//! - **Graceful degradation**: I/O errors never fail a compile — the
//!   disk layer silently reports a miss and the pipeline runs.
//! - **Bounded size**: after each write, if the entry count exceeds the
//!   capacity the oldest entries (by modification time) are evicted.

use asdf_artifact::Artifact;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::time::SystemTime;

/// File extension for live cache entries.
pub(crate) const ENTRY_EXTENSION: &str = "asdfart";
/// Suffix appended to entries that failed to decode.
pub(crate) const QUARANTINE_SUFFIX: &str = "quarantined";
/// Default bound on live entries in one cache directory.
pub const DEFAULT_DISK_CAPACITY: usize = 1024;

/// The outcome of a disk probe.
pub(crate) enum DiskLookup {
    /// The entry decoded and its stored key matched byte-for-byte.
    Hit(Box<Artifact>),
    /// No entry, an unreadable entry, or a key mismatch (hash collision).
    Miss,
    /// The entry existed but was corrupt; it has been quarantined.
    Quarantined,
}

/// A persistent artifact store rooted at one directory.
#[derive(Debug, Clone)]
pub struct DiskCache {
    dir: PathBuf,
    capacity: usize,
}

impl DiskCache {
    /// Opens (creating if needed) a cache rooted at `dir`.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error when the directory cannot be
    /// created.
    pub fn open(dir: impl Into<PathBuf>, capacity: usize) -> io::Result<DiskCache> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(DiskCache { dir, capacity: capacity.max(1) })
    }

    /// The cache directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn entry_path(&self, hash: u64) -> PathBuf {
        self.dir.join(format!("{hash:016x}.{ENTRY_EXTENSION}"))
    }

    /// Probes the cache for `hash`, verifying the canonical `key` bytes
    /// stored in the entry. Never fails a compile: every I/O problem is
    /// a [`DiskLookup::Miss`].
    pub(crate) fn load(&self, hash: u64, key: &[u8]) -> DiskLookup {
        let path = self.entry_path(hash);
        let bytes = match fs::read(&path) {
            Ok(bytes) => bytes,
            Err(_) => return DiskLookup::Miss,
        };
        match Artifact::decode(&bytes) {
            Ok(artifact) if artifact.key == key => DiskLookup::Hit(Box::new(artifact)),
            // A different key under the same 64-bit hash: a collision,
            // not corruption. Keep the entry; report a miss.
            Ok(_) => DiskLookup::Miss,
            Err(_) => {
                self.quarantine(&path);
                DiskLookup::Quarantined
            }
        }
    }

    /// Moves a corrupt entry aside so the slot can be rebuilt while the
    /// evidence stays inspectable.
    fn quarantine(&self, path: &Path) {
        let mut quarantined = path.as_os_str().to_os_string();
        quarantined.push(".");
        quarantined.push(QUARANTINE_SUFFIX);
        let _ = fs::rename(path, PathBuf::from(quarantined));
    }

    /// Writes `artifact` under `hash` with write-then-rename atomicity,
    /// then enforces the capacity bound. Returns the number of entries
    /// evicted, or `None` when the write failed (the compile proceeds;
    /// the entry is simply not persisted).
    pub(crate) fn store(&self, hash: u64, artifact: &Artifact) -> Option<u64> {
        let bytes = artifact.encode();
        let final_path = self.entry_path(hash);
        let tmp_path = self.dir.join(format!("{hash:016x}.tmp.{}", std::process::id()));
        let written =
            fs::write(&tmp_path, &bytes).and_then(|()| fs::rename(&tmp_path, &final_path));
        if written.is_err() {
            let _ = fs::remove_file(&tmp_path);
            return None;
        }
        Some(self.evict_over_capacity())
    }

    /// Paths of the live entries, oldest first.
    fn live_entries(&self) -> Vec<(PathBuf, SystemTime)> {
        let Ok(entries) = fs::read_dir(&self.dir) else {
            return Vec::new();
        };
        let mut live = Vec::new();
        for entry in entries.flatten() {
            let path = entry.path();
            if path.extension().and_then(|e| e.to_str()) != Some(ENTRY_EXTENSION) {
                continue;
            }
            let modified =
                entry.metadata().and_then(|m| m.modified()).unwrap_or(SystemTime::UNIX_EPOCH);
            live.push((path, modified));
        }
        live.sort_by(|a, b| a.1.cmp(&b.1).then_with(|| a.0.cmp(&b.0)));
        live
    }

    fn evict_over_capacity(&self) -> u64 {
        let live = self.live_entries();
        if live.len() <= self.capacity {
            return 0;
        }
        let mut evicted = 0;
        for (path, _) in &live[..live.len() - self.capacity] {
            if fs::remove_file(path).is_ok() {
                evicted += 1;
            }
        }
        evicted
    }

    /// Live entry count and total size in bytes of every file in the
    /// cache directory (entries, quarantined files, stray temp files) —
    /// the `stats` op reports both.
    pub fn usage(&self) -> (u64, u64) {
        let Ok(entries) = fs::read_dir(&self.dir) else {
            return (0, 0);
        };
        let mut count = 0;
        let mut bytes = 0;
        for entry in entries.flatten() {
            let Ok(metadata) = entry.metadata() else { continue };
            if !metadata.is_file() {
                continue;
            }
            bytes += metadata.len();
            if entry.path().extension().and_then(|e| e.to_str()) == Some(ENTRY_EXTENSION) {
                count += 1;
            }
        }
        (count, bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asdf_ir::Module;

    fn scratch_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("asdf-diskcache-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn toy_artifact(key: Vec<u8>) -> Artifact {
        Artifact {
            entry: "k".into(),
            module: Module::default(),
            circuit: None,
            routing: None,
            stats: Default::default(),
            lints: vec![],
            key,
        }
    }

    #[test]
    fn store_then_load_round_trips() {
        let cache = DiskCache::open(scratch_dir("roundtrip"), 8).unwrap();
        let artifact = toy_artifact(vec![1, 2, 3]);
        assert_eq!(cache.store(42, &artifact), Some(0));
        match cache.load(42, &[1, 2, 3]) {
            DiskLookup::Hit(back) => assert_eq!(back.entry, "k"),
            _ => panic!("expected a hit"),
        }
        // Same hash, different key: collision-safe miss.
        assert!(matches!(cache.load(42, &[9, 9]), DiskLookup::Miss));
        // Unknown hash: plain miss.
        assert!(matches!(cache.load(7, &[1, 2, 3]), DiskLookup::Miss));
        let _ = fs::remove_dir_all(cache.dir());
    }

    /// The decode error of the one quarantined entry in `cache`'s
    /// directory: the evidence the quarantine keeps.
    fn quarantined_error_code(cache: &DiskCache) -> &'static str {
        let quarantined: Vec<_> = fs::read_dir(cache.dir())
            .unwrap()
            .flatten()
            .filter(|e| e.path().to_string_lossy().ends_with(QUARANTINE_SUFFIX))
            .collect();
        assert_eq!(quarantined.len(), 1);
        let bytes = fs::read(quarantined[0].path()).unwrap();
        Artifact::decode(&bytes).expect_err("a quarantined entry does not decode").code()
    }

    #[test]
    fn corrupt_entries_are_quarantined() {
        let cache = DiskCache::open(scratch_dir("quarantine"), 8).unwrap();
        let artifact = toy_artifact(vec![7]);
        cache.store(5, &artifact).unwrap();
        // Flip a byte in the stored entry.
        let path = cache.entry_path(5);
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        fs::write(&path, &bytes).unwrap();

        assert!(matches!(cache.load(5, &[7]), DiskLookup::Quarantined), "expected quarantine");
        assert!(!path.exists(), "corrupt entry must be moved aside");
        assert_eq!(quarantined_error_code(&cache), "E0106");
        // The slot reads as a miss now and can be rebuilt.
        assert!(matches!(cache.load(5, &[7]), DiskLookup::Miss));
        cache.store(5, &artifact).unwrap();
        assert!(matches!(cache.load(5, &[7]), DiskLookup::Hit(_)));
        let _ = fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn entries_holding_malformed_ir_are_quarantined() {
        // A well-sealed entry whose module fails verification: a function
        // with no terminator.
        let cache = DiskCache::open(scratch_dir("malformed"), 8).unwrap();
        let mut artifact = toy_artifact(vec![3]);
        let ty = asdf_ir::FuncType::new(vec![], vec![], false);
        artifact
            .module
            .add_func(asdf_ir::FuncBuilder::new("k", ty, asdf_ir::Visibility::Public).finish());
        cache.store(9, &artifact).unwrap();
        assert!(matches!(cache.load(9, &[3]), DiskLookup::Quarantined), "expected quarantine");
        assert!(!cache.entry_path(9).exists(), "the entry must be moved aside");
        assert_eq!(quarantined_error_code(&cache), "E0106");
        let _ = fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn capacity_bound_evicts_oldest() {
        let cache = DiskCache::open(scratch_dir("evict"), 2).unwrap();
        let artifact = toy_artifact(vec![]);
        let mut evicted_total = 0;
        for hash in 0..4u64 {
            evicted_total += cache.store(hash, &artifact).unwrap();
        }
        assert_eq!(evicted_total, 2);
        let (count, bytes) = cache.usage();
        assert_eq!(count, 2);
        assert!(bytes > 0);
        let _ = fs::remove_dir_all(cache.dir());
    }
}
