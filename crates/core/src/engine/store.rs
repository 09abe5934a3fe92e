//! Fingerprint-keyed artifact store.
//!
//! A shared [`ArtifactStore`] lets repeated [`Pipeline::run`]
//! (crate::pipeline::Pipeline::run) calls with the same configuration
//! reuse stage outputs instead of regenerating the world — benches and
//! the experiment registry share one generated world instead of
//! fourteen. Artifacts live in memory as `Arc`s; persisted artifact
//! types (ground truth, the route table, collector outputs, the processed
//! datasets, via `io.rs`) are additionally written to a disk directory,
//! surviving process restarts.

use super::fingerprint::Fingerprint;
use super::scheduler::CacheStatus;
use super::ErasedArtifact;
use crate::vfs::{RealVfs, Vfs};
use std::any::Any;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// One cached artifact plus its accounted size.
struct Entry {
    artifact: ErasedArtifact,
    /// Approximate heap footprint ([`Artifact::heap_bytes`]
    /// (super::Artifact::heap_bytes)); 0 = unknown.
    bytes: usize,
}

/// A thread-safe, fingerprint-keyed artifact cache.
pub struct ArtifactStore {
    mem: Mutex<HashMap<u64, Entry>>,
    disk: Option<PathBuf>,
    /// The filesystem seam every disk touch goes through (real in
    /// production, chaos-injected under test).
    vfs: Arc<dyn Vfs>,
    /// Once a spill write fails (`ENOSPC`, `EIO`), the reason key; the
    /// store stops offering a spill target and artifacts stay resident.
    spill_disabled: Mutex<Option<String>>,
    resident: AtomicUsize,
    hits: AtomicUsize,
    misses: AtomicUsize,
    disk_restores: AtomicUsize,
    corrupt_detected: AtomicUsize,
    quarantined: AtomicUsize,
    tmp_swept: AtomicUsize,
}

impl ArtifactStore {
    /// An empty in-memory store.
    pub fn new() -> Self {
        ArtifactStore {
            mem: Mutex::new(HashMap::new()),
            disk: None,
            vfs: Arc::new(RealVfs),
            spill_disabled: Mutex::new(None),
            resident: AtomicUsize::new(0),
            hits: AtomicUsize::new(0),
            misses: AtomicUsize::new(0),
            disk_restores: AtomicUsize::new(0),
            corrupt_detected: AtomicUsize::new(0),
            quarantined: AtomicUsize::new(0),
            tmp_swept: AtomicUsize::new(0),
        }
    }

    /// An in-memory store that also writes the persisted artifact types
    /// under `dir` (created on demand), on the real filesystem.
    pub fn with_disk(dir: impl Into<PathBuf>) -> Self {
        Self::with_disk_vfs(dir, Arc::new(RealVfs))
    }

    /// A disk-backed store routing every filesystem call through `vfs`
    /// — the constructor the chaos suite uses to interpose deterministic
    /// disk faults. Startup sweeps staging files (`*.tmp`) orphaned by a
    /// kill between temp-write and rename: they were never published, so
    /// deleting them is always safe and keeps the cache directory free
    /// of unreferenced partial writes.
    pub fn with_disk_vfs(dir: impl Into<PathBuf>, vfs: Arc<dyn Vfs>) -> Self {
        let store = ArtifactStore {
            disk: Some(dir.into()),
            vfs,
            ..Self::new()
        };
        store.sweep_orphan_temps();
        store
    }

    /// Removes orphaned `*.tmp` staging files from the cache directory
    /// (best-effort: an unreadable directory just means nothing to
    /// sweep). Returns how many were removed.
    fn sweep_orphan_temps(&self) -> usize {
        let Some(dir) = self.disk.as_deref() else {
            return 0;
        };
        let Ok(entries) = self.vfs.list_dir(dir) else {
            return 0;
        };
        let mut swept = 0;
        for path in entries {
            let is_temp = path
                .file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.ends_with(crate::io::TEMP_SUFFIX));
            if is_temp && self.vfs.remove_file(&path).is_ok() {
                swept += 1;
            }
        }
        self.tmp_swept.fetch_add(swept, Ordering::Relaxed);
        swept
    }

    /// The filesystem seam disk operations must go through.
    pub fn vfs(&self) -> &dyn Vfs {
        self.vfs.as_ref()
    }

    /// The spill directory if spilling is still healthy: `None` when no
    /// disk is configured *or* a previous spill write failed (the
    /// degradation latch). Reads are unaffected — existing entries can
    /// still be probed.
    pub fn spill_target(&self) -> Option<&Path> {
        if self
            .spill_disabled
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .is_some()
        {
            return None;
        }
        self.disk.as_deref()
    }

    /// Latches spill off for the rest of the run (`reason` is a short
    /// key: `enospc` | `io` | `serde`). Returns whether this call newly
    /// disabled it, so the scheduler counts the transition exactly once.
    pub fn disable_spill(&self, reason: &str) -> bool {
        let mut guard = self
            .spill_disabled
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if guard.is_some() {
            return false;
        }
        *guard = Some(reason.to_string());
        true
    }

    /// The reason spill was disabled this run, if it was.
    pub fn spill_disabled_reason(&self) -> Option<String> {
        self.spill_disabled
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// Counts one detected-corrupt cache entry.
    pub fn note_corrupt(&self) {
        self.corrupt_detected.fetch_add(1, Ordering::Relaxed);
    }

    /// Moves a damaged cache entry into `<dir>/quarantine/` (keeping its
    /// file name) so it can be inspected post-mortem instead of being
    /// re-read or silently overwritten. Returns the quarantine path on
    /// success; `None` if the store has no disk or the move failed (the
    /// recompute-and-overwrite path still heals the entry).
    pub fn quarantine(&self, path: &Path) -> Option<PathBuf> {
        let dir = self.disk.as_deref()?;
        let qdir = dir.join("quarantine");
        self.vfs.create_dir_all(&qdir).ok()?;
        let dest = qdir.join(path.file_name()?);
        self.vfs.rename(path, &dest).ok()?;
        self.quarantined.fetch_add(1, Ordering::Relaxed);
        Some(dest)
    }

    /// Corrupt cache entries detected so far.
    pub fn corrupt_detected(&self) -> usize {
        self.corrupt_detected.load(Ordering::Relaxed)
    }

    /// Damaged entries successfully moved to `quarantine/` so far.
    pub fn quarantined(&self) -> usize {
        self.quarantined.load(Ordering::Relaxed)
    }

    /// Orphaned staging files removed by the startup sweep.
    pub fn tmp_swept(&self) -> usize {
        self.tmp_swept.load(Ordering::Relaxed)
    }

    /// The on-disk spill directory, if configured.
    pub fn disk_dir(&self) -> Option<&Path> {
        self.disk.as_deref()
    }

    /// Looks up an artifact by fingerprint, as a `T` (memory only; disk
    /// probing is type-specific and driven by the scheduler). An entry of
    /// another type is a miss.
    pub fn get<T: Any + Send + Sync>(&self, fp: Fingerprint) -> Option<Arc<T>> {
        let mem = self.mem.lock().unwrap_or_else(PoisonError::into_inner);
        mem.get(&fp.0)?.artifact.clone().downcast().ok()
    }

    /// Inserts (or replaces) an artifact with its approximate heap size
    /// in bytes (0 = unknown).
    pub fn put(&self, fp: Fingerprint, artifact: ErasedArtifact, bytes: usize) {
        let mut mem = self.mem.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(old) = mem.insert(fp.0, Entry { artifact, bytes }) {
            self.resident.fetch_sub(old.bytes, Ordering::Relaxed);
        }
        self.resident.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Approximate bytes of artifact data currently resident in memory
    /// (the sum of known entry sizes).
    pub fn resident_bytes(&self) -> usize {
        self.resident.load(Ordering::Relaxed)
    }

    /// Records one stage-level cache outcome in the hit/miss counters.
    /// Disk hits count as hits *and* bump the disk-restore counter, so
    /// telemetry can distinguish a warm-memory reuse from a
    /// survived-restart reload.
    pub fn record(&self, status: CacheStatus) {
        match status {
            CacheStatus::Miss => {
                self.misses.fetch_add(1, Ordering::Relaxed);
            }
            CacheStatus::HitMemory => {
                self.hits.fetch_add(1, Ordering::Relaxed);
            }
            CacheStatus::HitDisk => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                self.disk_restores.fetch_add(1, Ordering::Relaxed);
            }
        };
    }

    /// Stage executions served from cache (memory or disk) so far.
    pub fn hits(&self) -> usize {
        self.hits.load(Ordering::Relaxed)
    }

    /// Stage executions that had to compute their artifact.
    pub fn misses(&self) -> usize {
        self.misses.load(Ordering::Relaxed)
    }

    /// The subset of [`hits`](ArtifactStore::hits) that were reloaded
    /// from the on-disk spill directory rather than warm memory.
    pub fn disk_restores(&self) -> usize {
        self.disk_restores.load(Ordering::Relaxed)
    }

    /// Number of artifacts currently held in memory.
    pub fn len(&self) -> usize {
        self.mem
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    /// Whether the in-memory store holds no artifacts.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Default for ArtifactStore {
    fn default() -> Self {
        Self::new()
    }
}

// Artifacts are type-erased (`dyn Any`), so the map contents cannot be
// printed; the counters are the useful state.
impl std::fmt::Debug for ArtifactStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ArtifactStore")
            .field("artifacts", &self.len())
            .field("disk", &self.disk)
            .field("spill_disabled", &self.spill_disabled_reason())
            .field("resident_bytes", &self.resident_bytes())
            .field("hits", &self.hits())
            .field("misses", &self.misses())
            .field("corrupt_detected", &self.corrupt_detected())
            .field("quarantined", &self.quarantined())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn put_get_roundtrip() {
        let store = ArtifactStore::new();
        let fp = Fingerprint(42);
        assert!(store.get::<u64>(fp).is_none());
        store.put(fp, Arc::new(123_u64), 8);
        assert_eq!(*store.get::<u64>(fp).expect("stored"), 123);
        assert!(store.get::<u32>(fp).is_none(), "another type is a miss");
        assert_eq!(store.len(), 1);
        assert!(!store.is_empty());
    }

    #[test]
    fn counters_track_outcomes() {
        let store = ArtifactStore::new();
        store.record(CacheStatus::Miss);
        store.record(CacheStatus::HitMemory);
        store.record(CacheStatus::HitDisk);
        assert_eq!(store.misses(), 1);
        assert_eq!(store.hits(), 2);
        assert_eq!(store.disk_restores(), 1);
    }

    #[test]
    fn resident_bytes_track_inserts_and_replacements() {
        let store = ArtifactStore::new();
        store.put(Fingerprint(1), Arc::new(1_u64), 100);
        store.put(Fingerprint(2), Arc::new(2_u64), 50);
        assert_eq!(store.resident_bytes(), 150);
        // Replacing an entry swaps its accounted size, not adds to it.
        store.put(Fingerprint(1), Arc::new(3_u64), 40);
        assert_eq!(store.resident_bytes(), 90);
    }

    #[test]
    fn disable_spill_latches_once_and_hides_the_target() {
        let store = ArtifactStore::with_disk("/tmp/geotopo_store_latch");
        assert!(store.spill_target().is_some());
        assert!(store.disable_spill("enospc"), "first disable is new");
        assert!(!store.disable_spill("io"), "latch keeps the first reason");
        assert_eq!(store.spill_disabled_reason().as_deref(), Some("enospc"));
        assert!(store.spill_target().is_none(), "no spill while disabled");
        let _ = std::fs::remove_dir_all("/tmp/geotopo_store_latch");
    }

    #[test]
    fn startup_sweeps_orphan_temp_files_only() {
        let dir = std::env::temp_dir().join("geotopo_store_sweep");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        RealVfs.write(&dir.join("entry.json"), b"keep").unwrap();
        RealVfs
            .write(&dir.join("entry.json.tmp"), b"orphan")
            .unwrap();
        RealVfs
            .write(&dir.join("other.json.tmp"), b"orphan2")
            .unwrap();
        let store = ArtifactStore::with_disk(&dir);
        assert_eq!(store.tmp_swept(), 2);
        assert!(dir.join("entry.json").exists(), "published entries stay");
        assert!(!dir.join("entry.json.tmp").exists());
        assert!(!dir.join("other.json.tmp").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn quarantine_moves_the_damaged_file() {
        let dir = std::env::temp_dir().join("geotopo_store_quarantine");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let bad = dir.join("broken.json");
        RealVfs.write(&bad, b"garbage").unwrap();
        let store = ArtifactStore::with_disk(&dir);
        store.note_corrupt();
        let dest = store.quarantine(&bad).expect("quarantine succeeds");
        assert!(!bad.exists(), "original gone");
        assert!(dest.exists(), "moved under quarantine/");
        assert!(dest.parent().unwrap().ends_with("quarantine"));
        assert_eq!(store.corrupt_detected(), 1);
        assert_eq!(store.quarantined(), 1);
        // A second quarantine of a now-missing file fails cleanly.
        assert!(store.quarantine(&bad).is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn debug_does_not_dump_artifacts() {
        let store = ArtifactStore::with_disk("/tmp/x");
        let s = format!("{store:?}");
        assert!(s.contains("ArtifactStore"));
        assert!(s.contains("hits"));
        assert!(s.contains("resident_bytes"));
    }
}
