//! The filesystem seam: every disk touch the engine, artifact store and
//! `io.rs` make goes through one [`Vfs`] trait.
//!
//! Routing all filesystem calls through a single trait buys two things:
//!
//! - **Crash-consistency is testable.** [`ChaosVfs`] wraps any inner
//!   `Vfs` with a deterministic fault injector on a virtual op clock —
//!   short writes, torn renames, `EIO` on read, `ENOSPC` on write,
//!   single-byte corruption — so `tests/chaos.rs` can sweep every
//!   injection point and assert the pipeline either completes
//!   byte-identical to a clean run or fails with a typed error, never a
//!   panic and never silently-wrong output.
//! - **Durability is uniform.** [`RealVfs::write`] is a full
//!   write-plus-`fsync`; the atomic publish protocol in
//!   [`io::save_envelope`](crate::io::save_envelope) (temp file → fsync
//!   → rename) is composed from these primitives, so every cache entry
//!   on disk is either the complete old version or the complete new one.
//!
//! GT-LINT-012 enforces the seam statically: no raw
//! `std::fs::{write, File::create, rename}` outside `io.rs` and this
//! module.

use std::io;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// A minimal filesystem interface. Implementations must be safe to call
/// from the scheduler's worker threads concurrently.
pub trait Vfs: Send + Sync + std::fmt::Debug {
    /// Reads a file's entire contents.
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures (`NotFound` included).
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;

    /// Writes `bytes` to `path` (create or truncate) and flushes them to
    /// stable storage before returning.
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures.
    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()>;

    /// Atomically replaces `to` with `from` (POSIX rename semantics).
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures.
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;

    /// Deletes a file.
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures.
    fn remove_file(&self, path: &Path) -> io::Result<()>;

    /// Creates a directory and all missing parents.
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures.
    fn create_dir_all(&self, path: &Path) -> io::Result<()>;

    /// Lists the entries of a directory, sorted by path so callers
    /// iterate deterministically.
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures.
    fn list_dir(&self, path: &Path) -> io::Result<Vec<PathBuf>>;
}

/// The production implementation: `std::fs`, with writes flushed to
/// stable storage before they count as written.
#[derive(Debug, Default, Clone, Copy)]
pub struct RealVfs;

impl Vfs for RealVfs {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        std::fs::read(path)
    }

    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let mut f = std::fs::File::create(path)?;
        f.write_all(bytes)?;
        // Durability point: the atomic-publish protocol renames this
        // file over the final path, so its bytes must hit stable storage
        // first — otherwise a crash could publish an empty file.
        f.sync_all()
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        std::fs::rename(from, to)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        std::fs::remove_file(path)
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        std::fs::create_dir_all(path)
    }

    fn list_dir(&self, path: &Path) -> io::Result<Vec<PathBuf>> {
        let mut out: Vec<PathBuf> = std::fs::read_dir(path)?
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .collect();
        out.sort();
        Ok(out)
    }
}

/// One kind of injected filesystem fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosFault {
    /// A write persists only a prefix of its bytes but reports success —
    /// the torn file a kill mid-write leaves behind.
    ShortWrite,
    /// A rename silently does not happen (the temp file stays, the final
    /// path is untouched) — a kill between write and rename.
    TornRename,
    /// A read fails with `EIO`.
    ReadError,
    /// A write fails with `ENOSPC` and leaves no file behind.
    WriteNoSpace,
    /// A write persists all bytes but flips one — latent media
    /// corruption surfacing on the next read.
    BitFlip,
    /// Whatever fault fits the op: reads get [`ChaosFault::ReadError`],
    /// renames get [`ChaosFault::TornRename`], writes rotate through
    /// short/no-space/bit-flip by op index. Used by sweep harnesses that
    /// target "the Nth filesystem op, whatever it is".
    Auto,
}

impl ChaosFault {
    /// Stable telemetry/reporting label.
    pub fn label(self) -> &'static str {
        match self {
            ChaosFault::ShortWrite => "short_write",
            ChaosFault::TornRename => "torn_rename",
            ChaosFault::ReadError => "read_eio",
            ChaosFault::WriteNoSpace => "write_enospc",
            ChaosFault::BitFlip => "bit_flip",
            ChaosFault::Auto => "auto",
        }
    }
}

/// A deterministic fault plan for [`ChaosVfs`]: exact injections pinned
/// to virtual op indices, plus per-mille rates drawn from a seeded hash
/// of the op index (no state beyond the op clock, so the plan is a pure
/// function of `(seed, op)`).
#[derive(Debug, Clone, Default)]
pub struct ChaosConfig {
    /// Seed for the per-op fault draws.
    pub seed: u64,
    /// Faults pinned to exact virtual op indices (checked first).
    pub exact: Vec<(u64, ChaosFault)>,
    /// Per-mille probability that a read op fails with `EIO`.
    pub read_error_per_mille: u16,
    /// Per-mille probability that a write op fails with `ENOSPC`.
    pub no_space_per_mille: u16,
    /// Per-mille probability that a write op tears (prefix only).
    pub short_write_per_mille: u16,
    /// Per-mille probability that a write op flips one byte.
    pub bit_flip_per_mille: u16,
    /// Per-mille probability that a rename op is silently dropped.
    pub torn_rename_per_mille: u16,
}

impl ChaosConfig {
    /// No injected faults (the op clock still ticks).
    pub fn none(seed: u64) -> Self {
        ChaosConfig {
            seed,
            ..Self::default()
        }
    }

    /// A single fault pinned to one virtual op index.
    pub fn at_op(op: u64, fault: ChaosFault) -> Self {
        ChaosConfig {
            exact: vec![(op, fault)],
            ..Self::default()
        }
    }

    /// A named chaos profile, mirroring
    /// [`FaultConfig::profile`](geotopo_measure::FaultConfig::profile):
    /// `none` | `torn` | `corrupt` | `enospc` | `eio` | `mixed`.
    /// Returns `None` for an unknown name.
    pub fn profile(name: &str, seed: u64) -> Option<Self> {
        let base = Self::none(seed);
        Some(match name {
            "none" => base,
            "torn" => ChaosConfig {
                short_write_per_mille: 80,
                torn_rename_per_mille: 120,
                ..base
            },
            "corrupt" => ChaosConfig {
                bit_flip_per_mille: 120,
                ..base
            },
            "enospc" => ChaosConfig {
                no_space_per_mille: 150,
                ..base
            },
            "eio" => ChaosConfig {
                read_error_per_mille: 150,
                ..base
            },
            "mixed" => ChaosConfig {
                read_error_per_mille: 50,
                no_space_per_mille: 50,
                short_write_per_mille: 50,
                bit_flip_per_mille: 50,
                torn_rename_per_mille: 50,
                ..base
            },
            _ => return None,
        })
    }
}

/// The op classes the clock distinguishes (metadata ops tick the clock
/// but never fault — directory creation and listing are idempotent
/// bookkeeping, not the durability-critical path).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum OpKind {
    Read,
    Write,
    Rename,
    Meta,
}

/// Counters of what the injector actually did, for `--trace` summaries
/// and test assertions.
#[derive(Debug, Clone, Copy, Default)]
pub struct ChaosStats {
    /// Total virtual ops observed (faulted or not).
    pub ops: u64,
    /// Reads failed with `EIO`.
    pub read_errors: u64,
    /// Writes failed with `ENOSPC`.
    pub no_space: u64,
    /// Writes torn to a prefix.
    pub short_writes: u64,
    /// Writes with one byte flipped.
    pub bit_flips: u64,
    /// Renames silently dropped.
    pub torn_renames: u64,
}

impl ChaosStats {
    /// Total faults injected across all kinds.
    pub fn injected(&self) -> u64 {
        self.read_errors + self.no_space + self.short_writes + self.bit_flips + self.torn_renames
    }
}

/// A deterministic disk-fault injector wrapping another [`Vfs`].
///
/// Every call advances a virtual op clock; the [`ChaosConfig`] decides —
/// as a pure function of `(seed, op index)` plus the exact-injection
/// list — whether and how that op misbehaves. Faults model what a crash
/// or failing disk leaves behind: torn files that *report success*
/// (detected later by the envelope checksum), silently dropped renames
/// (orphaned temp files), and typed `EIO`/`ENOSPC` errors (handled by
/// the store's degradation policy).
#[derive(Debug)]
pub struct ChaosVfs {
    inner: RealVfs,
    config: ChaosConfig,
    clock: AtomicU64,
    read_errors: AtomicU64,
    no_space: AtomicU64,
    short_writes: AtomicU64,
    bit_flips: AtomicU64,
    torn_renames: AtomicU64,
}

/// FNV-1a over the little-endian bytes of `words`: the stateless,
/// platform-stable draw behind every per-op fault decision (same hash
/// the fingerprints and the cache-envelope checksum use).
fn mix(words: &[u64]) -> u64 {
    let mut h = crate::engine::FNV_OFFSET;
    for w in words {
        h = crate::engine::fnv1a(h, &w.to_le_bytes());
    }
    h
}

fn eio(what: &str) -> io::Error {
    // An uncategorized kind, like a real EIO surfaces: callers must
    // handle it by policy (degrade/regenerate), not by matching a kind.
    io::Error::other(format!("injected I/O error: {what}"))
}

fn enospc(what: &str) -> io::Error {
    io::Error::new(
        io::ErrorKind::StorageFull,
        format!("injected ENOSPC: {what}"),
    )
}

impl ChaosVfs {
    /// Wraps the real filesystem with the given fault plan.
    pub fn new(config: ChaosConfig) -> Self {
        ChaosVfs {
            inner: RealVfs,
            config,
            clock: AtomicU64::new(0),
            read_errors: AtomicU64::new(0),
            no_space: AtomicU64::new(0),
            short_writes: AtomicU64::new(0),
            bit_flips: AtomicU64::new(0),
            torn_renames: AtomicU64::new(0),
        }
    }

    /// What the injector has done so far.
    pub fn stats(&self) -> ChaosStats {
        ChaosStats {
            ops: self.clock.load(Ordering::Relaxed),
            read_errors: self.read_errors.load(Ordering::Relaxed),
            no_space: self.no_space.load(Ordering::Relaxed),
            short_writes: self.short_writes.load(Ordering::Relaxed),
            bit_flips: self.bit_flips.load(Ordering::Relaxed),
            torn_renames: self.torn_renames.load(Ordering::Relaxed),
        }
    }

    /// Advances the op clock and resolves the fault (if any) for this
    /// op. `Auto` is specialized to the op kind; a fault that does not
    /// apply to the op kind is a no-op (the sweep still covers the op —
    /// it just behaves like the clean run).
    fn fault_for(&self, kind: OpKind) -> Option<ChaosFault> {
        let op = self.clock.fetch_add(1, Ordering::Relaxed);
        let mut chosen = self
            .config
            .exact
            .iter()
            .find(|&&(at, _)| at == op)
            .map(|&(_, f)| f);
        if chosen.is_none() && kind != OpKind::Meta {
            // Rate draws, one salted hash per fault class so the classes
            // are independent.
            let draw = |salt: u64, per_mille: u16| {
                per_mille > 0 && mix(&[self.config.seed, op, salt]) % 1000 < u64::from(per_mille)
            };
            chosen = match kind {
                OpKind::Read if draw(1, self.config.read_error_per_mille) => {
                    Some(ChaosFault::ReadError)
                }
                OpKind::Write if draw(2, self.config.no_space_per_mille) => {
                    Some(ChaosFault::WriteNoSpace)
                }
                OpKind::Write if draw(3, self.config.short_write_per_mille) => {
                    Some(ChaosFault::ShortWrite)
                }
                OpKind::Write if draw(4, self.config.bit_flip_per_mille) => {
                    Some(ChaosFault::BitFlip)
                }
                OpKind::Rename if draw(5, self.config.torn_rename_per_mille) => {
                    Some(ChaosFault::TornRename)
                }
                _ => None,
            };
        }
        let fault = match chosen? {
            ChaosFault::Auto => match kind {
                OpKind::Read => ChaosFault::ReadError,
                OpKind::Rename => ChaosFault::TornRename,
                OpKind::Write => match op % 3 {
                    0 => ChaosFault::ShortWrite,
                    1 => ChaosFault::WriteNoSpace,
                    _ => ChaosFault::BitFlip,
                },
                OpKind::Meta => return None,
            },
            f => f,
        };
        // A pinned fault of the wrong kind for this op does nothing.
        let applies = matches!(
            (fault, kind),
            (ChaosFault::ReadError, OpKind::Read)
                | (
                    ChaosFault::ShortWrite | ChaosFault::WriteNoSpace | ChaosFault::BitFlip,
                    OpKind::Write
                )
                | (ChaosFault::TornRename, OpKind::Rename)
        );
        applies.then_some(fault)
    }
}

impl Vfs for ChaosVfs {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        if let Some(ChaosFault::ReadError) = self.fault_for(OpKind::Read) {
            self.read_errors.fetch_add(1, Ordering::Relaxed);
            return Err(eio(&path.display().to_string()));
        }
        self.inner.read(path)
    }

    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        match self.fault_for(OpKind::Write) {
            Some(ChaosFault::WriteNoSpace) => {
                self.no_space.fetch_add(1, Ordering::Relaxed);
                Err(enospc(&path.display().to_string()))
            }
            Some(ChaosFault::ShortWrite) => {
                self.short_writes.fetch_add(1, Ordering::Relaxed);
                // The torn file *reports success*: exactly what a later
                // reader faces after a kill mid-write.
                self.inner.write(path, &bytes[..bytes.len() / 2])
            }
            Some(ChaosFault::BitFlip) => {
                self.bit_flips.fetch_add(1, Ordering::Relaxed);
                let mut corrupted = bytes.to_vec();
                if !corrupted.is_empty() {
                    let i = (mix(&[self.config.seed, corrupted.len() as u64])
                        % corrupted.len() as u64) as usize;
                    corrupted[i] ^= 0x40;
                }
                self.inner.write(path, &corrupted)
            }
            _ => self.inner.write(path, bytes),
        }
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        if let Some(ChaosFault::TornRename) = self.fault_for(OpKind::Rename) {
            self.torn_renames.fetch_add(1, Ordering::Relaxed);
            // Silent: the caller believes the entry was published, the
            // temp file is orphaned, the final path never appears.
            return Ok(());
        }
        self.inner.rename(from, to)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        let _ = self.fault_for(OpKind::Meta);
        self.inner.remove_file(path)
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        let _ = self.fault_for(OpKind::Meta);
        self.inner.create_dir_all(path)
    }

    fn list_dir(&self, path: &Path) -> io::Result<Vec<PathBuf>> {
        let _ = self.fault_for(OpKind::Meta);
        self.inner.list_dir(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("geotopo_vfs_tests");
        let _ = std::fs::create_dir_all(&dir);
        dir.join(name)
    }

    #[test]
    fn real_vfs_roundtrip_and_listing() {
        let dir = std::env::temp_dir().join("geotopo_vfs_roundtrip");
        let _ = std::fs::remove_dir_all(&dir);
        let v = RealVfs;
        v.create_dir_all(&dir).unwrap();
        v.write(&dir.join("b.txt"), b"bee").unwrap();
        v.write(&dir.join("a.txt"), b"ay").unwrap();
        assert_eq!(v.read(&dir.join("b.txt")).unwrap(), b"bee");
        let listed = v.list_dir(&dir).unwrap();
        assert_eq!(listed.len(), 2);
        assert!(listed[0].ends_with("a.txt"), "listing must be sorted");
        v.rename(&dir.join("a.txt"), &dir.join("c.txt")).unwrap();
        assert!(v.read(&dir.join("a.txt")).is_err());
        v.remove_file(&dir.join("c.txt")).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn exact_injection_hits_only_its_op() {
        let path = tmp("exact.txt");
        // Op 0 is the faulted write; op 1 is clean.
        let v = ChaosVfs::new(ChaosConfig::at_op(0, ChaosFault::WriteNoSpace));
        let err = v.write(&path, b"payload").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::StorageFull);
        v.write(&path, b"payload").unwrap();
        assert_eq!(v.read(&path).unwrap(), b"payload");
        assert_eq!(v.stats().no_space, 1);
        assert_eq!(v.stats().ops, 3);
    }

    #[test]
    fn short_write_reports_success_but_tears_the_file() {
        let path = tmp("short.txt");
        let v = ChaosVfs::new(ChaosConfig::at_op(0, ChaosFault::ShortWrite));
        v.write(&path, b"0123456789").unwrap();
        assert_eq!(v.read(&path).unwrap(), b"01234", "half the bytes land");
        assert_eq!(v.stats().short_writes, 1);
    }

    #[test]
    fn torn_rename_orphans_the_temp_file() {
        let from = tmp("torn_from.txt");
        let to = tmp("torn_to.txt");
        let _ = std::fs::remove_file(&to);
        let v = ChaosVfs::new(ChaosConfig::at_op(1, ChaosFault::TornRename));
        v.write(&from, b"x").unwrap();
        v.rename(&from, &to).unwrap();
        assert!(from.exists(), "temp file must remain");
        assert!(!to.exists(), "final path must not appear");
        assert_eq!(v.stats().torn_renames, 1);
    }

    #[test]
    fn bit_flip_changes_exactly_one_byte() {
        let path = tmp("flip.txt");
        let payload = b"deterministic payload".to_vec();
        let v = ChaosVfs::new(ChaosConfig::at_op(0, ChaosFault::BitFlip));
        v.write(&path, &payload).unwrap();
        let back = v.read(&path).unwrap();
        assert_eq!(back.len(), payload.len());
        let diffs = back.iter().zip(&payload).filter(|(a, b)| a != b).count();
        assert_eq!(diffs, 1);
        assert_eq!(v.stats().bit_flips, 1);
    }

    #[test]
    fn auto_fault_specializes_to_the_op_kind() {
        let path = tmp("auto.txt");
        let v = ChaosVfs::new(ChaosConfig {
            exact: vec![(0, ChaosFault::Auto), (1, ChaosFault::Auto)],
            ..ChaosConfig::default()
        });
        // Op 0 is a read -> injected EIO.
        assert!(v.read(&path).is_err());
        // Op 1 is a write -> one of the write faults fires (op 1 % 3 = 1
        // -> ENOSPC).
        assert_eq!(
            v.write(&path, b"x").unwrap_err().kind(),
            io::ErrorKind::StorageFull
        );
        assert_eq!(v.stats().injected(), 2);
    }

    #[test]
    fn mismatched_pinned_fault_is_a_clean_op() {
        let path = tmp("mismatch.txt");
        // A read fault pinned onto a write op does nothing.
        let v = ChaosVfs::new(ChaosConfig::at_op(0, ChaosFault::ReadError));
        v.write(&path, b"ok").unwrap();
        assert_eq!(v.stats().injected(), 0);
    }

    #[test]
    fn rate_draws_are_deterministic_per_seed_and_op() {
        let cfg = ChaosConfig {
            seed: 7,
            read_error_per_mille: 500,
            ..ChaosConfig::default()
        };
        let run = || {
            let v = ChaosVfs::new(cfg.clone());
            (0..64)
                .map(|_| v.read(Path::new("/nonexistent/x")).is_err())
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run(), "same seed, same op -> same decision");
        let v = ChaosVfs::new(cfg);
        let mut injected = 0;
        for _ in 0..64 {
            let _ = v.read(Path::new("/nonexistent/x"));
            injected = v.stats().read_errors;
        }
        assert!(
            injected > 10 && injected < 54,
            "rate 0.5 should fire sometimes, not always: {injected}/64"
        );
    }

    #[test]
    fn profiles_parse_and_unknown_is_none() {
        for name in ["none", "torn", "corrupt", "enospc", "eio", "mixed"] {
            assert!(ChaosConfig::profile(name, 1).is_some(), "{name}");
        }
        assert!(ChaosConfig::profile("catastrophic", 1).is_none());
        let none = ChaosConfig::profile("none", 9).unwrap();
        assert_eq!(none.read_error_per_mille, 0);
        assert_eq!(none.seed, 9);
    }

    #[test]
    fn fault_labels_are_stable() {
        assert_eq!(ChaosFault::WriteNoSpace.label(), "write_enospc");
        assert_eq!(ChaosFault::TornRename.label(), "torn_rename");
    }
}
