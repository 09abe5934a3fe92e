//! Structured pipeline telemetry: a deterministic metrics registry.
//!
//! The engine's [`StageReport`](crate::engine::StageReport)s record
//! coarse per-stage timing, but the interesting operational numbers —
//! probe volumes, retry behaviour, cache hit rates, LPM throughput,
//! per-mapper resolution rates — were computed during the run and thrown
//! away. This module keeps them: a [`Telemetry`] registry of counters,
//! gauges, histograms and span timers, threaded through the scheduler
//! and every stage, snapshotting to a stable-schema
//! [`MetricsSnapshot`] (`PipelineOutput::metrics`, `--metrics-out`).
//!
//! Two contracts the registry upholds:
//!
//! - **Output neutrality.** The registry is write-only from the
//!   pipeline's point of view: no stage reads a metric back, so enabling
//!   or disabling telemetry cannot perturb any artifact. The fault and
//!   collection substrates count in plain local fields and the stages
//!   absorb those totals here — the hot probe/mapping loops never touch
//!   a lock.
//! - **Determinism.** Counters and histogram merges are additive and
//!   therefore order-independent; gauges are only written with
//!   config-derived values under distinct keys. Snapshots order every
//!   map by key (`BTreeMap`). The only nondeterministic quantities are
//!   the span timers' wall-clock milliseconds, which
//!   [`MetricsSnapshot::masked`] zeroes — a masked snapshot is a pure
//!   function of the configuration (modulo cache state). Wall-clock
//!   never feeds a fingerprint.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::{Mutex, PoisonError};

/// Version stamp written into every [`MetricsSnapshot`]; bump when a
/// field is added, renamed, or re-typed so downstream parsers can gate.
pub const SCHEMA_VERSION: u32 = 1;

/// A monotonic wall-clock stopwatch — the only sanctioned timing source
/// outside this module (GT-LINT-002 bans wall-clock reads everywhere
/// else). Timing is observational: elapsed values go into reports
/// and span metrics, never into artifacts or fingerprints.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    start: std::time::Instant,
}

impl Stopwatch {
    /// Starts timing now.
    pub fn start() -> Self {
        Stopwatch {
            start: std::time::Instant::now(),
        }
    }

    /// Milliseconds elapsed since [`Stopwatch::start`].
    pub fn elapsed_ms(&self) -> f64 {
        self.start.elapsed().as_secs_f64() * 1e3
    }
}

/// A mergeable value distribution: count, sum, and extremes. Built
/// lock-free in hot loops ([`Histogram::record`]) and merged into the
/// registry once per stage ([`Telemetry::merge_histogram`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Histogram {
    /// Number of recorded values.
    pub count: u64,
    /// Sum of recorded values.
    pub sum: u64,
    /// Smallest recorded value (0 when empty).
    pub min: u64,
    /// Largest recorded value (0 when empty).
    pub max: u64,
}

impl Histogram {
    /// Records one value.
    pub fn record(&mut self, v: u64) {
        self.min = if self.count == 0 { v } else { self.min.min(v) };
        self.max = self.max.max(v);
        self.count += 1;
        self.sum += v;
    }

    /// Folds another histogram into this one (order-independent).
    pub fn merge(&mut self, other: &Histogram) {
        if other.count == 0 {
            return;
        }
        self.min = if self.count == 0 {
            other.min
        } else {
            self.min.min(other.min)
        };
        self.max = self.max.max(other.max);
        self.count += other.count;
        self.sum += other.sum;
    }

    /// Mean of the recorded values (`None` when empty).
    pub fn mean(&self) -> Option<f64> {
        if self.count == 0 {
            None
        } else {
            Some(self.sum as f64 / self.count as f64)
        }
    }
}

/// Aggregated span-timer state: how often a span ran and the wall-clock
/// milliseconds it accumulated. The milliseconds are the one
/// nondeterministic quantity in a snapshot — [`MetricsSnapshot::masked`]
/// zeroes them.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
// analyze: allow(dead-pub): span-timer values in the public metrics snapshot; read via field access
pub struct SpanStats {
    /// Number of completed spans under this name.
    pub count: u64,
    /// Total wall-clock milliseconds across those spans.
    pub total_ms: f64,
}

/// A point-in-time, key-ordered export of a [`Telemetry`] registry.
/// This is the stable `--metrics-out` schema: the four maps plus
/// [`schema_version`](MetricsSnapshot::schema_version) are required
/// keys, present (possibly empty) in every export.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Schema version ([`SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// Monotonic event counts.
    pub counters: BTreeMap<String, u64>,
    /// Last-write point values (config-derived; deterministic).
    pub gauges: BTreeMap<String, f64>,
    /// Value distributions.
    pub histograms: BTreeMap<String, Histogram>,
    /// Wall-clock span timers (nondeterministic; see
    /// [`masked`](MetricsSnapshot::masked)).
    pub spans: BTreeMap<String, SpanStats>,
}

impl MetricsSnapshot {
    /// A copy with every wall-clock field zeroed: what remains is a
    /// deterministic function of the configuration, byte-comparable
    /// across runs. Span *counts* survive (they are deterministic); only
    /// the milliseconds are masked.
    pub fn masked(&self) -> MetricsSnapshot {
        let mut m = self.clone();
        for span in m.spans.values_mut() {
            span.total_ms = 0.0;
        }
        m
    }
}

/// The registry. One instance per pipeline run (shared by every worker
/// thread); writes are cheap — a short critical section on one of four
/// maps, and hot-loop producers batch locally and merge once per stage.
/// A disabled registry ([`Telemetry::disabled`]) turns every write into
/// a no-op and snapshots empty, which the byte-identity suite uses to
/// prove the registry never perturbs output.
#[derive(Debug)]
pub struct Telemetry {
    enabled: bool,
    counters: Mutex<BTreeMap<String, u64>>,
    gauges: Mutex<BTreeMap<String, f64>>,
    histograms: Mutex<BTreeMap<String, Histogram>>,
    spans: Mutex<BTreeMap<String, SpanStats>>,
}

impl Telemetry {
    /// An enabled, empty registry.
    pub fn new() -> Self {
        Telemetry {
            enabled: true,
            counters: Mutex::new(BTreeMap::new()),
            gauges: Mutex::new(BTreeMap::new()),
            histograms: Mutex::new(BTreeMap::new()),
            spans: Mutex::new(BTreeMap::new()),
        }
    }

    /// A registry whose writes are no-ops and whose snapshot is empty.
    pub fn disabled() -> Self {
        Telemetry {
            enabled: false,
            ..Self::new()
        }
    }

    /// Whether writes are recorded.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Adds `n` to the counter `name` (creating it at 0).
    pub fn count(&self, name: &str, n: u64) {
        if !self.enabled {
            return;
        }
        let mut c = self.counters.lock().unwrap_or_else(PoisonError::into_inner);
        *c.entry(name.to_string()).or_insert(0) += n;
    }

    /// Sets the gauge `name` to `v`. Callers must only write
    /// config-derived values (and distinct keys from concurrent stages)
    /// to keep snapshots deterministic.
    pub fn gauge(&self, name: &str, v: f64) {
        if !self.enabled {
            return;
        }
        let mut g = self.gauges.lock().unwrap_or_else(PoisonError::into_inner);
        g.insert(name.to_string(), v);
    }

    /// Records one value into the histogram `name`.
    pub fn observe(&self, name: &str, v: u64) {
        if !self.enabled {
            return;
        }
        let mut h = self
            .histograms
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        h.entry(name.to_string()).or_default().record(v);
    }

    /// Folds a locally-built [`Histogram`] into `name` (the batch form
    /// of [`observe`](Telemetry::observe) for hot loops).
    pub fn merge_histogram(&self, name: &str, local: &Histogram) {
        if !self.enabled || local.count == 0 {
            return;
        }
        let mut h = self
            .histograms
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        h.entry(name.to_string()).or_default().merge(local);
    }

    /// Records one completed span of `ms` wall-clock milliseconds under
    /// `name` (pair with a [`Stopwatch`]).
    pub fn span_record(&self, name: &str, ms: f64) {
        if !self.enabled {
            return;
        }
        let mut s = self.spans.lock().unwrap_or_else(PoisonError::into_inner);
        let e = s.entry(name.to_string()).or_default();
        e.count += 1;
        e.total_ms += ms;
    }

    /// Exports the registry's current state, key-ordered.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            schema_version: SCHEMA_VERSION,
            counters: self
                .counters
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .clone(),
            gauges: self
                .gauges
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .clone(),
            histograms: self
                .histograms
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .clone(),
            spans: self
                .spans
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .clone(),
        }
    }
}

impl Default for Telemetry {
    fn default() -> Self {
        Self::new()
    }
}

/// The process's peak resident set size in bytes (`VmHWM` from
/// `/proc/self/status`), or `None` where the proc filesystem is
/// unavailable or the line is malformed — a missing measurement, never
/// a silently wrong 0. A monotone high-water mark: sampling it after
/// each stage attributes RSS growth to the stage that caused it.
/// Observational only — like wall time, it feeds reports and gauges,
/// never artifacts (the scheduler records `engine.rss.unavailable` when
/// this degrades).
pub fn peak_rss_bytes() -> Option<u64> {
    peak_rss_bytes_via(&crate::vfs::RealVfs)
}

/// [`peak_rss_bytes`] with the read path injected through the
/// [`Vfs`](crate::vfs::Vfs) seam, so the degradation paths (unreadable file,
/// non-UTF-8 content, malformed `VmHWM` line) are unit-testable without
/// unmounting `/proc`.
pub fn peak_rss_bytes_via(vfs: &dyn crate::vfs::Vfs) -> Option<u64> {
    let raw = vfs.read(std::path::Path::new("/proc/self/status")).ok()?;
    let status = std::str::from_utf8(&raw).ok()?;
    parse_vmhwm(status)
}

/// Strictly parses the `VmHWM:` line out of a `/proc/self/status` body:
/// the kernel format is `VmHWM:   <n> kB`, and anything else — missing
/// line, missing `kB` unit, a non-numeric count — is `None` rather than
/// a fabricated value (the old parser reported malformed lines as 0).
fn parse_vmhwm(status: &str) -> Option<u64> {
    let rest = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))?;
    let kib: u64 = rest.trim().strip_suffix("kB")?.trim().parse().ok()?;
    Some(kib * 1024)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A stub filesystem whose `/proc/self/status` read yields a canned
    /// body (or fails) — the Vfs seam lets the RSS degradation paths
    /// run without touching the real proc filesystem.
    #[derive(Debug)]
    struct StubProc(Result<&'static [u8], std::io::ErrorKind>);

    impl crate::vfs::Vfs for StubProc {
        fn read(&self, _path: &std::path::Path) -> std::io::Result<Vec<u8>> {
            match self.0 {
                Ok(body) => Ok(body.to_vec()),
                Err(kind) => Err(std::io::Error::from(kind)),
            }
        }
        fn write(&self, _path: &std::path::Path, _bytes: &[u8]) -> std::io::Result<()> {
            unreachable!("RSS sampling never writes")
        }
        fn rename(&self, _from: &std::path::Path, _to: &std::path::Path) -> std::io::Result<()> {
            unreachable!("RSS sampling never renames")
        }
        fn remove_file(&self, _path: &std::path::Path) -> std::io::Result<()> {
            unreachable!("RSS sampling never removes")
        }
        fn create_dir_all(&self, _path: &std::path::Path) -> std::io::Result<()> {
            unreachable!("RSS sampling never creates directories")
        }
        fn list_dir(&self, _path: &std::path::Path) -> std::io::Result<Vec<std::path::PathBuf>> {
            unreachable!("RSS sampling never lists")
        }
    }

    #[test]
    fn peak_rss_reads_vmhwm_through_the_seam() {
        let stub = StubProc(Ok(b"VmPeak:\t  999 kB\nVmHWM:\t  2048 kB\nVmRSS:\t 1 kB\n"));
        assert_eq!(peak_rss_bytes_via(&stub), Some(2048 * 1024));
    }

    #[test]
    fn peak_rss_degrades_to_none_when_proc_unreadable() {
        let stub = StubProc(Err(std::io::ErrorKind::PermissionDenied));
        assert_eq!(peak_rss_bytes_via(&stub), None, "no /proc -> no value");
        let missing = StubProc(Err(std::io::ErrorKind::NotFound));
        assert_eq!(peak_rss_bytes_via(&missing), None);
    }

    #[test]
    fn peak_rss_rejects_malformed_lines_instead_of_fabricating_zero() {
        // The old parser turned each of these into a silent 0 (or a
        // bogus number); strict parsing reports the measurement as
        // missing.
        for bad in [
            "VmHWM:\tgarbage kB\n",
            "VmHWM:\t123\n",    // missing unit
            "VmHWM:\t123 MB\n", // wrong unit
            "VmRSS:\t123 kB\n", // line absent entirely
            "",
        ] {
            assert_eq!(parse_vmhwm(bad), None, "{bad:?}");
        }
        assert_eq!(parse_vmhwm("VmHWM:     7 kB"), Some(7 * 1024));
    }

    #[test]
    fn peak_rss_on_this_linux_host_is_positive() {
        // On the platforms CI runs, /proc exists and the value is real.
        if std::path::Path::new("/proc/self/status").exists() {
            assert!(peak_rss_bytes().unwrap_or(0) > 0);
        }
    }

    #[test]
    fn counters_accumulate_and_sort() {
        let t = Telemetry::new();
        t.count("b.second", 2);
        t.count("a.first", 1);
        t.count("b.second", 3);
        let snap = t.snapshot();
        assert_eq!(snap.schema_version, SCHEMA_VERSION);
        assert_eq!(
            snap.counters.keys().collect::<Vec<_>>(),
            vec!["a.first", "b.second"]
        );
        assert_eq!(snap.counters["b.second"], 5);
    }

    #[test]
    fn disabled_registry_records_nothing() {
        let t = Telemetry::disabled();
        assert!(!t.is_enabled());
        t.count("c", 1);
        t.gauge("g", 2.0);
        t.observe("h", 3);
        t.span_record("s", 4.0);
        let snap = t.snapshot();
        assert!(snap.counters.is_empty());
        assert!(snap.gauges.is_empty());
        assert!(snap.histograms.is_empty());
        assert!(snap.spans.is_empty());
        assert_eq!(snap.schema_version, SCHEMA_VERSION);
    }

    #[test]
    fn histogram_tracks_extremes_and_mean() {
        let mut h = Histogram::default();
        assert_eq!(h.mean(), None);
        h.record(8);
        h.record(2);
        h.record(5);
        assert_eq!((h.count, h.sum, h.min, h.max), (3, 15, 2, 8));
        assert_eq!(h.mean(), Some(5.0));

        let mut other = Histogram::default();
        other.record(1);
        h.merge(&other);
        assert_eq!((h.count, h.min), (4, 1));
        // Merging an empty histogram is a no-op either way.
        h.merge(&Histogram::default());
        assert_eq!(h.count, 4);
        let mut empty = Histogram::default();
        empty.merge(&h);
        assert_eq!((empty.count, empty.min, empty.max), (4, 1, 8));
    }

    #[test]
    fn masked_zeroes_wall_clock_only() {
        let t = Telemetry::new();
        let sw = Stopwatch::start();
        t.count("c", 7);
        t.span_record("stage.x", sw.elapsed_ms().max(0.001));
        let masked = t.snapshot().masked();
        assert_eq!(masked.counters["c"], 7);
        assert_eq!(masked.spans["stage.x"].count, 1);
        assert!(masked.spans["stage.x"].total_ms.abs() < 1e-12);
    }

    #[test]
    fn snapshot_serde_roundtrip() {
        let t = Telemetry::new();
        t.count("c", 1);
        t.gauge("g", 2.5);
        t.observe("h", 3);
        t.span_record("s", 1.0);
        let snap = t.snapshot();
        let json = serde_json::to_string(&snap).unwrap();
        let back: MetricsSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back.counters, snap.counters);
        assert_eq!(back.histograms, snap.histograms);
        assert_eq!(back.schema_version, snap.schema_version);
        assert_eq!(back.spans["s"].count, 1);
    }

    #[test]
    fn concurrent_counts_are_order_independent() {
        let t = Telemetry::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..1000 {
                        t.count("hits", 1);
                    }
                });
            }
        });
        assert_eq!(t.snapshot().counters["hits"], 4000);
    }
}
