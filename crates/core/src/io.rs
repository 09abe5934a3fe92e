//! Durable artifact persistence: the versioned cache envelope.
//!
//! Processed datasets (the geolocated, AS-labelled graphs of Table I)
//! and the other persistable stage artifacts serialize to JSON inside a
//! checksummed envelope, so an expensive pipeline run can be archived
//! and resumed without regenerating the world — the synthetic analogue
//! of keeping the paper's "snapshots" — **and** so a kill or a failing
//! disk can never poison a resume: a torn, bit-flipped or misaddressed
//! entry is *detected*, reported as [`CacheRead::Corrupt`], quarantined
//! by the store, and transparently regenerated.
//!
//! ## On-disk format (schema 1)
//!
//! ```text
//! GTENV1\n
//! {"schema":1,"stage":"...","fingerprint":"<16 hex>",
//!  "payload_len":N,"checksum":"<16 hex>"}\n
//! <N payload bytes (compact JSON of the artifact)>
//! ```
//!
//! Caches written before payloads went compact hold pretty JSON; the
//! parser reads both, so those entries still load and the schema stays
//! at 1.
//!
//! The checksum is FNV-1a over the payload (the same hash the config
//! fingerprints use). Entries are published atomically: the envelope is
//! written to `<final>.tmp`, fsync'd ([`Vfs::write`] flushes), then
//! renamed over the final path — a crash at any instant leaves either
//! the complete old entry, the complete new entry, or an orphaned
//! `.tmp` the store sweeps on startup. Pre-envelope caches (raw JSON)
//! fail the magic check and heal the same way: quarantine + regenerate.
//!
//! Every filesystem touch goes through the [`Vfs`] seam, so the chaos
//! suite can exercise each failure mode deterministically.

use crate::engine::Fingerprint;
use crate::vfs::Vfs;
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};

/// Errors from dataset persistence.
#[derive(Debug)]
pub enum IoError {
    /// Filesystem failure.
    Fs(std::io::Error),
    /// (De)serialization failure.
    Serde(serde_json::Error),
    /// The loaded dataset fails validation (e.g. link endpoints out of
    /// range).
    Invalid(String),
}

impl std::fmt::Display for IoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IoError::Fs(e) => write!(f, "filesystem: {e}"),
            IoError::Serde(e) => write!(f, "serialization: {e}"),
            IoError::Invalid(m) => write!(f, "invalid dataset: {m}"),
        }
    }
}

impl std::error::Error for IoError {}

impl From<std::io::Error> for IoError {
    fn from(e: std::io::Error) -> Self {
        IoError::Fs(e)
    }
}

impl From<serde_json::Error> for IoError {
    fn from(e: serde_json::Error) -> Self {
        IoError::Serde(e)
    }
}

/// Classifies a save failure into the degradation reason key the
/// scheduler records when it disables spill for the rest of the run
/// (counter `engine.store.spill_disabled.<reason>`).
pub fn degrade_reason(e: &IoError) -> &'static str {
    match e {
        IoError::Fs(e) if e.kind() == std::io::ErrorKind::StorageFull => "enospc",
        IoError::Fs(_) => "io",
        IoError::Serde(_) | IoError::Invalid(_) => "serde",
    }
}

/// The outcome of probing an on-disk cache entry — three-valued so a
/// corrupt entry is never mistaken for a cold miss: the engine
/// quarantines `Corrupt` entries and counts them before regenerating,
/// while a `Miss` regenerates silently.
#[derive(Debug)]
pub enum CacheRead<T> {
    /// The entry exists, passed every integrity check, and parsed.
    Hit(T),
    /// No entry on disk (cold cache).
    Miss,
    /// The entry exists but is unusable — torn, bit-flipped, written by
    /// an older schema, addressed to a different stage/fingerprint, or
    /// unreadable (`EIO`). The reason is human-readable.
    Corrupt(String),
}

impl<T> CacheRead<T> {
    /// Demotes a hit that fails `check` to `Corrupt`: a decoded value
    /// that violates a load guard (fingerprint collision, tampering) is a
    /// damaged entry, never a cold miss.
    pub fn guard(self, check: impl FnOnce(&T) -> Result<(), String>) -> Self {
        match self {
            CacheRead::Hit(value) => match check(&value) {
                Ok(()) => CacheRead::Hit(value),
                Err(reason) => CacheRead::Corrupt(reason),
            },
            other => other,
        }
    }
}

/// The envelope's schema version. Bumping it invalidates (quarantines +
/// regenerates) every existing cache entry exactly once.
const ENVELOPE_SCHEMA: u32 = 1;

const MAGIC_LINE: &[u8] = b"GTENV1\n";

#[derive(Debug, Serialize, Deserialize)]
struct EnvelopeHeader {
    schema: u32,
    stage: String,
    fingerprint: String,
    payload_len: u64,
    checksum: String,
}

/// FNV-1a over the payload, rendered the same 16-hex way fingerprints
/// are.
fn content_checksum(payload: &[u8]) -> String {
    format!(
        "{:016x}",
        crate::engine::fnv1a(crate::engine::FNV_OFFSET, payload)
    )
}

/// The on-disk location of a stage's cached artifact: one file per
/// (config fingerprint, stage) pair, so distinct configurations never
/// collide.
pub fn dataset_cache_path(dir: &Path, fingerprint: &str, stage: &str) -> PathBuf {
    dir.join(format!("{fingerprint}-{stage}.json"))
}

/// The temp-file path an entry is staged to before the atomic rename.
/// Deterministic (no PID/timestamp) so an orphan left by a kill is
/// found and swept by name on the next startup.
pub fn temp_path(path: &Path) -> PathBuf {
    let mut name = path
        .file_name()
        .map(|n| n.to_os_string())
        .unwrap_or_default();
    name.push(TEMP_SUFFIX);
    path.with_file_name(name)
}

/// Suffix marking an unpublished staging file ([`temp_path`]); the
/// store's startup sweep removes files carrying it.
pub const TEMP_SUFFIX: &str = ".tmp";

/// Atomically publishes `payload` as an envelope at `path`: write the
/// complete envelope to [`temp_path`], flush it to stable storage, then
/// rename over the final path. A failed write cleans up its temp file.
///
/// # Errors
///
/// Propagates filesystem and header-serialization failures; on error no
/// partial entry is visible at `path` (the old entry, if any, is
/// untouched).
pub fn save_envelope(
    vfs: &dyn Vfs,
    path: &Path,
    stage: &str,
    fp: Fingerprint,
    payload: &[u8],
) -> Result<(), IoError> {
    if let Some(parent) = path.parent() {
        vfs.create_dir_all(parent)?;
    }
    let header = EnvelopeHeader {
        schema: ENVELOPE_SCHEMA,
        stage: stage.to_string(),
        fingerprint: fp.to_string(),
        payload_len: payload.len() as u64,
        checksum: content_checksum(payload),
    };
    let header_json = serde_json::to_string(&header)?;
    let mut bytes = Vec::with_capacity(MAGIC_LINE.len() + header_json.len() + 1 + payload.len());
    bytes.extend_from_slice(MAGIC_LINE);
    bytes.extend_from_slice(header_json.as_bytes());
    bytes.push(b'\n');
    bytes.extend_from_slice(payload);
    let tmp = temp_path(path);
    if let Err(e) = vfs.write(&tmp, &bytes) {
        // Best-effort cleanup; an ENOSPC write may still have left a
        // partial temp file, and the startup sweep catches what this
        // misses.
        let _ = vfs.remove_file(&tmp);
        return Err(IoError::Fs(e));
    }
    vfs.rename(&tmp, path)?;
    Ok(())
}

/// Reads and verifies an envelope: magic, header, schema, address
/// (stage + fingerprint), payload length, checksum — in that order, so
/// the reason in [`CacheRead::Corrupt`] names the first failed layer.
/// Only `NotFound` maps to [`CacheRead::Miss`]; a read error (`EIO`) is
/// a corrupt entry, not a cold cache.
pub fn load_envelope(
    vfs: &dyn Vfs,
    path: &Path,
    stage: &str,
    fp: Fingerprint,
) -> CacheRead<Vec<u8>> {
    let mut bytes = match vfs.read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return CacheRead::Miss,
        Err(e) => return CacheRead::Corrupt(format!("read failed: {e}")),
    };
    let Some(rest) = bytes.strip_prefix(MAGIC_LINE) else {
        return CacheRead::Corrupt(
            "missing GTENV1 magic (torn write or pre-envelope cache)".into(),
        );
    };
    let Some(nl) = rest.iter().position(|&b| b == b'\n') else {
        return CacheRead::Corrupt("truncated before end of envelope header".into());
    };
    let Ok(header_text) = std::str::from_utf8(&rest[..nl]) else {
        return CacheRead::Corrupt("envelope header is not UTF-8".into());
    };
    let header: EnvelopeHeader = match serde_json::from_str(header_text) {
        Ok(h) => h,
        Err(e) => return CacheRead::Corrupt(format!("unparseable envelope header: {e}")),
    };
    if header.schema != ENVELOPE_SCHEMA {
        return CacheRead::Corrupt(format!(
            "envelope schema {} (this build reads schema {ENVELOPE_SCHEMA})",
            header.schema
        ));
    }
    if header.stage != stage || header.fingerprint != fp.to_string() {
        return CacheRead::Corrupt(format!(
            "envelope addressed to {}/{}, wanted {stage}/{fp}",
            header.stage, header.fingerprint
        ));
    }
    let payload_start = MAGIC_LINE.len() + nl + 1;
    let payload = &bytes[payload_start..];
    if payload.len() as u64 != header.payload_len {
        return CacheRead::Corrupt(format!(
            "payload is {} bytes, header declares {} (torn write)",
            payload.len(),
            header.payload_len
        ));
    }
    if content_checksum(payload) != header.checksum {
        return CacheRead::Corrupt("payload checksum mismatch (corrupted content)".into());
    }
    // The read buffer becomes the payload: no second copy of it.
    bytes.drain(..payload_start);
    CacheRead::Hit(bytes)
}

/// Saves any serializable artifact as compact JSON inside an atomic
/// envelope (used by the engine to spill stage outputs). The text is
/// written straight from the artifact, with no value tree in between.
///
/// # Errors
///
/// Propagates filesystem and serialization failures.
pub fn save_json<T: Serialize>(
    vfs: &dyn Vfs,
    value: &T,
    path: &Path,
    stage: &str,
    fp: Fingerprint,
) -> Result<(), IoError> {
    let json = serde_json::to_string(value)?;
    save_envelope(vfs, path, stage, fp, json.as_bytes())
}

/// Loads a JSON artifact saved by [`save_json`], classifying the
/// outcome. The payload text, compact or pretty, is parsed straight
/// into `T`. A payload that passed the checksum but fails to deserialize
/// still reports `Corrupt` (a schema drift, not a cold cache). No
/// validation beyond deserialization — callers with invariants check
/// them after loading.
pub fn load_json<T: serde::Deserialize>(
    vfs: &dyn Vfs,
    path: &Path,
    stage: &str,
    fp: Fingerprint,
) -> CacheRead<T> {
    match load_envelope(vfs, path, stage, fp) {
        CacheRead::Hit(payload) => {
            let Ok(text) = std::str::from_utf8(&payload) else {
                return CacheRead::Corrupt("payload is not UTF-8".into());
            };
            match serde_json::from_str(text) {
                Ok(v) => CacheRead::Hit(v),
                Err(e) => {
                    CacheRead::Corrupt(format!("checksummed payload fails to deserialize: {e}"))
                }
            }
        }
        CacheRead::Miss => CacheRead::Miss,
        CacheRead::Corrupt(reason) => CacheRead::Corrupt(reason),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{map_stage_name, Artifact};
    use crate::pipeline::{Collector, GeoDataset, GeoNode, MapperKind, ProcessedDataset};
    use crate::vfs::RealVfs;
    use geotopo_bgp::AsId;
    use geotopo_geo::GeoPoint;
    use geotopo_measure::NodeKind;
    use proptest::prelude::*;

    const FP: Fingerprint = Fingerprint(0xBEEF);
    const STAGE: &str = "map-ixmapper-skitter";

    fn sample() -> ProcessedDataset {
        ProcessedDataset {
            collector: Collector::Skitter,
            mapper: MapperKind::IxMapper,
            dataset: GeoDataset {
                kind: NodeKind::Interface,
                nodes: vec![
                    GeoNode {
                        ip: "1.0.0.1".parse().unwrap(),
                        location: GeoPoint::new(40.0, -100.0).unwrap(),
                        asn: AsId(7),
                    },
                    GeoNode {
                        ip: "1.0.0.2".parse().unwrap(),
                        location: GeoPoint::new(41.0, -101.0).unwrap(),
                        asn: AsId(7),
                    },
                ],
                links: vec![(0, 1)],
                stats: Default::default(),
            },
        }
    }

    fn fresh_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(name);
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn roundtrip() {
        let dir = fresh_dir("geotopo_io_test");
        let path = dataset_cache_path(&dir, &FP.to_string(), STAGE);
        let ds = sample();
        save_json(&RealVfs, &ds, &path, STAGE, FP).unwrap();
        let CacheRead::Hit(loaded) = load_json::<ProcessedDataset>(&RealVfs, &path, STAGE, FP)
        else {
            panic!("expected a hit");
        };
        assert_eq!(loaded.collector, Collector::Skitter);
        assert_eq!(loaded.mapper, MapperKind::IxMapper);
        assert_eq!(loaded.dataset.num_nodes(), 2);
        assert_eq!(loaded.dataset.num_links(), 1);
        assert_eq!(loaded.dataset.nodes[0].ip, ds.dataset.nodes[0].ip);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn no_temp_file_survives_a_successful_save() {
        let dir = fresh_dir("geotopo_io_tmp");
        let path = dir.join("entry.json");
        save_envelope(&RealVfs, &path, STAGE, FP, b"payload").unwrap();
        assert!(path.exists());
        assert!(
            !temp_path(&path).exists(),
            "temp staged file must be renamed away"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_file_is_a_cold_miss() {
        assert!(matches!(
            load_json::<ProcessedDataset>(
                &RealVfs,
                Path::new("/nonexistent/geotopo.json"),
                STAGE,
                FP
            ),
            CacheRead::Miss
        ));
    }

    #[test]
    fn pre_envelope_raw_json_is_corrupt_not_miss() {
        let dir = fresh_dir("geotopo_io_legacy");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("old.json");
        // A PR-7-era cache entry: bare pretty JSON, no envelope.
        std::fs::write(&path, serde_json::to_string_pretty(&sample()).unwrap()).unwrap();
        let CacheRead::Corrupt(reason) = load_json::<ProcessedDataset>(&RealVfs, &path, STAGE, FP)
        else {
            panic!("raw JSON must be classified corrupt");
        };
        assert!(reason.contains("magic"), "{reason}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncation_is_detected() {
        let dir = fresh_dir("geotopo_io_trunc");
        let path = dir.join("entry.json");
        save_envelope(&RealVfs, &path, STAGE, FP, b"0123456789abcdef").unwrap();
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..full.len() - 5]).unwrap();
        let CacheRead::Corrupt(reason) = load_envelope(&RealVfs, &path, STAGE, FP) else {
            panic!("truncated entry must be corrupt");
        };
        assert!(reason.contains("torn write"), "{reason}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bit_flip_in_payload_fails_the_checksum() {
        let dir = fresh_dir("geotopo_io_flip");
        let path = dir.join("entry.json");
        save_envelope(&RealVfs, &path, STAGE, FP, b"sensitive artifact bytes").unwrap();
        let mut full = std::fs::read(&path).unwrap();
        let last = full.len() - 3;
        full[last] ^= 0x01;
        std::fs::write(&path, &full).unwrap();
        let CacheRead::Corrupt(reason) = load_envelope(&RealVfs, &path, STAGE, FP) else {
            panic!("bit-flipped entry must be corrupt");
        };
        assert!(reason.contains("checksum"), "{reason}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn wrong_address_is_corrupt() {
        let dir = fresh_dir("geotopo_io_addr");
        let path = dir.join("entry.json");
        save_envelope(&RealVfs, &path, STAGE, FP, b"x").unwrap();
        assert!(matches!(
            load_envelope(&RealVfs, &path, "collect-skitter", FP),
            CacheRead::Corrupt(_)
        ));
        assert!(matches!(
            load_envelope(&RealVfs, &path, STAGE, Fingerprint(1)),
            CacheRead::Corrupt(_)
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn future_schema_is_corrupt() {
        let dir = fresh_dir("geotopo_io_schema");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("entry.json");
        let payload = b"p";
        let header = format!(
            "{{\"schema\":99,\"stage\":\"{STAGE}\",\"fingerprint\":\"{FP}\",\"payload_len\":1,\"checksum\":\"{}\"}}",
            content_checksum(payload)
        );
        std::fs::write(&path, format!("GTENV1\n{header}\np")).unwrap();
        let CacheRead::Corrupt(reason) = load_envelope(&RealVfs, &path, STAGE, FP) else {
            panic!("future schema must be corrupt");
        };
        assert!(reason.contains("schema 99"), "{reason}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checksummed_but_undeserializable_payload_is_corrupt() {
        let dir = fresh_dir("geotopo_io_drift");
        let path = dir.join("entry.json");
        // A valid envelope whose payload is not a ProcessedDataset.
        save_envelope(&RealVfs, &path, STAGE, FP, b"{\"not\": \"a dataset\"}").unwrap();
        assert!(matches!(
            load_json::<ProcessedDataset>(&RealVfs, &path, STAGE, FP),
            CacheRead::Corrupt(_)
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn degrade_reasons_classify() {
        let enospc = IoError::Fs(std::io::Error::from(std::io::ErrorKind::StorageFull));
        assert_eq!(degrade_reason(&enospc), "enospc");
        let eio = IoError::Fs(std::io::Error::other("disk on fire"));
        assert_eq!(degrade_reason(&eio), "io");
        let inv = IoError::Invalid("bad".into());
        assert_eq!(degrade_reason(&inv), "serde");
    }

    #[test]
    fn temp_path_appends_suffix() {
        let p = temp_path(Path::new("/cache/abc-stage.json"));
        assert_eq!(p, Path::new("/cache/abc-stage.json.tmp"));
    }

    /// A one-file in-memory filesystem: every path names the same bytes,
    /// so the decode properties below run without disk I/O.
    #[derive(Debug, Default)]
    struct OneFile(std::sync::Mutex<Vec<u8>>);

    impl Vfs for OneFile {
        fn read(&self, _: &Path) -> std::io::Result<Vec<u8>> {
            Ok(self.0.lock().unwrap().clone())
        }
        fn write(&self, _: &Path, bytes: &[u8]) -> std::io::Result<()> {
            *self.0.lock().unwrap() = bytes.to_vec();
            Ok(())
        }
        fn rename(&self, _: &Path, _: &Path) -> std::io::Result<()> {
            Ok(())
        }
        fn remove_file(&self, _: &Path) -> std::io::Result<()> {
            Ok(())
        }
        fn create_dir_all(&self, _: &Path) -> std::io::Result<()> {
            Ok(())
        }
        fn list_dir(&self, _: &Path) -> std::io::Result<Vec<PathBuf>> {
            Ok(Vec::new())
        }
    }

    fn load(bytes: &[u8]) -> CacheRead<Vec<u8>> {
        let vfs = OneFile(std::sync::Mutex::new(bytes.to_vec()));
        load_envelope(&vfs, Path::new("e"), STAGE, FP)
    }

    /// A JSON document that reaches every parser production: nesting,
    /// numbers, literals, each escape (a surrogate pair included) and
    /// multi-byte UTF-8. Its characters are the alphabet of the random
    /// texts below too.
    const JSON_SAMPLE: &str =
        r#"{"a": [1, -2.5e3, true, false, null], "s": "\"\\\/\b\f\n\r\t\u00e9\ud83c\udf0d é🌍"}"#;

    fn parse_json(text: &str) -> Result<serde_json::Value, serde_json::Error> {
        serde_json::from_str(text)
    }

    #[test]
    fn json_parser_returns_on_every_cut_and_change_of_a_document() {
        assert!(parse_json(JSON_SAMPLE).is_ok());
        let chars: Vec<char> = JSON_SAMPLE.chars().collect();
        for at in 0..chars.len() {
            let _ = parse_json(&chars[..at].iter().collect::<String>());
            for &c in &chars {
                let mut changed = chars.clone();
                changed[at] = c;
                let _ = parse_json(&changed.iter().collect::<String>());
            }
        }
    }

    /// Reseals `payload` under a valid checksum, so the typed decoder
    /// behind `T`'s [`Artifact::load`] sees the text as it is.
    fn reseal_and_load<T: Artifact>(payload: &[u8], stage: &str) -> CacheRead<T> {
        let vfs = OneFile::default();
        save_envelope(&vfs, Path::new("e"), stage, FP, payload).unwrap();
        T::load(&vfs, Path::new("e"), stage, FP)
    }

    /// Feeds damaged forms of `value`'s payload to its decoder: every
    /// cut within 16 bytes of either end and ~32 cuts between, and at 8
    /// spread offsets a change to each of ten bytes (JSON punctuation, a
    /// digit, and a byte that is not UTF-8). Each must load as `Hit` or
    /// `Corrupt`; a panic fails the test. The samples keep a debug-build
    /// run to a few seconds: a load parses up to the damage.
    fn damaged_text_is_hit_or_corrupt<T: Artifact + Serialize>(value: &T, stage: &str) {
        let payload = serde_json::to_string(value).unwrap().into_bytes();
        assert!(matches!(
            reseal_and_load::<T>(&payload, stage),
            CacheRead::Hit(_)
        ));
        let n = payload.len();
        let stride = n / 32 + 1;
        for cut in (0..n).filter(|&c| c < 16 || n - c <= 16 || c % stride == 0) {
            let read = reseal_and_load::<T>(&payload[..cut], stage);
            assert!(!matches!(read, CacheRead::Miss), "{stage} cut at {cut}");
        }
        for at in (n / 16..n).step_by(n / 8 + 1) {
            for byte in *b"\"]},:-9.\\\xff" {
                let mut changed = payload.clone();
                changed[at] = byte;
                let read = reseal_and_load::<T>(&changed, stage);
                assert!(!matches!(read, CacheRead::Miss), "{stage} byte {at}");
            }
        }
    }

    #[test]
    fn typed_decoders_survive_damaged_text() {
        let out = crate::pipeline::Pipeline::new(crate::pipeline::PipelineConfig::tiny(8))
            .run()
            .unwrap();
        damaged_text_is_hit_or_corrupt(&*out.ground_truth, "ground-truth");
        damaged_text_is_hit_or_corrupt(&*out.route_table, "route-table");
        damaged_text_is_hit_or_corrupt(&*out.skitter, "collect-skitter");
        damaged_text_is_hit_or_corrupt(&*out.mercator, "collect-mercator");
        for d in &out.datasets {
            damaged_text_is_hit_or_corrupt(&**d, &map_stage_name(d.mapper, d.collector));
        }

        // A field the decoder requires stays required: an entry without
        // it is damaged, never restored with a made-up count.
        let text = serde_json::to_string(&*out.skitter).unwrap();
        let at = text.find("\"probes_sent\":").unwrap();
        let end = at + text[at..].find(',').unwrap() + 1;
        let pruned = format!("{}{}", &text[..at], &text[end..]);
        let read = reseal_and_load::<geotopo_measure::SkitterOutput>(pruned.as_bytes(), STAGE);
        assert!(matches!(read, CacheRead::Corrupt(r) if r.contains("probes_sent")));
    }

    #[test]
    fn keys_may_come_in_any_order_unknown_ones_skip_and_missing_ones_fail() {
        let text = serde_json::to_string(&sample()).unwrap();
        let Ok(serde_json::Value::Object(mut entries)) = serde_json::from_str(&text) else {
            panic!("a dataset serializes as an object");
        };
        entries.reverse();
        entries.push((
            "unknown".into(),
            serde_json::json!({ "a": [1, { "b": null }] }),
        ));
        let decode = |entries: &[(String, serde_json::Value)]| {
            let text = serde_json::to_string(&serde_json::Value::Object(entries.to_vec()));
            serde_json::from_str::<ProcessedDataset>(&text.unwrap())
        };
        let back = decode(&entries).unwrap();
        assert_eq!(serde_json::to_string(&back).unwrap(), text);
        entries.retain(|(key, _)| key != "mapper");
        assert!(decode(&entries).is_err());
    }

    #[test]
    fn skipping_an_unknown_key_keeps_the_depth_limit() {
        let deep = "[".repeat(10_000) + &"]".repeat(10_000);
        let text = serde_json::to_string(&sample()).unwrap();
        let payload = format!("{{\"unknown\":{deep},{}", &text[1..]);
        let CacheRead::Corrupt(reason) =
            reseal_and_load::<ProcessedDataset>(payload.as_bytes(), STAGE)
        else {
            panic!("a 10,000-deep value must not decode");
        };
        assert!(reason.contains("too deep"), "{reason}");
        // The same text without the nesting loads.
        let payload = format!("{{\"unknown\":[[]],{}", &text[1..]);
        let read = reseal_and_load::<ProcessedDataset>(payload.as_bytes(), STAGE);
        assert!(matches!(read, CacheRead::Hit(_)));
    }

    proptest! {
        #[test]
        fn arbitrary_bytes_are_corrupt_never_a_panic(
            bytes in prop::collection::vec(any::<u8>(), 0..256),
            magic in any::<bool>(),
        ) {
            // With the magic in front, the header parser and every later
            // check see the arbitrary bytes too.
            let file = if magic { [MAGIC_LINE, &bytes].concat() } else { bytes };
            prop_assert!(matches!(load(&file), CacheRead::Corrupt(_)));
        }

        #[test]
        fn every_truncation_and_byte_change_of_an_envelope_is_corrupt(
            payload in prop::collection::vec(any::<u8>(), 0..64),
            mask in 1u8..=255,
        ) {
            let vfs = OneFile::default();
            save_envelope(&vfs, Path::new("e"), STAGE, FP, &payload).unwrap();
            let file = vfs.read(Path::new("e")).unwrap();
            prop_assert!(matches!(load(&file), CacheRead::Hit(p) if p == payload));
            for len in 0..file.len() {
                prop_assert!(matches!(load(&file[..len]), CacheRead::Corrupt(_)), "cut at {}", len);
            }
            for at in 0..file.len() {
                let mut changed = file.clone();
                changed[at] ^= mask;
                prop_assert!(matches!(load(&changed), CacheRead::Corrupt(_)), "byte {} changed", at);
            }
        }

        #[test]
        fn json_parser_returns_on_any_text(
            picks in prop::collection::vec(0..JSON_SAMPLE.chars().count(), 0..48),
            bytes in prop::collection::vec(any::<u8>(), 0..48),
        ) {
            let alphabet: Vec<char> = JSON_SAMPLE.chars().collect();
            let _ = parse_json(&picks.iter().map(|&i| alphabet[i]).collect::<String>());
            let _ = parse_json(&String::from_utf8_lossy(&bytes));
        }
    }
}
