//! `tpi-disk` — the crash-safe persistent result cache under the
//! in-memory [`CellStore`](crate::pool::CellStore).
//!
//! The store is content-addressed: a cell's record lives at
//! `<hash(canonical key)>.cell` inside the cache directory, where the
//! hash is 128 bits of chained SplitMix64 over the key's
//! [`canonical`](crate::wire::CellKey::canonical) string. The payload is
//! the *rendered cell JSON* — the exact bytes the service would put in a
//! response — so a warm restart serves byte-identical results without
//! re-encoding anything.
//!
//! # Record format (version 1)
//!
//! ```text
//! offset  size  field
//! 0       4     magic "TPIC"
//! 4       2     version (little-endian, currently 1)
//! 6       2     reserved (zero)
//! 8       4     key length K (little-endian)
//! 12      4     payload length P (little-endian)
//! 16      K     canonical key string (UTF-8)
//! 16+K    P     payload (rendered cell JSON, UTF-8)
//! 16+K+P  8     FNV-1a 64 checksum of bytes [0, 16+K+P)
//! ```
//!
//! The stored key string disambiguates hash collisions: a record whose
//! key does not match the requested key is a miss, never a hit.
//!
//! # Crash safety
//!
//! Writes go through temp file → `fsync` → atomic rename (plus a
//! best-effort directory fsync), so a crash leaves either the old record
//! or the new one, never a half-written visible record. The discipline
//! for everything else is *never serve a value you cannot re-verify*: a
//! record that fails the magic/version/length/checksum/key check — torn
//! by a crash, flipped by the `disk_torn_write` fault, or edited on disk
//! — is renamed to `*.quarantined` (startup recovery scan and runtime
//! reads alike) and the cell is recomputed.

use crate::fault::{splitmix64, FaultPlan, FaultSite};
use crate::json::{parse, Json};
use crate::metrics::Metrics;
use crate::wire::CellKey;
use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Record magic: "TPIC" (TPI cell).
const MAGIC: [u8; 4] = *b"TPIC";
/// Current record format version.
const VERSION: u16 = 1;
/// Fixed header size (magic + version + reserved + two lengths).
const HEADER: usize = 16;
/// Visible record extension.
const EXT: &str = "cell";
/// Extension quarantined records are renamed to.
const QUARANTINE_EXT: &str = "quarantined";
/// Extension for in-progress writes (invisible to reads and the scan).
const TMP_EXT: &str = "tmp";

/// FNV-1a 64-bit, the record checksum. Not cryptographic — it guards
/// against torn writes and bit rot, not adversaries with filesystem
/// access.
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// 128 bits of file name for a canonical key string.
fn file_stem(canonical: &str) -> String {
    let a = fnv1a(canonical.as_bytes());
    let b = splitmix64(a);
    let c = splitmix64(b);
    format!("{b:016x}{c:016x}")
}

/// Why a record failed validation (quarantine reasons).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecordError {
    /// Too short, bad magic, bad version, or lengths inconsistent with
    /// the file size — what a torn write looks like.
    Malformed,
    /// Framing is intact but the checksum does not match — bit rot or a
    /// deliberate flip.
    Checksum,
}

/// Encodes one record in the format of the [module docs](self).
#[must_use]
pub fn encode(canonical: &str, payload: &str) -> Vec<u8> {
    let key = canonical.as_bytes();
    let body = payload.as_bytes();
    let mut out = Vec::with_capacity(HEADER + key.len() + body.len() + 8);
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&0u16.to_le_bytes());
    out.extend_from_slice(&u32::try_from(key.len()).unwrap_or(u32::MAX).to_le_bytes());
    out.extend_from_slice(&u32::try_from(body.len()).unwrap_or(u32::MAX).to_le_bytes());
    out.extend_from_slice(key);
    out.extend_from_slice(body);
    let sum = fnv1a(&out);
    out.extend_from_slice(&sum.to_le_bytes());
    out
}

/// Decodes and verifies one record, returning `(canonical key, payload)`.
///
/// # Errors
///
/// Returns the [`RecordError`] that quarantines the record: any byte
/// string that is not an intact record is refused, never a panic.
pub fn decode(bytes: &[u8]) -> Result<(&str, &str), RecordError> {
    if bytes.len() < HEADER + 8 || bytes[..4] != MAGIC {
        return Err(RecordError::Malformed);
    }
    let version = u16::from_le_bytes([bytes[4], bytes[5]]);
    if version != VERSION {
        return Err(RecordError::Malformed);
    }
    let key_len = u32::from_le_bytes([bytes[8], bytes[9], bytes[10], bytes[11]]) as usize;
    let payload_len = u32::from_le_bytes([bytes[12], bytes[13], bytes[14], bytes[15]]) as usize;
    let total = HEADER
        .checked_add(key_len)
        .and_then(|n| n.checked_add(payload_len))
        .and_then(|n| n.checked_add(8))
        .ok_or(RecordError::Malformed)?;
    if bytes.len() != total {
        return Err(RecordError::Malformed);
    }
    let sum_off = total - 8;
    let stored = u64::from_le_bytes(bytes[sum_off..].try_into().expect("8 checksum bytes"));
    if fnv1a(&bytes[..sum_off]) != stored {
        return Err(RecordError::Checksum);
    }
    let key =
        std::str::from_utf8(&bytes[HEADER..HEADER + key_len]).map_err(|_| RecordError::Checksum)?;
    let payload = std::str::from_utf8(&bytes[HEADER + key_len..sum_off])
        .map_err(|_| RecordError::Checksum)?;
    Ok((key, payload))
}

/// What the startup recovery scan found.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Visible `*.cell` records examined.
    pub scanned: usize,
    /// Records that verified clean.
    pub valid: usize,
    /// Torn or corrupted records renamed to `*.quarantined`.
    pub quarantined: usize,
    /// Leftover `*.tmp` files (crash mid-write, never visible) removed.
    pub tmp_removed: usize,
}

/// Counter snapshot for `/metrics` and `/healthz`.
#[derive(Debug, Clone, Copy, Default)]
pub struct DiskStats {
    /// Verified reads served from disk.
    pub hits: u64,
    /// Lookups that found no (valid, matching) record.
    pub misses: u64,
    /// Records durably written.
    pub writes: u64,
    /// Writes that failed at the filesystem (cache stays best-effort).
    pub write_errors: u64,
    /// Records quarantined — at startup or on a failed runtime read.
    pub quarantined: u64,
}

/// The persistent cell cache. See the [module docs](self) for the record
/// format and crash-safety contract.
pub struct DiskCache {
    dir: PathBuf,
    fault: Option<Arc<FaultPlan>>,
    metrics: Arc<Metrics>,
    hits: AtomicU64,
    misses: AtomicU64,
    writes: AtomicU64,
    write_errors: AtomicU64,
    quarantined: AtomicU64,
}

impl std::fmt::Debug for DiskCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DiskCache").field("dir", &self.dir).finish()
    }
}

impl DiskCache {
    /// Opens (creating if needed) the cache directory and runs the
    /// recovery scan: every visible record is verified, torn or
    /// corrupted ones are quarantined, and stale temp files are removed.
    ///
    /// # Errors
    ///
    /// Only directory-level failures (cannot create or read `dir`) are
    /// errors; a bad individual record is quarantined, not fatal.
    pub fn open(
        dir: &Path,
        fault: Option<Arc<FaultPlan>>,
        metrics: Arc<Metrics>,
    ) -> io::Result<(DiskCache, RecoveryReport)> {
        fs::create_dir_all(dir)?;
        let cache = DiskCache {
            dir: dir.to_path_buf(),
            fault,
            metrics,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            writes: AtomicU64::new(0),
            write_errors: AtomicU64::new(0),
            quarantined: AtomicU64::new(0),
        };
        let mut report = RecoveryReport::default();
        for entry in fs::read_dir(dir)? {
            let path = entry?.path();
            let ext = path.extension().and_then(|e| e.to_str());
            if ext == Some(TMP_EXT) {
                let _ = fs::remove_file(&path);
                report.tmp_removed += 1;
                continue;
            }
            if ext != Some(EXT) {
                continue;
            }
            report.scanned += 1;
            match fs::read(&path).map(|bytes| decode(&bytes).map(|_| ())) {
                Ok(Ok(())) => report.valid += 1,
                Ok(Err(_)) | Err(_) => {
                    cache.quarantine(&path);
                    report.quarantined += 1;
                }
            }
        }
        Ok((cache, report))
    }

    /// The cache directory.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Counter snapshot.
    #[must_use]
    pub fn stats(&self) -> DiskStats {
        DiskStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            write_errors: self.write_errors.load(Ordering::Relaxed),
            quarantined: self.quarantined.load(Ordering::Relaxed),
        }
    }

    /// Number of visible (non-quarantined) records on disk right now.
    #[must_use]
    pub fn entries(&self) -> usize {
        fs::read_dir(&self.dir)
            .map(|it| {
                it.filter_map(Result::ok)
                    .filter(|e| e.path().extension().and_then(|x| x.to_str()) == Some(EXT))
                    .count()
            })
            .unwrap_or(0)
    }

    fn record_path(&self, canonical: &str) -> PathBuf {
        self.dir.join(format!("{}.{EXT}", file_stem(canonical)))
    }

    /// Renames a bad record out of the visible namespace so it can never
    /// be served again, and counts it.
    fn quarantine(&self, path: &Path) {
        let mut target = path.as_os_str().to_owned();
        target.push(".");
        target.push(QUARANTINE_EXT);
        if fs::rename(path, &target).is_err() {
            // Rename failing (e.g. read-only fs) must still not leave the
            // record servable.
            let _ = fs::remove_file(path);
        }
        self.quarantined.fetch_add(1, Ordering::Relaxed);
        self.metrics
            .disk_quarantined
            .fetch_add(1, Ordering::Relaxed);
    }

    fn slow(&self) {
        if let Some(delay) = self.fault.as_ref().and_then(|p| p.disk_latency()) {
            self.metrics.fault(FaultSite::DiskSlow);
            std::thread::sleep(delay);
        }
    }

    /// Looks `key` up, verifying the record end to end. Returns the
    /// parsed payload JSON on a clean hit; a torn/corrupted record is
    /// quarantined and reported as a miss so the caller recomputes.
    #[must_use]
    pub fn get(&self, key: &CellKey) -> Option<Json> {
        self.slow();
        let canonical = key.canonical();
        let path = self.record_path(&canonical);
        let bytes = match fs::read(&path) {
            Ok(bytes) => bytes,
            Err(_) => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                return None;
            }
        };
        match decode(&bytes) {
            Ok((stored_key, payload)) if stored_key == canonical => match parse(payload) {
                Ok(json) => {
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    self.metrics.disk_hits.fetch_add(1, Ordering::Relaxed);
                    Some(json)
                }
                // Checksum-valid but unparsable payload: a record this
                // version never wrote. Quarantine rather than serve.
                Err(_) => {
                    self.quarantine(&path);
                    self.misses.fetch_add(1, Ordering::Relaxed);
                    None
                }
            },
            // Hash collision with a different key: a miss, and the other
            // key's record stays.
            Ok(_) => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
            Err(_) => {
                self.quarantine(&path);
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Durably stores `payload` (the rendered cell JSON) for `key`:
    /// temp file → `fsync` → atomic rename → best-effort directory
    /// `fsync`. Filesystem failures make the write a no-op (counted in
    /// [`DiskStats::write_errors`]); the cache is best-effort, the
    /// in-memory store still has the result.
    pub fn put(&self, key: &CellKey, payload: &str) {
        self.slow();
        let canonical = key.canonical();
        let record = encode(&canonical, payload);
        let path = self.record_path(&canonical);
        if let Some(plan) = &self.fault {
            if plan.fires(FaultSite::DiskTornWrite) {
                self.metrics.fault(FaultSite::DiskTornWrite);
                // Crash between write and rename: a truncated record at
                // the final path, no checksum. Recovery must quarantine
                // it, never serve it.
                let torn = &record[..record.len() * 2 / 3];
                let _ = fs::write(&path, torn);
                return;
            }
        }
        let tmp = self
            .dir
            .join(format!("{}.{TMP_EXT}", file_stem(&canonical)));
        let result = (|| -> io::Result<()> {
            let mut file = fs::File::create(&tmp)?;
            file.write_all(&record)?;
            file.sync_all()?;
            drop(file);
            fs::rename(&tmp, &path)?;
            // Make the rename itself durable where the platform allows
            // opening a directory; failure here only weakens durability,
            // not atomicity.
            if let Ok(d) = fs::File::open(&self.dir) {
                let _ = d.sync_all();
            }
            Ok(())
        })();
        match result {
            Ok(()) => {
                self.writes.fetch_add(1, Ordering::Relaxed);
                self.metrics.disk_writes.fetch_add(1, Ordering::Relaxed);
            }
            Err(_) => {
                let _ = fs::remove_file(&tmp);
                self.write_errors.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    static DIR_SEQ: AtomicU32 = AtomicU32::new(0);

    fn scratch_dir(tag: &str) -> PathBuf {
        let n = DIR_SEQ.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("tpi-disk-test-{}-{tag}-{n}", std::process::id()))
    }

    fn key(seed: u64) -> CellKey {
        CellKey {
            kernel: tpi_workloads::Kernel::Flo52,
            scale: tpi_workloads::Scale::Test,
            scheme: tpi_proto::SchemeId::TPI,
            opt_level: tpi_compiler::OptLevel::Full,
            procs: 16,
            line_words: 4,
            cache_bytes: 64 * 1024,
            tag_bits: 8,
            seed,
        }
    }

    fn open(dir: &Path) -> (DiskCache, RecoveryReport) {
        DiskCache::open(dir, None, Arc::new(Metrics::default())).unwrap()
    }

    #[test]
    fn roundtrips_and_is_warm_across_reopen() {
        let dir = scratch_dir("roundtrip");
        let (cache, report) = open(&dir);
        assert_eq!(report, RecoveryReport::default());
        assert!(cache.get(&key(1)).is_none());
        cache.put(&key(1), r#"{"total_cycles":123}"#);
        let hit = cache.get(&key(1)).expect("written record is served");
        assert_eq!(hit.render(), r#"{"total_cycles":123}"#);
        // Reopen: the scan verifies the record and the cache stays warm.
        let (cache, report) = open(&dir);
        assert_eq!(
            (report.scanned, report.valid, report.quarantined),
            (1, 1, 0)
        );
        assert!(cache.get(&key(1)).is_some());
        assert!(cache.get(&key(2)).is_none(), "other keys still miss");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_flipped_byte_is_quarantined_not_served() {
        let dir = scratch_dir("flip");
        let (cache, _) = open(&dir);
        cache.put(&key(3), r#"{"total_cycles":7}"#);
        let record = fs::read_dir(&dir)
            .unwrap()
            .filter_map(Result::ok)
            .find(|e| e.path().extension().and_then(|x| x.to_str()) == Some(EXT))
            .unwrap()
            .path();
        let mut bytes = fs::read(&record).unwrap();
        let mid = HEADER + 10;
        bytes[mid] ^= 0x40;
        fs::write(&record, &bytes).unwrap();
        // Runtime read: detected, quarantined, miss.
        assert!(cache.get(&key(3)).is_none());
        assert_eq!(cache.stats().quarantined, 1);
        assert_eq!(cache.entries(), 0);
        assert!(!record.exists(), "bad record left the visible namespace");
        // Startup scan path: write another bad record and reopen.
        cache.put(&key(4), r#"{"total_cycles":8}"#);
        let record = fs::read_dir(&dir)
            .unwrap()
            .filter_map(Result::ok)
            .find(|e| e.path().extension().and_then(|x| x.to_str()) == Some(EXT))
            .unwrap()
            .path();
        let bytes = fs::read(&record).unwrap();
        fs::write(&record, &bytes[..bytes.len() - 3]).unwrap();
        let (cache, report) = open(&dir);
        assert_eq!(report.quarantined, 1);
        assert!(cache.get(&key(4)).is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_write_fault_leaves_an_unservable_record() {
        let dir = scratch_dir("torn");
        let plan = Arc::new(FaultPlan::parse("disk_torn_write=1@1").unwrap());
        let metrics = Arc::new(Metrics::default());
        let (cache, _) =
            DiskCache::open(&dir, Some(Arc::clone(&plan)), Arc::clone(&metrics)).unwrap();
        cache.put(&key(5), r#"{"total_cycles":9}"#);
        assert_eq!(cache.stats().writes, 0, "the torn write is not durable");
        // The torn record is present but must never be served.
        assert_eq!(cache.entries(), 1);
        assert!(cache.get(&key(5)).is_none());
        assert_eq!(cache.stats().quarantined, 1);
        // Fire cap exhausted: the rewrite is clean and served.
        cache.put(&key(5), r#"{"total_cycles":9}"#);
        assert!(cache.get(&key(5)).is_some());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_tmp_files_are_removed_on_open() {
        let dir = scratch_dir("tmp");
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join(format!("deadbeef.{TMP_EXT}")), b"half a record").unwrap();
        let (_, report) = open(&dir);
        assert_eq!(report.tmp_removed, 1);
        assert_eq!(report.scanned, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn decode_rejects_foreign_and_mismatched_bytes() {
        assert_eq!(decode(b"short"), Err(RecordError::Malformed));
        assert_eq!(decode(&[0u8; 64]), Err(RecordError::Malformed));
        let good = encode("k", "v");
        assert_eq!(decode(&good), Ok(("k", "v")));
        let mut wrong_version = good.clone();
        wrong_version[4] = 99;
        assert_eq!(decode(&wrong_version), Err(RecordError::Malformed));
        let mut flipped = good;
        let last = flipped.len() - 9;
        flipped[last] ^= 1;
        assert_eq!(decode(&flipped), Err(RecordError::Checksum));
    }
}
