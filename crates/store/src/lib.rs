//! # spanner-store — durable corpus store for the spanner service
//!
//! The serving front-end (`spanner-server`) keeps its corpus in memory; this
//! crate makes that state survive the process.  The design is the classic
//! snapshot + append-log pair:
//!
//! * **Append log** (`corpus.log`): every corpus mutation — document
//!   registration with its *resolved* shard count, removal, tenant
//!   create/update (and re-shard swaps, which earlier builds wrote and
//!   replay still applies) — is one [`LogVerb`] serialized as a
//!   newline-terminated canonical-JSON line carrying a monotone sequence
//!   number.  Appends are acknowledged after a buffered write reaches the
//!   kernel, so a `kill -9` of the process loses nothing that was acked.
//! * **Snapshot** (`corpus.snapshot`): a full [`CorpusImage`] — tenant
//!   specs, every live document's bytes and shard count, and the per-tenant
//!   next-id counters — written to a temp file and atomically renamed, then
//!   the log is truncated.  The image records `last_seq`, so a crash
//!   *between* the rename and the truncation is harmless: replay skips log
//!   verbs the snapshot already covers.
//! * **Recovery** ([`Store::open`]): load the snapshot if present, then fold
//!   in every decodable log verb.  A torn tail — the final line cut short by
//!   a crash mid-write — is detected (no trailing newline, or a line that
//!   fails to decode), dropped, and physically truncated away so the next
//!   append starts on a clean boundary.  Recovery never panics and never
//!   half-applies a verb: a verb is either a complete decodable line
//!   (applied) or it is not (dropped with everything after it).
//!
//! The crate is dependency-free by design (the [`json`] codec moved here
//! from `spanner-server`, which now re-exports it): the store speaks plain
//! corpus data, and the server layers wire-protocol concerns on top.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod image;
pub mod json;
pub mod verbs;

pub use image::{CorpusImage, DocImage};
pub use verbs::{LogVerb, TenantSpec, VerbError, LOG_VERSION};

use std::fs::{File, OpenOptions};
use std::io::{self, Read as _, Seek as _, SeekFrom, Write as _};
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::SystemTime;

/// File name of the append log inside the data directory.
pub const LOG_FILE: &str = "corpus.log";
/// File name of the snapshot inside the data directory.
pub const SNAPSHOT_FILE: &str = "corpus.snapshot";

/// What [`Store::open`] found on disk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Recovery {
    /// The reconstructed corpus state (snapshot + replayed log verbs).
    pub image: CorpusImage,
    /// Whether a snapshot file was loaded.
    pub from_snapshot: bool,
    /// Number of log verbs replayed on top of the snapshot.
    pub replayed_verbs: u64,
    /// Bytes of torn tail dropped (and truncated) from the log, if any.
    pub torn_bytes: u64,
}

/// Point-in-time store health for the observability endpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StoreMetrics {
    /// Verbs currently in the append log (since the last snapshot).
    pub log_records: u64,
    /// Bytes currently in the append log.
    pub log_bytes: u64,
    /// Highest sequence number ever appended (0 = none).
    pub last_seq: u64,
    /// `last_seq` covered by the current snapshot (0 = no snapshot).
    pub snapshot_seq: u64,
    /// Seconds since the current snapshot was written (`None` = never).
    pub snapshot_age_secs: Option<u64>,
    /// Snapshots written over this handle's lifetime (not persisted across
    /// reopen — a snapshot-rate signal, not durable history).
    pub snapshots: u64,
}

struct Inner {
    log: File,
    next_seq: u64,
    log_records: u64,
    log_bytes: u64,
    snapshot_seq: u64,
    snapshot_time: Option<SystemTime>,
    snapshots: u64,
}

/// Handle on a data directory: one append log plus one snapshot.
///
/// Appends and snapshots serialize through an internal lock; the serving
/// process calls them from whichever connection thread performs the
/// mutation, in the same order it applies the mutation in memory.
pub struct Store {
    dir: PathBuf,
    inner: Mutex<Inner>,
}

impl std::fmt::Debug for Store {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Store").field("dir", &self.dir).finish()
    }
}

fn data_err(message: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message)
}

impl Store {
    /// Opens (creating if needed) the data directory, recovers the corpus
    /// image from snapshot + log, truncates any torn log tail, and returns
    /// the store ready for appends.
    ///
    /// A corrupt *snapshot* is a hard error (snapshots are written
    /// atomically, so damage there is real corruption, not a crash
    /// artifact); a corrupt log *tail* is expected after a crash and is
    /// dropped cleanly.
    pub fn open(dir: &Path) -> io::Result<(Store, Recovery)> {
        std::fs::create_dir_all(dir)?;
        let snapshot_path = dir.join(SNAPSHOT_FILE);
        let (mut image, from_snapshot, snapshot_time) = match std::fs::read(&snapshot_path) {
            Ok(bytes) => {
                let image = CorpusImage::decode(&bytes).map_err(|e| data_err(e.to_string()))?;
                let mtime = std::fs::metadata(&snapshot_path)
                    .and_then(|m| m.modified())
                    .ok();
                (image, true, mtime)
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => (CorpusImage::default(), false, None),
            Err(e) => return Err(e),
        };
        let snapshot_seq = image.last_seq;

        let log_path = dir.join(LOG_FILE);
        let mut log = OpenOptions::new()
            .read(true)
            .append(true)
            .create(true)
            .open(&log_path)?;
        let mut bytes = Vec::new();
        log.read_to_end(&mut bytes)?;

        // Walk complete, decodable lines; the first incomplete or
        // undecodable line starts the torn tail.
        let mut clean_end = 0usize;
        let mut replayed_verbs = 0u64;
        let mut pos = 0usize;
        while let Some(nl) = bytes[pos..].iter().position(|&b| b == b'\n') {
            let line = &bytes[pos..pos + nl];
            match LogVerb::decode(line) {
                Ok((seq, verb)) => {
                    if seq > image.last_seq {
                        replayed_verbs += 1;
                    }
                    image.apply(seq, &verb);
                    pos += nl + 1;
                    clean_end = pos;
                }
                Err(_) => break,
            }
        }
        let torn_bytes = (bytes.len() - clean_end) as u64;
        if torn_bytes > 0 {
            log.set_len(clean_end as u64)?;
        }
        log.seek(SeekFrom::End(0))?;

        let store = Store {
            dir: dir.to_path_buf(),
            inner: Mutex::new(Inner {
                log,
                next_seq: image.last_seq + 1,
                log_records: replayed_verbs,
                log_bytes: clean_end as u64,
                snapshot_seq,
                snapshot_time,
                snapshots: 0,
            }),
        };
        Ok((
            store,
            Recovery {
                image,
                from_snapshot,
                replayed_verbs,
                torn_bytes,
            },
        ))
    }

    /// The data directory this store writes into.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Appends one verb to the log and returns its sequence number.
    pub fn append(&self, verb: &LogVerb) -> io::Result<u64> {
        let mut inner = self.inner.lock().unwrap();
        let seq = inner.next_seq;
        let mut line = verb.encode(seq);
        line.push(b'\n');
        inner.log.write_all(&line)?;
        inner.log.flush()?;
        inner.next_seq = seq + 1;
        inner.log_records += 1;
        inner.log_bytes += line.len() as u64;
        Ok(seq)
    }

    /// Writes `image` as the new snapshot (temp file + atomic rename) and
    /// truncates the log.  The caller passes the image it maintains in
    /// memory; `image.last_seq` must cover every verb appended so far.
    pub fn snapshot(&self, image: &CorpusImage) -> io::Result<()> {
        let mut inner = self.inner.lock().unwrap();
        let tmp_path = self.dir.join(format!("{SNAPSHOT_FILE}.tmp"));
        let final_path = self.dir.join(SNAPSHOT_FILE);
        {
            let mut tmp = File::create(&tmp_path)?;
            tmp.write_all(&image.encode())?;
            tmp.sync_all()?;
        }
        std::fs::rename(&tmp_path, &final_path)?;
        // A crash here is safe: replay skips log verbs with
        // `seq <= image.last_seq`, which is exactly what the log holds.
        inner.log.set_len(0)?;
        inner.log.seek(SeekFrom::Start(0))?;
        inner.log_records = 0;
        inner.log_bytes = 0;
        inner.snapshot_seq = image.last_seq;
        inner.snapshot_time = Some(SystemTime::now());
        inner.snapshots += 1;
        Ok(())
    }

    /// Current store health counters.
    pub fn metrics(&self) -> StoreMetrics {
        let inner = self.inner.lock().unwrap();
        StoreMetrics {
            log_records: inner.log_records,
            log_bytes: inner.log_bytes,
            last_seq: inner.next_seq - 1,
            snapshot_seq: inner.snapshot_seq,
            snapshot_age_secs: inner.snapshot_time.and_then(|t| {
                SystemTime::now()
                    .duration_since(t)
                    .ok()
                    .map(|d| d.as_secs())
            }),
            snapshots: inner.snapshots,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct TempDir(PathBuf);

    impl TempDir {
        fn new(tag: &str) -> TempDir {
            let dir =
                std::env::temp_dir().join(format!("spanner-store-{tag}-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).unwrap();
            TempDir(dir)
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn sample_verbs() -> Vec<LogVerb> {
        vec![
            LogVerb::TenantCreate(TenantSpec {
                id: 3,
                name: "acme".into(),
                max_docs: 4,
                max_corpus_bytes: 1 << 16,
                cache_share: 1024,
                admission_weight: 2,
            }),
            LogVerb::AddDoc {
                tenant: 0,
                wire_id: 0,
                text: b"abababab".to_vec(),
                shards: 2,
            },
            LogVerb::AddDoc {
                tenant: 3,
                wire_id: 0,
                text: b"xyxy\xffxyxy".to_vec(),
                shards: 1,
            },
            LogVerb::RemoveDoc {
                tenant: 0,
                wire_id: 0,
            },
            LogVerb::AddDoc {
                tenant: 0,
                wire_id: 1,
                text: b"cdcdcdcd".to_vec(),
                shards: 4,
            },
            LogVerb::Reshard {
                tenant: 0,
                wire_id: 1,
                shards: 8,
            },
        ]
    }

    #[test]
    fn append_then_reopen_replays_everything() {
        let tmp = TempDir::new("replay");
        let (store, recovery) = Store::open(&tmp.0).unwrap();
        assert_eq!(recovery.image, CorpusImage::default());
        for verb in sample_verbs() {
            store.append(&verb).unwrap();
        }
        let metrics = store.metrics();
        assert_eq!(metrics.log_records, 6);
        assert_eq!(metrics.last_seq, 6);
        drop(store);

        let (_store, recovery) = Store::open(&tmp.0).unwrap();
        assert_eq!(recovery.replayed_verbs, 6);
        assert_eq!(recovery.torn_bytes, 0);
        assert!(!recovery.from_snapshot);
        let image = recovery.image;
        assert_eq!(image.docs.len(), 2);
        assert_eq!(image.next_id(0), 2);
        assert_eq!(image.next_id(3), 1);
        assert_eq!(image.tenants.len(), 1);
        assert_eq!(
            image
                .docs
                .iter()
                .find(|d| d.tenant == 0 && d.wire_id == 1)
                .unwrap()
                .shards,
            8
        );
    }

    #[test]
    fn snapshot_truncates_log_and_survives_reopen() {
        let tmp = TempDir::new("snapshot");
        let (store, _) = Store::open(&tmp.0).unwrap();
        let mut image = CorpusImage::default();
        for verb in sample_verbs() {
            let seq = store.append(&verb).unwrap();
            image.apply(seq, &verb);
        }
        store.snapshot(&image).unwrap();
        let metrics = store.metrics();
        assert_eq!(metrics.log_records, 0);
        assert_eq!(metrics.snapshot_seq, 6);
        assert_eq!(metrics.snapshot_age_secs, Some(0));

        // Post-snapshot appends land in the (now empty) log.
        let seq = store
            .append(&LogVerb::RemoveDoc {
                tenant: 3,
                wire_id: 0,
            })
            .unwrap();
        assert_eq!(seq, 7);
        drop(store);

        let (_store, recovery) = Store::open(&tmp.0).unwrap();
        assert!(recovery.from_snapshot);
        assert_eq!(recovery.replayed_verbs, 1);
        assert_eq!(recovery.image.docs.len(), 1);
        assert_eq!(recovery.image.last_seq, 7);
    }

    #[test]
    fn crash_between_snapshot_and_truncation_is_safe() {
        let tmp = TempDir::new("crashwindow");
        let (store, _) = Store::open(&tmp.0).unwrap();
        let mut image = CorpusImage::default();
        for verb in sample_verbs() {
            let seq = store.append(&verb).unwrap();
            image.apply(seq, &verb);
        }
        drop(store);
        // Simulate the crash window: snapshot file exists, log NOT truncated.
        std::fs::write(tmp.0.join(SNAPSHOT_FILE), image.encode()).unwrap();

        let (_store, recovery) = Store::open(&tmp.0).unwrap();
        assert!(recovery.from_snapshot);
        // Every log verb is covered by the snapshot: nothing replays twice.
        assert_eq!(recovery.replayed_verbs, 0);
        assert_eq!(recovery.image, image);
    }

    /// The crash-recovery property test: truncate the log at EVERY byte
    /// boundary and assert recovery yields exactly the image of some verb
    /// prefix — never a panic, never a half-applied verb.
    #[test]
    fn truncation_at_every_byte_boundary_recovers_a_clean_prefix() {
        let tmp = TempDir::new("everybyte");
        let (store, _) = Store::open(&tmp.0).unwrap();
        let verbs = sample_verbs();
        let mut prefix_images = vec![CorpusImage::default()];
        for verb in &verbs {
            let seq = store.append(verb).unwrap();
            let mut next = prefix_images.last().unwrap().clone();
            next.apply(seq, verb);
            prefix_images.push(next);
        }
        drop(store);
        let full_log = std::fs::read(tmp.0.join(LOG_FILE)).unwrap();

        for cut in 0..=full_log.len() {
            let case = TempDir::new(&format!("everybyte-{cut}"));
            std::fs::write(case.0.join(LOG_FILE), &full_log[..cut]).unwrap();
            let (store, recovery) = Store::open(&case.0).unwrap();
            assert!(
                prefix_images.contains(&recovery.image),
                "cut at byte {cut} produced a non-prefix image"
            );
            // The torn tail was physically truncated: appending after
            // recovery lands on a clean line boundary.
            let seq = store
                .append(&LogVerb::RemoveDoc {
                    tenant: 9,
                    wire_id: 9,
                })
                .unwrap();
            assert_eq!(seq, recovery.image.last_seq + 1);
            drop(store);
            let (_again, re2) = Store::open(&case.0).unwrap();
            assert_eq!(re2.image.last_seq, seq);
            assert_eq!(re2.torn_bytes, 0);
        }
    }

    #[test]
    fn corrupt_snapshot_is_a_hard_error() {
        let tmp = TempDir::new("badsnap");
        std::fs::write(tmp.0.join(SNAPSHOT_FILE), b"{\"v\":99}").unwrap();
        let err = Store::open(&tmp.0).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }
}
