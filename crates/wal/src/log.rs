//! The append-only write-ahead log.
//!
//! File layout:
//!
//! ```text
//! +--------------+   8 bytes, b"CDBWAL01"
//! |    header    |
//! +--------------+
//! | frame 0      |   [u32 payload_len][u32 crc32(payload)][payload]
//! | frame 1      |   payload = [u64 lsn][LogRecord::encode bytes]
//! | ...          |
//! +--------------+
//! ```
//!
//! All integers are little-endian and the frame is
//! [`crowddb_common::codec::frame`], the shape CDBP shares. Every frame
//! carries its own length and CRC, so a torn final write (the only kind of
//! damage an append-only log suffers from a crash) is detected on open and
//! trimmed: the log is truncated back to the last frame that checks out,
//! and recovery proceeds from the surviving prefix. A frame whose CRC
//! *passes* but whose payload does not decode is not a torn write — it is
//! corruption, and open refuses rather than silently dropping records.

use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use crowddb_common::codec;
use crowddb_common::{CrowdError, Result};
use crowddb_obs::{Event, Obs};
use crowddb_storage::LogRecord;

/// Magic + format version prefix of a WAL file.
pub const WAL_MAGIC: &[u8; 8] = b"CDBWAL01";

/// Hard upper bound on a single frame payload; anything larger in a
/// length field is treated as a torn/garbage tail, not an allocation hint.
const MAX_PAYLOAD: u32 = 1 << 28;

/// When the operating system is asked to make appended records crash-safe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// fsync after every append. Slowest, loses nothing.
    Always,
    /// fsync every `n` appends (and on [`Wal::sync`] / checkpoint /
    /// close). A crash loses at most the last `n - 1` records.
    Batch(u32),
    /// Never fsync explicitly; the OS flushes when it pleases. Fastest,
    /// weakest. A kernel crash can lose any unflushed suffix — an
    /// *application* crash loses nothing, since writes still reach the
    /// page cache.
    Never,
}

impl Default for FsyncPolicy {
    fn default() -> Self {
        FsyncPolicy::Batch(64)
    }
}

/// An open write-ahead log.
#[derive(Debug)]
pub struct Wal {
    file: File,
    path: PathBuf,
    policy: FsyncPolicy,
    /// LSN the next appended record will carry (LSNs start at 1).
    next_lsn: u64,
    /// Current end-of-log offset (everything before it is valid frames).
    len: u64,
    /// Appends since the last fsync (for [`FsyncPolicy::Batch`]).
    unsynced: u32,
    /// Optional observability sink for append/fsync accounting.
    obs: Option<Arc<Obs>>,
}

fn io_err(ctx: &str, e: std::io::Error) -> CrowdError {
    CrowdError::Io(format!("wal: {ctx}: {e}"))
}

impl Wal {
    /// Open (or create) the log at `path`, returning the log positioned
    /// for appending plus every intact record already on disk, in order.
    ///
    /// A torn final frame is truncated away; a bad header or a
    /// CRC-valid-but-undecodable frame is an error.
    pub fn open(
        path: impl AsRef<Path>,
        policy: FsyncPolicy,
    ) -> Result<(Wal, Vec<(u64, LogRecord)>)> {
        let path = path.as_ref().to_path_buf();
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)
            .map_err(|e| io_err("open", e))?;
        let disk_len = file.metadata().map_err(|e| io_err("stat", e))?.len();

        if disk_len == 0 {
            file.write_all(WAL_MAGIC)
                .map_err(|e| io_err("write header", e))?;
            file.sync_data().map_err(|e| io_err("sync header", e))?;
            let wal = Wal {
                file,
                path,
                policy,
                next_lsn: 1,
                len: WAL_MAGIC.len() as u64,
                unsynced: 0,
                obs: None,
            };
            return Ok((wal, Vec::new()));
        }

        let mut bytes = Vec::with_capacity(disk_len as usize);
        file.seek(SeekFrom::Start(0))
            .map_err(|e| io_err("seek", e))?;
        file.read_to_end(&mut bytes)
            .map_err(|e| io_err("read", e))?;
        let (records, valid_len) = scan_frames(&bytes)?;
        if (valid_len as u64) < disk_len {
            // Torn tail from a crash mid-append: trim it so the next
            // append starts on a clean frame boundary.
            file.set_len(valid_len as u64)
                .map_err(|e| io_err("truncate torn tail", e))?;
            file.sync_data().map_err(|e| io_err("sync truncate", e))?;
        }
        file.seek(SeekFrom::Start(valid_len as u64))
            .map_err(|e| io_err("seek end", e))?;
        let next_lsn = records.iter().map(|(lsn, _)| *lsn).max().unwrap_or(0) + 1;
        let wal = Wal {
            file,
            path,
            policy,
            next_lsn,
            len: valid_len as u64,
            unsynced: 0,
            obs: None,
        };
        Ok((wal, records))
    }

    /// Report append counts/bytes and fsync latency into a shared
    /// observability handle.
    pub fn set_obs(&mut self, obs: Arc<Obs>) {
        self.obs = Some(obs);
    }

    /// Path this log lives at.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// LSN of the most recently appended (or recovered) record; 0 when
    /// the log has never held a record.
    pub fn last_lsn(&self) -> u64 {
        self.next_lsn - 1
    }

    /// Current valid length of the log file in bytes.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether the log holds no frames (header only).
    pub fn is_empty(&self) -> bool {
        self.len == WAL_MAGIC.len() as u64
    }

    /// Ensure future LSNs are `>= floor`. Called after snapshot recovery
    /// so that a truncated (post-checkpoint) log continues the sequence
    /// the snapshot recorded instead of restarting at 1.
    pub fn bump_lsn(&mut self, floor: u64) {
        if self.next_lsn < floor {
            self.next_lsn = floor;
        }
    }

    /// Append one record; returns its LSN. Durability per the fsync
    /// policy the log was opened with.
    pub fn append(&mut self, rec: &LogRecord) -> Result<u64> {
        let lsn = self.next_lsn;
        let mut payload = lsn.to_le_bytes().to_vec();
        payload.extend_from_slice(&rec.encode());
        let frame = codec::frame(&payload);
        self.file
            .write_all(&frame)
            .map_err(|e| io_err("append", e))?;
        self.len += frame.len() as u64;
        self.next_lsn += 1;
        if let Some(obs) = &self.obs {
            obs.registry().counter_inc("crowddb_wal_appends_total");
            obs.registry()
                .counter_add("crowddb_wal_bytes_appended_total", frame.len() as u64);
            obs.events().emit(Event::WalAppend {
                kind: rec.kind(),
                bytes: frame.len() as u64,
            });
        }
        match self.policy {
            FsyncPolicy::Always => self.sync()?,
            FsyncPolicy::Batch(n) => {
                self.unsynced += 1;
                if self.unsynced >= n.max(1) {
                    self.sync()?;
                }
            }
            FsyncPolicy::Never => {}
        }
        Ok(lsn)
    }

    /// Force everything appended so far to stable storage.
    pub fn sync(&mut self) -> Result<()> {
        let t0 = Instant::now();
        self.file.sync_data().map_err(|e| io_err("fsync", e))?;
        self.unsynced = 0;
        if let Some(obs) = &self.obs {
            let micros = t0.elapsed().as_micros() as u64;
            obs.registry().counter_inc("crowddb_wal_fsyncs_total");
            obs.registry()
                .observe("crowddb_wal_fsync_micros", micros as f64);
            obs.events().emit(Event::WalFsync { micros });
        }
        Ok(())
    }

    /// Discard all frames (after a checkpoint has made them redundant),
    /// keeping the LSN sequence running.
    pub fn reset(&mut self) -> Result<()> {
        self.file
            .set_len(WAL_MAGIC.len() as u64)
            .map_err(|e| io_err("reset", e))?;
        self.file
            .seek(SeekFrom::Start(WAL_MAGIC.len() as u64))
            .map_err(|e| io_err("seek", e))?;
        self.len = WAL_MAGIC.len() as u64;
        self.file.sync_data().map_err(|e| io_err("sync reset", e))?;
        self.unsynced = 0;
        Ok(())
    }
}

impl Drop for Wal {
    /// Best-effort flush: records appended under `FsyncPolicy::Batch`
    /// that have not reached their batch boundary still hit stable
    /// storage when the log handle is dropped without an explicit sync.
    fn drop(&mut self) {
        if self.unsynced > 0 {
            let _ = self.file.sync_data();
        }
    }
}

/// Scan a raw WAL image: validate the header, then decode frames until
/// the first torn/incomplete one. Returns the intact records and the byte
/// offset where the valid prefix ends. Exposed for the crash-injection
/// harness.
pub fn scan_frames(bytes: &[u8]) -> Result<(Vec<(u64, LogRecord)>, usize)> {
    if bytes.len() < WAL_MAGIC.len() || &bytes[..WAL_MAGIC.len()] != WAL_MAGIC {
        return Err(CrowdError::Io(
            "wal: bad header (not a CrowdDB write-ahead log)".into(),
        ));
    }
    let mut records = Vec::new();
    let mut off = WAL_MAGIC.len();
    // A torn header, a garbage length, a short or checksum-failing
    // payload, or one too short for its LSN all end the valid prefix
    // (a clean EOF is the first of these).
    while let Ok((payload, used)) = codec::unframe(&bytes[off..], MAX_PAYLOAD) {
        if payload.len() < 8 {
            break;
        }
        let (lsn, body) = payload.split_at(8);
        let lsn = u64::from_le_bytes(lsn.try_into().expect("8 bytes"));
        let rec = LogRecord::decode(body).map_err(|e| {
            CrowdError::Io(format!(
                "wal: frame at offset {off} has a valid checksum but an undecodable record \
                 (on-disk corruption, not a torn write): {e}"
            ))
        })?;
        records.push((lsn, rec));
        off += used;
    }
    Ok((records, off))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::TestDir;

    fn rec(i: i64) -> LogRecord {
        LogRecord::Dml {
            sql: format!("INSERT INTO t VALUES ({i})"),
        }
    }

    #[test]
    fn append_reopen_round_trip() {
        let dir = TestDir::new("wal-roundtrip");
        let path = dir.path().join("wal.bin");
        let (mut wal, recovered) = Wal::open(&path, FsyncPolicy::Always).unwrap();
        assert!(recovered.is_empty());
        assert_eq!(wal.last_lsn(), 0);
        for i in 0..10 {
            assert_eq!(wal.append(&rec(i)).unwrap(), (i + 1) as u64);
        }
        drop(wal);
        let (wal, recovered) = Wal::open(&path, FsyncPolicy::Always).unwrap();
        assert_eq!(recovered.len(), 10);
        assert_eq!(wal.last_lsn(), 10);
        for (i, (lsn, r)) in recovered.iter().enumerate() {
            assert_eq!(*lsn, (i + 1) as u64);
            assert_eq!(r, &rec(i as i64));
        }
    }

    #[test]
    fn torn_tail_is_trimmed_at_every_offset() {
        let dir = TestDir::new("wal-torn");
        let path = dir.path().join("wal.bin");
        let (mut wal, _) = Wal::open(&path, FsyncPolicy::Never).unwrap();
        let mut ends = vec![wal.len()];
        for i in 0..5 {
            wal.append(&rec(i)).unwrap();
            ends.push(wal.len());
        }
        drop(wal);
        let image = std::fs::read(&path).unwrap();
        for cut in WAL_MAGIC.len()..=image.len() {
            let torn = dir.path().join(format!("torn-{cut}.bin"));
            std::fs::write(&torn, &image[..cut]).unwrap();
            let (wal, recovered) = Wal::open(&torn, FsyncPolicy::Never).unwrap();
            // Exactly the frames that fit entirely below the cut survive.
            let expect = ends.iter().filter(|&&e| e <= cut as u64).count() - 1;
            assert_eq!(recovered.len(), expect, "cut at {cut}");
            // The file was physically trimmed to the last frame boundary.
            assert_eq!(wal.len(), ends[expect], "cut at {cut}");
            // Appending after recovery continues the LSN sequence.
            assert_eq!(wal.last_lsn(), expect as u64);
        }
    }

    #[test]
    fn bad_crc_stops_recovery_at_prefix() {
        let dir = TestDir::new("wal-crc");
        let path = dir.path().join("wal.bin");
        let (mut wal, _) = Wal::open(&path, FsyncPolicy::Never).unwrap();
        let mut second_start = 0;
        for i in 0..3 {
            if i == 1 {
                second_start = wal.len();
            }
            wal.append(&rec(i)).unwrap();
        }
        drop(wal);
        let mut image = std::fs::read(&path).unwrap();
        // Flip a bit inside the second frame's payload.
        let idx = second_start as usize + codec::FRAME_HEADER + 2;
        image[idx] ^= 0x40;
        std::fs::write(&path, &image).unwrap();
        let (_, recovered) = Wal::open(&path, FsyncPolicy::Never).unwrap();
        assert_eq!(recovered.len(), 1);
        assert_eq!(recovered[0].1, rec(0));
    }

    #[test]
    fn bad_header_rejected() {
        let dir = TestDir::new("wal-header");
        let path = dir.path().join("wal.bin");
        std::fs::write(&path, b"definitely not a wal").unwrap();
        let err = Wal::open(&path, FsyncPolicy::Never).unwrap_err();
        assert_eq!(err.category(), "io");
    }

    #[test]
    fn valid_crc_bad_record_is_an_error() {
        let dir = TestDir::new("wal-poison");
        let path = dir.path().join("wal.bin");
        let mut image = WAL_MAGIC.to_vec();
        // A frame whose payload checks out but holds an unknown tag.
        let mut payload = 1u64.to_le_bytes().to_vec();
        payload.push(0xEE);
        image.extend_from_slice(&codec::frame(&payload));
        std::fs::write(&path, &image).unwrap();
        let err = Wal::open(&path, FsyncPolicy::Never).unwrap_err();
        assert!(err.message().contains("undecodable"), "{err}");
    }

    #[test]
    fn reset_keeps_lsn_sequence() {
        let dir = TestDir::new("wal-reset");
        let path = dir.path().join("wal.bin");
        let (mut wal, _) = Wal::open(&path, FsyncPolicy::Always).unwrap();
        wal.append(&rec(0)).unwrap();
        wal.append(&rec(1)).unwrap();
        wal.reset().unwrap();
        assert!(wal.is_empty());
        assert_eq!(wal.append(&rec(2)).unwrap(), 3);
        drop(wal);
        let (mut wal, recovered) = Wal::open(&path, FsyncPolicy::Always).unwrap();
        assert_eq!(recovered.len(), 1);
        assert_eq!(recovered[0].0, 3);
        // bump_lsn never moves backwards.
        wal.bump_lsn(2);
        assert_eq!(wal.last_lsn(), 3);
        wal.bump_lsn(10);
        assert_eq!(wal.append(&rec(3)).unwrap(), 10);
    }
}
