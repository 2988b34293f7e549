//! Checkpoint snapshots.
//!
//! A snapshot is one opaque payload (the engine serializes the whole
//! `Database` + session caches through `crowddb_common::codec`) stamped
//! with the LSN of the last log record it covers:
//!
//! ```text
//! [8  b"CDBSNAP1"][u64 last_lsn][u64 payload_len][u32 crc32(payload)][payload]
//! ```
//!
//! Snapshots are written atomically: the bytes go to a temporary file
//! which is fsynced and then renamed over the real name (rename is atomic
//! on POSIX), and the directory is fsynced so the rename itself survives
//! a crash. A crash at any point leaves either the old snapshot or the
//! new one — never a half-written hybrid — which is what makes
//! checkpointing with log truncation safe: the log is only truncated
//! *after* the rename, and replay skips records at or below the
//! snapshot's LSN, so crashing between the two steps merely replays a
//! harmless already-covered tail.

use std::fs::{self, File, OpenOptions};
use std::io::{Read, Write};
use std::path::Path;

use crowddb_common::codec::{crc32, put_u32, put_u64};
use crowddb_common::{CrowdError, Result};

/// Magic + format version prefix of a snapshot file.
pub const SNAPSHOT_MAGIC: &[u8; 8] = b"CDBSNAP1";

/// Fixed-size snapshot header: magic + last_lsn + payload_len + crc.
const HEADER: usize = 8 + 8 + 8 + 4;

fn io_err(ctx: &str, e: std::io::Error) -> CrowdError {
    CrowdError::Io(format!("snapshot: {ctx}: {e}"))
}

/// Atomically replace the snapshot at `path` with `payload`, stamped as
/// covering every log record up to and including `last_lsn`.
pub fn write(path: &Path, last_lsn: u64, payload: &[u8]) -> Result<()> {
    let tmp = path.with_extension("tmp");
    let mut buf = Vec::with_capacity(HEADER + payload.len());
    buf.extend_from_slice(SNAPSHOT_MAGIC);
    put_u64(&mut buf, last_lsn);
    put_u64(&mut buf, payload.len() as u64);
    put_u32(&mut buf, crc32(payload));
    buf.extend_from_slice(payload);
    {
        let mut f = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(&tmp)
            .map_err(|e| io_err("create tmp", e))?;
        f.write_all(&buf).map_err(|e| io_err("write tmp", e))?;
        f.sync_all().map_err(|e| io_err("sync tmp", e))?;
    }
    fs::rename(&tmp, path).map_err(|e| io_err("rename", e))?;
    sync_dir(path)?;
    Ok(())
}

/// Read the snapshot at `path`. Returns `Ok(None)` when no snapshot has
/// ever been written; a snapshot that exists but fails validation is an
/// error (the atomic write protocol means it cannot be a torn write).
pub fn read(path: &Path) -> Result<Option<(u64, Vec<u8>)>> {
    let mut f = match File::open(path) {
        Ok(f) => f,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(io_err("open", e)),
    };
    let mut bytes = Vec::new();
    f.read_to_end(&mut bytes).map_err(|e| io_err("read", e))?;
    if bytes.len() < HEADER || &bytes[..8] != SNAPSHOT_MAGIC {
        return Err(CrowdError::Io(
            "snapshot: bad header (not a CrowdDB snapshot)".into(),
        ));
    }
    let last_lsn = u64::from_le_bytes(bytes[8..16].try_into().unwrap());
    let plen = u64::from_le_bytes(bytes[16..24].try_into().unwrap()) as usize;
    let crc = u32::from_le_bytes(bytes[24..28].try_into().unwrap());
    let payload = &bytes[HEADER..];
    if payload.len() != plen {
        return Err(CrowdError::Io(format!(
            "snapshot: payload is {} bytes, header says {plen}",
            payload.len()
        )));
    }
    if crc32(payload) != crc {
        return Err(CrowdError::Io("snapshot: payload checksum mismatch".into()));
    }
    Ok(Some((last_lsn, payload.to_vec())))
}

/// fsync the directory containing `path`, making a just-completed rename
/// durable. Best-effort on platforms where directories can't be opened.
fn sync_dir(path: &Path) -> Result<()> {
    let dir = path.parent().unwrap_or_else(|| Path::new("."));
    match File::open(dir) {
        Ok(d) => d.sync_all().map_err(|e| io_err("sync dir", e)),
        Err(_) => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::TestDir;

    #[test]
    fn missing_snapshot_is_none() {
        let dir = TestDir::new("snap-missing");
        assert!(read(&dir.path().join("snapshot.bin")).unwrap().is_none());
    }

    #[test]
    fn write_read_round_trip() {
        let dir = TestDir::new("snap-roundtrip");
        let path = dir.path().join("snapshot.bin");
        write(&path, 42, b"state bytes").unwrap();
        let (lsn, payload) = read(&path).unwrap().unwrap();
        assert_eq!(lsn, 42);
        assert_eq!(payload, b"state bytes");
        // Overwrite is atomic-replace, not append.
        write(&path, 99, b"newer").unwrap();
        let (lsn, payload) = read(&path).unwrap().unwrap();
        assert_eq!(lsn, 99);
        assert_eq!(payload, b"newer");
        // No tmp file left behind.
        assert!(!path.with_extension("tmp").exists());
    }

    #[test]
    fn corruption_is_detected() {
        let dir = TestDir::new("snap-corrupt");
        let path = dir.path().join("snapshot.bin");
        write(&path, 7, b"precious crowd answers").unwrap();
        let image = std::fs::read(&path).unwrap();
        // Every flipped byte, every truncation and an extension: a typed
        // `io` error. The one exception is the LSN stamp (bytes 8..16),
        // which the format leaves outside the checksum — a flip there
        // reads back as a different LSN over the intact payload.
        for (what, bad) in crowddb_common::codec::corruptions(&image) {
            std::fs::write(&path, &bad).unwrap();
            match read(&path) {
                Err(e) => assert_eq!(e.category(), "io", "{what}"),
                Ok(got) => {
                    let (lsn, payload) = got.expect("the file exists");
                    assert!(what.starts_with("byte ") && lsn != 7, "{what} accepted");
                    assert_eq!(bad[..8], image[..8], "{what}");
                    assert_eq!(bad[16..], image[16..], "{what}");
                    assert_eq!(payload, b"precious crowd answers");
                }
            }
        }
        // Garbage header.
        std::fs::write(&path, b"not a snapshot at all").unwrap();
        assert!(read(&path).is_err());
    }
}
