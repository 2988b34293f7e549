//! # crowddb-wal
//!
//! The CrowdDB durability subsystem: write-ahead log, checkpoint
//! snapshots, and crash recovery.
//!
//! CrowdDB's economic argument (paper §3) is that data sourced from the
//! crowd is *stored back into the database* — bought once, reused
//! forever. An in-memory engine breaks that promise at the first restart:
//! every answer real workers were paid to produce would have to be bought
//! again. "Getting It All from the Crowd" quantifies how slow and
//! expensive crowd acquisition is, which makes re-acquisition-on-crash
//! the worst failure mode this engine could have. This crate closes it:
//!
//! * [`Wal`] — an append-only log of length+CRC-framed [`LogRecord`]s
//!   (DDL, logical DML, crowd-answer write-backs, crowd-table tuple
//!   insertions, comparison-cache verdicts), with a configurable
//!   [`FsyncPolicy`]. A torn final record is detected and trimmed on
//!   open.
//! * [`snapshot`] — atomic (write-tmp, fsync, rename, fsync-dir)
//!   checkpoint images stamped with the LSN they cover.
//! * [`DurableStore`] — one directory combining both, with the recovery
//!   protocol: restore snapshot, replay only the log tail beyond it.
//!
//! The engine layers on top: `crowddb-core`'s `CrowdDB::open` feeds
//! recovered records through `Database::apply` (storage-level records)
//! and its own replay path (logical DML, cache verdicts), and the task
//! manager logs crowd answers as each round completes — so a crash mid-
//! query loses at most the in-flight round, never paid-for answers.

#![forbid(unsafe_code)]

pub mod group;
pub mod log;
pub mod snapshot;
pub mod store;
pub mod testutil;

pub use crowddb_storage::LogRecord;
pub use group::GroupCommitStore;
pub use log::{scan_frames, FsyncPolicy, Wal, WAL_MAGIC};
pub use store::{DurableStore, Recovered, SNAPSHOT_FILE, WAL_FILE};
