//! The pager: fixed-size page allocation, reads and writes through the
//! buffer pool, and the dirty-page checkpoint journal.
//!
//! Two backends share one API:
//!
//! * **Mem** — pages live in a `Vec`; writes are write-through (the
//!   backing store is updated immediately, the pool caches a clean copy),
//!   so a bounded pool only ever drops re-readable pages.
//! * **File** — pages live in `pages.db`; writes are write-back
//!   (*no-steal*): dirty pages stay resident until a checkpoint flushes
//!   them. A checkpoint splits its dirty pages at the *committed mark*,
//!   the page count the last committed metadata recorded. A page at or
//!   above the mark is *fresh*: no committed state can reach it, so it is
//!   written straight to `pages.db`, fsynced before the caller commits.
//!   A page below the mark is a double-write: first appended to
//!   `pages.journal` (CRC-framed, fsynced), then — after the caller
//!   commits its metadata snapshot — applied to `pages.db` and the
//!   journal is truncated. Crash recovery replays or discards the journal
//!   by comparing its epoch against the committed metadata epoch, so
//!   `pages.db` below the mark is always restored to exactly the bytes of
//!   the last committed checkpoint.
//!
//! Determinism: page allocation order is a function of the logical
//! operation sequence (free ids are reused smallest-first), and pool
//! state never influences results — only the `PagerStats` counters.

use std::collections::BTreeSet;
use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use crowddb_common::codec;
use crowddb_common::sync::Mutex;
use crowddb_common::{CrowdError, Result};

use crate::page::{self, Page, PageId, HEADER_PAGE};
use crate::pool::{BufferPool, PagerStats};

/// Name of the page file inside a database directory.
pub const PAGES_FILE: &str = "pages.db";
/// Name of the checkpoint journal inside a database directory.
pub const JOURNAL_FILE: &str = "pages.journal";

const JOURNAL_MAGIC: &[u8; 8] = b"CDBJRNL1";

/// Pager construction knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PagerConfig {
    /// Page size in bytes (power of two not required; minimum
    /// [`page::MIN_PAGE_SIZE`]).
    pub page_size: usize,
    /// Buffer-pool budget in pages; `0` = unbounded.
    pub pool_pages: usize,
}

impl Default for PagerConfig {
    /// Defaults honor the `CROWDDB_PAGE_SIZE` / `CROWDDB_POOL_PAGES`
    /// environment variables so a whole test run can be squeezed through
    /// a tiny pool (CI small-pool stress) without code changes.
    fn default() -> PagerConfig {
        PagerConfig {
            page_size: env_usize("CROWDDB_PAGE_SIZE", page::DEFAULT_PAGE_SIZE),
            pool_pages: env_usize("CROWDDB_POOL_PAGES", 0),
        }
    }
}

fn env_usize(var: &str, default: usize) -> usize {
    std::env::var(var)
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .unwrap_or(default)
}

#[derive(Debug)]
enum Backend {
    /// Authoritative in-memory page store (write-through).
    Mem(Vec<Arc<Page>>),
    /// `pages.db` in a database directory (write-back, no-steal). The
    /// file is shared so a checkpoint can fsync it outside the pager lock.
    File {
        db: Arc<File>,
        journal_path: PathBuf,
    },
}

#[derive(Debug)]
struct PagerState {
    pool: BufferPool,
    backend: Backend,
    free: BTreeSet<PageId>,
    /// Pages ever allocated, including the header page.
    page_count: u64,
    /// The committed mark: `page_count` as the last committed metadata
    /// recorded it. Ids at or above it are unreachable from committed
    /// state, so a checkpoint writes them without journaling them.
    committed_pages: u64,
    /// Whether `pages.journal` may hold entries: a checkpoint wrote it
    /// and no `complete_checkpoint` has truncated it since.
    journal_live: bool,
    /// Epoch of the most recent `begin_checkpoint` (committed or not).
    epoch: u64,
}

/// A page store: allocation, pooled reads, writes, and checkpoints.
#[derive(Debug)]
pub struct Pager {
    page_size: usize,
    state: Mutex<PagerState>,
}

/// An in-flight checkpoint: fresh pages are in `pages.db` and the
/// journal is durable, the page-file apply is pending. Produced by
/// [`Pager::begin_checkpoint`]; the caller commits its metadata (which
/// records `epoch` and the page count) between the two halves.
#[derive(Debug)]
pub struct CheckpointPrep {
    /// The epoch written into the journal header. The caller must record
    /// it in its committed metadata so recovery can classify the journal.
    pub epoch: u64,
    /// The page count when the checkpoint began: the committed mark once
    /// the caller's metadata, which records it, commits.
    page_count: u64,
    /// Dirty pages below the committed mark, in the journal; empty when
    /// no journal was written.
    journaled: Vec<(PageId, Arc<Page>)>,
    /// Dirty pages at or above the mark, already written and fsynced.
    fresh: usize,
}

impl CheckpointPrep {
    /// Number of dirty pages this checkpoint flushes, fresh and
    /// journaled.
    pub fn pages_written(&self) -> u64 {
        (self.journaled.len() + self.fresh) as u64
    }
}

impl Pager {
    /// An in-memory pager (write-through backend).
    pub fn new_mem(cfg: PagerConfig) -> Result<Pager> {
        page::check_page_size(cfg.page_size)?;
        let header = Arc::new(Page::new(page::header_page(cfg.page_size)));
        Ok(Pager {
            page_size: cfg.page_size,
            state: Mutex::new(PagerState {
                pool: BufferPool::new(cfg.pool_pages),
                backend: Backend::Mem(vec![header]),
                free: BTreeSet::new(),
                page_count: 1,
                committed_pages: 1,
                journal_live: false,
                epoch: 0,
            }),
        })
    }

    /// Open (or create) a file-backed pager in `dir`, recovering the
    /// checkpoint journal against `committed_epoch` — the epoch recorded
    /// in the caller's last committed metadata snapshot (`0` for a fresh
    /// database).
    ///
    /// Until [`Pager::set_alloc_state`] says otherwise, every page the
    /// file holds counts as committed: the committed mark is its length.
    ///
    /// Journal classification:
    /// * empty/absent — nothing to do;
    /// * valid, epoch == committed — crash mid-apply: redo idempotently;
    /// * valid or torn, epoch > committed — crash before the metadata
    ///   commit: discard (the page file still holds the previous
    ///   checkpoint's bytes, and the write-ahead log was not reset);
    /// * torn at epoch == committed, or any journal older than committed —
    ///   corruption: fail with a typed error rather than serve bad pages.
    pub fn open_file(dir: &Path, cfg: PagerConfig, committed_epoch: u64) -> Result<Pager> {
        page::check_page_size(cfg.page_size)?;
        std::fs::create_dir_all(dir)
            .map_err(|e| CrowdError::Io(format!("pager: create dir {}: {e}", dir.display())))?;
        let db_path = dir.join(PAGES_FILE);
        let journal_path = dir.join(JOURNAL_FILE);
        let fresh = !db_path.exists();
        let db = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&db_path)
            .map_err(|e| CrowdError::Io(format!("pager: open {}: {e}", db_path.display())))?;
        let page_size = cfg.page_size;
        if fresh {
            write_at(&db, 0, &page::header_page(page_size))?;
            sync(&db)?;
            sync_dir(dir);
        } else {
            let mut header = vec![0u8; page_size];
            read_at(&db, 0, &mut header)?;
            let recorded = page::parse_header_page(&header)?;
            if recorded != page_size {
                return Err(CrowdError::Io(format!(
                    "pager: {} has page size {recorded}, configured {page_size}",
                    db_path.display()
                )));
            }
        }
        recover_journal(&db, &journal_path, page_size, committed_epoch)?;
        let len = db
            .metadata()
            .map_err(|e| CrowdError::Io(format!("pager: stat pages.db: {e}")))?
            .len();
        let page_count = (len / page_size as u64).max(1);
        Ok(Pager {
            page_size,
            state: Mutex::new(PagerState {
                pool: BufferPool::new(cfg.pool_pages),
                backend: Backend::File {
                    db: Arc::new(db),
                    journal_path,
                },
                free: BTreeSet::new(),
                page_count,
                committed_pages: page_count,
                journal_live: false,
                epoch: committed_epoch,
            }),
        })
    }

    /// The page size in bytes.
    pub fn page_size(&self) -> usize {
        self.page_size
    }

    /// Whether pages persist to a file (durable sessions).
    pub fn is_file_backed(&self) -> bool {
        matches!(self.state.lock().backend, Backend::File { .. })
    }

    /// Snapshot of the cumulative counters.
    pub fn stats(&self) -> PagerStats {
        self.state.lock().pool.stats
    }

    /// Number of dirty (unflushed) pages currently resident.
    pub fn dirty_count(&self) -> usize {
        self.state.lock().pool.dirty_count()
    }

    /// Epoch of the most recent checkpoint begun on this pager.
    pub fn epoch(&self) -> u64 {
        self.state.lock().epoch
    }

    /// Allocation state (free page ids, total page count) for metadata
    /// snapshots.
    pub fn alloc_state(&self) -> (Vec<PageId>, u64) {
        let st = self.state.lock();
        (st.free.iter().copied().collect(), st.page_count)
    }

    /// Pages ever allocated, the header page and freed pages included:
    /// no chain of distinct pages is longer.
    pub fn page_count(&self) -> u64 {
        self.state.lock().page_count
    }

    /// Restore allocation state from a metadata snapshot; its page count
    /// is the committed mark.
    pub fn set_alloc_state(&self, free: Vec<PageId>, page_count: u64, epoch: u64) {
        let mut st = self.state.lock();
        st.free = free.into_iter().collect();
        st.page_count = page_count.max(1);
        st.committed_pages = st.page_count;
        st.epoch = epoch;
    }

    /// Allocate a page id (smallest freed id first, else extend).
    pub fn allocate(&self) -> PageId {
        let mut st = self.state.lock();
        if let Some(id) = st.free.iter().next().copied() {
            st.free.remove(&id);
            return id;
        }
        let id = st.page_count;
        st.page_count += 1;
        id
    }

    /// Return a page to the free list and drop it from the pool.
    pub fn free_page(&self, id: PageId) {
        debug_assert_ne!(id, HEADER_PAGE, "header page is never freed");
        let mut st = self.state.lock();
        st.pool.remove(id);
        st.free.insert(id);
    }

    /// Read a page through the pool. A file read goes into an image an
    /// eviction left unshared ([`BufferPool::spare`]) when there is one,
    /// else into a new one; a failed read installs nothing.
    pub fn read(&self, id: PageId) -> Result<Arc<Page>> {
        let mut st = self.state.lock();
        let st = &mut *st;
        if let Some(data) = st.pool.get(id) {
            return Ok(data);
        }
        let data = match &st.backend {
            Backend::Mem(pages) => pages.get(id as usize).cloned().ok_or_else(|| {
                CrowdError::Internal(format!("pager: read of unallocated page {id}"))
            })?,
            Backend::File { db, .. } => {
                let mut image = st
                    .pool
                    .spare()
                    .unwrap_or_else(|| Arc::new(Page::zeroed(self.page_size)));
                let page = Arc::get_mut(&mut image).ok_or_else(|| {
                    CrowdError::Internal(format!("pager: image for page {id} is shared"))
                })?;
                page.refill(|bytes| read_at(db, id * self.page_size as u64, bytes))?;
                image
            }
        };
        st.pool.stats.pages_read += 1;
        st.pool.install_clean(id, Arc::clone(&data));
        Ok(data)
    }

    /// Write a page (must be exactly `page_size` bytes). Mem backends
    /// write through; file backends mark the page dirty in the pool until
    /// the next checkpoint.
    pub fn write(&self, id: PageId, data: Vec<u8>) -> Result<()> {
        if data.len() != self.page_size {
            return Err(CrowdError::Internal(format!(
                "pager: page {id} write of {} bytes, page size {}",
                data.len(),
                self.page_size
            )));
        }
        let data = Arc::new(Page::new(data));
        let mut st = self.state.lock();
        if id >= st.page_count {
            return Err(CrowdError::Internal(format!(
                "pager: write to unallocated page {id}"
            )));
        }
        st.pool.stats.images_written += 1;
        match &mut st.backend {
            Backend::Mem(pages) => {
                if pages.len() <= id as usize {
                    pages.resize(
                        id as usize + 1,
                        Arc::new(Page::new(vec![0u8; self.page_size])),
                    );
                }
                pages[id as usize] = Arc::clone(&data);
                st.pool.put(id, data, false);
            }
            Backend::File { .. } => {
                st.pool.put(id, data, true);
            }
        }
        Ok(())
    }

    /// First half of a checkpoint (file backends only). Dirty pages at or
    /// above the committed mark are written straight to `pages.db` under
    /// the lock and fsynced outside it, so a pool miss never waits on the
    /// disk; the rest go to the journal, which is fsynced too. With no page
    /// below the mark, no journal is written; one an uncompleted
    /// checkpoint left is truncated, so recovery never meets a journal
    /// older than the committed epoch. Dirty flags are *not*
    /// cleared — the caller must commit its metadata (recording the
    /// returned epoch and page count) and then call
    /// [`Pager::complete_checkpoint`].
    pub fn begin_checkpoint(&self) -> Result<CheckpointPrep> {
        let mut st = self.state.lock();
        let Backend::File { db, journal_path } = &st.backend else {
            return Err(CrowdError::Internal(
                "pager: checkpoint on a memory-backed pager".into(),
            ));
        };
        let (db, journal_path) = (Arc::clone(db), journal_path.clone());
        st.epoch += 1;
        let (epoch, page_count, mark) = (st.epoch, st.page_count, st.committed_pages);
        let (fresh, journaled): (Vec<_>, Vec<_>) = st
            .pool
            .dirty_pages()
            .into_iter()
            .partition(|(id, _)| *id >= mark);
        for (id, data) in &fresh {
            write_at(&db, *id * self.page_size as u64, data)?;
        }
        let journal_was_live = st.journal_live;
        st.journal_live |= !journaled.is_empty();
        drop(st);

        if !fresh.is_empty() {
            sync(&db)?;
        }
        if journaled.is_empty() {
            if journal_was_live {
                truncate_journal(&journal_path)?;
            }
        } else {
            let mut journal = OpenOptions::new()
                .write(true)
                .create(true)
                .truncate(true)
                .open(&journal_path)
                .map_err(|e| CrowdError::Io(format!("pager: open journal: {e}")))?;
            let mut buf = Vec::with_capacity(24 + journaled.len() * (12 + self.page_size));
            buf.extend_from_slice(JOURNAL_MAGIC);
            buf.extend_from_slice(&epoch.to_le_bytes());
            buf.extend_from_slice(&(journaled.len() as u64).to_le_bytes());
            for (id, data) in &journaled {
                buf.extend_from_slice(&id.to_le_bytes());
                buf.extend_from_slice(&journal_crc(*id, data).to_le_bytes());
                buf.extend_from_slice(data);
            }
            journal
                .write_all(&buf)
                .map_err(|e| CrowdError::Io(format!("pager: write journal: {e}")))?;
            sync(&journal)?;
        }
        Ok(CheckpointPrep {
            epoch,
            page_count,
            journaled,
            fresh: fresh.len(),
        })
    }

    /// Second half of a checkpoint: apply the journaled pages to
    /// `pages.db` (under the lock), fsync it (outside it) and truncate
    /// the journal — when one was written — then mark the flushed pages
    /// clean (evictable) and move the committed mark to the page count
    /// the checkpoint recorded.
    pub fn complete_checkpoint(&self, prep: &CheckpointPrep) -> Result<()> {
        if !prep.journaled.is_empty() {
            let st = self.state.lock();
            let Backend::File { db, journal_path } = &st.backend else {
                return Err(CrowdError::Internal(
                    "pager: checkpoint on a memory-backed pager".into(),
                ));
            };
            let (db, journal_path) = (Arc::clone(db), journal_path.clone());
            for (id, data) in &prep.journaled {
                write_at(&db, *id * self.page_size as u64, data)?;
            }
            drop(st);
            sync(&db)?;
            truncate_journal(&journal_path)?;
        }
        let mut st = self.state.lock();
        st.pool.stats.pages_written += prep.pages_written();
        st.pool.mark_all_clean();
        st.committed_pages = prep.page_count;
        st.journal_live = false;
        Ok(())
    }
}

/// The journal's per-entry checksum: CRC-32 over the page id (little
/// endian) followed by the page contents.
fn journal_crc(id: PageId, data: &[u8]) -> u32 {
    codec::crc32_update(codec::crc32_update(0, &id.to_le_bytes()), data)
}

/// Outcome of parsing a checkpoint journal.
#[derive(Debug)]
enum JournalState {
    Empty,
    Valid {
        epoch: u64,
        pages: Vec<(PageId, Vec<u8>)>,
    },
    /// Torn or corrupt; `epoch` is present when the header was readable.
    Damaged {
        epoch: Option<u64>,
    },
}

fn parse_journal(path: &Path, page_size: usize) -> Result<JournalState> {
    let mut file = match File::open(path) {
        Ok(f) => f,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(JournalState::Empty),
        Err(e) => return Err(CrowdError::Io(format!("pager: open journal: {e}"))),
    };
    let mut bytes = Vec::new();
    file.read_to_end(&mut bytes)
        .map_err(|e| CrowdError::Io(format!("pager: read journal: {e}")))?;
    if bytes.is_empty() {
        return Ok(JournalState::Empty);
    }
    if bytes.len() < 24 || &bytes[..8] != JOURNAL_MAGIC {
        return Ok(JournalState::Damaged { epoch: None });
    }
    let epoch = u64::from_le_bytes(bytes[8..16].try_into().unwrap());
    let count = u64::from_le_bytes(bytes[16..24].try_into().unwrap());
    let entry_len = 12 + page_size;
    let mut pages = Vec::new();
    let mut off = 24usize;
    for _ in 0..count {
        if bytes.len() < off + entry_len {
            return Ok(JournalState::Damaged { epoch: Some(epoch) });
        }
        let id = u64::from_le_bytes(bytes[off..off + 8].try_into().unwrap());
        let crc = u32::from_le_bytes(bytes[off + 8..off + 12].try_into().unwrap());
        let data = &bytes[off + 12..off + entry_len];
        if journal_crc(id, data) != crc {
            return Ok(JournalState::Damaged { epoch: Some(epoch) });
        }
        pages.push((id, data.to_vec()));
        off += entry_len;
    }
    Ok(JournalState::Valid { epoch, pages })
}

fn recover_journal(
    db: &File,
    journal_path: &Path,
    page_size: usize,
    committed_epoch: u64,
) -> Result<()> {
    match parse_journal(journal_path, page_size)? {
        JournalState::Empty => Ok(()),
        JournalState::Valid { epoch, pages } if epoch == committed_epoch => {
            // Crash between the metadata commit and the page-file apply:
            // redo from full page images (idempotent).
            for (id, data) in &pages {
                write_at(db, *id * page_size as u64, data)?;
            }
            sync(db)?;
            truncate_journal(journal_path)
        }
        JournalState::Valid { epoch, .. } | JournalState::Damaged { epoch: Some(epoch) }
            if epoch > committed_epoch =>
        {
            // Crash before the metadata commit: the checkpoint never
            // happened. pages.db still holds the previous checkpoint.
            truncate_journal(journal_path)
        }
        JournalState::Damaged { epoch: None } => truncate_journal(journal_path),
        JournalState::Valid { epoch, .. } => Err(CrowdError::Io(format!(
            "pager: stale checkpoint journal (epoch {epoch}, committed {committed_epoch})"
        ))),
        JournalState::Damaged { epoch: Some(epoch) } => Err(CrowdError::Io(format!(
            "pager: checkpoint journal for committed epoch {epoch} is corrupt; \
             pages.db cannot be reconstructed"
        ))),
    }
}

fn truncate_journal(path: &Path) -> Result<()> {
    let f = OpenOptions::new()
        .write(true)
        .create(true)
        .truncate(true)
        .open(path)
        .map_err(|e| CrowdError::Io(format!("pager: truncate journal: {e}")))?;
    sync(&f)
}

fn sync(f: &File) -> Result<()> {
    f.sync_all()
        .map_err(|e| CrowdError::Io(format!("pager: fsync: {e}")))
}

fn sync_dir(dir: &Path) {
    // Best-effort durability of file creation; failure is not fatal.
    if let Ok(d) = File::open(dir) {
        let _ = d.sync_all();
    }
}

#[cfg(unix)]
fn read_at(f: &File, offset: u64, buf: &mut [u8]) -> Result<()> {
    use std::os::unix::fs::FileExt;
    f.read_exact_at(buf, offset)
        .map_err(|e| CrowdError::Io(format!("pager: read at {offset}: {e}")))
}

#[cfg(unix)]
fn write_at(f: &File, offset: u64, buf: &[u8]) -> Result<()> {
    use std::os::unix::fs::FileExt;
    f.write_all_at(buf, offset)
        .map_err(|e| CrowdError::Io(format!("pager: write at {offset}: {e}")))
}

#[cfg(not(unix))]
compile_error!("crowddb-storage's pager requires a unix platform (positional file I/O)");

#[cfg(test)]
mod tests {
    use super::*;
    use crate::btree::{BTree, KeyCmp};

    fn cfg(page_size: usize, pool: usize) -> PagerConfig {
        PagerConfig {
            page_size,
            pool_pages: pool,
        }
    }

    fn fill(p: &Pager, id: PageId, byte: u8) {
        let mut data = vec![byte; p.page_size()];
        data[0] = crate::page::kind::LEAF;
        p.write(id, data).unwrap();
    }

    #[test]
    fn mem_round_trip_and_alloc_order() {
        let p = Pager::new_mem(cfg(256, 0)).unwrap();
        let a = p.allocate();
        let b = p.allocate();
        assert_eq!((a, b), (1, 2), "page 0 is the header");
        fill(&p, a, 7);
        assert_eq!(p.read(a).unwrap()[5], 7);
        p.free_page(a);
        assert_eq!(p.allocate(), a, "smallest freed id is reused");
    }

    #[test]
    fn mem_bounded_pool_rereads_evicted_pages() {
        let p = Pager::new_mem(cfg(256, 2)).unwrap();
        let ids: Vec<PageId> = (0..8).map(|_| p.allocate()).collect();
        for (i, id) in ids.iter().enumerate() {
            fill(&p, *id, i as u8 + 1);
        }
        for (i, id) in ids.iter().enumerate() {
            assert_eq!(p.read(*id).unwrap()[5], i as u8 + 1);
        }
        let stats = p.stats();
        assert!(stats.evictions > 0, "a 2-page pool must evict");
        assert!(stats.pages_read > 0);
    }

    #[test]
    fn file_checkpoint_flushes_only_dirty_pages() {
        let dir = tempdir();
        let p = Pager::open_file(&dir, cfg(256, 0), 0).unwrap();
        let a = p.allocate();
        let b = p.allocate();
        fill(&p, a, 1);
        fill(&p, b, 2);
        assert_eq!(p.dirty_count(), 2);
        let prep = p.begin_checkpoint().unwrap();
        assert_eq!(prep.pages_written(), 2);
        p.complete_checkpoint(&prep).unwrap();
        assert_eq!(p.dirty_count(), 0);
        // One more small write: the next checkpoint flushes just it.
        fill(&p, a, 3);
        let prep = p.begin_checkpoint().unwrap();
        assert_eq!(prep.pages_written(), 1);
        p.complete_checkpoint(&prep).unwrap();
        assert_eq!(p.stats().pages_written, 3);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_checkpoint_journals_only_pages_below_the_committed_mark() {
        let dir = tempdir();
        let p = Pager::open_file(&dir, cfg(256, 0), 0).unwrap();
        let (a, b) = (p.allocate(), p.allocate());
        fill(&p, a, 1);
        fill(&p, b, 2);
        // A fresh file's mark is 1: every page is fresh, no journal.
        let prep = p.begin_checkpoint().unwrap();
        assert_eq!(
            (prep.journaled.len(), prep.fresh, prep.page_count),
            (0, 2, 3)
        );
        assert!(!dir.join(JOURNAL_FILE).exists(), "no journal is opened");
        p.complete_checkpoint(&prep).unwrap();
        // The mark is now 3: a rewrite of `a` is journaled, a new page and
        // a page freed and reallocated at or above the mark are not.
        fill(&p, a, 3);
        let c = p.allocate();
        fill(&p, c, 4);
        p.free_page(b);
        assert_eq!(p.allocate(), b);
        fill(&p, b, 5);
        let prep = p.begin_checkpoint().unwrap();
        let journaled: Vec<PageId> = prep.journaled.iter().map(|(id, _)| *id).collect();
        assert_eq!((journaled, prep.fresh), (vec![a, b], 1));
        assert_eq!(prep.pages_written(), 3);
        p.complete_checkpoint(&prep).unwrap();
        assert_eq!(std::fs::metadata(dir.join(JOURNAL_FILE)).unwrap().len(), 0);
        assert_eq!(p.stats().pages_written, 5);
        let reopened = Pager::open_file(&dir, cfg(256, 0), 2).unwrap();
        for (id, byte) in [(a, 3), (b, 5), (c, 4)] {
            assert_eq!(reopened.read(id).unwrap()[5], byte, "page {id}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_checkpoint_without_a_journal_truncates_a_stale_one() {
        let dir = tempdir();
        let p = Pager::open_file(&dir, cfg(256, 0), 0).unwrap();
        let a = p.allocate();
        fill(&p, a, 1);
        let prep = p.begin_checkpoint().unwrap();
        p.complete_checkpoint(&prep).unwrap();
        // Epoch 2 journals `a` beside a fresh `b`, then its metadata
        // commit fails: no complete. `a` is freed, so epoch 3 has only
        // the fresh page.
        fill(&p, a, 2);
        let b = p.allocate();
        fill(&p, b, 3);
        assert_eq!(p.begin_checkpoint().unwrap().journaled.len(), 1);
        p.free_page(a);
        let prep = p.begin_checkpoint().unwrap();
        assert_eq!((prep.epoch, prep.journaled.len()), (3, 0));
        // Epoch 3 commits; a crash before or after its complete reopens.
        assert_eq!(std::fs::metadata(dir.join(JOURNAL_FILE)).unwrap().len(), 0);
        let reopened = Pager::open_file(&dir, cfg(256, 0), 3).unwrap();
        assert_eq!(reopened.read(b).unwrap()[5], 3);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn file_reopen_reads_flushed_pages() {
        let dir = tempdir();
        {
            let p = Pager::open_file(&dir, cfg(256, 0), 0).unwrap();
            let a = p.allocate();
            fill(&p, a, 9);
            let prep = p.begin_checkpoint().unwrap();
            p.complete_checkpoint(&prep).unwrap();
            assert_eq!(prep.epoch, 1);
        }
        let p = Pager::open_file(&dir, cfg(256, 0), 1).unwrap();
        p.set_alloc_state(vec![], 2, 1);
        assert_eq!(p.read(1).unwrap()[5], 9);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A pager whose page 1 a completed checkpoint (epoch 1) committed
    /// holding `first`, then rewritten to `second` and journaled by a
    /// second checkpoint (epoch 2) that crashes before its apply. Only a
    /// committed page is journaled: a fresh one goes straight to the file.
    fn crash_after_journaling_page_1(dir: &Path, first: u8, second: u8) {
        let p = Pager::open_file(dir, cfg(256, 0), 0).unwrap();
        let a = p.allocate();
        fill(&p, a, first);
        let prep = p.begin_checkpoint().unwrap();
        p.complete_checkpoint(&prep).unwrap();
        fill(&p, a, second);
        let prep = p.begin_checkpoint().unwrap();
        assert_eq!((prep.epoch, prep.journaled.len()), (2, 1));
    }

    #[test]
    fn journal_discarded_when_crash_precedes_commit() {
        let dir = tempdir();
        // Journal written, metadata never committed (no complete).
        crash_after_journaling_page_1(&dir, 1, 2);
        // Reopen with committed epoch 1: journal (epoch 2) is discarded.
        let p = Pager::open_file(&dir, cfg(256, 0), 1).unwrap();
        assert_eq!(std::fs::metadata(dir.join(JOURNAL_FILE)).unwrap().len(), 0);
        drop(p);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn journal_replayed_when_commit_preceded_crash() {
        let dir = tempdir();
        // Metadata committed (epoch 2) but apply crashed: journal left.
        crash_after_journaling_page_1(&dir, 1, 5);
        let p = Pager::open_file(&dir, cfg(256, 0), 2).unwrap();
        p.set_alloc_state(vec![], 2, 2);
        assert_eq!(p.read(1).unwrap()[5], 5, "journal redo applied");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_journal_for_committed_epoch_fails_typed() {
        let dir = tempdir();
        crash_after_journaling_page_1(&dir, 1, 5);
        // Corrupt one payload byte: epoch still reads as 2.
        let path = dir.join(JOURNAL_FILE);
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        let err = Pager::open_file(&dir, cfg(256, 0), 2).unwrap_err();
        assert_eq!(err.category(), "io");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn wrong_page_size_on_reopen_rejected() {
        let dir = tempdir();
        drop(Pager::open_file(&dir, cfg(256, 0), 0).unwrap());
        let err = Pager::open_file(&dir, cfg(512, 0), 0).unwrap_err();
        assert_eq!(err.category(), "io");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Key/value pairs, in key order.
    type Entries = Vec<(Vec<u8>, Vec<u8>)>;

    /// A B-tree of `n` keys with values of varying length, so its leaves
    /// differ in layout, in a file pager over `dir` with a `pool`-page
    /// pool, checkpointed so every page is clean and evictable.
    fn checkpointed_tree(dir: &Path, pool: usize, n: u64) -> (Pager, BTree, Entries) {
        let p = Pager::open_file(dir, cfg(256, pool), 0).unwrap();
        let mut t = BTree::create(&p, KeyCmp::Bytes).unwrap();
        let entries: Entries = (0..n)
            .map(|i| {
                let value = format!("v{i}-{}", "x".repeat((i * 7 % 23) as usize));
                (i.to_be_bytes().to_vec(), value.into_bytes())
            })
            .collect();
        for (k, v) in &entries {
            t.insert(&p, k, v).unwrap();
        }
        let prep = p.begin_checkpoint().unwrap();
        p.complete_checkpoint(&prep).unwrap();
        (p, t, entries)
    }

    fn get(t: &BTree, p: &Pager, key: &[u8]) -> Option<Vec<u8>> {
        t.get(p, key, |v| Ok(v.to_vec())).unwrap()
    }

    #[test]
    fn a_recycled_image_reads_back_its_own_page() {
        let dir = tempdir();
        let (p, t, entries) = checkpointed_tree(&dir, 2, 400);
        let fresh = Pager::open_file(&dir, cfg(256, 0), 1).unwrap();
        // An image read, dropped, then evicted by two other pages is the
        // one the next miss fills.
        let (a, b, c, d) = (1, 2, 3, 4);
        let image = Arc::as_ptr(&p.read(a).unwrap());
        p.read(b).unwrap();
        p.read(c).unwrap();
        let refilled = p.read(d).unwrap();
        assert_eq!(
            Arc::as_ptr(&refilled),
            image,
            "page {d} went into {a}'s image"
        );
        assert_eq!(&refilled[..], &fresh.read(d).unwrap()[..]);
        // Every descent through recycled images finds what a pager that
        // never evicts finds: the bytes and the layout of its own page.
        for (i, (k, v)) in entries.iter().enumerate().rev().step_by(3) {
            assert_eq!(get(&t, &p, k).as_ref(), Some(v), "key {i}");
            assert_eq!(get(&t, &p, k), get(&t, &fresh, k));
        }
        assert_eq!(get(&t, &p, &9999u64.to_be_bytes()), None);
        assert!(p.stats().evictions > 100);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn an_image_a_cursor_holds_is_never_refilled() {
        let dir = tempdir();
        let (p, t, entries) = checkpointed_tree(&dir, 2, 400);
        let held = p.read(1).unwrap();
        let bytes = held.to_vec();
        let mut cursor = t.cursor_first(&p).unwrap();
        let mut seen = Vec::new();
        while let Some((k, v)) = cursor.next(&p).unwrap() {
            seen.push((k.to_vec(), v.to_vec()));
            // Between two steps, descents evict every page the cursor
            // pins, its leaf included, many times over.
            let probe = &entries[(seen.len() * 37) % entries.len()].0;
            assert!(get(&t, &p, probe).is_some());
        }
        assert_eq!(seen, entries);
        assert_eq!(&held[..], &bytes[..], "a held image keeps its bytes");
        assert_eq!(
            Arc::strong_count(&held),
            1,
            "the pool evicted it, kept no spare"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_failed_read_installs_nothing() {
        let dir = tempdir();
        let (p, t, entries) = checkpointed_tree(&dir, 2, 200);
        for (k, _) in &entries[..40] {
            get(&t, &p, k);
        }
        // Allocated but never written: past the end of pages.db.
        let past = p.allocate();
        let before = p.stats();
        assert_eq!(p.read(past).unwrap_err().category(), "io");
        assert_eq!(p.read(past).unwrap_err().category(), "io", "not a hit");
        let after = p.stats();
        assert_eq!(after.pages_read, before.pages_read);
        assert_eq!(after.pool_misses, before.pool_misses + 2);
        for (k, v) in &entries {
            assert_eq!(get(&t, &p, k).as_ref(), Some(v));
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    fn tempdir() -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "crowddb-pager-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }
}
