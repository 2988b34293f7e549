//! Group commit: one [`DurableStore`] shared by concurrent sessions.
//!
//! Appends serialize on the store mutex; durability is a separate,
//! piggybacked step. When several sessions reach their commit point at
//! once, the first becomes the *leader* and issues one fsync covering
//! every record appended so far; the rest observe that their records
//! fall inside the synced prefix and return without touching the disk.
//! Under contention this collapses N fsyncs into one — the classic
//! group-commit win — while a solo session pays exactly one fsync, the
//! same as the unshared store.

use std::sync::{Condvar, PoisonError};

use crowddb_common::sync::Mutex;
use crowddb_common::Result;
use crowddb_storage::LogRecord;

use crate::store::DurableStore;

/// Sync-state shared between committing sessions: the highest LSN known
/// durable and whether a leader is currently inside `fsync`.
#[derive(Debug, Default)]
struct GroupState {
    synced_lsn: u64,
    leader_busy: bool,
}

/// A [`DurableStore`] behind a mutex with leader/follower fsync
/// piggybacking. See the module docs for the protocol.
#[derive(Debug)]
pub struct GroupCommitStore {
    store: Mutex<DurableStore>,
    state: Mutex<GroupState>,
    cv: Condvar,
}

impl GroupCommitStore {
    /// Wrap an opened store for shared use.
    pub fn new(store: DurableStore) -> GroupCommitStore {
        GroupCommitStore {
            store: Mutex::new(store),
            state: Mutex::new(GroupState::default()),
            cv: Condvar::new(),
        }
    }

    /// Append one record under the store lock. The record is in the log
    /// but not necessarily durable until a later [`sync`](Self::sync)
    /// (unless the store's own [`FsyncPolicy`](crate::FsyncPolicy)
    /// already syncs per append).
    pub fn append(&self, rec: &LogRecord) -> Result<u64> {
        self.store.lock().append(rec)
    }

    /// Run `f` with exclusive access to the underlying store — for
    /// checkpoints, recovery bookkeeping, and path queries.
    pub fn with_store<R>(&self, f: impl FnOnce(&mut DurableStore) -> R) -> R {
        f(&mut self.store.lock())
    }

    /// Highest LSN known to be on stable storage via this wrapper.
    pub fn synced_lsn(&self) -> u64 {
        self.state.lock().synced_lsn
    }

    /// Note that everything up to `lsn` is already durable (a checkpoint
    /// fsyncs the log before snapshotting), so later `sync` calls for
    /// that prefix are free.
    pub fn note_synced(&self, lsn: u64) {
        let mut st = self.state.lock();
        st.synced_lsn = st.synced_lsn.max(lsn);
        self.cv.notify_all();
    }

    /// Group commit: block until every record appended before this call
    /// is durable. At most one thread is inside `fsync` at a time;
    /// concurrent callers whose records the leader's fsync covers return
    /// without issuing their own.
    pub fn sync(&self) -> Result<()> {
        let target = self.store.lock().last_lsn();
        let mut st = self.state.lock();
        loop {
            if st.synced_lsn >= target {
                return Ok(());
            }
            if st.leader_busy {
                st = self.cv.wait(st).unwrap_or_else(PoisonError::into_inner);
                continue;
            }
            st.leader_busy = true;
            drop(st);
            // Leader: one fsync covers every record in the log right now,
            // including followers' records appended after our own.
            let outcome = {
                let mut store = self.store.lock();
                let covered = store.last_lsn();
                store.sync().map(|()| covered)
            };
            st = self.state.lock();
            st.leader_busy = false;
            match outcome {
                Ok(covered) => {
                    st.synced_lsn = st.synced_lsn.max(covered);
                    self.cv.notify_all();
                }
                Err(e) => {
                    self.cv.notify_all();
                    return Err(e);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use crowddb_obs::Obs;

    use super::*;
    use crate::log::FsyncPolicy;
    use crate::testutil::TestDir;

    fn open_group(dir: &TestDir, obs: &Arc<Obs>) -> GroupCommitStore {
        let (mut store, _) = DurableStore::open(dir.path(), FsyncPolicy::Never).unwrap();
        store.set_obs(Arc::clone(obs));
        GroupCommitStore::new(store)
    }

    fn ddl(i: usize) -> LogRecord {
        LogRecord::Ddl {
            sql: format!("CREATE TABLE t{i} (id INTEGER PRIMARY KEY)"),
        }
    }

    #[test]
    fn sync_is_idempotent_without_new_records() {
        let dir = TestDir::new("group-idem");
        let obs = Arc::new(Obs::new());
        let group = open_group(&dir, &obs);
        group.append(&ddl(0)).unwrap();
        group.sync().unwrap();
        let fsyncs_after_first = obs.snapshot().counter("crowddb_wal_fsyncs_total");
        // No new records: the synced prefix already covers the target,
        // so this must not reach the disk again.
        group.sync().unwrap();
        group.sync().unwrap();
        assert_eq!(
            obs.snapshot().counter("crowddb_wal_fsyncs_total"),
            fsyncs_after_first
        );
        assert_eq!(group.synced_lsn(), group.with_store(|s| s.last_lsn()));
    }

    #[test]
    fn concurrent_appends_all_survive_reopen() {
        let dir = TestDir::new("group-concurrent");
        let obs = Arc::new(Obs::new());
        let group = open_group(&dir, &obs);
        let threads = 8usize;
        let per_thread = 25usize;
        std::thread::scope(|scope| {
            for t in 0..threads {
                let group = &group;
                scope.spawn(move || {
                    for i in 0..per_thread {
                        group.append(&ddl(t * 1000 + i)).unwrap();
                        if i % 5 == 0 {
                            group.sync().unwrap();
                        }
                    }
                });
            }
        });
        group.sync().unwrap();
        let total = group.with_store(|s| s.last_lsn());
        assert_eq!(total, (threads * per_thread) as u64);
        drop(group);

        let (store, recovered) = DurableStore::open(dir.path(), FsyncPolicy::Never).unwrap();
        assert_eq!(recovered.records.len(), threads * per_thread);
        assert_eq!(store.last_lsn(), (threads * per_thread) as u64);
    }

    #[test]
    fn note_synced_advances_watermark() {
        let dir = TestDir::new("group-note");
        let obs = Arc::new(Obs::new());
        let group = open_group(&dir, &obs);
        group.append(&ddl(0)).unwrap();
        assert_eq!(group.synced_lsn(), 0);
        group.note_synced(1);
        assert_eq!(group.synced_lsn(), 1);
        // A stale note never moves the watermark backwards.
        group.note_synced(0);
        assert_eq!(group.synced_lsn(), 1);
        let fsyncs = obs.snapshot().counter("crowddb_wal_fsyncs_total");
        group.sync().unwrap();
        assert_eq!(obs.snapshot().counter("crowddb_wal_fsyncs_total"), fsyncs);
    }
}
