//! Continuous queries: the standing-query registry and delta machinery.
//!
//! A `SUBSCRIBE SELECT ...` registers a [`StandingPlan`] with the
//! engine. A committed DML hands the rows it changed to the standing
//! queries watching its table, and a query's operator tree answers with
//! the rows that leave and enter its result (`Operator::delta` in
//! `crowddb-exec`): work proportional to the change, not the table.
//! Where an operator has no rule whose answer is certain to be exact,
//! and for every crowd-related query — a settled crowd answer can change
//! any predicate's verdict, not just rows "near" a write, so those
//! re-evaluate when a round settles — the engine *recomputes and diffs*
//! against the subscription's last known result. Either route yields the
//! same multiset delta, sorted by the shared codec's row encoding, so
//! delta batches are deterministic byte-for-byte across runs, worker
//! counts and routes.
//!
//! Deltas flow through a bounded per-subscription queue. A consumer
//! that falls behind loses its queued batches, receives one typed
//! [`CrowdError::SubscriptionLagged`] on its next poll, and is then
//! resynced with a fresh snapshot batch — bounded memory, no silent
//! gaps.

use std::collections::{BTreeMap, HashMap, VecDeque};

use crowddb_common::codec;
use crowddb_common::{CrowdError, Result, Row};
use crowddb_exec::Maintained;
use crowddb_obs::{Event, Obs};
use crowddb_plan::StandingPlan;

use crate::crowddb::CrowdDB;

/// One incremental update from a standing query.
///
/// `added`/`removed` are multiset deltas (a row appears once per copy)
/// sorted by their canonical codec encoding. A `snapshot` batch replaces
/// the subscriber's accumulated state instead of patching it; the first
/// batch of every subscription and every post-lag resync are snapshots.
#[derive(Debug, Clone, PartialEq)]
pub struct DeltaBatch {
    /// Monotone per-subscription revision number (starts at 1).
    pub revision: u64,
    /// Whether this batch replaces the accumulated state (`added` holds
    /// the full result; `removed` is empty).
    pub snapshot: bool,
    /// Rows entering the result.
    pub added: Vec<Row>,
    /// Rows leaving the result.
    pub removed: Vec<Row>,
}

/// A multiset of rows: canonical codec bytes → copies. The key *is* the
/// row ([`key_row`] decodes it), so each row is held once. Hashed: keys
/// are put in order only where rows leave — a batch's lists, a snapshot,
/// [`SubscriberState::canonical`].
pub(crate) type RowSet = HashMap<Vec<u8>, usize>;

/// Canonical byte encoding of one row ([`crowddb_common::codec`]).
pub fn row_key(row: &Row) -> Vec<u8> {
    let mut buf = Vec::new();
    codec::encode_row(&mut buf, row);
    buf
}

/// The row a [`row_key`] encodes.
fn key_row(key: &[u8]) -> Result<Row> {
    Ok(codec::decode_row(&mut codec::Reader::new(key))?)
}

pub(crate) fn rowset_from_rows(rows: &[Row]) -> RowSet {
    let mut set = RowSet::new();
    for r in rows {
        *set.entry(row_key(r)).or_insert(0) += 1;
    }
    set
}

/// Expand a multiset into rows sorted by canonical encoding: what it
/// adds to nothing.
pub(crate) fn rowset_to_rows(set: &RowSet) -> Result<Vec<Row>> {
    let mut rows = Vec::with_capacity(set.values().sum());
    for (key, copies) in sorted(set) {
        rows.extend(std::iter::repeat_n(key_row(key)?, copies));
    }
    Ok(rows)
}

/// The entries of `set` in key order.
fn sorted(set: &RowSet) -> Vec<(&[u8], usize)> {
    let mut entries: Vec<_> = set.iter().map(|(k, n)| (k.as_slice(), *n)).collect();
    entries.sort_unstable();
    entries
}

/// Multiset difference `new - old` / `old - new`, both sorted by
/// canonical encoding, a row decoded only where its counts differ: the
/// recompute route's diff as two lists.
#[cfg(test)]
pub(crate) fn diff_rowsets(old: &RowSet, new: &RowSet) -> Result<(Vec<Row>, Vec<Row>)> {
    Ok(NetDelta::between(old, new)?.into_lists())
}

/// A change to a result multiset, netted by row and sorted by key: each
/// row that enters (`copies > 0`) or leaves (`copies < 0`) once, beside
/// its encoding. Both routes of a trigger end in one, so everything after
/// — the fold into the last result and the batch — is one tail.
pub(crate) struct NetDelta(Vec<(Vec<u8>, Row, isize)>);

impl NetDelta {
    /// An operator tree's delta: its two lists, each row encoded once and
    /// netted by its encoding. Rows in both cancel (an UPDATE of a column
    /// the query does not show).
    pub(crate) fn of_lists(removed: Vec<Row>, added: Vec<Row>) -> NetDelta {
        let signed = |rows: Vec<Row>, sign| rows.into_iter().map(move |r| (row_key(&r), r, sign));
        let mut net: Vec<_> = signed(removed, -1).chain(signed(added, 1)).collect();
        net.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        net.dedup_by(|next, kept| {
            next.0 == kept.0 && {
                kept.2 += next.2;
                true
            }
        });
        net.retain(|(_, _, copies)| *copies != 0);
        NetDelta(net)
    }

    /// The recompute route's diff: `new - old`, key by key, a row decoded
    /// from its key where the counts differ.
    pub(crate) fn between(old: &RowSet, new: &RowSet) -> Result<NetDelta> {
        let mut net = Vec::new();
        let counts = |set: &RowSet, key: &Vec<u8>| set.get(key).map_or(0, |n| *n as isize);
        for key in new
            .keys()
            .chain(old.keys().filter(|k| !new.contains_key(*k)))
        {
            let copies = counts(new, key) - counts(old, key);
            if copies != 0 {
                net.push((key.clone(), key_row(key)?, copies));
            }
        }
        net.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        Ok(NetDelta(net))
    }

    /// Fold the change into `set` and hand back the batch's `(added,
    /// removed)`, in key order, a row once per copy. Errors on a row
    /// leaving more often than `set` holds it.
    pub(crate) fn apply(self, set: &mut RowSet) -> Result<(Vec<Row>, Vec<Row>)> {
        let (mut added, mut removed) = (Vec::new(), Vec::new());
        for (key, row, copies) in self.0 {
            let n = copies.unsigned_abs();
            if copies > 0 {
                *set.entry(key).or_insert(0) += n;
                added.extend(std::iter::repeat_n(row, n));
                continue;
            }
            let held = set
                .get_mut(&key)
                .filter(|held| **held >= n)
                .ok_or_else(|| {
                    CrowdError::Internal("delta removed a row the subscriber never had".into())
                })?;
            *held -= n;
            if *held == 0 {
                set.remove(&key);
            }
            removed.extend(std::iter::repeat_n(row, n));
        }
        Ok((added, removed))
    }

    /// `(added, removed)` as [`NetDelta::apply`] gives them, folded
    /// nowhere.
    #[cfg(test)]
    fn into_lists(self) -> (Vec<Row>, Vec<Row>) {
        let (mut added, mut removed) = (Vec::new(), Vec::new());
        for (_, row, copies) in self.0 {
            let list = if copies > 0 { &mut added } else { &mut removed };
            list.extend(std::iter::repeat_n(row, copies.unsigned_abs()));
        }
        (added, removed)
    }
}

/// Apply a delta to a multiset, removals first. Errors on a removed row
/// the set does not hold. Each row is encoded into one reused buffer and
/// looked up by it; only a row new to the set allocates a key.
pub(crate) fn fold_delta(set: &mut RowSet, added: &[Row], removed: &[Row]) -> Result<()> {
    let mut key = Vec::new();
    for r in removed {
        key.clear();
        codec::encode_row(&mut key, r);
        let copies = set.get_mut(key.as_slice()).ok_or_else(|| {
            CrowdError::Internal("delta removed a row the subscriber never had".into())
        })?;
        *copies -= 1;
        if *copies == 0 {
            set.remove(key.as_slice());
        }
    }
    for r in added {
        key.clear();
        codec::encode_row(&mut key, r);
        match set.get_mut(key.as_slice()) {
            Some(copies) => *copies += 1,
            None => {
                set.insert(key.clone(), 1);
            }
        }
    }
    Ok(())
}

/// Internal per-subscription state.
pub(crate) struct SubState {
    /// Canonical SQL of the underlying `SELECT`.
    pub sql: String,
    /// The standing plan (optimized once, at registration).
    pub plan: StandingPlan,
    /// The result as of the last trigger, as a multiset.
    pub last: RowSet,
    /// What the evaluation that last produced `last` in full left for
    /// the delta route — the plan it lowered, its node state — if the
    /// plan is routed there (`crowddb_exec::maintenance`); `None` for a
    /// query that recomputes.
    pub maintained: Option<Maintained>,
    /// Last assigned revision.
    pub revision: u64,
    /// Undelivered delta batches, oldest first.
    pub queue: VecDeque<DeltaBatch>,
    /// Consumer fell behind: queue was cleared; next poll errors, the
    /// one after that resyncs.
    pub lagged: bool,
    /// A lag error was delivered; next poll gets a snapshot batch.
    pub resync_pending: bool,
    /// A trigger evaluation failed (e.g. a watched table was dropped);
    /// polls surface this error until unsubscribed.
    pub failed: Option<CrowdError>,
}

impl SubState {
    /// Publish subscription `id`'s next revision: the snapshot of `last`
    /// at registration, or the batch one trigger folded into it. The
    /// revision is booked — `crowddb_subscription_deltas_total`, the rows
    /// counters, a `SubscriptionDelta` event — and its batch queued,
    /// unless the consumer is already resyncing: the snapshot it will
    /// receive reflects `last`. A queue that grows past `max_queue` is
    /// dropped, and the consumer lags.
    pub(crate) fn publish(
        &mut self,
        id: u64,
        obs: &Obs,
        max_queue: usize,
        snapshot: bool,
        (added, removed): (Vec<Row>, Vec<Row>),
    ) {
        self.revision += 1;
        let (n_added, n_removed) = (added.len() as u64, removed.len() as u64);
        let reg = obs.registry();
        reg.counter_inc("crowddb_subscription_deltas_total");
        reg.counter_add("crowddb_subscription_rows_added_total", n_added);
        if !snapshot {
            reg.counter_add("crowddb_subscription_rows_removed_total", n_removed);
        }
        obs.events().emit(Event::SubscriptionDelta {
            id,
            revision: self.revision,
            added: n_added,
            removed: n_removed,
        });
        if self.lagged || self.resync_pending {
            return;
        }
        self.queue.push_back(DeltaBatch {
            revision: self.revision,
            snapshot,
            added,
            removed,
        });
        if self.queue.len() > max_queue {
            let dropped = self.queue.len() as u64;
            self.queue.clear();
            self.lagged = true;
            reg.counter_add("crowddb_subscription_lag_drops_total", dropped);
            obs.events().emit(Event::SubscriptionLagged { id, dropped });
        }
    }
}

/// The engine-wide registry behind `CrowdDB`'s subscription mutex.
#[derive(Default)]
pub(crate) struct SubRegistry {
    pub next_id: u64,
    pub subs: BTreeMap<u64, SubState>,
}

/// A registered standing query, polled for [`DeltaBatch`]es.
///
/// Iterating yields every currently queued batch and stops when the
/// queue is drained (it does *not* block waiting for future deltas —
/// CrowdDB never blocks on the crowd). Dropping the handle does not
/// unsubscribe; call [`SubscriptionHandle::unsubscribe`] or run
/// `UNSUBSCRIBE <id>`.
pub struct SubscriptionHandle<'a> {
    db: &'a CrowdDB,
    id: u64,
    columns: Vec<String>,
}

impl std::fmt::Debug for SubscriptionHandle<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SubscriptionHandle")
            .field("id", &self.id)
            .field("columns", &self.columns)
            .finish_non_exhaustive()
    }
}

impl<'a> SubscriptionHandle<'a> {
    pub(crate) fn new(db: &'a CrowdDB, id: u64, columns: Vec<String>) -> SubscriptionHandle<'a> {
        SubscriptionHandle { db, id, columns }
    }

    /// The engine-unique subscription id (`UNSUBSCRIBE <id>` drops it).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Output column names of the standing query.
    pub fn columns(&self) -> &[String] {
        &self.columns
    }

    /// Next queued delta batch, if any. Returns
    /// `Err(SubscriptionLagged)` once after the consumer fell behind;
    /// the next call delivers a resync snapshot.
    pub fn poll(&self) -> Result<Option<DeltaBatch>> {
        self.db.poll_subscription(self.id)
    }

    /// Drop the standing query.
    pub fn unsubscribe(self) -> Result<()> {
        self.db.unsubscribe(self.id)
    }
}

impl Iterator for SubscriptionHandle<'_> {
    type Item = Result<DeltaBatch>;

    fn next(&mut self) -> Option<Result<DeltaBatch>> {
        match self.poll() {
            Ok(Some(batch)) => Some(Ok(batch)),
            Ok(None) => None,
            Err(e) => Some(Err(e)),
        }
    }
}

/// Client-side accumulated state of one subscription: applies delta
/// batches in order and exposes the resulting multiset canonically.
///
/// The differential oracle tests compare [`SubscriberState::canonical`]
/// against a fresh one-shot re-execution byte-for-byte.
#[derive(Default)]
pub struct SubscriberState {
    rows: RowSet,
    /// Revision of the last applied batch (0 before the first).
    pub last_revision: u64,
    /// How many batches have been applied.
    pub batches_applied: u64,
}

impl SubscriberState {
    /// Empty state (before the initial snapshot batch).
    pub fn new() -> SubscriberState {
        SubscriberState::default()
    }

    /// Apply one batch. Enforces monotone revisions; a `snapshot` batch
    /// replaces the accumulated state.
    pub fn apply(&mut self, batch: &DeltaBatch) -> Result<()> {
        if batch.revision <= self.last_revision {
            return Err(CrowdError::Internal(format!(
                "non-monotone subscription revision {} after {}",
                batch.revision, self.last_revision
            )));
        }
        if batch.snapshot {
            self.rows = rowset_from_rows(&batch.added);
        } else {
            fold_delta(&mut self.rows, &batch.added, &batch.removed)?;
        }
        self.last_revision = batch.revision;
        self.batches_applied += 1;
        Ok(())
    }

    /// Accumulated rows, sorted by canonical encoding.
    pub fn rows(&self) -> Vec<Row> {
        rowset_to_rows(&self.rows).expect("keys are this module's own row encodings")
    }

    /// Canonical byte encoding of the accumulated multiset (sorted,
    /// concatenated row encodings) — the oracle comparison key.
    pub fn canonical(&self) -> Vec<u8> {
        canonical_of(&self.rows)
    }
}

/// Canonical byte encoding of an arbitrary row collection — what a
/// fresh one-shot re-execution hashes to for the oracle comparison.
pub fn canonical_rows(rows: &[Row]) -> Vec<u8> {
    let mut keys: Vec<Vec<u8>> = rows.iter().map(row_key).collect();
    keys.sort_unstable();
    keys.concat()
}

/// The keys of `set` in order, each once per copy, concatenated.
fn canonical_of(set: &RowSet) -> Vec<u8> {
    let mut out = Vec::new();
    for (key, n) in sorted(set) {
        for _ in 0..n {
            out.extend_from_slice(key);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowddb_common::row;

    #[test]
    fn diff_is_multiset_aware() {
        let old = rowset_from_rows(&[row![1i64], row![1i64], row![2i64]]);
        let new = rowset_from_rows(&[row![1i64], row![3i64]]);
        let (added, removed) = diff_rowsets(&old, &new).unwrap();
        assert_eq!(added, vec![row![3i64]]);
        assert_eq!(removed, vec![row![1i64], row![2i64]]);
    }

    #[test]
    fn diff_of_equal_and_of_disjoint_maps() {
        let a = rowset_from_rows(&[row![1i64], row![1i64], row!["x"]]);
        assert_eq!(diff_rowsets(&a, &a).unwrap(), (vec![], vec![]));
        let b = rowset_from_rows(&[row![2i64], row!["y"], row!["y"]]);
        let (added, removed) = diff_rowsets(&a, &b).unwrap();
        assert_eq!(added, rowset_to_rows(&b).unwrap());
        assert_eq!(removed, rowset_to_rows(&a).unwrap());
        let empty = RowSet::new();
        assert_eq!(
            diff_rowsets(&empty, &a).unwrap(),
            (rowset_to_rows(&a).unwrap(), vec![])
        );
        assert_eq!(diff_rowsets(&empty, &empty).unwrap(), (vec![], vec![]));
    }

    /// An operator-tree delta, its two lists diffed as multisets and
    /// folded, lands where the recompute route's diff does.
    #[test]
    fn normalized_delta_equals_the_diff() {
        let old = rowset_from_rows(&[row![1i64], row![2i64], row![2i64], row![5i64]]);
        // -2 +2 cancels (an UPDATE the projection does not show), one 2
        // really leaves, 9 and 0 enter, unsorted.
        let (added, removed) = diff_rowsets(
            &rowset_from_rows(&[row![2i64], row![5i64], row![2i64]]),
            &rowset_from_rows(&[row![9i64], row![2i64], row![0i64]]),
        )
        .unwrap();
        assert_eq!(added, vec![row![0i64], row![9i64]]);
        assert_eq!(removed, vec![row![2i64], row![5i64]]);
        let mut new = old.clone();
        fold_delta(&mut new, &added, &removed).unwrap();
        assert_eq!(diff_rowsets(&old, &new).unwrap(), (added, removed));
        assert!(fold_delta(&mut new, &[], &[row![5i64]]).is_err());
    }

    #[test]
    fn subscriber_applies_snapshot_and_deltas() {
        let mut s = SubscriberState::new();
        s.apply(&DeltaBatch {
            revision: 1,
            snapshot: true,
            added: vec![row![1i64], row![2i64]],
            removed: vec![],
        })
        .unwrap();
        s.apply(&DeltaBatch {
            revision: 2,
            snapshot: false,
            added: vec![row![3i64]],
            removed: vec![row![1i64]],
        })
        .unwrap();
        assert_eq!(s.rows(), vec![row![2i64], row![3i64]]);
        assert_eq!(s.canonical(), canonical_rows(&[row![3i64], row![2i64]]));
    }

    #[test]
    fn subscriber_rejects_non_monotone_revision() {
        let mut s = SubscriberState::new();
        let b = DeltaBatch {
            revision: 1,
            snapshot: true,
            added: vec![],
            removed: vec![],
        };
        s.apply(&b).unwrap();
        assert!(s.apply(&b).is_err());
    }

    #[test]
    fn subscriber_rejects_removal_of_unknown_row() {
        let mut s = SubscriberState::new();
        let err = s
            .apply(&DeltaBatch {
                revision: 1,
                snapshot: false,
                added: vec![],
                removed: vec![row![9i64]],
            })
            .unwrap_err();
        assert_eq!(err.category(), "internal");
    }

    #[test]
    fn resync_snapshot_replaces_state() {
        let mut s = SubscriberState::new();
        s.apply(&DeltaBatch {
            revision: 1,
            snapshot: true,
            added: vec![row![1i64]],
            removed: vec![],
        })
        .unwrap();
        // Revisions 2–3 were lost to lag; the resync snapshot carries
        // the full current result.
        s.apply(&DeltaBatch {
            revision: 4,
            snapshot: true,
            added: vec![row![7i64], row![8i64]],
            removed: vec![],
        })
        .unwrap();
        assert_eq!(s.rows(), vec![row![7i64], row![8i64]]);
    }
}
