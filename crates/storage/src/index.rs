//! Secondary indexes over the paged B-tree.
//!
//! An index entry is a B-tree key of the codec-encoded index-column
//! values followed by the owning tuple's id as 8 big-endian bytes (the
//! value payload is empty). Non-unique indexes therefore need no bucket
//! lists — duplicates are adjacent entries differing only in tid — and
//! every lookup is a bounded range scan from the seek target
//! `(values, tid 0)`.
//!
//! There is one kind of index — the implicit `<table>_pk`, the automatic
//! foreign-key indexes and `CREATE INDEX` all build this tree — and every
//! one serves point probes ([`Index::get`]) and ordered range scans
//! ([`Index::range`]) alike. Missing values (`NULL`/`CNULL`) sort
//! before every present value, so the entries whose leading column the
//! crowd has not yet filled form a contiguous prefix of the tree —
//! [`Index::missing_key_tids`] — and, in a composite index, those that
//! miss a later column form a run under each bound prefix of a probed
//! key — [`Index::missing_under`]. Index access paths union both with
//! their probe results to preserve CNULL probe semantics.

use std::cmp::Ordering;
use std::collections::HashSet;

use crowddb_common::codec::{self, Reader};
use crowddb_common::{CrowdError, Result, TupleId, Value};

use crate::btree::{same_index_values, BTree, BTreeCursor, KeyCmp, Run};
use crate::page::PageId;
use crate::pager::Pager;

/// Wrapper giving composite keys a total order based on
/// [`Value::sort_cmp`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct IndexKey(pub Vec<Value>);

impl PartialOrd for IndexKey {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for IndexKey {
    fn cmp(&self, other: &Self) -> Ordering {
        for (a, b) in self.0.iter().zip(other.0.iter()) {
            let ord = a.sort_cmp(b);
            if ord != Ordering::Equal {
                return ord;
            }
        }
        self.0.len().cmp(&other.0.len())
    }
}

impl IndexKey {
    /// Whether any component is `NULL`/`CNULL`. Such keys never
    /// participate in uniqueness conflicts and never match an equality
    /// probe until the crowd fills them.
    pub fn has_missing(&self) -> bool {
        self.0.iter().any(Value::is_missing)
    }
}

/// Encode an index entry key: codec-encoded values ‖ tid (8 bytes BE).
pub fn encode_index_entry(values: &[Value], tid: TupleId) -> Vec<u8> {
    let mut key = Vec::new();
    write_index_entry(&mut key, values.iter(), tid);
    key
}

/// [`encode_index_entry`] onto the end of `out`.
fn write_index_entry<'a>(out: &mut Vec<u8>, values: impl Iterator<Item = &'a Value>, tid: TupleId) {
    for v in values {
        codec::encode_value(out, v);
    }
    out.extend_from_slice(&tid.0.to_be_bytes());
}

/// The tuple id an index entry key ends in.
pub(crate) fn entry_tid(key: &[u8]) -> TupleId {
    let tid = key.len().saturating_sub(8);
    TupleId(key[tid..].try_into().map_or(0, u64::from_be_bytes))
}

/// Decode an index entry key back into `(values, tid)`.
pub fn decode_index_entry(key: &[u8]) -> Result<(IndexKey, TupleId)> {
    if key.len() < 8 {
        return Err(CrowdError::Internal(
            "index: entry key shorter than a tid".into(),
        ));
    }
    let (vals, tid) = key.split_at(key.len() - 8);
    let mut r = Reader::new(vals);
    let mut values = Vec::new();
    while !r.is_empty() {
        values.push(codec::decode_value(&mut r)?);
    }
    Ok((
        IndexKey(values),
        TupleId(u64::from_be_bytes(tid.try_into().unwrap())),
    ))
}

/// A secondary index over one or more columns of a table: metadata plus
/// a paged entry tree.
///
/// Indexes are non-unique at this layer; uniqueness (primary keys,
/// unique indexes) is enforced by the table before insertion, by
/// asking which entries of a run `Index::repeated` finds repeated.
#[derive(Debug, Clone)]
pub struct Index {
    /// Index name (unique within the database).
    pub name: String,
    /// Ordinals of the indexed columns.
    pub columns: Vec<usize>,
    /// Enforce key uniqueness?
    pub unique: bool,
    tree: BTree,
}

impl Index {
    /// Create an empty index (allocates its entry tree).
    pub fn new(
        pager: &Pager,
        name: impl Into<String>,
        columns: Vec<usize>,
        unique: bool,
    ) -> Result<Index> {
        Ok(Index {
            name: name.into(),
            columns,
            unique,
            tree: BTree::create(pager, KeyCmp::IndexEntry)?,
        })
    }

    /// Re-attach to an existing entry tree (metadata restore).
    pub fn open(name: String, columns: Vec<usize>, unique: bool, root: PageId) -> Index {
        Index {
            name,
            columns,
            unique,
            tree: BTree::open(root, KeyCmp::IndexEntry),
        }
    }

    /// Root page of the entry tree (persisted in table metadata).
    pub fn root(&self) -> PageId {
        self.tree.root()
    }

    /// Project a row onto this index's key columns.
    pub fn key_of(&self, row: &[Value]) -> IndexKey {
        IndexKey(self.columns.iter().map(|&i| row[i].clone()).collect())
    }

    /// Append the entry of the row `row` stored at `tid` to `run`,
    /// encoded straight from the row's indexed columns; returns the
    /// entry key's length, which
    /// [`check_key_len`](crate::btree::check_key_len) bounds.
    pub(crate) fn push_entry(&self, run: &mut Run, row: &[Value], tid: TupleId) -> usize {
        let columns = self.columns.iter().map(|&i| &row[i]);
        run.push(|buf| write_index_entry(buf, columns, tid), |_| {});
        run.key(run.len() - 1).len()
    }

    /// Add a run of entries built by [`Index::push_entry`], in entry
    /// order ([`Run::sort`] with [`KeyCmp::IndexEntry`]).
    pub(crate) fn insert_sorted(&mut self, pager: &Pager, run: &Run) -> Result<()> {
        self.tree.insert_sorted(pager, run)
    }

    /// Remove an entry; returns whether it existed.
    pub fn remove(&mut self, pager: &Pager, key: &IndexKey, tid: TupleId) -> Result<bool> {
        self.tree.remove(pager, &encode_index_entry(&key.0, tid))
    }

    /// For each entry of `run`, in entry order, whether its values equal
    /// those of an earlier entry of the run or of an entry the tree holds
    /// — one of `ignore`'s aside: the entries a unique index refuses. A
    /// key with a missing value repeats nothing. The entry order compares
    /// numbers as `f64`, coarser than `=` (two INTEGERs past 2^53 may sort
    /// equal), so it only finds the class of entries that sort equal, side
    /// by side in the run and in the tree; `=` decides within the class.
    /// Against the tree, one seek serves every class up to the first entry
    /// the tree holds beyond it — a run appended past the tree's last key
    /// costs one descent.
    pub(crate) fn repeated(
        &self,
        pager: &Pager,
        run: &Run,
        ignore: Option<TupleId>,
    ) -> Result<Vec<bool>> {
        let mut out = Vec::with_capacity(run.len());
        // The tree's first entry at or past the last seek target (`None`:
        // there is none), and the cursor standing after it.
        let mut ahead: Option<(BTreeCursor, Option<Vec<u8>>)> = None;
        let mut start = 0;
        while start < run.len() {
            let key = run.key(start);
            let end = (start + 1..run.len())
                .find(|&i| !same_index_values(key, run.key(i)))
                .unwrap_or(run.len());
            let target = [&key[..key.len().saturating_sub(8)], &[0; 8]].concat();
            let stale = ahead.as_ref().is_none_or(|(_, held)| {
                held.as_ref()
                    .is_some_and(|held| KeyCmp::IndexEntry.cmp(held, &target) == Ordering::Less)
            });
            if stale {
                let mut cur = self.tree.cursor_seek(pager, &target)?;
                let held = cur.next(pager)?.map(|(k, _)| k.to_vec());
                ahead = Some((cur, held));
            }
            let (cur, held) = ahead.as_mut().expect("sought above");
            let in_class = |held: &Option<Vec<u8>>| {
                held.as_ref()
                    .is_some_and(|held| same_index_values(held, key))
            };
            if end - start == 1 && !in_class(held) {
                // The common case: nothing else sorts equal.
                out.push(false);
            } else if decode_index_entry(key)?.0.has_missing() {
                out.extend((start..end).map(|_| false));
            } else {
                let mut seen = HashSet::new();
                while in_class(held) {
                    let entry = held.take().expect("in the class");
                    // The row being replaced does not repeat itself.
                    if Some(entry_tid(&entry)) != ignore {
                        seen.insert(decode_index_entry(&entry)?.0);
                    }
                    *held = cur.next(pager)?.map(|(k, _)| k.to_vec());
                }
                for i in start..end {
                    out.push(!seen.insert(decode_index_entry(run.key(i))?.0));
                }
            }
            start = end;
        }
        Ok(out)
    }

    /// Tuple ids whose key equals `key` exactly, in tid order, read from
    /// the entries that sort equal to it: past 2^53 the index order,
    /// which compares numbers as `f64`, puts unequal INTEGERs among them.
    pub fn get(&self, pager: &Pager, key: &IndexKey) -> Result<Vec<TupleId>> {
        let target = encode_index_entry(&key.0, TupleId(0));
        let mut cur = self.tree.cursor_seek(pager, &target)?;
        let mut out = Vec::new();
        while let Some((entry, _)) = cur.next(pager)? {
            let (k, tid) = decode_index_entry(entry)?;
            if k.cmp(key) != Ordering::Equal {
                break;
            }
            if k == *key {
                out.push(tid);
            }
        }
        Ok(out)
    }

    /// Tuple ids for keys in `[low, high]` (inclusive; missing-valued
    /// keys excluded), ordered by key then tid. `None` bound = unbounded
    /// on that side.
    pub fn range(
        &self,
        pager: &Pager,
        low: Option<&IndexKey>,
        high: Option<&IndexKey>,
    ) -> Result<Vec<TupleId>> {
        let mut cur = match low {
            Some(lo) => self
                .tree
                .cursor_seek(pager, &encode_index_entry(&lo.0, TupleId(0)))?,
            None => self.tree.cursor_first(pager)?,
        };
        let mut out = Vec::new();
        while let Some((entry, _)) = cur.next(pager)? {
            let (k, tid) = decode_index_entry(entry)?;
            if k.has_missing() {
                // With no lower bound the cursor starts inside the
                // missing-key prefix; open-world semantics exclude those
                // rows from range predicates.
                continue;
            }
            if let Some(hi) = high {
                if k > *hi {
                    break;
                }
            }
            out.push(tid);
        }
        Ok(out)
    }

    /// Tuple ids of the entries whose leading value is missing: a
    /// contiguous prefix of the tree, missing values sorting first. For a
    /// single-column index these are all the entries with a `NULL`/`CNULL`
    /// key, and index access paths union them with their probe results so
    /// crowd-fillable rows still generate probes. A composite key can also
    /// miss a later value; [`Index::missing_under`] finds those under the
    /// key a point access probes.
    pub fn missing_key_tids(&self, pager: &Pager) -> Result<Vec<TupleId>> {
        let mut cur = self.tree.cursor_first(pager)?;
        let mut out = Vec::new();
        while let Some((entry, _)) = cur.next(pager)? {
            let (k, tid) = decode_index_entry(entry)?;
            if !k.0.first().is_some_and(Value::is_missing) {
                break;
            }
            out.push(tid);
        }
        Ok(out)
    }

    /// Tuple ids of the entries that hold `key`'s first `i` values and
    /// miss value `i`, for each `i` from 1 to `key`'s length less one:
    /// under every bound prefix, the run its missing values sort first
    /// in. With [`Index::missing_key_tids`] and [`Index::get`] these are
    /// all the entries that agree with `key` wherever they hold a value —
    /// the rows the crowd may yet make match. A single-column key has no
    /// such prefix: nothing is read.
    pub fn missing_under(&self, pager: &Pager, key: &IndexKey) -> Result<Vec<TupleId>> {
        let mut out = Vec::new();
        for bound in 1..key.0.len() {
            let prefix = &key.0[..bound];
            let mut cur = self
                .tree
                .cursor_seek(pager, &encode_index_entry(prefix, TupleId(0)))?;
            while let Some((entry, _)) = cur.next(pager)? {
                let (k, tid) = decode_index_entry(entry)?;
                let held = &k.0[..bound.min(k.0.len())];
                let sorts_equal = held.len() == bound
                    && (held.iter().zip(prefix)).all(|(a, b)| a.sort_cmp(b) == Ordering::Equal);
                if !sorts_equal || !k.0.get(bound).is_some_and(Value::is_missing) {
                    break;
                }
                if held == prefix {
                    out.push(tid);
                }
            }
        }
        Ok(out)
    }

    /// Free the entry tree (index or table dropped).
    pub fn free(self, pager: &Pager) -> Result<()> {
        self.tree.free(pager)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pager::PagerConfig;

    fn pager() -> Pager {
        Pager::new_mem(PagerConfig {
            page_size: 256,
            pool_pages: 0,
        })
        .unwrap()
    }

    fn key(vs: Vec<Value>) -> IndexKey {
        IndexKey(vs)
    }

    impl Index {
        /// The entry tree.
        pub(crate) fn tree(&self) -> &BTree {
            &self.tree
        }

        /// A run of one entry.
        fn insert(&mut self, pager: &Pager, key: &IndexKey, tid: TupleId) -> Result<()> {
            let mut run = Run::default();
            let entry = encode_index_entry(&key.0, tid);
            run.push(|buf| buf.extend_from_slice(&entry), |_| {});
            self.insert_sorted(pager, &run)
        }
    }

    #[test]
    fn insert_get_remove() {
        let p = pager();
        let mut idx = Index::new(&p, "i", vec![0], false).unwrap();
        idx.insert(&p, &key(vec![Value::Int(1)]), TupleId(10))
            .unwrap();
        idx.insert(&p, &key(vec![Value::Int(1)]), TupleId(11))
            .unwrap();
        idx.insert(&p, &key(vec![Value::Int(2)]), TupleId(12))
            .unwrap();
        assert_eq!(
            idx.get(&p, &key(vec![Value::Int(1)])).unwrap(),
            vec![TupleId(10), TupleId(11)]
        );
        assert_eq!(
            idx.get(&p, &key(vec![Value::Int(2)])).unwrap(),
            vec![TupleId(12)]
        );
        assert!(idx
            .remove(&p, &key(vec![Value::Int(1)]), TupleId(10))
            .unwrap());
        assert!(!idx
            .remove(&p, &key(vec![Value::Int(1)]), TupleId(10))
            .unwrap());
        assert_eq!(
            idx.get(&p, &key(vec![Value::Int(1)])).unwrap(),
            vec![TupleId(11)]
        );
    }

    #[test]
    fn btree_range_scan_inclusive() {
        let p = pager();
        let mut idx = Index::new(&p, "i", vec![0], false).unwrap();
        for i in 0..10i64 {
            idx.insert(&p, &key(vec![Value::Int(i)]), TupleId(i as u64))
                .unwrap();
        }
        let mid = idx
            .range(
                &p,
                Some(&key(vec![Value::Int(3)])),
                Some(&key(vec![Value::Int(6)])),
            )
            .unwrap();
        assert_eq!(mid, vec![TupleId(3), TupleId(4), TupleId(5), TupleId(6)]);
        let all = idx.range(&p, None, None).unwrap();
        assert_eq!(all.len(), 10);
        let upper = idx
            .range(&p, Some(&key(vec![Value::Int(8)])), None)
            .unwrap();
        assert_eq!(upper, vec![TupleId(8), TupleId(9)]);
    }

    #[test]
    fn missing_values_sort_into_the_missing_prefix() {
        let p = pager();
        let mut idx = Index::new(&p, "i", vec![0], false).unwrap();
        idx.insert(&p, &key(vec![Value::Int(5)]), TupleId(0))
            .unwrap();
        idx.insert(&p, &key(vec![Value::CNull]), TupleId(1))
            .unwrap();
        idx.insert(&p, &key(vec![Value::Null]), TupleId(2)).unwrap();
        idx.insert(&p, &key(vec![Value::Int(1)]), TupleId(3))
            .unwrap();
        let missing = idx.missing_key_tids(&p).unwrap();
        assert_eq!(missing.len(), 2);
        assert!(missing.contains(&TupleId(1)) && missing.contains(&TupleId(2)));
        // Range scans exclude missing keys even with no lower bound.
        let all = idx.range(&p, None, None).unwrap();
        assert_eq!(all, vec![TupleId(3), TupleId(0)]);
        // Equality probes on a present key see only that key.
        assert_eq!(
            idx.get(&p, &key(vec![Value::Int(5)])).unwrap(),
            vec![TupleId(0)]
        );
        // A probe for CNULL finds the CNULL entries (used by maintenance,
        // not by query access paths).
        assert_eq!(
            idx.get(&p, &key(vec![Value::CNull])).unwrap(),
            vec![TupleId(1)]
        );
    }

    #[test]
    fn a_composite_key_finds_the_entries_missing_a_later_value() {
        let p = pager();
        let mut idx = Index::new(&p, "i", vec![0, 1], false).unwrap();
        let entries = [
            (vec![Value::CNull, Value::Int(7)], 0),
            (vec![Value::Int(1), Value::CNull], 1),
            (vec![Value::Int(1), Value::Int(5)], 2),
            (vec![Value::Int(2), Value::Null], 3),
            (vec![Value::Int(2), Value::CNull], 4),
            (vec![Value::Int(2), Value::Int(6)], 5),
            (vec![Value::Int(3), Value::CNull], 6),
        ];
        for (values, tid) in entries {
            idx.insert(&p, &key(values), TupleId(tid)).unwrap();
        }
        // The leading-missing prefix stops at the first present leading
        // value: (1, CNULL) and (2, CNULL) lie further on.
        assert_eq!(idx.missing_key_tids(&p).unwrap(), vec![TupleId(0)]);
        // Under `a = 2`: the run whose `b` is missing, not `a = 1`'s or
        // `a = 3`'s.
        let probe = key(vec![Value::Int(2), Value::Int(7)]);
        assert_eq!(
            idx.missing_under(&p, &probe).unwrap(),
            vec![TupleId(3), TupleId(4)]
        );
        assert!(idx.get(&p, &probe).unwrap().is_empty());
        assert!(idx
            .missing_under(&p, &key(vec![Value::Int(9), Value::Int(1)]))
            .unwrap()
            .is_empty());
        // A single-column key has no bound prefix to look under.
        let single = Index::new(&p, "s", vec![0], false).unwrap();
        let before = p.stats();
        assert!(single
            .missing_under(&p, &key(vec![Value::Int(2)]))
            .unwrap()
            .is_empty());
        assert_eq!(p.stats(), before, "no page read");
    }

    #[test]
    fn key_of_projects_columns_in_order() {
        let p = pager();
        let idx = Index::new(&p, "i", vec![2, 0], false).unwrap();
        let row = vec![Value::Int(1), Value::Int(2), Value::Int(3)];
        assert_eq!(idx.key_of(&row), key(vec![Value::Int(3), Value::Int(1)]));
    }

    #[test]
    fn entry_round_trip() {
        let vals = vec![Value::Str("abc".into()), Value::Int(-7)];
        let enc = encode_index_entry(&vals, TupleId(99));
        let (k, tid) = decode_index_entry(&enc).unwrap();
        assert_eq!(k.0, vals);
        assert_eq!(tid, TupleId(99));
    }
}
