//! Tables over the paged storage engine: a primary B-tree keyed by
//! tuple id, secondary indexes, constraint enforcement, and index
//! maintenance.
//!
//! Tuple ids are allocation order and remain stable for the lifetime of
//! the row; they are never reused after deletion (the write-ahead log
//! addresses crowd-answer write-backs by tuple id). Rows are stored
//! codec-encoded as primary-tree values; reads therefore return owned
//! `Row`s and are fallible (file-backed pagers do I/O).

use std::sync::Arc;

use crowddb_common::codec::{self, Reader};
use crowddb_common::{CrowdError, Result, Row, TableSchema, TupleId, Value};

use crate::btree::{check_key_len, BTree, KeyCmp, Run};
use crate::cursor::{encode_tid_key, TableCursor};
use crate::index::{decode_index_entry, entry_tid, Index, IndexKey};
use crate::page::PageId;
use crate::pager::Pager;

/// The error for a unique index that `key` would repeat a key of.
fn unique_violation(idx: &Index, key: &IndexKey) -> CrowdError {
    CrowdError::Constraint(format!(
        "unique constraint '{}' violated by key {:?}",
        idx.name,
        key.0.iter().map(Value::sql_literal).collect::<Vec<_>>()
    ))
}

/// Append the row `row` stored at `tid` to a primary-tree run.
fn push_row(run: &mut Run, tid: TupleId, row: &Row) {
    run.push(
        |buf| buf.extend_from_slice(&encode_tid_key(tid)),
        |buf| codec::encode_row(buf, row),
    );
}

/// Statistics maintained incrementally and consumed by the optimizer's
/// cardinality annotation (paper §3.2.2: "the heuristic first annotates
/// the query plan with the cardinality predictions").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TableStats {
    /// Live (non-deleted) rows.
    pub live_rows: usize,
    /// Total tuple ids ever allocated, including tombstoned ones.
    pub total_slots: usize,
    /// Number of CNULL values currently stored.
    pub cnull_values: usize,
}

/// A table backed by paged B-trees.
///
/// Deliberately not `Clone`: two tables sharing the same trees would
/// corrupt each other through the shared pager.
#[derive(Debug)]
pub struct HeapTable {
    schema: TableSchema,
    pager: Arc<Pager>,
    /// Primary storage: tid (8 bytes BE) → codec-encoded row.
    primary: BTree,
    indexes: Vec<Index>,
    /// Next tuple id to allocate (= slots ever used, including deleted).
    total_slots: u64,
    cnull_values: usize,
    live_rows: usize,
}

impl HeapTable {
    /// Create an empty table. If the schema declares a primary key, a
    /// unique index named `<table>_pk` is created automatically.
    pub fn new(pager: Arc<Pager>, schema: TableSchema) -> Result<HeapTable> {
        let primary = BTree::create(&pager, KeyCmp::Bytes)?;
        let mut t = HeapTable {
            primary,
            indexes: Vec::new(),
            total_slots: 0,
            cnull_values: 0,
            live_rows: 0,
            schema,
            pager,
        };
        if !t.schema.primary_key.is_empty() {
            let idx = Index::new(
                &t.pager,
                format!("{}_pk", t.schema.name),
                t.schema.primary_key.clone(),
                true,
            )?;
            t.indexes.push(idx);
        }
        Ok(t)
    }

    /// Re-attach a table to trees already present in the pager (metadata
    /// restore after reopening a page file).
    pub fn from_parts(
        pager: Arc<Pager>,
        schema: TableSchema,
        primary_root: PageId,
        total_slots: u64,
        live_rows: usize,
        cnull_values: usize,
        indexes: Vec<Index>,
    ) -> HeapTable {
        HeapTable {
            primary: BTree::open(primary_root, KeyCmp::Bytes),
            indexes,
            total_slots,
            cnull_values,
            live_rows,
            schema,
            pager,
        }
    }

    /// The table's schema.
    pub fn schema(&self) -> &TableSchema {
        &self.schema
    }

    /// The pager backing this table (executors need it to probe this
    /// table's secondary indexes directly).
    pub fn pager(&self) -> &Pager {
        &self.pager
    }

    /// Root page of the primary tree (persisted in database metadata).
    pub fn primary_root(&self) -> PageId {
        self.primary.root()
    }

    /// Current statistics.
    pub fn stats(&self) -> TableStats {
        TableStats {
            live_rows: self.live_rows,
            total_slots: self.total_slots as usize,
            cnull_values: self.cnull_values,
        }
    }

    /// Validate a row against the schema: arity, types (with implicit
    /// widening), NOT NULL. Returns the coerced row.
    ///
    /// CNULL is only legal in CROWD columns; a CNULL in a regular column
    /// is rejected, because nothing would ever crowdsource it.
    pub fn validate_row(&self, row: Row) -> Result<Row> {
        if row.arity() != self.schema.arity() {
            return Err(CrowdError::Constraint(format!(
                "table '{}' expects {} columns, got {}",
                self.schema.name,
                self.schema.arity(),
                row.arity()
            )));
        }
        let mut out = Vec::with_capacity(row.arity());
        for (i, v) in row.into_values().into_iter().enumerate() {
            let col = &self.schema.columns[i];
            v.validate().map_err(CrowdError::Constraint)?;
            if v.is_cnull() && !col.crowd && !self.schema.crowd_table {
                return Err(CrowdError::Constraint(format!(
                    "column '{}' of table '{}' is not a CROWD column; CNULL not allowed",
                    col.name, self.schema.name
                )));
            }
            if matches!(v, Value::Null) && col.not_null {
                return Err(CrowdError::Constraint(format!(
                    "column '{}' of table '{}' is NOT NULL",
                    col.name, self.schema.name
                )));
            }
            let coerced = v.clone().coerce_to(col.data_type).ok_or_else(|| {
                CrowdError::Constraint(format!(
                    "value {} is not assignable to column '{}' ({}) of table '{}'",
                    v.sql_literal(),
                    col.name,
                    col.data_type,
                    self.schema.name
                ))
            })?;
            out.push(coerced);
        }
        Ok(Row::new(out))
    }

    fn write_primary(&mut self, tid: TupleId, row: &Row) -> Result<()> {
        let mut run = Run::default();
        push_row(&mut run, tid, row);
        self.primary.insert_sorted(&self.pager, &run)
    }

    /// The tuple id the next inserted row takes.
    pub fn next_tid(&self) -> TupleId {
        TupleId(self.total_slots)
    }

    /// Store `rows`, each at its tuple id. The ids ascend; each is at or
    /// past [`HeapTable::next_tid`], or a slot no live row holds (a
    /// snapshot restore, a delete taken back), and any ids skipped are
    /// reserved — tuple ids must survive a restart unchanged, because the
    /// write-ahead log addresses crowd-answer write-backs by tuple id.
    ///
    /// Every row is validated and every constraint checked before
    /// anything is written, in row order: the first violation is the one
    /// row-at-a-time insertion would have met — uniqueness against the
    /// table and against the earlier rows, then every index key's length
    /// — and leaves every tree as it was. Then each index takes one
    /// sorted run of the rows' entries and the primary tree one run of
    /// the rows. Returns the rows as stored: validated, each value coerced
    /// to its column's type — what a scan reads back.
    pub fn insert_rows(&mut self, rows: Vec<(TupleId, Row)>) -> Result<Vec<(TupleId, Row)>> {
        if rows.windows(2).any(|pair| pair[0].0 >= pair[1].0) {
            return Err(CrowdError::Internal(format!(
                "rows for table '{}' must ascend by tuple id",
                self.schema.name
            )));
        }
        let mut valid = Vec::with_capacity(rows.len());
        let mut invalid = Ok(());
        for (tid, row) in rows {
            match self.validate_row(row) {
                Ok(row) => valid.push((tid, row)),
                Err(e) => {
                    // No row after it is checked, or written.
                    invalid = Err(e);
                    break;
                }
            }
        }
        // Each index's entries, sorted, how long each row's is, and — for
        // a unique index — which rows repeat a key.
        let mut entries = Vec::with_capacity(self.indexes.len());
        for idx in &self.indexes {
            let mut run = Run::with_capacity(valid.len());
            let lens: Vec<usize> = (valid.iter())
                .map(|(tid, row)| idx.push_entry(&mut run, row.values(), *tid))
                .collect();
            run.sort(KeyCmp::IndexEntry);
            let mut repeats = vec![false; valid.len()];
            if idx.unique {
                let repeated = idx.repeated(&self.pager, &run, None)?;
                for i in (0..run.len()).filter(|&i| repeated[i]) {
                    let tid = entry_tid(run.key(i));
                    repeats[valid.partition_point(|(t, _)| *t < tid)] = true;
                }
            }
            entries.push((run, lens, repeats));
        }
        let page_size = self.pager.page_size();
        let mut heap = Run::with_capacity(valid.len());
        for (n, (tid, row)) in valid.iter().enumerate() {
            if tid.0 < self.total_slots && self.get_stored(*tid, |_| Ok(()))?.is_some() {
                return Err(CrowdError::Internal(format!(
                    "tuple slot {tid} of table '{}' is already occupied",
                    self.schema.name
                )));
            }
            for (idx, (_, _, repeats)) in self.indexes.iter().zip(&entries) {
                if repeats[n] {
                    return Err(unique_violation(idx, &idx.key_of(row.values())));
                }
            }
            for (_, lens, _) in &entries {
                check_key_len(lens[n], page_size)?;
            }
            push_row(&mut heap, *tid, row);
        }
        invalid?;
        let pager = Arc::clone(&self.pager);
        for (idx, (run, _, _)) in self.indexes.iter_mut().zip(entries) {
            idx.insert_sorted(&pager, &run)?;
        }
        self.primary.insert_sorted(&pager, &heap)?;
        if let Some((tid, _)) = valid.last() {
            self.total_slots = self.total_slots.max(tid.0 + 1);
        }
        self.live_rows += valid.len();
        self.cnull_values += (valid.iter())
            .map(|(_, row)| row.values().iter().filter(|v| v.is_cnull()).count())
            .sum::<usize>();
        Ok(valid)
    }

    /// Reserve tuple-id space up to `total` ids, so the next allocated
    /// tuple id matches the pre-snapshot instance even when the last rows
    /// were deleted.
    pub fn pad_slots(&mut self, total: usize) {
        self.total_slots = self.total_slots.max(total as u64);
    }

    /// Undo an insert made earlier in the same statement. Beyond a plain
    /// delete, the tail tuple id itself is reclaimed so the failed
    /// statement leaves no trace in tuple-id space: a log that never
    /// recorded the statement must allocate the same ids on replay that
    /// this instance allocates going forward. Roll back a batch in
    /// reverse insertion order so each tuple is the tail when its turn
    /// comes.
    pub fn rollback_insert(&mut self, tid: TupleId) -> Result<bool> {
        let existed = self.delete(tid)?;
        if existed && tid.0 + 1 == self.total_slots {
            self.total_slots -= 1;
        }
        Ok(existed)
    }

    /// Fetch a live row by tuple id.
    pub fn get(&self, tid: TupleId) -> Result<Option<Row>> {
        self.get_stored(tid, |stored| {
            Ok(codec::decode_row(&mut Reader::new(stored))?)
        })
    }

    /// Hand `read` the stored bytes of a live row (see
    /// [`TableCursor::next_stored`]), lent from its page for the call.
    pub fn get_stored<R>(
        &self,
        tid: TupleId,
        read: impl FnOnce(&[u8]) -> Result<R>,
    ) -> Result<Option<R>> {
        if tid.0 >= self.total_slots {
            return Ok(None);
        }
        self.primary.get(&self.pager, &encode_tid_key(tid), read)
    }

    /// Delete a row. Returns whether it existed.
    pub fn delete(&mut self, tid: TupleId) -> Result<bool> {
        self.remove(tid, None)
    }

    /// Delete the row at `tid` provided it is still stored as `expected`;
    /// `false`, and nothing written, when it changed or is gone. The
    /// compare reads no page the delete would not: it is made on the old
    /// row a delete reads anyway, under the caller's write access.
    pub fn delete_if(&mut self, tid: TupleId, expected: &Row) -> Result<bool> {
        self.remove(tid, Some(expected))
    }

    fn remove(&mut self, tid: TupleId, expected: Option<&Row>) -> Result<bool> {
        let Some(row) = self
            .get(tid)?
            .filter(|row| expected.is_none_or(|e| e == row))
        else {
            return Ok(false);
        };
        self.primary.remove(&self.pager, &encode_tid_key(tid))?;
        let pager = Arc::clone(&self.pager);
        for idx in &mut self.indexes {
            let key = idx.key_of(row.values());
            idx.remove(&pager, &key, tid)?;
        }
        self.cnull_values -= row.cnull_columns().len();
        self.live_rows -= 1;
        Ok(true)
    }

    /// Replace an entire row in place.
    pub fn update(&mut self, tid: TupleId, new_row: Row) -> Result<()> {
        match self.replace(tid, None, new_row)? {
            true => Ok(()),
            false => Err(CrowdError::Exec(format!("tuple {tid} not found"))),
        }
    }

    /// Replace the row at `tid` provided it is still stored as `expected`
    /// (see [`HeapTable::delete_if`]).
    pub fn update_if(&mut self, tid: TupleId, expected: &Row, new_row: Row) -> Result<bool> {
        self.replace(tid, Some(expected), new_row)
    }

    fn replace(&mut self, tid: TupleId, expected: Option<&Row>, new_row: Row) -> Result<bool> {
        let new_row = self.validate_row(new_row)?;
        let Some(old) = self
            .get(tid)?
            .filter(|row| expected.is_none_or(|e| e == row))
        else {
            return Ok(false);
        };
        // Every new key is checked before any old one is removed, so a
        // violation leaves the row and each of its entries in place.
        let mut entries = Vec::with_capacity(self.indexes.len());
        for idx in &self.indexes {
            let mut run = Run::with_capacity(1);
            let len = idx.push_entry(&mut run, new_row.values(), tid);
            if idx.unique && idx.repeated(&self.pager, &run, Some(tid))?[0] {
                return Err(unique_violation(idx, &idx.key_of(new_row.values())));
            }
            entries.push((run, len));
        }
        let page_size = self.pager.page_size();
        let mut moved = Vec::new();
        for ((i, idx), (run, len)) in self.indexes.iter().enumerate().zip(entries) {
            let old_key = idx.key_of(old.values());
            if old_key != idx.key_of(new_row.values()) {
                check_key_len(len, page_size)?;
                moved.push((i, old_key, run));
            }
        }
        let pager = Arc::clone(&self.pager);
        for (i, old_key, run) in moved {
            self.indexes[i].remove(&pager, &old_key, tid)?;
            self.indexes[i].insert_sorted(&pager, &run)?;
        }
        self.cnull_values -= old.cnull_columns().len();
        self.cnull_values += new_row.cnull_columns().len();
        self.write_primary(tid, &new_row)?;
        Ok(true)
    }

    /// Update a single column of a row — the write-back path used when a
    /// crowd answer arrives for a `CNULL` value.
    pub fn update_value(&mut self, tid: TupleId, col: usize, value: Value) -> Result<()> {
        let row = self
            .get(tid)?
            .ok_or_else(|| CrowdError::Exec(format!("tuple {tid} not found")))?;
        let mut new_row = row;
        if col >= new_row.arity() {
            return Err(CrowdError::Exec(format!(
                "column index {col} out of range for table '{}'",
                self.schema.name
            )));
        }
        new_row.set(col, value);
        self.update(tid, new_row)
    }

    /// A streaming cursor over live rows in tuple-id (insertion) order.
    pub fn cursor(&self) -> Result<TableCursor<'_>> {
        Ok(TableCursor::new(
            &self.pager,
            self.primary.cursor_first(&self.pager)?,
        ))
    }

    /// Materialize all live `(tuple id, row)` pairs in insertion order.
    pub fn scan_rows(&self) -> Result<Vec<(TupleId, Row)>> {
        self.cursor()?.collect_rows()
    }

    /// Add a secondary index, backfilling existing rows.
    pub fn add_index(
        &mut self,
        name: impl Into<String>,
        columns: Vec<usize>,
        unique: bool,
    ) -> Result<()> {
        let name = name.into();
        if self.indexes.iter().any(|i| i.name == name) {
            return Err(CrowdError::Catalog(format!(
                "index '{name}' already exists on table '{}'",
                self.schema.name
            )));
        }
        let mut index = Index::new(&self.pager, name, columns, unique)?;
        match self.backfill(&mut index) {
            Ok(()) => {
                self.indexes.push(index);
                Ok(())
            }
            Err(e) => {
                // Release the partially built entry tree before bailing.
                index.free(&self.pager)?;
                Err(e)
            }
        }
    }

    /// Fill a new index from the table in four steps: one cursor pass
    /// decoding only the indexed columns, a sort of the entries held in
    /// one buffer ([`Run`]), a uniqueness check on the keys that sort
    /// side by side, and one run into the empty tree.
    fn backfill(&self, index: &mut Index) -> Result<()> {
        let page_size = self.pager.page_size();
        let read: Vec<bool> = (0..self.schema.arity())
            .map(|c| index.columns.contains(&c))
            .collect();
        let (mut run, mut row) = (Run::with_capacity(self.live_rows), Row::default());
        // A key too long for any page: backfilled in tuple-id order, the
        // index stopped at that row, so no later row matters.
        let mut too_long = Ok(());
        let mut cur = self.cursor()?;
        while let Some((tid, stored)) = cur.next_stored()? {
            codec::decode_row_into(&mut Reader::new(&stored), &read, &mut row)?;
            too_long = check_key_len(index.push_entry(&mut run, row.values(), tid), page_size);
            if too_long.is_err() {
                break;
            }
        }
        run.sort(KeyCmp::IndexEntry);
        if index.unique {
            // The row the tid-order backfill stopped at is the least tid
            // whose key an earlier row holds — before any long key.
            let repeated = index.repeated(&self.pager, &run, None)?;
            let mut first: Option<(TupleId, IndexKey)> = None;
            for i in (0..run.len()).filter(|&i| repeated[i]) {
                let (key, tid) = decode_index_entry(run.key(i))?;
                if first.as_ref().is_none_or(|(least, _)| tid < *least) {
                    first = Some((tid, key));
                }
            }
            if let Some((_, key)) = first {
                return Err(unique_violation(index, &key));
            }
        }
        too_long?;
        index.insert_sorted(&self.pager, &run)
    }

    /// All indexes on this table.
    pub fn indexes(&self) -> &[Index] {
        &self.indexes
    }

    /// Find an index whose columns equal `cols` exactly.
    pub fn index_on(&self, cols: &[usize]) -> Option<&Index> {
        self.indexes.iter().find(|i| i.columns == cols)
    }

    /// Look up tuples by primary-key value (if a PK exists).
    pub fn lookup_pk(&self, key_values: &[Value]) -> Result<Vec<TupleId>> {
        if self.schema.primary_key.is_empty() {
            return Ok(Vec::new());
        }
        match self.index_on(&self.schema.primary_key) {
            Some(idx) => idx.get(&self.pager, &IndexKey(key_values.to_vec())),
            None => Ok(Vec::new()),
        }
    }

    /// Free every page owned by this table (table dropped).
    pub fn free(self) -> Result<()> {
        let pager = Arc::clone(&self.pager);
        self.primary.free(&pager)?;
        for idx in self.indexes {
            idx.free(&pager)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pager::PagerConfig;
    use crowddb_common::{row, ColumnDef, DataType};

    fn pager() -> Arc<Pager> {
        Arc::new(
            Pager::new_mem(PagerConfig {
                page_size: 256,
                pool_pages: 0,
            })
            .unwrap(),
        )
    }

    impl HeapTable {
        /// A run of one at the next tuple id.
        fn insert(&mut self, row: Row) -> Result<TupleId> {
            let tid = self.next_tid();
            self.insert_rows(vec![(tid, row)])?;
            Ok(tid)
        }
    }

    fn talk_table() -> HeapTable {
        let schema = TableSchema::new(
            "talk",
            vec![
                ColumnDef::new("title", DataType::Str),
                ColumnDef::new("abstract", DataType::Str).crowd(),
                ColumnDef::new("nb_attendees", DataType::Int).crowd(),
            ],
        )
        .unwrap()
        .with_primary_key(&["title"])
        .unwrap();
        HeapTable::new(pager(), schema).unwrap()
    }

    #[test]
    fn rollback_insert_reclaims_the_tail_slot() {
        let mut t = talk_table();
        let keep = t.insert(row!["keep", Value::CNull, Value::CNull]).unwrap();
        let a = t.insert(row!["a", Value::CNull, Value::CNull]).unwrap();
        let b = t.insert(row!["b", Value::CNull, Value::CNull]).unwrap();
        assert!(t.rollback_insert(b).unwrap());
        assert!(t.rollback_insert(a).unwrap());
        // Tuple-id space is as if the inserts never happened.
        let next = t.insert(row!["next", Value::CNull, Value::CNull]).unwrap();
        assert_eq!(next, a, "slot must be reallocated, not burned");
        assert!(t.get(keep).unwrap().is_some());
        // Rolling back a non-tail tuple degrades to a plain delete.
        assert!(t.rollback_insert(keep).unwrap());
        assert_eq!(t.stats().live_rows, 1);
        assert!(!t.rollback_insert(keep).unwrap(), "already gone");
    }

    #[test]
    fn insert_and_scan() {
        let mut t = talk_table();
        let t1 = t
            .insert(row!["CrowdDB", Value::CNull, Value::CNull])
            .unwrap();
        let t2 = t.insert(row!["Qurk", "abstract text", 120i64]).unwrap();
        assert_ne!(t1, t2);
        assert_eq!(t.stats().live_rows, 2);
        assert_eq!(t.stats().cnull_values, 2);
        let rows = t.scan_rows().unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].1[0], Value::str("CrowdDB"));
    }

    #[test]
    fn cursor_streams_in_tid_order() {
        let mut t = talk_table();
        for i in 0..50i64 {
            t.insert(row![format!("talk-{i:03}"), Value::CNull, i])
                .unwrap();
        }
        t.delete(TupleId(10)).unwrap();
        let mut cur = t.cursor().unwrap();
        let mut tids = Vec::new();
        while let Some((tid, _)) = cur.next().unwrap() {
            tids.push(tid.0);
        }
        let expected: Vec<u64> = (0..50).filter(|&i| i != 10).collect();
        assert_eq!(tids, expected);
    }

    #[test]
    fn pk_uniqueness_enforced() {
        let mut t = talk_table();
        t.insert(row!["CrowdDB", Value::CNull, Value::CNull])
            .unwrap();
        let err = t
            .insert(row!["CrowdDB", Value::CNull, Value::CNull])
            .unwrap_err();
        assert_eq!(err.category(), "constraint");
        assert_eq!(t.stats().live_rows, 1);
    }

    #[test]
    fn type_mismatch_rejected() {
        let mut t = talk_table();
        let err = t.insert(row!["x", "abs", "not a number"]).unwrap_err();
        assert_eq!(err.category(), "constraint");
    }

    #[test]
    fn arity_mismatch_rejected() {
        let mut t = talk_table();
        assert!(t.insert(row!["x"]).is_err());
    }

    #[test]
    fn cnull_only_in_crowd_columns() {
        let mut t = talk_table();
        let err = t.insert(row![Value::CNull, "a", 1i64]).unwrap_err();
        assert!(err.message().contains("not a CROWD column"), "{err}");
    }

    #[test]
    fn cnull_anywhere_in_crowd_tables() {
        let schema = TableSchema::new(
            "attendee",
            vec![
                ColumnDef::new("name", DataType::Str),
                ColumnDef::new("title", DataType::Str),
            ],
        )
        .unwrap()
        .crowd();
        let mut t = HeapTable::new(pager(), schema).unwrap();
        assert!(t.insert(row!["Alice", Value::CNull]).is_ok());
    }

    #[test]
    fn not_null_enforced_on_pk() {
        let mut t = talk_table();
        let err = t.insert(row![Value::Null, "a", 1i64]).unwrap_err();
        assert_eq!(err.category(), "constraint");
    }

    #[test]
    fn delete_updates_stats_and_index() {
        let mut t = talk_table();
        let tid = t.insert(row!["CrowdDB", Value::CNull, 5i64]).unwrap();
        assert!(t.delete(tid).unwrap());
        assert!(!t.delete(tid).unwrap());
        assert_eq!(t.stats().live_rows, 0);
        assert_eq!(t.stats().cnull_values, 0);
        // PK is free again after deletion.
        t.insert(row!["CrowdDB", "a", 5i64]).unwrap();
    }

    #[test]
    fn tuple_ids_not_reused() {
        let mut t = talk_table();
        let t1 = t.insert(row!["a", "x", 1i64]).unwrap();
        t.delete(t1).unwrap();
        let t2 = t.insert(row!["b", "y", 2i64]).unwrap();
        assert_ne!(t1, t2);
        assert!(t.get(t1).unwrap().is_none());
        assert!(t.get(t2).unwrap().is_some());
    }

    #[test]
    fn update_value_write_back() {
        let mut t = talk_table();
        let tid = t
            .insert(row!["CrowdDB", Value::CNull, Value::CNull])
            .unwrap();
        t.update_value(tid, 1, Value::str("the abstract")).unwrap();
        assert_eq!(t.get(tid).unwrap().unwrap()[1], Value::str("the abstract"));
        assert_eq!(t.stats().cnull_values, 1);
        t.update_value(tid, 2, Value::Int(250)).unwrap();
        assert_eq!(t.stats().cnull_values, 0);
    }

    #[test]
    fn compare_on_write_declines_a_changed_or_missing_row() {
        let mut t = talk_table();
        let tid = t.insert(row!["CrowdDB", Value::CNull, 1i64]).unwrap();
        let selected = t.get(tid).unwrap().unwrap();
        t.update_value(tid, 1, Value::str("written back")).unwrap();
        let current = t.get(tid).unwrap().unwrap();
        // The image moved on: neither write happens, nothing changes.
        assert!(!t.update_if(tid, &selected, row!["X", "y", 2i64]).unwrap());
        assert!(!t.delete_if(tid, &selected).unwrap());
        assert_eq!(t.get(tid).unwrap(), Some(current.clone()));
        assert_eq!(t.lookup_pk(&[Value::str("CrowdDB")]).unwrap(), vec![tid]);
        // Against the image that is there, both go through — and the
        // compare reads no page the unconditional write would not.
        let touches = |t: &HeapTable| {
            let s = t.pager().stats();
            s.pool_hits + s.pool_misses
        };
        let before = touches(&t);
        assert!(t
            .update_if(tid, &current, row!["CrowdDB", "written over", 2i64])
            .unwrap());
        let compared = touches(&t) - before;
        let before = touches(&t);
        t.update(tid, row!["CrowdDB", "written anew", 3i64])
            .unwrap();
        assert_eq!(compared, touches(&t) - before);
        let stored = t.get(tid).unwrap().unwrap();
        assert!(t.delete_if(tid, &stored).unwrap());
        assert!(!t.delete_if(tid, &stored).unwrap(), "already gone");
        assert!(!t.update_if(tid, &stored, stored.clone()).unwrap());
        assert_eq!(t.stats().live_rows, 0);
    }

    #[test]
    fn update_maintains_pk_index() {
        let mut t = talk_table();
        let tid = t.insert(row!["Old", Value::CNull, 1i64]).unwrap();
        t.update_value(tid, 0, Value::str("New")).unwrap();
        assert_eq!(t.lookup_pk(&[Value::str("New")]).unwrap(), vec![tid]);
        assert!(t.lookup_pk(&[Value::str("Old")]).unwrap().is_empty());
    }

    #[test]
    fn update_pk_conflict_rejected() {
        let mut t = talk_table();
        t.insert(row!["A", Value::CNull, 1i64]).unwrap();
        let tid_b = t.insert(row!["B", Value::CNull, 2i64]).unwrap();
        let err = t.update_value(tid_b, 0, Value::str("A")).unwrap_err();
        assert_eq!(err.category(), "constraint");
        // Row B unchanged after the failed update.
        assert_eq!(t.get(tid_b).unwrap().unwrap()[0], Value::str("B"));
    }

    #[test]
    fn int_widens_to_float() {
        let schema = TableSchema::new("m", vec![ColumnDef::new("score", DataType::Float)]).unwrap();
        let mut t = HeapTable::new(pager(), schema).unwrap();
        let tid = t.insert(row![3i64]).unwrap();
        let stored = t.get(tid).unwrap().unwrap()[0].clone();
        // `Value`'s `==` holds `3 == 3.0`: match the variant.
        assert!(matches!(stored, Value::Float(f) if f == 3.0), "{stored:?}");
    }

    #[test]
    fn secondary_index_backfill_and_lookup() {
        let mut t = talk_table();
        t.insert(row!["a", "x", 10i64]).unwrap();
        t.insert(row!["b", "y", 20i64]).unwrap();
        t.insert(row!["c", "z", 10i64]).unwrap();
        t.add_index("talk_att", vec![2], false).unwrap();
        let idx = t.index_on(&[2]).unwrap();
        assert_eq!(
            idx.get(t.pager(), &IndexKey(vec![Value::Int(10)]))
                .unwrap()
                .len(),
            2
        );
        assert_eq!(
            idx.get(t.pager(), &IndexKey(vec![Value::Int(20)])).unwrap(),
            vec![TupleId(1)]
        );
    }

    #[test]
    fn duplicate_index_name_rejected() {
        let mut t = talk_table();
        t.add_index("i1", vec![2], false).unwrap();
        assert!(t.add_index("i1", vec![1], false).is_err());
    }

    #[test]
    fn unique_index_backfill_conflict() {
        let mut t = talk_table();
        t.insert(row!["a", "x", 10i64]).unwrap();
        t.insert(row!["b", "y", 10i64]).unwrap();
        let err = t.add_index("u", vec![2], true).unwrap_err();
        assert_eq!(err.category(), "constraint");
        assert!(t.index_on(&[2]).is_none(), "failed index not attached");
    }

    #[test]
    fn nulls_do_not_conflict_in_unique_index() {
        let schema = TableSchema::new(
            "t",
            vec![
                ColumnDef::new("id", DataType::Int),
                ColumnDef::new("email", DataType::Str),
            ],
        )
        .unwrap()
        .with_primary_key(&["id"])
        .unwrap();
        let mut t = HeapTable::new(pager(), schema).unwrap();
        t.add_index("u_email", vec![1], true).unwrap();
        t.insert(row![1i64, Value::Null]).unwrap();
        t.insert(row![2i64, Value::Null]).unwrap(); // no conflict
        let err = t.insert(row![3i64, Value::Null]);
        assert!(err.is_ok());
    }

    #[test]
    fn a_violated_later_constraint_leaves_no_entry_in_an_earlier_index() {
        let schema = TableSchema::new(
            "t",
            vec![
                ColumnDef::new("id", DataType::Int),
                ColumnDef::new("email", DataType::Str),
            ],
        )
        .unwrap()
        .with_primary_key(&["id"])
        .unwrap();
        let mut t = HeapTable::new(pager(), schema).unwrap();
        t.add_index("u_email", vec![1], true).unwrap();
        t.insert(row![1i64, "a@b"]).unwrap();
        // `id` 2 is free, the e-mail is taken: checked after `t_pk`.
        let err = t.insert(row![2i64, "a@b"]).unwrap_err();
        assert_eq!(err.category(), "constraint");
        assert!(t.lookup_pk(&[Value::Int(2)]).unwrap().is_empty());
        assert_eq!(t.stats().live_rows, 1);
        assert_eq!(t.insert(row![2i64, "c@d"]).unwrap(), TupleId(1));
    }

    #[test]
    fn nan_rejected_at_insert() {
        let schema = TableSchema::new("m", vec![ColumnDef::new("score", DataType::Float)]).unwrap();
        let mut t = HeapTable::new(pager(), schema).unwrap();
        assert!(t.insert(row![f64::NAN]).is_err());
    }

    #[test]
    fn large_rows_round_trip_through_overflow() {
        let mut t = talk_table();
        let big = "x".repeat(4000);
        let tid = t.insert(row!["big", big.clone(), 1i64]).unwrap();
        assert_eq!(t.get(tid).unwrap().unwrap()[1], Value::str(&big));
        let rows = t.scan_rows().unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].1[1], Value::str(&big));
    }

    /// `t`: a primary key, a unique index on `email`, a plain one on
    /// `name` and a NOT NULL `age`, holding rows 0 to 2.
    fn parity_table(page_size: usize) -> HeapTable {
        let schema = TableSchema::new(
            "t",
            vec![
                ColumnDef::new("id", DataType::Int),
                ColumnDef::new("email", DataType::Str),
                ColumnDef::new("name", DataType::Str),
                ColumnDef::new("age", DataType::Int).not_null(),
            ],
        )
        .unwrap()
        .with_primary_key(&["id"])
        .unwrap();
        let pager = Pager::new_mem(PagerConfig {
            page_size,
            pool_pages: 0,
        })
        .unwrap();
        let mut t = HeapTable::new(Arc::new(pager), schema).unwrap();
        t.add_index("u_email", vec![1], true).unwrap();
        t.add_index("t_name", vec![2], false).unwrap();
        for i in 0..3i64 {
            t.insert(row![i, format!("e{i}"), format!("n{i}"), i])
                .unwrap();
        }
        t
    }

    /// Every page image the table's pager holds.
    fn images(t: &HeapTable) -> Vec<Vec<u8>> {
        (1..t.pager().page_count())
            .map(|id| t.pager().read(id).unwrap().to_vec())
            .collect()
    }

    /// `rows` at the next tuple ids, in one run.
    fn insert_run(t: &mut HeapTable, rows: &[Row]) -> Result<()> {
        let next = t.next_tid().0;
        t.insert_rows((next..).map(TupleId).zip(rows.iter().cloned()).collect())
            .map(drop)
    }

    #[test]
    fn a_run_fails_as_row_at_a_time_would_and_writes_nothing() {
        let long = "x".repeat(300);
        let ok = |i: i64| row![i, format!("e{i}"), format!("n{i}"), i];
        let batches: Vec<(&str, Vec<Row>)> = vec![
            ("a stored id", vec![ok(10), ok(11), ok(1), ok(12)]),
            (
                "an earlier row's id",
                vec![ok(10), ok(11), ok(10), row![12, "e12", long.clone(), 12]],
            ),
            (
                "a stored email",
                vec![ok(10), ok(11), row![12, "e0", "n", 12], ok(1)],
            ),
            (
                "an earlier row's email",
                vec![ok(10), ok(11), row![12, "e10", "n", 12]],
            ),
            (
                "a long name",
                vec![ok(10), ok(11), row![12, "e12", long.clone(), 12], ok(0)],
            ),
            (
                "a stored id and a long name in one row",
                vec![ok(10), row![1, "e12", long.clone(), 12]],
            ),
            (
                "a type",
                vec![ok(10), ok(11), row![12, "e12", "n", "many"], ok(1)],
            ),
            (
                "NOT NULL, then a repeat",
                vec![ok(10), row![11, "e11", "n", Value::Null], ok(1)],
            ),
            ("arity", vec![ok(10), row![11]]),
            (
                "an earlier row's id past 2^53",
                vec![ok(1 << 53), ok((1 << 53) + 1), ok(1 << 53)],
            ),
            (
                "a repeat before a type",
                vec![ok(10), ok(1), row![12, "e12", "n", "many"]],
            ),
        ];
        for page_size in [512, 4096] {
            for (what, batch) in &batches {
                let what = format!("page {page_size}: {what}");
                let mut run = parity_table(page_size);
                let before = (images(&run), run.stats());
                let err = insert_run(&mut run, batch).unwrap_err();
                assert_eq!((images(&run), run.stats()), before, "{what}: written");
                let mut single = parity_table(page_size);
                let first = (batch.iter())
                    .find_map(|row| single.insert(row.clone()).err())
                    .expect(&what);
                assert_eq!(err.message(), first.message(), "{what}");
            }
            // Keys missing a value repeat nothing.
            let mut t = parity_table(page_size);
            let nulls = [
                row![10, Value::Null, "n", 10],
                row![11, Value::Null, "n", 11],
            ];
            insert_run(&mut t, &nulls).unwrap();
            assert_eq!(t.stats().live_rows, 5);
        }
    }

    #[test]
    fn rows_loaded_in_runs_match_rows_loaded_one_at_a_time() {
        use crowddb_common::rng::Rng;
        for page_size in [512, 4096] {
            let mut rng = Rng::seed_from_u64(page_size as u64);
            let rows: Vec<Row> = (3..2003i64)
                .map(|i| {
                    let email = match i % 11 {
                        0 => Value::Null,
                        _ => Value::str(format!("e{:05}", (i * 7919) % 10007)),
                    };
                    let name = format!("name {}", rng.gen_range(0..300));
                    row![i, email, name, i % 37]
                })
                .collect();
            let mut one = parity_table(page_size);
            for row in &rows {
                one.insert(row.clone()).unwrap();
            }
            let mut runs = parity_table(page_size);
            let mut rest = &rows[..];
            while !rest.is_empty() {
                let n = rng.gen_range(1..=300usize).min(rest.len());
                insert_run(&mut runs, &rest[..n]).unwrap();
                rest = &rest[n..];
            }
            let what = format!("page {page_size}");
            assert_eq!(
                one.scan_rows().unwrap(),
                runs.scan_rows().unwrap(),
                "{what}"
            );
            assert_eq!(one.stats(), runs.stats(), "{what}");
            for (a, b) in one.indexes().iter().zip(runs.indexes()) {
                let all = |t: &HeapTable, idx: &Index| {
                    let mut tids = idx.missing_key_tids(t.pager()).unwrap();
                    tids.extend(idx.range(t.pager(), None, None).unwrap());
                    tids
                };
                assert_eq!(all(&one, a), all(&runs, b), "{what}: {}", a.name);
            }
            // Ids ascend, so the primary tree and the primary key's index
            // are filled in key order: node for node the same.
            assert_eq!(
                one.primary.contents(one.pager()),
                runs.primary.contents(runs.pager()),
                "{what}: primary tree"
            );
            assert_eq!(
                one.indexes[0].tree().contents(one.pager()),
                runs.indexes[0].tree().contents(runs.pager()),
                "{what}: t_pk"
            );
        }
    }
}
