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

use crate::btree::{BTree, KeyCmp};
use crate::cursor::{encode_tid_key, TableCursor};
use crate::index::{Index, IndexKey};
use crate::page::PageId;
use crate::pager::Pager;

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

    fn check_unique(&self, idx: &Index, key: &IndexKey, ignore: Option<TupleId>) -> Result<()> {
        if !idx.unique {
            return Ok(());
        }
        // Keys containing missing values never conflict (SQL semantics).
        if key.has_missing() {
            return Ok(());
        }
        let hit = idx
            .get(&self.pager, key)?
            .iter()
            .any(|t| Some(*t) != ignore);
        if hit {
            return Err(CrowdError::Constraint(format!(
                "unique constraint '{}' violated by key {:?}",
                idx.name,
                key.0.iter().map(Value::sql_literal).collect::<Vec<_>>()
            )));
        }
        Ok(())
    }

    fn write_primary(&mut self, tid: TupleId, row: &Row) -> Result<()> {
        let mut buf = Vec::new();
        codec::encode_row(&mut buf, row);
        self.primary.insert(&self.pager, &encode_tid_key(tid), &buf)
    }

    /// Insert a row, returning its tuple id.
    pub fn insert(&mut self, row: Row) -> Result<TupleId> {
        let tid = TupleId(self.total_slots);
        self.restore_at(tid, row)?;
        Ok(tid)
    }

    /// Place a row at a specific tuple id, reserving any intermediate
    /// ids. This is the snapshot/recovery path: tuple ids must survive a
    /// restart unchanged, because the write-ahead log addresses
    /// crowd-answer write-backs by tuple id.
    pub fn restore_at(&mut self, tid: TupleId, row: Row) -> Result<()> {
        let row = self.validate_row(row)?;
        if self.get(tid)?.is_some() {
            return Err(CrowdError::Internal(format!(
                "tuple slot {tid} of table '{}' is already occupied",
                self.schema.name
            )));
        }
        // Every constraint is checked before anything is written, so a
        // violation leaves no entry behind.
        let keys: Vec<IndexKey> = self
            .indexes
            .iter()
            .map(|idx| idx.key_of(row.values()))
            .collect();
        for (idx, key) in self.indexes.iter().zip(&keys) {
            self.check_unique(idx, key, None)?;
        }
        let pager = Arc::clone(&self.pager);
        for (idx, key) in self.indexes.iter_mut().zip(&keys) {
            idx.insert(&pager, key, tid)?;
        }
        self.write_primary(tid, &row)?;
        self.total_slots = self.total_slots.max(tid.0 + 1);
        self.cnull_values += row.cnull_columns().len();
        self.live_rows += 1;
        Ok(())
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
        for idx in &self.indexes {
            let key = idx.key_of(new_row.values());
            self.check_unique(idx, &key, Some(tid))?;
        }
        let pager = Arc::clone(&self.pager);
        for idx in &mut self.indexes {
            let old_key = idx.key_of(old.values());
            let new_key = idx.key_of(new_row.values());
            if old_key != new_key {
                idx.remove(&pager, &old_key, tid)?;
                idx.insert(&pager, &new_key, tid)?;
            }
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

    fn backfill(&self, index: &mut Index) -> Result<()> {
        let mut cur = self.cursor()?;
        while let Some((tid, row)) = cur.next()? {
            let key = index.key_of(row.values());
            if index.unique && !key.has_missing() && !index.get(&self.pager, &key)?.is_empty() {
                return Err(CrowdError::Constraint(format!(
                    "unique constraint '{}' violated by key {:?}",
                    index.name,
                    key.0.iter().map(Value::sql_literal).collect::<Vec<_>>()
                )));
            }
            index.insert(&self.pager, &key, tid)?;
        }
        Ok(())
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
}
