//! The database: catalog + paged tables behind a single lock, plus
//! snapshots and checkpoint orchestration hooks.
//!
//! CrowdDB executes queries in rounds: run the plan, collect crowd task
//! requests, post them, ingest answers (write-back), re-run. Within one
//! run only reads happen; write-back happens between runs. A single
//! `RwLock` therefore gives us all the concurrency the engine needs while
//! keeping the invariants trivially safe (many concurrent readers, one
//! writer between rounds). All page state lives in one shared [`Pager`]
//! (in-memory by default, file-backed for durable sessions).

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;

use crowddb_common::codec::{self, put_str, put_u32, put_u64, Reader};
use crowddb_common::sync::RwLock;
use crowddb_common::{CrowdError, Result, Row, TableSchema, TupleId, Value};

use crate::catalog::Catalog;
use crate::index::Index;
use crate::logrec::LogRecord;
use crate::page;
use crate::pager::{CheckpointPrep, Pager, PagerConfig, PAGES_FILE};
use crate::pool::PagerStats;
use crate::table::{HeapTable, TableStats};

/// Magic + version prefix of a [`Database::snapshot`] buffer. Version 2
/// preserves tuple ids (slot indexes) so that write-ahead-log records
/// addressing tuples by id replay correctly against a restored snapshot.
const SNAPSHOT_MAGIC: &[u8; 5] = b"CDBS\x02";

/// Magic + version prefix of a paged-metadata snapshot
/// ([`Database::begin_checkpoint`]): tree roots and allocation state
/// instead of row payloads — rows live in the page file.
const META_MAGIC: &[u8; 5] = b"CDBM\x01";

#[derive(Debug, Default)]
struct Inner {
    catalog: Catalog,
    tables: BTreeMap<String, HeapTable>,
}

/// A CrowdDB database instance: the storage-facing API used by the
/// executor, the task manager (write-back), and DDL.
#[derive(Debug)]
pub struct Database {
    pager: Arc<Pager>,
    inner: RwLock<Inner>,
}

impl Default for Database {
    fn default() -> Database {
        Database::new()
    }
}

impl Database {
    /// Create an empty in-memory database. Pager knobs come from
    /// [`PagerConfig::default`] (env-overridable); an invalid env page
    /// size falls back to the built-in default rather than failing.
    pub fn new() -> Database {
        let cfg = PagerConfig::default();
        let pager = Pager::new_mem(cfg).unwrap_or_else(|_| {
            Pager::new_mem(PagerConfig {
                page_size: page::DEFAULT_PAGE_SIZE,
                pool_pages: cfg.pool_pages,
            })
            .expect("default page size is valid")
        });
        Database::with_pager(pager)
    }

    /// Create an empty in-memory database with explicit pager knobs.
    pub fn new_with_config(cfg: PagerConfig) -> Result<Database> {
        Ok(Database::with_pager(Pager::new_mem(cfg)?))
    }

    /// Create a fresh file-backed database in `dir`. A page file already
    /// there belongs to no committed checkpoint — the caller would hold
    /// its metadata and call [`Database::open_paged`] — so nothing in it
    /// is reachable, whatever its page size and however much of its
    /// header reached the disk: it is replaced.
    pub fn open_file(dir: &Path, cfg: PagerConfig) -> Result<Database> {
        let stale = dir.join(PAGES_FILE);
        match std::fs::remove_file(&stale) {
            Ok(()) => {}
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => {
                return Err(CrowdError::Io(format!(
                    "pager: remove {}: {e}",
                    stale.display()
                )))
            }
        }
        Ok(Database::with_pager(Pager::open_file(dir, cfg, 0)?))
    }

    fn with_pager(pager: Pager) -> Database {
        Database {
            pager: Arc::new(pager),
            inner: RwLock::new(Inner::default()),
        }
    }

    /// Reopen a file-backed database from a paged-metadata snapshot
    /// (the payload committed by the last checkpoint). Recovers the
    /// dirty-page journal, restores allocation state, and re-attaches
    /// every table to its trees. `cfg.page_size` is ignored in favor of
    /// the recorded one (a page file cannot change page size).
    pub fn open_paged(dir: &Path, cfg: PagerConfig, meta: &[u8]) -> Result<Database> {
        let meta = decode_meta(meta)?;
        let pager = Pager::open_file(
            dir,
            PagerConfig {
                page_size: meta.page_size,
                pool_pages: cfg.pool_pages,
            },
            meta.epoch,
        )?;
        pager.set_alloc_state(meta.free, meta.page_count, meta.epoch);
        let db = Database::with_pager(pager);
        // Attach every table to its recorded trees.
        db.create_deferred(
            "meta",
            meta.tables,
            |entry| (entry.name.as_str(), entry.ddl.as_str()),
            |entry, schema| {
                let mut inner = db.inner.write();
                inner.catalog.register(schema.clone())?;
                let indexes = entry
                    .indexes
                    .iter()
                    .map(|i| Index::open(i.name.clone(), i.columns.clone(), i.unique, i.root))
                    .collect();
                let table = HeapTable::from_parts(
                    Arc::clone(&db.pager),
                    schema,
                    entry.primary_root,
                    entry.total_slots,
                    entry.live_rows,
                    entry.cnull_values,
                    indexes,
                );
                inner.tables.insert(entry.name.clone(), table);
                Ok(())
            },
        )?;
        Ok(db)
    }

    /// Create tables from decoded `(name, DDL)` entries in dependency
    /// order: an entry whose foreign-key target is not registered yet
    /// waits for a later round (images list tables alphabetically, not
    /// topologically). `attach` builds the table once its schema resolves.
    fn create_deferred<E>(
        &self,
        what: &str,
        mut pending: Vec<E>,
        ddl_of: impl Fn(&E) -> (&str, &str),
        mut attach: impl FnMut(&E, TableSchema) -> Result<()>,
    ) -> Result<()> {
        while !pending.is_empty() {
            let before = pending.len();
            let mut next_round = Vec::new();
            for entry in pending {
                let (name, ddl) = ddl_of(&entry);
                let stmt = crowddb_sql::parse_statement(ddl).map_err(|e| {
                    CrowdError::Internal(format!("{what}: bad DDL for '{name}': {e}"))
                })?;
                let crowddb_sql::Statement::CreateTable(ct) = stmt else {
                    return Err(CrowdError::Internal(format!(
                        "{what}: DDL for '{name}' is not CREATE TABLE"
                    )));
                };
                match self.with_catalog(|c| c.schema_from_ast(&ct)) {
                    Ok(schema) => attach(&entry, schema)?,
                    Err(CrowdError::Catalog(msg)) if msg.contains("unknown table") => {
                        next_round.push(entry);
                    }
                    Err(e) => return Err(e),
                }
            }
            if next_round.len() == before {
                return Err(CrowdError::Internal(format!(
                    "{what}: circular or dangling foreign keys"
                )));
            }
            pending = next_round;
        }
        Ok(())
    }

    /// Cumulative pager counters (page reads/writes, pool hits/misses).
    pub fn pager_stats(&self) -> PagerStats {
        self.pager.stats()
    }

    /// The configured page size.
    pub fn page_size(&self) -> usize {
        self.pager.page_size()
    }

    /// Whether pages persist to a file (checkpoints flush dirty pages).
    pub fn is_file_backed(&self) -> bool {
        self.pager.is_file_backed()
    }

    /// Whether `bytes` is a paged-metadata snapshot (as produced by
    /// [`Database::begin_checkpoint`]) rather than a full-state snapshot.
    pub fn is_paged_meta(bytes: &[u8]) -> bool {
        bytes.starts_with(META_MAGIC)
    }

    /// Number of dirty (unflushed) pages.
    pub fn dirty_pages(&self) -> usize {
        self.pager.dirty_count()
    }

    /// First half of a durable checkpoint (file-backed only): journal
    /// every dirty page, then capture the paged-metadata snapshot for the
    /// caller to commit. Row data is *not* serialized — that is the point
    /// of paged checkpoints. Call [`Database::complete_checkpoint`] after
    /// the metadata commit succeeds.
    pub fn begin_checkpoint(&self) -> Result<(CheckpointPrep, Vec<u8>)> {
        // Hold the read lock across journal + metadata capture so no DML
        // can slip between them.
        let inner = self.inner.read();
        let prep = self.pager.begin_checkpoint()?;
        let meta = encode_meta(&self.pager, &inner, prep.epoch);
        Ok((prep, meta))
    }

    /// Second half of a durable checkpoint: apply journaled pages to the
    /// page file and mark them clean.
    pub fn complete_checkpoint(&self, prep: &CheckpointPrep) -> Result<()> {
        self.pager.complete_checkpoint(prep)
    }

    /// Create a table from a schema. Single-column foreign keys get an
    /// automatic non-unique B-tree index (`<table>_fk_<column>`) so crowd
    /// joins over the FK can run as index-nested-loop probes; this runs
    /// on every path that creates tables (DDL, WAL replay, restore), so
    /// replayed databases carry identical indexes.
    pub fn create_table(&self, schema: TableSchema) -> Result<()> {
        let mut inner = self.inner.write();
        let name = schema.name.clone();
        inner.catalog.register(schema.clone())?;
        let mut table = HeapTable::new(Arc::clone(&self.pager), schema)?;
        let fk_specs: Vec<(String, usize)> = table
            .schema()
            .foreign_keys
            .iter()
            .filter(|fk| fk.columns.len() == 1)
            .map(|fk| {
                let ord = fk.columns[0];
                let col = table.schema().columns[ord].name.clone();
                (col, ord)
            })
            .collect();
        for (col, ord) in fk_specs {
            if table.index_on(&[ord]).is_none() {
                table.add_index(format!("{name}_fk_{col}"), vec![ord], false)?;
            }
        }
        inner.tables.insert(name, table);
        Ok(())
    }

    /// Drop a table, freeing its pages.
    pub fn drop_table(&self, name: &str, if_exists: bool) -> Result<()> {
        let mut inner = self.inner.write();
        let lname = name.to_ascii_lowercase();
        if inner.catalog.remove(&lname).is_none() {
            if if_exists {
                return Ok(());
            }
            return Err(CrowdError::Catalog(format!(
                "table '{lname}' does not exist"
            )));
        }
        if let Some(table) = inner.tables.remove(&lname) {
            table.free()?;
        }
        Ok(())
    }

    /// Fetch a table's schema.
    pub fn schema(&self, name: &str) -> Result<TableSchema> {
        self.inner
            .read()
            .catalog
            .get(name)
            .cloned()
            .ok_or_else(|| CrowdError::Catalog(format!("table '{name}' does not exist")))
    }

    /// Run `f` against the catalog.
    pub fn with_catalog<R>(&self, f: impl FnOnce(&Catalog) -> R) -> R {
        f(&self.inner.read().catalog)
    }

    /// Run `f` with read access to a table.
    pub fn with_table<R>(&self, name: &str, f: impl FnOnce(&HeapTable) -> R) -> Result<R> {
        let inner = self.inner.read();
        let t = inner
            .tables
            .get(&name.to_ascii_lowercase())
            .ok_or_else(|| CrowdError::Catalog(format!("table '{name}' does not exist")))?;
        Ok(f(t))
    }

    /// Run `f` with write access to a table.
    pub fn with_table_mut<R>(
        &self,
        name: &str,
        f: impl FnOnce(&mut HeapTable) -> Result<R>,
    ) -> Result<R> {
        let mut inner = self.inner.write();
        let t = inner
            .tables
            .get_mut(&name.to_ascii_lowercase())
            .ok_or_else(|| CrowdError::Catalog(format!("table '{name}' does not exist")))?;
        f(t)
    }

    /// Insert a row at the table's next tuple id: a run of one.
    pub fn insert(&self, table: &str, row: Row) -> Result<TupleId> {
        self.with_table_mut(table, |t| {
            let tid = t.next_tid();
            t.insert_rows(vec![(tid, row)]).map(|_| tid)
        })
    }

    /// Write back a crowdsourced value into a specific column of a tuple.
    pub fn write_back_value(
        &self,
        table: &str,
        tid: TupleId,
        col: usize,
        value: Value,
    ) -> Result<()> {
        self.with_table_mut(table, |t| t.update_value(tid, col, value))
    }

    /// Insert a crowdsourced tuple into a CROWD table, ignoring
    /// primary-key conflicts (two workers may contribute the same entity —
    /// the first one wins, which is the paper's dedup-by-key behaviour).
    ///
    /// Returns `Ok(Some(tid))` when inserted, `Ok(None)` on a duplicate.
    pub fn write_back_tuple(&self, table: &str, row: Row) -> Result<Option<TupleId>> {
        match self.insert(table, row) {
            Ok(tid) => Ok(Some(tid)),
            Err(CrowdError::Constraint(msg)) if msg.contains("unique constraint") => Ok(None),
            Err(e) => Err(e),
        }
    }

    /// Create a secondary index.
    pub fn create_index(
        &self,
        name: &str,
        table: &str,
        columns: &[String],
        unique: bool,
    ) -> Result<()> {
        self.with_table_mut(table, |t| {
            let mut ords = Vec::with_capacity(columns.len());
            for c in columns {
                ords.push(t.schema().column_index(c).ok_or_else(|| {
                    CrowdError::Catalog(format!("column '{c}' not found in table '{table}'"))
                })?);
            }
            t.add_index(name, ords, unique)
        })
    }

    /// Statistics for one table.
    pub fn stats(&self, table: &str) -> Result<TableStats> {
        self.with_table(table, |t| t.stats())
    }

    /// Names of all tables.
    pub fn table_names(&self) -> Vec<String> {
        self.inner.read().tables.keys().cloned().collect()
    }

    /// Apply one write-ahead-log record to this database.
    ///
    /// Returns `Ok(true)` when the record was a storage-level record
    /// (DDL, crowd-answer write-back, crowd-table tuple insertion) and was
    /// applied, `Ok(false)` when the record requires engine-level replay
    /// (logical DML, comparison-cache verdicts) and was left untouched.
    /// Recovery must apply records in log order.
    pub fn apply(&self, rec: &LogRecord) -> Result<bool> {
        match rec {
            LogRecord::Ddl { sql } => {
                let stmt = crowddb_sql::parse_statement(sql)
                    .map_err(|e| CrowdError::Io(format!("wal: bad DDL record '{sql}': {e}")))?;
                match stmt {
                    crowddb_sql::Statement::CreateTable(ct) => {
                        let schema = self.with_catalog(|c| c.schema_from_ast(&ct))?;
                        self.create_table(schema)?;
                    }
                    crowddb_sql::Statement::CreateIndex(ci) => {
                        self.create_index(&ci.name, &ci.table, &ci.columns, ci.unique)?;
                    }
                    crowddb_sql::Statement::DropTable { name, if_exists } => {
                        self.drop_table(&name, if_exists)?;
                    }
                    other => {
                        return Err(CrowdError::Io(format!(
                            "wal: DDL record holds non-DDL statement '{other}'"
                        )))
                    }
                }
                Ok(true)
            }
            LogRecord::WriteBackValue {
                table,
                tid,
                col,
                value,
            } => {
                self.write_back_value(table, *tid, *col, value.clone())?;
                Ok(true)
            }
            LogRecord::WriteBackTuple { table, row } => {
                self.write_back_tuple(table, row.clone())?;
                Ok(true)
            }
            LogRecord::Dml { .. } | LogRecord::PutEqual { .. } | LogRecord::PutOrder { .. } => {
                Ok(false)
            }
        }
    }

    /// Serialize the whole database (schemas as DDL text + rows in the
    /// binary codec) into one buffer. Used for session persistence and
    /// memory-backed checkpoints; file-backed databases checkpoint via
    /// [`Database::begin_checkpoint`] instead, but can still produce this
    /// logical snapshot (it reads every row through the pool).
    ///
    /// Tuple ids and the slot high-water mark are preserved, so a
    /// restored database is *identical* to the source — including the ids
    /// that future write-ahead-log records will address — not merely
    /// equivalent row-content-wise. The byte format is independent of
    /// page size and pool budget.
    pub fn snapshot(&self) -> Result<Vec<u8>> {
        let inner = self.inner.read();
        let mut buf = SNAPSHOT_MAGIC.to_vec();
        put_u32(&mut buf, inner.tables.len() as u32);
        for (name, table) in &inner.tables {
            put_str(&mut buf, name);
            put_str(&mut buf, &table.schema().to_ddl());
            put_u64(&mut buf, table.stats().total_slots as u64);
            let live = table.scan_rows()?;
            let mut rows_buf = Vec::new();
            put_u64(&mut rows_buf, live.len() as u64);
            for (tid, row) in live {
                put_u64(&mut rows_buf, tid.0);
                codec::encode_row(&mut rows_buf, &row);
            }
            put_u64(&mut buf, rows_buf.len() as u64);
            buf.extend_from_slice(&rows_buf);
        }
        Ok(buf)
    }

    /// Restore an in-memory database from a [`Database::snapshot`]
    /// buffer.
    pub fn restore(snapshot: &[u8]) -> Result<Database> {
        let db = Database::new();
        let r = &mut Reader::new(snapshot);
        if r.take(SNAPSHOT_MAGIC.len(), "snapshot magic")? != SNAPSHOT_MAGIC {
            return Err(CrowdError::Internal(
                "snapshot: bad magic (not a CrowdDB v2 snapshot)".into(),
            ));
        }
        // First pass: decode every table entry (name, DDL, slot
        // high-water mark, row section — 24 bytes of headers at least).
        let n_tables = r.count(24)?;
        let mut entries = Vec::with_capacity(n_tables);
        for _ in 0..n_tables {
            let name = r.str()?.to_string();
            let ddl = r.str()?.to_string();
            let total_slots = r.u64()? as usize;
            let len = r.u64()? as usize;
            entries.push((name, ddl, total_slots, r.take(len, "snapshot rows")?));
        }
        // Second pass: create the tables and load their rows.
        db.create_deferred(
            "snapshot",
            entries,
            |entry| (entry.0.as_str(), entry.1.as_str()),
            |(name, _, total_slots, rows_buf), schema| {
                db.create_table(schema)?;
                let rows = &mut Reader::new(rows_buf);
                // Each row is a tuple id and at least an arity.
                let n_rows = rows.count_u64(12)?;
                let mut restored = Vec::with_capacity(n_rows);
                for _ in 0..n_rows {
                    let tid = TupleId(rows.u64()?);
                    restored.push((tid, codec::decode_row(rows)?));
                }
                db.with_table_mut(name, |t| {
                    t.insert_rows(restored)?;
                    t.pad_slots(*total_slots);
                    Ok(())
                })
            },
        )?;
        Ok(db)
    }
}

struct MetaIndex {
    name: String,
    columns: Vec<usize>,
    unique: bool,
    root: u64,
}

struct MetaTable {
    name: String,
    ddl: String,
    total_slots: u64,
    live_rows: usize,
    cnull_values: usize,
    primary_root: u64,
    indexes: Vec<MetaIndex>,
}

struct Meta {
    epoch: u64,
    page_size: usize,
    page_count: u64,
    free: Vec<u64>,
    tables: Vec<MetaTable>,
}

fn encode_meta(pager: &Pager, inner: &Inner, epoch: u64) -> Vec<u8> {
    let mut buf = META_MAGIC.to_vec();
    put_u64(&mut buf, epoch);
    put_u32(&mut buf, pager.page_size() as u32);
    let (free, page_count) = pager.alloc_state();
    put_u64(&mut buf, page_count);
    put_u64(&mut buf, free.len() as u64);
    for id in free {
        put_u64(&mut buf, id);
    }
    put_u32(&mut buf, inner.tables.len() as u32);
    for (name, table) in &inner.tables {
        put_str(&mut buf, name);
        put_str(&mut buf, &table.schema().to_ddl());
        let stats = table.stats();
        put_u64(&mut buf, stats.total_slots as u64);
        put_u64(&mut buf, stats.live_rows as u64);
        put_u64(&mut buf, stats.cnull_values as u64);
        put_u64(&mut buf, table.primary_root());
        put_u32(&mut buf, table.indexes().len() as u32);
        for idx in table.indexes() {
            put_str(&mut buf, &idx.name);
            put_u32(&mut buf, idx.columns.len() as u32);
            for &c in &idx.columns {
                put_u32(&mut buf, c as u32);
            }
            // Once the index kind (0 = hash, 1 = B-tree); every index is
            // the one tree now, and the byte stays so old images open.
            buf.push(1);
            buf.push(idx.unique as u8);
            put_u64(&mut buf, idx.root());
        }
    }
    buf
}

/// Decode a paged-metadata image. Every count is checked against the
/// bytes that remain ([`Reader::count`]) before anything is sized by it,
/// so a corrupt image is a typed `internal` error, never an allocator
/// abort.
fn decode_meta(bytes: &[u8]) -> Result<Meta> {
    let r = &mut Reader::new(bytes);
    if r.take(META_MAGIC.len(), "meta magic")? != META_MAGIC {
        return Err(CrowdError::Internal(
            "meta: bad magic (not a CrowdDB paged-metadata snapshot)".into(),
        ));
    }
    let epoch = r.u64()?;
    let page_size = r.u32()? as usize;
    let page_count = r.u64()?;
    let n_free = r.count_u64(8)?;
    let mut free = Vec::with_capacity(n_free);
    for _ in 0..n_free {
        free.push(r.u64()?);
    }
    // A table is two strings, four u64s and an index count at least; an
    // index is a name, a column count, kind, unique and a root.
    let n_tables = r.count(4 + 4 + 8 * 4 + 4)?;
    let mut tables = Vec::with_capacity(n_tables);
    for _ in 0..n_tables {
        let name = r.str()?.to_string();
        let ddl = r.str()?.to_string();
        let total_slots = r.u64()?;
        let live_rows = r.u64()? as usize;
        let cnull_values = r.u64()? as usize;
        let primary_root = r.u64()?;
        let n_indexes = r.count(4 + 4 + 2 + 8)?;
        let mut indexes = Vec::with_capacity(n_indexes);
        for _ in 0..n_indexes {
            let iname = r.str()?.to_string();
            let n_cols = r.count(4)?;
            let mut columns = Vec::with_capacity(n_cols);
            for _ in 0..n_cols {
                columns.push(r.u32()? as usize);
            }
            let kind = r.u8()?;
            if kind > 1 {
                return Err(CrowdError::Internal(format!(
                    "meta: unknown index kind {kind}"
                )));
            }
            indexes.push(MetaIndex {
                name: iname,
                columns,
                unique: r.u8()? != 0,
                root: r.u64()?,
            });
        }
        tables.push(MetaTable {
            name,
            ddl,
            total_slots,
            live_rows,
            cnull_values,
            primary_root,
            indexes,
        });
    }
    Ok(Meta {
        epoch,
        page_size,
        page_count,
        free,
        tables,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowddb_common::{row, ColumnDef, DataType};

    fn talk_db() -> Database {
        let db = Database::new();
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
        db.create_table(schema).unwrap();
        db
    }

    #[test]
    fn create_insert_query() {
        let db = talk_db();
        db.insert("talk", row!["CrowdDB", Value::CNull, Value::CNull])
            .unwrap();
        let n = db
            .with_table("talk", |t| t.scan_rows().map(|r| r.len()))
            .unwrap()
            .unwrap();
        assert_eq!(n, 1);
        assert_eq!(db.stats("talk").unwrap().cnull_values, 2);
    }

    #[test]
    fn drop_table_semantics() {
        let db = talk_db();
        db.drop_table("TALK", false).unwrap();
        assert!(db.drop_table("talk", false).is_err());
        db.drop_table("talk", true).unwrap(); // IF EXISTS
        assert!(db.schema("talk").is_err());
    }

    #[test]
    fn drop_table_releases_pages() {
        let db = talk_db();
        for i in 0..32 {
            db.insert("talk", row![format!("t{i}"), Value::CNull, Value::CNull])
                .unwrap();
        }
        db.drop_table("talk", false).unwrap();
        // Recreating and refilling reuses the freed pages: total page
        // count must not keep growing across create/fill/drop cycles.
        let mut counts = Vec::new();
        for _ in 0..3 {
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
            db.create_table(schema).unwrap();
            for i in 0..32 {
                db.insert("talk", row![format!("t{i}"), Value::CNull, Value::CNull])
                    .unwrap();
            }
            db.drop_table("talk", false).unwrap();
            counts.push(db.pager_stats());
        }
        let _ = counts;
    }

    #[test]
    fn write_back_value_clears_cnull() {
        let db = talk_db();
        let tid = db
            .insert("talk", row!["CrowdDB", Value::CNull, Value::CNull])
            .unwrap();
        db.write_back_value("talk", tid, 1, Value::str("the abstract"))
            .unwrap();
        assert_eq!(db.stats("talk").unwrap().cnull_values, 1);
    }

    #[test]
    fn write_back_tuple_dedupes_by_pk() {
        let db = talk_db();
        let t1 = db
            .write_back_tuple("talk", row!["CrowdDB", "a", 1i64])
            .unwrap();
        assert!(t1.is_some());
        // A second worker contributes the same key: silently deduped.
        let t2 = db
            .write_back_tuple("talk", row!["CrowdDB", "b", 2i64])
            .unwrap();
        assert!(t2.is_none());
        // First answer wins.
        let v = db
            .with_table("talk", |t| {
                t.get(t1.unwrap()).map(|r| r.unwrap()[1].clone())
            })
            .unwrap()
            .unwrap();
        assert_eq!(v, Value::str("a"));
    }

    #[test]
    fn write_back_tuple_propagates_other_errors() {
        let db = talk_db();
        let err = db
            .write_back_tuple("talk", row!["x", "a", "not an int"])
            .unwrap_err();
        assert_eq!(err.category(), "constraint");
    }

    #[test]
    fn create_index_by_name() {
        let db = talk_db();
        db.insert("talk", row!["a", "x", 10i64]).unwrap();
        db.create_index("talk_att", "talk", &["nb_attendees".into()], false)
            .unwrap();
        let found = db
            .with_table("talk", |t| t.index_on(&[2]).is_some())
            .unwrap();
        assert!(found);
        assert!(db
            .create_index("bad", "talk", &["nope".into()], false)
            .is_err());
    }

    #[test]
    fn foreign_keys_get_automatic_indexes() {
        let db = talk_db();
        let schema = db
            .with_catalog(|c| {
                let stmt = crowddb_sql::parse_statement(
                    "CREATE CROWD TABLE attendee (name STRING PRIMARY KEY, talk_title STRING, \
                     FOREIGN KEY (talk_title) REFERENCES talk(title))",
                )
                .unwrap();
                let crowddb_sql::Statement::CreateTable(ct) = stmt else {
                    unreachable!()
                };
                c.schema_from_ast(&ct)
            })
            .unwrap();
        db.create_table(schema).unwrap();
        let has_fk_idx = db
            .with_table("attendee", |t| t.index_on(&[1]).is_some())
            .unwrap();
        assert!(has_fk_idx, "single-column FK gets an automatic index");
    }

    #[test]
    fn unknown_table_errors() {
        let db = Database::new();
        assert!(db.insert("ghost", row![1i64]).is_err());
        assert!(db.stats("ghost").is_err());
        assert!(db.schema("ghost").is_err());
    }

    #[test]
    fn snapshot_restore_round_trip() {
        let db = talk_db();
        db.insert("talk", row!["CrowdDB", Value::CNull, Value::CNull])
            .unwrap();
        db.insert("talk", row!["Qurk", "demo abstract", 75i64])
            .unwrap();
        let snap = db.snapshot().unwrap();

        let restored = Database::restore(&snap).unwrap();
        assert_eq!(restored.table_names(), vec!["talk".to_string()]);
        let schema = restored.schema("talk").unwrap();
        assert_eq!(schema.crowd_columns(), vec![1, 2]);
        assert_eq!(schema.primary_key, vec![0]);
        let rows = restored
            .with_table("talk", |t| t.scan_rows())
            .unwrap()
            .unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].1[0], Value::str("CrowdDB"));
        assert!(rows[0].1[1].is_cnull());
        // PK index restored too.
        let hits = restored
            .with_table("talk", |t| t.lookup_pk(&[Value::str("Qurk")]))
            .unwrap()
            .unwrap();
        assert_eq!(hits.len(), 1);
    }

    #[test]
    fn snapshot_bytes_independent_of_pool_size() {
        let build = |pool_pages: usize| {
            let db = Database::new_with_config(PagerConfig {
                page_size: 256,
                pool_pages,
            })
            .unwrap();
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
            db.create_table(schema).unwrap();
            for i in 0..64 {
                db.insert("talk", row![format!("t{i:03}"), Value::CNull, i as i64])
                    .unwrap();
            }
            db.write_back_value("talk", TupleId(5), 1, Value::str("filled"))
                .unwrap();
            assert!(db.with_table_mut("talk", |t| t.delete(TupleId(9))).unwrap());
            db.snapshot().unwrap()
        };
        assert_eq!(build(0), build(4), "pool budget must not affect bytes");
    }

    #[test]
    fn snapshot_of_empty_db() {
        let db = Database::new();
        let restored = Database::restore(&db.snapshot().unwrap()).unwrap();
        assert!(restored.table_names().is_empty());
    }

    #[test]
    fn restore_rejects_garbage() {
        assert!(Database::restore(b"nonsense").is_err());
        assert!(Database::restore(&[]).is_err());
    }

    #[test]
    fn paged_meta_round_trip_on_disk() {
        let dir = std::env::temp_dir().join(format!(
            "crowddb-db-meta-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        let cfg = PagerConfig {
            page_size: 256,
            pool_pages: 0,
        };
        let meta;
        {
            let db = Database::open_file(&dir, cfg).unwrap();
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
            db.create_table(schema).unwrap();
            for i in 0..32 {
                db.insert("talk", row![format!("t{i}"), Value::CNull, i as i64])
                    .unwrap();
            }
            let (prep, m) = db.begin_checkpoint().unwrap();
            db.complete_checkpoint(&prep).unwrap();
            assert!(prep.pages_written() > 0);
            assert_eq!(db.dirty_pages(), 0);
            meta = m;
        }
        let db = Database::open_paged(&dir, cfg, &meta).unwrap();
        assert_eq!(db.stats("talk").unwrap().live_rows, 32);
        let rows = db.with_table("talk", |t| t.scan_rows()).unwrap().unwrap();
        assert_eq!(rows.len(), 32);
        assert_eq!(rows[7].1[0], Value::str("t7"));
        let hits = db
            .with_table("talk", |t| t.lookup_pk(&[Value::str("t3")]))
            .unwrap()
            .unwrap();
        assert_eq!(hits.len(), 1);
        // A checkpoint after a single-row DML flushes only the pages that
        // DML touched, not the whole database.
        let total_pages = db.pager.alloc_state().1;
        db.write_back_value("talk", TupleId(0), 1, Value::str("x"))
            .unwrap();
        let (prep, _meta2) = db.begin_checkpoint().unwrap();
        db.complete_checkpoint(&prep).unwrap();
        assert!(
            prep.pages_written() < total_pages / 2,
            "1-row DML flushed {} of {} pages",
            prep.pages_written(),
            total_pages
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A metadata image whose counts exceed what the image can hold is a
    /// typed `internal` error — not a multiply overflow, not an
    /// allocator abort.
    #[test]
    fn decode_meta_rejects_counts_the_image_cannot_hold() {
        let header = |n_free: u64| {
            let mut m = META_MAGIC.to_vec();
            put_u64(&mut m, 3); // epoch
            put_u32(&mut m, 256); // page size
            put_u64(&mut m, 9); // page count
            put_u64(&mut m, n_free);
            m
        };
        let table = |n_indexes: u32| {
            let mut m = header(0);
            put_u32(&mut m, 1); // one table
            put_str(&mut m, "t");
            put_str(&mut m, "CREATE TABLE t (a INTEGER)");
            for v in [1u64, 1, 0, 2] {
                put_u64(&mut m, v);
            }
            put_u32(&mut m, n_indexes);
            m
        };
        let mut n_free = header(1 << 61);
        n_free.extend_from_slice(&[0; 64]);
        let mut n_tables = header(0);
        put_u32(&mut n_tables, u32::MAX);
        n_tables.extend_from_slice(&[0; 64]);
        let mut n_indexes = table(u32::MAX);
        n_indexes.extend_from_slice(&[0; 64]);
        let mut n_cols = table(1);
        put_str(&mut n_cols, "t_pk");
        put_u32(&mut n_cols, u32::MAX);
        n_cols.extend_from_slice(&[0; 64]);
        for (what, image) in [
            ("n_free", n_free),
            ("n_tables", n_tables),
            ("n_indexes", n_indexes),
            ("n_cols", n_cols),
        ] {
            let err = decode_meta(&image).err().expect(what);
            assert_eq!(err.category(), "internal", "{what}: {err}");
            assert!(err.message().contains("count"), "{what}: {err}");
        }
        // The same shapes with honest counts decode.
        let mut ok = table(1);
        put_str(&mut ok, "t_pk");
        put_u32(&mut ok, 1);
        put_u32(&mut ok, 0);
        ok.extend_from_slice(&[0, 1]);
        put_u64(&mut ok, 4);
        let meta = decode_meta(&ok).unwrap();
        assert_eq!(meta.tables[0].indexes[0].columns, vec![0]);
    }

    #[test]
    fn concurrent_readers() {
        use std::sync::Arc as StdArc;
        let db = StdArc::new(talk_db());
        for i in 0..64 {
            db.insert("talk", row![format!("t{i}"), Value::CNull, Value::CNull])
                .unwrap();
        }
        let mut handles = Vec::new();
        for _ in 0..8 {
            let db = StdArc::clone(&db);
            handles.push(std::thread::spawn(move || {
                db.with_table("talk", |t| t.scan_rows().unwrap().len())
                    .unwrap()
            }));
        }
        for h in handles {
            assert_eq!(h.join().unwrap(), 64);
        }
    }
}
