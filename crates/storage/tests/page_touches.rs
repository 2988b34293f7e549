//! Page touches are pinned: how a read reaches its bytes inside a page
//! is free to change, which pages it asks the pager for is not.
//!
//! A fixed 2 000-row file-backed table is checkpointed, reopened cold
//! behind a 16-page pool, and three reads are run in a fixed order — a
//! primary-tree point lookup, a 40-row secondary-index fetch and a full
//! scan. The `PagerStats` delta of each is a literal. The twin of "an
//! access path changes which pages are read, never what the statement
//! means": reading nodes in place (PR 19, literals of `556c9d9` held)
//! changed neither. They moved once since, on purpose, with the two
//! changes that are about which pages exist and which are asked for: a
//! tree filled in key order keeps its leaves full, so the primary tree is
//! a level shallower and less than half as many leaves (get (4, 0, 4, 0)
//! → (3, 0, 3, 0); fetch (82, 89, 82, 70) → (57, 70, 57, 44)), and a
//! cursor keeps its path parsed instead of asking for the parent page at
//! every leaf change (scan (569, 500, 569, 569) → (260, 1, 260, 260)).
//! The fetch moved once more when `CREATE INDEX` became one sorted run
//! into the empty tree: every entry is an append at its right edge, so
//! `attendee_grp`'s leaves are packed full instead of cut at their
//! middles by shuffled inserts — 165 pages → 97, pinned below — and the
//! fetch reads two leaves fewer: (57, 70, 57, 44) → (55, 70, 55, 42).

use crowddb_common::{row, ColumnDef, DataType, TableSchema, TupleId, Value};
use crowddb_storage::{Database, IndexKey, PagerConfig, PagerStats};
use crowddb_wal::testutil::TestDir;

const ROWS: i64 = 2_000;
const GROUPS: i64 = 50;

fn cfg() -> PagerConfig {
    PagerConfig {
        page_size: 512,
        pool_pages: 16,
    }
}

/// Load, checkpoint, drop and reopen: every page clean, the pool empty.
fn cold_table(dir: &TestDir) -> Database {
    let db = Database::open_file(dir.path(), cfg()).unwrap();
    let schema = TableSchema::new(
        "attendee",
        vec![
            ColumnDef::new("id", DataType::Int),
            ColumnDef::new("name", DataType::Str),
            ColumnDef::new("grp", DataType::Int),
        ],
    )
    .unwrap()
    .with_primary_key(&["id"])
    .unwrap();
    db.create_table(schema).unwrap();
    for i in 0..ROWS {
        // Scrambled groups, so one group's rows spread over the table.
        let grp = (i * 7919) % GROUPS;
        db.insert("attendee", row![i, format!("attendee number {i}"), grp])
            .unwrap();
    }
    db.create_index("attendee_grp", "attendee", &["grp".to_string()], false)
        .unwrap();
    let (prep, meta) = db.begin_checkpoint().unwrap();
    db.complete_checkpoint(&prep).unwrap();
    drop(db);
    Database::open_paged(dir.path(), cfg(), &meta).unwrap()
}

/// `attendee_grp`'s entries in key order, and every page of its tree:
/// a full walk reads each page once, the leaves through the cursor and
/// the internal nodes on its path, which it keeps parsed.
fn walk_attendee_grp(db: &Database) -> (usize, u64) {
    let mut entries = 0;
    let read = touches(db, || {
        entries = db
            .with_table("attendee", |t| {
                let idx = t.index_on(&[2]).expect("attendee_grp");
                idx.range(t.pager(), None, None).unwrap().len()
            })
            .unwrap();
    });
    (entries, read.0)
}

/// `(pages_read, pool_hits, pool_misses, evictions)` spent by `f`.
fn touches(db: &Database, f: impl FnOnce()) -> (u64, u64, u64, u64) {
    let before: PagerStats = db.pager_stats();
    f();
    let d = db.pager_stats().diff(&before);
    (d.pages_read, d.pool_hits, d.pool_misses, d.evictions)
}

#[test]
fn point_get_index_fetch_and_scan_touch_the_pinned_pages() {
    let dir = TestDir::new("page-touches");
    let db = cold_table(&dir);

    let get = touches(&db, || {
        let row = db
            .with_table("attendee", |t| t.get(TupleId(1234)))
            .unwrap()
            .unwrap()
            .expect("row 1234 is live");
        assert_eq!(row[0], Value::Int(1234));
    });
    assert_eq!(get, (3, 0, 3, 0), "HeapTable::get");

    let fetch = touches(&db, || {
        let rows = db
            .with_table("attendee", |t| {
                let idx = t.index_on(&[2]).expect("attendee_grp");
                let tids = idx.get(t.pager(), &IndexKey(vec![Value::Int(7)])).unwrap();
                tids.into_iter()
                    .map(|tid| t.get(tid).unwrap().expect("indexed row is live"))
                    .collect::<Vec<_>>()
            })
            .unwrap();
        assert_eq!(rows.len() as i64, ROWS / GROUPS);
        assert!(rows.iter().all(|r| r[2] == Value::Int(7)));
    });
    assert_eq!(fetch, (55, 70, 55, 42), "secondary-index fetch of 40 rows");

    let scan = touches(&db, || {
        let rows = db
            .with_table("attendee", |t| t.scan_rows())
            .unwrap()
            .unwrap();
        assert_eq!(rows.len() as i64, ROWS);
        assert!(rows
            .iter()
            .enumerate()
            .all(|(i, (tid, _))| tid.0 == i as u64));
    });
    assert_eq!(scan, (260, 1, 260, 260), "full scan");
}

#[test]
fn create_index_packs_the_index_it_builds() {
    let dir = TestDir::new("page-touches-index");
    let db = cold_table(&dir);
    // Built by one sorted run into the empty tree, every entry an append
    // at its right edge: each leaf holds as many entries as fit.
    assert_eq!(
        walk_attendee_grp(&db),
        (ROWS as usize, 97),
        "attendee_grp pages"
    );
}
