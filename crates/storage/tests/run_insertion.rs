//! A statement's rows go into each tree as one run: every constraint is
//! checked before any tree is written, so a violation leaves every entry
//! of every index where it was, and each page is written once.

use crowddb_common::{row, ColumnDef, DataType, Row, TableSchema, TupleId, Value};
use crowddb_storage::{Database, IndexKey, PagerConfig};

/// `t (id INTEGER PRIMARY KEY, name STRING, note CROWD STRING)` with an
/// index on `name` and one on `note`.
fn named(page_size: usize) -> Database {
    let db = Database::new_with_config(PagerConfig {
        page_size,
        pool_pages: 0,
    })
    .unwrap();
    let schema = TableSchema::new(
        "t",
        vec![
            ColumnDef::new("id", DataType::Int),
            ColumnDef::new("name", DataType::Str),
            ColumnDef::new("note", DataType::Str).crowd(),
        ],
    )
    .unwrap()
    .with_primary_key(&["id"])
    .unwrap();
    db.create_table(schema).unwrap();
    db.create_index("t_name", "t", &["name".into()], false)
        .unwrap();
    db.create_index("t_note", "t", &["note".into()], false)
        .unwrap();
    db
}

/// The tuple ids index `column` of `t` lists under `value`.
fn probe(db: &Database, column: usize, value: Value) -> Vec<TupleId> {
    db.with_table("t", |t| {
        let idx = t.index_on(&[column]).expect("an index on the column");
        idx.get(t.pager(), &IndexKey(vec![value])).unwrap()
    })
    .unwrap()
}

#[test]
fn a_key_too_long_for_a_later_index_leaves_no_entry_in_an_earlier_one() {
    for page_size in [512, 4096] {
        let db = named(page_size);
        let err = db
            .insert("t", row![1i64, "x".repeat(2000), Value::CNull])
            .unwrap_err();
        assert_eq!(err.category(), "constraint", "page {page_size}: {err}");
        if page_size == 4096 {
            assert_eq!(
                err.message(),
                "index key of 2013 bytes exceeds the 1024-byte limit for page size 4096"
            );
        }
        // `t_pk` holds no entry for id 1: the id is free.
        let tid = db.insert("t", row![1i64, "short", Value::CNull]).unwrap();
        assert_eq!(probe(&db, 0, Value::Int(1)), vec![tid], "page {page_size}");
        assert_eq!(db.stats("t").unwrap().live_rows, 1, "page {page_size}");
    }
}

#[test]
fn a_failed_update_keeps_the_row_s_old_entries() {
    for page_size in [512, 4096] {
        let what = format!("page {page_size}");
        let db = named(page_size);
        let tid = db.insert("t", row![2i64, "two", Value::CNull]).unwrap();
        let long = "x".repeat(2000);
        // An UPDATE of the indexed `name`…
        let err = db
            .with_table_mut("t", |t| {
                t.update(tid, row![2i64, long.clone(), Value::CNull])
            })
            .unwrap_err();
        assert_eq!(err.category(), "constraint", "{what}: {err}");
        // …and a crowd answer written back into the indexed CROWD `note`.
        let err = db
            .write_back_value("t", tid, 2, Value::str(&long))
            .unwrap_err();
        assert_eq!(err.category(), "constraint", "{what}: {err}");
        let stored: Row = db
            .with_table("t", |t| t.get(tid))
            .unwrap()
            .unwrap()
            .unwrap();
        assert_eq!(stored, row![2i64, "two", Value::CNull], "{what}");
        assert_eq!(probe(&db, 1, Value::str("two")), vec![tid], "{what}");
        assert_eq!(probe(&db, 2, Value::CNull), vec![tid], "{what}");
    }
}

#[test]
fn a_500_row_insert_writes_each_page_once() {
    let rows = |from: i64| -> Vec<(TupleId, Row)> {
        (0..500i64)
            .map(|i| (TupleId(i as u64), row![from + i, format!("attendee {i}")]))
            .collect()
    };
    let load = |in_one_run: bool| {
        let db = Database::new_with_config(PagerConfig {
            page_size: 4096,
            pool_pages: 0,
        })
        .unwrap();
        let schema = TableSchema::new(
            "t",
            vec![
                ColumnDef::new("id", DataType::Int),
                ColumnDef::new("name", DataType::Str),
            ],
        )
        .unwrap()
        .with_primary_key(&["id"])
        .unwrap();
        db.create_table(schema).unwrap();
        let before = db.pager_stats();
        db.with_table_mut("t", |t| match in_one_run {
            true => t.insert_rows(rows(1000)).map(drop),
            false => rows(1000)
                .into_iter()
                .try_for_each(|row| t.insert_rows(vec![row]).map(drop)),
        })
        .unwrap();
        let written = db.pager_stats().diff(&before).images_written;
        // Nothing was freed: every page but the header belongs to one of
        // the two trees.
        let held = db.with_table("t", |t| t.pager().page_count() - 1).unwrap();
        (written, held)
    };
    let (written, held) = load(true);
    assert!(written <= held, "{written} images for {held} pages");
    let (written, held) = load(false);
    assert!(
        written > 2 * 500,
        "row at a time: {written} images, {held} pages"
    );
}
