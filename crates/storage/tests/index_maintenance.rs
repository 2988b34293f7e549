//! Regression tests proving index/heap consistency across every DML and
//! crowd write-back path.
//!
//! The contract under test: after *any* mutation — `INSERT`, `UPDATE`
//! (key-changing or not), `DELETE`, an insert rollback, or a crowd
//! write-back (`write_back_value` / `write_back_tuple`, including via
//! WAL-record replay) — every index on the table agrees exactly with a
//! fresh recomputation from the heap. No ghost entries for deleted rows,
//! no stale keys after updates, no rows missing from the
//! `missing_key_tids` prefix when their key has a NULL/CNULL component.

use std::collections::BTreeMap;

use crowddb_common::rng::Rng;
use crowddb_common::{row, ColumnDef, DataType, TableSchema, TupleId, Value};
use crowddb_storage::{Database, IndexKey, LogRecord};

/// Assert every index on `table` matches a recomputation from the heap:
/// present-key rows are found by point probe (and only those rows),
/// missing-key rows appear in `missing_key_tids` (and only those), and
/// a full range scan enumerates exactly the present-key rows.
fn assert_indexes_consistent(db: &Database, table: &str) {
    db.with_table(table, |t| {
        let rows = t.scan_rows().unwrap();
        for idx in t.indexes() {
            // Recompute the expected entries from the heap.
            let mut present: BTreeMap<IndexKey, Vec<TupleId>> = BTreeMap::new();
            let mut missing: Vec<TupleId> = Vec::new();
            for (tid, r) in &rows {
                let key = idx.key_of(r.values());
                if key.has_missing() {
                    missing.push(*tid);
                } else {
                    present.entry(key).or_default().push(*tid);
                }
            }
            missing.sort_unstable_by_key(|tid| tid.0);

            // Point probes return exactly the heap's rows for each key.
            for (key, tids) in &present {
                let mut got = idx.get(t.pager(), key).unwrap();
                got.sort_unstable_by_key(|tid| tid.0);
                assert_eq!(
                    &got, tids,
                    "index '{}' probe mismatch for key {key:?}",
                    idx.name
                );
            }

            // The missing-key prefix holds exactly the heap's
            // missing-key rows.
            let mut got_missing = idx.missing_key_tids(t.pager()).unwrap();
            got_missing.sort_unstable_by_key(|tid| tid.0);
            assert_eq!(
                got_missing, missing,
                "index '{}' missing-key prefix diverges from heap",
                idx.name
            );

            // An unbounded range scan yields exactly the present-key
            // entries — no ghosts survive behind keys we did not think
            // to probe.
            let scanned = idx.range(t.pager(), None, None).unwrap();
            let expected: usize = present.values().map(Vec::len).sum();
            assert_eq!(
                scanned.len(),
                expected,
                "index '{}' range scan has ghost or lost entries",
                idx.name
            );
        }
    })
    .unwrap();
}

/// A crowd table with three indexes of different shapes: the implicit
/// unique PK index, a single-column B-tree secondary on a crowd column,
/// and a non-unique B-tree on a machine column.
fn talk_db() -> Database {
    let db = Database::new();
    let schema = TableSchema::new(
        "talk",
        vec![
            ColumnDef::new("title", DataType::Str),
            ColumnDef::new("abstract", DataType::Str).crowd(),
            ColumnDef::new("nb_attendees", DataType::Int).crowd(),
            ColumnDef::new("track", DataType::Str),
        ],
    )
    .unwrap()
    .with_primary_key(&["title"])
    .unwrap();
    db.create_table(schema).unwrap();
    db.create_index(
        "talk_attendees",
        "talk",
        &["nb_attendees".to_string()],
        false,
    )
    .unwrap();
    db.create_index("talk_track", "talk", &["track".to_string()], false)
        .unwrap();
    db
}

fn seed(db: &Database) -> Vec<TupleId> {
    let rows = [
        row!["CrowdDB", Value::CNull, Value::CNull, "systems"],
        row!["Qurk", Value::CNull, 140i64, "systems"],
        row!["PIQL", "perf insightful", 90i64, "languages"],
        row!["HyPer", Value::CNull, 180i64, "systems"],
    ];
    rows.into_iter()
        .map(|r| db.insert("talk", r).unwrap())
        .collect()
}

#[test]
fn insert_populates_all_indexes() {
    let db = talk_db();
    seed(&db);
    assert_indexes_consistent(&db, "talk");
    // The one CNULL attendee count sits in the missing prefix, not
    // under a key.
    db.with_table("talk", |t| {
        let idx = t
            .indexes()
            .iter()
            .find(|i| i.name == "talk_attendees")
            .unwrap();
        assert_eq!(idx.missing_key_tids(t.pager()).unwrap().len(), 1);
        assert_eq!(
            idx.get(t.pager(), &IndexKey(vec![Value::Int(140)]))
                .unwrap()
                .len(),
            1
        );
    })
    .unwrap();
}

#[test]
fn update_moves_entries_between_keys() {
    let db = talk_db();
    let tids = seed(&db);
    // Key-changing update on an indexed machine column.
    db.with_table_mut("talk", |t| {
        let mut r = t.get(tids[2]).unwrap().unwrap();
        r.set(3, Value::Str("systems".into()));
        t.update(tids[2], r)
    })
    .unwrap();
    assert_indexes_consistent(&db, "talk");
    db.with_table("talk", |t| {
        let idx = t.indexes().iter().find(|i| i.name == "talk_track").unwrap();
        assert!(idx
            .get(t.pager(), &IndexKey(vec![Value::Str("languages".into())]))
            .unwrap()
            .is_empty());
        assert_eq!(
            idx.get(t.pager(), &IndexKey(vec![Value::Str("systems".into())]))
                .unwrap()
                .len(),
            4
        );
    })
    .unwrap();

    // PK-changing update rewrites the unique PK index too.
    db.with_table_mut("talk", |t| {
        let mut r = t.get(tids[0]).unwrap().unwrap();
        r.set(0, Value::Str("CrowdDB 2".into()));
        t.update(tids[0], r)
    })
    .unwrap();
    assert_indexes_consistent(&db, "talk");
}

#[test]
fn delete_purges_every_index() {
    let db = talk_db();
    let tids = seed(&db);
    db.with_table_mut("talk", |t| t.delete(tids[1])).unwrap();
    assert_indexes_consistent(&db, "talk");
    db.with_table("talk", |t| {
        let idx = t
            .indexes()
            .iter()
            .find(|i| i.name == "talk_attendees")
            .unwrap();
        assert!(idx
            .get(t.pager(), &IndexKey(vec![Value::Int(140)]))
            .unwrap()
            .is_empty());
    })
    .unwrap();
    // Deleting a missing-key row shrinks the missing prefix, not a key.
    db.with_table_mut("talk", |t| t.delete(tids[0])).unwrap();
    assert_indexes_consistent(&db, "talk");
}

#[test]
fn rollback_insert_leaves_no_ghost_entries() {
    let db = talk_db();
    seed(&db);
    let tid = db
        .insert("talk", row!["Doomed", Value::CNull, 7i64, "systems"])
        .unwrap();
    assert_indexes_consistent(&db, "talk");
    assert!(db
        .with_table_mut("talk", |t| t.rollback_insert(tid))
        .unwrap());
    assert_indexes_consistent(&db, "talk");
    db.with_table("talk", |t| {
        let idx = t
            .indexes()
            .iter()
            .find(|i| i.name == "talk_attendees")
            .unwrap();
        assert!(idx
            .get(t.pager(), &IndexKey(vec![Value::Int(7)]))
            .unwrap()
            .is_empty());
        assert!(t.get(tid).unwrap().is_none());
    })
    .unwrap();
}

#[test]
fn write_back_value_promotes_missing_key_to_present() {
    let db = talk_db();
    let tids = seed(&db);
    // Crowd answers the CNULL attendee count for 'CrowdDB': the row must
    // leave the missing prefix and appear under its new key.
    db.write_back_value("talk", tids[0], 2, Value::Int(220))
        .unwrap();
    assert_indexes_consistent(&db, "talk");
    db.with_table("talk", |t| {
        let idx = t
            .indexes()
            .iter()
            .find(|i| i.name == "talk_attendees")
            .unwrap();
        assert_eq!(
            idx.get(t.pager(), &IndexKey(vec![Value::Int(220)]))
                .unwrap(),
            vec![tids[0]]
        );
        assert!(idx.missing_key_tids(t.pager()).unwrap().is_empty());
    })
    .unwrap();
}

#[test]
fn wal_replay_write_backs_maintain_indexes() {
    let db = talk_db();
    let tids = seed(&db);
    // The same write-back paths recovery uses: apply WAL records.
    assert!(db
        .apply(&LogRecord::WriteBackValue {
            table: "talk".into(),
            tid: tids[3],
            col: 2,
            value: Value::Int(180),
        })
        .unwrap());
    assert_indexes_consistent(&db, "talk");
    assert!(db
        .apply(&LogRecord::WriteBackTuple {
            table: "talk".into(),
            row: row!["Qurk2", Value::CNull, 140i64, "systems"],
        })
        .unwrap());
    assert_indexes_consistent(&db, "talk");
    // Duplicate-PK write-back is a no-op and must not disturb indexes.
    assert!(db
        .apply(&LogRecord::WriteBackTuple {
            table: "talk".into(),
            row: row!["Qurk2", Value::CNull, 1i64, "other"],
        })
        .unwrap());
    assert_indexes_consistent(&db, "talk");
    db.with_table("talk", |t| {
        let idx = t
            .indexes()
            .iter()
            .find(|i| i.name == "talk_attendees")
            .unwrap();
        assert_eq!(
            idx.get(t.pager(), &IndexKey(vec![Value::Int(140)]))
                .unwrap()
                .len(),
            2
        );
    })
    .unwrap();
}

/// Deterministic mixed-workload fuzz: a seeded generator drives hundreds of
/// interleaved inserts, key-changing updates, write-backs, deletes, and
/// rollbacks; the full consistency check runs after every step. This is
/// the "never diverge" guarantee in one test.
#[test]
fn mixed_workload_never_diverges() {
    let db = talk_db();
    let mut live: Vec<TupleId> = seed(&db);
    let mut rng = Rng::seed_from_u64(0xC0FFEE);
    let mut serial = 0u64;
    for step in 0..300 {
        match rng.gen_range(0..5) {
            0 => {
                serial += 1;
                let att = if rng.gen_range(0..3) == 0 {
                    Value::CNull
                } else {
                    Value::Int(rng.gen_range(0..50i64) * 10)
                };
                let track = if rng.gen_bool(0.5) {
                    "systems"
                } else {
                    "languages"
                };
                let tid = db
                    .insert("talk", row![format!("t{serial}"), Value::CNull, att, track])
                    .unwrap();
                live.push(tid);
            }
            1 if !live.is_empty() => {
                let tid = live[rng.gen_range(0..live.len())];
                let att = Value::Int(rng.gen_range(0..50i64) * 10);
                db.with_table_mut("talk", |t| {
                    let mut r = t.get(tid).unwrap().unwrap();
                    r.set(2, att);
                    t.update(tid, r)
                })
                .unwrap();
            }
            2 if !live.is_empty() => {
                let tid = live[rng.gen_range(0..live.len())];
                db.write_back_value("talk", tid, 1, Value::Str(format!("a{step}")))
                    .unwrap();
            }
            3 if !live.is_empty() => {
                let tid = live.swap_remove(rng.gen_range(0..live.len()));
                assert!(db.with_table_mut("talk", |t| t.delete(tid)).unwrap());
            }
            4 => {
                serial += 1;
                let tid = db
                    .insert(
                        "talk",
                        row![format!("t{serial}"), Value::CNull, Value::CNull, "systems"],
                    )
                    .unwrap();
                // Simulate a constraint-violation unwind.
                assert!(db
                    .with_table_mut("talk", |t| t.rollback_insert(tid))
                    .unwrap());
            }
            _ => {}
        }
        assert_indexes_consistent(&db, "talk");
    }
    assert!(!live.is_empty());
}

/// Index maintenance holds under the file-backed pager with a tiny
/// buffer pool: eviction pressure must never lose or duplicate entries.
#[test]
fn small_pool_file_backed_indexes_stay_consistent() {
    use crowddb_storage::PagerConfig;
    let dir = crowddb_wal::testutil::TestDir::new("idx-maint-pool");
    let cfg = PagerConfig {
        page_size: 512,
        pool_pages: 4,
    };
    let db = Database::open_file(dir.path(), cfg).unwrap();
    let schema = TableSchema::new(
        "talk",
        vec![
            ColumnDef::new("title", DataType::Str),
            ColumnDef::new("nb_attendees", DataType::Int).crowd(),
        ],
    )
    .unwrap()
    .with_primary_key(&["title"])
    .unwrap();
    db.create_table(schema).unwrap();
    db.create_index(
        "talk_attendees",
        "talk",
        &["nb_attendees".to_string()],
        false,
    )
    .unwrap();
    let mut tids = Vec::new();
    for i in 0..200i64 {
        let att = if i % 5 == 0 {
            Value::CNull
        } else {
            Value::Int(i % 17)
        };
        tids.push(db.insert("talk", row![format!("t{i}"), att]).unwrap());
    }
    // The pool is no-steal: dirty pages stay pinned, so eviction only
    // starts once a checkpoint cleans them.
    let (prep, _meta) = db.begin_checkpoint().unwrap();
    db.complete_checkpoint(&prep).unwrap();
    for (i, tid) in tids.iter().enumerate() {
        if i % 3 == 0 {
            db.write_back_value("talk", *tid, 1, Value::Int(999))
                .unwrap();
        }
    }
    for tid in tids.iter().step_by(7) {
        db.with_table_mut("talk", |t| t.delete(*tid)).unwrap();
    }
    assert_indexes_consistent(&db, "talk");
    let stats = db.pager_stats();
    assert!(
        stats.evictions > 0,
        "4-page pool over 200 rows must evict: {stats:?}"
    );
}
