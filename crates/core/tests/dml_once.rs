//! A DML statement is selected once and applied once (DESIGN.md §3,
//! "Statement driver"), through [`CrowdDB::execute`].
//!
//! Pinned here, where it is claimed: what a primary-key `UPDATE`/`DELETE`
//! costs in page touches — the driver's selection is what gets applied,
//! not re-derived — at 200 and at 4 000 rows; that a primary-key *range*
//! is an index range scan; and what the apply step's compare-on-write
//! buys when sessions race: a row is deleted by exactly one of two
//! sessions, and an answer the crowd was paid for is never rolled back by
//! a statement that selected its row before the answer arrived.

use std::sync::{Arc, Barrier};

use crowddb_common::{TupleId, Value};
use crowddb_core::{CrowdConfig, CrowdDB};
use crowddb_platform::{Answer, MockPlatform};

fn silent() -> MockPlatform {
    MockPlatform::unanimous(|_| Answer::Blank)
}

/// `s (k PRIMARY KEY, n, v, pad)` with `rows` rows, `v` a CROWD column.
fn table(rows: usize) -> CrowdDB {
    let mut config = CrowdConfig::fast_test();
    // Room for a subscriber that polls only once the writers are done.
    config.subscriptions.max_queue_batches = 1_000;
    let db = CrowdDB::with_config(config);
    db.execute_local(
        "CREATE TABLE s (k INTEGER PRIMARY KEY, n INTEGER, v CROWD INTEGER, pad STRING)",
    )
    .unwrap();
    for chunk in (0..rows).collect::<Vec<_>>().chunks(100) {
        let values: Vec<String> = chunk
            .iter()
            .map(|k| format!("({k}, 0, 0, 'padding-padding-padding-{k}')"))
            .collect();
        db.execute_local(&format!("INSERT INTO s VALUES {}", values.join(", ")))
            .unwrap();
    }
    db
}

/// Pages a statement touches (pool hits + misses), and the rows it
/// affected, through the full statement path.
fn touches(db: &CrowdDB, sql: &str) -> (u64, usize) {
    let before = db.storage().pager_stats();
    let r = db.execute(sql, &mut silent()).expect(sql);
    assert!(r.complete, "{sql}");
    let used = db.storage().pager_stats().diff(&before);
    (used.pool_hits + used.pool_misses, r.affected)
}

/// Select (6 touches: PK probe, its missing-key prefix, the row) plus
/// apply (the write, 6 more) — a second selection would show as 18.
#[test]
fn pk_dml_touches_the_same_pages_at_200_and_4000_rows() {
    let cost = |rows: usize| {
        let db = table(rows);
        let k = rows / 2;
        let update = touches(&db, &format!("UPDATE s SET n = n + 1 WHERE k = {k}"));
        let delete = touches(&db, &format!("DELETE FROM s WHERE k = {k}"));
        let range = touches(
            &db,
            &format!(
                "UPDATE s SET n = n + 1 WHERE k >= {} AND k < {}",
                k + 1,
                k + 41
            ),
        );
        (update, delete, range)
    };
    let (small, large) = (cost(200), cost(4_000));
    assert_eq!((small.0, small.1), ((12, 1), (12, 1)), "200 rows");
    assert_eq!((large.0, large.1), ((12, 1), (12, 1)), "4 000 rows");
    // The 40-row range: the same 40 rows' pages at either size, give or
    // take where the range falls on leaf boundaries — not the whole
    // table's.
    assert_eq!((small.2 .1, large.2 .1), (40, 40));
    assert!(
        large.2 .0 <= small.2 .0 + 8,
        "PK range UPDATE: {} page touches at 200 rows, {} at 4 000",
        small.2 .0,
        large.2 .0
    );
}

#[test]
fn a_primary_key_range_is_an_index_range_scan() {
    let db = table(200);
    for sql in [
        "SELECT n FROM s WHERE k >= 40 AND k < 80",
        "UPDATE s SET n = 1 WHERE k >= 40 AND k < 80",
        "DELETE FROM s WHERE k > 190",
    ] {
        let plan = db.explain(sql).unwrap();
        assert!(
            plan.contains("IndexRangeScan s via s_pk [range: "),
            "{sql}:\n{plan}"
        );
    }
    let r = db
        .execute_local("SELECT k FROM s WHERE k >= 40 AND k < 80")
        .unwrap();
    assert_eq!(r.rows.len(), 40);
}

/// Two sessions delete every key at the same moment. Each row goes once:
/// exactly one of the two reports it affected, and a subscriber is told
/// of its removal exactly once.
#[test]
fn concurrent_deletes_of_one_key_affect_it_once() {
    const KEYS: usize = 300;
    let db = Arc::new(table(KEYS));
    let watch = db.subscribe("SELECT k FROM s").unwrap();
    let snapshot = watch.poll().unwrap().expect("snapshot");
    assert_eq!(snapshot.added.len(), KEYS);

    let gate = Arc::new(Barrier::new(2));
    let sessions: Vec<_> = (0..2)
        .map(|_| {
            let (db, gate) = (Arc::clone(&db), Arc::clone(&gate));
            std::thread::spawn(move || {
                let mut p = silent();
                (0..KEYS)
                    .map(|k| {
                        gate.wait();
                        let r = db.execute(&format!("DELETE FROM s WHERE k = {k}"), &mut p);
                        r.unwrap().affected
                    })
                    .collect::<Vec<usize>>()
            })
        })
        .collect();
    let affected: Vec<Vec<usize>> = sessions.into_iter().map(|s| s.join().unwrap()).collect();
    for (k, (a, b)) in affected[0].iter().zip(&affected[1]).enumerate() {
        assert_eq!(a + b, 1, "key {k}: sessions report {a} and {b}");
    }
    let mut removed: Vec<i64> = Vec::new();
    while let Some(batch) = watch.poll().unwrap() {
        assert!(!batch.snapshot && batch.added.is_empty(), "{batch:?}");
        removed.extend(batch.removed.iter().map(|row| match row[0] {
            Value::Int(k) => k,
            ref other => panic!("{other:?}"),
        }));
    }
    removed.sort_unstable();
    assert_eq!(removed, (0..KEYS as i64).collect::<Vec<_>>());
    assert_eq!(db.storage().stats("s").unwrap().live_rows, 0);
}

/// "Paid answers never lost": while one session runs `SET n = n + 1` on a
/// row over and over, crowd answers keep being written back into the
/// row's CROWD column. No statement that selected the row before an
/// answer arrived may put the older image back — the column only ever
/// moves forward — and no increment is lost either.
#[test]
fn a_racing_update_never_rolls_back_a_written_back_answer() {
    const ROUNDS: i64 = 1_500;
    let db = Arc::new(table(4));
    let tid = TupleId(2);
    let updater = {
        let db = Arc::clone(&db);
        std::thread::spawn(move || {
            let mut p = silent();
            for _ in 0..ROUNDS {
                let r = db.execute("UPDATE s SET n = n + 1 WHERE k = 2", &mut p);
                assert_eq!(r.unwrap().affected, 1);
            }
        })
    };
    let stored = |col: usize| {
        let row = db.storage().with_table("s", |t| t.get(tid)).unwrap();
        row.unwrap().expect("row 2")[col].clone()
    };
    for answer in 1..=ROUNDS {
        db.storage()
            .write_back_value("s", tid, 2, Value::Int(answer))
            .unwrap();
        assert_eq!(
            stored(2),
            Value::Int(answer),
            "an UPDATE restored an older image"
        );
    }
    updater.join().unwrap();
    assert_eq!(
        (stored(1), stored(2)),
        (Value::Int(ROUNDS), Value::Int(ROUNDS))
    );
}
