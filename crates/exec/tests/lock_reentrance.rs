//! A scan reads its table under the `Database` read lock. Whatever runs
//! while that lock is held must not take it again: `std`'s `RwLock`
//! parks new readers behind a waiting writer, so a subquery evaluated
//! from inside a scan deadlocks against any `INSERT` that queued up in
//! between. And whatever ends a scan early — cancellation, the
//! intermediate-row cap, an error in a consumer — must release it.
//!
//! Both tests do their work on spawned threads and wait for them with a
//! timeout, so a regression fails the build instead of hanging it.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use crowddb_common::{row, CancelReason, CrowdError};
use crowddb_exec::{execute_physical_guarded, lower_plan, CompareCaches, ExecGuard, ExecResult};
use crowddb_plan::cardinality::FnStats;
use crowddb_plan::{optimize, Binder, OptimizerConfig};
use crowddb_sql::{parse_statement, Statement};
use crowddb_storage::Database;

const ITEMS: i64 = 3_000;
const PATIENCE: Duration = Duration::from_secs(120);

fn world() -> Database {
    let db = Database::new();
    for ddl in [
        "CREATE TABLE item (id INTEGER PRIMARY KEY, name STRING, grp INTEGER)",
        "CREATE TABLE pick (grp INTEGER PRIMARY KEY)",
    ] {
        let Statement::CreateTable(ct) = parse_statement(ddl).unwrap() else {
            panic!("{ddl}")
        };
        let schema = db.with_catalog(|c| c.schema_from_ast(&ct)).unwrap();
        db.create_table(schema).unwrap();
    }
    for id in 0..ITEMS {
        db.insert("item", row![id, format!("item {id}"), id % 10])
            .unwrap();
    }
    for grp in [3i64, 7] {
        db.insert("pick", row![grp]).unwrap();
    }
    db
}

fn run(db: &Database, sql: &str, guard: ExecGuard) -> crowddb_common::Result<ExecResult> {
    let Statement::Select(q) = parse_statement(sql).unwrap() else {
        panic!("not a select: {sql}")
    };
    let bound = db.with_catalog(|c| Binder::new(c).bind_query(&q)).unwrap();
    let stats = FnStats(|t: &str| db.stats(t).ok().map(|s| s.live_rows as u64));
    let plan = optimize(bound, &stats, &OptimizerConfig::default());
    let physical = lower_plan(db, &plan);
    execute_physical_guarded(db, &CompareCaches::default(), &physical, guard).map(|(r, _)| r)
}

/// Run `work` on its own thread; panic if it is not done in time.
fn bounded(what: &str, work: impl FnOnce() + Send + 'static) {
    let (done, wait) = mpsc::channel();
    let worker = std::thread::spawn(move || {
        work();
        let _ = done.send(());
    });
    match wait.recv_timeout(PATIENCE) {
        Ok(()) => worker.join().unwrap(),
        // The worker panicked: surface its message.
        Err(mpsc::RecvTimeoutError::Disconnected) => worker.join().unwrap(),
        Err(mpsc::RecvTimeoutError::Timeout) => panic!("{what}: still blocked after {PATIENCE:?}"),
    }
}

/// The residual reaches its subquery only deep into the table (`AND`
/// short-circuits on `id`), and the projection reads another at its
/// first output row: both are first evaluated mid-scan, with the writer
/// below queued on the lock the whole time. The second statement leaves
/// the scan nothing to ask, so only its consumer re-enters.
const SUBQUERIES: [(&str, usize); 2] = [
    (
        "SELECT id, (SELECT COUNT(*) FROM pick) FROM item \
         WHERE id >= 2000 AND grp IN (SELECT grp FROM pick)",
        200,
    ),
    (
        "SELECT id, (SELECT COUNT(*) FROM pick) FROM item WHERE id >= 2000 AND grp = 3",
        100,
    ),
];

#[test]
fn subqueries_under_a_scan_do_not_wait_behind_a_queued_insert() {
    bounded("SELECT with subqueries beside an INSERT stream", || {
        let db = Arc::new(world());
        let start = Arc::new(Barrier::new(2));
        let stop = Arc::new(AtomicBool::new(false));
        let inserted = Arc::new(AtomicU64::new(0));
        let writer = {
            let (db, start, stop, inserted) = (
                Arc::clone(&db),
                Arc::clone(&start),
                Arc::clone(&stop),
                Arc::clone(&inserted),
            );
            std::thread::spawn(move || {
                start.wait();
                // One row comes and goes: the table keeps its size, and
                // grp 1 is not picked, so the answer does not move.
                while !stop.load(Ordering::SeqCst) {
                    let tid = db.insert("item", row![ITEMS, "late", 1i64]).unwrap();
                    db.with_table_mut("item", |t| t.delete(tid).map(|_| ()))
                        .unwrap();
                    inserted.fetch_add(1, Ordering::SeqCst);
                    // Leave the reader room: the lock prefers writers, and
                    // one that never pauses starves it. Still several
                    // attempts per scan, each queued until the scan ends.
                    let paused = Instant::now();
                    while paused.elapsed() < Duration::from_micros(50) {
                        std::hint::spin_loop();
                    }
                }
            })
        };
        start.wait();
        // Until the writer has demonstrably been interleaved with many
        // statements: it made progress across at least 50 of them.
        let (mut statements, mut overlapped, mut seen) = (0u64, 0u64, 0u64);
        while overlapped < 50 && statements < 5_000 {
            for (sql, rows) in SUBQUERIES {
                let r = run(&db, sql, ExecGuard::unlimited()).unwrap();
                assert_eq!(r.rows.len(), rows, "{sql}");
                assert_eq!(r.rows[0], row![2003i64, 2i64], "{sql}");
            }
            statements += 1;
            let now = inserted.load(Ordering::SeqCst);
            overlapped += u64::from(now > seen);
            seen = now;
        }
        stop.store(true, Ordering::SeqCst);
        writer.join().unwrap();
        assert!(overlapped >= 50, "the writer never ran beside the reader");
    });
}

/// A hash join builds its smaller input first and then streams the larger
/// one's scan through the probe: the probe runs under that scan's read
/// lock, so it must not take the lock again — a join that read its build
/// side lazily would hang here behind the queued INSERT. The join feeds
/// an aggregate and, in the second statement, a `LIMIT` that stops the
/// scan early.
#[test]
fn a_streaming_hash_join_does_not_wait_behind_a_queued_insert() {
    bounded("streaming hash join beside an INSERT stream", || {
        let db = Arc::new(world());
        let joins: [(&str, Vec<crowddb_common::Row>); 2] = [
            (
                "SELECT p.grp, COUNT(*) FROM item i JOIN pick p ON i.grp = p.grp GROUP BY p.grp",
                vec![row![3i64, 300i64], row![7i64, 300i64]],
            ),
            (
                "SELECT i.id FROM item i JOIN pick p ON i.grp = p.grp LIMIT 3",
                vec![row![3i64], row![7i64], row![13i64]],
            ),
        ];
        for (sql, _) in &joins {
            let Statement::Select(q) = parse_statement(sql).unwrap() else {
                panic!()
            };
            let bound = db.with_catalog(|c| Binder::new(c).bind_query(&q)).unwrap();
            let stats = FnStats(|t: &str| db.stats(t).ok().map(|s| s.live_rows as u64));
            let shown =
                lower_plan(&db, &optimize(bound, &stats, &OptimizerConfig::default())).explain();
            let probe = shown.find("TableScan item").expect("item is scanned");
            let build = shown.find("TableScan pick").expect("pick is scanned");
            assert!(probe < build, "item must be the probe side:\n{shown}");
        }
        let start = Arc::new(Barrier::new(2));
        let stop = Arc::new(AtomicBool::new(false));
        let inserted = Arc::new(AtomicU64::new(0));
        let writer = {
            let (db, start, stop, inserted) = (
                Arc::clone(&db),
                Arc::clone(&start),
                Arc::clone(&stop),
                Arc::clone(&inserted),
            );
            std::thread::spawn(move || {
                start.wait();
                while !stop.load(Ordering::SeqCst) {
                    let tid = db.insert("item", row![ITEMS, "late", 1i64]).unwrap();
                    db.with_table_mut("item", |t| t.delete(tid).map(|_| ()))
                        .unwrap();
                    inserted.fetch_add(1, Ordering::SeqCst);
                    let paused = Instant::now();
                    while paused.elapsed() < Duration::from_micros(50) {
                        std::hint::spin_loop();
                    }
                }
            })
        };
        start.wait();
        let (mut statements, mut overlapped, mut seen) = (0u64, 0u64, 0u64);
        while overlapped < 50 && statements < 5_000 {
            for (sql, want) in &joins {
                let r = run(&db, sql, ExecGuard::unlimited()).unwrap();
                assert_eq!(&r.rows, want, "{sql}");
            }
            statements += 1;
            let now = inserted.load(Ordering::SeqCst);
            overlapped += u64::from(now > seen);
            seen = now;
        }
        stop.store(true, Ordering::SeqCst);
        writer.join().unwrap();
        assert!(overlapped >= 50, "the writer never ran beside the reader");
    });
}

#[test]
fn a_statement_that_ends_mid_stream_leaves_the_table_writable() {
    bounded("INSERT after an interrupted SELECT", || {
        let db = world();
        let mut next_id = ITEMS;
        let mut insert = |db: &Database| {
            db.insert("item", row![next_id, "after", 1i64]).unwrap();
            next_id += 1;
        };

        // Cancelled at a checkpoint halfway down the table.
        let r = run(
            &db,
            "SELECT id, name FROM item WHERE grp < 5",
            ExecGuard {
                trip_cancel_after: Some(1_500),
                ..ExecGuard::default()
            },
        );
        assert_eq!(
            r.unwrap_err(),
            CrowdError::Cancelled(CancelReason::UserRequested)
        );
        insert(&db);

        // The intermediate-row cap trips while rows are still flowing.
        let r = run(
            &db,
            "SELECT id, name FROM item WHERE grp < 5",
            ExecGuard {
                max_intermediate_rows: Some(700),
                ..ExecGuard::default()
            },
        );
        assert_eq!(
            r.unwrap_err(),
            CrowdError::Cancelled(CancelReason::IntermediateRowLimit)
        );
        insert(&db);

        // A consumer fails on a row in the middle of the table.
        let r = run(
            &db,
            "SELECT 1000 / (id - 1234) FROM item",
            ExecGuard::unlimited(),
        );
        assert!(matches!(r, Err(CrowdError::Exec(_))), "{r:?}");
        insert(&db);

        // And so does the scan's own residual.
        let r = run(
            &db,
            "SELECT id FROM item WHERE 1000 / (id - 1234) > 0",
            ExecGuard::unlimited(),
        );
        assert!(matches!(r, Err(CrowdError::Exec(_))), "{r:?}");
        insert(&db);

        let r = run(&db, "SELECT COUNT(*) FROM item", ExecGuard::unlimited()).unwrap();
        assert_eq!(r.rows, vec![row![ITEMS + 4]]);
    });
}
