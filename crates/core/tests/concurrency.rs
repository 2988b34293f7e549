//! Concurrency determinism and multi-session safety.
//!
//! The contract under test (DESIGN.md §10): `concurrency.fulfill_workers`
//! is a pure wall-time knob. Every worker count must produce
//! byte-identical rows, summaries, metrics, event logs, and WAL contents,
//! because the coordinator drives the platform serially and merges the
//! workers' pure per-need computation in need order. Batching
//! (`max_batch_size`) changes how compare needs are packed into HITs —
//! so cents and post counts move — but with an honest crowd never the
//! rows a statement returns. And one `CrowdDB` shared by many sessions
//! must survive mixed concurrent DML without deadlocks or lost log
//! records.

use std::sync::Arc;

use crowddb_core::{CrowdConfig, CrowdDB, QueryResult};
use crowddb_platform::Platform;
use crowddb_quality::VoteConfig;
use crowddb_wal::testutil::TestDir;
use crowddb_wal::{FsyncPolicy, WAL_FILE};

mod common;
use common::world_script as scripted;

fn config(workers: usize, max_batch_size: usize) -> CrowdConfig {
    let mut c = CrowdConfig::fast_test();
    c.vote = VoteConfig::replicated(3);
    c.concurrency.fulfill_workers = workers;
    c.concurrency.max_batch_size = max_batch_size;
    c.durability.fsync = FsyncPolicy::Never;
    c
}

/// Seed-parameterized suite touching every need kind: probes, CROWDEQUAL,
/// CROWDORDER, and a crowd table.
fn suite(seed: u64) -> Vec<String> {
    let mut sqls = vec![
        "CREATE TABLE Talk (title STRING PRIMARY KEY, abstract CROWD STRING, \
         nb_attendees CROWD INTEGER)"
            .to_string(),
        "CREATE CROWD TABLE NotableAttendee (name STRING PRIMARY KEY, title STRING, \
         FOREIGN KEY (title) REF Talk(title))"
            .to_string(),
        "INSERT INTO Talk (title) VALUES ('CrowdDB'), ('Qurk'), ('PIQL'), ('HyPer')".to_string(),
    ];
    for i in 0..(2 + seed % 3) {
        sqls.push(format!(
            "INSERT INTO Talk (title) VALUES ('talk-{seed}-{i}')"
        ));
    }
    sqls.extend([
        "SELECT title, abstract, nb_attendees FROM Talk ORDER BY title".to_string(),
        "SELECT title FROM Talk WHERE title ~= 'crowddb.'".to_string(),
        format!("SELECT title FROM Talk WHERE title ~= 'TALK-{seed}-0'"),
        "SELECT title FROM Talk ORDER BY CROWDORDER(title, 'Which talk did you like better') \
         LIMIT 3"
            .to_string(),
        "SELECT name FROM NotableAttendee LIMIT 2".to_string(),
    ]);
    sqls
}

struct RunOutput {
    results: Vec<QueryResult>,
    prometheus: String,
    events: String,
}

fn run_suite(db: &CrowdDB, platform: &mut dyn Platform, seed: u64) -> Vec<QueryResult> {
    suite(seed)
        .iter()
        .map(|sql| {
            db.execute(sql, platform)
                .unwrap_or_else(|e| panic!("{sql}: {e}"))
        })
        .collect()
}

fn run_in_memory(workers: usize, max_batch_size: usize, seed: u64) -> RunOutput {
    let db = CrowdDB::with_config(config(workers, max_batch_size));
    let mut p = scripted();
    let results = run_suite(&db, &mut p, seed);
    RunOutput {
        results,
        prometheus: db.metrics().to_prometheus(),
        events: db.events_jsonl(),
    }
}

#[test]
fn worker_count_never_changes_results_metrics_or_events() {
    for seed in [1_u64, 2, 3] {
        let golden = run_in_memory(1, 0, seed);
        assert!(
            golden.results.iter().skip(3).any(|r| !r.rows.is_empty()),
            "seed {seed}: the suite must produce rows"
        );
        for workers in [2_usize, 4, 8] {
            let run = run_in_memory(workers, 0, seed);
            assert_eq!(
                golden.results, run.results,
                "seed {seed} workers {workers}: rows/summaries/warnings diverged"
            );
            assert_eq!(
                golden.prometheus, run.prometheus,
                "seed {seed} workers {workers}: metrics diverged"
            );
            assert_eq!(
                golden.events, run.events,
                "seed {seed} workers {workers}: event log diverged"
            );
        }
    }
}

#[test]
fn batch_size_never_changes_rows() {
    // `max_batch_size <= 1` only chunks `post()` calls, so those runs are
    // byte-identical to unbatched. `>= 2` merges compare needs into
    // batched HITs — fewer posts and a different cents/HIT accounting by
    // design — but an honest crowd still yields the same verdicts, so
    // the rows every statement returns must not move.
    for seed in [1_u64, 2] {
        let golden = run_in_memory(2, 0, seed);
        let chunked = run_in_memory(2, 1, seed);
        assert_eq!(
            golden.results, chunked.results,
            "seed {seed} max_batch_size 1: results diverged"
        );
        assert_eq!(
            golden.prometheus, chunked.prometheus,
            "seed {seed} max_batch_size 1: metrics diverged"
        );
        let golden_rows: Vec<_> = golden.results.iter().map(|r| &r.rows).collect();
        for batch in [2_usize, 3] {
            let run = run_in_memory(2, batch, seed);
            let rows: Vec<_> = run.results.iter().map(|r| &r.rows).collect();
            assert_eq!(
                golden_rows, rows,
                "seed {seed} max_batch_size {batch}: rows diverged"
            );
            // Batched runs are still deterministic against themselves.
            let again = run_in_memory(2, batch, seed);
            assert_eq!(
                run.results, again.results,
                "seed {seed} max_batch_size {batch}: rerun diverged"
            );
            assert_eq!(
                run.prometheus, again.prometheus,
                "seed {seed} max_batch_size {batch}: rerun metrics diverged"
            );
        }
    }
}

#[test]
fn worker_count_never_changes_wal_bytes() {
    let wal_after = |workers: usize| -> (Vec<u8>, Vec<QueryResult>) {
        let dir = TestDir::new(&format!("conc-wal-{workers}"));
        let bytes = {
            let db = CrowdDB::open_with_config(dir.path(), config(workers, 0)).unwrap();
            let mut p = scripted();
            let _ = run_suite(&db, &mut p, 1);
            // Drop without close(): the log tail is exactly the appended
            // records, unmasked by a final checkpoint.
            drop(db);
            std::fs::read(dir.path().join(WAL_FILE)).unwrap()
        };
        // Recovery must also agree, answer-for-answer.
        let db = CrowdDB::open_with_config(dir.path(), config(workers, 0)).unwrap();
        let mut p = scripted();
        let r = db
            .execute(
                "SELECT title, abstract, nb_attendees FROM Talk ORDER BY title",
                &mut p,
            )
            .unwrap();
        assert!(r.complete);
        assert_eq!(r.crowd.tasks_posted, 0, "every answer replays from the log");
        (bytes, vec![r])
    };
    let (golden_bytes, golden_rows) = wal_after(1);
    assert!(!golden_bytes.is_empty());
    for workers in [4_usize, 8] {
        let (bytes, rows) = wal_after(workers);
        assert_eq!(golden_bytes, bytes, "workers {workers}: WAL bytes diverged");
        assert_eq!(golden_rows, rows, "workers {workers}: recovery diverged");
    }
}

#[test]
fn batched_write_backs_replay_identically_after_crash() {
    // Batched HIT verdicts are split back into per-need write-backs
    // before anything reaches the log, so the WAL never knows batching
    // happened. After a crash (drop without close(), leaving the raw
    // appended tail), a reopen must answer every query from the log
    // alone — zero HITs posted — with rows identical to the pre-crash
    // run, whether the answers were originally sourced from singleton
    // or batched HITs.
    let mut recovered_rows: Vec<Vec<Vec<crowddb_common::Row>>> = Vec::new();
    for batch in [0_usize, 3] {
        let dir = TestDir::new(&format!("conc-batch-crash-{batch}"));
        let before = {
            let db = CrowdDB::open_with_config(dir.path(), config(2, batch)).unwrap();
            let mut p = scripted();
            let r = run_suite(&db, &mut p, 1);
            drop(db);
            r
        };
        let db = CrowdDB::open_with_config(dir.path(), config(2, batch)).unwrap();
        let mut p = scripted();
        let selects: Vec<(usize, String)> = suite(1)
            .into_iter()
            .enumerate()
            .filter(|(_, sql)| sql.starts_with("SELECT"))
            .collect();
        let mut rows = Vec::new();
        for (i, sql) in selects {
            let r = db
                .execute(&sql, &mut p)
                .unwrap_or_else(|e| panic!("{sql}: {e}"));
            assert_eq!(
                r.crowd.tasks_posted, 0,
                "batch {batch}: `{sql}` re-posted HITs instead of replaying"
            );
            assert_eq!(
                before[i].rows, r.rows,
                "batch {batch}: `{sql}` recovered different rows than the \
                 pre-crash run"
            );
            rows.push(r.rows);
        }
        recovered_rows.push(rows);
    }
    assert_eq!(
        recovered_rows[0], recovered_rows[1],
        "recovery diverged between singleton-sourced and batch-sourced logs"
    );
}

/// N sessions hammer one durable `CrowdDB` with mixed DML and reads on
/// disjoint key ranges. Checkpoints are forced every few records so they
/// contend with live writers for the writer section. The invariants: no
/// deadlock (the test finishes), every session sees consistent counts,
/// and a reopen recovers every committed row.
#[test]
fn multi_session_stress_preserves_every_row() {
    let sessions: usize = if std::env::var_os("CROWDDB_STRESS").is_some() {
        8
    } else {
        4
    };
    let per_session: usize = 25;
    let dir = TestDir::new("conc-stress");
    {
        let mut cfg = config(2, 0);
        cfg.durability.checkpoint_every_records = 8; // contend with writers
        let db = Arc::new(CrowdDB::open_with_config(dir.path(), cfg).unwrap());
        let mut p = scripted();
        db.execute(
            "CREATE TABLE item (id INTEGER PRIMARY KEY, val INTEGER)",
            &mut p,
        )
        .unwrap();
        std::thread::scope(|scope| {
            for t in 0..sessions {
                let db = Arc::clone(&db);
                scope.spawn(move || {
                    let mut p = scripted();
                    for i in 0..per_session {
                        let id = t * 1000 + i;
                        db.execute(&format!("INSERT INTO item VALUES ({id}, 0)"), &mut p)
                            .unwrap();
                        if i % 3 == 0 {
                            let r = db
                                .execute(
                                    &format!("UPDATE item SET val = {i} WHERE id = {id}"),
                                    &mut p,
                                )
                                .unwrap();
                            assert_eq!(r.affected, 1);
                        }
                        if i % 5 == 0 {
                            // Reads interleave with writers; a session's own
                            // rows are always visible to it.
                            let r = db
                                .execute(
                                    &format!("SELECT id, val FROM item WHERE id = {id}"),
                                    &mut p,
                                )
                                .unwrap();
                            assert_eq!(r.rows.len(), 1, "own insert must be visible");
                        }
                    }
                });
            }
        });
        let r = db.execute("SELECT id FROM item", &mut p).unwrap();
        assert_eq!(r.rows.len(), sessions * per_session, "no lost inserts");
        Arc::try_unwrap(db)
            .unwrap_or_else(|_| panic!("all sessions joined"))
            .close()
            .unwrap();
    }
    // Reopen: every committed row and update must have survived the
    // interleaved checkpoints and group-committed appends.
    let db = CrowdDB::open_with_config(dir.path(), config(1, 0)).unwrap();
    let mut p = scripted();
    let r = db.execute("SELECT id, val FROM item", &mut p).unwrap();
    assert_eq!(r.rows.len(), sessions * per_session, "lost rows on reopen");
    let r = db
        .execute("SELECT id FROM item WHERE val = 0", &mut p)
        .unwrap();
    let updated = sessions * per_session.div_ceil(3);
    assert_eq!(
        r.rows.len(),
        sessions * per_session - updated + sessions, // i == 0 updates val to 0
        "updates lost on reopen"
    );
}

/// Standing queries over two tables while four sessions write both and
/// a fifth keeps registering and dropping subscriptions. A delta is only
/// exact on top of the state its DML started from, so one session's
/// mutation must never land between another's mutation and its fold —
/// the writer section (the `subs` field of `CrowdDB`) keeps them apart.
/// The queues are deep enough to keep every batch, so the final state is
/// right only if each delta was; and once the contention is over the
/// delta route must still be taken.
#[test]
fn standing_queries_stay_exact_under_concurrent_dml_on_both_join_sides() {
    use crowddb_core::{canonical_rows, SubscriberState};
    use std::sync::Barrier;

    const WATCHES: [&str; 3] = [
        "SELECT s.k, r.floor FROM Sessions s JOIN Room r ON s.room = r.room",
        "SELECT room, COUNT(*), SUM(cap) FROM Sessions GROUP BY room",
        "SELECT r.floor, COUNT(*), SUM(s.cap) FROM Sessions s JOIN Room r ON s.room = r.room \
         GROUP BY r.floor",
    ];
    const PER_THREAD: usize = 200;
    let mut cfg = CrowdConfig::fast_test();
    cfg.subscriptions.max_queue_batches = 8 * PER_THREAD;
    let db = Arc::new(CrowdDB::with_config(cfg));
    for sql in [
        "CREATE TABLE Sessions (k INTEGER PRIMARY KEY, room STRING, cap INTEGER)",
        "CREATE TABLE Room (room STRING PRIMARY KEY, floor INTEGER)",
        "INSERT INTO Room VALUES ('R0', 0), ('R1', 1), ('R2', 2), ('R3', 3)",
        "INSERT INTO Sessions VALUES (1, 'R0', 10), (2, 'R1', 20), (3, 'R9', 30)",
    ] {
        db.execute_local(sql).unwrap();
    }
    let ids: Vec<u64> = WATCHES
        .iter()
        .map(|sql| db.subscribe_id(sql).unwrap().0)
        .collect();
    let counter = |which: &str| {
        db.metrics()
            .counter(&format!("crowddb_subscription_evals_{which}total"))
    };

    let start = Barrier::new(5);
    std::thread::scope(|scope| {
        for t in 0..4usize {
            let (db, start) = (Arc::clone(&db), &start);
            scope.spawn(move || {
                start.wait();
                for i in 0..PER_THREAD {
                    // Sessions 0 and 1 write Sessions, 2 and 3 write Room,
                    // each on keys of its own; rows come, move between
                    // rooms and floors, and go.
                    let key = 1000 * (t + 1) + i / 4;
                    let sql = match (t < 2, i % 4) {
                        (true, 0) => {
                            format!("INSERT INTO Sessions VALUES ({key}, 'R{}', {i})", i % 5)
                        }
                        (true, 1) => format!(
                            "UPDATE Sessions SET room = 'X{}' WHERE k = {key}",
                            2 + i % 2
                        ),
                        (true, 2) => format!("UPDATE Sessions SET cap = cap + 1 WHERE k = {key}"),
                        (true, _) if i % 8 == 3 => format!("DELETE FROM Sessions WHERE k = {key}"),
                        (true, _) => format!("UPDATE Sessions SET room = 'R{}' WHERE k = {key}", t),
                        (false, 0) => format!("INSERT INTO Room VALUES ('X{t}', {i})"),
                        (false, 1) => {
                            format!("UPDATE Room SET floor = {} WHERE room = 'X{t}'", i % 3)
                        }
                        (false, 2) => format!("UPDATE Room SET floor = {i} WHERE room = 'R{t}'"),
                        (false, _) => format!("DELETE FROM Room WHERE room = 'X{t}'"),
                    };
                    let r = db
                        .execute_local(&sql)
                        .unwrap_or_else(|e| panic!("{sql}: {e}"));
                    assert_eq!(r.affected, 1, "{sql}");
                }
            });
        }
        let (db, start) = (Arc::clone(&db), &start);
        scope.spawn(move || {
            start.wait();
            for i in 0..60 {
                let sub = db.subscribe(WATCHES[i % 3]).unwrap();
                assert!(sub.poll().unwrap().expect("the snapshot").snapshot);
                sub.unsubscribe().unwrap();
            }
        });
    });

    // Every batch of every long-lived subscription, in order.
    let check = |states: &mut Vec<SubscriberState>| {
        for ((id, sql), state) in ids.iter().zip(WATCHES).zip(states.iter_mut()) {
            let mut last = state.last_revision;
            while let Some(batch) = db.poll_subscription(*id).expect("no lag, no failure") {
                assert!(batch.revision > last, "{sql}: revisions must rise");
                last = batch.revision;
                state.apply(&batch).unwrap_or_else(|e| panic!("{sql}: {e}"));
            }
            let fresh = db.execute_local(sql).unwrap();
            assert_eq!(
                state.canonical(),
                canonical_rows(&fresh.rows),
                "{sql}: accumulated deltas diverge from a fresh evaluation"
            );
        }
    };
    let mut states: Vec<SubscriberState> = ids.iter().map(|_| SubscriberState::new()).collect();
    check(&mut states);
    assert!(states.iter().all(|s| s.batches_applied > 50));

    // Alone again, the delta route re-establishes itself: at most the
    // first DML has to recompute before every later one is a delta.
    let before = counter("incremental_");
    for i in 0..10 {
        let r = db
            .execute_local(&format!("UPDATE Sessions SET cap = {i} WHERE k = 2"))
            .unwrap();
        assert_eq!(r.affected, 1);
    }
    assert!(
        counter("incremental_") - before >= 9 * 3,
        "the protocol left the delta route disabled: {} of 30",
        counter("incremental_") - before
    );
    check(&mut states);
    assert_eq!(db.subscriptions().len(), 3, "the churned ones are gone");
}

/// Sessions settling verdicts at once lose none of them: four threads
/// each put 100 through `with_caches`, and all 400 are there afterwards
/// and after a snapshot round trip.
#[test]
fn concurrent_verdict_writers_lose_nothing() {
    let db = CrowdDB::new();
    std::thread::scope(|scope| {
        for t in 0..4 {
            let db = &db;
            scope.spawn(move || {
                for i in 0..100 {
                    db.with_caches(|c| c.put_equal(&format!("t{t}-{i}"), "x", "q", i % 2 == 0));
                }
            });
        }
    });
    let check = |db: &CrowdDB| {
        db.with_caches(|c| {
            assert_eq!(c.len(), 400);
            for t in 0..4 {
                for i in 0..100 {
                    assert_eq!(
                        c.get_equal("x", &format!("t{t}-{i}"), "q"),
                        Some(i % 2 == 0)
                    );
                }
            }
        })
    };
    check(&db);
    let restored = CrowdDB::restore(&db.snapshot().unwrap(), CrowdConfig::default()).unwrap();
    check(&restored);
}
