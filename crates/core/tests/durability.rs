//! End-to-end durability: a `CrowdDB::open` session logs every committed
//! statement and crowd answer, checkpoints on its configured policy, and
//! recovers to the exact pre-crash state — so answers the crowd was
//! already paid for are never bought twice.

use crowddb_common::Value;
use crowddb_core::{CrowdConfig, CrowdDB};
use crowddb_platform::{Answer, MockPlatform, TaskKind};
use crowddb_wal::testutil::TestDir;
use crowddb_wal::{DurableStore, FsyncPolicy, WAL_MAGIC};

/// A crowd that fills probe forms with fixed values and approves
/// everything else.
fn crowd() -> MockPlatform {
    MockPlatform::unanimous(|kind| match kind {
        TaskKind::Probe { asked, .. } => Answer::Form(
            asked
                .iter()
                .map(|(c, _)| {
                    let text = if c == "abstract" {
                        "answering queries with crowdsourcing".to_string()
                    } else {
                        "120".to_string()
                    };
                    (c.clone(), text)
                })
                .collect(),
        ),
        _ => Answer::Blank,
    })
}

fn config() -> CrowdConfig {
    let mut c = CrowdConfig::fast_test();
    c.durability.fsync = FsyncPolicy::Never; // tests: speed over power-loss
    c
}

const DDL: &str = "CREATE TABLE talk (title STRING PRIMARY KEY, abstract CROWD STRING, \
                   nb_attendees CROWD INTEGER)";
const PROBE: &str = "SELECT abstract, nb_attendees FROM talk WHERE title = 'CrowdDB'";

/// Run the standard workload: DDL, an insert with crowd-missing columns,
/// and a probe query the crowd completes.
fn run_workload(db: &CrowdDB) {
    let mut p = crowd();
    db.execute(DDL, &mut p).unwrap();
    db.execute("INSERT INTO talk VALUES ('CrowdDB', CNULL, CNULL)", &mut p)
        .unwrap();
    let r = db.execute(PROBE, &mut p).unwrap();
    assert!(r.complete, "warnings: {:?}", r.warnings);
    assert!(
        r.crowd.tasks_posted >= 1,
        "the crowd must have been engaged"
    );
}

#[test]
fn open_write_drop_reopen_reuses_crowd_answers() {
    let dir = TestDir::new("core-reopen");
    let db = CrowdDB::open_with_config(dir.path(), config()).unwrap();
    run_workload(&db);
    let before = db.snapshot().unwrap();
    drop(db); // no close(): recovery must come from the log alone

    let db = CrowdDB::open_with_config(dir.path(), config()).unwrap();
    assert_eq!(
        db.snapshot().unwrap(),
        before,
        "recovered state must be byte-identical"
    );
    let mut p = crowd();
    let r = db.execute(PROBE, &mut p).unwrap();
    assert!(r.complete);
    assert_eq!(r.crowd.tasks_posted, 0, "paid answers must be reused");
    assert_eq!(r.crowd.rounds, 1);
    assert_eq!(
        r.rows[0][0],
        Value::str("answering queries with crowdsourcing")
    );
    assert_eq!(r.rows[0][1], Value::Int(120));
}

#[test]
fn close_checkpoints_and_truncates_the_log() {
    let dir = TestDir::new("core-close");
    let db = CrowdDB::open_with_config(dir.path(), config()).unwrap();
    run_workload(&db);
    let before = db.snapshot().unwrap();
    db.close().unwrap();

    let wal_len = std::fs::metadata(dir.path().join(crowddb_wal::WAL_FILE))
        .unwrap()
        .len();
    assert_eq!(
        wal_len,
        WAL_MAGIC.len() as u64,
        "close must truncate the log"
    );
    assert!(dir.path().join(crowddb_wal::SNAPSHOT_FILE).exists());

    let db = CrowdDB::open_with_config(dir.path(), config()).unwrap();
    assert_eq!(db.snapshot().unwrap(), before);
    let mut p = crowd();
    let r = db.execute(PROBE, &mut p).unwrap();
    assert_eq!(r.crowd.tasks_posted, 0);
}

#[test]
fn checkpoint_threshold_keeps_the_log_short() {
    let dir = TestDir::new("core-threshold");
    let mut cfg = config();
    cfg.durability.checkpoint_every_records = 1; // checkpoint after every statement
    let db = CrowdDB::open_with_config(dir.path(), cfg.clone()).unwrap();
    run_workload(&db);
    let before = db.snapshot().unwrap();
    drop(db);

    // Every statement ended at or below the threshold, so the log holds
    // at most the final statement's records; recovery is snapshot-driven.
    let db = CrowdDB::open_with_config(dir.path(), cfg).unwrap();
    assert_eq!(db.snapshot().unwrap(), before);
}

#[test]
fn ddl_and_dml_replay_across_reopen() {
    let dir = TestDir::new("core-ddl-dml");
    let db = CrowdDB::open_with_config(dir.path(), config()).unwrap();
    let mut p = crowd();
    db.execute(
        "CREATE TABLE dept (name STRING PRIMARY KEY, size INTEGER)",
        &mut p,
    )
    .unwrap();
    db.execute("INSERT INTO dept VALUES ('db', 7)", &mut p)
        .unwrap();
    db.execute("INSERT INTO dept VALUES ('os', 9)", &mut p)
        .unwrap();
    db.execute("CREATE INDEX dept_size ON dept (size)", &mut p)
        .unwrap();
    db.execute("UPDATE dept SET size = 11 WHERE name = 'os'", &mut p)
        .unwrap();
    db.execute("INSERT INTO dept VALUES ('pl', 3)", &mut p)
        .unwrap();
    db.execute("DELETE FROM dept WHERE name = 'db'", &mut p)
        .unwrap();
    let before = db.snapshot().unwrap();
    drop(db);

    let db = CrowdDB::open_with_config(dir.path(), config()).unwrap();
    assert_eq!(db.snapshot().unwrap(), before);
    let r = db
        .execute_local("SELECT name, size FROM dept ORDER BY size")
        .unwrap();
    let got: Vec<(String, Value)> = r
        .rows
        .iter()
        .map(|row| (row[0].to_string(), row[1].clone()))
        .collect();
    assert_eq!(
        got,
        vec![
            ("pl".to_string(), Value::Int(3)),
            ("os".to_string(), Value::Int(11)),
        ]
    );
}

/// The log once stored a statement as its rendered text and replayed by
/// parsing it again, so text that did not render back to itself replayed
/// as another statement. Each line here once did: quoted text outside ASCII
/// (mangled again by every replay), names that only exist quoted, an
/// overflowing float literal (`inf` is a column name), and `NOT NULL`
/// beside `PRIMARY KEY`.
#[test]
fn statements_that_need_care_to_render_replay_as_themselves() {
    let dir = TestDir::new("core-render-replay");
    let db = CrowdDB::open_with_config(dir.path(), config()).unwrap();
    for sql in [
        "CREATE TABLE \"my table\" (\"select\" STRING PRIMARY KEY NOT NULL, x FLOAT)",
        "INSERT INTO \"my table\" VALUES ('Z\u{fc}rich \u{4e2d}\u{1f600}', 1e999), ('it''s', -1e999)",
        "UPDATE \"my table\" SET x = 2.0 WHERE \"select\" = 'it''s'",
    ] {
        db.execute_local(sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
    }
    const READ: &str = "SELECT \"select\", x FROM \"my table\" ORDER BY x";
    let before = db.execute_local(READ).unwrap().rows;
    assert_eq!(before[0][0], Value::str("it's"));
    assert_eq!(before[1][0], Value::str("Z\u{fc}rich \u{4e2d}\u{1f600}"));
    assert_eq!(before[1][1], Value::Float(f64::INFINITY));
    let snapshot = db.snapshot().unwrap();
    drop(db); // no close(): recovery replays the three statements

    let db = CrowdDB::open_with_config(dir.path(), config()).unwrap();
    assert_eq!(db.execute_local(READ).unwrap().rows, before);
    assert_eq!(db.snapshot().unwrap(), snapshot);
}

/// The log keeps each statement's text exactly as it was given, and
/// replay parses that text: statements written the way people type them
/// (comments, mixed-case and quoted names, `''` escapes, a string spanning
/// lines, a trailing `;`) recover to the state they built.
#[test]
fn statements_as_typed_are_logged_as_given_and_replay() {
    const TYPED: &[&str] = &[
        "-- talks, keyed by title\nCREATE TABLE \"Talk\" (\n  Title STRING PRIMARY KEY, \
         /* the key */\n  \"Abstract\" CROWD STRING,\n  Nb INTEGER\n);",
        "CREATE INDEX Talk_Nb ON talk (NB);",
        "insert into TALK (title, nb) values ('CrowdDB', 10), ('It''s a crowd', 20);",
        "INSERT INTO Talk VALUES ('Two\nlines', 'An abstract\nthat spans\n''three'' lines', 30) ; \
         -- trailing comment",
        "Update TALK set \"ABSTRACT\" = 'it''s done' -- set it\n  WHERE Title = 'It''s a crowd';",
        "/* the small one goes */ DELETE FROM talk WHERE nb < 15;",
        "CREATE TABLE Scratch (K INTEGER PRIMARY KEY);",
        "drop table SCRATCH;",
    ];
    let dir = TestDir::new("core-typed");
    let db = CrowdDB::open_with_config(dir.path(), config()).unwrap();
    for sql in TYPED {
        db.execute_local(sql)
            .unwrap_or_else(|e| panic!("{sql}: {e}"));
    }
    const READ: &str = "SELECT title, abstract, nb FROM talk ORDER BY nb";
    let before = db.execute_local(READ).unwrap().rows;
    let cells: Vec<Vec<Value>> = before.iter().map(|r| r.values().to_vec()).collect();
    assert_eq!(
        cells,
        [
            vec![
                Value::str("It's a crowd"),
                Value::str("it's done"),
                Value::Int(20)
            ],
            vec![
                Value::str("Two\nlines"),
                Value::str("An abstract\nthat spans\n'three' lines"),
                Value::Int(30)
            ],
        ]
    );
    let snapshot = db.snapshot().unwrap();
    drop(db); // no close(): recovery replays every statement

    // The log holds the texts as given, one record each.
    let copy = TestDir::new("core-typed-log");
    std::fs::copy(
        dir.path().join(crowddb_wal::WAL_FILE),
        copy.path().join(crowddb_wal::WAL_FILE),
    )
    .unwrap();
    let (_, recovered) = DurableStore::open(copy.path(), FsyncPolicy::Never).unwrap();
    let logged: Vec<&str> = (recovered.records.iter())
        .map(|rec| match rec {
            crowddb_storage::LogRecord::Ddl { sql } | crowddb_storage::LogRecord::Dml { sql } => {
                sql.as_str()
            }
            other => panic!("unexpected {} record", other.kind()),
        })
        .collect();
    assert_eq!(logged, TYPED);

    let db = CrowdDB::open_with_config(dir.path(), config()).unwrap();
    assert_eq!(db.execute_local(READ).unwrap().rows, before);
    assert_eq!(db.snapshot().unwrap(), snapshot);
    assert!(db.execute_local("SELECT k FROM scratch").is_err());
}

#[test]
fn truncation_sweep_recovers_a_usable_prefix_at_every_offset() {
    // Build a full log (no checkpoints, so the whole history is in it).
    let mut cfg = config();
    cfg.durability.checkpoint_every_records = 0;
    cfg.durability.checkpoint_on_close = false;
    let master = TestDir::new("core-sweep-master");
    let db = CrowdDB::open_with_config(master.path(), cfg.clone()).unwrap();
    run_workload(&db);
    let full_state = db.snapshot().unwrap();
    drop(db);
    let image = std::fs::read(master.path().join(crowddb_wal::WAL_FILE)).unwrap();
    assert!(image.len() > WAL_MAGIC.len(), "log must hold the workload");

    let mut prev_answers = 0usize;
    for cut in WAL_MAGIC.len()..=image.len() {
        let dir = TestDir::new("core-sweep-cut");
        std::fs::write(dir.path().join(crowddb_wal::WAL_FILE), &image[..cut]).unwrap();
        let db = CrowdDB::open_with_config(dir.path(), cfg.clone())
            .unwrap_or_else(|e| panic!("cut {cut}: recovery failed: {e}"));

        // Prefix consistency, observed from the SQL surface: the number
        // of crowd answers already present never goes down as more of
        // the log survives.
        let answers = match db.execute_local(PROBE) {
            Ok(r) => r
                .rows
                .iter()
                .flat_map(|row| row.values().iter())
                .filter(|v| !v.is_cnull())
                .count(),
            // Before the CREATE TABLE record survives, the probe query
            // legitimately fails to bind.
            Err(_) => 0,
        };
        assert!(
            answers >= prev_answers,
            "cut {cut}: recovered fewer answers ({answers}) than a shorter log ({prev_answers})"
        );
        prev_answers = answers;
    }

    // An uncut log recovers the exact pre-crash state.
    let dir = TestDir::new("core-sweep-full");
    std::fs::write(dir.path().join(crowddb_wal::WAL_FILE), &image).unwrap();
    let db = CrowdDB::open_with_config(dir.path(), cfg).unwrap();
    assert_eq!(db.snapshot().unwrap(), full_state);
    assert_eq!(prev_answers, 2, "both crowd answers survive the full log");
}

#[test]
fn compare_cache_verdicts_survive_reopen() {
    let dir = TestDir::new("core-caches");
    let db = CrowdDB::open_with_config(dir.path(), config()).unwrap();
    let mut p = MockPlatform::unanimous(|kind| match kind {
        TaskKind::Equal { .. } => Answer::Yes,
        _ => Answer::Blank,
    });
    db.execute(
        "CREATE TABLE co (name STRING PRIMARY KEY, hq STRING)",
        &mut p,
    )
    .unwrap();
    db.execute("INSERT INTO co VALUES ('IBM', 'Armonk')", &mut p)
        .unwrap();
    db.execute(
        "INSERT INTO co VALUES ('Intl. Business Machines', 'NY')",
        &mut p,
    )
    .unwrap();
    let r = db
        .execute("SELECT name FROM co WHERE name ~= 'IBM'", &mut p)
        .unwrap();
    assert!(r.complete, "warnings: {:?}", r.warnings);
    assert_eq!(r.rows.len(), 2, "the crowd said both names mean IBM");
    let before = db.snapshot().unwrap();
    drop(db);

    let db = CrowdDB::open_with_config(dir.path(), config()).unwrap();
    assert_eq!(db.snapshot().unwrap(), before);
    let r = db
        .execute("SELECT name FROM co WHERE name ~= 'IBM'", &mut p)
        .unwrap();
    assert_eq!(r.rows.len(), 2);
    assert_eq!(r.crowd.tasks_posted, 0, "verdicts must be reused");
}

#[test]
fn paged_checkpoint_flushes_only_dirty_pages() {
    let dir = TestDir::new("core-paged-ckpt");
    let db = CrowdDB::open_with_config(dir.path(), config()).unwrap();
    assert!(
        db.storage().is_file_backed(),
        "durable sessions must run on the paged engine"
    );
    let mut p = crowd();
    db.execute(DDL, &mut p).unwrap();
    for i in 0..200 {
        db.execute(
            &format!("INSERT INTO talk VALUES ('t{i}', 'a{i}', {i})"),
            &mut p,
        )
        .unwrap();
    }
    db.checkpoint().unwrap();
    let full = db
        .metrics()
        .counter("crowddb_checkpoint_pages_written_total");
    assert!(full > 4, "bulk load must dirty many pages, got {full}");

    // One-row DML: the next checkpoint flushes only the pages that
    // single update touched, not the whole table.
    db.execute(
        "UPDATE talk SET nb_attendees = 999 WHERE title = 't7'",
        &mut p,
    )
    .unwrap();
    db.checkpoint().unwrap();
    let delta = db
        .metrics()
        .counter("crowddb_checkpoint_pages_written_total")
        - full;
    assert!(
        delta > 0 && delta < full / 2,
        "1-row DML checkpoint must flush a handful of pages, not the database: \
         {delta} vs {full} initially"
    );
    assert_eq!(
        db.storage().dirty_pages(),
        0,
        "checkpoint leaves no dirty pages"
    );
    db.close().unwrap();

    // The committed snapshot payload is paged metadata, tiny next to the
    // full logical state.
    let snap_len = std::fs::metadata(dir.path().join(crowddb_wal::SNAPSHOT_FILE))
        .unwrap()
        .len();
    let logical = CrowdDB::open_with_config(dir.path(), config())
        .unwrap()
        .snapshot()
        .unwrap()
        .len() as u64;
    assert!(
        snap_len < logical / 4,
        "paged checkpoint payload ({snap_len}B) should be far smaller than \
         the logical state ({logical}B)"
    );
}

#[test]
fn paged_reopen_survives_uncheckpointed_tail() {
    let dir = TestDir::new("core-paged-tail");
    let mut cfg = config();
    cfg.durability.checkpoint_every_records = 0; // manual checkpoints only
    let db = CrowdDB::open_with_config(dir.path(), cfg.clone()).unwrap();
    let mut p = crowd();
    db.execute(DDL, &mut p).unwrap();
    db.execute("INSERT INTO talk VALUES ('a', 'x', 1)", &mut p)
        .unwrap();
    db.checkpoint().unwrap();
    // Tail past the checkpoint: replayed from the log over the page file.
    db.execute("INSERT INTO talk VALUES ('b', 'y', 2)", &mut p)
        .unwrap();
    db.execute("UPDATE talk SET nb_attendees = 7 WHERE title = 'a'", &mut p)
        .unwrap();
    let before = db.snapshot().unwrap();
    drop(db); // crash: no close, no final checkpoint

    let db = CrowdDB::open_with_config(dir.path(), cfg).unwrap();
    assert!(db.storage().is_file_backed());
    assert_eq!(
        db.snapshot().unwrap(),
        before,
        "paged recovery must replay the tail to byte-identical state"
    );
    let mut p = crowd();
    let r = db
        .execute("SELECT title, nb_attendees FROM talk", &mut p)
        .unwrap();
    assert_eq!(r.rows.len(), 2);
}

/// Until the first checkpoint the page file holds nothing the log does
/// not, so the configured page size (which `CROWDDB_PAGE_SIZE` feeds by
/// default) may change between opens; once a checkpoint has committed,
/// the recorded size wins.
#[test]
fn uncheckpointed_directory_reopens_under_another_page_size() {
    let dir = TestDir::new("core-page-size");
    let sized = |page_size: usize| {
        let mut cfg = config();
        cfg.durability.checkpoint_every_records = 0; // manual checkpoints only
        cfg.storage.page_size = page_size;
        cfg
    };
    let db = CrowdDB::open_with_config(dir.path(), sized(4096)).unwrap();
    let mut p = crowd();
    db.execute(DDL, &mut p).unwrap();
    db.execute("INSERT INTO talk VALUES ('a', 'x', 1)", &mut p)
        .unwrap();
    let before = db.snapshot().unwrap();
    drop(db); // crash before any checkpoint

    for page_size in [8192, 1024] {
        let db = CrowdDB::open_with_config(dir.path(), sized(page_size)).unwrap();
        assert_eq!(db.storage().page_size(), page_size);
        assert_eq!(db.snapshot().unwrap(), before);
        drop(db);
    }
    // A page file cut short mid-creation is as unreachable as a whole one.
    std::fs::write(dir.path().join(crowddb_storage::pager::PAGES_FILE), b"torn").unwrap();
    let db = CrowdDB::open_with_config(dir.path(), sized(4096)).unwrap();
    assert_eq!(db.snapshot().unwrap(), before);
    db.checkpoint().unwrap();
    drop(db);

    let db = CrowdDB::open_with_config(dir.path(), sized(8192)).unwrap();
    assert_eq!(db.storage().page_size(), 4096, "checkpointed size wins");
    assert_eq!(db.snapshot().unwrap(), before);
}

/// Nothing since the paged engine writes a checkpoint whose storage
/// section is a full-state snapshot; a directory holding one is refused
/// by name rather than restored into an engine that cannot checkpoint.
#[test]
fn full_state_checkpoint_is_refused_typed() {
    let dir = TestDir::new("core-legacy-ckpt");
    let mem = CrowdDB::with_config(config());
    mem.execute_local(DDL).unwrap();
    let (mut store, _) = DurableStore::open(dir.path(), FsyncPolicy::Never).unwrap();
    store.checkpoint(&mem.snapshot().unwrap()).unwrap();
    drop(store);

    let err = CrowdDB::open_with_config(dir.path(), config())
        .err()
        .expect("a CDBS checkpoint must not open");
    assert_eq!(err.category(), "io", "{err}");
    let msg = err.to_string();
    assert!(msg.contains("CDBS") && msg.contains("CDBM"), "{msg}");
}

/// The buffer pool is no-steal and purely a cache: a durable session
/// squeezed into a 4-page pool must produce byte-identical results,
/// WAL contents, and snapshots to one with an unbounded pool.
#[test]
fn tiny_pool_session_is_byte_identical_to_unbounded() {
    let run = |pool_pages: usize| {
        let dir = TestDir::new("core-pool-ident");
        let mut cfg = config();
        cfg.storage.page_size = 256; // many pages even for a small table
        cfg.storage.pool_pages = pool_pages;
        cfg.durability.checkpoint_every_records = 8; // clean pages → evictable
        let db = CrowdDB::open_with_config(dir.path(), cfg).unwrap();
        let mut p = crowd();
        db.execute(DDL, &mut p).unwrap();
        for i in 0..60 {
            db.execute(
                &format!("INSERT INTO talk VALUES ('t{i}', 'a{i}', {i})"),
                &mut p,
            )
            .unwrap();
        }
        db.execute("INSERT INTO talk VALUES ('CrowdDB', CNULL, CNULL)", &mut p)
            .unwrap();
        let probe = db.execute(PROBE, &mut p).unwrap();
        let scan = db
            .execute(
                "SELECT title, nb_attendees FROM talk ORDER BY title",
                &mut p,
            )
            .unwrap();
        let evictions = db.storage().pager_stats().evictions;
        let snapshot = db.snapshot().unwrap();
        db.close().unwrap();
        let wal = std::fs::read(dir.path().join(crowddb_wal::WAL_FILE)).unwrap();
        (probe.rows, scan.rows, snapshot, wal, evictions)
    };

    let tiny = run(4);
    let unbounded = run(0);
    assert!(
        tiny.4 > 0,
        "the 4-page run must actually evict (got {} evictions)",
        tiny.4
    );
    assert_eq!(unbounded.4, 0, "the unbounded pool never evicts");
    assert_eq!(tiny.0, unbounded.0, "probe rows diverge across pool sizes");
    assert_eq!(tiny.1, unbounded.1, "scan rows diverge across pool sizes");
    assert_eq!(tiny.2, unbounded.2, "snapshots diverge across pool sizes");
    assert_eq!(tiny.3, unbounded.3, "WAL bytes diverge across pool sizes");
}

/// Standing queries across a crash: subscriptions are session state (not
/// persisted), but the *data* they watch is durable. Kill the engine
/// without `close()` while half the crowd work is still outstanding,
/// reopen from the log, re-register — the fresh snapshot batch must
/// byte-match the state the old subscriber had accumulated, and the
/// resumed stream stays consistent with re-execution as new rounds
/// settle.
#[test]
fn subscriptions_resume_consistently_after_crash_recovery() {
    use crowddb_core::{canonical_rows, SubscriberState};

    let dir = TestDir::new("core-sub-crash");
    const WATCH: &str = "SELECT title, abstract FROM talk";

    let mut acc = SubscriberState::new();
    let (pre_crash_canonical, old_id) = {
        let db = CrowdDB::open_with_config(dir.path(), config()).unwrap();
        let mut p = crowd();
        db.execute(DDL, &mut p).unwrap();
        db.execute(
            "INSERT INTO talk VALUES ('CrowdDB', CNULL, CNULL), ('Qurk', CNULL, CNULL)",
            &mut p,
        )
        .unwrap();

        let (id, _) = db.subscribe_id(WATCH).unwrap();
        // Snapshot + the delta from the first probe's settled round; the
        // second row's crowd columns are still CNULL when we "crash".
        db.execute(PROBE, &mut p).unwrap();
        while let Some(batch) = db.poll_subscription(id).unwrap() {
            acc.apply(&batch).unwrap();
        }
        let fresh = db.execute_local(WATCH).unwrap();
        assert_eq!(acc.canonical(), canonical_rows(&fresh.rows));
        (acc.canonical(), id)
        // drop(db) without close(): recovery must come from the log.
    };

    let db = CrowdDB::open_with_config(dir.path(), config()).unwrap();
    // The old handle is dead — subscriptions are not durable state.
    assert!(
        db.poll_subscription(old_id).is_err(),
        "pre-crash subscription ids must not survive recovery"
    );

    // Re-register: the fresh snapshot equals the pre-crash accumulated
    // state, because the watched data recovered byte-identically.
    let (id, _) = db.subscribe_id(WATCH).unwrap();
    let mut resumed = SubscriberState::new();
    while let Some(batch) = db.poll_subscription(id).unwrap() {
        resumed.apply(&batch).unwrap();
    }
    assert_eq!(
        resumed.canonical(),
        pre_crash_canonical,
        "resync snapshot after recovery must match the pre-crash stream state"
    );

    // The stream resumes: the outstanding row's round settles and the
    // delta keeps the subscriber consistent with re-execution.
    let mut p = crowd();
    let r = db
        .execute("SELECT abstract FROM talk WHERE title = 'Qurk'", &mut p)
        .unwrap();
    assert!(r.complete);
    let mut got_delta = false;
    while let Some(batch) = db.poll_subscription(id).unwrap() {
        got_delta = true;
        resumed.apply(&batch).unwrap();
    }
    assert!(got_delta, "the settled round must emit a delta");
    let fresh = db.execute_local(WATCH).unwrap();
    assert_eq!(resumed.canonical(), canonical_rows(&fresh.rows));
    db.close().unwrap();
}

/// UPDATE/DELETE find their rows through index access paths — on the
/// first run, on the apply pass and on log replay alike — and none of
/// that may show in what is made durable. The log stays logical (exactly
/// one record per committed statement, byte for byte what appending the
/// statement texts yields), the recovered state is byte-identical to the
/// pre-crash state, and both equal the rows worked out by hand below.
#[test]
fn dml_by_access_path_logs_and_replays_like_a_full_scan() {
    const STREAM: &[&str] = &[
        "CREATE TABLE s (k INTEGER PRIMARY KEY, grp INTEGER, v INTEGER)",
        "CREATE TABLE p (a INTEGER, b STRING, v INTEGER, PRIMARY KEY (a, b))",
        "CREATE INDEX s_grp ON s (grp)",
        "INSERT INTO s VALUES (1, 1, 0), (2, 1, 0), (3, 2, 0), (4, 2, 0), (5, 3, 0), \
         (6, NULL, 0), (7, 4, 0), (8, 4, 0)",
        "INSERT INTO p VALUES (1, 'x', 0), (1, 'y', 0), (2, 'x', 0)",
        // PK point; secondary point; range that moves its own key;
        // composite-PK point; unindexed; PK point delete; range delete;
        // a re-insert into the freed slot space; no WHERE.
        "UPDATE s SET v = v + 10 WHERE k = 3",
        "UPDATE s SET v = v + 1 WHERE grp = 4",
        "UPDATE s SET grp = grp + 1 WHERE grp >= 2 AND grp < 4",
        "UPDATE p SET v = 7 WHERE b = 'y' AND a = 1",
        "UPDATE s SET v = v + 100 WHERE v = 0 AND grp IS NULL",
        "DELETE FROM s WHERE k = 2",
        "DELETE FROM s WHERE grp > 3",
        "DELETE FROM p WHERE a = 2 AND b = 'x'",
        "INSERT INTO s VALUES (9, 1, 0)",
        "UPDATE s SET v = v * 2",
    ];
    let dir = TestDir::new("core-dml-access");
    let db = CrowdDB::open_with_config(dir.path(), config()).unwrap();
    let mut p = crowd();
    for sql in STREAM {
        db.execute(sql, &mut p).expect(sql);
    }
    let rows = |db: &CrowdDB, sql: &str| -> Vec<String> {
        let r = db.execute_local(sql).unwrap();
        r.rows.iter().map(|row| row.to_string()).collect()
    };
    let s_rows = [
        "(1, 1, 0)",
        "(3, 3, 20)",
        "(4, 3, 0)",
        "(6, NULL, 200)",
        "(9, 1, 0)",
    ];
    let p_rows = ["(1, x, 0)", "(1, y, 7)"];
    assert_eq!(rows(&db, "SELECT k, grp, v FROM s ORDER BY k"), s_rows);
    assert_eq!(rows(&db, "SELECT a, b, v FROM p ORDER BY a, b"), p_rows);
    let before = db.snapshot().unwrap();
    drop(db); // crash: no close(), no checkpoint

    let wal = std::fs::read(dir.path().join(crowddb_wal::WAL_FILE)).unwrap();
    let oracle_dir = TestDir::new("core-dml-access-oracle");
    let (mut store, _) = DurableStore::open(oracle_dir.path(), FsyncPolicy::Never).unwrap();
    for sql in STREAM {
        // The log keeps each statement's text as it was given.
        let sql = sql.to_string();
        store
            .append(&if sql.starts_with("CREATE") {
                crowddb_storage::LogRecord::Ddl { sql }
            } else {
                crowddb_storage::LogRecord::Dml { sql }
            })
            .unwrap();
    }
    store.sync().unwrap();
    drop(store);
    let oracle_wal = std::fs::read(oracle_dir.path().join(crowddb_wal::WAL_FILE)).unwrap();
    assert_eq!(
        wal, oracle_wal,
        "the log is one logical record per statement"
    );

    let db = CrowdDB::open_with_config(dir.path(), config()).unwrap();
    assert_eq!(db.snapshot().unwrap(), before, "replay diverges");
    assert_eq!(rows(&db, "SELECT k, grp, v FROM s ORDER BY k"), s_rows);
    assert_eq!(rows(&db, "SELECT a, b, v FROM p ORDER BY a, b"), p_rows);
}

/// The log holds DML in the order it was applied. Two sessions negate
/// one row's value while two others increment it: the statements do not
/// commute, so a log that records two of them in the other order replays
/// to a value the live session never had.
#[test]
fn wal_order_is_apply_order_under_concurrent_sessions() {
    const SESSIONS: usize = 4;
    const PER_SESSION: usize = 300;
    let mut cfg = config();
    cfg.durability.checkpoint_every_records = 0;
    cfg.durability.checkpoint_on_close = false;
    let value = |db: &CrowdDB| {
        let r = db.execute_local("SELECT v FROM t WHERE k = 1").unwrap();
        r.rows[0][0].clone()
    };
    for trial in 0..20 {
        let dir = TestDir::new(&format!("core-wal-order-{trial}"));
        let db = std::sync::Arc::new(CrowdDB::open_with_config(dir.path(), cfg.clone()).unwrap());
        db.execute_local("CREATE TABLE t (k INTEGER PRIMARY KEY, v INTEGER)")
            .unwrap();
        db.execute_local("INSERT INTO t VALUES (1, 1)").unwrap();
        std::thread::scope(|scope| {
            for s in 0..SESSIONS {
                let db = &db;
                scope.spawn(move || {
                    let sql = match s % 2 {
                        0 => "UPDATE t SET v = 0 - v WHERE k = 1",
                        _ => "UPDATE t SET v = v + 1 WHERE k = 1",
                    };
                    for _ in 0..PER_SESSION {
                        assert_eq!(db.execute_local(sql).unwrap().affected, 1);
                    }
                });
            }
        });
        let live = value(&db);
        drop(db); // no close(), no checkpoint: the log alone recovers
        let db = CrowdDB::open_with_config(dir.path(), cfg.clone()).unwrap();
        assert_eq!(value(&db), live, "trial {trial}: replay diverges");
    }
}
