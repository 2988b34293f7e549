//! Deterministic crash-injection harness.
//!
//! These tests simulate every crash the append-only design can suffer —
//! a torn final record, truncation at *every byte offset* of a generated
//! log, and a crash between the two steps of a checkpoint — and prove the
//! recovery invariants:
//!
//! 1. **Prefix consistency**: reopening a log cut at any byte yields the
//!    database produced by some prefix of the committed records, and the
//!    recovered state is byte-identical (via the storage snapshot) to that
//!    reference prefix state.
//! 2. **Monotonicity**: cutting at a later offset never recovers fewer
//!    records than cutting at an earlier one.
//! 3. **Checkpoint safety**: a crash after the snapshot rename but before
//!    the log truncation replays nothing twice and loses nothing.
//!
//! Everything is deterministic — a fixed script of records, no RNG, no
//! timing dependence — so a failure here reproduces on the first rerun.

use crowddb_common::{row, TupleId, Value};
use crowddb_storage::{Database, LogRecord};
use crowddb_wal::testutil::TestDir;
use crowddb_wal::{DurableStore, FsyncPolicy, WAL_MAGIC};

/// A fixed multi-statement workload: DDL + crowd write-backs, all
/// storage-level records so the harness can replay them with
/// `Database::apply` alone.
fn script() -> Vec<LogRecord> {
    vec![
        LogRecord::Ddl {
            sql: "CREATE CROWD TABLE talk (title STRING PRIMARY KEY, abstract CROWD STRING, \
                  nb_attendees CROWD INTEGER)"
                .into(),
        },
        LogRecord::WriteBackTuple {
            table: "talk".into(),
            row: row!["CrowdDB", Value::CNull, Value::CNull],
        },
        LogRecord::WriteBackTuple {
            table: "talk".into(),
            row: row!["Qurk", Value::CNull, Value::CNull],
        },
        LogRecord::WriteBackValue {
            table: "talk".into(),
            tid: TupleId(0),
            col: 1,
            value: Value::str("answering queries with crowdsourcing"),
        },
        LogRecord::WriteBackValue {
            table: "talk".into(),
            tid: TupleId(1),
            col: 2,
            value: Value::Int(75),
        },
        LogRecord::Ddl {
            sql: "CREATE INDEX talk_att ON talk (nb_attendees)".into(),
        },
        LogRecord::WriteBackTuple {
            table: "talk".into(),
            row: row!["HumanGS", Value::str("crowd genome curation"), 120i64],
        },
        LogRecord::WriteBackValue {
            table: "talk".into(),
            tid: TupleId(1),
            col: 1,
            value: Value::str("declarative crowdsourcing workflows"),
        },
    ]
}

/// Reference states: `states[k]` is the codec snapshot of a database that
/// applied exactly the first `k` script records.
fn reference_states(script: &[LogRecord]) -> Vec<Vec<u8>> {
    let mut states = Vec::with_capacity(script.len() + 1);
    for k in 0..=script.len() {
        let db = Database::new();
        for rec in &script[..k] {
            assert!(db.apply(rec).unwrap(), "script must be storage-level");
        }
        states.push(db.snapshot().unwrap().to_vec());
    }
    states
}

fn replay(recovered_snapshot: Option<&[u8]>, records: &[LogRecord]) -> Database {
    let db = match recovered_snapshot {
        Some(bytes) => Database::restore(bytes).unwrap(),
        None => Database::new(),
    };
    for rec in records {
        assert!(db.apply(rec).unwrap());
    }
    db
}

#[test]
fn truncation_at_every_byte_offset_recovers_a_consistent_prefix() {
    let script = script();
    let states = reference_states(&script);

    // Generate the full log once.
    let master = TestDir::new("crash-master");
    let (mut store, recovered) = DurableStore::open(master.path(), FsyncPolicy::Never).unwrap();
    assert!(recovered.is_fresh());
    for rec in &script {
        store.append(rec).unwrap();
    }
    store.sync().unwrap();
    drop(store);
    let image = std::fs::read(master.path().join(crowddb_wal::WAL_FILE)).unwrap();

    let mut prev_survivors = 0usize;
    for cut in WAL_MAGIC.len()..=image.len() {
        let dir = TestDir::new("crash-cut");
        std::fs::write(dir.path().join(crowddb_wal::WAL_FILE), &image[..cut]).unwrap();

        let (store, recovered) = DurableStore::open(dir.path(), FsyncPolicy::Never).unwrap();
        let k = recovered.records.len();

        // Prefix consistency: exactly the first k script records survive.
        assert!(k <= script.len(), "cut {cut}: recovered too many records");
        assert_eq!(recovered.records, script[..k], "cut {cut}: not a prefix");

        // Monotonicity: more bytes never means fewer records.
        assert!(k >= prev_survivors, "cut {cut}: recovery went backwards");
        prev_survivors = k;

        // Byte-identical state: replaying the survivors reproduces the
        // reference prefix state exactly, codec byte for codec byte.
        let db = replay(None, &recovered.records);
        assert_eq!(
            db.snapshot().unwrap().to_vec(),
            states[k],
            "cut {cut}: replayed state diverges from prefix state"
        );

        // The trimmed log accepts new appends with continuous LSNs.
        assert_eq!(store.last_lsn(), k as u64, "cut {cut}");
    }
    // The final cut (no truncation) must recover the whole script.
    assert_eq!(prev_survivors, script.len());
}

#[test]
fn snapshot_plus_log_tail_is_byte_identical_to_pre_crash_state() {
    let script = script();
    let states = reference_states(&script);
    let mid = 5;

    let dir = TestDir::new("crash-ckpt-tail");
    let (mut store, _) = DurableStore::open(dir.path(), FsyncPolicy::Always).unwrap();
    let live = Database::new();
    for rec in &script[..mid] {
        store.append(rec).unwrap();
        live.apply(rec).unwrap();
    }
    // Checkpoint the live state, then keep going.
    store.checkpoint(&live.snapshot().unwrap()).unwrap();
    for rec in &script[mid..] {
        store.append(rec).unwrap();
        live.apply(rec).unwrap();
    }
    drop(store); // crash: no close, no final checkpoint

    let (_, recovered) = DurableStore::open(dir.path(), FsyncPolicy::Always).unwrap();
    let snap = recovered.snapshot.as_deref().expect("snapshot must exist");
    assert_eq!(snap, &states[mid][..], "snapshot is the mid-script state");
    assert_eq!(recovered.records, script[mid..], "tail records survive");

    let db = replay(Some(snap), &recovered.records);
    assert_eq!(
        db.snapshot().unwrap().to_vec(),
        live.snapshot().unwrap().to_vec()
    );
    assert_eq!(db.snapshot().unwrap().to_vec(), states[script.len()]);
}

#[test]
fn crash_between_snapshot_rename_and_log_truncation_is_harmless() {
    let script = script();
    let states = reference_states(&script);
    let mid = 4;

    let dir = TestDir::new("crash-ckpt-window");
    let (mut store, _) = DurableStore::open(dir.path(), FsyncPolicy::Always).unwrap();
    let live = Database::new();
    for rec in &script[..mid] {
        store.append(rec).unwrap();
        live.apply(rec).unwrap();
    }
    drop(store);

    // Simulate the crash window: the snapshot landed (covering LSNs
    // 1..=mid) but the log still holds those same records.
    crowddb_wal::snapshot::write(
        &dir.path().join(crowddb_wal::SNAPSHOT_FILE),
        mid as u64,
        &live.snapshot().unwrap(),
    )
    .unwrap();

    let (mut store, recovered) = DurableStore::open(dir.path(), FsyncPolicy::Always).unwrap();
    assert!(
        recovered.records.is_empty(),
        "snapshot-covered records must not replay twice"
    );
    let db = replay(recovered.snapshot.as_deref(), &recovered.records);
    assert_eq!(db.snapshot().unwrap().to_vec(), states[mid]);

    // New appends continue past the covered LSNs.
    for rec in &script[mid..] {
        store.append(rec).unwrap();
        db.apply(rec).unwrap();
    }
    drop(store);
    let (_, recovered) = DurableStore::open(dir.path(), FsyncPolicy::Always).unwrap();
    let db2 = replay(recovered.snapshot.as_deref(), &recovered.records);
    assert_eq!(db2.snapshot().unwrap().to_vec(), states[script.len()]);
}

#[test]
fn torn_write_of_a_growing_log_never_loses_a_synced_record() {
    // Append with fsync=always, tearing the file after each append: the
    // records appended so far must always survive in full.
    let script = script();
    let dir = TestDir::new("crash-grow");
    for n in 1..=script.len() {
        let sub = TestDir::new("crash-grow-step");
        let (mut store, _) = DurableStore::open(sub.path(), FsyncPolicy::Always).unwrap();
        for rec in &script[..n] {
            store.append(rec).unwrap();
        }
        drop(store);
        // Tear: append garbage (a partial next frame) to the log.
        let wal_path = sub.path().join(crowddb_wal::WAL_FILE);
        let mut image = std::fs::read(&wal_path).unwrap();
        image.extend_from_slice(&[0x55, 0x01, 0x00]);
        std::fs::write(&wal_path, &image).unwrap();

        let (_, recovered) = DurableStore::open(sub.path(), FsyncPolicy::Always).unwrap();
        assert_eq!(recovered.records, script[..n], "after {n} appends");
    }
    drop(dir);
}

/// The round-trip the acceptance criteria call out: a value bought from
/// the crowd (write-back record) survives any crash once its round's
/// records hit the log.
#[test]
fn paid_answers_survive_any_suffix_loss() {
    let script = script();
    let dir = TestDir::new("crash-paid");
    let (mut store, _) = DurableStore::open(dir.path(), FsyncPolicy::Always).unwrap();
    for rec in &script {
        store.append(rec).unwrap();
    }
    drop(store);

    let (_, recovered) = DurableStore::open(dir.path(), FsyncPolicy::Always).unwrap();
    let db = replay(None, &recovered.records);
    let abs = db
        .with_table("talk", |t| t.get(TupleId(0)).unwrap().unwrap()[1].clone())
        .unwrap();
    assert_eq!(abs, Value::str("answering queries with crowdsourcing"));
    let att = db
        .with_table("talk", |t| t.get(TupleId(1)).unwrap().unwrap()[2].clone())
        .unwrap();
    assert_eq!(att, Value::Int(75));
}
