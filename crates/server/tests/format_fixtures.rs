//! Format fixtures: every binary format CrowdDB writes, pinned byte for
//! byte.
//!
//! The hex constants below were captured at commit `c0859ac`, before the
//! formats moved onto `crowddb_common::codec`. Each test section asserts
//! that encoding today produces exactly those bytes and that decoding
//! those bytes yields the expected values — so the test fails if a single
//! byte of the row codec, a `LogRecord`, a WAL frame, a snapshot file, a
//! storage or session snapshot, paged metadata, a checkpoint journal or
//! a CDBP frame moves.
//! It lives in the server crate because that is the one place that sees
//! every format.

use std::collections::HashMap;

use crowddb_common::codec::{self, Reader};
use crowddb_common::{row, Row, TupleId, Value};
use crowddb_core::{CrowdConfig, CrowdDB, CrowdSummary, QueryResult};
use crowddb_server::protocol::{self, Request, Response};
use crowddb_storage::pager::{JOURNAL_FILE, PAGES_FILE};
use crowddb_storage::{Database, LogRecord, Pager, PagerConfig};
use crowddb_wal::testutil::TestDir;
use crowddb_wal::{scan_frames, snapshot, FsyncPolicy, Wal};

const ROW: &str = "\
    070000000001020304d6ffffffffffffff050000000000000440060b00000068c3a96c6c6f20f09f\
    a680\
";
const LOG_RECORD_0: &str = "\
    01061a000000435245415445205441424c45207420286120494e544547455229\
";
const LOG_RECORD_1: &str = "\
    020618000000494e5345525420494e544f20742056414c55455320283129\
";
const LOG_RECORD_2: &str = "\
    03060400000074616c6b040700000000000000040200000000000000060b000000616e2061627374\
    72616374\
";
const LOG_RECORD_3: &str = "\
    04060f0000006e6f7461626c65617474656e646565070000000001020304d6ffffffffffffff0500\
    00000000000440060b00000068c3a96c6c6f20f09fa680\
";
const LOG_RECORD_4: &str = "\
    050606000000492e422e4d2e060300000049424d060c00000073616d6520656e746974793f03\
";
const LOG_RECORD_5: &str = "\
    06060600000073756e7365740603000000666f67060f00000062657474657220706963747572653f\
    02\
";
const WAL_IMAGE: &str = "\
    43444257414c3031280000001c43bb43010000000000000001061a00000043524541544520544142\
    4c45207420286120494e544547455229260000009877e09f0200000000000000020618000000494e\
    5345525420494e544f20742056414c5545532028312934000000d1b7977303000000000000000306\
    0400000074616c6b040700000000000000040200000000000000060b000000616e20616273747261\
    6374\
";
const STORAGE_SNAPSHOT: &str = "\
    43444253020200000008000000617474656e646565700000004352454154452043524f5744205441\
    424c4520617474656e64656520280a20206e616d6520535452494e47205052494d415259204b4559\
    2c0a20207469746c6520535452494e472c0a2020464f524549474e204b455920287469746c652920\
    5245462074616c6b287469746c65290a2902000000000000003e0000000000000002000000000000\
    0000000000000000000200000006040000004d696b65060700000043726f77644442010000000000\
    000002000000060300000053616d010400000074616c6b5d000000435245415445205441424c4520\
    74616c6b20280a20207469746c6520535452494e47205052494d415259204b45592c0a2020616273\
    74726163742043524f574420535452494e472c0a20206e622043524f574420494e54454745520a29\
    03000000000000005200000000000000020000000000000000000000000000000300000006070000\
    0043726f77644442010101000000000000000300000006040000005175726b060d00000064656d6f\
    206162737472616374044b00000000000000\
";
const SNAPSHOT_FILE: &str = "\
    434442534e4150312a0000000000000016000000000000008ce1330f70726563696f75732063726f\
    776420616e7377657273\
";
/// The allocation state in it — page count, then the free list — is what
/// the dropped `scratch` table left behind: 58 pages and 51 free ids since
/// a tree filled in key order keeps its leaves full (64 and 57 while an
/// appended leaf was cut in half; no byte of the layout moved with them).
const PAGED_META: &str = "\
    4344424d010100000000000000000100003b00000000000000330000000000000006000000000000\
    00070000000000000009000000000000000a000000000000000b000000000000000c000000000000\
    000d000000000000000e000000000000000f00000000000000100000000000000011000000000000\
    00120000000000000013000000000000001400000000000000150000000000000016000000000000\
    001700000000000000180000000000000019000000000000001a000000000000001b000000000000\
    001c000000000000001d000000000000001e000000000000001f0000000000000020000000000000\
    00210000000000000022000000000000002300000000000000240000000000000025000000000000\
    0026000000000000002700000000000000280000000000000029000000000000002a000000000000\
    002b000000000000002c000000000000002d000000000000002e000000000000002f000000000000\
    00300000000000000031000000000000003200000000000000330000000000000034000000000000\
    00350000000000000036000000000000003700000000000000380000000000000039000000000000\
    000200000008000000617474656e646565700000004352454154452043524f5744205441424c4520\
    617474656e64656520280a20206e616d6520535452494e47205052494d415259204b45592c0a2020\
    7469746c6520535452494e472c0a2020464f524549474e204b455920287469746c65292052454620\
    74616c6b287469746c65290a29020000000000000002000000000000000100000000000000030000\
    0000000000020000000b000000617474656e6465655f706b01000000000000000101040000000000\
    000011000000617474656e6465655f666b5f7469746c650100000001000000010005000000000000\
    000400000074616c6b5d000000435245415445205441424c452074616c6b20280a20207469746c65\
    20535452494e47205052494d415259204b45592c0a202061627374726163742043524f5744205354\
    52494e472c0a20206e622043524f574420494e54454745520a290300000000000000020000000000\
    000002000000000000000100000000000000020000000700000074616c6b5f706b01000000000000\
    00010102000000000000000700000074616c6b5f6e62010000000200000001003a00000000000000\
";
/// The same image as older builds wrote it: the byte after an index's
/// columns said `0` for a "hash" index (every `<table>_pk`), `1` for a B-tree.
const PAGED_META_KINDS: &str = "\
    4344424d010100000000000000000100003b00000000000000330000000000000006000000000000\
    00070000000000000009000000000000000a000000000000000b000000000000000c000000000000\
    000d000000000000000e000000000000000f00000000000000100000000000000011000000000000\
    00120000000000000013000000000000001400000000000000150000000000000016000000000000\
    001700000000000000180000000000000019000000000000001a000000000000001b000000000000\
    001c000000000000001d000000000000001e000000000000001f0000000000000020000000000000\
    00210000000000000022000000000000002300000000000000240000000000000025000000000000\
    0026000000000000002700000000000000280000000000000029000000000000002a000000000000\
    002b000000000000002c000000000000002d000000000000002e000000000000002f000000000000\
    00300000000000000031000000000000003200000000000000330000000000000034000000000000\
    00350000000000000036000000000000003700000000000000380000000000000039000000000000\
    000200000008000000617474656e646565700000004352454154452043524f5744205441424c4520\
    617474656e64656520280a20206e616d6520535452494e47205052494d415259204b45592c0a2020\
    7469746c6520535452494e472c0a2020464f524549474e204b455920287469746c65292052454620\
    74616c6b287469746c65290a29020000000000000002000000000000000100000000000000030000\
    0000000000020000000b000000617474656e6465655f706b01000000000000000001040000000000\
    000011000000617474656e6465655f666b5f7469746c650100000001000000010005000000000000\
    000400000074616c6b5d000000435245415445205441424c452074616c6b20280a20207469746c65\
    20535452494e47205052494d415259204b45592c0a202061627374726163742043524f5744205354\
    52494e472c0a20206e622043524f574420494e54454745520a290300000000000000020000000000\
    000002000000000000000100000000000000020000000700000074616c6b5f706b01000000000000\
    00000102000000000000000700000074616c6b5f6e62010000000200000001003a00000000000000\
";
/// `pages.journal` of [`checkpoint_journal`], captured at commit `556c9d9`
/// (a bitwise CRC-32 in the pager, before it moved onto `codec::crc32`).
const PAGES_JOURNAL: &str = "\
    4344424a524e4c310100000000000000020000000000000001000000000000004ea86d8501020008\
    0011000000000000000000000002000000060700000043726f776444420108001f00000000000000\
    000000010200000006040000005175726b060d00000064656d6f2061627374726163740000000000\
    00000000000000000000000000000000000000000000000000000000000000000000000000000000\
    00000000000000000000000000000000000000000000000000000000000000000000000000000000\
    00000000000000000000000000000000000000000000000000000000000000000000000000000000\
    00000000000000000000000000000000000000000000000000000000000000000000000000000000\
    00000000000000000000000002000000000000003df3adde01020014000000000006070000004372\
    6f77644442000000000000000011000000000006040000005175726b000000000000000100000000\
    00000000000000000000000000000000000000000000000000000000000000000000000000000000\
    00000000000000000000000000000000000000000000000000000000000000000000000000000000\
    00000000000000000000000000000000000000000000000000000000000000000000000000000000\
    00000000000000000000000000000000000000000000000000000000000000000000000000000000\
    00000000000000000000000000000000000000000000000000000000000000000000000000000000\
";
const SESSION_SNAPSHOT: &str = "\
    8f000000000000004344425302010000000400000074616c6b49000000435245415445205441424c\
    452074616c6b20280a20207469746c6520535452494e47205052494d415259204b45592c0a202061\
    627374726163742043524f574420535452494e470a29010000000000000021000000000000000100\
    000000000000000000000000000002000000060700000043726f77644442014d0000000000000002\
    000000000000000610000000492e422e4d2e1f49424d1f73616d653f030609000000611f621f7361\
    6d653f020100000000000000061200000073756e7365741f666f671f6265747465723f03\
";
const REQUEST_QUERY: &str = "\
    360000006f1621e9023100000053454c4543542061627374726163742046524f4d2074616c6b2057\
    48455245207469746c65203d202743726f7764444227\
";
const RESPONSE_ROWSET: &str = "\
    b3000000ac5a6cce8202000000050000007469746c65010000006e02000000020000000607000000\
    43726f776444420478000000000000000200000006040000005175726b0102000000000000000101\
    0000000b0000007061727469616c2d69736802000000000000000300000000000000090000000000\
    00001b0000000000000000000000004a934001000000000000000400000000000000020000000000\
    000005000000000000000600000000000000070000000000000001\
";

fn unhex(hex: &str) -> Vec<u8> {
    let digits: Vec<u8> = hex.bytes().filter(|b| !b.is_ascii_whitespace()).collect();
    digits
        .chunks(2)
        .map(|d| u8::from_str_radix(std::str::from_utf8(d).unwrap(), 16).unwrap())
        .collect()
}

/// `actual` must be exactly the captured bytes.
fn pinned(name: &str, actual: &[u8], hex: &str) {
    let to_hex = |b: &[u8]| b.iter().map(|b| format!("{b:02x}")).collect::<String>();
    assert_eq!(to_hex(actual), to_hex(&unhex(hex)), "{name} moved");
}

fn every_tag_row() -> Row {
    row![
        Value::Null,
        Value::CNull,
        false,
        true,
        -42i64,
        2.5f64,
        "héllo 🦀"
    ]
}

fn log_records() -> Vec<LogRecord> {
    vec![
        LogRecord::Ddl {
            sql: "CREATE TABLE t (a INTEGER)".into(),
        },
        LogRecord::Dml {
            sql: "INSERT INTO t VALUES (1)".into(),
        },
        LogRecord::WriteBackValue {
            table: "talk".into(),
            tid: TupleId(7),
            col: 2,
            value: Value::str("an abstract"),
        },
        LogRecord::WriteBackTuple {
            table: "notableattendee".into(),
            row: every_tag_row(),
        },
        LogRecord::PutEqual {
            left: "I.B.M.".into(),
            right: "IBM".into(),
            instruction: "same entity?".into(),
            verdict: true,
        },
        LogRecord::PutOrder {
            left: "sunset".into(),
            right: "fog".into(),
            instruction: "better picture?".into(),
            left_preferred: false,
        },
    ]
}

fn fill(db: &Database) {
    for sql in [
        "CREATE TABLE talk (title STRING PRIMARY KEY, abstract CROWD STRING, nb CROWD INTEGER)",
        "CREATE CROWD TABLE attendee (name STRING PRIMARY KEY, title STRING, \
         FOREIGN KEY (title) REF talk(title))",
        "CREATE TABLE scratch (k INTEGER PRIMARY KEY, v STRING)",
    ] {
        assert!(db.apply(&LogRecord::Ddl { sql: sql.into() }).unwrap());
    }
    db.insert("talk", row!["CrowdDB", Value::CNull, Value::CNull])
        .unwrap();
    db.insert("talk", row!["Qurk", "demo abstract", 75i64])
        .unwrap();
    db.insert("talk", row!["Deco", Value::CNull, 12i64])
        .unwrap();
    db.insert("attendee", row!["Mike", "CrowdDB"]).unwrap();
    db.insert("attendee", row!["Sam", Value::CNull]).unwrap();
    for i in 0..40i64 {
        db.insert("scratch", row![i, format!("filler value number {i}")])
            .unwrap();
    }
    db.create_index("talk_nb", "talk", &["nb".into()], false)
        .unwrap();
    assert!(db.with_table_mut("talk", |t| t.delete(TupleId(2))).unwrap());
    db.drop_table("scratch", false).unwrap();
}

fn request() -> Request {
    Request::Query {
        sql: "SELECT abstract FROM talk WHERE title = 'CrowdDB'".into(),
    }
}

fn response() -> Response {
    Response::RowSet(QueryResult {
        columns: vec!["title".into(), "n".into()],
        rows: vec![row!["CrowdDB", 120i64], row!["Qurk", Value::CNull]],
        affected: 2,
        complete: true,
        warnings: vec!["partial-ish".into()],
        crowd: CrowdSummary {
            rounds: 2,
            tasks_posted: 3,
            answers_collected: 9,
            cents_spent: 27,
            virtual_secs: 1234.5,
            retries: 1,
            reposts: 4,
            duplicates_dropped: 2,
            post_failures: 5,
            extend_failures: 6,
            gave_up: 7,
            degraded: true,
        },
    })
}

fn live_rows(db: &Database, table: &str) -> Vec<(TupleId, Row)> {
    db.with_table(table, |t| t.scan_rows()).unwrap().unwrap()
}

/// What `fill` leaves behind, whichever way the database was rebuilt.
fn assert_filled(db: &Database) {
    assert_eq!(db.table_names(), vec!["attendee", "talk"]);
    assert_eq!(
        live_rows(db, "talk"),
        vec![
            (TupleId(0), row!["CrowdDB", Value::CNull, Value::CNull]),
            (TupleId(1), row!["Qurk", "demo abstract", 75i64]),
        ]
    );
    assert_eq!(
        live_rows(db, "attendee"),
        vec![
            (TupleId(0), row!["Mike", "CrowdDB"]),
            (TupleId(1), row!["Sam", Value::CNull]),
        ]
    );
    assert_eq!(db.stats("talk").unwrap().total_slots, 3);
    let by_pk = db
        .with_table("talk", |t| t.lookup_pk(&[Value::str("Qurk")]))
        .unwrap()
        .unwrap();
    assert_eq!(by_pk.len(), 1);
}

#[test]
fn row_and_log_records() {
    let mut buf = Vec::new();
    codec::encode_row(&mut buf, &every_tag_row());
    pinned("row", &buf, ROW);
    let mut r = Reader::new(&buf);
    assert_eq!(codec::decode_row(&mut r).unwrap(), every_tag_row());
    r.finish().unwrap();

    let hex = [
        LOG_RECORD_0,
        LOG_RECORD_1,
        LOG_RECORD_2,
        LOG_RECORD_3,
        LOG_RECORD_4,
        LOG_RECORD_5,
    ];
    for (rec, hex) in log_records().iter().zip(hex) {
        pinned(rec.kind(), &rec.encode(), hex);
        assert_eq!(&LogRecord::decode(&unhex(hex)).unwrap(), rec);
    }
}

#[test]
fn wal_image_and_snapshot_file() {
    let dir = TestDir::new("format-fixtures-wal");
    let wal_path = dir.path().join("wal.bin");
    let (mut wal, _) = Wal::open(&wal_path, FsyncPolicy::Never).unwrap();
    for rec in &log_records()[..3] {
        wal.append(rec).unwrap();
    }
    drop(wal);
    pinned("wal image", &std::fs::read(&wal_path).unwrap(), WAL_IMAGE);
    let image = unhex(WAL_IMAGE);
    let (records, valid) = scan_frames(&image).unwrap();
    assert_eq!(valid, image.len());
    let expect: Vec<(u64, LogRecord)> = (1..).zip(log_records()).take(3).collect();
    assert_eq!(records, expect);

    let snap_path = dir.path().join("snapshot.bin");
    snapshot::write(&snap_path, 42, b"precious crowd answers").unwrap();
    pinned(
        "snapshot file",
        &std::fs::read(&snap_path).unwrap(),
        SNAPSHOT_FILE,
    );
    std::fs::write(&snap_path, unhex(SNAPSHOT_FILE)).unwrap();
    assert_eq!(
        snapshot::read(&snap_path).unwrap(),
        Some((42, b"precious crowd answers".to_vec()))
    );
}

#[test]
fn storage_snapshot_and_paged_metadata() {
    let mem = Database::new();
    fill(&mem);
    pinned(
        "storage snapshot",
        &mem.snapshot().unwrap(),
        STORAGE_SNAPSHOT,
    );
    assert_filled(&Database::restore(&unhex(STORAGE_SNAPSHOT)).unwrap());

    let dir = TestDir::new("format-fixtures-pages");
    let cfg = PagerConfig {
        page_size: 256,
        pool_pages: 0,
    };
    let paged = Database::open_file(dir.path(), cfg).unwrap();
    fill(&paged);
    let (prep, meta) = paged.begin_checkpoint().unwrap();
    paged.complete_checkpoint(&prep).unwrap();
    drop(paged);
    pinned("paged metadata", &meta, PAGED_META);
    assert!(Database::is_paged_meta(&meta));
    assert_filled(&Database::open_paged(dir.path(), cfg, &unhex(PAGED_META)).unwrap());
    // An image from before the index kind went (`0` on both `_pk`
    // indexes) opens the same; what a checkpoint then writes says `1`.
    let old = Database::open_paged(dir.path(), cfg, &unhex(PAGED_META_KINDS)).unwrap();
    assert_filled(&old);
    let (_, mut rewritten) = old.begin_checkpoint().unwrap();
    rewritten[5] -= 1; // the checkpoint epoch moved on
    pinned("paged metadata, rewritten", &rewritten, PAGED_META);
    // Any other kind byte is still refused.
    let mut bad = unhex(PAGED_META);
    bad[632] = 2;
    let err = Database::open_paged(dir.path(), cfg, &bad).err().unwrap();
    assert!(err.to_string().contains("unknown index kind 2"), "{err}");
}

#[test]
fn checkpoint_journal() {
    let cfg = PagerConfig {
        page_size: 256,
        pool_pages: 0,
    };
    let talk = vec![
        (TupleId(0), row!["CrowdDB", Value::CNull]),
        (TupleId(1), row!["Qurk", "demo abstract"]),
    ];
    let dir = TestDir::new("format-fixtures-journal");
    let db = Database::open_file(dir.path(), cfg).unwrap();
    let ddl = "CREATE TABLE talk (title STRING PRIMARY KEY, abstract CROWD STRING)";
    assert!(db.apply(&LogRecord::Ddl { sql: ddl.into() }).unwrap());
    for (_, row) in &talk {
        db.insert("talk", row.clone()).unwrap();
    }
    // A first checkpoint commits no page yet, so both of its pages are
    // fresh: written straight to the page file, no journal at all.
    let (_prep, meta) = db.begin_checkpoint().unwrap();
    drop(db);
    assert!(!dir.path().join(JOURNAL_FILE).exists());
    // The journal is pinned over those same two pages: a pager opened on
    // that page file counts both as committed, so rewriting them journals
    // them, at epoch 1 again.
    let pages = std::fs::read(dir.path().join(PAGES_FILE)).unwrap();
    let rewrite = TestDir::new("format-fixtures-journal-rewrite");
    std::fs::write(rewrite.path().join(PAGES_FILE), &pages).unwrap();
    let pager = Pager::open_file(rewrite.path(), cfg, 0).unwrap();
    for (id, image) in pages.chunks_exact(cfg.page_size).enumerate().skip(1) {
        pager.write(id as u64, image.to_vec()).unwrap();
    }
    pager.begin_checkpoint().unwrap();
    let journal = std::fs::read(rewrite.path().join(JOURNAL_FILE)).unwrap();
    pinned("checkpoint journal", &journal, PAGES_JOURNAL);

    // The other way: the captured journal beside no page file at all,
    // redone under the metadata that committed its epoch.
    let replay = TestDir::new("format-fixtures-journal-replay");
    std::fs::write(replay.path().join(JOURNAL_FILE), unhex(PAGES_JOURNAL)).unwrap();
    let db = Database::open_paged(replay.path(), cfg, &meta).unwrap();
    assert_eq!(live_rows(&db, "talk"), talk);
}

#[test]
fn session_snapshot() {
    let session = CrowdDB::new();
    session
        .execute_local("CREATE TABLE talk (title STRING PRIMARY KEY, abstract CROWD STRING)")
        .unwrap();
    session
        .execute_local("INSERT INTO talk (title) VALUES ('CrowdDB')")
        .unwrap();
    let verdict = |key: &str, v: bool| (key.replace('|', "\u{1f}"), v);
    let equal = HashMap::from([
        verdict("I.B.M.|IBM|same?", true),
        verdict("a|b|same?", false),
    ]);
    let order = HashMap::from([verdict("sunset|fog|better?", true)]);
    session.with_caches(|c| {
        c.equal = equal.clone();
        c.order = order.clone();
    });
    pinned(
        "session snapshot",
        &session.snapshot().unwrap(),
        SESSION_SNAPSHOT,
    );
    let restored = CrowdDB::restore(&unhex(SESSION_SNAPSHOT), CrowdConfig::default()).unwrap();
    assert_eq!(
        live_rows(restored.storage(), "talk"),
        vec![(TupleId(0), row!["CrowdDB", Value::CNull])]
    );
    restored.with_caches(|c| {
        assert_eq!(c.equal, equal);
        assert_eq!(c.order, order);
    });
}

#[test]
fn cdbp_frames() {
    pinned(
        "request frame",
        &protocol::frame_request(&request()),
        REQUEST_QUERY,
    );
    pinned(
        "response frame",
        &protocol::frame_response(&response()),
        RESPONSE_ROWSET,
    );
    let mut wire = std::io::Cursor::new([unhex(REQUEST_QUERY), unhex(RESPONSE_ROWSET)].concat());
    let payload = protocol::read_frame(&mut wire).unwrap();
    assert_eq!(protocol::decode_request(&payload).unwrap(), request());
    let payload = protocol::read_frame(&mut wire).unwrap();
    assert_eq!(protocol::decode_response(&payload).unwrap(), response());
}
