//! Early exit is visible in pages, not only in time — and `EXPLAIN
//! ANALYZE` still means what it says in a pipeline.
//!
//! The twin of `storage/tests/page_touches.rs` one layer up: the same
//! `attendee` table (plus a CROWD column), 20 000 rows, checkpointed and
//! read behind a 64-page pool, counted through `Database::pager_stats`.
//! A `LIMIT` over a crowd-free pipeline stops the scan at the row that
//! fills it; over a column the crowd must fill it stops nothing, because
//! which needs a round records is the bill (`exec::ops`, invariant (i)).
//! Where `LIMIT` sliced a fully materialized result (commit `c72a45a`)
//! the crowd-free `LIMIT` read every page the full scan reads. The
//! literals were last captured when an appended leaf stopped being cut in
//! half and a cursor began to keep its path parsed: 765 pages read and 754
//! pool hits per scan became 381 and 1, the three-page descent that was
//! (2, 1, 2) finds the root evicted — (3, 0, 3) — because no scan re-reads
//! it at every leaf change any more.

use std::time::{Duration, Instant};

use crowddb_common::{row, Value};
use crowddb_core::{CrowdConfig, CrowdDB};
use crowddb_storage::PagerStats;
use crowddb_wal::testutil::TestDir;
use crowddb_wal::FsyncPolicy;

const ROWS: i64 = 20_000;
const GROUPS: i64 = 50;

/// Loaded and checkpointed: every page clean, and far more of them than
/// the pool holds.
fn attendees(dir: &TestDir) -> CrowdDB {
    let mut config = CrowdConfig::default();
    config.durability.fsync = FsyncPolicy::Never;
    config.storage.pool_pages = 64;
    let db = CrowdDB::open_with_config(dir.path(), config).unwrap();
    db.execute_local(
        "CREATE TABLE Attendee (id INTEGER PRIMARY KEY, name STRING, grp INTEGER, \
         badge CROWD STRING)",
    )
    .unwrap();
    for i in 0..ROWS {
        let grp = (i * 7919) % GROUPS;
        // Every hundredth badge is still to be asked for.
        let badge = match i % 100 {
            7 => Value::CNull,
            _ => Value::str(format!("badge {i}")),
        };
        db.storage()
            .insert(
                "attendee",
                row![i, format!("attendee number {i}"), grp, badge],
            )
            .unwrap();
    }
    db.checkpoint().unwrap();
    db
}

/// `EXPLAIN ANALYZE sql`, its plan lines, and what it cost the pager.
fn analyzed(db: &CrowdDB, sql: &str) -> (Vec<String>, PagerStats, Duration) {
    let before = db.storage().pager_stats();
    let started = Instant::now();
    let r = db.execute_local(&format!("EXPLAIN ANALYZE {sql}")).unwrap();
    let took = started.elapsed();
    let touched = db.storage().pager_stats().diff(&before);
    let lines: Vec<String> = r
        .rows
        .iter()
        .map(|row| row[0].to_string())
        .skip_while(|l| !l.starts_with("== Physical plan"))
        .skip(1)
        .take_while(|l| !l.is_empty())
        .collect();
    (lines, touched, took)
}

/// The value of `key=` on a plan line.
fn field<'a>(line: &'a str, key: &str) -> &'a str {
    let at = line
        .find(&format!(" {key}="))
        .unwrap_or_else(|| panic!("no {key}= in {line}"));
    line[at + key.len() + 2..].split(' ').next().unwrap()
}

/// `time=` as `Duration`'s `Debug` prints it.
fn time_of(line: &str) -> Duration {
    let text = field(line, "time");
    let unit = text.trim_start_matches(|c: char| c.is_ascii_digit() || c == '.');
    let number: f64 = text[..text.len() - unit.len()].parse().unwrap();
    Duration::from_secs_f64(match unit {
        "ns" => number * 1e-9,
        "µs" => number * 1e-6,
        "ms" => number * 1e-3,
        "s" => number,
        other => panic!("unit {other} in {line}"),
    })
}

#[test]
fn a_limit_stops_the_scan_unless_the_scan_asks_the_crowd() {
    let dir = TestDir::new("early-exit");
    let db = attendees(&dir);

    // The whole table, for scale.
    let (_, all, _) = analyzed(&db, "SELECT id FROM Attendee");
    assert_eq!(
        (all.pages_read, all.pool_hits, all.evictions),
        (381, 1, 381),
        "full scan"
    );

    // A crowd column with CNULLs: every row examined, every page read,
    // every missing badge asked for — the bill does not depend on LIMIT.
    let (lines, touched, _) = analyzed(&db, "SELECT id, badge FROM Attendee LIMIT 10");
    let scan = lines.last().unwrap();
    assert_eq!(
        (field(scan, "in"), field(scan, "out"), field(scan, "probe")),
        ("20000", "20000", "200"),
        "{scan}"
    );
    assert_eq!(field(&lines[0], "out"), "10", "{}", lines[0]);
    assert_eq!(
        (touched.pages_read, touched.pool_hits, touched.evictions),
        (382, 0, 382),
        "LIMIT 10 over a scan that probes"
    );

    // Crowd-free: ten candidates examined, the descent to the first leaf
    // read, and nothing after it.
    let (lines, touched, _) = analyzed(&db, "SELECT id FROM Attendee LIMIT 10");
    let scan = lines.last().unwrap();
    assert!(
        scan.trim_start().starts_with("TableScan attendee"),
        "{scan}"
    );
    assert_eq!(
        (field(scan, "in"), field(scan, "out")),
        ("10", "10"),
        "{scan}"
    );
    assert_eq!(field(&lines[0], "out"), "10", "{}", lines[0]);
    assert_eq!(
        (touched.pages_read, touched.pool_hits, touched.evictions),
        (3, 0, 3),
        "LIMIT 10 over a crowd-free scan"
    );
}

/// In a push pipeline a scan's wall clock brackets its consumers' work on
/// every row; `time=` has to stay self time all the same.
#[test]
fn analyzed_times_are_self_times_and_add_up() {
    let dir = TestDir::new("early-exit-time");
    let db = attendees(&dir);
    // Best of three: the statement is timed from outside, and a thread
    // descheduled between the two clocks is not an accounting error.
    let mut closest = 0.0f64;
    for _ in 0..3 {
        let (lines, _, took) = analyzed(
            &db,
            "SELECT grp, COUNT(*), SUM(id) FROM Attendee GROUP BY grp",
        );
        let aggregate = lines
            .iter()
            .find(|l| l.trim_start().starts_with("Aggregate"))
            .expect("an Aggregate line");
        assert_eq!(field(aggregate, "in"), "20000", "{aggregate}");
        let total: Duration = lines.iter().map(|l| time_of(l)).sum();
        // 20 000 keys evaluated, hashed and folded: a real share of the
        // statement, not the few microseconds left once the input returns.
        let share = time_of(aggregate).as_secs_f64() / total.as_secs_f64();
        assert!(
            share > 0.05,
            "Aggregate is {share:.3} of {total:?}:\n{}",
            lines.join("\n")
        );
        let ratio = total.as_secs_f64() / took.as_secs_f64();
        assert!(ratio <= 1.0, "operators sum to {total:?} of {took:?}");
        closest = closest.max(ratio);
    }
    assert!(
        closest >= 0.9,
        "the operators' times sum to at best {closest:.3} of the statement's"
    );
}
