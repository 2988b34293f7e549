//! Golden-file snapshots of `EXPLAIN` and `EXPLAIN ANALYZE` output.
//!
//! Each test renders a plan (or an analyzed run) for a query exercising
//! one physical operator and compares it byte-for-byte against a file in
//! `tests/golden/`. Wall-clock fields (`time=...`) are scrubbed before
//! comparison — `OpStatsNode::summary` deliberately emits them last on
//! the line so a plain string split suffices.

use crowddb_core::CrowdDB;
use crowddb_platform::Platform;

mod common;
use common::world_script;

/// A database covering every operator: crowd columns (probe), a bounded
/// crowd table (new tuples / crowd join inner), and a machine table
/// (hash join, machine sort).
fn seeded_db(platform: &mut dyn Platform) -> CrowdDB {
    let db = CrowdDB::new();
    for sql in [
        "CREATE TABLE Talk (title STRING PRIMARY KEY, abstract CROWD STRING, \
         nb_attendees CROWD INTEGER)",
        "CREATE CROWD TABLE NotableAttendee (name STRING PRIMARY KEY, title STRING, \
         FOREIGN KEY (title) REF Talk(title))",
        "CREATE TABLE Venue (talk STRING PRIMARY KEY, room STRING)",
        "CREATE INDEX talk_attendees ON Talk (nb_attendees)",
        "INSERT INTO Talk (title) VALUES ('CrowdDB'), ('Qurk'), ('PIQL'), ('HyPer')",
        "INSERT INTO Venue VALUES ('CrowdDB', 'R101'), ('Qurk', 'R102')",
    ] {
        db.execute(sql, platform).expect(sql);
    }
    db
}

/// Strip the trailing ` time=...` token each analyzed operator line ends
/// with, leaving everything else byte-exact.
fn scrub_times(text: &str) -> String {
    text.lines()
        .map(|line| match line.rfind(" time=") {
            Some(i) => &line[..i],
            None => line,
        })
        .fold(String::new(), |mut acc, l| {
            acc.push_str(l);
            acc.push('\n');
            acc
        })
}

/// Compare against the checked-in snapshot; run with `UPDATE_GOLDEN=1`
/// to rewrite the snapshots instead after an intentional format change.
fn assert_golden(actual: &str, expected: &str, name: &str) {
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("tests/golden")
            .join(format!("{name}.txt"));
        std::fs::write(path, actual).unwrap();
        return;
    }
    assert_eq!(
        actual, expected,
        "golden mismatch for {name}; actual output:\n<<<\n{actual}>>>"
    );
}

fn explain(sql: &str) -> String {
    let mut platform = world_script();
    let db = seeded_db(&mut platform);
    db.explain(sql).expect(sql)
}

fn explain_analyze(sql: &str) -> String {
    let mut platform = world_script();
    let db = seeded_db(&mut platform);
    let r = db
        .execute(&format!("EXPLAIN ANALYZE {sql}"), &mut platform)
        .expect(sql);
    assert_eq!(r.columns, vec!["plan".to_string()]);
    let mut text = String::new();
    for row in &r.rows {
        text.push_str(&row[0].to_string());
        text.push('\n');
    }
    scrub_times(&text)
}

#[test]
fn explain_scan_with_probe() {
    let actual = explain("SELECT title, abstract FROM Talk");
    assert_golden(
        &actual,
        include_str!("golden/explain_scan_probe.txt"),
        "explain_scan_probe",
    );
}

#[test]
fn explain_crowd_filter_residual() {
    let actual = explain("SELECT title FROM Talk WHERE title ~= 'crowddb.'");
    assert_golden(
        &actual,
        include_str!("golden/explain_filter.txt"),
        "explain_filter",
    );
}

#[test]
fn explain_hash_join() {
    let actual = explain("SELECT t.title, v.room FROM Talk t JOIN Venue v ON t.title = v.talk");
    assert_golden(
        &actual,
        include_str!("golden/explain_hash_join.txt"),
        "explain_hash_join",
    );
}

#[test]
fn explain_crowd_join() {
    let actual =
        explain("SELECT t.title, n.name FROM Talk t JOIN NotableAttendee n ON t.title = n.title");
    assert_golden(
        &actual,
        include_str!("golden/explain_crowd_join.txt"),
        "explain_crowd_join",
    );
}

#[test]
fn explain_index_scan_point() {
    // The FK on NotableAttendee(title) gets an automatic index, so an
    // equality on it lowers to an index point probe.
    let actual = explain("SELECT name FROM NotableAttendee WHERE title = 'CrowdDB'");
    assert_golden(
        &actual,
        include_str!("golden/explain_index_scan.txt"),
        "explain_index_scan",
    );
}

#[test]
fn explain_index_range_scan() {
    let actual = explain("SELECT title FROM Talk WHERE nb_attendees >= 100");
    assert_golden(
        &actual,
        include_str!("golden/explain_index_range.txt"),
        "explain_index_range",
    );
}

#[test]
fn explain_analyze_index_scan_point() {
    let actual = explain_analyze("SELECT name FROM NotableAttendee WHERE title = 'CrowdDB'");
    assert_golden(
        &actual,
        include_str!("golden/analyze_index_scan.txt"),
        "analyze_index_scan",
    );
}

#[test]
fn explain_crowd_sort_and_limit() {
    let actual = explain(
        "SELECT title FROM Talk ORDER BY CROWDORDER(title, 'Which talk did you like better') \
         LIMIT 2",
    );
    assert_golden(
        &actual,
        include_str!("golden/explain_crowd_sort_limit.txt"),
        "explain_crowd_sort_limit",
    );
}

#[test]
fn explain_subscribe_scan() {
    // EXPLAIN of a standing query prepends the standing-plan section
    // (watched tables, triggers, delivery contract) to the optimized
    // plan of the underlying SELECT.
    let actual = explain("SUBSCRIBE SELECT title, abstract FROM Talk");
    assert_golden(
        &actual,
        include_str!("golden/explain_subscribe_scan.txt"),
        "explain_subscribe_scan",
    );
}

#[test]
fn explain_subscribe_join() {
    let actual =
        explain("SUBSCRIBE SELECT t.title, v.room FROM Talk t JOIN Venue v ON t.title = v.talk");
    assert_golden(
        &actual,
        include_str!("golden/explain_subscribe_join.txt"),
        "explain_subscribe_join",
    );
}

#[test]
fn explain_subscribe_limit() {
    // No delta rule for StopAfter: the maintenance line names it.
    let actual = explain("SUBSCRIBE SELECT talk, room FROM Venue ORDER BY talk LIMIT 1");
    assert_golden(
        &actual,
        include_str!("golden/explain_subscribe_limit.txt"),
        "explain_subscribe_limit",
    );
}

#[test]
fn explain_aggregate() {
    let actual = explain("SELECT COUNT(*), MAX(nb_attendees) FROM Talk");
    assert_golden(
        &actual,
        include_str!("golden/explain_aggregate.txt"),
        "explain_aggregate",
    );
}

#[test]
fn explain_analyze_scan_with_probe() {
    let actual = explain_analyze("SELECT title, abstract FROM Talk");
    assert_golden(
        &actual,
        include_str!("golden/analyze_scan_probe.txt"),
        "analyze_scan_probe",
    );
}

#[test]
fn explain_analyze_crowd_join() {
    let mut platform = world_script();
    let db = seeded_db(&mut platform);
    let raw = db
        .explain_analyze(
            "SELECT t.title, n.name FROM Talk t JOIN NotableAttendee n ON t.title = n.title",
            &mut platform,
        )
        .unwrap();
    // Acceptance check: the crowd join line reports non-zero rows, needs,
    // and wall time before any scrubbing.
    let join_line = raw
        .lines()
        .find(|l| l.contains("CrowdJoin"))
        .expect("analyzed tree has a CrowdJoin line");
    assert!(
        !join_line.contains("new=0 "),
        "crowd join posts new-tuple needs: {join_line}"
    );
    assert!(
        !join_line.contains("out=0 "),
        "crowd join produced rows: {join_line}"
    );
    assert!(
        !join_line.contains("time=0ns"),
        "wall time recorded: {join_line}"
    );
    assert_golden(
        &scrub_times(&raw),
        include_str!("golden/analyze_crowd_join.txt"),
        "analyze_crowd_join",
    );
}

#[test]
fn explain_analyze_crowd_sort() {
    let actual = explain_analyze(
        "SELECT title FROM Talk ORDER BY CROWDORDER(title, 'Which talk did you like better') \
         LIMIT 2",
    );
    assert_golden(
        &actual,
        include_str!("golden/analyze_crowd_sort.txt"),
        "analyze_crowd_sort",
    );
}

#[test]
fn explain_analyze_aggregate() {
    let actual = explain_analyze("SELECT COUNT(*), MAX(nb_attendees) FROM Talk");
    assert_golden(
        &actual,
        include_str!("golden/analyze_aggregate.txt"),
        "analyze_aggregate",
    );
}

#[test]
fn explain_update_pk() {
    // EXPLAIN of a DML statement is the scan that will select its rows:
    // a pinned primary key is an index probe, not a table scan.
    let actual = explain("UPDATE Talk SET nb_attendees = 10 WHERE title = 'CrowdDB'");
    assert_golden(
        &actual,
        include_str!("golden/explain_update_pk.txt"),
        "explain_update_pk",
    );
}

#[test]
fn explain_delete_crowd() {
    // The crowd conjunct is written first; DML goes through the
    // optimizer like a query, so the residual evaluates the machine
    // conjunct first and the crowd is only asked about its survivors.
    let actual = explain("DELETE FROM Talk WHERE title ~= 'crowddb.' AND nb_attendees >= 100");
    assert_golden(
        &actual,
        include_str!("golden/explain_delete_crowd.txt"),
        "explain_delete_crowd",
    );
}
