//! Golden-file snapshots of `EXPLAIN` and `EXPLAIN ANALYZE` output.
//!
//! Each test renders a plan (or an analyzed run) for a query exercising
//! one physical operator and compares it byte-for-byte against a file in
//! `tests/golden/`. Wall-clock fields (`time=...`) are scrubbed before
//! comparison — `OpStatsNode::summary` deliberately emits them last on
//! the line so a plain string split suffices.

use crowddb_common::CrowdError;
use crowddb_core::{CrowdConfig, CrowdDB};
use crowddb_platform::Platform;

mod common;
use common::world_script;

/// A database covering every operator: crowd columns (probe), a bounded
/// crowd table (new tuples / crowd join inner), and a machine table
/// (hash join, machine sort).
fn seeded_db(platform: &mut dyn Platform) -> CrowdDB {
    seeded_db_with(CrowdConfig::default(), platform)
}

fn seeded_db_with(config: CrowdConfig, platform: &mut dyn Platform) -> CrowdDB {
    let db = CrowdDB::with_config(config);
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

/// The plan corpus: statements that between them reach every arm of
/// every optimizer rule — constant folding, predicate push-down, join
/// ordering, stop-after push-down — over machine tables, CROWD columns
/// and a CROWD table, with subqueries and crowd comparisons in each
/// place a query can hold them.
const CORPUS: &[&str] = &[
    // Constant folding: boolean identities, negation, arithmetic; a CASE
    // is left as written.
    "SELECT title FROM Talk WHERE title = 'CrowdDB' AND TRUE",
    "SELECT room FROM Venue WHERE room = 'R101' OR FALSE",
    "SELECT talk FROM Venue WHERE NOT FALSE",
    "SELECT talk, -(2), -(1.5) FROM Venue WHERE NOT (room = 'R102')",
    "SELECT 1 + 1",
    "SELECT talk, CASE WHEN 1 + 1 = 2 THEN room ELSE 'none' END FROM Venue",
    // Predicate push-down through a derived table, Sort, Distinct, UNION
    // and UNION ALL, and a conjunct that stays above a LIMIT.
    "SELECT d.t FROM (SELECT talk AS t, room FROM Venue) AS d WHERE d.room = 'R101'",
    "SELECT d.t FROM (SELECT talk AS t, room FROM Venue ORDER BY room) AS d WHERE d.t <> 'Qurk'",
    "SELECT d.r FROM (SELECT DISTINCT room AS r FROM Venue) AS d WHERE d.r = 'R101'",
    "SELECT u.x FROM (SELECT talk AS x FROM Venue UNION SELECT title FROM Talk) AS u \
     WHERE u.x <> 'PIQL'",
    "SELECT u.x FROM (SELECT talk AS x FROM Venue UNION ALL SELECT title FROM Talk) AS u \
     WHERE u.x <> 'PIQL'",
    "SELECT d.t FROM (SELECT talk AS t FROM Venue ORDER BY talk LIMIT 1) AS d WHERE d.t <> 'x'",
    "SELECT d.t FROM (SELECT title AS t FROM Talk) AS d WHERE CROWDEQUAL(d.t, 'crowddb.')",
    // Conjuncts over joins: a crowd conjunct and a subquery conjunct stay
    // put, a two-sided equality becomes the join condition.
    "SELECT t.title, v.room FROM Talk t, Venue v \
     WHERE t.title = v.talk AND CROWDEQUAL(v.room, 'Room 101')",
    "SELECT t.title, v.room FROM Talk t, Venue v \
     WHERE t.title = v.talk AND v.room IN (SELECT room FROM Venue WHERE talk = 'Qurk')",
    "SELECT t.title, v.room FROM Talk t, Venue v WHERE t.title = v.talk",
    "SELECT t.title FROM Talk t, Venue v \
     WHERE t.title = v.talk AND t.nb_attendees > 100 AND v.room = 'R101'",
    "SELECT * FROM Talk t CROSS JOIN Venue v WHERE t.title = v.talk",
    "SELECT t.title, v.room FROM Talk t, Venue v WHERE t.title < v.talk",
    // Join ordering: the CROWD table last in 3- and 4-way joins; a LEFT
    // JOIN keeps its order.
    "SELECT n.name, t.title, v.room FROM NotableAttendee n, Talk t, Venue v \
     WHERE n.title = t.title AND t.title = v.talk",
    "SELECT n.name, v.room FROM NotableAttendee n, Venue v, Talk t, Venue w \
     WHERE n.title = t.title AND t.title = v.talk AND v.room = w.room",
    "SELECT t.title, v.room FROM Talk t LEFT JOIN Venue v ON t.title = v.talk \
     WHERE t.title <> 'HyPer'",
    "SELECT t.title, n.name FROM Talk t JOIN NotableAttendee n ON t.title = n.title",
    // Stop-after push-down: through a projection and UNION ALL, with an
    // OFFSET, stopped by a machine sort, and under CROWDORDER.
    "SELECT name FROM NotableAttendee LIMIT 3",
    "SELECT name, title FROM NotableAttendee LIMIT 2 OFFSET 1",
    "SELECT name FROM NotableAttendee UNION ALL SELECT talk FROM Venue LIMIT 4",
    "SELECT name FROM NotableAttendee ORDER BY name LIMIT 3",
    "SELECT title FROM Talk ORDER BY CROWDORDER(title, 'Which talk did you like better') LIMIT 3",
    "SELECT name FROM NotableAttendee ORDER BY CROWDORDER(name, 'Who is more notable') LIMIT 2",
    "SELECT UPPER(talk), LENGTH(room) FROM Venue ORDER BY 1 LIMIT 1",
    // Aggregation.
    "SELECT room, COUNT(*) FROM Venue GROUP BY room HAVING COUNT(*) > 0",
    "SELECT title, COUNT(*) FROM NotableAttendee GROUP BY title HAVING COUNT(*) >= 1",
    "SELECT v.room, COUNT(*) FROM Venue v JOIN Talk t ON v.talk = t.title GROUP BY v.room",
    "SELECT COUNT(*), AVG(nb_attendees) FROM Talk WHERE title LIKE 'C%'",
    // Subqueries: IN, NOT IN, EXISTS, scalar.
    "SELECT room FROM Venue WHERE talk IN (SELECT title FROM Talk WHERE nb_attendees > 100)",
    "SELECT title FROM Talk WHERE title NOT IN (SELECT talk FROM Venue)",
    "SELECT room FROM Venue WHERE EXISTS (SELECT abstract FROM Talk WHERE title = 'Qurk')",
    "SELECT talk, (SELECT MAX(nb_attendees) FROM Talk) FROM Venue",
    "SELECT room FROM Venue WHERE talk IN (SELECT name FROM NotableAttendee)",
    // CROWDEQUAL in a select list, an ON clause and a WHERE.
    "SELECT CROWDEQUAL(room, 'Room R101') FROM Venue",
    "SELECT t.title, v.room FROM Talk t JOIN Venue v ON CROWDEQUAL(t.title, v.talk)",
    "SELECT title FROM Talk WHERE title ~= 'crowddb.' AND nb_attendees >= 100",
    // Access paths and the rest of the expression language.
    "SELECT title, abstract FROM Talk WHERE title = 'CrowdDB'",
    "SELECT title FROM Talk WHERE nb_attendees >= 100 ORDER BY nb_attendees DESC",
    "SELECT title FROM Talk WHERE abstract IS CNULL",
    "SELECT name FROM NotableAttendee WHERE name = 'Mike Franklin'",
    "SELECT name FROM NotableAttendee WHERE title = 'CrowdDB'",
    "SELECT name FROM NotableAttendee",
    "SELECT DISTINCT room FROM Venue",
    "SELECT talk FROM Venue UNION SELECT title FROM Talk",
    "SELECT talk FROM Venue WHERE room BETWEEN 'R100' AND 'R101' AND talk IN ('CrowdDB', 'PIQL')",
    // Boundedness of a crowd scan by its place in the tree: under a
    // Project, an Aggregate and a Sort on a join's right side; as a LEFT
    // join inner; on a join's left side; pinned by its key as a join
    // inner; under a non-equality join; on both sides of a UNION; and as
    // the inner of a join that is itself a join's right side.
    "SELECT t.title, d.n FROM Talk t JOIN (SELECT name AS n, title FROM NotableAttendee) AS d \
     ON t.title = d.title",
    "SELECT t.title, d.c FROM Talk t \
     JOIN (SELECT title, COUNT(*) AS c FROM NotableAttendee GROUP BY title) AS d \
     ON t.title = d.title",
    "SELECT t.title, d.name FROM Talk t \
     JOIN (SELECT name, title FROM NotableAttendee ORDER BY name) AS d ON t.title = d.title",
    "SELECT t.title, n.name FROM Talk t LEFT JOIN NotableAttendee n ON t.title = n.title",
    "SELECT n.name, v.room FROM NotableAttendee n LEFT JOIN Venue v ON n.title = v.talk",
    "SELECT v.room, n.title FROM Venue v JOIN NotableAttendee n ON v.talk = n.title \
     WHERE n.name = 'Mike Franklin'",
    "SELECT t.title, n.name FROM Talk t JOIN NotableAttendee n ON t.title < n.title",
    "SELECT name FROM NotableAttendee UNION SELECT title FROM NotableAttendee",
    "SELECT v.room, d.name FROM Venue v LEFT JOIN \
     (SELECT t.title AS tt, n.name FROM Talk t JOIN NotableAttendee n ON t.title = n.title) AS d \
     ON v.talk = d.tt",
];

#[test]
fn explain_corpus() {
    let mut actual = String::new();
    for sql in CORPUS {
        actual.push_str(&format!("== {sql}\n{}\n", explain(sql)));
    }
    assert_golden(
        &actual,
        include_str!("golden/explain_corpus.txt"),
        "explain_corpus",
    );
}

/// HITs a statement posts when executed on a fresh seeded database,
/// and whether the admission classifier said beforehand that it may.
fn posts_and_classification(sql: &str) -> (u64, bool) {
    let mut platform = world_script();
    let db = seeded_db(&mut platform);
    let may = db.prepare(sql).expect(sql).may_touch_crowd();
    let before = platform.stats().hits_posted;
    // An unbounded scan is refused; what counts is what reached the crowd.
    let _ = db.execute(sql, &mut platform);
    (platform.stats().hits_posted - before, may)
}

/// Admission, embedded and on the server, trusts
/// `Prepared::may_touch_crowd` to keep crowd work off the local tier: no
/// statement of the corpus that posts a HIT may be classified local.
#[test]
fn every_corpus_statement_that_posts_a_hit_is_classified_crowd() {
    let mut posting = 0;
    for sql in CORPUS {
        let (hits, may) = posts_and_classification(sql);
        assert!(
            may || hits == 0,
            "{sql} posted {hits} HIT(s) but was classified local"
        );
        posting += usize::from(hits > 0);
    }
    assert!(
        posting >= 20,
        "only {posting} corpus statements posted HITs"
    );
}

/// Crowd work that only a subquery or a select list asks for makes a
/// query over a machine table crowd-related; a machine-only join does not.
#[test]
fn subqueries_and_select_lists_make_a_machine_query_crowd_related() {
    for sql in [
        "SELECT room FROM Venue WHERE talk IN (SELECT title FROM Talk WHERE nb_attendees > 100)",
        "SELECT room FROM Venue WHERE EXISTS (SELECT abstract FROM Talk WHERE title = 'Qurk')",
        "SELECT talk, (SELECT MAX(nb_attendees) FROM Talk) FROM Venue",
        "SELECT CROWDEQUAL(room, 'Room R101') FROM Venue",
    ] {
        let (hits, may) = posts_and_classification(sql);
        assert!(hits > 0, "{sql} should ask the crowd");
        assert!(may, "{sql} classified local");
    }
    let join = "SELECT t.title, v.room FROM Talk t JOIN Venue v ON t.title = v.talk";
    assert_eq!(posts_and_classification(join), (0, false));
}

/// The embedded twin of the server's `crowd_flood_cannot_starve_local_reads`:
/// with no room on the crowd tier, every corpus statement is refused
/// `Overloaded` or admitted and posts no HIT, and machine-only reads —
/// a join among them — still run.
#[test]
fn a_full_crowd_tier_refuses_crowd_work_and_admits_machine_reads() {
    let mut config = CrowdConfig::default();
    config.governor.max_concurrent_crowd_statements = Some(0);
    config.governor.admission_timeout_virtual_secs = Some(0.0);
    let mut platform = world_script();
    let db = seeded_db_with(config, &mut platform);
    let mut admitted = 0;
    for sql in CORPUS {
        let before = platform.stats().hits_posted;
        match db.execute(sql, &mut platform) {
            Err(CrowdError::Overloaded(_)) => {}
            outcome => {
                let posted = platform.stats().hits_posted - before;
                assert_eq!(posted, 0, "{sql} ran past a full crowd tier: {outcome:?}");
                admitted += 1;
            }
        }
    }
    assert!(
        admitted >= 10,
        "only {admitted} corpus statements were admitted"
    );
    let join = "SELECT t.title, v.room FROM Talk t JOIN Venue v ON t.title = v.talk";
    assert_eq!(db.execute(join, &mut platform).expect(join).rows.len(), 2);
}

/// An open-world scan inside a subquery is as unbounded as the same scan
/// on its own: no finite crowd answer proves the `IN` list complete, so
/// the statement is refused instead of answering `complete` with 0 rows.
#[test]
fn unbounded_crowd_scan_in_a_subquery_is_refused() {
    let mut platform = world_script();
    let db = seeded_db(&mut platform);
    for sql in [
        "SELECT name FROM NotableAttendee",
        "SELECT room FROM Venue WHERE talk IN (SELECT name FROM NotableAttendee)",
        "SELECT room FROM Venue WHERE EXISTS (SELECT name FROM NotableAttendee)",
        "SELECT talk, (SELECT MAX(name) FROM NotableAttendee) FROM Venue",
    ] {
        match db.execute(sql, &mut platform) {
            Err(CrowdError::UnboundedCrowdQuery(detail)) => {
                assert!(detail.contains("'notableattendee'"), "{sql}: {detail}")
            }
            other => panic!("{sql} was not refused as unbounded: {other:?}"),
        }
    }
    // A key-pinned subquery scan stays bounded and runs.
    let sql = "SELECT room FROM Venue WHERE talk IN \
               (SELECT title FROM NotableAttendee WHERE name = 'Mike Franklin')";
    db.execute(sql, &mut platform).expect(sql);
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
