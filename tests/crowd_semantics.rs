//! CrowdSQL semantics across the whole stack: the CNULL lifecycle,
//! answer memorization, open-world boundedness, quality control with
//! disagreeing workers, escalation, and failure injection.

use crowddb::{
    Answer, CrowdConfig, CrowdDB, GovernorPolicy, MockPlatform, Platform, TaskKind, TaskSpec,
    Value, VoteConfig,
};
use crowddb_platform::{HitId, PlatformStats, TaskResponse, WorkerId};

fn conference_db(config: CrowdConfig) -> CrowdDB {
    let db = CrowdDB::with_config(config);
    for sql in [
        "CREATE TABLE Talk (title STRING PRIMARY KEY, abstract CROWD STRING, \
         nb_attendees CROWD INTEGER)",
        "CREATE CROWD TABLE NotableAttendee (name STRING PRIMARY KEY, title STRING, \
         FOREIGN KEY (title) REF Talk(title))",
        "INSERT INTO Talk (title) VALUES ('CrowdDB'), ('Qurk')",
    ] {
        db.execute_local(sql).unwrap();
    }
    db
}

fn probe_answers(value: &'static str) -> MockPlatform {
    MockPlatform::unanimous(move |kind| match kind {
        TaskKind::Probe { asked, .. } => Answer::Form(
            asked
                .iter()
                .map(|(c, _)| (c.clone(), value.to_string()))
                .collect(),
        ),
        _ => Answer::Blank,
    })
}

#[test]
fn cnull_lifecycle() {
    let db = conference_db(CrowdConfig::fast_test());
    // CNULL is visible and distinct from NULL before crowdsourcing.
    let r = db
        .execute_local("SELECT title FROM Talk WHERE abstract IS CNULL ORDER BY title")
        .unwrap();
    assert_eq!(r.rows.len(), 2);
    let r = db
        .execute_local("SELECT title FROM Talk WHERE abstract IS NULL")
        .unwrap();
    assert!(r.rows.is_empty(), "CNULL is not NULL");

    // Crowdsource one value...
    let mut crowd = probe_answers("the abstract");
    db.execute("SELECT abstract FROM Talk WHERE title = 'Qurk'", &mut crowd)
        .unwrap();
    // ...and the marker is gone for that tuple only.
    let r = db
        .execute_local("SELECT title FROM Talk WHERE abstract IS CNULL")
        .unwrap();
    assert_eq!(r.rows.len(), 1);
    assert_eq!(r.rows[0][0], Value::str("CrowdDB"));
}

#[test]
fn majority_vote_beats_a_noisy_worker() {
    let db = conference_db(CrowdConfig {
        vote: VoteConfig::replicated(3),
        ..CrowdConfig::default()
    });
    // Workers 0 and 2 answer '150'; worker 1 answers garbage.
    let mut crowd = MockPlatform::new(Box::new(|kind: &TaskKind, ordinal| match kind {
        TaskKind::Probe { asked, .. } => Answer::Form(
            asked
                .iter()
                .map(|(c, _)| {
                    let v = if ordinal == 1 { "9999" } else { " 150 " };
                    (c.clone(), v.to_string())
                })
                .collect(),
        ),
        _ => Answer::Blank,
    }));
    let r = db
        .execute(
            "SELECT nb_attendees FROM Talk WHERE title = 'CrowdDB'",
            &mut crowd,
        )
        .unwrap();
    assert!(r.complete);
    assert_eq!(
        r.rows[0][0],
        Value::Int(150),
        "majority wins, input trimmed"
    );
}

#[test]
fn tie_escalates_to_extra_assignment() {
    let db = conference_db(CrowdConfig {
        vote: VoteConfig {
            replication: 2,
            max_escalations: 2,
        },
        ..CrowdConfig::default()
    });
    // First two workers disagree; the tie-breaker agrees with answer A.
    let mut crowd = MockPlatform::new(Box::new(|kind: &TaskKind, ordinal| match kind {
        TaskKind::Probe { asked, .. } => Answer::Form(
            asked
                .iter()
                .map(|(c, _)| {
                    let v = match ordinal {
                        0 => "100",
                        1 => "200",
                        _ => "100",
                    };
                    (c.clone(), v.to_string())
                })
                .collect(),
        ),
        _ => Answer::Blank,
    }));
    let r = db
        .execute(
            "SELECT nb_attendees FROM Talk WHERE title = 'CrowdDB'",
            &mut crowd,
        )
        .unwrap();
    assert!(r.complete);
    assert_eq!(r.rows[0][0], Value::Int(100));
    assert_eq!(r.crowd.answers_collected, 3, "2 initial + 1 escalation");
}

#[test]
fn blank_answers_are_discarded_and_escalated() {
    let db = conference_db(CrowdConfig {
        vote: VoteConfig {
            replication: 1,
            max_escalations: 3,
        },
        ..CrowdConfig::default()
    });
    // The first worker spams; the second answers.
    let mut crowd = MockPlatform::new(Box::new(|kind: &TaskKind, ordinal| match kind {
        TaskKind::Probe { asked, .. } => {
            if ordinal == 0 {
                Answer::Blank
            } else {
                Answer::Form(
                    asked
                        .iter()
                        .map(|(c, _)| (c.clone(), "42".to_string()))
                        .collect(),
                )
            }
        }
        _ => Answer::Blank,
    }));
    let r = db
        .execute(
            "SELECT nb_attendees FROM Talk WHERE title = 'CrowdDB'",
            &mut crowd,
        )
        .unwrap();
    assert!(r.complete);
    assert_eq!(r.rows[0][0], Value::Int(42));
}

#[test]
fn all_blank_answers_give_up_gracefully() {
    let db = conference_db(CrowdConfig {
        vote: VoteConfig {
            replication: 1,
            max_escalations: 1,
        },
        max_rounds: 3,
        ..CrowdConfig::default()
    });
    let mut crowd = MockPlatform::unanimous(|_| Answer::Blank);
    let r = db
        .execute(
            "SELECT nb_attendees FROM Talk WHERE title = 'CrowdDB'",
            &mut crowd,
        )
        .unwrap();
    // No crash, no infinite loop: the value stays CNULL, warnings say so.
    assert!(!r.warnings.is_empty());
    assert!(r.rows[0][0].is_cnull());
    // The exhausted need is not re-posted by a later statement.
    let posted_before = crowd.stats().hits_posted;
    let _ = db
        .execute(
            "SELECT nb_attendees FROM Talk WHERE title = 'CrowdDB'",
            &mut crowd,
        )
        .unwrap();
    assert_eq!(crowd.stats().hits_posted, posted_before);
}

#[test]
fn unbounded_rejection_and_bounded_variants() {
    let db = conference_db(CrowdConfig::default());
    let err = db
        .execute_local("SELECT name FROM NotableAttendee")
        .unwrap_err();
    assert_eq!(err.category(), "unbounded-crowd-query");
    // All three paper-sanctioned bounding forms are accepted.
    for sql in [
        "SELECT name FROM NotableAttendee LIMIT 5",
        "SELECT title FROM NotableAttendee WHERE name = 'Mike Franklin'",
        "SELECT t.title, n.name FROM Talk t JOIN NotableAttendee n ON t.title = n.title",
    ] {
        db.execute_local(sql)
            .unwrap_or_else(|e| panic!("{sql} should be bounded: {e}"));
    }
}

#[test]
fn crowd_join_writes_back_and_respects_fk_preset() {
    let db = conference_db(CrowdConfig::fast_test());
    let mut crowd = MockPlatform::unanimous(|kind| match kind {
        TaskKind::NewTuples { preset, .. } => {
            let title = preset
                .iter()
                .find(|(k, _)| k == "title")
                .map(|(_, v)| v.clone())
                .unwrap_or_default();
            if title == "CrowdDB" {
                Answer::Tuples(vec![vec![
                    ("name".to_string(), "Mike Franklin".to_string()),
                    // Worker tries to override the preset: must be ignored.
                    ("title".to_string(), "WRONG".to_string()),
                ]])
            } else {
                Answer::Blank
            }
        }
        _ => Answer::Blank,
    });
    let r = db
        .execute(
            "SELECT t.title, n.name FROM Talk t JOIN NotableAttendee n ON t.title = n.title",
            &mut crowd,
        )
        .unwrap();
    assert_eq!(r.rows.len(), 1);
    assert_eq!(r.rows[0][0], Value::str("CrowdDB"), "preset key wins");
    // The tuple is persisted in the crowd table.
    let r = db
        .execute_local("SELECT name FROM NotableAttendee LIMIT 10")
        .unwrap();
    assert_eq!(r.rows.len(), 1);
}

/// An access path changes which pages are read, never what a statement
/// means: under a composite index on `(a, b)`, the row whose crowd column
/// `b` is still CNULL is a candidate for `a = 2 AND b = 7` as it is
/// without the index, though its entry sorts after a complete one.
#[test]
fn a_composite_index_keeps_a_row_the_crowd_could_fill() {
    let run = |index: bool| {
        let db = CrowdDB::with_config(CrowdConfig::fast_test());
        db.execute_local("CREATE TABLE t (id INTEGER PRIMARY KEY, a INTEGER, b CROWD INTEGER)")
            .unwrap();
        db.execute_local("INSERT INTO t VALUES (1, 1, 5), (2, 2, CNULL)")
            .unwrap();
        if index {
            db.execute_local("CREATE INDEX t_ab ON t (a, b)").unwrap();
        }
        let sql = "SELECT id FROM t WHERE a = 2 AND b = 7";
        let plan = db.execute_local(&format!("EXPLAIN {sql}")).unwrap();
        assert_eq!(
            format!("{:?}", plan.rows).contains("via t_ab"),
            index,
            "{:?}",
            plan.rows
        );
        let probes = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
        let seen = std::sync::Arc::clone(&probes);
        let mut crowd = MockPlatform::unanimous(move |kind| match kind {
            TaskKind::Probe { known, asked, .. } => {
                seen.lock().unwrap().push((known.clone(), asked.clone()));
                Answer::Form(asked.iter().map(|(c, _)| (c.clone(), "7".into())).collect())
            }
            _ => Answer::Blank,
        });
        let r = db.execute(sql, &mut crowd).unwrap();
        assert!(r.complete);
        let probes = probes.lock().unwrap().clone();
        (r.rows, probes)
    };
    let (rows, probes) = run(false);
    assert_eq!(rows.len(), 1);
    assert_eq!(rows[0][0], Value::Int(2));
    assert!(!probes.is_empty(), "b is asked of the crowd");
    assert_eq!(run(true), (rows, probes), "the index changes the answer");
}

#[test]
fn crowdorder_converges_over_rounds() {
    let db = conference_db(CrowdConfig::fast_test());
    db.execute_local("INSERT INTO Talk (title) VALUES ('PIQL'), ('HyPer')")
        .unwrap();
    // Crowd preference: alphabetical by length then name (arbitrary but
    // consistent).
    let mut crowd = MockPlatform::unanimous(|kind| match kind {
        TaskKind::Order { left, right, .. } => {
            if (left.len(), left.clone()) <= (right.len(), right.clone()) {
                Answer::Left
            } else {
                Answer::Right
            }
        }
        _ => Answer::Blank,
    });
    let r = db
        .execute(
            "SELECT title FROM Talk ORDER BY CROWDORDER(title, 'better?')",
            &mut crowd,
        )
        .unwrap();
    assert!(r.complete, "warnings: {:?}", r.warnings);
    let titles: Vec<String> = r.rows.iter().map(|x| x[0].to_string()).collect();
    assert_eq!(titles, vec!["PIQL", "Qurk", "HyPer", "CrowdDB"]);
}

#[test]
fn crowdorder_sorts_every_row_of_a_long_input() {
    // The crowd's order is the reverse of the scan order, so the first
    // pivot's partition holds every other row: a quicksort that stops at
    // some depth leaves the tail as the scan produced it.
    let db = CrowdDB::with_config(CrowdConfig::fast_test());
    db.execute_local("CREATE TABLE t (name STRING PRIMARY KEY)")
        .unwrap();
    let names: Vec<String> = (0..100).map(|i| format!("item{i:03}")).collect();
    let values: Vec<String> = names.iter().map(|n| format!("('{n}')")).collect();
    db.execute_local(&format!(
        "INSERT INTO t (name) VALUES {}",
        values.join(", ")
    ))
    .unwrap();
    let mut crowd = MockPlatform::unanimous(|kind| match kind {
        TaskKind::Order { left, right, .. } if left > right => Answer::Left,
        TaskKind::Order { .. } => Answer::Right,
        _ => Answer::Blank,
    });
    let r = db
        .execute(
            "SELECT name FROM t ORDER BY CROWDORDER(name, 'Which is better?')",
            &mut crowd,
        )
        .unwrap();
    assert!(r.complete, "warnings: {:?}", r.warnings);
    let got: Vec<String> = r.rows.iter().map(|x| x[0].to_string()).collect();
    let want: Vec<String> = names.into_iter().rev().collect();
    assert_eq!(got, want);
}

#[test]
fn update_with_crowd_predicate_applies_once() {
    let db = conference_db(CrowdConfig::fast_test());
    db.execute_local("UPDATE Talk SET nb_attendees = 100")
        .unwrap();
    let mut crowd = MockPlatform::unanimous(|kind| match kind {
        TaskKind::Equal { left, right, .. } => {
            let norm = |s: &str| s.to_lowercase().replace('.', "");
            if norm(left) == norm(right) {
                Answer::Yes
            } else {
                Answer::No
            }
        }
        _ => Answer::Blank,
    });
    // The crowd decides 'CrowdDB' ~= 'crowddb.' — the non-idempotent
    // assignment must be applied exactly once.
    let r = db
        .execute(
            "UPDATE Talk SET nb_attendees = nb_attendees + 1 WHERE title ~= 'crowddb.'",
            &mut crowd,
        )
        .unwrap();
    assert_eq!(r.affected, 1);
    let check = db
        .execute_local("SELECT nb_attendees FROM Talk WHERE title = 'CrowdDB'")
        .unwrap();
    assert_eq!(check.rows[0][0], Value::Int(101));
}

/// A DML's `WHERE` asks the crowd nothing, so a row it cannot decide
/// because it reads a `CNULL` is left alone — and the statement says so
/// instead of claiming to be complete.
#[test]
fn a_dml_that_skips_cnull_rows_is_not_complete() {
    let db = conference_db(CrowdConfig::fast_test());
    let mut crowd = probe_answers("500");
    let r = db
        .execute("DELETE FROM Talk WHERE nb_attendees > 100", &mut crowd)
        .unwrap();
    assert_eq!(crowd.stats().hits_posted, 0);
    assert_eq!(r.crowd.tasks_posted, 0);
    assert_eq!(r.affected, 0);
    assert!(!r.complete);
    assert_eq!(
        r.warnings,
        vec![
            "2 row(s) left alone: the WHERE reads a CNULL, which a DML statement does not \
             ask the crowd for"
                .to_string()
        ]
    );
    let left = db.execute_local("SELECT title FROM Talk").unwrap();
    assert_eq!(left.rows.len(), 2);
}

/// With every row's `WHERE` decided — a `NULL` makes a comparison
/// Unknown too, but that is SQL's answer, not a missing one — the same
/// statement is complete.
#[test]
fn a_dml_decided_on_every_row_is_complete() {
    let db = conference_db(CrowdConfig::fast_test());
    db.execute_local("UPDATE Talk SET nb_attendees = 150 WHERE title = 'CrowdDB'")
        .unwrap();
    db.execute_local("UPDATE Talk SET nb_attendees = NULL WHERE title = 'Qurk'")
        .unwrap();
    let mut crowd = probe_answers("500");
    let r = db
        .execute("DELETE FROM Talk WHERE nb_attendees > 100", &mut crowd)
        .unwrap();
    assert_eq!(crowd.stats().hits_posted, 0);
    assert_eq!(r.affected, 1);
    assert!(r.complete, "{:?}", r.warnings);
    assert!(r.warnings.is_empty(), "{:?}", r.warnings);
    let r = db
        .execute(
            "UPDATE Talk SET abstract = 'x' WHERE title = 'Qurk'",
            &mut crowd,
        )
        .unwrap();
    assert_eq!((r.affected, r.complete), (1, true));
}

#[test]
fn wrm_flags_and_bans_bad_workers() {
    let db = conference_db(CrowdConfig {
        vote: VoteConfig::replicated(3),
        ..CrowdConfig::default()
    });
    // Worker ordinal 2 of every HIT always disagrees. MockPlatform gives
    // each assignment a fresh worker id, so no one worker reaches the ban
    // minimum here: this checks the aggregate accounting, and
    // `a_worker_who_keeps_disagreeing_is_banned` the ban itself.
    let mut crowd = MockPlatform::new(Box::new(|kind: &TaskKind, ordinal| match kind {
        TaskKind::Probe { asked, .. } => Answer::Form(
            asked
                .iter()
                .map(|(c, _)| {
                    let v = if ordinal == 2 { "999999" } else { "77" };
                    (c.clone(), v.to_string())
                })
                .collect(),
        ),
        _ => Answer::Blank,
    }));
    db.execute("SELECT nb_attendees FROM Talk", &mut crowd)
        .unwrap();
    db.with_wrm(|wrm| {
        assert!(wrm.community_size() >= 6);
        assert!(wrm.total_paid_cents() > 0);
        // A third of assignments disagreed with the accepted majority.
        let dist = wrm.work_distribution();
        assert!(!dist.is_empty());
    });
}

/// A [`MockPlatform`] whose first assignment on every HIT is always the
/// same worker, [`STUBBORN`], answering `No`; every other assignment is a
/// fresh worker answering `Yes`.
struct OneStubbornWorker(MockPlatform);

const STUBBORN: WorkerId = WorkerId(u64::MAX);

impl OneStubbornWorker {
    fn new() -> OneStubbornWorker {
        OneStubbornWorker(MockPlatform::new(Box::new(|_, ordinal| {
            if ordinal == 0 {
                Answer::No
            } else {
                Answer::Yes
            }
        })))
    }
}

impl Platform for OneStubbornWorker {
    fn name(&self) -> &str {
        "one-stubborn-worker"
    }
    fn post(&mut self, tasks: Vec<TaskSpec>) -> crowddb::Result<Vec<HitId>> {
        self.0.post(tasks)
    }
    fn extend(&mut self, hit: HitId, extra: u32) -> crowddb::Result<()> {
        self.0.extend(hit, extra)
    }
    fn advance(&mut self, dt: f64) {
        self.0.advance(dt)
    }
    fn collect(&mut self) -> Vec<TaskResponse> {
        let mut responses = self.0.collect();
        for r in &mut responses {
            if r.answer == Answer::No {
                r.worker = STUBBORN;
            }
        }
        responses
    }
    fn now(&self) -> f64 {
        self.0.now()
    }
    fn stats(&self) -> PlatformStats {
        self.0.stats()
    }
    fn is_complete(&self, hit: HitId) -> bool {
        self.0.is_complete(hit)
    }
}

/// The WRM's ban: a worker outvoted on 10 agreement-scored tasks (lone
/// `CROWDEQUAL` pairs, one HIT each) is banned at settle, and from then
/// on their answers are paid but not counted — each of their votes is
/// short a ballot and escalates to a fresh worker.
#[test]
fn a_worker_who_keeps_disagreeing_is_banned() {
    let db = CrowdDB::with_config(CrowdConfig {
        vote: VoteConfig::replicated(3),
        ..CrowdConfig::default()
    });
    db.execute_local("CREATE TABLE Company (name STRING PRIMARY KEY)")
        .unwrap();
    for i in 0..14 {
        db.execute_local(&format!("INSERT INTO Company VALUES ('c{i:02}')"))
            .unwrap();
    }
    let mut crowd = OneStubbornWorker::new();
    let mut ask = |filter: &str| {
        let sql = format!("SELECT name FROM Company WHERE {filter} AND name ~= 'IBM'");
        let rows = db.execute(&sql, &mut crowd).unwrap().rows.len();
        let requested = crowd.stats().assignments_requested;
        let (banned, rate, done) = db.with_wrm(|wrm| {
            let done = wrm.work_distribution();
            let done = done.iter().find(|(w, _)| *w == STUBBORN).map(|(_, n)| *n);
            (wrm.is_banned(STUBBORN), wrm.agreement_rate(STUBBORN), done)
        });
        (rows, requested, banned, rate, done)
    };

    // Nine pairs, nine HITs of three: outvoted nine times, not yet banned.
    let (rows, requested, banned, _, done) = ask("name < 'c09'");
    assert_eq!((rows, requested, banned, done), (9, 27, false, Some(9)));
    // The tenth scored task crosses the minimum: agreement 1/12 < 0.25.
    let (rows, requested, banned, rate, done) = ask("name = 'c09'");
    assert_eq!((rows, requested, banned, done), (1, 30, true, Some(10)));
    assert_eq!(rate, Some(1.0 / 12.0));
    // Banned: the worker still answers and is paid, but their `No` is not
    // a ballot, so each of the four votes asks for one more assignment.
    let (rows, requested, banned, after, done) = ask("name > 'c09'");
    assert_eq!(
        (rows, requested, banned, done),
        (4, 30 + 4 * 4, true, Some(14))
    );
    assert_eq!(after, rate, "a banned worker's answers are not scored");
}

#[test]
fn preview_and_explain_cover_crowd_queries() {
    let db = conference_db(CrowdConfig::default());
    let html = db
        .preview_first_task("SELECT abstract FROM Talk WHERE title = 'CrowdDB'")
        .unwrap()
        .expect("task exists");
    assert!(html.contains("CrowdDB"));
    let plan = db
        .explain("SELECT t.title, n.name FROM Talk t JOIN NotableAttendee n ON t.title = n.title")
        .unwrap();
    assert!(plan.contains("CROWD TABLE"), "{plan}");
    assert!(plan.contains("BOUNDED"), "{plan}");
}

#[test]
fn budget_enforcement_stops_crowd_spending() {
    let db = CrowdDB::with_config(CrowdConfig {
        vote: VoteConfig::replicated(3),
        reward_cents: 2,
        governor: GovernorPolicy {
            max_crowd_cents: Some(6), // enough for one HIT (3 assignments x 2c)
            ..GovernorPolicy::default()
        },
        ..CrowdConfig::default()
    });
    db.execute_local("CREATE TABLE t (id INTEGER PRIMARY KEY, v CROWD INTEGER)")
        .unwrap();
    for i in 0..10 {
        db.execute_local(&format!("INSERT INTO t (id) VALUES ({i})"))
            .unwrap();
    }
    let mut crowd = probe_answers("5");
    // 10 probes wanted, but the budget covers only the first wave's cost
    // check — the second round trips the budget gate.
    let r = db.execute("SELECT v FROM t", &mut crowd).unwrap();
    assert!(!r.complete);
    assert!(
        r.warnings.iter().any(|w| w.contains("budget")),
        "warnings: {:?}",
        r.warnings
    );
    // Some values resolved before the gate, the rest still CNULL.
    let resolved = r.rows.iter().filter(|row| !row[0].is_cnull()).count();
    assert!(resolved >= 1, "first wave should land");
}

#[test]
fn unlimited_budget_resolves_everything() {
    let db = CrowdDB::with_config(CrowdConfig {
        vote: VoteConfig::single(),
        governor: GovernorPolicy {
            max_crowd_cents: None,
            ..GovernorPolicy::default()
        },
        ..CrowdConfig::default()
    });
    db.execute_local("CREATE TABLE t (id INTEGER PRIMARY KEY, v CROWD INTEGER)")
        .unwrap();
    for i in 0..10 {
        db.execute_local(&format!("INSERT INTO t (id) VALUES ({i})"))
            .unwrap();
    }
    let mut crowd = probe_answers("5");
    let r = db.execute("SELECT v FROM t", &mut crowd).unwrap();
    assert!(r.complete);
    assert!(r.rows.iter().all(|row| row[0] == Value::Int(5)));
}

#[test]
fn session_snapshot_restores_answers_and_caches() {
    let db = conference_db(CrowdConfig::fast_test());
    let mut crowd = probe_answers("persisted answer");
    db.execute(
        "SELECT abstract FROM Talk WHERE title = 'CrowdDB'",
        &mut crowd,
    )
    .unwrap();
    // A comparison verdict lives only in the session caches.
    db.with_caches(|c| {
        c.put_equal(
            "CrowDB",
            "CrowdDB",
            "Do these two values refer to the same entity?",
            true,
        )
    });
    let bytes = db.snapshot().unwrap();

    let restored = CrowdDB::restore(&bytes, CrowdConfig::fast_test()).unwrap();
    // Crowdsourced value served from restored storage, no tasks posted.
    let mut crowd2 = MockPlatform::unanimous(|_| Answer::Blank);
    let r = restored
        .execute(
            "SELECT abstract FROM Talk WHERE title = 'CrowdDB'",
            &mut crowd2,
        )
        .unwrap();
    assert!(r.complete);
    assert_eq!(r.rows[0][0], Value::str("persisted answer"));
    // Cached comparison verdict survives too.
    let r = restored
        .execute(
            "SELECT title FROM Talk WHERE title ~= 'CrowDB'",
            &mut crowd2,
        )
        .unwrap();
    assert!(r.complete);
    assert_eq!(r.rows.len(), 1);
    // Templates were regenerated from the schemas.
    restored.with_templates(|t| {
        assert!(t
            .get("talk", crowddb_ui::template::TemplateKind::Probe)
            .is_some());
    });
}

/// Two different pairs once shared one cache key: joined with an
/// unescaped U+0001, ('a\u{1}b', 'c') and ('a', 'b\u{1}c') both read
/// "q\u{1}a\u{1}b\u{1}c", so the second question was answered by the
/// first one's verdict without being asked.
#[test]
fn compare_pairs_with_the_separator_keep_their_own_verdicts() {
    let db = CrowdDB::with_config(CrowdConfig::fast_test());
    db.execute_local("CREATE TABLE t (name STRING PRIMARY KEY)")
        .unwrap();
    db.execute_local("INSERT INTO t VALUES ('a\u{1}b'), ('a')")
        .unwrap();
    let mut crowd = MockPlatform::unanimous(|kind| match kind {
        TaskKind::Equal { left, right, .. } if left == "c" || right == "c" => Answer::Yes,
        TaskKind::Equal { .. } => Answer::No,
        _ => Answer::Blank,
    });
    let mut names = |sql: &str| {
        let r = db.execute(sql, &mut crowd).unwrap();
        assert!(r.complete, "{sql}: {:?}", r.warnings);
        let mut names: Vec<String> = r.rows.iter().map(|x| x[0].to_string()).collect();
        names.sort();
        (names, r.crowd.tasks_posted)
    };
    assert_eq!(
        names("SELECT name FROM t WHERE name ~= 'c'"),
        (vec!["a".to_string(), "a\u{1}b".to_string()], 2)
    );
    assert_eq!(
        names("SELECT name FROM t WHERE name ~= 'b\u{1}c'"),
        (vec![], 2)
    );
}

#[test]
fn restore_rejects_garbage() {
    assert!(CrowdDB::restore(b"junk", CrowdConfig::default()).is_err());
    assert!(CrowdDB::restore(&[], CrowdConfig::default()).is_err());
}
