//! The statement driver's contract: `SELECT`, `EXPLAIN ANALYZE`,
//! `UPDATE`/`DELETE` and `execute_local` are one round loop, so what they
//! post, what they charge and why they stop cannot drift apart.
//!
//! * `analyze_matches_execute` — the differential oracle: on two
//!   identically seeded sessions, `execute(q)` and
//!   `execute("EXPLAIN ANALYZE q")` drive the platform through the
//!   identical call sequence and account for it identically.
//! * regression tests for the three bugs the separate loops had grown:
//!   `EXPLAIN ANALYZE` reporting a zero summary, local DML retrying
//!   against a platform that is not there and poisoning the session's
//!   exhausted set, and DML wording its stop reason differently from
//!   `SELECT`;
//! * `dml_asks_the_crowd_what_its_twin_select_asks` — UPDATE/DELETE
//!   select their rows through the optimizer, so conjunct order in the
//!   SQL text does not decide the bill.
//!
//! The world and the operator suite are `explain_golden.rs`'s.

use std::sync::Arc;

use crowddb_common::Result;
use crowddb_core::{CrowdConfig, CrowdDB, GovernorPolicy, Obs, QueryResult, RetryPolicy};
use crowddb_platform::{
    FaultConfig, FaultyPlatform, HitId, Platform, PlatformStats, TaskResponse, TaskSpec,
};
use crowddb_quality::VoteConfig;

mod common;
use common::world_script;

const SETUP: &[&str] = &[
    "CREATE TABLE Talk (title STRING PRIMARY KEY, abstract CROWD STRING, \
     nb_attendees CROWD INTEGER)",
    "CREATE CROWD TABLE NotableAttendee (name STRING PRIMARY KEY, title STRING, \
     FOREIGN KEY (title) REF Talk(title))",
    "CREATE TABLE Venue (talk STRING PRIMARY KEY, room STRING)",
    "CREATE INDEX talk_attendees ON Talk (nb_attendees)",
    "INSERT INTO Talk (title) VALUES ('CrowdDB'), ('Qurk'), ('PIQL'), ('HyPer')",
    "INSERT INTO Venue VALUES ('CrowdDB', 'R101'), ('Qurk', 'R102')",
];

/// `explain_golden.rs`'s operator suite, one query per physical
/// operator — minus its unbounded index probe of the CROWD table, which
/// `execute` rejects at compile time and only `EXPLAIN ANALYZE` runs.
const OPERATORS: &[&str] = &[
    "SELECT title, abstract FROM Talk",
    "SELECT title FROM Talk WHERE title ~= 'crowddb.'",
    "SELECT t.title, v.room FROM Talk t JOIN Venue v ON t.title = v.talk",
    "SELECT t.title, n.name FROM Talk t JOIN NotableAttendee n ON t.title = n.title",
    "SELECT title FROM Talk WHERE nb_attendees >= 100",
    "SELECT title FROM Talk ORDER BY CROWDORDER(title, 'Which talk did you like better') LIMIT 2",
    "SELECT COUNT(*), MAX(nb_attendees) FROM Talk",
];

/// The chaos suite's configuration: short deadlines and backoffs so
/// reposts trigger within a few pump steps, parallel even for tiny waves.
fn config(workers: usize) -> CrowdConfig {
    let mut c = CrowdConfig {
        vote: VoteConfig::replicated(3),
        retry: RetryPolicy {
            max_post_attempts: 4,
            backoff_base_secs: 60.0,
            backoff_cap_secs: 600.0,
            backoff_jitter: 0.25,
            hit_deadline_secs: 3_600.0,
            max_reposts: 2,
            breaker_threshold: 10,
        },
        ..CrowdConfig::default()
    };
    c.concurrency.fulfill_workers = workers;
    c
}

fn seeded(config: CrowdConfig, obs: Arc<Obs>, platform: &mut dyn Platform) -> CrowdDB {
    let db = CrowdDB::with_obs(config, obs);
    for sql in SETUP {
        db.execute(sql, platform).expect(sql);
    }
    db
}

/// Logs every call that changes platform state, with what it returned.
struct Recorder<P> {
    inner: P,
    calls: Vec<String>,
}

impl<P: Platform> Platform for Recorder<P> {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn post(&mut self, tasks: Vec<TaskSpec>) -> Result<Vec<HitId>> {
        let what = format!("{tasks:?}");
        let r = self.inner.post(tasks);
        self.calls.push(format!("post {what} -> {r:?}"));
        r
    }
    fn extend(&mut self, hit: HitId, extra: u32) -> Result<()> {
        let r = self.inner.extend(hit, extra);
        self.calls.push(format!("extend {hit:?} +{extra} -> {r:?}"));
        r
    }
    fn advance(&mut self, dt: f64) {
        self.calls.push(format!("advance {dt}"));
        self.inner.advance(dt)
    }
    fn collect(&mut self) -> Vec<TaskResponse> {
        let r = self.inner.collect();
        self.calls.push(format!("collect -> {r:?}"));
        r
    }
    fn now(&self) -> f64 {
        self.inner.now()
    }
    fn stats(&self) -> PlatformStats {
        self.inner.stats()
    }
    fn is_complete(&self, hit: HitId) -> bool {
        self.inner.is_complete(hit)
    }
}

fn plan_text(r: &QueryResult) -> Vec<String> {
    r.rows.iter().map(|row| row[0].to_string()).collect()
}

/// Every user-visible text these tests produce, checked for the lost
/// line continuations that once left 26-space runs in three messages.
fn assert_no_space_runs(texts: &[String]) {
    for t in texts {
        assert!(!t.contains("  "), "run of spaces in message: {t:?}");
    }
}

#[test]
fn analyze_matches_execute() {
    for rate in [0.0, 0.3] {
        for workers in [1, 4] {
            let session = || {
                let obs = Obs::new();
                let faulty = FaultyPlatform::new(world_script(), FaultConfig::uniform(7, rate))
                    .with_obs(obs.clone());
                let mut p = Recorder {
                    inner: faulty,
                    calls: Vec::new(),
                };
                let db = seeded(config(workers), obs, &mut p);
                (db, p)
            };
            let (plain_db, mut plain_p) = session();
            let (analyzed_db, mut analyzed_p) = session();
            for q in OPERATORS {
                let ctx = format!("rate {rate}, {workers} worker(s), {q}");
                let plain = plain_db.execute(q, &mut plain_p).expect(q);
                let analyzed = analyzed_db
                    .execute(&format!("EXPLAIN ANALYZE {q}"), &mut analyzed_p)
                    .expect(q);
                assert_eq!(plain_p.calls, analyzed_p.calls, "platform calls: {ctx}");
                assert_eq!(plain_p.stats(), analyzed_p.stats(), "platform stats: {ctx}");
                assert_eq!(
                    plain_p.inner.injected(),
                    analyzed_p.inner.injected(),
                    "injected faults: {ctx}"
                );
                assert_eq!(plain.crowd, analyzed.crowd, "summary: {ctx}");
                assert_eq!(plain.complete, analyzed.complete, "complete: {ctx}");

                // The rendering is of that same execution: its warnings
                // are the statement's, its last round produced the
                // statement's rows, and the root operator's cumulative
                // `out=` is the sum over its rounds.
                let text = plan_text(&analyzed);
                let warnings: Vec<String> = text
                    .iter()
                    .filter_map(|l| l.strip_prefix("warning: ").map(String::from))
                    .collect();
                assert_eq!(plain.warnings, warnings, "warnings: {ctx}");
                let round_rows: Vec<u64> = text
                    .iter()
                    .filter(|l| l.starts_with("round "))
                    .map(|l| {
                        let rows = l.split(": ").nth(1).and_then(|s| s.split(' ').next());
                        rows.and_then(|n| n.parse().ok()).expect("round line")
                    })
                    .collect();
                assert_eq!(round_rows.len(), plain.crowd.rounds, "rounds: {ctx}");
                assert_eq!(
                    round_rows.last().copied(),
                    Some(plain.rows.len() as u64),
                    "last round's rows: {ctx}"
                );
                let root_out: u64 = text[1]
                    .split(" out=")
                    .nth(1)
                    .and_then(|s| s.split(' ').next())
                    .and_then(|n| n.parse().ok())
                    .expect("root line has out=");
                assert_eq!(root_out, round_rows.iter().sum::<u64>(), "root out=: {ctx}");
                assert_no_space_runs(&plain.warnings);
            }
            assert_eq!(
                plain_p.inner.injected() != Default::default(),
                rate > 0.0,
                "the fault arm must actually inject faults"
            );
            // One accounting: registry and event stream agree, modulo the
            // statement text.
            assert_eq!(
                plain_db.metrics().to_prometheus(),
                analyzed_db.metrics().to_prometheus(),
                "registry: rate {rate}, {workers} worker(s)"
            );
            assert_eq!(
                plain_db.events_jsonl(),
                analyzed_db.events_jsonl().replace("EXPLAIN ANALYZE ", ""),
                "events: rate {rate}, {workers} worker(s)"
            );
        }
    }
}

#[test]
fn explain_analyze_reports_the_statements_real_summary() {
    let obs = Obs::new();
    let mut p = world_script();
    let db = seeded(config(1), obs, &mut p);
    let before = p.stats();
    let r = db
        .execute("EXPLAIN ANALYZE SELECT title, abstract FROM Talk", &mut p)
        .unwrap();
    let spent = p.stats().cents_spent - before.cents_spent;
    assert!(spent > 0, "the statement paid the crowd");
    assert_eq!(r.crowd.cents_spent, spent);
    assert_eq!(
        r.crowd.tasks_posted,
        p.stats().hits_posted - before.hits_posted
    );
    assert_eq!(r.crowd.rounds, 2);
    let snap = db.metrics();
    assert_eq!(snap.counter("crowddb_crowd_cents_spent_total"), spent);
    assert_eq!(
        snap.counter("crowddb_crowd_tasks_posted_total"),
        r.crowd.tasks_posted
    );
    let events = db.events_jsonl();
    let end = events
        .lines()
        .rfind(|l| l.contains("\"statement_end\""))
        .expect("statement_end event");
    assert!(
        end.contains(&format!("\"cents\":{spent},")) && end.contains("\"rounds\":2"),
        "{end}"
    );

    // The text API is the same statement: admitted, spanned, accounted.
    let statements = snap.counter("crowddb_statements_total");
    let text = db
        .explain_analyze("SELECT title, nb_attendees FROM Talk", &mut p)
        .unwrap();
    // Four probes, each decided by the quorum of two at 1¢ apiece.
    assert!(text.contains("cents spent: 8\n"), "{text}");
    let snap = db.metrics();
    assert_eq!(snap.counter("crowddb_statements_total"), statements + 1);
    assert_eq!(
        snap.counter("crowddb_crowd_cents_spent_total"),
        p.stats().cents_spent - before.cents_spent
    );
}

#[test]
fn local_dml_posts_nothing_and_poisons_nothing() {
    let select = "SELECT title FROM Talk WHERE title ~= 'zzz'";
    let mut p = world_script();
    let fresh = seeded(config(1), Obs::new(), &mut p);
    let expected = fresh.execute(select, &mut p).unwrap();
    assert!(expected.complete && expected.crowd.tasks_posted > 0);

    let mut p = world_script();
    let db = seeded(config(1), Obs::new(), &mut p);
    let local = db
        .execute_local("DELETE FROM Talk WHERE title ~= 'zzz'")
        .unwrap();
    assert!(!local.complete);
    assert_eq!(local.affected, 0);
    assert_eq!(
        local.warnings,
        [
            format!(
                "{} crowd task(s) would be needed to complete this result",
                expected.crowd.tasks_posted
            ),
            "DML applied with some crowd predicates undecided".to_string(),
        ]
    );
    assert_eq!(local.crowd.rounds, 1);
    assert_eq!((local.crowd.post_failures, local.crowd.retries), (0, 0));
    let snap = db.metrics();
    assert_eq!(snap.counter("crowddb_crowd_post_failures_total"), 0);
    assert_eq!(snap.counter("crowddb_crowd_exhausted_needs_total"), 0);
    assert_no_space_runs(&local.warnings);

    // Nothing was marked exhausted: the real statement asks the crowd
    // exactly as a fresh session does.
    let real = db.execute(select, &mut p).unwrap();
    assert_eq!(real.crowd.tasks_posted, expected.crowd.tasks_posted);
    assert!(real.complete, "warnings: {:?}", real.warnings);
}

#[test]
fn dml_words_its_stop_reason_like_select() {
    let db = {
        let mut p = world_script();
        seeded(config(1), Obs::new(), &mut p)
    };
    // A platform that never recovers exhausts the predicate's needs.
    let mut outage = FaultConfig::none(3);
    outage.post_fail_rate = 1.0;
    let mut down = FaultyPlatform::new(world_script(), outage);
    let select = "SELECT title FROM Talk WHERE title ~= 'zzz'";
    assert!(!db.execute(select, &mut down).unwrap().complete);

    // Exhausted: partial and said so, on both paths, without posting.
    let mut p = world_script();
    let s = db.execute(select, &mut p).unwrap();
    let d = db
        .execute("DELETE FROM Talk WHERE title ~= 'zzz'", &mut p)
        .unwrap();
    let exhausted = "result is partial: remaining crowd tasks were previously exhausted";
    assert_eq!(s.warnings, [exhausted]);
    assert_eq!(
        d.warnings,
        [
            exhausted,
            "DML applied with some crowd predicates undecided"
        ]
    );
    assert!(!s.complete && !d.complete);
    assert_eq!((s.crowd.tasks_posted, d.crowd.tasks_posted), (0, 0));
    assert_eq!(d.affected, 0);

    // Budget: a stop for money is not also a stop for rounds. Each need
    // is priced at its whole 3-way replication, so 3¢ posts one; its
    // quorum of two agrees, and the 1¢ left affords no other.
    let policy = GovernorPolicy {
        max_crowd_cents: Some(3),
        ..GovernorPolicy::default()
    };
    let u = db
        .execute_with_policy(
            "UPDATE Talk SET nb_attendees = 0 WHERE title ~= 'crowddb.'",
            &mut p,
            &policy,
        )
        .unwrap();
    assert!(!u.complete);
    assert_eq!(u.crowd.tasks_posted, 1, "warnings: {:?}", u.warnings);
    assert_eq!(
        u.warnings,
        [
            "budget allows only 1 of 4 crowd task(s) this wave",
            "crowd budget of 3¢ exhausted (2¢ spent); 3 task(s) abandoned, result is partial",
            "DML applied with some crowd predicates undecided",
        ]
    );

    let err = db
        .execute(
            "SELECT title FROM Talk UNION SELECT talk FROM Venue ORDER BY title + 1",
            &mut p,
        )
        .unwrap_err();
    let mut texts = vec![err.to_string()];
    texts.extend([s.warnings, d.warnings, u.warnings].concat());
    assert_no_space_runs(&texts);
    assert!(texts[0].contains("output column or position"), "{texts:?}");
}

/// `WHERE <crowd> AND <machine>` used to cost a DML one crowd task per
/// *stored* row — it evaluated the filter as written and never saw the
/// optimizer — where the same `WHERE` in a `SELECT` asks only about the
/// rows the machine conjunct lets through. Both statement kinds, both
/// conjunct orders: the specs posted are the twin SELECT's.
#[test]
fn dml_asks_the_crowd_what_its_twin_select_asks() {
    let posts = |sql: &str| -> (Vec<String>, QueryResult) {
        let mut p = Recorder {
            inner: world_script(),
            calls: Vec::new(),
        };
        let db = seeded(config(1), Obs::new(), &mut p);
        let r = db.execute(sql, &mut p).expect(sql);
        let specs = p
            .calls
            .iter()
            .filter(|c| c.starts_with("post "))
            .map(|c| c.split(" -> ").next().unwrap().to_string())
            .collect();
        (specs, r)
    };
    let crowd = "room ~= 'r102.'";
    let machine = "talk = 'Qurk'";
    for filter in [
        format!("{crowd} AND {machine}"),
        format!("{machine} AND {crowd}"),
    ] {
        let (select, s) = posts(&format!("SELECT talk FROM Venue WHERE {filter}"));
        assert_eq!(
            s.crowd.tasks_posted, 1,
            "one row survives the machine conjunct"
        );
        assert_eq!(s.rows.len(), 1);
        for dml in [
            format!("DELETE FROM Venue WHERE {filter}"),
            format!("UPDATE Venue SET room = 'moved' WHERE {filter}"),
        ] {
            let (posted, r) = posts(&dml);
            assert_eq!(posted, select, "{dml}");
            assert_eq!(r.crowd.tasks_posted, 1, "{dml}");
            assert_eq!(r.affected, 1, "{dml}");
            assert!(r.complete, "{dml}: {:?}", r.warnings);
        }
    }
}
