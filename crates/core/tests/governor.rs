//! Resource-governor integration tests: statement budgets, cooperative
//! cancellation walked through every operator, crowd-budget degradation,
//! admission control, panic isolation, and the determinism of governed
//! termination.
//!
//! The contract under test (DESIGN.md §11): every statement is bounded
//! (deadline, row caps, crowd budget), cancellable (token or chaos
//! hook), and isolated (a panicking statement never takes the session —
//! or any concurrent session — with it). Termination is deterministic:
//! a governed run produces byte-identical outcomes per seed at any
//! `fulfill_workers` count, and a cancelled statement never discards an
//! answer the crowd was already paid for.

use std::sync::Arc;

use crowddb_common::{CancelReason, CrowdError, Row, Value};
use crowddb_core::{CrowdConfig, CrowdDB, Event, GovernorPolicy};
use crowddb_platform::{Answer, MockPlatform, Platform, TaskKind};
use crowddb_quality::VoteConfig;
use crowddb_wal::testutil::TestDir;
use crowddb_wal::FsyncPolicy;

mod common;
/// The suites' scripted crowd: a pure function of the task, so every run
/// sees the same answers regardless of schedule.
use common::world_script as scripted;

fn config() -> CrowdConfig {
    let mut c = CrowdConfig::fast_test();
    c.durability.fsync = FsyncPolicy::Never;
    c
}

/// Schema + local data shared by most tests.
fn seed_session(db: &CrowdDB, p: &mut dyn Platform) {
    for sql in [
        "CREATE TABLE Talk (title STRING PRIMARY KEY, abstract CROWD STRING, \
         nb_attendees INTEGER)",
        "INSERT INTO Talk (title, nb_attendees) VALUES ('CrowdDB', 220), ('Qurk', 140), \
         ('PIQL', 90), ('HyPer', 180)",
    ] {
        db.execute(sql, p).unwrap_or_else(|e| panic!("{sql}: {e}"));
    }
}

fn policy(f: impl FnOnce(&mut GovernorPolicy)) -> GovernorPolicy {
    let mut p = GovernorPolicy::default();
    f(&mut p);
    p
}

// ---------------------------------------------------------------------
// Per-operator cancellation harness
// ---------------------------------------------------------------------

/// Statements chosen so that, together, their plans cover every physical
/// operator with guard checkpoints: table scan, filter, projection,
/// nested-loop and hash joins, aggregation, sort, crowd sort
/// (CROWDORDER), StopAfter (LIMIT), values, and all three DML kinds.
const OPERATOR_SUITE: &[&str] = &[
    "SELECT title FROM Talk",
    "SELECT title FROM Talk WHERE nb_attendees > 100",
    "SELECT a.title, b.title FROM Talk a, Talk b WHERE a.nb_attendees = b.nb_attendees",
    "SELECT COUNT(*), MAX(nb_attendees) FROM Talk",
    "SELECT title FROM Talk ORDER BY nb_attendees DESC",
    "SELECT title FROM Talk ORDER BY CROWDORDER(title, 'Which talk did you like better') LIMIT 2",
    "SELECT title, abstract FROM Talk ORDER BY title",
    "INSERT INTO Talk (title, nb_attendees) VALUES ('VLDB', 500)",
    "UPDATE Talk SET nb_attendees = 221 WHERE title = 'CrowdDB'",
    "DELETE FROM Talk WHERE title = 'Qurk'",
];

/// Walk a cancellation through every checkpoint of every operator: for
/// each statement, trip the chaos hook at checkpoint 1, 2, 3, … until
/// the statement survives. Every trip must surface as the typed
/// `Cancelled(UserRequested)` error — never a panic, never a mangled
/// result — and must leave storage exactly as it was (verified through
/// a crash-consistent reopen for the DML statements).
#[test]
fn cancellation_walks_every_operator_checkpoint() {
    for sql in OPERATOR_SUITE {
        let mut trip = 1_u64;
        loop {
            let dir = TestDir::new("gov-walk");
            let db = CrowdDB::open_with_config(dir.path(), config()).unwrap();
            let mut p = scripted();
            seed_session(&db, &mut p);
            let before = db
                .execute_local("SELECT title, nb_attendees FROM Talk")
                .unwrap()
                .rows;

            let r = db.execute_with_policy(
                sql,
                &mut p,
                &policy(|g| g.trip_cancel_at_check = Some(trip)),
            );
            match r {
                Err(CrowdError::Cancelled(CancelReason::UserRequested)) => {
                    // The cancelled statement must not have mutated
                    // local state (DML applies its writes only after a
                    // clean execution)…
                    let after = db
                        .execute_local("SELECT title, nb_attendees FROM Talk")
                        .unwrap()
                        .rows;
                    assert_eq!(before, after, "{sql} @ trip {trip}: storage mutated");
                    // …and the session must stay fully usable.
                    drop(db);
                    let db = CrowdDB::open_with_config(dir.path(), config()).unwrap();
                    let after = db
                        .execute_local("SELECT title, nb_attendees FROM Talk")
                        .unwrap()
                        .rows;
                    assert_eq!(before, after, "{sql} @ trip {trip}: reopen diverged");
                    trip += 1;
                }
                Ok(_) => break, // trip point beyond the statement's checkpoints
                Err(e) => panic!("{sql} @ trip {trip}: unexpected error {e}"),
            }
            assert!(trip < 10_000, "{sql}: checkpoint walk did not terminate");
        }
        assert!(
            trip > 1,
            "{sql}: expected at least one guarded checkpoint to trip"
        );
    }
}

// ---------------------------------------------------------------------
// Statement budgets
// ---------------------------------------------------------------------

#[test]
fn output_row_cap_is_a_typed_error() {
    let db = CrowdDB::with_config(config());
    let mut p = scripted();
    seed_session(&db, &mut p);
    let r = db.execute_with_policy(
        "SELECT title FROM Talk",
        &mut p,
        &policy(|g| g.max_output_rows = Some(2)),
    );
    assert!(
        matches!(r, Err(CrowdError::Cancelled(CancelReason::OutputRowLimit))),
        "{r:?}"
    );
    // At or under the cap: untouched.
    let r = db
        .execute_with_policy(
            "SELECT title FROM Talk LIMIT 2",
            &mut p,
            &policy(|g| g.max_output_rows = Some(2)),
        )
        .unwrap();
    assert_eq!(r.rows.len(), 2);
}

/// A statement that pays the crowd and then errors still books what it
/// paid: round 1 buys a probe per abstract (its filter passes no row
/// yet), round 2 trips the output-row cap on the answers. The registry
/// and the `statement_end` event carry the platform's cents.
#[test]
fn a_statement_that_errors_after_paying_books_its_spend() {
    let db = CrowdDB::with_config(config());
    let mut p = MockPlatform::unanimous(|kind| match kind {
        TaskKind::Probe { asked, .. } => {
            Answer::Form(asked.iter().map(|(c, _)| (c.clone(), "x".into())).collect())
        }
        _ => Answer::Blank,
    });
    seed_session(&db, &mut p);
    let r = db.execute_with_policy(
        "SELECT title FROM Talk WHERE abstract = 'x'",
        &mut p,
        &policy(|g| g.max_output_rows = Some(0)),
    );
    assert!(
        matches!(r, Err(CrowdError::Cancelled(CancelReason::OutputRowLimit))),
        "{r:?}"
    );
    let cents = p.stats().cents_spent;
    assert_eq!(cents, 4, "one probe per CNULL abstract");
    assert_eq!(
        db.metrics().counter("crowddb_crowd_cents_spent_total"),
        cents
    );
    let end = db
        .obs()
        .events()
        .records()
        .into_iter()
        .rev()
        .find_map(|r| match r.event {
            Event::StatementEnd {
                ok, rounds, cents, ..
            } => Some((ok, rounds, cents)),
            _ => None,
        });
    assert_eq!(end, Some((false, 2, cents)));
}

#[test]
fn intermediate_row_cap_stops_exploding_joins() {
    let db = CrowdDB::with_config(config());
    let mut p = scripted();
    seed_session(&db, &mut p);
    // The 4×4 cross join materializes 16 join rows + inputs; cap below.
    let r = db.execute_with_policy(
        "SELECT a.title FROM Talk a, Talk b",
        &mut p,
        &policy(|g| g.max_intermediate_rows = Some(10)),
    );
    assert!(
        matches!(
            r,
            Err(CrowdError::Cancelled(CancelReason::IntermediateRowLimit))
        ),
        "{r:?}"
    );
    // A generous cap lets the same query through.
    let r = db
        .execute_with_policy(
            "SELECT a.title FROM Talk a, Talk b",
            &mut p,
            &policy(|g| g.max_intermediate_rows = Some(1000)),
        )
        .unwrap();
    assert_eq!(r.rows.len(), 16);
}

#[test]
fn deadline_cancels_at_a_round_boundary_and_keeps_paid_answers() {
    let db = CrowdDB::with_config(config());
    let mut p = scripted();
    seed_session(&db, &mut p);
    // One pump step is 600 virtual seconds; a 600 s deadline admits
    // round 1, lets its wave settle, and trips at the round-2 boundary.
    let r = db.execute_with_policy(
        "SELECT title, abstract FROM Talk ORDER BY title",
        &mut p,
        &policy(|g| g.deadline_virtual_secs = Some(600.0)),
    );
    assert!(
        matches!(
            r,
            Err(CrowdError::Cancelled(CancelReason::DeadlineExceeded))
        ),
        "{r:?}"
    );
    let spent = p.stats().cents_spent;
    assert!(spent > 0, "the cancelled statement paid the crowd");
    // The answers the statement paid for were memorized before the
    // deadline fired: re-running ungoverned completes without posting a
    // single new probe task.
    let r = db
        .execute("SELECT title, abstract FROM Talk ORDER BY title", &mut p)
        .unwrap();
    assert!(r.complete);
    assert_eq!(r.crowd.tasks_posted, 0, "paid answers were discarded");
    assert_eq!(p.stats().cents_spent, spent);
}

#[test]
fn statement_crowd_budget_degrades_gracefully() {
    let db = CrowdDB::with_config(config());
    let mut p = scripted();
    seed_session(&db, &mut p);
    // Four probe needs at 1¢ each; a 2¢ statement budget trims the wave.
    let r = db
        .execute_with_policy(
            "SELECT title, abstract FROM Talk ORDER BY title",
            &mut p,
            &policy(|g| g.max_crowd_cents = Some(2)),
        )
        .unwrap();
    assert!(!r.complete, "warnings: {:?}", r.warnings);
    assert!(r.crowd.cents_spent <= 2, "summary: {:?}", r.crowd);
    assert!(
        r.warnings.iter().any(|w| w.contains("budget")),
        "warnings: {:?}",
        r.warnings
    );
    // Partial results kept: some abstracts resolved, the rest CNULL.
    assert!(r.rows.iter().any(|row| !row[1].is_cnull()), "{:?}", r.rows);
    assert!(r.rows.iter().any(|row| row[1].is_cnull()), "{:?}", r.rows);
}

#[test]
fn budget_prices_a_new_tuples_need_at_its_assignments() {
    // A new-tuples HIT asks at least two workers, so at 1¢ a 1¢ budget
    // affords none: the statement stops at once, spending nothing.
    let mut cfg = config();
    cfg.governor.max_crowd_cents = Some(1);
    let db = CrowdDB::with_config(cfg);
    let mut p = scripted();
    db.execute(
        "CREATE CROWD TABLE NotableAttendee (name STRING PRIMARY KEY, title STRING)",
        &mut p,
    )
    .unwrap();
    let r = db
        .execute("SELECT name FROM NotableAttendee LIMIT 1", &mut p)
        .unwrap();
    assert!(r.crowd.cents_spent <= 1, "summary: {:?}", r.crowd);
    assert!(
        r.warnings.iter().any(|w| w.contains("budget")),
        "warnings: {:?}",
        r.warnings
    );
    assert_eq!(r.crowd.rounds, 1, "summary: {:?}", r.crowd);
}

/// A crowd whose assignment `k` of every probe HIT types the `k`-th of
/// "one", "two", "one", ...: each vote splits on its quorum of two, and
/// the third ballot — free up to the 3-way replication — decides it.
fn split_on_the_quorum() -> MockPlatform {
    MockPlatform::new(Box::new(|kind, k| match kind {
        TaskKind::Probe { asked, .. } => Answer::Form(
            asked
                .iter()
                .map(|(c, _)| (c.clone(), ["one", "two"][k as usize % 2].to_string()))
                .collect(),
        ),
        other => panic!("unexpected task {other:?}"),
    }))
}

fn three_way_without_escalations() -> CrowdConfig {
    let mut cfg = config();
    cfg.vote = VoteConfig {
        replication: 3,
        max_escalations: 0,
    };
    cfg
}

#[test]
fn budget_prices_a_vote_at_its_whole_replication() {
    // A probe HIT first asks a quorum of two at 1¢, but a split extends
    // it to three: a 2¢ budget pays for the first ask and not the
    // worst case, so it posts nothing.
    let mut cfg = three_way_without_escalations();
    cfg.governor.max_crowd_cents = Some(2);
    let db = CrowdDB::with_config(cfg);
    let mut p = split_on_the_quorum();
    seed_session(&db, &mut p);
    let r = db
        .execute("SELECT abstract FROM Talk WHERE title = 'CrowdDB'", &mut p)
        .unwrap();
    assert_eq!(r.crowd.tasks_posted, 0, "summary: {:?}", r.crowd);
    assert_eq!(p.stats().cents_spent, 0);
    assert!(
        r.warnings.iter().any(|w| w.contains("budget")),
        "warnings: {:?}",
        r.warnings
    );
}

#[test]
fn free_extensions_stay_inside_the_budget() {
    // Four probes priced at 3¢ each: a 10¢ budget posts three, each of
    // whose splits is extended to its third ballot — 9¢ — and the next
    // round affords nothing. Priced at the quorum, four would post and
    // extend to 12¢.
    let mut cfg = three_way_without_escalations();
    cfg.governor.max_crowd_cents = Some(10);
    let db = CrowdDB::with_config(cfg);
    let mut p = split_on_the_quorum();
    seed_session(&db, &mut p);
    let r = db
        .execute("SELECT title, abstract FROM Talk ORDER BY title", &mut p)
        .unwrap();
    assert_eq!(r.crowd.tasks_posted, 3, "summary: {:?}", r.crowd);
    assert_eq!(r.crowd.cents_spent, 9, "summary: {:?}", r.crowd);
    assert_eq!(p.stats().assignments_requested, 9);
    assert!(!r.complete);
    let decided: Vec<&Row> = r.rows.iter().filter(|row| !row[1].is_cnull()).collect();
    assert_eq!(decided.len(), 3, "{:?}", r.rows);
    assert!(
        decided.iter().all(|row| row[1] == Value::str("one")),
        "{:?}",
        r.rows
    );
}

// ---------------------------------------------------------------------
// Cancel token
// ---------------------------------------------------------------------

#[test]
fn cancel_token_stops_the_next_statement_and_is_consumed() {
    let db = CrowdDB::with_config(config());
    let mut p = scripted();
    seed_session(&db, &mut p);
    db.cancel_handle().cancel();
    let r = db.execute("SELECT title FROM Talk", &mut p);
    assert!(
        matches!(r, Err(CrowdError::Cancelled(CancelReason::UserRequested))),
        "{r:?}"
    );
    // Consumed: the next statement runs normally.
    assert!(!db.cancel_handle().is_cancelled());
    let r = db.execute("SELECT title FROM Talk", &mut p).unwrap();
    assert_eq!(r.rows.len(), 4);
}

#[test]
fn cancel_from_another_thread_interrupts_a_crowd_statement() {
    // A platform whose advance() flips the cancel token partway through
    // the round — the deterministic stand-in for a user on another
    // thread hitting \cancel while the statement pumps the crowd.
    struct CancelAfter<P: Platform> {
        inner: P,
        handle: crowddb_core::CancelToken,
        at: f64,
        now: f64,
    }
    impl<P: Platform> Platform for CancelAfter<P> {
        fn name(&self) -> &str {
            self.inner.name()
        }
        fn post(
            &mut self,
            tasks: Vec<crowddb_platform::TaskSpec>,
        ) -> crowddb_common::Result<Vec<crowddb_platform::HitId>> {
            self.inner.post(tasks)
        }
        fn advance(&mut self, dt: f64) {
            self.now += dt;
            if self.now >= self.at {
                self.handle.cancel();
            }
            self.inner.advance(dt);
        }
        fn now(&self) -> f64 {
            self.inner.now()
        }
        fn collect(&mut self) -> Vec<crowddb_platform::TaskResponse> {
            self.inner.collect()
        }
        fn is_complete(&self, hit: crowddb_platform::HitId) -> bool {
            self.inner.is_complete(hit)
        }
        fn extend(&mut self, hit: crowddb_platform::HitId, n: u32) -> crowddb_common::Result<()> {
            self.inner.extend(hit, n)
        }
        fn stats(&self) -> crowddb_platform::PlatformStats {
            self.inner.stats()
        }
    }

    let db = CrowdDB::with_config(config());
    let mut p = scripted();
    seed_session(&db, &mut p);
    let mut p = CancelAfter {
        inner: p,
        handle: db.cancel_handle(),
        at: 600.0,
        now: 0.0,
    };
    let r = db.execute("SELECT title, abstract FROM Talk ORDER BY title", &mut p);
    assert!(
        matches!(r, Err(CrowdError::Cancelled(CancelReason::UserRequested))),
        "{r:?}"
    );
    assert!(!db.cancel_handle().is_cancelled(), "token must be consumed");
    // Whatever the statement paid for before the cancel stays memorized.
    let spent = p.stats().cents_spent;
    let r = db
        .execute("SELECT title, abstract FROM Talk ORDER BY title", &mut p)
        .unwrap();
    assert!(r.complete);
    if spent > 0 {
        assert!(r.crowd.tasks_posted < 4, "answers were re-bought");
    }
}

// ---------------------------------------------------------------------
// Admission control
// ---------------------------------------------------------------------

#[test]
fn admission_rejects_when_at_capacity() {
    let mut cfg = config();
    cfg.governor.max_concurrent_statements = Some(0); // always at capacity
    cfg.governor.admission_timeout_virtual_secs = Some(0.0); // reject now
    let db = CrowdDB::with_config(cfg);
    let mut p = scripted();
    let r = db.execute("SELECT 1", &mut p);
    assert!(matches!(r, Err(CrowdError::Overloaded(_))), "{r:?}");
    let snap = db.metrics();
    assert_eq!(snap.counter("crowddb_governor_rejected_total"), 1);
    assert_eq!(snap.counter("crowddb_governor_admitted_total"), 0);
    assert!(db
        .events_jsonl()
        .contains("\"event\":\"admission_rejected\""));
}

#[test]
fn crowd_admission_limit_spares_local_statements() {
    let mut cfg = config();
    cfg.governor.max_concurrent_crowd_statements = Some(0);
    cfg.governor.admission_timeout_virtual_secs = Some(0.0);
    let db = CrowdDB::with_config(cfg);
    let mut p = scripted();
    // DDL and INSERT never touch the crowd: admitted.
    db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY)", &mut p)
        .unwrap();
    db.execute("INSERT INTO t VALUES (1)", &mut p).unwrap();
    db.execute(
        "CREATE TABLE Talk (title STRING PRIMARY KEY, abstract CROWD STRING)",
        &mut p,
    )
    .unwrap();
    // A SELECT over a machine table cannot engage the crowd, by its
    // plan: admitted on the local tier, and it answers.
    let r = db.execute("SELECT id FROM t", &mut p).unwrap();
    assert_eq!(r.rows.len(), 1);
    // A SELECT that probes a CROWD column, and an UPDATE, may: rejected
    // at the crowd limit.
    for sql in [
        "SELECT abstract FROM Talk WHERE title = 'CrowdDB'",
        "UPDATE t SET id = 2 WHERE id = 1",
    ] {
        let r = db.execute(sql, &mut p);
        assert!(matches!(r, Err(CrowdError::Overloaded(_))), "{sql}: {r:?}");
    }
}

#[test]
fn bounded_admission_wait_advances_virtual_time_deterministically() {
    let mut cfg = config();
    cfg.governor.max_concurrent_statements = Some(0);
    cfg.governor.admission_timeout_virtual_secs = Some(30.0);
    let db = CrowdDB::with_config(cfg);
    let mut p = scripted();
    let before = p.now();
    let r = db.execute("SELECT 1", &mut p);
    assert!(matches!(r, Err(CrowdError::Overloaded(_))), "{r:?}");
    // The wait burned exactly the virtual timeout — no real sleeping,
    // no retry loop with hidden time.
    assert_eq!(p.now(), before + 30.0);
}

#[test]
fn blocking_admission_serializes_concurrent_sessions() {
    let mut cfg = config();
    cfg.governor.max_concurrent_statements = Some(1); // strict serial
    let db = Arc::new(CrowdDB::with_config(cfg));
    {
        let mut p = scripted();
        db.execute("CREATE TABLE item (id INTEGER PRIMARY KEY)", &mut p)
            .unwrap();
    }
    let sessions = 4;
    let per_session = 10;
    std::thread::scope(|scope| {
        for t in 0..sessions {
            let db = Arc::clone(&db);
            scope.spawn(move || {
                let mut p = scripted();
                for i in 0..per_session {
                    db.execute(
                        &format!("INSERT INTO item VALUES ({})", t * 1000 + i),
                        &mut p,
                    )
                    .unwrap();
                }
            });
        }
    });
    let mut p = scripted();
    let r = db.execute("SELECT id FROM item", &mut p).unwrap();
    assert_eq!(r.rows.len(), sessions * per_session, "no lost inserts");
    let snap = db.metrics();
    assert_eq!(
        snap.counter("crowddb_governor_admitted_total"),
        (sessions * per_session) as u64 + 2,
        "every statement was admitted exactly once"
    );
    assert_eq!(snap.counter("crowddb_governor_rejected_total"), 0);
}

// ---------------------------------------------------------------------
// Panic isolation
// ---------------------------------------------------------------------

#[test]
fn a_panicking_statement_is_contained_and_the_session_survives() {
    let db = CrowdDB::with_config(config());
    let mut p = scripted();
    seed_session(&db, &mut p);
    let r = db.execute_with_policy(
        "SELECT title FROM Talk",
        &mut p,
        &policy(|g| g.panic_at_check = Some(1)),
    );
    match r {
        Err(CrowdError::Internal(msg)) => {
            assert!(msg.contains("panicked (contained)"), "{msg}")
        }
        other => panic!("expected contained panic, got {other:?}"),
    }
    let snap = db.metrics();
    assert_eq!(snap.counter("crowddb_governor_panics_contained_total"), 1);
    assert!(db.events_jsonl().contains("\"event\":\"panic_contained\""));
    // The session keeps working.
    let r = db.execute("SELECT title FROM Talk", &mut p).unwrap();
    assert_eq!(r.rows.len(), 4);
}

/// The chaos headline: one session injecting operator panics cannot
/// brick N concurrent sessions sharing the engine. Every non-chaos
/// statement succeeds, every row lands, and the panic count reconciles
/// exactly with the injected faults.
#[test]
fn one_panicking_session_cannot_brick_the_others() {
    let db = Arc::new(CrowdDB::with_config(config()));
    {
        let mut p = scripted();
        db.execute("CREATE TABLE item (id INTEGER PRIMARY KEY)", &mut p)
            .unwrap();
    }
    let sessions = 4;
    let per_session = 15;
    let panics = 10;
    std::thread::scope(|scope| {
        // The chaos session: every statement panics at its first check.
        {
            let db = Arc::clone(&db);
            scope.spawn(move || {
                let mut p = scripted();
                for _ in 0..panics {
                    let r = db.execute_with_policy(
                        "SELECT id FROM item",
                        &mut p,
                        &policy(|g| g.panic_at_check = Some(1)),
                    );
                    assert!(matches!(r, Err(CrowdError::Internal(_))), "{r:?}");
                }
            });
        }
        // N well-behaved sessions, concurrently.
        for t in 0..sessions {
            let db = Arc::clone(&db);
            scope.spawn(move || {
                let mut p = scripted();
                for i in 0..per_session {
                    let id = t * 1000 + i;
                    db.execute(&format!("INSERT INTO item VALUES ({id})"), &mut p)
                        .unwrap();
                    let r = db
                        .execute(&format!("SELECT id FROM item WHERE id = {id}"), &mut p)
                        .unwrap();
                    assert_eq!(r.rows.len(), 1, "own insert must stay visible");
                }
            });
        }
    });
    let mut p = scripted();
    let r = db.execute("SELECT id FROM item", &mut p).unwrap();
    assert_eq!(r.rows.len(), sessions * per_session, "rows lost to chaos");
    let snap = db.metrics();
    assert_eq!(
        snap.counter("crowddb_governor_panics_contained_total"),
        panics as u64
    );
}

/// Governed stress: N sessions hammer one durable engine through live
/// admission control while a chaos session injects operator panics the
/// whole time. `CROWDDB_STRESS=1` doubles the session count (the CI
/// stress step runs it that way in release mode). The invariants: no
/// deadlock, every well-behaved statement succeeds, every row survives a
/// reopen, and the admission/panic counters reconcile exactly.
#[test]
fn governed_stress_survives_admission_pressure_and_panics() {
    let sessions: usize = if std::env::var_os("CROWDDB_STRESS").is_some() {
        8
    } else {
        4
    };
    let per_session = 20;
    let panics = 12;
    let dir = TestDir::new("gov-stress");
    let mut cfg = config();
    cfg.governor.max_concurrent_statements = Some(3); // live contention
    cfg.durability.checkpoint_every_records = 8;
    {
        let db = Arc::new(CrowdDB::open_with_config(dir.path(), cfg.clone()).unwrap());
        {
            let mut p = scripted();
            db.execute(
                "CREATE TABLE item (id INTEGER PRIMARY KEY, val INTEGER)",
                &mut p,
            )
            .unwrap();
        }
        std::thread::scope(|scope| {
            {
                let db = Arc::clone(&db);
                scope.spawn(move || {
                    let mut p = scripted();
                    for _ in 0..panics {
                        let r = db.execute_with_policy(
                            "SELECT id FROM item",
                            &mut p,
                            &policy(|g| g.panic_at_check = Some(1)),
                        );
                        assert!(matches!(r, Err(CrowdError::Internal(_))), "{r:?}");
                    }
                });
            }
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
                    }
                });
            }
        });
        let mut p = scripted();
        let r = db.execute("SELECT id FROM item", &mut p).unwrap();
        assert_eq!(r.rows.len(), sessions * per_session, "no lost inserts");
        let snap = db.metrics();
        assert_eq!(
            snap.counter("crowddb_governor_panics_contained_total"),
            panics as u64
        );
        assert_eq!(
            snap.counter("crowddb_governor_rejected_total"),
            0,
            "blocking admission never rejects"
        );
        Arc::try_unwrap(db)
            .unwrap_or_else(|_| panic!("all sessions joined"))
            .close()
            .unwrap();
    }
    // Crash-consistency under chaos: a reopen recovers every row.
    let db = CrowdDB::open_with_config(dir.path(), cfg).unwrap();
    let mut p = scripted();
    let r = db.execute("SELECT id FROM item", &mut p).unwrap();
    assert_eq!(r.rows.len(), sessions * per_session, "rows lost on reopen");
}

// ---------------------------------------------------------------------
// Determinism of governed termination
// ---------------------------------------------------------------------

/// Deadline, row-cap, and budget termination must be byte-identical at
/// any worker count: same outcomes (including the error variants), same
/// metrics registry, same event log.
#[test]
fn governed_termination_is_identical_at_any_worker_count() {
    let run = |workers: usize| {
        let mut cfg = config();
        cfg.vote = VoteConfig::replicated(3);
        cfg.concurrency.fulfill_workers = workers;
        let db = CrowdDB::with_config(cfg);
        let mut p = scripted();
        seed_session(&db, &mut p);
        let outcomes: Vec<String> = [
            (
                "SELECT title, abstract FROM Talk ORDER BY title",
                policy(|g| g.deadline_virtual_secs = Some(600.0)),
            ),
            (
                "SELECT title FROM Talk",
                policy(|g| g.max_output_rows = Some(2)),
            ),
            (
                "SELECT title, abstract FROM Talk ORDER BY title",
                policy(|g| g.max_crowd_cents = Some(2)),
            ),
            (
                "SELECT title, abstract FROM Talk ORDER BY title",
                GovernorPolicy::default(),
            ),
        ]
        .iter()
        .map(|(sql, pol)| format!("{:?}", db.execute_with_policy(sql, &mut p, pol)))
        .collect();
        (outcomes, db.metrics().to_prometheus(), db.events_jsonl())
    };
    let (golden_outcomes, golden_metrics, golden_events) = run(1);
    assert!(
        golden_outcomes[0].contains("DeadlineExceeded"),
        "{golden_outcomes:?}"
    );
    assert!(
        golden_outcomes[1].contains("OutputRowLimit"),
        "{golden_outcomes:?}"
    );
    for workers in [2_usize, 4, 8] {
        let (outcomes, metrics, events) = run(workers);
        assert_eq!(
            golden_outcomes, outcomes,
            "workers {workers}: governed outcomes diverged"
        );
        assert_eq!(
            golden_metrics, metrics,
            "workers {workers}: metrics diverged"
        );
        assert_eq!(golden_events, events, "workers {workers}: events diverged");
    }
}
