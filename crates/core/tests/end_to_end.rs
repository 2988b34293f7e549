//! End-to-end tests driving [`CrowdDB`] against the *simulated AMT
//! marketplace* — stochastic workers, error rates, majority voting,
//! escalation — i.e. the full demo pipeline from the paper with the live
//! crowd replaced by the calibrated simulator.

use crowddb_common::Value;
use crowddb_core::{CrowdConfig, CrowdDB};
use crowddb_platform::{Answer, ClosureModel, MockPlatform, SimPlatform, TaskKind};
use crowddb_quality::VoteConfig;

mod common;
use common::{world_answers, Attendees};

/// The small "real world" the simulated crowd knows about: the suites'
/// shared one, with each talk's own notable attendees (the CrowdJoin test
/// counts them).
fn conference_world() -> ClosureModel<impl Fn(&TaskKind) -> Answer + Send> {
    ClosureModel::new(world_answers(Attendees::ByTalk))
}

fn setup(db: &CrowdDB) {
    let mut p = MockPlatform::unanimous(|_| Answer::Blank);
    db.execute(
        "CREATE TABLE Talk (title STRING PRIMARY KEY, abstract CROWD STRING, \
         nb_attendees CROWD INTEGER)",
        &mut p,
    )
    .unwrap();
    db.execute(
        "CREATE CROWD TABLE NotableAttendee (name STRING PRIMARY KEY, title STRING, \
         FOREIGN KEY (title) REF Talk(title))",
        &mut p,
    )
    .unwrap();
    for t in ["CrowdDB", "Qurk", "PIQL"] {
        db.execute(&format!("INSERT INTO Talk (title) VALUES ('{t}')"), &mut p)
            .unwrap();
    }
}

#[test]
fn probe_on_simulated_marketplace_with_majority_vote() {
    let db = CrowdDB::with_config(CrowdConfig {
        vote: VoteConfig::replicated(3),
        reward_cents: 3,
        ..CrowdConfig::default()
    });
    setup(&db);
    let mut amt = SimPlatform::amt(42, Box::new(conference_world()));
    let r = db
        .execute(
            "SELECT title, nb_attendees FROM Talk WHERE nb_attendees > 100 ORDER BY title",
            &mut amt,
        )
        .unwrap();
    assert!(r.complete, "warnings: {:?}", r.warnings);
    // The true attendance: CrowdDB 220, Qurk 140, PIQL 90. Majority vote
    // over simulated workers (mean ~12% error) recovers the big two.
    let titles: Vec<String> = r.rows.iter().map(|row| row[0].to_string()).collect();
    assert_eq!(titles, vec!["CrowdDB", "Qurk"], "rows: {:?}", r.rows);
    assert!(r.crowd.tasks_posted >= 3);
    assert!(r.crowd.cents_spent > 0);
    assert!(r.crowd.virtual_secs > 0.0);
}

#[test]
fn crowd_join_on_simulated_marketplace() {
    let db = CrowdDB::with_config(CrowdConfig {
        vote: VoteConfig::replicated(3),
        reward_cents: 3,
        ..CrowdConfig::default()
    });
    setup(&db);
    let mut amt = SimPlatform::amt(7, Box::new(conference_world()));
    let r = db
        .execute(
            "SELECT t.title, n.name FROM Talk t JOIN NotableAttendee n ON t.title = n.title \
             ORDER BY n.name",
            &mut amt,
        )
        .unwrap();
    // Three notable attendees exist in the world (PIQL has none; that
    // need is marked exhausted and the result completes).
    let names: Vec<String> = r.rows.iter().map(|row| row[1].to_string()).collect();
    assert!(
        names.contains(&"Mike Franklin".to_string()) && names.contains(&"Sam Madden".to_string()),
        "rows: {:?}, warnings: {:?}",
        r.rows,
        r.warnings
    );
}

#[test]
fn crowdorder_ranking_on_simulated_marketplace() {
    let db = CrowdDB::with_config(CrowdConfig {
        vote: VoteConfig::replicated(3),
        reward_cents: 4,
        ..CrowdConfig::default()
    });
    setup(&db);
    let mut amt = SimPlatform::amt(11, Box::new(conference_world()));
    let r = db
        .execute(
            "SELECT title FROM Talk \
             ORDER BY CROWDORDER(title, 'Which talk did you like better') LIMIT 2",
            &mut amt,
        )
        .unwrap();
    assert!(r.complete, "warnings: {:?}", r.warnings);
    // Latent preference is attendance order: CrowdDB > Qurk > PIQL.
    let titles: Vec<String> = r.rows.iter().map(|row| row[0].to_string()).collect();
    assert_eq!(titles, vec!["CrowdDB", "Qurk"], "{:?}", r.rows);
}

#[test]
fn crowdequal_entity_resolution_end_to_end() {
    let db = CrowdDB::with_config(CrowdConfig {
        vote: VoteConfig::replicated(3),
        ..CrowdConfig::default()
    });
    let mut p = MockPlatform::unanimous(|_| Answer::Blank);
    db.execute(
        "CREATE TABLE company (name STRING PRIMARY KEY, hq CROWD STRING)",
        &mut p,
    )
    .unwrap();
    for c in ["I.B.M.", "Microsoft", "Apple"] {
        db.execute(
            &format!("INSERT INTO company (name) VALUES ('{c}')"),
            &mut p,
        )
        .unwrap();
    }
    let mut amt = SimPlatform::amt(5, Box::new(conference_world()));
    let r = db
        .execute("SELECT name FROM company WHERE name ~= 'IBM'", &mut amt)
        .unwrap();
    assert!(r.complete, "warnings: {:?}", r.warnings);
    assert_eq!(r.rows.len(), 1);
    assert_eq!(r.rows[0][0], Value::str("I.B.M."));
}

#[test]
fn wrm_accumulates_community_statistics() {
    let db = CrowdDB::with_config(CrowdConfig {
        vote: VoteConfig::replicated(3),
        ..CrowdConfig::default()
    });
    setup(&db);
    let mut amt = SimPlatform::amt(21, Box::new(conference_world()));
    db.execute("SELECT nb_attendees FROM Talk", &mut amt)
        .unwrap();
    db.with_wrm(|wrm| {
        assert!(wrm.community_size() > 0);
        assert!(wrm.total_paid_cents() > 0);
        let share = wrm.top_k_share(3);
        assert!(share > 0.0 && share <= 1.0);
    });
}

#[test]
fn answers_persist_across_statements() {
    let db = CrowdDB::with_config(CrowdConfig::default());
    setup(&db);
    let mut amt = SimPlatform::amt(9, Box::new(conference_world()));
    let r1 = db
        .execute("SELECT abstract FROM Talk WHERE title = 'Qurk'", &mut amt)
        .unwrap();
    assert!(r1.complete);
    assert!(r1.crowd.tasks_posted > 0);
    // Same data requested again: served from storage, zero crowd work.
    let r2 = db
        .execute("SELECT abstract FROM Talk WHERE title = 'Qurk'", &mut amt)
        .unwrap();
    assert!(r2.complete);
    assert_eq!(r2.crowd.tasks_posted, 0);
    assert_eq!(r1.rows, r2.rows);
}
