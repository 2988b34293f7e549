//! Session persistence: crowd answers are expensive — never pay twice.
//!
//! ```text
//! cargo run --example persistence
//! ```
//!
//! Part 1 snapshots a session to a file by hand and restores it. Part 2
//! uses the durability subsystem instead: `CrowdDB::open` roots the
//! session in a directory, every committed statement and crowd answer is
//! written ahead to a log, and reopening the directory — even after a
//! crash — recovers the exact state, so the same query (and even a
//! cached `CROWDEQUAL` verdict) replays for free.

#![forbid(unsafe_code)]

use crowddb::{Answer, CrowdConfig, CrowdDB, SimPlatform, TaskKind, VoteConfig};
use crowddb_platform::ClosureModel;

fn world() -> ClosureModel<impl Fn(&TaskKind) -> Answer + Send> {
    ClosureModel::new(|task: &TaskKind| match task {
        TaskKind::Probe { asked, .. } => Answer::Form(
            asked
                .iter()
                .map(|(c, _)| (c.clone(), "A hybrid human/machine database system".into()))
                .collect(),
        ),
        TaskKind::Equal { left, right, .. } => {
            let norm = |s: &str| s.to_lowercase().replace('.', "");
            if norm(left) == norm(right) {
                Answer::Yes
            } else {
                Answer::No
            }
        }
        _ => Answer::Blank,
    })
}

fn main() -> crowddb::Result<()> {
    let db = CrowdDB::with_config(CrowdConfig {
        vote: VoteConfig::replicated(3),
        ..CrowdConfig::default()
    });
    let mut amt = SimPlatform::amt(17, Box::new(world()));

    db.execute(
        "CREATE TABLE paper (title STRING PRIMARY KEY, abstract CROWD STRING)",
        &mut amt,
    )?;
    db.execute("INSERT INTO paper (title) VALUES ('CrowdDB')", &mut amt)?;

    println!("-- first run: the crowd answers");
    let r = db.execute(
        "SELECT abstract FROM paper WHERE title = 'CrowdDB'",
        &mut amt,
    )?;
    println!("{}", r.to_table());
    println!(
        "cost: {}¢, {} task(s)\n",
        r.crowd.cents_spent, r.crowd.tasks_posted
    );

    // A CROWDEQUAL verdict also lands in the session caches.
    let r = db.execute(
        "SELECT title FROM paper WHERE title ~= 'Crowd.DB'",
        &mut amt,
    )?;
    println!(
        "-- entity verdict obtained ({} rows matched)\n",
        r.rows.len()
    );

    // Persist everything to disk.
    let path = std::env::temp_dir().join("crowddb-session.bin");
    std::fs::write(&path, db.snapshot().expect("snapshot")).expect("write snapshot");
    println!(
        "session saved to {} ({} bytes)\n",
        path.display(),
        std::fs::metadata(&path).unwrap().len()
    );

    // Restore into a brand-new instance; attach a platform that would
    // FAIL if anything were posted — nothing should be.
    let restored = CrowdDB::restore(
        &std::fs::read(&path).expect("read snapshot"),
        CrowdConfig::default(),
    )?;
    let mut dead_crowd = crowddb::MockPlatform::unanimous(|_| Answer::Blank);
    println!("-- after restore: both queries replay from memory");
    let r = restored.execute(
        "SELECT abstract FROM paper WHERE title = 'CrowdDB'",
        &mut dead_crowd,
    )?;
    println!("{}", r.to_table());
    let r2 = restored.execute(
        "SELECT title FROM paper WHERE title ~= 'Crowd.DB'",
        &mut dead_crowd,
    )?;
    println!("{}", r2.to_table());
    println!(
        "crowd tasks after restore: {} (answers and verdicts were memorized)",
        r.crowd.tasks_posted + r2.crowd.tasks_posted
    );
    std::fs::remove_file(&path).ok();

    // -- Part 2: the same guarantee without manual snapshot plumbing. --
    // CrowdDB::open gives a write-ahead-logged session: answers are
    // durable the moment their crowd round completes, so even `drop`
    // without a clean close (a crash) loses nothing that was paid for.
    let dir = std::env::temp_dir().join("crowddb-persistence-example");
    std::fs::remove_dir_all(&dir).ok();
    {
        let durable = CrowdDB::open(&dir)?;
        let mut amt = SimPlatform::amt(17, Box::new(world()));
        durable.execute(
            "CREATE TABLE paper (title STRING PRIMARY KEY, abstract CROWD STRING)",
            &mut amt,
        )?;
        durable.execute("INSERT INTO paper (title) VALUES ('CrowdDB')", &mut amt)?;
        let r = durable.execute(
            "SELECT abstract FROM paper WHERE title = 'CrowdDB'",
            &mut amt,
        )?;
        println!("\n-- durable session: crowd paid {}¢", r.crowd.cents_spent);
        // Simulate a crash: drop without close() — the log has it all.
    }
    let reopened = CrowdDB::open(&dir)?;
    let mut dead_crowd = crowddb::MockPlatform::unanimous(|_| Answer::Blank);
    let r = reopened.execute(
        "SELECT abstract FROM paper WHERE title = 'CrowdDB'",
        &mut dead_crowd,
    )?;
    println!("-- reopened after simulated crash:");
    println!("{}", r.to_table());
    println!(
        "crowd tasks after recovery: {} (the log replayed every answer)",
        r.crowd.tasks_posted
    );
    reopened.close()?; // final checkpoint: next open restores from snapshot
    std::fs::remove_dir_all(&dir).ok();
    Ok(())
}
