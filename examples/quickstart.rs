//! Quickstart: the paper's two motivating queries, end to end.
//!
//! ```text
//! cargo run --example quickstart
//! ```
//!
//! Creates the `Talk` table from the paper's Example 1 (CROWD columns),
//! runs the "missing abstract" query against the simulated Mechanical
//! Turk marketplace, and shows that answers are memorized: the second
//! run costs nothing.

#![forbid(unsafe_code)]

use std::collections::HashMap;

use crowddb::{Answer, CrowdDB, SimPlatform, TaskKind};
use crowddb_platform::ClosureModel;

fn main() -> crowddb::Result<()> {
    let db = CrowdDB::new();

    // What the (simulated) crowd knows about the world.
    let abstracts: HashMap<&'static str, &'static str> = HashMap::from([
        (
            "CrowdDB",
            "A hybrid database system that uses crowdsourcing to answer \
                     queries a normal DBMS cannot.",
        ),
        ("Qurk", "A query processor for human operators."),
    ]);
    let attendance: HashMap<&'static str, i64> = HashMap::from([("CrowdDB", 220), ("Qurk", 140)]);
    let world = ClosureModel::new(move |task: &TaskKind| match task {
        TaskKind::Probe { known, asked, .. } => {
            let title = known
                .iter()
                .find(|(k, _)| k == "title")
                .map(|(_, v)| v.as_str())
                .unwrap_or("");
            Answer::Form(
                asked
                    .iter()
                    .map(|(col, _)| {
                        let text = match col.as_str() {
                            "abstract" => abstracts.get(title).copied().unwrap_or("").to_string(),
                            "nb_attendees" => attendance
                                .get(title)
                                .map(|n| n.to_string())
                                .unwrap_or_default(),
                            _ => String::new(),
                        };
                        (col.clone(), text)
                    })
                    .collect(),
            )
        }
        _ => Answer::Blank,
    });
    let mut amt = SimPlatform::amt(7, Box::new(world));

    // Paper §2.1, Example 1.
    db.execute(
        "CREATE TABLE Talk (
            title STRING PRIMARY KEY,
            abstract CROWD STRING,
            nb_attendees CROWD INTEGER )",
        &mut amt,
    )?;
    db.execute(
        "INSERT INTO Talk (title) VALUES ('CrowdDB'), ('Qurk')",
        &mut amt,
    )?;

    // The paper's motivating query: "will return an empty answer if the
    // paper table at that time does not contain a record" — unless the
    // crowd fills it in.
    println!("-- SELECT abstract FROM Talk WHERE title = 'CrowdDB'");
    let r = db.execute(
        "SELECT abstract FROM Talk WHERE title = 'CrowdDB'",
        &mut amt,
    )?;
    println!("{}", r.to_table());
    println!(
        "crowd: {} task(s), {} answer(s), {}¢, {:.1} virtual minutes, {} round(s)\n",
        r.crowd.tasks_posted,
        r.crowd.answers_collected,
        r.crowd.cents_spent,
        r.crowd.virtual_secs / 60.0,
        r.crowd.rounds
    );

    // Answers are memorized in storage: re-running is free.
    println!("-- same query again (served from the database)");
    let r2 = db.execute(
        "SELECT abstract FROM Talk WHERE title = 'CrowdDB'",
        &mut amt,
    )?;
    println!("{}", r2.to_table());
    println!("crowd: {} task(s) — cached!\n", r2.crowd.tasks_posted);

    // EXPLAIN shows the crowd-annotated plan and the boundedness verdict.
    println!("-- EXPLAIN SELECT nb_attendees FROM Talk WHERE title = 'Qurk'");
    println!(
        "{}",
        db.explain("SELECT nb_attendees FROM Talk WHERE title = 'Qurk'")?
    );
    Ok(())
}
