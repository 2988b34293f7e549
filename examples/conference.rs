//! The VLDB demo scenario (paper §4): conference tables, a CROWD table
//! of notable attendees, CROWDORDER talk ranking, and the generated task
//! user interfaces for both platforms (paper Figures 2 and 3).
//!
//! ```text
//! cargo run --example conference
//! ```

#![forbid(unsafe_code)]

use std::collections::HashMap;

use crowddb::{Answer, CrowdConfig, CrowdDB, SimPlatform, TaskKind, VoteConfig};
use crowddb_platform::ClosureModel;
use crowddb_ui::{render_mobile_task, render_task};

fn conference_world() -> ClosureModel<impl Fn(&TaskKind) -> Answer + Send> {
    let talks = crowddb_bench::workloads::conference_talks();
    let attendance: HashMap<String, i64> =
        talks.iter().map(|(t, _, n)| (t.to_string(), *n)).collect();
    let abstracts: HashMap<String, String> = talks
        .iter()
        .map(|(t, a, _)| (t.to_string(), a.to_string()))
        .collect();
    let notable: HashMap<&'static str, Vec<&'static str>> = HashMap::from([
        (
            "CrowdDB",
            vec!["Mike Franklin", "Donald Kossmann", "Tim Kraska"],
        ),
        ("Qurk", vec!["Sam Madden", "Adam Marcus"]),
        ("Spanner", vec!["Jeff Dean"]),
    ]);
    ClosureModel::new(move |task: &TaskKind| match task {
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
                            "abstract" => abstracts.get(title).cloned().unwrap_or_default(),
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
        TaskKind::NewTuples { preset, .. } => {
            let title = preset
                .iter()
                .find(|(k, _)| k == "title")
                .map(|(_, v)| v.as_str())
                .unwrap_or("");
            match notable.get(title) {
                Some(names) if !names.is_empty() => Answer::Tuples(
                    names
                        .iter()
                        .map(|n| {
                            vec![
                                ("name".to_string(), n.to_string()),
                                ("title".to_string(), title.to_string()),
                            ]
                        })
                        .collect(),
                ),
                _ => Answer::Blank,
            }
        }
        TaskKind::Order { left, right, .. } => {
            // The VLDB crowd's latent opinion tracks attendance.
            let score = |t: &str| attendance.get(t).copied().unwrap_or(0);
            if score(left) >= score(right) {
                Answer::Left
            } else {
                Answer::Right
            }
        }
        TaskKind::Equal { left, right, .. } => {
            if left.eq_ignore_ascii_case(right) {
                Answer::Yes
            } else {
                Answer::No
            }
        }
        // The demo never enables batched HITs or rank groups.
        _ => Answer::Blank,
    })
}

fn main() -> crowddb::Result<()> {
    let db = CrowdDB::with_config(CrowdConfig {
        vote: VoteConfig::replicated(3),
        reward_cents: 2,
        ..CrowdConfig::default()
    });
    let mut amt = SimPlatform::amt(2011, Box::new(conference_world()));

    // Paper §2.1: Examples 1 and 2, verbatim CrowdSQL.
    db.execute(
        "CREATE TABLE Talk (
            title STRING PRIMARY KEY,
            abstract CROWD STRING,
            nb_attendees CROWD INTEGER )",
        &mut amt,
    )?;
    db.execute(
        "CREATE CROWD TABLE NotableAttendee (
            name STRING PRIMARY KEY,
            title STRING,
            FOREIGN KEY (title) REF Talk(title) )",
        &mut amt,
    )?;
    for (title, _, _) in crowddb_bench::workloads::conference_talks() {
        db.execute(
            &format!("INSERT INTO Talk (title) VALUES ('{title}')"),
            &mut amt,
        )?;
    }

    // The Form Editor (paper §3.1): developers customize instructions.
    db.with_templates(|t| {
        t.edit("talk", crowddb_ui::template::TemplateKind::Probe, |tpl| {
            tpl.instructions =
                "Please enter the missing information for this VLDB talk. The program \
                 booklet and the conference website are good sources."
                    .into();
        })
    })?;

    // Figure 2 / Figure 3: the generated task pages for the paper's
    // example query, on both platforms.
    let probe = TaskKind::Probe {
        table: "talk".into(),
        known: vec![("title".into(), "CrowdDB".into())],
        asked: vec![("abstract".into(), crowddb::DataType::Str)],
        instructions: "Enter the missing information for the Talk.".into(),
    };
    println!("-- Figure 2: Mechanical Turk task (generated HTML, truncated)");
    println!(
        "{}\n",
        &render_task(&probe)[..400.min(render_task(&probe).len())]
    );
    println!("-- Figure 3: mobile task (generated HTML, truncated)");
    println!(
        "{}\n",
        &render_mobile_task(&probe)[..400.min(render_mobile_task(&probe).len())]
    );

    // Paper Example 3: the ten most favorable presentations.
    println!("-- SELECT title FROM Talk ORDER BY CROWDORDER(...) LIMIT 10");
    let r = db.execute(
        "SELECT title FROM Talk \
         ORDER BY CROWDORDER(title, 'Which talk did you like better') LIMIT 10",
        &mut amt,
    )?;
    println!("{}", r.to_table());
    println!(
        "crowd: {} comparison task(s), {}¢, {} round(s)\n",
        r.crowd.tasks_posted, r.crowd.cents_spent, r.crowd.rounds
    );

    // The crowd join: who are the notable attendees per talk?
    println!("-- SELECT t.title, n.name FROM Talk t JOIN NotableAttendee n ...");
    let r = db.execute(
        "SELECT t.title, n.name FROM Talk t JOIN NotableAttendee n ON t.title = n.title \
         ORDER BY t.title, n.name",
        &mut amt,
    )?;
    println!("{}", r.to_table());
    for w in &r.warnings {
        println!("note: {w}");
    }

    // Trending topics (paper: "we can query this table, for example, to
    // sense new trending topics"). Note the bounded formulation: the
    // aggregate is driven from the finite Talk table — a bare GROUP BY
    // over the CROWD table would be rejected as unbounded.
    println!("\n-- notable-attendee counts per talk (bounded via the Talk outer)");
    let r = db.execute(
        "SELECT t.title, COUNT(n.name) AS notable FROM Talk t \
         LEFT JOIN NotableAttendee n ON t.title = n.title \
         GROUP BY t.title ORDER BY 2 DESC, t.title",
        &mut amt,
    )?;
    println!("{}", r.to_table());

    // The Worker Relationship Manager's view of the community.
    db.with_wrm(|wrm| {
        println!(
            "\nWRM: {} workers, {}¢ paid, top-3 share {:.0}%",
            wrm.community_size(),
            wrm.total_paid_cents(),
            wrm.top_k_share(3) * 100.0
        );
    });
    Ok(())
}
