//! Shared by the integration suites: the scripted crowd they all query.
// Each suite is its own crate and uses its own part of this module.
#![allow(dead_code)]

use std::collections::HashMap;

use crowddb_platform::{Answer, MockPlatform, TaskKind};

/// Whom the world names when asked for a talk's notable attendees — the
/// one arm some suite's assertions depend on.
#[derive(Clone, Copy)]
pub enum Attendees {
    /// The same two, whichever talk is asked about.
    Fixed,
    /// Those of the talk the task presets; a blank answer if it has none.
    ByTalk,
}

/// Deterministic scripted crowd: [`world_answers`] with
/// [`Attendees::Fixed`], every worker unanimous.
pub fn world_script() -> MockPlatform {
    MockPlatform::unanimous(world_answers(Attendees::Fixed))
}

/// How many professors the world knows: `prof-00` … `prof-23`.
pub const PROFS: usize = 24;

/// The world's professor roster, name → (department, email): a
/// closed-vocabulary and an open-text column, the shape of the paper's
/// E4 probe experiment. Public so a suite can score answers against it.
pub fn professors() -> HashMap<String, (String, String)> {
    let depts = ["cs", "ee", "math", "bio", "physics", "history"];
    (0..PROFS)
        .map(|i| {
            let name = format!("prof-{i:02}");
            let dept = depts[i % depts.len()].to_string();
            let email = format!("prof{i:02}@univ{}.edu", i % 4);
            (name, (dept, email))
        })
        .collect()
}

/// The answers of one ground-truth world, a pure function of the task:
/// talk abstracts and attendance, the professor roster, notable
/// attendees, punctuation- and case-insensitive entity equality, order
/// by attendance. A batched compare gets the verdicts its pairs would
/// get alone, so batching changes accounting, not answers.
pub fn world_answers(attendees: Attendees) -> impl Fn(&TaskKind) -> Answer + Send {
    let professors = professors();
    let abstracts: HashMap<&'static str, &'static str> = HashMap::from([
        ("CrowdDB", "Query processing with crowdsourced data"),
        ("Qurk", "A query processor for human operators"),
        ("PIQL", "Performance insightful query language"),
        ("HyPer", "Hybrid OLTP and OLAP main memory database"),
    ]);
    let attendance: HashMap<&'static str, i64> = HashMap::from([
        ("CrowdDB", 220),
        ("Qurk", 140),
        ("PIQL", 90),
        ("HyPer", 180),
    ]);
    let notable: HashMap<&'static str, Vec<&'static str>> = HashMap::from([
        ("CrowdDB", vec!["Mike Franklin", "Donald Kossmann"]),
        ("Qurk", vec!["Sam Madden"]),
    ]);
    let tuple = |name: &str, title: &str| {
        vec![
            ("name".to_string(), name.to_string()),
            ("title".to_string(), title.to_string()),
        ]
    };
    let equal = |left: &str, right: &str| {
        let norm = |s: &str| s.replace('.', "").to_lowercase();
        if norm(left) == norm(right) {
            Answer::Yes
        } else {
            Answer::No
        }
    };
    move |task: &TaskKind| {
        let order = |left: &str, right: &str| {
            let score = |t: &str| attendance.get(t).copied().unwrap_or(0);
            if score(left) >= score(right) {
                Answer::Left
            } else {
                Answer::Right
            }
        };
        match task {
            TaskKind::Probe { known, asked, .. } => {
                let known = |key: &str| {
                    let field = known.iter().find(|(k, _)| k == key);
                    field.map(|(_, v)| v.as_str()).unwrap_or("")
                };
                let title = known("title");
                let professor = professors.get(known("name"));
                Answer::Form(
                    asked
                        .iter()
                        .map(|(col, _)| {
                            let text = match (col.as_str(), professor) {
                                ("department", Some((dept, _))) => dept.clone(),
                                ("email", Some((_, email))) => email.clone(),
                                ("abstract", _) => abstracts
                                    .get(title)
                                    .copied()
                                    .unwrap_or("unknown")
                                    .to_string(),
                                ("nb_attendees", _) => attendance
                                    .get(title)
                                    .map(|n| n.to_string())
                                    .unwrap_or_else(|| "0".to_string()),
                                _ => "unknown".to_string(),
                            };
                            (col.clone(), text)
                        })
                        .collect(),
                )
            }
            TaskKind::NewTuples { preset, .. } => match attendees {
                Attendees::Fixed => Answer::Tuples(vec![
                    tuple("Mike Franklin", "CrowdDB"),
                    tuple("Sam Madden", "Qurk"),
                ]),
                Attendees::ByTalk => {
                    let title = preset
                        .iter()
                        .find(|(k, _)| k == "title")
                        .map(|(_, v)| v.as_str())
                        .unwrap_or("");
                    match notable.get(title) {
                        Some(names) => {
                            Answer::Tuples(names.iter().map(|n| tuple(n, title)).collect())
                        }
                        None => Answer::Blank,
                    }
                }
            },
            TaskKind::Equal { left, right, .. } => equal(left, right),
            TaskKind::Order { left, right, .. } => order(left, right),
            TaskKind::EqualBatch { pairs, .. } => {
                Answer::Batch(pairs.iter().map(|(l, r)| equal(l, r)).collect())
            }
            TaskKind::OrderBatch { pairs, .. } => {
                Answer::Batch(pairs.iter().map(|(l, r)| order(l, r)).collect())
            }
            // Nothing posts one (ROADMAP item 4).
            TaskKind::RankGroup { .. } => Answer::Blank,
        }
    }
}
