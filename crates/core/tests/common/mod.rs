//! Shared by the integration suites: the scripted crowd they all query.

use std::collections::HashMap;

use crowddb_platform::{Answer, MockPlatform, TaskKind};

/// Deterministic scripted crowd answering from one ground-truth world:
/// talk abstracts and attendance, two notable attendees, punctuation- and
/// case-insensitive entity equality, order by attendance.
pub fn world_script() -> MockPlatform {
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
    MockPlatform::unanimous(move |task: &TaskKind| match task {
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
                            "abstract" => abstracts
                                .get(title)
                                .copied()
                                .unwrap_or("unknown")
                                .to_string(),
                            "nb_attendees" => attendance
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
        TaskKind::NewTuples { .. } => Answer::Tuples(vec![
            vec![
                ("name".to_string(), "Mike Franklin".to_string()),
                ("title".to_string(), "CrowdDB".to_string()),
            ],
            vec![
                ("name".to_string(), "Sam Madden".to_string()),
                ("title".to_string(), "Qurk".to_string()),
            ],
        ]),
        TaskKind::Equal { left, right, .. } => {
            let norm = |s: &str| s.replace('.', "").to_lowercase();
            if norm(left) == norm(right) {
                Answer::Yes
            } else {
                Answer::No
            }
        }
        TaskKind::Order { left, right, .. } => {
            let score = |t: &str| attendance.get(t).copied().unwrap_or(0);
            if score(left) >= score(right) {
                Answer::Left
            } else {
                Answer::Right
            }
        }
        // These scripts never post batched HITs (batching off).
        TaskKind::EqualBatch { .. } | TaskKind::OrderBatch { .. } | TaskKind::RankGroup { .. } => {
            Answer::Blank
        }
    })
}
