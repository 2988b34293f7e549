//! E5 — CrowdJoin throughput and cost (SIGMOD 2011: picture–subject
//! join).
//!
//! The paper joined a photo table against a crowdsourced (photo, subject)
//! relation: each outer photo without matching inner tuples becomes a
//! HIT asking workers to contribute them. It reported join progress per
//! hour and per dollar as the outer batch grows (bigger batches benefit
//! from HIT-group attention). This harness runs the join end-to-end
//! through CrowdDB on the simulated marketplace and scores recall
//! against ground truth.

#![forbid(unsafe_code)]

use crowddb_bench::harness::ExperimentOutput;
use crowddb_bench::workloads;
use crowddb_bench::world::PhotoWorld;
use crowddb_core::{CrowdConfig, CrowdDB};
use crowddb_platform::SimPlatform;
use crowddb_quality::VoteConfig;

fn main() {
    let mut out = ExperimentOutput::new(
        "E5",
        "CrowdJoin: tuples found, recall, cost, and virtual time vs outer batch size",
    );
    out.headers = vec![
        "photos".into(),
        "true pairs".into(),
        "found pairs".into(),
        "recall".into(),
        "tasks".into(),
        "cost (cents)".into(),
        "virtual hours".into(),
        "pairs per $".into(),
    ];

    for batch in [20usize, 50, 100] {
        let corpus = workloads::photos(batch, 31);
        let truth_pairs: usize = corpus.iter().map(|p| p.subjects.len()).sum();
        let db = CrowdDB::with_config(CrowdConfig {
            vote: VoteConfig::replicated(2),
            reward_cents: 2,
            ..CrowdConfig::default()
        });
        db.execute_local("CREATE TABLE photo (id STRING PRIMARY KEY)")
            .expect("ddl");
        db.execute_local(
            "CREATE CROWD TABLE photosubject (photo STRING, subject STRING, \
             PRIMARY KEY (photo, subject))",
        )
        .expect("ddl");
        for p in &corpus {
            db.execute_local(&format!("INSERT INTO photo VALUES ('{}')", p.id))
                .expect("insert");
        }
        let mut amt = SimPlatform::amt(606, Box::new(PhotoWorld::new(&corpus)));
        let r = db
            .execute(
                "SELECT p.id, s.subject FROM photo p JOIN photosubject s ON p.id = s.photo",
                &mut amt,
            )
            .expect("join query");

        // Score recall: every found pair must be true; count coverage.
        let mut found_true = 0usize;
        for row in &r.rows {
            let photo = row[0].to_string();
            let subject = row[1].to_string();
            if corpus
                .iter()
                .any(|p| p.id == photo && p.subjects.contains(&subject))
            {
                found_true += 1;
            }
        }
        let dollars = r.crowd.cents_spent as f64 / 100.0;
        out.rows.push(vec![
            batch.to_string(),
            truth_pairs.to_string(),
            r.rows.len().to_string(),
            format!(
                "{:.1}%",
                100.0 * found_true as f64 / truth_pairs.max(1) as f64
            ),
            r.crowd.tasks_posted.to_string(),
            r.crowd.cents_spent.to_string(),
            format!("{:.1}", r.crowd.virtual_secs / 3600.0),
            if dollars > 0.0 {
                format!("{:.0}", found_true as f64 / dollars)
            } else {
                "-".into()
            },
        ]);
    }
    out.notes.push(
        "expected shape: recall near 100% (workers know the subjects); cost grows \
         linearly with the outer batch; pairs-per-dollar roughly flat (each outer \
         tuple needs one task batch) — matching the paper's linear join scaling"
            .into(),
    );
    out.print();
}
