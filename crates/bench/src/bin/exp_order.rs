//! E7 — CROWDORDER ranking quality (SIGMOD 2011: picture-ordering
//! experiment).
//!
//! The paper had the crowd rank pictures by subjective criteria and
//! measured how well the aggregated order matched consensus. Here the
//! ground truth is a latent score per item; simulated judges follow a
//! Bradley-Terry choice model whose noise we sweep. The harness runs
//! `ORDER BY CROWDORDER(...)` end-to-end and scores the produced ranking
//! with Kendall tau and adjacent-pair accuracy, reporting the comparison
//! budget actually spent (the paper's quicksort needs ~n·log n of the
//! n(n−1)/2 possible pairs).

#![forbid(unsafe_code)]

use crowddb_bench::harness::ExperimentOutput;
use crowddb_bench::workloads;
use crowddb_bench::world::RankingWorld;
use crowddb_core::{CrowdConfig, CrowdDB};
use crowddb_platform::SimPlatform;
use crowddb_quality::rank;
use crowddb_quality::VoteConfig;

fn main() {
    let mut out = ExperimentOutput::new(
        "E7",
        "CROWDORDER ranking quality vs judge noise and replication",
    );
    out.headers = vec![
        "judge noise".into(),
        "assignments".into(),
        "kendall tau".into(),
        "adjacent acc".into(),
        "comparisons".into(),
        "of possible".into(),
        "rounds".into(),
    ];

    const N: usize = 18;
    let corpus = workloads::ranked_items(N, 7);
    let truth = workloads::true_ranking(&corpus);
    let possible = N * (N - 1) / 2;

    for (noise, replication) in [
        (0.0, 1usize),
        (0.15, 1),
        (0.15, 3),
        (0.15, 5),
        (0.35, 3),
        (0.35, 5),
    ] {
        let db = CrowdDB::with_config(CrowdConfig {
            vote: VoteConfig::replicated(replication),
            reward_cents: 2,
            max_rounds: 32,
            ..CrowdConfig::default()
        });
        db.execute_local("CREATE TABLE picture (label STRING PRIMARY KEY)")
            .expect("ddl");
        for item in &corpus {
            db.execute_local(&format!("INSERT INTO picture VALUES ('{}')", item.label))
                .expect("insert");
        }
        let mut amt = SimPlatform::amt(1991, Box::new(RankingWorld::new(&corpus, noise)));
        let r = db
            .execute(
                "SELECT label FROM picture \
                 ORDER BY CROWDORDER(label, 'Which picture is better?')",
                &mut amt,
            )
            .expect("crowdorder query");

        // Produced ranking (best first) → corpus indexes.
        let produced: Vec<usize> = r
            .rows
            .iter()
            .map(|row| {
                let label = row[0].to_string();
                corpus
                    .iter()
                    .position(|i| i.label == label)
                    .expect("known item")
            })
            .collect();
        let tau = rank::kendall_tau(&produced, &truth);
        let adj = rank::adjacent_accuracy(&produced, &truth);
        out.rows.push(vec![
            format!("{noise:.2}"),
            replication.to_string(),
            format!("{tau:.3}"),
            format!("{:.1}%", adj * 100.0),
            r.crowd.tasks_posted.to_string(),
            format!(
                "{:.0}%",
                100.0 * r.crowd.tasks_posted as f64 / possible as f64
            ),
            r.crowd.rounds.to_string(),
        ]);
    }

    out.notes.push(format!(
        "{N} items, {possible} possible pairs; the crowd quicksort touches a subset"
    ));
    out.notes.push(
        "expected shape: tau ≈ 1.0 with noiseless judges; tau degrades with noise \
         and recovers with replication (majority voting over comparisons) — the \
         paper's ordering-quality result"
            .into(),
    );
    out.print();
}
