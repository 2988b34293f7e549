//! E6 — CROWDEQUAL entity resolution (SIGMOD 2011: company-name
//! experiment, "is 'I.B.M.' the same as 'IBM'?").
//!
//! The paper asked the crowd to resolve company-name variants and
//! reported accuracy under majority voting, comparing against what a
//! machine could do alone. This harness runs labeled pairs through the
//! full CROWDEQUAL path (predicate → task → vote → cache) and also
//! reports the machine baseline (canonicalization + Jaro-Winkler) that a
//! conventional DBMS could manage without people.

#![forbid(unsafe_code)]

use crowddb_bench::harness::ExperimentOutput;
use crowddb_bench::workloads;
use crowddb_bench::world::CompanyWorld;
use crowddb_core::{CrowdConfig, CrowdDB, QualityPolicy};
use crowddb_platform::SimPlatform;
use crowddb_quality::entity;
use crowddb_quality::VoteConfig;

fn main() {
    let mut out = ExperimentOutput::new(
        "E6",
        "CROWDEQUAL entity-resolution accuracy vs assignments, with machine baseline",
    );
    out.headers = vec![
        "method".into(),
        "accuracy".into(),
        "false merges".into(),
        "missed matches".into(),
        "tasks".into(),
        "cost (cents)".into(),
    ];

    let corpus = workloads::companies(40, 17);
    let pairs = workloads::entity_pairs(&corpus, 17);
    let world = CompanyWorld::new(&corpus);

    // Machine baseline: canonicalization + Jaro-Winkler at 0.92.
    {
        let mut ok = 0usize;
        let mut false_merge = 0usize;
        let mut missed = 0usize;
        for (a, b, same) in &pairs {
            let verdict = entity::machine_equal(a, b, 0.92);
            if verdict == *same {
                ok += 1;
            } else if verdict {
                false_merge += 1;
            } else {
                missed += 1;
            }
        }
        out.rows.push(vec![
            "machine (JW 0.92)".into(),
            format!("{:.1}%", 100.0 * ok as f64 / pairs.len() as f64),
            false_merge.to_string(),
            missed.to_string(),
            "0".into(),
            "0".into(),
        ]);
    }

    // Crowd path at replication 1, 3, 5 — through the real engine: a
    // pairs table filtered by CROWDEQUAL(a, b). Then the quality-v2
    // matrix at replication 3: majority-vs-EM × singleton-vs-batched
    // HITs (batching packs same-instruction compares k-to-a-HIT at a
    // per-item discount).
    let mut arms: Vec<(usize, QualityPolicy, usize)> = [1usize, 3, 5]
        .iter()
        .map(|&r| (r, QualityPolicy::MajorityVote, 0))
        .collect();
    arms.extend([
        (3, QualityPolicy::MajorityVote, 4),
        (3, QualityPolicy::em(), 0),
        (3, QualityPolicy::em(), 4),
    ]);
    for (replication, policy, batch) in arms {
        let mut config = CrowdConfig {
            vote: VoteConfig::replicated(replication),
            reward_cents: 1,
            quality: policy,
            ..CrowdConfig::default()
        };
        config.concurrency.max_batch_size = batch;
        let db = CrowdDB::with_config(config);
        db.execute_local("CREATE TABLE pairs (id INTEGER PRIMARY KEY, a STRING, b STRING)")
            .expect("ddl");
        for (i, (a, b, _)) in pairs.iter().enumerate() {
            db.execute_local(&format!(
                "INSERT INTO pairs VALUES ({i}, '{}', '{}')",
                a.replace('\'', "''"),
                b.replace('\'', "''")
            ))
            .expect("insert");
        }
        let mut amt = SimPlatform::amt(808, Box::new(CompanyWorld::new(&corpus)));
        let r = db
            .execute(
                "SELECT id FROM pairs WHERE CROWDEQUAL(a, b) ORDER BY id",
                &mut amt,
            )
            .expect("crowdequal query");
        let merged: std::collections::HashSet<usize> = r
            .rows
            .iter()
            .filter_map(|row| row[0].as_i64().map(|v| v as usize))
            .collect();

        let mut ok = 0usize;
        let mut false_merge = 0usize;
        let mut missed = 0usize;
        for (i, (a, b, _)) in pairs.iter().enumerate() {
            let truth = world.same_entity(a, b);
            let verdict = merged.contains(&i);
            if verdict == truth {
                ok += 1;
            } else if verdict {
                false_merge += 1;
            } else {
                missed += 1;
            }
        }
        let policy_tag = match policy {
            QualityPolicy::MajorityVote => "majority",
            QualityPolicy::Em { .. } => "em",
        };
        let batch_tag = if batch >= 2 {
            format!(", batch {batch}")
        } else {
            String::new()
        };
        out.rows.push(vec![
            format!("crowd x{replication} ({policy_tag}{batch_tag})"),
            format!("{:.1}%", 100.0 * ok as f64 / pairs.len() as f64),
            false_merge.to_string(),
            missed.to_string(),
            r.crowd.tasks_posted.to_string(),
            r.crowd.cents_spent.to_string(),
        ]);
    }

    out.notes.push(
        "expected shape: the crowd beats the machine baseline (which either misses \
         abbreviations or false-merges similar names); accuracy improves with \
         replication and approaches 100% at x5 — the paper's headline entity- \
         resolution result"
            .into(),
    );
    out.notes.push(
        "quality-v2 matrix (x3 rows): EM matches or beats majority at the same \
         bill; batched HITs post ~4x fewer tasks and spend ~half the cents. Their \
         accuracy reads at or above singletons for the reason E17's note gives \
         (one correctness draw per worker and HIT, and an erring worker's batch \
         keeps 30% of its verdicts) — the simulator's doing, not packing's"
            .into(),
    );
    out.print();
}
