//! E4 — CrowdProbe answer quality vs replication (SIGMOD 2011: professor
//! department/e-mail experiment).
//!
//! The paper crowdsourced two kinds of missing professor attributes: the
//! *department* (a closed set — easy to vote into correctness) and the
//! *e-mail address* (open text — majority voting helps less because
//! wrong answers rarely collide). It reported accuracy at 1, 3, and 5
//! assignments per HIT. This harness runs the same table through the
//! full CrowdDB stack against the simulated marketplace.

#![forbid(unsafe_code)]

use crowddb_bench::harness::ExperimentOutput;
use crowddb_bench::workloads;
use crowddb_bench::world::ProfessorWorld;
use crowddb_core::{CrowdConfig, CrowdDB, QualityPolicy};
use crowddb_platform::{SimConfig, SimPlatform};
use crowddb_quality::VoteConfig;

fn main() {
    let mut out = ExperimentOutput::new(
        "E4",
        "CrowdProbe accuracy vs assignments (paper: closed fields benefit strongly \
         from majority voting, open fields less)",
    );
    out.headers = vec![
        "assignments".into(),
        "dept accuracy".into(),
        "email accuracy".into(),
        "tasks".into(),
        "cost (cents)".into(),
    ];

    const PROFS: usize = 60;
    let corpus = workloads::professors(PROFS, 99);

    for (replication, policy) in [
        (1usize, QualityPolicy::MajorityVote),
        (3, QualityPolicy::MajorityVote),
        (5, QualityPolicy::MajorityVote),
        // The answer-quality v2 matrix: EM truth inference at the same
        // replication levels, same platform bill (EM is settle-time
        // only), posterior-reweighted verdicts.
        (3, QualityPolicy::em()),
        (5, QualityPolicy::em()),
    ] {
        let db = CrowdDB::with_config(CrowdConfig {
            vote: VoteConfig::replicated(replication),
            reward_cents: 2,
            quality: policy,
            ..CrowdConfig::default()
        });
        db.execute_local(
            "CREATE TABLE professor (name STRING PRIMARY KEY, department CROWD STRING, \
             email CROWD STRING)",
        )
        .expect("ddl");
        for p in &corpus {
            db.execute_local(&format!(
                "INSERT INTO professor (name) VALUES ('{}')",
                p.name.replace('\'', "''")
            ))
            .expect("insert");
        }
        // A noisier population than the liquid-market default: the
        // paper's probe experiments saw substantial raw error rates.
        let mut sim_config = SimConfig::amt(4242);
        sim_config.pool.error_alpha = 2.5; // mean error ~25%
        sim_config.pool.error_beta = 7.5;
        let mut amt = SimPlatform::new(
            "amt-sim",
            sim_config,
            Box::new(ProfessorWorld::new(&corpus)),
        );
        let r = db
            .execute("SELECT name, department, email FROM professor", &mut amt)
            .expect("query");

        // Score against ground truth.
        let mut dept_ok = 0usize;
        let mut email_ok = 0usize;
        for row in &r.rows {
            let name = row[0].to_string();
            let truth = corpus.iter().find(|p| p.name == name).expect("known prof");
            if row[1].to_string().eq_ignore_ascii_case(&truth.department) {
                dept_ok += 1;
            }
            if row[2].to_string().eq_ignore_ascii_case(&truth.email) {
                email_ok += 1;
            }
        }
        let label = match policy {
            QualityPolicy::MajorityVote => format!("{replication} (majority)"),
            QualityPolicy::Em { .. } => format!("{replication} (em)"),
        };
        out.rows.push(vec![
            label,
            format!("{:.1}%", 100.0 * dept_ok as f64 / PROFS as f64),
            format!("{:.1}%", 100.0 * email_ok as f64 / PROFS as f64),
            r.crowd.tasks_posted.to_string(),
            r.crowd.cents_spent.to_string(),
        ]);
    }
    out.notes.push(
        "expected shape: accuracy rises with replication; department (closed \
         vocabulary) converges to ~100% by 3–5 votes while e-mail (open text) \
         improves more slowly; cost grows linearly with replication"
            .into(),
    );
    out.notes.push(
        "em rows: same replication, same bill (EM is settle-time-only), verdicts \
         from posterior reweighting. This world's errors *collude* (erring workers \
         share a closed dept vocabulary and 50% guess the same plausible e-mail \
         pattern), which violates the independent-error assumption EM rests on — \
         so EM's edge here is modest: it matches majority on the closed field and \
         recovers a point or two on e-mail at x3. E17 runs the same schema against \
         an independent-error crowd, the regime the model actually describes."
            .into(),
    );
    out.print();
}
