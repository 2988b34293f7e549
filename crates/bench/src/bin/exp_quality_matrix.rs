//! E17 — answer-quality engine v2 matrix: majority-vs-EM × batched-vs-
//! singleton HITs, with determinism checks.
//!
//! ```text
//! BENCH_JSON=BENCH_4.json cargo run --release -p crowddb-bench --bin exp_quality_matrix
//! ```
//!
//! Two arms, both against the AMT simulator with known ground truth:
//!
//! * **Probe arm** (E4 schema): professor department/e-mail probes at
//!   replication 3 against an *independent-error* crowd (workers mistype
//!   on their own; wrong answers essentially never collide — the regime
//!   the Dawid–Skene model describes). Em must score at least as many
//!   correct cells as MajorityVote at the same replication and the same
//!   bill, for every seed.
//! * **Compare arm** (E6 schema): CROWDEQUAL entity resolution, where
//!   `max_batch_size = 4` packs same-instruction compares into batched
//!   HITs at the per-item discount. Batched runs must post fewer HITs
//!   and spend no more cents; the accuracy difference is reported per
//!   seed, with the simulator artefact that produces it named in the note.
//!
//! Both arms re-run every configuration with 1 and 4 fulfill workers and
//! assert byte-identical rows — the concurrency knob stays a pure
//! wall-time lever under both quality policies.
//!
//! The assertions are live: the binary panics if any acceptance
//! condition regresses, so a bench run doubles as a quality gate.

#![forbid(unsafe_code)]

use std::collections::HashMap;

use crowddb_bench::harness::ExperimentOutput;
use crowddb_bench::workloads;
use crowddb_bench::world::CompanyWorld;
use crowddb_core::{CrowdConfig, CrowdDB, QualityPolicy, QueryResult};
use crowddb_platform::{Answer, ClosureModel, SimConfig, SimPlatform, TaskKind};
use crowddb_quality::VoteConfig;

const PROFS: usize = 40;

fn policy_tag(policy: QualityPolicy) -> &'static str {
    match policy {
        QualityPolicy::MajorityVote => "majority",
        QualityPolicy::Em { .. } => "em",
    }
}

fn config(policy: QualityPolicy, workers: usize, batch: usize, reward: u32) -> CrowdConfig {
    let mut c = CrowdConfig {
        vote: VoteConfig::replicated(3),
        reward_cents: reward,
        quality: policy,
        ..CrowdConfig::default()
    };
    c.concurrency.fulfill_workers = workers;
    c.concurrency.max_batch_size = batch;
    c
}

/// An independent-error probe crowd: diligent workers read the truth
/// table; careless ones fall back to the default plausible-error model
/// (per-worker typos and junk that essentially never collide).
fn probe_world(
    truth: HashMap<String, (String, String)>,
) -> ClosureModel<impl Fn(&TaskKind) -> Answer + Send> {
    ClosureModel::new(move |task: &TaskKind| match task {
        TaskKind::Probe { known, asked, .. } => {
            let name = known
                .iter()
                .find(|(k, _)| k == "name")
                .map(|(_, v)| v.as_str())
                .unwrap_or("");
            let (dept, email) = truth
                .get(name)
                .cloned()
                .unwrap_or_else(|| ("unknown".into(), "unknown".into()));
            Answer::Form(
                asked
                    .iter()
                    .map(|(col, _)| {
                        let text = match col.as_str() {
                            "department" => dept.clone(),
                            "email" => email.clone(),
                            _ => "unknown".to_string(),
                        };
                        (col.clone(), text)
                    })
                    .collect(),
            )
        }
        _ => Answer::Blank,
    })
}

fn noisy_amt(seed: u64, model: Box<dyn crowddb_platform::CrowdModel>) -> SimPlatform {
    let mut sim = SimConfig::amt(seed);
    sim.pool.error_alpha = 2.5; // mean worker error ~25%
    sim.pool.error_beta = 7.5;
    SimPlatform::new("amt-sim", sim, model)
}

/// Probe arm: returns (correct cells, total cells, result).
fn probe_run(policy: QualityPolicy, workers: usize, seed: u64) -> (usize, usize, QueryResult) {
    let truth: HashMap<String, (String, String)> = workloads::professors(PROFS, 99)
        .into_iter()
        .map(|p| (p.name, (p.department, p.email)))
        .collect();
    let db = CrowdDB::with_config(config(policy, workers, 0, 2));
    db.execute_local(
        "CREATE TABLE professor (name STRING PRIMARY KEY, department CROWD STRING, \
         email CROWD STRING)",
    )
    .expect("ddl");
    let mut names: Vec<&String> = truth.keys().collect();
    names.sort();
    for name in names {
        db.execute_local(&format!(
            "INSERT INTO professor (name) VALUES ('{}')",
            name.replace('\'', "''")
        ))
        .expect("insert");
    }
    let mut amt = noisy_amt(seed, Box::new(probe_world(truth.clone())));
    let r = db
        .execute("SELECT name, department, email FROM professor", &mut amt)
        .expect("probe query");
    let mut ok = 0usize;
    for row in &r.rows {
        let name = row[0].to_string();
        let (dept, email) = truth.get(&name).expect("known prof");
        if row[1].to_string().eq_ignore_ascii_case(dept) {
            ok += 1;
        }
        if row[2].to_string().eq_ignore_ascii_case(email) {
            ok += 1;
        }
    }
    (ok, 2 * PROFS, r)
}

/// Compare arm: returns (correct pairs, total pairs, result).
fn compare_run(
    policy: QualityPolicy,
    workers: usize,
    batch: usize,
    seed: u64,
) -> (usize, usize, QueryResult) {
    let corpus = workloads::companies(30, 17);
    let pairs = workloads::entity_pairs(&corpus, 17);
    let world = CompanyWorld::new(&corpus);
    let db = CrowdDB::with_config(config(policy, workers, batch, 1));
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
    let mut amt = noisy_amt(seed, Box::new(CompanyWorld::new(&corpus)));
    let r = db
        .execute(
            "SELECT id FROM pairs WHERE CROWDEQUAL(a, b) ORDER BY id",
            &mut amt,
        )
        .expect("compare query");
    let merged: std::collections::HashSet<usize> = r
        .rows
        .iter()
        .filter_map(|row| row[0].as_i64().map(|v| v as usize))
        .collect();
    let ok = pairs
        .iter()
        .enumerate()
        .filter(|(i, (a, b, _))| merged.contains(i) == world.same_entity(a, b))
        .count();
    (ok, pairs.len(), r)
}

fn main() {
    let mut out = ExperimentOutput::new(
        "E17",
        "answer-quality v2 matrix: majority-vs-EM x batched-vs-singleton, \
         independent-error crowd, determinism across worker counts",
    );
    out.headers = vec![
        "arm".into(),
        "policy".into(),
        "batch".into(),
        "seed".into(),
        "accuracy".into(),
        "tasks".into(),
        "cost (cents)".into(),
        "det 1v4".into(),
    ];

    let seeds = [11u64, 22, 33];

    // Probe arm: Em >= MajorityVote at equal replication, equal bill.
    for seed in seeds {
        let mut scored: HashMap<&'static str, (usize, u64)> = HashMap::new();
        for policy in [QualityPolicy::MajorityVote, QualityPolicy::em()] {
            let (ok, total, r) = probe_run(policy, 1, seed);
            let (ok4, _, r4) = probe_run(policy, 4, seed);
            assert_eq!(ok, ok4, "probe seed {seed}: worker count changed accuracy");
            let det = if r.rows == r4.rows { "yes" } else { "NO" };
            assert_eq!(
                r.rows, r4.rows,
                "probe seed {seed}: rows diverged across workers"
            );
            scored.insert(policy_tag(policy), (ok, r.crowd.cents_spent));
            out.rows.push(vec![
                "probe".into(),
                policy_tag(policy).into(),
                "-".into(),
                seed.to_string(),
                format!("{:.1}%", 100.0 * ok as f64 / total as f64),
                r.crowd.tasks_posted.to_string(),
                r.crowd.cents_spent.to_string(),
                det.into(),
            ]);
        }
        let (maj, em) = (scored["majority"], scored["em"]);
        assert!(
            em.0 >= maj.0,
            "probe seed {seed}: EM ({}) scored below majority ({})",
            em.0,
            maj.0
        );
        assert_eq!(
            em.1, maj.1,
            "probe seed {seed}: policies paid different cents"
        );
    }

    // Compare arm: batching cuts posts and cents, under both policies.
    // What it does to accuracy is measured and reported, per seed.
    let mut batched_minus_single: HashMap<&str, Vec<String>> = HashMap::new();
    for seed in seeds {
        for policy in [QualityPolicy::MajorityVote, QualityPolicy::em()] {
            let mut by_batch: HashMap<usize, (usize, u64, u64)> = HashMap::new();
            let mut pairs = 0;
            for batch in [0usize, 4] {
                let (ok, total, r) = compare_run(policy, 1, batch, seed);
                pairs = total;
                let (ok4, _, r4) = compare_run(policy, 4, batch, seed);
                assert_eq!(
                    ok, ok4,
                    "compare seed {seed}: worker count changed accuracy"
                );
                let det = if r.rows == r4.rows { "yes" } else { "NO" };
                assert_eq!(
                    r.rows, r4.rows,
                    "compare seed {seed}: rows diverged across workers"
                );
                by_batch.insert(batch, (ok, r.crowd.tasks_posted, r.crowd.cents_spent));
                out.rows.push(vec![
                    "compare".into(),
                    policy_tag(policy).into(),
                    if batch >= 2 {
                        batch.to_string()
                    } else {
                        "-".into()
                    },
                    seed.to_string(),
                    format!("{:.1}%", 100.0 * ok as f64 / total as f64),
                    r.crowd.tasks_posted.to_string(),
                    r.crowd.cents_spent.to_string(),
                    det.into(),
                ]);
            }
            let (single, batched) = (by_batch[&0], by_batch[&4]);
            assert!(
                batched.1 < single.1,
                "seed {seed} {policy:?}: batching must post fewer HITs"
            );
            assert!(
                batched.2 <= single.2,
                "seed {seed} {policy:?}: batching must not cost more \
                 ({} vs {} cents)",
                batched.2,
                single.2
            );
            let points = 100.0 * (batched.0 as f64 - single.0 as f64) / pairs as f64;
            batched_minus_single
                .entry(policy_tag(policy))
                .or_default()
                .push(format!("{points:+.1}"));
        }
    }

    out.notes.push(
        "probe arm: independent-error crowd (the Dawid-Skene regime) — EM never \
         scores below majority at equal replication, and the bill is identical \
         because EM runs at settle time only"
            .into(),
    );
    out.notes.push(format!(
        "compare arm: max_batch_size=4 packs same-instruction compares into \
         batched HITs at the per-item discount — fewer posts, fewer cents. \
         Batched minus singleton accuracy, in points by seed {seeds:?}: \
         majority {}, em {}. Not noise and not a property of packing: an \
         artefact of the simulator's one correctness draw per (worker, HIT) — \
         an erring worker's batch keeps each verdict right with p = 0.3 \
         (it flips with p = 0.7), where an erring singleton verdict is never \
         right. An independent-draw-per-item arm has to say what \
         packing itself costs (ROADMAP item 6b)",
        batched_minus_single["majority"].join(" / "),
        batched_minus_single["em"].join(" / "),
    ));
    out.notes.push(
        "every row re-ran with 1 vs 4 fulfill workers: rows byte-identical (the \
         'det 1v4' column is asserted, not just reported)"
            .into(),
    );
    out.print();
    if let Ok(path) = std::env::var("BENCH_JSON") {
        std::fs::write(&path, out.to_json()).expect("write BENCH_JSON");
        eprintln!("wrote {path}");
    }
}
