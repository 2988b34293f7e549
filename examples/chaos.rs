//! Fault injection demo: the same conference workload, once against a
//! healthy simulated marketplace and once against the same marketplace
//! wrapped in [`FaultyPlatform`] with every fault kind at 30%.
//!
//! The point of the demo is the degradation contract: under heavy
//! platform misbehaviour every statement still returns `Ok` — possibly
//! partial, with `CNULL`s, warnings, and resilience accounting — and
//! nothing already paid for is thrown away.
//!
//! ```bash
//! cargo run --example chaos
//! ```

#![forbid(unsafe_code)]

use crowddb::{
    Answer, CrowdConfig, CrowdDB, FaultConfig, FaultyPlatform, Platform, QueryResult, SimPlatform,
    TaskKind, VoteConfig,
};
use crowddb_platform::{ClosureModel, CrowdModel};

const SUITE: &[&str] = &[
    "CREATE TABLE Talk (title STRING PRIMARY KEY, abstract CROWD STRING, \
     nb_attendees CROWD INTEGER)",
    "INSERT INTO Talk (title) VALUES ('CrowdDB'), ('Qurk'), ('PIQL'), ('HyPer')",
    "SELECT title, nb_attendees FROM Talk ORDER BY title",
    "SELECT title FROM Talk WHERE title ~= 'crowd db'",
];

/// The simulated crowd's knowledge: attendance figures per talk, and an
/// entity-resolution sense of when two renderings name the same talk.
fn conference_crowd() -> Box<dyn CrowdModel> {
    fn same_entity(left: &str, right: &str) -> Answer {
        let norm = |s: &str| {
            s.chars()
                .filter(|c| c.is_alphanumeric())
                .collect::<String>()
                .to_lowercase()
        };
        if norm(left) == norm(right) {
            Answer::Yes
        } else {
            Answer::No
        }
    }
    Box::new(ClosureModel::new(|task: &TaskKind| match task {
        TaskKind::Probe { asked, .. } => Answer::Form(
            asked
                .iter()
                .map(|(c, _)| (c.clone(), "180".to_string()))
                .collect(),
        ),
        TaskKind::Equal { left, right, .. } => same_entity(left, right),
        TaskKind::Order { .. } => Answer::Left,
        // Batched HITs: one verdict per pair, by the same judgement.
        TaskKind::EqualBatch { pairs, .. } => {
            Answer::Batch(pairs.iter().map(|(l, r)| same_entity(l, r)).collect())
        }
        TaskKind::OrderBatch { pairs, .. } => Answer::Batch(vec![Answer::Left; pairs.len()]),
        TaskKind::NewTuples { .. } | TaskKind::RankGroup { .. } => Answer::Blank,
    }))
}

fn report(label: &str, r: &QueryResult) {
    println!("== {label}");
    println!("{}", r.to_table());
    let c = &r.crowd;
    println!(
        "   complete={} posted={} answers={} retries={} reposts={} dup_dropped={} \
         post_failures={} extend_failures={} gave_up={} degraded={}",
        r.complete,
        c.tasks_posted,
        c.answers_collected,
        c.retries,
        c.reposts,
        c.duplicates_dropped,
        c.post_failures,
        c.extend_failures,
        c.gave_up,
        c.degraded
    );
    for w in &r.warnings {
        println!("   warning: {w}");
    }
    println!();
}

fn run(label: &str, platform: &mut dyn Platform) {
    println!("──── {label} ────");
    let db = CrowdDB::with_config(CrowdConfig {
        vote: VoteConfig::replicated(3),
        ..CrowdConfig::default()
    });
    for sql in SUITE {
        let r = db
            .execute(sql, platform)
            .expect("never Err on platform faults");
        if !r.columns.is_empty() || r.affected > 0 {
            report(sql, &r);
        }
    }
}

fn main() {
    // The healthy marketplace.
    let mut healthy = SimPlatform::amt(42, conference_crowd());
    run("healthy marketplace", &mut healthy);

    // The same marketplace, every fault kind at 30%: posts fail outright
    // or halfway, HITs get lost, answers arrive twice / garbled / late,
    // escalations error. Same seed → same chaos, every run.
    let sim = SimPlatform::amt(42, conference_crowd());
    let mut hostile = FaultyPlatform::new(sim, FaultConfig::uniform(7, 0.3));
    run("hostile marketplace (30% faults)", &mut hostile);

    let inj = hostile.injected();
    println!("injected ground truth: {inj:?}");
}
