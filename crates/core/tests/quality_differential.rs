//! Differential quality oracle: the full CrowdDB stack against the AMT
//! simulator with *known ground truth*, diffed across quality policies,
//! batch sizes, worker counts, and fault rates.
//!
//! The oracles (ISSUE 10):
//!
//! * **EM never loses to majority vote on a clean crowd.** On an
//!   E4-style probe workload (open- and closed-vocabulary columns, noisy
//!   worker population) the `QualityPolicy::Em` run scores at least as
//!   many correct cells against the simulator's ground truth as
//!   `MajorityVote`, for every seed. Under injected *platform* faults —
//!   channel noise the worker-reliability model does not describe — EM
//!   must stay within a bounded number of cells of majority and still
//!   strictly win somewhere in the matrix.
//! * **Policies are platform-identical.** EM runs only at settle time,
//!   so both policies drive the *same* platform call sequence: posted
//!   tasks, answers collected, and cents spent must match exactly.
//! * **Batching saves cents.** Packing compare needs into batched HITs
//!   (`max_batch_size >= 2`) posts fewer HITs and never costs more than
//!   the same compares as singletons, and is bit-reproducible.
//! * **Worker counts stay invisible.** 1 vs 4 fulfill workers produce
//!   byte-identical rows, summaries, and metrics under *both* policies.

use crowddb_core::{CrowdConfig, CrowdDB, QualityPolicy, QueryResult};
use crowddb_platform::{
    Answer, ClosureModel, FaultConfig, FaultyPlatform, SimConfig, SimPlatform, TaskKind,
};
use crowddb_quality::VoteConfig;

mod common;
use common::{professors as ground_truth, world_answers, Attendees, PROFS};

/// The simulated crowd's knowledge: diligent workers read the shared
/// world's truth table; careless ones get the default plausible-error
/// model (typos, flipped verdicts, blanks).
fn world() -> ClosureModel<impl Fn(&TaskKind) -> Answer + Send> {
    ClosureModel::new(world_answers(Attendees::Fixed))
}

/// A noisy AMT marketplace (mean worker error ~25%, like the paper's
/// probe experiments), optionally wrapped in uniform fault injection.
fn marketplace(seed: u64, fault_rate: f64) -> FaultyPlatform<SimPlatform> {
    let mut sim = SimConfig::amt(seed);
    sim.pool.error_alpha = 2.5;
    sim.pool.error_beta = 7.5;
    let inner = SimPlatform::new("amt-sim", sim, Box::new(world()));
    let faults = if fault_rate > 0.0 {
        FaultConfig::uniform(seed ^ 0x5EED, fault_rate)
    } else {
        FaultConfig::none(seed ^ 0x5EED)
    };
    FaultyPlatform::new(inner, faults)
}

fn config(policy: QualityPolicy, workers: usize, max_batch_size: usize) -> CrowdConfig {
    let mut c = CrowdConfig::fast_test();
    c.vote = VoteConfig::replicated(3);
    c.reward_cents = 2;
    c.quality = policy;
    c.concurrency.fulfill_workers = workers;
    c.concurrency.max_batch_size = max_batch_size;
    c
}

fn setup(db: &CrowdDB) {
    db.execute_local(
        "CREATE TABLE professor (name STRING PRIMARY KEY, department CROWD STRING, \
         email CROWD STRING)",
    )
    .expect("ddl");
    for i in 0..PROFS {
        db.execute_local(&format!(
            "INSERT INTO professor (name) VALUES ('prof-{i:02}')"
        ))
        .expect("insert");
    }
}

/// Run the E4-style probe workload and score it against ground truth.
/// Returns (correct cells, total cells, the raw result).
fn probe_run(
    policy: QualityPolicy,
    workers: usize,
    seed: u64,
    fault_rate: f64,
) -> (usize, usize, QueryResult) {
    let db = CrowdDB::with_config(config(policy, workers, 0));
    setup(&db);
    let mut amt = marketplace(seed, fault_rate);
    let r = db
        .execute("SELECT name, department, email FROM professor", &mut amt)
        .expect("probe query");
    let truth = ground_truth();
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

#[test]
fn em_is_at_least_as_accurate_as_majority_vote() {
    // On a clean (fault-free) marketplace the worker-reliability model
    // holds and EM must never lose a cell to majority vote, on any seed.
    for seed in [11_u64, 22, 33, 44, 55] {
        let (maj_ok, total, maj_r) = probe_run(QualityPolicy::MajorityVote, 2, seed, 0.0);
        let (em_ok, _, em_r) = probe_run(QualityPolicy::em(), 2, seed, 0.0);
        assert!(
            em_ok >= maj_ok,
            "seed {seed}: EM scored {em_ok}/{total}, majority {maj_ok}/{total}"
        );
        // EM runs at settle time only, so the platform interaction —
        // and therefore the bill — is identical between policies.
        assert_eq!(
            maj_r.crowd.tasks_posted, em_r.crowd.tasks_posted,
            "seed {seed}: policies posted different HITs"
        );
        assert_eq!(
            maj_r.crowd.cents_spent, em_r.crowd.cents_spent,
            "seed {seed}: policies paid different cents"
        );
    }
}

#[test]
fn em_stays_close_to_majority_under_platform_faults() {
    // Injected platform faults *break* the worker-reliability model:
    // garbling is channel noise attributed to whichever worker's ballot
    // it hit, so honest workers' reliability estimates get contaminated,
    // while the uniquely-garbled junk answers never collude — exactly
    // the regime where per-task plurality is maximally robust. EM is
    // allowed to trail majority here, but only by a bounded number of
    // cells, and it must actually *win* somewhere in the matrix (two
    // always-equal policies would satisfy any "no worse than" oracle
    // vacuously).
    let mut em_won_somewhere = false;
    for seed in [11_u64, 22, 33, 44, 55] {
        let (maj_ok, total, _) = probe_run(QualityPolicy::MajorityVote, 2, seed, 0.3);
        let (em_ok, _, _) = probe_run(QualityPolicy::em(), 2, seed, 0.3);
        assert!(
            em_ok + 6 >= maj_ok,
            "seed {seed}: EM collapsed under faults ({em_ok}/{total} vs \
             majority {maj_ok}/{total})"
        );
        if em_ok > maj_ok {
            em_won_somewhere = true;
        }
    }
    assert!(
        em_won_somewhere,
        "EM never strictly beat majority vote anywhere in the faulted matrix"
    );
}

/// Run an entity-resolution workload (many CROWDEQUAL compares with one
/// shared instruction — the batchable shape) and return the result.
fn compare_run(policy: QualityPolicy, max_batch_size: usize, seed: u64) -> QueryResult {
    let db = CrowdDB::with_config(config(policy, 2, max_batch_size));
    db.execute_local("CREATE TABLE company (name STRING PRIMARY KEY)")
        .expect("ddl");
    for name in [
        "IBM",
        "I.B.M.",
        "International Business Machines",
        "Microsoft",
        "MSFT",
        "Apple",
        "apple",
        "Oracle",
        "oracle ",
        "Sun Microsystems",
    ] {
        db.execute_local(&format!(
            "INSERT INTO company (name) VALUES ('{}')",
            name.replace('\'', "''")
        ))
        .expect("insert");
    }
    let mut amt = marketplace(seed, 0.0);
    db.execute("SELECT name FROM company WHERE name ~= 'ibm'", &mut amt)
        .expect("compare query")
}

#[test]
fn batching_reduces_cents_and_stays_deterministic() {
    // Batching changes how compare needs are packed into HITs, so with a
    // *noisy* crowd the sampled answers (and occasionally the rows) are a
    // different random realization than the singleton run — rows-equality
    // is only a contract against honest crowds (covered by the
    // concurrency suite's scripted mock). Against the noisy simulator
    // the oracles are economic and reproducibility ones: batched runs
    // post fewer HITs, never cost more, and are bit-reproducible.
    for policy in [QualityPolicy::MajorityVote, QualityPolicy::em()] {
        for seed in [11_u64, 22, 33] {
            let single = compare_run(policy, 0, seed);
            let batched = compare_run(policy, 4, seed);
            assert!(
                batched.crowd.cents_spent <= single.crowd.cents_spent,
                "seed {seed} {policy:?}: batched spent {} cents, singletons {}",
                batched.crowd.cents_spent,
                single.crowd.cents_spent
            );
            assert!(
                batched.crowd.tasks_posted < single.crowd.tasks_posted,
                "seed {seed} {policy:?}: batching must post fewer HITs"
            );
            let rerun = compare_run(policy, 4, seed);
            assert_eq!(
                batched, rerun,
                "seed {seed} {policy:?}: batched run is not deterministic"
            );
        }
    }
    // And strictly cheaper in aggregate: the per-item discount is the
    // entire point of batched HITs.
    let single: u64 = [11_u64, 22, 33]
        .iter()
        .map(|&s| {
            compare_run(QualityPolicy::MajorityVote, 0, s)
                .crowd
                .cents_spent
        })
        .sum();
    let batched: u64 = [11_u64, 22, 33]
        .iter()
        .map(|&s| {
            compare_run(QualityPolicy::MajorityVote, 4, s)
                .crowd
                .cents_spent
        })
        .sum();
    assert!(
        batched < single,
        "batching never saved a cent ({batched} vs {single})"
    );
}

#[test]
fn worker_count_is_invisible_under_both_policies() {
    // `fulfill_workers` is a wall-time knob, and EM must not break that:
    // inference runs serially at settle over ballots staged in need
    // order, so 1 vs 4 workers are byte-identical per policy.
    for policy in [QualityPolicy::MajorityVote, QualityPolicy::em()] {
        for seed in [11_u64, 22] {
            let run = |workers: usize| {
                let db = CrowdDB::with_config(config(policy, workers, 0));
                setup(&db);
                let mut amt = marketplace(seed, 0.0);
                let r = db
                    .execute("SELECT name, department, email FROM professor", &mut amt)
                    .expect("probe query");
                (r, db.metrics().to_prometheus())
            };
            let (r1, m1) = run(1);
            let (r4, m4) = run(4);
            assert_eq!(
                r1, r4,
                "seed {seed} {policy:?}: rows/summaries/warnings diverged across workers"
            );
            assert_eq!(
                m1, m4,
                "seed {seed} {policy:?}: metrics diverged across workers"
            );
        }
    }
}

#[test]
fn fault_injection_preserves_policy_parity() {
    // Even with 30% uniform platform faults, both policies see the same
    // degraded platform: identical posted-task and cents accounting per
    // seed, and the run still completes.
    for seed in [11_u64, 22, 33] {
        let (_, _, maj) = probe_run(QualityPolicy::MajorityVote, 2, seed, 0.3);
        let (_, _, em) = probe_run(QualityPolicy::em(), 2, seed, 0.3);
        assert_eq!(maj.crowd.tasks_posted, em.crowd.tasks_posted);
        assert_eq!(maj.crowd.answers_collected, em.crowd.answers_collected);
        assert_eq!(maj.crowd.cents_spent, em.crowd.cents_spent);
        assert_eq!(maj.rows.len(), PROFS);
        assert_eq!(em.rows.len(), PROFS);
    }
}
