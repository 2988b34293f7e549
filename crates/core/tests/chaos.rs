//! Chaos suite: end-to-end CrowdSQL statements through a fault-injecting
//! platform ([`FaultyPlatform`]) at increasing fault rates.
//!
//! The degradation contract under test: no statement ever returns `Err`
//! or panics because the platform misbehaved; results are byte-identical
//! for identical fault seeds; collected answers survive mid-statement
//! post/extend failures; and the resilience accounting
//! (retries/reposts/duplicates dropped/post failures) is populated when
//! faults are injected and all-zero when they are not.

use crowddb_core::{CrowdConfig, CrowdDB, CrowdSummary, Obs, QueryResult, RetryPolicy};
use crowddb_platform::{Answer, FaultConfig, FaultyPlatform, MockPlatform, Platform, TaskKind};
use crowddb_quality::VoteConfig;

mod common;
use common::world_script;

/// Short deadlines and backoffs so abandoned-HIT reposts trigger within a
/// few pump steps instead of virtual days.
fn chaos_config() -> CrowdConfig {
    chaos_config_with_workers(1)
}

fn chaos_config_with_workers(workers: usize) -> CrowdConfig {
    let mut c = CrowdConfig {
        vote: VoteConfig::replicated(3),
        retry: RetryPolicy {
            max_post_attempts: 4,
            backoff_base_secs: 60.0,
            backoff_cap_secs: 600.0,
            backoff_jitter: 0.25,
            hit_deadline_secs: 3_600.0,
            max_reposts: 2,
            breaker_threshold: 10,
        },
        ..CrowdConfig::default()
    };
    c.concurrency.fulfill_workers = workers;
    c
}

const SUITE: &[&str] = &[
    "CREATE TABLE Talk (title STRING PRIMARY KEY, abstract CROWD STRING, \
     nb_attendees CROWD INTEGER)",
    "CREATE CROWD TABLE NotableAttendee (name STRING PRIMARY KEY, title STRING, \
     FOREIGN KEY (title) REF Talk(title))",
    "INSERT INTO Talk (title) VALUES ('CrowdDB'), ('Qurk'), ('PIQL'), ('HyPer')",
    "SELECT title, abstract, nb_attendees FROM Talk ORDER BY title",
    "SELECT title FROM Talk WHERE title ~= 'crowddb.'",
    "SELECT title FROM Talk ORDER BY CROWDORDER(title, 'Which talk did you like better') \
     LIMIT 2",
    "SELECT name FROM NotableAttendee LIMIT 2",
];

/// Run the whole suite; every statement must come back `Ok` no matter how
/// hostile the platform is.
fn run_suite(platform: &mut dyn Platform) -> Vec<QueryResult> {
    let db = CrowdDB::with_config(chaos_config());
    SUITE
        .iter()
        .map(|sql| {
            db.execute(sql, platform)
                .unwrap_or_else(|e| panic!("{sql}: unexpected error {e}"))
        })
        .collect()
}

fn sum_faults(results: &[QueryResult]) -> (u64, u64, u64, u64) {
    results.iter().fold((0, 0, 0, 0), |acc, r| {
        (
            acc.0 + r.crowd.retries,
            acc.1 + r.crowd.reposts,
            acc.2 + r.crowd.duplicates_dropped,
            acc.3 + r.crowd.post_failures,
        )
    })
}

#[test]
fn fault_free_decorator_is_transparent() {
    let mut bare = world_script();
    let baseline = run_suite(&mut bare);

    let mut wrapped = FaultyPlatform::new(world_script(), FaultConfig::none(99));
    let through_decorator = run_suite(&mut wrapped);

    assert_eq!(baseline, through_decorator);
    assert_eq!(sum_faults(&baseline), (0, 0, 0, 0));
    for r in &baseline[3..6] {
        assert!(r.complete, "warnings: {:?}", r.warnings);
        assert!(!r.crowd.degraded);
    }
}

#[test]
fn chaos_sweep_is_error_free_and_reproducible_per_seed() {
    for rate in [0.1, 0.3] {
        for seed in [1_u64, 2, 3] {
            let run = || {
                let mut p = FaultyPlatform::new(world_script(), FaultConfig::uniform(seed, rate));
                let results = run_suite(&mut p);
                (results, p.injected())
            };
            let (a, fa) = run();
            let (b, fb) = run();
            // Byte-identical replay: rows, warnings, and every counter.
            assert_eq!(a, b, "rate {rate} seed {seed} must reproduce exactly");
            assert_eq!(fa, fb, "injected faults must reproduce exactly");
        }
    }
}

/// Parallel fulfillment under fire: at every fault rate, 1 worker and 4
/// workers must agree byte-for-byte — rows, warnings, every summary
/// counter, the full metrics registry, and the faults the platform
/// actually injected (identical engine→platform call sequences are the
/// only way the fault dice land the same).
#[test]
fn fault_sweeps_are_identical_serial_and_parallel() {
    for rate in [0.0, 0.1, 0.3] {
        for seed in [1_u64, 2] {
            let run = |workers: usize| {
                let obs = Obs::new();
                let db = CrowdDB::with_obs(chaos_config_with_workers(workers), obs.clone());
                let mut p = FaultyPlatform::new(world_script(), FaultConfig::uniform(seed, rate))
                    .with_obs(obs.clone());
                let results: Vec<QueryResult> = SUITE
                    .iter()
                    .map(|sql| db.execute(sql, &mut p).unwrap())
                    .collect();
                (results, p.injected(), db.metrics().to_prometheus())
            };
            let (serial_r, serial_inj, serial_m) = run(1);
            let (par_r, par_inj, par_m) = run(4);
            assert_eq!(
                serial_r, par_r,
                "rate {rate} seed {seed}: results diverged under parallel fulfillment"
            );
            assert_eq!(
                serial_inj, par_inj,
                "rate {rate} seed {seed}: fault injection sequence diverged"
            );
            assert_eq!(
                serial_m, par_m,
                "rate {rate} seed {seed}: metrics registry diverged"
            );
        }
    }
}

#[test]
fn chaos_sweep_populates_resilience_accounting() {
    // Aggregated across seeds so the assertion does not hinge on one
    // seed's particular dice; each run individually is deterministic.
    let mut totals = (0, 0, 0, 0);
    let mut exhausted_warned = false;
    for seed in [1_u64, 2, 3, 4, 5] {
        let mut p = FaultyPlatform::new(world_script(), FaultConfig::uniform(seed, 0.3));
        let results = run_suite(&mut p);
        let t = sum_faults(&results);
        totals = (
            totals.0 + t.0,
            totals.1 + t.1,
            totals.2 + t.2,
            totals.3 + t.3,
        );
        exhausted_warned |= results.iter().any(|r| {
            r.warnings
                .iter()
                .any(|w| w.contains("faults absorbed") || w.contains("abandoned"))
        });
        let inj = p.injected();
        assert!(
            inj.posts_failed
                + inj.posts_partial
                + inj.hits_lost
                + inj.duplicates_injected
                + inj.answers_garbled
                + inj.extends_failed
                + inj.latency_spikes
                > 0,
            "seed {seed}: a 30% fault rate must inject something"
        );
    }
    let (retries, reposts, duplicates_dropped, post_failures) = totals;
    assert!(retries > 0, "expected nonzero retries, got {totals:?}");
    assert!(reposts > 0, "expected nonzero reposts, got {totals:?}");
    assert!(
        duplicates_dropped > 0,
        "expected nonzero duplicates_dropped, got {totals:?}"
    );
    assert!(
        post_failures > 0,
        "expected nonzero post_failures, got {totals:?}"
    );
    assert!(exhausted_warned, "fault digests should surface as warnings");
}

#[test]
fn extend_failure_keeps_collected_answers_as_plurality() {
    // Two of three workers answer, the third submits nothing usable, so
    // every Equal vote is short of replication and wants an escalation —
    // which always fails. The statement must still finish, settling each
    // vote from the answers already collected.
    let mut cfg = FaultConfig::none(7);
    cfg.extend_fail_rate = 1.0;
    cfg.max_consecutive_failures = 0; // every escalation fails
    let script = MockPlatform::new(Box::new(|kind: &TaskKind, ordinal| {
        if ordinal >= 2 {
            return Answer::Blank;
        }
        match kind {
            TaskKind::Equal { .. } => Answer::Yes,
            _ => Answer::Blank,
        }
    }));
    let mut p = FaultyPlatform::new(script, cfg);
    let db = CrowdDB::with_config(chaos_config());
    db.execute(SUITE[0], &mut p).unwrap();
    db.execute(SUITE[2], &mut p).unwrap();
    let r = db.execute(SUITE[4], &mut p).unwrap();
    assert_eq!(r.rows.len(), 4, "both yes-votes per row were kept: {r:?}");
    assert!(r.crowd.extend_failures >= 4, "summary: {:?}", r.crowd);
    assert!(r.crowd.gave_up >= 4);
    assert!(
        r.warnings.iter().any(|w| w.contains("plurality")),
        "warnings: {:?}",
        r.warnings
    );
    assert!(
        r.warnings.iter().any(|w| w.contains("faults absorbed")),
        "warnings: {:?}",
        r.warnings
    );
}

#[test]
fn total_post_outage_returns_partial_result_not_error() {
    let mut cfg = FaultConfig::none(3);
    cfg.post_fail_rate = 1.0;
    cfg.max_consecutive_failures = 0; // the platform never recovers
    let mut p = FaultyPlatform::new(world_script(), cfg);
    let db = CrowdDB::with_config(chaos_config());
    db.execute(SUITE[0], &mut p).unwrap();
    db.execute(SUITE[2], &mut p).unwrap();
    let r = db.execute(SUITE[3], &mut p).unwrap();
    assert!(!r.complete);
    assert!(r.rows.iter().all(|row| row[1].is_cnull()), "{:?}", r.rows);
    assert_eq!(r.crowd.post_failures, 4, "one batch, four attempts");
    assert_eq!(r.crowd.retries, 3);
    assert!(
        r.warnings.iter().any(|w| w.contains("abandoned")),
        "warnings: {:?}",
        r.warnings
    );
    // The failed needs are remembered as exhausted: the next statement
    // does not hammer the broken platform again.
    let r2 = db.execute(SUITE[3], &mut p).unwrap();
    assert_eq!(r2.crowd.post_failures, 0);
    assert!(!r2.complete);
}

#[test]
fn circuit_breaker_marks_platform_degraded() {
    let mut cfg = FaultConfig::none(3);
    cfg.post_fail_rate = 1.0;
    cfg.max_consecutive_failures = 0;
    let mut p = FaultyPlatform::new(world_script(), cfg);
    let mut config = chaos_config();
    config.retry.breaker_threshold = 3; // trips mid-retry
    let db = CrowdDB::with_config(config);
    db.execute(SUITE[0], &mut p).unwrap();
    db.execute(SUITE[2], &mut p).unwrap();
    let r = db.execute(SUITE[3], &mut p).unwrap();
    assert!(r.crowd.degraded);
    assert_eq!(r.crowd.post_failures, 3, "breaker stops the retry loop");
    assert!(
        r.warnings.iter().any(|w| w.contains("degraded")),
        "warnings: {:?}",
        r.warnings
    );
}

#[test]
fn an_exhausted_need_is_counted_once() {
    // A crowd that submits every form empty and every verdict blank.
    let blank = || {
        MockPlatform::unanimous(|kind: &TaskKind| match kind {
            TaskKind::Probe { asked, .. } => Answer::Form(
                asked
                    .iter()
                    .map(|(col, _)| (col.clone(), String::new()))
                    .collect(),
            ),
            _ => Answer::Blank,
        })
    };
    let exhausted = |db: &CrowdDB| db.metrics().counter("crowddb_crowd_exhausted_needs_total");

    // One need asking two columns, neither answered: one exhausted need,
    // not one per column.
    let db = CrowdDB::with_config(chaos_config());
    let mut p = blank();
    db.execute(SUITE[0], &mut p).unwrap();
    db.execute("INSERT INTO Talk (title) VALUES ('CrowdDB')", &mut p)
        .unwrap();
    let r = db
        .execute("SELECT abstract, nb_attendees FROM Talk", &mut p)
        .unwrap();
    assert_eq!((r.crowd.tasks_posted, r.crowd.gave_up), (1, 1), "{r:?}");
    assert_eq!(exhausted(&db), 1);

    // Three verdicts in one wave. No ballots, so the first HIT asks for
    // more assignments; that fails and trips the breaker, which abandons
    // the other two before settlement finds all three without a verdict.
    let mut config = chaos_config();
    config.retry.breaker_threshold = 1;
    let db = CrowdDB::with_config(config);
    let mut faults = FaultConfig::none(1);
    faults.extend_fail_rate = 1.0;
    let mut p = FaultyPlatform::new(blank(), faults);
    db.execute(SUITE[0], &mut p).unwrap();
    db.execute(
        "INSERT INTO Talk (title) VALUES ('CrowdDB'), ('Qurk'), ('PIQL')",
        &mut p,
    )
    .unwrap();
    let r = db.execute(SUITE[4], &mut p).unwrap();
    assert!(r.crowd.degraded, "{r:?}");
    assert_eq!((r.crowd.tasks_posted, r.crowd.gave_up), (3, 3), "{r:?}");
    assert_eq!(exhausted(&db), 3);
}

#[test]
fn duplicate_deliveries_do_not_double_vote() {
    let mut cfg = FaultConfig::none(5);
    cfg.duplicate_rate = 1.0; // every assignment delivered twice
    let mut p = FaultyPlatform::new(world_script(), cfg);
    let db = CrowdDB::with_config(chaos_config());
    db.execute(SUITE[0], &mut p).unwrap();
    db.execute(SUITE[2], &mut p).unwrap();
    let r = db.execute(SUITE[4], &mut p).unwrap();
    assert!(r.complete, "warnings: {:?}", r.warnings);
    assert_eq!(r.rows.len(), 1, "only CrowdDB matches: {:?}", r.rows);
    assert!(r.crowd.duplicates_dropped >= 4, "summary: {:?}", r.crowd);
}

#[test]
fn metrics_reconcile_exactly_with_summaries_and_fault_stats() {
    // Each wave is added into its statement's summary and into the
    // registry counters by one addition, and the fault counters come
    // from the same increments that feed `FaultStats` — so
    // at a hostile 30% fault rate they must reconcile exactly, per seed,
    // whether fulfillment ingests serially or on a worker pool.
    for (seed, workers) in [(1_u64, 1_usize), (2, 4), (3, 4)] {
        let obs = Obs::new();
        let db = CrowdDB::with_obs(chaos_config_with_workers(workers), obs.clone());
        let mut p = FaultyPlatform::new(world_script(), FaultConfig::uniform(seed, 0.3))
            .with_obs(obs.clone());
        let results: Vec<QueryResult> = SUITE
            .iter()
            .map(|sql| db.execute(sql, &mut p).unwrap())
            .collect();
        let snap = db.metrics();

        assert_eq!(
            snap.counter("crowddb_statements_total"),
            SUITE.len() as u64,
            "seed {seed}"
        );
        let sum = |field: fn(&CrowdSummary) -> u64| -> u64 {
            results.iter().map(|r| field(&r.crowd)).sum()
        };
        assert_eq!(
            snap.counter("crowddb_statement_rounds_total"),
            results.iter().map(|r| r.crowd.rounds as u64).sum::<u64>(),
            "seed {seed}"
        );
        assert_eq!(
            snap.counter("crowddb_crowd_cents_spent_total"),
            sum(|c| c.cents_spent),
            "seed {seed}: cost accounting must match the summaries"
        );
        for (counter, field) in [
            (
                "crowddb_crowd_retries_total",
                (|c| c.retries) as fn(&CrowdSummary) -> u64,
            ),
            ("crowddb_crowd_reposts_total", |c| c.reposts),
            ("crowddb_crowd_duplicates_dropped_total", |c| {
                c.duplicates_dropped
            }),
            ("crowddb_crowd_post_failures_total", |c| c.post_failures),
            ("crowddb_crowd_extend_failures_total", |c| c.extend_failures),
            ("crowddb_crowd_gave_up_total", |c| c.gave_up),
        ] {
            assert_eq!(snap.counter(counter), sum(field), "seed {seed}: {counter}");
        }
        assert_eq!(
            snap.counter("crowddb_crowd_degraded_waves_total") > 0,
            results.iter().any(|r| r.crowd.degraded),
            "seed {seed}"
        );

        let inj = p.injected();
        for (counter, value) in [
            ("crowddb_faults_posts_failed_total", inj.posts_failed),
            ("crowddb_faults_posts_partial_total", inj.posts_partial),
            ("crowddb_faults_hits_orphaned_total", inj.hits_orphaned),
            ("crowddb_faults_hits_lost_total", inj.hits_lost),
            (
                "crowddb_faults_duplicates_injected_total",
                inj.duplicates_injected,
            ),
            ("crowddb_faults_answers_garbled_total", inj.answers_garbled),
            ("crowddb_faults_extends_failed_total", inj.extends_failed),
            ("crowddb_faults_latency_spikes_total", inj.latency_spikes),
        ] {
            assert_eq!(snap.counter(counter), value, "seed {seed}: {counter}");
        }
    }
}

/// Governed chaos: statement deadlines firing mid-round while the
/// platform injects 30% faults. The invariants stack: every statement
/// either succeeds or terminates with the typed `Cancelled` error (never
/// anything else, never a panic); runs are byte-identical per seed at 1
/// and 4 workers — outcomes, metrics, events, and the faults actually
/// injected; paid answers are never discarded (memorized answers
/// survive the cancellation); and the statement-level cost accounting
/// reconciles exactly with the registry.
#[test]
fn deadline_cancellation_under_faults_is_deterministic() {
    use crowddb_common::CrowdError;

    let run = |seed: u64, workers: usize| {
        let mut config = chaos_config_with_workers(workers);
        // Trip after two pump steps (2 × 600 s): deep enough into the
        // round that answers have been collected and paid for.
        config.governor.deadline_virtual_secs = Some(1200.0);
        let obs = Obs::new();
        let db = CrowdDB::with_obs(config, obs.clone());
        let mut p = FaultyPlatform::new(world_script(), FaultConfig::uniform(seed, 0.3))
            .with_obs(obs.clone());
        let outcomes: Vec<String> = SUITE
            .iter()
            .map(|sql| match db.execute(sql, &mut p) {
                Ok(r) => format!("ok complete={} rows={}", r.complete, r.rows.len()),
                Err(CrowdError::Cancelled(reason)) => format!("cancelled {reason:?}"),
                Err(e) => panic!("{sql}: unexpected error class {e}"),
            })
            .collect();
        // Whatever the governed pass memorized before each deadline is
        // kept: an ungoverned re-read must not error and must reuse it.
        let replay = db
            .execute_with_policy(SUITE[3], &mut p, &crowddb_core::GovernorPolicy::default())
            .unwrap();
        (
            outcomes,
            format!("replay tasks={}", replay.crowd.tasks_posted),
            db.metrics().to_prometheus(),
            db.events_jsonl(),
            p.injected(),
        )
    };
    for seed in [1_u64, 2, 3] {
        let golden = run(seed, 1);
        assert!(
            golden.0.iter().any(|o| o.starts_with("cancelled")),
            "seed {seed}: the deadline must fire somewhere: {:?}",
            golden.0
        );
        let again = run(seed, 1);
        assert_eq!(golden.0, again.0, "seed {seed}: outcomes must replay");
        assert_eq!(golden.2, again.2, "seed {seed}: metrics must replay");
        assert_eq!(golden.3, again.3, "seed {seed}: events must replay");
        let parallel = run(seed, 4);
        assert_eq!(
            golden.0, parallel.0,
            "seed {seed}: outcomes diverged at 4 workers"
        );
        assert_eq!(golden.1, parallel.1, "seed {seed}: replay diverged");
        assert_eq!(
            golden.2, parallel.2,
            "seed {seed}: metrics diverged at 4 workers"
        );
        assert_eq!(
            golden.3, parallel.3,
            "seed {seed}: events diverged at 4 workers"
        );
        assert_eq!(
            golden.4, parallel.4,
            "seed {seed}: fault injection diverged at 4 workers"
        );
    }
}

/// Under deadlines + faults, the registry's crowd counters equal the
/// platform's own ledger exactly, the deadline-cancelled statements'
/// waves included: each wave books what the platform counted around it
/// into its statement's ledger and the `crowddb_crowd_*` counters alike,
/// whatever the statement's outcome, and every `statement_end` event
/// carries its statement's ledger.
#[test]
fn governed_metrics_reconcile_with_summaries_under_faults() {
    for seed in [1_u64, 2, 3] {
        let mut config = chaos_config();
        config.governor.deadline_virtual_secs = Some(1200.0);
        let obs = Obs::new();
        let db = CrowdDB::with_obs(config, obs.clone());
        let mut p = FaultyPlatform::new(world_script(), FaultConfig::uniform(seed, 0.3))
            .with_obs(obs.clone());
        let mut cancelled = 0_u64;
        for sql in SUITE {
            match db.execute(sql, &mut p) {
                Ok(_) => {}
                Err(crowddb_common::CrowdError::Cancelled(_)) => cancelled += 1,
                Err(e) => panic!("{sql}: unexpected error class {e}"),
            }
        }
        let snap = db.metrics();
        assert_eq!(
            snap.counter("crowddb_statements_total"),
            SUITE.len() as u64,
            "seed {seed}"
        );
        assert_eq!(
            snap.counter("crowddb_governor_cancelled_total"),
            cancelled,
            "seed {seed}"
        );
        assert_eq!(
            snap.counter("crowddb_statement_errors_total"),
            cancelled,
            "seed {seed}: cancellations are the only errors"
        );
        let platform = p.stats();
        for (counter, value) in [
            ("crowddb_crowd_cents_spent_total", platform.cents_spent),
            ("crowddb_crowd_tasks_posted_total", platform.hits_posted),
            (
                "crowddb_crowd_answers_total",
                platform.assignments_completed,
            ),
        ] {
            assert_eq!(snap.counter(counter), value, "seed {seed}: {counter}");
        }
        let event_cents: u64 = obs
            .events()
            .records()
            .into_iter()
            .map(|r| match r.event {
                crowddb_core::Event::StatementEnd { cents, .. } => cents,
                _ => 0,
            })
            .sum();
        assert_eq!(event_cents, platform.cents_spent, "seed {seed}: events");
    }
}

#[test]
fn lost_hits_are_reposted_then_given_up() {
    let mut cfg = FaultConfig::none(11);
    cfg.lose_hit_rate = 1.0; // every HIT vanishes
    let mut p = FaultyPlatform::new(world_script(), cfg);
    let db = CrowdDB::with_config(chaos_config());
    db.execute(SUITE[0], &mut p).unwrap();
    db.execute("INSERT INTO Talk (title) VALUES ('CrowdDB')", &mut p)
        .unwrap();
    let r = db
        .execute("SELECT abstract FROM Talk WHERE title = 'CrowdDB'", &mut p)
        .unwrap();
    assert!(!r.complete);
    assert!(r.rows[0][0].is_cnull());
    assert_eq!(r.crowd.reposts, 2, "bounded reposts per need");
    assert_eq!(r.crowd.tasks_posted, 3, "original + two reposts");
    assert!(r.crowd.gave_up >= 1);
    assert!(
        r.warnings.iter().any(|w| w.contains("CNULL")),
        "warnings: {:?}",
        r.warnings
    );
}
