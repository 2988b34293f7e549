//! Differential oracle for continuous queries.
//!
//! The contract under test: after **every** statement of a mixed
//! workload — DML commits and crowd-round settlements alike — the state
//! a subscriber accumulates by applying delta batches is byte-identical
//! to a fresh one-shot re-execution of the same query against current
//! storage. Across fault rates (0% and 30% injected platform faults),
//! seeds, and worker counts — and the delta stream itself must be
//! byte-identical between serial and parallel fulfillment.

use crowddb_core::{canonical_rows, CrowdConfig, CrowdDB, DeltaBatch, SubscriberState};
use crowddb_platform::{FaultConfig, FaultyPlatform};

mod common;
use common::world_script;

const DDL: &str = "CREATE TABLE Talk (
    title STRING PRIMARY KEY,
    abstract CROWD STRING )";

/// The scripted mixed workload: local DML, crowd probes (each settles
/// rounds and triggers re-evaluation), updates, deletes.
const SCRIPT: &[&str] = &[
    "INSERT INTO Talk (title) VALUES ('CrowdDB'), ('Qurk'), ('PIQL')",
    "SELECT abstract FROM Talk WHERE title = 'CrowdDB'",
    "INSERT INTO Talk (title) VALUES ('HyPer')",
    "SELECT abstract FROM Talk WHERE title = 'Qurk'",
    "UPDATE Talk SET abstract = 'edited by hand' WHERE title = 'PIQL'",
    "SELECT abstract FROM Talk WHERE title = 'HyPer'",
    "DELETE FROM Talk WHERE title = 'Qurk'",
    "INSERT INTO Talk (title) VALUES ('Datomic')",
    "SELECT abstract FROM Talk WHERE title = 'Datomic'",
    "SELECT title, abstract FROM Talk",
];

/// The standing queries the oracle checks after every statement.
const WATCHES: &[&str] = &[
    "SELECT title, abstract FROM Talk",
    "SELECT title FROM Talk WHERE title = 'CrowdDB'",
];

/// Drain one subscription, applying every batch to the accumulated
/// state. A lag error is consumed (the next poll resyncs); anything else
/// fails the test. Returns the drained batches for stream comparison.
fn drain(db: &CrowdDB, id: u64, acc: &mut SubscriberState) -> Vec<DeltaBatch> {
    let mut out = Vec::new();
    loop {
        match db.poll_subscription(id) {
            Ok(Some(batch)) => {
                acc.apply(&batch).expect("apply batch");
                out.push(batch);
            }
            Ok(None) => return out,
            Err(e) if e.category() == "subscription-lagged" => continue,
            Err(e) => panic!("poll failed: {e}"),
        }
    }
}

/// Run the scripted workload once; after every statement, check each
/// subscriber's accumulated state against a fresh one-shot re-execution.
/// Returns the full delta stream per watch for determinism comparison.
fn run_workload(seed: u64, fault_rate: f64, workers: usize) -> Vec<Vec<DeltaBatch>> {
    let mut config = CrowdConfig::fast_test();
    config.concurrency.fulfill_workers = workers;
    let db = CrowdDB::with_config(config);
    let mut platform = FaultyPlatform::new(
        world_script(),
        if fault_rate > 0.0 {
            FaultConfig::uniform(seed, fault_rate)
        } else {
            FaultConfig::none(seed)
        },
    );

    db.execute_local(DDL).expect("ddl");
    let mut subs = Vec::new();
    for sql in WATCHES {
        let (id, _) = db.subscribe_id(sql).expect("subscribe");
        subs.push((id, *sql, SubscriberState::new(), Vec::new()));
    }

    for stmt in SCRIPT {
        db.execute(stmt, &mut platform)
            .unwrap_or_else(|e| panic!("seed {seed} faults {fault_rate}: {stmt}: {e}"));
        for (id, sql, acc, stream) in subs.iter_mut() {
            stream.extend(drain(&db, *id, acc));
            // The oracle: a fresh one-shot evaluation of the standing
            // query against current storage (no crowd engagement) must
            // match the accumulated delta state byte for byte.
            let fresh = db.execute_local(sql).expect("oracle re-execution");
            assert_eq!(
                acc.canonical(),
                canonical_rows(&fresh.rows),
                "seed {seed} faults {fault_rate} workers {workers}: \
                 subscriber for {sql:?} diverged from re-execution after {stmt:?}"
            );
        }
    }
    subs.into_iter().map(|(_, _, _, stream)| stream).collect()
}

#[test]
fn accumulated_deltas_match_reexecution_across_seeds_and_faults() {
    for seed in [11u64, 42, 1009] {
        for fault_rate in [0.0, 0.3] {
            let streams = run_workload(seed, fault_rate, 1);
            // The workload must actually exercise the delta machinery.
            assert!(
                streams.iter().any(|s| s.len() > 2),
                "seed {seed} faults {fault_rate}: workload produced almost no deltas"
            );
        }
    }
}

#[test]
fn delta_streams_are_byte_identical_across_worker_counts() {
    for seed in [11u64, 42, 1009] {
        for fault_rate in [0.0, 0.3] {
            let serial = run_workload(seed, fault_rate, 1);
            let parallel = run_workload(seed, fault_rate, 4);
            assert_eq!(
                serial, parallel,
                "seed {seed} faults {fault_rate}: delta stream diverged \
                 between serial and 4-worker fulfillment"
            );
        }
    }
}
