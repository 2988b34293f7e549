//! E12 — Concurrency: parallel round fulfillment and multi-session
//! throughput.
//!
//! Two scaling questions, one per part:
//!
//! 1. **Parallel fulfillment** — the same E8b-style probe workload
//!    (CROWD columns over `talk`, replication 3, ~1 KB free-text
//!    answers so QC normalization dominates) run with
//!    `concurrency.fulfill_workers` at 1/2/4/8. Platform traffic stays
//!    serial on the coordinator; only answer ingest (normalization and
//!    vote tallies) fans out, so every worker count must produce
//!    identical results — the bench asserts row-for-row equality while
//!    timing the difference.
//! 2. **Multi-session reads** — one `Arc<CrowdDB>` pre-warmed so
//!    every probe answer is already written back, then T threads each
//!    running a batch of SELECTs with their own platform handle.
//!    Statements/sec vs thread count shows what the storage RwLock and
//!    the one verdict-cache RwLock (each round reads its own copy) allow.

#![forbid(unsafe_code)]

use std::sync::Arc;
use std::time::Instant;

use crowddb_bench::harness::ExperimentOutput;
use crowddb_core::{CrowdConfig, CrowdDB, QueryResult};
use crowddb_platform::{Answer, MockPlatform, TaskKind};
use crowddb_quality::VoteConfig;

const TALKS: usize = 120;
const READ_BATCH: usize = 40;

/// ~1 KB of answer text: large enough that normalization and vote
/// bookkeeping are the round's dominant cost, as they are when real
/// crowd prose comes back.
fn long_answer(seed: &str) -> String {
    let mut s = String::with_capacity(1024);
    while s.len() < 1000 {
        s.push_str(seed);
        s.push_str(" is a crowd-enabled database system answer segment. ");
    }
    s
}

fn crowd() -> MockPlatform {
    MockPlatform::unanimous(|kind| match kind {
        TaskKind::Probe { asked, .. } => Answer::Form(
            asked
                .iter()
                .map(|(c, _)| {
                    let text = if c == "abstract" {
                        long_answer(c)
                    } else {
                        "120".to_string()
                    };
                    (c.clone(), text)
                })
                .collect(),
        ),
        _ => Answer::Blank,
    })
}

fn config(workers: usize) -> CrowdConfig {
    let mut c = CrowdConfig::fast_test();
    c.vote = VoteConfig::replicated(3);
    c.concurrency.fulfill_workers = workers;
    c
}

/// Create the schema, insert talks, probe every crowd column. Returns
/// (wall seconds of the probe query, its result).
fn run_probe(db: &CrowdDB) -> (f64, QueryResult) {
    let mut p = crowd();
    db.execute(
        "CREATE TABLE talk (title STRING PRIMARY KEY, abstract CROWD STRING, \
         nb_attendees CROWD INTEGER)",
        &mut p,
    )
    .expect("ddl");
    for i in 0..TALKS {
        db.execute(
            &format!("INSERT INTO talk (title) VALUES ('talk-{i:03}')"),
            &mut p,
        )
        .expect("insert");
    }
    let start = Instant::now();
    let r = db
        .execute("SELECT title, abstract, nb_attendees FROM talk", &mut p)
        .expect("probe all");
    assert!(r.complete, "workload must finish: {:?}", r.warnings);
    (start.elapsed().as_secs_f64(), r)
}

fn main() {
    let mut out = ExperimentOutput::new(
        "E12",
        "parallel round fulfillment and multi-session read throughput \
         (determinism asserted: every worker count returns identical rows)",
    );
    out.headers = vec![
        "configuration".into(),
        "wall ms".into(),
        "speedup".into(),
        "tasks".into(),
    ];

    // Part 1: fulfillment workers. Serial run is the golden.
    let mut golden: Option<QueryResult> = None;
    let mut serial_ms = 0.0;
    for workers in [1usize, 2, 4, 8] {
        let db = CrowdDB::with_config(config(workers));
        let (secs, r) = run_probe(&db);
        let ms = secs * 1e3;
        match &golden {
            None => {
                golden = Some(r);
                serial_ms = ms;
            }
            Some(g) => {
                assert_eq!(g.rows, r.rows, "workers={workers} changed the answer");
                assert_eq!(
                    g.crowd.tasks_posted, r.crowd.tasks_posted,
                    "workers={workers} changed crowd traffic"
                );
            }
        }
        out.rows.push(vec![
            format!("fulfill workers={workers}"),
            format!("{ms:.2}"),
            format!("{:.2}x", serial_ms / ms.max(1e-9)),
            golden
                .as_ref()
                .map(|g| g.crowd.tasks_posted.to_string())
                .unwrap_or_default(),
        ]);
    }

    // Part 2: concurrent sessions over one warmed database.
    let db = Arc::new(CrowdDB::with_config(config(1)));
    let (_, warm) = run_probe(&db);
    assert!(warm.complete);
    let mut single_thread_ms = 0.0;
    for threads in [1usize, 2, 4, 8] {
        let start = Instant::now();
        std::thread::scope(|scope| {
            for _ in 0..threads {
                let db = Arc::clone(&db);
                scope.spawn(move || {
                    let mut p = crowd();
                    for _ in 0..READ_BATCH {
                        let r = db
                            .execute("SELECT title, abstract, nb_attendees FROM talk", &mut p)
                            .expect("warm select");
                        assert!(r.complete);
                        assert_eq!(r.rows.len(), TALKS);
                        assert_eq!(r.crowd.tasks_posted, 0, "warm read must not hit the crowd");
                    }
                });
            }
        });
        let ms = start.elapsed().as_secs_f64() * 1e3;
        if threads == 1 {
            single_thread_ms = ms;
        }
        let stmts = (threads * READ_BATCH) as f64;
        out.rows.push(vec![
            format!("sessions={threads} ({READ_BATCH} reads each)"),
            format!("{ms:.2}"),
            format!(
                "{:.2}x stmt/s",
                (stmts / ms) / ((READ_BATCH as f64) / single_thread_ms.max(1e-9))
            ),
            "0".into(),
        ]);
    }

    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    out.notes.push(format!(
        "{TALKS} talks, 2 crowd columns, replication 3, ~1 KB answers; part 1 \
         varies concurrency.fulfill_workers, part 2 runs warm SELECTs from N \
         threads over one Arc<CrowdDB>; detected hardware parallelism: {cores} \
         (speedups are bounded by this — on a single core every configuration \
         should tie)"
    ));
    out.notes.push(
        "expected: part 1 wall time drops with >=4 workers while rows/tasks stay \
         byte-identical; part 2 statements/sec scales with sessions (reads share \
         the storage RwLock and copy the verdict cache under its read lock)"
            .into(),
    );
    out.print();
}
