//! E13 — Resource-governor overhead.
//!
//! Every governed statement pays for its safety: an admission handshake
//! at entry, a `catch_unwind` frame, and a cooperative-cancellation
//! checkpoint in every operator's per-row loop. The design target
//! (DESIGN.md §11) is that this costs **under 2%** on row-heavy local
//! work and is unmeasurable on crowd-bound work, where a single HIT's
//! virtual latency dwarfs a million checkpoint branches.
//!
//! Three paths over identical statements:
//!
//! * **ungoverned** — `execute_local`, which runs the same plans under
//!   `StatementGuard::unlimited()`: the checkpoint fast path is a single
//!   branch and nothing is counted. The pre-governor baseline.
//! * **governed (default)** — `execute` with the default policy: cancel
//!   flag armed (one relaxed atomic load per checkpoint), admission and
//!   panic containment active, no limits set.
//! * **governed (all limits)** — deadline, output/intermediate row caps,
//!   and crowd budget all armed (generously, so nothing trips).
//!
//! Rows must be identical across all three before a time is reported.

#![forbid(unsafe_code)]

use std::time::Instant;

use crowddb_bench::harness::ExperimentOutput;
use crowddb_core::{CrowdConfig, CrowdDB, GovernorPolicy};
use crowddb_platform::{Answer, MockPlatform, TaskKind};

const ROWS: usize = 20_000;
const DIM_ROWS: usize = 100;
const REPS: usize = 20;

/// The row-heavy local analytics suite: scan+filter, aggregation, a
/// dimension join, and a sort — every per-row loop with a checkpoint.
const LOCAL_SUITE: &[&str] = &[
    "SELECT id FROM item WHERE val > 50",
    "SELECT COUNT(*), MAX(val), MIN(val) FROM item",
    "SELECT d.name, COUNT(*) FROM item i, dim d WHERE i.val = d.id GROUP BY d.name",
    "SELECT id FROM item ORDER BY val DESC LIMIT 10",
];

fn crowd() -> MockPlatform {
    MockPlatform::unanimous(|kind| match kind {
        TaskKind::Probe { asked, .. } => Answer::Form(
            asked
                .iter()
                .map(|(c, _)| (c.clone(), "a crowd-enabled database".to_string()))
                .collect(),
        ),
        _ => Answer::Blank,
    })
}

fn seed_local(db: &CrowdDB) {
    let mut p = crowd();
    db.execute(
        "CREATE TABLE item (id INTEGER PRIMARY KEY, val INTEGER)",
        &mut p,
    )
    .expect("ddl");
    db.execute(
        "CREATE TABLE dim (id INTEGER PRIMARY KEY, name STRING)",
        &mut p,
    )
    .expect("ddl");
    for chunk in (0..ROWS).collect::<Vec<_>>().chunks(500) {
        let values: Vec<String> = chunk
            .iter()
            .map(|i| format!("({i}, {})", i % DIM_ROWS))
            .collect();
        db.execute(
            &format!("INSERT INTO item VALUES {}", values.join(", ")),
            &mut p,
        )
        .expect("insert");
    }
    for i in 0..DIM_ROWS {
        db.execute(
            &format!("INSERT INTO dim VALUES ({i}, 'bucket-{i:03}')"),
            &mut p,
        )
        .expect("insert");
    }
}

/// Generous limits: everything armed, nothing trips.
fn all_limits() -> GovernorPolicy {
    GovernorPolicy {
        deadline_virtual_secs: Some(1e12),
        max_output_rows: Some(u64::MAX),
        max_intermediate_rows: Some(u64::MAX),
        max_crowd_cents: Some(u64::MAX),
        ..GovernorPolicy::default()
    }
}

/// Best-of-`reps` wall seconds for one pass of the local suite through
/// `run`, with the row payload checked against `golden` on every pass.
/// Min-of-reps filters out container noise (GC of neighbors, page cache
/// churn) that a single long total cannot.
fn time_suite(reps: usize, golden: &mut Vec<usize>, mut run: impl FnMut(&str) -> usize) -> f64 {
    let mut best = f64::INFINITY;
    for rep in 0..reps {
        let start = Instant::now();
        for sql in LOCAL_SUITE.iter() {
            run(sql);
        }
        best = best.min(start.elapsed().as_secs_f64());
        for (qi, sql) in LOCAL_SUITE.iter().enumerate() {
            let rows = run(sql);
            if golden.len() <= qi {
                golden.push(rows);
            } else {
                assert_eq!(golden[qi], rows, "rep {rep}: {sql} diverged");
            }
        }
    }
    best
}

fn main() {
    let mut out = ExperimentOutput::new(
        "E13",
        "resource-governor overhead: admission + panic containment + per-row \
         cancellation checkpoints, vs the ungoverned execution path",
    );
    out.headers = vec![
        "path".into(),
        "best pass ms".into(),
        "vs ungoverned".into(),
        "rows/pass".into(),
    ];

    let db = CrowdDB::with_config(CrowdConfig::fast_test());
    seed_local(&db);
    let mut golden: Vec<usize> = Vec::new();

    // Warm-up pass (populate caches, fault in pages) — untimed.
    for sql in LOCAL_SUITE {
        db.execute_local(sql).expect("warmup").rows.len();
    }

    let ungoverned = time_suite(REPS, &mut golden, |sql| {
        db.execute_local(sql).expect(sql).rows.len()
    });
    let governed = time_suite(REPS, &mut golden, |sql| {
        let mut p = crowd();
        db.execute(sql, &mut p).expect(sql).rows.len()
    });
    let armed_policy = all_limits();
    let armed = time_suite(REPS, &mut golden, |sql| {
        let mut p = crowd();
        db.execute_with_policy(sql, &mut p, &armed_policy)
            .expect(sql)
            .rows
            .len()
    });

    let rows_checked: usize = golden.iter().sum::<usize>();
    let pct = |t: f64| format!("{:+.2}%", (t / ungoverned - 1.0) * 100.0);
    out.rows.push(vec![
        "ungoverned (execute_local)".into(),
        format!("{:.2}", ungoverned * 1e3),
        "1.00×".into(),
        rows_checked.to_string(),
    ]);
    out.rows.push(vec![
        "governed, default policy".into(),
        format!("{:.2}", governed * 1e3),
        pct(governed),
        rows_checked.to_string(),
    ]);
    out.rows.push(vec![
        "governed, all limits armed".into(),
        format!("{:.2}", armed * 1e3),
        pct(armed),
        rows_checked.to_string(),
    ]);

    // Crowd-bound side: the E8b-style probe workload, where checkpoint
    // cost must vanish under the crowd round machinery.
    {
        let run = |policy: Option<&GovernorPolicy>| {
            let db = CrowdDB::with_config(CrowdConfig::fast_test());
            let mut p = crowd();
            db.execute(
                "CREATE TABLE talk (title STRING PRIMARY KEY, abstract CROWD STRING)",
                &mut p,
            )
            .expect("ddl");
            for i in 0..40 {
                db.execute(
                    &format!("INSERT INTO talk (title) VALUES ('talk-{i:03}')"),
                    &mut p,
                )
                .expect("insert");
            }
            let start = Instant::now();
            let r = match policy {
                Some(pol) => db
                    .execute_with_policy("SELECT title, abstract FROM talk", &mut p, pol)
                    .expect("probe"),
                None => db
                    .execute("SELECT title, abstract FROM talk", &mut p)
                    .expect("probe"),
            };
            assert!(r.complete && r.crowd.tasks_posted == 40);
            start.elapsed().as_secs_f64()
        };
        let default_t = run(None);
        let armed_t = run(Some(&all_limits()));
        out.notes.push(format!(
            "E8b probe workload (40 tasks): default policy {:.2} ms, all limits \
             armed {:.2} ms — crowd-bound work amortizes every checkpoint",
            default_t * 1e3,
            armed_t * 1e3,
        ));
    }
    out.notes.push(format!(
        "local suite: best of {REPS} passes × {} queries over {ROWS} base rows; \
         rows byte-checked across all three paths before timing is reported",
        LOCAL_SUITE.len(),
    ));

    out.print();
}
