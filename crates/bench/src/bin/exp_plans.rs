//! E8 — Plan quality: boundedness and crowd-call minimization (paper
//! §3.2.2: predicate push-down, stop-after push-down, join ordering, and
//! the boundedness check).
//!
//! Two parts:
//!
//! 1. **Boundedness table** — the compile-time verdict for a family of
//!    queries over `Talk` (electronic, CROWD columns) and
//!    `NotableAttendee` (CROWD table), with the estimated crowd-call
//!    bound. This reproduces the optimizer behaviour the paper describes:
//!    "warns the user at compile-time if the number of requests cannot
//!    be bounded".
//!
//! 2. **Optimizer ablation** — the same query executed with the full
//!    rule set vs with predicate push-down / crowd isolation disabled,
//!    counting how many crowd tasks one execution round would request.
//!    Push-down exists precisely to minimize requests against the crowd.

#![forbid(unsafe_code)]

use crowddb_bench::harness::ExperimentOutput;
use crowddb_common::row;
use crowddb_common::Value;
use crowddb_exec::{
    execute_physical_analyzed, lower_plan, render_analyzed, CompareCaches, ExecGuard,
};
use crowddb_plan::cardinality::FnStats;
use crowddb_plan::{analyze_boundedness, optimize, Binder, OptimizerConfig};
use crowddb_sql::{parse_statement, Statement};
use crowddb_storage::Database;

fn setup() -> Database {
    let db = Database::new();
    for ddl in [
        "CREATE TABLE talk (title STRING PRIMARY KEY, abstract CROWD STRING, \
         nb_attendees CROWD INTEGER, track STRING)",
        "CREATE CROWD TABLE notableattendee (name STRING PRIMARY KEY, title STRING, \
         FOREIGN KEY (title) REF talk(title))",
    ] {
        let Statement::CreateTable(ct) = parse_statement(ddl).unwrap() else {
            panic!()
        };
        let schema = db.with_catalog(|c| c.schema_from_ast(&ct)).unwrap();
        db.create_table(schema).unwrap();
    }
    for i in 0..40 {
        let track = if i % 4 == 0 { "demo" } else { "research" };
        db.insert(
            "talk",
            row![format!("talk-{i:02}"), Value::CNull, Value::CNull, track],
        )
        .unwrap();
    }
    db
}

fn main() {
    let db = setup();
    let stats_fn = |t: &str| db.stats(t).ok().map(|s| s.live_rows as u64);
    let pk = |t: &str| -> Vec<usize> { db.schema(t).map(|s| s.primary_key).unwrap_or_default() };

    // Part 1: boundedness verdicts.
    let mut out = ExperimentOutput::new(
        "E8a",
        "compile-time boundedness verdicts and crowd-call bounds",
    );
    out.headers = vec![
        "query".into(),
        "verdict".into(),
        "est. crowd batches".into(),
    ];
    let queries = [
        "SELECT title FROM talk",
        "SELECT abstract FROM talk WHERE title = 'talk-00'",
        "SELECT abstract FROM talk",
        "SELECT name FROM notableattendee",
        "SELECT name FROM notableattendee LIMIT 10",
        "SELECT title FROM notableattendee WHERE name = 'Mike Franklin'",
        "SELECT t.title, n.name FROM talk t JOIN notableattendee n ON t.title = n.title",
        "SELECT name FROM notableattendee ORDER BY name LIMIT 5",
    ];
    for sql in queries {
        let Statement::Select(q) = parse_statement(sql).unwrap() else {
            panic!()
        };
        let bound = db.with_catalog(|c| Binder::new(c).bind_query(&q)).unwrap();
        let plan = optimize(bound, &FnStats(stats_fn), &OptimizerConfig::default());
        let report = analyze_boundedness(&plan, &FnStats(stats_fn), &pk);
        out.rows.push(vec![
            sql.to_string(),
            if report.bounded {
                "BOUNDED".into()
            } else {
                "UNBOUNDED".into()
            },
            report
                .estimated_crowd_calls
                .map(|c| c.to_string())
                .unwrap_or_else(|| "-".into()),
        ]);
    }
    out.notes.push(
        "expected: bare CROWD-table scans and machine-sort-under-limit are the only \
         UNBOUNDED plans; LIMIT, key predicates, and finite join outers bound the rest"
            .into(),
    );
    out.print();

    // Part 2: ablation — crowd tasks requested in one round, full
    // optimizer vs no push-down.
    let mut out2 = ExperimentOutput::new(
        "E8b",
        "optimizer ablation: crowd tasks requested per round (push-down minimizes \
         requests against the crowd)",
    );
    out2.headers = vec![
        "optimizer".into(),
        "crowd tasks round 1".into(),
        "rows scanned".into(),
    ];
    // Only demo-track talks (10 of 40) matter. The derived table keeps
    // the predicate away from the scan unless push-down moves it there;
    // the fused filter-scan then skips probing the 30 rejected rows.
    let sql = "SELECT d.abstract FROM (SELECT * FROM talk) AS d \
               WHERE d.track = 'demo'";
    let Statement::Select(q) = parse_statement(sql).unwrap() else {
        panic!()
    };
    for (label, config) in [
        ("full rule set", OptimizerConfig::default()),
        (
            "no push-down",
            OptimizerConfig {
                pushdown_predicates: false,
                ..OptimizerConfig::default()
            },
        ),
        (
            "no rules at all",
            OptimizerConfig {
                fold_constants: false,
                pushdown_predicates: false,
                reorder_joins: false,
                pushdown_limit: false,
            },
        ),
    ] {
        let bound = db.with_catalog(|c| Binder::new(c).bind_query(&q)).unwrap();
        let plan = optimize(bound, &FnStats(stats_fn), &config);
        let caches = CompareCaches::default();
        let physical = lower_plan(&db, &plan);
        // Rendered below: the analyzed run, whose `time=` is self time.
        let (result, op_stats) =
            execute_physical_analyzed(&db, &caches, &physical, ExecGuard::unlimited()).unwrap();
        out2.rows.push(vec![
            label.to_string(),
            result.needs.len().to_string(),
            result.stats.rows_scanned.to_string(),
        ]);
        out2.op_stats.push(format!("-- {label} --"));
        out2.op_stats.extend(
            render_analyzed(&physical, &op_stats)
                .lines()
                .map(String::from),
        );
    }
    out2.notes.push(
        "expected: with push-down the track predicate reaches the scan and only the \
         10 demo-track rows are probed; without it, all 40 rows with missing \
         abstracts generate crowd tasks — a 4x cost difference, the paper's \
         motivation for crowd-aware rewriting"
            .into(),
    );
    out2.print();
}
