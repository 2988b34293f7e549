//! Join order in a statement that asks no crowd: the optimizer starts
//! each left-deep chain with its largest relation, so every hash join
//! probes with the stream and builds on a smaller input, and drops the
//! restoring projection when that order is the written one. Whatever
//! order it picks, a join returns the same multiset of rows as with
//! reordering off.

use crowddb_common::rng::Rng;
use crowddb_common::{Row, Value};
use crowddb_exec::{execute_physical, live_row_stats, lower_plan, CompareCaches};
use crowddb_plan::{optimize, Binder, OptimizerConfig, PhysicalPlan};
use crowddb_sql::{parse_statement, Statement};
use crowddb_storage::Database;

/// Three machine tables of different sizes whose join keys repeat, go
/// missing, and mix INTEGER with FLOAT (`3 = 3.0` joins).
fn world(seed: u64) -> Database {
    let mut rng = Rng::seed_from_u64(seed);
    let db = Database::new();
    for ddl in [
        "CREATE TABLE big (id INTEGER PRIMARY KEY, k INTEGER, v STRING)",
        "CREATE TABLE mid (id INTEGER PRIMARY KEY, k FLOAT, j INTEGER)",
        "CREATE TABLE small (j INTEGER PRIMARY KEY, w STRING)",
    ] {
        let Statement::CreateTable(ct) = parse_statement(ddl).unwrap() else {
            panic!("{ddl}")
        };
        let schema = db.with_catalog(|c| c.schema_from_ast(&ct)).unwrap();
        db.create_table(schema).unwrap();
    }
    let key = |rng: &mut Rng| match rng.gen_range(0..6) {
        0 => None,
        _ => Some(rng.gen_range(0..12i64)),
    };
    for id in 0..300 {
        let k = key(&mut rng).map_or(Value::Null, Value::Int);
        let v = Value::str(format!("v{}", rng.gen_range(0..4)));
        db.insert("big", Row::new(vec![Value::Int(id), k, v]))
            .unwrap();
    }
    for id in 0..40 {
        let k = key(&mut rng).map_or(Value::Null, |k| Value::Float(k as f64));
        let j = Value::Int(rng.gen_range(0..8));
        db.insert("mid", Row::new(vec![Value::Int(id), k, j]))
            .unwrap();
    }
    for j in 0..6 {
        db.insert(
            "small",
            Row::new(vec![Value::Int(j), Value::str(format!("w{j}"))]),
        )
        .unwrap();
    }
    db
}

fn physical(db: &Database, sql: &str, reorder: bool) -> PhysicalPlan {
    let Statement::Select(q) = parse_statement(sql).unwrap() else {
        panic!("not a select: {sql}")
    };
    let bound = db.with_catalog(|c| Binder::new(c).bind_query(&q)).unwrap();
    let config = OptimizerConfig {
        reorder_joins: reorder,
        ..OptimizerConfig::default()
    };
    lower_plan(db, &optimize(bound, &live_row_stats(db), &config))
}

/// The rows as a sorted multiset, variants told apart.
fn multiset(db: &Database, plan: &PhysicalPlan) -> Vec<String> {
    let result = execute_physical(db, &CompareCaches::default(), plan)
        .unwrap()
        .0;
    assert!(result.needs.is_empty());
    let mut rows: Vec<String> = result.rows.iter().map(|r| format!("{r:?}")).collect();
    rows.sort();
    rows
}

const JOINS: &[&str] = &[
    "SELECT b.id, m.id FROM big b JOIN mid m ON b.k = m.k",
    "SELECT b.id, m.id FROM mid m JOIN big b ON b.k = m.k",
    "SELECT * FROM small s, big b WHERE s.j = b.k AND b.v <> 'v0'",
    "SELECT b.v, COUNT(*) FROM mid m JOIN big b ON m.k = b.k GROUP BY b.v",
    "SELECT b.id, m.id, s.w FROM big b JOIN mid m ON b.k = m.k JOIN small s ON m.j = s.j",
    "SELECT * FROM small s, mid m, big b WHERE m.j = s.j AND b.k = m.k",
    "SELECT s.w, b.id FROM small s, big b, mid m WHERE b.k = m.k AND m.j = s.j AND s.j > 1",
    "SELECT b.id, s.j FROM big b, small s WHERE b.k < s.j AND b.id < 20",
    "SELECT m.id, s.w FROM mid m, small s",
];

#[test]
fn reordered_joins_return_what_the_written_order_returns() {
    for seed in 1..=4 {
        let db = world(seed);
        for sql in JOINS {
            let (on, off) = (physical(&db, sql, true), physical(&db, sql, false));
            let rows = multiset(&db, &on);
            assert!(!rows.is_empty(), "{sql}");
            assert_eq!(rows, multiset(&db, &off), "{sql}\n{}", on.explain());
        }
    }
}

/// The largest relation is the probe side of every join of its chain,
/// the smaller ones are built; a chain written largest-first keeps its
/// columns where they were and needs no restoring projection.
#[test]
fn the_largest_relation_is_probed_and_the_smaller_ones_built() {
    let db = world(1);
    let scans = |plan: &PhysicalPlan| {
        let text = plan.explain();
        let tables: Vec<String> = text
            .lines()
            .filter_map(|l| l.trim_start().strip_prefix("TableScan "))
            .map(|l| l.split_whitespace().next().unwrap().to_string())
            .collect();
        (tables, text.matches("Project").count())
    };
    // (statement, scans in plan order, projections)
    let cases: [(&str, [&str; 3], usize); 2] = [
        (
            "SELECT b.id, m.id, s.w FROM big b JOIN mid m ON b.k = m.k JOIN small s ON m.j = s.j",
            ["big", "mid", "small"],
            1,
        ),
        (
            "SELECT * FROM small s, mid m, big b WHERE m.j = s.j AND b.k = m.k",
            ["big", "mid", "small"],
            2,
        ),
    ];
    for (sql, order, projections) in cases {
        let plan = physical(&db, sql, true);
        let (tables, projects) = scans(&plan);
        assert_eq!(tables, order, "{sql}\n{}", plan.explain());
        assert_eq!(projects, projections, "{sql}\n{}", plan.explain());
    }
}
