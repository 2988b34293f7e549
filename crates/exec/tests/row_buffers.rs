//! A producer lends its consumer one row buffer, which it refills for
//! every row (`ops::Sink`). These pin both halves of that contract: a
//! streaming consumer that never takes its row sees the same buffer for
//! a whole pass, and no string, `NULL`, `CNULL` or column of an earlier
//! row survives the refill of a later one.

use crowddb_common::{row, Row, Value};
use crowddb_exec::ops::{self, OpStatsNode};
use crowddb_exec::{execute_physical, lower_plan, CompareCaches, ExecCtx, Flow};
use crowddb_plan::cardinality::FnStats;
use crowddb_plan::{optimize, Binder, OptimizerConfig, PhysicalPlan};
use crowddb_sql::{parse_statement, Statement};
use crowddb_storage::Database;

fn database(ddl: &[&str]) -> Database {
    let db = Database::new();
    for ddl in ddl {
        let Statement::CreateTable(ct) = parse_statement(ddl).unwrap() else {
            panic!("{ddl}")
        };
        let schema = db.with_catalog(|c| c.schema_from_ast(&ct)).unwrap();
        db.create_table(schema).unwrap();
    }
    db
}

fn physical(db: &Database, sql: &str) -> PhysicalPlan {
    let Statement::Select(q) = parse_statement(sql).unwrap() else {
        panic!("not a select: {sql}")
    };
    let bound = db.with_catalog(|c| Binder::new(c).bind_query(&q)).unwrap();
    let stats = FnStats(|_t: &str| Some(100));
    lower_plan(db, &optimize(bound, &stats, &OptimizerConfig::default()))
}

fn rows(db: &Database, plan: &PhysicalPlan) -> Vec<Row> {
    execute_physical(db, &CompareCaches::default(), plan)
        .unwrap()
        .0
        .rows
}

/// Run `plan` into a sink that reads each lent row and never takes it:
/// the address of each row's values, and a copy of each row.
fn lent(db: &Database, plan: &PhysicalPlan) -> (Vec<*const Value>, Vec<Row>) {
    let caches = CompareCaches::default();
    let mut ctx = ExecCtx::new(db, &caches);
    let op = ops::build(plan);
    let mut node = OpStatsNode::skeleton(plan);
    let (mut at, mut copies) = (Vec::new(), Vec::new());
    ops::run_op(op.as_ref(), &mut ctx, &mut node, &mut |_, row| {
        at.push(row.values().as_ptr());
        copies.push(row.clone());
        Ok(Flow::More)
    })
    .unwrap();
    (at, copies)
}

/// The input of the plan's `Aggregate` node: where the aggregate's row
/// function sits as a streaming consumer.
fn aggregate_input(plan: &PhysicalPlan) -> &PhysicalPlan {
    match plan {
        PhysicalPlan::Aggregate { input, .. } => input,
        other => aggregate_input(other.children()[0]),
    }
}

fn conference() -> Database {
    let db = database(&[
        "CREATE TABLE attendee (id INTEGER PRIMARY KEY, name STRING, talk INTEGER, \
         age INTEGER, city STRING)",
        "CREATE TABLE talk (id INTEGER PRIMARY KEY, title STRING, track STRING)",
    ]);
    for id in 0..12i64 {
        let track = ["systems", "crowd", "ml"][id as usize % 3];
        db.insert("talk", row![id, format!("talk {id}"), track])
            .unwrap();
    }
    for id in 0..300i64 {
        let name = format!("attendee-{id:05}-{}", "x".repeat(id as usize % 17));
        let city = ["Seattle", "Zurich", "Lyon", "Oslo"][id as usize % 4];
        db.insert("attendee", row![id, name, id % 12, 18 + id % 50, city])
            .unwrap();
    }
    db
}

#[test]
fn a_streaming_consumer_sees_one_buffer_per_pass() {
    let db = conference();
    for (sql, shape) in [
        (
            "SELECT city, COUNT(*), SUM(age) FROM attendee GROUP BY city",
            vec!["TableScan"],
        ),
        (
            "SELECT t.track, COUNT(*) FROM attendee a JOIN talk t ON a.talk = t.id \
             WHERE a.age < 40 GROUP BY t.track",
            vec!["Project", "HashJoin"],
        ),
    ] {
        let plan = physical(&db, sql);
        let input = aggregate_input(&plan);
        let mut names = vec![input.name()];
        names.extend(input.children().first().map(|c| c.name()));
        assert_eq!(&names[..shape.len()], shape, "{sql}");
        let (at, copies) = lent(&db, input);
        assert!(copies.len() > 100, "{sql}: {} rows", copies.len());
        assert!(at.iter().all(|p| *p == at[0]), "{sql}: one buffer per pass");
        assert_eq!(
            copies,
            rows(&db, input),
            "{sql}: the rows a collector keeps"
        );
    }
}

/// `x` alternates long and short strings, `NULL` and `CNULL` from row to
/// row; `y` joins every other `x` row, and its `s` equals `x.s` on every
/// fourth, where the residual rejects the match and the row is padded.
fn mixed() -> (Database, Vec<Row>, Vec<Row>) {
    let db = database(&[
        "CREATE TABLE x (id INTEGER PRIMARY KEY, s STRING, t STRING, c CROWD STRING)",
        "CREATE TABLE y (k INTEGER PRIMARY KEY, s STRING)",
    ]);
    let text = |i: i64| match i % 2 {
        0 => Value::Str(format!("{i}-{}", "long".repeat(20))),
        _ => Value::Str(format!("{i}")),
    };
    let (mut xs, mut ys) = (Vec::new(), Vec::new());
    for i in 0..40i64 {
        let t = if i % 3 == 0 { Value::Null } else { text(i + 1) };
        let c = if i % 4 < 2 { Value::CNull } else { text(i) };
        xs.push(Row::new(vec![Value::Int(i), text(i), t, c]));
        if i % 2 == 0 {
            let s = if i % 4 == 0 { text(i) } else { text(i + 1) };
            ys.push(Row::new(vec![Value::Int(i), s]));
        }
    }
    for r in &xs {
        db.insert("x", r.clone()).unwrap();
    }
    for r in &ys {
        db.insert("y", r.clone()).unwrap();
    }
    (db, xs, ys)
}

/// The scan's residual taken out into a standalone `Filter` above it.
fn unfuse(plan: PhysicalPlan) -> PhysicalPlan {
    match plan {
        PhysicalPlan::Scan {
            table,
            alias,
            schema,
            crowd_table,
            needed_columns,
            expected_tuples,
            access,
            residual: Some(predicate),
            annot,
        } => PhysicalPlan::Filter {
            input: Box::new(PhysicalPlan::Scan {
                table,
                alias,
                schema,
                crowd_table,
                needed_columns,
                expected_tuples,
                access,
                residual: None,
                annot: annot.clone(),
            }),
            predicate,
            annot,
        },
        PhysicalPlan::Sort {
            input,
            keys,
            keep,
            annot,
        } => PhysicalPlan::Sort {
            input: Box::new(unfuse(*input)),
            keys,
            keep,
            annot,
        },
        PhysicalPlan::Project {
            input,
            exprs,
            schema,
            annot,
        } => PhysicalPlan::Project {
            input: Box::new(unfuse(*input)),
            exprs,
            schema,
            annot,
        },
        other => panic!("unexpected node {}", other.name()),
    }
}

fn names(plan: &PhysicalPlan) -> Vec<&'static str> {
    let mut out = vec![plan.name()];
    for c in plan.children() {
        out.extend(names(c));
    }
    out
}

#[test]
fn no_value_of_an_earlier_row_survives_a_refill() {
    let (db, xs, ys) = mixed();
    let pick = |r: &Row, cols: &[usize]| Row::new(cols.iter().map(|&c| r[c].clone()).collect());
    // Scan -> Filter -> Sort, without and with the crowd column (which
    // makes every operator collect its input instead of streaming it).
    for cols in [vec![0, 1, 2], vec![0, 1, 2, 3]] {
        let list = ["id", "s", "t", "c"][..cols.len()].join(", ");
        let sql = format!("SELECT {list} FROM x WHERE id % 5 <> 1 ORDER BY id DESC");
        let plan = unfuse(physical(&db, &sql));
        let shape = names(&plan);
        assert!(
            shape.ends_with(&["Sort", "Filter", "TableScan"]),
            "{sql}: {shape:?}"
        );
        let want: Vec<Row> = (xs.iter().rev())
            .filter(|r| !matches!(r[0], Value::Int(i) if i % 5 == 1))
            .map(|r| pick(r, &cols))
            .collect();
        assert_eq!(rows(&db, &plan), want, "{sql}");
    }
    // A LEFT join whose residual rejects some matches: their rows are
    // padded with `NULL`s in the buffer the rejected match was refilled
    // into.
    for cols in [vec![0, 1, 2], vec![0, 1, 2, 3]] {
        let list = ["x.id", "x.s", "x.t", "x.c"][..cols.len()].join(", ");
        let sql = format!(
            "SELECT {list}, y.k, y.s FROM x LEFT JOIN y ON x.id = y.k AND x.s <> y.s ORDER BY x.id"
        );
        let plan = physical(&db, &sql);
        assert!(names(&plan).contains(&"HashJoin"), "{sql}");
        let want: Vec<Row> = xs
            .iter()
            .map(|x| {
                let hit = ys.iter().find(|y| y[0] == x[0] && y[1] != x[1]);
                let mut r = pick(x, &cols).into_values();
                match hit {
                    Some(y) => r.extend([y[0].clone(), y[1].clone()]),
                    None => r.extend([Value::Null, Value::Null]),
                }
                Row::new(r)
            })
            .collect();
        assert_eq!(rows(&db, &plan), want, "{sql}");
    }
}
