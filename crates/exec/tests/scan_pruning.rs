//! A scan decodes a kept row only in the columns the plan reads — the
//! needed columns, the residual's and the primary key — and leaves every
//! other string `''`. These pin the three places that rule must not
//! reach: the key a probe need names, the rows UPDATE/DELETE write back,
//! and the agreement between a standing query's state and its deltas.

use crowddb_common::{row, Row, Value};
use crowddb_exec::dml::{self, Target};
use crowddb_exec::{
    execute, execute_physical, lower_plan, CompareCaches, ExecCtx, ExecGuard, Maintained,
    TableChange, TaskNeed,
};
use crowddb_plan::cardinality::FnStats;
use crowddb_plan::{optimize, Binder, LogicalPlan, OptimizerConfig, PhysicalPlan};
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

fn plan(db: &Database, sql: &str) -> LogicalPlan {
    let Statement::Select(q) = parse_statement(sql).unwrap() else {
        panic!("not a select: {sql}")
    };
    let bound = db.with_catalog(|c| Binder::new(c).bind_query(&q)).unwrap();
    let stats = FnStats(|_t: &str| Some(100));
    optimize(bound, &stats, &OptimizerConfig::default())
}

fn talks() -> Database {
    let db = database(&["CREATE TABLE talk (title STRING PRIMARY KEY, \
         abstract CROWD STRING, nb_attendees CROWD INTEGER)"]);
    db.insert("talk", row!["CrowdDB", "crowd abstract", Value::CNull])
        .unwrap();
    db.insert("talk", row!["Qurk", "qurk abstract", 80i64])
        .unwrap();
    db.insert("talk", row!["PIQL", "piql abstract", 60i64])
        .unwrap();
    db
}

/// The query reads neither `title` nor `abstract`, yet the probe need
/// for the missing `nb_attendees` names its tuple by the key: the key is
/// decoded on every kept row.
#[test]
fn a_probe_need_names_the_key_the_query_does_not_read() {
    let db = talks();
    let sql = "SELECT COUNT(*), MAX(nb_attendees) FROM talk";
    let r = execute(&db, &CompareCaches::default(), &plan(&db, sql)).unwrap();
    assert_eq!(r.rows, vec![row![3i64, 80i64]]);
    let [TaskNeed::ProbeValues {
        context, columns, ..
    }] = r.needs.as_slice()
    else {
        panic!("one probe need: {:?}", r.needs)
    };
    assert_eq!(context, &[("title".to_string(), "CrowdDB".to_string())]);
    assert_eq!(columns.len(), 1);
    assert_eq!(columns[0].1, "nb_attendees");
}

/// UPDATE and DELETE select through the same scan, whose `WHERE` reads
/// one column and whose plan needs none — but the rows they are handed
/// are the rows they write back, so every column is decoded.
#[test]
fn update_and_delete_are_handed_whole_rows() {
    let db = talks();
    let select = |sql: &str| {
        let stmt = parse_statement(sql).unwrap();
        dml::select(
            &db,
            &CompareCaches::default(),
            &stmt,
            ExecGuard::unlimited(),
        )
        .unwrap()
    };
    let selection = select("UPDATE talk SET nb_attendees = 90 WHERE nb_attendees > 70");
    let [Target::Update(_, old, new)] = selection.targets.as_slice() else {
        panic!("{:?}", selection.targets)
    };
    assert_eq!(old, &row!["Qurk", "qurk abstract", 80i64]);
    assert_eq!(new, &row!["Qurk", "qurk abstract", 90i64]);
    dml::apply(&db, selection, false)
        .unwrap()
        .expect("no one else writes");

    let selection = select("DELETE FROM talk WHERE nb_attendees < 70");
    let [Target::Delete(_, old)] = selection.targets.as_slice() else {
        panic!("{:?}", selection.targets)
    };
    assert_eq!(old, &row!["PIQL", "piql abstract", 60i64]);
    dml::apply(&db, selection, false)
        .unwrap()
        .expect("no one else writes");

    let stored = db.with_table("talk", |t| t.scan_rows()).unwrap().unwrap();
    let stored: Vec<Row> = stored.into_iter().map(|(_, row)| row).collect();
    assert_eq!(
        stored,
        vec![
            row!["CrowdDB", "crowd abstract", Value::CNull],
            row!["Qurk", "qurk abstract", 90i64],
        ]
    );
}

/// `rows` as a sorted multiset, for order-free comparison.
fn sorted(mut rows: Vec<Row>) -> Vec<Row> {
    rows.sort_by_key(|r| r.to_string());
    rows
}

/// The scan over `table` in `plan`, if it reads that table.
fn scan_of<'p>(plan: &'p PhysicalPlan, table: &str) -> Option<&'p PhysicalPlan> {
    match plan {
        PhysicalPlan::Scan { table: t, .. } if t == table => Some(plan),
        _ => plan.children().into_iter().find_map(|c| scan_of(c, table)),
    }
}

/// Two joins whose inputs leave STRING columns unread — `Sessions.room`
/// under a nested-loop join, `Fee.room` under a hash join — maintained
/// through a stream of DML, one of which changes nothing but an unread
/// string. After every statement the state moved by the delta equals a
/// fresh evaluation, and each scan's delta rows are blanked exactly as
/// its executed rows are.
#[test]
fn standing_joins_over_blanked_strings_match_recompute() {
    let db = database(&[
        "CREATE TABLE sessions (k INTEGER PRIMARY KEY, room STRING, cap INTEGER)",
        "CREATE TABLE room (room STRING PRIMARY KEY, floor INTEGER)",
        "CREATE TABLE fee (k INTEGER PRIMARY KEY, room STRING, amount FLOAT)",
    ]);
    for r in 0..4i64 {
        db.insert("room", row![format!("R{r}"), r]).unwrap();
    }
    for k in 0..12i64 {
        db.insert("sessions", row![k, format!("R{}", k % 4), (k * 37) % 500])
            .unwrap();
        db.insert("fee", row![k, format!("F{}", k % 3), k as f64 * 1.5])
            .unwrap();
    }
    let caches = CompareCaches::default();
    let watches = [
        "SELECT s.k, r.room FROM sessions s JOIN room r ON s.cap > r.floor * 100",
        "SELECT s.k, s.room, f.amount FROM sessions s JOIN fee f ON s.k = f.k",
    ];
    let mut standing: Vec<(Vec<Row>, Maintained)> = watches
        .iter()
        .map(|sql| {
            let guard = ExecGuard::unlimited();
            let (result, maintained) =
                Maintained::evaluate(&db, &caches, &plan(&db, sql), guard).unwrap();
            (result.rows, maintained.expect("routed incremental"))
        })
        .collect();
    for dml in [
        "INSERT INTO sessions VALUES (20, 'R2', 333)",
        "UPDATE sessions SET room = 'elsewhere' WHERE k = 3",
        "UPDATE fee SET room = 'F9' WHERE k < 5",
        "UPDATE sessions SET cap = 50 WHERE k = 7",
        "DELETE FROM sessions WHERE k = 5",
        "INSERT INTO fee VALUES (20, 'F1', 2.5)",
    ] {
        let stmt = parse_statement(dml).unwrap();
        let selection = dml::select(&db, &caches, &stmt, ExecGuard::unlimited()).unwrap();
        let applied = dml::apply(&db, selection, true).unwrap().expect("applied");
        let change: TableChange = applied.change.expect("asked for");
        for ((rows, maintained), sql) in standing.iter_mut().zip(watches) {
            let delta = maintained
                .delta(&db, &change)
                .unwrap()
                .expect("a delta rule");
            for gone in &delta.removed {
                let at = rows
                    .iter()
                    .position(|r| r == gone)
                    .expect("removed row shown");
                rows.swap_remove(at);
            }
            rows.extend(delta.added);
            let fresh = execute(&db, &caches, &plan(&db, sql)).unwrap().rows;
            assert_eq!(sorted(rows.clone()), sorted(fresh), "{sql} after {dml}");

            // The scan the change hit: its delta rows are rows it executes.
            let physical = lower_plan(&db, &plan(&db, sql));
            let Some(scan) = scan_of(&physical, &change.table) else {
                continue;
            };
            let executed = execute_physical(&db, &caches, scan).unwrap().0.rows;
            let mut ctx = ExecCtx::new(&db, &caches);
            let moved = crowddb_exec::ops::build(scan)
                .delta(&mut ctx, &change)
                .unwrap();
            for row in moved.expect("a scan has a rule").added {
                assert!(executed.contains(&row), "{row} is not as {sql} scans it");
            }
        }
    }
}
