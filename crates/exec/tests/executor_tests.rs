//! End-to-end executor tests: SQL text → parse → bind → optimize →
//! execute against a real storage instance, including the crowd
//! round-trip semantics (needs produced, caches/write-back consumed).

use crowddb_common::{row, Row, Value};
use crowddb_exec::{execute, CompareCaches, ExecResult, TaskNeed};
use crowddb_plan::cardinality::FnStats;
use crowddb_plan::{optimize, Binder, LogicalPlan, OptimizerConfig};
use crowddb_sql::{parse_statement, Statement};
use crowddb_storage::Database;

fn setup() -> Database {
    let db = Database::new();
    for ddl in [
        "CREATE TABLE talk (title STRING PRIMARY KEY, abstract CROWD STRING, \
         nb_attendees CROWD INTEGER)",
        "CREATE CROWD TABLE notableattendee (name STRING PRIMARY KEY, title STRING, \
         FOREIGN KEY (title) REF talk(title))",
        "CREATE TABLE dept (dept STRING PRIMARY KEY, building INTEGER)",
    ] {
        let Statement::CreateTable(ct) = parse_statement(ddl).unwrap() else {
            panic!()
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
    // Flat estimate; tests are small and don't exercise the estimator.
    let stats = FnStats(|_t: &str| Some(100));
    optimize(bound, &stats, &OptimizerConfig::default())
}

fn run(db: &Database, sql: &str) -> ExecResult {
    let caches = CompareCaches::default();
    run_with(db, sql, &caches)
}

fn run_with(db: &Database, sql: &str, caches: &CompareCaches) -> ExecResult {
    let p = plan(db, sql);
    execute(db, caches, &p).unwrap()
}

/// `assert_eq!` on rows that also compares each column's type: `Value`'s
/// `==` holds `1 == 1.0`, so on its own it cannot tell an INTEGER result
/// from a FLOAT one.
#[track_caller]
fn assert_rows_typed(got: &[Row], want: &[Row]) {
    assert_eq!(got, want);
    let types = |rows: &[Row]| -> Vec<Vec<_>> {
        rows.iter()
            .map(|r| r.values().iter().map(Value::data_type).collect())
            .collect()
    };
    assert_eq!(types(got), types(want), "{got:?} vs {want:?}");
}

fn seed_talks(db: &Database) {
    db.insert("talk", row!["CrowdDB", Value::CNull, Value::CNull])
        .unwrap();
    db.insert("talk", row!["Qurk", "qurk abstract", 80i64])
        .unwrap();
    db.insert("talk", row!["PIQL", "piql abstract", 60i64])
        .unwrap();
}

#[test]
fn simple_select_and_projection() {
    let db = setup();
    seed_talks(&db);
    let r = run(&db, "SELECT title FROM talk");
    assert_eq!(r.rows.len(), 3);
    assert!(r.is_final(), "no crowd columns referenced");
    assert_eq!(r.rows[0], row!["CrowdDB"]);
}

#[test]
fn paper_query_generates_probe_need() {
    let db = setup();
    seed_talks(&db);
    // The paper's motivating query: abstract is CNULL for CrowdDB.
    let r = run(&db, "SELECT abstract FROM talk WHERE title = 'CrowdDB'");
    assert_eq!(r.rows.len(), 1);
    assert!(r.rows[0][0].is_cnull(), "value still pending this round");
    assert_eq!(r.needs.len(), 1);
    match &r.needs[0] {
        TaskNeed::ProbeValues {
            table,
            context,
            columns,
            ..
        } => {
            assert_eq!(table, "talk");
            assert!(context.iter().any(|(k, v)| k == "title" && v == "CrowdDB"));
            assert_eq!(columns.len(), 1);
            assert_eq!(columns[0].1, "abstract");
        }
        other => panic!("expected probe, got {other:?}"),
    }
}

#[test]
fn probe_converges_after_write_back() {
    let db = setup();
    seed_talks(&db);
    let r = run(&db, "SELECT abstract FROM talk WHERE title = 'CrowdDB'");
    let TaskNeed::ProbeValues {
        table,
        tid,
        columns,
        ..
    } = &r.needs[0]
    else {
        panic!()
    };
    // Simulate the task manager writing the crowd's answer back.
    db.write_back_value(table, *tid, columns[0].0, Value::str("the crowd answer"))
        .unwrap();
    let r2 = run(&db, "SELECT abstract FROM talk WHERE title = 'CrowdDB'");
    assert!(r2.is_final());
    assert_eq!(r2.rows, vec![row!["the crowd answer"]]);
}

#[test]
fn unreferenced_crowd_columns_do_not_probe() {
    let db = setup();
    seed_talks(&db);
    // title only: CNULLs in abstract/nb_attendees are not needed.
    let r = run(&db, "SELECT title FROM talk WHERE title LIKE 'C%'");
    assert!(r.is_final());
    assert_eq!(r.rows.len(), 1);
}

#[test]
fn predicate_on_cnull_is_unknown_and_probes() {
    let db = setup();
    seed_talks(&db);
    let r = run(&db, "SELECT title FROM talk WHERE nb_attendees > 70");
    // Only Qurk (80) qualifies now; CrowdDB's attendance is pending.
    assert_eq!(r.rows, vec![row!["Qurk"]]);
    assert_eq!(r.needs.len(), 1, "probe for CrowdDB's nb_attendees");
    // After write-back the row qualifies.
    let TaskNeed::ProbeValues { tid, columns, .. } = &r.needs[0] else {
        panic!()
    };
    db.write_back_value("talk", *tid, columns[0].0, Value::Int(200))
        .unwrap();
    let r2 = run(&db, "SELECT title FROM talk WHERE nb_attendees > 70");
    assert!(r2.is_final());
    assert_eq!(r2.rows.len(), 2);
}

#[test]
fn joins_inner_and_left() {
    let db = setup();
    seed_talks(&db);
    db.insert("notableattendee", row!["Mike", "CrowdDB"])
        .unwrap();
    db.insert("notableattendee", row!["Sam", "Qurk"]).unwrap();
    let r = run(
        &db,
        "SELECT t.title, n.name FROM talk t JOIN notableattendee n ON t.title = n.title",
    );
    assert_eq!(r.rows.len(), 2);

    let r = run(
        &db,
        "SELECT t.title, n.name FROM talk t LEFT JOIN notableattendee n ON t.title = n.title \
         WHERE t.title = 'PIQL'",
    );
    assert_eq!(r.rows.len(), 1);
    assert_eq!(r.rows[0][1], Value::Null);
}

#[test]
fn crowd_join_requests_new_tuples_for_missing_matches() {
    let db = setup();
    seed_talks(&db);
    db.insert("notableattendee", row!["Mike", "CrowdDB"])
        .unwrap();
    let r = run(
        &db,
        "SELECT t.title, n.name FROM talk t JOIN notableattendee n ON t.title = n.title",
    );
    // Qurk and PIQL have no attendees yet: two new-tuple needs with the
    // join key preset — the CrowdJoin pattern.
    let new_needs: Vec<_> = r
        .needs
        .iter()
        .filter_map(|n| match n {
            TaskNeed::NewTuples { table, preset, .. } => Some((table.clone(), preset.clone())),
            _ => None,
        })
        .collect();
    assert_eq!(new_needs.len(), 2, "needs: {:?}", r.needs);
    assert!(new_needs
        .iter()
        .all(|(t, p)| t == "notableattendee" && p[0].0 == "title"));
    // And the write-back of a crowdsourced tuple completes the join.
    db.write_back_tuple("notableattendee", row!["Eugene", "Qurk"])
        .unwrap();
    let r2 = run(
        &db,
        "SELECT t.title, n.name FROM talk t JOIN notableattendee n ON t.title = n.title",
    );
    assert_eq!(r2.rows.len(), 2);
}

#[test]
fn bounded_crowd_scan_requests_tuples() {
    let db = setup();
    let r = run(&db, "SELECT name FROM notableattendee LIMIT 5");
    assert_eq!(r.rows.len(), 0);
    assert_eq!(r.needs.len(), 1);
    match &r.needs[0] {
        TaskNeed::NewTuples {
            table,
            preset,
            want,
        } => {
            assert_eq!(table, "notableattendee");
            assert!(preset.is_empty());
            assert_eq!(*want, 5);
        }
        other => panic!("{other:?}"),
    }
    // Two tuples arrive; the scan still wants three more.
    db.write_back_tuple("notableattendee", row!["A", "t1"])
        .unwrap();
    db.write_back_tuple("notableattendee", row!["B", "t2"])
        .unwrap();
    let r2 = run(&db, "SELECT name FROM notableattendee LIMIT 5");
    assert_eq!(r2.rows.len(), 2);
    match &r2.needs[0] {
        TaskNeed::NewTuples { want, .. } => assert_eq!(*want, 3),
        other => panic!("{other:?}"),
    }
}

#[test]
fn crowdequal_uses_cache_and_reports_needs() {
    let db = setup();
    db.insert("dept", row!["Math", 3i64]).unwrap();
    db.insert("dept", row!["CS", 7i64]).unwrap();
    let sql = "SELECT dept FROM dept WHERE dept ~= 'Mathematics'";
    let r = run(&db, sql);
    assert!(r.rows.is_empty(), "undecided comparisons exclude rows");
    assert_eq!(r.needs.len(), 2, "one CROWDEQUAL per row");

    let mut caches = CompareCaches::default();
    let instr = "Do these two values refer to the same entity?";
    caches.put_equal("Math", "Mathematics", instr, true);
    caches.put_equal("CS", "Mathematics", instr, false);
    let r2 = run_with(&db, sql, &caches);
    assert!(r2.is_final());
    assert_eq!(r2.rows, vec![row!["Math"]]);
    assert_eq!(r2.stats.compare_cache_hits, 2);
}

#[test]
fn crowdequal_fast_path_for_identical_values() {
    let db = setup();
    db.insert("dept", row!["Math", 3i64]).unwrap();
    let r = run(&db, "SELECT dept FROM dept WHERE dept ~= 'Math'");
    // Machine-equal values never go to the crowd.
    assert!(r.is_final());
    assert_eq!(r.rows.len(), 1);
}

#[test]
fn crowdorder_sort_with_cache() {
    let db = setup();
    seed_talks(&db);
    let sql = "SELECT title FROM talk \
               ORDER BY CROWDORDER(title, 'Which talk did you like better') LIMIT 2";
    let r = run(&db, sql);
    // Round 1: needs for uncached comparisons, fallback order meanwhile.
    assert!(!r.needs.is_empty());
    assert!(r.rows.len() == 2);

    // The crowd prefers PIQL > Qurk > CrowdDB.
    let mut caches = CompareCaches::default();
    let q = "Which talk did you like better";
    caches.put_prefer("PIQL", "Qurk", q, true);
    caches.put_prefer("PIQL", "CrowdDB", q, true);
    caches.put_prefer("Qurk", "CrowdDB", q, true);
    let r2 = run_with(&db, sql, &caches);
    assert!(r2.is_final(), "needs: {:?}", r2.needs);
    assert_eq!(r2.rows, vec![row!["PIQL"], row!["Qurk"]]);
}

#[test]
fn machine_sort_and_limit_offset() {
    let db = setup();
    seed_talks(&db);
    let r = run(
        &db,
        "SELECT title FROM talk ORDER BY title DESC LIMIT 2 OFFSET 1",
    );
    assert_eq!(r.rows, vec![row!["PIQL"], row!["CrowdDB"]]);
}

#[test]
fn aggregation_group_by_having() {
    let db = setup();
    db.insert("notableattendee", row!["A", "CrowdDB"]).unwrap();
    db.insert("notableattendee", row!["B", "CrowdDB"]).unwrap();
    db.insert("notableattendee", row!["C", "Qurk"]).unwrap();
    let r = run(
        &db,
        "SELECT title, COUNT(*) FROM notableattendee GROUP BY title \
         HAVING COUNT(*) > 1 ORDER BY title",
    );
    assert_eq!(r.rows, vec![row!["CrowdDB", 2i64]]);
}

#[test]
fn aggregates_over_all_rows() {
    let db = setup();
    seed_talks(&db);
    let r = run(
        &db,
        "SELECT COUNT(*), COUNT(nb_attendees), SUM(nb_attendees), AVG(nb_attendees), \
         MIN(title), MAX(title) FROM talk",
    );
    // COUNT(*) counts rows; COUNT(col) skips missing (CrowdDB's CNULL).
    // SUM of integers is an integer, AVG a float.
    assert_rows_typed(
        &r.rows,
        &[row![3i64, 2i64, 140i64, 70.0f64, "CrowdDB", "Qurk"]],
    );
}

#[test]
fn aggregate_on_empty_table() {
    let db = setup();
    let r = run(&db, "SELECT COUNT(*), MAX(nb_attendees) FROM talk");
    assert_eq!(r.rows, vec![Row::new(vec![Value::Int(0), Value::Null])]);
}

#[test]
fn count_distinct() {
    let db = setup();
    db.insert("notableattendee", row!["A", "CrowdDB"]).unwrap();
    db.insert("notableattendee", row!["B", "CrowdDB"]).unwrap();
    db.insert("notableattendee", row!["C", "Qurk"]).unwrap();
    let r = run(&db, "SELECT COUNT(DISTINCT title) FROM notableattendee");
    assert_eq!(r.rows, vec![row![2i64]]);
}

#[test]
fn distinct_rows() {
    let db = setup();
    db.insert("notableattendee", row!["A", "CrowdDB"]).unwrap();
    db.insert("notableattendee", row!["B", "CrowdDB"]).unwrap();
    let r = run(&db, "SELECT DISTINCT title FROM notableattendee");
    assert_eq!(r.rows, vec![row!["CrowdDB"]]);
}

#[test]
fn in_subquery_and_exists() {
    let db = setup();
    seed_talks(&db);
    db.insert("notableattendee", row!["Mike", "CrowdDB"])
        .unwrap();
    let r = run(
        &db,
        "SELECT title FROM talk WHERE title IN (SELECT title FROM notableattendee)",
    );
    assert_eq!(r.rows, vec![row!["CrowdDB"]]);
    let r = run(
        &db,
        "SELECT title FROM talk WHERE NOT EXISTS (SELECT name FROM notableattendee) \
         ORDER BY title",
    );
    assert!(r.rows.is_empty());
}

#[test]
fn scalar_subquery() {
    let db = setup();
    seed_talks(&db);
    let r = run(
        &db,
        "SELECT title FROM talk WHERE nb_attendees = (SELECT MAX(nb_attendees) FROM talk)",
    );
    assert_eq!(r.rows, vec![row!["Qurk"]]);
}

#[test]
fn select_without_from() {
    let db = setup();
    let r = run(&db, "SELECT 1 + 1, UPPER('ok'), 3 > 2");
    assert_eq!(r.rows, vec![row![2i64, "OK", true]]);
}

#[test]
fn case_expression_in_query() {
    let db = setup();
    seed_talks(&db);
    let r = run(
        &db,
        "SELECT title, CASE WHEN nb_attendees > 70 THEN 'big' ELSE 'small' END \
         FROM talk WHERE nb_attendees IS NOT CNULL ORDER BY title",
    );
    assert_eq!(r.rows, vec![row!["PIQL", "small"], row!["Qurk", "big"]]);
}

#[test]
fn is_cnull_predicates() {
    let db = setup();
    seed_talks(&db);
    let r = run(&db, "SELECT title FROM talk WHERE abstract IS CNULL");
    // NB: referencing `abstract` probes it too — but the row qualifies
    // this round because CNULL-ness is what's being asked.
    assert_eq!(r.rows, vec![row!["CrowdDB"]]);
    let r = run(
        &db,
        "SELECT title FROM talk WHERE abstract IS NOT CNULL ORDER BY title",
    );
    assert_eq!(r.rows, vec![row!["PIQL"], row!["Qurk"]]);
}

#[test]
fn derived_table_execution() {
    let db = setup();
    seed_talks(&db);
    let r = run(
        &db,
        "SELECT d.t FROM (SELECT title AS t, nb_attendees AS n FROM talk) AS d \
         WHERE d.n > 70",
    );
    assert_eq!(r.rows, vec![row!["Qurk"]]);
}

#[test]
fn cross_join_and_comma_join() {
    let db = setup();
    db.insert("dept", row!["Math", 1i64]).unwrap();
    db.insert("dept", row!["CS", 2i64]).unwrap();
    let r = run(&db, "SELECT a.dept, b.dept FROM dept a, dept b");
    assert_eq!(r.rows.len(), 4);
    let r = run(
        &db,
        "SELECT a.dept, b.dept FROM dept a, dept b WHERE a.building < b.building",
    );
    assert_eq!(r.rows, vec![row!["Math", "CS"]]);
}

#[test]
fn needs_are_deduplicated_across_operators() {
    let db = setup();
    seed_talks(&db);
    // abstract referenced twice: one probe need only.
    let r = run(
        &db,
        "SELECT abstract, LENGTH(abstract) FROM talk WHERE title = 'CrowdDB'",
    );
    assert_eq!(r.needs.len(), 1);
}

#[test]
fn stats_are_collected() {
    let db = setup();
    seed_talks(&db);
    let r = run(&db, "SELECT abstract FROM talk");
    assert_eq!(r.stats.rows_scanned, 3);
    assert_eq!(r.stats.cnulls_seen, 1);
}

#[test]
fn division_by_zero_is_runtime_error() {
    let db = setup();
    seed_talks(&db);
    let p = plan(
        &db,
        "SELECT nb_attendees / 0 FROM talk WHERE title = 'Qurk'",
    );
    let caches = CompareCaches::default();
    assert!(execute(&db, &caches, &p).is_err());
}

#[test]
fn pk_point_lookup_avoids_full_scan() {
    let db = setup();
    for i in 0..50 {
        db.insert("dept", row![format!("d{i}"), i as i64]).unwrap();
    }
    let r = run(&db, "SELECT building FROM dept WHERE dept = 'd7'");
    assert_eq!(r.rows, vec![row![7i64]]);
    assert_eq!(r.stats.index_probes, 1, "PK index should serve the scan");
    assert_eq!(r.stats.rows_scanned, 1, "only the matching row is read");
    // Non-key predicates still scan.
    let r = run(&db, "SELECT dept FROM dept WHERE building = 7");
    assert_eq!(r.stats.index_probes, 0);
    assert_eq!(r.stats.rows_scanned, 50);
}

#[test]
fn pk_lookup_respects_residual_predicate() {
    let db = setup();
    db.insert("dept", row!["math", 3i64]).unwrap();
    // The extra conjunct must still filter after the index lookup.
    let r = run(
        &db,
        "SELECT dept FROM dept WHERE dept = 'math' AND building > 5",
    );
    assert!(r.rows.is_empty());
    assert_eq!(r.stats.index_probes, 1);
}

#[test]
fn pk_lookup_miss_returns_empty() {
    let db = setup();
    db.insert("dept", row!["math", 3i64]).unwrap();
    let r = run(&db, "SELECT dept FROM dept WHERE dept = 'ghost'");
    assert!(r.rows.is_empty());
    assert_eq!(r.stats.index_probes, 1);
    assert_eq!(r.stats.rows_scanned, 0);
}

#[test]
fn index_point_lookup_unifies_numeric_literals() {
    let db = setup();
    for i in 0..5 {
        db.insert("dept", row![format!("d{i}"), i as i64]).unwrap();
    }
    db.create_index("dept_building", "dept", &["building".to_string()], false)
        .unwrap();
    // SQL `=` unifies Int and Float; an index probe matches stored keys
    // exactly, so a float literal on an INTEGER key must not probe.
    let r = run(&db, "SELECT dept FROM dept WHERE building = 3.0");
    assert_eq!(r.rows, vec![row!["d3"]]);
    assert_eq!(r.stats.index_probes, 0);
    let r = run(&db, "SELECT dept FROM dept WHERE building = 3");
    assert_eq!(r.rows, vec![row!["d3"]]);
    assert_eq!(r.stats.index_probes, 1);
}

// Regression tests for the shared evaluation path (`crowddb_exec::eval`):
// query execution (operators) and DML planning evaluate predicates via
// the same `eval`/`eval_truth`, so crowd-compare needs must dedup
// identically on both sides.

#[test]
fn crowdequal_needs_dedup_identical_operand_pairs() {
    let db = setup();
    db.insert("talk", row!["A", "same abstract", 1i64]).unwrap();
    db.insert("talk", row!["B", "same abstract", 2i64]).unwrap();
    db.insert("talk", row!["C", "other abstract", 3i64])
        .unwrap();
    let r = run(
        &db,
        "SELECT title FROM talk WHERE abstract ~= 'same.abstract'",
    );
    let equals: Vec<_> = r
        .needs
        .iter()
        .filter(|n| matches!(n, TaskNeed::Equal { .. }))
        .collect();
    // Rows A and B carry the identical (left, right) operand pair: one
    // need for them, one for row C's distinct pair.
    assert_eq!(equals.len(), 2, "one need per distinct operand pair");
}

#[test]
fn crowdequal_needs_identical_for_query_and_dml_paths() {
    let db = setup();
    db.insert("talk", row!["A", "same abstract", 1i64]).unwrap();
    db.insert("talk", row!["B", "same abstract", 2i64]).unwrap();
    db.insert("talk", row!["C", "other abstract", 3i64])
        .unwrap();
    let query = run(
        &db,
        "SELECT title FROM talk WHERE abstract ~= 'same.abstract'",
    );
    let upd = parse_statement("UPDATE talk SET nb_attendees = 0 WHERE abstract ~= 'same.abstract'")
        .unwrap();
    let dml = crowddb_exec::dml::select(
        &db,
        &CompareCaches::default(),
        &upd,
        crowddb_exec::ExecGuard::unlimited(),
    )
    .unwrap();
    assert_eq!(
        query.needs, dml.needs,
        "select and DML evaluate the predicate through the same path"
    );
}

#[test]
fn crowdorder_needs_dedup_identical_pairs() {
    let db = setup();
    // Two pairs of rows sharing a key value: the pivot comparison
    // (same, other) happens twice during sorting but equal rendered
    // values compare machine-side, so exactly one Order need survives.
    db.insert("talk", row!["A", "same", 1i64]).unwrap();
    db.insert("talk", row!["B", "same", 2i64]).unwrap();
    db.insert("talk", row!["C", "other", 3i64]).unwrap();
    db.insert("talk", row!["D", "other", 4i64]).unwrap();
    let r = run(
        &db,
        "SELECT title FROM talk ORDER BY CROWDORDER(abstract, 'Which is better')",
    );
    let orders: Vec<_> = r
        .needs
        .iter()
        .filter(|n| matches!(n, TaskNeed::Order { .. }))
        .collect();
    assert_eq!(orders.len(), 1, "duplicate comparisons dedup to one need");
}

/// What the scan's residual says about a row decides everything else
/// about it: False rows are dropped having asked nothing, Unknown rows
/// are probed — from the whole row, not the part the residual looked at —
/// and stay out of this round's output, True rows go on.
#[test]
fn residual_truth_decides_probe_and_output() {
    let db = setup();
    seed_talks(&db);
    db.insert("talk", row!["Deco", Value::CNull, 10i64])
        .unwrap();
    for (dept, building) in [
        ("db", Value::Int(4)),
        ("ml", Value::Null),
        ("os", Value::Int(2)),
    ] {
        db.insert("dept", row![dept, building]).unwrap();
    }

    // NULL: Unknown, and nobody to ask.
    let r = run(&db, "SELECT dept FROM dept WHERE building > 3");
    assert_eq!(r.rows, vec![row!["db"]]);
    assert!(r.is_final());
    let r = run(&db, "SELECT dept FROM dept WHERE NOT (building > 3)");
    assert_eq!(r.rows, vec![row!["os"]]);
    let r = run(&db, "SELECT dept FROM dept WHERE building IS NULL");
    assert_eq!(r.rows, vec![row!["ml"]]);

    // CNULL: Unknown. CrowdDB is probed for both needed columns it
    // lacks, with its key — a string the residual never read — as
    // context; Deco's attendance decides against it, so its missing
    // abstract is not asked for.
    let r = run(
        &db,
        "SELECT title, abstract FROM talk WHERE nb_attendees > 70",
    );
    assert_eq!(r.rows, vec![row!["Qurk", "qurk abstract"]]);
    assert_eq!(r.stats.rows_scanned, 4);
    assert_eq!(r.stats.cnulls_seen, 2);
    let [TaskNeed::ProbeValues {
        context, columns, ..
    }] = &r.needs[..]
    else {
        panic!("one probe, got {:?}", r.needs)
    };
    assert_eq!(context, &vec![("title".to_string(), "CrowdDB".to_string())]);
    let asked: Vec<&str> = columns.iter().map(|(_, name, _)| name.as_str()).collect();
    assert_eq!(asked, vec!["abstract", "nb_attendees"]);

    // IS CNULL is decided on the spot: True rows go on (and are probed).
    let r = run(&db, "SELECT title FROM talk WHERE nb_attendees IS CNULL");
    assert_eq!(r.rows, vec![row!["CrowdDB"]]);
    assert_eq!(r.needs.len(), 1);
    let r = run(&db, "SELECT title FROM talk WHERE abstract IS NOT CNULL");
    assert_eq!(r.rows, vec![row!["Qurk"], row!["PIQL"]]);
    assert!(r.is_final());
}

/// The corners of the aggregate functions, as the two-pass evaluation
/// defined them.
#[test]
fn aggregate_accumulator_edges() {
    let db = setup();
    let caches = CompareCaches::default();
    let try_run = |sql: &str| execute(&db, &caches, &plan(&db, sql));
    let one = |sql: &str| {
        let r = try_run(sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
        assert_eq!(r.rows.len(), 1, "{sql}");
        r.rows[0].clone()
    };
    let assert_one = |sql: &str, want: Row| assert_rows_typed(&[one(sql)], &[want]);
    let ints = |xs: &[&str]| {
        let branches: Vec<String> = xs.iter().map(|x| format!("SELECT {x} AS x")).collect();
        format!("({}) t", branches.join(" UNION ALL "))
    };

    // Integer SUM: exact, and an error as soon as a partial sum overflows
    // — unless the values turn out not to be all integers.
    let big = i64::MAX.to_string();
    assert_one(
        &format!("SELECT SUM(x) FROM {}", ints(&[&big, "-1", "1"])),
        row![i64::MAX],
    );
    let err = try_run(&format!("SELECT SUM(x) FROM {}", ints(&[&big, "1", "-1"])));
    assert!(
        matches!(&err, Err(crowddb_common::CrowdError::Exec(m)) if m.contains("overflow")),
        "{err:?}"
    );
    assert_one(
        &format!("SELECT SUM(x) FROM {}", ints(&[&big, "1", "0.5"])),
        row![i64::MAX as f64 + 1.0 + 0.5],
    );

    // Mixed INTEGER/FLOAT: a float sum; AVG always is one.
    assert_one(
        &format!("SELECT SUM(x), AVG(x) FROM {}", ints(&["1", "2.5"])),
        row![3.5f64, 1.75f64],
    );
    assert_one(
        &format!("SELECT SUM(x), AVG(x) FROM {}", ints(&["1", "2"])),
        row![3i64, 1.5f64],
    );
    let err = try_run(&format!("SELECT SUM(x) FROM {}", ints(&["1", "'one'"])));
    assert!(
        matches!(&err, Err(crowddb_common::CrowdError::Type(m)) if m.contains("SUM")),
        "{err:?}"
    );

    // 1 and 1.0 tie: MIN keeps the first it saw, MAX the last.
    assert_one(
        &format!("SELECT MIN(x), MAX(x) FROM {}", ints(&["1", "1.0"])),
        row![1i64, 1.0f64],
    );
    assert_one(
        &format!("SELECT MIN(x), MAX(x) FROM {}", ints(&["1.0", "1"])),
        row![1.0f64, 1i64],
    );

    // DISTINCT counts a value once — and 1 and 1.0 are one value, as
    // `1 = 1.0` says: the first seen (1.0) stands for both.
    let xs = ints(&["2", "2", "3", "NULL", "3", "1.0", "1"]);
    assert_one(
        &format!("SELECT COUNT(x), COUNT(DISTINCT x), SUM(DISTINCT x), COUNT(*) FROM {xs}"),
        row![6i64, 3i64, 6.0f64, 7i64],
    );

    // No input: one all-empty group without GROUP BY, no group with it.
    assert_one(
        "SELECT COUNT(*), COUNT(building), SUM(building), AVG(building), MIN(dept), MAX(dept) FROM dept",
        Row::new(vec![
            Value::Int(0),
            Value::Int(0),
            Value::Null,
            Value::Null,
            Value::Null,
            Value::Null
        ]),
    );
    let r = try_run("SELECT building, COUNT(*) FROM dept GROUP BY building").unwrap();
    assert!(r.rows.is_empty());

    // Groups come out in the order their first row came in.
    for (dept, building) in [("db", 4i64), ("ml", 2), ("os", 4), ("pl", 9), ("ai", 2)] {
        db.insert("dept", row![dept, building]).unwrap();
    }
    let r = try_run("SELECT building, COUNT(*), MIN(dept) FROM dept GROUP BY building").unwrap();
    assert_rows_typed(
        &r.rows,
        &[
            row![4i64, 2i64, "db"],
            row![2i64, 2i64, "ai"],
            row![9i64, 1i64, "pl"],
        ],
    );
}
