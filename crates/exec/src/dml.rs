//! DML execution: INSERT, UPDATE, DELETE.
//!
//! DML shares the round-based crowd semantics of queries: an `UPDATE ...
//! WHERE name ~= 'IBM'` only touches rows whose crowd predicate is
//! already decided; undecided comparisons are returned as needs and the
//! statement converges on re-execution. It shares the access path too:
//! UPDATE and DELETE choose their rows through the same optimized
//! [`PhysicalPlan::Scan`] a `SELECT` with that `WHERE` would run
//! ([`target_plan`]), so machine conjuncts reject rows before a crowd
//! conjunct is asked about them and a pinned index is probed, not scanned.
//!
//! Multi-row statements are atomic: if any row fails (constraint
//! violation, evaluation error), mutations already applied by the same
//! statement are compensated before the error propagates, so the
//! database never holds a half-applied statement. The write-ahead log
//! depends on this — a statement is logged only after it succeeds, so a
//! partial in-memory effect would be invisible to recovery.

use crowddb_common::{CrowdError, Result, Row, TupleId, Value};
use crowddb_plan::{optimize, Binder, OptimizerConfig, PhysicalPlan};
use crowddb_sql::{Delete, Expr, Insert, Update};
use crowddb_storage::Database;

use crate::context::{CompareCaches, ExecCtx, ExecGuard};
use crate::eval::eval;
use crate::executor::{live_row_stats, lower_plan};
use crate::need::TaskNeed;
use crate::ops::scan::ScanOp;
use crate::ops::TableChange;

/// Result of a DML statement round.
#[derive(Debug, Clone, PartialEq)]
pub struct DmlResult {
    /// Rows inserted/updated/deleted this round.
    pub affected: usize,
    /// Crowd work pending (empty ⇒ the statement is fully applied).
    pub needs: Vec<TaskNeed>,
    /// The stored rows an applied statement removed and added, when the
    /// caller asked for them (`report`); `None` for a dry run too.
    pub change: Option<TableChange>,
}

/// Execute an INSERT under a cooperative-cancellation guard; each row is
/// a checkpoint, and a trip rolls the whole statement back (the normal
/// DML atomicity path).
///
/// Columns omitted from an explicit column list default to `CNULL` for
/// CROWD columns (so they will be crowdsourced on first use — the
/// CrowdSQL default) and `NULL` otherwise.
///
/// `report` asks for [`DmlResult::change`]; only a caller with a standing
/// query to tell pays the row copies.
pub fn execute_insert(
    db: &Database,
    caches: &CompareCaches,
    ins: &Insert,
    guard: ExecGuard,
    report: bool,
) -> Result<DmlResult> {
    let schema = db.schema(&ins.table)?;
    let bound_rows: Vec<Vec<crowddb_plan::BExpr>> = {
        db.with_catalog(|catalog| {
            let mut binder = Binder::new(catalog);
            ins.rows
                .iter()
                .map(|row| row.iter().map(|e| binder.bind_value_expr(e)).collect())
                .collect::<Result<Vec<_>>>()
        })?
    };

    // Map provided expressions onto schema positions.
    let positions: Vec<usize> = match &ins.columns {
        Some(cols) => {
            let mut out = Vec::with_capacity(cols.len());
            for c in cols {
                out.push(schema.column_index(c).ok_or_else(|| {
                    CrowdError::Analyze(format!(
                        "unknown column '{c}' in INSERT INTO {}",
                        schema.name
                    ))
                })?);
            }
            out
        }
        None => (0..schema.arity()).collect(),
    };

    let mut ctx = ExecCtx::with_guard(db, caches, guard);
    let empty = Row::default();
    let mut inserted: Vec<TupleId> = Vec::new();
    let mut added = Vec::new();
    let outcome = (|| {
        for exprs in &bound_rows {
            ctx.rt.check()?;
            if exprs.len() != positions.len() {
                return Err(CrowdError::Analyze(format!(
                    "INSERT INTO {} expects {} values, got {}",
                    schema.name,
                    positions.len(),
                    exprs.len()
                )));
            }
            // Defaults: CNULL for crowd columns, NULL otherwise.
            let mut values: Vec<Value> = schema
                .columns
                .iter()
                .map(|c| {
                    if c.crowd || schema.crowd_table {
                        Value::CNull
                    } else {
                        Value::Null
                    }
                })
                .collect();
            for (expr, &pos) in exprs.iter().zip(&positions) {
                values[pos] = eval(&mut ctx, expr, &empty)?;
            }
            let row = Row::new(values);
            let tid = db.with_table_mut(&schema.name, |t| {
                // A change set holds rows as stored (validated, coerced
                // to the column types): what a scan reads back.
                let stored = report.then(|| t.validate_row(row.clone())).transpose()?;
                let tid = t.insert(row)?;
                added.extend(stored.map(|row| (tid, row)));
                Ok(tid)
            })?;
            inserted.push(tid);
        }
        Ok(())
    })();
    if let Err(e) = outcome {
        // Atomicity: un-insert this statement's rows, newest first.
        for tid in inserted.into_iter().rev() {
            let _ = db.with_table_mut(&schema.name, |t| t.rollback_insert(tid));
        }
        return Err(e);
    }
    let affected = inserted.len();
    let (needs, _) = ctx.finish();
    Ok(DmlResult {
        affected,
        needs,
        change: report.then(|| TableChange {
            table: schema.name,
            removed: Vec::new(),
            added,
        }),
    })
}

/// The plan that selects the rows of an `UPDATE`/`DELETE` on `table`:
/// the `WHERE` over a scan of the table, through the same `optimize` →
/// `lower` a query gets. Always a single [`PhysicalPlan::Scan`] — what
/// `EXPLAIN UPDATE`/`EXPLAIN DELETE` print.
pub fn target_plan(db: &Database, table: &str, filter: Option<&Expr>) -> Result<PhysicalPlan> {
    let bound = db.with_catalog(|c| Binder::new(c).bind_table_scan(table, filter))?;
    let plan = optimize(bound, &live_row_stats(db), &OptimizerConfig::default());
    Ok(lower_plan(db, &plan))
}

/// The `(tid, row)` pairs the statement's `WHERE` passes on current
/// knowledge, in tid order, collected in full before anything is
/// mutated; undecided crowd predicates land in `ctx` as needs.
fn targets(
    ctx: &mut ExecCtx<'_>,
    table: &str,
    filter: Option<&Expr>,
) -> Result<Vec<(TupleId, Row)>> {
    let plan = target_plan(ctx.db, table, filter)?;
    ScanOp::new(&plan).tuples(ctx)
}

/// Evaluate an UPDATE for one round under a cooperative-cancellation
/// guard.
///
/// With `apply == false` this is a dry run: it reports how many rows
/// *would* be affected and which crowd work is needed, without mutating
/// anything. The driver resolves the needs first and applies the
/// statement exactly once — otherwise a non-idempotent assignment like
/// `SET n = n + 1` would be re-applied on every crowd round.
pub fn execute_update(
    db: &Database,
    caches: &CompareCaches,
    upd: &Update,
    apply: bool,
    guard: ExecGuard,
    report: bool,
) -> Result<DmlResult> {
    let schema = db.schema(&upd.table)?;
    let assignments = db.with_catalog(|catalog| {
        let mut binder = Binder::new(catalog);
        let mut assignments = Vec::with_capacity(upd.assignments.len());
        for (col, expr) in &upd.assignments {
            let idx = schema.column_index(col).ok_or_else(|| {
                CrowdError::Analyze(format!("unknown column '{col}' in UPDATE {}", schema.name))
            })?;
            assignments.push((idx, binder.bind_table_expr(&upd.table, expr)?));
        }
        Ok::<_, CrowdError>(assignments)
    })?;

    let mut ctx = ExecCtx::with_guard(db, caches, guard);
    let mut to_apply = Vec::new();
    for (tid, row) in targets(&mut ctx, &upd.table, upd.filter.as_ref())? {
        let mut new_row = row.clone();
        for (idx, expr) in &assignments {
            let v = eval(&mut ctx, expr, &row)?;
            new_row.set(*idx, v);
        }
        to_apply.push((tid, row, new_row));
    }
    let affected = to_apply.len();
    let mut change = None;
    if apply {
        // The rows as they were: what a failure restores, and the
        // `removed` half of the change set.
        let mut applied: Vec<(TupleId, Row)> = Vec::new();
        let mut added = Vec::new();
        for (tid, old_row, new_row) in to_apply {
            let updated = db.with_table_mut(&upd.table, |t| {
                if report {
                    added.push((tid, t.validate_row(new_row.clone())?));
                }
                t.update(tid, new_row)
            });
            match updated {
                Ok(()) => applied.push((tid, old_row)),
                Err(e) => {
                    // Atomicity: put the rows this statement already
                    // touched back the way they were.
                    for (tid, old) in applied.into_iter().rev() {
                        let _ = db.with_table_mut(&upd.table, |t| t.update(tid, old));
                    }
                    return Err(e);
                }
            }
        }
        change = report.then_some(TableChange {
            table: schema.name,
            removed: applied,
            added,
        });
    }
    let (needs, _) = ctx.finish();
    Ok(DmlResult {
        affected,
        needs,
        change,
    })
}

/// Evaluate a DELETE for one round; `apply == false` is a dry run (see
/// [`execute_update`]).
pub fn execute_delete(
    db: &Database,
    caches: &CompareCaches,
    del: &Delete,
    apply: bool,
    guard: ExecGuard,
    report: bool,
) -> Result<DmlResult> {
    let mut ctx = ExecCtx::with_guard(db, caches, guard);
    let victims = targets(&mut ctx, &del.table, del.filter.as_ref())?;
    let affected = victims.len();
    if apply {
        for (tid, _) in &victims {
            db.with_table_mut(&del.table, |t| t.delete(*tid).map(|_| ()))?;
        }
    }
    // Catalog names are the lower-cased spelling (`with_table_mut` above
    // found the table by it).
    let change = (apply && report).then(|| TableChange {
        table: del.table.to_ascii_lowercase(),
        removed: victims,
        added: Vec::new(),
    });
    let (needs, _) = ctx.finish();
    Ok(DmlResult {
        affected,
        needs,
        change,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowddb_sql::{parse_statement, Statement};

    fn setup() -> Database {
        let db = Database::new();
        let ddl = "CREATE TABLE talk (title STRING PRIMARY KEY, abstract CROWD STRING, \
                   nb_attendees CROWD INTEGER)";
        let Statement::CreateTable(ct) = parse_statement(ddl).unwrap() else {
            panic!()
        };
        let schema = db.with_catalog(|c| c.schema_from_ast(&ct)).unwrap();
        db.create_table(schema).unwrap();
        db
    }

    fn insert(db: &Database, sql: &str) -> DmlResult {
        let Statement::Insert(i) = parse_statement(sql).unwrap() else {
            panic!()
        };
        execute_insert(
            db,
            &CompareCaches::default(),
            &i,
            ExecGuard::unlimited(),
            false,
        )
        .unwrap()
    }

    #[test]
    fn insert_full_row() {
        let db = setup();
        let r = insert(&db, "INSERT INTO talk VALUES ('CrowdDB', CNULL, CNULL)");
        assert_eq!(r.affected, 1);
        assert!(r.needs.is_empty());
        assert_eq!(db.stats("talk").unwrap().live_rows, 1);
        assert_eq!(db.stats("talk").unwrap().cnull_values, 2);
    }

    #[test]
    fn insert_partial_defaults_crowd_columns_to_cnull() {
        let db = setup();
        insert(&db, "INSERT INTO talk (title) VALUES ('Qurk')");
        let rows = db.with_table("talk", |t| t.scan_rows()).unwrap().unwrap();
        assert!(rows[0].1[1].is_cnull(), "abstract defaults to CNULL");
        assert!(rows[0].1[2].is_cnull(), "nb_attendees defaults to CNULL");
    }

    #[test]
    fn insert_multi_row_and_expressions() {
        let db = setup();
        let r = insert(
            &db,
            "INSERT INTO talk (title, nb_attendees) VALUES ('a', 50 + 50), ('b', 2 * 10)",
        );
        assert_eq!(r.affected, 2);
        let rows = db.with_table("talk", |t| t.scan_rows()).unwrap().unwrap();
        assert_eq!(rows[0].1[2], Value::Int(100));
        assert_eq!(rows[1].1[2], Value::Int(20));
    }

    #[test]
    fn insert_arity_mismatch() {
        let db = setup();
        let Statement::Insert(i) =
            parse_statement("INSERT INTO talk (title) VALUES ('a', 'b')").unwrap()
        else {
            panic!()
        };
        assert!(execute_insert(
            &db,
            &CompareCaches::default(),
            &i,
            ExecGuard::unlimited(),
            false
        )
        .is_err());
    }

    #[test]
    fn failed_multi_row_insert_rolls_back_entirely() {
        let db = setup();
        insert(&db, "INSERT INTO talk (title) VALUES ('keep')");
        let Statement::Insert(i) =
            parse_statement("INSERT INTO talk (title) VALUES ('a'), ('b'), ('keep'), ('c')")
                .unwrap()
        else {
            panic!()
        };
        // 'keep' violates the primary key after 'a' and 'b' landed.
        assert!(execute_insert(
            &db,
            &CompareCaches::default(),
            &i,
            ExecGuard::unlimited(),
            false
        )
        .is_err());
        let rows = db.with_table("talk", |t| t.scan_rows()).unwrap().unwrap();
        assert_eq!(rows.len(), 1, "partial statement must be rolled back");
        // Tuple-id space is clean too: the next insert reuses slot 1, as
        // a log replay (which never sees the failed statement) would.
        insert(&db, "INSERT INTO talk (title) VALUES ('next')");
        let rows = db.with_table("talk", |t| t.scan_rows()).unwrap().unwrap();
        assert_eq!(rows[1].0, crowddb_common::TupleId(1));
    }

    #[test]
    fn failed_update_restores_touched_rows() {
        let db = setup();
        insert(
            &db,
            "INSERT INTO talk (title, nb_attendees) VALUES ('a', 1), ('b', 2), ('c', 3)",
        );
        // Renaming every title to 'z' violates the primary key on the
        // second row; the first row's rename must be undone.
        let Statement::Update(u) = parse_statement("UPDATE talk SET title = 'z'").unwrap() else {
            panic!()
        };
        assert!(execute_update(
            &db,
            &CompareCaches::default(),
            &u,
            true,
            ExecGuard::unlimited(),
            false
        )
        .is_err());
        let rows = db.with_table("talk", |t| t.scan_rows()).unwrap().unwrap();
        let titles: Vec<_> = rows.iter().map(|(_, r)| r[0].clone()).collect();
        assert_eq!(
            titles,
            vec![Value::str("a"), Value::str("b"), Value::str("c")]
        );
    }

    #[test]
    fn insert_unknown_column() {
        let db = setup();
        let Statement::Insert(i) = parse_statement("INSERT INTO talk (nope) VALUES (1)").unwrap()
        else {
            panic!()
        };
        assert!(execute_insert(
            &db,
            &CompareCaches::default(),
            &i,
            ExecGuard::unlimited(),
            false
        )
        .is_err());
    }

    #[test]
    fn update_with_filter() {
        let db = setup();
        insert(
            &db,
            "INSERT INTO talk VALUES ('a', 'x', 10), ('b', 'y', 20)",
        );
        let Statement::Update(u) =
            parse_statement("UPDATE talk SET nb_attendees = nb_attendees + 5 WHERE title = 'a'")
                .unwrap()
        else {
            panic!()
        };
        let r = execute_update(
            &db,
            &CompareCaches::default(),
            &u,
            true,
            ExecGuard::unlimited(),
            false,
        )
        .unwrap();
        assert_eq!(r.affected, 1);
        let rows = db.with_table("talk", |t| t.scan_rows()).unwrap().unwrap();
        assert_eq!(rows[0].1[2], Value::Int(15));
        assert_eq!(rows[1].1[2], Value::Int(20));
    }

    #[test]
    fn update_all_rows_without_filter() {
        let db = setup();
        insert(
            &db,
            "INSERT INTO talk VALUES ('a', 'x', 10), ('b', 'y', 20)",
        );
        let Statement::Update(u) = parse_statement("UPDATE talk SET abstract = 'revised'").unwrap()
        else {
            panic!()
        };
        let r = execute_update(
            &db,
            &CompareCaches::default(),
            &u,
            true,
            ExecGuard::unlimited(),
            false,
        )
        .unwrap();
        assert_eq!(r.affected, 2);
    }

    #[test]
    fn delete_with_filter() {
        let db = setup();
        insert(
            &db,
            "INSERT INTO talk VALUES ('a', 'x', 10), ('b', 'y', 20)",
        );
        let Statement::Delete(d) =
            parse_statement("DELETE FROM talk WHERE nb_attendees > 15").unwrap()
        else {
            panic!()
        };
        let r = execute_delete(
            &db,
            &CompareCaches::default(),
            &d,
            true,
            ExecGuard::unlimited(),
            false,
        )
        .unwrap();
        assert_eq!(r.affected, 1);
        assert_eq!(db.stats("talk").unwrap().live_rows, 1);
    }

    #[test]
    fn crowd_predicate_in_dml_reports_needs() {
        let db = setup();
        insert(&db, "INSERT INTO talk VALUES ('CrowDB', 'x', 10)");
        let Statement::Update(u) =
            parse_statement("UPDATE talk SET abstract = 'fixed' WHERE title ~= 'CrowdDB'").unwrap()
        else {
            panic!()
        };
        // Round 1: the comparison is unknown — nothing updated, one need.
        let r = execute_update(
            &db,
            &CompareCaches::default(),
            &u,
            true,
            ExecGuard::unlimited(),
            false,
        )
        .unwrap();
        assert_eq!(r.affected, 0);
        assert_eq!(r.needs.len(), 1);
        // Crowd says yes; round 2 applies the update.
        let mut caches = CompareCaches::default();
        caches.put_equal(
            "CrowDB",
            "CrowdDB",
            "Do these two values refer to the same entity?",
            true,
        );
        let r = execute_update(&db, &caches, &u, true, ExecGuard::unlimited(), false).unwrap();
        assert_eq!(r.affected, 1);
        assert!(r.needs.is_empty());
    }

    #[test]
    fn delete_everything() {
        let db = setup();
        insert(
            &db,
            "INSERT INTO talk VALUES ('a', 'x', 10), ('b', 'y', 20)",
        );
        let Statement::Delete(d) = parse_statement("DELETE FROM talk").unwrap() else {
            panic!()
        };
        let r = execute_delete(
            &db,
            &CompareCaches::default(),
            &d,
            true,
            ExecGuard::unlimited(),
            false,
        )
        .unwrap();
        assert_eq!(r.affected, 2);
        assert_eq!(db.stats("talk").unwrap().live_rows, 0);
    }
}
