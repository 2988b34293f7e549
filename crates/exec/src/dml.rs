//! DML execution: INSERT, UPDATE, DELETE, in two steps.
//!
//! [`select`] decides what a statement will write and writes nothing. It
//! shares the round-based crowd semantics of queries: an `UPDATE ... WHERE
//! name ~= 'IBM'` selects only rows whose crowd predicate is already
//! decided; undecided comparisons come back as needs and the statement
//! converges on re-selection. It shares the access path too: UPDATE and
//! DELETE choose their rows through the same optimized
//! [`PhysicalPlan::Scan`] a `SELECT` with that `WHERE` would run
//! ([`target_plan`]), so machine conjuncts reject rows before a crowd
//! conjunct is asked about them and a pinned index is probed, not scanned.
//!
//! [`apply`] is the one function that mutates, and it evaluates nothing:
//! it writes a [`Selection`] under the table's write lock, an UPDATE or
//! DELETE target only if it is still stored as it was selected — `SET n =
//! n + 1` is computed once, and a crowd answer written back between the
//! two steps is never overwritten (the caller selects again instead). A
//! statement is atomic: if a row fails or is found changed, what was
//! already written is compensated under the same lock, so neither a reader
//! nor the write-ahead log (a statement is logged only after it succeeds)
//! ever sees half of one.

use crowddb_common::{CrowdError, Result, Row, TupleId, Value};
use crowddb_plan::{optimize, Binder, OptimizerConfig, PhysicalPlan};
use crowddb_sql::{Expr, Insert, Statement, Update};
use crowddb_storage::Database;

use crate::context::{CompareCaches, ExecCtx, ExecGuard};
use crate::eval::{eval, eval_owned};
use crate::executor::{live_row_stats, lower_plan};
use crate::need::TaskNeed;
use crate::ops::scan::ScanOp;
use crate::ops::TableChange;

/// One row a statement is to write.
#[derive(Debug, Clone, PartialEq)]
pub enum Target {
    /// Store this new row.
    Insert(Row),
    /// Replace the row selected at this tuple id (first) by the second.
    Update(TupleId, Row, Row),
    /// Remove the row selected at this tuple id.
    Delete(TupleId, Row),
}

/// What one round of a DML statement decided: [`select`]'s output,
/// [`apply`]'s input.
#[derive(Debug, Clone, PartialEq)]
pub struct Selection {
    /// Catalog name of the table written.
    pub table: String,
    /// The rows to write, in statement (`VALUES`) or tuple-id order.
    pub targets: Vec<Target>,
    /// Crowd work pending.
    pub needs: Vec<TaskNeed>,
    /// Rows an UPDATE or DELETE left alone because its `WHERE` was
    /// Unknown on a `CNULL` it reads. A DML's `WHERE` asks the crowd
    /// nothing, so only with no needs and no such rows is the selection
    /// the whole statement.
    pub undecided: u64,
}

/// What an applied statement did.
#[derive(Debug, Clone, PartialEq)]
pub struct Applied {
    /// Rows inserted/updated/deleted.
    pub affected: usize,
    /// The stored rows removed and added, when the caller asked for them
    /// (`report`): only one with a standing query to tell pays the copies.
    pub change: Option<TableChange>,
}

/// Decide what `stmt` writes on current knowledge, under a
/// cooperative-cancellation guard; mutates nothing.
pub fn select(
    db: &Database,
    caches: &CompareCaches,
    stmt: &Statement,
    guard: ExecGuard,
) -> Result<Selection> {
    let mut ctx = ExecCtx::with_guard(db, caches, guard);
    let (table, targets, undecided) = match stmt {
        Statement::Insert(ins) => (&ins.table, new_rows(&mut ctx, ins)?, 0),
        Statement::Update(upd) => {
            let (targets, undecided) = new_images(&mut ctx, upd)?;
            (&upd.table, targets, undecided)
        }
        Statement::Delete(del) => {
            let (victims, undecided) = stored_targets(&mut ctx, &del.table, del.filter.as_ref())?;
            let delete = |(tid, row)| Target::Delete(tid, row);
            (
                &del.table,
                victims.into_iter().map(delete).collect(),
                undecided,
            )
        }
        other => {
            return Err(CrowdError::Internal(format!(
                "not a DML statement: {other}"
            )))
        }
    };
    let (needs, _) = ctx.finish();
    Ok(Selection {
        // Catalog names are the lower-cased spelling.
        table: table.to_ascii_lowercase(),
        targets,
        needs,
        undecided,
    })
}

/// An INSERT's rows, each bound and evaluated in turn; each is a
/// cancellation checkpoint.
///
/// Columns omitted from an explicit column list default to `CNULL` for
/// CROWD columns (so they will be crowdsourced on first use — the
/// CrowdSQL default) and `NULL` otherwise.
fn new_rows(ctx: &mut ExecCtx<'_>, ins: &Insert) -> Result<Vec<Target>> {
    let db = ctx.db;
    let schema = db.schema(&ins.table)?;
    // Map provided expressions onto schema positions.
    let unknown = |c| format!("unknown column '{c}' in INSERT INTO {}", schema.name);
    let positions: Vec<usize> = match &ins.columns {
        Some(cols) => cols
            .iter()
            .map(|c| {
                schema
                    .column_index(c)
                    .ok_or_else(|| CrowdError::Analyze(unknown(c)))
            })
            .collect::<Result<_>>()?,
        None => (0..schema.arity()).collect(),
    };
    // Defaults: CNULL for crowd columns, NULL otherwise.
    let defaults: Vec<Value> = (schema.columns.iter())
        .map(|c| match c.crowd || schema.crowd_table {
            true => Value::CNull,
            false => Value::Null,
        })
        .collect();
    let empty = Row::default();
    let mut bound = Vec::with_capacity(positions.len());
    let mut rows = Vec::with_capacity(ins.rows.len());
    for exprs in &ins.rows {
        ctx.rt.check()?;
        if exprs.len() != positions.len() {
            return Err(CrowdError::Analyze(format!(
                "INSERT INTO {} expects {} values, got {}",
                schema.name,
                positions.len(),
                exprs.len()
            )));
        }
        // Bound under the catalog's lock, evaluated outside it: a
        // subquery among the values takes that lock itself.
        db.with_catalog(|catalog| {
            let mut binder = Binder::new(catalog);
            for expr in exprs {
                bound.push(binder.bind_value_expr(expr)?);
            }
            Ok::<_, CrowdError>(())
        })?;
        let mut values = defaults.clone();
        for (expr, &pos) in bound.drain(..).zip(&positions) {
            values[pos] = eval_owned(ctx, expr, &empty)?;
        }
        rows.push(Target::Insert(Row::new(values)));
    }
    Ok(rows)
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
/// knowledge, in tid order, and how many rows it could not decide on a
/// `CNULL` (see [`Selection::undecided`]); undecided crowd predicates land
/// in `ctx` as needs. Collected in full, so an UPDATE may move the very
/// key its access path used without visiting a row twice.
fn stored_targets(
    ctx: &mut ExecCtx<'_>,
    table: &str,
    filter: Option<&Expr>,
) -> Result<(Vec<(TupleId, Row)>, u64)> {
    let plan = target_plan(ctx.db, table, filter)?;
    ScanOp::new(&plan).tuples(ctx)
}

/// An UPDATE's rows, each with its assignments evaluated over the row as
/// selected, and the rows its `WHERE` could not decide.
fn new_images(ctx: &mut ExecCtx<'_>, upd: &Update) -> Result<(Vec<Target>, u64)> {
    let db = ctx.db;
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

    let (selected, undecided) = stored_targets(ctx, &upd.table, upd.filter.as_ref())?;
    let mut targets = Vec::with_capacity(selected.len());
    for (tid, row) in selected {
        let mut new_row = row.clone();
        for (idx, expr) in &assignments {
            let v = eval(ctx, expr, &row)?;
            new_row.set(*idx, v);
        }
        targets.push(Target::Update(tid, row, new_row));
    }
    Ok((targets, undecided))
}

/// How to take back one write of a statement.
enum Undo {
    Insert(TupleId),
    Update(TupleId, Row),
    Delete(TupleId, Row),
}

/// Write `selection`, all of it or nothing, under the table's write
/// lock. `Ok(None)` — and nothing changed — when an UPDATE or DELETE
/// target is no longer stored as it was selected (a crowd write-back or
/// another session got there first): select again. Consecutive INSERT
/// targets are one run ([`HeapTable::insert_rows`]), which checks every
/// row before it writes any.
///
/// [`HeapTable::insert_rows`]: crowddb_storage::HeapTable::insert_rows
pub fn apply(db: &Database, selection: Selection, report: bool) -> Result<Option<Applied>> {
    let Selection { table, targets, .. } = selection;
    db.with_table_mut(&table, |t| {
        let mut done = Vec::with_capacity(targets.len());
        // A change set holds rows as stored (validated, coerced to the
        // column types): what a scan reads back.
        let mut added = Vec::new();
        let outcome = (|| {
            let mut targets = targets.into_iter().peekable();
            while let Some(target) = targets.next() {
                match target {
                    Target::Insert(row) => {
                        // Consecutive INSERT targets go in as one run, at
                        // consecutive tuple ids.
                        let mut rows = vec![row];
                        let more = |t: &Target| matches!(t, Target::Insert(_));
                        while let Some(Target::Insert(row)) = targets.next_if(more) {
                            rows.push(row);
                        }
                        let next = t.next_tid().0;
                        let rows: Vec<(TupleId, Row)> = (next..).map(TupleId).zip(rows).collect();
                        let stored = t.insert_rows(rows)?;
                        done.extend(stored.iter().map(|(tid, _)| Undo::Insert(*tid)));
                        if report {
                            added.extend(stored);
                        }
                    }
                    Target::Update(tid, old, new) => {
                        let stored = report.then(|| t.validate_row(new.clone())).transpose()?;
                        if !t.update_if(tid, &old, new)? {
                            return Ok(false);
                        }
                        added.extend(stored.map(|row| (tid, row)));
                        done.push(Undo::Update(tid, old));
                    }
                    Target::Delete(tid, old) => {
                        if !t.delete_if(tid, &old)? {
                            return Ok(false);
                        }
                        done.push(Undo::Delete(tid, old));
                    }
                }
            }
            Ok(true)
        })();
        if !matches!(outcome, Ok(true)) {
            // Atomicity: take this statement's writes back, newest first
            // (so an un-inserted row is the tail and its slot is reclaimed).
            for undo in done.into_iter().rev() {
                let _ = match undo {
                    Undo::Insert(tid) => t.rollback_insert(tid).map(drop),
                    Undo::Update(tid, old) => t.update(tid, old),
                    Undo::Delete(tid, old) => t.insert_rows(vec![(tid, old)]).map(drop),
                };
            }
            return outcome.map(|_| None);
        }
        Ok(Some(Applied {
            affected: done.len(),
            change: report.then(|| TableChange {
                table: table.clone(),
                removed: done
                    .into_iter()
                    .filter_map(|undo| match undo {
                        Undo::Insert(_) => None,
                        Undo::Update(tid, old) | Undo::Delete(tid, old) => Some((tid, old)),
                    })
                    .collect(),
                added,
            }),
        }))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowddb_sql::parse_statement;

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

    /// One round of `sql`, selected and applied: rows affected and the
    /// needs left.
    fn run(db: &Database, caches: &CompareCaches, sql: &str) -> Result<(usize, Vec<TaskNeed>)> {
        let stmt = parse_statement(sql).unwrap();
        let selection = select(db, caches, &stmt, ExecGuard::unlimited())?;
        let needs = selection.needs.clone();
        let applied = apply(db, selection, false)?.expect("nothing wrote in between");
        Ok((applied.affected, needs))
    }

    fn exec(db: &Database, sql: &str) -> usize {
        let (affected, needs) = run(db, &CompareCaches::default(), sql).unwrap();
        assert!(needs.is_empty(), "{sql}: {needs:?}");
        affected
    }

    fn rows(db: &Database) -> Vec<(TupleId, Row)> {
        db.with_table("talk", |t| t.scan_rows()).unwrap().unwrap()
    }

    #[test]
    fn insert_full_row() {
        let db = setup();
        assert_eq!(
            exec(&db, "INSERT INTO talk VALUES ('CrowdDB', CNULL, CNULL)"),
            1
        );
        assert_eq!(db.stats("talk").unwrap().live_rows, 1);
        assert_eq!(db.stats("talk").unwrap().cnull_values, 2);
    }

    #[test]
    fn insert_partial_defaults_crowd_columns_to_cnull() {
        let db = setup();
        exec(&db, "INSERT INTO talk (title) VALUES ('Qurk')");
        let rows = rows(&db);
        assert!(rows[0].1[1].is_cnull(), "abstract defaults to CNULL");
        assert!(rows[0].1[2].is_cnull(), "nb_attendees defaults to CNULL");
    }

    #[test]
    fn insert_multi_row_and_expressions() {
        let db = setup();
        let sql = "INSERT INTO talk (title, nb_attendees) VALUES ('a', 50 + 50), ('b', 2 * 10)";
        assert_eq!(exec(&db, sql), 2);
        let rows = rows(&db);
        assert_eq!(rows[0].1[2], Value::Int(100));
        assert_eq!(rows[1].1[2], Value::Int(20));
    }

    #[test]
    fn insert_arity_mismatch() {
        let db = setup();
        let sql = "INSERT INTO talk (title) VALUES ('a', 'b')";
        assert!(run(&db, &CompareCaches::default(), sql).is_err());
    }

    #[test]
    fn insert_unknown_column() {
        let db = setup();
        let sql = "INSERT INTO talk (nope) VALUES (1)";
        assert!(run(&db, &CompareCaches::default(), sql).is_err());
    }

    #[test]
    fn select_mutates_nothing() {
        let db = setup();
        exec(&db, TWO_TALKS);
        let before = db.snapshot().unwrap();
        for sql in [
            "INSERT INTO talk (title) VALUES ('c')",
            "UPDATE talk SET nb_attendees = nb_attendees + 1",
            "DELETE FROM talk",
        ] {
            let stmt = parse_statement(sql).unwrap();
            let s = select(
                &db,
                &CompareCaches::default(),
                &stmt,
                ExecGuard::unlimited(),
            )
            .unwrap();
            assert!(!s.targets.is_empty(), "{sql}");
            assert_eq!(db.snapshot().unwrap(), before, "{sql}");
        }
    }

    #[test]
    fn failed_multi_row_insert_rolls_back_entirely() {
        let db = setup();
        exec(&db, "INSERT INTO talk (title) VALUES ('keep')");
        // 'keep' violates the primary key after 'a' and 'b' landed.
        let sql = "INSERT INTO talk (title) VALUES ('a'), ('b'), ('keep'), ('c')";
        assert!(run(&db, &CompareCaches::default(), sql).is_err());
        assert_eq!(rows(&db).len(), 1, "partial statement must be rolled back");
        // Tuple-id space is clean too: the next insert reuses slot 1, as
        // a log replay (which never sees the failed statement) would.
        exec(&db, "INSERT INTO talk (title) VALUES ('next')");
        assert_eq!(rows(&db)[1].0, TupleId(1));
    }

    #[test]
    fn failed_update_restores_touched_rows() {
        let db = setup();
        exec(
            &db,
            "INSERT INTO talk (title, nb_attendees) VALUES ('a', 1), ('b', 2), ('c', 3)",
        );
        // Renaming every title to 'z' violates the primary key on the
        // second row; the first row's rename must be undone.
        assert!(run(
            &db,
            &CompareCaches::default(),
            "UPDATE talk SET title = 'z'"
        )
        .is_err());
        let titles: Vec<_> = rows(&db).iter().map(|(_, r)| r[0].clone()).collect();
        assert_eq!(
            titles,
            vec![Value::str("a"), Value::str("b"), Value::str("c")]
        );
    }

    const TWO_TALKS: &str = "INSERT INTO talk VALUES ('a', 'x', 10), ('b', 'y', 20)";

    #[test]
    fn rows_inserted_one_per_statement_or_many_store_the_same() {
        let tuples: Vec<String> = (0..600)
            .map(|i| match i % 7 {
                0 => format!("('talk {i:03}', CNULL, CNULL)"),
                _ => format!("('talk {i:03}', 'abstract {}', {})", i % 13, (i * 37) % 101),
            })
            .collect();
        let load = |per_statement: usize| {
            let db = setup();
            db.create_index("talk_nb", "talk", &["nb_attendees".into()], false)
                .unwrap();
            for chunk in tuples.chunks(per_statement) {
                let sql = format!("INSERT INTO talk VALUES {}", chunk.join(", "));
                assert_eq!(exec(&db, &sql), chunk.len());
            }
            let entries = db
                .with_table("talk", |t| {
                    (t.indexes().iter())
                        .map(|idx| {
                            let mut tids = idx.missing_key_tids(t.pager()).unwrap();
                            tids.extend(idx.range(t.pager(), None, None).unwrap());
                            tids
                        })
                        .collect::<Vec<_>>()
                })
                .unwrap();
            (db.snapshot().unwrap(), entries)
        };
        let one = load(1);
        for per_statement in [7, 250, 600] {
            assert!(
                load(per_statement) == one,
                "{per_statement} rows a statement"
            );
        }
    }

    #[test]
    fn update_with_filter() {
        let db = setup();
        exec(&db, TWO_TALKS);
        let sql = "UPDATE talk SET nb_attendees = nb_attendees + 5 WHERE title = 'a'";
        assert_eq!(exec(&db, sql), 1);
        assert_eq!(rows(&db)[0].1[2], Value::Int(15));
        assert_eq!(rows(&db)[1].1[2], Value::Int(20));
    }

    #[test]
    fn update_all_rows_without_filter() {
        let db = setup();
        exec(&db, TWO_TALKS);
        assert_eq!(exec(&db, "UPDATE talk SET abstract = 'revised'"), 2);
    }

    #[test]
    fn delete_with_filter() {
        let db = setup();
        exec(&db, TWO_TALKS);
        assert_eq!(exec(&db, "DELETE FROM talk WHERE nb_attendees > 15"), 1);
        assert_eq!(db.stats("talk").unwrap().live_rows, 1);
    }

    #[test]
    fn delete_everything() {
        let db = setup();
        exec(&db, TWO_TALKS);
        assert_eq!(exec(&db, "DELETE FROM talk"), 2);
        assert_eq!(db.stats("talk").unwrap().live_rows, 0);
    }

    #[test]
    fn crowd_predicate_in_dml_reports_needs() {
        let db = setup();
        exec(&db, "INSERT INTO talk VALUES ('CrowDB', 'x', 10)");
        let sql = "UPDATE talk SET abstract = 'fixed' WHERE title ~= 'CrowdDB'";
        // Round 1: the comparison is unknown — nothing updated, one need.
        let (affected, needs) = run(&db, &CompareCaches::default(), sql).unwrap();
        assert_eq!((affected, needs.len()), (0, 1));
        // Crowd says yes; round 2 applies the update.
        let mut caches = CompareCaches::default();
        caches.put_equal(
            "CrowDB",
            "CrowdDB",
            "Do these two values refer to the same entity?",
            true,
        );
        let (affected, needs) = run(&db, &caches, sql).unwrap();
        assert_eq!((affected, needs.len()), (1, 0));
    }
}
