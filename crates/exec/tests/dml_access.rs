//! DML access-path differential.
//!
//! `UPDATE`/`DELETE` choose their rows through the optimizer and the one
//! `Scan` operator — index point probes, range scans, machine conjuncts
//! ahead of crowd conjuncts. The oracle below is the code that used to do
//! it in `src/dml.rs`, demoted to reference: `scan_rows()` over the whole
//! table and `eval_truth` of the *unoptimized* bound filter, row by row.
//! For every access kind and both statement kinds the two must agree on
//! the rows affected, the stored state after the apply (snapshot bytes,
//! so tuple ids too) and the crowd work asked for — where the new path
//! may ask for *less* (it never asks about a row a machine conjunct or an
//! index already rejected), never for anything the oracle would not.
//!
//! The subject is driven the way the engine drives it: `dml::select`
//! once (held to the oracle's dry run, and to having written nothing),
//! then `dml::apply` of that very selection (held to the oracle's apply).
//! What `apply` does when the selection has gone stale in between —
//! compare-on-write, compensation, "select again" — is the second half
//! of this file.

use crowddb_common::{CrowdError, Result, Row, TupleId, Value};
use crowddb_exec::dml::{self, target_plan, Selection, Target};
use crowddb_exec::eval::{eval, eval_truth};
use crowddb_exec::{CompareCaches, ExecCtx, ExecGuard, TableChange, TaskNeed};
use crowddb_plan::Binder;
use crowddb_sql::{parse_statement, Statement};
use crowddb_storage::{Database, PagerConfig};

const EQUAL: &str = "Do these two values refer to the same entity?";

fn create(db: &Database, ddl: &str) {
    let Statement::CreateTable(ct) = parse_statement(ddl).unwrap() else {
        panic!("{ddl}")
    };
    let schema = db.with_catalog(|c| c.schema_from_ast(&ct)).unwrap();
    db.create_table(schema).unwrap();
}

fn insert(db: &Database, sql: &str) {
    let selection = select(
        db,
        &CompareCaches::default(),
        &parse_statement(sql).unwrap(),
    );
    dml::apply(db, selection.expect(sql), false)
        .expect(sql)
        .expect("nobody else writes");
}

fn select(db: &Database, caches: &CompareCaches, stmt: &Statement) -> Result<Selection> {
    dml::select(db, caches, stmt, ExecGuard::unlimited())
}

/// One round of a statement, as either side reports it.
#[derive(Debug)]
struct Round {
    affected: usize,
    needs: Vec<TaskNeed>,
    /// The rows an applied round removed and added.
    change: Option<TableChange>,
}

/// `item`: single-column PK, a B-tree on a nullable machine column
/// (`grp`) and one on a CROWD column (`score`), so both indexes hold
/// missing keys. `pair`: composite PK. `priced`: a B-tree on a FLOAT
/// column, for literals whose type is not the column's.
fn world() -> Database {
    let db = Database::new();
    create(
        &db,
        "CREATE TABLE item (id INTEGER PRIMARY KEY, name STRING, score CROWD INTEGER, \
         grp INTEGER)",
    );
    create(
        &db,
        "CREATE TABLE pair (a INTEGER, b STRING, v INTEGER, PRIMARY KEY (a, b))",
    );
    create(
        &db,
        "CREATE TABLE priced (sku INTEGER PRIMARY KEY, price FLOAT)",
    );
    for (name, table, col) in [
        ("item_grp", "item", "grp"),
        ("item_score", "item", "score"),
        ("priced_price", "priced", "price"),
    ] {
        db.create_index(name, table, &[col.to_string()], false)
            .unwrap();
    }
    insert(
        &db,
        "INSERT INTO item VALUES (1, 'n1', 10, 1), (2, 'n2', CNULL, 1), (3, 'n3', 30, 2), \
         (4, 'n4', 40, 2), (5, 'n5', 50, NULL), (6, 'n6', CNULL, 3), (7, 'n7', 70, 3), \
         (8, 'n8', 50, 4), (9, 'n9', 90, NULL), (10, 'n10', 100, 2)",
    );
    insert(
        &db,
        "INSERT INTO pair VALUES (1, 'x', 0), (1, 'y', 0), (2, 'x', 0), (2, 'y', 0), (3, 'z', 0)",
    );
    insert(
        &db,
        "INSERT INTO priced VALUES (1, 3), (2, 3.0), (3, 3.5), (4, 4), (5, NULL)",
    );
    db
}

/// The reference row selection: every stored tuple, the filter as bound.
fn oracle_targets(
    ctx: &mut ExecCtx<'_>,
    table: &str,
    filter: Option<&crowddb_sql::Expr>,
) -> Result<Vec<(TupleId, Row)>> {
    let db = ctx.db;
    let filter = match filter {
        Some(f) => Some(db.with_catalog(|c| Binder::new(c).bind_table_expr(table, f))?),
        None => None,
    };
    let mut hits = Vec::new();
    for (tid, row) in db.with_table(table, |t| t.scan_rows())?? {
        let hit = match &filter {
            Some(f) => eval_truth(ctx, f, &row)?.passes_filter(),
            None => true,
        };
        if hit {
            hits.push((tid, row));
        }
    }
    Ok(hits)
}

/// The reference UPDATE/DELETE, apply and rollback included. Its change
/// set is read back from storage: the rows the victims' tuple ids held
/// before, the rows they hold after.
fn oracle(db: &Database, caches: &CompareCaches, stmt: &Statement, apply: bool) -> Result<Round> {
    let mut ctx = ExecCtx::with_guard(db, caches, ExecGuard::unlimited());
    let mut change = None;
    let affected = match stmt {
        Statement::Delete(del) => {
            let victims = oracle_targets(&mut ctx, &del.table, del.filter.as_ref())?;
            if apply {
                for (tid, _) in &victims {
                    db.with_table_mut(&del.table, |t| t.delete(*tid).map(|_| ()))?;
                }
            }
            let affected = victims.len();
            change = apply.then(|| TableChange {
                table: del.table.clone(),
                removed: victims,
                added: Vec::new(),
            });
            affected
        }
        Statement::Update(upd) => {
            let schema = db.schema(&upd.table)?;
            let mut assignments = Vec::new();
            for (col, expr) in &upd.assignments {
                let idx = schema
                    .column_index(col)
                    .ok_or_else(|| CrowdError::Analyze(format!("unknown column '{col}'")))?;
                let bound =
                    db.with_catalog(|c| Binder::new(c).bind_table_expr(&upd.table, expr))?;
                assignments.push((idx, bound));
            }
            let mut to_apply = Vec::new();
            for (tid, row) in oracle_targets(&mut ctx, &upd.table, upd.filter.as_ref())? {
                let mut new_row = row.clone();
                for (idx, expr) in &assignments {
                    let v = eval(&mut ctx, expr, &row)?;
                    new_row.set(*idx, v);
                }
                to_apply.push((tid, row, new_row));
            }
            let affected = to_apply.len();
            if apply {
                let mut applied: Vec<(TupleId, Row)> = Vec::new();
                for (tid, old, new) in to_apply {
                    match db.with_table_mut(&upd.table, |t| t.update(tid, new)) {
                        Ok(()) => applied.push((tid, old)),
                        Err(e) => {
                            for (tid, old) in applied.into_iter().rev() {
                                let _ = db.with_table_mut(&upd.table, |t| t.update(tid, old));
                            }
                            return Err(e);
                        }
                    }
                }
                let stored = |tid: TupleId| db.with_table(&upd.table, |t| t.get(tid));
                change = Some(TableChange {
                    table: upd.table.clone(),
                    added: applied
                        .iter()
                        .map(|(tid, _)| Ok((*tid, stored(*tid)??.expect("just updated"))))
                        .collect::<Result<_>>()?,
                    removed: applied,
                });
            }
            affected
        }
        other => panic!("not an UPDATE/DELETE: {other}"),
    };
    let (needs, _) = ctx.finish();
    Ok(Round {
        affected,
        needs,
        change,
    })
}

fn need_keys(needs: &[TaskNeed]) -> Vec<String> {
    let mut keys: Vec<String> = needs.iter().map(|n| format!("{n:?}")).collect();
    keys.sort();
    keys
}

/// Run `sql` through the subject and the oracle on twin worlds — select
/// against the oracle's dry run, then apply that selection against the
/// oracle's apply — and hold every observable to the oracle's. Returns
/// the subject's apply-round result.
fn differential(sql: &str, caches: &CompareCaches) -> Result<Round> {
    let stmt = parse_statement(sql).unwrap();
    let (ours, theirs) = (world(), world());
    let untouched = ours.snapshot().unwrap();
    let held = |step: &str, got: &Result<Round>, want: Result<Round>| {
        assert_eq!(
            ours.snapshot().unwrap(),
            theirs.snapshot().unwrap(),
            "{sql} ({step}): stored state diverges"
        );
        match (got, &want) {
            (Ok(g), Ok(w)) => {
                assert_eq!(g.affected, w.affected, "{sql} ({step})");
                assert_eq!(g.change, w.change, "{sql} ({step}): change set");
                let (g, w) = (need_keys(&g.needs), need_keys(&w.needs));
                assert!(
                    g.iter().all(|n| w.contains(n)),
                    "{sql} ({step}): asks what the oracle does not: {g:?} vs {w:?}"
                );
            }
            (Err(_), Err(_)) => {}
            _ => panic!("{sql} ({step}): {got:?} vs {want:?}"),
        }
    };

    let selection = select(&ours, caches, &stmt);
    let selected = selection.as_ref().map_err(Clone::clone).map(|s| Round {
        affected: s.targets.len(),
        needs: s.needs.clone(),
        change: None,
    });
    held("select", &selected, oracle(&theirs, caches, &stmt, false));
    assert_eq!(ours.snapshot().unwrap(), untouched, "{sql}: select mutated");

    let applied = selection.and_then(|s| {
        let needs = s.needs.clone();
        let applied = dml::apply(&ours, s, true)?.expect("nobody else writes");
        Ok(Round {
            affected: applied.affected,
            needs,
            change: applied.change,
        })
    });
    held("apply", &applied, oracle(&theirs, caches, &stmt, true));
    applied
}

fn access_of(sql: &str) -> &'static str {
    let db = world();
    let (table, filter) = match parse_statement(sql).unwrap() {
        Statement::Update(u) => (u.table, u.filter),
        Statement::Delete(d) => (d.table, d.filter),
        other => panic!("{other}"),
    };
    target_plan(&db, &table, filter.as_ref()).unwrap().name()
}

/// Machine predicates, one per access kind; each runs as a DELETE and as
/// an UPDATE.
const ITEM_FILTERS: &[(&str, &str)] = &[
    // primary-key point
    ("id = 3", "IndexScan"),
    ("3 = id AND grp = 2", "IndexScan"),
    ("id = 99", "IndexScan"),
    ("id = 2 + 1", "IndexScan"),
    // a literal that is not the key's type is no key: the residual decides
    ("id = 3.0", "TableScan"),
    ("id = 3.5", "TableScan"),
    ("id = '3'", "TableScan"),
    ("id = 3.0 AND id = 3", "IndexScan"),
    // secondary B-tree point, keys NULL on some rows
    ("grp = 2", "IndexScan"),
    ("grp = 7", "IndexScan"),
    // secondary B-tree point on a CROWD column, keys CNULL on some rows
    ("score = 50", "IndexScan"),
    // ranges: open, closed, strict, both ends
    ("grp >= 2", "IndexRangeScan"),
    ("grp > 2", "IndexRangeScan"),
    ("grp <= 2", "IndexRangeScan"),
    ("grp < 2", "IndexRangeScan"),
    ("grp > 1 AND grp < 4", "IndexRangeScan"),
    ("grp >= 1 AND grp <= 2 AND name <> 'n3'", "IndexRangeScan"),
    ("4 > grp", "IndexRangeScan"),
    ("score > 40", "IndexRangeScan"),
    ("score >= 50 AND score <= 90", "IndexRangeScan"),
    ("grp >= 1.5 AND grp < 3.0", "IndexRangeScan"),
    ("grp = 2.0", "TableScan"),
    // nothing to pin: full scan
    ("name = 'n4'", "TableScan"),
    ("name LIKE 'n1%'", "TableScan"),
    ("id = 1 OR id = 2", "TableScan"),
    ("grp IS NULL", "TableScan"),
    ("score IS CNULL", "TableScan"),
    ("id = NULL", "TableScan"),
    ("1 = 1", "TableScan"),
    ("1 = 0", "TableScan"),
];

#[test]
fn every_access_kind_selects_the_oracles_rows() {
    let caches = CompareCaches::default();
    for (filter, access) in ITEM_FILTERS {
        for sql in [
            format!("DELETE FROM item WHERE {filter}"),
            format!("UPDATE item SET name = name || '!' WHERE {filter}"),
        ] {
            assert_eq!(access_of(&sql), *access, "{sql}");
            let r = differential(&sql, &caches).expect(&sql);
            assert!(r.needs.is_empty(), "{sql}: {:?}", r.needs);
        }
    }
    for sql in ["DELETE FROM item", "UPDATE item SET grp = 0"] {
        assert_eq!(access_of(sql), "TableScan");
        assert_eq!(differential(sql, &caches).unwrap().affected, 10);
    }
}

#[test]
fn composite_primary_key_is_a_point_probe() {
    let caches = CompareCaches::default();
    for (filter, access, hits) in [
        ("a = 1 AND b = 'y'", "IndexScan", 1),
        ("b = 'x' AND v = 0 AND a = 2", "IndexScan", 1),
        ("a = 3 AND b = 'nope'", "IndexScan", 0),
        // Half a key pins nothing.
        ("a = 1", "TableScan", 2),
    ] {
        for sql in [
            format!("DELETE FROM pair WHERE {filter}"),
            format!("UPDATE pair SET v = v + 1 WHERE {filter}"),
        ] {
            assert_eq!(access_of(&sql), access, "{sql}");
            assert_eq!(differential(&sql, &caches).unwrap().affected, hits, "{sql}");
        }
    }
}

/// SQL `=` unifies numerics where an index probe matches stored keys
/// exactly: an integer literal probes a FLOAT index as the float the
/// column stores, and a float literal on an INTEGER key falls back to a
/// scan — either way the rows the oracle's `=` finds.
#[test]
fn numeric_literals_unify_with_the_indexed_column() {
    let caches = CompareCaches::default();
    for (filter, access, hits) in [
        ("price = 3", "IndexScan", 2),
        ("price = 3.0", "IndexScan", 2),
        ("3 = price AND sku = 2", "IndexScan", 1),
        ("price = 4", "IndexScan", 1),
        ("price = 'x'", "TableScan", 0),
        ("price >= 3 AND price < 4", "IndexRangeScan", 3),
        ("sku = 2.0", "TableScan", 1),
        ("sku = 2.5", "TableScan", 0),
    ] {
        for sql in [
            format!("DELETE FROM priced WHERE {filter}"),
            format!("UPDATE priced SET price = price + 1 WHERE {filter}"),
        ] {
            assert_eq!(access_of(&sql), access, "{sql}");
            assert_eq!(differential(&sql, &caches).unwrap().affected, hits, "{sql}");
        }
    }
    for (filter, access, hits) in [
        ("a = 1.0 AND b = 'y'", "TableScan", 1),
        ("a = 1 AND b = 1", "TableScan", 0),
    ] {
        let sql = format!("DELETE FROM pair WHERE {filter}");
        assert_eq!(access_of(&sql), access, "{sql}");
        assert_eq!(differential(&sql, &caches).unwrap().affected, hits, "{sql}");
    }
}

/// An UPDATE may rewrite the very key its access path used: the targets
/// are collected before the first mutation, so no row is visited twice
/// (no Halloween problem) and none is skipped.
#[test]
fn update_may_move_the_key_it_was_found_by() {
    let caches = CompareCaches::default();
    for (sql, hits) in [
        ("UPDATE item SET grp = grp + 1 WHERE grp >= 2", 6),
        ("UPDATE item SET grp = grp - 1 WHERE grp <= 3", 7),
        ("UPDATE item SET id = id + 100 WHERE id = 3", 1),
        ("UPDATE item SET score = score + 50 WHERE score >= 50", 5),
        ("UPDATE item SET grp = NULL WHERE grp = 2", 3),
        ("UPDATE item SET grp = 2 WHERE grp IS NULL", 2),
        ("UPDATE pair SET b = b || b WHERE a = 2 AND b = 'x'", 1),
    ] {
        assert_eq!(differential(sql, &caches).unwrap().affected, hits, "{sql}");
    }
}

/// A statement that fails part-way rolls back the same way whichever
/// access path found its rows: same error side, same (restored) state.
#[test]
fn failing_update_rolls_back_identically() {
    let caches = CompareCaches::default();
    for sql in [
        "UPDATE item SET id = 5 WHERE grp = 2",
        "UPDATE item SET id = 1 WHERE grp >= 3",
        "UPDATE pair SET b = 'y' WHERE a = 1",
    ] {
        assert!(differential(sql, &caches).is_err(), "{sql}");
    }
}

/// Crowd predicates: undecided comparisons come back as needs and touch
/// nothing; cached verdicts decide. Whatever the conjunct order in the
/// SQL text, the subject asks only about rows the machine conjuncts let
/// through — never more than the oracle, and here strictly less.
#[test]
fn crowd_predicates_ask_no_more_than_the_oracle() {
    let undecided = CompareCaches::default();
    let mut decided = CompareCaches::default();
    for (name, verdict) in [("n3", true), ("n4", false), ("n10", true)] {
        decided.put_equal(name, "N", EQUAL, verdict);
    }
    for stmt in ["DELETE FROM item", "UPDATE item SET name = 'hit'"] {
        // No machine conjunct: one question per stored row, as ever.
        let r = differential(&format!("{stmt} WHERE name ~= 'N'"), &undecided).unwrap();
        assert_eq!((r.affected, r.needs.len()), (0, 10));
        // Partly decided: the Yes rows are hit, the rest still asked.
        let r = differential(&format!("{stmt} WHERE name ~= 'N'"), &decided).unwrap();
        assert_eq!((r.affected, r.needs.len()), (2, 7));

        for filter in [
            "name ~= 'N' AND grp = 2",
            "grp = 2 AND name ~= 'N'",
            "name ~= 'N' AND grp >= 2 AND grp < 3",
        ] {
            let sql = format!("{stmt} WHERE {filter}");
            // Undecided: asked about the three grp = 2 rows and the two
            // whose grp is NULL (Unknown AND x is not yet False) — not
            // about the five rows the machine conjunct rejects.
            let r = differential(&sql, &undecided).unwrap();
            assert_eq!((r.affected, r.needs.len()), (0, 5), "{sql}");
            // The grp = 2 rows decided: only the NULL-grp rows are left.
            let r = differential(&sql, &decided).unwrap();
            assert_eq!((r.affected, r.needs.len()), (2, 2), "{sql}");
        }
        // The pinned key's row is the only one the crowd hears about.
        let sql = format!("{stmt} WHERE name ~= 'N' AND id = 7");
        assert_eq!(differential(&sql, &undecided).unwrap().needs.len(), 1);
        // Under OR nothing can be skipped — and nothing is.
        let sql = format!("{stmt} WHERE name ~= 'N' OR id = 7");
        let r = differential(&sql, &undecided).unwrap();
        assert_eq!((r.affected, r.needs.len()), (1, 10), "{sql}");
    }
}

/// ROADMAP item 2's "done when": what a primary-key UPDATE/DELETE costs
/// in page touches does not depend on the table's size — 200 → 4 000
/// rows adds at most the extra B-tree levels, not ~20× the pages.
#[test]
fn pk_dml_page_touches_do_not_scale_with_the_table() {
    let touches = |rows: usize| -> (u64, u64) {
        let db = Database::new_with_config(PagerConfig {
            page_size: 4096,
            pool_pages: 0,
        })
        .unwrap();
        create(
            &db,
            "CREATE TABLE s (k INTEGER PRIMARY KEY, v INTEGER, pad STRING)",
        );
        for chunk in (0..rows).collect::<Vec<_>>().chunks(100) {
            let values: Vec<String> = chunk
                .iter()
                .map(|k| format!("({k}, 0, 'padding-padding-padding-{k}')"))
                .collect();
            insert(&db, &format!("INSERT INTO s VALUES {}", values.join(", ")));
        }
        let caches = CompareCaches::default();
        let measure = |sql: &str| {
            let stmt = parse_statement(sql).unwrap();
            let before = db.pager_stats();
            let selection = select(&db, &caches, &stmt).unwrap();
            let applied = dml::apply(&db, selection, true).unwrap().unwrap();
            assert_eq!(applied.affected, 1);
            let d = db.pager_stats().diff(&before);
            d.pages_read + d.pool_hits
        };
        let k = rows / 2;
        (
            measure(&format!("UPDATE s SET v = v + 1 WHERE k = {k}")),
            measure(&format!("DELETE FROM s WHERE k = {k}")),
        )
    };
    let (small_upd, small_del) = touches(200);
    let (large_upd, large_del) = touches(4_000);
    // Two trees (heap + PK index) that may each be a level deeper at
    // 20× the rows.
    for (what, small, large) in [
        ("UPDATE", small_upd, large_upd),
        ("DELETE", small_del, large_del),
    ] {
        assert!(
            large <= small + 4,
            "PK {what}: {small} page touches at 200 rows, {large} at 4 000"
        );
    }
}

// ── A selection that went stale before it was applied ──────────────────

fn stored(db: &Database, table: &str) -> Vec<(TupleId, Row)> {
    db.with_table(table, |t| t.scan_rows()).unwrap().unwrap()
}

/// "Paid answers never lost": a crowd answer written back between select
/// and apply is not overwritten by the row image the selection holds.
/// `apply` declines, having changed nothing, and the statement's effect
/// is then computed from the image that is there.
#[test]
fn a_write_back_between_select_and_apply_survives() {
    let caches = CompareCaches::default();
    // (statement, the tuple and column the crowd fills meanwhile, what it
    // says, and what the tuple must hold in the end)
    for (sql, tid, col, answer, want) in [
        // The answer lands in a column the statement does not assign …
        (
            "UPDATE item SET grp = grp + 1 WHERE grp = 1",
            TupleId(1),
            2,
            20i64,
            vec![2.into(), "n2".into(), 20i64.into(), 2i64.into()],
        ),
        // … and in the one it reads and assigns: 35 + 1, not 30 + 1.
        (
            "UPDATE item SET score = score + 1 WHERE id = 3",
            TupleId(2),
            2,
            35,
            vec![3.into(), "n3".into(), 36i64.into(), 2i64.into()],
        ),
    ] {
        let db = world();
        let stmt = parse_statement(sql).unwrap();
        let stale = select(&db, &caches, &stmt).unwrap();
        db.write_back_value("item", tid, col, answer.into())
            .unwrap();
        let written_back = db.snapshot().unwrap();
        assert_eq!(dml::apply(&db, stale.clone(), true).unwrap(), None, "{sql}");
        assert_eq!(
            db.snapshot().unwrap(),
            written_back,
            "{sql}: a declined apply left something behind"
        );
        let fresh = select(&db, &caches, &stmt).unwrap();
        assert_eq!(fresh.targets.len(), stale.targets.len(), "{sql}");
        let applied = dml::apply(&db, fresh, true).unwrap().expect("current");
        assert_eq!(applied.affected, stale.targets.len(), "{sql}");
        let row = db.with_table("item", |t| t.get(tid)).unwrap().unwrap();
        assert_eq!(row, Some(Row::new(want)), "{sql}");
        // The change set says what was really replaced: the image with
        // the answer in it.
        let change = applied.change.expect("asked for");
        let removed = change.removed.iter().find(|(t, _)| *t == tid).unwrap();
        assert_eq!(removed.1[col], Value::Int(answer), "{sql}");
    }
}

/// A multi-row statement that finds its k-th target changed or gone puts
/// back the k−1 rows it already wrote — same tuple ids, same index
/// entries — before it asks to be selected again.
#[test]
fn a_stale_target_mid_statement_undoes_the_rows_before_it() {
    let caches = CompareCaches::default();
    for sql in [
        "DELETE FROM item WHERE grp = 2",
        "UPDATE item SET id = id + 100, grp = 9 WHERE grp = 2",
    ] {
        for meanwhile in [
            "UPDATE item SET name = 'moved' WHERE id = 10",
            "DELETE FROM item WHERE id = 10",
        ] {
            let db = world();
            let stmt = parse_statement(sql).unwrap();
            let stale = select(&db, &caches, &stmt).unwrap();
            // ids 3, 4 and 10, in tid order: the last is the one that moves.
            assert_eq!(stale.targets.len(), 3, "{sql}");
            insert(&db, meanwhile);
            let before = (db.snapshot().unwrap(), stored(&db, "item"));
            assert_eq!(dml::apply(&db, stale, true).unwrap(), None, "{sql}");
            assert_eq!(
                (db.snapshot().unwrap(), stored(&db, "item")),
                before,
                "{sql} after {meanwhile}: half a statement stayed"
            );
            // Every index still finds the rows that were put back.
            for (probe, hits) in [
                ("id = 3", 1),
                ("id = 103", 0),
                ("grp = 2", 3),
                ("grp = 9", 0),
            ] {
                let probe = parse_statement(&format!("DELETE FROM item WHERE {probe}")).unwrap();
                let found = select(&db, &caches, &probe).unwrap().targets.len();
                let gone = (meanwhile.starts_with("DELETE") && hits == 3) as usize;
                assert_eq!(found, hits - gone, "{sql} after {meanwhile}: {probe}");
            }
            // Selected again, the statement acts on what is there now.
            let fresh = select(&db, &caches, &stmt).unwrap();
            let applied = dml::apply(&db, fresh, true).unwrap().expect("current");
            assert_eq!(
                applied.affected,
                if meanwhile.starts_with("DELETE") {
                    2
                } else {
                    3
                },
                "{sql} after {meanwhile}"
            );
        }
    }
}

/// A tuple that is gone counts for nothing: two selections of the same
/// DELETE, applied one after the other, affect the row once.
#[test]
fn a_row_is_deleted_once() {
    let db = world();
    let caches = CompareCaches::default();
    let stmt = parse_statement("DELETE FROM item WHERE id = 7").unwrap();
    let (first, second) = (
        select(&db, &caches, &stmt).unwrap(),
        select(&db, &caches, &stmt).unwrap(),
    );
    assert!(matches!(first.targets[..], [Target::Delete(TupleId(6), _)]));
    let applied = dml::apply(&db, first, true).unwrap().expect("current");
    assert_eq!(applied.affected, 1);
    assert_eq!(applied.change.unwrap().removed.len(), 1);
    assert_eq!(dml::apply(&db, second, true).unwrap(), None);
    let again = select(&db, &caches, &stmt).unwrap();
    let applied = dml::apply(&db, again, true).unwrap().expect("current");
    assert_eq!(
        (applied.affected, applied.change.unwrap().is_empty()),
        (0, true)
    );
}
