//! The execution driver: lowers an optimized [`LogicalPlan`] to a
//! [`PhysicalPlan`] and runs it through the operator tree in
//! [`crate::ops`].
//!
//! A round is one full evaluation of the plan on current knowledge,
//! which keeps the round-based crowd semantics simple; inside it rows are
//! pushed from operator to operator (see [`crate::ops`] for where they
//! stream and where they are collected), and only the root's output is
//! materialized, as the round's result.

use crowddb_common::{CancelReason, CrowdError, Result, Row};
use crowddb_plan::cardinality::FnStats;
use crowddb_plan::{LogicalPlan, PhysicalPlan};
use crowddb_storage::Database;

use crate::context::{Carried, CompareCaches, ExecCtx, ExecGuard, RunStats};
use crate::need::TaskNeed;
use crate::ops::{self, maintenance, Delta, Maintenance, OpStatsNode, TableChange};

/// Outcome of one execution round.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecResult {
    /// Rows derivable with current knowledge.
    pub rows: Vec<Row>,
    /// Crowd work that would refine the answer. Empty ⇒ final.
    pub needs: Vec<TaskNeed>,
    /// Counters.
    pub stats: RunStats,
}

impl ExecResult {
    /// Whether the result is final (no crowd work pending).
    pub fn is_final(&self) -> bool {
        self.needs.is_empty()
    }
}

/// Execute `plan` against `db` for one round (lowering internally).
pub fn execute(db: &Database, caches: &CompareCaches, plan: &LogicalPlan) -> Result<ExecResult> {
    let physical = lower_plan(db, plan);
    let (result, _stats) = execute_physical(db, caches, &physical)?;
    Ok(result)
}

/// Lower a logical plan against the live catalog: cardinality estimates
/// come from current table stats, boundedness from primary-key metadata,
/// and access-path choice from the tables' secondary indexes.
pub fn lower_plan(db: &Database, plan: &LogicalPlan) -> PhysicalPlan {
    let stats = live_row_stats(db);
    let indexes = |table: &str| {
        db.with_table(table, |t| {
            t.indexes()
                .iter()
                .map(|i| crowddb_plan::IndexMeta {
                    name: i.name.clone(),
                    columns: i.columns.clone(),
                })
                .collect()
        })
        .unwrap_or_default()
    };
    crowddb_plan::physical::lower(plan, &stats, &|t| primary_key(db, t), &indexes)
}

/// Primary-key column ordinals of `table` (empty for an unknown table),
/// read under the catalog lock.
pub fn primary_key(db: &Database, table: &str) -> Vec<usize> {
    db.with_catalog(|c| c.get(table).map(|s| s.primary_key.clone()))
        .unwrap_or_default()
}

/// Table cardinalities for the planner, read off the live tables.
pub fn live_row_stats(db: &Database) -> FnStats<impl Fn(&str) -> Option<u64> + '_> {
    FnStats(move |table: &str| db.stats(table).ok().map(|s| s.live_rows as u64))
}

/// Execute an already-lowered physical plan for one round, returning the
/// result alongside the per-operator stats tree (counters; for per-operator
/// times see [`execute_physical_analyzed`]).
pub fn execute_physical(
    db: &Database,
    caches: &CompareCaches,
    physical: &PhysicalPlan,
) -> Result<(ExecResult, OpStatsNode)> {
    execute_physical_guarded(db, caches, physical, ExecGuard::unlimited())
}

/// A standing query on the delta route, between triggers: the plan one
/// evaluation lowered and what that same evaluation left behind — the
/// groups of its aggregates, the build sides of its joins, the schemas
/// its scans read. Holding them together is what makes
/// [`Maintained::delta`] sound — its answer is relative to exactly the
/// result [`Maintained::evaluate`] returned, as moved by every delta
/// since.
#[derive(Debug)]
pub struct Maintained {
    /// Boxed: stateful nodes find their state by plan-node address.
    plan: Box<PhysicalPlan>,
    carried: Carried,
}

impl Maintained {
    /// Lower the standing query `logical` against the live catalog and
    /// execute it for one round under `guard`: with the node state the
    /// delta route continues from if [`maintenance`] routes the plan
    /// there, as a plain round that keeps nothing otherwise.
    pub fn evaluate(
        db: &Database,
        caches: &CompareCaches,
        logical: &LogicalPlan,
        guard: ExecGuard,
    ) -> Result<(ExecResult, Option<Maintained>)> {
        let plan = Box::new(lower_plan(db, logical));
        let mut ctx = ExecCtx::with_guard(db, caches, guard);
        let incremental = matches!(maintenance(logical, &plan), Maintenance::Incremental(_));
        if incremental {
            ctx.carry_in(Carried::default());
        }
        let (result, _, carried) = run_round(ctx, &plan)?;
        Ok((result, incremental.then(|| Maintained { plan, carried })))
    }

    /// What `change` — already applied to `db`, and the only difference
    /// between `db` now and `db` as the last `evaluate` or `delta` saw it
    /// — does to the result: [`ops::Operator::delta`] of the plan's root.
    /// `None` means a rule declined this DML (a self-join whose both
    /// sides it changed, the nullable side of a LEFT join, an aggregate
    /// no longer exact); the state is then spent and the caller
    /// evaluates afresh. So does a delta that would have had to ask the
    /// crowd (every comparison misses the empty cache it runs against):
    /// what the crowd settles arrives outside any DML.
    pub fn delta(&mut self, db: &Database, change: &TableChange) -> Result<Option<Delta>> {
        Ok(self.delta_counted(db, change)?.0)
    }

    /// [`Maintained::delta`] with the counters of the run that found it.
    fn delta_counted(
        &mut self,
        db: &Database,
        change: &TableChange,
    ) -> Result<(Option<Delta>, RunStats)> {
        let caches = CompareCaches::default();
        let mut ctx = ExecCtx::new(db, &caches);
        ctx.carry_in(std::mem::take(&mut self.carried));
        let delta = ops::build(&self.plan).delta(&mut ctx, change)?;
        self.carried = ctx.carry_out();
        let (needs, stats) = ctx.finish();
        Ok((delta.filter(|_| needs.is_empty()), stats))
    }
}

/// Execute an already-lowered physical plan for one round under a
/// cooperative-cancellation [`ExecGuard`]. The guard's output-row cap is
/// enforced here, at the plan root, so a statement whose final result
/// exceeds the cap terminates with a typed error rather than silently
/// truncating.
pub fn execute_physical_guarded(
    db: &Database,
    caches: &CompareCaches,
    physical: &PhysicalPlan,
    guard: ExecGuard,
) -> Result<(ExecResult, OpStatsNode)> {
    let (result, stats_tree, _) = run_round(ExecCtx::with_guard(db, caches, guard), physical)?;
    Ok((result, stats_tree))
}

/// [`execute_physical_guarded`] for `EXPLAIN ANALYZE`: the same round,
/// with every hand-over between operators timed, so that each node's wall
/// time in the stats tree is the time spent in that operator itself. (A
/// plain round does not read the clock per row, and its tree charges a
/// pipeline's time to the scan that drives it.)
pub fn execute_physical_analyzed(
    db: &Database,
    caches: &CompareCaches,
    physical: &PhysicalPlan,
    guard: ExecGuard,
) -> Result<(ExecResult, OpStatsNode)> {
    let mut ctx = ExecCtx::with_guard(db, caches, guard);
    ctx.timed = true;
    let (result, stats_tree, _) = run_round(ctx, physical)?;
    Ok((result, stats_tree))
}

/// One round of `physical` in `ctx`: the result, the per-operator stats,
/// and what the context carries out (node state only if it was set up to
/// keep any).
fn run_round(
    mut ctx: ExecCtx<'_>,
    physical: &PhysicalPlan,
) -> Result<(ExecResult, OpStatsNode, Carried)> {
    let op = ops::build(physical);
    let mut stats_tree = OpStatsNode::skeleton(physical);
    let rows = ops::collect(op.as_ref(), &mut ctx, &mut stats_tree)?;
    if let Some(cap) = ctx.rt.max_output_rows() {
        if rows.len() as u64 > cap {
            return Err(CrowdError::Cancelled(CancelReason::OutputRowLimit));
        }
    }
    let carried = ctx.carry_out();
    let (needs, stats) = ctx.finish();
    Ok((ExecResult { rows, needs, stats }, stats_tree, carried))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dml;
    use crowddb_common::row;
    use crowddb_plan::{optimize, Binder, OptimizerConfig};
    use crowddb_sql::{parse_statement, Statement};

    /// crowdbench's tables with `rows` sessions over seven rooms.
    fn world(rows: i64) -> Database {
        let db = Database::new();
        for ddl in [
            "CREATE TABLE Sessions (k INTEGER PRIMARY KEY, room STRING, cap INTEGER)",
            "CREATE TABLE Room (room STRING PRIMARY KEY, floor INTEGER)",
        ] {
            let Statement::CreateTable(ct) = parse_statement(ddl).unwrap() else {
                panic!("{ddl}")
            };
            let schema = db.with_catalog(|c| c.schema_from_ast(&ct)).unwrap();
            db.create_table(schema).unwrap();
        }
        for r in 0..7i64 {
            db.insert("room", row![format!("R{r}"), r]).unwrap();
        }
        for k in 0..rows {
            db.insert("sessions", row![k, format!("R{}", k % 7), (k * 37) % 500])
                .unwrap();
        }
        db
    }

    /// `sql` as a standing query: evaluated once, ready for deltas.
    fn standing(db: &Database, sql: &str) -> (ExecResult, Maintained) {
        let Statement::Select(q) = parse_statement(sql).unwrap() else {
            panic!("{sql}")
        };
        let bound = db.with_catalog(|c| Binder::new(c).bind_query(&q)).unwrap();
        let plan = optimize(bound, &live_row_stats(db), &OptimizerConfig::default());
        let (result, maintained) =
            Maintained::evaluate(db, &CompareCaches::default(), &plan, ExecGuard::unlimited())
                .unwrap();
        (result, maintained.expect("routed incremental"))
    }

    /// Apply a DML statement and hand back the rows it changed.
    fn apply(db: &Database, sql: &str) -> TableChange {
        let (caches, guard) = (CompareCaches::default(), ExecGuard::unlimited());
        let stmt = parse_statement(sql).unwrap();
        let selection = dml::select(db, &caches, &stmt, guard).unwrap();
        let applied = dml::apply(db, selection, true).unwrap();
        applied
            .expect("nobody else writes")
            .change
            .expect("asked for")
    }

    /// What one single-row UPDATE makes the delta rules of crowdbench's
    /// three standing queries scan, and what they answer.
    fn one_update(rows: i64) -> Vec<(u64, Delta)> {
        let db = world(rows);
        let mut standing: Vec<Maintained> = [
            "SELECT k, room FROM Sessions WHERE cap >= 250",
            "SELECT s.k, r.floor FROM Sessions s JOIN Room r ON s.room = r.room",
            "SELECT room, COUNT(*), SUM(cap) FROM Sessions GROUP BY room",
        ]
        .iter()
        .map(|sql| {
            let (result, maintained) = standing(&db, sql);
            assert!(result.stats.rows_scanned >= rows as u64, "{sql}");
            maintained
        })
        .collect();
        let change = apply(
            &db,
            "UPDATE Sessions SET room = 'R3', cap = 499 WHERE k = 100",
        );
        assert_eq!((change.removed.len(), change.added.len()), (1, 1));
        standing
            .iter_mut()
            .map(|m| {
                let (delta, stats) = m.delta_counted(&db, &change).unwrap();
                (
                    stats.rows_scanned,
                    delta.expect("every operator has a rule"),
                )
            })
            .collect()
    }

    #[test]
    fn a_delta_scans_the_change_not_the_table() {
        let (small, large) = (one_update(200), one_update(4000));
        // The old and the new row; the join probes the Room it kept.
        for run in [&small, &large] {
            let scanned: Vec<u64> = run.iter().map(|(n, _)| *n).collect();
            assert_eq!(scanned, vec![2, 2, 2]);
        }
        assert_eq!(small[..2], large[..2], "same change, same answer");
        // 100 % 7 = 2, (100 * 37) % 500 = 200: the row enters the filter,
        // moves floors, and moves between two groups.
        assert_eq!(
            small[0].1,
            Delta {
                removed: vec![],
                added: vec![row![100i64, "R3"]]
            }
        );
        assert_eq!(
            small[1].1,
            Delta {
                removed: vec![row![100i64, 2i64]],
                added: vec![row![100i64, 3i64]]
            }
        );
        assert_eq!((small[2].1.removed.len(), small[2].1.added.len()), (2, 2));
    }

    /// A join's kept build side follows a change to its own input: after
    /// a `Room` UPDATE that moves a join key, a `Sessions` DML into that
    /// room gets the delta a freshly evaluated standing query gets.
    #[test]
    fn a_kept_build_side_follows_a_change_to_it() {
        let db = world(50);
        let sql = "SELECT s.k, r.floor FROM Sessions s JOIN Room r ON s.room = r.room";
        let (_, mut kept) = standing(&db, sql);
        let change = apply(&db, "UPDATE Room SET room = 'R9' WHERE room = 'R3'");
        let (delta, stats) = kept.delta_counted(&db, &change).unwrap();
        let delta = delta.expect("one side changed");
        // The 7 sessions in R3 leave; the 50 are read to find them.
        assert_eq!((delta.removed.len(), delta.added.len()), (7, 0));
        assert_eq!(stats.rows_scanned, 2 + 50);

        let (_, mut fresh) = standing(&db, sql);
        let change = apply(&db, "INSERT INTO Sessions VALUES (100, 'R9', 7)");
        let (want, fresh_stats) = fresh.delta_counted(&db, &change).unwrap();
        let (got, kept_stats) = kept.delta_counted(&db, &change).unwrap();
        assert_eq!(want, got);
        assert_eq!(
            got.expect("one side changed").added,
            vec![row![100i64, 3i64]]
        );
        // What was kept went stale and was dropped: built again, and kept.
        assert_eq!(
            (fresh_stats.rows_scanned, kept_stats.rows_scanned),
            (1, 1 + 7)
        );
        let change = apply(&db, "INSERT INTO Sessions VALUES (101, 'R9', 8)");
        let (_, stats) = kept.delta_counted(&db, &change).unwrap();
        assert_eq!(stats.rows_scanned, 1);
    }

    /// An aggregate answers only while its answer is certain to equal a
    /// fresh evaluation byte for byte; once it has declined, its state is
    /// spent until the next evaluation.
    #[test]
    fn an_aggregate_that_may_not_be_exact_declines() {
        let db = world(3);
        let big = i64::MAX - 1_000;
        // 37 + 74 + big fits; one more `big` and some order of the
        // additions overflows, so a fresh evaluation may error.
        let (_, mut sum) = standing(&db, "SELECT SUM(cap) FROM Sessions");
        let change = apply(&db, &format!("UPDATE Sessions SET cap = {big} WHERE k = 0"));
        let delta = sum.delta(&db, &change).unwrap().expect("still exact");
        assert_eq!(delta.added, vec![row![big + 111]]);
        let change = apply(
            &db,
            &format!("INSERT INTO Sessions VALUES (9, 'R0', {big})"),
        );
        assert_eq!(sum.delta(&db, &change).unwrap(), None);
        let change = apply(&db, "UPDATE Sessions SET cap = 1 WHERE k = 9");
        assert_eq!(sum.delta(&db, &change).unwrap(), None, "spent");
        let (_, mut sum) = standing(&db, "SELECT SUM(cap) FROM Sessions");
        let change = apply(&db, "UPDATE Sessions SET cap = 2 WHERE k = 9");
        let delta = sum.delta(&db, &change).unwrap().expect("rebuilt");
        assert_eq!(delta.added, vec![row![big + 113]]);

        // A FLOAT grouping key: 0.0 and -0.0 are one group to `=`.
        let (_, mut by_half) = standing(
            &db,
            "SELECT cap / 2.0, COUNT(*) FROM Sessions GROUP BY cap / 2.0",
        );
        let change = apply(&db, "UPDATE Sessions SET cap = 4 WHERE k = 1");
        assert_eq!(by_half.delta(&db, &change).unwrap(), None);
    }
}
