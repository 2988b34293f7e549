//! The execution driver: lowers an optimized [`LogicalPlan`] to a
//! [`PhysicalPlan`] and runs it through the operator tree in
//! [`crate::ops`].
//!
//! Execution is vector-at-a-time and materializing: each operator
//! produces its full output per round. This keeps the round-based crowd
//! semantics simple (a round is one full materialization) and is plenty
//! fast at the scale CrowdDB operates — the bottleneck is always the
//! human round-trips, as the paper observes.

use crowddb_common::{CancelReason, CrowdError, Result, Row};
use crowddb_plan::cardinality::FnStats;
use crowddb_plan::{LogicalPlan, PhysicalPlan};
use crowddb_storage::Database;

use crate::context::{CompareCaches, ExecCtx, ExecGuard, RunStats};
use crate::need::TaskNeed;
use crate::ops::{self, OpStatsNode};

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
    let pk = |table: &str| {
        db.schema(table)
            .map(|s| s.primary_key.clone())
            .unwrap_or_default()
    };
    let indexes = |table: &str| {
        db.with_table(table, |t| {
            t.indexes()
                .iter()
                .map(|i| crowddb_plan::IndexMeta {
                    name: i.name.clone(),
                    columns: i.columns.clone(),
                    ordered: i.ordered(),
                })
                .collect()
        })
        .unwrap_or_default()
    };
    crowddb_plan::physical::lower(plan, &stats, &pk, &indexes)
}

/// Table cardinalities for the planner, read off the live tables.
pub(crate) fn live_row_stats(db: &Database) -> FnStats<impl Fn(&str) -> Option<u64> + '_> {
    FnStats(move |table: &str| db.stats(table).ok().map(|s| s.live_rows as u64))
}

/// Execute an already-lowered physical plan for one round, returning the
/// result alongside the per-operator stats tree (for `EXPLAIN ANALYZE`
/// and the bench harness).
pub fn execute_physical(
    db: &Database,
    caches: &CompareCaches,
    physical: &PhysicalPlan,
) -> Result<(ExecResult, OpStatsNode)> {
    execute_physical_guarded(db, caches, physical, ExecGuard::unlimited())
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
    let mut ctx = ExecCtx::with_guard(db, caches, guard);
    let op = ops::build(physical);
    let mut stats_tree = OpStatsNode::skeleton(physical);
    let rows = ops::run_op(op.as_ref(), &mut ctx, &mut stats_tree)?;
    if let Some(cap) = ctx.rt.max_output_rows() {
        if rows.len() as u64 > cap {
            return Err(CrowdError::Cancelled(CancelReason::OutputRowLimit));
        }
    }
    let (needs, stats) = ctx.finish();
    Ok((ExecResult { rows, needs, stats }, stats_tree))
}
