//! Filter: row selection by predicate (standalone — filters directly
//! over scans are fused into [`super::table_scan`] at lowering).

use crowddb_common::{Result, Row};
use crowddb_plan::{BExpr, PhysicalPlan};

use crate::context::ExecCtx;
use crate::eval::eval_truth;
use crate::ops::{build, run_op, BoxedOp, Delta, OpStatsNode, Operator, TableChange};

/// Filter operator; see [`PhysicalPlan::Filter`].
pub struct FilterOp<'p> {
    input: BoxedOp<'p>,
    predicate: &'p BExpr,
}

impl<'p> FilterOp<'p> {
    /// Build from a [`PhysicalPlan::Filter`] node.
    pub fn new(plan: &'p PhysicalPlan) -> FilterOp<'p> {
        let PhysicalPlan::Filter {
            input, predicate, ..
        } = plan
        else {
            unreachable!("FilterOp built from {plan:?}")
        };
        FilterOp {
            input: build(input),
            predicate,
        }
    }
}

impl FilterOp<'_> {
    /// The rows of `rows` the predicate passes.
    fn select(&self, ctx: &mut ExecCtx<'_>, rows: Vec<Row>) -> Result<Vec<Row>> {
        let mut out = Vec::with_capacity(rows.len());
        for row in rows {
            ctx.rt.check()?;
            if eval_truth(ctx, self.predicate, &row)?.passes_filter() {
                out.push(row);
            }
        }
        Ok(out)
    }
}

impl Operator for FilterOp<'_> {
    fn execute(&self, ctx: &mut ExecCtx<'_>, stats: &mut OpStatsNode) -> Result<Vec<Row>> {
        let rows = run_op(self.input.as_ref(), ctx, &mut stats.children[0])?;
        stats.rows_in += rows.len() as u64;
        self.select(ctx, rows)
    }

    /// A row-at-a-time predicate maps both lists; one that reads a
    /// subquery depends on tables the change does not name.
    fn delta(&self, ctx: &mut ExecCtx<'_>, change: &TableChange) -> Result<Option<Delta>> {
        if self.predicate.has_subplan() {
            return Ok(None);
        }
        let Some(input) = self.input.delta(ctx, change)? else {
            return Ok(None);
        };
        Ok(Some(Delta {
            removed: self.select(ctx, input.removed)?,
            added: self.select(ctx, input.added)?,
        }))
    }
}
