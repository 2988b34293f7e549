//! Project: expression evaluation over each input row.

use crowddb_common::{Result, Row};
use crowddb_plan::{BExpr, PhysicalPlan};

use crate::context::ExecCtx;
use crate::eval::eval;
use crate::ops::{build, run_op, BoxedOp, Delta, OpStatsNode, Operator, TableChange};

/// Projection operator; see [`PhysicalPlan::Project`].
pub struct ProjectOp<'p> {
    input: BoxedOp<'p>,
    exprs: &'p [BExpr],
}

impl<'p> ProjectOp<'p> {
    /// Build from a [`PhysicalPlan::Project`] node.
    pub fn new(plan: &'p PhysicalPlan) -> ProjectOp<'p> {
        let PhysicalPlan::Project { input, exprs, .. } = plan else {
            unreachable!("ProjectOp built from {plan:?}")
        };
        ProjectOp {
            input: build(input),
            exprs,
        }
    }
}

impl ProjectOp<'_> {
    /// The output row of every row of `rows`.
    fn project(&self, ctx: &mut ExecCtx<'_>, rows: Vec<Row>) -> Result<Vec<Row>> {
        let mut out = Vec::with_capacity(rows.len());
        for row in rows {
            ctx.rt.check()?;
            let mut values = Vec::with_capacity(self.exprs.len());
            for e in self.exprs {
                values.push(eval(ctx, e, &row)?);
            }
            out.push(Row::new(values));
        }
        Ok(out)
    }
}

impl Operator for ProjectOp<'_> {
    fn execute(&self, ctx: &mut ExecCtx<'_>, stats: &mut OpStatsNode) -> Result<Vec<Row>> {
        let rows = run_op(self.input.as_ref(), ctx, &mut stats.children[0])?;
        stats.rows_in += rows.len() as u64;
        self.project(ctx, rows)
    }

    /// Row-at-a-time expressions map both lists (see `FilterOp::delta`).
    fn delta(&self, ctx: &mut ExecCtx<'_>, change: &TableChange) -> Result<Option<Delta>> {
        if self.exprs.iter().any(BExpr::has_subplan) {
            return Ok(None);
        }
        let Some(input) = self.input.delta(ctx, change)? else {
            return Ok(None);
        };
        Ok(Some(Delta {
            removed: self.project(ctx, input.removed)?,
            added: self.project(ctx, input.added)?,
        }))
    }
}
