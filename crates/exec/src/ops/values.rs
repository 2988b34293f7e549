//! Values: literal rows (`SELECT` without `FROM`, `VALUES` lists).

use crowddb_common::{Result, Row};
use crowddb_plan::{BExpr, PhysicalPlan};

use crate::context::ExecCtx;
use crate::eval::eval;
use crate::ops::{Delta, Flow, OpStatsNode, Operator, Sink, TableChange};

/// Literal-rows operator; see [`PhysicalPlan::Values`].
pub struct ValuesOp<'p> {
    rows: &'p [Vec<BExpr>],
}

impl<'p> ValuesOp<'p> {
    /// Build from a [`PhysicalPlan::Values`] node.
    pub fn new(plan: &'p PhysicalPlan) -> ValuesOp<'p> {
        let PhysicalPlan::Values { rows, .. } = plan else {
            unreachable!("ValuesOp built from {plan:?}")
        };
        ValuesOp { rows }
    }
}

impl Operator for ValuesOp<'_> {
    fn execute(
        &self,
        ctx: &mut ExecCtx<'_>,
        _stats: &mut OpStatsNode,
        sink: &mut Sink<'_>,
    ) -> Result<Flow> {
        let empty = Row::default();
        for row_exprs in self.rows {
            ctx.rt.check()?;
            let mut values = Vec::with_capacity(row_exprs.len());
            for e in row_exprs {
                values.push(eval(ctx, e, &empty)?);
            }
            if sink(ctx, &mut Row::new(values))? == Flow::Stop {
                return Ok(Flow::Stop);
            }
        }
        Ok(Flow::More)
    }

    /// Literal rows read no table.
    fn delta(&self, _ctx: &mut ExecCtx<'_>, _change: &TableChange) -> Result<Option<Delta>> {
        Ok(Some(Delta::default()))
    }
}
