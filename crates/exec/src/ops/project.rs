//! Project: expression evaluation over each input row.

use crowddb_common::{Result, Row};
use crowddb_plan::{BExpr, PhysicalPlan};

use crate::context::ExecCtx;
use crate::eval::eval;
use crate::ops::{
    build, for_each_row, map_delta, streams, BoxedOp, Delta, Flow, OpStatsNode, Operator, Sink,
    TableChange,
};

/// Projection operator; see [`PhysicalPlan::Project`].
pub struct ProjectOp<'p> {
    input: BoxedOp<'p>,
    exprs: &'p [BExpr],
    streams: bool,
}

impl<'p> ProjectOp<'p> {
    /// Build from a [`PhysicalPlan::Project`] node.
    pub fn new(plan: &'p PhysicalPlan) -> ProjectOp<'p> {
        let PhysicalPlan::Project { input, exprs, .. } = plan else {
            unreachable!("ProjectOp built from {plan:?}")
        };
        ProjectOp {
            streams: streams(plan, input),
            input: build(input),
            exprs,
        }
    }
}

impl ProjectOp<'_> {
    /// The output row of `row` goes on.
    fn project(&self, ctx: &mut ExecCtx<'_>, row: Row, sink: &mut Sink<'_>) -> Result<Flow> {
        ctx.rt.check()?;
        let mut values = Vec::with_capacity(self.exprs.len());
        for e in self.exprs {
            values.push(eval(ctx, e, &row)?);
        }
        sink(ctx, Row::new(values))
    }
}

impl Operator for ProjectOp<'_> {
    fn execute(
        &self,
        ctx: &mut ExecCtx<'_>,
        stats: &mut OpStatsNode,
        sink: &mut Sink<'_>,
    ) -> Result<Flow> {
        for_each_row(
            self.input.as_ref(),
            ctx,
            &mut stats.children[0],
            self.streams,
            &mut |ctx, row| self.project(ctx, row, sink),
        )
    }

    /// Row-at-a-time expressions map both lists (see `FilterOp::delta`).
    fn delta(&self, ctx: &mut ExecCtx<'_>, change: &TableChange) -> Result<Option<Delta>> {
        if self.exprs.iter().any(BExpr::has_subplan) {
            return Ok(None);
        }
        let Some(input) = self.input.delta(ctx, change)? else {
            return Ok(None);
        };
        map_delta(ctx, input, |ctx, row, sink| self.project(ctx, row, sink)).map(Some)
    }
}
