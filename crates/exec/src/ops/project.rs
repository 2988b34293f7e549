//! Project: expression evaluation over each input row, into one output
//! row the operator refills for every input row and lends on.

use crowddb_common::{Result, Row};
use crowddb_plan::{BExpr, PhysicalPlan};

use crate::context::ExecCtx;
use crate::eval::operand;
use crate::ops::{
    build, for_each_row, map_delta, BoxedOp, Delta, Flow, OpStatsNode, Operator, Sink, Streams,
    TableChange,
};

/// Projection operator; see [`PhysicalPlan::Project`].
pub struct ProjectOp<'p> {
    input: BoxedOp<'p>,
    exprs: &'p [BExpr],
    streams: Streams<'p>,
}

impl<'p> ProjectOp<'p> {
    /// Build from a [`PhysicalPlan::Project`] node.
    pub fn new(plan: &'p PhysicalPlan) -> ProjectOp<'p> {
        let PhysicalPlan::Project { input, exprs, .. } = plan else {
            unreachable!("ProjectOp built from {plan:?}")
        };
        ProjectOp {
            streams: Streams::new(plan, input),
            input: build(input),
            exprs,
        }
    }
}

impl ProjectOp<'_> {
    /// The output row of `row`, refilled into `out`, goes on. A column
    /// or a literal is copied into the slot's own allocation, not cloned.
    fn project(
        &self,
        ctx: &mut ExecCtx<'_>,
        row: &Row,
        out: &mut Row,
        sink: &mut Sink<'_>,
    ) -> Result<Flow> {
        ctx.rt.check()?;
        let mut failed = None;
        out.refill(
            self.exprs
                .iter()
                .map_while(|e| operand(ctx, e, row).map_err(|e| failed = Some(e)).ok()),
        );
        match failed {
            Some(e) => Err(e),
            None => sink(ctx, out),
        }
    }
}

impl Operator for ProjectOp<'_> {
    fn execute(
        &self,
        ctx: &mut ExecCtx<'_>,
        stats: &mut OpStatsNode,
        sink: &mut Sink<'_>,
    ) -> Result<Flow> {
        let mut out = Row::default();
        for_each_row(
            self.input.as_ref(),
            ctx,
            &mut stats.children[0],
            self.streams.get(),
            &mut |ctx, row| self.project(ctx, row, &mut out, sink),
        )
    }

    /// Row-at-a-time expressions map both lists (see `FilterOp::delta`).
    fn delta(&self, ctx: &mut ExecCtx<'_>, change: &TableChange) -> Result<Option<Delta>> {
        let mut out = Row::default();
        map_delta(ctx, self.input.as_ref(), change, |ctx, row, sink| {
            self.project(ctx, row, &mut out, sink)
        })
    }
}
