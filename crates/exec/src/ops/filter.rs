//! Filter: row selection by predicate (standalone — filters directly
//! over scans are fused into [`super::scan`] at lowering).

use crowddb_common::{Result, Row};
use crowddb_plan::{BExpr, PhysicalPlan};

use crate::context::ExecCtx;
use crate::eval::eval_truth;
use crate::ops::{
    build, for_each_row, map_delta, BoxedOp, Delta, Flow, OpStatsNode, Operator, Sink, Streams,
    TableChange,
};

/// Filter operator; see [`PhysicalPlan::Filter`].
pub struct FilterOp<'p> {
    input: BoxedOp<'p>,
    predicate: &'p BExpr,
    streams: Streams<'p>,
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
            streams: Streams::new(plan, input),
            input: build(input),
            predicate,
        }
    }
}

impl FilterOp<'_> {
    /// `row` goes on if the predicate passes it.
    fn select(&self, ctx: &mut ExecCtx<'_>, row: &mut Row, sink: &mut Sink<'_>) -> Result<Flow> {
        ctx.rt.check()?;
        match eval_truth(ctx, self.predicate, row)?.passes_filter() {
            true => sink(ctx, row),
            false => Ok(Flow::More),
        }
    }
}

impl Operator for FilterOp<'_> {
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
            self.streams.get(),
            &mut |ctx, row| self.select(ctx, row, sink),
        )
    }

    /// A row-at-a-time predicate maps both lists.
    fn delta(&self, ctx: &mut ExecCtx<'_>, change: &TableChange) -> Result<Option<Delta>> {
        map_delta(ctx, self.input.as_ref(), change, |ctx, row, sink| {
            self.select(ctx, row, sink)
        })
    }
}
